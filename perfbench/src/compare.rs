//! `bddmin-bench compare <parent.jsonl> <change.jsonl>`: judges a change
//! against its parent from the lines `bddmin-bench all` prints, one
//! verdict per (workload, end-to-end metric).
//!
//! The rule, with the bounds of `BENCHMARK.json`:
//! run `i` of the change is paired with run `i` of the parent.
//! - **unresolved**: the parent's own spread (quartile distance over the
//!   median) exceeds the bound, unless every change run beats every
//!   parent run, which counts as better, or every change run loses to
//!   every parent run and the median is worse by more than the bound,
//!   which counts as worse;
//! - **worse**: the change's median is worse than the parent's by more
//!   than the bound;
//! - **better**: the change wins at least nine tenths of the pairs and
//!   its median beats the parent's by more than the parent's quartile
//!   distance;
//! - **unchanged** otherwise.
//!
//! A higher failure rate (`failed / ops`) is also a regression.

use std::collections::BTreeMap;
use std::fmt;

use bddmin_serve::json::{self, Json};

use crate::config::{Declared, MetricDecl};
use crate::stats::{median, quartiles};

/// The verdict on one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Shown to improve.
    Better,
    /// Within the bound and not shown to improve.
    Unchanged,
    /// Worse by more than the bound.
    Worse,
    /// The parent's spread is wider than the bound and the runs of the
    /// two sides overlap.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// Applies the rule to one metric's runs.
pub fn judge(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    if parent.len() < 2 || change.is_empty() {
        return Verdict::Unresolved;
    }
    let beats = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let (p_med, c_med) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let worse_by = if higher_is_better {
        p_med - c_med
    } else {
        c_med - p_med
    } / p_med.abs();
    if (q3 - q1) / p_med.abs() > bound {
        let all_better = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
        let all_worse = change.iter().all(|&c| parent.iter().all(|&p| beats(p, c)));
        return if all_better {
            Verdict::Better
        } else if all_worse && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        return Verdict::Worse;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| beats(c, p))
        .count();
    if 10 * wins >= 9 * pairs && beats(c_med, p_med) && (c_med - p_med).abs() > q3 - q1 {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// The runs of one side, per workload, in file order.
#[derive(Default)]
struct Side {
    runs: BTreeMap<String, Vec<Run>>,
}

struct Run {
    ops: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

impl Side {
    fn parse(text: &str, what: &str) -> Result<Side, String> {
        let mut side = Side::default();
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let v = json::parse(line).map_err(|e| format!("{what}:{}: {e}", i + 1))?;
            if v.get("trace").and_then(Json::as_u64) == Some(1) {
                continue;
            }
            let num = |key: &str| match v.get(key) {
                Some(Json::Num(n)) => Ok(*n),
                _ => Err(format!("{what}:{}: missing number {key:?}", i + 1)),
            };
            let workload = v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{what}:{}: missing workload", i + 1))?;
            let metrics = v
                .get("metrics")
                .and_then(Json::members)
                .ok_or_else(|| format!("{what}:{}: missing metrics", i + 1))?
                .iter()
                .filter_map(|(name, m)| match m.get("value") {
                    Some(Json::Num(n)) => Some((name.clone(), *n)),
                    _ => None,
                })
                .collect();
            side.runs.entry(workload.to_owned()).or_default().push(Run {
                ops: num("ops")?,
                failed: num("failed")?,
                metrics,
            });
        }
        Ok(side)
    }
}

/// Compares two files of `all` lines; returns the process exit code:
/// 1 when any pair is worse or the failure rate rose, else 0.
pub fn compare(parent: &str, change: &str, declared: &Declared) -> Result<i32, String> {
    let parent = Side::parse(parent, "parent")?;
    let change = Side::parse(change, "change")?;
    let mut regressed = false;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "parent", "change", "delta"
    );
    for workload in &declared.workloads {
        let (Some(p), Some(c)) = (parent.runs.get(workload), change.runs.get(workload)) else {
            println!("{workload:<14} (missing from one side)");
            continue;
        };
        for MetricDecl {
            name,
            higher_is_better,
            bound,
            ..
        } in &declared.end_to_end
        {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect()
            };
            let (pv, cv) = (values(p), values(c));
            if pv.is_empty() || cv.is_empty() {
                println!("{workload:<14} {name:<16} (missing)");
                continue;
            }
            let verdict = judge(&pv, &cv, *higher_is_better, bound.unwrap_or(0.0));
            regressed |= verdict == Verdict::Worse;
            let (pm, cm) = (median(&pv), median(&cv));
            println!(
                "{workload:<14} {name:<16} {pm:>14.6} {cm:>14.6} {:>+7.1}%  {verdict}",
                100.0 * (cm - pm) / pm
            );
        }
        let rate = |runs: &[Run]| {
            let ops: f64 = runs.iter().map(|r| r.ops).sum();
            runs.iter().map(|r| r.failed).sum::<f64>() / ops.max(1.0)
        };
        let (pr, cr) = (rate(p), rate(c));
        let rose = cr > pr;
        regressed |= rose;
        println!(
            "{workload:<14} {:<16} {pr:>14.6} {cr:>14.6} {:>8}  {}",
            "fail_rate",
            "",
            if rose { "worse" } else { "unchanged" }
        );
    }
    Ok(i32::from(regressed))
}
