//! Command-line options shared by the table/figure binaries.

use std::fmt::Display;
use std::str::FromStr;

use bddmin_bdd::{ReorderMethod, ReorderSettings};
use bddmin_fsm::ImageMethod;

use crate::runner::BudgetLimits;

/// The shared flags of `table3`, `table4` and `figure3`.
#[derive(Debug)]
pub struct EvalArgs {
    /// `--quick`: capped iterations for a fast smoke run.
    pub quick: bool,
    /// `--jobs N`: measurement worker threads (default 1).
    pub jobs: usize,
    /// `--no-times`: zero out wall-clock columns for deterministic output.
    pub no_times: bool,
    /// `--only a,b,c`: restrict to these paper benchmark names.
    pub only: Vec<String>,
    /// `--csv <dir>`: CSV output directory (table3 only).
    pub csv_dir: Option<String>,
    /// `--step-limit N`: deterministic per-heuristic step budget.
    pub step_limit: Option<u64>,
    /// `--node-limit N`: live-node ceiling per heuristic invocation.
    pub node_limit: Option<usize>,
    /// `--time-limit MS`: wall-clock budget per heuristic invocation.
    pub time_limit_ms: Option<u64>,
    /// `--reorder {none,sift,group}`: dynamic variable reordering at the
    /// traversal's GC quiescent points (default `none`).
    pub reorder: ReorderMethod,
    /// `--reorder-growth F`: sifting growth factor (default 1.2).
    pub reorder_growth: Option<f64>,
    /// `--image {mono,range}`: image computation method for the
    /// traversal (default `range`, the historical runner). Rendered
    /// tables are byte-identical across methods.
    pub image: ImageMethod,
}

impl EvalArgs {
    /// Parses the shared flags from a full argument list (program name
    /// first). Unknown flags are ignored so each binary can keep its own
    /// extras; a shared flag with a missing or malformed value is an
    /// error naming the flag and the value.
    pub fn parse(args: &[String]) -> Result<EvalArgs, String> {
        let flag = |name: &str| args.iter().any(|a| a == name);
        Ok(EvalArgs {
            quick: flag("--quick"),
            jobs: value(args, "--jobs")?.unwrap_or(1),
            no_times: flag("--no-times"),
            only: value::<String>(args, "--only")?
                .map(|v| {
                    v.split(',')
                        .filter(|s| !s.is_empty())
                        .map(str::to_owned)
                        .collect()
                })
                .unwrap_or_default(),
            csv_dir: value(args, "--csv")?,
            step_limit: value(args, "--step-limit")?,
            node_limit: value(args, "--node-limit")?,
            time_limit_ms: value(args, "--time-limit")?,
            reorder: value(args, "--reorder")?.unwrap_or(ReorderMethod::None),
            reorder_growth: value(args, "--reorder-growth")?,
            image: value(args, "--image")?.unwrap_or(ImageMethod::Range),
        })
    }

    /// The budget limits requested on the command line.
    pub fn limits(&self) -> BudgetLimits {
        BudgetLimits {
            step_limit: self.step_limit,
            node_limit: self.node_limit,
            time_limit_ms: self.time_limit_ms,
        }
    }

    /// The reorder settings requested on the command line.
    pub fn reorder_settings(&self) -> ReorderSettings {
        let defaults = ReorderSettings::default();
        ReorderSettings {
            method: self.reorder,
            growth: self.reorder_growth.unwrap_or(defaults.growth),
            ..defaults
        }
    }
}

/// The parsed value following `flag`, if the flag is present.
fn value<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let raw = args
        .get(at + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map(Some)
        .map_err(|e| format!("bad {flag} value {raw:?}: {e}"))
}

/// Parses the shared flags from `std::env::args`; on a bad value, prints
/// the error and exits with status 2.
pub fn parse_eval_args() -> EvalArgs {
    let args: Vec<String> = std::env::args().collect();
    EvalArgs::parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a space-separated command line after the program name.
    fn parse(line: &str) -> Result<EvalArgs, String> {
        let args: Vec<String> = std::iter::once("table3")
            .chain(line.split_whitespace())
            .map(str::to_owned)
            .collect();
        EvalArgs::parse(&args)
    }

    #[test]
    fn defaults_and_well_formed_values() {
        let d = parse("").unwrap();
        assert!(!d.quick && !d.no_times);
        assert_eq!(d.jobs, 1);
        assert!(d.only.is_empty() && d.csv_dir.is_none());
        assert_eq!(d.reorder, ReorderMethod::None);
        assert_eq!(d.image, ImageMethod::Range);
        assert!(!d.limits().armed());
        let a = parse(
            "--quick --jobs 4 --only tlc,,s386 --image mono --reorder sift \
             --reorder-growth 1.5 --step-limit 25 --node-limit 900 \
             --time-limit 30 --no-times --unknown",
        )
        .unwrap();
        assert!(a.quick && a.no_times);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.only, ["tlc", "s386"]);
        assert_eq!(a.image, ImageMethod::Mono);
        assert_eq!(a.reorder_settings().method, ReorderMethod::Sift);
        assert_eq!(a.reorder_settings().growth, 1.5);
        assert_eq!(
            a.limits(),
            BudgetLimits {
                step_limit: Some(25),
                node_limit: Some(900),
                time_limit_ms: Some(30),
            }
        );
    }

    #[test]
    fn malformed_values_name_the_flag_and_the_value() {
        for (flag, bad) in [
            ("--jobs", "abc"),
            ("--image", "bogus"),
            ("--image", "part"),
            ("--reorder", "bogus"),
            ("--reorder-growth", "x"),
            ("--step-limit", "many"),
            ("--node-limit", "-3"),
            ("--time-limit", "soon"),
        ] {
            let err = parse(&format!("--quick {flag} {bad}")).unwrap_err();
            assert!(
                err.contains(flag) && err.contains(bad),
                "{flag} {bad}: message {err:?} must name both"
            );
        }
        let err = parse("--jobs").unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
    }
}
