//! `bddmin-bench`: the benchmark's command line.
//!
//! ```text
//! bddmin-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bddmin-bench all [--seed <n>] [--seconds <s>] [--trace]
//! bddmin-bench compare <parent.jsonl> <change.jsonl>
//! ```
//!
//! The first form runs one workload and prints one JSON result line last
//! on stdout. `all` runs every workload, each in a fresh process, and
//! prints one line per workload; `compare` judges two files of such lines.

use std::process::{Command, Stdio};
use std::time::Instant;

use bddmin_perfbench::compare::compare;
use bddmin_perfbench::config::{Declared, Sizes};
use bddmin_perfbench::run::{metrics_json, result_line, run, RunArgs};
use bddmin_serve::json::{self, Json};

const USAGE: &str = "usage: bddmin-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
       bddmin-bench all [--seed <n>] [--seconds <s>] [--trace]
       bddmin-bench compare <parent.jsonl> <change.jsonl>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bddmin-bench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    let declared = Declared::load()?;
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, parent, change] = args else {
                return Err(USAGE.to_owned());
            };
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            compare(&read(parent)?, &read(change)?, &declared)
        }
        Some("all") => {
            let flags = Flags::parse(&args[1..], &["--seed", "--seconds"], &["--trace"])?;
            let seed = flags.integer("--seed")?.unwrap_or(1);
            let seconds = flags
                .number("--seconds")?
                .unwrap_or(declared.run_seconds as f64);
            run_all(&declared, seed, seconds, flags.has("--trace"))?;
            Ok(0)
        }
        _ => {
            let flags = Flags::parse(args, &["--workload", "--seed", "--seconds", "--trace"], &[])?;
            let run_args = RunArgs {
                workload: flags.value("--workload").ok_or(USAGE)?.to_owned(),
                seed: flags.integer("--seed")?.ok_or(USAGE)?,
                seconds: flags
                    .number("--seconds")?
                    .unwrap_or(declared.run_seconds as f64),
                trace: match flags.value("--trace") {
                    None | Some("0") => false,
                    Some("1") => true,
                    Some(other) => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                },
            };
            let outcome = run(&run_args, &declared, &Sizes::load()?)?;
            println!("{}", result_line(&outcome));
            Ok(0)
        }
    }
}

/// Runs every declared workload in a fresh process, one after another,
/// and prints one line per workload; with `trace`, a second traced set.
fn run_all(declared: &Declared, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let modes: &[u8] = if trace { &[0, 1] } else { &[0] };
    for &mode in modes {
        for workload in &declared.workloads {
            let start = Instant::now();
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    &mode.to_string(),
                ])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {workload}: {e}"))?;
            if !output.status.success() {
                return Err(format!("{workload} failed: {}", output.status));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let result =
                json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
            let count = |key: &str| result.get(key).and_then(Json::as_u64).unwrap_or(0);
            let metrics: Vec<(String, f64, String)> = result
                .get("metrics")
                .and_then(Json::members)
                .unwrap_or_default()
                .iter()
                .filter_map(|(name, m)| {
                    match (m.get("value"), m.get("unit").and_then(Json::as_str)) {
                        (Some(Json::Num(value)), Some(unit)) => {
                            Some((name.clone(), *value, unit.to_owned()))
                        }
                        _ => None,
                    }
                })
                .collect();
            println!(
                "{{\"workload\":\"{workload}\",\"seed\":{seed},\"commit\":\"{}\",\"trace\":{mode},\
                 \"nproc\":{nproc},\"wall_s\":{},\"ops\":{},\"failed\":{},\"metrics\":{}}}",
                json::escape(&commit),
                start.elapsed().as_secs_f64(),
                count("attempted"),
                count("failed"),
                metrics_json(&metrics)
            );
        }
    }
    Ok(())
}

/// `--flag value` and bare `--switch` arguments.
struct Flags<'a> {
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String], valued: &[&str], switches: &[&str]) -> Result<Flags<'a>, String> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if valued.contains(&arg.as_str()) {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.values.push((arg, value));
            } else if switches.contains(&arg.as_str()) {
                flags.switches.push(arg);
            } else {
                return Err(format!("unexpected argument {arg:?}\n{USAGE}"));
            }
        }
        Ok(flags)
    }

    fn value(&self, name: &str) -> Option<&'a str> {
        self.values
            .iter()
            .rev()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }

    fn number(&self, name: &str) -> Result<Option<f64>, String> {
        self.value(name)
            .map(|v| {
                v.parse::<f64>()
                    .ok()
                    .filter(|n| n.is_finite() && *n >= 0.0)
                    .ok_or_else(|| format!("{name} takes a non-negative number, got {v:?}"))
            })
            .transpose()
    }

    fn integer(&self, name: &str) -> Result<Option<u64>, String> {
        self.value(name)
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|_| format!("{name} takes a whole number, got {v:?}"))
            })
            .transpose()
    }

    fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }
}
