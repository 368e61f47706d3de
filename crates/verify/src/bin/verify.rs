//! Command-line front end for the differential verification harness.
//!
//! ```text
//! verify --seed 1..4 --budget-ms 30000                 # CI fuzz-smoke
//! verify --seed 7 --iters 5000 --oracle cover          # one oracle, one seed
//! verify --mutant break-cover --expect-failure         # prove the oracle fires
//! verify --corpus-dir tests/corpus --seed 3            # write reproducers
//! ```
//!
//! Exit status is 0 when no oracle failed, 1 otherwise; `--expect-failure`
//! inverts that so mutation gates can assert the harness *does* catch an
//! injected bug. The JSON stats blob on stdout carries stable key names so
//! CI can grep for them.

use std::path::PathBuf;
use std::process::ExitCode;

use bddmin_verify::corpus;
use bddmin_verify::oracle::{Mutant, Oracle};
use bddmin_verify::runner::{run_fuzz, FuzzConfig, StructuredOpts};
use bddmin_verify::sched::ArmKind;

const USAGE: &str = "\
usage: verify [options]

options:
  --seed A | --seed A..B   seed, or inclusive seed range, to sweep   [1]
  --iters N                instances per seed                        [1000]
  --budget-ms N            wall-clock budget across all seeds        [none]
  --oracle NAME            run only this oracle (repeatable; default all nine:
                           cover, cube-optimal, osm-level, sandwich,
                           agreement, invariance, budget,
                           reorder-invariance, image-equivalence)
  --mutant NAME            inject a deliberate bug (break-cover, ...)
  --corpus-dir DIR         write shrunk reproducers into DIR
  --no-write               never write reproducer files
  --max-failures N         stop after N failures                     [4]
  --expect-failure         exit 0 iff at least one failure was found
  --structured             bandit-scheduled multi-arm mode covering all
                           input surfaces (instances, BLIF, expr, CLI args)
  --corpus-seed DIR        seed the corpus-mutate/splice arms from the
                           .repro files in DIR (implies --structured)
  --arm NAME               restrict the structured rotation (repeatable;
                           classic, dense, corpus-mutate, corpus-splice,
                           blif, expr, args; implies --structured)
  --min-instances N        fail unless >= N oracle instances ran and every
                           configured oracle was exercised
  --min-rate R             fail below R oracle instances per second
  -h, --help               show this help
";

struct Options {
    config: FuzzConfig,
    expect_failure: bool,
    min_instances: Option<u64>,
    min_rate: Option<f64>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut config = FuzzConfig {
        corpus_dir: None,
        ..FuzzConfig::default()
    };
    let mut expect_failure = false;
    let mut oracles: Vec<Oracle> = Vec::new();
    let mut no_write = false;
    let mut saw_iters = false;
    let mut saw_budget = false;
    let mut structured = false;
    let mut corpus_seed_dir: Option<PathBuf> = None;
    let mut arms: Vec<ArmKind> = Vec::new();
    let mut min_instances = None;
    let mut min_rate = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--seed" => config.seeds = parse_seed_spec(&value("--seed")?)?,
            "--iters" => {
                config.iters = value("--iters")?
                    .parse()
                    .map_err(|e| format!("bad --iters: {e}"))?;
                saw_iters = true;
            }
            "--budget-ms" => {
                config.budget_ms = Some(
                    value("--budget-ms")?
                        .parse()
                        .map_err(|e| format!("bad --budget-ms: {e}"))?,
                );
                saw_budget = true;
            }
            "--oracle" => {
                oracles.push(value("--oracle")?.parse().map_err(|e| format!("{e}"))?);
            }
            "--mutant" => {
                config.mutant = value("--mutant")?.parse()?;
            }
            "--corpus-dir" => config.corpus_dir = Some(PathBuf::from(value("--corpus-dir")?)),
            "--no-write" => no_write = true,
            "--max-failures" => {
                config.max_failures = value("--max-failures")?
                    .parse()
                    .map_err(|e| format!("bad --max-failures: {e}"))?;
            }
            "--expect-failure" => expect_failure = true,
            "--structured" => structured = true,
            "--corpus-seed" => {
                corpus_seed_dir = Some(PathBuf::from(value("--corpus-seed")?));
                structured = true;
            }
            "--arm" => {
                arms.push(value("--arm")?.parse()?);
                structured = true;
            }
            "--min-instances" => {
                min_instances = Some(
                    value("--min-instances")?
                        .parse()
                        .map_err(|e| format!("bad --min-instances: {e}"))?,
                );
            }
            "--min-rate" => {
                min_rate = Some(
                    value("--min-rate")?
                        .parse::<f64>()
                        .map_err(|e| format!("bad --min-rate: {e}"))?,
                );
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !oracles.is_empty() {
        config.oracles = oracles;
    }
    // A budget-driven run should not stop early on the default
    // iteration bound; an explicit --iters still takes effect.
    if saw_budget && !saw_iters {
        config.iters = u64::MAX;
    }
    if no_write {
        config.corpus_dir = None;
    }
    if structured {
        let seed_corpus = match &corpus_seed_dir {
            Some(dir) => load_seed_corpus(dir)?,
            None => Vec::new(),
        };
        config.structured = Some(StructuredOpts { seed_corpus, arms });
    }
    Ok(Options {
        config,
        expect_failure,
        min_instances,
        min_rate,
    })
}

/// Loads every `.repro` file in `dir` (sorted by file name, so the arm
/// schedule is stable across filesystems) as a seed instance.
fn load_seed_corpus(dir: &std::path::Path) -> Result<Vec<bddmin_verify::gen::Instance>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read --corpus-seed dir {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "repro"))
        .collect();
    paths.sort();
    let mut seeds = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let entry =
            corpus::parse(&text).map_err(|e| format!("bad corpus file {}: {e}", path.display()))?;
        seeds.push(entry.instance);
    }
    Ok(seeds)
}

/// Parses `7` or an inclusive range `1..4`.
fn parse_seed_spec(spec: &str) -> Result<Vec<u64>, String> {
    if let Some((lo, hi)) = spec.split_once("..") {
        let lo: u64 = lo
            .parse()
            .map_err(|e| format!("bad seed range start: {e}"))?;
        let hi: u64 = hi.parse().map_err(|e| format!("bad seed range end: {e}"))?;
        if lo > hi {
            return Err(format!("empty seed range {spec:?}"));
        }
        Ok((lo..=hi).collect())
    } else {
        Ok(vec![spec.parse().map_err(|e| format!("bad seed: {e}"))?])
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("verify: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.config.mutant != Mutant::None {
        eprintln!(
            "verify: running with injected bug `{}` (target oracle: {})",
            opts.config.mutant,
            opts.config.mutant.target_oracle().map_or("-", Oracle::name)
        );
    }
    let report = match run_fuzz(&opts.config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("verify: corpus write failed: {e}");
            return ExitCode::from(2);
        }
    };
    for failure in &report.failures {
        eprintln!(
            "FAILURE oracle={} seed={} iteration={}: {}",
            failure.oracle, failure.seed, failure.round, failure.evidence
        );
        eprintln!(
            "  shrunk {} -> {} in {} steps; reproducer:",
            failure.initial_size, failure.final_size, failure.shrink_steps
        );
        for line in failure.reproducer.lines() {
            eprintln!("  | {line}");
        }
        match &failure.corpus_path {
            Some(path) => eprintln!("  written to {}", path.display()),
            None => eprintln!("  (corpus writing disabled; commit the lines above)"),
        }
    }
    for failure in &report.surface_failures {
        eprintln!(
            "SURFACE FAILURE arm={} seed={} iteration={}: {}",
            failure.arm, failure.seed, failure.round, failure.evidence
        );
        eprintln!("  shrunk in {} steps; reproducer:", failure.shrink_steps);
        for line in failure.artifact.lines() {
            eprintln!("  | {line}");
        }
        match &failure.path {
            Some(path) => eprintln!("  written to {}", path.display()),
            None => eprintln!("  (corpus writing disabled; commit the lines above)"),
        }
    }
    println!("{}", report.to_json());
    let mut floor_failed = false;
    if let Some(min) = opts.min_instances {
        if report.instances < min {
            eprintln!(
                "verify: instance floor not met: {} < {min}",
                report.instances
            );
            floor_failed = true;
        }
        // The floor also demands breadth: every configured oracle must
        // actually have been exercised, not just the easy ones.
        for (oracle, stats) in Oracle::ALL.iter().zip(&report.oracle_stats) {
            let exercised = stats.passes + stats.skips + stats.fails;
            if opts.config.oracles.contains(oracle) && exercised == 0 {
                eprintln!("verify: oracle {oracle} was never exercised");
                floor_failed = true;
            }
        }
    }
    if let Some(min) = opts.min_rate {
        let secs = (report.elapsed_ms as f64 / 1000.0).max(1e-9);
        let rate = report.instances as f64 / secs;
        if rate < min {
            eprintln!("verify: instance rate floor not met: {rate:.1}/s < {min}/s");
            floor_failed = true;
        }
    }
    let failed = report.has_failures();
    if opts.expect_failure {
        if failed {
            eprintln!(
                "verify: injected bug was caught and shrunk as expected ({} failure(s))",
                report.num_failures()
            );
            ExitCode::SUCCESS
        } else {
            eprintln!("verify: expected at least one failure, found none");
            ExitCode::FAILURE
        }
    } else if failed || floor_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
