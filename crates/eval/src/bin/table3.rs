//! Regenerates **Table 3** of the paper: cumulative result sizes, % of
//! `min`, runtimes and ranks for every heuristic — over all calls and split
//! into the `c_onset_size < 5%` and `> 95%` buckets — plus the §4.2 prose
//! summary (reduction factor, lower-bound ratio).
//!
//! Usage: `cargo run --release -p bddmin-eval --bin table3
//!   [--quick] [--jobs N] [--only a,b] [--no-times] [--csv <dir>]
//!   [--step-limit N] [--node-limit N] [--time-limit MS]
//!   [--reorder {none,sift,group}] [--reorder-growth F]
//!   [--image {mono,range}]`
//!
//! The budget flags bound every heuristic invocation; blown runs degrade
//! to a valid cover and are counted in a skip-accounting line.

use bddmin_eval::args::parse_eval_args;
use bddmin_eval::par::run_experiment_jobs;
use bddmin_eval::report::{render_summary, render_table3, table3_csv};
use bddmin_eval::runner::{ExperimentConfig, OnsetBucket};
use bddmin_eval::tables::{summary, table3};

fn main() {
    let args = parse_eval_args();
    let csv_dir = args.csv_dir.clone();
    let config = if args.quick {
        ExperimentConfig {
            lower_bound_cubes: 50,
            max_iterations: Some(6),
            only_benchmarks: args.only.clone(),
            limits: args.limits(),
            reorder: args.reorder_settings(),
            image: args.image,
            ..Default::default()
        }
    } else {
        ExperimentConfig {
            only_benchmarks: args.only.clone(),
            limits: args.limits(),
            reorder: args.reorder_settings(),
            image: args.image,
            ..Default::default()
        }
    };
    eprintln!(
        "running FSM-equivalence experiment over the benchmark suite{} ({} job{})...",
        if args.quick { " (quick mode)" } else { "" },
        args.jobs.max(1),
        if args.jobs.max(1) == 1 { "" } else { "s" },
    );
    let mut results = run_experiment_jobs(&config, args.jobs);
    // Peak memory depends on `--jobs` sharding, so it goes to stderr,
    // keeping stdout byte-comparable across job counts.
    eprintln!("{}", results.memory_annotation());
    if args.no_times {
        results.strip_times();
    }
    println!(
        "intercepted {} minimization calls ({} filtered: {} cube care, {} c<=f, {} c<=!f)\n",
        results.calls.len() + results.filtered.total(),
        results.filtered.total(),
        results.filtered.cube,
        results.filtered.inside_onset,
        results.filtered.inside_offset,
    );
    if args.reorder != bddmin_bdd::ReorderMethod::None {
        println!("{}\n", results.reorder_annotation());
    }
    if config.limits.armed() {
        println!("{}\n", results.budget_summary());
    }
    for bucket in [
        None,
        Some(OnsetBucket::Small),
        Some(OnsetBucket::Medium),
        Some(OnsetBucket::Large),
    ] {
        let t = table3(&results, bucket);
        if t.num_calls == 0 {
            let label = bucket.map_or("all".to_owned(), |b| b.label().to_owned());
            println!("(no calls in bucket {label})\n");
            continue;
        }
        println!("{}", render_table3(&t));
        if let Some(dir) = &csv_dir {
            let slug = match bucket {
                None => "all",
                Some(OnsetBucket::Small) => "small_onset",
                Some(OnsetBucket::Medium) => "medium_onset",
                Some(OnsetBucket::Large) => "large_onset",
            };
            let path = format!("{dir}/table3_{slug}.csv");
            if let Err(e) = std::fs::write(&path, table3_csv(&t)) {
                eprintln!("failed to write {path}: {e}");
            }
        }
    }
    println!("{}", render_summary("all calls", &summary(&results, None)));
    println!(
        "{}",
        render_summary(
            "c_onset_size < 5%",
            &summary(&results, Some(OnsetBucket::Small))
        )
    );
    println!(
        "{}",
        render_summary(
            "c_onset_size > 95%",
            &summary(&results, Some(OnsetBucket::Large))
        )
    );
}
