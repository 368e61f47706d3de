//! Regenerates **Figure 3** of the paper: robustness curves — for each of
//! the five representative heuristics (`f_orig`, `opt_lv`, `const`,
//! `restr`, `tsm_td`), the percentage of calls whose result is within x%
//! of the best (`min`) result. Emits both a CSV block and an ASCII plot.
//!
//! Usage: `cargo run --release -p bddmin-eval --bin figure3
//!   [--quick] [--jobs N] [--only a,b]
//!   [--step-limit N] [--node-limit N] [--time-limit MS]
//!   [--reorder {none,sift,group}] [--reorder-growth F]
//!   [--image {mono,range}]`

use bddmin_core::Heuristic;
use bddmin_eval::args::parse_eval_args;
use bddmin_eval::par::run_experiment_jobs;
use bddmin_eval::report::render_figure3;
use bddmin_eval::runner::{ExperimentConfig, OnsetBucket};
use bddmin_eval::tables::figure3;

fn main() {
    let args = parse_eval_args();
    let config = ExperimentConfig {
        lower_bound_cubes: 0,
        max_iterations: if args.quick { Some(6) } else { None },
        only_benchmarks: args.only.clone(),
        limits: args.limits(),
        reorder: args.reorder_settings(),
        image: args.image,
        ..Default::default()
    };
    eprintln!("running FSM-equivalence experiment...");
    let results = run_experiment_jobs(&config, args.jobs);
    eprintln!("{}", results.memory_annotation());
    if args.reorder != bddmin_bdd::ReorderMethod::None {
        println!("{}\n", results.reorder_annotation());
    }
    if config.limits.armed() {
        println!("{}\n", results.budget_summary());
    }
    // The paper's five representative curves.
    let subset = [
        Heuristic::FOrig,
        Heuristic::OptLv,
        Heuristic::Constrain,
        Heuristic::Restrict,
        Heuristic::TsmTd,
    ];
    for bucket in [None, Some(OnsetBucket::Small), Some(OnsetBucket::Large)] {
        let f = figure3(&results, &subset, 5.0, 100.0, bucket);
        if f.num_calls == 0 {
            continue;
        }
        let label = bucket.map_or("all calls".to_owned(), |b| {
            format!("c_onset_size {}", b.label())
        });
        println!("=== {label} ===");
        println!("{}", render_figure3(&f));
        // y-intercepts: how often each heuristic finds the smallest result.
        println!("y-intercepts (how often the heuristic IS the min):");
        for (name, curve) in f.names.iter().zip(&f.curves) {
            println!("  {:<8} {:>6.1}%", name, curve[0].1);
        }
        println!();
    }
}
