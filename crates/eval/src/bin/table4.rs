//! Regenerates **Table 4** of the paper: the head-to-head matrix — entry
//! `(i, j)` is the percentage of calls on which heuristic *i* finds a
//! strictly smaller result than heuristic *j* — over the paper's
//! representative subset (`f_orig`, `const`, `restr`, `osm_bt`, `tsm_td`,
//! `opt_lv`, `min`), for all calls and per bucket.
//!
//! Usage: `cargo run --release -p bddmin-eval --bin table4
//!   [--quick] [--jobs N] [--only a,b]
//!   [--step-limit N] [--node-limit N] [--time-limit MS]
//!   [--reorder {none,sift,group}] [--reorder-growth F]
//!   [--image {mono,range}]`

use bddmin_core::Heuristic;
use bddmin_eval::args::parse_eval_args;
use bddmin_eval::par::run_experiment_jobs;
use bddmin_eval::report::render_table4;
use bddmin_eval::runner::{ExperimentConfig, OnsetBucket};
use bddmin_eval::tables::table4;

fn main() {
    let args = parse_eval_args();
    let config = ExperimentConfig {
        lower_bound_cubes: 0, // the matrix does not need the bound
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
    let subset = [
        Heuristic::FOrig,
        Heuristic::Constrain,
        Heuristic::Restrict,
        Heuristic::OsmBt,
        Heuristic::TsmTd,
        Heuristic::OptLv,
    ];
    for bucket in [None, Some(OnsetBucket::Small), Some(OnsetBucket::Large)] {
        let t = table4(&results, &subset, true, bucket);
        if t.num_calls == 0 {
            continue;
        }
        let label = bucket.map_or("all calls".to_owned(), |b| {
            format!("c_onset_size {}", b.label())
        });
        println!("--- {label} ---");
        println!("{}", render_table4(&t));
        // The paper's orthogonality observation: sum of (i,j) and (j,i).
        println!("orthogonality (sum of symmetric entries):");
        for i in 0..subset.len() {
            for j in (i + 1)..subset.len() {
                println!(
                    "  {:<8} vs {:<8}: {:.1}%",
                    t.names[i],
                    t.names[j],
                    t.entries[i][j] + t.entries[j][i]
                );
            }
        }
        println!();
    }
}
