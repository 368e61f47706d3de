//! Ablation studies for the paper's **proposed** mechanisms (§3.3.2 and
//! §3.4), which the paper describes but does not evaluate:
//!
//! 1. the two clique-cover optimizations of `opt_lv` (degree ordering,
//!    distance-weighted edge preference),
//! 2. the scheduling parameters `window_size` and `stop_top_down`, with
//!    and without the expensive level passes.
//!
//! Usage: `cargo run --release -p bddmin-eval --bin ablation [--quick]`

use bddmin_bdd::{Bdd, Edge};
use bddmin_core::{opt_lv, CliqueOptions, Heuristic, Isf, Schedule};
use bddmin_eval::runner::{
    run_experiment, selected_benchmarks, traverse, ExperimentConfig, ExperimentResults,
};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // Collect a deterministic instance stream once (constrain drives the
    // traversal; every variant below sees the same instances).
    let config = ExperimentConfig {
        heuristics: vec![Heuristic::Constrain],
        lower_bound_cubes: 0,
        max_iterations: Some(if quick { 4 } else { 12 }),
        only_benchmarks: vec![
            "tlc".into(),
            "minmax5".into(),
            "s386".into(),
            "s820".into(),
            "mult16b".into(),
        ],
        ..Default::default()
    };
    eprintln!("collecting instance stream...");
    let stream = run_experiment(&config);
    eprintln!("{} instances collected", stream.calls.len());

    // The ablations re-run the traversals with each variant as the hook,
    // summing the minimized-cover sizes it produces.
    println!(
        "ablation 1 — clique-cover optimizations of opt_lv (total cover size; lower is better)\n"
    );
    println!("{:<28} {:>12} {:>12}", "variant", "total size", "time (ms)");
    for (label, opts) in [
        (
            "both optimizations",
            CliqueOptions {
                order_by_degree: true,
                prefer_nearby: true,
            },
        ),
        (
            "degree ordering only",
            CliqueOptions {
                order_by_degree: true,
                prefer_nearby: false,
            },
        ),
        (
            "distance weights only",
            CliqueOptions {
                order_by_degree: false,
                prefer_nearby: true,
            },
        ),
        (
            "neither (input order)",
            CliqueOptions {
                order_by_degree: false,
                prefer_nearby: false,
            },
        ),
    ] {
        let (total, ms) = run_variant(&config, |bdd, isf| opt_lv(bdd, isf, opts));
        println!("{label:<28} {total:>12} {ms:>12.1}");
    }

    println!("\nablation 2 — schedule parameters (total cover size; lower is better)\n");
    println!("{:<28} {:>12} {:>12}", "variant", "total size", "time (ms)");
    for (label, schedule) in [
        ("window 1, stop 0", Schedule::new(1, 0)),
        ("window 2, stop 1", Schedule::new(2, 1)),
        ("window 4, stop 2", Schedule::new(4, 2)),
        ("window 8, stop 2", Schedule::new(8, 2)),
        (
            "window 4, no level passes",
            Schedule::new(4, 2).level_passes(false),
        ),
        ("window 2, stop 4", Schedule::new(2, 4)),
    ] {
        let (total, ms) = run_variant(&config, move |bdd, isf| schedule.apply(bdd, isf));
        println!("{label:<28} {total:>12} {ms:>12.1}");
    }

    println!("\nbaselines for comparison:\n");
    println!(
        "{:<28} {:>12} {:>12}",
        "heuristic", "total size", "time (ms)"
    );
    for h in [
        Heuristic::Constrain,
        Heuristic::Restrict,
        Heuristic::OsmBt,
        Heuristic::TsmTd,
        Heuristic::OptLv,
    ] {
        let (total, ms) = run_variant(&config, move |bdd, isf| h.minimize(bdd, isf));
        println!("{:<28} {total:>12} {ms:>12.1}", h.name());
    }
}

/// Runs the SIS traversal over `config`'s machines, applying `minimize` to
/// **every** intercepted EBM instance (frontier choice and per-latch image
/// constrains, filtered ones included) and summing the resulting cover
/// sizes. The traversal itself always continues with `constrain`, so all
/// variants see the identical instance stream and the totals are directly
/// comparable.
fn run_variant(
    config: &ExperimentConfig,
    mut minimize: impl FnMut(&mut Bdd, Isf) -> Edge,
) -> (usize, f64) {
    let start = std::time::Instant::now();
    let mut total = 0usize;
    let mut unused = ExperimentResults::default();
    for bench in selected_benchmarks(config) {
        traverse(&bench.circuit, config, &mut unused, |bdd, isf, _, _| {
            let cover = minimize(bdd, isf);
            total += bdd.size(cover);
        });
    }
    (total, start.elapsed().as_secs_f64() * 1e3)
}
