//! Parallel instance-stream evaluation.
//!
//! The sequential runner interleaves traversal and measurement: each EBM
//! instance is measured the moment the product-machine BFS intercepts it.
//! Measurement (every heuristic on every instance, with cache flushes in
//! between) dominates wall-clock by orders of magnitude, and the
//! measurements are mutually independent — so this module splits the
//! pipeline into **record** and **measure** phases:
//!
//! 1. *Record* (sequential): run the shared [`runner::traverse`], whose
//!    sink filters each intercepted call and pins and stores the
//!    survivors. The traversal is the sequential runner's, so the
//!    instance stream is identical to the sequential run's.
//! 2. *Measure* (parallel): shard the recorded instances round-robin
//!    across `jobs` workers. Each worker owns a **private `Bdd` manager**;
//!    instances are copied in via the checked [`Bdd::try_transfer`]
//!    (a semantic rebuild,
//!    so every measured quantity is preserved — BDD sizes are canonical
//!    under a fixed variable order and do not depend on which manager
//!    holds the function). Workers run on `std::thread` and never share
//!    mutable state.
//! 3. *Merge* (deterministic): results are reassembled in recording
//!    order, so the output tables are byte-identical for every `--jobs`
//!    value — modulo wall-clock `times`, which are inherently
//!    nondeterministic; strip them with
//!    [`ExperimentResults::strip_times`] (the `--no-times` flag) when
//!    comparing outputs.
//!
//! [`runner::traverse`]: crate::runner::traverse

use bddmin_bdd::Bdd;
use bddmin_core::Isf;

use crate::runner::{
    measure_call, passes_filter, selected_benchmarks, traverse, CallRecord, ExperimentConfig,
    ExperimentResults,
};
use crate::shard;

/// One instance intercepted during the record phase.
struct RecordedInstance {
    iteration: usize,
    isf: Isf,
}

/// [`runner::run_experiment`] with the measurement phase sharded across
/// `jobs` worker threads (clamped to at least 1).
///
/// `jobs == 1` runs the same record-then-measure pipeline on a single
/// worker, so results are structurally identical across job counts; only
/// the `times` fields differ (wall clock). Benchmarks are processed in
/// suite order and instances merge back in recording order.
///
/// [`runner::run_experiment`]: crate::runner::run_experiment
pub fn run_experiment_jobs(config: &ExperimentConfig, jobs: usize) -> ExperimentResults {
    let jobs = jobs.max(1);
    let mut results = ExperimentResults {
        heuristics: config.heuristics.clone(),
        ..Default::default()
    };
    for bench in selected_benchmarks(config) {
        // Pinned instances survive the traversal's per-iteration garbage
        // collection until the measure phase has copied them out.
        let mut recorded = Vec::new();
        let mut fsm = traverse(
            &bench.circuit,
            config,
            &mut results,
            |bdd, isf, iteration, results| {
                if passes_filter(bdd, isf, &mut results.filtered) {
                    bdd.pin(isf.f);
                    bdd.pin(isf.c);
                    recorded.push(RecordedInstance { iteration, isf });
                }
            },
        );
        let calls = measure_recorded(
            fsm.bdd_mut(),
            &recorded,
            bench.paper_name,
            config,
            jobs,
            &mut results,
        );
        results.calls.extend(calls);
    }
    results
}

/// Shards `recorded` round-robin over `jobs` workers, transfers each
/// worker's share into a private manager, and measures on scoped threads.
/// Returns one [`CallRecord`] per instance, in recording order.
fn measure_recorded(
    src: &mut Bdd,
    recorded: &[RecordedInstance],
    benchmark: &str,
    config: &ExperimentConfig,
    jobs: usize,
    results: &mut ExperimentResults,
) -> Vec<CallRecord> {
    // Transfers happen up front on this thread: `try_transfer` needs
    // `&mut` access to the source manager (it memoises through its
    // caches), and after this loop the workers are fully independent.
    // Workers inherit the source manager's representation mode, and
    // transfer is order-independent, so a reordered traversal manager
    // needs no special handling. The shard assignment and the manager
    // construction are the shared [`shard`] primitives so this pipeline
    // and the serve daemon cannot drift apart on the determinism contract.
    let mut workers: Vec<(Bdd, Vec<(usize, RecordedInstance)>)> =
        shard::worker_managers(jobs, src.num_vars())
            .into_iter()
            .map(|bdd| (bdd, Vec::new()))
            .collect();
    for (i, inst) in recorded.iter().enumerate() {
        let (wbdd, share) = &mut workers[shard::round_robin(i, jobs)];
        let isf = shard::transfer_isf(src, inst.isf, wbdd, |v| v)
            .expect("identity map is injective and all variables are declared");
        let iteration = inst.iteration;
        share.push((i, RecordedInstance { iteration, isf }));
        src.unpin(inst.isf.f);
        src.unpin(inst.isf.c);
    }
    let (out, peaks): (Vec<(usize, CallRecord)>, Vec<bddmin_bdd::BddStats>) =
        std::thread::scope(|scope| {
            let handles: Vec<_> = workers
                .into_iter()
                .map(|(mut wbdd, share)| {
                    scope.spawn(move || {
                        let measured: Vec<(usize, CallRecord)> = share
                            .into_iter()
                            .map(|(index, RecordedInstance { iteration, isf })| {
                                let call =
                                    measure_call(&mut wbdd, isf, benchmark, iteration, config);
                                (index, call)
                            })
                            .collect();
                        (measured, wbdd.stats())
                    })
                })
                .collect();
            let mut all = Vec::new();
            let mut peaks = Vec::new();
            for h in handles {
                let (measured, stats) = h.join().expect("measurement worker panicked");
                all.extend(measured);
                peaks.push(stats);
            }
            (all, peaks)
        });
    for stats in &peaks {
        results.fold_peak(stats);
    }
    shard::merge_indexed(out, |&(index, _)| index)
        .into_iter()
        .map(|(_, call)| call)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_experiment;
    use bddmin_core::{BudgetLimits, Heuristic};
    use bddmin_fsm::ImageMethod;

    fn small_config() -> ExperimentConfig {
        ExperimentConfig {
            heuristics: vec![Heuristic::FOrig, Heuristic::Constrain, Heuristic::Restrict],
            lower_bound_cubes: 10,
            max_iterations: Some(3),
            only_benchmarks: vec!["tlc".to_owned()],
            ..Default::default()
        }
    }

    #[test]
    fn parallel_matches_sequential_runner() {
        let config = small_config();
        let seq = run_experiment(&config);
        let par = run_experiment_jobs(&config, 2);
        assert_eq!(par.filtered, seq.filtered);
        assert_eq!(par.calls.len(), seq.calls.len());
        for (a, b) in par.calls.iter().zip(seq.calls.iter()) {
            assert_eq!(a.benchmark, b.benchmark);
            assert_eq!(a.iteration, b.iteration);
            assert_eq!(a.sizes, b.sizes, "sizes are manager-independent");
            assert_eq!(a.min_size, b.min_size);
            assert_eq!(a.lower_bound, b.lower_bound);
            assert_eq!(a.f_size, b.f_size);
            assert_eq!(a.c_size, b.c_size);
            assert!((a.c_onset_pct - b.c_onset_pct).abs() < 1e-12);
            assert_eq!(a.skipped, b.skipped, "no budget: nothing skipped");
        }
    }

    #[test]
    fn jobs_path_honours_the_image_method() {
        // With `const` as the only heuristic the measurement workers stay
        // small, so the sweep's peak is the traversal manager's, and on
        // tlc + minmax5 each image method leaves a different peak there.
        let peak = |image| {
            let config = ExperimentConfig {
                heuristics: vec![Heuristic::Constrain],
                max_iterations: Some(6),
                only_benchmarks: vec!["tlc".to_owned(), "minmax5".to_owned()],
                image,
                ..Default::default()
            };
            run_experiment_jobs(&config, 1).peak_live_nodes
        };
        assert_ne!(
            peak(ImageMethod::Mono),
            peak(ImageMethod::Range),
            "--jobs ignored --image"
        );
    }

    #[test]
    fn reordered_runs_are_deterministic_across_job_counts() {
        // With reordering on, the record-phase manager sifts to a new
        // order between iterations, so the measure phase transfers every
        // pinned instance *across* variable orders into identity-order
        // worker managers. Transfer is semantic, measurement is
        // per-instance in a fresh-order manager: the merged results must
        // be identical for every --jobs value.
        let config = ExperimentConfig {
            reorder: bddmin_bdd::ReorderSettings::sift(1.2),
            ..small_config()
        };
        let one = run_experiment_jobs(&config, 1);
        let three = run_experiment_jobs(&config, 3);
        assert_eq!(one.calls.len(), three.calls.len());
        assert!(one.reorder_swaps > 0, "sift never ran on tlc");
        assert_eq!(one.reorder_swaps, three.reorder_swaps);
        assert_eq!(one.reorder_nodes_before, three.reorder_nodes_before);
        assert_eq!(one.reorder_nodes_after, three.reorder_nodes_after);
        for (a, b) in one.calls.iter().zip(three.calls.iter()) {
            assert_eq!(a.sizes, b.sizes, "cross-order transfer nondeterminism");
            assert_eq!(a.min_size, b.min_size);
            assert_eq!(a.f_size, b.f_size);
            assert_eq!(a.c_size, b.c_size);
            assert!((a.c_onset_pct - b.c_onset_pct).abs() < 1e-12);
        }
    }

    #[test]
    fn budgeted_runs_are_deterministic_across_job_counts() {
        // Step budgets count deterministic recursion steps, so skip
        // accounting must merge identically for every --jobs value.
        let config = ExperimentConfig {
            limits: BudgetLimits {
                step_limit: Some(3),
                ..BudgetLimits::default()
            },
            ..small_config()
        };
        let seq = run_experiment(&config);
        let par = run_experiment_jobs(&config, 3);
        assert_eq!(par.calls.len(), seq.calls.len());
        assert!(
            seq.total_skipped_steps() > 0,
            "a 3-step budget should bite on tlc"
        );
        for (a, b) in par.calls.iter().zip(seq.calls.iter()) {
            assert_eq!(a.sizes, b.sizes);
            assert_eq!(a.skipped, b.skipped);
        }
        assert_eq!(par.degraded_calls(), seq.degraded_calls());
        assert_eq!(par.skipped_runs(), seq.skipped_runs());
    }
}
