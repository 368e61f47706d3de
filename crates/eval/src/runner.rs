//! The experiment runner: regenerates the paper's instance stream.
//!
//! Mirrors Section 4.1 of the paper: for every benchmark machine, run the
//! FSM-equivalence application (product-machine reachability of the machine
//! against itself), intercept each frontier-minimization call as an EBM
//! instance `[f, c]`, apply **all** heuristics to it (flushing the BDD
//! caches before each so timings are honest), and record sizes and
//! runtimes. The traversal itself continues with the `constrain` result,
//! exactly as SIS did.
//!
//! [`traverse`] is that traversal: a configuration of the one frontier
//! loop, [`bddmin_fsm::frontier_fixpoint`], that also intercepts the
//! image's per-latch `constrain` calls and collects garbage (and
//! optionally reorders) after every step. Its callers differ only in what
//! they do with each intercepted call: measure it on the spot
//! ([`run_benchmark`]), pin it for sharded measurement ([`crate::par`]),
//! or feed it to a variant (the `ablation` binary).

use std::time::{Duration, Instant};

use bddmin_bdd::{Bdd, Edge, ReorderMethod, ReorderSettings};
use bddmin_core::{lower_bound, BudgetLimits, Heuristic, Isf};
use bddmin_fsm::generators::{self, Benchmark};
use bddmin_fsm::{
    frontier_fixpoint, product_circuit, Circuit, FrontierSteps, ImageMethod, SymbolicFsm,
};

/// Why a call was excluded from the statistics (paper §4.1.2 filters).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterReason {
    /// The care function is a cube (all sibling heuristics are optimal).
    CareIsCube,
    /// `c ≤ f`: every heuristic returns the constant 1.
    CareInsideOnset,
    /// `c ≤ ¬f`: every heuristic returns the constant 0.
    CareInsideOffset,
}

/// The paper's onset-size buckets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OnsetBucket {
    /// `c_onset_size < 5%`.
    Small,
    /// `5% ≤ c_onset_size ≤ 95%`.
    Medium,
    /// `c_onset_size > 95%`.
    Large,
}

impl OnsetBucket {
    /// Buckets a percentage.
    pub fn of(pct: f64) -> OnsetBucket {
        if pct < 5.0 {
            OnsetBucket::Small
        } else if pct > 95.0 {
            OnsetBucket::Large
        } else {
            OnsetBucket::Medium
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            OnsetBucket::Small => "< 5%",
            OnsetBucket::Medium => "5%-95%",
            OnsetBucket::Large => "> 95%",
        }
    }
}

/// One intercepted minimization call with all heuristics applied.
#[derive(Clone, Debug)]
pub struct CallRecord {
    /// Paper benchmark name the call came from.
    pub benchmark: String,
    /// BFS iteration the call occurred at.
    pub iteration: usize,
    /// `c_onset_size` percentage.
    pub c_onset_pct: f64,
    /// `|f|` of the instance.
    pub f_size: usize,
    /// `|c|` of the instance.
    pub c_size: usize,
    /// Per-heuristic result sizes, parallel to the config's heuristic list.
    pub sizes: Vec<usize>,
    /// Per-heuristic runtimes.
    pub times: Vec<Duration>,
    /// The `min` pseudo-heuristic: smallest size over all heuristics.
    pub min_size: usize,
    /// Cube lower bound (0 if not computed).
    pub lower_bound: usize,
    /// Per-heuristic count of minimization steps skipped because a
    /// resource budget tripped (parallel to `sizes`; all zero when no
    /// budget is armed). The reported size is still a valid cover —
    /// blown steps degrade to the best earlier result, never to garbage.
    pub skipped: Vec<usize>,
}

impl CallRecord {
    /// The bucket this call falls into.
    pub fn bucket(&self) -> OnsetBucket {
        OnsetBucket::of(self.c_onset_pct)
    }

    /// True when at least one heuristic run on this call lost a step to
    /// the budget.
    pub fn degraded(&self) -> bool {
        self.skipped.iter().any(|&s| s > 0)
    }
}

/// Configuration for the experiment sweep.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Heuristics to apply to every call, in report order.
    pub heuristics: Vec<Heuristic>,
    /// Compute the cube lower bound per call (paper: limit 1000 cubes).
    pub lower_bound_cubes: usize,
    /// Cap on BFS iterations per benchmark (None = run to fixpoint).
    pub max_iterations: Option<usize>,
    /// Restrict to these paper benchmark names (empty = all).
    pub only_benchmarks: Vec<String>,
    /// Resource budgets applied to each heuristic invocation (default:
    /// everything unlimited, which reproduces the paper's setup).
    pub limits: BudgetLimits,
    /// Dynamic variable reordering run at the per-iteration GC quiescent
    /// point of the traversal. The default method is
    /// [`ReorderMethod::None`], which keeps every measurement path
    /// byte-identical to the historical runner.
    pub reorder: ReorderSettings,
    /// Retired: chain-reduced managers are gone. Nothing in the workspace
    /// sets or reads this field; it remains only until the benchmark
    /// package stops reading it.
    pub chain: bool,
    /// Image computation method for the traversal (`--image`). The default
    /// [`ImageMethod::Range`] is the historical runner: image by range over
    /// the constrained next-state vector. All methods produce identical
    /// state sets — and the instance stream is recorded before the image
    /// step — so rendered tables are byte-identical across methods.
    pub image: ImageMethod,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            heuristics: Heuristic::ALL.to_vec(),
            lower_bound_cubes: 1000,
            max_iterations: None,
            only_benchmarks: Vec::new(),
            limits: BudgetLimits::default(),
            reorder: ReorderSettings {
                method: ReorderMethod::None,
                ..ReorderSettings::default()
            },
            chain: false,
            image: ImageMethod::Range,
        }
    }
}

/// Statistics about the filtered-out calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Calls filtered because the care set is a cube.
    pub cube: usize,
    /// Calls filtered because `c ≤ f`.
    pub inside_onset: usize,
    /// Calls filtered because `c ≤ ¬f`.
    pub inside_offset: usize,
}

impl FilterStats {
    /// Total calls filtered.
    pub fn total(&self) -> usize {
        self.cube + self.inside_onset + self.inside_offset
    }
}

/// The complete experiment output.
#[derive(Clone, Debug, Default)]
pub struct ExperimentResults {
    /// Heuristics in report order.
    pub heuristics: Vec<Heuristic>,
    /// Unfiltered calls with measurements.
    pub calls: Vec<CallRecord>,
    /// Counts of filtered calls.
    pub filtered: FilterStats,
    /// Adjacent-level swaps executed by dynamic reordering, summed over
    /// every reorder point of the sweep (0 when reordering is off).
    pub reorder_swaps: usize,
    /// Live-node counts summed over all reorder points: entering totals.
    pub reorder_nodes_before: usize,
    /// Live-node counts summed over all reorder points: leaving totals.
    pub reorder_nodes_after: usize,
    /// High-water mark of live nodes over every manager the sweep used
    /// (traversal and measurement workers alike).
    pub peak_live_nodes: usize,
    /// Estimated peak node-store bytes at that high-water mark.
    pub peak_bytes: usize,
}

impl ExperimentResults {
    /// Calls in a given bucket.
    pub fn calls_in(&self, bucket: Option<OnsetBucket>) -> Vec<&CallRecord> {
        self.calls
            .iter()
            .filter(|c| bucket.is_none_or(|b| c.bucket() == b))
            .collect()
    }

    /// The index of a heuristic in the report order.
    pub fn index_of(&self, h: Heuristic) -> Option<usize> {
        self.heuristics.iter().position(|&x| x == h)
    }

    /// Folds a manager's peak-memory stats into the sweep-wide high-water
    /// mark.
    pub fn fold_peak(&mut self, stats: &bddmin_bdd::BddStats) {
        if stats.peak_live_nodes > self.peak_live_nodes {
            self.peak_live_nodes = stats.peak_live_nodes;
            self.peak_bytes = stats.peak_bytes;
        }
    }

    /// Human-readable peak-memory summary. Worker sharding makes the peak
    /// depend on `--jobs`, so binaries report this on stderr, keeping
    /// stdout byte-comparable across job counts.
    pub fn memory_annotation(&self) -> String {
        format!(
            "peak memory: {} live nodes (~{} KiB)",
            self.peak_live_nodes,
            self.peak_bytes / 1024
        )
    }

    /// Zeroes every recorded runtime. Wall-clock is the one field that is
    /// not deterministic across runs (or across `--jobs` values); stripping
    /// it makes rendered tables byte-comparable.
    pub fn strip_times(&mut self) {
        for call in &mut self.calls {
            for t in &mut call.times {
                *t = Duration::ZERO;
            }
        }
    }

    /// Calls where at least one heuristic run lost steps to the budget.
    pub fn degraded_calls(&self) -> usize {
        self.calls.iter().filter(|c| c.degraded()).count()
    }

    /// Heuristic runs (call × heuristic pairs) that skipped ≥ 1 step.
    pub fn skipped_runs(&self) -> usize {
        self.calls
            .iter()
            .flat_map(|c| &c.skipped)
            .filter(|&&s| s > 0)
            .count()
    }

    /// Total minimization steps discarded across all calls.
    pub fn total_skipped_steps(&self) -> usize {
        self.calls.iter().flat_map(|c| &c.skipped).sum()
    }

    /// The `(reordered: …)` annotation for runs with dynamic reordering
    /// enabled: total swaps and the cumulative node counts entering and
    /// leaving the reorder points of the sweep.
    pub fn reorder_annotation(&self) -> String {
        format!(
            "(reordered: {} swaps, {}→{} nodes)",
            self.reorder_swaps, self.reorder_nodes_before, self.reorder_nodes_after
        )
    }

    /// One-line skip accounting for budgeted runs: every degraded call
    /// kept a valid (possibly unminimized) cover, this line says how many.
    pub fn budget_summary(&self) -> String {
        format!(
            "budget: {} of {} calls degraded; {} of {} heuristic runs skipped {} step(s); all results remain valid covers",
            self.degraded_calls(),
            self.calls.len(),
            self.skipped_runs(),
            self.calls.len() * self.heuristics.len(),
            self.total_skipped_steps(),
        )
    }
}

/// Classifies a call against the paper's filters.
pub fn filter_reason(bdd: &mut Bdd, isf: Isf) -> Option<FilterReason> {
    if bdd.is_cube(isf.c) {
        return Some(FilterReason::CareIsCube);
    }
    if bdd.implies_holds(isf.c, isf.f) {
        return Some(FilterReason::CareInsideOnset);
    }
    let nf = bdd.not(isf.f);
    if bdd.implies_holds(isf.c, nf) {
        return Some(FilterReason::CareInsideOffset);
    }
    None
}

/// Counts `isf` against the paper's filters in `filtered`; true when the
/// call survives them and must be measured.
pub fn passes_filter(bdd: &mut Bdd, isf: Isf, filtered: &mut FilterStats) -> bool {
    match filter_reason(bdd, isf) {
        Some(FilterReason::CareIsCube) => filtered.cube += 1,
        Some(FilterReason::CareInsideOnset) => filtered.inside_onset += 1,
        Some(FilterReason::CareInsideOffset) => filtered.inside_offset += 1,
        None => return true,
    }
    false
}

/// Measures all heuristics on one instance, flushing caches before each.
///
/// When `limits` is armed, every heuristic runs through the budgeted
/// degradation path and the final vector reports how many minimization
/// steps each one skipped; when not armed, the historical infallible path
/// runs unchanged and the skip vector is all zeros.
pub fn measure_instance(
    bdd: &mut Bdd,
    isf: Isf,
    heuristics: &[Heuristic],
    lower_bound_cubes: usize,
    limits: BudgetLimits,
) -> (Vec<usize>, Vec<Duration>, usize, usize, Vec<usize>) {
    let mut sizes = Vec::with_capacity(heuristics.len());
    let mut times = Vec::with_capacity(heuristics.len());
    let mut skipped = Vec::with_capacity(heuristics.len());
    let mut min_size = usize::MAX;
    for &h in heuristics {
        // The paper invokes the garbage collector before each heuristic "to
        // flush the caches of computations from earlier heuristics".
        bdd.clear_caches();
        let start = Instant::now();
        // The budget (and its wall-clock deadline) restarts per
        // heuristic, so a blown run cannot starve its successors.
        let (g, report) = h.minimize_with(bdd, isf, limits);
        let (size, skips) = (bdd.size(g), report.map_or(0, |r| r.skipped()));
        let elapsed = start.elapsed();
        sizes.push(size);
        times.push(elapsed);
        skipped.push(skips);
        min_size = min_size.min(size);
    }
    let lb = if lower_bound_cubes > 0 {
        bdd.clear_caches();
        lower_bound(bdd, isf, lower_bound_cubes).bound
    } else {
        0
    };
    (sizes, times, min_size, lb, skipped)
}

/// Measures one surviving call of `benchmark` (see [`measure_instance`])
/// into its [`CallRecord`].
pub fn measure_call(
    bdd: &mut Bdd,
    isf: Isf,
    benchmark: &str,
    iteration: usize,
    config: &ExperimentConfig,
) -> CallRecord {
    let c_onset_pct = bdd.onset_percentage(isf.c);
    let (sizes, times, min_size, lower_bound, skipped) = measure_instance(
        bdd,
        isf,
        &config.heuristics,
        config.lower_bound_cubes,
        config.limits,
    );
    CallRecord {
        benchmark: benchmark.to_owned(),
        iteration,
        c_onset_pct,
        f_size: bdd.size(isf.f),
        c_size: bdd.size(isf.c),
        sizes,
        times,
        min_size,
        lower_bound,
        skipped,
    }
}

/// The suite machines `config.only_benchmarks` selects, in suite order.
pub fn selected_benchmarks(config: &ExperimentConfig) -> impl Iterator<Item = Benchmark> + '_ {
    generators::benchmark_suite().into_iter().filter(|bench| {
        config.only_benchmarks.is_empty()
            || config.only_benchmarks.iter().any(|n| n == bench.paper_name)
    })
}

/// Runs the full experiment over the benchmark suite (machine vs. itself,
/// as in the paper).
pub fn run_experiment(config: &ExperimentConfig) -> ExperimentResults {
    let mut results = ExperimentResults {
        heuristics: config.heuristics.clone(),
        ..Default::default()
    };
    for bench in selected_benchmarks(config) {
        run_benchmark(&bench.circuit, bench.paper_name, config, &mut results);
    }
    results
}

/// Runs one benchmark (product of `circuit` against a copy of itself) and
/// appends its calls to `results`: every call the [`traverse`] intercepts
/// is filtered and, if it survives, measured on the spot in the traversal
/// manager.
pub fn run_benchmark(
    circuit: &Circuit,
    paper_name: &str,
    config: &ExperimentConfig,
    results: &mut ExperimentResults,
) {
    traverse(circuit, config, results, |bdd, isf, iteration, results| {
        if passes_filter(bdd, isf, &mut results.filtered) {
            let call = measure_call(bdd, isf, paper_name, iteration, config);
            results.calls.push(call);
        }
    });
}

/// The SIS traversal: product-machine BFS of `circuit` against a copy of
/// itself, handing every intercepted `[f, c]` call and its BFS iteration
/// to `sink`, which gets the traversal manager and `results`.
///
/// This is a configuration of the one frontier loop,
/// [`bddmin_fsm::frontier_fixpoint`]. It reproduces SIS
/// `verify_fsm -m product`'s use of minimization: each BFS iteration makes
/// **two kinds** of `constrain` calls, both intercepted as EBM instances —
///
/// 1. the frontier-set choice `[U, U + ¬R]` (large care onsets: the
///    don't-care set is only the already-reached non-frontier states), and
/// 2. one call `[δᵢ, S]` per next-state function for the image computation
///    by range (tiny care onsets: `S` is a small state set inside a large
///    input × state space) — these dominate the paper's `< 5%` bucket.
///
/// The traversal itself always continues with the `constrain` results,
/// because the image computation relies on constrain's image-preserving
/// property (paper footnote 1). It applies `config`'s
/// `max_iterations`, `image` and `reorder`; reorder counts and the
/// manager's peak memory go into `results`. The sink may pin edges to
/// keep them alive across the per-iteration garbage collection. Returns
/// the FSM, whose manager still holds anything the sink pinned.
pub fn traverse(
    circuit: &Circuit,
    config: &ExperimentConfig,
    results: &mut ExperimentResults,
    mut sink: impl FnMut(&mut Bdd, Isf, usize, &mut ExperimentResults),
) -> SymbolicFsm {
    let product = product_circuit(circuit, &circuit.clone());
    let mut fsm = SymbolicFsm::new(&product);
    let mut steps = Intercepted {
        config,
        results,
        sink: &mut sink,
    };
    frontier_fixpoint(&mut fsm, config.image, config.max_iterations, &mut steps);
    steps.results.fold_peak(&fsm.bdd().stats());
    fsm
}

/// [`traverse`]'s steps of the frontier loop. Node ids reach step-limited
/// results through the lossy computed table, so the kernel calls keep
/// their order: each call goes to the sink, then the caches are flushed
/// and `constrain` answers it.
struct Intercepted<'r> {
    config: &'r ExperimentConfig,
    results: &'r mut ExperimentResults,
    sink: &'r mut dyn FnMut(&mut Bdd, Isf, usize, &mut ExperimentResults),
}

impl Intercepted<'_> {
    fn intercept(&mut self, bdd: &mut Bdd, isf: Isf, iteration: usize) -> Edge {
        (self.sink)(bdd, isf, iteration, self.results);
        bdd.clear_caches();
        bdd.constrain(isf.f, isf.c)
    }
}

impl FrontierSteps for Intercepted<'_> {
    /// Instance class 1: the frontier-set choice.
    fn minimize(&mut self, fsm: &mut SymbolicFsm, isf: Isf, iteration: usize) -> Edge {
        self.intercept(fsm.bdd_mut(), isf, iteration)
    }

    /// Instance class 2: the per-latch image constrains. They are
    /// recorded whatever the method, so the instance stream (and thus
    /// every rendered table) is identical across image methods; only the
    /// image computation itself differs.
    fn image(
        &mut self,
        fsm: &mut SymbolicFsm,
        method: ImageMethod,
        states: Edge,
        iteration: usize,
    ) -> Edge {
        let next_fns = fsm.next_fns().to_vec();
        let constrained: Vec<Edge> = next_fns
            .iter()
            .map(|&delta| self.intercept(fsm.bdd_mut(), Isf::new(delta, states), iteration))
            .collect();
        match method {
            ImageMethod::Range => fsm.image_of_constrained(&constrained),
            ImageMethod::Mono => fsm.image(states),
        }
    }

    /// Keeps the node table bounded: the measured covers are dead now
    /// (pinned calls survive and keep their edges across a reorder).
    /// Nothing but the traversal state is live, so this is also where a
    /// reorder pays off for the next iteration.
    fn quiescent(&mut self, fsm: &mut SymbolicFsm, reached: Edge, frontier: Edge) {
        fsm.collect_garbage(&[reached, frontier]);
        if self.config.reorder.method != ReorderMethod::None {
            let stats = fsm.reorder(&self.config.reorder, &[reached, frontier]);
            self.results.reorder_swaps += stats.swaps;
            self.results.reorder_nodes_before += stats.nodes_before;
            self.results.reorder_nodes_after += stats.nodes_after;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(OnsetBucket::of(0.0), OnsetBucket::Small);
        assert_eq!(OnsetBucket::of(4.99), OnsetBucket::Small);
        assert_eq!(OnsetBucket::of(5.0), OnsetBucket::Medium);
        assert_eq!(OnsetBucket::of(95.0), OnsetBucket::Medium);
        assert_eq!(OnsetBucket::of(95.01), OnsetBucket::Large);
        assert_eq!(OnsetBucket::of(100.0), OnsetBucket::Large);
        assert_eq!(OnsetBucket::Small.label(), "< 5%");
    }

    #[test]
    fn filters_match_paper_rules() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(bddmin_bdd::Var(0));
        let b = bdd.var(bddmin_bdd::Var(1));
        let f = bdd.or(a, b);
        // cube care
        assert_eq!(
            filter_reason(&mut bdd, Isf::new(f, a)),
            Some(FilterReason::CareIsCube)
        );
        // c inside f (non-cube): f = a⊕b, c = f.
        let x = bdd.xor(a, b);
        assert_eq!(
            filter_reason(&mut bdd, Isf::new(x, x)),
            Some(FilterReason::CareInsideOnset)
        );
        // c inside ¬f: c = ¬(a⊕b), not a cube.
        let nx = bdd.not(x);
        assert_eq!(
            filter_reason(&mut bdd, Isf::new(x, nx)),
            Some(FilterReason::CareInsideOffset)
        );
        // Generic instance passes.
        let x = bdd.xor(a, b);
        let c3 = bdd.var(bddmin_bdd::Var(2));
        let care = bdd.xnor(x, c3);
        assert_eq!(filter_reason(&mut bdd, Isf::new(f, care)), None);
        let _ = Edge::ONE;
    }

    #[test]
    fn measure_instance_reports_all_heuristics() {
        let mut bdd = Bdd::new(3);
        let (f, c) = bdd.from_leaf_spec("d1 01 1d 01").unwrap();
        let isf = Isf::new(f, c);
        let hs = Heuristic::ALL.to_vec();
        let (sizes, times, min_size, lb, skipped) =
            measure_instance(&mut bdd, isf, &hs, 100, BudgetLimits::default());
        assert_eq!(sizes.len(), hs.len());
        assert_eq!(times.len(), hs.len());
        assert_eq!(min_size, *sizes.iter().min().unwrap());
        assert!(lb >= 1 && lb <= min_size);
        // No budget armed: nothing may be reported as skipped.
        assert!(skipped.iter().all(|&s| s == 0));
    }

    #[test]
    fn budgeted_measurement_degrades_but_stays_sound() {
        let mut bdd = Bdd::new(3);
        let (f, c) = bdd.from_leaf_spec("d1 01 1d 01").unwrap();
        let isf = Isf::new(f, c);
        let hs = Heuristic::ALL.to_vec();
        let starved = BudgetLimits {
            step_limit: Some(1),
            ..BudgetLimits::default()
        };
        assert!(starved.armed());
        let (sizes, _, _, _, skipped) = measure_instance(&mut bdd, isf, &hs, 0, starved);
        let f_size = bdd.size(isf.f);
        for (&size, &skips) in sizes.iter().zip(&skipped) {
            // Degradation never inflates the result past |f|.
            assert!(
                size <= f_size,
                "budgeted size {size} exceeds |f| = {f_size}"
            );
            let _ = skips;
        }
        assert!(
            skipped.iter().any(|&s| s > 0),
            "a one-step budget must skip work somewhere: {skipped:?}"
        );
        // An ample budget skips nothing and matches the unbudgeted path
        // modulo the soundness clamp (budgeted results never exceed |f|,
        // the raw heuristic output may).
        let ample = BudgetLimits {
            step_limit: Some(u64::MAX),
            node_limit: Some(usize::MAX),
            ..BudgetLimits::default()
        };
        let (budgeted_sizes, _, _, _, skipped) = measure_instance(&mut bdd, isf, &hs, 0, ample);
        let (plain_sizes, _, _, _, _) =
            measure_instance(&mut bdd, isf, &hs, 0, BudgetLimits::default());
        for (&b, &p) in budgeted_sizes.iter().zip(&plain_sizes) {
            assert_eq!(b, p.min(f_size));
        }
        assert!(skipped.iter().all(|&s| s == 0));
    }

    #[test]
    fn small_experiment_produces_calls() {
        let config = ExperimentConfig {
            heuristics: vec![Heuristic::FOrig, Heuristic::Constrain, Heuristic::Restrict],
            lower_bound_cubes: 10,
            max_iterations: Some(4),
            only_benchmarks: vec!["tlc".to_owned(), "minmax5".to_owned()],
            ..Default::default()
        };
        let results = run_experiment(&config);
        let total = results.calls.len() + results.filtered.total();
        assert!(total > 0, "traversal must intercept calls");
        for call in &results.calls {
            assert_eq!(call.sizes.len(), 3);
            assert!(call.min_size <= call.sizes[0]);
            assert!(call.lower_bound <= call.min_size);
            assert!(call.c_onset_pct >= 0.0 && call.c_onset_pct <= 100.0);
        }
    }

    #[test]
    fn results_bucket_query() {
        let mut results = ExperimentResults {
            heuristics: vec![Heuristic::Constrain],
            ..Default::default()
        };
        for pct in [1.0, 50.0, 99.0] {
            results.calls.push(CallRecord {
                benchmark: "x".into(),
                iteration: 0,
                c_onset_pct: pct,
                f_size: 10,
                c_size: 10,
                sizes: vec![5],
                times: vec![Duration::ZERO],
                min_size: 5,
                lower_bound: 1,
                skipped: vec![0],
            });
        }
        assert_eq!(results.calls_in(None).len(), 3);
        assert_eq!(results.calls_in(Some(OnsetBucket::Small)).len(), 1);
        assert_eq!(results.calls_in(Some(OnsetBucket::Medium)).len(), 1);
        assert_eq!(results.calls_in(Some(OnsetBucket::Large)).len(), 1);
        assert_eq!(results.index_of(Heuristic::Constrain), Some(0));
        assert_eq!(results.index_of(Heuristic::OptLv), None);
    }
}
