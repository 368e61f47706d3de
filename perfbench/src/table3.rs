//! `paper_table3`: the paper's experiment. Each suite machine is traversed
//! against itself to fixpoint, every intercepted `[f, c]` call is measured
//! with all twelve heuristics and the cube lower bound, and the four bucket
//! tables and the summaries are rendered, exactly as `table3` prints them.
//!
//! Ops: one per machine ([`runner::run_benchmark`]) plus the final render.
//! The reference is `expected/paper_table3.txt`, the stdout of
//! `table3 --no-times --only <machines>`.

use std::time::Instant;

use bddmin_bdd::{Bdd, BddStats, ReorderMethod};
use bddmin_core::{lower_bound, Isf};
use bddmin_eval::report::{render_summary, render_table3};
use bddmin_eval::runner::{
    filter_reason, run_benchmark, CallRecord, ExperimentConfig, ExperimentResults, FilterReason,
    OnsetBucket,
};
use bddmin_eval::tables::{summary, table3};
use bddmin_fsm::{generators, product_circuit, Circuit, ImageMethod, SymbolicFsm};

use crate::run::{elapsed_ms, Workload};
use crate::trace::Tracer;

/// `table3 --no-times` output for the configured machines.
const EXPECTED: &str = include_str!("../expected/paper_table3.txt");

/// The workload state: the machines and the last pass's results.
pub struct PaperTable3 {
    machines: Vec<(&'static str, Circuit)>,
    config: ExperimentConfig,
    last: ExperimentResults,
}

impl PaperTable3 {
    /// Builds the suite machines named in `machines` (paper names).
    pub fn setup(machines: &[String]) -> Result<PaperTable3, String> {
        let mut suite = generators::benchmark_suite();
        let machines = machines
            .iter()
            .map(|name| {
                let at = suite
                    .iter()
                    .position(|b| b.paper_name == name)
                    .ok_or_else(|| format!("paper_table3: no suite machine {name:?}"))?;
                let bench = suite.remove(at);
                Ok((bench.paper_name, bench.circuit))
            })
            .collect::<Result<_, String>>()?;
        Ok(PaperTable3 {
            machines,
            // The `table3` binary's full-mode configuration.
            config: ExperimentConfig::default(),
            last: ExperimentResults::default(),
        })
    }

    fn fresh_results(&self) -> ExperimentResults {
        ExperimentResults {
            heuristics: self.config.heuristics.clone(),
            ..Default::default()
        }
    }
}

impl Workload for PaperTable3 {
    fn pass(&mut self) -> Vec<f64> {
        self.last = ExperimentResults::default();
        let mut results = self.fresh_results();
        let mut latencies = Vec::with_capacity(self.machines.len() + 1);
        for (name, circuit) in &self.machines {
            let start = Instant::now();
            run_benchmark(circuit, name, &self.config, &mut results);
            latencies.push(elapsed_ms(start));
        }
        let start = Instant::now();
        std::hint::black_box(render(&results));
        latencies.push(elapsed_ms(start));
        self.last = results;
        latencies
    }

    fn check(&mut self) -> usize {
        mismatch("paper_table3", &render_stripped(&self.last), EXPECTED) * (self.machines.len() + 1)
    }

    fn replay(&mut self, tr: &mut Tracer) -> usize {
        let mut results = self.fresh_results();
        for (name, circuit) in &self.machines {
            tr.begin_op();
            traced_benchmark(circuit, name, &self.config, &mut results, tr);
            tr.end_op();
        }
        tr.begin_op();
        tr.span("eval", "report", || std::hint::black_box(render(&results)));
        tr.end_op();
        let (got, want) = (render_stripped(&results), render_stripped(&self.last));
        mismatch("traced paper_table3", &got, &want) * (self.machines.len() + 1)
    }
}

/// The tables with every runtime zeroed, as `table3 --no-times` prints them.
fn render_stripped(results: &ExperimentResults) -> String {
    let mut stripped = results.clone();
    stripped.strip_times();
    render(&stripped)
}

/// 1 when `got` differs from `want`, after naming the first differing line.
fn mismatch(what: &str, got: &str, want: &str) -> usize {
    match got.lines().zip(want.lines()).position(|(g, w)| g != w) {
        None if got.lines().count() == want.lines().count() => 0,
        at => {
            let line = at.unwrap_or_else(|| got.lines().count().min(want.lines().count()));
            eprintln!(
                "{what}: tables differ from the reference at line {}",
                line + 1
            );
            1
        }
    }
}

/// The `table3` binary's stdout for `results`.
pub fn render(results: &ExperimentResults) -> String {
    let mut out = format!(
        "intercepted {} minimization calls ({} filtered: {} cube care, {} c<=f, {} c<=!f)\n\n",
        results.calls.len() + results.filtered.total(),
        results.filtered.total(),
        results.filtered.cube,
        results.filtered.inside_onset,
        results.filtered.inside_offset,
    );
    let buckets = [
        None,
        Some(OnsetBucket::Small),
        Some(OnsetBucket::Medium),
        Some(OnsetBucket::Large),
    ];
    for bucket in buckets {
        let t = table3(results, bucket);
        if t.num_calls == 0 {
            let label = bucket.map_or("all".to_owned(), |b| b.label().to_owned());
            out.push_str(&format!("(no calls in bucket {label})\n\n"));
        } else {
            out.push_str(&render_table3(&t));
            out.push('\n');
        }
    }
    for (label, bucket) in [
        ("all calls", None),
        ("c_onset_size < 5%", Some(OnsetBucket::Small)),
        ("c_onset_size > 95%", Some(OnsetBucket::Large)),
    ] {
        out.push_str(&render_summary(label, &summary(results, bucket)));
        out.push('\n');
    }
    out
}

/// [`run_benchmark`] rebuilt from public calls, with a span around each.
/// Covers the default configuration only: range image, no reordering, no
/// chain reduction, no budgets.
fn traced_benchmark(
    circuit: &Circuit,
    paper_name: &str,
    config: &ExperimentConfig,
    results: &mut ExperimentResults,
    tr: &mut Tracer,
) {
    assert!(
        config.image == ImageMethod::Range
            && config.reorder.method == ReorderMethod::None
            && !config.chain
            && !config.limits.armed(),
        "the traced pipeline mirrors the default configuration only"
    );
    let mut fsm = tr.span("fsm", "compile", || {
        SymbolicFsm::new(&product_circuit(circuit, &circuit.clone()))
    });
    let mut iteration = 0usize;
    let init = fsm.initial_states();
    let (mut reached, mut frontier) = (init, init);
    while !frontier.is_zero() {
        let care = tr.span("bdd", "ops", || {
            let bdd = fsm.bdd_mut();
            let not_reached = bdd.not(reached);
            bdd.or(frontier, not_reached)
        });
        let frontier_isf = Isf::new(frontier, care);
        record_call(
            fsm.bdd_mut(),
            frontier_isf,
            paper_name,
            iteration,
            config,
            results,
            tr,
        );
        let minimized = tr.span("bdd", "constrain", || {
            let bdd = fsm.bdd_mut();
            bdd.clear_caches();
            bdd.constrain(frontier_isf.f, frontier_isf.c)
        });
        let next_fns = fsm.next_fns().to_vec();
        let mut constrained = Vec::with_capacity(next_fns.len());
        for &delta in &next_fns {
            let isf = Isf::new(delta, minimized);
            record_call(
                fsm.bdd_mut(),
                isf,
                paper_name,
                iteration,
                config,
                results,
                tr,
            );
            constrained.push(tr.span("bdd", "constrain", || {
                let bdd = fsm.bdd_mut();
                bdd.clear_caches();
                bdd.constrain(delta, minimized)
            }));
        }
        let image = tr.span("fsm", "image", || fsm.image_of_constrained(&constrained));
        (reached, frontier) = tr.span("bdd", "ops", || {
            let bdd = fsm.bdd_mut();
            let new_reached = bdd.or(reached, image);
            let not_reached = bdd.not(reached);
            (new_reached, bdd.and(image, not_reached))
        });
        iteration += 1;
        tr.span("bdd", "gc", || fsm.collect_garbage(&[reached, frontier]));
    }
    let stats = fsm.bdd().stats();
    results.fold_peak(&stats);
    tr.kernel(&BddStats::default(), &stats);
}

/// `runner::record_call` and `runner::measure_instance` with spans.
fn record_call(
    bdd: &mut Bdd,
    isf: Isf,
    paper_name: &str,
    iteration: usize,
    config: &ExperimentConfig,
    results: &mut ExperimentResults,
    tr: &mut Tracer,
) {
    tr.begin("eval", "record");
    match tr.span("eval", "filter", || filter_reason(bdd, isf)) {
        Some(FilterReason::CareIsCube) => results.filtered.cube += 1,
        Some(FilterReason::CareInsideOnset) => results.filtered.inside_onset += 1,
        Some(FilterReason::CareInsideOffset) => results.filtered.inside_offset += 1,
        None => {
            let pct = bdd.onset_percentage(isf.c);
            let n = config.heuristics.len();
            let (mut sizes, mut times) = (Vec::with_capacity(n), Vec::with_capacity(n));
            for &h in &config.heuristics {
                tr.begin("core", h.name());
                bdd.clear_caches();
                let start = Instant::now();
                let g = h.minimize(bdd, isf);
                let size = bdd.size(g);
                times.push(start.elapsed());
                tr.end();
                sizes.push(size);
            }
            let lower_bound = if config.lower_bound_cubes > 0 {
                tr.span("core", "lower_bound", || {
                    bdd.clear_caches();
                    lower_bound(bdd, isf, config.lower_bound_cubes).bound
                })
            } else {
                0
            };
            results.calls.push(CallRecord {
                benchmark: paper_name.to_owned(),
                iteration,
                c_onset_pct: pct,
                f_size: bdd.size(isf.f),
                c_size: bdd.size(isf.c),
                min_size: sizes.iter().copied().min().unwrap_or(usize::MAX),
                sizes,
                times,
                lower_bound,
                skipped: vec![0; n],
            });
        }
    }
    tr.end();
}
