//! The runner: set-up timing, the measured loop, the traced loop, and the
//! result line.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Instant;

use bddmin_serve::json;

use crate::config::{Declared, Sizes};
use crate::equiv::EquivCheck;
use crate::serve::ServeWorkload;
use crate::stats::{median, percentile, sorted};
use crate::table3::PaperTable3;
use crate::trace::Tracer;

/// One workload of the benchmark.
pub trait Workload {
    /// One pass of the measured work through the library's entry points.
    /// Returns each op's latency in milliseconds and keeps the output for
    /// [`Workload::check`].
    fn pass(&mut self) -> Vec<f64>;

    /// The number of ops of the last pass whose output is wrong.
    fn check(&mut self) -> usize;

    /// The last pass's work again, through the layers' public functions
    /// with a span around each call. Returns the number of ops whose
    /// output differs from the last pass's.
    fn replay(&mut self, tr: &mut Tracer) -> usize;
}

/// What one invocation measures.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Ops run.
    pub attempted: usize,
    /// Ops whose output was wrong.
    pub failed: usize,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(String, f64, String)>,
}

/// A SplitMix64 generator: the benchmark's own inputs do not depend on the
/// random number generators of the code under test.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Set-ups timed in each set-up window at least.
const SETUP_REPEATS: usize = 3;
/// Seconds of set-ups timed in each set-up window at least. A window runs
/// before the first pass and after every pass, and `setup_s` is the median
/// over all of them: a shared host has slow spells of a few seconds that
/// double a set-up's time, and windows spread over the run keep one spell
/// from deciding `setup_s`.
const SETUP_SECONDS: f64 = 0.1;

/// Milliseconds since `start`.
pub fn elapsed_ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Builds a workload's inputs: the set-up that `setup_s` times.
pub fn build(args: &RunArgs, sizes: &Sizes) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "paper_table3" => Box::new(PaperTable3::setup(&sizes.table3_machines)?),
        "equiv_check" => Box::new(EquivCheck::setup(sizes, args.seed)?),
        "serve_burst" => Box::new(ServeWorkload::burst(
            &sizes.burst_mix,
            sizes.burst_jobs,
            args.seed,
        )),
        "serve_open" => Box::new(ServeWorkload::open(
            &sizes.open_mix,
            sizes.open_jobs,
            sizes.open_rate,
            args.seconds,
            args.seed,
        )?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Runs one workload and checks that it produced exactly the declared
/// metrics.
pub fn run(args: &RunArgs, declared: &Declared, sizes: &Sizes) -> Result<Outcome, String> {
    if !declared.workloads.contains(&args.workload) {
        return Err(format!(
            "workload {:?} is not declared in BENCHMARK.json",
            args.workload
        ));
    }
    let (attempted, failed, values) = if args.trace {
        let mut workload = build(args, sizes)?;
        measure_traced(workload.as_mut(), args)?
    } else {
        let mut setup_times = Vec::new();
        let mut workload = time_setup(args, sizes, &mut setup_times)?;
        let (attempted, failed, mut values) = measure(workload.as_mut(), args.seconds, || {
            time_setup(args, sizes, &mut setup_times).map(drop)
        })?;
        values.insert("setup_s".into(), median(&setup_times));
        (attempted, failed, values)
    };
    let decls = declared.metrics(args.trace);
    let declared_names: BTreeSet<&str> = decls.iter().map(|m| m.name.as_str()).collect();
    let produced: BTreeSet<&str> = values.keys().map(String::as_str).collect();
    if declared_names != produced {
        return Err(format!(
            "the run produced metrics {produced:?} but BENCHMARK.json declares {declared_names:?}"
        ));
    }
    let metrics = decls
        .iter()
        .map(|m| (m.name.clone(), values[&m.name], m.unit.clone()))
        .collect::<Vec<_>>();
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a number: {value}"));
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// One set-up window: builds the workload's inputs, everything a run does
/// before its first timed op, [`SETUP_REPEATS`] times and for
/// [`SETUP_SECONDS`], whichever takes longer. Adds each build's time to
/// `times` and returns the last build. A fresh process per build would add
/// process creation, whose jitter dwarfs the smaller set-ups.
fn time_setup(
    args: &RunArgs,
    sizes: &Sizes,
    times: &mut Vec<f64>,
) -> Result<Box<dyn Workload>, String> {
    let mut workload = None;
    let (first, builds) = (Instant::now(), times.len());
    while times.len() < builds + SETUP_REPEATS || first.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(build(args, sizes)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok(workload.expect("at least one build"))
}

/// The end-to-end loop: whole passes, until another would end past
/// `seconds` (at least one), with `between_passes` called after each.
/// Throughput and latency percentiles are taken per pass and reported as
/// the median over passes, so one pass slowed by the machine does not move
/// them. Peak memory is read after the first pass: a cold run of the
/// workload, as users start it.
fn measure(
    workload: &mut dyn Workload,
    seconds: f64,
    mut between_passes: impl FnMut() -> Result<(), String>,
) -> Result<(usize, usize, BTreeMap<String, f64>), String> {
    let (mut wall, mut attempted, mut failed) = (0.0, 0usize, 0usize);
    let (mut throughput, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss = None;
    loop {
        let start = Instant::now();
        let latencies = workload.pass();
        let pass_s = start.elapsed().as_secs_f64();
        wall += pass_s;
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb()?);
        }
        failed += workload.check();
        attempted += latencies.len();
        let lat = sorted(&latencies);
        throughput.push(lat.len() as f64 / pass_s);
        p50.push(percentile(&lat, 50));
        p99.push(percentile(&lat, 99));
        between_passes()?;
        if wall + wall / throughput.len() as f64 > seconds {
            break;
        }
    }
    eprintln!(
        "{} pass(es), {attempted} ops in {wall:.3} s",
        throughput.len()
    );
    let values = BTreeMap::from([
        (
            "peak_rss_mb".to_owned(),
            peak_rss.expect("at least one pass"),
        ),
        ("ops_per_s".to_owned(), median(&throughput)),
        ("latency_p50_ms".to_owned(), median(&p50)),
        ("latency_p99_ms".to_owned(), median(&p99)),
    ]);
    Ok((attempted, failed, values))
}

/// The per-layer loop: one measured pass, then rounds of the replay with
/// tracing off and on, until another round would end past `seconds`.
/// Rounds alternate which replay runs first, and there are at least two,
/// because a process runs the same work faster the second time.
/// Every replay must reproduce the measured pass's output.
fn measure_traced(
    workload: &mut dyn Workload,
    args: &RunArgs,
) -> Result<(usize, usize, BTreeMap<String, f64>), String> {
    let start = Instant::now();
    let latencies = workload.pass();
    let mut failed = workload.check();
    let mut traced = Tracer::new(true);
    let (mut off_s, mut on_s, mut rounds) = (0.0, 0.0, 0usize);
    let mut compute_ms: Option<Vec<f64>> = None;
    loop {
        for tracing in [rounds % 2 == 1, rounds % 2 == 0] {
            let t = Instant::now();
            if tracing {
                failed += workload.replay(&mut traced);
                on_s += t.elapsed().as_secs_f64();
            } else {
                let mut untraced = Tracer::new(false);
                failed += workload.replay(&mut untraced);
                off_s += t.elapsed().as_secs_f64();
                compute_ms.get_or_insert(untraced.op_ms);
            }
        }
        rounds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if rounds >= 2 && elapsed + (off_s + on_s) / rounds as f64 > args.seconds {
            break;
        }
    }
    let mut values = traced.metrics();
    // Time each op spent outside its own computation: queueing and waiting
    // in the service, harness glue in the inline workloads.
    let latency: f64 = latencies.iter().sum();
    let compute: f64 = compute_ms.unwrap_or_default().iter().sum();
    values.insert("op.wait_pct".into(), 100.0 * (latency - compute) / latency);
    values.insert("trace.overhead_pct".into(), 100.0 * (on_s - off_s) / off_s);
    eprintln!("{rounds} replay round(s): untraced {off_s:.3} s, traced {on_s:.3} s");
    let path = trace_dir()?.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    traced
        .write_spans(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok((latencies.len() * (1 + 2 * rounds), failed, values))
}

/// `<target dir>/bench-trace`, next to the build that made this binary.
fn trace_dir() -> Result<PathBuf, String> {
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
    let target = exe
        .parent()
        .and_then(|profile| profile.parent())
        .ok_or_else(|| "the benchmark binary is not inside a target directory".to_owned())?;
    Ok(target.join("bench-trace"))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Renders `metrics` as a JSON object of `{"value": v, "unit": u}`.
pub fn metrics_json(metrics: &[(String, f64, String)]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                json::escape(name),
                json::escape(unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(","))
}

/// The result line the benchmark prints last.
pub fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    )
}
