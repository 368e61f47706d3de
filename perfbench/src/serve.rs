//! `serve_burst` and `serve_open`: leaf-spec jobs through
//! `bddmin_serve::process_stream`, the whole daemon minus argument parsing.
//!
//! The load generator runs inside the calling thread as the stream's
//! reader. A [`PacedReader`] releases line `i` no earlier than its due
//! time (open loop) or as soon as the service asks (burst), and records
//! when it did; a [`StampedWriter`] records when each result line was
//! written. Open-loop latency runs from the due time to the write, so a
//! stall is charged to every job that waits behind it; burst latency runs
//! from release to write, the time a job spent inside the service.
//!
//! The reference: every line must be `ok`; a job is a cache `hit` exactly
//! when the generator made it repeat an earlier job; and every `cover`
//! must agree with its leaf spec on every care leaf.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::io::{self, BufRead, Read, Write};
use std::time::{Duration, Instant};

use bddmin_bdd::{Bdd, BddStats, Edge};
use bddmin_core::{Heuristic, Isf};
use bddmin_serve::json;
use bddmin_serve::{
    parse_job, process_stream, render_result, CacheDecision, CacheLabel, Job, JobKind, ServeOpts,
    SigCache,
};

use crate::config::JobMix;
use crate::run::{Rng, Workload};
use crate::stats::{samples_beyond, MIN_SAMPLES_BEYOND};
use crate::trace::Tracer;

/// Worker threads of the service: one per vCPU of the calibration host.
const SHARDS: usize = 2;
/// Probability that a generated leaf is a don't care.
const DC_SHARE: f64 = 0.4;
/// Share of generated jobs that carry a `step_limit`.
const STEP_LIMIT_SHARE: f64 = 0.2;
/// Step limits, drawn uniformly for those jobs.
const STEP_LIMITS: [u64; 3] = [20, 40, 80];
/// Seeds the arrival times apart from the jobs themselves.
const ARRIVAL_STREAM: u64 = 0x5EED_A441_7A15_0000;
/// Seeds each open-loop stream apart from the others.
const STREAM_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// One generated job.
#[derive(Clone, Debug)]
pub struct GenJob {
    /// The request line, without the newline.
    pub line: String,
    /// Leaves of the spec, `None` for don't care, leftmost first.
    pub leaves: Vec<Option<bool>>,
    /// True when the job repeats an earlier one and must be a cache hit.
    pub repeat: bool,
}

/// Generates `n` jobs of `mix` from `seed`. Unique jobs are distinct
/// requests: no two share spec, filter and budget, and no spec is
/// independent of its last variable, so none can alias another.
pub fn generate_jobs(mix: &JobMix, n: usize, seed: u64) -> Vec<GenJob> {
    let mut rng = Rng::new(seed);
    // Request bodies (everything but the id) seen so far, and the unique
    // jobs a repeat may copy.
    let mut seen: HashSet<String> = HashSet::new();
    let mut unique: Vec<(String, Vec<Option<bool>>)> = Vec::new();
    let mut jobs = Vec::with_capacity(n);
    for i in 0..n {
        let repeat = !unique.is_empty() && rng.chance(mix.repeat_share);
        let (body, leaves) = if repeat {
            unique[rng.below(unique.len())].clone()
        } else {
            loop {
                let vars = mix.vars.0 + rng.below(mix.vars.1 - mix.vars.0 + 1);
                let leaves: Vec<Option<bool>> = (0..1usize << vars)
                    .map(|_| (!rng.chance(DC_SHARE)).then(|| rng.chance(0.5)))
                    .collect();
                let spec: String = leaves
                    .iter()
                    .map(|l| match l {
                        None => 'd',
                        Some(false) => '0',
                        Some(true) => '1',
                    })
                    .collect();
                let mut body = format!(
                    "\"spec\":\"{spec}\",\"heuristic\":\"{}\"",
                    json::escape(&mix.filters[rng.below(mix.filters.len())])
                );
                if rng.chance(STEP_LIMIT_SHARE) {
                    let limit = STEP_LIMITS[rng.below(STEP_LIMITS.len())];
                    let _ = write!(body, ",\"step_limit\":{limit}");
                }
                let has_care = leaves.iter().any(Option::is_some);
                let uses_last_var = leaves.chunks(2).any(|pair| pair[0] != pair[1]);
                if has_care && uses_last_var && seen.insert(body.clone()) {
                    unique.push((body.clone(), leaves.clone()));
                    break (body, leaves);
                }
            }
        };
        jobs.push(GenJob {
            line: format!("{{\"id\":\"j{i}\",{body}}}"),
            leaves,
            repeat,
        });
    }
    jobs
}

/// A `BufRead` over job lines that releases each line no earlier than
/// its scheduled time (on demand without a schedule) and records when it
/// did.
pub struct PacedReader<'a> {
    lines: &'a [GenJob],
    start: Instant,
    schedule: Option<&'a [Duration]>,
    current: Vec<u8>,
    offset: usize,
    /// Release time of every line handed out so far.
    pub released: Vec<Instant>,
}

impl<'a> PacedReader<'a> {
    /// A reader that releases line `i` at `start + schedule[i]`, or each
    /// line on demand without a schedule.
    pub fn new(
        lines: &'a [GenJob],
        start: Instant,
        schedule: Option<&'a [Duration]>,
    ) -> PacedReader<'a> {
        PacedReader {
            lines,
            start,
            schedule,
            current: Vec::new(),
            offset: 0,
            released: Vec::with_capacity(lines.len()),
        }
    }

    /// When line `i` is due: its scheduled time, or its release in a burst.
    pub fn due(&self, i: usize) -> Instant {
        match self.schedule {
            Some(schedule) => self.start + schedule[i],
            None => self.released[i],
        }
    }
}

/// Arrival times of `n` independent clients at `rate` per second on
/// average: a Poisson process, with exponential gaps drawn from `seed`.
pub fn poisson_schedule(n: usize, rate: f64, seed: u64) -> Vec<Duration> {
    let mut rng = Rng::new(seed);
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            let at = Duration::from_secs_f64(t);
            t += -(1.0 - rng.unit()).ln() / rate;
            at
        })
        .collect()
}

impl BufRead for PacedReader<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.offset == self.current.len() {
            let i = self.released.len();
            if i == self.lines.len() {
                return Ok(&[]);
            }
            if let Some(schedule) = self.schedule {
                let due = self.start + schedule[i];
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            self.released.push(Instant::now());
            self.current.clear();
            self.current
                .extend_from_slice(self.lines[i].line.as_bytes());
            self.current.push(b'\n');
            self.offset = 0;
        }
        Ok(&self.current[self.offset..])
    }

    fn consume(&mut self, amt: usize) {
        self.offset = (self.offset + amt).min(self.current.len());
    }
}

impl Read for PacedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// A `Write` sink that keeps the bytes and the time each line ended.
#[derive(Default)]
pub struct StampedWriter {
    /// Everything written.
    pub bytes: Vec<u8>,
    /// Time each newline was written.
    pub stamps: Vec<Instant>,
}

impl Write for StampedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let now = Instant::now();
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        self.stamps.extend(std::iter::repeat_n(now, lines));
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Milliseconds from each due time to the matching write.
pub fn latencies_ms(due: &[Instant], written: &[Instant]) -> Vec<f64> {
    due.iter()
        .zip(written)
        .map(|(&d, &w)| w.saturating_duration_since(d).as_secs_f64() * 1e3)
        .collect()
}

/// True when the sum of products `sop`, as `Isop::to_sop_string` renders
/// it over variables `x1..xn`, equals the spec on every care leaf.
pub fn cover_agrees(sop: &str, leaves: &[Option<bool>]) -> bool {
    let vars = leaves.len().trailing_zeros() as usize;
    let all = leaves.len() - 1;
    let mut covered = vec![false; leaves.len()];
    if sop != "0" {
        for cube in sop.split(" + ") {
            // A cube fixes the leaf-index bits in `mask` to `value`;
            // variable 0 is the top of the tree, the most significant bit.
            let (mut mask, mut value) = (0usize, 0usize);
            for lit in cube.split('·').filter(|&l| l != "1") {
                let (positive, name) = match lit.strip_prefix('¬') {
                    Some(rest) => (false, rest),
                    None => (true, lit),
                };
                let Some(var) = name.strip_prefix('x').and_then(|v| v.parse::<usize>().ok()) else {
                    return false;
                };
                if !(1..=vars).contains(&var) {
                    return false;
                }
                let bit = 1 << (vars - var);
                mask |= bit;
                if positive {
                    value |= bit;
                }
            }
            // Visit every leaf of the cube: all subsets of the free bits.
            let free = all & !mask;
            let mut sub = free;
            loop {
                covered[value | sub] = true;
                if sub == 0 {
                    break;
                }
                sub = (sub - 1) & free;
            }
        }
    }
    leaves
        .iter()
        .zip(&covered)
        .all(|(want, &got)| want.is_none_or(|w| w == got))
}

/// The first string member `key` of a result line, if it holds no escape.
///
/// Result lines are not read with `bddmin_serve::json`: its string scanner
/// revalidates the rest of the input at every character, which is
/// quadratic in the line length and would dominate the check on covers of
/// thousands of cubes. `render_result` fixes the field order, so the first
/// `status` and `cache` members are the line's own.
fn string_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let open = format!("\"{key}\":\"");
    let start = line.find(&open)? + open.len();
    let value = &line[start..start + line[start..].find('"')?];
    (!value.contains('\\')).then_some(value)
}

/// Checks result lines against the jobs; returns the number of bad jobs.
pub fn check_results(jobs: &[GenJob], output: &[u8], what: &str) -> usize {
    let text = String::from_utf8_lossy(output);
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != jobs.len() {
        eprintln!(
            "{what}: {} result lines for {} jobs",
            lines.len(),
            jobs.len()
        );
    }
    let mut failed = jobs.len().saturating_sub(lines.len());
    for (job, line) in jobs.iter().zip(&lines) {
        let want_cache = if job.repeat { "hit" } else { "miss" };
        let ok = string_field(line, "status") == Some("ok")
            && string_field(line, "cache") == Some(want_cache)
            && string_field(line, "cover").is_some_and(|sop| cover_agrees(sop, &job.leaves));
        if !ok {
            if failed < 3 {
                eprintln!("{what}: bad result for {}: {line}", job.line);
            }
            failed += 1;
        }
    }
    failed
}

/// One service stream: the lines of one `process_stream` call and, in
/// the open loop, their arrival offsets.
struct Stream {
    jobs: Vec<GenJob>,
    schedule: Option<Vec<Duration>>,
}

/// Both service workloads. A pass is one stream into a fresh daemon,
/// either a burst or an open loop; passes cycle through the streams.
pub struct ServeWorkload {
    name: &'static str,
    streams: Vec<Stream>,
    next: usize,
    last_output: Vec<u8>,
}

impl ServeWorkload {
    /// `serve_burst`: one stream of `jobs` jobs handed over all at once.
    pub fn burst(mix: &JobMix, jobs: usize, seed: u64) -> ServeWorkload {
        ServeWorkload {
            name: "serve_burst",
            streams: vec![Stream {
                jobs: generate_jobs(mix, jobs, seed),
                schedule: None,
            }],
            next: 0,
            last_output: Vec::new(),
        }
    }

    /// `serve_open`: streams of `jobs` unique jobs arriving at `rate` per
    /// second on average, enough of them to fill `seconds`.
    pub fn open(
        mix: &JobMix,
        jobs: usize,
        rate: f64,
        seconds: f64,
        seed: u64,
    ) -> Result<ServeWorkload, String> {
        if samples_beyond(jobs, 99) < MIN_SAMPLES_BEYOND {
            return Err(format!(
                "serve_open: streams of {jobs} jobs leave fewer than {MIN_SAMPLES_BEYOND} samples beyond the p99"
            ));
        }
        let count = ((rate * seconds) / jobs as f64).ceil().max(1.0) as u64;
        let streams = (0..count)
            .map(|k| {
                let stream_seed = seed.wrapping_add(k.wrapping_mul(STREAM_STRIDE));
                Stream {
                    jobs: generate_jobs(mix, jobs, stream_seed),
                    schedule: Some(poisson_schedule(jobs, rate, stream_seed ^ ARRIVAL_STREAM)),
                }
            })
            .collect();
        Ok(ServeWorkload {
            name: "serve_open",
            streams,
            next: 0,
            last_output: Vec::new(),
        })
    }

    fn last_stream(&self) -> &Stream {
        &self.streams[(self.next + self.streams.len() - 1) % self.streams.len()]
    }
}

impl Workload for ServeWorkload {
    fn pass(&mut self) -> Vec<f64> {
        let opts = ServeOpts {
            shards: SHARDS,
            ..ServeOpts::default()
        };
        self.last_output = Vec::new();
        let stream = &self.streams[self.next % self.streams.len()];
        self.next += 1;
        let mut out = StampedWriter::default();
        // The first line falls due a moment after the service starts.
        let start = Instant::now() + Duration::from_millis(1);
        let mut reader = PacedReader::new(&stream.jobs, start, stream.schedule.as_deref());
        process_stream(&mut reader, &mut out, &opts).expect("in-memory streams cannot fail");
        let due: Vec<Instant> = (0..reader.released.len()).map(|i| reader.due(i)).collect();
        if stream.schedule.is_some() {
            let lag = due.iter().zip(&reader.released).map(|(&d, &r)| r - d).max();
            let lag_ms = lag.unwrap_or_default().as_secs_f64() * 1e3;
            eprintln!(
                "{}: the generator ran at most {lag_ms:.3} ms late",
                self.name
            );
        }
        self.last_output = out.bytes;
        latencies_ms(&due, &out.stamps)
    }

    fn check(&mut self) -> usize {
        check_results(&self.last_stream().jobs, &self.last_output, self.name)
    }

    fn replay(&mut self, tr: &mut Tracer) -> usize {
        let expected: Vec<&[u8]> = self.last_output.split(|&b| b == b'\n').collect();
        let mut cache = SigCache::new();
        let mut failed = 0;
        for (index, job) in self.last_stream().jobs.iter().enumerate() {
            tr.begin_op();
            let line = traced_job(index, &job.line, &mut cache, tr);
            tr.end_op();
            if expected.get(index) != Some(&line.as_bytes()) {
                failed += 1;
            }
        }
        tr.count("serve.sig_collisions", cache.collisions as f64);
        if failed > 0 {
            eprintln!(
                "traced {}: {failed} result lines differ from the service's",
                self.name
            );
        }
        failed
    }
}

/// One job through the dispatcher and worker steps of `process_stream`,
/// rebuilt from public calls with a span around each. Returns the rendered
/// result line.
fn traced_job(index: usize, line: &str, cache: &mut SigCache, tr: &mut Tracer) -> String {
    let job = tr
        .span("serve", "parse", || parse_job(line))
        .expect("generated jobs parse");
    match tr.span("serve", "probe", || cache.probe(&job)) {
        CacheDecision::Hit(entry) => tr.span("serve", "render", || {
            let (ok, body) = cache.result(entry).expect("hits follow their entry");
            render_result(index, job.id.as_deref(), *ok, CacheLabel::Hit, None, body)
        }),
        CacheDecision::Miss(entry, _) => {
            tr.begin("serve", "job");
            let body = traced_spec_job(&job, tr);
            tr.end();
            cache.fill(entry, true, body.clone());
            tr.span("serve", "render", || {
                render_result(
                    index,
                    job.id.as_deref(),
                    true,
                    CacheLabel::Miss,
                    None,
                    &body,
                )
            })
        }
        CacheDecision::Bypass => unreachable!("generated jobs are spec jobs"),
    }
}

/// The worker's `run_spec_job` for jobs without a `var_map`.
fn traced_spec_job(job: &Job, tr: &mut Tracer) -> String {
    let JobKind::Spec {
        spec,
        var_map: None,
    } = &job.kind
    else {
        unreachable!("generated jobs are spec jobs without a var_map");
    };
    let (mut bdd, isf) = tr.span("bdd", "build", || {
        let mut bdd = Bdd::new(spec.num_vars().max(1));
        let (f, c) = spec.build(&mut bdd);
        (bdd, Isf::new(f, c))
    });
    let (f_size, c_size) = (bdd.size(isf.f), bdd.size(isf.c));
    let mut rows = String::new();
    let mut best: Option<(usize, Edge, Heuristic)> = None;
    let mut degraded = false;
    for (i, &h) in job.filter.selected.iter().enumerate() {
        tr.begin("core", h.name());
        bdd.clear_caches();
        let (g, report) = if job.budget.armed() {
            let (g, report) = h.minimize_budgeted(&mut bdd, isf, job.budget.to_budget());
            (g, Some(report))
        } else {
            (h.minimize(&mut bdd, isf), None)
        };
        let size = bdd.size(g);
        tr.end();
        if i > 0 {
            rows.push(',');
        }
        let _ = write!(rows, "{{\"name\":\"{}\",\"size\":{size}", h.name());
        if let Some(report) = &report {
            degraded |= report.degraded();
            let _ = write!(rows, ",\"report\":{}", report.to_json());
        }
        rows.push('}');
        if best.is_none_or(|(bs, _, _)| size < bs) {
            best = Some((size, g, h));
        }
    }
    let (min_size, best_edge, best_h) = best.expect("filters select at least one heuristic");
    let cover = tr.span("bdd", "isop", || {
        bdd.isop(best_edge, best_edge).to_sop_string(&bdd)
    });
    tr.kernel(&BddStats::default(), &bdd.stats());
    if degraded {
        tr.count("core.degraded_jobs", 1.0);
    }
    format!(
        "\"kind\":\"spec\",\"f_size\":{f_size},\"c_size\":{c_size},\
         \"heuristics\":[{rows}],\"min_size\":{min_size},\"best\":\"{}\",\
         \"cover\":\"{}\",\"degraded\":{degraded}",
        best_h.name(),
        json::escape(&cover)
    )
}
