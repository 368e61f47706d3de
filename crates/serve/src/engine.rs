//! The service engine: signature cache, sharded workers, ordered merge.
//!
//! # Determinism contract
//!
//! The result stream is **byte-identical for every shard count** at a
//! fixed input order. Three decisions carry that contract:
//!
//! 1. **Cache provenance is decided at dispatch time, on the dispatcher
//!    thread, in input order.** A job is a `hit` iff an identical job
//!    (same exact ISF after signature confirmation, same filter, budget
//!    and variable map) appeared *earlier in the input* — even if that
//!    earlier job is still in flight on a worker. Had provenance been
//!    decided at completion time, a fast shard could turn a hit into a
//!    miss and change the output.
//! 2. **Results are emitted in input order** through an ordered buffer,
//!    erasing worker completion order. A cache hit aliases an earlier
//!    index; because emission is index-ordered and the alias target
//!    precedes the alias, the target's result is always available when
//!    the alias line is written.
//! 3. **Shard identity stays out of the output** unless explicitly
//!    requested (`--emit-shard`), because which shard runs a job depends
//!    on the shard count and on timing.
//!
//! Each worker keeps its managers across jobs, and every job starts them
//! over with [`Bdd::reset`]: fresh manager state on recycled table
//! storage. The state is history-independent (warm caches would make
//! deterministic step budgets depend on which jobs a shard saw before),
//! while the computed table and memo keep their allocations, so a job
//! pays only for the entries it touches. Workers wrap each job in
//! `catch_unwind`, so a request that trips a latent panic produces a
//! structured error line and the worker keeps serving — the
//! long-lived-manager discipline of CUDD/Sylvan: a bad request degrades,
//! it never kills the process. The next job's reset discards whatever
//! state the panic left behind.
//!
//! A job's small functions live on machine words. A leaf spec holds its
//! values and care set as packed truth tables, and both the
//! dispatcher's probe and the worker build from them, creating the
//! nodes the per-leaf recursion created, in its order. The cover line
//! is [`Bdd::isop`] of the best result, which solves frames of at most
//! 12 levels on tables: a job of up to 12 variables renders its cover
//! without creating a node. An all-don't-care spec is an ordinary job:
//! the heuristics return the constant 0 on an empty care set.
//!
//! # Event loop
//!
//! [`process_stream`] is a dispatcher on the calling thread with scoped
//! threads around it. A reader thread reads lines and sends them, then
//! end of input, as events on one channel; each worker sends a done
//! event on the same channel when it finishes a job. The dispatcher
//! blocks on one receive, drains whatever else is queued, and then
//! writes every result whose line and all earlier lines are ready, with
//! one flush per batch.
//! A result therefore leaves as soon as it can, not when the next line
//! arrives. Parsing, the cache probe and rendering stay on the
//! dispatcher, in input order, so the contract above holds unchanged.
//!
//! A job that needs a worker goes to the shard with the fewest
//! outstanding jobs, ties to the lowest index. Credits bound the work in
//! flight: the reader takes one before each read, and the dispatcher
//! returns it when the line's job settles, or at once for a blank,
//! malformed or cache-hit line.
//!
//! # Signature cache
//!
//! Results are content-addressed by the 64-lane [`IsfSig`] semantic
//! signature plus the request parameters. Signatures are refutation
//! filters, not identities, so **every hit passes exact-ISF
//! confirmation**: specs are rebuilt in one dispatcher-owned manager
//! where hash-consing makes exact equality a pair of pointer compares.
//! A signature match whose ISF differs is counted as a collision and
//! served as a miss — a forged or colliding signature can never alias a
//! wrong result.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;

use bddmin_bdd::{Bdd, Edge, SigEvaluator, Var, SIG_SEED};
use bddmin_core::{Heuristic, Isf};
use bddmin_eval::shard;
use bddmin_fsm::{parse_blif, simplify_report};

use crate::json;
use crate::protocol::{
    error_body, parse_job, render_result, CacheLabel, Job, JobKind, SERVE_MAX_VARS,
};

/// The signature pair of an ISF `[f, c]`: its values on the 64 lanes of
/// a [`SigEvaluator`]. On lanes where `c`'s bit is set, `on`'s bit is the
/// function's cared-about value; on don't-care lanes `on` is forced to 0,
/// so equal ISFs (equal onset and care) always produce equal pairs,
/// whatever their representatives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct IsfSig {
    /// `sig(f) & sig(c)`: the function's value on the cared lanes.
    pub on: u64,
    /// `sig(c)`: which lanes the ISF cares about.
    pub c: u64,
}

/// Computes the signature pair of `isf` through a shared evaluator (so a
/// batch of ISFs over one DAG costs one traversal of the union).
pub(crate) fn isf_sig(ev: &mut SigEvaluator, bdd: &Bdd, isf: Isf) -> IsfSig {
    let sc = ev.signature(bdd, isf.c);
    let sf = ev.signature(bdd, isf.f);
    IsfSig { on: sf & sc, c: sc }
}

/// Everything that identifies a cacheable request besides the exact ISF.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Semantic signature of the ISF (refutation-only; see module docs).
    pub sig: IsfSig,
    /// Canonical selection: heuristic names in run order.
    pub filter: String,
    /// `(step_limit, node_limit, time_limit_ms)`.
    pub budget: (Option<u64>, Option<u64>, Option<u64>),
    /// The variable renaming, if any.
    pub var_map: Option<Vec<u32>>,
}

/// What the dispatcher decided for one job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheDecision {
    /// Serve from the entry seeded by an earlier identical job.
    Hit(usize),
    /// Run the job; its result will seed this entry. Carries the
    /// signature the entry is filed under.
    Miss(usize, IsfSig),
    /// Not cacheable (blif jobs).
    Bypass,
}

struct CacheEntry {
    f: Edge,
    c: Edge,
    /// `(ok, body)` once the seeding job completed.
    result: Option<(bool, String)>,
}

/// The cross-request signature cache with exact-ISF confirmation.
pub struct SigCache {
    /// Dispatcher-owned manager: every cached spec is rebuilt here, so
    /// hash-consing turns exact-ISF comparison into edge equality. Never
    /// garbage collected (stable node ids keep the evaluator memo valid).
    bdd: Bdd,
    ev: SigEvaluator,
    entries: Vec<CacheEntry>,
    buckets: HashMap<CacheKey, Vec<usize>>,
    /// Signature matches rejected by exact confirmation.
    pub collisions: usize,
}

impl SigCache {
    /// An empty cache sized for [`SERVE_MAX_VARS`].
    pub fn new() -> SigCache {
        SigCache {
            bdd: Bdd::new(SERVE_MAX_VARS),
            ev: SigEvaluator::new(SERVE_MAX_VARS, SIG_SEED),
            entries: Vec::new(),
            buckets: HashMap::new(),
            collisions: 0,
        }
    }

    /// Decides provenance for `job` (must be called in input order).
    pub fn probe(&mut self, job: &Job) -> CacheDecision {
        let JobKind::Spec { spec, var_map } = &job.kind else {
            return CacheDecision::Bypass;
        };
        let (f, c) = spec.build(&mut self.bdd);
        let sig = isf_sig(&mut self.ev, &self.bdd, Isf::new(f, c));
        let filter: Vec<&str> = job.filter.selected.iter().map(|h| h.name()).collect();
        let key = CacheKey {
            sig,
            filter: filter.join(","),
            budget: (
                job.budget.step_limit,
                job.budget.node_limit.map(|n| n as u64),
                job.budget.time_limit_ms,
            ),
            var_map: var_map.clone(),
        };
        self.lookup(key, f, c)
    }

    /// The confirmation step, separated from [`SigCache::probe`] so the
    /// forged-signature path is directly testable: a `key` whose `sig`
    /// matches an existing entry but whose exact ISF `(f, c)` differs is
    /// REJECTED (counted as a collision) and becomes a fresh miss.
    pub fn lookup(&mut self, key: CacheKey, f: Edge, c: Edge) -> CacheDecision {
        let sig = key.sig;
        let bucket = self.buckets.entry(key).or_default();
        for &id in bucket.iter() {
            let entry = &self.entries[id];
            if entry.f == f && entry.c == c {
                return CacheDecision::Hit(id);
            }
        }
        if !bucket.is_empty() {
            self.collisions += 1;
        }
        let id = self.entries.len();
        bucket.push(id);
        self.entries.push(CacheEntry { f, c, result: None });
        CacheDecision::Miss(id, sig)
    }

    /// Records the result of the job that seeded `entry`.
    pub fn fill(&mut self, entry: usize, ok: bool, body: String) {
        self.entries[entry].result = Some((ok, body));
    }

    /// The recorded result of `entry`, once filled.
    pub fn result(&self, entry: usize) -> Option<&(bool, String)> {
        self.entries[entry].result.as_ref()
    }
}

impl Default for SigCache {
    fn default() -> SigCache {
        SigCache::new()
    }
}

/// Runs one job to a `(ok, body)` pair in fresh managers; never panics
/// outward.
pub fn process_job(job: &Job) -> (bool, String) {
    process_job_on(job, &mut Managers::default())
}

/// The managers a worker keeps across jobs: a spec job builds in
/// `builder` and, under a `var_map`, transfers into `target`. A job resets
/// each one it uses to `Bdd::new`'s state, so its body is the same as on
/// new managers.
#[derive(Debug, Default)]
struct Managers {
    builder: Bdd,
    target: Bdd,
}

/// Runs one job to a `(ok, body)` pair on a worker's managers; never
/// panics outward.
fn process_job_on(job: &Job, managers: &mut Managers) -> (bool, String) {
    match catch_unwind(AssertUnwindSafe(|| run_job(job, managers))) {
        Ok(Ok(body)) => (true, body),
        Ok(Err(msg)) => (false, error_body(&msg)),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            (false, error_body(&format!("internal panic: {msg}")))
        }
    }
}

fn run_job(job: &Job, managers: &mut Managers) -> Result<String, String> {
    match &job.kind {
        JobKind::Spec { spec, var_map } => run_spec_job(job, spec, var_map.as_deref(), managers),
        JobKind::Blif { source } => run_blif_job(job, source),
    }
}

fn run_spec_job(
    job: &Job,
    spec: &bddmin_bdd::LeafSpec,
    var_map: Option<&[u32]>,
    managers: &mut Managers,
) -> Result<String, String> {
    let n = spec.num_vars().max(1);
    let builder = &mut managers.builder;
    builder.reset(n);
    let (f, c) = spec.build(builder);
    // The variable map crosses a manager boundary through the checked
    // transfer: a non-injective or out-of-range map is a per-job error.
    let (bdd, isf) = match var_map {
        None => (builder, Isf::new(f, c)),
        Some(map) => {
            let target = &mut managers.target;
            target.reset(n);
            let isf = shard::transfer_isf(builder, Isf::new(f, c), target, |v| Var(map[v.index()]))
                .map_err(|e| format!("transfer rejected: {e}"))?;
            (target, isf)
        }
    };
    let f_size = bdd.size(isf.f);
    let c_size = bdd.size(isf.c);
    let mut rows = String::new();
    let mut best: Option<(usize, Edge, Heuristic)> = None;
    let mut degraded = false;
    for (i, &h) in job.filter.selected.iter().enumerate() {
        // Same measurement discipline as the eval harness: cold caches
        // per heuristic, so deterministic step budgets see the same
        // recursion every run.
        bdd.clear_caches();
        let (g, report) = if job.budget.armed() {
            let (g, report) = h.minimize_budgeted(bdd, isf, job.budget.to_budget());
            (g, Some(report))
        } else {
            (h.minimize(bdd, isf), None)
        };
        let size = bdd.size(g);
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
    let (min_size, best_edge, best_h) =
        best.ok_or_else(|| format!("no heuristic selected by filter {:?}", job.filter.raw))?;
    let cover = bdd.isop(best_edge, best_edge).to_sop_string(bdd);
    Ok(format!(
        "\"kind\":\"spec\",\"f_size\":{f_size},\"c_size\":{c_size},\
         \"heuristics\":[{rows}],\"min_size\":{min_size},\"best\":\"{}\",\
         \"cover\":\"{}\",\"degraded\":{degraded}",
        best_h.name(),
        json::escape(&cover)
    ))
}

fn run_blif_job(job: &Job, source: &str) -> Result<String, String> {
    let circuit = parse_blif(source).map_err(|e| format!("bad blif: {e}"))?;
    let h = job.filter.selected[0];
    let budget = job.budget;
    let report = simplify_report(&circuit, |bdd, isf| {
        if budget.armed() {
            h.minimize_budgeted(bdd, isf, budget.to_budget()).0
        } else {
            h.minimize(bdd, isf)
        }
    });
    let mut nets = String::new();
    let (mut total_orig, mut total_min) = (0usize, 0usize);
    for (i, entry) in report.iter().enumerate() {
        total_orig += entry.original_size;
        total_min += entry.minimized_size;
        if i > 0 {
            nets.push(',');
        }
        let _ = write!(
            nets,
            "{{\"name\":\"{}\",\"orig\":{},\"min\":{}}}",
            json::escape(&entry.name),
            entry.original_size,
            entry.minimized_size
        );
    }
    Ok(format!(
        "\"kind\":\"blif\",\"nets\":[{nets}],\"total_orig\":{total_orig},\"total_min\":{total_min}"
    ))
}

/// Service configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeOpts {
    /// Worker threads, each owning its own managers (min 1).
    pub shards: usize,
    /// Emit the id of the shard that ran the job in result lines. Off by
    /// default: that shard depends on the shard count and on timing, so
    /// emitting it breaks the byte-identical-across-shard-counts
    /// contract.
    pub emit_shard: bool,
}

impl Default for ServeOpts {
    fn default() -> ServeOpts {
        ServeOpts {
            shards: 1,
            emit_shard: false,
        }
    }
}

/// What one stream run did; rendered on stderr by the binary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Non-blank input lines.
    pub jobs: usize,
    /// `status:"ok"` results.
    pub ok: usize,
    /// `status:"error"` results.
    pub errors: usize,
    /// Results served from the signature cache.
    pub cache_hits: usize,
    /// Signature matches rejected by exact-ISF confirmation.
    pub sig_collisions: usize,
    /// Worker count used.
    pub shards: usize,
}

impl std::fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bddmin-serve: {} jobs, {} ok, {} errors, {} cache hits, {} sig collisions, {} shards",
            self.jobs, self.ok, self.errors, self.cache_hits, self.sig_collisions, self.shards
        )
    }
}

struct WorkItem {
    index: usize,
    job: Job,
}

struct WorkDone {
    index: usize,
    shard: usize,
    ok: bool,
    body: String,
}

/// What wakes the dispatcher.
enum Event {
    /// The reader's next input line, without its line ending.
    Line(String),
    /// The reader reached end of input.
    Eof,
    /// The reader failed; the stream ends with this error.
    ReadError(io::Error),
    /// A worker finished a job.
    Done(WorkDone),
}

/// Per-index emission state.
enum Slot {
    /// Fully rendered result line.
    Ready(bool, String),
    /// Dispatched to a worker; rendered when its result arrives.
    Waiting {
        id: Option<String>,
        cache: CacheLabel,
        entry: Option<usize>,
    },
    /// Cache hit: rendered at emission from the target entry's result.
    Alias { id: Option<String>, entry: usize },
}

/// Credits per shard: at most this many lines per shard are read but
/// not yet settled (dispatched jobs whose result has not come back, and
/// lines the dispatcher has not reached). Bounds memory on huge streams
/// without idling workers.
const INFLIGHT_PER_SHARD: usize = 4;

/// Reads JSON-lines jobs from `input`, writes one result line per job to
/// `out` in input order, and returns the run summary. This is the whole
/// daemon minus argument parsing; tests drive it in-process.
///
/// `input` is read on a thread of its own (see the module docs), and
/// every result is written and `out` flushed as soon as it and all
/// earlier results are ready. On an I/O error the call returns `Err`
/// after joining the reader and the workers; the workers finish the jobs
/// already queued to them, and the reader its current read, so on stdin
/// a write error returns once that read completes.
pub fn process_stream(
    input: impl BufRead + Send,
    out: &mut impl Write,
    opts: &ServeOpts,
) -> io::Result<ServeSummary> {
    let shards = opts.shards.max(1);
    let (events_tx, events) = mpsc::channel::<Event>();
    let (credits_tx, credits) = mpsc::channel::<()>();
    for _ in 0..shards * INFLIGHT_PER_SHARD {
        credits_tx.send(()).expect("the receiver is held here");
    }
    std::thread::scope(|s| {
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = mpsc::channel::<WorkItem>();
            let done = events_tx.clone();
            s.spawn(move || {
                let mut managers = Managers::default();
                for WorkItem { index, job } in rx {
                    let (ok, body) = process_job_on(&job, &mut managers);
                    let event = Event::Done(WorkDone {
                        index,
                        shard,
                        ok,
                        body,
                    });
                    if done.send(event).is_err() {
                        break;
                    }
                }
            });
            workers.push(tx);
        }
        s.spawn(move || read_lines(input, &credits, &events_tx));
        let dispatcher = Dispatcher {
            cache: SigCache::new(),
            slots: VecDeque::new(),
            next_emit: 0,
            load: vec![0; shards],
            workers,
            credits: credits_tx,
            emit_shard: opts.emit_shard,
            summary: ServeSummary {
                shards,
                ..ServeSummary::default()
            },
        };
        // `run` consumes the dispatcher's senders and the event receiver,
        // so when it returns the workers and the reader wind down; the
        // scope joins them before `process_stream` returns.
        dispatcher.run(events, out)
    })
}

/// The reader thread: takes a credit, reads one line and sends it, until
/// end of input, a read error, or the dispatcher is gone.
fn read_lines(input: impl BufRead, credits: &mpsc::Receiver<()>, events: &mpsc::Sender<Event>) {
    let mut lines = input.lines();
    while credits.recv().is_ok() {
        let (event, last) = match lines.next() {
            Some(Ok(line)) => (Event::Line(line), false),
            Some(Err(e)) => (Event::ReadError(e), true),
            None => (Event::Eof, true),
        };
        if events.send(event).is_err() || last {
            return;
        }
    }
}

/// The dispatcher's state: everything but the output.
struct Dispatcher {
    cache: SigCache,
    /// The slot of every index from `next_emit` on, in index order.
    slots: VecDeque<Slot>,
    /// Index of the first unwritten result (the front slot).
    next_emit: usize,
    /// Dispatched but unsettled jobs per shard.
    load: Vec<usize>,
    workers: Vec<mpsc::Sender<WorkItem>>,
    credits: mpsc::Sender<()>,
    emit_shard: bool,
    summary: ServeSummary,
}

impl Dispatcher {
    /// Serves events until end of input with every job settled: each
    /// batch is one blocking receive plus whatever else is queued,
    /// followed by one emit and one flush.
    fn run(
        mut self,
        events: mpsc::Receiver<Event>,
        out: &mut impl Write,
    ) -> io::Result<ServeSummary> {
        let mut eof = false;
        while !eof || self.load.iter().any(|&n| n > 0) {
            // Before end of input the reader holds a sender; after it,
            // every outstanding job's worker does.
            let mut event = events.recv().expect("an event is pending");
            loop {
                match event {
                    Event::Line(line) => self.dispatch(&line),
                    Event::Eof => eof = true,
                    Event::ReadError(e) => return Err(e),
                    Event::Done(done) => self.settle(done),
                }
                match events.try_recv() {
                    Ok(next) => event = next,
                    Err(_) => break,
                }
            }
            self.emit_ready(out)?;
            out.flush()?;
        }
        debug_assert!(self.slots.is_empty(), "unemitted results left behind");
        self.summary.jobs = self.next_emit;
        self.summary.sig_collisions = self.cache.collisions;
        Ok(self.summary)
    }

    /// Hands a credit back to the reader. After end of input the reader
    /// is gone and the credit is dropped.
    fn return_credit(&self) {
        let _ = self.credits.send(());
    }

    /// Parses and probes one input line and gives it a slot: a result
    /// line at once, or a job on the least-loaded shard.
    fn dispatch(&mut self, line: &str) {
        if line.trim().is_empty() {
            self.return_credit();
            return;
        }
        let index = self.next_emit + self.slots.len();
        let slot = match parse_job(line) {
            Err(msg) => Slot::Ready(
                false,
                render_result(
                    index,
                    None,
                    false,
                    CacheLabel::Bypass,
                    None,
                    &error_body(&msg),
                ),
            ),
            Ok(job) => match self.cache.probe(&job) {
                CacheDecision::Hit(entry) => {
                    self.summary.cache_hits += 1;
                    Slot::Alias { id: job.id, entry }
                }
                CacheDecision::Miss(entry, _) => {
                    self.send_to_worker(index, job, CacheLabel::Miss, Some(entry))
                }
                CacheDecision::Bypass => self.send_to_worker(index, job, CacheLabel::Bypass, None),
            },
        };
        if !matches!(slot, Slot::Waiting { .. }) {
            self.return_credit();
        }
        self.slots.push_back(slot);
    }

    /// Sends `job` to the shard with the fewest outstanding jobs, ties
    /// to the lowest index, and returns its waiting slot.
    fn send_to_worker(
        &mut self,
        index: usize,
        mut job: Job,
        cache: CacheLabel,
        entry: Option<usize>,
    ) -> Slot {
        let shard = (0..self.load.len())
            .min_by_key(|&s| self.load[s])
            .expect("at least one shard");
        self.load[shard] += 1;
        // Workers never read the id; the slot renders it.
        let id = job.id.take();
        self.workers[shard]
            .send(WorkItem { index, job })
            .expect("worker alive while its sender is held");
        Slot::Waiting { id, cache, entry }
    }

    /// Renders a finished worker result into its slot and seeds the cache.
    fn settle(&mut self, done: WorkDone) {
        self.load[done.shard] -= 1;
        self.return_credit();
        let slot = &mut self.slots[done.index - self.next_emit];
        let Slot::Waiting {
            id,
            cache: label,
            entry,
        } = slot
        else {
            unreachable!("worker result for an index that was not dispatched");
        };
        if let Some(entry) = *entry {
            self.cache.fill(entry, done.ok, done.body.clone());
        }
        let rendered = render_result(
            done.index,
            id.as_deref(),
            done.ok,
            *label,
            self.emit_shard.then_some(done.shard),
            &done.body,
        );
        *slot = Slot::Ready(done.ok, rendered);
    }

    /// Writes every consecutive finished line starting at `next_emit`.
    fn emit_ready(&mut self, out: &mut impl Write) -> io::Result<()> {
        while let Some(slot) = self.slots.front() {
            let ok = match slot {
                Slot::Waiting { .. } => break,
                Slot::Ready(ok, line) => {
                    writeln!(out, "{line}")?;
                    *ok
                }
                Slot::Alias { id, entry } => {
                    // The alias target precedes this index, so its result
                    // was recorded before the target line was emitted.
                    let (ok, body) = self
                        .cache
                        .result(*entry)
                        .expect("alias target emitted before alias");
                    let line = render_result(
                        self.next_emit,
                        id.as_deref(),
                        *ok,
                        CacheLabel::Hit,
                        None,
                        body,
                    );
                    writeln!(out, "{line}")?;
                    *ok
                }
            };
            if ok {
                self.summary.ok += 1;
            } else {
                self.summary.errors += 1;
            }
            self.slots.pop_front();
            self.next_emit += 1;
        }
        Ok(())
    }
}

/// A deterministic mixed demo/CI stream of `n` jobs: spec jobs cycling
/// over a pool of instances and filters (so streams past 30 jobs repeat
/// combinations and exercise the signature cache), one malformed line,
/// one non-injective `var_map` job, one budget-starved job, and one BLIF
/// job. A pure function of `n` — the CI stage and the tests rely on
/// byte-identical streams.
pub fn demo_stream(n: usize) -> String {
    const SPECS: [&str; 6] = [
        "d1 01",
        "d1 01 1d 01",
        "01 1d d1 10",
        "dd 01 10 11",
        "0d d1 11 00",
        "01 10 d0 0d 11 1d 00 dd",
    ];
    const FILTERS: [&str; 5] = ["all", "osm_*", "sched", "osm_bt,tsm_td", "restr"];
    const DEMO_BLIF: &str = ".model demo\\n.inputs a b c\\n.outputs y\\n.names a b t1\\n11 1\\n.names a c t2\\n11 1\\n.names t1 t2 y\\n1- 1\\n-1 1\\n.end\\n";
    let mut out = String::new();
    for i in 0..n {
        match i {
            2 => out.push_str("{\"id\":\"broken\",\"spec\":\"d1 01\"\n"),
            3 => out.push_str(
                "{\"id\":\"clash\",\"spec\":\"d1 01 1d 01\",\"var_map\":[0,0,0]}\n",
            ),
            5 => out.push_str(
                "{\"id\":\"starved\",\"spec\":\"01 1d d1 10\",\"heuristic\":\"sched\",\"step_limit\":1}\n",
            ),
            7 => {
                let _ = writeln!(out, "{{\"id\":\"net\",\"blif\":\"{DEMO_BLIF}\"}}");
            }
            i => {
                let spec = SPECS[(i * 7 + 3) % SPECS.len()];
                let filter = FILTERS[(i * 2 + 1) % FILTERS.len()];
                let _ = write!(out, "{{\"id\":\"job{i}\",\"spec\":\"{spec}\",\"heuristic\":\"{filter}\"");
                if i % 3 == 0 {
                    let _ = write!(out, ",\"step_limit\":40");
                }
                out.push_str("}\n");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_isfs_have_equal_sig_pairs_despite_representatives() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let ab = bdd.and(a, b);
        // [a·b, a] and [b, a] are the same ISF with different
        // representatives; don't-care lanes must not leak into `on`.
        let mut ev = SigEvaluator::for_bdd(&bdd);
        let s1 = isf_sig(&mut ev, &bdd, Isf::new(ab, a));
        let s2 = isf_sig(&mut ev, &bdd, Isf::new(b, a));
        assert_eq!(s1, s2);
    }

    fn run(input: &str, shards: usize) -> (String, ServeSummary) {
        let mut out = Vec::new();
        let summary = process_stream(
            input.as_bytes(),
            &mut out,
            &ServeOpts {
                shards,
                ..ServeOpts::default()
            },
        )
        .unwrap();
        (String::from_utf8(out).unwrap(), summary)
    }

    #[test]
    fn one_result_line_per_job_in_input_order() {
        let input = "\
{\"id\":\"a\",\"spec\":\"d1 01\"}\n\
\n\
{\"id\":\"b\",\"spec\":\"d1 01 1d 01\",\"heuristic\":\"osm_bt\"}\n\
not json\n";
        let (out, summary) = run(input, 2);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "blank lines are skipped: {out}");
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"index\":{i},")),
                "out of order: {line}"
            );
        }
        assert!(lines[2].contains("\"status\":\"error\""));
        assert_eq!(summary.jobs, 3);
        assert_eq!(summary.ok, 2);
        assert_eq!(summary.errors, 1);
    }

    #[test]
    fn forged_signature_is_rejected_by_exact_confirmation() {
        let mut cache = SigCache::new();
        let mut bdd = Bdd::new(2);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let key = |sig| CacheKey {
            sig,
            filter: "osm_bt".to_owned(),
            budget: (None, None, None),
            var_map: None,
        };
        let sig_a = IsfSig { on: 7, c: 0xFF };
        // Seed the cache with ISF A under signature sig_a.
        let seeded = cache.lookup(key(sig_a), a, b);
        let CacheDecision::Miss(entry, _) = seeded else {
            panic!("first lookup must miss: {seeded:?}");
        };
        cache.fill(entry, true, "\"x\":1".to_owned());
        // An identical repeat is a confirmed hit.
        assert_eq!(cache.lookup(key(sig_a), a, b), CacheDecision::Hit(entry));
        // The forgery: same signature, different exact ISF. Must be
        // rejected (fresh miss) and counted as a collision.
        let ab = bdd.and(a, b);
        match cache.lookup(key(sig_a), ab, b) {
            CacheDecision::Miss(forged_entry, _) => assert_ne!(forged_entry, entry),
            other => panic!("forged signature must not hit: {other:?}"),
        }
        assert_eq!(cache.collisions, 1);
    }

    #[test]
    fn panicking_job_becomes_a_structured_error_line() {
        // No protocol-reachable panic is known (that is the point of the
        // try_transfer satellite) — force one through the process_job
        // seam to prove the containment works.
        let result = catch_unwind(AssertUnwindSafe(|| {
            panic!("synthetic worker bug");
        }));
        assert!(result.is_err());
        // process_job on a real job never panics outward even for the
        // adversarial var_map.
        let job = parse_job("{\"spec\":\"d1 01 1d 01\",\"var_map\":[0,0,0]}").unwrap();
        let (ok, body) = process_job(&job);
        assert!(!ok);
        assert!(body.contains("not injective"), "{body}");
    }

    /// A seeded mix of jobs: spec widths 1 to 10 under every filter kind,
    /// step- and node-limited ones, permuting `var_map`s, a non-injective
    /// one, an all-don't-care spec and a blif job.
    fn mixed_jobs(seed: u64) -> Vec<Job> {
        const FILTERS: [&str; 5] = ["all", "osm_*", "sched", "opt_lv,tsm_td", "restr"];
        let mut rng = bddmin_core::rng::XorShift64::seed_from_u64(seed);
        let mut lines = Vec::new();
        for i in 0..40 {
            let width = 1 + i % 10;
            let spec: String = (0..1usize << width)
                .map(|_| ['0', '1', 'd'][rng.gen_range(0..3)])
                .collect();
            let filter = FILTERS[rng.gen_range(0..FILTERS.len())];
            let mut line = format!("{{\"spec\":\"{spec}\",\"heuristic\":\"{filter}\"");
            match rng.gen_range(0..5) {
                0 => {
                    let _ = write!(line, ",\"step_limit\":{}", [3, 40, 400][i % 3]);
                }
                1 => {
                    let _ = write!(line, ",\"node_limit\":{}", [8, 30, 90][i % 3]);
                }
                _ => {}
            }
            if i % 4 == 3 {
                let mut map: Vec<usize> = (0..width).rev().collect();
                if i == 23 {
                    map[0] = map[width - 1];
                }
                let _ = write!(line, ",\"var_map\":{map:?}");
            }
            line.push('}');
            lines.push(line);
        }
        lines.push("{\"spec\":\"dd dd\",\"heuristic\":\"all\"}".to_owned());
        lines.push(format!(
            "{{\"blif\":\"{}\"}}",
            ".model m\\n.inputs a b\\n.outputs y\\n.names a b y\\n11 1\\n.end\\n"
        ));
        lines.iter().map(|l| parse_job(l).unwrap()).collect()
    }

    /// A job that panics inside the kernel on the worker's managers, and
    /// leaves an armed budget, an unfinished operation and
    /// current-generation table entries behind.
    fn forced_panic(managers: &mut Managers) {
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let bdd = &mut managers.builder;
            bdd.reset(10);
            let (f, c) = bdd.from_leaf_spec(&"01d1d0".repeat(171)[..1024]).unwrap();
            bdd.set_budget(bddmin_bdd::Budget::UNLIMITED.steps(40));
            bdd.xor(f, c)
        }));
        let payload = panicked.expect_err("the budget must trip");
        let msg = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.starts_with(bddmin_bdd::BUDGET_PANIC), "{msg}");
    }

    #[test]
    fn recycled_managers_answer_as_fresh_ones() {
        let jobs = mixed_jobs(0x5eed);
        let expected: Vec<(bool, String)> = jobs.iter().map(process_job).collect();
        for needle in ["not injective", "\"kind\":\"blif\""] {
            assert!(expected.iter().any(|(_, b)| b.contains(needle)), "{needle}");
        }
        let all_dont_care = &expected[jobs.len() - 2];
        assert!(all_dont_care.0, "{}", all_dont_care.1);
        assert!(expected
            .iter()
            .any(|(_, b)| b.contains("\"degraded\":true")));
        let forward: Vec<usize> = (0..jobs.len()).collect();
        let reversed: Vec<usize> = forward.iter().rev().copied().collect();
        for order in [forward, reversed] {
            let mut managers = Managers::default();
            for (k, &i) in order.iter().enumerate() {
                if k == 17 {
                    forced_panic(&mut managers);
                }
                assert_eq!(
                    process_job_on(&jobs[i], &mut managers),
                    expected[i],
                    "job {i}"
                );
            }
        }
    }
}
