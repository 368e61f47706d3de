//! Timed spans and kernel counters for the traced run.
//!
//! The traced replays call each layer's public functions and bracket every
//! call with a span: layer, name, start, end and the span that caused it.
//! Every op opens a root span, so all spans of one op share its id. Spans
//! are kept in memory and written out when the run ends; their durations
//! are also folded into per-layer self time (a span's duration minus that
//! of its children) and per-name inclusive time as they close.
//!
//! A disabled tracer records nothing but op durations, so the same replay
//! runs untraced and the difference in wall time is the tracing overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use bddmin_bdd::BddStats;

/// The layers, named after the crates.
pub const LAYERS: [&str; 5] = ["bdd", "core", "fsm", "eval", "serve"];

/// Spans reported by name, as `<layer>.<name>_pct`.
pub const NAMED_SPANS: [(&str, &str); 27] = [
    ("core", "f_orig"),
    ("core", "f_and_c"),
    ("core", "f_or_nc"),
    ("core", "const"),
    ("core", "restr"),
    ("core", "osm_td"),
    ("core", "osm_nv"),
    ("core", "osm_cp"),
    ("core", "osm_bt"),
    ("core", "tsm_td"),
    ("core", "tsm_cp"),
    ("core", "opt_lv"),
    ("core", "sched"),
    ("core", "lower_bound"),
    ("eval", "filter"),
    ("eval", "report"),
    ("bdd", "constrain"),
    ("bdd", "gc"),
    ("bdd", "build"),
    ("bdd", "isop"),
    ("fsm", "compile"),
    ("fsm", "image"),
    ("fsm", "miter"),
    ("serve", "parse"),
    ("serve", "probe"),
    ("serve", "render"),
    ("serve", "job"),
];

/// Counters the replays report through [`Tracer::count`].
pub const COUNTS: [&str; 2] = ["serve.sig_collisions", "core.degraded_jobs"];

/// Spans kept for the trace file; aggregates cover every span.
const MAX_KEPT_SPANS: usize = 200_000;

/// One closed span.
struct Span {
    /// This span's id.
    id: usize,
    /// Root span (op) this span belongs to.
    op: usize,
    /// The span that caused it.
    parent: Option<usize>,
    /// Layer (crate) the called function belongs to.
    layer: &'static str,
    /// What was called.
    name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    end_ns: u64,
}

struct Open {
    id: usize,
    layer: &'static str,
    name: &'static str,
    start: Instant,
    children_ns: u64,
}

/// Computed-table and GC counters summed over `BddStats` deltas.
#[derive(Clone, Debug, Default)]
struct Kernel {
    class_hits: [u64; 7],
    class_misses: [u64; 7],
    memo_hits: u64,
    memo_misses: u64,
    evictions: u64,
    gc_runs: u64,
    gc_reclaimed: u64,
    peak_live: usize,
}

/// Span recorder; see the module docs.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: usize,
    open: Vec<Open>,
    kept: Vec<Span>,
    self_ns: BTreeMap<&'static str, u64>,
    named_ns: BTreeMap<(&'static str, &'static str), u64>,
    op_start: Option<Instant>,
    op_id: usize,
    /// Duration of every finished op, in milliseconds (recorded even when
    /// disabled).
    pub op_ms: Vec<f64>,
    kernel: Kernel,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer; `enabled == false` records op durations only.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: 0,
            open: Vec::new(),
            kept: Vec::new(),
            self_ns: BTreeMap::new(),
            named_ns: BTreeMap::new(),
            op_start: None,
            op_id: 0,
            op_ms: Vec::new(),
            kernel: Kernel::default(),
            counts: BTreeMap::new(),
        }
    }

    /// Starts an op: the root of the spans that follow.
    pub fn begin_op(&mut self) {
        self.op_id = self.next_id;
        self.op_start = Some(Instant::now());
        self.begin("op", "op");
    }

    /// Ends the current op.
    pub fn end_op(&mut self) {
        self.end();
        let start = self.op_start.take().expect("end_op without begin_op");
        self.op_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    /// Opens a span of `layer` named `name`.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(Open {
            id,
            layer,
            name,
            start: Instant::now(),
            children_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end = Instant::now();
        let span = self.open.pop().expect("end without begin");
        let dur = (end - span.start).as_nanos() as u64;
        let parent = self.open.last_mut().map(|p| {
            p.children_ns += dur;
            p.id
        });
        *self.self_ns.entry(span.layer).or_default() += dur.saturating_sub(span.children_ns);
        *self.named_ns.entry((span.layer, span.name)).or_default() += dur;
        if self.kept.len() < MAX_KEPT_SPANS {
            self.kept.push(Span {
                id: span.id,
                op: self.op_id,
                parent,
                layer: span.layer,
                name: span.name,
                start_ns: (span.start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(layer, name);
        let out = f();
        self.end();
        out
    }

    /// Adds what a manager did between two snapshots to the kernel counters.
    pub fn kernel(&mut self, before: &BddStats, after: &BddStats) {
        if !self.enabled {
            return;
        }
        let k = &mut self.kernel;
        for i in 0..k.class_hits.len() {
            k.class_hits[i] += after.cache_class_hits[i] - before.cache_class_hits[i];
            k.class_misses[i] += after.cache_class_misses[i] - before.cache_class_misses[i];
        }
        k.memo_hits += after.memo_hits - before.memo_hits;
        k.memo_misses += after.memo_misses - before.memo_misses;
        k.evictions += after.cache_evictions - before.cache_evictions;
        k.gc_runs += after.gc_runs - before.gc_runs;
        k.gc_reclaimed += after.gc_reclaimed - before.gc_reclaimed;
        k.peak_live = k.peak_live.max(after.peak_live_nodes);
    }

    /// Adds `value` to one of the [`COUNTS`].
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            debug_assert!(COUNTS.contains(&name), "undeclared count {name}");
            *self.counts.entry(name).or_default() += value;
        }
    }

    /// The per-layer metrics: self-time shares per layer, inclusive shares
    /// of the named spans, cache hit rates and counters.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let op_ns = self
            .named_ns
            .get(&("op", "op"))
            .copied()
            .unwrap_or(0)
            .max(1) as f64;
        let share = |ns: u64| 100.0 * ns as f64 / op_ns;
        let mut out = BTreeMap::new();
        for layer in LAYERS {
            let ns = self.self_ns.get(layer).copied().unwrap_or(0);
            out.insert(format!("{layer}.self_pct"), share(ns));
        }
        for (layer, name) in NAMED_SPANS {
            let ns = self.named_ns.get(&(layer, name)).copied().unwrap_or(0);
            out.insert(format!("{layer}.{name}_pct"), share(ns));
        }
        let k = &self.kernel;
        let rate = |hits: u64, misses: u64| {
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            }
        };
        // Indices of BddStats::OP_CLASSES.
        for (class, i) in [
            ("ite", 0),
            ("constrain", 3),
            ("restrict", 4),
            ("and_exists", 6),
        ] {
            out.insert(
                format!("bdd.{class}_hit_rate"),
                rate(k.class_hits[i], k.class_misses[i]),
            );
        }
        out.insert(
            "core.memo_hit_rate".into(),
            rate(k.memo_hits, k.memo_misses),
        );
        out.insert("bdd.cache_evictions".into(), k.evictions as f64);
        out.insert("bdd.gc_runs".into(), k.gc_runs as f64);
        out.insert("bdd.gc_reclaimed".into(), k.gc_reclaimed as f64);
        out.insert("bdd.peak_live_nodes".into(), k.peak_live as f64);
        for name in COUNTS {
            out.insert(name.into(), self.counts.get(name).copied().unwrap_or(0.0));
        }
        out
    }

    /// Writes the kept spans as JSON lines to `path`.
    pub fn write_spans(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for s in &self.kept {
            line.clear();
            let _ = write!(line, "{{\"id\":{},\"op\":{},\"parent\":", s.id, s.op);
            match s.parent {
                Some(p) => {
                    let _ = write!(line, "{p}");
                }
                None => line.push_str("null"),
            }
            let _ = write!(
                line,
                ",\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.layer, s.name, s.start_ns, s.end_ns
            );
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ops_group_spans() {
        let mut tr = Tracer::new(true);
        tr.begin_op();
        tr.begin("fsm", "image");
        tr.span("bdd", "constrain", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.end();
        tr.end_op();
        let m = tr.metrics();
        assert!(m["bdd.constrain_pct"] > m["fsm.self_pct"]);
        assert!(m["fsm.image_pct"] >= m["bdd.constrain_pct"]);
        assert_eq!(tr.kept.len(), 3);
        assert!(tr.kept.iter().all(|s| s.op == 0));
        assert_eq!(
            tr.kept[0].parent,
            Some(tr.kept[1].id),
            "constrain was caused by image"
        );
        assert_eq!(tr.op_ms.len(), 1);
    }

    #[test]
    fn disabled_tracer_keeps_only_op_durations() {
        let mut tr = Tracer::new(false);
        tr.begin_op();
        tr.span("bdd", "gc", || ());
        tr.count("core.degraded_jobs", 1.0);
        tr.end_op();
        assert!(tr.kept.is_empty());
        assert_eq!(tr.op_ms.len(), 1);
        assert_eq!(tr.metrics()["core.degraded_jobs"], 0.0);
    }
}
