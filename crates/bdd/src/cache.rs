//! Computed table: lossy memoisation of BDD operations.
//!
//! CUDD-style cache: a power-of-two array of 2-way buckets that
//! **overwrites on collision**. Losing an entry only costs a
//! re-computation — `ite` and friends re-derive the same canonical result —
//! so the cache may be lossy without affecting correctness. In exchange:
//!
//! * memory is bounded (no unbounded `HashMap` growth during ITE storms),
//! * there are no rehash pauses on the hot path,
//! * [`ComputedTable::clear`] is O(1): a generation counter is bumped and
//!   stale entries die in place (the paper's between-heuristics cache flush
//!   becomes free).
//!
//! The capacity is **adaptive** in the CUDD style: when an epoch (the span
//! since the last growth decision) has seen more evictions than the table
//! has slots *and* enough hits to prove the cached results are being
//! reused, the table doubles — bounded by a hard `max_log2` ceiling and by
//! a memory budget the manager derives from the node-store size, so a tiny
//! workload never pays for a big cache. Growth rehashes only the current
//! generation's entries; the O(1) generation clear is unaffected.
//!
//! Hit/miss/eviction/occupancy counters — aggregate and per operation
//! class — feed [`BddStats`] (crate::BddStats), keeping the paper's
//! cache-flush methodology observable.

use crate::edge::Edge;
use crate::util::mix64;

/// Operation tags used as part of computed-table keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    Ite,
    Exists,
    Forall,
    Constrain,
    Restrict,
    AndExists,
    Compose(u32),
    Agree,
}

impl Op {
    /// Injective encoding into a `u32` word: the plain tags take 0..=4,
    /// 6 and 7, while `Compose(v)` maps to `5 + 8v`, which never collides
    /// with a plain tag (it is ≡ 5 mod 8 and ≥ 5) nor with another
    /// `Compose` (affine in `v`).
    #[inline]
    fn word(self) -> u32 {
        match self {
            Op::Ite => 0,
            Op::Exists => 1,
            Op::Forall => 2,
            Op::Constrain => 3,
            Op::Restrict => 4,
            Op::AndExists => 6,
            Op::Agree => 7,
            Op::Compose(v) => {
                debug_assert!(v < (u32::MAX - 5) / 8, "variable index overflows op word");
                5 + 8 * v
            }
        }
    }

    /// Coarse operation class used for per-class hit/miss telemetry. All
    /// `Compose(v)` share one class; the key word above stays injective.
    #[inline]
    pub(crate) fn class(self) -> usize {
        match self {
            Op::Ite => 0,
            Op::Exists => 1,
            Op::Forall => 2,
            Op::Constrain => 3,
            Op::Restrict => 4,
            Op::Compose(_) => 5,
            Op::AndExists => 6,
            Op::Agree => 7,
        }
    }
}

/// Number of operation classes tracked by the per-class counters.
pub(crate) const OP_CLASS_COUNT: usize = 8;

/// Display names for the operation classes, indexed by [`Op::class`].
/// New classes are appended: consumers index the existing ones by
/// position.
pub(crate) const OP_CLASS_NAMES: [&str; OP_CLASS_COUNT] = [
    "ite",
    "exists",
    "forall",
    "constrain",
    "restrict",
    "compose",
    "and_exists",
    "agree",
];

/// One cache entry: the full `(op, a, b, c)` key, the result, and the
/// generation it was written in. 24 bytes; a 2-way bucket is 48 bytes, so
/// a probe touches one cache line.
#[derive(Clone, Copy, Debug)]
struct Entry {
    op: u32,
    a: u32,
    b: u32,
    c: u32,
    result: u32,
    generation: u32,
}

const DEAD: Entry = Entry {
    op: 0,
    a: 0,
    b: 0,
    c: 0,
    result: 0,
    generation: 0,
};

/// Default starting cache capacity in entries (2-way buckets of two);
/// 2^16 entries = 1.5 MiB, resident in L2/L3 until the workload proves it
/// needs more.
pub(crate) const DEFAULT_LOG2_CAPACITY: u32 = 16;

/// Hard ceiling for adaptive growth: 2^18 entries = 6 MiB. Measured on an
/// ITE storm (a random `ite` stream with periodic GC), throughput was flat
/// from 2^16 to 2^18 and then fell off a cliff (0.68x at 2^20): once the
/// table outgrows the last-level cache, every probe is a DRAM round-trip,
/// and on GC-heavy workloads the extra capacity buys almost no hits
/// because most misses are compulsory (first touch within a GC window). The ceiling therefore stops growth at
/// the locality knee; the manager's node-store budget binds first on small
/// managers.
pub(crate) const DEFAULT_MAX_LOG2_CAPACITY: u32 = 18;

/// The lossy computed table.
#[derive(Debug)]
pub(crate) struct ComputedTable {
    entries: Box<[Entry]>,
    /// `bucket_count - 1` where `bucket_count = capacity / 2`.
    bucket_mask: usize,
    /// Entries written in an earlier generation are invisible. Starts at 1
    /// so the zero-initialised array is empty.
    generation: u32,
    occupied: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Current capacity is `2^log2`; growth doubles until `max_log2`.
    log2: u32,
    max_log2: u32,
    /// Epoch counters, reset at every growth decision: growth requires
    /// both eviction pressure and hit reward within one epoch.
    epoch_hits: u64,
    epoch_evictions: u64,
    resizes: u64,
    class_hits: [u64; OP_CLASS_COUNT],
    class_misses: [u64; OP_CLASS_COUNT],
}

impl Default for ComputedTable {
    fn default() -> Self {
        ComputedTable::with_log2_capacity(DEFAULT_LOG2_CAPACITY)
    }
}

impl ComputedTable {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A cache with `2^log2` entry slots (minimum 2), allowed to grow up
    /// to the default ceiling (or `log2` itself if that is larger).
    pub(crate) fn with_log2_capacity(log2: u32) -> Self {
        let log2 = log2.max(1);
        let cap = 1usize << log2;
        ComputedTable {
            entries: vec![DEAD; cap].into_boxed_slice(),
            bucket_mask: (cap >> 1) - 1,
            generation: 1,
            occupied: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            log2,
            max_log2: DEFAULT_MAX_LOG2_CAPACITY.max(log2),
            epoch_hits: 0,
            epoch_evictions: 0,
            resizes: 0,
            class_hits: [0; OP_CLASS_COUNT],
            class_misses: [0; OP_CLASS_COUNT],
        }
    }

    /// Reset to an empty table of `2^log2` entries that may adaptively
    /// grow up to `2^max_log2`. Setting `max_log2 == log2` pins the
    /// capacity (used by the cache-size invariance tests). Counters and
    /// resize history are preserved; the contents are dropped.
    pub(crate) fn configure(&mut self, log2: u32, max_log2: u32) {
        let log2 = log2.max(1);
        let cap = 1usize << log2;
        self.entries = vec![DEAD; cap].into_boxed_slice();
        self.bucket_mask = (cap >> 1) - 1;
        self.generation = 1;
        self.occupied = 0;
        self.log2 = log2;
        self.max_log2 = max_log2.max(log2);
        self.epoch_hits = 0;
        self.epoch_evictions = 0;
    }

    #[inline]
    fn mix_key(&self, op: u32, a: u32, b: u32, c: u32) -> usize {
        let k0 = ((op as u64) << 32) | a as u64;
        let k1 = ((b as u64) << 32) | c as u64;
        mix64(k0 ^ k1.rotate_left(23).wrapping_mul(0x9E37_79B9_7F4A_7C15)) as usize
    }

    #[inline]
    fn bucket(&self, op: u32, a: Edge, b: Edge, c: Edge) -> usize {
        (self.mix_key(op, a.to_bits(), b.to_bits(), c.to_bits()) & self.bucket_mask) << 1
    }

    #[inline]
    pub(crate) fn get(&mut self, op: Op, a: Edge, b: Edge, c: Edge) -> Option<Edge> {
        let class = op.class();
        let op = op.word();
        let i = self.bucket(op, a, b, c);
        for way in 0..2 {
            let e = self.entries[i + way];
            if e.generation == self.generation
                && e.op == op
                && e.a == a.to_bits()
                && e.b == b.to_bits()
                && e.c == c.to_bits()
            {
                self.hits += 1;
                self.epoch_hits += 1;
                self.class_hits[class] += 1;
                if way == 1 {
                    // Promote to the primary way so the hot entry survives
                    // the next collision in this bucket.
                    self.entries.swap(i, i + 1);
                }
                return Some(Edge::from_bits(e.result));
            }
        }
        self.misses += 1;
        self.class_misses[class] += 1;
        None
    }

    #[inline]
    pub(crate) fn insert(&mut self, op: Op, a: Edge, b: Edge, c: Edge, result: Edge) {
        let op = op.word();
        let i = self.bucket(op, a, b, c);
        let fresh = Entry {
            op,
            a: a.to_bits(),
            b: b.to_bits(),
            c: c.to_bits(),
            result: result.to_bits(),
            generation: self.generation,
        };
        // Pick the victim way: a stale/empty slot if there is one,
        // otherwise demote way 0 into way 1 (dropping way 1, the colder
        // entry, as the eviction victim).
        for way in 0..2 {
            let e = self.entries[i + way];
            if e.generation != self.generation {
                self.entries[i + way] = fresh;
                self.occupied += 1;
                return;
            }
            if e.op == op && e.a == fresh.a && e.b == fresh.b && e.c == fresh.c {
                // Same key re-inserted (recomputed after eviction elsewhere).
                self.entries[i + way] = fresh;
                return;
            }
        }
        self.entries[i + 1] = self.entries[i];
        self.entries[i] = fresh;
        self.evictions += 1;
        self.epoch_evictions += 1;
    }

    /// Adaptive growth check, called by the manager between top-level
    /// operations. The table doubles when the current epoch shows both
    /// *pressure* (more evictions than the table has slots — the contents
    /// turned over at least once) and *reward* (hits worth at least a
    /// quarter of the capacity — cached results are actually reused, so a
    /// bigger table converts evictions into hits). Growth is bounded by
    /// `max_log2` and by `budget_entries`, which the manager ties to the
    /// node-store size so small workloads keep a small cache. Returns
    /// whether the table grew.
    #[inline]
    pub(crate) fn maybe_grow(&mut self, budget_entries: usize) -> bool {
        if self.epoch_evictions < self.capacity() as u64 {
            return false;
        }
        let rewarded = self.epoch_hits >= (self.capacity() as u64) / 4;
        let bounded = self.log2 < self.max_log2 && self.capacity() < budget_entries;
        // Either way the epoch ends here, so a burst of pressure from long
        // ago cannot trigger a growth much later without fresh reward.
        self.epoch_hits = 0;
        self.epoch_evictions = 0;
        if !(rewarded && bounded) {
            return false;
        }
        self.grow();
        true
    }

    /// Double the capacity, rehashing the current generation's entries.
    /// The generation counter is preserved so an in-flight sequence of
    /// `clear` calls keeps its O(1) semantics.
    fn grow(&mut self) {
        self.log2 += 1;
        let cap = 1usize << self.log2;
        let old = std::mem::replace(&mut self.entries, vec![DEAD; cap].into_boxed_slice());
        self.bucket_mask = (cap >> 1) - 1;
        self.occupied = 0;
        for e in old.iter() {
            if e.generation != self.generation {
                continue;
            }
            let i = (self.mix_key(e.op, e.a, e.b, e.c) & self.bucket_mask) << 1;
            for way in 0..2 {
                if self.entries[i + way].generation != self.generation {
                    self.entries[i + way] = *e;
                    self.occupied += 1;
                    break;
                }
            }
            // Both ways already live: drop the entry. With the bucket count
            // doubling this is rare and only costs a recomputation.
        }
        self.resizes += 1;
    }

    /// Drops every current-generation entry that references a reclaimed
    /// node (`is_live` is indexed by node slot) and keeps the rest. Live
    /// nodes keep stable slots across a mark–sweep collection, so the
    /// surviving entries are still exact — while any entry touching a
    /// freed slot must die before the slot is recycled for an unrelated
    /// node. Called by the garbage collector in place of a full clear,
    /// preserving cross-collection reuse.
    pub(crate) fn scrub_dead(&mut self, is_live: &dyn Fn(usize) -> bool) {
        let generation = self.generation;
        let mut occupied = 0usize;
        for e in self.entries.iter_mut() {
            if e.generation != generation {
                continue;
            }
            let live = |bits: u32| is_live((bits >> 1) as usize);
            if live(e.a) && live(e.b) && live(e.c) && live(e.result) {
                occupied += 1;
            } else {
                *e = DEAD;
            }
        }
        self.occupied = occupied;
    }

    /// O(1) flush: bump the generation so every entry becomes stale. On
    /// the (astronomically rare) u32 wrap the array is scrubbed once so
    /// ancient entries cannot resurrect.
    pub(crate) fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.entries.fill(DEAD);
            self.generation = 1;
        }
        self.occupied = 0;
    }

    /// Entries written in the current generation.
    pub(crate) fn len(&self) -> usize {
        self.occupied
    }

    /// Total entry capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of adaptive doublings performed so far.
    pub(crate) fn resizes(&self) -> u64 {
        self.resizes
    }

    pub(crate) fn class_hits(&self) -> [u64; OP_CLASS_COUNT] {
        self.class_hits
    }

    pub(crate) fn class_misses(&self) -> [u64; OP_CLASS_COUNT] {
        self.class_misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_clear() {
        let mut t = ComputedTable::new();
        assert_eq!(t.get(Op::Ite, Edge::ONE, Edge::ZERO, Edge::ONE), None);
        t.insert(Op::Ite, Edge::ONE, Edge::ZERO, Edge::ONE, Edge::ZERO);
        assert_eq!(
            t.get(Op::Ite, Edge::ONE, Edge::ZERO, Edge::ONE),
            Some(Edge::ZERO)
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
        t.clear();
        assert_eq!(t.len(), 0);
        assert_eq!(t.get(Op::Ite, Edge::ONE, Edge::ZERO, Edge::ONE), None);
    }

    #[test]
    fn ops_are_distinguished() {
        let mut t = ComputedTable::new();
        t.insert(Op::Ite, Edge::ONE, Edge::ONE, Edge::ONE, Edge::ZERO);
        assert_eq!(t.get(Op::Exists, Edge::ONE, Edge::ONE, Edge::ONE), None);
        assert_eq!(
            t.get(Op::Compose(1), Edge::ONE, Edge::ONE, Edge::ONE),
            None
        );
        t.insert(Op::Compose(1), Edge::ONE, Edge::ONE, Edge::ONE, Edge::ONE);
        assert_eq!(
            t.get(Op::Compose(2), Edge::ONE, Edge::ONE, Edge::ONE),
            None
        );
    }

    #[test]
    fn op_words_are_injective() {
        let words: Vec<u32> = [
            Op::Ite,
            Op::Exists,
            Op::Forall,
            Op::Constrain,
            Op::Restrict,
            Op::AndExists,
            Op::Agree,
            Op::Compose(0),
            Op::Compose(1),
            Op::Compose(1000),
        ]
        .iter()
        .map(|o| o.word())
        .collect();
        let mut dedup = words.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), words.len());
    }

    #[test]
    fn collisions_evict_but_stay_bounded() {
        // A tiny 4-entry cache: hammer it with distinct keys; capacity and
        // occupancy must stay bounded and evictions must be counted.
        let mut t = ComputedTable::with_log2_capacity(2);
        assert_eq!(t.capacity(), 4);
        for i in 0..100u32 {
            let a = Edge::from_bits(i);
            t.insert(Op::Ite, a, Edge::ONE, Edge::ZERO, a);
        }
        assert!(t.len() <= t.capacity());
        assert!(t.evictions() > 0);
        // Whatever survives must be exact.
        for i in 0..100u32 {
            let a = Edge::from_bits(i);
            if let Some(r) = t.get(Op::Ite, a, Edge::ONE, Edge::ZERO) {
                assert_eq!(r, a);
            }
        }
    }

    #[test]
    fn generation_clear_is_total() {
        let mut t = ComputedTable::with_log2_capacity(4);
        for i in 0..16u32 {
            t.insert(Op::Ite, Edge::from_bits(i), Edge::ONE, Edge::ZERO, Edge::ONE);
        }
        let occupied = t.len();
        assert!(occupied > 0);
        t.clear();
        for i in 0..16u32 {
            assert_eq!(t.get(Op::Ite, Edge::from_bits(i), Edge::ONE, Edge::ZERO), None);
        }
        // Entries from before the flush must not be resurrected by
        // re-inserting a subset.
        t.insert(Op::Ite, Edge::from_bits(3), Edge::ONE, Edge::ZERO, Edge::ZERO);
        assert_eq!(
            t.get(Op::Ite, Edge::from_bits(3), Edge::ONE, Edge::ZERO),
            Some(Edge::ZERO)
        );
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn way1_hit_promotes() {
        let mut t = ComputedTable::with_log2_capacity(1); // one bucket, 2 ways
        t.insert(Op::Ite, Edge::from_bits(10), Edge::ONE, Edge::ZERO, Edge::ONE);
        t.insert(Op::Ite, Edge::from_bits(20), Edge::ONE, Edge::ZERO, Edge::ZERO);
        // Entry 10 got demoted to way 1; hitting it must promote it back.
        assert_eq!(
            t.get(Op::Ite, Edge::from_bits(10), Edge::ONE, Edge::ZERO),
            Some(Edge::ONE)
        );
        // A third insert now evicts 20 (the cold one), not 10.
        t.insert(Op::Ite, Edge::from_bits(30), Edge::ONE, Edge::ZERO, Edge::ONE);
        assert_eq!(
            t.get(Op::Ite, Edge::from_bits(10), Edge::ONE, Edge::ZERO),
            Some(Edge::ONE)
        );
        assert_eq!(t.get(Op::Ite, Edge::from_bits(20), Edge::ONE, Edge::ZERO), None);
    }

    /// Drive a tiny table with a re-read working set until the growth
    /// conditions (pressure + reward) are met.
    fn hammer(t: &mut ComputedTable, keys: u32) {
        for _ in 0..64 {
            for i in 0..keys {
                let a = Edge::from_bits(i);
                if t.get(Op::Ite, a, Edge::ONE, Edge::ZERO).is_none() {
                    t.insert(Op::Ite, a, Edge::ONE, Edge::ZERO, a);
                    // Immediate re-read, like the diamond re-reads of a real
                    // recursion: supplies the hit reward for growth.
                    let _ = t.get(Op::Ite, a, Edge::ONE, Edge::ZERO);
                }
            }
        }
    }

    #[test]
    fn grows_under_pressure_and_preserves_entries() {
        let mut t = ComputedTable::with_log2_capacity(2);
        // Keep polling growth between batches, as the manager would.
        for _ in 0..32 {
            hammer(&mut t, 64);
            t.maybe_grow(1 << 20);
        }
        assert!(t.resizes() > 0, "sustained pressure must trigger growth");
        assert!(t.capacity() > 4);
        // Surviving entries must still resolve exactly after rehashing.
        for i in 0..64u32 {
            let a = Edge::from_bits(i);
            if let Some(r) = t.get(Op::Ite, a, Edge::ONE, Edge::ZERO) {
                assert_eq!(r, a);
            }
        }
    }

    #[test]
    fn growth_respects_budget_and_ceiling() {
        let mut t = ComputedTable::with_log2_capacity(2);
        for _ in 0..64 {
            hammer(&mut t, 256);
            // Budget of 4 entries: the table may never grow past it.
            t.maybe_grow(4);
        }
        assert_eq!(t.capacity(), 4);
        assert_eq!(t.resizes(), 0);

        // A pinned table (max_log2 == log2) never grows even with a huge
        // budget.
        let mut p = ComputedTable::with_log2_capacity(2);
        p.configure(2, 2);
        for _ in 0..64 {
            hammer(&mut p, 256);
            p.maybe_grow(1 << 20);
        }
        assert_eq!(p.capacity(), 4);
    }

    #[test]
    fn growth_preserves_generation_clear() {
        let mut t = ComputedTable::with_log2_capacity(2);
        for _ in 0..64 {
            hammer(&mut t, 64);
            t.maybe_grow(1 << 20);
        }
        assert!(t.resizes() > 0);
        t.clear();
        assert_eq!(t.len(), 0);
        for i in 0..64u32 {
            assert_eq!(t.get(Op::Ite, Edge::from_bits(i), Edge::ONE, Edge::ZERO), None);
        }
    }

    #[test]
    fn per_class_counters_track_ops() {
        let mut t = ComputedTable::new();
        t.insert(Op::Ite, Edge::ONE, Edge::ZERO, Edge::ONE, Edge::ZERO);
        let _ = t.get(Op::Ite, Edge::ONE, Edge::ZERO, Edge::ONE);
        let _ = t.get(Op::Constrain, Edge::ONE, Edge::ZERO, Edge::ONE);
        let hits = t.class_hits();
        let misses = t.class_misses();
        assert_eq!(hits[Op::Ite.class()], 1);
        assert_eq!(misses[Op::Constrain.class()], 1);
        assert_eq!(hits[Op::Compose(3).class()], 0);
        assert_eq!(t.hits(), hits.iter().sum::<u64>());
        assert_eq!(t.misses(), misses.iter().sum::<u64>());
    }
}
