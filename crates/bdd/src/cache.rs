//! Computed table: lossy memoisation of BDD operations.
//!
//! CUDD-style cache: a power-of-two array of 2-way buckets that
//! **overwrites on collision**. Losing an entry only costs a
//! re-computation — `ite` and friends re-derive the same canonical result —
//! so the cache may be lossy without affecting correctness. In exchange:
//!
//! * memory is bounded (no unbounded `HashMap` growth during ITE storms),
//! * there are no rehash pauses on the hot path,
//! * [`LossyTable::clear`] is O(1): a generation counter is bumped and
//!   stale entries die in place (the paper's between-heuristics cache flush
//!   becomes free).
//!
//! The bucket array, its generation clear and its sizing policy live in
//! [`LossyTable`], which the minimization memo (`crate::memo`) shares.
//! The capacity is **adaptive** and follows the demand of one flush
//! interval, the span between two `clear`s:
//!
//! * it doubles when the current generation has seen more evictions than
//!   the table has slots *and* enough hits to prove the cached results are
//!   being reused — bounded by a hard ceiling and by a memory budget the
//!   manager derives from the node-store size, so a tiny workload never
//!   pays for a big cache;
//! * at a flush it halves, or more, down to twice the inserts of the
//!   generation that just ended (and never below a floor), so a manager
//!   that flushes before every heuristic probes a table sized to one
//!   heuristic's work.
//!
//! The table keeps its allocation and probes only the active prefix, so a
//! shrink never allocates and a regrowth reuses the memory.
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
pub(crate) struct Entry {
    op: u32,
    a: u32,
    b: u32,
    c: u32,
    result: u32,
    generation: u32,
}

#[inline]
fn key_hash(op: u32, a: u32, b: u32, c: u32) -> usize {
    let k0 = ((op as u64) << 32) | a as u64;
    let k1 = ((b as u64) << 32) | c as u64;
    mix64(k0 ^ k1.rotate_left(23).wrapping_mul(0x9E37_79B9_7F4A_7C15)) as usize
}

// SAFETY: every field is a `u32`, so all zero bits is a valid `Entry`,
// and it is `DEAD`.
unsafe impl Slot for Entry {
    const DEAD: Entry = Entry {
        op: 0,
        a: 0,
        b: 0,
        c: 0,
        result: 0,
        generation: 0,
    };

    #[inline]
    fn generation(&self) -> u32 {
        self.generation
    }

    #[inline]
    fn key_hash(&self) -> usize {
        key_hash(self.op, self.a, self.b, self.c)
    }
}

/// Default starting cache capacity in entries (2-way buckets of two);
/// 2^16 entries = 1.5 MiB, resident in L2/L3 until the workload proves it
/// needs more.
pub(crate) const DEFAULT_LOG2_CAPACITY: u32 = 16;

/// Hard ceiling for adaptive growth of both lossy tables: 2^18 entries,
/// 6 MiB here and 8 MiB for the memo. Measured on an ITE storm (a random
/// `ite` stream with periodic GC, which never flushes), throughput was
/// flat from 2^16 to 2^18 and then fell off a cliff (0.68x at 2^20): once
/// the table outgrows the last-level cache, every probe is a DRAM
/// round-trip, and on GC-heavy workloads the extra capacity buys almost no
/// hits because most misses are compulsory (first touch within a GC
/// window). The ceiling therefore stops growth at the locality knee; the
/// manager's node-store budget binds first on small managers.
pub(crate) const MAX_LOG2_CAPACITY: u32 = 18;

/// Floor for the flush-time shrink of both lossy tables: 2^13 entries,
/// 192 KiB here and 256 KiB for the memo (or the start size, if smaller).
/// The paper pipeline flushes before every heuristic and one heuristic
/// run inserts about 7k–17k entries on `mult16b`; sized to that, both
/// tables stay within a 2 MiB L2 instead of growing to the ceiling across
/// flushes. Pinning both tables anywhere from 2^13 to 2^16 made that call
/// take 0.64–0.76x as long as at the ceiling, and floors from 2^12 to
/// 2^15 all landed at 0.61–0.69x.
pub(crate) const FLOOR_LOG2_CAPACITY: u32 = 13;

/// An entry of a [`LossyTable`].
///
/// # Safety
///
/// The all-zero bit pattern must be a valid value of the type, equal to
/// [`Slot::DEAD`]: a new table takes its dead slots from zeroed memory.
pub(crate) unsafe trait Slot: Copy {
    /// The empty slot, all zero bits. Its generation, 0, is never current.
    const DEAD: Self;
    /// The generation the entry was written in.
    fn generation(&self) -> u32;
    /// The hash whose low bits pick the entry's bucket.
    fn key_hash(&self) -> usize;
}

/// `n` dead slots in zeroed memory. Unlike writing `E::DEAD` to each
/// slot, this leaves large allocations to the operating system's lazily
/// mapped zero pages, so a slot costs resident memory only once a probe
/// touches it: a table that a flush shrinks before its first insert, as
/// the service's jobs do, stays at the floor's few pages.
fn dead_slots<E: Slot>(n: usize) -> Vec<E> {
    let zeroed = Box::<[E]>::new_zeroed_slice(n);
    // SAFETY: `Slot` requires all zero bits to be a valid `E` (`E::DEAD`),
    // and `new_zeroed_slice` zeroed every one of the `n` slots.
    unsafe { zeroed.assume_init() }.into_vec()
}

/// The storage and sizing policy shared by the computed table and the
/// minimization memo: a power-of-two array of 2-way buckets with
/// overwrite on collision, an O(1) generation clear, and a capacity that
/// follows the demand of one flush interval (see the module docs).
#[derive(Debug)]
pub(crate) struct LossyTable<E> {
    /// The allocation. Only the first `capacity()` slots are probed; the
    /// rest hold earlier generations' entries only, because the active
    /// prefix shrinks only at a flush.
    entries: Vec<E>,
    /// `bucket_count - 1` where `bucket_count = capacity / 2`.
    bucket_mask: usize,
    /// Entries written in an earlier generation are invisible. Starts at 1
    /// so the dead-filled array is empty.
    generation: u32,
    occupied: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// The active capacity is `2^log2`, kept within
    /// `floor_log2..=max_log2`.
    log2: u32,
    floor_log2: u32,
    max_log2: u32,
    /// Growth needs both eviction pressure and hit reward within one
    /// epoch; an epoch ends at every growth decision and at every flush.
    epoch_hits: u64,
    epoch_evictions: u64,
    /// Inserts of the current generation: the demand a flush sizes the
    /// next generation's table by.
    inserts: u64,
    resizes: u64,
    shrinks: u64,
}

impl<E: Slot> LossyTable<E> {
    /// A table of `2^log2` slots (minimum 2) that may grow to the ceiling
    /// (or `log2` itself if that is larger) and shrink to the floor (or
    /// `log2` itself if that is smaller).
    pub(crate) fn new(log2: u32) -> Self {
        LossyTable::on_storage(Vec::new(), 1, log2)
    }

    /// An empty table in the state of [`LossyTable::new`]`(log2)`, built
    /// on this table's allocation, which it takes: `self` is left without
    /// storage and must only be dropped. The generation moves past the
    /// old one, so every entry the allocation holds is stale: lookups miss
    /// it and inserts take its slot as empty, exactly as on a dead-filled
    /// array. On a u32 wrap the allocation is scrubbed instead. Sizing and
    /// counters are a fresh table's.
    pub(crate) fn recycled(&mut self, log2: u32) -> Self {
        let mut entries = std::mem::take(&mut self.entries);
        let mut generation = self.generation.wrapping_add(1);
        if generation == 0 {
            entries.fill(E::DEAD);
            generation = 1;
        }
        LossyTable::on_storage(entries, generation, log2)
    }

    /// A fresh table of `2^log2` slots (minimum 2) on `entries`, extended
    /// with dead slots to that capacity; every entry of `entries` must be
    /// older than `generation`.
    fn on_storage(mut entries: Vec<E>, generation: u32, log2: u32) -> Self {
        let log2 = log2.max(1);
        if entries.is_empty() {
            entries = dead_slots(1 << log2);
        } else if entries.len() < 1 << log2 {
            entries.resize(1 << log2, E::DEAD);
        }
        LossyTable {
            entries,
            bucket_mask: (1 << (log2 - 1)) - 1,
            generation,
            occupied: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            log2,
            floor_log2: FLOOR_LOG2_CAPACITY.min(log2),
            max_log2: MAX_LOG2_CAPACITY.max(log2),
            epoch_hits: 0,
            epoch_evictions: 0,
            inserts: 0,
            resizes: 0,
            shrinks: 0,
        }
    }

    /// Reset to an empty table of `2^log2` slots that may adaptively grow
    /// up to `2^max_log2`. Setting `max_log2 == log2` pins the capacity:
    /// the table then neither grows nor shrinks (used by the cache-size
    /// invariance tests). Counters and resize history are preserved; the
    /// contents are dropped.
    pub(crate) fn configure(&mut self, log2: u32, max_log2: u32) {
        let fresh = LossyTable::new(log2);
        let pinned = max_log2 <= fresh.log2;
        *self = LossyTable {
            max_log2: max_log2.max(fresh.log2),
            floor_log2: if pinned { fresh.log2 } else { fresh.floor_log2 },
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            resizes: self.resizes,
            shrinks: self.shrinks,
            ..fresh
        };
    }

    /// The generation new entries must be stamped with.
    #[inline]
    pub(crate) fn generation(&self) -> u32 {
        self.generation
    }

    /// Finds the current-generation entry in `hash`'s bucket for which
    /// `is_key` holds, counting the hit or miss.
    #[inline(always)]
    pub(crate) fn find(&mut self, hash: usize, is_key: impl Fn(&E) -> bool) -> Option<E> {
        let i = (hash & self.bucket_mask) << 1;
        for way in 0..2 {
            let e = self.entries[i + way];
            if e.generation() == self.generation && is_key(&e) {
                self.hits += 1;
                self.epoch_hits += 1;
                if way == 1 {
                    // Promote to the primary way so the hot entry survives
                    // the next collision in this bucket.
                    self.entries.swap(i, i + 1);
                }
                return Some(e);
            }
        }
        self.misses += 1;
        None
    }

    /// Stores `fresh`, stamped with the current generation, in `hash`'s
    /// bucket; `is_key` recognises an entry with the same key.
    #[inline(always)]
    pub(crate) fn insert(&mut self, hash: usize, fresh: E, is_key: impl Fn(&E) -> bool) {
        let i = (hash & self.bucket_mask) << 1;
        self.inserts += 1;
        // Pick the victim way: a stale/empty slot if there is one,
        // otherwise demote way 0 into way 1 (dropping way 1, the colder
        // entry, as the eviction victim).
        for way in 0..2 {
            let e = self.entries[i + way];
            if e.generation() != self.generation {
                self.entries[i + way] = fresh;
                self.occupied += 1;
                return;
            }
            if is_key(&e) {
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

    /// Double the active capacity, in place. Old bucket `b` splits into
    /// new buckets `b` and `b + n` (`n` the old bucket count), so each
    /// current-generation entry either stays or moves to the second half,
    /// keeping its way order: no entry is dropped and nothing is copied
    /// aside. The second half holds only stale entries (see `entries`),
    /// so it may be overwritten; the allocation is extended only when it
    /// is smaller than the new capacity. The generation is preserved, so
    /// the O(1) clear keeps working.
    fn grow(&mut self) {
        let n = self.capacity() >> 1;
        self.log2 += 1;
        let cap = self.capacity();
        if self.entries.len() < cap {
            self.entries.reserve_exact(cap - self.entries.len());
            self.entries.resize(cap, E::DEAD);
        }
        self.bucket_mask = (cap >> 1) - 1;
        for b in 0..n {
            let (lo, hi) = (b << 1, (b + n) << 1);
            let pair = [self.entries[lo], self.entries[lo + 1]];
            let (mut kept, mut moved) = (0, 0);
            for e in pair {
                if e.generation() != self.generation {
                    continue;
                }
                if e.key_hash() & self.bucket_mask == b {
                    self.entries[lo + kept] = e;
                    kept += 1;
                } else {
                    self.entries[hi + moved] = e;
                    moved += 1;
                }
            }
            self.entries[lo + kept..lo + 2].fill(E::DEAD);
        }
        self.resizes += 1;
    }

    /// Drops every current-generation entry for which `keep` fails and
    /// keeps the rest; only the active prefix can hold such entries.
    pub(crate) fn scrub(&mut self, keep: impl Fn(&E) -> bool) {
        let (generation, cap) = (self.generation, self.capacity());
        let mut occupied = 0usize;
        for e in self.entries[..cap].iter_mut() {
            if e.generation() != generation {
                continue;
            }
            if keep(e) {
                occupied += 1;
            } else {
                *e = E::DEAD;
            }
        }
        self.occupied = occupied;
    }

    /// O(1) flush: bump the generation so every entry becomes stale. On
    /// the (astronomically rare) u32 wrap the whole allocation is scrubbed
    /// once so ancient entries cannot resurrect.
    ///
    /// A flush also ends the growth epoch and sizes the table to the
    /// generation that just ended: the capacity becomes
    /// `max(floor, next_pow2(2 × inserts))` when that is at most half the
    /// current one. Every entry is stale now, so shrinking is only a new
    /// bucket mask.
    pub(crate) fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.entries.fill(E::DEAD);
            self.generation = 1;
        }
        self.occupied = 0;
        let demand = (2 * self.inserts.min(1 << 40)).next_power_of_two();
        let log2 = demand.trailing_zeros().max(self.floor_log2);
        if log2 < self.log2 {
            self.log2 = log2;
            self.bucket_mask = (1 << (log2 - 1)) - 1;
            self.shrinks += 1;
        }
        self.epoch_hits = 0;
        self.epoch_evictions = 0;
        self.inserts = 0;
    }

    /// Entries written in the current generation.
    pub(crate) fn len(&self) -> usize {
        self.occupied
    }

    /// Active entry capacity.
    pub(crate) fn capacity(&self) -> usize {
        1 << self.log2
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

    /// Number of flush-time shrinks performed so far.
    pub(crate) fn shrinks(&self) -> u64 {
        self.shrinks
    }

    /// Slots allocated, active or not.
    #[cfg(test)]
    pub(crate) fn allocated(&self) -> usize {
        self.entries.len()
    }
}

/// The lossy computed table.
#[derive(Debug)]
pub(crate) struct ComputedTable {
    /// Storage, sizing and the aggregate counters; the manager flushes,
    /// grows, configures and reads statistics through it.
    pub(crate) table: LossyTable<Entry>,
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

    /// A cache with `2^log2` entry slots (minimum 2); see [`LossyTable::new`].
    pub(crate) fn with_log2_capacity(log2: u32) -> Self {
        ComputedTable::on_table(LossyTable::new(log2))
    }

    /// A table in the state of [`ComputedTable::new`] on this one's
    /// allocation; see [`LossyTable::recycled`].
    pub(crate) fn recycled(&mut self) -> Self {
        ComputedTable::on_table(self.table.recycled(DEFAULT_LOG2_CAPACITY))
    }

    fn on_table(table: LossyTable<Entry>) -> Self {
        ComputedTable {
            table,
            class_hits: [0; OP_CLASS_COUNT],
            class_misses: [0; OP_CLASS_COUNT],
        }
    }

    #[inline]
    pub(crate) fn get(&mut self, op: Op, a: Edge, b: Edge, c: Edge) -> Option<Edge> {
        let class = op.class();
        let op = op.word();
        let (a, b, c) = (a.to_bits(), b.to_bits(), c.to_bits());
        let found = self.table.find(key_hash(op, a, b, c), |e| {
            e.op == op && e.a == a && e.b == b && e.c == c
        });
        match found {
            Some(e) => {
                self.class_hits[class] += 1;
                Some(Edge::from_bits(e.result))
            }
            None => {
                self.class_misses[class] += 1;
                None
            }
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, op: Op, a: Edge, b: Edge, c: Edge, result: Edge) {
        let fresh = Entry {
            op: op.word(),
            a: a.to_bits(),
            b: b.to_bits(),
            c: c.to_bits(),
            result: result.to_bits(),
            generation: self.table.generation(),
        };
        self.table.insert(fresh.key_hash(), fresh, |e| {
            e.op == fresh.op && e.a == fresh.a && e.b == fresh.b && e.c == fresh.c
        });
    }

    /// Drops every current-generation entry that references a reclaimed
    /// node (`is_live` is indexed by node slot) and keeps the rest. Live
    /// nodes keep stable slots across a mark–sweep collection, so the
    /// surviving entries are still exact — while any entry touching a
    /// freed slot must die before the slot is recycled for an unrelated
    /// node. Called by the garbage collector in place of a full clear,
    /// preserving cross-collection reuse.
    pub(crate) fn scrub_dead(&mut self, is_live: &dyn Fn(usize) -> bool) {
        let live = |bits: u32| is_live((bits >> 1) as usize);
        self.table
            .scrub(|e| live(e.a) && live(e.b) && live(e.c) && live(e.result));
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
        assert_eq!(t.table.len(), 1);
        assert_eq!(t.table.hits(), 1);
        assert_eq!(t.table.misses(), 1);
        t.table.clear();
        assert_eq!(t.table.len(), 0);
        assert_eq!(t.get(Op::Ite, Edge::ONE, Edge::ZERO, Edge::ONE), None);
    }

    #[test]
    fn ops_are_distinguished() {
        let mut t = ComputedTable::new();
        t.insert(Op::Ite, Edge::ONE, Edge::ONE, Edge::ONE, Edge::ZERO);
        assert_eq!(t.get(Op::Exists, Edge::ONE, Edge::ONE, Edge::ONE), None);
        assert_eq!(t.get(Op::Compose(1), Edge::ONE, Edge::ONE, Edge::ONE), None);
        t.insert(Op::Compose(1), Edge::ONE, Edge::ONE, Edge::ONE, Edge::ONE);
        assert_eq!(t.get(Op::Compose(2), Edge::ONE, Edge::ONE, Edge::ONE), None);
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
        assert_eq!(t.table.capacity(), 4);
        for i in 0..100u32 {
            let a = Edge::from_bits(i);
            t.insert(Op::Ite, a, Edge::ONE, Edge::ZERO, a);
        }
        assert!(t.table.len() <= t.table.capacity());
        assert!(t.table.evictions() > 0);
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
            t.insert(
                Op::Ite,
                Edge::from_bits(i),
                Edge::ONE,
                Edge::ZERO,
                Edge::ONE,
            );
        }
        let occupied = t.table.len();
        assert!(occupied > 0);
        t.table.clear();
        for i in 0..16u32 {
            assert_eq!(
                t.get(Op::Ite, Edge::from_bits(i), Edge::ONE, Edge::ZERO),
                None
            );
        }
        // Entries from before the flush must not be resurrected by
        // re-inserting a subset.
        t.insert(
            Op::Ite,
            Edge::from_bits(3),
            Edge::ONE,
            Edge::ZERO,
            Edge::ZERO,
        );
        assert_eq!(
            t.get(Op::Ite, Edge::from_bits(3), Edge::ONE, Edge::ZERO),
            Some(Edge::ZERO)
        );
        assert_eq!(t.table.len(), 1);
    }

    #[test]
    fn way1_hit_promotes() {
        let mut t = ComputedTable::with_log2_capacity(1); // one bucket, 2 ways
        t.insert(
            Op::Ite,
            Edge::from_bits(10),
            Edge::ONE,
            Edge::ZERO,
            Edge::ONE,
        );
        t.insert(
            Op::Ite,
            Edge::from_bits(20),
            Edge::ONE,
            Edge::ZERO,
            Edge::ZERO,
        );
        // Entry 10 got demoted to way 1; hitting it must promote it back.
        assert_eq!(
            t.get(Op::Ite, Edge::from_bits(10), Edge::ONE, Edge::ZERO),
            Some(Edge::ONE)
        );
        // A third insert now evicts 20 (the cold one), not 10.
        t.insert(
            Op::Ite,
            Edge::from_bits(30),
            Edge::ONE,
            Edge::ZERO,
            Edge::ONE,
        );
        assert_eq!(
            t.get(Op::Ite, Edge::from_bits(10), Edge::ONE, Edge::ZERO),
            Some(Edge::ONE)
        );
        assert_eq!(
            t.get(Op::Ite, Edge::from_bits(20), Edge::ONE, Edge::ZERO),
            None
        );
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
            t.table.maybe_grow(1 << 20);
        }
        assert!(
            t.table.resizes() > 0,
            "sustained pressure must trigger growth"
        );
        assert!(t.table.capacity() > 4);
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
            t.table.maybe_grow(4);
        }
        assert_eq!(t.table.capacity(), 4);
        assert_eq!(t.table.resizes(), 0);

        // A pinned table (max_log2 == log2) never grows even with a huge
        // budget.
        let mut p = ComputedTable::with_log2_capacity(2);
        p.table.configure(2, 2);
        for _ in 0..64 {
            hammer(&mut p, 256);
            p.table.maybe_grow(1 << 20);
        }
        assert_eq!(p.table.capacity(), 4);
    }

    #[test]
    fn growth_preserves_generation_clear() {
        let mut t = ComputedTable::with_log2_capacity(2);
        for _ in 0..64 {
            hammer(&mut t, 64);
            t.table.maybe_grow(1 << 20);
        }
        assert!(t.table.resizes() > 0);
        t.table.clear();
        assert_eq!(t.table.len(), 0);
        for i in 0..64u32 {
            assert_eq!(
                t.get(Op::Ite, Edge::from_bits(i), Edge::ONE, Edge::ZERO),
                None
            );
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
        assert_eq!(t.table.hits(), hits.iter().sum::<u64>());
        assert_eq!(t.table.misses(), misses.iter().sum::<u64>());
    }

    /// Inserts `n` distinct keys of class `op`, each re-read once.
    fn fill(t: &mut ComputedTable, op: Op, n: u32) {
        for i in 0..n {
            let a = Edge::from_bits(i);
            t.insert(op, a, Edge::ONE, Edge::ZERO, a);
            let _ = t.get(op, a, Edge::ONE, Edge::ZERO);
        }
    }

    #[test]
    fn flush_shrinks_to_the_generation_demand_and_not_below_the_floor() {
        let mut t = ComputedTable::new();
        assert_eq!(t.table.capacity(), 1 << DEFAULT_LOG2_CAPACITY);
        // 10,000 inserts: next_pow2(20,000) = 2^15, half the start size.
        fill(&mut t, Op::Ite, 10_000);
        t.table.clear();
        assert_eq!(t.table.capacity(), 1 << 15);
        // 20,000 inserts ask for 2^16, more than half of 2^15: no shrink.
        fill(&mut t, Op::Ite, 20_000);
        t.table.clear();
        assert_eq!(t.table.capacity(), 1 << 15);
        // 1,000 inserts ask for 2^11, below the floor.
        fill(&mut t, Op::Ite, 1_000);
        t.table.clear();
        assert_eq!(t.table.capacity(), 1 << FLOOR_LOG2_CAPACITY);
        t.table.clear();
        assert_eq!(t.table.capacity(), 1 << FLOOR_LOG2_CAPACITY);
        assert_eq!((t.table.shrinks(), t.table.resizes()), (2, 0));
        // A table that starts below the floor keeps its start size.
        let mut small = ComputedTable::with_log2_capacity(4);
        small.table.clear();
        assert_eq!(small.table.capacity(), 16);
    }

    #[test]
    fn pinned_table_neither_shrinks_nor_grows() {
        let mut t = ComputedTable::new();
        t.table.configure(16, 16);
        for _ in 0..4 {
            t.table.clear();
            assert_eq!(t.table.capacity(), 1 << 16);
        }
        let mut p = ComputedTable::new();
        p.table.configure(4, 4);
        for _ in 0..64 {
            hammer(&mut p, 256);
            p.table.maybe_grow(1 << 20);
            p.table.clear();
        }
        assert_eq!(p.table.capacity(), 16);
        assert_eq!((p.table.shrinks(), p.table.resizes()), (0, 0));
    }

    #[test]
    fn growth_needs_pressure_within_one_generation() {
        // One bucket of two ways: a third key evicts exactly once, short
        // of the two evictions that prove pressure.
        let mut spread = ComputedTable::with_log2_capacity(1);
        for _ in 0..64 {
            fill(&mut spread, Op::Ite, 3);
            spread.table.maybe_grow(1 << 20);
            spread.table.clear();
        }
        assert_eq!(spread.table.evictions(), 64);
        assert_eq!((spread.table.capacity(), spread.table.resizes()), (2, 0));
        // The same two evictions within one generation do grow it.
        let mut burst = ComputedTable::with_log2_capacity(1);
        fill(&mut burst, Op::Ite, 4);
        assert!(burst.table.maybe_grow(1 << 20));
        assert_eq!(burst.table.capacity(), 4);
    }

    #[test]
    fn growth_after_a_shrink_reuses_the_allocation_and_keeps_entries() {
        let mut t = ComputedTable::new();
        // Stale entries of an older generation fill the whole allocation.
        fill(&mut t, Op::Exists, 1 << 16);
        t.table.clear();
        t.table.clear();
        assert_eq!(t.table.capacity(), 1 << FLOOR_LOG2_CAPACITY);
        fill(&mut t, Op::Ite, 20_000);
        let kept: Vec<u32> = (0..20_000)
            .filter(|&i| {
                let a = Edge::from_bits(i);
                t.get(Op::Ite, a, Edge::ONE, Edge::ZERO)
                    .inspect(|&r| assert_eq!(r, a))
                    .is_some()
            })
            .collect();
        assert_eq!(kept.len(), t.table.len());
        assert!(t.table.maybe_grow(1 << 20));
        assert_eq!(t.table.capacity(), 1 << (FLOOR_LOG2_CAPACITY + 1));
        assert_eq!(t.table.allocated(), 1 << 16, "the allocation is reused");
        assert_eq!(t.table.len(), kept.len());
        for &i in &kept {
            let a = Edge::from_bits(i);
            assert_eq!(t.get(Op::Ite, a, Edge::ONE, Edge::ZERO), Some(a));
        }
        // The older generation's entries in the re-exposed half stay dead.
        for i in 0..1u32 << 16 {
            let a = Edge::from_bits(i);
            assert_eq!(t.get(Op::Exists, a, Edge::ONE, Edge::ZERO), None);
        }
    }

    /// Every sizing field and counter of `t`: all but the allocation and
    /// the generation.
    fn sizing<E>(t: &LossyTable<E>) -> [u64; 13] {
        [
            t.bucket_mask as u64,
            t.occupied as u64,
            t.hits,
            t.misses,
            t.evictions,
            t.log2 as u64,
            t.floor_log2 as u64,
            t.max_log2 as u64,
            t.epoch_hits,
            t.epoch_evictions,
            t.inserts,
            t.resizes,
            t.shrinks,
        ]
    }

    /// Drives `t` through seeded flush intervals of different working-set
    /// sizes, with re-reads, growth checks and a flush after each,
    /// returning every lookup's answer.
    fn drive(t: &mut ComputedTable, seed: u64) -> Vec<Option<Edge>> {
        let mut answers = Vec::new();
        for interval in 0..6u64 {
            let keys = [500, 150_000, 4_000, 60_000][(mix64(seed ^ interval) % 4) as usize];
            for i in 0..40_000u64 {
                let a = Edge::from_bits((mix64(seed << 32 ^ interval << 20 ^ i) % keys) as u32);
                let found = t.get(Op::Ite, a, Edge::ONE, Edge::ZERO);
                if found.is_none() {
                    t.insert(Op::Ite, a, Edge::ONE, Edge::ZERO, a);
                    answers.push(t.get(Op::Ite, a, Edge::ONE, Edge::ZERO));
                }
                answers.push(found);
                if i % 256 == 255 {
                    t.table.maybe_grow(1 << 20);
                }
            }
            t.table.clear();
        }
        answers
    }

    /// Zeroed memory reads as `E::DEAD` in every slot.
    fn all_dead<E: Slot + std::fmt::Debug>() -> bool {
        let t = LossyTable::<E>::new(4);
        let dead = format!("{:?}", E::DEAD);
        t.allocated() == 16 && t.entries.iter().all(|e| format!("{e:?}") == dead)
    }

    #[test]
    fn a_new_table_is_dead_slots() {
        assert!(all_dead::<Entry>());
        assert!(all_dead::<crate::memo::MemoEntry>());
    }

    #[test]
    fn a_recycled_table_behaves_as_a_fresh_one() {
        // An old table larger than a fresh one, holding entries of several
        // generations, some in slots past the fresh capacity.
        let mut old = ComputedTable::with_log2_capacity(DEFAULT_LOG2_CAPACITY + 1);
        fill(&mut old, Op::Exists, 1 << 17);
        old.table.clear();
        fill(&mut old, Op::Ite, 1 << 12);
        let allocated = old.table.allocated();
        let old_generation = old.table.generation();
        let mut recycled = old.recycled();
        assert_eq!(
            recycled.table.allocated(),
            allocated,
            "the allocation is kept"
        );
        assert!(recycled.table.generation() > old_generation);
        let mut fresh = ComputedTable::new();
        assert_eq!(sizing(&recycled.table), sizing(&fresh.table));
        assert_eq!(recycled.class_hits(), [0; OP_CLASS_COUNT]);
        assert_eq!(recycled.class_misses(), [0; OP_CLASS_COUNT]);
        // Old entries are invisible, and the two tables answer, evict,
        // grow and shrink alike from here on.
        for seed in 1..4 {
            assert_eq!(drive(&mut recycled, seed), drive(&mut fresh, seed));
            assert_eq!(sizing(&recycled.table), sizing(&fresh.table));
            assert_eq!(recycled.class_hits(), fresh.class_hits());
        }
        assert!(fresh.table.resizes() > 0 && fresh.table.shrinks() > 0);
    }

    #[test]
    fn old_entries_stay_invisible_and_their_slots_count_as_empty() {
        // One bucket, both ways live.
        let mut old = ComputedTable::with_log2_capacity(1);
        fill(&mut old, Op::Ite, 2);
        assert_eq!(old.table.len(), 2);
        let mut t = ComputedTable::on_table(old.table.recycled(1));
        for i in 0..2 {
            let a = Edge::from_bits(i);
            assert_eq!(t.get(Op::Ite, a, Edge::ONE, Edge::ZERO), None);
        }
        // Two new keys take both ways without an eviction.
        fill(&mut t, Op::Exists, 2);
        assert_eq!((t.table.len(), t.table.evictions()), (2, 0));
        // A pinned table recycles into a fresh table's sizing.
        t.table.configure(1, 1);
        let r = t.recycled();
        assert_eq!(sizing(&r.table), sizing(&ComputedTable::new().table));
    }

    #[test]
    fn recycling_at_the_last_generation_scrubs_on_wrap() {
        let mut t = ComputedTable::with_log2_capacity(4);
        t.table.generation = u32::MAX;
        fill(&mut t, Op::Ite, 8);
        assert!(t.table.len() > 0);
        let mut r = t.recycled();
        assert_eq!(r.table.generation(), 1);
        assert!(r.table.entries.iter().all(|e| e.generation == 0));
        assert_eq!(sizing(&r.table), sizing(&ComputedTable::new().table));
        for i in 0..8 {
            let a = Edge::from_bits(i);
            assert_eq!(r.get(Op::Ite, a, Edge::ONE, Edge::ZERO), None);
        }
    }
}
