//! Manager-owned minimization memo: lossy memoisation for the don't-care
//! minimization recursions that live *above* the kernel (sibling matching,
//! windowed passes, below-level substitution).
//!
//! The paper's discipline of flushing caches between heuristics (§4.1.1)
//! previously meant every heuristic invocation allocated a fresh SipHash
//! `HashMap<(Edge, Edge), _>` and dropped it on return. This table replaces
//! those per-invocation maps with a single generation-cleared structure
//! owned by the manager, so the flush is a free generation bump and the
//! storage is reused across calls.
//!
//! Keys are `(tag, a, b)` where `tag` is a caller-chosen 64-bit word that
//! encodes the operation class plus whatever configuration the result
//! depends on (match criterion flags, window bounds, or a per-invocation
//! salt from [`MinMemo::next_salt`] when the result depends on
//! call-local state). Tags are compared for equality — not merely hashed —
//! so callers only need their encoding to be injective. Values are a pair
//! of edges; single-edge results store the edge twice.
//!
//! The storage and sizing are the computed table's
//! ([`LossyTable`](crate::cache::LossyTable)): power-of-two array of 2-way
//! buckets, overwrite on collision, O(1) generation clear, doubling under
//! eviction pressure bounded by the manager's node-store budget, and a
//! flush-time shrink to the demand of the generation that ended.
//! Lossiness is safe for the same reason: every memoised recursion is a
//! deterministic function of its key, so a lost entry only costs
//! recomputation.

use crate::cache::{LossyTable, Slot};
use crate::edge::Edge;
use crate::util::mix64;

/// One memo entry: 64-bit tag, the `(a, b)` edge pair, the result pair,
/// and the generation it was written in. 32 bytes, two per bucket.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MemoEntry {
    tag: u64,
    a: u32,
    b: u32,
    r0: u32,
    r1: u32,
    generation: u32,
    /// Padding to 32 bytes; never read.
    _pad: u32,
}

#[inline]
fn key_hash(tag: u64, a: u32, b: u32) -> usize {
    let ab = ((a as u64) << 32) | b as u64;
    mix64(tag ^ ab.rotate_left(17).wrapping_mul(0x9E37_79B9_7F4A_7C15)) as usize
}

// SAFETY: every field is an integer, so all zero bits is a valid
// `MemoEntry`, and it is `DEAD`.
unsafe impl Slot for MemoEntry {
    const DEAD: MemoEntry = MemoEntry {
        tag: 0,
        a: 0,
        b: 0,
        r0: 0,
        r1: 0,
        generation: 0,
        _pad: 0,
    };

    #[inline]
    fn generation(&self) -> u32 {
        self.generation
    }

    #[inline]
    fn key_hash(&self) -> usize {
        key_hash(self.tag, self.a, self.b)
    }
}

/// Default starting capacity: 2^15 entries = 1 MiB. It grows to the
/// shared ceiling (`crate::cache::MAX_LOG2_CAPACITY`, 8 MiB here) and
/// shrinks at a flush to the shared floor
/// (`crate::cache::FLOOR_LOG2_CAPACITY`, 256 KiB here), like the computed
/// table.
pub(crate) const DEFAULT_LOG2_CAPACITY: u32 = 15;

/// The lossy minimization memo table.
#[derive(Debug)]
pub(crate) struct MinMemo {
    /// Storage, sizing and counters, shared with the computed table.
    pub(crate) table: LossyTable<MemoEntry>,
    /// Monotone counter backing [`MinMemo::next_salt`].
    salt: u32,
}

impl Default for MinMemo {
    fn default() -> Self {
        MinMemo::with_log2_capacity(DEFAULT_LOG2_CAPACITY)
    }
}

impl MinMemo {
    pub(crate) fn with_log2_capacity(log2: u32) -> Self {
        MinMemo {
            table: LossyTable::new(log2),
            salt: 0,
        }
    }

    /// A memo in the state of [`MinMemo::default`] on this one's
    /// allocation, its salt restarted; see [`LossyTable::recycled`].
    pub(crate) fn recycled(&mut self) -> Self {
        MinMemo {
            table: self.table.recycled(DEFAULT_LOG2_CAPACITY),
            salt: 0,
        }
    }

    /// A fresh salt for per-invocation key spaces. Never returns the same
    /// value twice within a generation span short of 2^32 invocations, at
    /// which point the periodic generation flushes have long since retired
    /// any entry an aliasing salt could collide with.
    pub(crate) fn next_salt(&mut self) -> u32 {
        self.salt = self.salt.wrapping_add(1);
        self.salt
    }

    // `always`, here and in `LossyTable::{find, insert}`: the probe and
    // the store run in every frame of core's sibling recursion, whose two
    // instantiations share a codegen unit, and there plain `#[inline]` left
    // them out of line (`const` ran about 10% slower in Table 3).
    #[inline(always)]
    pub(crate) fn get(&mut self, tag: u64, a: Edge, b: Edge) -> Option<(Edge, Edge)> {
        let (a, b) = (a.to_bits(), b.to_bits());
        self.table
            .find(key_hash(tag, a, b), |e| {
                e.tag == tag && e.a == a && e.b == b
            })
            .map(|e| (Edge::from_bits(e.r0), Edge::from_bits(e.r1)))
    }

    #[inline(always)]
    pub(crate) fn insert(&mut self, tag: u64, a: Edge, b: Edge, result: (Edge, Edge)) {
        let fresh = MemoEntry {
            tag,
            a: a.to_bits(),
            b: b.to_bits(),
            r0: result.0.to_bits(),
            r1: result.1.to_bits(),
            generation: self.table.generation(),
            _pad: 0,
        };
        self.table.insert(fresh.key_hash(), fresh, |e| {
            e.tag == tag && e.a == fresh.a && e.b == fresh.b
        });
    }

    /// Drops current-generation entries referencing reclaimed nodes and
    /// keeps the rest (see `ComputedTable::scrub_dead`): live slots are
    /// stable across a collection, so surviving entries stay exact, and
    /// the matchers keep their memoised traversals across GCs.
    pub(crate) fn scrub_dead(&mut self, is_live: &dyn Fn(usize) -> bool) {
        let live = |bits: u32| is_live((bits >> 1) as usize);
        self.table
            .scrub(|e| live(e.a) && live(e.b) && live(e.r0) && live(e.r1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::FLOOR_LOG2_CAPACITY;

    fn e(i: u32) -> Edge {
        Edge::from_bits(i)
    }

    #[test]
    fn insert_get_clear() {
        let mut m = MinMemo::default();
        assert_eq!(m.get(7, e(2), e(4)), None);
        m.insert(7, e(2), e(4), (e(6), e(8)));
        assert_eq!(m.get(7, e(2), e(4)), Some((e(6), e(8))));
        assert_eq!(m.table.len(), 1);
        m.table.clear();
        assert_eq!(m.get(7, e(2), e(4)), None);
        assert_eq!(m.table.len(), 0);
    }

    #[test]
    fn tags_are_compared_exactly() {
        let mut m = MinMemo::default();
        m.insert(1 << 61, e(2), e(4), (e(6), e(6)));
        assert_eq!(m.get(2 << 61, e(2), e(4)), None);
        assert_eq!(m.get((1 << 61) | 1, e(2), e(4)), None);
        assert_eq!(m.get(1 << 61, e(2), e(4)), Some((e(6), e(6))));
    }

    #[test]
    fn salts_are_distinct() {
        let mut m = MinMemo::default();
        let s1 = m.next_salt();
        let s2 = m.next_salt();
        assert_ne!(s1, s2);
    }

    #[test]
    fn tiny_capacity_stays_bounded_and_exact() {
        let mut m = MinMemo::with_log2_capacity(2);
        for i in 0..200u32 {
            m.insert(3, e(i), e(i + 1), (e(i), e(i)));
        }
        assert!(m.table.len() <= m.table.capacity());
        assert!(m.table.evictions() > 0);
        for i in 0..200u32 {
            if let Some(r) = m.get(3, e(i), e(i + 1)) {
                assert_eq!(r, (e(i), e(i)));
            }
        }
    }

    #[test]
    fn grows_under_pressure() {
        let mut m = MinMemo::with_log2_capacity(2);
        for _ in 0..64 {
            for i in 0..64u32 {
                if m.get(5, e(i), e(i)).is_none() {
                    m.insert(5, e(i), e(i), (e(i), e(i)));
                    let _ = m.get(5, e(i), e(i));
                }
            }
            m.table.maybe_grow(1 << 20);
        }
        assert!(m.table.resizes() > 0);
        assert!(m.table.capacity() > 4);

        // Pinned configuration never grows.
        let mut p = MinMemo::with_log2_capacity(2);
        p.table.configure(2, 2);
        for _ in 0..64 {
            for i in 0..64u32 {
                if p.get(5, e(i), e(i)).is_none() {
                    p.insert(5, e(i), e(i), (e(i), e(i)));
                    let _ = p.get(5, e(i), e(i));
                }
            }
            p.table.maybe_grow(1 << 20);
        }
        assert_eq!(p.table.capacity(), 4);
    }

    /// Inserts `n` distinct result entries under `tag`, each re-read once.
    fn fill(m: &mut MinMemo, tag: u64, n: u32) {
        for i in 0..n {
            m.insert(tag, e(i), e(i), (e(i), e(i)));
            let _ = m.get(tag, e(i), e(i));
        }
    }

    #[test]
    fn flush_shrinks_to_the_generation_demand_and_not_below_the_floor() {
        let mut m = MinMemo::default();
        assert_eq!(m.table.capacity(), 1 << DEFAULT_LOG2_CAPACITY);
        // 5,000 inserts: next_pow2(10,000) = 2^14, half the start size.
        fill(&mut m, 5, 5_000);
        m.table.clear();
        assert_eq!(m.table.capacity(), 1 << 14);
        m.table.clear();
        assert_eq!(m.table.capacity(), 1 << FLOOR_LOG2_CAPACITY);
        m.table.clear();
        assert_eq!(m.table.capacity(), 1 << FLOOR_LOG2_CAPACITY);
        assert_eq!((m.table.shrinks(), m.table.resizes()), (2, 0));
    }

    #[test]
    fn pinned_memo_neither_shrinks_nor_grows() {
        let mut m = MinMemo::default();
        m.table.configure(15, 15);
        m.table.clear();
        assert_eq!(m.table.capacity(), 1 << 15);
        let mut p = MinMemo::default();
        p.table.configure(2, 2);
        for _ in 0..16 {
            fill(&mut p, 5, 64);
            p.table.maybe_grow(1 << 20);
            p.table.clear();
        }
        assert_eq!(p.table.capacity(), 4);
        assert_eq!((p.table.shrinks(), p.table.resizes()), (0, 0));
    }

    #[test]
    fn growth_needs_pressure_within_one_generation() {
        // One bucket: three inserts evict once, short of the capacity.
        let mut spread = MinMemo::with_log2_capacity(1);
        for _ in 0..64 {
            fill(&mut spread, 5, 3);
            spread.table.maybe_grow(1 << 20);
            spread.table.clear();
        }
        assert_eq!(spread.table.evictions(), 64);
        assert_eq!((spread.table.capacity(), spread.table.resizes()), (2, 0));
        let mut burst = MinMemo::with_log2_capacity(1);
        fill(&mut burst, 5, 4);
        assert!(burst.table.maybe_grow(1 << 20));
        assert_eq!(burst.table.capacity(), 4);
    }

    #[test]
    fn growth_after_a_shrink_keeps_result_entries() {
        let mut m = MinMemo::default();
        fill(&mut m, 3, 1 << 15);
        m.table.clear();
        m.table.clear();
        assert_eq!(m.table.capacity(), 1 << FLOOR_LOG2_CAPACITY);
        for i in 0..24_000u32 {
            m.insert(5, e(i), e(i), (e(i), e(i + 1)));
            let _ = m.get(5, e(i), e(i));
        }
        let results: Vec<u32> = (0..24_000)
            .filter(|&i| m.get(5, e(i), e(i)).is_some())
            .collect();
        assert_eq!(results.len(), m.table.len());
        assert!(m.table.maybe_grow(1 << 20));
        assert_eq!(m.table.allocated(), 1 << 15, "the allocation is reused");
        assert_eq!(m.table.len(), results.len());
        for &i in &results {
            assert_eq!(m.get(5, e(i), e(i)), Some((e(i), e(i + 1))));
        }
        for i in 0..1u32 << 15 {
            assert_eq!(m.get(3, e(i), e(i)), None);
        }
    }

    #[test]
    fn a_recycled_memo_restarts_its_salt_and_sizing() {
        let mut old = MinMemo::default();
        fill(&mut old, 5, 1 << 16);
        old.table.clear();
        let _ = (old.next_salt(), old.next_salt());
        let mut m = old.recycled();
        let mut fresh = MinMemo::default();
        assert_eq!(m.next_salt(), fresh.next_salt());
        assert_eq!(m.table.capacity(), fresh.table.capacity());
        assert_eq!(m.table.allocated(), 1 << DEFAULT_LOG2_CAPACITY);
        assert_eq!(
            (m.table.hits(), m.table.misses(), m.table.shrinks()),
            (0, 0, 0)
        );
        for i in 0..1u32 << 16 {
            assert_eq!(m.get(5, e(i), e(i)), None);
        }
        fill(&mut m, 5, 5_000);
        fill(&mut fresh, 5, 5_000);
        assert_eq!(
            (m.table.len(), m.table.evictions()),
            (fresh.table.len(), fresh.table.evictions())
        );
    }
}
