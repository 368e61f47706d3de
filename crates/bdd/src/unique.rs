//! Per-level open-addressed unique tables (the hash-consing
//! "find-or-add" structure).
//!
//! CUDD-style layout, one subtable per variable level: each subtable is a
//! power-of-two array of `u32` node-slot indices; node payloads stay in
//! the manager's contiguous `nodes` vector. A probe therefore touches one
//! small table word and (on candidate match) one 12-byte node — no tuple
//! keys, no SipHash, no per-entry allocation.
//!
//! The per-level split exists for dynamic reordering: an adjacent-level
//! swap touches exactly two subtables (`crate::reorder`), leaving every
//! other level's probe structure untouched. It also keeps probe clusters
//! shorter than a single flat table would, since keys never collide
//! across levels.
//!
//! * **Hash**: the `(var, hi, lo)` key packs into a single `u64`-pair mix
//!   ([`key_hash`]), a multiply-xorshift finalizer in the wyhash family.
//!   `var` always equals the subtable's level, so it contributes a
//!   per-level seed rather than entropy.
//! * **Probing**: linear, mask-wrapped. Linear probing is the right choice
//!   here because the table stores 4-byte entries — a whole probe cluster
//!   sits in one or two cache lines.
//! * **Deletion**: [`UniqueTable::remove`] uses backward-shift deletion
//!   (no tombstones), needed when reordering frees nodes whose reference
//!   count drops to zero. Garbage collection still rebuilds every
//!   subtable densely from the surviving nodes ([`UniqueTable::rebuild`]),
//!   so probe sequences stay short after every GC.
//! * **Growth**: per-subtable doubling when the load factor crosses 2/3,
//!   rehashing from the live node payloads.

use crate::edge::{Edge, NodeId, Var};
use crate::node::Node;
use crate::util::mix64;

/// Sentinel for an empty table slot (never a valid node index: the node
/// table asserts `id < u32::MAX >> 1`).
const EMPTY: u32 = u32::MAX;

/// Smallest subtable capacity (slots); must be a power of two. Small,
/// because every declared variable owns one subtable.
const MIN_CAPACITY: usize = 1 << 6;

/// Hash of a unique-table key. `hi` is always a regular edge here (the
/// manager normalises complement attributes before consing), so all 96
/// key bits are significant.
#[inline]
pub(crate) fn key_hash(var: Var, hi: Edge, lo: Edge) -> u64 {
    let a = ((var.0 as u64) << 32) | hi.to_bits() as u64;
    let b = lo.to_bits() as u64;
    // Two-word mix: fold `lo` in with a rotation so (a, b) and (b, a)
    // diverge, then finalize.
    mix64(a ^ b.rotate_left(32).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One level's open-addressed table.
#[derive(Debug)]
struct Subtable {
    slots: Box<[u32]>,
    /// `capacity - 1`; capacity is a power of two.
    mask: usize,
    /// Occupied slot count.
    len: usize,
}

impl Subtable {
    fn new() -> Subtable {
        Subtable {
            slots: vec![EMPTY; MIN_CAPACITY].into_boxed_slice(),
            mask: MIN_CAPACITY - 1,
            len: 0,
        }
    }

    fn with_capacity(capacity: usize) -> Subtable {
        let cap = capacity.next_power_of_two().max(MIN_CAPACITY);
        Subtable {
            slots: vec![EMPTY; cap].into_boxed_slice(),
            mask: cap - 1,
            len: 0,
        }
    }

    /// True once an insert would push the load factor past 2/3.
    #[inline]
    fn needs_grow(&self) -> bool {
        (self.len + 1) * 3 > self.slots.len() * 2
    }

    /// Doubles the capacity and rehashes every entry from the node
    /// payloads.
    fn grow(&mut self, nodes: &[Node]) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; new_cap].into_boxed_slice());
        self.mask = new_cap - 1;
        for &s in old.iter() {
            if s == EMPTY {
                continue;
            }
            let n = &nodes[s as usize];
            let mut i = key_hash(n.var, n.hi, n.lo) as usize & self.mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = s;
        }
    }

    #[inline]
    fn insert_rehashed(&mut self, nodes: &[Node], id: u32) {
        let n = &nodes[id as usize];
        let mut i = key_hash(n.var, n.hi, n.lo) as usize & self.mask;
        while self.slots[i] != EMPTY {
            debug_assert_ne!(self.slots[i], id, "double insert");
            i = (i + 1) & self.mask;
        }
        self.slots[i] = id;
        self.len += 1;
    }
}

/// The unique table: one open-addressed subtable per variable level.
/// Stores node-slot indices only; key comparisons read the node payloads
/// from the `nodes` slice the manager passes in.
#[derive(Debug)]
pub(crate) struct UniqueTable {
    levels: Vec<Subtable>,
    /// Total stored nodes across all levels.
    len: usize,
}

impl UniqueTable {
    pub(crate) fn new() -> UniqueTable {
        UniqueTable {
            levels: Vec::new(),
            len: 0,
        }
    }

    /// Grows the table to cover at least `n` levels (one subtable per
    /// declared variable; called by `add_var`).
    pub(crate) fn ensure_levels(&mut self, n: usize) {
        while self.levels.len() < n {
            self.levels.push(Subtable::new());
        }
    }

    /// Total stored nodes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Total slot capacity, summed over all subtables.
    pub(crate) fn capacity(&self) -> usize {
        self.levels.iter().map(|sub| sub.slots.len()).sum()
    }

    /// Stored nodes at one level.
    pub(crate) fn level_len(&self, level: usize) -> usize {
        self.levels[level].len
    }

    /// Finds the node with key `(var, hi, lo)` in the subtable of level
    /// `var`.
    #[inline]
    pub(crate) fn find(&self, nodes: &[Node], var: Var, hi: Edge, lo: Edge) -> Option<NodeId> {
        let sub = &self.levels[var.index()];
        let mut i = key_hash(var, hi, lo) as usize & sub.mask;
        loop {
            let s = sub.slots[i];
            if s == EMPTY {
                return None;
            }
            let n = &nodes[s as usize];
            if n.var == var && n.hi == hi && n.lo == lo {
                return Some(NodeId(s));
            }
            i = (i + 1) & sub.mask;
        }
    }

    /// Inserts node `id` (whose payload must already be `(var, hi, lo)` in
    /// `nodes`, and must not be present in the table) into the subtable of
    /// its level. Grows that subtable first if the load factor demands it.
    #[inline]
    pub(crate) fn insert(&mut self, nodes: &[Node], id: NodeId) {
        let level = nodes[id.index()].var.index();
        let sub = &mut self.levels[level];
        if sub.needs_grow() {
            sub.grow(nodes);
        }
        sub.insert_rehashed(nodes, id.0);
        self.len += 1;
    }

    /// Removes node `id` from the subtable of its level using
    /// backward-shift deletion, so linear probing stays tombstone-free.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds, via probe exhaustion) if the node is not
    /// present.
    pub(crate) fn remove(&mut self, nodes: &[Node], id: NodeId) {
        let n = &nodes[id.index()];
        let sub = &mut self.levels[n.var.index()];
        let mask = sub.mask;
        let mut i = key_hash(n.var, n.hi, n.lo) as usize & mask;
        while sub.slots[i] != id.0 {
            debug_assert_ne!(sub.slots[i], EMPTY, "removing a node not in the table");
            i = (i + 1) & mask;
        }
        // Backward shift: walk the cluster after the hole; any entry whose
        // home position lies at or before the hole (cyclically) moves into
        // it, leaving no tombstone behind.
        sub.slots[i] = EMPTY;
        let mut hole = i;
        let mut j = (i + 1) & mask;
        while sub.slots[j] != EMPTY {
            let s = sub.slots[j];
            let m = &nodes[s as usize];
            let home = key_hash(m.var, m.hi, m.lo) as usize & mask;
            if ((j.wrapping_sub(home)) & mask) >= ((j.wrapping_sub(hole)) & mask) {
                sub.slots[hole] = s;
                sub.slots[j] = EMPTY;
                hole = j;
            }
            j = (j + 1) & mask;
        }
        sub.len -= 1;
        self.len -= 1;
    }

    /// Detaches every node at `level`: returns their slot indices and
    /// leaves that subtable empty (capacity retained). The reorder swap
    /// kernel uses this to take ownership of the two affected levels.
    pub(crate) fn take_level(&mut self, level: usize) -> Vec<u32> {
        let sub = &mut self.levels[level];
        let mut ids = Vec::with_capacity(sub.len);
        for slot in sub.slots.iter_mut() {
            if *slot != EMPTY {
                ids.push(*slot);
                *slot = EMPTY;
            }
        }
        self.len -= ids.len();
        sub.len = 0;
        ids
    }

    /// Rebuilds every subtable densely from an iterator of live node ids
    /// (used after a GC sweep). Sizes each fresh subtable for a sub-1/2
    /// load factor so post-GC probe sequences start short.
    pub(crate) fn rebuild(&mut self, nodes: &[Node], live: impl Iterator<Item = NodeId>) {
        let num_levels = self.levels.len();
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); num_levels];
        for id in live {
            buckets[nodes[id.index()].var.index()].push(id.0);
        }
        self.len = 0;
        for (level, ids) in buckets.into_iter().enumerate() {
            let mut sub = Subtable::with_capacity(ids.len() * 2);
            for id in ids {
                sub.insert_rehashed(nodes, id);
            }
            self.len += sub.len;
            self.levels[level] = sub;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(var: u32, hi: Edge, lo: Edge) -> Node {
        Node {
            var: Var(var),
            hi,
            lo,
        }
    }

    #[test]
    fn find_insert_roundtrip_across_growth() {
        // Insert enough distinct keys per level to force subtable
        // doublings and check that every key stays findable.
        let mut nodes = vec![Node::TERMINAL];
        let mut table = UniqueTable::new();
        table.ensure_levels(4);
        for k in 0..2000u32 {
            let v = k % 4;
            let (hi, lo) = (Edge::ONE, Edge::new(NodeId(k / 4), k % 2 == 0));
            let id = NodeId(nodes.len() as u32);
            nodes.push(node(v, hi, lo));
            assert_eq!(table.find(&nodes, Var(v), hi, lo), None);
            table.insert(&nodes, id);
            assert_eq!(table.find(&nodes, Var(v), hi, lo), Some(id));
        }
        assert_eq!(table.len(), 2000);
        for level in 0..4 {
            // Per-subtable load factor invariant: len <= 2/3 capacity.
            assert!(table.level_len(level) * 3 <= table.capacity() * 2);
        }
        for k in 0..2000u32 {
            let n = nodes[(k + 1) as usize];
            assert_eq!(table.find(&nodes, n.var, n.hi, n.lo), Some(NodeId(k + 1)));
        }
    }

    #[test]
    fn rebuild_drops_dead_entries() {
        let mut nodes = vec![Node::TERMINAL];
        let mut table = UniqueTable::new();
        table.ensure_levels(100);
        for v in 0..100u32 {
            let id = NodeId(nodes.len() as u32);
            nodes.push(node(v, Edge::ONE, Edge::ZERO));
            table.insert(&nodes, id);
        }
        // Keep only even-v nodes.
        let survivors: Vec<NodeId> = (0..100u32)
            .filter(|v| v % 2 == 0)
            .map(|v| NodeId(v + 1))
            .collect();
        table.rebuild(&nodes, survivors.iter().copied());
        assert_eq!(table.len(), 50);
        for v in 0..100u32 {
            let found = table.find(&nodes, Var(v), Edge::ONE, Edge::ZERO);
            if v % 2 == 0 {
                assert_eq!(found, Some(NodeId(v + 1)));
                assert_eq!(table.level_len(v as usize), 1);
            } else {
                assert_eq!(found, None);
                assert_eq!(table.level_len(v as usize), 0);
            }
        }
    }

    #[test]
    fn remove_keeps_probe_clusters_intact() {
        // Backward-shift deletion: removing entries from the middle of a
        // probe cluster must leave every other entry findable. One level,
        // many keys, so clusters are long.
        let mut nodes = vec![Node::TERMINAL];
        let mut table = UniqueTable::new();
        table.ensure_levels(1);
        let count = 120u32;
        for k in 0..count {
            let id = NodeId(nodes.len() as u32);
            nodes.push(node(0, Edge::ONE, Edge::new(NodeId(k), k % 2 == 1)));
            table.insert(&nodes, id);
        }
        // Remove every third node, checking the rest after each removal.
        for k in (0..count).step_by(3) {
            table.remove(&nodes, NodeId(k + 1));
        }
        for k in 0..count {
            let n = nodes[(k + 1) as usize];
            let found = table.find(&nodes, Var(0), n.hi, n.lo);
            if k % 3 == 0 {
                assert_eq!(found, None, "key {k} should be gone");
            } else {
                assert_eq!(found, Some(NodeId(k + 1)), "key {k} lost by a removal");
            }
        }
        assert_eq!(table.len() as u32, count - count.div_ceil(3));
    }

    #[test]
    fn take_level_detaches_exactly_one_level() {
        let mut nodes = vec![Node::TERMINAL];
        let mut table = UniqueTable::new();
        table.ensure_levels(3);
        for v in 0..3u32 {
            for k in 0..10u32 {
                let id = NodeId(nodes.len() as u32);
                nodes.push(node(v, Edge::ONE, Edge::new(NodeId(k), false)));
                table.insert(&nodes, id);
            }
        }
        let taken = table.take_level(1);
        assert_eq!(taken.len(), 10);
        assert_eq!(table.level_len(1), 0);
        assert_eq!(table.len(), 20);
        // The other levels are untouched.
        for v in [0u32, 2] {
            for k in 0..10u32 {
                assert!(table
                    .find(&nodes, Var(v), Edge::ONE, Edge::new(NodeId(k), false))
                    .is_some());
            }
        }
        // Detached ids can be re-inserted (as the swap kernel does).
        for id in taken {
            table.insert(&nodes, NodeId(id));
        }
        assert_eq!(table.len(), 30);
    }

    #[test]
    fn u32_packing_roundtrip() {
        // The key packs (var, hi, lo) — three u32 words — into two u64s.
        // Check the packing is lossless: every field is recoverable, so no
        // two distinct keys alias before hashing even begins.
        let cases = [
            (0u32, 0u32, 0u32),
            (1, 2, 3),
            (u32::MAX >> 2, 5, 1),
            (7, (u32::MAX >> 1) & !1, u32::MAX >> 1),
            (0, 0, 1), // complement bit on lo only
        ];
        for &(v, h, l) in &cases {
            let (var, hi, lo) = (Var(v), Edge::from_bits(h), Edge::from_bits(l));
            let a = ((var.0 as u64) << 32) | hi.to_bits() as u64;
            let b = lo.to_bits() as u64;
            assert_eq!((a >> 32) as u32, v);
            assert_eq!(a as u32, h);
            assert_eq!(b as u32, l);
            // And the Edge u32 representation itself round-trips.
            assert_eq!(Edge::from_bits(hi.to_bits()), hi);
            assert_eq!(Edge::from_bits(lo.to_bits()), lo);
        }
        // Distinct keys that collide word-wise under a naive (non-rotated)
        // fold must still produce distinct hashes in practice.
        let h_ab = key_hash(Var(1), Edge::from_bits(2), Edge::from_bits(3));
        let h_ba = key_hash(Var(0), Edge::from_bits(3), Edge::from_bits(2));
        assert_ne!(h_ab, h_ba);
    }

    #[test]
    fn key_hash_values_are_pinned() {
        // Slot order in every subtable follows these values, and with it
        // cache behaviour and every rendered table. A change here must be
        // deliberate.
        let golden: [(u32, u32, u32, u64); 6] = [
            (0, 0x0, 0x1, 0xbeeb_67ea_f1fc_5e61),
            (1, 0x2, 0x3, 0x437e_9224_f423_f233),
            (3, 0x6, 0x9, 0x5073_4dd1_53e9_f075),
            (17, 0x28, 0x29, 0xb3a7_deca_40d4_9902),
            (1000, 0x1234, 0x5679, 0xb798_c72d_f43b_6e67),
            (
                u32::MAX >> 2,
                0x7fff_fffe,
                0x7fff_ffff,
                0x7dd5_2f3f_a957_a16f,
            ),
        ];
        for (v, h, l, want) in golden {
            let got = key_hash(Var(v), Edge::from_bits(h), Edge::from_bits(l));
            assert_eq!(got, want, "key_hash({v}, {h:#x}, {l:#x})");
        }
    }

    #[test]
    fn key_hash_distinguishes_field_swaps() {
        // (var, hi, lo) permutations of the same three raw words should
        // hash apart — this guards the packing scheme.
        let h1 = key_hash(Var(1), Edge::from_bits(2), Edge::from_bits(3));
        let h2 = key_hash(Var(1), Edge::from_bits(3), Edge::from_bits(2));
        let h3 = key_hash(Var(2), Edge::from_bits(1), Edge::from_bits(3));
        assert_ne!(h1, h2);
        assert_ne!(h1, h3);
        assert_ne!(h2, h3);
    }
}
