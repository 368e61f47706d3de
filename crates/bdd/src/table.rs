//! Packed truth tables over the bottom levels of a diagram.
//!
//! A table over levels `top..end` holds one bit per assignment of those
//! levels, level `top` as the most significant index bit, so its two
//! halves are its cofactors on `top` (low half first: `top = 0`). Bit
//! `i` of a word's index is level `end - 1 - i`. A table over fewer than
//! six levels still fills one whole word: it is *replicated* over the
//! absent high index bits, so a word is the function of the last six
//! levels whatever its level count, and word operations never mask.
//!
//! [`Bdd::isop`] solves small intervals on tables and
//! [`LeafSpec`](crate::LeafSpec) stores its leaves as tables; both come
//! back to diagrams through [`ToBdd`]. [`Bdd::table_below`] hands a table
//! to callers outside the kernel, which decide questions about small
//! functions with word operations instead of building diagrams.

use std::collections::HashMap;

use crate::edge::{Edge, Var};
use crate::manager::Bdd;
use crate::util::FastBuild;

/// Largest table the kernel reads a function into: 12 levels, 64 words.
/// [`Bdd::isop`] solves frames of at most this many levels on words, and
/// [`Bdd::table_below`] declines wider functions.
pub const TABLE_LEVELS: u32 = 12;

/// Words of a table over [`TABLE_LEVELS`] levels.
pub(crate) const TABLE_WORDS: usize = 1 << (TABLE_LEVELS - 6);

/// `LOW[i]` has the bits whose index has bit `i` clear.
const LOW: [u64; 6] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

/// Words of a table over `levels` levels.
pub(crate) fn words(levels: u32) -> usize {
    1 << levels.saturating_sub(6)
}

/// The cofactors of `w` on index bit `i`, `(bit clear, bit set)`, each
/// replicated over bit `i`.
#[inline]
pub(crate) fn cofactors(w: u64, i: u32) -> (u64, u64) {
    let s = 1 << i;
    let lo = w & LOW[i as usize];
    let hi = w & !LOW[i as usize];
    (lo | lo << s, hi | hi >> s)
}

/// `f0` where index bit `i` is clear and `f1` where it is set.
#[inline]
pub(crate) fn join(i: u32, f0: u64, f1: u64) -> u64 {
    f0 & LOW[i as usize] | f1 & !LOW[i as usize]
}

/// True when `w` depends on index bit `i`.
#[inline]
pub(crate) fn depends(w: u64, i: u32) -> bool {
    (w ^ w >> (1 << i)) & LOW[i as usize] != 0
}

/// Writes the table of `f` over levels `top..end` into `out`, which holds
/// `words(end - top)` words. `f` must not depend on a level above `top`.
pub(crate) fn from_bdd(bdd: &Bdd, f: Edge, top: u32, end: u32, out: &mut [u64]) {
    if out.len() == 1 {
        out[0] = word_of(bdd, f, end);
    } else if f.is_constant() {
        out.fill(if f.is_one() { !0 } else { 0 });
    } else {
        let (out0, out1) = out.split_at_mut(out.len() / 2);
        if bdd.level(f) == Var(top) {
            let (then, els) = bdd.branches(f);
            from_bdd(bdd, els, top + 1, end, out0);
            from_bdd(bdd, then, top + 1, end, out1);
        } else {
            from_bdd(bdd, f, top + 1, end, out0);
            out1.copy_from_slice(out0);
        }
    }
}

impl Bdd {
    /// Appends the packed truth table of `f` over the levels below
    /// `level` (from `level + 1` to the bottom of the order) to `out` and
    /// returns `true`. For `k` such levels that is `max(1, 2^(k-6))`
    /// words; the top one is the most significant index bit, bit `i` of a
    /// word's index is level `num_vars - 1 - i`, and a table of fewer
    /// than six levels repeats through its word. Levels are positions in
    /// the current order, not variable identities.
    ///
    /// Declines, appending nothing and returning `false`, when more than
    /// [`TABLE_LEVELS`] levels lie below `level`. Creates no node.
    ///
    /// # Panics
    ///
    /// Panics if `f` is rooted at `level` or above it.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Edge, Var, TABLE_LEVELS};
    /// let mut bdd = Bdd::new(3);
    /// let b = bdd.var(Var(1));
    /// let c = bdd.var(Var(2));
    /// let f = bdd.and(b, c);
    /// let mut t = Vec::new();
    /// assert!(bdd.table_below(f, Var(0), &mut t));
    /// // Index bit 1 is `b`, bit 0 is `c`: `f` holds at indices 3, 7, 11, …
    /// assert_eq!(t, [0x8888_8888_8888_8888]);
    ///
    /// let wide = Bdd::new(TABLE_LEVELS as usize + 2);
    /// assert!(!wide.table_below(Edge::ONE, Var(0), &mut t));
    /// assert!(wide.table_below(Edge::ONE, Var(1), &mut t));
    /// assert_eq!(t.len(), 1 + 64);
    /// ```
    pub fn table_below(&self, f: Edge, level: Var, out: &mut Vec<u64>) -> bool {
        assert!(
            self.level(f) > level,
            "table_below: the function must be rooted below level {level}"
        );
        let (top, end) = (level.0 + 1, self.num_vars() as u32);
        let levels = end.saturating_sub(top);
        if levels > TABLE_LEVELS {
            return false;
        }
        let start = out.len();
        out.resize(start + words(levels), 0);
        from_bdd(self, f, top, end, &mut out[start..]);
        true
    }
}

/// The word of `f`, which depends on none but the last six levels
/// before `end`.
fn word_of(bdd: &Bdd, f: Edge, end: u32) -> u64 {
    if f.is_constant() {
        return if f.is_one() { !0 } else { 0 };
    }
    let i = end - 1 - bdd.level(f).0;
    let (then, els) = bdd.branches(f);
    join(i, word_of(bdd, els, end), word_of(bdd, then, end))
}

/// Builds diagrams from tables over levels ending at `end`. Sub-tables
/// are built low half first, and a constant sub-table, one whose halves
/// are equal or a word built before creates no node, so the nodes appear
/// in the order of the per-leaf Shannon recursion, which creates none
/// there either.
pub(crate) struct ToBdd {
    end: u32,
    memo: HashMap<u64, Edge, FastBuild>,
}

impl ToBdd {
    /// A builder for tables whose last level is `end - 1`.
    pub(crate) fn new(end: u32) -> ToBdd {
        ToBdd {
            end,
            memo: HashMap::default(),
        }
    }

    /// The diagram of table `t` over levels `top..end`.
    pub(crate) fn build(&mut self, bdd: &mut Bdd, t: &[u64], top: u32) -> Edge {
        if let &[w] = t {
            return self.word(bdd, w);
        }
        if t.iter().all(|&w| w == 0) {
            return Edge::ZERO;
        }
        if t.iter().all(|&w| w == !0) {
            return Edge::ONE;
        }
        let (t0, t1) = t.split_at(t.len() / 2);
        if t0 == t1 {
            return self.build(bdd, t0, top + 1);
        }
        let lo = self.build(bdd, t0, top + 1);
        let hi = self.build(bdd, t1, top + 1);
        bdd.mk(Var(top), hi, lo)
    }

    fn word(&mut self, bdd: &mut Bdd, w: u64) -> Edge {
        if w == 0 {
            return Edge::ZERO;
        }
        if w == !0 {
            return Edge::ONE;
        }
        if let Some(&e) = self.memo.get(&w) {
            return e;
        }
        let i = (0..6)
            .rev()
            .find(|&i| depends(w, i))
            .expect("w is not constant");
        let (w0, w1) = cofactors(w, i);
        let lo = self.word(bdd, w0);
        let hi = self.word(bdd, w1);
        let e = bdd.mk(Var(self.end - 1 - i), hi, lo);
        self.memo.insert(w, e);
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::mix64;

    #[test]
    fn word_helpers_agree_with_bit_indexing() {
        for seed in 0..50u64 {
            let w = mix64(seed);
            for i in 0..6 {
                let (w0, w1) = cofactors(w, i);
                for m in 0..64u32 {
                    let clear = m & !(1 << i);
                    assert_eq!(w0 >> m & 1, w >> clear & 1);
                    assert_eq!(w1 >> m & 1, w >> (clear | 1 << i) & 1);
                }
                assert!(!depends(w0, i) && !depends(w1, i));
                assert_eq!(join(i, w0, w1), w);
                assert_eq!(depends(w, i), w0 != w1);
            }
        }
    }

    #[test]
    fn tables_round_trip_through_diagrams() {
        // Tables of 1 to 10 levels at the bottom of a 10-level manager.
        let mut bdd = Bdd::new(10);
        for levels in 1..=10u32 {
            let top = 10 - levels;
            for seed in 0..20u64 {
                let mut t: Vec<u64> = (0..words(levels))
                    .map(|j| mix64(seed << 8 | j as u64) & mix64(!seed << 8 | j as u64))
                    .collect();
                if levels < 6 {
                    // Replicate over the absent high index bits.
                    for b in levels..6 {
                        let (lo, _) = cofactors(t[0], b);
                        t[0] = lo;
                    }
                }
                let f = ToBdd::new(10).build(&mut bdd, &t, top);
                let mut back = vec![0; t.len()];
                from_bdd(&bdd, f, top, 10, &mut back);
                assert_eq!(back, t, "levels {levels} seed {seed}");
                for m in 0..1u32 << levels {
                    let assignment: Vec<bool> =
                        (0..10).map(|v| v >= top && m >> (9 - v) & 1 == 1).collect();
                    let bit = t[(m >> 6) as usize] >> (m & 63) & 1 == 1;
                    assert_eq!(bdd.eval(f, &assignment), bit);
                }
            }
        }
    }

    #[test]
    fn table_below_matches_evaluation_in_a_reordered_manager() {
        let n = 10;
        let mut bdd = Bdd::new(n);
        for i in [0, 3, 7, 2, 5, 8, 1] {
            bdd.swap_levels(i);
        }
        for level in 0..n as u32 {
            let below: Vec<Var> = (level + 1..n as u32)
                .map(|l| bdd.var_at_level(Var(l)))
                .collect();
            for seed in 0..8u64 {
                // A random sum of cubes over the variables below `level`.
                let mut f = Edge::ZERO;
                for j in 0..6u64 {
                    let bits = mix64(seed << 16 | u64::from(level) << 8 | j);
                    let mut cube = Edge::ONE;
                    for (k, &v) in below.iter().enumerate() {
                        let lit = bdd.var(v);
                        match bits >> (2 * k) & 3 {
                            0 => cube = bdd.and(cube, lit),
                            1 => cube = bdd.and(cube, lit.complement()),
                            _ => {}
                        }
                    }
                    f = bdd.or(f, cube);
                }
                let before = bdd.stats().allocated_nodes;
                let mut t = vec![7];
                assert!(bdd.table_below(f, Var(level), &mut t));
                assert_eq!(bdd.stats().allocated_nodes, before);
                assert_eq!(t[0], 7, "appends after what `out` holds");
                let t = &t[1..];
                let k = below.len() as u32;
                assert_eq!(t.len(), words(k));
                for m in 0..1u32 << 6.max(k) {
                    let mut assignment = vec![false; n];
                    for (i, &v) in below.iter().enumerate() {
                        assignment[v.index()] = m >> (k - 1 - i as u32) & 1 == 1;
                    }
                    let bit = t[(m >> 6) as usize] >> (m & 63) & 1 == 1;
                    assert_eq!(bit, bdd.eval(f, &assignment), "level {level} index {m}");
                }
            }
        }
    }

    #[test]
    fn table_below_declines_above_the_cutoff() {
        let n = TABLE_LEVELS as usize + 4;
        let mut bdd = Bdd::new(n);
        let x = bdd.var(Var(n as u32 - 1));
        let mut t = Vec::new();
        for level in 0..n as u32 - 1 {
            let fits = n as u32 - level - 1 <= TABLE_LEVELS;
            assert_eq!(bdd.table_below(x, Var(level), &mut t), fits);
            if !fits {
                assert!(t.is_empty(), "a declined call appends nothing");
            }
        }
    }
}
