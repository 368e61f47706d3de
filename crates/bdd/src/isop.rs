//! Irredundant sum-of-products over a function interval
//! (Minato–Morreale ISOP).
//!
//! Given `lower ≤ upper`, [`Bdd::isop`] produces a cube cover `g` with
//! `lower ≤ g ≤ upper` that is *irredundant*: no cube can be dropped
//! without uncovering part of `lower`. This solves the same interval
//! problem as the don't-care BDD minimization of Shiple et al. with a
//! different cost function (cube count instead of BDD nodes) — the
//! two-level analogue; it is provided both as a useful operation in its
//! own right (SOP extraction, PLA-style output) and as a comparison point
//! for the BDD-size heuristics.
//!
//! Small frames run on words. A frame whose top level has at most
//! [`TABLE_LEVELS`] levels to the bottom of the order converts its bounds
//! to packed truth tables (`crate::table`) and recurses on them:
//! cofactors are table halves and `diff`/`or`/`and` are word operations.
//! The split level and every sub-interval are functions of the interval
//! `(lower, upper)`, not of its representation, so a table frame pushes
//! its `Cover::Split` on the level a diagram frame would split on, over
//! the same sub-intervals, and the cubes come out as the diagram
//! recursion lists them. (Table frames keep no memo, so a repeated
//! sub-interval gets a copy of its sub-cover instead of a shared node;
//! the cubes are the same.) Frames above the cutoff stay on the diagram
//! and read a table sub-cover back as an edge.

use std::collections::HashMap;

use crate::cubes::Cube;
use crate::edge::{Edge, Var};
use crate::manager::Bdd;
use crate::table::{self, ToBdd, TABLE_LEVELS, TABLE_WORDS};
use crate::util::FastBuild;

/// An ISOP result: the cube list.
#[derive(Clone, Debug, PartialEq)]
pub struct Isop {
    /// The cubes, each contained in `upper`, jointly covering `lower`.
    pub cubes: Vec<Cube>,
}

impl Isop {
    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// True when the cover is empty (the constant 0).
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Renders the cover as a sum of products using the manager's variable
    /// names, e.g. `x1·¬x3 + x2`.
    pub fn to_sop_string(&self, bdd: &Bdd) -> String {
        if self.cubes.is_empty() {
            return "0".to_owned();
        }
        let mut out = String::new();
        for (i, cube) in self.cubes.iter().enumerate() {
            if i > 0 {
                out.push_str(" + ");
            }
            if cube.is_empty() {
                out.push('1');
            }
            for (j, &(v, pos)) in cube.literals().iter().enumerate() {
                if j > 0 {
                    out.push('·');
                }
                if !pos {
                    out.push('¬');
                }
                out.push_str(bdd.var_name(v));
            }
        }
        out
    }
}

/// A node of the cover DAG [`Bdd::isop`] builds: one of the two constant
/// covers, or a split on a variable whose cubes are those of `neg` with the
/// negative literal added, then those of `pos` with the positive literal,
/// then those of `rest`. Children are indices into the same node list, so
/// a memo hit shares a sub-cover instead of copying it.
#[derive(Clone, Copy, Debug)]
enum Cover {
    Empty,
    Universal,
    Split {
        var: Var,
        neg: u32,
        pos: u32,
        rest: u32,
    },
}

/// Index of [`Cover::Empty`] in every cover DAG.
const EMPTY: u32 = 0;
/// Index of [`Cover::Universal`] in every cover DAG.
const UNIVERSAL: u32 = 1;

/// The state of one [`Bdd::isop`] call: the cover DAG and the memo from
/// an interval of a diagram frame to its cover's function and DAG node.
struct IsopDag {
    covers: Vec<Cover>,
    memo: HashMap<(Edge, Edge), (Edge, u32), FastBuild>,
}

impl IsopDag {
    /// Appends the cubes of cover `id` to `out`, each extended by the
    /// literals on `path`, in the order the copying recursion produced
    /// them.
    fn push_cubes(&self, id: u32, path: &mut Vec<(Var, bool)>, out: &mut Vec<Cube>) {
        match self.covers[id as usize] {
            Cover::Empty => {}
            Cover::Universal => out.push(Cube::new(path.clone())),
            Cover::Split {
                var,
                neg,
                pos,
                rest,
            } => {
                path.push((var, false));
                self.push_cubes(neg, path, out);
                path.pop();
                path.push((var, true));
                self.push_cubes(pos, path, out);
                path.pop();
                self.push_cubes(rest, path, out);
            }
        }
    }

    /// Adds a split on `var`; returns its id.
    fn split(&mut self, var: Var, neg: u32, pos: u32, rest: u32) -> u32 {
        let id = self.covers.len() as u32;
        self.covers.push(Cover::Split {
            var,
            neg,
            pos,
            rest,
        });
        id
    }
}

/// Frames of one [`Bdd::isop`] call solved on tables over levels ending
/// at `end`, and the variable at each level.
struct TableIsop<'a> {
    dag: &'a mut IsopDag,
    level2var: &'a [Var],
    end: u32,
}

impl TableIsop<'_> {
    /// Adds a split on the variable at `level`; returns its id.
    fn split(&mut self, level: u32, neg: u32, pos: u32, rest: u32) -> u32 {
        self.dag
            .split(self.level2var[level as usize], neg, pos, rest)
    }

    /// The Minato–Morreale step on tables over levels `top..end`: writes
    /// the cover's table into `out` and returns its DAG node. It is the
    /// diagram recursion with cofactors taken as table halves, a level
    /// neither bound depends on skipped as a pair of equal halves, and
    /// `diff`/`or`/`and` as word operations, so it splits on the same
    /// levels and its cubes come out in the same order.
    fn table_isop(&mut self, lower: &[u64], upper: &[u64], top: u32, out: &mut [u64]) -> u32 {
        if let (&[l], &[u]) = (lower, upper) {
            let (f, id) = self.word_isop(l, u);
            out[0] = f;
            return id;
        }
        if lower.iter().all(|&w| w == 0) {
            out.fill(0);
            return EMPTY;
        }
        if upper.iter().all(|&w| w == !0) {
            out.fill(!0);
            return UNIVERSAL;
        }
        let h = lower.len() / 2;
        let (l0, l1) = lower.split_at(h);
        let (u0, u1) = upper.split_at(h);
        let (f0, f1) = out.split_at_mut(h);
        if l0 == l1 && u0 == u1 {
            let id = self.table_isop(l0, u0, top + 1, f0);
            f1.copy_from_slice(f0);
            return id;
        }
        let (mut lx, mut ux, mut fx) = (
            [0; TABLE_WORDS / 2],
            [0; TABLE_WORDS / 2],
            [0; TABLE_WORDS / 2],
        );
        let (lx, ux, fx) = (&mut lx[..h], &mut ux[..h], &mut fx[..h]);
        for j in 0..h {
            lx[j] = l0[j] & !u1[j];
        }
        let neg = self.table_isop(lx, u0, top + 1, f0);
        for j in 0..h {
            lx[j] = l1[j] & !u0[j];
        }
        let pos = self.table_isop(lx, u1, top + 1, f1);
        for j in 0..h {
            lx[j] = l0[j] & !f0[j] | l1[j] & !f1[j];
            ux[j] = u0[j] & u1[j];
        }
        let rest = self.table_isop(lx, ux, top + 1, fx);
        for j in 0..h {
            f0[j] |= fx[j];
            f1[j] |= fx[j];
        }
        self.split(top, neg, pos, rest)
    }

    /// [`IsopDag::table_isop`] on one word: the cover's word and node.
    fn word_isop(&mut self, lower: u64, upper: u64) -> (u64, u32) {
        if lower == 0 {
            return (0, EMPTY);
        }
        if upper == !0 {
            return (!0, UNIVERSAL);
        }
        let i = (0..6)
            .rev()
            .find(|&i| table::depends(lower, i) || table::depends(upper, i))
            .expect("a non-constant bound");
        let (l0, l1) = table::cofactors(lower, i);
        let (u0, u1) = table::cofactors(upper, i);
        let (f0, neg) = self.word_isop(l0 & !u1, u0);
        let (f1, pos) = self.word_isop(l1 & !u0, u1);
        let (f_rest, rest) = self.word_isop(l0 & !f0 | l1 & !f1, u0 & u1);
        let id = self.split(self.end - 1 - i, neg, pos, rest);
        (table::join(i, f0, f1) | f_rest, id)
    }
}

impl Bdd {
    /// Computes an irredundant sum-of-products `g` with
    /// `lower ≤ g ≤ upper` (Minato–Morreale).
    ///
    /// A frame whose top level has at most [`TABLE_LEVELS`] levels below
    /// it (itself included) is solved on packed truth tables; frames
    /// above run on the diagram. A call solved wholly on tables creates
    /// no node.
    ///
    /// # Panics
    ///
    /// Panics if `lower ≤ upper` does not hold.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Var};
    /// let mut bdd = Bdd::new(2);
    /// let a = bdd.var(Var(0));
    /// let b = bdd.var(Var(1));
    /// let f = bdd.or(a, b);
    /// let isop = bdd.isop(f, f);
    /// assert_eq!(isop.len(), 2); // a + b
    /// let cubes: Vec<_> = isop.cubes.iter().map(|c| c.to_edge(&mut bdd)).collect();
    /// assert_eq!(bdd.or_many(cubes), f);
    /// ```
    pub fn isop(&mut self, lower: Edge, upper: Edge) -> Isop {
        assert!(
            self.implies_holds(lower, upper),
            "isop: lower must imply upper"
        );
        let mut dag = IsopDag {
            covers: vec![Cover::Empty, Cover::Universal],
            memo: HashMap::default(),
        };
        let root = match self.table_top(lower, upper) {
            Some(top) => self.table_frame(lower, upper, top, &mut dag, &mut [0; TABLE_WORDS]),
            None => self.isop_rec(lower, upper, &mut dag).1,
        };
        let mut cubes = Vec::new();
        dag.push_cubes(root, &mut Vec::new(), &mut cubes);
        Isop { cubes }
    }

    /// The top level of a frame of `[lower, upper]` that is solved on
    /// tables, or `None` for a terminal frame or one above the cutoff.
    fn table_top(&self, lower: Edge, upper: Edge) -> Option<u32> {
        if lower.is_zero() || upper.is_one() {
            return None;
        }
        let top = self.level(lower).min(self.level(upper)).0;
        (self.num_vars() as u32 - top <= TABLE_LEVELS).then_some(top)
    }

    /// Solves the frame `[lower, upper]` on tables over levels
    /// `top..num_vars`: writes the cover's table into `out` and returns
    /// its DAG node.
    fn table_frame(
        &self,
        lower: Edge,
        upper: Edge,
        top: u32,
        dag: &mut IsopDag,
        out: &mut [u64; TABLE_WORDS],
    ) -> u32 {
        let end = self.num_vars() as u32;
        let len = table::words(end - top);
        let (mut l, mut u) = ([0; TABLE_WORDS], [0; TABLE_WORDS]);
        table::from_bdd(self, lower, top, end, &mut l[..len]);
        table::from_bdd(self, upper, top, end, &mut u[..len]);
        let mut frames = TableIsop {
            dag,
            level2var: &self.level2var,
            end,
        };
        frames.table_isop(&l[..len], &u[..len], top, &mut out[..len])
    }

    /// The cover of `[lower, upper]`: its function and its node in `dag`.
    fn isop_rec(&mut self, lower: Edge, upper: Edge, dag: &mut IsopDag) -> (Edge, u32) {
        if lower.is_zero() {
            return (Edge::ZERO, EMPTY);
        }
        if upper.is_one() {
            return (Edge::ONE, UNIVERSAL);
        }
        if let Some(&r) = dag.memo.get(&(lower, upper)) {
            return r;
        }
        let r = match self.table_top(lower, upper) {
            Some(top) => self.table_frame_edge(lower, upper, top, dag),
            None => self.diagram_frame(lower, upper, dag),
        };
        debug_assert!(self.implies_holds(lower, r.0));
        debug_assert!(self.implies_holds(r.0, upper));
        dag.memo.insert((lower, upper), r);
        r
    }

    /// [`Bdd::table_frame`] for a diagram frame above, which needs the
    /// cover's function as an edge. Out of line, so the tables stay off
    /// the stack of the diagram recursion.
    #[inline(never)]
    fn table_frame_edge(
        &mut self,
        lower: Edge,
        upper: Edge,
        top: u32,
        dag: &mut IsopDag,
    ) -> (Edge, u32) {
        let mut f = [0; TABLE_WORDS];
        let id = self.table_frame(lower, upper, top, dag, &mut f);
        let end = self.num_vars() as u32;
        let len = table::words(end - top);
        (ToBdd::new(end).build(self, &f[..len], top), id)
    }

    /// The Minato–Morreale step on the diagram.
    fn diagram_frame(&mut self, lower: Edge, upper: Edge, dag: &mut IsopDag) -> (Edge, u32) {
        let x = self.level(lower).min(self.level(upper));
        debug_assert!(!x.is_terminal());
        let (l1, l0) = self.branches_at(lower, x);
        let (u1, u0) = self.branches_at(upper, x);
        // Parts of each cofactor that cannot be covered by x-free cubes.
        let lx0 = self.diff(l0, u1);
        let lx1 = self.diff(l1, u0);
        let (f0, neg) = self.isop_rec(lx0, u0, dag);
        let (f1, pos) = self.isop_rec(lx1, u1, dag);
        // The remainder must be covered without mentioning x.
        let rem0 = self.diff(l0, f0);
        let rem1 = self.diff(l1, f1);
        let l_rest = self.or(rem0, rem1);
        let u_rest = self.and(u0, u1);
        let (f_rest, rest) = self.isop_rec(l_rest, u_rest, dag);
        // `x` is a level; cube literals carry identities.
        let var = self.var_at_level(x);
        let xvar = self.var(var);
        let with_x = self.ite(xvar, f1, f0);
        let function = self.or(with_x, f_rest);
        (function, dag.split(var, neg, pos, rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reorder::ReorderSettings;
    use crate::util::mix64;

    /// The result of [`copying_isop`]: its cubes and their function.
    #[derive(Clone)]
    struct Copied {
        cubes: Vec<Cube>,
        function: Edge,
    }

    /// The copying Minato–Morreale recursion on the diagram that
    /// `Bdd::isop` replaced: every level clones, extends and re-sorts
    /// each sub-cover, and a memo hit clones a whole result. Kept to pin
    /// the cover order.
    fn copying_isop(
        bdd: &mut Bdd,
        lower: Edge,
        upper: Edge,
        memo: &mut HashMap<(Edge, Edge), Copied>,
    ) -> Copied {
        if lower.is_zero() {
            return Copied {
                cubes: Vec::new(),
                function: Edge::ZERO,
            };
        }
        if upper.is_one() {
            return Copied {
                cubes: vec![Cube::default()],
                function: Edge::ONE,
            };
        }
        if let Some(r) = memo.get(&(lower, upper)) {
            return r.clone();
        }
        let x = bdd.level(lower).min(bdd.level(upper));
        let (l1, l0) = bdd.branches_at(lower, x);
        let (u1, u0) = bdd.branches_at(upper, x);
        let lx0 = bdd.diff(l0, u1);
        let lx1 = bdd.diff(l1, u0);
        let part0 = copying_isop(bdd, lx0, u0, memo);
        let part1 = copying_isop(bdd, lx1, u1, memo);
        let rem0 = bdd.diff(l0, part0.function);
        let rem1 = bdd.diff(l1, part1.function);
        let l_rest = bdd.or(rem0, rem1);
        let u_rest = bdd.and(u0, u1);
        let rest = copying_isop(bdd, l_rest, u_rest, memo);
        let xv = bdd.var_at_level(x);
        let prepend = |cube: &Cube, positive: bool| {
            let mut lits = cube.literals().to_vec();
            lits.push((xv, positive));
            Cube::new(lits)
        };
        let mut cubes: Vec<Cube> = part0.cubes.iter().map(|c| prepend(c, false)).collect();
        cubes.extend(part1.cubes.iter().map(|c| prepend(c, true)));
        cubes.extend(rest.cubes.iter().cloned());
        let xvar = bdd.var(xv);
        let with_x = bdd.ite(xvar, part1.function, part0.function);
        let function = bdd.or(with_x, rest.function);
        let result = Copied { cubes, function };
        memo.insert((lower, upper), result.clone());
        result
    }

    /// The function of variables `vars` (`vars[0]` the most significant
    /// bit of a minterm) whose truth table is `bit(minterm)`.
    fn from_truth(bdd: &mut Bdd, vars: &[Var], bit: impl Fn(u32) -> bool) -> Edge {
        fn rec(bdd: &mut Bdd, vars: &[Var], m: u32, bit: &dyn Fn(u32) -> bool) -> Edge {
            let Some((&v, below)) = vars.split_first() else {
                return bdd.constant(bit(m));
            };
            let lo = rec(bdd, below, m << 1, bit);
            let hi = rec(bdd, below, m << 1 | 1, bit);
            let x = bdd.var(v);
            bdd.ite(x, hi, lo)
        }
        rec(bdd, vars, 0, &bit)
    }

    /// `Bdd::isop` returns the copying recursion's cubes, in its order,
    /// and they cover the interval.
    fn assert_same_cover(bdd: &mut Bdd, lower: Edge, upper: Edge) {
        let fast = bdd.isop(lower, upper);
        let copied = copying_isop(bdd, lower, upper, &mut HashMap::new());
        assert_eq!(fast.cubes, copied.cubes);
        assert_eq!(union(bdd, &fast), copied.function);
        check_interval(bdd, &fast, lower, upper);
    }

    /// The seeded intervals of one width: `[f, f]` and `[f·c, f+¬c]` for
    /// random `f` and care sets from empty through sparse to full, and
    /// for functions of a random subset of `vars` (whose tables have
    /// equal halves).
    fn assert_seeded_covers(bdd: &mut Bdd, vars: &[Var], seeds: impl Iterator<Item = u64>) {
        for seed in seeds {
            let word = |m: u32, salt: u64| mix64(seed << 40 ^ salt << 32 ^ m as u64);
            let mask = if seed % 3 == 2 { word(0, 3) as u32 } else { !0 };
            let f = from_truth(bdd, vars, |m| word(m & mask, 1) & 1 == 1);
            let c = from_truth(bdd, vars, |m| word(m & mask, 2) % 4 < seed % 5);
            let lower = bdd.and(f, c);
            let nc = bdd.not(c);
            let upper = bdd.or(f, nc);
            assert_same_cover(bdd, lower, upper);
            assert_same_cover(bdd, f, f);
        }
    }

    /// Symmetric functions of `vars`: thresholds, exactly-k and parity.
    /// They share sub-intervals, so the diagram memo hits.
    fn assert_symmetric_covers(bdd: &mut Bdd, vars: &[Var], ks: impl Iterator<Item = u32>) {
        for k in ks {
            let at_least = from_truth(bdd, vars, |m| m.count_ones() >= k);
            let exactly = from_truth(bdd, vars, |m| m.count_ones() == k);
            let parity = from_truth(bdd, vars, |m| m.count_ones() % 2 == k % 2);
            assert_same_cover(bdd, at_least, at_least);
            assert_same_cover(bdd, exactly, exactly);
            assert_same_cover(bdd, parity, parity);
            assert_same_cover(bdd, exactly, at_least);
        }
    }

    fn first_vars(n: u32) -> Vec<Var> {
        (0..n).map(Var).collect()
    }

    #[test]
    fn cover_order_matches_the_copying_recursion() {
        for n in 1..=8u32 {
            let mut bdd = Bdd::new(n as usize);
            assert_seeded_covers(&mut bdd, &first_vars(n), 0..12);
            assert_symmetric_covers(&mut bdd, &first_vars(n), 0..=n);
        }
    }

    #[test]
    fn cover_order_matches_on_wide_tables() {
        for n in 9..=16u32 {
            // 9 to 12 variables solve on tables from the root; above that
            // the top frames run on the diagram. The widest functions
            // depend on a random subset of their variables.
            let mut bdd = Bdd::new(n as usize);
            let seeds = if n <= 14 { 0..3 } else { 2..3 };
            assert_seeded_covers(&mut bdd, &first_vars(n), seeds);
        }
        let mut bdd = Bdd::new(TABLE_LEVELS as usize);
        let vars = first_vars(TABLE_LEVELS);
        assert_symmetric_covers(&mut bdd, &vars, [0, 1, 5, 6, 11, 12].into_iter());
    }

    #[test]
    fn cover_order_matches_across_the_cutoff() {
        // Supports that straddle the last `TABLE_LEVELS` levels: every
        // other variable of 14, and a spread of 20 variables. Frames
        // above the cutoff take a table cover back as an edge.
        for (n, vars) in [
            (14, (0..14).step_by(2).chain([13]).collect::<Vec<u32>>()),
            (20, vec![0, 3, 5, 7, 8, 11, 13, 16, 18, 19]),
            (20, (0..20).step_by(3).collect()),
        ] {
            let mut bdd = Bdd::new(n);
            let vars: Vec<Var> = vars.into_iter().map(Var).collect();
            assert_seeded_covers(&mut bdd, &vars, 0..6);
            let top = vars.len() as u32;
            assert_symmetric_covers(&mut bdd, &vars, [1, top / 2, top].into_iter());
        }
    }

    #[test]
    fn cover_order_matches_in_a_sifted_manager() {
        // Levels are not variables: build, scramble the order, then sift.
        let n = 14;
        let mut bdd = Bdd::new(n);
        let vars = first_vars(n as u32);
        let mut roots = Vec::new();
        for seed in 0..4u64 {
            let word = |m: u32, salt: u64| mix64(seed << 40 ^ salt << 32 ^ m as u64);
            let f = from_truth(&mut bdd, &vars[..10], |m| word(m, 1) & 1 == 1);
            let c = from_truth(&mut bdd, &vars[4..], |m| word(m, 2) % 3 != 0);
            roots.extend([f, c]);
        }
        let parity = from_truth(&mut bdd, &vars[2..], |m| m.count_ones() % 2 == 1);
        roots.push(parity);
        for &r in &roots {
            bdd.pin(r);
        }
        for i in (0..n - 1).step_by(2).chain((1..n - 1).step_by(3)) {
            bdd.swap_levels(i);
        }
        bdd.reorder_roots(&ReorderSettings::default(), &roots);
        assert_ne!(bdd.current_order(), vars);
        for pair in roots.chunks(2) {
            if let &[f, c] = pair {
                let lower = bdd.and(f, c);
                let nc = bdd.not(c);
                let upper = bdd.or(f, nc);
                assert_same_cover(&mut bdd, lower, upper);
                assert_same_cover(&mut bdd, f, f);
            }
        }
        assert_same_cover(&mut bdd, parity, parity);
    }

    #[test]
    fn a_call_solved_on_tables_creates_no_node() {
        let mut bdd = Bdd::new(TABLE_LEVELS as usize);
        let vars = first_vars(TABLE_LEVELS);
        let f = from_truth(&mut bdd, &vars, |m| mix64(m as u64).is_multiple_of(3));
        let before = bdd.stats().allocated_nodes;
        let isop = bdd.isop(f, f);
        assert_eq!(bdd.stats().allocated_nodes, before);
        assert_eq!(union(&mut bdd, &isop), f);
    }

    /// The function of the cubes.
    fn union(bdd: &mut Bdd, isop: &Isop) -> Edge {
        let parts: Vec<Edge> = isop.cubes.iter().map(|c| c.to_edge(bdd)).collect();
        bdd.or_many(parts)
    }

    fn check_interval(bdd: &mut Bdd, isop: &Isop, lower: Edge, upper: Edge) {
        let g = union(bdd, isop);
        assert!(bdd.implies_holds(lower, g));
        assert!(bdd.implies_holds(g, upper));
    }

    fn check_irredundant(bdd: &mut Bdd, isop: &Isop, lower: Edge) {
        for skip in 0..isop.cubes.len() {
            let parts: Vec<Edge> = isop
                .cubes
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, c)| c.to_edge(bdd))
                .collect();
            let union = bdd.or_many(parts);
            assert!(!bdd.implies_holds(lower, union), "cube {skip} is redundant");
        }
    }

    #[test]
    fn exact_function_sop() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let ab = bdd.and(a, b);
        let f = bdd.or(ab, c);
        let isop = bdd.isop(f, f);
        assert_eq!(union(&mut bdd, &isop), f);
        assert_eq!(isop.len(), 2); // a·b + c
        check_interval(&mut bdd, &isop, f, f);
        check_irredundant(&mut bdd, &isop, f);
    }

    #[test]
    fn interval_allows_fewer_cubes() {
        // lower = a·b, upper = a: the single cube `a` suffices.
        let mut bdd = Bdd::new(2);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let ab = bdd.and(a, b);
        let isop = bdd.isop(ab, a);
        assert_eq!(isop.len(), 1);
        assert_eq!(union(&mut bdd, &isop), a);
        check_interval(&mut bdd, &isop, ab, a);
    }

    #[test]
    fn constants() {
        let mut bdd = Bdd::new(2);
        let zero = bdd.isop(Edge::ZERO, Edge::ZERO);
        assert!(zero.is_empty());
        let one = bdd.isop(Edge::ONE, Edge::ONE);
        assert_eq!(one.len(), 1);
        assert!(one.cubes[0].is_empty());
        let free = bdd.isop(Edge::ZERO, Edge::ONE);
        assert!(free.is_empty(), "all-DC chooses the empty cover");
    }

    #[test]
    #[should_panic(expected = "lower must imply upper")]
    fn bad_interval_panics() {
        let mut bdd = Bdd::new(1);
        let a = bdd.var(Var(0));
        bdd.isop(Edge::ONE, a);
    }

    #[test]
    fn xor_needs_two_cubes() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let f = bdd.xor(a, b);
        let isop = bdd.isop(f, f);
        assert_eq!(isop.len(), 2); // a·¬b + ¬a·b
        check_interval(&mut bdd, &isop, f, f);
        check_irredundant(&mut bdd, &isop, f);
    }

    #[test]
    fn sop_string_rendering() {
        let mut bdd = Bdd::with_names(&["a", "b"]);
        let a = bdd.var(Var(0));
        let nb = bdd.literal(Var(1), false);
        let f = bdd.and(a, nb);
        let isop = bdd.isop(f, f);
        assert_eq!(isop.to_sop_string(&bdd), "a·¬b");
        let zero = bdd.isop(Edge::ZERO, Edge::ZERO);
        assert_eq!(zero.to_sop_string(&bdd), "0");
        let one = bdd.isop(Edge::ONE, Edge::ONE);
        assert_eq!(one.to_sop_string(&bdd), "1");
    }

    #[test]
    fn random_intervals_sound_and_irredundant() {
        // Exhaustive over a family of 3-var (onset, care) pairs.
        let mut bdd = Bdd::new(3);
        for spec in ["d1 01 1d 01", "1d d1 d0 0d", "0d 0d 11 dd"] {
            let (f, c) = bdd.from_leaf_spec(spec).unwrap();
            let onset = bdd.and(f, c);
            let nc = bdd.not(c);
            let upper = bdd.or(f, nc);
            let isop = bdd.isop(onset, upper);
            check_interval(&mut bdd, &isop, onset, upper);
            check_irredundant(&mut bdd, &isop, onset);
        }
    }

    #[test]
    fn isop_cube_count_at_most_minterm_count() {
        let mut bdd = Bdd::new(4);
        let vars: Vec<Edge> = (0..4).map(|i| bdd.var(Var(i))).collect();
        let x01 = bdd.xor(vars[0], vars[1]);
        let a23 = bdd.and(vars[2], vars[3]);
        let f = bdd.or(x01, a23);
        let isop = bdd.isop(f, f);
        let minterms = bdd.sat_count(f) as usize;
        assert!(isop.len() <= minterms);
        assert!(isop.len() >= 2);
        check_interval(&mut bdd, &isop, f, f);
        check_irredundant(&mut bdd, &isop, f);
    }
}
