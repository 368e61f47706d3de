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

use std::collections::HashMap;

use crate::cubes::Cube;
use crate::edge::{Edge, Var};
use crate::manager::Bdd;
use crate::util::FastBuild;

/// An ISOP result: the cube list and its characteristic function.
#[derive(Clone, Debug, PartialEq)]
pub struct Isop {
    /// The cubes, each contained in `upper`, jointly covering `lower`.
    pub cubes: Vec<Cube>,
    /// The BDD of the sum of the cubes.
    pub function: Edge,
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

/// The state of one [`Bdd::isop`] call: the cover DAG and the memo from an
/// interval to its cover's function and DAG node.
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
}

impl Bdd {
    /// Computes an irredundant sum-of-products `g` with
    /// `lower ≤ g ≤ upper` (Minato–Morreale).
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
    /// assert_eq!(isop.function, f);
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
        let (function, root) = self.isop_rec(lower, upper, &mut dag);
        let mut cubes = Vec::new();
        dag.push_cubes(root, &mut Vec::new(), &mut cubes);
        Isop { cubes, function }
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
        debug_assert!(self.implies_holds(lower, function));
        debug_assert!(self.implies_holds(function, upper));
        let id = dag.covers.len() as u32;
        dag.covers.push(Cover::Split {
            var,
            neg,
            pos,
            rest,
        });
        dag.memo.insert((lower, upper), (function, id));
        (function, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::mix64;

    /// The copying Minato–Morreale recursion `Bdd::isop` replaced: every
    /// level clones, extends and re-sorts each sub-cover, and a memo hit
    /// clones a whole `Isop`. Kept to pin the cover order.
    fn copying_isop(
        bdd: &mut Bdd,
        lower: Edge,
        upper: Edge,
        memo: &mut HashMap<(Edge, Edge), Isop>,
    ) -> Isop {
        if lower.is_zero() {
            return Isop {
                cubes: Vec::new(),
                function: Edge::ZERO,
            };
        }
        if upper.is_one() {
            return Isop {
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
        let result = Isop { cubes, function };
        memo.insert((lower, upper), result.clone());
        result
    }

    /// The function over the first `n` variables whose truth table is
    /// `bit(minterm)`, minterm bit `i` being variable `i`.
    fn from_truth(bdd: &mut Bdd, n: u32, bit: impl Fn(u32) -> bool) -> Edge {
        let mut f = Edge::ZERO;
        for m in (0..1u32 << n).filter(|&m| bit(m)) {
            let lits = (0..n).map(|i| (Var(i), m >> i & 1 == 1)).collect();
            let cube = Cube::new(lits).to_edge(bdd);
            f = bdd.or(f, cube);
        }
        f
    }

    /// `Bdd::isop` returns the copying recursion's cubes, in its order.
    fn assert_same_cover(bdd: &mut Bdd, lower: Edge, upper: Edge) {
        let fast = bdd.isop(lower, upper);
        let copied = copying_isop(bdd, lower, upper, &mut HashMap::new());
        assert_eq!(fast, copied);
        check_interval(bdd, &fast, lower, upper);
    }

    #[test]
    fn cover_order_matches_the_copying_recursion() {
        for n in 1..=8u32 {
            let mut bdd = Bdd::new(n as usize);
            for seed in 0..12u64 {
                let word = |m: u32, salt: u64| mix64(seed << 40 ^ salt << 32 ^ m as u64);
                let f = from_truth(&mut bdd, n, |m| word(m, 1) & 1 == 1);
                // Care sets from empty through sparse to full.
                let c = from_truth(&mut bdd, n, |m| word(m, 2) % 4 < seed % 5);
                let lower = bdd.and(f, c);
                let nc = bdd.not(c);
                let upper = bdd.or(f, nc);
                assert_same_cover(&mut bdd, lower, upper);
                assert_same_cover(&mut bdd, f, f);
            }
            // Symmetric functions share sub-intervals, so the memo hits.
            for k in 0..=n {
                let at_least = from_truth(&mut bdd, n, |m| m.count_ones() >= k);
                let exactly = from_truth(&mut bdd, n, |m| m.count_ones() == k);
                let parity = from_truth(&mut bdd, n, |m| m.count_ones() % 2 == k % 2);
                assert_same_cover(&mut bdd, at_least, at_least);
                assert_same_cover(&mut bdd, exactly, exactly);
                assert_same_cover(&mut bdd, parity, parity);
                assert_same_cover(&mut bdd, exactly, at_least);
            }
        }
    }

    fn check_interval(bdd: &mut Bdd, isop: &Isop, lower: Edge, upper: Edge) {
        assert!(bdd.implies_holds(lower, isop.function));
        assert!(bdd.implies_holds(isop.function, upper));
        // The cube list and the function agree.
        let parts: Vec<Edge> = isop.cubes.iter().map(|c| c.to_edge(bdd)).collect();
        let union = bdd.or_many(parts);
        assert_eq!(union, isop.function);
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
        assert_eq!(isop.function, f);
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
        assert_eq!(isop.function, a);
        check_interval(&mut bdd, &isop, ab, a);
    }

    #[test]
    fn constants() {
        let mut bdd = Bdd::new(2);
        let zero = bdd.isop(Edge::ZERO, Edge::ZERO);
        assert!(zero.is_empty());
        assert_eq!(zero.function, Edge::ZERO);
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
