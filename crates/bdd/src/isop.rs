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
        self.cubes
            .iter()
            .map(|cube| {
                if cube.is_empty() {
                    "1".to_owned()
                } else {
                    cube.literals()
                        .iter()
                        .map(|&(v, pos)| {
                            let name = bdd.var_name(v);
                            if pos {
                                name.to_owned()
                            } else {
                                format!("¬{name}")
                            }
                        })
                        .collect::<Vec<_>>()
                        .join("·")
                }
            })
            .collect::<Vec<_>>()
            .join(" + ")
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
        let mut memo: HashMap<(Edge, Edge), Isop, FastBuild> = HashMap::default();
        self.isop_rec(lower, upper, &mut memo)
    }

    fn isop_rec(
        &mut self,
        lower: Edge,
        upper: Edge,
        memo: &mut HashMap<(Edge, Edge), Isop, FastBuild>,
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
        let x = self.level(lower).min(self.level(upper));
        debug_assert!(!x.is_terminal());
        let (l1, l0) = self.branches_at(lower, x);
        let (u1, u0) = self.branches_at(upper, x);
        // Parts of each cofactor that cannot be covered by x-free cubes.
        let lx0 = self.diff(l0, u1);
        let lx1 = self.diff(l1, u0);
        let part0 = self.isop_rec(lx0, u0, memo);
        let part1 = self.isop_rec(lx1, u1, memo);
        // The remainder must be covered without mentioning x.
        let rem0 = self.diff(l0, part0.function);
        let rem1 = self.diff(l1, part1.function);
        let l_rest = self.or(rem0, rem1);
        let u_rest = self.and(u0, u1);
        let rest = self.isop_rec(l_rest, u_rest, memo);
        // Assemble. `x` is a level; cube literals carry identities.
        let xv = self.var_at_level(x);
        let mut cubes =
            Vec::with_capacity(part0.cubes.len() + part1.cubes.len() + rest.cubes.len());
        for cube in &part0.cubes {
            cubes.push(prepend_literal(cube, xv, false));
        }
        for cube in &part1.cubes {
            cubes.push(prepend_literal(cube, xv, true));
        }
        cubes.extend(rest.cubes.iter().cloned());
        let xvar = self.var(xv);
        let with_x = self.ite(xvar, part1.function, part0.function);
        let function = self.or(with_x, rest.function);
        let result = Isop { cubes, function };
        debug_assert!(self.implies_holds(lower, result.function));
        debug_assert!(self.implies_holds(result.function, upper));
        memo.insert((lower, upper), result.clone());
        result
    }
}

fn prepend_literal(cube: &Cube, var: Var, positive: bool) -> Cube {
    let mut lits = cube.literals().to_vec();
    lits.push((var, positive));
    Cube::new(lits)
}

#[cfg(test)]
mod tests {
    use super::*;

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
            assert!(
                !bdd.implies_holds(lower, union),
                "cube {skip} is redundant"
            );
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
