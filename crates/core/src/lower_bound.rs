//! Lower bound on the minimum cover size (paper Section 4.1.1).
//!
//! By Theorem 7, `constrain` is optimum when the care set is a cube. For
//! any cube `p ≤ c`, the interval of `[f, p]` contains the interval of
//! `[f, c]`, so the minimum cover of `[f, p]` — which `constrain(f, p)`
//! computes exactly — is no larger than any cover of `[f, c]`. Taking the
//! maximum of `|constrain(f, p)|` over many cubes `p` of `c` yields a lower
//! bound on the EBM optimum.

use bddmin_bdd::Bdd;

use crate::isf::Isf;

/// Result of a lower-bound computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LowerBound {
    /// The bound: every cover of the instance has at least this many nodes.
    pub bound: usize,
    /// Number of cubes actually examined.
    pub cubes_examined: usize,
}

/// Computes the cube-based lower bound, examining at most `max_cubes` cubes
/// of `c` in depth-first order plus one largest cube (the paper enumerates
/// up to 1000 and suggests preferring large cubes).
///
/// # Panics
///
/// Panics if `isf.c` is the zero function.
///
/// # Example
///
/// ```
/// use bddmin_bdd::Bdd;
/// use bddmin_core::{lower_bound, Heuristic, Isf};
///
/// let mut bdd = Bdd::new(3);
/// let (f, c) = bdd.from_leaf_spec("d1 01 1d 01").unwrap();
/// let isf = Isf::new(f, c);
/// let lb = lower_bound(&mut bdd, isf, 1000);
/// let g = Heuristic::Constrain.minimize(&mut bdd, isf);
/// assert!(lb.bound <= bdd.size(g));
/// ```
pub fn lower_bound(bdd: &mut Bdd, isf: Isf, max_cubes: usize) -> LowerBound {
    assert!(!isf.c.is_zero(), "lower_bound: care set must be non-empty");
    let mut bound = 1; // the constant node always exists
    let mut examined = 0;
    // Collect first to release the borrow on the manager.
    let cubes: Vec<bddmin_bdd::Cube> = bdd.cubes(isf.c).take(max_cubes).collect();
    for cube in &cubes {
        let p = cube.to_edge(bdd);
        let g = bdd.constrain(isf.f, p);
        bound = bound.max(bdd.size(g));
        examined += 1;
    }
    // A largest cube often gives the strongest bound; include one if the
    // DFS enumeration was truncated.
    if examined == max_cubes {
        if let Some(big) = bdd.shortest_cube(isf.c) {
            let p = big.to_edge(bdd);
            let g = bdd.constrain(isf.f, p);
            bound = bound.max(bdd.size(g));
            examined += 1;
        }
    }
    LowerBound {
        bound,
        cubes_examined: examined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::{minimize_all, Heuristic};
    use bddmin_bdd::Var;

    #[test]
    fn bound_below_every_heuristic() {
        let specs = [
            "d1 01",
            "d1 01 1d 01",
            "1d d1 d0 0d",
            "0d d1 10 01 11 d0 d1 00",
        ];
        for spec in specs {
            let mut bdd = Bdd::new(4);
            let (f, c) = bdd.from_leaf_spec(spec).unwrap();
            let isf = Isf::new(f, c);
            let lb = lower_bound(&mut bdd, isf, 1000);
            for h in Heuristic::ALL {
                if matches!(h, Heuristic::FAndC | Heuristic::FOrNc | Heuristic::FOrig) {
                    continue; // those are not minimizers of the instance
                }
                let g = h.minimize(&mut bdd, isf);
                assert!(
                    lb.bound <= bdd.size(g),
                    "{h} result smaller than the lower bound on {spec}"
                );
            }
        }
    }

    #[test]
    fn bound_below_exhaustive_minimum() {
        let mut bdd = Bdd::new(3);
        let (f, c) = bdd.from_leaf_spec("1d d1 d0 0d").unwrap();
        let isf = Isf::new(f, c);
        let lb = lower_bound(&mut bdd, isf, 1000);
        // Exhaustive minimum over all 3-var covers.
        let mut best = usize::MAX;
        for table in 0u32..256 {
            let mut g = bddmin_bdd::Edge::ZERO;
            for row in 0..8 {
                if table >> row & 1 == 1 {
                    let lits: Vec<(Var, bool)> = (0..3)
                        .map(|v| (Var(v as u32), row >> (2 - v) & 1 == 1))
                        .collect();
                    let cube = bddmin_bdd::Cube::new(lits).to_edge(&mut bdd);
                    g = bdd.or(g, cube);
                }
            }
            if isf.is_cover(&mut bdd, g) {
                best = best.min(bdd.size(g));
            }
        }
        assert!(lb.bound <= best);
    }

    #[test]
    fn bound_is_exact_when_care_is_cube() {
        // For cube care sets the bound equals the true optimum (Theorem 7).
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let cc = bdd.var(Var(2));
        let x = bdd.xor(b, cc);
        let f = bdd.ite(a, x, b);
        let cube = a;
        let isf = Isf::new(f, cube);
        let lb = lower_bound(&mut bdd, isf, 1000);
        let g = Heuristic::Constrain.minimize(&mut bdd, isf);
        assert_eq!(lb.bound, bdd.size(g));
    }

    #[test]
    fn min_vs_bound_ratio_is_finite() {
        let mut bdd = Bdd::new(4);
        let (f, c) = bdd.from_leaf_spec("0d d1 10 01 11 d0 d1 00").unwrap();
        let isf = Isf::new(f, c);
        let lb = lower_bound(&mut bdd, isf, 10);
        let (_, min) = minimize_all(&mut bdd, isf);
        assert!(lb.bound >= 1);
        assert!(lb.bound <= bdd.size(min));
        assert!(lb.cubes_examined >= 1);
    }

    #[test]
    fn more_cubes_never_weaken_the_bound() {
        let mut bdd = Bdd::new(4);
        let (f, c) = bdd.from_leaf_spec("0d d1 10 01 11 d0 d1 00").unwrap();
        let isf = Isf::new(f, c);
        let small = lower_bound(&mut bdd, isf, 1);
        let large = lower_bound(&mut bdd, isf, 1000);
        // A full enumeration sees every cube the truncated one saw.
        assert!(large.bound >= small.bound);
        assert!(large.cubes_examined >= small.cubes_examined.min(1000));
    }
}
