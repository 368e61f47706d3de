//! Image computation by range computation over constrained transition
//! functions (Coudert–Berthet–Madre \[3,4\], Touati et al. \[9\]).
//!
//! Instead of building a monolithic transition relation, the image of a
//! state set `S` is computed as the **range** of the constrained
//! next-state vector: `Img(S) = range(δ₁↓S, …, δₙ↓S)`. This relies on the
//! image-preserving property of `constrain` (footnote 1 of the paper) —
//! these are exactly the calls SIS `verify_fsm` makes, and the calls whose
//! `[δᵢ, S]` instances dominate the paper's experiment stream (tiny care
//! onsets). The range itself is computed by recursive output splitting,
//! again via `constrain`.

use std::collections::HashMap;

use bddmin_bdd::{Bdd, Edge, FastBuild, Var};

use crate::symbolic::SymbolicFsm;

/// Computes the range of a vector of functions: the characteristic
/// function, over `vars[i]`, of `{ (f₁(x), …, fₙ(x)) : x ∈ Bᵐ }`.
///
/// # Panics
///
/// Panics if `fs` and `vars` have different lengths.
///
/// # Example
///
/// ```
/// use bddmin_bdd::{Bdd, Var};
/// use bddmin_fsm::range_of_vector;
///
/// let mut bdd = Bdd::new(4);
/// let a = bdd.var(Var(0));
/// // The vector (a, ¬a) can only produce outputs 10 and 01.
/// let fs = [a, bdd.not(a)];
/// let range = range_of_vector(&mut bdd, &fs, &[Var(2), Var(3)]);
/// let y1 = bdd.var(Var(2));
/// let y2 = bdd.var(Var(3));
/// assert_eq!(range, bdd.xor(y1, y2));
/// ```
pub fn range_of_vector(bdd: &mut Bdd, fs: &[Edge], vars: &[Var]) -> Edge {
    assert_eq!(fs.len(), vars.len(), "one output variable per function");
    let mut memo: HashMap<Vec<Edge>, Edge, FastBuild> = HashMap::default();
    range_rec(bdd, fs, vars, &mut memo)
}

fn range_rec(
    bdd: &mut Bdd,
    fs: &[Edge],
    vars: &[Var],
    memo: &mut HashMap<Vec<Edge>, Edge, FastBuild>,
) -> Edge {
    let Some((&f0, rest)) = fs.split_first() else {
        return Edge::ONE;
    };
    let (&v0, rest_vars) = vars.split_first().expect("vars aligned");
    if let Some(&r) = memo.get(fs) {
        return r;
    }
    let r = if f0.is_one() {
        let sub = range_rec(bdd, rest, rest_vars, memo);
        let v = bdd.var(v0);
        bdd.and(v, sub)
    } else if f0.is_zero() {
        let sub = range_rec(bdd, rest, rest_vars, memo);
        let nv = bdd.literal(v0, false);
        bdd.and(nv, sub)
    } else {
        // Output splitting: where f0 = 1, the remaining functions live on
        // the part of the domain where f0 holds — constrain keeps their
        // image there (the special property of the generalized cofactor).
        let on: Vec<Edge> = rest.iter().map(|&f| bdd.constrain(f, f0)).collect();
        let off: Vec<Edge> = rest
            .iter()
            .map(|&f| {
                let nf0 = f0.complement();
                bdd.constrain(f, nf0)
            })
            .collect();
        let r1 = range_rec(bdd, &on, rest_vars, memo);
        let r0 = range_rec(bdd, &off, rest_vars, memo);
        let v = bdd.var(v0);
        bdd.ite(v, r1, r0)
    };
    memo.insert(fs.to_vec(), r);
    r
}

impl SymbolicFsm {
    /// The constrained next-state vector `δᵢ ↓ S` — the top-level
    /// `constrain` calls of SIS `verify_fsm`'s image computation, i.e. the
    /// EBM instances `[δᵢ, S]` of the paper's experiments. Callers that
    /// only need the image may pass the result to
    /// [`SymbolicFsm::image_of_constrained`].
    ///
    /// # Panics
    ///
    /// Panics if `states` is the zero function.
    pub fn constrained_next_fns(&mut self, states: Edge) -> Vec<Edge> {
        self.next_fns
            .iter()
            .map(|&f| self.bdd.constrain(f, states))
            .collect()
    }

    /// Range of an (already constrained) next-state vector, expressed over
    /// the **present** variables.
    pub fn image_of_constrained(&mut self, constrained: &[Edge]) -> Edge {
        let over_next = range_of_vector(&mut self.bdd, constrained, &self.next_vars);
        self.bdd
            .rename(over_next, &self.next_vars, &self.present_vars)
    }

    /// The image of `states` computed by the transition-function method
    /// (constrain + range). Agrees with the relation-based
    /// [`SymbolicFsm::image`] (cross-checked in tests).
    ///
    /// # Panics
    ///
    /// Panics if `states` is the zero function.
    pub fn image_by_range(&mut self, states: Edge) -> Edge {
        let constrained = self.constrained_next_fns(states);
        self.image_of_constrained(&constrained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn range_of_constants() {
        let mut bdd = Bdd::new(2);
        let y0 = Var(0);
        let y1 = Var(1);
        let r = range_of_vector(&mut bdd, &[Edge::ONE, Edge::ZERO], &[y0, y1]);
        let a = bdd.var(y0);
        let nb = bdd.literal(y1, false);
        assert_eq!(r, bdd.and(a, nb));
    }

    #[test]
    fn range_of_empty_vector() {
        let mut bdd = Bdd::new(1);
        assert!(range_of_vector(&mut bdd, &[], &[]).is_one());
    }

    #[test]
    fn range_of_correlated_outputs() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        // (a·b, a+b): possible outputs 00, 01, 11 — never 10.
        let fs = [bdd.and(a, b), bdd.or(a, b)];
        let r = range_of_vector(&mut bdd, &fs, &[Var(2), Var(3)]);
        let y0 = bdd.var(Var(2));
        let y1 = bdd.var(Var(3));
        // y0 ⇒ y1.
        let expect = bdd.implies(y0, y1);
        assert_eq!(r, expect);
    }

    #[test]
    fn image_by_range_matches_relation_method() {
        for circuit in [
            generators::counter("c", 3),
            generators::lfsr("l", 4, 0b0011),
            generators::traffic_light(),
            generators::random_fsm("r", 4, 3, 99),
        ] {
            let mut fsm = SymbolicFsm::new(&circuit);
            let init = fsm.initial_states();
            // Compare on several growing state sets.
            let mut set = init;
            for step in 0..4 {
                let by_rel = fsm.image(set);
                let by_rng = fsm.image_by_range(set);
                assert_eq!(
                    by_rel,
                    by_rng,
                    "image methods disagree on {} step {step}",
                    circuit.name()
                );
                let bdd = fsm.bdd_mut();
                set = bdd.or(set, by_rel);
            }
        }
    }

    #[test]
    fn constrained_next_fns_shape() {
        let c = generators::counter("c", 3);
        let mut fsm = SymbolicFsm::new(&c);
        let init = fsm.initial_states();
        let constrained = fsm.constrained_next_fns(init);
        assert_eq!(constrained.len(), 3);
        // From state 000 with enable free: next is 000 or 001, so bit 0 of
        // the constrained vector is the enable input, bits 1,2 are 0.
        assert!(constrained[1].is_zero());
        assert!(constrained[2].is_zero());
    }
}
