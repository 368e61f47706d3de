//! The classic `constrain` (generalized cofactor) and `restrict` operators.
//!
//! These are the two pre-existing heuristics the paper builds its framework
//! around: `constrain` is Coudert–Berthet–Madre's image-preserving
//! generalized cofactor \[3,9\]; `restrict` \[4\] adds the *no-new-vars* rule
//! (existentially quantify care variables the function does not depend on).
//! Both return a cover of the incompletely specified function `[f, c]`.
//!
//! The framework-derived equivalents live in `bddmin-core`
//! (`Heuristic::Constrain` / `Heuristic::Restrict`); tests cross-check that
//! the two formulations agree node-for-node.

use crate::budget::BudgetExceeded;
use crate::cache::Op;
use crate::edge::Edge;
use crate::manager::{Bdd, BUDGET_PANIC, MAX_REC_DEPTH};

impl Bdd {
    /// Generalized cofactor `f ↓ c` (the `constrain` operator).
    ///
    /// Returns a cover of `[f, c]`: it agrees with `f` wherever `c = 1`.
    /// When `c` is a cube this reduces to the Shannon cofactor (Touati et
    /// al.) and is an **optimum** cover (paper Theorem 7).
    ///
    /// # Panics
    ///
    /// Panics if `c` is the zero function (the care set may not be empty).
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Var};
    /// let mut bdd = Bdd::new(2);
    /// let (a, b) = (bdd.var(Var(0)), bdd.var(Var(1)));
    /// let f = bdd.and(a, b);
    /// let g = bdd.constrain(f, a); // only the a=1 half matters
    /// assert_eq!(g, b);
    /// ```
    pub fn constrain(&mut self, f: Edge, c: Edge) -> Edge {
        self.try_constrain(f, c).expect(BUDGET_PANIC)
    }

    /// Checked [`Bdd::constrain`]: returns [`BudgetExceeded`] instead of
    /// running past the armed budget.
    ///
    /// # Panics
    ///
    /// Panics if `c` is the zero function.
    pub fn try_constrain(&mut self, f: Edge, c: Edge) -> Result<Edge, BudgetExceeded> {
        assert!(!c.is_zero(), "constrain: care set must be non-empty");
        self.begin_op();
        match self.constrain_rec(f, c, 0) {
            Ok(r) => Ok(self.end_op(r)),
            Err(e) => {
                self.abort_op();
                Err(e)
            }
        }
    }

    fn constrain_rec(&mut self, f: Edge, c: Edge, depth: u32) -> Result<Edge, BudgetExceeded> {
        debug_assert!(!c.is_zero());
        self.charge_step()?;
        if depth > MAX_REC_DEPTH {
            return Err(BudgetExceeded::DEPTH);
        }
        if c.is_one() || f.is_constant() {
            return Ok(f);
        }
        if f == c {
            return Ok(Edge::ONE);
        }
        if f == c.complement() {
            return Ok(Edge::ZERO);
        }
        if let Some(r) = self.cache.get(Op::Constrain, f, c, Edge::ONE) {
            return Ok(r);
        }
        let top = self.level(f).min(self.level(c));
        let (f1, f0) = self.branches_at(f, top);
        let (c1, c0) = self.branches_at(c, top);
        let r = if c0.is_zero() {
            self.constrain_rec(f1, c1, depth + 1)?
        } else if c1.is_zero() {
            self.constrain_rec(f0, c0, depth + 1)?
        } else {
            let t = self.constrain_rec(f1, c1, depth + 1)?;
            let e = self.constrain_rec(f0, c0, depth + 1)?;
            self.mk_checked(top, t, e)?
        };
        self.cache.insert(Op::Constrain, f, c, Edge::ONE, r);
        Ok(r)
    }

    /// The `restrict` operator of Coudert and Madre.
    ///
    /// Like [`Bdd::constrain`] but applies the *no-new-vars* rule: when the
    /// top care variable is not in the support of `f` it is existentially
    /// quantified out of `c` instead of being introduced into the result.
    ///
    /// # Panics
    ///
    /// Panics if `c` is the zero function.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Var};
    /// let mut bdd = Bdd::new(2);
    /// let (a, b) = (bdd.var(Var(0)), bdd.var(Var(1)));
    /// // f = b does not depend on a; restrict never introduces a.
    /// let c = bdd.or(a, b);
    /// let g = bdd.restrict(b, c);
    /// assert!(!bdd.depends_on(g, Var(0)));
    /// ```
    pub fn restrict(&mut self, f: Edge, c: Edge) -> Edge {
        self.try_restrict(f, c).expect(BUDGET_PANIC)
    }

    /// Checked [`Bdd::restrict`]: returns [`BudgetExceeded`] instead of
    /// running past the armed budget.
    ///
    /// # Panics
    ///
    /// Panics if `c` is the zero function.
    pub fn try_restrict(&mut self, f: Edge, c: Edge) -> Result<Edge, BudgetExceeded> {
        assert!(!c.is_zero(), "restrict: care set must be non-empty");
        self.begin_op();
        match self.restrict_rec(f, c, 0) {
            Ok(r) => Ok(self.end_op(r)),
            Err(e) => {
                self.abort_op();
                Err(e)
            }
        }
    }

    fn restrict_rec(&mut self, f: Edge, c: Edge, depth: u32) -> Result<Edge, BudgetExceeded> {
        debug_assert!(!c.is_zero());
        self.charge_step()?;
        if depth > MAX_REC_DEPTH {
            return Err(BudgetExceeded::DEPTH);
        }
        if c.is_one() || f.is_constant() {
            return Ok(f);
        }
        if f == c {
            return Ok(Edge::ONE);
        }
        if f == c.complement() {
            return Ok(Edge::ZERO);
        }
        if let Some(r) = self.cache.get(Op::Restrict, f, c, Edge::ONE) {
            return Ok(r);
        }
        let (fl, cl) = (self.level(f), self.level(c));
        let r = if cl < fl {
            // f is independent of c's top variable: quantify it out of c.
            let (c1, c0) = self.branches_at(c, cl);
            let c_next = self.ite_rec(c1, Edge::ONE, c0, depth + 1)?;
            self.restrict_rec(f, c_next, depth + 1)?
        } else {
            let top = fl;
            let (f1, f0) = self.branches_at(f, top);
            let (c1, c0) = self.branches_at(c, top);
            if c0.is_zero() {
                self.restrict_rec(f1, c1, depth + 1)?
            } else if c1.is_zero() {
                self.restrict_rec(f0, c0, depth + 1)?
            } else {
                let t = self.restrict_rec(f1, c1, depth + 1)?;
                let e = self.restrict_rec(f0, c0, depth + 1)?;
                self.mk_checked(top, t, e)?
            }
        };
        self.cache.insert(Op::Restrict, f, c, Edge::ONE, r);
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Var;

    fn is_cover(bdd: &mut Bdd, g: Edge, f: Edge, c: Edge) -> bool {
        let onset = bdd.and(f, c);
        let upper = {
            let nc = bdd.not(c);
            bdd.or(f, nc)
        };
        bdd.implies_holds(onset, g) && bdd.implies_holds(g, upper)
    }

    #[test]
    fn constrain_is_cover() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let ab = bdd.and(a, b);
        let f = bdd.xor(ab, c);
        let care = bdd.or(a, c);
        let g = bdd.constrain(f, care);
        assert!(is_cover(&mut bdd, g, f, care));
    }

    #[test]
    fn restrict_is_cover() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let bc = bdd.or(b, c);
        let f = bdd.and(a, bc);
        let nb = bdd.not(b);
        let care = bdd.or(a, nb);
        let g = bdd.restrict(f, care);
        assert!(is_cover(&mut bdd, g, f, care));
    }

    #[test]
    fn constrain_full_care_is_identity() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let f = bdd.xor(a, b);
        assert_eq!(bdd.constrain(f, Edge::ONE), f);
        assert_eq!(bdd.restrict(f, Edge::ONE), f);
    }

    #[test]
    fn constrain_self_is_one() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let f = bdd.and(a, b);
        assert!(bdd.constrain(f, f).is_one());
        let nf = bdd.not(f);
        assert!(bdd.constrain(f, nf).is_zero());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn constrain_zero_care_panics() {
        let mut bdd = Bdd::new(1);
        let a = bdd.var(Var(0));
        bdd.constrain(a, Edge::ZERO);
    }

    #[test]
    fn constrain_by_cube_is_shannon_cofactor() {
        // Touati et al.: f ↓ cube = f evaluated on the cube (plus the
        // deleted variables reintroduced nowhere). Check agreement with
        // cofactor on the cube's variables.
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let bc = bdd.xor(b, c);
        let f = bdd.ite(a, bc, b);
        let nb = bdd.not(b);
        let cube = bdd.and(a, nb); // a·¬b
        let g = bdd.constrain(f, cube);
        let expect = bdd.cofactor_cube(f, &[(Var(0), true), (Var(1), false)]);
        assert_eq!(g, expect);
    }

    #[test]
    fn restrict_never_adds_new_top_variable() {
        let mut bdd = Bdd::new(3);
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let a = bdd.var(Var(0));
        let f = bdd.xor(b, c);
        // care depends on a, which f doesn't use.
        let bc = bdd.and(b, c);
        let care = bdd.or(a, bc);
        let g = bdd.restrict(f, care);
        assert!(!bdd.depends_on(g, Var(0)));
        // constrain on the other hand may introduce a:
        let gc = bdd.constrain(f, care);
        assert!(bdd.depends_on(gc, Var(0)));
    }

    #[test]
    fn constrain_can_blow_up_restrict_does_not_here() {
        // The classic pathological case: c = x·f + ¬x·¬f makes [f,c]
        // coverable by the single-node function x (paper, Madre's example);
        // restrict/constrain do not necessarily find it but must stay covers.
        let mut bdd = Bdd::new(4);
        let x = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c2 = bdd.var(Var(2));
        let d = bdd.var(Var(3));
        let bc = bdd.xor(b, c2);
        let f = bdd.xor(bc, d); // independent of x
        let nf = bdd.not(f);
        let care = bdd.ite(x, f, nf);
        for g in [bdd.constrain(f, care), bdd.restrict(f, care)] {
            assert!(is_cover(&mut bdd, g, f, care));
        }
        // x itself is a cover of size 2.
        assert!(is_cover(&mut bdd, x, f, care));
        assert_eq!(bdd.size(x), 2);
    }
}
