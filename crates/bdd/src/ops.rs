//! Boolean operations: ITE and everything derived from it.
//!
//! Every recursive operation exists in two forms: the classic infallible
//! form (`ite`, `and`, …) and a checked `try_*` form returning
//! [`BudgetExceeded`] when the armed [`crate::Budget`] runs out. Both
//! share one recursion, so with no budget armed they are byte-identical;
//! the infallible form panics if a limit trips while it runs. All
//! recursions also carry a depth guard that converts a would-be stack
//! overflow on pathologically deep BDDs into [`BudgetExceeded`].

use crate::budget::BudgetExceeded;
use crate::cache::Op;
use crate::edge::{Edge, Var};
use crate::manager::{Bdd, BUDGET_PANIC, MAX_REC_DEPTH};

impl Bdd {
    /// If-then-else: `ite(f, g, h) = f·g + ¬f·h`.
    ///
    /// All binary operations are derived from this; results are memoised in
    /// the computed table.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Var};
    /// let mut bdd = Bdd::new(3);
    /// let (a, b, c) = (bdd.var(Var(0)), bdd.var(Var(1)), bdd.var(Var(2)));
    /// let mux = bdd.ite(a, b, c);
    /// let manual = {
    ///     let t = bdd.and(a, b);
    ///     let na = bdd.not(a);
    ///     let e = bdd.and(na, c);
    ///     bdd.or(t, e)
    /// };
    /// assert_eq!(mux, manual);
    /// ```
    pub fn ite(&mut self, f: Edge, g: Edge, h: Edge) -> Edge {
        self.try_ite(f, g, h).expect(BUDGET_PANIC)
    }

    /// Checked [`Bdd::ite`]: aborts cleanly with [`BudgetExceeded`] when
    /// the armed budget runs out. The caches never record aborted work,
    /// so a failed call leaves the manager fully consistent.
    pub fn try_ite(&mut self, f: Edge, g: Edge, h: Edge) -> Result<Edge, BudgetExceeded> {
        self.begin_op();
        match self.ite_rec(f, g, h, 0) {
            Ok(r) => Ok(self.end_op(r)),
            Err(e) => {
                self.abort_op();
                Err(e)
            }
        }
    }

    pub(crate) fn ite_rec(
        &mut self,
        f: Edge,
        g: Edge,
        h: Edge,
        depth: u32,
    ) -> Result<Edge, BudgetExceeded> {
        self.charge_step()?;
        if depth > MAX_REC_DEPTH {
            return Err(BudgetExceeded::DEPTH);
        }
        // Terminal cases.
        if f.is_one() {
            return Ok(g);
        }
        if f.is_zero() {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g.is_one() && h.is_zero() {
            return Ok(f);
        }
        if g.is_zero() && h.is_one() {
            return Ok(f.complement());
        }
        // Reduce using f where g/h coincide with f or !f.
        let (mut f, mut g, mut h) = (f, g, h);
        if g == f {
            g = Edge::ONE;
        } else if g == f.complement() {
            g = Edge::ZERO;
        }
        if h == f {
            h = Edge::ZERO;
        } else if h == f.complement() {
            h = Edge::ONE;
        }
        if g == h {
            return Ok(g);
        }
        if g.is_one() && h.is_zero() {
            return Ok(f);
        }
        if g.is_zero() && h.is_one() {
            return Ok(f.complement());
        }
        // Canonical triple: standard symmetry rewrites so equivalent calls
        // share cache entries (ite(f,1,h) = ite(h,1,f), etc.).
        if g.is_one() && self.order_before(h, f) {
            std::mem::swap(&mut f, &mut h);
        } else if h.is_zero() && self.order_before(g, f) {
            std::mem::swap(&mut f, &mut g);
        } else if g.is_zero() && self.order_before(h, f) {
            let (nf, nh) = (h.complement(), f.complement());
            f = nf;
            h = nh;
        } else if h.is_one() && self.order_before(g, f) {
            let (nf, ng) = (g.complement(), f.complement());
            f = nf;
            g = ng;
        } else if g == h.complement() && self.order_before(g, f) {
            // ite(f, g, !g) = ite(g, f, !f)
            std::mem::swap(&mut f, &mut g);
            h = g.complement();
        }
        // Complement normalisation: f regular, g regular.
        if f.is_complemented() {
            std::mem::swap(&mut g, &mut h);
            f = f.complement();
        }
        let negate = g.is_complemented();
        if negate {
            g = g.complement();
            h = h.complement();
        }
        if let Some(r) = self.cache.get(Op::Ite, f, g, h) {
            return Ok(r.complement_if(negate));
        }
        let top = self.level(f).min(self.level(g)).min(self.level(h));
        let (f1, f0) = self.branches_at(f, top);
        let (g1, g0) = self.branches_at(g, top);
        let (h1, h0) = self.branches_at(h, top);
        let t = self.ite_rec(f1, g1, h1, depth + 1)?;
        let e = self.ite_rec(f0, g0, h0, depth + 1)?;
        let r = self.mk_checked(top, t, e)?;
        self.cache.insert(Op::Ite, f, g, h, r);
        Ok(r.complement_if(negate))
    }

    /// True if `a` should precede `b` in canonical-triple ordering
    /// (top level first, then raw node index as a tiebreak).
    fn order_before(&self, a: Edge, b: Edge) -> bool {
        let (la, lb) = (self.level(a), self.level(b));
        la < lb || (la == lb && a.node() < b.node())
    }

    /// Conjunction `f · g`.
    pub fn and(&mut self, f: Edge, g: Edge) -> Edge {
        self.ite(f, g, Edge::ZERO)
    }

    /// Checked [`Bdd::and`].
    pub fn try_and(&mut self, f: Edge, g: Edge) -> Result<Edge, BudgetExceeded> {
        self.try_ite(f, g, Edge::ZERO)
    }

    /// Disjunction `f + g`.
    pub fn or(&mut self, f: Edge, g: Edge) -> Edge {
        self.ite(f, Edge::ONE, g)
    }

    /// Checked [`Bdd::or`].
    pub fn try_or(&mut self, f: Edge, g: Edge) -> Result<Edge, BudgetExceeded> {
        self.try_ite(f, Edge::ONE, g)
    }

    /// Exclusive or `f ⊕ g`.
    pub fn xor(&mut self, f: Edge, g: Edge) -> Edge {
        self.ite(f, g.complement(), g)
    }

    /// Checked [`Bdd::xor`].
    pub fn try_xor(&mut self, f: Edge, g: Edge) -> Result<Edge, BudgetExceeded> {
        self.try_ite(f, g.complement(), g)
    }

    /// Equivalence `f ≡ g` (xnor).
    pub fn xnor(&mut self, f: Edge, g: Edge) -> Edge {
        self.ite(f, g, g.complement())
    }

    /// Implication `f ⇒ g` as a function.
    pub fn implies(&mut self, f: Edge, g: Edge) -> Edge {
        self.ite(f, g, Edge::ONE)
    }

    /// Difference `f · ¬g`.
    pub fn diff(&mut self, f: Edge, g: Edge) -> Edge {
        self.ite(f, g.complement(), Edge::ZERO)
    }

    /// Nand `¬(f·g)`.
    pub fn nand(&mut self, f: Edge, g: Edge) -> Edge {
        self.and(f, g).complement()
    }

    /// Nor `¬(f+g)`.
    pub fn nor(&mut self, f: Edge, g: Edge) -> Edge {
        self.or(f, g).complement()
    }

    /// Conjunction of many functions (`ONE` for an empty iterator).
    pub fn and_many<I: IntoIterator<Item = Edge>>(&mut self, edges: I) -> Edge {
        edges
            .into_iter()
            .fold(Edge::ONE, |acc, e| self.and(acc, e))
    }

    /// Disjunction of many functions (`ZERO` for an empty iterator).
    pub fn or_many<I: IntoIterator<Item = Edge>>(&mut self, edges: I) -> Edge {
        edges
            .into_iter()
            .fold(Edge::ZERO, |acc, e| self.or(acc, e))
    }

    /// Decision check: does `f ≤ g` (i.e. `f ⇒ g`) hold for all inputs?
    ///
    /// O(|f|·|g|) containment test: `f ≤ g ⟺ f·¬g = 0`, decided by
    /// [`Bdd::agree`] as "`f` agrees with 0 wherever `¬g` holds", so the
    /// product `f·¬g` is never built.
    pub fn implies_holds(&mut self, f: Edge, g: Edge) -> bool {
        self.agree(f, Edge::ZERO, g.complement())
    }

    /// Checked [`Bdd::implies_holds`].
    pub fn try_implies_holds(&mut self, f: Edge, g: Edge) -> Result<bool, BudgetExceeded> {
        self.try_agree(f, Edge::ZERO, g.complement())
    }

    /// Decision check: do `f` and `g` agree wherever `c` holds, that is,
    /// is `(f ⊕ g)·c = 0`?
    ///
    /// Every matching criterion and every cover and containment test of
    /// the minimization layer is this question. The recursion descends
    /// the triple at the top level of its three edges and stops at the
    /// first disagreement. It builds no result, so it allocates no
    /// node. Both verdicts are memoised in the computed table. CUDD's
    /// `Cudd_bddLeq` is the model.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Edge, Var};
    /// let mut bdd = Bdd::new(2);
    /// let (a, b) = (bdd.var(Var(0)), bdd.var(Var(1)));
    /// let ab = bdd.and(a, b);
    /// assert!(bdd.agree(ab, b, a)); // a·b and b agree wherever a holds
    /// assert!(!bdd.agree(ab, b, Edge::ONE));
    /// ```
    pub fn agree(&mut self, f: Edge, g: Edge, c: Edge) -> bool {
        self.try_agree(f, g, c).expect(BUDGET_PANIC)
    }

    /// Checked [`Bdd::agree`].
    pub fn try_agree(&mut self, f: Edge, g: Edge, c: Edge) -> Result<bool, BudgetExceeded> {
        self.begin_op();
        match self.agree_rec(f, g, c, 0) {
            Ok(r) => {
                self.end_op(Edge::ONE);
                Ok(r)
            }
            Err(e) => {
                self.abort_op();
                Err(e)
            }
        }
    }

    fn agree_rec(&mut self, f: Edge, g: Edge, c: Edge, depth: u32) -> Result<bool, BudgetExceeded> {
        self.charge_step()?;
        if depth > MAX_REC_DEPTH {
            return Err(BudgetExceeded::DEPTH);
        }
        if c.is_zero() || f == g {
            return Ok(true);
        }
        // From here f ≠ g, and c ≠ 0: complements (constants included)
        // differ everywhere, and distinct functions differ somewhere.
        if f == g.complement() || c.is_one() {
            return Ok(false);
        }
        // Canonical pair: only f ⊕ g matters, so order the pair (constants
        // sort last) and make f regular by complementing both.
        let (mut f, mut g) = if self.order_before(g, f) { (g, f) } else { (f, g) };
        if f.is_complemented() {
            f = f.complement();
            g = g.complement();
        }
        if g.is_constant() {
            // The disagreement set is d·c with d = f ⊕ g ∈ {f, ¬f}.
            let d = f.complement_if(g.is_one());
            if c == d.complement() {
                return Ok(true);
            }
            if c == d {
                return Ok(false);
            }
        }
        if let Some(r) = self.cache.get(Op::Agree, f, g, c) {
            return Ok(r.is_one());
        }
        let top = self.level(f).min(self.level(g)).min(self.level(c));
        let (f1, f0) = self.branches_at(f, top);
        let (g1, g0) = self.branches_at(g, top);
        let (c1, c0) = self.branches_at(c, top);
        let r = self.agree_rec(f1, g1, c1, depth + 1)? && self.agree_rec(f0, g0, c0, depth + 1)?;
        let verdict = if r { Edge::ONE } else { Edge::ZERO };
        self.cache.insert(Op::Agree, f, g, c, verdict);
        Ok(r)
    }

    /// The Shannon cofactor of `f` by the literal `(var = value)`.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Var};
    /// let mut bdd = Bdd::new(2);
    /// let (a, b) = (bdd.var(Var(0)), bdd.var(Var(1)));
    /// let f = bdd.and(a, b);
    /// assert_eq!(bdd.cofactor(f, Var(0), true), b);
    /// assert!(bdd.cofactor(f, Var(0), false).is_zero());
    /// ```
    pub fn cofactor(&mut self, f: Edge, var: Var, value: bool) -> Edge {
        self.try_cofactor(f, var, value).expect(BUDGET_PANIC)
    }

    /// Checked [`Bdd::cofactor`].
    pub fn try_cofactor(
        &mut self,
        f: Edge,
        var: Var,
        value: bool,
    ) -> Result<Edge, BudgetExceeded> {
        self.begin_op();
        let value = if value { Edge::ONE } else { Edge::ZERO };
        // The recursion runs in level space: convert the variable identity
        // to its position in the current order once, up front.
        let level = self.level_of_var(var);
        match self.cofactor_rec(f, level, value, 0) {
            Ok(r) => Ok(self.end_op(r)),
            Err(e) => {
                self.abort_op();
                Err(e)
            }
        }
    }

    /// `level` is a position in the current order, not a variable identity
    /// (cache keys are level-based too; every reorder clears the caches, so
    /// entries never outlive the order they were computed under).
    fn cofactor_rec(
        &mut self,
        f: Edge,
        level: Var,
        value: Edge,
        depth: u32,
    ) -> Result<Edge, BudgetExceeded> {
        self.charge_step()?;
        if depth > MAX_REC_DEPTH {
            return Err(BudgetExceeded::DEPTH);
        }
        let top = self.level(f);
        if top > level {
            // f does not depend on the variable at `level` (ordered BDD).
            return Ok(f);
        }
        if let Some(r) = self.cache.get(Op::Compose(level.0), f, value, Edge::ONE) {
            return Ok(r);
        }
        let (f1, f0) = self.branches_at(f, top);
        let r = if top == level {
            if value.is_one() {
                f1
            } else {
                f0
            }
        } else {
            let t = self.cofactor_rec(f1, level, value, depth + 1)?;
            let e = self.cofactor_rec(f0, level, value, depth + 1)?;
            self.mk_checked(top, t, e)?
        };
        self.cache.insert(Op::Compose(level.0), f, value, Edge::ONE, r);
        Ok(r)
    }

    /// Restricts `f` by a positive/negative literal cube: the generalized
    /// Shannon cofactor `f_p` for a cube `p` given as literal list.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Var};
    /// let mut bdd = Bdd::new(3);
    /// let (a, b) = (bdd.var(Var(0)), bdd.var(Var(1)));
    /// let f = bdd.xor(a, b);
    /// let fa = bdd.cofactor_cube(f, &[(Var(0), true)]);
    /// assert_eq!(fa, bdd.not(b));
    /// ```
    pub fn cofactor_cube(&mut self, f: Edge, literals: &[(Var, bool)]) -> Edge {
        let mut r = f;
        for &(v, val) in literals {
            r = self.cofactor(r, v, val);
        }
        r
    }

    /// Existential quantification `∃ vars . f`, where `vars` is a **positive
    /// cube** (as built by [`Bdd::cube_of_vars`]).
    ///
    /// # Panics
    ///
    /// Panics if `vars` is not a positive cube.
    pub fn exists(&mut self, f: Edge, vars: Edge) -> Edge {
        self.assert_positive_cube(vars);
        self.try_exists(f, vars).expect(BUDGET_PANIC)
    }

    /// Checked [`Bdd::exists`]. A malformed `vars` (not a positive cube)
    /// is reported as [`BudgetExceeded::INTERNAL`] instead of panicking,
    /// so long-running services degrade to a structured error line.
    pub fn try_exists(&mut self, f: Edge, vars: Edge) -> Result<Edge, BudgetExceeded> {
        self.check_positive_cube(vars)?;
        self.begin_op();
        match self.exists_rec(f, vars, 0) {
            Ok(r) => Ok(self.end_op(r)),
            Err(e) => {
                self.abort_op();
                Err(e)
            }
        }
    }

    fn exists_rec(&mut self, f: Edge, mut cube: Edge, depth: u32) -> Result<Edge, BudgetExceeded> {
        self.charge_step()?;
        if depth > MAX_REC_DEPTH {
            return Err(BudgetExceeded::DEPTH);
        }
        // Skip quantified variables above f's level.
        while !cube.is_constant() && self.level(cube) < self.level(f) {
            cube = self.node(cube).hi.complement_if(cube.is_complemented());
        }
        if cube.is_constant() || f.is_constant() {
            return Ok(f);
        }
        if let Some(r) = self.cache.get(Op::Exists, f, cube, Edge::ONE) {
            return Ok(r);
        }
        let top = self.level(f);
        let (f1, f0) = self.branches_at(f, top);
        let r = if self.level(cube) == top {
            let next = self.node(cube).hi.complement_if(cube.is_complemented());
            let t = self.exists_rec(f1, next, depth + 1)?;
            let e = self.exists_rec(f0, next, depth + 1)?;
            self.ite_rec(t, Edge::ONE, e, depth + 1)?
        } else {
            let t = self.exists_rec(f1, cube, depth + 1)?;
            let e = self.exists_rec(f0, cube, depth + 1)?;
            self.mk_checked(top, t, e)?
        };
        self.cache.insert(Op::Exists, f, cube, Edge::ONE, r);
        Ok(r)
    }

    /// Universal quantification `∀ vars . f` over a positive cube of
    /// variables.
    ///
    /// # Panics
    ///
    /// Panics if `vars` is not a positive cube.
    pub fn forall(&mut self, f: Edge, vars: Edge) -> Edge {
        self.assert_positive_cube(vars);
        self.try_forall(f, vars).expect(BUDGET_PANIC)
    }

    /// Checked [`Bdd::forall`]. A malformed `vars` is reported as
    /// [`BudgetExceeded::INTERNAL`] instead of panicking.
    pub fn try_forall(&mut self, f: Edge, vars: Edge) -> Result<Edge, BudgetExceeded> {
        self.check_positive_cube(vars)?;
        if let Some(r) = self.cache.get(Op::Forall, f, vars, Edge::ONE) {
            return Ok(r);
        }
        self.begin_op();
        match self.exists_rec(f.complement(), vars, 0) {
            Ok(r) => {
                let r = r.complement();
                self.cache.insert(Op::Forall, f, vars, Edge::ONE, r);
                Ok(self.end_op(r))
            }
            Err(e) => {
                self.abort_op();
                Err(e)
            }
        }
    }

    /// Relational product `∃ vars . (f · g)` (the workhorse of image
    /// computation), computed by a **fused** single descent over
    /// `(f, g, vars)` in the style of CUDD's `bddAndAbstract`: the
    /// conjunction is never materialized, so zero-products prune before
    /// recursing, a ⊤ `t`-branch at a quantified level absorbs the
    /// `e`-branch unseen, and the peak live-node count stays far below
    /// the unfused `exists(and(f, g), vars)` (which this is proven
    /// edge-for-edge equal to by the differential suite).
    ///
    /// # Panics
    ///
    /// Panics if `vars` is not a positive cube.
    pub fn and_exists(&mut self, f: Edge, g: Edge, vars: Edge) -> Edge {
        self.assert_positive_cube(vars);
        self.try_and_exists(f, g, vars).expect(BUDGET_PANIC)
    }

    /// Checked [`Bdd::and_exists`]: aborts cleanly with [`BudgetExceeded`]
    /// when the armed budget runs out, and reports a malformed `vars` as
    /// [`BudgetExceeded::INTERNAL`] instead of panicking.
    pub fn try_and_exists(
        &mut self,
        f: Edge,
        g: Edge,
        vars: Edge,
    ) -> Result<Edge, BudgetExceeded> {
        self.check_positive_cube(vars)?;
        self.begin_op();
        match self.and_exists_rec(f, g, vars, 0) {
            Ok(r) => Ok(self.end_op(r)),
            Err(e) => {
                self.abort_op();
                Err(e)
            }
        }
    }

    /// The fused relational-product recursion. Complement edges are
    /// handled in the terminal cases (`f = ¬g` prunes to 0 without any
    /// work); the cache key is canonicalized for commutativity by
    /// ordering the operands with [`Self::order_before`], so
    /// `and_exists(f, g, v)` and `and_exists(g, f, v)` share one entry.
    fn and_exists_rec(
        &mut self,
        f: Edge,
        g: Edge,
        mut cube: Edge,
        depth: u32,
    ) -> Result<Edge, BudgetExceeded> {
        self.charge_step()?;
        if depth > MAX_REC_DEPTH {
            return Err(BudgetExceeded::DEPTH);
        }
        // Terminal short-circuits of the conjunction: a zero product never
        // recurses, and a collapsed product degrades to plain `exists`.
        if f.is_zero() || g.is_zero() || f == g.complement() {
            return Ok(Edge::ZERO);
        }
        if f.is_one() || f == g {
            return self.exists_rec(g, cube, depth + 1);
        }
        if g.is_one() {
            return self.exists_rec(f, cube, depth + 1);
        }
        // Skip quantified variables above both operands (ordered BDDs
        // cannot depend on them).
        let top = self.level(f).min(self.level(g));
        while !cube.is_constant() && self.level(cube) < top {
            cube = self.node(cube).hi.complement_if(cube.is_complemented());
        }
        // Cube exhausted: the rest is a plain conjunction.
        if cube.is_constant() {
            return self.ite_rec(f, g, Edge::ZERO, depth + 1);
        }
        // Commutativity canonicalization for the cache key.
        let (f, g) = if self.order_before(g, f) { (g, f) } else { (f, g) };
        if let Some(r) = self.cache.get(Op::AndExists, f, g, cube) {
            return Ok(r);
        }
        let (f1, f0) = self.branches_at(f, top);
        let (g1, g0) = self.branches_at(g, top);
        let r = if self.level(cube) == top {
            let next = self.node(cube).hi.complement_if(cube.is_complemented());
            let t = self.and_exists_rec(f1, g1, next, depth + 1)?;
            // ⊤ absorbs the disjunction: the e-branch is never visited.
            // The `break_and_exists` test hook widens the short-circuit to
            // fire unconditionally — the bug class a wrong short-circuit
            // condition produces — for the `image-equivalence` mutation
            // gate.
            if t.is_one() || self.break_and_exists {
                t
            } else {
                let e = self.and_exists_rec(f0, g0, next, depth + 1)?;
                self.ite_rec(t, Edge::ONE, e, depth + 1)?
            }
        } else {
            let t = self.and_exists_rec(f1, g1, cube, depth + 1)?;
            let e = self.and_exists_rec(f0, g0, cube, depth + 1)?;
            self.mk_checked(top, t, e)?
        };
        self.cache.insert(Op::AndExists, f, g, cube, r);
        Ok(r)
    }

    /// Builds the positive cube `v1 · v2 · …` of a set of variables.
    pub fn cube_of_vars(&mut self, vars: &[Var]) -> Edge {
        // Construct bottom-up in the *current order*: sort by level, then
        // issue the mk calls from the deepest level upwards.
        let mut levels: Vec<Var> = vars.iter().map(|&v| self.level_of_var(v)).collect();
        levels.sort();
        levels.dedup();
        let mut cube = Edge::ONE;
        for &l in levels.iter().rev() {
            cube = self.mk(l, cube, Edge::ZERO);
        }
        cube
    }

    /// Structured cube validation: `Err(BudgetExceeded::INTERNAL)` when
    /// `cube` is not a positive cube. The checked `try_*` quantifiers use
    /// this so a malformed cube reaching a long-running worker degrades to
    /// a status line instead of tripping `catch_unwind`; the infallible
    /// quantifiers keep their documented panic via
    /// [`Self::assert_positive_cube`].
    fn check_positive_cube(&self, mut cube: Edge) -> Result<(), BudgetExceeded> {
        while !cube.is_constant() {
            let n = self.node(cube);
            let (hi, lo) = (
                n.hi.complement_if(cube.is_complemented()),
                n.lo.complement_if(cube.is_complemented()),
            );
            if !lo.is_zero() {
                return Err(BudgetExceeded::INTERNAL);
            }
            cube = hi;
        }
        if cube.is_one() {
            Ok(())
        } else {
            Err(BudgetExceeded::INTERNAL)
        }
    }

    fn assert_positive_cube(&self, cube: Edge) {
        assert!(
            self.check_positive_cube(cube).is_ok(),
            "quantifier argument must be a positive cube"
        );
    }

    /// Substitutes the function `g` for variable `var` in `f` (functional
    /// composition `f[var ← g]`).
    pub fn compose(&mut self, f: Edge, var: Var, g: Edge) -> Edge {
        self.try_compose(f, var, g).expect(BUDGET_PANIC)
    }

    /// Checked [`Bdd::compose`].
    pub fn try_compose(&mut self, f: Edge, var: Var, g: Edge) -> Result<Edge, BudgetExceeded> {
        self.begin_op();
        let level = self.level_of_var(var);
        match self.compose_rec(f, level, g, 0) {
            Ok(r) => Ok(self.end_op(r)),
            Err(e) => {
                self.abort_op();
                Err(e)
            }
        }
    }

    /// `level` is a position in the current order (see [`Self::cofactor_rec`]
    /// for the cache-key convention).
    fn compose_rec(
        &mut self,
        f: Edge,
        level: Var,
        g: Edge,
        depth: u32,
    ) -> Result<Edge, BudgetExceeded> {
        self.charge_step()?;
        if depth > MAX_REC_DEPTH {
            return Err(BudgetExceeded::DEPTH);
        }
        if self.level(f) > level {
            return Ok(f);
        }
        if let Some(r) = self.cache.get(Op::Compose(level.0), f, g, Edge::ZERO) {
            return Ok(r);
        }
        let top = self.level(f);
        let (f1, f0) = self.branches_at(f, top);
        let r = if top == level {
            self.ite_rec(g, f1, f0, depth + 1)?
        } else {
            let t = self.compose_rec(f1, level, g, depth + 1)?;
            let e = self.compose_rec(f0, level, g, depth + 1)?;
            // Cannot use mk: g may have pushed structure above `top`.
            let tv = self.try_var_at_level(top)?;
            self.ite_rec(tv, t, e, depth + 1)?
        };
        self.cache.insert(Op::Compose(level.0), f, g, Edge::ZERO, r);
        Ok(r)
    }

    /// Renames variables: substitutes `to[i]` for `from[i]` simultaneously.
    ///
    /// The mapping must be order-compatible in the sense that pairwise swaps
    /// do not reorder (`from` and `to` sorted consistently); this is the case
    /// for the present/next-state variable interleavings used by the FSM
    /// layer. Implemented by sequential composition from the bottom up.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn rename(&mut self, f: Edge, from: &[Var], to: &[Var]) -> Edge {
        assert_eq!(from.len(), to.len(), "rename arity mismatch");
        let mut pairs: Vec<(Var, Var)> =
            from.iter().copied().zip(to.iter().copied()).collect();
        // Compose deepest source first (deepest in the *current order*) so
        // earlier substitutions cannot be re-captured by later ones.
        pairs.sort_by_key(|p| std::cmp::Reverse(self.level_of_var(p.0)));
        let mut r = f;
        for (src, dst) in pairs {
            let g = self.var(dst);
            r = self.compose(r, src, g);
        }
        r
    }

    /// The support of `f`: the sorted set of variables `f` depends on.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Var};
    /// let mut bdd = Bdd::new(3);
    /// let (a, c) = (bdd.var(Var(0)), bdd.var(Var(2)));
    /// let f = bdd.or(a, c);
    /// assert_eq!(bdd.support(f), vec![Var(0), Var(2)]);
    /// ```
    pub fn support(&self, f: Edge) -> Vec<Var> {
        let mut seen = crate::util::Bitmap::new(self.nodes.len());
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f.regular()];
        while let Some(e) = stack.pop() {
            if e.is_constant() || !seen.insert(e.node().index()) {
                continue;
            }
            let n = self.node(e);
            vars.insert(self.var_at_level(n.var));
            stack.push(n.hi.regular());
            stack.push(n.lo.regular());
        }
        vars.into_iter().collect()
    }

    /// The union of the supports of several functions.
    pub fn support_many(&self, fs: &[Edge]) -> Vec<Var> {
        let mut all = std::collections::BTreeSet::new();
        for &f in fs {
            all.extend(self.support(f));
        }
        all.into_iter().collect()
    }

    /// True if `f` depends on `var`.
    pub fn depends_on(&self, f: Edge, var: Var) -> bool {
        self.support(f).contains(&var)
    }

    /// Evaluates `f` under a total assignment (`assignment[i]` is the value
    /// of `Var(i)`).
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than some variable `f` depends on.
    pub fn eval(&self, f: Edge, assignment: &[bool]) -> bool {
        let mut e = f;
        while !e.is_constant() {
            let n = self.node(e);
            let var = self.var_at_level(n.var);
            let branch = if assignment[var.index()] { n.hi } else { n.lo };
            e = branch.complement_if(e.is_complemented());
        }
        e.is_one()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Bdd, Edge, Edge, Edge) {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        (bdd, a, b, c)
    }

    #[test]
    fn basic_algebra() {
        let (mut bdd, a, b, _) = setup();
        let ab = bdd.and(a, b);
        let ba = bdd.and(b, a);
        assert_eq!(ab, ba);
        assert_eq!(bdd.or(a, a), a);
        assert_eq!(bdd.and(a, a), a);
        assert!(bdd.and(a, bdd.not(a)).is_zero());
        assert!(bdd.or(a, bdd.not(a)).is_one());
    }

    #[test]
    fn de_morgan() {
        let (mut bdd, a, b, _) = setup();
        let lhs = bdd.nand(a, b);
        let na = bdd.not(a);
        let nb = bdd.not(b);
        let rhs = bdd.or(na, nb);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn xor_xnor() {
        let (mut bdd, a, b, _) = setup();
        let x = bdd.xor(a, b);
        let xn = bdd.xnor(a, b);
        assert_eq!(xn, bdd.not(x));
        assert!(bdd.xor(a, a).is_zero());
        assert!(bdd.xnor(a, a).is_one());
    }

    #[test]
    fn ite_is_mux() {
        let (mut bdd, a, b, c) = setup();
        let m = bdd.ite(a, b, c);
        for bits in 0..8u32 {
            let assign = [(bits & 4) != 0, (bits & 2) != 0, (bits & 1) != 0];
            let expect = if assign[0] { assign[1] } else { assign[2] };
            assert_eq!(bdd.eval(m, &assign), expect, "assignment {assign:?}");
        }
    }

    #[test]
    fn implies_holds_checks() {
        let (mut bdd, a, b, _) = setup();
        let ab = bdd.and(a, b);
        let aob = bdd.or(a, b);
        assert!(bdd.implies_holds(ab, a));
        assert!(bdd.implies_holds(a, aob));
        assert!(!bdd.implies_holds(aob, ab));
        assert!(bdd.implies_holds(Edge::ZERO, ab));
        assert!(bdd.implies_holds(ab, Edge::ONE));
    }

    #[test]
    fn cofactor_both_polarities() {
        let (mut bdd, a, b, c) = setup();
        let f = bdd.ite(a, b, c);
        assert_eq!(bdd.cofactor(f, Var(0), true), b);
        assert_eq!(bdd.cofactor(f, Var(0), false), c);
        // Cofactor by a variable not in the support is the identity.
        let g = bdd.and(a, b);
        assert_eq!(bdd.cofactor(g, Var(2), true), g);
    }

    #[test]
    fn shannon_expansion() {
        let (mut bdd, a, b, c) = setup();
        let ab = bdd.and(a, b);
        let f = bdd.xor(ab, c);
        let f1 = bdd.cofactor(f, Var(1), true);
        let f0 = bdd.cofactor(f, Var(1), false);
        let bvar = bdd.var(Var(1));
        let rebuilt = bdd.ite(bvar, f1, f0);
        assert_eq!(rebuilt, f);
    }

    #[test]
    fn exists_forall() {
        let (mut bdd, a, b, c) = setup();
        let f = bdd.and(a, b);
        let cube_b = bdd.cube_of_vars(&[Var(1)]);
        assert_eq!(bdd.exists(f, cube_b), a);
        assert!(bdd.forall(f, cube_b).is_zero());
        let g = bdd.or(f, c);
        let cube_ab = bdd.cube_of_vars(&[Var(0), Var(1)]);
        assert!(bdd.exists(g, cube_ab).is_one());
        assert_eq!(bdd.forall(g, cube_ab), c);
    }

    #[test]
    fn exists_skips_high_vars() {
        let (mut bdd, _, b, c) = setup();
        let f = bdd.and(b, c);
        let cube = bdd.cube_of_vars(&[Var(0), Var(2)]);
        assert_eq!(bdd.exists(f, cube), b);
    }

    #[test]
    #[should_panic(expected = "positive cube")]
    fn exists_rejects_non_cube() {
        let (mut bdd, a, b, _) = setup();
        let non_cube = bdd.or(a, b);
        let f = bdd.and(a, b);
        bdd.exists(f, non_cube);
    }

    #[test]
    fn and_exists_is_image_shape() {
        let (mut bdd, a, b, c) = setup();
        let f = bdd.xnor(a, b);
        let g = bdd.ite(b, c, bdd.not(c));
        let cube = bdd.cube_of_vars(&[Var(1)]);
        let fused = bdd.and_exists(f, g, cube);
        let anded = bdd.and(f, g);
        let separate = bdd.exists(anded, cube);
        assert_eq!(fused, separate);
    }

    /// Deterministic xorshift for the differential sweep below.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Build a pseudo-random function over `n` vars from a seed.
    fn random_fn(bdd: &mut Bdd, n: u32, seed: &mut u64) -> Edge {
        let mut f = if xorshift(seed) & 1 == 0 { Edge::ZERO } else { Edge::ONE };
        for _ in 0..(2 + (xorshift(seed) % 5)) {
            let v = bdd.var(Var((xorshift(seed) % n as u64) as u32));
            let v = if xorshift(seed) & 1 == 0 { bdd.not(v) } else { v };
            f = match xorshift(seed) % 3 {
                0 => bdd.and(f, v),
                1 => bdd.or(f, v),
                _ => bdd.xor(f, v),
            };
        }
        f
    }

    #[test]
    fn fused_matches_unfused_edge_for_edge() {
        for seed0 in 1..=24u64 {
            let mut bdd = Bdd::new(6);
            let mut seed = seed0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let f = random_fn(&mut bdd, 6, &mut seed);
            let g = random_fn(&mut bdd, 6, &mut seed);
            let mask = xorshift(&mut seed) % 63 + 1;
            let vars: Vec<Var> = (0..6).filter(|i| mask & (1 << i) != 0).map(Var).collect();
            let cube = bdd.cube_of_vars(&vars);
            let fused = bdd.and_exists(f, g, cube);
            let anded = bdd.and(f, g);
            let separate = bdd.exists(anded, cube);
            assert_eq!(fused, separate, "seed {seed0} vars {vars:?}");
        }
    }

    #[test]
    fn and_exists_commutative_and_terminal_cases() {
        let (mut bdd, a, b, c) = setup();
        let f = bdd.ite(a, b, c);
        let g = bdd.xor(b, c);
        let cube = bdd.cube_of_vars(&[Var(1), Var(2)]);
        assert_eq!(bdd.and_exists(f, g, cube), bdd.and_exists(g, f, cube));
        // Terminal short-circuits.
        let nf = bdd.not(f);
        assert!(bdd.and_exists(f, nf, cube).is_zero());
        assert!(bdd.and_exists(Edge::ZERO, g, cube).is_zero());
        assert_eq!(bdd.and_exists(Edge::ONE, g, cube), bdd.exists(g, cube));
        assert_eq!(bdd.and_exists(f, f, cube), bdd.exists(f, cube));
        // Cube exhausted (all cube vars above both supports) degrades to and.
        let bc = bdd.and(b, c);
        let cube_a = bdd.cube_of_vars(&[Var(0)]);
        let g2 = bdd.or(b, c);
        let fused = bdd.and_exists(bc, g2, cube_a);
        // a is not in either support, so quantifying it is the identity.
        assert_eq!(fused, bdd.and(bc, g2));
    }

    #[test]
    fn try_and_exists_blown_budget_is_error_not_wrong_edge() {
        let (mut bdd, a, b, c) = setup();
        let f = bdd.ite(a, b, c);
        let g = bdd.xor(a, c);
        let cube = bdd.cube_of_vars(&[Var(1)]);
        let want = bdd.and_exists(f, g, cube);
        bdd.set_budget(crate::Budget::default().steps(1));
        match bdd.try_and_exists(f, g, cube) {
            Err(e) => assert_eq!(e, BudgetExceeded::STEPS),
            Ok(r) => assert_eq!(r, want, "a completed op must still be correct"),
        }
        bdd.clear_budget();
        assert_eq!(bdd.and_exists(f, g, cube), want);
    }

    #[test]
    fn try_quantifiers_degrade_on_malformed_cube() {
        let (mut bdd, a, b, _) = setup();
        let non_cube = bdd.or(a, b);
        let f = bdd.and(a, b);
        assert_eq!(bdd.try_exists(f, non_cube), Err(BudgetExceeded::INTERNAL));
        assert_eq!(bdd.try_forall(f, non_cube), Err(BudgetExceeded::INTERNAL));
        assert_eq!(bdd.try_and_exists(f, b, non_cube), Err(BudgetExceeded::INTERNAL));
        // A negative literal is not a positive cube either.
        let neg = bdd.not(a);
        assert_eq!(bdd.try_exists(f, neg), Err(BudgetExceeded::INTERNAL));
    }

    #[test]
    fn debug_break_and_exists_under_approximates() {
        let (mut bdd, a, b, c) = setup();
        let f = bdd.xnor(a, b);
        let g = bdd.ite(b, c, bdd.not(c));
        let cube = bdd.cube_of_vars(&[Var(1)]);
        let good = bdd.and_exists(f, g, cube);
        bdd.debug_break_and_exists();
        bdd.clear_caches();
        let broken = bdd.and_exists(f, g, cube);
        assert_ne!(broken, good, "the mutant must be observable");
        assert!(bdd.implies_holds(broken, good), "mutant under-approximates");
    }

    #[test]
    fn compose_substitutes() {
        let (mut bdd, a, b, c) = setup();
        let f = bdd.xor(a, b);
        let g = bdd.and(b, c);
        let comp = bdd.compose(f, Var(0), g);
        let expect = bdd.xor(g, b);
        assert_eq!(comp, expect);
    }

    #[test]
    fn compose_above_support_is_identity() {
        let (mut bdd, _, b, c) = setup();
        let f = bdd.and(b, c);
        let g = bdd.or(b, c);
        assert_eq!(bdd.compose(f, Var(0), g), f);
    }

    #[test]
    fn rename_swaps_disjoint_sets() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let f = bdd.and(a, b);
        let r = bdd.rename(f, &[Var(0), Var(1)], &[Var(2), Var(3)]);
        let c = bdd.var(Var(2));
        let d = bdd.var(Var(3));
        assert_eq!(r, bdd.and(c, d));
    }

    #[test]
    fn support_and_depends() {
        let (mut bdd, a, _, c) = setup();
        let f = bdd.ite(a, c, bdd.not(c));
        assert_eq!(bdd.support(f), vec![Var(0), Var(2)]);
        assert!(bdd.depends_on(f, Var(0)));
        assert!(!bdd.depends_on(f, Var(1)));
        assert!(bdd.support(Edge::ONE).is_empty());
    }

    #[test]
    fn support_many_unions() {
        let (mut bdd, a, b, c) = setup();
        let f = bdd.and(a, b);
        let g = bdd.and(b, c);
        assert_eq!(bdd.support_many(&[f, g]), vec![Var(0), Var(1), Var(2)]);
    }

    #[test]
    fn many_variadic() {
        let (mut bdd, a, b, c) = setup();
        let conj = bdd.and_many([a, b, c]);
        let two = bdd.and(a, b);
        let expect = bdd.and(two, c);
        assert_eq!(conj, expect);
        assert!(bdd.and_many([]).is_one());
        assert!(bdd.or_many([]).is_zero());
    }

    #[test]
    fn cube_of_vars_dedups_and_sorts() {
        let mut bdd = Bdd::new(3);
        let c1 = bdd.cube_of_vars(&[Var(2), Var(0), Var(2)]);
        let c2 = bdd.cube_of_vars(&[Var(0), Var(2)]);
        assert_eq!(c1, c2);
    }

    #[test]
    fn eval_matches_truth_table() {
        let (mut bdd, a, b, c) = setup();
        let f = {
            let t = bdd.or(b, c);
            bdd.and(a, t)
        };
        for bits in 0..8u32 {
            let assign = [(bits & 4) != 0, (bits & 2) != 0, (bits & 1) != 0];
            let expect = assign[0] && (assign[1] || assign[2]);
            assert_eq!(bdd.eval(f, &assign), expect);
        }
    }

    #[test]
    fn cofactor_cube_multi() {
        let (mut bdd, a, b, c) = setup();
        let ab = bdd.and(a, b);
        let f = bdd.xor(ab, c);
        let r = bdd.cofactor_cube(f, &[(Var(0), true), (Var(1), true)]);
        assert_eq!(r, bdd.not(c));
    }
}
