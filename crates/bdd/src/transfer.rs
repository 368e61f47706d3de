//! Transferring functions between managers, with variable remapping.
//!
//! Use cases:
//!
//! * **variable-order experiments**: rebuild the same functions under a
//!   different fixed order and compare sizes (the paper fixes the order;
//!   this quantifies how much that choice matters),
//! * **manager compaction**: move the live functions into a fresh manager
//!   by an identity transfer, dropping all dead nodes and cache history.

use std::collections::HashMap;
use std::fmt;

use crate::edge::{Edge, Var};
use crate::manager::Bdd;
use crate::util::FastBuild;

/// A request-reachable defect in a variable mapping handed to
/// [`Bdd::try_transfer`].
///
/// A variable map comes from the outside world (a job's permutation, a
/// CLI flag, an experiment config), so a bad one is an *input* error, not
/// a kernel invariant: long-lived managers must reject it and keep
/// serving. The panicking [`Bdd::transfer`] wrapper is retained for the
/// call sites that construct their own (infallible) maps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TransferError {
    /// Two source variables map to the same target variable, so the
    /// rebuilt function would conflate them.
    NotInjective {
        /// The first source variable seen mapping to `target`.
        first: Var,
        /// The second source variable mapping to `target`.
        second: Var,
        /// The shared image.
        target: Var,
    },
    /// The map sends a support variable outside the target manager's
    /// declared variables.
    UndeclaredTarget {
        /// The source variable being mapped.
        source: Var,
        /// Its (out-of-range) image.
        target: Var,
        /// How many variables the target manager declares.
        declared: usize,
    },
}

impl fmt::Display for TransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TransferError::NotInjective {
                first,
                second,
                target,
            } => write!(
                f,
                "variable map not injective: {first} and {second} both map to {target}"
            ),
            TransferError::UndeclaredTarget {
                source,
                target,
                declared,
            } => write!(
                f,
                "target variable {target} not declared \
                 ({source} maps to it, target manager has {declared} variables)"
            ),
        }
    }
}

impl std::error::Error for TransferError {}

impl Bdd {
    /// Rebuilds `f` (a function of *this* manager) inside `target`,
    /// mapping each source variable `v` to `var_map(v)`. Returns the
    /// corresponding edge of `target`.
    ///
    /// The mapping may permute variables arbitrarily — the function is
    /// reconstructed semantically (Shannon expansion in the target order),
    /// not structurally, so any injective mapping is valid. The two
    /// managers do **not** need to share a variable order: expansion
    /// follows the target's current (possibly reordered) levels. The
    /// source manager is `&mut` because intermediate cofactors are
    /// hash-consed into it.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is not injective on the support of `f`, or
    /// maps to undeclared target variables. Call [`Bdd::try_transfer`]
    /// instead when the map comes from untrusted input.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Var};
    /// let mut src = Bdd::with_names(&["a", "b"]);
    /// let a = src.var(Var(0));
    /// let b = src.var(Var(1));
    /// let f = src.and(a, b);
    ///
    /// let mut dst = Bdd::with_names(&["x", "y", "z"]);
    /// // a -> z, b -> x (order reversed in the target).
    /// let g = src.transfer(f, &mut dst, |v| Var(2 - 2 * v.0));
    /// assert!(dst.eval(g, &[true, false, true]));
    /// assert!(!dst.eval(g, &[false, false, true]));
    /// ```
    pub fn transfer(&mut self, f: Edge, target: &mut Bdd, var_map: impl Fn(Var) -> Var) -> Edge {
        match self.try_transfer(f, target, var_map) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Bdd::transfer`] with the variable map validated instead of
    /// trusted: a non-injective map or one that maps support variables to
    /// undeclared target variables returns a structured
    /// [`TransferError`], leaving both managers untouched, so a malformed
    /// request cannot kill a long-lived manager.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, TransferError, Var};
    /// let mut src = Bdd::new(2);
    /// let a = src.var(Var(0));
    /// let b = src.var(Var(1));
    /// let f = src.and(a, b);
    /// let mut dst = Bdd::new(2);
    /// // A malicious identity-collapsing map is rejected, not fatal.
    /// let err = src.try_transfer(f, &mut dst, |_| Var(0)).unwrap_err();
    /// assert!(matches!(err, TransferError::NotInjective { .. }));
    /// // The managers still work.
    /// let g = src.try_transfer(f, &mut dst, |v| v).unwrap();
    /// assert_eq!(dst.size(g), src.size(f));
    /// ```
    pub fn try_transfer(
        &mut self,
        f: Edge,
        target: &mut Bdd,
        var_map: impl Fn(Var) -> Var,
    ) -> Result<Edge, TransferError> {
        // Map the support and check injectivity. Validation completes
        // before any node is built, so an error leaves no side effects.
        let support = self.support(f);
        let mut mapping: HashMap<Var, Var> = HashMap::new();
        let mut used: HashMap<Var, Var> = HashMap::new();
        for &v in &support {
            let t = var_map(v);
            if t.index() >= target.num_vars() {
                return Err(TransferError::UndeclaredTarget {
                    source: v,
                    target: t,
                    declared: target.num_vars(),
                });
            }
            if let Some(&prev) = used.get(&t) {
                return Err(TransferError::NotInjective {
                    first: prev,
                    second: v,
                    target: t,
                });
            }
            used.insert(t, v);
            mapping.insert(v, t);
        }
        // Expand source variables in TARGET level order so the target BDD
        // can be built bottom-up with plain ite over its own order. Sorting
        // by the target's *current* levels (not identities) keeps transfer
        // correct and efficient when either manager has been reordered.
        let mut by_target: Vec<(Var, Var)> = mapping.iter().map(|(&s, &t)| (t, s)).collect();
        by_target.sort_by_key(|&(t, s)| (target.level_of_var(t), s));
        let plan: Vec<(Var, Var)> = by_target; // (target var, source var)
        let mut memo: HashMap<(Edge, usize), Edge, FastBuild> = HashMap::default();
        Ok(self.transfer_rec(f, target, &plan, 0, &mut memo))
    }

    fn transfer_rec(
        &mut self,
        f: Edge,
        target: &mut Bdd,
        plan: &[(Var, Var)],
        depth: usize,
        memo: &mut HashMap<(Edge, usize), Edge, FastBuild>,
    ) -> Edge {
        if f.is_constant() {
            return f; // ONE/ZERO are identical edges in every manager
        }
        debug_assert!(depth < plan.len(), "non-constant with empty support");
        if let Some(&r) = memo.get(&(f, depth)) {
            return r;
        }
        let (tv, sv) = plan[depth];
        let f1 = self.cofactor(f, sv, true);
        let f0 = self.cofactor(f, sv, false);
        let r = if f1 == f0 {
            self.transfer_rec(f1, target, plan, depth + 1, memo)
        } else {
            let t = self.transfer_rec(f1, target, plan, depth + 1, memo);
            let e = self.transfer_rec(f0, target, plan, depth + 1, memo);
            let tvar = target.var(tv);
            target.ite(tvar, t, e)
        };
        memo.insert((f, depth), r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_transfer_preserves_structure() {
        let mut src = Bdd::new(4);
        let a = src.var(Var(0));
        let b = src.var(Var(1));
        let c = src.var(Var(2));
        let ab = src.and(a, b);
        let f = src.xor(ab, c);
        let mut dst = Bdd::new(4);
        let g = src.transfer(f, &mut dst, |v| v);
        assert_eq!(dst.size(g), src.size(f));
        for bits in 0..16u32 {
            let assign: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(src.eval(f, &assign), dst.eval(g, &assign));
        }
    }

    #[test]
    fn permuted_transfer_is_semantically_correct() {
        let mut src = Bdd::new(3);
        let a = src.var(Var(0));
        let b = src.var(Var(1));
        let c = src.var(Var(2));
        let bc = src.or(b, c);
        let f = src.and(a, bc);
        // Reverse the order: a->2, b->1, c->0.
        let mut dst = Bdd::new(3);
        let g = src.transfer(f, &mut dst, |v| Var(2 - v.0));
        for bits in 0..8u32 {
            let assign: Vec<bool> = (0..3).map(|i| bits >> (2 - i) & 1 == 1).collect();
            // src vars: a=assign[0], b=assign[1], c=assign[2]
            // dst vars: position 2-i
            let dst_assign = vec![assign[2], assign[1], assign[0]];
            assert_eq!(src.eval(f, &assign), dst.eval(g, &dst_assign));
        }
    }

    #[test]
    fn order_changes_size_for_achilles_function() {
        // f = a1·b1 + a2·b2 + a3·b3 under interleaved vs separated order.
        let n = 3;
        let mut sep = Bdd::new(2 * n); // a1..a3 then b1..b3
        let mut f_sep = Edge::ZERO;
        for i in 0..n {
            let ai = sep.var(Var(i as u32));
            let bi = sep.var(Var((n + i) as u32));
            let t = sep.and(ai, bi);
            f_sep = sep.or(f_sep, t);
        }
        // Transfer to interleaved order: ai -> 2i, bi -> 2i+1.
        let mut inter = Bdd::new(2 * n);
        let g = sep.transfer(f_sep, &mut inter, |v| {
            let i = v.index();
            if i < n {
                Var((2 * i) as u32)
            } else {
                Var((2 * (i - n) + 1) as u32)
            }
        });
        assert!(
            inter.size(g) < sep.size(f_sep),
            "interleaving should shrink: {} vs {}",
            inter.size(g),
            sep.size(f_sep)
        );
    }

    #[test]
    fn constants_transfer_trivially() {
        let mut src = Bdd::new(2);
        let mut dst = Bdd::new(2);
        assert_eq!(src.transfer(Edge::ONE, &mut dst, |v| v), Edge::ONE);
        assert_eq!(src.transfer(Edge::ZERO, &mut dst, |v| v), Edge::ZERO);
    }

    #[test]
    #[should_panic(expected = "not injective")]
    fn non_injective_map_panics() {
        let mut src = Bdd::new(2);
        let a = src.var(Var(0));
        let b = src.var(Var(1));
        let f = src.and(a, b);
        let mut dst = Bdd::new(2);
        let _ = src.transfer(f, &mut dst, |_| Var(0));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn out_of_range_target_panics() {
        let mut src = Bdd::new(2);
        let a = src.var(Var(0));
        let mut dst = Bdd::new(1);
        let _ = src.transfer(a, &mut dst, |_| Var(5));
    }

    #[test]
    fn try_transfer_rejects_bad_maps_and_keeps_managers_alive() {
        let mut src = Bdd::new(3);
        let a = src.var(Var(0));
        let b = src.var(Var(1));
        let f = src.and(a, b);
        let mut dst = Bdd::new(2);
        // Non-injective: both support variables collapse onto v0.
        let err = src.try_transfer(f, &mut dst, |_| Var(0)).unwrap_err();
        match err {
            TransferError::NotInjective {
                first,
                second,
                target,
            } => {
                assert_eq!(first, Var(0));
                assert_eq!(second, Var(1));
                assert_eq!(target, Var(0));
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert!(err.to_string().contains("not injective"), "{err}");
        // Out-of-range image carries the full context.
        let err = src.try_transfer(f, &mut dst, |v| Var(v.0 + 7)).unwrap_err();
        match err {
            TransferError::UndeclaredTarget {
                source,
                target,
                declared,
            } => {
                assert_eq!(source, Var(0));
                assert_eq!(target, Var(7));
                assert_eq!(declared, 2);
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert!(err.to_string().contains("not declared"), "{err}");
        // The rejections are side-effect free: the same managers still
        // serve well-formed requests (the long-lived-manager contract).
        let g = src.try_transfer(f, &mut dst, |v| v).unwrap();
        assert_eq!(dst.size(g), src.size(f));
        for bits in 0..4u32 {
            let assign: Vec<bool> = (0..2).map(|i| bits >> i & 1 == 1).collect();
            let mut full = assign.clone();
            full.push(false);
            assert_eq!(src.eval(f, &full), dst.eval(g, &assign));
        }
    }

    #[test]
    fn compaction_drops_garbage() {
        let mut bdd = Bdd::new(6);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let keep = bdd.xnor(a, b);
        // Scratch garbage.
        for i in 2..6 {
            let v = bdd.var(Var(i));
            let w = bdd.var(Var(i - 1));
            let _ = bdd.xor(v, w);
        }
        let before = bdd.stats().live_nodes;
        // An identity transfer into a fresh manager carries only `keep`.
        let mut fresh = Bdd::new(bdd.num_vars());
        let moved = bdd.transfer(keep, &mut fresh, |v| v);
        assert!(fresh.stats().live_nodes < before);
        assert_eq!(fresh.size(moved), bdd.size(keep));
    }
}
