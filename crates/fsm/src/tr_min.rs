//! Transition-relation minimization with respect to unreachable states —
//! the paper's second listed application: "minimizing the transition
//! relation of an FSM with respect to the unreachable states".
//!
//! Once the reachable set `R` is known, the transition relation only ever
//! gets queried at present states inside `R`; its value on `¬R` is a
//! don't care. Minimizing `[T, R(ps)]` can shrink `T` substantially, and
//! any cover is sound for all subsequent image computations from
//! reachable state sets — both facts verified by the tests here.

use bddmin_bdd::{Budget, Edge};
use bddmin_core::{Heuristic, Isf};

use crate::symbolic::SymbolicFsm;

/// Result of a transition-relation minimization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrMinimization {
    /// The minimized relation.
    pub relation: Edge,
    /// Size of the original relation.
    pub original_size: usize,
    /// Size of the minimized relation.
    pub minimized_size: usize,
}

impl SymbolicFsm {
    /// Minimizes the transition relation against the unreachable-state
    /// don't cares: any cover of `[T, R]` (care = the reachable set over
    /// present variables) agrees with `T` on every reachable present
    /// state, so images computed from subsets of `R` are unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `reached` is the zero function (no reachable states).
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_core::Heuristic;
    /// use bddmin_fsm::{generators, SymbolicFsm};
    ///
    /// let circuit = generators::traffic_light();
    /// let mut fsm = SymbolicFsm::new(&circuit);
    /// let reached = {
    ///     let init = fsm.initial_states();
    ///     fsm.reachable_from(init)
    /// };
    /// let m = fsm.minimize_transition_relation(reached, Heuristic::Restrict);
    /// assert!(m.minimized_size <= m.original_size);
    /// ```
    pub fn minimize_transition_relation(
        &mut self,
        reached: Edge,
        heuristic: Heuristic,
    ) -> TrMinimization {
        assert!(!reached.is_zero(), "reachable set must be non-empty");
        let t = self.transition_relation();
        let original_size = self.bdd().size(t);
        let isf = Isf::new(t, reached);
        let (relation, _) = heuristic.minimize_budgeted(self.bdd_mut(), isf, Budget::UNLIMITED);
        TrMinimization {
            relation,
            original_size,
            minimized_size: self.bdd().size(relation),
        }
    }

    /// Image computation through an explicitly supplied transition
    /// relation (e.g. one produced by
    /// [`SymbolicFsm::minimize_transition_relation`]).
    pub fn image_via(&mut self, relation: Edge, states: Edge) -> Edge {
        let quant = self.img_quant_cube();
        let ns_image = self.bdd_mut().and_exists(relation, states, quant);
        let next = self.next_vars().to_vec();
        let present = self.present_vars().to_vec();
        self.bdd_mut().rename(ns_image, &next, &present)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn reachable(fsm: &mut SymbolicFsm) -> Edge {
        let init = fsm.initial_states();
        fsm.reachable_from(init)
    }

    #[test]
    fn minimized_relation_preserves_images_from_reachable_sets() {
        for circuit in [
            generators::traffic_light(),
            generators::counter("c", 4),
            generators::random_fsm("r", 5, 4, 31),
        ] {
            let mut fsm = SymbolicFsm::new(&circuit);
            let reached = reachable(&mut fsm);
            for h in [Heuristic::Constrain, Heuristic::Restrict, Heuristic::OsmBt] {
                let m = fsm.minimize_transition_relation(reached, h);
                // Image from the full reachable set is identical.
                let via_min = fsm.image_via(m.relation, reached);
                let via_orig = fsm.image(reached);
                assert_eq!(via_min, via_orig, "{h} broke the image on {circuit}");
                // And from the initial state alone.
                let init = fsm.initial_states();
                let one_min = fsm.image_via(m.relation, init);
                let one_orig = fsm.image(init);
                assert_eq!(one_min, one_orig);
            }
        }
    }

    #[test]
    fn minimization_never_grows_the_relation() {
        let circuit = generators::random_fsm("r", 6, 4, 77);
        let mut fsm = SymbolicFsm::new(&circuit);
        let reached = reachable(&mut fsm);
        for h in Heuristic::SIBLING {
            let m = fsm.minimize_transition_relation(reached, h);
            assert!(
                m.minimized_size <= m.original_size,
                "{h}: {} > {}",
                m.minimized_size,
                m.original_size
            );
        }
    }

    #[test]
    fn unreachable_rich_machine_shrinks() {
        // An LFSR without external seed visits a small orbit: most of the
        // state space is unreachable, so the relation should shrink.
        let mut b = crate::circuit::CircuitBuilder::new("orbit");
        let qs: Vec<_> = (0..5).map(|i| b.latch(&format!("s{i}"), i == 0)).collect();
        // Pure rotation: s0 <- s4, s_{i} <- s_{i-1}.
        let buf4 = b.gate(crate::circuit::GateKind::Buf, &[qs[4]]);
        b.connect_latch(qs[0], buf4);
        for i in 1..5 {
            let buf = b.gate(crate::circuit::GateKind::Buf, &[qs[i - 1]]);
            b.connect_latch(qs[i], buf);
        }
        b.output("o", qs[0]);
        let circuit = b.build();
        let mut fsm = SymbolicFsm::new(&circuit);
        let reached = reachable(&mut fsm);
        // 5-state orbit of the one-hot pattern.
        assert_eq!(fsm.count_states(reached), 5.0);
        let m = fsm.minimize_transition_relation(reached, Heuristic::Restrict);
        assert!(
            m.minimized_size < m.original_size,
            "expected shrink: {} vs {}",
            m.minimized_size,
            m.original_size
        );
    }

    #[test]
    fn fixpoint_stable_under_minimized_relation() {
        // Re-running reachability with the minimized relation from init
        // yields the same fixpoint.
        let circuit = generators::lfsr("l", 4, 0b0011);
        let mut fsm = SymbolicFsm::new(&circuit);
        let reached = reachable(&mut fsm);
        let m = fsm.minimize_transition_relation(reached, Heuristic::TsmTd);
        let mut set = fsm.initial_states();
        loop {
            let img = fsm.image_via(m.relation, set);
            let next = fsm.bdd_mut().or(set, img);
            if next == set {
                break;
            }
            set = next;
        }
        assert_eq!(set, reached);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_reachable_set_panics() {
        let circuit = generators::counter("c", 2);
        let mut fsm = SymbolicFsm::new(&circuit);
        fsm.minimize_transition_relation(Edge::ZERO, Heuristic::Restrict);
    }
}
