//! Instrumented breadth-first reachability with frontier minimization —
//! the instance generator of the paper's experiments (Section 4.1.1).
//!
//! At each BFS step with frontier `U` and reached set `R`, any state set
//! `S` with `U ≤ S ≤ U + R` may be used for the next image computation
//! (re-exploring reached states is harmless). Choosing an `S` whose BDD is
//! small is exactly the EBM instance `[f = U, c = U + ¬R]`. The paper
//! intercepts each such call inside SIS `verify_fsm`; here the hook is
//! explicit: every instance is handed to a [`MinimizeHook`], whose returned
//! cover actually drives the traversal (the default hook is `constrain`,
//! matching SIS).

use bddmin_bdd::{Bdd, Edge};
use bddmin_core::Isf;

use crate::symbolic::{ImageMethod, SymbolicFsm};

/// Callback invoked on every frontier-minimization opportunity.
///
/// Receives the manager and the EBM instance `[f = U, c = U + ¬R]`; must
/// return a cover of the instance (this is checked in debug builds).
pub type MinimizeHook<'a> = dyn FnMut(&mut Bdd, Isf) -> Edge + 'a;

/// Result of a reachability run.
#[derive(Clone, Debug, PartialEq)]
pub struct ReachStats {
    /// The reached state set (over present variables).
    pub reached: Edge,
    /// BFS depth (number of image computations).
    pub iterations: usize,
    /// Peak BDD size of the minimized frontier actually used.
    pub peak_frontier_size: usize,
    /// Sum over iterations of the minimized frontier sizes.
    pub total_frontier_size: usize,
}

/// Breadth-first symbolic reachability with a minimization hook.
///
/// # Example
///
/// ```
/// use bddmin_fsm::{generators, Reachability, SymbolicFsm};
///
/// let circuit = generators::counter("c", 3);
/// let mut fsm = SymbolicFsm::new(&circuit);
/// let stats = Reachability::new().run(&mut fsm);
/// assert_eq!(stats.iterations, 8); // 8 states, one new state per step
/// ```
#[derive(Default)]
pub struct Reachability<'a> {
    hook: Option<Box<MinimizeHook<'a>>>,
    max_iterations: Option<usize>,
    image_method: Option<ImageMethod>,
}

impl<'a> Reachability<'a> {
    /// A traversal using plain `constrain` for frontier minimization (the
    /// SIS default) and the monolithic-relation image.
    pub fn new() -> Reachability<'a> {
        Reachability {
            hook: None,
            max_iterations: None,
            image_method: None,
        }
    }

    /// Selects the image computation method (default: monolithic relation
    /// through the fused `and_exists`).
    #[must_use]
    pub fn image_method(mut self, method: ImageMethod) -> Reachability<'a> {
        self.image_method = Some(method);
        self
    }

    /// Installs a custom minimization hook.
    #[must_use]
    pub fn with_hook(mut self, hook: impl FnMut(&mut Bdd, Isf) -> Edge + 'a) -> Reachability<'a> {
        self.hook = Some(Box::new(hook));
        self
    }

    /// Caps the number of BFS iterations (for bounded exploration).
    #[must_use]
    pub fn max_iterations(mut self, n: usize) -> Reachability<'a> {
        self.max_iterations = Some(n);
        self
    }

    /// Runs the traversal to a fixpoint (or the iteration cap).
    pub fn run(mut self, fsm: &mut SymbolicFsm) -> ReachStats {
        let init = fsm.initial_states();
        let mut reached = init;
        let mut frontier = init;
        let mut iterations = 0;
        let mut peak = 0;
        let mut total = 0;
        while !frontier.is_zero() {
            if let Some(cap) = self.max_iterations {
                if iterations >= cap {
                    break;
                }
            }
            // EBM instance: f = frontier, c = frontier + ¬reached.
            let care = {
                let bdd = fsm.bdd_mut();
                let not_reached = bdd.not(reached);
                bdd.or(frontier, not_reached)
            };
            let isf = Isf::new(frontier, care);
            let minimized = match self.hook.as_mut() {
                Some(hook) => {
                    let m = hook(fsm.bdd_mut(), isf);
                    debug_assert!(isf.is_cover(fsm.bdd_mut(), m), "hook returned a non-cover");
                    m
                }
                None => fsm.bdd_mut().constrain(isf.f, isf.c),
            };
            let msize = fsm.bdd().size(minimized);
            peak = peak.max(msize);
            total += msize;
            let method = self.image_method.unwrap_or(ImageMethod::Mono);
            let image = fsm.image_with(method, minimized);
            let new_reached = fsm.bdd_mut().or(reached, image);
            frontier = {
                let bdd = fsm.bdd_mut();
                let not_reached = bdd.not(reached);
                bdd.and(image, not_reached)
            };
            reached = new_reached;
            iterations += 1;
        }
        ReachStats {
            reached,
            iterations,
            peak_frontier_size: peak,
            total_frontier_size: total,
        }
    }
}

/// Checks equivalence of two machines by product-machine reachability,
/// using the given minimization hook for the traversal. Returns `Ok(depth)`
/// if equivalent, or `Err(depth)` of the iteration at which a miter output
/// became reachable.
///
/// This is the analogue of SIS `verify_fsm -m product` used by the paper's
/// experiments.
///
/// # Example
///
/// ```
/// use bddmin_fsm::{generators, verify_fsm_equivalence, with_flipped_latch};
///
/// let a = generators::counter("c", 2);
/// let b = generators::counter("c_copy", 2);
/// assert!(verify_fsm_equivalence(&a, &b, None).is_ok());
///
/// let bad = with_flipped_latch(&a, 0);
/// assert!(verify_fsm_equivalence(&a, &bad, None).is_err());
/// ```
pub fn verify_fsm_equivalence(
    a: &crate::circuit::Circuit,
    b: &crate::circuit::Circuit,
    hook: Option<&mut MinimizeHook<'_>>,
) -> Result<usize, usize> {
    verify_fsm_equivalence_with(a, b, hook, ImageMethod::Mono)
}

/// [`verify_fsm_equivalence`] with an explicit image computation method
/// (the CLI's `--image {mono,range}` flag). Both methods visit the same
/// state sets, so the verdict and depth are method-invariant.
pub fn verify_fsm_equivalence_with(
    a: &crate::circuit::Circuit,
    b: &crate::circuit::Circuit,
    hook: Option<&mut MinimizeHook<'_>>,
    method: ImageMethod,
) -> Result<usize, usize> {
    let prod = crate::product::product_circuit(a, b);
    let mut fsm = SymbolicFsm::new(&prod);
    let miter = {
        let outs = fsm.output_fns().to_vec();
        fsm.bdd_mut().or_many(outs)
    };
    let init = fsm.initial_states();
    let mut reached = init;
    let mut frontier = init;
    let mut depth = 0;
    let mut hook = hook;
    loop {
        // Check the frontier for miter violations (any input raising a
        // miter from a reachable state).
        let bad = fsm.bdd_mut().and(frontier, miter);
        if !bad.is_zero() {
            return Err(depth);
        }
        if frontier.is_zero() {
            return Ok(depth);
        }
        let care = {
            let bdd = fsm.bdd_mut();
            let not_reached = bdd.not(reached);
            bdd.or(frontier, not_reached)
        };
        let isf = Isf::new(frontier, care);
        let minimized = match hook.as_mut() {
            Some(h) => h(fsm.bdd_mut(), isf),
            None => fsm.bdd_mut().constrain(isf.f, isf.c),
        };
        let image = fsm.image_with(method, minimized);
        let new_reached = fsm.bdd_mut().or(reached, image);
        frontier = {
            let bdd = fsm.bdd_mut();
            let not_reached = bdd.not(reached);
            bdd.and(image, not_reached)
        };
        reached = new_reached;
        depth += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::product::with_flipped_latch;
    use bddmin_core::Heuristic;

    #[test]
    fn reachability_matches_naive() {
        let c = generators::counter("c", 4);
        let mut fsm1 = SymbolicFsm::new(&c);
        let naive = {
            let init = fsm1.initial_states();
            fsm1.reachable_from(init)
        };
        let mut fsm2 = SymbolicFsm::new(&c);
        let stats = Reachability::new().run(&mut fsm2);
        // Same manager layout (fresh managers over the same circuit), so
        // the reached sets must be literally equal.
        assert_eq!(stats.reached, naive);
        assert_eq!(stats.iterations, 16);
    }

    #[test]
    fn hook_sees_instances_and_controls_traversal() {
        let c = generators::counter("c", 3);
        let mut fsm = SymbolicFsm::new(&c);
        let mut instances = Vec::new();
        let stats = Reachability::new()
            .with_hook(|bdd, isf| {
                instances.push((bdd.size(isf.f), bdd.size(isf.c)));
                // Use restrict instead of constrain.
                bdd.restrict(isf.f, isf.c)
            })
            .run(&mut fsm);
        assert_eq!(stats.iterations, 8);
        assert_eq!(instances.len(), 8);
        assert_eq!(fsm.count_states(stats.reached), 8.0);
    }

    #[test]
    fn any_cover_gives_same_reached_set() {
        // The whole point of the DC freedom: every heuristic leads to the
        // same fixpoint.
        let c = generators::lfsr("l", 4, 0b1001);
        let mut reference = None;
        for h in [
            Heuristic::Constrain,
            Heuristic::Restrict,
            Heuristic::OsmBt,
            Heuristic::TsmTd,
        ] {
            let mut fsm = SymbolicFsm::new(&c);
            let stats = Reachability::new()
                .with_hook(move |bdd, isf| h.minimize(bdd, isf))
                .run(&mut fsm);
            let count = fsm.count_states(stats.reached);
            match reference {
                None => reference = Some(count),
                Some(r) => assert_eq!(r, count, "{h} changed the fixpoint"),
            }
        }
    }

    #[test]
    fn iteration_cap_respected() {
        let c = generators::counter("c", 5);
        let mut fsm = SymbolicFsm::new(&c);
        let stats = Reachability::new().max_iterations(3).run(&mut fsm);
        assert_eq!(stats.iterations, 3);
        assert!(fsm.count_states(stats.reached) <= 8.0);
    }

    #[test]
    fn equivalence_check_self() {
        let a = generators::traffic_light();
        let b = generators::traffic_light();
        assert!(verify_fsm_equivalence(&a, &b, None).is_ok());
    }

    #[test]
    fn equivalence_check_detects_flip() {
        let a = generators::counter("c", 3);
        let bad = with_flipped_latch(&a, 2);
        assert!(verify_fsm_equivalence(&a, &bad, None).is_err());
    }

    #[test]
    fn traversal_is_image_method_invariant() {
        let c = generators::lfsr("l", 5, 0b10010);
        let mut reference = None;
        for method in ImageMethod::ALL {
            let mut fsm = SymbolicFsm::new(&c);
            let stats = Reachability::new().image_method(method).run(&mut fsm);
            // Fresh managers over the same circuit: identical layout, so
            // the reached edges must be literally equal.
            match reference.take() {
                None => reference = Some(stats.clone()),
                Some(r) => {
                    assert_eq!(r, stats, "method {method} changed the traversal");
                    reference = Some(r);
                }
            }
        }
    }

    #[test]
    fn equivalence_verdict_is_image_method_invariant() {
        let a = generators::counter("c", 3);
        let b = generators::counter("c2", 3);
        let bad = with_flipped_latch(&a, 1);
        let want = verify_fsm_equivalence(&a, &b, None);
        assert!(want.is_ok());
        for method in ImageMethod::ALL {
            assert_eq!(
                verify_fsm_equivalence_with(&a, &b, None, method),
                want,
                "method {method}"
            );
            assert!(verify_fsm_equivalence_with(&a, &bad, None, method).is_err());
        }
    }

    #[test]
    fn equivalence_with_custom_hook() {
        let a = generators::counter("c", 2);
        let b = generators::counter("c2", 2);
        let mut calls = 0usize;
        let mut hook = |bdd: &mut Bdd, isf: Isf| {
            calls += 1;
            Heuristic::OsmBt.minimize(bdd, isf)
        };
        let r = verify_fsm_equivalence(&a, &b, Some(&mut hook));
        assert!(r.is_ok());
        assert!(calls > 0);
    }
}
