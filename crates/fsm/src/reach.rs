//! The frontier fixpoint of the paper's application, and its three
//! configurations (Sections 1 and 4.1.1).
//!
//! At each BFS step with frontier `U` and reached set `R`, any state set
//! `S` with `U ≤ S ≤ U + R` may be used for the next image computation
//! (re-exploring reached states is harmless). Choosing an `S` whose BDD is
//! small is exactly the EBM instance `[f = U, c = U + ¬R]`; SIS
//! `verify_fsm -m product` answers it with `constrain`.
//!
//! [`frontier_fixpoint`] is the one implementation of that loop. Each
//! iteration runs, in order:
//!
//! 1. the care set `U + ¬R`;
//! 2. minimize: [`FrontierSteps::minimize`] picks the `S` to image
//!    (default `constrain`);
//! 3. image: [`FrontierSteps::image`] (default
//!    [`SymbolicFsm::image_with`]);
//! 4. `R ← R + img`, `U ← img·¬R`, and the iteration count;
//! 5. the quiescent point: [`FrontierSteps::quiescent`], where only `R`
//!    and `U` are live (default nothing).
//!
//! [`FrontierSteps::stop`] sees every frontier before the emptiness test.
//! The callers configure only what differs:
//!
//! - [`Reachability`]: an optional minimize hook, whose covers it sizes;
//! - [`verify_fsm_equivalence_with`]: an optional hook and a stop on the
//!   miter;
//! - the evaluation crate's `runner::traverse`: minimize and image steps
//!   that hand every `constrain` call to its sink, and garbage collection
//!   plus optional reordering at the quiescent point.
//!
//! Only the evaluation traversal collects garbage.

use bddmin_bdd::{Bdd, Edge};
use bddmin_core::Isf;

use crate::symbolic::{ImageMethod, SymbolicFsm};

/// Callback invoked on every frontier-minimization opportunity.
///
/// Receives the manager and the EBM instance `[f = U, c = U + ¬R]`; must
/// return a cover of the instance (this is checked in debug builds).
pub type MinimizeHook<'a> = dyn FnMut(&mut Bdd, Isf) -> Edge + 'a;

/// The steps of [`frontier_fixpoint`] that differ between its callers.
/// Each default is the plain SIS step.
pub trait FrontierSteps {
    /// Step 2: a cover of the frontier instance `[U, U + ¬R]` (the care
    /// set is `isf.c`) to take the image of, at BFS `iteration`.
    fn minimize(&mut self, fsm: &mut SymbolicFsm, isf: Isf, _iteration: usize) -> Edge {
        fsm.bdd_mut().constrain(isf.f, isf.c)
    }

    /// Step 3: the image of the minimized frontier `states`.
    fn image(
        &mut self,
        fsm: &mut SymbolicFsm,
        method: ImageMethod,
        states: Edge,
        _iteration: usize,
    ) -> Edge {
        fsm.image_with(method, states)
    }

    /// Ends the traversal when true; tested on each frontier, the initial
    /// one and the final empty one included, before the emptiness test.
    fn stop(&mut self, _fsm: &mut SymbolicFsm, _frontier: Edge) -> bool {
        false
    }

    /// Step 5, after the update: `reached` and `frontier` are the
    /// traversal's only live state.
    fn quiescent(&mut self, _fsm: &mut SymbolicFsm, _reached: Edge, _frontier: Edge) {}
}

/// Where [`frontier_fixpoint`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fixpoint {
    /// The reached state set (over present variables).
    pub reached: Edge,
    /// BFS depth: the number of image computations.
    pub iterations: usize,
    /// True when [`FrontierSteps::stop`] ended the traversal.
    pub stopped: bool,
}

/// Breadth-first traversal of `fsm` from its initial states until the
/// frontier is empty, `steps` stops it, or `max_iterations` images have
/// been computed. See the module docs for the order of the steps.
pub fn frontier_fixpoint(
    fsm: &mut SymbolicFsm,
    method: ImageMethod,
    max_iterations: Option<usize>,
    steps: &mut impl FrontierSteps,
) -> Fixpoint {
    let mut reached = fsm.initial_states();
    let mut frontier = reached;
    let mut iterations = 0;
    let stopped = loop {
        if steps.stop(fsm, frontier) {
            break true;
        }
        if frontier.is_zero() || max_iterations.is_some_and(|cap| iterations >= cap) {
            break false;
        }
        let not_reached = fsm.bdd().not(reached);
        let care = fsm.bdd_mut().or(frontier, not_reached);
        let cover = steps.minimize(fsm, Isf::new(frontier, care), iterations);
        let image = steps.image(fsm, method, cover, iterations);
        reached = fsm.bdd_mut().or(reached, image);
        frontier = fsm.bdd_mut().and(image, not_reached);
        iterations += 1;
        steps.quiescent(fsm, reached, frontier);
    };
    Fixpoint {
        reached,
        iterations,
        stopped,
    }
}

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
        let mut steps = CoverSizes {
            hook: self.hook.as_deref_mut(),
            peak: 0,
            total: 0,
        };
        let method = self.image_method.unwrap_or(ImageMethod::Mono);
        let end = frontier_fixpoint(fsm, method, self.max_iterations, &mut steps);
        ReachStats {
            reached: end.reached,
            iterations: end.iterations,
            peak_frontier_size: steps.peak,
            total_frontier_size: steps.total,
        }
    }
}

/// The caller's hook, or `constrain` (the SIS choice) without one.
fn hook_or_constrain(hook: &mut Option<&mut MinimizeHook<'_>>, bdd: &mut Bdd, isf: Isf) -> Edge {
    match hook {
        Some(hook) => hook(bdd, isf),
        None => bdd.constrain(isf.f, isf.c),
    }
}

/// [`Reachability`]'s configuration: the hook (or `constrain`), whose
/// covers it sizes.
struct CoverSizes<'h, 'a> {
    hook: Option<&'h mut MinimizeHook<'a>>,
    peak: usize,
    total: usize,
}

impl FrontierSteps for CoverSizes<'_, '_> {
    fn minimize(&mut self, fsm: &mut SymbolicFsm, isf: Isf, _iteration: usize) -> Edge {
        let bdd = fsm.bdd_mut();
        let cover = hook_or_constrain(&mut self.hook, bdd, isf);
        debug_assert!(
            self.hook.is_none() || isf.is_cover(bdd, cover),
            "hook returned a non-cover"
        );
        let size = bdd.size(cover);
        self.peak = self.peak.max(size);
        self.total += size;
        cover
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
    let end = frontier_fixpoint(&mut fsm, method, None, &mut Miter { hook, miter });
    if end.stopped {
        Err(end.iterations)
    } else {
        Ok(end.iterations)
    }
}

/// The equivalence check's configuration: the hook (or `constrain`), and
/// a stop at the first frontier from which some input raises the miter.
struct Miter<'h, 'a> {
    hook: Option<&'h mut MinimizeHook<'a>>,
    miter: Edge,
}

impl FrontierSteps for Miter<'_, '_> {
    fn minimize(&mut self, fsm: &mut SymbolicFsm, isf: Isf, _iteration: usize) -> Edge {
        hook_or_constrain(&mut self.hook, fsm.bdd_mut(), isf)
    }

    fn stop(&mut self, fsm: &mut SymbolicFsm, frontier: Edge) -> bool {
        !fsm.bdd_mut().and(frontier, self.miter).is_zero()
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
        // Reference: the frontier-free `reached ∨ image(reached)` loop.
        let mut fsm1 = SymbolicFsm::new(&c);
        let mut naive = fsm1.initial_states();
        loop {
            let img = fsm1.image(naive);
            let next = fsm1.bdd_mut().or(naive, img);
            if next == naive {
                break;
            }
            naive = next;
        }
        let mut fsm2 = SymbolicFsm::new(&c);
        let stats = Reachability::new().run(&mut fsm2);
        // Same manager layout (fresh managers over the same circuit), so
        // the reached sets must be literally equal.
        assert_eq!(stats.reached, naive);
        assert_eq!(stats.iterations, 16);
    }

    #[test]
    fn stop_sees_every_frontier_and_quiescent_every_step() {
        /// Stops at the `stop_at`-th frontier it sees (never if 0).
        struct Count {
            stop_at: usize,
            stops: usize,
            quiescent: usize,
        }
        impl FrontierSteps for Count {
            fn stop(&mut self, _fsm: &mut SymbolicFsm, _frontier: Edge) -> bool {
                self.stops += 1;
                self.stops == self.stop_at
            }
            fn quiescent(&mut self, _fsm: &mut SymbolicFsm, _reached: Edge, _frontier: Edge) {
                self.quiescent += 1;
            }
        }
        let c = generators::counter("c", 3);
        for (stop_at, iterations, stops) in [(0, 8, 9), (3, 2, 3)] {
            let mut fsm = SymbolicFsm::new(&c);
            let mut steps = Count {
                stop_at,
                stops: 0,
                quiescent: 0,
            };
            let end = frontier_fixpoint(&mut fsm, ImageMethod::Mono, None, &mut steps);
            assert_eq!(end.iterations, iterations);
            assert_eq!(end.stopped, stop_at > 0);
            // The initial and the final empty frontier are tested too.
            assert_eq!(steps.stops, stops);
            assert_eq!(steps.quiescent, iterations);
        }
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
