//! Random instance generation for the differential fuzzer.
//!
//! An instance is a truth-table pair `[f, c]` in the paper's leaf
//! notation (§3.2): one entry per leaf of the binary decision tree,
//! left to right, where `Some(v)` is a specified value and `None` a
//! don't care. The representation is intentionally identical to
//! [`bddmin_bdd::LeafSpec`] so serialization to the paper's `(d1 01)`
//! notation and shrinking (dropping variables, erasing leaves) are
//! structural operations on the vector, not BDD surgery.
//!
//! The generator sweeps four axes, all driven by the in-tree
//! [`XorShift64`] stream so every instance is reproducible from
//! `(seed, round)`:
//!
//! * variable count (2–6, biased small so the exhaustive oracles apply),
//! * specification density (how many leaves are cares),
//! * care-set shape (general vs. cube, the Theorem 7 precondition),
//! * GC/cache-flush/reorder interleaving and optional step/node budgets
//!   (the [`ChaosPlan`]).

use bddmin_bdd::{Bdd, LeafSpec};
use bddmin_core::rng::XorShift64;
use bddmin_core::Isf;

/// When the harness injects kernel disturbances while an oracle runs.
///
/// Heuristic results must be invariant under any plan: the computed
/// table and minimization memo are caches, and collection never touches
/// live nodes, so flushing or collecting between operations may change
/// only the running time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ChaosPlan {
    /// Clear the computed table and minimization memo between heuristic
    /// invocations.
    pub flush_between: bool,
    /// Run a mark–sweep collection (rooted at the instance and all
    /// results so far) between heuristic invocations.
    pub gc_between: bool,
    /// Arm a deterministic recursion-step budget for the budget oracle
    /// (small values force graceful degradation).
    pub step_budget: Option<u64>,
    /// Arm a live-node ceiling for the budget oracle.
    pub node_budget: Option<usize>,
    /// Run a full sift (rooted at the instance and all results so far)
    /// between heuristic invocations in the validity oracles. Excluded
    /// from the invariance oracle's paired runs: heuristic covers are
    /// legitimately order-dependent, only their validity is not.
    pub reorder_between: bool,
}

impl ChaosPlan {
    /// No disturbances.
    pub const NONE: ChaosPlan = ChaosPlan {
        flush_between: false,
        gc_between: false,
        step_budget: None,
        node_budget: None,
        reorder_between: false,
    };

    /// Contribution to the shrinker's size measure: disabling chaos is a
    /// strictly size-decreasing step.
    pub fn weight(self) -> usize {
        usize::from(self.flush_between)
            + usize::from(self.gc_between)
            + usize::from(self.step_budget.is_some())
            + usize::from(self.node_budget.is_some())
            + usize::from(self.reorder_between)
    }

    /// The same plan with reorder injection disarmed (what the paired
    /// invariance runs use — see [`ChaosPlan::reorder_between`]).
    pub fn without_reorder(self) -> ChaosPlan {
        ChaosPlan {
            reorder_between: false,
            ..self
        }
    }
}

/// A fuzzer instance: a leaf-table ISF plus a disturbance plan.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Instance {
    /// One entry per leaf of the decision tree, leftmost (all-zero
    /// assignment) first; length is a power of two.
    pub leaves: Vec<Option<bool>>,
    /// Kernel disturbances to inject while checking this instance.
    pub chaos: ChaosPlan,
}

impl Instance {
    /// Builds an instance from a leaf vector, which must have
    /// power-of-two length.
    pub fn new(leaves: Vec<Option<bool>>, chaos: ChaosPlan) -> Instance {
        assert!(
            leaves.len().is_power_of_two(),
            "leaf count {} is not a power of two",
            leaves.len()
        );
        Instance { leaves, chaos }
    }

    /// Number of variables (log2 of the leaf count).
    pub fn num_vars(&self) -> usize {
        self.leaves.len().trailing_zeros() as usize
    }

    /// Number of specified (care) leaves.
    pub fn specified(&self) -> usize {
        self.leaves.iter().filter(|l| l.is_some()).count()
    }

    /// True when no leaf is specified (the all-don't-care instance most
    /// oracles skip: the heuristics require a non-empty care set).
    pub fn is_all_dc(&self) -> bool {
        self.specified() == 0
    }

    /// Renders the paper's leaf-spec notation, e.g. `(d1 01)`.
    pub fn spec_string(&self) -> String {
        let mut s = String::with_capacity(self.leaves.len() * 2);
        s.push('(');
        for (i, leaf) in self.leaves.iter().enumerate() {
            if i > 0 && i % 2 == 0 {
                s.push(' ');
            }
            s.push(match leaf {
                Some(true) => '1',
                Some(false) => '0',
                None => 'd',
            });
        }
        s.push(')');
        s
    }

    /// A fresh manager sized for this instance.
    pub fn fresh_manager(&self) -> Bdd {
        Bdd::new(self.num_vars().max(1))
    }

    /// Builds `[f, c]` in `bdd` (which must declare at least
    /// [`Instance::num_vars`] variables).
    pub fn build(&self, bdd: &mut Bdd) -> Isf {
        let spec = LeafSpec::parse(&self.spec_string()).expect("instance renders a valid spec");
        let (f, c) = spec.build(bdd);
        Isf::new(f, c)
    }
}

/// True when the instance's care set is a product term (cube): the
/// precondition of paper Theorem 7.
pub fn care_is_cube(bdd: &Bdd, isf: Isf) -> bool {
    !isf.c.is_zero() && (isf.c.is_one() || bdd.is_cube(isf.c))
}

/// Draws the next instance of the sweep. `round` selects the instance
/// class deterministically (variable count, density, care shape, chaos)
/// while `rng` fills in the content, so a `(seed, round)` pair pins an
/// instance exactly.
pub fn random_instance(rng: &mut XorShift64, round: u64) -> Instance {
    // Bias small: the exhaustive oracles (Theorems 7 and 12, the
    // exact/lower-bound sandwich) only apply to instances they can
    // enumerate, and shrunk reproducers are small anyway.
    const NVARS_SWEEP: [usize; 10] = [2, 3, 3, 2, 4, 3, 5, 4, 3, 6];
    const DENSITY_SWEEP: [f64; 5] = [0.9, 0.5, 0.7, 0.3, 0.95];
    let num_vars = NVARS_SWEEP[(round % NVARS_SWEEP.len() as u64) as usize];
    let n_leaves = 1usize << num_vars;
    // Every third instance has a cube care set so Theorem 7 gets steady
    // coverage; the rest use a density-swept general care set.
    let cube_care = round % 3 == 2;
    let mut leaves: Vec<Option<bool>> = Vec::with_capacity(n_leaves);
    if cube_care {
        // A random cube over the instance variables; leaves inside the
        // cube are specified, the rest are don't cares. More literals
        // keep the don't-care region small enough for the exact solver.
        let mut lits: Vec<Option<bool>> = vec![None; num_vars];
        for lit in lits.iter_mut() {
            if rng.gen_bool(0.6) {
                *lit = Some(rng.gen_bool(0.5));
            }
        }
        for leaf in 0..n_leaves {
            let in_cube = lits.iter().enumerate().all(|(v, lit)| {
                lit.is_none_or(|want| (leaf >> (num_vars - 1 - v)) & 1 == usize::from(want))
            });
            leaves.push(in_cube.then(|| rng.gen_bool(0.5)));
        }
    } else {
        let density = DENSITY_SWEEP[(round % DENSITY_SWEEP.len() as u64) as usize];
        for _ in 0..n_leaves {
            leaves.push(rng.gen_bool(density).then(|| rng.gen_bool(0.5)));
        }
    }
    // The heuristics assert a non-empty care set; force one care leaf.
    if leaves.iter().all(Option::is_none) {
        let at = rng.gen_range(0..n_leaves);
        leaves[at] = Some(rng.gen_bool(0.5));
    }
    let chaos = ChaosPlan {
        flush_between: rng.gen_bool(0.3),
        gc_between: rng.gen_bool(0.3),
        // Small budgets so the budget oracle regularly exercises the
        // degradation ladder; both limits are deterministic clocks, so
        // verdicts stay replayable from (seed, round) alone.
        step_budget: rng.gen_bool(0.3).then(|| rng.gen_range(1..64) as u64),
        node_budget: rng.gen_bool(0.3).then(|| rng.gen_range(1..48)),
        // Reorder disturbances keep the sifting kernel under the same
        // standing fire as GC and cache flushes.
        reorder_between: rng.gen_bool(0.25),
    };
    Instance::new(leaves, chaos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let mut a = XorShift64::seed_from_u64(11);
        let mut b = XorShift64::seed_from_u64(11);
        for round in 0..64 {
            assert_eq!(
                random_instance(&mut a, round),
                random_instance(&mut b, round)
            );
        }
        let mut c = XorShift64::seed_from_u64(12);
        let differs =
            (0..64).any(|round| random_instance(&mut a, round) != random_instance(&mut c, round));
        assert!(differs, "different seeds must differ somewhere");
    }

    #[test]
    fn instances_are_well_formed() {
        let mut rng = XorShift64::seed_from_u64(5);
        for round in 0..128 {
            let inst = random_instance(&mut rng, round);
            assert!(inst.leaves.len().is_power_of_two());
            assert!((2..=6).contains(&inst.num_vars()));
            assert!(!inst.is_all_dc(), "care set must be non-empty");
        }
    }

    #[test]
    fn cube_rounds_have_cube_care() {
        let mut rng = XorShift64::seed_from_u64(7);
        for round in 0..60 {
            let inst = random_instance(&mut rng, round);
            if round % 3 != 2 {
                continue;
            }
            let mut bdd = inst.fresh_manager();
            let isf = inst.build(&mut bdd);
            assert!(care_is_cube(&bdd, isf), "round {round} care not a cube");
        }
    }

    #[test]
    fn spec_string_round_trips_through_parser() {
        let mut rng = XorShift64::seed_from_u64(3);
        for round in 0..32 {
            let inst = random_instance(&mut rng, round);
            let spec = LeafSpec::parse(&inst.spec_string()).unwrap();
            assert_eq!(spec.leaves(), &inst.leaves[..]);
            assert_eq!(spec.num_vars(), inst.num_vars());
        }
    }

    #[test]
    fn build_matches_leaf_semantics() {
        let inst = Instance::new(
            vec![None, Some(true), Some(false), Some(true)],
            ChaosPlan::NONE,
        );
        assert_eq!(inst.spec_string(), "(d1 01)");
        let mut bdd = inst.fresh_manager();
        let isf = inst.build(&mut bdd);
        // Care marks the specified leaves.
        assert!(!bdd.eval(isf.c, &[false, false]));
        assert!(bdd.eval(isf.c, &[false, true]));
        assert!(bdd.eval(isf.c, &[true, false]));
        // f agrees with the specified values on the care set.
        assert!(bdd.eval(isf.f, &[false, true]));
        assert!(!bdd.eval(isf.f, &[true, false]));
        assert!(bdd.eval(isf.f, &[true, true]));
    }
}
