//! Failure minimization.
//!
//! Once an oracle fails on an instance, the fuzzer hands the pair to the
//! shrinker, which looks for the smallest instance that still trips the
//! *same* oracle. The candidate moves, tried in a fixed order so
//! shrinking is deterministic:
//!
//! 1. **Drop a variable** — replace the instance by one of its two
//!    cofactors (keep only the leaves where the variable is 0, or only
//!    those where it is 1), halving the leaf table.
//! 2. **Disable the chaos plan** — wholesale, or one component (flush,
//!    gc, step budget, node budget) at a time; a failure that survives
//!    with less injected disturbance is easier to replay.
//! 3. **Erase a leaf** — turn one specified leaf into a don't care,
//!    simplifying the care set.
//!
//! Every accepted move strictly decreases [`instance_size`], so the loop
//! terminates; every accepted move re-runs the oracle and keeps the move
//! only if the verdict is still [`Verdict::Fail`](crate::Verdict::Fail),
//! so the final reproducer provably demonstrates the original violation.

use crate::gen::{ChaosPlan, Instance};
use crate::oracle::{check, Mutant, Oracle};

/// The shrinker's size measure: leaf-table length plus specified-leaf
/// count plus the chaos weight. Every candidate move decreases it.
pub fn instance_size(inst: &Instance) -> usize {
    inst.leaves.len() + inst.specified() + inst.chaos.weight()
}

/// Result of shrinking one failing instance.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The minimal failing instance found.
    pub instance: Instance,
    /// Accepted shrink steps (0 if the input was already minimal).
    pub steps: usize,
    /// [`instance_size`] of the original failing instance.
    pub initial_size: usize,
    /// [`instance_size`] of the final reproducer.
    pub final_size: usize,
    /// Every intermediate instance, the original first and the final
    /// reproducer last. Each entry still fails the oracle.
    pub trace: Vec<Instance>,
}

/// All single-step shrink candidates of `inst`, in deterministic order.
/// Every candidate has a strictly smaller [`instance_size`].
fn candidates(inst: &Instance) -> Vec<Instance> {
    let n = inst.num_vars();
    let mut out = Vec::new();
    // 1. Variable drops (both cofactors per variable), largest size
    // reduction first.
    if n > 1 {
        for v in 0..n {
            for keep_value in [false, true] {
                let leaves: Vec<Option<bool>> = inst
                    .leaves
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| (i >> (n - 1 - v)) & 1 == usize::from(keep_value))
                    .map(|(_, l)| *l)
                    .collect();
                out.push(Instance::new(leaves, inst.chaos));
            }
        }
    }
    // 2. Chaos removal, one component at a time so a failure that needs
    // (say) only the step budget sheds the rest of the plan.
    let mut chaos_drops: Vec<ChaosPlan> = Vec::new();
    if inst.chaos.weight() > 1 {
        chaos_drops.push(ChaosPlan::NONE);
    }
    if inst.chaos.flush_between {
        chaos_drops.push(ChaosPlan {
            flush_between: false,
            ..inst.chaos
        });
    }
    if inst.chaos.gc_between {
        chaos_drops.push(ChaosPlan {
            gc_between: false,
            ..inst.chaos
        });
    }
    if inst.chaos.step_budget.is_some() {
        chaos_drops.push(ChaosPlan {
            step_budget: None,
            ..inst.chaos
        });
    }
    if inst.chaos.node_budget.is_some() {
        chaos_drops.push(ChaosPlan {
            node_budget: None,
            ..inst.chaos
        });
    }
    if inst.chaos.reorder_between {
        chaos_drops.push(ChaosPlan {
            reorder_between: false,
            ..inst.chaos
        });
    }
    for chaos in chaos_drops {
        out.push(Instance {
            leaves: inst.leaves.clone(),
            chaos,
        });
    }
    // 3. Leaf erasure.
    for (i, leaf) in inst.leaves.iter().enumerate() {
        if leaf.is_some() {
            let mut leaves = inst.leaves.clone();
            leaves[i] = None;
            out.push(Instance {
                leaves,
                chaos: inst.chaos,
            });
        }
    }
    debug_assert!(out.iter().all(|c| instance_size(c) < instance_size(inst)));
    out
}

/// Greedily minimizes a failing instance while preserving the failing
/// verdict of `oracle` (under the same `mutant`, so injected-bug
/// failures shrink exactly like real ones).
///
/// Deterministic: the same `(inst, oracle, mutant)` triple always
/// produces the same reproducer, because candidate order is fixed and
/// the first still-failing candidate is taken at each step.
pub fn shrink(inst: &Instance, oracle: Oracle, mutant: Mutant) -> ShrinkOutcome {
    debug_assert!(
        check(oracle, inst, mutant).is_fail(),
        "shrink requires a failing instance"
    );
    let initial_size = instance_size(inst);
    let mut cur = inst.clone();
    let mut steps = 0;
    let mut trace = vec![cur.clone()];
    loop {
        let next = candidates(&cur)
            .into_iter()
            .find(|cand| check(oracle, cand, mutant).is_fail());
        match next {
            Some(cand) => {
                cur = cand;
                steps += 1;
                trace.push(cur.clone());
            }
            None => break,
        }
    }
    let final_size = instance_size(&cur);
    ShrinkOutcome {
        instance: cur,
        steps,
        initial_size,
        final_size,
        trace,
    }
}

/// Shrinkable structured value: the surface analogue of the instance
/// shrinker's candidate moves. Implementations must make every element
/// of [`Reduce::reductions`] strictly smaller under [`Reduce::measure`]
/// — that is the whole termination argument of [`shrink_with`].
pub trait Reduce: Clone {
    /// The size measure greedy shrinking strictly decreases.
    fn measure(&self) -> usize;

    /// All single-step reduction candidates, in deterministic order.
    fn reductions(&self) -> Vec<Self>;
}

/// Greedily minimizes `value` while `still_fails` holds, taking the
/// first still-failing reduction at each step (deterministic, like the
/// instance shrinker). Returns the minimal value and the accepted step
/// count.
pub fn shrink_with<T: Reduce>(value: &T, still_fails: impl Fn(&T) -> bool) -> (T, usize) {
    let mut cur = value.clone();
    let mut steps = 0;
    loop {
        let size = cur.measure();
        let next = cur.reductions().into_iter().find(|cand| {
            debug_assert!(
                cand.measure() < size,
                "reduction did not decrease the measure"
            );
            still_fails(cand)
        });
        match next {
            Some(cand) => {
                cur = cand;
                steps += 1;
            }
            None => return (cur, steps),
        }
    }
}

impl Reduce for crate::structured::BlifProgram {
    fn measure(&self) -> usize {
        self.inputs.len()
            + self.outputs.len()
            + 2 * self.latches.len()
            + self
                .names
                .iter()
                .map(|n| 1 + n.inputs.len() + n.rows.len())
                .sum::<usize>()
            + usize::from(!self.end)
    }

    fn reductions(&self) -> Vec<Self> {
        let mut out = Vec::new();
        // Restoring a missing `.end` removes the anomaly (weight 1).
        if !self.end {
            let mut p = self.clone();
            p.end = true;
            out.push(p);
        }
        // Whole-line deletions: logic nodes, latches, outputs, inputs.
        for i in 0..self.names.len() {
            let mut p = self.clone();
            p.names.remove(i);
            out.push(p);
        }
        for i in 0..self.latches.len() {
            let mut p = self.clone();
            p.latches.remove(i);
            out.push(p);
        }
        for i in 0..self.outputs.len() {
            let mut p = self.clone();
            p.outputs.remove(i);
            out.push(p);
        }
        for i in 0..self.inputs.len() {
            let mut p = self.clone();
            p.inputs.remove(i);
            out.push(p);
        }
        // Row merges: adjacent cover rows collapse into the first (the
        // line-merge move — deleting the second row of the pair).
        for (n, node) in self.names.iter().enumerate() {
            for r in 0..node.rows.len() {
                let mut p = self.clone();
                p.names[n].rows.remove(r);
                out.push(p);
            }
        }
        out
    }
}

impl Reduce for crate::structured::ExprInput {
    fn measure(&self) -> usize {
        self.function.size() + self.care.size() + usize::from(self.mangle.is_some())
    }

    fn reductions(&self) -> Vec<Self> {
        let mut out = Vec::new();
        if self.mangle.is_some() {
            let mut p = self.clone();
            p.mangle = None;
            out.push(p);
        }
        for f in self.function.reductions() {
            let mut p = self.clone();
            p.function = f;
            out.push(p);
        }
        for c in self.care.reductions() {
            let mut p = self.clone();
            p.care = c;
            out.push(p);
        }
        out
    }
}

impl Reduce for crate::structured::ArgVec {
    fn measure(&self) -> usize {
        self.args.iter().map(|a| 1 + a.len()).sum()
    }

    fn reductions(&self) -> Vec<Self> {
        // Drop one token at a time; validity expectations carry over so
        // the predicate re-checks the same contract.
        (0..self.args.len())
            .map(|i| {
                let mut p = self.clone();
                p.args.remove(i);
                p
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_instance;
    use crate::oracle::Verdict;
    use crate::structured::{ArgVec, BlifProgram, ExprInput, Generate};
    use bddmin_core::rng::XorShift64;

    /// A failing (instance, oracle) pair obtained by fuzzing a mutant.
    fn find_failure(mutant: Mutant) -> (Instance, Oracle) {
        let oracle = mutant.target_oracle().unwrap();
        let mut rng = XorShift64::seed_from_u64(99);
        for round in 0..2000 {
            let inst = random_instance(&mut rng, round);
            if check(oracle, &inst, mutant).is_fail() {
                return (inst, oracle);
            }
        }
        panic!("mutant {mutant} never fired in 2000 instances");
    }

    #[test]
    fn shrinking_is_deterministic() {
        let (inst, oracle) = find_failure(Mutant::BreakCover);
        let a = shrink(&inst, oracle, Mutant::BreakCover);
        let b = shrink(&inst, oracle, Mutant::BreakCover);
        assert_eq!(a.instance, b.instance);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn shrinking_strictly_decreases_size_at_every_step() {
        let (inst, oracle) = find_failure(Mutant::BreakCover);
        let out = shrink(&inst, oracle, Mutant::BreakCover);
        let sizes: Vec<usize> = out.trace.iter().map(instance_size).collect();
        assert!(
            sizes.windows(2).all(|w| w[1] < w[0]),
            "sizes along the trace must strictly decrease: {sizes:?}"
        );
        assert_eq!(out.initial_size, sizes[0]);
        assert_eq!(out.final_size, *sizes.last().unwrap());
        assert_eq!(out.steps, out.trace.len() - 1);
    }

    #[test]
    fn shrinking_preserves_the_failing_verdict_at_every_step() {
        let (inst, oracle) = find_failure(Mutant::BreakAgreement);
        let out = shrink(&inst, oracle, Mutant::BreakAgreement);
        for step in &out.trace {
            assert!(
                check(oracle, step, Mutant::BreakAgreement).is_fail(),
                "trace instance {} no longer fails",
                step.spec_string()
            );
        }
    }

    #[test]
    fn shrunk_reproducer_is_locally_minimal() {
        let (inst, oracle) = find_failure(Mutant::BreakCover);
        let out = shrink(&inst, oracle, Mutant::BreakCover);
        for cand in candidates(&out.instance) {
            assert!(
                !check(oracle, &cand, Mutant::BreakCover).is_fail(),
                "a smaller candidate still fails — shrinking stopped early"
            );
        }
    }

    #[test]
    fn candidate_moves_all_decrease_the_measure() {
        let mut rng = XorShift64::seed_from_u64(4);
        for round in 0..24 {
            let inst = random_instance(&mut rng, round);
            let size = instance_size(&inst);
            for cand in candidates(&inst) {
                assert!(instance_size(&cand) < size);
                assert!(cand.leaves.len().is_power_of_two());
            }
        }
    }

    #[test]
    fn surface_reductions_strictly_decrease_their_measures() {
        let mut rng = XorShift64::seed_from_u64(51);
        for round in 0..30 {
            let b = BlifProgram::generate(&mut rng, round);
            for r in b.reductions() {
                assert!(r.measure() < b.measure(), "blif round {round}");
            }
            let e = ExprInput::generate(&mut rng, round);
            for r in e.reductions() {
                assert!(r.measure() < e.measure(), "expr round {round}");
            }
            let a = ArgVec::generate(&mut rng, round);
            for r in a.reductions() {
                assert!(r.measure() < a.measure(), "args round {round}");
            }
        }
    }

    #[test]
    fn shrink_with_finds_a_local_minimum() {
        // Predicate: the vector still contains the token "spec". The
        // minimum is the single-token vector.
        let v = ArgVec {
            args: ["spec", "d1 01", "--exact", "--isop"]
                .map(str::to_owned)
                .to_vec(),
            expect_valid: true,
        };
        let (min, steps) = shrink_with(&v, |c| c.args.iter().any(|a| a == "spec"));
        assert_eq!(min.args, vec!["spec".to_owned()]);
        assert_eq!(steps, 3);
        // Deterministic: same input, same outcome.
        let (again, _) = shrink_with(&v, |c| c.args.iter().any(|a| a == "spec"));
        assert_eq!(again.args, min.args);
    }

    #[test]
    fn shrink_with_reduces_expression_trees_to_the_failing_core() {
        use crate::structured::ExprTree;
        // Predicate: the function still mentions variable 2 somewhere.
        fn mentions(t: &ExprTree, var: usize) -> bool {
            match t {
                ExprTree::Const(_) => false,
                ExprTree::Var(i) => *i == var,
                ExprTree::Not(c) => mentions(c, var),
                ExprTree::Bin(_, l, r) => mentions(l, var) || mentions(r, var),
            }
        }
        let mut rng = XorShift64::seed_from_u64(53);
        for round in 0..20 {
            let input = ExprInput::generate(&mut rng, round);
            if !mentions(&input.function, 2) {
                continue;
            }
            let (min, _) = shrink_with(&input, |c| mentions(&c.function, 2));
            // Locally minimal: the function should be exactly `Var(2)`
            // (size 2) and the care a constant (size 1).
            assert_eq!(min.function, ExprTree::Var(2), "round {round}");
            assert_eq!(min.function.size() + min.care.size(), 3, "round {round}");
            assert!(min.mangle.is_none());
        }
    }

    #[test]
    fn passing_oracle_on_shrunk_chaos_candidate_is_rejected() {
        // A candidate whose verdict flips to Skip (e.g. erasing the last
        // care leaf) must not be accepted: Skip is not Fail.
        let inst = Instance::new(vec![Some(true), None], ChaosPlan::NONE);
        let v = check(Oracle::Cover, &inst, Mutant::None);
        assert_eq!(v, Verdict::Pass);
        let all_dc = Instance::new(vec![None, None], ChaosPlan::NONE);
        let v = check(Oracle::Cover, &all_dc, Mutant::None);
        assert!(matches!(v, Verdict::Skip(_)));
    }
}
