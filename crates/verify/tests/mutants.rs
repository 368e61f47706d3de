//! Mutation gate: every oracle must demonstrably fire.
//!
//! For each of the ten deliberately injected bugs, the fuzzer (run
//! through the same [`run_fuzz`] entry point CI uses) must catch the
//! bug, shrink it, and produce a reproducer that round-trips through the
//! corpus format and still fails. A fuzzer that only ever reports green
//! proves nothing; this suite is the evidence that the failure path —
//! detection, shrinking, serialization — works end to end.

use bddmin_verify::corpus;
use bddmin_verify::oracle::{check, Mutant, Oracle, Verdict};
use bddmin_verify::runner::{run_fuzz, FuzzConfig};
use bddmin_verify::shrink::instance_size;

/// Runs the fuzzer with one injected bug until it is caught.
fn catch(mutant: Mutant) -> bddmin_verify::runner::FuzzReport {
    let oracle = mutant.target_oracle().expect("breaking mutant");
    let config = FuzzConfig {
        seeds: vec![1, 2, 3],
        iters: 2000,
        oracles: vec![oracle],
        mutant,
        corpus_dir: None,
        max_failures: 1,
        ..FuzzConfig::default()
    };
    run_fuzz(&config).expect("no corpus I/O configured")
}

fn assert_mutant_caught_and_shrunk(mutant: Mutant) {
    let oracle = mutant.target_oracle().unwrap();
    let report = catch(mutant);
    assert_eq!(
        report.failures.len(),
        1,
        "{mutant} was never caught by {oracle} (instances: {})",
        report.instances
    );
    let failure = &report.failures[0];
    assert_eq!(failure.oracle, oracle);

    // The reproducer parses back and is still a failing instance for the
    // same oracle under the same mutant.
    let entry = corpus::parse(&failure.reproducer)
        .unwrap_or_else(|e| panic!("{mutant} reproducer does not parse: {e}"));
    assert_eq!(entry.oracle, oracle);
    let verdict = check(entry.oracle, &entry.instance, mutant);
    assert!(
        verdict.is_fail(),
        "{mutant} reproducer no longer fails: {verdict:?}"
    );
    assert_eq!(instance_size(&entry.instance), failure.final_size);

    // The bug is mutant-specific: the same reproducer passes (or at
    // worst skips) on the unmutated code, so the oracle is judging the
    // injected bug, not a latent real one.
    let clean = check(entry.oracle, &entry.instance, Mutant::None);
    assert!(
        !clean.is_fail(),
        "{mutant} reproducer fails even without the mutant — real bug? {clean:?}"
    );
}

#[test]
fn break_cover_is_caught_and_shrunk() {
    assert_mutant_caught_and_shrunk(Mutant::BreakCover);
}

#[test]
fn break_cube_optimal_is_caught_and_shrunk() {
    assert_mutant_caught_and_shrunk(Mutant::BreakCubeOptimal);
}

#[test]
fn break_osm_level_is_caught_and_shrunk() {
    assert_mutant_caught_and_shrunk(Mutant::BreakOsmLevel);
}

#[test]
fn break_lower_bound_is_caught_and_shrunk() {
    assert_mutant_caught_and_shrunk(Mutant::BreakLowerBound);
}

#[test]
fn break_agreement_is_caught_and_shrunk() {
    assert_mutant_caught_and_shrunk(Mutant::BreakAgreement);
}

#[test]
fn break_invariance_is_caught_and_shrunk() {
    assert_mutant_caught_and_shrunk(Mutant::BreakInvariance);
}

#[test]
fn break_degradation_is_caught_and_shrunk() {
    assert_mutant_caught_and_shrunk(Mutant::BreakDegradation);
}

#[test]
fn break_sig_filter_is_caught_and_shrunk() {
    assert_mutant_caught_and_shrunk(Mutant::BreakSigFilter);
}

#[test]
fn break_reorder_is_caught_and_shrunk() {
    assert_mutant_caught_and_shrunk(Mutant::BreakReorder);
}

#[test]
fn mutants_do_not_trip_unrelated_oracles_on_paper_instance() {
    // The running example from the paper: each breaking mutant trips its
    // target oracle only, so a mutation gate failure points at exactly
    // one contract.
    let inst = bddmin_verify::gen::Instance::new(
        vec![None, Some(true), Some(false), Some(true)],
        bddmin_verify::gen::ChaosPlan::NONE,
    );
    for mutant in Mutant::BREAKING {
        let target = mutant.target_oracle().unwrap();
        for oracle in Oracle::ALL {
            if oracle == target {
                continue;
            }
            // Known coupling: a broken cover can undercut the exact
            // optimum, which the sandwich oracle rightly reports.
            if mutant == Mutant::BreakCover && oracle == Oracle::Sandwich {
                continue;
            }
            let v = check(oracle, &inst, mutant);
            // Unrelated oracles may pass or skip, but a Fail would mean
            // the mutants are not isolated per contract.
            assert!(
                !v.is_fail(),
                "{mutant} unexpectedly tripped {oracle}: {v:?}"
            );
        }
    }
    // Sanity: the clean run is green across the board.
    for oracle in Oracle::ALL {
        assert!(!matches!(
            check(oracle, &inst, Mutant::None),
            Verdict::Fail(_)
        ));
    }
}
