//! Tier-1 integration gates for the structured fuzzing subsystem.
//!
//! These run in the default `cargo test` sweep, so every PR holds the
//! structured surfaces to their contracts:
//!
//! * **BLIF round trip** — every fuzz-generated netlist the parser
//!   accepts must re-serialize and re-parse to an identical network
//!   (port profile, initial state, 16-step behaviour, textual fixed
//!   point). This is the printer/parser consistency gate at fuzz scale.
//! * **Expression differential** — rendered ASTs must build BDDs that
//!   agree with direct evaluation.
//! * **CLI totality and determinism** — argument vectors never panic
//!   the in-process entry point and always reproduce their output.
//! * **End-to-end structured runs** — the bandit loop over the real
//!   committed corpus is deterministic and green under `Mutant::None`.

use std::path::Path;

use bddmin_core::rng::XorShift64;
use bddmin_verify::corpus;
use bddmin_verify::oracle::Verdict;
use bddmin_verify::runner::{run_fuzz, FuzzConfig, StructuredOpts};
use bddmin_verify::sched::ArmKind;
use bddmin_verify::structured::{ArgVec, BlifProgram, ExprInput, Generate, Mutate};
use bddmin_verify::surface::{check_args, check_blif, check_expr};

#[test]
fn every_parsed_blif_netlist_survives_the_round_trip() {
    // Satellite gate: fresh generation plus mutation storms. Anomalous
    // rounds (ghost inputs, bad init digits, pattern garbage) are
    // allowed to be *rejected*, never to break the round trip.
    let mut rng = XorShift64::seed_from_u64(0xb11f);
    let (mut passes, mut skips) = (0u32, 0u32);
    for round in 0..200 {
        let program = BlifProgram::generate(&mut rng, round);
        match check_blif(&program) {
            Verdict::Pass => passes += 1,
            Verdict::Skip(_) => skips += 1,
            Verdict::Fail(e) => panic!("generated netlist, round {round}: {e}"),
        }
        let mut mutated = program.clone();
        for step in 0..4 {
            mutated = mutated.mutate(&mut rng);
            if let Verdict::Fail(e) = check_blif(&mutated) {
                panic!("mutated netlist, round {round} step {step}: {e}");
            }
        }
    }
    assert!(
        passes >= 100,
        "generator should mostly emit parseable netlists: passes={passes} skips={skips}"
    );
    assert!(skips > 0, "anomalous rounds should exercise the reject path");
}

#[test]
fn spliced_blif_netlists_keep_the_round_trip_contract() {
    let mut rng = XorShift64::seed_from_u64(0x511ce);
    for round in 0..60 {
        let a = BlifProgram::generate(&mut rng, round);
        let b = BlifProgram::generate(&mut rng, round + 1000);
        let spliced = a.splice(&b, &mut rng);
        if let Verdict::Fail(e) = check_blif(&spliced) {
            panic!("spliced netlist, round {round}: {e}");
        }
    }
}

#[test]
fn expression_surface_holds_over_generation_and_mutation() {
    let mut rng = XorShift64::seed_from_u64(0xe3127);
    for round in 0..120 {
        let input = ExprInput::generate(&mut rng, round);
        if let Verdict::Fail(e) = check_expr(&input) {
            panic!("generated expression, round {round}: {e}");
        }
        let mutated = input.mutate(&mut rng);
        if let Verdict::Fail(e) = check_expr(&mutated) {
            panic!("mutated expression, round {round}: {e}");
        }
    }
}

#[test]
fn cli_surface_holds_over_generation_and_splicing() {
    let mut rng = XorShift64::seed_from_u64(0xa265);
    for round in 0..60 {
        let a = ArgVec::generate(&mut rng, round);
        if let Verdict::Fail(e) = check_args(&a) {
            panic!("generated args, round {round}: {e}");
        }
        let b = ArgVec::generate(&mut rng, round + 500);
        let spliced = a.splice(&b, &mut rng);
        if let Verdict::Fail(e) = check_args(&spliced) {
            panic!("spliced args, round {round}: {e}");
        }
    }
}

/// Loads the committed regression corpus exactly as `verify
/// --corpus-seed tests/corpus` does.
fn committed_corpus() -> Vec<bddmin_verify::gen::Instance> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus must exist")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "repro"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 11, "committed corpus unexpectedly small");
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).unwrap();
            corpus::parse(&text)
                .unwrap_or_else(|e| panic!("bad corpus file {}: {e}", p.display()))
                .instance
        })
        .collect()
}

#[test]
fn structured_run_over_the_committed_corpus_is_green() {
    let config = FuzzConfig {
        seeds: vec![21],
        iters: 150,
        structured: Some(StructuredOpts {
            seed_corpus: committed_corpus(),
            arms: Vec::new(),
        }),
        ..FuzzConfig::default()
    };
    let report = run_fuzz(&config).unwrap();
    assert!(!report.has_failures(), "failures: {:?}", report.failures);
    assert!(report.surface_failures.is_empty());
    assert_eq!(report.arm_reports.len(), ArmKind::ALL.len());
    for arm in &report.arm_reports {
        assert!(arm.plays > 0, "arm {} starved", arm.arm);
    }
}

#[test]
fn structured_runs_replay_bit_identically() {
    let run = || {
        let report = run_fuzz(&FuzzConfig {
            seeds: vec![33, 34],
            iters: 40,
            structured: Some(StructuredOpts {
                seed_corpus: committed_corpus(),
                arms: Vec::new(),
            }),
            ..FuzzConfig::default()
        })
        .unwrap();
        (report.instances, report.surface_checks, report.to_json())
    };
    let (a, b) = (run(), run());
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    // The full JSON matches except the timing fields; compare line by
    // line, skipping wall-clock-derived keys.
    for (la, lb) in a.2.lines().zip(b.2.lines()) {
        if la.contains("elapsed_ms") || la.contains("instances_per_sec") {
            continue;
        }
        assert_eq!(la, lb);
    }
}
