//! Differential suite for the matching-graph acceleration layer.
//!
//! The signature filter, the tsm pair memo, and the bitset clique cover
//! are all refutation-only or pure memoization, so the accelerated level
//! solvers must be **byte-identical** to the unfiltered reference path:
//! same matching graphs, same replacement ISFs, same minimized edges.
//! Both paths run sequentially in the *same* manager, so canonicity makes
//! raw edge-bits comparison exact.

use bddmin_bdd::{Bdd, Edge, SigEvaluator, Var};
use bddmin_core::rng::XorShift64;
use bddmin_core::sigfilter::{isf_sig, refutes_osm, refutes_tsm};
use bddmin_core::{
    gather_below_level, matches_directed, minimize_at_level_with, osm_matching_pairs,
    solve_fmm_osm_with, solve_fmm_tsm_with, tsm_matching_pairs, CliqueOptions, Isf, LevelAccel,
    MatchCriterion,
};

const NUM_VARS: usize = 8;

/// A pseudo-random non-trivial ISF: sums of random cubes for the onset
/// and for the don't-care set.
fn random_isf(bdd: &mut Bdd, rng: &mut XorShift64) -> Isf {
    loop {
        let mut f = Edge::ZERO;
        let mut dc = Edge::ZERO;
        for _ in 0..6 {
            let cube = random_cube(bdd, rng, 0.6);
            if rng.gen_bool(0.5) {
                f = bdd.or(f, cube);
            } else {
                dc = bdd.or(dc, cube);
            }
        }
        let care = bdd.not(dc);
        if !care.is_zero() && !care.is_one() && !f.is_constant() {
            return Isf::new(f, care);
        }
    }
}

/// A random cube; each variable appears with probability `density`.
fn random_cube(bdd: &mut Bdd, rng: &mut XorShift64, density: f64) -> Edge {
    let mut cube = Edge::ONE;
    for v in 0..NUM_VARS {
        if rng.gen_bool(density) {
            let lit = bdd.literal(Var(v as u32), rng.gen_bool(0.5));
            cube = bdd.and(cube, lit);
        }
    }
    cube
}

/// Every partial-acceleration configuration worth distinguishing.
fn accels() -> [LevelAccel; 3] {
    let sig_only = LevelAccel {
        pair_memo: false,
        ..LevelAccel::default()
    };
    let memo_only = LevelAccel {
        sig_filter: false,
        ..LevelAccel::default()
    };
    [LevelAccel::default(), sig_only, memo_only]
}

#[test]
fn filtered_and_unfiltered_matching_graphs_are_identical() {
    for seed in 0..8u64 {
        let mut bdd = Bdd::new(NUM_VARS);
        let mut rng = XorShift64::seed_from_u64(seed);
        let isf = random_isf(&mut bdd, &mut rng);
        for lvl in [1u32, 3, 5] {
            let gathered = gather_below_level(&mut bdd, isf, Var(lvl));
            if gathered.len() < 2 {
                continue;
            }
            let reference = tsm_matching_pairs(&mut bdd, &gathered, LevelAccel::UNFILTERED);
            for accel in accels() {
                assert_eq!(
                    tsm_matching_pairs(&mut bdd, &gathered, accel),
                    reference,
                    "tsm graph differs (seed {seed}, level {lvl}, {accel:?})"
                );
            }
            let isfs: Vec<Isf> = gathered.iter().map(|g| g.isf).collect();
            let reference = osm_matching_pairs(&mut bdd, &isfs, LevelAccel::UNFILTERED);
            for accel in accels() {
                assert_eq!(
                    osm_matching_pairs(&mut bdd, &isfs, accel),
                    reference,
                    "osm graph differs (seed {seed}, level {lvl}, {accel:?})"
                );
            }
        }
    }
}

#[test]
fn filtered_and_unfiltered_solvers_return_identical_isfs() {
    for seed in 10..16u64 {
        let mut bdd = Bdd::new(NUM_VARS);
        let mut rng = XorShift64::seed_from_u64(seed);
        let isf = random_isf(&mut bdd, &mut rng);
        for lvl in [1u32, 3, 5] {
            let gathered = gather_below_level(&mut bdd, isf, Var(lvl));
            if gathered.len() < 2 {
                continue;
            }
            let opts = CliqueOptions::default();
            let reference =
                solve_fmm_tsm_with(&mut bdd, &gathered, opts, LevelAccel::UNFILTERED);
            for accel in accels() {
                assert_eq!(
                    solve_fmm_tsm_with(&mut bdd, &gathered, opts, accel),
                    reference,
                    "tsm solution differs (seed {seed}, level {lvl}, {accel:?})"
                );
            }
            let isfs: Vec<Isf> = gathered.iter().map(|g| g.isf).collect();
            let reference = solve_fmm_osm_with(&mut bdd, &isfs, LevelAccel::UNFILTERED);
            for accel in accels() {
                assert_eq!(
                    solve_fmm_osm_with(&mut bdd, &isfs, accel),
                    reference,
                    "osm solution differs (seed {seed}, level {lvl}, {accel:?})"
                );
            }
        }
    }
}

#[test]
fn filtered_and_unfiltered_level_passes_return_identical_edges() {
    for seed in 20..26u64 {
        let mut bdd = Bdd::new(NUM_VARS);
        let mut rng = XorShift64::seed_from_u64(seed);
        let isf = random_isf(&mut bdd, &mut rng);
        for criterion in [MatchCriterion::Tsm, MatchCriterion::Osm] {
            for lvl in [0u32, 2, 4] {
                let opts = CliqueOptions::default();
                let reference = minimize_at_level_with(
                    &mut bdd,
                    isf,
                    Var(lvl),
                    criterion,
                    opts,
                    LevelAccel::UNFILTERED,
                );
                for accel in accels() {
                    let got = minimize_at_level_with(
                        &mut bdd, isf, Var(lvl), criterion, opts, accel,
                    );
                    assert_eq!(
                        (got.f, got.c),
                        (reference.f, reference.c),
                        "level pass differs (seed {seed}, {criterion:?}, level {lvl}, {accel:?})"
                    );
                }
            }
        }
    }
}

/// The refutation formulas must be *sound*: a pair the exact check proves
/// matching can never be refuted by its signatures. Exercised on random
/// ISFs and on Theorem 7 instances (cube care sets, where `constrain` is
/// optimum and matching pairs abound).
#[test]
fn signatures_never_refute_a_provably_matching_pair() {
    let mut bdd = Bdd::new(NUM_VARS);
    let mut rng = XorShift64::seed_from_u64(94);
    let mut isfs: Vec<Isf> = Vec::new();
    for _ in 0..12 {
        isfs.push(random_isf(&mut bdd, &mut rng));
    }
    // Theorem 7 instances: the care set is a single cube. Include pairs
    // sharing the same onset under different cubes and vice versa.
    for _ in 0..8 {
        let cube = loop {
            let c = random_cube(&mut bdd, &mut rng, 0.4);
            if !c.is_constant() {
                break c;
            }
        };
        let f = random_isf(&mut bdd, &mut rng).f;
        isfs.push(Isf::new(f, cube));
        let f_on_cube = bdd.and(f, cube);
        isfs.push(Isf::new(f_on_cube, cube));
    }
    let mut ev = SigEvaluator::for_bdd(&bdd);
    let sigs: Vec<_> = isfs.iter().map(|&i| isf_sig(&mut ev, &bdd, i)).collect();
    let mut matching_pairs = 0;
    for i in 0..isfs.len() {
        for j in 0..isfs.len() {
            if matches_directed(&mut bdd, MatchCriterion::Tsm, isfs[i], isfs[j]) {
                matching_pairs += 1;
                assert!(
                    !refutes_tsm(sigs[i], sigs[j]),
                    "signature refuted a proven tsm match ({i}, {j})"
                );
            }
            if matches_directed(&mut bdd, MatchCriterion::Osm, isfs[i], isfs[j]) {
                assert!(
                    !refutes_osm(sigs[i], sigs[j]),
                    "signature refuted a proven osm match ({i}, {j})"
                );
            }
        }
    }
    // The instance family must actually contain matches beyond reflexivity
    // for this test to mean anything.
    assert!(
        matching_pairs > isfs.len(),
        "test family has no non-trivial matching pairs"
    );
}
