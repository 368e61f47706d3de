//! Cache-size invariance of the minimization heuristics.
//!
//! Every heuristic recurses through the manager-resident caches (the
//! computed table for `ite`/`constrain`/`restrict`, the minimization memo
//! for the sibling/windowed/level matchers). Both are lossy, so their
//! capacity — and any mid-sequence flush — must never change which cover a
//! heuristic returns. Managers driven by identical operation sequences
//! allocate nodes identically, so covers are compared as raw [`Edge`] bits.

use bddmin_bdd::{Bdd, Edge, Var};
use bddmin_core::rng::XorShift64;
use bddmin_core::{Heuristic, Isf};

const SPECS: [&str; 4] = [
    "d1 01",
    "d1 01 1d 01",
    "0d d1 10 01 11 d0 d1 00",
    "1d d1 d0 0d 11 00 d1 10",
];

fn all_heuristics() -> impl Iterator<Item = Heuristic> {
    Heuristic::ALL.into_iter().chain([Heuristic::Scheduled])
}

/// A manager whose cache and memo are pinned at the given geometry.
fn manager_with(num_vars: usize, cache_log2: u32, memo_log2: u32) -> Bdd {
    let mut bdd = Bdd::new(num_vars);
    bdd.set_auto_gc(false);
    bdd.configure_cache(cache_log2, cache_log2);
    bdd.configure_min_memo(memo_log2, memo_log2);
    bdd
}

/// A pseudo-random non-trivial ISF over `num_vars` variables.
fn random_isf(bdd: &mut Bdd, rng: &mut XorShift64, num_vars: usize) -> Isf {
    random_isf_of(bdd, rng, num_vars, 6)
}

/// A pseudo-random non-trivial ISF whose onset and offset together are
/// `cubes` random cubes.
fn random_isf_of(bdd: &mut Bdd, rng: &mut XorShift64, num_vars: usize, cubes: usize) -> Isf {
    loop {
        let mut f = Edge::ZERO;
        let mut c = Edge::ZERO;
        // Sum of random cubes for each of f and c's complement.
        for _ in 0..cubes {
            let mut cube = Edge::ONE;
            for v in 0..num_vars {
                match rng.gen_range(0..3) {
                    0 => {
                        cube = {
                            let l = bdd.literal(Var(v as u32), true);
                            bdd.and(cube, l)
                        }
                    }
                    1 => {
                        cube = {
                            let l = bdd.literal(Var(v as u32), false);
                            bdd.and(cube, l)
                        }
                    }
                    _ => {}
                }
            }
            if rng.gen_bool(0.5) {
                f = bdd.or(f, cube);
            } else {
                c = bdd.or(c, cube);
            }
        }
        let care = bdd.not(c);
        if !care.is_zero() && !care.is_one() && !f.is_constant() {
            return Isf::new(f, care);
        }
    }
}

/// Minimizes `isf` with every heuristic, optionally flushing all caches
/// before (and between) heuristics.
fn minimize_all_ways(bdd: &mut Bdd, isf: Isf, flush: bool) -> Vec<Edge> {
    all_heuristics()
        .map(|h| {
            if flush {
                bdd.clear_caches();
            }
            h.minimize(bdd, isf)
        })
        .collect()
}

#[test]
fn heuristics_are_capacity_invariant_on_paper_specs() {
    for spec in SPECS {
        let mut tiny = manager_with(4, 4, 4);
        let mut huge = manager_with(4, 18, 16);
        let isf_t = {
            let (f, c) = tiny.from_leaf_spec(spec).unwrap();
            Isf::new(f, c)
        };
        let isf_h = {
            let (f, c) = huge.from_leaf_spec(spec).unwrap();
            Isf::new(f, c)
        };
        assert_eq!((isf_t.f, isf_t.c), (isf_h.f, isf_h.c), "setup must agree");
        let covers_t = minimize_all_ways(&mut tiny, isf_t, false);
        let covers_h = minimize_all_ways(&mut huge, isf_h, false);
        for ((h, a), b) in all_heuristics().zip(&covers_t).zip(&covers_h) {
            assert_eq!(a, b, "{h} diverged on {spec}");
        }
    }
}

#[test]
fn heuristics_are_capacity_invariant_on_random_instances() {
    const NUM_VARS: usize = 7;
    let mut tiny = manager_with(NUM_VARS, 5, 4);
    let mut huge = manager_with(NUM_VARS, 18, 16);
    let mut rng_t = XorShift64::seed_from_u64(1994);
    let mut rng_h = XorShift64::seed_from_u64(1994);
    for round in 0..12 {
        let isf_t = random_isf(&mut tiny, &mut rng_t, NUM_VARS);
        let isf_h = random_isf(&mut huge, &mut rng_h, NUM_VARS);
        assert_eq!((isf_t.f, isf_t.c), (isf_h.f, isf_h.c));
        let covers_t = minimize_all_ways(&mut tiny, isf_t, false);
        let covers_h = minimize_all_ways(&mut huge, isf_h, false);
        for ((h, a), b) in all_heuristics().zip(&covers_t).zip(&covers_h) {
            assert_eq!(a, b, "{h} diverged on round {round}");
        }
    }
    assert!(
        tiny.stats().memo_evictions > 0 || tiny.stats().cache_evictions > 0,
        "workload too small to stress the tiny tables"
    );
}

#[test]
fn mid_sequence_flushes_do_not_change_covers() {
    const NUM_VARS: usize = 7;
    let mut flushed = manager_with(NUM_VARS, 14, 13);
    let mut steady = manager_with(NUM_VARS, 14, 13);
    let mut rng_f = XorShift64::seed_from_u64(77);
    let mut rng_s = XorShift64::seed_from_u64(77);
    for _ in 0..8 {
        let isf_f = random_isf(&mut flushed, &mut rng_f, NUM_VARS);
        let isf_s = random_isf(&mut steady, &mut rng_s, NUM_VARS);
        assert_eq!((isf_f.f, isf_f.c), (isf_s.f, isf_s.c));
        let covers_f = minimize_all_ways(&mut flushed, isf_f, true);
        let covers_s = minimize_all_ways(&mut steady, isf_s, false);
        assert_eq!(covers_f, covers_s);
    }
}

#[test]
fn adaptive_growth_matches_pinned_results() {
    const NUM_VARS: usize = 7;
    // Default managers may grow both tables mid-run; pinned-tiny may not.
    let mut adaptive = Bdd::new(NUM_VARS);
    adaptive.set_auto_gc(false);
    let mut tiny = manager_with(NUM_VARS, 5, 4);
    let mut rng_a = XorShift64::seed_from_u64(31337);
    let mut rng_t = XorShift64::seed_from_u64(31337);
    for _ in 0..10 {
        let isf_a = random_isf(&mut adaptive, &mut rng_a, NUM_VARS);
        let isf_t = random_isf(&mut tiny, &mut rng_t, NUM_VARS);
        assert_eq!((isf_a.f, isf_a.c), (isf_t.f, isf_t.c));
        let covers_a = minimize_all_ways(&mut adaptive, isf_a, false);
        let covers_t = minimize_all_ways(&mut tiny, isf_t, false);
        assert_eq!(covers_a, covers_t);
    }
}

#[test]
fn shrinking_and_regrowing_tables_match_pinned_results() {
    const NUM_VARS: usize = 14;
    // Flushing before every heuristic, as the paper does, sizes both
    // tables to one heuristic run: tiny generations shrink them to the
    // floor and the large ones grow them again. Starting at 2^8, which is
    // also the floor, scales the default geometry to these instances.
    let mut adaptive = Bdd::new(NUM_VARS);
    adaptive.set_auto_gc(false);
    adaptive.configure_cache(8, 18);
    adaptive.configure_min_memo(8, 18);
    let mut pinned = manager_with(NUM_VARS, 18, 18);
    let mut rng_a = XorShift64::seed_from_u64(4242);
    let mut rng_p = XorShift64::seed_from_u64(4242);
    let mut resizes = Vec::new();
    for round in 0..8 {
        let cubes = if round % 2 == 0 { 48 } else { 2 };
        let isf_a = random_isf_of(&mut adaptive, &mut rng_a, NUM_VARS, cubes);
        let isf_p = random_isf_of(&mut pinned, &mut rng_p, NUM_VARS, cubes);
        assert_eq!((isf_a.f, isf_a.c), (isf_p.f, isf_p.c));
        let covers_a = minimize_all_ways(&mut adaptive, isf_a, true);
        let covers_p = minimize_all_ways(&mut pinned, isf_p, true);
        for ((h, a), b) in all_heuristics().zip(&covers_a).zip(&covers_p) {
            assert_eq!(a, b, "{h} diverged on round {round}");
        }
        let s = adaptive.stats();
        if cubes == 2 {
            assert_eq!(
                (s.cache_capacity, s.memo_capacity),
                (256, 256),
                "round {round}"
            );
        }
        resizes.push((s.cache_resizes, s.memo_resizes));
    }
    // Both tables grew again after their first shrink (round 1).
    let (first, last) = (resizes[1], resizes[resizes.len() - 1]);
    assert!(last.0 > first.0 && last.1 > first.1, "{resizes:?}");
}
