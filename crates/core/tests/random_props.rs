//! Randomized property tests for the minimization framework, driven by
//! the in-tree [`XorShift64`] generator so they run offline under plain
//! `cargo test -q`. Random ISFs over 4 (or, for the exhaustive theorems,
//! 3) variables; every heuristic must return a cover, and the paper's
//! structural theorems are exercised on the random stream with fixed
//! seeds.

use bddmin_bdd::{Bdd, Budget, Cube, Edge, Var};
use bddmin_core::rng::XorShift64;
use bddmin_core::{
    exact_minimum, generic_td, lower_bound, matches_directed, minimize_at_level, opt_lv, try_match,
    windowed_sibling_pass, CliqueOptions, ExactConfig, Heuristic, Isf, LevelWindow, MatchCriterion,
    Schedule, SiblingConfig,
};

const NVARS: usize = 4;
const TABLE: usize = 1 << NVARS;
const CASES: usize = 48;

fn from_table(bdd: &mut Bdd, table: u16) -> Edge {
    let mut f = Edge::ZERO;
    for row in 0..TABLE {
        if table >> row & 1 == 1 {
            let lits: Vec<(Var, bool)> = (0..NVARS)
                .map(|v| (Var(v as u32), row >> (NVARS - 1 - v) & 1 == 1))
                .collect();
            let cube = Cube::new(lits).to_edge(bdd);
            f = bdd.or(f, cube);
        }
    }
    f
}

/// Builds a 3-variable function from a truth table (for exhaustive checks).
fn from_table3(bdd: &mut Bdd, table: u8) -> Edge {
    let mut f = Edge::ZERO;
    for row in 0..8 {
        if table >> row & 1 == 1 {
            let lits: Vec<(Var, bool)> = (0..3)
                .map(|v| (Var(v as u32), row >> (2 - v) & 1 == 1))
                .collect();
            let cube = Cube::new(lits).to_edge(bdd);
            f = bdd.or(f, cube);
        }
    }
    f
}

/// Draws a random instance with a non-empty care set.
fn instance(rng: &mut XorShift64) -> (u16, u16) {
    loop {
        let tc = rng.gen_u16();
        if tc != 0 {
            return (rng.gen_u16(), tc);
        }
    }
}

#[test]
fn every_heuristic_returns_a_cover() {
    let mut rng = XorShift64::seed_from_u64(0xC0FE);
    for _ in 0..CASES {
        let (tf, tc) = instance(&mut rng);
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, tf);
        let c = from_table(&mut bdd, tc);
        let isf = Isf::new(f, c);
        for h in Heuristic::ALL.into_iter().chain([Heuristic::Scheduled]) {
            let g = h.minimize(&mut bdd, isf);
            assert!(
                isf.is_cover(&mut bdd, g),
                "{h} returned a non-cover on {tf:#06x}/{tc:#06x}"
            );
        }
    }
}

#[test]
fn checked_never_exceeds_f() {
    let mut rng = XorShift64::seed_from_u64(0xC4EC);
    for _ in 0..CASES {
        let (tf, tc) = instance(&mut rng);
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, tf);
        let c = from_table(&mut bdd, tc);
        let isf = Isf::new(f, c);
        let f_size = bdd.size(f);
        for h in Heuristic::ALL {
            let (out, _) = h.minimize_budgeted(&mut bdd, isf, Budget::UNLIMITED);
            assert!(
                bdd.size(out) <= f_size,
                "{h} checked exceeded f on {tf:#06x}/{tc:#06x}"
            );
            assert!(isf.is_cover(&mut bdd, out));
        }
    }
}

#[test]
fn framework_matches_classic_operators() {
    let mut rng = XorShift64::seed_from_u64(0x7AB2);
    for _ in 0..CASES {
        let (tf, tc) = instance(&mut rng);
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, tf);
        let c = from_table(&mut bdd, tc);
        let isf = Isf::new(f, c);
        let con_fw = generic_td(&mut bdd, isf, SiblingConfig::new(MatchCriterion::Osdm));
        let con_classic = bdd.constrain(f, c);
        assert_eq!(con_fw, con_classic, "constrain row on {tf:#06x}/{tc:#06x}");
        let res_fw = generic_td(
            &mut bdd,
            isf,
            SiblingConfig::new(MatchCriterion::Osdm).no_new_vars(true),
        );
        let res_classic = bdd.restrict(f, c);
        assert_eq!(res_fw, res_classic, "restrict row on {tf:#06x}/{tc:#06x}");
    }
}

#[test]
fn theorem7_cube_care_is_optimal() {
    let mut rng = XorShift64::seed_from_u64(0x7007);
    for _ in 0..CASES {
        // 3-variable instances so the exhaustive optimum (256 candidate
        // covers) stays cheap.
        let mut bdd = Bdd::new(3);
        let tf = (rng.gen_u16() & 0xFF) as u8;
        let f = from_table3(&mut bdd, tf);
        // A random consistent cube over a random subset of variables.
        let mut cube_lits: Vec<(Var, bool)> = Vec::new();
        for v in 0..3 {
            if rng.gen_bool(0.5) {
                cube_lits.push((Var(v), rng.gen_bool(0.5)));
            }
        }
        let cube = Cube::new(cube_lits).to_edge(&mut bdd);
        let isf = Isf::new(f, cube);
        // Exhaustive optimum.
        let mut best = usize::MAX;
        for table in 0u32..256 {
            let g = from_table3(&mut bdd, table as u8);
            if isf.is_cover(&mut bdd, g) {
                best = best.min(bdd.size(g));
            }
        }
        for h in Heuristic::SIBLING {
            let g = h.minimize(&mut bdd, isf);
            assert_eq!(
                bdd.size(g),
                best,
                "{h} not optimal on cube care ({tf:#04x})"
            );
        }
    }
}

#[test]
fn lower_bound_is_sound() {
    let mut rng = XorShift64::seed_from_u64(0x10B0);
    for _ in 0..CASES {
        let (tf, tc) = instance(&mut rng);
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, tf);
        let c = from_table(&mut bdd, tc);
        let isf = Isf::new(f, c);
        let lb = lower_bound(&mut bdd, isf, 1000);
        // Each heuristic is an upper bound on the optimum.
        for h in [
            Heuristic::Constrain,
            Heuristic::Restrict,
            Heuristic::OsmBt,
            Heuristic::TsmTd,
            Heuristic::OptLv,
        ] {
            let g = h.minimize(&mut bdd, isf);
            assert!(
                lb.bound <= bdd.size(g),
                "{h} below the lower bound on {tf:#06x}/{tc:#06x}"
            );
        }
    }
}

#[test]
fn matching_hierarchy_on_random_isfs() {
    let mut rng = XorShift64::seed_from_u64(0x414C);
    for _ in 0..CASES {
        let mut bdd = Bdd::new(NVARS);
        let (t1, c1) = (rng.gen_u16(), rng.gen_u16());
        let (t2, c2) = (rng.gen_u16(), rng.gen_u16());
        let a = {
            let f = from_table(&mut bdd, t1);
            let c = from_table(&mut bdd, c1);
            Isf::new(f, c)
        };
        let b = {
            let f = from_table(&mut bdd, t2);
            let c = from_table(&mut bdd, c2);
            Isf::new(f, c)
        };
        let osdm = matches_directed(&mut bdd, MatchCriterion::Osdm, a, b);
        let osm = matches_directed(&mut bdd, MatchCriterion::Osm, a, b);
        let tsm = matches_directed(&mut bdd, MatchCriterion::Tsm, a, b);
        assert!(
            !osdm || osm,
            "osdm ⟹ osm on {t1:#06x}/{c1:#06x} vs {t2:#06x}/{c2:#06x}"
        );
        assert!(
            !osm || tsm,
            "osm ⟹ tsm on {t1:#06x}/{c1:#06x} vs {t2:#06x}/{c2:#06x}"
        );
        // Any produced i-cover i-covers both inputs.
        for crit in MatchCriterion::ALL {
            if let Some(m) = try_match(&mut bdd, crit, a, b) {
                assert!(m.i_covers(&mut bdd, a), "{crit} icover of a");
                assert!(m.i_covers(&mut bdd, b), "{crit} icover of b");
            }
        }
    }
}

#[test]
fn level_pass_produces_icover() {
    let mut rng = XorShift64::seed_from_u64(0x1E71);
    for _ in 0..CASES {
        let (tf, tc) = instance(&mut rng);
        let lvl = rng.gen_range(0..NVARS) as u32;
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, tf);
        let c = from_table(&mut bdd, tc);
        let isf = Isf::new(f, c);
        for crit in [MatchCriterion::Osm, MatchCriterion::Tsm] {
            let out = minimize_at_level(&mut bdd, isf, Var(lvl), crit, CliqueOptions::default());
            assert!(
                out.i_covers(&mut bdd, isf),
                "{crit} level pass on {tf:#06x}/{tc:#06x} at {lvl}"
            );
            assert!(bdd.implies_holds(isf.c, out.c), "care must not shrink");
        }
    }
}

#[test]
fn windowed_pass_produces_icover() {
    let mut rng = XorShift64::seed_from_u64(0x3140);
    for _ in 0..CASES {
        let (tf, tc) = instance(&mut rng);
        let top = rng.gen_range(0..NVARS) as u32;
        let bottom = (top + rng.gen_range_inclusive(1, NVARS - 1) as u32).min(NVARS as u32);
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, tf);
        let c = from_table(&mut bdd, tc);
        let isf = Isf::new(f, c);
        let window = LevelWindow::new(Var(top), Var(bottom));
        for crit in MatchCriterion::ALL {
            for compl in [false, true] {
                let cfg = SiblingConfig::new(crit).match_complement(compl);
                let out = windowed_sibling_pass(&mut bdd, isf, cfg, window);
                assert!(
                    out.i_covers(&mut bdd, isf),
                    "{crit} (complement {compl}) window {top}..{bottom} on {tf:#06x}/{tc:#06x}"
                );
            }
        }
    }
}

#[test]
fn schedule_window_sweep_is_sound() {
    let mut rng = XorShift64::seed_from_u64(0x5C4E);
    for _ in 0..CASES {
        let (tf, tc) = instance(&mut rng);
        let window = rng.gen_range_inclusive(1, 4) as u32;
        let stop = rng.gen_range(0..3) as u32;
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, tf);
        let c = from_table(&mut bdd, tc);
        let isf = Isf::new(f, c);
        for schedule in [
            Schedule::new(window, stop),
            Schedule::new(window, stop).level_passes(false),
        ] {
            let g = schedule.apply(&mut bdd, isf);
            assert!(
                isf.is_cover(&mut bdd, g),
                "window {window}, stop {stop} on {tf:#06x}/{tc:#06x}"
            );
        }
    }
}

#[test]
fn opt_lv_sound_and_deterministic() {
    let mut rng = XorShift64::seed_from_u64(0x0971);
    for _ in 0..CASES {
        let (tf, tc) = instance(&mut rng);
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, tf);
        let c = from_table(&mut bdd, tc);
        let isf = Isf::new(f, c);
        let g1 = opt_lv(&mut bdd, isf, CliqueOptions::default());
        let g2 = opt_lv(&mut bdd, isf, CliqueOptions::default());
        assert_eq!(g1, g2, "opt_lv nondeterministic on {tf:#06x}/{tc:#06x}");
        assert!(
            isf.is_cover(&mut bdd, g1),
            "opt_lv non-cover on {tf:#06x}/{tc:#06x}"
        );
    }
}

#[test]
fn exact_is_a_true_lower_envelope() {
    let mut rng = XorShift64::seed_from_u64(0xE8AC);
    let mut checked = 0;
    while checked < CASES / 2 {
        let tf = (rng.gen_u16() & 0xFF) as u8;
        let tc = (rng.gen_u16() & 0xFF) as u8;
        if tc == 0 {
            continue;
        }
        checked += 1;
        // 3-variable instances with bounded DC counts so the exact
        // enumeration stays small.
        let mut bdd = Bdd::new(3);
        let f = from_table3(&mut bdd, tf);
        let c = from_table3(&mut bdd, tc);
        let isf = Isf::new(f, c);
        let exact = exact_minimum(
            &mut bdd,
            isf,
            ExactConfig {
                max_support_vars: 3,
                max_dc_minterms: 8,
            },
        )
        .expect("3-var instance fits the limits");
        assert!(isf.is_cover(&mut bdd, exact.cover));
        let lb = lower_bound(&mut bdd, isf, 1000);
        assert!(lb.bound <= exact.size, "lb sound on {tf:#04x}/{tc:#04x}");
        for h in Heuristic::ALL.into_iter().chain([Heuristic::Scheduled]) {
            if matches!(h, Heuristic::FAndC | Heuristic::FOrNc) {
                continue;
            }
            let g = h.minimize(&mut bdd, isf);
            assert!(
                exact.size <= bdd.size(g),
                "{h} beat the exact optimum on {tf:#04x}/{tc:#04x}"
            );
        }
    }
}

#[test]
fn trivial_care_shortcuts() {
    // 0 ≠ c ≤ f ⟹ result 1; c ≤ ¬f ⟹ result 0 (paper §3.1).
    let mut rng = XorShift64::seed_from_u64(0x731A);
    for _ in 0..CASES {
        let (tf, tc) = instance(&mut rng);
        let mut bdd = Bdd::new(NVARS);
        let f = from_table(&mut bdd, tf);
        let c0 = from_table(&mut bdd, tc);
        let c_in_f = bdd.and(c0, f);
        if c_in_f.is_zero() {
            continue;
        }
        for h in Heuristic::SIBLING {
            let g = h.minimize(&mut bdd, Isf::new(f, c_in_f));
            assert!(g.is_one(), "{h} on c ≤ f ({tf:#06x}/{tc:#06x})");
            let nf = bdd.not(f);
            let c_in_nf = bdd.and(c0, nf);
            if !c_in_nf.is_zero() {
                let g0 = h.minimize(&mut bdd, Isf::new(f, c_in_nf));
                assert!(g0.is_zero(), "{h} on c ≤ ¬f ({tf:#06x}/{tc:#06x})");
            }
        }
    }
}
