//! Differential suite for the fused relational-product kernel and the
//! image methods built on it.
//!
//! Two contracts are pinned across a randomized stream:
//!
//! * **Fused ≡ unfused, edge for edge.** `and_exists(f, g, v)` must
//!   return literally the same edge as `exists(and(f, g), v)` — the
//!   fused recursion is a peak-memory optimization, never a semantic
//!   one. Checked with GC and cache flushes injected mid-sequence.
//! * **Image methods are interchangeable.** `image_by_range` must agree
//!   with the monolithic `image` at every BFS step of random circuits.
//!
//! Budgets: a blown step budget must surface as `Err(BudgetExceeded)`
//! — a budgeted `try_and_exists` that completes must agree with the
//! unbudgeted kernel, and one that aborts must leave the manager able
//! to reproduce the correct edge afterwards. Wrong edges are never an
//! acceptable degradation.

use bddmin_bdd::{Bdd, Budget, BudgetExceeded, Edge, Var};
use bddmin_core::rng::XorShift64;
use bddmin_fsm::{generators, ImageMethod, SymbolicFsm};

/// Builds a pseudo-random function over `n` vars.
fn random_fn(bdd: &mut Bdd, n: usize, rng: &mut XorShift64) -> Edge {
    let mut f = if rng.gen_bool(0.5) { Edge::ZERO } else { Edge::ONE };
    for _ in 0..rng.gen_range_inclusive(2, 7) {
        let v = bdd.var(Var(rng.gen_range(0..n) as u32));
        let v = if rng.gen_bool(0.5) { bdd.not(v) } else { v };
        f = match rng.gen_range(0..3) {
            0 => bdd.and(f, v),
            1 => bdd.or(f, v),
            _ => bdd.xor(f, v),
        };
    }
    f
}

/// A random non-empty positive cube over `n` vars.
fn random_cube(bdd: &mut Bdd, n: usize, rng: &mut XorShift64) -> Edge {
    let mask = rng.gen_range(1..1 << n);
    let vars: Vec<Var> = (0..n)
        .filter(|i| mask & (1 << i) != 0)
        .map(|i| Var(i as u32))
        .collect();
    bdd.cube_of_vars(&vars)
}

#[test]
fn fused_equals_unfused_under_chaos() {
    const NVARS: usize = 7;
    let mut rng = XorShift64::seed_from_u64(0xF0_5ED);
    let mut bdd = Bdd::new(NVARS);
    for round in 0..80 {
        let f = random_fn(&mut bdd, NVARS, &mut rng);
        let g = random_fn(&mut bdd, NVARS, &mut rng);
        let cube = random_cube(&mut bdd, NVARS, &mut rng);
        // Chaos: flush the computed cache or GC mid-sequence so the
        // fused path cannot lean on stale entries.
        match round % 4 {
            1 => bdd.clear_caches(),
            2 => {
                bdd.collect_garbage(&[f, g, cube]);
            }
            _ => {}
        }
        let fused = bdd.and_exists(f, g, cube);
        let anded = bdd.and(f, g);
        let separate = bdd.exists(anded, cube);
        assert_eq!(fused, separate, "fused and_exists diverged (round {round})");
    }
}

#[test]
fn budgeted_and_exists_errors_or_agrees_never_lies() {
    const NVARS: usize = 7;
    let mut rng = XorShift64::seed_from_u64(0xB0D6E7);
    let mut bdd = Bdd::new(NVARS);
    let mut aborts = 0usize;
    for round in 0..60 {
        let f = random_fn(&mut bdd, NVARS, &mut rng);
        let g = random_fn(&mut bdd, NVARS, &mut rng);
        let cube = random_cube(&mut bdd, NVARS, &mut rng);
        let want = bdd.and_exists(f, g, cube);
        // A fresh manager so the cache cannot answer for the recursion,
        // then a step budget squeezed from ample to starved.
        for steps in [1u64, 8, 64, 100_000] {
            let mut tight = Bdd::new(NVARS);
            let tf = bdd.transfer(f, &mut tight, |v| v);
            let tg = bdd.transfer(g, &mut tight, |v| v);
            let tcube = bdd.transfer(cube, &mut tight, |v| v);
            let twant = bdd.transfer(want, &mut tight, |v| v);
            tight.set_budget(Budget::default().steps(tight.steps_used() + steps));
            match tight.try_and_exists(tf, tg, tcube) {
                Ok(r) => assert_eq!(r, twant, "budgeted result lied (round {round})"),
                Err(e) => {
                    aborts += 1;
                    assert_eq!(e, BudgetExceeded::STEPS);
                    // After the abort the manager must still be able to
                    // produce the correct edge.
                    tight.clear_budget();
                    assert_eq!(tight.and_exists(tf, tg, tcube), twant);
                }
            }
        }
    }
    assert!(aborts > 0, "the starved budgets never tripped — test is vacuous");
}

#[test]
fn image_methods_agree_on_random_circuits_under_chaos() {
    let mut rng = XorShift64::seed_from_u64(0x1A6E);
    for round in 0..12 {
        let latches = rng.gen_range_inclusive(2, 5);
        let inputs = rng.gen_range_inclusive(1, 3);
        let seed = rng.gen_u64();
        let circuit = generators::random_fsm("fi", latches, inputs, seed);
        let mut fsm = SymbolicFsm::new(&circuit);
        let mut set = fsm.initial_states();
        for step in 0..5 {
            match step % 3 {
                1 => fsm.bdd_mut().clear_caches(),
                2 => {
                    fsm.collect_garbage(&[set]);
                }
                _ => {}
            }
            let mono = fsm.image(set);
            assert_eq!(
                fsm.image_with(ImageMethod::Range, set),
                mono,
                "range diverged from mono (round {round}, step {step}, seed={seed:#x})"
            );
            set = fsm.bdd_mut().or(set, mono);
        }
    }
}
