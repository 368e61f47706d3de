//! Governor behavior: budgets, checked cancellation, and the recursion
//! depth guard.

use std::time::Instant;

use bddmin_bdd::{Bdd, Budget, BudgetKind, Edge, Var};

/// Two interleaved positive cubes over `n` variables (even levels and odd
/// levels). Built bottom-up without recursion, so construction works at
/// any depth; conjoining them forces a recursion as deep as the order.
fn interleaved_cubes(bdd: &mut Bdd, n: u32) -> (Edge, Edge) {
    let even: Vec<Var> = (0..n).step_by(2).map(Var).collect();
    let odd: Vec<Var> = (1..n).step_by(2).map(Var).collect();
    (bdd.cube_of_vars(&even), bdd.cube_of_vars(&odd))
}

fn parity(bdd: &mut Bdd, vars: std::ops::Range<u32>) -> Edge {
    let mut f = Edge::ZERO;
    for i in vars {
        let v = bdd.var(Var(i));
        f = bdd.xor(f, v);
    }
    f
}

#[test]
fn unbudgeted_checked_ops_match_infallible_ones() {
    let mut bdd = Bdd::new(8);
    let f = parity(&mut bdd, 0..8);
    let x = bdd.var(Var(0));
    let plain = bdd.and(f, x);
    bdd.clear_caches();
    let checked = bdd.try_and(f, x).unwrap();
    assert_eq!(
        plain, checked,
        "checked and unchecked paths are the same recursion"
    );
}

#[test]
fn step_budget_trips_deterministically() {
    let run = || {
        let mut bdd = Bdd::new(16);
        let f = parity(&mut bdd, 0..16);
        let g = parity(&mut bdd, 8..16);
        bdd.clear_caches();
        bdd.set_budget(Budget::default().steps(10));
        let err = bdd.try_ite(f, g, Edge::ZERO).unwrap_err();
        (err.kind, bdd.steps_used())
    };
    let (kind1, steps1) = run();
    let (kind2, steps2) = run();
    assert_eq!(kind1, BudgetKind::Steps);
    assert_eq!(
        (kind1, steps1),
        (kind2, steps2),
        "trip point is deterministic"
    );
    assert_eq!(steps1, 11, "fails on the first step past the limit");
}

#[test]
fn sufficient_budget_is_byte_identical() {
    let mut bdd = Bdd::new(12);
    let f = parity(&mut bdd, 0..12);
    let g = parity(&mut bdd, 6..12);
    let reference = bdd.and(f, g);
    bdd.clear_caches();
    bdd.set_budget(Budget::default().steps(1_000_000).nodes(1 << 20));
    let governed = bdd.try_and(f, g).expect("budget is ample");
    assert_eq!(governed, reference);
    bdd.clear_budget();
}

#[test]
fn node_ceiling_trips_only_on_fresh_allocation() {
    let mut bdd = Bdd::new(8);
    let f = parity(&mut bdd, 0..8);
    let g = parity(&mut bdd, 4..8);
    let built = bdd.and(f, g); // allocate everything needed once
    let live = {
        let s = bdd.stats();
        s.live_nodes
    };
    bdd.clear_caches();
    bdd.set_budget(Budget::default().nodes(live));
    // Recomputing an already-present function allocates nothing: the
    // unique table's find-or-add hits every time.
    assert_eq!(bdd.try_and(f, g), Ok(built));
    // A genuinely new function must allocate and trips the ceiling.
    let h = parity(&mut bdd, 2..7);
    let err = bdd.try_xor(built, h).unwrap_err();
    assert_eq!(err.kind, BudgetKind::Nodes);
    bdd.clear_budget();
}

#[test]
fn expired_deadline_cancels_promptly() {
    let mut bdd = Bdd::new(12);
    let f = parity(&mut bdd, 0..12);
    let g = parity(&mut bdd, 3..9);
    bdd.clear_caches();
    bdd.set_budget(Budget::default().deadline(Instant::now()));
    let err = bdd.try_and(f, g).unwrap_err();
    assert_eq!(err.kind, BudgetKind::Time);
    bdd.clear_budget();
    assert!(bdd.try_and(f, g).is_ok());
}

#[test]
fn aborted_operation_leaves_manager_consistent() {
    let mut bdd = Bdd::new(16);
    let f = parity(&mut bdd, 0..16);
    let g = parity(&mut bdd, 8..16);
    bdd.clear_caches();
    bdd.set_budget(Budget::default().steps(5));
    assert!(bdd.try_and(f, g).is_err());
    bdd.clear_budget();
    // The abort left no wrong cache entries and no broken structures:
    // the same op now completes and agrees with a fresh manager.
    let r = bdd.and(f, g);
    let mut fresh = Bdd::new(16);
    let ff = parity(&mut fresh, 0..16);
    let gf = parity(&mut fresh, 8..16);
    let rf = fresh.and(ff, gf);
    assert_eq!(bdd.size(r), fresh.size(rf));
    for bits in 0..(1u32 << 16) {
        if bits % 257 != 0 {
            continue; // sample the space
        }
        let assign: Vec<bool> = (0..16).map(|i| bits & (1 << i) != 0).collect();
        assert_eq!(bdd.eval(r, &assign), fresh.eval(rf, &assign));
    }
}

#[test]
fn depth_guard_converts_stack_overflow_into_error() {
    // Regression: conjoining two interleaved 4000-level cubes recurses
    // ~4000 frames deep — enough to overflow a 2 MiB debug test-thread
    // stack before the guard existed.
    let mut bdd = Bdd::new(4000);
    let (even, odd) = interleaved_cubes(&mut bdd, 4000);
    let err = bdd.try_and(even, odd).unwrap_err();
    assert_eq!(err.kind, BudgetKind::Depth);
}

#[test]
#[should_panic(expected = "resource budget exceeded")]
fn unchecked_deep_recursion_panics_cleanly() {
    let mut bdd = Bdd::new(4000);
    let (even, odd) = interleaved_cubes(&mut bdd, 4000);
    let _ = bdd.and(even, odd); // clean panic, not a stack overflow abort
}

#[test]
fn shallow_functions_never_hit_the_depth_guard() {
    let mut bdd = Bdd::new(1400);
    let (even, odd) = interleaved_cubes(&mut bdd, 1400);
    let both = bdd
        .try_and(even, odd)
        .expect("1400 levels fit under the guard");
    let all: Vec<Var> = (0..1400).map(Var).collect();
    assert_eq!(both, bdd.cube_of_vars(&all));
}
