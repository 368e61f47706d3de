//! Graceful degradation under resource budgets: every budgeted path must
//! return a valid cover no larger than `f`, whatever the budget.

use bddmin_bdd::{Bdd, Budget, BudgetKind, Edge, Var, MAX_REC_DEPTH};
use bddmin_core::rng::XorShift64;
use bddmin_core::{Heuristic, Isf, MinReport, Schedule, StepStatus};

const SPECS: [&str; 4] = [
    "d1 01",
    "d1 01 1d 01",
    "1d d1 d0 0d",
    "0d d1 10 01 11 d0 d1 00",
];

fn instance(spec: &str) -> (Bdd, Isf) {
    let mut bdd = Bdd::new(4);
    let (f, c) = bdd.from_leaf_spec(spec).unwrap();
    (bdd, Isf::new(f, c))
}

fn registry() -> Vec<Heuristic> {
    Heuristic::ALL
        .into_iter()
        .chain([Heuristic::Scheduled])
        .collect()
}

fn assert_sound(bdd: &mut Bdd, isf: Isf, g: Edge, context: &str) {
    assert!(isf.is_cover(bdd, g), "{context}: not a cover");
    assert!(
        bdd.size(g) <= bdd.size(isf.f),
        "{context}: larger than f ({} > {})",
        bdd.size(g),
        bdd.size(isf.f)
    );
}

#[test]
fn tiny_budget_smoke_every_heuristic_still_covers() {
    // The CI degradation gate: at step budget 1 nothing completes, yet
    // every registry heuristic must hand back a valid cover ≤ |f|.
    for spec in SPECS {
        for h in registry() {
            let (mut bdd, isf) = instance(spec);
            let (g, report) = h.minimize_budgeted(&mut bdd, isf, Budget::default().steps(1));
            assert_sound(&mut bdd, isf, g, &format!("{h} on {spec} at steps=1"));
            let _ = report; // degradation is allowed but not required (FOrig is free)
        }
    }
}

#[test]
fn budget_sweep_is_always_sound() {
    // Sweep step budgets from starvation to ample: soundness must hold at
    // every point on the ladder, for every heuristic.
    for spec in SPECS {
        for h in registry() {
            for steps in [1, 2, 5, 10, 50, 200, 5_000] {
                let (mut bdd, isf) = instance(spec);
                let (g, _) = h.minimize_budgeted(&mut bdd, isf, Budget::default().steps(steps));
                assert_sound(&mut bdd, isf, g, &format!("{h} on {spec} at steps={steps}"));
            }
        }
    }
}

#[test]
fn ample_budget_matches_plain_minimize() {
    // With a budget large enough to complete, the budgeted path returns
    // byte-identical covers, modulo the size clamp, which the reference
    // applies itself to the raw result.
    for spec in SPECS {
        for h in registry() {
            let (mut bdd, isf) = instance(spec);
            let raw = h.minimize(&mut bdd, isf);
            let plain = if bdd.size(raw) > bdd.size(isf.f) {
                isf.f
            } else {
                raw
            };
            bdd.clear_caches();
            let (budgeted, report) =
                h.minimize_budgeted(&mut bdd, isf, Budget::default().steps(1_000_000));
            assert_eq!(
                budgeted, plain,
                "{h} on {spec}: budgeted result differs under an ample budget"
            );
            assert_eq!(report.skipped(), 0, "{h} on {spec}: spurious skip");
        }
    }
}

#[test]
fn unlimited_budget_never_degrades() {
    for spec in SPECS {
        for h in registry() {
            let (mut bdd, isf) = instance(spec);
            let (_, report) = h.minimize_budgeted(&mut bdd, isf, Budget::UNLIMITED);
            assert_eq!(report.skipped(), 0, "{h} on {spec}");
        }
    }
}

#[test]
fn node_ceiling_degrades_gracefully() {
    for spec in SPECS {
        for h in registry() {
            let (mut bdd, isf) = instance(spec);
            let live = bdd.stats().live_nodes;
            // Allow almost nothing beyond what already exists.
            let (g, _) = h.minimize_budgeted(&mut bdd, isf, Budget::default().nodes(live + 1));
            assert_sound(
                &mut bdd,
                isf,
                g,
                &format!("{h} on {spec} under node ceiling"),
            );
        }
    }
}

#[test]
fn schedule_report_records_the_skip_reason() {
    let (mut bdd, isf) = instance("0d d1 10 01 11 d0 d1 00");
    let (g, report) =
        Schedule::new(2, 1).apply_with_report(&mut bdd, isf, Budget::default().steps(3));
    assert_sound(&mut bdd, isf, g, "schedule at steps=3");
    assert!(report.degraded());
    let first = report
        .first_skip()
        .expect("a 3-step budget must skip something");
    match first.status {
        StepStatus::Skipped(e) => assert_eq!(e.kind, BudgetKind::Steps),
        StepStatus::Completed => unreachable!(),
    }
}

#[test]
fn schedule_keeps_osm_when_tsm_blows_budget() {
    // The Theorem 12 ladder: find a budget where the osm sibling pass of
    // the first window completes but a later tsm step is skipped. The
    // schedule must keep the osm progress and still return a valid cover.
    let spec = "0d d1 10 01 11 d0 d1 00";
    let mut found = false;
    for steps in 10..400u64 {
        let (mut bdd, isf) = instance(spec);
        let (g, report) =
            Schedule::new(4, 1).apply_with_report(&mut bdd, isf, Budget::default().steps(steps));
        assert_sound(&mut bdd, isf, g, &format!("schedule at steps={steps}"));
        let osm_done = report
            .steps
            .iter()
            .any(|s| s.kind == bddmin_core::StepKind::OsmSiblings && s.status.is_completed());
        let tsm_skipped = report.steps.iter().any(|s| {
            matches!(
                s.kind,
                bddmin_core::StepKind::TsmSiblings | bddmin_core::StepKind::TsmLevel
            ) && !s.status.is_completed()
        });
        if osm_done && tsm_skipped {
            found = true;
            break;
        }
    }
    assert!(
        found,
        "no budget exhibited the keep-osm-drop-tsm degradation"
    );
}

#[test]
fn budgeted_runs_are_deterministic() {
    // Same instance, same step budget, fresh managers: identical covers
    // and identical reports (the step counter is the only clock).
    for steps in [1, 7, 63, 900] {
        let run = |steps: u64| -> (usize, MinReport) {
            let (mut bdd, isf) = instance("0d d1 10 01 11 d0 d1 00");
            let (g, report) = Heuristic::Scheduled.minimize_budgeted(
                &mut bdd,
                isf,
                Budget::default().steps(steps),
            );
            (bdd.size(g), report)
        };
        let (size1, report1) = run(steps);
        let (size2, report2) = run(steps);
        assert_eq!(size1, size2, "steps={steps}");
        assert_eq!(report1, report2, "steps={steps}");
    }
}

#[test]
fn trivial_heuristics_survive_starvation() {
    let (mut bdd, isf) = instance("d1 01 1d 01");
    for h in [Heuristic::FOrig, Heuristic::FAndC, Heuristic::FOrNc] {
        let (g, _) = h.minimize_budgeted(&mut bdd, isf, Budget::default().steps(1));
        assert_sound(&mut bdd, isf, g, &format!("{h} at steps=1"));
    }
    // FOrig never needs budget at all.
    let (g, report) = Heuristic::FOrig.minimize_budgeted(&mut bdd, isf, Budget::default().steps(1));
    assert_eq!(g, isf.f);
    assert!(!report.degraded());
}

#[test]
fn zero_var_frontier_budget_expired_deadline() {
    use std::time::Instant;
    let (mut bdd, isf) = instance("0d d1 10 01 11 d0 d1 00");
    let budget = Budget::default().deadline(Instant::now());
    let (g, report) = Heuristic::Scheduled.minimize_budgeted(&mut bdd, isf, budget);
    assert_sound(&mut bdd, isf, g, "expired deadline");
    assert!(report.degraded());
}

/// More variables than the kernel's recursion-depth guard allows.
const DEEP_VARS: u32 = MAX_REC_DEPTH + 100;

/// `f = v0·v1·…·v(n−1)` and `c = v0 ⊕ v(n−1)` over `DEEP_VARS` variables.
/// `f` is built bottom-up, so no operation recurses deep while building.
fn deep_instance() -> (Bdd, Isf) {
    let mut bdd = Bdd::new(DEEP_VARS as usize);
    let mut f = Edge::ONE;
    for v in (0..DEEP_VARS).rev() {
        let x = bdd.var(Var(v));
        f = bdd.and(x, f);
    }
    let first = bdd.var(Var(0));
    let last = bdd.var(Var(DEEP_VARS - 1));
    let c = bdd.xor(first, last);
    (bdd, Isf::new(f, c))
}

/// Coverage checked by evaluation at sampled points, because the kernel's
/// own cover test trips the same depth guard on this instance: `g` must
/// agree with `f` wherever `c` holds.
fn covers_at_samples(bdd: &Bdd, isf: Isf, g: Edge) -> bool {
    let n = DEEP_VARS as usize;
    let mut points = Vec::new();
    // The all-ones point (f = 1, a don't care) and its two neighbours
    // that enter the care set (f = 0 there).
    for flip in [None, Some(0), Some(n - 1)] {
        let mut point = vec![true; n];
        if let Some(v) = flip {
            point[v] = false;
        }
        points.push(point);
    }
    let mut rng = XorShift64::seed_from_u64(0xDEE9);
    for _ in 0..256 {
        points.push((0..n).map(|_| rng.gen_range(0..2) == 1).collect());
    }
    points
        .iter()
        .all(|point| !bdd.eval(isf.c, point) || bdd.eval(g, point) == bdd.eval(isf.f, point))
}

#[test]
fn deep_instances_degrade_instead_of_panicking() {
    // Deeper than the recursion guard: steps that trip it are skipped, so
    // both entry points return a cover instead of panicking.
    for h in registry() {
        let (mut bdd, isf) = deep_instance();
        let raw = h.minimize(&mut bdd, isf);
        assert!(
            covers_at_samples(&bdd, isf, raw),
            "{h}: minimize broke cover"
        );
        let (g, _) = h.minimize_budgeted(&mut bdd, isf, Budget::UNLIMITED);
        assert!(
            covers_at_samples(&bdd, isf, g),
            "{h}: minimize_budgeted broke cover"
        );
        assert!(bdd.size(g) <= bdd.size(isf.f), "{h}: larger than f");
    }
}
