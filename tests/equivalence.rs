//! End-to-end FSM equivalence checking (the paper's application) with
//! minimization in the loop.

use bddmin_core::rng::XorShift64;
use bddmin_core::Heuristic;
use bddmin_eval::runner::{traverse, ExperimentConfig, ExperimentResults};
use bddmin_fsm::{
    generators, parse_blif, print_blif, product_circuit, verify_fsm_equivalence,
    verify_fsm_equivalence_with, with_flipped_latch, Circuit, ImageMethod, MinimizeHook,
    Reachability, SymbolicFsm,
};

/// Every machine in the suite is equivalent to itself, whatever heuristic
/// drives the frontier minimization.
#[test]
fn suite_self_equivalence_under_every_heuristic() {
    for bench in generators::benchmark_suite() {
        // Keep the expensive all-heuristic check to the small machines.
        let heuristics: &[Heuristic] = if bench.circuit.num_latches() <= 4 {
            &[Heuristic::Constrain, Heuristic::Restrict, Heuristic::OsmBt]
        } else {
            &[Heuristic::Restrict]
        };
        for &h in heuristics {
            let mut hook =
                move |bdd: &mut bddmin_bdd::Bdd, isf: bddmin_core::Isf| h.minimize(bdd, isf);
            let hook_ref: &mut MinimizeHook<'_> = &mut hook;
            let verdict =
                verify_fsm_equivalence(&bench.circuit, &bench.circuit.clone(), Some(hook_ref));
            assert!(
                verdict.is_ok(),
                "{} declared inequivalent to itself under {h}",
                bench.paper_name
            );
        }
    }
}

/// Structural perturbation is detected, and the verdict (including the
/// failure depth) does not depend on the minimization heuristic.
#[test]
fn perturbation_detected_at_same_depth() {
    let a = generators::counter("cnt", 3);
    let bad = with_flipped_latch(&a, 1);
    let mut depths = Vec::new();
    for h in [Heuristic::Constrain, Heuristic::OsmBt, Heuristic::TsmTd] {
        let mut hook = move |bdd: &mut bddmin_bdd::Bdd, isf: bddmin_core::Isf| h.minimize(bdd, isf);
        let hook_ref: &mut MinimizeHook<'_> = &mut hook;
        let verdict = verify_fsm_equivalence(&a, &bad, Some(hook_ref));
        let depth = verdict.expect_err("flipped machine must differ");
        depths.push(depth);
    }
    assert!(depths.windows(2).all(|w| w[0] == w[1]), "{depths:?}");
}

/// A machine is equivalent to its own BLIF round trip.
#[test]
fn blif_round_trip_machines_are_equivalent() {
    for name in ["tlc", "s386", "minmax5"] {
        let bench = generators::benchmark_suite()
            .into_iter()
            .find(|b| b.paper_name == name)
            .unwrap();
        let text = print_blif(&bench.circuit);
        let reparsed = parse_blif(&text).expect("round trip parses");
        assert!(
            verify_fsm_equivalence(&bench.circuit, &reparsed, None).is_ok(),
            "{name} round trip changed behaviour"
        );
    }
}

/// Two structurally different implementations of the same behaviour are
/// proven equivalent: a binary counter versus its re-encoded BLIF clone
/// with an extra inverter pair on a next-state function.
#[test]
fn equivalence_across_different_structures() {
    let a = generators::counter("cnt", 2);
    // Build an equivalent machine by double-inverting a next-state net in
    // the BLIF text (structural change, behavioural identity).
    let mut text = print_blif(&a);
    // q0 next-state is the output of some gate feeding `.latch <net> q0 0`;
    // splice an inverter pair: latch input -> inv1 -> inv2 -> latch.
    let latch_line = text
        .lines()
        .find(|l| l.starts_with(".latch") && l.contains(" q0 "))
        .expect("latch q0 present")
        .to_owned();
    let parts: Vec<&str> = latch_line.split_whitespace().collect();
    let data_net = parts[1];
    let new_latch = format!(".latch inv2 {} {}", parts[2], parts[3]);
    text = text.replace(&latch_line, &new_latch);
    text = text.replace(
        ".end",
        &format!(".names {data_net} inv1\n0 1\n.names inv1 inv2\n0 1\n.end"),
    );
    let b = parse_blif(&text).expect("modified BLIF parses");
    assert!(verify_fsm_equivalence(&a, &b, None).is_ok());
    // Sanity: a single inverter (wrong polarity) is caught.
    let mut wrong = print_blif(&a);
    let latch_line = wrong
        .lines()
        .find(|l| l.starts_with(".latch") && l.contains(" q0 "))
        .unwrap()
        .to_owned();
    let parts: Vec<&str> = latch_line.split_whitespace().collect();
    let data_net = parts[1].to_owned();
    let new_latch = format!(".latch inv1 {} {}", parts[2], parts[3]);
    wrong = wrong.replace(&latch_line, &new_latch);
    wrong = wrong.replace(".end", &format!(".names {data_net} inv1\n0 1\n.end"));
    let w = parse_blif(&wrong).expect("modified BLIF parses");
    assert!(verify_fsm_equivalence(&a, &w, None).is_err());
}

/// The three configurations of the one frontier loop count the same BFS
/// depth: the equivalence check of a machine against itself, `Reachability`
/// on the product machine, and the number of frontier-set calls (class 1)
/// the evaluation traversal intercepts. Both image methods give the same
/// verdict and depth on a machine with a flipped latch.
#[test]
fn frontier_loop_configurations_agree() {
    let suite = generators::benchmark_suite()
        .into_iter()
        .filter(|b| b.paper_name != "cbp.32.4")
        .map(|b| (b.circuit, true));
    let mut rng = XorShift64::seed_from_u64(0xF00D);
    let random: Vec<(Circuit, bool)> = (0..16)
        .map(|i| {
            let latches = rng.gen_range_inclusive(1, 5);
            let inputs = rng.gen_range_inclusive(1, 3);
            let seed = rng.gen_u64();
            (
                generators::random_fsm(&format!("r{i}"), latches, inputs, seed),
                false,
            )
        })
        .collect();
    for (a, in_suite) in suite.chain(random) {
        let bad = with_flipped_latch(&a, a.num_latches() - 1);
        let mut flipped_depths = Vec::new();
        for method in ImageMethod::ALL {
            let depth = verify_fsm_equivalence_with(&a, &a, None, method)
                .unwrap_or_else(|d| panic!("{} differs from itself at {d}", a.name()));

            let mut fsm = SymbolicFsm::new(&product_circuit(&a, &a));
            let stats = Reachability::new().image_method(method).run(&mut fsm);
            assert_eq!(
                stats.iterations,
                depth,
                "{} {method}: Reachability",
                a.name()
            );

            let config = ExperimentConfig {
                image: method,
                ..ExperimentConfig::default()
            };
            let (mut calls, mut class1, mut last) = (0usize, 0usize, None);
            traverse(
                &a,
                &config,
                &mut ExperimentResults::default(),
                |_, _, it, _| {
                    calls += 1;
                    if last != Some(it) {
                        class1 += 1;
                        last = Some(it);
                    }
                },
            );
            assert_eq!(class1, depth, "{} {method}: traverse", a.name());
            // One frontier call and one call per product latch each step.
            assert_eq!(calls, depth * (1 + 2 * a.num_latches()), "{}", a.name());

            flipped_depths.push(verify_fsm_equivalence_with(&a, &bad, None, method));
        }
        assert_eq!(flipped_depths[0], flipped_depths[1], "{}", a.name());
        // Some seeded machines cannot observe their last latch; every
        // suite machine can.
        assert!(
            flipped_depths[0].is_err() || !in_suite,
            "{}: flipped latch not found",
            a.name()
        );
    }
}
