//! FSM equivalence checking with BDD minimization in the loop — the
//! application that motivated the paper (Coudert et al.; SIS
//! `verify_fsm -m product`).
//!
//! Checks a traffic-light controller against (a) an exact copy, (b) a BLIF
//! round trip, and (c) a deliberately broken variant — and shows how the
//! choice of frontier-minimization heuristic changes the BDD sizes seen
//! during the traversal without changing the verdict.
//!
//! Run with: `cargo run -p bddmin-eval --example fsm_equivalence`

use bddmin_core::Heuristic;
use bddmin_fsm::{
    generators, parse_blif, print_blif, product_circuit, verify_fsm_equivalence,
    with_flipped_latch, Reachability, SymbolicFsm,
};

fn main() {
    let machine = generators::traffic_light();
    println!("machine under test: {machine}");

    // (a) Equivalence against an exact copy.
    let copy = machine.clone();
    match verify_fsm_equivalence(&machine, &copy, None) {
        Ok(depth) => println!("vs copy        : equivalent (fixpoint at depth {depth})"),
        Err(d) => println!("vs copy        : DIFFERENT at depth {d} (unexpected!)"),
    }

    // (b) Equivalence across a BLIF round trip (structural change only).
    let blif = print_blif(&machine);
    let reparsed = parse_blif(&blif).expect("round trip parses");
    match verify_fsm_equivalence(&machine, &reparsed, None) {
        Ok(depth) => println!("vs BLIF clone  : equivalent (fixpoint at depth {depth})"),
        Err(d) => println!("vs BLIF clone  : DIFFERENT at depth {d} (unexpected!)"),
    }

    // (c) A broken variant: one latch input inverted.
    let broken = with_flipped_latch(&machine, 0);
    match verify_fsm_equivalence(&machine, &broken, None) {
        Ok(_) => println!("vs broken      : equivalent (unexpected!)"),
        Err(depth) => println!("vs broken      : difference found at depth {depth}"),
    }

    // How much does the frontier-minimization heuristic matter? Run the
    // product traversal with each heuristic as the hook and compare the
    // cumulative sizes of the state-set BDDs it produces.
    println!("\nfrontier BDD sizes during the product traversal (machine vs copy):");
    println!(
        "{:<12} {:>11} {:>10} {:>7}",
        "heuristic", "total size", "peak size", "depth"
    );
    for h in [
        Heuristic::FOrig,
        Heuristic::Constrain,
        Heuristic::Restrict,
        Heuristic::OsmBt,
        Heuristic::TsmTd,
        Heuristic::OptLv,
        Heuristic::Scheduled,
    ] {
        let product = product_circuit(&machine, &copy);
        let mut fsm = SymbolicFsm::new(&product);
        let stats = Reachability::new()
            .with_hook(move |bdd, isf| h.minimize(bdd, isf))
            .run(&mut fsm);
        println!(
            "{:<12} {:>11} {:>10} {:>7}",
            h.name(),
            stats.total_frontier_size,
            stats.peak_frontier_size,
            stats.iterations
        );
    }
    println!("\n(all rows reach the same fixpoint — any cover of [U, U + !R] is sound)");

    // The paper's second application: once the reachable set is known, the
    // transition relation's value on unreachable states is a don't care.
    println!("\ntransition-relation minimization w.r.t. unreachable states:");
    // Use a machine with many unreachable states so the don't cares bite.
    let sparse = generators::random_fsm("sparse_ctrl", 6, 4, 386);
    let mut fsm = SymbolicFsm::new(&sparse);
    let reached = Reachability::new().run(&mut fsm).reached;
    println!(
        "  machine {}: {} of {} states reachable",
        sparse.name(),
        fsm.count_states(reached),
        1u64 << sparse.num_latches()
    );
    for h in [Heuristic::Constrain, Heuristic::Restrict, Heuristic::OsmBt] {
        let m = fsm.minimize_transition_relation(reached, h);
        println!(
            "  {:<10} |T| {} -> {}",
            h.name(),
            m.original_size,
            m.minimized_size
        );
    }
}
