//! Static variable-ordering heuristics for circuit compilation.
//!
//! The paper assumes "the variable ordering is fixed" — but which fixed
//! order matters enormously for the substrate BDD sizes. This module
//! implements the classic netlist heuristic (depth-first traversal of the
//! transitive fanin from the outputs, Malik/Fujita style): inputs and
//! latch outputs are ranked by first appearance on a DFS from the output
//! cones, so related support variables end up adjacent.
//!
//! [`SymbolicFsm`](crate::SymbolicFsm) keeps its fixed
//! inputs-then-interleaved-state order (which image computation relies
//! on); the DFS order produced here permutes *within* those groups via
//! [`ordered_circuit`], which rebuilds the circuit with inputs and latches
//! re-declared in DFS rank order.

use std::collections::HashSet;

use crate::circuit::{Circuit, CircuitBuilder, NetId, NetSource};

/// The DFS fanin order of a circuit's leaves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeafOrder {
    /// Primary inputs, in DFS rank order (first = topmost).
    pub inputs: Vec<NetId>,
    /// Latch outputs, in DFS rank order.
    pub latches: Vec<NetId>,
}

/// Computes the depth-first fanin order of inputs and latch outputs,
/// starting from the primary outputs, then latch data inputs. Leaves never
/// reached (dangling) are appended in declaration order.
pub fn dfs_leaf_order(circuit: &Circuit) -> LeafOrder {
    let mut seen_nets: HashSet<NetId> = HashSet::new();
    let mut inputs = Vec::new();
    let mut latches = Vec::new();
    let mut stack: Vec<NetId> = Vec::new();
    // Roots: outputs first, then latch data inputs (reversed so the first
    // root is processed first by the stack).
    for latch in circuit.latches().iter().rev() {
        stack.push(latch.input);
    }
    for port in circuit.outputs().iter().rev() {
        stack.push(port.net);
    }
    while let Some(net) = stack.pop() {
        if !seen_nets.insert(net) {
            continue;
        }
        match circuit.net_source(net) {
            NetSource::Input(_) => inputs.push(net),
            NetSource::Latch(_) => latches.push(net),
            NetSource::Gate(g) => {
                // Push children in reverse so the first input is visited
                // first.
                for &child in circuit.gates()[g].inputs.iter().rev() {
                    stack.push(child);
                }
            }
        }
    }
    // Append unreached leaves in declaration order.
    for &n in circuit.inputs() {
        if seen_nets.insert(n) {
            inputs.push(n);
        }
    }
    for latch in circuit.latches() {
        if seen_nets.insert(latch.output) {
            latches.push(latch.output);
        }
    }
    LeafOrder { inputs, latches }
}

/// Rebuilds `circuit` with its inputs and latches re-declared in the given
/// leaf order, so that [`SymbolicFsm`](crate::SymbolicFsm) assigns BDD
/// variables in that order. Behaviour is unchanged (verified by tests).
///
/// # Panics
///
/// Panics if `order` does not cover exactly the circuit's leaves.
pub fn reorder_leaves(circuit: &Circuit, order: &LeafOrder) -> Circuit {
    assert_eq!(
        order.inputs.len(),
        circuit.num_inputs(),
        "input order arity"
    );
    assert_eq!(
        order.latches.len(),
        circuit.num_latches(),
        "latch order arity"
    );
    let mut b = CircuitBuilder::new(circuit.name());
    let mut map: Vec<Option<NetId>> = vec![None; circuit.num_nets()];
    for &n in &order.inputs {
        assert!(
            matches!(circuit.net_source(n), NetSource::Input(_)),
            "{n:?} is not an input"
        );
        map[n.index()] = Some(b.input(circuit.net_name(n)));
    }
    for &n in &order.latches {
        let NetSource::Latch(idx) = circuit.net_source(n) else {
            panic!("{n:?} is not a latch output");
        };
        let init = circuit.latches()[idx].init;
        map[n.index()] = Some(b.latch(circuit.net_name(n), init));
    }
    for gate in circuit.gates() {
        let ins: Vec<NetId> = gate
            .inputs
            .iter()
            .map(|n| map[n.index()].expect("topological order"))
            .collect();
        let out = b.gate_named(circuit.net_name(gate.output), gate.kind, &ins);
        map[gate.output.index()] = Some(out);
    }
    for latch in circuit.latches() {
        let q = map[latch.output.index()].expect("latch mapped");
        let data = map[latch.input.index()].expect("latch data mapped");
        b.connect_latch(q, data);
    }
    for port in circuit.outputs() {
        b.output(&port.name, map[port.net.index()].expect("output mapped"));
    }
    b.build()
}

/// Convenience: [`dfs_leaf_order`] + [`reorder_leaves`].
pub fn ordered_circuit(circuit: &Circuit) -> Circuit {
    let order = dfs_leaf_order(circuit);
    reorder_leaves(circuit, &order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::GateKind;
    use crate::generators;
    use crate::symbolic::SymbolicFsm;

    #[test]
    fn dfs_order_groups_related_inputs() {
        // y0 = a & c, y1 = b & d: DFS from y0 first visits a, c; then b, d.
        let mut bld = CircuitBuilder::new("grouped");
        let a = bld.input("a");
        let b = bld.input("b");
        let c = bld.input("c");
        let d = bld.input("d");
        let y0 = bld.gate(GateKind::And, &[a, c]);
        let y1 = bld.gate(GateKind::And, &[b, d]);
        bld.output("y0", y0);
        bld.output("y1", y1);
        let circuit = bld.build();
        let order = dfs_leaf_order(&circuit);
        let names: Vec<&str> = order.inputs.iter().map(|&n| circuit.net_name(n)).collect();
        assert_eq!(names, vec!["a", "c", "b", "d"]);
    }

    #[test]
    fn unreached_leaves_are_appended() {
        let mut bld = CircuitBuilder::new("dangling");
        let a = bld.input("a");
        let _unused = bld.input("unused");
        bld.output("y", a);
        let circuit = bld.build();
        let order = dfs_leaf_order(&circuit);
        let names: Vec<&str> = order.inputs.iter().map(|&n| circuit.net_name(n)).collect();
        assert_eq!(names, vec!["a", "unused"]);
    }

    #[test]
    fn reorder_preserves_behaviour() {
        for circuit in [
            generators::traffic_light(),
            generators::minmax("m", 3),
            generators::random_fsm("r", 5, 4, 77),
        ] {
            let reordered = ordered_circuit(&circuit);
            assert_eq!(reordered.num_inputs(), circuit.num_inputs());
            assert_eq!(reordered.num_latches(), circuit.num_latches());
            // Behavioural equality on a stimulus trace. The latch order may
            // differ, so compare via named simulation through the symbolic
            // equivalence checker instead.
            assert!(
                crate::reach::verify_fsm_equivalence(&circuit, &reordered, None).is_ok(),
                "{} changed behaviour under reordering",
                circuit.name()
            );
        }
    }

    #[test]
    fn ordering_can_shrink_bdds() {
        // The classic example: f = a1·b1 + a2·b2 + a3·b3 is linear-size
        // under interleaved order, exponential under separated order.
        let mut bld = CircuitBuilder::new("separated");
        // Deliberately bad declaration order: all a's, then all b's.
        let a: Vec<NetId> = (0..3).map(|i| bld.input(&format!("a{i}"))).collect();
        let bs: Vec<NetId> = (0..3).map(|i| bld.input(&format!("b{i}"))).collect();
        let mut terms = Vec::new();
        for i in 0..3 {
            terms.push(bld.gate(GateKind::And, &[a[i], bs[i]]));
        }
        let y = bld.gate(GateKind::Or, &terms);
        bld.output("y", y);
        let circuit = bld.build();
        let bad = SymbolicFsm::new(&circuit);
        let good = SymbolicFsm::new(&ordered_circuit(&circuit));
        let bad_size = bad.bdd().size(bad.output_fns()[0]);
        let good_size = good.bdd().size(good.output_fns()[0]);
        assert!(
            good_size < bad_size,
            "DFS order should shrink the achilles function: {good_size} vs {bad_size}"
        );
    }

    #[test]
    #[should_panic(expected = "input order arity")]
    fn reorder_arity_checked() {
        let circuit = generators::traffic_light();
        let order = LeafOrder {
            inputs: vec![],
            latches: vec![],
        };
        let _ = reorder_leaves(&circuit, &order);
    }
}
