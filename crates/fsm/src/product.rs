//! Product machines for FSM equivalence checking.
//!
//! The paper's evaluation intercepts the BDD minimization calls made by the
//! SIS command `verify_fsm -m product`, which checks machine equivalence by
//! traversing the product machine's reachable states \[4, 9\]. We rebuild
//! the same flow: [`product_circuit`] merges two netlists over shared
//! primary inputs and adds one *miter* output per output pair
//! (`o1_k ⊕ o2_k`); two machines are equivalent iff no reachable
//! state/input combination raises any miter output.

use crate::circuit::{Circuit, CircuitBuilder, GateKind, NetId, NetSource};

/// Merges two circuits with identical input port lists into a product
/// machine whose outputs are the pairwise XORs (miters) of the component
/// outputs.
///
/// # Panics
///
/// Panics if the circuits' input names or output counts differ.
///
/// # Example
///
/// ```
/// use bddmin_fsm::{generators, product_circuit};
///
/// let a = generators::counter("cnt", 3);
/// let b = generators::counter("cnt_copy", 3);
/// let prod = product_circuit(&a, &b);
/// assert_eq!(prod.num_inputs(), a.num_inputs());
/// assert_eq!(prod.num_latches(), a.num_latches() + b.num_latches());
/// assert_eq!(prod.num_outputs(), a.num_outputs());
/// ```
pub fn product_circuit(a: &Circuit, b: &Circuit) -> Circuit {
    let a_inputs: Vec<&str> = a.inputs().iter().map(|&n| a.net_name(n)).collect();
    let b_inputs: Vec<&str> = b.inputs().iter().map(|&n| b.net_name(n)).collect();
    // Inputs are matched by name; the declaration order may differ.
    {
        let mut sa = a_inputs.clone();
        let mut sb = b_inputs.clone();
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb, "product machines need identical inputs");
    }
    assert_eq!(
        a.num_outputs(),
        b.num_outputs(),
        "product machines need matching output counts"
    );
    let mut builder = CircuitBuilder::new(&format!("{}x{}", a.name(), b.name()));
    let shared_inputs: Vec<NetId> = a_inputs.iter().map(|n| builder.input(n)).collect();
    // b's inputs in b's declaration order, resolved by name.
    let b_shared: Vec<NetId> = b_inputs
        .iter()
        .map(|name| {
            let pos = a_inputs
                .iter()
                .position(|an| an == name)
                .expect("name sets equal");
            shared_inputs[pos]
        })
        .collect();
    let a_nets = embed(&mut builder, a, &shared_inputs, "a.");
    let b_nets = embed(&mut builder, b, &b_shared, "b.");
    for (oa, ob) in a.outputs().iter().zip(b.outputs()) {
        let na = a_nets[oa.net.index()];
        let nb = b_nets[ob.net.index()];
        let miter = builder.gate(GateKind::Xor, &[na, nb]);
        builder.output(&format!("miter.{}", oa.name), miter);
    }
    builder.build()
}

/// Copies `src` into `builder`, prefixing net names, mapping its inputs to
/// `shared_inputs`; returns the per-net mapping.
fn embed(
    builder: &mut CircuitBuilder,
    src: &Circuit,
    shared_inputs: &[NetId],
    prefix: &str,
) -> Vec<NetId> {
    let mut map: Vec<Option<NetId>> = vec![None; src.num_nets()];
    for (i, &n) in src.inputs().iter().enumerate() {
        map[n.index()] = Some(shared_inputs[i]);
    }
    for latch in src.latches() {
        let name = format!("{prefix}{}", src.net_name(latch.output));
        let q = builder.latch(&name, latch.init);
        map[latch.output.index()] = Some(q);
    }
    for gate in src.gates() {
        let ins: Vec<NetId> = gate
            .inputs
            .iter()
            .map(|n| map[n.index()].expect("topological order"))
            .collect();
        let name = format!("{prefix}{}", src.net_name(gate.output));
        let out = builder.gate_named(&name, gate.kind, &ins);
        map[gate.output.index()] = Some(out);
    }
    for (i, latch) in src.latches().iter().enumerate() {
        let q = map[latch.output.index()].expect("latch mapped");
        let data = map[latch.input.index()].expect("latch data mapped");
        let _ = i;
        builder.connect_latch(q, data);
    }
    map.into_iter()
        .map(|m| m.unwrap_or(NetId(u32::MAX)))
        .collect()
}

/// Structurally perturbs a circuit: inverts the data input of the
/// `latch_idx`-th latch. Used by tests and examples to create a
/// *non*-equivalent variant.
///
/// # Panics
///
/// Panics if `latch_idx` is out of range.
pub fn with_flipped_latch(src: &Circuit, latch_idx: usize) -> Circuit {
    assert!(latch_idx < src.num_latches(), "latch index out of range");
    let mut builder = CircuitBuilder::new(&format!("{}_flip{latch_idx}", src.name()));
    let inputs: Vec<NetId> = src
        .inputs()
        .iter()
        .map(|&n| builder.input(src.net_name(n)))
        .collect();
    let mut map: Vec<Option<NetId>> = vec![None; src.num_nets()];
    for (i, &n) in src.inputs().iter().enumerate() {
        map[n.index()] = Some(inputs[i]);
    }
    for latch in src.latches() {
        let q = builder.latch(src.net_name(latch.output), latch.init);
        map[latch.output.index()] = Some(q);
    }
    for gate in src.gates() {
        let ins: Vec<NetId> = gate
            .inputs
            .iter()
            .map(|n| map[n.index()].expect("topological order"))
            .collect();
        let out = builder.gate_named(src.net_name(gate.output), gate.kind, &ins);
        map[gate.output.index()] = Some(out);
    }
    for (i, latch) in src.latches().iter().enumerate() {
        let q = map[latch.output.index()].expect("latch mapped");
        let mut data = map[latch.input.index()].expect("latch data mapped");
        if i == latch_idx {
            data = builder.gate(GateKind::Not, &[data]);
        }
        builder.connect_latch(q, data);
    }
    for port in src.outputs() {
        builder.output(&port.name, map[port.net.index()].expect("output mapped"));
    }
    builder.build()
}

/// True if `net` in the product circuit originates from machine `a` (by
/// the name prefix convention of [`product_circuit`]).
pub fn is_from_machine_a(product: &Circuit, net: NetId) -> bool {
    match product.net_source(net) {
        NetSource::Input(_) => true, // shared
        _ => product.net_name(net).starts_with("a."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::symbolic::SymbolicFsm;
    use bddmin_core::rng::XorShift64;

    #[test]
    fn product_of_identical_machines_has_silent_miters() {
        let mut rng = XorShift64::seed_from_u64(0x5E1F);
        let random = (0..48).map(|_| {
            let latches = rng.gen_range_inclusive(1, 3);
            let inputs = rng.gen_range_inclusive(1, 3);
            let a = generators::random_fsm("r", latches, inputs, rng.gen_u64());
            (a.clone(), a)
        });
        let pairs = std::iter::once((generators::counter("c", 2), generators::counter("c2", 2)))
            .chain(random);
        for (case, (a, b)) in pairs.enumerate() {
            let mut fsm = SymbolicFsm::new(&product_circuit(&a, &b));
            let init = fsm.initial_states();
            let reached = fsm.reachable_from(init);
            // On every reachable state and input, all miters are 0.
            for m in fsm.output_fns().to_vec() {
                let bad = fsm.bdd_mut().and(reached, m);
                assert!(bad.is_zero(), "case {case}: identical machines disagreed");
            }
        }
    }

    #[test]
    fn product_of_different_machines_raises_a_miter() {
        let a = generators::counter("c", 2);
        let b = with_flipped_latch(&a, 0);
        let prod = product_circuit(&a, &b);
        let mut fsm = SymbolicFsm::new(&prod);
        let init = fsm.initial_states();
        let reached = fsm.reachable_from(init);
        let miters: Vec<_> = fsm.output_fns().to_vec();
        let mut any_bad = false;
        for m in miters {
            let bad = fsm.bdd_mut().and(reached, m);
            any_bad |= !bad.is_zero();
        }
        assert!(any_bad, "flipped machine should disagree somewhere");
    }

    #[test]
    fn product_simulation_matches_components() {
        let a = generators::counter("c", 3);
        let b = generators::counter("c2", 3);
        let prod = product_circuit(&a, &b);
        let mut sa = a.initial_state();
        let mut sb = b.initial_state();
        let mut sp = prod.initial_state();
        for step in 0..10 {
            let inputs = vec![step % 2 == 0];
            let (oa, na) = a.simulate(&inputs, &sa);
            let (ob, nb) = b.simulate(&inputs, &sb);
            let (op, np) = prod.simulate(&inputs, &sp);
            for (k, miter) in op.iter().enumerate() {
                assert_eq!(*miter, oa[k] ^ ob[k]);
            }
            sa = na;
            sb = nb;
            sp = np;
        }
    }

    #[test]
    #[should_panic(expected = "identical inputs")]
    fn product_rejects_mismatched_inputs() {
        let a = generators::counter("c", 2);
        let mut bb = CircuitBuilder::new("odd");
        let x = bb.input("weird");
        let q = bb.latch("q", false);
        bb.connect_latch(q, x);
        bb.output("count0", q);
        let b = bb.build();
        let _ = product_circuit(&a, &b);
    }

    #[test]
    fn flipped_latch_changes_behavior() {
        let a = generators::counter("c", 2);
        let b = with_flipped_latch(&a, 1);
        let trace: Vec<Vec<bool>> = (0..6).map(|_| vec![true]).collect();
        assert_ne!(a.run_trace(&trace), b.run_trace(&trace));
    }
}
