//! Observability don't cares and network simplification — the paper's
//! third motivating application: "for an incompletely specified circuit,
//! heuristically minimizing the BDD can lead to a smaller implementation".
//!
//! An internal net `n` of a combinational cone is *observable* on an input
//! assignment iff toggling `n` changes some circuit output; elsewhere the
//! net's value is a don't care (its ODC set). Minimizing the net's function
//! `[f_n, ¬ODC]` with any of the paper's heuristics yields a (potentially
//! much smaller) replacement function that provably preserves all outputs.

use std::collections::HashMap;

use bddmin_bdd::{Bdd, Edge, Var};

use crate::circuit::{Circuit, NetId, NetSource};

/// All net functions of a circuit over (input, present-state) variables,
/// for don't-care analysis.
///
/// # Example
///
/// ```
/// use bddmin_fsm::{generators, NetAnalysis};
///
/// let circuit = generators::traffic_light();
/// let mut analysis = NetAnalysis::new(&circuit);
/// let some_gate = circuit.gates()[4].output;
/// let care = analysis.observability_care(some_gate);
/// // The net is a don't care wherever `care` is 0.
/// assert!(!care.is_one() || analysis.bdd().size(care) == 1);
/// ```
#[derive(Debug)]
pub struct NetAnalysis {
    bdd: Bdd,
    circuit: Circuit,
    net_fns: Vec<Edge>,
    /// The helper variable substituted for the net under analysis.
    tau: Var,
}

impl NetAnalysis {
    /// Compiles every net of `circuit` to a BDD over its inputs and
    /// present-state variables (latch outputs are treated as free
    /// variables, as in combinational don't-care analysis).
    pub fn new(circuit: &Circuit) -> NetAnalysis {
        let mut bdd = Bdd::with_names(&[]);
        let input_vars: Vec<Var> = circuit
            .inputs()
            .iter()
            .map(|&n| bdd.add_var(&format!("in.{}", circuit.net_name(n))))
            .collect();
        let state_vars: Vec<Var> = circuit
            .latches()
            .iter()
            .map(|l| bdd.add_var(&format!("ps.{}", circuit.net_name(l.output))))
            .collect();
        let tau = bdd.add_var("__tau");
        let mut net_fns = vec![Edge::ZERO; circuit.num_nets()];
        for (i, &n) in circuit.inputs().iter().enumerate() {
            net_fns[n.index()] = bdd.var(input_vars[i]);
        }
        for (i, latch) in circuit.latches().iter().enumerate() {
            net_fns[latch.output.index()] = bdd.var(state_vars[i]);
        }
        for gate in circuit.gates() {
            let ins: Vec<Edge> = gate.inputs.iter().map(|n| net_fns[n.index()]).collect();
            net_fns[gate.output.index()] = build_gate(&mut bdd, gate.kind, &ins);
        }
        NetAnalysis {
            bdd,
            circuit: circuit.clone(),
            net_fns,
            tau,
        }
    }

    /// The underlying manager.
    pub fn bdd(&self) -> &Bdd {
        &self.bdd
    }

    /// Mutable access to the manager.
    pub fn bdd_mut(&mut self) -> &mut Bdd {
        &mut self.bdd
    }

    /// The function computed by a net.
    pub fn net_fn(&self, net: NetId) -> Edge {
        self.net_fns[net.index()]
    }

    /// The observability **care** set of `net`: assignments where toggling
    /// the net changes at least one output or latch input. The complement
    /// is the net's ODC set.
    ///
    /// # Panics
    ///
    /// Panics if `net` is not driven by a gate (inputs and latch outputs
    /// are free variables here).
    pub fn observability_care(&mut self, net: NetId) -> Edge {
        assert!(
            matches!(self.circuit.net_source(net), NetSource::Gate(_)),
            "observability analysis applies to gate outputs"
        );
        // Recompute the transitive fanout with `tau` in place of the net.
        let with_tau = self.cone_functions(net);
        let mut care = Edge::ZERO;
        for f in with_tau {
            let f1 = self.bdd.cofactor(f, self.tau, true);
            let f0 = self.bdd.cofactor(f, self.tau, false);
            let differs = self.bdd.xor(f1, f0);
            care = self.bdd.or(care, differs);
        }
        care
    }

    /// Functions of all observation points (outputs and latch data inputs)
    /// with `tau` substituted for `net`.
    fn cone_functions(&mut self, net: NetId) -> Vec<Edge> {
        let mut subst: HashMap<u32, Edge> = HashMap::new();
        let tau_fn = self.bdd.var(self.tau);
        subst.insert(net.0, tau_fn);
        // Recompute gates in topological order, substituting where needed.
        let gates = self.circuit.gates().to_vec();
        for gate in &gates {
            if subst.contains_key(&gate.output.0) {
                continue; // the analysed net itself
            }
            // Only recompute if some input was substituted.
            if gate.inputs.iter().any(|n| subst.contains_key(&n.0)) {
                let ins: Vec<Edge> = gate
                    .inputs
                    .iter()
                    .map(|n| subst.get(&n.0).copied().unwrap_or(self.net_fns[n.index()]))
                    .collect();
                let f = build_gate(&mut self.bdd, gate.kind, &ins);
                subst.insert(gate.output.0, f);
            }
        }
        let mut points = Vec::new();
        for port in self.circuit.outputs() {
            points.push(
                subst
                    .get(&port.net.0)
                    .copied()
                    .unwrap_or(self.net_fns[port.net.index()]),
            );
        }
        for latch in self.circuit.latches() {
            points.push(
                subst
                    .get(&latch.input.0)
                    .copied()
                    .unwrap_or(self.net_fns[latch.input.index()]),
            );
        }
        points
    }

    /// Verifies that replacing `net`'s function by `replacement` preserves
    /// every observation point (output and latch input).
    pub fn replacement_is_safe(&mut self, net: NetId, replacement: Edge) -> bool {
        let points = self.cone_functions(net);
        let original = self.net_fns[net.index()];
        for f in points {
            let with_orig = self.bdd.compose(f, self.tau, original);
            let with_repl = self.bdd.compose(f, self.tau, replacement);
            if with_orig != with_repl {
                return false;
            }
        }
        true
    }
}

/// One net simplification opportunity found by [`simplify_report`].
#[derive(Clone, Debug)]
pub struct NetSimplification {
    /// The net.
    pub net: NetId,
    /// Net name.
    pub name: String,
    /// BDD size of the original net function.
    pub original_size: usize,
    /// BDD size after don't-care minimization.
    pub minimized_size: usize,
    /// Percentage of the input space where the net is unobservable.
    pub odc_pct: f64,
}

/// Minimizes every gate-driven net against its observability don't cares
/// using `minimize` and reports the sizes; every replacement is verified
/// safe (outputs unchanged).
pub fn simplify_report(
    circuit: &Circuit,
    mut minimize: impl FnMut(&mut Bdd, bddmin_core::Isf) -> Edge,
) -> Vec<NetSimplification> {
    let mut analysis = NetAnalysis::new(circuit);
    let mut out = Vec::new();
    for gate in circuit.gates() {
        let net = gate.output;
        let f = analysis.net_fn(net);
        let care = analysis.observability_care(net);
        if care.is_zero() {
            // Completely unobservable: any function works; report size 1.
            out.push(NetSimplification {
                net,
                name: circuit.net_name(net).to_owned(),
                original_size: analysis.bdd().size(f),
                minimized_size: 1,
                odc_pct: 100.0,
            });
            continue;
        }
        let isf = bddmin_core::Isf::new(f, care);
        let g = minimize(analysis.bdd_mut(), isf);
        debug_assert!(
            analysis.replacement_is_safe(net, g),
            "unsafe replacement for {}",
            circuit.net_name(net)
        );
        let odc_pct = 100.0 - analysis.bdd().onset_percentage(care);
        out.push(NetSimplification {
            net,
            name: circuit.net_name(net).to_owned(),
            original_size: analysis.bdd().size(f),
            minimized_size: analysis.bdd().size(g),
            odc_pct,
        });
    }
    out
}

fn build_gate(bdd: &mut Bdd, kind: crate::circuit::GateKind, ins: &[Edge]) -> Edge {
    use crate::circuit::GateKind::*;
    match kind {
        And => bdd.and_many(ins.iter().copied()),
        Or => bdd.or_many(ins.iter().copied()),
        Nand => bdd.and_many(ins.iter().copied()).complement(),
        Nor => bdd.or_many(ins.iter().copied()).complement(),
        Xor => ins.iter().fold(Edge::ZERO, |a, &b| bdd.xor(a, b)),
        Xnor => ins
            .iter()
            .fold(Edge::ZERO, |a, &b| bdd.xor(a, b))
            .complement(),
        Not => ins[0].complement(),
        Buf => ins[0],
        Const0 => Edge::ZERO,
        Const1 => Edge::ONE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{CircuitBuilder, GateKind};
    use bddmin_core::Heuristic;

    /// y = (a & b) | (a & c): the term (a & c) is masked when b = 1.
    fn masked_circuit() -> Circuit {
        let mut b = CircuitBuilder::new("masked");
        let a = b.input("a");
        let bb = b.input("b");
        let c = b.input("c");
        let t1 = b.gate_named("t1", GateKind::And, &[a, bb]);
        let t2 = b.gate_named("t2", GateKind::And, &[a, c]);
        let y = b.gate_named("y", GateKind::Or, &[t1, t2]);
        b.output("y", y);
        b.build()
    }

    #[test]
    fn observability_of_masked_term() {
        let circuit = masked_circuit();
        let mut analysis = NetAnalysis::new(&circuit);
        // t2 = a·c is unobservable when t1 = a·b already forces y = 1.
        let t2 = circuit
            .gates()
            .iter()
            .find(|g| circuit.net_name(g.output) == "t2")
            .unwrap()
            .output;
        let care = analysis.observability_care(t2);
        // Where a·b holds, t2 is masked: care must exclude a·b.
        let a = analysis.bdd_mut().var(Var(0));
        let b = analysis.bdd_mut().var(Var(1));
        let ab = analysis.bdd_mut().and(a, b);
        let overlap = analysis.bdd_mut().and(care, ab);
        assert!(overlap.is_zero(), "t2 observable under a·b?");
        assert!(!care.is_zero());
    }

    #[test]
    fn output_net_is_fully_observable() {
        let circuit = masked_circuit();
        let mut analysis = NetAnalysis::new(&circuit);
        let y = circuit
            .gates()
            .iter()
            .find(|g| circuit.net_name(g.output) == "y")
            .unwrap()
            .output;
        let care = analysis.observability_care(y);
        assert!(care.is_one(), "a primary output is always observable");
    }

    #[test]
    fn replacement_safety_check() {
        let circuit = masked_circuit();
        let mut analysis = NetAnalysis::new(&circuit);
        let t2 = circuit
            .gates()
            .iter()
            .find(|g| circuit.net_name(g.output) == "t2")
            .unwrap()
            .output;
        let f = analysis.net_fn(t2);
        let care = analysis.observability_care(t2);
        // Any cover of [f, care] is safe ...
        let isf = bddmin_core::Isf::new(f, care);
        for h in [Heuristic::Constrain, Heuristic::Restrict, Heuristic::OsmBt] {
            let g = h.minimize(analysis.bdd_mut(), isf);
            assert!(analysis.replacement_is_safe(t2, g), "{h}");
        }
        // ... but an arbitrary different function is not.
        let c = analysis.bdd_mut().var(Var(2));
        let wrong = analysis.bdd_mut().not(c);
        assert!(!analysis.replacement_is_safe(t2, wrong));
    }

    #[test]
    fn simplify_report_shrinks_or_preserves() {
        for circuit in [
            masked_circuit(),
            crate::generators::traffic_light(),
            crate::generators::random_fsm("r", 4, 3, 5),
        ] {
            let report =
                simplify_report(&circuit, |bdd, isf| Heuristic::Restrict.minimize(bdd, isf));
            assert_eq!(report.len(), circuit.gates().len());
            for entry in &report {
                assert!(
                    entry.minimized_size <= entry.original_size + 2,
                    "{}: blew up {} -> {}",
                    entry.name,
                    entry.original_size,
                    entry.minimized_size
                );
                assert!((0.0..=100.0).contains(&entry.odc_pct));
            }
        }
    }

    #[test]
    fn latch_inputs_are_observation_points() {
        // A net feeding only a latch must still be observable.
        let mut b = CircuitBuilder::new("latched");
        let a = b.input("a");
        let q = b.latch("q", false);
        let t = b.gate_named("t", GateKind::Not, &[a]);
        b.connect_latch(q, t);
        b.output("o", q);
        let circuit = b.build();
        let mut analysis = NetAnalysis::new(&circuit);
        let t_net = circuit.gates()[0].output;
        let care = analysis.observability_care(t_net);
        assert!(care.is_one());
    }
}
