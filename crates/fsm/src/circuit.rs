//! Gate-level sequential circuits.
//!
//! A [`Circuit`] is a netlist of primary inputs, logic gates and latches —
//! the representation the paper's benchmark machines (`s344`, `tlc`, …)
//! take before symbolic compilation. Circuits are built through
//! [`CircuitBuilder`], evaluated cycle-by-cycle with [`Circuit::simulate`],
//! and compiled to BDDs by [`SymbolicFsm`](crate::SymbolicFsm).

use std::collections::HashMap;
use std::fmt;

/// Index of a net (wire) inside a circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

impl NetId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The supported gate functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Conjunction of all inputs.
    And,
    /// Disjunction of all inputs.
    Or,
    /// Negated conjunction.
    Nand,
    /// Negated disjunction.
    Nor,
    /// Parity of the inputs.
    Xor,
    /// Negated parity.
    Xnor,
    /// Single-input inverter.
    Not,
    /// Single-input buffer.
    Buf,
    /// Constant 0 (no inputs).
    Const0,
    /// Constant 1 (no inputs).
    Const1,
}

impl GateKind {
    /// Evaluates the gate on concrete input values.
    ///
    /// # Panics
    ///
    /// Panics if the arity is wrong for the kind.
    pub fn eval(self, inputs: &[bool]) -> bool {
        match self {
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Nand => !inputs.iter().all(|&b| b),
            GateKind::Nor => !inputs.iter().any(|&b| b),
            GateKind::Xor => inputs.iter().fold(false, |a, &b| a ^ b),
            GateKind::Xnor => !inputs.iter().fold(false, |a, &b| a ^ b),
            GateKind::Not => {
                assert_eq!(inputs.len(), 1, "NOT takes one input");
                !inputs[0]
            }
            GateKind::Buf => {
                assert_eq!(inputs.len(), 1, "BUF takes one input");
                inputs[0]
            }
            GateKind::Const0 => {
                assert!(inputs.is_empty(), "constants take no inputs");
                false
            }
            GateKind::Const1 => {
                assert!(inputs.is_empty(), "constants take no inputs");
                true
            }
        }
    }
}

/// A logic gate driving one net.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gate {
    /// Gate function.
    pub kind: GateKind,
    /// Input nets (already defined when the gate is created).
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
}

/// A D-latch / flip-flop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Latch {
    /// The next-state (data) net; set via [`CircuitBuilder::connect_latch`].
    pub input: NetId,
    /// The present-state (output) net.
    pub output: NetId,
    /// Reset value.
    pub init: bool,
}

/// How a net is driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetSource {
    /// Primary input (index into `Circuit::inputs`).
    Input(usize),
    /// Latch output (index into `Circuit::latches`).
    Latch(usize),
    /// Gate output (index into `Circuit::gates`).
    Gate(usize),
}

/// A named output port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputPort {
    /// Port name.
    pub name: String,
    /// Driven net.
    pub net: NetId,
}

/// A gate-level sequential circuit.
///
/// # Example
///
/// ```
/// use bddmin_fsm::{CircuitBuilder, GateKind};
///
/// // A 1-bit toggle counter with enable.
/// let mut b = CircuitBuilder::new("toggle");
/// let en = b.input("en");
/// let q = b.latch("q", false);
/// let next = b.gate(GateKind::Xor, &[en, q]);
/// b.connect_latch(q, next);
/// b.output("count", q);
/// let circuit = b.build();
/// assert_eq!(circuit.num_latches(), 1);
///
/// // Toggles when enabled.
/// let (outs, next) = circuit.simulate(&[true], &[false]);
/// assert_eq!(outs, vec![false]);
/// assert_eq!(next, vec![true]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Circuit {
    name: String,
    net_names: Vec<String>,
    net_sources: Vec<NetSource>,
    inputs: Vec<NetId>,
    outputs: Vec<OutputPort>,
    latches: Vec<Latch>,
    gates: Vec<Gate>,
}

impl Circuit {
    /// The circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Primary input nets, in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Output ports.
    pub fn outputs(&self) -> &[OutputPort] {
        &self.outputs
    }

    /// Latches.
    pub fn latches(&self) -> &[Latch] {
        &self.latches
    }

    /// Gates, in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of latches (state bits).
    pub fn num_latches(&self) -> usize {
        self.latches.len()
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The name of a net.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.index()]
    }

    /// How a net is driven.
    pub fn net_source(&self, net: NetId) -> NetSource {
        self.net_sources[net.index()]
    }

    /// Total number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_names.len()
    }

    /// The reset state, one bit per latch.
    pub fn initial_state(&self) -> Vec<bool> {
        self.latches.iter().map(|l| l.init).collect()
    }

    /// Evaluates one clock cycle: given primary input values and the current
    /// state, returns `(outputs, next_state)`.
    ///
    /// # Panics
    ///
    /// Panics if the slices have the wrong lengths.
    pub fn simulate(&self, inputs: &[bool], state: &[bool]) -> (Vec<bool>, Vec<bool>) {
        assert_eq!(inputs.len(), self.inputs.len(), "input arity");
        assert_eq!(state.len(), self.latches.len(), "state arity");
        let mut values = vec![false; self.net_names.len()];
        for (i, &net) in self.inputs.iter().enumerate() {
            values[net.index()] = inputs[i];
        }
        for (i, latch) in self.latches.iter().enumerate() {
            values[latch.output.index()] = state[i];
        }
        // Gates are stored in topological order by construction.
        for gate in &self.gates {
            let ins: Vec<bool> = gate.inputs.iter().map(|n| values[n.index()]).collect();
            values[gate.output.index()] = gate.kind.eval(&ins);
        }
        let outputs = self.outputs.iter().map(|o| values[o.net.index()]).collect();
        let next = self
            .latches
            .iter()
            .map(|l| values[l.input.index()])
            .collect();
        (outputs, next)
    }

    /// Runs the circuit from reset for the given input trace; returns the
    /// output trace.
    pub fn run_trace(&self, trace: &[Vec<bool>]) -> Vec<Vec<bool>> {
        let mut state = self.initial_state();
        let mut out = Vec::with_capacity(trace.len());
        for step in trace {
            let (o, next) = self.simulate(step, &state);
            out.push(o);
            state = next;
        }
        out
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} inputs, {} latches, {} gates, {} outputs",
            self.name,
            self.inputs.len(),
            self.latches.len(),
            self.gates.len(),
            self.outputs.len()
        )
    }
}

/// Incremental builder for [`Circuit`].
///
/// Nets are created by [`CircuitBuilder::input`], [`CircuitBuilder::latch`]
/// and [`CircuitBuilder::gate`]; referencing a net requires having created
/// it, which forces gates into topological order. Latch feedback is closed
/// with [`CircuitBuilder::connect_latch`].
#[derive(Debug)]
pub struct CircuitBuilder {
    name: String,
    net_names: Vec<String>,
    net_sources: Vec<NetSource>,
    name_index: HashMap<String, NetId>,
    inputs: Vec<NetId>,
    outputs: Vec<OutputPort>,
    latches: Vec<Latch>,
    latch_connected: Vec<bool>,
    gates: Vec<Gate>,
    anon_counter: usize,
}

impl CircuitBuilder {
    /// Starts a new circuit.
    pub fn new(name: &str) -> CircuitBuilder {
        CircuitBuilder {
            name: name.to_owned(),
            net_names: Vec::new(),
            net_sources: Vec::new(),
            name_index: HashMap::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            latches: Vec::new(),
            latch_connected: Vec::new(),
            gates: Vec::new(),
            anon_counter: 0,
        }
    }

    fn add_net(&mut self, name: String, source: NetSource) -> NetId {
        assert!(
            !self.name_index.contains_key(&name),
            "duplicate net name {name:?}"
        );
        let id = NetId(self.net_names.len() as u32);
        self.name_index.insert(name.clone(), id);
        self.net_names.push(name);
        self.net_sources.push(source);
        id
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        loop {
            let name = format!("{prefix}{}", self.anon_counter);
            self.anon_counter += 1;
            if !self.name_index.contains_key(&name) {
                return name;
            }
        }
    }

    /// Declares a primary input.
    pub fn input(&mut self, name: &str) -> NetId {
        let idx = self.inputs.len();
        let id = self.add_net(name.to_owned(), NetSource::Input(idx));
        self.inputs.push(id);
        id
    }

    /// Declares a latch with the given reset value and returns its
    /// **output** (present-state) net. The data input must later be wired
    /// with [`CircuitBuilder::connect_latch`].
    pub fn latch(&mut self, name: &str, init: bool) -> NetId {
        let idx = self.latches.len();
        let id = self.add_net(name.to_owned(), NetSource::Latch(idx));
        self.latches.push(Latch {
            input: id, // placeholder; fixed by connect_latch
            output: id,
            init,
        });
        self.latch_connected.push(false);
        id
    }

    /// Wires the data input of the latch whose output is `latch_out`.
    ///
    /// # Panics
    ///
    /// Panics if `latch_out` is not a latch output or is already connected.
    pub fn connect_latch(&mut self, latch_out: NetId, data: NetId) {
        let NetSource::Latch(idx) = self.net_sources[latch_out.index()] else {
            panic!("{latch_out:?} is not a latch output");
        };
        assert!(!self.latch_connected[idx], "latch already connected");
        self.latches[idx].input = data;
        self.latch_connected[idx] = true;
    }

    /// Adds a gate over existing nets; returns its output net.
    ///
    /// # Panics
    ///
    /// Panics on arity violations (NOT/BUF take one input, constants none,
    /// everything else at least one).
    pub fn gate(&mut self, kind: GateKind, inputs: &[NetId]) -> NetId {
        self.named_gate(None, kind, inputs)
    }

    /// Adds a gate whose output net gets the given name.
    pub fn gate_named(&mut self, name: &str, kind: GateKind, inputs: &[NetId]) -> NetId {
        self.named_gate(Some(name), kind, inputs)
    }

    fn named_gate(&mut self, name: Option<&str>, kind: GateKind, inputs: &[NetId]) -> NetId {
        match kind {
            GateKind::Not | GateKind::Buf => {
                assert_eq!(inputs.len(), 1, "{kind:?} takes exactly one input")
            }
            GateKind::Const0 | GateKind::Const1 => {
                assert!(inputs.is_empty(), "{kind:?} takes no inputs")
            }
            _ => assert!(!inputs.is_empty(), "{kind:?} needs at least one input"),
        }
        for n in inputs {
            assert!(n.index() < self.net_names.len(), "undefined net {n:?}");
        }
        let gate_idx = self.gates.len();
        let net_name = match name {
            Some(n) => n.to_owned(),
            None => self.fresh_name("_n"),
        };
        let out = self.add_net(net_name, NetSource::Gate(gate_idx));
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output: out,
        });
        out
    }

    /// Declares an output port.
    pub fn output(&mut self, name: &str, net: NetId) {
        self.outputs.push(OutputPort {
            name: name.to_owned(),
            net,
        });
    }

    /// Finalizes the circuit.
    ///
    /// # Panics
    ///
    /// Panics if any latch was left unconnected.
    pub fn build(self) -> Circuit {
        for (i, connected) in self.latch_connected.iter().enumerate() {
            assert!(
                connected,
                "latch {} ({}) has no data input",
                i,
                self.net_names[self.latches[i].output.index()]
            );
        }
        Circuit {
            name: self.name,
            net_names: self.net_names,
            net_sources: self.net_sources,
            inputs: self.inputs,
            outputs: self.outputs,
            latches: self.latches,
            gates: self.gates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toggle() -> Circuit {
        let mut b = CircuitBuilder::new("toggle");
        let en = b.input("en");
        let q = b.latch("q", false);
        let next = b.gate(GateKind::Xor, &[en, q]);
        b.connect_latch(q, next);
        b.output("count", q);
        b.build()
    }

    #[test]
    fn gate_eval_all_kinds() {
        assert!(GateKind::And.eval(&[true, true]));
        assert!(!GateKind::And.eval(&[true, false]));
        assert!(GateKind::Or.eval(&[false, true]));
        assert!(!GateKind::Or.eval(&[false, false]));
        assert!(GateKind::Nand.eval(&[true, false]));
        assert!(!GateKind::Nand.eval(&[true, true]));
        assert!(GateKind::Nor.eval(&[false, false]));
        assert!(GateKind::Xor.eval(&[true, false, false]));
        assert!(!GateKind::Xor.eval(&[true, true]));
        assert!(GateKind::Xnor.eval(&[true, true]));
        assert!(GateKind::Not.eval(&[false]));
        assert!(GateKind::Buf.eval(&[true]));
        assert!(!GateKind::Const0.eval(&[]));
        assert!(GateKind::Const1.eval(&[]));
    }

    #[test]
    fn toggle_counts() {
        let c = toggle();
        let trace = vec![vec![true], vec![true], vec![false], vec![true]];
        let outs = c.run_trace(&trace);
        // Output is the *current* state before the toggle applies.
        assert_eq!(
            outs,
            vec![vec![false], vec![true], vec![false], vec![false]]
        );
    }

    #[test]
    fn simulate_shapes() {
        let c = toggle();
        let (o, n) = c.simulate(&[false], &[true]);
        assert_eq!(o, vec![true]);
        assert_eq!(n, vec![true]);
        assert_eq!(c.initial_state(), vec![false]);
        assert_eq!(c.num_inputs(), 1);
        assert_eq!(c.num_outputs(), 1);
        assert!(c.to_string().contains("toggle"));
    }

    #[test]
    #[should_panic(expected = "has no data input")]
    fn unconnected_latch_panics() {
        let mut b = CircuitBuilder::new("bad");
        b.latch("q", false);
        let _ = b.build();
    }

    #[test]
    #[should_panic(expected = "duplicate net name")]
    fn duplicate_net_panics() {
        let mut b = CircuitBuilder::new("bad");
        b.input("x");
        b.input("x");
    }

    #[test]
    #[should_panic(expected = "takes exactly one input")]
    fn not_arity_checked() {
        let mut b = CircuitBuilder::new("bad");
        let x = b.input("x");
        let y = b.input("y");
        b.gate(GateKind::Not, &[x, y]);
    }

    #[test]
    fn net_metadata() {
        let c = toggle();
        let en = c.inputs()[0];
        assert_eq!(c.net_name(en), "en");
        assert_eq!(c.net_source(en), NetSource::Input(0));
        let q = c.latches()[0].output;
        assert_eq!(c.net_source(q), NetSource::Latch(0));
        assert!(c.num_nets() >= 3);
    }

    #[test]
    fn multi_output_circuit() {
        let mut b = CircuitBuilder::new("pair");
        let x = b.input("x");
        let y = b.input("y");
        let q = b.latch("q", true);
        let a = b.gate_named("a", GateKind::And, &[x, y]);
        let o = b.gate(GateKind::Or, &[a, q]);
        b.connect_latch(q, a);
        b.output("and", a);
        b.output("or", o);
        let c = b.build();
        let (outs, next) = c.simulate(&[true, false], &[true]);
        assert_eq!(outs, vec![false, true]);
        assert_eq!(next, vec![false]);
    }

    #[test]
    fn constants_work() {
        let mut b = CircuitBuilder::new("consts");
        let one = b.gate(GateKind::Const1, &[]);
        let zero = b.gate(GateKind::Const0, &[]);
        let q = b.latch("q", false);
        b.connect_latch(q, one);
        let o = b.gate(GateKind::Or, &[zero, q]);
        b.output("o", o);
        let c = b.build();
        let (outs, next) = c.simulate(&[], &[false]);
        assert_eq!(outs, vec![false]);
        assert_eq!(next, vec![true]);
    }
}
