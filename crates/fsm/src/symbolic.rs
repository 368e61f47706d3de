//! Symbolic (BDD) representation of a sequential circuit.
//!
//! Variable order: primary inputs first (topmost), then present/next state
//! variables interleaved per latch — the standard order for transition
//! relations (Touati et al. \[9\]).

use bddmin_bdd::{Bdd, Edge, ReorderSettings, ReorderStats, Var};

use crate::circuit::Circuit;

/// How an image is computed (the `--image {mono,range}` flag).
///
/// Both methods produce identical state sets — the `image-equivalence`
/// oracle and the `fused_image` differential suite pin this — but with
/// different time and peak memory profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageMethod {
    /// Monolithic transition relation through the fused `and_exists`.
    Mono,
    /// Constrain + range over the next-state vector
    /// ([`SymbolicFsm::image_by_range`]) — the paper's own method.
    Range,
}

impl ImageMethod {
    /// Every method, for exhaustive cross-checks.
    pub const ALL: [ImageMethod; 2] = [ImageMethod::Mono, ImageMethod::Range];

    /// The flag spelling (`mono`, `range`).
    pub fn name(self) -> &'static str {
        match self {
            ImageMethod::Mono => "mono",
            ImageMethod::Range => "range",
        }
    }
}

impl std::str::FromStr for ImageMethod {
    type Err = String;

    fn from_str(s: &str) -> Result<ImageMethod, String> {
        match s {
            "mono" => Ok(ImageMethod::Mono),
            "range" => Ok(ImageMethod::Range),
            other => Err(format!(
                "unknown image method `{other}` (expected mono or range)"
            )),
        }
    }
}

impl std::fmt::Display for ImageMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A circuit compiled to BDDs: next-state and output functions over input
/// and present-state variables, plus the machinery for image computation.
///
/// # Example
///
/// ```
/// use bddmin_fsm::{CircuitBuilder, GateKind, Reachability, SymbolicFsm};
///
/// let mut b = CircuitBuilder::new("toggle");
/// let en = b.input("en");
/// let q = b.latch("q", false);
/// let next = b.gate(GateKind::Xor, &[en, q]);
/// b.connect_latch(q, next);
/// b.output("count", q);
/// let circuit = b.build();
///
/// let mut fsm = SymbolicFsm::new(&circuit);
/// let reached = Reachability::new().run(&mut fsm).reached;
/// // Both states of the toggle are reachable.
/// assert!(reached.is_one());
/// ```
#[derive(Debug)]
pub struct SymbolicFsm {
    bdd: Bdd,
    input_vars: Vec<Var>,
    present_vars: Vec<Var>,
    next_vars: Vec<Var>,
    next_fns: Vec<Edge>,
    output_fns: Vec<Edge>,
    initial: Edge,
    transition: Edge,
    /// Cube of input ∪ present variables (quantified during image).
    img_quant_cube: Edge,
    name: String,
}

impl SymbolicFsm {
    /// Compiles a circuit into its symbolic form.
    ///
    /// # Panics
    ///
    /// Panics if the circuit's combinational logic is not in topological
    /// order (cannot happen for circuits produced by `CircuitBuilder`).
    pub fn new(circuit: &Circuit) -> SymbolicFsm {
        Self::compile(circuit, Bdd::with_names(&[]))
    }

    fn compile(circuit: &Circuit, mut bdd: Bdd) -> SymbolicFsm {
        // Inputs on top.
        let input_vars: Vec<Var> = circuit
            .inputs()
            .iter()
            .map(|&n| bdd.add_var(&format!("in.{}", circuit.net_name(n))))
            .collect();
        // Interleaved present/next per latch.
        let mut present_vars = Vec::with_capacity(circuit.num_latches());
        let mut next_vars = Vec::with_capacity(circuit.num_latches());
        for (i, latch) in circuit.latches().iter().enumerate() {
            let base = circuit.net_name(latch.output);
            present_vars.push(bdd.add_var(&format!("ps.{base}")));
            next_vars.push(bdd.add_var(&format!("ns.{base}.{i}")));
        }
        // Evaluate every net symbolically.
        let mut net_fn: Vec<Option<Edge>> = vec![None; circuit.num_nets()];
        for (i, &n) in circuit.inputs().iter().enumerate() {
            net_fn[n.index()] = Some(bdd.var(input_vars[i]));
        }
        for (i, latch) in circuit.latches().iter().enumerate() {
            net_fn[latch.output.index()] = Some(bdd.var(present_vars[i]));
        }
        for gate in circuit.gates() {
            let ins: Vec<Edge> = gate
                .inputs
                .iter()
                .map(|n| net_fn[n.index()].expect("gates in topological order"))
                .collect();
            let out = build_gate(&mut bdd, gate.kind, &ins);
            net_fn[gate.output.index()] = Some(out);
        }
        let next_fns: Vec<Edge> = circuit
            .latches()
            .iter()
            .map(|l| net_fn[l.input.index()].expect("latch input defined"))
            .collect();
        let output_fns: Vec<Edge> = circuit
            .outputs()
            .iter()
            .map(|o| net_fn[o.net.index()].expect("output defined"))
            .collect();
        // Initial state cube.
        let mut initial = Edge::ONE;
        for (i, latch) in circuit.latches().iter().enumerate() {
            let lit = bdd.literal(present_vars[i], latch.init);
            initial = bdd.and(initial, lit);
        }
        // Monolithic transition relation T(in, ps, ns) = ∧ (ns_i ≡ δ_i).
        let mut transition = Edge::ONE;
        for (i, &nf) in next_fns.iter().enumerate() {
            let nv = bdd.var(next_vars[i]);
            let eq = bdd.xnor(nv, nf);
            transition = bdd.and(transition, eq);
        }
        let quant: Vec<Var> = input_vars
            .iter()
            .chain(present_vars.iter())
            .copied()
            .collect();
        let img_quant_cube = bdd.cube_of_vars(&quant);
        SymbolicFsm {
            bdd,
            input_vars,
            present_vars,
            next_vars,
            next_fns,
            output_fns,
            initial,
            transition,
            img_quant_cube,
            name: circuit.name().to_owned(),
        }
    }

    /// The underlying BDD manager.
    pub fn bdd(&self) -> &Bdd {
        &self.bdd
    }

    /// Mutable access to the manager (for minimization passes on state
    /// sets).
    pub fn bdd_mut(&mut self) -> &mut Bdd {
        &mut self.bdd
    }

    /// The machine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Present-state variables.
    pub fn present_vars(&self) -> &[Var] {
        &self.present_vars
    }

    /// Next-state variables (used only inside the transition relation).
    pub fn next_vars(&self) -> &[Var] {
        &self.next_vars
    }

    /// Next-state functions `δ_i(inputs, present)`.
    pub fn next_fns(&self) -> &[Edge] {
        &self.next_fns
    }

    /// Output functions `λ_k(inputs, present)`.
    pub fn output_fns(&self) -> &[Edge] {
        &self.output_fns
    }

    /// The characteristic function of the reset state (a cube over the
    /// present-state variables).
    pub fn initial_states(&self) -> Edge {
        self.initial
    }

    /// The monolithic transition relation `T(in, ps, ns)`.
    pub fn transition_relation(&self) -> Edge {
        self.transition
    }

    /// The cube of input and present-state variables quantified during
    /// image computation.
    pub fn img_quant_cube(&self) -> Edge {
        self.img_quant_cube
    }

    /// The image of a state set `S(ps)`: all states reachable in one step,
    /// expressed over the **present** variables again.
    pub fn image(&mut self, states: Edge) -> Edge {
        let ns_image = self
            .bdd
            .and_exists(self.transition, states, self.img_quant_cube);
        self.bdd.rename(
            ns_image,
            &self.next_vars.clone(),
            &self.present_vars.clone(),
        )
    }

    /// Dispatches to the image computation selected by `method`.
    pub fn image_with(&mut self, method: ImageMethod, states: Edge) -> Edge {
        match method {
            ImageMethod::Mono => self.image(states),
            ImageMethod::Range => self.image_by_range(states),
        }
    }

    /// Garbage-collects the manager, protecting the machine's own
    /// functions (next-state, outputs, initial state, transition relation)
    /// plus the given extra roots. Returns the number of reclaimed nodes.
    ///
    /// Long instrumented traversals that repeatedly build and discard
    /// minimized covers should call this between iterations to keep the
    /// node table bounded.
    pub fn collect_garbage(&mut self, extra_roots: &[Edge]) -> usize {
        let roots = self.roots_with(extra_roots);
        self.bdd.collect_garbage(&roots)
    }

    /// Dynamically reorders the manager's variables, protecting the same
    /// roots as [`SymbolicFsm::collect_garbage`]: the machine's own
    /// functions plus `extra_roots`. Every protected edge keeps its
    /// identity across the reorder (slots denote the same functions), so
    /// the traversal continues unchanged afterwards.
    pub fn reorder(&mut self, settings: &ReorderSettings, extra_roots: &[Edge]) -> ReorderStats {
        let roots = self.roots_with(extra_roots);
        self.bdd.reorder_roots(settings, &roots)
    }

    /// The machine's own functions (next-state, outputs, initial state,
    /// transition relation, quantification cube) followed by `extra_roots`.
    fn roots_with(&self, extra_roots: &[Edge]) -> Vec<Edge> {
        let mut roots: Vec<Edge> =
            Vec::with_capacity(self.next_fns.len() + self.output_fns.len() + extra_roots.len() + 3);
        roots.extend_from_slice(&self.next_fns);
        roots.extend_from_slice(&self.output_fns);
        roots.push(self.initial);
        roots.push(self.transition);
        roots.push(self.img_quant_cube);
        roots.extend_from_slice(extra_roots);
        roots
    }

    /// Number of states in a state set (over the present variables).
    pub fn count_states(&self, set: Edge) -> f64 {
        let frac = self.bdd.sat_fraction(set);
        frac * 2f64.powi(self.bdd.num_vars() as i32)
            / 2f64.powi((self.bdd.num_vars() - self.present_vars.len()) as i32)
    }
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

/// Checks that the symbolic next-state/output functions agree with concrete
/// simulation on the given stimulus (used by tests and the BLIF round-trip).
pub fn symbolic_matches_simulation(
    circuit: &Circuit,
    fsm: &SymbolicFsm,
    inputs: &[bool],
    state: &[bool],
) -> bool {
    let (outs, next) = circuit.simulate(inputs, state);
    let nvars = fsm.bdd.num_vars();
    let mut assign = vec![false; nvars];
    for (i, &v) in fsm.input_vars.iter().enumerate() {
        assign[v.index()] = inputs[i];
    }
    for (i, &v) in fsm.present_vars.iter().enumerate() {
        assign[v.index()] = state[i];
    }
    let sym_outs: Vec<bool> = fsm
        .output_fns
        .iter()
        .map(|&f| fsm.bdd.eval(f, &assign))
        .collect();
    let sym_next: Vec<bool> = fsm
        .next_fns
        .iter()
        .map(|&f| fsm.bdd.eval(f, &assign))
        .collect();
    sym_outs == outs && sym_next == next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{CircuitBuilder, GateKind};
    use crate::Reachability;
    use bddmin_core::rng::XorShift64;

    fn two_bit_counter() -> Circuit {
        let mut b = CircuitBuilder::new("cnt2");
        let en = b.input("en");
        let q0 = b.latch("q0", false);
        let q1 = b.latch("q1", false);
        let n0 = b.gate(GateKind::Xor, &[en, q0]);
        let carry = b.gate(GateKind::And, &[en, q0]);
        let n1 = b.gate(GateKind::Xor, &[carry, q1]);
        b.connect_latch(q0, n0);
        b.connect_latch(q1, n1);
        b.output("q0", q0);
        b.output("q1", q1);
        b.build()
    }

    #[test]
    fn symbolic_agrees_with_simulation() {
        let c = two_bit_counter();
        let fsm = SymbolicFsm::new(&c);
        for bits in 0..8u32 {
            let inputs = [(bits & 4) != 0];
            let state = [(bits & 2) != 0, (bits & 1) != 0];
            assert!(symbolic_matches_simulation(&c, &fsm, &inputs, &state));
        }
    }

    /// A seeded random machine with 1–3 latches over 1–3 inputs.
    fn small_random_machine(rng: &mut XorShift64) -> Circuit {
        let latches = rng.gen_range_inclusive(1, 3);
        let inputs = rng.gen_range_inclusive(1, 3);
        crate::generators::random_fsm("r", latches, inputs, rng.gen_u64())
    }

    #[test]
    fn symbolic_equals_simulation_on_random_machines() {
        let mut rng = XorShift64::seed_from_u64(0x5135);
        for case in 0..48 {
            let c = small_random_machine(&mut rng);
            let fsm = SymbolicFsm::new(&c);
            for _ in 0..8 {
                let inputs: Vec<bool> = (0..c.num_inputs()).map(|_| rng.gen_bool(0.5)).collect();
                let state: Vec<bool> = (0..c.num_latches()).map(|_| rng.gen_bool(0.5)).collect();
                assert!(
                    symbolic_matches_simulation(&c, &fsm, &inputs, &state),
                    "case {case}: {inputs:?} in {state:?}"
                );
            }
        }
    }

    #[test]
    fn reachability_fixpoint_is_closed_on_random_machines() {
        let mut rng = XorShift64::seed_from_u64(0xF1C5);
        for case in 0..48 {
            let mut fsm = SymbolicFsm::new(&small_random_machine(&mut rng));
            let init = fsm.initial_states();
            let reached = Reachability::new().run(&mut fsm).reached;
            // Closed under image, and contains the initial state.
            let img = fsm.image(reached);
            assert!(fsm.bdd_mut().implies_holds(img, reached), "case {case}");
            assert!(fsm.bdd_mut().implies_holds(init, reached), "case {case}");
        }
    }

    #[test]
    fn image_of_reset_state() {
        let c = two_bit_counter();
        let mut fsm = SymbolicFsm::new(&c);
        let init = fsm.initial_states();
        assert_eq!(fsm.count_states(init), 1.0);
        let img = fsm.image(init);
        // From 00 the counter can stay (en=0) or go to 01 (en=1).
        assert_eq!(fsm.count_states(img), 2.0);
    }

    #[test]
    fn full_reachability() {
        let c = two_bit_counter();
        let mut fsm = SymbolicFsm::new(&c);
        let reached = Reachability::new().run(&mut fsm).reached;
        assert_eq!(fsm.count_states(reached), 4.0);
    }

    #[test]
    fn unreachable_states_detected() {
        // A latch that can never become 1: next = q & 0.
        let mut b = CircuitBuilder::new("stuck");
        let q = b.latch("q", false);
        let zero = b.gate(GateKind::Const0, &[]);
        let nx = b.gate(GateKind::And, &[q, zero]);
        b.connect_latch(q, nx);
        b.output("o", q);
        let c = b.build();
        let mut fsm = SymbolicFsm::new(&c);
        let reached = Reachability::new().run(&mut fsm).reached;
        assert_eq!(fsm.count_states(reached), 1.0);
    }

    #[test]
    fn transition_relation_is_deterministic() {
        // For every (in, ps) exactly one ns: ∃ns.T = 1 and T is a partial
        // function — check via counting.
        let c = two_bit_counter();
        let mut fsm = SymbolicFsm::new(&c);
        let t = fsm.transition_relation();
        let ns_cube = {
            let vars = fsm.next_vars().to_vec();
            fsm.bdd_mut().cube_of_vars(&vars)
        };
        let any_ns = fsm.bdd_mut().exists(t, ns_cube);
        assert!(any_ns.is_one(), "total transition function");
        // Each (in, ps) admits exactly one ns: count = 2^(inputs+present).
        let frac = fsm.bdd().sat_fraction(t);
        let total_vars = fsm.bdd().num_vars() as i32;
        let count = frac * 2f64.powi(total_vars);
        assert_eq!(count, 2f64.powi(3)); // 1 input + 2 present bits
    }

    #[test]
    fn range_image_matches_monolithic() {
        for circuit in [
            crate::generators::counter("c", 4),
            crate::generators::lfsr("l", 4, 0b0011),
            crate::generators::traffic_light(),
            crate::generators::random_fsm("r", 4, 3, 7),
        ] {
            let mut fsm = SymbolicFsm::new(&circuit);
            let mut set = fsm.initial_states();
            for step in 0..4 {
                let mono = fsm.image(set);
                let range = fsm.image_by_range(set);
                assert_eq!(
                    mono,
                    range,
                    "mono vs range on {} step {step}",
                    circuit.name()
                );
                set = fsm.bdd_mut().or(set, mono);
            }
        }
    }

    #[test]
    fn image_with_dispatches_every_method() {
        let c = two_bit_counter();
        let mut fsm = SymbolicFsm::new(&c);
        let init = fsm.initial_states();
        let want = fsm.image(init);
        for m in ImageMethod::ALL {
            assert_eq!(fsm.image_with(m, init), want, "method {m}");
        }
    }

    #[test]
    fn image_method_round_trips_names() {
        for m in ImageMethod::ALL {
            assert_eq!(m.name().parse::<ImageMethod>(), Ok(m));
        }
        assert!("bogus".parse::<ImageMethod>().is_err());
    }

    #[test]
    fn metadata_accessors() {
        let c = two_bit_counter();
        let fsm = SymbolicFsm::new(&c);
        assert_eq!(fsm.name(), "cnt2");
        assert_eq!(fsm.present_vars().len(), 2);
        assert_eq!(fsm.next_vars().len(), 2);
        assert_eq!(fsm.next_fns().len(), 2);
        assert_eq!(fsm.output_fns().len(), 2);
    }
}
