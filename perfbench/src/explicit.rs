//! Explicit-state equivalence checking: a lockstep breadth-first search
//! over the concrete state pairs of two machines, simulating both netlists
//! gate by gate on 64 input vectors per machine word.
//!
//! No BDD is involved, so its verdicts are an independent reference for
//! the symbolic checker. The verdict follows the symbolic checker's depth
//! convention: `Err(d)` when a state first reached at BFS level `d` has an
//! input on which the machines' outputs differ, `Ok(d)` when the search
//! empties after `d` levels.

use std::collections::HashSet;

use bddmin_fsm::{Circuit, GateKind};

/// Lane `k` of word `i` holds bit `i` of `k`: the first six inputs
/// enumerate all 64 combinations inside one word.
const LANE_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Largest input count the search enumerates (2^20 vectors per state).
const MAX_INPUTS: usize = 20;

/// A circuit flattened for word-parallel simulation.
struct Netlist {
    nets: usize,
    /// Net of each primary input, in the reference input order.
    inputs: Vec<usize>,
    /// Latch output and data nets.
    latches: Vec<(usize, usize)>,
    init: u64,
    gates: Vec<(GateKind, Vec<usize>, usize)>,
    outputs: Vec<usize>,
}

impl Netlist {
    fn new(circuit: &Circuit, input_order: &[&str]) -> Netlist {
        let inputs = input_order
            .iter()
            .map(|name| {
                circuit
                    .inputs()
                    .iter()
                    .find(|&&n| circuit.net_name(n) == *name)
                    .unwrap_or_else(|| panic!("input {name:?} missing from {}", circuit.name()))
                    .index()
            })
            .collect();
        let init = circuit
            .latches()
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, l)| acc | (l.init as u64) << i);
        Netlist {
            nets: circuit.num_nets(),
            inputs,
            latches: circuit
                .latches()
                .iter()
                .map(|l| (l.output.index(), l.input.index()))
                .collect(),
            init,
            gates: circuit
                .gates()
                .iter()
                .map(|g| {
                    (
                        g.kind,
                        g.inputs.iter().map(|n| n.index()).collect(),
                        g.output.index(),
                    )
                })
                .collect(),
            outputs: circuit.outputs().iter().map(|o| o.net.index()).collect(),
        }
    }

    /// Evaluates every net in `state` on the 64 input vectors of `block`.
    fn eval(&self, state: u64, block: usize, values: &mut [u64]) {
        for (i, &net) in self.inputs.iter().enumerate() {
            values[net] = match LANE_PATTERNS.get(i) {
                Some(&pattern) => pattern,
                None if block >> (i - LANE_PATTERNS.len()) & 1 == 1 => !0,
                None => 0,
            };
        }
        for (i, &(q, _)) in self.latches.iter().enumerate() {
            values[q] = if state >> i & 1 == 1 { !0 } else { 0 };
        }
        for (kind, ins, out) in &self.gates {
            let mut words = ins.iter().map(|&n| values[n]);
            values[*out] = match kind {
                GateKind::And => words.fold(!0, |a, b| a & b),
                GateKind::Or => words.fold(0, |a, b| a | b),
                GateKind::Nand => !words.fold(!0, |a, b| a & b),
                GateKind::Nor => !words.fold(0, |a, b| a | b),
                GateKind::Xor => words.fold(0, |a, b| a ^ b),
                GateKind::Xnor => !words.fold(0, |a, b| a ^ b),
                GateKind::Not => !words.next().expect("NOT has an input"),
                GateKind::Buf => words.next().expect("BUF has an input"),
                GateKind::Const0 => 0,
                GateKind::Const1 => !0,
            };
        }
    }

    /// The next state of lane `lane` after [`Netlist::eval`].
    fn next_state(&self, values: &[u64], lane: usize) -> u64 {
        self.latches
            .iter()
            .enumerate()
            .fold(0u64, |acc, (i, &(_, d))| acc | (values[d] >> lane & 1) << i)
    }
}

/// Checks `a` against `b` by explicit lockstep search; see the module docs
/// for the verdict convention.
///
/// # Panics
///
/// Panics if the machines differ in input names or output count, have more
/// than 64 latches together, or more than 20 inputs.
pub fn check_equivalence(a: &Circuit, b: &Circuit) -> Result<usize, usize> {
    let names: Vec<&str> = a.inputs().iter().map(|&n| a.net_name(n)).collect();
    let (na, nb) = (Netlist::new(a, &names), Netlist::new(b, &names));
    assert_eq!(na.outputs.len(), nb.outputs.len(), "output counts differ");
    let la = na.latches.len();
    assert!(la + nb.latches.len() <= 64, "state pair must fit a word");
    assert!(names.len() <= MAX_INPUTS, "too many inputs to enumerate");
    let vectors = 1usize << names.len();
    let (blocks, lanes) = (vectors.div_ceil(64), vectors.min(64));
    let lane_mask = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
    let (mut va, mut vb) = (vec![0u64; na.nets], vec![0u64; nb.nets]);
    let init = na.init | nb.init << la;
    let mut reached = HashSet::from([init]);
    let mut frontier = vec![init];
    let mut depth = 0;
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &pair in &frontier {
            let (sa, sb) = (pair & low_bits(la), pair >> la);
            for block in 0..blocks {
                na.eval(sa, block, &mut va);
                nb.eval(sb, block, &mut vb);
                let diff = na
                    .outputs
                    .iter()
                    .zip(&nb.outputs)
                    .fold(0, |acc, (&oa, &ob)| acc | (va[oa] ^ vb[ob]));
                if diff & lane_mask != 0 {
                    return Err(depth);
                }
                for lane in 0..lanes {
                    let succ = na.next_state(&va, lane) | nb.next_state(&vb, lane) << la;
                    if reached.insert(succ) {
                        next.push(succ);
                    }
                }
            }
        }
        frontier = next;
        depth += 1;
    }
    Ok(depth)
}

fn low_bits(n: usize) -> u64 {
    if n == 64 {
        !0
    } else {
        (1u64 << n) - 1
    }
}
