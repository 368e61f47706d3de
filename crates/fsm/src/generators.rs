//! Synthetic benchmark machines.
//!
//! The paper evaluates on ISCAS'89 / MCNC sequential benchmarks (`s344`,
//! `s386`, …, `mult16b`, `cbp.32.4`, `minmax5`, `tlc`). Those netlists are
//! not redistributable here, so this module provides *structural stand-ins*
//! (see DESIGN.md §3): real gate-level machines of the same flavour —
//! counters, LFSRs, shift registers, a traffic-light controller, a min/max
//! datapath, a serial multiplier fragment, a carry-bypass accumulator, and
//! seeded random control logic for the `sNNN` machines. The experiment
//! harness only needs the stream of `[frontier, care]` instances these
//! machines induce during product-machine traversal.

use bddmin_core::rng::XorShift64;

use crate::circuit::{Circuit, CircuitBuilder, GateKind, NetId};

/// An `n`-bit binary counter with an enable input (wraps around).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn counter(name: &str, n: usize) -> Circuit {
    assert!(n > 0);
    let mut b = CircuitBuilder::new(name);
    let en = b.input("en");
    let qs: Vec<NetId> = (0..n).map(|i| b.latch(&format!("q{i}"), false)).collect();
    let mut carry = en;
    for (i, &q) in qs.iter().enumerate() {
        let next = b.gate(GateKind::Xor, &[carry, q]);
        if i + 1 < n {
            carry = b.gate(GateKind::And, &[carry, q]);
        }
        b.connect_latch(q, next);
    }
    for (i, &q) in qs.iter().enumerate() {
        b.output(&format!("count{i}"), q);
    }
    b.build()
}

/// An `n`-bit Gray-code counter with enable.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn gray_counter(name: &str, n: usize) -> Circuit {
    // Implemented as binary counter + binary-to-Gray output stage, with the
    // Gray value also registered so the state space is richer.
    assert!(n > 0);
    let mut b = CircuitBuilder::new(name);
    let en = b.input("en");
    let bin: Vec<NetId> = (0..n).map(|i| b.latch(&format!("b{i}"), false)).collect();
    let gray: Vec<NetId> = (0..n).map(|i| b.latch(&format!("g{i}"), false)).collect();
    let mut carry = en;
    let mut next_bin = Vec::with_capacity(n);
    for (i, &q) in bin.iter().enumerate() {
        let nx = b.gate(GateKind::Xor, &[carry, q]);
        if i + 1 < n {
            carry = b.gate(GateKind::And, &[carry, q]);
        }
        next_bin.push(nx);
    }
    for (i, &q) in bin.iter().enumerate() {
        b.connect_latch(q, next_bin[i]);
    }
    for i in 0..n {
        let g_next = if i + 1 < n {
            b.gate(GateKind::Xor, &[next_bin[i], next_bin[i + 1]])
        } else {
            b.gate(GateKind::Buf, &[next_bin[i]])
        };
        b.connect_latch(gray[i], g_next);
        b.output(&format!("gray{i}"), gray[i]);
    }
    b.build()
}

/// An `n`-bit Fibonacci LFSR; bit `i` of `taps` selects stage `i` as a
/// feedback tap. A `seed_in` input XORs into the feedback so the machine
/// has primary-input dependence.
///
/// # Panics
///
/// Panics if `n == 0` or `n > 63`.
pub fn lfsr(name: &str, n: usize, taps: u64) -> Circuit {
    assert!(n > 0 && n <= 63);
    let mut b = CircuitBuilder::new(name);
    let seed_in = b.input("seed_in");
    let qs: Vec<NetId> = (0..n).map(|i| b.latch(&format!("s{i}"), i == 0)).collect();
    let tapped: Vec<NetId> = (0..n)
        .filter(|i| taps >> i & 1 == 1)
        .map(|i| qs[i])
        .collect();
    let feedback = if tapped.is_empty() {
        b.gate(GateKind::Buf, &[qs[n - 1]])
    } else {
        b.gate(GateKind::Xor, &tapped)
    };
    let fb = b.gate(GateKind::Xor, &[feedback, seed_in]);
    // Shift: s0 <- fb, s_{i+1} <- s_i.
    b.connect_latch(qs[0], fb);
    for i in 1..n {
        let buf = b.gate(GateKind::Buf, &[qs[i - 1]]);
        b.connect_latch(qs[i], buf);
    }
    b.output("tap", qs[n - 1]);
    b.output("parity", feedback);
    b.build()
}

/// A traffic-light controller in the spirit of the MCNC `tlc` benchmark:
/// a highway/farm-road intersection with a car sensor and a timer.
pub fn traffic_light() -> Circuit {
    // States (one-hot-ish binary encoding in 2 bits):
    //   00 highway green, 01 highway yellow, 10 farm green, 11 farm yellow.
    // Inputs: car (farm-road sensor), timer (long/short timeout elapsed).
    let mut b = CircuitBuilder::new("tlc");
    let car = b.input("car");
    let timer = b.input("timer");
    let s1 = b.latch("s1", false);
    let s0 = b.latch("s0", false);
    let ns1 = b.gate(GateKind::Not, &[s1]);
    let ns0 = b.gate(GateKind::Not, &[s0]);
    // State decode.
    let hg = b.gate(GateKind::And, &[ns1, ns0]); // 00
    let hy = b.gate(GateKind::And, &[ns1, s0]); // 01
    let fg = b.gate(GateKind::And, &[s1, ns0]); // 10
    let fy = b.gate(GateKind::And, &[s1, s0]); // 11
                                               // Transitions: hg --car&timer--> hy --timer--> fg --(!car)|timer--> fy
                                               // --timer--> hg.
    let car_and_timer = b.gate(GateKind::And, &[car, timer]);
    let leave_hg = b.gate(GateKind::And, &[hg, car_and_timer]);
    let leave_hy = b.gate(GateKind::And, &[hy, timer]);
    let ncar = b.gate(GateKind::Not, &[car]);
    let fg_done = b.gate(GateKind::Or, &[ncar, timer]);
    let leave_fg = b.gate(GateKind::And, &[fg, fg_done]);
    let leave_fy = b.gate(GateKind::And, &[fy, timer]);
    // next = one-hot of target states.
    let ntimer = b.gate(GateKind::Not, &[timer]);
    let nfg_done = b.gate(GateKind::Not, &[fg_done]);
    let stay_hy = b.gate(GateKind::And, &[hy, ntimer]);
    let stay_fg = b.gate(GateKind::And, &[fg, nfg_done]);
    let stay_fy = b.gate(GateKind::And, &[fy, ntimer]);
    // next state bits: s1' = (to fg) | (to fy); fg reached from leave_hy or
    // stay_fg; fy reached from leave_fg or stay_fy.
    let to_fg = b.gate(GateKind::Or, &[leave_hy, stay_fg]);
    let to_fy = b.gate(GateKind::Or, &[leave_fg, stay_fy]);
    let to_hy = b.gate(GateKind::Or, &[leave_hg, stay_hy]);
    let n_s1 = b.gate(GateKind::Or, &[to_fg, to_fy]);
    let n_s0 = b.gate(GateKind::Or, &[to_hy, to_fy]);
    b.connect_latch(s1, n_s1);
    b.connect_latch(s0, n_s0);
    b.output("hw_green", hg);
    b.output("hw_yellow", hy);
    b.output("farm_green", fg);
    b.output("farm_yellow", fy);
    let _ = leave_fy;
    b.build()
}

/// A register tracking the minimum and maximum of an `n`-bit input stream —
/// the `minmax` flavour (the paper uses `minmax5`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn minmax(name: &str, n: usize) -> Circuit {
    assert!(n > 0);
    let mut b = CircuitBuilder::new(name);
    let din: Vec<NetId> = (0..n).map(|i| b.input(&format!("d{i}"))).collect();
    let reset = b.input("reset");
    let mins: Vec<NetId> = (0..n).map(|i| b.latch(&format!("min{i}"), true)).collect();
    let maxs: Vec<NetId> = (0..n).map(|i| b.latch(&format!("max{i}"), false)).collect();
    // Comparator: din < min  (ripple from MSB).
    let lt_min = compare_less(&mut b, &din, &mins);
    let gt_max = compare_less(&mut b, &maxs, &din);
    let nreset = b.gate(GateKind::Not, &[reset]);
    for i in 0..n {
        // min' = reset ? din : (lt_min ? din : min)
        let take_min = b.gate(GateKind::Or, &[reset, lt_min]);
        let keep_min = b.gate(GateKind::Not, &[take_min]);
        let a1 = b.gate(GateKind::And, &[take_min, din[i]]);
        let a2 = b.gate(GateKind::And, &[keep_min, mins[i]]);
        let nmin = b.gate(GateKind::Or, &[a1, a2]);
        b.connect_latch(mins[i], nmin);
        let take_max = b.gate(GateKind::Or, &[reset, gt_max]);
        let keep_max = b.gate(GateKind::Not, &[take_max]);
        let b1 = b.gate(GateKind::And, &[take_max, din[i]]);
        let b2 = b.gate(GateKind::And, &[keep_max, maxs[i]]);
        let nmax = b.gate(GateKind::Or, &[b1, b2]);
        b.connect_latch(maxs[i], nmax);
        b.output(&format!("min{i}"), mins[i]);
        b.output(&format!("max{i}"), maxs[i]);
    }
    let _ = nreset;
    b.build()
}

/// Ripple comparator net for `a < b` (MSB at index n-1).
fn compare_less(b: &mut CircuitBuilder, a: &[NetId], bb: &[NetId]) -> NetId {
    // lt_i = (¬a_i & b_i) | (a_i ≡ b_i) & lt_{i-1}; fold from LSB up.
    let mut lt = b.gate(GateKind::Const0, &[]);
    for i in 0..a.len() {
        let na = b.gate(GateKind::Not, &[a[i]]);
        let strictly = b.gate(GateKind::And, &[na, bb[i]]);
        let eq = b.gate(GateKind::Xnor, &[a[i], bb[i]]);
        let carry = b.gate(GateKind::And, &[eq, lt]);
        lt = b.gate(GateKind::Or, &[strictly, carry]);
    }
    lt
}

/// A serial (shift-add) multiplier fragment in the spirit of `mult16b`,
/// scaled to `n` bits: accumulates `acc' = acc + (bit ? multiplicand : 0)`
/// then shifts.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn serial_mult(name: &str, n: usize) -> Circuit {
    assert!(n > 0);
    let mut b = CircuitBuilder::new(name);
    let bit = b.input("bit");
    let m: Vec<NetId> = (0..n).map(|i| b.input(&format!("m{i}"))).collect();
    let acc: Vec<NetId> = (0..n).map(|i| b.latch(&format!("acc{i}"), false)).collect();
    // addend_i = bit & m_i
    let addend: Vec<NetId> = m
        .iter()
        .map(|&mi| b.gate(GateKind::And, &[bit, mi]))
        .collect();
    // Ripple add acc + addend, then shift right by one into the latches.
    let mut carry = b.gate(GateKind::Const0, &[]);
    let mut sum = Vec::with_capacity(n);
    for i in 0..n {
        let s1 = b.gate(GateKind::Xor, &[acc[i], addend[i], carry]);
        let c1 = {
            let ab = b.gate(GateKind::And, &[acc[i], addend[i]]);
            let ac = b.gate(GateKind::And, &[acc[i], carry]);
            let bc = b.gate(GateKind::And, &[addend[i], carry]);
            let t = b.gate(GateKind::Or, &[ab, ac]);
            b.gate(GateKind::Or, &[t, bc])
        };
        sum.push(s1);
        carry = c1;
    }
    // Shift right: acc_i' = sum_{i+1}, top bit takes the carry.
    for i in 0..n {
        let next = if i + 1 < n { sum[i + 1] } else { carry };
        b.connect_latch(acc[i], next);
    }
    b.output("lsb", sum[0]);
    b.output("msb", acc[n - 1]);
    b.build()
}

/// A carry-bypass accumulator in the spirit of `cbp.32.4`, scaled to `n`
/// bits with `block` size: adds the input bus into an accumulator each
/// cycle, with block-bypass carry structure.
///
/// # Panics
///
/// Panics if `n == 0` or `block == 0`.
pub fn carry_bypass_acc(name: &str, n: usize, block: usize) -> Circuit {
    assert!(n > 0 && block > 0);
    let mut b = CircuitBuilder::new(name);
    let din: Vec<NetId> = (0..n).map(|i| b.input(&format!("d{i}"))).collect();
    let acc: Vec<NetId> = (0..n).map(|i| b.latch(&format!("a{i}"), false)).collect();
    let mut carry = b.gate(GateKind::Const0, &[]);
    let mut i = 0;
    while i < n {
        let hi = (i + block).min(n);
        let block_in = carry;
        // Propagate condition for the whole block.
        let props: Vec<NetId> = (i..hi)
            .map(|j| b.gate(GateKind::Xor, &[acc[j], din[j]]))
            .collect();
        let block_prop = b.gate(GateKind::And, &props);
        let mut c = block_in;
        for j in i..hi {
            let s = b.gate(GateKind::Xor, &[acc[j], din[j], c]);
            let g = b.gate(GateKind::And, &[acc[j], din[j]]);
            let p = b.gate(GateKind::Xor, &[acc[j], din[j]]);
            let pc = b.gate(GateKind::And, &[p, c]);
            c = b.gate(GateKind::Or, &[g, pc]);
            b.connect_latch(acc[j], s);
        }
        // Bypass mux: block carry-out = prop ? block_in : ripple out.
        let nprop = b.gate(GateKind::Not, &[block_prop]);
        let byp = b.gate(GateKind::And, &[block_prop, block_in]);
        let rip = b.gate(GateKind::And, &[nprop, c]);
        carry = b.gate(GateKind::Or, &[byp, rip]);
        i = hi;
    }
    b.output("carry_out", carry);
    for (i, &a) in acc.iter().enumerate() {
        b.output(&format!("a{i}"), a);
    }
    b.build()
}

/// Seeded random control logic: `latches` state bits, each updated by a
/// random depth-bounded gate cone over the inputs and state — a stand-in
/// for the `sNNN` ISCAS'89 machines.
///
/// # Panics
///
/// Panics if `latches == 0` or `inputs == 0`.
pub fn random_fsm(name: &str, latches: usize, inputs: usize, seed: u64) -> Circuit {
    assert!(latches > 0 && inputs > 0);
    let mut rng = XorShift64::seed_from_u64(seed);
    let mut b = CircuitBuilder::new(name);
    let ins: Vec<NetId> = (0..inputs).map(|i| b.input(&format!("x{i}"))).collect();
    let qs: Vec<NetId> = (0..latches)
        .map(|i| b.latch(&format!("q{i}"), rng.gen_bool(0.3)))
        .collect();
    let leaves: Vec<NetId> = ins.iter().chain(qs.iter()).copied().collect();
    let mut cones = Vec::with_capacity(latches);
    for _ in 0..latches {
        let cone = random_cone(&mut b, &mut rng, &leaves, 3);
        cones.push(cone);
    }
    for (i, &q) in qs.iter().enumerate() {
        b.connect_latch(q, cones[i]);
    }
    // A couple of random observation outputs.
    let o1 = random_cone(&mut b, &mut rng, &leaves, 2);
    let o2 = random_cone(&mut b, &mut rng, &leaves, 2);
    b.output("o1", o1);
    b.output("o2", o2);
    for (i, &q) in qs.iter().enumerate().take(2) {
        b.output(&format!("state{i}"), q);
    }
    b.build()
}

fn random_cone(
    b: &mut CircuitBuilder,
    rng: &mut XorShift64,
    leaves: &[NetId],
    depth: usize,
) -> NetId {
    if depth == 0 || rng.gen_bool(0.25) {
        let leaf = leaves[rng.gen_range(0..leaves.len())];
        return if rng.gen_bool(0.3) {
            b.gate(GateKind::Not, &[leaf])
        } else {
            leaf
        };
    }
    let kind = match rng.gen_range(0..5) {
        0 => GateKind::And,
        1 => GateKind::Or,
        2 => GateKind::Nand,
        3 => GateKind::Nor,
        _ => GateKind::Xor,
    };
    let arity = rng.gen_range_inclusive(2, 3);
    let kids: Vec<NetId> = (0..arity)
        .map(|_| random_cone(b, rng, leaves, depth - 1))
        .collect();
    b.gate(kind, &kids)
}

/// One named benchmark machine of the suite.
#[derive(Debug)]
pub struct Benchmark {
    /// The paper benchmark this machine stands in for.
    pub paper_name: &'static str,
    /// The generated circuit.
    pub circuit: Circuit,
}

/// The benchmark suite mirroring the paper's list (Section 4.1.2), as
/// scaled-down structural stand-ins. Deterministic: repeated calls produce
/// identical machines.
pub fn benchmark_suite() -> Vec<Benchmark> {
    let mk = |paper_name: &'static str, circuit: Circuit| Benchmark {
        paper_name,
        circuit,
    };
    vec![
        mk("s344", random_fsm("s344_like", 8, 5, 344)),
        mk("s386", random_fsm("s386_like", 6, 5, 3860)),
        mk("s510", random_fsm("s510_like", 6, 6, 510)),
        mk("s641", random_fsm("s641_like", 8, 5, 641)),
        mk("s820", random_fsm("s820_like", 6, 6, 820)),
        mk("s953", random_fsm("s953_like", 8, 5, 953)),
        mk("s1238", random_fsm("s1238_like", 7, 5, 1238)),
        mk("s1488", random_fsm("s1488_like", 7, 5, 1488)),
        mk("scf", random_fsm("scf_like", 8, 5, 7331)),
        mk("styr", random_fsm("styr_like", 6, 6, 7879)),
        mk("tbk", random_fsm("tbk_like", 7, 5, 8253)),
        mk("mult16b", serial_mult("mult8b_like", 8)),
        mk("cbp.32.4", carry_bypass_acc("cbp10_4_like", 10, 4)),
        mk("minmax5", minmax("minmax4_like", 4)),
        mk("tlc", traffic_light()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbolic::SymbolicFsm;

    #[test]
    fn counter_counts() {
        let c = counter("c", 3);
        let mut state = c.initial_state();
        for expect in 1..=8 {
            let (_, next) = c.simulate(&[true], &state);
            state = next;
            let value: usize = state
                .iter()
                .enumerate()
                .map(|(i, &b)| (b as usize) << i)
                .sum();
            assert_eq!(value, expect % 8);
        }
        // Disabled counter holds.
        let (_, held) = c.simulate(&[false], &state);
        assert_eq!(held, state);
    }

    #[test]
    fn lfsr_cycles_without_input() {
        let c = lfsr("l", 4, 0b1001);
        let mut state = c.initial_state();
        let start = state.clone();
        let mut period = 0;
        for _ in 0..32 {
            let (_, next) = c.simulate(&[false], &state);
            state = next;
            period += 1;
            if state == start {
                break;
            }
        }
        assert!(period <= 32, "LFSR must cycle");
        assert_eq!(state, start, "LFSR returns to seed state");
    }

    #[test]
    fn traffic_light_reaches_all_states() {
        let c = traffic_light();
        let mut fsm = SymbolicFsm::new(&c);
        let init = fsm.initial_states();
        let reached = fsm.reachable_from(init);
        assert_eq!(fsm.count_states(reached), 4.0);
    }

    #[test]
    fn traffic_light_sane_protocol() {
        // From highway-green, without a car the light never leaves.
        let c = traffic_light();
        let mut state = c.initial_state();
        for _ in 0..5 {
            let (outs, next) = c.simulate(&[false, true], &state);
            assert!(outs[0], "highway stays green without cars");
            state = next;
        }
        // With car + timer it starts cycling.
        let (_, next) = c.simulate(&[true, true], &state);
        let (outs, _) = c.simulate(&[true, true], &next);
        assert!(outs[1] || outs[2], "moved to yellow/farm phase");
    }

    #[test]
    fn minmax_tracks_extremes() {
        let c = minmax("m", 3);
        // inputs: d0..d2 (LSB..MSB), reset.
        let encode = |v: usize, reset: bool| vec![v & 1 == 1, v & 2 == 2, v & 4 == 4, reset];
        let decode = |bits: &[bool]| -> usize {
            bits.iter()
                .enumerate()
                .map(|(i, &b)| (b as usize) << i)
                .sum()
        };
        let mut state = c.initial_state();
        let values = [5usize, 2, 7, 3];
        let mut outs = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            let (o, next) = c.simulate(&encode(v, i == 0), &state);
            outs = o;
            state = next;
        }
        let _ = outs;
        let min_bits: Vec<bool> = (0..3).map(|i| state[i]).collect();
        let max_bits: Vec<bool> = (0..3).map(|i| state[3 + i]).collect();
        assert_eq!(decode(&min_bits), 2);
        assert_eq!(decode(&max_bits), 7);
    }

    #[test]
    fn serial_mult_accumulates() {
        let c = serial_mult("sm", 4);
        // With bit=1 and multiplicand 0b0011, after one step from zero the
        // accumulator holds (0 + 3) >> 1 = 1.
        let inputs = vec![true, true, true, false, false];
        let state = vec![false; 4];
        let (_, next) = c.simulate(&inputs, &state);
        let value: usize = next
            .iter()
            .enumerate()
            .map(|(i, &b)| (b as usize) << i)
            .sum();
        assert_eq!(value, 1);
    }

    #[test]
    fn carry_bypass_acc_adds() {
        let c = carry_bypass_acc("cb", 8, 4);
        let mut state = vec![false; 8];
        let encode = |v: usize| (0..8).map(|i| v >> i & 1 == 1).collect::<Vec<bool>>();
        let decode = |bits: &[bool]| -> usize {
            bits.iter()
                .enumerate()
                .map(|(i, &b)| (b as usize) << i)
                .sum()
        };
        for v in [13usize, 200, 77] {
            let (_, next) = c.simulate(&encode(v), &state);
            state = next;
        }
        assert_eq!(decode(&state), (13 + 200 + 77) % 256);
    }

    #[test]
    fn random_fsm_is_deterministic() {
        let a = random_fsm("r", 4, 3, 42);
        let b = random_fsm("r", 4, 3, 42);
        assert_eq!(a, b);
        let c = random_fsm("r", 4, 3, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn benchmark_suite_is_complete_and_buildable() {
        let suite = benchmark_suite();
        assert_eq!(suite.len(), 15);
        let names: Vec<&str> = suite.iter().map(|b| b.paper_name).collect();
        assert!(names.contains(&"s344"));
        assert!(names.contains(&"tlc"));
        assert!(names.contains(&"mult16b"));
        for bench in &suite {
            let fsm = SymbolicFsm::new(&bench.circuit);
            assert!(!fsm.initial_states().is_zero());
            assert!(!fsm.output_fns().is_empty());
        }
    }

    #[test]
    fn gray_counter_outputs_gray_code() {
        let c = gray_counter("g", 3);
        let mut state = c.initial_state();
        let mut prev_gray: Option<Vec<bool>> = None;
        for _ in 0..8 {
            let (outs, next) = c.simulate(&[true], &state);
            if let Some(p) = prev_gray {
                let diff: usize = outs.iter().zip(&p).filter(|(a, b)| a != b).count();
                assert!(diff <= 1, "gray code changes at most one bit");
            }
            prev_gray = Some(outs);
            state = next;
        }
    }
}
