//! A BLIF (Berkeley Logic Interchange Format) subset: the format the
//! paper's SIS benchmarks are distributed in.
//!
//! Supported constructs: `.model`, `.inputs`, `.outputs`, `.latch`
//! (input output \[type control\] \[init\]), `.names` with PLA-style cover
//! rows (`01-` input patterns, output value `0` or `1`), line continuation
//! `\`, comments `#`, `.end`.
//!
//! `.names` nodes are elaborated into AND/OR/NOT gates; a printer emits any
//! [`Circuit`] back as BLIF (gates become single-output covers), and the
//! round trip preserves behaviour (tested).

use std::collections::HashMap;
use std::fmt;

use crate::circuit::{Circuit, CircuitBuilder, GateKind, NetId};

/// Error produced by [`parse_blif`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseBlifError {
    message: String,
    line: usize,
}

impl ParseBlifError {
    fn new(message: impl Into<String>, line: usize) -> Self {
        ParseBlifError {
            message: message.into(),
            line,
        }
    }

    /// 1-based line number of the offending construct.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (line {})", self.message, self.line)
    }
}

impl std::error::Error for ParseBlifError {}

#[derive(Debug)]
struct NamesNode {
    inputs: Vec<String>,
    output: String,
    /// (pattern, output value) rows; pattern chars are '0', '1', '-'.
    rows: Vec<(String, bool)>,
    line: usize,
}

#[derive(Debug)]
struct LatchDecl {
    input: String,
    output: String,
    init: bool,
    line: usize,
}

/// Parses a BLIF model into a [`Circuit`].
///
/// # Errors
///
/// Returns [`ParseBlifError`] on unsupported constructs, undefined signals
/// or combinational cycles.
///
/// # Example
///
/// ```
/// use bddmin_fsm::parse_blif;
///
/// let src = "\
/// .model toggle
/// .inputs en
/// .outputs q
/// .latch next q 0
/// .names en q next
/// 10 1
/// 01 1
/// .end
/// ";
/// let circuit = parse_blif(src).unwrap();
/// assert_eq!(circuit.num_latches(), 1);
/// let (outs, next) = circuit.simulate(&[true], &[false]);
/// assert_eq!(outs, vec![false]);
/// assert_eq!(next, vec![true]);
/// ```
pub fn parse_blif(source: &str) -> Result<Circuit, ParseBlifError> {
    // Join continuation lines, strip comments.
    let mut logical_lines: Vec<(String, usize)> = Vec::new();
    let mut pending = String::new();
    let mut pending_line = 0;
    for (lineno, raw) in source.lines().enumerate() {
        let line = match raw.find('#') {
            Some(idx) => &raw[..idx],
            None => raw,
        };
        let line = line.trim_end();
        if pending.is_empty() {
            pending_line = lineno + 1;
        }
        if let Some(stripped) = line.strip_suffix('\\') {
            pending.push_str(stripped);
            pending.push(' ');
            continue;
        }
        pending.push_str(line);
        let full = std::mem::take(&mut pending);
        if !full.trim().is_empty() {
            logical_lines.push((full, pending_line));
        }
    }

    let mut model_name = String::from("unnamed");
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut latches: Vec<LatchDecl> = Vec::new();
    let mut names_nodes: Vec<NamesNode> = Vec::new();

    let mut saw_end = false;
    let mut i = 0;
    while i < logical_lines.len() {
        let (line, lineno) = &logical_lines[i];
        let lineno = *lineno;
        let tokens: Vec<&str> = line.split_whitespace().collect();
        i += 1;
        if tokens.is_empty() {
            continue;
        }
        match tokens[0] {
            ".model" => {
                if tokens.len() >= 2 {
                    model_name = tokens[1].to_owned();
                }
            }
            ".inputs" => inputs.extend(tokens[1..].iter().map(|s| s.to_string())),
            ".outputs" => outputs.extend(tokens[1..].iter().map(|s| s.to_string())),
            ".latch" => {
                // .latch input output [type control] [init]
                let rest = &tokens[1..];
                if rest.len() < 2 {
                    return Err(ParseBlifError::new(".latch needs input and output", lineno));
                }
                let init = match rest.len() {
                    2 => false,
                    3 => parse_init(rest[2], lineno)?,
                    5 => parse_init(rest[4], lineno)?,
                    4 => false, // type + control, no init
                    _ => return Err(ParseBlifError::new("malformed .latch", lineno)),
                };
                latches.push(LatchDecl {
                    input: rest[0].to_owned(),
                    output: rest[1].to_owned(),
                    init,
                    line: lineno,
                });
            }
            ".names" => {
                if tokens.len() < 2 {
                    return Err(ParseBlifError::new(".names needs an output", lineno));
                }
                let output = tokens[tokens.len() - 1].to_owned();
                let ins: Vec<String> = tokens[1..tokens.len() - 1]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                let mut rows = Vec::new();
                while i < logical_lines.len() {
                    let (row_line, row_no) = &logical_lines[i];
                    if row_line.trim_start().starts_with('.') {
                        break;
                    }
                    let parts: Vec<&str> = row_line.split_whitespace().collect();
                    let (pattern, value) = if ins.is_empty() {
                        if parts.len() != 1 {
                            return Err(ParseBlifError::new(
                                "constant cover row must be a single value",
                                *row_no,
                            ));
                        }
                        (String::new(), parts[0])
                    } else {
                        if parts.len() != 2 {
                            return Err(ParseBlifError::new(
                                "cover row must be <pattern> <value>",
                                *row_no,
                            ));
                        }
                        (parts[0].to_owned(), parts[1])
                    };
                    if pattern.len() != ins.len()
                        || !pattern.chars().all(|c| matches!(c, '0' | '1' | '-'))
                    {
                        return Err(ParseBlifError::new("malformed cover pattern", *row_no));
                    }
                    let value = match value {
                        "1" => true,
                        "0" => false,
                        _ => {
                            return Err(ParseBlifError::new("cover value must be 0 or 1", *row_no))
                        }
                    };
                    rows.push((pattern, value));
                    i += 1;
                }
                names_nodes.push(NamesNode {
                    inputs: ins,
                    output,
                    rows,
                    line: lineno,
                });
            }
            ".end" => {
                saw_end = true;
                break;
            }
            other => {
                return Err(ParseBlifError::new(
                    format!("unsupported construct {other:?}"),
                    lineno,
                ))
            }
        }
    }

    if !saw_end {
        let last = logical_lines.last().map(|&(_, l)| l).unwrap_or(0);
        return Err(ParseBlifError::new("missing .end", last));
    }

    elaborate(model_name, inputs, outputs, latches, names_nodes)
}

fn parse_init(token: &str, lineno: usize) -> Result<bool, ParseBlifError> {
    match token {
        "0" => Ok(false),
        "1" => Ok(true),
        // 2 = don't care, 3 = unknown: default to 0.
        "2" | "3" => Ok(false),
        _ => Err(ParseBlifError::new("bad latch init value", lineno)),
    }
}

fn elaborate(
    model_name: String,
    inputs: Vec<String>,
    outputs: Vec<String>,
    latches: Vec<LatchDecl>,
    names_nodes: Vec<NamesNode>,
) -> Result<Circuit, ParseBlifError> {
    let mut b = CircuitBuilder::new(&model_name);
    let mut env: HashMap<String, NetId> = HashMap::new();
    for name in &inputs {
        env.insert(name.clone(), b.input(name));
    }
    for latch in &latches {
        if env.contains_key(latch.output.as_str()) {
            return Err(ParseBlifError::new(
                format!("signal {:?} multiply defined", latch.output),
                latch.line,
            ));
        }
        let q = b.latch(&latch.output, latch.init);
        env.insert(latch.output.clone(), q);
    }
    // Topologically order the .names nodes (dependencies are other .names
    // outputs; inputs and latch outputs are already defined).
    let mut by_output: HashMap<&str, usize> = HashMap::new();
    for (idx, node) in names_nodes.iter().enumerate() {
        // Both a second `.names` for the same target and a `.names` whose
        // target is a primary input or latch output would silently shadow
        // the earlier driver; reject them all.
        if env.contains_key(node.output.as_str())
            || by_output.insert(node.output.as_str(), idx).is_some()
        {
            return Err(ParseBlifError::new(
                format!("signal {:?} multiply defined", node.output),
                node.line,
            ));
        }
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks = vec![Mark::White; names_nodes.len()];
    let mut order: Vec<usize> = Vec::with_capacity(names_nodes.len());
    // Iterative DFS for topological order.
    for start in 0..names_nodes.len() {
        if marks[start] != Mark::White {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        marks[start] = Mark::Grey;
        while let Some(&mut (node, ref mut child)) = stack.last_mut() {
            let deps = &names_nodes[node].inputs;
            if *child < deps.len() {
                let dep = &deps[*child];
                *child += 1;
                if env.contains_key(dep) {
                    continue; // input or latch output
                }
                let Some(&didx) = by_output.get(dep.as_str()) else {
                    return Err(ParseBlifError::new(
                        format!("undefined signal {dep:?}"),
                        names_nodes[node].line,
                    ));
                };
                match marks[didx] {
                    Mark::White => {
                        marks[didx] = Mark::Grey;
                        stack.push((didx, 0));
                    }
                    Mark::Grey => {
                        return Err(ParseBlifError::new(
                            format!("combinational cycle through {dep:?}"),
                            names_nodes[node].line,
                        ))
                    }
                    Mark::Black => {}
                }
            } else {
                marks[node] = Mark::Black;
                order.push(node);
                stack.pop();
            }
        }
    }

    // Intermediate nets created while elaborating covers must not collide
    // with any signal name appearing anywhere in the file (which may be
    // defined later).
    let mut taken: std::collections::HashSet<String> = inputs.iter().cloned().collect();
    taken.extend(outputs.iter().cloned());
    for l in &latches {
        taken.insert(l.input.clone());
        taken.insert(l.output.clone());
    }
    for n in &names_nodes {
        taken.insert(n.output.clone());
        taken.extend(n.inputs.iter().cloned());
    }
    let mut namegen = NameGen { taken, counter: 0 };

    for &idx in &order {
        let node = &names_nodes[idx];
        let ins: Vec<NetId> = node.inputs.iter().map(|n| env[n.as_str()]).collect();
        let out = build_cover(&mut b, &ins, &node.rows, &node.output, &mut namegen);
        env.insert(node.output.clone(), out);
    }

    for latch in &latches {
        let q = env[latch.output.as_str()];
        let Some(&data) = env.get(latch.input.as_str()) else {
            return Err(ParseBlifError::new(
                format!("latch input {:?} undefined", latch.input),
                latch.line,
            ));
        };
        b.connect_latch(q, data);
    }
    for name in &outputs {
        let Some(&net) = env.get(name.as_str()) else {
            return Err(ParseBlifError::new(format!("output {name:?} undefined"), 0));
        };
        b.output(name, net);
    }
    Ok(b.build())
}

/// Generates intermediate net names guaranteed not to collide with any
/// signal in the parsed file.
struct NameGen {
    taken: std::collections::HashSet<String>,
    counter: usize,
}

impl NameGen {
    fn fresh(&mut self) -> String {
        loop {
            let name = format!("_blif{}", self.counter);
            self.counter += 1;
            if self.taken.insert(name.clone()) {
                return name;
            }
        }
    }
}

/// Builds the gate network for one single-output cover.
fn build_cover(
    b: &mut CircuitBuilder,
    ins: &[NetId],
    rows: &[(String, bool)],
    out_name: &str,
    namegen: &mut NameGen,
) -> NetId {
    // The ON-set interpretation: rows with value 1 are OR'd; if all rows
    // have value 0, the function is the complement of the OR of those rows
    // (BLIF allows either the on-set or the off-set, not mixed).
    let on_rows: Vec<&String> = rows.iter().filter(|(_, v)| *v).map(|(p, _)| p).collect();
    let off_rows: Vec<&String> = rows.iter().filter(|(_, v)| !*v).map(|(p, _)| p).collect();
    let (patterns, negate) = if !on_rows.is_empty() {
        (on_rows, false)
    } else if !off_rows.is_empty() {
        (off_rows, true)
    } else {
        // Empty cover = constant 0.
        return b.gate_named(out_name, GateKind::Const0, &[]);
    };
    // Canonical covers (the shapes the printer emits) elaborate to a
    // single gate carrying the cover's own output name. Without this the
    // print→parse cycle wraps every gate in fresh `Not`/`Buf` layers and
    // a serialized network grows without bound instead of reaching a
    // fixed point.
    if !negate {
        if let Some(net) = build_canonical(b, ins, &patterns, out_name) {
            return net;
        }
    }
    let mut terms: Vec<NetId> = Vec::with_capacity(patterns.len());
    for pattern in patterns {
        let mut literals: Vec<NetId> = Vec::new();
        for (i, ch) in pattern.chars().enumerate() {
            match ch {
                '1' => literals.push(ins[i]),
                '0' => {
                    let n = namegen.fresh();
                    literals.push(b.gate_named(&n, GateKind::Not, &[ins[i]]));
                }
                _ => {}
            }
        }
        let term = match literals.len() {
            0 => {
                let n = namegen.fresh();
                b.gate_named(&n, GateKind::Const1, &[])
            }
            1 => literals[0],
            _ => {
                let n = namegen.fresh();
                b.gate_named(&n, GateKind::And, &literals)
            }
        };
        terms.push(term);
    }
    let sum = if terms.len() == 1 {
        terms[0]
    } else {
        let n = namegen.fresh();
        b.gate_named(&n, GateKind::Or, &terms)
    };
    if negate {
        b.gate_named(out_name, GateKind::Not, &[sum])
    } else {
        b.gate_named(out_name, GateKind::Buf, &[sum])
    }
}

/// Recognizes on-set covers in the shapes the printer emits and builds a
/// single gate carrying the cover's own output name. Returns `None` for
/// anything else; the generic sum-of-products path handles those.
fn build_canonical(
    b: &mut CircuitBuilder,
    ins: &[NetId],
    patterns: &[&String],
    out_name: &str,
) -> Option<NetId> {
    if patterns.len() == 1 {
        let p = patterns[0].as_str();
        let one_pos: Vec<usize> = p
            .char_indices()
            .filter(|&(_, c)| c == '1')
            .map(|(i, _)| i)
            .collect();
        let zero_pos: Vec<usize> = p
            .char_indices()
            .filter(|&(_, c)| c == '0')
            .map(|(i, _)| i)
            .collect();
        let (kind, pos) = match (one_pos.len(), zero_pos.len()) {
            (0, 0) => (GateKind::Const1, one_pos),
            (1, 0) => (GateKind::Buf, one_pos),
            (_, 0) => (GateKind::And, one_pos),
            (0, 1) => (GateKind::Not, zero_pos),
            (0, _) => (GateKind::Nor, zero_pos),
            // Mixed polarities need intermediate inverters.
            _ => return None,
        };
        let nets: Vec<NetId> = pos.iter().map(|&i| ins[i]).collect();
        return Some(b.gate_named(out_name, kind, &nets));
    }
    // Exactly one literal of polarity `lit` and dashes elsewhere.
    let single = |p: &str, lit: char| -> Option<usize> {
        let mut pos = None;
        for (i, c) in p.char_indices() {
            if c == lit {
                if pos.is_some() {
                    return None;
                }
                pos = Some(i);
            } else if c != '-' {
                return None;
            }
        }
        pos
    };
    // OR: one '1' per row (sum of positive literals). NAND: one '0' per
    // row (De Morgan: sum of negative literals).
    for (lit, kind) in [('1', GateKind::Or), ('0', GateKind::Nand)] {
        if let Some(pos) = patterns
            .iter()
            .map(|p| single(p, lit))
            .collect::<Option<Vec<usize>>>()
        {
            let nets: Vec<NetId> = pos.iter().map(|&i| ins[i]).collect();
            return Some(b.gate_named(out_name, kind, &nets));
        }
    }
    // XOR/XNOR: the full parity enumeration (all odd- or even-count rows).
    let arity = ins.len();
    if (2..=12).contains(&arity) && patterns.len() == 1usize << (arity - 1) {
        let rows: std::collections::HashSet<&str> = patterns.iter().map(|p| p.as_str()).collect();
        if rows.len() == patterns.len() && rows.iter().all(|p| !p.contains('-')) {
            for (parity, kind) in [(1, GateKind::Xor), (0, GateKind::Xnor)] {
                let matches = (0..1u32 << arity)
                    .filter(|bits| bits.count_ones() % 2 == parity)
                    .all(|bits| {
                        let row: String = (0..arity)
                            .map(|i| if bits >> i & 1 == 1 { '1' } else { '0' })
                            .collect();
                        rows.contains(row.as_str())
                    });
                if matches {
                    return Some(b.gate_named(out_name, kind, ins));
                }
            }
        }
    }
    None
}

/// Serialises a circuit to BLIF.
///
/// # Example
///
/// ```
/// use bddmin_fsm::{generators, parse_blif, print_blif};
///
/// let circuit = generators::counter("c", 2);
/// let text = print_blif(&circuit);
/// let reparsed = parse_blif(&text).unwrap();
/// assert_eq!(reparsed.num_latches(), circuit.num_latches());
/// ```
pub fn print_blif(circuit: &Circuit) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, ".model {}", circuit.name());
    let input_names: Vec<&str> = circuit
        .inputs()
        .iter()
        .map(|&n| circuit.net_name(n))
        .collect();
    if !input_names.is_empty() {
        let _ = writeln!(out, ".inputs {}", input_names.join(" "));
    }
    // A port whose name already names its own net serializes directly;
    // anything else gets an alias cover, reusing the port name when free
    // and minting a `po_` name only on a genuine collision. Direct
    // emission makes parse→print a fixed point instead of stacking one
    // buffer gate per output per round trip.
    let net_names: std::collections::HashSet<&str> = (0..circuit.num_nets())
        .map(|n| circuit.net_name(NetId(n as u32)))
        .collect();
    let mut used: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut port_names: Vec<String> = Vec::with_capacity(circuit.outputs().len());
    let mut aliases: Vec<(String, String)> = Vec::new();
    for port in circuit.outputs() {
        let src = circuit.net_name(port.net).to_owned();
        if port.name == src && used.insert(src.clone()) {
            port_names.push(src);
            continue;
        }
        let alias = if !net_names.contains(port.name.as_str()) && !used.contains(&port.name) {
            port.name.clone()
        } else {
            let mut a = format!("po_{}", port.name);
            while net_names.contains(a.as_str()) || used.contains(&a) {
                a.push('_');
            }
            a
        };
        used.insert(alias.clone());
        aliases.push((src, alias.clone()));
        port_names.push(alias);
    }
    let _ = writeln!(out, ".outputs {}", port_names.join(" "));
    for latch in circuit.latches() {
        let _ = writeln!(
            out,
            ".latch {} {} {}",
            circuit.net_name(latch.input),
            circuit.net_name(latch.output),
            latch.init as u8
        );
    }
    for gate in circuit.gates() {
        let ins: Vec<&str> = gate.inputs.iter().map(|&n| circuit.net_name(n)).collect();
        let name = circuit.net_name(gate.output);
        let _ = writeln!(out, ".names {} {}", ins.join(" "), name);
        write_gate_cover(&mut out, gate.kind, ins.len());
    }
    for (src, alias) in &aliases {
        let _ = writeln!(out, ".names {src} {alias}");
        let _ = writeln!(out, "1 1");
    }
    // Source of each latch input: make sure inputs driven directly by
    // primary inputs or latch outputs are fine (they are nets with names).
    let _ = writeln!(out, ".end");
    // Normalize possible double spaces from empty input lists.
    out.replace(".names  ", ".names ")
}

/// Checks that a circuit survives BLIF serialization: the printed text
/// must re-parse, the re-parsed network must match the original port
/// profile and 16-step behaviour, and one parse→print normalization round
/// must reach a textual fixed point (so repeated round trips can never
/// grow the netlist). Used as an oracle by the fuzzing harness.
///
/// # Errors
///
/// Returns a human-readable description of the first violated property.
pub fn blif_round_trip(circuit: &Circuit) -> Result<(), String> {
    let t1 = print_blif(circuit);
    let reparsed = parse_blif(&t1)
        .map_err(|e| format!("printed BLIF does not re-parse: {e}\n--- text ---\n{t1}"))?;
    if reparsed.num_inputs() != circuit.num_inputs()
        || reparsed.num_latches() != circuit.num_latches()
        || reparsed.num_outputs() != circuit.num_outputs()
    {
        return Err(format!(
            "port profile changed across print→parse: inputs {}→{}, latches {}→{}, outputs {}→{}",
            circuit.num_inputs(),
            reparsed.num_inputs(),
            circuit.num_latches(),
            reparsed.num_latches(),
            circuit.num_outputs(),
            reparsed.num_outputs(),
        ));
    }
    if reparsed.initial_state() != circuit.initial_state() {
        return Err("initial state changed across print→parse".to_owned());
    }
    let mut state_a = circuit.initial_state();
    let mut state_b = reparsed.initial_state();
    for step in 0..16u32 {
        let inputs: Vec<bool> = (0..circuit.num_inputs())
            .map(|i| (step.wrapping_mul(2654435761) >> i) & 1 == 1)
            .collect();
        let (outs_a, next_a) = circuit.simulate(&inputs, &state_a);
        let (outs_b, next_b) = reparsed.simulate(&inputs, &state_b);
        if outs_a != outs_b {
            return Err(format!(
                "outputs diverged at step {step}: {outs_a:?} vs {outs_b:?}\n--- text ---\n{t1}"
            ));
        }
        state_a = next_a;
        state_b = next_b;
    }
    // One normalization round (hand-built circuits may legitimately need
    // it, e.g. renamed output ports), after which the text must be stable.
    let t2 = print_blif(&reparsed);
    let c3 = parse_blif(&t2).map_err(|e| {
        format!("second-generation BLIF does not re-parse: {e}\n--- text ---\n{t2}")
    })?;
    let t3 = print_blif(&c3);
    if t2 != t3 {
        return Err(format!(
            "printer is not a fixed point\n--- round 2 ---\n{t2}\n--- round 3 ---\n{t3}"
        ));
    }
    Ok(())
}

fn write_gate_cover(out: &mut String, kind: GateKind, arity: usize) {
    use std::fmt::Write as _;
    match kind {
        GateKind::And => {
            let _ = writeln!(out, "{} 1", "1".repeat(arity));
        }
        GateKind::Or => {
            for i in 0..arity {
                let mut row = vec!['-'; arity];
                row[i] = '1';
                let _ = writeln!(out, "{} 1", row.iter().collect::<String>());
            }
        }
        GateKind::Nand => {
            for i in 0..arity {
                let mut row = vec!['-'; arity];
                row[i] = '0';
                let _ = writeln!(out, "{} 1", row.iter().collect::<String>());
            }
        }
        GateKind::Nor => {
            let _ = writeln!(out, "{} 1", "0".repeat(arity));
        }
        GateKind::Xor => {
            // All odd-parity rows.
            for bits in 0..(1u32 << arity) {
                if bits.count_ones() % 2 == 1 {
                    let row: String = (0..arity)
                        .map(|i| if bits >> i & 1 == 1 { '1' } else { '0' })
                        .collect();
                    let _ = writeln!(out, "{row} 1");
                }
            }
        }
        GateKind::Xnor => {
            for bits in 0..(1u32 << arity) {
                if bits.count_ones() % 2 == 0 {
                    let row: String = (0..arity)
                        .map(|i| if bits >> i & 1 == 1 { '1' } else { '0' })
                        .collect();
                    let _ = writeln!(out, "{row} 1");
                }
            }
        }
        GateKind::Not => {
            let _ = writeln!(out, "0 1");
        }
        GateKind::Buf => {
            let _ = writeln!(out, "1 1");
        }
        GateKind::Const0 => {
            // Empty cover: constant 0 — nothing to write.
        }
        GateKind::Const1 => {
            let _ = writeln!(out, "1");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::symbolic::{symbolic_matches_simulation, SymbolicFsm};

    #[test]
    fn parse_minimal_model() {
        let src = "\
.model m
.inputs a b
.outputs y
.names a b y
11 1
.end
";
        let c = parse_blif(src).unwrap();
        assert_eq!(c.name(), "m");
        assert_eq!(c.num_inputs(), 2);
        let (outs, _) = c.simulate(&[true, true], &[]);
        assert_eq!(outs, vec![true]);
        let (outs, _) = c.simulate(&[true, false], &[]);
        assert_eq!(outs, vec![false]);
    }

    #[test]
    fn parse_offset_cover() {
        // All rows 0: the off-set interpretation (function is NOT of OR).
        let src = "\
.model m
.inputs a b
.outputs y
.names a b y
11 0
.end
";
        let c = parse_blif(src).unwrap();
        let (outs, _) = c.simulate(&[true, true], &[]);
        assert_eq!(outs, vec![false]);
        let (outs, _) = c.simulate(&[false, true], &[]);
        assert_eq!(outs, vec![true]);
    }

    #[test]
    fn parse_dont_care_pattern() {
        let src = "\
.model m
.inputs a b c
.outputs y
.names a b c y
1-0 1
01- 1
.end
";
        let c = parse_blif(src).unwrap();
        let (outs, _) = c.simulate(&[true, true, false], &[]);
        assert_eq!(outs, vec![true]);
        let (outs, _) = c.simulate(&[false, true, true], &[]);
        assert_eq!(outs, vec![true]);
        let (outs, _) = c.simulate(&[false, false, true], &[]);
        assert_eq!(outs, vec![false]);
    }

    #[test]
    fn parse_constants() {
        let src = "\
.model m
.outputs one zero
.names one
1
.names zero
.end
";
        let c = parse_blif(src).unwrap();
        let (outs, _) = c.simulate(&[], &[]);
        assert_eq!(outs, vec![true, false]);
    }

    #[test]
    fn parse_latch_with_init() {
        let src = "\
.model m
.inputs d
.outputs q
.latch d q 1
.end
";
        let c = parse_blif(src).unwrap();
        assert_eq!(c.initial_state(), vec![true]);
        let (_, next) = c.simulate(&[false], &[true]);
        assert_eq!(next, vec![false]);
    }

    #[test]
    fn parse_out_of_order_names() {
        // y depends on t which is defined after it: topological sort needed.
        let src = "\
.model m
.inputs a
.outputs y
.names t y
1 1
.names a t
0 1
.end
";
        let c = parse_blif(src).unwrap();
        let (outs, _) = c.simulate(&[false], &[]);
        assert_eq!(outs, vec![true]);
    }

    #[test]
    fn reject_cycle() {
        let src = "\
.model m
.inputs a
.outputs y
.names y a t
11 1
.names t a y
11 1
.end
";
        let err = parse_blif(src).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn reject_undefined_signal() {
        let src = "\
.model m
.inputs a
.outputs y
.names ghost y
1 1
.end
";
        let err = parse_blif(src).unwrap_err();
        assert!(err.to_string().contains("undefined"), "{err}");
    }

    #[test]
    fn reject_bad_pattern() {
        let src = "\
.model m
.inputs a
.outputs y
.names a y
2 1
.end
";
        assert!(parse_blif(src).is_err());
    }

    #[test]
    fn reject_duplicate_names_target() {
        let src = "\
.model m
.inputs a b
.outputs y
.names a y
1 1
.names b y
1 1
.end
";
        let err = parse_blif(src).unwrap_err();
        assert!(err.to_string().contains("multiply defined"), "{err}");
        assert_eq!(err.line(), 6);
    }

    #[test]
    fn reject_names_shadowing_input_or_latch() {
        // A .names whose target is a primary input.
        let src = "\
.model m
.inputs a
.outputs y
.names a
1
.names a y
1 1
.end
";
        let err = parse_blif(src).unwrap_err();
        assert!(err.to_string().contains("multiply defined"), "{err}");
        // A .names whose target is a latch output.
        let src = "\
.model m
.inputs d
.outputs q
.latch d q 0
.names d q
1 1
.end
";
        let err = parse_blif(src).unwrap_err();
        assert!(err.to_string().contains("multiply defined"), "{err}");
    }

    #[test]
    fn reject_missing_end() {
        let src = "\
.model m
.inputs a
.outputs y
.names a y
1 1
";
        let err = parse_blif(src).unwrap_err();
        assert!(err.to_string().contains("missing .end"), "{err}");
        assert_eq!(err.line(), 5);
    }

    #[test]
    fn reject_dangling_latch_input() {
        let src = "\
.model m
.inputs a
.outputs q
.latch ghost q 0
.end
";
        let err = parse_blif(src).unwrap_err();
        assert!(err.to_string().contains("latch input"), "{err}");
        assert_eq!(err.line(), 4);
    }

    #[test]
    fn reject_duplicate_latch_output() {
        let src = "\
.model m
.inputs a b
.outputs q
.latch a q 0
.latch b q 0
.end
";
        let err = parse_blif(src).unwrap_err();
        assert!(err.to_string().contains("multiply defined"), "{err}");
        assert_eq!(err.line(), 5);
    }

    #[test]
    fn continuation_lines_and_comments() {
        let src = "\
.model m # a comment
.inputs a \\
b
.outputs y
.names a b y  # and another
11 1
.end
";
        let c = parse_blif(src).unwrap();
        assert_eq!(c.num_inputs(), 2);
    }

    #[test]
    fn canonical_covers_elaborate_to_single_gates() {
        // Each printer-canonical cover shape parses back to exactly one
        // gate named after its target — no fresh `Not`/`Buf` wrappers.
        let cases = [
            (".names a y\n1 1\n", GateKind::Buf),
            (".names a y\n0 1\n", GateKind::Not),
            (".names a b y\n11 1\n", GateKind::And),
            (".names a b y\n1- 1\n-1 1\n", GateKind::Or),
            (".names a b y\n0- 1\n-0 1\n", GateKind::Nand),
            (".names a b y\n00 1\n", GateKind::Nor),
            (".names a b y\n10 1\n01 1\n", GateKind::Xor),
            (".names a b y\n00 1\n11 1\n", GateKind::Xnor),
            (".names y\n1\n", GateKind::Const1),
            (".names y\n", GateKind::Const0),
        ];
        for (cover, kind) in cases {
            let src = format!(".model m\n.inputs a b\n.outputs y\n{cover}.end\n");
            let c = parse_blif(&src).unwrap_or_else(|e| panic!("{cover:?}: {e}"));
            assert_eq!(c.gates().len(), 1, "cover {cover:?} grew extra gates");
            assert_eq!(c.gates()[0].kind, kind, "cover {cover:?}");
            assert_eq!(c.net_name(c.gates()[0].output), "y");
        }
    }

    #[test]
    fn printer_reaches_textual_fixed_point() {
        // Parser-produced circuits are already canonical: one round trip
        // reproduces the text byte for byte.
        let sources = [
            ".model m\n.inputs a b\n.outputs y\n.names a b y\n01 1\n10 1\n.end\n",
            ".model m\n.inputs a b c\n.outputs y\n.names a b c y\n1-0 1\n01- 1\n.end\n",
            ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n",
            ".model m\n.outputs one zero\n.names one\n1\n.names zero\n.end\n",
            ".model m\n.inputs d\n.outputs q\n.latch d q 1\n.end\n",
        ];
        for src in sources {
            let c1 = parse_blif(src).unwrap();
            let t1 = print_blif(&c1);
            let c2 = parse_blif(&t1).unwrap_or_else(|e| panic!("{e}\n{t1}"));
            let t2 = print_blif(&c2);
            assert_eq!(t1, t2, "printer not a fixed point for:\n{src}");
        }
    }

    #[test]
    fn blif_round_trip_accepts_generators() {
        for circuit in [
            generators::counter("c", 3),
            generators::lfsr("l", 4, 0b1001),
            generators::traffic_light(),
            generators::random_fsm("r", 4, 3, 7),
        ] {
            blif_round_trip(&circuit)
                .unwrap_or_else(|e| panic!("{} failed round trip: {e}", circuit.name()));
        }
    }

    #[test]
    fn output_port_collisions_get_fresh_aliases() {
        // Two ports with the same name, one of them renamed from its net:
        // the printer must keep every emitted name unique and still
        // round-trip behaviour.
        let mut b = CircuitBuilder::new("m");
        let a = b.input("a");
        let g = b.gate_named("g", GateKind::Not, &[a]);
        b.output("g", g); // direct: port name == net name
        b.output("a", g); // collides with the input net name
        b.output("a", a); // duplicate port name, different net
        let c = b.build();
        blif_round_trip(&c).unwrap_or_else(|e| panic!("{e}"));
        let text = print_blif(&c);
        let reparsed = parse_blif(&text).unwrap();
        assert_eq!(reparsed.num_outputs(), 3);
    }

    #[test]
    fn round_trip_preserves_behaviour() {
        for circuit in [
            generators::counter("c", 3),
            generators::lfsr("l", 4, 0b1001),
            generators::traffic_light(),
            generators::random_fsm("r", 4, 3, 7),
        ] {
            let text = print_blif(&circuit);
            let reparsed = parse_blif(&text)
                .unwrap_or_else(|e| panic!("reparse of {} failed: {e}\n{text}", circuit.name()));
            assert_eq!(reparsed.num_inputs(), circuit.num_inputs());
            assert_eq!(reparsed.num_latches(), circuit.num_latches());
            assert_eq!(reparsed.num_outputs(), circuit.num_outputs());
            // Behavioural equivalence on random stimulus.
            let fsm_a = SymbolicFsm::new(&circuit);
            let fsm_b = SymbolicFsm::new(&reparsed);
            let mut state = circuit.initial_state();
            let mut state_b = reparsed.initial_state();
            assert_eq!(state, state_b);
            for step in 0..16u32 {
                let inputs: Vec<bool> = (0..circuit.num_inputs())
                    .map(|i| (step.wrapping_mul(2654435761) >> i) & 1 == 1)
                    .collect();
                assert!(symbolic_matches_simulation(
                    &circuit, &fsm_a, &inputs, &state
                ));
                assert!(symbolic_matches_simulation(
                    &reparsed, &fsm_b, &inputs, &state_b
                ));
                let (oa, na) = circuit.simulate(&inputs, &state);
                let (ob, nb) = reparsed.simulate(&inputs, &state_b);
                assert_eq!(oa, ob, "outputs diverged on {}", circuit.name());
                state = na;
                state_b = nb;
            }
        }
    }
}
