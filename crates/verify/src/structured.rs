//! Structured grammar generators for every input surface.
//!
//! The classic fuzzer ([`crate::gen`]) draws leaf-table ISF instances.
//! This module generalizes it into a typed generator family: anything
//! implementing [`Generate`] can be drawn from the deterministic
//! [`XorShift64`] stream, and anything implementing [`Mutate`] can be
//! perturbed or spliced with another value of the same type — the two
//! operations the corpus-mutation and splicing arms of the scheduler
//! (see [`crate::sched`]) are built on. Both traits are in-tree: no
//! derive macros, no external fuzzing framework, every draw pinned by
//! `(seed, round)`.
//!
//! Four surfaces are covered beyond the classic instance sweep:
//!
//! * [`Instance`] — the existing leaf-table ISF, plus a *dense* variant
//!   at larger variable counts than the classic sweep visits,
//! * [`BlifProgram`] — a structured BLIF netlist fed to the fsm parser;
//!   mostly valid, with a controlled anomaly rate so error paths and
//!   the accept path both stay under fire,
//! * [`ExprInput`] — an expression AST rendered to the `Bdd::from_expr`
//!   grammar, with an optional single-byte mangle for lexer coverage,
//! * [`ArgVec`] — a CLI argument vector driven through the library
//!   entry point (`bddmin_cli::run_sandboxed`), no subprocess needed.
//!
//! Each surface renders to the *real* textual input its parser
//! consumes, so a failure reproduces outside the harness by pasting the
//! rendered text.

use bddmin_core::rng::XorShift64;

use crate::gen::{ChaosPlan, Instance};

/// Draws a fresh value from the deterministic stream. `round` selects
/// the structural class (size, shape, anomaly budget) while `rng` fills
/// in content, mirroring [`crate::gen::random_instance`]'s contract: a
/// `(seed, round)` pair pins the value exactly.
pub trait Generate {
    /// Generates the next value of the sweep.
    fn generate(rng: &mut XorShift64, round: u64) -> Self;
}

/// Structure-aware perturbation: the corpus-mutation and splicing arms.
pub trait Mutate: Clone {
    /// Applies one random structural edit.
    fn mutate(&self, rng: &mut XorShift64) -> Self;

    /// Crosses `self` with `other`, keeping a prefix of one and a
    /// suffix of the other (surface-specific notion of "prefix").
    fn splice(&self, other: &Self, rng: &mut XorShift64) -> Self;
}

// ---------------------------------------------------------------------
// Instance: the classic surface, plus a dense high-arity variant.
// ---------------------------------------------------------------------

impl Generate for Instance {
    fn generate(rng: &mut XorShift64, round: u64) -> Instance {
        crate::gen::random_instance(rng, round)
    }
}

/// Draws a *dense* instance: more variables than the classic sweep
/// (up to 7) and a nearly fully specified leaf table, the regime where
/// the level passes do real work.
pub fn dense_instance(rng: &mut XorShift64, round: u64) -> Instance {
    const NVARS_SWEEP: [usize; 5] = [4, 5, 6, 7, 5];
    let num_vars = NVARS_SWEEP[(round % NVARS_SWEEP.len() as u64) as usize];
    let n_leaves = 1usize << num_vars;
    let mut leaves: Vec<Option<bool>> = Vec::with_capacity(n_leaves);
    for _ in 0..n_leaves {
        leaves.push(rng.gen_bool(0.97).then(|| rng.gen_bool(0.5)));
    }
    if leaves.iter().all(Option::is_none) {
        let at = rng.gen_range(0..n_leaves);
        leaves[at] = Some(rng.gen_bool(0.5));
    }
    let chaos = ChaosPlan {
        flush_between: rng.gen_bool(0.3),
        gc_between: rng.gen_bool(0.3),
        step_budget: rng.gen_bool(0.2).then(|| rng.gen_range(1..256) as u64),
        node_budget: rng.gen_bool(0.2).then(|| rng.gen_range(8..128)),
        reorder_between: rng.gen_bool(0.25),
    };
    Instance::new(leaves, chaos)
}

impl Mutate for Instance {
    fn mutate(&self, rng: &mut XorShift64) -> Instance {
        let mut leaves = self.leaves.clone();
        let mut chaos = self.chaos;
        match rng.gen_range(0..6) {
            0 => {
                // Toggle one chaos axis.
                match rng.gen_range(0..5) {
                    0 => chaos.flush_between = !chaos.flush_between,
                    1 => chaos.gc_between = !chaos.gc_between,
                    2 => {
                        chaos.step_budget = match chaos.step_budget {
                            Some(_) => None,
                            None => Some(rng.gen_range(1..64) as u64),
                        }
                    }
                    3 => {
                        chaos.node_budget = match chaos.node_budget {
                            Some(_) => None,
                            None => Some(rng.gen_range(1..48)),
                        }
                    }
                    _ => chaos.reorder_between = !chaos.reorder_between,
                }
            }
            1 => {
                let at = rng.gen_range(0..leaves.len());
                leaves[at] = None;
            }
            2 => {
                let at = rng.gen_range(0..leaves.len());
                leaves[at] = Some(rng.gen_bool(0.5));
            }
            3 => leaves.rotate_right(1),
            4 if leaves.len() < 64 => {
                // Duplicate the table: one extra variable whose value is
                // irrelevant to the function.
                leaves.extend_from_within(..);
            }
            _ if leaves.len() > 2 => {
                // Keep one cofactor: drop the top variable.
                let keep = rng.gen_bool(0.5);
                let half = leaves.len() / 2;
                leaves = if keep {
                    leaves[half..].to_vec()
                } else {
                    leaves[..half].to_vec()
                };
            }
            _ => {
                let at = rng.gen_range(0..leaves.len());
                leaves[at] = Some(rng.gen_bool(0.5));
            }
        }
        Instance::new(leaves, chaos)
    }

    fn splice(&self, other: &Instance, rng: &mut XorShift64) -> Instance {
        // Tile both tables to the larger length, then cross at a random
        // point; the result stays a power-of-two leaf table.
        let len = self.leaves.len().max(other.leaves.len());
        let cross = rng.gen_range(0..len + 1);
        let leaves: Vec<Option<bool>> = (0..len)
            .map(|i| {
                if i < cross {
                    self.leaves[i % self.leaves.len()]
                } else {
                    other.leaves[i % other.leaves.len()]
                }
            })
            .collect();
        Instance::new(leaves, self.chaos)
    }
}

// ---------------------------------------------------------------------
// BLIF netlists.
// ---------------------------------------------------------------------

/// One PLA cover row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlifRow {
    /// Pattern characters (normally `0`/`1`/`-`).
    pub pattern: String,
    /// Output value of the row.
    pub value: bool,
}

/// One `.names` node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlifNames {
    /// Fan-in signal names.
    pub inputs: Vec<String>,
    /// Target signal name.
    pub output: String,
    /// Cover rows.
    pub rows: Vec<BlifRow>,
}

/// One `.latch` declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlifLatch {
    /// Data input signal.
    pub input: String,
    /// State output signal.
    pub output: String,
    /// Raw init token (0–3 are valid BLIF; anything else is an
    /// intentional anomaly).
    pub init: u8,
}

/// A structured BLIF netlist. Rendered with [`BlifProgram::render`] and
/// fed to `bddmin_fsm::parse_blif`; *mostly* well formed, with a small
/// anomaly budget so the parser's error paths stay exercised.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlifProgram {
    /// Model name.
    pub name: String,
    /// Primary inputs.
    pub inputs: Vec<String>,
    /// Primary outputs.
    pub outputs: Vec<String>,
    /// Latches.
    pub latches: Vec<BlifLatch>,
    /// Logic nodes.
    pub names: Vec<BlifNames>,
    /// Whether the closing `.end` is present.
    pub end: bool,
}

impl BlifProgram {
    /// Renders the netlist as BLIF text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, ".model {}", self.name);
        if !self.inputs.is_empty() {
            let _ = writeln!(out, ".inputs {}", self.inputs.join(" "));
        }
        if !self.outputs.is_empty() {
            let _ = writeln!(out, ".outputs {}", self.outputs.join(" "));
        }
        for latch in &self.latches {
            let _ = writeln!(
                out,
                ".latch {} {} {}",
                latch.input, latch.output, latch.init
            );
        }
        for node in &self.names {
            if node.inputs.is_empty() {
                let _ = writeln!(out, ".names {}", node.output);
            } else {
                let _ = writeln!(out, ".names {} {}", node.inputs.join(" "), node.output);
            }
            for row in &node.rows {
                if node.inputs.is_empty() {
                    let _ = writeln!(out, "{}", u8::from(row.value));
                } else {
                    let _ = writeln!(out, "{} {}", row.pattern, u8::from(row.value));
                }
            }
        }
        if self.end {
            out.push_str(".end\n");
        }
        out
    }
}

/// Signal-name pool the BLIF generator draws from.
const BLIF_SIGNALS: [&str; 10] = ["a", "b", "c", "d", "s0", "s1", "t0", "t1", "t2", "t3"];

fn random_pattern(rng: &mut XorShift64, arity: usize, anomalous: bool) -> String {
    (0..arity)
        .map(|_| {
            if anomalous && rng.gen_bool(0.2) {
                // Invalid pattern character.
                ['2', 'x', '*'][rng.gen_range(0..3)]
            } else {
                ['0', '1', '-'][rng.gen_range(0..3)]
            }
        })
        .collect()
}

impl Generate for BlifProgram {
    fn generate(rng: &mut XorShift64, round: u64) -> BlifProgram {
        // Every seventh netlist carries an anomaly so the parser's
        // rejection paths are in steady rotation without drowning the
        // accept path.
        let anomalous = round % 7 == 6;
        let num_inputs = rng.gen_range(1..5);
        let num_latches = rng.gen_range(0..3);
        let num_nodes = rng.gen_range(1..6);
        let inputs: Vec<String> = BLIF_SIGNALS[..num_inputs]
            .iter()
            .map(|s| s.to_string())
            .collect();
        // Signals defined so far; .names fan-ins are drawn from this set
        // (so the clean netlists are acyclic by construction).
        let mut defined: Vec<String> = inputs.clone();
        let mut latches = Vec::with_capacity(num_latches);
        for l in 0..num_latches {
            let output = format!("s{l}");
            let init = if anomalous && rng.gen_bool(0.3) {
                7 // invalid init token
            } else {
                u8::from(rng.gen_bool(0.5))
            };
            latches.push(BlifLatch {
                // Patched below once logic signals exist.
                input: String::new(),
                output: output.clone(),
                init,
            });
            defined.push(output);
        }
        let mut names = Vec::with_capacity(num_nodes);
        for n in 0..num_nodes {
            let output = format!("t{n}");
            let arity = rng.gen_range(1..4).min(defined.len());
            let mut node_inputs: Vec<String> = (0..arity)
                .map(|_| defined[rng.gen_range(0..defined.len())].clone())
                .collect();
            if anomalous && rng.gen_bool(0.25) {
                // Reference a signal nothing defines.
                node_inputs[0] = "ghost".to_owned();
            }
            let num_rows = rng.gen_range(0..4);
            let rows: Vec<BlifRow> = (0..num_rows)
                .map(|_| BlifRow {
                    pattern: random_pattern(rng, arity, anomalous),
                    value: rng.gen_bool(0.8),
                })
                .collect();
            names.push(BlifNames {
                inputs: node_inputs,
                output: output.clone(),
                rows,
            });
            defined.push(output);
        }
        if anomalous && rng.gen_bool(0.3) && names.len() >= 2 {
            // Multiply defined target.
            let dup = names[0].clone();
            names.push(dup);
        }
        // Latch data inputs: any defined signal (logic outputs allowed).
        for latch in &mut latches {
            latch.input = defined[rng.gen_range(0..defined.len())].clone();
        }
        // Outputs: a non-empty subset of defined signals.
        let num_outputs = rng.gen_range(1..3.min(defined.len()) + 1);
        let outputs: Vec<String> = (0..num_outputs)
            .map(|_| defined[rng.gen_range(0..defined.len())].clone())
            .collect();
        BlifProgram {
            name: format!("fuzz{}", round % 97),
            inputs,
            outputs,
            latches,
            names,
            end: !(anomalous && rng.gen_bool(0.2)),
        }
    }
}

impl Mutate for BlifProgram {
    fn mutate(&self, rng: &mut XorShift64) -> BlifProgram {
        let mut p = self.clone();
        match rng.gen_range(0..6) {
            0 => p.end = !p.end,
            1 if !p.names.is_empty() => {
                let at = rng.gen_range(0..p.names.len());
                p.names.remove(at);
            }
            2 if !p.names.is_empty() => {
                // Duplicate a node (drives the multiply-defined path).
                let at = rng.gen_range(0..p.names.len());
                let dup = p.names[at].clone();
                p.names.push(dup);
            }
            3 if !p.names.is_empty() => {
                let node = &mut p.names[rng.gen_range(0..self.names.len())];
                if let Some(row) = node.rows.first_mut() {
                    if !row.pattern.is_empty() {
                        let i = rng.gen_range(0..row.pattern.len());
                        let c = ['0', '1', '-', 'x'][rng.gen_range(0..4)];
                        row.pattern.replace_range(i..i + 1, &c.to_string());
                    } else {
                        row.value = !row.value;
                    }
                } else {
                    node.rows.push(BlifRow {
                        pattern: "-".repeat(node.inputs.len()),
                        value: true,
                    });
                }
            }
            4 if !p.latches.is_empty() => {
                let latch = &mut p.latches[rng.gen_range(0..self.latches.len())];
                latch.init = if latch.init == 0 { 1 } else { 0 };
            }
            _ => {
                // Retarget an output port to a (possibly ghost) signal.
                let pool = ["a", "t0", "ghost", "s0"];
                let name = pool[rng.gen_range(0..pool.len())].to_owned();
                if p.outputs.is_empty() {
                    p.outputs.push(name);
                } else {
                    let at = rng.gen_range(0..p.outputs.len());
                    p.outputs[at] = name;
                }
            }
        }
        p
    }

    fn splice(&self, other: &BlifProgram, rng: &mut XorShift64) -> BlifProgram {
        // Header from self, logic crossed at a node boundary.
        let keep = rng.gen_range(0..self.names.len() + 1);
        let take = rng.gen_range(0..other.names.len() + 1);
        let mut names: Vec<BlifNames> = self.names[..keep].to_vec();
        names.extend(other.names[other.names.len() - take..].iter().cloned());
        BlifProgram {
            name: self.name.clone(),
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
            latches: self.latches.clone(),
            names,
            end: self.end && other.end,
        }
    }
}

// ---------------------------------------------------------------------
// Expression strings.
// ---------------------------------------------------------------------

/// Binary operators of the `Bdd::from_expr` grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExprOp {
    /// Conjunction `&`.
    And,
    /// Disjunction `|`.
    Or,
    /// Exclusive or `^`.
    Xor,
    /// Implication `->`.
    Imp,
    /// Equivalence `<->`.
    Iff,
}

impl ExprOp {
    fn token(self) -> &'static str {
        match self {
            ExprOp::And => "&",
            ExprOp::Or => "|",
            ExprOp::Xor => "^",
            ExprOp::Imp => "->",
            ExprOp::Iff => "<->",
        }
    }

    fn apply(self, l: bool, r: bool) -> bool {
        match self {
            ExprOp::And => l && r,
            ExprOp::Or => l || r,
            ExprOp::Xor => l != r,
            ExprOp::Imp => !l || r,
            ExprOp::Iff => l == r,
        }
    }
}

/// An expression AST; renders fully parenthesized so the printed text
/// is unambiguous regardless of precedence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExprTree {
    /// Constant `0` or `1`.
    Const(bool),
    /// Variable by index into the instance's variable list.
    Var(usize),
    /// Negation.
    Not(Box<ExprTree>),
    /// Binary operator application.
    Bin(ExprOp, Box<ExprTree>, Box<ExprTree>),
}

impl ExprTree {
    /// AST size; `Var` counts 2 so replacing a variable by a constant is
    /// a strictly decreasing shrink step.
    pub fn size(&self) -> usize {
        match self {
            ExprTree::Const(_) => 1,
            ExprTree::Var(_) => 2,
            ExprTree::Not(c) => 1 + c.size(),
            ExprTree::Bin(_, l, r) => 1 + l.size() + r.size(),
        }
    }

    /// Renders to the `from_expr` grammar using `names` for variables.
    pub fn render(&self, names: &[&str]) -> String {
        match self {
            ExprTree::Const(b) => if *b { "1" } else { "0" }.to_owned(),
            ExprTree::Var(i) => names[i % names.len()].to_owned(),
            ExprTree::Not(c) => format!("!({})", c.render(names)),
            ExprTree::Bin(op, l, r) => {
                format!("({} {} {})", l.render(names), op.token(), r.render(names))
            }
        }
    }

    /// Direct evaluation under an assignment — the differential
    /// reference the BDD build is checked against.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        match self {
            ExprTree::Const(b) => *b,
            ExprTree::Var(i) => assignment[i % assignment.len()],
            ExprTree::Not(c) => !c.eval(assignment),
            ExprTree::Bin(op, l, r) => op.apply(l.eval(assignment), r.eval(assignment)),
        }
    }

    fn random(rng: &mut XorShift64, num_vars: usize, depth: usize) -> ExprTree {
        if depth == 0 || rng.gen_bool(0.2) {
            return if rng.gen_bool(0.15) {
                ExprTree::Const(rng.gen_bool(0.5))
            } else {
                ExprTree::Var(rng.gen_range(0..num_vars))
            };
        }
        if rng.gen_bool(0.25) {
            return ExprTree::Not(Box::new(ExprTree::random(rng, num_vars, depth - 1)));
        }
        let op = [
            ExprOp::And,
            ExprOp::Or,
            ExprOp::Xor,
            ExprOp::Imp,
            ExprOp::Iff,
        ][rng.gen_range(0..5)];
        ExprTree::Bin(
            op,
            Box::new(ExprTree::random(rng, num_vars, depth - 1)),
            Box::new(ExprTree::random(rng, num_vars, depth - 1)),
        )
    }

    /// All single-step reductions of the tree, each strictly smaller
    /// under [`ExprTree::size`]: an internal node collapses to one of
    /// its children, a variable collapses to a constant.
    pub fn reductions(&self) -> Vec<ExprTree> {
        match self {
            ExprTree::Const(_) => Vec::new(),
            ExprTree::Var(_) => vec![ExprTree::Const(false), ExprTree::Const(true)],
            ExprTree::Not(c) => {
                let mut out = vec![(**c).clone()];
                out.extend(
                    c.reductions()
                        .into_iter()
                        .map(|r| ExprTree::Not(Box::new(r))),
                );
                out
            }
            ExprTree::Bin(op, l, r) => {
                let mut out = vec![(**l).clone(), (**r).clone()];
                out.extend(
                    l.reductions()
                        .into_iter()
                        .map(|n| ExprTree::Bin(*op, Box::new(n), r.clone())),
                );
                out.extend(
                    r.reductions()
                        .into_iter()
                        .map(|n| ExprTree::Bin(*op, l.clone(), Box::new(n))),
                );
                out
            }
        }
    }

    fn node_count(&self) -> usize {
        match self {
            ExprTree::Const(_) | ExprTree::Var(_) => 1,
            ExprTree::Not(c) => 1 + c.node_count(),
            ExprTree::Bin(_, l, r) => 1 + l.node_count() + r.node_count(),
        }
    }

    /// Replaces the `target`-th node (preorder) with `sub`; `counter`
    /// threads the preorder index.
    fn replace_at(&self, target: usize, sub: &ExprTree, counter: &mut usize) -> ExprTree {
        let here = *counter;
        *counter += 1;
        if here == target {
            return sub.clone();
        }
        match self {
            ExprTree::Const(_) | ExprTree::Var(_) => self.clone(),
            ExprTree::Not(c) => ExprTree::Not(Box::new(c.replace_at(target, sub, counter))),
            ExprTree::Bin(op, l, r) => {
                let l = l.replace_at(target, sub, counter);
                // Preorder index already advanced through the left side.
                ExprTree::Bin(
                    *op,
                    Box::new(l),
                    Box::new(r.replace_at(target, sub, counter)),
                )
            }
        }
    }

    /// The `target`-th node (preorder) as a subtree.
    fn subtree_at(&self, target: usize, counter: &mut usize) -> Option<ExprTree> {
        let here = *counter;
        *counter += 1;
        if here == target {
            return Some(self.clone());
        }
        match self {
            ExprTree::Const(_) | ExprTree::Var(_) => None,
            ExprTree::Not(c) => c.subtree_at(target, counter),
            ExprTree::Bin(_, l, r) => l
                .subtree_at(target, counter)
                .or_else(|| r.subtree_at(target, counter)),
        }
    }
}

/// Variable names the expression surface uses; also the `--vars` list
/// when an [`ArgVec`] embeds an expression.
pub const EXPR_VARS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

/// Printable bytes the single-byte mangle draws from: enough to hit
/// every lexer class (operators, parens, digits, idents, junk) without
/// ever producing invalid UTF-8.
const MANGLE_POOL: &[u8] = b"!&|^()01xz> <-~+*azZ_.";

/// A structured expression-surface input: function and care ASTs plus
/// an optional single-byte mangle of the rendered function text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExprInput {
    /// Number of variables in play (1–6).
    pub vars: usize,
    /// The function AST.
    pub function: ExprTree,
    /// The care AST.
    pub care: ExprTree,
    /// When set, byte `pos % len` of the rendered function text is
    /// replaced with the pool byte `pick % pool_len` before parsing —
    /// the result may be syntactically invalid, which is the point: the
    /// parser must reject it gracefully, never panic.
    pub mangle: Option<(usize, u8)>,
}

impl ExprInput {
    /// Variable names for this input.
    pub fn var_names(&self) -> Vec<&'static str> {
        EXPR_VARS[..self.vars].to_vec()
    }

    /// The function text actually fed to the parser (mangle applied).
    pub fn function_text(&self) -> String {
        let mut text = self.function.render(&self.var_names());
        if let Some((pos, pick)) = self.mangle {
            let at = pos % text.len();
            let b = MANGLE_POOL[pick as usize % MANGLE_POOL.len()];
            // Rendered text is pure ASCII, so byte surgery is safe.
            text.replace_range(at..at + 1, &(b as char).to_string());
        }
        text
    }

    /// The care text (never mangled: one broken input per instance).
    pub fn care_text(&self) -> String {
        self.care.render(&self.var_names())
    }
}

impl Generate for ExprInput {
    fn generate(rng: &mut XorShift64, round: u64) -> ExprInput {
        let vars = 1 + (round % 6) as usize;
        let depth = 2 + (round % 4) as usize;
        ExprInput {
            vars,
            function: ExprTree::random(rng, vars, depth),
            care: ExprTree::random(rng, vars, depth.saturating_sub(1).max(1)),
            // Every fifth input is mangled.
            mangle: (round % 5 == 4).then(|| (rng.gen_range(0..4096), rng.gen_range(0..256) as u8)),
        }
    }
}

impl Mutate for ExprInput {
    fn mutate(&self, rng: &mut XorShift64) -> ExprInput {
        let mut p = self.clone();
        match rng.gen_range(0..4) {
            0 => {
                let total = p.function.node_count();
                let target = rng.gen_range(0..total);
                let sub = ExprTree::random(rng, p.vars, 2);
                p.function = p.function.replace_at(target, &sub, &mut 0);
            }
            1 => {
                let total = p.care.node_count();
                let target = rng.gen_range(0..total);
                let sub = ExprTree::random(rng, p.vars, 1);
                p.care = p.care.replace_at(target, &sub, &mut 0);
            }
            2 => {
                p.mangle = match p.mangle {
                    Some(_) => None,
                    None => Some((rng.gen_range(0..4096), rng.gen_range(0..256) as u8)),
                };
            }
            _ => p.vars = 1 + rng.gen_range(0..6),
        }
        p
    }

    fn splice(&self, other: &ExprInput, rng: &mut XorShift64) -> ExprInput {
        // Graft a random subtree of the other's function into self.
        let mut p = self.clone();
        let donor_total = other.function.node_count();
        let sub = other
            .function
            .subtree_at(rng.gen_range(0..donor_total), &mut 0)
            .unwrap_or_else(|| other.function.clone());
        let target = rng.gen_range(0..p.function.node_count());
        p.function = p.function.replace_at(target, &sub, &mut 0);
        p
    }
}

// ---------------------------------------------------------------------
// CLI argument vectors.
// ---------------------------------------------------------------------

/// A CLI argument vector driven through the in-process entry point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgVec {
    /// The argument tokens (what `std::env::args().skip(1)` would hold).
    pub args: Vec<String>,
    /// True when generation built a vector the CLI grammar must accept;
    /// mutation and splicing clear it (their edits may or may not stay
    /// grammatical, and only generation-time validity is a contract).
    pub expect_valid: bool,
}

/// Heuristic names the argument generator rotates through (including a
/// glob, which the CLI expands).
const ARG_HEURISTICS: [&str; 5] = ["osm_td", "osm_bt", "restr", "sched", "osm_*"];

fn random_spec_string(rng: &mut XorShift64) -> String {
    let num_vars = rng.gen_range(1..4);
    let n_leaves = 1usize << num_vars;
    let mut s = String::new();
    for i in 0..n_leaves {
        if i > 0 && i % 2 == 0 {
            s.push(' ');
        }
        s.push(['0', '1', 'd'][rng.gen_range(0..3)]);
    }
    // At least one care leaf (the CLI rejects all-don't-care specs).
    if !s.contains('0') && !s.contains('1') {
        s.replace_range(0..1, "1");
    }
    s
}

impl Generate for ArgVec {
    fn generate(rng: &mut XorShift64, round: u64) -> ArgVec {
        let mut args: Vec<String> = Vec::new();
        // Alternate spec and expr commands; every sixth vector carries a
        // deliberate grammar violation.
        let invalid = round % 6 == 5;
        if round.is_multiple_of(2) {
            args.push("spec".to_owned());
            args.push(random_spec_string(rng));
            if rng.gen_bool(0.5) {
                args.push("--heuristic".to_owned());
                args.push(ARG_HEURISTICS[rng.gen_range(0..ARG_HEURISTICS.len())].to_owned());
            }
            if rng.gen_bool(0.3) {
                args.push("--exact".to_owned());
            }
            if rng.gen_bool(0.3) {
                args.push("--isop".to_owned());
            }
            if rng.gen_bool(0.2) {
                args.push("--dot".to_owned());
            }
        } else {
            let vars = 1 + rng.gen_range(0..4);
            let names: Vec<&str> = EXPR_VARS[..vars].to_vec();
            let function = ExprTree::random(rng, vars, 3).render(&names);
            let care = ExprTree::random(rng, vars, 2).render(&names);
            args.extend(
                [
                    "expr",
                    "--vars",
                    &names.join(","),
                    "--function",
                    &function,
                    "--care",
                    &care,
                ]
                .map(str::to_owned),
            );
            if rng.gen_bool(0.4) {
                args.push("-H".to_owned());
                args.push(ARG_HEURISTICS[rng.gen_range(0..ARG_HEURISTICS.len())].to_owned());
            }
        }
        // Shared kernel flags. `--time-limit` is deliberately absent:
        // wall-clock budgets would break the determinism double-run.
        if rng.gen_bool(0.3) {
            args.push("--step-limit".to_owned());
            args.push(format!("{}", rng.gen_range(1..2000)));
        }
        if rng.gen_bool(0.3) {
            args.push("--node-limit".to_owned());
            args.push(format!("{}", rng.gen_range(8..512)));
        }
        if rng.gen_bool(0.25) {
            args.push("--reorder".to_owned());
            args.push(["sift", "group", "none"][rng.gen_range(0..3)].to_owned());
        }
        if invalid {
            match rng.gen_range(0..4) {
                0 => args.push("--bogus-flag".to_owned()),
                1 => {
                    args.push("--heuristic".to_owned());
                    args.push("no_such_heuristic".to_owned());
                }
                2 => args.push("--step-limit".to_owned()), // missing value
                _ => {
                    // Malformed spec characters.
                    args = vec!["spec".to_owned(), "dq 0$".to_owned()];
                }
            }
        }
        ArgVec {
            args,
            expect_valid: !invalid,
        }
    }
}

impl Mutate for ArgVec {
    fn mutate(&self, rng: &mut XorShift64) -> ArgVec {
        let mut args = self.args.clone();
        match rng.gen_range(0..4) {
            0 if !args.is_empty() => {
                let at = rng.gen_range(0..args.len());
                args.remove(at);
            }
            1 if !args.is_empty() => {
                let at = rng.gen_range(0..args.len());
                let dup = args[at].clone();
                args.insert(at, dup);
            }
            2 if args.len() >= 2 => {
                let a = rng.gen_range(0..args.len());
                let b = rng.gen_range(0..args.len());
                args.swap(a, b);
            }
            _ => args.push(["--dot", "--isop", "-H", "junk"][rng.gen_range(0..4)].to_owned()),
        }
        ArgVec {
            args,
            expect_valid: false,
        }
    }

    fn splice(&self, other: &ArgVec, rng: &mut XorShift64) -> ArgVec {
        let keep = rng.gen_range(0..self.args.len() + 1);
        let take = rng.gen_range(0..other.args.len() + 1);
        let mut args: Vec<String> = self.args[..keep].to_vec();
        args.extend(other.args[other.args.len() - take..].iter().cloned());
        ArgVec {
            args,
            expect_valid: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> XorShift64 {
        XorShift64::seed_from_u64(seed)
    }

    #[test]
    fn generation_is_deterministic_per_surface() {
        for round in 0..24 {
            assert_eq!(
                Instance::generate(&mut rng(3), round),
                Instance::generate(&mut rng(3), round)
            );
            assert_eq!(
                BlifProgram::generate(&mut rng(3), round),
                BlifProgram::generate(&mut rng(3), round)
            );
            assert_eq!(
                ExprInput::generate(&mut rng(3), round),
                ExprInput::generate(&mut rng(3), round)
            );
            assert_eq!(
                ArgVec::generate(&mut rng(3), round),
                ArgVec::generate(&mut rng(3), round)
            );
        }
    }

    #[test]
    fn mutate_and_splice_are_deterministic() {
        let a = BlifProgram::generate(&mut rng(1), 0);
        let b = BlifProgram::generate(&mut rng(2), 1);
        assert_eq!(a.mutate(&mut rng(9)), a.mutate(&mut rng(9)));
        assert_eq!(a.splice(&b, &mut rng(9)), a.splice(&b, &mut rng(9)));
        let e = ExprInput::generate(&mut rng(1), 2);
        let f = ExprInput::generate(&mut rng(2), 3);
        assert_eq!(e.mutate(&mut rng(9)), e.mutate(&mut rng(9)));
        assert_eq!(e.splice(&f, &mut rng(9)), e.splice(&f, &mut rng(9)));
    }

    #[test]
    fn instance_mutations_stay_well_formed() {
        let mut r = rng(5);
        let mut inst = Instance::generate(&mut r, 0);
        for _ in 0..200 {
            inst = inst.mutate(&mut r);
            assert!(inst.leaves.len().is_power_of_two());
            assert!(!inst.leaves.is_empty());
        }
    }

    #[test]
    fn instance_splice_tiles_to_power_of_two() {
        let mut r = rng(6);
        let a = Instance::generate(&mut r, 4); // 4 vars
        let b = Instance::generate(&mut r, 0); // 2 vars
        for _ in 0..50 {
            let s = a.splice(&b, &mut r);
            assert!(s.leaves.len().is_power_of_two());
            assert_eq!(s.leaves.len(), a.leaves.len().max(b.leaves.len()));
        }
    }

    #[test]
    fn dense_instances_reach_seven_variables() {
        let mut r = rng(7);
        let mut seen = std::collections::HashSet::new();
        for round in 0..20 {
            seen.insert(dense_instance(&mut r, round).num_vars());
        }
        assert!(seen.contains(&7), "vars seen: {seen:?}");
    }

    #[test]
    fn expr_render_parses_and_eval_matches() {
        use bddmin_bdd::Bdd;
        let mut r = rng(11);
        for round in 0..40 {
            let mut input = ExprInput::generate(&mut r, round);
            input.mangle = None;
            let names = input.var_names();
            let mut bdd = Bdd::with_names(&names);
            let f = bdd
                .from_expr(&input.function_text())
                .unwrap_or_else(|e| panic!("{}: {e}", input.function_text()));
            for bits in 0..1u32 << input.vars {
                let assignment: Vec<bool> = (0..input.vars).map(|i| bits >> i & 1 == 1).collect();
                assert_eq!(
                    bdd.eval(f, &assignment),
                    input.function.eval(&assignment),
                    "mismatch on {} at {assignment:?}",
                    input.function_text()
                );
            }
        }
    }

    #[test]
    fn mangled_expr_text_stays_ascii_and_in_bounds() {
        let mut r = rng(13);
        for round in 0..60 {
            let input = ExprInput::generate(&mut r, round);
            let text = input.function_text();
            assert!(text.is_ascii());
            assert!(!text.is_empty());
        }
    }

    #[test]
    fn blif_render_parses_for_clean_rounds() {
        let mut r = rng(17);
        let mut accepted = 0;
        for round in 0..70 {
            let p = BlifProgram::generate(&mut r, round);
            if bddmin_fsm::parse_blif(&p.render()).is_ok() {
                accepted += 1;
            }
        }
        // Mostly-valid generation: the accept path must dominate.
        assert!(accepted >= 35, "only {accepted}/70 netlists parsed");
    }

    #[test]
    fn anomalous_blif_rounds_are_rejected_not_panicking() {
        let mut r = rng(19);
        let mut rejected = 0;
        for round in 0..140 {
            let p = BlifProgram::generate(&mut r, round);
            if bddmin_fsm::parse_blif(&p.render()).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "anomaly injection never produced a reject");
    }

    #[test]
    fn generated_valid_arg_vectors_run() {
        let mut r = rng(23);
        for round in 0..30 {
            let v = ArgVec::generate(&mut r, round);
            let result = bddmin_cli::run_sandboxed(&v.args);
            if v.expect_valid {
                assert!(result.is_ok(), "{:?}: {result:?}", v.args);
            }
        }
    }
}
