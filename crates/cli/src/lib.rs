//! # bddmin-cli
//!
//! Library backing the `bddmin` command-line tool. The heavy lifting is a
//! pure function [`run`] from parsed arguments to a report string, so the
//! whole tool is unit-testable without spawning processes.
//!
//! ```text
//! bddmin spec "d1 01 1d 01" [--heuristic FILTER] [--exact] [--isop] [--dot]
//! bddmin expr --vars a,b,c --function "(a&b)|c" --care "a|b" [--heuristic ...]
//! bddmin verify left.blif right.blif [--heuristic NAME]
//! bddmin simplify circuit.blif [--heuristic NAME]
//! bddmin bench
//! ```

use std::fmt::Write as _;

use bddmin_bdd::{Bdd, Edge, ReorderMethod, ReorderSettings};
use bddmin_core::{exact_minimum, lower_bound, BudgetLimits, ExactConfig, Heuristic, Isf};
use bddmin_fsm::{
    generators, parse_blif, simplify_report, verify_fsm_equivalence_with, ImageMethod, SymbolicFsm,
};

/// A parsed `--heuristic` selection: a comma-separated list of registry
/// names and single-`*` globs, kept together with the raw argument so an
/// empty selection can be reported with the offending filter string.
#[derive(Clone, Debug, PartialEq)]
pub struct HeuristicFilter {
    /// The raw `--heuristic` argument as typed.
    pub raw: String,
    /// The selected heuristics, in first-match order, deduplicated.
    pub selected: Vec<Heuristic>,
}

impl HeuristicFilter {
    /// Every selectable heuristic: the paper's twelve plus the scheduler.
    fn registry() -> impl Iterator<Item = Heuristic> {
        Heuristic::ALL.into_iter().chain([Heuristic::Scheduled])
    }

    /// Wraps a single heuristic (the historical exact-name behavior).
    pub fn single(h: Heuristic) -> HeuristicFilter {
        HeuristicFilter {
            raw: h.name().to_owned(),
            selected: vec![h],
        }
    }

    /// The structured "no heuristic selected" error for this filter.
    pub fn empty_error(&self) -> CliError {
        let known: Vec<&str> = Self::registry().map(|h| h.name()).collect();
        CliError(format!(
            "no heuristic selected by filter {:?} (known: {})",
            self.raw,
            known.join(" ")
        ))
    }

    /// Parses a comma-separated list of exact names, `all`, and patterns
    /// with at most one `*` (matched as prefix + suffix over the registry
    /// names). A glob may match nothing, but a filter whose *total*
    /// selection is empty is an error carrying the offending string.
    ///
    /// Empty segments (`"osm_td,,tsm_td"`, trailing commas) are rejected
    /// with the 1-based segment position, never silently dropped; a
    /// wholly blank filter gets the "no heuristic selected" error
    /// instead. Serve-side job parsing goes through this same function,
    /// so the cli and the service agree on every rejection.
    pub fn parse(raw: &str) -> Result<HeuristicFilter, CliError> {
        let mut selected: Vec<Heuristic> = Vec::new();
        let push = |h: Heuristic, selected: &mut Vec<Heuristic>| {
            if !selected.contains(&h) {
                selected.push(h);
            }
        };
        for (pos, segment) in raw.split(',').enumerate() {
            let token = segment.trim();
            if token.is_empty() {
                if raw.trim().is_empty() {
                    // A wholly blank filter is "nothing selected", not a
                    // stray comma; report it through empty_error below.
                    break;
                }
                return Err(CliError(format!(
                    "--heuristic: empty segment at position {} of {:?} \
                     (remove the stray comma)",
                    pos + 1,
                    raw
                )));
            }
            if token == "all" {
                for h in Self::registry() {
                    push(h, &mut selected);
                }
            } else if let Some(star) = token.find('*') {
                let prefix = &token[..star];
                let suffix = &token[star + 1..];
                if suffix.contains('*') {
                    return Err(CliError(format!(
                        "--heuristic: at most one `*` per pattern, got {token:?}"
                    )));
                }
                for h in Self::registry() {
                    let name = h.name();
                    if name.len() >= prefix.len() + suffix.len()
                        && name.starts_with(prefix)
                        && name.ends_with(suffix)
                    {
                        push(h, &mut selected);
                    }
                }
            } else {
                let h = token
                    .parse::<Heuristic>()
                    .map_err(|e| CliError(e.to_string()))?;
                push(h, &mut selected);
            }
        }
        let filter = HeuristicFilter {
            raw: raw.to_owned(),
            selected,
        };
        if filter.selected.is_empty() {
            return Err(filter.empty_error());
        }
        Ok(filter)
    }
}

/// A parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Minimize a leaf-spec instance.
    Spec {
        /// The `01d` leaf specification.
        spec: String,
        /// Heuristic filter, or `None` for all.
        heuristic: Option<HeuristicFilter>,
        /// Also run the exact solver.
        exact: bool,
        /// Also compute the ISOP cover.
        isop: bool,
        /// Emit Graphviz for the best cover.
        dot: bool,
        /// Resource budget for every heuristic run.
        budget: BudgetLimits,
        /// Dynamic reordering before minimization (`None` = keep the
        /// declared order).
        reorder: Option<ReorderSettings>,
    },
    /// Minimize an expression-defined instance.
    Expr {
        /// Comma-separated variable names, topmost first.
        vars: Vec<String>,
        /// The function expression.
        function: String,
        /// The care expression.
        care: String,
        /// Heuristic filter, or `None` for all.
        heuristic: Option<HeuristicFilter>,
        /// Resource budget for every heuristic run.
        budget: BudgetLimits,
        /// Dynamic reordering before minimization (`None` = keep the
        /// declared order).
        reorder: Option<ReorderSettings>,
    },
    /// Check equivalence of two BLIF machines.
    Verify {
        /// Left BLIF source text.
        left: String,
        /// Right BLIF source text.
        right: String,
        /// Frontier-minimization heuristic (default constrain).
        heuristic: Option<Heuristic>,
        /// Image computation method (default mono).
        image: ImageMethod,
    },
    /// ODC-simplify a BLIF network.
    Simplify {
        /// BLIF source text.
        blif: String,
        /// Minimization heuristic (default osm_bt).
        heuristic: Option<Heuristic>,
    },
    /// List the benchmark suite.
    Bench,
}

/// Errors from argument parsing or execution.
#[derive(Clone, Debug, PartialEq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
bddmin — heuristic minimization of BDDs using don't cares (Shiple et al., DAC'94)

USAGE:
  bddmin spec <LEAFSPEC> [--heuristic FILTER] [--exact] [--isop] [--dot] [BUDGET]
  bddmin expr --vars a,b,c --function EXPR --care EXPR [--heuristic FILTER] [BUDGET]
  bddmin verify <LEFT.blif> <RIGHT.blif> [--heuristic NAME] [--image {mono,range}]
  bddmin simplify <CIRCUIT.blif> [--heuristic NAME]
  bddmin bench

BUDGET (spec/expr): [--step-limit N] [--node-limit N] [--time-limit MS]
  Bounds each heuristic run; blown steps degrade gracefully to a valid
  cover no larger than the input, and skipped work is reported.

REORDER (spec/expr): [--reorder {none,sift,group}] [--reorder-growth F]
  Sifts the variables to a locally optimal order before minimizing and
  reports `(reordered: k swaps, n->n' nodes)`; default none.

HEURISTICS: --heuristic takes a comma-separated list of names and single-`*`
  globs over: f_orig f_and_c f_or_nc const restr osm_td osm_nv osm_cp osm_bt
  tsm_td tsm_cp opt_lv sched — e.g. `--heuristic osm_*,sched`; `all` selects
  everything; a filter that selects nothing is an error
  (default: run all and report each)
";

/// Parses command-line arguments (without the program name). File
/// arguments are returned as paths; [`run`] is given loaded contents via
/// [`Command`], so tests can inject sources directly.
pub fn parse_args(
    args: &[String],
    read_file: impl Fn(&str) -> Result<String, CliError>,
) -> Result<Command, CliError> {
    let mut it = args.iter();
    let sub = it.next().ok_or_else(|| CliError(USAGE.to_owned()))?;
    let rest: Vec<String> = it.cloned().collect();
    // Positional arguments: everything that is neither a flag nor the
    // value of a value-taking flag.
    let positionals: Vec<String> = {
        let mut out = Vec::new();
        let mut skip = false;
        for a in &rest {
            if skip {
                skip = false;
                continue;
            }
            if a == "--heuristic"
                || a == "-H"
                || a == "--vars"
                || a == "--function"
                || a == "--care"
                || a == "--step-limit"
                || a == "--node-limit"
                || a == "--time-limit"
                || a == "--reorder"
                || a == "--reorder-growth"
                || a == "--image"
            {
                skip = true;
                continue;
            }
            if a.starts_with('-') {
                continue;
            }
            out.push(a.clone());
        }
        out
    };
    let heuristic = |rest: &[String]| -> Result<Option<HeuristicFilter>, CliError> {
        match rest.iter().position(|a| a == "--heuristic" || a == "-H") {
            None => Ok(None),
            Some(i) => {
                let name = rest
                    .get(i + 1)
                    .ok_or_else(|| CliError("--heuristic needs a name".into()))?;
                HeuristicFilter::parse(name).map(Some)
            }
        }
    };
    // `verify`/`simplify` drive one traversal hook, so their filter must
    // resolve to exactly one heuristic.
    let single = |rest: &[String]| -> Result<Option<Heuristic>, CliError> {
        match heuristic(rest)? {
            None => Ok(None),
            Some(f) if f.selected.len() == 1 => Ok(Some(f.selected[0])),
            Some(f) => Err(CliError(format!(
                "--heuristic: this command takes exactly one heuristic, \
                 filter {:?} selected {}",
                f.raw,
                f.selected.len()
            ))),
        }
    };
    let budget = |rest: &[String]| -> Result<BudgetLimits, CliError> {
        let get = |flag: &str| -> Result<Option<u64>, CliError> {
            match rest.iter().position(|a| a == flag) {
                None => Ok(None),
                Some(i) => rest
                    .get(i + 1)
                    .ok_or_else(|| CliError(format!("{flag} needs a value")))?
                    .parse()
                    .map(Some)
                    .map_err(|e| CliError(format!("bad {flag}: {e}"))),
            }
        };
        Ok(BudgetLimits {
            step_limit: get("--step-limit")?,
            node_limit: get("--node-limit")?.map(|n| n as usize),
            time_limit_ms: get("--time-limit")?,
        })
    };
    let reorder = |rest: &[String]| -> Result<Option<ReorderSettings>, CliError> {
        let method = match rest.iter().position(|a| a == "--reorder") {
            None => return Ok(None),
            Some(i) => rest
                .get(i + 1)
                .ok_or_else(|| CliError("--reorder needs a method".into()))?
                .parse::<ReorderMethod>()
                .map_err(CliError)?,
        };
        let growth = match rest.iter().position(|a| a == "--reorder-growth") {
            None => None,
            Some(i) => Some(
                rest.get(i + 1)
                    .ok_or_else(|| CliError("--reorder-growth needs a value".into()))?
                    .parse::<f64>()
                    .map_err(|e| CliError(format!("bad --reorder-growth: {e}")))?,
            ),
        };
        if method == ReorderMethod::None {
            return Ok(None);
        }
        let defaults = ReorderSettings::default();
        Ok(Some(ReorderSettings {
            method,
            growth: growth.unwrap_or(defaults.growth),
            ..defaults
        }))
    };
    match sub.as_str() {
        "spec" => {
            let spec = positionals
                .first()
                .ok_or_else(|| CliError("spec: missing leaf specification".into()))?
                .clone();
            Ok(Command::Spec {
                spec,
                heuristic: heuristic(&rest)?,
                exact: rest.iter().any(|a| a == "--exact"),
                isop: rest.iter().any(|a| a == "--isop"),
                dot: rest.iter().any(|a| a == "--dot"),
                budget: budget(&rest)?,
                reorder: reorder(&rest)?,
            })
        }
        "expr" => {
            let get = |flag: &str| -> Result<String, CliError> {
                rest.iter()
                    .position(|a| a == flag)
                    .and_then(|i| rest.get(i + 1).cloned())
                    .ok_or_else(|| CliError(format!("expr: missing {flag}")))
            };
            Ok(Command::Expr {
                vars: get("--vars")?.split(',').map(str::to_owned).collect(),
                function: get("--function")?,
                care: get("--care")?,
                heuristic: heuristic(&rest)?,
                budget: budget(&rest)?,
                reorder: reorder(&rest)?,
            })
        }
        "verify" => {
            if positionals.len() != 2 {
                return Err(CliError("verify: need exactly two BLIF files".into()));
            }
            let image = match rest.iter().position(|a| a == "--image") {
                None => ImageMethod::Mono,
                Some(i) => rest
                    .get(i + 1)
                    .ok_or_else(|| CliError("--image needs a method".into()))?
                    .parse::<ImageMethod>()
                    .map_err(CliError)?,
            };
            Ok(Command::Verify {
                left: read_file(&positionals[0])?,
                right: read_file(&positionals[1])?,
                heuristic: single(&rest)?,
                image,
            })
        }
        "simplify" => {
            let file = positionals
                .first()
                .ok_or_else(|| CliError("simplify: missing BLIF file".into()))?;
            Ok(Command::Simplify {
                blif: read_file(file)?,
                heuristic: single(&rest)?,
            })
        }
        "bench" => Ok(Command::Bench),
        "--help" | "-h" | "help" => Err(CliError(USAGE.to_owned())),
        other => Err(CliError(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

/// Executes a command, returning the report to print.
pub fn run(command: Command) -> Result<String, CliError> {
    match command {
        Command::Spec {
            spec,
            heuristic,
            exact,
            isop,
            dot,
            budget,
            reorder,
        } => run_spec(&spec, heuristic, exact, isop, dot, budget, reorder),
        Command::Expr {
            vars,
            function,
            care,
            heuristic,
            budget,
            reorder,
        } => run_expr(&vars, &function, &care, heuristic, budget, reorder),
        Command::Verify {
            left,
            right,
            heuristic,
            image,
        } => run_verify(&left, &right, heuristic, image),
        Command::Simplify { blif, heuristic } => run_simplify(&blif, heuristic),
        Command::Bench => Ok(run_bench()),
    }
}

/// Parses and executes an argument vector entirely in-process with the
/// filesystem disabled: any file argument (the `verify`/`simplify`
/// subcommands) fails cleanly instead of touching disk. This is the
/// entry point the fuzzer drives — arg-vector fuzzing needs no
/// subprocess and cannot be tricked into reading host files.
///
/// # Errors
///
/// Returns [`CliError`] exactly where the binary would print usage or
/// an error message; callers asserting totality treat `Ok` and `Err`
/// alike and only panics as bugs.
pub fn run_sandboxed(args: &[String]) -> Result<String, CliError> {
    let command = parse_args(args, |path| {
        Err(CliError(format!(
            "file access is disabled in sandboxed mode (tried to read {path:?})"
        )))
    })?;
    run(command)
}

/// Per-instance reporting options shared by `spec` and `expr`.
struct InstanceOpts {
    exact: bool,
    isop: bool,
    dot: bool,
    budget: BudgetLimits,
    reorder: Option<ReorderSettings>,
}

fn report_instance(
    bdd: &mut Bdd,
    isf: Isf,
    heuristic: Option<HeuristicFilter>,
    opts: InstanceOpts,
) -> Result<String, CliError> {
    let InstanceOpts {
        exact,
        isop,
        dot,
        budget,
        reorder,
    } = opts;
    let mut out = String::new();
    if let Some(settings) = reorder {
        let stats = bdd.reorder_roots(&settings, &[isf.f, isf.c]);
        let _ = writeln!(
            out,
            "(reordered: {} swaps, {}→{} nodes)",
            stats.swaps, stats.nodes_before, stats.nodes_after
        );
    }
    let _ = writeln!(
        out,
        "|f| = {}  |c| = {}  care onset = {:.1}%",
        bdd.size(isf.f),
        bdd.size(isf.c),
        bdd.onset_percentage(isf.c)
    );
    if isf.c.is_zero() {
        let _ = writeln!(out, "care set empty: any function is a cover; returning 0");
        return Ok(out);
    }
    // One loop over the selected heuristics (every registry heuristic
    // without a filter). Budgeted runs go through the degradation ladder
    // and annotate every run that lost steps. An empty selection is a
    // structured error carrying the offending filter string — never a
    // panic (filters are rejected at parse time, but a directly
    // constructed Command can still be empty).
    let selected: &[Heuristic] = match &heuristic {
        Some(filter) => &filter.selected,
        None => &Heuristic::ALL,
    };
    let mut best: Option<(usize, Edge)> = None;
    for &h in selected {
        let (g, note) = if budget.armed() {
            let (g, report) = h.minimize_budgeted(bdd, isf, budget.to_budget());
            let note = if report.skipped() > 0 {
                format!("  (degraded: {report})")
            } else {
                String::new()
            };
            (g, note)
        } else {
            (h.minimize(bdd, isf), String::new())
        };
        let size = bdd.size(g);
        let _ = writeln!(out, "{:<8} {size:>4} nodes{note}", h.name());
        if best.is_none_or(|(bs, _)| size < bs) {
            best = Some((size, g));
        }
    }
    let Some((size, best)) = best else {
        return Err(heuristic.map_or_else(
            || CliError("no heuristic selected: empty registry".into()),
            |filter| filter.empty_error(),
        ));
    };
    // A single selected heuristic is its own minimum: no `min` row.
    if selected.len() > 1 {
        let _ = writeln!(out, "{:<8} {size:>4} nodes", "min");
    }
    let lb = lower_bound(bdd, isf, 1000);
    let _ = writeln!(
        out,
        "lower bound: {} ({} cubes)",
        lb.bound, lb.cubes_examined
    );
    if exact {
        match exact_minimum(bdd, isf, ExactConfig::default()) {
            Ok(r) => {
                let _ = writeln!(
                    out,
                    "exact optimum: {} nodes ({} candidates)",
                    r.size, r.candidates
                );
            }
            Err(limit) => {
                let _ = writeln!(out, "exact solver declined: {limit:?}");
            }
        }
    }
    if isop {
        let onset = isf.onset(bdd);
        let upper = isf.upper(bdd);
        let cover = bdd.isop(onset, upper);
        let _ = writeln!(
            out,
            "ISOP: {} cubes: {}",
            cover.len(),
            cover.to_sop_string(bdd)
        );
    }
    if dot {
        let _ = writeln!(out, "\n{}", bdd.to_dot(&[("cover", best)]));
    }
    Ok(out)
}

fn run_spec(
    spec: &str,
    heuristic: Option<HeuristicFilter>,
    exact: bool,
    isop: bool,
    dot: bool,
    budget: BudgetLimits,
    reorder: Option<ReorderSettings>,
) -> Result<String, CliError> {
    let parsed = bddmin_bdd::LeafSpec::parse(spec).map_err(|e| CliError(e.to_string()))?;
    let mut bdd = Bdd::new(parsed.num_vars());
    let (f, c) = parsed.build(&mut bdd);
    report_instance(
        &mut bdd,
        Isf::new(f, c),
        heuristic,
        InstanceOpts {
            exact,
            isop,
            dot,
            budget,
            reorder,
        },
    )
}

fn run_expr(
    vars: &[String],
    function: &str,
    care: &str,
    heuristic: Option<HeuristicFilter>,
    budget: BudgetLimits,
    reorder: Option<ReorderSettings>,
) -> Result<String, CliError> {
    let names: Vec<&str> = vars.iter().map(String::as_str).collect();
    let mut bdd = Bdd::with_names(&names);
    let f = bdd
        .from_expr(function)
        .map_err(|e| CliError(e.to_string()))?;
    let c = bdd.from_expr(care).map_err(|e| CliError(e.to_string()))?;
    report_instance(
        &mut bdd,
        Isf::new(f, c),
        heuristic,
        InstanceOpts {
            exact: false,
            isop: true,
            dot: false,
            budget,
            reorder,
        },
    )
}

fn run_verify(
    left: &str,
    right: &str,
    heuristic: Option<Heuristic>,
    image: ImageMethod,
) -> Result<String, CliError> {
    let a = parse_blif(left).map_err(|e| CliError(format!("left: {e}")))?;
    let b = parse_blif(right).map_err(|e| CliError(format!("right: {e}")))?;
    let verdict = match heuristic {
        None => verify_fsm_equivalence_with(&a, &b, None, image),
        Some(h) => {
            let mut hook = move |bdd: &mut Bdd, isf: Isf| h.minimize(bdd, isf);
            verify_fsm_equivalence_with(&a, &b, Some(&mut hook), image)
        }
    };
    Ok(match verdict {
        Ok(depth) => format!(
            "EQUIVALENT: {} == {} (fixpoint at depth {depth})\n",
            a.name(),
            b.name()
        ),
        Err(depth) => format!(
            "NOT EQUIVALENT: {} != {} (difference at depth {depth})\n",
            a.name(),
            b.name()
        ),
    })
}

fn run_simplify(blif: &str, heuristic: Option<Heuristic>) -> Result<String, CliError> {
    let circuit = parse_blif(blif).map_err(|e| CliError(e.to_string()))?;
    let h = heuristic.unwrap_or(Heuristic::OsmBt);
    let report = simplify_report(&circuit, |bdd, isf| h.minimize(bdd, isf));
    let mut out = String::new();
    let _ = writeln!(out, "{circuit} — ODC simplification with {}", h.name());
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>8} {:>8}",
        "net", "orig", "min", "ODC%"
    );
    let mut before = 0;
    let mut after = 0;
    for entry in &report {
        before += entry.original_size;
        after += entry.minimized_size;
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>8} {:>7.1}%",
            entry.name, entry.original_size, entry.minimized_size, entry.odc_pct
        );
    }
    let _ = writeln!(out, "total: {before} -> {after} BDD nodes");
    Ok(out)
}

fn run_bench() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<16} {:>7} {:>8} {:>6} {:>8}",
        "paper", "stand-in", "inputs", "latches", "gates", "states"
    );
    for bench in generators::benchmark_suite() {
        let mut fsm = SymbolicFsm::new(&bench.circuit);
        let reached = {
            let init = fsm.initial_states();
            fsm.reachable_from(init)
        };
        let states = fsm.count_states(reached);
        let _ = writeln!(
            out,
            "{:<10} {:<16} {:>7} {:>8} {:>6} {:>8}",
            bench.paper_name,
            bench.circuit.name(),
            bench.circuit.num_inputs(),
            bench.circuit.num_latches(),
            bench.circuit.gates().len(),
            states
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_files(_: &str) -> Result<String, CliError> {
        Err(CliError("no filesystem in tests".into()))
    }

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_spec_command() {
        let cmd = parse_args(
            &strs(&["spec", "d1 01", "--heuristic", "osm_bt", "--exact"]),
            no_files,
        )
        .unwrap();
        assert_eq!(
            cmd,
            Command::Spec {
                spec: "d1 01".into(),
                heuristic: Some(HeuristicFilter::single(Heuristic::OsmBt)),
                exact: true,
                isop: false,
                dot: false,
                budget: BudgetLimits::default(),
                reorder: None,
            }
        );
    }

    #[test]
    fn heuristic_glob_filter_selects_multiple() {
        let f = HeuristicFilter::parse("osm_*").unwrap();
        assert_eq!(
            f.selected,
            vec![
                Heuristic::OsmTd,
                Heuristic::OsmNv,
                Heuristic::OsmCp,
                Heuristic::OsmBt
            ]
        );
        // Mixed exact names and globs, deduplicated in first-match order.
        let f = HeuristicFilter::parse("sched,osm_td,*_cp").unwrap();
        assert_eq!(
            f.selected,
            vec![
                Heuristic::Scheduled,
                Heuristic::OsmTd,
                Heuristic::OsmCp,
                Heuristic::TsmCp
            ]
        );
        // `all` selects the full registry: the paper's twelve + sched.
        assert_eq!(HeuristicFilter::parse("all").unwrap().selected.len(), 13);
        // A multi-heuristic run reports each selection plus the min row.
        let out = run(Command::Spec {
            spec: "d1 01 1d 01".into(),
            heuristic: Some(HeuristicFilter::parse("osm_*").unwrap()),
            exact: false,
            isop: false,
            dot: false,
            budget: BudgetLimits::default(),
            reorder: None,
        })
        .unwrap();
        for name in ["osm_td", "osm_nv", "osm_cp", "osm_bt", "min"] {
            assert!(out.contains(name), "missing {name} row: {out}");
        }
        assert!(!out.contains("f_orig"), "unselected heuristic ran: {out}");
    }

    #[test]
    fn empty_heuristic_filter_is_a_structured_error() {
        // A glob that matches nothing errors at parse time, carrying the
        // offending filter string and the known names.
        let err =
            parse_args(&strs(&["spec", "d1 01", "--heuristic", "osm_z*"]), no_files).unwrap_err();
        assert!(
            err.0.contains("no heuristic selected") && err.0.contains("osm_z*"),
            "unhelpful filter error: {err}"
        );
        assert!(err.0.contains("f_orig"), "error lists known names: {err}");
        // A directly constructed empty filter must come back as the same
        // structured error from `run` — the historical code panicked here
        // (`expect(\"at least one heuristic\")`).
        let empty = HeuristicFilter {
            raw: "osm_z*".into(),
            selected: Vec::new(),
        };
        for budget in [
            BudgetLimits::default(),
            BudgetLimits {
                step_limit: Some(10),
                ..BudgetLimits::default()
            },
        ] {
            let err = run(Command::Spec {
                spec: "d1 01 1d 01".into(),
                heuristic: Some(empty.clone()),
                exact: false,
                isop: false,
                dot: false,
                budget,
                reorder: None,
            })
            .unwrap_err();
            assert!(
                err.0.contains("no heuristic selected") && err.0.contains("osm_z*"),
                "empty filter did not produce the structured error: {err}"
            );
        }
        // Unknown exact names and double-star patterns are still errors.
        assert!(HeuristicFilter::parse("bogus").is_err());
        assert!(HeuristicFilter::parse("*sm*").is_err());
    }

    #[test]
    fn empty_comma_segments_are_rejected_with_their_position() {
        // Historical bug: empty segments were silently skipped, so a typo
        // like "osm_td,,tsm_td" parsed as if the stray comma were fine
        // and the error text (when the rest also failed) never named the
        // offending spot. Now every empty segment is a structured error
        // carrying its 1-based position and the raw filter.
        for (raw, pos) in [
            ("osm_td,,tsm_td", 2),
            (",osm_td", 1),
            ("osm_td,", 2),
            ("osm_td,tsm_td,", 3),
            ("osm_td, ,tsm_td", 2),
        ] {
            let err = HeuristicFilter::parse(raw).unwrap_err();
            assert!(
                err.0.contains(&format!("empty segment at position {pos}")),
                "missing position for {raw:?}: {err}"
            );
            assert!(err.0.contains(raw), "error must echo the filter: {err}");
        }
        // A wholly blank filter is "nothing selected", not a stray comma.
        for raw in ["", "  "] {
            let err = HeuristicFilter::parse(raw).unwrap_err();
            assert!(
                err.0.contains("no heuristic selected"),
                "blank filter misreported for {raw:?}: {err}"
            );
        }
        // Well-formed lists with interior spaces still parse.
        let f = HeuristicFilter::parse(" osm_td , tsm_td ").unwrap();
        assert_eq!(f.selected, vec![Heuristic::OsmTd, Heuristic::TsmTd]);
    }

    #[test]
    fn verify_rejects_multi_heuristic_filter() {
        let err = parse_args(
            &strs(&["verify", "a.blif", "b.blif", "--heuristic", "osm_*"]),
            |_| Ok(String::new()),
        )
        .unwrap_err();
        assert!(
            err.0.contains("exactly one heuristic"),
            "wrong error: {err}"
        );
    }

    #[test]
    fn verify_parses_image_method() {
        for (flag, want) in [("mono", ImageMethod::Mono), ("range", ImageMethod::Range)] {
            let cmd = parse_args(
                &strs(&["verify", "a.blif", "b.blif", "--image", flag]),
                |_| Ok(String::new()),
            )
            .unwrap();
            match cmd {
                Command::Verify { image, .. } => assert_eq!(image, want),
                other => panic!("wrong parse: {other:?}"),
            }
        }
        // Default is mono; unknown and retired methods and a missing value
        // are errors.
        let cmd = parse_args(
            &strs(&["verify", "a.blif", "b.blif"]),
            |_| Ok(String::new()),
        )
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Verify {
                image: ImageMethod::Mono,
                ..
            }
        ));
        for bad in ["bogus", "part"] {
            assert!(parse_args(
                &strs(&["verify", "a.blif", "b.blif", "--image", bad]),
                |_| Ok(String::new())
            )
            .is_err());
        }
        assert!(
            parse_args(&strs(&["verify", "a.blif", "b.blif", "--image"]), |_| Ok(
                String::new()
            ))
            .is_err()
        );
    }

    #[test]
    fn parse_budget_flags() {
        let cmd = parse_args(
            &strs(&[
                "spec",
                "--step-limit",
                "100",
                "d1 01",
                "--node-limit",
                "64",
                "--time-limit",
                "250",
            ]),
            no_files,
        )
        .unwrap();
        match cmd {
            Command::Spec { spec, budget, .. } => {
                // Flag values must not be swallowed as positionals.
                assert_eq!(spec, "d1 01");
                assert_eq!(budget.step_limit, Some(100));
                assert_eq!(budget.node_limit, Some(64));
                assert_eq!(budget.time_limit_ms, Some(250));
                assert!(budget.armed());
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Garbage values are parse errors, not silently unlimited.
        assert!(parse_args(&strs(&["spec", "d1 01", "--step-limit", "lots"]), no_files).is_err());
        assert!(parse_args(&strs(&["spec", "d1 01", "--node-limit"]), no_files).is_err());
    }

    #[test]
    fn parse_reorder_flags() {
        let cmd = parse_args(
            &strs(&[
                "spec",
                "d1 01 1d 01",
                "--reorder",
                "sift",
                "--reorder-growth",
                "1.5",
            ]),
            no_files,
        )
        .unwrap();
        match cmd {
            Command::Spec { spec, reorder, .. } => {
                assert_eq!(spec, "d1 01 1d 01");
                let settings = reorder.expect("--reorder sift arms reordering");
                assert_eq!(settings.method, ReorderMethod::Sift);
                assert!((settings.growth - 1.5).abs() < 1e-12);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // `--reorder none` is the explicit off switch.
        let cmd = parse_args(&strs(&["spec", "d1 01", "--reorder", "none"]), no_files).unwrap();
        match cmd {
            Command::Spec { reorder, .. } => assert_eq!(reorder, None),
            other => panic!("wrong parse: {other:?}"),
        }
        // Bogus methods and growths are parse errors.
        assert!(parse_args(&strs(&["spec", "d1 01", "--reorder", "bogus"]), no_files).is_err());
        assert!(parse_args(
            &strs(&[
                "spec",
                "d1 01",
                "--reorder",
                "sift",
                "--reorder-growth",
                "x"
            ]),
            no_files
        )
        .is_err());
    }

    #[test]
    fn run_spec_with_reordering_annotates_and_stays_correct() {
        let plain = run(Command::Spec {
            spec: "d1 01 1d 01".into(),
            heuristic: Some(HeuristicFilter::single(Heuristic::OsmBt)),
            exact: false,
            isop: false,
            dot: false,
            budget: BudgetLimits::default(),
            reorder: None,
        })
        .unwrap();
        let reordered = run(Command::Spec {
            spec: "d1 01 1d 01".into(),
            heuristic: Some(HeuristicFilter::single(Heuristic::OsmBt)),
            exact: false,
            isop: false,
            dot: false,
            budget: BudgetLimits::default(),
            reorder: Some(ReorderSettings::sift(1.2)),
        })
        .unwrap();
        assert!(!plain.contains("(reordered:"));
        assert!(
            reordered.contains("(reordered:"),
            "missing reorder annotation: {reordered}"
        );
        // The heuristic still reports a cover (size may legitimately
        // differ under a different order).
        assert!(reordered.contains("osm_bt"));
        assert!(reordered.contains("lower bound"));
    }

    #[test]
    fn parse_expr_command() {
        let cmd = parse_args(
            &strs(&[
                "expr",
                "--vars",
                "a,b,c",
                "--function",
                "a&b",
                "--care",
                "a|c",
            ]),
            no_files,
        )
        .unwrap();
        match cmd {
            Command::Expr {
                vars,
                function,
                care,
                heuristic,
                ..
            } => {
                assert_eq!(vars, vec!["a", "b", "c"]);
                assert_eq!(function, "a&b");
                assert_eq!(care, "a|c");
                assert_eq!(heuristic, None);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn flag_values_are_not_positionals() {
        // `-H osm_bt` before the spec must not swallow it.
        let cmd = parse_args(&strs(&["spec", "-H", "osm_bt", "d1 01"]), no_files).unwrap();
        match cmd {
            Command::Spec {
                spec, heuristic, ..
            } => {
                assert_eq!(spec, "d1 01");
                assert_eq!(heuristic, Some(HeuristicFilter::single(Heuristic::OsmBt)));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&[], no_files).is_err());
        assert!(parse_args(&strs(&["nonsense"]), no_files).is_err());
        assert!(parse_args(&strs(&["spec"]), no_files).is_err());
        assert!(parse_args(&strs(&["spec", "d1 01", "-H", "bogus"]), no_files).is_err());
        assert!(parse_args(&strs(&["verify", "one.blif"]), no_files).is_err());
        let help = parse_args(&strs(&["--help"]), no_files).unwrap_err();
        assert!(help.0.contains("USAGE"));
    }

    #[test]
    fn run_spec_all_heuristics() {
        let out = run(Command::Spec {
            spec: "d1 01 1d 01".into(),
            heuristic: None,
            exact: true,
            isop: true,
            dot: false,
            budget: BudgetLimits::default(),
            reorder: None,
        })
        .unwrap();
        assert!(out.contains("min"));
        assert!(out.contains("lower bound"));
        assert!(out.contains("exact optimum: 3 nodes"));
        assert!(out.contains("ISOP:"));
    }

    #[test]
    fn run_spec_with_starved_budget_degrades_gracefully() {
        let starved = BudgetLimits {
            step_limit: Some(1),
            ..BudgetLimits::default()
        };
        let out = run(Command::Spec {
            spec: "d1 01 1d 01".into(),
            heuristic: None,
            exact: false,
            isop: false,
            dot: false,
            budget: starved,
            reorder: None,
        })
        .unwrap();
        // Every heuristic still reports a result, something degraded, and
        // nothing exceeds |f| = 4 nodes.
        assert!(out.contains("min"), "budgeted run lost the min row: {out}");
        assert!(out.contains("degraded:"), "1-step budget never bit: {out}");
        for line in out.lines().filter(|l| l.contains(" nodes")) {
            let nodes: usize = line
                .split_whitespace()
                .nth(1)
                .and_then(|w| w.parse().ok())
                .unwrap_or_else(|| panic!("unparsable report line: {line}"));
            assert!(nodes <= 4, "budgeted result exceeds |f|: {line}");
        }
        // An ample budget reports no degradation at all.
        let out = run(Command::Spec {
            spec: "d1 01 1d 01".into(),
            heuristic: Some(HeuristicFilter::single(Heuristic::Scheduled)),
            exact: false,
            isop: false,
            dot: false,
            budget: BudgetLimits {
                step_limit: Some(1_000_000),
                ..BudgetLimits::default()
            },
            reorder: None,
        })
        .unwrap();
        assert!(!out.contains("degraded:"), "spurious degradation: {out}");
    }

    #[test]
    fn run_spec_single_heuristic_with_dot() {
        let out = run(Command::Spec {
            spec: "d1 01".into(),
            heuristic: Some(HeuristicFilter::single(Heuristic::OsmTd)),
            exact: false,
            isop: false,
            dot: true,
            budget: BudgetLimits::default(),
            reorder: None,
        })
        .unwrap();
        assert!(out.contains("osm_td"));
        assert!(out.contains("digraph"));
    }

    #[test]
    fn run_expr_instance() {
        let out = run(Command::Expr {
            vars: vec!["a".into(), "b".into(), "c".into()],
            function: "(a&b)|c".into(),
            care: "a|b".into(),
            heuristic: Some(HeuristicFilter::single(Heuristic::Restrict)),
            budget: BudgetLimits::default(),
            reorder: None,
        })
        .unwrap();
        assert!(out.contains("restr"));
        assert!(out.contains("ISOP"));
    }

    #[test]
    fn run_verify_pair() {
        let toggle = "\
.model t
.inputs en
.outputs q
.latch nx q 0
.names en q nx
10 1
01 1
.end
";
        for image in ImageMethod::ALL {
            let out = run(Command::Verify {
                left: toggle.into(),
                right: toggle.into(),
                heuristic: Some(Heuristic::Restrict),
                image,
            })
            .unwrap();
            assert!(out.starts_with("EQUIVALENT"), "image {image}");
            // An inverted-latch variant must be caught.
            let broken = toggle.replace("10 1\n01 1", "11 1\n00 1");
            let out = run(Command::Verify {
                left: toggle.into(),
                right: broken,
                heuristic: None,
                image,
            })
            .unwrap();
            assert!(out.starts_with("NOT EQUIVALENT"), "image {image}");
        }
    }

    #[test]
    fn run_simplify_blif() {
        let src = "\
.model masked
.inputs a b c
.outputs y
.names a b t1
11 1
.names a c t2
11 1
.names t1 t2 y
1- 1
-1 1
.end
";
        let out = run(Command::Simplify {
            blif: src.into(),
            heuristic: None,
        })
        .unwrap();
        assert!(out.contains("ODC simplification"));
        assert!(out.contains("total:"));
    }

    #[test]
    fn run_bench_lists_suite() {
        let out = run(Command::Bench).unwrap();
        assert!(out.contains("s344"));
        assert!(out.contains("tlc"));
        assert_eq!(out.lines().count(), 16); // header + 15 machines
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_sandboxed_executes_spec_and_expr_in_process() {
        let out = run_sandboxed(&argv(&["spec", "(d1 01)", "--heuristic", "osm_td"])).unwrap();
        assert!(out.contains("osm_td"));
        let out = run_sandboxed(&argv(&[
            "expr",
            "--vars",
            "a,b",
            "--function",
            "a&b",
            "--care",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("f_orig"));
    }

    #[test]
    fn run_sandboxed_denies_file_access() {
        let err = run_sandboxed(&argv(&["verify", "left.blif", "right.blif"])).unwrap_err();
        assert!(err.0.contains("disabled in sandboxed mode"), "{err}");
        let err = run_sandboxed(&argv(&["simplify", "net.blif"])).unwrap_err();
        assert!(err.0.contains("disabled in sandboxed mode"), "{err}");
    }

    #[test]
    fn run_sandboxed_is_total_on_malformed_input() {
        for bad in [
            &["spec"][..],
            &["spec", "(dx 01)"],
            &["expr", "--vars", "a,b"],
            &["wat"],
            &["spec", "(d1 01)", "--heuristic", "nope"],
            &["expr", "--vars", "a", "--function", "((", "--care", "1"],
        ] {
            assert!(run_sandboxed(&argv(bad)).is_err());
        }
    }
}
