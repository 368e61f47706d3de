//! The nine theorem oracles.
//!
//! Each oracle is an independent judge of one correctness contract from
//! the paper (or from the kernel's own documentation), checked against a
//! fresh manager so verdicts are reproducible from the instance alone:
//!
//! | oracle         | contract                                              | paper basis      |
//! |----------------|-------------------------------------------------------|------------------|
//! | `cover`        | every heuristic returns `g` with `f·c ≤ g ≤ f + ¬c`   | §2, Definition 1 |
//! | `cube-optimal` | sibling heuristics are optimum when `c` is a cube     | Theorem 7        |
//! | `osm-level`    | an osm pass at level *i* keeps the optimum below *i*  | Theorem 12       |
//! | `sandwich`     | `lower_bound ≤ exact ≤ every heuristic`               | §4.1.1, Prop. 4  |
//! | `agreement`    | generic matcher instances ≡ classic constrain/restrict| Table 2          |
//! | `invariance`   | results unchanged under GC / cache-flush injection    | kernel contract  |
//! | `budget`       | budget-exceeded paths still return a valid cover ≤ \|f\|| degradation ladder|
//! | `reorder-invariance`| sift/swap sequences preserve semantics: each root transfers back to a fresh identity-order copy's exact edge, `sat_count` unchanged | dynamic-reordering contract |
//! | `image-equivalence` | monolithic and range-method images agree edge for edge on random circuits | image-computation method transparency |
//!
//! The [`Mutant`] enum injects one deliberate bug per oracle (used by CI
//! and the `mutants` integration suite to prove each oracle actually
//! fires and shrinks — a fuzzer whose failure path is never exercised is
//! scaffolding, not a safety net).

use bddmin_bdd::{Bdd, Budget, Cube, Edge, ReorderSettings, Var};
use bddmin_core::{
    exact_minimum, generic_td, lower_bound, minimize_at_level, CliqueOptions, ExactConfig,
    Heuristic, Isf, MatchCriterion, SiblingConfig,
};

use crate::gen::{care_is_cube, ChaosPlan, Instance};

/// One correctness contract the fuzzer checks per instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Oracle {
    /// Every registry heuristic returns a valid cover (§2).
    Cover,
    /// Theorem 7: sibling heuristics are exactly optimal for cube care
    /// sets (verified against the exact enumerator).
    CubeOptimal,
    /// Theorem 12: an osm level pass preserves the minimum achievable
    /// node count below the level (verified exhaustively on 3-variable
    /// instances).
    OsmLevel,
    /// `lower_bound ≤ exact ≤ heuristic` on instances the exact solver
    /// can enumerate (§4.1.1).
    Sandwich,
    /// Table 2: the generic sibling matcher's osdm instantiations agree
    /// with the classic `constrain`/`restrict` operators bit for bit.
    Agreement,
    /// Heuristic results are invariant under cache flushes and garbage
    /// collections injected between invocations.
    Invariance,
    /// Every budget-exceeded path degrades gracefully: under any step or
    /// node budget the registry still returns a valid cover no larger
    /// than `f`, and an ample budget reproduces the unbudgeted result.
    Budget,
    /// After any sift/swap sequence, every root transfers back under the
    /// identity map to the exact edge of a fresh identity-order copy, and
    /// `sat_count` is unchanged — a reorder permutes levels, never
    /// functions.
    ReorderInvariance,
    /// The two image computation methods — monolithic relation through
    /// the fused `and_exists`, and constrain+range — produce literally the
    /// same state-set edges at every BFS step of a random circuit.
    ImageEquivalence,
}

impl Oracle {
    /// All nine oracles, in checking order.
    pub const ALL: [Oracle; 9] = [
        Oracle::Cover,
        Oracle::CubeOptimal,
        Oracle::OsmLevel,
        Oracle::Sandwich,
        Oracle::Agreement,
        Oracle::Invariance,
        Oracle::Budget,
        Oracle::ReorderInvariance,
        Oracle::ImageEquivalence,
    ];

    /// Stable name used on the command line and in corpus files.
    pub fn name(self) -> &'static str {
        match self {
            Oracle::Cover => "cover",
            Oracle::CubeOptimal => "cube-optimal",
            Oracle::OsmLevel => "osm-level",
            Oracle::Sandwich => "sandwich",
            Oracle::Agreement => "agreement",
            Oracle::Invariance => "invariance",
            Oracle::Budget => "budget",
            Oracle::ReorderInvariance => "reorder-invariance",
            Oracle::ImageEquivalence => "image-equivalence",
        }
    }

    /// The paper result (or contract) the oracle enforces, for reports.
    pub fn paper_basis(self) -> &'static str {
        match self {
            Oracle::Cover => "Section 2, Definition 1 (cover interval)",
            Oracle::CubeOptimal => "Theorem 7 (cube care sets)",
            Oracle::OsmLevel => "Theorem 12 (osm level safety)",
            Oracle::Sandwich => "Section 4.1.1 (lower bound) + Proposition 4 (exact)",
            Oracle::Agreement => "Table 2 (constrain/restrict instantiations)",
            Oracle::Invariance => "kernel cache/GC transparency contract",
            Oracle::Budget => "Definition 1 under resource budgets (degradation ladder)",
            Oracle::ReorderInvariance => {
                "dynamic-reordering contract (sifting permutes levels, never functions)"
            }
            Oracle::ImageEquivalence => {
                "image-computation method transparency (Touati et al. [9]: relational \
                 and range methods compute the same image)"
            }
        }
    }
}

impl std::fmt::Display for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown oracle name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseOracleError {
    name: String,
}

impl std::fmt::Display for ParseOracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown oracle {:?} (expected one of: ", self.name)?;
        for (i, o) in Oracle::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{o}")?;
        }
        write!(f, ")")
    }
}

impl std::error::Error for ParseOracleError {}

impl std::str::FromStr for Oracle {
    type Err = ParseOracleError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Oracle::ALL
            .into_iter()
            .find(|o| o.name() == s)
            .ok_or_else(|| ParseOracleError { name: s.to_owned() })
    }
}

/// A deliberately injected bug, one per oracle.
///
/// Mutants simulate the regressions the harness exists to catch; the
/// real code paths are untouched unless a mutant is selected, and
/// `Mutant::None` is the only value CI gates run with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Mutant {
    /// No injected bug (production behaviour).
    #[default]
    None,
    /// Flip every heuristic result on a care cube — breaks `cover`.
    BreakCover,
    /// Pad sibling results with a don't-care region (still a cover, no
    /// longer minimal) — breaks `cube-optimal`.
    BreakCubeOptimal,
    /// Complete all don't cares after the osm level pass, discarding the
    /// freedom Theorem 12 relies on — breaks `osm-level`.
    BreakOsmLevel,
    /// Over-report the cube lower bound by one — breaks `sandwich`.
    BreakLowerBound,
    /// Instantiate the "restrict" row of Table 2 without the
    /// no-new-vars sieve (i.e. as constrain) — breaks `agreement`.
    BreakAgreement,
    /// Make results depend on how many collections the manager has run
    /// — breaks `invariance`.
    BreakInvariance,
    /// Corrupt the result whenever a budget actually tripped, simulating
    /// a degradation path that forgets the soundness clamp — breaks
    /// `budget`.
    BreakDegradation,
    /// Desynchronize the level-permutation maps after a reorder (so
    /// `var_at_level` lies about which variable sits where), simulating
    /// the maps-out-of-sync bug class a swap kernel can introduce —
    /// breaks `reorder-invariance`.
    BreakReorder,
    /// Widen the fused `and_exists` ⊤ short-circuit to fire
    /// unconditionally (dropping `e`-branches at quantified levels), so
    /// relational images silently under-approximate while the range
    /// method, which never calls `and_exists`, stays exact — breaks
    /// `image-equivalence`.
    BreakAndExists,
}

impl Mutant {
    /// The nine injectable bugs (everything except [`Mutant::None`]).
    pub const BREAKING: [Mutant; 9] = [
        Mutant::BreakCover,
        Mutant::BreakCubeOptimal,
        Mutant::BreakOsmLevel,
        Mutant::BreakLowerBound,
        Mutant::BreakAgreement,
        Mutant::BreakInvariance,
        Mutant::BreakDegradation,
        Mutant::BreakReorder,
        Mutant::BreakAndExists,
    ];

    /// Stable command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Mutant::None => "none",
            Mutant::BreakCover => "break-cover",
            Mutant::BreakCubeOptimal => "break-cube-optimal",
            Mutant::BreakOsmLevel => "break-osm-level",
            Mutant::BreakLowerBound => "break-lower-bound",
            Mutant::BreakAgreement => "break-agreement",
            Mutant::BreakInvariance => "break-invariance",
            Mutant::BreakDegradation => "break-degradation",
            Mutant::BreakReorder => "break-reorder",
            Mutant::BreakAndExists => "break-and-exists",
        }
    }

    /// The oracle this mutant is designed to trip.
    pub fn target_oracle(self) -> Option<Oracle> {
        match self {
            Mutant::None => None,
            Mutant::BreakCover => Some(Oracle::Cover),
            Mutant::BreakCubeOptimal => Some(Oracle::CubeOptimal),
            Mutant::BreakOsmLevel => Some(Oracle::OsmLevel),
            Mutant::BreakLowerBound => Some(Oracle::Sandwich),
            Mutant::BreakAgreement => Some(Oracle::Agreement),
            Mutant::BreakInvariance => Some(Oracle::Invariance),
            Mutant::BreakDegradation => Some(Oracle::Budget),
            Mutant::BreakReorder => Some(Oracle::ReorderInvariance),
            Mutant::BreakAndExists => Some(Oracle::ImageEquivalence),
        }
    }
}

impl std::fmt::Display for Mutant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Mutant {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [Mutant::None]
            .into_iter()
            .chain(Mutant::BREAKING)
            .find(|m| m.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Mutant::BREAKING.iter().map(|m| m.name()).collect();
                format!(
                    "unknown mutant {s:?} (expected one of: none, {})",
                    names.join(", ")
                )
            })
    }
}

/// Outcome of one oracle on one instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The contract held.
    Pass,
    /// The oracle does not apply to this instance (reason recorded).
    Skip(&'static str),
    /// The contract was violated (human-readable evidence).
    Fail(String),
}

impl Verdict {
    /// True for [`Verdict::Fail`].
    pub fn is_fail(&self) -> bool {
        matches!(self, Verdict::Fail(_))
    }
}

/// Exact-solver limits used by `cube-optimal` and `sandwich`: generous
/// enough that most generated instances qualify, tight enough that one
/// check stays well under a millisecond-scale budget.
const ORACLE_EXACT: ExactConfig = ExactConfig {
    max_support_vars: 6,
    max_dc_minterms: 12,
};

/// Runs a heuristic with the mutants that tamper at the registry level.
fn apply_heuristic(bdd: &mut Bdd, h: Heuristic, isf: Isf, mutant: Mutant) -> Edge {
    let g = h.minimize(bdd, isf);
    match mutant {
        Mutant::BreakCover => {
            // Flip the result on a care cube: the mutated result
            // disagrees with f somewhere inside the care set, which is
            // exactly what the validity clamp must catch.
            let cube = bdd
                .shortest_cube(isf.c)
                .expect("care set is non-empty")
                .to_edge(bdd);
            bdd.xor(g, cube)
        }
        Mutant::BreakCubeOptimal => {
            // Pad the cover with don't-care points it did not use: stays
            // inside the interval (so `cover` keeps passing) but is no
            // longer the minimum completion.
            let dc = isf.dc_set();
            let missing = {
                let ng = bdd.not(g);
                bdd.and(dc, ng)
            };
            match bdd.shortest_cube(missing) {
                Some(cube) => {
                    let e = cube.to_edge(bdd);
                    bdd.or(g, e)
                }
                None => g,
            }
        }
        Mutant::BreakInvariance => {
            // A stale-state bug: the result silently depends on the
            // manager's collection history.
            if bdd.stats().gc_runs % 2 == 1 {
                isf.onset(bdd)
            } else {
                g
            }
        }
        _ => g,
    }
}

/// Injects a chaos plan between heuristic invocations. The plan is
/// passed explicitly (rather than read off the instance) because the
/// invariance oracle must strip reorder injection from its paired runs:
/// a sift between two invocations legitimately changes which cover a
/// heuristic picks, so only the validity oracles may reorder mid-flight.
fn inject_chaos(bdd: &mut Bdd, plan: ChaosPlan, roots: &[Edge]) {
    if plan.flush_between {
        bdd.clear_caches();
    }
    if plan.gc_between {
        bdd.collect_garbage(roots);
    }
    if plan.reorder_between {
        bdd.reorder_roots(&ReorderSettings::default(), roots);
    }
}

/// Checks `oracle` on `inst` in a fresh manager. Pure in the instance:
/// the same `(oracle, inst, mutant)` triple always returns the same
/// verdict, which is what makes shrinking and corpus replay sound.
pub fn check(oracle: Oracle, inst: &Instance, mutant: Mutant) -> Verdict {
    match oracle {
        Oracle::Cover => check_cover(inst, mutant),
        Oracle::CubeOptimal => check_cube_optimal(inst, mutant),
        Oracle::OsmLevel => check_osm_level(inst, mutant),
        Oracle::Sandwich => check_sandwich(inst, mutant),
        Oracle::Agreement => check_agreement(inst, mutant),
        Oracle::Invariance => check_invariance(inst, mutant),
        Oracle::Budget => check_budget(inst, mutant),
        Oracle::ReorderInvariance => check_reorder_invariance(inst, mutant),
        Oracle::ImageEquivalence => check_image_equivalence(inst, mutant),
    }
}

/// The registry under test everywhere: the paper's twelve plus the
/// windowed scheduler.
fn registry() -> impl Iterator<Item = Heuristic> {
    Heuristic::ALL.into_iter().chain([Heuristic::Scheduled])
}

fn check_cover(inst: &Instance, mutant: Mutant) -> Verdict {
    if inst.is_all_dc() {
        return Verdict::Skip("all-don't-care instance (heuristics require care ≠ 0)");
    }
    let mut bdd = inst.fresh_manager();
    let isf = inst.build(&mut bdd);
    let mut roots = vec![isf.f, isf.c];
    for h in registry() {
        inject_chaos(&mut bdd, inst.chaos, &roots);
        let g = apply_heuristic(&mut bdd, h, isf, mutant);
        roots.push(g);
        if !isf.is_cover(&mut bdd, g) {
            return Verdict::Fail(format!(
                "{h} returned a non-cover: g violates f·c ≤ g ≤ f+¬c on {}",
                inst.spec_string()
            ));
        }
    }
    Verdict::Pass
}

fn check_cube_optimal(inst: &Instance, mutant: Mutant) -> Verdict {
    if inst.is_all_dc() {
        return Verdict::Skip("all-don't-care instance");
    }
    let mut bdd = inst.fresh_manager();
    let isf = inst.build(&mut bdd);
    if !care_is_cube(&bdd, isf) {
        return Verdict::Skip("care set is not a cube (Theorem 7 precondition)");
    }
    let exact = match exact_minimum(&mut bdd, isf, ORACLE_EXACT) {
        Ok(r) => r,
        Err(_) => return Verdict::Skip("instance exceeds the exact solver's limits"),
    };
    for h in Heuristic::SIBLING {
        let g = apply_heuristic(&mut bdd, h, isf, mutant);
        let size = bdd.size(g);
        if size != exact.size {
            return Verdict::Fail(format!(
                "{h} returned {size} nodes on cube-care instance {}; Theorem 7 promises the \
                 optimum {}",
                inst.spec_string(),
                exact.size
            ));
        }
    }
    Verdict::Pass
}

fn check_osm_level(inst: &Instance, mutant: Mutant) -> Verdict {
    let n = inst.num_vars();
    if n > 3 {
        return Verdict::Skip("exhaustive below-level optimum needs ≤ 3 variables");
    }
    let mut bdd = Bdd::new(3);
    let isf = inst.build(&mut bdd);
    for lvl in 0..n as u32 {
        let level = Var(lvl);
        let best_before = exhaustive_min_below(&mut bdd, isf, level);
        let after = {
            let passed = minimize_at_level(
                &mut bdd,
                isf,
                level,
                MatchCriterion::Osm,
                CliqueOptions::default(),
            );
            if mutant == Mutant::BreakOsmLevel {
                // Throw the remaining freedom away: complete every
                // don't care with the representative's value.
                Isf::new(passed.f, Edge::ONE)
            } else {
                passed
            }
        };
        if !after.i_covers(&mut bdd, isf) {
            return Verdict::Fail(format!(
                "osm pass at level {lvl} is not an i-cover of {}",
                inst.spec_string()
            ));
        }
        let best_after = exhaustive_min_below(&mut bdd, after, level);
        if best_after != best_before {
            return Verdict::Fail(format!(
                "osm pass at level {lvl} changed the optimum below the level on {}: {} → {}",
                inst.spec_string(),
                best_before,
                best_after
            ));
        }
    }
    Verdict::Pass
}

/// Minimum, over all covers of `isf`, of the node count below `level`
/// (3-variable space: all 256 candidate functions are enumerated).
fn exhaustive_min_below(bdd: &mut Bdd, isf: Isf, level: Var) -> usize {
    let mut best = usize::MAX;
    for table in 0u32..256 {
        let g = function_from_table3(bdd, table as u8);
        if isf.is_cover(bdd, g) {
            best = best.min(bdd.nodes_below_level(g, level));
        }
    }
    best
}

/// Builds the 3-variable function with the given truth table (bit `i` =
/// value on the assignment whose bits are `i`, MSB = `Var(0)`).
fn function_from_table3(bdd: &mut Bdd, table: u8) -> Edge {
    let mut f = Edge::ZERO;
    for row in 0..8 {
        if table >> row & 1 == 1 {
            let lits: Vec<(Var, bool)> = (0..3)
                .map(|v| (Var(v as u32), row >> (2 - v) & 1 == 1))
                .collect();
            let cube = Cube::new(lits).to_edge(bdd);
            f = bdd.or(f, cube);
        }
    }
    f
}

fn check_sandwich(inst: &Instance, mutant: Mutant) -> Verdict {
    if inst.is_all_dc() {
        return Verdict::Skip("all-don't-care instance");
    }
    let mut bdd = inst.fresh_manager();
    let isf = inst.build(&mut bdd);
    let exact = match exact_minimum(&mut bdd, isf, ORACLE_EXACT) {
        Ok(r) => r,
        Err(_) => return Verdict::Skip("instance exceeds the exact solver's limits"),
    };
    let mut lb = lower_bound(&mut bdd, isf, 1000).bound;
    if mutant == Mutant::BreakLowerBound {
        lb += 1;
    }
    if lb > exact.size {
        return Verdict::Fail(format!(
            "lower bound {lb} exceeds the exact optimum {} on {}",
            exact.size,
            inst.spec_string()
        ));
    }
    for h in registry() {
        let g = apply_heuristic(&mut bdd, h, isf, mutant);
        let size = bdd.size(g);
        if size < exact.size {
            return Verdict::Fail(format!(
                "{h} returned {size} nodes, beating the exact optimum {} on {} — either the \
                 heuristic returned a non-cover or the exact solver is wrong",
                exact.size,
                inst.spec_string()
            ));
        }
    }
    Verdict::Pass
}

fn check_agreement(inst: &Instance, mutant: Mutant) -> Verdict {
    if inst.is_all_dc() {
        return Verdict::Skip("all-don't-care instance");
    }
    let mut bdd = inst.fresh_manager();
    let isf = inst.build(&mut bdd);
    let con_fw = generic_td(&mut bdd, isf, SiblingConfig::new(MatchCriterion::Osdm));
    let con_classic = bdd.constrain(isf.f, isf.c);
    if con_fw != con_classic {
        return Verdict::Fail(format!(
            "generic osdm matcher disagrees with classic constrain on {}",
            inst.spec_string()
        ));
    }
    let restrict_cfg = if mutant == Mutant::BreakAgreement {
        // Forget the no-new-vars sieve: the "restrict" row of Table 2
        // degenerates to constrain.
        SiblingConfig::new(MatchCriterion::Osdm)
    } else {
        SiblingConfig::new(MatchCriterion::Osdm).no_new_vars(true)
    };
    let res_fw = generic_td(&mut bdd, isf, restrict_cfg);
    let res_classic = bdd.restrict(isf.f, isf.c);
    if res_fw != res_classic {
        return Verdict::Fail(format!(
            "generic osdm+no-new-vars matcher disagrees with classic restrict on {}",
            inst.spec_string()
        ));
    }
    Verdict::Pass
}

fn check_invariance(inst: &Instance, mutant: Mutant) -> Verdict {
    if inst.is_all_dc() {
        return Verdict::Skip("all-don't-care instance");
    }
    let mut bdd = inst.fresh_manager();
    let isf = inst.build(&mut bdd);
    let mut roots = vec![isf.f, isf.c];
    for h in registry() {
        let g1 = apply_heuristic(&mut bdd, h, isf, mutant);
        roots.push(g1);
        // Baseline disturbance between the two runs, plus whatever the
        // instance's chaos plan adds — minus reorder injection, which
        // would legitimately change the cover a heuristic picks.
        bdd.clear_caches();
        bdd.collect_garbage(&roots);
        inject_chaos(&mut bdd, inst.chaos.without_reorder(), &roots);
        let g2 = apply_heuristic(&mut bdd, h, isf, mutant);
        roots.pop();
        if g1 != g2 {
            return Verdict::Fail(format!(
                "{h} is not invariant under GC/cache-flush injection on {}",
                inst.spec_string()
            ));
        }
    }
    Verdict::Pass
}

fn check_budget(inst: &Instance, mutant: Mutant) -> Verdict {
    if inst.is_all_dc() {
        return Verdict::Skip("all-don't-care instance");
    }
    // The tight budget under test comes from the chaos plan; without one
    // the default is ample, so degradation is driven by the generator's
    // budget sweep and stays replayable (both limits are deterministic
    // clocks — no wall-time here).
    let mut tight = Budget::default().steps(inst.chaos.step_budget.unwrap_or(1_000_000));
    if let Some(nodes) = inst.chaos.node_budget {
        tight = tight.nodes(nodes);
    }
    let mut bdd = inst.fresh_manager();
    let isf = inst.build(&mut bdd);
    for h in registry() {
        let (mut g, report) = h.minimize_budgeted(&mut bdd, isf, tight);
        if mutant == Mutant::BreakDegradation && report.skipped() > 0 {
            // Simulate a degradation path that forgets the soundness
            // clamp: corrupt the result only when a budget tripped.
            let cube = bdd
                .shortest_cube(isf.c)
                .expect("care set is non-empty")
                .to_edge(&mut bdd);
            g = bdd.xor(g, cube);
        }
        if !isf.is_cover(&mut bdd, g) {
            return Verdict::Fail(format!(
                "{h} under budget violated f·c ≤ g ≤ f+¬c on {} ({})",
                inst.spec_string(),
                report
            ));
        }
        if bdd.size(g) > bdd.size(isf.f) {
            return Verdict::Fail(format!(
                "{h} under budget returned {} nodes, larger than |f| = {} on {}",
                bdd.size(g),
                bdd.size(isf.f),
                inst.spec_string()
            ));
        }
    }
    // An ample budget must reproduce the unbudgeted result bit for bit,
    // with nothing skipped. The reference clamps `minimize`'s raw cover
    // itself (f when the raw result is larger than |f|), independently of
    // the ladder's own clamp.
    for h in registry() {
        let raw = h.minimize(&mut bdd, isf);
        let reference = if bdd.size(raw) > bdd.size(isf.f) {
            isf.f
        } else {
            raw
        };
        let (g, report) = h.minimize_budgeted(&mut bdd, isf, Budget::default().steps(50_000_000));
        if report.skipped() > 0 {
            return Verdict::Fail(format!(
                "{h} skipped steps under an ample budget on {} ({})",
                inst.spec_string(),
                report
            ));
        }
        if g != reference {
            return Verdict::Fail(format!(
                "{h} under an ample budget diverged from the unbudgeted result on {}",
                inst.spec_string()
            ));
        }
    }
    Verdict::Pass
}

fn check_reorder_invariance(inst: &Instance, mutant: Mutant) -> Verdict {
    let mut bdd = inst.fresh_manager();
    let isf = inst.build(&mut bdd);
    let roots = [isf.f, isf.c];
    // A deterministic swap storm (bubble the top variable to the bottom)
    // followed by a full sift back to a locally optimal order. The roots
    // are pinned first: `swap_levels` preserves pins and internally
    // referenced nodes only, and a top node held as a bare external edge
    // is neither.
    bdd.pin(isf.f);
    bdd.pin(isf.c);
    for lvl in 0..bdd.num_vars().saturating_sub(1) {
        bdd.swap_levels(lvl);
    }
    let stats = bdd.reorder_roots(&ReorderSettings::default(), &roots);
    if mutant == Mutant::BreakReorder {
        bdd.debug_desync_level_maps();
    }
    match reorder_drift(inst, &mut bdd, isf) {
        Some(drift) => Verdict::Fail(format!(
            "{drift} across swap+sift on {} ({} swaps)",
            inst.spec_string(),
            stats.swaps
        )),
        None => Verdict::Pass,
    }
}

/// Compares `isf`, built from `inst` in `bdd` and possibly reordered
/// since, with a reference: the same instance built in a fresh
/// identity-order manager. Each root must transfer back under the
/// identity map to the reference's exact edge (hash-consing makes equal
/// functions equal edges) and keep its model count. Returns what
/// differs, if anything.
fn reorder_drift(inst: &Instance, bdd: &mut Bdd, isf: Isf) -> Option<String> {
    let mut reference = inst.fresh_manager();
    let want = inst.build(&mut reference);
    for (root, got, want) in [("f", isf.f, want.f), ("c", isf.c, want.c)] {
        match bdd.try_transfer(got, &mut reference, |v| v) {
            Ok(back) if back == want => {}
            Ok(_) => return Some(format!("{root} became a different function")),
            Err(e) => return Some(format!("{root} did not transfer back: {e}")),
        }
        let (before, after) = (reference.sat_count(want), bdd.sat_count(got));
        if before != after {
            return Some(format!("sat_count of {root} changed ({before} → {after})"));
        }
    }
    None
}

fn check_image_equivalence(inst: &Instance, mutant: Mutant) -> Verdict {
    use bddmin_fsm::{generators, SymbolicFsm};
    // Derive a random circuit deterministically from the instance so the
    // verdict is pure in `(oracle, inst, mutant)`: the leaves fold into
    // the generator seed, the var count picks the machine shape.
    let seed = inst
        .leaves
        .iter()
        .enumerate()
        .fold(0x243f_6a88_85a3_08d3u64, |acc, (i, leaf)| {
            let bits = match leaf {
                None => 2u64,
                Some(false) => 0,
                Some(true) => 1,
            };
            acc.rotate_left(7) ^ (bits.wrapping_add(i as u64 + 1))
        });
    let latches = 2 + inst.num_vars() % 3; // 2..=4
    let inputs = 1 + inst.specified() % 2; // 1..=2
    let circuit = generators::random_fsm("img", latches, inputs, seed);
    let mut fsm = SymbolicFsm::new(&circuit);
    if mutant == Mutant::BreakAndExists {
        fsm.bdd_mut().debug_break_and_exists();
    }
    let mut set = fsm.initial_states();
    for step in 0..4 {
        if inst.chaos.flush_between {
            fsm.bdd_mut().clear_caches();
        }
        if inst.chaos.gc_between {
            fsm.collect_garbage(&[set]);
        }
        let mono = fsm.image(set);
        let range = fsm.image_by_range(set);
        if mono != range {
            return Verdict::Fail(format!(
                "relational and range-method images diverged at BFS step {step} on \
                 random_fsm(seed={seed:#x}, latches={latches}, inputs={inputs})"
            ));
        }
        set = fsm.bdd_mut().or(set, mono);
    }
    Verdict::Pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_instance, ChaosPlan};
    use bddmin_core::rng::XorShift64;

    fn paper_instances() -> Vec<Instance> {
        [
            "d1 01",
            "d1 01 1d 01",
            "1d d1 d0 0d",
            "0d d1 10 01 11 d0 d1 00",
            "dd 01 11 d0",
        ]
        .iter()
        .map(|spec| {
            let leaves = bddmin_bdd::LeafSpec::parse(spec).unwrap().leaves();
            Instance::new(leaves, ChaosPlan::NONE)
        })
        .collect()
    }

    #[test]
    fn all_oracles_pass_on_paper_instances() {
        for inst in paper_instances() {
            for oracle in Oracle::ALL {
                let v = check(oracle, &inst, Mutant::None);
                assert!(
                    !v.is_fail(),
                    "{oracle} failed on {}: {v:?}",
                    inst.spec_string()
                );
            }
        }
    }

    #[test]
    fn all_oracles_pass_on_a_random_stream() {
        let mut rng = XorShift64::seed_from_u64(2024);
        for round in 0..40 {
            let inst = random_instance(&mut rng, round);
            for oracle in Oracle::ALL {
                let v = check(oracle, &inst, Mutant::None);
                assert!(
                    !v.is_fail(),
                    "{oracle} failed on {} (round {round}): {v:?}",
                    inst.spec_string()
                );
            }
        }
    }

    #[test]
    fn chaos_plans_do_not_change_verdicts() {
        let mut rng = XorShift64::seed_from_u64(77);
        for round in 0..12 {
            let mut inst = random_instance(&mut rng, round);
            inst.chaos = ChaosPlan {
                flush_between: true,
                gc_between: true,
                ..ChaosPlan::NONE
            };
            for oracle in [Oracle::Cover, Oracle::Invariance] {
                let v = check(oracle, &inst, Mutant::None);
                assert!(!v.is_fail(), "{oracle} failed under full chaos: {v:?}");
            }
        }
    }

    #[test]
    fn mid_sift_budget_abort_survivor_passes_the_oracle_checks() {
        // A sift aborted by a blown step budget must leave the manager
        // fully consistent: the same ground truths the reorder-invariance
        // oracle checks (exact functions against a fresh identity-order
        // copy, model counts) hold on the survivor, its GC stays
        // coherent, and every oracle is still green on the instance
        // family.
        for inst in paper_instances() {
            let mut bdd = inst.fresh_manager();
            let isf = inst.build(&mut bdd);
            bdd.pin(isf.f);
            bdd.pin(isf.c);
            let used = bdd.steps_used();
            bdd.set_budget(Budget::default().steps(used + 2));
            // Tiny instances may finish inside two steps; either outcome
            // must leave a consistent table.
            let _ = bdd.try_reorder(&ReorderSettings::sift(1.2));
            bdd.clear_budget();
            let drift = reorder_drift(&inst, &mut bdd, isf);
            assert_eq!(drift, None, "abort changed a function");
            bdd.collect_garbage(&[isf.f, isf.c]);
            for oracle in Oracle::ALL {
                let v = check(oracle, &inst, Mutant::None);
                assert!(!v.is_fail(), "{oracle} failed after mid-sift abort: {v:?}");
            }
        }
    }

    #[test]
    fn all_dc_instances_are_skipped_not_crashed() {
        let inst = Instance::new(vec![None, None, None, None], ChaosPlan::NONE);
        for oracle in Oracle::ALL {
            let v = check(oracle, &inst, Mutant::None);
            assert!(!v.is_fail(), "{oracle} must skip or pass on all-dc");
        }
    }

    #[test]
    fn oracle_and_mutant_names_round_trip() {
        for o in Oracle::ALL {
            assert_eq!(o.name().parse::<Oracle>().unwrap(), o);
        }
        assert!("bogus".parse::<Oracle>().is_err());
        for m in [Mutant::None].into_iter().chain(Mutant::BREAKING) {
            assert_eq!(m.name().parse::<Mutant>().unwrap(), m);
        }
        assert!("bogus".parse::<Mutant>().is_err());
        // Every breaking mutant declares its target oracle.
        for m in Mutant::BREAKING {
            assert!(m.target_oracle().is_some());
        }
    }

    #[test]
    fn break_reorder_mutant_fires_on_a_paper_instance() {
        let fired = paper_instances()
            .iter()
            .any(|inst| check(Oracle::ReorderInvariance, inst, Mutant::BreakReorder).is_fail());
        assert!(
            fired,
            "desynchronized level maps must change some signature on some paper instance"
        );
        for inst in paper_instances() {
            assert!(!check(Oracle::ReorderInvariance, &inst, Mutant::None).is_fail());
        }
    }

    #[test]
    fn break_and_exists_mutant_fires_on_a_paper_instance() {
        // The mutant drops e-branches inside the fused kernel, so the
        // relational image under-approximates while the range method
        // (which never calls and_exists) stays correct.
        let fired = paper_instances()
            .iter()
            .any(|inst| check(Oracle::ImageEquivalence, inst, Mutant::BreakAndExists).is_fail());
        assert!(
            fired,
            "an unconditional and_exists short-circuit must diverge on some paper instance"
        );
        for inst in paper_instances() {
            assert!(!check(Oracle::ImageEquivalence, &inst, Mutant::None).is_fail());
        }
    }

    #[test]
    fn image_equivalence_holds_under_flush_and_gc() {
        for mut inst in paper_instances() {
            inst.chaos = ChaosPlan {
                flush_between: true,
                gc_between: true,
                ..ChaosPlan::NONE
            };
            let v = check(Oracle::ImageEquivalence, &inst, Mutant::None);
            assert!(!v.is_fail(), "image equivalence failed under chaos: {v:?}");
        }
    }

    #[test]
    fn break_cover_mutant_fires_on_the_running_example() {
        let inst = Instance::new(
            vec![None, Some(true), Some(false), Some(true)],
            ChaosPlan::NONE,
        );
        assert!(check(Oracle::Cover, &inst, Mutant::BreakCover).is_fail());
        // And the real code path still passes, so the mutation is the
        // only difference.
        assert_eq!(check(Oracle::Cover, &inst, Mutant::None), Verdict::Pass);
    }
}
