//! The heuristic registry: every minimizer evaluated in the paper behind a
//! single interface (paper Section 4.1.2).
//!
//! Twelve "heuristics" are compared: eight distinct sibling matchers
//! (including `constrain` and `restrict`), the level matcher `opt_lv`, and
//! three trivial baselines `f_orig` (return `f`), `f_and_c` (the onset) and
//! `f_or_nc` (the upper bound). The pseudo-heuristic `min` — the best result
//! over all heuristics — is computed by [`minimize_all`].

use std::time::{Duration, Instant};

use bddmin_bdd::{Bdd, Budget, Edge};

use crate::isf::Isf;
use crate::level::{opt_lv_steps, CliqueOptions};
use crate::matching::MatchCriterion;
use crate::report::{MinReport, StepKind};
use crate::schedule::Schedule;
use crate::sibling::{generic_td_budgeted, SiblingConfig};

/// A named BDD minimization heuristic.
///
/// # Example
///
/// ```
/// use bddmin_bdd::Bdd;
/// use bddmin_core::{Heuristic, Isf};
///
/// let mut bdd = Bdd::new(2);
/// let (f, c) = bdd.from_leaf_spec("d1 01").unwrap();
/// let isf = Isf::new(f, c);
/// for h in Heuristic::ALL {
///     let g = h.minimize(&mut bdd, isf);
///     assert!(isf.is_cover(&mut bdd, g), "{h} must return a cover");
/// }
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// `f` itself (always a cover; the baseline for reduction factors).
    FOrig,
    /// The onset `f·c` (lower interval end; usually a poor cover).
    FAndC,
    /// The upper bound `f + ¬c`.
    FOrNc,
    /// The classic generalized cofactor (osdm siblings).
    Constrain,
    /// The classic restrict operator (osdm siblings + no-new-vars).
    Restrict,
    /// osm siblings, plain top-down.
    OsmTd,
    /// osm siblings + no-new-vars.
    OsmNv,
    /// osm siblings + complement matching.
    OsmCp,
    /// osm siblings + complement matching + no-new-vars ("best": the
    /// paper's overall winner).
    OsmBt,
    /// tsm siblings, plain top-down.
    TsmTd,
    /// tsm siblings + complement matching.
    TsmCp,
    /// Level matching with tsm, greedy clique cover.
    OptLv,
    /// The windowed schedule of Section 3.4 (this paper's proposal for a
    /// robust combination; not part of the paper's Table 3).
    Scheduled,
}

impl Heuristic {
    /// The twelve heuristics of the paper's experiments (Table 3), in the
    /// order of Section 4.1.2.
    pub const ALL: [Heuristic; 12] = [
        Heuristic::FOrig,
        Heuristic::FAndC,
        Heuristic::FOrNc,
        Heuristic::Constrain,
        Heuristic::Restrict,
        Heuristic::OsmTd,
        Heuristic::OsmNv,
        Heuristic::OsmCp,
        Heuristic::OsmBt,
        Heuristic::TsmTd,
        Heuristic::TsmCp,
        Heuristic::OptLv,
    ];

    /// The eight distinct sibling-matching heuristics (paper Table 2).
    pub const SIBLING: [Heuristic; 8] = [
        Heuristic::Constrain,
        Heuristic::Restrict,
        Heuristic::OsmTd,
        Heuristic::OsmNv,
        Heuristic::OsmCp,
        Heuristic::OsmBt,
        Heuristic::TsmTd,
        Heuristic::TsmCp,
    ];

    /// The paper's name for the heuristic.
    pub fn name(self) -> &'static str {
        match self {
            Heuristic::FOrig => "f_orig",
            Heuristic::FAndC => "f_and_c",
            Heuristic::FOrNc => "f_or_nc",
            Heuristic::Constrain => "const",
            Heuristic::Restrict => "restr",
            Heuristic::OsmTd => "osm_td",
            Heuristic::OsmNv => "osm_nv",
            Heuristic::OsmCp => "osm_cp",
            Heuristic::OsmBt => "osm_bt",
            Heuristic::TsmTd => "tsm_td",
            Heuristic::TsmCp => "tsm_cp",
            Heuristic::OptLv => "opt_lv",
            Heuristic::Scheduled => "sched",
        }
    }

    /// The sibling-matcher configuration, for the heuristics that have one.
    fn sibling_config(self) -> Option<SiblingConfig> {
        let cfg = match self {
            Heuristic::Constrain => SiblingConfig::new(MatchCriterion::Osdm),
            Heuristic::Restrict => SiblingConfig::new(MatchCriterion::Osdm).no_new_vars(true),
            Heuristic::OsmTd => SiblingConfig::new(MatchCriterion::Osm),
            Heuristic::OsmNv => SiblingConfig::new(MatchCriterion::Osm).no_new_vars(true),
            Heuristic::OsmCp => SiblingConfig::new(MatchCriterion::Osm).match_complement(true),
            Heuristic::OsmBt => SiblingConfig::new(MatchCriterion::Osm)
                .match_complement(true)
                .no_new_vars(true),
            Heuristic::TsmTd => SiblingConfig::new(MatchCriterion::Tsm),
            Heuristic::TsmCp => SiblingConfig::new(MatchCriterion::Tsm).match_complement(true),
            _ => return None,
        };
        Some(cfg)
    }

    /// Runs the heuristic on `[f, c]` and returns a cover.
    ///
    /// This is the paper's raw result: no budget is armed and no clamp
    /// applies, so the cover may be larger than `f`. A step that trips
    /// the kernel's recursion-depth guard (a BDD deeper than
    /// [`bddmin_bdd::MAX_REC_DEPTH`] levels) is skipped as it would be
    /// under a budget, so the call returns rather than panics. On an
    /// empty care set every function is a cover: the matchers, `opt_lv`
    /// and the schedule return the constant 0.
    pub fn minimize(self, bdd: &mut Bdd, isf: Isf) -> Edge {
        self.run(bdd, isf, &mut MinReport::new())
    }

    /// Runs the heuristic under a resource budget, degrading gracefully.
    ///
    /// The budget is armed on entry and cleared before returning. When a
    /// step blows the budget it is skipped and recorded in the
    /// [`MinReport`]; the returned edge is **always** a valid cover of
    /// `[f, c]` no larger than `f` itself (worst case `f`). The
    /// multi-step heuristics — [`Heuristic::OptLv`] skips individual
    /// level passes, [`Heuristic::Scheduled`] follows the schedule's
    /// degradation ladder — keep whatever completed; the single-shot
    /// heuristics fall back to `f` wholesale.
    ///
    /// With [`Budget::UNLIMITED`] the cover equals
    /// [`Heuristic::minimize`]'s, unless that is larger than `f`: then
    /// the clamp returns `f` and sets `fell_back_to_f` (the practical
    /// guard discussed after paper Proposition 6).
    pub fn minimize_budgeted(self, bdd: &mut Bdd, isf: Isf, budget: Budget) -> (Edge, MinReport) {
        run_budgeted(bdd, isf, budget, |bdd, report| self.run(bdd, isf, report))
    }

    /// Runs the heuristic under `limits`: [`Heuristic::minimize`] with
    /// no report when no limit is armed, else
    /// [`Heuristic::minimize_budgeted`] with its report, on a budget built
    /// at this call (so a wall-clock limit restarts per run). The one
    /// place the CLI, the evaluation runner and the service choose
    /// between the raw and the clamped result.
    pub fn minimize_with(
        self,
        bdd: &mut Bdd,
        isf: Isf,
        limits: BudgetLimits,
    ) -> (Edge, Option<MinReport>) {
        if limits.armed() {
            let (g, report) = self.minimize_budgeted(bdd, isf, limits.to_budget());
            (g, Some(report))
        } else {
            (self.minimize(bdd, isf), None)
        }
    }

    /// The step driver behind both entry points: runs the heuristic
    /// against whatever budget is armed and records each step.
    fn run(self, bdd: &mut Bdd, isf: Isf, report: &mut MinReport) -> Edge {
        let outcome = match self {
            Heuristic::OptLv => return opt_lv_steps(bdd, isf, CliqueOptions::default(), report),
            Heuristic::Scheduled => return Schedule::default().run(bdd, isf, report),
            Heuristic::FOrig => Ok(isf.f),
            Heuristic::FAndC => isf.try_onset(bdd),
            Heuristic::FOrNc => isf.try_upper(bdd),
            _ => {
                let cfg = self.sibling_config().expect("sibling heuristic");
                generic_td_budgeted(bdd, isf, cfg)
            }
        };
        report
            .record(StepKind::Direct, None, outcome)
            .unwrap_or(isf.f)
    }
}

/// Arms `budget`, runs a step driver, clears the budget and applies the
/// soundness clamp: the one budgeted path of every heuristic and the
/// schedule.
pub(crate) fn run_budgeted(
    bdd: &mut Bdd,
    isf: Isf,
    budget: Budget,
    driver: impl FnOnce(&mut Bdd, &mut MinReport) -> Edge,
) -> (Edge, MinReport) {
    let mut report = MinReport::new();
    bdd.set_budget(budget);
    let candidate = driver(bdd, &mut report);
    bdd.clear_budget();
    let g = clamp_to_f(bdd, isf, candidate, &mut report);
    (g, report)
}

/// The soundness clamp, run with the budget cleared: accept the
/// candidate only if it is provably a cover (Definition 1) no larger
/// than `f`; otherwise return `f` itself. Coverage is decided with the
/// fallible `try_agree`, so a candidate too deep to check falls back to
/// `f` instead of panicking.
fn clamp_to_f(bdd: &mut Bdd, isf: Isf, candidate: Edge, report: &mut MinReport) -> Edge {
    let covers = bdd.try_agree(candidate, isf.f, isf.c) == Ok(true);
    if covers && bdd.size(candidate) <= bdd.size(isf.f) {
        candidate
    } else {
        report.fell_back_to_f = true;
        isf.f
    }
}

/// Per-run resource limits of the degradation ladder (`None` =
/// unlimited), as the CLI flags, the evaluation runner and the service's
/// job fields set them.
///
/// Each armed limit applies to every *individual* heuristic run: the
/// step/node ceilings are deterministic, the wall-clock limit is rebuilt
/// from `Instant::now()` at each [`BudgetLimits::to_budget`] call so one
/// slow heuristic cannot starve the rest of a sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetLimits {
    /// `--step-limit`: deterministic cap on minimization steps.
    pub step_limit: Option<u64>,
    /// `--node-limit`: ceiling on live BDD nodes during minimization.
    pub node_limit: Option<usize>,
    /// `--time-limit`: wall-clock milliseconds per heuristic run.
    /// Nondeterministic — keep it out of byte-comparison CI paths.
    pub time_limit_ms: Option<u64>,
}

impl BudgetLimits {
    /// True when any limit is armed. When false,
    /// [`Heuristic::minimize_with`] runs the plain [`Heuristic::minimize`]
    /// and its output is the unbudgeted one.
    pub fn armed(&self) -> bool {
        self.step_limit.is_some() || self.node_limit.is_some() || self.time_limit_ms.is_some()
    }

    /// Builds a fresh budget; the wall-clock allowance starts counting
    /// from the moment of this call.
    pub fn to_budget(&self) -> Budget {
        let mut budget = Budget::default();
        if let Some(steps) = self.step_limit {
            budget = budget.steps(steps);
        }
        if let Some(nodes) = self.node_limit {
            budget = budget.nodes(nodes);
        }
        if let Some(ms) = self.time_limit_ms {
            budget = budget.deadline(Instant::now() + Duration::from_millis(ms));
        }
        budget
    }
}

impl std::fmt::Display for Heuristic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown heuristic name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseHeuristicError {
    name: String,
}

impl std::fmt::Display for ParseHeuristicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown heuristic {:?}", self.name)
    }
}

impl std::error::Error for ParseHeuristicError {}

impl std::str::FromStr for Heuristic {
    type Err = ParseHeuristicError;

    /// Parses the paper's heuristic names (`const`, `restr`, `osm_bt`, …),
    /// also accepting the long spellings `constrain` and `restrict`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let all = Heuristic::ALL.into_iter().chain([Heuristic::Scheduled]);
        for h in all {
            if h.name() == s {
                return Ok(h);
            }
        }
        match s {
            "constrain" => Ok(Heuristic::Constrain),
            "restrict" => Ok(Heuristic::Restrict),
            _ => Err(ParseHeuristicError { name: s.to_owned() }),
        }
    }
}

/// Runs every heuristic in [`Heuristic::ALL`] and returns `(results, min)`:
/// the per-heuristic covers and the paper's `min` pseudo-heuristic (the
/// smallest result found).
pub fn minimize_all(bdd: &mut Bdd, isf: Isf) -> (Vec<(Heuristic, Edge)>, Edge) {
    let mut results = Vec::with_capacity(Heuristic::ALL.len());
    let mut best: Option<(usize, Edge)> = None;
    for h in Heuristic::ALL {
        let g = h.minimize(bdd, isf);
        let size = bdd.size(g);
        if best.is_none_or(|(bs, _)| size < bs) {
            best = Some((size, g));
        }
        results.push((h, g));
    }
    (results, best.expect("at least one heuristic").1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddmin_bdd::Var;

    #[test]
    fn all_heuristics_cover_all_specs() {
        let specs = [
            "d1 01",
            "d1 01 1d 01",
            "1d d1 d0 0d",
            "0d d1 10 01 11 d0 d1 00",
            "dd 01 11 d0",
        ];
        for spec in specs {
            let mut bdd = Bdd::new(4);
            let (f, c) = bdd.from_leaf_spec(spec).unwrap();
            let isf = Isf::new(f, c);
            if isf.c.is_zero() {
                continue;
            }
            for h in Heuristic::ALL.into_iter().chain([Heuristic::Scheduled]) {
                let g = h.minimize(&mut bdd, isf);
                assert!(isf.is_cover(&mut bdd, g), "{h} broke cover on {spec}");
            }
        }
    }

    #[test]
    fn min_is_never_larger_than_anyone() {
        let mut bdd = Bdd::new(3);
        let (f, c) = bdd.from_leaf_spec("d1 01 1d 01").unwrap();
        let isf = Isf::new(f, c);
        let (results, min) = minimize_all(&mut bdd, isf);
        let min_size = bdd.size(min);
        for (h, g) in results {
            assert!(min_size <= bdd.size(g), "min beaten by {h}");
        }
        assert!(isf.is_cover(&mut bdd, min));
    }

    #[test]
    fn checked_minimize_clamps_growth() {
        // Construct an instance where constrain grows the BDD: Madre's
        // example with c = x·f + ¬x·¬f for f independent of x.
        let mut bdd = Bdd::new(5);
        let x = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c2 = bdd.var(Var(2));
        let d = bdd.var(Var(3));
        let e = bdd.var(Var(4));
        let f = {
            let t1 = bdd.xor(b, c2);
            let t2 = bdd.xor(d, e);
            let big = bdd.or(t1, t2);
            bdd.and(big, d)
        };
        let nf = bdd.not(f);
        let care = bdd.ite(x, f, nf);
        let isf = Isf::new(f, care);
        let raw = Heuristic::Constrain.minimize(&mut bdd, isf);
        let (checked, report) =
            Heuristic::Constrain.minimize_budgeted(&mut bdd, isf, Budget::UNLIMITED);
        assert!(isf.is_cover(&mut bdd, checked));
        assert!(bdd.size(checked) <= bdd.size(isf.f));
        assert_eq!(report.skipped(), 0);
        if bdd.size(raw) > bdd.size(isf.f) {
            assert!(report.fell_back_to_f);
            assert_eq!(checked, isf.f);
        } else {
            assert_eq!(checked, raw);
        }
    }

    #[test]
    fn trivial_heuristics_shapes() {
        let mut bdd = Bdd::new(2);
        let (f, c) = bdd.from_leaf_spec("d1 01").unwrap();
        let isf = Isf::new(f, c);
        assert_eq!(Heuristic::FOrig.minimize(&mut bdd, isf), f);
        let onset = isf.onset(&mut bdd);
        assert_eq!(Heuristic::FAndC.minimize(&mut bdd, isf), onset);
        let upper = isf.upper(&mut bdd);
        assert_eq!(Heuristic::FOrNc.minimize(&mut bdd, isf), upper);
    }

    #[test]
    fn parse_round_trip() {
        for h in Heuristic::ALL.into_iter().chain([Heuristic::Scheduled]) {
            let parsed: Heuristic = h.name().parse().unwrap();
            assert_eq!(parsed, h);
        }
        assert_eq!("constrain".parse::<Heuristic>(), Ok(Heuristic::Constrain));
        assert_eq!("restrict".parse::<Heuristic>(), Ok(Heuristic::Restrict));
        assert!("bogus".parse::<Heuristic>().is_err());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Heuristic::ALL.iter().map(|h| h.name()).collect();
        names.push(Heuristic::Scheduled.name());
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn sibling_configs_match_table2() {
        assert_eq!(
            Heuristic::Constrain.sibling_config().unwrap().paper_name(),
            "constrain"
        );
        assert_eq!(
            Heuristic::Restrict.sibling_config().unwrap().paper_name(),
            "restrict"
        );
        assert_eq!(
            Heuristic::OsmBt.sibling_config().unwrap().paper_name(),
            "osm_bt"
        );
        assert!(Heuristic::OptLv.sibling_config().is_none());
        assert!(Heuristic::FOrig.sibling_config().is_none());
    }

    #[test]
    fn cube_care_is_optimal_for_all_sibling_heuristics() {
        // Theorem 7 (and its analogues): when c is a cube every sibling
        // heuristic returns a minimum cover. Verify against exhaustive
        // search over 3-variable instances.
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let cc = bdd.var(Var(2));
        let nb = bdd.not(b);
        let cubes = [a, nb, bdd.and(a, nb), bdd.and(b, cc)];
        let x = bdd.xor(a, b);
        let fs = [bdd.xor(x, cc), bdd.or(x, cc), bdd.and(a, cc)];
        for &f in &fs {
            for &cube in &cubes {
                let isf = Isf::new(f, cube);
                let best = exhaustive_min_size(&mut bdd, isf);
                for h in Heuristic::SIBLING {
                    let g = h.minimize(&mut bdd, isf);
                    assert_eq!(bdd.size(g), best, "{h} not optimal for cube care");
                }
            }
        }
    }

    fn exhaustive_min_size(bdd: &mut Bdd, isf: Isf) -> usize {
        let mut best = usize::MAX;
        for table in 0u32..256 {
            let mut g = Edge::ZERO;
            for row in 0..8 {
                if table >> row & 1 == 1 {
                    let lits: Vec<(Var, bool)> = (0..3)
                        .map(|v| (Var(v as u32), row >> (2 - v) & 1 == 1))
                        .collect();
                    let cube = bddmin_bdd::Cube::new(lits).to_edge(bdd);
                    g = bdd.or(g, cube);
                }
            }
            if isf.is_cover(bdd, g) {
                best = best.min(bdd.size(g));
            }
        }
        best
    }
}
