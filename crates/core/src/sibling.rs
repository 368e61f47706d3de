//! The generic top-down sibling matcher (paper Figure 2, Section 3.2).
//!
//! For each node of `[f, c]` visited in a lock-step depth-first traversal,
//! the matcher tries to match the two *sibling* sub-functions
//! `[f_T, c_T]` and `[f_E, c_E]`. A successful match eliminates the parent
//! node (and one child); the configurable parameters
//!
//! 1. matching criterion (`osdm`, `osm`, `tsm`),
//! 2. match-complement flag (also try matching one sibling against the
//!    complement of the other),
//! 3. no-new-vars flag (when `f` is independent of the top care variable,
//!    quantify it out of `c` instead of splitting),
//!
//! yield the 12 combinations of paper Table 2, of which 8 are distinct —
//! including the classic `constrain` (osdm) and `restrict` (osdm +
//! no-new-vars) operators.

use bddmin_bdd::{Bdd, BudgetExceeded, Edge, BUDGET_PANIC, MAX_REC_DEPTH};

use crate::isf::Isf;
use crate::matching::{try_match_budgeted, MatchCriterion};
use crate::memo_tags::sibling_tag;
use crate::windowed::LevelWindow;

/// Parameters of the generic sibling matcher (paper Table 2 columns).
///
/// # Example
///
/// ```
/// use bddmin_core::{MatchCriterion, SiblingConfig};
/// let restrict = SiblingConfig::new(MatchCriterion::Osdm).no_new_vars(true);
/// assert_eq!(restrict.criterion, MatchCriterion::Osdm);
/// assert!(restrict.no_new_vars);
/// assert!(!restrict.match_complement);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SiblingConfig {
    /// Which matching criterion to apply to the siblings.
    pub criterion: MatchCriterion,
    /// Also try matching a sibling against the complement of the other
    /// (exploits complement output pointers; keeps the parent but recurses
    /// only once).
    pub match_complement: bool,
    /// The restrict-style rule: if `f` is independent of the top care
    /// variable, existentially quantify it out of `c` rather than splitting.
    pub no_new_vars: bool,
}

impl SiblingConfig {
    /// A configuration with both flags off.
    pub fn new(criterion: MatchCriterion) -> SiblingConfig {
        SiblingConfig {
            criterion,
            match_complement: false,
            no_new_vars: false,
        }
    }

    /// Sets the match-complement flag.
    #[must_use]
    pub fn match_complement(mut self, on: bool) -> SiblingConfig {
        self.match_complement = on;
        self
    }

    /// Sets the no-new-vars flag.
    #[must_use]
    pub fn no_new_vars(mut self, on: bool) -> SiblingConfig {
        self.no_new_vars = on;
        self
    }

    /// The paper's name for this configuration where one exists
    /// (Table 2), e.g. `constrain`, `restrict`, `osm_bt`.
    pub fn paper_name(self) -> &'static str {
        match (self.criterion, self.match_complement, self.no_new_vars) {
            (MatchCriterion::Osdm, false, false) | (MatchCriterion::Osdm, true, false) => {
                "constrain"
            }
            (MatchCriterion::Osdm, false, true) | (MatchCriterion::Osdm, true, true) => "restrict",
            (MatchCriterion::Osm, false, false) => "osm_td",
            (MatchCriterion::Osm, false, true) => "osm_nv",
            (MatchCriterion::Osm, true, false) => "osm_cp",
            (MatchCriterion::Osm, true, true) => "osm_bt",
            (MatchCriterion::Tsm, false, _) => "tsm_td",
            (MatchCriterion::Tsm, true, _) => "tsm_cp",
        }
    }
}

/// Runs the generic top-down sibling matcher and returns a cover of
/// `[f, c]` (paper Figure 2). An empty care set gives the constant 0:
/// every function covers it.
///
/// # Example
///
/// ```
/// use bddmin_bdd::Bdd;
/// use bddmin_core::{generic_td, Isf, MatchCriterion, SiblingConfig};
///
/// let mut bdd = Bdd::new(2);
/// let (f, c) = bdd.from_leaf_spec("d1 01").unwrap();
/// let cfg = SiblingConfig::new(MatchCriterion::Osm);
/// let g = generic_td(&mut bdd, Isf::new(f, c), cfg);
/// assert!(Isf::new(f, c).is_cover(&mut bdd, g));
/// ```
pub fn generic_td(bdd: &mut Bdd, isf: Isf, config: SiblingConfig) -> Edge {
    generic_td_budgeted(bdd, isf, config).expect(BUDGET_PANIC)
}

/// Checked [`generic_td`]: returns [`BudgetExceeded`] instead of running
/// past an armed budget. On error the traversal's partial work is
/// discarded (the memo keeps only completed sub-results, which remain
/// correct).
pub(crate) fn generic_td_budgeted(
    bdd: &mut Bdd,
    isf: Isf,
    config: SiblingConfig,
) -> Result<Edge, BudgetExceeded> {
    if isf.c.is_zero() {
        return Ok(Edge::ZERO);
    }
    // Sibling results are pure in (f, c, config): the unsalted tag shares
    // the manager-resident memo across invocations, so repeated calls on
    // overlapping instances cost nothing until the next cache flush.
    let tag = sibling_tag(config);
    let window = LevelWindow::all(bdd);
    Ok(sibling_rec::<false>(bdd, isf, config, window, tag, 0)?.f)
}

/// The sibling recursion of paper Figure 2, matching only at levels inside
/// `window` (Section 3.4's windowed pass; [`generic_td`] passes every
/// level). Above the window it splits without matching; at or below
/// `window.bottom` it returns the ISF untouched.
///
/// With `CARE` the result is the rewritten ISF, whose care set contains the
/// input's, and a split rebuilds the care set too. Without it only `.f` is
/// meaningful (a cover under a full window), a split builds one `ite`, and
/// the memo stores the single-edge result `(g, g)`.
pub(crate) fn sibling_rec<const CARE: bool>(
    bdd: &mut Bdd,
    isf: Isf,
    config: SiblingConfig,
    window: LevelWindow,
    tag: u64,
    depth: u32,
) -> Result<Isf, BudgetExceeded> {
    let Isf { f, c } = isf;
    if depth > MAX_REC_DEPTH {
        return Err(BudgetExceeded::DEPTH);
    }
    // All-DC and total ISFs have nothing to match; constants likewise.
    if c.is_zero() || c.is_one() || f.is_constant() {
        return Ok(isf);
    }
    if let Some((rf, rc)) = bdd.memo_get(tag, f, c) {
        return Ok(Isf { f: rf, c: rc });
    }
    let f_level = bdd.level(f);
    let c_level = bdd.level(c);
    let top = f_level.min(c_level);
    if top >= window.bottom {
        return Ok(isf);
    }
    let (f_t, f_e) = bdd.branches_at(f, top);
    let (c_t, c_e) = bdd.branches_at(c, top);
    let then_isf = Isf::new(f_t, c_t);
    let else_isf = Isf::new(f_e, c_e);

    let ret = 'step: {
        if window.contains(top) {
            if config.no_new_vars && c_level < f_level {
                // f is independent of the top care variable: keep it that
                // way by quantifying the variable out of the care function.
                let next = Isf::new(f, bdd.try_or(c_t, c_e)?);
                break 'step sibling_rec::<CARE>(bdd, next, config, window, tag, depth + 1)?;
            }
            if let Some(m) = try_match_budgeted(bdd, config.criterion, then_isf, else_isf)? {
                // Parent and one child eliminated.
                break 'step sibling_rec::<CARE>(bdd, m, config, window, tag, depth + 1)?;
            }
            if config.match_complement {
                let else_compl = else_isf.complement();
                if let Some(m) = try_match_budgeted(bdd, config.criterion, then_isf, else_compl)? {
                    // Parent kept, but only one recursion: then-branch is
                    // covered by the i-cover's cover, else-branch by its
                    // complement.
                    let t = sibling_rec::<CARE>(bdd, m, config, window, tag, depth + 1)?;
                    let v = bdd.try_var_at_level(top)?;
                    let g = bdd.try_ite(v, t.f, t.f.complement())?;
                    break 'step Isf { f: g, c: t.c };
                }
            }
        }
        // No match, or above the window: recurse on both branches.
        let t = sibling_rec::<CARE>(bdd, then_isf, config, window, tag, depth + 1)?;
        let e = sibling_rec::<CARE>(bdd, else_isf, config, window, tag, depth + 1)?;
        let v = bdd.try_var_at_level(top)?;
        let g = bdd.try_ite(v, t.f, e.f)?;
        let c = if CARE { bdd.try_ite(v, t.c, e.c)? } else { g };
        Isf { f: g, c }
    };
    let memo_c = if CARE { ret.c } else { ret.f };
    bdd.memo_insert(tag, f, c, (ret.f, memo_c));
    Ok(ret)
}

/// The 12 configurations of paper Table 2, for tests.
#[cfg(test)]
pub(crate) fn all_configs() -> Vec<SiblingConfig> {
    let mut v = Vec::new();
    for crit in MatchCriterion::ALL {
        for compl in [false, true] {
            for nnv in [false, true] {
                v.push(SiblingConfig {
                    criterion: crit,
                    match_complement: compl,
                    no_new_vars: nnv,
                });
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddmin_bdd::Var;

    #[test]
    fn every_config_produces_a_cover_on_paper_instances() {
        for spec in ["d1 01", "d1 01 1d 01", "1d d1 d0 0d", "01 0d 01 d1"] {
            for cfg in all_configs() {
                let mut bdd = Bdd::new(4);
                let (f, c) = bdd.from_leaf_spec(spec).unwrap();
                let isf = Isf::new(f, c);
                let g = generic_td(&mut bdd, isf, cfg);
                assert!(
                    isf.is_cover(&mut bdd, g),
                    "config {cfg:?} broke cover on {spec}"
                );
            }
        }
    }

    #[test]
    fn osdm_config_equals_classic_constrain() {
        // Paper Table 2 row 1: the framework instance with osdm and no
        // flags IS the constrain operator.
        let mut bdd = Bdd::new(4);
        let specs = ["d1 01", "d1 01 1d 01", "1d d1 d0 0d", "d1 11 0d 00"];
        for spec in specs {
            let (f, c) = bdd.from_leaf_spec(spec).unwrap();
            if c.is_zero() {
                continue;
            }
            let via_framework = generic_td(
                &mut bdd,
                Isf::new(f, c),
                SiblingConfig::new(MatchCriterion::Osdm),
            );
            let classic = bdd.constrain(f, c);
            assert_eq!(via_framework, classic, "mismatch on {spec}");
        }
    }

    #[test]
    fn osdm_nnv_config_equals_classic_restrict() {
        // Paper Table 2 row 2: osdm + no-new-vars IS the restrict operator.
        let mut bdd = Bdd::new(4);
        let specs = ["d1 01", "d1 01 1d 01", "1d d1 d0 0d", "dd 01 11 d0"];
        for spec in specs {
            let (f, c) = bdd.from_leaf_spec(spec).unwrap();
            if c.is_zero() {
                continue;
            }
            let via_framework = generic_td(
                &mut bdd,
                Isf::new(f, c),
                SiblingConfig::new(MatchCriterion::Osdm).no_new_vars(true),
            );
            let classic = bdd.restrict(f, c);
            assert_eq!(via_framework, classic, "mismatch on {spec}");
        }
    }

    #[test]
    fn table2_collapses_to_eight() {
        // Rows 3,4 equal rows 1,2 (complement matching has no effect on
        // osdm) and rows 10,12 equal rows 9,11 (no-new-vars has no effect
        // on tsm) — verified behaviourally on a batch of instances.
        let specs = [
            "d1 01",
            "d1 01 1d 01",
            "1d d1 d0 0d",
            "01 0d 01 d1",
            "dd 01 11 d0",
            "10 d1 0d 11",
            "0d d1 10 01 11 d0 d1 00",
        ];
        for spec in specs {
            let mut bdd = Bdd::new(4);
            let (f, c) = bdd.from_leaf_spec(spec).unwrap();
            if c.is_zero() {
                continue;
            }
            let isf = Isf::new(f, c);
            for nnv in [false, true] {
                let plain = generic_td(
                    &mut bdd,
                    isf,
                    SiblingConfig::new(MatchCriterion::Osdm).no_new_vars(nnv),
                );
                let with_compl = generic_td(
                    &mut bdd,
                    isf,
                    SiblingConfig::new(MatchCriterion::Osdm)
                        .no_new_vars(nnv)
                        .match_complement(true),
                );
                assert_eq!(plain, with_compl, "osdm compl flag changed {spec}");
            }
            for compl in [false, true] {
                let plain = generic_td(
                    &mut bdd,
                    isf,
                    SiblingConfig::new(MatchCriterion::Tsm).match_complement(compl),
                );
                let with_nnv = generic_td(
                    &mut bdd,
                    isf,
                    SiblingConfig::new(MatchCriterion::Tsm)
                        .match_complement(compl)
                        .no_new_vars(true),
                );
                assert_eq!(plain, with_nnv, "tsm nnv flag changed {spec}");
            }
        }
    }

    #[test]
    fn paper_counterexample_1_constrain() {
        // §3.2 example 1: instance (d1 01); constrain yields (11 01),
        // minimum is (01 01) — i.e. constrain returns 3 nodes (incl. const)
        // where 2 suffice.
        let mut bdd = Bdd::new(2);
        let (f, c) = bdd.from_leaf_spec("d1 01").unwrap();
        let g = bdd.constrain(f, c);
        let expected = bdd.from_leaf_spec("11 01").unwrap().0;
        assert_eq!(g, expected);
        // The minimum cover is x2 (the function (01 01)).
        let x2 = bdd.var(Var(1));
        assert!(Isf::new(f, c).is_cover(&mut bdd, x2));
        assert!(bdd.size(x2) < bdd.size(g));
        // osm_td and tsm_td do find a minimum here (the paper's point).
        for crit in [MatchCriterion::Osm, MatchCriterion::Tsm] {
            let h = generic_td(&mut bdd, Isf::new(f, c), SiblingConfig::new(crit));
            assert_eq!(bdd.size(h), bdd.size(x2), "{crit} should be optimal");
        }
    }

    #[test]
    fn paper_counterexample_2_osm_td() {
        // §3.2 example 2: instance (d1 01 1d 01); osm_td yields
        // (01 01 11 01), while (11 01 11 01) is minimum.
        let mut bdd = Bdd::new(3);
        let (f, c) = bdd.from_leaf_spec("d1 01 1d 01").unwrap();
        let isf = Isf::new(f, c);
        let osm_result = generic_td(&mut bdd, isf, SiblingConfig::new(MatchCriterion::Osm));
        let minimum = bdd.from_leaf_spec("11 01 11 01").unwrap().0;
        assert!(isf.is_cover(&mut bdd, minimum));
        assert!(
            bdd.size(osm_result) > bdd.size(minimum),
            "osm_td is suboptimal here: {} vs {}",
            bdd.size(osm_result),
            bdd.size(minimum)
        );
        // constrain and tsm_td find a minimum on this instance.
        let g_con = bdd.constrain(f, c);
        assert_eq!(bdd.size(g_con), bdd.size(minimum));
        let g_tsm = generic_td(&mut bdd, isf, SiblingConfig::new(MatchCriterion::Tsm));
        assert_eq!(bdd.size(g_tsm), bdd.size(minimum));
    }

    #[test]
    fn paper_counterexample_3_tsm_td() {
        // §3.2 example 3: instance (1d d1 d0 0d); tsm_td yields
        // (10 01 10 01), minimum is (11 11 00 00) = ¬x1? sizes differ.
        let mut bdd = Bdd::new(3);
        let (f, c) = bdd.from_leaf_spec("1d d1 d0 0d").unwrap();
        let isf = Isf::new(f, c);
        let tsm_result = generic_td(&mut bdd, isf, SiblingConfig::new(MatchCriterion::Tsm));
        let minimum = bdd.from_leaf_spec("11 11 00 00").unwrap().0;
        assert!(isf.is_cover(&mut bdd, minimum));
        assert!(
            bdd.size(tsm_result) > bdd.size(minimum),
            "tsm_td is suboptimal here: {} vs {}",
            bdd.size(tsm_result),
            bdd.size(minimum)
        );
        // constrain and osm_td find a minimum on this instance.
        let g_con = bdd.constrain(f, c);
        assert_eq!(bdd.size(g_con), bdd.size(minimum));
        let g_osm = generic_td(&mut bdd, isf, SiblingConfig::new(MatchCriterion::Osm));
        assert_eq!(bdd.size(g_osm), bdd.size(minimum));
    }

    #[test]
    fn trivial_care_cases() {
        // 0 ≠ c ≤ f ⟹ every heuristic returns 1; c ≤ ¬f ⟹ 0 (paper §3.1).
        let mut bdd = Bdd::new(2);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let f = bdd.or(a, b);
        let care_inside_f = bdd.and(a, b);
        let nf = bdd.not(f);
        for cfg in all_configs() {
            let g = generic_td(&mut bdd, Isf::new(f, care_inside_f), cfg);
            assert!(g.is_one(), "{cfg:?} should return 1");
            let g0 = generic_td(&mut bdd, Isf::new(f, nf), cfg);
            assert!(g0.is_zero(), "{cfg:?} should return 0");
        }
    }

    #[test]
    fn full_care_is_identity() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let f = bdd.xor(a, b);
        for cfg in all_configs() {
            assert_eq!(generic_td(&mut bdd, Isf::total(f), cfg), f);
        }
    }

    #[test]
    fn zero_care_gives_zero() {
        let mut bdd = Bdd::new(1);
        let a = bdd.var(Var(0));
        for cfg in all_configs() {
            assert_eq!(
                generic_td(&mut bdd, Isf::new(a, Edge::ZERO), cfg),
                Edge::ZERO
            );
        }
    }

    #[test]
    fn no_new_vars_avoids_foreign_support() {
        // f over {x2,x3}, c over {x1,x2,x3}: nnv configurations never
        // introduce x1 into the result.
        let mut bdd = Bdd::new(3);
        let x1 = bdd.var(Var(0));
        let x2 = bdd.var(Var(1));
        let x3 = bdd.var(Var(2));
        let f = bdd.xor(x2, x3);
        let x23 = bdd.and(x2, x3);
        let c = bdd.or(x1, x23);
        for crit in [MatchCriterion::Osdm, MatchCriterion::Osm] {
            let g = generic_td(
                &mut bdd,
                Isf::new(f, c),
                SiblingConfig::new(crit).no_new_vars(true),
            );
            assert!(!bdd.depends_on(g, Var(0)), "{crit} nnv introduced x1");
        }
        let _ = x1;
    }

    #[test]
    fn complement_match_helps_on_symmetric_instance() {
        // Build an instance where then/else siblings are complements on
        // their care sets, so only complement matching can fuse them.
        let mut bdd = Bdd::new(3);
        // f = x1 ? g : ¬g with g = x2^x3; full care.
        let x2 = bdd.var(Var(1));
        let x3 = bdd.var(Var(2));
        let g = bdd.xor(x2, x3);
        let x1 = bdd.var(Var(0));
        let f = bdd.ite(x1, g, bdd.not(g));
        // Punch a small DC hole so sibling matching has freedom.
        let hole = bdd.and(x2, x3);
        let c = bdd.not(hole);
        let isf = Isf::new(f, c);
        let plain = generic_td(&mut bdd, isf, SiblingConfig::new(MatchCriterion::Osm));
        let compl = generic_td(
            &mut bdd,
            isf,
            SiblingConfig::new(MatchCriterion::Osm).match_complement(true),
        );
        assert!(isf.is_cover(&mut bdd, plain));
        assert!(isf.is_cover(&mut bdd, compl));
        assert!(bdd.size(compl) <= bdd.size(plain));
    }

    #[test]
    fn never_introduces_variable_outside_both_supports() {
        // Paper §3.2: "It is never beneficial to introduce a variable that
        // is in neither the support of f nor c. All our algorithms
        // guarantee that this never happens."
        let mut bdd = Bdd::new(4);
        let x2 = bdd.var(Var(1));
        let x4 = bdd.var(Var(3));
        let f = bdd.xor(x2, x4);
        let c = bdd.or(x2, x4);
        for cfg in all_configs() {
            let g = generic_td(&mut bdd, Isf::new(f, c), cfg);
            assert!(!bdd.depends_on(g, Var(0)), "{cfg:?} introduced x1");
            assert!(!bdd.depends_on(g, Var(2)), "{cfg:?} introduced x3");
        }
    }

    #[test]
    fn paper_names() {
        assert_eq!(
            SiblingConfig::new(MatchCriterion::Osdm).paper_name(),
            "constrain"
        );
        assert_eq!(
            SiblingConfig::new(MatchCriterion::Osdm)
                .no_new_vars(true)
                .paper_name(),
            "restrict"
        );
        assert_eq!(
            SiblingConfig::new(MatchCriterion::Osm)
                .match_complement(true)
                .no_new_vars(true)
                .paper_name(),
            "osm_bt"
        );
        assert_eq!(
            SiblingConfig::new(MatchCriterion::Tsm)
                .no_new_vars(true)
                .paper_name(),
            "tsm_td"
        );
    }
}
