//! Windowed sibling matching: a partial-consumption variant of the generic
//! top-down matcher used by the scheduler (paper Section 3.4).
//!
//! Unlike [`generic_td`](crate::generic_td), which drives the don't cares to
//! exhaustion and returns a *cover*, a windowed pass only attempts matches
//! at levels inside `[window.top, window.bottom)` and leaves everything
//! below untouched, returning a **new incompletely specified function**
//! whose care set contains the original's. Passes therefore compose: the
//! scheduler chains osm and tsm windows before finishing with `constrain`.

use bddmin_bdd::{Bdd, BudgetExceeded, Var};

use crate::isf::Isf;
use crate::matching::try_match_budgeted;
use crate::memo_tags::window_tag;
use crate::sibling::SiblingConfig;
use crate::{BUDGET_PANIC, MAX_REC_DEPTH};

/// A half-open band of levels `[top, bottom)` in which matching is allowed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelWindow {
    /// First level (inclusive) where matches may be made.
    pub top: Var,
    /// First level (exclusive) below the window.
    pub bottom: Var,
}

impl LevelWindow {
    /// A window spanning `[top, bottom)`.
    ///
    /// # Panics
    ///
    /// Panics if `top > bottom`.
    pub fn new(top: Var, bottom: Var) -> LevelWindow {
        assert!(top <= bottom, "window top below bottom");
        LevelWindow { top, bottom }
    }

    /// A window covering every level (equivalent to a full pass).
    pub fn all(bdd: &Bdd) -> LevelWindow {
        LevelWindow {
            top: Var(0),
            bottom: Var(bdd.num_vars() as u32),
        }
    }

    /// True if matching is allowed at `level`.
    pub fn contains(self, level: Var) -> bool {
        self.top <= level && level < self.bottom
    }
}

/// Runs one sibling-matching pass restricted to `window`, returning the
/// rewritten ISF (care set grows or stays; never shrinks).
///
/// Levels above the window are traversed without matching; levels at or
/// below `window.bottom` are returned untouched.
///
/// # Example
///
/// ```
/// use bddmin_bdd::{Bdd, Var};
/// use bddmin_core::{windowed_sibling_pass, Isf, LevelWindow, MatchCriterion, SiblingConfig};
///
/// let mut bdd = Bdd::new(3);
/// let (f, c) = bdd.from_leaf_spec("d1 01 1d 01").unwrap();
/// let isf = Isf::new(f, c);
/// let window = LevelWindow::new(Var(0), Var(2));
/// let out = windowed_sibling_pass(
///     &mut bdd, isf, SiblingConfig::new(MatchCriterion::Osm), window);
/// assert!(out.i_covers(&mut bdd, isf));
/// ```
pub fn windowed_sibling_pass(
    bdd: &mut Bdd,
    isf: Isf,
    config: SiblingConfig,
    window: LevelWindow,
) -> Isf {
    windowed_sibling_pass_budgeted(bdd, isf, config, window).expect(BUDGET_PANIC)
}

/// Checked [`windowed_sibling_pass`]: returns
/// [`BudgetExceeded`](bddmin_bdd::BudgetExceeded) instead of running past
/// an armed budget. On error the pass's partial work is discarded; the
/// input ISF remains the valid state to continue from.
pub fn windowed_sibling_pass_budgeted(
    bdd: &mut Bdd,
    isf: Isf,
    config: SiblingConfig,
    window: LevelWindow,
) -> Result<Isf, BudgetExceeded> {
    // Pass results are pure in (f, c, config, window); the window bounds
    // are folded into the manager-resident memo tag, so the scheduler's
    // repeated passes over shifting windows never cross-contaminate.
    let tag = window_tag(config, window);
    pass_rec(bdd, isf, config, window, tag, 0)
}

fn pass_rec(
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
    let in_window = window.contains(top);

    let ret = if in_window && config.no_new_vars && c_level < f_level {
        let c_next = bdd.try_or(c_t, c_e)?;
        pass_rec(bdd, Isf::new(f, c_next), config, window, tag, depth + 1)?
    } else if in_window {
        if let Some(m) = try_match_budgeted(bdd, config.criterion, then_isf, else_isf)? {
            pass_rec(bdd, m, config, window, tag, depth + 1)?
        } else if config.match_complement {
            if let Some(m) =
                try_match_budgeted(bdd, config.criterion, then_isf, else_isf.complement())?
            {
                let t = pass_rec(bdd, m, config, window, tag, depth + 1)?;
                rebuild_complement(bdd, top, t)?
            } else {
                rebuild_split(bdd, top, then_isf, else_isf, config, window, tag, depth)?
            }
        } else {
            rebuild_split(bdd, top, then_isf, else_isf, config, window, tag, depth)?
        }
    } else {
        // Above the window: descend without matching.
        rebuild_split(bdd, top, then_isf, else_isf, config, window, tag, depth)?
    };
    bdd.memo_insert(tag, f, c, (ret.f, ret.c));
    Ok(ret)
}

#[allow(clippy::too_many_arguments)]
fn rebuild_split(
    bdd: &mut Bdd,
    top: Var,
    then_isf: Isf,
    else_isf: Isf,
    config: SiblingConfig,
    window: LevelWindow,
    tag: u64,
    depth: u32,
) -> Result<Isf, BudgetExceeded> {
    let t = pass_rec(bdd, then_isf, config, window, tag, depth + 1)?;
    let e = pass_rec(bdd, else_isf, config, window, tag, depth + 1)?;
    let v = bdd.try_var_at_level(top)?;
    Ok(Isf {
        f: bdd.try_ite(v, t.f, e.f)?,
        c: bdd.try_ite(v, t.c, e.c)?,
    })
}

fn rebuild_complement(bdd: &mut Bdd, top: Var, t: Isf) -> Result<Isf, BudgetExceeded> {
    let v = bdd.try_var_at_level(top)?;
    Ok(Isf {
        f: bdd.try_ite(v, t.f, t.f.complement())?,
        c: t.c,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::MatchCriterion;
    use crate::sibling::generic_td;
    use bddmin_bdd::Edge;

    fn osm() -> SiblingConfig {
        SiblingConfig::new(MatchCriterion::Osm)
    }

    #[test]
    fn full_window_matches_generic_td_semantics() {
        // A full-window pass followed by reading off the representative is
        // a cover; moreover for instances where the full matcher consumes
        // all DCs the two agree on the care set.
        for spec in ["d1 01", "d1 01 1d 01", "1d d1 d0 0d"] {
            let mut bdd = Bdd::new(3);
            let (f, c) = bdd.from_leaf_spec(spec).unwrap();
            let isf = Isf::new(f, c);
            let w = LevelWindow::all(&bdd);
            let out = windowed_sibling_pass(&mut bdd, isf, osm(), w);
            assert!(out.i_covers(&mut bdd, isf), "{spec}");
            let full = generic_td(&mut bdd, isf, osm());
            // Both are covers of the original.
            assert!(isf.is_cover(&mut bdd, full));
            assert!(out.is_cover(&mut bdd, full) || isf.is_cover(&mut bdd, out.f));
        }
    }

    #[test]
    fn care_set_only_grows() {
        for spec in ["d1 01 1d 01", "0d d1 10 01 11 d0 d1 00"] {
            let mut bdd = Bdd::new(4);
            let (f, c) = bdd.from_leaf_spec(spec).unwrap();
            let isf = Isf::new(f, c);
            let mut cur = isf;
            for crit in MatchCriterion::ALL {
                let cfg = SiblingConfig::new(crit);
                let next =
                    { let w = LevelWindow::all(&bdd); windowed_sibling_pass(&mut bdd, cur, cfg, w) };
                assert!(
                    bdd.implies_holds(cur.c, next.c),
                    "care shrank under {crit} on {spec}"
                );
                assert!(next.i_covers(&mut bdd, cur));
                cur = next;
            }
            // Chained passes still i-cover the original instance.
            assert!(cur.i_covers(&mut bdd, isf));
        }
    }

    #[test]
    fn empty_window_is_identity() {
        let mut bdd = Bdd::new(3);
        let (f, c) = bdd.from_leaf_spec("d1 01 1d 01").unwrap();
        let isf = Isf::new(f, c);
        let w = LevelWindow::new(Var(0), Var(0));
        let out = windowed_sibling_pass(&mut bdd, isf, osm(), w);
        assert_eq!(out, isf);
    }

    #[test]
    fn window_below_top_leaves_upper_structure() {
        // With the window starting at level 1, the top variable's node is
        // never matched away.
        let mut bdd = Bdd::new(3);
        let (f, c) = bdd.from_leaf_spec("d1 01 1d 01").unwrap();
        let isf = Isf::new(f, c);
        let w = LevelWindow::new(Var(1), Var(3));
        let out = windowed_sibling_pass(&mut bdd, isf, osm(), w);
        assert!(out.i_covers(&mut bdd, isf));
    }

    #[test]
    fn all_dc_passthrough() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(Var(0));
        let isf = Isf::new(a, Edge::ZERO);
        let w = LevelWindow::all(&bdd);
            let out = windowed_sibling_pass(&mut bdd, isf, osm(), w);
        assert_eq!(out, isf);
    }

    #[test]
    fn window_containment() {
        let w = LevelWindow::new(Var(2), Var(5));
        assert!(!w.contains(Var(1)));
        assert!(w.contains(Var(2)));
        assert!(w.contains(Var(4)));
        assert!(!w.contains(Var(5)));
    }

    #[test]
    #[should_panic(expected = "window top below bottom")]
    fn bad_window_panics() {
        let _ = LevelWindow::new(Var(3), Var(1));
    }
}
