//! Windowed sibling matching: a partial-consumption variant of the generic
//! top-down matcher used by the scheduler (paper Section 3.4).
//!
//! Both run the one sibling recursion (`sibling::sibling_rec`). Unlike
//! [`generic_td`](crate::generic_td), which drives the don't cares to
//! exhaustion and returns a *cover*, a windowed pass only attempts matches
//! at levels inside `[window.top, window.bottom)` and leaves everything
//! below untouched, returning a **new incompletely specified function**
//! whose care set contains the original's. Passes therefore compose: the
//! scheduler chains osm and tsm windows before finishing with `constrain`.

use bddmin_bdd::{Bdd, BudgetExceeded, Var, BUDGET_PANIC};

use crate::isf::Isf;
use crate::memo_tags::window_tag;
use crate::sibling::{sibling_rec, SiblingConfig};

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

/// Checked [`windowed_sibling_pass`]: returns [`BudgetExceeded`] instead
/// of running past an armed budget. On error the pass's partial work is
/// discarded; the input ISF remains the valid state to continue from.
pub(crate) fn windowed_sibling_pass_budgeted(
    bdd: &mut Bdd,
    isf: Isf,
    config: SiblingConfig,
    window: LevelWindow,
) -> Result<Isf, BudgetExceeded> {
    // Pass results are pure in (f, c, config, window); the window bounds
    // are folded into the manager-resident memo tag, so the scheduler's
    // repeated passes over shifting windows never cross-contaminate.
    let tag = window_tag(config, window);
    sibling_rec::<true>(bdd, isf, config, window, tag, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::random_sop;
    use crate::matching::MatchCriterion;
    use crate::rng::XorShift64;
    use crate::sibling::{all_configs, generic_td, generic_td_budgeted};
    use bddmin_bdd::{Budget, Edge, ReorderSettings};

    fn osm() -> SiblingConfig {
        SiblingConfig::new(MatchCriterion::Osm)
    }

    #[test]
    fn full_window_pass_is_generic_td() {
        // Both entry points run one recursion; under a full window the
        // pass's representative is exactly generic_td's cover, and an armed
        // budget that never trips changes no edge.
        let mut rng = XorShift64::seed_from_u64(0x51B1);
        let mut compared = 0;
        for n in [4usize, 7, 10] {
            for sifted in [false, true] {
                for _ in 0..4 {
                    let mut bdd = Bdd::new(n);
                    let f = random_sop(&mut bdd, &mut rng, n);
                    let c = random_sop(&mut bdd, &mut rng, n / 2 + 1);
                    let c = if rng.gen_bool(0.5) { c.complement() } else { c };
                    if sifted {
                        bdd.pin(f);
                        bdd.pin(c);
                        for i in (0..n - 1).step_by(3) {
                            bdd.swap_levels(i);
                        }
                        bdd.reorder(&ReorderSettings::default());
                    }
                    let isf = Isf::new(f, c);
                    for cfg in all_configs() {
                        let w = LevelWindow::all(&bdd);
                        let pass = windowed_sibling_pass(&mut bdd, isf, cfg, w);
                        let g = generic_td(&mut bdd, isf, cfg);
                        if c.is_zero() {
                            // The one exception: an all-don't-care root is
                            // passed through, while generic_td covers it by 0
                            // (`all_dc_passthrough`, `zero_care_gives_zero`).
                            assert_eq!((pass, g), (isf, Edge::ZERO));
                            continue;
                        }
                        assert_eq!(pass.f, g, "{cfg:?}, n {n}, sifted {sifted}");
                        bdd.set_budget(Budget::default().steps(u64::MAX));
                        let budgeted = generic_td_budgeted(&mut bdd, isf, cfg);
                        bdd.clear_budget();
                        assert_eq!(budgeted, Ok(g), "{cfg:?}, n {n}, sifted {sifted}");
                        compared += 1;
                    }
                }
            }
        }
        assert!(compared > 200, "{compared} comparisons");
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
                let next = {
                    let w = LevelWindow::all(&bdd);
                    windowed_sibling_pass(&mut bdd, cur, cfg, w)
                };
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
