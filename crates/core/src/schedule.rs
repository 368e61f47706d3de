//! Scheduling transformations (paper Section 3.4).
//!
//! The paper's key observation is that the two heuristic classes are
//! complementary: osm can only lose the optimum in the superstructure
//! *above* the minimized region (Theorem 12), while tsm is more powerful
//! but less safe. The proposed schedule therefore applies *safer
//! transformations first*, top-down over windows of levels:
//!
//! 1. osm on siblings in the window,
//! 2. tsm on siblings in the window,
//! 3. osm on levels in the window,
//! 4. tsm on levels in the window,
//! 5. once fewer than `stop_top_down` levels remain, finish with
//!    `constrain` to assign the remaining don't cares locally.

use bddmin_bdd::{Bdd, Budget, Edge, Var};

use crate::heuristics::run_budgeted;
use crate::isf::Isf;
use crate::level::{minimize_at_level_budgeted, CliqueOptions};
use crate::matching::MatchCriterion;
use crate::report::{MinReport, StepKind};
use crate::sibling::SiblingConfig;
use crate::windowed::{windowed_sibling_pass_budgeted, LevelWindow};

/// Parameters of the windowed schedule.
///
/// # Example
///
/// ```
/// use bddmin_core::Schedule;
/// let fast = Schedule::new(4, 2).level_passes(false);
/// assert_eq!(fast.window_size, 4);
/// assert!(!fast.use_level_passes);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Number of levels per window.
    pub window_size: u32,
    /// When fewer than this many levels remain, call constrain and stop.
    pub stop_top_down: u32,
    /// Run the (expensive) level-matching steps 3–4; skipping them trades
    /// quality for runtime, as the paper suggests.
    pub use_level_passes: bool,
    /// Clique-cover options for the tsm level pass.
    pub clique_options: CliqueOptions,
}

impl Schedule {
    /// A schedule with the given window size and stop threshold, with level
    /// passes enabled.
    pub fn new(window_size: u32, stop_top_down: u32) -> Schedule {
        Schedule {
            window_size: window_size.max(1),
            stop_top_down,
            use_level_passes: true,
            clique_options: CliqueOptions::default(),
        }
    }

    /// Enables or disables the level-matching steps.
    #[must_use]
    pub fn level_passes(mut self, on: bool) -> Schedule {
        self.use_level_passes = on;
        self
    }

    /// Runs the schedule and returns a cover of `[f, c]`; an empty care
    /// set gives the constant 0.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::Bdd;
    /// use bddmin_core::{Isf, Schedule};
    ///
    /// let mut bdd = Bdd::new(3);
    /// let (f, c) = bdd.from_leaf_spec("d1 01 1d 01").unwrap();
    /// let isf = Isf::new(f, c);
    /// let g = Schedule::new(2, 1).apply(&mut bdd, isf);
    /// assert!(isf.is_cover(&mut bdd, g));
    /// ```
    pub fn apply(&self, bdd: &mut Bdd, isf: Isf) -> Edge {
        self.run(bdd, isf, &mut MinReport::new())
    }

    /// Runs the schedule under a resource budget, degrading gracefully:
    /// any step that blows the budget is discarded and the schedule
    /// continues from the pre-step state (sound because every step
    /// rewrites the ISF into one that i-covers it; in particular a blown
    /// tsm/UMG clique-cover step at a level falls back to the level's osm
    /// result, which by Theorem 12 never loses the optimum below the
    /// level). Always returns a valid cover of `[f, c]` no larger than
    /// `f` itself, together with a [`MinReport`] of what completed.
    ///
    /// The budget is armed on entry and cleared before returning; with
    /// [`Budget::UNLIMITED`] every step completes and the cover equals
    /// [`Schedule::apply`]'s (modulo the final size clamp).
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Budget};
    /// use bddmin_core::{Isf, Schedule};
    ///
    /// let mut bdd = Bdd::new(3);
    /// let (f, c) = bdd.from_leaf_spec("d1 01 1d 01").unwrap();
    /// let isf = Isf::new(f, c);
    /// // A one-step budget cannot complete anything, yet the result is
    /// // still a cover no larger than f.
    /// let (g, report) = Schedule::new(2, 1)
    ///     .apply_with_report(&mut bdd, isf, Budget::default().steps(1));
    /// assert!(isf.is_cover(&mut bdd, g));
    /// assert!(bdd.size(g) <= bdd.size(f));
    /// assert!(report.degraded());
    /// ```
    pub fn apply_with_report(&self, bdd: &mut Bdd, isf: Isf, budget: Budget) -> (Edge, MinReport) {
        run_budgeted(bdd, isf, budget, |bdd, report| self.run(bdd, isf, report))
    }

    /// The step driver behind both entry points: runs the schedule against
    /// whatever budget is armed and records each step in `report`. A step
    /// that blows the budget is skipped and the schedule continues from
    /// the pre-step ISF; if even the final `constrain` is skipped, the
    /// current representative is itself a cover of the current ISF (and
    /// hence of the original, which it i-covers).
    pub(crate) fn run(&self, bdd: &mut Bdd, isf: Isf, report: &mut MinReport) -> Edge {
        if isf.c.is_zero() {
            return Edge::ZERO;
        }
        let n = bdd.num_vars() as u32;
        let mut cur = isf;
        let mut level = 0u32;
        // Few levels left (`stop_top_down`): stop the windows and let the
        // final constrain assign the rest of the DCs locally.
        while level < n && !cur.c.is_one() && n - level >= self.stop_top_down {
            let hi = (level + self.window_size).min(n);
            let window = LevelWindow::new(Var(level), Var(hi));
            // Step 1: osm on siblings (with both refinements on: the safest
            // and best-performing sibling variant per the experiments).
            // Step 2: tsm on siblings.
            for (config, kind) in [
                (
                    SiblingConfig::new(MatchCriterion::Osm)
                        .match_complement(true)
                        .no_new_vars(true),
                    StepKind::OsmSiblings,
                ),
                (
                    SiblingConfig::new(MatchCriterion::Tsm),
                    StepKind::TsmSiblings,
                ),
            ] {
                let pass = windowed_sibling_pass_budgeted(bdd, cur, config, window);
                if let Some(next) = report.record(kind, Some(level), pass) {
                    cur = next;
                }
            }
            if self.use_level_passes {
                // Steps 3–4: osm then tsm on each level of the window.
                for (criterion, kind) in [
                    (MatchCriterion::Osm, StepKind::OsmLevel),
                    (MatchCriterion::Tsm, StepKind::TsmLevel),
                ] {
                    for lvl in level..hi {
                        let pass = minimize_at_level_budgeted(
                            bdd,
                            cur,
                            Var(lvl),
                            criterion,
                            self.clique_options,
                        );
                        if let Some(next) = report.record(kind, Some(lvl), pass) {
                            cur = next;
                        }
                    }
                }
            }
            level = hi;
        }
        if cur.c.is_one() {
            return cur.f;
        }
        let tail = bdd.try_constrain(cur.f, cur.c);
        report
            .record(StepKind::ConstrainTail, None, tail)
            .unwrap_or(cur.f)
    }
}

impl Default for Schedule {
    /// Window of 4 levels, stop threshold 2, level passes on.
    fn default() -> Self {
        Schedule::new(4, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_produces_cover() {
        for spec in [
            "d1 01",
            "d1 01 1d 01",
            "1d d1 d0 0d",
            "0d d1 10 01 11 d0 d1 00",
        ] {
            let mut bdd = Bdd::new(4);
            let (f, c) = bdd.from_leaf_spec(spec).unwrap();
            let isf = Isf::new(f, c);
            for schedule in [
                Schedule::new(1, 0),
                Schedule::new(2, 1),
                Schedule::new(4, 2),
                Schedule::new(8, 3).level_passes(false),
            ] {
                let g = schedule.apply(&mut bdd, isf);
                assert!(
                    isf.is_cover(&mut bdd, g),
                    "schedule {schedule:?} broke cover on {spec}"
                );
            }
        }
    }

    #[test]
    fn schedule_handles_total_functions() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let f = bdd.xor(a, b);
        let g = Schedule::default().apply(&mut bdd, Isf::total(f));
        assert_eq!(g, f);
    }

    #[test]
    fn large_stop_threshold_degenerates_to_constrain() {
        let mut bdd = Bdd::new(3);
        let (f, c) = bdd.from_leaf_spec("d1 01 1d 01").unwrap();
        let schedule = Schedule::new(2, 100);
        let g = schedule.apply(&mut bdd, Isf::new(f, c));
        assert_eq!(g, bdd.constrain(f, c));
    }

    #[test]
    fn window_size_clamped_to_one() {
        let s = Schedule::new(0, 0);
        assert_eq!(s.window_size, 1);
        let mut bdd = Bdd::new(2);
        let (f, c) = bdd.from_leaf_spec("d1 01").unwrap();
        let isf = Isf::new(f, c);
        let g = s.apply(&mut bdd, isf);
        assert!(isf.is_cover(&mut bdd, g));
    }

    #[test]
    fn zero_care_gives_zero() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(Var(0));
        let isf = Isf::new(a, Edge::ZERO);
        assert_eq!(Schedule::default().apply(&mut bdd, isf), Edge::ZERO);
        let (g, report) =
            Schedule::default().apply_with_report(&mut bdd, isf, Budget::default().steps(1));
        assert_eq!(g, Edge::ZERO);
        assert!(!report.degraded());
    }
}
