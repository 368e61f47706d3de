//! Structured accounting of what a budgeted minimization actually did.
//!
//! Under a resource budget a run of the pipeline may complete some
//! transformation steps and have to discard others. Discarding is sound:
//! every step of the schedule rewrites the current ISF into one that
//! i-covers it (paper Definition 2), so the pre-step ISF is always a valid
//! point to continue from — dropping a blown tsm/UMG step keeps the osm
//! result for the level (justified by Theorem 12: osm level passes never
//! lose the optimum below the level). The [`MinReport`] records, step by
//! step, which transformations completed and which were skipped, so callers
//! can tell a full-quality result from a degraded one.

use bddmin_bdd::BudgetExceeded;

/// The kind of one pipeline step (the schedule of paper Section 3.4, plus
/// the single-shot heuristics of the registry).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// Windowed osm sibling pass (schedule step 1).
    OsmSiblings,
    /// Windowed tsm sibling pass (schedule step 2).
    TsmSiblings,
    /// osm level pass — DMG sink matching (schedule step 3).
    OsmLevel,
    /// tsm level pass — UMG greedy clique cover (schedule step 4).
    TsmLevel,
    /// The final `constrain` that assigns the remaining don't cares.
    ConstrainTail,
    /// A single-shot heuristic run as one indivisible step.
    Direct,
}

impl StepKind {
    /// Short lowercase name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            StepKind::OsmSiblings => "osm-siblings",
            StepKind::TsmSiblings => "tsm-siblings",
            StepKind::OsmLevel => "osm-level",
            StepKind::TsmLevel => "tsm-level",
            StepKind::ConstrainTail => "constrain-tail",
            StepKind::Direct => "direct",
        }
    }
}

impl std::fmt::Display for StepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of one pipeline step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepStatus {
    /// The step ran to completion and its result was kept.
    Completed,
    /// The step blew the budget; its partial work was discarded and the
    /// pipeline continued from the pre-step state.
    Skipped(BudgetExceeded),
}

impl StepStatus {
    /// True for [`StepStatus::Completed`].
    pub fn is_completed(self) -> bool {
        matches!(self, StepStatus::Completed)
    }
}

/// One step of a budgeted minimization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepReport {
    /// What the step was.
    pub kind: StepKind,
    /// The level the step operated on, where applicable.
    pub level: Option<u32>,
    /// Whether it completed or was skipped.
    pub status: StepStatus,
}

/// What a budgeted minimization did, step by step.
///
/// The result accompanying a report is **always** a valid cover no larger
/// than the input representative `f` — degradation affects quality, never
/// soundness.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MinReport {
    /// The steps, in execution order.
    pub steps: Vec<StepReport>,
    /// True if the final clamp rejected the pipeline's candidate (it was
    /// larger than `f` or could not be validated) and `f` itself was
    /// returned instead.
    pub fell_back_to_f: bool,
}

impl MinReport {
    /// An empty report.
    pub fn new() -> MinReport {
        MinReport::default()
    }

    pub(crate) fn push_completed(&mut self, kind: StepKind, level: Option<u32>) {
        self.steps.push(StepReport {
            kind,
            level,
            status: StepStatus::Completed,
        });
    }

    pub(crate) fn push_skipped(&mut self, kind: StepKind, level: Option<u32>, err: BudgetExceeded) {
        self.steps.push(StepReport {
            kind,
            level,
            status: StepStatus::Skipped(err),
        });
    }

    /// Records the outcome of one step and hands back its value if it
    /// completed; a skipped step yields `None`, and the caller continues
    /// from the pre-step state.
    pub(crate) fn record<T>(
        &mut self,
        kind: StepKind,
        level: Option<u32>,
        outcome: Result<T, BudgetExceeded>,
    ) -> Option<T> {
        match outcome {
            Ok(value) => {
                self.push_completed(kind, level);
                Some(value)
            }
            Err(e) => {
                self.push_skipped(kind, level, e);
                None
            }
        }
    }

    /// Number of completed steps.
    pub fn completed(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| s.status.is_completed())
            .count()
    }

    /// Number of skipped steps.
    pub fn skipped(&self) -> usize {
        self.steps.len() - self.completed()
    }

    /// True if anything was skipped or the final clamp fell back to `f`:
    /// the result is sound but may be larger than an unbudgeted run's.
    pub fn degraded(&self) -> bool {
        self.fell_back_to_f || self.skipped() > 0
    }

    /// The first skipped step, if any — the point where the budget bit.
    pub fn first_skip(&self) -> Option<&StepReport> {
        self.steps.iter().find(|s| !s.status.is_completed())
    }

    /// Serializes the report as one JSON object, suitable for embedding
    /// in a result line of the service protocol. The encoding is total
    /// and deterministic: fixed key order, no floats, only names drawn
    /// from [`StepKind::name`] and `BudgetKind::name`, so equal reports
    /// produce byte-identical JSON.
    ///
    /// ```
    /// use bddmin_core::MinReport;
    /// assert_eq!(
    ///     MinReport::new().to_json(),
    ///     r#"{"steps":[],"completed":0,"skipped":0,"fell_back_to_f":false}"#
    /// );
    /// ```
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(r#"{"steps":["#);
        for (i, step) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, r#"{{"kind":"{}""#, step.kind.name());
            if let Some(level) = step.level {
                let _ = write!(out, r#","level":{level}"#);
            }
            match step.status {
                StepStatus::Completed => out.push_str(r#","status":"completed"}"#),
                StepStatus::Skipped(e) => {
                    let _ = write!(out, r#","status":"skipped","cause":"{}"}}"#, e.kind.name());
                }
            }
        }
        let _ = write!(
            out,
            r#"],"completed":{},"skipped":{},"fell_back_to_f":{}}}"#,
            self.completed(),
            self.skipped(),
            self.fell_back_to_f
        );
        out
    }
}

impl std::fmt::Display for MinReport {
    /// One line: `3 completed, 2 skipped (first: tsm-level@1 steps)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} completed, {} skipped",
            self.completed(),
            self.skipped()
        )?;
        if let Some(step) = self.first_skip() {
            write!(f, " (first: {}", step.kind)?;
            if let Some(lvl) = step.level {
                write!(f, "@{lvl}")?;
            }
            if let StepStatus::Skipped(e) = step.status {
                write!(f, " {}", e.kind.name())?;
            }
            write!(f, ")")?;
        }
        if self.fell_back_to_f {
            write!(f, ", fell back to f")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_degradation() {
        let mut r = MinReport::new();
        assert!(!r.degraded());
        r.push_completed(StepKind::OsmSiblings, Some(0));
        r.push_skipped(StepKind::TsmLevel, Some(1), BudgetExceeded::STEPS);
        r.push_completed(StepKind::ConstrainTail, None);
        assert_eq!(r.completed(), 2);
        assert_eq!(r.skipped(), 1);
        assert!(r.degraded());
        let first = r.first_skip().unwrap();
        assert_eq!(first.kind, StepKind::TsmLevel);
        assert_eq!(first.level, Some(1));
    }

    #[test]
    fn json_is_deterministic_and_names_every_step() {
        let mut r = MinReport::new();
        r.push_completed(StepKind::OsmSiblings, Some(0));
        r.push_skipped(StepKind::TsmLevel, Some(1), BudgetExceeded::STEPS);
        r.fell_back_to_f = true;
        assert_eq!(
            r.to_json(),
            r#"{"steps":[{"kind":"osm-siblings","level":0,"status":"completed"},{"kind":"tsm-level","level":1,"status":"skipped","cause":"steps"}],"completed":1,"skipped":1,"fell_back_to_f":true}"#
        );
        // Level-less steps omit the key entirely rather than emit null.
        let mut r = MinReport::new();
        r.push_completed(StepKind::Direct, None);
        assert_eq!(
            r.to_json(),
            r#"{"steps":[{"kind":"direct","status":"completed"}],"completed":1,"skipped":0,"fell_back_to_f":false}"#
        );
    }

    #[test]
    fn display_is_compact() {
        let mut r = MinReport::new();
        r.push_completed(StepKind::Direct, None);
        assert_eq!(r.to_string(), "1 completed, 0 skipped");
        r.push_skipped(StepKind::TsmLevel, Some(3), BudgetExceeded::NODES);
        r.fell_back_to_f = true;
        assert_eq!(
            r.to_string(),
            "1 completed, 1 skipped (first: tsm-level@3 nodes), fell back to f"
        );
    }
}
