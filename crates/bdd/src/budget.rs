//! The resource governor: deterministic budgets and checked cancellation.
//!
//! A [`Budget`] bounds the work a recursive BDD operation may perform.
//! Three independent ceilings are supported:
//!
//! * a **step limit** — a deterministic count of recursion steps, ticked
//!   once per recursive call of the kernel operations (`ite`, `constrain`,
//!   `restrict`, quantification, composition). The minimization layer on
//!   top charges its own level-pass work too: one step per gathered pair
//!   it expands, and a matching graph's pair examinations in one bulk
//!   charge before the graph is allocated. Step counts depend only on
//!   the operation sequence, so the same program traps at the same point
//!   on every run and every machine;
//! * a **node limit** — a ceiling on live nodes, checked exactly when the
//!   unique table is about to allocate a node (find-or-add hits never
//!   trip it). Also deterministic;
//! * a **deadline** — an optional wall-clock cutoff, polled adaptively
//!   so the common path stays branch-cheap: the poll stride starts at 1
//!   step and doubles after each check that lands in the first half of
//!   the armed window (capped at 1024), then halves (floor 1) on every
//!   check past the midpoint, so the trip lands close to the deadline
//!   instead of overshooting by a full coarse stride. The deadline is
//!   inherently nondeterministic and must be kept out of any
//!   determinism-gated path (invariance suites, byte-identical table
//!   diffs); the deterministic limits are safe everywhere.
//!
//! Budgets are armed on the manager with [`Bdd::set_budget`] and are only
//! consulted by the checked `try_*` operation variants, which return
//! [`BudgetExceeded`] instead of panicking or looping. The unchecked
//! variants keep their infallible signatures; calling one while an armed
//! budget trips is a programming error and panics with a message pointing
//! at the `try_*` family. With no budget armed the checked and unchecked
//! variants are byte-identical in behavior and results.
//!
//! [`Bdd::set_budget`]: crate::Bdd::set_budget

use std::fmt;
use std::time::Instant;

/// Which ceiling of a [`Budget`] was exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The deterministic recursion-step budget ran out.
    Steps,
    /// Allocating one more node would cross the live-node ceiling.
    Nodes,
    /// The wall-clock deadline passed.
    Time,
    /// The recursion-depth guard tripped (stack-overflow protection on
    /// pathologically deep BDDs).
    Depth,
    /// An internal invariant was violated (a logic bug, not resource
    /// exhaustion). Surfaced through the same error channel so schedulers
    /// degrade — skip the step, keep the last sound state — instead of
    /// aborting the whole pipeline on an assertion.
    Internal,
}

impl BudgetKind {
    /// Short stable name (`steps`, `nodes`, `time`, `depth`) for reports
    /// and logs.
    pub fn name(self) -> &'static str {
        match self {
            BudgetKind::Steps => "steps",
            BudgetKind::Nodes => "nodes",
            BudgetKind::Time => "time",
            BudgetKind::Depth => "depth",
            BudgetKind::Internal => "internal",
        }
    }
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned by the checked `try_*` operations when the armed
/// [`Budget`] is exhausted.
///
/// The operation aborts cleanly: the manager's caches only ever record
/// completed sub-results, so an aborted operation leaves no wrong entries
/// behind, and every node allocated before the trip is ordinary garbage
/// for the next collection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BudgetExceeded {
    /// The ceiling that tripped.
    pub kind: BudgetKind,
}

impl BudgetExceeded {
    /// Step budget exhausted.
    pub const STEPS: BudgetExceeded = BudgetExceeded {
        kind: BudgetKind::Steps,
    };
    /// Node ceiling reached.
    pub const NODES: BudgetExceeded = BudgetExceeded {
        kind: BudgetKind::Nodes,
    };
    /// Deadline passed.
    pub const TIME: BudgetExceeded = BudgetExceeded {
        kind: BudgetKind::Time,
    };
    /// Depth guard tripped.
    pub const DEPTH: BudgetExceeded = BudgetExceeded {
        kind: BudgetKind::Depth,
    };
    /// Internal invariant violated.
    pub const INTERNAL: BudgetExceeded = BudgetExceeded {
        kind: BudgetKind::Internal,
    };
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "resource budget exceeded ({})", self.kind)
    }
}

impl std::error::Error for BudgetExceeded {}

/// Resource limits consulted by the checked `try_*` operations.
///
/// The default budget is unlimited; each ceiling is independent and
/// optional. Budgets are cheap value types meant to be rebuilt per
/// operation or per pipeline step.
///
/// # Example
///
/// ```
/// use bddmin_bdd::{Bdd, Budget, Var};
/// let mut bdd = Bdd::new(4);
/// let a = bdd.var(Var(0));
/// let b = bdd.var(Var(1));
/// bdd.set_budget(Budget::default().steps(2));
/// assert!(bdd.try_and(a, b).is_err());
/// bdd.clear_budget();
/// assert!(bdd.try_and(a, b).is_ok());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum governed recursion steps since the budget was armed.
    pub step_limit: Option<u64>,
    /// Ceiling on live nodes; checked only when a fresh node would be
    /// allocated.
    pub node_limit: Option<usize>,
    /// Wall-clock cutoff. **Nondeterministic**: never arm this on a
    /// determinism-gated path.
    pub deadline: Option<Instant>,
}

impl Budget {
    /// No limits at all (the default).
    pub const UNLIMITED: Budget = Budget {
        step_limit: None,
        node_limit: None,
        deadline: None,
    };

    /// True when no ceiling is set.
    pub fn is_unlimited(&self) -> bool {
        self.step_limit.is_none() && self.node_limit.is_none() && self.deadline.is_none()
    }

    /// Sets the deterministic step limit.
    pub fn steps(mut self, limit: u64) -> Budget {
        self.step_limit = Some(limit);
        self
    }

    /// Sets the live-node ceiling.
    pub fn nodes(mut self, limit: usize) -> Budget {
        self.node_limit = Some(limit);
        self
    }

    /// Sets the wall-clock deadline.
    pub fn deadline(mut self, at: Instant) -> Budget {
        self.deadline = Some(at);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_names() {
        assert_eq!(
            BudgetExceeded::STEPS.to_string(),
            "resource budget exceeded (steps)"
        );
        assert_eq!(BudgetKind::Nodes.name(), "nodes");
        assert_eq!(BudgetKind::Time.to_string(), "time");
        assert_eq!(BudgetKind::Depth.name(), "depth");
        assert_eq!(BudgetExceeded::INTERNAL.kind.name(), "internal");
    }

    #[test]
    fn builder_combines() {
        let b = Budget::default().steps(10).nodes(100);
        assert_eq!(b.step_limit, Some(10));
        assert_eq!(b.node_limit, Some(100));
        assert!(b.deadline.is_none());
        assert!(!b.is_unlimited());
        assert!(Budget::UNLIMITED.is_unlimited());
    }
}
