//! The BDD manager: node store, unique table, variable order.
//!
//! Since the reordering PR the variable order is **dynamic**: a variable's
//! *identity* (its [`Var`] handle, name, and `assignment[]` position) is
//! fixed at declaration, while its *level* (its position in the order the
//! node store is sorted by) can change via [`Bdd::reorder`]. Node payloads
//! and every position-space recursion work in level space; the manager
//! keeps the `var2level`/`level2var` permutation maps and converts at the
//! identity-facing API boundaries ([`Bdd::var`], [`Bdd::support`],
//! [`Bdd::eval`], …). On a freshly created manager the permutation is the
//! identity, so nothing changes until a reorder actually runs.

use std::collections::HashMap;

use crate::budget::{Budget, BudgetExceeded};
use crate::cache::{ComputedTable, OP_CLASS_COUNT, OP_CLASS_NAMES};
use crate::edge::{Edge, NodeId, Var};
use crate::memo::MinMemo;
use crate::node::Node;
use crate::reorder::ReorderSettings;
use crate::unique::UniqueTable;

/// Panic message of the unchecked operation variants when an armed budget
/// (or the depth guard) trips mid-recursion. The minimization layer's
/// unchecked wrappers panic with the same message.
pub const BUDGET_PANIC: &str =
    "resource budget exceeded in an unchecked operation; use the try_* variants under an armed budget";

/// Counters describing the state of a [`Bdd`] manager.
///
/// # Example
///
/// ```
/// use bddmin_bdd::Bdd;
/// let mut bdd = Bdd::new(4);
/// let a = bdd.var(bddmin_bdd::Var(0));
/// let b = bdd.var(bddmin_bdd::Var(1));
/// let _ = bdd.and(a, b);
/// let stats = bdd.stats();
/// assert!(stats.live_nodes >= 3);
/// assert!(stats.cache_capacity > 0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BddStats {
    /// Nodes currently allocated (live), including the constant node.
    pub live_nodes: usize,
    /// Total node slots ever allocated (live + free-listed).
    pub allocated_nodes: usize,
    /// Entries in the computed table (current generation).
    pub cache_entries: usize,
    /// Computed-table hits since creation.
    pub cache_hits: u64,
    /// Computed-table misses since creation.
    pub cache_misses: u64,
    /// Computed-table entries overwritten by colliding keys (lossy cache).
    pub cache_evictions: u64,
    /// Current entry capacity of the computed table (adaptive).
    pub cache_capacity: usize,
    /// Adaptive doublings the computed table has performed.
    pub cache_resizes: u64,
    /// Flush-time shrinks the computed table has performed (it shrinks at
    /// a cache flush to the demand of the interval that ended).
    pub cache_shrinks: u64,
    /// Computed-table hits per operation class, indexed as
    /// [`BddStats::OP_CLASSES`].
    pub cache_class_hits: [u64; OP_CLASS_COUNT],
    /// Computed-table misses per operation class, indexed as
    /// [`BddStats::OP_CLASSES`].
    pub cache_class_misses: [u64; OP_CLASS_COUNT],
    /// Entries in the minimization memo (current generation).
    pub memo_entries: usize,
    /// Current entry capacity of the minimization memo (adaptive).
    pub memo_capacity: usize,
    /// Minimization-memo hits since creation.
    pub memo_hits: u64,
    /// Minimization-memo misses since creation.
    pub memo_misses: u64,
    /// Minimization-memo entries overwritten by colliding keys.
    pub memo_evictions: u64,
    /// Adaptive doublings the minimization memo has performed.
    pub memo_resizes: u64,
    /// Flush-time shrinks the minimization memo has performed.
    pub memo_shrinks: u64,
    /// Slot capacity of the open-addressed unique table (summed over the
    /// per-level subtables).
    pub unique_capacity: usize,
    /// Garbage collections performed.
    pub gc_runs: u64,
    /// Nodes reclaimed by garbage collection.
    pub gc_reclaimed: u64,
    /// Dynamic reorderings performed (manual and automatic).
    pub reorder_runs: u64,
    /// Adjacent-level swaps executed across all reorderings.
    pub reorder_swaps: u64,
    /// High-water mark of the live-node count since creation.
    pub peak_live_nodes: usize,
    /// Estimated bytes per allocated node slot: the node payload plus the
    /// liveness flag plus one amortized unique-table slot word.
    pub bytes_per_node: usize,
    /// Estimated peak node-store memory: `peak_live_nodes * bytes_per_node`.
    pub peak_bytes: usize,
}

impl BddStats {
    /// Names of the computed-table operation classes, aligned with the
    /// indices of [`BddStats::cache_class_hits`] /
    /// [`BddStats::cache_class_misses`].
    pub const OP_CLASSES: [&'static str; OP_CLASS_COUNT] = OP_CLASS_NAMES;
}

/// A BDD manager: owns the node store and the fixed variable order.
///
/// All functions ([`Edge`]s) returned by one manager are canonical with
/// respect to it: two edges are equal **iff** they denote the same Boolean
/// function. Edges from different managers must never be mixed.
///
/// # Example
///
/// ```
/// use bddmin_bdd::{Bdd, Var};
///
/// let mut bdd = Bdd::new(3);
/// let x1 = bdd.var(Var(0));
/// let x2 = bdd.var(Var(1));
/// let f = bdd.or(x1, x2);
/// let g = bdd.not(bdd.constant(false));
/// assert!(bdd.implies_holds(f, g));
/// ```
#[derive(Debug)]
pub struct Bdd {
    pub(crate) nodes: Vec<Node>,
    /// Slots of dead nodes available for reuse.
    pub(crate) free: Vec<u32>,
    /// Liveness flags parallel to `nodes` (false = slot is on the free list).
    pub(crate) live: Vec<bool>,
    pub(crate) unique: UniqueTable,
    pub(crate) cache: ComputedTable,
    /// Lossy memo for the don't-care minimization recursions layered on
    /// top of the kernel (see `crate::memo`).
    pub(crate) min_memo: MinMemo,
    var_names: Vec<String>,
    name_index: HashMap<String, Var>,
    /// `var2level[v]` is the current level of variable identity `v`.
    /// Starts as the identity permutation; mutated only by the reorder
    /// swap kernel, which keeps it inverse to `level2var` at all times.
    pub(crate) var2level: Vec<u32>,
    /// `level2var[l]` is the variable identity currently at level `l`.
    pub(crate) level2var: Vec<Var>,
    /// The single-variable function for each declared variable, recorded on
    /// first construction. These are pinned GC roots: `var()` results stay
    /// valid across collections and unique-table rebuilds.
    pub(crate) var_roots: Vec<Option<Edge>>,
    /// User-pinned GC roots (see [`Bdd::pin`]); always marked live.
    pub(crate) pinned: Vec<Edge>,
    /// Automatic GC: when enabled, a collection over the pinned roots runs
    /// at the next quiescent point after the live-node count crosses
    /// `gc_threshold`.
    pub(crate) auto_gc: bool,
    pub(crate) gc_threshold: usize,
    /// Set by `mk` when growth crosses `gc_threshold`; consumed by
    /// [`Bdd::end_op`] once the operation nesting depth returns to zero
    /// (running a collection mid-recursion would free unprotected
    /// intermediate results).
    pub(crate) gc_wanted: bool,
    /// Nesting depth of in-flight recursive operations.
    pub(crate) op_depth: u32,
    pub(crate) gc_runs: u64,
    pub(crate) gc_reclaimed: u64,
    /// Automatic reordering: when enabled, a sift (with the default
    /// [`ReorderSettings`]) runs at the next quiescent point after the
    /// live-node count crosses `reorder_threshold`. Off by default.
    pub(crate) auto_reorder: bool,
    pub(crate) reorder_threshold: usize,
    /// User-declared variable groups for group sifting: each group moves
    /// as one contiguous block. Identities, not levels.
    pub(crate) var_groups: Vec<Vec<Var>>,
    pub(crate) reorder_runs: u64,
    pub(crate) reorder_swaps: u64,
    /// Armed resource limits (see [`Budget`]); consulted by the checked
    /// `try_*` operations.
    pub(crate) budget: Budget,
    /// Governed recursion steps charged since the budget was last armed
    /// (or since creation when never armed). Always counted — the counter
    /// is one add per recursion step — so reports can show work done even
    /// without limits.
    pub(crate) steps: u64,
    /// Adaptive deadline polling: the step count at which the clock is
    /// next consulted (see [`Bdd::charge_step`]). `u64::MAX` with no
    /// deadline armed, so the common path is a single compare.
    next_deadline_poll: u64,
    /// Current gap (in steps) between deadline polls: ramps up 1 → 2 →
    /// … → `DEADLINE_POLL_GAP_MAX` (1024) while the first half of the armed
    /// window lasts, halves on every poll past the midpoint.
    deadline_poll_gap: u64,
    /// Midpoint of the armed wall-clock window (arm instant + half the
    /// allowance), the threshold past which polls tighten.
    deadline_half: Option<std::time::Instant>,
    /// High-water mark of the live-node count.
    pub(crate) peak_live: usize,
    /// Test hook for the `image-equivalence` mutation gate: widens the
    /// fused relational product's ⊤ short-circuit to fire unconditionally
    /// (see [`Bdd::debug_break_and_exists`]). Never set outside tests.
    pub(crate) break_and_exists: bool,
}

/// Recursion-depth guard: the kernel recursions descend one variable
/// level per call, so any depth beyond this indicates a pathologically
/// deep BDD that risks overflowing the thread stack. The guard converts
/// the overflow into [`BudgetExceeded`] (checked paths) or a clean panic
/// (unchecked paths) well before the stack actually runs out, including
/// on the 2 MiB default test-thread stacks of debug builds. The
/// minimization layer's recursions use the same guard.
pub const MAX_REC_DEPTH: u32 = 1500;

/// Hard cap on the gap (in governed steps) between two wall-clock
/// deadline polls; the adaptive schedule of [`Bdd::charge_step`] ramps up
/// to it and back down near the deadline.
pub(crate) const DEADLINE_POLL_GAP_MAX: u64 = 1024;

/// Live-node floor below which automatic GC never triggers.
const MIN_AUTO_GC_THRESHOLD: usize = 1 << 14;

/// Live-node floor below which automatic reordering never triggers:
/// sifting a small table costs more than it saves.
const MIN_AUTO_REORDER_THRESHOLD: usize = 1 << 12;

impl Bdd {
    /// Creates a manager with `num_vars` variables named `x1 … xn`
    /// (`x1` topmost, matching the paper's order).
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::Bdd;
    /// let bdd = Bdd::new(5);
    /// assert_eq!(bdd.num_vars(), 5);
    /// ```
    pub fn new(num_vars: usize) -> Bdd {
        Bdd::with_default_names(num_vars, ComputedTable::new(), MinMemo::default())
    }

    /// Turns this manager into `Bdd::new(num_vars)`, keeping only the
    /// allocations of the computed table and the minimization memo.
    ///
    /// The state is built by the same constructor as `Bdd::new`'s, so no
    /// field survives: nodes, variables, roots, budget, step count and
    /// statistics all start over. The recycled tables hold only stale
    /// entries, which lookups miss and inserts overwrite as if empty, and
    /// their sizing, counters and memo salt restart; every later
    /// operation, step count and statistic therefore matches a fresh
    /// manager's. Edges of the old manager must not be used again.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Var};
    /// let mut bdd = Bdd::new(4);
    /// let a = bdd.var(Var(0));
    /// let b = bdd.var(Var(3));
    /// let _ = bdd.and(a, b);
    /// bdd.reset(2);
    /// assert_eq!(bdd.num_vars(), 2);
    /// assert_eq!(bdd.stats(), Bdd::new(2).stats());
    /// ```
    pub fn reset(&mut self, num_vars: usize) {
        let (cache, min_memo) = (self.cache.recycled(), self.min_memo.recycled());
        *self = Bdd::with_default_names(num_vars, cache, min_memo);
    }

    fn with_default_names(num_vars: usize, cache: ComputedTable, min_memo: MinMemo) -> Bdd {
        let names: Vec<String> = (1..=num_vars).map(|i| format!("x{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        Bdd::with_tables(&name_refs, cache, min_memo)
    }

    /// Creates a manager whose variables carry the given names, topmost first.
    ///
    /// # Panics
    ///
    /// Panics if two names collide.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Var};
    /// let bdd = Bdd::with_names(&["req", "ack"]);
    /// assert_eq!(bdd.var_name(Var(1)), "ack");
    /// ```
    pub fn with_names(names: &[&str]) -> Bdd {
        Bdd::with_tables(names, ComputedTable::new(), MinMemo::default())
    }

    fn with_tables(names: &[&str], cache: ComputedTable, min_memo: MinMemo) -> Bdd {
        let mut bdd = Bdd {
            nodes: vec![Node::TERMINAL],
            free: Vec::new(),
            live: vec![true],
            unique: UniqueTable::new(),
            cache,
            min_memo,
            var_names: Vec::new(),
            name_index: HashMap::new(),
            var2level: Vec::new(),
            level2var: Vec::new(),
            var_roots: Vec::new(),
            pinned: Vec::new(),
            auto_gc: false,
            gc_threshold: MIN_AUTO_GC_THRESHOLD,
            gc_wanted: false,
            op_depth: 0,
            gc_runs: 0,
            gc_reclaimed: 0,
            auto_reorder: false,
            reorder_threshold: MIN_AUTO_REORDER_THRESHOLD,
            var_groups: Vec::new(),
            reorder_runs: 0,
            reorder_swaps: 0,
            budget: Budget::UNLIMITED,
            steps: 0,
            next_deadline_poll: u64::MAX,
            deadline_poll_gap: 1,
            deadline_half: None,
            peak_live: 1,
            break_and_exists: false,
        };
        for name in names {
            bdd.add_var(name);
        }
        bdd
    }

    /// Appends a fresh variable at the **bottom** of the order and returns it.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn add_var(&mut self, name: &str) -> Var {
        assert!(
            !self.name_index.contains_key(name),
            "duplicate variable name {name:?}"
        );
        let var = Var(self.var_names.len() as u32);
        self.var_names.push(name.to_owned());
        self.name_index.insert(name.to_owned(), var);
        // A fresh variable enters at the bottom level regardless of how
        // the existing order has been permuted.
        self.var2level.push(self.level2var.len() as u32);
        self.level2var.push(var);
        self.unique.ensure_levels(self.level2var.len());
        self.var_roots.push(None);
        var
    }

    /// The current level (position in the dynamic order, `0` topmost) of
    /// variable identity `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not declared.
    #[inline]
    pub fn level_of_var(&self, var: Var) -> Var {
        Var(self.var2level[var.index()])
    }

    /// The variable identity currently at `level`; [`Var::TERMINAL`] maps
    /// to itself so constants pass through unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `level` is neither terminal nor a declared level.
    #[inline]
    pub fn var_at_level(&self, level: Var) -> Var {
        if level.is_terminal() {
            Var::TERMINAL
        } else {
            self.level2var[level.index()]
        }
    }

    /// The single-variable function for the variable currently at
    /// `level` (the checked variant used by the position-space
    /// minimization recursions).
    pub fn try_var_at_level(&mut self, level: Var) -> Result<Edge, BudgetExceeded> {
        let var = self.var_at_level(level);
        self.try_var(var)
    }

    /// The current variable order, topmost level first, as identities.
    pub fn current_order(&self) -> Vec<Var> {
        self.level2var.clone()
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// The name of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn var_name(&self, var: Var) -> &str {
        &self.var_names[var.index()]
    }

    /// Looks a variable up by name.
    pub fn var_by_name(&self, name: &str) -> Option<Var> {
        self.name_index.get(name).copied()
    }

    /// The single-variable function `var`.
    ///
    /// The returned edge is a pinned GC root: it survives
    /// [`Bdd::collect_garbage`] whether or not it is passed as a root.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not declared.
    pub fn var(&mut self, var: Var) -> Edge {
        assert!(
            var.index() < self.var_names.len(),
            "variable {var} not declared (have {})",
            self.var_names.len()
        );
        if let Some(e) = self.var_roots[var.index()] {
            return e;
        }
        let level = self.level_of_var(var);
        let e = self.mk(level, Edge::ONE, Edge::ZERO);
        self.var_roots[var.index()] = Some(e);
        e
    }

    /// Checked [`Bdd::var`]: the first use of a variable allocates its
    /// root node, which can trip an armed node ceiling.
    ///
    /// # Panics
    ///
    /// Panics if `var` is not declared.
    pub fn try_var(&mut self, var: Var) -> Result<Edge, BudgetExceeded> {
        assert!(
            var.index() < self.var_names.len(),
            "variable {var} not declared (have {})",
            self.var_names.len()
        );
        if let Some(e) = self.var_roots[var.index()] {
            return Ok(e);
        }
        let level = self.level_of_var(var);
        let e = self.mk_checked(level, Edge::ONE, Edge::ZERO)?;
        self.var_roots[var.index()] = Some(e);
        Ok(e)
    }

    /// The literal `var` (positive) or `!var` (negative).
    pub fn literal(&mut self, var: Var, positive: bool) -> Edge {
        let v = self.var(var);
        v.complement_if(!positive)
    }

    /// The constant function `true` or `false`.
    pub fn constant(&self, value: bool) -> Edge {
        if value {
            Edge::ONE
        } else {
            Edge::ZERO
        }
    }

    /// Pins `edge` as a garbage-collection root: the function (and its
    /// cone) survives every [`Bdd::collect_garbage`] — including automatic
    /// collections (see [`Bdd::set_auto_gc`]) — until [`Bdd::unpin`]ned.
    pub fn pin(&mut self, edge: Edge) {
        self.pinned.push(edge);
    }

    /// Removes one pin of `edge` (edges can be pinned multiple times).
    /// Returns true if a pin was found.
    pub fn unpin(&mut self, edge: Edge) -> bool {
        match self.pinned.iter().rposition(|&e| e == edge) {
            Some(i) => {
                self.pinned.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Enables or disables automatic garbage collection.
    ///
    /// When enabled, the manager collects at the next quiescent point
    /// (between top-level operations, never mid-recursion) after the live
    /// node count crosses an adaptive threshold. **Only pinned edges
    /// ([`Bdd::pin`]), single-variable functions, and the result of the
    /// operation that triggered the collection survive** — any other edge
    /// the caller still holds becomes dangling. Off by default.
    pub fn set_auto_gc(&mut self, enabled: bool) {
        self.auto_gc = enabled;
        self.gc_wanted = false;
    }

    /// Enables or disables automatic dynamic reordering.
    ///
    /// When enabled, a sift (with the default [`ReorderSettings`]) runs
    /// at the next quiescent point after the live-node count crosses an
    /// adaptive threshold — the same survival contract as automatic GC:
    /// **only pinned edges, the single-variable functions, and the result
    /// of the triggering operation survive.** A blown budget aborts the
    /// sift cleanly between swaps, leaving the order and table
    /// consistent. Off by default.
    pub fn set_auto_reorder(&mut self, enabled: bool) {
        self.auto_reorder = enabled;
    }

    /// Declares that `vars` form a group that moves as one contiguous
    /// block under group sifting ([`crate::ReorderMethod::GroupSift`]).
    /// Groups must be disjoint; membership is by identity and survives
    /// reordering.
    ///
    /// # Panics
    ///
    /// Panics if a variable is undeclared or already in a group.
    pub fn set_var_group(&mut self, vars: &[Var]) {
        for &v in vars {
            assert!(
                v.index() < self.var_names.len(),
                "variable {v} not declared"
            );
            assert!(
                !self.var_groups.iter().any(|g| g.contains(&v)),
                "variable {v} is already in a group"
            );
        }
        if !vars.is_empty() {
            self.var_groups.push(vars.to_vec());
        }
    }

    /// Count of live (allocated and not freed) nodes.
    #[inline]
    pub(crate) fn live_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Arms a resource [`Budget`] and resets the step counter. The limits
    /// are consulted by the checked `try_*` operations; unchecked
    /// operations panic (rather than loop or overflow) if a limit trips
    /// while they run. Arm [`Budget::UNLIMITED`] (or call
    /// [`Bdd::clear_budget`]) to disarm.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
        self.steps = 0;
        // Reset the adaptive deadline-poll schedule: poll at the very
        // first step (a deadline already in the past must trip before
        // any real work), then ramp the gap up while time is plentiful.
        self.deadline_poll_gap = 1;
        if let Some(deadline) = budget.deadline {
            let now = std::time::Instant::now();
            self.next_deadline_poll = 1;
            self.deadline_half = Some(now + deadline.saturating_duration_since(now) / 2);
        } else {
            self.next_deadline_poll = u64::MAX;
            self.deadline_half = None;
        }
    }

    /// Disarms all resource limits (equivalent to arming
    /// [`Budget::UNLIMITED`]); the step counter keeps its value.
    pub fn clear_budget(&mut self) {
        self.budget = Budget::UNLIMITED;
    }

    /// The currently armed budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Governed recursion steps charged since the budget was last armed.
    pub fn steps_used(&self) -> u64 {
        self.steps
    }

    /// Charges one governed recursion step against the armed budget.
    ///
    /// The kernel recursions call this once per recursive step; layered
    /// minimization recursions (the `bddmin-core` pipeline) call it so
    /// their own traversal work counts too. The step count is
    /// deterministic; the optional deadline is polled **adaptively**: the
    /// first step after arming always checks the clock, then the gap
    /// between polls doubles (up to `DEADLINE_POLL_GAP_MAX` (1024)) while the
    /// first half of the armed window lasts, and halves on every poll
    /// past the midpoint. A fixed coarse stride let a single run of
    /// expensive steps (one wide apply) overshoot a tight deadline by the
    /// whole stride; with the ramp the overshoot is bounded by the
    /// current gap, which never exceeds the number of steps the first
    /// half of the window accommodated (nor the hard cap).
    #[inline]
    pub fn charge_step(&mut self) -> Result<(), BudgetExceeded> {
        self.steps += 1;
        self.check_charged()
    }

    /// Charges `n` governed steps at once: one call for a batch of work
    /// whose size is known up front (the minimization layer charges a
    /// matching graph's pair examinations before it allocates the graph),
    /// so an unbudgeted run pays one add instead of `n`. Checks the step
    /// limit and polls the deadline like [`Bdd::charge_step`].
    pub fn charge_steps(&mut self, n: u64) -> Result<(), BudgetExceeded> {
        self.steps = self.steps.saturating_add(n);
        self.check_charged()
    }

    /// The step-limit check and adaptive deadline poll after a charge.
    #[inline]
    fn check_charged(&mut self) -> Result<(), BudgetExceeded> {
        if let Some(limit) = self.budget.step_limit {
            if self.steps > limit {
                return Err(BudgetExceeded::STEPS);
            }
        }
        // The common path is one compare: `next_deadline_poll` is
        // `u64::MAX` unless a deadline is armed.
        if self.steps >= self.next_deadline_poll {
            if let Some(deadline) = self.budget.deadline {
                let now = std::time::Instant::now();
                if now >= deadline {
                    return Err(BudgetExceeded::TIME);
                }
                if self.deadline_half.is_some_and(|half| now >= half) {
                    self.deadline_poll_gap = (self.deadline_poll_gap / 2).max(1);
                } else {
                    self.deadline_poll_gap =
                        (self.deadline_poll_gap * 2).min(DEADLINE_POLL_GAP_MAX);
                }
                self.next_deadline_poll = self.steps + self.deadline_poll_gap;
            }
        }
        Ok(())
    }

    /// Marks the start of a (possibly recursive) operation; paired with
    /// [`Bdd::end_op`]. Automatic GC is deferred while any operation is in
    /// flight so intermediate results cannot be swept.
    #[inline]
    pub(crate) fn begin_op(&mut self) {
        self.op_depth += 1;
    }

    /// Unwinds [`Bdd::begin_op`] when a checked operation aborts on a
    /// budget trip. No collection runs (the caller holds no protected
    /// result); a pending `gc_wanted` stays set for the next quiescent
    /// point of a completed operation.
    #[inline]
    pub(crate) fn abort_op(&mut self) {
        self.op_depth -= 1;
    }

    /// Marks the end of an operation. At depth zero, runs a pending
    /// automatic collection with `result` protected alongside the pinned
    /// roots.
    #[inline]
    pub(crate) fn end_op(&mut self, result: Edge) -> Edge {
        self.op_depth -= 1;
        if self.op_depth == 0 {
            if self.gc_wanted {
                self.gc_wanted = false;
                if self.auto_gc {
                    self.collect_garbage(&[result]);
                    // Back off: require meaningful growth before the next one.
                    self.gc_threshold = (self.live_count() * 2).max(MIN_AUTO_GC_THRESHOLD);
                }
            }
            // Automatic reordering shares the GC quiescent point: the
            // same survival contract applies (pins + var roots + the
            // triggering result), and a blown budget aborts between
            // swaps, back to a consistent order.
            if self.auto_reorder && self.live_count() > self.reorder_threshold {
                self.reorder_roots(&ReorderSettings::default(), &[result]);
                // Back off: require meaningful regrowth before the next
                // one, or auto-reorder would thrash on irreducible BDDs.
                self.reorder_threshold = (self.live_count() * 4).max(MIN_AUTO_REORDER_THRESHOLD);
            }
            // Adaptive cache growth is also a quiescent-point decision: the
            // budget ties cache memory to the node store so a cache never
            // dwarfs the BDDs it serves. `maybe_grow` is an O(1) counter
            // check unless it actually resizes.
            let budget = self.nodes.len().saturating_mul(2);
            self.cache.table.maybe_grow(budget);
            self.min_memo.table.maybe_grow(budget);
        }
        result
    }

    /// Canonicalizing node constructor ("find-or-add").
    ///
    /// Applies the deletion rule (`hi == lo`), the merging rule (unique
    /// table) and complement-edge normalisation (the stored high edge is
    /// always regular).
    pub(crate) fn mk(&mut self, var: Var, hi: Edge, lo: Edge) -> Edge {
        self.mk_checked(var, hi, lo).expect(BUDGET_PANIC)
    }

    /// [`Bdd::mk`] with the live-node ceiling honored: fails instead of
    /// allocating past the armed node limit. Find-or-add hits and
    /// reductions never fail.
    pub(crate) fn mk_checked(
        &mut self,
        var: Var,
        hi: Edge,
        lo: Edge,
    ) -> Result<Edge, BudgetExceeded> {
        debug_assert!(!var.is_terminal());
        debug_assert!(
            var < self.level(hi) && var < self.level(lo),
            "order violation"
        );
        if hi == lo {
            return Ok(hi);
        }
        if hi.is_complemented() {
            return Ok(self
                .mk_raw(var, hi.complement(), lo.complement())?
                .complement());
        }
        self.mk_raw(var, hi, lo)
    }

    fn mk_raw(&mut self, var: Var, hi: Edge, lo: Edge) -> Result<Edge, BudgetExceeded> {
        debug_assert!(!hi.is_complemented());
        if let Some(id) = self.unique.find(&self.nodes, var, hi, lo) {
            return Ok(Edge::new(id, false));
        }
        // The ceiling is checked exactly where the unique table grows:
        // only a genuinely fresh node can trip it.
        if let Some(limit) = self.budget.node_limit {
            if self.live_count() >= limit {
                return Err(BudgetExceeded::NODES);
            }
        }
        let id = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = Node { var, hi, lo };
                self.live[slot as usize] = true;
                NodeId(slot)
            }
            None => {
                let id = NodeId(self.nodes.len() as u32);
                assert!(id.0 < u32::MAX >> 1, "node table overflow");
                self.nodes.push(Node { var, hi, lo });
                self.live.push(true);
                id
            }
        };
        self.unique.insert(&self.nodes, id);
        self.peak_live = self.peak_live.max(self.live_count());
        if self.auto_gc && self.live_count() > self.gc_threshold {
            self.gc_wanted = true;
        }
        Ok(Edge::new(id, false))
    }

    /// The node an edge points to.
    #[inline]
    pub fn node(&self, edge: Edge) -> Node {
        self.nodes[edge.node().index()]
    }

    /// The level (position in the current variable order) of the
    /// function's top node; [`Var::TERMINAL`] for constants.
    /// [`Bdd::var_at_level`] maps it to the variable identity.
    #[inline]
    pub fn level(&self, edge: Edge) -> Var {
        self.nodes[edge.node().index()].var
    }

    /// Both cofactors of `f` with respect to its **own** top variable,
    /// `(f_then, f_else)`, with complement attributes resolved.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `f` is constant.
    #[inline]
    pub fn branches(&self, f: Edge) -> (Edge, Edge) {
        debug_assert!(!f.is_constant());
        let n = self.node(f);
        let c = f.is_complemented();
        (n.hi.complement_if(c), n.lo.complement_if(c))
    }

    /// The paper's `bdd_get_branches`: cofactors of `f` with respect to
    /// `top`. If `f` does not depend on `top` (its top level is below `top`),
    /// both branches are `f` itself.
    #[inline]
    pub fn branches_at(&self, f: Edge, top: Var) -> (Edge, Edge) {
        if self.level(f) == top {
            self.branches(f)
        } else {
            (f, f)
        }
    }

    /// Negation, in O(1) thanks to complement edges.
    #[inline]
    pub fn not(&self, f: Edge) -> Edge {
        f.complement()
    }

    /// Clears the computed table and the minimization memo (the paper's
    /// cache flush between heuristics). O(1): both are generation-stamped.
    /// Each table then sizes itself to the demand of the interval that
    /// just ended (see `crate::cache::LossyTable::clear`).
    pub fn clear_caches(&mut self) {
        self.cache.table.clear();
        self.min_memo.table.clear();
    }

    /// Reconfigures the computed table: start at `2^log2` entries, allow
    /// adaptive growth up to `2^max_log2` (use `max_log2 == log2` to pin
    /// the capacity: a pinned table neither grows nor shrinks). Drops the
    /// current cache contents; results of subsequent operations are
    /// unaffected — the cache is semantically transparent.
    pub fn configure_cache(&mut self, log2: u32, max_log2: u32) {
        self.cache.table.configure(log2, max_log2);
    }

    /// Reconfigures the minimization memo (see [`Bdd::configure_cache`];
    /// same semantics, separate table).
    pub fn configure_min_memo(&mut self, log2: u32, max_log2: u32) {
        self.min_memo.table.configure(log2, max_log2);
    }

    /// Looks up a minimization-memo entry. `tag` is the caller's injective
    /// encoding of operation class + configuration (see `crate::memo`).
    #[inline]
    pub fn memo_get(&mut self, tag: u64, a: Edge, b: Edge) -> Option<(Edge, Edge)> {
        self.min_memo.get(tag, a, b)
    }

    /// Records a minimization-memo entry. The table is lossy: the entry
    /// may be evicted at any time, so callers must treat it as a pure
    /// cache. Single-edge results conventionally store the edge twice.
    #[inline]
    pub fn memo_insert(&mut self, tag: u64, a: Edge, b: Edge, result: (Edge, Edge)) {
        self.min_memo.insert(tag, a, b, result);
    }

    /// A fresh salt for per-invocation memo key spaces: callers whose
    /// results depend on call-local state (e.g. a substitution map) fold
    /// this into their tag so entries never leak between invocations.
    #[inline]
    pub fn memo_salt(&mut self) -> u32 {
        self.min_memo.next_salt()
    }

    /// Current manager statistics.
    pub fn stats(&self) -> BddStats {
        BddStats {
            live_nodes: self.live_count(),
            allocated_nodes: self.nodes.len(),
            cache_entries: self.cache.table.len(),
            cache_hits: self.cache.table.hits(),
            cache_misses: self.cache.table.misses(),
            cache_evictions: self.cache.table.evictions(),
            cache_capacity: self.cache.table.capacity(),
            cache_resizes: self.cache.table.resizes(),
            cache_shrinks: self.cache.table.shrinks(),
            cache_class_hits: self.cache.class_hits(),
            cache_class_misses: self.cache.class_misses(),
            memo_entries: self.min_memo.table.len(),
            memo_capacity: self.min_memo.table.capacity(),
            memo_hits: self.min_memo.table.hits(),
            memo_misses: self.min_memo.table.misses(),
            memo_evictions: self.min_memo.table.evictions(),
            memo_resizes: self.min_memo.table.resizes(),
            memo_shrinks: self.min_memo.table.shrinks(),
            unique_capacity: self.unique.capacity(),
            gc_runs: self.gc_runs,
            gc_reclaimed: self.gc_reclaimed,
            reorder_runs: self.reorder_runs,
            reorder_swaps: self.reorder_swaps,
            peak_live_nodes: self.peak_live,
            bytes_per_node: Self::BYTES_PER_NODE,
            peak_bytes: self.peak_live * Self::BYTES_PER_NODE,
        }
    }

    /// Estimated bytes one allocated node costs: the payload, the
    /// liveness flag, and one amortized unique-table slot word.
    pub const BYTES_PER_NODE: usize = std::mem::size_of::<Node>() + std::mem::size_of::<u32>() + 1;

    /// Test hook for the `reorder-invariance` mutation gate: swaps two
    /// entries of the level-permutation maps **without** moving any node,
    /// simulating the "maps out of sync with the subtables" bug class the
    /// oracle exists to catch. Never call this outside tests.
    #[doc(hidden)]
    pub fn debug_desync_level_maps(&mut self) {
        if self.level2var.len() < 2 {
            return;
        }
        self.level2var.swap(0, 1);
        let a = self.level2var[0];
        let b = self.level2var[1];
        self.var2level[a.index()] = 0;
        self.var2level[b.index()] = 1;
    }

    /// Test hook for the `image-equivalence` mutation gate: makes the
    /// fused `and_exists` drop the `e`-branch at every quantified level —
    /// as if its ⊤ short-circuit condition were wrong — so relational
    /// products silently under-approximate. The bug class a broken fused
    /// kernel would produce. Never call this outside tests.
    #[doc(hidden)]
    pub fn debug_break_and_exists(&mut self) {
        self.break_and_exists = true;
    }
}

impl Default for Bdd {
    /// An empty manager with no variables (add them with [`Bdd::add_var`]).
    fn default() -> Self {
        Bdd::with_names(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_variable() {
        let mut bdd = Bdd::new(2);
        let a1 = bdd.var(Var(0));
        let a2 = bdd.var(Var(0));
        assert_eq!(a1, a2);
        assert_eq!(bdd.stats().live_nodes, 2); // terminal + one decision node
    }

    #[test]
    fn deletion_rule() {
        let mut bdd = Bdd::new(2);
        let e = bdd.mk(Var(0), Edge::ONE, Edge::ONE);
        assert_eq!(e, Edge::ONE);
    }

    #[test]
    fn complement_normalisation() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(Var(0));
        let na = bdd.not(a);
        // !a is stored as a complemented edge to the same node.
        assert_eq!(na.node(), a.node());
        assert!(na.is_complemented());
        // Stored hi edge is regular.
        assert!(!bdd.node(a).hi.is_complemented());
    }

    #[test]
    fn branches_resolve_complement() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(Var(0));
        let (t, e) = bdd.branches(a);
        assert_eq!((t, e), (Edge::ONE, Edge::ZERO));
        let (t, e) = bdd.branches(bdd.not(a));
        assert_eq!((t, e), (Edge::ZERO, Edge::ONE));
    }

    #[test]
    fn branches_at_below_top() {
        let mut bdd = Bdd::new(3);
        let b = bdd.var(Var(1));
        let (t, e) = bdd.branches_at(b, Var(0));
        assert_eq!((t, e), (b, b));
        let (t, e) = bdd.branches_at(b, Var(1));
        assert_eq!((t, e), (Edge::ONE, Edge::ZERO));
    }

    #[test]
    fn named_vars() {
        let mut bdd = Bdd::with_names(&["p", "q"]);
        assert_eq!(bdd.var_by_name("q"), Some(Var(1)));
        assert_eq!(bdd.var_by_name("r"), None);
        assert_eq!(bdd.var_name(Var(0)), "p");
        let r = bdd.add_var("r");
        assert_eq!(r, Var(2));
        assert_eq!(bdd.num_vars(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate variable name")]
    fn duplicate_name_panics() {
        let mut bdd = Bdd::with_names(&["p"]);
        bdd.add_var("p");
    }

    #[test]
    fn literal_polarity() {
        let mut bdd = Bdd::new(1);
        let pos = bdd.literal(Var(0), true);
        let neg = bdd.literal(Var(0), false);
        assert_eq!(neg, bdd.not(pos));
    }

    #[test]
    fn constant_levels() {
        let bdd = Bdd::new(1);
        assert!(bdd.level(Edge::ONE).is_terminal());
        assert!(bdd.level(Edge::ZERO).is_terminal());
        assert_eq!(bdd.constant(true), Edge::ONE);
        assert_eq!(bdd.constant(false), Edge::ZERO);
    }

    #[test]
    fn unique_table_doubles_with_growth() {
        // Build a function family big enough to force several table
        // doublings; canonicity (find-or-add) must hold throughout.
        let mut bdd = Bdd::new(18);
        let start_cap = bdd.stats().unique_capacity;
        let mut f = Edge::ZERO;
        for i in 0..18u32 {
            let v = bdd.var(Var(i));
            let prev = f;
            let w = bdd.xor(v, prev);
            f = bdd.or(w, prev);
        }
        assert!(bdd.stats().unique_capacity >= start_cap);
        // Rebuilding an equal function must return the identical edge.
        let mut g = Edge::ZERO;
        for i in 0..18u32 {
            let v = bdd.var(Var(i));
            let prev = g;
            let w = bdd.xor(v, prev);
            g = bdd.or(w, prev);
        }
        assert_eq!(f, g);
    }

    #[test]
    fn pin_unpin_roundtrip() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let f = bdd.and(a, b);
        bdd.pin(f);
        bdd.pin(f);
        assert!(bdd.unpin(f));
        assert!(bdd.unpin(f));
        assert!(!bdd.unpin(f));
    }

    #[test]
    fn past_deadline_trips_on_the_very_first_step() {
        // The poll schedule starts at step 1: a deadline that is already
        // gone must trip before any real work happens, no matter how
        // coarse the steady-state gap is.
        let mut bdd = Bdd::new(2);
        bdd.set_budget(Budget::default().deadline(std::time::Instant::now()));
        assert_eq!(
            bdd.charge_step().unwrap_err(),
            BudgetExceeded::TIME,
            "stale deadline survived the first step"
        );
    }

    #[test]
    fn adaptive_polling_bounds_deadline_overshoot() {
        use std::time::{Duration, Instant};
        // Simulate a run of uniformly expensive governed steps (one wide
        // apply): each step burns ~200 µs of wall clock before charging.
        // Under the historical fixed 1024-step stride the second poll
        // would land at step 1025 ≈ 205 ms — a 5× overshoot of the 40 ms
        // window. The adaptive ramp polls on a doubling schedule in the
        // first half of the window and a halving one in the second, so
        // the trip must arrive close to the deadline.
        let window = Duration::from_millis(40);
        let mut bdd = Bdd::new(2);
        let t0 = Instant::now();
        bdd.set_budget(Budget::default().deadline(t0 + window));
        let err = loop {
            let step_start = Instant::now();
            while step_start.elapsed() < Duration::from_micros(200) {
                std::hint::spin_loop();
            }
            if let Err(e) = bdd.charge_step() {
                break e;
            }
            assert!(
                t0.elapsed() < window * 6,
                "deadline overshoot unbounded: {:?} elapsed for a {:?} window",
                t0.elapsed(),
                window
            );
        };
        assert_eq!(err, BudgetExceeded::TIME);
        // Generous CI bound: the trip must land within 3× the window
        // (the fixed stride needed >5×; typical adaptive overshoot is
        // well under 1 ms here).
        assert!(
            t0.elapsed() < window * 3,
            "deadline overshoot too large: {:?} for a {:?} window",
            t0.elapsed(),
            window
        );
    }

    #[test]
    fn deadline_poll_gap_halves_past_the_window_midpoint() {
        use std::time::{Duration, Instant};
        // White-box: drive charge_step with a deadline whose midpoint is
        // already behind us; every poll must now tighten the gap.
        let mut bdd = Bdd::new(2);
        bdd.set_budget(Budget::default().deadline(Instant::now() + Duration::from_secs(600)));
        // Ramp up: polls before the midpoint double the gap.
        for _ in 0..50_000 {
            bdd.charge_step().unwrap();
        }
        let ramped = bdd.deadline_poll_gap;
        assert_eq!(ramped, DEADLINE_POLL_GAP_MAX, "gap never reached the cap");
        // Force the midpoint into the past; the next polls must halve.
        bdd.deadline_half = Some(Instant::now() - Duration::from_millis(1));
        for _ in 0..4 * DEADLINE_POLL_GAP_MAX {
            bdd.charge_step().unwrap();
        }
        assert!(
            bdd.deadline_poll_gap <= ramped / 4,
            "gap did not tighten past the midpoint: {} vs {}",
            bdd.deadline_poll_gap,
            ramped
        );
    }

    /// A fixed mix of kernel, memo and budgeted work on the first five
    /// variables: every result, the step count, and the statistics.
    fn workload(bdd: &mut Bdd) -> (Vec<Edge>, Vec<u32>, u64, BddStats) {
        let v: Vec<Edge> = (0..5).map(|i| bdd.var(Var(i))).collect();
        let mut out = Vec::new();
        let mut salts = Vec::new();
        for round in 0..3 {
            bdd.clear_caches();
            let f = bdd.xor(v[round], v[4]);
            let g = bdd.or(f, v[round + 1]);
            let c = bdd.and(v[2], v[3]);
            out.push(bdd.constrain(g, c));
            out.push(bdd.restrict(g, c));
            salts.push(bdd.memo_salt());
            bdd.memo_insert(u64::from(salts[round]), f, g, (c, c));
            out.push(bdd.memo_get(u64::from(salts[round]), f, g).unwrap().0);
        }
        bdd.set_budget(Budget::UNLIMITED.steps(6));
        let f = bdd.xor(v[0], v[1]);
        let g = bdd.xor(v[2], v[3]);
        out.push(bdd.try_and(f, g).unwrap_or(Edge::ZERO));
        let steps = bdd.steps_used();
        bdd.clear_budget();
        (out, salts, steps, bdd.stats())
    }

    #[test]
    fn a_reset_manager_is_a_fresh_one() {
        let mut used = Bdd::with_names(&["p", "q", "r", "s", "t", "u", "w"]);
        used.configure_cache(4, 4);
        used.configure_min_memo(20, 20);
        used.set_auto_gc(true);
        used.set_var_group(&[Var(0), Var(1)]);
        let _ = workload(&mut used);
        let kept = used.xor(Edge::ONE, Edge::ZERO);
        used.pin(kept);
        used.swap_levels(0);
        used.set_budget(Budget::UNLIMITED.steps(1));
        let _ = used.try_ite(kept, Edge::ONE, Edge::ZERO);
        used.collect_garbage(&[]);
        used.reset(6);
        let mut fresh = Bdd::new(6);
        assert_eq!(used.stats(), fresh.stats());
        assert_eq!(used.current_order(), fresh.current_order());
        assert_eq!(used.var_name(Var(0)), "x1");
        assert_eq!(used.budget(), Budget::UNLIMITED);
        assert_eq!(workload(&mut used), workload(&mut fresh));
    }
}
