//! Dynamic variable reordering: the in-place adjacent-level swap kernel
//! and Rudell sifting, built on the per-level subtables of
//! `crate::unique`.
//!
//! # The swap kernel
//!
//! [`Bdd::swap_levels`]`(i)` exchanges the variables at levels `i` and
//! `i + 1` **in place**: every node slot keeps denoting the same Boolean
//! function, so external [`Edge`]s stay valid across the swap. With
//! per-level subtables the swap touches exactly two subtables:
//!
//! 1. Both subtables are detached. Nodes at level `i` (variable `x`)
//!    whose children do not live at level `i + 1` (variable `y`) are
//!    independent of `y`; they keep their children and simply move to
//!    level `i + 1`.
//! 2. Each remaining `x`-node `(x, f1, f0)` is rewritten in place to
//!    `(y, x·f11 + x'·f01, x·f10 + x'·f00)` where `fab` are the
//!    cofactors of its children with respect to `y`. The two fresh
//!    `x`-cofactor nodes are found-or-added at level `i + 1`; because
//!    the stored hi edge is always regular, the rewritten hi child is
//!    regular too and the slot needs no complement flip — it still
//!    denotes the same function under the new order.
//! 3. Surviving `y`-nodes move to level `i`. Their keys cannot collide
//!    with the rewritten `x`-nodes: a rewritten node always has at least
//!    one child at level `i + 1`, a moved `y`-node never does.
//!
//! Reference counts (built once per reorder from the live graph, the
//! pinned roots, the single-variable roots, and the caller's explicit
//! roots) are maintained across swaps with increment-new-before-
//! decrement-old discipline; nodes whose count reaches zero are removed
//! from their subtable via backward-shift deletion, freed, and the
//! decrement cascades to their children.
//!
//! # Sifting
//!
//! [`Bdd::reorder`] runs Rudell sifting: each variable (largest subtable
//! first) is moved to every position in the order via adjacent swaps —
//! nearer end first — while the total node count is tracked, a growth
//! factor aborts unpromising directions, and the variable finally
//! settles at its best recorded position. Group sifting
//! ([`ReorderMethod::GroupSift`]) moves user-declared variable groups
//! ([`Bdd::set_var_group`]) as contiguous blocks instead.
//!
//! # Budgets and consistency
//!
//! The PR-4 [`Budget`](crate::Budget) governor is charged between swaps
//! (proportionally to the two subtables touched); a blown step budget or
//! deadline aborts the sift **between** swaps, so the table, the
//! permutation maps and canonicity are always consistent afterwards —
//! the order is merely whatever the sift had reached. The node ceiling
//! is deliberately not enforced here: reordering is the mechanism that
//! *reduces* the node count, and its transient allocations are bounded
//! by the two levels being swapped.
//!
//! The computed table and the minimization memo are cleared once at
//! reorder start (freed nodes would otherwise leave dangling entries);
//! transient signature memos (`crate::sig`) must likewise be dropped by
//! their owners after any reorder.

use crate::budget::BudgetExceeded;
use crate::edge::{Edge, NodeId, Var};
use crate::manager::Bdd;
use crate::node::Node;

/// Which reordering algorithm to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ReorderMethod {
    /// Do not reorder (the identity method; keeps every path byte-
    /// identical to a manager without reordering support).
    None,
    /// Rudell sifting: every variable individually seeks its locally
    /// optimal level.
    #[default]
    Sift,
    /// Sifting over user-declared variable groups
    /// ([`Bdd::set_var_group`]); each group moves as one contiguous
    /// block, ungrouped variables sift individually.
    GroupSift,
}

impl ReorderMethod {
    /// Stable name: `none`, `sift`, `group`.
    pub fn name(self) -> &'static str {
        match self {
            ReorderMethod::None => "none",
            ReorderMethod::Sift => "sift",
            ReorderMethod::GroupSift => "group",
        }
    }
}

impl std::fmt::Display for ReorderMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ReorderMethod {
    type Err = String;

    fn from_str(s: &str) -> Result<ReorderMethod, String> {
        match s {
            "none" => Ok(ReorderMethod::None),
            "sift" => Ok(ReorderMethod::Sift),
            "group" => Ok(ReorderMethod::GroupSift),
            other => Err(format!(
                "unknown reorder method {other:?} (want none, sift or group)"
            )),
        }
    }
}

/// Parameters of a reordering pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReorderSettings {
    /// The algorithm to run.
    pub method: ReorderMethod,
    /// Maximum growth of the total node count while one variable (or
    /// group) explores a direction, relative to the best size seen so
    /// far for that variable. `1.2` is the classic sifting default;
    /// values below `1.0` are clamped to `1.0`.
    pub growth: f64,
    /// Ceiling on adjacent swaps for the whole pass; exhausting it stops
    /// the sift cleanly (the pass reports `aborted`).
    pub max_swaps: usize,
}

impl Default for ReorderSettings {
    fn default() -> ReorderSettings {
        ReorderSettings {
            method: ReorderMethod::Sift,
            growth: 1.2,
            max_swaps: 1 << 20,
        }
    }
}

impl ReorderSettings {
    /// Sifting with the given growth factor, other fields default.
    pub fn sift(growth: f64) -> ReorderSettings {
        ReorderSettings {
            method: ReorderMethod::Sift,
            growth,
            ..ReorderSettings::default()
        }
    }

    /// Group sifting with the given growth factor.
    pub fn group_sift(growth: f64) -> ReorderSettings {
        ReorderSettings {
            method: ReorderMethod::GroupSift,
            growth,
            ..ReorderSettings::default()
        }
    }
}

/// Outcome of one reordering pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReorderStats {
    /// Adjacent-level swaps executed.
    pub swaps: usize,
    /// Unique-table node count when the pass started (after the initial
    /// collection).
    pub nodes_before: usize,
    /// Node count when the pass finished.
    pub nodes_after: usize,
    /// True when the pass stopped early — swap ceiling or blown budget —
    /// rather than completing every variable. The table and order are
    /// consistent either way.
    pub aborted: bool,
}

/// Increments the reorder-time reference count of an edge's target.
#[inline]
fn inc_ref(refs: &mut [u32], e: Edge) {
    if !e.is_constant() {
        refs[e.node().index()] += 1;
    }
}

impl Bdd {
    /// Reorders the variables with `settings`, preserving **only** the
    /// pinned roots ([`Bdd::pin`]) and the single-variable functions —
    /// the same survival contract as [`Bdd::collect_garbage`]. Budget
    /// trips stop the pass cleanly (`stats.aborted`) instead of failing;
    /// use [`Bdd::try_reorder`] to observe them.
    pub fn reorder(&mut self, settings: &ReorderSettings) -> ReorderStats {
        self.reorder_roots(settings, &[])
    }

    /// [`Bdd::reorder`] with extra roots kept alive alongside the pins.
    pub fn reorder_roots(&mut self, settings: &ReorderSettings, roots: &[Edge]) -> ReorderStats {
        let (stats, _) = self.reorder_impl(settings, roots);
        stats
    }

    /// Checked [`Bdd::reorder`]: a blown budget aborts the sift between
    /// swaps and surfaces as `Err`. The unique table, the permutation
    /// maps and canonicity are consistent on both paths; an aborted pass
    /// simply leaves the order where the sift stopped.
    pub fn try_reorder(
        &mut self,
        settings: &ReorderSettings,
    ) -> Result<ReorderStats, BudgetExceeded> {
        self.try_reorder_roots(settings, &[])
    }

    /// [`Bdd::try_reorder`] with extra roots kept alive.
    pub fn try_reorder_roots(
        &mut self,
        settings: &ReorderSettings,
        roots: &[Edge],
    ) -> Result<ReorderStats, BudgetExceeded> {
        let (stats, err) = self.reorder_impl(settings, roots);
        match err {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }

    /// Swaps the variables at levels `i` and `i + 1` in place, as a
    /// standalone kernel operation (no GC, no budget): external edges to
    /// surviving nodes stay valid, and a second call with the same `i`
    /// restores the original order with root edges bit-identical.
    /// Preserves the pinned roots, the single-variable functions, and
    /// every node reachable from the current table; clears the computed
    /// caches (their entries may reference nodes freed by the swap).
    ///
    /// # Panics
    ///
    /// Panics if `i + 1` is not a valid level.
    pub fn swap_levels(&mut self, i: usize) {
        assert!(
            i + 1 < self.num_vars(),
            "swap_levels({i}): level {} out of range",
            i + 1
        );
        self.clear_caches();
        let mut refs = self.build_reorder_refs(&[]);
        self.swap_in_place(i, &mut refs);
    }

    /// One reorder pass: shared by the checked and unchecked entry
    /// points so both leave identical state.
    pub(crate) fn reorder_impl(
        &mut self,
        settings: &ReorderSettings,
        roots: &[Edge],
    ) -> (ReorderStats, Option<BudgetExceeded>) {
        let nodes_now = self.unique.len();
        let mut stats = ReorderStats {
            swaps: 0,
            nodes_before: nodes_now,
            nodes_after: nodes_now,
            aborted: false,
        };
        if settings.method == ReorderMethod::None || self.num_vars() < 2 {
            return (stats, None);
        }
        // Dangling-entry hygiene: the caches may hold edges to nodes the
        // swap kernel will free, and minimization memos are keyed on
        // level-dependent traversals. One O(1) generation bump clears
        // both.
        self.clear_caches();
        // Collect first so the reference counts describe exactly the
        // graph that must survive, and the size metric the sift
        // minimizes is not polluted by garbage.
        self.collect_garbage(roots);
        stats.nodes_before = self.unique.len();
        let mut refs = self.build_reorder_refs(roots);
        let grouped = settings.method == ReorderMethod::GroupSift;
        let growth = settings.growth.max(1.0);
        let mut swaps_left = settings.max_swaps;
        let swaps_at_start = self.reorder_swaps;
        let mut err = None;

        let mut run = || -> Result<bool, BudgetExceeded> {
            if grouped {
                self.make_groups_contiguous(&mut refs, &mut swaps_left)?;
            }
            // Largest blocks first, like CUDD: they have the most to
            // gain, and moving them early is cheaper while the table is
            // still big.
            let blocks = self.sift_blocks(grouped);
            for block in blocks {
                if !self.sift_block(&block, grouped, growth, &mut refs, &mut swaps_left)? {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        match run() {
            Ok(true) => {}
            Ok(false) => stats.aborted = true,
            Err(e) => {
                stats.aborted = true;
                err = Some(e);
            }
        }

        stats.swaps = (self.reorder_swaps - swaps_at_start) as usize;
        stats.nodes_after = self.unique.len();
        self.reorder_runs += 1;
        (stats, err)
    }

    /// Reference counts over the live graph plus all roots that must
    /// survive the reorder. Counted from every live node (including
    /// floating garbage, whose children therefore stay protected), so
    /// only nodes made genuinely redundant by a swap are ever freed.
    fn build_reorder_refs(&self, roots: &[Edge]) -> Vec<u32> {
        let mut refs = vec![0u32; self.nodes.len()];
        for (id, n) in self.nodes.iter().enumerate().skip(1) {
            if !self.live[id] {
                continue;
            }
            inc_ref(&mut refs, n.hi);
            inc_ref(&mut refs, n.lo);
        }
        for &e in roots {
            inc_ref(&mut refs, e);
        }
        let pins: Vec<Edge> = self.pinned.clone();
        for e in pins {
            inc_ref(&mut refs, e);
        }
        for root in self.var_roots.iter().flatten() {
            inc_ref(&mut refs, *root);
        }
        refs
    }

    /// The sift blocks for this pass, largest combined subtable first.
    /// Each block is a list of variable identities; singletons for plain
    /// sifting, declared groups plus singletons for group sifting.
    fn sift_blocks(&self, grouped: bool) -> Vec<Vec<Var>> {
        let mut blocks: Vec<Vec<Var>> = Vec::new();
        if grouped {
            for g in &self.var_groups {
                blocks.push(g.clone());
            }
            for level in 0..self.num_vars() {
                let v = self.level2var[level];
                if !self.var_groups.iter().any(|g| g.contains(&v)) {
                    blocks.push(vec![v]);
                }
            }
        } else {
            for level in 0..self.num_vars() {
                blocks.push(vec![self.level2var[level]]);
            }
        }
        let size_of = |block: &Vec<Var>| -> usize {
            block
                .iter()
                .map(|v| self.unique.level_len(self.var2level[v.index()] as usize))
                .sum()
        };
        let tag_of = |block: &Vec<Var>| block.iter().map(|v| v.0).min().unwrap_or(0);
        blocks.sort_by_key(|b| (std::cmp::Reverse(size_of(b)), tag_of(b)));
        blocks
    }

    /// The block occupying `level`: `(top_level, len)`. Groups count as
    /// one block only under group sifting.
    fn block_at_level(&self, level: usize, grouped: bool) -> (usize, usize) {
        if grouped {
            let v = self.level2var[level];
            if let Some(g) = self.var_groups.iter().find(|g| g.contains(&v)) {
                let top = g
                    .iter()
                    .map(|m| self.var2level[m.index()] as usize)
                    .min()
                    .expect("groups are non-empty");
                return (top, g.len());
            }
        }
        (level, 1)
    }

    /// Makes every declared group contiguous by pulling members up to
    /// sit directly below the group's topmost member. Already-contiguous
    /// groups are never split by later moves: a variable stopping
    /// adjacent to a block either sits outside it or pushes it whole.
    fn make_groups_contiguous(
        &mut self,
        refs: &mut Vec<u32>,
        swaps_left: &mut usize,
    ) -> Result<(), BudgetExceeded> {
        let groups = self.var_groups.clone();
        for g in groups {
            let mut members = g;
            members.sort_by_key(|m| self.var2level[m.index()]);
            for k in 1..members.len() {
                let target = self.var2level[members[0].index()] as usize + k;
                let mut cur = self.var2level[members[k].index()] as usize;
                debug_assert!(cur >= target, "members sorted by level");
                while cur > target {
                    if !self.budgeted_swap(cur - 1, refs, swaps_left)? {
                        return Ok(());
                    }
                    cur -= 1;
                }
            }
        }
        Ok(())
    }

    /// Sifts one block to its locally optimal position. Returns
    /// `Ok(false)` when the swap ceiling ran out (stop the pass).
    fn sift_block(
        &mut self,
        members: &[Var],
        grouped: bool,
        growth: f64,
        refs: &mut Vec<u32>,
        swaps_left: &mut usize,
    ) -> Result<bool, BudgetExceeded> {
        let n = self.num_vars();
        let len = members.len();
        if len >= n {
            return Ok(true);
        }
        let top0 = members
            .iter()
            .map(|m| self.var2level[m.index()] as usize)
            .min()
            .expect("blocks are non-empty");
        let max_top = n - len;
        let mut cur = top0;
        let mut best = top0;
        let mut best_size = self.unique.len();
        // Nearer end first: fewer swaps before the first direction pays
        // off or aborts.
        let up_first = cur <= max_top - cur;
        let mut exhausted = false;
        'directions: for pass in 0..2 {
            let up = (pass == 0) == up_first;
            loop {
                if (up && cur == 0) || (!up && cur == max_top) {
                    break;
                }
                if up {
                    let (nb_top, nb_len) = self.block_at_level(cur - 1, grouped);
                    debug_assert_eq!(nb_top + nb_len, cur, "neighbor block is contiguous");
                    if !self.swap_blocks(nb_top, nb_len, len, refs, swaps_left)? {
                        exhausted = true;
                        break 'directions;
                    }
                    cur = nb_top;
                } else {
                    let (_nb_top, nb_len) = self.block_at_level(cur + len, grouped);
                    if !self.swap_blocks(cur, len, nb_len, refs, swaps_left)? {
                        exhausted = true;
                        break 'directions;
                    }
                    cur += nb_len;
                }
                let size = self.unique.len();
                if size < best_size {
                    best_size = size;
                    best = cur;
                }
                if size as f64 > best_size as f64 * growth {
                    break;
                }
            }
        }
        // Settle at the best recorded position. The relative order of
        // the other blocks never changed, so every recorded position is
        // reachable by walking back past the same neighbors. The
        // settling walk runs even when the swap ceiling was hit — it is
        // bounded by the order length and leaves a predictable state.
        let mut unlimited = usize::MAX;
        while cur > best {
            let (nb_top, nb_len) = self.block_at_level(cur - 1, grouped);
            self.swap_blocks(nb_top, nb_len, len, refs, &mut unlimited)?;
            cur = nb_top;
        }
        while cur < best {
            let (_nb_top, nb_len) = self.block_at_level(cur + len, grouped);
            self.swap_blocks(cur, len, nb_len, refs, &mut unlimited)?;
            cur += nb_len;
        }
        Ok(!exhausted)
    }

    /// Exchanges two adjacent blocks: `A` at `[t, t+la)` and `B` at
    /// `[t+la, t+la+lb)` become `B` at `[t, t+lb)`, `A` below. Moves each
    /// `B` member up through `A` in turn (`la · lb` elementary swaps).
    /// Returns `Ok(false)` when the swap ceiling ran out mid-exchange.
    fn swap_blocks(
        &mut self,
        t: usize,
        la: usize,
        lb: usize,
        refs: &mut Vec<u32>,
        swaps_left: &mut usize,
    ) -> Result<bool, BudgetExceeded> {
        for k in 0..lb {
            let from = t + k + la;
            for lvl in (t + k..from).rev() {
                if !self.budgeted_swap(lvl, refs, swaps_left)? {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// One budget-checked elementary swap. The budget is charged
    /// *before* mutating, proportionally to the two subtables touched,
    /// so a trip always happens between swaps with the table consistent.
    fn budgeted_swap(
        &mut self,
        lvl: usize,
        refs: &mut Vec<u32>,
        swaps_left: &mut usize,
    ) -> Result<bool, BudgetExceeded> {
        if *swaps_left == 0 {
            return Ok(false);
        }
        let cost = (self.unique.level_len(lvl) + self.unique.level_len(lvl + 1) + 1) as u64;
        self.steps = self.steps.saturating_add(cost);
        if let Some(limit) = self.budget.step_limit {
            if self.steps > limit {
                return Err(BudgetExceeded::STEPS);
            }
        }
        if let Some(deadline) = self.budget.deadline {
            // Swaps are chunky; poll every time rather than the masked
            // poll the fine-grained recursions use.
            if std::time::Instant::now() >= deadline {
                return Err(BudgetExceeded::TIME);
            }
        }
        self.swap_in_place(lvl, refs);
        *swaps_left = swaps_left.saturating_sub(1);
        Ok(true)
    }

    /// The adjacent-level swap kernel (see the module docs for the full
    /// correctness argument). Returns the new total node count.
    pub(crate) fn swap_in_place(&mut self, i: usize, refs: &mut Vec<u32>) -> usize {
        let xl = Var(i as u32);
        let yl = Var(i as u32 + 1);
        let xs = self.unique.take_level(i);
        let ys = self.unique.take_level(i + 1);

        // Pass 1: x-nodes independent of y keep their children and move
        // down one level.
        let mut dependents: Vec<u32> = Vec::with_capacity(xs.len());
        for &id in &xs {
            let n = self.nodes[id as usize];
            if self.level(n.hi) != yl && self.level(n.lo) != yl {
                self.nodes[id as usize].var = yl;
                self.unique.insert(&self.nodes, NodeId(id));
            } else {
                dependents.push(id);
            }
        }

        // Pass 2: y-dependent x-nodes are rewritten in place; their slot
        // keeps denoting the same function under the swapped order.
        //
        // Slots freed here are *deferred* (not pushed to the free list
        // until the swap ends): `ys` still names them, so reusing one for
        // a fresh node before pass 3 would make the pass-3 liveness check
        // mistake the new occupant for a surviving y-node.
        let mut freed: Vec<u32> = Vec::new();
        for id in dependents {
            let n = self.nodes[id as usize];
            let (f11, f10) = self.branches_at(n.hi, yl);
            let (f01, f00) = self.branches_at(n.lo, yl);
            let new_hi = self.reorder_mk(yl, f11, f01, refs);
            let new_lo = self.reorder_mk(yl, f10, f00, refs);
            debug_assert!(
                !new_hi.is_complemented(),
                "regular-hi invariant broken by swap"
            );
            debug_assert_ne!(
                new_hi, new_lo,
                "y-dependent node cannot lose its dependence"
            );
            inc_ref(refs, new_hi);
            inc_ref(refs, new_lo);
            self.nodes[id as usize] = Node {
                var: xl,
                hi: new_hi,
                lo: new_lo,
            };
            self.unique.insert(&self.nodes, NodeId(id));
            // Old children released last: anything still needed is
            // already re-referenced above.
            self.release_ref(n.hi, refs, yl.0, &mut freed);
            self.release_ref(n.lo, refs, yl.0, &mut freed);
        }

        // Pass 3: surviving y-nodes move up. Keys cannot collide with
        // the rewritten x-nodes (those keep at least one child at level
        // i + 1; y-children all sit deeper).
        for id in ys {
            if !self.live[id as usize] {
                continue; // freed during pass 2
            }
            self.nodes[id as usize].var = xl;
            self.unique.insert(&self.nodes, NodeId(id));
        }

        // The swap is complete; freed slots may now be recycled.
        self.free.extend(freed);

        // Permutation maps last, so the table and maps flip together.
        let a = self.level2var[i];
        let b = self.level2var[i + 1];
        self.level2var[i] = b;
        self.level2var[i + 1] = a;
        self.var2level[a.index()] = i as u32 + 1;
        self.var2level[b.index()] = i as u32;
        self.reorder_swaps += 1;
        self.unique.len()
    }

    /// Reorder-local find-or-add at `level`, applying the deletion rule
    /// and complement normalisation. Fresh nodes take the counts of
    /// their children; the caller owns the count of the returned edge.
    fn reorder_mk(&mut self, level: Var, hi: Edge, lo: Edge, refs: &mut Vec<u32>) -> Edge {
        if hi == lo {
            return hi;
        }
        if hi.is_complemented() {
            return self
                .reorder_mk_raw(level, hi.complement(), lo.complement(), refs)
                .complement();
        }
        self.reorder_mk_raw(level, hi, lo, refs)
    }

    fn reorder_mk_raw(&mut self, level: Var, hi: Edge, lo: Edge, refs: &mut Vec<u32>) -> Edge {
        debug_assert!(!hi.is_complemented());
        if let Some(id) = self.unique.find(&self.nodes, level, hi, lo) {
            return Edge::new(id, false);
        }
        let id = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = Node { var: level, hi, lo };
                self.live[slot as usize] = true;
                refs[slot as usize] = 0;
                NodeId(slot)
            }
            None => {
                let id = NodeId(self.nodes.len() as u32);
                assert!(id.0 < u32::MAX >> 1, "node table overflow");
                self.nodes.push(Node { var: level, hi, lo });
                self.live.push(true);
                refs.push(0);
                id
            }
        };
        self.unique.insert(&self.nodes, id);
        inc_ref(refs, hi);
        inc_ref(refs, lo);
        Edge::new(id, false)
    }

    /// Decrements an edge's target count; a node reaching zero is
    /// removed from its subtable (unless its level is the detached one,
    /// whose subtable the swap already owns), marked dead, and the
    /// release cascades to its children. Freed slots go to `freed`, not
    /// the manager free list — the caller recycles them only once the
    /// enclosing swap has finished with its detached level lists.
    fn release_ref(
        &mut self,
        e: Edge,
        refs: &mut Vec<u32>,
        detached_level: u32,
        freed: &mut Vec<u32>,
    ) {
        if e.is_constant() {
            return;
        }
        let id = e.node();
        debug_assert!(refs[id.index()] > 0, "reference underflow in swap");
        refs[id.index()] -= 1;
        if refs[id.index()] > 0 {
            return;
        }
        let n = self.nodes[id.index()];
        if n.var.0 != detached_level {
            self.unique.remove(&self.nodes, id);
        }
        self.live[id.index()] = false;
        freed.push(id.0);
        self.release_ref(n.hi, refs, detached_level, freed);
        self.release_ref(n.lo, refs, detached_level, freed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Budget;

    /// A function whose size is order-sensitive: f = Σ aᵢ·bᵢ with all
    /// a's declared above all b's (the classic exponential order).
    fn interleaving_victim(bdd: &mut Bdd, pairs: usize) -> Edge {
        let mut f = Edge::ZERO;
        for i in 0..pairs {
            let a = bdd.var(Var(i as u32));
            let b = bdd.var(Var((pairs + i) as u32));
            let t = bdd.and(a, b);
            f = bdd.or(f, t);
        }
        f
    }

    #[test]
    fn swap_preserves_semantics_and_identity() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let ab = bdd.and(a, b);
        let f = bdd.xor(ab, c);
        bdd.pin(f);
        let before: Vec<bool> = (0..16)
            .map(|k| {
                let assig: Vec<bool> = (0..4).map(|v| (k >> v) & 1 == 1).collect();
                bdd.eval(f, &assig)
            })
            .collect();
        bdd.swap_levels(1);
        assert_eq!(bdd.var_at_level(Var(1)), Var(2));
        assert_eq!(bdd.var_at_level(Var(2)), Var(1));
        let after: Vec<bool> = (0..16)
            .map(|k| {
                let assig: Vec<bool> = (0..4).map(|v| (k >> v) & 1 == 1).collect();
                bdd.eval(f, &assig)
            })
            .collect();
        assert_eq!(before, after, "swap changed the function");
        // Swap back restores the original order.
        bdd.swap_levels(1);
        assert_eq!(bdd.current_order(), vec![Var(0), Var(1), Var(2), Var(3)]);
    }

    #[test]
    fn sift_shrinks_an_adversarial_order() {
        let pairs = 6;
        let mut bdd = Bdd::new(2 * pairs);
        let f = interleaving_victim(&mut bdd, pairs);
        bdd.pin(f);
        let before = bdd.size(f);
        let stats = bdd.reorder(&ReorderSettings::sift(1.5));
        assert!(!stats.aborted);
        let after = bdd.size(f);
        assert!(
            after * 2 <= before,
            "sifting should at least halve Σ aᵢ·bᵢ under the split order ({before} -> {after})"
        );
        assert!(stats.nodes_after <= stats.nodes_before);
        assert!(stats.swaps > 0);
    }

    #[test]
    fn blown_step_budget_aborts_between_swaps() {
        let pairs = 5;
        let mut bdd = Bdd::new(2 * pairs);
        let f = interleaving_victim(&mut bdd, pairs);
        bdd.pin(f);
        let used = bdd.steps_used();
        bdd.set_budget(Budget::default().steps(used + 40));
        let err = bdd.try_reorder(&ReorderSettings::sift(2.0));
        assert!(err.is_err(), "a 40-step budget cannot complete a sift");
        bdd.clear_budget();
        // The survivor is consistent: same function, canonical table.
        let g = interleaving_victim(&mut bdd, pairs);
        assert_eq!(f, g, "canonicity broken after an aborted sift");
    }

    #[test]
    fn group_sift_keeps_groups_contiguous() {
        let pairs = 4;
        let mut bdd = Bdd::new(2 * pairs);
        for i in 0..pairs {
            bdd.set_var_group(&[Var(i as u32), Var((pairs + i) as u32)]);
        }
        let f = interleaving_victim(&mut bdd, pairs);
        bdd.pin(f);
        let stats = bdd.reorder(&ReorderSettings::group_sift(2.0));
        assert!(!stats.aborted);
        // Each declared pair occupies adjacent levels afterwards.
        for i in 0..pairs {
            let la = bdd.level_of_var(Var(i as u32)).0 as i64;
            let lb = bdd.level_of_var(Var((pairs + i) as u32)).0 as i64;
            assert_eq!((la - lb).abs(), 1, "group {i} split: levels {la}, {lb}");
        }
        // And the function still evaluates correctly.
        for k in 0..(1u32 << (2 * pairs)) {
            let assig: Vec<bool> = (0..2 * pairs).map(|v| (k >> v) & 1 == 1).collect();
            let want = (0..pairs).any(|i| assig[i] && assig[pairs + i]);
            assert_eq!(bdd.eval(f, &assig), want);
        }
    }

    #[test]
    fn max_swaps_stops_the_pass() {
        let pairs = 5;
        let mut bdd = Bdd::new(2 * pairs);
        let f = interleaving_victim(&mut bdd, pairs);
        bdd.pin(f);
        let settings = ReorderSettings {
            max_swaps: 3,
            ..ReorderSettings::sift(2.0)
        };
        let stats = bdd.reorder(&settings);
        assert!(stats.aborted);
        // Still canonical and semantically intact.
        let g = interleaving_victim(&mut bdd, pairs);
        assert_eq!(f, g);
    }

    /// Minimal deterministic RNG for the randomized kernel tests (the
    /// workspace RNG lives upstream in `bddmin-core`).
    struct TestRng(u64);

    impl TestRng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// Builds a pseudo-random function DAG over `n` variables.
    fn random_function(bdd: &mut Bdd, n: usize, rng: &mut TestRng) -> Edge {
        let vars: Vec<Edge> = (0..n).map(|i| bdd.var(Var(i as u32))).collect();
        let mut f = vars[(rng.next() % n as u64) as usize];
        for _ in 0..3 * n {
            let v = vars[(rng.next() % n as u64) as usize];
            f = match rng.next() % 3 {
                0 => bdd.and(f, v),
                1 => bdd.or(f, v),
                _ => bdd.xor(f, v),
            };
        }
        f
    }

    #[test]
    fn randomized_swap_and_swap_back_restores_the_table() {
        let n = 10;
        let mut rng = TestRng(0x5eed_cafe);
        for round in 0..12 {
            let mut bdd = Bdd::new(n);
            let f = random_function(&mut bdd, n, &mut rng);
            let g = random_function(&mut bdd, n, &mut rng);
            bdd.pin(f);
            bdd.pin(g);
            bdd.collect_garbage(&[]);
            let size_f = bdd.size(f);
            let size_g = bdd.size(g);
            let order_before = bdd.current_order();
            // A random swap sequence, then its inverse in reverse order.
            let seq: Vec<usize> = (0..20)
                .map(|_| (rng.next() % (n as u64 - 1)) as usize)
                .collect();
            for &i in &seq {
                bdd.swap_levels(i);
            }
            for &i in seq.iter().rev() {
                bdd.swap_levels(i);
            }
            // The permutation is the identity again and the pinned edges
            // are bit-identical (in-place swaps never move slots), with
            // their original sizes.
            assert_eq!(bdd.current_order(), order_before, "round {round}");
            assert_eq!(bdd.size(f), size_f, "round {round}: |f| changed");
            assert_eq!(bdd.size(g), size_g, "round {round}: |g| changed");
            // Canonicity survived: a GC rebuild keeps the table exact
            // and re-deriving a function is pointer-equal.
            bdd.collect_garbage(&[]);
            let fg = bdd.and(f, g);
            let fg2 = bdd.and(f, g);
            assert_eq!(fg, fg2, "round {round}: canonicity broken");
        }
    }

    #[test]
    fn pinned_roots_survive_sifting_bit_identically() {
        let pairs = 5;
        let n = 2 * pairs;
        let mut bdd = Bdd::new(n);
        let f = interleaving_victim(&mut bdd, pairs);
        let parity = {
            let mut p = bdd.var(Var(0));
            for i in 1..n {
                let v = bdd.var(Var(i as u32));
                p = bdd.xor(p, v);
            }
            p
        };
        bdd.pin(f);
        bdd.pin(parity);
        let truth: Vec<(bool, bool)> = (0..1u32 << n)
            .map(|k| {
                let assig: Vec<bool> = (0..n).map(|v| (k >> v) & 1 == 1).collect();
                (bdd.eval(f, &assig), bdd.eval(parity, &assig))
            })
            .collect();
        let stats = bdd.reorder(&ReorderSettings::sift(1.3));
        assert!(stats.swaps > 0);
        // The pinned edges still denote the same functions under the
        // sifted order — same Edge bits, same semantics.
        for (k, &(want_f, want_p)) in truth.iter().enumerate() {
            let assig: Vec<bool> = (0..n).map(|v| (k >> v) & 1 == 1).collect();
            assert_eq!(bdd.eval(f, &assig), want_f, "f diverged at {k:#x}");
            assert_eq!(
                bdd.eval(parity, &assig),
                want_p,
                "parity diverged at {k:#x}"
            );
        }
        // Parity is order-insensitive: sifting must not grow it.
        assert_eq!(bdd.size(parity), n + 1);
    }

    #[test]
    fn mid_sift_budget_abort_leaves_a_fully_consistent_survivor() {
        let pairs = 6;
        let n = 2 * pairs;
        let mut bdd = Bdd::new(n);
        let f = interleaving_victim(&mut bdd, pairs);
        bdd.pin(f);
        let truth: Vec<bool> = (0..1u32 << n)
            .map(|k| {
                let assig: Vec<bool> = (0..n).map(|v| (k >> v) & 1 == 1).collect();
                bdd.eval(f, &assig)
            })
            .collect();
        let used = bdd.steps_used();
        bdd.set_budget(Budget::default().steps(used + 25));
        let err = bdd.try_reorder(&ReorderSettings::sift(1.5));
        assert!(err.is_err(), "25 steps cannot complete this sift");
        bdd.clear_budget();
        // Survivor checks, mirroring the verification oracles: semantics,
        // canonicity, permutation-map coherence, GC consistency.
        for (k, &want) in truth.iter().enumerate() {
            let assig: Vec<bool> = (0..n).map(|v| (k >> v) & 1 == 1).collect();
            assert_eq!(bdd.eval(f, &assig), want, "abort corrupted f at {k:#x}");
        }
        for v in 0..n {
            let var = Var(v as u32);
            assert_eq!(
                bdd.var_at_level(bdd.level_of_var(var)),
                var,
                "level maps desynced for {var:?}"
            );
        }
        let g = interleaving_victim(&mut bdd, pairs);
        assert_eq!(f, g, "canonicity broken by the aborted sift");
        // GC on the survivor must neither underflow nor leak (its
        // debug assert cross-checks the rebuilt table against the marks).
        bdd.collect_garbage(&[]);
        assert_eq!(bdd.size(f), bdd.size(g));
    }

    #[test]
    fn method_parsing_round_trips() {
        for m in [
            ReorderMethod::None,
            ReorderMethod::Sift,
            ReorderMethod::GroupSift,
        ] {
            assert_eq!(m.name().parse::<ReorderMethod>().unwrap(), m);
        }
        assert!("bogus".parse::<ReorderMethod>().is_err());
    }
}
