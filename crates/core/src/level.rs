//! Minimization at a level (paper Section 3.3).
//!
//! Instead of the local sibling matches of [`generic_td`](crate::generic_td),
//! this pass takes a global view: it gathers every incompletely specified
//! sub-function `[f_j, c_j]` hanging *below* a chosen level `i` (both BDDs
//! pointed to from level `i` or above), builds a **matching graph** under a
//! criterion, solves the *function matching minimization* (FMM) problem on
//! it, and rewrites `[f, c]` with the matched i-covers:
//!
//! * `osm` → directed matching graph (DMG); FMM is solved exactly by
//!   mapping every vertex to a sink (paper Proposition 10). By Theorem 12
//!   this never loses the optimum below level `i`.
//! * `tsm` → undirected matching graph (UMG); FMM is exactly minimum clique
//!   cover (paper Theorem 15), which is NP-complete, so a greedy clique
//!   construction is used with the paper's two optimizations: vertices are
//!   processed in decreasing degree order, and edges are preferred by
//!   ascending *distance* between the functions' access paths.
//!
//! The driver [`opt_lv`] visits levels top-down with tsm, which is the
//! heuristic evaluated in the paper's experiments.
//!
//! Building the matching graph is the schedule's most expensive step:
//! Θ(n²) exact pair checks over the gathered set. When at most
//! [`TABLE_LEVELS`](bddmin_bdd::TABLE_LEVELS) levels lie below `i` and no
//! budget is armed, the pass reads every gathered function once into a
//! packed truth table ([`Bdd::table_below`]) and decides each pair, and
//! the osm vertex grouping, with word operations: no node is built and no
//! cache is touched. Otherwise each check is the cached `agree` predicate,
//! and a tsm check builds the care product `c_j·c_k` first. Both paths
//! decide the same semantic questions, so the graph, and every result, is
//! the same; a budgeted pass keeps the diagram path because its step
//! count depends on computed-table hits. The graph is a dense bitset whose
//! clique-cover operations are word-parallel.

use std::collections::{HashMap, HashSet};

use bddmin_bdd::{Bdd, BudgetExceeded, Edge, FastBuild, Var, BUDGET_PANIC, MAX_REC_DEPTH};

use crate::bitset::{BitMatrix, Bitset};
use crate::isf::Isf;
use crate::matching::{matches_directed_budgeted, merge_tsm_many_budgeted, MatchCriterion};
use crate::memo_tags::subst_tag;
use crate::report::{MinReport, StepKind};

/// A sub-function gathered below the target level, together with the
/// variable-assignment path used to reach it (for the distance weight).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GatheredFunction {
    /// The sub-function pair as encountered in the traversal.
    pub isf: Isf,
    /// `path[v]` is the value of `Var(v)` on the access path: 0, 1, or 2
    /// if the variable does not appear on the path.
    pub path: Vec<u8>,
}

/// The paper's distance between the access paths of two functions rooted at
/// the same level (§3.3.2):
/// `dist(g,h) = Σ |x_i^g − x_i^h| · 2^(k−i−1)`, skipping positions where
/// either path has a 2.
///
/// The weight and the sum are 64-bit and wrap: on paths longer than 64
/// levels a position's weight is `2^((k−i−1) mod 64)`. Only the order of
/// distances matters (it ranks clique candidates), and the wrapping keeps
/// that order what it has always been.
pub fn path_distance(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    let k = a.len();
    let mut d = 0u64;
    for i in 0..k {
        if a[i] == 2 || b[i] == 2 {
            continue;
        }
        if a[i] != b[i] {
            d = d.wrapping_add(1u64.wrapping_shl((k - i - 1) as u32));
        }
    }
    d
}

/// Gathers the unique sub-function pairs of `[f, c]` whose `f` and `c`
/// components are both rooted strictly below `level`, pointed to from
/// `level` or above (paper §3.3.1). Pairs are deduplicated on the raw
/// `(f, c)` edges; the first (depth-first) access path is kept. The walk
/// visits each pair of the `(f, c)` product DAG once, not once per path.
///
/// The set is not limited: the paper's experiments do not limit it
/// either, "preferring to trade runtime for quality".
pub fn gather_below_level(bdd: &mut Bdd, isf: Isf, level: Var) -> Vec<GatheredFunction> {
    gather_budgeted(bdd, isf, level).expect(BUDGET_PANIC)
}

/// Checked [`gather_below_level`]: charges one step per expanded pair,
/// so a level pass under a spent budget stops at its first pair instead
/// of gathering (and then matching) for free.
fn gather_budgeted(
    bdd: &mut Bdd,
    isf: Isf,
    level: Var,
) -> Result<Vec<GatheredFunction>, BudgetExceeded> {
    let mut out: Vec<GatheredFunction> = Vec::new();
    let mut seen: HashSet<(Edge, Edge), FastBuild> = HashSet::default();
    let mut path = vec![2u8; level.index() + 1];
    gather_rec(bdd, isf, level, &mut out, &mut seen, &mut path, 0)?;
    Ok(out)
}

fn gather_rec(
    bdd: &mut Bdd,
    isf: Isf,
    level: Var,
    out: &mut Vec<GatheredFunction>,
    seen: &mut HashSet<(Edge, Edge), FastBuild>,
    path: &mut Vec<u8>,
    depth: u32,
) -> Result<(), BudgetExceeded> {
    // One set serves both kinds of pair: a frontier pair is pushed on its
    // first visit, and an interior pair already expanded has pushed every
    // frontier pair below it, so a revisit adds nothing (its first DFS
    // path stays the kept one).
    if !seen.insert((isf.f, isf.c)) {
        return Ok(());
    }
    let fl = bdd.level(isf.f);
    let cl = bdd.level(isf.c);
    if fl > level && cl > level {
        out.push(GatheredFunction {
            isf,
            path: path.clone(),
        });
        return Ok(());
    }
    if depth > MAX_REC_DEPTH {
        return Err(BudgetExceeded::DEPTH);
    }
    bdd.charge_step()?;
    let top = fl.min(cl);
    let (f_t, f_e) = bdd.branches_at(isf.f, top);
    let (c_t, c_e) = bdd.branches_at(isf.c, top);
    path[top.index()] = 1;
    gather_rec(bdd, Isf::new(f_t, c_t), level, out, seen, path, depth + 1)?;
    path[top.index()] = 0;
    gather_rec(bdd, Isf::new(f_e, c_e), level, out, seen, path, depth + 1)?;
    path[top.index()] = 2;
    Ok(())
}

/// The gathered functions as packed truth tables over the levels below
/// the pass's level: function `j`'s `f` and `c` are the `j`-th
/// `words`-word slices of `f` and `c`.
struct FrontierTables {
    words: usize,
    f: Vec<u64>,
    c: Vec<u64>,
}

impl FrontierTables {
    /// Reads each function once, or `None` when more than
    /// [`TABLE_LEVELS`](bddmin_bdd::TABLE_LEVELS) levels lie below `level`
    /// or a budget is armed (a budgeted pass charges the diagram path's
    /// steps, which depend on computed-table hits).
    fn read(bdd: &Bdd, functions: &[Isf], level: Var) -> Option<FrontierTables> {
        if functions.is_empty() || !bdd.budget().is_unlimited() {
            return None;
        }
        let (mut f, mut c) = (Vec::new(), Vec::new());
        for isf in functions {
            if !(bdd.table_below(isf.f, level, &mut f) && bdd.table_below(isf.c, level, &mut c)) {
                return None;
            }
        }
        Some(FrontierTables {
            words: f.len() / functions.len(),
            f,
            c,
        })
    }

    fn f(&self, j: usize) -> &[u64] {
        &self.f[j * self.words..][..self.words]
    }

    fn c(&self, j: usize) -> &[u64] {
        &self.c[j * self.words..][..self.words]
    }

    /// The tsm criterion: `(f_j ⊕ f_k)·c_j·c_k = 0`.
    fn tsm(&self, j: usize, k: usize) -> bool {
        let (fj, cj, fk, ck) = (self.f(j), self.c(j), self.f(k), self.c(k));
        (0..self.words).all(|w| (fj[w] ^ fk[w]) & cj[w] & ck[w] == 0)
    }

    /// The osm criterion, `j` onto `k`: `c_j ≤ c_k` and
    /// `(f_j ⊕ f_k)·c_j = 0`.
    fn osm(&self, j: usize, k: usize) -> bool {
        let (fj, cj, fk, ck) = (self.f(j), self.c(j), self.f(k), self.c(k));
        (0..self.words).all(|w| cj[w] & (!ck[w] | (fj[w] ^ fk[w])) == 0)
    }

    /// [`dedup_by_canonical_key`] on the words of the key `(f·c, c)`.
    fn dedup(&self) -> Dedup {
        let n = self.f.len() / self.words;
        let keys: Vec<u64> = (0..n)
            .flat_map(|j| {
                let (f, c) = (self.f(j), self.c(j));
                (0..self.words)
                    .map(move |w| f[w] & c[w])
                    .chain(c.iter().copied())
            })
            .collect();
        group_first_seen(keys.chunks(2 * self.words))
    }
}

/// The osm vertices: the index of each vertex's first function, and the
/// vertex of each function.
type Dedup = (Vec<usize>, Vec<usize>);

/// Groups equal keys, numbering the groups in order of first occurrence.
fn group_first_seen<K: std::hash::Hash + Eq>(keys: impl Iterator<Item = K>) -> Dedup {
    let mut vertex_of: HashMap<K, usize, FastBuild> = HashMap::default();
    let mut firsts: Vec<usize> = Vec::new();
    let vertex_idx = keys
        .enumerate()
        .map(|(j, key)| {
            *vertex_of.entry(key).or_insert_with(|| {
                firsts.push(j);
                firsts.len() - 1
            })
        })
        .collect();
    (firsts, vertex_idx)
}

/// Solves FMM on the gathered set with the **osm** criterion via the DMG
/// sink construction (paper Proposition 10). Returns, for each input
/// index, the i-cover that replaces it.
fn solve_fmm_osm(
    bdd: &mut Bdd,
    functions: &[Isf],
    tables: Option<&FrontierTables>,
) -> Result<Vec<Isf>, BudgetExceeded> {
    // Collapse equal ISFs (different representatives) to one vertex, so
    // mutually-osm-matching pairs cannot form a 2-cycle and the graph
    // stays acyclic as in the paper's Proposition 10.
    let (firsts, vertex_idx) = match tables {
        Some(t) => t.dedup(),
        None => dedup_by_canonical_key(bdd, functions)?,
    };
    let adj = build_osm_graph(bdd, functions, &firsts, tables)?;
    let m = firsts.len();
    let is_sink: Vec<bool> = (0..m).map(|j| adj.row_is_empty(j)).collect();
    // Map every vertex to a sink it can reach; by transitivity a direct
    // edge to some sink exists for every non-sink vertex.
    let mut target: Vec<usize> = (0..m).collect();
    for j in 0..m {
        if is_sink[j] {
            continue;
        }
        let direct = adj.row_indices(j).find(|&k| is_sink[k]);
        target[j] = match direct {
            Some(k) => k,
            None => {
                // Walk edges until a sink is found (cannot cycle: the
                // graph on distinct ISFs is acyclic). A cycle would mean
                // a logic bug upstream; degrade through the structured
                // error channel rather than aborting the whole schedule.
                let mut cur = j;
                let mut steps = 0;
                while !is_sink[cur] {
                    cur = adj.row_first(cur).ok_or(BudgetExceeded::INTERNAL)?;
                    steps += 1;
                    if steps > m {
                        return Err(BudgetExceeded::INTERNAL);
                    }
                }
                cur
            }
        };
    }
    Ok(vertex_idx
        .into_iter()
        .map(|v| functions[firsts[target[v]]])
        .collect())
}

/// The osm vertex dedup: compute every canonical key `(f·c, c)` with
/// BDD operations and group equal keys, keeping first-occurrence order.
fn dedup_by_canonical_key(bdd: &mut Bdd, functions: &[Isf]) -> Result<Dedup, BudgetExceeded> {
    let keys = functions
        .iter()
        .map(|isf| isf.try_canonical_key(bdd))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(group_first_seen(keys.into_iter()))
}

/// The number of unordered pairs of `n` vertices, `n·(n−1)/2`: the pair
/// examinations a matching graph costs, charged as steps in one call.
fn pair_count(n: usize) -> u64 {
    let n = n as u64;
    n.saturating_mul(n.saturating_sub(1)) / 2
}

/// Builds the directed osm matching graph over the deduplicated vertices,
/// vertex `j` being `functions[firsts[j]]`: edge j → k iff vertex j
/// osm-matches vertex k.
fn build_osm_graph(
    bdd: &mut Bdd,
    functions: &[Isf],
    firsts: &[usize],
    tables: Option<&FrontierTables>,
) -> Result<BitMatrix, BudgetExceeded> {
    let m = firsts.len();
    // Charge the m·(m−1) ordered pair examinations up front, before the
    // m² adjacency bits are allocated.
    bdd.charge_steps(pair_count(m).saturating_mul(2))?;
    let mut adj = BitMatrix::new(m);
    for (j, &a) in firsts.iter().enumerate() {
        for (k, &b) in firsts.iter().enumerate() {
            if j == k {
                continue;
            }
            let matched = match tables {
                Some(t) => t.osm(a, b),
                None => {
                    let (a, b) = (functions[a], functions[b]);
                    matches_directed_budgeted(bdd, MatchCriterion::Osm, a, b)?
                }
            };
            if matched {
                adj.set(j, k);
            }
        }
    }
    Ok(adj)
}

/// Controls for the greedy clique cover used by tsm level matching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CliqueOptions {
    /// Process vertices in decreasing order of degree (paper's first
    /// optimization) instead of input order.
    pub order_by_degree: bool,
    /// Grow cliques along edges of ascending path distance (paper's second
    /// optimization) so nearby functions match first.
    pub prefer_nearby: bool,
}

impl Default for CliqueOptions {
    fn default() -> Self {
        CliqueOptions {
            order_by_degree: true,
            prefer_nearby: true,
        }
    }
}

/// Builds the undirected tsm matching graph: edge {j, k} iff the two
/// gathered ISFs tsm-match.
fn build_tsm_graph(
    bdd: &mut Bdd,
    functions: &[GatheredFunction],
    tables: Option<&FrontierTables>,
) -> Result<BitMatrix, BudgetExceeded> {
    let n = functions.len();
    // Charge the n·(n−1)/2 pair examinations up front, before the n²
    // adjacency bits are allocated.
    bdd.charge_steps(pair_count(n))?;
    let mut adj = BitMatrix::new(n);
    for j in 0..n {
        for k in (j + 1)..n {
            let matched = match tables {
                Some(t) => t.tsm(j, k),
                None => {
                    let (a, b) = (functions[j].isf, functions[k].isf);
                    matches_directed_budgeted(bdd, MatchCriterion::Tsm, a, b)?
                }
            };
            if matched {
                adj.set(j, k);
                adj.set(k, j);
            }
        }
    }
    Ok(adj)
}

/// Solves FMM on the gathered set with the **tsm** criterion by greedy
/// clique cover (paper Theorem 15 + §3.3.2). Returns, for each input
/// index, the merged i-cover that replaces it. This is the schedule's
/// most expensive step (quadratic matching graph + greedy clique cover),
/// so it is the step budgets most often interrupt.
fn solve_fmm_tsm(
    bdd: &mut Bdd,
    functions: &[GatheredFunction],
    tables: Option<&FrontierTables>,
    options: CliqueOptions,
) -> Result<Vec<Isf>, BudgetExceeded> {
    let n = functions.len();
    let adj = build_tsm_graph(bdd, functions, tables)?;
    let mut order: Vec<usize> = (0..n).collect();
    if options.order_by_degree {
        order.sort_by_key(|&v| std::cmp::Reverse(adj.row_len(v)));
    }
    let mut clique_of: Vec<Option<usize>> = vec![None; n];
    let mut cliques: Vec<Vec<usize>> = Vec::new();
    for &v in &order {
        if clique_of[v].is_some() {
            continue;
        }
        let id = cliques.len();
        let mut members = vec![v];
        let mut members_bs = Bitset::new(n);
        members_bs.insert(v);
        clique_of[v] = Some(id);
        // Candidate edges out of the current clique, optionally sorted by
        // ascending distance to the seed vertex's path. `in_frontier`
        // makes the dedup of re-reachable candidates O(1); re-enqueued
        // duplicates in the old list code were no-ops anyway (members
        // only grow, so a rejection is permanent and an acceptance is
        // caught by the `clique_of` check), so skipping them is
        // result-identical.
        let mut frontier: Vec<usize> = adj.row_indices(v).collect();
        let mut in_frontier = Bitset::new(n);
        frontier.retain(|&w| clique_of[w].is_none());
        for &w in &frontier {
            in_frontier.insert(w);
        }
        if options.prefer_nearby {
            frontier.sort_by_cached_key(|&w| path_distance(&functions[v].path, &functions[w].path));
        }
        let mut idx = 0;
        while idx < frontier.len() {
            let w = frontier[idx];
            idx += 1;
            if clique_of[w].is_some() {
                continue;
            }
            // w joins iff it is adjacent to every current member —
            // word-parallel subset test on the adjacency row.
            if members_bs.subset_of(adj.row(w)) {
                clique_of[w] = Some(id);
                // New edges reachable through w.
                let mut extra: Vec<usize> = adj
                    .row_indices(w)
                    .filter(|&x| clique_of[x].is_none() && !in_frontier.contains(x))
                    .collect();
                if options.prefer_nearby {
                    extra.sort_by_cached_key(|&x| {
                        path_distance(&functions[w].path, &functions[x].path)
                    });
                }
                for &x in &extra {
                    in_frontier.insert(x);
                }
                frontier.extend(extra);
                members.push(w);
                members_bs.insert(w);
            }
        }
        cliques.push(members);
    }
    // Merge each clique into its common i-cover.
    let mut merged: Vec<Isf> = Vec::with_capacity(cliques.len());
    for members in &cliques {
        let isfs: Vec<Isf> = members.iter().map(|&j| functions[j].isf).collect();
        merged.push(merge_tsm_many_budgeted(bdd, &isfs)?);
    }
    Ok((0..n)
        .map(|j| merged[clique_of[j].expect("all vertices covered")])
        .collect())
}

/// Rewrites `[f, c]`, substituting `replacements[j]` for the `j`-th gathered
/// pair, and returns the new ISF. Pairs map one-to-one: the traversal
/// mirrors [`gather_below_level`].
fn substitute_below_level(
    bdd: &mut Bdd,
    isf: Isf,
    level: Var,
    gathered: &[GatheredFunction],
    replacements: &[Isf],
) -> Result<Isf, BudgetExceeded> {
    assert_eq!(gathered.len(), replacements.len());
    let map: HashMap<(Edge, Edge), Isf, FastBuild> = gathered
        .iter()
        .zip(replacements.iter())
        .map(|(g, &r)| ((g.isf.f, g.isf.c), r))
        .collect();
    // The result depends on this invocation's substitution map, so the
    // manager-resident memo is used under a fresh salt: entries can never
    // leak into another substitution.
    let tag = subst_tag(bdd.memo_salt());
    subst_rec(bdd, isf, level, &map, tag, 0)
}

fn subst_rec(
    bdd: &mut Bdd,
    isf: Isf,
    level: Var,
    map: &HashMap<(Edge, Edge), Isf, FastBuild>,
    tag: u64,
    depth: u32,
) -> Result<Isf, BudgetExceeded> {
    if depth > MAX_REC_DEPTH {
        return Err(BudgetExceeded::DEPTH);
    }
    let fl = bdd.level(isf.f);
    let cl = bdd.level(isf.c);
    if fl > level && cl > level {
        // Frontier pair: replace if matched, else keep.
        return Ok(map.get(&(isf.f, isf.c)).copied().unwrap_or(isf));
    }
    if let Some((rf, rc)) = bdd.memo_get(tag, isf.f, isf.c) {
        return Ok(Isf { f: rf, c: rc });
    }
    let top = fl.min(cl);
    let (f_t, f_e) = bdd.branches_at(isf.f, top);
    let (c_t, c_e) = bdd.branches_at(isf.c, top);
    let then_r = subst_rec(bdd, Isf::new(f_t, c_t), level, map, tag, depth + 1)?;
    let else_r = subst_rec(bdd, Isf::new(f_e, c_e), level, map, tag, depth + 1)?;
    let v = bdd.try_var_at_level(top)?;
    let nf = bdd.try_ite(v, then_r.f, else_r.f)?;
    let nc = bdd.try_ite(v, then_r.c, else_r.c)?;
    let r = Isf::new(nf, nc);
    bdd.memo_insert(tag, isf.f, isf.c, (r.f, r.c));
    Ok(r)
}

/// One minimization pass at `level` with the given criterion: gather, solve
/// FMM, substitute. Returns the rewritten ISF (paper §3.3).
pub fn minimize_at_level(
    bdd: &mut Bdd,
    isf: Isf,
    level: Var,
    criterion: MatchCriterion,
    options: CliqueOptions,
) -> Isf {
    minimize_at_level_budgeted(bdd, isf, level, criterion, options).expect(BUDGET_PANIC)
}

/// The level pass itself, fallible: returns [`BudgetExceeded`] instead of
/// running past an armed budget. On error the pass's partial work is
/// discarded; the input ISF remains the valid state to continue from, so
/// a driver can skip the step and move on (the Theorem 12 degradation
/// ladder).
pub(crate) fn minimize_at_level_budgeted(
    bdd: &mut Bdd,
    isf: Isf,
    level: Var,
    criterion: MatchCriterion,
    options: CliqueOptions,
) -> Result<Isf, BudgetExceeded> {
    let gathered = gather_budgeted(bdd, isf, level)?;
    if gathered.len() < 2 {
        return Ok(isf);
    }
    let isfs: Vec<Isf> = gathered.iter().map(|g| g.isf).collect();
    let tables = FrontierTables::read(bdd, &isfs, level);
    let replacements = match criterion {
        MatchCriterion::Tsm => solve_fmm_tsm(bdd, &gathered, tables.as_ref(), options)?,
        MatchCriterion::Osm | MatchCriterion::Osdm => solve_fmm_osm(bdd, &isfs, tables.as_ref())?,
    };
    substitute_below_level(bdd, isf, level, &gathered, &replacements)
}

/// The paper's `opt_lv` heuristic: visit the levels in increasing order and
/// match functions with tsm at each. Returns a cover of `[f, c]`; an
/// empty care set gives the constant 0.
///
/// # Example
///
/// ```
/// use bddmin_bdd::Bdd;
/// use bddmin_core::{opt_lv, CliqueOptions, Isf};
///
/// let mut bdd = Bdd::new(3);
/// let (f, c) = bdd.from_leaf_spec("d1 01 1d 01").unwrap();
/// let isf = Isf::new(f, c);
/// let g = opt_lv(&mut bdd, isf, CliqueOptions::default());
/// assert!(isf.is_cover(&mut bdd, g));
/// ```
pub fn opt_lv(bdd: &mut Bdd, isf: Isf, options: CliqueOptions) -> Edge {
    opt_lv_steps(bdd, isf, options, &mut MinReport::new())
}

/// The step driver of `opt_lv`: one tsm level pass per level against
/// whatever budget is armed, each recorded in `report`. A pass that
/// blows the budget is skipped and the next level starts from the
/// pre-pass ISF.
pub(crate) fn opt_lv_steps(
    bdd: &mut Bdd,
    isf: Isf,
    options: CliqueOptions,
    report: &mut MinReport,
) -> Edge {
    if isf.c.is_zero() {
        return Edge::ZERO;
    }
    let mut cur = isf;
    let n = bdd.num_vars() as u32;
    for lvl in 0..n {
        let pass = minimize_at_level_budgeted(bdd, cur, Var(lvl), MatchCriterion::Tsm, options);
        if let Some(next) = report.record(StepKind::TsmLevel, Some(lvl), pass) {
            cur = next;
        }
        if cur.c.is_one() {
            break;
        }
    }
    // Remaining don't-care points (if any) take the representative's value:
    // the representative is always a cover of the final ISF, and the final
    // ISF i-covers the original.
    cur.f
}

/// A random sum of `cubes` cubes, each variable a positive or a negative
/// literal with probability 1/4 each, for tests.
#[cfg(test)]
pub(crate) fn random_sop(bdd: &mut Bdd, rng: &mut crate::rng::XorShift64, cubes: usize) -> Edge {
    let mut f = Edge::ZERO;
    for _ in 0..cubes {
        let mut cube = Edge::ONE;
        for v in 0..bdd.num_vars() as u32 {
            let x = bdd.var(Var(v));
            match rng.gen_range(0..4) {
                0 => cube = bdd.and(cube, x),
                1 => cube = bdd.and(cube, x.complement()),
                _ => {}
            }
        }
        f = bdd.or(f, cube);
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sibling::{generic_td, SiblingConfig};

    #[test]
    fn path_distance_examples() {
        // Paper's worked example: paths 1000210 and 1201111 → distance 9.
        let g = [1u8, 0, 0, 0, 2, 1, 0];
        let h = [1u8, 2, 0, 1, 1, 1, 1];
        assert_eq!(path_distance(&g, &h), 9);
        // Siblings differ only in the last position → distance 1.
        let s1 = [1u8, 0, 1];
        let s2 = [1u8, 0, 0];
        assert_eq!(path_distance(&s1, &s2), 1);
        assert_eq!(path_distance(&s1, &s1), 0);
    }

    #[test]
    fn gather_finds_frontier_pairs() {
        let mut bdd = Bdd::new(3);
        let (f, c) = bdd.from_leaf_spec("d1 01 1d 01").unwrap();
        let got = gather_below_level(&mut bdd, Isf::new(f, c), Var(0));
        // Below level x1: the two (f,c) branch pairs (deduplicated).
        assert!(!got.is_empty() && got.len() <= 2);
        for g in &got {
            assert!(bdd.level(g.isf.f) > Var(0));
            assert!(bdd.level(g.isf.c) > Var(0));
        }
        // Paths record the x1 decision.
        assert!(got.iter().all(|g| g.path.len() == 1));
        assert!(got.iter().all(|g| g.path[0] == 0 || g.path[0] == 1));
    }

    /// The path-walking gather: every path of the pair DAG, deduplicated
    /// at the frontier only.
    fn gather_every_path(
        bdd: &mut Bdd,
        isf: Isf,
        level: Var,
        out: &mut Vec<GatheredFunction>,
        path: &mut Vec<u8>,
    ) {
        let (fl, cl) = (bdd.level(isf.f), bdd.level(isf.c));
        if fl > level && cl > level {
            if !out.iter().any(|g| g.isf == isf) {
                out.push(GatheredFunction {
                    isf,
                    path: path.clone(),
                });
            }
            return;
        }
        let top = fl.min(cl);
        let (f_t, f_e) = bdd.branches_at(isf.f, top);
        let (c_t, c_e) = bdd.branches_at(isf.c, top);
        path[top.index()] = 1;
        gather_every_path(bdd, Isf::new(f_t, c_t), level, out, path);
        path[top.index()] = 0;
        gather_every_path(bdd, Isf::new(f_e, c_e), level, out, path);
        path[top.index()] = 2;
    }

    #[test]
    fn gather_equals_the_path_walking_reference() {
        let mut rng = crate::rng::XorShift64::seed_from_u64(0x6A7E);
        for case in 0..48 {
            let n = 4 + case % 3;
            let spec: String = (0..1usize << n)
                .map(|_| ['0', '1', 'd'][rng.gen_range(0..3)])
                .collect();
            let mut bdd = Bdd::new(n);
            let (f, c) = bdd.from_leaf_spec(&spec).unwrap();
            let isf = Isf::new(f, c);
            for lvl in 0..n as u32 {
                let got = gather_below_level(&mut bdd, isf, Var(lvl));
                let mut want = Vec::new();
                let mut path = vec![2u8; lvl as usize + 1];
                gather_every_path(&mut bdd, isf, Var(lvl), &mut want, &mut path);
                assert_eq!(got, want, "spec {spec} level {lvl}");
            }
        }
    }

    #[test]
    fn level_pass_charges_its_gather_and_graph_as_steps() {
        let mut bdd = Bdd::new(4);
        let (f, c) = bdd.from_leaf_spec("0d d1 10 01 11 d0 d1 00").unwrap();
        let isf = Isf::new(f, c);
        let level = Var(1);
        bdd.set_budget(bddmin_bdd::Budget::UNLIMITED);
        let n = gather_below_level(&mut bdd, isf, level).len();
        let gather_steps = bdd.steps_used();
        assert!(
            n >= 2 && gather_steps >= 1,
            "{n} pairs, {gather_steps} steps"
        );
        // Enough for the gather, one short of the graph's pair
        // examinations: the pass trips before it matches anything.
        let limit = gather_steps + pair_count(n) - 1;
        bdd.set_budget(bddmin_bdd::Budget::default().steps(limit));
        let pass = minimize_at_level_budgeted(
            &mut bdd,
            isf,
            level,
            MatchCriterion::Tsm,
            CliqueOptions::default(),
        );
        bdd.clear_budget();
        assert_eq!(pass, Err(BudgetExceeded::STEPS));
    }

    #[test]
    fn table_graphs_equal_the_diagram_graphs() {
        use bddmin_bdd::{Budget, ReorderSettings, TABLE_LEVELS};
        let mut rng = crate::rng::XorShift64::seed_from_u64(0x7AB1E);
        let (mut on_tables, mut on_diagrams, mut products_built) = (0, 0, false);
        for n in [10usize, 14, 16] {
            for sifted in [false, true] {
                for _ in 0..3 {
                    let mut bdd = Bdd::new(n);
                    let f = random_sop(&mut bdd, &mut rng, 10);
                    let c = random_sop(&mut bdd, &mut rng, 8);
                    let c = if rng.gen_bool(0.5) { c.complement() } else { c };
                    if sifted {
                        bdd.pin(f);
                        bdd.pin(c);
                        for i in (0..n - 1).step_by(3) {
                            bdd.swap_levels(i);
                        }
                        bdd.reorder(&ReorderSettings::default());
                        assert_ne!(
                            bdd.current_order(),
                            (0..n as u32).map(Var).collect::<Vec<_>>()
                        );
                    }
                    let isf = Isf::new(f, c);
                    for lvl in 0..n as u32 {
                        let level = Var(lvl);
                        let gathered = gather_below_level(&mut bdd, isf, level);
                        let isfs: Vec<Isf> = gathered.iter().map(|g| g.isf).collect();
                        let tables = FrontierTables::read(&bdd, &isfs, level);
                        let fits = n as u32 - lvl - 1 <= TABLE_LEVELS;
                        assert_eq!(tables.is_some(), fits && !isfs.is_empty());
                        if let Some(t) = &tables {
                            on_tables += 1;
                            let before = bdd.stats().allocated_nodes;
                            let tsm = build_tsm_graph(&mut bdd, &gathered, Some(t)).unwrap();
                            let dedup = t.dedup();
                            let osm = build_osm_graph(&mut bdd, &isfs, &dedup.0, Some(t)).unwrap();
                            assert_eq!(bdd.stats().allocated_nodes, before, "tables build no node");
                            let want_tsm = build_tsm_graph(&mut bdd, &gathered, None).unwrap();
                            products_built |= bdd.stats().allocated_nodes > before;
                            assert_eq!(tsm, want_tsm, "tsm graph, n {n} level {lvl}");
                            let want_dedup = dedup_by_canonical_key(&mut bdd, &isfs).unwrap();
                            assert_eq!(dedup, want_dedup, "osm grouping, n {n} level {lvl}");
                            let want_osm =
                                build_osm_graph(&mut bdd, &isfs, &dedup.0, None).unwrap();
                            assert_eq!(osm, want_osm, "osm graph, n {n} level {lvl}");
                        } else {
                            on_diagrams += 1;
                        }
                        for criterion in [MatchCriterion::Tsm, MatchCriterion::Osm] {
                            let opts = CliqueOptions::default();
                            let free = minimize_at_level(&mut bdd, isf, level, criterion, opts);
                            bdd.set_budget(Budget::default().steps(u64::MAX));
                            let limited =
                                minimize_at_level_budgeted(&mut bdd, isf, level, criterion, opts);
                            bdd.clear_budget();
                            assert_eq!(limited, Ok(free), "{criterion:?}, n {n} level {lvl}");
                        }
                    }
                }
            }
        }
        assert!(
            on_tables > 0 && on_diagrams > 0,
            "{on_tables} / {on_diagrams}"
        );
        assert!(
            products_built,
            "the diagram tsm graph builds its care products"
        );
    }

    #[test]
    fn fmm_osm_maps_to_sinks() {
        let mut bdd = Bdd::new(3);
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let bc = bdd.and(b, c);
        // [b·c, b] osm-matches [c, 1] (a sink); [c,1] matches nothing else.
        let fns = [Isf::new(bc, b), Isf::new(c, Edge::ONE)];
        let solved = solve_fmm_osm(&mut bdd, &fns, None).unwrap();
        assert_eq!(solved[1], fns[1], "sink keeps itself");
        assert_eq!(solved[0], fns[1], "non-sink maps to sink");
        for (orig, repl) in fns.iter().zip(&solved) {
            assert!(repl.i_covers(&mut bdd, *orig));
        }
    }

    #[test]
    fn fmm_osm_counts_sinks_as_minimum() {
        // Proposition 10: number of distinct replacements == number of sinks.
        let mut bdd = Bdd::new(3);
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let bc = bdd.and(b, c);
        let nb = bdd.not(b);
        let fns = [
            Isf::new(bc, b),         // matches [c, 1]
            Isf::new(c, Edge::ONE),  // sink
            Isf::new(nb, Edge::ONE), // sink (disagrees with c where b... )
        ];
        let solved = solve_fmm_osm(&mut bdd, &fns, None).unwrap();
        let mut uniq: Vec<Isf> = solved.clone();
        uniq.sort_by_key(|i| (i.f.to_bits(), i.c.to_bits()));
        uniq.dedup();
        assert_eq!(uniq.len(), 2);
    }

    #[test]
    fn fmm_osm_handles_equal_isfs_with_different_representatives() {
        // Two pairs denoting the same ISF must collapse (no 2-cycle panic).
        let mut bdd = Bdd::new(3);
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let bc = bdd.and(b, c);
        let fns = [Isf::new(bc, b), Isf::new(c, b)]; // equal on care b
        let solved = solve_fmm_osm(&mut bdd, &fns, None).unwrap();
        assert_eq!(solved[0], solved[1]);
    }

    #[test]
    fn fmm_tsm_merges_compatible_functions() {
        let mut bdd = Bdd::new(3);
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let gathered: Vec<GatheredFunction> = [
            (Isf::new(b, c), vec![1u8]),
            (Isf::new(b, bdd.not(c)), vec![0u8]),
            (Isf::new(bdd.not(b), Edge::ZERO), vec![2u8]),
        ]
        .into_iter()
        .map(|(isf, path)| GatheredFunction { isf, path })
        .collect();
        let solved = solve_fmm_tsm(&mut bdd, &gathered, None, CliqueOptions::default()).unwrap();
        // All three are pairwise tsm-compatible → single clique.
        assert_eq!(solved[0], solved[1]);
        assert_eq!(solved[1], solved[2]);
        for (g, r) in gathered.iter().zip(&solved) {
            assert!(r.i_covers(&mut bdd, g.isf));
        }
    }

    #[test]
    fn fmm_tsm_separates_conflicts() {
        let mut bdd = Bdd::new(3);
        let b = bdd.var(Var(1));
        let gathered: Vec<GatheredFunction> = [
            (Isf::new(b, Edge::ONE), vec![1u8]),
            (Isf::new(bdd.not(b), Edge::ONE), vec![0u8]),
        ]
        .into_iter()
        .map(|(isf, path)| GatheredFunction { isf, path })
        .collect();
        let solved = solve_fmm_tsm(&mut bdd, &gathered, None, CliqueOptions::default()).unwrap();
        assert_ne!(solved[0], solved[1]);
        assert_eq!(solved[0], gathered[0].isf);
        assert_eq!(solved[1], gathered[1].isf);
    }

    #[test]
    fn substitution_produces_icover() {
        let mut bdd = Bdd::new(3);
        let (f, c) = bdd.from_leaf_spec("d1 01 1d 01").unwrap();
        let isf = Isf::new(f, c);
        let new_isf = minimize_at_level(
            &mut bdd,
            isf,
            Var(0),
            MatchCriterion::Tsm,
            CliqueOptions::default(),
        );
        // Care can only grow.
        assert!(bdd.implies_holds(isf.c, new_isf.c));
        // Every cover of the new ISF covers the old one.
        assert!(new_isf.i_covers(&mut bdd, isf));
    }

    #[test]
    fn opt_lv_is_cover_on_paper_instances() {
        for spec in [
            "d1 01",
            "d1 01 1d 01",
            "1d d1 d0 0d",
            "0d d1 10 01 11 d0 d1 00",
        ] {
            let mut bdd = Bdd::new(4);
            let (f, c) = bdd.from_leaf_spec(spec).unwrap();
            let isf = Isf::new(f, c);
            let g = opt_lv(&mut bdd, isf, CliqueOptions::default());
            assert!(isf.is_cover(&mut bdd, g), "opt_lv broke cover on {spec}");
        }
    }

    #[test]
    fn opt_lv_on_an_empty_care_set_gives_zero() {
        let mut bdd = Bdd::new(2);
        let (f, c) = bdd.from_leaf_spec("dd dd").unwrap();
        let g = opt_lv(&mut bdd, Isf::new(f, c), CliqueOptions::default());
        assert_eq!(g, Edge::ZERO);
    }

    #[test]
    fn opt_lv_beats_or_ties_nothing_guaranteed_but_is_sound() {
        // Sanity: compare against constrain on a batch; no ordering is
        // asserted (the paper shows either can win), only soundness.
        let specs = ["d1 01", "1d d1 d0 0d", "dd 01 11 d0"];
        for spec in specs {
            let mut bdd = Bdd::new(3);
            let (f, c) = bdd.from_leaf_spec(spec).unwrap();
            let isf = Isf::new(f, c);
            let g_lv = opt_lv(&mut bdd, isf, CliqueOptions::default());
            let g_con = generic_td(&mut bdd, isf, SiblingConfig::new(MatchCriterion::Osdm));
            assert!(isf.is_cover(&mut bdd, g_lv));
            assert!(isf.is_cover(&mut bdd, g_con));
        }
    }

    #[test]
    fn osm_level_pass_preserves_optimum_below_level() {
        // Theorem 12 smoke test: after an osm pass at level 0, there is
        // still a cover whose node count below level 0 equals the best
        // achievable for the original instance (checked by exhaustive
        // enumeration over this small space).
        let mut bdd = Bdd::new(3);
        let (f, c) = bdd.from_leaf_spec("d1 01 1d 01").unwrap();
        let isf = Isf::new(f, c);
        let best_before = exhaustive_min_below(&mut bdd, isf, Var(0));
        let after = minimize_at_level(
            &mut bdd,
            isf,
            Var(0),
            MatchCriterion::Osm,
            CliqueOptions::default(),
        );
        let best_after = exhaustive_min_below(&mut bdd, after, Var(0));
        assert_eq!(best_before, best_after);
    }

    /// Minimum over all covers of `isf` of the node count below `level`
    /// (3-variable instances only: enumerates all 256 functions).
    fn exhaustive_min_below(bdd: &mut Bdd, isf: Isf, level: Var) -> usize {
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
                best = best.min(bdd.nodes_below_level(g, level));
            }
        }
        best
    }

    #[test]
    fn clique_options_toggle() {
        // Both optimization settings must produce sound results.
        let mut bdd = Bdd::new(4);
        let (f, c) = bdd.from_leaf_spec("0d d1 10 01 11 d0 d1 00").unwrap();
        let isf = Isf::new(f, c);
        for order in [false, true] {
            for nearby in [false, true] {
                let opts = CliqueOptions {
                    order_by_degree: order,
                    prefer_nearby: nearby,
                };
                let g = opt_lv(&mut bdd, isf, opts);
                assert!(isf.is_cover(&mut bdd, g), "options {opts:?}");
            }
        }
    }
}
