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
//! Building the matching graph is the schedule's most expensive step —
//! Θ(n²) exact BDD matching checks over the gathered set — so the solvers
//! run behind a **refutation-only acceleration layer** ([`LevelAccel`]):
//! 64-lane semantic signatures cheaply disprove most non-matching pairs
//! before any BDD work (see [`crate::sigfilter`]), symmetric tsm verdicts
//! are memoized in the manager so regathered levels never re-prove a
//! pair, and the graph itself is a dense bitset whose clique-cover
//! operations are word-parallel. None of it changes results: every
//! filter is a proof of non-matching, so the accelerated solvers are
//! byte-identical to the plain ones (asserted by the differential suite
//! and the `sig-invariance` verify oracle).

use std::collections::{HashMap, HashSet};

use bddmin_bdd::{Bdd, BudgetExceeded, Edge, FastBuild, SigEvaluator, Var};

use crate::bitset::{BitMatrix, Bitset};
use crate::isf::Isf;
use crate::matching::{
    matches_directed_budgeted, matches_tsm_pair_memoized, merge_tsm_many_budgeted, MatchCriterion,
};
use crate::memo_tags::subst_tag;
use crate::sigfilter::{isf_sig, refutes_osm, refutes_tsm, IsfSig};
use crate::{BUDGET_PANIC, MAX_REC_DEPTH};

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
pub fn path_distance(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    let k = a.len();
    let mut d = 0u64;
    for i in 0..k {
        if a[i] == 2 || b[i] == 2 {
            continue;
        }
        if a[i] != b[i] {
            d += 1u64 << (k - i - 1);
        }
    }
    d
}

/// Which sub-functions a level pass collects (paper §3.3.1's two
/// set-limiting methods — they are orthogonal and can be combined with
/// the size `limit`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GatherMode {
    /// Every pair hanging below the level (the paper's default:
    /// "we do not limit the size of the set, preferring to trade runtime
    /// for quality").
    #[default]
    All,
    /// Only pairs whose `f` component is rooted exactly one level below —
    /// "effectively minimizes the number of nodes at level i + 1".
    RootedJustBelow,
}

/// Gathers the unique sub-function pairs of `[f, c]` whose `f` and `c`
/// components are both rooted strictly below `level`, pointed to from
/// `level` or above (paper §3.3.1). Pairs are deduplicated on the raw
/// `(f, c)` edges; the first (depth-first) access path is kept. The walk
/// visits each pair of the `(f, c)` product DAG once, not once per path.
///
/// If `limit` is `Some(n)`, gathering stops after `n` unique pairs (the
/// paper's first set-limiting method).
pub fn gather_below_level(
    bdd: &mut Bdd,
    isf: Isf,
    level: Var,
    limit: Option<usize>,
) -> Vec<GatheredFunction> {
    gather_below_level_mode(bdd, isf, level, limit, GatherMode::All)
}

/// [`gather_below_level`] with an explicit [`GatherMode`].
pub fn gather_below_level_mode(
    bdd: &mut Bdd,
    isf: Isf,
    level: Var,
    limit: Option<usize>,
    mode: GatherMode,
) -> Vec<GatheredFunction> {
    let mut out: Vec<GatheredFunction> = Vec::new();
    let mut seen: HashSet<(Edge, Edge), FastBuild> = HashSet::default();
    let mut path = vec![2u8; level.index() + 1];
    gather_rec(bdd, isf, level, limit, &mut out, &mut seen, &mut path);
    if let GatherMode::RootedJustBelow = mode {
        let next = Var(level.0 + 1);
        out.retain(|g| bdd.level(g.isf.f) == next);
    }
    out
}

fn gather_rec(
    bdd: &mut Bdd,
    isf: Isf,
    level: Var,
    limit: Option<usize>,
    out: &mut Vec<GatheredFunction>,
    seen: &mut HashSet<(Edge, Edge), FastBuild>,
    path: &mut Vec<u8>,
) {
    if let Some(n) = limit {
        if out.len() >= n {
            return;
        }
    }
    // One set serves both kinds of pair: a frontier pair is pushed on its
    // first visit, and an interior pair already expanded has pushed every
    // frontier pair below it, so a revisit adds nothing (its first DFS
    // path stays the kept one).
    if !seen.insert((isf.f, isf.c)) {
        return;
    }
    let fl = bdd.level(isf.f);
    let cl = bdd.level(isf.c);
    if fl > level && cl > level {
        out.push(GatheredFunction {
            isf,
            path: path.clone(),
        });
        return;
    }
    let top = fl.min(cl);
    let (f_t, f_e) = bdd.branches_at(isf.f, top);
    let (c_t, c_e) = bdd.branches_at(isf.c, top);
    path[top.index()] = 1;
    gather_rec(bdd, Isf::new(f_t, c_t), level, limit, out, seen, path);
    path[top.index()] = 0;
    gather_rec(bdd, Isf::new(f_e, c_e), level, limit, out, seen, path);
    path[top.index()] = 2;
}

/// Toggles for the matching-graph acceleration layer. The default is
/// everything on; [`LevelAccel::UNFILTERED`] is the plain path the
/// differential suite and the parity benchmarks replay against. Every
/// setting is refutation-only or a pure memo, so results are identical
/// across all configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelAccel {
    /// Refute non-matching pairs with 64-lane semantic signatures before
    /// the exact BDD check (and bucket osm vertex dedup by signature).
    pub sig_filter: bool,
    /// Memoize symmetric tsm verdicts in the manager-owned memo, keyed
    /// on the order-canonicalized ISF pair.
    pub pair_memo: bool,
    /// Testing hook for the `sig-invariance` oracle's mutation gate:
    /// deterministically over-refute surviving pairs, modelling a filter
    /// that drops real matching edges. Never set outside the harness.
    #[doc(hidden)]
    pub sabotage_overrefute: bool,
}

impl Default for LevelAccel {
    fn default() -> Self {
        LevelAccel {
            sig_filter: true,
            pair_memo: true,
            sabotage_overrefute: false,
        }
    }
}

impl LevelAccel {
    /// The unaccelerated reference path: every pair runs the exact check.
    pub const UNFILTERED: LevelAccel = LevelAccel {
        sig_filter: false,
        pair_memo: false,
        sabotage_overrefute: false,
    };
}

/// Signature pairs of a batch of ISFs, computed through one transient
/// evaluator **before** any BDD mutation (the per-node memo inside the
/// evaluator must not survive an allocation or collection).
fn batch_sigs<'a>(bdd: &Bdd, isfs: impl Iterator<Item = &'a Isf>) -> Vec<IsfSig> {
    let mut ev = SigEvaluator::for_bdd(bdd);
    isfs.map(|&isf| isf_sig(&mut ev, bdd, isf)).collect()
}

/// The injected over-refutation of the `BreakSigFilter` mutant: drops the
/// pair (j, k) from the graph whenever the indices have opposite parity.
#[inline]
fn sabotaged(accel: LevelAccel, j: usize, k: usize) -> bool {
    accel.sabotage_overrefute && (j + k) % 2 == 1
}

/// Solves FMM on the gathered set with the **osm** criterion via the DMG
/// sink construction (paper Proposition 10). Returns, for each input index,
/// the i-cover that replaces it.
pub fn solve_fmm_osm(bdd: &mut Bdd, functions: &[Isf]) -> Vec<Isf> {
    solve_fmm_osm_budgeted(bdd, functions, LevelAccel::default()).expect(BUDGET_PANIC)
}

/// [`solve_fmm_osm`] with an explicit [`LevelAccel`] (the unfiltered
/// reference path is `LevelAccel::UNFILTERED`).
pub fn solve_fmm_osm_with(bdd: &mut Bdd, functions: &[Isf], accel: LevelAccel) -> Vec<Isf> {
    solve_fmm_osm_budgeted(bdd, functions, accel).expect(BUDGET_PANIC)
}

/// Checked [`solve_fmm_osm`]: returns [`BudgetExceeded`] instead of
/// running past an armed budget.
pub(crate) fn solve_fmm_osm_budgeted(
    bdd: &mut Bdd,
    functions: &[Isf],
    accel: LevelAccel,
) -> Result<Vec<Isf>, BudgetExceeded> {
    // Collapse equal ISFs (different representatives) to one vertex, so
    // mutually-osm-matching pairs cannot form a 2-cycle and the graph
    // stays acyclic as in the paper's Proposition 10.
    let (vertices, vertex_idx, vsigs) = if accel.sig_filter {
        let sigs = batch_sigs(bdd, functions.iter());
        dedup_by_signature(bdd, functions, &sigs)?
    } else {
        let (v, idx) = dedup_by_canonical_key(bdd, functions)?;
        (v, idx, Vec::new())
    };
    let adj = build_osm_graph_budgeted(bdd, &vertices, &vsigs, accel)?;
    let m = vertices.len();
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
        .map(|v| vertices[target[v]])
        .collect())
}

/// The plain vertex dedup: compute every canonical key `(f·c, c)` with
/// BDD operations and group through a hash map.
fn dedup_by_canonical_key(
    bdd: &mut Bdd,
    functions: &[Isf],
) -> Result<(Vec<Isf>, Vec<usize>), BudgetExceeded> {
    let n = functions.len();
    let mut canon: Vec<(Edge, Edge)> = Vec::with_capacity(n);
    for isf in functions {
        canon.push(isf.try_canonical_key(bdd)?);
    }
    let mut vertex_of: HashMap<(Edge, Edge), usize, FastBuild> = HashMap::default();
    let mut vertices: Vec<Isf> = Vec::new();
    let mut vertex_idx: Vec<usize> = Vec::with_capacity(n);
    for (i, key) in canon.iter().enumerate() {
        let v = *vertex_of.entry(*key).or_insert_with(|| {
            vertices.push(functions[i]);
            vertices.len() - 1
        });
        vertex_idx.push(v);
    }
    Ok((vertices, vertex_idx))
}

/// Deduplicated vertex set: the distinct ISFs, the vertex index each input
/// function maps to, and the signature of each distinct vertex.
type DedupedVertices = (Vec<Isf>, Vec<usize>, Vec<IsfSig>);

/// Signature-bucketed vertex dedup: equal ISFs have equal signature pairs
/// (signatures are exact and representative-independent), so buckets by
/// signature partition coarser than canonical-key classes. The exact
/// canonical key — the only BDD work here — is computed lazily, and only
/// inside buckets that actually collide; singleton buckets never touch
/// the manager at all. First-occurrence vertex order is preserved, so the
/// result is identical to [`dedup_by_canonical_key`].
fn dedup_by_signature(
    bdd: &mut Bdd,
    functions: &[Isf],
    sigs: &[IsfSig],
) -> Result<DedupedVertices, BudgetExceeded> {
    let n = functions.len();
    let mut buckets: HashMap<(u64, u64), Vec<usize>, FastBuild> = HashMap::default();
    let mut vertices: Vec<Isf> = Vec::new();
    let mut vsigs: Vec<IsfSig> = Vec::new();
    let mut canon: Vec<Option<(Edge, Edge)>> = Vec::new();
    let mut vertex_idx: Vec<usize> = Vec::with_capacity(n);
    for (i, &isf) in functions.iter().enumerate() {
        let s = sigs[i];
        let bucket = buckets.entry((s.on, s.c)).or_default();
        let mut found = None;
        let mut my_key = None;
        if !bucket.is_empty() {
            let key = isf.try_canonical_key(bdd)?;
            my_key = Some(key);
            for &v in bucket.iter() {
                if canon[v].is_none() {
                    canon[v] = Some(vertices[v].try_canonical_key(bdd)?);
                }
                if canon[v] == Some(key) {
                    found = Some(v);
                    break;
                }
            }
        }
        match found {
            Some(v) => vertex_idx.push(v),
            None => {
                let v = vertices.len();
                vertices.push(isf);
                vsigs.push(s);
                canon.push(my_key);
                bucket.push(v);
                vertex_idx.push(v);
            }
        }
    }
    Ok((vertices, vertex_idx, vsigs))
}

/// Builds the directed osm matching graph over deduplicated vertices:
/// edge j → k iff vertex j osm-matches vertex k. `vsigs` is non-empty iff
/// the signature filter is on.
fn build_osm_graph_budgeted(
    bdd: &mut Bdd,
    vertices: &[Isf],
    vsigs: &[IsfSig],
    accel: LevelAccel,
) -> Result<BitMatrix, BudgetExceeded> {
    let m = vertices.len();
    let mut adj = BitMatrix::new(m);
    for j in 0..m {
        for k in 0..m {
            if j == k {
                continue;
            }
            if accel.sig_filter && (refutes_osm(vsigs[j], vsigs[k]) || sabotaged(accel, j, k)) {
                continue;
            }
            if matches_directed_budgeted(bdd, MatchCriterion::Osm, vertices[j], vertices[k])? {
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

/// Solves FMM on the gathered set with the **tsm** criterion by greedy
/// clique cover (paper Theorem 15 + §3.3.2). Returns, for each input index,
/// the merged i-cover that replaces it.
pub fn solve_fmm_tsm(
    bdd: &mut Bdd,
    functions: &[GatheredFunction],
    options: CliqueOptions,
) -> Vec<Isf> {
    solve_fmm_tsm_budgeted(bdd, functions, options, LevelAccel::default()).expect(BUDGET_PANIC)
}

/// [`solve_fmm_tsm`] with an explicit [`LevelAccel`] (the unfiltered
/// reference path is `LevelAccel::UNFILTERED`).
pub fn solve_fmm_tsm_with(
    bdd: &mut Bdd,
    functions: &[GatheredFunction],
    options: CliqueOptions,
    accel: LevelAccel,
) -> Vec<Isf> {
    solve_fmm_tsm_budgeted(bdd, functions, options, accel).expect(BUDGET_PANIC)
}

/// Builds the undirected tsm matching graph: edge {j, k} iff the two
/// gathered ISFs tsm-match. Surviving pairs run the exact check through
/// the manager-owned pair memo when `accel.pair_memo` is on.
fn build_tsm_graph_budgeted(
    bdd: &mut Bdd,
    functions: &[GatheredFunction],
    accel: LevelAccel,
) -> Result<BitMatrix, BudgetExceeded> {
    let n = functions.len();
    let sigs = if accel.sig_filter {
        batch_sigs(bdd, functions.iter().map(|g| &g.isf))
    } else {
        Vec::new()
    };
    let mut adj = BitMatrix::new(n);
    for j in 0..n {
        for k in (j + 1)..n {
            if accel.sig_filter && (refutes_tsm(sigs[j], sigs[k]) || sabotaged(accel, j, k)) {
                continue;
            }
            let matched = if accel.pair_memo {
                matches_tsm_pair_memoized(bdd, functions[j].isf, functions[k].isf)?
            } else {
                matches_directed_budgeted(
                    bdd,
                    MatchCriterion::Tsm,
                    functions[j].isf,
                    functions[k].isf,
                )?
            };
            if matched {
                adj.set(j, k);
                adj.set(k, j);
            }
        }
    }
    Ok(adj)
}

/// Checked [`solve_fmm_tsm`]: returns [`BudgetExceeded`] instead of
/// running past an armed budget. This is the schedule's most expensive
/// step (quadratic matching graph + greedy clique cover), so it is the
/// step budgets most often interrupt.
pub(crate) fn solve_fmm_tsm_budgeted(
    bdd: &mut Bdd,
    functions: &[GatheredFunction],
    options: CliqueOptions,
    accel: LevelAccel,
) -> Result<Vec<Isf>, BudgetExceeded> {
    let n = functions.len();
    let adj = build_tsm_graph_budgeted(bdd, functions, accel)?;
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
            frontier.sort_by_key(|&w| path_distance(&functions[v].path, &functions[w].path));
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
                    extra.sort_by_key(|&x| {
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

/// The edge set of the undirected tsm matching graph over the gathered
/// functions, as `(j, k)` pairs with `j < k`, ascending. Exposed for the
/// differential suite: the filtered and unfiltered graphs must be equal.
#[doc(hidden)]
pub fn tsm_matching_pairs(
    bdd: &mut Bdd,
    functions: &[GatheredFunction],
    accel: LevelAccel,
) -> Vec<(usize, usize)> {
    let adj = build_tsm_graph_budgeted(bdd, functions, accel).expect(BUDGET_PANIC);
    let mut pairs = Vec::new();
    for j in 0..adj.len() {
        pairs.extend(adj.row_indices(j).filter(|&k| j < k).map(|k| (j, k)));
    }
    pairs
}

/// The edge set of the directed osm matching graph over the
/// **deduplicated** vertices, as `(j, k)` pairs, ascending. Exposed for
/// the differential suite.
#[doc(hidden)]
pub fn osm_matching_pairs(
    bdd: &mut Bdd,
    functions: &[Isf],
    accel: LevelAccel,
) -> Vec<(usize, usize)> {
    let (vertices, _idx, vsigs) = if accel.sig_filter {
        let sigs = batch_sigs(bdd, functions.iter());
        dedup_by_signature(bdd, functions, &sigs).expect(BUDGET_PANIC)
    } else {
        let (v, idx) = dedup_by_canonical_key(bdd, functions).expect(BUDGET_PANIC);
        (v, idx, Vec::new())
    };
    let adj = build_osm_graph_budgeted(bdd, &vertices, &vsigs, accel).expect(BUDGET_PANIC);
    let mut pairs = Vec::new();
    for j in 0..adj.len() {
        pairs.extend(adj.row_indices(j).map(|k| (j, k)));
    }
    pairs
}

/// Rewrites `[f, c]`, substituting `replacements[j]` for the `j`-th gathered
/// pair, and returns the new ISF. Pairs map one-to-one: the traversal
/// mirrors [`gather_below_level`].
pub fn substitute_below_level(
    bdd: &mut Bdd,
    isf: Isf,
    level: Var,
    gathered: &[GatheredFunction],
    replacements: &[Isf],
) -> Isf {
    substitute_below_level_budgeted(bdd, isf, level, gathered, replacements).expect(BUDGET_PANIC)
}

/// Checked [`substitute_below_level`].
pub(crate) fn substitute_below_level_budgeted(
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
    limit: Option<usize>,
) -> Isf {
    minimize_at_level_mode(bdd, isf, level, criterion, options, limit, GatherMode::All)
}

/// [`minimize_at_level`] with an explicit [`GatherMode`].
#[allow(clippy::too_many_arguments)]
pub fn minimize_at_level_mode(
    bdd: &mut Bdd,
    isf: Isf,
    level: Var,
    criterion: MatchCriterion,
    options: CliqueOptions,
    limit: Option<usize>,
    mode: GatherMode,
) -> Isf {
    minimize_at_level_mode_budgeted(bdd, isf, level, criterion, options, limit, mode)
        .expect(BUDGET_PANIC)
}

/// Checked [`minimize_at_level`]: returns [`BudgetExceeded`] instead of
/// running past an armed budget. On error the pass's partial work is
/// discarded; the input ISF remains the valid state to continue from, so
/// a scheduler can skip the step and move on (the Theorem 12 degradation
/// ladder).
pub fn minimize_at_level_budgeted(
    bdd: &mut Bdd,
    isf: Isf,
    level: Var,
    criterion: MatchCriterion,
    options: CliqueOptions,
    limit: Option<usize>,
) -> Result<Isf, BudgetExceeded> {
    minimize_at_level_mode_budgeted(bdd, isf, level, criterion, options, limit, GatherMode::All)
}

/// [`minimize_at_level`] with an explicit [`LevelAccel`]. The result is
/// identical for every `accel` — this entry point exists for the
/// differential suite, the `sig-invariance` oracle, and parity
/// benchmarking against [`LevelAccel::UNFILTERED`].
#[allow(clippy::too_many_arguments)]
pub fn minimize_at_level_with(
    bdd: &mut Bdd,
    isf: Isf,
    level: Var,
    criterion: MatchCriterion,
    options: CliqueOptions,
    limit: Option<usize>,
    accel: LevelAccel,
) -> Isf {
    minimize_at_level_accel_budgeted(
        bdd,
        isf,
        level,
        criterion,
        options,
        limit,
        GatherMode::All,
        accel,
    )
    .expect(BUDGET_PANIC)
}

/// Checked [`minimize_at_level_mode`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn minimize_at_level_mode_budgeted(
    bdd: &mut Bdd,
    isf: Isf,
    level: Var,
    criterion: MatchCriterion,
    options: CliqueOptions,
    limit: Option<usize>,
    mode: GatherMode,
) -> Result<Isf, BudgetExceeded> {
    minimize_at_level_accel_budgeted(
        bdd,
        isf,
        level,
        criterion,
        options,
        limit,
        mode,
        LevelAccel::default(),
    )
}

/// The full-parameter pass: gather, solve FMM under `accel`, substitute.
#[allow(clippy::too_many_arguments)]
fn minimize_at_level_accel_budgeted(
    bdd: &mut Bdd,
    isf: Isf,
    level: Var,
    criterion: MatchCriterion,
    options: CliqueOptions,
    limit: Option<usize>,
    mode: GatherMode,
    accel: LevelAccel,
) -> Result<Isf, BudgetExceeded> {
    let gathered = gather_below_level_mode(bdd, isf, level, limit, mode);
    if gathered.len() < 2 {
        return Ok(isf);
    }
    let replacements = match criterion {
        MatchCriterion::Tsm => solve_fmm_tsm_budgeted(bdd, &gathered, options, accel)?,
        MatchCriterion::Osm | MatchCriterion::Osdm => {
            let isfs: Vec<Isf> = gathered.iter().map(|g| g.isf).collect();
            solve_fmm_osm_budgeted(bdd, &isfs, accel)?
        }
    };
    substitute_below_level_budgeted(bdd, isf, level, &gathered, &replacements)
}

/// The paper's `opt_lv` heuristic: visit the levels in increasing order and
/// match functions with tsm at each. Returns a cover of `[f, c]`.
///
/// # Panics
///
/// Panics if `isf.c` is the zero function.
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
    assert!(!isf.c.is_zero(), "opt_lv: care set must be non-empty");
    let mut cur = isf;
    let n = bdd.num_vars() as u32;
    for lvl in 0..n {
        cur = minimize_at_level(bdd, cur, Var(lvl), MatchCriterion::Tsm, options, None);
        if cur.c.is_one() {
            break;
        }
    }
    // Remaining don't-care points (if any) take the representative's value:
    // the representative is always a cover of the final ISF, and the final
    // ISF i-covers the original.
    cur.f
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
        let got = gather_below_level(&mut bdd, Isf::new(f, c), Var(0), None);
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

    #[test]
    fn gather_respects_limit() {
        let mut bdd = Bdd::new(4);
        let (f, c) = bdd.from_leaf_spec("0d d1 10 01 11 d0 d1 00").unwrap();
        let all = gather_below_level(&mut bdd, Isf::new(f, c), Var(1), None);
        let limited = gather_below_level(&mut bdd, Isf::new(f, c), Var(1), Some(2));
        assert!(all.len() >= 2);
        assert_eq!(limited.len(), 2);
        assert_eq!(&all[..2], &limited[..]);
    }

    /// The path-walking gather: every path of the pair DAG, deduplicated
    /// at the frontier only.
    fn gather_every_path(
        bdd: &mut Bdd,
        isf: Isf,
        level: Var,
        limit: Option<usize>,
        out: &mut Vec<GatheredFunction>,
        path: &mut Vec<u8>,
    ) {
        if limit.is_some_and(|n| out.len() >= n) {
            return;
        }
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
        gather_every_path(bdd, Isf::new(f_t, c_t), level, limit, out, path);
        path[top.index()] = 0;
        gather_every_path(bdd, Isf::new(f_e, c_e), level, limit, out, path);
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
                for limit in [None, Some(1), Some(3)] {
                    let got = gather_below_level(&mut bdd, isf, Var(lvl), limit);
                    let mut want = Vec::new();
                    let mut path = vec![2u8; lvl as usize + 1];
                    gather_every_path(&mut bdd, isf, Var(lvl), limit, &mut want, &mut path);
                    assert_eq!(got, want, "spec {spec} level {lvl} limit {limit:?}");
                }
            }
        }
    }

    #[test]
    fn fmm_osm_maps_to_sinks() {
        let mut bdd = Bdd::new(3);
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let bc = bdd.and(b, c);
        // [b·c, b] osm-matches [c, 1] (a sink); [c,1] matches nothing else.
        let fns = [Isf::new(bc, b), Isf::new(c, Edge::ONE)];
        let solved = solve_fmm_osm(&mut bdd, &fns);
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
            Isf::new(bc, b),          // matches [c, 1]
            Isf::new(c, Edge::ONE),   // sink
            Isf::new(nb, Edge::ONE),  // sink (disagrees with c where b... )
        ];
        let solved = solve_fmm_osm(&mut bdd, &fns);
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
        let solved = solve_fmm_osm(&mut bdd, &fns);
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
        let solved = solve_fmm_tsm(&mut bdd, &gathered, CliqueOptions::default());
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
        let solved = solve_fmm_tsm(&mut bdd, &gathered, CliqueOptions::default());
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
            None,
        );
        // Care can only grow.
        assert!(bdd.implies_holds(isf.c, new_isf.c));
        // Every cover of the new ISF covers the old one.
        assert!(new_isf.i_covers(&mut bdd, isf));
    }

    #[test]
    fn opt_lv_is_cover_on_paper_instances() {
        for spec in ["d1 01", "d1 01 1d 01", "1d d1 d0 0d", "0d d1 10 01 11 d0 d1 00"] {
            let mut bdd = Bdd::new(4);
            let (f, c) = bdd.from_leaf_spec(spec).unwrap();
            let isf = Isf::new(f, c);
            let g = opt_lv(&mut bdd, isf, CliqueOptions::default());
            assert!(isf.is_cover(&mut bdd, g), "opt_lv broke cover on {spec}");
        }
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
            None,
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
    fn rooted_just_below_mode_filters() {
        let mut bdd = Bdd::new(4);
        let (f, c) = bdd.from_leaf_spec("0d d1 10 01 11 d0 d1 00").unwrap();
        let isf = Isf::new(f, c);
        let all = gather_below_level_mode(&mut bdd, isf, Var(0), None, GatherMode::All);
        let just =
            gather_below_level_mode(&mut bdd, isf, Var(0), None, GatherMode::RootedJustBelow);
        assert!(just.len() <= all.len());
        for g in &just {
            assert_eq!(bdd.level(g.isf.f), Var(1));
        }
        // The filtered pass is still sound.
        let out = minimize_at_level_mode(
            &mut bdd,
            isf,
            Var(0),
            MatchCriterion::Tsm,
            CliqueOptions::default(),
            None,
            GatherMode::RootedJustBelow,
        );
        assert!(out.i_covers(&mut bdd, isf));
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
