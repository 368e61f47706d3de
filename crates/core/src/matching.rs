//! Matching criteria (paper Section 3.1.1).
//!
//! Two incompletely specified functions *match* when they have a common
//! i-cover; the criteria differ in how much don't-care freedom may be spent
//! to establish the match:
//!
//! | criterion | reflexive | symmetric | transitive | condition |
//! |-----------|-----------|-----------|------------|-----------|
//! | `osdm`    | no        | no        | yes        | `c1 = 0` |
//! | `osm`     | yes       | no        | yes        | `f1 ⊕ f2 ≤ ¬c1` and `¬c2 ⊆ ¬c1` |
//! | `tsm`     | yes       | yes       | no         | `f1 ⊕ f2 ≤ ¬c1 + ¬c2` |
//!
//! (paper Table 1). An `osdm` match implies an `osm` match, which implies a
//! `tsm` match. When a match is made the produced i-cover keeps the maximal
//! don't-care part:
//!
//! * `osdm`, `osm` → `[f2, c2]` (the second function, unchanged),
//! * `tsm` → `[f1·c1 + f2·c2, c1 + c2]`.

use bddmin_bdd::{Bdd, BudgetExceeded, Edge, BUDGET_PANIC};

use crate::isf::Isf;

/// One of the paper's three matching criteria.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MatchCriterion {
    /// One-sided don't-care match: the first function is all don't care.
    Osdm,
    /// One-sided match: assign DCs of the first function only.
    Osm,
    /// Two-sided match: assign DCs of both functions.
    Tsm,
}

impl MatchCriterion {
    /// All criteria, in increasing strength.
    pub const ALL: [MatchCriterion; 3] = [
        MatchCriterion::Osdm,
        MatchCriterion::Osm,
        MatchCriterion::Tsm,
    ];

    /// Short lowercase name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            MatchCriterion::Osdm => "osdm",
            MatchCriterion::Osm => "osm",
            MatchCriterion::Tsm => "tsm",
        }
    }
}

impl std::fmt::Display for MatchCriterion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Directional test: does `a` match `b` under `criterion` (spending only the
/// freedoms the criterion allows)?
///
/// Note `osdm` and `osm` are directional; [`try_match`] tries both
/// directions.
pub fn matches_directed(bdd: &mut Bdd, criterion: MatchCriterion, a: Isf, b: Isf) -> bool {
    matches_directed_budgeted(bdd, criterion, a, b).expect(BUDGET_PANIC)
}

/// Checked [`matches_directed`]: returns [`BudgetExceeded`] instead of
/// running past an armed budget.
pub(crate) fn matches_directed_budgeted(
    bdd: &mut Bdd,
    criterion: MatchCriterion,
    a: Isf,
    b: Isf,
) -> Result<bool, BudgetExceeded> {
    match criterion {
        MatchCriterion::Osdm => Ok(a.c.is_zero()),
        // Both criteria are decided by `agree`, which builds no
        // disagreement BDD and stops at the first witness.
        MatchCriterion::Osm => {
            // c1 ≤ c2  and  f1 ⊕ f2 ≤ ¬c1.
            Ok(bdd.try_implies_holds(a.c, b.c)? && bdd.try_agree(a.f, b.f, a.c)?)
        }
        MatchCriterion::Tsm => {
            // f1 ⊕ f2 ≤ ¬c1 + ¬c2  ⟺  (f1 ⊕ f2)·c1·c2 = 0.
            let both = bdd.try_and(a.c, b.c)?;
            bdd.try_agree(a.f, b.f, both)
        }
    }
}

/// Attempts to match `a` and `b`; on success returns the common i-cover
/// with maximal don't-care part (paper §3.1.1).
///
/// For the directional criteria (`osdm`, `osm`) both directions are tried,
/// mirroring the paper's `is_match`.
pub fn try_match(bdd: &mut Bdd, criterion: MatchCriterion, a: Isf, b: Isf) -> Option<Isf> {
    try_match_budgeted(bdd, criterion, a, b).expect(BUDGET_PANIC)
}

/// Checked [`try_match`]: returns [`BudgetExceeded`] instead of running
/// past an armed budget.
pub(crate) fn try_match_budgeted(
    bdd: &mut Bdd,
    criterion: MatchCriterion,
    a: Isf,
    b: Isf,
) -> Result<Option<Isf>, BudgetExceeded> {
    match criterion {
        MatchCriterion::Osdm | MatchCriterion::Osm => {
            if matches_directed_budgeted(bdd, criterion, a, b)? {
                Ok(Some(b))
            } else if matches_directed_budgeted(bdd, criterion, b, a)? {
                Ok(Some(a))
            } else {
                Ok(None)
            }
        }
        MatchCriterion::Tsm => {
            if matches_directed_budgeted(bdd, criterion, a, b)? {
                Ok(Some(merge_tsm_budgeted(bdd, a, b)?))
            } else {
                Ok(None)
            }
        }
    }
}

/// The tsm i-cover `[f1·c1 + f2·c2, c1 + c2]` of two tsm-matching ISFs.
///
/// When the two representatives coincide (`f1 == f2`) the representative is
/// kept as-is, `[f1, c1 + c2]` — the same ISF, but it makes the framework
/// instance with tsm literally insensitive to the no-new-vars flag (paper
/// Table 2: rows 10 and 12 equal rows 9 and 11).
fn merge_tsm_budgeted(bdd: &mut Bdd, a: Isf, b: Isf) -> Result<Isf, BudgetExceeded> {
    let c = bdd.try_or(a.c, b.c)?;
    if a.f == b.f {
        return Ok(Isf { f: a.f, c });
    }
    let on_a = a.try_onset(bdd)?;
    let on_b = b.try_onset(bdd)?;
    Ok(Isf {
        f: bdd.try_or(on_a, on_b)?,
        c,
    })
}

/// Merges a whole set of pairwise tsm-matching ISFs into their common
/// i-cover `[Σ fj·cj, Σ cj]` (paper Lemma 14 guarantees a common cover
/// exists exactly when they match pairwise).
pub(crate) fn merge_tsm_many_budgeted(bdd: &mut Bdd, isfs: &[Isf]) -> Result<Isf, BudgetExceeded> {
    let mut f = Edge::ZERO;
    let mut c = Edge::ZERO;
    for isf in isfs {
        let on = isf.try_onset(bdd)?;
        f = bdd.try_or(f, on)?;
        c = bdd.try_or(c, isf.c)?;
    }
    Ok(Isf { f, c })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bddmin_bdd::Var;

    fn setup() -> (Bdd, Edge, Edge, Edge) {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        (bdd, a, b, c)
    }

    #[test]
    fn osdm_requires_empty_care() {
        let (mut bdd, a, b, _) = setup();
        let all_dc = Isf::new(a, Edge::ZERO);
        let other = Isf::new(b, Edge::ONE);
        assert!(matches_directed(
            &mut bdd,
            MatchCriterion::Osdm,
            all_dc,
            other
        ));
        assert!(!matches_directed(
            &mut bdd,
            MatchCriterion::Osdm,
            other,
            all_dc
        ));
        let m = try_match(&mut bdd, MatchCriterion::Osdm, other, all_dc).unwrap();
        assert_eq!(m, other, "osdm keeps the cared-about side");
    }

    #[test]
    fn osm_spends_first_side_only() {
        let (mut bdd, a, b, _) = setup();
        // [a·b, a] can be matched to [b, 1]: they agree where a=1 and the
        // first's DC set (¬a) contains the second's (∅).
        let ab = bdd.and(a, b);
        let first = Isf::new(ab, a);
        let second = Isf::new(b, Edge::ONE);
        assert!(matches_directed(
            &mut bdd,
            MatchCriterion::Osm,
            first,
            second
        ));
        assert!(!matches_directed(
            &mut bdd,
            MatchCriterion::Osm,
            second,
            first
        ));
        let m = try_match(&mut bdd, MatchCriterion::Osm, first, second).unwrap();
        assert_eq!(m, second);
        // The i-cover really i-covers both.
        assert!(m.i_covers(&mut bdd, first));
        assert!(m.i_covers(&mut bdd, second));
    }

    #[test]
    fn osm_requires_dc_containment() {
        let (mut bdd, a, b, _) = setup();
        // Functions agree on a (first's care), but first's DC set ¬a does
        // NOT contain second's DC set ¬b.
        let first = Isf::new(b, a);
        let second = Isf::new(b, b);
        // agreement on a holds (same f), but c1=a ≤ c2=b fails.
        assert!(!matches_directed(
            &mut bdd,
            MatchCriterion::Osm,
            first,
            second
        ));
    }

    #[test]
    fn tsm_is_symmetric() {
        let (mut bdd, a, b, _) = setup();
        // [a, b] and [¬a? no]: choose agreeing-on-overlap pair.
        let x = Isf::new(a, b);
        let y = Isf::new(a, bdd.not(b));
        assert!(matches_directed(&mut bdd, MatchCriterion::Tsm, x, y));
        assert!(matches_directed(&mut bdd, MatchCriterion::Tsm, y, x));
        let m = try_match(&mut bdd, MatchCriterion::Tsm, x, y).unwrap();
        assert!(m.i_covers(&mut bdd, x));
        assert!(m.i_covers(&mut bdd, y));
        assert!(m.c.is_one());
    }

    #[test]
    fn tsm_rejects_conflicts() {
        let (mut bdd, a, _, _) = setup();
        let x = Isf::new(a, Edge::ONE);
        let y = Isf::new(bdd.not(a), Edge::ONE);
        assert!(try_match(&mut bdd, MatchCriterion::Tsm, x, y).is_none());
    }

    #[test]
    fn strength_hierarchy() {
        // osdm match ⟹ osm match ⟹ tsm match, on a grid of small ISFs.
        let (mut bdd, a, b, c) = setup();
        let fns = [Edge::ZERO, Edge::ONE, a, b, bdd.xor(a, b)];
        let cares = [Edge::ZERO, Edge::ONE, a, c, bdd.or(a, c)];
        for &f1 in &fns {
            for &c1 in &cares {
                for &f2 in &fns {
                    for &c2 in &cares {
                        let x = Isf::new(f1, c1);
                        let y = Isf::new(f2, c2);
                        let osdm = matches_directed(&mut bdd, MatchCriterion::Osdm, x, y);
                        let osm = matches_directed(&mut bdd, MatchCriterion::Osm, x, y);
                        let tsm = matches_directed(&mut bdd, MatchCriterion::Tsm, x, y);
                        assert!(!osdm || osm, "osdm must imply osm");
                        assert!(!osm || tsm, "osm must imply tsm");
                    }
                }
            }
        }
    }

    #[test]
    fn table1_properties() {
        // Paper Table 1: reflexivity / symmetry / transitivity of the three
        // criteria, checked exhaustively over a family of small ISFs.
        let (mut bdd, a, b, _) = setup();
        let ab = bdd.and(a, b);
        let aob = bdd.or(a, b);
        let isfs = [
            Isf::new(a, Edge::ONE),
            Isf::new(a, b),
            Isf::new(ab, a),
            Isf::new(aob, Edge::ZERO),
            Isf::new(b, aob),
            Isf::new(Edge::ONE, ab),
        ];
        // osdm: not reflexive (any ISF with c != 0), transitive.
        let with_care = Isf::new(a, Edge::ONE);
        assert!(!matches_directed(
            &mut bdd,
            MatchCriterion::Osdm,
            with_care,
            with_care
        ));
        // osm and tsm: reflexive.
        for &x in &isfs {
            assert!(matches_directed(&mut bdd, MatchCriterion::Osm, x, x));
            assert!(matches_directed(&mut bdd, MatchCriterion::Tsm, x, x));
        }
        // tsm: symmetric (exhaustive on the family).
        for &x in &isfs {
            for &y in &isfs {
                let xy = matches_directed(&mut bdd, MatchCriterion::Tsm, x, y);
                let yx = matches_directed(&mut bdd, MatchCriterion::Tsm, y, x);
                assert_eq!(xy, yx);
            }
        }
        // osm: transitive (exhaustive on the family).
        for &x in &isfs {
            for &y in &isfs {
                for &z in &isfs {
                    let xy = matches_directed(&mut bdd, MatchCriterion::Osm, x, y);
                    let yz = matches_directed(&mut bdd, MatchCriterion::Osm, y, z);
                    let xz = matches_directed(&mut bdd, MatchCriterion::Osm, x, z);
                    if xy && yz {
                        assert!(xz, "osm transitivity violated");
                    }
                }
            }
        }
        // osm: not symmetric — witness.
        let first = Isf::new(ab, a);
        let second = Isf::new(b, Edge::ONE);
        assert!(matches_directed(
            &mut bdd,
            MatchCriterion::Osm,
            first,
            second
        ));
        assert!(!matches_directed(
            &mut bdd,
            MatchCriterion::Osm,
            second,
            first
        ));
        // tsm: not transitive — witness: [a,·] ~ all-DC ~ [¬a,·] but
        // [a,1] !~ [¬a,1].
        let x = Isf::new(a, Edge::ONE);
        let mid = Isf::new(b, Edge::ZERO);
        let z = Isf::new(bdd.not(a), Edge::ONE);
        assert!(matches_directed(&mut bdd, MatchCriterion::Tsm, x, mid));
        assert!(matches_directed(&mut bdd, MatchCriterion::Tsm, mid, z));
        assert!(!matches_directed(&mut bdd, MatchCriterion::Tsm, x, z));
    }

    #[test]
    fn merged_icover_is_maximal_dc() {
        let (mut bdd, a, b, c) = setup();
        // tsm merge keeps exactly c1 + c2 as care.
        let x = Isf::new(a, b);
        let y = Isf::new(a, c);
        let m = try_match(&mut bdd, MatchCriterion::Tsm, x, y).unwrap();
        assert_eq!(m.c, bdd.or(b, c));
    }

    #[test]
    fn merge_tsm_many_matches_pairwise_merge() {
        let (mut bdd, a, b, c) = setup();
        let xs = [Isf::new(a, b), Isf::new(a, c), Isf::new(a, Edge::ZERO)];
        let many = merge_tsm_many_budgeted(&mut bdd, &xs).unwrap();
        let two = merge_tsm_budgeted(&mut bdd, xs[0], xs[1]).unwrap();
        let all = merge_tsm_budgeted(&mut bdd, two, xs[2]).unwrap();
        assert!(many.same_function(&mut bdd, all));
        assert_eq!(many.c, all.c);
        for &x in &xs {
            assert!(many.i_covers(&mut bdd, x));
        }
    }

    #[test]
    fn names() {
        assert_eq!(MatchCriterion::Osdm.to_string(), "osdm");
        assert_eq!(MatchCriterion::Osm.name(), "osm");
        assert_eq!(MatchCriterion::Tsm.name(), "tsm");
        assert_eq!(MatchCriterion::ALL.len(), 3);
    }
}
