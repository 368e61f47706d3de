//! Incompletely specified functions.

use bddmin_bdd::{Bdd, BudgetExceeded, Edge};

/// An incompletely specified function `[f, c]` (paper Section 2).
///
/// `c` is the **care** function: the onset is `f·c`, the offset `¬f·c`, and
/// the don't-care set `¬c`. A completely specified `g` is a *cover* iff
/// `f·c ≤ g ≤ f + ¬c`.
///
/// # Example
///
/// ```
/// use bddmin_bdd::{Bdd, Var};
/// use bddmin_core::Isf;
///
/// let mut bdd = Bdd::new(2);
/// let a = bdd.var(Var(0));
/// let b = bdd.var(Var(1));
/// let f = bdd.and(a, b);
/// let isf = Isf::new(f, a); // care only about a = 1
/// assert!(isf.is_cover(&mut bdd, b)); // b agrees with a·b wherever a = 1
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Isf {
    /// The function (its values on `¬c` are immaterial).
    pub f: Edge,
    /// The care function.
    pub c: Edge,
}

impl Isf {
    /// Bundles a function and a care function.
    pub fn new(f: Edge, c: Edge) -> Isf {
        Isf { f, c }
    }

    /// A completely specified function (`c = 1`).
    pub fn total(f: Edge) -> Isf {
        Isf { f, c: Edge::ONE }
    }

    /// The onset `f·c`.
    pub fn onset(self, bdd: &mut Bdd) -> Edge {
        bdd.and(self.f, self.c)
    }

    /// Checked [`Isf::onset`]: returns [`BudgetExceeded`] instead of
    /// running past an armed budget.
    pub fn try_onset(self, bdd: &mut Bdd) -> Result<Edge, BudgetExceeded> {
        bdd.try_and(self.f, self.c)
    }

    /// Checked [`Isf::upper`].
    pub fn try_upper(self, bdd: &mut Bdd) -> Result<Edge, BudgetExceeded> {
        bdd.try_or(self.f, self.c.complement())
    }

    /// Checked [`Isf::canonical_key`].
    pub fn try_canonical_key(self, bdd: &mut Bdd) -> Result<(Edge, Edge), BudgetExceeded> {
        Ok((self.try_onset(bdd)?, self.c))
    }

    /// The offset `¬f·c`.
    pub fn offset(self, bdd: &mut Bdd) -> Edge {
        bdd.and(self.f.complement(), self.c)
    }

    /// The don't-care set `¬c`.
    pub fn dc_set(self) -> Edge {
        self.c.complement()
    }

    /// The upper bound of the cover interval, `f + ¬c`.
    pub fn upper(self, bdd: &mut Bdd) -> Edge {
        bdd.or(self.f, self.c.complement())
    }

    /// True iff `g` is a cover: `f·c ≤ g ≤ f + ¬c`, that is, `g` agrees
    /// with `f` wherever `c` holds.
    pub fn is_cover(self, bdd: &mut Bdd, g: Edge) -> bool {
        bdd.agree(g, self.f, self.c)
    }

    /// True iff `self` *i-covers* `other` (paper Definition 2): every cover
    /// of `self` is a cover of `other`. Equivalent to
    /// `c_other ≤ c_self` and agreement of the functions on `c_other`.
    pub fn i_covers(self, bdd: &mut Bdd, other: Isf) -> bool {
        bdd.implies_holds(other.c, self.c) && bdd.agree(self.f, other.f, other.c)
    }

    /// The complemented ISF `[¬f, c]` (covers of it are complements of
    /// covers of `self`).
    #[must_use]
    pub fn complement(self) -> Isf {
        Isf {
            f: self.f.complement(),
            c: self.c,
        }
    }

    /// Semantic equality as incompletely specified functions: same care set
    /// and same values on it (the representatives `f` may differ on `¬c`).
    pub fn same_function(self, bdd: &mut Bdd, other: Isf) -> bool {
        self.c == other.c && bdd.agree(self.f, other.f, self.c)
    }

    /// A canonical key identifying the ISF semantics: `(onset, care)`.
    /// Two ISFs are the same function iff their keys are equal.
    pub fn canonical_key(self, bdd: &mut Bdd) -> (Edge, Edge) {
        (self.onset(bdd), self.c)
    }

    /// True when every point is a don't care (`c = 0`).
    pub fn is_all_dc(self) -> bool {
        self.c.is_zero()
    }

    /// True when there are no don't cares (`c = 1`).
    pub fn is_total(self) -> bool {
        self.c.is_one()
    }
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
    fn onset_offset_partition_care() {
        let (mut bdd, a, b, _) = setup();
        let f = bdd.xor(a, b);
        let isf = Isf::new(f, a);
        let on = isf.onset(&mut bdd);
        let off = isf.offset(&mut bdd);
        assert!(bdd.and(on, off).is_zero());
        assert_eq!(bdd.or(on, off), a);
        assert_eq!(isf.dc_set(), bdd.not(a));
    }

    #[test]
    fn cover_bounds() {
        let (mut bdd, a, b, _) = setup();
        let f = bdd.and(a, b);
        let isf = Isf::new(f, a);
        // The onset and the upper bound are themselves covers.
        let on = isf.onset(&mut bdd);
        let up = isf.upper(&mut bdd);
        assert!(isf.is_cover(&mut bdd, on));
        assert!(isf.is_cover(&mut bdd, up));
        assert!(isf.is_cover(&mut bdd, f));
        assert!(isf.is_cover(&mut bdd, b));
        // Something that disagrees on the care set is not a cover.
        let nb = bdd.not(b);
        assert!(!isf.is_cover(&mut bdd, nb));
    }

    #[test]
    fn total_isf_has_unique_cover() {
        let (mut bdd, a, b, _) = setup();
        let f = bdd.or(a, b);
        let isf = Isf::total(f);
        assert!(isf.is_total());
        assert!(isf.is_cover(&mut bdd, f));
        assert!(!isf.is_cover(&mut bdd, a));
    }

    #[test]
    fn i_cover_reflexive_and_dc_growth() {
        let (mut bdd, a, b, _) = setup();
        let f = bdd.xor(a, b);
        let big = Isf::new(f, Edge::ONE);
        let small = Isf::new(f, a);
        assert!(big.i_covers(&mut bdd, big));
        // The more constrained ISF i-covers the freer one, not vice versa.
        assert!(big.i_covers(&mut bdd, small));
        assert!(!small.i_covers(&mut bdd, big));
    }

    #[test]
    fn i_cover_requires_agreement() {
        let (mut bdd, a, b, _) = setup();
        let f1 = Isf::new(a, Edge::ONE);
        let f2 = Isf::new(b, Edge::ONE);
        assert!(!f1.i_covers(&mut bdd, f2));
    }

    #[test]
    fn same_function_ignores_dc_values() {
        let (mut bdd, a, b, _) = setup();
        // [a·b, a] and [b, a] agree where a=1.
        let ab = bdd.and(a, b);
        let x = Isf::new(ab, a);
        let y = Isf::new(b, a);
        assert!(x.same_function(&mut bdd, y));
        assert_eq!(x.canonical_key(&mut bdd), y.canonical_key(&mut bdd));
        let z = Isf::new(bdd.not(b), a);
        assert!(!x.same_function(&mut bdd, z));
    }

    #[test]
    fn complement_covers_complement() {
        let (mut bdd, a, b, _) = setup();
        let isf = Isf::new(bdd.and(a, b), a);
        let g = b; // cover of isf
        assert!(isf.is_cover(&mut bdd, g));
        let ng = bdd.not(g);
        assert!(isf.complement().is_cover(&mut bdd, ng));
    }

    #[test]
    fn all_dc_flags() {
        let (_, a, _, _) = setup();
        assert!(Isf::new(a, Edge::ZERO).is_all_dc());
        assert!(!Isf::new(a, a).is_all_dc());
        assert!(Isf::new(a, Edge::ONE).is_total());
    }
}
