//! Size and satisfaction counting.

use std::collections::HashMap;
use std::fmt;

use crate::edge::{Edge, NodeId, Var};
use crate::manager::Bdd;
use crate::util::{Bitmap, FastBuild};

/// A satisfying-assignment count in exponent-carrying form:
/// `mantissa × 2^exp2`, with `mantissa` in `[1, 2)` (or exactly `0.0` for
/// the unsatisfiable function).
///
/// Plain `f64` counts overflow to infinity at 1024 variables and lose the
/// low bits long before that; this representation stays finite and keeps
/// f64 mantissa precision at any variable count. [`Bdd::sat_count`]
/// converts it with [`SatCount::to_f64`] (saturating).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SatCount {
    /// Significand in `[1, 2)`, or `0.0` when the count is zero.
    pub mantissa: f64,
    /// Binary exponent.
    pub exp2: i64,
}

/// Exponent gap beyond which the smaller addend (or a `1 - ε`
/// complement) is below f64 mantissa resolution and is dropped. This is
/// exactly the precision plain f64 arithmetic would deliver, so the
/// representation is an *exponent-range* fix, not a precision upgrade.
const NEGLIGIBLE_EXP_GAP: i64 = 80;

impl SatCount {
    /// The count zero.
    pub const ZERO: SatCount = SatCount {
        mantissa: 0.0,
        exp2: 0,
    };
    /// The count one.
    pub const ONE: SatCount = SatCount {
        mantissa: 1.0,
        exp2: 0,
    };

    /// True for the zero count.
    pub fn is_zero(self) -> bool {
        self.mantissa == 0.0
    }

    /// Brings an `f64` value into normalized exponent-carrying form.
    fn normalize(value: f64, exp2: i64) -> SatCount {
        debug_assert!(value.is_finite() && value >= 0.0);
        if value == 0.0 {
            return SatCount::ZERO;
        }
        let (mut m, mut e) = (value, exp2);
        while m >= 2.0 {
            m /= 2.0;
            e += 1;
        }
        while m < 1.0 {
            m *= 2.0;
            e -= 1;
        }
        SatCount {
            mantissa: m,
            exp2: e,
        }
    }

    /// The complement probability `1 - self` (valid only for values in
    /// `[0, 1]`, as produced by the satisfaction recursion).
    fn one_minus(self) -> SatCount {
        if self.is_zero() {
            return SatCount::ONE;
        }
        if self == SatCount::ONE {
            return SatCount::ZERO;
        }
        if self.exp2 < -NEGLIGIBLE_EXP_GAP {
            // 1 - ε rounds to 1 at f64 precision.
            return SatCount::ONE;
        }
        SatCount::normalize(1.0 - self.mantissa * 2f64.powi(self.exp2 as i32), 0)
    }

    /// The average `(a + b) / 2` of two counts.
    fn half_sum(a: SatCount, b: SatCount) -> SatCount {
        if a.is_zero() {
            return SatCount::normalize(b.mantissa, b.exp2 - 1);
        }
        if b.is_zero() {
            return SatCount::normalize(a.mantissa, a.exp2 - 1);
        }
        let (hi, lo) = if a.exp2 >= b.exp2 { (a, b) } else { (b, a) };
        let gap = hi.exp2 - lo.exp2;
        if gap > NEGLIGIBLE_EXP_GAP {
            return SatCount::normalize(hi.mantissa, hi.exp2 - 1);
        }
        let sum = hi.mantissa + lo.mantissa * 2f64.powi(-(gap as i32));
        SatCount::normalize(sum, hi.exp2 - 1)
    }

    /// Converts to `f64`, saturating to `f64::INFINITY` above `~2^1024`
    /// and to `0.0` below the subnormal range (never `NaN`).
    fn to_f64(self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        if self.exp2 > f64::MAX_EXP as i64 {
            return f64::INFINITY;
        }
        if self.exp2 < f64::MIN_EXP as i64 - 53 {
            return 0.0;
        }
        self.mantissa * 2f64.powi(self.exp2 as i32)
    }
}

impl fmt::Display for SatCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            f.write_str("0")
        } else {
            write!(f, "{}*2^{}", self.mantissa, self.exp2)
        }
    }
}

impl Bdd {
    /// The size `|f|`: number of nodes in the BDD of `f`, **including the
    /// constant node**, matching the paper's metric (`|ONE| = |ZERO| = 1`,
    /// `|x| = 2`).
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Edge, Var};
    /// let mut bdd = Bdd::new(2);
    /// assert_eq!(bdd.size(Edge::ONE), 1);
    /// let a = bdd.var(Var(0));
    /// let b = bdd.var(Var(1));
    /// assert_eq!(bdd.size(a), 2);
    /// let f = bdd.xor(a, b);
    /// // With complement edges, xor over 2 variables needs 2 decision
    /// // nodes plus the constant node.
    /// assert_eq!(bdd.size(f), 3);
    /// ```
    pub fn size(&self, f: Edge) -> usize {
        self.size_many(&[f])
    }

    /// Number of distinct nodes in the shared BDD of several functions,
    /// including the constant node (counted once).
    pub fn size_many(&self, fs: &[Edge]) -> usize {
        let mut seen = Bitmap::new(self.nodes.len());
        let mut count = 0;
        let mut stack: Vec<Edge> = fs.iter().map(|e| e.regular()).collect();
        while let Some(e) = stack.pop() {
            if !seen.insert(e.node().index()) {
                continue;
            }
            count += 1;
            if e.is_constant() {
                continue;
            }
            let n = self.node(e);
            stack.push(n.hi.regular());
            stack.push(n.lo.regular());
        }
        // The terminal is always reachable from any edge (possibly via
        // complement), so make sure it is counted exactly once.
        if !seen.get(NodeId::TERMINAL.index()) {
            count += 1;
        }
        count
    }

    /// The fraction of the full variable space `B^n` on which `f` is true,
    /// in `[0, 1]`.
    ///
    /// Because the fraction is taken over *all* declared variables, it is
    /// invariant under adding variables outside the support; the paper's
    /// `c_onset_size` percentage (onset over the space of the support union)
    /// equals `sat_fraction(c) * 100`.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Var};
    /// let mut bdd = Bdd::new(2);
    /// let a = bdd.var(Var(0));
    /// let b = bdd.var(Var(1));
    /// let f = bdd.and(a, b);
    /// assert_eq!(bdd.sat_fraction(f), 0.25);
    /// ```
    pub fn sat_fraction(&self, f: Edge) -> f64 {
        let mut memo: HashMap<NodeId, f64, FastBuild> = HashMap::default();
        let p = self.frac_rec(f.regular(), &mut memo);
        if f.is_complemented() {
            1.0 - p
        } else {
            p
        }
    }

    fn frac_rec(&self, e: Edge, memo: &mut HashMap<NodeId, f64, FastBuild>) -> f64 {
        debug_assert!(!e.is_complemented());
        if e.is_constant() {
            return 1.0;
        }
        if let Some(&p) = memo.get(&e.node()) {
            return p;
        }
        let n = self.node(e);
        let ph = self.frac_rec(n.hi.regular(), memo);
        let ph = if n.hi.is_complemented() { 1.0 - ph } else { ph };
        let pl = self.frac_rec(n.lo.regular(), memo);
        let pl = if n.lo.is_complemented() { 1.0 - pl } else { pl };
        let p = 0.5 * ph + 0.5 * pl;
        memo.insert(e.node(), p);
        p
    }

    /// Number of satisfying assignments over all `n` declared variables,
    /// as `f64`.
    ///
    /// A documented approximation: exact for counts below `~2^53`,
    /// mantissa-rounded above, and **saturating to `f64::INFINITY`**
    /// beyond `~2^1024`. It is computed in an exponent-carrying form
    /// that stays finite at any variable count, so — unlike the naive
    /// `fraction × 2^n` formula — small counts in huge spaces (e.g. the
    /// single assignment of a 1200-literal cube) come out exact instead
    /// of degenerating to `0 × inf = NaN`.
    pub fn sat_count(&self, f: Edge) -> f64 {
        self.sat_count_scaled(f).to_f64()
    }

    /// Number of satisfying assignments over all `n` declared variables
    /// in exponent-carrying form, finite at any variable count.
    fn sat_count_scaled(&self, f: Edge) -> SatCount {
        let mut memo: HashMap<NodeId, SatCount, FastBuild> = HashMap::default();
        let p = self.prob_rec(f.regular(), &mut memo);
        let p = if f.is_complemented() {
            p.one_minus()
        } else {
            p
        };
        if p.is_zero() {
            return SatCount::ZERO;
        }
        SatCount {
            mantissa: p.mantissa,
            exp2: p.exp2 + self.num_vars() as i64,
        }
    }

    /// Satisfaction probability of the **regular** function at `e`, in
    /// exponent-carrying form.
    fn prob_rec(&self, e: Edge, memo: &mut HashMap<NodeId, SatCount, FastBuild>) -> SatCount {
        debug_assert!(!e.is_complemented());
        if e.is_constant() {
            return SatCount::ONE;
        }
        if let Some(&p) = memo.get(&e.node()) {
            return p;
        }
        let n = self.node(e);
        let ph = self.prob_rec(n.hi.regular(), memo);
        let ph = if n.hi.is_complemented() {
            ph.one_minus()
        } else {
            ph
        };
        let pl = self.prob_rec(n.lo.regular(), memo);
        let pl = if n.lo.is_complemented() {
            pl.one_minus()
        } else {
            pl
        };
        let p = SatCount::half_sum(ph, pl);
        memo.insert(e.node(), p);
        p
    }

    /// The paper's `c_onset_size`: percentage of onset points of `f` in the
    /// space spanned by the union of the supports of the given functions
    /// (which equals the fraction over the full space, as points outside the
    /// support contribute proportionally).
    pub fn onset_percentage(&self, f: Edge) -> f64 {
        self.sat_fraction(f) * 100.0
    }

    /// Counts the nodes of `f` rooted at each level: `result[i]` is the
    /// number of nodes at position `i` of the **current variable order**
    /// (use [`Bdd::var_at_level`] to translate positions to identities);
    /// the constant node is not included.
    pub fn level_profile(&self, f: Edge) -> Vec<usize> {
        let mut profile = vec![0usize; self.num_vars()];
        let mut seen = Bitmap::new(self.nodes.len());
        let mut stack = vec![f.regular()];
        while let Some(e) = stack.pop() {
            if e.is_constant() || !seen.insert(e.node().index()) {
                continue;
            }
            let n = self.node(e);
            profile[n.var.index()] += 1;
            stack.push(n.hi.regular());
            stack.push(n.lo.regular());
        }
        profile
    }

    /// Number of nodes of `f` strictly **below** level `level`
    /// (the paper's `N_i(g)`), excluding the constant node.
    pub fn nodes_below_level(&self, f: Edge, level: Var) -> usize {
        let mut count = 0;
        let mut seen = Bitmap::new(self.nodes.len());
        let mut stack = vec![f.regular()];
        while let Some(e) = stack.pop() {
            if e.is_constant() || !seen.insert(e.node().index()) {
                continue;
            }
            let n = self.node(e);
            if n.var > level {
                count += 1;
            }
            stack.push(n.hi.regular());
            stack.push(n.lo.regular());
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_paper_convention() {
        let mut bdd = Bdd::new(3);
        assert_eq!(bdd.size(Edge::ONE), 1);
        assert_eq!(bdd.size(Edge::ZERO), 1);
        let a = bdd.var(Var(0));
        assert_eq!(bdd.size(a), 2);
        assert_eq!(bdd.size(bdd.not(a)), 2);
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let x = bdd.xor(a, b);
        let f = bdd.xor(x, c);
        // Parity over 3 vars with complement edges: 1 node per level + const.
        assert_eq!(bdd.size(f), 4);
    }

    #[test]
    fn size_many_shares() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let f = bdd.and(a, b);
        let g = bdd.or(a, b);
        let each = bdd.size(f) + bdd.size(g);
        let shared = bdd.size_many(&[f, g]);
        assert!(shared < each);
        assert_eq!(bdd.size_many(&[f, f]), bdd.size(f));
        assert_eq!(bdd.size_many(&[]), 1);
    }

    #[test]
    fn sat_fraction_basics() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        assert_eq!(bdd.sat_fraction(Edge::ONE), 1.0);
        assert_eq!(bdd.sat_fraction(Edge::ZERO), 0.0);
        assert_eq!(bdd.sat_fraction(a), 0.5);
        let ab = bdd.and(a, b);
        assert_eq!(bdd.sat_fraction(ab), 0.25);
        let aob = bdd.or(a, b);
        assert_eq!(bdd.sat_fraction(aob), 0.75);
        assert_eq!(bdd.sat_count(ab), 2.0); // 2 of 8 assignments
    }

    #[test]
    fn sat_count_survives_huge_variable_spaces() {
        // Regression: `fraction × 2^n` overflowed to `inf` at ≥1024
        // variables, and deep cubes degenerated to `0 × inf = NaN`.
        let mut bdd = Bdd::new(1200);
        let vars: Vec<Var> = (0..1200).map(Var).collect();
        let cube = bdd.cube_of_vars(&vars);
        // The full cube has exactly one satisfying assignment.
        assert_eq!(bdd.sat_count(cube), 1.0);
        let one = bdd.sat_count_scaled(cube);
        assert_eq!((one.mantissa, one.exp2), (1.0, 0));
        // A single variable is true on half the space: 2^1199 assignments.
        let a = bdd.var(Var(0));
        let half = bdd.sat_count_scaled(a);
        assert_eq!((half.mantissa, half.exp2), (1.0, 1199));
        // The f64 view saturates above ~2^1024 (documented), never NaN.
        assert!(bdd.sat_count(a).is_infinite());
        assert!(!bdd.sat_count(a).is_nan());
        // ¬cube has 2^1200 - 1 assignments, which is 2^1200 at f64
        // mantissa precision.
        let nc = bdd.not(cube);
        let big = bdd.sat_count_scaled(nc);
        assert_eq!((big.mantissa, big.exp2), (1.0, 1200));
        // Constants behave.
        assert!(bdd.sat_count_scaled(Edge::ZERO).is_zero());
        assert_eq!(bdd.sat_count(Edge::ZERO), 0.0);
        assert_eq!(bdd.sat_count_scaled(Edge::ONE).exp2, 1200);
    }

    #[test]
    fn sat_count_scaled_matches_f64_on_small_spaces() {
        let mut bdd = Bdd::new(6);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let ab = bdd.and(a, b);
        let f = bdd.xor(ab, c);
        for g in [a, ab, f, bdd.not(f), Edge::ONE, Edge::ZERO] {
            let scaled = bdd.sat_count_scaled(g).to_f64();
            let frac = bdd.sat_fraction(g) * 64.0;
            assert!((scaled - frac).abs() < 1e-9, "{scaled} vs {frac}");
        }
        assert_eq!(SatCount::ZERO.to_string(), "0");
        assert_eq!(bdd.sat_count_scaled(a).to_string(), "1*2^5");
    }

    #[test]
    fn sat_fraction_complement() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let f = bdd.and(a, b);
        let nf = bdd.not(f);
        assert!((bdd.sat_fraction(f) + bdd.sat_fraction(nf) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn onset_percentage_support_invariance() {
        // Adding unused variables must not change the percentage.
        let mut small = Bdd::new(2);
        let a = small.var(Var(0));
        let b = small.var(Var(1));
        let f_small = small.and(a, b);
        let mut big = Bdd::new(10);
        let a = big.var(Var(0));
        let b = big.var(Var(1));
        let f_big = big.and(a, b);
        assert_eq!(small.onset_percentage(f_small), big.onset_percentage(f_big));
    }

    #[test]
    fn level_profile_counts() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let bc = bdd.xor(b, c);
        let f = bdd.ite(a, bc, b);
        let profile = bdd.level_profile(f);
        assert_eq!(profile.len(), 3);
        assert_eq!(profile[0], 1);
        assert!(profile[1] >= 1);
        assert_eq!(profile.iter().sum::<usize>() + 1, bdd.size(f));
    }

    #[test]
    fn nodes_below_level_matches_profile() {
        let mut bdd = Bdd::new(4);
        let vars: Vec<Edge> = (0..4).map(|i| bdd.var(Var(i))).collect();
        let f = {
            let x01 = bdd.xor(vars[0], vars[1]);
            let x23 = bdd.and(vars[2], vars[3]);
            bdd.or(x01, x23)
        };
        let profile = bdd.level_profile(f);
        for lvl in 0..4u32 {
            let below: usize = profile[(lvl as usize + 1)..].iter().sum();
            assert_eq!(bdd.nodes_below_level(f, Var(lvl)), below);
        }
        assert_eq!(
            bdd.nodes_below_level(f, Var(3)),
            0,
            "nothing below the bottom level"
        );
    }
}
