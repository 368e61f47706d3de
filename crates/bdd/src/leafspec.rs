//! Parser for the paper's leaf-specification notation.
//!
//! Section 3.2 of the paper specifies incompletely specified functions by
//! listing "the values of the function on the leaves of the binary decision
//! tree … from left to right", with `d` marking don't-care leaves, e.g.
//! `(d1 01)` over two variables or `(1d d1 d0 0d)` over three. The left
//! branch is 0, the right branch is 1 (paper Figure 1f caption), so the
//! leftmost leaf is the all-zero assignment.

use std::fmt;

use crate::edge::{Edge, Var};
use crate::manager::Bdd;

/// A parsed leaf specification: an incompletely specified function as
/// `(f, c)` where `c` is the care function.
///
/// # Example
///
/// ```
/// use bddmin_bdd::{Bdd, LeafSpec};
/// # fn main() -> Result<(), bddmin_bdd::ParseLeafSpecError> {
/// let mut bdd = Bdd::new(2);
/// // Paper §3.2 example 1: the instance (d1 01).
/// let spec = LeafSpec::parse("d1 01")?;
/// assert_eq!(spec.num_vars(), 2);
/// let (f, c) = spec.build(&mut bdd);
/// assert_eq!(bdd.sat_fraction(c), 0.75); // one of four leaves is DC
/// # let _ = f;
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LeafSpec {
    /// One entry per leaf, left to right: `Some(v)` = specified value,
    /// `None` = don't care.
    leaves: Vec<Option<bool>>,
    num_vars: usize,
}

/// Error from [`LeafSpec::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseLeafSpecError {
    message: String,
}

impl fmt::Display for ParseLeafSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ParseLeafSpecError {}

impl LeafSpec {
    /// Parses a string of `0`, `1` and `d` characters (whitespace, commas
    /// and parentheses ignored) whose length must be a power of two.
    ///
    /// # Errors
    ///
    /// Returns an error on foreign characters, an empty string or a
    /// non-power-of-two length.
    pub fn parse(input: &str) -> Result<LeafSpec, ParseLeafSpecError> {
        let mut leaves = Vec::new();
        for ch in input.chars() {
            match ch {
                '0' => leaves.push(Some(false)),
                '1' => leaves.push(Some(true)),
                'd' | 'D' | '-' => leaves.push(None),
                ' ' | '\t' | '\n' | ',' | '(' | ')' => {}
                other => {
                    return Err(ParseLeafSpecError {
                        message: format!("unexpected character '{other}' in leaf spec"),
                    })
                }
            }
        }
        if leaves.is_empty() {
            return Err(ParseLeafSpecError {
                message: "empty leaf spec".to_owned(),
            });
        }
        if !leaves.len().is_power_of_two() {
            return Err(ParseLeafSpecError {
                message: format!("leaf count {} is not a power of two", leaves.len()),
            });
        }
        let num_vars = leaves.len().trailing_zeros() as usize;
        Ok(LeafSpec { leaves, num_vars })
    }

    /// Number of variables (log2 of the leaf count).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The leaves, leftmost (all-variables-zero) first.
    pub fn leaves(&self) -> &[Option<bool>] {
        &self.leaves
    }

    /// Builds `(f, c)` over variables `Var(0) … Var(num_vars-1)` of `bdd`.
    ///
    /// `f` is an arbitrary completion of the don't cares (we use 1, which is
    /// immaterial: all consumers immediately pair `f` with `c`). `c` is true
    /// exactly on the specified leaves.
    ///
    /// # Panics
    ///
    /// Panics if the manager declares fewer variables than the spec needs.
    pub fn build(&self, bdd: &mut Bdd) -> (Edge, Edge) {
        assert!(
            bdd.num_vars() >= self.num_vars,
            "manager has {} vars, spec needs {}",
            bdd.num_vars(),
            self.num_vars
        );
        let f = self.build_rec(bdd, 0, 0, true);
        let c = self.build_rec(bdd, 0, 0, false);
        (f, c)
    }

    /// Builds a completely specified function from a spec with no `d`s.
    ///
    /// # Panics
    ///
    /// Panics if the spec contains don't cares or the manager is too small.
    pub fn build_function(&self, bdd: &mut Bdd) -> Edge {
        assert!(
            self.leaves.iter().all(Option::is_some),
            "spec contains don't cares; use build()"
        );
        let (f, _) = self.build(bdd);
        f
    }

    fn build_rec(&self, bdd: &mut Bdd, depth: usize, offset: usize, value_of_f: bool) -> Edge {
        if depth == self.num_vars {
            let leaf = self.leaves[offset];
            let bit = if value_of_f {
                // f: don't cares completed to 1 (arbitrary).
                leaf.unwrap_or(true)
            } else {
                // c: true iff specified.
                leaf.is_some()
            };
            return bdd.constant(bit);
        }
        let half = 1usize << (self.num_vars - depth - 1);
        // Left half is var = 0 (else branch), right half var = 1 (then).
        let lo = self.build_rec(bdd, depth + 1, offset, value_of_f);
        let hi = self.build_rec(bdd, depth + 1, offset + half, value_of_f);
        bdd.mk(Var(depth as u32), hi, lo)
    }
}

impl Bdd {
    /// Convenience wrapper: parse a leaf spec and build `(f, c)`.
    ///
    /// # Errors
    ///
    /// Returns [`ParseLeafSpecError`] on malformed specs.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::Bdd;
    /// # fn main() -> Result<(), bddmin_bdd::ParseLeafSpecError> {
    /// let mut bdd = Bdd::new(3);
    /// let (_f, c) = bdd.from_leaf_spec("1d d1 d0 0d")?;
    /// assert_eq!(bdd.sat_fraction(c), 0.5);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_leaf_spec(&mut self, input: &str) -> Result<(Edge, Edge), ParseLeafSpecError> {
        let spec = LeafSpec::parse(input)?;
        Ok(spec.build(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_shapes() {
        let s = LeafSpec::parse("(d1 01)").unwrap();
        assert_eq!(s.num_vars(), 2);
        assert_eq!(s.leaves(), &[None, Some(true), Some(false), Some(true)]);
        let s3 = LeafSpec::parse("1d d1 d0 0d").unwrap();
        assert_eq!(s3.num_vars(), 3);
        assert!(LeafSpec::parse("01x").is_err());
        assert!(LeafSpec::parse("011").is_err());
        assert!(LeafSpec::parse("").is_err());
    }

    #[test]
    fn leftmost_leaf_is_all_zero() {
        let mut bdd = Bdd::new(2);
        // Only the all-zero leaf is 1.
        let (f, c) = bdd.from_leaf_spec("1000").unwrap();
        assert!(c.is_one());
        assert!(bdd.eval(f, &[false, false]));
        assert!(!bdd.eval(f, &[false, true]));
        assert!(!bdd.eval(f, &[true, false]));
        assert!(!bdd.eval(f, &[true, true]));
    }

    #[test]
    fn second_variable_is_fastest() {
        let mut bdd = Bdd::new(2);
        // Leaves: 00 -> 0, 01 -> 1, 10 -> 0, 11 -> 1 == function x2.
        let (f, c) = bdd.from_leaf_spec("0101").unwrap();
        assert!(c.is_one());
        let x2 = bdd.var(Var(1));
        assert_eq!(f, x2);
    }

    #[test]
    fn care_function_marks_specified_leaves() {
        let mut bdd = Bdd::new(2);
        let (_, c) = bdd.from_leaf_spec("d1 01").unwrap();
        assert!(!bdd.eval(c, &[false, false])); // leftmost leaf is d
        assert!(bdd.eval(c, &[false, true]));
        assert!(bdd.eval(c, &[true, false]));
        assert!(bdd.eval(c, &[true, true]));
    }

    #[test]
    fn figure_1_instance() {
        // Fig. 1c annotates the decision tree of f over 3 variables; the
        // paper's f (1a) and c (1b) combine to a tree with two DC leaves.
        // We reconstruct a 3-var instance and sanity-check counts.
        let mut bdd = Bdd::new(3);
        let (f, c) = bdd.from_leaf_spec("01 0d 01 d1").unwrap();
        assert_eq!(bdd.sat_fraction(c), 0.75);
        let onset = bdd.and(f, c);
        assert!(bdd.sat_fraction(onset) > 0.0);
    }

    #[test]
    fn build_function_rejects_dc() {
        let mut bdd = Bdd::new(2);
        let s = LeafSpec::parse("0101").unwrap();
        let f = s.build_function(&mut bdd);
        assert_eq!(f, bdd.var(Var(1)));
        let sd = LeafSpec::parse("d101").unwrap();
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sd.build_function(&mut bdd)));
        assert!(r.is_err());
    }

    #[test]
    fn one_var_specs() {
        let mut bdd = Bdd::new(1);
        let (f, c) = bdd.from_leaf_spec("01").unwrap();
        assert_eq!(f, bdd.var(Var(0)));
        assert!(c.is_one());
        let (_, c) = bdd.from_leaf_spec("dd").unwrap();
        assert!(c.is_zero());
    }
}
