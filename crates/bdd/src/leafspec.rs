//! Parser for the paper's leaf-specification notation.
//!
//! Section 3.2 of the paper specifies incompletely specified functions by
//! listing "the values of the function on the leaves of the binary decision
//! tree … from left to right", with `d` marking don't-care leaves, e.g.
//! `(d1 01)` over two variables or `(1d d1 d0 0d)` over three. The left
//! branch is 0, the right branch is 1 (paper Figure 1f caption), so the
//! leftmost leaf is the all-zero assignment.

use std::fmt;

use crate::edge::Edge;
use crate::manager::Bdd;
use crate::table::ToBdd;

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
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LeafSpec {
    /// The values as a packed truth table over levels `0..num_vars`
    /// (`crate::table`): bit `m` is leaf `m`, don't cares completed to 1.
    value: Vec<u64>,
    /// The care set in the same layout: bit `m` is set iff leaf `m` is
    /// specified.
    care: Vec<u64>,
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
        let (mut value, mut care) = (Vec::new(), Vec::new());
        let mut len = 0usize;
        for (at, byte) in input.bytes().enumerate() {
            let (v, c) = match byte {
                b'0' => (0, 1),
                b'1' => (1, 1),
                b'd' | b'D' | b'-' => (1, 0),
                b' ' | b'\t' | b'\n' | b',' | b'(' | b')' => continue,
                _ => {
                    // Every byte before `at` was ASCII, so `at` starts a
                    // character.
                    let other = input[at..].chars().next().expect("at < input.len()");
                    return Err(ParseLeafSpecError {
                        message: format!("unexpected character '{other}' in leaf spec"),
                    });
                }
            };
            if len.is_multiple_of(64) {
                value.push(0);
                care.push(0);
            }
            value[len / 64] |= v << (len % 64);
            care[len / 64] |= c << (len % 64);
            len += 1;
        }
        if len == 0 {
            return Err(ParseLeafSpecError {
                message: "empty leaf spec".to_owned(),
            });
        }
        if !len.is_power_of_two() {
            return Err(ParseLeafSpecError {
                message: format!("leaf count {len} is not a power of two"),
            });
        }
        // A table of fewer than 64 leaves fills its word by repetition.
        let mut width = len;
        while width < 64 {
            value[0] |= value[0] << width;
            care[0] |= care[0] << width;
            width *= 2;
        }
        let num_vars = len.trailing_zeros() as usize;
        Ok(LeafSpec {
            value,
            care,
            num_vars,
        })
    }

    /// Number of variables (log2 of the leaf count).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The leaves, leftmost (all-variables-zero) first: `Some(v)` for a
    /// specified value, `None` for a don't care.
    pub fn leaves(&self) -> Vec<Option<bool>> {
        (0..1usize << self.num_vars)
            .map(|m| {
                let bit = |words: &[u64]| words[m / 64] >> (m % 64) & 1 == 1;
                bit(&self.care).then(|| bit(&self.value))
            })
            .collect()
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
        // The tables are walked low half first, skipping what the
        // per-leaf Shannon recursion would rebuild without a new node, so
        // the nodes (and with them every later step-limited result) are
        // that recursion's.
        let mut to_bdd = ToBdd::new(self.num_vars as u32);
        let f = to_bdd.build(bdd, &self.value, 0);
        let c = to_bdd.build(bdd, &self.care, 0);
        (f, c)
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
    use crate::edge::Var;
    use crate::util::mix64;

    /// The per-leaf Shannon recursion `LeafSpec::build` replaced: one
    /// `mk` per node of the full decision tree, low subtree first. Kept
    /// to pin the nodes the packed build creates and their order.
    fn per_leaf(bdd: &mut Bdd, leaves: &[Option<bool>], depth: u32, value_of_f: bool) -> Edge {
        if let [leaf] = *leaves {
            return bdd.constant(if value_of_f {
                leaf.unwrap_or(true)
            } else {
                leaf.is_some()
            });
        }
        let (lo, hi) = leaves.split_at(leaves.len() / 2);
        let lo = per_leaf(bdd, lo, depth + 1, value_of_f);
        let hi = per_leaf(bdd, hi, depth + 1, value_of_f);
        bdd.mk(Var(depth), hi, lo)
    }

    /// A seeded spec of `n` variables: random leaves with a seed-dependent
    /// don't-care share, some made independent of a random subset of the
    /// variables so that tables repeat and have equal halves.
    fn seeded_spec(n: u32, seed: u64) -> String {
        let word = |m: u64, salt: u64| mix64(seed << 40 ^ salt << 32 ^ m);
        let mask = if seed % 2 == 1 { word(0, 3) } else { !0 };
        (0..1u64 << n)
            .map(|m| {
                let r = word(m & mask, 1);
                match r % 8 {
                    x if x < seed % 6 => 'd',
                    _ if r >> 32 & 1 == 1 => '1',
                    _ => '0',
                }
            })
            .collect()
    }

    #[test]
    fn packed_build_creates_the_per_leaf_nodes() {
        let mut shared_packed = Bdd::new(16);
        let mut shared_leaf = Bdd::new(16);
        for n in 1..=16u32 {
            for seed in 0..if n <= 12 { 6 } else { 2 } {
                let spec = LeafSpec::parse(&seeded_spec(n, seed)).unwrap();
                let leaves = spec.leaves();
                let mut fresh_packed = Bdd::new(n as usize);
                let mut fresh_leaf = Bdd::new(n as usize);
                for (packed, leaf) in [
                    (&mut fresh_packed, &mut fresh_leaf),
                    (&mut shared_packed, &mut shared_leaf),
                ] {
                    let got = spec.build(packed);
                    let want = (
                        per_leaf(leaf, &leaves, 0, true),
                        per_leaf(leaf, &leaves, 0, false),
                    );
                    assert_eq!(got, want, "n {n} seed {seed}");
                    // The same nodes in the same slots: the same order.
                    assert_eq!(packed.nodes, leaf.nodes, "n {n} seed {seed}");
                }
            }
        }
    }

    /// Another spelling of `leaves` (a string of `0`, `1` and `d`) that
    /// parses to the same table: `d`, `D` or `-` for a don't care, and
    /// spaces, commas and parentheses between the leaves.
    fn respell(leaves: &str, seed: u64) -> String {
        let mut out = String::new();
        for (i, leaf) in leaves.chars().enumerate() {
            let r = mix64(seed << 32 ^ i as u64);
            if let Some(sep) = [" ", ",", "(", ")", ", "].get(r as usize % 8) {
                out.push_str(sep);
            }
            out.push(match (leaf, r >> 8 & 3) {
                ('d', 0) => '-',
                ('d', 1) => 'D',
                (leaf, _) => leaf,
            });
        }
        out
    }

    #[test]
    fn specs_are_equal_exactly_when_their_functions_are() {
        use std::hash::{BuildHasher, RandomState};
        let hasher = RandomState::new();
        let mut bdd = Bdd::new(16);
        // Each entry: the parsed spec and its `(f, c)` in the one manager.
        let mut pool: Vec<(LeafSpec, (Edge, Edge))> = Vec::new();
        for seed in 0..72u64 {
            let n = seed % 9;
            let leaves: String = (0..1u64 << n)
                .map(|m| ['0', '1', 'd'][(mix64(seed << 40 ^ m) % 3) as usize])
                .collect();
            let spec = LeafSpec::parse(&leaves).unwrap();
            // The doubled table ignores a new first variable: the words of
            // a short table stay the same, but the width grows by one.
            let doubled = LeafSpec::parse(&leaves.repeat(2)).unwrap();
            assert_eq!(doubled.num_vars(), spec.num_vars() + 1);
            assert_ne!(doubled, spec, "{leaves}");
            for text in [respell(&leaves, seed), respell(&leaves, !seed)] {
                let respelled = LeafSpec::parse(&text).unwrap();
                assert_eq!(respelled, spec, "{text:?} vs {leaves}");
                assert_eq!(hasher.hash_one(&respelled), hasher.hash_one(&spec));
            }
            for spec in [spec, doubled] {
                let built = spec.build(&mut bdd);
                pool.push((spec, built));
            }
        }
        let mut equal_pairs = 0;
        for (i, (a, built_a)) in pool.iter().enumerate() {
            for (b, built_b) in &pool[..i] {
                let same_function = a.num_vars() == b.num_vars() && built_a == built_b;
                assert_eq!(a == b, same_function, "{a:?} vs {b:?}");
                equal_pairs += usize::from(same_function);
            }
        }
        // The narrow widths draw from few tables, so both sides occur.
        assert!(equal_pairs > 0);
        let (one, two) = (
            LeafSpec::parse("01").unwrap(),
            LeafSpec::parse("0101").unwrap(),
        );
        assert_eq!(
            (one.value.clone(), one.care.clone()),
            (two.value.clone(), two.care.clone())
        );
        assert_ne!(one, two);
    }

    #[test]
    fn leaves_round_trip() {
        for n in 0..=8u32 {
            for seed in 0..4 {
                let text = if n == 0 {
                    ["0", "1", "d", "1"][seed as usize].to_owned()
                } else {
                    seeded_spec(n, seed)
                };
                let spec = LeafSpec::parse(&text).unwrap();
                let rendered: String = spec
                    .leaves()
                    .iter()
                    .map(|l| match l {
                        None => 'd',
                        Some(true) => '1',
                        Some(false) => '0',
                    })
                    .collect();
                assert_eq!(rendered, text);
            }
        }
    }

    #[test]
    fn parse_shapes() {
        let s = LeafSpec::parse("(d1 01)").unwrap();
        assert_eq!(s.num_vars(), 2);
        assert_eq!(s.leaves(), &[None, Some(true), Some(false), Some(true)]);
        let s3 = LeafSpec::parse("1d d1 d0 0d").unwrap();
        assert_eq!(s3.num_vars(), 3);
        assert!(LeafSpec::parse("01x").is_err());
        assert_eq!(
            LeafSpec::parse("01é").unwrap_err().to_string(),
            "unexpected character 'é' in leaf spec"
        );
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
    fn one_var_specs() {
        let mut bdd = Bdd::new(1);
        let (f, c) = bdd.from_leaf_spec("01").unwrap();
        assert_eq!(f, bdd.var(Var(0)));
        assert!(c.is_one());
        let (_, c) = bdd.from_leaf_spec("dd").unwrap();
        assert!(c.is_zero());
    }
}
