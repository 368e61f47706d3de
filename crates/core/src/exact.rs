//! Exact EBM solving for small instances.
//!
//! The paper (Definition 3, Proposition 4) defines the exact BDD
//! minimization problem and shows membership in NP; its exact complexity
//! is open. For *small* instances an optimum can be found outright by
//! enumerating the cover interval: by the paper's observation that a
//! variable outside both supports is never beneficial, an optimal cover
//! exists over `support(f) ∪ support(c)`, so the candidate space is the
//! set of completions of the don't-care points of that subspace.
//!
//! This is exponential in the number of projected don't-care minterms and
//! only intended for validating the heuristics (tests, the `ablation`
//! binary) — exactly how we use it.

use bddmin_bdd::{Bdd, Cube, Edge, Var};

use crate::isf::Isf;

/// Result of an exact minimization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExactResult {
    /// An optimum cover.
    pub cover: Edge,
    /// Its size (the EBM optimum).
    pub size: usize,
    /// Number of candidate covers enumerated.
    pub candidates: usize,
}

/// Why the exact solver declined to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExactLimit {
    /// The union of supports exceeds `max_support_vars`.
    SupportTooLarge {
        /// Variables in the union of supports.
        support: usize,
    },
    /// More projected don't-care minterms than `max_dc_minterms`.
    TooManyDcPoints {
        /// Projected don't-care minterms.
        dc_points: usize,
    },
}

/// Bounds for [`exact_minimum`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExactConfig {
    /// Maximum size of `support(f) ∪ support(c)`.
    pub max_support_vars: usize,
    /// Maximum number of don't-care minterms in the projected space
    /// (the enumeration is `2^dc_points`).
    pub max_dc_minterms: usize,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            max_support_vars: 12,
            max_dc_minterms: 16,
        }
    }
}

/// Finds a minimum-size cover of `[f, c]` by exhaustive enumeration over
/// the don't-care completions, within the given limits.
///
/// # Errors
///
/// Returns the violated limit when the instance is too large.
///
/// # Panics
///
/// Panics if `isf.c` is the zero function.
///
/// # Example
///
/// ```
/// use bddmin_bdd::Bdd;
/// use bddmin_core::{exact_minimum, ExactConfig, Heuristic, Isf};
///
/// let mut bdd = Bdd::new(2);
/// let (f, c) = bdd.from_leaf_spec("d1 01").unwrap();
/// let isf = Isf::new(f, c);
/// let exact = exact_minimum(&mut bdd, isf, ExactConfig::default()).unwrap();
/// assert_eq!(exact.size, 2); // the paper's minimum for this instance
/// let heuristic = Heuristic::Constrain.minimize(&mut bdd, isf);
/// assert!(exact.size <= bdd.size(heuristic));
/// ```
pub fn exact_minimum(
    bdd: &mut Bdd,
    isf: Isf,
    config: ExactConfig,
) -> Result<ExactResult, ExactLimit> {
    assert!(
        !isf.c.is_zero(),
        "exact_minimum: care set must be non-empty"
    );
    let support = bdd.support_many(&[isf.f, isf.c]);
    if support.len() > config.max_support_vars {
        return Err(ExactLimit::SupportTooLarge {
            support: support.len(),
        });
    }
    // Enumerate the don't-care minterms of the projected space as cubes
    // over the support variables.
    let dc = isf.dc_set();
    let dc_cubes: Vec<Cube> = bdd.cubes(dc).collect();
    let dc_minterms: Vec<Vec<(Var, bool)>> = expand_to_minterms(&support, &dc_cubes);
    if dc_minterms.len() > config.max_dc_minterms {
        return Err(ExactLimit::TooManyDcPoints {
            dc_points: dc_minterms.len(),
        });
    }
    let onset = isf.onset(bdd);
    let minterm_fns: Vec<Edge> = dc_minterms
        .iter()
        .map(|lits| Cube::new(lits.clone()).to_edge(bdd))
        .collect();
    let k = minterm_fns.len();
    assert!(k < 64, "don't-care enumeration limit must be below 64");
    let mut best: Option<(usize, Edge)> = None;
    let mut candidates = 0usize;
    for mask in 0u64..(1u64 << k) {
        let mut g = onset;
        for (i, &m) in minterm_fns.iter().enumerate() {
            if mask >> i & 1 == 1 {
                g = bdd.or(g, m);
            }
        }
        candidates += 1;
        let size = bdd.size(g);
        if best.is_none_or(|(bs, _)| size < bs) {
            best = Some((size, g));
        }
    }
    let (size, cover) = best.expect("at least the onset candidate");
    debug_assert!(isf.is_cover(bdd, cover));
    Ok(ExactResult {
        cover,
        size,
        candidates,
    })
}

/// Expands a cube list into the full minterm list over `support` (cubes may
/// leave support variables free; variables outside the support are ignored
/// because the don't-care region is constant along them within the
/// projected space).
fn expand_to_minterms(support: &[Var], cubes: &[Cube]) -> Vec<Vec<(Var, bool)>> {
    let mut out: Vec<Vec<(Var, bool)>> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for cube in cubes {
        // Restrict the cube to the support variables.
        let fixed: Vec<(Var, bool)> = cube
            .literals()
            .iter()
            .copied()
            .filter(|(v, _)| support.contains(v))
            .collect();
        let free: Vec<Var> = support
            .iter()
            .copied()
            .filter(|v| !fixed.iter().any(|(fv, _)| fv == v))
            .collect();
        for bits in 0u64..(1u64 << free.len()) {
            let mut lits = fixed.clone();
            for (i, &v) in free.iter().enumerate() {
                lits.push((v, bits >> i & 1 == 1));
            }
            lits.sort();
            if seen.insert(lits.clone()) {
                out.push(lits);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::Heuristic;
    use crate::lower_bound::lower_bound;

    #[test]
    fn exact_matches_paper_examples() {
        // (instance, optimum size incl. constant node)
        let cases = [("d1 01", 2), ("d1 01 1d 01", 3), ("1d d1 d0 0d", 2)];
        for (spec, optimum) in cases {
            let mut bdd = Bdd::new(3);
            let (f, c) = bdd.from_leaf_spec(spec).unwrap();
            let isf = Isf::new(f, c);
            let exact = exact_minimum(&mut bdd, isf, ExactConfig::default()).unwrap();
            assert_eq!(exact.size, optimum, "{spec}");
            assert!(isf.is_cover(&mut bdd, exact.cover));
        }
    }

    #[test]
    fn exact_bounded_by_heuristics_and_lower_bound() {
        let specs = ["0d d1 10 01 11 d0 d1 00", "dd 01 11 d0", "01 0d 01 d1"];
        for spec in specs {
            let mut bdd = Bdd::new(4);
            let (f, c) = bdd.from_leaf_spec(spec).unwrap();
            let isf = Isf::new(f, c);
            let exact = exact_minimum(&mut bdd, isf, ExactConfig::default()).unwrap();
            let lb = lower_bound(&mut bdd, isf, 1000);
            assert!(lb.bound <= exact.size, "{spec}");
            for h in Heuristic::SIBLING {
                let g = h.minimize(&mut bdd, isf);
                assert!(exact.size <= bdd.size(g), "{h} beat exact on {spec}");
            }
        }
    }

    #[test]
    fn exact_on_total_function_is_f() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let f = bdd.xor(a, b);
        let isf = Isf::total(f);
        let exact = exact_minimum(&mut bdd, isf, ExactConfig::default()).unwrap();
        assert_eq!(exact.cover, f);
        assert_eq!(exact.candidates, 1);
    }

    #[test]
    fn limits_are_enforced() {
        let mut bdd = Bdd::new(16);
        // Huge support.
        let vars: Vec<Edge> = (0..16).map(|i| bdd.var(Var(i))).collect();
        let f = bdd.or_many(vars.iter().copied());
        let c = bdd.and_many(vars.iter().copied().take(8));
        let isf = Isf::new(f, c);
        let r = exact_minimum(
            &mut bdd,
            isf,
            ExactConfig {
                max_support_vars: 4,
                max_dc_minterms: 4,
            },
        );
        assert!(matches!(r, Err(ExactLimit::SupportTooLarge { .. })));
        // Too many DC points in a small support.
        let mut bdd = Bdd::new(5);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let cc = bdd.var(Var(2));
        let d = bdd.var(Var(3));
        let e = bdd.var(Var(4));
        let x1 = bdd.xor(a, b);
        let x2 = bdd.xor(cc, d);
        let f = bdd.xor(x1, x2);
        let f = bdd.xor(f, e);
        let small_care = bdd.and(a, b);
        let isf = Isf::new(f, small_care);
        let r = exact_minimum(
            &mut bdd,
            isf,
            ExactConfig {
                max_support_vars: 12,
                max_dc_minterms: 8,
            },
        );
        assert!(matches!(r, Err(ExactLimit::TooManyDcPoints { .. })));
    }

    #[test]
    fn exact_respects_support_projection() {
        // DC region constant along non-support variables: projecting is
        // sound, results stay covers.
        let mut bdd = Bdd::new(6);
        let b = bdd.var(Var(2));
        let c = bdd.var(Var(4));
        let f = bdd.and(b, c);
        let isf = Isf::new(f, b);
        let exact = exact_minimum(&mut bdd, isf, ExactConfig::default()).unwrap();
        assert!(isf.is_cover(&mut bdd, exact.cover));
        assert_eq!(exact.size, 2); // the function c
    }
}
