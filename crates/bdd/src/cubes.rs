//! Cube utilities: enumeration of the cubes of a function, cube construction
//! and recognition.
//!
//! The paper's lower-bound computation (Section 4.1.1) enumerates cubes of
//! the care function `c` "by traversing its BDD in a depth-first order,
//! returning a cube each time the constant 1 is reached", optionally
//! preferring *large* cubes (short paths). [`CubeIter`] implements exactly
//! this traversal; [`Bdd::shortest_cube`] finds a largest cube.

use crate::edge::{Edge, Var};
use crate::manager::Bdd;

/// A conjunction of literals, sorted by variable.
///
/// # Example
///
/// ```
/// use bddmin_bdd::{Bdd, Cube, Var};
/// let mut bdd = Bdd::new(3);
/// let cube = Cube::new(vec![(Var(0), true), (Var(2), false)]);
/// let edge = cube.to_edge(&mut bdd);
/// assert!(bdd.is_cube(edge));
/// assert_eq!(cube.len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cube {
    literals: Vec<(Var, bool)>,
}

impl Cube {
    /// Builds a cube from literals; sorts them and panics on contradictory
    /// duplicates.
    ///
    /// # Panics
    ///
    /// Panics if the same variable appears with both polarities.
    pub fn new(mut literals: Vec<(Var, bool)>) -> Cube {
        literals.sort();
        literals.dedup();
        for w in literals.windows(2) {
            assert!(
                w[0].0 != w[1].0,
                "contradictory literals on {} in cube",
                w[0].0
            );
        }
        Cube { literals }
    }

    /// The literals, sorted by variable.
    pub fn literals(&self) -> &[(Var, bool)] {
        &self.literals
    }

    /// Number of literals (0 = the universal cube, the constant 1).
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// True for the empty (universal) cube.
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// The characteristic function of this cube.
    pub fn to_edge(&self, bdd: &mut Bdd) -> Edge {
        // Literals are sorted by identity; mk wants levels built bottom-up
        // in the manager's *current* order, so re-sort by level first.
        let mut lits: Vec<(Var, bool)> = self
            .literals
            .iter()
            .map(|&(v, pos)| (bdd.level_of_var(v), pos))
            .collect();
        lits.sort();
        let mut e = Edge::ONE;
        for &(l, pos) in lits.iter().rev() {
            e = if pos {
                bdd.mk(l, e, Edge::ZERO)
            } else {
                bdd.mk(l, Edge::ZERO, e)
            };
        }
        e
    }
}

impl std::fmt::Display for Cube {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.literals.is_empty() {
            return write!(f, "1");
        }
        for (i, &(v, pos)) in self.literals.iter().enumerate() {
            if i > 0 {
                write!(f, "·")?;
            }
            if !pos {
                write!(f, "¬")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

/// One traversal state: the edge being explored and the path so far.
type CubeFrame = (Edge, Vec<(Var, bool)>);

/// Depth-first iterator over the cubes (1-paths) of a function.
///
/// Each yielded [`Cube`] lists the literals on one path from the root to the
/// constant 1; variables not on the path are free. The union of the yielded
/// cubes is exactly the onset.
///
/// Created by [`Bdd::cubes`].
#[derive(Debug)]
pub struct CubeIter<'a> {
    bdd: &'a Bdd,
    /// Stack of frames awaiting exploration.
    stack: Vec<CubeFrame>,
}

impl<'a> Iterator for CubeIter<'a> {
    type Item = Cube;

    fn next(&mut self) -> Option<Cube> {
        while let Some((e, path)) = self.stack.pop() {
            if e.is_one() {
                return Some(Cube::new(path));
            }
            if e.is_zero() {
                continue;
            }
            let (hi, lo) = self.bdd.branches(e);
            // Push low first so the high (then) branch is explored first,
            // matching a conventional depth-first order. Paths record
            // variable identities, not levels.
            let var = self.bdd.var_at_level(self.bdd.level(e));
            let mut lo_path = path.clone();
            lo_path.push((var, false));
            self.stack.push((lo, lo_path));
            let mut hi_path = path;
            hi_path.push((var, true));
            self.stack.push((hi, hi_path));
        }
        None
    }
}

impl Bdd {
    /// Iterates over the cubes of `f` in depth-first order.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Var};
    /// let mut bdd = Bdd::new(2);
    /// let (a, b) = (bdd.var(Var(0)), bdd.var(Var(1)));
    /// let f = bdd.or(a, b);
    /// let cubes: Vec<_> = bdd.cubes(f).collect();
    /// assert_eq!(cubes.len(), 2); // a  and  ¬a·b
    /// ```
    pub fn cubes(&self, f: Edge) -> CubeIter<'_> {
        CubeIter {
            bdd: self,
            stack: vec![(f, Vec::new())],
        }
    }

    /// True if `f` is a cube (a conjunction of literals); the constant 1 is
    /// the empty cube, the constant 0 is **not** a cube.
    pub fn is_cube(&self, f: Edge) -> bool {
        let mut e = f;
        loop {
            if e.is_one() {
                return true;
            }
            if e.is_zero() {
                return false;
            }
            let (hi, lo) = self.branches(e);
            e = if lo.is_zero() {
                hi
            } else if hi.is_zero() {
                lo
            } else {
                return false;
            };
        }
    }

    /// A largest cube of `f` (fewest literals), found as a shortest 1-path;
    /// `None` iff `f = 0`.
    ///
    /// Useful for the paper's "look for large cubes" lower-bound refinement.
    pub fn shortest_cube(&self, f: Edge) -> Option<Cube> {
        // Breadth-first over (edge, path) states; paths are short, so the
        // duplicated path storage is acceptable.
        use std::collections::VecDeque;
        let mut queue: VecDeque<CubeFrame> = VecDeque::new();
        let mut visited = std::collections::HashSet::new();
        queue.push_back((f, Vec::new()));
        while let Some((e, path)) = queue.pop_front() {
            if e.is_one() {
                return Some(Cube::new(path));
            }
            if e.is_zero() || !visited.insert(e) {
                continue;
            }
            let (hi, lo) = self.branches(e);
            let var = self.var_at_level(self.level(e));
            let mut hp = path.clone();
            hp.push((var, true));
            queue.push_back((hi, hp));
            let mut lp = path;
            lp.push((var, false));
            queue.push_back((lo, lp));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_round_trip() {
        let mut bdd = Bdd::new(4);
        let cube = Cube::new(vec![(Var(3), false), (Var(1), true)]);
        assert_eq!(cube.literals(), &[(Var(1), true), (Var(3), false)]);
        let e = cube.to_edge(&mut bdd);
        assert!(bdd.is_cube(e));
        let b = bdd.var(Var(1));
        let nd = bdd.literal(Var(3), false);
        assert_eq!(e, bdd.and(b, nd));
    }

    #[test]
    #[should_panic(expected = "contradictory")]
    fn contradictory_cube_panics() {
        Cube::new(vec![(Var(0), true), (Var(0), false)]);
    }

    #[test]
    fn cube_display() {
        let c = Cube::new(vec![(Var(0), true), (Var(2), false)]);
        assert_eq!(c.to_string(), "x1·¬x3");
        assert_eq!(Cube::default().to_string(), "1");
    }

    #[test]
    fn cubes_cover_onset_exactly() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let ab = bdd.and(a, b);
        let f = bdd.xor(ab, c);
        let cubes: Vec<Cube> = bdd.cubes(f).collect();
        assert!(!cubes.is_empty());
        let union = {
            let parts: Vec<Edge> = cubes.iter().map(|q| q.to_edge(&mut bdd)).collect();
            bdd.or_many(parts)
        };
        assert_eq!(union, f);
    }

    #[test]
    fn cubes_of_constants() {
        let bdd = Bdd::new(2);
        assert_eq!(bdd.cubes(Edge::ZERO).count(), 0);
        let ones: Vec<Cube> = bdd.cubes(Edge::ONE).collect();
        assert_eq!(ones, vec![Cube::default()]);
    }

    #[test]
    fn is_cube_detection() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        assert!(bdd.is_cube(Edge::ONE));
        assert!(!bdd.is_cube(Edge::ZERO));
        assert!(bdd.is_cube(a));
        assert!(bdd.is_cube(bdd.not(a)));
        let ab = bdd.and(a, b);
        assert!(bdd.is_cube(ab));
        let nb = bdd.not(b);
        let anb = bdd.and(a, nb);
        assert!(bdd.is_cube(anb));
        let aob = bdd.or(a, b);
        assert!(!bdd.is_cube(aob));
        let axb = bdd.xor(a, b);
        assert!(!bdd.is_cube(axb));
    }

    #[test]
    fn shortest_cube_finds_largest() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        // f = a + ¬a·b·c: shortest cube is `a` (1 literal).
        let bc = bdd.and(b, c);
        let f = bdd.or(a, bc);
        let best = bdd.shortest_cube(f).expect("onset non-empty");
        assert_eq!(best.len(), 1);
        assert!(bdd.shortest_cube(Edge::ZERO).is_none());
        assert_eq!(bdd.shortest_cube(Edge::ONE).map(|c| c.len()), Some(0));
    }

    #[test]
    fn cube_count_respects_limit_pattern() {
        // Mirror how the lower bound limits enumeration to the first k cubes.
        let mut bdd = Bdd::new(4);
        let vars: Vec<Edge> = (0..4).map(|i| bdd.var(Var(i))).collect();
        let x01 = bdd.xor(vars[0], vars[1]);
        let x23 = bdd.xor(vars[2], vars[3]);
        let f = bdd.or(x01, x23);
        let first_three: Vec<Cube> = bdd.cubes(f).take(3).collect();
        assert_eq!(first_three.len(), 3);
        for q in &first_three {
            let e = q.to_edge(&mut bdd);
            assert!(bdd.implies_holds(e, f), "enumerated cube inside onset");
        }
    }
}
