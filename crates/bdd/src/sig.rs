//! Bit-parallel semantic signatures.
//!
//! A **signature** of a function is its truth value on 64 fixed
//! pseudo-random variable assignments, packed into one `u64` (lane `i` =
//! value on assignment `i`). Signatures are exact evaluations, so they
//! are homomorphic in every Boolean connective: `sig(¬f) = ¬sig(f)`,
//! `sig(f·g) = sig(f) & sig(g)`, and so on, lane by lane. That makes a
//! signature mismatch a *proof* of functional difference — the cheap
//! refutation half of the classic simulate-then-prove discipline — while
//! a signature match proves nothing and must be confirmed by an exact
//! BDD check.
//!
//! The evaluator computes all 64 lanes in one bottom-up pass per function
//! with a per-node memo, so a batch of `n` functions over a shared DAG
//! costs one traversal of their union, not `64·n` single evaluations.
//! Complement edges are a lane-wise NOT, for free.
//!
//! Assignments are derived from an in-tree xorshift64* stream seeded by a
//! fixed constant, so signatures are deterministic across runs and
//! machines, and — because lane masks are keyed by **variable identity**,
//! not level — a function's signature is invariant under variable
//! reordering. A live evaluator is **not** reusable across garbage
//! collections or reorders, though: the memo is keyed by node slot, and
//! both rebuild or rewrite slots. Use an evaluator transiently — build
//! it, take the signatures you need, drop it before any operation that
//! can allocate, collect, or reorder.
//!
//! The memo is sparse, in pages of 64 slots allocated on first touch: a
//! typical batch signs a handful of functions in a store of millions of
//! nodes, and a fresh evaluator must not pay 8 bytes for every slot of
//! the store. A long-lived evaluator that signs most of its store (the
//! service's cache) still costs about 8 bytes per slot, as a dense
//! table would; a hash map's entries cost several times that.

use crate::edge::{Edge, NodeId};
use crate::manager::Bdd;

/// Number of assignments evaluated in parallel (the lanes of a `u64`).
pub const SIG_LANES: usize = 64;

/// Default seed of the assignment stream. Any fixed value works; this one
/// is shared by every caller so signatures agree across subsystems.
pub const SIG_SEED: u64 = 0x5157_BDD5_16BA_7C94;

/// xorshift64* step (same generator family as `bddmin_core::rng`,
/// duplicated here because the kernel crate sits below it).
fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Node slots per memo page.
const PAGE: usize = 64;

/// Signatures of 64 consecutive node slots.
#[derive(Clone, Debug)]
struct Page {
    /// Bit `i` is set iff `sig[i]` is computed (0 is a legitimate
    /// signature).
    done: u64,
    sig: [u64; PAGE],
}

/// Batch evaluator producing 64-bit semantic signatures of edges.
///
/// # Example
///
/// ```
/// use bddmin_bdd::{Bdd, SigEvaluator, Var};
///
/// let mut bdd = Bdd::new(3);
/// let a = bdd.var(Var(0));
/// let b = bdd.var(Var(1));
/// let ab = bdd.and(a, b);
/// let mut ev = SigEvaluator::for_bdd(&bdd);
/// let (sa, sb, sab) = (
///     ev.signature(&bdd, a),
///     ev.signature(&bdd, b),
///     ev.signature(&bdd, ab),
/// );
/// assert_eq!(sab, sa & sb); // exact evaluation is homomorphic
/// assert_eq!(ev.signature(&bdd, ab.complement()), !sab);
/// ```
#[derive(Debug)]
pub struct SigEvaluator {
    /// `masks[v]` holds the value of `Var(v)` in each of the 64 lanes.
    masks: Vec<u64>,
    /// `page_of[slot / PAGE]` is one more than the index in `pages` of
    /// the page holding `slot`, or 0 while no slot of it is computed.
    page_of: Vec<u32>,
    /// Signatures of the *regular* edges to the node slots.
    pages: Vec<Page>,
}

impl SigEvaluator {
    /// Evaluator over `num_vars` variables with an explicit stream seed.
    pub fn new(num_vars: usize, seed: u64) -> SigEvaluator {
        // A zero state would freeze the xorshift stream; fold the seed
        // through a nonzero constant instead of special-casing callers.
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        if state == 0 {
            state = 0x9E37_79B9_7F4A_7C15;
        }
        let masks = (0..num_vars).map(|_| xorshift64star(&mut state)).collect();
        SigEvaluator {
            masks,
            page_of: Vec::new(),
            pages: Vec::new(),
        }
    }

    /// Evaluator sized to `bdd` with the shared default seed.
    pub fn for_bdd(bdd: &Bdd) -> SigEvaluator {
        SigEvaluator::new(bdd.num_vars(), SIG_SEED)
    }

    /// The lane assignments of `var` (bit `i` = value in assignment `i`).
    pub fn var_mask(&self, var: usize) -> u64 {
        self.masks[var]
    }

    /// The 64-lane signature of `f`. Memoized per node, so repeated and
    /// DAG-sharing calls are cheap. `bdd` must be the manager the edge
    /// came from, unchanged since this evaluator's previous calls.
    pub fn signature(&mut self, bdd: &Bdd, f: Edge) -> u64 {
        let s = self.node_signature(bdd, f.node());
        if f.is_complemented() {
            !s
        } else {
            s
        }
    }

    fn memo(&self, slot: usize) -> Option<u64> {
        let p = *self.page_of.get(slot / PAGE)? as usize;
        let page = self.pages.get(p.checked_sub(1)?)?;
        (page.done >> (slot % PAGE) & 1 == 1).then_some(page.sig[slot % PAGE])
    }

    fn record(&mut self, slot: usize, sig: u64) {
        let i = slot / PAGE;
        if i >= self.page_of.len() {
            self.page_of.resize(i + 1, 0);
        }
        if self.page_of[i] == 0 {
            self.pages.push(Page {
                done: 0,
                sig: [0; PAGE],
            });
            self.page_of[i] = self.pages.len() as u32;
        }
        let page = &mut self.pages[self.page_of[i] as usize - 1];
        page.done |= 1 << (slot % PAGE);
        page.sig[slot % PAGE] = sig;
    }

    /// Signature of the regular edge to `node`, via an explicit stack so
    /// arbitrarily deep diagrams cannot overflow the call stack.
    fn node_signature(&mut self, bdd: &Bdd, node: NodeId) -> u64 {
        let slot = node.index();
        if let Some(sig) = self.memo(slot) {
            return sig;
        }
        if node == NodeId::TERMINAL {
            self.record(slot, !0u64);
            return !0u64;
        }
        // Frames: (slot, children-visited?). Children are pushed first;
        // on the second visit both child signatures are memoized.
        let mut stack: Vec<(usize, bool)> = vec![(slot, false)];
        while let Some((cur, expanded)) = stack.pop() {
            if self.memo(cur).is_some() {
                continue;
            }
            let n = bdd.node(Edge::new(NodeId(cur as u32), false));
            if n.var.is_terminal() {
                self.record(cur, !0u64);
                continue;
            }
            let (hi_slot, lo_slot) = (n.hi.node().index(), n.lo.node().index());
            if !expanded {
                stack.push((cur, true));
                if self.memo(hi_slot).is_none() {
                    stack.push((hi_slot, false));
                }
                if self.memo(lo_slot).is_none() {
                    stack.push((lo_slot, false));
                }
                continue;
            }
            const CHILD: &str = "children are recorded before their parent";
            let hi = self.memo(hi_slot).expect(CHILD); // hi edges are always regular
            let lo_raw = self.memo(lo_slot).expect(CHILD);
            let lo = if n.lo.is_complemented() {
                !lo_raw
            } else {
                lo_raw
            };
            // `n.var` is a level; the lane masks are per variable identity,
            // so the same function signs identically under any order.
            let mask = self.masks[bdd.var_at_level(n.var).index()];
            self.record(cur, (mask & hi) | (!mask & lo));
        }
        self.memo(slot).expect("the root is recorded last")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Var;

    /// Evaluates `f` on one assignment the slow way.
    fn eval_point(bdd: &Bdd, f: Edge, assign: &dyn Fn(usize) -> bool) -> bool {
        let mut cur = f;
        loop {
            if cur.is_constant() {
                return cur.is_one();
            }
            let (hi, lo) = bdd.branches(cur);
            cur = if assign(bdd.var_of(cur).index()) {
                hi
            } else {
                lo
            };
        }
    }

    #[test]
    fn signatures_agree_with_pointwise_evaluation() {
        let mut bdd = Bdd::new(5);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let c = bdd.var(Var(2));
        let ab = bdd.and(a, b);
        let f = bdd.ite(c, ab, b.complement());
        let g = bdd.xor(f, a);
        let mut ev = SigEvaluator::for_bdd(&bdd);
        for e in [Edge::ONE, Edge::ZERO, a, b, c, ab, f, g, g.complement()] {
            let sig = ev.signature(&bdd, e);
            for lane in 0..SIG_LANES {
                let expected = eval_point(&bdd, e, &|v| ev.var_mask(v) >> lane & 1 == 1);
                assert_eq!(
                    sig >> lane & 1 == 1,
                    expected,
                    "lane {lane} of {e:?} disagrees with pointwise evaluation"
                );
            }
        }
    }

    #[test]
    fn signatures_are_homomorphic() {
        let mut bdd = Bdd::new(6);
        let xs: Vec<Edge> = (0..6).map(|i| bdd.var(Var(i))).collect();
        let f = bdd.and(xs[0], xs[3]);
        let g = bdd.or(xs[1], xs[5]);
        let fg_and = bdd.and(f, g);
        let fg_or = bdd.or(f, g);
        let fg_xor = bdd.xor(f, g);
        let mut ev = SigEvaluator::for_bdd(&bdd);
        let (sf, sg) = (ev.signature(&bdd, f), ev.signature(&bdd, g));
        assert_eq!(ev.signature(&bdd, fg_and), sf & sg);
        assert_eq!(ev.signature(&bdd, fg_or), sf | sg);
        assert_eq!(ev.signature(&bdd, fg_xor), sf ^ sg);
        assert_eq!(ev.signature(&bdd, f.complement()), !sf);
    }

    #[test]
    fn signatures_are_deterministic_across_evaluators() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(Var(0));
        let d = bdd.var(Var(3));
        let f = bdd.xor(a, d);
        let s1 = SigEvaluator::for_bdd(&bdd).signature(&bdd, f);
        let s2 = SigEvaluator::for_bdd(&bdd).signature(&bdd, f);
        assert_eq!(s1, s2);
        // A different seed gives (almost surely) different assignments.
        let s3 = SigEvaluator::new(4, SIG_SEED ^ 1).signature(&bdd, f);
        let _ = s3; // no equality claim either way — both are valid streams
    }

    #[test]
    fn constants_and_literals() {
        let mut bdd = Bdd::new(3);
        let b = bdd.var(Var(1));
        let mut ev = SigEvaluator::for_bdd(&bdd);
        assert_eq!(ev.signature(&bdd, Edge::ONE), !0u64);
        assert_eq!(ev.signature(&bdd, Edge::ZERO), 0u64);
        assert_eq!(ev.signature(&bdd, b), ev.var_mask(1));
        assert_eq!(ev.signature(&bdd, b.complement()), !ev.var_mask(1));
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        let n = 4000usize;
        let mut bdd = Bdd::new(n);
        let mut f = Edge::ONE;
        for i in (0..n).rev() {
            let v = bdd.var(Var(i as u32));
            f = bdd.and(v, f);
        }
        let mut ev = SigEvaluator::for_bdd(&bdd);
        let sig = ev.signature(&bdd, f);
        // The conjunction of all variables: lane i is 1 iff every mask has
        // bit i set — astronomically unlikely to be nonzero, but compute
        // the expected value exactly rather than assuming.
        let expected = (0..n).fold(!0u64, |acc, v| acc & ev.var_mask(v));
        assert_eq!(sig, expected);
    }
}
