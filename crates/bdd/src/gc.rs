//! Mark–sweep garbage collection with bitmap marking.
//!
//! The mark set is a dense `u64` bitmap parallel to the node vector (one
//! bit per slot) instead of a `HashSet<NodeId>`: marking is a shift and an
//! OR, and the sweep reads the bitmap sequentially. After the sweep the
//! unique table is rebuilt densely from the survivors, which both removes
//! the dead entries and repairs any probe-sequence damage accumulated
//! since the last collection.

use crate::edge::{Edge, NodeId};
use crate::manager::Bdd;
use crate::util::Bitmap;

impl Bdd {
    /// Reclaims every node not reachable from `roots` and scrubs the
    /// computed table and minimization memo of entries that referenced a
    /// reclaimed node. Returns the number of nodes reclaimed.
    ///
    /// Live edges keep their identity (node slots are stable); any edge not
    /// protected by a root becomes dangling and must not be used afterwards.
    /// Single-variable functions ([`Bdd::var`]) and explicitly pinned edges
    /// ([`Bdd::pin`]) are implicit roots and always survive. Cache entries
    /// whose operands and results all survived stay valid and are kept —
    /// only entries touching a freed slot are dropped, so repeated
    /// collections do not discard the reuse the caches have accumulated.
    /// For the paper's timing discipline of a full flush between
    /// heuristics, use [`Bdd::clear_caches`].
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Var};
    /// let mut bdd = Bdd::new(8);
    /// let vars: Vec<_> = (0..8).map(|i| bdd.var(Var(i))).collect();
    /// let keep = bdd.and(vars[0], vars[1]);
    /// let _scratch = bdd.xor(vars[4], vars[5]);
    /// let before = bdd.stats().live_nodes;
    /// let freed = bdd.collect_garbage(&[keep]);
    /// assert!(freed > 0);
    /// assert_eq!(bdd.stats().live_nodes, before - freed);
    /// ```
    pub fn collect_garbage(&mut self, roots: &[Edge]) -> usize {
        let mut marked = Bitmap::new(self.nodes.len());
        marked.set(NodeId::TERMINAL.index());
        let mut stack: Vec<NodeId> = roots.iter().map(|e| e.node()).collect();
        // Implicit roots: the pinned list and the single-variable
        // functions, which must stay valid across collections and
        // unique-table rebuilds.
        stack.extend(self.pinned.iter().map(|e| e.node()));
        stack.extend(self.var_roots.iter().flatten().map(|e| e.node()));
        while let Some(id) = stack.pop() {
            if !marked.insert(id.index()) {
                continue;
            }
            let n = self.nodes[id.index()];
            if !n.hi.is_constant() {
                stack.push(n.hi.node());
            }
            if !n.lo.is_constant() {
                stack.push(n.lo.node());
            }
        }
        let mut reclaimed = 0;
        for slot in 1..self.nodes.len() {
            if self.live[slot] && !marked.get(slot) {
                self.live[slot] = false;
                self.free.push(slot as u32);
                reclaimed += 1;
            }
        }
        // Rebuild the unique table densely from the survivors: dead keys
        // vanish and probe clusters reset to near-ideal length.
        let live = &self.live;
        self.unique.rebuild(
            &self.nodes,
            (1..self.nodes.len())
                .filter(|&s| live[s])
                .map(|s| NodeId(s as u32)),
        );
        // Every marked decision node (all marks except the terminal's) must
        // have landed in the rebuilt table exactly once.
        debug_assert_eq!(self.unique.len(), marked.count() - 1);
        // Scrub the caches rather than clearing them: live nodes keep
        // their slots, so entries over surviving nodes stay exact and the
        // reuse they encode carries across the collection. Any entry
        // touching a reclaimed slot dies here, before the slot can be
        // recycled for an unrelated node.
        self.cache.scrub_dead(&|slot| marked.get(slot));
        self.min_memo.scrub_dead(&|slot| marked.get(slot));
        self.gc_runs += 1;
        self.gc_reclaimed += reclaimed as u64;
        reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Var;

    #[test]
    fn gc_keeps_roots_and_their_cone() {
        let mut bdd = Bdd::new(6);
        let vars: Vec<Edge> = (0..6).map(|i| bdd.var(Var(i))).collect();
        let ab = bdd.and(vars[0], vars[1]);
        let keep = bdd.xor(ab, vars[2]);
        let keep_size = bdd.size(keep);
        let scratch = {
            let s1 = bdd.xor(vars[3], vars[4]);
            bdd.or(s1, vars[5])
        };
        let _ = scratch;
        bdd.collect_garbage(&[keep]);
        // keep must still be intact and correct.
        assert_eq!(bdd.size(keep), keep_size);
        assert!(bdd.eval(keep, &[true, true, false, false, false, false]));
        assert!(!bdd.eval(keep, &[true, true, true, false, false, false]));
    }

    #[test]
    fn gc_reclaims_dead_nodes_and_reuses_slots() {
        let mut bdd = Bdd::new(6);
        let vars: Vec<Edge> = (0..6).map(|i| bdd.var(Var(i))).collect();
        let dead = {
            let t = bdd.xor(vars[0], vars[3]);
            let u = bdd.xor(vars[1], vars[4]);
            bdd.and(t, u)
        };
        let _ = dead;
        let allocated_before = bdd.stats().allocated_nodes;
        let freed = bdd.collect_garbage(&[]);
        assert!(freed > 0);
        // Rebuilding allocates from the free list, not new slots.
        let t = bdd.xor(vars[0], vars[3]);
        let u = bdd.xor(vars[1], vars[4]);
        let _again = bdd.and(t, u);
        assert_eq!(bdd.stats().allocated_nodes, allocated_before);
    }

    #[test]
    fn gc_rebuild_is_canonical() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let f = bdd.and(a, b);
        bdd.collect_garbage(&[f]);
        // Recreating an identical function after GC yields the same edge.
        let f2 = bdd.and(a, b);
        assert_eq!(f, f2);
        // And a rebuilt derived function is canonical: a·b + a = a.
        let g = bdd.or(f, a);
        assert_eq!(g, a);
    }

    #[test]
    fn gc_rebuild_is_canonical_at_scale() {
        // Force unique-table growth, GC away most of it, rebuild, and
        // check edges stay canonical through the dense table rebuild.
        let mut bdd = Bdd::new(16);
        let vars: Vec<Edge> = (0..16).map(|i| bdd.var(Var(i))).collect();
        let mut keep = Edge::ZERO;
        for w in vars.chunks(2) {
            let t = bdd.and(w[0], w[1]);
            keep = bdd.or(keep, t);
        }
        // Scratch storm to bloat the table.
        let mut scratch = Edge::ONE;
        for i in 0..15 {
            let x = bdd.xor(vars[i], vars[i + 1]);
            scratch = bdd.ite(x, scratch, keep);
        }
        let _ = scratch;
        let keep_size = bdd.size(keep);
        let freed = bdd.collect_garbage(&[keep]);
        assert!(freed > 0);
        assert_eq!(bdd.size(keep), keep_size);
        // Identical reconstruction is pointer-equal (canonicity survived
        // the rebuild), and derived identities hold.
        let mut keep2 = Edge::ZERO;
        for w in vars.chunks(2) {
            let t = bdd.and(w[0], w[1]);
            keep2 = bdd.or(keep2, t);
        }
        assert_eq!(keep, keep2);
        let g = bdd.or(keep, keep);
        assert_eq!(g, keep);
    }

    #[test]
    fn gc_scrubs_dead_cache_entries_and_keeps_live_ones() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let f = bdd.and(a, b);
        let dead = {
            let c = bdd.var(Var(2));
            let d = bdd.var(Var(3));
            bdd.xor(c, d)
        };
        let _ = dead;
        assert!(bdd.stats().cache_entries > 0);
        bdd.collect_garbage(&[f]);
        assert_eq!(bdd.stats().gc_runs, 1);
        // The and-entry survived (operands and result all live): redoing
        // the operation is a pure cache hit.
        let hits_before = bdd.stats().cache_hits;
        assert_eq!(bdd.and(a, b), f);
        assert!(bdd.stats().cache_hits > hits_before);
        // The xor result was reclaimed, so its entry was scrubbed: redoing
        // it must miss (and rebuild the node from the free list).
        let misses_before = bdd.stats().cache_misses;
        let c = bdd.var(Var(2));
        let d = bdd.var(Var(3));
        let _again = bdd.xor(c, d);
        assert!(bdd.stats().cache_misses > misses_before);
    }

    #[test]
    fn var_functions_survive_gc() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(Var(0));
        bdd.collect_garbage(&[]);
        assert_eq!(bdd.var(Var(0)), a);
        // The pinned var root is usable, not just pointer-equal.
        let b = bdd.var(Var(1));
        let f = bdd.and(a, b);
        assert!(bdd.eval(f, &[true, true, false]));
    }

    #[test]
    fn pinned_edges_survive_gc() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let f = bdd.xor(a, b);
        let f_size = bdd.size(f);
        bdd.pin(f);
        bdd.collect_garbage(&[]);
        assert_eq!(bdd.size(f), f_size);
        assert!(bdd.eval(f, &[true, false, false, false]));
        // After unpinning, a GC with no roots may reclaim it.
        bdd.unpin(f);
        let freed = bdd.collect_garbage(&[]);
        assert!(freed > 0);
    }

    #[test]
    fn auto_gc_collects_scratch() {
        let mut bdd = Bdd::new(24);
        bdd.set_auto_gc(true);
        bdd.gc_threshold = 32; // force the trigger on a small workload
        let vars: Vec<Edge> = (0..24).map(|i| bdd.var(Var(i))).collect();
        let keep = bdd.and(vars[0], vars[1]);
        bdd.pin(keep);
        // Churn: single-op scratch per iteration (auto-GC semantics: any
        // unpinned edge may die between top-level operations).
        for round in 0..200 {
            let i = round % 20;
            let _ = bdd.xor(vars[i], vars[i + 3]);
        }
        assert!(bdd.stats().gc_runs > 0, "auto GC never fired");
        // Pinned and var edges survived and stay usable.
        let mut assign = [false; 24];
        (assign[0], assign[1]) = (true, true);
        assert!(bdd.eval(keep, &assign));
        assert_eq!(bdd.size(keep), 3);
        let again = bdd.and(vars[0], vars[1]);
        assert_eq!(again, keep);
    }

    #[test]
    fn auto_gc_defers_while_op_in_flight() {
        // A compound op (restrict calls or() internally) must not be torn
        // by an automatic collection firing mid-recursion: the final
        // result is protected, intermediate recursion results are not, so
        // the collection has to wait for depth zero.
        let mut bdd = Bdd::new(12);
        bdd.set_auto_gc(true);
        bdd.gc_threshold = 4; // absurdly low: every mk wants a GC
        let vars: Vec<Edge> = (0..12).map(|i| bdd.var(Var(i))).collect();
        let mut f = Edge::ZERO;
        let mut care = Edge::ONE;
        for w in vars.chunks(3) {
            let t = {
                let ab = bdd.and(w[0], w[1]);
                bdd.xor(ab, w[2])
            };
            f = bdd.or(f, t);
            let c = bdd.or(w[0], w[2]);
            care = bdd.and(care, c);
            // f/care survive only because each loop iteration re-derives
            // them as op results; pin them across iterations to be safe.
            bdd.pin(f);
            bdd.pin(care);
        }
        let g = bdd.restrict(f, care);
        // Cover property: f·care ≤ g ≤ f + ¬care.
        bdd.pin(g);
        let onset = bdd.and(f, care);
        assert!(bdd.implies_holds(onset, g));
        let upper = bdd.or(f, care.complement());
        assert!(bdd.implies_holds(g, upper));
        assert!(bdd.stats().gc_runs > 0);
    }
}
