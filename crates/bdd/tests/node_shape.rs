//! The node layout and the memory accounting built on it.

use bddmin_bdd::{Bdd, Edge, Node, Var};

#[test]
fn node_is_three_words() {
    // `var`, `hi` and `lo`, four bytes each; the estimate adds the
    // liveness flag and one unique-table slot word.
    assert_eq!(std::mem::size_of::<Node>(), 12);
    assert_eq!(Bdd::BYTES_PER_NODE, 17);
}

#[test]
fn peak_live_nodes_tracks_high_water_mark() {
    let n = 12;
    let mut bdd = Bdd::new(n);
    let mut f = Edge::ZERO;
    for i in (0..n as u32).rev() {
        let v = bdd.var(Var(i));
        f = bdd.or(v, f);
    }
    let peak_at_top = bdd.stats().peak_live_nodes;
    assert!(peak_at_top >= bdd.stats().live_nodes);
    bdd.collect_garbage(&[f]);
    // Collection shrinks the live count, never the peak.
    assert!(bdd.stats().peak_live_nodes >= peak_at_top);
    assert!(bdd.stats().peak_bytes >= peak_at_top * bdd.stats().bytes_per_node);
}
