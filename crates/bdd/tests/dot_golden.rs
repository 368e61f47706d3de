//! Golden-file tests for the DOT (Graphviz) exporter.
//!
//! `to_dot` output is deterministic: node ids are allocation-ordered and the
//! traversal is an explicit stack, so the rendered text is a stable artifact
//! worth pinning. Each test builds a small shared BDD, renders it, and
//! compares byte-for-byte against a committed golden file in
//! `tests/golden/`. Set `UPDATE_GOLDEN=1` to regenerate the files after an
//! intentional format change.

use std::path::Path;

use bddmin_bdd::{Bdd, Var};

fn check_golden(name: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "DOT output for {name} drifted from the golden file; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

/// XOR forces complemented edges under complement normalization, and the
/// negated root exercises a complemented function edge. The golden file
/// pins the `odot` arrowheads on both.
#[test]
fn golden_complement_edges() {
    let mut bdd = Bdd::with_names(&["a", "b"]);
    let a = bdd.var(Var(0));
    let b = bdd.var(Var(1));
    let f = bdd.xor(a, b);
    let nf = bdd.not(f);
    let dot = bdd.to_dot(&[("f", f), ("nf", nf)]);
    assert!(dot.contains("odot"), "xor must render complement dots");
    check_golden("complement_edges.dot", &dot);
}

/// An or of literals over consecutive variables: one node per level.
#[test]
fn golden_or_of_literals() {
    let mut bdd = Bdd::with_names(&["a", "b", "c", "d", "e"]);
    let d = bdd.var(Var(3));
    let e = bdd.var(Var(4));
    let mut f = bdd.and(d, e);
    for i in (0..3).rev() {
        let v = bdd.var(Var(i));
        f = bdd.or(v, f);
    }
    let dot = bdd.to_dot(&[("f", f)]);
    check_golden("or_of_literals.dot", &dot);
}
