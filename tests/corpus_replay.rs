//! Tier-1 replay of the committed regression corpus.
//!
//! Every file under `tests/corpus/` is a shrunk reproducer for a bug
//! that existed at some point (or a seed instance from the paper). The
//! replay parses each one — failing loudly on anything unparsable, so a
//! corrupted corpus cannot silently stop testing — and re-runs **every**
//! oracle on it with no mutant. A fixed bug must stay fixed;
//! this suite is what makes the corpus a permanent regression fence
//! rather than a pile of stale text files.
//!
//! Wired into `cargo test` via a `[[test]]` path entry in
//! `crates/verify/Cargo.toml`, the same pattern `crates/eval` uses for
//! the workspace-level suites.

use std::path::PathBuf;

use bddmin_verify::corpus;
use bddmin_verify::oracle::{check, Mutant, Oracle};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let dir = corpus_dir();
    let entries = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read corpus dir {}: {e}", dir.display()));
    let mut files: Vec<PathBuf> = entries
        .map(|entry| entry.expect("readable corpus dir entry").path())
        .filter(|path| path.is_file())
        .collect();
    files.sort();
    files
}

#[test]
fn corpus_is_present_and_parsable() {
    let files = corpus_files();
    assert!(
        !files.is_empty(),
        "tests/corpus/ is empty — the seed corpus must be committed"
    );
    for path in files {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        corpus::parse(&text)
            .unwrap_or_else(|e| panic!("unparsable corpus entry {}: {e}", path.display()));
    }
}

#[test]
fn every_corpus_entry_passes_every_oracle() {
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let entry = corpus::parse(&text)
            .unwrap_or_else(|e| panic!("unparsable corpus entry {}: {e}", path.display()));
        for oracle in Oracle::ALL {
            let verdict = check(oracle, &entry.instance, Mutant::None);
            assert!(
                !verdict.is_fail(),
                "regression resurrected: {} fails oracle {} (originally tripped {}): {:?}",
                path.display(),
                oracle,
                entry.oracle,
                verdict
            );
        }
    }
}
