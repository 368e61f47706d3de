//! Differential verification harness for the BDD-minimization stack.
//!
//! This crate closes the loop between the paper's theorems and the
//! implementation in `bddmin-core`/`bddmin-bdd`: it generates random
//! incompletely specified functions `[f, c]`, runs the entire heuristic
//! registry on each, and checks nine independent oracles — cover
//! validity, Theorem 7 cube-optimality, Theorem 12 level safety, the
//! `lower_bound ≤ exact ≤ heuristic` sandwich, Table 2 agreement with
//! the classic constrain/restrict operators, invariance under
//! GC/cache-flush injection, graceful degradation under resource
//! budgets, reorder invariance, and agreement of the monolithic and
//! range image methods. Failures are shrunk to
//! minimal reproducers in the paper's `(d1 01)` leaf notation and
//! appended to the committed corpus under `tests/corpus/`, which tier-1
//! replays forever.
//!
//! Everything is offline and hermetic: the only randomness source is
//! the in-tree xorshift generator, so every instance — and therefore
//! every failure — is pinned by a `(seed, round)` pair.
//!
//! Layout:
//!
//! * [`gen`] — instance representation and the sweep generator,
//! * [`oracle`] — the nine oracles plus the mutation harness that
//!   proves they fire,
//! * [`shrink`] — greedy, deterministic failure minimization,
//! * [`corpus`] — reproducer serialization and strict parsing,
//! * [`runner`] — the fuzz loop and its JSON stats report.

#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod runner;
pub mod sched;
pub mod shrink;
pub mod structured;
pub mod surface;

pub use corpus::{parse as parse_corpus, serialize as serialize_corpus, CorpusEntry};
pub use gen::{random_instance, ChaosPlan, Instance};
pub use oracle::{check, Mutant, Oracle, Verdict};
pub use runner::{run_fuzz, Failure, FuzzConfig, FuzzReport};
pub use shrink::{instance_size, shrink, ShrinkOutcome};
