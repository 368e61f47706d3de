//! # bddmin-serve
//!
//! A sharded, budget-governed minimization service over the paper's
//! heuristics: the "millions of users" composition of the per-instance
//! procedures from *Shiple et al., "Heuristic Minimization of BDDs Using
//! Don't Cares", DAC 1994*.
//!
//! The `bddmin-serve` binary reads one JSON job per stdin line (an ISF
//! leaf-spec or a BLIF network, a heuristic filter, optional step/node/
//! time budgets), dispatches each to the least-loaded of N worker threads
//! each owning its own `Bdd` managers, runs every request under the
//! degradation ladder (a blown budget degrades to a reported
//! [`bddmin_core::MinReport`], it never fails the stream), and answers
//! one JSON result line per job in input order, as soon as that result
//! and every earlier one are ready. Results are content-addressed in a
//! cross-request cache keyed by the 64-lane semantic signature with
//! exact-ISF confirmation on every hit.
//!
//! The request path is panic-free by construction (checked
//! `try_transfer`, the budget `try_*` ladder) and panic-contained by
//! policy (`catch_unwind` per job): a malicious job produces a
//! structured error line, never a dead worker. See `DESIGN.md` §14 for
//! the protocol grammar and the determinism contract.
//!
//! ```text
//! $ bddmin-job --demo 3 | bddmin-serve --shards 4
//! {"index":0,"id":"job0","status":"ok","cache":"miss","kind":"spec",...}
//! {"index":1,"id":"job1","status":"ok","cache":"miss","kind":"spec",...}
//! {"index":2,"status":"error","cache":"bypass","error":"malformed job: ..."}
//! ```

pub mod engine;
pub mod protocol;

/// The workspace's JSON reader/writer, re-exported under its historical
/// path so protocol clients keep importing `bddmin_serve::json`.
pub use bddmin_core::json;

pub use engine::{
    demo_stream, process_job, process_stream, CacheDecision, CacheKey, ServeOpts, ServeSummary,
    SigCache,
};
pub use protocol::{parse_job, render_result, CacheLabel, Job, JobKind, SERVE_MAX_VARS};
