//! # bddmin-perfbench
//!
//! One benchmark for the three ways the repository is used: the paper's
//! experiment (`paper_table3`), product-machine equivalence as `bddmin
//! verify` runs it (`equiv_check`), and the JSON-lines service under a
//! batch client (`serve_burst`) and under independent clients arriving on
//! a schedule (`serve_open`). See `perfbench/README.md` for why each
//! workload exists, the metrics, and how to run, trace and compare.
//!
//! * [`run`] — set-up timing, the measured loop, the traced loop;
//! * [`table3`], [`equiv`], [`serve`] — the workloads and their
//!   references;
//! * [`explicit`] — the BDD-free equivalence checker `equiv_check` is
//!   judged against;
//! * [`trace`] — spans and kernel counters for the per-layer run;
//! * [`compare`] — the parent-versus-change verdicts;
//! * [`config`], [`stats`] — `BENCHMARK.json`, the workload sizes, and
//!   order statistics.

pub mod compare;
pub mod config;
pub mod equiv;
pub mod explicit;
pub mod run;
pub mod serve;
pub mod stats;
pub mod table3;
pub mod trace;
