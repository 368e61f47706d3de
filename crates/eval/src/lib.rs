//! # bddmin-eval
//!
//! Experiment harness regenerating the evaluation section of *Shiple et
//! al., "Heuristic Minimization of BDDs Using Don't Cares", DAC 1994*.
//!
//! The pipeline mirrors the paper's §4.1: run FSM equivalence (machine vs.
//! itself) over the benchmark suite, intercept every frontier-minimization
//! call as an EBM instance, apply all heuristics with cache flushes between
//! them, filter trivial calls, bucket by `c_onset_size`, and aggregate:
//!
//! * [`runner`] — the SIS traversal ([`runner::traverse`], the
//!   evaluation's configuration of `bddmin_fsm::frontier_fixpoint`),
//!   instance filtering and measurement,
//! * [`par`] — the same pipeline with measurement sharded across worker
//!   threads (`--jobs N`), deterministically merged,
//! * [`shard`] — the shard/transfer/merge primitives behind that
//!   determinism contract, shared with the `bddmin-serve` daemon,
//! * [`tables`] — Table 3 (cumulative sizes/runtimes/ranks), Table 4
//!   (head-to-head), Figure 3 (robustness curves), prose summary,
//! * [`report`] — plain-text and CSV rendering,
//! * [`args`] — the command-line flags shared by the table binaries.
//!
//! Binaries `table1 table2 table3 table4 figure1 figure3 lower_bound
//! ablation` regenerate each artifact; see `EXPERIMENTS.md` at the
//! repository root for paper-vs-measured numbers. `suite` lists and
//! exports the benchmark machines, and `check_timings` validates the CI
//! wall-clock artifact. The repository's benchmark lives in `perfbench/`.
//!
//! # Example
//!
//! ```no_run
//! use bddmin_eval::runner::{run_experiment, ExperimentConfig};
//! use bddmin_eval::tables::table3;
//! use bddmin_eval::report::render_table3;
//!
//! let results = run_experiment(&ExperimentConfig::default());
//! let table = table3(&results, None);
//! println!("{}", render_table3(&table));
//! ```

pub mod args;
pub mod par;
pub mod report;
pub mod runner;
pub mod shard;
pub mod tables;
