//! # bddmin-core
//!
//! Heuristic minimization of BDDs using don't cares — a Rust implementation
//! of *Shiple, Hojati, Sangiovanni-Vincentelli, Brayton, DAC 1994*.
//!
//! Given an incompletely specified function [`Isf`] `[f, c]` (care function
//! `c`), the *exact BDD minimization* (EBM) problem asks for a cover
//! `f·c ≤ g ≤ f + ¬c` of minimum BDD size under a fixed variable order.
//! This crate implements the paper's heuristic framework:
//!
//! * **Matching criteria** ([`MatchCriterion`]): `osdm`, `osm`, `tsm` —
//!   a strength hierarchy of conditions under which two ISFs share a common
//!   i-cover ([`try_match`]).
//! * **Sibling matching** ([`generic_td`], [`SiblingConfig`]): the generic
//!   top-down matcher of paper Figure 2 whose instances include the classic
//!   `constrain` and `restrict` operators (paper Table 2).
//! * **Level matching** ([`opt_lv`], [`minimize_at_level`]): the global
//!   approach of paper Section 3.3 — gather sub-functions below a level,
//!   build the DMG/UMG matching graph, solve FMM (sink collection for osm,
//!   greedy clique cover for tsm) and substitute the i-covers.
//! * **Scheduling** ([`Schedule`]): the windowed combination of Section 3.4
//!   (safe osm transforms first, powerful tsm later, `constrain` to finish).
//! * **Heuristic registry** ([`Heuristic`]): all twelve heuristics compared
//!   in the paper's experiments behind one interface, plus the paper's
//!   `min` pseudo-heuristic ([`minimize_all`]).
//! * **Lower bound** ([`lower_bound`]): the cube-based bound of Section
//!   4.1.1, built on Theorem 7 (`constrain` is optimum for cube care sets).
//!
//! # Quick example
//!
//! ```
//! use bddmin_bdd::Bdd;
//! use bddmin_core::{Heuristic, Isf};
//!
//! let mut bdd = Bdd::new(2);
//! // The paper's running example: the instance (d1 01).
//! let (f, c) = bdd.from_leaf_spec("d1 01").unwrap();
//! let isf = Isf::new(f, c);
//!
//! let by_constrain = Heuristic::Constrain.minimize(&mut bdd, isf);
//! let by_osm = Heuristic::OsmTd.minimize(&mut bdd, isf);
//! assert!(isf.is_cover(&mut bdd, by_constrain));
//! assert!(isf.is_cover(&mut bdd, by_osm));
//! // On this instance osm_td finds the minimum (2 nodes), constrain does
//! // not (3 nodes) — the paper's first counterexample.
//! assert!(bdd.size(by_osm) < bdd.size(by_constrain));
//! ```

mod bitset;
mod exact;
mod heuristics;
mod isf;
pub mod json;
mod level;
mod lower_bound;
mod matching;
mod memo_tags;
mod report;
pub mod rng;
mod schedule;
mod sibling;
mod windowed;

pub use exact::{exact_minimum, ExactConfig, ExactLimit, ExactResult};
pub use heuristics::{minimize_all, BudgetLimits, Heuristic, ParseHeuristicError};
pub use isf::Isf;
pub use level::{
    gather_below_level, minimize_at_level, opt_lv, path_distance, CliqueOptions, GatheredFunction,
};
pub use lower_bound::{lower_bound, LowerBound};
pub use matching::{matches_directed, try_match, MatchCriterion};
pub use report::{MinReport, StepKind, StepReport, StepStatus};
pub use schedule::Schedule;
pub use sibling::{generic_td, SiblingConfig};
pub use windowed::{windowed_sibling_pass, LevelWindow};
