//! # bddmin-fsm
//!
//! Sequential-circuit substrate for the don't-care BDD minimization
//! experiments of *Shiple et al., DAC 1994*: gate-level netlists, a BLIF
//! subset, symbolic FSM compilation, image computation, breadth-first
//! reachability with frontier minimization hooks, and product-machine
//! equivalence checking (the analogue of SIS `verify_fsm -m product`).
//!
//! The paper's evaluation intercepts every frontier-minimization call made
//! during FSM equivalence checks. One loop, [`frontier_fixpoint`], makes
//! those calls: each BFS step yields the EBM instance
//! `[f = frontier, c = frontier + ¬reached]`, minimizes it and images the
//! cover. Its callers configure it through [`FrontierSteps`]:
//! [`Reachability`] installs a minimize hook
//! ([`Reachability::with_hook`]), [`verify_fsm_equivalence_with`] adds a
//! stop on the miter, and the evaluation crate's traversal intercepts the
//! image's `constrain` calls too and collects garbage between steps.
//!
//! # Quick example
//!
//! ```
//! use bddmin_core::{Heuristic, Isf};
//! use bddmin_fsm::{generators, Reachability, SymbolicFsm};
//!
//! let circuit = generators::traffic_light();
//! let mut fsm = SymbolicFsm::new(&circuit);
//! let mut instances = 0usize;
//! let stats = Reachability::new()
//!     .with_hook(|bdd, isf| {
//!         instances += 1;
//!         Heuristic::Restrict.minimize(bdd, isf)
//!     })
//!     .run(&mut fsm);
//! assert!(stats.iterations >= 1);
//! assert!(instances == stats.iterations);
//! ```

mod blif;
mod circuit;
pub mod generators;
mod odc;
pub mod ordering;
mod product;
mod range;
mod reach;
mod symbolic;
mod tr_min;

pub use blif::{blif_round_trip, parse_blif, print_blif, ParseBlifError};
pub use circuit::{Circuit, CircuitBuilder, Gate, GateKind, Latch, NetId, NetSource, OutputPort};
pub use odc::{simplify_report, NetAnalysis, NetSimplification};
pub use product::{product_circuit, with_flipped_latch};
pub use range::range_of_vector;
pub use reach::{
    frontier_fixpoint, verify_fsm_equivalence, verify_fsm_equivalence_with, Fixpoint,
    FrontierSteps, MinimizeHook, ReachStats, Reachability,
};
pub use symbolic::{symbolic_matches_simulation, ImageMethod, SymbolicFsm};
pub use tr_min::TrMinimization;
