//! # bddmin-fsm
//!
//! Sequential-circuit substrate for the don't-care BDD minimization
//! experiments of *Shiple et al., DAC 1994*: gate-level netlists, a BLIF
//! subset, symbolic FSM compilation, image computation, breadth-first
//! reachability with frontier minimization hooks, and product-machine
//! equivalence checking (the analogue of SIS `verify_fsm -m product`).
//!
//! The paper's evaluation intercepts every frontier-minimization call made
//! during FSM equivalence checks; [`Reachability::with_hook`] exposes the
//! same interception point: each BFS step yields the EBM instance
//! `[f = frontier, c = frontier + ¬reached]`.
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
mod odc;
pub mod ordering;
pub mod generators;
mod product;
mod range;
mod reach;
mod symbolic;
mod tr_min;

pub use blif::{blif_round_trip, parse_blif, print_blif, ParseBlifError};
pub use circuit::{
    Circuit, CircuitBuilder, Gate, GateKind, Latch, NetId, NetSource, OutputPort,
};
pub use odc::{simplify_report, NetAnalysis, NetSimplification};
pub use product::{is_from_machine_a, product_circuit, with_flipped_latch};
pub use range::range_of_vector;
pub use reach::{
    verify_fsm_equivalence, verify_fsm_equivalence_with, MinimizeHook, ReachStats, Reachability,
};
pub use symbolic::{symbolic_matches_simulation, ImageMethod, SymbolicFsm};
pub use tr_min::TrMinimization;
