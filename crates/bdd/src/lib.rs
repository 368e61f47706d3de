//! # bddmin-bdd
//!
//! A self-contained reduced ordered binary decision diagram (ROBDD) package
//! in the style of Brace, Rudell and Bryant ("Efficient implementation of a
//! BDD package", DAC 1990), built as the substrate for reproducing
//! *Shiple et al., "Heuristic Minimization of BDDs Using Don't Cares",
//! DAC 1994*.
//!
//! Features:
//!
//! * hash-consed unique table with **complement output pointers** (negation
//!   is O(1); the high edge of every stored node is regular, which keeps the
//!   representation canonical),
//! * `ite`-based Boolean operations with a computed table,
//! * cofactors, existential/universal quantification, support, satisfying
//!   fraction and count,
//! * the classic [`Bdd::constrain`] (generalized cofactor) and
//!   [`Bdd::restrict`] operators used as baselines by the paper,
//! * cube utilities (enumeration of the cubes of a function, cube
//!   construction and tests),
//! * a resource governor ([`Budget`]): deterministic step budgets, a
//!   live-node ceiling, optional wall-clock deadlines and a recursion
//!   depth guard, surfaced through checked `try_*` operation variants
//!   that return [`BudgetExceeded`] instead of panicking or looping,
//! * mark–sweep garbage collection with explicit roots,
//! * **dynamic variable reordering**: per-level subtables, an in-place
//!   adjacent-level swap kernel, Rudell sifting and group sifting
//!   ([`Bdd::reorder`]), with optional automatic triggering at GC
//!   quiescent points ([`Bdd::set_auto_reorder`]),
//! * a small Boolean [expression parser](Bdd::from_expr) and a parser for the
//!   paper's [leaf-specification notation](Bdd::from_leaf_spec) such as
//!   `"(d1 01)"`,
//! * DOT export for visualisation.
//!
//! # Quick example
//!
//! ```
//! use bddmin_bdd::Bdd;
//!
//! # fn main() -> Result<(), bddmin_bdd::ParseExprError> {
//! let mut bdd = Bdd::with_names(&["a", "b", "c"]);
//! let f = bdd.from_expr("(a & b) | !c")?;
//! let g = bdd.from_expr("!( (!a | !b) & c )")?;
//! assert_eq!(f, g); // canonical: equal functions are pointer-equal
//! assert_eq!(bdd.size(f), 4); // 3 decision nodes + the constant node
//! # Ok(())
//! # }
//! ```

mod budget;
mod cache;
mod constrain;
mod count;
mod cubes;
mod dot;
mod edge;
mod expr;
mod gc;
mod isop;
mod leafspec;
mod manager;
mod memo;
mod node;
mod ops;
mod reorder;
mod sig;
mod table;
mod transfer;
mod unique;
mod util;

pub use budget::{Budget, BudgetExceeded, BudgetKind};
pub use count::SatCount;
pub use cubes::{Cube, CubeIter};
pub use edge::{Edge, NodeId, Var};
pub use expr::{ParseExprError, MAX_EXPR_DEPTH};
pub use isop::Isop;
pub use leafspec::{LeafSpec, ParseLeafSpecError};
pub use manager::{Bdd, BddStats, BUDGET_PANIC, MAX_REC_DEPTH};
pub use node::Node;
pub use reorder::{ReorderMethod, ReorderSettings, ReorderStats};
pub use sig::{SigEvaluator, SIG_LANES, SIG_SEED};
pub use table::TABLE_LEVELS;
pub use transfer::TransferError;
pub use util::{FastBuild, FastHasher};
