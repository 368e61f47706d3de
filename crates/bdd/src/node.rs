//! Node storage.

use crate::edge::{Edge, Var};

/// One decision node: a variable plus high ("then") and low ("else") edges.
///
/// Invariants maintained by the manager:
///
/// * the high edge is never complemented (canonical complement-edge form),
/// * `var` is strictly above the levels of both children,
/// * `hi != lo` (the deletion rule),
/// * the node at slot 0 is the unique constant node with `var == Var::TERMINAL`.
///
/// Nodes are plain data; use [`Bdd`](crate::Bdd) methods to inspect functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Node {
    /// Top decision variable (level) of this node.
    pub var: Var,
    /// Function when `var = 1`; always a regular (uncomplemented) edge.
    pub hi: Edge,
    /// Function when `var = 0`.
    pub lo: Edge,
}

impl Node {
    /// The constant node stored at slot 0.
    pub(crate) const TERMINAL: Node = Node {
        var: Var::TERMINAL,
        hi: Edge::ONE,
        lo: Edge::ONE,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_node_shape() {
        let t = Node::TERMINAL;
        assert!(t.var.is_terminal());
        assert_eq!(t.hi, Edge::ONE);
        assert_eq!(t.lo, Edge::ONE);
    }
}
