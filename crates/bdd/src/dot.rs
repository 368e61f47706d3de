//! DOT (Graphviz) export.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::edge::{Edge, NodeId};
use crate::manager::Bdd;

impl Bdd {
    /// Renders the shared BDD of the given labelled functions as a Graphviz
    /// `digraph`.
    ///
    /// Solid arrows are then-edges, dashed arrows else-edges; a dot on the
    /// arrowhead (`odot`) marks a complemented edge.
    ///
    /// # Example
    ///
    /// ```
    /// use bddmin_bdd::{Bdd, Var};
    /// let mut bdd = Bdd::new(2);
    /// let a = bdd.var(Var(0));
    /// let b = bdd.var(Var(1));
    /// let f = bdd.xor(a, b);
    /// let dot = bdd.to_dot(&[("f", f)]);
    /// assert!(dot.contains("digraph"));
    /// assert!(dot.contains("x1"));
    /// ```
    pub fn to_dot(&self, functions: &[(&str, Edge)]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph bdd {{");
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  node [shape=circle];");
        let _ = writeln!(out, "  t [label=\"1\", shape=box];");
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut stack: Vec<Edge> = Vec::new();
        for (name, f) in functions {
            let _ = writeln!(
                out,
                "  \"root_{name}\" [label=\"{name}\", shape=plaintext];"
            );
            let _ = writeln!(
                out,
                "  \"root_{name}\" -> {} [arrowhead={}];",
                node_name(*f),
                if f.is_complemented() {
                    "odot"
                } else {
                    "normal"
                }
            );
            stack.push(f.regular());
        }
        while let Some(e) = stack.pop() {
            if e.is_constant() || !seen.insert(e.node()) {
                continue;
            }
            let n = self.node(e);
            let _ = writeln!(
                out,
                "  n{} [label=\"{}\"];",
                e.node().0,
                self.var_name(self.var_at_level(n.var))
            );
            let _ = writeln!(
                out,
                "  n{} -> {} [arrowhead={}];",
                e.node().0,
                node_name(n.hi),
                if n.hi.is_complemented() {
                    "odot"
                } else {
                    "normal"
                }
            );
            let _ = writeln!(
                out,
                "  n{} -> {} [style=dashed, arrowhead={}];",
                e.node().0,
                node_name(n.lo),
                if n.lo.is_complemented() {
                    "odot"
                } else {
                    "normal"
                }
            );
            stack.push(n.hi.regular());
            stack.push(n.lo.regular());
        }
        let _ = writeln!(out, "}}");
        out
    }
}

fn node_name(e: Edge) -> String {
    if e.is_constant() {
        "t".to_owned()
    } else {
        format!("n{}", e.node().0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Var;

    #[test]
    fn dot_contains_nodes_and_edges() {
        let mut bdd = Bdd::with_names(&["a", "b"]);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let f = bdd.and(a, b);
        let dot = bdd.to_dot(&[("f", f)]);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("label=\"a\""));
        assert!(dot.contains("label=\"b\""));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("root_f"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn dot_marks_complement_edges() {
        let mut bdd = Bdd::with_names(&["a"]);
        let a = bdd.var(Var(0));
        let dot = bdd.to_dot(&[("na", bdd.not(a))]);
        assert!(dot.contains("odot"));
    }

    #[test]
    fn dot_shares_nodes_across_functions() {
        let mut bdd = Bdd::with_names(&["a", "b"]);
        let a = bdd.var(Var(0));
        let b = bdd.var(Var(1));
        let f = bdd.and(a, b);
        let g = bdd.or(a, b);
        let dot = bdd.to_dot(&[("f", f), ("g", g)]);
        // b's node is shared: it appears exactly once as a definition.
        let defs = dot.matches("label=\"b\"").count();
        assert_eq!(defs, 1);
    }
}
