//! Graphviz DOT export for visual inspection of circuits.

use std::fmt::Write as _;

use crate::circuit::Circuit;
use crate::gate::GateKind;

/// Renders a circuit as a Graphviz `digraph`.
///
/// Inputs are drawn as triangles, flip-flops as boxes, gates as
/// ellipses labelled with their kind; primary outputs get a double
/// circle marker node. Useful for debugging scan-path construction on
/// small circuits (`dot -Tsvg`).
///
/// # Examples
///
/// ```
/// use fscan_netlist::{to_dot, Circuit, GateKind};
///
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// let g = c.add_gate(GateKind::Not, vec![a], "g");
/// c.mark_output(g);
/// let dot = to_dot(&c);
/// assert!(dot.starts_with("digraph"));
/// assert!(dot.contains("NOT"));
/// ```
pub fn to_dot(circuit: &Circuit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", circuit.name());
    let _ = writeln!(out, "  rankdir=LR;");
    for (id, node) in circuit.iter() {
        let name = node.name().unwrap_or("");
        let label = if name.is_empty() {
            format!("{id}")
        } else {
            format!("{name}\\n{id}")
        };
        let shape = match node.kind() {
            GateKind::Input => "triangle",
            GateKind::Dff => "box",
            GateKind::Const0 | GateKind::Const1 => "diamond",
            _ => "ellipse",
        };
        let kind_label = match node.kind() {
            GateKind::Input => label.clone(),
            k => format!("{k}\\n{label}"),
        };
        let _ = writeln!(out, "  {id} [shape={shape}, label=\"{kind_label}\"];");
    }
    for (id, node) in circuit.iter() {
        for (pin, &src) in node.fanin().iter().enumerate() {
            if src == id && node.kind() == GateKind::Dff {
                continue; // unconnected placeholder
            }
            let _ = writeln!(out, "  {src} -> {id} [label=\"{pin}\"];");
        }
    }
    for (k, &o) in circuit.outputs().iter().enumerate() {
        let _ = writeln!(out, "  po{k} [shape=doublecircle, label=\"PO{k}\"];");
        let _ = writeln!(out, "  {o} -> po{k};");
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_nodes_and_edges() {
        let mut c = Circuit::new("dot");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::Nand, vec![a, b], "g");
        let ff = c.add_dff(g, "ff");
        c.mark_output(ff);
        let dot = to_dot(&c);
        assert!(dot.contains("rankdir=LR"));
        assert!(dot.contains("NAND"));
        assert!(dot.contains("shape=box")); // the flip-flop
        assert!(dot.contains("shape=triangle")); // inputs
        assert!(dot.contains("doublecircle")); // the PO marker
                                               // Edges: a->g, b->g, g->ff, ff->po0.
        assert_eq!(dot.matches(" -> ").count(), 4);
    }

    #[test]
    fn placeholder_dff_self_loop_omitted() {
        let mut c = Circuit::new("dot");
        let _ff = c.add_dff_placeholder("ff");
        let dot = to_dot(&c);
        assert_eq!(dot.matches(" -> ").count(), 0);
    }
}
