//! The gate-level circuit model.

use std::collections::HashMap;
use std::fmt;

use crate::error::NetlistError;
use crate::gate::GateKind;

/// Identifier of a node (and of the single net that node drives).
///
/// Ids are dense indices into the circuit's node table, assigned in
/// creation order, which makes them usable as vector indices in
/// simulators and ATPG engines.
///
/// # Examples
///
/// ```
/// use fscan_netlist::Circuit;
///
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// assert_eq!(a.index(), 0);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates an id from a raw index. Only meaningful for indices that
    /// exist in the circuit the id is used with.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(u32::try_from(index).expect("node index exceeds u32"))
    }

    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A single node: its kind, fanin list and optional name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    kind: GateKind,
    fanin: Vec<NodeId>,
    name: Option<String>,
}

impl Node {
    /// The node's kind.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The node's fanin nets in pin order.
    pub fn fanin(&self) -> &[NodeId] {
        &self.fanin
    }

    /// The node's name, if it has one.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }
}

/// A gate-level sequential circuit.
///
/// Nodes are primary inputs, combinational gates, constants and D
/// flip-flops. Primary outputs are markers referring to driving nodes.
/// The structure is freely mutable (needed by scan insertion); use
/// [`Circuit::validate`] to check invariants after editing.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{Circuit, GateKind};
///
/// let mut c = Circuit::new("half_adder");
/// let a = c.add_input("a");
/// let b = c.add_input("b");
/// let sum = c.add_gate(GateKind::Xor, vec![a, b], "sum");
/// let carry = c.add_gate(GateKind::And, vec![a, b], "carry");
/// c.mark_output(sum);
/// c.mark_output(carry);
/// c.validate()?;
/// # Ok::<(), fscan_netlist::NetlistError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Circuit {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    dffs: Vec<NodeId>,
}

impl Circuit {
    /// Creates an empty circuit with the given name.
    pub fn new(name: impl Into<String>) -> Circuit {
        Circuit {
            name: name.into(),
            nodes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            dffs: Vec::new(),
        }
    }

    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// Adds a primary input and returns its id.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.push_node(Node {
            kind: GateKind::Input,
            fanin: Vec::new(),
            name: Some(name.into()),
        });
        self.inputs.push(id);
        id
    }

    /// Adds a constant node of the given value and returns its id.
    pub fn add_const(&mut self, value: bool, name: impl Into<String>) -> NodeId {
        let kind = if value {
            GateKind::Const1
        } else {
            GateKind::Const0
        };
        self.push_node(Node {
            kind,
            fanin: Vec::new(),
            name: Some(name.into()),
        })
    }

    /// Adds a combinational gate with the given fanins and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a combinational gate kind or the fanin
    /// count violates the kind's arity.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        fanin: Vec<NodeId>,
        name: impl Into<String>,
    ) -> NodeId {
        assert!(kind.is_gate(), "add_gate requires a combinational kind");
        if let Some(n) = kind.fixed_arity() {
            assert_eq!(fanin.len(), n, "{kind} requires exactly {n} fanins");
        } else {
            assert!(!fanin.is_empty(), "{kind} requires at least one fanin");
        }
        self.push_node(Node {
            kind,
            fanin,
            name: Some(name.into()),
        })
    }

    /// Adds a D flip-flop whose D pin will be connected later with
    /// [`Circuit::set_dff_input`]. Returns the flip-flop's (Q output) id.
    ///
    /// A placeholder flip-flop temporarily feeds back on itself so the
    /// structure stays well-formed for traversals.
    pub fn add_dff_placeholder(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node {
            kind: GateKind::Dff,
            fanin: vec![id],
            name: Some(name.into()),
        });
        self.dffs.push(id);
        id
    }

    /// Adds a D flip-flop driven by `d` and returns its id.
    pub fn add_dff(&mut self, d: NodeId, name: impl Into<String>) -> NodeId {
        let id = self.push_node(Node {
            kind: GateKind::Dff,
            fanin: vec![d],
            name: Some(name.into()),
        });
        self.dffs.push(id);
        id
    }

    /// Connects the D pin of flip-flop `dff` to `d`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotAFlipFlop`] if `dff` is not a DFF node.
    pub fn set_dff_input(&mut self, dff: NodeId, d: NodeId) -> Result<(), NetlistError> {
        let node = &mut self.nodes[dff.index()];
        if node.kind != GateKind::Dff {
            return Err(NetlistError::NotAFlipFlop(dff));
        }
        node.fanin[0] = d;
        Ok(())
    }

    /// Marks `node` as (driving) a primary output.
    pub fn mark_output(&mut self, node: NodeId) {
        self.outputs.push(node);
    }

    /// Re-drives an existing combinational gate in place: replaces its
    /// kind and entire fanin list while keeping its id (and therefore
    /// every reader) stable. The workhorse of ECO edit scripts
    /// ([`NetlistDelta`](crate::NetlistDelta)).
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not a combinational gate kind, if the fanin
    /// count violates the kind's arity, or if `node` is currently an
    /// input or flip-flop (drivers of those are rewired with
    /// [`Circuit::set_dff_input`], not re-driven).
    pub fn redrive(&mut self, node: NodeId, kind: GateKind, fanin: Vec<NodeId>) {
        assert!(kind.is_gate(), "redrive requires a combinational kind");
        if let Some(n) = kind.fixed_arity() {
            assert_eq!(fanin.len(), n, "{kind} requires exactly {n} fanins");
        } else {
            assert!(!fanin.is_empty(), "{kind} requires at least one fanin");
        }
        let n = &mut self.nodes[node.index()];
        assert!(
            n.kind.is_gate() || matches!(n.kind, GateKind::Const0 | GateKind::Const1),
            "redrive target must be a gate or constant, not {}",
            n.kind
        );
        n.kind = kind;
        n.fanin = fanin;
    }

    /// Tombstones a node: turns it into a renamed-as-removed `Const0`
    /// with no fanin and drops it from the input/flip-flop/output lists.
    /// Ids of every other node stay stable — the property incremental
    /// topology patching relies on. The caller is responsible for first
    /// rewiring any reader of `node` (a tombstoned node must be dead);
    /// [`Circuit::validate`] accepts the tombstone itself.
    pub fn tombstone(&mut self, node: NodeId) {
        let n = &mut self.nodes[node.index()];
        n.kind = GateKind::Const0;
        n.fanin.clear();
        n.name = Some(format!("__removed_{}", node.index()));
        self.inputs.retain(|&i| i != node);
        self.dffs.retain(|&i| i != node);
        self.outputs.retain(|&o| o != node);
    }

    /// Replaces pin `pin` of node `node` with `new_src`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PinOutOfRange`] if `pin` is not a valid
    /// fanin index of `node`.
    pub fn replace_fanin(
        &mut self,
        node: NodeId,
        pin: usize,
        new_src: NodeId,
    ) -> Result<(), NetlistError> {
        let n = &mut self.nodes[node.index()];
        if pin >= n.fanin.len() {
            return Err(NetlistError::PinOutOfRange { node, pin });
        }
        n.fanin[pin] = new_src;
        Ok(())
    }

    /// Redirects every fanin reference to `old_src` (in gates, flip-flops
    /// and output markers) to `new_src`, except inside node `exempt`.
    ///
    /// This is the primitive used to splice a test point onto a net: the
    /// test-point gate keeps reading `old_src` while all other readers
    /// see the gated copy.
    pub fn retarget_readers(&mut self, old_src: NodeId, new_src: NodeId, exempt: NodeId) {
        for (idx, node) in self.nodes.iter_mut().enumerate() {
            if idx == exempt.index() {
                continue;
            }
            for f in &mut node.fanin {
                if *f == old_src {
                    *f = new_src;
                }
            }
        }
        for out in &mut self.outputs {
            if *out == old_src {
                *out = new_src;
            }
        }
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Total number of nodes (inputs + constants + gates + flip-flops).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of combinational gates.
    pub fn num_gates(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_gate()).count()
    }

    /// Primary inputs in creation order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary output markers in creation order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Flip-flops in creation order.
    pub fn dffs(&self) -> &[NodeId] {
        &self.dffs
    }

    /// Iterates over `(id, node)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// Ids of all nodes, in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Looks up a node by name (linear scan; build your own map for bulk
    /// lookups).
    pub fn find_by_name(&self, name: &str) -> Option<NodeId> {
        self.iter()
            .find(|(_, n)| n.name() == Some(name))
            .map(|(id, _)| id)
    }

    /// Builds a name → id map for all named nodes.
    pub fn name_map(&self) -> HashMap<String, NodeId> {
        self.iter()
            .filter_map(|(id, n)| n.name().map(|s| (s.to_string(), id)))
            .collect()
    }

    /// Checks structural invariants: fanin ids in range, arity respected,
    /// no combinational cycles, no self-driven placeholder flip-flops
    /// left unexpected (self loops through a DFF are legal).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (id, node) in self.iter() {
            if let Some(arity) = node.kind.fixed_arity() {
                if node.fanin.len() != arity {
                    return Err(NetlistError::ArityMismatch {
                        node: id,
                        kind: node.kind,
                        got: node.fanin.len(),
                    });
                }
            } else if node.fanin.is_empty() {
                return Err(NetlistError::ArityMismatch {
                    node: id,
                    kind: node.kind,
                    got: 0,
                });
            }
            for &f in &node.fanin {
                if f.index() >= self.nodes.len() {
                    return Err(NetlistError::DanglingFanin { node: id, fanin: f });
                }
            }
        }
        for &out in &self.outputs {
            if out.index() >= self.nodes.len() {
                return Err(NetlistError::DanglingFanin {
                    node: out,
                    fanin: out,
                });
            }
        }
        self.check_combinational_cycles()
    }

    fn check_combinational_cycles(&self) -> Result<(), NetlistError> {
        // Iterative DFS over combinational edges only (DFF outputs break
        // cycles: we never traverse *into* a DFF's fanin).
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let mut color = vec![WHITE; self.nodes.len()];
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for start in 0..self.nodes.len() {
            if color[start] != WHITE || self.nodes[start].kind == GateKind::Dff {
                continue;
            }
            color[start] = GRAY;
            stack.push((start, 0));
            while let Some(&mut (n, ref mut next)) = stack.last_mut() {
                let node = &self.nodes[n];
                if *next < node.fanin.len() {
                    let f = node.fanin[*next].index();
                    *next += 1;
                    if self.nodes[f].kind == GateKind::Dff {
                        continue; // sequential edge, not part of comb graph
                    }
                    match color[f] {
                        WHITE => {
                            color[f] = GRAY;
                            stack.push((f, 0));
                        }
                        GRAY => {
                            return Err(NetlistError::CombinationalCycle(NodeId::from_index(f)))
                        }
                        _ => {}
                    }
                } else {
                    color[n] = BLACK;
                    stack.pop();
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "circuit {}: {} nodes ({} inputs, {} gates, {} dffs, {} outputs)",
            self.name,
            self.num_nodes(),
            self.inputs.len(),
            self.num_gates(),
            self.dffs.len(),
            self.outputs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Circuit, NodeId, NodeId, NodeId) {
        let mut c = Circuit::new("tiny");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, vec![a, b], "g");
        c.mark_output(g);
        (c, a, b, g)
    }

    #[test]
    fn ids_are_dense() {
        let (c, a, b, g) = tiny();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(g.index(), 2);
        assert_eq!(c.num_nodes(), 3);
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn validate_ok() {
        let (c, ..) = tiny();
        c.validate().unwrap();
    }

    #[test]
    fn dff_placeholder_roundtrip() {
        let mut c = Circuit::new("seq");
        let ff = c.add_dff_placeholder("ff");
        let inv = c.add_gate(GateKind::Not, vec![ff], "inv");
        c.set_dff_input(ff, inv).unwrap();
        c.mark_output(ff);
        c.validate().unwrap();
        assert_eq!(c.node(ff).fanin(), &[inv]);
        assert_eq!(c.dffs(), &[ff]);
    }

    #[test]
    fn set_dff_input_rejects_gate() {
        let (mut c, a, _, g) = tiny();
        let err = c.set_dff_input(g, a).unwrap_err();
        assert!(matches!(err, NetlistError::NotAFlipFlop(_)));
    }

    #[test]
    fn detects_combinational_cycle() {
        let mut c = Circuit::new("cyc");
        let a = c.add_input("a");
        // g1 and g2 feed each other.
        let g1 = c.add_gate(GateKind::And, vec![a, a], "g1");
        let g2 = c.add_gate(GateKind::Or, vec![g1, a], "g2");
        c.replace_fanin(g1, 1, g2).unwrap();
        assert!(matches!(
            c.validate(),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn dff_breaks_cycle() {
        let mut c = Circuit::new("seqloop");
        let ff = c.add_dff_placeholder("ff");
        let g = c.add_gate(GateKind::Not, vec![ff], "g");
        c.set_dff_input(ff, g).unwrap();
        c.validate().unwrap();
    }

    #[test]
    fn retarget_readers_spares_exempt() {
        let mut c = Circuit::new("rt");
        let a = c.add_input("a");
        let g1 = c.add_gate(GateKind::Buf, vec![a], "g1");
        let g2 = c.add_gate(GateKind::Not, vec![a], "g2");
        c.mark_output(a);
        let tp = c.add_gate(GateKind::And, vec![a, a], "tp");
        c.retarget_readers(a, tp, tp);
        assert_eq!(c.node(g1).fanin(), &[tp]);
        assert_eq!(c.node(g2).fanin(), &[tp]);
        assert_eq!(c.node(tp).fanin(), &[a, a]);
        assert_eq!(c.outputs(), &[tp]);
    }

    #[test]
    fn find_by_name_works() {
        let (c, a, ..) = tiny();
        assert_eq!(c.find_by_name("a"), Some(a));
        assert_eq!(c.find_by_name("zzz"), None);
    }

    #[test]
    fn replace_fanin_bounds() {
        let (mut c, a, _, g) = tiny();
        assert!(c.replace_fanin(g, 5, a).is_err());
        c.replace_fanin(g, 0, a).unwrap();
        assert_eq!(c.node(g).fanin()[0], a);
    }

    #[test]
    fn display_summary() {
        let (c, ..) = tiny();
        let s = c.to_string();
        assert!(s.contains("tiny"));
        assert!(s.contains("2 inputs"));
    }
}
