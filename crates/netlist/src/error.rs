//! Error type for netlist construction and validation.

use std::error::Error;
use std::fmt;

use crate::circuit::NodeId;
use crate::gate::GateKind;

/// Errors reported by circuit construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// `set_dff_input` was called on a node that is not a flip-flop.
    NotAFlipFlop(NodeId),
    /// A pin index was out of range for the node's fanin list.
    PinOutOfRange {
        /// The node whose pin was addressed.
        node: NodeId,
        /// The offending pin index.
        pin: usize,
    },
    /// A node has the wrong number of fanins for its kind.
    ArityMismatch {
        /// The offending node.
        node: NodeId,
        /// Its kind.
        kind: GateKind,
        /// The number of fanins found.
        got: usize,
    },
    /// A fanin id points outside the node table.
    DanglingFanin {
        /// The referencing node.
        node: NodeId,
        /// The out-of-range fanin.
        fanin: NodeId,
    },
    /// A cycle exists through combinational gates only.
    CombinationalCycle(NodeId),
    /// A circuit diff needs node names as keys but a name is missing or
    /// used twice.
    AmbiguousName {
        /// The offending node.
        node: NodeId,
        /// The duplicate name (or `<unnamed>`).
        name: String,
    },
    /// A delta expresses an edit the id-stable script format cannot
    /// represent (role change, live removal, malformed flip-flop).
    UnsupportedEdit {
        /// The offending node.
        node: NodeId,
        /// Human-readable explanation.
        reason: String,
    },
    /// A delta was applied to a circuit with a different node count than
    /// the base it was written against.
    DeltaBaseMismatch {
        /// Node count the delta expects.
        expected: usize,
        /// Node count of the circuit it was applied to.
        found: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::NotAFlipFlop(id) => write!(f, "node {id} is not a flip-flop"),
            NetlistError::PinOutOfRange { node, pin } => {
                write!(f, "pin {pin} out of range on node {node}")
            }
            NetlistError::ArityMismatch { node, kind, got } => {
                write!(
                    f,
                    "node {node} of kind {kind} has invalid fanin count {got}"
                )
            }
            NetlistError::DanglingFanin { node, fanin } => {
                write!(f, "node {node} references nonexistent fanin {fanin}")
            }
            NetlistError::CombinationalCycle(id) => {
                write!(f, "combinational cycle through node {id}")
            }
            NetlistError::AmbiguousName { node, name } => {
                write!(f, "node {node} has missing or duplicate name `{name}`")
            }
            NetlistError::UnsupportedEdit { node, reason } => {
                write!(f, "unsupported edit at node {node}: {reason}")
            }
            NetlistError::DeltaBaseMismatch { expected, found } => {
                write!(
                    f,
                    "delta was written against a {expected}-node base but applied to {found} nodes"
                )
            }
        }
    }
}

impl Error for NetlistError {}
