//! Netlist deltas: id-stable edit scripts between two circuits.
//!
//! An ECO (engineering change order) touches a handful of gates in a
//! design that was already compiled, classified and tested. The
//! [`NetlistDelta`] here captures such an edit as a script over a
//! *base* circuit — nodes added, nodes re-driven (new kind and/or
//! fanin), nodes removed — in a form with two key properties:
//!
//! 1. **Id stability.** Applying the delta never renumbers a surviving
//!    base node: additions are appended past the base id range and
//!    removals leave a dead `Const0` tombstone in place. Every
//!    downstream artifact keyed by [`NodeId`] — compiled topologies,
//!    fault lists, classification verdicts, traces — stays directly
//!    comparable across the edit, which is what makes cone-scoped
//!    invalidation (and verdict reuse) sound.
//! 2. **Self-containedness.** The delta carries the added nodes' kinds
//!    and fanins and the re-driven nodes' new definitions, so
//!    [`CompiledTopology::patch`](crate::CompiledTopology::patch) can
//!    build the patched topology from the base topology plus the delta
//!    alone, without re-walking the full circuit.
//!
//! Deltas come from [`NetlistDelta::diff`] (structural diff of two
//! same-name-space circuits, e.g. two revisions of an uploaded
//! `.bench`) or are constructed directly as an edit script.

use std::collections::HashMap;

use crate::circuit::{Circuit, NodeId};
use crate::error::NetlistError;
use crate::gate::GateKind;

/// A fanin reference inside a delta: either an existing base node or
/// one of the delta's own added nodes (by index into
/// [`NetlistDelta::added`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum DeltaRef {
    /// An existing node of the base circuit.
    Base(NodeId),
    /// The `i`-th node added by this delta (0-based).
    Added(u32),
}

impl DeltaRef {
    /// Resolves the reference to a concrete patched-circuit id, given
    /// the base node count (added nodes are appended in order).
    pub fn resolve(self, base_nodes: usize) -> NodeId {
        match self {
            DeltaRef::Base(id) => id,
            DeltaRef::Added(i) => NodeId::from_index(base_nodes + i as usize),
        }
    }
}

/// One node added by a delta.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaNode {
    /// The node's name (must not collide with a surviving base name).
    pub name: String,
    /// The node's kind. `Input` and `Dff` are allowed; an added `Dff`'s
    /// single fanin is its D pin.
    pub kind: GateKind,
    /// Fanin references, arity-checked against `kind` at apply time.
    pub fanin: Vec<DeltaRef>,
}

/// One node re-driven by a delta: same id, new definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Redrive {
    /// The base node being re-driven.
    pub node: NodeId,
    /// Its new kind (combinational gates only; inputs and flip-flops
    /// change by removal + addition).
    pub kind: GateKind,
    /// Its new fanin list.
    pub fanin: Vec<DeltaRef>,
}

/// An id-stable edit script between a base circuit and its successor.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{Circuit, GateKind, NetlistDelta};
///
/// let mut base = Circuit::new("d");
/// let a = base.add_input("a");
/// let b = base.add_input("b");
/// let g = base.add_gate(GateKind::And, vec![a, b], "g");
/// base.mark_output(g);
///
/// let mut eco = base.clone();
/// eco.redrive(g, GateKind::Or, vec![a, b]);
///
/// let delta = NetlistDelta::diff(&base, &eco)?;
/// assert_eq!(delta.redriven.len(), 1);
/// let patched = delta.apply(&base)?;
/// assert_eq!(patched.node(g).kind(), GateKind::Or);
/// # Ok::<(), fscan_netlist::NetlistError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetlistDelta {
    /// Node count of the base circuit the script was written against
    /// (validated at apply/patch time).
    pub base_nodes: usize,
    /// Nodes appended by the edit, in id order.
    pub added: Vec<DeltaNode>,
    /// Existing nodes whose definition changes.
    pub redriven: Vec<Redrive>,
    /// Existing nodes removed (tombstoned in place; they must be dead
    /// after the re-drives are applied).
    pub removed: Vec<NodeId>,
    /// Primary-output markers appended after the base circuit's marker
    /// list, in order (duplicates allowed, exactly like
    /// [`Circuit::mark_output`]). The format cannot remove or reorder
    /// the base markers — such edits change the vector layout and are
    /// rejected by [`NetlistDelta::diff`].
    pub outputs: Vec<DeltaRef>,
}

impl NetlistDelta {
    /// An empty delta against a base of `base_nodes` nodes — applying
    /// it is the identity.
    pub fn empty(base_nodes: usize) -> NetlistDelta {
        NetlistDelta {
            base_nodes,
            ..NetlistDelta::default()
        }
    }

    /// The delta that builds `circuit` from the empty design — every
    /// node is an addition. A full (cold) topology build is exactly a
    /// patch with this delta; see
    /// [`CompiledTopology::patch`](crate::CompiledTopology::patch).
    pub fn full(circuit: &Circuit) -> NetlistDelta {
        let added = circuit
            .iter()
            .map(|(id, node)| DeltaNode {
                name: node
                    .name()
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("n{}", id.index())),
                kind: node.kind(),
                fanin: node
                    .fanin()
                    .iter()
                    .map(|&f| DeltaRef::Added(f.index() as u32))
                    .collect(),
            })
            .collect();
        NetlistDelta {
            base_nodes: 0,
            added,
            redriven: Vec::new(),
            removed: Vec::new(),
            outputs: circuit
                .outputs()
                .iter()
                .map(|o| DeltaRef::Added(o.index() as u32))
                .collect(),
        }
    }

    /// `true` when the script performs no edit.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty()
            && self.redriven.is_empty()
            && self.removed.is_empty()
            && self.outputs.is_empty()
    }

    /// Structural diff of two circuits sharing a name space: nodes are
    /// matched **by name**, so `new` may be an independently parsed
    /// revision of the same netlist. Returns the edit script that turns
    /// `base` into a circuit functionally identical to `new` (modulo
    /// node numbering: surviving base nodes keep their base ids,
    /// additions are appended in `new`'s order).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::AmbiguousName`] if either circuit has
    /// duplicate or missing node names (the diff needs names as keys),
    /// and [`NetlistError::UnsupportedEdit`] if a node changes role
    /// between input/flip-flop/gate under the same name, if a survivor
    /// reads a tombstone, or if the base output markers are removed or
    /// reordered — edits this script format cannot express id-stably.
    /// Express those as a remove + add of a renamed node instead.
    ///
    /// Tombstones (`__removed_*` nodes left behind by an earlier
    /// [`apply`](Self::apply)) are invisible to the diff on both sides.
    pub fn diff(base: &Circuit, new: &Circuit) -> Result<NetlistDelta, NetlistError> {
        let base_names = named_ids(base)?;
        let new_names = named_ids(new)?;

        // Map every new-circuit node to its patched-circuit id: by name
        // for survivors, appended in new-id order for additions.
        let mut added: Vec<(NodeId, DeltaNode)> = Vec::new();
        let mut new_to_ref: HashMap<NodeId, DeltaRef> = HashMap::new();
        for (new_id, node) in new.iter() {
            let name = node.name().expect("checked by named_ids");
            if is_tombstone_name(name) {
                continue;
            }
            match base_names.get(name) {
                Some(&base_id) => {
                    new_to_ref.insert(new_id, DeltaRef::Base(base_id));
                }
                None => {
                    new_to_ref.insert(new_id, DeltaRef::Added(added.len() as u32));
                    added.push((
                        new_id,
                        DeltaNode {
                            name: name.to_string(),
                            kind: node.kind(),
                            fanin: Vec::new(),
                        },
                    ));
                }
            }
        }
        let resolve_new = |id: NodeId| -> Result<DeltaRef, NetlistError> {
            new_to_ref
                .get(&id)
                .copied()
                .ok_or_else(|| NetlistError::UnsupportedEdit {
                    node: id,
                    reason: "node reads a removed tombstone".to_string(),
                })
        };
        for (new_id, dn) in &mut added {
            dn.fanin = new
                .node(*new_id)
                .fanin()
                .iter()
                .map(|&f| resolve_new(f))
                .collect::<Result<_, _>>()?;
        }

        let mut redriven = Vec::new();
        let mut removed = Vec::new();
        for (base_id, node) in base.iter() {
            let name = node.name().expect("checked by named_ids");
            if is_tombstone_name(name) {
                continue;
            }
            let Some(&new_id) = new_names.get(name) else {
                removed.push(base_id);
                continue;
            };
            let new_node = new.node(new_id);
            let role = |k: GateKind| (k == GateKind::Input, k == GateKind::Dff);
            if role(node.kind()) != role(new_node.kind()) {
                return Err(NetlistError::UnsupportedEdit {
                    node: base_id,
                    reason: format!("`{name}` changes role between input/flip-flop/gate"),
                });
            }
            let new_fanin: Vec<DeltaRef> = new_node
                .fanin()
                .iter()
                .map(|&f| resolve_new(f))
                .collect::<Result<_, _>>()?;
            let old_fanin: Vec<DeltaRef> =
                node.fanin().iter().map(|&f| DeltaRef::Base(f)).collect();
            if node.kind() != new_node.kind() || old_fanin != new_fanin {
                // A flip-flop's only mutable aspect is its D pin; the
                // role check above already pinned the kind.
                redriven.push(Redrive {
                    node: base_id,
                    kind: new_node.kind(),
                    fanin: new_fanin,
                });
            }
        }

        // The base's output-marker list must survive as a prefix of the
        // new one (mapped through the name space); the tail is the
        // delta's appended markers. Anything else reshapes the response
        // vector layout and is inexpressible id-stably.
        let mut expected_prefix = Vec::with_capacity(base.outputs().len());
        for &po in base.outputs() {
            let name = base.node(po).name().expect("checked by named_ids");
            let Some(&new_id) = new_names.get(name) else {
                return Err(NetlistError::UnsupportedEdit {
                    node: po,
                    reason: format!("output marker `{name}` disappears"),
                });
            };
            expected_prefix.push(new_id);
        }
        if new.outputs().len() < expected_prefix.len()
            || new.outputs()[..expected_prefix.len()] != expected_prefix[..]
        {
            return Err(NetlistError::UnsupportedEdit {
                node: NodeId::from_index(0),
                reason: "base output markers removed or reordered".to_string(),
            });
        }
        let outputs: Vec<DeltaRef> = new.outputs()[expected_prefix.len()..]
            .iter()
            .map(|&o| resolve_new(o))
            .collect::<Result<_, _>>()?;

        Ok(NetlistDelta {
            base_nodes: base.num_nodes(),
            added: added.into_iter().map(|(_, dn)| dn).collect(),
            redriven,
            removed,
            outputs,
        })
    }

    /// Every patched-circuit node the edit touches directly: re-driven
    /// nodes, removed nodes (tombstones), and added nodes. Downstream
    /// invalidation grows this seed set into
    /// [`CompiledTopology::dirty_cones`](crate::CompiledTopology::dirty_cones).
    pub fn touched(&self) -> Vec<NodeId> {
        let mut t: Vec<NodeId> = self
            .redriven
            .iter()
            .map(|r| r.node)
            .chain(self.removed.iter().copied())
            .collect();
        t.extend((0..self.added.len()).map(|i| NodeId::from_index(self.base_nodes + i)));
        t.sort_unstable();
        t.dedup();
        t
    }

    /// Applies the script to `base`, producing the patched circuit.
    /// Surviving base nodes keep their ids; added nodes get ids
    /// `base_nodes..`; removed nodes become dead tombstones.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DeltaBaseMismatch`] when `base` does not
    /// have `base_nodes` nodes, and [`NetlistError::UnsupportedEdit`]
    /// when a removed node is still read after the edit (removals must
    /// leave dead logic only) or an added `Dff` lacks its D pin. The
    /// patched circuit is re-validated before it is returned.
    pub fn apply(&self, base: &Circuit) -> Result<Circuit, NetlistError> {
        if base.num_nodes() != self.base_nodes {
            return Err(NetlistError::DeltaBaseMismatch {
                expected: self.base_nodes,
                found: base.num_nodes(),
            });
        }
        let mut out = base.clone();
        // Additions first so DeltaRef::Added resolves for re-drives.
        for (i, dn) in self.added.iter().enumerate() {
            let fanin: Vec<NodeId> = dn
                .fanin
                .iter()
                .map(|r| r.resolve(self.base_nodes))
                .collect();
            let id = match dn.kind {
                GateKind::Input => out.add_input(dn.name.clone()),
                GateKind::Const0 => out.add_const(false, dn.name.clone()),
                GateKind::Const1 => out.add_const(true, dn.name.clone()),
                GateKind::Dff => {
                    let id = out.add_dff_placeholder(dn.name.clone());
                    let &[d] = fanin.as_slice() else {
                        return Err(NetlistError::UnsupportedEdit {
                            node: id,
                            reason: format!(
                                "added flip-flop `{}` needs exactly one D pin",
                                dn.name
                            ),
                        });
                    };
                    out.set_dff_input(id, d)?;
                    id
                }
                kind => out.add_gate(kind, fanin, dn.name.clone()),
            };
            debug_assert_eq!(id.index(), self.base_nodes + i);
        }
        for r in &self.redriven {
            let fanin: Vec<NodeId> = r.fanin.iter().map(|f| f.resolve(self.base_nodes)).collect();
            if r.kind == GateKind::Dff {
                let &[d] = fanin.as_slice() else {
                    return Err(NetlistError::UnsupportedEdit {
                        node: r.node,
                        reason: "re-driven flip-flop needs exactly one D pin".to_string(),
                    });
                };
                out.set_dff_input(r.node, d)?;
            } else {
                out.redrive(r.node, r.kind, fanin);
            }
        }
        for &po in &self.outputs {
            out.mark_output(po.resolve(self.base_nodes));
        }
        // Removals must leave dead logic: after the re-drives, no
        // survivor (and no output marker) may still read a node about to
        // be tombstoned. Checked before tombstoning, since tombstoning
        // itself strips the node from the marker lists.
        if !self.removed.is_empty() {
            let removed: std::collections::HashSet<NodeId> = self.removed.iter().copied().collect();
            for (id, node) in out.iter() {
                if removed.contains(&id) {
                    continue;
                }
                if let Some(&dead) = node.fanin().iter().find(|f| removed.contains(f)) {
                    return Err(NetlistError::UnsupportedEdit {
                        node: id,
                        reason: format!("node still reads removed node {dead}"),
                    });
                }
            }
            if let Some(&dead) = out.outputs().iter().find(|o| removed.contains(o)) {
                return Err(NetlistError::UnsupportedEdit {
                    node: dead,
                    reason: "removed node is still a primary output".to_string(),
                });
            }
            for &dead in &self.removed {
                out.tombstone(dead);
            }
        }
        out.validate()?;
        Ok(out)
    }
}

/// Whether a node name marks a tombstone left by [`Circuit::tombstone`].
fn is_tombstone_name(name: &str) -> bool {
    name.starts_with("__removed_")
}

/// Name → id map, failing on anonymous or duplicate names.
fn named_ids(circuit: &Circuit) -> Result<HashMap<String, NodeId>, NetlistError> {
    let mut map = HashMap::with_capacity(circuit.num_nodes());
    for (id, node) in circuit.iter() {
        let Some(name) = node.name() else {
            return Err(NetlistError::AmbiguousName {
                node: id,
                name: "<unnamed>".to_string(),
            });
        };
        if map.insert(name.to_string(), id).is_some() {
            return Err(NetlistError::AmbiguousName {
                node: id,
                name: name.to_string(),
            });
        }
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> (Circuit, [NodeId; 5]) {
        let mut c = Circuit::new("d");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, vec![a, b], "g");
        let h = c.add_gate(GateKind::Not, vec![g], "h");
        let ff = c.add_dff(h, "ff");
        c.mark_output(h);
        c.mark_output(ff);
        (c, [a, b, g, h, ff])
    }

    #[test]
    fn empty_delta_is_identity() {
        let (c, _) = base();
        let d = NetlistDelta::empty(c.num_nodes());
        assert!(d.is_empty());
        let patched = d.apply(&c).unwrap();
        assert_eq!(format!("{c}"), format!("{patched}"));
    }

    #[test]
    fn diff_detects_redrive() {
        let (c, [a, b, g, ..]) = base();
        let mut eco = c.clone();
        eco.redrive(g, GateKind::Nor, vec![a, b]);
        let d = NetlistDelta::diff(&c, &eco).unwrap();
        assert_eq!(d.added.len(), 0);
        assert_eq!(d.removed.len(), 0);
        assert_eq!(d.redriven.len(), 1);
        assert_eq!(d.touched(), vec![g]);
        let patched = d.apply(&c).unwrap();
        assert_eq!(patched.node(g).kind(), GateKind::Nor);
    }

    #[test]
    fn diff_detects_addition_with_cross_refs() {
        let (c, [a, ..]) = base();
        let mut eco = c.clone();
        let x = eco.add_gate(GateKind::Not, vec![a], "x");
        let _y = eco.add_gate(GateKind::Buf, vec![x], "y");
        let d = NetlistDelta::diff(&c, &eco).unwrap();
        assert_eq!(d.added.len(), 2);
        assert_eq!(d.added[1].fanin, vec![DeltaRef::Added(0)]);
        let patched = d.apply(&c).unwrap();
        assert_eq!(patched.num_nodes(), c.num_nodes() + 2);
        assert_eq!(patched.find_by_name("y"), Some(NodeId::from_index(6)));
    }

    #[test]
    fn removal_requires_dead_node() {
        let (c, [.., g, _h, _ff]) = base();
        // g is still read by h: removing it must fail.
        let d = NetlistDelta {
            base_nodes: c.num_nodes(),
            removed: vec![g],
            ..NetlistDelta::default()
        };
        assert!(d.apply(&c).is_err());
    }

    #[test]
    fn remove_after_rewire_tombstones_in_place() {
        let (c, [a, _b, g, h, ff]) = base();
        let mut eco = c.clone();
        // Bypass g (h reads a directly), then drop g.
        eco.redrive(h, GateKind::Not, vec![a]);
        let d = NetlistDelta::diff(&c, &{
            let mut e = eco.clone();
            e.tombstone(g);
            e
        })
        .unwrap();
        assert_eq!(d.removed, vec![g]);
        let patched = d.apply(&c).unwrap();
        assert_eq!(patched.num_nodes(), c.num_nodes());
        assert_eq!(patched.node(g).kind(), GateKind::Const0);
        assert_eq!(patched.node(h).fanin(), &[a]);
        assert_eq!(patched.dffs(), &[ff]);
    }

    #[test]
    fn diff_rejects_role_change() {
        let (c, _) = base();
        let mut other = Circuit::new("d");
        other.add_input("a");
        other.add_input("b");
        // `g` is an input here instead of a gate.
        let g = other.add_input("g");
        let h = other.add_gate(GateKind::Not, vec![g], "h");
        other.add_dff(h, "ff");
        other.mark_output(h);
        assert!(NetlistDelta::diff(&c, &other).is_err());
    }

    #[test]
    fn full_delta_rebuilds_the_circuit() {
        let (c, _) = base();
        let d = NetlistDelta::full(&c);
        assert_eq!(d.base_nodes, 0);
        assert_eq!(d.added.len(), c.num_nodes());
        let rebuilt = d.apply(&Circuit::new("d")).unwrap();
        assert_eq!(format!("{c}"), format!("{rebuilt}"));
    }

    #[test]
    fn dff_d_pin_rewire_diffs_as_redrive() {
        let (c, [a, _b, _g, _h, ff]) = base();
        let mut eco = c.clone();
        eco.set_dff_input(ff, a).unwrap();
        let d = NetlistDelta::diff(&c, &eco).unwrap();
        assert_eq!(d.redriven.len(), 1);
        assert_eq!(d.redriven[0].kind, GateKind::Dff);
        let patched = d.apply(&c).unwrap();
        assert_eq!(patched.node(ff).fanin(), &[a]);
    }
}
