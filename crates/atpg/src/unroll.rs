//! Time-frame expansion: unrolling a sequential circuit into a
//! combinational model.

use fscan_fault::{Fault, FaultSite};
use fscan_netlist::{Circuit, CompiledTopology, GateKind, NodeId};

/// A sequential circuit unrolled over a fixed number of time frames.
///
/// * Frame-`t` primary inputs become fresh inputs `pi(t, k)`.
/// * Frame-0 flip-flop outputs become fresh inputs `state0(k)` — the
///   caller decides which of them are controllable.
/// * Each flip-flop's D pin in frame `t` drives an explicit *capture
///   buffer* `capture(t, k)`; the buffer feeds the frame-`t+1` state.
///   Capture buffers make flip-flop D-pin branch faults representable as
///   plain stem faults and give sequential ATPG well-defined
///   pseudo-observation points.
/// * Frame-`t` primary outputs are marked as outputs of the unrolled
///   circuit in frame-major order.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{Circuit, CompiledTopology, GateKind};
/// use fscan_atpg::unroll;
///
/// let mut c = Circuit::new("toggle");
/// let ff = c.add_dff_placeholder("ff");
/// let n = c.add_gate(GateKind::Not, vec![ff], "n");
/// c.set_dff_input(ff, n)?;
/// c.mark_output(ff);
/// let (u, _) = unroll(&c, &CompiledTopology::compile(&c), 3);
/// assert_eq!(u.frames(), 3);
/// assert_eq!(u.circuit().outputs().len(), 3);
/// # Ok::<(), fscan_netlist::NetlistError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Unrolled {
    circuit: Circuit,
    frames: usize,
    pi: Vec<Vec<NodeId>>,
    state0: Vec<NodeId>,
    capture: Vec<Vec<NodeId>>,
    po: Vec<Vec<NodeId>>,
}

impl Unrolled {
    /// The unrolled combinational circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Number of time frames.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// The unrolled node for primary input `k` in frame `t`.
    pub fn pi(&self, t: usize, k: usize) -> NodeId {
        self.pi[t][k]
    }

    /// All frame-`t` primary-input nodes, in original input order.
    pub fn pis(&self, t: usize) -> &[NodeId] {
        &self.pi[t]
    }

    /// The frame-0 state input for flip-flop `k` (original `dffs` order).
    pub fn state0(&self, k: usize) -> NodeId {
        self.state0[k]
    }

    /// All frame-0 state inputs.
    pub fn state0s(&self) -> &[NodeId] {
        &self.state0
    }

    /// The capture buffer of flip-flop `k` in frame `t` (what the
    /// flip-flop would latch at the end of frame `t`).
    pub fn capture(&self, t: usize, k: usize) -> NodeId {
        self.capture[t][k]
    }

    /// All frame-`t` capture buffers.
    pub fn captures(&self, t: usize) -> &[NodeId] {
        &self.capture[t]
    }

    /// The frame-`t` copies of the original primary outputs.
    pub fn pos(&self, t: usize) -> &[NodeId] {
        &self.po[t]
    }

    /// Maps an original-circuit fault into its frame-`t` copy.
    ///
    /// A branch fault on a flip-flop's D pin maps to a stem fault on the
    /// frame's capture buffer (the same physical wire).
    ///
    /// Returns `None` if the faulted structure has no copy in the frame
    /// (cannot happen for faults enumerated from the original circuit).
    pub fn map_fault(
        &self,
        original: &Circuit,
        fault: Fault,
        t: usize,
        map: &FrameMap,
    ) -> Option<Fault> {
        match fault.site {
            FaultSite::Stem(n) => {
                if original.node(n).kind() == GateKind::Dff {
                    // A DFF output stem in frame t is the state input of
                    // frame t: for t == 0 the state0 input, otherwise the
                    // capture buffer of frame t-1.
                    let k = map.dff_index(n)?;
                    let node = if t == 0 {
                        self.state0[k]
                    } else {
                        self.capture[t - 1][k]
                    };
                    Some(Fault::stem(node, fault.stuck))
                } else {
                    Some(Fault::stem(map.get(t, n)?, fault.stuck))
                }
            }
            FaultSite::Branch { gate, pin } => {
                if original.node(gate).kind() == GateKind::Dff {
                    let k = map.dff_index(gate)?;
                    Some(Fault::stem(self.capture[t][k], fault.stuck))
                } else {
                    Some(Fault::branch(map.get(t, gate)?, pin, fault.stuck))
                }
            }
        }
    }
}

/// Mapping from `(frame, original node)` to unrolled nodes, for gates
/// and primary inputs (flip-flops map through state/capture tables).
///
/// Two dense tables built once per unroll: one per frame indexed by
/// original node id, and each original node's flip-flop index.
#[derive(Clone, Debug, Default)]
pub struct FrameMap {
    /// `frames[t][original id]`: the frame-`t` copy, if the node has one.
    frames: Vec<Vec<Option<NodeId>>>,
    /// `dff[original id]`: the node's index in `Circuit::dffs`, if any.
    dff: Vec<Option<usize>>,
}

impl FrameMap {
    fn new(circuit: &Circuit, frames: usize) -> FrameMap {
        let mut dff = vec![None; circuit.num_nodes()];
        for (k, &ff) in circuit.dffs().iter().enumerate() {
            dff[ff.index()] = Some(k);
        }
        FrameMap {
            frames: Vec::with_capacity(frames),
            dff,
        }
    }

    /// The frame-`frame` copy of original node `node`: `None` for
    /// flip-flops, and for frames or nodes outside the unroll.
    pub fn get(&self, frame: usize, node: NodeId) -> Option<NodeId> {
        *self.frames.get(frame)?.get(node.index())?
    }

    /// Original node `node`'s index in `Circuit::dffs`, if it is a
    /// flip-flop.
    fn dff_index(&self, node: NodeId) -> Option<usize> {
        *self.dff.get(node.index())?
    }
}

/// Unrolls `circuit` over `frames` time frames against its compiled
/// topology `topo`, returning the model (see [`Unrolled`]) and the node
/// map used by [`Unrolled::map_fault`].
///
/// # Panics
///
/// Panics if `frames == 0`.
pub fn unroll(circuit: &Circuit, topo: &CompiledTopology, frames: usize) -> (Unrolled, FrameMap) {
    assert!(frames > 0, "need at least one frame");
    debug_assert_eq!(circuit.num_nodes(), topo.num_nodes());
    let mut out = Circuit::new(format!("{}@x{}", circuit.name(), frames));
    let mut map = FrameMap::new(circuit, frames);

    // Frame-0 state inputs.
    let state0: Vec<NodeId> = circuit
        .dffs()
        .iter()
        .enumerate()
        .map(|(k, _)| out.add_input(format!("s0_{k}")))
        .collect();

    let mut pi_all = Vec::with_capacity(frames);
    let mut capture_all = Vec::with_capacity(frames);
    let mut po_all = Vec::with_capacity(frames);
    // state[k] = unrolled node currently feeding DFF k's output.
    let mut state = state0.clone();

    for t in 0..frames {
        let mut frame: Vec<Option<NodeId>> = vec![None; circuit.num_nodes()];
        // Fresh PIs for the frame.
        let pis: Vec<NodeId> = circuit
            .inputs()
            .iter()
            .enumerate()
            .map(|(k, &orig)| {
                let id = out.add_input(format!("pi{t}_{k}"));
                frame[orig.index()] = Some(id);
                id
            })
            .collect();
        // Copy combinational nodes in topological order.
        let resolve = |frame: &[Option<NodeId>], state: &[NodeId], orig: NodeId| -> NodeId {
            frame[orig.index()].unwrap_or_else(|| {
                let k = map
                    .dff_index(orig)
                    .expect("unresolved fanin must be a flip-flop");
                state[k]
            })
        };
        for &id in topo.order() {
            let node = circuit.node(id);
            let kind = node.kind();
            if kind == GateKind::Input || kind == GateKind::Dff {
                continue;
            }
            let fanin: Vec<NodeId> = node
                .fanin()
                .iter()
                .map(|&f| resolve(&frame, &state, f))
                .collect();
            let name = format!("{}_{t}", node.name().unwrap_or("n"));
            let new_id = if matches!(kind, GateKind::Const0 | GateKind::Const1) {
                out.add_const(kind == GateKind::Const1, name)
            } else {
                out.add_gate(kind, fanin, name)
            };
            frame[id.index()] = Some(new_id);
        }
        // Frame POs.
        let pos: Vec<NodeId> = circuit
            .outputs()
            .iter()
            .map(|&o| resolve(&frame, &state, o))
            .collect();
        for &p in &pos {
            out.mark_output(p);
        }
        // Capture buffers become next frame's state.
        let captures: Vec<NodeId> = circuit
            .dffs()
            .iter()
            .enumerate()
            .map(|(k, &ff)| {
                let d = circuit.node(ff).fanin()[0];
                let src = resolve(&frame, &state, d);
                out.add_gate(GateKind::Buf, vec![src], format!("cap{t}_{k}"))
            })
            .collect();
        state = captures.clone();
        map.frames.push(frame);
        pi_all.push(pis);
        capture_all.push(captures);
        po_all.push(pos);
    }

    debug_assert!(out.validate().is_ok());
    (
        Unrolled {
            circuit: out,
            frames,
            pi: pi_all,
            state0,
            capture: capture_all,
            po: po_all,
        },
        map,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscan_netlist::GateKind;
    use fscan_sim::{CombEvaluator, SeqSim, V3};

    fn toggle() -> Circuit {
        let mut c = Circuit::new("toggle");
        let ff = c.add_dff_placeholder("ff");
        let n = c.add_gate(GateKind::Not, vec![ff], "n");
        c.set_dff_input(ff, n).unwrap();
        c.mark_output(ff);
        c
    }

    #[test]
    fn unrolled_matches_sequential_simulation() {
        // A small circuit with an input: ff <- XOR(ff, pi); po = ff.
        let mut c = Circuit::new("acc");
        let pi = c.add_input("pi");
        let ff = c.add_dff_placeholder("ff");
        let x = c.add_gate(GateKind::Xor, vec![ff, pi], "x");
        c.set_dff_input(ff, x).unwrap();
        c.mark_output(ff);
        let frames = 4;
        let (u, _) = unroll(&c, &CompiledTopology::compile(&c), frames);
        // Sequential run.
        let stream = [true, false, true, true];
        let vectors: Vec<Vec<V3>> = stream.iter().map(|&b| vec![V3::from(b)]).collect();
        let seq_trace = SeqSim::new(&c).run(&vectors, &[V3::Zero], None);
        // Combinational run on the unrolled model.
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(u.circuit()));
        let mut values = vec![V3::X; u.circuit().num_nodes()];
        values[u.state0(0).index()] = V3::Zero;
        for (t, &b) in stream.iter().enumerate() {
            values[u.pi(t, 0).index()] = V3::from(b);
        }
        eval.eval(&mut values);
        for t in 0..frames {
            assert_eq!(
                values[u.pos(t)[0].index()],
                seq_trace.outputs[t][0],
                "frame {t}"
            );
        }
    }

    #[test]
    fn toggle_unroll_structure() {
        let c = toggle();
        let (u, _) = unroll(&c, &CompiledTopology::compile(&c), 3);
        assert_eq!(u.frames(), 3);
        assert_eq!(u.state0s().len(), 1);
        assert_eq!(u.captures(0).len(), 1);
        // state0 input + 3 × (NOT + capture buf) = 7 nodes.
        assert_eq!(u.circuit().num_nodes(), 7);
    }

    #[test]
    fn map_stem_fault_on_gate() {
        let c = toggle();
        let n = c.find_by_name("n").unwrap();
        let (u, map) = unroll(&c, &CompiledTopology::compile(&c), 2);
        let f0 = u.map_fault(&c, Fault::stem(n, true), 0, &map).unwrap();
        let f1 = u.map_fault(&c, Fault::stem(n, true), 1, &map).unwrap();
        assert_ne!(f0, f1);
        assert!(matches!(f0.site, FaultSite::Stem(_)));
    }

    #[test]
    fn map_dff_output_fault() {
        let c = toggle();
        let ff = c.dffs()[0];
        let (u, map) = unroll(&c, &CompiledTopology::compile(&c), 2);
        let f0 = u.map_fault(&c, Fault::stem(ff, false), 0, &map).unwrap();
        assert_eq!(f0, Fault::stem(u.state0(0), false));
        let f1 = u.map_fault(&c, Fault::stem(ff, false), 1, &map).unwrap();
        assert_eq!(f1, Fault::stem(u.capture(0, 0), false));
    }

    #[test]
    fn frame_map_covers_inputs_and_gates_but_not_flip_flops() {
        let mut c = Circuit::new("acc");
        let pi = c.add_input("pi");
        let ff = c.add_dff_placeholder("ff");
        let x = c.add_gate(GateKind::Xor, vec![ff, pi], "x");
        c.set_dff_input(ff, x).unwrap();
        c.mark_output(x);
        let (u, map) = unroll(&c, &CompiledTopology::compile(&c), 3);
        for t in 0..3 {
            assert_eq!(map.get(t, pi), Some(u.pi(t, 0)));
            assert_eq!(map.get(t, ff), None);
            let copy = map.get(t, x).expect("gate copied in every frame");
            let name = format!("x_{t}");
            assert_eq!(u.circuit().node(copy).name(), Some(name.as_str()));
            assert_eq!(u.pos(t), &[copy]);
        }
        assert_eq!(map.get(3, x), None, "no fourth frame");
        assert_eq!(map.get(0, NodeId::from_index(c.num_nodes())), None);
    }

    #[test]
    fn map_dff_dpin_branch_fault() {
        let c = toggle();
        let ff = c.dffs()[0];
        let (u, map) = unroll(&c, &CompiledTopology::compile(&c), 2);
        let f = u
            .map_fault(&c, Fault::branch(ff, 0, true), 1, &map)
            .unwrap();
        assert_eq!(f, Fault::stem(u.capture(1, 0), true));
    }
}
