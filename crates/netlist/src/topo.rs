//! The compiled circuit plan: CSR adjacency, levelized order and index
//! tables, built once and shared by every engine.
//!
//! Historically each engine (`CombEvaluator`, `ImplicationEngine`,
//! `ParallelFaultSim`, PODEM, the unroller…) rederived levels and fanout
//! lists from [`Circuit`] on construction. [`CompiledTopology`] performs
//! that derivation exactly once and packs the result into flat,
//! cache-friendly arrays:
//!
//! * fanin and fanout adjacency in CSR form (one `u32` offset array plus
//!   flat edge arrays instead of `Vec<Vec<…>>`);
//! * the Kahn levelization (full topological order, per-node levels,
//!   combinational depth) — identical, entry for entry, to
//!   [`Levelization`](crate::Levelization), which now serves as the
//!   naive reference oracle;
//! * the evaluation order (gates and constants only) with per-node
//!   positions, shared by every levelized and event-driven simulator;
//! * gate kinds in a flat SoA array and the PI/PO/DFF index tables.
//!
//! The struct is immutable after construction; engines hold it behind an
//! [`Arc`] so one compilation serves all pipeline stages and every
//! worker thread. The process-wide build counter
//! ([`CompiledTopology::builds`]) lets tests assert the compile-once
//! property.
//!
//! Invariants (checked by the proptest oracle in `tests/props.rs`):
//!
//! * `fanin(id)` equals `Circuit::node(id).fanin()` byte for byte
//!   (including a placeholder flip-flop's self edge);
//! * `fanouts(id)` equals `FanoutTable::fanouts(id)` (the placeholder
//!   self edge is *skipped*, exactly as there);
//! * `order()`/`level(id)`/`depth()` equal the [`Levelization`] results.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::circuit::{Circuit, NodeId};
use crate::delta::NetlistDelta;
use crate::gate::GateKind;

/// Process-wide count of topology compilations (see
/// [`CompiledTopology::builds`]).
static BUILDS: AtomicU64 = AtomicU64::new(0);

/// The raw node table a topology is compiled from — the shared input of
/// both the cold path ([`CompiledTopology::compile`], built from a
/// [`Circuit`]) and the incremental path
/// ([`CompiledTopology::patch`], built from a base topology plus a
/// [`NetlistDelta`]). Keeping one compilation core guarantees the two
/// paths produce bit-identical plans.
struct NodeTable {
    kinds: Vec<GateKind>,
    fanin_offsets: Vec<u32>,
    fanin_edges: Vec<NodeId>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    dffs: Vec<NodeId>,
}

/// Which parts of a patched topology actually changed, as computed by
/// [`CompiledTopology::patch`] and consumed by every downstream reuse
/// decision (trace replay, verdict carry-forward, fault re-enqueueing).
///
/// Three nested sets, all in patched-circuit node ids:
///
/// * [`touched`](DirtyInfo::touched) — the nodes the edit script names
///   directly (added, re-driven, removed);
/// * [`cones`](DirtyInfo::cones) — the forward closure of `touched`
///   over fanout edges, **crossing flip-flops**: every node whose
///   good-machine value may differ from the base design on some cycle;
/// * [`support`](DirtyInfo::support) — the backward closure of `cones`
///   over fanin edges of both the patched and the base netlist: every
///   node from which a changed value or a changed propagation path is
///   reachable. A fault is invalidated by the edit **iff** its affected
///   node lies in `support`; a fault outside it has its entire fault
///   cone (effect region and observation sites) in territory where the
///   good machine is provably unchanged.
///
/// When the edit changes the primary-input, primary-output or flip-flop
/// *lists* themselves (scan order, vector layout), incremental reuse is
/// unsound no matter how small the cone; such patches report
/// [`is_full`](DirtyInfo::is_full) and all three sets cover the whole
/// node table.
#[derive(Clone, Debug)]
pub struct DirtyInfo {
    touched: Vec<NodeId>,
    cones: Vec<NodeId>,
    support: Vec<NodeId>,
    full: bool,
}

impl DirtyInfo {
    /// Nodes the edit script names directly, sorted by id.
    pub fn touched(&self) -> &[NodeId] {
        &self.touched
    }

    /// The dirty fanout cones (forward closure of
    /// [`touched`](Self::touched), flip-flop crossing), sorted by id.
    pub fn cones(&self) -> &[NodeId] {
        &self.cones
    }

    /// The invalidation support (backward closure of
    /// [`cones`](Self::cones) over base ∪ patched fanin), sorted by id.
    pub fn support(&self) -> &[NodeId] {
        &self.support
    }

    /// Whether `id` lies in a dirty cone.
    pub fn in_cones(&self, id: NodeId) -> bool {
        self.cones.binary_search(&id).is_ok()
    }

    /// Whether `id` lies in the invalidation support — the per-fault
    /// invalidation test.
    pub fn in_support(&self, id: NodeId) -> bool {
        self.support.binary_search(&id).is_ok()
    }

    /// `true` when the edit forces full recomputation (primary-input,
    /// primary-output or flip-flop list changed).
    pub fn is_full(&self) -> bool {
        self.full
    }
}

/// An immutable, flat compilation of a [`Circuit`]: CSR fanin/fanout
/// adjacency, the levelized order, per-node levels, gate kinds in SoA
/// layout and the PI/PO/DFF index tables.
///
/// Built once per design (see [`fscan_scan::ScanDesign::topology`] in
/// the scan crate) and shared by reference across every engine and
/// worker thread.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{Circuit, CompiledTopology, GateKind};
///
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// let g1 = c.add_gate(GateKind::Not, vec![a], "g1");
/// let g2 = c.add_gate(GateKind::And, vec![a, g1], "g2");
/// let topo = CompiledTopology::compile(&c);
/// assert_eq!(topo.level(g2), 2);
/// assert_eq!(topo.fanout_sinks(a), &[g1, g2]);
/// assert_eq!(topo.fanin(g2), &[a, g1]);
/// ```
#[derive(Clone, Debug)]
pub struct CompiledTopology {
    num_nodes: usize,
    kinds: Vec<GateKind>,
    fanin_offsets: Vec<u32>,
    fanin_edges: Vec<NodeId>,
    fanout_offsets: Vec<u32>,
    fanout_sinks: Vec<NodeId>,
    fanout_pins: Vec<u32>,
    order: Vec<NodeId>,
    level: Vec<u32>,
    depth: u32,
    eval_order: Vec<NodeId>,
    eval_pos: Vec<u32>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    dffs: Vec<NodeId>,
    output_reads: Vec<u32>,
    dirty: Option<DirtyInfo>,
}

impl CompiledTopology {
    /// Compiles `circuit` into its flat plan. This is the only place in
    /// the workspace that levelizes or builds fanout adjacency for
    /// production engines; each call increments the process-wide
    /// [`builds`](Self::builds) counter.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has combinational cycles (call
    /// [`Circuit::validate`] first for a proper error).
    pub fn compile(circuit: &Circuit) -> CompiledTopology {
        BUILDS.fetch_add(1, Ordering::Relaxed);
        let n = circuit.num_nodes();

        let mut kinds = Vec::with_capacity(n);
        let mut fanin_offsets = Vec::with_capacity(n + 1);
        let mut fanin_edges = Vec::new();
        fanin_offsets.push(0u32);
        for (_, node) in circuit.iter() {
            kinds.push(node.kind());
            fanin_edges.extend_from_slice(node.fanin());
            fanin_offsets.push(fanin_edges.len() as u32);
        }

        Self::compile_parts(
            NodeTable {
                kinds,
                fanin_offsets,
                fanin_edges,
                inputs: circuit.inputs().to_vec(),
                outputs: circuit.outputs().to_vec(),
                dffs: circuit.dffs().to_vec(),
            },
            None,
        )
    }

    /// The shared compilation core: every plan — cold or patched — is
    /// derived from a [`NodeTable`] by this one function, which is what
    /// makes [`patch`](Self::patch) bit-identical to a fresh
    /// [`compile`](Self::compile) of the patched circuit.
    fn compile_parts(t: NodeTable, dirty: Option<DirtyInfo>) -> CompiledTopology {
        let NodeTable {
            kinds,
            fanin_offsets,
            fanin_edges,
            inputs,
            outputs,
            dffs,
        } = t;
        let n = kinds.len();
        let fanin =
            |id: usize| &fanin_edges[fanin_offsets[id] as usize..fanin_offsets[id + 1] as usize];

        // Fanout CSR: counting pass, then fill. Iterating nodes in id
        // order and pins in pin order reproduces FanoutTable's per-source
        // ordering exactly. A placeholder DFF feeds back on itself; skip
        // that edge so traversals do not see a phantom reader.
        let mut fanout_offsets = vec![0u32; n + 1];
        for (id, &kind) in kinds.iter().enumerate() {
            for &src in fanin(id) {
                if src.index() == id && kind == GateKind::Dff {
                    continue;
                }
                fanout_offsets[src.index() + 1] += 1;
            }
        }
        for i in 0..n {
            fanout_offsets[i + 1] += fanout_offsets[i];
        }
        let num_edges = fanout_offsets[n] as usize;
        let mut fanout_sinks = vec![NodeId::from_index(0); num_edges];
        let mut fanout_pins = vec![0u32; num_edges];
        let mut next = fanout_offsets.clone();
        for (id, &kind) in kinds.iter().enumerate() {
            for (pin, &src) in fanin(id).iter().enumerate() {
                if src.index() == id && kind == GateKind::Dff {
                    continue;
                }
                let slot = next[src.index()] as usize;
                next[src.index()] += 1;
                fanout_sinks[slot] = NodeId::from_index(id);
                fanout_pins[slot] = pin as u32;
            }
        }

        // Kahn levelization over combinational edges, identical to the
        // naive `Levelization` reference: DFF fanins are sequential edges
        // and do not count, DFF/Input/Const nodes sit at level 0, and the
        // queue is seeded in node-id order.
        let mut level = vec![0u32; n];
        let mut indegree = vec![0u32; n];
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        for id in 0..n {
            if kinds[id].is_gate() {
                indegree[id] = fanin(id).len() as u32;
            }
        }
        let mut queue: Vec<NodeId> = (0..n)
            .filter(|&id| indegree[id] == 0)
            .map(NodeId::from_index)
            .collect();
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            order.push(id);
            let lo = fanout_offsets[id.index()] as usize;
            let hi = fanout_offsets[id.index() + 1] as usize;
            for &sink in &fanout_sinks[lo..hi] {
                if !kinds[sink.index()].is_gate() {
                    continue;
                }
                let l = level[id.index()] + 1;
                if l > level[sink.index()] {
                    level[sink.index()] = l;
                }
                indegree[sink.index()] -= 1;
                if indegree[sink.index()] == 0 {
                    queue.push(sink);
                }
            }
        }
        assert_eq!(
            order.len(),
            n,
            "topology compilation failed: combinational cycle present"
        );
        let depth = level.iter().copied().max().unwrap_or(0);

        let eval_order: Vec<NodeId> = order
            .iter()
            .copied()
            .filter(|&id| {
                let k = kinds[id.index()];
                k.is_gate() || matches!(k, GateKind::Const0 | GateKind::Const1)
            })
            .collect();
        let mut eval_pos = vec![u32::MAX; n];
        for (i, &id) in eval_order.iter().enumerate() {
            eval_pos[id.index()] = i as u32;
        }

        let mut output_reads = vec![0u32; n];
        for &po in &outputs {
            output_reads[po.index()] += 1;
        }

        CompiledTopology {
            num_nodes: n,
            kinds,
            fanin_offsets,
            fanin_edges,
            fanout_offsets,
            fanout_sinks,
            fanout_pins,
            order,
            level,
            depth,
            eval_order,
            eval_pos,
            inputs,
            outputs,
            dffs,
            output_reads,
            dirty,
        }
    }

    /// Rebuilds the plan for the circuit obtained by applying `delta` to
    /// this topology's circuit, without consulting the [`Circuit`]
    /// again: the patched node table is reconstructed from the base plan
    /// plus the edit script and fed through the same compilation core as
    /// [`compile`](Self::compile), so the result is **bit-identical** to
    /// `CompiledTopology::compile(&delta.apply(&base)?)` — and a full
    /// build is just a patch against the empty design.
    ///
    /// The returned topology additionally carries a [`DirtyInfo`]
    /// (see [`dirty`](Self::dirty)) describing the invalidated cones
    /// for downstream incremental consumers. `patch` does **not**
    /// increment the process-wide [`builds`](Self::builds) counter —
    /// that counts cold compilations only.
    ///
    /// # Panics
    ///
    /// Panics if `delta` was written against a different base size or
    /// the edit introduces a combinational cycle; apply the delta to the
    /// actual circuit first ([`NetlistDelta::apply`] validates) when the
    /// script is untrusted.
    pub fn patch(&self, delta: &NetlistDelta) -> CompiledTopology {
        assert_eq!(
            self.num_nodes, delta.base_nodes,
            "delta was written against a {}-node base, topology has {}",
            delta.base_nodes, self.num_nodes
        );
        let base_n = self.num_nodes;
        let n = base_n + delta.added.len();

        let removed: std::collections::HashSet<NodeId> = delta.removed.iter().copied().collect();
        let mut redriven: std::collections::HashMap<NodeId, (GateKind, Vec<NodeId>)> =
            std::collections::HashMap::with_capacity(delta.redriven.len());
        for r in &delta.redriven {
            let fanin: Vec<NodeId> = r.fanin.iter().map(|f| f.resolve(base_n)).collect();
            redriven.insert(r.node, (r.kind, fanin));
        }

        // Reconstruct the patched node table row by row.
        let mut kinds = Vec::with_capacity(n);
        let mut fanin_offsets = Vec::with_capacity(n + 1);
        let mut fanin_edges = Vec::new();
        fanin_offsets.push(0u32);
        for id in 0..base_n {
            let nid = NodeId::from_index(id);
            if removed.contains(&nid) {
                kinds.push(GateKind::Const0);
            } else if let Some((k, f)) = redriven.get(&nid) {
                kinds.push(*k);
                fanin_edges.extend_from_slice(f);
            } else {
                kinds.push(self.kinds[id]);
                fanin_edges.extend_from_slice(self.fanin(nid));
            }
            fanin_offsets.push(fanin_edges.len() as u32);
        }
        for dn in &delta.added {
            kinds.push(dn.kind);
            for &f in &dn.fanin {
                fanin_edges.push(f.resolve(base_n));
            }
            fanin_offsets.push(fanin_edges.len() as u32);
        }

        let survives = |id: &NodeId| !removed.contains(id);
        let mut inputs: Vec<NodeId> = self.inputs.iter().copied().filter(survives).collect();
        let mut dffs: Vec<NodeId> = self.dffs.iter().copied().filter(survives).collect();
        let mut outputs: Vec<NodeId> = self.outputs.iter().copied().filter(survives).collect();
        for (i, dn) in delta.added.iter().enumerate() {
            let id = NodeId::from_index(base_n + i);
            match dn.kind {
                GateKind::Input => inputs.push(id),
                GateKind::Dff => dffs.push(id),
                _ => {}
            }
        }
        outputs.extend(delta.outputs.iter().map(|o| o.resolve(base_n)));

        let dirty = self.dirty_info(delta, n, &kinds, &fanin_offsets, &fanin_edges, |t| {
            t.inputs != inputs || t.outputs != outputs || t.dffs != dffs
        });

        Self::compile_parts(
            NodeTable {
                kinds,
                fanin_offsets,
                fanin_edges,
                inputs,
                outputs,
                dffs,
            },
            Some(dirty),
        )
    }

    /// Computes the [`DirtyInfo`] for `delta` against this base plan,
    /// given the patched node table under construction.
    fn dirty_info(
        &self,
        delta: &NetlistDelta,
        n: usize,
        kinds: &[GateKind],
        fanin_offsets: &[u32],
        fanin_edges: &[NodeId],
        lists_changed: impl Fn(&CompiledTopology) -> bool,
    ) -> DirtyInfo {
        let touched = delta.touched();
        if lists_changed(self) {
            // Scan order / vector layout changed: everything is dirty.
            let all: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
            return DirtyInfo {
                touched,
                cones: all.clone(),
                support: all,
                full: true,
            };
        }

        let patched_fanin =
            |id: usize| &fanin_edges[fanin_offsets[id] as usize..fanin_offsets[id + 1] as usize];

        // Forward closure of the touched set over patched fanout edges,
        // crossing flip-flops: the patched fanin CSR is inverted on the
        // fly (the dedicated fanout CSR does not exist yet — it is built
        // by compile_parts after this analysis).
        let mut in_cone = vec![false; n];
        let mut stack: Vec<NodeId> = touched.clone();
        for &t in &stack {
            in_cone[t.index()] = true;
        }
        // Readers are found by scanning fanins once and recording, per
        // source, its reader list (only needed for the traversal here;
        // small deltas still pay O(E) once, same as compile_parts).
        let mut reader_offsets = vec![0u32; n + 1];
        for (id, &kind) in kinds.iter().enumerate() {
            for &src in patched_fanin(id) {
                if src.index() == id && kind == GateKind::Dff {
                    continue;
                }
                reader_offsets[src.index() + 1] += 1;
            }
        }
        for i in 0..n {
            reader_offsets[i + 1] += reader_offsets[i];
        }
        let mut readers = vec![NodeId::from_index(0); reader_offsets[n] as usize];
        let mut next = reader_offsets.clone();
        for (id, &kind) in kinds.iter().enumerate() {
            for &src in patched_fanin(id) {
                if src.index() == id && kind == GateKind::Dff {
                    continue;
                }
                readers[next[src.index()] as usize] = NodeId::from_index(id);
                next[src.index()] += 1;
            }
        }
        while let Some(node) = stack.pop() {
            let lo = reader_offsets[node.index()] as usize;
            let hi = reader_offsets[node.index() + 1] as usize;
            for &sink in &readers[lo..hi] {
                if !in_cone[sink.index()] {
                    in_cone[sink.index()] = true;
                    stack.push(sink);
                }
            }
        }
        let cones: Vec<NodeId> = (0..n)
            .filter(|&i| in_cone[i])
            .map(NodeId::from_index)
            .collect();

        // Backward closure of the cones over the union of patched and
        // base fanin edges: old propagation paths of re-driven/removed
        // nodes must invalidate their upstream faults too.
        let mut in_support = in_cone;
        let mut stack: Vec<NodeId> = cones.clone();
        while let Some(node) = stack.pop() {
            let mut visit = |src: NodeId| {
                if src != node && !in_support[src.index()] {
                    in_support[src.index()] = true;
                    stack.push(src);
                }
            };
            for &src in patched_fanin(node.index()) {
                visit(src);
            }
            if node.index() < self.num_nodes {
                for &src in self.fanin(node) {
                    visit(src);
                }
            }
        }
        let support: Vec<NodeId> = (0..n)
            .filter(|&i| in_support[i])
            .map(NodeId::from_index)
            .collect();

        DirtyInfo {
            touched,
            cones,
            support,
            full: false,
        }
    }

    /// [`compile`](Self::compile) wrapped in an [`Arc`], ready to share
    /// across engines and worker threads.
    pub fn shared(circuit: &Circuit) -> Arc<CompiledTopology> {
        Arc::new(CompiledTopology::compile(circuit))
    }

    /// Process-wide number of [`compile`](Self::compile) calls since
    /// startup. Tests snapshot this before and after a pipeline run to
    /// verify the compile-once property.
    pub fn builds() -> u64 {
        BUILDS.load(Ordering::Relaxed)
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The kind of node `id` (flat SoA lookup).
    pub fn kind(&self, id: NodeId) -> GateKind {
        self.kinds[id.index()]
    }

    /// The fanin nets of node `id` in pin order — identical to
    /// `Circuit::node(id).fanin()`, including a placeholder flip-flop's
    /// self edge.
    pub fn fanin(&self, id: NodeId) -> &[NodeId] {
        let lo = self.fanin_offsets[id.index()] as usize;
        let hi = self.fanin_offsets[id.index() + 1] as usize;
        &self.fanin_edges[lo..hi]
    }

    /// The sink nodes reading node `id`'s output (flip-flop D pins
    /// included; placeholder self edges and output markers excluded).
    pub fn fanout_sinks(&self, id: NodeId) -> &[NodeId] {
        let lo = self.fanout_offsets[id.index()] as usize;
        let hi = self.fanout_offsets[id.index() + 1] as usize;
        &self.fanout_sinks[lo..hi]
    }

    /// The pin index at which each [`fanout_sinks`](Self::fanout_sinks)
    /// entry reads node `id` (parallel slice).
    pub fn fanout_pins(&self, id: NodeId) -> &[u32] {
        let lo = self.fanout_offsets[id.index()] as usize;
        let hi = self.fanout_offsets[id.index() + 1] as usize;
        &self.fanout_pins[lo..hi]
    }

    /// The `(sink, pin)` readers of node `id` — the
    /// [`FanoutTable`](crate::FanoutTable)-shaped view over the CSR
    /// slices.
    pub fn fanouts(&self, id: NodeId) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.fanout_sinks(id)
            .iter()
            .zip(self.fanout_pins(id).iter())
            .map(|(&sink, &pin)| (sink, pin as usize))
    }

    /// Number of fanout readers of node `id` (output markers excluded).
    pub fn fanout_count(&self, id: NodeId) -> usize {
        self.fanout_sinks(id).len()
    }

    /// How many primary-output markers read node `id`.
    pub fn output_reads(&self, id: NodeId) -> usize {
        self.output_reads[id.index()] as usize
    }

    /// All nodes in topological (non-decreasing level) order; level-0
    /// nodes (inputs, constants, flip-flops) come first.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// The level of a node (0 for inputs, constants and flip-flops).
    pub fn level(&self, id: NodeId) -> u32 {
        self.level[id.index()]
    }

    /// The maximum level in the circuit (combinational depth).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The evaluation order: constants and gates only, topologically
    /// sorted — the subsequence of [`order`](Self::order) every
    /// simulator walks.
    pub fn eval_order(&self) -> &[NodeId] {
        &self.eval_order
    }

    /// Each node's position in [`eval_order`](Self::eval_order), indexed
    /// by node id (`u32::MAX` for nodes outside it: inputs, flip-flops).
    /// Event-driven consumers use this to schedule gates topologically.
    pub fn order_positions(&self) -> &[u32] {
        &self.eval_pos
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

    /// The dirty-set analysis attached by [`patch`](Self::patch), or
    /// `None` for a cold [`compile`](Self::compile).
    pub fn dirty(&self) -> Option<&DirtyInfo> {
        self.dirty.as_ref()
    }

    /// The dirty fanout cones of the patch that produced this topology
    /// (empty for a cold compile) — the set downstream layers scope
    /// their recomputation to.
    pub fn dirty_cones(&self) -> &[NodeId] {
        self.dirty.as_ref().map_or(&[], |d| d.cones())
    }

    /// Structural equality of two plans, ignoring the dirty-set
    /// annotation: `true` iff every derived artifact (adjacency, levels,
    /// orders, index tables) is bit-identical. The patch-vs-compile
    /// differential oracles are phrased in terms of this.
    pub fn same_plan(&self, other: &CompiledTopology) -> bool {
        self.num_nodes == other.num_nodes
            && self.kinds == other.kinds
            && self.fanin_offsets == other.fanin_offsets
            && self.fanin_edges == other.fanin_edges
            && self.fanout_offsets == other.fanout_offsets
            && self.fanout_sinks == other.fanout_sinks
            && self.fanout_pins == other.fanout_pins
            && self.order == other.order
            && self.level == other.level
            && self.depth == other.depth
            && self.eval_order == other.eval_order
            && self.eval_pos == other.eval_pos
            && self.inputs == other.inputs
            && self.outputs == other.outputs
            && self.dffs == other.dffs
            && self.output_reads == other.output_reads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorConfig};
    use crate::level::{FanoutTable, Levelization};

    fn assert_matches_naive(c: &Circuit) {
        let topo = CompiledTopology::compile(c);
        let lv = Levelization::new(c);
        let fot = FanoutTable::new(c);
        assert_eq!(topo.order(), lv.order());
        for id in c.node_ids() {
            assert_eq!(topo.level(id), lv.level(id), "{id}");
            assert_eq!(topo.fanin(id), c.node(id).fanin(), "{id}");
            assert_eq!(topo.kind(id), c.node(id).kind(), "{id}");
            let csr: Vec<(NodeId, usize)> = topo.fanouts(id).collect();
            assert_eq!(csr.as_slice(), fot.fanouts(id), "{id}");
        }
        assert_eq!(topo.depth(), lv.depth());
        assert_eq!(topo.inputs(), c.inputs());
        assert_eq!(topo.outputs(), c.outputs());
        assert_eq!(topo.dffs(), c.dffs());
    }

    #[test]
    fn matches_naive_derivation_on_generated_circuits() {
        for seed in [1u64, 7, 23] {
            let c = generate(&GeneratorConfig::new("topo", seed).gates(120).dffs(9));
            assert_matches_naive(&c);
        }
    }

    #[test]
    fn placeholder_self_edge_is_in_fanin_but_not_fanout() {
        let mut c = Circuit::new("t");
        let ff = c.add_dff_placeholder("ff");
        let topo = CompiledTopology::compile(&c);
        assert_eq!(topo.fanin(ff), &[ff]);
        assert!(topo.fanout_sinks(ff).is_empty());
    }

    #[test]
    fn eval_order_excludes_inputs_and_dffs() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let k = c.add_const(true, "k");
        let g = c.add_gate(GateKind::And, vec![a, k], "g");
        let ff = c.add_dff(g, "ff");
        c.mark_output(ff);
        let topo = CompiledTopology::compile(&c);
        assert_eq!(topo.eval_order(), &[k, g]);
        let pos = topo.order_positions();
        assert_eq!(pos[a.index()], u32::MAX);
        assert_eq!(pos[ff.index()], u32::MAX);
        assert_eq!(pos[g.index()], 1);
        assert_eq!(topo.output_reads(ff), 1);
        assert_eq!(topo.output_reads(g), 0);
    }

    #[test]
    fn full_build_is_a_patch_against_the_empty_design() {
        let c = generate(&GeneratorConfig::new("cold", 11).gates(80).dffs(6));
        let empty = CompiledTopology::compile(&Circuit::new("cold"));
        let patched = empty.patch(&crate::delta::NetlistDelta::full(&c));
        let cold = CompiledTopology::compile(&c);
        assert!(patched.same_plan(&cold));
        // Everything is new, so the lists changed and the patch reports
        // full invalidation.
        assert!(patched.dirty().unwrap().is_full());
        assert!(cold.dirty().is_none());
        assert!(cold.dirty_cones().is_empty());
    }

    #[test]
    fn patch_matches_compile_of_applied_circuit() {
        use crate::delta::NetlistDelta;
        for seed in [2u64, 9, 41] {
            let base = generate(&GeneratorConfig::new("eco", seed).gates(100).dffs(8));
            let mut eco = base.clone();
            // Re-drive the first 2-input gate to the dual kind.
            let victim = base
                .iter()
                .find(|(_, n)| n.kind() == GateKind::And || n.kind() == GateKind::Or)
                .map(|(id, _)| id)
                .expect("generator always emits and/or gates");
            let dual = if base.node(victim).kind() == GateKind::And {
                GateKind::Or
            } else {
                GateKind::And
            };
            eco.redrive(victim, dual, base.node(victim).fanin().to_vec());
            // And add a small spare cell reading an existing net.
            let probe = base.inputs()[0];
            let x = eco.add_gate(GateKind::Not, vec![probe], "eco_spare");
            let _ = x;

            let delta = NetlistDelta::diff(&base, &eco).unwrap();
            let patched_circuit = delta.apply(&base).unwrap();
            let base_topo = CompiledTopology::compile(&base);
            let patched = base_topo.patch(&delta);
            let cold = CompiledTopology::compile(&patched_circuit);
            assert!(patched.same_plan(&cold), "seed {seed}");

            let dirty = patched.dirty().unwrap();
            assert!(!dirty.is_full());
            assert!(dirty.in_cones(victim));
            assert!(dirty.in_support(victim));
            // Everything the victim feeds, transitively, is in the cone.
            for &sink in base_topo.fanout_sinks(victim) {
                assert!(dirty.in_cones(sink));
            }
            // The victim's sources are invalidated support but their
            // values are clean.
            for &src in base.node(victim).fanin() {
                assert!(dirty.in_support(src));
            }
        }
    }

    #[test]
    fn isolated_addition_has_minimal_dirty_set() {
        use crate::delta::{DeltaNode, DeltaRef, NetlistDelta};
        let base = generate(&GeneratorConfig::new("iso", 5).gates(60).dffs(4));
        let n = base.num_nodes();
        // A spare cell island: a constant plus a NOT reading only it.
        let delta = NetlistDelta {
            base_nodes: n,
            added: vec![
                DeltaNode {
                    name: "spare_c".into(),
                    kind: GateKind::Const0,
                    fanin: vec![],
                },
                DeltaNode {
                    name: "spare_g".into(),
                    kind: GateKind::Not,
                    fanin: vec![DeltaRef::Added(0)],
                },
            ],
            redriven: vec![],
            removed: vec![],
            outputs: vec![],
        };
        let base_topo = CompiledTopology::compile(&base);
        let patched = base_topo.patch(&delta);
        let cold = CompiledTopology::compile(&delta.apply(&base).unwrap());
        assert!(patched.same_plan(&cold));
        let dirty = patched.dirty().unwrap();
        assert!(!dirty.is_full());
        let island = [NodeId::from_index(n), NodeId::from_index(n + 1)];
        assert_eq!(dirty.cones(), &island);
        assert_eq!(dirty.support(), &island);
    }

    #[test]
    fn build_counter_increments() {
        let c = generate(&GeneratorConfig::new("cnt", 3).gates(30).dffs(2));
        let before = CompiledTopology::builds();
        let _one = CompiledTopology::compile(&c);
        let _two = CompiledTopology::shared(&c);
        assert!(CompiledTopology::builds() >= before + 2);
    }
}
