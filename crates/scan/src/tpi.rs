//! Test point insertion: functional scan paths through mission logic.
//!
//! Implements the TPI methodology of Lin, Marek-Sadowska, Cheng and Lee
//! (DAC'97) that the DATE'98 paper builds on: a scan path between two
//! flip-flops is a combinational path whose side inputs are forced to
//! non-controlling values during scan mode. Forcing is done preferably
//! by primary-input assignments (justified backward through logic) and
//! otherwise by inserting a test point — an `OR(net, scan_mode)` to
//! force 1 or an `AND(net, NOT scan_mode)` to force 0, both transparent
//! in normal mode.
//!
//! # One compiled plan
//!
//! The builder compiles one [`CompiledTopology`] before its first
//! segment, once `scan_mode`, its inverter and the scan-in inputs exist,
//! and keeps it while insertion adds nodes and rewires pins:
//!
//! - Insertion adds only test points and MUX gates, and each is constant
//!   or X in scan mode whatever PI assignment a later trial makes.
//!   `OR(net, scan_mode)` is 1 and `AND(net, NOT scan_mode)` is 0. A MUX
//!   segment's `AND(func_d, NOT scan_mode)` gate is 0; its
//!   `AND(prev, scan_mode)` gate and its output copy `prev`, a scan-in
//!   (never constrained) or a flip-flop, so both are X. Each new node is
//!   therefore evaluated once, when it is created, and the original
//!   gates keep their place in the plan's order.
//! - Every gate is evaluated from its live fanins, not the plan's: those
//!   go stale once a side pin is spliced.
//! - The plan's fanout lists go stale in two places, and path search
//!   skips both. A spliced side pin belongs to a path gate of a
//!   committed cell, which is a chain net. The D pin a MUX segment
//!   rewires belongs to a flip-flop that has left the pool. New nodes
//!   are infrastructure, which path search skips too.
//! - A trial's pin overrides stand in for the test points its commit
//!   splices in, and its extra PI assignments are the constraints its
//!   commit adds. So the accepted trial is exactly the post-commit
//!   steady state of every node that existed before the commit.
//!
//! # Fixed limits
//!
//! A segment's path has at most `MAX_PATH_LEN` (12) gates, and path
//! search tries at most `MAX_CANDIDATES` (16) candidate paths from one
//! source. A side input is justified by PI assignments at most
//! `JUSTIFY_DEPTH` (6) gates back, and a segment may create at most
//! `MAX_TEST_POINTS_PER_SEGMENT` (6) test points; a flip-flop with no
//! path within these limits gets a dedicated MUX segment.

use std::collections::{HashMap, HashSet, VecDeque};

use fscan_netlist::{Circuit, CompiledTopology, GateKind, NodeId};
use fscan_sim::kernel::eval_v3;
use fscan_sim::V3;

use crate::design::{ScanCell, ScanChain, ScanDesign, SegmentKind, SideInput};
use crate::error::ScanError;
use crate::mux::{add_mux_segment, add_scan_infra, partition_ffs};

/// Maximum number of gates along one functional segment.
const MAX_PATH_LEN: usize = 12;
/// Recursion depth for justifying side inputs by PI assignments.
const JUSTIFY_DEPTH: usize = 6;
/// Maximum test points created for a single segment before falling back
/// to a dedicated MUX segment.
const MAX_TEST_POINTS_PER_SEGMENT: usize = 6;
/// How many candidate paths to try per segment before giving up.
const MAX_CANDIDATES: usize = 16;

/// Configuration for [`insert_functional_scan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TpiConfig {
    /// Number of scan chains (0 is treated as 1).
    pub num_chains: usize,
}

impl Default for TpiConfig {
    fn default() -> TpiConfig {
        TpiConfig { num_chains: 1 }
    }
}

/// How one side input will be forced.
#[derive(Clone, Debug)]
enum Forcing {
    /// The steady scan-mode value already matches (or another side's
    /// plan already justifies this net to the same value).
    Already,
    /// Justified by the listed primary-input assignments.
    Pis(Vec<(NodeId, bool)>),
    /// A branch test point must be spliced into this pin.
    TestPoint,
}

/// A segment forcing plan: one entry per side input of the candidate
/// path, aligned with the cell's `sides` vector.
type Plan = Vec<Forcing>;

/// An accepted segment: the cell (not yet applied), its forcing plan and
/// the steady scan-mode values once the plan is applied.
type Segment = (ScanCell, Plan, Vec<V3>);

struct Builder {
    circuit: Circuit,
    scan_mode: NodeId,
    not_scan: NodeId,
    /// The scan-in inputs, one per chain: free data pins, never
    /// constrainable.
    scan_ins: Vec<NodeId>,
    constraints: HashMap<NodeId, bool>,
    /// Nets carrying shifted data (must never be forced or rerouted).
    chain_nets: HashSet<NodeId>,
    /// scan_mode / not_scan / test points / mux gates: excluded from
    /// path routing and from receiving test points.
    infrastructure: HashSet<NodeId>,
    /// Side inputs of committed segments: every later plan must keep
    /// them at their required values.
    committed_sides: Vec<SideInput>,
    /// The one plan of the insertion (see the module docs for why it
    /// stays valid).
    topo: CompiledTopology,
    /// The steady scan-mode value of every node.
    steady: Vec<V3>,
    test_points: usize,
    original_gates: usize,
    /// Shared test-point gates: one per (net, forced value), reused by
    /// every pin in any segment that needs the same forcing ("a single
    /// test point may help establish several scan paths").
    tp_cache: HashMap<(NodeId, bool), NodeId>,
}

impl Builder {
    fn new(circuit: &Circuit, num_chains: usize) -> Builder {
        let original_gates = circuit.num_gates();
        let mut c = circuit.clone();
        let (scan_mode, not_scan) = add_scan_infra(&mut c);
        let scan_ins = (0..num_chains)
            .map(|k| c.add_input(format!("scan_in{k}")))
            .collect();
        let mut b = Builder {
            topo: CompiledTopology::compile(&c),
            steady: vec![V3::X; c.num_nodes()],
            circuit: c,
            scan_mode,
            not_scan,
            scan_ins,
            constraints: HashMap::from([(scan_mode, true)]),
            chain_nets: HashSet::new(),
            infrastructure: [scan_mode, not_scan].into_iter().collect(),
            committed_sides: Vec::new(),
            test_points: 0,
            original_gates,
            tp_cache: HashMap::new(),
        };
        b.steady = b.steady_with(&[(scan_mode, true)], &HashMap::new());
        b
    }

    /// Evaluates the steady scan-mode values under extra PI assignments,
    /// with planned branch test points emulated as per-pin value
    /// overrides, starting from the committed values.
    fn steady_with(
        &self,
        extra: &[(NodeId, bool)],
        pin_overrides: &HashMap<(NodeId, usize), bool>,
    ) -> Vec<V3> {
        let mut values = self.steady.clone();
        for &(pi, v) in extra {
            values[pi.index()] = V3::from_bool(v);
        }
        // Manual topological pass so pin overrides apply mid-evaluation.
        for &id in self.topo.eval_order() {
            let node = self.circuit.node(id);
            values[id.index()] = eval_v3(
                node.kind(),
                node.fanin().iter().enumerate().map(|(pin, &f)| {
                    pin_overrides
                        .get(&(id, pin))
                        .map(|&b| V3::from_bool(b))
                        .unwrap_or(values[f.index()])
                }),
            );
        }
        values
    }

    /// Evaluates the nodes created since the steady values were last
    /// extended. Each is constant or X in scan mode, so this value holds
    /// for the rest of the insertion.
    fn eval_appended(&mut self) {
        for index in self.steady.len()..self.circuit.num_nodes() {
            let node = self.circuit.node(NodeId::from_index(index));
            let v = eval_v3(
                node.kind(),
                node.fanin().iter().map(|f| self.steady[f.index()]),
            );
            self.steady.push(v);
        }
    }

    fn steady_of(&self, n: NodeId) -> V3 {
        self.steady[n.index()]
    }

    /// Finds a functional path from `prev` to some flip-flop in
    /// `remaining`.
    fn find_path(&self, prev: NodeId, remaining: &HashSet<NodeId>) -> Option<Segment> {
        // parent[gate] = (previous net, pin on gate where data enters)
        let mut parent: HashMap<NodeId, (NodeId, usize)> = HashMap::new();
        let mut depth: HashMap<NodeId, usize> = HashMap::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        let mut candidates_tried = 0usize;

        let try_candidate = |end_net: NodeId,
                             dff: NodeId,
                             parent: &HashMap<NodeId, (NodeId, usize)>|
         -> Option<Segment> {
            // Reconstruct the gate path from prev to end_net.
            let mut rev: Vec<(NodeId, usize)> = Vec::new();
            let mut cur = end_net;
            while cur != prev {
                let &(pnet, pin) = parent.get(&cur)?;
                rev.push((cur, pin));
                cur = pnet;
            }
            rev.reverse();
            self.plan_segment(prev, dff, &rev)
        };

        // Zero-gate path: prev directly drives a remaining flip-flop.
        for (sink, pin) in self.topo.fanouts(prev) {
            if pin == 0
                && self.circuit.node(sink).kind() == GateKind::Dff
                && remaining.contains(&sink)
            {
                if let Some(found) = try_candidate(prev, sink, &parent) {
                    return Some(found);
                }
            }
        }

        queue.push_back(prev);
        depth.insert(prev, 0);
        while let Some(net) = queue.pop_front() {
            let d = depth[&net];
            if d >= MAX_PATH_LEN {
                continue;
            }
            for (gate, pin) in self.topo.fanouts(net) {
                let node = self.circuit.node(gate);
                if !node.kind().is_gate()
                    || parent.contains_key(&gate)
                    || gate == prev
                    || self.infrastructure.contains(&gate)
                    || self.chain_nets.contains(&gate)
                    || self.steady_of(gate).is_known()
                {
                    continue;
                }
                parent.insert(gate, (net, pin));
                depth.insert(gate, d + 1);
                // Does this gate feed a remaining flip-flop's D pin?
                for (sink, spin) in self.topo.fanouts(gate) {
                    if spin == 0
                        && self.circuit.node(sink).kind() == GateKind::Dff
                        && remaining.contains(&sink)
                    {
                        candidates_tried += 1;
                        if let Some(found) = try_candidate(gate, sink, &parent) {
                            return Some(found);
                        }
                        if candidates_tried >= MAX_CANDIDATES {
                            return None;
                        }
                    }
                }
                queue.push_back(gate);
            }
        }
        None
    }

    /// Checks the side inputs of a candidate path and produces the
    /// forcing plan, or `None` if the segment is not affordable.
    fn plan_segment(&self, prev: NodeId, dff: NodeId, path: &[(NodeId, usize)]) -> Option<Segment> {
        // The last path element must be the flip-flop's direct D driver.
        let d_driver = self.circuit.node(dff).fanin()[0];
        let last = path.last().map(|&(g, _)| g).unwrap_or(prev);
        if d_driver != last {
            return None;
        }
        let mut plan: Plan = Vec::new();
        let mut sides: Vec<SideInput> = Vec::new();
        let mut tentative: Vec<(NodeId, bool)> = Vec::new();
        // Nets this plan justifies via PIs: (net, value).
        let mut planned_net: HashMap<NodeId, bool> = HashMap::new();
        // Distinct test-point gates the plan will create.
        let mut tp_gates: HashSet<(NodeId, bool)> = HashSet::new();
        let mut inverted = false;

        for &(gate, data_pin) in path {
            let node = self.circuit.node(gate);
            let kind = node.kind();
            inverted ^= kind.output_inverted();
            if node.fanin().len() == 1 {
                continue;
            }
            let required = kind.transparent_side_value()?;
            for (pin, &net) in node.fanin().iter().enumerate() {
                if pin == data_pin {
                    continue;
                }
                sides.push(SideInput {
                    gate,
                    pin,
                    net,
                    required,
                });
                let steady = self.steady_of(net);
                let mut forcing = None;
                if steady == V3::from_bool(required) || planned_net.get(&net) == Some(&required) {
                    forcing = Some(Forcing::Already);
                } else if !steady.is_known()
                    && !planned_net.contains_key(&net)
                    && !self.chain_nets.contains(&net)
                {
                    let base = tentative.len();
                    if self.justify(net, required, &mut tentative, JUSTIFY_DEPTH) {
                        planned_net.insert(net, required);
                        forcing = Some(Forcing::Pis(tentative[base..].to_vec()));
                    } else {
                        tentative.truncate(base);
                    }
                }
                let forcing = match forcing {
                    Some(f) => f,
                    None => {
                        // Branch test point: force this pin only. Works
                        // for flip-flop-driven sides, chain-net sides and
                        // sides pinned to the controlling value alike.
                        if !self.tp_cache.contains_key(&(net, required)) {
                            tp_gates.insert((net, required));
                            if tp_gates.len() > MAX_TEST_POINTS_PER_SEGMENT {
                                return None;
                            }
                        }
                        Forcing::TestPoint
                    }
                };
                plan.push(forcing);
            }
        }
        // Trial-validate the whole plan: justification decisions were
        // made against the pre-plan steady values and may interact (one
        // side's PI assignment can imply a controlling value on another
        // side). Simulate with all planned assignments and test points
        // and accept only if every side really holds its value and no
        // data-carrying net (this path's or any earlier chain's) gets
        // pinned to a constant.
        let mut extra: Vec<(NodeId, bool)> = Vec::new();
        let mut pin_overrides: HashMap<(NodeId, usize), bool> = HashMap::new();
        for (side, forcing) in sides.iter().zip(plan.iter()) {
            match forcing {
                Forcing::Already => {}
                Forcing::Pis(pis) => extra.extend(pis.iter().copied()),
                Forcing::TestPoint => {
                    pin_overrides.insert((side.gate, side.pin), side.required);
                }
            }
        }
        let trial = self.steady_with(&extra, &pin_overrides);
        for side in &sides {
            let v = pin_overrides
                .get(&(side.gate, side.pin))
                .map(|&b| V3::from_bool(b))
                .unwrap_or(trial[side.net.index()]);
            if v != V3::from_bool(side.required) {
                return None;
            }
        }
        for &(g, _) in path {
            if trial[g.index()].is_known() {
                return None; // a forced value would block the data path
            }
        }
        for &n in &self.chain_nets {
            if self.circuit.node(n).kind().is_gate() && trial[n.index()].is_known() {
                return None; // would freeze an existing chain segment
            }
        }
        for side in &self.committed_sides {
            if trial[side.net.index()] != V3::from_bool(side.required) {
                return None; // would unpin an earlier segment's side input
            }
        }
        let cell = ScanCell {
            ff: dff,
            source: prev,
            path: path.to_vec(),
            inverted,
            sides,
            kind: SegmentKind::Functional,
        };
        Some((cell, plan, trial))
    }

    /// Attempts to justify `net = value` in scan mode using only
    /// primary-input assignments, appending them to `tentative`.
    fn justify(
        &self,
        net: NodeId,
        value: bool,
        tentative: &mut Vec<(NodeId, bool)>,
        depth: usize,
    ) -> bool {
        let steady = self.steady_of(net);
        if steady == V3::from_bool(value) {
            return true;
        }
        if steady.is_known() {
            return false;
        }
        if depth == 0 || self.chain_nets.contains(&net) {
            // Never pin a data-carrying chain net to a constant.
            return false;
        }
        let node = self.circuit.node(net);
        match node.kind() {
            GateKind::Input => {
                if self.scan_ins.contains(&net) {
                    return false;
                }
                if let Some(&v) = self.constraints.get(&net) {
                    return v == value;
                }
                if let Some(&(_, v)) = tentative.iter().find(|&&(n, _)| n == net) {
                    return v == value;
                }
                tentative.push((net, value));
                true
            }
            GateKind::Buf => self.justify(node.fanin()[0], value, tentative, depth - 1),
            GateKind::Not => self.justify(node.fanin()[0], !value, tentative, depth - 1),
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let kind = node.kind();
                let ctrl = kind.controlling_value().expect("and/or family");
                let out_ctrl = ctrl ^ kind.output_inverted();
                let fanin = node.fanin().to_vec();
                if value == out_ctrl {
                    // One controlling input suffices: try each.
                    for f in fanin {
                        let base = tentative.len();
                        if self.justify(f, ctrl, tentative, depth - 1) {
                            return true;
                        }
                        tentative.truncate(base);
                    }
                    false
                } else {
                    // Every input must be non-controlling.
                    let base = tentative.len();
                    for f in fanin {
                        if !self.justify(f, !ctrl, tentative, depth - 1) {
                            tentative.truncate(base);
                            return false;
                        }
                    }
                    true
                }
            }
            // XOR/XNOR, flip-flops, constants at X (impossible): give up;
            // a test point will handle it.
            _ => false,
        }
    }

    /// Applies a plan: adds PI constraints and splices branch test
    /// points into the pins that need them, updating the cell's side
    /// records to point at the test-point gates. `trial` is the plan's
    /// accepted trial, the post-commit value of every earlier node.
    fn apply_plan(&mut self, cell: &mut ScanCell, plan: Plan, trial: Vec<V3>) {
        debug_assert_eq!(cell.sides.len(), plan.len());
        self.steady = trial;
        for (side, forcing) in cell.sides.iter_mut().zip(plan) {
            match forcing {
                Forcing::Already => {}
                Forcing::Pis(pis) => {
                    for (pi, v) in pis {
                        let old = self.constraints.insert(pi, v);
                        debug_assert!(old.is_none() || old == Some(v));
                    }
                }
                Forcing::TestPoint => {
                    let tp = match self.tp_cache.get(&(side.net, side.required)) {
                        Some(&tp) => tp,
                        None => {
                            let tp = self.insert_test_point(side.net, side.required);
                            self.tp_cache.insert((side.net, side.required), tp);
                            tp
                        }
                    };
                    self.circuit
                        .replace_fanin(side.gate, side.pin, tp)
                        .expect("side pin exists");
                    side.net = tp;
                }
            }
        }
        self.eval_appended();
    }

    /// Creates a branch test-point gate forcing readers to `value`
    /// during scan mode (`OR(net, scan_mode)` for 1, `AND(net,
    /// NOT scan_mode)` for 0). The caller splices it into specific pins;
    /// nothing else is rerouted.
    fn insert_test_point(&mut self, net: NodeId, value: bool) -> NodeId {
        let name = format!("tp{}", self.test_points);
        let tp = if value {
            self.circuit
                .add_gate(GateKind::Or, vec![net, self.scan_mode], name)
        } else {
            self.circuit
                .add_gate(GateKind::And, vec![net, self.not_scan], name)
        };
        self.infrastructure.insert(tp);
        self.test_points += 1;
        tp
    }

    fn build(mut self, original_dffs: &[NodeId]) -> Result<ScanDesign, ScanError> {
        // Chains draw greedily from a global pool; capacities follow the
        // balanced partition sizes. (The paper: "except where functional
        // scan paths are established, the ordering of the scan chain is
        // arbitrary", so we are free to pick orders that maximize
        // functional coverage.)
        let capacities: Vec<usize> = partition_ffs(original_dffs, self.scan_ins.len())
            .into_iter()
            .map(|p| p.len())
            .collect();
        let mut pool: HashSet<NodeId> = original_dffs.iter().copied().collect();
        let mut order: Vec<NodeId> = original_dffs.to_vec();
        let mut chains = Vec::with_capacity(capacities.len());
        for (k, cap) in capacities.into_iter().enumerate() {
            let scan_in = self.scan_ins[k];
            let mut prev = scan_in;
            let mut cells: Vec<ScanCell> = Vec::new();
            while cells.len() < cap {
                let cell = if let Some((mut cell, plan, trial)) = self.find_path(prev, &pool) {
                    self.apply_plan(&mut cell, plan, trial);
                    self.committed_sides.extend(cell.sides.iter().copied());
                    cell
                } else {
                    let ff = order
                        .iter()
                        .copied()
                        .find(|f| pool.contains(f))
                        .expect("pool nonempty while capacity unmet");
                    let cell =
                        add_mux_segment(&mut self.circuit, self.scan_mode, self.not_scan, ff, prev);
                    self.infrastructure
                        .extend(cell.path.iter().map(|&(g, _)| g));
                    // The `a = AND(func_d, not_scan)` side gate of the mux.
                    self.infrastructure
                        .extend(cell.sides.iter().map(|side| side.net));
                    self.eval_appended();
                    cell
                };
                pool.remove(&cell.ff);
                order.retain(|&f| f != cell.ff);
                self.chain_nets.extend(cell.chain_nets());
                self.chain_nets.insert(cell.ff);
                prev = cell.ff;
                cells.push(cell);
            }
            self.circuit.mark_output(prev);
            chains.push(ScanChain { scan_in, cells });
        }
        let mut constraints: Vec<(NodeId, bool)> = self.constraints.into_iter().collect();
        constraints.sort();
        let added_gates = self.circuit.num_gates() - self.original_gates;
        let design = ScanDesign::new(
            self.circuit,
            self.scan_mode,
            constraints,
            chains,
            self.test_points,
            added_gates,
        );
        design.verify()?;
        // The incremental values equal a fresh evaluation of the design.
        debug_assert_eq!(self.steady, design.scan_mode_values());
        Ok(design)
    }
}

/// Inserts functional scan: flip-flops are chained through sensitized
/// paths in the mission logic wherever affordable, with dedicated MUX
/// segments as fallback. See the module docs for the forcing strategy.
///
/// # Errors
///
/// Returns [`ScanError::NoFlipFlops`] / [`ScanError::TooManyChains`] on
/// impossible configurations, or a verification error if the produced
/// design is inconsistent (a bug, not an expected outcome).
///
/// # Examples
///
/// ```
/// use fscan_netlist::{generate, GeneratorConfig};
/// use fscan_scan::{insert_functional_scan, SegmentKind, TpiConfig};
///
/// let c = generate(&GeneratorConfig::new("d", 5).gates(150).dffs(12));
/// let design = insert_functional_scan(&c, &TpiConfig::default())?;
/// let (_, functional) = design.segment_counts();
/// assert!(functional > 0, "some functional paths should be found");
/// # Ok::<(), fscan_scan::ScanError>(())
/// ```
pub fn insert_functional_scan(
    circuit: &Circuit,
    config: &TpiConfig,
) -> Result<ScanDesign, ScanError> {
    let num_chains = config.num_chains.max(1);
    if circuit.dffs().is_empty() {
        return Err(ScanError::NoFlipFlops);
    }
    if num_chains > circuit.dffs().len() {
        return Err(ScanError::TooManyChains {
            requested: num_chains,
            flip_flops: circuit.dffs().len(),
        });
    }
    Builder::new(circuit, num_chains).build(circuit.dffs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscan_netlist::{generate, GeneratorConfig};
    use fscan_sim::{SeqSim, V3};

    /// The paper's Figure 1 scenario: a NAND whose side input comes from
    /// a primary input; TPI should sensitize it by assigning the PI.
    #[test]
    fn sensitizes_with_pi_assignment_only() {
        let mut c = Circuit::new("fig1");
        let pi = c.add_input("PI");
        let ff1 = c.add_dff_placeholder("ff1");
        let g = c.add_gate(GateKind::Nand, vec![ff1, pi], "g");
        let ff2 = c.add_dff(g, "ff2");
        let h = c.add_gate(GateKind::Not, vec![ff2], "h");
        c.set_dff_input(ff1, h).unwrap();
        c.mark_output(h);
        let design = insert_functional_scan(&c, &TpiConfig::default()).unwrap();
        design.verify().unwrap();
        // The ff1→ff2 segment must be functional through g (NAND needs
        // side = 1, so PI is constrained to 1); ff2→... would need h.
        let (_, functional) = design.segment_counts();
        assert!(functional >= 1, "{design}");
        // PI constrained to 1.
        assert!(design.constraints().iter().any(|&(n, v)| n == pi && v));
    }

    #[test]
    fn inserts_test_point_when_side_not_justifiable() {
        // Side input of the path NAND is driven by an XOR of two FFs:
        // not justifiable by PI assignment → needs a test point.
        let mut c = Circuit::new("tp");
        let ff_a = c.add_dff_placeholder("ffa");
        let ff_b = c.add_dff_placeholder("ffb");
        let ff1 = c.add_dff_placeholder("ff1");
        let side = c.add_gate(GateKind::Xor, vec![ff_a, ff_b], "side");
        let g = c.add_gate(GateKind::And, vec![ff1, side], "g");
        let ff2 = c.add_dff(g, "ff2");
        let sink = c.add_gate(GateKind::Nor, vec![ff2, side], "sink");
        c.set_dff_input(ff1, sink).unwrap();
        let na = c.add_gate(GateKind::Not, vec![ff2], "na");
        let nb = c.add_gate(GateKind::Buf, vec![ff2], "nb");
        c.set_dff_input(ff_a, na).unwrap();
        c.set_dff_input(ff_b, nb).unwrap();
        c.mark_output(sink);
        let cfg = TpiConfig::default();
        let design = insert_functional_scan(&c, &cfg).unwrap();
        design.verify().unwrap();
        let (_, functional) = design.segment_counts();
        // At least one functional segment (which one depends on chain
        // order); if the ff1→ff2 path through g was taken, a test point
        // was required on `side`.
        assert!(functional + design.test_points() > 0);
    }

    #[test]
    fn functional_scan_shifts_correctly() {
        // End-to-end: scan a pattern in through functional paths and
        // check the state, honoring inversion parities.
        let circuit = generate(&GeneratorConfig::new("d", 33).inputs(8).gates(150).dffs(8));
        let design = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
        let c = design.circuit();
        let chain = &design.chains()[0];
        let l = chain.len();
        let state: Vec<bool> = (0..l).map(|i| i % 3 == 0).collect();
        let stream = chain.scan_in_stream(&state);
        let n_pis = c.inputs().len();
        let pos_of = |n: NodeId| c.inputs().iter().position(|&p| p == n).unwrap();
        let mut vectors = Vec::new();
        for &bit in &stream {
            let mut v = vec![V3::Zero; n_pis];
            for &(pi, val) in design.constraints() {
                v[pos_of(pi)] = V3::from(val);
            }
            v[pos_of(chain.scan_in)] = V3::from(bit);
            vectors.push(v);
        }
        let sim = SeqSim::new(c);
        let trace = sim.run(&vectors, &vec![V3::X; c.dffs().len()], None);
        for (k, cell) in chain.cells.iter().enumerate() {
            let dff_pos = c.dffs().iter().position(|&f| f == cell.ff).unwrap();
            assert_eq!(
                trace.final_state[dff_pos],
                V3::from(state[k]),
                "cell {k} (ff {}) after scan-in of {state:?} via {stream:?}",
                cell.ff
            );
        }
    }

    #[test]
    fn normal_mode_function_preserved() {
        let circuit = generate(&GeneratorConfig::new("d", 44).inputs(6).gates(120).dffs(6));
        let design = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
        let c = design.circuit();
        let orig_sim = SeqSim::new(&circuit);
        let new_sim = SeqSim::new(c);
        let vectors_orig: Vec<Vec<V3>> = (0..12)
            .map(|t| {
                (0..circuit.inputs().len())
                    .map(|k| V3::from((t + k) % 2 == 0))
                    .collect()
            })
            .collect();
        let vectors_new: Vec<Vec<V3>> = vectors_orig
            .iter()
            .map(|v| {
                let mut w = v.clone();
                w.extend(vec![V3::Zero; c.inputs().len() - v.len()]);
                w
            })
            .collect();
        let init = vec![V3::One; circuit.dffs().len()];
        let t_orig = orig_sim.run(&vectors_orig, &init, None);
        let t_new = new_sim.run(&vectors_new, &init, None);
        for t in 0..vectors_orig.len() {
            for k in 0..circuit.outputs().len() {
                assert_eq!(
                    t_orig.outputs[t][k], t_new.outputs[t][k],
                    "cycle {t} po {k}"
                );
            }
        }
    }

    #[test]
    fn multiple_chains_cover_all_ffs() {
        let circuit = generate(&GeneratorConfig::new("d", 55).gates(300).dffs(24));
        let cfg = TpiConfig { num_chains: 3 };
        let design = insert_functional_scan(&circuit, &cfg).unwrap();
        assert_eq!(design.chains().len(), 3);
        let total: usize = design.chains().iter().map(ScanChain::len).sum();
        assert_eq!(total, 24);
        // Every FF appears exactly once.
        let mut seen = HashSet::new();
        for chain in design.chains() {
            for cell in &chain.cells {
                assert!(seen.insert(cell.ff), "ff {} chained twice", cell.ff);
            }
        }
        design.verify().unwrap();
    }

    #[test]
    fn reduces_overhead_vs_mux_scan() {
        // The whole point of TPI: fewer dedicated mux segments.
        let circuit = generate(&GeneratorConfig::new("d", 67).gates(400).dffs(32));
        let tpi = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
        let (dedicated, functional) = tpi.segment_counts();
        assert!(
            3 * functional >= dedicated + functional,
            "expected at least a third functional segments, got {functional} functional / {dedicated} dedicated"
        );
    }
}
