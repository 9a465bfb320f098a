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

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use fscan_netlist::{Circuit, CompiledTopology, GateKind, NodeId};
use fscan_sim::{CombEvaluator, V3};

use crate::design::{ScanCell, ScanChain, ScanDesign, SegmentKind, SideInput};
use crate::error::ScanError;
use crate::mux::{add_mux_segment, add_scan_infra, partition_ffs};

/// Configuration for [`insert_functional_scan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TpiConfig {
    /// Number of scan chains (0 is treated as 1).
    pub num_chains: usize,
    /// Maximum number of gates along one functional segment.
    pub max_path_len: usize,
    /// Recursion depth for justifying side inputs by PI assignments.
    pub justify_depth: usize,
    /// Whether test points may be inserted when justification fails.
    pub allow_test_points: bool,
    /// Maximum test points spent on a single segment before falling back
    /// to a dedicated MUX segment.
    pub max_test_points_per_segment: usize,
    /// How many candidate paths to try per segment before giving up.
    pub max_candidates: usize,
}

impl Default for TpiConfig {
    fn default() -> TpiConfig {
        TpiConfig {
            num_chains: 1,
            max_path_len: 12,
            justify_depth: 6,
            allow_test_points: true,
            max_test_points_per_segment: 6,
            max_candidates: 16,
        }
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

struct Builder<'a> {
    circuit: Circuit,
    config: &'a TpiConfig,
    scan_mode: NodeId,
    not_scan: NodeId,
    constraints: HashMap<NodeId, bool>,
    /// Nets carrying shifted data (must never be forced or rerouted).
    chain_nets: HashSet<NodeId>,
    /// scan_mode / not_scan / test points / mux gates: excluded from
    /// path routing and from receiving test points.
    infrastructure: HashSet<NodeId>,
    /// Scan-in inputs: free data pins, never constrainable.
    reserved: HashSet<NodeId>,
    /// Side inputs of committed segments: every later plan must keep
    /// them at their required values.
    committed_sides: Vec<SideInput>,
    /// Compiled topology of the current working circuit, recompiled by
    /// [`Builder::recompute_steady`] whenever the circuit mutates (the
    /// only place outside `fscan_netlist` allowed to rebuild one).
    topo: Arc<CompiledTopology>,
    steady: Vec<V3>,
    test_points: usize,
    original_gates: usize,
    /// Shared test-point gates: one per (net, forced value), reused by
    /// every pin in any segment that needs the same forcing ("a single
    /// test point may help establish several scan paths").
    tp_cache: HashMap<(NodeId, bool), NodeId>,
}

impl<'a> Builder<'a> {
    fn new(circuit: &Circuit, config: &'a TpiConfig) -> Builder<'a> {
        let original_gates = circuit.num_gates();
        let mut c = circuit.clone();
        let (scan_mode, not_scan) = add_scan_infra(&mut c);
        let mut constraints = HashMap::new();
        constraints.insert(scan_mode, true);
        let topo = CompiledTopology::shared(&c);
        let mut b = Builder {
            circuit: c,
            config,
            scan_mode,
            not_scan,
            constraints,
            chain_nets: HashSet::new(),
            infrastructure: [scan_mode, not_scan].into_iter().collect(),
            reserved: HashSet::new(),
            committed_sides: Vec::new(),
            topo,
            steady: Vec::new(),
            test_points: 0,
            original_gates,
            tp_cache: HashMap::new(),
        };
        b.recompute_steady();
        b
    }

    fn recompute_steady(&mut self) {
        // The circuit just mutated (or is fresh): recompile its plan,
        // then evaluate the steady scan-mode values against it.
        self.topo = CompiledTopology::shared(&self.circuit);
        let mut values = vec![V3::X; self.circuit.num_nodes()];
        for (&pi, &v) in &self.constraints {
            values[pi.index()] = V3::from_bool(v);
        }
        CombEvaluator::with_topology(self.topo.clone()).eval(&mut values);
        self.steady = values;
    }

    /// Trial evaluation of the scan-mode steady values under extra PI
    /// assignments and with planned branch test points emulated as
    /// per-pin value overrides.
    fn steady_with(
        &self,
        extra: &[(NodeId, bool)],
        pin_overrides: &HashMap<(NodeId, usize), bool>,
    ) -> Vec<V3> {
        let mut values = vec![V3::X; self.circuit.num_nodes()];
        for (&pi, &v) in &self.constraints {
            values[pi.index()] = V3::from_bool(v);
        }
        for &(pi, v) in extra {
            values[pi.index()] = V3::from_bool(v);
        }
        // Manual topological pass so pin overrides apply mid-evaluation.
        for &id in self.topo.eval_order() {
            let node = self.circuit.node(id);
            let out = fscan_sim::kernel::eval_v3(
                node.kind(),
                node.fanin().iter().enumerate().map(|(pin, &f)| {
                    pin_overrides
                        .get(&(id, pin))
                        .map(|&b| V3::from_bool(b))
                        .unwrap_or(values[f.index()])
                }),
            );
            values[id.index()] = out;
        }
        values
    }

    fn steady_of(&self, n: NodeId) -> V3 {
        self.steady[n.index()]
    }

    /// Finds a functional path from `prev` to some flip-flop in
    /// `remaining`, returning the cell (not yet applied) plus its
    /// forcing plan.
    fn find_path(&self, prev: NodeId, remaining: &HashSet<NodeId>) -> Option<(ScanCell, Plan)> {
        // parent[gate] = (previous net, pin on gate where data enters)
        let mut parent: HashMap<NodeId, (NodeId, usize)> = HashMap::new();
        let mut depth: HashMap<NodeId, usize> = HashMap::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        let mut candidates_tried = 0usize;

        let try_candidate = |end_net: NodeId,
                             dff: NodeId,
                             parent: &HashMap<NodeId, (NodeId, usize)>|
         -> Option<(ScanCell, Plan)> {
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
            if d >= self.config.max_path_len {
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
                        if candidates_tried >= self.config.max_candidates {
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
    fn plan_segment(
        &self,
        prev: NodeId,
        dff: NodeId,
        path: &[(NodeId, usize)],
    ) -> Option<(ScanCell, Plan)> {
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
                    if self.justify(net, required, &mut tentative, self.config.justify_depth) {
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
                        if !self.config.allow_test_points {
                            return None;
                        }
                        if !self.tp_cache.contains_key(&(net, required)) {
                            tp_gates.insert((net, required));
                            if tp_gates.len() > self.config.max_test_points_per_segment {
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
        Some((cell, plan))
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
                if self.reserved.contains(&net) {
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
    /// records to point at the test-point gates.
    fn apply_plan(&mut self, cell: &mut ScanCell, plan: Plan) {
        debug_assert_eq!(cell.sides.len(), plan.len());
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
        self.recompute_steady();
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
        let num_chains = self.config.num_chains.max(1);
        // Chains draw greedily from a global pool; capacities follow the
        // balanced partition sizes. (The paper: "except where functional
        // scan paths are established, the ordering of the scan chain is
        // arbitrary", so we are free to pick orders that maximize
        // functional coverage.)
        let capacities: Vec<usize> = partition_ffs(original_dffs, num_chains)
            .into_iter()
            .map(|p| p.len())
            .collect();
        // Reserve scan-in PIs up front so justification never grabs them.
        let scan_ins: Vec<NodeId> = (0..num_chains)
            .map(|k| {
                let si = self.circuit.add_input(format!("scan_in{k}"));
                self.reserved.insert(si);
                si
            })
            .collect();
        // Adding the scan-in inputs grew the circuit: refresh the plan
        // (their steady values are X — nothing else changes).
        self.recompute_steady();
        let mut pool: HashSet<NodeId> = original_dffs.iter().copied().collect();
        let mut order: Vec<NodeId> = original_dffs.to_vec();
        let mut chains = Vec::with_capacity(num_chains);
        for (k, cap) in capacities.into_iter().enumerate() {
            let scan_in = scan_ins[k];
            let mut prev = scan_in;
            let mut cells: Vec<ScanCell> = Vec::new();
            while cells.len() < cap {
                if let Some((mut cell, plan)) = self.find_path(prev, &pool) {
                    self.apply_plan(&mut cell, plan);
                    self.committed_sides.extend(cell.sides.iter().copied());
                    pool.remove(&cell.ff);
                    order.retain(|&f| f != cell.ff);
                    self.chain_nets.insert(prev);
                    self.chain_nets.extend(cell.chain_nets());
                    self.chain_nets.insert(cell.ff);
                    prev = cell.ff;
                    cells.push(cell);
                } else {
                    let ff = order
                        .iter()
                        .copied()
                        .find(|f| pool.contains(f))
                        .expect("pool nonempty while capacity unmet");
                    let cell =
                        add_mux_segment(&mut self.circuit, self.scan_mode, self.not_scan, ff, prev);
                    for &(g, _) in &cell.path {
                        self.infrastructure.insert(g);
                    }
                    // The `a = AND(func_d, not_scan)` side gate of the mux.
                    for side in &cell.sides {
                        self.infrastructure.insert(side.net);
                    }
                    pool.remove(&ff);
                    order.retain(|&f| f != ff);
                    self.chain_nets.insert(prev);
                    self.chain_nets.extend(cell.chain_nets());
                    self.chain_nets.insert(ff);
                    prev = ff;
                    self.recompute_steady();
                    cells.push(cell);
                }
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
    Builder::new(circuit, config).build(circuit.dffs())
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
    fn no_test_points_when_disallowed() {
        let c = generate(&GeneratorConfig::new("d", 21).gates(200).dffs(16));
        let cfg = TpiConfig {
            allow_test_points: false,
            ..TpiConfig::default()
        };
        let design = insert_functional_scan(&c, &cfg).unwrap();
        assert_eq!(design.test_points(), 0);
        design.verify().unwrap();
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
        let cfg = TpiConfig {
            num_chains: 3,
            ..TpiConfig::default()
        };
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
        // And the knob trades area for coverage: a zero budget uses no
        // test points at all.
        let frugal = TpiConfig {
            max_test_points_per_segment: 0,
            ..TpiConfig::default()
        };
        let d2 = insert_functional_scan(&circuit, &frugal).unwrap();
        assert_eq!(d2.test_points(), 0);
    }
}
