//! Combinational PODEM over a controllability/observability view.
//!
//! The generator itself is immutable after construction: [`Podem::run`]
//! takes `&self` and returns a self-contained [`PodemOutcome`], so one
//! engine can be shared by any number of shard workers without locks.
//! Per-search mutable state lives in a [`PodemScratch`], allocated per
//! run (or reused explicitly via [`Podem::run_with_scratch`]).
//!
//! Resimulation is event-driven: a full five-valued pass happens once at
//! construction (the *base* values, charged to [`Podem::setup_work`]);
//! each fault injection and each new assignment (a decision, or the
//! flipped value of a backtrack) then re-evaluates only the gates in the
//! fanout cone of the changed input, in topological order, stopping
//! where values stabilise. The resulting values are bit-identical to a
//! full resimulation — values are a pure function of the assignment and
//! the injections — but `gate_evals` counts only the gates actually
//! re-evaluated.
//!
//! Retraction evaluates nothing. Every value write after the injections
//! records the value it replaced on an undo trail, and each decision
//! remembers the trail length when it was made. Retracting a decision
//! pops the trail back to that mark and writes each old value back: the
//! values the engine held before the decision, which are exactly what
//! re-simulating the unassigned input would compute. Retractions book no
//! `gate_evals`.
//!
//! The search bookkeeping is just as local. Every value write goes
//! through one helper that keeps three things in step with the values:
//! the number of nets carrying a fault effect, the number of observables
//! carrying one, and the D-frontier, held sorted in search order
//! (distance to the nearest observable, then topological position).
//! X-path feasibility is answered on demand, per frontier gate the
//! objective tries, by a depth-first search over X gates that is
//! memoized for one objective call. A search step therefore costs its
//! re-evaluated cone, the frontier updates of the nets it wrote and the
//! X region the objective walks — never a sweep of the whole, possibly
//! time-frame-expanded, model. Restored writes go through the same
//! bookkeeping, so after a retraction the frontier and counts are those
//! of the restored values. The bookkeeping is not counted: only the
//! re-evaluations book `gate_evals`.

use std::sync::Arc;

use fscan_fault::{Fault, FaultSite};
use fscan_netlist::{CompiledTopology, GateKind, NodeId};
use fscan_sim::{TopoQueue, WorkCounters, V3};

use crate::dvalue::D5;

const INF: u32 = u32::MAX / 4;

/// Tuning knobs for [`Podem`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PodemConfig {
    /// Abort the search after this many backtracks.
    pub backtrack_limit: usize,
    /// Abort after this many search steps (decisions + backtracks).
    /// Each step costs one event-driven resimulation of the newly
    /// assigned input's fanout cone, the D-frontier updates of the nets
    /// it wrote, and one objective whose X-path search walks only the X
    /// gates ahead of the frontier. A backtrack first restores the
    /// retracted decisions' writes from the undo trail, which books no
    /// `gate_evals`. No part of a step scales with the whole model, so
    /// on large (e.g. time-frame-expanded) models this is the knob that
    /// actually bounds runtime.
    pub step_limit: usize,
}

impl Default for PodemConfig {
    fn default() -> PodemConfig {
        PodemConfig {
            backtrack_limit: 20_000,
            step_limit: usize::MAX,
        }
    }
}

/// The verdict of one PODEM run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AtpgOutcome {
    /// A test was found: assignments for the controllable inputs that
    /// were decided (inputs not listed may take any value).
    Test(Vec<(NodeId, bool)>),
    /// The fault is proven undetectable under this view (the full
    /// decision space was exhausted).
    Undetectable,
    /// The backtrack budget ran out before a verdict.
    Aborted,
}

/// Everything one [`Podem::run`] produced, in one value.
///
/// Replaces the old `&mut self` run path whose results had to be
/// scraped out of the engine via `last_backtracks()` / `last_steps()` /
/// `last_work()` accessors — state that made engines unshardable. The
/// outcome is self-contained, so per-shard runs compose by value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PodemOutcome {
    /// The verdict, carrying the generated vector when a test exists.
    pub verdict: AtpgOutcome,
    /// Exact, thread-invariant work counters of this run: decisions,
    /// backtracks, aborts, and the event-driven `gate_evals`. Does not
    /// include the engine's one-time [`Podem::setup_work`].
    pub work: WorkCounters,
    /// Objective decisions taken.
    pub decisions: usize,
    /// Decision reversals taken.
    pub backtracks: usize,
}

impl PodemOutcome {
    /// The generated test vector, when the verdict is a test.
    pub fn vector(&self) -> Option<&[(NodeId, bool)]> {
        match &self.verdict {
            AtpgOutcome::Test(t) => Some(t),
            _ => None,
        }
    }

    /// Search steps consumed: decisions + backtracks, for callers that
    /// spread one budget across several runs.
    pub fn steps(&self) -> usize {
        self.decisions + self.backtracks
    }
}

/// Reusable per-search mutable state for [`Podem::run_with_scratch`].
///
/// One scratch per worker suffices; every run fully re-initialises it,
/// so reuse never leaks state between faults.
#[derive(Clone, Debug)]
pub struct PodemScratch {
    /// Five-valued value per node. Written only through
    /// `Podem::store`, which keeps the three fields below in step.
    values: Vec<D5>,
    assigned: Vec<Option<bool>>,
    /// Nets whose value is a fault effect (D or D̄).
    effect_nets: usize,
    /// Observable nets whose value is a fault effect.
    effect_observables: usize,
    /// The D-frontier as `(obs_dist, order position)` keys, sorted: the
    /// order in which the objective tries its gates.
    frontier: Vec<(u32, usize)>,
    /// Node index → member of `frontier`.
    in_frontier: Vec<bool>,
    /// Memo and stack of the on-demand X-path search.
    x_path: XPathMemo,
    /// Stem injections of the current fault set, indexed by node.
    stem_inj: Vec<Option<bool>>,
    /// Whether a node has any branch-fault injection on its pins.
    has_branch: Vec<bool>,
    /// The (gate index, pin, stuck) branch injections (short list).
    branch_inj: Vec<(usize, usize, bool)>,
    /// Order positions pending re-evaluation.
    queue: TopoQueue,
    /// Undo trail: `(node, value before the write)` for every write since
    /// `begin` settled the injections, oldest first.
    trail: Vec<(NodeId, D5)>,
}

/// One entry of the PODEM decision stack.
#[derive(Copy, Clone, Debug)]
struct Decision {
    input: NodeId,
    value: bool,
    /// Whether this is already the second value tried.
    flipped: bool,
    /// Trail length before the assignment: retracting restores to here.
    mark: usize,
}

/// Memo of the X-path search within one objective call.
///
/// `stamp[i] == epoch` marks node `i` as decided, with the verdict in
/// `reach[i]`; [`XPathMemo::forget`] bumps the epoch, which drops every
/// verdict at once without touching the arrays.
#[derive(Clone, Debug)]
struct XPathMemo {
    epoch: u32,
    stamp: Vec<u32>,
    reach: Vec<bool>,
    /// Depth-first stack: (node, next fanout entry to try).
    stack: Vec<(NodeId, usize)>,
}

impl XPathMemo {
    fn new(n: usize) -> XPathMemo {
        XPathMemo {
            epoch: 0,
            stamp: vec![0; n],
            reach: vec![false; n],
            stack: Vec::new(),
        }
    }

    /// Drops every verdict: values may have changed since they were taken.
    fn forget(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    fn known(&self, i: usize) -> Option<bool> {
        (self.stamp[i] == self.epoch).then(|| self.reach[i])
    }

    fn record(&mut self, i: usize, reach: bool) {
        self.stamp[i] = self.epoch;
        self.reach[i] = reach;
    }
}

/// A PODEM test generator over a circuit *view*.
///
/// The view consists of:
/// * `controllable` — inputs the generator may assign (primary inputs
///   and/or flip-flop outputs acting as pseudo-inputs);
/// * `fixed` — inputs pinned to constants (e.g. scan-mode primary-input
///   assignments, including `scan_mode = 1` itself);
/// * `observable` — nets whose values can be observed (primary outputs
///   and/or flip-flop capture points).
///
/// Any other non-gate node stays at X and can never be assigned, which
/// models uncontrollable state.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Clone, Debug)]
pub struct Podem {
    topo: Arc<CompiledTopology>,
    controllable: Vec<NodeId>,
    is_controllable: Vec<bool>,
    fixed: Vec<(NodeId, bool)>,
    observable: Vec<NodeId>,
    is_observable: Vec<bool>,
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    obs_dist: Vec<u32>,
    /// Topological evaluation order (gates and constants).
    order: Vec<NodeId>,
    /// Node index → position in `order`, `usize::MAX` for non-gate nodes.
    order_pos: Vec<usize>,
    /// Five-valued values with no assignments and no faults: fixed
    /// inputs and constants propagated, everything else X. Each run
    /// starts from a copy and only re-evaluates what its injections and
    /// decisions change.
    base_values: Vec<D5>,
    /// Work charged at construction (one full base pass).
    setup_work: WorkCounters,
}

impl Podem {
    /// Builds a generator for the given view of the circuit compiled
    /// into `topo`.
    ///
    /// # Panics
    ///
    /// Panics if a fixed node is also listed as controllable.
    pub fn with_topology(
        topo: Arc<CompiledTopology>,
        controllable: Vec<NodeId>,
        fixed: Vec<(NodeId, bool)>,
        observable: Vec<NodeId>,
    ) -> Podem {
        let n = topo.num_nodes();
        let mut is_controllable = vec![false; n];
        for &c in &controllable {
            is_controllable[c.index()] = true;
        }
        for &(f, _) in &fixed {
            assert!(
                !is_controllable[f.index()],
                "node {f} is both fixed and controllable"
            );
        }
        let mut is_observable = vec![false; n];
        for &o in &observable {
            is_observable[o.index()] = true;
        }
        let order = topo.eval_order().to_vec();
        let mut order_pos = vec![usize::MAX; n];
        for (pos, &id) in order.iter().enumerate() {
            order_pos[id.index()] = pos;
        }
        let mut podem = Podem {
            topo,
            controllable,
            is_controllable,
            fixed,
            observable,
            is_observable,
            cc0: vec![INF; n],
            cc1: vec![INF; n],
            obs_dist: vec![INF; n],
            order,
            order_pos,
            base_values: vec![D5::X; n],
            setup_work: WorkCounters::ZERO,
        };
        podem.compute_scoap();
        podem.compute_obs_dist();
        podem.compute_base_values();
        podem
    }

    /// SCOAP-style combinational 0/1 controllability, used to guide the
    /// backtrace toward cheap-to-justify inputs and away from
    /// uncontrollable state.
    fn compute_scoap(&mut self) {
        for &c in &self.controllable {
            self.cc0[c.index()] = 1;
            self.cc1[c.index()] = 1;
        }
        for &(f, v) in &self.fixed {
            self.cc0[f.index()] = if v { INF } else { 0 };
            self.cc1[f.index()] = if v { 0 } else { INF };
        }
        let sat = |a: u32, b: u32| a.saturating_add(b).min(INF);
        for oi in 0..self.order.len() {
            let id = self.order[oi];
            let kind = self.topo.kind(id);
            let fanin = self.topo.fanin(id);
            let (c0, c1): (u32, u32) = match kind {
                GateKind::Const0 => (0, INF),
                GateKind::Const1 => (INF, 0),
                GateKind::Buf => {
                    let f = fanin[0];
                    (sat(self.cc0[f.index()], 1), sat(self.cc1[f.index()], 1))
                }
                GateKind::Not => {
                    let f = fanin[0];
                    (sat(self.cc1[f.index()], 1), sat(self.cc0[f.index()], 1))
                }
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    // Cost to set output to the controlled (easy) side vs
                    // the all-inputs (hard) side.
                    let ctrl = kind.controlling_value().expect("and/or family");
                    let (ctrl_cc, nonctrl_cc): (Vec<u32>, Vec<u32>) = {
                        let pick = |v: bool, f: NodeId| {
                            if v {
                                self.cc1[f.index()]
                            } else {
                                self.cc0[f.index()]
                            }
                        };
                        (
                            fanin.iter().map(|&f| pick(ctrl, f)).collect(),
                            fanin.iter().map(|&f| pick(!ctrl, f)).collect(),
                        )
                    };
                    let easy = sat(ctrl_cc.iter().copied().min().unwrap_or(INF), 1);
                    let hard = sat(nonctrl_cc.iter().fold(0u32, |a, &b| sat(a, b)), 1);
                    // For AND: output 0 via any controlling input (easy),
                    // output 1 needs all non-controlling (hard).
                    let (out_ctrl, out_all) = (easy, hard);
                    let inverted = kind.output_inverted();
                    // Controlled output value = ctrl ^ inverted.
                    if ctrl ^ inverted {
                        (out_all, out_ctrl)
                    } else {
                        (out_ctrl, out_all)
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    // Fold pairwise: cost of parity-0 / parity-1.
                    let mut p0 = 0u32;
                    let mut p1 = INF;
                    for &f in fanin {
                        let (f0, f1) = (self.cc0[f.index()], self.cc1[f.index()]);
                        let n0 = sat(p0, f0).min(sat(p1, f1));
                        let n1 = sat(p0, f1).min(sat(p1, f0));
                        p0 = n0;
                        p1 = n1;
                    }
                    if kind == GateKind::Xor {
                        (sat(p0, 1), sat(p1, 1))
                    } else {
                        (sat(p1, 1), sat(p0, 1))
                    }
                }
                GateKind::Input | GateKind::Dff => continue,
            };
            // Fixed gates keep their pinned costs (none are fixed in
            // practice; fixing applies to inputs).
            self.cc0[id.index()] = c0;
            self.cc1[id.index()] = c1;
        }
    }

    /// Static distance (in gates) from each node to the nearest
    /// observable, used to pick D-frontier gates.
    fn compute_obs_dist(&mut self) {
        for &o in &self.observable {
            self.obs_dist[o.index()] = 0;
        }
        // Reverse topological relaxation: iterate the evaluation order
        // backwards; a node's distance improves through its fanouts.
        for oi in (0..self.order.len()).rev() {
            let id = self.order[oi];
            let mut best = self.obs_dist[id.index()];
            for &sink in self.topo.fanout_sinks(id) {
                if self.topo.kind(sink).is_gate() {
                    best = best.min(self.obs_dist[sink.index()].saturating_add(1));
                }
            }
            self.obs_dist[id.index()] = best;
        }
        // Inputs/FF outputs also get distances (not strictly needed).
        for id in (0..self.topo.num_nodes()).map(NodeId::from_index) {
            if self.topo.kind(id).is_gate() {
                continue;
            }
            let mut best = self.obs_dist[id.index()];
            for &sink in self.topo.fanout_sinks(id) {
                if self.topo.kind(sink).is_gate() {
                    best = best.min(self.obs_dist[sink.index()].saturating_add(1));
                }
            }
            self.obs_dist[id.index()] = best;
        }
    }

    /// One full five-valued pass with no assignments and no faults:
    /// the state every run starts from. Charged to [`Podem::setup_work`]
    /// once, however many runs the engine later serves.
    fn compute_base_values(&mut self) {
        for &(f, v) in &self.fixed {
            self.base_values[f.index()] = D5::known(v);
        }
        for oi in 0..self.order.len() {
            let id = self.order[oi];
            let out = D5::eval(
                self.topo.kind(id),
                self.topo
                    .fanin(id)
                    .iter()
                    .map(|&src| self.base_values[src.index()]),
            );
            self.base_values[id.index()] = out;
        }
        self.setup_work.gate_evals += self.order.len() as u64;
    }

    /// The one-time construction work (one full base-values pass).
    /// Callers summing per-run [`PodemOutcome::work`] add this once per
    /// engine to keep stage totals exact.
    pub fn setup_work(&self) -> WorkCounters {
        self.setup_work
    }

    /// A fresh scratch sized for this engine, for
    /// [`Podem::run_with_scratch`] callers that amortise allocation
    /// across many runs.
    pub fn scratch(&self) -> PodemScratch {
        let n = self.topo.num_nodes();
        PodemScratch {
            values: self.base_values.clone(),
            assigned: vec![None; n],
            effect_nets: 0,
            effect_observables: 0,
            frontier: Vec::new(),
            in_frontier: vec![false; n],
            x_path: XPathMemo::new(n),
            stem_inj: vec![None; n],
            has_branch: vec![false; n],
            branch_inj: Vec::new(),
            queue: TopoQueue::new(self.order.len()),
            trail: Vec::new(),
        }
    }

    /// The branch injection on pin `pin` of node `gate_idx`, if any.
    fn branch_at(&self, s: &PodemScratch, gate_idx: usize, pin: usize) -> Option<bool> {
        if !s.has_branch[gate_idx] {
            return None;
        }
        s.branch_inj
            .iter()
            .find(|&&(g, p, _)| g == gate_idx && p == pin)
            .map(|&(_, _, stuck)| stuck)
    }

    /// Re-evaluates one ordered node under the current values, with the
    /// scratch's fault injections applied — the exact per-node function
    /// a full resimulation would use.
    fn eval_node(&self, s: &PodemScratch, id: NodeId) -> D5 {
        let kind = self.topo.kind(id);
        let fanin = self.topo.fanin(id);
        let out = if s.has_branch[id.index()] {
            D5::eval(
                kind,
                fanin
                    .iter()
                    .enumerate()
                    .map(|(pin, &src)| self.pin_value(s, id, pin, src)),
            )
        } else {
            D5::eval(kind, fanin.iter().map(|&src| s.values[src.index()]))
        };
        match s.stem_inj[id.index()] {
            Some(stuck) => out.with_faulty(stuck),
            None => out,
        }
    }

    /// Writes `v` at `id`, recording the value it replaces on the undo
    /// trail.
    fn set_value(&self, s: &mut PodemScratch, id: NodeId, v: D5) {
        s.trail.push((id, s.values[id.index()]));
        self.store(s, id, v);
    }

    /// The one write path into `values`, forward and restoring: stores
    /// `v` at `id` and keeps the fault-effect counts and the D-frontier
    /// in step. Only the written node and the gates reading it can change
    /// membership, and a reader only when the pin it sees changed: its
    /// effect, or its good value where a branch fault overrides the
    /// faulty rail.
    fn store(&self, s: &mut PodemScratch, id: NodeId, v: D5) {
        let old = std::mem::replace(&mut s.values[id.index()], v);
        let effect_changed = old.is_fault_effect() != v.is_fault_effect();
        if effect_changed {
            let observable = self.is_observable[id.index()];
            if v.is_fault_effect() {
                s.effect_nets += 1;
                s.effect_observables += usize::from(observable);
            } else {
                s.effect_nets -= 1;
                s.effect_observables -= usize::from(observable);
            }
        }
        if old.has_x() != v.has_x() {
            self.refresh_frontier(s, id);
        }
        if effect_changed || old.good() != v.good() {
            for &sink in self.topo.fanout_sinks(id) {
                if effect_changed || s.has_branch[sink.index()] {
                    self.refresh_frontier(s, sink);
                }
            }
        }
    }

    /// Retracts the assignment of `input`, made at trail length `mark`:
    /// writes every value recorded since back through [`Podem::store`],
    /// newest first. No gate is evaluated and nothing is queued.
    fn retract(&self, s: &mut PodemScratch, input: NodeId, mark: usize) {
        s.assigned[input.index()] = None;
        while s.trail.len() > mark {
            let (id, old) = s.trail.pop().expect("trail is longer than the mark");
            self.store(s, id, old);
        }
    }

    /// Whether some pin of gate `id` carries a fault effect, branch-fault
    /// injection included.
    fn pin_effect(&self, s: &PodemScratch, id: NodeId) -> bool {
        let fanin = self.topo.fanin(id);
        if s.has_branch[id.index()] {
            fanin
                .iter()
                .enumerate()
                .any(|(pin, &f)| self.pin_value(s, id, pin, f).is_fault_effect())
        } else {
            fanin.iter().any(|&f| s.values[f.index()].is_fault_effect())
        }
    }

    /// Re-derives whether `id` is on the D-frontier — a gate with an
    /// X-ish output and a fault effect on some pin — and inserts or
    /// removes it at its search-order place.
    fn refresh_frontier(&self, s: &mut PodemScratch, id: NodeId) {
        if !self.topo.kind(id).is_gate() {
            return;
        }
        let member = s.values[id.index()].has_x() && self.pin_effect(s, id);
        if member == s.in_frontier[id.index()] {
            return;
        }
        s.in_frontier[id.index()] = member;
        let key = (self.obs_dist[id.index()], self.order_pos[id.index()]);
        match s.frontier.binary_search(&key) {
            Ok(at) => {
                s.frontier.remove(at);
            }
            Err(at) => s.frontier.insert(at, key),
        }
    }

    /// Queues every ordered gate reading `id` for re-evaluation.
    fn schedule_fanouts(&self, s: &mut PodemScratch, id: NodeId) {
        for &sink in self.topo.fanout_sinks(id) {
            let pos = self.order_pos[sink.index()];
            if pos != usize::MAX {
                // From a popped gate: its readers sit above it.
                let from = self.order_pos[id.index()];
                debug_assert!(from == usize::MAX || pos > from);
                s.queue.insert(pos);
            }
        }
    }

    /// Drains the event queue in topological order, propagating value
    /// changes. Each popped gate counts one `gate_eval` — the
    /// event-driven replacement for the old full-resimulation charge.
    fn drain(&self, s: &mut PodemScratch, work: &mut WorkCounters) {
        while let Some(pos) = s.queue.pop() {
            let id = self.order[pos];
            work.gate_evals += 1;
            let out = self.eval_node(s, id);
            if out != s.values[id.index()] {
                self.set_value(s, id, out);
                self.schedule_fanouts(s, id);
            }
        }
    }

    /// Resets the scratch to the base values and injects the fault set,
    /// propagating each injection through its fanout cone.
    fn begin(&self, s: &mut PodemScratch, faults: &[Fault], work: &mut WorkCounters) {
        // The base values carry no fault effect, hence no frontier.
        s.values.copy_from_slice(&self.base_values);
        s.effect_nets = 0;
        s.effect_observables = 0;
        s.frontier.clear();
        s.in_frontier.fill(false);
        s.assigned.fill(None);
        s.stem_inj.fill(None);
        s.has_branch.fill(false);
        s.branch_inj.clear();
        s.queue.clear();
        // Install every injection first (a gate may carry several), then
        // seed the event queue and propagate once.
        for f in faults {
            match f.site {
                FaultSite::Stem(n) => {
                    s.stem_inj[n.index()] = Some(f.stuck);
                }
                FaultSite::Branch { gate, pin } => {
                    s.has_branch[gate.index()] = true;
                    s.branch_inj.push((gate.index(), pin, f.stuck));
                }
            }
        }
        for f in faults {
            match f.site {
                FaultSite::Stem(n) => {
                    let pos = self.order_pos[n.index()];
                    if pos != usize::MAX {
                        // Ordered node: the injection changes its output
                        // function; re-evaluate it in place.
                        s.queue.insert(pos);
                    } else {
                        // Input / flip-flop output: override the faulty
                        // rail directly.
                        let v = s.values[n.index()];
                        let nv = v.with_faulty(f.stuck);
                        if nv != v {
                            self.set_value(s, n, nv);
                            self.schedule_fanouts(s, n);
                        }
                    }
                }
                FaultSite::Branch { gate, .. } => {
                    let pos = self.order_pos[gate.index()];
                    debug_assert_ne!(pos, usize::MAX, "branch faults sit on gates");
                    if pos != usize::MAX {
                        s.queue.insert(pos);
                    }
                }
            }
        }
        self.drain(s, work);
        // A branch injection can put an effect on a pin with no net
        // write at all (its source may already be known).
        for i in 0..s.branch_inj.len() {
            let gate = NodeId::from_index(s.branch_inj[i].0);
            self.refresh_frontier(s, gate);
        }
        // The injected state is the search's floor: nothing below it is
        // ever retracted.
        s.trail.clear();
    }

    /// Applies one controllable-input assignment and propagates the
    /// change through its fanout cone. Searches only assign; `None`, a
    /// retraction by re-simulation, is the tests' reference for
    /// [`Podem::retract`].
    fn set_input(
        &self,
        s: &mut PodemScratch,
        pi: NodeId,
        val: Option<bool>,
        work: &mut WorkCounters,
    ) {
        s.assigned[pi.index()] = val;
        let mut v = match val {
            Some(b) => D5::known(b),
            None => D5::X,
        };
        if let Some(stuck) = s.stem_inj[pi.index()] {
            v = v.with_faulty(stuck);
        }
        if v != s.values[pi.index()] {
            self.set_value(s, pi, v);
            self.schedule_fanouts(s, pi);
            self.drain(s, work);
        }
    }

    /// The good value at a fault's excitation point.
    fn site_good(&self, s: &PodemScratch, fault: &Fault) -> V3 {
        match fault.site {
            FaultSite::Stem(n) => s.values[n.index()].good(),
            FaultSite::Branch { gate, pin } => {
                let src = self.topo.fanin(gate)[pin];
                s.values[src.index()].good()
            }
        }
    }

    /// The node whose value the excitation objective targets.
    fn site_node(&self, fault: &Fault) -> NodeId {
        match fault.site {
            FaultSite::Stem(n) => n,
            FaultSite::Branch { gate, pin } => self.topo.fanin(gate)[pin],
        }
    }

    fn fault_effect_at_observable(&self, s: &PodemScratch) -> bool {
        s.effect_observables > 0
    }

    /// The five-valued value seen by pin `pin` of gate `id`, including
    /// branch-fault injection.
    fn pin_value(&self, s: &PodemScratch, id: NodeId, pin: usize, src: NodeId) -> D5 {
        let v = s.values[src.index()];
        match self.branch_at(s, id.index(), pin) {
            Some(stuck) => v.with_faulty(stuck),
            None => v,
        }
    }

    /// Whether any fault effect exists: on a net, or injected at a gate
    /// pin by an excited branch fault.
    fn has_effect(&self, s: &PodemScratch, faults: &[Fault]) -> bool {
        s.effect_nets > 0
            || faults.iter().any(|f| {
                matches!(f.site, FaultSite::Branch { .. })
                    && self.site_good(s, f).is_known()
                    && self.site_good(s, f) != V3::from_bool(f.stuck)
            })
    }

    /// Whether `root` reaches an observable through X gates: it is
    /// observable itself, or some gate reading it has an X-ish value and
    /// an X-path. Iterative depth-first search (unrolled models are too
    /// deep to recurse), memoized in `memo` until its next `forget`.
    fn x_path(&self, values: &[D5], memo: &mut XPathMemo, root: NodeId) -> bool {
        if let Some(reach) = memo.known(root.index()) {
            return reach;
        }
        if self.is_observable[root.index()] {
            memo.record(root.index(), true);
            return true;
        }
        memo.stack.clear();
        memo.stack.push((root, 0));
        while let Some(top) = memo.stack.len().checked_sub(1) {
            let (node, mut next) = memo.stack[top];
            let sinks = self.topo.fanout_sinks(node);
            let mut child = None;
            let mut found = false;
            while next < sinks.len() && child.is_none() && !found {
                let sink = sinks[next];
                next += 1;
                if !self.topo.kind(sink).is_gate() || !values[sink.index()].has_x() {
                    continue;
                }
                match memo.known(sink.index()) {
                    Some(reach) => found = reach,
                    None if self.is_observable[sink.index()] => found = true,
                    None => child = Some(sink),
                }
            }
            if found {
                // The stack is a chain of X gates from `root`: all of it
                // reaches the observable.
                while let Some((n, _)) = memo.stack.pop() {
                    memo.record(n.index(), true);
                }
                return true;
            }
            match child {
                Some(c) => {
                    memo.stack[top].1 = next;
                    memo.stack.push((c, 0));
                }
                None => {
                    memo.stack.pop();
                    memo.record(node.index(), false);
                }
            }
        }
        false
    }

    /// Static controllability cost of setting `node` to `val`.
    fn cc(&self, node: NodeId, val: bool) -> u32 {
        if val {
            self.cc1[node.index()]
        } else {
            self.cc0[node.index()]
        }
    }

    /// Returns the next objective `(net, good_value)` or `None` when the
    /// current state is a dead end.
    fn objective(&self, s: &mut PodemScratch, faults: &[Fault]) -> Option<(NodeId, bool)> {
        if !self.has_effect(s, faults) {
            // Excitation: find a site whose good value is still X and is
            // statically justifiable (finite SCOAP cost).
            for f in faults {
                let site = self.site_node(f);
                if self.site_good(s, f) == V3::X && self.cc(site, !f.stuck) < INF {
                    return Some((site, !f.stuck));
                }
            }
            return None;
        }
        // Propagation: pick the D-frontier gate nearest an observable
        // that still has an X-path, then set one X side-input to the
        // non-controlling value.
        s.x_path.forget();
        for &(_, pos) in &s.frontier {
            let g = self.order[pos];
            if !self.x_path(&s.values, &mut s.x_path, g) {
                continue;
            }
            let side_val = self.topo.kind(g).transparent_side_value().unwrap_or(true);
            for &f in self.topo.fanin(g) {
                if s.values[f.index()].good() == V3::X && self.cc(f, side_val) < INF {
                    return Some((f, side_val));
                }
            }
        }
        None
    }

    /// Backtraces an objective to an unassigned controllable input.
    fn backtrace(&self, s: &PodemScratch, net: NodeId, val: bool) -> Option<(NodeId, bool)> {
        let mut net = net;
        let mut val = val;
        let mut hops = 0usize;
        loop {
            hops += 1;
            if hops > 4 * self.topo.num_nodes() {
                return None; // safety net; cannot happen in a DAG
            }
            let kind = self.topo.kind(net);
            let fanin = self.topo.fanin(net);
            if !kind.is_gate() {
                return if self.is_controllable[net.index()] && s.assigned[net.index()].is_none() {
                    Some((net, val))
                } else {
                    None
                };
            }
            match kind {
                GateKind::Buf => {
                    net = fanin[0];
                }
                GateKind::Not => {
                    net = fanin[0];
                    val = !val;
                }
                GateKind::Const0 | GateKind::Const1 => return None,
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let ctrl = kind.controlling_value().expect("and/or family");
                    let want_input = val ^ kind.output_inverted();
                    let cc = |f: NodeId, v: bool| {
                        if v {
                            self.cc1[f.index()]
                        } else {
                            self.cc0[f.index()]
                        }
                    };
                    let candidates = || {
                        fanin
                            .iter()
                            .copied()
                            .filter(|&f| s.values[f.index()].good() == V3::X)
                    };
                    let pick = if want_input == ctrl {
                        // One controlling input suffices: easiest, and it
                        // must be justifiable at all.
                        candidates()
                            .filter(|&f| cc(f, want_input) < INF)
                            .min_by_key(|&f| cc(f, want_input))?
                    } else {
                        // All inputs must be non-controlling: if any is
                        // statically unjustifiable the objective is dead;
                        // otherwise take the hardest first.
                        if candidates().any(|f| cc(f, want_input) >= INF) {
                            return None;
                        }
                        candidates().max_by_key(|&f| cc(f, want_input))?
                    };
                    net = pick;
                    val = want_input;
                }
                GateKind::Xor | GateKind::Xnor => {
                    // Choose any X input; required value = desired output
                    // parity xor parity of the other (known) inputs,
                    // treating other X inputs as 0.
                    let desired = val ^ (kind == GateKind::Xnor);
                    let mut parity = desired;
                    for &f in fanin {
                        if s.values[f.index()].good() == V3::One {
                            parity = !parity;
                        }
                    }
                    let cc = |f: NodeId, v: bool| {
                        if v {
                            self.cc1[f.index()]
                        } else {
                            self.cc0[f.index()]
                        }
                    };
                    // Remaining X inputs other than the chosen one are
                    // treated as 0 by this heuristic, so each candidate
                    // would need the same `parity` value.
                    net = fanin
                        .iter()
                        .copied()
                        .find(|&f| s.values[f.index()].good() == V3::X && cc(f, parity) < INF)?;
                    val = parity;
                }
                GateKind::Input | GateKind::Dff => unreachable!("handled above"),
            }
        }
    }

    /// Runs PODEM for the fault (or, for time-frame-expanded models, the
    /// set of per-frame copies of one fault), allocating a fresh scratch.
    ///
    /// The verdict is [`AtpgOutcome::Undetectable`] only after
    /// exhausting the complete decision space, making it sound for the
    /// given view.
    pub fn run(&self, faults: &[Fault], config: &PodemConfig) -> PodemOutcome {
        let mut scratch = self.scratch();
        self.run_with_scratch(&mut scratch, faults, config)
    }

    /// [`Podem::run`] against a caller-owned scratch, for hot loops that
    /// amortise allocation across many runs. The scratch is fully
    /// re-initialised, so results never depend on what ran before.
    pub fn run_with_scratch(
        &self,
        s: &mut PodemScratch,
        faults: &[Fault],
        config: &PodemConfig,
    ) -> PodemOutcome {
        let mut work = WorkCounters::ZERO;
        let mut decisions = 0usize;
        let mut backtracks = 0usize;
        let mut steps = 0usize;
        self.begin(s, faults, &mut work);
        let mut stack: Vec<Decision> = Vec::new();
        // Classic PODEM loop: the existence of an objective (plus a
        // successful backtrace) *is* the progress check; its absence is
        // the conflict signal that triggers backtracking.
        loop {
            if self.fault_effect_at_observable(s) {
                let test = stack.iter().map(|d| (d.input, d.value)).collect();
                return PodemOutcome {
                    verdict: AtpgOutcome::Test(test),
                    work,
                    decisions,
                    backtracks,
                };
            }
            let decision = self
                .objective(s, faults)
                .and_then(|(net, val)| self.backtrace(s, net, val));
            match decision {
                Some((pi, val)) => {
                    stack.push(Decision {
                        input: pi,
                        value: val,
                        flipped: false,
                        mark: s.trail.len(),
                    });
                    decisions += 1;
                    steps += 1;
                    work.podem_decisions += 1;
                    if steps > config.step_limit {
                        work.podem_aborts += 1;
                        return PodemOutcome {
                            verdict: AtpgOutcome::Aborted,
                            work,
                            decisions,
                            backtracks,
                        };
                    }
                    self.set_input(s, pi, Some(val), &mut work);
                }
                None => {
                    // Conflict: flip the most recent unflipped decision.
                    loop {
                        let Some(d) = stack.pop() else {
                            return PodemOutcome {
                                verdict: AtpgOutcome::Undetectable,
                                work,
                                decisions,
                                backtracks,
                            };
                        };
                        self.retract(s, d.input, d.mark);
                        if d.flipped {
                            continue;
                        }
                        backtracks += 1;
                        steps += 1;
                        work.podem_backtracks += 1;
                        if backtracks > config.backtrack_limit || steps > config.step_limit {
                            work.podem_aborts += 1;
                            return PodemOutcome {
                                verdict: AtpgOutcome::Aborted,
                                work,
                                decisions,
                                backtracks,
                            };
                        }
                        stack.push(Decision {
                            value: !d.value,
                            flipped: true,
                            ..d
                        });
                        self.set_input(s, d.input, Some(!d.value), &mut work);
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unroll::unroll;
    use fscan_fault::all_faults;
    use fscan_netlist::{generate, Circuit, GeneratorConfig};
    use fscan_sim::SeqSim;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn c17_like() -> (Circuit, Vec<NodeId>) {
        // The ISCAS'85 c17 netlist (all NAND).
        let mut c = Circuit::new("c17");
        let i1 = c.add_input("1");
        let i2 = c.add_input("2");
        let i3 = c.add_input("3");
        let i6 = c.add_input("6");
        let i7 = c.add_input("7");
        let g10 = c.add_gate(GateKind::Nand, vec![i1, i3], "10");
        let g11 = c.add_gate(GateKind::Nand, vec![i3, i6], "11");
        let g16 = c.add_gate(GateKind::Nand, vec![i2, g11], "16");
        let g19 = c.add_gate(GateKind::Nand, vec![g11, i7], "19");
        let g22 = c.add_gate(GateKind::Nand, vec![g10, g16], "22");
        let g23 = c.add_gate(GateKind::Nand, vec![g16, g19], "23");
        c.mark_output(g22);
        c.mark_output(g23);
        (c, vec![i1, i2, i3, i6, i7, g10, g11, g16, g19, g22, g23])
    }

    /// Applies a PODEM test to the good and faulty circuits and checks
    /// an output really differs (unassigned inputs set to 0).
    fn verify_test(circuit: &Circuit, fault: Fault, test: &[(NodeId, bool)]) -> bool {
        let mut vec0: Vec<V3> = circuit.inputs().iter().map(|_| V3::Zero).collect();
        for &(n, v) in test {
            if let Some(pos) = circuit.inputs().iter().position(|&i| i == n) {
                vec0[pos] = V3::from_bool(v);
            }
        }
        let sim = SeqSim::new(circuit);
        let good = sim.run(&[vec0.clone()], &[], None);
        let bad = sim.run(&[vec0], &[], Some(fault));
        fscan_sim::detects(&good, &bad).is_some()
    }

    /// Reference full resimulation (the pre-event-driven algorithm):
    /// recomputes every value from scratch under the scratch's current
    /// assignment and injections.
    fn reference_values(podem: &Podem, c: &Circuit, s: &PodemScratch) -> Vec<D5> {
        let n = c.num_nodes();
        let mut values = vec![D5::X; n];
        for &c in &podem.controllable {
            values[c.index()] = match s.assigned[c.index()] {
                Some(b) => D5::known(b),
                None => D5::X,
            };
        }
        for &(f, v) in &podem.fixed {
            values[f.index()] = D5::known(v);
        }
        for (i, inj) in s.stem_inj.iter().take(n).enumerate() {
            let Some(stuck) = *inj else { continue };
            let kind = c.node(NodeId::from_index(i)).kind();
            if !kind.is_gate() && !matches!(kind, GateKind::Const0 | GateKind::Const1) {
                let v = values[i];
                values[i] = D5::new(v.good(), V3::from_bool(stuck));
            }
        }
        for &id in &podem.order {
            let node = c.node(id);
            let mut out = D5::eval(
                node.kind(),
                node.fanin().iter().enumerate().map(|(pin, &src)| {
                    let mut v = values[src.index()];
                    if let Some(stuck) = podem.branch_at(s, id.index(), pin) {
                        v = D5::new(v.good(), V3::from_bool(stuck));
                    }
                    v
                }),
            );
            if let Some(stuck) = s.stem_inj[id.index()] {
                out = D5::new(out.good(), V3::from_bool(stuck));
            }
            values[id.index()] = out;
        }
        values
    }

    // The sweep search: the same search with whole-model bookkeeping.
    // Every step sweeps all nets for fault effects, scans the full
    // order for the D-frontier and recomputes X-reachability in one
    // reverse pass. It shares the value engine (pinned by
    // `reference_values`) and the backtrace, and is the oracle the
    // incremental search must match exactly.

    /// Every net swept for a fault effect, then every branch pin.
    fn sweep_has_effect(podem: &Podem, c: &Circuit, s: &PodemScratch, faults: &[Fault]) -> bool {
        if c.node_ids()
            .any(|id| s.values[id.index()].is_fault_effect())
        {
            return true;
        }
        faults.iter().any(|f| {
            matches!(f.site, FaultSite::Branch { .. })
                && podem.site_good(s, f).is_known()
                && podem.site_good(s, f) != V3::from_bool(f.stuck)
        })
    }

    fn sweep_effect_at_observable(podem: &Podem, s: &PodemScratch) -> bool {
        podem
            .observable
            .iter()
            .any(|&o| s.values[o.index()].is_fault_effect())
    }

    /// The D-frontier by a scan of the full order, stably sorted by
    /// distance to the nearest observable: the objective's search order.
    fn d_frontier(podem: &Podem, c: &Circuit, s: &PodemScratch) -> Vec<NodeId> {
        let mut frontier = Vec::new();
        for &id in &podem.order {
            let node = c.node(id);
            if !node.kind().is_gate() || !s.values[id.index()].has_x() {
                continue;
            }
            let any_d = node
                .fanin()
                .iter()
                .enumerate()
                .any(|(pin, &f)| podem.pin_value(s, id, pin, f).is_fault_effect());
            if any_d {
                frontier.push(id);
            }
        }
        frontier.sort_by_key(|&g| podem.obs_dist[g.index()]);
        frontier
    }

    /// X-reachability by one reverse topological sweep: a node reaches
    /// an observable through X nets iff it is observable itself, or some
    /// X-ish gate reading it does.
    fn recompute_x_reach(podem: &Podem, c: &Circuit, s: &PodemScratch) -> Vec<bool> {
        let mut x_reach = podem.is_observable.clone();
        let reaches = |x_reach: &[bool], id: NodeId| {
            podem.topo.fanout_sinks(id).iter().any(|&sink| {
                c.node(sink).kind().is_gate()
                    && s.values[sink.index()].has_x()
                    && x_reach[sink.index()]
            })
        };
        for oi in (0..podem.order.len()).rev() {
            let id = podem.order[oi];
            if !x_reach[id.index()] && reaches(&x_reach, id) {
                x_reach[id.index()] = true;
            }
        }
        // Non-gate nodes (inputs, flip-flop outputs) also feed gates.
        for id in c.node_ids() {
            if !x_reach[id.index()] && !c.node(id).kind().is_gate() && reaches(&x_reach, id) {
                x_reach[id.index()] = true;
            }
        }
        x_reach
    }

    fn sweep_objective(
        podem: &Podem,
        c: &Circuit,
        s: &PodemScratch,
        faults: &[Fault],
    ) -> Option<(NodeId, bool)> {
        if !sweep_has_effect(podem, c, s, faults) {
            for f in faults {
                let site = podem.site_node(f);
                if podem.site_good(s, f) == V3::X && podem.cc(site, !f.stuck) < INF {
                    return Some((site, !f.stuck));
                }
            }
            return None;
        }
        let x_reach = recompute_x_reach(podem, c, s);
        for g in d_frontier(podem, c, s) {
            if !x_reach[g.index()] {
                continue;
            }
            let node = c.node(g);
            let side_val = node.kind().transparent_side_value().unwrap_or(true);
            for &f in node.fanin() {
                if s.values[f.index()].good() == V3::X && podem.cc(f, side_val) < INF {
                    return Some((f, side_val));
                }
            }
        }
        None
    }

    /// [`Podem::run`] with the sweep objective, retracting by
    /// re-simulation. A retraction drain recomputes values the search
    /// held one step earlier, which the search restores from its trail
    /// without evaluating, so those drains are booked into a throwaway
    /// counter: the outcome must equal the search's, `gate_evals`
    /// included.
    fn sweep_run(
        podem: &Podem,
        c: &Circuit,
        faults: &[Fault],
        config: &PodemConfig,
    ) -> PodemOutcome {
        let mut s = podem.scratch();
        let mut work = WorkCounters::ZERO;
        let mut retraction_work = WorkCounters::ZERO;
        let (mut decisions, mut backtracks, mut steps) = (0usize, 0usize, 0usize);
        let outcome = |verdict, work, decisions, backtracks| PodemOutcome {
            verdict,
            work,
            decisions,
            backtracks,
        };
        podem.begin(&mut s, faults, &mut work);
        let mut stack: Vec<(NodeId, bool, bool)> = Vec::new();
        loop {
            if sweep_effect_at_observable(podem, &s) {
                let test = stack.iter().map(|&(n, v, _)| (n, v)).collect();
                return outcome(AtpgOutcome::Test(test), work, decisions, backtracks);
            }
            let decision = sweep_objective(podem, c, &s, faults)
                .and_then(|(net, val)| podem.backtrace(&s, net, val));
            if let Some((pi, val)) = decision {
                stack.push((pi, val, false));
                decisions += 1;
                steps += 1;
                work.podem_decisions += 1;
                if steps > config.step_limit {
                    work.podem_aborts += 1;
                    return outcome(AtpgOutcome::Aborted, work, decisions, backtracks);
                }
                podem.set_input(&mut s, pi, Some(val), &mut work);
                continue;
            }
            loop {
                let Some((pi, val, flipped)) = stack.pop() else {
                    return outcome(AtpgOutcome::Undetectable, work, decisions, backtracks);
                };
                podem.set_input(&mut s, pi, None, &mut retraction_work);
                if flipped {
                    continue;
                }
                backtracks += 1;
                steps += 1;
                work.podem_backtracks += 1;
                if backtracks > config.backtrack_limit || steps > config.step_limit {
                    work.podem_aborts += 1;
                    return outcome(AtpgOutcome::Aborted, work, decisions, backtracks);
                }
                stack.push((pi, !val, true));
                podem.set_input(&mut s, pi, Some(!val), &mut work);
                break;
            }
        }
    }

    /// Recounts the incremental bookkeeping from `values` and checks it:
    /// both effect counts, the frontier with its search order and
    /// membership flags, and the on-demand X-path of every node against
    /// the sweep (all queried in one memo epoch, so memo hits are
    /// exercised too).
    fn assert_bookkeeping(podem: &Podem, c: &Circuit, s: &mut PodemScratch, what: &str) {
        let effects: Vec<usize> = (0..s.values.len())
            .filter(|&i| s.values[i].is_fault_effect())
            .collect();
        assert_eq!(s.effect_nets, effects.len(), "effect nets {what}");
        let observed = effects.iter().filter(|&&i| podem.is_observable[i]).count();
        assert_eq!(s.effect_observables, observed, "effect observables {what}");
        let frontier: Vec<NodeId> = s
            .frontier
            .iter()
            .map(|&(_, pos)| podem.order[pos])
            .collect();
        assert_eq!(frontier, d_frontier(podem, c, s), "frontier {what}");
        let flagged = s.in_frontier.iter().filter(|&&f| f).count();
        assert_eq!(flagged, frontier.len(), "frontier flags {what}");
        assert!(frontier.iter().all(|g| s.in_frontier[g.index()]), "{what}");
        let x_reach = recompute_x_reach(podem, c, s);
        s.x_path.forget();
        for id in c.node_ids() {
            assert_eq!(
                podem.x_path(&s.values, &mut s.x_path, id),
                x_reach[id.index()],
                "x-path of {id} {what}"
            );
        }
    }

    /// A generated search problem: a circuit, a view of it, and fault
    /// sets to target — single faults on a scan-style view of the
    /// sequential circuit when `frames == 1`, else each fault's copies
    /// in every frame of the `frames`-frame unrolled model, with the
    /// view shaped like [`crate::SeqAtpg`]'s.
    struct Case {
        circuit: Circuit,
        controllable: Vec<NodeId>,
        fixed: Vec<(NodeId, bool)>,
        observable: Vec<NodeId>,
        fault_sets: Vec<Vec<Fault>>,
    }

    impl Case {
        fn generate(seed: u64, gates: usize, frames: usize) -> Case {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = generate(
                &GeneratorConfig::new("oracle", seed)
                    .inputs(rng.gen_range(2..10usize))
                    .gates(gates)
                    .dffs(rng.gen_range(0..10usize)),
            );
            // Flip-flop D-pin branches are capture stems once unrolled;
            // the scan-style view has no gate to put them on.
            let on_dff_pin = |f: &Fault| match f.site {
                FaultSite::Branch { gate, .. } => !base.node(gate).kind().is_gate(),
                FaultSite::Stem(_) => false,
            };
            let faults: Vec<Fault> = all_faults(&base)
                .into_iter()
                .filter(|f| frames > 1 || !on_dff_pin(f))
                .collect();
            let (branches, stems): (Vec<Fault>, Vec<Fault>) = faults
                .iter()
                .partition(|f| matches!(f.site, FaultSite::Branch { .. }));
            let picks: Vec<Fault> = (0..6)
                .map(|k| {
                    let from = if k % 2 == 0 || branches.is_empty() {
                        &stems
                    } else {
                        &branches
                    };
                    from[rng.gen_range(0..from.len())]
                })
                .collect();
            if frames == 1 {
                let mut case = Case {
                    circuit: base.clone(),
                    controllable: Vec::new(),
                    fixed: Vec::new(),
                    observable: Vec::new(),
                    fault_sets: picks.iter().map(|&f| vec![f]).collect(),
                };
                for &i in base.inputs().iter().chain(base.dffs()) {
                    match rng.gen_range(0..4u32) {
                        0 => case.fixed.push((i, rng.gen_bool(0.5))),
                        1 => {}
                        _ => case.controllable.push(i),
                    }
                }
                let captures = base
                    .dffs()
                    .iter()
                    .filter_map(|&ff| base.node(ff).fanin().first());
                for &o in base.outputs().iter().chain(captures) {
                    if rng.gen_bool(0.6) {
                        case.observable.push(o);
                    }
                }
                return case;
            }
            let (u, map) = unroll(&base, &CompiledTopology::compile(&base), frames);
            let mut case = Case {
                circuit: u.circuit().clone(),
                controllable: Vec::new(),
                fixed: Vec::new(),
                observable: Vec::new(),
                fault_sets: picks
                    .iter()
                    .map(|&f| {
                        (0..frames)
                            .filter_map(|t| u.map_fault(&base, f, t, &map))
                            .collect()
                    })
                    .collect(),
            };
            let pinned: Vec<Option<bool>> = base
                .inputs()
                .iter()
                .map(|_| rng.gen_bool(0.25).then(|| rng.gen_bool(0.5)))
                .collect();
            for t in 0..frames {
                for (k, &pi) in u.pis(t).iter().enumerate() {
                    match pinned[k] {
                        Some(v) => case.fixed.push((pi, v)),
                        None => case.controllable.push(pi),
                    }
                }
            }
            for &s0 in u.state0s() {
                if rng.gen_bool(0.5) {
                    case.controllable.push(s0);
                }
            }
            let observed: Vec<bool> = base.dffs().iter().map(|_| rng.gen_bool(0.5)).collect();
            for t in 0..frames {
                case.observable.extend_from_slice(u.pos(t));
                for (k, &cap) in u.captures(t).iter().enumerate() {
                    if observed[k] {
                        case.observable.push(cap);
                    }
                }
            }
            case
        }

        fn podem(&self) -> Podem {
            Podem::with_topology(
                CompiledTopology::shared(&self.circuit),
                self.controllable.clone(),
                self.fixed.clone(),
                self.observable.clone(),
            )
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The incremental search is the sweep search: on generated
        /// circuits and views, for stem, branch and multi-frame fault
        /// sets under small budgets, `run_with_scratch` returns exactly
        /// the sweep's verdict, vector, work, decisions and backtracks,
        /// through a reused scratch as through a fresh one.
        #[test]
        fn search_matches_sweep_reference(
            seed in any::<u64>(),
            gates in 20usize..300,
            frames in 1usize..7,
            backtrack_limit in 0usize..40,
            step_limit in 0usize..600,
        ) {
            let case = Case::generate(seed, gates, frames);
            let podem = case.podem();
            // A third of the cases run without a step limit.
            let config = PodemConfig {
                backtrack_limit,
                step_limit: if step_limit >= 400 { usize::MAX } else { step_limit },
            };
            let mut reused = podem.scratch();
            for faults in &case.fault_sets {
                let expected = sweep_run(&podem, &case.circuit, faults, &config);
                prop_assert_eq!(&podem.run(faults, &config), &expected, "{:?}", faults);
                prop_assert_eq!(
                    &podem.run_with_scratch(&mut reused, faults, &config),
                    &expected,
                    "reused scratch, {:?}",
                    faults
                );
            }
        }

        /// After injection and after every assignment or retraction on a
        /// random walk, the maintained counts, frontier and X-paths equal
        /// a recount from the values. A second, PODEM-style walk takes a
        /// trail mark before each assignment and undoes to random earlier
        /// marks: after each undo the values equal a full resimulation,
        /// the bookkeeping a recount, and the whole state that of a twin
        /// scratch that retracted the same inputs by re-simulation
        /// (`set_input(None)`).
        #[test]
        fn bookkeeping_matches_recount(
            seed in any::<u64>(),
            gates in 20usize..300,
            frames in 1usize..7,
        ) {
            let case = Case::generate(seed, gates, frames);
            let podem = case.podem();
            let mut s = podem.scratch();
            let mut twin = podem.scratch();
            let mut work = WorkCounters::ZERO;
            let mut rng = StdRng::seed_from_u64(seed ^ 0xb00c);
            for faults in &case.fault_sets {
                podem.begin(&mut s, faults, &mut work);
                assert_bookkeeping(&podem, &case.circuit, &mut s, "after begin");
                if case.controllable.is_empty() {
                    continue;
                }
                for _ in 0..24 {
                    let pi = case.controllable[rng.gen_range(0..case.controllable.len())];
                    let val = rng.gen_bool(0.8).then(|| rng.gen_bool(0.5));
                    podem.set_input(&mut s, pi, val, &mut work);
                    assert_bookkeeping(&podem, &case.circuit, &mut s, "after set_input");
                }
                podem.begin(&mut s, faults, &mut work);
                podem.begin(&mut twin, faults, &mut work);
                // (input, trail mark before its assignment), oldest first.
                let mut made: Vec<(NodeId, usize)> = Vec::new();
                for _ in 0..32 {
                    if made.is_empty() || rng.gen_bool(0.7) {
                        let pi = case.controllable[rng.gen_range(0..case.controllable.len())];
                        if s.assigned[pi.index()].is_some() {
                            continue;
                        }
                        let val = rng.gen_bool(0.5);
                        made.push((pi, s.trail.len()));
                        podem.set_input(&mut s, pi, Some(val), &mut work);
                        podem.set_input(&mut twin, pi, Some(val), &mut work);
                        prop_assert_eq!(&s.values, &twin.values);
                        assert_bookkeeping(&podem, &case.circuit, &mut s, "after set_input");
                        continue;
                    }
                    let keep = rng.gen_range(0..made.len());
                    let floor = made[keep].1;
                    for (pi, mark) in made.drain(keep..).rev() {
                        podem.retract(&mut s, pi, mark);
                        podem.set_input(&mut twin, pi, None, &mut work);
                    }
                    prop_assert_eq!(s.trail.len(), floor);
                    prop_assert_eq!(&s.values, &reference_values(&podem, &case.circuit, &s), "undo to {}", keep);
                    prop_assert_eq!(&s.assigned, &twin.assigned);
                    prop_assert_eq!(&s.values, &twin.values);
                    prop_assert_eq!(s.effect_nets, twin.effect_nets);
                    prop_assert_eq!(s.effect_observables, twin.effect_observables);
                    prop_assert_eq!(&s.frontier, &twin.frontier);
                    prop_assert_eq!(&s.in_frontier, &twin.in_frontier);
                    assert_bookkeeping(&podem, &case.circuit, &mut s, "after undo");
                }
            }
        }
    }

    #[test]
    fn finds_tests_for_all_collapsed_c17_faults() {
        let (c, _) = c17_like();
        let faults = fscan_fault::collapse(&c, &fscan_fault::all_faults(&c));
        let controllable = c.inputs().to_vec();
        let observable = c.outputs().to_vec();
        for &f in &faults {
            let podem = Podem::with_topology(
                CompiledTopology::shared(&c),
                controllable.clone(),
                vec![],
                observable.clone(),
            );
            match podem.run(&[f], &PodemConfig::default()).verdict {
                AtpgOutcome::Test(t) => {
                    assert!(verify_test(&c, f, &t), "bogus test for {f}");
                }
                other => panic!("c17 fault {f} should be testable, got {other:?}"),
            }
        }
    }

    #[test]
    fn incremental_resim_matches_full_reference() {
        // After injection and after every assignment change, the
        // event-driven values must equal a from-scratch resimulation,
        // and the maintained bookkeeping a recount from those values.
        let (c, _) = c17_like();
        let faults = fscan_fault::collapse(&c, &fscan_fault::all_faults(&c));
        let podem = Podem::with_topology(
            CompiledTopology::shared(&c),
            c.inputs().to_vec(),
            vec![],
            c.outputs().to_vec(),
        );
        let mut s = podem.scratch();
        let mut work = WorkCounters::ZERO;
        for f in &faults {
            podem.begin(&mut s, std::slice::from_ref(f), &mut work);
            assert_eq!(
                s.values,
                reference_values(&podem, &c, &s),
                "after begin {f}"
            );
            assert_bookkeeping(&podem, &c, &mut s, &format!("after begin {f}"));
            let inputs = c.inputs().to_vec();
            for (i, &pi) in inputs.iter().enumerate() {
                podem.set_input(&mut s, pi, Some(i % 2 == 0), &mut work);
                assert_eq!(s.values, reference_values(&podem, &c, &s), "after set {f}");
                assert_bookkeeping(&podem, &c, &mut s, &format!("after set {f}"));
            }
            for &pi in inputs.iter().rev() {
                podem.set_input(&mut s, pi, None, &mut work);
                assert_eq!(
                    s.values,
                    reference_values(&podem, &c, &s),
                    "after unset {f}"
                );
                assert_bookkeeping(&podem, &c, &mut s, &format!("after unset {f}"));
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        // A shared engine with one reused scratch must produce the same
        // outcomes and counters as fresh per-run scratches.
        let (c, _) = c17_like();
        let faults = fscan_fault::collapse(&c, &fscan_fault::all_faults(&c));
        let podem = Podem::with_topology(
            CompiledTopology::shared(&c),
            c.inputs().to_vec(),
            vec![],
            c.outputs().to_vec(),
        );
        let mut shared = podem.scratch();
        for &f in &faults {
            let fresh = podem.run(&[f], &PodemConfig::default());
            let reused = podem.run_with_scratch(&mut shared, &[f], &PodemConfig::default());
            assert_eq!(fresh, reused, "{f}");
        }
    }

    #[test]
    fn event_driven_resim_is_cheaper_than_full_passes() {
        // The old engine charged one full pass (order.len() evals) per
        // search step plus one initial pass; the event-driven engine
        // must beat that bound on every c17 fault.
        let (c, _) = c17_like();
        let faults = fscan_fault::collapse(&c, &fscan_fault::all_faults(&c));
        let podem = Podem::with_topology(
            CompiledTopology::shared(&c),
            c.inputs().to_vec(),
            vec![],
            c.outputs().to_vec(),
        );
        let full_pass = podem.setup_work().gate_evals;
        for &f in &faults {
            let out = podem.run(&[f], &PodemConfig::default());
            let old_cost = (out.steps() as u64 + 1) * full_pass;
            assert!(
                out.work.gate_evals <= old_cost,
                "{f}: event-driven {} vs full-resim bound {}",
                out.work.gate_evals,
                old_cost
            );
        }
    }

    #[test]
    fn proves_redundant_fault_undetectable() {
        // y = a OR (a AND b): the AND output s-a-0 is classic redundant.
        let mut c = Circuit::new("red");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, vec![a, b], "g");
        let y = c.add_gate(GateKind::Or, vec![a, g], "y");
        c.mark_output(y);
        let podem = Podem::with_topology(CompiledTopology::shared(&c), vec![a, b], vec![], vec![y]);
        let out = podem.run(&[Fault::stem(g, false)], &PodemConfig::default());
        assert_eq!(out.verdict, AtpgOutcome::Undetectable);
        assert!(out.vector().is_none());
    }

    #[test]
    fn fixed_inputs_can_make_faults_undetectable() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, vec![a, b], "g");
        c.mark_output(g);
        // Pin b = 0: output is constantly 0, so g s-a-0 is undetectable
        // and a s-a-1 is too.
        let podem = Podem::with_topology(
            CompiledTopology::shared(&c),
            vec![a],
            vec![(b, false)],
            vec![g],
        );
        assert_eq!(
            podem
                .run(&[Fault::stem(g, false)], &PodemConfig::default())
                .verdict,
            AtpgOutcome::Undetectable
        );
        assert_eq!(
            podem
                .run(&[Fault::stem(a, true)], &PodemConfig::default())
                .verdict,
            AtpgOutcome::Undetectable
        );
        // But g s-a-1 is testable (any a).
        assert!(matches!(
            podem
                .run(&[Fault::stem(g, true)], &PodemConfig::default())
                .verdict,
            AtpgOutcome::Test(_)
        ));
    }

    #[test]
    fn uncontrollable_input_blocks_test() {
        // g = AND(a, u) with u uncontrollable: faults needing u = 1
        // cannot be tested.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let u = c.add_input("u");
        let g = c.add_gate(GateKind::And, vec![a, u], "g");
        c.mark_output(g);
        let podem = Podem::with_topology(CompiledTopology::shared(&c), vec![a], vec![], vec![g]);
        assert_eq!(
            podem
                .run(&[Fault::stem(a, false)], &PodemConfig::default())
                .verdict,
            AtpgOutcome::Undetectable
        );
        let _ = u;
    }

    #[test]
    fn branch_fault_testable() {
        let (c, n) = c17_like();
        // Branch fault on g16's second pin (reading g11, which fans out).
        let g16 = n[7];
        let f = Fault::branch(g16, 1, true);
        let podem = Podem::with_topology(
            CompiledTopology::shared(&c),
            c.inputs().to_vec(),
            vec![],
            c.outputs().to_vec(),
        );
        match podem.run(&[f], &PodemConfig::default()).verdict {
            AtpgOutcome::Test(t) => assert!(verify_test(&c, f, &t)),
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn xor_propagation() {
        let mut c = Circuit::new("x");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::Xor, vec![a, b], "g");
        c.mark_output(g);
        for f in [Fault::stem(a, false), Fault::stem(a, true)] {
            let podem =
                Podem::with_topology(CompiledTopology::shared(&c), vec![a, b], vec![], vec![g]);
            match podem.run(&[f], &PodemConfig::default()).verdict {
                AtpgOutcome::Test(t) => assert!(verify_test(&c, f, &t), "{f}"),
                other => panic!("{f}: {other:?}"),
            }
        }
    }

    #[test]
    fn pseudo_input_flip_flops_are_assignable() {
        // Scan-style view: FF output is controllable, FF capture is not
        // observable; only the PO is.
        let mut c = Circuit::new("t");
        let pi = c.add_input("pi");
        let ff = c.add_dff_placeholder("ff");
        let g = c.add_gate(GateKind::And, vec![pi, ff], "g");
        c.set_dff_input(ff, g).unwrap();
        c.mark_output(g);
        let podem =
            Podem::with_topology(CompiledTopology::shared(&c), vec![pi, ff], vec![], vec![g]);
        match podem
            .run(&[Fault::stem(g, false)], &PodemConfig::default())
            .verdict
        {
            AtpgOutcome::Test(t) => {
                // Test must assign both pi=1 and ff=1.
                let m: std::collections::HashMap<_, _> = t.into_iter().collect();
                assert_eq!(m.get(&pi), Some(&true));
                assert_eq!(m.get(&ff), Some(&true));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn multi_site_fault_detected_via_any_copy() {
        // Two "frames": y0 = AND(a, u0), y1 = AND(b, one). The same
        // logical fault (stuck-at-0 on the AND output) is injected in
        // both copies; frame 1 is controllable, so the fault must be
        // detected through it.
        let mut c = Circuit::new("frames");
        let a = c.add_input("a");
        let u0 = c.add_input("u0"); // uncontrollable
        let b = c.add_input("b");
        let one = c.add_const(true, "one");
        let y0 = c.add_gate(GateKind::And, vec![a, u0], "y0");
        let y1 = c.add_gate(GateKind::And, vec![b, one], "y1");
        c.mark_output(y0);
        c.mark_output(y1);
        let podem = Podem::with_topology(
            CompiledTopology::shared(&c),
            vec![a, b],
            vec![],
            vec![y0, y1],
        );
        let faults = [Fault::stem(y0, false), Fault::stem(y1, false)];
        match podem.run(&faults, &PodemConfig::default()).verdict {
            AtpgOutcome::Test(t) => {
                let m: std::collections::HashMap<_, _> = t.into_iter().collect();
                assert_eq!(m.get(&b), Some(&true));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn abort_on_tiny_budget() {
        // A deep parity tree makes PODEM backtrack at least once for an
        // unlucky polarity; budget 0 forces an abort on first backtrack.
        let mut c = Circuit::new("parity");
        let mut nets = Vec::new();
        for i in 0..8 {
            nets.push(c.add_input(format!("i{i}")));
        }
        let mut level = nets.clone();
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                if pair.len() == 2 {
                    next.push(c.add_gate(GateKind::And, vec![pair[0], pair[1]], "g"));
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        let root = level[0];
        c.mark_output(root);
        let podem = Podem::with_topology(
            CompiledTopology::shared(&c),
            nets.clone(),
            vec![],
            vec![root],
        );
        let out = podem.run(
            &[Fault::stem(nets[7], false)],
            &PodemConfig {
                backtrack_limit: 0,
                ..PodemConfig::default()
            },
        );
        // Either it finds the test without backtracking (fine) or aborts;
        // it must never claim undetectable.
        assert_ne!(out.verdict, AtpgOutcome::Undetectable);
        assert_eq!(out.backtracks, out.work.podem_backtracks as usize);
    }
}
