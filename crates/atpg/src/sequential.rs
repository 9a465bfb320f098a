//! Sequential ATPG by iterative-deepening time-frame expansion.

use std::sync::Arc;

use fscan_fault::Fault;
use fscan_netlist::{Circuit, CompiledTopology, NodeId};
use fscan_sim::WorkCounters;

use crate::podem::{AtpgOutcome, Podem, PodemConfig};
use crate::unroll::{unroll, Unrolled};

/// Tuning knobs for [`SeqAtpg`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SeqAtpgConfig {
    /// Maximum number of time frames for iterative deepening.
    pub max_frames: usize,
    /// Total PODEM backtrack budget per fault, spent across the whole
    /// deepening schedule.
    pub backtrack_limit: usize,
    /// Total search-step budget per fault — the knob that actually
    /// bounds wall-clock time on deep unrollings. A step costs what it
    /// changes in the unrolled model: the event-driven resimulation of
    /// the changed cone, the D-frontier updates of the nets it wrote and
    /// the X-path search ahead of the frontier (see
    /// [`PodemConfig::step_limit`]); no part of it sweeps all frames.
    pub step_limit: usize,
}

impl Default for SeqAtpgConfig {
    fn default() -> SeqAtpgConfig {
        SeqAtpgConfig {
            max_frames: 8,
            backtrack_limit: 10_000,
            step_limit: 8_000,
        }
    }
}

/// A test sequence produced by sequential ATPG.
///
/// `None` entries are don't-cares. `init_state` refers to the
/// controllable flip-flops only (others were X and stay unconstrained).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeqTest {
    /// Required initial value per flip-flop (original `dffs` order);
    /// always `None` for uncontrollable flip-flops.
    pub init_state: Vec<Option<bool>>,
    /// Per-frame primary-input vectors (original `inputs` order). Fixed
    /// (pinned) inputs appear with their pinned value.
    pub vectors: Vec<Vec<Option<bool>>>,
}

/// Outcome of a sequential ATPG attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeqOutcome {
    /// A (potential) detection sequence was found.
    Test(SeqTest),
    /// The fault is provably undetectable: it is combinationally
    /// undetectable even with every flip-flop controllable and
    /// observable, which soundly implies sequential undetectability.
    Undetectable,
    /// No verdict within the frame/backtrack budget.
    Aborted,
}

/// Sequential test generator over a controllability/observability view
/// of a sequential circuit (paper, Section 5).
///
/// The view mirrors the paper's `n-m.C,o-p.O` circuits: a subset of
/// flip-flops is controllable (their frame-0 state is free), a subset is
/// observable (their captured value reaches the tester through the
/// fault-free tail of the scan chain), and some primary inputs are
/// pinned to scan-mode constants.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{Circuit, CompiledTopology, GateKind};
/// use fscan_fault::Fault;
/// use fscan_atpg::{SeqAtpg, SeqAtpgConfig, SeqOutcome};
///
/// // ff1 <- pi; ff2 <- ff1; observe ff2's capture.
/// let mut c = Circuit::new("pipe2");
/// let pi = c.add_input("pi");
/// let ff1 = c.add_dff(pi, "ff1");
/// let buf = c.add_gate(GateKind::Buf, vec![ff1], "buf");
/// let ff2 = c.add_dff(buf, "ff2");
/// c.mark_output(ff2);
/// let atpg = SeqAtpg::with_topology(&c, CompiledTopology::shared(&c))
///     .controllable_ffs(vec![])
///     .observable_ffs(vec![1]);
/// let (out, work) = atpg.run(Fault::stem(buf, false), &SeqAtpgConfig::default());
/// assert!(matches!(out, SeqOutcome::Test(_)));
/// assert!(work.gate_evals > 0);
/// ```
#[derive(Clone, Debug)]
pub struct SeqAtpg<'c> {
    circuit: &'c Circuit,
    topo: Arc<CompiledTopology>,
    controllable_ffs: Vec<usize>,
    observable_ffs: Vec<usize>,
    fixed_pis: Vec<(usize, bool)>,
}

impl<'c> SeqAtpg<'c> {
    /// Creates a generator for `circuit`, whose compiled topology is
    /// `topo`; every unrolling reuses its levelized order. (The unrolled
    /// models are distinct circuits and compile their own plans.) By
    /// default no flip-flop is controllable or observable and no primary
    /// input is pinned.
    pub fn with_topology(circuit: &'c Circuit, topo: Arc<CompiledTopology>) -> SeqAtpg<'c> {
        debug_assert_eq!(circuit.num_nodes(), topo.num_nodes());
        SeqAtpg {
            circuit,
            topo,
            controllable_ffs: Vec::new(),
            observable_ffs: Vec::new(),
            fixed_pis: Vec::new(),
        }
    }

    /// Sets the indices (into `Circuit::dffs`) of flip-flops whose
    /// initial state is controllable.
    pub fn controllable_ffs(mut self, ffs: Vec<usize>) -> SeqAtpg<'c> {
        self.controllable_ffs = ffs;
        self
    }

    /// Sets the indices of flip-flops whose captured value is observable
    /// in every frame.
    pub fn observable_ffs(mut self, ffs: Vec<usize>) -> SeqAtpg<'c> {
        self.observable_ffs = ffs;
        self
    }

    /// Pins primary inputs (by index into `Circuit::inputs`) to constants
    /// in every frame (the scan-mode assignments).
    pub fn fixed_pis(mut self, pins: Vec<(usize, bool)>) -> SeqAtpg<'c> {
        self.fixed_pis = pins;
        self
    }

    /// Attempts to generate a test for `fault`.
    ///
    /// Runs a sound undetectability check first (full-scan view, one
    /// frame), then iteratively deepens the restricted view from one
    /// frame up to `config.max_frames`.
    ///
    /// Always returns the exact [`WorkCounters`] alongside the verdict,
    /// summed over the undetectability check and every PODEM run of the
    /// deepening schedule (including each unrolled engine's setup pass).
    /// Deterministic per `(fault, view, config)`.
    pub fn run(&self, fault: Fault, config: &SeqAtpgConfig) -> (SeqOutcome, WorkCounters) {
        // `backtrack_limit` is a *total* budget for this fault, spent
        // across the undetectability check and the whole deepening
        // schedule, so hopeless faults cannot burn the full budget at
        // every depth.
        let mut work = WorkCounters::ZERO;
        let mut budget = config.backtrack_limit;
        let mut steps = config.step_limit;
        let (undetectable, used, w) = self.full_scan_undetectable(fault, budget, steps);
        work += w;
        if undetectable {
            return (SeqOutcome::Undetectable, work);
        }
        budget = budget.saturating_sub(used.0);
        steps = steps.saturating_sub(used.1);
        // Deepen exponentially (1, 2, 4, …, max): a fault needing k
        // frames is found at the first power of two ≥ k, and deep
        // unrollings are only paid for when shallow ones fail.
        let mut schedule: Vec<usize> = Vec::new();
        let mut f = 1;
        while f < config.max_frames {
            schedule.push(f);
            f *= 2;
        }
        schedule.push(config.max_frames);
        for frames in schedule {
            let (test, used, w) = self.run_frames(fault, frames, budget, steps);
            work += w;
            if let Some(test) = test {
                return (SeqOutcome::Test(test), work);
            }
            budget = budget.saturating_sub(used.0);
            steps = steps.saturating_sub(used.1);
            if budget == 0 || steps == 0 {
                break;
            }
        }
        (SeqOutcome::Aborted, work)
    }

    /// Sound undetectability: combinationally undetectable with every
    /// flip-flop controllable and observable implies sequentially
    /// undetectable under any access scheme. Returns the verdict and the
    /// backtracks consumed.
    fn full_scan_undetectable(
        &self,
        fault: Fault,
        backtrack_limit: usize,
        step_limit: usize,
    ) -> (bool, (usize, usize), WorkCounters) {
        let (u, map) = unroll(self.circuit, &self.topo, 1);
        let Some(f) = u.map_fault(self.circuit, fault, 0, &map) else {
            return (false, (0, 0), WorkCounters::ZERO);
        };
        let free: Vec<NodeId> = self.free_pi_nodes(&u, 1);
        let mut controllable = free;
        controllable.extend_from_slice(u.state0s());
        let mut observable: Vec<NodeId> = u.pos(0).to_vec();
        observable.extend_from_slice(u.captures(0));
        let fixed = self.fixed_nodes(&u, 1);
        let podem = Podem::with_topology(
            CompiledTopology::shared(u.circuit()),
            controllable,
            fixed,
            observable,
        );
        let budget = PodemConfig {
            backtrack_limit,
            step_limit,
        };
        let out = podem.run(&[f], &budget);
        let verdict = out.verdict == AtpgOutcome::Undetectable;
        (
            verdict,
            (out.backtracks, out.steps()),
            podem.setup_work() + out.work,
        )
    }

    fn free_pi_nodes(&self, u: &Unrolled, frames: usize) -> Vec<NodeId> {
        let fixed: std::collections::HashSet<usize> =
            self.fixed_pis.iter().map(|&(k, _)| k).collect();
        let mut out = Vec::new();
        for t in 0..frames {
            for (k, &pi) in u.pis(t).iter().enumerate() {
                if !fixed.contains(&k) {
                    out.push(pi);
                }
            }
        }
        out
    }

    fn fixed_nodes(&self, u: &Unrolled, frames: usize) -> Vec<(NodeId, bool)> {
        let mut out = Vec::new();
        for t in 0..frames {
            for &(k, v) in &self.fixed_pis {
                out.push((u.pi(t, k), v));
            }
        }
        out
    }

    /// One PODEM search on the `frames`-frame model. Returns the test,
    /// decoded against that model, when one is found; the backtracks and
    /// steps consumed; and the work.
    fn run_frames(
        &self,
        fault: Fault,
        frames: usize,
        backtrack_limit: usize,
        step_limit: usize,
    ) -> (Option<SeqTest>, (usize, usize), WorkCounters) {
        let (u, map) = unroll(self.circuit, &self.topo, frames);
        let faults: Vec<Fault> = (0..frames)
            .filter_map(|t| u.map_fault(self.circuit, fault, t, &map))
            .collect();
        let mut controllable = self.free_pi_nodes(&u, frames);
        for &k in &self.controllable_ffs {
            controllable.push(u.state0(k));
        }
        let mut observable: Vec<NodeId> = Vec::new();
        for t in 0..frames {
            observable.extend_from_slice(u.pos(t));
            for &k in &self.observable_ffs {
                observable.push(u.capture(t, k));
            }
        }
        let fixed = self.fixed_nodes(&u, frames);
        let podem = Podem::with_topology(
            CompiledTopology::shared(u.circuit()),
            controllable,
            fixed,
            observable,
        );
        let budget = PodemConfig {
            backtrack_limit,
            step_limit,
        };
        let out = podem.run(&faults, &budget);
        let used = (out.backtracks, out.steps());
        let work = podem.setup_work() + out.work;
        let test = out
            .vector()
            .map(|assignments| self.decode(&u, frames, assignments));
        (test, used, work)
    }

    /// Maps a test's assignments on the unrolled model `u` back to
    /// initial-state and per-frame input slots.
    fn decode(&self, u: &Unrolled, frames: usize, assignments: &[(NodeId, bool)]) -> SeqTest {
        let n_pis = self.circuit.inputs().len();
        let n_ffs = self.circuit.dffs().len();
        let mut vectors = vec![vec![None; n_pis]; frames];
        for row in &mut vectors {
            for &(k, v) in &self.fixed_pis {
                row[k] = Some(v);
            }
        }
        let mut init_state = vec![None; n_ffs];
        let mut slot_of: std::collections::HashMap<NodeId, (usize, usize, bool)> =
            std::collections::HashMap::new();
        for t in 0..frames {
            for (k, &pi) in u.pis(t).iter().enumerate() {
                slot_of.insert(pi, (t, k, false));
            }
        }
        for (k, &s) in u.state0s().iter().enumerate() {
            slot_of.insert(s, (0, k, true));
        }
        for &(node, val) in assignments {
            if let Some(&(t, k, is_state)) = slot_of.get(&node) {
                if is_state {
                    init_state[k] = Some(val);
                } else {
                    vectors[t][k] = Some(val);
                }
            }
        }
        SeqTest {
            init_state,
            vectors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscan_netlist::GateKind;
    use fscan_sim::{detects, SeqSim, V3};

    /// A 4-FF shift pipeline with a NAND in the middle whose side input
    /// is a primary input — the canonical functional-scan-path shape.
    fn pipeline() -> (Circuit, NodeId, NodeId) {
        let mut c = Circuit::new("pipe");
        let sin = c.add_input("sin");
        let side = c.add_input("side");
        let ff0 = c.add_dff(sin, "ff0");
        let ff1 = c.add_dff(ff0, "ff1");
        let nand = c.add_gate(GateKind::Nand, vec![ff1, side], "nand");
        let ff2 = c.add_dff(nand, "ff2");
        let ff3 = c.add_dff(ff2, "ff3");
        c.mark_output(ff3);
        (c, nand, side)
    }

    fn apply_test(c: &Circuit, test: &SeqTest, fault: Fault, extra_cycles: usize) -> bool {
        // Fill don't-cares with 0, append flush cycles of zeros.
        let n_pis = c.inputs().len();
        let mut vectors: Vec<Vec<V3>> = test
            .vectors
            .iter()
            .map(|v| v.iter().map(|o| V3::from(o.unwrap_or(false))).collect())
            .collect();
        for _ in 0..extra_cycles {
            vectors.push(vec![V3::Zero; n_pis]);
        }
        let init: Vec<V3> = test
            .init_state
            .iter()
            .map(|o| o.map(V3::from).unwrap_or(V3::X))
            .collect();
        let sim = SeqSim::new(c);
        let good = sim.run(&vectors, &init, None);
        let bad = sim.run(&vectors, &init, Some(fault));
        detects(&good, &bad).is_some()
    }

    #[test]
    fn finds_multi_frame_test() {
        let (c, nand, _) = pipeline();
        // No controllable state, no observable FFs: must drive from sin
        // across frames and observe at the PO after two more frames.
        let atpg = SeqAtpg::with_topology(&c, CompiledTopology::shared(&c));
        let (out, work) = atpg.run(Fault::stem(nand, true), &SeqAtpgConfig::default());
        assert!(work.gate_evals > 0, "work counters must be returned");
        match out {
            SeqOutcome::Test(t) => {
                assert!(apply_test(&c, &t, Fault::stem(nand, true), 0));
            }
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn controllable_state_shortens_sequences() {
        let (c, nand, _) = pipeline();
        // With ff1 controllable and ff2's capture observable, a single
        // frame suffices.
        let atpg = SeqAtpg::with_topology(&c, CompiledTopology::shared(&c))
            .controllable_ffs(vec![0, 1])
            .observable_ffs(vec![2, 3]);
        let cfg = SeqAtpgConfig {
            max_frames: 1,
            ..SeqAtpgConfig::default()
        };
        let (out, _) = atpg.run(Fault::stem(nand, true), &cfg);
        assert!(matches!(out, SeqOutcome::Test(_)), "got {out:?}");
    }

    #[test]
    fn pinned_side_input_makes_fault_undetectable() {
        let (c, _, side) = pipeline();
        // Pin side = 1 (scan mode): side s-a-1 cannot be excited.
        let side_idx = c.inputs().iter().position(|&p| p == side).unwrap();
        let atpg = SeqAtpg::with_topology(&c, CompiledTopology::shared(&c))
            .fixed_pis(vec![(side_idx, true)]);
        let (out, _) = atpg.run(Fault::stem(side, true), &SeqAtpgConfig::default());
        assert_eq!(out, SeqOutcome::Undetectable);
    }

    #[test]
    fn decode_marks_fixed_pins() {
        let (c, nand, side) = pipeline();
        let side_idx = c.inputs().iter().position(|&p| p == side).unwrap();
        let atpg = SeqAtpg::with_topology(&c, CompiledTopology::shared(&c))
            .fixed_pis(vec![(side_idx, true)]);
        // nand s-a-1: excite by making output 0 (ff1=1, side=1), then
        // propagate. side is pinned to 1 so this works.
        let (out, _) = atpg.run(Fault::stem(nand, true), &SeqAtpgConfig::default());
        match out {
            SeqOutcome::Test(t) => {
                for v in &t.vectors {
                    assert_eq!(v[side_idx], Some(true), "pinned PI must appear pinned");
                }
                assert!(apply_test(&c, &t, Fault::stem(nand, true), 0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aborts_when_frames_insufficient() {
        let (c, nand, _) = pipeline();
        // One frame, nothing controllable/observable except the PO: the
        // effect needs 2 frames to reach ff3. Expect Aborted (not
        // Undetectable! the fault is detectable with more frames).
        let cfg = SeqAtpgConfig {
            max_frames: 1,
            ..SeqAtpgConfig::default()
        };
        let (out, _) = SeqAtpg::with_topology(&c, CompiledTopology::shared(&c))
            .run(Fault::stem(nand, true), &cfg);
        assert_eq!(out, SeqOutcome::Aborted);
    }
}
