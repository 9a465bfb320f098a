//! Cycle-accurate sequential simulation and serial fault simulation.

use fscan_fault::Fault;
use fscan_netlist::Circuit;

use crate::comb::CombEvaluator;
use crate::counters::WorkCounters;
use crate::value::V3;

/// The observable result of a sequential simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Primary-output values per cycle, in `Circuit::outputs` order.
    pub outputs: Vec<Vec<V3>>,
    /// Flip-flop state after the last cycle, in `Circuit::dffs` order.
    pub final_state: Vec<V3>,
}

/// Returns the first cycle at which the two traces *definitely* differ
/// on some primary output: both values known and unequal. An X in either
/// trace never counts as a detection (the standard pessimistic rule).
///
/// # Examples
///
/// ```
/// use fscan_sim::{detects, Trace, V3};
///
/// let good = Trace { outputs: vec![vec![V3::One]], final_state: vec![] };
/// let bad = Trace { outputs: vec![vec![V3::Zero]], final_state: vec![] };
/// let masked = Trace { outputs: vec![vec![V3::X]], final_state: vec![] };
/// assert_eq!(detects(&good, &bad), Some(0));
/// assert_eq!(detects(&good, &masked), None);
/// ```
pub fn detects(good: &Trace, faulty: &Trace) -> Option<usize> {
    good.outputs
        .iter()
        .zip(faulty.outputs.iter())
        .position(|(g, f)| {
            g.iter()
                .zip(f.iter())
                .any(|(&gv, &fv)| gv.is_known() && fv.is_known() && gv != fv)
        })
}

/// A sequential (cycle-accurate) simulator for one circuit.
///
/// Each cycle applies one primary-input vector, evaluates the
/// combinational logic, samples primary outputs, then clocks every
/// flip-flop with its D value. Unknown (X) initial state is supported.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{Circuit, GateKind};
/// use fscan_sim::{SeqSim, V3};
///
/// // A 1-bit toggle: ff <- NOT ff.
/// let mut c = Circuit::new("toggle");
/// let ff = c.add_dff_placeholder("ff");
/// let n = c.add_gate(GateKind::Not, vec![ff], "n");
/// c.set_dff_input(ff, n).unwrap();
/// c.mark_output(ff);
/// let sim = SeqSim::new(&c);
/// let trace = sim.run(&vec![vec![]; 3], &[V3::Zero], None);
/// let po: Vec<V3> = trace.outputs.iter().map(|o| o[0]).collect();
/// assert_eq!(po, vec![V3::Zero, V3::One, V3::Zero]);
/// ```
#[derive(Clone, Debug)]
pub struct SeqSim<'c> {
    circuit: &'c Circuit,
    eval: CombEvaluator,
}

impl<'c> SeqSim<'c> {
    /// Builds a simulator, compiling a private topology. Prefer
    /// [`SeqSim::with_topology`] when a compiled plan is already
    /// available.
    pub fn new(circuit: &'c Circuit) -> SeqSim<'c> {
        SeqSim {
            circuit,
            eval: CombEvaluator::new(circuit),
        }
    }

    /// Builds a simulator over an already-compiled topology of `circuit`.
    pub fn with_topology(
        circuit: &'c Circuit,
        topo: std::sync::Arc<fscan_netlist::CompiledTopology>,
    ) -> SeqSim<'c> {
        debug_assert_eq!(circuit.num_nodes(), topo.num_nodes());
        SeqSim {
            circuit,
            eval: CombEvaluator::with_topology(topo),
        }
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The combinational evaluator (shared levelization).
    pub fn evaluator(&self) -> &CombEvaluator {
        &self.eval
    }

    /// Runs `vectors.len()` cycles from the initial flip-flop state
    /// `init`, optionally with a stuck-at fault injected in every cycle.
    ///
    /// `vectors[t]` holds the cycle-`t` primary-input values in
    /// `Circuit::inputs` order; `init` is in `Circuit::dffs` order.
    ///
    /// # Panics
    ///
    /// Panics if a vector's length differs from the input count or
    /// `init` from the flip-flop count.
    pub fn run(&self, vectors: &[Vec<V3>], init: &[V3], fault: Option<Fault>) -> Trace {
        let mut on_cycle = |_: usize, _: &[V3]| true;
        self.run_observed(vectors, init, fault, &mut on_cycle)
    }

    /// Like [`SeqSim::run`] but invokes `on_cycle(t, po_values)` after
    /// each cycle; returning `false` stops the simulation early (the
    /// trace then contains only the cycles simulated).
    pub fn run_observed(
        &self,
        vectors: &[Vec<V3>],
        init: &[V3],
        fault: Option<Fault>,
        on_cycle: &mut dyn FnMut(usize, &[V3]) -> bool,
    ) -> Trace {
        let c = self.circuit;
        assert_eq!(init.len(), c.dffs().len(), "init length != flip-flop count");
        let mut values = vec![V3::X; c.num_nodes()];
        let mut state = init.to_vec();
        let mut outputs = Vec::with_capacity(vectors.len());
        let mut po_buf = vec![V3::X; c.outputs().len()];
        for (t, vec_t) in vectors.iter().enumerate() {
            assert_eq!(
                vec_t.len(),
                c.inputs().len(),
                "vector length != input count"
            );
            for (&pi, &v) in c.inputs().iter().zip(vec_t.iter()) {
                values[pi.index()] = v;
            }
            for (&ff, &v) in c.dffs().iter().zip(state.iter()) {
                values[ff.index()] = v;
            }
            match fault {
                Some(f) => self.eval.eval_with_fault(c, &mut values, f),
                None => self.eval.eval(c, &mut values),
            }
            for (k, &po) in c.outputs().iter().enumerate() {
                po_buf[k] = values[po.index()];
            }
            outputs.push(po_buf.clone());
            for (s, &ff) in state.iter_mut().zip(c.dffs().iter()) {
                *s = self.eval.dff_next(c, &values, ff, fault);
            }
            if !on_cycle(t, &po_buf) {
                break;
            }
        }
        Trace {
            outputs,
            final_state: state,
        }
    }

    /// Exact work performed by a run that simulated `cycles` cycles:
    /// every ordered combinational node is evaluated once per cycle, and
    /// a serial run covers exactly one fault lane per cycle.
    ///
    /// The count depends only on the circuit and the cycle count — never
    /// on wall-clock or thread count — so it is safe to feed into the
    /// deterministic [`WorkCounters`] aggregation.
    pub fn work_for_cycles(&self, cycles: usize) -> WorkCounters {
        WorkCounters {
            gate_evals: cycles as u64 * self.eval.order().len() as u64,
            lane_cycles: cycles as u64,
            ..WorkCounters::ZERO
        }
    }

    /// Serial sequential fault simulation: for every fault, runs the
    /// whole sequence from state `init` and reports the first cycle of
    /// definite detection (`None` if undetected). Simulation of a fault
    /// stops at its first detection.
    pub fn fault_sim(
        &self,
        vectors: &[Vec<V3>],
        init: &[V3],
        faults: &[Fault],
    ) -> Vec<Option<usize>> {
        self.fault_sim_counted(vectors, init, faults).0
    }

    /// [`SeqSim::fault_sim`] plus the exact [`WorkCounters`] of the good
    /// run and every (early-stopping) faulty run.
    pub fn fault_sim_counted(
        &self,
        vectors: &[Vec<V3>],
        init: &[V3],
        faults: &[Fault],
    ) -> (Vec<Option<usize>>, WorkCounters) {
        let good = self.run(vectors, init, None);
        let mut counters = self.work_for_cycles(good.outputs.len());
        let detections = faults
            .iter()
            .map(|&f| {
                let mut hit = None;
                let mut on_cycle = |t: usize, po: &[V3]| {
                    let g = &good.outputs[t];
                    let diff = g
                        .iter()
                        .zip(po.iter())
                        .any(|(&gv, &fv)| gv.is_known() && fv.is_known() && gv != fv);
                    if diff {
                        hit = Some(t);
                        false
                    } else {
                        true
                    }
                };
                let trace = self.run_observed(vectors, init, Some(f), &mut on_cycle);
                counters += self.work_for_cycles(trace.outputs.len());
                if hit.is_some() && trace.outputs.len() < vectors.len() {
                    counters.early_exits += 1;
                }
                hit
            })
            .collect();
        (detections, counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscan_netlist::GateKind;

    /// A 3-stage shift register with a NAND (side input held by a PI) in
    /// the middle — a miniature functional scan path.
    fn shiftreg() -> (Circuit, Vec<fscan_netlist::NodeId>) {
        let mut c = Circuit::new("shift3");
        let sin = c.add_input("scan_in");
        let side = c.add_input("side");
        let ff0 = c.add_dff(sin, "ff0");
        let nand = c.add_gate(GateKind::Nand, vec![ff0, side], "nand");
        let ff1 = c.add_dff(nand, "ff1");
        let ff2 = c.add_dff(ff1, "ff2");
        c.mark_output(ff2);
        (c, vec![sin, side, ff0, nand, ff1, ff2])
    }

    fn bits(s: &str) -> Vec<V3> {
        s.chars()
            .map(|ch| match ch {
                '0' => V3::Zero,
                '1' => V3::One,
                _ => V3::X,
            })
            .collect()
    }

    #[test]
    fn shift_register_delays_by_three() {
        let (c, _) = shiftreg();
        let sim = SeqSim::new(&c);
        // side held at 1 → NAND inverts. Feed 1,0,1,1,0,...
        let stream = bits("10110");
        let vectors: Vec<Vec<V3>> = stream.iter().map(|&b| vec![b, V3::One]).collect();
        let init = vec![V3::Zero; 3];
        let trace = sim.run(&vectors, &init, None);
        // ff2 at cycle t shows NOT(stream[t-3]) for t >= 3.
        assert_eq!(trace.outputs[3][0], !stream[0]);
        assert_eq!(trace.outputs[4][0], !stream[1]);
    }

    #[test]
    fn x_initial_state_washes_out() {
        let (c, _) = shiftreg();
        let sim = SeqSim::new(&c);
        let vectors: Vec<Vec<V3>> = (0..5).map(|_| vec![V3::One, V3::One]).collect();
        let trace = sim.run(&vectors, &[V3::X, V3::X, V3::X], None);
        assert_eq!(trace.outputs[0][0], V3::X);
        assert_eq!(trace.outputs[2][0], V3::X);
        // After 3 shifts the X state has been flushed.
        assert_eq!(trace.outputs[3][0], V3::Zero); // NOT(1)
    }

    #[test]
    fn fault_sim_detects_stuck_side_input() {
        let (c, nodes) = shiftreg();
        let side = nodes[1];
        let sim = SeqSim::new(&c);
        // Alternating scan pattern, side at 1.
        let stream = bits("00110011");
        let vectors: Vec<Vec<V3>> = stream.iter().map(|&b| vec![b, V3::One]).collect();
        let init = vec![V3::Zero; 3];
        // side s-a-0 forces the NAND output to 1 → tail of constant 1s.
        let res = sim.fault_sim(&vectors, &init, &[Fault::stem(side, false)]);
        assert!(res[0].is_some(), "stuck side input must be detected");
    }

    #[test]
    fn undetected_fault_reports_none() {
        let (c, nodes) = shiftreg();
        let side = nodes[1];
        let sim = SeqSim::new(&c);
        // side s-a-1 is invisible while we drive side = 1 anyway.
        let vectors: Vec<Vec<V3>> = bits("0101").iter().map(|&b| vec![b, V3::One]).collect();
        let res = sim.fault_sim(&vectors, &[V3::Zero; 3], &[Fault::stem(side, true)]);
        assert_eq!(res[0], None);
    }

    #[test]
    fn detects_requires_known_values() {
        let good = Trace {
            outputs: vec![vec![V3::X], vec![V3::One]],
            final_state: vec![],
        };
        let faulty = Trace {
            outputs: vec![vec![V3::Zero], vec![V3::Zero]],
            final_state: vec![],
        };
        assert_eq!(detects(&good, &faulty), Some(1));
    }

    #[test]
    fn observer_can_stop_early() {
        let (c, _) = shiftreg();
        let sim = SeqSim::new(&c);
        let vectors: Vec<Vec<V3>> = (0..10).map(|_| vec![V3::One, V3::One]).collect();
        let mut seen = 0;
        let mut cb = |t: usize, _: &[V3]| {
            seen = t + 1;
            t < 2
        };
        let trace = sim.run_observed(&vectors, &[V3::X; 3], None, &mut cb);
        assert_eq!(seen, 3);
        assert_eq!(trace.outputs.len(), 3);
    }
}
