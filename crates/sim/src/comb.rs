//! Levelized combinational evaluation with stuck-at fault injection.

use std::sync::Arc;

use fscan_fault::{Fault, FaultSite};
use fscan_netlist::{CompiledTopology, GateKind, NodeId};

use crate::kernel;
use crate::value::V3;

/// A reusable combinational evaluator for one circuit.
///
/// A thin view over a shared [`CompiledTopology`]; evaluation writes
/// into a caller provided value vector indexed by node id, so callers
/// control where primary-input and flip-flop values come from.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Clone, Debug)]
pub struct CombEvaluator {
    topo: Arc<CompiledTopology>,
}

impl CombEvaluator {
    /// Builds an evaluator over an already-compiled topology.
    pub fn with_topology(topo: Arc<CompiledTopology>) -> CombEvaluator {
        CombEvaluator { topo }
    }

    /// The shared compiled topology this evaluator runs against.
    pub fn topology(&self) -> &Arc<CompiledTopology> {
        &self.topo
    }

    /// The evaluation order (constants and gates, topologically sorted).
    pub fn order(&self) -> &[NodeId] {
        self.topo.eval_order()
    }

    /// Each node's position in [`CombEvaluator::order`], indexed by node
    /// id (`u32::MAX` for nodes outside the order: inputs, flip-flops).
    /// Event-driven consumers use this to schedule gates topologically.
    pub fn order_positions(&self) -> &[u32] {
        self.topo.order_positions()
    }

    /// Evaluates the fault-free combinational logic.
    ///
    /// `values` must be indexed by node id; primary-input and flip-flop
    /// entries are read, gate and constant entries are written.
    ///
    /// # Panics
    ///
    /// Panics if `values` is shorter than the node count.
    pub fn eval(&self, values: &mut [V3]) {
        self.eval_inner(values, None);
    }

    /// Evaluates with a single stuck-at fault injected.
    ///
    /// Stem faults on primary inputs or flip-flops override the preset
    /// entry in `values`; stem faults on gates override the gate's
    /// computed output; branch faults override the value seen by one
    /// input pin only.
    pub fn eval_with_fault(&self, values: &mut [V3], fault: Fault) {
        self.eval_inner(values, Some(fault));
    }

    fn eval_inner(&self, values: &mut [V3], fault: Option<Fault>) {
        assert!(values.len() >= self.topo.num_nodes());
        // Pre-pass: stem faults on nodes not in the evaluation order
        // (inputs, flip-flop outputs) must override the preset values.
        if let Some(Fault {
            site: FaultSite::Stem(n),
            stuck,
        }) = fault
        {
            let k = self.topo.kind(n);
            if !k.is_gate() && !matches!(k, GateKind::Const0 | GateKind::Const1) {
                values[n.index()] = V3::from_bool(stuck);
            }
        }
        let mut buf: Vec<V3> = Vec::with_capacity(8);
        for &id in self.topo.eval_order() {
            buf.clear();
            for (pin, &src) in self.topo.fanin(id).iter().enumerate() {
                let mut v = values[src.index()];
                if let Some(Fault {
                    site: FaultSite::Branch { gate, pin: fpin },
                    stuck,
                }) = fault
                {
                    if gate == id && fpin == pin {
                        v = V3::from_bool(stuck);
                    }
                }
                buf.push(v);
            }
            let mut out = kernel::eval_v3(self.topo.kind(id), buf.iter().copied());
            if let Some(Fault {
                site: FaultSite::Stem(n),
                stuck,
            }) = fault
            {
                if n == id {
                    out = V3::from_bool(stuck);
                }
            }
            values[id.index()] = out;
        }
        // Branch fault on a flip-flop's D pin is handled by the caller
        // (sequential simulators) when sampling next state; nothing to do
        // in a purely combinational pass.
    }

    /// The value a flip-flop would capture next cycle, honoring a branch
    /// fault on its D pin and stem faults on its driver.
    pub fn dff_next(&self, values: &[V3], dff: NodeId, fault: Option<Fault>) -> V3 {
        let d = self.topo.fanin(dff)[0];
        if let Some(Fault {
            site: FaultSite::Branch { gate, pin: 0 },
            stuck,
        }) = fault
        {
            if gate == dff {
                return V3::from_bool(stuck);
            }
        }
        values[d.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscan_netlist::Circuit;

    fn mux_circuit() -> (Circuit, [NodeId; 6]) {
        // y = (a AND s') OR (b AND s)
        let mut c = Circuit::new("mux");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let s = c.add_input("s");
        let ns = c.add_gate(GateKind::Not, vec![s], "ns");
        let t0 = c.add_gate(GateKind::And, vec![a, ns], "t0");
        let t1 = c.add_gate(GateKind::And, vec![b, s], "t1");
        let y = c.add_gate(GateKind::Or, vec![t0, t1], "y");
        c.mark_output(y);
        (c, [a, b, s, t0, t1, y])
    }

    #[test]
    fn mux_selects() {
        let (c, [a, b, s, _, _, y]) = mux_circuit();
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let mut v = vec![V3::X; c.num_nodes()];
        v[a.index()] = V3::One;
        v[b.index()] = V3::Zero;
        v[s.index()] = V3::Zero;
        eval.eval(&mut v);
        assert_eq!(v[y.index()], V3::One);
        v[s.index()] = V3::One;
        eval.eval(&mut v);
        assert_eq!(v[y.index()], V3::Zero);
    }

    #[test]
    fn x_propagates_only_when_needed() {
        let (c, [a, b, s, _, _, y]) = mux_circuit();
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let mut v = vec![V3::X; c.num_nodes()];
        // a == b == 1 makes the output 1 regardless of s... but a plain
        // 3-valued simulator cannot see that (X-pessimism): s=X gives X.
        v[a.index()] = V3::One;
        v[b.index()] = V3::One;
        v[s.index()] = V3::X;
        eval.eval(&mut v);
        assert_eq!(v[y.index()], V3::X, "3-valued sim is pessimistic by design");
        // With the select known, output is known.
        v[s.index()] = V3::One;
        eval.eval(&mut v);
        assert_eq!(v[y.index()], V3::One);
    }

    #[test]
    fn stem_fault_on_gate() {
        let (c, [a, b, s, t0, _, y]) = mux_circuit();
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let mut v = vec![V3::X; c.num_nodes()];
        v[a.index()] = V3::One;
        v[b.index()] = V3::Zero;
        v[s.index()] = V3::Zero;
        eval.eval_with_fault(&mut v, Fault::stem(t0, false));
        assert_eq!(v[y.index()], V3::Zero, "t0 s-a-0 kills the selected path");
    }

    #[test]
    fn stem_fault_on_input() {
        let (c, [a, b, s, _, _, y]) = mux_circuit();
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let mut v = vec![V3::X; c.num_nodes()];
        v[a.index()] = V3::One;
        v[b.index()] = V3::Zero;
        v[s.index()] = V3::Zero;
        eval.eval_with_fault(&mut v, Fault::stem(a, false));
        assert_eq!(v[a.index()], V3::Zero, "input value overridden");
        assert_eq!(v[y.index()], V3::Zero);
    }

    #[test]
    fn branch_fault_hits_one_pin_only() {
        // s fans out to NOT and t1; a branch fault on t1's s-pin must not
        // disturb the NOT gate.
        let (c, [a, b, s, _, t1, y]) = mux_circuit();
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let mut v = vec![V3::X; c.num_nodes()];
        v[a.index()] = V3::Zero;
        v[b.index()] = V3::One;
        v[s.index()] = V3::Zero;
        // Good: y = 0 (a selected, a=0). Fault: t1.pin1 (s) s-a-1 turns
        // t1 on (b AND 1 = 1) while ns still sees s=0 → y = 1.
        eval.eval_with_fault(&mut v, Fault::branch(t1, 1, true));
        assert_eq!(v[y.index()], V3::One);
    }

    #[test]
    fn dff_next_with_branch_fault() {
        let mut c = Circuit::new("seq");
        let a = c.add_input("a");
        let ff = c.add_dff(a, "ff");
        c.mark_output(ff);
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let mut v = vec![V3::X; c.num_nodes()];
        v[a.index()] = V3::One;
        eval.eval(&mut v);
        assert_eq!(eval.dff_next(&v, ff, None), V3::One);
        let f = Fault::branch(ff, 0, false);
        assert_eq!(eval.dff_next(&v, ff, Some(f)), V3::Zero);
    }
}
