//! Structural circuit statistics (the columns of the paper's Table 1).

use std::collections::BTreeMap;
use std::fmt;

use crate::circuit::Circuit;
use crate::gate::GateKind;
use crate::topo::CompiledTopology;

/// Structural statistics of a circuit.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{generate, CircuitStats, GeneratorConfig};
///
/// let c = generate(&GeneratorConfig::new("t", 1).gates(50).dffs(4));
/// let stats = CircuitStats::new(&c);
/// assert_eq!(stats.gates, 50);
/// assert_eq!(stats.dffs, 4);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CircuitStats {
    /// Circuit name.
    pub name: String,
    /// Primary input count.
    pub inputs: usize,
    /// Primary output count.
    pub outputs: usize,
    /// Combinational gate count.
    pub gates: usize,
    /// Flip-flop count.
    pub dffs: usize,
    /// Combinational depth (max level).
    pub depth: u32,
    /// Average fanout of gate/input/FF nets.
    pub avg_fanout: f64,
    /// Gate count per kind.
    pub kind_histogram: BTreeMap<GateKind, usize>,
}

impl CircuitStats {
    /// Computes statistics for `circuit`.
    pub fn new(circuit: &Circuit) -> CircuitStats {
        let topo = CompiledTopology::compile(circuit);
        let mut kind_histogram = BTreeMap::new();
        let mut fanout_sum = 0usize;
        for (id, node) in circuit.iter() {
            if node.kind().is_gate() {
                *kind_histogram.entry(node.kind()).or_insert(0) += 1;
            }
            fanout_sum += topo.fanout_count(id);
        }
        let n = circuit.num_nodes().max(1);
        CircuitStats {
            name: circuit.name().to_string(),
            inputs: circuit.inputs().len(),
            outputs: circuit.outputs().len(),
            gates: circuit.num_gates(),
            dffs: circuit.dffs().len(),
            depth: topo.depth(),
            avg_fanout: fanout_sum as f64 / n as f64,
            kind_histogram,
        }
    }
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} gates, {} FFs, {} PIs, {} POs, depth {}, avg fanout {:.2}",
            self.name,
            self.gates,
            self.dffs,
            self.inputs,
            self.outputs,
            self.depth,
            self.avg_fanout
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;

    #[test]
    fn counts_small_circuit() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, vec![a, b], "g");
        let ff = c.add_dff(g, "ff");
        c.mark_output(ff);
        let s = CircuitStats::new(&c);
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.gates, 1);
        assert_eq!(s.dffs, 1);
        assert_eq!(s.depth, 1);
        assert_eq!(s.kind_histogram[&GateKind::And], 1);
        assert!(s.to_string().contains("1 gates"));
    }
}
