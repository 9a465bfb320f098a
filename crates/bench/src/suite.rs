//! The paper's test suite, rebuilt synthetically (Table 1 substitute).

use fscan_netlist::{generate, Circuit, GeneratorConfig};
use fscan_scan::{insert_functional_scan, ScanDesign, TpiConfig};

/// One suite circuit: the paper's per-circuit parameters (gate counts of
/// the ISCAS'89 originals, flip-flop counts, primary inputs, and the
/// chain counts the paper used for the larger circuits).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SuiteCircuit {
    /// Benchmark name (the ISCAS'89 circuit it substitutes).
    pub name: &'static str,
    /// Combinational gate count at scale 1.0.
    pub gates: usize,
    /// Flip-flop count at scale 1.0.
    pub dffs: usize,
    /// Primary input count (not scaled below 8).
    pub inputs: usize,
    /// Scan chain count (paper: multiple chains for the larger
    /// circuits, keeping the longest chain reasonable).
    pub chains: usize,
    /// Generator seed (fixed for reproducibility).
    pub seed: u64,
}

/// The 12 largest ISCAS'89 benchmarks the paper evaluates on, with
/// their canonical gate/flip-flop/input counts.
pub const PAPER_SUITE: [SuiteCircuit; 12] = [
    SuiteCircuit {
        name: "s1196",
        gates: 529,
        dffs: 18,
        inputs: 14,
        chains: 1,
        seed: 0x1196,
    },
    SuiteCircuit {
        name: "s1238",
        gates: 508,
        dffs: 18,
        inputs: 14,
        chains: 1,
        seed: 0x1238,
    },
    SuiteCircuit {
        name: "s1423",
        gates: 657,
        dffs: 74,
        inputs: 17,
        chains: 1,
        seed: 0x1423,
    },
    SuiteCircuit {
        name: "s1488",
        gates: 653,
        dffs: 6,
        inputs: 8,
        chains: 1,
        seed: 0x1488,
    },
    SuiteCircuit {
        name: "s1494",
        gates: 647,
        dffs: 6,
        inputs: 8,
        chains: 1,
        seed: 0x1494,
    },
    SuiteCircuit {
        name: "s5378",
        gates: 2779,
        dffs: 179,
        inputs: 35,
        chains: 2,
        seed: 0x5378,
    },
    SuiteCircuit {
        name: "s9234",
        gates: 5597,
        dffs: 211,
        inputs: 36,
        chains: 2,
        seed: 0x9234,
    },
    SuiteCircuit {
        name: "s13207",
        gates: 7951,
        dffs: 638,
        inputs: 62,
        chains: 4,
        seed: 0x13207,
    },
    SuiteCircuit {
        name: "s15850",
        gates: 9772,
        dffs: 534,
        inputs: 77,
        chains: 4,
        seed: 0x15850,
    },
    SuiteCircuit {
        name: "s35932",
        gates: 16065,
        dffs: 1728,
        inputs: 35,
        chains: 8,
        seed: 0x35932,
    },
    SuiteCircuit {
        name: "s38417",
        gates: 22179,
        dffs: 1636,
        inputs: 28,
        chains: 8,
        seed: 0x38417,
    },
    SuiteCircuit {
        name: "s38584",
        gates: 19253,
        dffs: 1426,
        inputs: 38,
        chains: 8,
        seed: 0x38584,
    },
];

/// The generator configuration for a suite circuit at the given scale.
///
/// Gates and flip-flops scale linearly (floors keep tiny scales
/// meaningful); inputs and chain counts are not scaled.
pub fn scaled_config(circuit: &SuiteCircuit, scale: f64) -> GeneratorConfig {
    let gates = ((circuit.gates as f64 * scale) as usize).max(40);
    let dffs = ((circuit.dffs as f64 * scale) as usize).max(circuit.chains.max(4));
    GeneratorConfig::new(circuit.name, circuit.seed)
        .inputs(circuit.inputs.max(8))
        .gates(gates)
        .dffs(dffs)
}

/// Generates the synthetic substitute for a suite circuit.
pub fn build_circuit(circuit: &SuiteCircuit, scale: f64) -> Circuit {
    generate(&scaled_config(circuit, scale))
}

/// Generates the circuit and inserts functional scan (TPI) with the
/// suite's chain count.
///
/// # Panics
///
/// Panics if scan insertion fails, which cannot happen for generated
/// circuits (they always contain flip-flops).
pub fn build_design(circuit: &SuiteCircuit, scale: f64) -> ScanDesign {
    let c = build_circuit(circuit, scale);
    let cfg = TpiConfig {
        num_chains: circuit.chains,
        ..TpiConfig::default()
    };
    insert_functional_scan(&c, &cfg).expect("scan insertion on generated circuit")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_twelve_circuits() {
        assert_eq!(PAPER_SUITE.len(), 12);
        let total_gates: usize = PAPER_SUITE.iter().map(|c| c.gates).sum();
        // The 12 largest ISCAS'89 circuits total ~87k gates.
        assert!(total_gates > 80_000);
    }

    #[test]
    fn scaling_respects_floors() {
        let cfg = scaled_config(&PAPER_SUITE[3], 0.01); // s1488, 6 FFs
        let c = generate(&cfg);
        assert!(c.num_gates() >= 40);
        assert!(c.dffs().len() >= 4);
    }

    #[test]
    fn designs_build_and_verify_at_small_scale() {
        for circuit in &PAPER_SUITE[..5] {
            let design = build_design(circuit, 0.1);
            design.verify().unwrap();
            assert_eq!(design.chains().len(), circuit.chains);
        }
    }
}
