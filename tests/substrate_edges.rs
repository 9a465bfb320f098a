//! Cross-crate edge-case tests for the substrate layers.

use fscan_fault::{all_faults, collapse, FaultStatus};
use fscan_netlist::{
    generate, parse_bench, to_dot, write_bench, Circuit, CircuitStats, CompiledTopology, GateKind,
    GeneratorConfig, Levelization,
};
use fscan_scan::{
    insert_functional_scan, insert_mux_scan, insert_partial_scan, PartialScanConfig, ScanDesign,
    TpiConfig,
};
use fscan_sim::{CombEvaluator, SeqSim, V3};

#[test]
fn constants_only_circuit_simulates() {
    let mut c = Circuit::new("consts");
    let k0 = c.add_const(false, "k0");
    let k1 = c.add_const(true, "k1");
    let g = c.add_gate(GateKind::Xor, vec![k0, k1], "g");
    c.mark_output(g);
    c.validate().unwrap();
    let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
    let mut v = vec![V3::X; c.num_nodes()];
    eval.eval(&mut v);
    assert_eq!(v[g.index()], V3::One);
}

#[test]
fn empty_vector_sequence_gives_empty_trace() {
    let c = generate(&GeneratorConfig::new("e", 1).gates(40).dffs(4));
    let sim = SeqSim::new(&c);
    let trace = sim.run(&[], &[V3::X; 4], None);
    assert!(trace.outputs.is_empty());
    assert_eq!(trace.final_state, vec![V3::X; 4]);
}

#[test]
fn bench_writer_handles_unnamed_nodes() {
    // Nodes created through scan insertion keep names, but the writer
    // must also cope with a circuit whose names collide with synthetic
    // ones.
    let mut c = Circuit::new("syn");
    let a = c.add_input("n0"); // name that looks synthetic
    let g = c.add_gate(GateKind::Not, vec![a], "n1");
    c.mark_output(g);
    let text = write_bench(&c);
    let back = parse_bench(&text, "syn").unwrap();
    assert_eq!(back.num_gates(), 1);
}

#[test]
fn collapse_is_deterministic() {
    let c = generate(&GeneratorConfig::new("det", 4).gates(150).dffs(10));
    let a = collapse(&c, &all_faults(&c));
    let b = collapse(&c, &all_faults(&c));
    assert_eq!(a, b);
}

#[test]
fn fault_status_default_and_display() {
    assert_eq!(FaultStatus::default(), FaultStatus::Untested);
    assert_eq!(FaultStatus::Detected.to_string(), "detected");
    assert_eq!(FaultStatus::Undetectable.to_string(), "undetectable");
}

#[test]
fn levelization_depth_matches_stats() {
    let c = generate(&GeneratorConfig::new("lv", 6).gates(120).dffs(8));
    let lv = Levelization::new(&c);
    let stats = CircuitStats::new(&c);
    assert_eq!(lv.depth(), stats.depth);
}

#[test]
fn dot_export_renders_scan_designs() {
    let c = generate(&GeneratorConfig::new("dot", 2).gates(60).dffs(4));
    let design = insert_functional_scan(&c, &TpiConfig::default()).unwrap();
    let dot = to_dot(design.circuit());
    assert!(dot.contains("scan_mode"));
    assert!(dot.contains("digraph"));
}

#[test]
fn alternating_stream_period_four() {
    let s = ScanDesign::alternating_stream(12);
    for (i, &b) in s.iter().enumerate() {
        assert_eq!(b, (i / 2) % 2 == 1, "index {i}");
    }
}

#[test]
fn partial_scan_clamps_chain_count() {
    let c = generate(&GeneratorConfig::new("pc", 3).gates(120).dffs(8));
    let design = insert_partial_scan(
        &c,
        &PartialScanConfig {
            num_chains: 100,
            ..PartialScanConfig::default()
        },
    )
    .unwrap();
    let chained: usize = design.chains().iter().map(|ch| ch.len()).sum();
    assert!(design.chains().len() <= chained.max(1));
    design.verify().unwrap();
}

#[test]
fn scan_insertion_is_deterministic() {
    let c = generate(&GeneratorConfig::new("sd", 8).gates(200).dffs(12));
    let d1 = insert_functional_scan(&c, &TpiConfig::default()).unwrap();
    let d2 = insert_functional_scan(&c, &TpiConfig::default()).unwrap();
    assert_eq!(d1.constraints(), d2.constraints());
    assert_eq!(d1.test_points(), d2.test_points());
    assert_eq!(d1.chains().len(), d2.chains().len());
    for (c1, c2) in d1.chains().iter().zip(d2.chains().iter()) {
        assert_eq!(c1, c2);
    }
}

#[test]
fn mux_scan_added_gates_formula() {
    // NOT(scan_mode) + 3 gates per flip-flop.
    for dffs in [2usize, 5, 9] {
        let c = generate(&GeneratorConfig::new("ag", dffs as u64).gates(80).dffs(dffs));
        let design = insert_mux_scan(&c, 1).unwrap();
        assert_eq!(design.added_gates(), 1 + 3 * dffs);
    }
}

#[test]
fn program_column_legend_lists_all_inputs() {
    use fscan::TestProgram;
    let c = generate(&GeneratorConfig::new("cl", 5).gates(60).dffs(4));
    let design = insert_functional_scan(&c, &TpiConfig::default()).unwrap();
    let legend = TestProgram::column_legend(&design);
    for (k, _) in design.circuit().inputs().iter().enumerate() {
        assert!(legend.contains(&format!("[{k}]")));
    }
    assert!(legend.contains("scan_mode"));
}
