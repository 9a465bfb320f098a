//! End-to-end validation of the whole flow across crates: every claim a
//! pipeline report makes is re-checked against ground-truth simulation.

use fscan::{
    classify_faults, AlternatingPhase, Category, CombPhase, PipelineConfig, PipelineSession,
};
use fscan_atpg::PodemConfig;
use fscan_fault::{all_faults, collapse, Fault};
use fscan_netlist::{generate, GeneratorConfig};
use fscan_scan::{insert_functional_scan, TpiConfig};
use fscan_sim::{ParallelFaultSim, V3};
use std::sync::Arc;

/// The comb stage's inputs for these tests: one thread and the default
/// PODEM budget.
fn comb_config() -> PipelineConfig {
    PipelineConfig {
        podem: PodemConfig::default(),
        threads: 1,
        ..PipelineConfig::default()
    }
}

fn design_for(seed: u64) -> Arc<fscan_scan::ScanDesign> {
    let circuit = generate(
        &GeneratorConfig::new(format!("e2e{seed}"), seed)
            .gates(220)
            .dffs(14),
    );
    Arc::new(insert_functional_scan(&circuit, &TpiConfig::default()).unwrap())
}

/// Faults the comb phase reports as detected must really be detected by
/// replaying its own windows — and, independently, category-3 faults
/// must be immune to any scan-mode sequence.
#[test]
fn comb_phase_detections_are_real_and_cat3_is_immune() {
    let design = design_for(301);
    let faults = collapse(design.circuit(), &all_faults(design.circuit()));
    let classified = classify_faults(&design, &faults);
    let hard: Vec<Fault> = classified
        .iter()
        .filter(|c| c.category == Category::Hard)
        .map(|c| c.fault)
        .collect();
    let outcome = CombPhase::new(&design, &comb_config()).run(&hard);
    assert_eq!(
        outcome.detected.len() + outcome.undetectable.len() + outcome.remaining.len(),
        hard.len()
    );

    // Category-3 faults may well reach mission primary outputs in scan
    // mode (the paper observes at all POs), but they must never corrupt
    // what arrives at any *scan-out* pin — that is what "does not affect
    // the scan chain" means. Compare good vs faulty traces at the
    // scan-out columns only.
    let cat3: Vec<Fault> = classified
        .iter()
        .filter(|c| c.category == Category::Unaffected)
        .map(|c| c.fault)
        .take(48)
        .collect();
    let phase = AlternatingPhase::new(&design);
    let circuit = design.circuit();
    let scan_out_cols: Vec<usize> = design
        .chains()
        .iter()
        .map(|ch| {
            circuit
                .outputs()
                .iter()
                .position(|&o| o == ch.scan_out())
                .expect("scan-out is a PO")
        })
        .collect();
    let sim = fscan_sim::SeqSim::new(circuit);
    let init = vec![V3::X; circuit.dffs().len()];
    let good = sim.run(phase.vectors(), &init, None);
    for &f in &cat3 {
        let bad = sim.run(phase.vectors(), &init, Some(f));
        for (g, b) in good.outputs.iter().zip(bad.outputs.iter()) {
            for &col in &scan_out_cols {
                let (gv, bv) = (g[col], b[col]);
                assert!(
                    !(gv.is_known() && bv.is_known() && gv != bv),
                    "category-3 fault {f} corrupted a scan-out pin"
                );
            }
        }
    }
}

/// Pipeline-level conservation: every fault ends in exactly one bucket.
#[test]
fn pipeline_conserves_faults() {
    let design = design_for(302);
    let report = PipelineSession::shared(design, PipelineConfig::default()).run();
    // Chain-affecting faults: detected by step 1, or routed to step 2
    // (hard − fortuitous step-1 detections), then step 3.
    let affected = report.classification.affected();
    assert!(report.alternating.targeted == affected);
    assert_eq!(
        report.seq.targeted,
        report.comb.undetected + report.alternating.missed_easy
    );
    assert_eq!(report.undetected_faults.len(), report.seq.undetected);
    // Nothing lost: step-2 buckets partition its input.
    assert_eq!(
        report.comb.targeted,
        report.comb.detected + report.comb.undetectable + report.comb.undetected
    );
}

/// Undetectable verdicts are sound: simulate a barrage of random scan
/// windows against faults proven undetectable; none may be detected.
#[test]
fn undetectable_verdicts_survive_random_barrage() {
    let design = design_for(303);
    let faults = collapse(design.circuit(), &all_faults(design.circuit()));
    let classified = classify_faults(&design, &faults);
    let hard: Vec<Fault> = classified
        .iter()
        .filter(|c| c.category == Category::Hard)
        .map(|c| c.fault)
        .collect();
    let outcome = CombPhase::new(&design, &comb_config()).run(&hard);
    if outcome.undetectable.is_empty() {
        return;
    }
    // Random scan-mode windows: random loads, random free PIs.
    let c = design.circuit();
    let layout = fscan::scan_vector_layout(&design);
    let l = design.max_chain_len();
    let mut vectors: Vec<Vec<V3>> = Vec::new();
    for w in 0..60u64 {
        let states: Vec<Vec<bool>> = design
            .chains()
            .iter()
            .map(|ch| (0..ch.len()).map(|k| (w as usize + k) % 3 != 1).collect())
            .collect();
        let mut win = fscan::scan_load_vectors(&design, &states);
        for _ in 0..l + 2 {
            let mut v = layout.base_vector();
            for (j, &p) in layout.free.iter().enumerate() {
                v[p] = V3::from((w as usize + j).is_multiple_of(2));
            }
            win.push(v);
        }
        vectors.extend(win);
    }
    let sim = ParallelFaultSim::with_topology(design.topology());
    let det = sim.fault_sim(
        &vectors,
        &vec![V3::X; c.dffs().len()],
        &outcome.undetectable,
    );
    let violations = det.iter().filter(|d| d.is_some()).count();
    assert_eq!(violations, 0, "an 'undetectable' fault was detected");
}

/// The headline reproduction: across a few circuits, the flow leaves
/// only a tiny fraction of chain-affecting faults undetected, and the
/// Figure-5 saturation shape holds (early windows detect most faults).
#[test]
fn headline_shape_holds() {
    let mut affected = 0usize;
    let mut undetected = 0usize;
    let mut early = 0usize;
    let mut late = 0usize;
    for seed in [304u64, 305] {
        let design = design_for(seed);
        let report = PipelineSession::shared(design, PipelineConfig::default()).run();
        affected += report.classification.affected();
        undetected += report.seq.undetected;
        let curve = &report.comb.detection_curve;
        if let (Some(&(_, last)), true) = (curve.last(), curve.len() >= 4) {
            let quarter = curve[curve.len() / 4].1;
            early += quarter;
            late += last;
        }
    }
    assert!(affected > 0);
    assert!(
        undetected * 20 <= affected,
        "more than 5% of chain-affecting faults undetected ({undetected}/{affected})"
    );
    if late > 0 {
        assert!(
            early * 2 >= late,
            "no early saturation: {early} of {late} detections in the first quarter"
        );
    }
}

/// Replaying the emitted test program detects at least every fault the
/// pipeline reports as detected — the program is the deliverable, so it
/// must stand on its own.
#[test]
fn program_replay_detects_everything_reported() {
    let design = design_for(306);
    let report = PipelineSession::shared(Arc::clone(&design), PipelineConfig::default()).run();
    let faults = collapse(design.circuit(), &all_faults(design.circuit()));
    let affected: Vec<Fault> = classify_faults(&design, &faults)
        .into_iter()
        .filter(|c| c.category != Category::Unaffected)
        .map(|c| c.fault)
        .collect();
    let vectors = report.program.concatenated();
    let sim = ParallelFaultSim::with_topology(design.topology());
    let init = vec![V3::X; design.circuit().dffs().len()];
    let det = sim.fault_sim(&vectors, &init, &affected);
    let replay_detected = det.iter().filter(|d| d.is_some()).count();
    let reported = report.alternating.detected + report.comb.detected + report.seq.detected;
    assert!(
        replay_detected >= reported,
        "program replay found {replay_detected}, pipeline reported {reported}"
    );
    // And the program serializes.
    let mut out = Vec::new();
    report.program.write_text(&mut out).unwrap();
    assert!(!out.is_empty());
}

/// Partial scan end-to-end: unchained flip-flops are uncontrollable
/// state, yet the flow still runs soundly and its bookkeeping holds.
#[test]
fn partial_scan_pipeline_is_consistent() {
    use fscan_netlist::GateKind;
    use fscan_scan::{insert_partial_scan, PartialScanConfig};
    // A generated core (possibly fully cyclic) plus an acyclic shift
    // tail the selection can never pick — guaranteeing a real partial
    // design regardless of the generator's feedback structure.
    let mut circuit = generate(&GeneratorConfig::new("pse2e", 31).gates(260).dffs(18));
    let pi = circuit.inputs()[0];
    let mut prev = pi;
    for i in 0..4 {
        let buf = circuit.add_gate(GateKind::Buf, vec![prev], format!("tail{i}"));
        prev = circuit.add_dff(buf, format!("tailff{i}"));
    }
    circuit.mark_output(prev);
    let design = Arc::new(insert_partial_scan(&circuit, &PartialScanConfig::default()).unwrap());
    let chained: usize = design.chains().iter().map(|c| c.len()).sum();
    assert!(chained < circuit.dffs().len(), "must really be partial");
    let report = PipelineSession::shared(Arc::clone(&design), PipelineConfig::default()).run();
    assert_eq!(
        report.comb.targeted,
        report.comb.detected + report.comb.undetectable + report.comb.undetected
    );
    // Every detection claim must replay.
    let faults = collapse(design.circuit(), &all_faults(design.circuit()));
    let affected: Vec<Fault> = classify_faults(&design, &faults)
        .into_iter()
        .filter(|c| c.category != Category::Unaffected)
        .map(|c| c.fault)
        .collect();
    let vectors = report.program.concatenated();
    let sim = ParallelFaultSim::with_topology(design.topology());
    let init = vec![V3::X; design.circuit().dffs().len()];
    let det = sim.fault_sim(&vectors, &init, &affected);
    let replay = det.iter().filter(|d| d.is_some()).count();
    let reported = report.alternating.detected + report.comb.detected + report.seq.detected;
    assert!(replay >= reported, "{replay} < {reported}");
}
