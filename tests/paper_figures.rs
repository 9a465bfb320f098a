//! End-to-end reproductions of the paper's illustrative figures.

use fscan::{classify_faults, AlternatingPhase, Category, PipelineConfig, PipelineSession};
use fscan_fault::Fault;
use fscan_netlist::{Circuit, GateKind, NodeId};
use fscan_scan::{insert_functional_scan, insert_mux_scan, SegmentKind, TpiConfig};
use std::sync::Arc;

/// The paper's Figure 1/2 structure: a shift pipeline f0→f1→…→f4 whose
/// last segment into f5 runs through `G = AND(f4, S)` with
/// `S = OR(A, f0)` — TPI sensitizes it by assigning the primary input
/// `A = 1` during scan mode. The fault `A s-a-0` then reroutes the chain
/// through `f0` (the "chain shortened" effect of Figure 2b): the side
/// input S carries unknown chain data instead of the forced 1.
fn figure2_design() -> (fscan_scan::ScanDesign, NodeId) {
    let mut c = Circuit::new("fig2");
    let a = c.add_input("A");
    let f0 = c.add_dff_placeholder("f0");
    let f1 = c.add_dff(f0, "f1");
    let f2 = c.add_dff(f1, "f2");
    let f3 = c.add_dff(f2, "f3");
    let f4 = c.add_dff(f3, "f4");
    let s = c.add_gate(GateKind::Or, vec![a, f0], "S");
    let g = c.add_gate(GateKind::And, vec![f4, s], "G");
    let f5 = c.add_dff(g, "f5");
    // Functional feedback so f0 has a driver and f5 is used.
    let fb = c.add_gate(GateKind::Not, vec![f5], "fb");
    c.set_dff_input(f0, fb).unwrap();
    c.mark_output(f5);
    let design = insert_functional_scan(&c, &TpiConfig::default()).unwrap();
    design.verify().unwrap();
    (design, a)
}

#[test]
fn figure1_tpi_constrains_the_side_pi() {
    let (design, a) = figure2_design();
    // TPI must have established the G path by assigning A = 1 (the
    // paper's Figure 1b: "applying 0/1 at the primary input PI during
    // scan mode ... a functional scan path is established").
    assert!(
        design.constraints().iter().any(|&(n, v)| n == a && v),
        "A must be pinned to 1: {:?}",
        design.constraints()
    );
    // Five of the six segments are functional; f0 needed a mux.
    let (dedicated, functional) = design.segment_counts();
    assert_eq!(functional, 5, "{design}");
    assert_eq!(dedicated, 1);
    // The zero-gate shift segments have empty paths and no sides.
    let chain = &design.chains()[0];
    let zero_gate = chain
        .cells
        .iter()
        .filter(|cell| cell.kind == SegmentKind::Functional && cell.path.is_empty())
        .count();
    assert_eq!(zero_gate, 4);
}

#[test]
fn figure2_fault_is_hard_and_located_at_the_last_segment() {
    let (design, a) = figure2_design();
    let fault = Fault::stem(a, false);
    let classified = classify_faults(&design, &[fault]);
    assert_eq!(classified[0].category, Category::Hard);
    // The affected location is the segment into f5 — the last cell of
    // the chain whose segment runs through G.
    let chain = &design.chains()[0];
    let g_cell = chain
        .cells
        .iter()
        .position(|cell| !cell.path.is_empty() && cell.kind == SegmentKind::Functional)
        .expect("the G segment exists");
    assert_eq!(classified[0].locations.len(), 1);
    assert_eq!(classified[0].locations[0].cell, g_cell);
}

#[test]
fn figure2_alternating_misses_but_pipeline_catches() {
    let (design, a) = figure2_design();
    let fault = Fault::stem(a, false);
    // The traditional test misses it…
    let phase = AlternatingPhase::new(&design);
    let (det, _) = phase.run(&[fault]);
    assert_eq!(det[0], None, "alternating sequence must miss A s-a-0");
    // …but the three-step flow detects it (step 2 or 3). The only
    // faults allowed to remain are the scan-enable stuck-ats, whose
    // faulty machine degenerates to an unobservable X-state ring — the
    // same fault class behind the paper's own 11 final undetected
    // faults.
    let design = Arc::new(design);
    let report = PipelineSession::shared(Arc::clone(&design), PipelineConfig::default()).run();
    assert!(
        !report.undetected_faults.contains(&fault),
        "the flow must close the figure-2 fault: {report}"
    );
    let scan_mode = design.scan_mode();
    let not_scan = design
        .circuit()
        .find_by_name("not_scan")
        .expect("scan infrastructure");
    for f in &report.undetected_faults {
        let line = match f.site {
            fscan_fault::FaultSite::Stem(n) => n,
            fscan_fault::FaultSite::Branch { gate, pin } => {
                design.circuit().node(gate).fanin()[pin]
            }
        };
        assert!(
            line == scan_mode || line == not_scan,
            "unexpected undetected fault {f}: {report}"
        );
    }
}

#[test]
fn figure1a_dedicated_scan_alternating_detects_everything_it_should() {
    // Baseline sanity from the paper's introduction: with conventional
    // dedicated scan, every chain-affecting fault is category 1 and the
    // alternating sequence detects it.
    let mut c = Circuit::new("fig1a");
    let d0 = c.add_input("d0");
    let mut prev = d0;
    let mut ffs = Vec::new();
    for i in 0..4 {
        let ff = c.add_dff(prev, format!("r{i}"));
        ffs.push(ff);
        prev = ff;
    }
    c.mark_output(prev);
    let design = insert_mux_scan(&c, 1).unwrap();
    let faults =
        fscan_fault::collapse(design.circuit(), &fscan_fault::all_faults(design.circuit()));
    let classified = classify_faults(&design, &faults);
    // The paper's idealization "any fault in the functional logic will
    // not affect the scan chain" holds for mission logic; the one real
    // exception is the scan-enable distribution itself (scan_mode stuck
    // at 0 turns shifting off in a data-dependent way).
    let scan_mode = design.scan_mode();
    let not_scan = design
        .circuit()
        .find_by_name("not_scan")
        .expect("scan infrastructure");
    for cf in classified.iter().filter(|cf| cf.category == Category::Hard) {
        // The faulty *line* (stem, or the net a branch pin reads) must
        // belong to the scan-enable distribution.
        let line = match cf.fault.site {
            fscan_fault::FaultSite::Stem(n) => n,
            fscan_fault::FaultSite::Branch { gate, pin } => {
                design.circuit().node(gate).fanin()[pin]
            }
        };
        assert!(
            line == scan_mode || line == not_scan,
            "unexpected category-2 fault on dedicated scan: {}",
            cf.fault
        );
    }
    let easy: Vec<Fault> = classified
        .iter()
        .filter(|cf| cf.category == Category::AlternatingDetectable)
        .map(|cf| cf.fault)
        .collect();
    let phase = AlternatingPhase::new(&design);
    let (det, _) = phase.run(&easy);
    assert!(det.iter().all(Option::is_some));
}
