//! Differential oracle for the incremental ECO path:
//! `PipelineSession::rerun(prior, delta)` must produce exactly the
//! verdicts and test program a cold run over the patched circuit
//! produces — at every thread count and lane width — while actually
//! reusing work (`verdicts_reused > 0` for clean-fault deltas).

use std::sync::Arc;

use fscan::{LaneWidth, PipelineConfig, PipelineReport, PipelineSession};
use fscan_netlist::{
    generate, DeltaNode, DeltaRef, GateKind, GeneratorConfig, NetlistDelta, NodeId, Redrive,
};
use fscan_scan::{insert_functional_scan, ScanDesign, TpiConfig};
use proptest::prelude::*;

/// A spare-cell insertion: a constant plus a NOT gate island reading
/// only it. Dead logic, touches nothing — the canonical clean ECO.
fn spare_cell_delta(design: &ScanDesign) -> NetlistDelta {
    NetlistDelta {
        base_nodes: design.circuit().num_nodes(),
        added: vec![
            DeltaNode {
                name: "eco_spare_c".into(),
                kind: GateKind::Const0,
                fanin: vec![],
            },
            DeltaNode {
                name: "eco_spare_g".into(),
                kind: GateKind::Not,
                fanin: vec![DeltaRef::Added(0)],
            },
        ],
        redriven: vec![],
        removed: vec![],
        outputs: vec![],
    }
}

/// A functional edit: re-drive the `pick`-th eligible combinational
/// gate as a NOT of its own first fanin (same structure, different
/// function — acyclic by construction). Returns `None` when the circuit
/// has no eligible gate.
fn redrive_delta(design: &ScanDesign, pick: usize) -> Option<NetlistDelta> {
    let circuit = design.circuit();
    let eligible: Vec<NodeId> = (0..circuit.num_nodes())
        .map(NodeId::from_index)
        .filter(|&id| {
            let node = circuit.node(id);
            !matches!(
                node.kind(),
                GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
            ) && !node.fanin().is_empty()
        })
        .collect();
    if eligible.is_empty() {
        return None;
    }
    let node = eligible[pick % eligible.len()];
    let fanin = circuit.node(node).fanin()[0];
    Some(NetlistDelta {
        base_nodes: circuit.num_nodes(),
        added: vec![],
        redriven: vec![Redrive {
            node,
            kind: GateKind::Not,
            fanin: vec![DeltaRef::Base(fanin)],
        }],
        removed: vec![],
        outputs: vec![],
    })
}

/// Every verdict-bearing field of the two reports must be byte-equal;
/// only the metrics (wall-clock, shard layout, reuse counters) may
/// differ between the incremental and cold paths.
fn assert_same_verdicts(incremental: &PipelineReport, cold: &PipelineReport, what: &str) {
    assert_eq!(incremental.name, cold.name, "{what}: name");
    assert_eq!(
        incremental.total_faults, cold.total_faults,
        "{what}: total_faults"
    );
    assert_eq!(
        incremental.classification.total, cold.classification.total,
        "{what}: classification.total"
    );
    assert_eq!(
        incremental.classification.easy, cold.classification.easy,
        "{what}: classification.easy"
    );
    assert_eq!(
        incremental.classification.hard, cold.classification.hard,
        "{what}: classification.hard"
    );
    assert_eq!(
        incremental.alternating.targeted, cold.alternating.targeted,
        "{what}: alternating.targeted"
    );
    assert_eq!(
        incremental.alternating.detected, cold.alternating.detected,
        "{what}: alternating.detected"
    );
    assert_eq!(
        incremental.alternating.missed_easy, cold.alternating.missed_easy,
        "{what}: alternating.missed_easy"
    );
    assert_eq!(
        incremental.alternating.cycles, cold.alternating.cycles,
        "{what}: alternating.cycles"
    );
    let (ic, cc) = (&incremental.comb, &cold.comb);
    assert_eq!(ic.targeted, cc.targeted, "{what}: comb.targeted");
    assert_eq!(ic.detected, cc.detected, "{what}: comb.detected");
    assert_eq!(
        ic.undetectable, cc.undetectable,
        "{what}: comb.undetectable"
    );
    assert_eq!(ic.undetected, cc.undetected, "{what}: comb.undetected");
    assert_eq!(ic.vectors, cc.vectors, "{what}: comb.vectors");
    assert_eq!(ic.cycles, cc.cycles, "{what}: comb.cycles");
    assert_eq!(
        ic.detection_curve, cc.detection_curve,
        "{what}: comb.detection_curve"
    );
    let (ip, cp) = (&incremental.compact, &cold.compact);
    assert_eq!(
        ip.tests_before, cp.tests_before,
        "{what}: compact.tests_before"
    );
    assert_eq!(
        ip.tests_after, cp.tests_after,
        "{what}: compact.tests_after"
    );
    assert_eq!(
        ip.detected_before, cp.detected_before,
        "{what}: compact.detected_before"
    );
    assert_eq!(
        ip.detected_after, cp.detected_after,
        "{what}: compact.detected_after"
    );
    assert_eq!(ip.lost, cp.lost, "{what}: compact.lost");
    let (is, cs) = (&incremental.seq, &cold.seq);
    assert_eq!(is.targeted, cs.targeted, "{what}: seq.targeted");
    assert_eq!(is.detected, cs.detected, "{what}: seq.detected");
    assert_eq!(is.unconfirmed, cs.unconfirmed, "{what}: seq.unconfirmed");
    assert_eq!(is.undetectable, cs.undetectable, "{what}: seq.undetectable");
    assert_eq!(is.undetected, cs.undetected, "{what}: seq.undetected");
    assert_eq!(
        is.circuits_initial, cs.circuits_initial,
        "{what}: seq.circuits_initial"
    );
    assert_eq!(
        is.circuits_final, cs.circuits_final,
        "{what}: seq.circuits_final"
    );
    assert_eq!(
        incremental.rescued_easy, cold.rescued_easy,
        "{what}: rescued_easy"
    );
    assert_eq!(
        incremental.undetected_faults, cold.undetected_faults,
        "{what}: undetected_faults"
    );
    assert_eq!(incremental.program, cold.program, "{what}: program");
}

/// Runs base → rerun(delta) and compares against a cold run over the
/// patched design at the given configuration. Returns the rerun report.
fn check_one(
    design: &Arc<ScanDesign>,
    delta: &NetlistDelta,
    threads: usize,
    lane_width: LaneWidth,
    what: &str,
) -> PipelineReport {
    let config = PipelineConfig {
        threads,
        lane_width,
        ..PipelineConfig::default()
    };
    let session = PipelineSession::shared(Arc::clone(design), config.clone());
    let base = session.clone().run();
    let (rerun, patched) = session
        .rerun_with_design(&base, delta)
        .unwrap_or_else(|e| panic!("{what}: rerun failed: {e}"));
    let cold = PipelineSession::shared(patched, config).run();
    assert_same_verdicts(&rerun, &cold, what);
    rerun
}

#[test]
fn spare_cell_rerun_matches_cold_across_threads_and_lanes() {
    let circuit = generate(&GeneratorConfig::new("eco_oracle", 42).gates(100).dffs(6));
    let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default()).unwrap());
    let delta = spare_cell_delta(&design);
    for &threads in &[1usize, 2, 4] {
        for &lane in &[LaneWidth::W64, LaneWidth::W256] {
            let what = format!("spare t{threads} {lane:?}");
            let rerun = check_one(&design, &delta, threads, lane, &what);
            let totals = rerun.total_counters();
            // An isolated island invalidates no prior fault: every
            // prior verdict carries forward, only the island's own
            // (new) faults are computed.
            assert!(totals.verdicts_reused > 0, "{what}: nothing reused");
            assert_eq!(totals.topology_builds, 0, "{what}: rerun recompiled");
        }
    }
}

#[test]
fn functional_redrive_rerun_matches_cold() {
    let circuit = generate(&GeneratorConfig::new("eco_redrive", 7).gates(90).dffs(6));
    let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default()).unwrap());
    let mut checked = 0;
    for pick in 0..12 {
        let Some(delta) = redrive_delta(&design, pick * 13 + 5) else {
            break;
        };
        // Edits that touch the scan fabric are rejected by design; the
        // oracle only covers deltas the ECO path accepts.
        if design.patched(&delta).is_err() {
            continue;
        }
        let what = format!("redrive pick {pick}");
        // Equivalence is unconditional. Reuse is not asserted here: on a
        // small dense circuit a central gate's support can legitimately
        // cover every fault, in which case the rerun recomputes all of
        // them (and must still match cold).
        let _ = check_one(&design, &delta, 2, LaneWidth::W256, &what);
        checked += 1;
        if checked >= 2 {
            break;
        }
    }
    assert!(checked > 0, "no eligible redrive found");
}

#[test]
fn chained_ecos_keep_carrying() {
    // rerun's report holds a fresh carry: a second delta against the
    // patched design must again reuse and again match cold.
    let circuit = generate(&GeneratorConfig::new("eco_chain", 11).gates(90).dffs(6));
    let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default()).unwrap());
    let config = PipelineConfig {
        threads: 2,
        ..PipelineConfig::default()
    };
    let session = PipelineSession::shared(Arc::clone(&design), config.clone());
    let base = session.clone().run();
    let first = spare_cell_delta(&design);
    let (r1, patched1) = session.rerun_with_design(&base, &first).unwrap();
    let second = NetlistDelta {
        base_nodes: patched1.circuit().num_nodes(),
        added: vec![
            DeltaNode {
                name: "eco_spare2_c".into(),
                kind: GateKind::Const1,
                fanin: vec![],
            },
            DeltaNode {
                name: "eco_spare2_g".into(),
                kind: GateKind::Buf,
                fanin: vec![DeltaRef::Added(0)],
            },
        ],
        redriven: vec![],
        removed: vec![],
        outputs: vec![],
    };
    let session1 = PipelineSession::shared(Arc::clone(&patched1), config.clone());
    let (r2, patched2) = session1.rerun_with_design(&r1, &second).unwrap();
    let cold2 = PipelineSession::shared(patched2, config).run();
    assert_same_verdicts(&r2, &cold2, "chained eco");
    assert!(r2.total_counters().verdicts_reused > 0);
}

#[test]
fn rerun_without_carry_falls_back_to_full_recompute() {
    // A report decoded from JSON has no carry; rerun must still return
    // cold-identical results (with nothing reused).
    let circuit = generate(&GeneratorConfig::new("eco_nocarry", 3).gates(80).dffs(5));
    let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default()).unwrap());
    let config = PipelineConfig::default();
    let session = PipelineSession::shared(Arc::clone(&design), config.clone());
    let mut base = session.clone().run();
    base.carry = None;
    let delta = spare_cell_delta(&design);
    let (rerun, patched) = session.rerun_with_design(&base, &delta).unwrap();
    let cold = PipelineSession::shared(patched, config).run();
    assert_same_verdicts(&rerun, &cold, "no carry");
    assert_eq!(rerun.total_counters().verdicts_reused, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random functional edits at random thread/lane combinations stay
    /// cold-identical.
    #[test]
    fn random_redrive_matches_cold(
        pick in 0usize..1000,
        threads in prop_oneof![Just(1usize), Just(2), Just(4)],
        wide in any::<bool>(),
    ) {
        let circuit = generate(&GeneratorConfig::new("eco_prop", 23).gates(80).dffs(5));
        let design =
            Arc::new(insert_functional_scan(&circuit, &TpiConfig::default()).unwrap());
        let Some(delta) = redrive_delta(&design, pick) else {
            return;
        };
        if design.patched(&delta).is_err() {
            return;
        }
        let lane = if wide { LaneWidth::W256 } else { LaneWidth::W64 };
        check_one(&design, &delta, threads, lane, &format!("prop pick {pick}"));
    }
}
