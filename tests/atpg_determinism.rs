//! CI guard for the fault-parallel ATPG path: on a scaled suite circuit
//! the batch-sharded comb phase — and the whole pipeline built on it —
//! must produce verdicts, counters, reports and a `TestProgram`
//! byte-identical for every thread count. The fixed-composition PODEM
//! batches with their input-order merge, the 64-lane global fault
//! dropping and the reverse-order compaction stage all claim
//! thread-invariance; this test holds them to it end to end.

use fscan::{classify_faults, Category, CombPhase, LaneWidth, PipelineConfig, PipelineSession};
use fscan_atpg::PodemConfig;
use fscan_bench::{build_design, PAPER_SUITE};
use fscan_fault::{all_faults, collapse, Fault};
use std::sync::Arc;

/// The comb stage's inputs for the stage-level checks: `threads`
/// workers and the default PODEM budget.
fn comb_config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        podem: PodemConfig::default(),
        threads,
        ..PipelineConfig::default()
    }
}

fn s1196() -> &'static fscan_bench::SuiteCircuit {
    PAPER_SUITE
        .iter()
        .find(|c| c.name == "s1196")
        .expect("s1196 is in the paper suite")
}

#[test]
fn comb_phase_is_byte_identical_across_thread_counts() {
    let design = build_design(s1196(), 0.2);
    let faults = collapse(design.circuit(), &all_faults(design.circuit()));
    let hard: Vec<Fault> = classify_faults(&design, &faults)
        .into_iter()
        .filter(|c| c.category == Category::Hard)
        .map(|c| c.fault)
        .collect();
    assert!(hard.len() > 8, "need enough targets to form real batches");

    let mut reference: Option<fscan::CombPhaseOutcome> = None;
    for threads in [1usize, 2, 4] {
        let outcome = CombPhase::new(&design, &comb_config(threads)).run(&hard);
        let expect = reference.get_or_insert(outcome.clone());
        assert_eq!(outcome.detected, expect.detected, "threads = {threads}");
        assert_eq!(
            outcome.undetectable, expect.undetectable,
            "threads = {threads}"
        );
        assert_eq!(outcome.remaining, expect.remaining, "threads = {threads}");
        assert_eq!(
            outcome.report.detection_curve, expect.report.detection_curve,
            "threads = {threads}"
        );
        assert_eq!(
            outcome.report.metrics.counters, expect.report.metrics.counters,
            "counters must not depend on threads (threads = {threads})"
        );
        assert_eq!(outcome.program.len(), expect.program.len());
        for (a, b) in outcome.program.iter().zip(expect.program.iter()) {
            assert_eq!(a.label, b.label, "threads = {threads}");
            assert_eq!(a.vectors, b.vectors, "threads = {threads}");
        }
    }
    // The parallel path really exercises its new machinery.
    let counters = reference.unwrap().report.metrics.counters;
    assert!(counters.podem_shards > 0, "no sharded PODEM batch ran");
    // ...and PODEM's retraction path: no committed snapshot backtracks.
    assert!(counters.podem_backtracks > 0, "no PODEM search backtracked");
}

#[test]
fn comb_phase_is_byte_identical_across_lane_widths() {
    // s5378 at 0.1 yields ~90 hard faults — more than one 64-lane word,
    // so the 256-lane rail provably merges words (s1196 would fit in a
    // single word at either width and show no difference).
    let s5378 = PAPER_SUITE
        .iter()
        .find(|c| c.name == "s5378")
        .expect("s5378 is in the paper suite");
    let design = build_design(s5378, 0.1);
    let faults = collapse(design.circuit(), &all_faults(design.circuit()));
    let hard: Vec<Fault> = classify_faults(&design, &faults)
        .into_iter()
        .filter(|c| c.category == Category::Hard)
        .map(|c| c.fault)
        .collect();
    assert!(hard.len() > 64, "need more than one 64-lane word");

    let narrow_cfg = PipelineConfig {
        lane_width: LaneWidth::W64,
        ..comb_config(1)
    };
    let narrow = CombPhase::new(&design, &narrow_cfg).run(&hard);
    let wide = CombPhase::new(&design, &comb_config(1)).run(&hard);
    assert_eq!(PipelineConfig::default().lane_width, LaneWidth::W256);

    // Everything the phase emits — verdicts, the Figure 5 curve, the
    // test program — is byte-identical across rail widths.
    assert_eq!(wide.detected, narrow.detected);
    assert_eq!(wide.undetectable, narrow.undetectable);
    assert_eq!(wide.remaining, narrow.remaining);
    assert_eq!(wide.report.detection_curve, narrow.report.detection_curve);
    assert_eq!(wide.program.len(), narrow.program.len());
    for (a, b) in wide.program.iter().zip(narrow.program.iter()) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.vectors, b.vectors);
    }
    // Only the work changes: the PODEM side is width-independent, and
    // the confirmation fault simulations retire 4x the faults per
    // union-cone walk, so the wide run costs strictly fewer kernel
    // evaluations.
    let n = narrow.report.metrics.counters;
    let w = wide.report.metrics.counters;
    assert_eq!(w.podem_decisions, n.podem_decisions);
    assert_eq!(w.podem_backtracks, n.podem_backtracks);
    assert_eq!(w.windows_formed, n.windows_formed);
    assert_eq!(w.faults_dropped, n.faults_dropped);
    assert!(
        w.kernel_gate_evals < n.kernel_gate_evals,
        "wide {} vs narrow {} kernel gate evals",
        w.kernel_gate_evals,
        n.kernel_gate_evals
    );
}

#[test]
fn pipeline_report_and_program_are_byte_identical_across_thread_counts() {
    let design = Arc::new(build_design(s1196(), 0.2));

    let mut reference: Option<fscan::PipelineReport> = None;
    for threads in [1usize, 2, 4] {
        let config = PipelineConfig {
            threads,
            ..PipelineConfig::default()
        };
        let report = PipelineSession::shared(Arc::clone(&design), config).run();
        let expect = reference.get_or_insert_with(|| report.clone());

        // Stage reports: detection counts and every deterministic
        // counter, stage by stage.
        assert_eq!(report.classification.easy, expect.classification.easy);
        assert_eq!(report.classification.hard, expect.classification.hard);
        assert_eq!(report.alternating.detected, expect.alternating.detected);
        assert_eq!(report.comb.detected, expect.comb.detected);
        assert_eq!(report.comb.detection_curve, expect.comb.detection_curve);
        assert_eq!(report.compact.tests_after, expect.compact.tests_after);
        assert_eq!(report.compact.lost, 0);
        assert_eq!(report.seq.detected, expect.seq.detected);
        assert_eq!(report.undetected_faults, expect.undetected_faults);
        for ((stage, m), (_, em)) in report.stages().iter().zip(expect.stages().iter()) {
            assert_eq!(
                m.counters, em.counters,
                "stage {stage} counters must not depend on threads (threads = {threads})"
            );
        }

        // The emitted test program, vector by vector.
        assert_eq!(
            report.program.tests().len(),
            expect.program.tests().len(),
            "threads = {threads}"
        );
        for (a, b) in report.program.tests().iter().zip(expect.program.tests()) {
            assert_eq!(a.label, b.label, "threads = {threads}");
            assert_eq!(a.vectors, b.vectors, "threads = {threads}");
        }
    }
}
