//! CI guard for the packed classification path: on the scaled s5378
//! suite circuit the sharded classifier must produce verdicts
//! byte-identical to the serial scalar oracle for every thread count
//! and every rail width (64 and 256 lanes), with thread-invariant work
//! counters, while evaluating at least 4× fewer gates than the scalar
//! engine at 64 lanes — and at least 1.5× fewer again at 256 (4× is
//! the no-overlap ideal; merged words share less of their union cone).

use fscan::{classify_faults_sharded_at, Classifier, LaneWidth};
use fscan_bench::{build_design, PAPER_SUITE};
use fscan_fault::{all_faults, collapse};

#[test]
fn packed_classification_is_deterministic_and_cheaper() {
    let s5378 = PAPER_SUITE
        .iter()
        .find(|c| c.name == "s5378")
        .expect("s5378 is in the paper suite");
    let design = build_design(s5378, 0.1);
    let faults = collapse(design.circuit(), &all_faults(design.circuit()));
    assert!(faults.len() > 256, "need several 64-fault words");

    // Scalar oracle, one fault at a time.
    let mut scalar = Classifier::<u64>::new_wide(&design);
    let serial: Vec<_> = faults.iter().map(|&f| scalar.classify(f)).collect();
    let scalar_work = scalar.take_counters();

    let mut reference_work = None;
    let mut reference_hist = None;
    for threads in [1, 2, 4] {
        let (sharded, stats, work, hist) =
            classify_faults_sharded_at(&design, &faults, threads, LaneWidth::W64);
        // Category vectors (and locations) byte-identical to serial.
        assert_eq!(sharded, serial, "threads = {threads}");
        assert_eq!(stats.items(), faults.len());
        let expect = *reference_work.get_or_insert(work);
        assert_eq!(work, expect, "counters must not depend on threads");
        // The cone-size histogram covers every fault and is
        // thread-invariant (bucket sums commute across shard merges).
        assert_eq!(hist.total_cones(), faults.len() as u64);
        let expect_hist = *reference_hist.get_or_insert(hist);
        assert_eq!(hist, expect_hist, "cone hist must not depend on threads");

        // The packed engine does the same logical work as the scalar
        // engine (identical event and cone counts) ...
        assert_eq!(work.implication_events, scalar_work.implication_events);
        assert_eq!(work.cone_nets, scalar_work.cone_nets);
        assert_eq!(
            work.implication_words,
            (faults.len() as u64).div_ceil(64),
            "one packed word per 64 faults"
        );
        // ... through the shared dual-rail kernel ...
        assert_eq!(work.kernel_gate_evals, work.gate_evals);
        // ... with >= 4x fewer gate evaluations.
        assert!(
            work.gate_evals * 4 <= scalar_work.gate_evals,
            "packed {} vs scalar {} gate evals: expected >= 4x reduction",
            work.gate_evals,
            scalar_work.gate_evals
        );
    }
}

#[test]
fn wide_classification_matches_every_narrower_oracle() {
    let s5378 = PAPER_SUITE
        .iter()
        .find(|c| c.name == "s5378")
        .expect("s5378 is in the paper suite");
    let design = build_design(s5378, 0.1);
    let faults = collapse(design.circuit(), &all_faults(design.circuit()));
    assert!(faults.len() > 512, "need several 256-fault words");
    assert!(
        !faults.len().is_multiple_of(256),
        "want a partial tail word"
    );

    let (w64, _, work64, hist64) = classify_faults_sharded_at(&design, &faults, 1, LaneWidth::W64);
    let mut reference_work = None;
    for threads in [1, 2, 4] {
        let (w256, stats, work, hist256) =
            classify_faults_sharded_at(&design, &faults, threads, LaneWidth::W256);
        // Verdicts byte-identical across rail widths and thread counts.
        assert_eq!(w256, w64, "threads = {threads}");
        // Lane-exactness makes the cone distribution width-invariant.
        assert_eq!(hist256, hist64, "threads = {threads}");
        assert_eq!(stats.items(), faults.len());
        let expect = *reference_work.get_or_insert(work);
        assert_eq!(work, expect, "counters must not depend on threads");

        // Identical logical work at every width ...
        assert_eq!(work.implication_events, work64.implication_events);
        assert_eq!(work.cone_nets, work64.cone_nets);
        assert_eq!(
            work.implication_words,
            (faults.len() as u64).div_ceil(256),
            "one packed word per 256 faults"
        );
        // ... and at least another 1.5x fewer union-cone gate
        // evaluations than the 64-lane engine. The no-overlap ideal is
        // 4x; merging four 64-lane words grows the union cone, so the
        // realized reduction on the suite circuits sits between.
        assert_eq!(work.kernel_gate_evals, work.gate_evals);
        assert!(
            work.gate_evals * 3 <= work64.gate_evals * 2,
            "256-lane {} vs 64-lane {} gate evals: expected >= 1.5x reduction",
            work.gate_evals,
            work64.gate_evals
        );
    }
}
