//! Pins PODEM's untestability screen on a design whose step-2 proofs
//! thrash: the `paper_suite` s38417 design at generator seed 0x3841b.
//!
//! No committed snapshot backtracks past the screening threshold, so this
//! is the design that runs the screened path in tier 1 and CI. Its 13
//! step-2 redundancies cost the exhaustive search 22,753 backtracks; the
//! screen proves them from a SAT miter instead. Verdicts, the detection
//! curve and the emitted program must be those of the unscreened search,
//! at every lane width, and the counters those of every thread count.

use std::sync::Arc;

use fscan::{json, LaneWidth, PipelineConfig, PipelineReport, PipelineSession};
use fscan_netlist::{content_hash64, generate, parse_bench, write_bench, GeneratorConfig};
use fscan_scan::{insert_functional_scan, ScanDesign, TpiConfig};

/// Step-2 backtracks on this design when every proof exhausted PODEM's
/// decision space.
const UNSCREENED_COMB_BACKTRACKS: u64 = 22_753;

/// `content_hash64` of the emitted program's compact JSON, as the
/// unscreened search emitted it.
const PROGRAM_HASH: u64 = 0x2b322d167332d99f;

/// The benchmark's s38417 design: generated, written to `.bench` text and
/// parsed back, with functional scan on 8 chains.
fn design() -> Arc<ScanDesign> {
    let generated = generate(
        &GeneratorConfig::new("s38417", 0x3841b)
            .inputs(28)
            .gates(665)
            .dffs(49),
    );
    let circuit = parse_bench(&write_bench(&generated), "s38417").expect("written text parses");
    let tpi = TpiConfig {
        num_chains: 8,
        ..TpiConfig::default()
    };
    Arc::new(insert_functional_scan(&circuit, &tpi).expect("scan insertion"))
}

fn run(design: &Arc<ScanDesign>, threads: usize, lane_width: LaneWidth) -> PipelineReport {
    let config = PipelineConfig {
        threads,
        lane_width,
        ..PipelineConfig::default()
    };
    PipelineSession::shared(Arc::clone(design), config).run()
}

/// Every verdict the report carries, and the emitted program.
fn verdicts(report: &PipelineReport) -> String {
    let (comb, seq) = (&report.comb, &report.seq);
    format!(
        "comb {} {} {} {} {:?} | seq {} {} {} {} | {:?} | {}",
        comb.targeted,
        comb.detected,
        comb.undetectable,
        comb.undetected,
        comb.detection_curve,
        seq.targeted,
        seq.detected,
        seq.undetectable,
        seq.undetected,
        report.undetected_faults,
        json::program_to_value(&report.program).render_compact(),
    )
}

#[test]
fn screen_proves_the_redundancies_and_leaves_the_outputs_alone() {
    let report = run(&design(), 1, LaneWidth::default());
    let comb = &report.comb;
    assert_eq!(
        (
            comb.targeted,
            comb.detected,
            comb.undetectable,
            comb.undetected
        ),
        (44, 31, 13, 0)
    );
    assert_eq!(report.seq.targeted, 0);
    assert_eq!(report.program.total_cycles(), 146);
    let program = json::program_to_value(&report.program).render_compact();
    assert_eq!(
        content_hash64(program.as_bytes()),
        PROGRAM_HASH,
        "the emitted program changed"
    );
    let counters = comb.metrics.counters;
    assert!(counters.sat_screens >= 1, "no screen ran: {counters}");
    assert!(
        counters.podem_backtracks < UNSCREENED_COMB_BACKTRACKS,
        "{counters}"
    );
    assert_eq!(counters.podem_aborts, 0);
}

#[test]
fn screened_verdicts_are_width_and_thread_invariant() {
    let design = design();
    let wide = run(&design, 1, LaneWidth::W256);
    let narrow = run(&design, 1, LaneWidth::W64);
    assert_eq!(verdicts(&wide), verdicts(&narrow));
    let threaded = run(&design, 4, LaneWidth::W256);
    assert_eq!(verdicts(&wide), verdicts(&threaded));
    for ((name, one), (_, four)) in wide.stages().iter().zip(threaded.stages()) {
        assert_eq!(one.counters, four.counters, "stage {name}");
    }
}
