//! Pins PODEM's untestability screen on two `paper_suite` designs whose
//! searches thrash.
//!
//! No committed snapshot backtracks past the screening threshold, so
//! these are the designs that run the screened paths in tier 1 and CI:
//! - s38417 at generator seed 0x3841b. Its 13 step-2 redundancies cost
//!   the exhaustive search 22,753 backtracks; the SAT miter proves them
//!   instead.
//! - s1238 at generator seed 0x1238. Step 3's one target reads unloaded
//!   flip-flop state in every deepening view. Without a screen, PODEM
//!   searched each depth until the step budget ran out (12,018
//!   decisions); the three-valued reachability check proves each depth
//!   hopeless at the screening threshold.
//!
//! Verdicts, the detection curve and the emitted program must be those
//! of the unscreened search, at every lane width, and the counters those
//! of every thread count.

use std::sync::Arc;

use fscan::{json, LaneWidth, PipelineConfig, PipelineReport, PipelineSession};
use fscan_netlist::{content_hash64, generate, parse_bench, write_bench, GeneratorConfig};
use fscan_scan::{insert_functional_scan, ScanDesign, TpiConfig};

/// Step-2 backtracks on this design when every proof exhausted PODEM's
/// decision space.
const UNSCREENED_COMB_BACKTRACKS: u64 = 22_753;

/// `content_hash64` of the s38417 design's program's compact JSON, as
/// the unscreened search emitted it.
const PROGRAM_HASH: u64 = 0x2b322d167332d99f;

/// Step-3 PODEM decisions on the s1238 design when its X-state searches
/// ran to the step budget.
const UNSCREENED_SEQ_DECISIONS: u64 = 12_018;

/// `content_hash64` of the s1238 design's program's compact JSON, as the
/// unscreened search emitted it.
const S1238_PROGRAM_HASH: u64 = 0x63a487766d92898b;

/// A benchmark design: generated, written to `.bench` text and parsed
/// back, with functional scan on `chains` chains.
fn design(config: &GeneratorConfig, chains: usize) -> Arc<ScanDesign> {
    let generated = generate(config);
    let name = generated.name().to_string();
    let circuit = parse_bench(&write_bench(&generated), &name).expect("written text parses");
    let tpi = TpiConfig {
        num_chains: chains,
        ..TpiConfig::default()
    };
    Arc::new(insert_functional_scan(&circuit, &tpi).expect("scan insertion"))
}

/// The benchmark's s38417 design at generator seed 0x3841b.
fn s38417() -> Arc<ScanDesign> {
    let config = GeneratorConfig::new("s38417", 0x3841b)
        .inputs(28)
        .gates(665)
        .dffs(49);
    design(&config, 8)
}

/// The benchmark's s1238 design at generator seed 0x1238.
fn s1238() -> Arc<ScanDesign> {
    let config = GeneratorConfig::new("s1238", 0x1238)
        .inputs(14)
        .gates(40)
        .dffs(4);
    design(&config, 1)
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
    let report = run(&s38417(), 1, LaneWidth::default());
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
fn three_valued_screen_ends_step_3s_hopeless_searches() {
    let report = run(&s1238(), 1, LaneWidth::default());
    let seq = &report.seq;
    assert_eq!(
        (seq.targeted, seq.detected, seq.undetectable, seq.undetected),
        (1, 0, 0, 1)
    );
    let program = json::program_to_value(&report.program).render_compact();
    assert_eq!(
        content_hash64(program.as_bytes()),
        S1238_PROGRAM_HASH,
        "the emitted program changed"
    );
    let counters = seq.metrics.counters;
    assert!(
        counters.x_screens >= 1,
        "no three-valued screen ran: {counters}"
    );
    assert!(
        counters.podem_decisions < UNSCREENED_SEQ_DECISIONS,
        "{counters}"
    );
}

#[test]
fn screened_verdicts_are_width_and_thread_invariant() {
    for design in [s38417(), s1238()] {
        let wide = run(&design, 1, LaneWidth::W256);
        let narrow = run(&design, 1, LaneWidth::W64);
        assert_eq!(verdicts(&wide), verdicts(&narrow));
        let threaded = run(&design, 4, LaneWidth::W256);
        assert_eq!(verdicts(&wide), verdicts(&threaded));
        for ((name, one), (_, four)) in wide.stages().iter().zip(threaded.stages()) {
            assert_eq!(one.counters, four.counters, "stage {name}");
        }
    }
}
