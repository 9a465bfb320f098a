//! The full flow on a real ISCAS'89 benchmark (s27, the only one small
//! enough to embed verbatim) — exactly the input format the paper's
//! experiments consumed.

use fscan::{classify_faults, Category, PipelineConfig, PipelineSession};
use fscan_fault::{all_faults, collapse};
use fscan_netlist::{parse_bench, write_bench, CircuitStats};
use fscan_scan::{insert_functional_scan, insert_mux_scan, TpiConfig};
use std::sync::Arc;

/// The canonical ISCAS'89 s27 netlist.
const S27: &str = "
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
";

#[test]
fn s27_parses_with_canonical_statistics() {
    let c = parse_bench(S27, "s27").unwrap();
    let stats = CircuitStats::new(&c);
    assert_eq!(stats.inputs, 4);
    assert_eq!(stats.outputs, 1);
    assert_eq!(stats.dffs, 3);
    assert_eq!(stats.gates, 10);
    c.validate().unwrap();
    // Round-trip.
    let c2 = parse_bench(&write_bench(&c), "s27").unwrap();
    assert_eq!(CircuitStats::new(&c2).gates, 10);
}

#[test]
fn s27_functional_scan_full_flow() {
    let c = parse_bench(S27, "s27").unwrap();
    let design = insert_functional_scan(&c, &TpiConfig::default()).unwrap();
    design.verify().unwrap();
    assert_eq!(design.chains()[0].len(), 3);
    let report = PipelineSession::shared(Arc::new(design), PipelineConfig::default()).run();
    // Everything consistent and nearly everything closed on a circuit
    // this small.
    assert_eq!(
        report.comb.targeted,
        report.comb.detected + report.comb.undetectable + report.comb.undetected
    );
    assert!(
        report.seq.undetected <= 2,
        "s27 should leave at most the scan-enable faults: {report}"
    );
    // The test program must include the alternating sequence.
    assert_eq!(report.program.tests()[0].label, "alternating");
}

#[test]
fn s27_mux_vs_functional_overhead() {
    let c = parse_bench(S27, "s27").unwrap();
    let mux = insert_mux_scan(&c, 1).unwrap();
    let tpi = insert_functional_scan(&c, &TpiConfig::default()).unwrap();
    // MUX scan: NOT + 3 gates per flip-flop.
    assert_eq!(mux.added_gates(), 1 + 3 * 3);
    // TPI must not cost more than full MUX replacement on s27.
    assert!(
        tpi.added_gates() <= mux.added_gates(),
        "TPI added {} gates, MUX scan {}",
        tpi.added_gates(),
        mux.added_gates()
    );
}

#[test]
fn s27_classification_is_stable() {
    // A regression pin: the classification counts for s27 with the
    // default TPI configuration. If TPI or classification changes
    // behavior, this surfaces it loudly.
    let c = parse_bench(S27, "s27").unwrap();
    let design = insert_functional_scan(&c, &TpiConfig::default()).unwrap();
    let faults = collapse(design.circuit(), &all_faults(design.circuit()));
    let classified = classify_faults(&design, &faults);
    let easy = classified
        .iter()
        .filter(|cf| cf.category == Category::AlternatingDetectable)
        .count();
    let hard = classified
        .iter()
        .filter(|cf| cf.category == Category::Hard)
        .count();
    let affected = easy + hard;
    assert!(affected > 0, "some faults must affect the chain");
    assert!(
        hard <= affected / 2,
        "hard faults should be the minority: {hard}/{affected}"
    );
    // Locations must always be within the chain.
    for cf in &classified {
        for loc in &cf.locations {
            assert!(loc.chain < design.chains().len());
            assert!(loc.cell < design.chains()[loc.chain].len());
        }
    }
}
