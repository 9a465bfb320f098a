//! Process-isolated proof that a pipeline run compiles its circuit's
//! topology exactly once.
//!
//! [`fscan_netlist::CompiledTopology::builds`] is a process-global
//! counter, so this check lives in its own integration-test binary: the
//! unit-test harness runs tests concurrently in one process and any
//! other test compiling a plan would perturb the deltas measured here.

use fscan::{PipelineConfig, PipelineSession};
use fscan_netlist::{generate, CompiledTopology, GeneratorConfig};
use fscan_scan::{insert_functional_scan, TpiConfig};
use std::sync::Arc;

#[test]
fn pipeline_compiles_base_topology_exactly_once() {
    let circuit = generate(&GeneratorConfig::new("once", 31).gates(180).dffs(10));
    let before = CompiledTopology::builds();
    let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default()).unwrap());

    // Scan insertion compiles plans while it mutates the circuit (one
    // per TPI steady-state refresh); the transformed design then caches
    // exactly one plan for the frozen circuit.
    let after_insert = CompiledTopology::builds();
    assert!(after_insert > before, "scan insertion compiles plans");
    let _ = design.topology();
    let cached = CompiledTopology::builds();
    assert!(
        cached - after_insert <= 1,
        "first demand compiles at most one plan"
    );
    let _ = design.topology();
    assert_eq!(CompiledTopology::builds(), cached, "second demand is free");

    // Steps 0–2 (classify, alternating, comb) all evaluate the frozen
    // base circuit: they must share the cached plan and compile nothing.
    let after_comb = PipelineSession::shared(design, PipelineConfig::default())
        .classify()
        .alternating()
        .comb();
    assert_eq!(
        CompiledTopology::builds(),
        cached,
        "steps 0-2 must reuse the design's cached CompiledTopology"
    );

    // Compaction re-simulates the frozen base circuit too: it shares the
    // cached plan and compiles nothing.
    let after_compact = after_comb.compact();
    assert_eq!(
        CompiledTopology::builds(),
        cached,
        "compaction must reuse the design's cached CompiledTopology"
    );

    // Step 3's per-attempt *unrolled* circuits are distinct circuits and
    // legitimately compile their own plans, so the global counter moves
    // here: one plan per unrolled model, the one-frame model shared by
    // the undetectability check and the first depth of each attempt.
    // The report's `topology_builds` is not a count of compiles: the
    // classify stage books the session's one shared plan as 1, and this
    // pins that booking.
    let report = after_compact.seq();
    assert_eq!(
        CompiledTopology::builds() - cached,
        10,
        "step 3 compiles one plan per unrolled model"
    );
    assert_eq!(report.total_counters().topology_builds, 1);
}
