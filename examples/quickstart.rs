//! Quickstart: build a circuit, insert a functional scan chain, and run
//! the paper's three-step functional scan chain test generation through
//! the staged [`PipelineSession`] API.
//!
//! Run with: `cargo run --release --example quickstart`

use fscan::{PipelineConfig, PipelineSession};
use fscan_netlist::{generate, CircuitStats, GeneratorConfig};
use fscan_scan::{insert_functional_scan, TpiConfig};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A sequential circuit. Real designs come from `parse_bench`;
    //    here we generate an ISCAS-like one.
    let circuit = generate(
        &GeneratorConfig::new("quickstart", 42)
            .inputs(12)
            .gates(300)
            .dffs(20),
    );
    println!("circuit: {}", CircuitStats::new(&circuit));

    // 2. Insert a functional scan chain: scan paths through mission
    //    logic (TPI), dedicated MUX segments only where no affordable
    //    functional path exists.
    let design = insert_functional_scan(&circuit, &TpiConfig::default())?;
    design.verify()?;
    println!("{design}");
    println!(
        "scan-mode PI constraints: {}",
        design
            .constraints()
            .iter()
            .map(|(n, v)| format!("{n}={}", u8::from(*v)))
            .collect::<Vec<_>>()
            .join(", ")
    );

    // 3. Test the scan chain itself. `threads: 0` shards the
    //    fault-parallel stages across every hardware thread (reports are
    //    identical for any thread count).
    let config = PipelineConfig {
        threads: 0,
        ..PipelineConfig::default()
    };

    // Walk the pipeline stage by stage. Each checkpoint exposes its
    // intermediate state; calling the next method resumes the flow.
    let classified = PipelineSession::shared(Arc::new(design), config).classify();
    let summary = classified.summary();
    println!(
        "step 1: {} faults -> {} easy / {} hard / {} unaffected",
        summary.total,
        summary.easy,
        summary.hard,
        summary.total - summary.affected()
    );

    let alternating = classified.alternating();
    println!(
        "alternating sequence detects {} of the easy faults",
        alternating.detected().len()
    );

    let comb = alternating.comb();
    println!(
        "step 2: PODEM + confirmation sim detect {} hard faults",
        comb.report().detected
    );

    let compacted = comb.compact();
    println!("{} (lossless by construction)", compacted.report());

    let report = compacted.seq();
    println!("{report}");
    Ok(())
}
