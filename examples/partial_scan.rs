//! Partial scan (the paper's Section 4 remark: the methodology also
//! works "in a partial scan environment"): select a feedback vertex set
//! of flip-flops with the Cheng–Agrawal heuristic, chain only those, and
//! run the same three-step functional scan chain test flow.
//!
//! Run with: `cargo run --release --example partial_scan`

use fscan::{PipelineConfig, PipelineSession};
use fscan_netlist::{generate, GeneratorConfig};
use fscan_scan::{
    ff_dependency_graph, insert_mux_scan, insert_partial_scan, select_scan_ffs, PartialScanConfig,
};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = generate(
        &GeneratorConfig::new("partial_demo", 23)
            .inputs(16)
            .gates(500)
            .dffs(32),
    );

    // Flip-flop dependency graph and the feedback vertex set.
    let graph = ff_dependency_graph(&circuit);
    let edges: usize = graph.iter().map(Vec::len).sum();
    let selected = select_scan_ffs(&circuit, &PartialScanConfig::default());
    println!(
        "dependency graph: {} flip-flops, {} edges; scanning {} of them breaks every cycle",
        graph.len(),
        edges,
        selected.len()
    );

    // Overhead comparison.
    let full = insert_mux_scan(&circuit, 2)?;
    let partial = insert_partial_scan(
        &circuit,
        &PartialScanConfig {
            num_chains: 2,
            ..PartialScanConfig::default()
        },
    )?;
    println!(
        "full scan adds {} gates; partial scan adds {} ({} cells chained)",
        full.added_gates(),
        partial.added_gates(),
        partial.chains().iter().map(|c| c.len()).sum::<usize>()
    );

    // Same flow, reduced controllability/observability: unchained
    // flip-flops are uncontrollable X state to every step.
    let config = PipelineConfig::builder().build()?;
    let report = PipelineSession::shared(Arc::new(partial), config)
        .classify()
        .alternating()
        .comb()
        .compact()
        .seq();
    println!("\n{report}");
    Ok(())
}
