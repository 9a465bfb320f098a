//! Multiple scan chains on a larger block, as the paper uses for its
//! bigger circuits ("we use multiple scan chains for the larger circuits
//! to reduce the length of the scan chain to a reasonable size").
//!
//! Demonstrates the multi-chain rules of the flow: a fault touching more
//! than one chain lands in group 1 of step 3, and chains the fault does
//! not touch are fully controllable and observable for sequential ATPG.
//!
//! Run with: `cargo run --release --example multi_chain_soc`

use fscan::{Category, PipelineConfig, PipelineSession};
use fscan_fault::{all_faults, collapse};
use fscan_netlist::{generate, GeneratorConfig};
use fscan_scan::{insert_functional_scan, insert_mux_scan, TpiConfig};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = generate(
        &GeneratorConfig::new("soc_block", 7)
            .inputs(24)
            .gates(1200)
            .dffs(64),
    );

    // Compare scan overhead: conventional MUX scan vs TPI.
    let mux = insert_mux_scan(&circuit, 4)?;
    let tpi = insert_functional_scan(
        &circuit,
        &TpiConfig {
            num_chains: 4,
            ..TpiConfig::default()
        },
    )?;
    let (mux_ded, _) = mux.segment_counts();
    let (tpi_ded, tpi_fun) = tpi.segment_counts();
    println!(
        "conventional scan: {mux_ded} MUX segments, {} gates added",
        mux.added_gates()
    );
    println!(
        "functional scan:   {tpi_ded} MUX segments + {tpi_fun} functional paths + {} test points, {} gates added",
        tpi.test_points(),
        tpi.added_gates()
    );
    println!(
        "dedicated-mux segments reduced by {:.0}%, added gates by {:.0}%\n",
        100.0 * (mux_ded - tpi_ded) as f64 / mux_ded as f64,
        100.0 * (mux.added_gates() as f64 - tpi.added_gates() as f64) / mux.added_gates() as f64
    );

    // Chain geometry.
    for (ci, chain) in tpi.chains().iter().enumerate() {
        println!("chain {ci}: {} cells", chain.len());
    }

    // Multi-chain fault statistics, read off the first checkpoint of
    // the staged pipeline (threads = 0 uses every hardware thread for
    // the fault-parallel stages).
    let faults = collapse(tpi.circuit(), &all_faults(tpi.circuit()));
    let config = PipelineConfig::builder().threads(0).build()?;
    let classified =
        PipelineSession::shared_with_faults(Arc::new(tpi), config, faults.clone()).classify();
    let multi = classified
        .classified
        .iter()
        .filter(|c| c.category != Category::Unaffected && c.multi_chain())
        .count();
    let affected = classified
        .classified
        .iter()
        .filter(|c| c.category != Category::Unaffected)
        .count();
    println!(
        "\n{affected} of {} faults affect a chain; {multi} touch more than one chain",
        faults.len()
    );

    // Resume the remaining stages from the checkpoint.
    let report = classified.alternating().comb().compact().seq();
    println!("\n{report}");
    Ok(())
}
