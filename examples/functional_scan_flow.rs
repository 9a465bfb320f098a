//! The full DFT flow on an ISCAS'89-format netlist, step by step:
//! parse → insert functional scan → inspect chain geometry → show why
//! the alternating sequence is insufficient → run the three-step flow.
//!
//! This walks through the exact scenario of the paper's Figures 1 and 2:
//! a scan path through an AND gate whose side input is a forced primary
//! input, and a fault that shortens the chain in a way the alternating
//! pattern's period hides.
//!
//! Run with: `cargo run --release --example functional_scan_flow`

use fscan::{Category, PipelineConfig, PipelineSession};
use fscan_fault::{all_faults, collapse};
use fscan_netlist::parse_bench;
use fscan_scan::{insert_functional_scan, SegmentKind, TpiConfig};
use std::sync::Arc;

/// A small controller-style netlist in `.bench` format. Any ISCAS'89
/// benchmark file parses the same way.
const NETLIST: &str = "
INPUT(start)
INPUT(mode)
INPUT(data)
OUTPUT(done)
OUTPUT(q3)
s0 = DFF(n0)
s1 = DFF(n1)
s2 = DFF(n2)
s3 = DFF(n3)
s4 = DFF(n4)
n0 = AND(data, mode)
n1 = AND(s0, mode)
n2 = NAND(s1, start)
n3 = OR(s2, ctl)
ctl = AND(start, mode)
n4 = AND(s3, mode)
done = NOR(s4, ctl)
q3 = NOT(s3)
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = parse_bench(NETLIST, "controller")?;
    println!(
        "parsed: {} gates, {} flip-flops, {} inputs",
        circuit.num_gates(),
        circuit.dffs().len(),
        circuit.inputs().len()
    );

    // Insert functional scan. The shift-register-like structure here
    // (s0 → n1 → s1 → …) lets TPI sensitize existing paths by pinning
    // `mode`/`start` during scan mode instead of adding multiplexers.
    let design = insert_functional_scan(&circuit, &TpiConfig::default())?;
    design.verify()?;
    println!("{design}");
    for (ci, chain) in design.chains().iter().enumerate() {
        println!("chain {ci} (scan_in {}):", chain.scan_in);
        for (k, cell) in chain.cells.iter().enumerate() {
            let kind = match cell.kind {
                SegmentKind::Functional => "functional",
                SegmentKind::Dedicated => "dedicated ",
            };
            let path: Vec<String> = cell
                .path
                .iter()
                .map(|(g, pin)| format!("{g}.{pin}"))
                .collect();
            println!(
                "  cell {k}: {} → {} [{kind}] path=[{}] inverted={} sides={}",
                cell.source,
                cell.ff,
                path.join(" → "),
                cell.inverted,
                cell.sides.len()
            );
        }
    }

    // Classify the collapsed fault universe (paper §3) — the first
    // checkpoint of the staged pipeline. The classification is open for
    // inspection before the later steps run.
    let faults = collapse(design.circuit(), &all_faults(design.circuit()));
    let config = PipelineConfig::default();
    let session = PipelineSession::shared_with_faults(Arc::new(design), config, faults.clone());
    let classified = session.classify();
    let count = |cat| {
        classified
            .classified
            .iter()
            .filter(|c| c.category == cat)
            .count()
    };
    println!(
        "\nclassification: {} faults → {} easy / {} hard / {} unaffected",
        faults.len(),
        count(Category::AlternatingDetectable),
        count(Category::Hard),
        count(Category::Unaffected)
    );
    for c in classified
        .classified
        .iter()
        .filter(|c| c.category == Category::Hard)
    {
        println!("  hard: {} affecting {:?}", c.fault, c.locations);
    }

    // Resume: alternating sequence, then step 2, compaction, then step 3.
    let report = classified.alternating().comb().compact().seq();
    println!("\n{report}");
    Ok(())
}
