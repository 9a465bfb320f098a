//! Runs the paper's benchmark suite (synthetic substitutes) at a small
//! scale and prints a compact per-circuit summary — a fast preview of
//! what `cargo run -p fscan-bench --bin reproduce` regenerates in full.
//!
//! Run with: `cargo run --release --example bench_suite_report [scale]`

use std::env;

use fscan::{PipelineConfig, PipelineSession};
use fscan_bench::{build_design, PAPER_SUITE};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: f64 = env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(0.05);
    println!(
        "{:<10} {:>7} {:>5} {:>8} {:>7} {:>7} {:>7} {:>9}",
        "name", "#faults", "#ch", "affected", "#hard", "step2✓", "step3✓", "undetected"
    );
    let mut total_affected = 0usize;
    let mut total_undetected = 0usize;
    // The five smaller circuits keep this example quick; pass a scale
    // and edit the slice below for the full dozen.
    let config = PipelineConfig {
        threads: 0,
        ..PipelineConfig::default()
    };
    for suite in &PAPER_SUITE[..5] {
        // The owned session form: the design moves into an `Arc` and the
        // session is `'static + Send` (the shape a job queue would use).
        let design = std::sync::Arc::new(build_design(suite, scale));
        let chains = design.chains().len();
        let report = PipelineSession::shared(design, config.clone())
            .classify()
            .alternating()
            .comb()
            .compact()
            .seq();
        println!(
            "{:<10} {:>7} {:>5} {:>8} {:>7} {:>7} {:>7} {:>9}",
            report.name,
            report.total_faults,
            chains,
            report.classification.affected(),
            report.classification.hard,
            report.comb.detected,
            report.seq.detected,
            report.seq.undetected
        );
        total_affected += report.classification.affected();
        total_undetected += report.seq.undetected;
    }
    println!(
        "\nundetected / chain-affecting = {:.3}% (paper: 0.022%)",
        100.0 * total_undetected as f64 / total_affected.max(1) as f64
    );
    Ok(())
}
