//! The benchmark's designs, built the way it builds them: generated,
//! written to `.bench` text and parsed back. That is the 72
//! `paper_suite` designs (the twelve Table-1 types at scale 0.03, six
//! generator seeds each) and the two `eco_serve` bases (s9234 at scale
//! 0.05, generator seeds 0x9234 and 0x9235).

use fscan_bench::{scaled_config, SuiteCircuit, PAPER_SUITE};
use fscan_netlist::{generate, parse_bench, write_bench, Circuit, GeneratorConfig};

/// `paper_suite`'s generator scale and seeds per type.
const PAPER_SCALE: f64 = 0.03;
const PAPER_SEEDS_PER_TYPE: u64 = 6;

/// `eco_serve`'s base scale and session count.
const ECO_SCALE: f64 = 0.05;
const ECO_SESSIONS: u64 = 2;

/// One benchmark design: its suite type, generator configuration and
/// seed, and the type's chain count.
pub struct BenchmarkDesign {
    pub name: &'static str,
    pub config: GeneratorConfig,
    pub seed: u64,
    pub chains: usize,
}

impl BenchmarkDesign {
    /// The netlist as the benchmark feeds it to the flow: generated,
    /// written and parsed back.
    pub fn circuit(&self) -> Circuit {
        let generated = generate(&self.config);
        let name = generated.name().to_string();
        parse_bench(&write_bench(&generated), &name).expect("written text parses")
    }
}

/// A suite type at `scale` with generator seed `seed`, as the benchmark
/// configures it.
fn design(c: &SuiteCircuit, scale: f64, seed: u64) -> BenchmarkDesign {
    BenchmarkDesign {
        name: c.name,
        config: scaled_config(&SuiteCircuit { seed, ..*c }, scale),
        seed,
        chains: c.chains,
    }
}

/// Every benchmark design, `paper_suite`'s first.
pub fn designs() -> Vec<BenchmarkDesign> {
    let mut out = Vec::new();
    for c in &PAPER_SUITE {
        for k in 0..PAPER_SEEDS_PER_TYPE {
            out.push(design(c, PAPER_SCALE, c.seed + k));
        }
    }
    let s9234 = PAPER_SUITE.iter().find(|c| c.name == "s9234").unwrap();
    for k in 0..ECO_SESSIONS {
        out.push(design(s9234, ECO_SCALE, s9234.seed + k));
    }
    out
}
