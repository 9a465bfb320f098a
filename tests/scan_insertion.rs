//! Pins functional scan insertion's output on the benchmark's designs.
//!
//! Every design the benchmark inserts scan into is built here the way
//! it builds them: generated, written to `.bench` text and parsed back.
//! That is the 72 `paper_suite` designs (the twelve Table-1 types at
//! scale 0.03, six generator seeds each) and the two `eco_serve` bases
//! (s9234 at scale 0.05, generator seeds 0x9234 and 0x9235). Each design
//! is hashed with `content_hash64` over its `.bench` text, chains,
//! constraints, test-point count and added-gate count, and the digest of
//! all 74 hashes is pinned. Everything downstream (verdicts, programs,
//! counters) reads the design, so a builder change that keeps this
//! digest keeps them too.

use std::fmt::Write;

use fscan_bench::{scaled_config, SuiteCircuit, PAPER_SUITE};
use fscan_netlist::{content_hash64, generate, parse_bench, write_bench, GeneratorConfig};
use fscan_scan::{insert_functional_scan, ScanDesign, TpiConfig};

/// The digest of all 74 designs.
const DIGEST: u64 = 0xf9d9932843a0de10;

/// `paper_suite`'s generator scale and seeds per type.
const PAPER_SCALE: f64 = 0.03;
const PAPER_SEEDS_PER_TYPE: u64 = 6;

/// `eco_serve`'s base scale and session count.
const ECO_SCALE: f64 = 0.05;
const ECO_SESSIONS: u64 = 2;

/// A suite type at `scale` with generator seed `seed`, as the benchmark
/// configures it.
fn config(c: &SuiteCircuit, scale: f64, seed: u64) -> GeneratorConfig {
    scaled_config(&SuiteCircuit { seed, ..*c }, scale)
}

/// Every benchmark design's generator configuration and chain count.
fn designs() -> Vec<(GeneratorConfig, u64, usize)> {
    let mut out = Vec::new();
    for c in &PAPER_SUITE {
        for k in 0..PAPER_SEEDS_PER_TYPE {
            out.push((config(c, PAPER_SCALE, c.seed + k), c.seed + k, c.chains));
        }
    }
    let s9234 = PAPER_SUITE.iter().find(|c| c.name == "s9234").unwrap();
    for k in 0..ECO_SESSIONS {
        let seed = s9234.seed + k;
        out.push((config(s9234, ECO_SCALE, seed), seed, s9234.chains));
    }
    out
}

fn hash(design: &ScanDesign) -> u64 {
    let text = format!(
        "{}\n{:?}\n{:?}\n{} {}",
        write_bench(design.circuit()),
        design.chains(),
        design.constraints(),
        design.test_points(),
        design.added_gates()
    );
    content_hash64(text.as_bytes())
}

#[test]
fn insertion_is_pinned_on_every_benchmark_design() {
    let mut hashes = String::new();
    for (config, seed, chains) in designs() {
        let generated = generate(&config);
        let name = generated.name().to_string();
        let circuit = parse_bench(&write_bench(&generated), &name).expect("written text parses");
        let tpi = TpiConfig { num_chains: chains };
        let design = insert_functional_scan(&circuit, &tpi).expect("scan insertion");
        writeln!(hashes, "{name} {seed:#x} {:#018x}", hash(&design)).unwrap();
    }
    assert_eq!(hashes.lines().count(), 74);
    let digest = content_hash64(hashes.as_bytes());
    assert_eq!(digest, DIGEST, "digest {digest:#018x} of:\n{hashes}");
}
