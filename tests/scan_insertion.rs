//! Pins functional scan insertion's output on the benchmark's designs.
//!
//! Every design the benchmark inserts scan into is built here the way
//! it builds them (see `common`). Each design is hashed with
//! `content_hash64` over its `.bench` text, chains, constraints,
//! test-point count and added-gate count, and the digest of all 74
//! hashes is pinned. Everything downstream (verdicts, programs,
//! counters) reads the design, so a builder change that keeps this
//! digest keeps them too.

mod common;

use std::fmt::Write;

use fscan_netlist::{content_hash64, write_bench};
use fscan_scan::{insert_functional_scan, ScanDesign, TpiConfig};

/// The digest of all 74 designs.
const DIGEST: u64 = 0xf9d9932843a0de10;

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
    for bench in common::designs() {
        let circuit = bench.circuit();
        let tpi = TpiConfig {
            num_chains: bench.chains,
        };
        let design = insert_functional_scan(&circuit, &tpi).expect("scan insertion");
        let (name, seed) = (bench.name, bench.seed);
        writeln!(hashes, "{name} {seed:#x} {:#018x}", hash(&design)).unwrap();
    }
    assert_eq!(hashes.lines().count(), 74);
    let digest = content_hash64(hashes.as_bytes());
    assert_eq!(digest, DIGEST, "digest {digest:#018x} of:\n{hashes}");
}
