//! The committed gate file must hold on the committed snapshots. Each
//! fresh snapshot CI writes is replaced by its committed copy, so a
//! re-committed snapshot that breaks a floor fails here, in
//! `cargo test`, and not only in the CI step after the stress run.

use std::fs;
use std::path::Path;

fn repo_file(name: &str) -> Result<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

#[test]
fn committed_gates_hold_on_the_committed_snapshots() {
    let gates = fscan_bench::parse_gates(&repo_file("BENCH_gates.txt").unwrap()).unwrap();
    assert_eq!(gates.len(), 21, "9 s9234, 7 ECO and 5 stress gates");
    let load = |name: &str| {
        let committed = match name {
            "bench_t1.json" => "BENCH_baseline.json",
            "bench_eco.json" => "BENCH_eco_ci.json",
            "bench_stress.json" => "BENCH_stress_ci.json",
            other => other,
        };
        fscan::json::parse(&repo_file(committed)?).map_err(|e| format!("{committed}: {e}"))
    };
    let mut fresh: Vec<&str> = Vec::new();
    for gate in &gates {
        // `check` fails a gate that compares no circuit, so every pass
        // compared at least one.
        if let Err(failure) = gate.check(load) {
            panic!("BENCH_gates.txt {failure}");
        }
        if !fresh.contains(&gate.fresh.as_str()) {
            fresh.push(&gate.fresh);
        }
    }
    // History records follow the order the file first names each fresh
    // snapshot: s9234, ECO s9234, stress100k.
    assert_eq!(
        fresh,
        ["bench_t1.json", "bench_eco.json", "bench_stress.json"]
    );
}
