//! The committed benchmark snapshots are the ground truth the canonical
//! JSON printer must reproduce: `fscan::json::parse` followed by
//! `render_pretty` (or `render_compact` for history records) has to be
//! the identity on every file checked into the repository. This is the
//! acceptance gate for replacing the old ad-hoc emitters — if the
//! printer drifted by a single byte, `reproduce --json` would produce
//! spurious diffs against the committed baselines.

use std::fs;
use std::path::Path;

fn repo_file(name: &str) -> Option<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    fs::read_to_string(path).ok()
}

#[test]
fn committed_baselines_rerender_byte_identically() {
    let mut checked = 0;
    for name in [
        "BENCH_baseline.json",
        "BENCH_baseline_w64.json",
        "BENCH_baseline_pre_atpg.json",
        "BENCH_eco_ci.json",
        "BENCH_stress_ci.json",
    ] {
        let Some(text) = repo_file(name) else {
            continue;
        };
        let doc =
            fscan::json::parse(&text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        assert_eq!(
            doc.render_pretty(),
            text,
            "{name} is not a printer fixed point"
        );
        checked += 1;
    }
    assert!(
        checked > 0,
        "no committed baseline found next to the workspace"
    );
}

#[test]
fn committed_history_records_rerender_byte_identically() {
    let Some(text) = repo_file("BENCH_history.jsonl") else {
        return;
    };
    for (i, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        let doc = fscan::json::parse(line)
            .unwrap_or_else(|e| panic!("history line {i} does not parse: {e}"));
        assert_eq!(
            doc.render_compact(),
            line,
            "history line {i} is not a compact-printer fixed point"
        );
    }
}

#[test]
fn committed_baseline_counters_match_the_library_parsers() {
    // The public counter parser (the content of every history record)
    // and the raw document agree on every total.
    let Some(text) = repo_file("BENCH_baseline.json") else {
        return;
    };
    let totals = fscan_bench::parse_total_counters(&text).expect("baseline parses");
    assert!(!totals.is_empty());
    let doc = fscan::json::parse(&text).unwrap();
    let circuits = doc.get("circuits").and_then(|v| v.as_array()).unwrap();
    assert_eq!(circuits.len(), totals.len());
    for ((name, counters), circuit) in totals.iter().zip(circuits) {
        assert_eq!(
            circuit.get("name").and_then(|v| v.as_str()),
            Some(name.as_str())
        );
        let evals = circuit
            .get("total_counters")
            .and_then(|v| v.get("gate_evals"))
            .and_then(|v| v.as_u64())
            .unwrap();
        let parsed = counters.iter().find(|(k, _)| k == "gate_evals").unwrap().1;
        assert_eq!(evals, parsed, "gate_evals mismatch for {name}");
    }
}
