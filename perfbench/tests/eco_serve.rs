//! `eco_serve` runs its server as a child process of the benchmark
//! binary, so its self-test drives the built binary.

use std::process::Command;

use fscan::json::{self, Value};

/// The last line of a traced run: `correct`, `attempted`, `failed` and the
/// deterministic per-layer metrics (counts and ratios).
fn traced_counts(seed: u64) -> Vec<(String, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_fscan-perfbench"))
        .args(["--workload", "eco_serve", "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "1"])
        .output()
        .expect("run the benchmark");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let doc = json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(
        doc.get("correct").and_then(Value::as_bool),
        Some(true),
        "{stdout}"
    );
    let mut kept: Vec<(String, String)> = ["attempted", "failed"]
        .iter()
        .map(|k| (k.to_string(), doc.get(k).unwrap().render_compact()))
        .collect();
    for (name, m) in doc.get("metrics").and_then(Value::as_object).unwrap() {
        if matches!(
            m.get("unit").and_then(Value::as_str),
            Some("count" | "ratio")
        ) {
            kept.push((name.clone(), m.get("value").unwrap().render_compact()));
        }
    }
    kept
}

#[test]
fn eco_serve_counts_repeat_exactly() {
    let a = traced_counts(5);
    assert!(
        a.iter()
            .any(|(k, v)| k == "eco.verdicts_reused" && v != "0.0"),
        "{a:?}"
    );
    assert_eq!(a, traced_counts(6));
}
