//! `BENCH_pipeline.json` emission: per-circuit, per-stage deterministic
//! work counters plus wall-clock, built as one [`fscan::json::Value`]
//! tree and rendered by the canonical pretty printer.
//!
//! The format is stable and diff-friendly: two-space indentation, one
//! key per line, and every wall-clock figure on a line whose key
//! contains `wall_s`. Stripping those lines (e.g. `grep -v wall_s`)
//! leaves only deterministic content, so outputs from runs with
//! different thread counts must compare byte-identical — CI checks
//! exactly that. The printer's contract is shared with every other JSON
//! surface of the project (committed snapshots re-render to themselves
//! after a parse round trip; see `fscan::json`).

use fscan::json::{counters_to_value, mem_to_value, Value};
use fscan::PipelineReport;

/// Renders the benchmark report for a set of pipeline runs.
///
/// `lanes` records the packed-kernel rail width the run used (64 or
/// 256) so a committed snapshot is self-describing; the line sits in
/// the header next to `threads` and, like it, never varies within one
/// run, so the thread-invariance diff is unaffected.
///
/// # Examples
///
/// ```
/// use fscan_bench::{bench_json, run_pipeline, PAPER_SUITE};
///
/// let report = run_pipeline(&PAPER_SUITE[0], 0.05);
/// let json = bench_json(&[report], 0.05, 1, 256);
/// assert!(json.contains("\"gate_evals\""));
/// assert!(json.contains("\"lanes\": 256"));
/// assert!(json.lines().filter(|l| l.contains("wall_s")).count() >= 6);
/// ```
pub fn bench_json(reports: &[PipelineReport], scale: f64, threads: usize, lanes: usize) -> String {
    Value::object([
        ("scale", Value::Float(scale)),
        ("threads", Value::UInt(threads as u64)),
        ("lanes", Value::UInt(lanes as u64)),
        (
            "circuits",
            Value::Array(reports.iter().map(circuit_value).collect()),
        ),
    ])
    .render_pretty()
}

fn circuit_value(r: &PipelineReport) -> Value {
    let stages = r.stages();
    let wall: f64 = stages.iter().map(|(_, m)| m.cpu.as_secs_f64()).sum();
    Value::object([
        ("name", Value::Str(r.name.clone())),
        ("total_faults", Value::UInt(r.total_faults as u64)),
        ("affected", Value::UInt(r.classification.affected() as u64)),
        ("undetected", Value::UInt(r.undetected() as u64)),
        ("wall_s", Value::Float(wall)),
        (
            "stages",
            Value::Array(
                stages
                    .iter()
                    .map(|(stage, m)| {
                        Value::object([
                            ("stage", Value::Str((*stage).to_string())),
                            ("wall_s", Value::Float(m.cpu.as_secs_f64())),
                            ("items", Value::UInt(m.shards.items() as u64)),
                            ("counters", counters_to_value(&m.counters)),
                            ("mem", mem_to_value(&m.mem)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("total_counters", counters_to_value(&r.total_counters())),
        ("total_mem", mem_to_value(&r.total_mem())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::PAPER_SUITE;
    use crate::tables::run_pipeline_with;
    use fscan::json::parse;
    use fscan::PipelineConfig;

    fn small_report(threads: usize) -> fscan::PipelineReport {
        let config = PipelineConfig::builder().threads(threads).build().unwrap();
        run_pipeline_with(&PAPER_SUITE[0], 0.05, config)
    }

    #[test]
    fn emits_every_counter_for_every_stage() {
        let json = bench_json(&[small_report(1)], 0.05, 1, 256);
        for (name, _) in fscan_sim::WorkCounters::ZERO.fields() {
            // 5 stages + total_counters per circuit.
            assert_eq!(
                json.matches(&format!("\"{name}\":")).count(),
                6,
                "counter {name} missing from some section:\n{json}"
            );
        }
        for stage in ["classify", "alternating", "comb", "compact", "seq"] {
            assert!(json.contains(&format!("\"stage\": \"{stage}\"")));
        }
        // The memory block rides along at the same granularity, with
        // the allocator-dependent keys each on their own line (the CI
        // strip filter removes them like wall_s).
        for key in ["peak_bytes", "reallocs", "arena_bytes", "cone_hist"] {
            assert_eq!(
                json.matches(&format!("\"{key}\":")).count(),
                6,
                "mem key {key} missing from some section:\n{json}"
            );
        }
        for line in json.lines().filter(|l| l.contains("peak_bytes")) {
            assert!(line.trim_start().starts_with("\"peak_bytes\":"), "{line}");
        }
    }

    #[test]
    fn wall_clock_is_line_separable() {
        // The CI determinism check strips wall-clock lines and then
        // requires byte-identical output across thread counts; each
        // wall_s must therefore sit alone on its line.
        let json = bench_json(&[small_report(1)], 0.05, 1, 256);
        let wall_lines = json.lines().filter(|l| l.contains("wall_s")).count();
        // One per stage (5) plus one per circuit.
        assert_eq!(wall_lines, 6);
        for line in json.lines().filter(|l| l.contains("wall_s")) {
            assert!(line.trim_start().starts_with("\"wall_s\":"), "{line}");
        }
    }

    #[test]
    fn stripped_output_is_thread_invariant() {
        let strip = |json: &str| {
            json.lines()
                .filter(|l| {
                    !l.contains("wall_s")
                        && !l.contains("\"threads\"")
                        && !l.contains("peak_bytes")
                        && !l.contains("reallocs")
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        let one = bench_json(&[small_report(1)], 0.05, 1, 256);
        let four = bench_json(&[small_report(4)], 0.05, 4, 256);
        assert_eq!(strip(&one), strip(&four));
    }

    #[test]
    fn output_parses_and_rerenders_byte_identically() {
        // The emitter and the canonical parser/printer agree exactly —
        // the same identity CI asserts for the committed baseline file.
        let json = bench_json(&[small_report(1)], 0.05, 1, 256);
        let reparsed = parse(&json).unwrap();
        assert_eq!(reparsed.render_pretty(), json);
        assert_eq!(reparsed.get("scale").and_then(|v| v.as_f64()), Some(0.05));
    }
}
