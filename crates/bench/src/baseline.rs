//! Work-counter regression checking against a committed baseline.
//!
//! `BENCH_baseline.json` (a [`bench_json`](crate::bench_json) snapshot
//! committed to the repository) records the per-circuit
//! `total_counters` block of a known-good build. [`check_regression`]
//! compares a fresh snapshot against it and flags every circuit whose
//! total grew beyond a tolerance — the CI guard that keeps the
//! event-driven simulator's incremental-work win from silently eroding.
//! [`check_exact`] guards structural counters (`topology_builds`) that
//! must not move at all: a pipeline run compiles its circuit exactly
//! once, and any drift means an engine started rebuilding privately.

use fscan::json::Value;

/// Per-circuit `total_counters` contents: `(circuit name, [(counter,
/// value)])` in emission order.
pub type CircuitCounters = Vec<(String, Vec<(String, u64)>)>;

/// Extracts every `(counter, value)` pair of each circuit's
/// `total_counters` block from a [`bench_json`](crate::bench_json)
/// snapshot.
///
/// Only the `total_counters` block is consulted; the per-stage counters
/// (which contain the same keys) are skipped. Snapshots are parsed with
/// the canonical [`fscan::json`] parser (order-preserving, so the
/// extracted pairs keep emission order), replacing the line-oriented
/// scraper this module started with.
///
/// # Examples
///
/// ```
/// use fscan_bench::baseline::parse_total_counters;
///
/// let json = r#"{
///   "circuits": [
///     {
///       "name": "s5378",
///       "stages": [
///         {
///           "counters": {
///             "gate_evals": 11
///           }
///         }
///       ],
///       "total_counters": {
///         "gate_evals": 42,
///         "topology_builds": 1
///       }
///     }
///   ]
/// }"#;
/// let parsed = parse_total_counters(json).unwrap();
/// assert_eq!(parsed[0].0, "s5378");
/// assert_eq!(
///     parsed[0].1,
///     vec![("gate_evals".to_string(), 42), ("topology_builds".to_string(), 1)]
/// );
/// ```
pub fn parse_total_counters(json: &str) -> Result<CircuitCounters, String> {
    let mut out: CircuitCounters = Vec::new();
    for (name, circuit) in circuits_of(json)? {
        let totals = circuit
            .get("total_counters")
            .ok_or_else(|| format!("circuit {name} has no total_counters"))?;
        out.push((name, counter_pairs(totals)?));
    }
    if out.is_empty() {
        return Err("no circuits with total_counters found".into());
    }
    Ok(out)
}

/// Parses a snapshot and yields each circuit as `(name, object)`.
fn circuits_of(json: &str) -> Result<Vec<(String, Value)>, String> {
    let doc = fscan::json::parse(json).map_err(|e| e.to_string())?;
    let circuits = doc
        .get("circuits")
        .and_then(Value::as_array)
        .ok_or_else(|| "no circuits with total_counters found".to_string())?;
    circuits
        .iter()
        .map(|c| {
            let name = c
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| "circuit without a name".to_string())?;
            Ok((name.to_string(), c.clone()))
        })
        .collect()
}

/// Flattens a counters object into `(key, value)` pairs in emission
/// order.
fn counter_pairs(counters: &Value) -> Result<Vec<(String, u64)>, String> {
    counters
        .as_object()
        .ok_or_else(|| "counters block is not an object".to_string())?
        .iter()
        .map(|(key, v)| {
            v.as_u64()
                .map(|v| (key.clone(), v))
                .ok_or_else(|| format!("malformed counter {key}"))
        })
        .collect()
}

/// Extracts each circuit's `total_mem` block as scalar `(quantity,
/// value)` pairs. The `cone_hist` bucket array is folded into a
/// synthetic `cone_total` entry (the number of cones recorded), so mem
/// gates can use the same `(name, value)` machinery as the counter
/// gates.
///
/// # Examples
///
/// ```
/// use fscan_bench::baseline::parse_total_mem;
///
/// let json = r#"{
///   "circuits": [
///     {
///       "name": "stress100k",
///       "total_mem": {
///         "peak_bytes": 0,
///         "arena_bytes": 4096,
///         "cone_hist": [1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
///       }
///     }
///   ]
/// }"#;
/// let parsed = parse_total_mem(json).unwrap();
/// assert_eq!(parsed[0].0, "stress100k");
/// assert!(parsed[0].1.contains(&("arena_bytes".to_string(), 4096)));
/// assert!(parsed[0].1.contains(&("cone_total".to_string(), 3)));
/// ```
pub fn parse_total_mem(json: &str) -> Result<CircuitCounters, String> {
    let mut out: CircuitCounters = Vec::new();
    for (name, circuit) in circuits_of(json)? {
        let mem = circuit
            .get("total_mem")
            .ok_or_else(|| format!("circuit {name} has no total_mem"))?;
        out.push((name, mem_pairs(mem)?));
    }
    if out.is_empty() {
        return Err("no circuits with total_mem found".into());
    }
    Ok(out)
}

/// Flattens a mem object into scalar `(quantity, value)` pairs,
/// folding the `cone_hist` array into a `cone_total` entry.
fn mem_pairs(mem: &Value) -> Result<Vec<(String, u64)>, String> {
    let fields = mem
        .as_object()
        .ok_or_else(|| "mem block is not an object".to_string())?;
    let mut out = Vec::new();
    for (key, v) in fields {
        if key == "cone_hist" {
            let buckets = v
                .as_array()
                .ok_or_else(|| "cone_hist is not an array".to_string())?;
            let mut total = 0u64;
            for b in buckets {
                total += b
                    .as_u64()
                    .ok_or_else(|| "malformed cone_hist bucket".to_string())?;
            }
            out.push(("cone_total".to_string(), total));
        } else {
            out.push((
                key.clone(),
                v.as_u64()
                    .ok_or_else(|| format!("malformed mem quantity {key}"))?,
            ));
        }
    }
    Ok(out)
}

/// Requires every circuit's `key` to stay at or below `limit × base`
/// for the matching baseline entry — the gate for allocator-observed
/// peaks, which are nondeterministic but must not balloon. Baseline
/// entries of 0 (no tracking allocator in the baseline run) are
/// skipped: there is nothing meaningful to compare against.
pub fn check_max_factor(
    baseline: &[(String, u64)],
    current: &[(String, u64)],
    key: &str,
    factor: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, base) in baseline {
        if *base == 0 {
            continue;
        }
        let Some((_, cur)) = current.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let limit = *base as f64 * factor;
        if *cur as f64 > limit {
            failures.push(format!(
                "{name}: {key} {cur} exceeds {factor}x the baseline {base}"
            ));
        }
    }
    failures
}

/// Per-circuit, per-stage counter contents: `(circuit name, [(stage
/// name, [(counter, value)])])` in emission order.
pub type StageCounters = Vec<(String, Vec<(String, Vec<(String, u64)>)>)>;

/// Extracts every stage's `(counter, value)` pairs of each circuit from
/// a [`bench_json`](crate::bench_json) snapshot — the per-stage
/// companion of [`parse_total_counters`], needed by gates that bound a
/// *single* stage (e.g. the comb-stage `gate_evals` reduction check).
///
/// # Examples
///
/// ```
/// use fscan_bench::baseline::parse_stage_counters;
///
/// let json = r#"{
///   "circuits": [
///     {
///       "name": "s5378",
///       "stages": [
///         {
///           "stage": "comb",
///           "counters": {
///             "gate_evals": 11
///           }
///         }
///       ],
///       "total_counters": {
///         "gate_evals": 42
///       }
///     }
///   ]
/// }"#;
/// let parsed = parse_stage_counters(json).unwrap();
/// assert_eq!(parsed[0].0, "s5378");
/// assert_eq!(parsed[0].1[0].0, "comb");
/// assert_eq!(parsed[0].1[0].1, vec![("gate_evals".to_string(), 11)]);
/// ```
pub fn parse_stage_counters(json: &str) -> Result<StageCounters, String> {
    let mut out: StageCounters = Vec::new();
    for (name, circuit) in circuits_of(json)? {
        let mut stages = Vec::new();
        for stage in circuit
            .get("stages")
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            let label = stage
                .get("stage")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("circuit {name} has a stage without a label"))?;
            let counters = stage
                .get("counters")
                .ok_or_else(|| format!("stage {label} of {name} has no counters"))?;
            stages.push((label.to_string(), counter_pairs(counters)?));
        }
        out.push((name, stages));
    }
    if out.is_empty() || out.iter().all(|(_, stages)| stages.is_empty()) {
        return Err("no circuits with per-stage counters found".into());
    }
    Ok(out)
}

/// Projects one stage's counter out of parsed [`StageCounters`]:
/// `(circuit name, value)` for every circuit that reports `key` under
/// `stage`.
pub fn stage_counter_totals(
    circuits: &StageCounters,
    stage: &str,
    key: &str,
) -> Vec<(String, u64)> {
    circuits
        .iter()
        .filter_map(|(name, stages)| {
            stages
                .iter()
                .find(|(s, _)| s == stage)
                .and_then(|(_, counters)| counters.iter().find(|(k, _)| k == key))
                .map(|(_, v)| (name.clone(), *v))
        })
        .collect()
}

/// Projects one counter out of parsed [`CircuitCounters`]: `(circuit
/// name, value)` for every circuit whose `total_counters` block carries
/// `key`.
pub fn counter_totals(circuits: &CircuitCounters, key: &str) -> Vec<(String, u64)> {
    circuits
        .iter()
        .filter_map(|(name, counters)| {
            counters
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| (name.clone(), *v))
        })
        .collect()
}

/// Extracts `(circuit name, total gate_evals)` pairs from a
/// [`bench_json`](crate::bench_json)-formatted snapshot.
///
/// # Examples
///
/// ```
/// use fscan_bench::baseline::parse_gate_evals;
///
/// let json = r#"{
///   "circuits": [
///     {
///       "name": "s5378",
///       "total_counters": {
///         "gate_evals": 42
///       }
///     }
///   ]
/// }"#;
/// assert_eq!(parse_gate_evals(json).unwrap(), vec![("s5378".to_string(), 42)]);
/// ```
pub fn parse_gate_evals(json: &str) -> Result<Vec<(String, u64)>, String> {
    let totals = counter_totals(&parse_total_counters(json)?, "gate_evals");
    if totals.is_empty() {
        return Err("no circuits with a total gate_evals counter found".into());
    }
    Ok(totals)
}

/// Compares a fresh snapshot against a baseline: every circuit present
/// in both must keep its total `gate_evals` within
/// `baseline × (1 + tolerance_pct / 100)`.
///
/// Returns one human-readable line per regressing circuit (empty =
/// pass). Circuits present only on one side are ignored, so a baseline
/// covering one circuit still guards partial runs.
pub fn check_regression(
    baseline: &[(String, u64)],
    current: &[(String, u64)],
    tolerance_pct: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, base) in baseline {
        let Some((_, cur)) = current.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let limit = *base as f64 * (1.0 + tolerance_pct / 100.0);
        if *cur as f64 > limit {
            failures.push(format!(
                "{name}: gate_evals {cur} exceeds baseline {base} by {:+.1}% (tolerance {tolerance_pct}%)",
                100.0 * (*cur as f64 / (*base).max(1) as f64 - 1.0)
            ));
        }
    }
    failures
}

/// Requires the sum of `key` across every circuit in the fresh snapshot
/// to reach at least `min`. Used to gate on global fault dropping
/// actually happening: a comb phase whose `faults_dropped` total
/// collapses to zero has silently fallen back to one-PODEM-run-per-fault
/// even if its total work still looks healthy.
pub fn check_min_total(current: &[(String, u64)], key: &str, min: u64) -> Vec<String> {
    let total: u64 = current.iter().map(|(_, v)| *v).sum();
    if total < min {
        vec![format!(
            "total {key} {total} is below the required minimum {min}"
        )]
    } else {
        Vec::new()
    }
}

/// Requires every circuit present in both snapshots to have improved by
/// at least `factor`: `baseline ≥ factor × current` for `key`. Used to
/// hold the comb-stage `gate_evals` reduction (event-driven PODEM
/// resimulation plus global fault dropping) at ≥ 2× against the
/// committed pre-optimization baseline.
pub fn check_improvement(
    baseline: &[(String, u64)],
    current: &[(String, u64)],
    key: &str,
    factor: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, base) in baseline {
        let Some((_, cur)) = current.iter().find(|(n, _)| n == name) else {
            continue;
        };
        if (*base as f64) < factor * *cur as f64 {
            failures.push(format!(
                "{name}: {key} {cur} is only {:.2}x below reference {base} (need >= {factor}x)",
                *base as f64 / (*cur).max(1) as f64
            ));
        }
    }
    failures
}

/// Requires a structural counter to match the baseline exactly on every
/// circuit present in both snapshots. Used for `topology_builds`: each
/// pipeline run compiles its circuit once, so any change means an
/// engine regressed into private rebuilds (or stopped being counted).
pub fn check_exact(
    baseline: &[(String, u64)],
    current: &[(String, u64)],
    key: &str,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, base) in baseline {
        let Some((_, cur)) = current.iter().find(|(n, _)| n == name) else {
            continue;
        };
        if cur != base {
            failures.push(format!("{name}: {key} {cur} differs from baseline {base}"));
        }
    }
    failures
}

/// One record of `BENCH_history.jsonl`, parsed back out of the line
/// [`history_record`] emitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistoryPoint {
    /// Git revision the record was taken at.
    pub rev: String,
    /// Packed rail width of the run.
    pub lanes: u64,
    /// Per-circuit counter pairs, in record order.
    pub circuits: CircuitCounters,
}

impl HistoryPoint {
    /// Sums `key` across every circuit of the record (0 when no circuit
    /// carries it — old records simply predate newer counters).
    pub fn total(&self, key: &str) -> u64 {
        self.circuits
            .iter()
            .filter_map(|(_, counters)| counters.iter().find(|(k, _)| k == key).map(|(_, v)| *v))
            .sum()
    }
}

/// Parses a `BENCH_history.jsonl` file — one [`history_record`] line
/// per passing `check-baseline --history` run, blank lines ignored —
/// back into its points, oldest first. This is the read side of the
/// trajectory: `reproduce history` renders the result as a table.
///
/// # Examples
///
/// ```
/// use fscan_bench::baseline::{history_record, parse_history};
///
/// let circuits = vec![("s9234".to_string(), vec![("gate_evals".to_string(), 7u64)])];
/// let file = format!("{}\n", history_record("abc123", 256, &circuits));
/// let points = parse_history(&file).unwrap();
/// assert_eq!(points[0].rev, "abc123");
/// assert_eq!(points[0].total("gate_evals"), 7);
/// ```
pub fn parse_history(jsonl: &str) -> Result<Vec<HistoryPoint>, String> {
    let mut out = Vec::new();
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |msg: &str| format!("history line {}: {msg}", i + 1);
        let doc = fscan::json::parse(line).map_err(|e| at(&e.to_string()))?;
        let rev = doc
            .get("rev")
            .and_then(Value::as_str)
            .ok_or_else(|| at("no rev"))?
            .to_string();
        let lanes = doc
            .get("lanes")
            .and_then(Value::as_u64)
            .ok_or_else(|| at("no lanes"))?;
        let mut circuits = Vec::new();
        for (name, counters) in doc
            .get("circuits")
            .and_then(Value::as_object)
            .ok_or_else(|| at("no circuits object"))?
        {
            circuits.push((name.clone(), counter_pairs(counters).map_err(|e| at(&e))?));
        }
        out.push(HistoryPoint {
            rev,
            lanes,
            circuits,
        });
    }
    if out.is_empty() {
        return Err("history file has no records".into());
    }
    Ok(out)
}

/// Renders one `BENCH_history.jsonl` record: a single line of JSON
/// carrying the git revision, the rail width, and every circuit's
/// `total_counters` block from a fresh snapshot.
///
/// `check-baseline --history PATH` appends one such line per passing
/// run, so the committed history file accumulates a per-PR trace of the
/// deterministic work counters — greppable, diff-friendly, and (unlike
/// wall-clock) comparable across machines.
///
/// # Examples
///
/// ```
/// use fscan_bench::baseline::history_record;
///
/// let circuits = vec![(
///     "s9234".to_string(),
///     vec![("gate_evals".to_string(), 42u64)],
/// )];
/// let line = history_record("abc123", 256, &circuits);
/// assert!(line.starts_with("{\"rev\":\"abc123\",\"lanes\":256,"));
/// assert!(line.contains("\"s9234\":{\"gate_evals\":42}"));
/// assert!(!line.contains('\n'));
/// ```
pub fn history_record(rev: &str, lanes: u64, circuits: &CircuitCounters) -> String {
    Value::object([
        ("rev", Value::Str(rev.to_string())),
        ("lanes", Value::UInt(lanes)),
        (
            "circuits",
            Value::Object(
                circuits
                    .iter()
                    .map(|(name, counters)| {
                        (
                            name.clone(),
                            Value::Object(
                                counters
                                    .iter()
                                    .map(|(key, v)| (key.clone(), Value::UInt(*v)))
                                    .collect(),
                            ),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .render_compact()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_json;
    use crate::suite::PAPER_SUITE;
    use crate::tables::run_pipeline;

    fn pairs(v: &[(&str, u64)]) -> Vec<(String, u64)> {
        v.iter().map(|(n, c)| (n.to_string(), *c)).collect()
    }

    #[test]
    fn parses_real_emitter_output() {
        let report = run_pipeline(&PAPER_SUITE[0], 0.05);
        let totals = report.total_counters();
        let json = bench_json(&[report], 0.05, 1, 256);
        let parsed = parse_gate_evals(&json).unwrap();
        assert_eq!(parsed, vec![("s1196".to_string(), totals.gate_evals)]);
        // Every emitted counter — including the new structural ones —
        // round-trips through the parser.
        let all = parse_total_counters(&json).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].1.len(), totals.fields().len());
        assert_eq!(
            counter_totals(&all, "topology_builds"),
            vec![("s1196".to_string(), 1)]
        );
        assert_eq!(
            counter_totals(&all, "scratch_reuses"),
            vec![("s1196".to_string(), totals.scratch_reuses)]
        );
    }

    #[test]
    fn flags_only_regressions_beyond_tolerance() {
        let base = pairs(&[("a", 1000), ("b", 1000), ("c", 1000)]);
        let cur = pairs(&[("a", 1049), ("b", 1051), ("d", 9999)]);
        let failures = check_regression(&base, &cur, 5.0);
        // `a` is within 5%, `b` is over, `c`/`d` are unmatched.
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("b:"), "{failures:?}");
    }

    #[test]
    fn improvements_always_pass() {
        let base = pairs(&[("a", 1000)]);
        let cur = pairs(&[("a", 200)]);
        assert!(check_regression(&base, &cur, 0.0).is_empty());
    }

    #[test]
    fn exact_check_flags_any_drift() {
        let base = pairs(&[("a", 1), ("b", 1)]);
        assert!(check_exact(&base, &pairs(&[("a", 1), ("b", 1)]), "topology_builds").is_empty());
        let failures = check_exact(&base, &pairs(&[("a", 2), ("b", 1)]), "topology_builds");
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("a:"), "{failures:?}");
        // One-sided circuits are ignored, like the tolerance check.
        assert!(check_exact(&base, &pairs(&[("z", 7)]), "topology_builds").is_empty());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_gate_evals("{}").is_err());
        assert!(parse_gate_evals("\"total_counters\": {\n\"gate_evals\": 3\n").is_err());
        assert!(parse_stage_counters("{}").is_err());
    }

    #[test]
    fn stage_counters_round_trip_through_the_emitter() {
        let report = run_pipeline(&PAPER_SUITE[0], 0.05);
        let comb_evals = report.comb.metrics.counters.gate_evals;
        let json = bench_json(&[report], 0.05, 1, 256);
        let parsed = parse_stage_counters(&json).unwrap();
        assert_eq!(parsed.len(), 1);
        let stages: Vec<&str> = parsed[0].1.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(
            stages,
            vec!["classify", "alternating", "comb", "compact", "seq"]
        );
        assert_eq!(
            stage_counter_totals(&parsed, "comb", "gate_evals"),
            vec![("s1196".to_string(), comb_evals)]
        );
        // Per-stage parsing must not leak the total_counters block in as
        // a phantom stage.
        for (_, counters) in &parsed[0].1 {
            assert_eq!(counters.len(), fscan_sim::WorkCounters::ZERO.fields().len());
        }
    }

    #[test]
    fn total_mem_round_trips_through_the_emitter() {
        let report = run_pipeline(&PAPER_SUITE[0], 0.05);
        let total_faults = report.total_faults as u64;
        let arena = report.total_mem().arena_bytes;
        let json = bench_json(&[report], 0.05, 1, 256);
        let parsed = parse_total_mem(&json).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(
            counter_totals(&parsed, "arena_bytes"),
            vec![("s1196".to_string(), arena)]
        );
        assert!(arena > 0, "pipeline must report a nonzero arena footprint");
        // The classify stage records one cone per fault.
        assert_eq!(
            counter_totals(&parsed, "cone_total"),
            vec![("s1196".to_string(), total_faults)]
        );
        // Old snapshots without mem blocks fail loudly, not silently.
        assert!(parse_total_mem("{\"circuits\": [{\"name\": \"x\"}]}").is_err());
    }

    #[test]
    fn max_factor_skips_zero_baselines() {
        let base = pairs(&[("a", 1000), ("b", 0), ("c", 1000)]);
        let cur = pairs(&[("a", 1999), ("b", 5000), ("c", 2001)]);
        let failures = check_max_factor(&base, &cur, "peak_bytes", 2.0);
        // `a` is under 2x, `b` has no baseline signal, `c` is over.
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("c:"), "{failures:?}");
    }

    #[test]
    fn min_total_gates_on_the_sum() {
        let cur = pairs(&[("a", 30), ("b", 12)]);
        assert!(check_min_total(&cur, "faults_dropped", 42).is_empty());
        let failures = check_min_total(&cur, "faults_dropped", 43);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("faults_dropped"), "{failures:?}");
    }

    #[test]
    fn history_record_round_trips_a_real_snapshot() {
        let report = run_pipeline(&PAPER_SUITE[0], 0.05);
        let json = bench_json(&[report], 0.05, 1, 256);
        let circuits = parse_total_counters(&json).unwrap();
        let line = history_record("deadbeef", 256, &circuits);
        // One line, every total counter present, parseable back out by
        // a plain substring check (the consumers are grep and jq).
        assert_eq!(line.lines().count(), 1);
        for (key, value) in &circuits[0].1 {
            assert!(
                line.contains(&format!("\"{key}\":{value}")),
                "{key} missing from {line}"
            );
        }
        assert!(line.contains("\"rev\":\"deadbeef\""));
        assert!(line.contains("\"lanes\":256"));
    }

    #[test]
    fn history_parses_back_to_its_points() {
        let older = history_record(
            "aaaa11112222",
            64,
            &pairs2(&[("s9234", &[("gate_evals", 100), ("faults_dropped", 3)])]),
        );
        let newer = history_record(
            "bbbb33334444",
            256,
            &pairs2(&[
                ("s9234", &[("gate_evals", 80), ("faults_dropped", 5)]),
                ("s5378", &[("gate_evals", 40), ("faults_dropped", 2)]),
            ]),
        );
        let file = format!("{older}\n{newer}\n\n");
        let points = parse_history(&file).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].rev, "aaaa11112222");
        assert_eq!(points[0].lanes, 64);
        assert_eq!(points[0].total("gate_evals"), 100);
        assert_eq!(points[1].total("gate_evals"), 120);
        assert_eq!(points[1].total("faults_dropped"), 7);
        // Keys a record predates sum to zero instead of erroring.
        assert_eq!(points[0].total("lane_cycles"), 0);
        assert!(parse_history("").is_err());
        assert!(parse_history("{\"lanes\":1}").is_err());
    }

    fn pairs2(v: &[(&str, &[(&str, u64)])]) -> CircuitCounters {
        v.iter()
            .map(|(name, counters)| {
                (
                    name.to_string(),
                    counters.iter().map(|(k, c)| (k.to_string(), *c)).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn improvement_requires_the_factor_per_circuit() {
        let base = pairs(&[("a", 1000), ("b", 1000), ("c", 1000)]);
        let cur = pairs(&[("a", 500), ("b", 501), ("d", 9999)]);
        let failures = check_improvement(&base, &cur, "gate_evals", 2.0);
        // `a` hits exactly 2x, `b` falls short, `c`/`d` are unmatched.
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("b:"), "{failures:?}");
    }
}
