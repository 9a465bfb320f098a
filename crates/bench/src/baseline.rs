//! Counter gates: a committed gate file bounds the work counters of
//! fresh [`bench_json`](crate::bench_json()) snapshots.
//!
//! `reproduce check-baseline BENCH_gates.txt` is the CI guard that keeps
//! each deterministic win (event-driven work, fault dropping, the wide
//! rail, ECO reuse, the memory rails) from silently eroding. Each
//! non-blank line of a gate file is one gate; `#` starts a comment:
//!
//! ```text
//! FRESH SELECTOR[*F] OP BOUND    per circuit: F × fresh value OP BOUND
//! FRESH sum(SELECTOR) OP N       the fresh values summed over circuits
//! ```
//!
//! - `FRESH` is the snapshot under test.
//! - `SELECTOR` is `total.<counter>` (a circuit's `total_counters`),
//!   `mem.<quantity>` (its `total_mem`; `mem.cone_total` is the number
//!   of cones in its histogram) or `<stage>.<counter>` (one stage's
//!   counters, e.g. `comb.gate_evals`).
//! - `OP` is `<=`, `>=` or `==`.
//! - `BOUND` is a number `N`, or `[F*]REF`: `F` times the same
//!   circuit's value in the reference snapshot `REF`.
//!
//! For example, `bench_t1.json total.gate_evals <= 1.05*BENCH_baseline.json`
//! allows 5% more work than the committed baseline, and
//! `bench_t1.json classify.gate_evals*1.5 <= BENCH_baseline_w64.json`
//! requires the classify stage to stay 1.5× below the 64-lane
//! reference. A gate that compares nothing fails ([`Gate::check`]).
//!
//! [`history_record`] and [`parse_history`] write and read
//! `BENCH_history.jsonl`, the per-PR trace of every passing check's
//! counters.

use fscan::json::Value;

/// Per-circuit `total_counters` contents: `(circuit name, [(counter,
/// value)])` in emission order.
pub type CircuitCounters = Vec<(String, Vec<(String, u64)>)>;

/// Extracts every `(counter, value)` pair of each circuit's
/// `total_counters` block from a [`bench_json`](crate::bench_json())
/// snapshot: the content of one [`history_record`].
///
/// Only the `total_counters` block is consulted; the per-stage counters
/// (which contain the same keys) are skipped. Snapshots are parsed with
/// the canonical [`fscan::json`] parser, which preserves key order, so
/// the extracted pairs keep emission order.
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
    let doc = fscan::json::parse(json).map_err(|e| e.to_string())?;
    let mut out: CircuitCounters = Vec::new();
    for circuit in doc
        .get("circuits")
        .and_then(Value::as_array)
        .unwrap_or_default()
    {
        let name = circuit
            .get("name")
            .and_then(Value::as_str)
            .ok_or("circuit without a name")?;
        let totals = circuit
            .get("total_counters")
            .ok_or_else(|| format!("circuit {name} has no total_counters"))?;
        out.push((name.to_string(), counter_pairs(totals)?));
    }
    if out.is_empty() {
        return Err("no circuits with total_counters found".into());
    }
    Ok(out)
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

/// Blocks a selector reads: a circuit's `total_counters`, its
/// `total_mem`, or the counters of one pipeline stage.
const BLOCKS: [&str; 7] = [
    "total",
    "mem",
    "classify",
    "alternating",
    "comb",
    "compact",
    "seq",
];

/// One line of a gate file: a bound on one counter of a fresh snapshot.
/// See the [module documentation](self) for the grammar.
#[derive(Debug)]
pub struct Gate {
    /// 1-based line number in the gate file.
    line: usize,
    /// The gate as written, comment stripped.
    text: String,
    /// The snapshot under test.
    pub fresh: String,
    block: String,
    key: String,
    /// `sum(...)`: one comparison of the total over the fresh
    /// snapshot's circuits.
    sum: bool,
    /// Multiplies each fresh value before the comparison.
    factor: f64,
    /// `<=`, `>=` or `==`.
    op: &'static str,
    bound: Bound,
}

#[derive(Debug)]
enum Bound {
    /// A constant.
    Number(f64),
    /// A factor times the same circuit's value in a reference snapshot.
    Snapshot(f64, String),
}

/// Parses a gate file, one [`Gate`] per non-blank line (`#` starts a
/// comment). Every error names its line; a file without gates is an
/// error too, since it would pass without comparing anything.
///
/// # Examples
///
/// ```
/// use fscan_bench::baseline::parse_gates;
///
/// let gates = parse_gates(
///     "# s9234\nbench_t1.json total.gate_evals <= 1.05*BENCH_baseline.json\n",
/// )
/// .unwrap();
/// assert_eq!(gates[0].fresh, "bench_t1.json");
/// let err = parse_gates("bench_t1.json totals.gate_evals <= 1").unwrap_err();
/// assert!(err.starts_with("line 1 "), "{err}");
/// ```
pub fn parse_gates(text: &str) -> Result<Vec<Gate>, String> {
    let mut gates = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or_default().trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: &str| format!("line {} `{line}`: {msg}", i + 1);
        let &[fresh, lhs, op, rhs] = line.split_whitespace().collect::<Vec<_>>().as_slice() else {
            return Err(at("expected FRESH SELECTOR OP BOUND"));
        };
        let (selector, factor) = match lhs.split_once('*') {
            Some((selector, factor)) => (
                selector,
                number(factor).ok_or_else(|| at("non-numeric factor"))?,
            ),
            None => (lhs, 1.0),
        };
        let (sum, selector) = match selector
            .strip_prefix("sum(")
            .and_then(|s| s.strip_suffix(')'))
        {
            Some(inner) => (true, inner),
            None => (false, selector),
        };
        let (block, key) = selector
            .split_once('.')
            .filter(|(_, key)| !key.is_empty())
            .ok_or_else(|| at("selector is not BLOCK.COUNTER"))?;
        if !BLOCKS.contains(&block) {
            return Err(at(&format!(
                "unknown block `{block}` (expected one of {})",
                BLOCKS.join(", ")
            )));
        }
        let op = ["<=", ">=", "=="]
            .into_iter()
            .find(|o| *o == op)
            .ok_or_else(|| at(&format!("unknown operator `{op}` (expected <=, >= or ==)")))?;
        let bound = match number(rhs) {
            Some(n) => Bound::Number(n),
            None if sum => return Err(at("sum(...) takes a numeric bound")),
            None => {
                let (factor, path) = match rhs.split_once('*') {
                    Some((factor, path)) => (
                        number(factor).ok_or_else(|| at("non-numeric factor"))?,
                        path,
                    ),
                    None => (1.0, rhs),
                };
                if path.is_empty() {
                    return Err(at("bound names no snapshot"));
                }
                Bound::Snapshot(factor, path.to_string())
            }
        };
        gates.push(Gate {
            line: i + 1,
            text: line.to_string(),
            fresh: fresh.to_string(),
            block: block.to_string(),
            key: key.to_string(),
            sum,
            factor,
            op,
            bound,
        });
    }
    if gates.is_empty() {
        return Err("no gates".into());
    }
    Ok(gates)
}

/// A finite, non-negative number.
fn number(text: &str) -> Option<f64> {
    text.parse()
        .ok()
        .filter(|v: &f64| v.is_finite() && *v >= 0.0)
}

impl Gate {
    /// Evaluates the gate, reading each snapshot it names through
    /// `load`. `Ok` lists every comparison, `Err` the failing ones (or
    /// why nothing could be compared); both start with the gate's line.
    ///
    /// A per-circuit gate compares each fresh circuit against the same
    /// circuit of the reference snapshot. It fails unless at least one
    /// circuit is on both sides and carries the selected value, and a
    /// `sum(...)` gate fails unless some fresh circuit carries it: a
    /// gate that compares nothing proves nothing.
    ///
    /// # Examples
    ///
    /// ```
    /// use fscan_bench::baseline::parse_gates;
    ///
    /// let snapshot = |evals: u64| {
    ///     fscan::json::parse(&format!(
    ///         r#"{{"circuits": [{{"name": "s9234", "total_counters": {{"gate_evals": {evals}}}}}]}}"#
    ///     ))
    ///     .map_err(|e| e.to_string())
    /// };
    /// let gate = &parse_gates("fresh.json total.gate_evals <= 1.05*base.json").unwrap()[0];
    /// let load = |fresh: u64| move |path: &str| snapshot(if path == "base.json" { 1000 } else { fresh });
    /// assert!(gate.check(load(1050)).is_ok());
    /// assert_eq!(
    ///     gate.check(load(1051)).unwrap_err(),
    ///     "line 1 `fresh.json total.gate_evals <= 1.05*base.json`: s9234 1051 is not <= 1050"
    /// );
    /// ```
    pub fn check(&self, load: impl Fn(&str) -> Result<Value, String>) -> Result<String, String> {
        let at = |msg: &str| format!("line {} `{}`: {msg}", self.line, self.text);
        let mut fresh = select(
            &load(&self.fresh).map_err(|e| at(&e))?,
            &self.block,
            &self.key,
        );
        if self.sum && !fresh.is_empty() {
            fresh = vec![("sum".to_string(), fresh.iter().map(|(_, v)| v).sum())];
        }
        let reference = match &self.bound {
            Bound::Snapshot(_, path) => {
                select(&load(path).map_err(|e| at(&e))?, &self.block, &self.key)
            }
            Bound::Number(_) => Vec::new(),
        };
        let rows: Vec<(&str, f64, f64)> = fresh
            .iter()
            .filter_map(|(circuit, value)| {
                let bound = match &self.bound {
                    Bound::Number(n) => *n,
                    Bound::Snapshot(factor, _) => {
                        reference.iter().find(|(c, _)| c == circuit)?.1 as f64 * factor
                    }
                };
                Some((circuit.as_str(), *value as f64 * self.factor, bound))
            })
            .collect();
        if rows.is_empty() {
            return Err(at(&format!(
                "compares nothing: no circuit carries {}.{} on both sides",
                self.block, self.key
            )));
        }
        let holds = |lhs: f64, rhs: f64| match self.op {
            "<=" => lhs <= rhs,
            ">=" => lhs >= rhs,
            _ => lhs == rhs,
        };
        let num = |v: f64| {
            if v.fract() == 0.0 {
                format!("{v}")
            } else {
                format!("{v:.2}")
            }
        };
        let (failing, passing): (Vec<_>, Vec<_>) =
            rows.iter().partition(|(_, lhs, rhs)| !holds(*lhs, *rhs));
        let show = |rows: Vec<&(&str, f64, f64)>, verb: &str| {
            let rows: Vec<String> = rows
                .iter()
                .map(|(c, lhs, rhs)| format!("{c} {} {verb}{} {}", num(*lhs), self.op, num(*rhs)))
                .collect();
            at(&rows.join(", "))
        };
        if failing.is_empty() {
            Ok(show(passing, ""))
        } else {
            Err(show(failing, "is not "))
        }
    }
}

/// `(circuit, value)` for every circuit of a snapshot that carries the
/// selected value. `mem.cone_total` sums the circuit's cone histogram.
fn select(snapshot: &Value, block: &str, key: &str) -> Vec<(String, u64)> {
    let circuits = snapshot
        .get("circuits")
        .and_then(Value::as_array)
        .unwrap_or_default();
    circuits
        .iter()
        .filter_map(|c| {
            let value = match block {
                "total" => c.get("total_counters")?.get(key)?.as_u64(),
                "mem" if key == "cone_total" => {
                    let hist = c.get("total_mem")?.get("cone_hist")?.as_array()?;
                    hist.iter().map(Value::as_u64).sum()
                }
                "mem" => c.get("total_mem")?.get(key)?.as_u64(),
                stage => c
                    .get("stages")?
                    .as_array()?
                    .iter()
                    .find(|s| s.get("stage").and_then(Value::as_str) == Some(stage))?
                    .get("counters")?
                    .get(key)?
                    .as_u64(),
            }?;
            Some((c.get("name")?.as_str()?.to_string(), value))
        })
        .collect()
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

    /// A snapshot whose circuits carry one value in one block
    /// (`total_counters` or `total_mem`).
    fn snapshot(block: &str, key: &str, circuits: &[(&str, u64)]) -> Value {
        let circuits = circuits
            .iter()
            .map(|(name, v)| {
                Value::Object(vec![
                    ("name".into(), Value::Str(name.to_string())),
                    (
                        block.into(),
                        Value::Object(vec![(key.to_string(), Value::UInt(*v))]),
                    ),
                ])
            })
            .collect();
        Value::object([("circuits", Value::Array(circuits))])
    }

    /// Evaluates a one-gate file against named in-memory snapshots.
    fn check(line: &str, files: &[(&str, &Value)]) -> Result<String, String> {
        parse_gates(line).unwrap()[0].check(|path| {
            files
                .iter()
                .find(|(name, _)| *name == path)
                .map(|(_, doc)| (*doc).clone())
                .ok_or_else(|| format!("cannot read {path}"))
        })
    }

    fn totals(key: &str, circuits: &[(&str, u64)]) -> Value {
        snapshot("total_counters", key, circuits)
    }

    #[test]
    fn selectors_read_the_real_emitter_output() {
        let report = run_pipeline(&PAPER_SUITE[0], 0.05);
        let totals = report.total_counters();
        let comb = report.comb.metrics.counters.gate_evals;
        let arena = report.total_mem().arena_bytes;
        let faults = report.total_faults;
        let doc = fscan::json::parse(&bench_json(&[report], 0.05, 1, 256)).unwrap();
        for line in [
            format!("run.json total.gate_evals == {}", totals.gate_evals),
            format!("run.json total.scratch_reuses == {}", totals.scratch_reuses),
            "run.json total.topology_builds == 1".to_string(),
            format!("run.json comb.gate_evals == {comb}"),
            format!("run.json mem.arena_bytes == {arena}"),
            // The classify stage records one cone per fault.
            format!("run.json mem.cone_total == {faults}"),
        ] {
            let ok = check(&line, &[("run.json", &doc)]);
            assert!(ok.as_deref().is_ok_and(|m| m.contains("s1196")), "{ok:?}");
        }
        assert!(arena > 0, "pipeline must report a nonzero arena footprint");
        // Every emitted total counter round-trips into a history record.
        let all = parse_total_counters(&doc.render_pretty()).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].1.len(), totals.fields().len());
    }

    #[test]
    fn flags_only_regressions_beyond_tolerance() {
        let base = totals("gate_evals", &[("a", 1000), ("b", 1000), ("c", 1000)]);
        let cur = totals("gate_evals", &[("a", 1049), ("b", 1051), ("d", 9999)]);
        let gate = "cur.json total.gate_evals <= 1.05*base.json";
        let failure = check(gate, &[("base.json", &base), ("cur.json", &cur)]).unwrap_err();
        // `a` is within 5%, `b` is over, `c`/`d` are unmatched.
        assert!(failure.ends_with(": b 1051 is not <= 1050"), "{failure}");
    }

    #[test]
    fn improvements_always_pass() {
        let base = totals("gate_evals", &[("a", 1000)]);
        let cur = totals("gate_evals", &[("a", 200)]);
        let gate = "cur.json total.gate_evals <= base.json";
        assert!(check(gate, &[("base.json", &base), ("cur.json", &cur)]).is_ok());
    }

    #[test]
    fn exact_check_flags_any_drift() {
        let gate = "cur.json total.topology_builds == base.json";
        let base = totals("topology_builds", &[("a", 1), ("b", 1)]);
        let files = |cur: &Value| check(gate, &[("base.json", &base), ("cur.json", cur)]);
        assert!(files(&totals("topology_builds", &[("a", 1), ("b", 1)])).is_ok());
        let failure = files(&totals("topology_builds", &[("a", 2), ("b", 1)])).unwrap_err();
        assert!(failure.ends_with(": a 2 is not == 1"), "{failure}");
        // A fresh snapshot sharing no circuit with the baseline compares
        // nothing, so it fails instead of passing vacuously.
        let failure = files(&totals("topology_builds", &[("z", 7)])).unwrap_err();
        assert!(failure.contains("compares nothing"), "{failure}");
    }

    #[test]
    fn peak_factor_bounds_every_circuit() {
        let base = snapshot(
            "total_mem",
            "peak_bytes",
            &[("a", 1000), ("b", 0), ("c", 1000)],
        );
        let cur = snapshot(
            "total_mem",
            "peak_bytes",
            &[("a", 1999), ("b", 5000), ("c", 2001)],
        );
        let gate = "cur.json mem.peak_bytes <= 2*base.json";
        let failure = check(gate, &[("base.json", &base), ("cur.json", &cur)]).unwrap_err();
        // `a` is under 2x; a zero baseline is compared like any other.
        assert!(
            failure.ends_with(": b 5000 is not <= 0, c 2001 is not <= 2000"),
            "{failure}"
        );
    }

    #[test]
    fn min_total_gates_on_the_sum() {
        let cur = totals("faults_dropped", &[("a", 30), ("b", 12)]);
        assert!(check(
            "cur.json sum(total.faults_dropped) >= 42",
            &[("cur.json", &cur)]
        )
        .is_ok());
        let failure = check(
            "cur.json sum(total.faults_dropped) >= 43",
            &[("cur.json", &cur)],
        )
        .unwrap_err();
        assert!(failure.contains("faults_dropped"), "{failure}");
        assert!(failure.ends_with(": sum 42 is not >= 43"), "{failure}");
        // A counter no circuit carries sums to nothing, and fails.
        let failure = check(
            "cur.json sum(total.verdicts_reused) >= 0",
            &[("cur.json", &cur)],
        )
        .unwrap_err();
        assert!(failure.contains("compares nothing"), "{failure}");
    }

    #[test]
    fn improvement_requires_the_factor_per_circuit() {
        let base = totals("gate_evals", &[("a", 1000), ("b", 1000), ("c", 1000)]);
        let cur = totals("gate_evals", &[("a", 500), ("b", 501), ("d", 9999)]);
        let gate = "cur.json total.gate_evals*2 <= base.json";
        let failure = check(gate, &[("base.json", &base), ("cur.json", &cur)]).unwrap_err();
        // `a` hits exactly 2x, `b` falls short, `c`/`d` are unmatched.
        assert!(failure.ends_with(": b 1002 is not <= 1000"), "{failure}");
    }

    #[test]
    fn a_gate_that_compares_nothing_fails() {
        // The s9234 baseline's gates pointed at the stress snapshot: no
        // circuit is on both sides, so every gate fails and names its
        // line.
        let repo = |name: &str| {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(name);
            let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            fscan::json::parse(&text).map_err(|e| e.to_string())
        };
        let file = "\
            BENCH_stress_ci.json total.gate_evals <= 1.05*BENCH_baseline.json\n\
            BENCH_stress_ci.json total.topology_builds == BENCH_baseline.json\n\
            BENCH_stress_ci.json mem.arena_bytes == BENCH_baseline.json\n\
            BENCH_stress_ci.json mem.cone_total == BENCH_baseline.json\n\
            BENCH_stress_ci.json mem.peak_bytes <= 2*BENCH_baseline.json\n\
            BENCH_stress_ci.json comb.gate_evals*2 <= BENCH_baseline_pre_atpg.json\n\
            BENCH_stress_ci.json classify.gate_evals*1.5 <= BENCH_baseline_w64.json\n\
            BENCH_stress_ci.json classify.implication_words*2 <= BENCH_baseline_w64.json\n";
        let gates = parse_gates(file).unwrap();
        assert_eq!(gates.len(), 8);
        for (i, gate) in gates.iter().enumerate() {
            let failure = gate.check(repo).unwrap_err();
            assert!(
                failure.starts_with(&format!("line {} ", i + 1))
                    && failure.contains("compares nothing"),
                "{failure}"
            );
        }
    }

    #[test]
    fn rejects_malformed_gate_lines() {
        let good = "cur.json total.gate_evals <= 1.05*base.json";
        for (bad, why) in [
            (
                "cur.json totals.gate_evals <= base.json",
                "unknown block `totals`",
            ),
            (
                "cur.json total.gate_evals =< base.json",
                "unknown operator `=<`",
            ),
            (
                "cur.json total.gate_evals < base.json",
                "unknown operator `<`",
            ),
            (
                "cur.json total.gate_evals <= x*base.json",
                "non-numeric factor",
            ),
            (
                "cur.json total.gate_evals*fast <= base.json",
                "non-numeric factor",
            ),
            (
                "cur.json total.gate_evals <= 1.05*",
                "bound names no snapshot",
            ),
            (
                "cur.json total.gate_evals <=",
                "expected FRESH SELECTOR OP BOUND",
            ),
            (
                "cur.json gate_evals <= base.json",
                "selector is not BLOCK.COUNTER",
            ),
            (
                "cur.json sum(total.gate_evals) >= base.json",
                "numeric bound",
            ),
        ] {
            let err = parse_gates(&format!("# header\n{good}\n{bad}\n")).unwrap_err();
            assert!(
                err.starts_with("line 3 ") && err.contains(why),
                "{bad}: {err}"
            );
        }
        assert!(parse_gates("# only comments\n\n").is_err());
        // A snapshot the gate names but nobody wrote fails the gate.
        let cur = totals("gate_evals", &[("a", 1)]);
        let err = check(good, &[("cur.json", &cur)]).unwrap_err();
        assert!(
            err.starts_with("line 1 ") && err.contains("cannot read base.json"),
            "{err}"
        );
        assert!(parse_total_counters("{}").is_err());
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
}
