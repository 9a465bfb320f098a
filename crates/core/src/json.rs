//! The canonical JSON surface of the crate: one dependency-free value
//! model, parser and pair of printers, plus round-trip codecs for every
//! type that crosses a process boundary — [`PipelineConfig`],
//! [`PipelineReport`], [`StageMetrics`], [`WorkCounters`] and the
//! [`TestProgram`] payload inside a report.
//!
//! Before this module existed, JSON was hand-rolled at every emitter
//! (the bench snapshot writer, the history-record writer, the
//! line-oriented baseline scrapers). Those call sites now build or walk
//! a [`Value`] tree instead, so there is exactly one escaping routine,
//! one number format and one parser to audit — and the serving layer
//! (`fscan-serve`) decodes request configs and encodes reports with the
//! same code the CLI uses, guaranteeing the two surfaces never drift.
//!
//! Format contracts the printers uphold (committed snapshots depend on
//! them):
//!
//! * [`Value::render_pretty`] — two-space indentation, one key per
//!   line, floats always printed with six decimals and no exponent.
//!   Byte-identical to the historical `bench_json` emitter, so
//!   committed `BENCH_baseline*.json` files re-render to themselves.
//! * [`Value::render_compact`] — no whitespace at all, the
//!   `BENCH_history.jsonl` one-record-per-line format.
//! * Every wall-clock figure sits under a key containing `wall_s`, on
//!   its own line in pretty mode, so `grep -v wall_s` yields
//!   thread-count-invariant output (the CI determinism diff).

use std::fmt;
use std::time::Duration;

use fscan_atpg::{PodemConfig, SeqAtpgConfig};
use fscan_fault::{Fault, FaultSite};
use fscan_netlist::NodeId;
use fscan_sim::{
    ConeHist, LaneWidth, MemMetrics, ShardStats, StageMetrics, WorkCounters, CONE_HIST_BUCKETS, V3,
};

use crate::alternating::AlternatingReport;
use crate::classify::ClassifySummary;
use crate::comb_phase::CombPhaseReport;
use crate::compact::CompactionReport;
use crate::pipeline::{PipelineConfig, PipelineReport};
use crate::program::{ScanTest, TestProgram};
use crate::seq_phase::{DistParams, SeqPhaseReport};

/// A parsed or under-construction JSON document.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a map): the
/// emitters' field order is part of the committed-snapshot format, and
/// the round-trip guarantee (`parse` → [`render_pretty`](Self::render_pretty)
/// reproduces the input byte for byte) depends on it.
///
/// # Examples
///
/// ```
/// use fscan::json::{parse, Value};
///
/// let v = parse("{\"a\": [1, true, \"x\"]}")?;
/// assert_eq!(v.get("a").and_then(|a| a.index(0)).and_then(Value::as_u64), Some(1));
/// assert_eq!(v.render_compact(), "{\"a\":[1,true,\"x\"]}");
/// # Ok::<(), fscan::json::JsonError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (counters, counts, ids).
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A float, printed with exactly six decimals.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with preserved key order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from key/value pairs.
    pub fn object(fields: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The value under `key`, when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Element `i`, when `self` is an array.
    pub fn index(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(i),
            _ => None,
        }
    }

    /// The string payload, when `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, when it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::UInt(v) => Some(*v as f64),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The boolean payload, when `self` is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, when `self` is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, when `self` is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders with two-space indentation, one key per line, and a
    /// trailing newline — the committed-snapshot format.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders without any whitespace — the `.jsonl` record format.
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_scalar(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(v) => out.push_str(&itoa_u64(*v)),
            Value::Int(v) => out.push_str(&v.to_string()),
            Value::Float(v) => out.push_str(&float(*v)),
            Value::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Value::Array(_) | Value::Object(_) => unreachable!("containers handled by callers"),
        }
    }

    fn write_pretty(&self, out: &mut String, level: usize) {
        match self {
            Value::Array(items) if items.is_empty() => out.push_str("[]"),
            Value::Object(fields) if fields.is_empty() => out.push_str("{}"),
            Value::Array(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, level + 1);
                    item.write_pretty(out, level + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                push_indent(out, level);
                out.push(']');
            }
            Value::Object(fields) => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    push_indent(out, level + 1);
                    out.push('"');
                    out.push_str(&escape(key));
                    out.push_str("\": ");
                    value.write_pretty(out, level + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                push_indent(out, level);
                out.push('}');
            }
            scalar => scalar.write_scalar(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(key));
                    out.push_str("\":");
                    value.write_compact(out);
                }
                out.push('}');
            }
            scalar => scalar.write_scalar(out),
        }
    }
}

fn itoa_u64(v: u64) -> String {
    v.to_string()
}

fn push_indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// JSON number formatting for floats: always six decimals, never
/// exponent notation — so wall-clock figures re-render byte-identically
/// after a parse round trip.
fn float(v: f64) -> String {
    let s = format!("{v:.6}");
    debug_assert!(s.parse::<f64>().is_ok());
    s
}

/// Minimal JSON string escaping: quotes, backslashes and control
/// characters (the emitters' historical behavior).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A malformed document ([`parse`]) or a well-formed document with the
/// wrong shape (the `*_from_value` codecs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    message: String,
}

impl JsonError {
    /// Builds an error from any displayable reason.
    pub fn new(message: impl Into<String>) -> JsonError {
        JsonError {
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (trailing whitespace allowed, trailing
/// content rejected).
///
/// Fully standard grammar: all escape sequences including `\uXXXX`
/// surrogate pairs, signed/fractional/exponent numbers, nesting bounded
/// at 128 levels (the inputs are machine-generated; the bound only
/// guards the server against stack-abuse bodies).
///
/// # Errors
///
/// Returns a [`JsonError`] naming the byte offset of the first
/// violation.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(value)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl fmt::Display) -> JsonError {
        JsonError::new(format!("{message} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than 128 levels"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            // hex4 leaves pos after the digits; undo the
                            // +1 below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Copy the whole run of plain bytes up to the next
                    // '"', '\\' or control byte at once. Those delimiters
                    // are ASCII, so they never sit inside a multi-byte
                    // sequence: the run starts and ends on char
                    // boundaries of the `&str` input and needs no
                    // re-validation — one pass over the string, however
                    // long.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    let s = self
                        .text
                        .get(start..self.pos)
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut fractional = false;
        if self.peek() == Some(b'.') {
            fractional = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            fractional = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number characters");
        if fractional {
            let v: f64 = text.parse().map_err(|_| self.err("malformed number"))?;
            if !v.is_finite() {
                return Err(self.err("non-finite number"));
            }
            Ok(Value::Float(v))
        } else if let Some(rest) = text.strip_prefix('-') {
            let v: i64 = rest
                .parse::<i64>()
                .map(|v| -v)
                .map_err(|_| self.err("integer out of range"))?;
            Ok(Value::Int(v))
        } else {
            let v: u64 = text.parse().map_err(|_| self.err("integer out of range"))?;
            Ok(Value::UInt(v))
        }
    }
}

// ---------------------------------------------------------------------
// Decoding helpers.
// ---------------------------------------------------------------------

/// A strict object reader: every key must be consumed exactly once, and
/// [`finish`](Self::finish) rejects unknown keys — the typo guard the
/// serving layer relies on to turn `"theads": 4` into a 4xx instead of
/// a silently ignored setting.
struct ObjReader<'a> {
    what: &'static str,
    fields: &'a [(String, Value)],
    seen: Vec<bool>,
}

impl<'a> ObjReader<'a> {
    fn new(value: &'a Value, what: &'static str) -> Result<ObjReader<'a>, JsonError> {
        let fields = value
            .as_object()
            .ok_or_else(|| JsonError::new(format!("{what}: expected an object")))?;
        Ok(ObjReader {
            what,
            fields,
            seen: vec![false; fields.len()],
        })
    }

    fn take(&mut self, key: &str) -> Option<&'a Value> {
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if k == key && !self.seen[i] {
                self.seen[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn required(&mut self, key: &str) -> Result<&'a Value, JsonError> {
        let what = self.what;
        self.take(key)
            .ok_or_else(|| JsonError::new(format!("{what}: missing key \"{key}\"")))
    }

    fn u64(&mut self, key: &str) -> Result<u64, JsonError> {
        let what = self.what;
        self.required(key)?.as_u64().ok_or_else(|| {
            JsonError::new(format!("{what}: \"{key}\" must be a non-negative integer"))
        })
    }

    fn usize(&mut self, key: &str) -> Result<usize, JsonError> {
        let what = self.what;
        usize::try_from(self.u64(key)?)
            .map_err(|_| JsonError::new(format!("{what}: \"{key}\" out of range")))
    }

    fn f64(&mut self, key: &str) -> Result<f64, JsonError> {
        let what = self.what;
        self.required(key)?
            .as_f64()
            .ok_or_else(|| JsonError::new(format!("{what}: \"{key}\" must be a number")))
    }

    fn str(&mut self, key: &str) -> Result<&'a str, JsonError> {
        let what = self.what;
        self.required(key)?
            .as_str()
            .ok_or_else(|| JsonError::new(format!("{what}: \"{key}\" must be a string")))
    }

    fn finish(self) -> Result<(), JsonError> {
        for (i, (k, _)) in self.fields.iter().enumerate() {
            if !self.seen[i] {
                return Err(JsonError::new(format!(
                    "{}: unknown key \"{k}\"",
                    self.what
                )));
            }
        }
        Ok(())
    }
}

fn node_from(v: u64, what: &'static str) -> Result<NodeId, JsonError> {
    usize::try_from(v)
        .map(NodeId::from_index)
        .map_err(|_| JsonError::new(format!("{what}: node id out of range")))
}

// ---------------------------------------------------------------------
// WorkCounters / ShardStats / StageMetrics.
// ---------------------------------------------------------------------

/// Encodes [`WorkCounters`] as an object in [`WorkCounters::fields`]
/// order — the exact block committed baselines carry.
pub fn counters_to_value(counters: &WorkCounters) -> Value {
    Value::Object(
        counters
            .fields()
            .iter()
            .map(|&(name, value)| (name.to_string(), Value::UInt(value)))
            .collect(),
    )
}

/// Decodes a counters object. Keys may be any subset of the known
/// counters (snapshots from before a counter existed still parse);
/// unknown keys are rejected.
pub fn counters_from_value(value: &Value) -> Result<WorkCounters, JsonError> {
    let fields = value
        .as_object()
        .ok_or_else(|| JsonError::new("counters: expected an object"))?;
    let mut out = WorkCounters::ZERO;
    for (key, v) in fields {
        let v = v
            .as_u64()
            .ok_or_else(|| JsonError::new(format!("counters: \"{key}\" must be an integer")))?;
        match key.as_str() {
            "gate_evals" => out.gate_evals = v,
            "lane_cycles" => out.lane_cycles = v,
            "implication_events" => out.implication_events = v,
            "cone_nets" => out.cone_nets = v,
            "podem_decisions" => out.podem_decisions = v,
            "podem_backtracks" => out.podem_backtracks = v,
            "podem_aborts" => out.podem_aborts = v,
            "sat_screens" => out.sat_screens = v,
            "sat_conflicts" => out.sat_conflicts = v,
            "x_screens" => out.x_screens = v,
            "windows_formed" => out.windows_formed = v,
            "early_exits" => out.early_exits = v,
            "topology_builds" => out.topology_builds = v,
            "scratch_reuses" => out.scratch_reuses = v,
            "implication_words" => out.implication_words = v,
            "kernel_gate_evals" => out.kernel_gate_evals = v,
            "faults_dropped" => out.faults_dropped = v,
            "vectors_compacted" => out.vectors_compacted = v,
            "podem_shards" => out.podem_shards = v,
            "cones_invalidated" => out.cones_invalidated = v,
            "verdicts_reused" => out.verdicts_reused = v,
            "trace_cycles_reused" => out.trace_cycles_reused = v,
            other => return Err(JsonError::new(format!("counters: unknown key \"{other}\""))),
        }
    }
    Ok(out)
}

/// Encodes [`ShardStats`] (worker count plus per-worker item counts).
pub fn shards_to_value(shards: &ShardStats) -> Value {
    Value::object([
        ("threads", Value::UInt(shards.threads as u64)),
        (
            "per_worker",
            Value::Array(
                shards
                    .per_worker
                    .iter()
                    .map(|&n| Value::UInt(n as u64))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes [`ShardStats`].
pub fn shards_from_value(value: &Value) -> Result<ShardStats, JsonError> {
    let mut r = ObjReader::new(value, "shards")?;
    let threads = r.usize("threads")?;
    let per_worker = r
        .required("per_worker")?
        .as_array()
        .ok_or_else(|| JsonError::new("shards: \"per_worker\" must be an array"))?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| JsonError::new("shards: per_worker entries must be integers"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    r.finish()?;
    Ok(ShardStats {
        threads,
        per_worker,
    })
}

/// Encodes [`MemMetrics`] as an object in [`MemMetrics::scalar_fields`]
/// order, plus the cone histogram as a 16-element bucket array. The
/// nondeterministic keys (`peak_bytes`, `reallocs`) each sit on their
/// own line in pretty mode, so determinism diffs can strip them exactly
/// like `wall_s`.
pub fn mem_to_value(mem: &MemMetrics) -> Value {
    let mut fields: Vec<(String, Value)> = mem
        .scalar_fields()
        .iter()
        .map(|&(name, value)| (name.to_string(), Value::UInt(value)))
        .collect();
    fields.push((
        "cone_hist".to_string(),
        Value::Array(
            mem.cone_hist
                .buckets()
                .iter()
                .map(|&b| Value::UInt(b))
                .collect(),
        ),
    ));
    Value::Object(fields)
}

/// Decodes a [`MemMetrics`] object. Every key is optional (snapshots
/// from before a quantity existed still parse); unknown keys are
/// rejected.
pub fn mem_from_value(value: &Value) -> Result<MemMetrics, JsonError> {
    let mut r = ObjReader::new(value, "mem")?;
    let mut mem = MemMetrics::ZERO;
    let scalar = |v: Option<&Value>, key: &str| -> Result<u64, JsonError> {
        match v {
            None => Ok(0),
            Some(v) => v.as_u64().ok_or_else(|| {
                JsonError::new(format!("mem: \"{key}\" must be a non-negative integer"))
            }),
        }
    };
    mem.peak_bytes = scalar(r.take("peak_bytes"), "peak_bytes")?;
    mem.reallocs = scalar(r.take("reallocs"), "reallocs")?;
    mem.arena_bytes = scalar(r.take("arena_bytes"), "arena_bytes")?;
    if let Some(hist) = r.take("cone_hist") {
        let entries = hist
            .as_array()
            .ok_or_else(|| JsonError::new("mem: \"cone_hist\" must be an array"))?;
        if entries.len() != CONE_HIST_BUCKETS {
            return Err(JsonError::new(format!(
                "mem: \"cone_hist\" must have exactly {CONE_HIST_BUCKETS} buckets"
            )));
        }
        let mut buckets = [0u64; CONE_HIST_BUCKETS];
        for (slot, v) in buckets.iter_mut().zip(entries) {
            *slot = v
                .as_u64()
                .ok_or_else(|| JsonError::new("mem: cone_hist entries must be integers"))?;
        }
        mem.cone_hist = ConeHist::from_buckets(buckets);
    }
    r.finish()?;
    Ok(mem)
}

/// Encodes a [`StageMetrics`] record. The wall clock sits under
/// `wall_s` (so determinism diffs can strip it); shards, counters and
/// the memory accounting keep full fidelity.
pub fn metrics_to_value(metrics: &StageMetrics) -> Value {
    Value::object([
        ("wall_s", Value::Float(metrics.cpu.as_secs_f64())),
        ("shards", shards_to_value(&metrics.shards)),
        ("counters", counters_to_value(&metrics.counters)),
        ("mem", mem_to_value(&metrics.mem)),
    ])
}

/// Decodes a [`StageMetrics`] record. The `mem` block is optional:
/// snapshots committed before memory accounting existed decode to
/// [`MemMetrics::ZERO`].
pub fn metrics_from_value(value: &Value) -> Result<StageMetrics, JsonError> {
    let mut r = ObjReader::new(value, "metrics")?;
    let wall = r.f64("wall_s")?;
    if !(wall.is_finite() && wall >= 0.0) {
        return Err(JsonError::new("metrics: \"wall_s\" must be non-negative"));
    }
    let shards = shards_from_value(r.required("shards")?)?;
    let counters = counters_from_value(r.required("counters")?)?;
    let mem = match r.take("mem") {
        Some(v) => mem_from_value(v)?,
        None => MemMetrics::ZERO,
    };
    r.finish()?;
    let mut metrics = StageMetrics::new(Duration::from_secs_f64(wall), shards, counters);
    metrics.mem = mem;
    Ok(metrics)
}

// ---------------------------------------------------------------------
// PipelineConfig.
// ---------------------------------------------------------------------

/// Encodes a [`PipelineConfig`] with every field explicit — the
/// canonical wire form the serving layer echoes back and the decoder
/// accepts as a whole or in part.
pub fn config_to_value(config: &PipelineConfig) -> Value {
    let podem = |p: &PodemConfig| {
        Value::object([
            ("backtrack_limit", Value::UInt(p.backtrack_limit as u64)),
            ("step_limit", Value::UInt(p.step_limit as u64)),
        ])
    };
    let seq = |s: &SeqAtpgConfig| {
        Value::object([
            ("max_frames", Value::UInt(s.max_frames as u64)),
            ("backtrack_limit", Value::UInt(s.backtrack_limit as u64)),
            ("step_limit", Value::UInt(s.step_limit as u64)),
        ])
    };
    Value::object([
        ("podem", podem(&config.podem)),
        ("seq", seq(&config.seq)),
        ("final_seq", seq(&config.final_seq)),
        (
            "dist",
            match config.dist {
                None => Value::Null,
                Some(d) => Value::object([
                    ("large", Value::UInt(d.large as u64)),
                    ("med", Value::UInt(d.med as u64)),
                    ("dist", Value::UInt(d.dist as u64)),
                ]),
            },
        ),
        ("threads", Value::UInt(config.threads as u64)),
        ("lanes", Value::UInt(config.lane_width.lanes() as u64)),
    ])
}

/// Decodes a [`PipelineConfig`]. Every key is optional — missing ones
/// keep their [`PipelineConfig::default`] value, so `{"threads": 2}` is
/// a complete request config — but unknown keys and malformed values
/// are rejected, and the decoded configuration must pass
/// [`PipelineConfig::validate`].
pub fn config_from_value(value: &Value) -> Result<PipelineConfig, JsonError> {
    let mut r = ObjReader::new(value, "config")?;
    let mut config = PipelineConfig::default();
    if let Some(v) = r.take("podem") {
        let mut p = ObjReader::new(v, "config.podem")?;
        if let Some(b) = p.take("backtrack_limit") {
            config.podem.backtrack_limit = uint_field(b, "config.podem.backtrack_limit")?;
        }
        if let Some(s) = p.take("step_limit") {
            config.podem.step_limit = uint_field(s, "config.podem.step_limit")?;
        }
        p.finish()?;
    }
    for (key, target) in [("seq", 0usize), ("final_seq", 1)] {
        if let Some(v) = r.take(key) {
            let mut s = ObjReader::new(v, "config.seq")?;
            let cfg = if target == 0 {
                &mut config.seq
            } else {
                &mut config.final_seq
            };
            if let Some(f) = s.take("max_frames") {
                cfg.max_frames = uint_field(f, "config.seq.max_frames")?;
            }
            if let Some(b) = s.take("backtrack_limit") {
                cfg.backtrack_limit = uint_field(b, "config.seq.backtrack_limit")?;
            }
            if let Some(l) = s.take("step_limit") {
                cfg.step_limit = uint_field(l, "config.seq.step_limit")?;
            }
            s.finish()?;
        }
    }
    if let Some(v) = r.take("dist") {
        config.dist = match v {
            Value::Null => None,
            _ => {
                let mut d = ObjReader::new(v, "config.dist")?;
                let dist = DistParams {
                    large: d.usize("large")?,
                    med: d.usize("med")?,
                    dist: d.usize("dist")?,
                };
                d.finish()?;
                Some(dist)
            }
        };
    }
    if let Some(v) = r.take("threads") {
        config.threads = uint_field(v, "config.threads")?;
    }
    if let Some(v) = r.take("lanes") {
        let lanes = v
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .and_then(LaneWidth::from_lanes)
            .ok_or_else(|| JsonError::new("config: \"lanes\" must be 64 or 256"))?;
        config.lane_width = lanes;
    }
    r.finish()?;
    config
        .validate()
        .map_err(|e| JsonError::new(format!("config: {e}")))?;
    Ok(config)
}

fn uint_field(v: &Value, what: &str) -> Result<usize, JsonError> {
    v.as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| JsonError::new(format!("{what} must be a non-negative integer")))
}

// ---------------------------------------------------------------------
// Faults, vectors, programs.
// ---------------------------------------------------------------------

/// Encodes a [`Fault`]: `{"stem": id, "stuck": b}` or
/// `{"gate": id, "pin": p, "stuck": b}`.
pub fn fault_to_value(fault: &Fault) -> Value {
    match fault.site {
        FaultSite::Stem(node) => Value::object([
            ("stem", Value::UInt(node.index() as u64)),
            ("stuck", Value::Bool(fault.stuck)),
        ]),
        FaultSite::Branch { gate, pin } => Value::object([
            ("gate", Value::UInt(gate.index() as u64)),
            ("pin", Value::UInt(pin as u64)),
            ("stuck", Value::Bool(fault.stuck)),
        ]),
    }
}

/// Decodes a [`Fault`].
pub fn fault_from_value(value: &Value) -> Result<Fault, JsonError> {
    let mut r = ObjReader::new(value, "fault")?;
    let fault = if let Some(stem) = r.take("stem") {
        let node = node_from(
            stem.as_u64()
                .ok_or_else(|| JsonError::new("fault: \"stem\" must be an integer"))?,
            "fault",
        )?;
        Fault::stem(node, bool_field(&mut r, "stuck")?)
    } else {
        let gate = node_from(r.u64("gate")?, "fault")?;
        let pin = r.usize("pin")?;
        Fault::branch(gate, pin, bool_field(&mut r, "stuck")?)
    };
    r.finish()?;
    Ok(fault)
}

fn bool_field(r: &mut ObjReader<'_>, key: &str) -> Result<bool, JsonError> {
    r.required(key)?
        .as_bool()
        .ok_or_else(|| JsonError::new(format!("fault: \"{key}\" must be a boolean")))
}

fn vectors_to_value(vectors: &[Vec<V3>]) -> Value {
    Value::Array(
        vectors
            .iter()
            .map(|v| {
                Value::Str(
                    v.iter()
                        .map(|b| match b {
                            V3::Zero => '0',
                            V3::One => '1',
                            V3::X => 'X',
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

fn vectors_from_value(value: &Value, what: &'static str) -> Result<Vec<Vec<V3>>, JsonError> {
    value
        .as_array()
        .ok_or_else(|| JsonError::new(format!("{what}: vectors must be an array")))?
        .iter()
        .map(|line| {
            line.as_str()
                .ok_or_else(|| JsonError::new(format!("{what}: each vector must be a string")))?
                .chars()
                .map(|c| match c {
                    '0' => Ok(V3::Zero),
                    '1' => Ok(V3::One),
                    'X' | 'x' => Ok(V3::X),
                    other => Err(JsonError::new(format!(
                        "{what}: invalid vector character '{other}'"
                    ))),
                })
                .collect()
        })
        .collect()
}

/// Encodes a [`TestProgram`]: one `{"label", "vectors"}` object per
/// test, vectors as `0`/`1`/`X` strings (one per cycle, inputs in
/// circuit order — the JSON twin of [`TestProgram::write_text`]).
pub fn program_to_value(program: &TestProgram) -> Value {
    Value::Array(
        program
            .tests()
            .iter()
            .map(|t| {
                Value::object([
                    ("label", Value::Str(t.label.clone())),
                    ("vectors", vectors_to_value(&t.vectors)),
                ])
            })
            .collect(),
    )
}

/// Decodes a [`TestProgram`].
pub fn program_from_value(value: &Value) -> Result<TestProgram, JsonError> {
    let mut program = TestProgram::new();
    for test in value
        .as_array()
        .ok_or_else(|| JsonError::new("program: expected an array"))?
    {
        let mut r = ObjReader::new(test, "program test")?;
        let label = r.str("label")?.to_string();
        let vectors = vectors_from_value(r.required("vectors")?, "program test")?;
        r.finish()?;
        program.push(ScanTest::new(label, vectors));
    }
    Ok(program)
}

// ---------------------------------------------------------------------
// PipelineReport.
// ---------------------------------------------------------------------

/// Encodes a full [`PipelineReport`] — every per-stage report with its
/// [`StageMetrics`], the undetected-fault list and the emitted
/// [`TestProgram`] — as one JSON object. This is the serving layer's
/// response body; [`report_from_value`] restores a structurally
/// identical report (wall-clock figures round to microseconds, the
/// `wall_s` print precision).
pub fn report_to_value(report: &PipelineReport) -> Value {
    Value::object([
        ("name", Value::Str(report.name.clone())),
        ("total_faults", Value::UInt(report.total_faults as u64)),
        ("rescued_easy", Value::UInt(report.rescued_easy as u64)),
        (
            "classification",
            Value::object([
                ("total", Value::UInt(report.classification.total as u64)),
                ("easy", Value::UInt(report.classification.easy as u64)),
                ("hard", Value::UInt(report.classification.hard as u64)),
                ("metrics", metrics_to_value(&report.classification.metrics)),
            ]),
        ),
        (
            "alternating",
            Value::object([
                ("targeted", Value::UInt(report.alternating.targeted as u64)),
                ("detected", Value::UInt(report.alternating.detected as u64)),
                (
                    "missed_easy",
                    Value::UInt(report.alternating.missed_easy as u64),
                ),
                ("cycles", Value::UInt(report.alternating.cycles as u64)),
                ("metrics", metrics_to_value(&report.alternating.metrics)),
            ]),
        ),
        (
            "comb",
            Value::object([
                ("targeted", Value::UInt(report.comb.targeted as u64)),
                ("detected", Value::UInt(report.comb.detected as u64)),
                ("undetectable", Value::UInt(report.comb.undetectable as u64)),
                ("undetected", Value::UInt(report.comb.undetected as u64)),
                ("vectors", Value::UInt(report.comb.vectors as u64)),
                ("cycles", Value::UInt(report.comb.cycles as u64)),
                (
                    "detection_curve",
                    Value::Array(
                        report
                            .comb
                            .detection_curve
                            .iter()
                            .map(|&(v, d)| {
                                Value::Array(vec![Value::UInt(v as u64), Value::UInt(d as u64)])
                            })
                            .collect(),
                    ),
                ),
                ("metrics", metrics_to_value(&report.comb.metrics)),
            ]),
        ),
        (
            "compact",
            Value::object([
                (
                    "tests_before",
                    Value::UInt(report.compact.tests_before as u64),
                ),
                (
                    "tests_after",
                    Value::UInt(report.compact.tests_after as u64),
                ),
                (
                    "detected_before",
                    Value::UInt(report.compact.detected_before as u64),
                ),
                (
                    "detected_after",
                    Value::UInt(report.compact.detected_after as u64),
                ),
                ("lost", Value::UInt(report.compact.lost as u64)),
                ("metrics", metrics_to_value(&report.compact.metrics)),
            ]),
        ),
        (
            "seq",
            Value::object([
                ("targeted", Value::UInt(report.seq.targeted as u64)),
                ("detected", Value::UInt(report.seq.detected as u64)),
                ("unconfirmed", Value::UInt(report.seq.unconfirmed as u64)),
                ("undetectable", Value::UInt(report.seq.undetectable as u64)),
                ("undetected", Value::UInt(report.seq.undetected as u64)),
                (
                    "circuits_initial",
                    Value::UInt(report.seq.circuits_initial as u64),
                ),
                (
                    "circuits_final",
                    Value::UInt(report.seq.circuits_final as u64),
                ),
                ("metrics", metrics_to_value(&report.seq.metrics)),
            ]),
        ),
        (
            "undetected_faults",
            Value::Array(
                report
                    .undetected_faults
                    .iter()
                    .map(fault_to_value)
                    .collect(),
            ),
        ),
        ("program", program_to_value(&report.program)),
    ])
}

/// Decodes a [`PipelineReport`] encoded by [`report_to_value`].
pub fn report_from_value(value: &Value) -> Result<PipelineReport, JsonError> {
    let mut r = ObjReader::new(value, "report")?;
    let name = r.str("name")?.to_string();
    let total_faults = r.usize("total_faults")?;
    let rescued_easy = r.usize("rescued_easy")?;

    let mut c = ObjReader::new(r.required("classification")?, "report.classification")?;
    let classification = ClassifySummary {
        total: c.usize("total")?,
        easy: c.usize("easy")?,
        hard: c.usize("hard")?,
        metrics: metrics_from_value(c.required("metrics")?)?,
    };
    c.finish()?;

    let mut a = ObjReader::new(r.required("alternating")?, "report.alternating")?;
    let alternating = AlternatingReport {
        targeted: a.usize("targeted")?,
        detected: a.usize("detected")?,
        missed_easy: a.usize("missed_easy")?,
        cycles: a.usize("cycles")?,
        metrics: metrics_from_value(a.required("metrics")?)?,
    };
    a.finish()?;

    let mut cb = ObjReader::new(r.required("comb")?, "report.comb")?;
    let detection_curve = cb
        .required("detection_curve")?
        .as_array()
        .ok_or_else(|| JsonError::new("report.comb: detection_curve must be an array"))?
        .iter()
        .map(|p| {
            let pair = p.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                JsonError::new("report.comb: curve points are [vectors, detected]")
            })?;
            let v = uint_field(&pair[0], "report.comb.detection_curve")?;
            let d = uint_field(&pair[1], "report.comb.detection_curve")?;
            Ok((v, d))
        })
        .collect::<Result<Vec<_>, JsonError>>()?;
    let comb = CombPhaseReport {
        targeted: cb.usize("targeted")?,
        detected: cb.usize("detected")?,
        undetectable: cb.usize("undetectable")?,
        undetected: cb.usize("undetected")?,
        vectors: cb.usize("vectors")?,
        cycles: cb.usize("cycles")?,
        detection_curve,
        metrics: metrics_from_value(cb.required("metrics")?)?,
    };
    cb.finish()?;

    let mut cp = ObjReader::new(r.required("compact")?, "report.compact")?;
    let compact = CompactionReport {
        tests_before: cp.usize("tests_before")?,
        tests_after: cp.usize("tests_after")?,
        detected_before: cp.usize("detected_before")?,
        detected_after: cp.usize("detected_after")?,
        lost: cp.usize("lost")?,
        metrics: metrics_from_value(cp.required("metrics")?)?,
    };
    cp.finish()?;

    let mut s = ObjReader::new(r.required("seq")?, "report.seq")?;
    let seq = SeqPhaseReport {
        targeted: s.usize("targeted")?,
        detected: s.usize("detected")?,
        unconfirmed: s.usize("unconfirmed")?,
        undetectable: s.usize("undetectable")?,
        undetected: s.usize("undetected")?,
        circuits_initial: s.usize("circuits_initial")?,
        circuits_final: s.usize("circuits_final")?,
        metrics: metrics_from_value(s.required("metrics")?)?,
    };
    s.finish()?;

    let undetected_faults = r
        .required("undetected_faults")?
        .as_array()
        .ok_or_else(|| JsonError::new("report: undetected_faults must be an array"))?
        .iter()
        .map(fault_from_value)
        .collect::<Result<Vec<_>, _>>()?;
    let program = program_from_value(r.required("program")?)?;
    r.finish()?;

    Ok(PipelineReport {
        name,
        total_faults,
        classification,
        alternating,
        comb,
        compact,
        seq,
        rescued_easy,
        undetected_faults,
        program,
        // The ECO carry is process-local (good traces, classified fault
        // lists); decoded reports cannot seed an incremental rerun.
        carry: None,
    })
}

/// [`report_to_value`] rendered in the committed-snapshot pretty format.
pub fn report_to_json(report: &PipelineReport) -> String {
    report_to_value(report).render_pretty()
}

/// Parses and decodes a report JSON document.
pub fn report_from_json(text: &str) -> Result<PipelineReport, JsonError> {
    report_from_value(&parse(text)?)
}

/// [`config_to_value`] rendered in the pretty format.
pub fn config_to_json(config: &PipelineConfig) -> String {
    config_to_value(config).render_pretty()
}

/// Parses and decodes (and validates) a config JSON document.
pub fn config_from_json(text: &str) -> Result<PipelineConfig, JsonError> {
    config_from_value(&parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in [
            "null", "true", "false", "0", "42", "-7", "3.141593", "\"hi\"", "[]", "{}", "[1,2,3]",
        ] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.render_compact()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn pretty_format_matches_the_historical_emitter() {
        let v = Value::object([
            ("scale", Value::Float(0.05)),
            ("threads", Value::UInt(1)),
            (
                "circuits",
                Value::Array(vec![Value::object([
                    ("name", Value::Str("s1196".into())),
                    ("counters", Value::object([("gate_evals", Value::UInt(7))])),
                ])]),
            ),
        ]);
        let expected = "{\n  \"scale\": 0.050000,\n  \"threads\": 1,\n  \"circuits\": [\n    {\n      \"name\": \"s1196\",\n      \"counters\": {\n        \"gate_evals\": 7\n      }\n    }\n  ]\n}\n";
        assert_eq!(v.render_pretty(), expected);
    }

    #[test]
    fn pretty_parse_render_is_identity() {
        let text = "{\n  \"a\": 0.125000,\n  \"b\": [\n    1,\n    {\n      \"c\": \"x\\\"y\"\n    }\n  ],\n  \"d\": {}\n}\n";
        let v = parse(text).unwrap();
        assert_eq!(v.render_pretty(), text);
    }

    #[test]
    fn string_escapes_parse() {
        let v = parse(r#""a\"b\\c\n\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA\u{e9}"));
        // Surrogate pair.
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        // Lone high surrogate is rejected.
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn malformed_documents_error_with_offsets() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"\\q\"",
            "{\"a\":}",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.to_string().contains("byte"), "{bad}: {err}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn counters_round_trip_every_field() {
        // Every field a distinct value, in fields() order.
        let mut c = WorkCounters::ZERO;
        c.gate_evals = 1;
        c.lane_cycles = 2;
        c.implication_events = 3;
        c.cone_nets = 4;
        c.podem_decisions = 5;
        c.podem_backtracks = 6;
        c.podem_aborts = 7;
        c.sat_screens = 8;
        c.sat_conflicts = 9;
        c.x_screens = 10;
        c.windows_formed = 11;
        c.early_exits = 12;
        c.topology_builds = 13;
        c.scratch_reuses = 14;
        c.implication_words = 15;
        c.kernel_gate_evals = 16;
        c.faults_dropped = 17;
        c.vectors_compacted = 18;
        c.podem_shards = 19;
        c.cones_invalidated = 20;
        c.verdicts_reused = 21;
        c.trace_cycles_reused = 22;
        let values: Vec<u64> = c.fields().iter().map(|&(_, v)| v).collect();
        assert_eq!(values, (1..=22).collect::<Vec<u64>>());
        let v = counters_to_value(&c);
        assert_eq!(counters_from_value(&v).unwrap(), c);
        // Subset decodes (old snapshots), unknown keys are rejected.
        let partial = parse("{\"gate_evals\": 9}").unwrap();
        assert_eq!(counters_from_value(&partial).unwrap().gate_evals, 9);
        let unknown = parse("{\"gate_evalz\": 9}").unwrap();
        assert!(counters_from_value(&unknown).is_err());
    }

    #[test]
    fn mem_round_trips_and_is_optional() {
        let mut hist = ConeHist::default();
        hist.record(0);
        hist.record(5);
        hist.record(70_000);
        let mem = MemMetrics {
            peak_bytes: 1_234,
            reallocs: 5,
            arena_bytes: 777,
            cone_hist: hist,
        };
        let v = mem_to_value(&mem);
        assert_eq!(mem_from_value(&v).unwrap(), mem);
        // A metrics object without a "mem" block (pre-accounting
        // snapshots) decodes to zeroed memory metrics.
        let old = parse(
            "{\"wall_s\": 0.5, \"shards\": {\"threads\": 1, \"per_worker\": [3]}, \
             \"counters\": {\"gate_evals\": 9}}",
        )
        .unwrap();
        let metrics = metrics_from_value(&old).unwrap();
        assert_eq!(metrics.mem, MemMetrics::ZERO);
        // Full metrics round-trip carries the mem block.
        let mut full = StageMetrics::new(
            Duration::from_secs_f64(0.25),
            ShardStats {
                threads: 2,
                per_worker: vec![1, 2],
            },
            WorkCounters::ZERO,
        );
        full.mem = mem;
        let back = metrics_from_value(&metrics_to_value(&full)).unwrap();
        assert_eq!(back.mem, mem);
        // Wrong bucket counts and unknown keys are rejected.
        let short = parse("{\"cone_hist\": [1, 2, 3]}").unwrap();
        assert!(mem_from_value(&short).is_err());
        let unknown = parse("{\"peak_bites\": 1}").unwrap();
        assert!(mem_from_value(&unknown).is_err());
    }

    #[test]
    fn config_round_trips_and_validates() {
        let config = PipelineConfig {
            threads: 3,
            lane_width: LaneWidth::W64,
            dist: Some(DistParams {
                large: 9,
                med: 5,
                dist: 2,
            }),
            ..PipelineConfig::default()
        };
        assert!(config.validate().is_ok());
        let v = config_to_value(&config);
        assert_eq!(config_from_value(&v).unwrap(), config);
        // Partial configs keep defaults.
        let partial = config_from_json("{\"threads\": 2}").unwrap();
        assert_eq!(partial.threads, 2);
        assert_eq!(partial.lane_width, LaneWidth::default());
        // Unknown keys, bad widths and invalid budgets are rejected.
        assert!(config_from_json("{\"theads\": 2}").is_err());
        assert!(config_from_json("{\"lanes\": 128}").is_err());
        let err = config_from_json("{\"seq\": {\"max_frames\": 0}}").unwrap_err();
        assert!(err.to_string().contains("max_frames"), "{err}");
    }

    #[test]
    fn faults_and_programs_round_trip() {
        let faults = [
            Fault::stem(NodeId::from_index(4), true),
            Fault::branch(NodeId::from_index(7), 1, false),
        ];
        for f in faults {
            assert_eq!(fault_from_value(&fault_to_value(&f)).unwrap(), f);
        }
        let mut program = TestProgram::new();
        program.push(ScanTest::new(
            "alternating",
            vec![
                vec![V3::Zero, V3::One, V3::X],
                vec![V3::One, V3::One, V3::Zero],
            ],
        ));
        let v = program_to_value(&program);
        assert_eq!(program_from_value(&v).unwrap(), program);
        // Lower-case x decodes too; other characters do not.
        let lax = parse("[{\"label\": \"t\", \"vectors\": [\"x1\"]}]").unwrap();
        assert!(program_from_value(&lax).is_ok());
        let bad = parse("[{\"label\": \"t\", \"vectors\": [\"2\"]}]").unwrap();
        assert!(program_from_value(&bad).is_err());
    }
}
