//! Per-layer metrics of a traced run: self time per layer from the spans,
//! and work counts per pass from the reports' `WorkCounters` and
//! `MemMetrics`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use fscan::PipelineReport;
use fscan_sim::{StageMetrics, WorkCounters};

use crate::stats::{metric, Metric};
use crate::trace::{self, Tracer};

/// Raw per-layer aggregates; each workload fills the layers it reaches.
#[derive(Default)]
pub struct Layers {
    /// Self time per span name over every traced operation.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Operations the spans cover.
    pub ops: usize,
    /// Work counters per stage (`classify`, `alternating`, `comb`,
    /// `compact`, `seq`), summed over one pass.
    pub counters: BTreeMap<&'static str, WorkCounters>,
    pub pass_ops: usize,
    pub comb_targets: usize,
    pub seq_targets: usize,
    pub reach_ops: usize,
    pub tests_before: usize,
    pub tests_after: usize,
    pub eco_total_faults: usize,
    pub eco_full: usize,
    pub eco_recomputed: usize,
    pub eco_cold: usize,
    pub serve_self_ms: f64,
    pub serve_keepalive_reuses: u64,
    pub serve_errors: u64,
    pub serve_rejected: u64,
    /// Largest rise of live heap over one operation's ingest (parse, scan
    /// insertion, fault collapse), above the heap at the operation's start.
    pub ingest_rise: u64,
    /// Largest `MemMetrics::peak_bytes` any stage booked.
    pub stage_peak: u64,
    /// Largest deterministic arena footprint any stage booked.
    pub arena: u64,
}

impl Layers {
    /// Adds one operation's stage metrics.
    pub fn add_stages(&mut self, stages: &[(&'static str, &StageMetrics)]) {
        for (name, m) in stages {
            *self.counters.entry(name).or_insert(WorkCounters::ZERO) += m.counters;
            self.stage_peak = self.stage_peak.max(m.mem.peak_bytes);
            self.arena = self.arena.max(m.mem.arena_bytes);
        }
    }

    /// Adds one full report: its stages and the step counts the ratios use.
    pub fn add_report(&mut self, report: &PipelineReport) {
        self.add_stages(&report.stages());
        self.comb_targets += report.comb.targeted;
        self.seq_targets += report.seq.targeted;
        self.reach_ops += usize::from(report.seq.targeted > 0);
        self.tests_before += report.compact.tests_before;
        self.tests_after += report.compact.tests_after;
    }

    pub fn absorb_trace(&mut self, tracer: &Tracer, ops: usize) {
        self.self_ns = tracer.self_ns();
        self.ops = ops;
    }

    fn self_ms(&self, span: &str) -> f64 {
        self.self_ns.get(span).copied().unwrap_or(0) as f64 / 1e6 / self.ops.max(1) as f64
    }

    fn count(&self, stage: &str, field: fn(&WorkCounters) -> u64) -> f64 {
        self.counters.get(stage).map_or(0, field) as f64
    }

    fn total(&self, field: fn(&WorkCounters) -> u64) -> f64 {
        self.counters.values().map(field).sum::<u64>() as f64
    }

    /// Every per-layer metric, in a fixed order; a layer the workload does
    /// not reach reads 0.
    pub fn metrics(&self) -> Vec<Metric> {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mb = |bytes: u64| bytes as f64 / 1e6;
        let scalar = ["alternating", "comb", "compact"];
        let (gate, kernel) = scalar.iter().fold((0.0, 0.0), |(g, k), s| {
            (
                g + self.count(s, |c| c.gate_evals),
                k + self.count(s, |c| c.kernel_gate_evals),
            )
        });
        let eco_ops = (self.eco_full + self.eco_recomputed + self.eco_cold) as f64;
        vec![
            metric("netlist.parse_ms", "ms", self.self_ms("netlist.parse")),
            metric("netlist.diff_ms", "ms", self.self_ms("netlist.diff")),
            metric("scan.tpi_ms", "ms", self.self_ms("scan.tpi")),
            metric("fault.collapse_ms", "ms", self.self_ms("fault.collapse")),
            metric("classify.self_ms", "ms", self.self_ms("classify")),
            metric(
                "classify.gate_evals",
                "count",
                self.count("classify", |c| c.gate_evals),
            ),
            metric(
                "classify.implication_words",
                "count",
                self.count("classify", |c| c.implication_words),
            ),
            metric("alternating.self_ms", "ms", self.self_ms("alternating")),
            metric(
                "alternating.gate_evals",
                "count",
                self.count("alternating", |c| c.gate_evals),
            ),
            metric(
                "alternating.kernel_gate_evals",
                "count",
                self.count("alternating", |c| c.kernel_gate_evals),
            ),
            metric(
                "alternating.lane_cycles",
                "count",
                self.count("alternating", |c| c.lane_cycles),
            ),
            metric("comb_phase.self_ms", "ms", self.self_ms("comb_phase")),
            metric(
                "comb_phase.gate_evals",
                "count",
                self.count("comb", |c| c.gate_evals),
            ),
            metric(
                "comb_phase.podem_decisions",
                "count",
                self.count("comb", |c| c.podem_decisions),
            ),
            metric(
                "comb_phase.podem_backtracks",
                "count",
                self.count("comb", |c| c.podem_backtracks),
            ),
            metric(
                "comb_phase.podem_aborts",
                "count",
                self.count("comb", |c| c.podem_aborts),
            ),
            metric(
                "comb_phase.faults_dropped",
                "count",
                self.count("comb", |c| c.faults_dropped),
            ),
            metric(
                "comb_phase.abort_ratio",
                "ratio",
                ratio(
                    self.count("comb", |c| c.podem_aborts),
                    self.comb_targets as f64,
                ),
            ),
            metric("compact.self_ms", "ms", self.self_ms("compact")),
            metric(
                "compact.gate_evals",
                "count",
                self.count("compact", |c| c.gate_evals),
            ),
            metric(
                "compact.vectors_compacted",
                "count",
                self.count("compact", |c| c.vectors_compacted),
            ),
            metric(
                "compact.keep_ratio",
                "ratio",
                ratio(self.tests_after as f64, self.tests_before as f64),
            ),
            metric("seq_phase.self_ms", "ms", self.self_ms("seq_phase")),
            metric(
                "seq_phase.gate_evals",
                "count",
                self.count("seq", |c| c.gate_evals),
            ),
            metric(
                "seq_phase.podem_decisions",
                "count",
                self.count("seq", |c| c.podem_decisions),
            ),
            metric(
                "seq_phase.podem_aborts",
                "count",
                self.count("seq", |c| c.podem_aborts),
            ),
            metric(
                "seq_phase.abort_ratio",
                "ratio",
                ratio(
                    self.count("seq", |c| c.podem_aborts),
                    self.seq_targets as f64,
                ),
            ),
            metric(
                "seq_phase.reach_share",
                "ratio",
                ratio(self.reach_ops as f64, self.pass_ops as f64),
            ),
            metric("sim.scalar_share", "ratio", ratio(gate - kernel, gate)),
            metric("eco.self_ms", "ms", self.self_ms("eco")),
            metric(
                "eco.verdicts_reused",
                "count",
                self.total(|c| c.verdicts_reused),
            ),
            metric(
                "eco.cones_invalidated",
                "count",
                self.total(|c| c.cones_invalidated),
            ),
            metric(
                "eco.trace_cycles_reused",
                "count",
                self.total(|c| c.trace_cycles_reused),
            ),
            metric(
                "eco.reuse_ratio",
                "ratio",
                ratio(
                    self.total(|c| c.verdicts_reused),
                    self.eco_total_faults as f64,
                ),
            ),
            metric("eco.cold_fallbacks", "count", self.eco_cold as f64),
            metric(
                "eco.full_reuse_share",
                "ratio",
                ratio(self.eco_full as f64, eco_ops),
            ),
            metric(
                "eco.recompute_share",
                "ratio",
                ratio(self.eco_recomputed as f64, eco_ops),
            ),
            metric("json.self_ms", "ms", self.self_ms("json")),
            metric("serve.self_ms", "ms", self.serve_self_ms),
            metric(
                "serve.keepalive_reuses",
                "count",
                self.serve_keepalive_reuses as f64,
            ),
            metric("serve.errors", "count", self.serve_errors as f64),
            metric("serve.rejected", "count", self.serve_rejected as f64),
            metric("alloctrack.ingest_peak_mb", "MB", mb(self.ingest_rise)),
            metric("alloctrack.stage_peak_mb", "MB", mb(self.stage_peak)),
            metric("alloctrack.arena_mb", "MB", mb(self.arena)),
        ]
    }
}

/// The tracing overhead line: spans per operation times the measured cost
/// of recording one.
pub fn overhead_note(tracer: &Tracer, ops: usize, p50_ms: f64) -> String {
    let per_op = tracer.spans().len() as f64 / ops.max(1) as f64;
    let ns = trace::ns_per_span();
    let ms = per_op * ns / 1e6;
    format!(
        "tracing overhead: {per_op:.1} spans/op x {ns:.0} ns/span = {ms:.6} ms/op ({:.4}% of the traced p50)",
        100.0 * ms / p50_ms.max(f64::MIN_POSITIVE)
    )
}

/// Writes the spans out once the run has ended, next to the build.
pub fn write_spans(tracer: &Tracer, workload: &str, seed: u64) -> String {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"))
        .join("perfbench-traces");
    let path = dir.join(format!("{workload}-seed{seed}.tsv"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_tsv())) {
        Ok(()) => format!("spans written to {}", path.display()),
        Err(e) => format!("spans not written ({}): {e}", path.display()),
    }
}
