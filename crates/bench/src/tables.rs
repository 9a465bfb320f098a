//! Regeneration of the paper's Tables 1–3 and Figure 5.

use std::fmt;
use std::time::Duration;

use fscan::{PipelineConfig, PipelineReport, PipelineSession};
use fscan_fault::{all_faults, collapse};
use fscan_netlist::CircuitStats;

use crate::suite::{build_design, SuiteCircuit};

/// One row of Table 1 (the test suite).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table1Row {
    /// Circuit name.
    pub name: String,
    /// Mapped gate count.
    pub gates: usize,
    /// Flip-flop count.
    pub ffs: usize,
    /// Collapsed fault count.
    pub faults: usize,
    /// Scan chain count.
    pub chains: usize,
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:>7} {:>6} {:>8} {:>7}",
            self.name, self.gates, self.ffs, self.faults, self.chains
        )
    }
}

/// Generates one Table 1 row: structural statistics of a suite circuit
/// after functional scan insertion.
pub fn table1(circuit: &SuiteCircuit, scale: f64) -> Table1Row {
    let design = build_design(circuit, scale);
    let stats = CircuitStats::new(design.circuit());
    let faults = collapse(design.circuit(), &all_faults(design.circuit()));
    Table1Row {
        name: circuit.name.to_string(),
        gates: stats.gates,
        ffs: stats.dffs,
        faults: faults.len(),
        chains: design.chains().len(),
    }
}

/// One row of Table 2 (easy/hard classification).
#[derive(Clone, Debug, PartialEq)]
pub struct Table2Row {
    /// Circuit name.
    pub name: String,
    /// Total collapsed faults.
    pub total: usize,
    /// Category-1 (`f_easy`) count.
    pub easy: usize,
    /// Category-2 (`f_hard`) count.
    pub hard: usize,
    /// Classification CPU time.
    pub cpu: Duration,
}

impl Table2Row {
    /// `f_easy` as a percentage of all faults.
    pub fn easy_pct(&self) -> f64 {
        100.0 * self.easy as f64 / self.total.max(1) as f64
    }

    /// `f_hard` as a percentage of all faults.
    pub fn hard_pct(&self) -> f64 {
        100.0 * self.hard as f64 / self.total.max(1) as f64
    }
}

impl fmt::Display for Table2Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:>7} ({:>4.1}%) {:>6} ({:>4.1}%) {:>8.2}s",
            self.name,
            self.easy,
            self.easy_pct(),
            self.hard,
            self.hard_pct(),
            self.cpu.as_secs_f64()
        )
    }
}

/// One row of Table 3 (detecting the faults in `f_hard`).
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Circuit name.
    pub name: String,
    /// Step-2 detected / undetectable / undetected and CPU.
    pub comb_detected: usize,
    /// Step-2 proven-undetectable count.
    pub comb_undetectable: usize,
    /// Step-2 undetected count (input to step 3).
    pub comb_undetected: usize,
    /// Step-2 CPU time.
    pub comb_cpu: Duration,
    /// Enhanced-C/O circuits: initial groups.
    pub circuits_initial: usize,
    /// Enhanced-C/O circuits: final per-fault pass.
    pub circuits_final: usize,
    /// Step-3 detected count.
    pub seq_detected: usize,
    /// Step-3 proven-undetectable count.
    pub seq_undetectable: usize,
    /// Step-3 undetected count (the paper's headline column).
    pub seq_undetected: usize,
    /// Step-3 CPU time.
    pub seq_cpu: Duration,
}

impl fmt::Display for Table3Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:>6} {:>6} {:>6} {:>8.2}s {:>9} {:>5} {:>5} {:>5} {:>8.2}s",
            self.name,
            self.comb_detected,
            self.comb_undetectable,
            self.comb_undetected,
            self.comb_cpu.as_secs_f64(),
            format!("{},{}", self.circuits_initial, self.circuits_final),
            self.seq_detected,
            self.seq_undetectable,
            self.seq_undetected,
            self.seq_cpu.as_secs_f64()
        )
    }
}

/// One point of the Figure 5 series (#simulated windows vs #detected).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Figure5Point {
    /// Test windows simulated so far.
    pub vectors: usize,
    /// Cumulative detected faults.
    pub detected: usize,
}

/// Runs the full pipeline once and extracts Table 2, Table 3 and the
/// Figure 5 series for one suite circuit.
pub fn run_pipeline(circuit: &SuiteCircuit, scale: f64) -> PipelineReport {
    run_pipeline_with(circuit, scale, PipelineConfig::default())
}

/// [`run_pipeline`] under an explicit configuration (thread count, ATPG
/// budgets), running an owned [`PipelineSession`] over the freshly
/// built design (the design is consumed into the session's `Arc`, so no
/// clone is paid).
pub fn run_pipeline_with(
    circuit: &SuiteCircuit,
    scale: f64,
    config: PipelineConfig,
) -> PipelineReport {
    let design = std::sync::Arc::new(build_design(circuit, scale));
    PipelineSession::shared(design, config).run()
}

/// Table 2 row from a pipeline report.
pub fn table2(report: &PipelineReport) -> Table2Row {
    Table2Row {
        name: report.name.clone(),
        total: report.total_faults,
        easy: report.classification.easy,
        hard: report.classification.hard,
        cpu: report.classification.metrics.cpu + report.alternating.metrics.cpu,
    }
}

/// Table 3 row from a pipeline report.
pub fn table3(report: &PipelineReport) -> Table3Row {
    Table3Row {
        name: report.name.clone(),
        comb_detected: report.comb.detected,
        comb_undetectable: report.comb.undetectable,
        comb_undetected: report.comb.undetected,
        comb_cpu: report.comb.metrics.cpu,
        circuits_initial: report.seq.circuits_initial,
        circuits_final: report.seq.circuits_final,
        seq_detected: report.seq.detected,
        seq_undetectable: report.seq.undetectable,
        seq_undetected: report.seq.undetected,
        seq_cpu: report.seq.metrics.cpu,
    }
}

/// The counters the trajectory table shows, as `(counter key, column
/// header)`. A deliberate subset of [`fscan_sim::WorkCounters`]: the
/// headline work totals whose per-PR movement tells the optimization
/// story, not all sixteen fields.
const HISTORY_COLUMNS: [(&str, &str); 5] = [
    ("gate_evals", "gate_evals"),
    ("lane_cycles", "lane_cycles"),
    ("implication_words", "impl_words"),
    ("faults_dropped", "dropped"),
    ("vectors_compacted", "compacted"),
];

/// Renders the per-PR trajectory recorded in `BENCH_history.jsonl` as a
/// fixed-width table: one row per record (oldest first), headline
/// counters summed across that record's circuits. This is the
/// first-class view of the history file — `reproduce history PATH`
/// prints exactly this.
///
/// # Examples
///
/// ```
/// use fscan_bench::baseline::{history_record, parse_history};
/// use fscan_bench::history_table;
///
/// let circuits = vec![("s9234".to_string(), vec![("gate_evals".to_string(), 42u64)])];
/// let points = parse_history(&history_record("abc123", 256, &circuits)).unwrap();
/// let table = history_table(&points);
/// assert!(table.contains("abc123"));
/// assert!(table.contains("42"));
/// ```
pub fn history_table(points: &[crate::baseline::HistoryPoint]) -> String {
    let mut out = format!("{:<14} {:>5} {:>4}", "rev", "lanes", "ckts");
    for (_, header) in HISTORY_COLUMNS {
        out.push_str(&format!(" {header:>12}"));
    }
    out.push('\n');
    for p in points {
        out.push_str(&format!(
            "{:<14} {:>5} {:>4}",
            p.rev,
            p.lanes,
            p.circuits.len()
        ));
        for (key, _) in HISTORY_COLUMNS {
            out.push_str(&format!(" {:>12}", p.total(key)));
        }
        out.push('\n');
    }
    out
}

/// Figure 5 series from a pipeline report.
pub fn figure5(report: &PipelineReport) -> Vec<Figure5Point> {
    report
        .comb
        .detection_curve
        .iter()
        .map(|&(vectors, detected)| Figure5Point { vectors, detected })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::PAPER_SUITE;

    #[test]
    fn table1_row_small_scale() {
        let row = table1(&PAPER_SUITE[0], 0.15);
        assert_eq!(row.name, "s1196");
        assert!(row.gates >= 40);
        assert!(row.faults > row.gates);
        assert_eq!(row.chains, 1);
        assert!(row.to_string().contains("s1196"));
    }

    #[test]
    fn pipeline_rows_are_consistent() {
        let report = run_pipeline(&PAPER_SUITE[2], 0.15); // s1423 shrunk
        let t2 = table2(&report);
        let t3 = table3(&report);
        assert_eq!(t2.total, report.total_faults);
        assert!(t2.easy + t2.hard <= t2.total);
        assert!(t3.seq_undetected <= t3.comb_undetected + report.alternating.missed_easy);
        let fig = figure5(&report);
        assert_eq!(fig.len(), report.comb.detection_curve.len());
    }

    #[test]
    fn history_table_renders_mixed_era_records_and_tails() {
        use crate::baseline::{history_record, parse_history};

        let circuits = |counters: &[(&str, u64)]| {
            vec![(
                "s9234".to_string(),
                counters
                    .iter()
                    .map(|(k, v)| (k.to_string(), *v))
                    .collect::<Vec<_>>(),
            )]
        };
        // Three eras of the committed trace: the original gate_evals-only
        // records, the fault-dropping era, and a modern record carrying
        // the ECO reuse counters. One file holds all of them.
        let era1 = history_record("aaaaaaaaaaaa", 64, &circuits(&[("gate_evals", 100)]));
        let era2 = history_record(
            "bbbbbbbbbbbb",
            256,
            &circuits(&[("gate_evals", 80), ("faults_dropped", 5)]),
        );
        let era3 = history_record(
            "cccccccccccc",
            256,
            &circuits(&[
                ("gate_evals", 20),
                ("faults_dropped", 6),
                ("verdicts_reused", 400),
                ("cones_invalidated", 7),
                ("trace_cycles_reused", 9000),
            ]),
        );
        let file = format!("{era1}\n{era2}\n{era3}\n");
        let points = parse_history(&file).unwrap();
        assert_eq!(points.len(), 3);
        // Counters a record predates read as zero, never as an error.
        assert_eq!(points[0].total("verdicts_reused"), 0);
        assert_eq!(points[0].total("faults_dropped"), 0);
        assert_eq!(points[2].total("verdicts_reused"), 400);
        assert_eq!(points[2].total("trace_cycles_reused"), 9000);
        let table = history_table(&points);
        assert_eq!(table.lines().count(), 4, "header + one row per record");
        for rev in ["aaaaaaaaaaaa", "bbbbbbbbbbbb", "cccccccccccc"] {
            assert!(table.contains(rev), "{rev} missing from:\n{table}");
        }
        // `reproduce history --limit N` shows the newest N records: the
        // same renderer over the tail slice.
        let tail = history_table(&points[points.len() - 2..]);
        assert_eq!(tail.lines().count(), 3);
        assert!(!tail.contains("aaaaaaaaaaaa"));
        assert!(tail.contains("cccccccccccc"));
    }
}
