//! The stress tier: scale rails exercised at 10⁵–10⁶ gates.
//!
//! The paper suite (even at `--scale 1.0`) tops out around 22k gates
//! per circuit. This module drives the generator one to two orders of
//! magnitude further — the regime the streaming `.bench` reader and the
//! per-stage memory accounting exist for — while keeping the run
//! tractable on one CPU by *sampling* the fault universe: the circuit,
//! its compiled topology, the scan chains and every per-node arena are
//! full-size (memory scales with the circuit), but ATPG effort scales
//! with the sampled fault count.
//!
//! The deterministic memory quantities (`arena_bytes`, the cone
//! histogram) are exact and thread-invariant, so a committed stress
//! snapshot gates them the same way `BENCH_baseline.json` gates work
//! counters. The allocator-observed `peak_bytes` is machine- and
//! thread-sensitive, so its [gate](crate::baseline) bounds it loosely
//! (`mem.peak_bytes <= 2*BENCH_stress_ci.json`) instead of pinning it.

use fscan::{PipelineConfig, PipelineReport, PipelineSession};
use fscan_fault::{all_faults, collapse, Fault};
use fscan_netlist::{generate, CompiledTopology, GeneratorConfig};
use fscan_scan::{insert_functional_scan, TpiConfig};
use fscan_sim::LaneWidth;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one stress run.
#[derive(Clone, Debug, PartialEq)]
pub struct StressConfig {
    /// Combinational gate count (the scale rail under test).
    pub gates: usize,
    /// Flip-flop count; 0 derives gates/50 (clamped to ≥ 16), roughly
    /// the ISCAS'89 suite's gate-to-flop ratio.
    pub dffs: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Scan chains.
    pub chains: usize,
    /// Generator seed.
    pub seed: u64,
    /// Faults actually pushed through the pipeline, sampled evenly
    /// across the collapsed universe (0 = all of them — only sensible
    /// for small `gates`). Sampling bounds ATPG cost; the memory rails
    /// still see the full-size circuit.
    pub fault_sample: usize,
    /// Worker threads (0 = hardware count).
    pub threads: usize,
    /// Packed rail width.
    pub lanes: LaneWidth,
}

impl Default for StressConfig {
    fn default() -> StressConfig {
        StressConfig {
            gates: 100_000,
            dffs: 0,
            inputs: 64,
            chains: 8,
            seed: 0x57e55,
            fault_sample: 2048,
            threads: 0,
            lanes: LaneWidth::default(),
        }
    }
}

impl StressConfig {
    /// The circuit name a run at this configuration reports
    /// (`stress100k`, `stress1m`, …).
    pub fn name(&self) -> String {
        if self.gates.is_multiple_of(1_000_000) && self.gates > 0 {
            format!("stress{}m", self.gates / 1_000_000)
        } else if self.gates.is_multiple_of(1_000) && self.gates > 0 {
            format!("stress{}k", self.gates / 1_000)
        } else {
            format!("stress{}", self.gates)
        }
    }

    fn generator(&self) -> GeneratorConfig {
        let dffs = if self.dffs == 0 {
            (self.gates / 50).max(16)
        } else {
            self.dffs
        };
        GeneratorConfig::new(self.name(), self.seed)
            .inputs(self.inputs.max(8))
            .gates(self.gates)
            .dffs(dffs)
    }
}

/// What one stress run produced: the full pipeline report plus the
/// sizing facts the gates need.
#[derive(Clone, Debug)]
pub struct StressReport {
    /// The five-stage pipeline report (memory accounting populated on
    /// every stage).
    pub report: PipelineReport,
    /// Nodes in the scan design's compiled topology (inputs + gates +
    /// flip-flops after TPI).
    pub nodes: usize,
    /// Collapsed fault universe of the full circuit.
    pub faults_total: usize,
    /// Faults actually run (= `faults_total` when `fault_sample` was 0
    /// or larger than the universe).
    pub faults_run: usize,
    /// Wall-clock of functional scan insertion.
    pub insertion: Duration,
    /// Topology plans compiled during insertion: the process-wide
    /// [`CompiledTopology::builds`] delta, so exact only when nothing
    /// else compiles concurrently.
    pub insertion_compiles: u64,
}

/// Samples `n` faults evenly across `faults` (all of them when `n` is
/// 0 or ≥ the universe). Strided, not prefix, so every region of the
/// circuit stays represented.
pub fn sample_faults(faults: &[Fault], n: usize) -> Vec<Fault> {
    if n == 0 || n >= faults.len() {
        return faults.to_vec();
    }
    (0..n).map(|i| faults[i * faults.len() / n]).collect()
}

/// Generates the stress circuit, inserts functional scan, and runs the
/// full five-stage pipeline over the (sampled) fault universe.
///
/// # Panics
///
/// Panics if scan insertion fails, which cannot happen for generated
/// circuits.
///
/// # Examples
///
/// ```
/// use fscan_bench::stress::{run_stress, StressConfig};
///
/// // A miniature tier — the committed test uses ~2k gates; CI runs 1e5.
/// let cfg = StressConfig {
///     gates: 400,
///     fault_sample: 64,
///     threads: 1,
///     ..StressConfig::default()
/// };
/// let out = run_stress(&cfg);
/// assert_eq!(out.faults_run, 64);
/// assert!(out.report.total_mem().arena_bytes > 0);
/// ```
pub fn run_stress(cfg: &StressConfig) -> StressReport {
    let circuit = generate(&cfg.generator());
    let tpi = TpiConfig {
        num_chains: cfg.chains,
    };
    let (builds, started) = (CompiledTopology::builds(), Instant::now());
    let design =
        insert_functional_scan(&circuit, &tpi).expect("scan insertion on generated circuit");
    let (insertion, insertion_compiles) = (started.elapsed(), CompiledTopology::builds() - builds);
    let nodes = design.topology().num_nodes();
    let faults = collapse(design.circuit(), &all_faults(design.circuit()));
    let faults_total = faults.len();
    let sampled = sample_faults(&faults, cfg.fault_sample);
    let faults_run = sampled.len();
    let pipeline = PipelineConfig {
        threads: cfg.threads,
        lane_width: cfg.lanes,
        ..PipelineConfig::default()
    };
    let report = PipelineSession::shared_with_faults(Arc::new(design), pipeline, sampled).run();
    StressReport {
        report,
        nodes,
        faults_total,
        faults_run,
        insertion,
        insertion_compiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscan_sim::kernel::{Rail, R256};
    use fscan_sim::SimScratch;

    /// A reduced tier that still exercises the full five-stage flow:
    /// memory accounting must be populated on every stage and the
    /// deterministic quantities must match their closed forms.
    #[test]
    fn reduced_stress_tier_populates_mem_on_every_stage() {
        let cfg = StressConfig {
            gates: 2_000,
            fault_sample: 256,
            threads: 2,
            ..StressConfig::default()
        };
        let out = run_stress(&cfg);
        assert_eq!(out.report.name, "stress2k");
        assert!(out.faults_total > out.faults_run);
        assert_eq!(out.faults_run, 256);
        for (name, m) in out.report.stages() {
            assert!(
                m.mem.arena_bytes > 0,
                "stage {name} reports no arena footprint"
            );
        }
        // arena_bytes is the closed-form SimScratch footprint: the wide
        // stages report the 256-lane arena, the sequential stage the
        // 64-lane one.
        let wide = SimScratch::<R256>::footprint_bytes(out.nodes);
        let narrow = SimScratch::<u64>::footprint_bytes(out.nodes);
        assert_eq!(out.report.classification.metrics.mem.arena_bytes, wide);
        assert_eq!(out.report.seq.metrics.mem.arena_bytes, narrow);
        assert!(wide > narrow, "{} lanes must dominate 64", R256::LANES);
        // One cone per classified fault, nothing more.
        assert_eq!(
            out.report
                .classification
                .metrics
                .mem
                .cone_hist
                .total_cones(),
            out.faults_run as u64
        );
        assert_eq!(
            out.report.total_mem().cone_hist.total_cones(),
            out.faults_run as u64
        );
    }

    #[test]
    fn sampling_is_strided_and_total_preserving() {
        let faults: Vec<Fault> = (0..100)
            .map(|i| Fault::stem(fscan_netlist::NodeId::from_index(i), i % 2 == 0))
            .collect();
        assert_eq!(sample_faults(&faults, 0).len(), 100);
        assert_eq!(sample_faults(&faults, 500).len(), 100);
        let ten = sample_faults(&faults, 10);
        assert_eq!(ten.len(), 10);
        // Strided: first sample from the head, last from the tail.
        assert_eq!(ten[0], faults[0]);
        assert_eq!(ten[9], faults[90]);
    }

    #[test]
    fn names_follow_magnitude() {
        let cfg = |gates| StressConfig {
            gates,
            ..StressConfig::default()
        };
        assert_eq!(cfg(100_000).name(), "stress100k");
        assert_eq!(cfg(1_000_000).name(), "stress1m");
        assert_eq!(cfg(2_000).name(), "stress2k");
        assert_eq!(cfg(1234).name(), "stress1234");
    }
}
