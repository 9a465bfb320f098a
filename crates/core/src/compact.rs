//! Test-set compaction (paper, Section 6).
//!
//! The paper observes that "the large majority of detected faults are
//! detected by the beginning part of the test sequence, thus the test
//! set can be reduced with only a small increase in the number of
//! undetected faults" (Figure 5). This module implements two standard
//! static compaction strategies over a [`TestProgram`]:
//!
//! * [`compact_program`] — reverse-order fault simulation: tests are
//!   simulated last-to-first and a test is kept only if it detects a
//!   fault no later test detects (classic reverse compaction). One pass,
//!   lossless by construction: every fault the pass counts is credited
//!   to a test it keeps, and each test is simulated alone, so dropping
//!   the others cannot change what the kept tests detect;
//! * [`truncate_to_coverage`] — forward truncation at a target fraction
//!   of the full program's detections (the paper's Figure-5 cut), which
//!   is deliberately lossy.
//!
//! In the staged pipeline, reverse-order compaction runs as a
//! first-class stage between the combinational and sequential phases
//! ([`AfterComb::compact`](crate::AfterComb::compact)).

use std::fmt;
use std::time::Instant;

use fscan_fault::Fault;
use fscan_scan::ScanDesign;
use fscan_sim::kernel::{Rail, R256};
use fscan_sim::{LaneWidth, ParallelFaultSim, ShardStats, StageMetrics, WorkCounters, V3};

use crate::pipeline::PipelineConfig;
use crate::program::TestProgram;

/// The aggregate result of a compaction pass.
#[derive(Clone, Debug, Default)]
pub struct CompactionReport {
    /// Tests before compaction.
    pub tests_before: usize,
    /// Tests kept after compaction.
    pub tests_after: usize,
    /// Faults detected by the full program.
    pub detected_before: usize,
    /// Faults detected by the compacted program.
    pub detected_after: usize,
    /// Detections lost by compaction. **0 for reverse-order
    /// compaction**, which keeps every test a counted fault is credited
    /// to; only [`truncate_to_coverage`] produces non-zero values here.
    pub lost: usize,
    /// The stage's cost triple: wall-clock time, work distribution
    /// across the per-test sharded fault simulations, and deterministic
    /// work counters (including `vectors_compacted` — bit-identical for
    /// every thread count).
    pub metrics: StageMetrics,
}

impl CompactionReport {
    /// Tests removed by the pass.
    pub fn removed(&self) -> usize {
        self.tests_before - self.tests_after
    }
}

impl fmt::Display for CompactionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compaction: {} → {} tests ({} removed, {} detections lost, {:.2}s)",
            self.tests_before,
            self.tests_after,
            self.removed(),
            self.lost,
            self.metrics.cpu.as_secs_f64()
        )
    }
}

/// A compaction pass's outputs: the (possibly shorter) program plus the
/// aggregate [`CompactionReport`].
#[derive(Clone, Debug, Default)]
pub struct CompactionOutcome {
    /// The compacted program.
    pub program: TestProgram,
    /// The aggregate report.
    pub report: CompactionReport,
}

fn detects_per_test<W: Rail>(
    design: &ScanDesign,
    program: &TestProgram,
    faults: &[Fault],
    order: impl Iterator<Item = usize>,
    threads: usize,
    first: Option<&[bool]>,
) -> (Vec<Vec<usize>>, usize, ShardStats, WorkCounters) {
    // For each test (visited in `order`), the indices of still-undetected
    // faults it detects. Each test is self-contained (starts with a full
    // scan load), so per-test simulation from X state is exact, and
    // test 0 is not simulated when `first` already says which faults it
    // detects.
    let sim = ParallelFaultSim::<W>::with_topology_wide(design.topology());
    let init = vec![V3::X; design.circuit().dffs().len()];
    let mut caught = vec![false; faults.len()];
    let mut per_test: Vec<Vec<usize>> = vec![Vec::new(); program.len()];
    let mut total = 0usize;
    let mut shards = ShardStats::default();
    let mut counters = WorkCounters::ZERO;
    for t in order {
        let pending: Vec<usize> = (0..faults.len()).filter(|&i| !caught[i]).collect();
        if pending.is_empty() {
            break;
        }
        if let (0, Some(first)) = (t, first) {
            per_test[0] = pending.into_iter().filter(|&i| first[i]).collect();
            total += per_test[0].len();
            for &i in &per_test[0] {
                caught[i] = true;
            }
            continue;
        }
        let flist: Vec<Fault> = pending.iter().map(|&i| faults[i]).collect();
        let (det, tstats, twork) =
            sim.fault_sim_sharded(&program.tests()[t].vectors, &init, &flist, threads);
        shards.absorb(&tstats);
        counters += twork;
        for (k, d) in det.into_iter().enumerate() {
            if d.is_some() {
                caught[pending[k]] = true;
                per_test[t].push(pending[k]);
                total += 1;
            }
        }
    }
    (per_test, total, shards, counters)
}

/// Reverse-order static compaction: fault-simulate the tests from last
/// to first, keeping only tests that detect something not yet detected.
/// Preserves the detected-fault set exactly (for the given fault list)
/// while typically dropping a large share of the tests, so the report
/// always has `detected_after == detected_before` and `lost == 0`.
///
/// One reverse pass suffices: each test is simulated alone from the
/// all-X state (it starts with a full scan load), so what a kept test
/// detects does not depend on which other tests are kept, and every
/// fault the pass counts is credited to a test it keeps. The
/// `compaction_keeps_every_detection` property test in `tests/props.rs`
/// re-simulates both programs with the serial reference to pin this.
///
/// The first test (the alternating sequence, when present) is always
/// kept: it is the chain integrity test the rest of the methodology
/// assumes.
///
/// Per-test fault simulations shard across the session's
/// [`PipelineConfig::threads`] workers (`0` = hardware thread count) on
/// the packed rail of width [`PipelineConfig::lane_width`]; the kept
/// set, the report and its counters are identical for every thread
/// count, and the kept set and the report at every width.
///
/// # Examples
///
/// ```no_run
/// use std::sync::Arc;
/// use fscan::{compact_program, PipelineConfig, PipelineSession};
/// use fscan_fault::{all_faults, collapse};
/// use fscan_netlist::{generate, GeneratorConfig};
/// use fscan_scan::{insert_functional_scan, TpiConfig};
///
/// let circuit = generate(&GeneratorConfig::new("d", 1).gates(150).dffs(10));
/// let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default())?);
/// let config = PipelineConfig::default();
/// let report = PipelineSession::shared(Arc::clone(&design), config.clone()).run();
/// let faults = collapse(design.circuit(), &all_faults(design.circuit()));
/// let outcome = compact_program(&design, &config, report.program, &faults);
/// assert_eq!(outcome.report.lost, 0);
/// assert!(outcome.report.tests_after <= outcome.report.tests_before);
/// # Ok::<(), fscan_scan::ScanError>(())
/// ```
pub fn compact_program(
    design: &ScanDesign,
    config: &PipelineConfig,
    program: TestProgram,
    faults: &[Fault],
) -> CompactionOutcome {
    compact_known(design, config, program, faults, None)
}

/// [`compact_program`], told which faults test 0 detects when the
/// caller already knows: `first[i]` for `faults[i]`. The pipeline's
/// compaction stage knows, because test 0 is the alternating sequence,
/// which step 1 simulated from the same all-X state against the same
/// faults; the pass then simulates every test but that one.
pub(crate) fn compact_known(
    design: &ScanDesign,
    config: &PipelineConfig,
    program: TestProgram,
    faults: &[Fault],
    first: Option<&[bool]>,
) -> CompactionOutcome {
    let threads = config.threads;
    match config.lane_width {
        LaneWidth::W64 => compact_wide::<u64>(design, program, faults, threads, first),
        LaneWidth::W256 => compact_wide::<R256>(design, program, faults, threads, first),
    }
}

/// [`compact_known`] at rail width `W`.
fn compact_wide<W: Rail>(
    design: &ScanDesign,
    program: TestProgram,
    faults: &[Fault],
    threads: usize,
    first: Option<&[bool]>,
) -> CompactionOutcome {
    let start = Instant::now();
    let n = program.len();
    let (per_test_rev, total, shards, mut counters) =
        detects_per_test::<W>(design, &program, faults, (0..n).rev(), threads, first);
    let mut keep: Vec<bool> = per_test_rev.iter().map(|d| !d.is_empty()).collect();
    if n > 0 {
        keep[0] = true; // the alternating sequence stays
    }
    let mut compacted = TestProgram::new();
    for (t, test) in program.into_tests().into_iter().enumerate() {
        if keep[t] {
            // Kept tests move into the compacted program; their vector
            // payloads are never copied.
            compacted.push(test);
        } else {
            counters.vectors_compacted += 1;
        }
    }
    let tests_after = compacted.len();
    CompactionOutcome {
        program: compacted,
        report: CompactionReport {
            tests_before: n,
            tests_after,
            detected_before: total,
            detected_after: total,
            lost: 0,
            metrics: StageMetrics::new(start.elapsed(), shards, counters),
        },
    }
}

/// Forward truncation: keeps the shortest prefix of the program that
/// still detects at least `coverage` (0.0–1.0) of the faults the full
/// program detects — the quantitative form of the paper's Figure-5
/// observation. Unlike [`compact_program`] this is deliberately lossy;
/// the coverage given up is reported in [`CompactionReport::lost`].
///
/// # Panics
///
/// Panics if `coverage` is not in `0.0..=1.0`.
pub fn truncate_to_coverage(
    design: &ScanDesign,
    program: &TestProgram,
    faults: &[Fault],
    coverage: f64,
    threads: usize,
) -> CompactionOutcome {
    assert!((0.0..=1.0).contains(&coverage), "coverage must be in 0..=1");
    let start = Instant::now();
    let n = program.len();
    let (per_test, total, shards, counters) =
        detects_per_test::<u64>(design, program, faults, 0..n, threads, None);
    let target = (total as f64 * coverage).ceil() as usize;
    let mut cum = 0usize;
    let mut cut = 0usize;
    for (t, d) in per_test.iter().enumerate() {
        cum += d.len();
        cut = t + 1;
        if cum >= target {
            break;
        }
    }
    let program_cut = program.truncated(cut.max(usize::from(n > 0)));
    let detected_after = cum.min(total);
    CompactionOutcome {
        report: CompactionReport {
            tests_before: n,
            tests_after: program_cut.len(),
            detected_before: total,
            detected_after,
            lost: total - detected_after,
            metrics: StageMetrics::new(start.elapsed(), shards, counters),
        },
        program: program_cut,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify_faults, Category};
    use crate::pipeline::PipelineSession;
    use fscan_fault::{all_faults, collapse};
    use fscan_netlist::{generate, GeneratorConfig};
    use fscan_scan::{insert_functional_scan, TpiConfig};
    use std::sync::Arc;

    fn setup() -> (Arc<ScanDesign>, TestProgram, Vec<Fault>) {
        let circuit = generate(&GeneratorConfig::new("cmp", 9).gates(120).dffs(8));
        let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default()).unwrap());
        let report = PipelineSession::shared(Arc::clone(&design), PipelineConfig::default()).run();
        let faults = collapse(design.circuit(), &all_faults(design.circuit()));
        let affected: Vec<Fault> = classify_faults(&design, &faults)
            .into_iter()
            .filter(|c| c.category != Category::Unaffected)
            .map(|c| c.fault)
            .collect();
        (design, report.program, affected)
    }

    /// `threads` workers on the 64-lane rail.
    fn config(threads: usize) -> PipelineConfig {
        PipelineConfig {
            threads,
            lane_width: LaneWidth::W64,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn reverse_compaction_preserves_coverage() {
        let (design, program, faults) = setup();
        let outcome = compact_program(&design, &config(1), program, &faults);
        assert_eq!(outcome.report.lost, 0, "reverse compaction is lossless");
        assert_eq!(
            outcome.report.detected_after,
            outcome.report.detected_before
        );
        assert!(outcome.report.tests_after <= outcome.report.tests_before);
        assert_eq!(outcome.program.len(), outcome.report.tests_after);
        assert_eq!(
            outcome.report.metrics.counters.vectors_compacted,
            outcome.report.removed() as u64
        );
        assert_eq!(outcome.program.tests()[0].label, "alternating");
    }

    #[test]
    fn compaction_is_thread_invariant() {
        let (design, program, faults) = setup();
        let serial = compact_program(&design, &config(1), program.clone(), &faults);
        let parallel = compact_program(&design, &config(4), program, &faults);
        assert_eq!(serial.report.tests_after, parallel.report.tests_after);
        assert_eq!(serial.report.detected_after, parallel.report.detected_after);
        assert_eq!(
            serial.report.metrics.counters,
            parallel.report.metrics.counters
        );
        assert_eq!(serial.program.tests().len(), parallel.program.tests().len());
        for (a, b) in serial.program.tests().iter().zip(parallel.program.tests()) {
            assert_eq!(a.vectors, b.vectors);
        }
    }

    #[test]
    fn truncation_trades_tests_for_coverage() {
        let (design, program, faults) = setup();
        let full = truncate_to_coverage(&design, &program, &faults, 1.0, 1);
        assert_eq!(full.report.detected_after, full.report.detected_before);
        assert_eq!(full.report.lost, 0);
        let half = truncate_to_coverage(&design, &program, &faults, 0.5, 1);
        assert!(half.report.tests_after <= full.report.tests_after);
        assert!(half.report.detected_after * 2 >= half.report.detected_before);
        assert_eq!(
            half.report.lost,
            half.report.detected_before - half.report.detected_after
        );
    }

    #[test]
    fn coverage_bounds_checked() {
        let (design, program, faults) = setup();
        let r =
            std::panic::catch_unwind(|| truncate_to_coverage(&design, &program, &faults, 1.5, 1));
        assert!(r.is_err());
    }
}
