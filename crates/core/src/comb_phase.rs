//! Step 2: combinational ATPG plus sequential fault simulation
//! (paper, Section 4).

use std::collections::HashMap;
use std::fmt;
use std::time::Instant;

use fscan_atpg::{AtpgOutcome, Podem};
use fscan_fault::Fault;
use fscan_netlist::NodeId;
use fscan_scan::ScanDesign;
use fscan_sim::kernel::{Rail, R256};
use fscan_sim::pool::shard_map_counted;
use fscan_sim::{LaneWidth, ParallelFaultSim, ShardStats, StageMetrics, WorkCounters, V3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pipeline::PipelineConfig;
use crate::program::ScanTest;
use crate::sequences::{load_vectors_with, scan_vector_layout, ScanSequence};

/// The result of the combinational phase (a Table 3 left half row).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CombPhaseReport {
    /// `|f_hard|` — faults targeted.
    pub targeted: usize,
    /// Really detected (confirmed by sequential fault simulation).
    pub detected: usize,
    /// Proven undetectable: combinationally undetectable in the
    /// scan-mode view. Recorded only under full scan, where that view
    /// controls every source and the proof soundly implies sequential
    /// undetectability; under partial scan the unchained flip-flops stay
    /// X, and step 3 decides such faults instead.
    pub undetectable: usize,
    /// Neither detected nor proven undetectable (input to step 3).
    pub undetected: usize,
    /// Scan-wrapped test windows generated.
    pub vectors: usize,
    /// Total simulated cycles.
    pub cycles: usize,
    /// Cumulative detections per simulated window: `(window, detected)`
    /// — the paper's Figure 5 series.
    pub detection_curve: Vec<(usize, usize)>,
    /// The stage's cost triple: wall-clock time, work distribution
    /// across PODEM-batch and confirmation-simulation workers
    /// (aggregated over all batch rounds and windows), and deterministic
    /// work counters (PODEM decisions/backtracks/aborts, event-driven
    /// and confirmation-simulation gate evaluations, windows formed,
    /// fault-dropping early exits, `faults_dropped`, `podem_shards` —
    /// bit-identical for every thread count).
    pub metrics: StageMetrics,
}

impl fmt::Display for CombPhaseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "comb ATPG + seq fault sim: {} targeted → {} detected, {} undetectable, {} undetected ({} vectors, {} cycles, {:.2}s)",
            self.targeted,
            self.detected,
            self.undetectable,
            self.undetected,
            self.vectors,
            self.cycles,
            self.metrics.cpu.as_secs_f64()
        )
    }
}

/// Outcome detail: which faults landed where.
#[derive(Clone, Debug, Default)]
pub struct CombPhaseOutcome {
    /// The aggregate report.
    pub report: CombPhaseReport,
    /// Faults confirmed detected.
    pub detected: Vec<Fault>,
    /// Faults proven undetectable.
    pub undetectable: Vec<Fault>,
    /// Faults left for step 3 (`f_remaining`).
    pub remaining: Vec<Fault>,
    /// The test windows that make up this phase's contribution to the
    /// final test program (targeted windows plus the random windows
    /// that detected something).
    pub program: Vec<ScanTest>,
}

/// Random scan windows fault-simulated against whatever the targeted
/// vectors leave undetected. The paper notes a random test set is the
/// natural simulation-based alternative to combinational ATPG here.
const RANDOM_WINDOWS: usize = 128;

/// Seed for the random top-up windows.
const RANDOM_SEED: u64 = 0xc0ffee;

/// Targets per sharded PODEM batch round. Batch composition is fixed
/// before the round starts (the next up-to-`PODEM_BATCH` still-pending
/// faults in input order), so the work done, and every counter, is
/// independent of the thread count serving it.
const PODEM_BATCH: usize = 64;

/// Step 2 of the paper: generate combinational tests for `f_hard` on the
/// scan-mode circuit view, wrap each in scan-in/scan-out shifting, and
/// confirm detection by sequential fault simulation (the fault may
/// damage the chain used to shift, masking itself).
///
/// The phase reads the session's [`PipelineConfig`]: the PODEM budget
/// per target (`podem`), the workers (`threads`) and the packed rail
/// width (`lane_width`). PODEM runs are sharded across independent
/// fault targets in fixed-composition batches; after every accepted
/// vector the packed fault simulator (64 or 256 lanes) re-drops the
/// *entire* remaining fault list, so one vector can retire dozens of
/// targets globally. Verdicts, programs and counters are identical for
/// every thread count, and verdicts and programs at every width.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{generate, GeneratorConfig};
/// use fscan_scan::{insert_functional_scan, TpiConfig};
/// use fscan::{classify_faults, Category, CombPhase, PipelineConfig};
/// use fscan_fault::{all_faults, collapse};
///
/// let circuit = generate(&GeneratorConfig::new("d", 4).gates(120).dffs(8));
/// let design = insert_functional_scan(&circuit, &TpiConfig::default())?;
/// let faults = collapse(design.circuit(), &all_faults(design.circuit()));
/// let hard: Vec<_> = classify_faults(&design, &faults)
///     .into_iter()
///     .filter(|c| c.category == Category::Hard)
///     .map(|c| c.fault)
///     .collect();
/// let config = PipelineConfig::default();
/// let outcome = CombPhase::new(&design, &config).run(&hard);
/// assert_eq!(
///     outcome.report.targeted,
///     outcome.report.detected + outcome.report.undetectable + outcome.report.undetected
/// );
/// # Ok::<(), fscan_scan::ScanError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CombPhase<'d> {
    design: &'d ScanDesign,
    config: &'d PipelineConfig,
}

impl<'d> CombPhase<'d> {
    /// Prepares the phase.
    pub fn new(design: &'d ScanDesign, config: &'d PipelineConfig) -> CombPhase<'d> {
        CombPhase { design, config }
    }

    /// Runs the phase over `hard` (the category-2 faults), dispatching
    /// on the configured [`LaneWidth`] to the monomorphized rail.
    pub fn run(&self, hard: &[Fault]) -> CombPhaseOutcome {
        match self.config.lane_width {
            LaneWidth::W64 => self.run_wide::<u64>(hard),
            LaneWidth::W256 => self.run_wide::<R256>(hard),
        }
    }

    fn run_wide<W: Rail>(&self, hard: &[Fault]) -> CombPhaseOutcome {
        let start = Instant::now();
        let circuit = self.design.circuit();
        let layout = scan_vector_layout(self.design);

        // Scan-mode combinational view: free PIs + scan-ins + every
        // flip-flop output are controllable; constrained PIs are fixed;
        // primary outputs and every flip-flop D net are observable.
        let inputs = circuit.inputs();
        let mut controllable: Vec<NodeId> = layout.free.iter().map(|&p| inputs[p]).collect();
        controllable.extend(layout.scan_in_pos.iter().map(|&p| inputs[p]));
        // Only *chained* flip-flops are loadable/observable — identical to
        // all flip-flops under full scan, a strict subset under partial
        // scan (the rest stay uncontrollable X state).
        let chained: Vec<NodeId> = self
            .design
            .chains()
            .iter()
            .flat_map(|ch| ch.cells.iter().map(|cell| cell.ff))
            .collect();
        controllable.extend(chained.iter().copied());
        let fixed: Vec<(NodeId, bool)> = self.design.constraints().to_vec();
        let mut observable: Vec<NodeId> = circuit.outputs().to_vec();
        observable.extend(chained.iter().map(|&ff| circuit.node(ff).fanin()[0]));
        observable.sort();
        observable.dedup();
        // A proof in this view is a proof of sequential undetectability
        // only when the view is exact, which needs every flip-flop
        // chained: every input is then free, a scan-in or constrained.
        // Under partial scan an `Undetectable` search leaves its fault
        // pending, and step 3's full-scan check decides it.
        let full_scan = chained.len() == circuit.dffs().len();
        let podem = Podem::with_topology(self.design.topology(), controllable, fixed, observable);

        let max_len = self.design.max_chain_len();
        let window_len = 2 * max_len + 2;
        let sim = ParallelFaultSim::<W>::with_topology_wide(self.design.topology());
        let init = vec![V3::X; circuit.dffs().len()];

        let mut status: Vec<Status> = vec![Status::Pending; hard.len()];
        let mut curve: Vec<(usize, usize)> = Vec::new();
        let mut windows = 0usize;
        let mut detected_total = 0usize;
        let mut program: Vec<ScanTest> = Vec::new();
        let mut shards = ShardStats::default();
        let mut counters = WorkCounters::ZERO;
        // One shared engine for the whole phase; its construction pass
        // is charged once, however many shard workers borrow it.
        counters += podem.setup_work();

        let mut cursor = 0usize;
        while cursor < hard.len() {
            // Fixed-composition batch: the next up-to-`PODEM_BATCH`
            // still-pending faults in input order. Composition depends
            // only on earlier verdicts, never on the thread count.
            let mut batch: Vec<usize> = Vec::with_capacity(PODEM_BATCH);
            while cursor < hard.len() && batch.len() < PODEM_BATCH {
                if status[cursor] == Status::Pending {
                    batch.push(cursor);
                } else {
                    // Fault dropping: the target was already resolved by
                    // an earlier window, so its ATPG run never happens.
                    counters.early_exits += 1;
                }
                cursor += 1;
            }
            if batch.is_empty() {
                continue;
            }
            // Shard PODEM across the batch's independent targets. Every
            // batch member runs regardless of how the chunks were cut,
            // and each run's counters are a pure function of the fault,
            // so the harvested sums are thread-invariant.
            counters.podem_shards += 1;
            let targets: Vec<Fault> = batch.iter().map(|&i| hard[i]).collect();
            let (outcomes, bstats, bwork) = shard_map_counted(
                self.config.threads,
                1,
                &targets,
                || podem.scratch(),
                |scratch, _base, chunk| {
                    let mut work = WorkCounters::ZERO;
                    let outs: Vec<_> = chunk
                        .iter()
                        .map(|f| {
                            let out = podem.run_with_scratch(scratch, &[*f], &self.config.podem);
                            work += out.work;
                            out
                        })
                        .collect();
                    (outs, work)
                },
            );
            shards.absorb(&bstats);
            counters += bwork;
            // Deterministic order-preserving merge: outcomes are applied
            // in batch (input) order, so the first generating shard wins
            // and later vectors whose target was meanwhile dropped are
            // discarded (re-dropped against the merged vectors).
            for (k, &i) in batch.iter().enumerate() {
                match &outcomes[k].verdict {
                    AtpgOutcome::Undetectable => {
                        if full_scan && status[i] == Status::Pending {
                            status[i] = Status::Undetectable;
                        }
                    }
                    AtpgOutcome::Aborted => {}
                    AtpgOutcome::Test(assignments) => {
                        if status[i] != Status::Pending {
                            // An earlier vector of this batch already
                            // resolved the target: the redundant vector
                            // is dropped at merge time.
                            counters.early_exits += 1;
                            continue;
                        }
                        let window = self.test_window(&layout, assignments, window_len);
                        windows += 1;
                        counters.windows_formed += 1;
                        program.push(ScanTest::new(format!("comb {}", hard[i]), window.clone()));
                        // Global fault dropping: simulate this window
                        // against the *entire* remaining fault list
                        // (windows fully re-load state, so per-window
                        // simulation from X state is exact).
                        let pending: Vec<usize> = (0..hard.len())
                            .filter(|&j| status[j] == Status::Pending)
                            .collect();
                        let faults: Vec<Fault> = pending.iter().map(|&j| hard[j]).collect();
                        let (det, wstats, wwork) =
                            sim.fault_sim_sharded(&window, &init, &faults, self.config.threads);
                        shards.absorb(&wstats);
                        counters += wwork;
                        for (k2, d) in det.into_iter().enumerate() {
                            if d.is_some() {
                                let j = pending[k2];
                                status[j] = Status::Detected;
                                detected_total += 1;
                                if j != i {
                                    counters.faults_dropped += 1;
                                }
                            }
                        }
                        curve.push((windows, detected_total));
                    }
                }
            }
        }

        // Random top-up: fault-simulate random scan windows (random
        // load state + random free-PI values) against whatever the
        // targeted vectors left pending.
        if RANDOM_WINDOWS > 0 && status.contains(&Status::Pending) {
            let mut rng = StdRng::seed_from_u64(RANDOM_SEED);
            let pending: Vec<usize> = (0..hard.len())
                .filter(|&j| status[j] == Status::Pending)
                .collect();
            let faults: Vec<Fault> = pending.iter().map(|&j| hard[j]).collect();
            let mut sequence: Vec<Vec<V3>> = Vec::new();
            for _ in 0..RANDOM_WINDOWS {
                sequence.extend(self.random_window(&layout, &mut rng, window_len));
            }
            counters.windows_formed += RANDOM_WINDOWS as u64;
            let (det, rstats, rwork) =
                sim.fault_sim_sharded(&sequence, &init, &faults, self.config.threads);
            shards.absorb(&rstats);
            counters += rwork;
            let mut newly = Vec::new();
            for (k, d) in det.into_iter().enumerate() {
                if let Some(cycle) = d {
                    status[pending[k]] = Status::Detected;
                    newly.push(cycle / window_len);
                }
            }
            newly.sort_unstable();
            for &w in &newly {
                detected_total += 1;
                curve.push((windows + w + 1, detected_total));
            }
            // Keep only the random windows that detected something.
            newly.dedup();
            for w in newly {
                let slice = sequence[w * window_len..(w + 1) * window_len].to_vec();
                program.push(ScanTest::new(format!("random {w}"), slice));
            }
            windows += RANDOM_WINDOWS;
        }

        let mut detected = Vec::new();
        let mut undetectable = Vec::new();
        let mut remaining = Vec::new();
        for (i, &f) in hard.iter().enumerate() {
            match status[i] {
                Status::Detected => detected.push(f),
                Status::Undetectable => undetectable.push(f),
                Status::Pending => remaining.push(f),
            }
        }
        let report = CombPhaseReport {
            targeted: hard.len(),
            detected: detected.len(),
            undetectable: undetectable.len(),
            undetected: remaining.len(),
            vectors: windows,
            cycles: windows * window_len,
            detection_curve: curve,
            metrics: StageMetrics::new(start.elapsed(), shards, counters),
        };
        CombPhaseOutcome {
            report,
            detected,
            undetectable,
            remaining,
            program,
        }
    }

    /// One random scan window: random chain load, random free-PI values
    /// held throughout, then a full shift-out.
    fn random_window(
        &self,
        layout: &ScanSequence,
        rng: &mut StdRng,
        window_len: usize,
    ) -> Vec<Vec<V3>> {
        let states: Vec<Vec<bool>> = self
            .design
            .chains()
            .iter()
            .map(|chain| (0..chain.len()).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        let pi_values: Vec<(usize, bool)> = layout
            .free
            .iter()
            .map(|&p| (p, rng.gen_bool(0.5)))
            .collect();
        let mut vectors = load_vectors_with(self.design, layout, &states);
        for v in &mut vectors {
            for &(p, val) in &pi_values {
                v[p] = V3::from_bool(val);
            }
        }
        while vectors.len() < window_len {
            let mut v = layout.base_vector();
            for &(p, val) in &pi_values {
                v[p] = V3::from_bool(val);
            }
            vectors.push(v);
        }
        vectors
    }

    /// Expands one PODEM test into a scan window: load the required
    /// state through the chains, then keep shifting while holding the
    /// test's primary-input values so the combinational response and the
    /// captured chain contents reach the outputs.
    fn test_window(
        &self,
        layout: &ScanSequence,
        assignments: &[(NodeId, bool)],
        window_len: usize,
    ) -> Vec<Vec<V3>> {
        let circuit = self.design.circuit();
        let assign: HashMap<NodeId, bool> = assignments.iter().copied().collect();
        // Desired flip-flop state per chain (don't-cares → 0).
        let states: Vec<Vec<bool>> = self
            .design
            .chains()
            .iter()
            .map(|chain| {
                chain
                    .cells
                    .iter()
                    .map(|cell| assign.get(&cell.ff).copied().unwrap_or(false))
                    .collect()
            })
            .collect();
        let mut vectors = load_vectors_with(self.design, layout, &states);
        // Hold the test's free-PI values through the whole window.
        let pi_values: Vec<(usize, bool)> = layout
            .free
            .iter()
            .chain(layout.scan_in_pos.iter())
            .filter_map(|&p| assign.get(&circuit.inputs()[p]).map(|&v| (p, v)))
            .collect();
        for v in &mut vectors {
            for &(p, val) in &pi_values {
                // Scan-in pins carry the load stream; only free pins are
                // overridden during the load phase.
                if !layout.scan_in_pos.contains(&p) {
                    v[p] = V3::from_bool(val);
                }
            }
        }
        // Shift-out phase.
        while vectors.len() < window_len {
            let mut v = layout.base_vector();
            for &(p, val) in &pi_values {
                v[p] = V3::from_bool(val);
            }
            vectors.push(v);
        }
        vectors
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Status {
    Pending,
    Detected,
    Undetectable,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscan_fault::{all_faults, collapse};
    use fscan_netlist::{generate, GeneratorConfig};
    use fscan_scan::{insert_functional_scan, TpiConfig};

    use crate::classify::{classify_faults, Category};
    use fscan_atpg::PodemConfig;

    /// One thread and PODEM's own default budget, not the session's
    /// 100k step limit.
    fn config() -> PipelineConfig {
        PipelineConfig {
            podem: PodemConfig::default(),
            threads: 1,
            ..PipelineConfig::default()
        }
    }

    fn hard_faults(design: &ScanDesign) -> Vec<Fault> {
        let faults = collapse(design.circuit(), &all_faults(design.circuit()));
        classify_faults(design, &faults)
            .into_iter()
            .filter(|c| c.category == Category::Hard)
            .map(|c| c.fault)
            .collect()
    }

    #[test]
    fn resolves_most_hard_faults() {
        let mut total_hard = 0usize;
        let mut total_resolved = 0usize;
        for seed in [41u64, 43, 47] {
            let circuit = generate(&GeneratorConfig::new("d", seed).gates(200).dffs(12));
            let design = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
            let hard = hard_faults(&design);
            let outcome = CombPhase::new(&design, &config()).run(&hard);
            total_hard += hard.len();
            total_resolved += outcome.report.detected + outcome.report.undetectable;
            // Bookkeeping invariants.
            assert_eq!(
                outcome.report.targeted,
                outcome.report.detected + outcome.report.undetectable + outcome.report.undetected
            );
            assert_eq!(outcome.detected.len(), outcome.report.detected);
            assert_eq!(outcome.remaining.len(), outcome.report.undetected);
        }
        assert!(total_hard > 0, "suite should produce hard faults");
        // The paper resolves all but ~0.6% of chain-affecting faults in
        // this step; demand at least 80% here across seeds.
        assert!(
            total_resolved * 10 >= total_hard * 8,
            "{total_resolved}/{total_hard} hard faults resolved"
        );
    }

    #[test]
    fn detection_curve_is_monotone_and_saturating() {
        let circuit = generate(&GeneratorConfig::new("d", 53).gates(250).dffs(14));
        let design = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
        let hard = hard_faults(&design);
        let outcome = CombPhase::new(&design, &config()).run(&hard);
        let curve = &outcome.report.detection_curve;
        for w in curve.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        if let Some(&(_, last)) = curve.last() {
            assert_eq!(last, outcome.report.detected);
        }
    }

    #[test]
    fn outcome_is_identical_across_thread_counts() {
        let circuit = generate(&GeneratorConfig::new("d", 43).gates(200).dffs(12));
        let design = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
        let hard = hard_faults(&design);
        let serial = CombPhase::new(&design, &config()).run(&hard);
        let parallel = CombPhase::new(
            &design,
            &PipelineConfig {
                threads: 4,
                ..config()
            },
        )
        .run(&hard);
        assert_eq!(serial.detected, parallel.detected);
        assert_eq!(serial.undetectable, parallel.undetectable);
        assert_eq!(serial.remaining, parallel.remaining);
        assert_eq!(
            serial.report.detection_curve,
            parallel.report.detection_curve
        );
        assert_eq!(
            serial.report.metrics.counters, parallel.report.metrics.counters,
            "work counters must not depend on threads"
        );
        assert_eq!(serial.program.len(), parallel.program.len());
        for (a, b) in serial.program.iter().zip(parallel.program.iter()) {
            assert_eq!(a.vectors, b.vectors);
        }
    }

    #[test]
    fn empty_hard_list_is_noop() {
        let circuit = generate(&GeneratorConfig::new("d", 5).gates(60).dffs(4));
        let design = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
        let outcome = CombPhase::new(&design, &config()).run(&[]);
        assert_eq!(outcome.report.targeted, 0);
        assert_eq!(outcome.report.vectors, 0);
        assert!(outcome.remaining.is_empty());
    }
}
