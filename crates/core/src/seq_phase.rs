//! Step 3: targeted sequential ATPG with enhanced controllability and
//! observability (paper, Section 5).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use fscan_atpg::{SeqAtpg, SeqAtpgConfig, SeqOutcome, SeqTest};
use fscan_fault::Fault;
use fscan_netlist::NodeId;
use fscan_scan::ScanDesign;
use fscan_sim::{shard_map_counted, ParallelFaultSim, ShardStats, StageMetrics, WorkCounters, V3};

use crate::classify::ChainLocation;
use crate::pipeline::PipelineConfig;
use crate::program::ScanTest;
use crate::sequences::{load_vectors_with, scan_vector_layout, ScanSequence};

/// Per-chain fault extent: chain index → (first, last) affected cell.
type Extent = HashMap<usize, (usize, usize)>;

/// One sharded ATPG batch: `(fault index, extent)` pairs whose attempts
/// are mutually independent. Extents are shared, not cloned: every
/// follower riding a seed's circuit points at the seed's extent map.
type Batch = Vec<(usize, Arc<Extent>)>;

/// The paper's grouping distance parameters.
///
/// In the paper's experiments: `LARGE_DIST = max(0.6·maxsize, 50)`,
/// `MED_DIST = max(0.25·maxsize, 25)`, `DIST = max(0.15·maxsize, 20)`,
/// where `maxsize` is the longest chain length.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct DistParams {
    /// Faults spanning at least this many cells are handled one by one.
    pub large: usize,
    /// Spans in `[med, large)` share a circuit with compatible faults.
    pub med: usize,
    /// Group-3 faults are packed into groups of union span ≤ `dist`.
    pub dist: usize,
}

impl DistParams {
    /// The paper's parameter schedule for a given longest chain length.
    pub fn paper(maxsize: usize) -> DistParams {
        DistParams {
            large: ((maxsize as f64 * 0.6) as usize).max(50),
            med: ((maxsize as f64 * 0.25) as usize).max(25),
            dist: ((maxsize as f64 * 0.15) as usize).max(20),
        }
    }

    /// A schedule scaled purely to the chain length (no absolute
    /// floors), useful for small circuits where the paper's floors of
    /// 50/25/20 would disable grouping entirely.
    pub fn scaled(maxsize: usize) -> DistParams {
        DistParams {
            large: ((maxsize as f64 * 0.6) as usize).max(3),
            med: ((maxsize as f64 * 0.25) as usize).max(2),
            dist: ((maxsize as f64 * 0.15) as usize).max(1),
        }
    }
}

/// The result of the sequential phase (a Table 3 right half row).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SeqPhaseReport {
    /// Faults targeted (`|f_remaining|`).
    pub targeted: usize,
    /// Detected (ATPG found a sequence and sequential fault simulation
    /// confirmed it).
    pub detected: usize,
    /// ATPG found a sequence that simulation could not confirm
    /// (X-pessimism); counted as undetected.
    pub unconfirmed: usize,
    /// Proven undetectable.
    pub undetectable: usize,
    /// Still undetected after the final pass.
    pub undetected: usize,
    /// Enhanced-controllability/observability circuits created for the
    /// initial grouped pass (first number of the paper's `#circ`).
    pub circuits_initial: usize,
    /// Circuits created for the final per-fault pass (second number).
    pub circuits_final: usize,
    /// The stage's cost triple: wall-clock time, work distribution
    /// across ATPG-attempt workers (aggregated over the grouped and
    /// final passes), and deterministic work counters (PODEM
    /// decisions/backtracks/aborts, verification-simulation gate
    /// evaluations, circuits formed, already-resolved skips —
    /// bit-identical for every thread count).
    pub metrics: StageMetrics,
}

impl fmt::Display for SeqPhaseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sequential ATPG: {} targeted → {} detected, {} undetectable, {} undetected ({} + {} circuits, {:.2}s)",
            self.targeted,
            self.detected,
            self.undetectable,
            self.undetected,
            self.circuits_initial,
            self.circuits_final,
            self.metrics.cpu.as_secs_f64()
        )
    }
}

/// Outcome detail of the sequential phase.
#[derive(Clone, Debug, Default)]
pub struct SeqPhaseOutcome {
    /// The aggregate report.
    pub report: SeqPhaseReport,
    /// Confirmed-detected faults.
    pub detected: Vec<Fault>,
    /// Proven-undetectable faults.
    pub undetectable: Vec<Fault>,
    /// Still-undetected faults.
    pub remaining: Vec<Fault>,
    /// The confirmed test sequences this phase contributes to the test
    /// program.
    pub program: Vec<ScanTest>,
}

/// Step 3: exploit fault-location information. For a fault affecting
/// chain locations `l_min..l_max`, the chain before `l_min` is
/// fault-free (fully controllable) and from `l_max` on it is fault-free
/// (fully observable); unaffected chains are both. Faults are grouped by
/// span to bound the number of ATPG circuit models (paper, Section 5 and
/// Figure 4).
///
/// # Examples
///
/// ```
/// use fscan_netlist::{generate, GeneratorConfig};
/// use fscan_scan::{insert_functional_scan, TpiConfig};
/// use fscan::{classify_faults, Category, CombPhase, PipelineConfig, SeqPhase};
/// use fscan_fault::{all_faults, collapse};
///
/// let circuit = generate(&GeneratorConfig::new("d", 4).gates(120).dffs(8));
/// let design = insert_functional_scan(&circuit, &TpiConfig::default())?;
/// let faults = collapse(design.circuit(), &all_faults(design.circuit()));
/// let classified = classify_faults(&design, &faults);
/// let hard: Vec<_> = classified
///     .iter()
///     .filter(|c| c.category == Category::Hard)
///     .map(|c| c.fault)
///     .collect();
/// let config = PipelineConfig::default();
/// let comb = CombPhase::new(&design, &config).run(&hard);
/// // Step 3 targets what step 2 left, at the chain locations
/// // classification found for each fault.
/// let locations: Vec<_> = comb
///     .remaining
///     .iter()
///     .map(|f| classified.iter().find(|c| c.fault == *f).unwrap().locations.clone())
///     .collect();
/// let outcome = SeqPhase::new(&design, &config).run(&comb.remaining, &locations);
/// assert_eq!(
///     outcome.report.targeted,
///     outcome.report.detected + outcome.report.undetectable + outcome.report.undetected
/// );
/// # Ok::<(), fscan_scan::ScanError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SeqPhase<'d> {
    design: &'d ScanDesign,
    dist: DistParams,
    config: SeqAtpgConfig,
    final_config: SeqAtpgConfig,
    threads: usize,
}

/// What every attempt of one [`SeqPhase::run`] reads, built once per
/// run: the scan-mode input layout and each chain cell's flip-flop.
struct ScanAccess {
    layout: ScanSequence,
    /// `cell_ff[c][k]`: index into `Circuit::dffs` of chain `c`'s cell `k`.
    cell_ff: Vec<Vec<usize>>,
}

impl ScanAccess {
    fn new(design: &ScanDesign) -> ScanAccess {
        let ff_pos: HashMap<NodeId, usize> = design
            .circuit()
            .dffs()
            .iter()
            .enumerate()
            .map(|(k, &ff)| (ff, k))
            .collect();
        let cell_ff = design
            .chains()
            .iter()
            .map(|chain| {
                chain
                    .cells
                    .iter()
                    .map(|cell| {
                        *ff_pos
                            .get(&cell.ff)
                            .expect("chain cell is a circuit flip-flop")
                    })
                    .collect()
            })
            .collect();
        ScanAccess {
            layout: scan_vector_layout(design),
            cell_ff,
        }
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Status {
    Pending,
    Detected,
    Unconfirmed,
    Undetectable,
}

impl<'d> SeqPhase<'d> {
    /// Prepares the phase from the session's [`PipelineConfig`]: the
    /// grouping distances `dist` (the paper's schedule,
    /// [`DistParams::paper`], on the longest chain when `None`), the
    /// grouped-pass and final-pass budgets `seq` and `final_seq`, and
    /// the workers `threads` (`0` = hardware thread count) the per-fault
    /// attempts shard across. Both frame budgets rise to at least the
    /// longest chain plus 4, so a fault effect can traverse the whole
    /// chain. Grouping decisions, attempt results and program order are
    /// identical for every thread count: each attempt is independent,
    /// and batches are merged in the order the serial algorithm visits
    /// them.
    pub fn new(design: &'d ScanDesign, config: &PipelineConfig) -> SeqPhase<'d> {
        let max_len = design.max_chain_len();
        let scaled = |budget: SeqAtpgConfig| SeqAtpgConfig {
            max_frames: budget.max_frames.max(max_len + 4),
            ..budget
        };
        SeqPhase {
            design,
            dist: config.dist.unwrap_or_else(|| DistParams::paper(max_len)),
            config: scaled(config.seq),
            final_config: scaled(config.final_seq),
            threads: config.threads,
        }
    }

    /// Runs the phase. `faults[i]` affects `locations[i]` (as produced
    /// by classification); every fault must affect at least one chain.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length.
    pub fn run(&self, faults: &[Fault], locations: &[Vec<ChainLocation>]) -> SeqPhaseOutcome {
        assert_eq!(faults.len(), locations.len());
        let start = Instant::now();
        let mut status = vec![Status::Pending; faults.len()];
        let mut program: Vec<ScanTest> = Vec::new();
        let mut circuits_initial = 0usize;
        let mut shards = ShardStats::default();
        let mut counters = WorkCounters::ZERO;
        let access = ScanAccess::new(self.design);

        // Span and chain-extent helpers.
        let chain_of = |locs: &[ChainLocation]| -> Option<usize> {
            let first = locs.first()?.chain;
            locs.iter().all(|l| l.chain == first).then_some(first)
        };
        let span = |locs: &[ChainLocation]| -> usize {
            let min = locs.iter().map(|l| l.cell).min().unwrap_or(0);
            let max = locs.iter().map(|l| l.cell).max().unwrap_or(0);
            max - min
        };

        // Group assignment (paper §5): multi-chain faults and wide
        // single-chain faults go to group 1; medium spans to group 2;
        // the rest (including single-location faults) to group 3.
        let mut group1 = Vec::new();
        let mut group2 = Vec::new();
        let mut group3 = Vec::new();
        for (i, locs) in locations.iter().enumerate() {
            if locs.is_empty() {
                // Defensive: a fault with no location cannot use the
                // enhanced models; treat as group 1 with no enhancement.
                group1.push(i);
                continue;
            }
            match chain_of(locs) {
                None => group1.push(i),
                Some(_) => {
                    let s = span(locs);
                    if locs.len() > 1 && s >= self.dist.large {
                        group1.push(i);
                    } else if locs.len() > 1 && s >= self.dist.med {
                        group2.push(i);
                    } else {
                        group3.push(i);
                    }
                }
            }
        }

        // Group 1: one circuit per fault. Every attempt is independent,
        // so the whole group is one sharded batch.
        circuits_initial += group1.len();
        let batch: Batch = group1
            .iter()
            .map(|&i| (i, Arc::new(self.extent_map(&locations[i]))))
            .collect();
        self.run_batch(
            &access,
            &batch,
            faults,
            &self.config,
            &mut status,
            &mut program,
            &mut shards,
            &mut counters,
        );

        // Group 2: the seed fault's circuit is shared with compatible
        // same-chain faults (their locations inside the seed's window).
        // Which faults ride on a seed's circuit depends on the statuses
        // left by earlier seeds, so seeds advance serially with a
        // barrier; within one seed's window, the seed and its followers
        // only ever change their own status, so the batch itself shards.
        for &i in &group2 {
            if status[i] != Status::Pending {
                counters.early_exits += 1;
                continue;
            }
            circuits_initial += 1;
            let extent = self.extent_map(&locations[i]);
            let seed_chain = chain_of(&locations[i]).expect("group 2 is single-chain");
            let (cmin, omax) = extent[&seed_chain];
            let extent = Arc::new(extent);
            let mut batch = vec![(i, Arc::clone(&extent))];
            for &j in group2.iter().chain(group3.iter()) {
                if j == i || status[j] != Status::Pending {
                    continue;
                }
                if chain_of(&locations[j]) == Some(seed_chain) {
                    let jmin = locations[j].iter().map(|l| l.cell).min().unwrap_or(0);
                    let jmax = locations[j].iter().map(|l| l.cell).max().unwrap_or(0);
                    if jmin >= cmin && jmax <= omax {
                        batch.push((j, Arc::clone(&extent)));
                    }
                }
            }
            self.run_batch(
                &access,
                &batch,
                faults,
                &self.config,
                &mut status,
                &mut program,
                &mut shards,
                &mut counters,
            );
        }

        // Group 3: pack same-chain faults into windows of union span
        // ≤ DIST (paper, Figure 4c), one circuit per window. Window
        // membership is fixed once the group-2 statuses are known
        // (BTreeMap: chains in index order, so program order does not
        // depend on hash iteration), so all windows shard as one batch.
        let mut by_chain: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &i in &group3 {
            if status[i] != Status::Pending {
                counters.early_exits += 1;
                continue;
            }
            let c = chain_of(&locations[i]).expect("group 3 is single-chain");
            by_chain.entry(c).or_default().push(i);
        }
        let mut batch: Batch = Vec::new();
        for (chain, mut idxs) in by_chain {
            idxs.sort_by_key(|&i| locations[i].iter().map(|l| l.cell).min().unwrap_or(0));
            let mut k = 0;
            while k < idxs.len() {
                let gmin = locations[idxs[k]].iter().map(|l| l.cell).min().unwrap();
                let mut gmax = locations[idxs[k]].iter().map(|l| l.cell).max().unwrap();
                let mut group = vec![idxs[k]];
                let mut next = k + 1;
                while next < idxs.len() {
                    let jmax = locations[idxs[next]].iter().map(|l| l.cell).max().unwrap();
                    if jmax.max(gmax) - gmin <= self.dist.dist {
                        gmax = gmax.max(jmax);
                        group.push(idxs[next]);
                        next += 1;
                    } else {
                        break;
                    }
                }
                k = next;
                circuits_initial += 1;
                let mut extent = HashMap::new();
                extent.insert(chain, (gmin, gmax));
                let extent = Arc::new(extent);
                batch.extend(group.into_iter().map(|i| (i, Arc::clone(&extent))));
            }
        }
        self.run_batch(
            &access,
            &batch,
            faults,
            &self.config,
            &mut status,
            &mut program,
            &mut shards,
            &mut counters,
        );

        // Final pass: remaining faults individually, with more budget —
        // independent attempts, one sharded batch.
        let batch: Batch = (0..faults.len())
            .filter(|&i| status[i] == Status::Pending || status[i] == Status::Unconfirmed)
            .map(|i| (i, Arc::new(self.extent_map(&locations[i]))))
            .collect();
        let circuits_final = batch.len();
        self.run_batch(
            &access,
            &batch,
            faults,
            &self.final_config,
            &mut status,
            &mut program,
            &mut shards,
            &mut counters,
        );

        let mut detected = Vec::new();
        let mut undetectable = Vec::new();
        let mut remaining = Vec::new();
        let mut unconfirmed = 0usize;
        for (i, &f) in faults.iter().enumerate() {
            match status[i] {
                Status::Detected => detected.push(f),
                Status::Undetectable => undetectable.push(f),
                Status::Unconfirmed => {
                    unconfirmed += 1;
                    remaining.push(f);
                }
                Status::Pending => remaining.push(f),
            }
        }
        counters.windows_formed += (circuits_initial + circuits_final) as u64;
        let report = SeqPhaseReport {
            targeted: faults.len(),
            detected: detected.len(),
            unconfirmed,
            undetectable: undetectable.len(),
            undetected: remaining.len(),
            circuits_initial,
            circuits_final,
            metrics: StageMetrics::new(start.elapsed(), shards, counters),
        };
        SeqPhaseOutcome {
            report,
            detected,
            undetectable,
            remaining,
            program,
        }
    }

    /// Per-chain `(first, last)` affected cell of a fault.
    fn extent_map(&self, locs: &[ChainLocation]) -> Extent {
        let mut map: Extent = HashMap::new();
        for l in locs {
            let e = map.entry(l.chain).or_insert((l.cell, l.cell));
            e.0 = e.0.min(l.cell);
            e.1 = e.1.max(l.cell);
        }
        map
    }

    /// Runs one batch of independent `(fault index, extent)` attempts,
    /// sharded across the phase's workers, and applies the results —
    /// status updates and program tests — in batch order, matching what
    /// a serial walk of the batch would produce.
    #[allow(clippy::too_many_arguments)]
    fn run_batch(
        &self,
        access: &ScanAccess,
        batch: &[(usize, Arc<Extent>)],
        faults: &[Fault],
        config: &SeqAtpgConfig,
        status: &mut [Status],
        program: &mut Vec<ScanTest>,
        shards: &mut ShardStats,
        counters: &mut WorkCounters,
    ) {
        if batch.is_empty() {
            return;
        }
        let (results, stats, work) = shard_map_counted(
            self.threads,
            1,
            batch,
            || (),
            |_, _, chunk| {
                let mut chunk_work = WorkCounters::ZERO;
                let results = chunk
                    .iter()
                    .map(|(i, extent)| {
                        let (outcome, test, work) =
                            self.attempt(access, faults[*i], extent, config);
                        chunk_work += work;
                        (outcome, test)
                    })
                    .collect();
                (results, chunk_work)
            },
        );
        shards.absorb(&stats);
        *counters += work;
        for ((i, _), (outcome, test)) in batch.iter().zip(results) {
            if let Some(s) = outcome {
                status[*i] = s;
            }
            if let Some(t) = test {
                program.push(t);
            }
        }
    }

    /// Builds the enhanced view for an extent map, runs sequential ATPG
    /// for one fault, and verifies any test by fault simulation.
    /// Returns the status change (`None` for an aborted attempt) and the
    /// confirmed test, if any.
    fn attempt(
        &self,
        access: &ScanAccess,
        fault: Fault,
        extent: &Extent,
        config: &SeqAtpgConfig,
    ) -> (Option<Status>, Option<ScanTest>, WorkCounters) {
        let mut controllable = Vec::new();
        let mut observable = Vec::new();
        for (c, cells) in access.cell_ff.iter().enumerate() {
            match extent.get(&c) {
                Some(&(cmin, omax)) => {
                    for (k, &ff) in cells.iter().enumerate() {
                        if k < cmin {
                            controllable.push(ff);
                        }
                        if k >= omax {
                            observable.push(ff);
                        }
                    }
                }
                None => {
                    // Unaffected chain: fully controllable and observable.
                    controllable.extend_from_slice(cells);
                    observable.extend_from_slice(cells);
                }
            }
        }
        let atpg = SeqAtpg::with_topology(self.design.circuit(), self.design.topology())
            .controllable_ffs(controllable)
            .observable_ffs(observable)
            .fixed_pis(access.layout.constrained.clone());
        let (out, mut work) = atpg.run(fault, config);
        match out {
            SeqOutcome::Undetectable => (Some(Status::Undetectable), None, work),
            SeqOutcome::Aborted => (None, None, work),
            SeqOutcome::Test(test) => {
                let (vectors, verify_work) = self.verify(access, fault, &test);
                work += verify_work;
                match vectors {
                    Some(vectors) => (
                        Some(Status::Detected),
                        Some(ScanTest::new(format!("seq {fault}"), vectors)),
                        work,
                    ),
                    None => (Some(Status::Unconfirmed), None, work),
                }
            }
        }
    }

    /// Realizes a sequential test as a concrete scan sequence — scan-in
    /// load, the ATPG frames, then a full shift-out — and confirms the
    /// fault is really detected by sequential fault simulation.
    fn verify(
        &self,
        access: &ScanAccess,
        fault: Fault,
        test: &SeqTest,
    ) -> (Option<Vec<Vec<V3>>>, WorkCounters) {
        let layout = &access.layout;
        // Desired load per chain from the required initial state.
        let states: Vec<Vec<bool>> = access
            .cell_ff
            .iter()
            .map(|cells| {
                cells
                    .iter()
                    .map(|&pos| test.init_state[pos].unwrap_or(false))
                    .collect()
            })
            .collect();
        let mut vectors = load_vectors_with(self.design, layout, &states);
        for frame in &test.vectors {
            let mut v = layout.base_vector();
            for (k, val) in frame.iter().enumerate() {
                if let Some(b) = val {
                    v[k] = V3::from_bool(*b);
                }
            }
            vectors.push(v);
        }
        for _ in 0..self.design.max_chain_len() + 2 {
            vectors.push(layout.base_vector());
        }
        // Event-driven confirmation: one good trace, then a single-fault
        // word replayed against it inside the fault's fanout cone.
        let sim = ParallelFaultSim::with_topology(self.design.topology());
        let init = vec![V3::X; self.design.circuit().dffs().len()];
        let (det, _, work) = sim.fault_sim_sharded(&vectors, &init, &[fault], 1);
        (det[0].is_some().then_some(vectors), work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscan_fault::{all_faults, collapse};
    use fscan_netlist::{generate, GeneratorConfig};
    use fscan_scan::{insert_functional_scan, TpiConfig};

    use crate::classify::{classify_faults, Category};
    use crate::comb_phase::CombPhase;
    use fscan_atpg::PodemConfig;

    #[test]
    fn dist_params_paper_schedule() {
        let p = DistParams::paper(200);
        assert_eq!(p.large, 120);
        assert_eq!(p.med, 50);
        assert_eq!(p.dist, 30);
        let small = DistParams::paper(10);
        assert_eq!((small.large, small.med, small.dist), (50, 25, 20));
        let scaled = DistParams::scaled(10);
        assert_eq!((scaled.large, scaled.med, scaled.dist), (6, 2, 1));
    }

    #[test]
    fn resolves_leftovers_from_comb_phase() {
        let mut targeted = 0usize;
        let mut resolved = 0usize;
        for seed in [61u64, 67, 71, 73] {
            let circuit = generate(&GeneratorConfig::new("d", seed).gates(200).dffs(12));
            let design = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
            let faults = collapse(design.circuit(), &all_faults(design.circuit()));
            let classified = classify_faults(&design, &faults);
            let hard: Vec<Fault> = classified
                .iter()
                .filter(|c| c.category == Category::Hard)
                .map(|c| c.fault)
                .collect();
            // One thread and PODEM's own default budget, not the
            // session's 100k step limit.
            let config = PipelineConfig {
                podem: PodemConfig::default(),
                threads: 1,
                ..PipelineConfig::default()
            };
            let comb = CombPhase::new(&design, &config).run(&hard);
            if comb.remaining.is_empty() {
                continue;
            }
            let loc_of: HashMap<Fault, Vec<ChainLocation>> = classified
                .iter()
                .map(|c| (c.fault, c.locations.clone()))
                .collect();
            let locs: Vec<Vec<ChainLocation>> =
                comb.remaining.iter().map(|f| loc_of[f].clone()).collect();
            let frames = design.max_chain_len() + 4;
            let config = PipelineConfig {
                seq: SeqAtpgConfig {
                    max_frames: frames,
                    ..SeqAtpgConfig::default()
                },
                final_seq: SeqAtpgConfig {
                    max_frames: frames + 4,
                    backtrack_limit: 50_000,
                    step_limit: 60_000,
                },
                dist: Some(DistParams::scaled(design.max_chain_len())),
                ..config
            };
            let out = SeqPhase::new(&design, &config).run(&comb.remaining, &locs);
            targeted += out.report.targeted;
            resolved += out.report.detected + out.report.undetectable;
            assert_eq!(
                out.report.targeted,
                out.report.detected + out.report.undetectable + out.report.undetected
            );
            assert!(out.report.circuits_initial > 0);
        }
        // After the comb phase's targeted vectors and random top-up,
        // what reaches step 3 is the very hard residue; it must at least
        // stay small relative to the chain-affecting population (the
        // paper ends at 0.022%; these are tiny circuits, so allow a few
        // percent), and the bookkeeping above must hold regardless.
        let _ = resolved;
        assert!(
            targeted <= 8,
            "too many leftovers reached step 3: {targeted}"
        );
    }

    #[test]
    fn figure4_grouping() {
        // Reproduce the paper's Figure 4 example: 8 faults with the
        // given location sets, LARGE=4, MED=3, DIST=2. We only check the
        // grouping decisions (circuit counts), not ATPG results, by
        // running against an empty-ish design: build a real design with
        // one chain of 8 cells.
        let circuit = generate(&GeneratorConfig::new("fig4", 9).gates(150).dffs(8));
        let design = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
        assert_eq!(design.max_chain_len(), 8);
        let loc = |cells: &[usize]| -> Vec<ChainLocation> {
            cells
                .iter()
                .map(|&c| ChainLocation { chain: 0, cell: c })
                .collect()
        };
        // Paper (1-based FFs 1..7, locations = segments into FFs):
        // fault1: locations {2, 6} → span 4 → group 1 (LARGE=4).
        // fault2: {2, 5} span 3 → group 2 (MED=3).
        // fault3: {3}, fault4: {4}: inside fault2's window → share.
        // fault5: {2}, fault6: {3}, fault7: {6}, fault8: {7} → group 3.
        let locations = vec![
            loc(&[1, 5]), // fault1 (0-based)
            loc(&[1, 4]), // fault2
            loc(&[2]),    // fault3
            loc(&[3]),    // fault4
            loc(&[1]),    // fault5
            loc(&[2]),    // fault6
            loc(&[5]),    // fault7
            loc(&[6]),    // fault8
        ];
        // Dummy faults: any distinct stem faults will do.
        let faults: Vec<Fault> = design
            .circuit()
            .node_ids()
            .take(8)
            .map(|n| Fault::stem(n, false))
            .collect();
        // Zero budget: we only want the grouping bookkeeping.
        let zero = SeqAtpgConfig {
            max_frames: 1,
            backtrack_limit: 0,
            step_limit: 0,
        };
        let config = PipelineConfig {
            seq: zero,
            final_seq: zero,
            dist: Some(DistParams {
                large: 4,
                med: 3,
                dist: 2,
            }),
            threads: 1,
            ..PipelineConfig::default()
        };
        let out = SeqPhase::new(&design, &config).run(&faults, &locations);
        // fault1 → 1 circuit; fault2(+3,4 shared) → 1 circuit;
        // group 3 {fault5 loc1, fault6 loc2} and {fault7 loc5, fault8
        // loc6} → 2 circuits. Total initial = 4 (the paper's example).
        assert_eq!(out.report.circuits_initial, 4);
    }
}
