//! Incremental ECO reruns: verdict carry-over across netlist deltas.
//!
//! An engineering change order (ECO) edits a design that has already
//! been through the pipeline. Rerunning all five stages from scratch
//! discards everything the previous run learned, even though a typical
//! ECO touches a handful of gates. [`PipelineSession::rerun`] instead
//! patches the compiled topology ([`fscan_netlist::CompiledTopology::patch`]),
//! reads the patch's [`fscan_netlist::DirtyInfo`], and re-enqueues only
//! the faults whose detection behaviour the edit can reach — everything
//! else carries its verdict forward from the prior run's [`EcoCarry`].
//!
//! # Invalidation model
//!
//! A fault's verdict — classification, alternating-sequence detection,
//! PODEM test, compaction decision, sequential ATPG result — depends
//! only on the structure and values inside its forward cone plus that
//! cone's transitive fanin. `DirtyInfo::support` is exactly the set of
//! nodes from which a patched node is reachable (over the union of the
//! base and patched fanin edges), so a fault whose
//! [`Fault::affected_node`] lies *outside* `support` can neither see a
//! changed value nor have a changed path to any observation point: its
//! prior verdict is still the verdict a cold run on the patched circuit
//! would produce. Reused verdicts are booked as
//! [`WorkCounters::verdicts_reused`]; recomputed ones as
//! [`WorkCounters::cones_invalidated`]; good-trace cycles seeded from
//! the prior trace as [`WorkCounters::trace_cycles_reused`].

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use fscan_fault::{all_faults_with, collapse_with, Fault};
use fscan_netlist::{DirtyInfo, NetlistDelta};
use fscan_scan::{ScanDesign, ScanError};
use fscan_sim::kernel::R256;
use fscan_sim::{
    CombEvaluator, GoodTrace, LaneWidth, ParallelFaultSim, ShardStats, StageMetrics, V3,
    WorkCounters,
};

use crate::alternating::{AlternatingPhase, AlternatingReport};
use crate::classify::{
    classify_faults_sharded_at, Category, ChainLocation, ClassifiedFault, ClassifySummary,
};
use crate::comb_phase::{CombPhase, CombPhaseConfig, CombPhaseOutcome};
use crate::compact::{compact_program_at, CompactionReport};
use crate::pipeline::{arena_footprint, fill_mem, PipelineConfig, PipelineReport, PipelineSession};
use crate::program::{ScanTest, TestProgram};
use crate::seq_phase::{DistParams, SeqPhase, SeqPhaseOutcome};

/// The intermediate artifacts of a pipeline run that a later
/// [`PipelineSession::rerun`] can carry verdicts forward from.
///
/// Every [`PipelineReport`] produced by [`PipelineSession::run`] (or by
/// `rerun` itself, so ECOs chain) holds one behind an [`Arc`] in
/// [`PipelineReport::carry`]. The contents are opaque: they are keyed to
/// the exact design and [`PipelineConfig`] of the run that produced
/// them, and `rerun` checks both before reusing anything.
#[derive(Clone, Debug)]
pub struct EcoCarry {
    pub(crate) config: PipelineConfig,
    pub(crate) classified: Vec<ClassifiedFault>,
    pub(crate) alt_vectors: Vec<Vec<V3>>,
    pub(crate) alt_trace: GoodTrace,
    pub(crate) alt_detections: HashMap<Fault, Option<usize>>,
    pub(crate) hard: Vec<Fault>,
    pub(crate) comb_outcome: CombPhaseOutcome,
    pub(crate) affected: Vec<Fault>,
    pub(crate) compaction: CompactionReport,
    pub(crate) compacted_program: TestProgram,
    pub(crate) seq_targets: Vec<Fault>,
    pub(crate) seq_outcome: SeqPhaseOutcome,
}

/// Carry pieces accumulated while the staged pipeline runs; assembled
/// into an [`EcoCarry`] by the final stage.
#[derive(Clone, Debug, Default)]
pub(crate) struct CarryParts {
    pub(crate) classified: Vec<ClassifiedFault>,
    pub(crate) alt_vectors: Vec<Vec<V3>>,
    pub(crate) alt_trace: Option<GoodTrace>,
    pub(crate) alt_detections: HashMap<Fault, Option<usize>>,
    pub(crate) hard: Vec<Fault>,
    pub(crate) comb_outcome: Option<CombPhaseOutcome>,
    pub(crate) affected: Vec<Fault>,
    pub(crate) compaction: Option<CompactionReport>,
    pub(crate) compacted_program: Option<TestProgram>,
    pub(crate) seq_targets: Vec<Fault>,
    pub(crate) seq_outcome: Option<SeqPhaseOutcome>,
}

impl CarryParts {
    pub(crate) fn into_carry(self, config: &PipelineConfig) -> Option<Arc<EcoCarry>> {
        Some(Arc::new(EcoCarry {
            config: config.clone(),
            classified: self.classified,
            alt_vectors: self.alt_vectors,
            alt_trace: self.alt_trace?,
            alt_detections: self.alt_detections,
            hard: self.hard,
            comb_outcome: self.comb_outcome?,
            affected: self.affected,
            compaction: self.compaction?,
            compacted_program: self.compacted_program?,
            seq_targets: self.seq_targets,
            seq_outcome: self.seq_outcome?,
        }))
    }
}

/// Sharded alternating-sequence fault simulation against a
/// caller-supplied good trace, dispatched on the runtime lane width.
/// The returned counters cover only the faulty machines; the caller
/// books the trace's own counters exactly once.
pub(crate) fn alt_sim_with_trace(
    design: &ScanDesign,
    width: LaneWidth,
    faults: &[Fault],
    trace: &GoodTrace,
    threads: usize,
) -> (Vec<Option<usize>>, ShardStats, WorkCounters) {
    match width {
        LaneWidth::W64 => ParallelFaultSim::<u64>::with_topology_wide(design.topology())
            .fault_sim_sharded_with_trace(faults, trace, threads),
        LaneWidth::W256 => ParallelFaultSim::<R256>::with_topology_wide(design.topology())
            .fault_sim_sharded_with_trace(faults, trace, threads),
    }
}

/// A stage's metrics when its entire outcome was carried forward: no
/// simulation work, just the reuse booking.
fn reuse_metrics(
    start: Instant,
    mark: fscan_alloctrack::MemMark,
    arena: u64,
    reused: u64,
) -> StageMetrics {
    let mut counters = WorkCounters::ZERO;
    counters.verdicts_reused = reused;
    let mut metrics = StageMetrics::new(start.elapsed(), ShardStats::default(), counters);
    fill_mem(&mut metrics, mark, arena);
    metrics
}

impl PipelineSession {
    /// Reruns the pipeline after an ECO edit script against this
    /// session's design, carrying forward every verdict from `prior`
    /// whose detection cone the edit cannot reach.
    ///
    /// The patched design's verdicts and test program are byte-identical
    /// to a cold [`run`](PipelineSession::run) over the same patched
    /// circuit at any thread count and lane width; only the stage
    /// metrics differ — reused work is booked as
    /// [`WorkCounters::verdicts_reused`] and recomputed work as
    /// [`WorkCounters::cones_invalidated`] instead of being simulated
    /// again. When `prior` carries no [`EcoCarry`], or the delta changes
    /// the primary-input/output or flip-flop lists (a full invalidation),
    /// every stage recomputes.
    ///
    /// # Errors
    ///
    /// Propagates [`ScanError`] when the delta fails to apply or touches
    /// the scan fabric (see [`ScanDesign::patched`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use fscan_netlist::{generate, DeltaNode, DeltaRef, GateKind, GeneratorConfig, NetlistDelta};
    /// use fscan_scan::{insert_functional_scan, TpiConfig};
    /// use fscan::{PipelineConfig, PipelineSession};
    ///
    /// let circuit = generate(&GeneratorConfig::new("eco", 5).gates(120).dffs(8));
    /// let design = insert_functional_scan(&circuit, &TpiConfig::default())?;
    /// let session = PipelineSession::new(&design, PipelineConfig::default());
    /// let prior = session.clone().run();
    /// // Spare-cell insertion: a constant plus a NOT gate island.
    /// let delta = NetlistDelta {
    ///     base_nodes: design.circuit().num_nodes(),
    ///     added: vec![
    ///         DeltaNode { name: "spare_c".into(), kind: GateKind::Const0, fanin: vec![] },
    ///         DeltaNode { name: "spare_g".into(), kind: GateKind::Not, fanin: vec![DeltaRef::Added(0)] },
    ///     ],
    ///     redriven: vec![],
    ///     removed: vec![],
    ///     outputs: vec![],
    /// };
    /// let report = session.rerun(&prior, &delta)?;
    /// assert!(report.total_counters().verdicts_reused > 0);
    /// assert_eq!(report.undetected(), prior.undetected());
    /// # Ok::<(), fscan_scan::ScanError>(())
    /// ```
    pub fn rerun(
        &self,
        prior: &PipelineReport,
        delta: &NetlistDelta,
    ) -> Result<PipelineReport, ScanError> {
        self.rerun_with_design(prior, delta).map(|(report, _)| report)
    }

    /// [`rerun`](Self::rerun), also returning the patched design so the
    /// caller can keep it (and the report's carry) for the next ECO in
    /// the chain.
    ///
    /// The rerun collapses the patched circuit's fault universe itself;
    /// it reads only the session's design and configuration, never its
    /// fault list, so a session opened with
    /// [`shared_with_faults`](Self::shared_with_faults) and an empty list
    /// skips collapsing the base design for nothing.
    pub fn rerun_with_design(
        &self,
        prior: &PipelineReport,
        delta: &NetlistDelta,
    ) -> Result<(PipelineReport, Arc<ScanDesign>), ScanError> {
        let config = self.config.clone();
        let patched = Arc::new(self.design.patched(delta)?);
        let topo = patched.topology();
        let nodes = topo.num_nodes();
        let dirty: Option<DirtyInfo> = topo.dirty().cloned();
        let carry: Option<&EcoCarry> = prior.carry.as_deref();
        // Per-fault reuse needs a prior run and a cone-scoped (not full)
        // invalidation; whole-stage reuse additionally needs the prior
        // run's configuration to match.
        let incremental = matches!((&dirty, carry), (Some(d), Some(_)) if !d.is_full());
        let config_match = carry.is_some_and(|c| c.config == config);
        let in_support = |f: &Fault| -> bool {
            match &dirty {
                Some(d) if incremental => d.in_support(f.affected_node()),
                _ => true,
            }
        };
        let mut parts = CarryParts::default();

        // Stage 1: classification with per-fault verdict carry-over.
        // The fault universe is re-collapsed on the patched circuit
        // (new-to-universe faults on added gates appear here; faults on
        // removed gates disappear); any fault present in both universes
        // and outside the support keeps its prior classification.
        let faults: Vec<Fault> = collapse_with(
            patched.circuit(),
            &topo,
            &all_faults_with(patched.circuit(), &topo),
        );
        let start = Instant::now();
        let mark = fscan_alloctrack::stage_mark();
        let prior_cls: HashMap<Fault, &ClassifiedFault> = carry
            .map(|c| c.classified.iter().map(|cf| (cf.fault, cf)).collect())
            .unwrap_or_default();
        let mut slots: Vec<Option<ClassifiedFault>> = vec![None; faults.len()];
        let mut stale: Vec<usize> = Vec::new();
        let mut reused = 0u64;
        for (i, f) in faults.iter().enumerate() {
            match prior_cls.get(f) {
                Some(cf) if !in_support(f) => {
                    slots[i] = Some((*cf).clone());
                    reused += 1;
                }
                _ => stale.push(i),
            }
        }
        let sub: Vec<Fault> = stale.iter().map(|&i| faults[i]).collect();
        let (sub_cls, shards, mut counters, hist) =
            classify_faults_sharded_at(&patched, &sub, config.threads, config.lane_width);
        for (k, cf) in sub_cls.into_iter().enumerate() {
            slots[stale[k]] = Some(cf);
        }
        let classified: Vec<ClassifiedFault> = slots
            .into_iter()
            .map(|s| s.expect("every fault slot is filled"))
            .collect();
        counters.verdicts_reused += reused;
        counters.cones_invalidated += sub.len() as u64;
        let mut metrics = StageMetrics::new(start.elapsed(), shards, counters);
        fill_mem(&mut metrics, mark, arena_footprint(nodes, config.lane_width));
        metrics.mem.cone_hist = hist;
        let total_faults = faults.len();
        let summary = ClassifySummary {
            total: total_faults,
            easy: classified
                .iter()
                .filter(|c| c.category == Category::AlternatingDetectable)
                .count(),
            hard: classified
                .iter()
                .filter(|c| c.category == Category::Hard)
                .count(),
            metrics,
        };
        parts.classified = classified.clone();

        // Stage 2: alternating sequence. The good trace replays from the
        // prior run's (cycles outside the dirty cones are copied, not
        // re-evaluated); per-fault detections carry over like verdicts.
        let affected: Vec<Fault> = classified
            .iter()
            .filter(|c| c.category != Category::Unaffected)
            .map(|c| c.fault)
            .collect();
        let easy: Vec<Fault> = classified
            .iter()
            .filter(|c| c.category == Category::AlternatingDetectable)
            .map(|c| c.fault)
            .collect();
        let mark = fscan_alloctrack::stage_mark();
        let phase = AlternatingPhase::new(&patched);
        let start = Instant::now();
        let vectors_match =
            incremental && carry.is_some_and(|c| c.alt_vectors[..] == *phase.vectors());
        let init = vec![V3::X; patched.circuit().dffs().len()];
        let eval = CombEvaluator::with_topology(topo.clone());
        let trace = match carry {
            Some(c) if incremental => {
                GoodTrace::replay_from(&eval, &c.alt_trace, phase.vectors(), &init)
            }
            _ => GoodTrace::compute(&eval, phase.vectors(), &init),
        };
        let mut det_slots: Vec<Option<Option<usize>>> = vec![None; affected.len()];
        let mut stale: Vec<usize> = Vec::new();
        let mut reused = 0u64;
        for (i, f) in affected.iter().enumerate() {
            let prior_det = if vectors_match {
                carry.and_then(|c| c.alt_detections.get(f))
            } else {
                None
            };
            match prior_det {
                Some(&d) if !in_support(f) => {
                    det_slots[i] = Some(d);
                    reused += 1;
                }
                _ => stale.push(i),
            }
        }
        let sub: Vec<Fault> = stale.iter().map(|&i| affected[i]).collect();
        let (sub_det, shards, mut counters) =
            alt_sim_with_trace(&patched, config.lane_width, &sub, &trace, config.threads);
        for (k, d) in sub_det.into_iter().enumerate() {
            det_slots[stale[k]] = Some(d);
        }
        counters += trace.counters();
        counters.verdicts_reused += reused;
        counters.cones_invalidated += sub.len() as u64;
        let detections: Vec<Option<usize>> = det_slots
            .into_iter()
            .map(|s| s.expect("every detection slot is filled"))
            .collect();
        let detected: HashSet<Fault> = affected
            .iter()
            .zip(detections.iter())
            .filter_map(|(&f, d)| d.map(|_| f))
            .collect();
        let missed_easy: Vec<Fault> = easy
            .iter()
            .copied()
            .filter(|f| !detected.contains(f))
            .collect();
        let mut alt_report = AlternatingReport {
            targeted: affected.len(),
            detected: detected.len(),
            missed_easy: missed_easy.len(),
            cycles: phase.vectors().len(),
            metrics: StageMetrics::new(start.elapsed(), shards, counters),
        };
        fill_mem(
            &mut alt_report.metrics,
            mark,
            arena_footprint(nodes, config.lane_width),
        );
        parts.alt_vectors = phase.vectors().to_vec();
        parts.alt_detections = affected
            .iter()
            .copied()
            .zip(detections.iter().copied())
            .collect();
        parts.alt_trace = Some(trace);
        let vectors = phase.into_vectors();

        // Stage 3: combinational phase — whole-stage reuse. PODEM
        // explores a fault's cone and that cone's transitive fanin, and
        // each accepted window re-drops the entire hard list, so the
        // outcome carries over only when the target list is identical
        // and every target sits outside the support.
        let hard: Vec<Fault> = classified
            .iter()
            .filter(|c| c.category == Category::Hard && !detected.contains(&c.fault))
            .map(|c| c.fault)
            .collect();
        let comb_reuse = incremental
            && config_match
            && carry.is_some_and(|c| c.hard == hard)
            && hard.iter().all(|f| !in_support(f));
        let mark = fscan_alloctrack::stage_mark();
        let start = Instant::now();
        let comb_outcome = if comb_reuse {
            let mut outcome = carry.expect("comb_reuse implies carry").comb_outcome.clone();
            outcome.report.metrics = reuse_metrics(
                start,
                mark,
                arena_footprint(nodes, config.lane_width),
                hard.len() as u64,
            );
            outcome
        } else {
            let comb_config = CombPhaseConfig {
                podem: config.podem,
                threads: config.threads,
                lane_width: config.lane_width,
                ..CombPhaseConfig::default()
            };
            let mut outcome = CombPhase::new(&patched, comb_config).run(&hard);
            outcome.report.metrics.counters.cones_invalidated += hard.len() as u64;
            fill_mem(
                &mut outcome.report.metrics,
                mark,
                arena_footprint(nodes, config.lane_width),
            );
            outcome
        };
        parts.hard = hard;
        parts.comb_outcome = Some(comb_outcome.clone());

        // Stage 4: compaction — whole-stage reuse. The program so far is
        // the alternating sequence plus the comb windows, simulated
        // against every chain-affecting fault, so reuse additionally
        // needs the alternating vectors and affected list unchanged.
        let compact_reuse = comb_reuse
            && vectors_match
            && carry.is_some_and(|c| c.affected == affected)
            && affected.iter().all(|f| !in_support(f));
        let mark = fscan_alloctrack::stage_mark();
        let start = Instant::now();
        let (compaction, compacted_program) = if compact_reuse {
            let c = carry.expect("compact_reuse implies carry");
            let mut report = c.compaction.clone();
            report.metrics = reuse_metrics(
                start,
                mark,
                arena_footprint(nodes, config.lane_width),
                affected.len() as u64,
            );
            (report, c.compacted_program.clone())
        } else {
            let mut program = TestProgram::new();
            program.push(ScanTest::new("alternating", vectors));
            for t in comb_outcome.program.iter().cloned() {
                program.push(t);
            }
            let mut compacted = compact_program_at(
                &patched,
                program,
                &affected,
                config.threads,
                config.lane_width,
            )
            .expect("reverse-order compaction preserves every detection");
            compacted.report.metrics.counters.cones_invalidated += affected.len() as u64;
            fill_mem(
                &mut compacted.report.metrics,
                mark,
                arena_footprint(nodes, config.lane_width),
            );
            (compacted.report, compacted.program)
        };
        parts.affected = affected;
        parts.compaction = Some(compaction.clone());
        parts.compacted_program = Some(compacted_program.clone());

        // Stage 5: sequential ATPG — whole-stage reuse over the same
        // target set (`remaining ∪ missed_easy`, all of which are
        // chain-affecting and therefore already known to be clean when
        // compaction reused).
        let mut targets: Vec<Fault> = comb_outcome.remaining.clone();
        targets.extend(missed_easy.iter().copied());
        let seq_reuse = compact_reuse && carry.is_some_and(|c| c.seq_targets == targets);
        let mark = fscan_alloctrack::stage_mark();
        let start = Instant::now();
        let seq_outcome = if seq_reuse {
            let mut outcome = carry.expect("seq_reuse implies carry").seq_outcome.clone();
            outcome.report.metrics = reuse_metrics(
                start,
                mark,
                arena_footprint(nodes, LaneWidth::W64),
                targets.len() as u64,
            );
            outcome
        } else {
            let locations: HashMap<Fault, Vec<ChainLocation>> = classified
                .iter()
                .map(|c| (c.fault, c.locations.clone()))
                .collect();
            let target_locs: Vec<Vec<ChainLocation>> = targets
                .iter()
                .map(|f| locations.get(f).cloned().unwrap_or_default())
                .collect();
            let dist = config
                .dist
                .unwrap_or_else(|| DistParams::paper(patched.max_chain_len()));
            let min_frames = patched.max_chain_len() + 4;
            let mut seq_cfg = config.seq;
            seq_cfg.max_frames = seq_cfg.max_frames.max(min_frames);
            let mut final_cfg = config.final_seq;
            final_cfg.max_frames = final_cfg.max_frames.max(min_frames);
            let seq_phase =
                SeqPhase::new(&patched, dist, seq_cfg, final_cfg).threads(config.threads);
            let mut outcome = seq_phase.run(&targets, &target_locs);
            outcome.report.metrics.counters.cones_invalidated += targets.len() as u64;
            fill_mem(
                &mut outcome.report.metrics,
                mark,
                arena_footprint(nodes, LaneWidth::W64),
            );
            outcome
        };
        parts.seq_targets = targets;
        parts.seq_outcome = Some(seq_outcome.clone());

        let seq_detected: HashSet<Fault> = seq_outcome.detected.iter().copied().collect();
        let rescued_easy = missed_easy
            .iter()
            .filter(|f| seq_detected.contains(f))
            .count();
        let mut program = compacted_program;
        for t in seq_outcome.program {
            program.push(t);
        }
        let report = PipelineReport {
            name: patched.circuit().name().to_string(),
            total_faults,
            classification: summary,
            alternating: alt_report,
            comb: comb_outcome.report,
            compact: compaction,
            seq: seq_outcome.report,
            rescued_easy,
            undetected_faults: seq_outcome.remaining,
            program,
            carry: parts.into_carry(&config),
        };
        Ok((report, patched))
    }
}
