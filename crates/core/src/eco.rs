//! Incremental ECO reruns: verdict carry-over across netlist deltas.
//!
//! An engineering change order (ECO) edits a design that has already
//! been through the pipeline. Rerunning all five stages from scratch
//! discards everything the previous run learned, even though a typical
//! ECO touches a handful of gates. [`PipelineSession::rerun`] instead
//! patches the compiled topology ([`fscan_netlist::CompiledTopology::patch`])
//! and runs the ordinary staged pipeline over the patched design with a
//! *prior*: the previous run's [`EcoCarry`] plus the patch's
//! [`fscan_netlist::DirtyInfo`]. A cold run is the same pipeline without
//! one. Each stage body in `pipeline.rs` holds its own reuse rule, so
//! this module keeps only the carry, its assembly and the two entry
//! points.
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
//! would produce.
//!
//! Classification and the alternating sequence carry verdicts fault by
//! fault, and the alternating stage replays the prior good trace rather
//! than recomputing it. The comb, compaction and sequential stages carry
//! their outcome whole or not at all. Reused verdicts are booked as
//! [`WorkCounters::verdicts_reused`]; recomputed ones as
//! [`WorkCounters::cones_invalidated`]; good-trace cycles seeded from
//! the prior trace as [`WorkCounters::trace_cycles_reused`].
//!
//! [`WorkCounters::verdicts_reused`]: fscan_sim::WorkCounters::verdicts_reused
//! [`WorkCounters::cones_invalidated`]: fscan_sim::WorkCounters::cones_invalidated
//! [`WorkCounters::trace_cycles_reused`]: fscan_sim::WorkCounters::trace_cycles_reused

use std::collections::HashMap;
use std::sync::Arc;

use fscan_fault::Fault;
use fscan_netlist::NetlistDelta;
use fscan_scan::{ScanDesign, ScanError};
use fscan_sim::{GoodTrace, V3};

use crate::classify::ClassifiedFault;
use crate::comb_phase::CombPhaseOutcome;
use crate::compact::CompactionOutcome;
use crate::pipeline::{PipelineConfig, PipelineReport, PipelineSession, Prior};
use crate::seq_phase::SeqPhaseOutcome;

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
    pub(crate) compaction: CompactionOutcome,
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
    pub(crate) compaction: Option<CompactionOutcome>,
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
            seq_targets: self.seq_targets,
            seq_outcome: self.seq_outcome?,
        }))
    }
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
    /// [`verdicts_reused`](fscan_sim::WorkCounters::verdicts_reused) and
    /// recomputed work as
    /// [`cones_invalidated`](fscan_sim::WorkCounters::cones_invalidated)
    /// instead of being simulated again. When `prior` carries no
    /// [`EcoCarry`], or the delta changes the primary-input/output or
    /// flip-flop lists (a full invalidation), every stage recomputes.
    ///
    /// # Errors
    ///
    /// Propagates [`ScanError`] when the delta fails to apply, touches
    /// the scan fabric, or leaves a chain that no longer shifts (see
    /// [`ScanDesign::patched`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use fscan_netlist::{generate, DeltaNode, DeltaRef, GateKind, GeneratorConfig, NetlistDelta};
    /// use fscan_scan::{insert_functional_scan, TpiConfig};
    /// use fscan::{PipelineConfig, PipelineSession};
    ///
    /// let circuit = generate(&GeneratorConfig::new("eco", 5).gates(120).dffs(8));
    /// let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default())?);
    /// let session = PipelineSession::shared(Arc::clone(&design), PipelineConfig::default());
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
        self.rerun_with_design(prior, delta)
            .map(|(report, _)| report)
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
        let patched = Arc::new(self.design.patched(delta)?);
        let mut session = PipelineSession::shared(Arc::clone(&patched), self.config.clone());
        session.prior = Some(Prior::new(
            prior.carry.clone(),
            patched.topology().dirty().cloned(),
        ));
        Ok((session.run(), patched))
    }
}
