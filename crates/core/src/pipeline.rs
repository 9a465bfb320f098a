//! The end-to-end functional scan chain testing pipeline.
//!
//! The flow is exposed through [`PipelineSession`], the staged API.
//! Each step returns a typed checkpoint ([`Classified`] →
//! [`AfterAlternating`] → [`AfterComb`] → [`AfterCompact`] →
//! [`PipelineReport`]) whose fault sets can be inspected or modified
//! before the next step runs; [`PipelineSession::run`] chains all five
//! steps when no checkpoint access is needed. Reverse-order static
//! compaction is a first-class stage between the combinational and
//! sequential phases: the program assembled so far (alternating
//! sequence plus every comb window) is compacted against the
//! chain-affecting faults, in one reverse-order pass, before step 3
//! adds its sequences.
//!
//! The session compiles the design's circuit into one shared
//! [`fscan_netlist::CompiledTopology`] (via
//! [`ScanDesign::topology`]) and every stage — classification,
//! alternating-sequence simulation, PODEM, sequential ATPG,
//! verification fault simulation — evaluates against that single plan;
//! the report's `topology_builds` counter stays at 1 for the whole
//! run.
//!
//! Every fault-parallel stage shards its work across
//! [`PipelineConfig::threads`] workers with deterministic merging, so
//! reports are bit-identical regardless of thread count. Each stage
//! reports its cost as a [`StageMetrics`] triple, collected per report
//! by [`PipelineReport::stages`].
//!
//! An ECO rerun ([`PipelineSession::rerun`]) is this same pipeline over
//! the patched design, with a crate-private *prior* (the previous run's
//! [`EcoCarry`] plus the patch's dirty cones) riding along the
//! checkpoints. A cold run is the case without one. Each stage body
//! holds its own reuse rule: classification and the alternating
//! sequence carry verdicts fault by fault, and the comb, compaction and
//! sequential stages carry their outcome whole or not at all.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use fscan_atpg::{PodemConfig, SeqAtpgConfig};
use fscan_fault::{all_faults_with, collapse_with, Fault};
use fscan_netlist::DirtyInfo;
use fscan_scan::ScanDesign;
use fscan_sim::kernel::R256;
use fscan_sim::{
    CombEvaluator, GoodTrace, LaneWidth, MemMetrics, ParallelFaultSim, ShardStats, SimScratch,
    StageMetrics, WorkCounters, V3,
};

use crate::alternating::{alternating_vectors, AlternatingReport};
use crate::classify::{
    classify_faults_sharded_at, Category, ChainLocation, ClassifiedFault, ClassifySummary,
};
use crate::comb_phase::{CombPhase, CombPhaseOutcome, CombPhaseReport};
use crate::compact::{compact_known, CompactionReport};
use crate::eco::{CarryParts, EcoCarry};
use crate::program::{ScanTest, TestProgram};
use crate::seq_phase::{DistParams, SeqPhase, SeqPhaseReport};

/// Per-worker [`SimScratch`] arena footprint for a circuit with
/// `num_nodes` nodes at rail width `width` — the deterministic
/// `arena_bytes` each stage reports.
pub(crate) fn arena_footprint(num_nodes: usize, width: LaneWidth) -> u64 {
    match width {
        LaneWidth::W64 => SimScratch::<u64>::footprint_bytes(num_nodes),
        LaneWidth::W256 => SimScratch::<R256>::footprint_bytes(num_nodes),
    }
}

/// Closes a stage's allocator window into its [`StageMetrics`]: the
/// allocator-observed peak and realloc count (0 without a tracking
/// allocator installed) plus the deterministic arena footprint.
pub(crate) fn fill_mem(
    metrics: &mut StageMetrics,
    mark: fscan_alloctrack::MemMark,
    arena_bytes: u64,
) {
    metrics.mem.peak_bytes = mark.peak();
    metrics.mem.reallocs = mark.reallocs();
    metrics.mem.arena_bytes = arena_bytes;
}

/// What an ECO rerun brings into the staged pipeline: the run it
/// follows and the patch between the two designs. A session without a
/// prior is a cold run. With one, every stage splits its targets into
/// carried and recomputed, books the split as
/// [`WorkCounters::verdicts_reused`] / [`WorkCounters::cones_invalidated`],
/// and books no topology build (the patched topology was not compiled).
#[derive(Clone, Debug)]
pub(crate) struct Prior {
    /// The prior run's artifacts and the patched topology's dirty cones,
    /// while anything can still carry over. `None` when the prior report
    /// has no carry, when the edit invalidates everything, or once a
    /// whole stage has recomputed: comb, compact and seq reuse all or
    /// nothing, and each only if its predecessor did.
    reuse: Option<(Arc<EcoCarry>, DirtyInfo)>,
}

impl Prior {
    pub(crate) fn new(carry: Option<Arc<EcoCarry>>, dirty: Option<DirtyInfo>) -> Prior {
        Prior {
            reuse: carry.zip(dirty.filter(|d| !d.is_full())),
        }
    }

    fn carry(&self) -> Option<&EcoCarry> {
        self.reuse.as_ref().map(|(carry, _)| &**carry)
    }

    /// Whether `f`'s prior verdict still holds. A fault's verdict
    /// depends only on its forward cone and that cone's transitive
    /// fanin, so a fault whose affected node lies outside the patch's
    /// invalidation support sees no changed value and no changed path.
    fn clean(&self, f: &Fault) -> bool {
        self.reuse
            .as_ref()
            .is_some_and(|(_, dirty)| !dirty.in_support(f.affected_node()))
    }

    /// Whole-stage reuse: the prior artifacts when `fits` accepts them
    /// and every target is clean. Otherwise `None`, and no later stage
    /// reuses either.
    fn whole(
        &mut self,
        targets: &[Fault],
        fits: impl FnOnce(&EcoCarry) -> bool,
    ) -> Option<Arc<EcoCarry>> {
        let hit = self.carry().is_some_and(fits) && targets.iter().all(|f| self.clean(f));
        if !hit {
            self.reuse = None;
        }
        self.reuse.as_ref().map(|(carry, _)| Arc::clone(carry))
    }
}

/// Books a stage's split between carried and recomputed targets. Only a
/// rerun books one: a cold run carries nothing and recomputes nothing.
fn book_split(
    counters: &mut WorkCounters,
    prior: &Option<Prior>,
    reused: usize,
    recomputed: usize,
) {
    if prior.is_some() {
        counters.verdicts_reused += reused as u64;
        counters.cones_invalidated += recomputed as u64;
    }
}

/// Per-fault reuse, shared by the classify and alternating stages:
/// verdicts come from `carried` where it has one, `compute` runs once on
/// the rest (possibly none), and both merge back in fault order.
/// Returns the verdicts, how many were carried and `compute`'s other
/// outputs.
fn carry_per_fault<T, X>(
    faults: &[Fault],
    carried: Option<impl Fn(&Fault) -> Option<T>>,
    compute: impl FnOnce(&[Fault]) -> (Vec<T>, X),
) -> (Vec<T>, usize, X) {
    let Some(carried) = carried else {
        let (verdicts, extra) = compute(faults);
        return (verdicts, 0, extra);
    };
    let mut slots: Vec<Option<T>> = faults.iter().map(carried).collect();
    let stale: Vec<usize> = (0..faults.len()).filter(|&i| slots[i].is_none()).collect();
    let sub: Vec<Fault> = stale.iter().map(|&i| faults[i]).collect();
    let (fresh, extra) = compute(&sub);
    for (i, verdict) in stale.into_iter().zip(fresh) {
        slots[i] = Some(verdict);
    }
    let verdicts = slots
        .into_iter()
        .map(|s| s.expect("every fault slot is filled"))
        .collect();
    (verdicts, faults.len() - sub.len(), extra)
}

/// Runs a stage that reuses all or nothing (comb, compact, seq): the
/// prior's outcome via `carried` when [`Prior::whole`] accepts it for
/// `targets`, otherwise `compute`. Closes the stage's memory window and
/// books its split: every target carried, or every target recomputed.
fn whole_stage<T>(
    prior: &mut Option<Prior>,
    targets: &[Fault],
    arena: u64,
    fits: impl FnOnce(&EcoCarry) -> bool,
    carried: impl FnOnce(&EcoCarry) -> T,
    compute: impl FnOnce() -> T,
    metrics: fn(&mut T) -> &mut StageMetrics,
) -> T {
    let mark = fscan_alloctrack::stage_mark();
    let start = Instant::now();
    let carry = prior.as_mut().and_then(|p| p.whole(targets, fits));
    let mut outcome = match &carry {
        Some(carry) => carried(carry),
        None => compute(),
    };
    let m = metrics(&mut outcome);
    if carry.is_some() {
        // No simulation work, just the reuse booking.
        *m = StageMetrics::new(start.elapsed(), ShardStats::default(), WorkCounters::ZERO);
        book_split(&mut m.counters, prior, targets.len(), 0);
    } else {
        book_split(&mut m.counters, prior, 0, targets.len());
    }
    fill_mem(m, mark, arena);
    outcome
}

/// The alternating stage's fault simulation and its one width dispatch.
/// Builds the good trace of `vectors`, replayed from `prior` on a rerun
/// so that cycles outside the dirty cones are copied rather than
/// re-evaluated, and simulates `faults` against it. The counters cover
/// the faulty machines plus the trace's own work, booked once.
pub(crate) fn alt_sim_with_trace(
    design: &ScanDesign,
    vectors: &[Vec<V3>],
    faults: &[Fault],
    prior: Option<&GoodTrace>,
    threads: usize,
    width: LaneWidth,
) -> (Vec<Option<usize>>, ShardStats, WorkCounters, GoodTrace) {
    let init = vec![V3::X; design.circuit().dffs().len()];
    let eval = CombEvaluator::with_topology(design.topology());
    let trace = GoodTrace::replay_from(&eval, prior, vectors, &init);
    let (detections, shards, mut counters) = match width {
        LaneWidth::W64 => ParallelFaultSim::<u64>::with_topology_wide(design.topology())
            .fault_sim_sharded_with_trace(faults, &trace, threads),
        LaneWidth::W256 => ParallelFaultSim::<R256>::with_topology_wide(design.topology())
            .fault_sim_sharded_with_trace(faults, &trace, threads),
    };
    counters += trace.counters();
    (detections, shards, counters, trace)
}

/// Configuration of the full pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// PODEM budget for step 2.
    pub podem: PodemConfig,
    /// Sequential ATPG budget for the grouped step-3 pass.
    pub seq: SeqAtpgConfig,
    /// Sequential ATPG budget for the final per-fault pass (the paper
    /// gives the program "additional time" here).
    pub final_seq: SeqAtpgConfig,
    /// Grouping distances; `None` uses the paper's schedule
    /// (`DistParams::paper`) on the longest chain.
    pub dist: Option<DistParams>,
    /// Worker threads for the fault-parallel stages; `0` means one per
    /// available hardware thread. Results are identical for every
    /// value.
    pub threads: usize,
    /// Packed rail width for the word-parallel stages (classification,
    /// the alternating sequence, step-2 fault simulation and
    /// compaction; step 3 verifies on 64 lanes). Verdicts are identical
    /// at every width; wider rails retire more faults per union-cone
    /// walk. Defaults to [`LaneWidth::W256`].
    pub lane_width: LaneWidth,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            podem: PodemConfig {
                // PODEM's untestability screen settles a search once it
                // backtracks past 64 times: a SAT miter where the faults'
                // cone reads no X state, a three-valued reachability
                // check where it does (partial scan here, unloaded state
                // in step 3's deepening views). The step limit bounds the
                // rest: a search the screen cannot settle (an exhausted
                // conflict budget, or a testable-looking cone that no
                // search can complete) would otherwise burn the full
                // backtrack budget on large circuits.
                step_limit: 100_000,
                ..PodemConfig::default()
            },
            seq: SeqAtpgConfig::default(),
            final_seq: SeqAtpgConfig {
                max_frames: 12,
                backtrack_limit: 50_000,
                step_limit: 16_000,
            },
            dist: None,
            threads: 0,
            lane_width: LaneWidth::default(),
        }
    }
}

impl PipelineConfig {
    /// Checks the configuration's invariants. Code that assembles a
    /// configuration from outside input calls this before running it,
    /// as [`crate::json::config_from_value`] does before handing a
    /// config to the serving layer.
    ///
    /// # Errors
    ///
    /// The [`ConfigError`] of the first invariant broken.
    ///
    /// # Examples
    ///
    /// ```
    /// use fscan::PipelineConfig;
    ///
    /// let mut config = PipelineConfig::default();
    /// assert!(config.validate().is_ok());
    /// config.seq.max_frames = 0;
    /// assert!(config.validate().is_err());
    /// ```
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.seq.max_frames == 0 {
            return Err(ConfigError::ZeroMaxFrames("seq"));
        }
        if self.final_seq.max_frames == 0 {
            return Err(ConfigError::ZeroMaxFrames("final_seq"));
        }
        if self.podem.backtrack_limit == 0 && self.podem.step_limit == 0 {
            return Err(ConfigError::EmptyPodemBudget);
        }
        if let Some(d) = self.dist {
            if d.dist == 0 || d.med < d.dist || d.large < d.med {
                return Err(ConfigError::UnorderedDist(d));
            }
        }
        Ok(())
    }
}

/// A [`PipelineConfig`] setting that [`PipelineConfig::validate`] rejects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A sequential ATPG budget allows zero time frames — no test can
    /// ever be found. The string names the offending budget
    /// (`"seq"` or `"final_seq"`).
    ZeroMaxFrames(&'static str),
    /// The PODEM budget allows zero backtracks *and* zero steps — every
    /// attempt would abort immediately.
    EmptyPodemBudget,
    /// Grouping distances must be ordered `large ≥ med ≥ dist ≥ 1`.
    UnorderedDist(DistParams),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroMaxFrames(which) => {
                write!(f, "{which}.max_frames must be at least 1")
            }
            ConfigError::EmptyPodemBudget => {
                f.write_str("podem budget allows neither backtracks nor steps")
            }
            ConfigError::UnorderedDist(d) => write!(
                f,
                "grouping distances must satisfy large >= med >= dist >= 1, got {} / {} / {}",
                d.large, d.med, d.dist
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Everything the three-step flow produced (the paper's Tables 2 and 3
/// plus the Figure 5 series for one circuit).
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Circuit name.
    pub name: String,
    /// Fault universe size after collapsing.
    pub total_faults: usize,
    /// Classification counts (Table 2).
    pub classification: ClassifySummary,
    /// Step-1 results.
    pub alternating: AlternatingReport,
    /// Step-2 results (Table 3, left; Figure 5 series inside).
    pub comb: CombPhaseReport,
    /// Reverse-order static compaction of the program assembled after
    /// step 2 (alternating sequence + comb windows), run before step 3.
    /// Lossless by construction: `compact.lost` is always 0.
    pub compact: CompactionReport,
    /// Step-3 results (Table 3, right).
    pub seq: SeqPhaseReport,
    /// Category-1 faults the alternating sequence missed that steps 2–3
    /// later recovered (the missed-easy faults are folded into the
    /// step-3 target set; this counts how many of them were detected
    /// there).
    pub rescued_easy: usize,
    /// The chain-affecting faults that remain undetected after all
    /// steps (diagnostic detail behind `seq.undetected`).
    pub undetected_faults: Vec<Fault>,
    /// The emitted test program: the alternating sequence plus every
    /// confirmed step-2 window and step-3 sequence.
    pub program: TestProgram,
    /// Carry-over artifacts for [`PipelineSession::rerun`]: present on
    /// every freshly computed report so a later ECO delta can reuse the
    /// verdicts this run produced. `None` on reports decoded from JSON —
    /// the carry is process-local and never serialized.
    pub carry: Option<Arc<EcoCarry>>,
}

impl PipelineReport {
    /// Final number of undetected chain-affecting faults.
    ///
    /// Missed-easy faults are folded into the step-3 target set, so
    /// `seq.undetected` already covers both the hard leftovers and any
    /// missed-easy faults that stayed undetected (see
    /// [`rescued_easy`](Self::rescued_easy) for the recovered ones).
    pub fn undetected(&self) -> usize {
        self.seq.undetected
    }

    /// Undetected as a fraction of the total fault universe (the
    /// paper's headline 0.006%).
    pub fn undetected_of_total(&self) -> f64 {
        self.seq.undetected as f64 / self.total_faults.max(1) as f64
    }

    /// Undetected as a fraction of chain-affecting faults (the paper's
    /// 0.022%).
    pub fn undetected_of_affected(&self) -> f64 {
        self.seq.undetected as f64 / self.classification.affected().max(1) as f64
    }

    /// Per-stage cost [`StageMetrics`] (wall-clock, worker
    /// distribution, deterministic work counters), in flow order — the
    /// single accessor behind the reproduction's timing table and the
    /// BENCH trajectory.
    pub fn stages(&self) -> [(&'static str, &StageMetrics); 5] {
        [
            ("classify", &self.classification.metrics),
            ("alternating", &self.alternating.metrics),
            ("comb", &self.comb.metrics),
            ("compact", &self.compact.metrics),
            ("seq", &self.seq.metrics),
        ]
    }

    /// Sum of every stage's [`WorkCounters`].
    pub fn total_counters(&self) -> WorkCounters {
        self.stages().iter().map(|(_, m)| m.counters).sum()
    }

    /// Report-wide memory accounting: every stage's [`MemMetrics`]
    /// folded together — peaks and arena footprints by maximum (stages
    /// run one after another, so peaks do not add), realloc counts
    /// summed, cone histograms merged.
    pub fn total_mem(&self) -> MemMetrics {
        let mut total = MemMetrics::ZERO;
        for (_, m) in self.stages() {
            total.accumulate(&m.mem);
        }
        total
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.name)?;
        writeln!(f, "  {}", self.classification)?;
        writeln!(f, "  {}", self.alternating)?;
        writeln!(f, "  {}", self.comb)?;
        writeln!(f, "  {}", self.compact)?;
        writeln!(f, "  {}", self.seq)?;
        write!(
            f,
            "  undetected: {} ({:.4}% of all, {:.4}% of chain-affecting)",
            self.seq.undetected,
            100.0 * self.undetected_of_total(),
            100.0 * self.undetected_of_affected()
        )
    }
}

/// The staged pipeline: run the flow one step at a time, inspecting or
/// modifying the fault sets between steps.
///
/// The session *owns* its design as an [`Arc<ScanDesign>`], so sessions
/// and every checkpoint are `'static + Send` — they can be handed to
/// worker threads, stored across requests, and run concurrently against
/// one shared design (the serving layer does all three).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use fscan_netlist::{generate, GeneratorConfig};
/// use fscan_scan::{insert_functional_scan, TpiConfig};
/// use fscan::{Category, PipelineConfig, PipelineSession};
///
/// let circuit = generate(&GeneratorConfig::new("demo", 1).gates(100).dffs(8));
/// let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default())?);
/// let config = PipelineConfig {
///     threads: 2,
///     ..PipelineConfig::default()
/// };
///
/// let mut classified = PipelineSession::shared(design, config).classify();
/// // Checkpoint: e.g. drop the category-3 faults from further analysis
/// // (the pipeline does this anyway) or inspect the counts.
/// let summary = classified.summary();
/// assert_eq!(summary.affected(), summary.easy + summary.hard);
/// classified.classified.retain(|c| c.category != Category::Unaffected);
///
/// let after_alt = classified.alternating();
/// let after_comb = after_alt.comb();
/// let report = after_comb.compact().seq();
/// assert_eq!(report.undetected(), report.seq.undetected);
/// # Ok::<(), fscan_scan::ScanError>(())
/// ```
///
/// Sharing one design across concurrent sessions:
///
/// ```
/// use std::sync::Arc;
/// use fscan_netlist::{generate, GeneratorConfig};
/// use fscan_scan::{insert_functional_scan, TpiConfig};
/// use fscan::{PipelineConfig, PipelineSession};
///
/// let circuit = generate(&GeneratorConfig::new("demo", 1).gates(100).dffs(8));
/// let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default())?);
/// let handles: Vec<_> = (0..2)
///     .map(|_| {
///         let session = PipelineSession::shared(
///             Arc::clone(&design),
///             PipelineConfig::default(),
///         );
///         std::thread::spawn(move || session.run())
///     })
///     .collect();
/// for h in handles {
///     assert!(h.join().unwrap().undetected() <= 1_000);
/// }
/// # Ok::<(), fscan_scan::ScanError>(())
/// ```
#[derive(Clone, Debug)]
pub struct PipelineSession {
    pub(crate) design: Arc<ScanDesign>,
    pub(crate) config: PipelineConfig,
    pub(crate) faults: Vec<Fault>,
    /// Set only by [`rerun_with_design`](Self::rerun_with_design).
    pub(crate) prior: Option<Prior>,
}

impl PipelineSession {
    /// Opens a session over a shared design's collapsed fault universe —
    /// the canonical constructor: the session co-owns the design, so it
    /// is `'static + Send` and many sessions can run concurrently
    /// against one `Arc`.
    ///
    /// This is where the design's [`CompiledTopology`] is first
    /// demanded: fault enumeration and collapsing run against it, and
    /// every later stage shares the same `Arc` — the circuit is
    /// compiled exactly once per session (and cached on the design, so
    /// repeated sessions do not even recompile).
    ///
    /// [`CompiledTopology`]: fscan_netlist::CompiledTopology
    pub fn shared(design: Arc<ScanDesign>, config: PipelineConfig) -> PipelineSession {
        let topo = design.topology();
        let faults = collapse_with(
            design.circuit(),
            &topo,
            &all_faults_with(design.circuit(), &topo),
        );
        PipelineSession::shared_with_faults(design, config, faults)
    }

    /// Opens a session over a shared design and a caller-provided fault
    /// list.
    pub fn shared_with_faults(
        design: Arc<ScanDesign>,
        config: PipelineConfig,
        faults: Vec<Fault>,
    ) -> PipelineSession {
        PipelineSession {
            design,
            config,
            faults,
            prior: None,
        }
    }

    /// The fault universe this session will classify.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The shared design the session runs against.
    pub fn design(&self) -> &Arc<ScanDesign> {
        &self.design
    }

    /// Step 0 (paper §3): classify every fault by 3-valued forward
    /// implication, sharded across the configured workers.
    pub fn classify(self) -> Classified {
        let start = Instant::now();
        let mark = fscan_alloctrack::stage_mark();
        let (design, config) = (&self.design, &self.config);
        let carried = self.prior.as_ref().and_then(|prior| {
            let by_fault: HashMap<Fault, &ClassifiedFault> = prior
                .carry()?
                .classified
                .iter()
                .map(|cf| (cf.fault, cf))
                .collect();
            Some(move |f: &Fault| {
                by_fault
                    .get(f)
                    .filter(|_| prior.clean(f))
                    .map(|&cf| cf.clone())
            })
        });
        let (classified, reused, (shards, mut counters, cone_hist)) =
            carry_per_fault(&self.faults, carried, |faults| {
                let (classified, shards, counters, hist) =
                    classify_faults_sharded_at(design, faults, config.threads, config.lane_width);
                (classified, (shards, counters, hist))
            });
        // The session's one topology compilation is accounted to the
        // first stage; every later stage shares the same plan, so the
        // report-wide total stays at exactly 1. A rerun's patched
        // topology was not compiled at all.
        if self.prior.is_none() {
            counters.topology_builds = 1;
        }
        book_split(
            &mut counters,
            &self.prior,
            reused,
            self.faults.len() - reused,
        );
        let mut metrics = StageMetrics::new(start.elapsed(), shards, counters);
        let nodes = self.design.topology().num_nodes();
        fill_mem(
            &mut metrics,
            mark,
            arena_footprint(nodes, self.config.lane_width),
        );
        metrics.mem.cone_hist = cone_hist;
        Classified {
            design: self.design,
            config: self.config,
            total_faults: self.faults.len(),
            classified,
            metrics,
            prior: self.prior,
        }
    }

    /// This session's configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs all five stages back to back and returns the final report —
    /// the one-call form of
    /// `self.classify().alternating().comb().compact().seq()` for
    /// callers that need no checkpoint access.
    pub fn run(self) -> PipelineReport {
        self.classify().alternating().comb().compact().seq()
    }
}

/// Checkpoint after classification. `classified` is open for
/// inspection and modification — faults removed (or re-categorized)
/// here never reach the later steps.
#[derive(Clone, Debug)]
pub struct Classified {
    design: Arc<ScanDesign>,
    config: PipelineConfig,
    total_faults: usize,
    /// Per-fault classification results.
    pub classified: Vec<ClassifiedFault>,
    metrics: StageMetrics,
    prior: Option<Prior>,
}

impl Classified {
    /// Aggregate counts over the *current* `classified` set (recomputed
    /// on each call, so checkpoint edits are reflected).
    pub fn summary(&self) -> ClassifySummary {
        ClassifySummary {
            total: self.total_faults,
            easy: self
                .classified
                .iter()
                .filter(|c| c.category == Category::AlternatingDetectable)
                .count(),
            hard: self
                .classified
                .iter()
                .filter(|c| c.category == Category::Hard)
                .count(),
            metrics: self.metrics.clone(),
        }
    }

    /// Step 1: shift the alternating sequence and fault-simulate it
    /// against every chain-affecting fault.
    pub fn alternating(self) -> AfterAlternating {
        let mark = fscan_alloctrack::stage_mark();
        let summary = self.summary();
        let affected: Vec<Fault> = self
            .classified
            .iter()
            .filter(|c| c.category != Category::Unaffected)
            .map(|c| c.fault)
            .collect();
        let easy: Vec<Fault> = self
            .classified
            .iter()
            .filter(|c| c.category == Category::AlternatingDetectable)
            .map(|c| c.fault)
            .collect();
        let vectors = alternating_vectors(&self.design);
        let start = Instant::now();
        // A rerun replays the prior good trace whatever the sequence;
        // detections carry over only for the very same sequence.
        let carry = self.prior.as_ref().and_then(Prior::carry);
        let carried = self.prior.as_ref().and_then(|prior| {
            let carry = prior.carry().filter(|c| c.alt_vectors == vectors)?;
            Some(move |f: &Fault| {
                carry
                    .alt_detections
                    .get(f)
                    .copied()
                    .filter(|_| prior.clean(f))
            })
        });
        let (detections, reused, (shards, mut counters, trace)) =
            carry_per_fault(&affected, carried, |faults| {
                let (detections, shards, counters, trace) = alt_sim_with_trace(
                    &self.design,
                    &vectors,
                    faults,
                    carry.map(|c| &c.alt_trace),
                    self.config.threads,
                    self.config.lane_width,
                );
                (detections, (shards, counters, trace))
            });
        book_split(&mut counters, &self.prior, reused, affected.len() - reused);
        let cpu = start.elapsed();
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
        let mut report = AlternatingReport {
            targeted: affected.len(),
            detected: detected.len(),
            missed_easy: missed_easy.len(),
            cycles: vectors.len(),
            metrics: StageMetrics::new(cpu, shards, counters),
        };
        let nodes = self.design.topology().num_nodes();
        fill_mem(
            &mut report.metrics,
            mark,
            arena_footprint(nodes, self.config.lane_width),
        );
        // The trace rides along in the carry, so a later rerun can
        // replay it.
        let carry_parts = CarryParts {
            classified: self.classified.clone(),
            alt_vectors: vectors.clone(),
            alt_detections: affected.into_iter().zip(detections).collect(),
            alt_trace: Some(trace),
            ..CarryParts::default()
        };
        AfterAlternating {
            design: self.design,
            config: self.config,
            total_faults: self.total_faults,
            classified: self.classified,
            summary,
            report,
            vectors,
            detected,
            missed_easy,
            carry_parts,
            prior: self.prior,
        }
    }
}

/// Checkpoint after the alternating-sequence phase. `missed_easy` is
/// open for modification — those faults are forwarded to step 3.
#[derive(Clone, Debug)]
pub struct AfterAlternating {
    design: Arc<ScanDesign>,
    config: PipelineConfig,
    total_faults: usize,
    classified: Vec<ClassifiedFault>,
    summary: ClassifySummary,
    report: AlternatingReport,
    vectors: Vec<Vec<V3>>,
    detected: HashSet<Fault>,
    /// Category-1 faults the sequence missed (forwarded to step 3).
    pub missed_easy: Vec<Fault>,
    carry_parts: CarryParts,
    prior: Option<Prior>,
}

impl AfterAlternating {
    /// The step-1 report.
    pub fn report(&self) -> &AlternatingReport {
        &self.report
    }

    /// Faults the alternating sequence detected.
    pub fn detected(&self) -> &HashSet<Fault> {
        &self.detected
    }

    /// Step 2 (paper §4): combinational PODEM on the scan-mode view for
    /// the hard faults step 1 did not fortuitously catch, each test
    /// confirmed by (sharded) sequential fault simulation.
    ///
    /// On a rerun the outcome carries over whole, and only when the
    /// target list is identical and every target is clean: PODEM explores
    /// each fault's cone and its transitive fanin, and every accepted
    /// window re-drops the entire hard list.
    pub fn comb(mut self) -> AfterComb {
        let hard: Vec<Fault> = self
            .classified
            .iter()
            .filter(|c| c.category == Category::Hard && !self.detected.contains(&c.fault))
            .map(|c| c.fault)
            .collect();
        let (design, config) = (&self.design, &self.config);
        let outcome = whole_stage(
            &mut self.prior,
            &hard,
            arena_footprint(design.topology().num_nodes(), config.lane_width),
            |c| c.config == *config && c.hard == hard,
            |c| c.comb_outcome.clone(),
            || CombPhase::new(design, config).run(&hard),
            |o| &mut o.report.metrics,
        );
        let mut carry_parts = self.carry_parts;
        carry_parts.hard = hard;
        carry_parts.comb_outcome = Some(outcome.clone());
        AfterComb {
            design: self.design,
            config: self.config,
            total_faults: self.total_faults,
            classified: self.classified,
            summary: self.summary,
            alternating: self.report,
            vectors: self.vectors,
            missed_easy: self.missed_easy,
            remaining: outcome.remaining.clone(),
            outcome,
            carry_parts,
            prior: self.prior,
        }
    }
}

/// Checkpoint after the combinational phase. `remaining` (the hard
/// leftovers) and `missed_easy` are open for modification; their union
/// is step 3's target set.
#[derive(Clone, Debug)]
pub struct AfterComb {
    design: Arc<ScanDesign>,
    config: PipelineConfig,
    total_faults: usize,
    classified: Vec<ClassifiedFault>,
    summary: ClassifySummary,
    alternating: AlternatingReport,
    vectors: Vec<Vec<V3>>,
    outcome: CombPhaseOutcome,
    /// Hard faults step 2 left unresolved (forwarded to step 3).
    pub remaining: Vec<Fault>,
    /// Category-1 faults step 1 missed (forwarded to step 3).
    pub missed_easy: Vec<Fault>,
    carry_parts: CarryParts,
    prior: Option<Prior>,
}

impl AfterComb {
    /// The step-2 report.
    pub fn report(&self) -> &CombPhaseReport {
        &self.outcome.report
    }

    /// The compaction stage (paper §6, run mid-flow): assembles the
    /// program so far — the alternating sequence plus every comb window
    /// — and reverse-order compacts it against the chain-affecting
    /// faults in one pass. Lossless by construction: every test starts
    /// with a full scan load and is simulated alone, and every counted
    /// detection is credited to a kept test (see
    /// [`compact_program`](crate::compact_program), whose kept tests and
    /// report this stage equals). The alternating sequence is not
    /// simulated again: step 1 simulated the same vectors from the same
    /// all-X state against the same faults, and its detections stand in.
    ///
    /// On a rerun the outcome carries over whole when step 2's did and
    /// the alternating sequence and chain-affecting faults are unchanged
    /// and clean.
    pub fn compact(mut self) -> AfterCompact {
        let affected: Vec<Fault> = self
            .classified
            .iter()
            .filter(|c| c.category != Category::Unaffected)
            .map(|c| c.fault)
            .collect();
        let vectors_match = self
            .prior
            .as_ref()
            .and_then(Prior::carry)
            .is_some_and(|c| c.alt_vectors == self.vectors);
        // Test 0 is the alternating sequence: step 1 already simulated it
        // against every affected fault.
        let alternating: Vec<bool> = affected
            .iter()
            .map(|f| self.carry_parts.alt_detections[f].is_some())
            .collect();
        let (design, config, vectors) = (&self.design, &self.config, self.vectors);
        let CombPhaseOutcome {
            report: comb_report,
            program: comb_tests,
            ..
        } = self.outcome;
        let compacted = whole_stage(
            &mut self.prior,
            &affected,
            arena_footprint(design.topology().num_nodes(), config.lane_width),
            |c| vectors_match && c.affected == affected,
            |c| c.compaction.clone(),
            || {
                let mut program = TestProgram::new();
                program.push(ScanTest::new("alternating", vectors));
                for t in comb_tests {
                    program.push(t);
                }
                compact_known(design, config, program, &affected, Some(&alternating))
            },
            |o| &mut o.report.metrics,
        );
        let mut carry_parts = self.carry_parts;
        carry_parts.affected = affected;
        carry_parts.compaction = Some(compacted.clone());
        AfterCompact {
            design: self.design,
            config: self.config,
            total_faults: self.total_faults,
            classified: self.classified,
            summary: self.summary,
            alternating: self.alternating,
            comb: comb_report,
            compaction: compacted.report,
            program: compacted.program,
            remaining: self.remaining,
            missed_easy: self.missed_easy,
            carry_parts,
            prior: self.prior,
        }
    }
}

/// Checkpoint after the compaction stage. `remaining` and `missed_easy`
/// stay open for modification; their union is step 3's target set.
#[derive(Clone, Debug)]
pub struct AfterCompact {
    design: Arc<ScanDesign>,
    config: PipelineConfig,
    total_faults: usize,
    classified: Vec<ClassifiedFault>,
    summary: ClassifySummary,
    alternating: AlternatingReport,
    comb: CombPhaseReport,
    compaction: CompactionReport,
    program: TestProgram,
    /// Hard faults step 2 left unresolved (forwarded to step 3).
    pub remaining: Vec<Fault>,
    /// Category-1 faults step 1 missed (forwarded to step 3).
    pub missed_easy: Vec<Fault>,
    carry_parts: CarryParts,
    prior: Option<Prior>,
}

impl AfterCompact {
    /// The compaction-stage report.
    pub fn report(&self) -> &CompactionReport {
        &self.compaction
    }

    /// The compacted program assembled so far (alternating sequence
    /// plus the kept comb windows).
    pub fn program(&self) -> &TestProgram {
        &self.program
    }

    /// Step 3 (paper §5): targeted sequential ATPG with enhanced
    /// controllability/observability over `remaining ∪ missed_easy`,
    /// then the final report.
    ///
    /// On a rerun the outcome carries over whole when compaction's did
    /// and the target set is unchanged.
    pub fn seq(mut self) -> PipelineReport {
        let mut targets: Vec<Fault> = self.remaining.clone();
        targets.extend(self.missed_easy.iter().copied());
        let (design, config, classified) = (&self.design, &self.config, &self.classified);
        // The sequential phase's fault simulators run on the default
        // 64-lane rail regardless of the packed-stage width.
        let seq_outcome = whole_stage(
            &mut self.prior,
            &targets,
            arena_footprint(design.topology().num_nodes(), LaneWidth::W64),
            |c| c.seq_targets == targets,
            |c| c.seq_outcome.clone(),
            || {
                let locations: HashMap<Fault, &[ChainLocation]> = classified
                    .iter()
                    .map(|c| (c.fault, &c.locations[..]))
                    .collect();
                let target_locs: Vec<Vec<ChainLocation>> = targets
                    .iter()
                    .map(|f| locations.get(f).map(|l| l.to_vec()).unwrap_or_default())
                    .collect();
                SeqPhase::new(design, config).run(&targets, &target_locs)
            },
            |o| &mut o.report.metrics,
        );
        let mut carry_parts = self.carry_parts;
        carry_parts.seq_targets = targets;
        carry_parts.seq_outcome = Some(seq_outcome.clone());

        let seq_detected: HashSet<Fault> = seq_outcome.detected.iter().copied().collect();
        let rescued_easy = self
            .missed_easy
            .iter()
            .filter(|f| seq_detected.contains(f))
            .count();

        let mut program = self.program;
        for t in seq_outcome.program {
            program.push(t);
        }
        PipelineReport {
            name: self.design.circuit().name().to_string(),
            total_faults: self.total_faults,
            classification: self.summary,
            alternating: self.alternating,
            comb: self.comb,
            compact: self.compaction,
            seq: seq_outcome.report,
            rescued_easy,
            undetected_faults: seq_outcome.remaining,
            program,
            carry: carry_parts.into_carry(&self.config),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscan_netlist::{generate, GeneratorConfig};
    use fscan_scan::{insert_functional_scan, TpiConfig};

    #[test]
    fn end_to_end_counts_are_consistent() {
        let circuit = generate(&GeneratorConfig::new("e2e", 7).gates(200).dffs(12));
        let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default()).unwrap());
        let report = PipelineSession::shared(Arc::clone(&design), PipelineConfig::default()).run();
        assert_eq!(
            report.classification.total,
            fscan_fault::collapse(design.circuit(), &fscan_fault::all_faults(design.circuit()))
                .len()
        );
        assert!(report.classification.affected() <= report.classification.total);
        // Step-2 targeted ≤ hard count.
        assert!(report.comb.targeted <= report.classification.hard);
        // Step-3 resolves the chain: its targeted = step-2 undetected +
        // missed easy.
        assert_eq!(
            report.seq.targeted,
            report.comb.undetected + report.alternating.missed_easy
        );
        // Rescue bookkeeping: rescued ≤ missed, and the undetected count
        // already includes any unrescued missed-easy fault.
        assert!(report.rescued_easy <= report.alternating.missed_easy);
        assert_eq!(report.undetected(), report.seq.undetected);
        // Paper headline shape: nearly everything gets resolved.
        let resolved = report.seq.detected + report.seq.undetectable;
        assert!(
            resolved + report.seq.undetected == report.seq.targeted,
            "{report}"
        );
        // Memory accounting is populated on every stage: a nonzero
        // deterministic arena footprint everywhere, and the classify
        // stage's cone histogram covers the whole fault universe.
        for (name, m) in report.stages() {
            assert!(m.mem.arena_bytes > 0, "stage {name} reports no arena");
        }
        assert_eq!(
            report.classification.metrics.mem.cone_hist.total_cones(),
            report.classification.total as u64
        );
        assert_eq!(
            report.total_mem().cone_hist,
            report.classification.metrics.mem.cone_hist
        );
        // No tracking allocator installed in unit tests → peaks read 0.
        assert_eq!(report.total_mem().peak_bytes, 0);
    }

    #[test]
    fn most_chain_affecting_faults_end_up_covered() {
        let mut affected = 0usize;
        let mut undetected = 0usize;
        for seed in [101u64, 103] {
            let circuit = generate(&GeneratorConfig::new("cov", seed).gates(180).dffs(10));
            let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default()).unwrap());
            let report = PipelineSession::shared(design, PipelineConfig::default()).run();
            affected += report.classification.affected();
            undetected += report.seq.undetected;
        }
        assert!(affected > 0);
        // Paper: 0.022% of chain-affecting faults stay undetected. Our
        // substrate is smaller and the simulation pessimistic; demand
        // < 6%.
        assert!(
            undetected * 100 < affected * 6,
            "{undetected}/{affected} chain-affecting faults undetected"
        );
    }

    #[test]
    fn display_renders_all_sections() {
        let circuit = generate(&GeneratorConfig::new("disp", 3).gates(100).dffs(6));
        let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default()).unwrap());
        let report = PipelineSession::shared(design, PipelineConfig::default()).run();
        let s = report.to_string();
        assert!(s.contains("alternating sequence"));
        assert!(s.contains("comb ATPG"));
        assert!(s.contains("sequential ATPG"));
        assert!(s.contains("undetected:"));
    }

    #[test]
    fn config_validates() {
        let config = PipelineConfig {
            threads: 4,
            ..PipelineConfig::default()
        };
        assert!(config.validate().is_ok());
        let bad_seq = PipelineConfig {
            seq: SeqAtpgConfig {
                max_frames: 0,
                ..SeqAtpgConfig::default()
            },
            ..PipelineConfig::default()
        };
        assert_eq!(
            bad_seq.validate().unwrap_err(),
            ConfigError::ZeroMaxFrames("seq")
        );
        let bad_final = PipelineConfig {
            final_seq: SeqAtpgConfig {
                max_frames: 0,
                ..SeqAtpgConfig::default()
            },
            ..PipelineConfig::default()
        };
        assert_eq!(
            bad_final.validate().unwrap_err(),
            ConfigError::ZeroMaxFrames("final_seq")
        );
        let bad_podem = PipelineConfig {
            podem: PodemConfig {
                backtrack_limit: 0,
                step_limit: 0,
            },
            ..PipelineConfig::default()
        };
        assert_eq!(
            bad_podem.validate().unwrap_err(),
            ConfigError::EmptyPodemBudget
        );
        let bad_dist = PipelineConfig {
            dist: Some(DistParams {
                large: 5,
                med: 10,
                dist: 2,
            }),
            ..PipelineConfig::default()
        };
        assert!(matches!(
            bad_dist.validate().unwrap_err(),
            ConfigError::UnorderedDist(_)
        ));
        // Error values render a human-readable reason.
        let msg = ConfigError::ZeroMaxFrames("seq").to_string();
        assert!(msg.contains("max_frames"));
    }

    #[test]
    fn staged_session_matches_monolithic_run() {
        let circuit = generate(&GeneratorConfig::new("staged", 11).gates(180).dffs(10));
        let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default()).unwrap());
        let config = PipelineConfig::default();
        let monolithic = PipelineSession::shared(Arc::clone(&design), config.clone()).run();
        let staged = PipelineSession::shared(Arc::clone(&design), config)
            .classify()
            .alternating()
            .comb()
            .compact()
            .seq();
        assert_eq!(staged.classification.total, monolithic.classification.total);
        assert_eq!(staged.classification.easy, monolithic.classification.easy);
        assert_eq!(staged.classification.hard, monolithic.classification.hard);
        assert_eq!(staged.alternating.detected, monolithic.alternating.detected);
        assert_eq!(staged.comb.detected, monolithic.comb.detected);
        assert_eq!(staged.seq.detected, monolithic.seq.detected);
        assert_eq!(staged.undetected_faults, monolithic.undetected_faults);
        assert_eq!(
            staged.program.tests().len(),
            monolithic.program.tests().len()
        );
    }

    #[test]
    fn full_run_reports_exactly_one_topology_build() {
        let circuit = generate(&GeneratorConfig::new("once", 21).gates(160).dffs(10));
        let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default()).unwrap());
        let report = PipelineSession::shared(design, PipelineConfig::default()).run();
        // The session books its single base-circuit compilation against
        // the classify stage; no other stage may add one. (The global
        // build-counter delta is asserted in `tests/topology_once.rs`,
        // which runs in its own process.)
        assert_eq!(report.total_counters().topology_builds, 1);
        assert_eq!(report.stages()[0].1.counters.topology_builds, 1);
        for (_, m) in &report.stages()[1..] {
            assert_eq!(m.counters.topology_builds, 0);
        }
        // A cold run has no prior: it reuses nothing, so it books no
        // reuse split and seeds no trace cycle from an earlier trace.
        for (name, m) in report.stages() {
            assert_eq!(m.counters.verdicts_reused, 0, "stage {name}");
            assert_eq!(m.counters.cones_invalidated, 0, "stage {name}");
            assert_eq!(m.counters.trace_cycles_reused, 0, "stage {name}");
        }
    }

    #[test]
    fn sessions_and_checkpoints_are_send_and_static() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<PipelineSession>();
        assert_send::<Classified>();
        assert_send::<AfterAlternating>();
        assert_send::<AfterComb>();
        assert_send::<AfterCompact>();
        assert_send::<PipelineReport>();
    }

    #[test]
    fn concurrent_sessions_match_one_session() {
        let circuit = generate(&GeneratorConfig::new("own", 17).gates(160).dffs(10));
        let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default()).unwrap());
        let alone = PipelineSession::shared(Arc::clone(&design), PipelineConfig::default()).run();
        // Two concurrent sessions over one Arc — both 'static + Send.
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let s = PipelineSession::shared(Arc::clone(&design), PipelineConfig::default());
                std::thread::spawn(move || s.run())
            })
            .collect();
        for h in handles {
            let report = h.join().unwrap();
            assert_eq!(report.classification.total, alone.classification.total);
            assert_eq!(report.seq.detected, alone.seq.detected);
            assert_eq!(report.undetected_faults, alone.undetected_faults);
            assert_eq!(report.total_counters(), alone.total_counters());
        }
    }

    #[test]
    fn checkpoint_edits_flow_into_later_stages() {
        let circuit = generate(&GeneratorConfig::new("edit", 13).gates(150).dffs(8));
        let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default()).unwrap());
        let mut classified = PipelineSession::shared(design, PipelineConfig::default()).classify();
        // Drop every hard fault at the checkpoint: step 2 must see an
        // empty target set.
        classified
            .classified
            .retain(|c| c.category != Category::Hard);
        assert_eq!(classified.summary().hard, 0);
        let after_comb = classified.alternating().comb();
        assert_eq!(after_comb.report().targeted, 0);
        let report = after_comb.compact().seq();
        assert_eq!(report.comb.targeted, 0);
        assert_eq!(report.classification.hard, 0);
    }

    /// A stage run alone reads the config the session does and does the
    /// same search: the comb stage at 64/256 lanes x 1/2 threads, and
    /// step 3, whose `dist` default and frame scaling live in
    /// `SeqPhase::new`. No committed snapshot reaches step 3, so this is
    /// what pins those rules.
    #[test]
    fn stages_run_alone_match_the_session() {
        let circuit = generate(&GeneratorConfig::new("d", 83).gates(200).dffs(12));
        let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default()).unwrap());
        let max_len = design.max_chain_len();
        // Both default frame budgets sit below the longest chain plus 4,
        // so the scaling decides them.
        assert!(max_len + 4 > PipelineConfig::default().final_seq.max_frames);
        for lane_width in [LaneWidth::W64, LaneWidth::W256] {
            for threads in [1, 2] {
                let config = PipelineConfig {
                    threads,
                    lane_width,
                    ..PipelineConfig::default()
                };
                let after_comb = PipelineSession::shared(Arc::clone(&design), config.clone())
                    .classify()
                    .alternating()
                    .comb();
                let session = &after_comb.outcome;
                let alone = CombPhase::new(&design, &config).run(&after_comb.carry_parts.hard);
                assert_eq!(alone.detected, session.detected);
                assert_eq!(alone.undetectable, session.undetectable);
                assert_eq!(alone.remaining, session.remaining);
                assert_eq!(alone.report.detection_curve, session.report.detection_curve);
                assert_eq!(
                    alone.report.metrics.counters,
                    session.report.metrics.counters
                );
                let vectors = |o: &CombPhaseOutcome| -> Vec<Vec<Vec<V3>>> {
                    o.program.iter().map(|t| t.vectors.clone()).collect()
                };
                assert_eq!(vectors(&alone), vectors(session));

                let mut targets = after_comb.remaining.clone();
                targets.extend(after_comb.missed_easy.iter().copied());
                assert!(!targets.is_empty(), "the design must reach step 3");
                let locations: Vec<Vec<ChainLocation>> = targets
                    .iter()
                    .map(|f| {
                        let c = after_comb.classified.iter().find(|c| c.fault == *f);
                        c.map(|c| c.locations.clone()).unwrap_or_default()
                    })
                    .collect();
                let after_compact = after_comb.compact();
                let kept = after_compact.program().len();
                let report = after_compact.seq();
                let spelled_out = PipelineConfig {
                    dist: Some(DistParams::paper(max_len)),
                    seq: SeqAtpgConfig {
                        max_frames: max_len + 4,
                        ..config.seq
                    },
                    final_seq: SeqAtpgConfig {
                        max_frames: max_len + 4,
                        ..config.final_seq
                    },
                    ..config.clone()
                };
                for config in [&config, &spelled_out] {
                    let alone = SeqPhase::new(&design, config).run(&targets, &locations);
                    // The session also closes the stage's memory window.
                    let mut seq = alone.report;
                    seq.metrics.cpu = report.seq.metrics.cpu;
                    seq.metrics.mem = report.seq.metrics.mem;
                    assert_eq!(seq, report.seq);
                    assert_eq!(alone.program, report.program.tests()[kept..]);
                }
            }
        }
    }
}
