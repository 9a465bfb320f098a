//! Deterministic work counters for the pipeline.
//!
//! Wall-clock `Duration`s depend on the machine, the load and the
//! thread count; the counters here count *work items* instead: gate
//! evaluations, lane·cycles, implication events, ATPG decisions. Each
//! contribution is a pure function of the item being processed — never
//! of the worker that processed it or of the chunk geometry — so the
//! per-stage sums are **bit-identical for every thread count**. That
//! makes them usable both as machine-independent perf oracles (the
//! BENCH trajectory) and as determinism regression tests.

use std::fmt;
use std::ops::{Add, AddAssign};
use std::time::Duration;

use crate::mem::MemMetrics;
use crate::pool::ShardStats;

/// Exact, machine-independent work counters.
///
/// Semantics of the individual fields:
///
/// * `gate_evals` — gate-evaluation operations executed. One scalar
///   [`V3`](crate::V3) gate evaluation counts 1; one packed
///   [`Pv<W>`](crate::Pv) gate evaluation also counts 1 (it is one
///   operation, covering up to `W::LANES` fault lanes — 64 on the
///   `u64` rail, 256 on [`R256`](crate::kernel::R256); `lane_cycles`
///   captures the logical coverage). The event-driven simulators count
///   only gates *actually re-evaluated* (one full seed pass at cycle
///   0, changed gates afterwards), so this measures incremental work,
///   not `cycles × gates`. A fault list that fits one packed word
///   evaluates its word only at gates a fault effect reaches (see
///   [`fault_sim_sharded`](crate::ParallelFaultSim::fault_sim_sharded)).
///   PODEM counts forward re-evaluations only: a retraction restores
///   the values it undoes from the search's undo trail and books
///   nothing.
/// * `lane_cycles` — Σ over simulated cycles of the number of active
///   fault lanes (a serial simulation, the good machine included,
///   contributes 1 per cycle). In a single-word
///   [`fault_sim_sharded`](crate::ParallelFaultSim::fault_sim_sharded)
///   call the good machine is stepped together with the word and stops
///   at the word's last detection, so its `gate_evals` and
///   `lane_cycles` cover only the cycles through that detection (all
///   of them if a lane stays undetected).
/// * `implication_events` — nodes popped and re-evaluated by
///   [`ImplicationEngine::run`](crate::ImplicationEngine::run).
/// * `cone_nets` — nets a fault can reach. The implication engines book
///   the sizes of the forward-implication cones, tallied per lane, so
///   that share is identical at every rail width. The parallel fault
///   simulator books, per packed fault word, the union fault-cone size
///   of a word that shares a good trace, or the nets that carried a
///   fault effect in some cycle for a list that fits one word. That
///   share is tallied per word, so it moves with the width: the
///   committed s9234 compaction stage books 254 at 256 lanes and 701 at
///   64.
/// * `podem_decisions` — PODEM objective decisions taken (steps that
///   were not reversals).
/// * `podem_backtracks` — PODEM reversals of a previous decision.
/// * `podem_aborts` — PODEM/SeqAtpg runs that hit a backtrack or step
///   budget without a verdict.
/// * `sat_screens` — SAT untestability screens run. A PODEM search that
///   backtracks past its screening threshold screens its faults once.
///   When its view is exact for them (every source in the support of
///   the faults' fanout cone is controllable or fixed), it hands their
///   good/faulty miter to a SAT solver and books one here.
/// * `sat_conflicts` — conflicts those screens' solver spent, whatever
///   their verdict.
/// * `x_screens` — three-valued screens run: the same once-per-search
///   screen in a view where the faults' cone reads X state (an input or
///   flip-flop the view neither controls nor pins). It runs a linear
///   reachability check of known good/faulty differences instead of the
///   miter. A search books one screen, here or in `sat_screens`.
/// * `windows_formed` — candidate test windows (scan-in / apply /
///   scan-out sequences) assembled by the core phases.
/// * `early_exits` — short-circuits taken: a packed fault word whose
///   faults were all detected before the vector set was exhausted, or a
///   phase skipping a target already covered by fault dropping.
/// * `topology_builds` — [`CompiledTopology`](fscan_netlist::CompiledTopology)
///   compilations a stage triggered. A full pipeline run over one design
///   reports exactly 1 (the compile-once invariant).
/// * `scratch_reuses` — packed fault words served through a reusable
///   [`SimScratch`](crate::SimScratch) arena instead of freshly
///   allocated buffers (one per word, so thread-count invariant; wider
///   rails serve fewer, larger words).
/// * `implication_words` — packed words processed by
///   [`PackedImplicationEngine`](crate::PackedImplicationEngine) (one
///   per `run_word` call, so thread-count invariant; the most direct
///   measure of wide-rail amortization).
/// * `kernel_gate_evals` — packed dual-rail kernel gate evaluations at
///   any rail width. A subset of `gate_evals`: every packed evaluation
///   counts once in both, so `gate_evals - kernel_gate_evals` is the
///   scalar share. In fault simulation the packed evaluations are the
///   fault words' and the scalar ones the good machine's.
/// * `faults_dropped` — pending ATPG targets resolved by the global
///   packed drop simulation of a vector that was generated for a
///   *different* target (the classic fault-dropping win; a target
///   detected by its own vector does not count).
/// * `vectors_compacted` — tests removed from a `TestProgram` by
///   reverse-order static compaction.
/// * `podem_shards` — sharded PODEM batch rounds dispatched by the
///   comb phase (one per `shard_map` round, independent of the
///   thread count that served it).
/// * `cones_invalidated` — faults an incremental rerun
///   ([`PipelineSession::rerun`](https://docs.rs/fscan)) had to
///   re-enqueue because their detection cones intersect the netlist
///   delta's dirty set (includes faults new to the patched universe).
/// * `verdicts_reused` — per-fault verdicts an incremental rerun
///   carried forward unchanged from the prior report instead of
///   recomputing (classification verdicts, alternating detections, and
///   whole-stage reuses booked per fault).
/// * `trace_cycles_reused` — good-trace cycles
///   [`GoodTrace::replay_from`](crate::GoodTrace::replay_from) seeded
///   from a prior run's trace instead of simulating from scratch.
///
/// All fields are `u64` and every aggregation is an unordered sum, so
/// merging in any order yields the same totals.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Gate-evaluation operations executed (scalar or packed).
    pub gate_evals: u64,
    /// Σ active fault lanes over simulated cycles.
    pub lane_cycles: u64,
    /// Nodes re-evaluated during forward implication.
    pub implication_events: u64,
    /// Total nets changed across all implication cones.
    pub cone_nets: u64,
    /// PODEM objective decisions.
    pub podem_decisions: u64,
    /// PODEM backtracks (decision reversals).
    pub podem_backtracks: u64,
    /// ATPG runs aborted on a budget.
    pub podem_aborts: u64,
    /// Untestability screens run by PODEM searches.
    pub sat_screens: u64,
    /// SAT solver conflicts spent by those screens.
    pub sat_conflicts: u64,
    /// Three-valued reachability screens run by PODEM searches.
    pub x_screens: u64,
    /// Candidate test windows assembled.
    pub windows_formed: u64,
    /// Early exits taken (word fully detected, target already dropped).
    pub early_exits: u64,
    /// Circuit topology compilations triggered.
    pub topology_builds: u64,
    /// Packed fault words served by a reusable scratch arena.
    pub scratch_reuses: u64,
    /// Packed implication words processed.
    pub implication_words: u64,
    /// Packed dual-rail kernel gate evaluations (subset of `gate_evals`).
    pub kernel_gate_evals: u64,
    /// Pending targets resolved by a vector generated for another target.
    pub faults_dropped: u64,
    /// Tests removed by reverse-order static compaction.
    pub vectors_compacted: u64,
    /// Sharded PODEM batch rounds dispatched.
    pub podem_shards: u64,
    /// Faults re-enqueued by an incremental rerun (dirty cones).
    pub cones_invalidated: u64,
    /// Per-fault verdicts carried forward by an incremental rerun.
    pub verdicts_reused: u64,
    /// Good-trace cycles replayed from a prior run's trace.
    pub trace_cycles_reused: u64,
}

impl WorkCounters {
    /// The all-zero counter set.
    pub const ZERO: WorkCounters = WorkCounters {
        gate_evals: 0,
        lane_cycles: 0,
        implication_events: 0,
        cone_nets: 0,
        podem_decisions: 0,
        podem_backtracks: 0,
        podem_aborts: 0,
        sat_screens: 0,
        sat_conflicts: 0,
        x_screens: 0,
        windows_formed: 0,
        early_exits: 0,
        topology_builds: 0,
        scratch_reuses: 0,
        implication_words: 0,
        kernel_gate_evals: 0,
        faults_dropped: 0,
        vectors_compacted: 0,
        podem_shards: 0,
        cones_invalidated: 0,
        verdicts_reused: 0,
        trace_cycles_reused: 0,
    };

    /// Adds `other` into `self` field-wise.
    pub fn merge(&mut self, other: &WorkCounters) {
        *self += *other;
    }

    /// `true` when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == WorkCounters::ZERO
    }

    /// The counters as `(name, value)` pairs in a fixed order —
    /// the single source of truth for JSON emission and display.
    pub fn fields(&self) -> [(&'static str, u64); 22] {
        [
            ("gate_evals", self.gate_evals),
            ("lane_cycles", self.lane_cycles),
            ("implication_events", self.implication_events),
            ("cone_nets", self.cone_nets),
            ("podem_decisions", self.podem_decisions),
            ("podem_backtracks", self.podem_backtracks),
            ("podem_aborts", self.podem_aborts),
            ("sat_screens", self.sat_screens),
            ("sat_conflicts", self.sat_conflicts),
            ("x_screens", self.x_screens),
            ("windows_formed", self.windows_formed),
            ("early_exits", self.early_exits),
            ("topology_builds", self.topology_builds),
            ("scratch_reuses", self.scratch_reuses),
            ("implication_words", self.implication_words),
            ("kernel_gate_evals", self.kernel_gate_evals),
            ("faults_dropped", self.faults_dropped),
            ("vectors_compacted", self.vectors_compacted),
            ("podem_shards", self.podem_shards),
            ("cones_invalidated", self.cones_invalidated),
            ("verdicts_reused", self.verdicts_reused),
            ("trace_cycles_reused", self.trace_cycles_reused),
        ]
    }
}

/// The cost record every pipeline stage reports: wall-clock time, work
/// distribution across shard workers, deterministic work counters and
/// memory accounting.
///
/// `cpu` depends on the machine and thread count; `shards` on the
/// thread count; `counters` on neither — stripping the first two from a
/// report leaves thread-invariant output (the property the BENCH
/// trajectory and CI determinism check rely on). `mem` is mixed: its
/// `arena_bytes` and `cone_hist` are deterministic, while `peak_bytes`
/// and `reallocs` follow the wall-clock rules (allocator-observed,
/// stripped from determinism diffs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StageMetrics {
    /// Wall-clock time the stage took.
    pub cpu: Duration,
    /// How the stage's items were distributed over workers.
    pub shards: ShardStats,
    /// Deterministic work counters (bit-identical across thread counts).
    pub counters: WorkCounters,
    /// Memory accounting (arena footprint, cone histogram, allocator
    /// peaks when a tracking allocator is installed).
    pub mem: MemMetrics,
}

impl StageMetrics {
    /// Assembles the record with zeroed memory accounting; stages fill
    /// [`mem`](Self::mem) in afterwards.
    pub fn new(cpu: Duration, shards: ShardStats, counters: WorkCounters) -> StageMetrics {
        StageMetrics {
            cpu,
            shards,
            counters,
            mem: MemMetrics::ZERO,
        }
    }
}

impl AddAssign for WorkCounters {
    fn add_assign(&mut self, rhs: WorkCounters) {
        self.gate_evals += rhs.gate_evals;
        self.lane_cycles += rhs.lane_cycles;
        self.implication_events += rhs.implication_events;
        self.cone_nets += rhs.cone_nets;
        self.podem_decisions += rhs.podem_decisions;
        self.podem_backtracks += rhs.podem_backtracks;
        self.podem_aborts += rhs.podem_aborts;
        self.sat_screens += rhs.sat_screens;
        self.sat_conflicts += rhs.sat_conflicts;
        self.x_screens += rhs.x_screens;
        self.windows_formed += rhs.windows_formed;
        self.early_exits += rhs.early_exits;
        self.topology_builds += rhs.topology_builds;
        self.scratch_reuses += rhs.scratch_reuses;
        self.implication_words += rhs.implication_words;
        self.kernel_gate_evals += rhs.kernel_gate_evals;
        self.faults_dropped += rhs.faults_dropped;
        self.vectors_compacted += rhs.vectors_compacted;
        self.podem_shards += rhs.podem_shards;
        self.cones_invalidated += rhs.cones_invalidated;
        self.verdicts_reused += rhs.verdicts_reused;
        self.trace_cycles_reused += rhs.trace_cycles_reused;
    }
}

impl Add for WorkCounters {
    type Output = WorkCounters;

    fn add(mut self, rhs: WorkCounters) -> WorkCounters {
        self += rhs;
        self
    }
}

impl std::iter::Sum for WorkCounters {
    fn sum<I: Iterator<Item = WorkCounters>>(iter: I) -> WorkCounters {
        iter.fold(WorkCounters::ZERO, Add::add)
    }
}

impl fmt::Display for WorkCounters {
    /// Compact `name=value` rendering of the non-zero counters.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (name, value) in self.fields() {
            if value == 0 {
                continue;
            }
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "{name}={value}")?;
            first = false;
        }
        if first {
            f.write_str("-")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_fieldwise_sum() {
        let a = WorkCounters {
            gate_evals: 3,
            lane_cycles: 5,
            windows_formed: 1,
            ..WorkCounters::ZERO
        };
        let b = WorkCounters {
            gate_evals: 7,
            podem_aborts: 2,
            ..WorkCounters::ZERO
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.gate_evals, 10);
        assert_eq!(m.lane_cycles, 5);
        assert_eq!(m.podem_aborts, 2);
        assert_eq!(m.windows_formed, 1);
        assert_eq!(a + b, m);
        assert_eq!([a, b].into_iter().sum::<WorkCounters>(), m);
    }

    #[test]
    fn fields_cover_every_counter() {
        // One distinct value per field; fields() must surface them all.
        let c = WorkCounters {
            gate_evals: 1,
            lane_cycles: 2,
            implication_events: 3,
            cone_nets: 4,
            podem_decisions: 5,
            podem_backtracks: 6,
            podem_aborts: 7,
            sat_screens: 8,
            sat_conflicts: 9,
            x_screens: 10,
            windows_formed: 11,
            early_exits: 12,
            topology_builds: 13,
            scratch_reuses: 14,
            implication_words: 15,
            kernel_gate_evals: 16,
            faults_dropped: 17,
            vectors_compacted: 18,
            podem_shards: 19,
            cones_invalidated: 20,
            verdicts_reused: 21,
            trace_cycles_reused: 22,
        };
        let vals: Vec<u64> = c.fields().iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, (1..=22).collect::<Vec<u64>>());
        assert!(!c.is_zero());
        assert!(WorkCounters::ZERO.is_zero());
    }

    #[test]
    fn display_skips_zero_fields() {
        let c = WorkCounters {
            gate_evals: 12,
            early_exits: 1,
            ..WorkCounters::ZERO
        };
        assert_eq!(c.to_string(), "gate_evals=12 early_exits=1");
        assert_eq!(WorkCounters::ZERO.to_string(), "-");
    }
}
