//! Functional scan chain testing (Chang, Lee, Cheng, Marek-Sadowska —
//! DATE 1998).
//!
//! A functional scan chain routes its scan path through mission logic
//! (crate [`fscan_scan`]). The classic chain integrity test — shifting
//! the alternating sequence `00110011…` — is no longer sufficient: a
//! stuck-at fault in the mission logic can corrupt the chain in ways the
//! alternating pattern cannot see. This crate implements the paper's
//! three-step screening methodology:
//!
//! 1. **Classification** ([`classify_faults`], paper §3): the 3-valued
//!    forward implication cone of every fault decides whether it affects
//!    the chain, *where* (between which flip-flop pair), and whether the
//!    alternating sequence detects it (category 1) or may not
//!    (category 2, `f_hard`).
//! 2. **Combinational ATPG + sequential fault simulation**
//!    ([`CombPhase`], paper §4): PODEM on the scan-mode circuit view
//!    generates scan-wrapped vectors for `f_hard`; sequential fault
//!    simulation confirms real detections (the fault may damage the very
//!    chain used to shift).
//! 3. **Targeted sequential ATPG** ([`SeqPhase`], paper §5): remaining
//!    faults use their location information — the chain before the first
//!    affected location is controllable, after the last is observable —
//!    grouped by `LARGE_DIST` / `MED_DIST` / `DIST`.
//!
//! [`PipelineSession`] chains all steps — with an inspectable,
//! editable checkpoint between each pair — and produces the per-step
//! reports that regenerate the paper's Tables 2–3 and Figure 5, plus
//! the emitted [`TestProgram`]. Every report carries its cost as a
//! [`fscan_sim::StageMetrics`] triple (wall-clock, shard distribution,
//! deterministic work counters), collected per run by
//! [`PipelineReport::stages`]. Around the core flow:
//!
//! * [`compact_program`] / [`truncate_to_coverage`] — test-set
//!   compaction (the paper's §6 reduction observation): one lossless
//!   reverse-order pass, or a deliberately lossy forward cut;
//! * [`diagnose_chain`] — scan-chain fault diagnosis from failing
//!   responses, built on the §3 location information.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use fscan_netlist::{generate, GeneratorConfig};
//! use fscan_scan::{insert_functional_scan, TpiConfig};
//! use fscan::{PipelineConfig, PipelineSession};
//!
//! let circuit = generate(&GeneratorConfig::new("demo", 1).gates(100).dffs(8));
//! let design = Arc::new(insert_functional_scan(&circuit, &TpiConfig::default())?);
//! let report = PipelineSession::shared(design, PipelineConfig::default()).run();
//! assert_eq!(
//!     report.classification.affected(),
//!     report.classification.easy + report.classification.hard
//! );
//! # Ok::<(), fscan_scan::ScanError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alternating;
mod classify;
mod comb_phase;
mod compact;
mod diagnosis;
mod eco;
mod error;
pub mod json;
mod pipeline;
mod program;
mod seq_phase;
mod sequences;

pub use alternating::{alternating_vectors, AlternatingPhase, AlternatingReport};
pub use classify::{
    classify_faults, classify_faults_sharded_at, Category, ChainLocation, ClassifiedFault,
    Classifier, ClassifySummary,
};
pub use comb_phase::{CombPhase, CombPhaseOutcome, CombPhaseReport};
pub use compact::{compact_program, truncate_to_coverage, CompactionOutcome, CompactionReport};
pub use diagnosis::{diagnose_chain, DiagnosisCandidate};
pub use eco::EcoCarry;
pub use error::Error;
pub use fscan_sim::LaneWidth;
pub use pipeline::{
    AfterAlternating, AfterComb, AfterCompact, Classified, ConfigError, PipelineConfig,
    PipelineConfigBuilder, PipelineReport, PipelineSession,
};
pub use program::{ScanTest, TestProgram};
pub use seq_phase::{DistParams, SeqPhase, SeqPhaseReport};
pub use sequences::{scan_load_vectors, scan_vector_layout, ScanSequence};
