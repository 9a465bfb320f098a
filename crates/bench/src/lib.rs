//! Benchmark harness reproducing the evaluation of *Functional Scan
//! Chain Testing* (DATE 1998): Tables 1–3 and Figure 5.
//!
//! The paper evaluates on the 12 largest ISCAS'89 benchmarks
//! (SIS-optimized, mapped to a NAND/NOR library). Those netlists are not
//! redistributable, so this harness substitutes seeded synthetic
//! circuits with the same per-circuit gate/flip-flop/input counts and an
//! ISCAS-like gate mix (see `DESIGN.md`, substitution table). A `scale`
//! factor shrinks every circuit proportionally so the full suite runs in
//! minutes on a laptop; `--scale 1.0` reproduces paper-sized circuits.
//!
//! # Examples
//!
//! ```
//! use fscan_bench::{build_design, PAPER_SUITE};
//!
//! let design = build_design(&PAPER_SUITE[0], 0.25);
//! assert!(design.chains().len() >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod bench_json;
pub mod stress;
pub mod suite;
pub mod tables;

pub use baseline::{
    history_record, parse_gates, parse_history, parse_total_counters, Gate, HistoryPoint,
};
pub use bench_json::bench_json;
pub use stress::{run_stress, sample_faults, StressConfig, StressReport};
pub use suite::{build_circuit, build_design, scaled_config, SuiteCircuit, PAPER_SUITE};
pub use tables::{
    figure5, history_table, run_pipeline, run_pipeline_with, table1, table2, table3, Figure5Point,
    Table1Row, Table2Row, Table3Row,
};
