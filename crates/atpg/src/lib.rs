//! Automatic test pattern generation.
//!
//! Two engines, both built from scratch:
//!
//! * [`Podem`] — a combinational PODEM with SCOAP-guided backtrace,
//!   X-path checking, complete backtracking (so it can *prove*
//!   undetectability) and a backtrack budget. It operates on a *view*
//!   of a circuit: an explicit set of controllable inputs, fixed (pinned)
//!   inputs and observable nets, which is exactly what the scan-mode
//!   models of the DATE'98 flow need.
//! * [`SeqAtpg`] — sequential ATPG by time-frame expansion: the circuit
//!   is unrolled ([`unroll`]) for a growing number of frames and PODEM
//!   runs on the unrolled model with the fault injected in every frame.
//!
//! # Examples
//!
//! ```
//! use fscan_netlist::{Circuit, CompiledTopology, GateKind};
//! use fscan_fault::Fault;
//! use fscan_atpg::{AtpgOutcome, Podem, PodemConfig};
//!
//! let mut c = Circuit::new("t");
//! let a = c.add_input("a");
//! let b = c.add_input("b");
//! let g = c.add_gate(GateKind::And, vec![a, b], "g");
//! c.mark_output(g);
//! let podem = Podem::with_topology(CompiledTopology::shared(&c), vec![a, b], vec![], vec![g]);
//! let outcome = podem.run(&[Fault::stem(g, false)], &PodemConfig::default());
//! assert!(matches!(outcome.verdict, AtpgOutcome::Test(_)));
//! assert!(outcome.vector().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dvalue;
mod podem;
mod random;
mod sequential;
mod unroll;

pub use dvalue::D5;
pub use podem::{AtpgOutcome, Podem, PodemConfig, PodemOutcome, PodemScratch};
pub use random::random_vectors;
pub use sequential::{SeqAtpg, SeqAtpgConfig, SeqOutcome, SeqTest};
pub use unroll::{unroll, FrameMap, Unrolled};
