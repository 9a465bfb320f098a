//! Gate-level sequential netlists for design-for-test research.
//!
//! This crate provides the structural substrate for the functional scan
//! chain testing reproduction: a compact gate-level circuit model with
//! D flip-flops, an ISCAS'89 `.bench` reader/writer, levelization,
//! structural validation, and a seeded generator of ISCAS-like synthetic
//! sequential circuits.
//!
//! Every net in a [`Circuit`] is identified by the [`NodeId`] of its
//! single driver (primary input, gate, or flip-flop); this is the classic
//! single-output-gate representation used by most ATPG literature.
//!
//! # Examples
//!
//! Build the tiny circuit of Figure 2 of the paper by hand:
//!
//! ```
//! use fscan_netlist::{Circuit, GateKind};
//!
//! let mut c = Circuit::new("fig2");
//! let pi = c.add_input("PI");
//! let ff1 = c.add_dff_placeholder("FF1");
//! let a = c.add_gate(GateKind::And, vec![pi, ff1], "A");
//! c.set_dff_input(ff1, a)?;
//! c.mark_output(a);
//! c.validate()?;
//! assert_eq!(c.num_gates(), 1);
//! # Ok::<(), fscan_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bench;
mod circuit;
mod delta;
mod dot;
mod error;
mod gate;
mod generator;
mod hash;
mod level;
mod reader;
mod stats;
mod topo;

pub use bench::{parse_bench, write_bench, ParseBenchError};
pub use circuit::{Circuit, Node, NodeId};
pub use delta::{DeltaNode, DeltaRef, NetlistDelta, Redrive};
pub use dot::to_dot;
pub use error::NetlistError;
pub use gate::GateKind;
pub use generator::{generate, GeneratorConfig};
pub use hash::{content_hash64, Fnv1a64};
pub use level::{FanoutTable, Levelization};
pub use reader::{BenchReader, NetlistBuilder, SrcPos};
pub use stats::CircuitStats;
pub use topo::{CompiledTopology, DirtyInfo};
