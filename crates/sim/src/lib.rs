//! Logic and fault simulation for gate-level sequential netlists.
//!
//! Everything the DATE'98 functional scan chain testing flow needs to
//! *observe* circuits lives here:
//!
//! * [`kernel`] — the single dual-rail three-valued gate-evaluation
//!   kernel, lane-generic over width (every other engine delegates to
//!   it);
//! * [`V3`] — three-valued logic (0, 1, X), the kernel's 1-lane
//!   instance;
//! * [`Pv<W>`](Pv) — `W::LANES` three-valued machines packed into one
//!   dual-rail pair (`Pv<u64>` and [`Pv256`] are the 64- and 256-lane
//!   instances), used by the parallel fault simulator;
//! * [`CombEvaluator`] — levelized combinational evaluation with
//!   stuck-at fault injection;
//! * [`SeqSim`] — cycle-accurate sequential simulation and serial
//!   sequential fault simulation with X-aware detection (the reference
//!   oracle every faster engine is checked against);
//! * [`GoodTrace`] — the fault-free machine simulated once per vector
//!   sequence, event-driven, and shared read-only by every fault batch;
//! * [`TopoQueue`] — the topological work-list (a two-level bitset over
//!   evaluation-order positions) that every event-driven engine, PODEM
//!   included, schedules gates through;
//! * [`ParallelFaultSim`] — `W::LANES`-fault-per-pass sequential fault
//!   simulation (width-generic; [`LaneWidth`] is the runtime switch,
//!   256 lanes the default), event-driven and restricted to each fault
//!   word's fanout cone, with [`SimScratch`] per-thread arenas reset
//!   (not reallocated) between fault words;
//! * [`shard_map`] — scoped-thread work sharding with a deterministic
//!   in-order merge, used by every fault-parallel pipeline stage;
//! * [`WorkCounters`] — exact, machine-independent work counters
//!   (bit-identical for every thread count) that the pipeline stages
//!   aggregate for the BENCH trajectory — and [`StageMetrics`], the
//!   per-stage `cpu`/`shards`/`counters` cost triple;
//! * [`ImplicationEngine`] / [`PackedImplicationEngine`] — the 3-valued
//!   forward implication cone of a fault under fixed input constraints
//!   (paper, Section 3/Figure 3), scalar and packed at any rail width.
//!
//! # Examples
//!
//! ```
//! use fscan_netlist::{Circuit, CompiledTopology, GateKind};
//! use fscan_sim::{CombEvaluator, V3};
//!
//! let mut c = Circuit::new("t");
//! let a = c.add_input("a");
//! let b = c.add_input("b");
//! let g = c.add_gate(GateKind::Nand, vec![a, b], "g");
//! c.mark_output(g);
//! let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
//! let mut values = vec![V3::X; c.num_nodes()];
//! values[a.index()] = V3::One;
//! values[b.index()] = V3::Zero;
//! eval.eval(&mut values);
//! assert_eq!(values[g.index()], V3::One);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comb;
mod counters;
mod event;
mod implication;
pub mod kernel;
mod mem;
mod pack;
mod packed;
mod parallel;
pub mod pool;
mod scratch;
mod seq;
mod value;
mod width;

pub use comb::CombEvaluator;
pub use counters::{StageMetrics, WorkCounters};
pub use event::{GoodTrace, TopoQueue};
pub use implication::{ImplicationEngine, NetChange, PackedChange, PackedImplicationEngine};
pub use mem::{ConeHist, MemMetrics, CONE_HIST_BUCKETS};
pub use pack::pack_order;
pub use packed::{Pv, Pv256};
pub use parallel::ParallelFaultSim;
pub use pool::{resolve_threads, shard_map, shard_map_counted, ShardStats};
pub use scratch::SimScratch;
pub use seq::{detects, SeqSim, Trace};
pub use value::V3;
pub use width::{LaneWidth, ParseLaneWidthError};
