//! Per-thread reusable simulation arenas.

use fscan_netlist::{CompiledTopology, NodeId};

use crate::event::TopoQueue;
use crate::kernel::Rail;
use crate::packed::Pv;
use crate::value::V3;

/// Sentinel for "no entry" in the epoch-stamped injection lists.
pub(crate) const NO_ENTRY: u32 = u32::MAX;

/// A per-thread scratch arena for
/// [`ParallelFaultSim`](crate::ParallelFaultSim).
///
/// Holds every buffer a `W::LANES`-fault word needs — the replayed good
/// values, the packed faulty values, epoch-stamped cone marks, the
/// [`TopoQueue`](crate::TopoQueue) work-list, the cone work lists and
/// the fault-injection tables. `shard_map` workers construct one arena
/// per thread (in the per-worker init closure) and the simulator
/// *resets* it between fault words — epoch bumps and length-zero clears
/// that keep capacity — so the steady-state hot loop performs zero heap
/// allocation. Each word served through an
/// arena increments the `scratch_reuses` work counter.
///
/// The injection tables replace the per-word `HashMap`s of the previous
/// implementation with per-node linked lists: `stem_head[n]` /
/// `branch_head[n]` hold `(epoch, first-entry)` pairs valid only when
/// the stored epoch matches the current word's, so "clearing" the map
/// is one integer increment.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{Circuit, CompiledTopology, GateKind};
/// use fscan_fault::Fault;
/// use fscan_sim::{ParallelFaultSim, SimScratch, V3};
///
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// let g = c.add_gate(GateKind::Not, vec![a], "g");
/// c.mark_output(g);
/// let sim = ParallelFaultSim::with_topology(CompiledTopology::shared(&c));
/// let trace = sim.good_trace(&[vec![V3::One]], &[]);
/// let mut scratch = sim.scratch();
/// let mut out = Vec::new();
/// let w = sim.fault_sim_into(&[Fault::stem(g, true)], &trace, &mut scratch, &mut out);
/// assert_eq!(out, vec![Some(0)]);
/// assert_eq!(w.scratch_reuses, 1);
/// ```
#[derive(Clone, Debug)]
pub struct SimScratch<W: Rail = u64> {
    pub(crate) num_nodes: usize,
    /// Current word epoch; stamps equal to it are valid for this word.
    pub(crate) epoch: u32,
    pub(crate) good_now: Vec<V3>,
    pub(crate) fval: Vec<Pv<W>>,
    /// `cone_stamp[n] == epoch` marks node `n` as inside the union cone.
    pub(crate) cone_stamp: Vec<u32>,
    pub(crate) stack: Vec<NodeId>,
    pub(crate) cone_order: Vec<NodeId>,
    pub(crate) cone_pis: Vec<NodeId>,
    pub(crate) cone_ffs: Vec<NodeId>,
    pub(crate) cone_outs: Vec<(u32, NodeId)>,
    /// Pending gates by evaluation-order position.
    pub(crate) queue: TopoQueue,
    pub(crate) fnext: Vec<Pv<W>>,
    pub(crate) buf: Vec<Pv<W>>,
    /// Per-node `(epoch, first stem entry)` heads.
    pub(crate) stem_head: Vec<(u32, u32)>,
    /// `(lane mask, stuck value, next entry)` stem-injection entries.
    pub(crate) stem_entries: Vec<(W, bool, u32)>,
    /// Per-gate `(epoch, first branch entry)` heads.
    pub(crate) branch_head: Vec<(u32, u32)>,
    /// `(pin, lane mask, stuck value, next entry)` branch entries.
    pub(crate) branch_entries: Vec<(u32, W, bool, u32)>,
}

impl<W: Rail> SimScratch<W> {
    /// A fresh arena sized for `topo`. All buffers are allocated here,
    /// once; reuse across words never reallocates.
    pub fn new(topo: &CompiledTopology) -> SimScratch<W> {
        let n = topo.num_nodes();
        SimScratch {
            num_nodes: n,
            epoch: 0,
            good_now: vec![V3::X; n],
            fval: vec![Pv::ALL_X; n],
            cone_stamp: vec![0; n],
            stack: Vec::new(),
            cone_order: Vec::new(),
            cone_pis: Vec::new(),
            cone_ffs: Vec::new(),
            cone_outs: Vec::new(),
            queue: TopoQueue::new(n),
            fnext: Vec::new(),
            buf: Vec::with_capacity(8),
            stem_head: vec![(0, NO_ENTRY); n],
            stem_entries: Vec::with_capacity(64),
            branch_head: vec![(0, NO_ENTRY); n],
            branch_entries: Vec::with_capacity(64),
        }
    }

    /// The structural arena footprint in bytes for a circuit with
    /// `num_nodes` nodes at rail width `W`: the node-indexed arrays and
    /// the work-list bitset every worker allocates once
    /// ([`new`](Self::new)). A pure function of node count and rail
    /// width — identical for every shard and thread count — so it is the
    /// deterministic `arena_bytes` quantity of
    /// [`MemMetrics`](crate::MemMetrics). The word-sized work lists
    /// (stack, cone orders, injection entries) grow with the data and
    /// are covered by the allocator-observed `peak_bytes` instead.
    pub fn footprint_bytes(num_nodes: usize) -> u64 {
        use std::mem::size_of;
        let per_node = size_of::<V3>()        // good_now
            + size_of::<Pv<W>>()              // fval
            + size_of::<u32>()                // cone_stamp
            + 2 * size_of::<(u32, u32)>(); // stem_head + branch_head
        (num_nodes * per_node) as u64 + TopoQueue::footprint_bytes(num_nodes)
    }

    /// [`footprint_bytes`](Self::footprint_bytes) of this arena.
    pub fn arena_bytes(&self) -> u64 {
        SimScratch::<W>::footprint_bytes(self.num_nodes)
    }

    /// Starts a new fault word: bumps the epoch (invalidating cone marks
    /// and injection heads in O(1)), clears the entry and work lists
    /// (keeping capacity) and empties the work-list.
    pub(crate) fn begin_word(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare u32 wrap: reset stamps to keep correctness.
            self.cone_stamp.fill(u32::MAX);
            for h in &mut self.stem_head {
                h.0 = u32::MAX;
            }
            for h in &mut self.branch_head {
                h.0 = u32::MAX;
            }
            self.epoch = 1;
        }
        self.stem_entries.clear();
        self.branch_entries.clear();
        self.cone_order.clear();
        self.cone_pis.clear();
        self.cone_ffs.clear();
        self.cone_outs.clear();
        self.stack.clear();
        self.queue.clear();
    }
}
