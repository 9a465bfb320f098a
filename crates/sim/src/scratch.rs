//! Per-thread reusable simulation arenas.

use fscan_fault::{Fault, FaultSite};
use fscan_netlist::{CompiledTopology, NodeId};

use crate::event::TopoQueue;
use crate::kernel::Rail;
use crate::packed::Pv;
use crate::value::V3;

/// Sentinel for "no entry" in the epoch-stamped injection lists.
const NO_ENTRY: u32 = u32::MAX;

/// Epochs count up to this bound and then restart at 1, after every
/// stamp is reset; the node marks keep two flag bits below the epoch.
const EPOCH_LIMIT: u32 = 1 << 30;

/// A per-thread scratch arena for
/// [`ParallelFaultSim`](crate::ParallelFaultSim).
///
/// Holds every buffer a `W::LANES`-fault word needs — the good values,
/// the packed faulty values, epoch-stamped node marks, the
/// [`TopoQueue`](crate::TopoQueue) work-list, the cone work lists, the
/// flip-flop state and the fault-injection tables. `shard_map` workers
/// construct one arena per thread (in the per-worker init closure) and
/// the simulator *resets* it between fault words — epoch bumps and
/// length-zero clears that keep capacity — so the steady-state hot loop
/// performs zero heap allocation. Each word served through an arena
/// increments the `scratch_reuses` work counter.
///
/// The injection tables are per-node linked lists whose heads are valid
/// only when their stored epoch matches the current word's, so
/// "clearing" them is one integer increment.
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
    pub(crate) good_now: Vec<V3>,
    pub(crate) fval: Vec<Pv<W>>,
    pub(crate) marks: NodeMarks,
    pub(crate) stack: Vec<NodeId>,
    pub(crate) cone_order: Vec<NodeId>,
    pub(crate) cone_pis: Vec<NodeId>,
    pub(crate) cone_ffs: Vec<NodeId>,
    pub(crate) cone_outs: Vec<(u32, NodeId)>,
    /// Pending gates by evaluation-order position.
    pub(crate) queue: TopoQueue,
    pub(crate) fnext: Vec<Pv<W>>,
    /// The good machine's captured flip-flop state, in `dffs()` order.
    pub(crate) good_state: Vec<V3>,
    /// Captured faulty flip-flop values that differ from the good ones,
    /// as `(index in dffs(), value)` in `dffs()` order.
    pub(crate) captured: Vec<(u32, Pv<W>)>,
    pub(crate) buf: Vec<Pv<W>>,
    pub(crate) faults: Injections<W>,
}

impl<W: Rail> SimScratch<W> {
    /// A fresh arena sized for `topo`. All buffers are allocated here,
    /// once; reuse across words never reallocates.
    pub fn new(topo: &CompiledTopology) -> SimScratch<W> {
        let n = topo.num_nodes();
        SimScratch {
            num_nodes: n,
            good_now: vec![V3::X; n],
            fval: vec![Pv::ALL_X; n],
            marks: NodeMarks::new(n),
            stack: Vec::new(),
            cone_order: Vec::new(),
            cone_pis: Vec::new(),
            cone_ffs: Vec::new(),
            cone_outs: Vec::new(),
            queue: TopoQueue::new(n),
            fnext: Vec::new(),
            good_state: Vec::new(),
            captured: Vec::new(),
            buf: Vec::with_capacity(8),
            faults: Injections::new(n),
        }
    }

    /// The structural arena footprint in bytes for a circuit with
    /// `num_nodes` nodes at rail width `W`: the node-indexed arrays and
    /// the work-list bitset every worker allocates once
    /// ([`new`](Self::new)). A pure function of node count and rail
    /// width — identical for every shard and thread count — so it is the
    /// deterministic `arena_bytes` quantity of
    /// [`MemMetrics`](crate::MemMetrics). The word-sized work lists
    /// (stack, cone orders, flip-flop state, injection entries) grow
    /// with the data and are covered by the allocator-observed
    /// `peak_bytes` instead.
    pub fn footprint_bytes(num_nodes: usize) -> u64 {
        use std::mem::size_of;
        let per_node = size_of::<V3>()        // good_now
            + size_of::<Pv<W>>()              // fval
            + size_of::<u32>()                // marks
            + 2 * size_of::<(u32, u32)>(); // stem + branch injection heads
        (num_nodes * per_node) as u64 + TopoQueue::footprint_bytes(num_nodes)
    }

    /// [`footprint_bytes`](Self::footprint_bytes) of this arena.
    pub fn arena_bytes(&self) -> u64 {
        SimScratch::<W>::footprint_bytes(self.num_nodes)
    }

    /// Starts a new fault word: invalidates every node mark and
    /// injection in O(1), clears the work lists (keeping capacity) and
    /// empties the work-list.
    pub(crate) fn begin_word(&mut self) {
        self.marks.begin_word();
        self.faults.begin_word();
        self.cone_order.clear();
        self.cone_pis.clear();
        self.cone_ffs.clear();
        self.cone_outs.clear();
        self.stack.clear();
        self.queue.clear();
    }
}

/// One `u32` of marks per node: the epoch of the last word that reached
/// the node, in the upper 30 bits, and two flags below it.
///
/// * *Reached* — the stamp's epoch is the current word's. The
///   several-word path marks its union fault cone this way, the packed
///   implication engine its implication cone, and the one-word path
///   every net that carried a fault effect.
/// * *Diverged* (one-word path) — the node's faulty value differs from
///   its good value in some lane. Meaningful only while reached.
/// * *Good-dirty* (one-word path) — a good fanin of the gate changed
///   this cycle. Set when the gate is queued and taken when it pops, so
///   it is clear between drains whatever the epoch.
#[derive(Clone, Debug)]
pub(crate) struct NodeMarks {
    epoch: u32,
    stamps: Vec<u32>,
}

const DIRTY: u32 = 1;
const DIVERGED: u32 = 2;
const FLAGS: u32 = 2;

impl NodeMarks {
    fn new(n: usize) -> NodeMarks {
        NodeMarks {
            epoch: 0,
            stamps: vec![0; n],
        }
    }

    fn begin_word(&mut self) {
        self.epoch += 1;
        if self.epoch == EPOCH_LIMIT {
            for s in &mut self.stamps {
                *s &= DIRTY;
            }
            self.epoch = 1;
        }
    }

    /// Marks `id` reached; `true` if this word had not reached it yet.
    #[inline]
    pub(crate) fn reach(&mut self, id: NodeId) -> bool {
        let s = &mut self.stamps[id.index()];
        if *s >> FLAGS == self.epoch {
            return false;
        }
        *s = self.epoch << FLAGS | (*s & DIRTY);
        true
    }

    /// Whether this word reached `id`.
    #[inline]
    pub(crate) fn reached(&self, id: NodeId) -> bool {
        self.stamps[id.index()] >> FLAGS == self.epoch
    }

    /// Whether `id`'s faulty value differs from its good value.
    #[inline]
    pub(crate) fn diverged(&self, id: NodeId) -> bool {
        self.stamps[id.index()] | DIRTY == self.epoch << FLAGS | DIVERGED | DIRTY
    }

    /// Marks `id` diverged (and reached); `true` if this word had not
    /// reached it yet.
    #[inline]
    pub(crate) fn diverge(&mut self, id: NodeId) -> bool {
        let first = self.reach(id);
        self.stamps[id.index()] |= DIVERGED;
        first
    }

    /// Drops `id`'s diverged mark; it stays reached.
    #[inline]
    pub(crate) fn converge(&mut self, id: NodeId) {
        self.stamps[id.index()] &= !DIVERGED;
    }

    /// Marks gate `id` for good re-evaluation this cycle.
    #[inline]
    pub(crate) fn dirty(&mut self, id: NodeId) {
        self.stamps[id.index()] |= DIRTY;
    }

    /// Clears gate `id`'s good-dirty mark; `true` if it was set.
    #[inline]
    pub(crate) fn take_dirty(&mut self, id: NodeId) -> bool {
        let s = &mut self.stamps[id.index()];
        let was = *s & DIRTY != 0;
        *s &= !DIRTY;
        was
    }
}

/// One word's fault injections: per-node linked lists of `(lane mask,
/// stuck value)` forces for stem faults, and of `(pin, lane mask, stuck
/// value)` forces for branch faults, with `(epoch, first entry)` heads.
/// Lanes are disjoint bits, so the order a list applies its forces in
/// does not matter.
#[derive(Clone, Debug)]
pub(crate) struct Injections<W: Rail> {
    epoch: u32,
    stem_head: Vec<(u32, u32)>,
    /// `(lane mask, stuck value, next entry)`.
    stem_entries: Vec<(W, bool, u32)>,
    branch_head: Vec<(u32, u32)>,
    /// `(pin, lane mask, stuck value, next entry)`.
    branch_entries: Vec<(u32, W, bool, u32)>,
}

impl<W: Rail> Injections<W> {
    fn new(n: usize) -> Injections<W> {
        Injections {
            epoch: 0,
            stem_head: vec![(0, NO_ENTRY); n],
            stem_entries: Vec::with_capacity(64),
            branch_head: vec![(0, NO_ENTRY); n],
            branch_entries: Vec::with_capacity(64),
        }
    }

    fn begin_word(&mut self) {
        self.epoch += 1;
        if self.epoch == EPOCH_LIMIT {
            for h in self.stem_head.iter_mut().chain(&mut self.branch_head) {
                h.0 = 0;
            }
            self.epoch = 1;
        }
        self.stem_entries.clear();
        self.branch_entries.clear();
    }

    /// Loads `faults`, lane `i` for `faults[i]`.
    pub(crate) fn load(&mut self, faults: &[Fault]) {
        let epoch = self.epoch;
        let head = |heads: &mut [(u32, u32)], i: usize, entry: usize| {
            let prev = if heads[i].0 == epoch {
                heads[i].1
            } else {
                NO_ENTRY
            };
            heads[i] = (epoch, entry as u32);
            prev
        };
        for (lane, f) in faults.iter().enumerate() {
            let mask = W::lane_bit(lane as u32);
            match f.site {
                FaultSite::Stem(n) => {
                    let prev = head(&mut self.stem_head, n.index(), self.stem_entries.len());
                    self.stem_entries.push((mask, f.stuck, prev));
                }
                FaultSite::Branch { gate, pin } => {
                    let prev = head(
                        &mut self.branch_head,
                        gate.index(),
                        self.branch_entries.len(),
                    );
                    self.branch_entries.push((pin as u32, mask, f.stuck, prev));
                }
            }
        }
    }

    /// Whether a fault sits on `id`: on its output or one of its pins.
    #[inline]
    pub(crate) fn at(&self, id: NodeId) -> bool {
        self.stem_head[id.index()].0 == self.epoch || self.branch_head[id.index()].0 == self.epoch
    }

    /// `w` with the stem faults on `id` applied.
    #[inline]
    pub(crate) fn stem(&self, mut w: Pv<W>, id: NodeId) -> Pv<W> {
        let (epoch, mut e) = self.stem_head[id.index()];
        if epoch == self.epoch {
            while e != NO_ENTRY {
                let (mask, stuck, next) = self.stem_entries[e as usize];
                w = w.force(mask, stuck);
                e = next;
            }
        }
        w
    }

    /// `w`, read by `id` on `pin`, with the branch faults on that pin
    /// applied.
    #[inline]
    pub(crate) fn branch(&self, mut w: Pv<W>, id: NodeId, pin: usize) -> Pv<W> {
        let (epoch, mut e) = self.branch_head[id.index()];
        if epoch == self.epoch {
            while e != NO_ENTRY {
                let (epin, mask, stuck, next) = self.branch_entries[e as usize];
                if epin as usize == pin {
                    w = w.force(mask, stuck);
                }
                e = next;
            }
        }
        w
    }
}
