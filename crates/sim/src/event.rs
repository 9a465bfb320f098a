//! Event-driven incremental simulation: the shared good-machine trace
//! and the topological work-list every event-driven engine schedules
//! through.
//!
//! A scan-mode circuit is mostly quiescent — between consecutive cycles
//! only the shifting chain and its fanout cone change value — yet the
//! levelized evaluators re-visit every gate every cycle. The two pieces
//! here exploit that locality:
//!
//! * [`TopoQueue`] — the one topological scheduler, shared by the good
//!   trace, the packed faulty words, the scalar implication engine and
//!   PODEM: gates are queued by their position in the levelized
//!   evaluation order and pop in ascending position, so by the time a
//!   gate pops, every fanin it depends on holds its final value for the
//!   cycle and each gate is evaluated at most once per cycle.
//! * [`GoodTrace`] — the fault-free machine, simulated **once** per
//!   vector sequence with persistent per-net values: cycle 0 is one
//!   full levelized pass, every later cycle re-evaluates only the gates
//!   whose inputs changed. The trace stores the cycle-0 net snapshot
//!   plus per-cycle delta lists, so the words of a many-word fault list
//!   replay the good machine read-only by walking the deltas forward
//!   instead of re-simulating it per word. (A list that fits one word
//!   steps the same schedule alongside its word instead; see
//!   [`ParallelFaultSim`](crate::ParallelFaultSim).)
//!
//! Exactness: a gate whose inputs are unchanged from the previous cycle
//! produces an unchanged output, so propagating only changes in
//! topological order yields exactly the values a full re-evaluation
//! would — the differential proptest oracle in `tests/props.rs` checks
//! this net-for-net against [`CombEvaluator`] on random circuits.

use fscan_netlist::{CompiledTopology, NodeId};

use crate::comb::CombEvaluator;
use crate::counters::WorkCounters;
use crate::kernel;
use crate::value::V3;

/// A fixed-size set of evaluation-order positions that pops its lowest
/// member: the work-list of every event-driven engine.
///
/// A two-level bitset: one bit per position and one summary bit per
/// 64-position word, plus a low-water mark below which every summary
/// word is zero. Inserting a queued position does nothing; popping
/// clears the position, so it can be queued again.
///
/// Engines drain the queue by popping a gate and inserting the gates
/// that read it. Those sit above it in the evaluation order, so a drain
/// never inserts at or below the position it just popped, and each gate
/// pops at most once per drain without a separate "already evaluated"
/// mark. The callers check that invariant with a `debug_assert!` at
/// each such insert.
///
/// # Examples
///
/// ```
/// use fscan_sim::TopoQueue;
///
/// let mut q = TopoQueue::new(100);
/// for p in [70, 3, 70, 64] {
///     q.insert(p);
/// }
/// assert_eq!(q.pop(), Some(3));
/// assert_eq!(q.pop(), Some(64));
/// assert_eq!(q.pop(), Some(70));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Clone, Debug)]
pub struct TopoQueue {
    /// Bit `p % 64` of `bits[p / 64]` is set while position `p` is queued.
    bits: Vec<u64>,
    /// Bit `w % 64` of `summary[w / 64]` is set while `bits[w]` is nonzero.
    summary: Vec<u64>,
    /// Every summary word below this index is zero.
    low: usize,
}

impl TopoQueue {
    /// An empty queue over positions `0..len`.
    pub fn new(len: usize) -> TopoQueue {
        let words = len.div_ceil(64);
        let summary = words.div_ceil(64);
        TopoQueue {
            bits: vec![0; words],
            summary: vec![0; summary],
            low: summary,
        }
    }

    /// The heap bytes of a queue over `len` positions: one `u64` per
    /// 64 positions plus one per 4096.
    pub(crate) fn footprint_bytes(len: usize) -> u64 {
        let words = len.div_ceil(64);
        (std::mem::size_of::<u64>() * (words + words.div_ceil(64))) as u64
    }

    /// Queues position `pos`; a no-op if it is already queued.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is outside the queue's `0..len`.
    #[inline]
    pub fn insert(&mut self, pos: usize) {
        let w = pos / 64;
        self.bits[w] |= 1 << (pos % 64);
        let s = w / 64;
        self.summary[s] |= 1 << (w % 64);
        self.low = self.low.min(s);
    }

    /// Removes and returns the lowest queued position.
    #[inline]
    pub fn pop(&mut self) -> Option<usize> {
        while let Some(&sw) = self.summary.get(self.low) {
            if sw == 0 {
                self.low += 1;
                continue;
            }
            let w = self.low * 64 + sw.trailing_zeros() as usize;
            let word = self.bits[w];
            let rest = word & (word - 1);
            self.bits[w] = rest;
            if rest == 0 {
                self.summary[self.low] = sw & (sw - 1);
            }
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        None
    }

    /// Drops every queued position, writing only the words that hold one.
    pub fn clear(&mut self) {
        for s in self.low..self.summary.len() {
            let mut sw = std::mem::take(&mut self.summary[s]);
            while sw != 0 {
                self.bits[s * 64 + sw.trailing_zeros() as usize] = 0;
                sw &= sw - 1;
            }
        }
        self.low = self.summary.len();
    }
}

/// The fault-free machine's full behavior over one vector sequence,
/// computed once by event-driven simulation and shared read-only by
/// every fault batch.
///
/// Stored as the cycle-0 net-value snapshot plus per-cycle
/// `(node, new value)` delta lists, which bounds memory to the actual
/// switching activity instead of `cycles × nets`. Consumers keep a
/// `Vec<V3>` of current good values and walk the deltas forward with
/// [`GoodTrace::changes`].
///
/// # Examples
///
/// ```
/// use fscan_netlist::{Circuit, CompiledTopology, GateKind};
/// use fscan_sim::{ParallelFaultSim, V3};
///
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// let g = c.add_gate(GateKind::Not, vec![a], "g");
/// c.mark_output(g);
/// let sim = ParallelFaultSim::with_topology(CompiledTopology::shared(&c));
/// let trace = sim.good_trace(&[vec![V3::One], vec![V3::One]], &[]);
/// assert_eq!(trace.outputs()[0], vec![V3::Zero]);
/// // The second cycle is quiescent: no gate was re-evaluated.
/// assert_eq!(trace.counters().gate_evals, 1);
/// ```
#[derive(Clone, Debug)]
pub struct GoodTrace {
    outputs: Vec<Vec<V3>>,
    final_state: Vec<V3>,
    values0: Vec<V3>,
    delta_nodes: Vec<u32>,
    delta_values: Vec<V3>,
    /// `delta_ends[t]` = end of cycle `t`'s deltas in the flat arrays
    /// (`delta_ends[0] == 0`: cycle 0 is the snapshot).
    delta_ends: Vec<usize>,
    counters: WorkCounters,
}

impl GoodTrace {
    /// Simulates `vectors.len()` cycles of the fault-free machine from
    /// flip-flop state `init`, re-evaluating only gates whose inputs
    /// changed (cycle 0 pays one full levelized pass). Fanout adjacency
    /// comes from the evaluator's shared [`CompiledTopology`] CSR slices.
    /// The cold case of [`replay_from`](Self::replay_from): no prior
    /// trace to copy from.
    ///
    /// # Panics
    ///
    /// Panics if a vector's length differs from the input count or
    /// `init` from the flip-flop count.
    pub fn compute(eval: &CombEvaluator, vectors: &[Vec<V3>], init: &[V3]) -> GoodTrace {
        GoodTrace::replay_from(eval, None, vectors, init)
    }

    /// Simulates like [`compute`](Self::compute), but seeds every cycle
    /// from `prior`, when given — a trace of the **base** design this
    /// evaluator's topology was patched from — so gates outside the
    /// edit's dirty cones are *copied* instead of re-evaluated. Without
    /// a prior this is [`compute`](Self::compute).
    ///
    /// The result is identical to `GoodTrace::compute(eval, vectors,
    /// init)` in every stored artifact (outputs, states, snapshot,
    /// deltas); only the [`counters`](Self::counters) differ:
    /// `gate_evals` counts just the gates that actually went through the
    /// kernel, and `trace_cycles_reused` counts the cycles for which
    /// `prior` was live. The reuse rule is purely value-based — a gate
    /// is copied when its function is unchanged (it is not in the
    /// patch's [`touched`](fscan_netlist::DirtyInfo::touched) set) and
    /// its fanin values match the prior machine's values for the same
    /// cycle, in which case its output provably matches too. `prior`
    /// may therefore come from *any* vector sequence: divergent inputs
    /// simply shrink the copied region. A cold (unpatched) topology
    /// reuses the whole trace when vectors and init are unchanged.
    ///
    /// # Panics
    ///
    /// Panics on the same shape mismatches as [`compute`](Self::compute),
    /// or if `prior` has a different base node count than the patch
    /// expects.
    pub fn replay_from<'p>(
        eval: &CombEvaluator,
        prior: impl Into<Option<&'p GoodTrace>>,
        vectors: &[Vec<V3>],
        init: &[V3],
    ) -> GoodTrace {
        let topo = &**eval.topology();
        assert_eq!(
            init.len(),
            topo.dffs().len(),
            "init length != flip-flop count"
        );
        let n = topo.num_nodes();
        let order = eval.order();
        let pos = eval.order_positions();
        let mut reuse = prior.into().map(|prior| Reuse::new(prior, topo));
        // Every net's value at the end of the last simulated cycle.
        let mut values = vec![V3::X; n];
        let mut queue = TopoQueue::new(order.len());
        let mut outputs = Vec::with_capacity(vectors.len());
        let mut state = init.to_vec();
        let mut values0 = vec![V3::X; n];
        let mut delta_nodes = Vec::new();
        let mut delta_values = Vec::new();
        let mut delta_ends = Vec::with_capacity(vectors.len());
        let mut counters = WorkCounters::ZERO;
        let schedule = |queue: &mut TopoQueue, id: NodeId| {
            for &sink in topo.fanout_sinks(id) {
                if topo.kind(sink).is_gate() {
                    let p = pos[sink.index()];
                    // From a popped gate: its readers sit above it.
                    debug_assert!(pos[id.index()] == u32::MAX || p > pos[id.index()]);
                    queue.insert(p as usize);
                }
            }
        };
        for (t, vec_t) in vectors.iter().enumerate() {
            assert_eq!(
                vec_t.len(),
                topo.inputs().len(),
                "vector length != input count"
            );
            let live = reuse.as_mut().and_then(|r| r.live(t));
            if live.is_some() {
                counters.trace_cycles_reused += 1;
            }
            counters.lane_cycles += 1;
            // A gate's value this cycle: the prior machine's when it is
            // live and already knows the answer, the kernel's otherwise.
            let settle = |values: &[V3], id: NodeId, counters: &mut WorkCounters| {
                if let Some(v) = live.and_then(|r| r.copy(topo, values, id)) {
                    return v;
                }
                counters.gate_evals += 1;
                kernel::eval_v3(
                    topo.kind(id),
                    topo.fanin(id).iter().map(|&src| values[src.index()]),
                )
            };
            if t == 0 {
                // One levelized pass seeds the persistent values.
                for (&pi, &v) in topo.inputs().iter().zip(vec_t.iter()) {
                    values[pi.index()] = v;
                }
                for (&ff, &v) in topo.dffs().iter().zip(state.iter()) {
                    values[ff.index()] = v;
                }
                for &id in order {
                    values[id.index()] = settle(&values, id, &mut counters);
                }
                values0.copy_from_slice(&values);
            } else {
                // Drive only the changed inputs and state bits and let
                // the work-list propagate.
                let driven = topo.inputs().iter().zip(vec_t.iter());
                let clocked = topo.dffs().iter().zip(state.iter());
                for (&id, &v) in driven.chain(clocked) {
                    if values[id.index()] != v {
                        values[id.index()] = v;
                        delta_nodes.push(id.index() as u32);
                        delta_values.push(v);
                        schedule(&mut queue, id);
                    }
                }
                while let Some(p) = queue.pop() {
                    let id = order[p];
                    let out = settle(&values, id, &mut counters);
                    if values[id.index()] != out {
                        values[id.index()] = out;
                        delta_nodes.push(id.index() as u32);
                        delta_values.push(out);
                        schedule(&mut queue, id);
                    }
                }
            }
            // Cycle 0 has no deltas: it is the snapshot.
            delta_ends.push(delta_nodes.len());
            outputs.push(
                topo.outputs()
                    .iter()
                    .map(|&po| values[po.index()])
                    .collect(),
            );
            for (s, &ff) in state.iter_mut().zip(topo.dffs().iter()) {
                *s = values[topo.fanin(ff)[0].index()];
            }
        }
        GoodTrace {
            outputs,
            final_state: state,
            values0,
            delta_nodes,
            delta_values,
            delta_ends,
            counters,
        }
    }

    /// Cycles simulated.
    pub fn cycles(&self) -> usize {
        self.outputs.len()
    }

    /// Primary-output values per cycle, in `Circuit::outputs` order —
    /// the same shape as [`Trace::outputs`](crate::Trace).
    pub fn outputs(&self) -> &[Vec<V3>] {
        &self.outputs
    }

    /// Flip-flop state after the last cycle, in `Circuit::dffs` order.
    pub fn final_state(&self) -> &[V3] {
        &self.final_state
    }

    /// The complete net-value snapshot after cycle 0 (indexed by node
    /// id). Presented flip-flop entries equal the initial state, input
    /// entries equal `vectors[0]`.
    pub fn values0(&self) -> &[V3] {
        &self.values0
    }

    /// The `(node index, new value)` deltas turning the cycle `t - 1`
    /// net values into the cycle `t` values (`t >= 1`; cycle 0 has no
    /// deltas — start from [`GoodTrace::values0`]).
    pub fn changes(&self, t: usize) -> impl Iterator<Item = (NodeId, V3)> + '_ {
        let lo = self.delta_ends[t - 1];
        let hi = self.delta_ends[t];
        self.delta_nodes[lo..hi]
            .iter()
            .zip(self.delta_values[lo..hi].iter())
            .map(|(&i, &v)| (NodeId::from_index(i as usize), v))
    }

    /// The exact work this trace's computation performed: `gate_evals`
    /// counts only the gates actually re-evaluated (one full pass at
    /// cycle 0, activity only afterwards); `lane_cycles` is one per
    /// cycle, as for any serial good-machine run.
    pub fn counters(&self) -> WorkCounters {
        self.counters
    }
}

/// The prior machine a [`GoodTrace::replay_from`] copies from.
struct Reuse<'p> {
    prior: &'p GoodTrace,
    /// Nodes whose *function* changed: copying their prior value is
    /// never sound, no matter how the fanin values compare.
    changed_fn: Vec<bool>,
    /// The prior machine's end-of-cycle net values, advanced through
    /// its delta lists in lockstep with the replay's own cycles.
    pvals: Vec<V3>,
}

impl<'p> Reuse<'p> {
    fn new(prior: &'p GoodTrace, topo: &CompiledTopology) -> Reuse<'p> {
        let n = topo.num_nodes();
        let prior_n = prior.values0.len();
        assert!(
            prior_n <= n,
            "prior trace has {prior_n} nodes, patched topology only {n}"
        );
        let mut changed_fn = vec![false; n];
        if let Some(dirty) = topo.dirty() {
            for &t in dirty.touched() {
                changed_fn[t.index()] = true;
            }
        }
        Reuse {
            prior,
            changed_fn,
            pvals: prior.values0.clone(),
        }
    }

    /// Advances the prior machine to cycle `t`; `None` once its trace
    /// has run out.
    fn live(&mut self, t: usize) -> Option<&Self> {
        if t >= self.prior.cycles() {
            return None;
        }
        if t > 0 {
            for (id, v) in self.prior.changes(t) {
                self.pvals[id.index()] = v;
            }
        }
        Some(self)
    }

    /// The prior machine's value of gate `id` this cycle, when copying
    /// it is sound: the gate's function is unchanged and its fanins
    /// carry the prior machine's values.
    fn copy(&self, topo: &CompiledTopology, values: &[V3], id: NodeId) -> Option<V3> {
        let i = id.index();
        let clean = i < self.pvals.len()
            && !self.changed_fn[i]
            && topo
                .fanin(id)
                .iter()
                .all(|&f| values[f.index()] == self.pvals[f.index()]);
        clean.then(|| self.pvals[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SeqSim;
    use fscan_netlist::{generate, Circuit, CompiledTopology, GateKind, GeneratorConfig};

    fn trace_for(c: &Circuit, vectors: &[Vec<V3>], init: &[V3]) -> GoodTrace {
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(c));
        GoodTrace::compute(&eval, vectors, init)
    }

    #[test]
    fn matches_full_reference_simulation() {
        for seed in 0..4u64 {
            let c = generate(
                &GeneratorConfig::new(format!("g{seed}"), seed)
                    .inputs(6)
                    .gates(90)
                    .dffs(7),
            );
            let vectors = fscan_atpg_free_vectors(&c, 25, seed);
            let init: Vec<V3> = (0..c.dffs().len())
                .map(|i| match i % 3 {
                    0 => V3::Zero,
                    1 => V3::One,
                    _ => V3::X,
                })
                .collect();
            let reference = SeqSim::new(&c).run(&vectors, &init, None);
            let trace = trace_for(&c, &vectors, &init);
            assert_eq!(trace.outputs(), &reference.outputs[..], "seed {seed}");
            assert_eq!(trace.final_state(), &reference.final_state[..]);
        }
    }

    /// Deterministic xorshift vectors (avoid depending on fscan-atpg
    /// from fscan-sim's dev-deps).
    fn fscan_atpg_free_vectors(c: &Circuit, cycles: usize, seed: u64) -> Vec<Vec<V3>> {
        let mut s = seed.wrapping_mul(2).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        (0..cycles)
            .map(|_| {
                (0..c.inputs().len())
                    .map(|_| match next() % 3 {
                        0 => V3::Zero,
                        1 => V3::One,
                        _ => V3::X,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn deltas_replay_to_reference_values() {
        let c = generate(
            &GeneratorConfig::new("replay", 3)
                .inputs(5)
                .gates(70)
                .dffs(5),
        );
        let vectors = fscan_atpg_free_vectors(&c, 15, 9);
        let init = vec![V3::X; c.dffs().len()];
        let trace = trace_for(&c, &vectors, &init);
        // Walk the deltas forward and compare the reconstructed net
        // values against a full levelized evaluation at every cycle.
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let mut now = trace.values0().to_vec();
        let mut full = vec![V3::X; c.num_nodes()];
        let mut state = init.clone();
        for (t, vec_t) in vectors.iter().enumerate() {
            if t > 0 {
                for (id, v) in trace.changes(t) {
                    now[id.index()] = v;
                }
            }
            for (&pi, &v) in c.inputs().iter().zip(vec_t.iter()) {
                full[pi.index()] = v;
            }
            for (&ff, &v) in c.dffs().iter().zip(state.iter()) {
                full[ff.index()] = v;
            }
            eval.eval(&mut full);
            assert_eq!(now, full, "cycle {t}");
            for (s, &ff) in state.iter_mut().zip(c.dffs().iter()) {
                *s = full[c.node(ff).fanin()[0].index()];
            }
        }
    }

    #[test]
    fn quiescent_cycles_evaluate_zero_gates() {
        // A purely combinational circuit under a constant input sequence
        // is quiescent after cycle 0: the event queue must stay empty.
        let mut c = Circuit::new("quiet");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate(GateKind::And, vec![a, b], "g1");
        let g2 = c.add_gate(GateKind::Nor, vec![g1, a], "g2");
        c.mark_output(g2);
        let vectors = vec![vec![V3::One, V3::Zero]; 10];
        let trace = trace_for(&c, &vectors, &[]);
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        assert_eq!(
            trace.counters().gate_evals,
            eval.order().len() as u64,
            "only the cycle-0 seed pass may evaluate gates"
        );
        assert_eq!(trace.counters().lane_cycles, 10);
        for t in 1..10 {
            assert_eq!(trace.changes(t).count(), 0, "cycle {t} must be delta-free");
        }
    }

    #[test]
    fn empty_sequence_is_empty_trace() {
        let c = generate(&GeneratorConfig::new("e", 1).gates(20).dffs(2));
        let trace = trace_for(&c, &[], &[V3::X, V3::X]);
        assert_eq!(trace.cycles(), 0);
        assert!(trace.counters().is_zero());
    }

    fn assert_same_trace(a: &GoodTrace, b: &GoodTrace) {
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.final_state, b.final_state);
        assert_eq!(a.values0, b.values0);
        assert_eq!(a.delta_nodes, b.delta_nodes);
        assert_eq!(a.delta_values, b.delta_values);
        assert_eq!(a.delta_ends, b.delta_ends);
    }

    #[test]
    fn replay_on_unpatched_design_is_free_and_identical() {
        let c = generate(&GeneratorConfig::new("r", 5).inputs(6).gates(80).dffs(6));
        let vectors = fscan_atpg_free_vectors(&c, 20, 4);
        let init = vec![V3::Zero; c.dffs().len()];
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let cold = GoodTrace::compute(&eval, &vectors, &init);
        let replayed = GoodTrace::replay_from(&eval, &cold, &vectors, &init);
        assert_same_trace(&cold, &replayed);
        // Same design, same vectors: every gate value is copied.
        assert_eq!(replayed.counters().gate_evals, 0);
        assert_eq!(replayed.counters().trace_cycles_reused, 20);
        assert_eq!(replayed.counters().lane_cycles, cold.counters().lane_cycles);
    }

    #[test]
    fn replay_with_divergent_vectors_is_identical_to_compute() {
        let c = generate(&GeneratorConfig::new("rd", 8).inputs(5).gates(60).dffs(5));
        let init = vec![V3::X; c.dffs().len()];
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let prior = GoodTrace::compute(&eval, &fscan_atpg_free_vectors(&c, 12, 1), &init);
        // Different vectors, and more cycles than the prior trace has.
        let vectors = fscan_atpg_free_vectors(&c, 18, 2);
        let cold = GoodTrace::compute(&eval, &vectors, &init);
        let replayed = GoodTrace::replay_from(&eval, &prior, &vectors, &init);
        assert_same_trace(&cold, &replayed);
        assert!(replayed.counters().gate_evals <= cold.counters().gate_evals);
        assert_eq!(replayed.counters().trace_cycles_reused, 12);
    }

    #[test]
    fn replay_through_a_patched_topology_matches_cold_compute() {
        use fscan_netlist::NetlistDelta;
        let base = generate(&GeneratorConfig::new("rp", 13).inputs(6).gates(90).dffs(7));
        let vectors = fscan_atpg_free_vectors(&base, 16, 3);
        let init = vec![V3::Zero; base.dffs().len()];
        let base_eval = CombEvaluator::with_topology(CompiledTopology::shared(&base));
        let prior = GoodTrace::compute(&base_eval, &vectors, &init);

        // Re-drive one gate, patch the topology, replay from the base
        // trace and compare against a cold compute of the edited design.
        let victim = base
            .iter()
            .find(|(_, n)| n.kind() == GateKind::And || n.kind() == GateKind::Or)
            .map(|(id, _)| id)
            .unwrap();
        let dual = if base.node(victim).kind() == GateKind::And {
            GateKind::Or
        } else {
            GateKind::And
        };
        let mut eco = base.clone();
        eco.redrive(victim, dual, base.node(victim).fanin().to_vec());
        let delta = NetlistDelta::diff(&base, &eco).unwrap();
        let patched_topo = std::sync::Arc::new(CompiledTopology::compile(&base).patch(&delta));
        let eval = CombEvaluator::with_topology(patched_topo);

        let cold = GoodTrace::compute(&eval, &vectors, &init);
        let replayed = GoodTrace::replay_from(&eval, &prior, &vectors, &init);
        assert_same_trace(&cold, &replayed);
        assert!(
            replayed.counters().gate_evals < cold.counters().gate_evals,
            "replay must save work: {} vs {}",
            replayed.counters().gate_evals,
            cold.counters().gate_evals
        );
    }
}
