//! Lane-parallel sequential fault simulation (one fault word —
//! `W::LANES` faults — per pass), event-driven and restricted to where
//! the faults can reach.

use std::marker::PhantomData;
use std::sync::Arc;

use fscan_fault::{Fault, FaultSite};
use fscan_netlist::{CompiledTopology, GateKind, NodeId};

use crate::comb::CombEvaluator;
use crate::counters::WorkCounters;
use crate::event::{GoodTrace, TopoQueue};
use crate::kernel::{self, Rail};
use crate::packed::Pv;
use crate::pool::ShardStats;
use crate::scratch::{NodeMarks, SimScratch};
use crate::value::V3;

/// Parallel-fault sequential fault simulator: simulates up to
/// `W::LANES` faulty machines per pass (64 at the default `u64` rail,
/// 256 at [`R256`](crate::kernel::R256)), one machine per bit lane,
/// against a shared fault-free trace.
///
/// A list of several words simulates the good machine once per vector
/// sequence (event-driven, see [`GoodTrace`]) and every fault word
/// replays it read-only — the trace is scalar and width-independent, so
/// widening the rail divides the number of cone walks without touching
/// the good machine. Each such word restricts itself to the union
/// fanout cone of its fault sites — nets outside the cone provably carry
/// good values — and within the cone only gates whose inputs changed
/// since the previous cycle are re-evaluated. A list that fits one word
/// steps its good machine together with the word instead, and the word
/// evaluates only gates a fault effect reaches (see
/// [`fault_sim_sharded`](Self::fault_sim_sharded)). All structural data
/// comes from the shared [`CompiledTopology`]; per-word buffers live in
/// a reusable [`SimScratch`] arena, so the steady-state loop allocates
/// nothing.
///
/// Produces exactly the same detection verdicts as
/// [`SeqSim::fault_sim`](crate::SeqSim::fault_sim) (the serial
/// reference), typically orders of magnitude faster on fault lists
/// larger than a few dozen.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{Circuit, CompiledTopology, GateKind};
/// use fscan_fault::Fault;
/// use fscan_sim::{ParallelFaultSim, V3};
///
/// let mut c = Circuit::new("t");
/// let a = c.add_input("a");
/// let g = c.add_gate(GateKind::Not, vec![a], "g");
/// c.mark_output(g);
/// let sim = ParallelFaultSim::with_topology(CompiledTopology::shared(&c));
/// let res = sim.fault_sim(&[vec![V3::One]], &[], &[Fault::stem(g, true)]);
/// assert_eq!(res, vec![Some(0)]);
/// ```
#[derive(Clone, Debug)]
pub struct ParallelFaultSim<W: Rail = u64> {
    eval: CombEvaluator,
    _width: PhantomData<W>,
}

impl ParallelFaultSim {
    /// Builds a 64-lane simulator over an already-compiled topology; use
    /// [`ParallelFaultSim::with_topology_wide`] to pick another rail
    /// width.
    pub fn with_topology(topo: Arc<CompiledTopology>) -> ParallelFaultSim {
        ParallelFaultSim::with_topology_wide(topo)
    }
}

impl<W: Rail> ParallelFaultSim<W> {
    /// Builds a simulator at rail width `W` over an already-compiled
    /// topology.
    pub fn with_topology_wide(topo: Arc<CompiledTopology>) -> ParallelFaultSim<W> {
        ParallelFaultSim {
            eval: CombEvaluator::with_topology(topo),
            _width: PhantomData,
        }
    }

    /// The shared compiled topology this simulator runs against.
    pub fn topology(&self) -> &Arc<CompiledTopology> {
        self.eval.topology()
    }

    /// A fresh per-thread scratch arena sized for this simulator's
    /// topology, reusable across any number of
    /// [`fault_sim_into`](Self::fault_sim_into) calls.
    pub fn scratch(&self) -> SimScratch<W> {
        SimScratch::new(self.eval.topology())
    }

    /// Simulates the fault-free machine over `vectors` from state `init`
    /// once, event-driven. The returned trace can be passed to
    /// [`fault_sim_into`](Self::fault_sim_into) any number of times, so
    /// callers re-simulating the same sequence against different fault
    /// lists pay for the good machine once.
    pub fn good_trace(&self, vectors: &[Vec<V3>], init: &[V3]) -> GoodTrace {
        GoodTrace::compute(&self.eval, vectors, init)
    }

    /// Runs the full sequence for every fault and reports the first
    /// definite detection cycle per fault (`None` if undetected).
    ///
    /// Semantics match [`SeqSim::fault_sim`](crate::SeqSim::fault_sim):
    /// detection requires the good and faulty primary-output values to
    /// be known and different in the same cycle.
    pub fn fault_sim(
        &self,
        vectors: &[Vec<V3>],
        init: &[V3],
        faults: &[Fault],
    ) -> Vec<Option<usize>> {
        self.fault_sim_sharded(vectors, init, faults, 1).0
    }

    /// The zero-allocation workhorse: simulates `faults` against an
    /// already-computed good trace (from [`good_trace`](Self::good_trace)
    /// over the same circuit), writing verdicts into a caller-owned
    /// vector and running every fault word through the reusable
    /// `scratch` arena. Once `scratch` and `out` are warm (one prior
    /// call of at least this size), a call performs no heap allocation
    /// at all — the property the allocation-counter integration test
    /// pins down.
    ///
    /// Returns exact [`WorkCounters`] for the faulty machines: one
    /// `gate_evals` (and `kernel_gate_evals`) per packed gate evaluation
    /// actually performed (event-driven from cycle 0 on — cycle 0 seeds
    /// the cone with value *copies* and only evaluates gates a fault
    /// effect reaches), `cone_nets` = the union fault-cone size per
    /// word, `lane_cycles` = Σ active lanes per simulated cycle, one
    /// `early_exits` per word whose faults were all detected before the
    /// vector set ran out, one `scratch_reuses` per word served by the
    /// arena. The good-machine work is *not* included — it lives in
    /// [`GoodTrace::counters`] and is paid once, not per word.
    ///
    /// Every contribution is a function of one word only, so sums over
    /// any partition of the fault list (at word boundaries) are
    /// identical — the property `fault_sim_sharded` relies on.
    pub fn fault_sim_into(
        &self,
        faults: &[Fault],
        trace: &GoodTrace,
        scratch: &mut SimScratch<W>,
        out: &mut Vec<Option<usize>>,
    ) -> WorkCounters {
        out.clear();
        out.resize(faults.len(), None);
        let mut counters = WorkCounters::ZERO;
        let lanes = W::LANES as usize;
        for (chunk_idx, chunk) in faults.chunks(lanes).enumerate() {
            let base = chunk_idx * lanes;
            counters +=
                self.simulate_chunk(chunk, trace, scratch, &mut out[base..base + chunk.len()]);
        }
        counters
    }

    /// [`fault_sim`](Self::fault_sim) sharded across `threads` scoped
    /// workers (`0` = hardware thread count).
    ///
    /// How the good machine runs depends on the list's size alone, so
    /// verdicts and counters are identical for every thread count:
    ///
    /// * an empty list simulates nothing;
    /// * a list of at most 64 faults on a wider rail runs on the 64-lane
    ///   rail: it is one word at either width, so verdicts and every
    ///   counter are the same, and the narrow word is cheaper;
    /// * a list that fits one word runs inline and steps the good
    ///   machine and the word together, in one topological drain per
    ///   cycle. The good machine evaluates what a [`GoodTrace`] would
    ///   and stops once every lane is detected, so its `gate_evals` and
    ///   `lane_cycles` cover only the cycles the word read. The word
    ///   keeps packed values only where they differ from the good ones
    ///   and evaluates only gates a fault sits on or a fault effect
    ///   reaches; its `cone_nets` are the nets that carried an effect;
    /// * a longer list computes the good trace once and shares it
    ///   read-only: each worker owns one [`SimScratch`] arena (built in
    ///   the pool's per-worker init) and simulates whole words, and
    ///   verdicts are merged in fault order.
    ///
    /// Also returns the work distribution and the summed
    /// [`WorkCounters`] (good-machine run included), which are
    /// bit-identical for every thread count because each word's
    /// contribution is chunk-local.
    pub fn fault_sim_sharded(
        &self,
        vectors: &[Vec<V3>],
        init: &[V3],
        faults: &[Fault],
        threads: usize,
    ) -> (Vec<Option<usize>>, ShardStats, WorkCounters) {
        if let Some(narrow) = self.narrowed(faults) {
            return narrow.fault_sim_sharded(vectors, init, faults, threads);
        }
        if faults.is_empty() {
            return (Vec::new(), ShardStats::idle(threads), WorkCounters::ZERO);
        }
        if faults.len() <= W::LANES as usize {
            let mut out = vec![None; faults.len()];
            let counters = self.simulate_word(vectors, init, faults, &mut self.scratch(), &mut out);
            return (out, ShardStats::serial(faults.len()), counters);
        }
        let trace = self.good_trace(vectors, init);
        let (detections, stats, mut counters) =
            self.fault_sim_sharded_with_trace(faults, &trace, threads);
        counters += trace.counters();
        (detections, stats, counters)
    }

    /// [`fault_sim_sharded`](Self::fault_sim_sharded) against a
    /// caller-supplied good trace — the incremental-rerun entry point,
    /// where the trace comes from [`GoodTrace::replay_from`] rather
    /// than a fresh [`good_trace`](Self::good_trace). A list of at most
    /// 64 faults on a wider rail runs on the 64-lane rail, with the
    /// same verdicts and counters. The returned counters cover only the
    /// faulty machines; the caller owns the trace's own
    /// [`GoodTrace::counters`] accounting.
    pub fn fault_sim_sharded_with_trace(
        &self,
        faults: &[Fault],
        trace: &GoodTrace,
        threads: usize,
    ) -> (Vec<Option<usize>>, ShardStats, WorkCounters) {
        if let Some(narrow) = self.narrowed(faults) {
            return narrow.fault_sim_sharded_with_trace(faults, trace, threads);
        }
        crate::pool::shard_map_counted(
            threads,
            W::LANES as usize,
            faults,
            || self.scratch(),
            |scratch, _, chunk| {
                let mut out = Vec::new();
                let work = self.fault_sim_into(chunk, trace, scratch, &mut out);
                (out, work)
            },
        )
    }

    /// This simulator on the 64-lane rail, over the same topology, when
    /// the rail is wider and `faults` fits one 64-lane word: one word
    /// books the same verdicts and counters at every width, and the
    /// narrow word evaluates and allocates less.
    fn narrowed(&self, faults: &[Fault]) -> Option<ParallelFaultSim> {
        (W::LANES > 64 && faults.len() <= 64).then(|| ParallelFaultSim {
            eval: self.eval.clone(),
            _width: PhantomData,
        })
    }

    /// Simulates one word of at most `W::LANES` faults together with its
    /// good machine, in one topological drain per cycle, using (and
    /// resetting) the caller's scratch arena.
    ///
    /// The good machine schedules exactly as a [`GoodTrace`] does —
    /// cycle 0 is one levelized pass, later cycles evaluate the gates
    /// whose good fanins changed — so it books the same `gate_evals` and
    /// one `lane_cycles` per cycle, and it stops at the word's last
    /// detection. The word keeps a packed value only for *diverged*
    /// nodes, those that differ from their good value in some lane;
    /// every other node reads its good value. A popped gate is evaluated
    /// packed only when a fault sits on it or one of its fanins is
    /// diverged. Otherwise its faulty value is its good value, so a gate
    /// that was diverged drops its mark and wakes its readers. A net that
    /// carried a fault effect in some cycle counts once in `cone_nets`.
    fn simulate_word(
        &self,
        vectors: &[Vec<V3>],
        init: &[V3],
        chunk: &[Fault],
        scratch: &mut SimScratch<W>,
        detection: &mut [Option<usize>],
    ) -> WorkCounters {
        let topo = &**self.eval.topology();
        debug_assert_eq!(scratch.num_nodes, topo.num_nodes());
        debug_assert_eq!(detection.len(), chunk.len());
        assert_eq!(
            init.len(),
            topo.dffs().len(),
            "init length != flip-flop count"
        );
        let mut counters = WorkCounters::ZERO;
        counters.scratch_reuses += 1;
        let n_lanes = chunk.len() as u32;
        let full_mask = W::low_mask(n_lanes);

        scratch.begin_word();
        scratch.faults.load(chunk);
        let SimScratch {
            good_now: good,
            fval,
            marks,
            queue,
            good_state,
            captured,
            buf,
            faults: inject,
            ..
        } = scratch;
        let inject = &*inject;
        let mut word = Divergence {
            marks,
            fval,
            reached: 0,
        };
        let order = self.eval.order();
        let pos = self.eval.order_positions();

        // Queues `id`'s readers; a good change also marks them for good
        // re-evaluation.
        let wake = |queue: &mut TopoQueue, marks: &mut NodeMarks, id: NodeId, good_changed| {
            for &sink in topo.fanout_sinks(id) {
                if topo.kind(sink).is_gate() {
                    let p = pos[sink.index()];
                    // From a popped gate: its readers sit above it.
                    debug_assert!(pos[id.index()] == u32::MAX || p > pos[id.index()]);
                    queue.insert(p as usize);
                    if good_changed {
                        marks.dirty(sink);
                    }
                }
            }
        };
        let mut detected_mask = W::EMPTY;
        for (t, vec_t) in vectors.iter().enumerate() {
            assert_eq!(
                vec_t.len(),
                topo.inputs().len(),
                "vector length != input count"
            );
            if t == 0 {
                // The good machine's levelized pass. Then force the
                // stem-faulted inputs and flip-flops, and queue every
                // faulted gate.
                for (&pi, &v) in topo.inputs().iter().zip(vec_t) {
                    good[pi.index()] = v;
                }
                for (&ff, &v) in topo.dffs().iter().zip(init) {
                    good[ff.index()] = v;
                }
                for &id in order {
                    good[id.index()] = kernel::eval_v3(
                        topo.kind(id),
                        topo.fanin(id).iter().map(|&src| good[src.index()]),
                    );
                }
                counters.gate_evals += order.len() as u64;
                for f in chunk {
                    match f.site {
                        FaultSite::Stem(n) if pos[n.index()] == u32::MAX => {
                            let g = good[n.index()];
                            if word.settle(n, inject.stem(Pv::splat(g), n), g) {
                                wake(queue, word.marks, n, false);
                            }
                        }
                        FaultSite::Stem(n) => queue.insert(pos[n.index()] as usize),
                        // A D-pin branch is injected by the clocking step.
                        FaultSite::Branch { gate, .. } if pos[gate.index()] != u32::MAX => {
                            queue.insert(pos[gate.index()] as usize)
                        }
                        FaultSite::Branch { .. } => {}
                    }
                }
            } else {
                // Drive the inputs, then present the captured state.
                for (&pi, &v) in topo.inputs().iter().zip(vec_t) {
                    if good[pi.index()] != v {
                        good[pi.index()] = v;
                        word.settle(pi, inject.stem(Pv::splat(v), pi), v);
                        wake(queue, word.marks, pi, true);
                    }
                }
                let mut faulty = captured.iter().peekable();
                for (k, (&ff, &g)) in topo.dffs().iter().zip(good_state.iter()).enumerate() {
                    let w = match faulty.next_if(|&&(j, _)| j as usize == k) {
                        Some(&(_, w)) => w,
                        None => Pv::splat(g),
                    };
                    let good_changed = good[ff.index()] != g;
                    good[ff.index()] = g;
                    if word.settle(ff, inject.stem(w, ff), g) || good_changed {
                        wake(queue, word.marks, ff, good_changed);
                    }
                }
            }
            counters.lane_cycles += 1 + u64::from(n_lanes);
            // One drain for both machines: each gate pops at most once per
            // cycle, after all its fanins settled.
            while let Some(p) = queue.pop() {
                let id = order[p];
                let i = id.index();
                let fanin = topo.fanin(id);
                let old = good[i];
                if word.marks.take_dirty(id) {
                    counters.gate_evals += 1;
                    good[i] =
                        kernel::eval_v3(topo.kind(id), fanin.iter().map(|&src| good[src.index()]));
                }
                let g = good[i];
                let faulty_changed =
                    if inject.at(id) || fanin.iter().any(|&src| word.marks.diverged(src)) {
                        counters.gate_evals += 1;
                        counters.kernel_gate_evals += 1;
                        buf.clear();
                        for (pin, &src) in fanin.iter().enumerate() {
                            let w = word.value(src, good[src.index()]);
                            buf.push(inject.branch(w, id, pin));
                        }
                        let w = inject.stem(Pv::eval(topo.kind(id), buf.iter().copied()), id);
                        word.settle(id, w, g)
                    } else {
                        word.converge(id)
                    };
                if faulty_changed || g != old {
                    wake(queue, word.marks, id, g != old);
                }
            }
            // Detection: a diverged PO known and opposite of a known good
            // PO. Every other output equals the good one in every lane.
            for &po in topo.outputs() {
                if !word.marks.diverged(po) {
                    continue;
                }
                let w = word.fval[po.index()];
                let diff = match good[po.index()] {
                    V3::Zero => w.ones(),
                    V3::One => w.zeros(),
                    V3::X => W::EMPTY,
                };
                let newly = diff & full_mask & !detected_mask;
                if !newly.is_empty() {
                    newly.for_each_set_lane(|lane| detection[lane as usize] = Some(t));
                    detected_mask |= newly;
                }
            }
            if detected_mask == full_mask {
                if t + 1 < vectors.len() {
                    counters.early_exits += 1;
                }
                break;
            }
            // Clock: capture the good state, and the faulty D values
            // (branch faults on D pins injected here) that differ from
            // it.
            good_state.clear();
            captured.clear();
            for (k, &ff) in topo.dffs().iter().enumerate() {
                let d = topo.fanin(ff)[0];
                let g = good[d.index()];
                good_state.push(g);
                if word.marks.diverged(d) || inject.at(ff) {
                    let w = inject.branch(word.value(d, g), ff, 0);
                    if w != Pv::splat(g) {
                        captured.push((k as u32, w));
                    }
                }
            }
        }
        counters.cone_nets += word.reached;
        counters
    }

    /// Simulates one word of at most `W::LANES` faults against a
    /// finished good trace, using (and resetting) the caller's scratch
    /// arena.
    ///
    /// Restricted to the union fanout cone of the word's fault sites:
    /// every net outside the cone carries the good value in every lane
    /// (no structural path from any fault site reaches it), so faulty
    /// values (`fval`) are maintained — and gates re-evaluated — only
    /// inside the cone, and only when an input changed. Stale `fval`
    /// entries from the previous word are harmless: every in-cone node
    /// is overwritten by the cycle-0 seed copies before it is first
    /// read.
    fn simulate_chunk(
        &self,
        chunk: &[Fault],
        trace: &GoodTrace,
        scratch: &mut SimScratch<W>,
        detection: &mut [Option<usize>],
    ) -> WorkCounters {
        let topo = &**self.eval.topology();
        debug_assert_eq!(scratch.num_nodes, topo.num_nodes());
        debug_assert_eq!(detection.len(), chunk.len());
        let mut counters = WorkCounters::ZERO;
        counters.scratch_reuses += 1;
        let cycles = trace.cycles();
        if cycles == 0 {
            return counters;
        }
        let n_lanes = chunk.len() as u32;
        let full_mask = W::low_mask(n_lanes);

        scratch.begin_word();
        scratch.faults.load(chunk);
        let SimScratch {
            good_now,
            fval,
            marks,
            stack,
            cone_order,
            cone_pis,
            cone_ffs,
            cone_outs,
            queue,
            fnext,
            buf,
            faults: inject,
            ..
        } = scratch;
        let inject = &*inject;

        // Union fault cone: forward closure of every fault site over the
        // CSR fanout slices (crossing flip-flops — the D pin is a
        // fanout), marked reached.
        for f in chunk {
            let site = match f.site {
                FaultSite::Stem(n) => n,
                FaultSite::Branch { gate, .. } => gate,
            };
            if marks.reach(site) {
                counters.cone_nets += 1;
                stack.push(site);
            }
        }
        while let Some(id) = stack.pop() {
            for &sink in topo.fanout_sinks(id) {
                if marks.reach(sink) {
                    counters.cone_nets += 1;
                    stack.push(sink);
                }
            }
        }
        let marks = &*marks;
        let in_cone = |id: NodeId| marks.reached(id);

        let order = self.eval.order();
        let pos = self.eval.order_positions();
        cone_order.extend(order.iter().copied().filter(|&id| in_cone(id)));
        cone_pis.extend(topo.inputs().iter().copied().filter(|&pi| in_cone(pi)));
        cone_ffs.extend(topo.dffs().iter().copied().filter(|&ff| in_cone(ff)));
        cone_outs.extend(
            topo.outputs()
                .iter()
                .copied()
                .enumerate()
                .filter(|&(_, po)| in_cone(po))
                .map(|(k, po)| (k as u32, po)),
        );

        // Current good values (replayed from the trace's deltas); faulty
        // lanes' values are meaningful only inside the cone.
        good_now.copy_from_slice(trace.values0());
        let schedule = |queue: &mut TopoQueue, id: NodeId| {
            for &sink in topo.fanout_sinks(id) {
                if in_cone(sink) && topo.kind(sink).is_gate() {
                    let p = pos[sink.index()];
                    // From a popped gate: its readers sit above it.
                    debug_assert!(pos[id.index()] == u32::MAX || p > pos[id.index()]);
                    queue.insert(p as usize);
                }
            }
        };

        let mut detected_mask = W::EMPTY;
        for t in 0..cycles {
            counters.lane_cycles += u64::from(n_lanes);
            if t == 0 {
                // Seed: every in-cone net starts at the good snapshot
                // with the word's forces applied — value copies, not gate
                // evaluations. A gate is re-evaluated at cycle 0 only if
                // a fault effect can have changed it: stem forces that
                // diverge from the good value wake their fanout, a
                // branch force wakes the gate it feeds, and the shared
                // event loop below propagates from there.
                for &pi in cone_pis.iter() {
                    fval[pi.index()] = inject.stem(Pv::splat(good_now[pi.index()]), pi);
                }
                for &ff in cone_ffs.iter() {
                    fval[ff.index()] = inject.stem(Pv::splat(good_now[ff.index()]), ff);
                }
                for &id in cone_order.iter() {
                    fval[id.index()] = inject.stem(Pv::splat(good_now[id.index()]), id);
                }
                for f in chunk {
                    match f.site {
                        FaultSite::Stem(n) => {
                            if fval[n.index()] != Pv::splat(good_now[n.index()]) {
                                schedule(queue, n);
                            }
                        }
                        FaultSite::Branch { gate, .. } => {
                            // A D-pin branch is injected by the clocking
                            // step; only real gates need a cycle-0 eval.
                            if topo.kind(gate).is_gate() {
                                queue.insert(pos[gate.index()] as usize);
                            }
                        }
                    }
                }
            } else {
                // Replay the good machine's deltas. An out-of-cone change
                // is visible to cone gates reading it; an in-cone input
                // re-splats its lanes; in-cone gate and flip-flop deltas
                // need nothing here (the event loop re-derives gates from
                // their changed fanins, the clocking step below presents
                // flip-flops).
                for (id, v) in trace.changes(t) {
                    good_now[id.index()] = v;
                    if in_cone(id) {
                        if topo.kind(id) == GateKind::Input {
                            let w = inject.stem(Pv::splat(v), id);
                            if w != fval[id.index()] {
                                fval[id.index()] = w;
                                schedule(queue, id);
                            }
                        }
                    } else {
                        schedule(queue, id);
                    }
                }
                // Present the captured faulty state to in-cone flip-flops.
                for (k, &ff) in cone_ffs.iter().enumerate() {
                    let w = inject.stem(fnext[k], ff);
                    if w != fval[ff.index()] {
                        fval[ff.index()] = w;
                        schedule(queue, ff);
                    }
                }
            }
            // Drain events in topological order: each gate pops at most
            // once per cycle, after all its fanins settled.
            while let Some(p) = queue.pop() {
                let id = order[p];
                counters.gate_evals += 1;
                counters.kernel_gate_evals += 1;
                buf.clear();
                for (pin, &src) in topo.fanin(id).iter().enumerate() {
                    let w = if in_cone(src) {
                        fval[src.index()]
                    } else {
                        Pv::splat(good_now[src.index()])
                    };
                    buf.push(inject.branch(w, id, pin));
                }
                let out = inject.stem(Pv::eval(topo.kind(id), buf.iter().copied()), id);
                if out != fval[id.index()] {
                    fval[id.index()] = out;
                    schedule(queue, id);
                }
            }
            // Detection: faulty PO known and opposite of a known good PO.
            // Out-of-cone outputs carry good values in every lane and can
            // never differ.
            for &(k, po) in cone_outs.iter() {
                let g = trace.outputs()[t][k as usize];
                let w = fval[po.index()];
                let diff = match g {
                    V3::Zero => w.ones(),
                    V3::One => w.zeros(),
                    V3::X => W::EMPTY,
                };
                let newly = diff & full_mask & !detected_mask;
                if !newly.is_empty() {
                    newly.for_each_set_lane(|lane| detection[lane as usize] = Some(t));
                    detected_mask |= newly;
                }
            }
            if detected_mask == full_mask {
                if t + 1 < cycles {
                    counters.early_exits += 1;
                }
                break;
            }
            // Clock in-cone flip-flops (branch faults on D pins injected
            // here); out-of-cone state always equals the good machine's.
            fnext.clear();
            for &ff in cone_ffs.iter() {
                debug_assert_eq!(topo.kind(ff), GateKind::Dff);
                let d = topo.fanin(ff)[0];
                let w = if in_cone(d) {
                    fval[d.index()]
                } else {
                    Pv::splat(good_now[d.index()])
                };
                fnext.push(inject.branch(w, ff, 0));
            }
        }
        counters
    }
}

/// A one-word simulation's faulty values where they differ from the
/// good machine's.
struct Divergence<'s, W: Rail> {
    marks: &'s mut NodeMarks,
    fval: &'s mut [Pv<W>],
    /// Nets that carried a fault effect so far.
    reached: u64,
}

impl<W: Rail> Divergence<'_, W> {
    /// `id`'s faulty value, given its good value `good`.
    #[inline]
    fn value(&self, id: NodeId, good: V3) -> Pv<W> {
        if self.marks.diverged(id) {
            self.fval[id.index()]
        } else {
            Pv::splat(good)
        }
    }

    /// Records `id`'s faulty value `w` against its good value `good`;
    /// `true` if the faulty value changed (judged against `good`, so a
    /// caller whose good value changed wakes the readers anyway).
    #[inline]
    fn settle(&mut self, id: NodeId, w: Pv<W>, good: V3) -> bool {
        if w == Pv::splat(good) {
            return self.converge(id);
        }
        if self.marks.diverged(id) && self.fval[id.index()] == w {
            return false;
        }
        if self.marks.diverge(id) {
            self.reached += 1;
        }
        self.fval[id.index()] = w;
        true
    }

    /// Makes `id`'s faulty value its good value; `true` if it was
    /// diverged.
    #[inline]
    fn converge(&mut self, id: NodeId) -> bool {
        let was = self.marks.diverged(id);
        self.marks.converge(id);
        was
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SeqSim;
    use fscan_fault::{all_faults, collapse};
    use fscan_netlist::{generate, GeneratorConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_vectors(rng: &mut StdRng, n_inputs: usize, cycles: usize) -> Vec<Vec<V3>> {
        (0..cycles)
            .map(|_| {
                (0..n_inputs)
                    .map(|_| if rng.gen_bool(0.5) { V3::One } else { V3::Zero })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn agrees_with_serial_reference() {
        for seed in 0..3u64 {
            let cfg = GeneratorConfig::new(format!("p{seed}"), seed)
                .inputs(6)
                .gates(80)
                .dffs(6);
            let c = generate(&cfg);
            let faults = collapse(&c, &all_faults(&c));
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let vectors = random_vectors(&mut rng, 6, 20);
            let init = vec![V3::X; 6];
            let serial = SeqSim::new(&c).fault_sim(&vectors, &init, &faults);
            let parallel = ParallelFaultSim::with_topology(CompiledTopology::shared(&c))
                .fault_sim(&vectors, &init, &faults);
            assert_eq!(serial, parallel, "seed {seed}");
        }
    }

    #[test]
    fn handles_more_than_64_faults() {
        let cfg = GeneratorConfig::new("big", 9).inputs(8).gates(150).dffs(8);
        let c = generate(&cfg);
        let faults = collapse(&c, &all_faults(&c));
        assert!(faults.len() > 64, "need multiple chunks");
        let mut rng = StdRng::seed_from_u64(1);
        let vectors = random_vectors(&mut rng, 8, 12);
        let init = vec![V3::X; 8];
        let serial = SeqSim::new(&c).fault_sim(&vectors, &init, &faults);
        let parallel = ParallelFaultSim::with_topology(CompiledTopology::shared(&c))
            .fault_sim(&vectors, &init, &faults);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn sharded_matches_serial_for_every_thread_count() {
        let cfg = GeneratorConfig::new("shard", 11)
            .inputs(8)
            .gates(160)
            .dffs(8);
        let c = generate(&cfg);
        let faults = collapse(&c, &all_faults(&c));
        assert!(faults.len() > 128, "need several 64-lane words");
        let mut rng = StdRng::seed_from_u64(7);
        let vectors = random_vectors(&mut rng, 8, 16);
        let init = vec![V3::X; 8];
        let sim = ParallelFaultSim::with_topology(CompiledTopology::shared(&c));
        let reference = sim.fault_sim(&vectors, &init, &faults);
        let mut reference_work = None;
        for threads in [1, 2, 3, 4, 0] {
            let (sharded, stats, work) = sim.fault_sim_sharded(&vectors, &init, &faults, threads);
            assert_eq!(sharded, reference, "threads = {threads}");
            assert_eq!(stats.items(), faults.len());
            assert!(work.gate_evals > 0 && work.lane_cycles > 0);
            assert_eq!(work.scratch_reuses, faults.len().div_ceil(64) as u64);
            // Work counters are per-64-lane-word sums: bit-identical for
            // every thread count.
            let expect = *reference_work.get_or_insert(work);
            assert_eq!(work, expect, "threads = {threads}");
        }
    }

    #[test]
    fn trace_reuse_matches_one_shot_and_is_cheaper_than_full_resim() {
        let cfg = GeneratorConfig::new("tr", 21).inputs(7).gates(140).dffs(7);
        let c = generate(&cfg);
        let faults = collapse(&c, &all_faults(&c));
        let mut rng = StdRng::seed_from_u64(3);
        let vectors = random_vectors(&mut rng, 7, 18);
        let init = vec![V3::X; 7];
        let sim = ParallelFaultSim::with_topology(CompiledTopology::shared(&c));
        let trace = sim.good_trace(&vectors, &init);
        let (via_trace, _, work) = sim.fault_sim_sharded_with_trace(&faults, &trace, 1);
        assert_eq!(via_trace, sim.fault_sim(&vectors, &init, &faults));
        assert!(work.cone_nets > 0, "cones must be accounted");
        // The whole point: incremental cone simulation does strictly less
        // gate work than re-evaluating every gate every cycle per word.
        let words = faults.len().div_ceil(64) as u64;
        let full = words * vectors.len() as u64 * sim.eval.order().len() as u64;
        assert!(
            work.gate_evals < full,
            "incremental {} >= full relevelization {}",
            work.gate_evals,
            full
        );
    }

    #[test]
    fn scratch_reuse_is_verdict_and_counter_identical() {
        // One arena serving many words must behave exactly like a fresh
        // arena per call — no state may leak across words.
        let cfg = GeneratorConfig::new("reuse", 5)
            .inputs(7)
            .gates(120)
            .dffs(6);
        let c = generate(&cfg);
        let faults = collapse(&c, &all_faults(&c));
        assert!(faults.len() > 64);
        let mut rng = StdRng::seed_from_u64(17);
        let vectors = random_vectors(&mut rng, 7, 14);
        let init = vec![V3::X; 6];
        let sim = ParallelFaultSim::with_topology(CompiledTopology::shared(&c));
        let trace = sim.good_trace(&vectors, &init);
        let (reference, _, ref_work) = sim.fault_sim_sharded_with_trace(&faults, &trace, 1);
        let mut scratch = sim.scratch();
        let mut out = Vec::new();
        for round in 0..3 {
            let work = sim.fault_sim_into(&faults, &trace, &mut scratch, &mut out);
            assert_eq!(out, reference, "round {round}");
            assert_eq!(work, ref_work, "round {round}");
        }
    }

    #[test]
    fn wide_rail_matches_default_width_verdicts() {
        use crate::kernel::R256;
        // 256-lane words must give the exact verdicts of the 64-lane
        // default (and the serial reference), with fewer cone walks.
        let cfg = GeneratorConfig::new("wide", 11)
            .inputs(8)
            .gates(160)
            .dffs(8);
        let c = generate(&cfg);
        let faults = collapse(&c, &all_faults(&c));
        assert!(faults.len() > 64, "need more than one 64-lane word");
        assert_ne!(faults.len() % 256, 0, "want a tail word");
        let mut rng = StdRng::seed_from_u64(7);
        let vectors = random_vectors(&mut rng, 8, 16);
        let init = vec![V3::X; 8];
        let topo = CompiledTopology::shared(&c);
        let narrow = ParallelFaultSim::with_topology(Arc::clone(&topo));
        let wide = ParallelFaultSim::<R256>::with_topology_wide(topo);
        let trace = narrow.good_trace(&vectors, &init);
        let (nres, _, nwork) = narrow.fault_sim_sharded_with_trace(&faults, &trace, 1);
        let (wres, _, wwork) = wide.fault_sim_sharded_with_trace(&faults, &trace, 1);
        assert_eq!(wres, nres, "verdicts must be width-invariant");
        assert_eq!(wwork.scratch_reuses, faults.len().div_ceil(256) as u64);
        assert!(
            wwork.gate_evals < nwork.gate_evals,
            "wider words must walk fewer cones ({} vs {})",
            wwork.gate_evals,
            nwork.gate_evals
        );
        // Thread count must not change wide verdicts or counters.
        let mut reference_work = None;
        for threads in [1, 2, 4] {
            let (sharded, stats, work) = wide.fault_sim_sharded(&vectors, &init, &faults, threads);
            assert_eq!(sharded, nres, "threads = {threads}");
            assert_eq!(stats.items(), faults.len());
            let expect = *reference_work.get_or_insert(work);
            assert_eq!(work, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_fault_list() {
        let cfg = GeneratorConfig::new("e", 2).gates(20).dffs(2);
        let c = generate(&cfg);
        let sim = ParallelFaultSim::with_topology(CompiledTopology::shared(&c));
        let res = sim.fault_sim(&[vec![V3::Zero; c.inputs().len()]], &[V3::X; 2], &[]);
        assert!(res.is_empty());
    }
}
