//! Forward implication cone of a fault (paper, Section 3 / Figure 3).

use std::sync::Arc;

use fscan_fault::{Fault, FaultSite};
use fscan_netlist::{CompiledTopology, NodeId};

use crate::counters::WorkCounters;
use crate::event::TopoQueue;
use crate::kernel::{self, Rail};
use crate::packed::Pv;
use crate::scratch::SimScratch;
use crate::value::V3;

/// One net whose steady scan-mode value changes under a fault.
///
/// `good` is the fault-free three-valued value, `faulty` the value under
/// the single stuck-at fault. Following the paper's Figure 3, a change
/// may be any transition among {0, 1, X} — including X→0, X→1, 0→X and
/// 1→X.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct NetChange {
    /// The net (identified by its driving node).
    pub node: NodeId,
    /// Fault-free value.
    pub good: V3,
    /// Value under the fault.
    pub faulty: V3,
}

/// Reusable forward-implication engine.
///
/// Classifying every fault of a circuit calls the implication thousands
/// of times; this engine keeps its scratch buffers (epoch-stamped
/// overlays and its [`TopoQueue`](crate::TopoQueue) work-list) across
/// calls and walks the shared [`CompiledTopology`] for fanout lists and
/// topological positions.
#[derive(Clone, Debug)]
pub struct ImplicationEngine {
    topo: Arc<CompiledTopology>,
    faulty: Vec<V3>,
    stamp: Vec<u32>,
    queue: TopoQueue,
    epoch: u32,
    counters: WorkCounters,
}

impl ImplicationEngine {
    /// Builds an engine over an already-compiled topology.
    pub fn with_topology(topo: Arc<CompiledTopology>) -> ImplicationEngine {
        let n = topo.num_nodes();
        ImplicationEngine {
            faulty: vec![V3::X; n],
            stamp: vec![0; n],
            queue: TopoQueue::new(topo.eval_order().len()),
            topo,
            epoch: 0,
            counters: WorkCounters::ZERO,
        }
    }

    /// Work counters accumulated across every [`run`](Self::run) since
    /// construction (or the last [`take_counters`](Self::take_counters)).
    pub fn counters(&self) -> WorkCounters {
        self.counters
    }

    /// Returns the accumulated counters and resets them to zero.
    pub fn take_counters(&mut self) -> WorkCounters {
        std::mem::take(&mut self.counters)
    }

    /// Computes the forward implication cone of `fault` given the
    /// fault-free steady values `good` (produced by a prior
    /// [`CombEvaluator::eval`](crate::CombEvaluator::eval)).
    ///
    /// Returns every net whose value changes, in topological order. The
    /// propagation is purely combinational: flip-flops block it (their
    /// outputs keep the value recorded in `good`), matching the static
    /// scan-mode analysis of the paper, which reasons about the logic
    /// *between* consecutive scan flip-flops.
    ///
    /// Note that a *branch* fault changes no net by itself — only the
    /// value seen by one gate pin — so its cone starts at the reading
    /// gate's output.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use fscan_netlist::{Circuit, CompiledTopology, GateKind};
    /// use fscan_fault::Fault;
    /// use fscan_sim::{CombEvaluator, ImplicationEngine, V3};
    ///
    /// let mut c = Circuit::new("t");
    /// let pi = c.add_input("pi");
    /// let ff = c.add_dff_placeholder("ff");
    /// let g = c.add_gate(GateKind::And, vec![pi, ff], "g");
    /// c.set_dff_input(ff, g)?;
    /// let topo = CompiledTopology::shared(&c);
    /// let mut good = vec![V3::X; c.num_nodes()];
    /// good[pi.index()] = V3::One; // scan-mode PI assignment
    /// CombEvaluator::with_topology(Arc::clone(&topo)).eval(&mut good);
    /// let mut engine = ImplicationEngine::with_topology(topo);
    /// let changes = engine.run(&good, Fault::stem(pi, false));
    /// // PI 1→0 and the AND output X→0 both change.
    /// assert_eq!(changes.len(), 2);
    /// assert_eq!(changes[1].faulty, V3::Zero);
    /// # Ok::<(), fscan_netlist::NetlistError>(())
    /// ```
    pub fn run(&mut self, good: &[V3], fault: Fault) -> Vec<NetChange> {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap: reset stamps to keep correctness.
            self.stamp.fill(u32::MAX);
            self.epoch = 1;
        }
        // Split the engine into disjoint borrows so the CSR fanout slices
        // can be walked by reference while the scratch overlays are
        // updated — the old `push_gate(&mut self, ..)` shape forced a
        // `to_vec()` clone of every fanout list on the hot path.
        let ImplicationEngine {
            topo,
            faulty,
            stamp,
            queue,
            epoch,
            counters,
        } = self;
        let order = topo.eval_order();
        let pos = topo.order_positions();
        let epoch = *epoch;
        let mut changes: Vec<NetChange> = Vec::new();

        let push_gate = |queue: &mut TopoQueue, id: NodeId| {
            let p = pos[id.index()];
            if p == u32::MAX {
                return; // not a combinational node (DFF): propagation stops
            }
            queue.insert(p as usize);
        };

        // Seed the cone.
        match fault.site {
            FaultSite::Stem(n) => {
                let stuck = V3::from_bool(fault.stuck);
                let kind = topo.kind(n);
                if kind.is_gate()
                    || matches!(
                        kind,
                        fscan_netlist::GateKind::Const0 | fscan_netlist::GateKind::Const1
                    )
                {
                    // Re-evaluate at the gate itself (the stem override is
                    // applied when the node is processed below).
                    push_gate(queue, n);
                } else if good[n.index()] != stuck {
                    faulty[n.index()] = stuck;
                    stamp[n.index()] = epoch;
                    changes.push(NetChange {
                        node: n,
                        good: good[n.index()],
                        faulty: stuck,
                    });
                    for &sink in topo.fanout_sinks(n) {
                        push_gate(queue, sink);
                    }
                }
            }
            FaultSite::Branch { gate, .. } => {
                push_gate(queue, gate);
            }
        }

        while let Some(p) = queue.pop() {
            let id = order[p];
            counters.implication_events += 1;
            counters.gate_evals += 1;
            let mut out = kernel::eval_v3(
                topo.kind(id),
                topo.fanin(id).iter().enumerate().map(|(pin, &src)| {
                    if let FaultSite::Branch { gate, pin: fpin } = fault.site {
                        if gate == id && fpin == pin {
                            return V3::from_bool(fault.stuck);
                        }
                    }
                    if stamp[src.index()] == epoch {
                        faulty[src.index()]
                    } else {
                        good[src.index()]
                    }
                }),
            );
            if fault.site == FaultSite::Stem(id) {
                out = V3::from_bool(fault.stuck);
            }
            if out != good[id.index()] {
                faulty[id.index()] = out;
                stamp[id.index()] = epoch;
                changes.push(NetChange {
                    node: id,
                    good: good[id.index()],
                    faulty: out,
                });
                for &sink in topo.fanout_sinks(id) {
                    // A reader sits above the gate just popped.
                    debug_assert!(pos[sink.index()] == u32::MAX || pos[sink.index()] as usize > p);
                    push_gate(queue, sink);
                }
            } else {
                // Value restored to good: make sure an earlier overlay for
                // this node (impossible in topological processing, but
                // cheap to guard) does not linger.
                stamp[id.index()] = epoch.wrapping_sub(1);
            }
        }
        counters.cone_nets += changes.len() as u64;
        changes
    }
}

/// One net change of a packed implication word: up to `W::LANES` lanes'
/// faulty values in one dual-rail [`Pv<W>`](Pv), with `lanes` marking
/// the lanes whose value actually differs from `good`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PackedChange<W: Rail = u64> {
    /// The net (identified by its driving node).
    pub node: NodeId,
    /// Fault-free value.
    pub good: V3,
    /// Per-lane values under each lane's fault.
    pub faulty: Pv<W>,
    /// Mask of lanes where `faulty` differs from `good`.
    pub lanes: W,
}

/// Lanes of `w` whose value differs from the scalar `good`.
fn lanes_changed<W: Rail>(w: Pv<W>, good: V3) -> W {
    match good {
        V3::Zero => !w.zeros(),
        V3::One => !w.ones(),
        V3::X => w.known(),
    }
}

/// Packed `W::LANES`-fault forward implication — the classification
/// kernel, at any rail width; the pipeline default is the 256-lane
/// instance (`PackedImplicationEngine<R256>`).
///
/// Runs [`ImplicationEngine::run`]'s propagation for up to `W::LANES`
/// faults at once: the fault-free steady values are splatted across all
/// lanes and
/// the faulty dual-rail trace propagates only through the union of the
/// word's fault cones, swept in [`CompiledTopology`] CSR topological
/// order with [`SimScratch`] arenas — zero steady-state heap
/// allocations.
///
/// Lane-exactness invariant: for every lane, the sequence of net
/// changes (see [`lane_changes`](Self::lane_changes)) and the
/// `implication_events` / `cone_nets` counter contributions are
/// bit-identical to running the scalar engine on that lane's fault
/// alone. Only `gate_evals` shrinks: one packed kernel evaluation
/// (counted once in `gate_evals` and once in `kernel_gate_evals`)
/// covers every lane the scalar engine would have popped individually.
#[derive(Clone, Debug)]
pub struct PackedImplicationEngine<W: Rail = u64> {
    topo: Arc<CompiledTopology>,
    scratch: SimScratch<W>,
    /// Per-node seed masks, valid when `seed_stamp[n] == word`: lanes
    /// whose fault forces a re-evaluation of gate `n` even without a
    /// fanin change (stem-on-gate and branch faults).
    seed_stamp: Vec<u64>,
    seed_mask: Vec<W>,
    /// Word epoch for the seed stamps (`u64`: never wraps).
    word: u64,
    /// Per-node changed-lane masks, valid for cone members only.
    diff: Vec<W>,
    changes: Vec<PackedChange<W>>,
    counters: WorkCounters,
}

impl<W: Rail> PackedImplicationEngine<W> {
    /// Builds an engine over an already-compiled topology.
    pub fn with_topology(topo: Arc<CompiledTopology>) -> PackedImplicationEngine<W> {
        let n = topo.num_nodes();
        PackedImplicationEngine {
            scratch: SimScratch::new(&topo),
            seed_stamp: vec![0; n],
            seed_mask: vec![W::EMPTY; n],
            word: 0,
            diff: vec![W::EMPTY; n],
            changes: Vec::new(),
            counters: WorkCounters::ZERO,
            topo,
        }
    }

    /// Work counters accumulated across every
    /// [`run_word`](Self::run_word) since construction (or the last
    /// [`take_counters`](Self::take_counters)).
    pub fn counters(&self) -> WorkCounters {
        self.counters
    }

    /// Returns the accumulated counters and resets them to zero.
    pub fn take_counters(&mut self) -> WorkCounters {
        std::mem::take(&mut self.counters)
    }

    /// The changes of the last [`run_word`](Self::run_word), restricted
    /// to `lane` and unpacked to scalar [`NetChange`]s — bit-identical,
    /// in the same order, to a scalar [`ImplicationEngine::run`] on that
    /// lane's fault.
    pub fn lane_changes(&self, lane: u32) -> impl Iterator<Item = NetChange> + '_ {
        // `lane_bit` is width-checked in every build profile: an
        // out-of-range lane panics instead of silently reading the
        // wrong lane's changes.
        let bit = W::lane_bit(lane);
        self.changes
            .iter()
            .filter(move |ch| !(ch.lanes & bit).is_empty())
            .map(move |ch| NetChange {
                node: ch.node,
                good: ch.good,
                faulty: ch.faulty.get(lane),
            })
    }

    /// Runs the forward implication of up to `W::LANES` faults in one
    /// packed pass and returns the changed nets in topological order
    /// (sources first), with per-lane change masks.
    ///
    /// # Panics
    ///
    /// Panics if `faults` holds more than `W::LANES` entries.
    pub fn run_word(&mut self, good: &[V3], faults: &[Fault]) -> &[PackedChange<W>] {
        assert!(
            faults.len() <= W::LANES as usize,
            "a packed word holds at most {} faults",
            W::LANES
        );
        debug_assert!(good.len() >= self.topo.num_nodes());
        self.word += 1;
        self.scratch.begin_word();
        let PackedImplicationEngine {
            topo,
            scratch,
            seed_stamp,
            seed_mask,
            word,
            diff,
            changes,
            counters,
        } = self;
        let word = *word;
        counters.implication_words += 1;
        counters.scratch_reuses += 1;
        changes.clear();
        let full_mask = W::low_mask(faults.len() as u32);
        scratch.faults.load(faults);
        let SimScratch {
            fval,
            marks,
            stack,
            cone_order,
            cone_pis,
            buf,
            faults: inject,
            ..
        } = scratch;
        let inject = &*inject;
        let pos = topo.order_positions();

        // Per-gate seed masks: the scalar engine re-evaluates a
        // stem-on-gate or branch site unconditionally, so those lanes
        // must pop even without a fanin change. A branch behind a
        // non-combinational reader (a flip-flop D pin, incl. the
        // placeholder self-loop) has no combinational cone: the scalar
        // engine's push_gate guard drops it, and funneling it into the
        // kernel would evaluate a Dff "gate". The lane stays inert.
        for (lane, f) in faults.iter().enumerate() {
            let i = match f.site {
                FaultSite::Stem(n) => n.index(),
                FaultSite::Branch { gate, .. } => gate.index(),
            };
            if pos[i] != u32::MAX {
                if seed_stamp[i] != word {
                    seed_stamp[i] = word;
                    seed_mask[i] = W::EMPTY;
                }
                seed_mask[i] |= W::lane_bit(lane as u32);
            }
        }

        // Union fault cone: forward closure of every lane's fault site.
        // Unlike the sequential simulator's cone, flip-flops block the
        // closure here — the implication is the paper's static scan-mode
        // analysis of the logic between consecutive scan flip-flops.
        // Sources (PI / flip-flop stem sites) go to `cone_pis`,
        // combinational members to `cone_order`.
        for f in faults {
            let site = match f.site {
                FaultSite::Stem(n) => n,
                FaultSite::Branch { gate, .. } => {
                    if pos[gate.index()] == u32::MAX {
                        continue;
                    }
                    gate
                }
            };
            if marks.reach(site) {
                if pos[site.index()] == u32::MAX {
                    cone_pis.push(site);
                } else {
                    cone_order.push(site);
                }
                stack.push(site);
            }
        }
        while let Some(id) = stack.pop() {
            for &sink in topo.fanout_sinks(id) {
                let s = sink.index();
                if pos[s] == u32::MAX {
                    continue; // flip-flop D pin: propagation stops
                }
                if marks.reach(sink) {
                    cone_order.push(sink);
                    stack.push(sink);
                }
            }
        }
        cone_order.sort_unstable_by_key(|id| pos[id.index()]);

        // Sources first: splat the good value, force the stem lanes and
        // record the excited lanes (the scalar engine reports the seeded
        // source change before any gate pop).
        for &src in cone_pis.iter() {
            let i = src.index();
            let w = inject.stem(Pv::splat(good[i]), src);
            fval[i] = w;
            let d = lanes_changed(w, good[i]) & full_mask;
            diff[i] = d;
            if !d.is_empty() {
                counters.cone_nets += u64::from(d.count());
                changes.push(PackedChange {
                    node: src,
                    good: good[i],
                    faulty: w,
                    lanes: d,
                });
            }
        }

        // Sweep the union cone in topological order. A gate pops in the
        // lanes its fault seeds plus the lanes any in-cone fanin changed
        // in; lanes that pop nowhere read pure good values everywhere,
        // so the whole-word evaluation is exact per lane.
        for &id in cone_order.iter() {
            let i = id.index();
            let seeds = if seed_stamp[i] == word {
                seed_mask[i]
            } else {
                W::EMPTY
            };
            let mut pop = seeds;
            for &src in topo.fanin(id) {
                if marks.reached(src) {
                    pop |= diff[src.index()];
                }
            }
            if pop.is_empty() {
                // No lane re-evaluates this gate; it keeps the good
                // value so downstream in-cone reads stay exact.
                fval[i] = Pv::splat(good[i]);
                diff[i] = W::EMPTY;
                continue;
            }
            counters.implication_events += u64::from(pop.count());
            counters.gate_evals += 1;
            counters.kernel_gate_evals += 1;
            buf.clear();
            for (pin, &src) in topo.fanin(id).iter().enumerate() {
                let w = if marks.reached(src) {
                    fval[src.index()]
                } else {
                    Pv::splat(good[src.index()])
                };
                buf.push(inject.branch(w, id, pin));
            }
            let out = inject.stem(Pv::eval(topo.kind(id), buf.iter().copied()), id);
            fval[i] = out;
            let d = lanes_changed(out, good[i]) & full_mask;
            diff[i] = d;
            if !d.is_empty() {
                counters.cone_nets += u64::from(d.count());
                changes.push(PackedChange {
                    node: id,
                    good: good[i],
                    faulty: out,
                    lanes: d,
                });
            }
        }
        &self.changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comb::CombEvaluator;
    use fscan_netlist::{Circuit, GateKind};

    fn imply(eval: &CombEvaluator, good: &[V3], f: Fault) -> Vec<NetChange> {
        ImplicationEngine::with_topology(Arc::clone(eval.topology())).run(good, f)
    }

    /// Builds the circuit of the paper's Figure 3:
    ///
    /// PI (=1 in scan mode) drives A; A s-a-0 is the fault. The values
    /// follow the paper: A: 1→0, B: X→0, C: 0→1, D: X→1, E: 0→X.
    fn figure3() -> (Circuit, [NodeId; 6], Vec<V3>) {
        let mut c = Circuit::new("fig3");
        let pi = c.add_input("PI");
        let ff = c.add_dff_placeholder("FF"); // chain data, X
                                              // A = BUF(PI) so the fault site is an internal net like the paper's.
        let a = c.add_gate(GateKind::Buf, vec![pi], "A");
        // B = AND(A, FF): good 1·X = X; faulty 0·X = 0.
        let b = c.add_gate(GateKind::And, vec![a, ff], "B");
        // C = NOT(A): good 0; faulty 1.
        let cn = c.add_gate(GateKind::Not, vec![a], "C");
        // D = OR(C, FF): good 0+X = X; faulty 1+X = 1.
        let d = c.add_gate(GateKind::Or, vec![cn, ff], "D");
        // E = AND(C, FF): good 0·X = 0; faulty 1·X = X (the paper's 0→X).
        let e = c.add_gate(GateKind::And, vec![cn, ff], "E");
        c.set_dff_input(ff, b).unwrap();
        c.mark_output(e);
        c.mark_output(d);
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let mut good = vec![V3::X; c.num_nodes()];
        good[pi.index()] = V3::One;
        good[ff.index()] = V3::X;
        eval.eval(&mut good);
        (c, [pi, a, b, cn, d, e], good)
    }

    #[test]
    fn figure3_value_changes() {
        let (c, [pi, a, b, cn, d, e], good) = figure3();
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let changes = imply(&eval, &good, Fault::stem(pi, false));
        let get = |n: NodeId| changes.iter().find(|ch| ch.node == n).copied();
        // A: 1 → 0
        let ca = get(a).expect("A changes");
        assert_eq!((ca.good, ca.faulty), (V3::One, V3::Zero));
        // B: X → 0
        let cb = get(b).expect("B changes");
        assert_eq!((cb.good, cb.faulty), (V3::X, V3::Zero));
        // C: 0 → 1
        let cc = get(cn).expect("C changes");
        assert_eq!((cc.good, cc.faulty), (V3::Zero, V3::One));
        // D: X → 1
        let cd = get(d).expect("D changes");
        assert_eq!((cd.good, cd.faulty), (V3::X, V3::One));
        // E: 0 → X
        let ce = get(e).expect("E changes");
        assert_eq!((ce.good, ce.faulty), (V3::Zero, V3::X));
        // PI itself changed too.
        assert!(get(pi).is_some());
        assert_eq!(changes.len(), 6);
    }

    #[test]
    fn unexcited_fault_has_empty_cone() {
        let (c, [pi, ..], good) = figure3();
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        // PI is already 1; s-a-1 changes nothing.
        let changes = imply(&eval, &good, Fault::stem(pi, true));
        assert!(changes.is_empty());
    }

    #[test]
    fn propagation_stops_at_flip_flops() {
        let mut c = Circuit::new("t");
        let pi = c.add_input("pi");
        let g = c.add_gate(GateKind::Not, vec![pi], "g");
        let ff = c.add_dff(g, "ff");
        let h = c.add_gate(GateKind::Not, vec![ff], "h");
        c.mark_output(h);
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let mut good = vec![V3::X; c.num_nodes()];
        good[pi.index()] = V3::Zero;
        good[ff.index()] = V3::X;
        eval.eval(&mut good);
        let changes = imply(&eval, &good, Fault::stem(pi, true));
        // pi and g change; ff's Q and h must not (combinational analysis).
        assert!(changes.iter().any(|ch| ch.node == g));
        assert!(changes.iter().all(|ch| ch.node != ff && ch.node != h));
    }

    #[test]
    fn branch_fault_cone_starts_at_reader() {
        let mut c = Circuit::new("t");
        let pi = c.add_input("pi");
        let g1 = c.add_gate(GateKind::Buf, vec![pi], "g1");
        let g2 = c.add_gate(GateKind::Not, vec![pi], "g2");
        c.mark_output(g1);
        c.mark_output(g2);
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let mut good = vec![V3::X; c.num_nodes()];
        good[pi.index()] = V3::One;
        eval.eval(&mut good);
        let changes = imply(&eval, &good, Fault::branch(g1, 0, false));
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].node, g1);
        assert_eq!(changes[0].faulty, V3::Zero);
    }

    #[test]
    fn counters_track_events_and_cone_sizes() {
        let (c, [pi, ..], good) = figure3();
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let mut engine = ImplicationEngine::with_topology(Arc::clone(eval.topology()));
        let r = engine.run(&good, Fault::stem(pi, false));
        let counters = engine.take_counters();
        assert_eq!(counters.cone_nets, r.len() as u64);
        // Every change except the seeded PI stem was produced by a pop.
        assert!(counters.implication_events >= r.len() as u64 - 1);
        assert!(engine.counters().is_zero(), "take_counters resets");
    }

    #[test]
    fn engine_reuse_is_consistent() {
        let (c, [pi, a, ..], good) = figure3();
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let mut engine = ImplicationEngine::with_topology(Arc::clone(eval.topology()));
        let r1 = engine.run(&good, Fault::stem(pi, false));
        let r2 = engine.run(&good, Fault::stem(a, true));
        let r3 = engine.run(&good, Fault::stem(pi, false));
        assert_eq!(r1, r3, "engine state must not leak between runs");
        assert_ne!(r1, r2);
    }

    fn packed_matches_scalar_at<W: Rail>() {
        let (c, nodes, good) = figure3();
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let mut faults: Vec<Fault> = Vec::new();
        for n in nodes {
            faults.push(Fault::stem(n, false));
            faults.push(Fault::stem(n, true));
        }
        let mut scalar = ImplicationEngine::with_topology(Arc::clone(eval.topology()));
        let mut packed = PackedImplicationEngine::<W>::with_topology(Arc::clone(eval.topology()));
        packed.run_word(&good, &faults);
        for (lane, &f) in faults.iter().enumerate() {
            let expect = scalar.run(&good, f);
            let got: Vec<NetChange> = packed.lane_changes(lane as u32).collect();
            assert_eq!(got, expect, "{f:?}");
        }
        let sc = scalar.take_counters();
        let pc = packed.take_counters();
        assert_eq!(pc.implication_events, sc.implication_events);
        assert_eq!(pc.cone_nets, sc.cone_nets);
        assert_eq!(pc.implication_words, 1);
        assert_eq!(pc.scratch_reuses, 1);
        assert_eq!(pc.kernel_gate_evals, pc.gate_evals);
        assert!(pc.gate_evals <= sc.gate_evals, "packing must not add evals");
    }

    #[test]
    fn packed_word_matches_scalar_per_lane() {
        packed_matches_scalar_at::<u64>();
    }

    #[test]
    fn wide_packed_word_matches_scalar_per_lane() {
        // The same lane-exactness invariant at 256 lanes; the 12-fault
        // word also exercises the tail masking (12 % 256 != 0).
        packed_matches_scalar_at::<crate::kernel::R256>();
    }

    #[test]
    fn lane_changes_is_width_checked() {
        let (c, [pi, ..], good) = figure3();
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let mut packed = PackedImplicationEngine::<u64>::with_topology(Arc::clone(eval.topology()));
        packed.run_word(&good, &[Fault::stem(pi, false)]);
        // A hard (release-mode) check: the old debug_assert let the
        // mask wrap to lane % 64 and report the wrong lane's changes.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            packed.lane_changes(64).count()
        }));
        assert!(r.is_err());
    }

    #[test]
    fn dff_dpin_branch_lane_is_inert() {
        // A branch fault behind a flip-flop D pin (here the placeholder
        // self-loop) has no combinational implication cone; the packed
        // engine must keep the lane inert instead of funneling a Dff
        // into the gate kernel, while sibling lanes stay exact.
        let mut c = Circuit::new("t");
        let pi = c.add_input("pi");
        let ff = c.add_dff_placeholder("ff");
        let g = c.add_gate(GateKind::And, vec![pi, ff], "g");
        c.set_dff_input(ff, g).unwrap();
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let mut good = vec![V3::X; c.num_nodes()];
        good[pi.index()] = V3::One;
        eval.eval(&mut good);
        let faults = [Fault::branch(ff, 0, false), Fault::stem(pi, false)];
        let mut packed = PackedImplicationEngine::<u64>::with_topology(Arc::clone(eval.topology()));
        packed.run_word(&good, &faults);
        assert_eq!(packed.lane_changes(0).count(), 0);
        let mut scalar = ImplicationEngine::with_topology(Arc::clone(eval.topology()));
        let expect = scalar.run(&good, faults[1]);
        let got: Vec<NetChange> = packed.lane_changes(1).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn packed_engine_reuse_is_consistent() {
        let (c, [pi, a, ..], good) = figure3();
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&c));
        let mut packed = PackedImplicationEngine::<u64>::with_topology(Arc::clone(eval.topology()));
        let r1: Vec<PackedChange> = packed.run_word(&good, &[Fault::stem(pi, false)]).to_vec();
        packed.run_word(&good, &[Fault::stem(a, true), Fault::stem(pi, true)]);
        let r3: Vec<PackedChange> = packed.run_word(&good, &[Fault::stem(pi, false)]).to_vec();
        assert_eq!(r1, r3, "packed engine state must not leak between words");
    }
}
