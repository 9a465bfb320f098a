//! Value-aware word packing for the packed implication engine
//! ([`PackedImplicationEngine`](crate::PackedImplicationEngine)).
//!
//! The packed engine evaluates each gate of a word's union implication
//! cone once for all `W::LANES` lanes, so its work is `Σ_w |union cone
//! of word w|` — minimized when the faults sharing a word have
//! overlapping cones. [`pack_order`] orders a collapsed fault list so
//! consecutive fault words do exactly that, using two cheap analyses of
//! the steady state the engine will run against:
//!
//! 1. **Sensitized depth-first positions.** A DFS pre-order over only
//!    the *sensitized* fanout edges — an edge `u → g` is skipped when
//!    some other input of `g` holds a known controlling value in the
//!    steady state, because no difference can pass `g` through `u`
//!    then. Positions over this subgraph place every node immediately
//!    before the part of its fanout a fault effect can actually reach,
//!    so sorting by position packs faults with genuinely overlapping
//!    cones (a plain topological level order is far worse: it
//!    interleaves unrelated regions that happen to sit at the same
//!    depth).
//! 2. **Transmitted-effect classes.** Each fault's local difference is
//!    propagated along its fanout-free single-fanout chain with a few
//!    scalar kernel evaluations. Faults whose differences die inside
//!    the chain ("dead") are grouped by their fanout-free region, away
//!    from the live faults; live faults are keyed by the stem their
//!    difference reaches and the value it carries there — two faults
//!    with the same `(stem, value)` have *identical* cones from that
//!    stem on and share every downstream gate evaluation.
//!
//! Both analyses are pure functions of the topology and the steady
//! values, so the order — and therefore every packed word and every
//! work counter — is identical for any thread count. The chain walks
//! cost a couple of scalar kernel evaluations per fault; they are a
//! packing heuristic, not simulation work, and are not recorded in
//! [`WorkCounters`](crate::WorkCounters).

use fscan_fault::{Fault, FaultSite};
use fscan_netlist::{CompiledTopology, GateKind, NodeId};

use crate::kernel;
use crate::value::V3;

/// The known side-input value that fixes a gate's output regardless of
/// the remaining inputs, if the kind has one.
fn controlling(kind: GateKind) -> Option<V3> {
    match kind {
        GateKind::And | GateKind::Nand => Some(V3::Zero),
        GateKind::Or | GateKind::Nor => Some(V3::One),
        _ => None,
    }
}

/// DFS pre-order positions over the sensitized fanout edges; every node
/// gets a position (unsensitized regions are traversed from their own
/// roots, in topological order).
fn sensitized_positions(topo: &CompiledTopology, good: &[V3]) -> Vec<u32> {
    let pos = topo.order_positions();
    let live = |from: NodeId, gate: NodeId| -> bool {
        if pos[gate.index()] == u32::MAX {
            return false; // flip-flop: propagation stops at the D pin
        }
        match controlling(topo.kind(gate)) {
            None => true,
            Some(cv) => !topo
                .fanin(gate)
                .iter()
                .any(|&side| side != from && good[side.index()] == cv),
        }
    };
    let mut dfs = vec![u32::MAX; topo.num_nodes()];
    let mut next = 0u32;
    let mut stack: Vec<NodeId> = Vec::new();
    for &root in topo.order() {
        if dfs[root.index()] != u32::MAX {
            continue;
        }
        stack.push(root);
        while let Some(id) = stack.pop() {
            if dfs[id.index()] != u32::MAX {
                continue;
            }
            dfs[id.index()] = next;
            next += 1;
            // Reverse push keeps sinks in CSR order on the stack pop.
            for &sink in topo.fanout_sinks(id).iter().rev() {
                if dfs[sink.index()] == u32::MAX && live(id, sink) {
                    stack.push(sink);
                }
            }
        }
    }
    dfs
}

/// Fanout-free region head of every node: follow single-fanout edges
/// until a stem (fanout ≠ 1) or a non-combinational sink.
fn ffr_heads(topo: &CompiledTopology) -> Vec<u32> {
    let pos = topo.order_positions();
    let mut head = vec![u32::MAX; topo.num_nodes()];
    for &id in topo.order().iter().rev() {
        let sinks = topo.fanout_sinks(id);
        head[id.index()] = if sinks.len() == 1 && pos[sinks[0].index()] != u32::MAX {
            head[sinks[0].index()]
        } else {
            id.index() as u32
        };
    }
    head
}

/// Where a fault's local difference ends up after its single-fanout
/// chain: `Some((stem_node, value))` if it survives to the region's
/// stem, `None` if it never excites or dies inside the chain.
fn transmitted_effect(topo: &CompiledTopology, good: &[V3], fault: Fault) -> Option<(usize, V3)> {
    let pos = topo.order_positions();
    let (mut node, mut val) = match fault.site {
        FaultSite::Stem(n) => {
            let v = V3::from_bool(fault.stuck);
            if good[n.index()] == v {
                return None;
            }
            (n, v)
        }
        FaultSite::Branch { gate, pin } => {
            if pos[gate.index()] == u32::MAX {
                return None; // DFF D-pin branch: inert in scan mode
            }
            let out = kernel::eval_v3(
                topo.kind(gate),
                topo.fanin(gate).iter().enumerate().map(|(p, &src)| {
                    if p == pin {
                        V3::from_bool(fault.stuck)
                    } else {
                        good[src.index()]
                    }
                }),
            );
            if out == good[gate.index()] {
                return None;
            }
            (gate, out)
        }
    };
    loop {
        let sinks = topo.fanout_sinks(node);
        if sinks.len() != 1 || pos[sinks[0].index()] == u32::MAX {
            return Some((node.index(), val));
        }
        let gate = sinks[0];
        let out = kernel::eval_v3(
            topo.kind(gate),
            topo.fanin(gate)
                .iter()
                .map(|&src| if src == node { val } else { good[src.index()] }),
        );
        if out == good[gate.index()] {
            return None;
        }
        node = gate;
        val = out;
    }
}

/// Deterministic permutation packing `faults` into words with
/// overlapping implication cones under the `good` steady state (see the
/// module docs for the two analyses behind it).
///
/// Ties break by node index, pin, stuck polarity and original
/// position, so the order is a pure function of the fault list, the
/// topology and the steady values — identical for every thread count.
///
/// The sort key never mentions a lane width: the permutation is
/// *width-invariant*, so cutting it into 64- or 256-lane words yields
/// the same fault order lane by lane — the property that keeps packed
/// verdicts byte-identical across rail widths. (Wider words simply
/// merge adjacent runs of the same order into one union cone.)
///
/// Returns `order` such that `faults[order[w * LANES + lane]]` is the
/// fault in lane `lane` of word `w` at any lane width; it is always a
/// permutation of `0..faults.len()`.
pub fn pack_order(topo: &CompiledTopology, good: &[V3], faults: &[Fault]) -> Vec<usize> {
    assert_eq!(
        good.len(),
        topo.num_nodes(),
        "steady values must cover every node"
    );
    let mut order: Vec<usize> = (0..faults.len()).collect();
    order.sort_by_cached_key(pack_key(topo, good, faults));
    order
}

/// A fault's sort key in [`pack_order`]: effect class, sensitized
/// position, node, pin, polarity, and last its index into the fault
/// list, which makes every key unique — so any correct sort of the keys
/// gives the same order.
type PackKey = ((u8, u32, u8), u32, usize, usize, bool, usize);

/// The key of fault index `i` under the `good` steady state. It walks
/// the fault's fanout-free chain with kernel evaluations, so
/// [`pack_order`] computes it once per fault rather than per comparison.
fn pack_key<'a>(
    topo: &'a CompiledTopology,
    good: &'a [V3],
    faults: &'a [Fault],
) -> impl Fn(&usize) -> PackKey + 'a {
    let dfs = sensitized_positions(topo, good);
    let heads = ffr_heads(topo);
    move |&i| {
        let f = faults[i];
        let (node, pin) = match f.site {
            FaultSite::Stem(n) => (n, usize::MAX),
            FaultSite::Branch { gate, pin } => (gate, pin),
        };
        let class = match transmitted_effect(topo, good, f) {
            Some((stem, val)) => (0u8, dfs[stem], val as u8),
            None => (1u8, dfs[heads[node.index()] as usize], 0),
        };
        (class, dfs[node.index()], node.index(), pin, f.stuck, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscan_fault::all_faults;
    use fscan_netlist::Circuit;

    fn sample() -> (Circuit, Vec<Fault>, [NodeId; 3]) {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate(GateKind::And, vec![a, b], "g1");
        let g2 = c.add_gate(GateKind::Not, vec![a], "g2");
        let g3 = c.add_gate(GateKind::Or, vec![g1, g2], "g3");
        c.mark_output(g3);
        let faults = all_faults(&c);
        (c, faults, [g1, g2, g3])
    }

    fn all_x(c: &Circuit) -> Vec<V3> {
        vec![V3::X; c.num_nodes()]
    }

    #[test]
    fn order_is_a_permutation() {
        let (c, faults, _) = sample();
        let topo = CompiledTopology::compile(&c);
        let order = pack_order(&topo, &all_x(&c), &faults);
        let mut seen = vec![false; faults.len()];
        for &i in &order {
            assert!(!seen[i], "index {i} repeated");
            seen[i] = true;
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn cached_keys_give_the_uncached_order() {
        use crate::comb::CombEvaluator;
        use fscan_fault::collapse;
        use fscan_netlist::{generate, GeneratorConfig};
        for seed in 0..6u64 {
            let c = generate(
                &GeneratorConfig::new(format!("k{seed}"), seed)
                    .inputs(7)
                    .gates(160)
                    .dffs(8),
            );
            let topo = CompiledTopology::compile(&c);
            // Steady values with some inputs known, so that many faults
            // excite and walk their chains, and some stay X.
            let eval = CombEvaluator::new(&c);
            let mut good = vec![V3::X; c.num_nodes()];
            for (k, &pi) in c.inputs().iter().enumerate() {
                good[pi.index()] = match (k as u64 + seed) % 3 {
                    0 => V3::Zero,
                    1 => V3::One,
                    _ => V3::X,
                };
            }
            eval.eval(&c, &mut good);
            let faults = collapse(&c, &all_faults(&c));
            let mut uncached: Vec<usize> = (0..faults.len()).collect();
            uncached.sort_unstable_by_key(pack_key(&topo, &good, &faults));
            assert_eq!(pack_order(&topo, &good, &faults), uncached, "seed {seed}");
        }
    }

    #[test]
    fn order_groups_equal_effect_classes_adjacently() {
        let (c, faults, _) = sample();
        let topo = CompiledTopology::compile(&c);
        let good = all_x(&c);
        let order = pack_order(&topo, &good, &faults);
        // Faults whose local difference reaches the same stem with the
        // same value have identical cones from that stem on — the
        // cheapest possible lane sharing — so each such class must
        // occupy one contiguous run of slots. (Every live class sorts
        // before every dead fault, so equal keys cannot straddle one.)
        let keys: Vec<_> = order
            .iter()
            .map(|&i| transmitted_effect(&topo, &good, faults[i]))
            .collect();
        assert!(keys.iter().any(|k| k.is_some()), "some fault must excite");
        for j in 0..keys.len() {
            for k in j + 1..keys.len() {
                if keys[j].is_some() && keys[j] == keys[k] {
                    assert!(
                        (j..k).all(|m| keys[m] == keys[j]),
                        "effect class {:?} split across non-adjacent slots",
                        keys[j]
                    );
                }
            }
        }
    }

    #[test]
    fn order_is_input_order_invariant() {
        let (c, faults, _) = sample();
        let topo = CompiledTopology::compile(&c);
        let good = all_x(&c);
        let order = pack_order(&topo, &good, &faults);
        let mut reversed: Vec<Fault> = faults.clone();
        reversed.reverse();
        let rev_order = pack_order(&topo, &good, &reversed);
        let packed: Vec<Fault> = order.iter().map(|&i| faults[i]).collect();
        let packed_rev: Vec<Fault> = rev_order.iter().map(|&i| reversed[i]).collect();
        assert_eq!(packed, packed_rev, "packing depends only on the faults");
    }

    #[test]
    fn blocked_side_input_cuts_the_sensitized_edge() {
        // With b = 0 the AND gate g1 is controlled: no difference can
        // pass it through `a`, so the sensitized DFS from `a` reaches
        // the NOT gate g2 (and g3 behind it) but skips g1 — g1 is only
        // numbered later, from `b`.
        let (c, _, [g1, g2, g3]) = sample();
        let topo = CompiledTopology::compile(&c);
        let a = c.inputs()[0];
        let b = c.inputs()[1];
        let mut good = vec![V3::X; c.num_nodes()];
        good[a.index()] = V3::One;
        good[b.index()] = V3::Zero;
        good[g1.index()] = V3::Zero;
        good[g2.index()] = V3::Zero;
        let dfs = sensitized_positions(&topo, &good);
        assert!(dfs[g2.index()] < dfs[g1.index()]);
        assert!(dfs[g3.index()] < dfs[g1.index()]);
    }

    #[test]
    fn effect_stops_at_the_stem() {
        // `a` fans out to two gates, so it is itself the stem: the walk
        // reports the flipped value right there.
        let (c, _, _) = sample();
        let topo = CompiledTopology::compile(&c);
        let a = c.inputs()[0];
        let mut good = vec![V3::X; c.num_nodes()];
        good[a.index()] = V3::One;
        assert_eq!(
            transmitted_effect(&topo, &good, Fault::stem(a, false)),
            Some((a.index(), V3::Zero))
        );
    }

    #[test]
    fn dormant_and_blocked_faults_have_no_effect() {
        let (c, _, [g1, _, _]) = sample();
        let topo = CompiledTopology::compile(&c);
        let a = c.inputs()[0];
        let b = c.inputs()[1];
        let mut good = vec![V3::X; c.num_nodes()];
        good[a.index()] = V3::One;
        assert_eq!(
            transmitted_effect(&topo, &good, Fault::stem(a, true)),
            None,
            "stuck value equals the steady value"
        );
        // A difference that dies at a controlled gate is also dead:
        // forcing pin 0 of the AND to 0 changes nothing while b = 0.
        good[b.index()] = V3::Zero;
        good[g1.index()] = V3::Zero;
        assert_eq!(
            transmitted_effect(&topo, &good, Fault::branch(g1, 0, false)),
            None,
            "side input 0 already controls the AND"
        );
    }
}
