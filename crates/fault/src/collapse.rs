//! Structural equivalence collapsing of stuck-at faults.

use std::collections::HashMap;

use fscan_netlist::{Circuit, CompiledTopology, GateKind};

use crate::model::{Fault, FaultSite};

/// Union-find over fault indices.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb] = ra;
        }
    }
}

/// Collapses a fault universe by structural equivalence and returns one
/// representative per equivalence class, in a deterministic order.
///
/// The rules are the textbook ones (Abramovici et al., ch. 4):
///
/// * for AND/NAND (OR/NOR), a stuck-at-controlling fault on any input is
///   equivalent to the corresponding output fault;
/// * for BUF/NOT and flip-flops, each input fault is equivalent to the
///   output fault of matching (possibly inverted) polarity;
/// * an input pin reading a fanout-free net is the same line as the
///   driver's stem, so the input-pin fault collapses into the stem fault
///   (the universe from [`crate::all_faults`] already avoids enumerating
///   those).
///
/// Representatives are chosen to prefer *stem* sites (lowest node id
/// first), which later lets the simulators inject most faults cheaply.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{Circuit, GateKind};
/// use fscan_fault::{all_faults, collapse};
///
/// let mut c = Circuit::new("inv_chain");
/// let a = c.add_input("a");
/// let g1 = c.add_gate(GateKind::Not, vec![a], "g1");
/// let g2 = c.add_gate(GateKind::Not, vec![g1], "g2");
/// c.mark_output(g2);
/// // Six stem faults collapse to two classes (the whole chain is one line).
/// assert_eq!(collapse(&c, &all_faults(&c)).len(), 2);
/// ```
pub fn collapse(circuit: &Circuit, universe: &[Fault]) -> Vec<Fault> {
    collapse_with(circuit, &CompiledTopology::compile(circuit), universe)
}

/// [`collapse`] against an already-compiled topology of `circuit`,
/// avoiding a redundant compilation when the caller shares one.
pub fn collapse_with(circuit: &Circuit, topo: &CompiledTopology, universe: &[Fault]) -> Vec<Fault> {
    debug_assert_eq!(circuit.num_nodes(), topo.num_nodes());
    let index: HashMap<Fault, usize> = universe
        .iter()
        .copied()
        .enumerate()
        .map(|(i, f)| (f, i))
        .collect();
    let mut dsu = Dsu::new(universe.len());

    // Resolve the fault on pin `pin` of node `id` to a universe index:
    // if the net feeding that pin is fanout-free the fault *is* the
    // driver's stem fault.
    let output_readers = |src| topo.fanout_count(src) + topo.output_reads(src);
    let pin_fault = |id, pin, src, stuck| -> Option<usize> {
        if output_readers(src) > 1 {
            index.get(&Fault::branch(id, pin, stuck)).copied()
        } else {
            index.get(&Fault::stem(src, stuck)).copied()
        }
    };

    for (id, node) in circuit.iter() {
        let kind = node.kind();
        match kind {
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let c = kind
                    .controlling_value()
                    .expect("and/or family has controlling value");
                let out_val = c ^ kind.output_inverted();
                let Some(&out_idx) = index.get(&Fault::stem(id, out_val)) else {
                    continue;
                };
                for (pin, &src) in node.fanin().iter().enumerate() {
                    if let Some(fi) = pin_fault(id, pin, src, c) {
                        dsu.union(out_idx, fi);
                    }
                }
            }
            GateKind::Buf | GateKind::Not => {
                let inv = kind.output_inverted();
                let src = node.fanin()[0];
                for stuck in [false, true] {
                    let Some(&out_idx) = index.get(&Fault::stem(id, stuck ^ inv)) else {
                        continue;
                    };
                    if let Some(fi) = pin_fault(id, 0, src, stuck) {
                        dsu.union(out_idx, fi);
                    }
                }
            }
            GateKind::Dff => {
                let src = node.fanin()[0];
                if src == id {
                    continue; // unconnected placeholder
                }
                for stuck in [false, true] {
                    let Some(&out_idx) = index.get(&Fault::stem(id, stuck)) else {
                        continue;
                    };
                    if let Some(fi) = pin_fault(id, 0, src, stuck) {
                        dsu.union(out_idx, fi);
                    }
                }
            }
            _ => {}
        }
    }

    // Pick representatives: prefer stem faults, then lowest site order.
    let mut best: HashMap<usize, Fault> = HashMap::new();
    for (i, &f) in universe.iter().enumerate() {
        let root = dsu.find(i);
        match best.get(&root) {
            None => {
                best.insert(root, f);
            }
            Some(&cur) => {
                let prefer = match (f.site, cur.site) {
                    (FaultSite::Stem(_), FaultSite::Branch { .. }) => true,
                    (FaultSite::Branch { .. }, FaultSite::Stem(_)) => false,
                    _ => f < cur,
                };
                if prefer {
                    best.insert(root, f);
                }
            }
        }
    }
    let mut reps: Vec<Fault> = best.into_values().collect();
    reps.sort();
    reps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::all_faults;
    use fscan_netlist::Circuit;

    #[test]
    fn and_gate_classic_count() {
        // 2-input AND, fanout-free: universe = 6 stem faults; collapsed =
        // textbook 4 (a1, b1, out0{=a0=b0}, out1).
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, vec![a, b], "g");
        c.mark_output(g);
        let reps = collapse(&c, &all_faults(&c));
        assert_eq!(reps.len(), 4);
        assert!(reps.contains(&Fault::stem(a, true)));
        assert!(reps.contains(&Fault::stem(b, true)));
        assert!(reps.contains(&Fault::stem(g, true)));
        // The controlling-input class is represented by a stem fault.
        let class0: Vec<_> = reps
            .iter()
            .filter(|f| !f.stuck && matches!(f.site, FaultSite::Stem(_)))
            .collect();
        assert_eq!(class0.len(), 1);
    }

    #[test]
    fn nand_inverts_class_polarity() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::Nand, vec![a, b], "g");
        c.mark_output(g);
        let reps = collapse(&c, &all_faults(&c));
        // a0 ≡ b0 ≡ g1  → 4 classes: {a0,b0,g1}, a1, b1, g0.
        assert_eq!(reps.len(), 4);
        assert!(reps.contains(&Fault::stem(g, false)));
        assert!(!reps.contains(&Fault::stem(g, true)) || !reps.contains(&Fault::stem(a, false)));
    }

    #[test]
    fn xor_collapses_nothing() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::Xor, vec![a, b], "g");
        c.mark_output(g);
        let all = all_faults(&c);
        assert_eq!(collapse(&c, &all).len(), all.len());
    }

    #[test]
    fn inverter_chain_two_classes() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let mut prev = a;
        for i in 0..5 {
            prev = c.add_gate(GateKind::Not, vec![prev], format!("i{i}"));
        }
        c.mark_output(prev);
        assert_eq!(collapse(&c, &all_faults(&c)).len(), 2);
    }

    #[test]
    fn dff_collapses_with_driver() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let ff = c.add_dff(a, "ff");
        c.mark_output(ff);
        // a0≡ff0, a1≡ff1 → 2 classes.
        assert_eq!(collapse(&c, &all_faults(&c)).len(), 2);
    }

    #[test]
    fn fanout_blocks_collapsing_across_stem() {
        // a fans out to two NOTs: branch faults stay distinct from the
        // stem fault classes of a.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g1 = c.add_gate(GateKind::Not, vec![a], "g1");
        let g2 = c.add_gate(GateKind::Not, vec![a], "g2");
        c.mark_output(g1);
        c.mark_output(g2);
        let reps = collapse(&c, &all_faults(&c));
        // Classes: a0, a1, {br(g1,0)0 ≡ g1_1}, {br(g1,0)1 ≡ g1_0},
        //          {br(g2,0)0 ≡ g2_1}, {br(g2,0)1 ≡ g2_0} → 6.
        assert_eq!(reps.len(), 6);
    }

    #[test]
    fn representatives_prefer_stems() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g1 = c.add_gate(GateKind::Not, vec![a], "g1");
        let g2 = c.add_gate(GateKind::Not, vec![a], "g2");
        c.mark_output(g1);
        c.mark_output(g2);
        let reps = collapse(&c, &all_faults(&c));
        for f in &reps {
            if let FaultSite::Branch { .. } = f.site {
                // Branch representative only allowed when no stem fault is
                // in its class; here every branch fault is equivalent to a
                // NOT output stem fault, so none should be representative.
                panic!("branch fault {f} chosen over stem equivalent");
            }
        }
    }

    #[test]
    fn collapse_is_idempotent() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate(GateKind::Nand, vec![a, b], "g1");
        let g2 = c.add_gate(GateKind::Nor, vec![g1, b], "g2");
        c.mark_output(g2);
        let once = collapse(&c, &all_faults(&c));
        let twice = collapse(&c, &once);
        assert_eq!(once, twice);
    }
}
