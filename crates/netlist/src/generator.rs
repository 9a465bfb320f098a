//! Seeded generation of ISCAS-like synthetic sequential circuits.
//!
//! The DATE'98 paper evaluates on the 12 largest ISCAS'89 benchmarks.
//! Those netlists are not redistributable here, so the benchmark harness
//! substitutes circuits produced by this generator, matched per circuit
//! to the paper's gate/flip-flop counts (see `DESIGN.md`). The generator
//! is deterministic for a given configuration, so every experiment is
//! reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::circuit::{Circuit, NodeId};
use crate::gate::GateKind;

/// Configuration of the synthetic circuit generator.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{generate, GeneratorConfig};
///
/// let cfg = GeneratorConfig::new("demo", 42)
///     .inputs(8)
///     .gates(120)
///     .dffs(12);
/// let c = generate(&cfg);
/// assert_eq!(c.dffs().len(), 12);
/// c.validate().unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    name: String,
    seed: u64,
    inputs: usize,
    gates: usize,
    dffs: usize,
    max_fanin: usize,
    locality: usize,
}

impl GeneratorConfig {
    /// Creates a configuration with the given circuit name and RNG seed.
    ///
    /// Defaults: 8 inputs, 100 gates, 8 flip-flops, max fanin 4,
    /// locality window 48.
    pub fn new(name: impl Into<String>, seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            name: name.into(),
            seed,
            inputs: 8,
            gates: 100,
            dffs: 8,
            max_fanin: 4,
            locality: 48,
        }
    }

    /// Sets the number of primary inputs (min 1).
    pub fn inputs(mut self, n: usize) -> GeneratorConfig {
        self.inputs = n.max(1);
        self
    }

    /// Sets the number of combinational gates (min 4).
    pub fn gates(mut self, n: usize) -> GeneratorConfig {
        self.gates = n.max(4);
        self
    }

    /// Sets the number of flip-flops.
    pub fn dffs(mut self, n: usize) -> GeneratorConfig {
        self.dffs = n;
        self
    }

    /// Sets the maximum gate fanin (clamped to 2..=8).
    pub fn max_fanin(mut self, n: usize) -> GeneratorConfig {
        self.max_fanin = n.clamp(2, 8);
        self
    }

    /// Sets the locality window: how far back (in creation order) a
    /// gate prefers to pick its fanins. Small windows give deep,
    /// narrow circuits; large windows give shallow, wide ones.
    pub fn locality(mut self, n: usize) -> GeneratorConfig {
        self.locality = n.max(4);
        self
    }
}

/// ISCAS'89-style gate mix: mostly NAND/NOR/AND/OR with a sprinkle of
/// inverters and a few XORs (the SIS `nand-nor` mapping in the paper
/// yields a similar distribution).
fn pick_kind(rng: &mut StdRng) -> GateKind {
    match rng.gen_range(0..100u32) {
        0..=24 => GateKind::Nand,
        25..=49 => GateKind::Nor,
        50..=64 => GateKind::And,
        65..=79 => GateKind::Or,
        80..=91 => GateKind::Not,
        92..=95 => GateKind::Buf,
        96..=97 => GateKind::Xor,
        _ => GateKind::Xnor,
    }
}

/// Generates a random sequential circuit per the configuration.
///
/// Properties guaranteed by construction:
/// * no combinational cycles (fanins are always earlier nodes, with
///   flip-flop outputs usable everywhere);
/// * every flip-flop's D input is driven by combinational logic, so
///   FF-to-FF combinational paths exist for TPI to exploit;
/// * every gate either fans out to another gate/flip-flop or is promoted
///   to a primary output (no dangling logic, so no trivially
///   undetectable fault sites).
pub fn generate(config: &GeneratorConfig) -> Circuit {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5eed_5ca2_c4a1_u64);
    let mut c = Circuit::new(config.name.clone());

    let mut pool: Vec<NodeId> = Vec::new();
    for i in 0..config.inputs {
        pool.push(c.add_input(format!("pi{i}")));
    }
    let mut ffs = Vec::with_capacity(config.dffs);
    for i in 0..config.dffs {
        let ff = c.add_dff_placeholder(format!("ff{i}"));
        ffs.push(ff);
        pool.push(ff);
    }

    // Track which pool entries have been consumed as fanins, to bias
    // selection toward unused nodes and avoid dangling logic.
    let mut fanout_count: Vec<u32> = vec![0; pool.len() + config.gates];

    let mut gates = Vec::with_capacity(config.gates);
    for i in 0..config.gates {
        let kind = pick_kind(&mut rng);
        let arity = match kind.fixed_arity() {
            Some(n) => n,
            None => {
                // 2-input heavy with a tail, bounded by max_fanin.
                let r: f64 = rng.gen();
                let n = if r < 0.62 {
                    2
                } else if r < 0.88 {
                    3
                } else {
                    4
                };
                n.min(config.max_fanin)
            }
        };
        let mut fanin = Vec::with_capacity(arity);
        for _ in 0..arity {
            let src = pick_source(&mut rng, &pool, &fanout_count, config.locality);
            fanout_count[src.index()] += 1;
            fanin.push(pool[pos_of(&pool, src)]);
        }
        let g = c.add_gate(kind, fanin, format!("g{i}"));
        gates.push(g);
        pool.push(g);
    }

    // Wire each flip-flop's D pin to a late gate (bias toward the end so
    // state depends on deep logic), preferring unused gates.
    for &ff in &ffs {
        let g = if gates.is_empty() {
            pool[rng.gen_range(0..config.inputs)]
        } else {
            let lo = gates.len() * 3 / 4;
            let idx = rng.gen_range(lo..gates.len());
            gates[idx]
        };
        fanout_count[g.index()] += 1;
        c.set_dff_input(ff, g).expect("ff placeholder");
    }

    // Primary outputs: a handful of random gates plus every gate that
    // ended up with no reader (keeps all fault sites observable in
    // principle, like real benchmarks where PO counts are large).
    let n_outputs = (config.gates / 12).clamp(1, 64);
    for _ in 0..n_outputs {
        let g = gates[rng.gen_range(0..gates.len())];
        c.mark_output(g);
        fanout_count[g.index()] += 1;
    }
    for &g in &gates {
        if fanout_count[g.index()] == 0 {
            c.mark_output(g);
        }
    }

    debug_assert!(c.validate().is_ok());
    c
}

fn pos_of(pool: &[NodeId], id: NodeId) -> usize {
    // Pool is creation-ordered and dense: position == id index.
    debug_assert_eq!(pool[id.index()], id);
    id.index()
}

fn pick_source(rng: &mut StdRng, pool: &[NodeId], fanout: &[u32], locality: usize) -> NodeId {
    // 70%: pick within the locality window at the end of the pool;
    // 30%: pick anywhere (long wires / global signals). Within the
    // chosen range, give two tries preferring a node with no fanout yet.
    let n = pool.len();
    let range_lo = if rng.gen_bool(0.7) && n > locality {
        n - locality
    } else {
        0
    };
    let mut best = pool[rng.gen_range(range_lo..n)];
    if fanout[best.index()] > 0 {
        let cand = pool[rng.gen_range(range_lo..n)];
        if fanout[cand.index()] == 0 {
            best = cand;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::FanoutTable;

    #[test]
    fn deterministic_for_seed() {
        let cfg = GeneratorConfig::new("d", 7).gates(200).dffs(16);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.num_nodes(), b.num_nodes());
        for (ia, ib) in a.iter().zip(b.iter()) {
            assert_eq!(ia.1.kind(), ib.1.kind());
            assert_eq!(ia.1.fanin(), ib.1.fanin());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GeneratorConfig::new("a", 1).gates(200));
        let b = generate(&GeneratorConfig::new("b", 2).gates(200));
        let same = a
            .iter()
            .zip(b.iter())
            .all(|(x, y)| x.1.kind() == y.1.kind() && x.1.fanin() == y.1.fanin());
        assert!(!same);
    }

    #[test]
    fn respects_counts_and_validates() {
        for seed in 0..5 {
            let cfg = GeneratorConfig::new("t", seed)
                .inputs(10)
                .gates(300)
                .dffs(25);
            let c = generate(&cfg);
            assert_eq!(c.inputs().len(), 10);
            assert_eq!(c.dffs().len(), 25);
            assert_eq!(c.num_gates(), 300);
            c.validate().unwrap();
        }
    }

    #[test]
    fn no_dangling_gates() {
        let c = generate(&GeneratorConfig::new("t", 3).gates(400).dffs(30));
        let fot = FanoutTable::new(&c);
        let outs: std::collections::HashSet<_> = c.outputs().iter().copied().collect();
        for (id, node) in c.iter() {
            if node.kind().is_gate() && fot.is_dangling(id) {
                assert!(outs.contains(&id), "gate {id} dangles without PO");
            }
        }
    }

    #[test]
    fn ffs_have_combinational_drivers() {
        let c = generate(&GeneratorConfig::new("t", 9).gates(200).dffs(12));
        for &ff in c.dffs() {
            let d = c.node(ff).fanin()[0];
            assert!(
                c.node(d).kind().is_gate(),
                "DFF driven by {:?}",
                c.node(d).kind()
            );
        }
    }
}
