//! Partial scan: chain only a subset of the flip-flops.
//!
//! The paper's methodology also applies "in a partial scan environment"
//! (Section 4). This module provides the classic cycle-breaking flip-flop
//! selection of Cheng and Agrawal ("A partial scan method for sequential
//! circuits with feedback", IEEE ToC 1990 — the paper's reference [3]):
//! scanning a feedback vertex set of the flip-flop dependency graph
//! makes the remaining state pipeline-like, which is what keeps
//! sequential ATPG tractable.

use std::collections::{HashMap, HashSet, VecDeque};

use fscan_netlist::{Circuit, CompiledTopology, GateKind, NodeId};

use crate::design::{ScanChain, ScanDesign};
use crate::error::ScanError;
use crate::mux::{add_mux_segment, add_scan_infra, partition_ffs};

/// Configuration for [`insert_partial_scan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialScanConfig {
    /// Number of scan chains (0 treated as 1).
    pub num_chains: usize,
    /// Whether flip-flops that feed themselves combinationally must be
    /// scanned too (full cycle-breaking). When `false`, self-loops are
    /// tolerated (they only create depth-1 feedback).
    pub break_self_loops: bool,
}

impl Default for PartialScanConfig {
    fn default() -> PartialScanConfig {
        PartialScanConfig {
            num_chains: 1,
            break_self_loops: true,
        }
    }
}

/// The flip-flop dependency graph: `edges[i]` lists the indices (into
/// `Circuit::dffs`) of flip-flops whose D cone reads flip-flop `i`'s Q
/// through combinational logic only.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{Circuit, GateKind};
/// use fscan_scan::ff_dependency_graph;
///
/// // ff0 → ff1 (through a NOT), ff1 → ff0 (direct): a 2-cycle.
/// let mut c = Circuit::new("loop2");
/// let ff0 = c.add_dff_placeholder("ff0");
/// let n = c.add_gate(GateKind::Not, vec![ff0], "n");
/// let ff1 = c.add_dff(n, "ff1");
/// c.set_dff_input(ff0, ff1)?;
/// c.mark_output(ff1);
/// let g = ff_dependency_graph(&c);
/// assert_eq!(g[0], vec![1]);
/// assert_eq!(g[1], vec![0]);
/// # Ok::<(), fscan_netlist::NetlistError>(())
/// ```
pub fn ff_dependency_graph(circuit: &Circuit) -> Vec<Vec<usize>> {
    ff_dependency_graph_with(circuit, &CompiledTopology::compile(circuit))
}

/// [`ff_dependency_graph`] against an already-compiled topology of
/// `circuit`, avoiding a redundant compilation when the caller shares
/// one.
pub fn ff_dependency_graph_with(circuit: &Circuit, topo: &CompiledTopology) -> Vec<Vec<usize>> {
    debug_assert_eq!(circuit.num_nodes(), topo.num_nodes());
    let index_of: HashMap<NodeId, usize> = circuit
        .dffs()
        .iter()
        .enumerate()
        .map(|(i, &ff)| (ff, i))
        .collect();
    let mut edges = vec![Vec::new(); circuit.dffs().len()];
    for (i, &ff) in circuit.dffs().iter().enumerate() {
        // Forward BFS through combinational gates from Q.
        let mut seen: HashSet<NodeId> = HashSet::new();
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        let mut reached: HashSet<usize> = HashSet::new();
        queue.push_back(ff);
        seen.insert(ff);
        while let Some(n) = queue.pop_front() {
            for &sink in topo.fanout_sinks(n) {
                match circuit.node(sink).kind() {
                    GateKind::Dff => {
                        if let Some(&j) = index_of.get(&sink) {
                            reached.insert(j);
                        }
                    }
                    k if k.is_gate() && seen.insert(sink) => queue.push_back(sink),
                    _ => {}
                }
            }
        }
        let mut r: Vec<usize> = reached.into_iter().collect();
        r.sort_unstable();
        edges[i] = r;
    }
    edges
}

/// Tarjan strongly-connected components over the subgraph induced by
/// `alive`. Returns SCCs of size ≥ 2, plus self-loop singletons when
/// `include_self_loops`.
fn cyclic_sccs(edges: &[Vec<usize>], alive: &[bool], include_self_loops: bool) -> Vec<Vec<usize>> {
    let n = edges.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();

    // Iterative Tarjan.
    enum Frame {
        Enter(usize),
        Continue(usize, usize),
    }
    for start in 0..n {
        if !alive[start] || index[start] != usize::MAX {
            continue;
        }
        let mut call: Vec<Frame> = vec![Frame::Enter(start)];
        while let Some(frame) = call.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    call.push(Frame::Continue(v, 0));
                }
                Frame::Continue(v, mut ei) => {
                    let mut descended = false;
                    while ei < edges[v].len() {
                        let w = edges[v][ei];
                        ei += 1;
                        if !alive[w] {
                            continue;
                        }
                        if index[w] == usize::MAX {
                            call.push(Frame::Continue(v, ei));
                            call.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if on_stack[w] {
                            low[v] = low[v].min(index[w]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    if low[v] == index[v] {
                        let mut scc = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            on_stack[w] = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        let is_cyclic =
                            scc.len() > 1 || (include_self_loops && edges[v].contains(&v));
                        if is_cyclic {
                            out.push(scc);
                        }
                    } else {
                        // Propagate lowlink to the parent frame.
                        if let Some(Frame::Continue(p, _)) = call.last() {
                            let p = *p;
                            low[p] = low[p].min(low[v]);
                        }
                    }
                }
            }
        }
    }
    out
}

/// Selects the flip-flops to scan: a feedback vertex set of the
/// dependency graph, chosen greedily by highest `in×out` degree inside
/// the remaining cyclic components (the Cheng–Agrawal heuristic).
/// Returns indices into `Circuit::dffs`, sorted.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{generate, GeneratorConfig};
/// use fscan_scan::{select_scan_ffs, PartialScanConfig};
///
/// let c = generate(&GeneratorConfig::new("d", 2).gates(150).dffs(12));
/// let selected = select_scan_ffs(&c, &PartialScanConfig::default());
/// assert!(selected.len() <= 12);
/// ```
pub fn select_scan_ffs(circuit: &Circuit, config: &PartialScanConfig) -> Vec<usize> {
    let edges = ff_dependency_graph(circuit);
    let n = edges.len();
    let mut alive = vec![true; n];
    let mut selected = Vec::new();
    loop {
        let sccs = cyclic_sccs(&edges, &alive, config.break_self_loops);
        if sccs.is_empty() {
            break;
        }
        // Pick the highest in×out degree vertex of the largest SCC.
        let scc = sccs.iter().max_by_key(|s| s.len()).expect("nonempty");
        let members: HashSet<usize> = scc.iter().copied().collect();
        let degree = |v: usize| {
            let outd = edges[v].iter().filter(|w| members.contains(w)).count();
            let ind = scc.iter().filter(|&&u| edges[u].contains(&v)).count();
            (outd.max(1)) * (ind.max(1))
        };
        let &pick = scc
            .iter()
            .max_by_key(|&&v| degree(v))
            .expect("nonempty scc");
        alive[pick] = false;
        selected.push(pick);
    }
    selected.sort_unstable();
    selected
}

/// Inserts partial MUX scan: only the selected flip-flops (per
/// [`select_scan_ffs`]) are chained; the rest keep their mission-only
/// behavior and appear to the test flow as uncontrollable state.
///
/// # Errors
///
/// Returns [`ScanError::NoFlipFlops`] when the circuit has no flip-flops
/// at all. A circuit whose dependency graph is already acyclic selects
/// nothing; in that case the flip-flop with the highest degree is
/// scanned anyway so a chain exists (the flow needs a scan-out).
///
/// # Examples
///
/// ```
/// use fscan_netlist::{generate, GeneratorConfig};
/// use fscan_scan::{insert_partial_scan, PartialScanConfig};
///
/// let c = generate(&GeneratorConfig::new("d", 7).gates(200).dffs(16));
/// let design = insert_partial_scan(&c, &PartialScanConfig::default())?;
/// let chained: usize = design.chains().iter().map(|ch| ch.len()).sum();
/// assert!(chained >= 1 && chained <= 16);
/// design.verify()?;
/// # Ok::<(), fscan_scan::ScanError>(())
/// ```
pub fn insert_partial_scan(
    circuit: &Circuit,
    config: &PartialScanConfig,
) -> Result<ScanDesign, ScanError> {
    if circuit.dffs().is_empty() {
        return Err(ScanError::NoFlipFlops);
    }
    let mut selected = select_scan_ffs(circuit, config);
    if selected.is_empty() {
        // Acyclic state: still scan one flip-flop so a chain exists.
        let edges = ff_dependency_graph(circuit);
        let pick = (0..edges.len())
            .max_by_key(|&v| edges[v].len())
            .unwrap_or(0);
        selected.push(pick);
    }
    let ffs: Vec<NodeId> = selected.iter().map(|&i| circuit.dffs()[i]).collect();
    let num_chains = config.num_chains.max(1).min(ffs.len());

    let mut c = circuit.clone();
    let original_gates = c.num_gates();
    let (scan_mode, not_scan) = add_scan_infra(&mut c);
    let mut chains = Vec::with_capacity(num_chains);
    for (k, part) in partition_ffs(&ffs, num_chains).into_iter().enumerate() {
        let scan_in = c.add_input(format!("scan_in{k}"));
        let mut prev = scan_in;
        let mut cells = Vec::with_capacity(part.len());
        for ff in part {
            let cell = add_mux_segment(&mut c, scan_mode, not_scan, ff, prev);
            prev = ff;
            cells.push(cell);
        }
        c.mark_output(prev);
        chains.push(ScanChain { scan_in, cells });
    }
    let added_gates = c.num_gates() - original_gates;
    let design = ScanDesign::new(
        c,
        scan_mode,
        vec![(scan_mode, true)],
        chains,
        0,
        added_gates,
    );
    design.verify()?;
    Ok(design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscan_netlist::{generate, GeneratorConfig};

    /// ff0 ⇄ ff1 cycle plus a pipeline ff2 → ff3.
    fn cyclic_circuit() -> Circuit {
        let mut c = Circuit::new("cyc");
        let pi = c.add_input("pi");
        let ff0 = c.add_dff_placeholder("ff0");
        let n0 = c.add_gate(GateKind::Not, vec![ff0], "n0");
        let ff1 = c.add_dff(n0, "ff1");
        let n1 = c.add_gate(GateKind::And, vec![ff1, pi], "n1");
        c.set_dff_input(ff0, n1).unwrap();
        let ff2 = c.add_dff(pi, "ff2");
        let n2 = c.add_gate(GateKind::Buf, vec![ff2], "n2");
        let ff3 = c.add_dff(n2, "ff3");
        let out = c.add_gate(GateKind::Or, vec![ff0, ff3], "out");
        c.mark_output(out);
        c
    }

    #[test]
    fn dependency_graph_finds_the_cycle() {
        let c = cyclic_circuit();
        let g = ff_dependency_graph(&c);
        // dffs order: ff0, ff1, ff2, ff3.
        assert!(g[0].contains(&1));
        assert!(g[1].contains(&0));
        assert_eq!(g[2], vec![3]);
        assert!(g[3].is_empty());
    }

    #[test]
    fn selection_breaks_all_cycles() {
        let c = cyclic_circuit();
        let selected = select_scan_ffs(&c, &PartialScanConfig::default());
        // One of {ff0, ff1} suffices.
        assert_eq!(selected.len(), 1);
        assert!(selected[0] == 0 || selected[0] == 1);
        // After removal, the graph is acyclic.
        let edges = ff_dependency_graph(&c);
        let mut alive = vec![true; edges.len()];
        alive[selected[0]] = false;
        assert!(cyclic_sccs(&edges, &alive, true).is_empty());
    }

    #[test]
    fn self_loops_respected_by_config() {
        let mut c = Circuit::new("selfloop");
        let ff = c.add_dff_placeholder("ff");
        let n = c.add_gate(GateKind::Not, vec![ff], "n");
        c.set_dff_input(ff, n).unwrap();
        c.mark_output(ff);
        let strict = select_scan_ffs(&c, &PartialScanConfig::default());
        assert_eq!(strict, vec![0], "self-loop must be broken by default");
        let lax = select_scan_ffs(
            &c,
            &PartialScanConfig {
                break_self_loops: false,
                ..PartialScanConfig::default()
            },
        );
        assert!(lax.is_empty());
    }

    #[test]
    fn partial_scan_design_verifies_and_is_smaller() {
        // On the hand-built circuit the feedback vertex set is exactly
        // one of four flip-flops, so the saving is guaranteed.
        let circuit = cyclic_circuit();
        let full = crate::insert_mux_scan(&circuit, 1).unwrap();
        let partial = insert_partial_scan(&circuit, &PartialScanConfig::default()).unwrap();
        partial.verify().unwrap();
        let chained: usize = partial.chains().iter().map(|ch| ch.len()).sum();
        assert_eq!(chained, 1);
        assert!(partial.added_gates() < full.added_gates());
        // Generated circuits may be arbitrarily cyclic; the invariant
        // there is only that partial never chains *more* than full scan.
        let gen = generate(&GeneratorConfig::new("p", 13).gates(300).dffs(24));
        let pg = insert_partial_scan(&gen, &PartialScanConfig::default()).unwrap();
        pg.verify().unwrap();
        let chained: usize = pg.chains().iter().map(|ch| ch.len()).sum();
        assert!(chained <= 24);
    }

    #[test]
    fn selection_makes_remaining_graph_acyclic_on_random_circuits() {
        for seed in [3u64, 5, 8, 21] {
            let circuit = generate(&GeneratorConfig::new("p", seed).gates(250).dffs(20));
            let selected = select_scan_ffs(&circuit, &PartialScanConfig::default());
            let edges = ff_dependency_graph(&circuit);
            let mut alive = vec![true; edges.len()];
            for &s in &selected {
                alive[s] = false;
            }
            assert!(
                cyclic_sccs(&edges, &alive, true).is_empty(),
                "seed {seed}: cycles remain"
            );
        }
    }
}
