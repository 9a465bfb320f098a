//! Conventional MUX-scan insertion (the paper's Figure 1a baseline).

use fscan_netlist::{Circuit, GateKind, NodeId};

use crate::design::{ScanCell, ScanChain, ScanDesign, SegmentKind, SideInput};
use crate::error::ScanError;

/// Splits `dffs` into `num_chains` contiguous, near-equal blocks.
pub(crate) fn partition_ffs(dffs: &[NodeId], num_chains: usize) -> Vec<Vec<NodeId>> {
    let n = dffs.len();
    let base = n / num_chains;
    let extra = n % num_chains;
    let mut out = Vec::with_capacity(num_chains);
    let mut start = 0;
    for k in 0..num_chains {
        let len = base + usize::from(k < extra);
        out.push(dffs[start..start + len].to_vec());
        start += len;
    }
    out
}

/// Adds the scan-mode infrastructure (the `scan_mode` input and its
/// inverter) to a circuit.
pub(crate) fn add_scan_infra(circuit: &mut Circuit) -> (NodeId, NodeId) {
    let scan_mode = circuit.add_input("scan_mode");
    let not_scan = circuit.add_gate(GateKind::Not, vec![scan_mode], "not_scan");
    (scan_mode, not_scan)
}

/// Builds one dedicated MUX segment feeding `ff` from `prev`:
/// `D = (func_d AND not_scan) OR (prev AND scan_mode)`.
pub(crate) fn add_mux_segment(
    circuit: &mut Circuit,
    scan_mode: NodeId,
    not_scan: NodeId,
    ff: NodeId,
    prev: NodeId,
) -> ScanCell {
    let func_d = circuit.node(ff).fanin()[0];
    let base = circuit.node(ff).name().unwrap_or("ff").to_string();
    let a = circuit.add_gate(GateKind::And, vec![func_d, not_scan], format!("{base}_mda"));
    let b = circuit.add_gate(GateKind::And, vec![prev, scan_mode], format!("{base}_mdb"));
    let m = circuit.add_gate(GateKind::Or, vec![a, b], format!("{base}_mdm"));
    circuit
        .set_dff_input(ff, m)
        .expect("ff is a flip-flop by construction");
    ScanCell {
        ff,
        source: prev,
        path: vec![(b, 0), (m, 1)],
        inverted: false,
        sides: vec![
            SideInput {
                gate: b,
                pin: 1,
                net: scan_mode,
                required: true,
            },
            SideInput {
                gate: m,
                pin: 0,
                net: a,
                required: false,
            },
        ],
        kind: SegmentKind::Dedicated,
    }
}

/// Inserts conventional full scan: every flip-flop receives a dedicated
/// multiplexer segment; flip-flops are chained in declaration order,
/// split into `num_chains` chains, each with its own scan-in primary
/// input and the last cell's Q marked as a scan-out primary output.
///
/// # Errors
///
/// Returns [`ScanError::NoFlipFlops`] for purely combinational circuits
/// and [`ScanError::TooManyChains`] when `num_chains` exceeds the
/// flip-flop count. `num_chains == 0` is treated as 1.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{generate, GeneratorConfig};
/// use fscan_scan::{insert_mux_scan, SegmentKind};
///
/// let c = generate(&GeneratorConfig::new("d", 3).gates(60).dffs(6));
/// let design = insert_mux_scan(&c, 1)?;
/// assert!(design
///     .chains()[0]
///     .cells
///     .iter()
///     .all(|cell| cell.kind == SegmentKind::Dedicated));
/// # Ok::<(), fscan_scan::ScanError>(())
/// ```
pub fn insert_mux_scan(circuit: &Circuit, num_chains: usize) -> Result<ScanDesign, ScanError> {
    let num_chains = num_chains.max(1);
    if circuit.dffs().is_empty() {
        return Err(ScanError::NoFlipFlops);
    }
    if num_chains > circuit.dffs().len() {
        return Err(ScanError::TooManyChains {
            requested: num_chains,
            flip_flops: circuit.dffs().len(),
        });
    }
    let mut c = circuit.clone();
    let original_gates = c.num_gates();
    let (scan_mode, not_scan) = add_scan_infra(&mut c);
    let mut chains = Vec::with_capacity(num_chains);
    for (k, ffs) in partition_ffs(circuit.dffs(), num_chains)
        .into_iter()
        .enumerate()
    {
        let scan_in = c.add_input(format!("scan_in{k}"));
        let mut prev = scan_in;
        let mut cells = Vec::with_capacity(ffs.len());
        for ff in ffs {
            let cell = add_mux_segment(&mut c, scan_mode, not_scan, ff, prev);
            prev = ff;
            cells.push(cell);
        }
        c.mark_output(prev); // scan-out observes the last cell's Q
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
    use fscan_sim::{SeqSim, V3};

    #[test]
    fn partition_balances() {
        let ids: Vec<NodeId> = (0..7).map(NodeId::from_index).collect();
        let parts = partition_ffs(&ids, 3);
        assert_eq!(
            parts.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![3, 2, 2]
        );
        let flat: Vec<NodeId> = parts.concat();
        assert_eq!(flat, ids);
    }

    #[test]
    fn rejects_no_ffs() {
        let mut c = Circuit::new("comb");
        let a = c.add_input("a");
        c.mark_output(a);
        assert!(matches!(
            insert_mux_scan(&c, 1),
            Err(ScanError::NoFlipFlops)
        ));
    }

    #[test]
    fn rejects_too_many_chains() {
        let c = generate(&GeneratorConfig::new("d", 1).gates(30).dffs(2));
        assert!(matches!(
            insert_mux_scan(&c, 5),
            Err(ScanError::TooManyChains { .. })
        ));
    }

    #[test]
    fn chain_shifts_data_end_to_end() {
        let circuit = generate(&GeneratorConfig::new("d", 7).inputs(5).gates(80).dffs(5));
        let design = insert_mux_scan(&circuit, 1).unwrap();
        let c = design.circuit();
        let chain = &design.chains()[0];
        assert_eq!(chain.len(), 5);
        // Shift in a pattern and read it back out by simulation.
        let state = [true, false, true, true, false];
        let stream = chain.scan_in_stream(&state);
        let n_pis = c.inputs().len();
        let si_pos = c.inputs().iter().position(|&p| p == chain.scan_in).unwrap();
        let sm_pos = c
            .inputs()
            .iter()
            .position(|&p| p == design.scan_mode())
            .unwrap();
        let mut vectors = Vec::new();
        for &bit in &stream {
            let mut v = vec![V3::Zero; n_pis];
            v[si_pos] = V3::from(bit);
            v[sm_pos] = V3::One;
            vectors.push(v);
        }
        let sim = SeqSim::new(c);
        let trace = sim.run(&vectors, &vec![V3::X; c.dffs().len()], None);
        // After len cycles, cell k (in chain order) holds state[k].
        for (k, cell) in chain.cells.iter().enumerate() {
            let dff_pos = c.dffs().iter().position(|&f| f == cell.ff).unwrap();
            assert_eq!(
                trace.final_state[dff_pos],
                V3::from(state[k]),
                "cell {k} after scan-in"
            );
        }
    }

    #[test]
    fn normal_mode_preserves_function() {
        // With scan_mode = 0, the transformed circuit must behave exactly
        // like the original on random vectors.
        let circuit = generate(&GeneratorConfig::new("d", 11).inputs(6).gates(100).dffs(6));
        let design = insert_mux_scan(&circuit, 2).unwrap();
        let c = design.circuit();
        let orig_sim = SeqSim::new(&circuit);
        let new_sim = SeqSim::new(c);
        let vectors_orig: Vec<Vec<V3>> = (0..10)
            .map(|t| {
                (0..circuit.inputs().len())
                    .map(|k| V3::from((t * 7 + k) % 3 == 0))
                    .collect()
            })
            .collect();
        // New circuit has extra PIs (scan_mode, scan_in0, scan_in1): keep
        // scan_mode = 0, scan-ins arbitrary.
        let vectors_new: Vec<Vec<V3>> = vectors_orig
            .iter()
            .map(|v| {
                let mut w = v.clone();
                w.extend(vec![V3::Zero; c.inputs().len() - v.len()]);
                w
            })
            .collect();
        let init = vec![V3::Zero; circuit.dffs().len()];
        let t_orig = orig_sim.run(&vectors_orig, &init, None);
        let t_new = new_sim.run(&vectors_new, &init, None);
        // Compare the original POs (the first outputs of the new circuit).
        for t in 0..vectors_orig.len() {
            for k in 0..circuit.outputs().len() {
                assert_eq!(
                    t_orig.outputs[t][k], t_new.outputs[t][k],
                    "cycle {t} po {k}"
                );
            }
        }
    }

    #[test]
    fn verify_passes_and_counts() {
        let circuit = generate(&GeneratorConfig::new("d", 13).gates(50).dffs(4));
        let design = insert_mux_scan(&circuit, 2).unwrap();
        design.verify().unwrap();
        let (ded, fun) = design.segment_counts();
        assert_eq!(ded, 4);
        assert_eq!(fun, 0);
        assert_eq!(design.test_points(), 0);
        assert_eq!(design.max_chain_len(), 2);
    }
}
