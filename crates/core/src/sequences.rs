//! Building concrete scan-mode input sequences.

use fscan_scan::ScanDesign;
use fscan_sim::V3;

/// The mapping from a scan design's inputs to vector positions, plus the
/// base scan-mode vector (constrained pins pinned, everything else 0).
///
/// # Examples
///
/// ```
/// use fscan_netlist::{generate, GeneratorConfig};
/// use fscan_scan::{insert_functional_scan, TpiConfig};
/// use fscan::scan_vector_layout;
///
/// let c = generate(&GeneratorConfig::new("d", 1).gates(80).dffs(6));
/// let design = insert_functional_scan(&c, &TpiConfig::default())?;
/// let layout = scan_vector_layout(&design);
/// assert_eq!(layout.scan_in_pos.len(), design.chains().len());
/// # Ok::<(), fscan_scan::ScanError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ScanSequence {
    /// Number of primary inputs of the transformed circuit.
    pub width: usize,
    /// Vector position of each chain's scan-in input.
    pub scan_in_pos: Vec<usize>,
    /// `(position, value)` of every scan-mode-constrained input.
    pub constrained: Vec<(usize, bool)>,
    /// Positions of free inputs (not constrained, not scan-ins).
    pub free: Vec<usize>,
}

impl ScanSequence {
    /// The base scan-mode vector: constrained pins at their values,
    /// scan-ins and free pins at 0.
    pub fn base_vector(&self) -> Vec<V3> {
        let mut v = vec![V3::Zero; self.width];
        for &(pos, val) in &self.constrained {
            v[pos] = V3::from_bool(val);
        }
        v
    }
}

/// Computes the input layout of a scan design. See [`ScanSequence`].
pub fn scan_vector_layout(design: &ScanDesign) -> ScanSequence {
    let inputs = design.circuit().inputs();
    let pos_of = |n| {
        inputs
            .iter()
            .position(|&p| p == n)
            .expect("scan design input missing from circuit")
    };
    let scan_in_pos: Vec<usize> = design.chains().iter().map(|c| pos_of(c.scan_in)).collect();
    let constrained: Vec<(usize, bool)> = design
        .constraints()
        .iter()
        .map(|&(n, v)| (pos_of(n), v))
        .collect();
    let taken: std::collections::HashSet<usize> = scan_in_pos
        .iter()
        .copied()
        .chain(constrained.iter().map(|&(p, _)| p))
        .collect();
    let free = (0..inputs.len()).filter(|p| !taken.contains(p)).collect();
    ScanSequence {
        width: inputs.len(),
        scan_in_pos,
        constrained,
        free,
    }
}

/// Builds the scan-in (load) phase: `max_chain_len` cycles that leave
/// chain `c`'s cells holding `states[c]` (don't-cares loaded as 0),
/// accounting for segment inversions. Shorter chains start their stream
/// late so every chain finishes loading on the same final cycle.
///
/// Free inputs are held at 0.
///
/// # Panics
///
/// Panics if `states.len()` differs from the chain count or any state
/// length from its chain length.
pub fn scan_load_vectors(design: &ScanDesign, states: &[Vec<bool>]) -> Vec<Vec<V3>> {
    load_vectors_with(design, &scan_vector_layout(design), states)
}

/// [`scan_load_vectors`] against a `layout` the caller already computed
/// for `design`.
pub(crate) fn load_vectors_with(
    design: &ScanDesign,
    layout: &ScanSequence,
    states: &[Vec<bool>],
) -> Vec<Vec<V3>> {
    assert_eq!(states.len(), design.chains().len(), "one state per chain");
    let total = design.max_chain_len();
    let mut vectors = vec![layout.base_vector(); total];
    for (c, chain) in design.chains().iter().enumerate() {
        let stream = chain.scan_in_stream(&states[c]);
        let offset = total - stream.len();
        for (t, &bit) in stream.iter().enumerate() {
            vectors[offset + t][layout.scan_in_pos[c]] = V3::from_bool(bit);
        }
    }
    vectors
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscan_netlist::{generate, GeneratorConfig};
    use fscan_scan::{insert_functional_scan, TpiConfig};
    use fscan_sim::SeqSim;

    #[test]
    fn load_vectors_realize_states_across_chains() {
        let circuit = generate(&GeneratorConfig::new("d", 77).gates(250).dffs(14));
        let cfg = TpiConfig { num_chains: 2 };
        let design = insert_functional_scan(&circuit, &cfg).unwrap();
        let states: Vec<Vec<bool>> = design
            .chains()
            .iter()
            .map(|ch| (0..ch.len()).map(|i| i % 2 == 1).collect())
            .collect();
        let vectors = scan_load_vectors(&design, &states);
        assert_eq!(vectors.len(), design.max_chain_len());
        let c = design.circuit();
        let sim = SeqSim::new(c);
        let trace = sim.run(&vectors, &vec![V3::X; c.dffs().len()], None);
        for (ci, chain) in design.chains().iter().enumerate() {
            for (k, cell) in chain.cells.iter().enumerate() {
                let pos = c.dffs().iter().position(|&f| f == cell.ff).unwrap();
                assert_eq!(
                    trace.final_state[pos],
                    V3::from(states[ci][k]),
                    "chain {ci} cell {k}"
                );
            }
        }
    }

    #[test]
    fn base_vector_pins_constraints_only() {
        let circuit = generate(&GeneratorConfig::new("d", 5).gates(100).dffs(6));
        let design = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
        let layout = scan_vector_layout(&design);
        let base = layout.base_vector();
        for &(pos, val) in &layout.constrained {
            assert_eq!(base[pos], V3::from(val));
        }
        // Every position is accounted for exactly once.
        assert_eq!(
            layout.free.len() + layout.constrained.len() + layout.scan_in_pos.len(),
            layout.width
        );
    }
}
