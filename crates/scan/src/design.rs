//! The scan design produced by insertion: chains, cells, side inputs.

use std::fmt;
use std::sync::{Arc, OnceLock};

use fscan_netlist::{Circuit, CompiledTopology, NetlistDelta, NodeId};
use fscan_sim::{CombEvaluator, V3};

use crate::error::ScanError;

/// How a scan cell receives its shifted data in scan mode.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    /// A dedicated multiplexer segment (conventional scan).
    Dedicated,
    /// A sensitized path through mission logic (TPI functional scan).
    Functional,
}

/// One forced side input of a sensitized scan path gate.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SideInput {
    /// The path gate.
    pub gate: NodeId,
    /// The side pin index on `gate`.
    pub pin: usize,
    /// The net read by that pin.
    pub net: NodeId,
    /// The non-controlling value the net must hold in scan mode.
    pub required: bool,
}

/// One scan cell: a flip-flop plus the sensitized segment that feeds its
/// D pin in scan mode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanCell {
    /// The flip-flop.
    pub ff: NodeId,
    /// The net feeding the segment: the previous cell's Q, or the
    /// chain's scan-in input for the first cell.
    pub source: NodeId,
    /// The gates along the sensitized path in order, each with the pin
    /// through which the shifted data enters. The last gate drives the
    /// flip-flop's D pin. Empty when the Q-to-D connection is direct.
    pub path: Vec<(NodeId, usize)>,
    /// Whether the segment inverts the shifted bit.
    pub inverted: bool,
    /// All forced side inputs along the path.
    pub sides: Vec<SideInput>,
    /// Dedicated or functional.
    pub kind: SegmentKind,
}

impl ScanCell {
    /// The nets that carry the shifted data into this cell's flip-flop:
    /// the segment source plus every path gate output.
    pub fn chain_nets(&self) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(self.source).chain(self.path.iter().map(|&(g, _)| g))
    }
}

/// One scan chain: a scan-in input, an ordered list of cells, and the
/// last cell's Q observed as scan-out.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanChain {
    /// The dedicated scan-in primary input.
    pub scan_in: NodeId,
    /// The cells in shift order (`cells[0]` is next to scan-in).
    pub cells: Vec<ScanCell>,
}

impl ScanChain {
    /// Chain length in cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the chain has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The scan-out net (the last cell's Q).
    ///
    /// # Panics
    ///
    /// Panics on an empty chain.
    pub fn scan_out(&self) -> NodeId {
        self.cells.last().expect("empty scan chain").ff
    }

    /// Cumulative inversion parity from scan-in up to and including the
    /// segment feeding cell `k`.
    pub fn parity_to(&self, k: usize) -> bool {
        self.cells[..=k].iter().fold(false, |p, c| p ^ c.inverted)
    }

    /// The scan-in bit stream (first element entered first) that loads
    /// `state[k]` into cell `k` after exactly `len()` clocks, accounting
    /// for segment inversions.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != self.len()`.
    pub fn scan_in_stream(&self, state: &[bool]) -> Vec<bool> {
        assert_eq!(state.len(), self.len(), "state length != chain length");
        let l = self.len();
        // The bit entered at clock t lands in cell (l-1-t), having passed
        // segments 0..=l-1-t.
        (0..l)
            .map(|t| {
                let cell = l - 1 - t;
                state[cell] ^ self.parity_to(cell)
            })
            .collect()
    }

    /// The bit observed at scan-out `t + 1` clocks after the chain holds
    /// `state` (t = 0 shows the value shifted once), for `t` in
    /// `0..len()-1`... more precisely: returns the full scan-out stream
    /// of length `len()`, where element 0 is the value currently in the
    /// last cell (observed before any further clock).
    ///
    /// While shifting out, cell `k`'s value must travel through segments
    /// `k+1..len()`, accumulating their inversions.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != self.len()`.
    pub fn expected_scan_out(&self, state: &[bool]) -> Vec<bool> {
        assert_eq!(state.len(), self.len(), "state length != chain length");
        let l = self.len();
        (0..l)
            .map(|t| {
                let cell = l - 1 - t;
                // Parity of segments cell+1 .. l-1.
                let p = self.cells[cell + 1..]
                    .iter()
                    .fold(false, |p, c| p ^ c.inverted);
                state[cell] ^ p
            })
            .collect()
    }
}

/// A circuit with scan inserted, plus everything needed to reason about
/// its scan chains.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{generate, GeneratorConfig};
/// use fscan_scan::insert_mux_scan;
///
/// let c = generate(&GeneratorConfig::new("d", 3).gates(60).dffs(6));
/// let design = insert_mux_scan(&c, 2)?;
/// assert_eq!(design.chains().len(), 2);
/// assert_eq!(design.chains()[0].len() + design.chains()[1].len(), 6);
/// design.verify()?;
/// # Ok::<(), fscan_scan::ScanError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ScanDesign {
    circuit: Circuit,
    scan_mode: NodeId,
    constraints: Vec<(NodeId, bool)>,
    chains: Vec<ScanChain>,
    test_points: usize,
    added_gates: usize,
    /// Compiled topology of the (frozen) transformed circuit, built on
    /// first use and shared by every engine thereafter.
    topo: OnceLock<Arc<CompiledTopology>>,
}

impl ScanDesign {
    pub(crate) fn new(
        circuit: Circuit,
        scan_mode: NodeId,
        constraints: Vec<(NodeId, bool)>,
        chains: Vec<ScanChain>,
        test_points: usize,
        added_gates: usize,
    ) -> ScanDesign {
        ScanDesign {
            circuit,
            scan_mode,
            constraints,
            chains,
            test_points,
            added_gates,
            topo: OnceLock::new(),
        }
    }

    /// The transformed circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The compiled topology of the transformed circuit: CSR adjacency,
    /// levelized order and index tables, built exactly once on first use
    /// (the circuit is frozen inside a `ScanDesign`) and shared via
    /// [`Arc`] by every downstream engine.
    pub fn topology(&self) -> Arc<CompiledTopology> {
        self.topo
            .get_or_init(|| CompiledTopology::shared(&self.circuit))
            .clone()
    }

    /// Applies an ECO edit script to the scanned circuit, producing a new
    /// design that shares the base's scan fabric — chains, constraints and
    /// the `scan_mode` input are carried over unchanged — and whose
    /// topology is built incrementally via [`CompiledTopology::patch`],
    /// so downstream engines see the delta's dirty cones.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::Structure`] if the edit script fails to apply,
    /// or if it touches any node the scan fabric depends on (chain nets,
    /// flip-flops, side inputs, path gates, `scan_mode` or a constrained
    /// input) — such edits change shift behaviour and must go through a
    /// full re-insertion instead. Freezing those nodes does not freeze
    /// the logic that forces a side input, so the patched design is
    /// also [`verify`](Self::verify)-ed, and its error (typically
    /// [`ScanError::SideInputNotForced`]) is returned when a chain no
    /// longer shifts.
    pub fn patched(&self, delta: &NetlistDelta) -> Result<ScanDesign, ScanError> {
        let circuit = delta
            .apply(&self.circuit)
            .map_err(|e| ScanError::Structure(format!("eco delta rejected: {e}")))?;
        let mut frozen: Vec<NodeId> = vec![self.scan_mode];
        frozen.extend(self.constraints.iter().map(|&(pi, _)| pi));
        for chain in &self.chains {
            frozen.push(chain.scan_in);
            for cell in &chain.cells {
                frozen.push(cell.ff);
                frozen.extend(cell.chain_nets());
                for side in &cell.sides {
                    frozen.push(side.gate);
                    frozen.push(side.net);
                }
            }
        }
        frozen.sort_unstable();
        frozen.dedup();
        for id in delta.touched() {
            if frozen.binary_search(&id).is_ok() {
                return Err(ScanError::Structure(format!(
                    "eco delta touches scan fabric node {id}; re-insert scan instead"
                )));
            }
        }
        let topo = Arc::new(self.topology().patch(delta));
        let cell = OnceLock::new();
        let _ = cell.set(topo);
        let design = ScanDesign {
            circuit,
            scan_mode: self.scan_mode,
            constraints: self.constraints.clone(),
            chains: self.chains.clone(),
            test_points: self.test_points,
            added_gates: self.added_gates,
            topo: cell,
        };
        design.verify()?;
        Ok(design)
    }

    /// The `scan_mode` primary input (1 during all scan operations).
    pub fn scan_mode(&self) -> NodeId {
        self.scan_mode
    }

    /// The scan-mode primary-input constraints, including
    /// `(scan_mode, true)` and every TPI forcing assignment.
    pub fn constraints(&self) -> &[(NodeId, bool)] {
        &self.constraints
    }

    /// The scan chains.
    pub fn chains(&self) -> &[ScanChain] {
        &self.chains
    }

    /// Number of test points inserted by TPI (0 for pure MUX scan).
    pub fn test_points(&self) -> usize {
        self.test_points
    }

    /// Gates added by scan insertion (multiplexer gates, test points and
    /// the `scan_mode` inverter) — the area overhead the paper's TPI
    /// approach exists to reduce.
    pub fn added_gates(&self) -> usize {
        self.added_gates
    }

    /// The number of dedicated-MUX segments (scan overhead) vs
    /// functional segments across all chains.
    pub fn segment_counts(&self) -> (usize, usize) {
        let mut dedicated = 0;
        let mut functional = 0;
        for chain in &self.chains {
            for cell in &chain.cells {
                match cell.kind {
                    SegmentKind::Dedicated => dedicated += 1,
                    SegmentKind::Functional => functional += 1,
                }
            }
        }
        (dedicated, functional)
    }

    /// The length of the longest chain (the paper's `maxsize`).
    pub fn max_chain_len(&self) -> usize {
        self.chains.iter().map(ScanChain::len).max().unwrap_or(0)
    }

    /// The steady scan-mode values: constrained primary inputs at their
    /// pinned values, free inputs and flip-flop outputs at X, constants
    /// and gates evaluated.
    pub fn scan_mode_values(&self) -> Vec<V3> {
        let eval = CombEvaluator::with_topology(self.topology());
        let mut values = vec![V3::X; self.circuit.num_nodes()];
        for &(pi, v) in &self.constraints {
            values[pi.index()] = V3::from_bool(v);
        }
        eval.eval(&self.circuit, &mut values);
        values
    }

    /// Checks that every chain is actually sensitized in scan mode:
    /// each side input holds its required non-controlling value, each
    /// path gate really drives the next element, and the final gate
    /// drives the flip-flop's D pin.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition.
    pub fn verify(&self) -> Result<(), ScanError> {
        self.circuit
            .validate()
            .map_err(|e| ScanError::Structure(e.to_string()))?;
        let values = self.scan_mode_values();
        for chain in &self.chains {
            for cell in &chain.cells {
                // Side inputs must be forced.
                for side in &cell.sides {
                    let v = values[side.net.index()];
                    if v != V3::from_bool(side.required) {
                        return Err(ScanError::SideInputNotForced {
                            gate: side.gate,
                            pin: side.pin,
                        });
                    }
                }
                // Path continuity.
                let mut prev = cell.source;
                for &(gate, pin) in &cell.path {
                    let node = self.circuit.node(gate);
                    if node.fanin().get(pin) != Some(&prev) {
                        return Err(ScanError::Structure(format!(
                            "path gate {gate} pin {pin} does not read {prev}"
                        )));
                    }
                    prev = gate;
                }
                let d = self.circuit.node(cell.ff).fanin()[0];
                if d != prev {
                    return Err(ScanError::Structure(format!(
                        "flip-flop {} D pin reads {d}, expected {prev}",
                        cell.ff
                    )));
                }
            }
        }
        Ok(())
    }

    /// The alternating scan test pattern `0011 0011 …` of the given
    /// length (paper, Section 1): the traditional chain integrity test.
    pub fn alternating_stream(len: usize) -> Vec<bool> {
        (0..len).map(|i| (i / 2) % 2 == 1).collect()
    }
}

impl fmt::Display for ScanDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (ded, fun) = self.segment_counts();
        write!(
            f,
            "scan design: {} chains, {} cells ({} functional, {} dedicated segments), {} test points",
            self.chains.len(),
            ded + fun,
            fun,
            ded,
            self.test_points
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(inverted: bool) -> ScanCell {
        ScanCell {
            ff: NodeId::from_index(0),
            source: NodeId::from_index(0),
            path: vec![],
            inverted,
            sides: vec![],
            kind: SegmentKind::Dedicated,
        }
    }

    #[test]
    fn patched_spare_cell_keeps_fabric_and_rejects_fabric_edits() {
        use fscan_netlist::{
            generate, DeltaNode, DeltaRef, GateKind, GeneratorConfig, NetlistDelta, Redrive,
        };
        let c = generate(&GeneratorConfig::new("eco", 7).gates(80).dffs(6));
        let design = crate::insert_mux_scan(&c, 2).unwrap();
        let n = design.circuit().num_nodes();
        let delta = NetlistDelta {
            base_nodes: n,
            added: vec![
                DeltaNode {
                    name: "spare_c".into(),
                    kind: GateKind::Const0,
                    fanin: vec![],
                },
                DeltaNode {
                    name: "spare_g".into(),
                    kind: GateKind::Not,
                    fanin: vec![DeltaRef::Added(0)],
                },
            ],
            redriven: vec![],
            removed: vec![],
            outputs: vec![],
        };
        let patched = design.patched(&delta).unwrap();
        patched.verify().unwrap();
        assert_eq!(patched.chains(), design.chains());
        assert_eq!(patched.constraints(), design.constraints());
        let topo = patched.topology();
        let dirty = topo.dirty().expect("patched topology carries dirty info");
        assert_eq!(dirty.cones().len(), 2);

        // Rewiring a scan flip-flop's D pin changes shift behaviour and
        // must be rejected even though the edit applies cleanly.
        let ff = design.chains()[0].cells[0].ff;
        let bad = NetlistDelta {
            base_nodes: n,
            added: vec![],
            redriven: vec![Redrive {
                node: ff,
                kind: GateKind::Dff,
                fanin: vec![DeltaRef::Base(design.chains()[0].scan_in)],
            }],
            removed: vec![],
            outputs: vec![],
        };
        let err = design.patched(&bad).unwrap_err();
        assert!(err.to_string().contains("scan fabric"));

        // Re-driving the logic that forces a side input touches no frozen
        // node, but the side input then floats in scan mode: the patched
        // chain would no longer shift. `not_scan` forces every mux's
        // functional AND to 0; as a buffer of `scan_mode` it passes the
        // functional D value through instead.
        let not_scan = (0..n)
            .map(NodeId::from_index)
            .find(|&id| design.circuit().node(id).name() == Some("not_scan"))
            .expect("mux scan adds the scan_mode inverter");
        let unforce = NetlistDelta {
            base_nodes: n,
            added: vec![],
            redriven: vec![Redrive {
                node: not_scan,
                kind: GateKind::Buf,
                fanin: vec![DeltaRef::Base(design.scan_mode())],
            }],
            removed: vec![],
            outputs: vec![],
        };
        assert!(matches!(
            design.patched(&unforce),
            Err(ScanError::SideInputNotForced { .. })
        ));
    }

    #[test]
    fn alternating_pattern() {
        assert_eq!(
            ScanDesign::alternating_stream(8),
            vec![false, false, true, true, false, false, true, true]
        );
    }

    #[test]
    fn scan_in_stream_no_inversion() {
        let chain = ScanChain {
            scan_in: NodeId::from_index(0),
            cells: vec![cell(false), cell(false), cell(false)],
        };
        // Loading [s0, s1, s2]: s2 must enter first.
        let stream = chain.scan_in_stream(&[true, false, true]);
        assert_eq!(stream, vec![true, false, true]);
        // First element entered reaches the last cell.
        assert!(stream[0]); // s2
        assert!(stream[2]); // s0
    }

    #[test]
    fn scan_in_stream_with_inversions() {
        // Segments: inv, pass, inv → parity to cell0 = 1, cell1 = 1, cell2 = 0.
        let chain = ScanChain {
            scan_in: NodeId::from_index(0),
            cells: vec![cell(true), cell(false), cell(true)],
        };
        let state = [true, true, false];
        let stream = chain.scan_in_stream(&state);
        // stream[t] loads cell (2-t): cell2 needs state^parity = 0^0=0,
        // cell1 = 1^1=0, cell0 = 1^1=0.
        assert_eq!(stream, vec![false, false, false]);
    }

    #[test]
    fn expected_scan_out_parity() {
        let chain = ScanChain {
            scan_in: NodeId::from_index(0),
            cells: vec![cell(true), cell(false), cell(true)],
        };
        let state = [true, false, true];
        let out = chain.expected_scan_out(&state);
        // t=0: cell2 directly: 1. t=1: cell1 through seg2 (inv): !0 = 1.
        // t=2: cell0 through seg1+seg2 (parity 1): !1 = 0.
        assert_eq!(out, vec![true, true, false]);
    }

    #[test]
    fn parity_to_accumulates() {
        let chain = ScanChain {
            scan_in: NodeId::from_index(0),
            cells: vec![cell(true), cell(true), cell(false)],
        };
        assert!(chain.parity_to(0));
        assert!(!chain.parity_to(1));
        assert!(!chain.parity_to(2));
    }
}
