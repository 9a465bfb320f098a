//! Step 1: the traditional alternating-sequence chain test.

use std::fmt;
use std::time::{Duration, Instant};

use fscan_fault::Fault;
use fscan_scan::ScanDesign;
use fscan_sim::{LaneWidth, StageMetrics, V3};

use crate::pipeline::alt_sim_with_trace;
use crate::sequences::scan_vector_layout;

/// Builds the scan-mode input sequence that shifts the alternating
/// pattern `00110011…` through every chain simultaneously (paper §1):
/// long enough to fill the longest chain and flush it out again, so a
/// pinned chain net shows up as a constant tail at some scan-out.
///
/// # Examples
///
/// ```
/// use fscan_netlist::{generate, GeneratorConfig};
/// use fscan_scan::{insert_functional_scan, TpiConfig};
/// use fscan::alternating_vectors;
///
/// let c = generate(&GeneratorConfig::new("d", 1).gates(80).dffs(6));
/// let design = insert_functional_scan(&c, &TpiConfig::default())?;
/// let vectors = alternating_vectors(&design);
/// assert!(vectors.len() >= 2 * design.max_chain_len());
/// # Ok::<(), fscan_scan::ScanError>(())
/// ```
pub fn alternating_vectors(design: &ScanDesign) -> Vec<Vec<V3>> {
    let layout = scan_vector_layout(design);
    let len = 2 * design.max_chain_len() + 4;
    let stream = ScanDesign::alternating_stream(len);
    stream
        .iter()
        .map(|&bit| {
            let mut v = layout.base_vector();
            for &pos in &layout.scan_in_pos {
                v[pos] = V3::from_bool(bit);
            }
            v
        })
        .collect()
}

/// The result of the alternating-sequence phase.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AlternatingReport {
    /// Faults targeted (normally `f_easy ∪ f_hard`).
    pub targeted: usize,
    /// Faults the alternating sequence really detects (by sequential
    /// fault simulation).
    pub detected: usize,
    /// Category-1 faults the sequence *missed* — the paper assumes this
    /// is zero; any residue is forwarded to the later steps.
    pub missed_easy: usize,
    /// Cycles simulated.
    pub cycles: usize,
    /// The stage's cost triple: wall-clock time, work distribution
    /// across fault-simulation workers, and deterministic work counters
    /// (gate evaluations, lane·cycles — bit-identical for every thread
    /// count).
    pub metrics: StageMetrics,
}

impl fmt::Display for AlternatingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "alternating sequence: {}/{} detected over {} cycles ({} easy missed), {:.2}s",
            self.detected,
            self.targeted,
            self.cycles,
            self.missed_easy,
            self.metrics.cpu.as_secs_f64()
        )
    }
}

/// Runs the alternating sequence against a fault list by sequential
/// fault simulation, returning the first detection cycle per fault.
#[derive(Clone, Debug)]
pub struct AlternatingPhase<'d> {
    design: &'d ScanDesign,
    vectors: Vec<Vec<V3>>,
}

impl<'d> AlternatingPhase<'d> {
    /// Prepares the phase (builds the pattern once).
    pub fn new(design: &'d ScanDesign) -> AlternatingPhase<'d> {
        AlternatingPhase {
            design,
            vectors: alternating_vectors(design),
        }
    }

    /// The input sequence used.
    pub fn vectors(&self) -> &[Vec<V3>] {
        &self.vectors
    }

    /// Consumes the phase and yields the input sequence by value, so a
    /// caller that is done simulating can keep the vectors without
    /// cloning them.
    pub fn into_vectors(self) -> Vec<Vec<V3>> {
        self.vectors
    }

    /// Fault-simulates the sequence; `results[i]` is the first cycle at
    /// which `faults[i]` is definitely detected.
    pub fn run(&self, faults: &[Fault]) -> (Vec<Option<usize>>, Duration) {
        let start = Instant::now();
        let (detections, ..) =
            alt_sim_with_trace(self.design, &self.vectors, faults, None, 1, LaneWidth::W64);
        (detections, start.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscan_fault::{all_faults, collapse};
    use fscan_netlist::{generate, GeneratorConfig};
    use fscan_scan::{insert_functional_scan, insert_mux_scan, TpiConfig};

    use crate::classify::{classify_faults, Category};

    #[test]
    fn detects_all_easy_faults_on_mux_scan() {
        // For a conventional (dedicated) scan chain the alternating
        // sequence detects every chain-affecting fault — the classic
        // result the paper starts from.
        let circuit = generate(&GeneratorConfig::new("d", 17).gates(120).dffs(8));
        let design = insert_mux_scan(&circuit, 1).unwrap();
        let faults = collapse(design.circuit(), &all_faults(design.circuit()));
        let classified = classify_faults(&design, &faults);
        let easy: Vec<Fault> = classified
            .iter()
            .filter(|c| c.category == Category::AlternatingDetectable)
            .map(|c| c.fault)
            .collect();
        assert!(!easy.is_empty());
        let phase = AlternatingPhase::new(&design);
        let (det, _) = phase.run(&easy);
        let missed = det.iter().filter(|d| d.is_none()).count();
        assert_eq!(
            missed, 0,
            "alternating must catch all easy faults on mux scan"
        );
    }

    #[test]
    fn detects_most_easy_faults_on_functional_scan() {
        let circuit = generate(&GeneratorConfig::new("d", 19).gates(150).dffs(10));
        let design = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
        let faults = collapse(design.circuit(), &all_faults(design.circuit()));
        let classified = classify_faults(&design, &faults);
        let easy: Vec<Fault> = classified
            .iter()
            .filter(|c| c.category == Category::AlternatingDetectable)
            .map(|c| c.fault)
            .collect();
        let phase = AlternatingPhase::new(&design);
        let (det, _) = phase.run(&easy);
        let detected = det.iter().filter(|d| d.is_some()).count();
        // Three-valued simulation is pessimistic, but the overwhelming
        // majority of category-1 faults must be caught.
        assert!(
            detected * 10 >= easy.len() * 9,
            "{detected}/{} easy faults detected",
            easy.len()
        );
    }

    #[test]
    fn hard_faults_can_escape_alternating() {
        // The paper's motivating observation: category-2 faults exist
        // that the alternating sequence does not detect.
        let mut escaped_somewhere = false;
        for seed in [19u64, 23, 29] {
            let circuit = generate(&GeneratorConfig::new("d", seed).gates(150).dffs(10));
            let design = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
            let faults = collapse(design.circuit(), &all_faults(design.circuit()));
            let classified = classify_faults(&design, &faults);
            let hard: Vec<Fault> = classified
                .iter()
                .filter(|c| c.category == Category::Hard)
                .map(|c| c.fault)
                .collect();
            if hard.is_empty() {
                continue;
            }
            let phase = AlternatingPhase::new(&design);
            let (det, _) = phase.run(&hard);
            if det.iter().any(|d| d.is_none()) {
                escaped_somewhere = true;
            }
        }
        assert!(
            escaped_somewhere,
            "expected at least one hard fault to escape the alternating sequence"
        );
    }

    #[test]
    fn sequence_shape() {
        let circuit = generate(&GeneratorConfig::new("d", 3).gates(60).dffs(4));
        let design = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
        let vectors = alternating_vectors(&design);
        let layout = crate::sequences::scan_vector_layout(&design);
        // The scan-in bit pattern must be 0011 repeating.
        let bits: Vec<bool> = vectors
            .iter()
            .map(|v| v[layout.scan_in_pos[0]] == V3::One)
            .collect();
        assert_eq!(&bits[..4], &[false, false, true, true]);
        assert_eq!(&bits[4..8], &[false, false, true, true]);
    }
}
