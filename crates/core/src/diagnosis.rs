//! Scan-chain fault diagnosis from failing test responses.
//!
//! When the alternating sequence (or any scan-mode test) fails on
//! silicon, the tester sees a faulty output trace. Because the
//! classification step already knows *which* faults can affect the
//! chain and *where* (paper §3), diagnosis reduces to signature
//! matching: simulate each chain-affecting candidate fault over the
//! same stimulus and keep the ones whose predicted response is
//! consistent with the observation. The surviving candidates' chain
//! locations tell the failure analyst which segment to look at.

use fscan_fault::Fault;
use fscan_scan::ScanDesign;
use fscan_sim::{SeqSim, Trace, V3};

use crate::classify::{Category, ChainLocation, ClassifiedFault};

/// One diagnosis candidate: a fault whose simulated response is
/// consistent with the observed failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiagnosisCandidate {
    /// The candidate fault.
    pub fault: Fault,
    /// The chain locations it affects (from classification).
    pub locations: Vec<ChainLocation>,
    /// Cycles at which the candidate's simulation *explains* the
    /// observed deviation from the good machine (both known, both equal,
    /// and different from the good value). Higher is stronger evidence.
    pub explained: usize,
}

/// Diagnoses a failing scan-mode test response.
///
/// * `classified` — the classification of the fault universe (only
///   chain-affecting faults are candidates);
/// * `vectors` — the stimulus that was applied (e.g.
///   [`crate::alternating_vectors`]);
/// * `observed` — the primary-output trace seen on the tester, cycle by
///   cycle (`X` entries are ignored, e.g. masked or unstrobed pins).
///
/// A candidate is *consistent* when its simulated faulty trace never
/// definitely contradicts the observation: wherever both are known they
/// agree. Candidates are returned sorted by decreasing `explained`
/// count (then by fault order for determinism). An observation
/// identical to the good machine returns an empty list.
///
/// # Examples
///
/// See `tests/` — the round trip "inject fault → simulate → diagnose"
/// recovers the injected fault's location.
pub fn diagnose_chain(
    design: &ScanDesign,
    classified: &[ClassifiedFault],
    vectors: &[Vec<V3>],
    observed: &[Vec<V3>],
) -> Vec<DiagnosisCandidate> {
    let circuit = design.circuit();
    let sim = SeqSim::new(circuit);
    let init = vec![V3::X; circuit.dffs().len()];
    let good = sim.run(vectors, &init, None);
    if !deviates(&good, observed) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for cf in classified {
        if cf.category == Category::Unaffected {
            continue;
        }
        let faulty = sim.run(vectors, &init, Some(cf.fault));
        if let Some(explained) = consistency(&faulty, observed, &good) {
            out.push(DiagnosisCandidate {
                fault: cf.fault,
                locations: cf.locations.clone(),
                explained,
            });
        }
    }
    out.sort_by(|a, b| b.explained.cmp(&a.explained).then(a.fault.cmp(&b.fault)));
    out
}

/// Whether the observation definitely differs from the good machine.
fn deviates(good: &Trace, observed: &[Vec<V3>]) -> bool {
    good.outputs.iter().zip(observed.iter()).any(|(g, o)| {
        g.iter()
            .zip(o.iter())
            .any(|(&gv, &ov)| gv.is_known() && ov.is_known() && gv != ov)
    })
}

/// `Some(explained)` when the candidate never contradicts the
/// observation; `explained` counts positions where the candidate
/// predicts exactly the observed deviation.
fn consistency(faulty: &Trace, observed: &[Vec<V3>], good: &Trace) -> Option<usize> {
    let mut explained = 0usize;
    for ((f, o), g) in faulty
        .outputs
        .iter()
        .zip(observed.iter())
        .zip(good.outputs.iter())
    {
        for ((&fv, &ov), &gv) in f.iter().zip(o.iter()).zip(g.iter()) {
            if fv.is_known() && ov.is_known() {
                if fv != ov {
                    return None; // definite contradiction
                }
                if gv.is_known() && gv != ov {
                    explained += 1; // predicted the failure exactly
                }
            }
        }
    }
    Some(explained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alternating::alternating_vectors;
    use crate::classify::classify_faults;
    use fscan_fault::{all_faults, collapse};
    use fscan_netlist::{generate, GeneratorConfig};
    use fscan_scan::{insert_functional_scan, TpiConfig};

    fn setup() -> (fscan_scan::ScanDesign, Vec<ClassifiedFault>, Vec<Vec<V3>>) {
        let circuit = generate(&GeneratorConfig::new("diag", 15).gates(130).dffs(8));
        let design = insert_functional_scan(&circuit, &TpiConfig::default()).unwrap();
        let faults = collapse(design.circuit(), &all_faults(design.circuit()));
        let classified = classify_faults(&design, &faults);
        let vectors = alternating_vectors(&design);
        (design, classified, vectors)
    }

    /// The trace a tester would record: the faulty machine's outputs
    /// with X strobes replaced by the good value (testers always read
    /// *something*; use good values so un-modeled positions are quiet).
    fn tester_view(design: &ScanDesign, vectors: &[Vec<V3>], fault: Fault) -> Vec<Vec<V3>> {
        let sim = SeqSim::new(design.circuit());
        let init = vec![V3::X; design.circuit().dffs().len()];
        let good = sim.run(vectors, &init, None);
        let bad = sim.run(vectors, &init, Some(fault));
        bad.outputs
            .iter()
            .zip(good.outputs.iter())
            .map(|(b, g)| {
                b.iter()
                    .zip(g.iter())
                    .map(|(&bv, &gv)| if bv.is_known() { bv } else { gv })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn injected_fault_is_among_candidates() {
        let (design, classified, vectors) = setup();
        // Pick a category-1 fault the alternating sequence detects.
        let phase = crate::alternating::AlternatingPhase::new(&design);
        let easy: Vec<Fault> = classified
            .iter()
            .filter(|c| c.category == Category::AlternatingDetectable)
            .map(|c| c.fault)
            .collect();
        let (det, _) = phase.run(&easy);
        let injected = easy
            .iter()
            .zip(det.iter())
            .find_map(|(&f, d)| d.map(|_| f))
            .expect("some easy fault is detected");
        let observed = tester_view(&design, &vectors, injected);
        let candidates = diagnose_chain(&design, &classified, &vectors, &observed);
        assert!(
            candidates.iter().any(|c| c.fault == injected),
            "injected fault must survive diagnosis"
        );
        // Top candidates must explain at least one failing position.
        assert!(candidates[0].explained > 0);
    }

    #[test]
    fn diagnosis_localizes_to_the_right_chain_region() {
        let (design, classified, vectors) = setup();
        let phase = crate::alternating::AlternatingPhase::new(&design);
        let easy: Vec<Fault> = classified
            .iter()
            .filter(|c| c.category == Category::AlternatingDetectable)
            .map(|c| c.fault)
            .collect();
        let (det, _) = phase.run(&easy);
        let injected_cf = classified
            .iter()
            .find(|c| {
                c.category == Category::AlternatingDetectable
                    && easy
                        .iter()
                        .zip(det.iter())
                        .any(|(&f, d)| f == c.fault && d.is_some())
            })
            .unwrap()
            .clone();
        let observed = tester_view(&design, &vectors, injected_cf.fault);
        let candidates = diagnose_chain(&design, &classified, &vectors, &observed);
        // The injected fault explains every observed deviation, so it is
        // a maximal explainer — and the ranking must put a maximal
        // explainer first.
        let injected_score = candidates
            .iter()
            .find(|c| c.fault == injected_cf.fault)
            .expect("injected among candidates")
            .explained;
        assert_eq!(
            candidates[0].explained, injected_score,
            "ranking must lead with a maximal explainer"
        );
        assert!(injected_score > 0);
    }

    #[test]
    fn passing_response_yields_no_candidates() {
        let (design, classified, vectors) = setup();
        let sim = SeqSim::new(design.circuit());
        let init = vec![V3::X; design.circuit().dffs().len()];
        let good = sim.run(&vectors, &init, None);
        let candidates = diagnose_chain(&design, &classified, &vectors, &good.outputs);
        assert!(candidates.is_empty());
    }
}
