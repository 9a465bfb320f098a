//! Output checks, run outside the timed phase.
//!
//! A check returns the problems it found; an operation with any problem
//! counts as failed. The checks re-derive what they compare against from
//! the design, through the scalar reference paths where the library has
//! them.

use std::collections::HashSet;

use fscan::{
    classify_faults, classify_faults_sharded_at, AlternatingReport, Category, ClassifySummary,
    PipelineReport,
};
use fscan_fault::{all_faults, collapse, Fault};
use fscan_scan::ScanDesign;
use fscan_sim::{LaneWidth, ParallelFaultSim, V3};

/// What one operation's check found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Check {
    /// Empty when the output passed.
    pub problems: Vec<String>,
    /// Chain-affecting faults the re-simulated stimulus detects.
    pub detected: usize,
    /// Chain-affecting faults in the design.
    pub affected: usize,
}

impl Check {
    pub fn passed(&self) -> bool {
        self.problems.is_empty()
    }
}

fn expect_eq(problems: &mut Vec<String>, what: &str, left: usize, right: usize) {
    if left != right {
        problems.push(format!("{what}: {left} != {right}"));
    }
}

/// Detections of `vectors` applied in order from all-X power-up.
fn replay(design: &ScanDesign, vectors: &[Vec<V3>], faults: &[Fault]) -> Vec<Option<usize>> {
    let sim = ParallelFaultSim::with_topology(design.topology());
    let init = vec![V3::X; design.circuit().dffs().len()];
    sim.fault_sim_sharded(vectors, &init, faults, 0).0
}

/// The collapsed fault universe and its chain-affecting part, from the
/// scalar classifier.
fn scalar_affected(design: &ScanDesign) -> (usize, Vec<Fault>) {
    let faults = collapse(design.circuit(), &all_faults(design.circuit()));
    let affected = classify_faults(design, &faults)
        .into_iter()
        .filter(|c| c.category != Category::Unaffected)
        .map(|c| c.fault)
        .collect();
    (faults.len(), affected)
}

/// The detections a full report claims for its program.
pub fn claimed_detections(report: &PipelineReport) -> usize {
    report
        .classification
        .affected()
        .saturating_sub(report.seq.undetected + report.comb.undetectable + report.seq.undetectable)
}

/// Checks a full pipeline report: its bookkeeping, and that its program,
/// applied in order from power-up, detects at least what it claims.
pub fn check_report(design: &ScanDesign, report: &PipelineReport) -> Check {
    let mut problems = Vec::new();
    let affected_n = report.classification.affected();
    expect_eq(
        &mut problems,
        "alternating.targeted vs affected",
        report.alternating.targeted,
        affected_n,
    );
    expect_eq(
        &mut problems,
        "seq.targeted vs comb.undetected + alternating.missed_easy",
        report.seq.targeted,
        report.comb.undetected + report.alternating.missed_easy,
    );
    expect_eq(
        &mut problems,
        "comb.targeted vs detected + undetectable + undetected",
        report.comb.targeted,
        report.comb.detected + report.comb.undetectable + report.comb.undetected,
    );
    expect_eq(
        &mut problems,
        "undetected_faults vs seq.undetected",
        report.undetected_faults.len(),
        report.seq.undetected,
    );
    expect_eq(&mut problems, "compact.lost", report.compact.lost, 0);

    let (total, affected) = scalar_affected(design);
    expect_eq(
        &mut problems,
        "total_faults vs scalar universe",
        report.total_faults,
        total,
    );
    expect_eq(
        &mut problems,
        "affected vs scalar classification",
        affected_n,
        affected.len(),
    );
    let detected = replay(design, &report.program.concatenated(), &affected)
        .iter()
        .filter(|d| d.is_some())
        .count();
    let claimed = claimed_detections(report);
    if detected < claimed {
        problems.push(format!(
            "program detects {detected} chain-affecting faults from power-up, report claims {claimed}"
        ));
    }
    Check {
        problems,
        detected,
        affected: affected.len(),
    }
}

/// Checks a step-1 screen: bookkeeping, packed classification against the
/// scalar classifier on a strided sample, and that the alternating
/// sequence detects every fault the stage says it does.
pub fn check_screen(
    design: &ScanDesign,
    faults: &[Fault],
    summary: &ClassifySummary,
    alternating: &AlternatingReport,
    claimed: &HashSet<Fault>,
    sample: usize,
) -> Check {
    let mut problems = Vec::new();
    let packed = classify_faults_sharded_at(design, faults, 0, LaneWidth::default()).0;
    let affected: Vec<Fault> = packed
        .iter()
        .filter(|c| c.category != Category::Unaffected)
        .map(|c| c.fault)
        .collect();
    expect_eq(
        &mut problems,
        "affected vs reclassified",
        summary.affected(),
        affected.len(),
    );
    expect_eq(
        &mut problems,
        "alternating.targeted vs affected",
        alternating.targeted,
        affected.len(),
    );
    expect_eq(
        &mut problems,
        "alternating.detected vs detected set",
        alternating.detected,
        claimed.len(),
    );

    let stride = (packed.len() / sample.max(1)).max(1);
    let picked: Vec<_> = packed.iter().step_by(stride).cloned().collect();
    let subset: Vec<Fault> = picked.iter().map(|c| c.fault).collect();
    let scalar = classify_faults(design, &subset);
    let mismatches = picked.iter().zip(&scalar).filter(|(p, s)| p != s).count();
    if mismatches > 0 {
        problems.push(format!(
            "packed classification differs from scalar on {mismatches} of {} sampled faults",
            picked.len()
        ));
    }

    let vectors = fscan::alternating_vectors(design);
    let det = replay(design, &vectors, &affected);
    let found: HashSet<Fault> = affected
        .iter()
        .zip(&det)
        .filter_map(|(f, d)| d.map(|_| *f))
        .collect();
    let missing = claimed.iter().filter(|f| !found.contains(f)).count();
    if missing > 0 {
        problems.push(format!(
            "alternating sequence misses {missing} faults the stage reported detected"
        ));
    }
    Check {
        problems,
        detected: found.len(),
        affected: affected.len(),
    }
}

/// Compares the numbering-independent verdict fields of two reports of
/// one netlist: an incremental `/eco` answer against a cold run, or a
/// decoded JSON report against the report it was rendered from.
pub fn compare_verdicts(served: &PipelineReport, cold: &PipelineReport) -> Vec<String> {
    let fields = |r: &PipelineReport| {
        [
            ("total_faults", r.total_faults),
            ("classification.easy", r.classification.easy),
            ("classification.hard", r.classification.hard),
            ("alternating.detected", r.alternating.detected),
            ("comb.detected", r.comb.detected),
            ("seq.undetected", r.seq.undetected),
            ("undetected_faults", r.undetected_faults.len()),
            ("program.tests", r.program.tests().len()),
        ]
    };
    fields(served)
        .iter()
        .zip(fields(cold))
        .filter(|(a, b)| a.1 != b.1)
        .map(|(a, b)| format!("{}: served {} != cold {}", a.0, a.1, b.1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{suite_config, PAPER_SCALE};
    use fscan::{PipelineConfig, PipelineSession, ScanTest, TestProgram};
    use fscan_bench::PAPER_SUITE;
    use fscan_netlist::generate;
    use fscan_scan::{insert_functional_scan, TpiConfig};
    use std::sync::Arc;

    fn paper_design(name: &str, k: u64) -> Arc<ScanDesign> {
        let c = PAPER_SUITE.iter().find(|c| c.name == name).unwrap();
        let circuit = generate(&suite_config(c, PAPER_SCALE, c.seed + k));
        let tpi = TpiConfig {
            num_chains: c.chains,
            ..TpiConfig::default()
        };
        Arc::new(insert_functional_scan(&circuit, &tpi).unwrap())
    }

    fn run(design: &Arc<ScanDesign>) -> PipelineReport {
        PipelineSession::shared(Arc::clone(design), PipelineConfig::default()).run()
    }

    /// The two over-claims the seed is known to make: the check must fail
    /// them with the counts it was found with.
    #[test]
    fn flags_the_known_over_claims() {
        let _serial = crate::alloc::serial();
        for (name, k, claimed, delivered) in [("s9234", 2, 44, 43), ("s1423", 3, 28, 27)] {
            let design = paper_design(name, k);
            let report = run(&design);
            let check = check_report(&design, &report);
            assert_eq!(claimed_detections(&report), claimed, "{name}");
            assert_eq!(check.detected, delivered, "{name}");
            assert!(!check.passed(), "{name}: {check:?}");
        }
    }

    #[test]
    fn flags_a_program_with_one_test_removed() {
        let _serial = crate::alloc::serial();
        let design = paper_design("s9234", 0);
        let mut report = run(&design);
        assert!(check_report(&design, &report).passed());
        let tests: Vec<ScanTest> = report.program.tests().to_vec();
        assert!(
            tests.len() >= 2,
            "needs a test besides the alternating sequence"
        );
        let mut cut = TestProgram::new();
        for t in tests.into_iter().skip(1) {
            cut.push(t);
        }
        report.program = cut;
        let check = check_report(&design, &report);
        assert!(!check.passed(), "{check:?}");
    }
}
