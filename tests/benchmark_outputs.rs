//! Pins the flow's outputs on the benchmark's designs, and two savings
//! that must not change them.
//!
//! Every design the benchmark runs the flow on is built here the way it
//! builds them (see `common`) and run through all five stages with the
//! default configuration. Each design is hashed with `content_hash64`
//! over its verdict counts (classification, alternating, comb,
//! compaction, step 3), the comb stage's detection curve, the faults
//! left undetected and the emitted program's JSON, and the digest of
//! all 74 hashes is pinned. Work counters are left out: an engine change
//! may move them, but must keep this digest.

mod common;

use std::fmt::Write;
use std::sync::Arc;

use fscan::{
    alternating_vectors, compact_program, json, Category, CombPhase, PipelineConfig,
    PipelineReport, PipelineSession, ScanTest, TestProgram,
};
use fscan_fault::Fault;
use fscan_netlist::content_hash64;
use fscan_scan::{insert_functional_scan, ScanDesign, TpiConfig};

/// The digest of all 74 designs' outputs.
const DIGEST: u64 = 0xc0bdabd6abdfcc96;

fn config() -> PipelineConfig {
    PipelineConfig {
        threads: 1,
        ..PipelineConfig::default()
    }
}

fn design(bench: &common::BenchmarkDesign) -> Arc<ScanDesign> {
    let tpi = TpiConfig {
        num_chains: bench.chains,
    };
    Arc::new(insert_functional_scan(&bench.circuit(), &tpi).expect("scan insertion"))
}

/// The flow's report on one benchmark design.
fn run(bench: &common::BenchmarkDesign) -> PipelineReport {
    PipelineSession::shared(design(bench), config()).run()
}

fn hash(report: &PipelineReport) -> u64 {
    let (c, a, b, k, s) = (
        &report.classification,
        &report.alternating,
        &report.comb,
        &report.compact,
        &report.seq,
    );
    let text = format!(
        "{} {} {} {}\n{} {} {} {}\n{} {} {} {} {} {} {:?}\n{} {} {} {} {}\n{} {} {} {} {} {} {}\n{} {:?}\n{}",
        report.total_faults,
        c.total,
        c.easy,
        c.hard,
        a.targeted,
        a.detected,
        a.missed_easy,
        a.cycles,
        b.targeted,
        b.detected,
        b.undetectable,
        b.undetected,
        b.vectors,
        b.cycles,
        b.detection_curve,
        k.tests_before,
        k.tests_after,
        k.detected_before,
        k.detected_after,
        k.lost,
        s.targeted,
        s.detected,
        s.unconfirmed,
        s.undetectable,
        s.undetected,
        s.circuits_initial,
        s.circuits_final,
        report.rescued_easy,
        report.undetected_faults,
        json::program_to_value(&report.program).render_compact(),
    );
    content_hash64(text.as_bytes())
}

#[test]
fn outputs_are_pinned_on_every_benchmark_design() {
    let mut hashes = String::new();
    for bench in common::designs() {
        let report = run(&bench);
        let (name, seed) = (&report.name, bench.seed);
        writeln!(hashes, "{name} {seed:#x} {:#018x}", hash(&report)).unwrap();
    }
    assert_eq!(hashes.lines().count(), 74);
    let digest = content_hash64(hashes.as_bytes());
    assert_eq!(digest, DIGEST, "digest {digest:#018x} of:\n{hashes}");
}

/// A fault list that fits one packed word evaluates only the gates a
/// fault effect reaches. On s38417 at generator seed 0x38418 the comb
/// stage's random top-up simulates one fault that never shows an
/// effect against 2,048 good cycles; a static fault cone re-evaluated
/// 357,284 packed gates there.
#[test]
fn one_word_lists_evaluate_only_where_faults_reach() {
    let bench = common::designs()
        .into_iter()
        .find(|d| d.name == "s38417" && d.seed == 0x38418)
        .expect("a paper_suite design");
    let evals = run(&bench).comb.metrics.counters.kernel_gate_evals;
    assert!(evals * 10 <= 357_284, "comb kernel_gate_evals {evals}");
}

/// The compaction stage takes the alternating sequence's detections
/// from step 1 instead of simulating it again. On six of the designs,
/// its report and kept tests equal `compact_program`'s, which simulates
/// every test, on the program the stage assembles.
#[test]
fn compaction_stage_matches_compact_program() {
    for bench in common::designs().iter().step_by(13) {
        let design = design(bench);
        let classified = PipelineSession::shared(Arc::clone(&design), config()).classify();
        let of = |category: Option<Category>| -> Vec<Fault> {
            let pick = |c: Category| category.map_or(c != Category::Unaffected, |k| c == k);
            let faults = classified.classified.iter();
            faults
                .filter(|c| pick(c.category))
                .map(|c| c.fault)
                .collect()
        };
        let (affected, hard) = (of(None), of(Some(Category::Hard)));
        let after_alternating = classified.alternating();
        let hard: Vec<Fault> = hard
            .into_iter()
            .filter(|f| !after_alternating.detected().contains(f))
            .collect();
        let mut program = TestProgram::new();
        program.push(ScanTest::new("alternating", alternating_vectors(&design)));
        for test in CombPhase::new(&design, &config()).run(&hard).program {
            program.push(test);
        }
        let expected = compact_program(&design, &config(), program, &affected);
        let staged = after_alternating.comb().compact();
        let (a, b) = (staged.report(), &expected.report);
        let at = format!("{} {:#x}", bench.name, bench.seed);
        assert_eq!(staged.program(), &expected.program, "{at}");
        assert_eq!(
            (
                a.tests_before,
                a.tests_after,
                a.detected_before,
                a.detected_after,
                a.lost
            ),
            (
                b.tests_before,
                b.tests_after,
                b.detected_before,
                b.detected_after,
                b.lost
            ),
            "{at}"
        );
        let (a, b) = (&a.metrics.counters, &b.metrics.counters);
        assert_eq!(a.vectors_compacted, b.vectors_compacted, "{at}");
        assert!(a.gate_evals <= b.gate_evals, "{at}");
    }
}
