//! Criterion benchmarks that time the pieces behind each paper table.
//!
//! * Table 1 — suite construction (generation + TPI scan insertion).
//! * Table 2 — fault classification + the alternating sequence.
//! * Table 3 left — combinational ATPG + sequential fault simulation.
//! * Table 3 right — grouped sequential ATPG.
//!
//! The absolute numbers regenerate with `cargo run -p fscan-bench --bin
//! reproduce`; these benches track the cost of each phase on a fixed
//! mid-size suite circuit so regressions are visible.

use criterion::{criterion_group, criterion_main, Criterion};

use fscan::{
    classify_faults, AlternatingPhase, Category, ChainLocation, Classifier, CombPhase, DistParams,
    PipelineConfig, SeqPhase,
};
use fscan_atpg::{PodemConfig, SeqAtpgConfig};
use fscan_bench::{build_design, PAPER_SUITE};
use fscan_fault::{all_faults, collapse, Fault};

const SCALE: f64 = 0.08;

/// The comb stage's inputs: one thread and the default PODEM budget.
fn comb_config() -> PipelineConfig {
    PipelineConfig {
        podem: PodemConfig::default(),
        threads: 1,
        ..PipelineConfig::default()
    }
}

fn s5378() -> &'static fscan_bench::SuiteCircuit {
    PAPER_SUITE.iter().find(|c| c.name == "s5378").unwrap()
}

fn bench_table1_build(c: &mut Criterion) {
    c.bench_function("table1_generate_and_insert_scan", |b| {
        b.iter(|| build_design(s5378(), SCALE));
    });
}

fn bench_table2_classification(c: &mut Criterion) {
    let design = build_design(s5378(), SCALE);
    let faults = collapse(design.circuit(), &all_faults(design.circuit()));
    c.bench_function("table2_classify_all_faults", |b| {
        b.iter(|| {
            let mut cls = Classifier::<u64>::new_wide(&design);
            faults.iter().map(|&f| cls.classify(f)).count()
        });
    });
    let affected: Vec<Fault> = classify_faults(&design, &faults)
        .into_iter()
        .filter(|cf| cf.category != Category::Unaffected)
        .map(|cf| cf.fault)
        .collect();
    c.bench_function("table2_alternating_fault_sim", |b| {
        let phase = AlternatingPhase::new(&design);
        b.iter(|| phase.run(&affected));
    });
}

fn bench_table3_comb_phase(c: &mut Criterion) {
    let design = build_design(s5378(), SCALE);
    let faults = collapse(design.circuit(), &all_faults(design.circuit()));
    let hard: Vec<Fault> = classify_faults(&design, &faults)
        .into_iter()
        .filter(|cf| cf.category == Category::Hard)
        .map(|cf| cf.fault)
        .collect();
    let mut group = c.benchmark_group("table3_comb_phase");
    group.sample_size(10);
    group.bench_function("comb_atpg_plus_seq_fault_sim", |b| {
        let config = comb_config();
        let phase = CombPhase::new(&design, &config);
        b.iter(|| phase.run(&hard));
    });
    group.finish();
}

fn bench_table3_seq_phase(c: &mut Criterion) {
    let design = build_design(s5378(), SCALE);
    let faults = collapse(design.circuit(), &all_faults(design.circuit()));
    let classified = classify_faults(&design, &faults);
    let hard: Vec<Fault> = classified
        .iter()
        .filter(|cf| cf.category == Category::Hard)
        .map(|cf| cf.fault)
        .collect();
    let comb = CombPhase::new(&design, &comb_config()).run(&hard);
    let locs: Vec<Vec<ChainLocation>> = comb
        .remaining
        .iter()
        .map(|f| {
            classified
                .iter()
                .find(|cf| cf.fault == *f)
                .map(|cf| cf.locations.clone())
                .unwrap_or_default()
        })
        .collect();
    if comb.remaining.is_empty() {
        return;
    }
    let mut group = c.benchmark_group("table3_seq_phase");
    group.sample_size(10);
    group.bench_function("grouped_sequential_atpg", |b| {
        let frames = design.max_chain_len() + 4;
        let config = PipelineConfig {
            seq: SeqAtpgConfig {
                max_frames: frames,
                ..SeqAtpgConfig::default()
            },
            final_seq: SeqAtpgConfig {
                max_frames: frames + 4,
                backtrack_limit: 50_000,
                step_limit: 60_000,
            },
            dist: Some(DistParams::scaled(design.max_chain_len())),
            ..comb_config()
        };
        let phase = SeqPhase::new(&design, &config);
        b.iter(|| phase.run(&comb.remaining, &locs));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_table1_build,
    bench_table2_classification,
    bench_table3_comb_phase,
    bench_table3_seq_phase
);
criterion_main!(benches);
