//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * implication-based classification vs brute-force fault simulation of
//!   the alternating sequence (the paper's screening step exists to
//!   avoid exactly that brute force);
//! * grouped step-3 circuits vs one circuit per fault (paper §5: "to
//!   minimize the number of times that sequential ATPG has to be run");
//! * 64-way bit-parallel fault simulation vs the serial reference.

use criterion::{criterion_group, criterion_main, Criterion};

use fscan::{
    alternating_vectors, classify_faults, Category, ChainLocation, Classifier, CombPhase,
    DistParams, PipelineConfig, SeqPhase,
};
use fscan_atpg::{PodemConfig, SeqAtpgConfig};
use fscan_bench::{build_design, PAPER_SUITE};
use fscan_fault::{all_faults, collapse, Fault};
use fscan_sim::{ParallelFaultSim, SeqSim, V3};

const SCALE: f64 = 0.08;

fn design() -> fscan_scan::ScanDesign {
    let c = PAPER_SUITE.iter().find(|c| c.name == "s5378").unwrap();
    build_design(c, SCALE)
}

/// Classification (implication cones) vs exhaustively fault-simulating
/// the alternating sequence over the whole fault universe to find the
/// chain-affecting faults.
fn ablation_classification(c: &mut Criterion) {
    let design = design();
    let faults = collapse(design.circuit(), &all_faults(design.circuit()));
    let mut group = c.benchmark_group("ablation_find_chain_faults");
    group.sample_size(10);
    group.bench_function("implication_classification", |b| {
        b.iter(|| {
            let mut cls = Classifier::<u64>::new_wide(&design);
            faults.iter().map(|&f| cls.classify(f)).count()
        });
    });
    group.bench_function("bruteforce_alternating_fault_sim", |b| {
        let vectors = alternating_vectors(&design);
        let init = vec![V3::X; design.circuit().dffs().len()];
        let sim = ParallelFaultSim::with_topology(design.topology());
        b.iter(|| sim.fault_sim(&vectors, &init, &faults));
    });
    group.finish();
}

/// Step-3 with the paper's grouping vs every fault getting its own
/// maximally-enhanced circuit (DIST parameters forcing singletons).
fn ablation_grouping(c: &mut Criterion) {
    let design = design();
    let faults = collapse(design.circuit(), &all_faults(design.circuit()));
    let classified = classify_faults(&design, &faults);
    let hard: Vec<Fault> = classified
        .iter()
        .filter(|cf| cf.category == Category::Hard)
        .map(|cf| cf.fault)
        .collect();
    // One thread and the default PODEM budget.
    let config = PipelineConfig {
        podem: PodemConfig::default(),
        threads: 1,
        ..PipelineConfig::default()
    };
    let comb = CombPhase::new(&design, &config).run(&hard);
    if comb.remaining.is_empty() {
        return;
    }
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
        ..config
    };
    let mut group = c.benchmark_group("ablation_step3_grouping");
    group.sample_size(10);
    group.bench_function("paper_grouping", |b| {
        let paper = PipelineConfig {
            dist: Some(DistParams::scaled(design.max_chain_len())),
            ..config.clone()
        };
        let phase = SeqPhase::new(&design, &paper);
        b.iter(|| phase.run(&comb.remaining, &locs));
    });
    group.bench_function("one_circuit_per_fault", |b| {
        // dist = 0 packs nothing; large = 0 routes every multi-location
        // fault to group 1 → singleton circuits throughout.
        let singletons = PipelineConfig {
            dist: Some(DistParams {
                large: 0,
                med: 0,
                dist: 0,
            }),
            ..config.clone()
        };
        let phase = SeqPhase::new(&design, &singletons);
        b.iter(|| phase.run(&comb.remaining, &locs));
    });
    group.finish();
}

/// Serial vs 64-way bit-parallel sequential fault simulation on the
/// alternating sequence.
fn ablation_parallel_fault_sim(c: &mut Criterion) {
    let design = design();
    let faults: Vec<Fault> = collapse(design.circuit(), &all_faults(design.circuit()))
        .into_iter()
        .take(256)
        .collect();
    let vectors = alternating_vectors(&design);
    let init = vec![V3::X; design.circuit().dffs().len()];
    let mut group = c.benchmark_group("ablation_fault_sim_bitparallel");
    group.sample_size(10);
    group.bench_function("parallel64", |b| {
        let sim = ParallelFaultSim::with_topology(design.topology());
        b.iter(|| sim.fault_sim(&vectors, &init, &faults));
    });
    group.bench_function("serial", |b| {
        let sim = SeqSim::new(design.circuit());
        b.iter(|| sim.fault_sim(&vectors, &init, &faults));
    });
    group.finish();
}

criterion_group!(
    benches,
    ablation_classification,
    ablation_grouping,
    ablation_parallel_fault_sim
);
criterion_main!(benches);
