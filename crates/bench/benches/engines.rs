//! Criterion benchmarks for the substrate engines: simulation, fault
//! simulation, implication, and the two ATPG engines. These are not
//! paper tables; they size the building blocks the paper's CPU columns
//! are made of.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use fscan_atpg::{Podem, PodemConfig, SeqAtpg, SeqAtpgConfig};
use fscan_fault::{all_faults, collapse};
use fscan_netlist::{generate, CompiledTopology, GeneratorConfig};
use fscan_sim::{CombEvaluator, ImplicationEngine, ParallelFaultSim, SeqSim, V3};
use std::sync::Arc;

fn bench_comb_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("comb_sim");
    for gates in [500usize, 2000] {
        let circuit = generate(&GeneratorConfig::new("b", 1).gates(gates).dffs(32));
        let eval = CombEvaluator::with_topology(CompiledTopology::shared(&circuit));
        let mut values = vec![V3::X; circuit.num_nodes()];
        for (i, &pi) in circuit.inputs().iter().enumerate() {
            values[pi.index()] = V3::from(i % 2 == 0);
        }
        group.bench_with_input(BenchmarkId::from_parameter(gates), &gates, |b, _| {
            b.iter(|| eval.eval(&mut values));
        });
    }
    group.finish();
}

fn bench_fault_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_sim_64_faults_32_cycles");
    let circuit = generate(&GeneratorConfig::new("b", 2).inputs(12).gates(800).dffs(24));
    let faults: Vec<_> = collapse(&circuit, &all_faults(&circuit))
        .into_iter()
        .take(64)
        .collect();
    let vectors: Vec<Vec<V3>> = (0..32)
        .map(|t| {
            (0..circuit.inputs().len())
                .map(|k| V3::from((t + k) % 3 == 0))
                .collect()
        })
        .collect();
    let init = vec![V3::X; circuit.dffs().len()];
    group.bench_function("serial", |b| {
        let sim = SeqSim::new(&circuit);
        b.iter(|| sim.fault_sim(&vectors, &init, &faults));
    });
    group.bench_function("parallel", |b| {
        let sim = ParallelFaultSim::with_topology(CompiledTopology::shared(&circuit));
        b.iter(|| sim.fault_sim(&vectors, &init, &faults));
    });
    group.finish();
}

fn bench_implication(c: &mut Criterion) {
    let circuit = generate(&GeneratorConfig::new("b", 3).gates(2000).dffs(64));
    let eval = CombEvaluator::with_topology(CompiledTopology::shared(&circuit));
    let mut good = vec![V3::X; circuit.num_nodes()];
    for (i, &pi) in circuit.inputs().iter().enumerate() {
        good[pi.index()] = V3::from(i % 2 == 0);
    }
    eval.eval(&mut good);
    let faults = collapse(&circuit, &all_faults(&circuit));
    c.bench_function("implication_cone_per_fault", |b| {
        let mut engine = ImplicationEngine::with_topology(Arc::clone(eval.topology()));
        let mut idx = 0usize;
        b.iter(|| {
            let f = faults[idx % faults.len()];
            idx += 1;
            engine.run(&good, f)
        });
    });
}

fn bench_podem(c: &mut Criterion) {
    let circuit = generate(&GeneratorConfig::new("b", 4).inputs(16).gates(1000).dffs(16));
    let faults = collapse(&circuit, &all_faults(&circuit));
    let controllable: Vec<_> = circuit
        .inputs()
        .iter()
        .chain(circuit.dffs().iter())
        .copied()
        .collect();
    let mut observable: Vec<_> = circuit.outputs().to_vec();
    observable.extend(circuit.dffs().iter().map(|&ff| circuit.node(ff).fanin()[0]));
    c.bench_function("podem_per_fault_fullscan_view", |b| {
        let podem = Podem::with_topology(
            CompiledTopology::shared(&circuit),
            controllable.clone(),
            vec![],
            observable.clone(),
        );
        let cfg = PodemConfig::default();
        let mut idx = 0usize;
        b.iter(|| {
            let f = faults[idx % faults.len()];
            idx += 1;
            podem.run(&[f], &cfg)
        });
    });
}

fn bench_seq_atpg(c: &mut Criterion) {
    let circuit = generate(&GeneratorConfig::new("b", 5).inputs(10).gates(300).dffs(10));
    let faults = collapse(&circuit, &all_faults(&circuit));
    c.bench_function("seq_atpg_4_frames", |b| {
        let atpg = SeqAtpg::with_topology(&circuit, CompiledTopology::shared(&circuit))
            .observable_ffs((0..10).collect());
        let cfg = SeqAtpgConfig {
            max_frames: 4,
            backtrack_limit: 2_000,
            step_limit: 10_000,
        };
        let mut idx = 0usize;
        b.iter(|| {
            let f = faults[idx % faults.len()];
            idx += 1;
            atpg.run(f, &cfg)
        });
    });
}

criterion_group!(
    benches,
    bench_comb_sim,
    bench_fault_sim,
    bench_implication,
    bench_podem,
    bench_seq_atpg
);
criterion_main!(benches);
