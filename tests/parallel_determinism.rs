//! The work-sharded pipeline engine must be invisible in the results:
//! every report, every emitted test vector, and every work counter is
//! bit-identical whatever the worker count, and classification counts
//! cannot depend on the order faults arrive in.
//!
//! Pipeline runs are expensive, so each `(seed, threads)` configuration
//! runs exactly once (lazily, on first use) and every test reads from
//! the shared cache.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use fscan::{PipelineConfig, PipelineReport, PipelineSession};
use fscan_fault::{all_faults, collapse, Fault};
use fscan_netlist::{generate, GeneratorConfig};
use fscan_scan::{insert_functional_scan, ScanDesign, TpiConfig};

const SEEDS: [u64; 2] = [11, 29];
const THREADS: [usize; 3] = [1, 2, 4];

fn design_for_seed(seed: u64) -> Arc<ScanDesign> {
    let circuit = generate(
        &GeneratorConfig::new(format!("det{seed}"), seed)
            .inputs(10)
            .gates(180)
            .dffs(12),
    );
    Arc::new(insert_functional_scan(&circuit, &TpiConfig::default()).expect("scan insertion"))
}

fn run_with_threads(design: &Arc<ScanDesign>, threads: usize) -> PipelineReport {
    let config = PipelineConfig::builder()
        .threads(threads)
        .build()
        .expect("valid config");
    // Every thread count runs over the same `Arc`, so all of them share
    // the design's one compiled topology.
    PipelineSession::shared(Arc::clone(design), config).run()
}

/// One pipeline run per `(seed, threads)` pair, shared by every test in
/// this binary.
fn reports() -> &'static BTreeMap<(u64, usize), PipelineReport> {
    static REPORTS: OnceLock<BTreeMap<(u64, usize), PipelineReport>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        let mut map = BTreeMap::new();
        for seed in SEEDS {
            let design = design_for_seed(seed);
            for threads in THREADS {
                map.insert((seed, threads), run_with_threads(&design, threads));
            }
        }
        map
    })
}

/// Everything observable about a report except wall-clock times and the
/// worker distribution (which legitimately vary with the thread count).
fn assert_reports_identical(a: &PipelineReport, b: &PipelineReport) {
    assert_eq!(a.total_faults, b.total_faults);
    assert_eq!(a.classification.total, b.classification.total);
    assert_eq!(a.classification.easy, b.classification.easy);
    assert_eq!(a.classification.hard, b.classification.hard);
    assert_eq!(a.alternating.targeted, b.alternating.targeted);
    assert_eq!(a.alternating.detected, b.alternating.detected);
    assert_eq!(a.alternating.missed_easy, b.alternating.missed_easy);
    assert_eq!(a.alternating.cycles, b.alternating.cycles);
    assert_eq!(a.comb.targeted, b.comb.targeted);
    assert_eq!(a.comb.detected, b.comb.detected);
    assert_eq!(a.comb.undetectable, b.comb.undetectable);
    assert_eq!(a.comb.undetected, b.comb.undetected);
    assert_eq!(a.comb.vectors, b.comb.vectors);
    assert_eq!(a.comb.cycles, b.comb.cycles);
    assert_eq!(a.comb.detection_curve, b.comb.detection_curve);
    assert_eq!(a.seq.targeted, b.seq.targeted);
    assert_eq!(a.seq.detected, b.seq.detected);
    assert_eq!(a.seq.unconfirmed, b.seq.unconfirmed);
    assert_eq!(a.seq.undetectable, b.seq.undetectable);
    assert_eq!(a.seq.undetected, b.seq.undetected);
    assert_eq!(a.seq.circuits_initial, b.seq.circuits_initial);
    assert_eq!(a.seq.circuits_final, b.seq.circuits_final);
    assert_eq!(a.rescued_easy, b.rescued_easy);
    assert_eq!(a.undetected_faults, b.undetected_faults);

    // The emitted test program, down to every input vector of every
    // cycle of every scan test.
    assert_eq!(a.program.len(), b.program.len());
    for (ta, tb) in a.program.tests().iter().zip(b.program.tests()) {
        assert_eq!(ta.label, tb.label);
        assert_eq!(ta.vectors, tb.vectors);
    }
}

/// The tentpole guarantee: every thread count produces bit-identical
/// pipeline reports — counts, detection curve, and the full test
/// program — on two different generated circuits.
#[test]
fn reports_are_identical_across_thread_counts() {
    let reports = reports();
    for seed in SEEDS {
        let serial = &reports[&(seed, 1)];
        for threads in THREADS.into_iter().skip(1) {
            assert_reports_identical(serial, &reports[&(seed, threads)]);
        }
        // The sharded run really distributed the work.
        let parallel = &reports[&(seed, 4)];
        assert_eq!(parallel.classification.metrics.shards.threads, 4);
        assert_eq!(
            parallel.classification.metrics.shards.items(),
            parallel.classification.total
        );
    }
}

/// Work counters count *work items*, never time or scheduling, so every
/// single counter of every stage must be bit-identical for threads
/// ∈ {1, 2, 4} — the determinism contract behind `BENCH_pipeline.json`.
#[test]
fn work_counters_are_bit_identical_across_thread_counts() {
    let reports = reports();
    for seed in SEEDS {
        let serial = &reports[&(seed, 1)];
        // The pipeline did measurable work in the phases that always
        // run (step 2/3 work can legitimately be zero when nothing
        // reaches them).
        let total = serial.total_counters();
        assert!(total.implication_events > 0, "classification did no work");
        assert!(total.gate_evals > 0, "simulation did no work");
        assert!(total.lane_cycles > 0, "fault simulation did no work");
        assert!(total.podem_decisions > 0, "step 2 made no PODEM decisions");
        assert!(total.windows_formed > 0, "step 2 formed no windows");
        for threads in THREADS.into_iter().skip(1) {
            let parallel = &reports[&(seed, threads)];
            for ((stage_a, a), (stage_b, b)) in serial.stages().into_iter().zip(parallel.stages()) {
                assert_eq!(stage_a, stage_b);
                assert_eq!(
                    a.counters, b.counters,
                    "stage {stage_a} counters differ between threads 1 and {threads} (seed {seed})"
                );
            }
        }
    }
}

/// Deterministic in-place Fisher–Yates so the permutation itself cannot
/// depend on platform hash order.
fn permute(faults: &mut [Fault], seed: u64) {
    let mut state = seed.wrapping_mul(2).wrapping_add(1);
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in (1..faults.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        faults.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `ClassifySummary` counts are a function of the fault *set*, not
    /// of the order the faults are presented in.
    #[test]
    fn classification_counts_invariant_under_permutation(
        seed in 0u64..500,
        perm_seed in 0u64..1000,
    ) {
        let circuit = generate(
            &GeneratorConfig::new(format!("perm{seed}"), seed)
                .inputs(8)
                .gates(120)
                .dffs(10),
        );
        let design = Arc::new(
            insert_functional_scan(&circuit, &TpiConfig::default()).expect("scan insertion"),
        );
        let faults = collapse(design.circuit(), &all_faults(design.circuit()));
        let mut shuffled = faults.clone();
        permute(&mut shuffled, perm_seed);

        let config = PipelineConfig::builder().threads(2).build().expect("valid");
        let original = PipelineSession::shared_with_faults(Arc::clone(&design), config.clone(), faults)
            .classify()
            .summary();
        let permuted = PipelineSession::shared_with_faults(design, config, shuffled)
            .classify()
            .summary();
        prop_assert_eq!(original.total, permuted.total);
        prop_assert_eq!(original.easy, permuted.easy);
        prop_assert_eq!(original.hard, permuted.hard);
        // Counters, like counts, are a set property: the permuted run
        // must do exactly the same total work.
        prop_assert_eq!(original.metrics.counters, permuted.metrics.counters);
    }
}
