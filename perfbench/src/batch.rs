//! The batch workloads, `paper_suite` and `screen_large`: one client, closed
//! loop, one design per operation, from `.bench` text in memory to the
//! emitted program and JSON report (or to the step-1 checkpoint).

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use fscan::{
    json, AlternatingReport, ClassifySummary, PipelineConfig, PipelineReport, PipelineSession,
};
use fscan_bench::{SuiteCircuit, PAPER_SUITE};
use fscan_fault::{all_faults, collapse, Fault};
use fscan_netlist::{content_hash64, generate, parse_bench, write_bench, GeneratorConfig};
use fscan_scan::{insert_functional_scan, ScanDesign, TpiConfig};
use fscan_sim::StageMetrics;

use crate::check::{self, Check};
use crate::layers::{overhead_note, write_spans, Layers};
use crate::trace::Tracer;
use crate::{alloc, shuffle, Run, SETUP_SAMPLES};

/// One operation's input: a named netlist, its generator seed and its
/// scan chain count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    pub name: String,
    pub seed: u64,
    pub chains: usize,
    pub text: String,
}

/// `paper_suite` runs the twelve Table-1 types at this scale...
pub const PAPER_SCALE: f64 = 0.03;
/// ...with the generator seeds `type seed + k` for `k` below this.
pub const PAPER_SEEDS_PER_TYPE: u64 = 6;

/// `screen_large` designs: the stress tier's generator shape at this size.
pub const SCREEN_GATES: usize = 10_000;
pub const SCREEN_INPUTS: usize = 64;
pub const SCREEN_CHAINS: usize = 8;
pub const SCREEN_DESIGNS: usize = 4;
/// Faults per design on which packed classification is compared with
/// the scalar classifier.
pub const SCREEN_CHECK_SAMPLE: usize = 64;

/// The batch workloads run the default configuration on one worker
/// thread. Reports are identical for every thread count; on the 2-vCPU
/// reference host, two workers made the ~6 ms median `paper_suite`
/// operation read anywhere from 5.7 to 12.2 ms across runs, because every
/// sharded stage call spawns and joins its threads.
pub const BATCH_THREADS: usize = 1;

/// `fscan_bench::scaled_config` with a chosen generator seed.
pub fn suite_config(c: &SuiteCircuit, scale: f64, seed: u64) -> GeneratorConfig {
    let gates = ((c.gates as f64 * scale) as usize).max(40);
    let dffs = ((c.dffs as f64 * scale) as usize).max(c.chains.max(4));
    GeneratorConfig::new(c.name, seed)
        .inputs(c.inputs.max(8))
        .gates(gates)
        .dffs(dffs)
}

/// The paper's circuit mix: every Table-1 type at generator seeds
/// `type seed + 0 .. PAPER_SEEDS_PER_TYPE`, the same designs for every
/// benchmark seed; the benchmark seed sets the order they run in.
pub fn paper_suite_jobs(seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for c in &PAPER_SUITE {
        for k in 0..PAPER_SEEDS_PER_TYPE {
            let circuit = generate(&suite_config(c, PAPER_SCALE, c.seed + k));
            jobs.push(Job {
                name: c.name.to_string(),
                seed: c.seed + k,
                chains: c.chains,
                text: write_bench(&circuit),
            });
        }
    }
    shuffle(&mut jobs, seed);
    jobs
}

/// `SCREEN_DESIGNS` stress-shaped designs at the stress tier's generator
/// seed `0x57e55 + i`, the same for every benchmark seed; the benchmark
/// seed sets the order they run in.
pub fn screen_large_jobs(seed: u64) -> Vec<Job> {
    let mut jobs: Vec<Job> = (0..SCREEN_DESIGNS)
        .map(|i| {
            let seed = 0x57e55 + i as u64;
            let config = GeneratorConfig::new(format!("screen{i}"), seed)
                .inputs(SCREEN_INPUTS)
                .gates(SCREEN_GATES)
                .dffs(SCREEN_GATES / 50);
            Job {
                name: format!("screen{i}"),
                seed,
                chains: SCREEN_CHAINS,
                text: write_bench(&generate(&config)),
            }
        })
        .collect();
    shuffle(&mut jobs, seed);
    jobs
}

/// What an operation produced, kept for the output check. The design is
/// not kept: the check derives it again from the job.
pub enum Output {
    /// The report and the JSON rendering of it the operation emitted.
    Full(Box<(PipelineReport, String)>),
    Screen(Box<Screened>),
}

/// What a step-1 screen produced.
pub struct Screened {
    pub summary: ClassifySummary,
    pub alternating: AlternatingReport,
    pub detected: HashSet<Fault>,
}

impl Output {
    /// The stage metrics this operation booked, by stage name.
    pub fn stages(&self) -> Vec<(&'static str, &StageMetrics)> {
        match self {
            Output::Full(full) => full.0.stages().to_vec(),
            Output::Screen(s) => vec![
                ("classify", &s.summary.metrics),
                ("alternating", &s.alternating.metrics),
            ],
        }
    }

    /// A digest of every deterministic output: verdict counts, work
    /// counters and the emitted stimulus.
    pub fn digest(&self) -> u64 {
        let text = match self {
            Output::Full(full) => format!(
                "{:?}|{:?}|{}|{}|{}|{}",
                full.0.total_counters(),
                full.0.classification.affected(),
                full.0.alternating.detected,
                full.0.comb.detected,
                full.0.seq.undetected,
                json::program_to_value(&full.0.program).render_compact(),
            ),
            Output::Screen(s) => format!(
                "{:?}|{:?}|{}|{}|{}",
                s.summary.metrics.counters,
                s.alternating.metrics.counters,
                s.summary.easy,
                s.summary.hard,
                s.alternating.detected,
            ),
        };
        content_hash64(text.as_bytes())
    }

    /// Simulated tester cycles of the emitted stimulus.
    pub fn test_cycles(&self) -> usize {
        match self {
            Output::Full(full) => full.0.program.total_cycles(),
            Output::Screen(s) => s.alternating.cycles,
        }
    }

    /// Checks this output against the design `job` describes.
    pub fn check(&self, job: &Job) -> Check {
        let design = match ingest(&job.name, job.chains, &job.text) {
            Ok(d) => d,
            Err(e) => {
                return Check {
                    problems: vec![e],
                    ..Check::default()
                }
            }
        };
        match self {
            Output::Full(full) => {
                let (report, text) = &**full;
                let mut check = check::check_report(&design, report);
                match json::report_from_json(text) {
                    Ok(decoded) => check
                        .problems
                        .extend(check::compare_verdicts(&decoded, report)),
                    Err(e) => check
                        .problems
                        .push(format!("JSON report does not decode: {e}")),
                }
                check
            }
            Output::Screen(s) => {
                let faults = collapse(design.circuit(), &all_faults(design.circuit()));
                check::check_screen(
                    &design,
                    &faults,
                    &s.summary,
                    &s.alternating,
                    &s.detected,
                    SCREEN_CHECK_SAMPLE,
                )
            }
        }
    }
}

/// Parses a netlist and inserts functional scan, untimed.
pub fn ingest(name: &str, chains: usize, text: &str) -> Result<ScanDesign, String> {
    let circuit = parse_bench(text, name).map_err(|e| format!("parse: {e}"))?;
    let tpi = TpiConfig {
        num_chains: chains,
        ..TpiConfig::default()
    };
    insert_functional_scan(&circuit, &tpi).map_err(|e| format!("scan insertion: {e}"))
}

/// One timed operation: `.bench` text to report, each public call in its
/// own span. `full` runs all five stages and renders the JSON report;
/// otherwise the operation stops at the step-1 checkpoint.
pub fn run_op(
    job: &Job,
    full: bool,
    tracer: &mut Tracer,
    op: usize,
    heap: &alloc::Window,
    ingest_rise: &mut u64,
) -> Result<Output, String> {
    tracer.begin("op", op);
    let out = run_stages(job, full, tracer, op, heap, ingest_rise);
    tracer.end();
    out
}

fn run_stages(
    job: &Job,
    full: bool,
    tracer: &mut Tracer,
    op: usize,
    heap: &alloc::Window,
    ingest_rise: &mut u64,
) -> Result<Output, String> {
    let circuit = tracer
        .span("netlist.parse", op, || parse_bench(&job.text, &job.name))
        .map_err(|e| format!("parse: {e}"))?;
    let tpi = TpiConfig {
        num_chains: job.chains,
        ..TpiConfig::default()
    };
    let design = tracer
        .span("scan.tpi", op, || insert_functional_scan(&circuit, &tpi))
        .map_err(|e| format!("scan insertion: {e}"))?;
    let design = Arc::new(design);
    let config = PipelineConfig {
        threads: BATCH_THREADS,
        ..PipelineConfig::default()
    };
    let session = tracer.span("fault.collapse", op, || {
        PipelineSession::shared(Arc::clone(&design), config)
    });
    *ingest_rise = heap.rise();
    let classified = tracer.span("classify", op, || session.classify());
    let summary = classified.summary();
    let after = tracer.span("alternating", op, || classified.alternating());
    if !full {
        return Ok(Output::Screen(Box::new(Screened {
            summary,
            alternating: after.report().clone(),
            detected: after.detected().clone(),
        })));
    }
    let comb = tracer.span("comb_phase", op, || after.comb());
    let compact = tracer.span("compact", op, || comb.compact());
    let mut report = tracer.span("seq_phase", op, || compact.seq());
    let text = tracer.span("json", op, || json::report_to_json(&report));
    // The carried ECO state is not part of the output, and the check
    // keeps the first pass's outputs.
    report.carry = None;
    Ok(Output::Full(Box::new((report, text))))
}

/// Wall time of one pass on the 2-vCPU reference host; `--seconds` is
/// turned into a whole number of passes with it, so every run with the
/// same arguments does identical work.
pub const PAPER_PASS_S: f64 = 10.0;
pub const SCREEN_PASS_S: f64 = 9.0;

/// Runs `paper_suite` (`full`) or `screen_large`.
///
/// The first complete set-up builds the inputs; `SETUP_SAMPLES` more are
/// timed between operations, evenly over the timed phase and outside its
/// clocks, each one checked to rebuild the same inputs.
pub fn run(seed: u64, seconds: f64, traced: bool, full: bool) -> Run {
    let workload = if full { "paper_suite" } else { "screen_large" };
    let make = if full {
        paper_suite_jobs
    } else {
        screen_large_jobs
    };
    let t = Instant::now();
    let jobs = make(seed);
    let mut setup_times = vec![t.elapsed().as_secs_f64()];
    let mut same_inputs = true;
    let nominal_s = if full { PAPER_PASS_S } else { SCREEN_PASS_S };
    let passes = ((seconds / nominal_s).round() as usize).max(1);
    let n = jobs.len();
    let setup_every = (passes * n / SETUP_SAMPLES).max(1);

    let mut tracer = Tracer::new(traced, Instant::now());
    let mut first: Vec<Result<Output, String>> = Vec::with_capacity(n);
    let mut digests: Vec<Option<u64>> = Vec::with_capacity(n);
    let mut reproduced = true;
    let mut latencies_ms = Vec::with_capacity(passes * n);
    let mut ingest_rise = 0u64;
    let mut meter = alloc::PeakMeter::start();
    let mut pass_s = Vec::with_capacity(passes);
    for pass in 0..passes {
        let start = Instant::now();
        let mut paused_s = 0.0;
        for (i, job) in jobs.iter().enumerate() {
            let op = pass * n + i;
            if op % setup_every == setup_every - 1 {
                let paused = Instant::now();
                let again = make(seed);
                setup_times.push(paused.elapsed().as_secs_f64());
                same_inputs &= again == jobs;
                drop(again);
                paused_s += paused.elapsed().as_secs_f64();
            }
            let heap = alloc::Window::open();
            let mut op_ingest = 0;
            let t = Instant::now();
            let output = run_op(job, full, &mut tracer, op, &heap, &mut op_ingest);
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            meter.close(&heap);
            ingest_rise = ingest_rise.max(op_ingest);
            let digest = output.as_ref().ok().map(Output::digest);
            if pass == 0 {
                digests.push(digest);
                first.push(output);
            } else {
                reproduced &= digest.is_some() && digests[i] == digest;
            }
        }
        pass_s.push(start.elapsed().as_secs_f64() - paused_s);
    }
    let timed_s: f64 = pass_s.iter().sum();
    let checked = Instant::now();

    let setup_s = crate::stats::median(&setup_times);
    let mut run = Run {
        setup_s,
        pass_s,
        peak_bytes: meter.peak_bytes(),
        attempted: passes * n,
        ..Run::default()
    };
    let mut layers = Layers {
        pass_ops: n,
        ingest_rise,
        ..Layers::default()
    };
    let mut completed = true;
    for (job, output) in jobs.iter().zip(&first) {
        let problems = match output {
            Ok(out) => {
                let check = out.check(job);
                run.detected += check.detected;
                run.affected += check.affected;
                run.test_cycles += out.test_cycles();
                match out {
                    Output::Full(full) => layers.add_report(&full.0),
                    Output::Screen(_) => layers.add_stages(&out.stages()),
                }
                check.problems
            }
            Err(e) => {
                completed = false;
                vec![e.clone()]
            }
        };
        if !problems.is_empty() {
            run.failed += passes;
            run.notes.push(format!(
                "failed: {} (generator seed {:#x}): {}",
                job.name,
                job.seed,
                problems.join("; ")
            ));
        }
    }
    run.correct = completed && same_inputs && reproduced;
    eprintln!(
        "{workload}: set-up {setup_s:.4} s (median of {}), {passes} pass(es) of {n} in {timed_s:.3} s, check {:.3} s",
        setup_times.len(),
        checked.elapsed().as_secs_f64()
    );
    if full {
        run.notes.push(format!(
            "share: {} of {n} designs reach step 3 ({:.4})",
            layers.reach_ops,
            layers.reach_ops as f64 / n as f64
        ));
    }
    run.latencies_ms = latencies_ms;
    if traced {
        layers.absorb_trace(&tracer, passes * n);
        let p50 = crate::stats::median(&run.latencies_ms);
        run.notes.push(overhead_note(&tracer, passes * n, p50));
        run.notes.push(write_spans(&tracer, workload, seed));
        run.layers = layers.metrics();
    }
    run
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::stats::Metric;

    #[test]
    fn same_seed_same_operation_lists() {
        assert_eq!(paper_suite_jobs(7), paper_suite_jobs(7));
        assert_eq!(screen_large_jobs(7), screen_large_jobs(7));
        let order = |jobs: Vec<Job>| jobs.into_iter().map(|j| j.text).collect::<Vec<_>>();
        let (a, b) = (order(paper_suite_jobs(7)), order(paper_suite_jobs(8)));
        assert_ne!(a, b, "the seed sets the order");
        let (mut a, mut b) = (a, b);
        a.sort();
        b.sort();
        assert_eq!(a, b, "every seed runs the same designs");
    }

    /// Everything but wall time and allocator-observed memory repeats
    /// exactly from one run to the next.
    pub fn deterministic(run: &Run) -> Vec<(&'static str, f64)> {
        let keep = |m: &Metric| !matches!(m.unit, "ms" | "s" | "1/s" | "MB");
        run.end_to_end()
            .iter()
            .chain(&run.layers)
            .filter(|m| keep(m))
            .map(|m| (m.name, m.value))
            .chain([
                ("failed", run.failed as f64),
                ("attempted", run.attempted as f64),
            ])
            .collect()
    }

    #[test]
    fn paper_suite_counts_repeat_exactly() {
        let _serial = alloc::serial();
        let a = run(3, 1.0, true, true);
        let b = run(4, 1.0, true, true);
        assert!(a.correct && b.correct);
        assert_eq!(deterministic(&a), deterministic(&b));
        assert!(a.failed > 0, "the known over-claims count as failures");
    }

    #[test]
    fn screen_large_counts_repeat_exactly() {
        let _serial = alloc::serial();
        let a = run(3, 1.0, true, false);
        let b = run(3, 1.0, true, false);
        assert!(a.correct && b.correct);
        assert_eq!(deterministic(&a), deterministic(&b));
    }
}
