//! End-to-end and per-layer benchmark of the fscan flow.
//!
//! ```text
//! fscan-perfbench --workload paper_suite|screen_large|eco_serve|all
//!                 --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run sets its workload up from the seed, replays the workload's
//! whole operation list in the timed phase, checks every output after the
//! clock stops, and prints its metrics by name with units. The last line
//! of standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones, which come from spans recorded around every public
//! call the benchmark makes).

mod alloc;
mod batch;
mod check;
mod eco;
mod layers;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{metric, Metric};

#[global_allocator]
static ALLOC: alloc::PeakAlloc = alloc::PeakAlloc;

/// Complete set-ups timed per run; `setup_s` is their median. They are
/// spread over the run (see each workload), so that `setup_s` samples the
/// host's speed over the same span as the timed metrics.
pub const SETUP_SAMPLES: usize = 24;

pub const WORKLOADS: [&str; 3] = ["paper_suite", "screen_large", "eco_serve"];

/// Fisher-Yates shuffle driven by the workspace's seeded generator.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let usage = "usage: fscan-perfbench --workload paper_suite|screen_large|eco_serve|all --seed N --seconds S --trace 0|1";
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{usage}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed: not an integer: {value}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("--seconds: not a positive number: {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}\n{usage}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{usage}"))?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}\n{usage}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything one run measured.
#[derive(Default)]
pub struct Run {
    /// Median wall time of one complete set-up, over [`SETUP_SAMPLES`].
    pub setup_s: f64,
    /// Wall time of every timed operation, all passes.
    pub latencies_ms: Vec<f64>,
    /// Wall time of each pass of the timed phase over the operation list.
    pub pass_s: Vec<f64>,
    pub peak_bytes: u64,
    /// Summed length of the emitted stimulus over one pass.
    pub test_cycles: usize,
    /// Chain-affecting faults the re-simulated stimulus detects, and all
    /// chain-affecting faults, over one pass.
    pub detected: usize,
    pub affected: usize,
    pub attempted: usize,
    pub failed: usize,
    /// Every operation completed, every output was checked and every
    /// repeated pass reproduced the first pass's outputs.
    pub correct: bool,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Human-readable lines: property shares, failures, tracing overhead.
    pub notes: Vec<String>,
}

impl Run {
    pub fn end_to_end(&self) -> Vec<Metric> {
        let tail = stats::tail_percentile(self.latencies_ms.len());
        let ok = self.attempted - self.failed;
        vec![
            metric("setup_s", "s", self.setup_s),
            metric("latency_p50_ms", "ms", stats::median(&self.latencies_ms)),
            metric(
                "latency_tail_ms",
                "ms",
                stats::percentile(&self.latencies_ms, tail as f64),
            ),
            metric(
                "throughput_per_s",
                "1/s",
                (self.latencies_ms.len() / self.pass_s.len()) as f64 / stats::median(&self.pass_s),
            ),
            metric("peak_mb", "MB", self.peak_bytes as f64 / 1e6),
            metric("test_cycles", "cycles", self.test_cycles as f64),
            metric(
                "chain_coverage_pct",
                "%",
                100.0 * self.detected as f64 / self.affected.max(1) as f64,
            ),
            metric(
                "passed_pct",
                "%",
                100.0 * ok as f64 / self.attempted.max(1) as f64,
            ),
        ]
    }
}

/// Runs `set_up` `repeats` times, checks through `inputs` that every
/// repetition built the same inputs, and returns the last one with the
/// wall time of each complete set-up.
pub fn repeat_setup<T, K: PartialEq + ?Sized>(
    repeats: usize,
    mut set_up: impl FnMut() -> Result<T, String>,
    inputs: impl Fn(&T) -> &K,
) -> Result<(T, Vec<f64>, bool), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut last: Option<T> = None;
    let mut same = true;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let built = set_up()?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(prev) = &last {
            same &= inputs(prev) == inputs(&built);
        }
        last = Some(built);
    }
    Ok((last.expect("at least one set-up"), times, same))
}

fn run_workload(workload: &str, args: &Args) -> Result<Run, String> {
    match workload {
        "paper_suite" => Ok(batch::run(args.seed, args.seconds, args.trace, true)),
        "screen_large" => Ok(batch::run(args.seed, args.seconds, args.trace, false)),
        "eco_serve" => eco::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other}")),
    }
}

fn report(workload: &str, run: &Run, trace: bool) -> String {
    let e2e = run.end_to_end();
    let tail = stats::tail_percentile(run.latencies_ms.len());
    let label = if trace { "traced " } else { "" };
    println!(
        "== {workload}: {} operations ({} failed), tail = p{tail} of {} samples",
        run.attempted,
        run.failed,
        run.latencies_ms.len()
    );
    for m in &e2e {
        println!("{label}{:<22} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let failed_pct = 100.0 * run.failed as f64 / run.attempted.max(1) as f64;
    println!("{label}{:<22} {:>14.4} %", "failed_pct", failed_pct);
    println!(
        "coverage: {} of {} chain-affecting faults detected over one pass",
        run.detected, run.affected
    );
    for note in &run.notes {
        println!("{note}");
    }
    for m in &run.layers {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let metrics = if trace { &run.layers } else { &e2e };
    stats::result_line(run.correct, run.attempted, run.failed, metrics)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--serve") {
        return eco::serve_child();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut last = String::new();
    for w in workloads {
        match run_workload(w, &args) {
            Ok(run) => last = report(w, &run, args.trace),
            Err(e) => {
                eprintln!("{w}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if args.workload == "all" {
            println!("{last}");
        }
    }
    if args.workload != "all" {
        println!("{last}");
    }
    ExitCode::SUCCESS
}
