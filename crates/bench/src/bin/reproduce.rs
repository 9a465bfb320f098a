//! Regenerates every table and figure of the DATE'98 paper.
//!
//! Usage:
//!
//! ```text
//! reproduce [table1|table2|table3|figure5|timing|all] [--scale F] [--only NAME] [--threads N] [--lanes 64|256] [--json [PATH]]
//! reproduce stress [--gates N] [--fault-sample N] [--chains N] [--seed S] [--threads N] [--lanes 64|256] [--json [PATH]]
//! reproduce eco [--scale F] [--only NAME] [--threads N] [--lanes 64|256] [--json [PATH]]
//! reproduce history [PATH] [--limit N]
//! reproduce check-baseline BASELINE.json CURRENT.json [--tolerance PCT]
//! ```
//!
//! `--scale` shrinks every suite circuit proportionally (default 0.125,
//! which runs the whole suite in minutes; 1.0 builds paper-sized
//! circuits). `--only` restricts the run to one circuit. `--threads`
//! sets the worker count for the fault-parallel stages (default 0 =
//! one per hardware thread); reports are identical for every value.
//! `--lanes` selects the packed rail width (default 256, the pipeline
//! default; 64 reproduces the single-word kernel) — verdicts are
//! identical at both widths, only the work counters move. `timing`
//! prints the per-stage wall-clock and worker-distribution table.
//! `--json` additionally writes `BENCH_pipeline.json` (or `PATH`):
//! per-circuit, per-stage deterministic work counters plus wall-clock.
//! Every counter is bit-identical across thread counts, so stripping
//! the `wall_s` lines yields thread-invariant output.
//!
//! `stress` runs the scale-rail tier: one synthetic circuit at 10⁵–10⁶
//! gates (default 100k) through the full five-stage pipeline, with the
//! fault universe sampled (`--fault-sample`, default 2048) so ATPG cost
//! stays bounded while every arena is full-size. The per-stage memory
//! accounting — allocator-observed peaks (this binary installs the
//! tracking allocator), deterministic arena footprints and the cone
//! histogram — is printed and, with `--json`, written as a regular
//! `bench_json` snapshot (default `BENCH_stress.json`) that
//! `check-baseline` can gate on.
//!
//! `eco` runs the committed incremental-ECO scenario: a cold base run
//! of one suite circuit, a spare-cell island appended as a
//! [`fscan_netlist::NetlistDelta`], and an incremental rerun that
//! carries every prior verdict forward. It prints the reuse split
//! (`verdicts_reused` / `cones_invalidated`) and the rerun's
//! `gate_evals` as a percentage of the cold run's; `--json` snapshots
//! the rerun for the `check-baseline` ECO gates.
//!
//! `history` renders `BENCH_history.jsonl` (or `PATH`) as the per-PR
//! trajectory table: one row per appended record, headline counters
//! summed across that record's circuits; `--limit N` keeps only the
//! newest `N` rows.
//!
//! `check-baseline` compares the per-circuit total `gate_evals` of a
//! fresh snapshot against a committed baseline and fails if any circuit
//! regressed beyond the tolerance (default 5%); the structural
//! `topology_builds` counter must additionally match the baseline
//! exactly (one compilation per pipeline run). Optional gates guard the
//! fault-parallel fast paths: `--min-faults-dropped N` requires the
//! fresh snapshot's summed `faults_dropped` to reach `N` (global fault
//! dropping actually firing); `--comb-reference REF.json
//! [--min-comb-speedup R]` requires every circuit's *comb-stage*
//! `gate_evals` to sit at least `R`× (default 2×) below the committed
//! pre-optimization reference snapshot; `--wide-reference REF.json
//! [--min-classify-speedup R]` requires the *classify-stage*
//! `gate_evals` to sit at least `R`× (default 1.5×) below the committed
//! 64-lane reference snapshot and its `implication_words` at least 2×
//! below — the wide-rail win in work items, not wall-clock;
//! `--min-verdicts-reused N` requires the snapshot's summed
//! `verdicts_reused` to reach `N` (an ECO snapshot that stopped
//! carrying verdicts forward fails even if it stayed cheap);
//! `--eco-reference REF.json [--min-eco-speedup R]` requires every
//! circuit's *total* `gate_evals` to sit at least `R`× (default 4×,
//! i.e. ≤ 25% of cold) below the committed cold-run reference.
//! `--history PATH` appends a one-line JSON record (git revision, rail width,
//! every circuit's total counters) to `PATH` after a passing check,
//! building the committed per-PR counter trace `BENCH_history.jsonl`.
//! When both snapshots carry `total_mem` blocks, the memory gates ride
//! along automatically: `arena_bytes` and the cone totals must match
//! exactly (they are deterministic), and the allocator-observed
//! `peak_bytes` must stay within `--max-peak-factor` (default 2×) of
//! the baseline; snapshots from before the memory accounting simply
//! skip these gates.

use std::env;
use std::process::ExitCode;

use fscan::{LaneWidth, PipelineConfig, PipelineReport};
use fscan_bench::tables::{run_pipeline_with, table2, table3};
use fscan_bench::{bench_json, figure5, run_stress, table1, StressConfig, PAPER_SUITE};

/// Count every allocation of the run so the `peak_bytes` / `reallocs`
/// columns of the per-stage memory accounting carry real figures. The
/// library crates stay allocator-agnostic (and `forbid(unsafe_code)`);
/// installing the tracker is the binary's decision.
#[global_allocator]
static ALLOC: fscan_alloctrack::TrackingAlloc = fscan_alloctrack::TrackingAlloc;

struct Options {
    what: String,
    scale: f64,
    only: Option<String>,
    threads: usize,
    lanes: LaneWidth,
    json: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut what = "all".to_string();
    let mut scale = 0.125;
    let mut only = None;
    let mut threads = 0usize;
    let mut lanes = LaneWidth::default();
    let mut json = None;
    let mut args = env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "table1" | "table2" | "table3" | "figure5" | "timing" | "all" => what = arg,
            "--scale" => {
                let v = args.next().ok_or("--scale needs a value")?;
                scale = v.parse().map_err(|_| format!("bad scale '{v}'"))?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err("scale must be in (0, 1]".into());
                }
            }
            "--only" => only = Some(args.next().ok_or("--only needs a circuit name")?),
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                threads = v.parse().map_err(|_| format!("bad thread count '{v}'"))?;
            }
            "--lanes" => {
                let v = args.next().ok_or("--lanes needs a value (64 or 256)")?;
                lanes = v.parse::<LaneWidth>().map_err(|e| e.to_string())?;
            }
            "--json" => {
                // Optional path operand; defaults to BENCH_pipeline.json.
                json = Some(match args.peek() {
                    Some(next) if !next.starts_with("--") && !is_what(next) => args.next().unwrap(),
                    _ => "BENCH_pipeline.json".to_string(),
                });
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Options {
        what,
        scale,
        only,
        threads,
        lanes,
        json,
    })
}

fn is_what(s: &str) -> bool {
    matches!(
        s,
        "table1" | "table2" | "table3" | "figure5" | "timing" | "all"
    )
}

fn selected(only: &Option<String>) -> Vec<&'static fscan_bench::SuiteCircuit> {
    PAPER_SUITE
        .iter()
        .filter(|c| only.as_deref().is_none_or(|n| n == c.name))
        .collect()
}

fn print_table1(opts: &Options) {
    println!(
        "Table 1: Test suite (synthetic substitutes at scale {}).",
        opts.scale
    );
    println!(
        "{:<10} {:>7} {:>6} {:>8} {:>7}",
        "name", "#gates", "#FFs", "#faults", "#chains"
    );
    let mut gates = 0;
    let mut ffs = 0;
    let mut faults = 0;
    let mut chains = 0;
    for c in selected(&opts.only) {
        let row = table1(c, opts.scale);
        println!("{row}");
        gates += row.gates;
        ffs += row.ffs;
        faults += row.faults;
        chains += row.chains;
    }
    println!(
        "{:<10} {gates:>7} {ffs:>6} {faults:>8} {chains:>7}",
        "total"
    );
}

fn pipeline_reports(opts: &Options) -> Vec<PipelineReport> {
    let config = PipelineConfig::builder()
        .threads(opts.threads)
        .lane_width(opts.lanes)
        .build()
        .expect("default budgets are valid");
    selected(&opts.only)
        .into_iter()
        .map(|c| {
            eprintln!(
                "running pipeline on {} (scale {}, threads {}, {})...",
                c.name,
                opts.scale,
                if opts.threads == 0 {
                    "auto".to_string()
                } else {
                    opts.threads.to_string()
                },
                opts.lanes
            );
            run_pipeline_with(c, opts.scale, config.clone())
        })
        .collect()
}

fn print_timing(reports: &[PipelineReport]) {
    println!("\nTiming: per-stage wall-clock and worker fault counts.");
    println!(
        "{:<10} {:<12} {:>9} {:>8} {:>8}  per-worker",
        "name", "stage", "wall", "threads", "items"
    );
    for r in reports {
        let mut total = 0.0;
        for (stage, m) in r.stages() {
            total += m.cpu.as_secs_f64();
            let counts = m
                .shards
                .per_worker
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(" ");
            println!(
                "{:<10} {:<12} {:>8.2}s {:>8} {:>8}  [{}]",
                r.name,
                stage,
                m.cpu.as_secs_f64(),
                m.shards.threads,
                m.shards.items(),
                counts
            );
        }
        println!("{:<10} {:<12} {total:>8.2}s", r.name, "total");
    }
}

fn print_table2(reports: &[PipelineReport]) {
    println!("\nTable 2: Finding easy and hard faults.");
    println!(
        "{:<10} {:>15} {:>14} {:>9}",
        "name", "#easy (%)", "#hard (%)", "CPU"
    );
    let mut easy = 0;
    let mut hard = 0;
    let mut total = 0;
    let mut cpu = 0.0;
    for r in reports {
        let row = table2(r);
        println!("{row}");
        easy += row.easy;
        hard += row.hard;
        total += row.total;
        cpu += row.cpu.as_secs_f64();
    }
    println!(
        "{:<10} {:>7} ({:>4.1}%) {:>6} ({:>4.1}%) {:>8.2}s",
        "total",
        easy,
        100.0 * easy as f64 / total.max(1) as f64,
        hard,
        100.0 * hard as f64 / total.max(1) as f64,
        cpu
    );
    println!(
        "affected = {:.1}% of all faults; hard = {:.1}% (paper: 24.8% and 3.2%)",
        100.0 * (easy + hard) as f64 / total.max(1) as f64,
        100.0 * hard as f64 / total.max(1) as f64
    );
}

fn print_table3(reports: &[PipelineReport]) {
    println!("\nTable 3: Detecting the faults in f_hard.");
    println!(
        "{:<10} | comb: #det #undetectable #undet CPU | seq: #circ #det #undetectable #undet CPU",
        "name"
    );
    let mut tot = Table3Totals::default();
    for r in reports {
        let row = table3(r);
        println!("{row}");
        tot.add(&row);
    }
    println!(
        "{:<10} {:>6} {:>6} {:>6} {:>8.2}s {:>9} {:>5} {:>5} {:>5} {:>8.2}s",
        "total",
        tot.comb_det,
        tot.comb_undetectable,
        tot.comb_undetected,
        tot.comb_cpu,
        format!("{},{}", tot.circ_initial, tot.circ_final),
        tot.seq_det,
        tot.seq_undetectable,
        tot.seq_undetected,
        tot.seq_cpu
    );
    let total_faults: usize = reports.iter().map(|r| r.total_faults).sum();
    let affected: usize = reports.iter().map(|r| r.classification.affected()).sum();
    println!(
        "after step 2: undetected = {:.3}% of all faults, {:.3}% of chain-affecting (paper: 0.159% / 0.642%)",
        100.0 * tot.comb_undetected as f64 / total_faults.max(1) as f64,
        100.0 * tot.comb_undetected as f64 / affected.max(1) as f64
    );
    println!(
        "after step 3: undetected = {:.3}% of all faults, {:.3}% of chain-affecting (paper: 0.006% / 0.022%)",
        100.0 * tot.seq_undetected as f64 / total_faults.max(1) as f64,
        100.0 * tot.seq_undetected as f64 / affected.max(1) as f64
    );
}

#[derive(Default)]
struct Table3Totals {
    comb_det: usize,
    comb_undetectable: usize,
    comb_undetected: usize,
    comb_cpu: f64,
    circ_initial: usize,
    circ_final: usize,
    seq_det: usize,
    seq_undetectable: usize,
    seq_undetected: usize,
    seq_cpu: f64,
}

impl Table3Totals {
    fn add(&mut self, row: &fscan_bench::Table3Row) {
        self.comb_det += row.comb_detected;
        self.comb_undetectable += row.comb_undetectable;
        self.comb_undetected += row.comb_undetected;
        self.comb_cpu += row.comb_cpu.as_secs_f64();
        self.circ_initial += row.circuits_initial;
        self.circ_final += row.circuits_final;
        self.seq_det += row.seq_detected;
        self.seq_undetectable += row.seq_undetectable;
        self.seq_undetected += row.seq_undetected;
        self.seq_cpu += row.seq_cpu.as_secs_f64();
    }
}

fn print_figure5(reports: &[PipelineReport]) {
    // The paper plots the largest circuit (s38584); plot the report with
    // the longest detection curve.
    let Some(report) = reports.iter().max_by_key(|r| r.comb.detection_curve.len()) else {
        return;
    };
    let series = figure5(report);
    println!(
        "\nFigure 5: detected faults vs simulated test vectors ({}).",
        report.name
    );
    println!("{:>8} {:>9}", "#vectors", "#detected");
    let step = (series.len() / 20).max(1);
    for (i, p) in series.iter().enumerate() {
        if i % step == 0 || i + 1 == series.len() {
            println!("{:>8} {:>9}", p.vectors, p.detected);
        }
    }
    if let (Some(quarter), Some(last)) = (series.get(series.len() / 4), series.last()) {
        if last.detected > 0 {
            println!(
                "first 25% of vectors detect {:.0}% of step-2 detections (paper: large majority)",
                100.0 * quarter.detected as f64 / last.detected as f64
            );
        }
    }
}

/// `stress [--gates N] [--fault-sample N] [--chains N] [--seed S]
/// [--threads N] [--lanes 64|256] [--json [PATH]]`: the scale-rail
/// tier — one large synthetic circuit through the full pipeline with
/// per-stage memory accounting printed, optionally snapshotted in
/// `bench_json` format for the baseline gates.
fn stress(args: &[String]) -> ExitCode {
    let usage = "usage: reproduce stress [--gates N] [--fault-sample N] [--chains N] [--seed S] [--threads N] [--lanes 64|256] [--json [PATH]]";
    let mut cfg = StressConfig::default();
    let mut json: Option<String> = None;
    let mut it = args.iter().peekable();
    let parse = |flag: &str, v: Option<&String>| -> Result<usize, String> {
        v.and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs an integer value"))
    };
    while let Some(arg) = it.next() {
        let r = match arg.as_str() {
            "--gates" => parse(arg, it.next()).map(|v| cfg.gates = v),
            "--fault-sample" => parse(arg, it.next()).map(|v| cfg.fault_sample = v),
            "--chains" => parse(arg, it.next()).map(|v| cfg.chains = v),
            "--threads" => parse(arg, it.next()).map(|v| cfg.threads = v),
            "--seed" => parse("--seed", it.next()).map(|v| cfg.seed = v as u64),
            "--lanes" => it
                .next()
                .ok_or_else(|| "--lanes needs a value (64 or 256)".to_string())
                .and_then(|v| v.parse::<LaneWidth>().map_err(|e| e.to_string()))
                .map(|v| cfg.lanes = v),
            "--json" => {
                json = Some(match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().unwrap().clone(),
                    _ => "BENCH_stress.json".to_string(),
                });
                Ok(())
            }
            other => Err(format!("unknown argument '{other}'\n{usage}")),
        };
        if let Err(e) = r {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "stress tier {}: {} gates, {} chains, sampling {} faults ({})...",
        cfg.name(),
        cfg.gates,
        cfg.chains,
        cfg.fault_sample,
        cfg.lanes
    );
    let started = std::time::Instant::now();
    let out = run_stress(&cfg);
    let wall = started.elapsed().as_secs_f64();
    println!(
        "{}: {} topology nodes, {} collapsed faults ({} run), undetected {}, wall {wall:.1}s",
        out.report.name,
        out.nodes,
        out.faults_total,
        out.faults_run,
        out.report.undetected()
    );
    println!(
        "{:<12} {:>14} {:>14} {:>10} {:>10}",
        "stage", "peak_bytes", "arena_bytes", "reallocs", "cones"
    );
    for (stage, m) in out.report.stages() {
        println!(
            "{:<12} {:>14} {:>14} {:>10} {:>10}",
            stage,
            m.mem.peak_bytes,
            m.mem.arena_bytes,
            m.mem.reallocs,
            m.mem.cone_hist.total_cones()
        );
    }
    let total = out.report.total_mem();
    println!(
        "{:<12} {:>14} {:>14} {:>10} {:>10}",
        "total",
        total.peak_bytes,
        total.arena_bytes,
        total.reallocs,
        total.cone_hist.total_cones()
    );
    if let Some(path) = &json {
        let snapshot = bench_json(&[out.report], 1.0, cfg.threads, cfg.lanes.lanes() as usize);
        if let Err(e) = std::fs::write(path, &snapshot) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

/// `eco [--scale F] [--only NAME] [--threads N] [--lanes 64|256]
/// [--json [PATH]]`: the committed incremental-ECO scenario — a
/// spare-cell island (a constant feeding a NOT gate, driving nothing)
/// appended to the suite circuit, rerun against the cold base run's
/// carry. The island's cone touches no prior fault, so every prior
/// verdict carries forward and the rerun's `gate_evals` collapse to the
/// new faults alone. With `--json` the rerun's counters are snapshotted
/// (default `BENCH_eco.json`) so `check-baseline` can gate
/// `--min-verdicts-reused` and `--eco-reference` on the committed copy.
fn eco(args: &[String]) -> ExitCode {
    let usage = "usage: reproduce eco [--scale F] [--only NAME] [--threads N] [--lanes 64|256] [--json [PATH]]";
    let mut scale = 0.05f64;
    let mut only = "s9234".to_string();
    let mut threads = 1usize;
    let mut lanes = LaneWidth::default();
    let mut json: Option<String> = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let r = match arg.as_str() {
            "--scale" => it
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|v| *v > 0.0 && *v <= 1.0)
                .ok_or_else(|| "--scale needs a value in (0, 1]".to_string())
                .map(|v| scale = v),
            "--only" => it
                .next()
                .ok_or_else(|| "--only needs a circuit name".to_string())
                .map(|v| only = v.clone()),
            "--threads" => it
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| "--threads needs an integer value".to_string())
                .map(|v| threads = v),
            "--lanes" => it
                .next()
                .ok_or_else(|| "--lanes needs a value (64 or 256)".to_string())
                .and_then(|v| v.parse::<LaneWidth>().map_err(|e| e.to_string()))
                .map(|v| lanes = v),
            "--json" => {
                json = Some(match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().unwrap().clone(),
                    _ => "BENCH_eco.json".to_string(),
                });
                Ok(())
            }
            other => Err(format!("unknown argument '{other}'\n{usage}")),
        };
        if let Err(e) = r {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let Some(circuit) = PAPER_SUITE.iter().find(|c| c.name == only) else {
        eprintln!("error: no suite circuit named '{only}'");
        return ExitCode::FAILURE;
    };
    let config = PipelineConfig::builder()
        .threads(threads)
        .lane_width(lanes)
        .build()
        .expect("default budgets are valid");
    eprintln!(
        "eco scenario on {only} (scale {scale}, threads {}, {lanes}): cold base run...",
        if threads == 0 {
            "auto".to_string()
        } else {
            threads.to_string()
        }
    );
    let design = std::sync::Arc::new(fscan_bench::build_design(circuit, scale));
    let session = fscan::PipelineSession::shared(std::sync::Arc::clone(&design), config);
    let base = session.clone().run();
    let delta = fscan_netlist::NetlistDelta {
        base_nodes: design.circuit().num_nodes(),
        added: vec![
            fscan_netlist::DeltaNode {
                name: "eco_spare_c".into(),
                kind: fscan_netlist::GateKind::Const0,
                fanin: vec![],
            },
            fscan_netlist::DeltaNode {
                name: "eco_spare_g".into(),
                kind: fscan_netlist::GateKind::Not,
                fanin: vec![fscan_netlist::DeltaRef::Added(0)],
            },
        ],
        redriven: vec![],
        removed: vec![],
        outputs: vec![],
    };
    eprintln!("applying spare-cell delta and rerunning incrementally...");
    let rerun = match session.rerun(&base, &delta) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: rerun failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cold = base.total_counters();
    let inc = rerun.total_counters();
    println!(
        "{only}: verdicts_reused {} cones_invalidated {} trace_cycles_reused {}",
        inc.verdicts_reused, inc.cones_invalidated, inc.trace_cycles_reused
    );
    println!(
        "{only}: eco gate_evals {} vs cold {} ({:.1}% of cold)",
        inc.gate_evals,
        cold.gate_evals,
        100.0 * inc.gate_evals as f64 / cold.gate_evals.max(1) as f64
    );
    if let Some(path) = &json {
        let snapshot = bench_json(&[rerun], scale, threads, lanes.lanes() as usize);
        if let Err(e) = std::fs::write(path, &snapshot) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

/// `history [PATH] [--limit N]`: renders the per-PR counter trajectory
/// recorded in `BENCH_history.jsonl`; `--limit` keeps only the newest
/// `N` records.
fn history_view(args: &[String]) -> ExitCode {
    let mut path: Option<String> = None;
    let mut limit: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--limit" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("error: --limit needs an integer value");
                    return ExitCode::FAILURE;
                };
                limit = Some(v);
            }
            other => path = Some(other.to_string()),
        }
    }
    let path = path.as_deref().unwrap_or("BENCH_history.jsonl");
    let table = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))
        .and_then(|text| fscan_bench::parse_history(&text))
        .map(|points| {
            let tail = limit
                .map(|n| &points[points.len().saturating_sub(n)..])
                .unwrap_or(&points);
            fscan_bench::history_table(tail)
        });
    match table {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `check-baseline BASELINE CURRENT [--tolerance PCT]
/// [--min-faults-dropped N] [--comb-reference REF.json]
/// [--min-comb-speedup R] [--wide-reference REF.json]
/// [--min-classify-speedup R] [--min-verdicts-reused N]
/// [--eco-reference REF.json] [--min-eco-speedup R] [--history PATH]`:
/// compares the per-circuit total `gate_evals` of two `bench_json`
/// snapshots, plus the optional fault-dropping, comb-stage,
/// wide-classification and incremental-ECO gates; on success,
/// `--history` appends a one-line counter record to the per-PR trace
/// file.
fn check_baseline(args: &[String]) -> ExitCode {
    let usage = "usage: reproduce check-baseline BASELINE.json CURRENT.json [--tolerance PCT] [--min-faults-dropped N] [--comb-reference REF.json] [--min-comb-speedup R] [--wide-reference REF.json] [--min-classify-speedup R] [--max-peak-factor R] [--min-verdicts-reused N] [--eco-reference REF.json] [--min-eco-speedup R] [--history PATH]";
    let mut files = Vec::new();
    let mut tolerance = 5.0f64;
    let mut max_peak_factor = 2.0f64;
    let mut min_faults_dropped: Option<u64> = None;
    let mut comb_reference: Option<String> = None;
    let mut min_comb_speedup = 2.0f64;
    let mut wide_reference: Option<String> = None;
    let mut min_classify_speedup = 1.5f64;
    let mut min_verdicts_reused: Option<u64> = None;
    let mut eco_reference: Option<String> = None;
    let mut min_eco_speedup = 4.0f64;
    let mut history: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--tolerance" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("error: --tolerance needs a numeric value");
                    return ExitCode::FAILURE;
                };
                tolerance = v;
            }
            "--min-faults-dropped" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("error: --min-faults-dropped needs an integer value");
                    return ExitCode::FAILURE;
                };
                min_faults_dropped = Some(v);
            }
            "--comb-reference" => {
                let Some(v) = it.next() else {
                    eprintln!("error: --comb-reference needs a snapshot path");
                    return ExitCode::FAILURE;
                };
                comb_reference = Some(v.clone());
            }
            "--min-comb-speedup" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("error: --min-comb-speedup needs a numeric value");
                    return ExitCode::FAILURE;
                };
                min_comb_speedup = v;
            }
            "--wide-reference" => {
                let Some(v) = it.next() else {
                    eprintln!("error: --wide-reference needs a snapshot path");
                    return ExitCode::FAILURE;
                };
                wide_reference = Some(v.clone());
            }
            "--min-classify-speedup" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("error: --min-classify-speedup needs a numeric value");
                    return ExitCode::FAILURE;
                };
                min_classify_speedup = v;
            }
            "--max-peak-factor" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("error: --max-peak-factor needs a numeric value");
                    return ExitCode::FAILURE;
                };
                max_peak_factor = v;
            }
            "--min-verdicts-reused" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("error: --min-verdicts-reused needs an integer value");
                    return ExitCode::FAILURE;
                };
                min_verdicts_reused = Some(v);
            }
            "--eco-reference" => {
                let Some(v) = it.next() else {
                    eprintln!("error: --eco-reference needs a snapshot path");
                    return ExitCode::FAILURE;
                };
                eco_reference = Some(v.clone());
            }
            "--min-eco-speedup" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("error: --min-eco-speedup needs a numeric value");
                    return ExitCode::FAILURE;
                };
                min_eco_speedup = v;
            }
            "--history" => {
                let Some(v) = it.next() else {
                    eprintln!("error: --history needs a file path");
                    return ExitCode::FAILURE;
                };
                history = Some(v.clone());
            }
            _ => files.push(arg.clone()),
        }
    }
    let [base_path, cur_path] = files.as_slice() else {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    };
    let read_counters = |path: &str| -> Result<fscan_bench::baseline::CircuitCounters, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        fscan_bench::parse_total_counters(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base_all, cur_all) = match (read_counters(base_path), read_counters(cur_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let base = fscan_bench::counter_totals(&base_all, "gate_evals");
    let cur = fscan_bench::counter_totals(&cur_all, "gate_evals");
    for (name, evals) in &cur {
        match base.iter().find(|(n, _)| n == name) {
            Some((_, b)) => println!(
                "{name}: gate_evals {evals} vs baseline {b} ({:+.1}%)",
                100.0 * (*evals as f64 / (*b).max(1) as f64 - 1.0)
            ),
            None => println!("{name}: gate_evals {evals} (no baseline entry)"),
        }
    }
    let mut failures = fscan_bench::check_regression(&base, &cur, tolerance);
    // Structural counters must not move at all: one topology compilation
    // per pipeline run, whatever the thread count. (Baselines from
    // before the counter existed simply have no entries to compare.)
    failures.extend(fscan_bench::check_exact(
        &fscan_bench::counter_totals(&base_all, "topology_builds"),
        &fscan_bench::counter_totals(&cur_all, "topology_builds"),
        "topology_builds",
    ));
    // Memory gates ride along automatically when both snapshots carry
    // total_mem blocks (older snapshots predate the accounting and are
    // skipped). Arena footprints and cone totals are deterministic and
    // must match exactly; the allocator-observed peak is machine- and
    // thread-sensitive and only bounded loosely.
    let read_mem = |path: &str| -> Option<fscan_bench::baseline::CircuitCounters> {
        let text = std::fs::read_to_string(path).ok()?;
        fscan_bench::parse_total_mem(&text).ok()
    };
    if let (Some(base_mem), Some(cur_mem)) = (read_mem(base_path), read_mem(cur_path)) {
        for key in ["arena_bytes", "cone_total"] {
            failures.extend(fscan_bench::check_exact(
                &fscan_bench::counter_totals(&base_mem, key),
                &fscan_bench::counter_totals(&cur_mem, key),
                key,
            ));
        }
        failures.extend(fscan_bench::check_max_factor(
            &fscan_bench::counter_totals(&base_mem, "peak_bytes"),
            &fscan_bench::counter_totals(&cur_mem, "peak_bytes"),
            "peak_bytes",
            max_peak_factor,
        ));
        println!(
            "memory gates: arena_bytes/cone_total exact, peak_bytes <= {max_peak_factor}x baseline"
        );
    }
    // Verdict-reuse gate: an ECO snapshot must actually carry verdicts
    // forward, not merely recompute cheaply.
    if let Some(min) = min_verdicts_reused {
        let reused = fscan_bench::counter_totals(&cur_all, "verdicts_reused");
        let total: u64 = reused.iter().map(|(_, v)| *v).sum();
        println!("verdicts_reused total {total} (required >= {min})");
        failures.extend(fscan_bench::check_min_total(
            &reused,
            "verdicts_reused",
            min,
        ));
    }
    // ECO gate: the incremental rerun's *total* gate_evals must sit at
    // least `R`x below the committed cold-run reference of the same
    // circuit — the ISSUE's "eco work <= 25% of cold" bar at the
    // default 4x.
    if let Some(ref_path) = &eco_reference {
        match read_counters(ref_path) {
            Ok(reference) => {
                let ref_evals = fscan_bench::counter_totals(&reference, "gate_evals");
                for (name, value) in &cur {
                    if let Some((_, r)) = ref_evals.iter().find(|(n, _)| n == name) {
                        println!(
                            "{name}: eco gate_evals {value} vs cold reference {r} ({:.2}x)",
                            *r as f64 / (*value).max(1) as f64
                        );
                    }
                }
                failures.extend(fscan_bench::check_improvement(
                    &ref_evals,
                    &cur,
                    "eco gate_evals",
                    min_eco_speedup,
                ));
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Fault-dropping gate: the fresh run must actually retire targets
    // through globally simulated vectors, not just stay cheap.
    if let Some(min) = min_faults_dropped {
        let dropped = fscan_bench::counter_totals(&cur_all, "faults_dropped");
        let total: u64 = dropped.iter().map(|(_, v)| *v).sum();
        println!("faults_dropped total {total} (required >= {min})");
        failures.extend(fscan_bench::check_min_total(
            &dropped,
            "faults_dropped",
            min,
        ));
    }
    // Per-stage speedup gates compare the fresh snapshot against
    // *separate* committed reference files — the regular baseline is
    // regenerated and would trivially match itself.
    let read_stage = |path: &str, stage: &str, key: &str| -> Result<Vec<(String, u64)>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let stages =
            fscan_bench::parse_stage_counters(&text).map_err(|e| format!("{path}: {e}"))?;
        Ok(fscan_bench::stage_counter_totals(&stages, stage, key))
    };
    let mut stage_gate =
        |ref_path: &str, stage: &str, key: &str, factor: f64| -> Result<(), String> {
            let reference = read_stage(ref_path, stage, key)?;
            let current = read_stage(cur_path, stage, key)?;
            for (name, value) in &current {
                if let Some((_, r)) = reference.iter().find(|(n, _)| n == name) {
                    println!(
                        "{name}: {stage} {key} {value} vs reference {r} ({:.2}x)",
                        *r as f64 / (*value).max(1) as f64
                    );
                }
            }
            failures.extend(fscan_bench::check_improvement(
                &reference,
                &current,
                &format!("{stage} {key}"),
                factor,
            ));
            Ok(())
        };
    // Comb-stage gate: event-driven PODEM resimulation plus global
    // fault dropping against the committed pre-ATPG reference.
    let comb_gate = comb_reference
        .iter()
        .try_for_each(|p| stage_gate(p, "comb", "gate_evals", min_comb_speedup));
    // Wide-classification gate: the 256-lane rail must keep amortizing
    // union-cone walks against the committed 64-lane reference. The
    // gate_evals floor is capped by cone overlap between merged words
    // (the no-overlap ideal is 4x); implication_words — words actually
    // pushed through the kernel — must improve at least 2x.
    let wide_gate = wide_reference.iter().try_for_each(|p| {
        stage_gate(p, "classify", "gate_evals", min_classify_speedup)?;
        stage_gate(p, "classify", "implication_words", 2.0)
    });
    if let Err(e) = comb_gate.and(wide_gate) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if failures.is_empty() {
        println!("baseline check passed (tolerance {tolerance}%, topology_builds exact)");
        if let Some(path) = &history {
            return append_history(path, cur_path, &cur_all);
        }
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("REGRESSION {f}");
        }
        ExitCode::FAILURE
    }
}

/// Appends one [`fscan_bench::history_record`] line for the current
/// snapshot to the per-PR counter trace (`BENCH_history.jsonl`). The
/// git revision comes from `git rev-parse`; outside a repository (or
/// without git on PATH) it degrades to `unknown` rather than failing
/// the gate. The rail width is read back from the snapshot's own
/// `"lanes"` header (snapshots from before the header existed record
/// the 64-lane width they were generated at).
fn append_history(
    path: &str,
    cur_path: &str,
    circuits: &fscan_bench::baseline::CircuitCounters,
) -> ExitCode {
    use std::io::Write;

    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let lanes = std::fs::read_to_string(cur_path)
        .ok()
        .and_then(|text| fscan::json::parse(&text).ok())
        .and_then(|doc| doc.get("lanes").and_then(|v| v.as_u64()))
        .unwrap_or(64);
    let line = fscan_bench::history_record(&rev, lanes, circuits);
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{line}"));
    match appended {
        Ok(()) => {
            println!("appended counter record for {rev} to {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot append to {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("check-baseline") => return check_baseline(&argv[1..]),
        Some("stress") => return stress(&argv[1..]),
        Some("eco") => return eco(&argv[1..]),
        Some("history") => return history_view(&argv[1..]),
        _ => {}
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: reproduce [table1|table2|table3|figure5|timing|all] [--scale F] [--only NAME] [--threads N] [--lanes 64|256] [--json [PATH]]\n       reproduce stress [--gates N] [--fault-sample N] [--chains N] [--seed S] [--threads N] [--lanes 64|256] [--json [PATH]]\n       reproduce eco [--scale F] [--only NAME] [--threads N] [--lanes 64|256] [--json [PATH]]\n       reproduce history [PATH] [--limit N]\n       reproduce check-baseline BASELINE.json CURRENT.json [--tolerance PCT]"
            );
            return ExitCode::FAILURE;
        }
    };
    let reports = if opts.what != "table1" || opts.json.is_some() {
        pipeline_reports(&opts)
    } else {
        Vec::new()
    };
    match opts.what.as_str() {
        "table1" => print_table1(&opts),
        "table2" => print_table2(&reports),
        "table3" => print_table3(&reports),
        "figure5" => print_figure5(&reports),
        "timing" => print_timing(&reports),
        _ => {
            print_table1(&opts);
            print_table2(&reports);
            print_table3(&reports);
            print_figure5(&reports);
            print_timing(&reports);
        }
    }
    if let Some(path) = &opts.json {
        let json = bench_json(
            &reports,
            opts.scale,
            opts.threads,
            opts.lanes.lanes() as usize,
        );
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}
