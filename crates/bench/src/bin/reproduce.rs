//! Regenerates every table and figure of the DATE'98 paper.
//!
//! Usage:
//!
//! ```text
//! reproduce [table1|table2|table3|figure5|timing|all] [--scale F] [--only NAME] [--threads N] [--lanes 64|256] [--json [PATH]]
//! reproduce stress [--gates N] [--fault-sample N] [--chains N] [--seed S] [--threads N] [--lanes 64|256] [--json [PATH]]
//! reproduce eco [--scale F] [--only NAME] [--threads N] [--lanes 64|256] [--json [PATH]]
//! reproduce history [PATH] [--limit N]
//! reproduce check-baseline GATES [--history PATH]
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
//! `check-baseline` evaluates every gate of a gate file (CI's is the
//! committed `BENCH_gates.txt`): one line per bound, such as
//! `bench_t1.json total.gate_evals <= 1.05*BENCH_baseline.json`, over
//! the snapshots it names relative to the working directory (grammar in
//! [`fscan_bench::baseline`]). It prints one line per gate and fails if
//! any gate fails or compares nothing. After a passing check,
//! `--history PATH` appends one one-line JSON record (git revision,
//! rail width, every circuit's total counters) per fresh snapshot, in
//! the order the gate file first names them, building the committed
//! per-PR counter trace `BENCH_history.jsonl`.

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
/// (default `BENCH_eco.json`) so `check-baseline` can gate its reuse
/// and its work against the cold run.
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

/// `check-baseline GATES [--history PATH]`: evaluates every gate of the
/// gate file; on success, `--history` appends one counter record per
/// fresh snapshot to the per-PR trace file.
fn check_baseline(args: &[String]) -> ExitCode {
    let (gates_path, history) = match args {
        [gates] => (gates, None),
        [gates, flag, path] | [flag, path, gates] if flag == "--history" => (gates, Some(path)),
        _ => {
            eprintln!("usage: reproduce check-baseline GATES [--history PATH]");
            return ExitCode::FAILURE;
        }
    };
    let gates = match std::fs::read_to_string(gates_path)
        .map_err(|e| format!("cannot read it: {e}"))
        .and_then(|text| fscan_bench::parse_gates(&text))
    {
        Ok(gates) => gates,
        Err(e) => {
            eprintln!("error: {gates_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        fscan::json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let mut failed = 0;
    for gate in &gates {
        match gate.check(load) {
            Ok(compared) => println!("ok   {gates_path} {compared}"),
            Err(failure) => {
                eprintln!("FAIL {gates_path} {failure}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        eprintln!("{failed} of {} gates failed", gates.len());
        return ExitCode::FAILURE;
    }
    println!("baseline check passed ({} gates)", gates.len());
    match history {
        Some(path) => append_history(path, &gates),
        None => ExitCode::SUCCESS,
    }
}

/// Appends one [`fscan_bench::history_record`] line per fresh snapshot
/// of the gates, in the order the gate file first names them, to the
/// per-PR counter trace (`BENCH_history.jsonl`). The git revision comes
/// from `git rev-parse`; outside a repository (or without git on PATH)
/// it degrades to `unknown` rather than failing the gate. The rail
/// width is read back from each snapshot's own `"lanes"` header
/// (snapshots from before the header existed record the 64-lane width
/// they were generated at).
fn append_history(path: &str, gates: &[fscan_bench::Gate]) -> ExitCode {
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
    let mut fresh: Vec<&str> = Vec::new();
    for gate in gates {
        if !fresh.contains(&gate.fresh.as_str()) {
            fresh.push(&gate.fresh);
        }
    }
    let records: Result<Vec<String>, String> = fresh
        .iter()
        .map(|snapshot| {
            let text = std::fs::read_to_string(snapshot)
                .map_err(|e| format!("cannot read {snapshot}: {e}"))?;
            let circuits =
                fscan_bench::parse_total_counters(&text).map_err(|e| format!("{snapshot}: {e}"))?;
            let lanes = fscan::json::parse(&text)
                .ok()
                .and_then(|doc| doc.get("lanes").and_then(|v| v.as_u64()))
                .unwrap_or(64);
            Ok(fscan_bench::history_record(&rev, lanes, &circuits))
        })
        .collect();
    let appended = records.and_then(|records| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| records.iter().try_for_each(|line| writeln!(f, "{line}")))
            .map_err(|e| format!("cannot append to {path}: {e}"))
    });
    match appended {
        Ok(()) => {
            println!(
                "appended {} counter records for {rev} to {path}",
                fresh.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
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
                "usage: reproduce [table1|table2|table3|figure5|timing|all] [--scale F] [--only NAME] [--threads N] [--lanes 64|256] [--json [PATH]]\n       reproduce stress [--gates N] [--fault-sample N] [--chains N] [--seed S] [--threads N] [--lanes 64|256] [--json [PATH]]\n       reproduce eco [--scale F] [--only NAME] [--threads N] [--lanes 64|256] [--json [PATH]]\n       reproduce history [PATH] [--limit N]\n       reproduce check-baseline GATES [--history PATH]"
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
