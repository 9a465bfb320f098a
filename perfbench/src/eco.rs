//! `eco_serve`: two keep-alive sessions, closed loop, against `fscan-serve`
//! with two workers, run as a child process of this binary so that its
//! heap is measured apart from the load generator's.
//!
//! Each session works in rounds. A round POSTs the session's base design
//! to `/run`, then sends a seeded chain of `/eco` requests, each quoting
//! the previous `x-fscan-key` and carrying the full edited netlist. Every
//! `REWIRE_EVERY`-th edit is a single-gate functional rewire; the rest add
//! a spare-cell island. Rounds keep a chain's netlist, and the reach of an
//! `/eco` answer that disagrees with a cold run, bounded.
//!
//! The load generator writes each request with one `write` on a
//! `TCP_NODELAY` socket, so the time it reads is the server's: the
//! repository's own client splits head and body into two writes and adds
//! a delayed-ACK stall of its own.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fscan::json::{self, Value};
use fscan::{PipelineConfig, PipelineReport, PipelineSession};
use fscan_bench::PAPER_SUITE;
use fscan_netlist::{generate, BenchReader, NetlistDelta};
use fscan_scan::{insert_functional_scan, ScanDesign, TpiConfig};
use fscan_serve::http::{read_response, Response};
use fscan_serve::server::{spawn, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batch::{ingest, suite_config};
use crate::check::{self, Check};
use crate::layers::{overhead_note, write_spans, Layers};
use crate::trace::Tracer;
use crate::{alloc, repeat_setup, shuffle, stats, Run, SETUP_SAMPLES};

/// Closed-loop sessions, one per hardware thread of the 2-vCPU reference
/// host, and as many server workers.
pub const SESSIONS: usize = 2;
/// Bases are s9234-type designs at the committed ECO scenario's scale
/// (`reproduce eco`, `BENCH_eco_ci.json`).
pub const ECO_SCALE: f64 = 0.05;
/// Every `REWIRE_EVERY`-th edit of a round is a functional rewire.
pub const REWIRE_EVERY: usize = 4;
/// `/eco` requests per round, after the round's `/run`.
pub const ROUND_EDITS: usize = 12;
/// Requests per session and second of `--seconds` on the 2-vCPU reference
/// host; `--seconds` sets the number of rounds with it, so every run with
/// the same arguments sends the same requests.
pub const REQUESTS_PER_S: f64 = 18.0;

/// One edit of a chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Edit {
    /// A `CONST0` driving a `NOT`, connected to nothing.
    Spare,
    /// One fanin of a gate moved to a primary input or flip-flop output.
    Rewire {
        line: usize,
        pin: usize,
        source: String,
    },
}

/// One request of a session: the round's `/run` of the base (`edit` is
/// `None`) or an `/eco` with the full netlist after `edit`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    pub edit: Option<Edit>,
    pub netlist: String,
}

/// One session's inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Session {
    pub name: String,
    pub chains: usize,
    pub base: String,
    pub steps: Vec<Step>,
}

/// A `.bench` gate line split into its parts.
fn gate_parts(line: &str) -> Option<(&str, &str, Vec<&str>)> {
    let (lhs, rhs) = line.split_once(" = ")?;
    let (kind, args) = rhs.strip_suffix(')')?.split_once('(')?;
    let args: Vec<&str> = args.split(", ").filter(|a| !a.is_empty()).collect();
    Some((lhs, kind, args))
}

/// Builds one session's base and `rounds` rounds of edits, in the order
/// the benchmark seed sets.
pub fn make_session(session: usize, rounds: usize, seed: u64) -> Session {
    let s9234 = PAPER_SUITE
        .iter()
        .find(|c| c.name == "s9234")
        .expect("s9234 is in the paper suite");
    let config = suite_config(s9234, ECO_SCALE, s9234.seed + session as u64);
    let base = fscan_netlist::write_bench(&generate(&config));
    let base_lines: Vec<String> = base.lines().map(str::to_string).collect();
    // Sources a rewire may pick: primary inputs and flip-flop outputs,
    // which can never close a combinational loop.
    let mut sources: Vec<String> = base_lines
        .iter()
        .filter_map(|l| l.strip_prefix("INPUT(").and_then(|r| r.strip_suffix(')')))
        .map(str::to_string)
        .collect();
    let mut gates = Vec::new();
    for (i, l) in base_lines.iter().enumerate() {
        if let Some((name, kind, args)) = gate_parts(l) {
            if kind == "DFF" {
                sources.push(name.to_string());
            } else if !args.is_empty() {
                gates.push(i);
            }
        }
    }
    // The rounds are the same for every benchmark seed; the seed sets the
    // order they run in. Each round starts from the base, so its work does
    // not depend on the rounds before it.
    let mut rng = StdRng::seed_from_u64(0xec0 + session as u64);
    let mut rounds: Vec<Vec<Step>> = (0..rounds)
        .map(|round| {
            let mut steps = vec![Step {
                edit: None,
                netlist: base.clone(),
            }];
            let mut lines = base_lines.clone();
            for i in 0..ROUND_EDITS {
                let edit = if i % REWIRE_EVERY == REWIRE_EVERY - 1 {
                    let line = gates[rng.gen_range(0..gates.len())];
                    let (_, _, args) = gate_parts(&lines[line]).expect("a gate line");
                    let pin = rng.gen_range(0..args.len());
                    let free: Vec<&String> = sources
                        .iter()
                        .filter(|s| !args.contains(&s.as_str()))
                        .collect();
                    let source = free[rng.gen_range(0..free.len())].clone();
                    Edit::Rewire { line, pin, source }
                } else {
                    Edit::Spare
                };
                match &edit {
                    Edit::Spare => {
                        let cell = format!("eco{session}_{round}_{i}");
                        lines.push(format!("{cell}_c = CONST0()"));
                        lines.push(format!("{cell}_g = NOT({cell}_c)"));
                    }
                    Edit::Rewire { line, pin, source } => {
                        let (name, kind, mut args) =
                            gate_parts(&lines[*line]).expect("a gate line");
                        args[*pin] = source;
                        lines[*line] = format!("{name} = {kind}({})", args.join(", "));
                    }
                }
                steps.push(Step {
                    edit: Some(edit),
                    netlist: lines.join("\n") + "\n",
                });
            }
            steps
        })
        .collect();
    shuffle(&mut rounds, seed ^ session as u64);
    let steps = rounds.into_iter().flatten().collect();
    Session {
        name: format!("eco{session}"),
        chains: s9234.chains,
        base,
        steps,
    }
}

pub fn rounds_for(seconds: f64) -> usize {
    ((seconds * REQUESTS_PER_S / (ROUND_EDITS + 1) as f64).round() as usize).max(1)
}

/// A request whose 16-hex-digit base key, if it has one, is patched in
/// just before it is sent.
struct Request {
    bytes: Vec<u8>,
    key_at: Option<usize>,
}

const KEY_SLOT: &str = "0000000000000000";

fn http_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: localhost\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn request(session: &Session, step: &Step) -> Request {
    let mut fields = vec![
        ("bench", Value::Str(step.netlist.clone())),
        ("name", Value::Str(session.name.clone())),
        ("chains", Value::UInt(session.chains as u64)),
    ];
    if step.edit.is_none() {
        let body = Value::object(fields).render_compact();
        return Request {
            bytes: http_post("/run", &body),
            key_at: None,
        };
    }
    fields.insert(0, ("base", Value::Str(KEY_SLOT.to_string())));
    let bytes = http_post("/eco", &Value::object(fields).render_compact());
    let key_at = bytes
        .windows(KEY_SLOT.len())
        .position(|w| w == KEY_SLOT.as_bytes());
    Request { bytes, key_at }
}

/// One keep-alive connection with Nagle off.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| format!("timeout: {e}"))?;
        Ok(Conn { stream })
    }

    /// Writes the whole request with one call and reads the response.
    fn exchange(&mut self, request: &[u8]) -> Result<Response, String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        read_response(&mut self.stream).map_err(|e| format!("read: {e:?}"))
    }
}

fn key_of(response: &Response) -> Result<String, String> {
    match response.header("x-fscan-key") {
        Some(k) if k.len() == KEY_SLOT.len() && response.status == 200 => Ok(k.to_string()),
        _ => Err(format!("status {}: {}", response.status, response.text())),
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: SESSIONS,
        cache_capacity: 16,
        queue_depth: 8,
        idle_timeout_ms: 120_000,
    }
}

/// The child-process side: serves until its standard input says `stop` or
/// closes. `mark` restarts the heap peak; `peak` prints it.
pub fn serve_child() -> ExitCode {
    let handle = match spawn(&server_config()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = std::io::stdout();
    let _ = writeln!(out, "listening on {}", handle.addr());
    let _ = out.flush();
    for line in std::io::stdin().lock().lines() {
        match line.as_deref() {
            Ok("mark") => {
                alloc::reset_peak();
                let _ = writeln!(out, "marked");
            }
            Ok("peak") => {
                let _ = writeln!(out, "peak {}", alloc::peak_bytes());
            }
            _ => break,
        }
        let _ = out.flush();
    }
    handle.shutdown();
    ExitCode::SUCCESS
}

/// The server child process; stopped and waited for on drop.
struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    fn start() -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut server = Server {
            child,
            stdin,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let line = server.read_line()?;
        server.addr = line
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server said: {line}"))?;
        Ok(server)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(n) if n > 0 => Ok(line.trim_end().to_string()),
            _ => Err("server exited".to_string()),
        }
    }

    fn ask(&mut self, command: &str) -> Result<String, String> {
        writeln!(self.stdin, "{command}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("server control: {e}"))?;
        self.read_line()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = writeln!(self.stdin, "stop");
        let _ = self.stdin.flush();
        for _ in 0..200 {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A server with each session's base run done. Connections close before
/// the server stops (fields drop in order), so no worker waits out an
/// idle keep-alive connection.
struct Served {
    conns: Vec<Conn>,
    server: Server,
}

/// Starts the server and runs every session's cold base `/run`
/// concurrently, each on its own connection.
fn set_up(sessions: &[Session]) -> Result<Served, String> {
    let server = Server::start()?;
    let addr = server.addr;
    let opened: Vec<Result<Conn, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter()
            .map(|session| {
                s.spawn(move || {
                    let mut conn = Conn::open(addr)?;
                    let base = &session.steps[0];
                    key_of(&conn.exchange(&request(session, base).bytes)?)?;
                    Ok(conn)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up session thread panicked"))
            .collect()
    });
    let conns = opened.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok(Served { conns, server })
}

/// One answered request.
pub struct Answer {
    pub latency_ms: f64,
    pub response: Result<Response, String>,
}

/// Runs every session's steps concurrently; returns each session's
/// answers and the wall time of the whole phase. Each round's `/run`
/// names the key its `/eco` requests start from; a session stops at its
/// first request that yields no design key.
fn run_sessions(served: &mut Served, sessions: &[Session]) -> (Vec<Vec<Answer>>, f64) {
    let mut requests: Vec<Vec<Request>> = sessions
        .iter()
        .map(|s| s.steps.iter().map(|step| request(s, step)).collect())
        .collect();
    let start = Instant::now();
    let answers = std::thread::scope(|s| {
        let handles: Vec<_> = served
            .conns
            .iter_mut()
            .zip(requests.iter_mut())
            .map(|(conn, reqs)| {
                s.spawn(move || {
                    let mut key = KEY_SLOT.to_string();
                    let mut out = Vec::with_capacity(reqs.len());
                    for req in reqs.iter_mut() {
                        if let Some(at) = req.key_at {
                            req.bytes[at..at + KEY_SLOT.len()].copy_from_slice(key.as_bytes());
                        }
                        let t = Instant::now();
                        let response = conn.exchange(&req.bytes);
                        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                        let next = response.as_ref().map_err(Clone::clone).and_then(key_of);
                        let stop = next.is_err();
                        if let Ok(k) = next {
                            key = k;
                        }
                        out.push(Answer {
                            latency_ms,
                            response,
                        });
                        if stop {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    (answers, start.elapsed().as_secs_f64())
}

/// How the server answered one edit, from its `x-fscan-eco` header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reuse {
    /// Every verdict carried forward.
    Full,
    /// Some verdicts recomputed.
    Recomputed,
    /// The edit could not be diffed against the base: a cold run.
    Cold,
}

pub fn reuse_of(response: &Response, report: &PipelineReport) -> Option<Reuse> {
    let header = response.header("x-fscan-eco")?;
    let mut reused = None;
    let mut recomputed = None;
    for part in header.split_whitespace() {
        match part.split_once('=') {
            Some(("reused", v)) => reused = v.parse::<u64>().ok(),
            Some(("recomputed", v)) => recomputed = v.parse::<u64>().ok(),
            _ => {}
        }
    }
    Some(match (reused?, recomputed?) {
        (0, r) if r == report.total_faults as u64 => Reuse::Cold,
        (_, 0) => Reuse::Full,
        _ => Reuse::Recomputed,
    })
}

/// Checks one answer: a 200 whose report decodes, agrees with a cold
/// in-process run of the same netlist on every numbering-independent
/// verdict, and whose program, replayed on the cold design from
/// power-up, detects what it claims. Returns the decoded report and, for
/// an `/eco`, how the server reused its base.
fn check_answer(
    session: &Session,
    step: &Step,
    answer: &Answer,
) -> (Check, Option<(Option<Reuse>, PipelineReport)>) {
    let fail = |p: String| {
        (
            Check {
                problems: vec![p],
                ..Check::default()
            },
            None,
        )
    };
    let response = match &answer.response {
        Ok(r) if r.status == 200 => r,
        Ok(r) => return fail(format!("status {}: {}", r.status, r.text())),
        Err(e) => return fail(e.clone()),
    };
    let served = match json::report_from_json(&response.text()) {
        Ok(r) => r,
        Err(e) => return fail(format!("response does not decode: {e}")),
    };
    let design = match ingest(&session.name, session.chains, &step.netlist) {
        Ok(d) => Arc::new(d),
        Err(e) => return fail(e),
    };
    let cold = PipelineSession::shared(Arc::clone(&design), PipelineConfig::default()).run();
    let mut check = check::check_report(&design, &served);
    check
        .problems
        .extend(check::compare_verdicts(&served, &cold));
    let reuse = reuse_of(response, &served);
    if step.edit.is_some() && reuse.is_none() {
        check.problems.push("no x-fscan-eco header".to_string());
    }
    (check, Some((reuse, served)))
}

/// The next base of an in-process replay.
struct Replayed {
    design: Arc<ScanDesign>,
    report: PipelineReport,
}

/// Replays in-process what the server does for one request, through the
/// same public calls its handler makes, each in its own span. A round's
/// `/run` finds its design in the server's cache, so its replay starts
/// from `cached`; an `/eco` diffs against `prev`, the previous answer.
#[allow(clippy::too_many_arguments)]
fn replay(
    session: &Session,
    step: &Step,
    cached: &Arc<ScanDesign>,
    prev: Option<&Replayed>,
    tracer: &mut Tracer,
    op: usize,
    heap: &alloc::Window,
    ingest_rise: &mut u64,
) -> Result<Replayed, String> {
    tracer.begin("op", op);
    let out = replay_steps(session, step, cached, prev, tracer, op, heap, ingest_rise);
    tracer.end();
    out
}

/// The five stages one by one, as `run()` chains them.
fn staged_run(
    design: Arc<ScanDesign>,
    span: &'static str,
    tracer: &mut Tracer,
    op: usize,
    heap: &alloc::Window,
    ingest_rise: &mut u64,
) -> Replayed {
    let session = tracer.span("fault.collapse", op, || {
        PipelineSession::shared(Arc::clone(&design), PipelineConfig::default())
    });
    *ingest_rise = heap.rise();
    tracer.begin(span, op);
    let classified = tracer.span("classify", op, || session.classify());
    let after = tracer.span("alternating", op, || classified.alternating());
    let comb = tracer.span("comb_phase", op, || after.comb());
    let compact = tracer.span("compact", op, || comb.compact());
    let report = tracer.span("seq_phase", op, || compact.seq());
    tracer.end();
    Replayed { design, report }
}

#[allow(clippy::too_many_arguments)]
fn replay_steps(
    session: &Session,
    step: &Step,
    cached: &Arc<ScanDesign>,
    prev: Option<&Replayed>,
    tracer: &mut Tracer,
    op: usize,
    heap: &alloc::Window,
    ingest_rise: &mut u64,
) -> Result<Replayed, String> {
    let req = request(session, step);
    let body = std::str::from_utf8(&req.bytes)
        .ok()
        .and_then(|t| t.split_once("\r\n\r\n"))
        .map(|(_, b)| b.to_string())
        .ok_or("request body is not UTF-8")?;
    let doc = tracer
        .span("json", op, || json::parse(&body))
        .map_err(|e| format!("envelope: {e}"))?;
    let next = match (&step.edit, prev) {
        (Some(_), Some(base)) => {
            let bench = doc
                .get("bench")
                .and_then(Value::as_str)
                .ok_or("envelope without bench")?;
            let circuit = tracer
                .span("netlist.parse", op, || {
                    let mut reader = BenchReader::new(&session.name);
                    reader.feed(bench)?;
                    reader.finish()
                })
                .map_err(|e| format!("parse: {e}"))?;
            let tpi = TpiConfig {
                num_chains: session.chains,
                ..TpiConfig::default()
            };
            let new_design = tracer
                .span("scan.tpi", op, || insert_functional_scan(&circuit, &tpi))
                .map_err(|e| format!("scan: {e}"))?;
            let incremental = tracer
                .span("netlist.diff", op, || {
                    NetlistDelta::diff(base.design.circuit(), new_design.circuit())
                })
                .ok()
                .and_then(|delta| {
                    let session = tracer.span("fault.collapse", op, || {
                        PipelineSession::shared(Arc::clone(&base.design), PipelineConfig::default())
                    });
                    *ingest_rise = heap.rise();
                    tracer
                        .span("eco", op, || {
                            session.rerun_with_design(&base.report, &delta)
                        })
                        .ok()
                });
            match incremental {
                Some((report, design)) => Replayed { design, report },
                None => staged_run(Arc::new(new_design), "eco", tracer, op, heap, ingest_rise),
            }
        }
        (Some(_), None) => return Err("an /eco step without a base".to_string()),
        (None, _) => staged_run(Arc::clone(cached), "run", tracer, op, heap, ingest_rise),
    };
    tracer.span("json", op, || json::report_to_json(&next.report));
    Ok(next)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Run, String> {
    let rounds = rounds_for(seconds);
    let set_up_all = || {
        let sessions: Vec<Session> = (0..SESSIONS)
            .map(|s| make_session(s, rounds, seed))
            .collect();
        let served = set_up(&sessions)?;
        Ok((sessions, served))
    };
    // Half the set-up samples before the timed phase, half after it.
    let before = SETUP_SAMPLES / 2;
    let ((sessions, mut served), mut setup_times, mut same_inputs) =
        repeat_setup(before, set_up_all, |(s, _)| s)?;

    served.server.ask("mark")?;
    let (answers, timed_s) = run_sessions(&mut served, &sessions);
    let peak = served.server.ask("peak")?;
    let Served { conns, server } = served;
    drop(conns);
    let stats = Conn::open(server.addr)
        .and_then(|mut c| {
            c.exchange(b"GET /stats HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\n\r\n")
        })
        .and_then(|r| json::parse(&r.text()).map_err(|e| format!("stats: {e}")))?;
    drop(server);
    let ((again, _), after, same_after) =
        repeat_setup(SETUP_SAMPLES - before, set_up_all, |(s, _)| s)?;
    same_inputs &= same_after && again == sessions;
    setup_times.extend(after);
    let checked = Instant::now();

    let mut run = Run {
        setup_s: stats::median(&setup_times),
        pass_s: vec![timed_s],
        peak_bytes: peak
            .strip_prefix("peak ")
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("server said: {peak}"))?,
        attempted: sessions.iter().map(|s| s.steps.len()).sum(),
        ..Run::default()
    };
    let mut layers = Layers {
        pass_ops: run.attempted,
        ..Layers::default()
    };
    let mut completed = true;
    // One checking thread per session; the clock has stopped.
    let checks: Vec<Vec<_>> = std::thread::scope(|s| {
        let handles: Vec<_> = sessions
            .iter()
            .zip(&answers)
            .map(|(session, answered)| {
                s.spawn(move || {
                    session
                        .steps
                        .iter()
                        .zip(answered)
                        .map(|(step, answer)| check_answer(session, step, answer))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    for ((session, answered), checked) in sessions.iter().zip(&answers).zip(checks) {
        let mut checked = checked.into_iter();
        for (i, step) in session.steps.iter().enumerate() {
            let (Some(answer), Some((check, served))) = (answered.get(i), checked.next()) else {
                completed = false;
                run.failed += 1;
                continue;
            };
            completed &= answer.response.is_ok();
            run.latencies_ms.push(answer.latency_ms);
            run.detected += check.detected;
            run.affected += check.affected;
            if let Some((reuse, report)) = served {
                run.test_cycles += report.program.total_cycles();
                layers.add_report(&report);
                if let Some(reuse) = reuse {
                    layers.eco_total_faults += report.total_faults;
                    match reuse {
                        Reuse::Full => layers.eco_full += 1,
                        Reuse::Recomputed => layers.eco_recomputed += 1,
                        Reuse::Cold => layers.eco_cold += 1,
                    }
                }
            }
            if !check.passed() {
                run.failed += 1;
                run.notes.push(format!(
                    "failed: {} request {i} ({:?}): {}",
                    session.name,
                    step.edit,
                    check.problems.join("; ")
                ));
            }
        }
    }
    let counter = |key: &str| stats.get(key).and_then(Value::as_u64).unwrap_or(0);
    layers.serve_keepalive_reuses = counter("keepalive_reuses");
    layers.serve_errors = counter("errors");
    layers.serve_rejected = counter("rejected");
    run.correct =
        completed && same_inputs && layers.serve_errors == 0 && layers.serve_rejected == 0;
    eprintln!(
        "eco_serve: set-up {:.3} s, {} requests in {timed_s:.3} s, check {:.3} s",
        run.setup_s,
        run.attempted,
        checked.elapsed().as_secs_f64()
    );
    let ecos = (layers.eco_full + layers.eco_recomputed + layers.eco_cold).max(1) as f64;
    run.notes.push(format!(
        "share: of {} /eco requests, fully reused {:.4}, recomputed {:.4}, cold fallback {:.4}",
        ecos,
        layers.eco_full as f64 / ecos,
        layers.eco_recomputed as f64 / ecos,
        layers.eco_cold as f64 / ecos,
    ));

    if traced {
        let mut tracer = Tracer::new(true, Instant::now());
        let mut serve_ms = Vec::new();
        let mut op = 0;
        for (session, answered) in sessions.iter().zip(&answers) {
            let cached = Arc::new(ingest(&session.name, session.chains, &session.base)?);
            let mut base: Option<Replayed> = None;
            for (step, answer) in session.steps.iter().zip(answered) {
                let first = tracer.spans().len();
                let heap = alloc::Window::open();
                let mut ingest = 0;
                let next = replay(
                    session,
                    step,
                    &cached,
                    base.as_ref(),
                    &mut tracer,
                    op,
                    &heap,
                    &mut ingest,
                )?;
                base = Some(next);
                layers.ingest_rise = layers.ingest_rise.max(ingest);
                let root = &tracer.spans()[first];
                serve_ms.push(answer.latency_ms - (root.end_ns - root.start_ns) as f64 / 1e6);
                op += 1;
            }
        }
        layers.serve_self_ms = serve_ms.iter().sum::<f64>() / serve_ms.len().max(1) as f64;
        layers.absorb_trace(&tracer, op);
        let p50 = stats::median(&run.latencies_ms);
        run.notes.push(overhead_note(&tracer, op, p50));
        run.notes.push(write_spans(&tracer, "eco_serve", seed));
        run.layers = layers.metrics();
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests() {
        assert_eq!(make_session(0, 3, 9), make_session(0, 3, 9));
        let steps = make_session(1, 3, 9).steps;
        assert_eq!(steps.len(), 3 * (ROUND_EDITS + 1));
        let rewires = steps
            .iter()
            .filter(|s| matches!(s.edit, Some(Edit::Rewire { .. })))
            .count();
        assert_eq!(rewires, 3 * (ROUND_EDITS / REWIRE_EVERY));
    }
}
