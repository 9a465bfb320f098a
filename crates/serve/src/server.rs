//! The pipeline server: a [`TcpListener`] accept loop feeding a
//! fixed-size worker pool through a **bounded** queue, with persistent
//! (keep-alive) connections.
//!
//! ## Endpoints
//!
//! | Method | Path        | Behaviour                                          |
//! |--------|-------------|----------------------------------------------------|
//! | POST   | `/run`      | Compile (or reuse) the uploaded netlist, run the pipeline, return the full report as JSON. `stream` switches to chunked per-checkpoint metrics. |
//! | POST   | `/eco`      | Incremental rerun: the edited netlist is diffed server-side against the cached base run named by `base` (a key from `x-fscan-key`), and verdicts outside the edit's cones carry forward. The response reports `x-fscan-eco: reused=<n> recomputed=<m>`. |
//! | GET    | `/stats`    | Server counters: requests, runs, rejections, keep-alive reuses, cache hits/misses/evictions, server-wide `topology_builds`, process memory. |
//! | GET    | `/healthz`  | Liveness probe.                                    |
//! | POST   | `/shutdown` | Acknowledge, then stop accepting and drain.        |
//!
//! Every `/run` and `/eco` response carries an `x-fscan-key` header —
//! the content-addressed key of the design the report belongs to. An
//! `/eco` request quotes one as its `base`; the server keeps the last
//! few runs (reports + ECO carry) in an LRU [`RunCache`] so the rerun
//! can reuse their verdicts. The edited netlist is parsed through the
//! streaming [`BenchReader`], whose incrementally-computed
//! [`content_hash64`](BenchReader::content_hash64) doubles as the new
//! design's cache key — the body is hashed as it is parsed, not in a
//! second pass.
//!
//! ## Keep-alive and backpressure
//!
//! A worker owns each connection for its whole lifetime and loops
//! requests on it until the client sends `Connection: close`, the
//! socket idles past [`ServerConfig::idle_timeout_ms`], or shutdown is
//! requested — repeat clients pay connection setup once, matching the
//! design-cache's amortization story. The accept loop hands connections
//! to the pool over a bounded queue ([`ServerConfig::queue_depth`]);
//! when every worker is busy and the queue is full, the connection is
//! answered directly with a typed `503 {"error":{"kind":"busy",...}}`
//! body instead of queueing without bound, and the rejection is counted
//! in `/stats` (`rejected`). Load-shedding is therefore explicit,
//! bounded in memory, and observable.
//!
//! `/run` accepts either a JSON envelope (`content-type:
//! application/json`) — `{"bench": "...", "name": "...", "chains": N,
//! "config": {...}, "stream": bool}` — or a raw `.bench` body with the
//! same knobs as query parameters (`name`, `chains`, `stream`,
//! `threads`, `lanes`). Failures map to structured 4xx bodies
//! `{"error": {"kind": "...", "message": "..."}}` where `kind` is
//! [`fscan::Error::kind`]. Every `/run` response carries an
//! `x-fscan-cache: hit|miss` header.
//!
//! ## Wire path
//!
//! The accept loop sets `TCP_NODELAY` on every connection before the
//! handoff, and every response or chunk leaves in one write
//! ([`crate::http`] coalesces head and body into one vectored write).
//! With Nagle on, a head-then-body pair of writes parks the body until
//! the client ACKs the head, and the client's delayed ACK holds that
//! back for ~40 ms — a fixed stall on every exchange that used to be
//! ~44 ms of the ~48 ms median `/eco` round trip of the `eco_serve`
//! benchmark (about 5 ms without it). One write per response keeps
//! Nagle-off from splitting a response into a packet per piece. There
//! is no option for either: a request/response server never wants
//! Nagle's batching.
//!
//! ## One thread per request
//!
//! A worker runs its request's pipeline on its own thread: a config
//! whose `threads` is 0 (the default, "one per hardware thread") is
//! served as 1, and a request that names a count gets it. The pool's
//! workers are the server's parallelism. Fanned out again, every busy
//! worker would start a stage thread per hardware thread at each
//! sharded stage, so a request's time would depend on what the other
//! workers were doing, and its report's `shards` split on the
//! scheduler. Run on the worker, a report is the same whatever the
//! pool size.
//!
//! ## Ownership and shutdown
//!
//! Workers run owned [`PipelineSession`]s over `Arc<ScanDesign>`s
//! shared out of the [`DesignCache`] — no request borrows from another.
//! Graceful shutdown flips an [`AtomicBool`], wakes the accept loop
//! with a self-connection, drops the queue sender so workers drain
//! in-flight connections, and joins every thread.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use fscan::json::{self, config_from_value, metrics_to_value, report_to_value, Value};
use fscan::{Error, LaneWidth, PipelineConfig, PipelineSession};
use fscan_netlist::{content_hash64, parse_bench, BenchReader, Fnv1a64, NetlistDelta, NodeId};
use fscan_scan::{insert_functional_scan, ScanDesign, TpiConfig};

use crate::cache::{DesignCache, RunCache, RunEntry};
use crate::http::{read_request, start_chunked, write_response, Request, RequestError};

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker thread count (minimum 1).
    pub workers: usize,
    /// Compiled-design cache capacity.
    pub cache_capacity: usize,
    /// Accepted connections waiting for a worker beyond those already
    /// being served. 0 means rendezvous: a connection is only accepted
    /// into the pool when a worker is ready for it; everything else is
    /// shed with a 503.
    pub queue_depth: usize,
    /// How long a keep-alive connection may sit idle between requests
    /// before the worker closes it and moves on.
    pub idle_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            cache_capacity: 16,
            queue_depth: 64,
            idle_timeout_ms: 10_000,
        }
    }
}

/// Counters shared by all workers, snapshotted by `/stats`.
#[derive(Debug, Default)]
struct ServerCounters {
    requests: AtomicU64,
    runs: AtomicU64,
    errors: AtomicU64,
    /// Connections shed with 503 because the accept queue was full.
    rejected: AtomicU64,
    /// Requests served on an already-open keep-alive connection (i.e.
    /// beyond the first request of each connection).
    keepalive_reuses: AtomicU64,
}

/// Everything a worker needs to answer requests.
struct Shared {
    cache: DesignCache,
    /// Completed runs (report + ECO carry) keyed by design key — the
    /// bases `/eco` reruns against.
    runs: RunCache,
    counters: ServerCounters,
    shutdown: AtomicBool,
    idle_timeout: Duration,
}

/// A running server; dropping the handle does **not** stop it — call
/// [`shutdown`](ServerHandle::shutdown) (or POST `/shutdown`).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and blocks until every thread has drained.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop; it re-checks the flag per connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Blocks until the server stops (i.e. someone POSTs `/shutdown`).
    pub fn join(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Binds and spawns the server threads; returns immediately.
pub fn spawn(config: &ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        cache: DesignCache::new(config.cache_capacity),
        runs: RunCache::new(config.cache_capacity),
        counters: ServerCounters::default(),
        shutdown: AtomicBool::new(false),
        idle_timeout: Duration::from_millis(config.idle_timeout_ms.max(1)),
    });

    let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) = sync_channel(config.queue_depth);
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<_> = (0..config.workers.max(1))
        .map(|i| {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("fscan-serve-worker-{i}"))
                .spawn(move || worker_loop(&rx, &shared))
                .expect("spawn worker")
        })
        .collect();

    let accept_shared = Arc::clone(&shared);
    let accept_thread = thread::Builder::new()
        .name("fscan-serve-accept".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(conn) = conn else { continue };
                // Nagle off before the handoff, so worker replies and the
                // busy 503 alike leave in one segment per write (see the
                // module docs' "Wire path").
                let _ = conn.set_nodelay(true);
                // Bounded handoff: a full queue sheds load with an
                // immediate 503 instead of buffering connections (and
                // their bodies) without limit. Dropping the sender
                // (loop exit) closes the queue.
                match tx.try_send(conn) {
                    Ok(()) => {}
                    Err(TrySendError::Full(conn)) => {
                        accept_shared
                            .counters
                            .rejected
                            .fetch_add(1, Ordering::Relaxed);
                        reject_busy(conn);
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
        })
        .expect("spawn accept loop");

    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        workers,
    })
}

/// Sheds one connection the queue had no room for: drain its request
/// (best-effort, briefly, so closing does not RST the response away),
/// answer the typed busy error, and hang up. Runs on the accept thread;
/// the short read timeout bounds how long a slow client can stall
/// accepting.
fn reject_busy(mut conn: TcpStream) {
    let _ = conn.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = read_request(&mut BufReader::new(&mut conn));
    let _ = error_response(
        &mut conn,
        503,
        "busy",
        "server at capacity: accept queue full, retry later",
        true,
    );
}

fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, shared: &Shared) {
    loop {
        let conn = {
            let guard = rx.lock().unwrap();
            guard.recv()
        };
        match conn {
            Ok(mut stream) => handle_connection(&mut stream, shared),
            Err(_) => break, // queue closed: shutdown
        }
    }
}

/// Serves one connection until it closes: requests loop on the socket
/// (HTTP/1.1 keep-alive) until the client asks to close, the idle
/// timeout fires, framing breaks, or the server is shutting down.
fn handle_connection(stream: &mut TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.idle_timeout));
    // The reader half owns the buffer for the connection's lifetime so
    // read-ahead survives across requests; writes go to `stream`.
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut served = 0u64;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let mut request = match read_request(&mut reader) {
            Ok(r) => r,
            Err(RequestError::TooLarge(_)) => {
                let _ = error_response(stream, 413, "json", "request body too large", true);
                return;
            }
            Err(RequestError::Malformed(m)) => {
                let _ = error_response(stream, 400, "http", &m, true);
                return;
            }
            // Peer went away, idle timeout, or the shutdown wake.
            Err(RequestError::Io(_)) => return,
        };
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        if served > 0 {
            shared
                .counters
                .keepalive_reuses
                .fetch_add(1, Ordering::Relaxed);
        }
        served += 1;
        let close = request.wants_close();
        let _ = dispatch(stream, &mut request, shared, close);
        if close || shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn dispatch(
    stream: &mut TcpStream,
    request: &mut Request,
    shared: &Shared,
    close: bool,
) -> io::Result<()> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => write_response(
            stream,
            200,
            "application/json",
            &[],
            b"{\"status\":\"ok\"}",
            close,
        ),
        ("GET", "/stats") => {
            let body = stats_json(shared);
            write_response(stream, 200, "application/json", &[], body.as_bytes(), close)
        }
        ("POST", "/shutdown") => {
            let done = write_response(
                stream,
                200,
                "application/json",
                &[],
                b"{\"status\":\"shutting_down\"}",
                true,
            );
            shared.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            if let Ok(addr) = stream.local_addr() {
                let _ = TcpStream::connect(addr);
            }
            done
        }
        ("POST", "/run") => handle_run(stream, request, shared, close),
        ("POST", "/eco") => handle_eco(stream, request, shared, close),
        (_, "/run" | "/eco" | "/shutdown") | ("POST" | "PUT" | "DELETE", "/stats" | "/healthz") => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            error_response(stream, 405, "http", "method not allowed", close)
        }
        _ => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            error_response(stream, 404, "http", "no such endpoint", close)
        }
    }
}

/// A parsed `/run` request, whichever wire shape carried it.
struct RunParams {
    bench: String,
    name: String,
    chains: usize,
    config: PipelineConfig,
    stream: bool,
}

/// The fields of a JSON request envelope, owned: string values (the
/// `.bench` text above all) are moved out of the parsed document, not
/// copied.
fn envelope_fields(body: &[u8], what: &str) -> Result<Vec<(String, Value)>, Error> {
    let text =
        std::str::from_utf8(body).map_err(|_| json::JsonError::new("request body is not UTF-8"))?;
    match json::parse(text)? {
        Value::Object(fields) => Ok(fields),
        _ => Err(json::JsonError::new(format!("{what}: expected an object")).into()),
    }
}

/// Takes the string out of an envelope field.
fn string_field(value: Value, what: &str) -> Result<String, json::JsonError> {
    match value {
        Value::Str(s) => Ok(s),
        _ => Err(json::JsonError::new(format!("{what}: expected a string"))),
    }
}

fn parse_run_request(request: &mut Request) -> Result<RunParams, Error> {
    let is_json = request
        .header("content-type")
        .is_some_and(|t| t.contains("application/json"))
        || request.body.first() == Some(&b'{');
    if is_json {
        let fields = envelope_fields(&request.body, "run envelope")?;
        let mut bench = None;
        let mut name = "upload".to_string();
        let mut chains = 1usize;
        let mut config = PipelineConfig::default();
        let mut stream = false;
        for (key, value) in fields {
            match key.as_str() {
                "bench" => bench = Some(string_field(value, "run envelope: bench")?),
                "name" => name = string_field(value, "run envelope: name")?,
                "chains" => {
                    chains = value.as_u64().ok_or_else(|| {
                        json::JsonError::new("run envelope: chains: expected an integer")
                    })? as usize;
                }
                "config" => config = config_from_value(&value).map_err(Error::from)?,
                "stream" => {
                    stream = value.as_bool().ok_or_else(|| {
                        json::JsonError::new("run envelope: stream: expected a bool")
                    })?;
                }
                other => {
                    return Err(json::JsonError::new(format!(
                        "run envelope: unknown key `{other}`"
                    ))
                    .into())
                }
            }
        }
        let bench =
            bench.ok_or_else(|| json::JsonError::new("run envelope: missing required `bench`"))?;
        config.validate()?;
        Ok(RunParams {
            bench,
            name,
            chains,
            config,
            stream,
        })
    } else {
        let bench = String::from_utf8(std::mem::take(&mut request.body))
            .map_err(|_| json::JsonError::new("request body is not UTF-8"))?;
        let name = request.query("name").unwrap_or("upload").to_string();
        let chains = match request.query("chains") {
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| json::JsonError::new(format!("query chains: not an integer: {v}")))?,
            None => 1,
        };
        let mut config = PipelineConfig::default();
        if let Some(v) = request.query("threads") {
            config.threads = v
                .parse::<usize>()
                .map_err(|_| json::JsonError::new(format!("query threads: not an integer: {v}")))?;
        }
        if let Some(v) = request.query("lanes") {
            config.lane_width = v
                .parse::<LaneWidth>()
                .map_err(|e| json::JsonError::new(format!("query lanes: {e}")))?;
        }
        config.validate()?;
        let stream = matches!(request.query("stream"), Some("1" | "true"));
        Ok(RunParams {
            bench,
            name,
            chains,
            config,
            stream,
        })
    }
}

/// The cache key: FNV-1a over the exact upload content and compile
/// parameters. Configuration is *not* part of the key — it affects the
/// run, not the compiled design. The bench text enters as its
/// [`content_hash64`] so the key can also be assembled from a streaming
/// [`BenchReader`]'s incremental hash without re-reading the body.
fn design_key(params: &RunParams) -> u64 {
    design_key_parts(
        &params.name,
        params.chains,
        content_hash64(params.bench.as_bytes()),
    )
}

fn design_key_parts(name: &str, chains: usize, bench_hash: u64) -> u64 {
    let mut h = Fnv1a64::new();
    h.write_u64(content_hash64(name.as_bytes()));
    h.write_u64(chains as u64);
    h.write_u64(bench_hash);
    h.finish()
}

fn build_design(params: &RunParams) -> Result<Arc<ScanDesign>, Error> {
    let circuit = parse_bench(&params.bench, &params.name)?;
    let tpi = TpiConfig {
        num_chains: params.chains.max(1),
    };
    let design = insert_functional_scan(&circuit, &tpi)?;
    // Compile the topology while still single-flight: every session on
    // this design then shares the one Arc<CompiledTopology>.
    design.topology();
    Ok(Arc::new(design))
}

/// The configuration a worker runs a request's pipeline with: a
/// `threads` of 0 becomes 1, so the stages run on the worker's own
/// thread (see the module docs' "One thread per request").
fn on_worker(mut config: PipelineConfig) -> PipelineConfig {
    if config.threads == 0 {
        config.threads = 1;
    }
    config
}

fn handle_run(
    stream: &mut TcpStream,
    request: &mut Request,
    shared: &Shared,
    close: bool,
) -> io::Result<()> {
    let params = match parse_run_request(request) {
        Ok(p) => p,
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            return error_response(stream, 400, e.kind(), &e.to_string(), close);
        }
    };
    let key = design_key(&params);
    let (design, hit) = shared.cache.get_or_build(key, || build_design(&params));
    let cache_header = if hit { "hit" } else { "miss" };
    let design = match design {
        Ok(d) => d,
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            return error_response(stream, 400, e.kind(), &e.to_string(), close);
        }
    };
    let key_header = format!("{key:016x}");

    let session = PipelineSession::shared(Arc::clone(&design), on_worker(params.config));
    shared.counters.runs.fetch_add(1, Ordering::Relaxed);
    if params.stream {
        stream_run(
            stream,
            session,
            cache_header,
            &key_header,
            close,
            shared,
            key,
            design,
        )
    } else {
        let report = Arc::new(session.run());
        let body = json::report_to_json(&report);
        shared.runs.put(
            key,
            RunEntry {
                design,
                report: Arc::clone(&report),
            },
        );
        write_response(
            stream,
            200,
            "application/json",
            &[
                ("x-fscan-cache", cache_header),
                ("x-fscan-key", &key_header),
            ],
            body.as_bytes(),
            close,
        )
    }
}

/// Runs the pipeline checkpoint by checkpoint, emitting one compact
/// JSON line per completed stage as a chunk, then the full report.
#[allow(clippy::too_many_arguments)]
fn stream_run(
    stream: &mut TcpStream,
    session: PipelineSession,
    cache: &str,
    key_header: &str,
    close: bool,
    shared: &Shared,
    key: u64,
    design: Arc<ScanDesign>,
) -> io::Result<()> {
    let mut writer = start_chunked(
        stream,
        200,
        "application/x-ndjson",
        &[("x-fscan-cache", cache), ("x-fscan-key", key_header)],
        close,
    )?;
    let line =
        |stage: &str, extra: Vec<(&'static str, Value)>, metrics: &fscan_sim::StageMetrics| {
            let mut fields = vec![("checkpoint", Value::Str(stage.to_string()))];
            fields.extend(extra);
            fields.push(("metrics", metrics_to_value(metrics)));
            let mut text = Value::object(fields).render_compact();
            text.push('\n');
            text
        };

    let classified = session.classify();
    let summary = classified.summary();
    writer.chunk(
        line(
            "classify",
            vec![
                ("total", Value::UInt(summary.total as u64)),
                ("easy", Value::UInt(summary.easy as u64)),
                ("hard", Value::UInt(summary.hard as u64)),
            ],
            &summary.metrics,
        )
        .as_bytes(),
    )?;

    let alternating = classified.alternating();
    let alt = alternating.report().clone();
    writer.chunk(
        line(
            "alternating",
            vec![
                ("targeted", Value::UInt(alt.targeted as u64)),
                ("detected", Value::UInt(alt.detected as u64)),
            ],
            &alt.metrics,
        )
        .as_bytes(),
    )?;

    let comb = alternating.comb();
    let comb_report = comb.report().clone();
    writer.chunk(
        line(
            "comb",
            vec![
                ("targeted", Value::UInt(comb_report.targeted as u64)),
                ("detected", Value::UInt(comb_report.detected as u64)),
                ("undetected", Value::UInt(comb_report.undetected as u64)),
            ],
            &comb_report.metrics,
        )
        .as_bytes(),
    )?;

    let compacted = comb.compact();
    let compact_report = compacted.report().clone();
    writer.chunk(
        line(
            "compact",
            vec![
                (
                    "tests_before",
                    Value::UInt(compact_report.tests_before as u64),
                ),
                (
                    "tests_after",
                    Value::UInt(compact_report.tests_after as u64),
                ),
            ],
            &compact_report.metrics,
        )
        .as_bytes(),
    )?;

    let report = compacted.seq();
    shared.runs.put(
        key,
        RunEntry {
            design,
            report: Arc::new(report.clone()),
        },
    );
    writer.chunk(
        line(
            "seq",
            vec![
                ("targeted", Value::UInt(report.seq.targeted as u64)),
                ("detected", Value::UInt(report.seq.detected as u64)),
                ("undetected", Value::UInt(report.seq.undetected as u64)),
            ],
            &report.seq.metrics,
        )
        .as_bytes(),
    )?;

    let mut final_line = Value::object([
        ("checkpoint", Value::Str("report".to_string())),
        ("report", report_to_value(&report)),
    ])
    .render_compact();
    final_line.push('\n');
    writer.chunk(final_line.as_bytes())?;
    writer.finish()
}

/// A parsed `/eco` request: the key of the base run to rerun against
/// plus the complete edited netlist (diffed server-side).
struct EcoParams {
    base_key: u64,
    bench: String,
    name: String,
    chains: usize,
    config: PipelineConfig,
}

fn parse_eco_request(request: &Request) -> Result<EcoParams, Error> {
    let fields = envelope_fields(&request.body, "eco envelope")?;
    let mut base = None;
    let mut bench = None;
    let mut name = "upload".to_string();
    let mut chains = 1usize;
    let mut config = PipelineConfig::default();
    for (key, value) in fields {
        match key.as_str() {
            "base" => {
                let text = value
                    .as_str()
                    .ok_or_else(|| json::JsonError::new("eco envelope: base: expected a string"))?;
                let parsed =
                    u64::from_str_radix(text.trim_start_matches("0x"), 16).map_err(|_| {
                        json::JsonError::new(format!(
                            "eco envelope: base: not a hex design key: {text}"
                        ))
                    })?;
                base = Some(parsed);
            }
            "bench" => bench = Some(string_field(value, "eco envelope: bench")?),
            "name" => name = string_field(value, "eco envelope: name")?,
            "chains" => {
                chains = value.as_u64().ok_or_else(|| {
                    json::JsonError::new("eco envelope: chains: expected an integer")
                })? as usize;
            }
            "config" => config = config_from_value(&value).map_err(Error::from)?,
            other => {
                return Err(
                    json::JsonError::new(format!("eco envelope: unknown key `{other}`")).into(),
                )
            }
        }
    }
    let base = base.ok_or_else(|| json::JsonError::new("eco envelope: missing required `base`"))?;
    let bench =
        bench.ok_or_else(|| json::JsonError::new("eco envelope: missing required `bench`"))?;
    config.validate()?;
    Ok(EcoParams {
        base_key: base,
        bench,
        name,
        chains,
        config,
    })
}

/// `POST /eco` — incremental rerun against a cached base run.
///
/// The edited netlist arrives whole; the server diffs it against the
/// base design's circuit and hands the resulting [`NetlistDelta`] to
/// [`PipelineSession::rerun_with_design`], which carries forward every
/// verdict whose detection cone is disjoint from the edit. Edits the
/// delta layer cannot express against the cached base (renamed nets, a
/// changed scan fabric, a different interface, a chain that would no
/// longer shift) fall back to a cold run of the edited design — same
/// response shape, nothing reused. So do edits after which scan
/// insertion on the edited netlist builds a different fabric than the
/// one the patched design inherits from the base (see [`same_fabric`]):
/// the incremental answer would test the base's chains, not the ones a
/// cold run of the same netlist tests.
fn handle_eco(
    stream: &mut TcpStream,
    request: &Request,
    shared: &Shared,
    close: bool,
) -> io::Result<()> {
    let params = match parse_eco_request(request) {
        Ok(p) => p,
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            return error_response(stream, 400, e.kind(), &e.to_string(), close);
        }
    };
    let Some(base) = shared.runs.get(params.base_key) else {
        shared.counters.errors.fetch_add(1, Ordering::Relaxed);
        return error_response(
            stream,
            404,
            "eco",
            &format!(
                "unknown base {:016x}: POST the base netlist to /run first and quote its x-fscan-key",
                params.base_key
            ),
            close,
        );
    };
    // Streaming parse of the edited netlist; the incremental content
    // hash doubles as the bench component of the new design's key.
    let mut reader = BenchReader::new(&params.name);
    if let Err(e) = reader.feed(&params.bench) {
        shared.counters.errors.fetch_add(1, Ordering::Relaxed);
        let e = Error::from(e);
        return error_response(stream, 400, e.kind(), &e.to_string(), close);
    }
    let bench_hash = reader.content_hash64();
    let circuit = match reader.finish() {
        Ok(c) => c,
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            let e = Error::from(e);
            return error_response(stream, 400, e.kind(), &e.to_string(), close);
        }
    };
    let tpi = TpiConfig {
        num_chains: params.chains.max(1),
    };
    // Insertion compiles two plans: its builder's, and the edited
    // design's, which verification needs. The incremental path below
    // discards the latter, since its patched topology comes from
    // `CompiledTopology::patch`; only the cold fallback runs on it.
    let new_design = match insert_functional_scan(&circuit, &tpi) {
        Ok(d) => d,
        Err(e) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            let e = Error::from(e);
            return error_response(stream, 400, e.kind(), &e.to_string(), close);
        }
    };
    let new_key = design_key_parts(&params.name, params.chains, bench_hash);
    let config = on_worker(params.config);

    shared.counters.runs.fetch_add(1, Ordering::Relaxed);
    // The rerun collapses the fault universe of the patched circuit
    // itself and never reads the session's own fault list, so the
    // session opens without enumerating the base design's.
    let incremental = NetlistDelta::diff(base.design.circuit(), new_design.circuit())
        .ok()
        .and_then(|delta| {
            PipelineSession::shared_with_faults(
                Arc::clone(&base.design),
                config.clone(),
                Vec::new(),
            )
            .rerun_with_design(&base.report, &delta)
            .ok()
        })
        .filter(|(_, patched)| same_fabric(patched, &new_design));
    let (report, design, reused, recomputed) = match incremental {
        Some((report, patched)) => {
            let totals = report.total_counters();
            (
                Arc::new(report),
                patched,
                totals.verdicts_reused,
                totals.cones_invalidated,
            )
        }
        None => {
            let design = Arc::new(new_design);
            let report = PipelineSession::shared(Arc::clone(&design), config).run();
            let recomputed = report.total_faults as u64;
            (Arc::new(report), design, 0, recomputed)
        }
    };
    let body = json::report_to_json(&report);
    shared.runs.put(
        new_key,
        RunEntry {
            design,
            report: Arc::clone(&report),
        },
    );
    let eco_header = format!("reused={reused} recomputed={recomputed}");
    let key_header = format!("{new_key:016x}");
    write_response(
        stream,
        200,
        "application/json",
        &[("x-fscan-eco", &eco_header), ("x-fscan-key", &key_header)],
        body.as_bytes(),
        close,
    )
}

/// Whether two scan designs share one scan fabric, compared by net
/// name: the same `scan_mode` input, the same scan-mode constraints and
/// the same chains, cell for cell. Node numbering may differ between
/// them: a patched design appends its ECO nodes after the scan
/// insertion's, while a fresh insertion numbers them first.
fn same_fabric(a: &ScanDesign, b: &ScanDesign) -> bool {
    fn pairwise<T>(x: &[T], y: &[T], same: impl Fn(&T, &T) -> bool) -> bool {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| same(p, q))
    }
    let net = |x: NodeId, y: NodeId| {
        let name = a.circuit().node(x).name();
        name.is_some() && name == b.circuit().node(y).name()
    };
    net(a.scan_mode(), b.scan_mode())
        && pairwise(a.constraints(), b.constraints(), |&(p, v), &(q, w)| {
            v == w && net(p, q)
        })
        && pairwise(a.chains(), b.chains(), |x, y| {
            net(x.scan_in, y.scan_in)
                && pairwise(&x.cells, &y.cells, |c, d| {
                    net(c.ff, d.ff)
                        && net(c.source, d.source)
                        && c.inverted == d.inverted
                        && c.kind == d.kind
                        && pairwise(&c.path, &d.path, |&(g, p), &(h, q)| p == q && net(g, h))
                        && pairwise(&c.sides, &d.sides, |s, t| {
                            s.pin == t.pin
                                && s.required == t.required
                                && net(s.gate, t.gate)
                                && net(s.net, t.net)
                        })
                })
        })
}

fn stats_json(shared: &Shared) -> String {
    let cache = shared.cache.stats();
    Value::object([
        (
            "requests",
            Value::UInt(shared.counters.requests.load(Ordering::Relaxed)),
        ),
        (
            "runs",
            Value::UInt(shared.counters.runs.load(Ordering::Relaxed)),
        ),
        (
            "errors",
            Value::UInt(shared.counters.errors.load(Ordering::Relaxed)),
        ),
        (
            "rejected",
            Value::UInt(shared.counters.rejected.load(Ordering::Relaxed)),
        ),
        (
            "keepalive_reuses",
            Value::UInt(shared.counters.keepalive_reuses.load(Ordering::Relaxed)),
        ),
        (
            "cache",
            Value::object([
                ("hits", Value::UInt(cache.hits)),
                ("misses", Value::UInt(cache.misses)),
                ("evictions", Value::UInt(cache.evictions)),
                ("entries", Value::UInt(cache.entries)),
            ]),
        ),
        ("topology_builds", Value::UInt(cache.builds)),
        // Process-wide heap figures from the counting allocator. All
        // zero (tracking: false) unless the hosting binary installed
        // `fscan_alloctrack::TrackingAlloc` — the `serve` binary does.
        (
            "mem",
            Value::object([
                ("tracking", Value::Bool(fscan_alloctrack::installed())),
                ("live_bytes", Value::UInt(fscan_alloctrack::current_bytes())),
                (
                    "total_allocs",
                    Value::UInt(fscan_alloctrack::total_allocs()),
                ),
                ("reallocs", Value::UInt(fscan_alloctrack::total_reallocs())),
            ]),
        ),
    ])
    .render_compact()
}

fn error_response(
    stream: &mut TcpStream,
    status: u16,
    kind: &str,
    message: &str,
    close: bool,
) -> io::Result<()> {
    let body = Value::object([(
        "error",
        Value::object([
            ("kind", Value::Str(kind.to_string())),
            ("message", Value::Str(message.to_string())),
        ]),
    )])
    .render_compact();
    write_response(
        stream,
        status,
        "application/json",
        &[],
        body.as_bytes(),
        close,
    )
}
