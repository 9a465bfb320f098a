//! End-to-end tests over a real socket: the acceptance criteria of the
//! serving layer.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use fscan::json;
use fscan_netlist::{
    generate, parse_bench, write_bench, Circuit, DeltaRef, GateKind, GeneratorConfig, NetlistDelta,
    NodeId, Redrive,
};
use fscan_scan::{insert_functional_scan, ScanDesign, ScanError, TpiConfig};
use fscan_serve::http::Response;
use fscan_serve::server::{spawn, ServerConfig};
use fscan_serve::{client, RunRequest};

fn bench_text(seed: u64) -> String {
    write_bench(&generate(
        &GeneratorConfig::new("itest", seed).gates(70).dffs(5),
    ))
}

fn strip_wall(text: &str) -> String {
    text.lines()
        .filter(|l| !l.contains("wall_s"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn concurrent_uploads_of_one_netlist_compile_the_topology_once() {
    let handle = spawn(&ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let bench = Arc::new(bench_text(1));

    let responses: Vec<_> = (0..4)
        .map(|_| {
            let bench = Arc::clone(&bench);
            thread::spawn(move || {
                client::post_run(addr, &RunRequest::new(&bench, "itest", 1)).unwrap()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();
    for r in &responses {
        assert_eq!(r.status, 200, "{}", r.text());
    }
    // All four reports agree once wall-clock is stripped.
    let first = strip_wall(&responses[0].text());
    for r in &responses[1..] {
        assert_eq!(strip_wall(&r.text()), first);
    }

    let stats = client::get(addr, "/stats").unwrap();
    let doc = json::parse(&stats.text()).unwrap();
    assert_eq!(
        doc.get("topology_builds").and_then(|v| v.as_u64()),
        Some(1),
        "one netlist must compile exactly once server-wide: {}",
        stats.text()
    );
    let hits = doc
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(|v| v.as_u64())
        .unwrap();
    assert!(hits >= 1, "expected cache hits, stats: {}", stats.text());
    assert_eq!(
        doc.get("cache")
            .and_then(|c| c.get("misses"))
            .and_then(|v| v.as_u64()),
        Some(1)
    );
    handle.shutdown();
}

#[test]
fn reports_are_byte_identical_across_worker_pool_sizes() {
    let bench = bench_text(2);
    let mut outputs = Vec::new();
    for workers in [1, 4] {
        let handle = spawn(&ServerConfig {
            workers,
            ..ServerConfig::default()
        })
        .unwrap();
        let response =
            client::post_run(handle.addr(), &RunRequest::new(&bench, "itest", 1)).unwrap();
        assert_eq!(response.status, 200, "{}", response.text());
        outputs.push(strip_wall(&response.text()));
        handle.shutdown();
    }
    assert_eq!(outputs[0], outputs[1]);
    // And the payload decodes back into a structured report.
    let report = json::report_from_json(&client_report_text(&bench)).unwrap();
    assert_eq!(report.name, "itest");
}

fn client_report_text(bench: &str) -> String {
    let handle = spawn(&ServerConfig::default()).unwrap();
    let text = client::post_run(handle.addr(), &RunRequest::new(bench, "itest", 1))
        .unwrap()
        .text();
    handle.shutdown();
    text
}

#[test]
fn streaming_emits_a_checkpoint_chunk_per_stage() {
    let handle = spawn(&ServerConfig::default()).unwrap();
    let bench = bench_text(3);
    let request = RunRequest {
        stream: true,
        ..RunRequest::new(&bench, "itest", 1)
    };
    let response = client::post_run(handle.addr(), &request).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-fscan-cache"), Some("miss"));
    assert_eq!(response.chunks.len(), 6);
    let stages: Vec<String> = response
        .chunks
        .iter()
        .map(|c| {
            let doc = json::parse(&String::from_utf8_lossy(c)).unwrap();
            doc.get("checkpoint")
                .and_then(|v| v.as_str())
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(
        stages,
        [
            "classify",
            "alternating",
            "comb",
            "compact",
            "seq",
            "report"
        ]
    );
    // Every stage chunk carries its metrics; the last carries the
    // decodable full report.
    let first = json::parse(&String::from_utf8_lossy(&response.chunks[0])).unwrap();
    assert!(first
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .is_some());
    let last = json::parse(&String::from_utf8_lossy(&response.chunks[5])).unwrap();
    let report = json::report_from_value(last.get("report").unwrap()).unwrap();
    assert_eq!(report.name, "itest");
    handle.shutdown();
}

#[test]
fn failures_map_to_structured_error_bodies() {
    let handle = spawn(&ServerConfig::default()).unwrap();
    let addr = handle.addr();

    let kind_of = |response: &fscan_serve::Response| {
        json::parse(&response.text())
            .unwrap()
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str())
            .map(str::to_string)
    };

    // Malformed netlist, raw upload.
    let bad_bench = client::post(addr, "/run", "text/plain", b"INPUT(").unwrap();
    assert_eq!(bad_bench.status, 400);
    assert_eq!(kind_of(&bad_bench).as_deref(), Some("bench_parse"));

    // Unknown envelope key.
    let bad_key = client::post(
        addr,
        "/run",
        "application/json",
        b"{\"bench\": \"INPUT(a)\", \"nmae\": \"x\"}",
    )
    .unwrap();
    assert_eq!(bad_key.status, 400);
    assert_eq!(kind_of(&bad_key).as_deref(), Some("json"));

    // Invalid configuration (zero max_frames).
    let bad_config = client::post(
        addr,
        "/run",
        "application/json",
        b"{\"bench\": \"INPUT(a)\", \"config\": {\"seq\": {\"max_frames\": 0}}}",
    )
    .unwrap();
    assert_eq!(bad_config.status, 400);
    assert_eq!(kind_of(&bad_config).as_deref(), Some("json"));

    // A netlist with no flip-flops cannot take a scan chain.
    let no_ffs = client::post(
        addr,
        "/run",
        "text/plain",
        b"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
    )
    .unwrap();
    assert_eq!(no_ffs.status, 400);
    assert_eq!(kind_of(&no_ffs).as_deref(), Some("scan"));

    // Routing errors.
    let missing = client::get(addr, "/nope").unwrap();
    assert_eq!(missing.status, 404);
    let wrong_method = client::get(addr, "/run").unwrap();
    assert_eq!(wrong_method.status, 405);

    // The server is still healthy after every failure.
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    handle.shutdown();
}

/// A netlist whose keyword ends inside a multi-byte character used to
/// panic the `.bench` reader and, with it, the worker.
#[test]
fn a_multibyte_keyword_is_a_parse_error_and_the_worker_serves_on() {
    let handle = spawn(&ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    let bench = "INPU\u{e9}T(a)\nOUTPUT(a)\n";
    let failed = client::post_run(addr, &RunRequest::new(bench, "utf8", 1)).unwrap();
    assert_eq!(failed.status, 400, "{}", failed.text());
    let error = json::parse(&failed.text()).unwrap();
    let kind = error.get("error").and_then(|e| e.get("kind"));
    assert_eq!(kind.and_then(|k| k.as_str()), Some("bench_parse"));
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    handle.shutdown();
}

#[test]
fn distinct_netlists_occupy_distinct_cache_entries() {
    let handle = spawn(&ServerConfig::default()).unwrap();
    let addr = handle.addr();
    for seed in [10, 11] {
        let bench = bench_text(seed);
        let r = client::post_run(addr, &RunRequest::new(&bench, "itest", 1)).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("x-fscan-cache"), Some("miss"));
    }
    let stats = client::get(addr, "/stats").unwrap();
    let doc = json::parse(&stats.text()).unwrap();
    assert_eq!(doc.get("topology_builds").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(
        doc.get("cache")
            .and_then(|c| c.get("entries"))
            .and_then(|v| v.as_u64()),
        Some(2)
    );
    handle.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_per_connection() {
    let handle = spawn(&ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let mut session = client::Session::connect(addr).unwrap();
    for _ in 0..3 {
        let r = session.get("/healthz").unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("connection"), Some("keep-alive"));
    }
    // Real work also loops on the held connection — both wire shapes.
    let bench = bench_text(7);
    let run = session
        .post_run(&RunRequest::new(&bench, "itest", 1))
        .unwrap();
    assert_eq!(run.status, 200, "{}", run.text());
    let streamed = session
        .post_run(&RunRequest {
            stream: true,
            ..RunRequest::new(&bench, "itest", 1)
        })
        .unwrap();
    assert_eq!(streamed.status, 200);
    assert_eq!(streamed.chunks.len(), 6);
    // Errors keep the connection usable too.
    let missing = session.get("/nope").unwrap();
    assert_eq!(missing.status, 404);
    let stats = session.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    let doc = json::parse(&stats.text()).unwrap();
    // 7 requests so far on this one connection: 6 reuses.
    assert_eq!(
        doc.get("keepalive_reuses").and_then(|v| v.as_u64()),
        Some(6),
        "stats: {}",
        stats.text()
    );
    // The process-memory section is always present; without a tracking
    // allocator in the test binary it reports zeros.
    assert_eq!(
        doc.get("mem")
            .and_then(|m| m.get("tracking"))
            .and_then(|v| v.as_bool()),
        Some(false),
        "stats: {}",
        stats.text()
    );
    handle.shutdown();
}

/// A keep-alive exchange costs its own work, not a delayed-ACK round
/// trip. With Nagle on and head and body sent as two writes, the second
/// write of every request and every response waited for the peer's
/// delayed ACK of the first (~40 ms): 50 health checks took ~2.2 s and
/// 20 runs of this design ~1.8 s.
#[test]
fn keep_alive_exchanges_do_not_stall_on_delayed_acks() {
    let handle = spawn(&ServerConfig::default()).unwrap();
    let mut session = client::Session::connect(handle.addr()).unwrap();
    let start = Instant::now();
    for _ in 0..50 {
        assert_eq!(session.get("/healthz").unwrap().status, 200);
    }
    let health = start.elapsed();
    let bench = bench_text(11);
    let run = RunRequest::new(&bench, "itest", 1);
    let start = Instant::now();
    for _ in 0..20 {
        let r = session.post_run(&run).unwrap();
        assert_eq!(r.status, 200, "{}", r.text());
    }
    let runs = start.elapsed();
    drop(session);
    handle.shutdown();
    assert!(
        health < Duration::from_secs(1),
        "50 GET /healthz took {health:?}"
    );
    assert!(runs < Duration::from_secs(1), "20 POST /run took {runs:?}");
}

#[test]
fn saturated_queue_sheds_load_with_typed_503() {
    use std::net::TcpStream;
    use std::time::Duration;

    let handle = spawn(&ServerConfig {
        workers: 1,
        // Rendezvous queue: a connection is only taken when the one
        // worker is ready, so a parked worker makes rejection certain.
        queue_depth: 0,
        idle_timeout_ms: 60_000,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr();
    // Park the only worker: connect and send nothing; the worker sits
    // in read_request until we hang up.
    let mut blocker = TcpStream::connect(addr).unwrap();
    let mut busy = None;
    for _ in 0..100 {
        let r = client::get(addr, "/healthz").unwrap();
        if r.status == 503 {
            busy = Some(r);
            break;
        }
        // The worker answered, so it was not yet waiting when the
        // blocker arrived: the blocker itself was shed. Park it again.
        thread::sleep(Duration::from_millis(10));
        blocker = TcpStream::connect(addr).unwrap();
    }
    let busy = busy.expect("a saturated rendezvous queue must shed load");
    let doc = json::parse(&busy.text()).unwrap();
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str()),
        Some("busy"),
        "body: {}",
        busy.text()
    );
    // Free the worker; service resumes and the shed is on the books.
    drop(blocker);
    let mut stats = None;
    for _ in 0..100 {
        let r = client::get(addr, "/stats").unwrap();
        if r.status == 200 {
            stats = Some(r);
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    let stats = stats.expect("server must recover once the worker frees");
    let doc = json::parse(&stats.text()).unwrap();
    assert!(
        doc.get("rejected").and_then(|v| v.as_u64()) >= Some(1),
        "stats: {}",
        stats.text()
    );
    handle.shutdown();
}

/// Posts an `/eco` envelope that edits the run named by `base_key`.
fn post_eco(addr: std::net::SocketAddr, base_key: &str, edited: &str) -> Response {
    let envelope = json::Value::object([
        ("base", json::Value::Str(base_key.to_string())),
        ("bench", json::Value::Str(edited.to_string())),
        ("name", json::Value::Str("itest".to_string())),
    ])
    .render_compact();
    client::post(addr, "/eco", "application/json", envelope.as_bytes()).unwrap()
}

/// The `reused=` count of an `/eco` answer's `x-fscan-eco` header.
fn reused_verdicts(eco: &Response) -> u64 {
    let reuse = eco
        .header("x-fscan-eco")
        .expect("eco must report its reuse split");
    reuse
        .strip_prefix("reused=")
        .and_then(|rest| rest.split_once(' '))
        .and_then(|(n, _)| n.parse().ok())
        .unwrap_or_else(|| panic!("malformed x-fscan-eco: {reuse}"))
}

/// Every numbering-independent verdict of an `/eco` answer must equal a
/// cold `/run` of the same netlist. Fault IDs are not comparable across
/// the two designs when they number their nodes differently; the
/// ID-exact oracle lives in the core crate, where both paths share one
/// design.
fn assert_same_verdicts(eco: &Response, cold: &Response) {
    let inc_report = json::report_from_json(&eco.text()).unwrap();
    let cold_report = json::report_from_json(&cold.text()).unwrap();
    assert_eq!(inc_report.total_faults, cold_report.total_faults);
    assert_eq!(
        inc_report.classification.easy,
        cold_report.classification.easy
    );
    assert_eq!(
        inc_report.classification.hard,
        cold_report.classification.hard
    );
    assert_eq!(
        inc_report.alternating.detected,
        cold_report.alternating.detected
    );
    assert_eq!(inc_report.comb.detected, cold_report.comb.detected);
    assert_eq!(inc_report.seq.undetected, cold_report.seq.undetected);
    assert_eq!(
        inc_report.undetected_faults.len(),
        cold_report.undetected_faults.len()
    );
    assert_eq!(
        inc_report.program.tests().len(),
        cold_report.program.tests().len()
    );
}

/// The first single-pin rewire of `bench` (a gate input moved to a
/// primary input scan insertion leaves free) that `wanted` accepts,
/// given the base design, the rewire as a delta against it, and the
/// edited netlist. Returns the edited netlist in `.bench` form.
fn find_rewire(
    bench: &str,
    wanted: impl Fn(&ScanDesign, &NetlistDelta, &Circuit) -> bool,
) -> Option<String> {
    let circuit = parse_bench(bench, "itest").unwrap();
    let design = insert_functional_scan(&circuit, &one_chain()).unwrap();
    let forced: Vec<NodeId> = design.constraints().iter().map(|&(pi, _)| pi).collect();
    let free: Vec<NodeId> = circuit
        .inputs()
        .iter()
        .copied()
        .filter(|pi| !forced.contains(pi))
        .collect();
    let rewire = |base_nodes: usize, node: NodeId, kind: GateKind, fanin: &[NodeId]| NetlistDelta {
        base_nodes,
        added: vec![],
        redriven: vec![Redrive {
            node,
            kind,
            fanin: fanin.iter().map(|&f| DeltaRef::Base(f)).collect(),
        }],
        removed: vec![],
        outputs: vec![],
    };
    for id in (0..circuit.num_nodes()).map(NodeId::from_index) {
        let node = circuit.node(id);
        // Scan insertion may rewire a gate's pins; only gates it left
        // alone have the same fanin in the base design and the netlist.
        if matches!(node.kind(), GateKind::Input | GateKind::Dff)
            || design.circuit().node(id).fanin() != node.fanin()
        {
            continue;
        }
        for pin in 0..node.fanin().len() {
            for &pi in free.iter().filter(|&&pi| pi != node.fanin()[pin]) {
                let mut fanin = node.fanin().to_vec();
                fanin[pin] = pi;
                let delta = rewire(design.circuit().num_nodes(), id, node.kind(), &fanin);
                let Ok(edited) =
                    rewire(circuit.num_nodes(), id, node.kind(), &fanin).apply(&circuit)
                else {
                    continue;
                };
                if wanted(&design, &delta, &edited) {
                    return Some(write_bench(&edited));
                }
            }
        }
    }
    None
}

fn one_chain() -> TpiConfig {
    TpiConfig { num_chains: 1 }
}

/// Runs the base netlist, posts `edited` as an `/eco` against it, and
/// requires the answer to be a cold run: nothing reused, and every
/// verdict as a `/run` of the edited netlist gives it.
fn assert_eco_answers_cold(bench: &str, edited: &str) {
    let handle = spawn(&ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let base = client::post_run(addr, &RunRequest::new(bench, "itest", 1)).unwrap();
    assert_eq!(base.status, 200, "{}", base.text());
    let base_key = base.header("x-fscan-key").unwrap().to_string();

    let eco = post_eco(addr, &base_key, edited);
    assert_eq!(eco.status, 200, "{}", eco.text());
    assert_eq!(reused_verdicts(&eco), 0, "{:?}", eco.header("x-fscan-eco"));
    let cold = client::post_run(addr, &RunRequest::new(edited, "itest", 1)).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert_eq!(eco.header("x-fscan-key"), cold.header("x-fscan-key"));
    assert_same_verdicts(&eco, &cold);
    handle.shutdown();
}

/// The first generated netlist from seed 21 on that has a rewire
/// `wanted` accepts, with that rewire applied.
fn first_rewire(wanted: impl Fn(&ScanDesign, &NetlistDelta, &Circuit) -> bool) -> (String, String) {
    (21..60)
        .find_map(|seed| {
            let bench = bench_text(seed);
            find_rewire(&bench, &wanted).map(|edited| (bench, edited))
        })
        .expect("some generated netlist has such a rewire")
}

#[test]
fn eco_rerun_reuses_verdicts_and_matches_cold() {
    let handle = spawn(&ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let bench = bench_text(21);

    let base = client::post_run(addr, &RunRequest::new(&bench, "itest", 1)).unwrap();
    assert_eq!(base.status, 200, "{}", base.text());
    let base_key = base
        .header("x-fscan-key")
        .expect("every run must name its design key")
        .to_string();
    assert_eq!(base_key.len(), 16, "key: {base_key}");

    // A spare-cell ECO: an isolated constant + NOT island appended to
    // the netlist. No prior fault's cone is touched, so every prior
    // verdict must carry forward.
    let edited = format!("{bench}\neco_spare_c = CONST0()\neco_spare_g = NOT(eco_spare_c)\n");
    let eco = post_eco(addr, &base_key, &edited);
    assert_eq!(eco.status, 200, "{}", eco.text());
    let reuse = eco
        .header("x-fscan-eco")
        .expect("eco must report its reuse split")
        .to_string();
    let reused = reused_verdicts(&eco);
    assert!(reused > 0, "nothing reused: {reuse}");
    let new_key = eco
        .header("x-fscan-key")
        .expect("eco must name the patched design's key")
        .to_string();
    assert_ne!(new_key, base_key);

    // The incremental report matches a cold run of the edited netlist —
    // and the cold run's key (hashed from the raw upload) matches the
    // key /eco derived from the streaming reader's incremental hash.
    let cold = client::post_run(addr, &RunRequest::new(&edited, "itest", 1)).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert_eq!(cold.header("x-fscan-key"), Some(new_key.as_str()));
    // The two designs are isomorphic but number their nodes differently
    // (the island lands before scan insertion cold, after it patched).
    assert_same_verdicts(&eco, &cold);

    // Unknown base keys are a structured 404.
    let missing = client::post(
        addr,
        "/eco",
        "application/json",
        b"{\"base\": \"00000000deadbeef\", \"bench\": \"INPUT(a)\"}",
    )
    .unwrap();
    assert_eq!(missing.status, 404, "{}", missing.text());
    let doc = json::parse(&missing.text()).unwrap();
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(|k| k.as_str()),
        Some("eco")
    );
    // Wrong method routes like the other endpoints.
    assert_eq!(client::get(addr, "/eco").unwrap().status, 405);
    handle.shutdown();
}

#[test]
fn eco_rewire_that_unforces_a_side_input_answers_cold() {
    // The rewire touches no frozen fabric node, but the base design's
    // forcing no longer holds a side input, so its chain would not
    // shift: the rerun is refused.
    let (bench, edited) = first_rewire(|design, delta, _| {
        matches!(
            design.patched(delta),
            Err(ScanError::SideInputNotForced { .. })
        )
    });
    assert_eco_answers_cold(&bench, &edited);
}

#[test]
fn eco_rewire_that_moves_the_fabric_answers_cold() {
    // Scan insertion on the edited netlist forces other inputs, yet the
    // server's diff against the base is a delta the base's fabric
    // accepts and still verifies under, and whose dirty support leaves
    // some nodes clean, so a rerun would reuse their verdicts. A cold
    // run of the same netlist tests different chains, so /eco must
    // answer cold.
    let names = |d: &ScanDesign| -> Vec<(Option<String>, bool)> {
        d.constraints()
            .iter()
            .map(|&(pi, v)| (d.circuit().node(pi).name().map(str::to_string), v))
            .collect()
    };
    let (bench, edited) = first_rewire(|design, _, edited| {
        insert_functional_scan(edited, &one_chain()).is_ok_and(|fresh| {
            names(&fresh) != names(design)
                && NetlistDelta::diff(design.circuit(), fresh.circuit())
                    .ok()
                    .and_then(|delta| design.patched(&delta).ok())
                    .is_some_and(|patched| {
                        let topo = patched.topology();
                        topo.dirty()
                            .is_some_and(|d| d.support().len() < topo.num_nodes())
                    })
        })
    });
    assert_eco_answers_cold(&bench, &edited);
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let handle = spawn(&ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let response = client::post(addr, "/shutdown", "application/json", b"").unwrap();
    assert_eq!(response.status, 200);
    // join() returns only once all threads exit; bounded by the test
    // harness timeout.
    handle.join();
    // New exchanges now fail (accept loop is gone).
    assert!(client::get(addr, "/healthz").is_err());
}
