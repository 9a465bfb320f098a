//! `smoke` — end-to-end exercise of a pipeline server.
//!
//! With no arguments it spawns an in-process server on a free port,
//! drives it through the full client surface — health, a cold `/run`,
//! a warm `/run` that must be a cache hit with a byte-identical report,
//! a streaming `/run`, an invalid upload that must map to a structured
//! 4xx, `/stats` (asserting `topology_builds == 1`), `/shutdown` — and
//! prints `smoke ok`. Any assertion failure exits nonzero; CI runs this
//! binary. Pass `HOST:PORT` to aim the same sequence at an already
//! running server (the `topology_builds` assertion then becomes `>= 1`).

use std::net::SocketAddr;
use std::process::ExitCode;

use fscan_netlist::{generate, write_bench, GeneratorConfig};
use fscan_serve::server::{spawn, ServerConfig};
use fscan_serve::{client, RunRequest};

fn run(addr: SocketAddr, external: bool) -> Result<(), String> {
    let bench = write_bench(&generate(
        &GeneratorConfig::new("smoke", 0x5305).gates(80).dffs(6),
    ));

    let health = client::get(addr, "/healthz").map_err(|e| format!("healthz: {e}"))?;
    if health.status != 200 {
        return Err(format!("healthz: status {}", health.status));
    }

    let request = RunRequest::new(&bench, "smoke", 1);
    let cold = client::post_run(addr, &request).map_err(|e| format!("cold run: {e}"))?;
    if cold.status != 200 {
        return Err(format!("cold run: status {}: {}", cold.status, cold.text()));
    }
    if !external && cold.header("x-fscan-cache") != Some("miss") {
        return Err(format!(
            "cold run: expected a cache miss, got {:?}",
            cold.header("x-fscan-cache")
        ));
    }

    let warm = client::post_run(addr, &request).map_err(|e| format!("warm run: {e}"))?;
    if warm.status != 200 {
        return Err(format!("warm run: status {}", warm.status));
    }
    if warm.header("x-fscan-cache") != Some("hit") {
        return Err(format!(
            "warm run: expected a cache hit, got {:?}",
            warm.header("x-fscan-cache")
        ));
    }
    // Wall-clock lines differ run to run; everything else must not.
    let strip = |text: &str| {
        text.lines()
            .filter(|l| !l.contains("wall_s"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    if strip(&warm.text()) != strip(&cold.text()) {
        return Err("warm run: report JSON differs from the cold run".to_string());
    }
    let report = fscan::json::report_from_json(&cold.text())
        .map_err(|e| format!("report does not decode: {e}"))?;
    if report.name != "smoke" {
        return Err(format!("report name {:?}", report.name));
    }

    let streaming = RunRequest {
        stream: true,
        ..request.clone()
    };
    let streamed = client::post_run(addr, &streaming).map_err(|e| format!("stream run: {e}"))?;
    if streamed.status != 200 {
        return Err(format!("stream run: status {}", streamed.status));
    }
    if streamed.chunks.len() < 6 {
        return Err(format!("stream run: only {} chunks", streamed.chunks.len()));
    }
    for (i, stage) in [
        "classify",
        "alternating",
        "comb",
        "compact",
        "seq",
        "report",
    ]
    .iter()
    .enumerate()
    {
        let line = String::from_utf8_lossy(&streamed.chunks[i]).into_owned();
        let doc = fscan::json::parse(&line).map_err(|e| format!("chunk {i}: {e}"))?;
        if doc.get("checkpoint").and_then(|v| v.as_str()) != Some(stage) {
            return Err(format!("chunk {i}: expected checkpoint {stage}: {line}"));
        }
    }

    let bad =
        client::post(addr, "/run", "text/plain", b"INPUT(").map_err(|e| format!("bad run: {e}"))?;
    if bad.status != 400 {
        return Err(format!("bad run: status {}", bad.status));
    }
    let body = fscan::json::parse(&bad.text()).map_err(|e| format!("bad run body: {e}"))?;
    if body
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(|k| k.as_str())
        != Some("bench_parse")
    {
        return Err(format!("bad run: unexpected error body {}", bad.text()));
    }

    let stats = client::get(addr, "/stats").map_err(|e| format!("stats: {e}"))?;
    let doc = fscan::json::parse(&stats.text()).map_err(|e| format!("stats body: {e}"))?;
    let builds = doc
        .get("topology_builds")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("stats: no topology_builds in {}", stats.text()))?;
    let hits = doc
        .get("cache")
        .and_then(|c| c.get("hits"))
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    if external {
        if builds < 1 {
            return Err("stats: expected at least one topology build".to_string());
        }
    } else if builds != 1 {
        return Err(format!("stats: {builds} topology builds for one netlist"));
    }
    if hits < 1 {
        return Err(format!("stats: expected cache hits, got {hits}"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let arg = std::env::args().nth(1);
    let (addr, handle) = match arg {
        Some(spec) => match spec.parse::<SocketAddr>() {
            Ok(addr) => (addr, None),
            Err(e) => {
                eprintln!("smoke: bad address {spec}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let handle = match spawn(&ServerConfig::default()) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("smoke: spawn: {e}");
                    return ExitCode::FAILURE;
                }
            };
            (handle.addr(), Some(handle))
        }
    };
    let external = handle.is_none();
    let outcome = run(addr, external);
    if let Some(handle) = handle {
        let shutdown = client::post(addr, "/shutdown", "application/json", b"");
        handle.shutdown();
        if let Err(e) = shutdown {
            eprintln!("smoke: shutdown: {e}");
            return ExitCode::FAILURE;
        }
    }
    match outcome {
        Ok(()) => {
            println!("smoke ok");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("smoke failed: {e}");
            ExitCode::FAILURE
        }
    }
}
