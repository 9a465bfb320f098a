//! `serve` — run the pipeline server until `/shutdown`.
//!
//! ```text
//! serve [--addr HOST:PORT] [--workers N] [--cache N] [--queue N] [--idle-timeout-ms N]
//! ```
//!
//! Prints one `listening on <addr>` line to stdout once bound (scripts
//! wait for it), then blocks until a client POSTs `/shutdown`.

use std::io::Write;
use std::process::ExitCode;

use fscan_serve::server::{spawn, ServerConfig};

/// Track heap traffic so `/stats` reports real `mem` figures (the
/// library stays allocator-agnostic; opting in is the binary's call).
#[global_allocator]
static ALLOC: fscan_alloctrack::TrackingAlloc = fscan_alloctrack::TrackingAlloc;

fn usage() -> String {
    "usage: serve [--addr HOST:PORT] [--workers N] [--cache N] [--queue N] [--idle-timeout-ms N]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag {
            "--addr" => config.addr = value.clone(),
            "--workers" => {
                config.workers = value
                    .parse()
                    .map_err(|_| format!("--workers: not an integer: {value}"))?;
            }
            "--cache" => {
                config.cache_capacity = value
                    .parse()
                    .map_err(|_| format!("--cache: not an integer: {value}"))?;
            }
            "--queue" => {
                config.queue_depth = value
                    .parse()
                    .map_err(|_| format!("--queue: not an integer: {value}"))?;
            }
            "--idle-timeout-ms" => {
                config.idle_timeout_ms = value
                    .parse()
                    .map_err(|_| format!("--idle-timeout-ms: not an integer: {value}"))?;
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
        i += 2;
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = match spawn(&config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    handle.join();
    ExitCode::SUCCESS
}
