//! A minimal blocking client for the server's endpoints.
//!
//! The free functions ([`get`], [`post`], [`post_run`]) open one
//! connection per exchange and send `Connection: close`; [`Session`]
//! holds a keep-alive connection open and loops exchanges over it,
//! matching the server's persistent-connection model. Used by the
//! `smoke` binary and the integration tests; deliberately
//! dependency-free so CI can exercise the full wire format without
//! external tooling.
//!
//! Like the server, the client turns Nagle off (`TCP_NODELAY`) and sends
//! each request's head and body as one vectored write, so a request
//! never waits on the server's delayed ACK of its head.

use std::io::{IoSlice, Write};
use std::net::{SocketAddr, TcpStream};

use fscan::json::{config_to_value, Value};
use fscan::PipelineConfig;

use crate::http::{read_response, write_all_vectored, RequestError, Response};

/// Everything needed to POST one `/run`.
#[derive(Clone, Debug)]
pub struct RunRequest<'a> {
    /// The `.bench` netlist text.
    pub bench: &'a str,
    /// Circuit name recorded in the report.
    pub name: &'a str,
    /// Scan chain count for functional scan insertion.
    pub chains: usize,
    /// Pipeline configuration; `None` uses the server default.
    pub config: Option<&'a PipelineConfig>,
    /// Request chunked per-checkpoint streaming.
    pub stream: bool,
}

impl<'a> RunRequest<'a> {
    /// A default-configured, non-streaming request.
    pub fn new(bench: &'a str, name: &'a str, chains: usize) -> RunRequest<'a> {
        RunRequest {
            bench,
            name,
            chains,
            config: None,
            stream: false,
        }
    }

    /// The JSON envelope the server accepts.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("bench", Value::Str(self.bench.to_string())),
            ("name", Value::Str(self.name.to_string())),
            ("chains", Value::UInt(self.chains as u64)),
        ];
        if let Some(config) = self.config {
            fields.push(("config", config_to_value(config)));
        }
        if self.stream {
            fields.push(("stream", Value::Bool(true)));
        }
        Value::object(fields).render_compact()
    }
}

/// Opens a connection with Nagle off.
fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Sends one request (head and body in one write) and reads the
/// response.
fn send(stream: &mut TcpStream, head: &str, body: &[u8]) -> Result<Response, RequestError> {
    write_all_vectored(
        stream,
        &mut [IoSlice::new(head.as_bytes()), IoSlice::new(body)],
    )?;
    stream.flush()?;
    read_response(stream)
}

fn exchange(addr: SocketAddr, head: &str, body: &[u8]) -> Result<Response, RequestError> {
    send(&mut connect(addr)?, head, body)
}

/// Sends `GET path`.
pub fn get(addr: SocketAddr, path: &str) -> Result<Response, RequestError> {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nhost: fscan\r\nconnection: close\r\n\r\n"),
        b"",
    )
}

/// Sends `POST path` with an arbitrary body.
pub fn post(
    addr: SocketAddr,
    path: &str,
    content_type: &str,
    body: &[u8],
) -> Result<Response, RequestError> {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nhost: fscan\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            body.len()
        ),
        body,
    )
}

/// Sends a `/run` request as the JSON envelope.
pub fn post_run(addr: SocketAddr, run: &RunRequest<'_>) -> Result<Response, RequestError> {
    post(addr, "/run", "application/json", run.to_json().as_bytes())
}

/// A persistent (keep-alive) connection to the server: every exchange
/// reuses the one socket, so repeat clients pay connection setup once.
///
/// Responses are read to completion before the next request is sent
/// (no pipelining), which keeps the one-reader-per-exchange model
/// sound: the server cannot have sent any bytes beyond the response
/// just consumed.
pub struct Session {
    stream: TcpStream,
}

impl Session {
    /// Opens a connection for a sequence of exchanges.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Session> {
        Ok(Session {
            stream: connect(addr)?,
        })
    }

    fn exchange(&mut self, head: &str, body: &[u8]) -> Result<Response, RequestError> {
        send(&mut self.stream, head, body)
    }

    /// Sends `GET path` on the held connection.
    pub fn get(&mut self, path: &str) -> Result<Response, RequestError> {
        self.exchange(
            &format!("GET {path} HTTP/1.1\r\nhost: fscan\r\nconnection: keep-alive\r\n\r\n"),
            b"",
        )
    }

    /// Sends `POST path` with an arbitrary body on the held connection.
    pub fn post(
        &mut self,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> Result<Response, RequestError> {
        self.exchange(
            &format!(
                "POST {path} HTTP/1.1\r\nhost: fscan\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n",
                body.len()
            ),
            body,
        )
    }

    /// Sends a `/run` request as the JSON envelope on the held
    /// connection.
    pub fn post_run(&mut self, run: &RunRequest<'_>) -> Result<Response, RequestError> {
        self.post("/run", "application/json", run.to_json().as_bytes())
    }
}
