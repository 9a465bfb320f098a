//! A deliberately small HTTP/1.1 layer over [`std::net::TcpStream`].
//!
//! The build environment is offline, so the server cannot lean on hyper
//! or tokio; it speaks exactly the subset of HTTP/1.1 its own endpoints
//! and smoke client need: request lines with an `origin-form` target,
//! `Content-Length` bodies (bounded), fixed-length responses, and
//! `Transfer-Encoding: chunked` responses for the streaming mode.
//! Connections are persistent by default (HTTP/1.1 keep-alive): the
//! server loops requests on one socket until the client sends
//! `Connection: close` or the idle timeout fires. To make that safe,
//! [`read_request`] is generic over [`BufRead`] — the connection loop
//! owns one buffered reader for the socket's whole lifetime, so bytes
//! read ahead of one request (the start of a pipelined next one) are
//! not lost between requests.
//!
//! ## Wire path: one write per response
//!
//! Every accepted socket runs with `TCP_NODELAY` (set by the accept
//! loop), so the kernel sends whatever one write hands it at once. The
//! writers here do their own coalescing instead: [`write_response`]
//! sends head and body as one vectored write, [`start_chunked`] sends
//! its head as one write, and each [`ChunkedWriter::chunk`] sends size
//! line, payload and trailing CRLF as one vectored write — no body is
//! copied, and short writes are resumed where they stopped.
//! Under Nagle, a body written after its head waited for the peer's
//! ACK of the head, which a delayed ACK holds back for up to ~40 ms:
//! that stall used to be ~44 ms of the ~48 ms median `/eco` exchange
//! (DESIGN §6 records the before and after).

use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::TcpStream;

/// Upper bound on an accepted request body (`.bench` uploads are text;
/// the largest suite circuits are well under a megabyte).
pub const MAX_BODY: usize = 16 * 1024 * 1024;

/// Upper bound on the request head (request line plus headers).
const MAX_HEAD: usize = 64 * 1024;

/// A parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Request method, uppercased (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path component of the target (no query string).
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a (lowercase) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`); absent the header, HTTP/1.1
    /// connections persist.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// First value of a query parameter, if present.
    pub fn query(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestError {
    /// The connection dropped or a read failed.
    Io(String),
    /// The request line or a header was malformed.
    Malformed(String),
    /// The declared body length exceeded [`MAX_BODY`].
    TooLarge(usize),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Io(e) => write!(f, "i/o error: {e}"),
            RequestError::Malformed(m) => write!(f, "malformed request: {m}"),
            RequestError::TooLarge(n) => write!(f, "body of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> RequestError {
        RequestError::Io(e.to_string())
    }
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Reads one HTTP/1.1 request from a buffered reader.
///
/// The caller owns the reader: on a keep-alive connection the same
/// reader serves every request, so read-ahead stays in its buffer
/// instead of being dropped between exchanges.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, RequestError> {
    let mut head = String::new();
    let mut line = String::new();

    // Request line.
    reader.read_line(&mut line)?;
    if line.is_empty() {
        return Err(RequestError::Io("connection closed before request".into()));
    }
    let request_line = line.trim_end().to_string();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing request target".into()))?
        .to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => {
            return Err(RequestError::Malformed(
                "expected an HTTP/1.x version".into(),
            ))
        }
    }

    // Headers.
    let mut headers = Vec::new();
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        if line.is_empty() {
            return Err(RequestError::Io("connection closed inside headers".into()));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        head.push_str(&line);
        if head.len() > MAX_HEAD {
            return Err(RequestError::Malformed("request head too large".into()));
        }
        let (name, value) = trimmed
            .split_once(':')
            .ok_or_else(|| RequestError::Malformed(format!("header without colon: {trimmed}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // Body: Content-Length only (requests never use chunked here).
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| RequestError::Malformed(format!("bad content-length: {v}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(RequestError::TooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (percent_decode(p), parse_query(q)),
        None => (percent_decode(&target), Vec::new()),
    };
    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes every byte of `bufs` with as few write calls as the writer
/// allows: one vectored write when it takes everything, resumed past
/// the written prefix (`IoSlice::advance_slices`) after a short write.
/// The buffers are written in place, never concatenated into a copy.
pub(crate) fn write_all_vectored<W: Write>(
    writer: &mut W,
    mut bufs: &mut [IoSlice<'_>],
) -> io::Result<()> {
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match writer.write_vectored(bufs) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole buffer",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The status line and headers shared by both response shapes, ending
/// in the blank line that separates them from the body.
fn response_head(
    status: u16,
    content_type: &str,
    framing: &str,
    extra_headers: &[(&str, &str)],
    close: bool,
) -> String {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\n{}\r\nconnection: {}\r\n",
        status,
        reason(status),
        content_type,
        framing,
        if close { "close" } else { "keep-alive" }
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    head
}

/// Writes a complete fixed-length response — head and body in one
/// vectored write — and flushes it. `close` selects the `Connection`
/// header: `close` ends the exchange loop, `keep-alive` invites the
/// client to reuse the socket.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    let framing = format!("content-length: {}", body.len());
    let head = response_head(status, content_type, &framing, extra_headers, close);
    write_all_vectored(
        stream,
        &mut [IoSlice::new(head.as_bytes()), IoSlice::new(body)],
    )?;
    stream.flush()
}

/// An in-flight `Transfer-Encoding: chunked` response.
///
/// Created by [`start_chunked`]; each [`chunk`](ChunkedWriter::chunk)
/// goes out as one write so the client observes checkpoints as they
/// complete, and [`finish`](ChunkedWriter::finish) terminates the body.
pub struct ChunkedWriter<'a, W: Write> {
    stream: &'a mut W,
}

impl<W: Write> ChunkedWriter<'_, W> {
    /// Sends one chunk — size line, payload and CRLF in one vectored
    /// write (empty input is skipped: a zero-length chunk would
    /// terminate the body).
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let size = format!("{:x}\r\n", data.len());
        write_all_vectored(
            self.stream,
            &mut [
                IoSlice::new(size.as_bytes()),
                IoSlice::new(data),
                IoSlice::new(b"\r\n"),
            ],
        )?;
        self.stream.flush()
    }

    /// Terminates the chunked body.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// Writes a chunked-response head (one write) and returns the body
/// writer. The chunked framing self-delimits, so `close: false` keeps
/// the connection reusable after [`ChunkedWriter::finish`].
pub fn start_chunked<'a, W: Write>(
    stream: &'a mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    close: bool,
) -> io::Result<ChunkedWriter<'a, W>> {
    let head = response_head(
        status,
        content_type,
        "transfer-encoding: chunked",
        extra_headers,
        close,
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()?;
    Ok(ChunkedWriter { stream })
}

/// A response as read back by the client side.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The full body. For chunked responses this is the concatenation
    /// of all chunks; [`Response::chunks`] preserves the boundaries.
    pub body: Vec<u8>,
    /// Chunk payloads in arrival order (empty for fixed-length bodies).
    pub chunks: Vec<Vec<u8>>,
}

impl Response {
    /// First value of a (lowercase) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one HTTP/1.1 response (fixed-length or chunked).
pub fn read_response(stream: &mut TcpStream) -> Result<Response, RequestError> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| RequestError::Malformed(format!("bad status line: {line}")))?;

    let mut headers = Vec::new();
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let (name, value) = trimmed
            .split_once(':')
            .ok_or_else(|| RequestError::Malformed(format!("header without colon: {trimmed}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let mut body = Vec::new();
    let mut chunks = Vec::new();
    if chunked {
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let size = usize::from_str_radix(line.trim(), 16)
                .map_err(|_| RequestError::Malformed(format!("bad chunk size: {line}")))?;
            if size > MAX_BODY || body.len() + size > MAX_BODY {
                return Err(RequestError::TooLarge(body.len() + size));
            }
            let mut chunk = vec![0u8; size];
            reader.read_exact(&mut chunk)?;
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf)?;
            if size == 0 {
                break;
            }
            body.extend_from_slice(&chunk);
            chunks.push(chunk);
        }
    } else {
        let length = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse::<usize>().ok());
        match length {
            Some(n) if n > MAX_BODY => return Err(RequestError::TooLarge(n)),
            Some(n) => {
                body = vec![0u8; n];
                reader.read_exact(&mut body)?;
            }
            // No length: read to connection close.
            None => {
                reader.read_to_end(&mut body)?;
            }
        }
    }
    Ok(Response {
        status,
        headers,
        body,
        chunks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    fn roundtrip(raw: &str) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let sender = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
        });
        let (conn, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(conn);
        let req = read_request(&mut reader);
        sender.join().unwrap();
        req
    }

    #[test]
    fn parses_a_post_with_query_and_body() {
        let req = roundtrip(
            "POST /run?name=s27&chains=2&stream=1 HTTP/1.1\r\ncontent-type: text/plain\r\ncontent-length: 5\r\n\r\nhello",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.query("name"), Some("s27"));
        assert_eq!(req.query("chains"), Some("2"));
        assert_eq!(req.query("stream"), Some("1"));
        assert_eq!(req.header("content-type"), Some("text/plain"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn percent_decoding_applies_to_query_values() {
        let req = roundtrip("GET /stats?name=a%2Fb+c HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query("name"), Some("a/b c"));
    }

    #[test]
    fn rejects_malformed_request_lines() {
        assert!(matches!(
            roundtrip("NONSENSE\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            roundtrip("GET / SMTP/3\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_bodies_without_reading_them() {
        let huge = format!(
            "POST /run HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(roundtrip(&huge), Err(RequestError::TooLarge(_))));
    }

    #[test]
    fn fixed_and_chunked_responses_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            write_response(
                &mut conn,
                200,
                "application/json",
                &[("x-fscan-cache", "hit")],
                b"{}",
                true,
            )
            .unwrap();
            let (mut conn, _) = listener.accept().unwrap();
            let mut w = start_chunked(&mut conn, 200, "application/jsonl", &[], true).unwrap();
            w.chunk(b"one\n").unwrap();
            w.chunk(b"").unwrap(); // skipped, must not terminate
            w.chunk(b"two\n").unwrap();
            w.finish().unwrap();
        });

        let mut s = TcpStream::connect(addr).unwrap();
        let fixed = read_response(&mut s).unwrap();
        assert_eq!(fixed.status, 200);
        assert_eq!(fixed.header("x-fscan-cache"), Some("hit"));
        assert_eq!(fixed.body, b"{}");
        assert!(fixed.chunks.is_empty());

        let mut s = TcpStream::connect(addr).unwrap();
        let streamed = read_response(&mut s).unwrap();
        assert_eq!(streamed.status, 200);
        assert_eq!(streamed.chunks.len(), 2);
        assert_eq!(streamed.text(), "one\ntwo\n");
        server.join().unwrap();
    }

    /// Records every write call and accepts at most `limit` bytes per
    /// call, like a socket whose send buffer is nearly full.
    struct Recorder {
        writes: Vec<Vec<u8>>,
        limit: usize,
    }

    impl Recorder {
        fn new(limit: usize) -> Recorder {
            Recorder {
                writes: Vec::new(),
                limit,
            }
        }

        fn text(&self) -> String {
            String::from_utf8(self.writes.concat()).unwrap()
        }
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut call = Vec::new();
            for buf in bufs {
                let take = buf.len().min(self.limit - call.len());
                call.extend_from_slice(&buf[..take]);
            }
            let n = call.len();
            self.writes.push(call);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_fixed_response_is_one_write() {
        let mut w = Recorder::new(usize::MAX);
        write_response(
            &mut w,
            200,
            "application/json",
            &[("x-fscan-cache", "hit")],
            b"{}",
            false,
        )
        .unwrap();
        write_response(&mut w, 503, "application/json", &[], b"", true).unwrap();
        assert_eq!(w.writes.len(), 2);
        assert_eq!(
            w.text(),
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\
             connection: keep-alive\r\nx-fscan-cache: hit\r\n\r\n{}\
             HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
             content-length: 0\r\nconnection: close\r\n\r\n"
        );
    }

    #[test]
    fn the_chunked_head_and_each_chunk_are_one_write() {
        let mut w = Recorder::new(usize::MAX);
        let mut chunks = start_chunked(&mut w, 200, "application/x-ndjson", &[], false).unwrap();
        chunks.chunk(b"one\n").unwrap();
        chunks.chunk(b"").unwrap();
        chunks.chunk(b"two\n").unwrap();
        chunks.finish().unwrap();
        let writes: Vec<String> = w
            .writes
            .iter()
            .map(|b| String::from_utf8(b.clone()).unwrap())
            .collect();
        assert_eq!(
            writes,
            [
                "HTTP/1.1 200 OK\r\ncontent-type: application/x-ndjson\r\n\
                 transfer-encoding: chunked\r\nconnection: keep-alive\r\n\r\n",
                "4\r\none\n\r\n",
                "4\r\ntwo\n\r\n",
                "0\r\n\r\n",
            ]
        );
    }

    #[test]
    fn short_writes_resume_where_they_stopped() {
        let body = b"0123456789abcdefghij";
        let mut whole = Recorder::new(usize::MAX);
        write_response(&mut whole, 200, "text/plain", &[], body, true).unwrap();
        let mut trickle = Recorder::new(7);
        write_response(&mut trickle, 200, "text/plain", &[], body, true).unwrap();
        assert_eq!(trickle.text(), whole.text());
        assert_eq!(trickle.writes.len(), whole.text().len().div_ceil(7));

        let mut trickle = Recorder::new(3);
        start_chunked(&mut trickle, 200, "text/plain", &[], true)
            .unwrap()
            .chunk(body)
            .unwrap();
        assert!(trickle.text().ends_with("14\r\n0123456789abcdefghij\r\n"));
    }

    #[test]
    fn a_writer_that_takes_nothing_is_an_error() {
        let mut stuck = Recorder::new(0);
        let err = write_response(&mut stuck, 200, "text/plain", &[], b"x", true).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }
}
