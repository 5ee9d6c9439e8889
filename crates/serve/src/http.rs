//! Minimal HTTP/1.1 framing over blocking streams.
//!
//! The service speaks exactly the slice of HTTP/1.1 its clients need:
//! one request per connection, `Content-Length` bodies, and either a
//! fixed response or a streamed `Connection: close` body whose end is
//! signalled by closing the socket. No chunked encoding, no keep-alive,
//! no TLS — the daemon is a lab-internal cache front, not a web server,
//! and the build environment has no HTTP crate to lean on anyway.

use std::io::{self, BufRead, Write};
use std::net::SocketAddr;

/// Parse limits: a request that exceeds these is rejected before any
/// simulation work is admitted.
pub const MAX_HEADERS: usize = 64;
/// Upper bound on request body size (1 MiB of JSONL specs ≈ tens of
/// thousands of cells — far beyond anything a sane client submits).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// A parsed request: method, target (path + optional query), body.
#[derive(Clone, Debug)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Request target as sent, e.g. `/cells?records=1`.
    pub target: String,
    /// Lower-cased header names with their values.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Path component of the target (before `?`).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// Query string (after `?`), if any.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    /// Value of `name` in the query string (`?a=1&b=2`), if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query()?
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    }

    /// True when the query has `name=1` or a bare `name` flag.
    pub fn query_flag(&self, name: &str) -> bool {
        self.query().is_some_and(|q| {
            q.split('&')
                .any(|kv| kv == name || kv == format!("{name}=1"))
        })
    }

    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Errors from [`read_request`] that deserve a 4xx rather than a
/// dropped connection.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed request line or headers.
    Malformed(String),
    /// Body longer than [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Malformed(what) => write!(f, "malformed request: {what}"),
            ParseError::BodyTooLarge(n) => {
                write!(f, "body of {n} bytes exceeds limit of {MAX_BODY_BYTES}")
            }
        }
    }
}

/// Read one request off `r`. `Ok(None)` means the peer closed before
/// sending anything (a health-probe disconnect, not an error).
pub fn read_request(r: &mut impl BufRead) -> io::Result<Result<Option<Request>, ParseError>> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Ok(Ok(None));
    }
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/1.") => (m.to_string(), t.to_string()),
        _ => {
            return Ok(Err(ParseError::Malformed(format!(
                "bad request line {:?}",
                line.trim_end()
            ))))
        }
    };

    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        if r.read_line(&mut h)? == 0 {
            return Ok(Err(ParseError::Malformed("eof in headers".into())));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Ok(Err(ParseError::Malformed("too many headers".into())));
        }
        let Some((name, value)) = h.split_once(':') else {
            return Ok(Err(ParseError::Malformed(format!("bad header {h:?}"))));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = match value.parse() {
                Ok(n) => n,
                Err(_) => {
                    return Ok(Err(ParseError::Malformed(format!(
                        "bad content-length {value:?}"
                    ))))
                }
            };
        }
        headers.push((name, value));
    }

    if content_length > MAX_BODY_BYTES {
        return Ok(Err(ParseError::BodyTooLarge(content_length)));
    }
    let mut body = vec![0u8; content_length];
    r.read_exact(&mut body)?;
    Ok(Ok(Some(Request {
        method,
        target,
        headers,
        body,
    })))
}

/// Reason phrase for the handful of status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Send one whole message in a single `write_all`, then flush. Sockets
/// here are unbuffered: each `write` leaves as its own segment, and a
/// message split over several could wait on the peer's acknowledgement
/// of the first part wherever Nagle's algorithm is on.
fn send(w: &mut impl Write, message: &str) -> io::Result<()> {
    w.write_all(message.as_bytes())?;
    w.flush()
}

/// Write one request: request line, `host`, `content-length` and
/// `connection: close` headers, then the body. The client's only
/// encoder.
pub(crate) fn write_request(
    w: &mut impl Write,
    host: SocketAddr,
    method: &str,
    target: &str,
    body: &str,
) -> io::Result<()> {
    send(
        w,
        &format!(
            "{method} {target} HTTP/1.1\r\nhost: {host}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len(),
        ),
    )
}

/// Write a complete (non-streamed) JSON response with `Content-Length`.
pub fn write_response(w: &mut impl Write, status: u16, body: &str) -> io::Result<()> {
    write_response_typed(w, status, "application/json", body)
}

/// Write a complete response with an explicit content type — the
/// Prometheus exposition (`GET /metrics`) and the flight-recorder dump
/// (`GET /flight`) are not JSON.
pub fn write_response_typed(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    send(
        w,
        &format!(
            "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            reason(status),
            body.len(),
        ),
    )
}

/// Start a streamed response: status line plus headers, no
/// `Content-Length` — the body is JSONL written line by line and ends
/// when the connection closes (that is what `connection: close` means
/// to an HTTP/1.1 peer).
pub fn start_stream(w: &mut impl Write, status: u16) -> io::Result<()> {
    send(
        w,
        &format!(
            "HTTP/1.1 {status} {}\r\ncontent-type: application/x-ndjson\r\nconnection: close\r\n\r\n",
            reason(status),
        ),
    )
}

/// Write one JSONL line of a streamed body and flush, so clients see
/// progress as it happens rather than on close.
pub fn stream_line(w: &mut impl Write, line: &str) -> io::Result<()> {
    send(w, &format!("{line}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &str) -> Result<Option<Request>, ParseError> {
        read_request(&mut BufReader::new(text.as_bytes())).unwrap()
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse("POST /cells?records=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap()
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/cells");
        assert!(req.query_flag("records"));
        assert!(!req.query_flag("trace"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn parses_get_without_body_and_query_params() {
        let req = parse("GET /stats?hold_ms=25&x=y HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/stats");
        assert_eq!(req.query_param("hold_ms"), Some("25"));
        assert_eq!(req.query_param("x"), Some("y"));
        assert_eq!(req.query_param("absent"), None);
        assert!(req.body.is_empty());
    }

    #[test]
    fn empty_connection_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn rejects_garbage_and_oversized_bodies() {
        assert!(matches!(
            parse("not http\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&huge), Err(ParseError::BodyTooLarge(_))));
    }

    /// A `Write` double that records its bytes and counts `write` calls.
    #[derive(Default)]
    struct Counting {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// What `emit` writes, asserting that it makes exactly one `write`.
    fn one_write(emit: impl FnOnce(&mut Counting) -> io::Result<()>) -> String {
        let mut w = Counting::default();
        emit(&mut w).unwrap();
        assert_eq!(w.writes, 1, "message split over {} writes", w.writes);
        String::from_utf8(w.bytes).unwrap()
    }

    #[test]
    fn each_response_message_is_one_write_of_unchanged_bytes() {
        assert_eq!(
            one_write(|w| write_response(w, 429, "{\"error\":\"busy\"}")),
            "HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\n\
             content-length: 16\r\nconnection: close\r\n\r\n{\"error\":\"busy\"}"
        );
        assert_eq!(
            one_write(|w| write_response_typed(w, 200, "text/plain", "up 1\n")),
            "HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 5\r\n\
             connection: close\r\n\r\nup 1\n"
        );
        assert_eq!(
            one_write(|w| start_stream(w, 200)),
            "HTTP/1.1 200 OK\r\ncontent-type: application/x-ndjson\r\nconnection: close\r\n\r\n"
        );
        assert_eq!(
            one_write(|w| stream_line(w, "{\"event\":\"done\"}")),
            "{\"event\":\"done\"}\n"
        );
    }

    #[test]
    fn a_request_is_one_write_of_unchanged_bytes() {
        let host: SocketAddr = "127.0.0.1:7717".parse().unwrap();
        assert_eq!(
            one_write(|w| write_request(w, host, "POST", "/cells?records=1", "{}\n")),
            "POST /cells?records=1 HTTP/1.1\r\nhost: 127.0.0.1:7717\r\ncontent-length: 3\r\n\
             connection: close\r\n\r\n{}\n"
        );
        assert_eq!(
            one_write(|w| write_request(w, host, "GET", "/healthz", "")),
            "GET /healthz HTTP/1.1\r\nhost: 127.0.0.1:7717\r\ncontent-length: 0\r\n\
             connection: close\r\n\r\n"
        );
    }

    #[test]
    fn response_framing_round_trips() {
        let mut out = Vec::new();
        write_response(&mut out, 429, "{\"error\":\"busy\"}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("content-length: 16"));
        assert!(text.ends_with("{\"error\":\"busy\"}"));

        let mut out = Vec::new();
        start_stream(&mut out, 200).unwrap();
        stream_line(&mut out, "{\"event\":\"accepted\"}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("application/x-ndjson"));
        assert!(text.ends_with("{\"event\":\"accepted\"}\n"));
    }
}
