//! Blocking HTTP client for the service's own wire format.
//!
//! Backs `pp-serve-load`, the e2e tests, and the CI smoke job — all of
//! which need exactly "send one request, read the whole streamed
//! response". One request per connection (the server always answers
//! `Connection: close`), body read to EOF when no `Content-Length` is
//! present.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use pp_sweep::json::Value;

use crate::http;

/// A fully-read response.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Entire body (for streamed responses: every line, post-hoc).
    pub body: String,
}

impl Response {
    /// Parse a JSONL body into values, skipping blank lines.
    pub fn events(&self) -> Result<Vec<Value>, String> {
        self.body
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| Value::parse(l).map_err(|e| format!("bad event line {l:?}: {e}")))
            .collect()
    }

    /// Events with this `"event"` tag.
    pub fn events_of(&self, kind: &str) -> Result<Vec<Value>, String> {
        Ok(self
            .events()?
            .into_iter()
            .filter(|e| e.get("event").and_then(Value::as_str) == Some(kind))
            .collect())
    }
}

/// Send one request and read the response to EOF.
pub fn request(addr: SocketAddr, method: &str, target: &str, body: &str) -> io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    stream.set_nodelay(true)?;
    http::write_request(&mut stream, addr, method, target, body)?;

    // Read to EOF by hand: an error after data already arrived (e.g. a
    // reset racing the final bytes) ends the stream instead of losing
    // what we have.
    let mut bytes = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => bytes.extend_from_slice(&buf[..n]),
            Err(e) if bytes.is_empty() => return Err(e),
            Err(_) => break,
        }
    }
    let raw = String::from_utf8_lossy(&bytes).into_owned();
    let Some((head, rest)) = raw.split_once("\r\n\r\n") else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("no header/body separator in response {raw:?}"),
        ));
    };
    let status = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line in {head:?}"),
            )
        })?;
    // With Content-Length the body may be followed by nothing anyway
    // (connection: close), so read-to-EOF already captured it exactly.
    Ok(Response {
        status,
        body: rest.to_string(),
    })
}

/// `POST /cells` with a JSONL spec body; `query` like `"records=1"`.
pub fn post_cells(addr: SocketAddr, specs_jsonl: &str, query: &str) -> io::Result<Response> {
    let target = if query.is_empty() {
        "/cells".to_string()
    } else {
        format!("/cells?{query}")
    };
    request(addr, "POST", &target, specs_jsonl)
}

/// `GET /healthz`, true when the server answers ok.
pub fn healthy(addr: SocketAddr) -> bool {
    request(addr, "GET", "/healthz", "")
        .map(|r| r.status == 200)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_event_parsing_filters_by_kind() {
        let r = Response {
            status: 200,
            body: "{\"event\":\"accepted\",\"cells\":1}\n\n{\"event\":\"done\",\"total\":1}\n"
                .into(),
        };
        assert_eq!(r.events().unwrap().len(), 2);
        let done = r.events_of("done").unwrap();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].get("total").unwrap().as_u64(), Some(1));
        let bad = Response {
            status: 200,
            body: "not json\n".into(),
        };
        assert!(bad.events().is_err());
    }
}
