//! A deliberately small HTTP/1.1 subset over `std::net` — just enough for
//! the query service, no new dependencies.
//!
//! One request per connection (`Connection: close` on every response):
//! keep-alive would let an idle client pin an IO worker, which defeats the
//! bounded-queue admission control. The parser enforces hard limits (head
//! size, body size, mandatory `Content-Length` on bodies) and classifies
//! failures into the pinned status codes the fault-injection suite locks
//! down.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Largest accepted request head (request line + headers), bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Largest accepted request body, bytes. Query bodies are line-oriented
/// text; 1 MiB is tens of thousands of queries.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// A parsed request: method + path + raw body.
#[derive(Debug)]
pub struct Request {
    /// The request method, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// The request path, verbatim (no query-string splitting; the service
    /// has none).
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Why a request could not be read. Each variant maps to one pinned
/// response (or, for [`HttpError::Disconnect`], to silence).
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line or headers → `400`.
    BadRequest(String),
    /// A body-carrying method without `Content-Length` → `411`.
    LengthRequired,
    /// Declared body larger than [`MAX_BODY_BYTES`] → `413`.
    PayloadTooLarge,
    /// The client vanished mid-request (or a socket error); nobody is
    /// listening for a response, so none is written.
    Disconnect,
}

/// Read and parse one request from the stream (a socket in the server;
/// any byte source in tests).
pub fn read_request<R: Read>(stream: &mut R) -> Result<Request, HttpError> {
    let head = read_head(stream)?;
    let head_text = String::from_utf8_lossy(&head.bytes);
    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m.to_string(), p.to_string(), v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line {request_line:?} (expected `METHOD PATH HTTP/1.x`)"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol version {version:?}"
        )));
    }

    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!(
                "malformed header line {line:?}"
            )));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            let n: usize = value.trim().parse().map_err(|_| {
                HttpError::BadRequest(format!("unparsable Content-Length {:?}", value.trim()))
            })?;
            content_length = Some(n);
        }
    }

    let body = match content_length {
        None if method == "POST" || method == "PUT" => return Err(HttpError::LengthRequired),
        None => Vec::new(),
        Some(n) if n > MAX_BODY_BYTES => return Err(HttpError::PayloadTooLarge),
        Some(n) => {
            let mut body = head.overflow;
            if body.len() > n {
                return Err(HttpError::BadRequest(
                    "request carries more bytes than Content-Length declares".to_string(),
                ));
            }
            let start = body.len();
            body.resize(n, 0);
            // A client that dies mid-body gets silence, not a response.
            stream
                .read_exact(&mut body[start..])
                .map_err(|_| HttpError::Disconnect)?;
            body
        }
    };
    Ok(Request { method, path, body })
}

struct Head {
    /// The request line + headers, up to and including the blank line.
    bytes: Vec<u8>,
    /// Body bytes that arrived in the same reads as the head.
    overflow: Vec<u8>,
}

/// Read until the `\r\n\r\n` head terminator, capping at
/// [`MAX_HEAD_BYTES`]. EOF before the terminator is a truncated request
/// (400) if anything arrived, a silent disconnect otherwise.
fn read_head<R: Read>(stream: &mut R) -> Result<Head, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(end) = find_terminator(&buf) {
            let overflow = buf.split_off(end);
            return Ok(Head {
                bytes: buf,
                overflow,
            });
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::BadRequest(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(HttpError::Disconnect),
        };
        if n == 0 {
            return if buf.is_empty() {
                Err(HttpError::Disconnect)
            } else {
                Err(HttpError::BadRequest(
                    "truncated request: connection closed before the header terminator".to_string(),
                ))
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Byte offset just past the first `\r\n\r\n`, if present.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// A response ready to serialize: status, body, optional extra headers.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Extra header lines (no trailing CRLF), e.g. `Retry-After: 1`.
    pub extra: Vec<String>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body,
            extra: Vec::new(),
        }
    }

    /// A plain-text response (the `/metrics` format).
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
            extra: Vec::new(),
        }
    }

    /// Attach an extra header line (without the trailing CRLF).
    pub fn with_header(mut self, line: impl Into<String>) -> Self {
        self.extra.push(line.into());
        self
    }

    /// Serialize and send. Write errors are ignored by callers (the
    /// client already hung up).
    pub fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
        );
        for line in &self.extra {
            head.push_str(line);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

/// Reason phrase for the status codes this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_is_found_with_offset() {
        assert_eq!(find_terminator(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(find_terminator(b"partial\r\n"), None);
    }

    #[test]
    fn reasons_cover_the_contract() {
        for s in [200, 400, 404, 405, 409, 411, 413, 422, 500, 503] {
            assert_ne!(reason(s), "Unknown", "status {s}");
        }
    }
}
