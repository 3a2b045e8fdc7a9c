//! Minimal HTTP/1.1 request parsing and response writing.
//!
//! Lives beside the length-prefixed [`crate::frame`] codec: the benchmark
//! server listens on two sockets, one speaking `genbase-coord-v4` frames and
//! one speaking just enough HTTP for `GET /status`, `GET /metrics` and
//! `POST /query`. This is deliberately not a web server — one request per
//! connection, `Connection: close`, no chunked transfer encoding, no
//! keep-alive — so the parser stays small, allocation-bounded and auditable.

use std::io::{self, BufRead, Write};

/// Maximum accepted length of the request line or any single header line.
pub const MAX_LINE_BYTES: usize = 8 * 1024;

/// Maximum number of header lines accepted per request.
pub const MAX_HEADERS: usize = 64;

/// Maximum accepted request body size (1 MiB — query requests are tiny).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request: method, path and headers, plus the body when a
/// `Content-Length` was supplied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target, e.g. `/metrics` (query strings are kept verbatim).
    pub path: String,
    /// Header `(name, value)` pairs; names are lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was present).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// The value of the named header (ASCII case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

fn protocol_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Read one line terminated by `\n`, stripping a trailing `\r`.
/// Returns `None` on clean EOF before any byte of the line.
fn read_line(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match io::Read::read(r, &mut byte)? {
            0 => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(protocol_err("unexpected EOF mid-line"));
            }
            _ => {
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    let line = String::from_utf8(buf)
                        .map_err(|_| protocol_err("non-UTF-8 header line"))?;
                    return Ok(Some(line));
                }
                buf.push(byte[0]);
                if buf.len() > MAX_LINE_BYTES {
                    return Err(protocol_err("header line exceeds limit"));
                }
            }
        }
    }
}

/// Parse one HTTP/1.1 request from the reader.
///
/// Returns `Ok(None)` when the connection closed cleanly before a request
/// line, and an `InvalidData` error on any malformed input (bad request
/// line, oversized header or body, invalid `Content-Length`).
pub fn read_request(r: &mut impl BufRead) -> io::Result<Option<HttpRequest>> {
    let request_line = match read_line(r)? {
        None => return Ok(None),
        Some(line) => line,
    };
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| protocol_err("empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| protocol_err("request line missing path"))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| protocol_err("request line missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(protocol_err(format!("unsupported version {version:?}")));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?.ok_or_else(|| protocol_err("EOF before end of headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(protocol_err("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| protocol_err("malformed header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut body = Vec::new();
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| v.parse::<usize>())
        .transpose()
        .map_err(|_| protocol_err("invalid Content-Length"))?;
    if let Some(len) = content_length {
        if len > MAX_BODY_BYTES {
            return Err(protocol_err("request body exceeds limit"));
        }
        body.resize(len, 0);
        io::Read::read_exact(r, &mut body).map_err(|_| protocol_err("EOF mid-body"))?;
    }

    Ok(Some(HttpRequest {
        method,
        path,
        headers,
        body,
    }))
}

/// The canonical reason phrase for the status codes the server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        500 => "Internal Server Error",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Error",
    }
}

/// Write a complete `Connection: close` HTTP/1.1 response and flush.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_reason(status),
        body.len()
    )?;
    w.write_all(body)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_get_request() {
        let raw = b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n";
        let req = read_request(&mut Cursor::new(&raw[..])).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.header("host"), Some("localhost"));
        assert_eq!(req.header("HOST"), Some("localhost"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /query HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"a\": 1}x";
        let req = read_request(&mut Cursor::new(&raw[..])).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\": 1}x");
    }

    #[test]
    fn clean_eof_is_none() {
        let req = read_request(&mut Cursor::new(&b""[..])).unwrap();
        assert!(req.is_none());
    }

    #[test]
    fn bare_lf_lines_accepted() {
        let raw = b"GET /status HTTP/1.1\nHost: x\n\n";
        let req = read_request(&mut Cursor::new(&raw[..])).unwrap().unwrap();
        assert_eq!(req.path, "/status");
    }

    #[test]
    fn malformed_inputs_error() {
        for raw in [
            &b"GET\r\n\r\n"[..],
            &b"GET /x SPDY/3\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort"[..],
        ] {
            assert!(read_request(&mut Cursor::new(raw)).is_err(), "{raw:?}");
        }
    }

    #[test]
    fn oversized_body_rejected() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(read_request(&mut Cursor::new(raw.as_bytes())).is_err());
    }

    #[test]
    fn response_shape() {
        let mut out = Vec::new();
        write_response(&mut out, 429, "text/plain", b"queue full").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 10\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nqueue full"));
    }
}
