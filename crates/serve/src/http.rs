//! A minimal HTTP/1.1 layer over `std::net` — just enough protocol for
//! the serving endpoints, with keep-alive and `Content-Length` framing.
//! No network crates: the build environment is offline and the request
//! shapes are fully under our control.
//!
//! Robustness posture: reads are bounded three ways. [`parse_buffered`]
//! enforces two of them: `max_body_bytes` caps buffering (memory
//! exhaustion → typed 413) and a header-count cap bounds header parsing.
//! The third, the per-request *read budget* (slow-loris), is time, so the
//! event loop enforces it: the budget is armed by the first byte of a
//! request, so an idle keep-alive connection can sit forever while a
//! half-sent request cannot.

use std::time::Duration;

use crate::float::write_u64;

/// Header-count cap so a hostile client cannot balloon memory.
const MAX_HEADERS: usize = 64;

/// Read-side limits for one request, owned by the connection loop.
#[derive(Debug, Clone, Copy)]
pub struct ReadLimits {
    /// Largest accepted request body; a bigger `Content-Length` yields
    /// [`ParseStatus::TooLarge`] without buffering the body.
    pub max_body_bytes: usize,
    /// Total wall-clock budget for reading one request once its first
    /// byte arrives, enforced by the event loop. Zero disables the bound.
    pub read_budget: Duration,
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Path without query string.
    pub path: String,
    /// Query string after the `?` (empty when absent).
    pub query: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// Client-supplied `X-Request-Id`, echoed back verbatim when present.
    pub request_id: Option<String>,
    /// Client-supplied `X-Deadline-Us` budget in microseconds, if any.
    pub deadline_us: Option<u64>,
}

impl Request {
    /// The value of `name` in the query string (`?n=32&flat`), if any.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    }
}

/// What [`parse_buffered`] found at the front of a connection's read
/// buffer. The event loop calls it after every read edge; `Partial` just
/// means "wait for more bytes".
#[derive(Debug)]
pub enum ParseStatus {
    /// The buffer does not yet hold one complete request.
    Partial,
    /// One complete request; `consumed` bytes belong to it (the rest of
    /// the buffer is the next pipelined request).
    Complete { req: Request, consumed: usize },
    /// Declared `Content-Length` exceeds `max_body_bytes` — answer 413
    /// and close without waiting for the body.
    TooLarge,
    /// Malformed framing (bad request line, bad `Content-Length`, bad
    /// `X-Deadline-Us`) — answer 400 and close.
    Bad(&'static str),
}

/// Parses one request from the front of `buf` without consuming it, for
/// event-loop connections that accumulate bytes across read edges. It
/// enforces `max_body_bytes` and the header cap (past 64 headers it
/// breaks to the body; colon-less header lines are skipped); the read
/// budget is the caller's, since it is a bound on time, not bytes.
pub fn parse_buffered(buf: &[u8], limits: &ReadLimits) -> ParseStatus {
    let mut pos = 0usize;
    let Some(line_end) = find_line(buf, pos) else {
        return ParseStatus::Partial;
    };
    let line = String::from_utf8_lossy(&buf[pos..line_end]);
    pos = line_end + 1;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    if method.is_empty() || target.is_empty() {
        return ParseStatus::Bad("malformed request line");
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };

    let mut content_length = 0usize;
    let mut keep_alive = true; // HTTP/1.1 default
    let mut request_id = None;
    let mut deadline_us = None;
    for _ in 0..MAX_HEADERS {
        let Some(line_end) = find_line(buf, pos) else {
            return ParseStatus::Partial;
        };
        let header = String::from_utf8_lossy(&buf[pos..line_end]);
        pos = line_end + 1;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = match value.parse() {
                Ok(n) => n,
                Err(_) => return ParseStatus::Bad("bad content-length"),
            };
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("x-request-id") && !value.is_empty() {
            request_id = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("x-deadline-us") {
            deadline_us = match value.parse() {
                Ok(n) => Some(n),
                Err(_) => return ParseStatus::Bad("bad x-deadline-us header"),
            };
        }
    }
    if content_length > limits.max_body_bytes {
        return ParseStatus::TooLarge;
    }
    if buf.len() < pos + content_length {
        return ParseStatus::Partial;
    }
    let body = buf[pos..pos + content_length].to_vec();
    ParseStatus::Complete {
        req: Request { method, path, query, body, keep_alive, request_id, deadline_us },
        consumed: pos + content_length,
    }
}

/// Index of the `\n` ending the line that starts at `from`, if buffered.
fn find_line(buf: &[u8], from: usize) -> Option<usize> {
    buf[from..].iter().position(|&b| b == b'\n').map(|i| from + i)
}

/// Appends one response with `Content-Length` framing, plus extra headers
/// (e.g. `X-Request-Id`) ahead of the body, reserving its size once.
pub fn write_response_with(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) {
    // The status line and fixed headers at their longest (a 5-digit
    // status, a 20-digit length, `keep-alive`), without the texts sized
    // below.
    const FIXED: usize = 97;
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    };
    let extra: usize = extra_headers.iter().map(|(name, value)| name.len() + value.len() + 4).sum();
    out.reserve(FIXED + reason.len() + content_type.len() + extra + body.len());
    out.extend_from_slice(b"HTTP/1.1 ");
    write_u64(out, status as u64);
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    write_u64(out, body.len() as u64);
    out.extend_from_slice(b"\r\nConnection: ");
    out.extend_from_slice(if keep_alive { b"keep-alive" } else { b"close" });
    out.extend_from_slice(b"\r\n");
    for (name, value) in extra_headers {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The body cap the tests parse under; the read budget plays no part
    /// in parsing.
    fn limits() -> ReadLimits {
        ReadLimits { max_body_bytes: 1 << 20, read_budget: Duration::ZERO }
    }

    /// Parses `raw`, which must hold exactly one complete request.
    fn parse_one(raw: &[u8], limits: &ReadLimits) -> Request {
        match parse_buffered(raw, limits) {
            ParseStatus::Complete { req, consumed } => {
                assert_eq!(consumed, raw.len(), "the whole buffer is one request");
                req
            }
            other => panic!("expected a complete request, got {other:?}"),
        }
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse_one(
            b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
            &limits(),
        );
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive);
        assert_eq!(req.deadline_us, None);
    }

    #[test]
    fn connection_close_and_query_strings() {
        let req = parse_one(b"GET /healthz?v=1 HTTP/1.1\r\nConnection: close\r\n\r\n", &limits());
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.query, "v=1");
        assert_eq!(req.query_param("v"), Some("1"));
        assert_eq!(req.query_param("n"), None);
        assert!(!req.keep_alive);
    }

    #[test]
    fn client_request_id_is_captured() {
        let req = parse_one(b"GET /healthz HTTP/1.1\r\nX-Request-ID: abc-7\r\n\r\n", &limits());
        assert_eq!(req.request_id.as_deref(), Some("abc-7"));
    }

    #[test]
    fn deadline_header_is_captured_and_validated() {
        let raw = b"POST /predict HTTP/1.1\r\nX-Deadline-Us: 2500\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(parse_one(raw, &limits()).deadline_us, Some(2500));
        let raw = b"POST /predict HTTP/1.1\r\nX-Deadline-Us: soon\r\n\r\n";
        assert!(
            matches!(parse_buffered(raw, &limits()), ParseStatus::Bad("bad x-deadline-us header")),
            "garbage deadline is a 400"
        );
    }

    #[test]
    fn extra_headers_are_emitted() {
        let mut out = Vec::new();
        write_response_with(
            &mut out,
            200,
            "application/json",
            &[("X-Request-Id", "req-3")],
            b"{}",
            true,
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\r\nX-Request-Id: req-3\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn empty_buffer_is_partial() {
        assert!(matches!(parse_buffered(b"", &limits()), ParseStatus::Partial));
    }

    #[test]
    fn oversized_bodies_are_a_typed_outcome() {
        let lim = ReadLimits { max_body_bytes: 64, read_budget: Duration::ZERO };
        let raw = b"POST /predict HTTP/1.1\r\nContent-Length: 65\r\n\r\n";
        assert!(matches!(parse_buffered(raw, &lim), ParseStatus::TooLarge));
        // At the limit is still fine.
        let mut raw = b"POST /p HTTP/1.1\r\nContent-Length: 64\r\n\r\n".to_vec();
        raw.extend(vec![b'x'; 64]);
        assert_eq!(parse_one(&raw, &lim).body.len(), 64);
    }

    #[test]
    fn buffered_parser_leaves_the_pipelined_tail() {
        let raw = b"POST /predict?fast=1 HTTP/1.1\r\nX-Request-Id: r9\r\nX-Deadline-Us: 2500\r\nContent-Length: 4\r\n\r\nabcdGET /next";
        let ParseStatus::Complete { req, consumed } = parse_buffered(raw, &limits()) else {
            panic!("expected a complete request")
        };
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.query_param("fast"), Some("1"));
        assert_eq!(req.request_id.as_deref(), Some("r9"));
        assert_eq!(req.deadline_us, Some(2500));
        assert_eq!(req.body, b"abcd");
        assert_eq!(&raw[consumed..], b"GET /next", "pipelined tail stays buffered");
    }

    #[test]
    fn buffered_parser_reports_partial_until_the_request_lands() {
        let full = b"POST /predict HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        for cut in 0..full.len() {
            assert!(
                matches!(parse_buffered(&full[..cut], &limits()), ParseStatus::Partial),
                "prefix of {cut} bytes must be partial"
            );
        }
        assert!(matches!(parse_buffered(full, &limits()), ParseStatus::Complete { .. }));
    }

    #[test]
    fn buffered_parser_types_bad_and_oversized_requests() {
        assert!(matches!(
            parse_buffered(b"\r\n\r\n", &limits()),
            ParseStatus::Bad("malformed request line")
        ));
        assert!(matches!(
            parse_buffered(b"POST /p HTTP/1.1\r\nContent-Length: soon\r\n\r\n", &limits()),
            ParseStatus::Bad("bad content-length")
        ));
        assert!(matches!(
            parse_buffered(b"POST /p HTTP/1.1\r\nX-Deadline-Us: soonish\r\n\r\n", &limits()),
            ParseStatus::Bad("bad x-deadline-us header")
        ));
        let lim = ReadLimits { max_body_bytes: 64, read_budget: Duration::ZERO };
        assert!(matches!(
            parse_buffered(b"POST /p HTTP/1.1\r\nContent-Length: 65\r\n\r\n", &lim),
            ParseStatus::TooLarge
        ));
    }

    #[test]
    fn response_is_framed() {
        let mut out = Vec::new();
        write_response_with(&mut out, 200, "application/json", &[], b"{}", true);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
