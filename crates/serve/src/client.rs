//! A tiny blocking HTTP/1.1 client over one keep-alive connection — the
//! counterpart of [`crate::http`] for integration tests, the serving
//! bench, and anything else in-workspace that needs to talk to the
//! server without a network crate.
//!
//! [`Client::request_with_retry`] layers a [`RetryPolicy`] on top:
//! capped exponential backoff with decorrelated jitter, reconnecting on
//! transport errors, honoring `Retry-After`, and retrying **idempotent
//! requests only** (GETs, and `/predict` — which is read-only — but
//! never `/reload`).

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One HTTP response.
#[derive(Debug)]
pub struct Response {
    /// Status code (200, 429, ...).
    pub status: u16,
    /// Response headers in arrival order, names as sent.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// The body as UTF-8 (panics on binary bodies — fine for JSON APIs).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).expect("utf-8 body")
    }

    /// Parses the body as a JSON value tree.
    pub fn json(&self) -> serde_json::Value {
        serde_json::from_str(self.text()).expect("json body")
    }

    /// First header with this name (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// The `Retry-After` header in whole seconds, when present and valid.
    pub fn retry_after(&self) -> Option<u64> {
        self.header("Retry-After").and_then(|v| v.trim().parse().ok())
    }
}

/// Backoff shape for [`Client::request_with_retry`]: capped exponential
/// with decorrelated jitter (each sleep is drawn from
/// `uniform(base, 3 * previous_sleep)` then clamped to `cap`), so a
/// thundering herd of clients decorrelates itself after one round.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts including the first (1 disables retries).
    pub max_attempts: u32,
    /// Lower bound of every backoff draw.
    pub base: Duration,
    /// Upper clamp on any single sleep.
    pub cap: Duration,
    /// Jitter seed; any nonzero value (zero is remapped internally).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

impl RetryPolicy {
    /// True when this response status is worth retrying: the server
    /// explicitly asked us to back off and try again.
    fn retryable_status(status: u16) -> bool {
        matches!(status, 429 | 503)
    }
}

fn xorshift64(state: &mut u64) -> u64 {
    let mut x = if *state == 0 { 0x9e3779b97f4a7c15 } else { *state };
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// One decorrelated-jitter backoff step: `min(cap, uniform(base,
/// 3 * prev))`. Pure, so the schedule is unit-testable.
pub fn decorrelated_backoff(
    prev: Duration,
    base: Duration,
    cap: Duration,
    rng: &mut u64,
) -> Duration {
    let lo = base.as_millis() as u64;
    let hi = (prev.as_millis() as u64).saturating_mul(3).max(lo + 1);
    let draw = lo + xorshift64(rng) % (hi - lo);
    Duration::from_millis(draw).min(cap)
}

/// A persistent connection to one server.
pub struct Client {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects (keep-alive; one connection reused for every call).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { addr, reader: BufReader::new(stream), writer })
    }

    /// Drops the current connection and dials the server again — the
    /// recovery step after a transport error mid-retry.
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let fresh = Client::connect(self.addr)?;
        self.reader = fresh.reader;
        self.writer = fresh.writer;
        Ok(())
    }

    /// Sends an **idempotent** request with retries under `policy`:
    /// transport errors reconnect and retry; `429`/`503` honor
    /// `Retry-After` when sent, else back off with decorrelated jitter.
    /// Returns the last response (or last transport error) once attempts
    /// are exhausted. Never use for non-idempotent calls like `/reload` —
    /// a retried reload that half-applied is worse than a failed one.
    pub fn request_with_retry(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
        policy: &RetryPolicy,
    ) -> std::io::Result<Response> {
        let mut rng = policy.seed;
        let mut prev_sleep = policy.base;
        let attempts = policy.max_attempts.max(1);
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(prev_sleep);
            }
            let result = self.request_with_headers(method, path, extra_headers, body);
            match result {
                Ok(resp) if !RetryPolicy::retryable_status(resp.status) => return Ok(resp),
                Ok(resp) => {
                    if attempt + 1 == attempts {
                        return Ok(resp);
                    }
                    // The server's own hint wins over our jitter schedule.
                    prev_sleep = match resp.retry_after() {
                        Some(secs) => Duration::from_secs(secs).min(policy.cap),
                        None => decorrelated_backoff(prev_sleep, policy.base, policy.cap, &mut rng),
                    };
                }
                Err(e) => {
                    prev_sleep =
                        decorrelated_backoff(prev_sleep, policy.base, policy.cap, &mut rng);
                    last_err = Some(e);
                    // A torn connection poisons framing; always redial.
                    let _ = self.reconnect();
                }
            }
        }
        Err(last_err.unwrap_or_else(|| std::io::Error::other("retries exhausted")))
    }

    /// Sends one request and reads the response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        self.request_with_headers(method, path, &[], body)
    }

    /// [`Client::request`] with extra request headers.
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<Response> {
        // One write: under TCP_NODELAY every fragment leaves as its own
        // segment, and a server that rejects a header line (a bad
        // `X-Deadline-Us`) answers and closes before the rest arrives, so
        // writing the rest would fail with EPIPE before the answer is read.
        let mut request = Vec::with_capacity(128 + body.len());
        write!(
            request,
            "{method} {path} HTTP/1.1\r\nHost: edge-serve\r\nContent-Length: {}\r\n",
            body.len()
        )?;
        for (name, value) in extra_headers {
            write!(request, "{name}: {value}\r\n")?;
        }
        request.extend_from_slice(b"\r\n");
        request.extend_from_slice(body);
        self.writer.write_all(&request)?;
        self.read_response()
    }

    /// `POST /predict` with a single text.
    pub fn predict(&mut self, text: &str) -> std::io::Result<Response> {
        let value = serde_json::Value::Object(vec![(
            "text".to_string(),
            serde_json::Value::Str(text.to_string()),
        )]);
        let body = serde_json::to_string(&value).unwrap();
        self.request("POST", "/predict", body.as_bytes())
    }

    /// `POST /predict` with a batch of texts.
    pub fn predict_batch(&mut self, texts: &[&str]) -> std::io::Result<Response> {
        let items: Vec<serde_json::Value> =
            texts.iter().map(|t| serde_json::Value::Str(t.to_string())).collect();
        let value =
            serde_json::Value::Object(vec![("texts".to_string(), serde_json::Value::Array(items))]);
        let body = serde_json::to_string(&value).unwrap();
        self.request("POST", "/predict", body.as_bytes())
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        use std::io::BufRead;
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before status line",
            ));
        }
        let status: u16 =
            status_line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(
                || std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"),
            )?;
        let mut content_length = 0usize;
        let mut headers = Vec::new();
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof in headers",
                ));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
                headers.push((name.to_string(), value.to_string()));
            }
        }
        let mut body = vec![0u8; content_length];
        std::io::Read::read_exact(&mut self.reader, &mut body)?;
        Ok(Response { status, headers, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_and_jittered() {
        let policy = RetryPolicy::default();
        let mut rng = policy.seed;
        let mut prev = policy.base;
        let mut sleeps = Vec::new();
        for _ in 0..32 {
            prev = decorrelated_backoff(prev, policy.base, policy.cap, &mut rng);
            assert!(prev >= policy.base, "never below base: {prev:?}");
            assert!(prev <= policy.cap, "never above cap: {prev:?}");
            sleeps.push(prev);
        }
        // Decorrelated jitter must actually vary, not walk a fixed ladder.
        let distinct: std::collections::HashSet<_> = sleeps.iter().collect();
        assert!(distinct.len() > 8, "jitter produced only {} values", distinct.len());
        // A zero seed is remapped, not a degenerate all-base schedule.
        let mut zero = 0u64;
        let step = decorrelated_backoff(policy.base, policy.base, policy.cap, &mut zero);
        assert!(step >= policy.base && step <= policy.cap);
        assert_ne!(zero, 0);
    }

    #[test]
    fn retry_after_header_parses() {
        let resp = Response {
            status: 503,
            headers: vec![("retry-after".to_string(), "2".to_string())],
            body: Vec::new(),
        };
        assert_eq!(resp.retry_after(), Some(2));
        let resp = Response {
            status: 503,
            headers: vec![("Retry-After".to_string(), "soon".to_string())],
            body: Vec::new(),
        };
        assert_eq!(resp.retry_after(), None);
        assert!(RetryPolicy::retryable_status(429));
        assert!(RetryPolicy::retryable_status(503));
        assert!(!RetryPolicy::retryable_status(500));
        assert!(!RetryPolicy::retryable_status(200));
    }
}
