//! The load generator: one process, at most two threads and two
//! keep-alive connections (this benchmark's `nproc`), speaking raw
//! HTTP/1.1 with pipelining.
//!
//! - [`open_loop`] sends request `k` at its due time `t0 + due[k]`
//!   whatever the server is doing, and times each request from that due
//!   time, so a stall is billed to every request queued behind it. How
//!   late the generator itself ran is recorded per request.
//! - [`closed_loop`] keeps a fixed number of requests in flight per
//!   connection and counts what completes inside the window. With one
//!   connection and one request in flight it is a single user waiting for
//!   each answer before asking again.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Connections (and threads) the generator uses at most.
pub const CONNECTIONS: usize = 2;

/// How long a phase waits for stragglers after its window before it
/// counts them as failed.
const DRAIN: Duration = Duration::from_secs(10);

/// `POST /predict` wire bytes.
pub fn predict_request(body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST /predict HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One parsed response at the front of a buffer.
#[derive(Debug, PartialEq)]
pub struct Parsed {
    pub status: u16,
    pub body: Vec<u8>,
    pub consumed: usize,
}

/// Parses one `Content-Length`-framed response from the front of `buf`;
/// `None` until it has fully arrived.
pub fn parse_response(buf: &[u8]) -> Option<Parsed> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    let len = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    if buf.len() < head_end + len {
        return None;
    }
    Some(Parsed { status, body: buf[head_end..head_end + len].to_vec(), consumed: head_end + len })
}

/// One blocking request/response on a fresh connection (health checks,
/// scrapes).
pub fn fetch(addr: SocketAddr, method: &str, path: &str) -> std::io::Result<Parsed> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    let req = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n");
    s.write_all(req.as_bytes())?;
    let mut buf = Vec::new();
    let mut tmp = [0u8; 65536];
    loop {
        if let Some(p) = parse_response(&buf) {
            return Ok(p);
        }
        let n = s.read(&mut tmp)?;
        if n == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "closed"));
        }
        buf.extend_from_slice(&tmp[..n]);
    }
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Record {
    /// Index into the phase's request list.
    pub index: usize,
    /// Due time (open loop) or send time (closed loop), from phase start.
    pub due: Duration,
    /// When the request was actually written, from phase start.
    pub sent: Duration,
    /// When its response completed; `None` for a failure.
    pub done: Option<Duration>,
    pub status: u16,
    /// The response body, kept for the requests the caller samples.
    pub body: Option<Vec<u8>>,
}

impl Record {
    /// Latency counted from the due time; infinite for a failure or a
    /// non-200 answer.
    pub fn latency_us(&self) -> f64 {
        match self.done {
            Some(done) if self.status == 200 => done.saturating_sub(self.due).as_secs_f64() * 1e6,
            _ => crate::stats::FAILED,
        }
    }

    /// How late the generator sent the request.
    pub fn late_us(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e6
    }

    pub fn ok(&self) -> bool {
        self.done.is_some() && self.status == 200
    }
}

/// A connection with its unparsed input.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// The peer closed its end.
    closed: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn { stream, buf: Vec::with_capacity(1 << 16), closed: false })
    }

    /// Reads whatever arrives within `wait` and returns the complete
    /// responses. `Err` once the connection is gone and drained.
    fn poll(&mut self, wait: Duration) -> std::io::Result<Vec<Parsed>> {
        let mut tmp = [0u8; 65536];
        let mut waited = false;
        while !self.closed {
            match self.stream.read(&mut tmp) {
                Ok(0) => self.closed = true,
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if waited || parse_response(&self.buf).is_some() {
                        break;
                    }
                    wait_ready(&self.stream, POLLIN, wait)?;
                    waited = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut out = Vec::new();
        while let Some(p) = parse_response(&self.buf) {
            self.buf.drain(..p.consumed);
            out.push(p);
        }
        if out.is_empty() && self.closed {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "closed"));
        }
        Ok(out)
    }

    /// Writes all of `bytes` to the non-blocking socket.
    fn send(&mut self, mut bytes: &[u8]) -> std::io::Result<()> {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    wait_ready(&self.stream, POLLOUT, Duration::from_millis(10))?
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

const POLLIN: i16 = 1;
const POLLOUT: i16 = 4;

/// Blocks until `stream` is ready for `events` or `wait` has passed,
/// with nanosecond timeout resolution (`ppoll`): socket receive timeouts
/// round up to the kernel tick, which would make the generator late by
/// milliseconds.
fn wait_ready(stream: &TcpStream, events: i16, wait: Duration) -> std::io::Result<()> {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    let mut fd = PollFd { fd: stream.as_raw_fd(), events, revents: 0 };
    let ts = Timespec { tv_sec: wait.as_secs() as i64, tv_nsec: wait.subsec_nanos() as i64 };
    // SAFETY: one valid pollfd and timespec, both outliving the call; a
    // null signal mask leaves the mask unchanged.
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Runs `work(c)` for every connection index `c < connections` (at most
/// [`CONNECTIONS`]), on this thread and one more per extra connection.
fn on_connections<T: Send>(connections: usize, work: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
    assert!((1..=CONNECTIONS).contains(&connections), "1..={CONNECTIONS} connections");
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..connections).map(|c| scope.spawn(move || work(c))).collect();
        let mut out = vec![work(0)];
        out.extend(others.into_iter().map(|h| h.join().expect("load generator thread")));
        out
    })
}

/// A callback the first connection's thread makes as a phase starts, then
/// once per `every`, and as it ends, with the time since the start: the
/// benchmark samples the host's CPU counters with it, slice by slice.
pub struct Ticker<'a> {
    pub every: Duration,
    pub tick: &'a (dyn Fn(Duration) + Sync),
}

impl Ticker<'_> {
    /// Calls back if `now` has reached `next`, then moves `next` past `now`.
    fn poll(&self, now: Duration, next: &mut Duration) {
        if now >= *next {
            (self.tick)(now);
            while *next <= now {
                *next += self.every;
            }
        }
    }
}

/// Open loop: `requests[k]` is due `due[k]` after the start (`due` is
/// sorted and as long as `requests`); connection `c` carries the requests
/// with `k % CONNECTIONS == c`, pipelined. Returns every request's
/// record, in index order.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    due: &[Duration],
    keep_body: &(dyn Fn(usize) -> bool + Sync),
    ticker: Option<&Ticker>,
) -> Vec<Record> {
    assert_eq!(requests.len(), due.len(), "one due time per request");
    let start = Instant::now() + Duration::from_millis(5);
    let due = |k: usize| due[k];
    let per_conn = on_connections(CONNECTIONS, &|c| {
        let mut records: Vec<Record> = Vec::new();
        let mut conn = Conn::open(addr).ok();
        let mut next = c;
        let mut outstanding = std::collections::VecDeque::new();
        let ticker = ticker.filter(|_| c == 0);
        let mut next_tick = Duration::ZERO;
        loop {
            let now = start.elapsed_or_zero();
            if let Some(t) = ticker {
                t.poll(now, &mut next_tick);
            }
            if next < requests.len() && due(next) <= now {
                let sent = start.elapsed_or_zero();
                let ok = conn.as_mut().map(|cn| cn.send(&requests[next]).is_ok());
                records.push(Record {
                    index: next,
                    due: due(next),
                    sent,
                    done: None,
                    status: 0,
                    body: None,
                });
                if ok == Some(true) {
                    outstanding.push_back(records.len() - 1);
                } else {
                    conn = None;
                }
                next += CONNECTIONS;
                continue;
            }
            if outstanding.is_empty() && next >= requests.len() {
                break;
            }
            let Some(cn) = conn.as_mut() else {
                if next >= requests.len() {
                    break;
                }
                std::thread::sleep(due(next).saturating_sub(now));
                continue;
            };
            let mut wait = if next < requests.len() {
                due(next).saturating_sub(now)
            } else {
                let last = due(requests.len().saturating_sub(1));
                if now > last + DRAIN {
                    break;
                }
                Duration::from_millis(5)
            };
            if ticker.is_some() {
                wait = wait.min(next_tick.saturating_sub(now));
            }
            match cn.poll(wait) {
                Ok(responses) => {
                    let done = start.elapsed_or_zero();
                    for p in responses {
                        let Some(i) = outstanding.pop_front() else { break };
                        let r: &mut Record = &mut records[i];
                        r.done = Some(done);
                        r.status = p.status;
                        if keep_body(r.index) {
                            r.body = Some(p.body);
                        }
                    }
                }
                Err(_) => {
                    outstanding.clear();
                    conn = None;
                }
            }
        }
        if let Some(t) = ticker {
            (t.tick)(start.elapsed_or_zero());
        }
        records
    });
    let mut all: Vec<Record> = per_conn.into_iter().flatten().collect();
    all.sort_by_key(|r| r.index);
    all
}

/// Closed loop: each of `connections` connections keeps `depth` requests
/// in flight until `window` has passed or `limit` requests have been sent,
/// drawing request indices from a shared counter (wrapping over
/// `requests`). Returns every request's record; those completing after
/// the window have `done > window`.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    connections: usize,
    depth: usize,
    window: Duration,
    limit: usize,
    keep_body: &(dyn Fn(usize) -> bool + Sync),
    ticker: Option<&Ticker>,
) -> Vec<Record> {
    let counter = AtomicUsize::new(0);
    let start = Instant::now();
    let per_conn = on_connections(connections, &|c| {
        let mut records: Vec<Record> = Vec::new();
        let ticker = ticker.filter(|_| c == 0);
        let mut next_tick = Duration::ZERO;
        if let Some(t) = ticker {
            t.poll(start.elapsed(), &mut next_tick);
        }
        let Ok(mut conn) = Conn::open(addr) else { return records };
        let mut outstanding = std::collections::VecDeque::new();
        // Sends the next request; false when there is none left to send
        // or the connection broke.
        let send = |conn: &mut Conn,
                    records: &mut Vec<Record>,
                    outstanding: &mut std::collections::VecDeque<usize>| {
            let k = counter.fetch_add(1, Ordering::Relaxed);
            if k >= limit || start.elapsed() >= window {
                return false;
            }
            let sent = start.elapsed();
            records.push(Record { index: k, due: sent, sent, done: None, status: 0, body: None });
            let ok = conn.send(&requests[k % requests.len()]).is_ok();
            if ok {
                outstanding.push_back(records.len() - 1);
            }
            ok
        };
        for _ in 0..depth {
            if !send(&mut conn, &mut records, &mut outstanding) {
                break;
            }
        }
        while !outstanding.is_empty() && start.elapsed() < window + DRAIN {
            let mut wait = Duration::from_millis(5);
            if let Some(t) = ticker {
                let now = start.elapsed();
                t.poll(now, &mut next_tick);
                wait = wait.min(next_tick.saturating_sub(now));
            }
            match conn.poll(wait) {
                Ok(responses) => {
                    let done = start.elapsed();
                    for p in responses {
                        let Some(i) = outstanding.pop_front() else { break };
                        let r = &mut records[i];
                        r.done = Some(done);
                        r.status = p.status;
                        if keep_body(r.index) {
                            r.body = Some(p.body);
                        }
                        send(&mut conn, &mut records, &mut outstanding);
                    }
                }
                Err(_) => break,
            }
        }
        if let Some(t) = ticker {
            (t.tick)(start.elapsed());
        }
        records
    });
    let mut all: Vec<Record> = per_conn.into_iter().flatten().collect();
    all.sort_by_key(|r| r.index);
    all
}

trait ElapsedOrZero {
    fn elapsed_or_zero(&self) -> Duration;
}

impl ElapsedOrZero for Instant {
    /// Time since `self`, zero while `self` is still in the future.
    fn elapsed_or_zero(&self) -> Duration {
        Instant::now().saturating_duration_since(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Due at 10ms, sent 4ms late (the generator stalled), answered at
        // 15ms: the request waited 5ms, but the user waited 5ms more.
        let r = Record {
            index: 0,
            due: Duration::from_millis(10),
            sent: Duration::from_millis(14),
            done: Some(Duration::from_millis(15)),
            status: 200,
            body: None,
        };
        assert_eq!(r.latency_us(), 5000.0);
        assert_eq!(r.late_us(), 4000.0);
        let failed = Record { status: 503, ..r.clone() };
        assert!(failed.latency_us().is_infinite());
        let lost = Record { done: None, ..r };
        assert!(lost.latency_us().is_infinite());
    }

    #[test]
    fn open_loop_keeps_its_schedule_against_a_stalled_server() {
        // A server that accepts but answers only after 30ms per request:
        // requests keep going out on schedule, and each latency includes
        // the time it sat behind the earlier ones.
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut handles = Vec::new();
            for _ in 0..CONNECTIONS {
                let (mut s, _) = listener.accept().unwrap();
                handles.push(std::thread::spawn(move || {
                    let mut buf = Vec::new();
                    let mut tmp = [0u8; 4096];
                    let mut answered = 0;
                    while answered < 5 {
                        let n = s.read(&mut tmp).unwrap();
                        if n == 0 {
                            break;
                        }
                        buf.extend_from_slice(&tmp[..n]);
                        while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                            buf.drain(..end + 4 + 2); // body is "{}"
                            std::thread::sleep(Duration::from_millis(30));
                            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok").unwrap();
                            answered += 1;
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        });
        let requests: Vec<Vec<u8>> = (0..10).map(|_| predict_request(b"{}")).collect();
        // 1000 req/s: all ten are due within 10ms, long before the first
        // answer, so the generator must not wait for answers to send.
        let due: Vec<Duration> = (0..10).map(Duration::from_millis).collect();
        let records = open_loop(addr, &requests, &due, &|_| true, None);
        server.join().unwrap();
        assert_eq!(records.len(), 10);
        assert!(records.iter().all(Record::ok));
        for r in &records {
            assert!(r.late_us() < 20_000.0, "request {} sent {}us late", r.index, r.late_us());
        }
        // The fifth answer on a connection waits behind four 30ms stalls.
        let worst = records.iter().map(Record::latency_us).fold(0.0, f64::max);
        assert!(worst >= 140_000.0, "worst {worst}us");
        assert_eq!(records[0].body.as_deref(), Some(&b"ok"[..]));
    }

    #[test]
    fn responses_parse_across_partial_reads() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-Request-Id: 1\r\n\r\nhelloHTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n";
        assert!(parse_response(&wire[..40]).is_none());
        let first = parse_response(wire).unwrap();
        assert_eq!((first.status, &first.body[..]), (200, &b"hello"[..]));
        let second = parse_response(&wire[first.consumed..]).unwrap();
        assert_eq!(second.status, 404);
        assert_eq!(first.consumed + second.consumed, wire.len());
    }
}
