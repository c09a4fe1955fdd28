//! Deadline-propagation and request-bounding tests: a request's budget
//! (the `X-Deadline-Us` header or the server default) must produce a
//! typed 504 when exhausted, never a late answer; oversized bodies must
//! be refused with 413 before a byte of the body is read; bad framing
//! must be answered 400 and counted like any request; and the event
//! loop's read budget must cut a request that trickles in too slowly
//! while leaving idle keep-alive connections alone.

mod util;

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use edge_serve::{Client, ServeConfig};

fn predict_body(text: &str) -> Vec<u8> {
    format!("{{\"text\":{}}}", serde_json::to_string(&text).unwrap()).into_bytes()
}

/// A one-microsecond client deadline is spent before parsing finishes:
/// the request answers `504 deadline_exceeded`, and the connection (plus
/// the server) keeps working afterwards.
#[test]
fn tiny_client_deadline_yields_504() {
    let server = util::start_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let text = util::covered_texts(1).remove(0);

    let resp = client
        .request_with_headers("POST", "/predict", &[("X-Deadline-Us", "1")], &predict_body(&text))
        .unwrap();
    assert_eq!(resp.status, 504, "{}", resp.text());
    assert_eq!(resp.json().get("error").unwrap().as_str(), Some("deadline_exceeded"));

    // The same connection still serves: the deadline bounded one request,
    // not the transport.
    let resp = client.predict(&text).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, util::expected_fragment(&text));
    server.shutdown();
}

/// Without `X-Deadline-Us`, the server default applies.
#[test]
fn server_default_deadline_bounds_unlabeled_requests() {
    let server = util::start_server(ServeConfig { default_deadline_us: 1, ..Default::default() });
    let mut client = Client::connect(server.addr()).unwrap();
    let text = util::covered_texts(1).remove(0);
    let resp = client.predict(&text).unwrap();
    assert_eq!(resp.status, 504, "{}", resp.text());
    assert_eq!(resp.json().get("error").unwrap().as_str(), Some("deadline_exceeded"));
    server.shutdown();
}

/// A generous budget changes nothing about the answer: bit-identical to
/// the direct model call. `X-Deadline-Us: 0` opts out of the server
/// default entirely (unbounded).
#[test]
fn bounded_and_unbounded_requests_stay_bit_identical() {
    let server = util::start_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let text = util::covered_texts(1).remove(0);

    let resp = client
        .request_with_headers(
            "POST",
            "/predict",
            &[("X-Deadline-Us", "10000000")],
            &predict_body(&text),
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.body, util::expected_fragment(&text));

    let resp = client
        .request_with_headers("POST", "/predict", &[("X-Deadline-Us", "0")], &predict_body(&text))
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.body, util::expected_fragment(&text));
    server.shutdown();
}

/// A garbage deadline header is torn framing: typed 400, connection drops.
#[test]
fn malformed_deadline_header_is_a_bad_request() {
    let server = util::start_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let text = util::covered_texts(1).remove(0);
    let resp = client
        .request_with_headers(
            "POST",
            "/predict",
            &[("X-Deadline-Us", "soonish")],
            &predict_body(&text),
        )
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    server.shutdown();
}

/// A body bigger than `max_body_bytes` is refused with 413 and the
/// connection closes (the unread body means framing is gone); the server
/// itself keeps serving new connections.
#[test]
fn oversized_body_gets_413_and_the_server_survives() {
    let server = util::start_server(ServeConfig { max_body_bytes: 64, ..ServeConfig::default() });
    let addr = server.addr();
    let text = util::covered_texts(1).remove(0);

    let mut doomed = Client::connect(addr).unwrap();
    let big = format!("{{\"text\":\"{}\"}}", "x".repeat(256));
    let resp = doomed.request("POST", "/predict", big.as_bytes()).unwrap();
    assert_eq!(resp.status, 413, "{}", resp.text());
    assert_eq!(resp.json().get("error").unwrap().as_str(), Some("payload_too_large"));
    assert!(doomed.predict(&text).is_err(), "the oversize connection must be closed");

    let mut client = Client::connect(addr).unwrap();
    let resp = client.predict(&text).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, util::expected_fragment(&text));
    server.shutdown();
}

/// A connection closed for bad framing still counts as a request:
/// `serve_http_requests_total{endpoint="other",status="400"}` moves for a
/// malformed request line and for a request line that outgrows the read
/// buffer bound, as it does for the framing 413.
#[test]
fn framing_errors_count_as_bad_requests() {
    let server = util::start_server(ServeConfig { max_body_bytes: 64, ..ServeConfig::default() });
    let mut client = Client::connect(server.addr()).unwrap();
    let bad_requests = |client: &mut Client| {
        let metrics = client.request("GET", "/metrics", b"").unwrap();
        let scrape = edge_obs::openmetrics::parse(metrics.text()).expect("strict parse");
        scrape
            .value("serve_http_requests_total", &[("endpoint", "other"), ("status", "400")])
            .unwrap_or(0.0)
    };
    let before = bad_requests(&mut client);

    let garbage = b"\r\n\r\n".to_vec();
    // One byte past `max_body_bytes` plus the server's 16 KiB header
    // slack, all of it read before the server answers, so the close is
    // not a reset that could drop the answer.
    let endless_line = vec![b'x'; 64 + 16 * 1024 + 1];
    for raw in [garbage, endless_line] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(&raw).unwrap();
        let mut reply = Vec::new();
        let _ = stream.read_to_end(&mut reply);
        let reply = String::from_utf8_lossy(&reply);
        assert!(reply.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{reply}");
    }

    let after = bad_requests(&mut client);
    assert!(after - before >= 2.0, "two framing 400s counted: {before} -> {after}");
    server.shutdown();
}

/// A server whose read budget is `budget_us`, small enough to observe.
fn budgeted_server(budget_us: u64) -> edge_serve::Server {
    util::start_server(ServeConfig { read_budget_us: budget_us, ..ServeConfig::default() })
}

/// Whether the server has closed `stream`: EOF or a reset on a short
/// read. A read that merely times out means the connection is open.
fn closed_by_server(stream: &mut TcpStream) -> bool {
    stream.set_read_timeout(Some(Duration::from_millis(1))).unwrap();
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => true,
        Ok(_) => panic!("the server answered a request that never finished arriving"),
        Err(e) => !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
    }
}

/// Reads one `Content-Length`-framed response off a raw stream.
fn read_response(stream: &mut TcpStream) -> (u16, Vec<u8>) {
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed before the response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    let content_length: usize = head
        .lines()
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .map(|(_, value)| value.trim().parse().unwrap())
        .unwrap();
    while buf.len() < head_end + content_length {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    (status, buf[head_end..head_end + content_length].to_vec())
}

/// Slow-loris: half a request line, then silence. No further byte ever
/// wakes the loop for this connection, so the cut comes from the loop's
/// timed sweep once the budget armed by the first byte is spent.
#[test]
fn slow_loris_is_cut_off_when_the_budget_expires() {
    let server = budgeted_server(100_000);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let started = Instant::now();
    stream.write_all(b"POST /predict HT").unwrap();
    while !closed_by_server(&mut stream) {
        std::thread::sleep(Duration::from_millis(20));
        assert!(started.elapsed() < Duration::from_secs(2), "stall outlived the 100 ms budget");
    }
    assert!(
        started.elapsed() >= Duration::from_millis(100),
        "cut after {:?}, before the budget was spent",
        started.elapsed()
    );
    server.shutdown();
}

/// A request line that never ends, one byte every ~20 ms, always has
/// fresh bytes for the loop to read. The read budget is armed by the
/// first byte, so the connection is cut once it is spent, no matter how
/// steadily the drip continues.
#[test]
fn steady_drip_without_newline_is_cut_off() {
    let server = budgeted_server(100_000);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let started = Instant::now();
    stream.write_all(b"POST /predict HT").unwrap();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        // A write into a connection the server already reset fails.
        if stream.write_all(b"a").is_err() || closed_by_server(&mut stream) {
            break;
        }
        assert!(started.elapsed() < Duration::from_secs(2), "drip outlived the 100 ms budget");
    }
    assert!(
        started.elapsed() >= Duration::from_millis(100),
        "cut after {:?}, before the budget was spent",
        started.elapsed()
    );
    server.shutdown();
}

/// The budget is armed by a request's first byte, not by the connection:
/// a keep-alive connection idle for three budgets stays open and serves
/// the next request.
#[test]
fn idle_connection_outlives_the_read_budget() {
    let server = budgeted_server(100_000);
    let mut client = Client::connect(server.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let resp = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    server.shutdown();
}

/// A predict that arrives in chunks ~20 ms apart, finishing well inside
/// the budget, is reassembled across read edges and answered byte for
/// byte like a direct model call.
#[test]
fn dribbled_request_is_reassembled_within_budget() {
    let server = budgeted_server(500_000);
    let text = util::covered_texts(1).remove(0);
    let body = predict_body(&text);
    let mut raw =
        format!("POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len()).into_bytes();
    raw.extend_from_slice(&body);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let cuts = [9, 24, raw.len() - body.len(), raw.len() - body.len() / 2, raw.len()];
    let mut sent = 0;
    for cut in cuts {
        stream.write_all(&raw[sent..cut]).unwrap();
        sent = cut;
        std::thread::sleep(Duration::from_millis(20));
    }
    let (status, resp_body) = read_response(&mut stream);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp_body));
    assert_eq!(resp_body, util::expected_fragment(&text));
    server.shutdown();
}
