//! Chaos harness: drives one live in-process `edge-serve` server through
//! a matrix of injected faults and asserts the robustness invariants the
//! serving stack promises, leg by leg:
//!
//! 1. `baseline` — healthy closed-loop traffic, bit-identical answers.
//! 2. `torn-frames` — garbage request lines, truncated bodies, oversized
//!    declared bodies, malformed deadline headers: every outcome is a
//!    typed status (400/413) or a clean close, never a wedge.
//! 3. `slow-loris` — a byte-at-a-time writer is cut off by the read
//!    budget instead of holding its connection open indefinitely.
//! 4. `stalled-reader` — a client that never reads its response does not
//!    block other connections.
//! 5. `worker-stall` — a `sleep` failpoint stalls the event loop that
//!    runs a request's job, past the request deadline: the answer is a
//!    typed 504, a miss on the other loop's connection answers while the
//!    stall lasts, and the stalled loop serves normally afterwards.
//! 6. `queue-burst` — with every loop's backlog held, a concurrent burst
//!    only ever observes {200, 429, 504}; parked work completes on
//!    release.
//! 7. `reload-storm` — a storm of corrupt reloads opens the circuit
//!    breaker (typed 503 + Retry-After, filesystem untouched); after the
//!    cooldown a healthy reload closes it and bumps the generation.
//! 8. `brownout-ladder` — forced unhealthy ticks walk the ladder to
//!    Shed; once the fault clears the server returns to Full within 10s
//!    and the retrying client rides the brownout out to a 200.
//!
//! Cross-leg invariants: no connection or worker thread wedges (a final
//! concurrent probe barrage must all answer), the queue drains to zero,
//! and the p99 of successful probes stays under the server's default
//! deadline budget.
//!
//! Usage: `cargo run --release -p edge-bench --bin chaos [--size smoke]`
//!
//! Writes `results/BENCH_chaos.json` and exits non-zero when any
//! invariant is violated, so CI can gate on it directly.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use edge_core::{EdgeModel, QuantMode};
use edge_faults::FailScenario;
use edge_serve::brownout::Mode;
use edge_serve::{Client, RetryPolicy, ServeConfig, Server};
use serde::Serialize;

/// The server's default deadline for this run (and the p99 ceiling for
/// successful probes), microseconds.
const DEADLINE_US: u64 = 2_000_000;

/// Read budget configured for the run — the slow-loris cutoff bound.
const READ_BUDGET_US: u64 = 300_000;

#[derive(Serialize)]
struct LegRecord {
    leg: String,
    /// Fault events injected / requests issued in this leg.
    events: usize,
    /// Human-readable invariant violations; empty means the leg passed.
    violations: Vec<String>,
    notes: Vec<String>,
}

#[derive(Serialize)]
struct ChaosOutput {
    threads: usize,
    corpus: String,
    deadline_us: u64,
    legs: Vec<LegRecord>,
    /// Successful (200) probe latencies observed across all legs.
    ok_probes: usize,
    p99_ok_us: f64,
    /// Seconds from the last injected fault clearing to `Full`.
    recovery_secs: f64,
    total_violations: usize,
}

/// One leg's scorecard: checks record violations instead of panicking so
/// the whole matrix always runs and the report is complete.
struct Leg {
    name: &'static str,
    events: usize,
    violations: Vec<String>,
    notes: Vec<String>,
}

impl Leg {
    fn new(name: &'static str) -> Leg {
        Leg { name, events: 0, violations: Vec::new(), notes: Vec::new() }
    }

    fn check(&mut self, cond: bool, msg: impl Into<String>) {
        if !cond {
            let msg = msg.into();
            edge_obs::progress!("   [{}] VIOLATION: {msg}", self.name);
            self.violations.push(msg);
        }
    }

    fn note(&mut self, msg: impl Into<String>) {
        self.notes.push(msg.into());
    }

    fn finish(self, out: &mut Vec<LegRecord>) {
        edge_obs::progress!(
            "   {:<16} {} events, {} violations",
            self.name,
            self.events,
            self.violations.len()
        );
        out.push(LegRecord {
            leg: self.name.to_string(),
            events: self.events,
            violations: self.violations,
            notes: self.notes,
        });
    }
}

/// Writes raw bytes to a fresh connection and reads whatever comes back
/// until EOF or `wait`. `half_close` shuts down the write side first so
/// the server sees EOF mid-body (the truncated-frame case).
fn raw_exchange(addr: SocketAddr, payload: &[u8], wait: Duration, half_close: bool) -> String {
    let mut out = String::new();
    let Ok(mut stream) = TcpStream::connect(addr) else { return out };
    let _ = stream.set_nodelay(true);
    let _ = stream.write_all(payload);
    if half_close {
        let _ = stream.shutdown(std::net::Shutdown::Write);
    }
    let _ = stream.set_read_timeout(Some(wait));
    let mut buf = [0u8; 4096];
    while let Ok(n) = stream.read(&mut buf) {
        if n == 0 {
            break;
        }
        out.push_str(&String::from_utf8_lossy(&buf[..n]));
    }
    out
}

/// Status code of a raw HTTP/1.1 response, if one was framed at all.
fn status_of(raw: &str) -> Option<u16> {
    raw.strip_prefix("HTTP/1.1 ")?.get(..3)?.parse().ok()
}

/// One healthy probe on a fresh connection; returns the status and
/// pushes the latency of successful probes for the global p99 gate.
fn probe(
    addr: SocketAddr,
    text: &str,
    expected: &[u8],
    latencies_us: &mut Vec<f64>,
    leg: &mut Leg,
) {
    leg.events += 1;
    let t0 = Instant::now();
    let resp = Client::connect(addr).and_then(|mut c| c.predict(text));
    match resp {
        Ok(resp) => {
            leg.check(resp.status == 200, format!("probe status {}: {}", resp.status, resp.text()));
            if resp.status == 200 {
                leg.check(resp.body == expected, "probe answer drifted from the healthy baseline");
                latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        Err(e) => leg.check(false, format!("probe transport error: {e}")),
    }
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return f64::NAN;
    }
    let idx = ((p / 100.0) * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Polls the brownout mode until it matches or the 10s window lapses.
fn await_mode(server: &Server, want: Mode) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.brownout_mode() != want {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}

fn main() {
    let (size, seeds) = edge_bench::parse_cli();
    let dataset = edge_data::nyma(size, seeds[0]);
    edge_obs::progress!(
        "== chaos harness on {} ({} tweets, {} threads) ==",
        dataset.name,
        dataset.len(),
        edge_par::num_threads()
    );

    let (train, test) = dataset.paper_split();
    let mut cfg = edge_core::EdgeConfig::smoke();
    cfg.epochs = 2;
    let (model, _) = EdgeModel::train(
        train,
        edge_data::dataset_recognizer(&dataset),
        &dataset.bbox,
        cfg,
        &Default::default(),
    )
    .expect("train");
    let model_path =
        std::env::temp_dir().join(format!("edge_chaos_{}.model.json", std::process::id()));
    model.save_artifact(&model_path, QuantMode::None).expect("save");
    let model_path = model_path.to_string_lossy().into_owned();

    let covered: Vec<String> = test
        .iter()
        .filter(|t| !model.resolve_entities(&t.text).is_empty())
        .map(|t| t.text.clone())
        .collect();
    // Text allocation matters: the response cache is on (the realistic
    // configuration), so legs that must push work through the model
    // (worker-stall, queue-burst) get texts no earlier leg has cached.
    assert!(covered.len() >= 24, "corpus too small for the chaos matrix");

    // One server lives through the whole matrix: every leg's fault lands
    // on a process already scarred by the previous legs, which is the
    // point — recovery must be complete, not just per-test.
    let scenario = FailScenario::setup();
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        queue_capacity: 8,
        default_deadline_us: DEADLINE_US,
        read_budget_us: READ_BUDGET_US,
        // Only the forced failpoint walks the ladder: the latency/shed
        // thresholds are parked out of reach so the matrix is exact.
        brownout_p99_us: 10_000_000,
        brownout_max_shed_rate: 1.0,
        brownout_escalate_ticks: 1,
        brownout_recover_ticks: 1,
        brownout_tick_us: 50_000,
        brownout_window_secs: 1,
        reload_breaker_threshold: 2,
        reload_breaker_cooldown_secs: 1,
        ..ServeConfig::default()
    };
    let server = Server::start_from_artifact(&model_path, config).expect("server starts");
    let addr = server.addr();

    // The healthy answer every probe must reproduce bit-for-bit.
    let probe_text = covered[0].clone();
    let expected = {
        let mut client = Client::connect(addr).expect("connect");
        let resp = client.predict(&probe_text).expect("baseline predict");
        assert_eq!(resp.status, 200, "the baseline answer must be healthy");
        resp.body
    };

    let mut legs: Vec<LegRecord> = Vec::new();
    let mut ok_latencies_us: Vec<f64> = Vec::new();

    // Leg 1: baseline — healthy traffic, bit-identical answers.
    let mut leg = Leg::new("baseline");
    {
        let mut client = Client::connect(addr).expect("connect");
        for text in covered.iter().take(8) {
            leg.events += 1;
            let t0 = Instant::now();
            match client.predict(text) {
                Ok(resp) => {
                    leg.check(resp.status == 200, format!("baseline status {}", resp.status));
                    if resp.status == 200 {
                        ok_latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                }
                Err(e) => leg.check(false, format!("baseline transport error: {e}")),
            }
        }
        probe(addr, &probe_text, &expected, &mut ok_latencies_us, &mut leg);
    }
    leg.finish(&mut legs);

    // Leg 2: torn and malformed frames — typed statuses or clean closes.
    let mut leg = Leg::new("torn-frames");
    {
        let wait = Duration::from_secs(2);
        // An opened-then-abandoned connection.
        leg.events += 1;
        let _ = TcpStream::connect(addr);
        // A line that is not HTTP at all => a typed 4xx (the words parse
        // as an unroutable method/path pair => 404) or a clean close.
        leg.events += 1;
        let raw = raw_exchange(addr, b"NOT HTTP AT ALL\r\n\r\n", wait, false);
        leg.check(
            raw.is_empty() || matches!(status_of(&raw), Some(400 | 404)),
            format!("garbage line answered {raw:?}"),
        );
        // A declared body that never arrives => clean close on EOF.
        leg.events += 1;
        let torn = b"POST /predict HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"text\":\"half";
        let raw = raw_exchange(addr, torn, wait, true);
        leg.check(
            raw.is_empty() || status_of(&raw).is_some(),
            format!("torn body answered unframed bytes {raw:?}"),
        );
        // A declared body over the limit => typed 413 before any read.
        leg.events += 1;
        let huge = format!("POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 8 << 20);
        let raw = raw_exchange(addr, huge.as_bytes(), wait, false);
        leg.check(status_of(&raw) == Some(413), format!("oversized body answered {raw:?}"));
        leg.check(raw.contains("payload_too_large"), "413 must carry the typed error");
        // A malformed deadline header => typed 400.
        leg.events += 1;
        let body = b"{\"text\":\"x\"}";
        let bad = format!(
            "POST /predict HTTP/1.1\r\nX-Deadline-Us: soonish\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut payload = bad.into_bytes();
        payload.extend_from_slice(body);
        let raw = raw_exchange(addr, &payload, wait, false);
        leg.check(status_of(&raw) == Some(400), format!("malformed deadline answered {raw:?}"));
        // The server is unharmed.
        probe(addr, &probe_text, &expected, &mut ok_latencies_us, &mut leg);
    }
    leg.finish(&mut legs);

    // Leg 3: slow-loris — the read budget cuts the drip feed off.
    let mut leg = Leg::new("slow-loris");
    {
        leg.events += 1;
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = stream.try_clone().expect("clone");
        let writer = std::thread::spawn(move || {
            let mut stream = stream;
            for b in b"POST /predict HTTP/1.1\r\n".iter().cycle().take(100) {
                if stream.write_all(&[*b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let t0 = Instant::now();
        let mut reader = reader;
        reader.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 1024];
        // The server closing (with or without a response) unblocks this
        // read; a timeout here means the loris pinned the thread.
        let cut = !matches!(reader.read(&mut buf), Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock || e.kind() == std::io::ErrorKind::TimedOut);
        let elapsed = t0.elapsed();
        leg.check(cut, "slow-loris connection was never cut off");
        leg.check(
            elapsed < Duration::from_micros(READ_BUDGET_US * 8),
            format!("cutoff took {elapsed:?} against a {READ_BUDGET_US}us budget"),
        );
        leg.note(format!("loris cut off after {elapsed:?}"));
        writer.join().ok();
        probe(addr, &probe_text, &expected, &mut ok_latencies_us, &mut leg);
    }
    leg.finish(&mut legs);

    // Leg 4: stalled reader — an unread response blocks nobody else.
    let mut leg = Leg::new("stalled-reader");
    {
        leg.events += 1;
        let mut stalled = TcpStream::connect(addr).expect("connect");
        let body = format!("{{\"text\":{}}}", serde_json::to_string(&probe_text).unwrap());
        let req = format!(
            "POST /predict HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stalled.write_all(req.as_bytes()).expect("write");
        // Never read the response; hammer the server from elsewhere.
        for _ in 0..10 {
            probe(addr, &probe_text, &expected, &mut ok_latencies_us, &mut leg);
        }
        drop(stalled);
    }
    leg.finish(&mut legs);

    // Leg 5: loop stall — inference runs on the event loop, so the
    // stall holds the loop that runs the job. Past the deadline it is a
    // typed 504; it holds no other loop, and the stalled loop serves the
    // next request normally.
    let mut leg = Leg::new("worker-stall");
    {
        leg.events += 2;
        // Connections go to the loops round-robin: two consecutive ones
        // land on different loops. One exchange each registers them.
        let mut client = Client::connect(addr).expect("connect");
        let mut other = Client::connect(addr).expect("connect");
        for c in [&mut client, &mut other] {
            let _ = c.request("GET", "/healthz", b"");
        }
        edge_faults::configure("serve.worker.stall", "1*sleep(400)").unwrap();
        // covered[8] is uncached: the request must reach the model.
        let body = format!("{{\"text\":{}}}", serde_json::to_string(&covered[8]).unwrap());
        let stalled = std::thread::spawn(move || {
            client.request_with_headers(
                "POST",
                "/predict",
                &[("X-Deadline-Us", "100000")],
                body.as_bytes(),
            )
        });
        // While the first loop sleeps, an uncached text on the other
        // loop's connection answers at its usual speed.
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        match other.predict(&covered[21]) {
            Ok(resp) => {
                let took = t0.elapsed();
                leg.check(resp.status == 200, format!("other loop answered {}", resp.status));
                leg.check(
                    took < Duration::from_millis(200),
                    format!("the stall held the other loop: {took:?}"),
                );
            }
            Err(e) => leg.check(false, format!("other loop transport error: {e}")),
        }
        let resp = stalled.join().expect("stalled thread").expect("request");
        leg.check(resp.status == 504, format!("stalled loop answered {}", resp.status));
        leg.check(
            resp.json().get("error").and_then(|v| v.as_str()) == Some("deadline_exceeded"),
            format!("504 must be typed: {}", resp.text()),
        );
        edge_faults::remove("serve.worker.stall");
        probe(addr, &probe_text, &expected, &mut ok_latencies_us, &mut leg);
    }
    leg.finish(&mut legs);

    // Leg 6: queue-full burst — held backlog, concurrent burst, only
    // well-formed outcomes {200, 429, 504}; parked work completes.
    let mut leg = Leg::new("queue-burst");
    {
        // A loop checks the hold each time it would run its backlog, so
        // everything admitted from here on parks.
        edge_faults::configure("serve.dispatch.hold", "100000*err").unwrap();
        // 12 uncached texts against an 8-deep backlog bound: some must
        // park (then complete on release), some must shed.
        let burst: Vec<_> = covered[9..21]
            .iter()
            .cloned()
            .map(|text| {
                std::thread::spawn(move || Client::connect(addr).and_then(|mut c| c.predict(&text)))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(400));
        edge_faults::remove("serve.dispatch.hold");
        let mut seen = std::collections::BTreeMap::<u16, usize>::new();
        for handle in burst {
            leg.events += 1;
            match handle.join().expect("burst thread") {
                Ok(resp) => {
                    *seen.entry(resp.status).or_insert(0) += 1;
                    leg.check(
                        matches!(resp.status, 200 | 429 | 504),
                        format!("burst observed a malformed outcome {}", resp.status),
                    );
                }
                Err(e) => leg.check(false, format!("burst transport error: {e}")),
            }
        }
        leg.note(format!("burst statuses: {seen:?}"));
        leg.check(seen.contains_key(&200), "a held-then-released queue must finish real work");
        leg.check(seen.contains_key(&429), "overflowing an 8-deep queue must shed");
        probe(addr, &probe_text, &expected, &mut ok_latencies_us, &mut leg);
        leg.check(server.queue_depth() == 0, "queue must drain after the burst");
    }
    leg.finish(&mut legs);

    // Leg 7: corrupt reload storm — the breaker opens with a typed 503,
    // and after the cooldown a healthy reload closes it.
    let mut leg = Leg::new("reload-storm");
    {
        let mut client = Client::connect(addr).expect("connect");
        let bad = b"{\"path\":\"/nonexistent/chaos.model.json\"}";
        let mut statuses = Vec::new();
        for _ in 0..6 {
            leg.events += 1;
            let resp = client.request("POST", "/reload", bad).expect("reload");
            if resp.status == 503 {
                leg.check(
                    resp.json().get("error").and_then(|v| v.as_str()) == Some("circuit_open"),
                    format!("open breaker must be typed: {}", resp.text()),
                );
                leg.check(resp.retry_after().is_some(), "open breaker must send Retry-After");
            }
            statuses.push(resp.status);
        }
        leg.note(format!("storm statuses: {statuses:?}"));
        leg.check(
            statuses[..2] == [422, 422] && statuses[2..].iter().all(|s| *s == 503),
            format!("storm must fail twice then trip the breaker: {statuses:?}"),
        );
        leg.check(server.generation() == 1, "nothing may reload during the storm");
        std::thread::sleep(Duration::from_millis(1_200));
        leg.events += 1;
        let good = format!("{{\"path\":{}}}", serde_json::to_string(&model_path).unwrap());
        let resp = client.request("POST", "/reload", good.as_bytes()).expect("reload");
        leg.check(resp.status == 200, format!("half-open probe failed: {}", resp.text()));
        leg.check(server.generation() == 2, "a healthy reload must bump the generation");
        leg.check(!server.reload_breaker_open(), "success must close the breaker");
        probe(addr, &probe_text, &expected, &mut ok_latencies_us, &mut leg);
    }
    leg.finish(&mut legs);

    // Leg 8: brownout ladder — forced to Shed, then back to Full within
    // the 10s recovery window once the fault clears.
    let mut leg = Leg::new("brownout-ladder");
    let recovery_secs;
    {
        leg.events += 3;
        edge_faults::configure("serve.mode.force", "3*err").unwrap();
        leg.check(await_mode(&server, Mode::Shed), "forced ticks never reached Shed");
        let mut client = Client::connect(addr).expect("connect");
        let resp = client.predict(&probe_text).expect("predict");
        leg.check(resp.status == 503, format!("Shed answered {}", resp.status));
        leg.check(
            resp.json().get("mode").and_then(|v| v.as_str()) == Some("shed"),
            format!("shed rejection must name its mode: {}", resp.text()),
        );
        leg.check(resp.retry_after().is_some(), "brownout 503 must send Retry-After");
        // The failpoint is exhausted; the clock on recovery starts now.
        let t0 = Instant::now();
        // The retrying client rides the brownout out: Retry-After paces
        // it straight into the recovered server.
        let body = format!("{{\"text\":{}}}", serde_json::to_string(&probe_text).unwrap());
        let policy = RetryPolicy { max_attempts: 8, ..RetryPolicy::default() };
        match client.request_with_retry("POST", "/predict", &[], body.as_bytes(), &policy) {
            Ok(resp) => {
                leg.check(resp.status == 200, format!("retry never landed: {}", resp.status))
            }
            Err(e) => leg.check(false, format!("retrying client gave up: {e}")),
        }
        leg.check(await_mode(&server, Mode::Full), "ladder never recovered to Full within 10s");
        recovery_secs = t0.elapsed().as_secs_f64();
        leg.note(format!("recovered to Full in {recovery_secs:.2}s"));
        probe(addr, &probe_text, &expected, &mut ok_latencies_us, &mut leg);
    }
    leg.finish(&mut legs);

    // Final wedge check: a concurrent barrage on the scarred server must
    // all answer 200, bit-identically, with the queue drained.
    let mut leg = Leg::new("wedge-check");
    {
        let barrage: Vec<_> = (0..8)
            .map(|i| {
                let text = covered[i % 4].clone();
                std::thread::spawn(move || Client::connect(addr).and_then(|mut c| c.predict(&text)))
            })
            .collect();
        for handle in barrage {
            leg.events += 1;
            match handle.join().expect("barrage thread") {
                Ok(resp) => {
                    leg.check(resp.status == 200, format!("barrage answered {}", resp.status))
                }
                Err(e) => leg.check(false, format!("barrage transport error: {e}")),
            }
        }
        probe(addr, &probe_text, &expected, &mut ok_latencies_us, &mut leg);
        leg.check(server.queue_depth() == 0, "queue must be empty at the end of the matrix");
    }
    leg.finish(&mut legs);

    server.shutdown();
    drop(scenario);
    std::fs::remove_file(&model_path).ok();

    ok_latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p99_ok_us = percentile(&ok_latencies_us, 99.0);
    let mut global = Leg::new("global");
    global.check(
        p99_ok_us < DEADLINE_US as f64,
        format!("p99 of successful probes {p99_ok_us:.0}us breaches the {DEADLINE_US}us budget"),
    );
    global.check(
        recovery_secs < 10.0,
        format!("recovery took {recovery_secs:.2}s, over the 10s window"),
    );
    let ok_probes = ok_latencies_us.len();
    global.finish(&mut legs);

    let total_violations: usize = legs.iter().map(|l| l.violations.len()).sum();
    let mut text = format!(
        "Chaos harness ({size:?} scale): fault matrix against one live server\n\
         {:<16} {:>7} {:>11}\n",
        "leg", "events", "violations"
    );
    for l in &legs {
        text.push_str(&format!("{:<16} {:>7} {:>11}\n", l.leg, l.events, l.violations.len()));
        for v in &l.violations {
            text.push_str(&format!("    VIOLATION: {v}\n"));
        }
    }
    text.push_str(&format!(
        "\np99 of {ok_probes} successful probes: {p99_ok_us:.0}us (budget {DEADLINE_US}us)\n\
         recovery to Full after faults cleared: {recovery_secs:.2}s (window 10s)\n"
    ));
    print!("{text}");
    let output = ChaosOutput {
        threads: edge_par::num_threads(),
        corpus: dataset.name.clone(),
        deadline_us: DEADLINE_US,
        legs,
        ok_probes,
        p99_ok_us,
        recovery_secs,
        total_violations,
    };
    edge_bench::write_results("BENCH_chaos", &output, &text).expect("write results");
    edge_obs::progress!("wrote results/BENCH_chaos.{{json,txt}}");
    if total_violations > 0 {
        eprintln!("chaos: {total_violations} invariant violation(s)");
        std::process::exit(1);
    }
}
