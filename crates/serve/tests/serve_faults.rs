//! Fault-injection tests for the serving path: queue overflow must shed
//! with 429, a failing reload must leave the old model serving, and a
//! dropped accept must not take the listener down.
//!
//! `FailScenario::setup` holds a global lock, so these tests are
//! serialized against each other (and any other failpoint user).

mod util;

use std::time::{Duration, Instant};

use edge_faults::FailScenario;
use edge_serve::{Client, ServeConfig};

/// With the event loops' backlog held at the `serve.dispatch.hold`
/// failpoint, a tiny backlog bound fills up and further texts are shed
/// with 429 (and counted).
#[test]
fn full_queue_sheds_with_429() {
    let scenario = FailScenario::setup();
    let server = util::start_server(ServeConfig {
        max_batch: 4,
        queue_capacity: 4,
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let texts = util::covered_texts(6);
    assert!(texts.len() >= 5, "need enough covered texts to overflow a queue of 4");

    // Park every loop's backlog: a loop checks this failpoint each time
    // it would run its backlog, so nothing admitted from now on runs.
    edge_faults::configure("serve.dispatch.hold", "10000*err").unwrap();

    // Fill the backlog from a background client (its request stays in
    // flight until we release the hold).
    let filler = {
        let texts = texts.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let refs: Vec<&str> = texts[..4].iter().map(String::as_str).collect();
            client.predict_batch(&refs).unwrap()
        })
    };
    // Wait until the four jobs are actually queued.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.queue_depth() < 4 {
        assert!(std::time::Instant::now() < deadline, "queue never filled");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The queue is full: the next text must be shed, all or nothing.
    let mut client = Client::connect(addr).unwrap();
    let shed = client.predict(&texts[4]).unwrap();
    assert_eq!(shed.status, 429, "full queue must shed: {}", shed.text());
    assert_eq!(shed.json().get("error").unwrap().as_str(), Some("overloaded"));

    // A batch that does not entirely fit is also rejected whole.
    let refs: Vec<&str> = texts[..2].iter().map(String::as_str).collect();
    assert_eq!(client.predict_batch(&refs).unwrap().status, 429);

    // Release the hold: the parked requests complete normally.
    edge_faults::remove("serve.dispatch.hold");
    let resp = filler.join().unwrap();
    assert_eq!(resp.status, 200, "queued batch completes after release");
    let after = client.predict(&texts[4]).unwrap();
    assert_eq!(after.status, 200);
    assert_eq!(after.body, util::expected_fragment(&texts[4]));

    server.shutdown();
    drop(scenario);
}

/// An injected failure on the reload path is surfaced as 422 and the old
/// model keeps serving; once the failpoint is exhausted, reload succeeds.
#[test]
fn failed_reload_keeps_old_model_serving() {
    let scenario = FailScenario::setup();
    let w = util::world();
    let server = util::start_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    edge_faults::configure("serve.reload", "1*err(injected reload fault)").unwrap();

    let body = format!("{{\"path\":{}}}", serde_json::to_string(&w.model_path).unwrap());
    let resp = client.request("POST", "/reload", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 422, "injected fault must reject the reload: {}", resp.text());
    assert_eq!(server.generation(), 1, "failed reload must not bump the generation");

    // The old model still answers, bit for bit.
    let text = util::covered_texts(1).remove(0);
    let resp = client.predict(&text).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, util::expected_fragment(&text));

    // The failpoint fired once; the same reload now goes through.
    let resp = client.request("POST", "/reload", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "reload succeeds once the fault is spent: {}", resp.text());
    assert_eq!(server.generation(), 2);

    server.shutdown();
    drop(scenario);
}

/// An event loop stalled at the `serve.worker.stall` failpoint (sleep
/// action) past the request's deadline yields a typed 504 — never a
/// silently late answer — and the loop serves the next request normally.
#[test]
fn stalled_worker_past_deadline_yields_504() {
    let scenario = FailScenario::setup();
    let server = util::start_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let text = util::covered_texts(1).remove(0);
    let body = format!("{{\"text\":{}}}", serde_json::to_string(&text).unwrap());

    edge_faults::configure("serve.worker.stall", "1*sleep(400)").unwrap();
    let resp = client
        .request_with_headers("POST", "/predict", &[("X-Deadline-Us", "100000")], body.as_bytes())
        .unwrap();
    assert_eq!(resp.status, 504, "{}", resp.text());
    assert_eq!(resp.json().get("error").unwrap().as_str(), Some("deadline_exceeded"));

    // The stall was one hit; the loop answers normally afterwards.
    let resp = client.predict(&text).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.body, util::expected_fragment(&text));

    server.shutdown();
    drop(scenario);
}

/// A stall holds only the loop it happens on. Connections are handed to
/// the two loops round-robin, so two consecutive connections land on
/// different loops: while one loop sleeps 400ms inside a job, the other
/// answers a fresh miss at once, and the stalled request still gets its
/// typed 504.
#[test]
fn a_stalled_loop_holds_only_its_own_connections() {
    let scenario = FailScenario::setup();
    let server = util::start_server(ServeConfig {
        event_loops: 2,
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    let texts = util::covered_texts(2);
    let mut stalled = Client::connect(server.addr()).unwrap();
    let mut other = Client::connect(server.addr()).unwrap();
    // One exchange each, so both connections are registered on their
    // loops before the stall begins.
    assert_eq!(stalled.request("GET", "/healthz", b"").unwrap().status, 200);
    assert_eq!(other.request("GET", "/healthz", b"").unwrap().status, 200);

    edge_faults::configure("serve.worker.stall", "1*sleep(400)").unwrap();
    let body = format!("{{\"text\":{}}}", serde_json::to_string(&texts[0]).unwrap());
    let stalled = std::thread::spawn(move || {
        stalled
            .request_with_headers(
                "POST",
                "/predict",
                &[("X-Deadline-Us", "100000")],
                body.as_bytes(),
            )
            .unwrap()
    });
    // Let the stalled request reach its loop and take the failpoint's hit.
    std::thread::sleep(Duration::from_millis(50));
    let started = Instant::now();
    let resp = other.predict(&texts[1]).unwrap();
    let took = started.elapsed();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.body, util::expected_fragment(&texts[1]));
    assert!(took < Duration::from_millis(200), "the other loop answered in {took:?}");

    let resp = stalled.join().unwrap();
    assert_eq!(resp.status, 504, "{}", resp.text());
    assert_eq!(resp.json().get("error").unwrap().as_str(), Some("deadline_exceeded"));

    server.shutdown();
    drop(scenario);
}

/// With the backlog held, the `serve.queue.expire` failpoint force-
/// evicts parked jobs: the waiting request answers 504 immediately
/// instead of blocking on a run that never comes.
#[test]
fn forced_queue_eviction_answers_504() {
    let scenario = FailScenario::setup();
    let server = util::start_server(ServeConfig::default());
    let addr = server.addr();
    let text = util::covered_texts(1).remove(0);

    edge_faults::configure("serve.dispatch.hold", "10000*err").unwrap();

    let waiter = {
        let text = text.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.predict(&text).unwrap()
        })
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.queue_depth() < 1 {
        assert!(std::time::Instant::now() < deadline, "job never queued");
        std::thread::sleep(Duration::from_millis(5));
    }

    // A loop holding a backlog wakes every tick and sweeps it first, so
    // the fire lands within one tick.
    edge_faults::configure("serve.queue.expire", "1*err").unwrap();
    let resp = waiter.join().unwrap();
    assert_eq!(resp.status, 504, "evicted request answers 504: {}", resp.text());
    assert_eq!(resp.json().get("error").unwrap().as_str(), Some("deadline_exceeded"));
    assert_eq!(server.queue_depth(), 0, "the queue drained by eviction");

    // Release the hold; fresh work completes normally.
    edge_faults::remove("serve.dispatch.hold");
    let mut client = Client::connect(addr).unwrap();
    let resp = client.predict(&text).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, util::expected_fragment(&text));

    server.shutdown();
    drop(scenario);
}

/// Repeated reload failures open the circuit breaker (503 circuit_open
/// with Retry-After); after the cooldown a healthy reload closes it.
#[test]
fn reload_breaker_opens_then_recovers_after_cooldown() {
    // No failpoints, but the scenario lock keeps other tests' global
    // failpoint state away from this server.
    let scenario = FailScenario::setup();
    let w = util::world();
    let server = util::start_server(ServeConfig {
        reload_breaker_threshold: 2,
        reload_breaker_cooldown_secs: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();

    let bad = b"{\"path\":\"/nonexistent/model.json\"}";
    assert_eq!(client.request("POST", "/reload", bad).unwrap().status, 422);
    assert_eq!(client.request("POST", "/reload", bad).unwrap().status, 422);
    assert!(server.reload_breaker_open(), "two failures at threshold 2 open the breaker");

    // Open breaker: rejected without touching the filesystem at all.
    let resp = client.request("POST", "/reload", bad).unwrap();
    assert_eq!(resp.status, 503, "{}", resp.text());
    assert_eq!(resp.json().get("error").unwrap().as_str(), Some("circuit_open"));
    assert!(resp.retry_after().is_some(), "an open breaker advertises Retry-After");
    assert_eq!(server.generation(), 1, "nothing reloaded while open");

    // Cooldown lapses: the half-open probe admits one attempt, and a
    // healthy artifact closes the breaker.
    std::thread::sleep(Duration::from_millis(1100));
    let good = format!("{{\"path\":{}}}", serde_json::to_string(&w.model_path).unwrap());
    let resp = client.request("POST", "/reload", good.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "half-open probe succeeds: {}", resp.text());
    assert!(!server.reload_breaker_open());
    assert_eq!(server.generation(), 2);

    server.shutdown();
    drop(scenario);
}

/// An injected accept failure drops one connection; the listener survives
/// and the next connection is served normally.
#[test]
fn dropped_accept_does_not_kill_the_listener() {
    let scenario = FailScenario::setup();
    let server = util::start_server(ServeConfig::default());
    let addr = server.addr();
    let text = util::covered_texts(1).remove(0);

    edge_faults::configure("serve.accept", "1*err").unwrap();

    // The first connection is accepted then dropped: the request errors out
    // (reset or EOF, depending on timing).
    let mut doomed = Client::connect(addr).unwrap();
    assert!(doomed.predict(&text).is_err(), "the faulted connection must be dropped");

    // The listener is still alive: a fresh connection works.
    let mut client = Client::connect(addr).unwrap();
    let resp = client.predict(&text).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body, util::expected_fragment(&text));

    server.shutdown();
    drop(scenario);
}
