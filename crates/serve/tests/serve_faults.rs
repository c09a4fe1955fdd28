//! Fault-injection tests for the serving path: queue overflow must shed
//! with 429, a failing reload must leave the old model serving, and a
//! dropped accept must not take the listener down.
//!
//! `FailScenario::setup` holds a global lock, so these tests are
//! serialized against each other (and any other failpoint user).

mod util;

use std::time::Duration;

use edge_faults::FailScenario;
use edge_serve::{Client, ServeConfig};

/// With the scheduler held at the `serve.dispatch.hold` failpoint, a tiny
/// queue fills up and further texts are shed with 429 (and counted).
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

    // Freeze the scheduler before it can drain anything: it checks this
    // failpoint between idle waits (every ~20ms), so after a grace period
    // it is parked in the hold loop and nothing gets dispatched.
    edge_faults::configure("serve.dispatch.hold", "10000*err").unwrap();
    std::thread::sleep(Duration::from_millis(300));

    // Fill the queue from a background client (its request stays in flight
    // until we release the scheduler).
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

    // Release the scheduler: the queued requests complete normally.
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

/// A worker stalled at the `serve.worker.stall` failpoint (sleep action)
/// past the request's deadline yields a typed 504 — never a silently
/// late answer — and the worker pool is healthy for the next request.
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

    // The stall was one hit; the pool answers normally afterwards.
    let resp = client.predict(&text).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.body, util::expected_fragment(&text));

    server.shutdown();
    drop(scenario);
}

/// With the scheduler held, the `serve.queue.expire` failpoint force-
/// evicts queued jobs: the waiting request answers 504 immediately
/// instead of blocking on a dispatch that never comes.
#[test]
fn forced_queue_eviction_answers_504() {
    let scenario = FailScenario::setup();
    let server = util::start_server(ServeConfig::default());
    let addr = server.addr();
    let text = util::covered_texts(1).remove(0);

    edge_faults::configure("serve.dispatch.hold", "10000*err").unwrap();
    std::thread::sleep(Duration::from_millis(300));

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

    // The hold loop evicts between sleeps, so the fire lands within ~ms.
    edge_faults::configure("serve.queue.expire", "1*err").unwrap();
    let resp = waiter.join().unwrap();
    assert_eq!(resp.status, 504, "evicted request answers 504: {}", resp.text());
    assert_eq!(resp.json().get("error").unwrap().as_str(), Some("deadline_exceeded"));
    assert_eq!(server.queue_depth(), 0, "the queue drained by eviction");

    // Release the scheduler; fresh work completes normally.
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
