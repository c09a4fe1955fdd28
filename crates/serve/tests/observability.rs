//! Request-scoped observability, end to end over a real socket: every
//! response carries `X-Request-Id`, `/debug/requests` replays the ring,
//! `/healthz` degrades when the SLO budget burns, `/metrics` speaks
//! OpenMetrics, and a single `POST /predict` can be reconstructed from
//! the trace — its stage spans summing (±5%) to the root latency even
//! though inference happens on `edge-par` worker threads.

mod util;

use std::collections::HashMap;
use std::time::{Duration, Instant};

use edge_serve::{Client, ServeConfig};

#[test]
fn every_response_carries_a_request_id() {
    let server = util::start_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    let health = client.request("GET", "/healthz", b"").unwrap();
    let minted = health.header("x-request-id").expect("minted id on plain requests");
    assert!(minted.starts_with("req-"), "minted ids look like req-<n>: {minted}");

    // A client-supplied id is echoed verbatim instead.
    let resp = client
        .request_with_headers("GET", "/healthz", &[("X-Request-Id", "caller-17")], b"")
        .unwrap();
    assert_eq!(resp.header("x-request-id"), Some("caller-17"));

    // Errors carry one too.
    let resp = client.request("GET", "/nope", b"").unwrap();
    assert_eq!(resp.status, 404);
    assert!(resp.header("x-request-id").is_some());
    server.shutdown();
}

#[test]
fn debug_requests_replays_recent_records() {
    let server = util::start_server(ServeConfig {
        cache_capacity: 0, // force every text through the model path
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    let texts = util::covered_texts(3);
    for text in &texts {
        assert_eq!(client.predict(text).unwrap().status, 200);
    }

    let resp = client.request("GET", "/debug/requests", b"").unwrap();
    assert_eq!(resp.status, 200);
    let v = resp.json();
    let requests = v.get("requests").unwrap().as_array().unwrap();
    let predicts: Vec<_> = requests
        .iter()
        .filter(|r| r.get("endpoint").and_then(|e| e.as_str()) == Some("predict"))
        .collect();
    assert_eq!(predicts.len(), 3, "one record per predict: {v:?}");

    let mut last_id = 0u64;
    for record in &predicts {
        let id = record.get("id").unwrap().as_u64().unwrap();
        assert!(id > last_id, "ids are monotone (oldest first)");
        last_id = id;
        assert_eq!(record.get("status").unwrap().as_u64(), Some(200));
        assert_eq!(record.get("batch").unwrap().as_u64(), Some(1));
        let stages = record.get("stage_us").unwrap();
        let total = record.get("total_us").unwrap().as_u64().unwrap();
        let sum: u64 = ["parse", "queue", "batch", "inference", "serialize"]
            .iter()
            .map(|s| stages.get(s).unwrap().as_u64().unwrap())
            .sum();
        assert!(
            sum <= total + total / 20 + 50,
            "stage micros must not exceed the total: {sum} vs {total}"
        );
        assert!(
            stages.get("inference").unwrap().as_u64().unwrap() > 0,
            "an uncached predict spends time in inference"
        );
    }

    // ?n= caps the window.
    let resp = client.request("GET", "/debug/requests?n=2", b"").unwrap();
    let v = resp.json();
    assert!(v.get("requests").unwrap().as_array().unwrap().len() <= 2);
    server.shutdown();
}

#[test]
fn healthz_degrades_when_the_slo_burns() {
    // A 1µs p99 target: every real request is a violation.
    let server = util::start_server(ServeConfig { slo_target_p99_us: 1, ..ServeConfig::default() });
    let mut client = Client::connect(server.addr()).unwrap();

    let before = client.request("GET", "/healthz", b"").unwrap().json();
    assert_eq!(before.get("status").unwrap().as_str(), Some("ok"), "no traffic yet: budget intact");

    let text = util::covered_texts(1).remove(0);
    for _ in 0..5 {
        assert_eq!(client.predict(&text).unwrap().status, 200);
    }
    let after = client.request("GET", "/healthz", b"").unwrap().json();
    assert_eq!(after.get("status").unwrap().as_str(), Some("degraded"));
    assert_eq!(after.get("slo_budget_remaining").unwrap().as_str(), Some("0.0000"));

    // The same signal is scrapeable.
    let metrics = client.request("GET", "/metrics", b"").unwrap();
    let scrape = edge_obs::openmetrics::parse(metrics.text()).unwrap();
    assert_eq!(scrape.value("serve_slo_degraded", &[]), Some(1.0));
    assert!(scrape.value("serve_slo_burn_rate", &[]).unwrap() > 1.0);
    server.shutdown();
}

#[test]
fn concurrent_scrapes_of_two_servers_each_see_their_own_slo() {
    // `/metrics` refreshes process-global gauges from its own server before
    // snapshotting them; two servers in one process scraping at once must
    // still each expose their own `serve_slo_degraded`.
    let burning =
        util::start_server(ServeConfig { slo_target_p99_us: 1, ..ServeConfig::default() });
    let healthy = util::start_server(ServeConfig::default());
    let text = util::covered_texts(1).remove(0);
    let mut client = Client::connect(burning.addr()).unwrap();
    for _ in 0..5 {
        assert_eq!(client.predict(&text).unwrap().status, 200);
    }
    let health = client.request("GET", "/healthz", b"").unwrap().json();
    assert_eq!(health.get("status").unwrap().as_str(), Some("degraded"));

    const SCRAPES: usize = 200;
    std::thread::scope(|scope| {
        for (addr, expected) in [(burning.addr(), 1.0), (healthy.addr(), 0.0)] {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..SCRAPES {
                    let metrics = client.request("GET", "/metrics", b"").unwrap();
                    let scrape = edge_obs::openmetrics::parse(metrics.text()).unwrap();
                    assert_eq!(
                        scrape.value("serve_slo_degraded", &[]),
                        Some(expected),
                        "scrape {i} of the server expecting {expected}"
                    );
                }
            });
        }
    });
    burning.shutdown();
    healthy.shutdown();
}

#[test]
fn metrics_expose_labeled_families_with_quantiles() {
    let server = util::start_server(ServeConfig { cache_capacity: 0, ..ServeConfig::default() });
    let mut client = Client::connect(server.addr()).unwrap();
    let texts = util::covered_texts(2);
    for text in &texts {
        assert_eq!(client.predict(text).unwrap().status, 200);
    }
    assert_eq!(client.request("GET", "/nope", b"").unwrap().status, 404);

    let metrics = client.request("GET", "/metrics", b"").unwrap();
    assert_eq!(metrics.header("content-type"), Some(edge_obs::openmetrics::CONTENT_TYPE));
    let text = metrics.text();
    assert!(text.ends_with("# EOF\n"), "exposition is EOF-terminated");
    let scrape = edge_obs::openmetrics::parse(text).expect("strict parse");

    // Labeled counters: endpoint × status, and the batch-path split.
    assert!(
        scrape
            .value("serve_http_requests_total", &[("endpoint", "predict"), ("status", "200")])
            .unwrap_or(0.0)
            >= 2.0
    );
    assert!(
        scrape
            .value("serve_http_requests_total", &[("endpoint", "other"), ("status", "404")])
            .unwrap_or(0.0)
            >= 1.0
    );
    assert!(
        scrape.value("serve_predict_texts_total", &[("batch_path", "batched")]).unwrap_or(0.0)
            >= 2.0
    );

    // Labeled stage histogram with estimated quantiles per cell.
    for stage in ["parse", "queue", "batch", "inference", "serialize"] {
        let labels = [("stage", stage)];
        assert!(
            scrape.value("serve_stage_us_count", &labels).unwrap_or(0.0) >= 1.0,
            "stage {stage} has samples"
        );
        for q in ["serve_stage_us_p50", "serve_stage_us_p95", "serve_stage_us_p99"] {
            assert!(scrape.value(q, &labels).is_some(), "{q}{{stage={stage}}} present");
        }
    }

    // The unlabeled request histogram also exposes quantile gauges.
    assert!(scrape.value("serve_request_us_p99", &[]).is_some());
    server.shutdown();
}

#[test]
fn a_single_predict_trace_reconstructs_end_to_end() {
    let _scenario = edge_faults::FailScenario::setup();
    edge_obs::set_trace_enabled(true);
    let server = util::start_server(ServeConfig {
        max_batch: 8,
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let text = util::covered_texts(1).remove(0);

    // Hold the request in the backlog for ~20ms so scheduling noise is far
    // below the 5% tolerance: park every loop's backlog at the
    // dispatch-hold failpoint (checked each time a loop would run it),
    // send, wait until the text is admitted, then release after the hold.
    edge_faults::configure("serve.dispatch.hold", "100000*err").unwrap();
    let request = {
        let text = text.clone();
        std::thread::spawn(move || Client::connect(addr).unwrap().predict(&text).unwrap())
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.queue_depth() < 1 {
        assert!(Instant::now() < deadline, "the request never queued");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(20));
    edge_faults::remove("serve.dispatch.hold");
    let resp = request.join().unwrap();
    assert_eq!(resp.status, 200);
    let header = resp.header("x-request-id").expect("response carries X-Request-Id");
    let id: u64 = header.strip_prefix("req-").expect("minted id").parse().unwrap();
    server.shutdown();
    edge_obs::set_trace_enabled(false);

    // Slice the global trace by request id (other tests may be tracing
    // concurrently; the id isolates this request's spans exactly).
    let records = edge_obs::trace::records();
    let root = records
        .iter()
        .find(|r| r.name == "serve.request" && r.request == id)
        .expect("root span tagged with the request id");
    assert_eq!(root.parent, 0, "serve.request is a root span");

    let mut stage_durs: HashMap<&str, u64> = HashMap::new();
    let mut stage_threads: HashMap<&str, u64> = HashMap::new();
    for r in &records {
        if r.request == id && r.parent == root.id {
            if let Some(stage) = r.name.strip_prefix("serve.stage.") {
                *stage_durs.entry(stage).or_insert(0) += r.dur_us;
                stage_threads.insert(stage, r.thread);
            }
        }
    }
    for stage in ["parse", "queue", "batch", "inference", "serialize"] {
        assert!(stage_durs.contains_key(stage), "stage {stage} missing: {stage_durs:?}");
    }
    // Every stage ran on the event loop that parsed the request.
    for stage in ["queue", "batch", "inference", "serialize"] {
        assert_eq!(stage_threads[stage], stage_threads["parse"], "{stage} ran on the loop");
    }

    // The model's own spans nest under the inference stage, not under
    // some orphan root.
    let inference_id = records
        .iter()
        .find(|r| r.request == id && r.name == "serve.stage.inference")
        .map(|r| r.id)
        .unwrap();
    assert!(
        records
            .iter()
            .any(|r| r.request == id && r.name == "predict_batch" && r.parent == inference_id),
        "model spans stitch into the request's inference stage"
    );

    let sum: u64 = stage_durs.values().sum();
    let total = root.dur_us.max(1);
    let ratio = sum as f64 / total as f64;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "stage spans must sum to the request latency: {sum}µs vs {total}µs \
         (ratio {ratio:.3}, stages {stage_durs:?})"
    );

    // The JSONL dump round-trips the same request id.
    let parsed = edge_obs::trace::parse_jsonl(&edge_obs::trace::dump_jsonl()).unwrap();
    assert!(parsed.iter().any(|r| r.request == id && r.name == "serve.request"));
}

/// On a two-shard server every predict text is one routing decision
/// (`serve_route_affinity` or `serve_route_ring`) and at least one entity
/// resolution. This is the only multi-shard server in this binary, so
/// the routing counters move by exactly the texts it routed.
#[test]
fn routed_texts_count_one_routing_decision_and_a_resolution_each() {
    use edge_core::{ArtifactLoad, EdgeModel};
    let load = |path: &str| EdgeModel::load_artifact(path).expect("load");
    let shards = vec![
        ("nyma".to_string(), load(&util::world().model_path)),
        ("lama".to_string(), load(&util::lama_world().model_path)),
    ];
    let config = ServeConfig { addr: "127.0.0.1:0".to_string(), ..ServeConfig::default() };
    let server = edge_serve::Server::start_shards(shards, config).expect("server starts");
    let mut client = Client::connect(server.addr()).unwrap();
    let mut texts = util::covered_texts(6);
    texts.extend(util::lama_texts(6));
    texts.push("nothing to see here".to_string());

    let scrape = |client: &mut Client| {
        let metrics = client.request("GET", "/metrics", b"").unwrap();
        let scrape = edge_obs::openmetrics::parse(metrics.text()).expect("strict parse");
        let value = |name: &str| scrape.value(name, &[]).unwrap_or(0.0);
        (
            value("serve_route_affinity_total"),
            value("serve_route_ring_total"),
            value("core_ner_resolve_calls_total"),
        )
    };
    let before = scrape(&mut client);
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    assert_eq!(client.predict_batch(&refs).unwrap().status, 200);
    for text in &texts {
        client.predict(text).unwrap();
    }
    let after = scrape(&mut client);

    let n = 2.0 * texts.len() as f64;
    let (affinity, ring) = (after.0 - before.0, after.1 - before.1);
    assert_eq!(affinity + ring, n, "one routing decision per text");
    assert!(affinity > 0.0, "covered metro texts route by affinity");
    assert!(ring > 0.0, "a text without mentions falls through to the ring");
    assert!(after.2 - before.2 >= n, "every routed text resolved on its shard");
    server.shutdown();
}
