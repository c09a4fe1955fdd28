//! End-to-end serving tests over real sockets: batched responses must be
//! bit-identical to direct `Predictor` calls, concurrent clients must not
//! interleave, and hot reload must swap models atomically mid-traffic.

mod util;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use edge_core::{
    ArtifactLoad, EdgeConfig, EdgeModel, PredictOptions, PredictRequest, Predictor, QuantMode,
    TrainOptions,
};
use edge_data::{dataset_recognizer, nyma, PresetSize};
use edge_serve::{Client, ServeConfig};

#[test]
fn batched_responses_are_bit_identical_to_direct_calls() {
    let server = util::start_server(ServeConfig {
        max_batch: 8,
        cache_capacity: 0, // cache off: every text must go through the model
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();

    let texts = util::covered_texts(12);
    assert!(texts.len() >= 8, "smoke corpus covers enough tweets");
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let resp = client.predict_batch(&refs).unwrap();
    assert_eq!(resp.status, 200);

    // The batch envelope is exactly the direct fragments, comma-joined —
    // so responses are byte-identical to offline rendering, float bits
    // included.
    let mut expected = b"{\"results\":[".to_vec();
    for (i, text) in texts.iter().enumerate() {
        if i > 0 {
            expected.push(b',');
        }
        expected.extend_from_slice(&util::expected_fragment(text));
    }
    expected.extend_from_slice(b"]}");
    assert_eq!(resp.body, expected, "server bytes differ from direct rendering");

    // Single-shape requests return the bare fragment.
    let single = client.predict(&texts[0]).unwrap();
    assert_eq!(single.status, 200);
    assert_eq!(single.body, util::expected_fragment(&texts[0]));
    server.shutdown();
}

#[test]
fn abstentions_are_typed_in_the_batch_envelope() {
    let server = util::start_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let covered = util::covered_texts(1).remove(0);
    let uncovered = util::uncovered_text();

    let resp = client.predict_batch(&[covered.as_str(), uncovered.as_str()]).unwrap();
    assert_eq!(resp.status, 200);
    let v = resp.json();
    let results = v.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 2);
    assert!(results[0].get("point").is_some(), "covered text predicts");
    assert_eq!(
        results[1].get("error").and_then(|e| e.as_str()),
        Some("no_entities"),
        "uncovered text abstains with the typed error"
    );

    // The same request with the prior fallback answers both.
    let body = format!(
        "{{\"texts\":[{},{}],\"fallback_prior\":true}}",
        serde_json::to_string(&covered).unwrap(),
        serde_json::to_string(&uncovered).unwrap()
    );
    let resp = client.request("POST", "/predict", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    let v = resp.json();
    let results = v.get("results").unwrap().as_array().unwrap();
    assert!(results[1].get("point").is_some(), "fallback answers the uncovered text");
    assert!(
        matches!(results[1].get("from_fallback"), Some(serde_json::Value::Bool(true))),
        "the fallback answer is flagged as such"
    );
    server.shutdown();
}

#[test]
fn concurrent_clients_get_unscrambled_answers() {
    let server = util::start_server(ServeConfig {
        max_batch: 16,
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let texts = util::covered_texts(8);
    let handles: Vec<_> = (0..4)
        .map(|worker| {
            let texts = texts.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..10 {
                    let text = &texts[(worker + round) % texts.len()];
                    let resp = client.predict(text).unwrap();
                    assert_eq!(resp.status, 200);
                    assert_eq!(
                        resp.body,
                        util::expected_fragment(text),
                        "worker {worker} round {round} got someone else's answer"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    server.shutdown();
}

#[test]
fn cache_serves_repeat_entity_sets_identically() {
    let server = util::start_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let text = util::covered_texts(1).remove(0);
    let first = client.predict(&text).unwrap();
    let second = client.predict(&text).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.body, second.body);
    let (hits, _misses) = server.cache_stats();
    assert!(hits >= 1, "the repeat request must hit the cache");
    server.shutdown();
}

#[test]
fn healthz_metrics_and_unknown_routes() {
    let server = util::start_server(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    let health = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    let v = health.json();
    assert_eq!(v.get("status").unwrap().as_str(), Some("ok"));
    assert_eq!(v.get("generation").unwrap().as_str(), Some("1"));

    let _ = client.predict(&util::covered_texts(1)[0]).unwrap();
    let metrics = client.request("GET", "/metrics", b"").unwrap();
    assert_eq!(metrics.status, 200);
    assert_eq!(metrics.header("content-type"), Some(edge_obs::openmetrics::CONTENT_TYPE));
    let scrape = edge_obs::openmetrics::parse(metrics.text()).expect("exposition parses");
    assert!(
        scrape.value("serve_requests_total", &[]).unwrap_or(0.0) >= 1.0,
        "exposition lists serve counters"
    );
    assert!(
        scrape.value("serve_cache_stats_hits", &[]).is_some(),
        "cache stats are proper gauges now"
    );

    assert_eq!(client.request("GET", "/nope", b"").unwrap().status, 404);
    assert_eq!(client.request("GET", "/predict", b"").unwrap().status, 405);
    assert_eq!(client.request("POST", "/predict", b"{malformed").unwrap().status, 400);
    server.shutdown();
}

#[test]
fn reload_swaps_the_model_mid_traffic_and_rejects_corruption() {
    let w = util::world();
    let server = util::start_server(ServeConfig::default());
    let addr = server.addr();

    // Continuous traffic in the background for the whole reload dance.
    let stop = Arc::new(AtomicBool::new(false));
    let traffic = {
        let stop = Arc::clone(&stop);
        let texts = util::covered_texts(6);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut i = 0usize;
            while !stop.load(Ordering::Acquire) {
                let resp = client.predict(&texts[i % texts.len()]).unwrap();
                assert_eq!(resp.status, 200, "traffic must never fail during reloads");
                i += 1;
            }
            i
        })
    };

    let mut client = Client::connect(addr).unwrap();

    // 1. A corrupt artifact is rejected and the old model keeps serving.
    let corrupt_path =
        std::env::temp_dir().join(format!("edge_serve_corrupt_{}.json", std::process::id()));
    let mut bytes = std::fs::read(&w.model_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff; // flip a payload byte: CRC64 must catch it
    std::fs::write(&corrupt_path, &bytes).unwrap();
    let body = format!(
        "{{\"path\":{}}}",
        serde_json::to_string(&corrupt_path.to_string_lossy().into_owned()).unwrap()
    );
    let resp = client.request("POST", "/reload", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 422, "corrupt artifact must be rejected: {}", resp.text());
    assert_eq!(server.generation(), 1, "rejected reload must not bump the generation");
    let text = util::covered_texts(1).remove(0);
    assert_eq!(
        client.predict(&text).unwrap().body,
        util::expected_fragment(&text),
        "old model keeps serving after a rejected reload"
    );

    // 2. A healthy artifact (a different model) swaps in atomically.
    let dataset2 = nyma(PresetSize::Smoke, 777);
    let (train2, _) = dataset2.paper_split();
    let mut cfg = EdgeConfig::smoke();
    cfg.epochs = 2;
    let (model2, _) = EdgeModel::train(
        train2,
        dataset_recognizer(&dataset2),
        &dataset2.bbox,
        cfg,
        &TrainOptions::default(),
    )
    .unwrap();
    let path2 = std::env::temp_dir().join(format!("edge_serve_reload_{}.json", std::process::id()));
    model2.save_artifact(&path2, QuantMode::None).unwrap();
    let body = format!(
        "{{\"path\":{}}}",
        serde_json::to_string(&path2.to_string_lossy().into_owned()).unwrap()
    );
    let resp = client.request("POST", "/reload", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "healthy reload: {}", resp.text());
    assert_eq!(server.generation(), 2);

    // Fresh requests are now answered by model2, bit for bit.
    let model2 = EdgeModel::load_artifact(&path2).unwrap();
    let (_, test2) = dataset2.paper_split();
    let text2 = test2
        .iter()
        .find(|t| !model2.resolve_entities(&t.text).is_empty())
        .map(|t| t.text.clone())
        .expect("model2 covers something");
    let direct = model2
        .locate(&PredictRequest::text(&text2), &PredictOptions::default())
        .map(|r| edge_serve::json::render_response(&r))
        .unwrap();
    assert_eq!(client.predict(&text2).unwrap().body, direct);

    stop.store(true, Ordering::Release);
    let sent = traffic.join().unwrap();
    assert!(sent > 0, "the traffic thread actually exercised the server");
    std::fs::remove_file(&corrupt_path).ok();
    std::fs::remove_file(&path2).ok();
    server.shutdown();
}

#[test]
fn graceful_shutdown_answers_inflight_requests() {
    let _scenario = edge_faults::FailScenario::setup();
    let server = util::start_server(ServeConfig { max_batch: 4, ..ServeConfig::default() });
    let addr = server.addr();
    let text = util::covered_texts(1).remove(0);

    // Hold the scheduler so the request stays queued: it observes the
    // failpoint between idle waits (every ~20ms), so after a grace period
    // it is parked in the hold loop and dispatches nothing.
    edge_faults::configure("serve.dispatch.hold", "100000*err").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let handle = {
        let text = text.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.predict(&text).unwrap()
        })
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.queue_depth() < 1 {
        assert!(Instant::now() < deadline, "the request never queued");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Begin the drain while the request is still queued (`shutdown` blocks
    // until the scheduler exits, so it runs on its own thread), wait until
    // the drain has closed the listener, then release the scheduler to
    // answer the request.
    let drain = std::thread::spawn(move || server.shutdown());
    while std::net::TcpStream::connect(addr).is_ok() {
        assert!(Instant::now() < deadline, "the drain never closed the listener");
        std::thread::sleep(Duration::from_millis(2));
    }
    edge_faults::remove("serve.dispatch.hold");
    drain.join().unwrap();
    let resp = handle.join().unwrap();
    assert_eq!(resp.status, 200, "queued request is answered during drain");
    assert_eq!(resp.body, util::expected_fragment(&text));
}
