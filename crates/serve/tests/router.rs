//! Multi-shard routing and HTTP/1.1 pipelining, end to end: responses
//! from a routed two-metro server must be byte-identical to direct
//! `Predictor` calls on whichever shard the router picks, per-shard
//! metric families must attribute traffic to the right shard, and
//! pipelined requests must come back strictly in request order with the
//! same bytes a sequential client gets. The one-scan routing path
//! (`Router::route_resolve`) must pick the shard and resolve the ids that
//! recognizing the text twice — once with the union recognizer, once with
//! the owning shard's — does.

mod util;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use edge_core::{
    ArtifactLoad, EdgeConfig, EdgeModel, PredictOptions, PredictRequest, Predictor, TrainOptions,
};
use edge_data::{covid19, dataset_recognizer, ny2020, nyma, PresetSize, Tweet};
use edge_serve::router::{entity_set_key, fnv1a, DEFAULT_VNODES};
use edge_serve::{Client, HashRing, Router, ServeConfig, Server, TextScratch};
use edge_text::{EntityCategory, EntityRecognizer};

/// Starts a two-shard server (nyma + lama) and returns it with a router
/// mirror built from the same artifacts, for computing expectations.
fn start_two_shards(mut config: ServeConfig) -> (Server, Router, Vec<Arc<EdgeModel>>) {
    config.addr = "127.0.0.1:0".to_string();
    let ny = EdgeModel::load_artifact(&util::world().model_path).expect("load nyma");
    let la = EdgeModel::load_artifact(&util::lama_world().model_path).expect("load lama");
    let server =
        Server::start_shards(vec![("nyma".to_string(), ny), ("lama".to_string(), la)], config)
            .expect("server starts");
    let models = vec![
        Arc::new(EdgeModel::load_artifact(&util::world().model_path).expect("load nyma")),
        Arc::new(EdgeModel::load_artifact(&util::lama_world().model_path).expect("load lama")),
    ];
    let router = Router::new(vec!["nyma".to_string(), "lama".to_string()], &models);
    (server, router, models)
}

/// The direct-prediction fragment from a specific shard's model.
fn shard_fragment(model: &EdgeModel, text: &str) -> Vec<u8> {
    match model.locate(&PredictRequest::text(text), &PredictOptions::default()) {
        Ok(resp) => edge_serve::json::render_response(&resp),
        Err(err) => edge_serve::json::render_error(&err),
    }
}

/// Extracts a labeled counter's value from an OpenMetrics exposition.
fn metric_value(text: &str, needle: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(needle))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

#[test]
fn routed_responses_are_bit_identical_to_the_owning_shard() {
    let (server, router, models) = start_two_shards(ServeConfig {
        cache_capacity: 0, // every text goes through a model
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();

    let mut texts = util::covered_texts(6);
    texts.extend(util::lama_texts(6));
    assert!(texts.len() >= 10, "both metros contribute covered texts");

    let mut routed = [0usize; 2];
    for text in &texts {
        let s = router.route_text(text, &models);
        routed[s] += 1;
        let resp = client.predict(text).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body,
            shard_fragment(&models[s], text),
            "server bytes differ from direct rendering on shard {s}"
        );
    }
    assert!(routed[0] > 0, "some texts route to nyma");
    assert!(routed[1] > 0, "some texts route to lama");

    // The batch envelope mixes shards and still matches fragment-for-fragment.
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let resp = client.predict_batch(&refs).unwrap();
    assert_eq!(resp.status, 200);
    let mut expected = b"{\"results\":[".to_vec();
    for (i, text) in texts.iter().enumerate() {
        if i > 0 {
            expected.push(b',');
        }
        let s = router.route_text(text, &models);
        expected.extend_from_slice(&shard_fragment(&models[s], text));
    }
    expected.extend_from_slice(b"]}");
    assert_eq!(resp.body, expected, "mixed-shard batch differs from direct rendering");

    // Per-shard attribution: both shards saw texts, and the exposition
    // says so under their own labels.
    let metrics = client.request("GET", "/metrics", b"").unwrap();
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8_lossy(&metrics.body).into_owned();
    let ny = metric_value(&text, "serve_shard_texts_total{shard=\"nyma\"}");
    let la = metric_value(&text, "serve_shard_texts_total{shard=\"lama\"}");
    assert!(ny > 0.0, "nyma shard counter moved: {ny}");
    assert!(la > 0.0, "lama shard counter moved: {la}");
    server.shutdown();
}

/// One strict parse of a two-shard scrape, after traffic down every
/// predict path (model batch, cache hit, abstention): every family is
/// declared once, and the whole-server queue gauge is the sum of the
/// per-shard gauges while a request waits in the queue.
#[test]
fn a_two_shard_scrape_declares_every_family_once() {
    let _scenario = edge_faults::FailScenario::setup();
    let (server, _, _) = start_two_shards(ServeConfig::default());
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    let mut texts = util::covered_texts(4);
    let uncached = texts.pop().unwrap();
    texts.extend(util::lama_texts(3));
    texts.push("nothing recognizable here".to_string());
    for text in texts.iter().chain(&texts) {
        assert_eq!(client.predict(text).unwrap().status, 200);
    }

    // Park every loop's backlog (a loop checks the hold each time it
    // would run it), then admit one request so the depth gauges have
    // something to show.
    edge_faults::configure("serve.dispatch.hold", "100000*err").unwrap();
    let held = std::thread::spawn(move || Client::connect(addr).unwrap().predict(&uncached));
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.queue_depth() < 1 {
        assert!(Instant::now() < deadline, "the request never queued");
        std::thread::sleep(Duration::from_millis(1));
    }
    let metrics = client.request("GET", "/metrics", b"").unwrap();
    edge_faults::remove("serve.dispatch.hold");
    assert_eq!(held.join().unwrap().unwrap().status, 200);
    server.shutdown();

    let scrape = edge_obs::openmetrics::parse(metrics.text()).expect("strict parse");
    let mut names: Vec<&str> = scrape.families.iter().map(|f| f.name.as_str()).collect();
    names.sort_unstable();
    for pair in names.windows(2) {
        assert_ne!(pair[0], pair[1], "family declared twice");
    }
    for path in ["inline", "batched"] {
        let texts = scrape.value("serve_predict_texts_total", &[("batch_path", path)]);
        assert!(texts.unwrap_or(0.0) > 0.0, "{path} path taken");
    }
    assert!(scrape.value("serve_cache_stats_hits", &[]).unwrap_or(0.0) > 0.0);
    let total = scrape.value("serve_queue_depth", &[]).expect("queue depth gauge");
    let shard = |s| scrape.value("serve_shard_queue_depth", &[("shard", s)]).unwrap();
    assert!(total >= 1.0, "the held request shows in the queue");
    assert_eq!(total, shard("nyma") + shard("lama"), "the rollup sums the shard gauges");
}

/// A two-shard request that one shard refuses runs nowhere. The lama
/// backlog is full (held at `serve.dispatch.hold`), so every request
/// pairing a fresh nyma text with a lama text answers 429, and the nyma
/// texts are not admitted either: the backlog depth stays at the lama
/// texts, no model call runs, and nothing reaches the nyma cache.
#[test]
fn a_request_one_shard_refuses_runs_on_no_shard() {
    const CAP: usize = 8;
    let _scenario = edge_faults::FailScenario::setup();
    let (server, router, models) =
        start_two_shards(ServeConfig { queue_capacity: CAP, ..ServeConfig::default() });
    let addr = server.addr();
    // Texts each shard owns; the nyma ones with distinct entity sets, so
    // one's answer can never be a cache hit for another.
    let mut sets = std::collections::HashSet::new();
    let nyma: Vec<String> = util::covered_texts(400)
        .into_iter()
        .filter(|t| {
            router.route_text(t, &models) == 0 && sets.insert(models[0].resolve_entities(t))
        })
        .take(CAP)
        .collect();
    let lama: Vec<String> = util::lama_texts(400)
        .into_iter()
        .filter(|t| router.route_text(t, &models) == 1)
        .take(2 * CAP)
        .collect();
    assert_eq!((nyma.len(), lama.len()), (CAP, 2 * CAP), "enough texts per shard");

    edge_faults::configure("serve.dispatch.hold", "100000*err").unwrap();
    let filler: Vec<String> = lama[..CAP].to_vec();
    let held = std::thread::spawn(move || {
        let refs: Vec<&str> = filler.iter().map(String::as_str).collect();
        Client::connect(addr).unwrap().predict_batch(&refs).unwrap()
    });
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.queue_depth() < CAP {
        assert!(Instant::now() < deadline, "the lama backlog never filled");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut client = Client::connect(addr).unwrap();
    let batches = |client: &mut Client| {
        let scrape = client.request("GET", "/metrics", b"").unwrap();
        let scrape = edge_obs::openmetrics::parse(scrape.text()).expect("strict parse");
        scrape.value("serve_batch_size_count", &[]).unwrap_or(0.0)
    };
    let (batches_before, (hits_before, _)) = (batches(&mut client), server.cache_stats());

    for (n, l) in nyma.iter().zip(&lama[CAP..]) {
        let resp = client.predict_batch(&[n.as_str(), l.as_str()]).unwrap();
        assert_eq!(resp.status, 429, "{}", resp.text());
    }
    assert_eq!(server.queue_depth(), CAP, "no nyma text was admitted");
    assert_eq!(batches(&mut client), batches_before, "no model call ran");

    edge_faults::remove("serve.dispatch.hold");
    assert_eq!(held.join().unwrap().status, 200, "the parked request completes");
    for text in &nyma {
        let resp = client.predict(text).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, shard_fragment(&models[0], text));
    }
    assert_eq!(server.cache_stats().0, hits_before, "the refused nyma texts cached nothing");
    server.shutdown();
}

#[test]
fn multi_shard_reload_requires_a_shard_name() {
    let (server, _, _) = start_two_shards(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    let body =
        format!("{{\"path\":{}}}", serde_json::to_string(&util::world().model_path).unwrap());
    let resp = client.request("POST", "/reload", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 400, "ambiguous reload must be rejected");

    let body = format!(
        "{{\"path\":{},\"shard\":\"nyma\"}}",
        serde_json::to_string(&util::world().model_path).unwrap()
    );
    let resp = client.request("POST", "/reload", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "named-shard reload succeeds: {:?}", resp.json());

    let body = format!(
        "{{\"path\":{},\"shard\":\"atlantis\"}}",
        serde_json::to_string(&util::world().model_path).unwrap()
    );
    let resp = client.request("POST", "/reload", body.as_bytes()).unwrap();
    assert_eq!(resp.status, 400, "unknown shard is a typed client error");
    server.shutdown();
}

/// Reads one full HTTP/1.1 response (headers + Content-Length body) off
/// a stream that may already hold bytes of the next one.
struct RespReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl RespReader {
    fn next(&mut self) -> Vec<u8> {
        loop {
            if let Some(header_end) = find(&self.buf, b"\r\n\r\n") {
                let headers = String::from_utf8_lossy(&self.buf[..header_end]).into_owned();
                let len: usize = headers
                    .lines()
                    .find_map(|l| {
                        let (name, value) = l.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse().ok())?
                    })
                    .expect("response has a Content-Length");
                let total = header_end + 4 + len;
                if self.buf.len() >= total {
                    let rest = self.buf.split_off(total);
                    return std::mem::replace(&mut self.buf, rest);
                }
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("read");
            assert!(n > 0, "connection closed mid-response");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Frames one predict request with a fixed request id so response bytes
/// are deterministic across runs and connections.
fn predict_request(text: &str, id: &str) -> Vec<u8> {
    let body = format!("{{\"text\":{}}}", serde_json::to_string(text).unwrap());
    format!(
        "POST /predict HTTP/1.1\r\nHost: t\r\nX-Request-Id: {id}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[test]
fn pipelined_requests_answer_in_order_with_sequential_bytes() {
    let server = util::start_server(ServeConfig {
        max_batch: 4,
        cache_capacity: 0,
        ..ServeConfig::default()
    });
    let texts = util::covered_texts(6);
    assert!(texts.len() >= 4, "enough covered texts to pipeline");

    // Sequential leg: one request at a time on its own connection.
    let mut sequential = Vec::new();
    {
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = RespReader { stream, buf: Vec::new() };
        for (i, text) in texts.iter().enumerate() {
            reader.stream.write_all(&predict_request(text, &format!("pipe-{i}"))).unwrap();
            sequential.push(reader.next());
        }
    }

    // Pipelined leg: every request written back-to-back before any
    // response is read. Answers must arrive strictly in request order
    // and byte-identical to the sequential leg.
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = RespReader { stream, buf: Vec::new() };
    let mut wire = Vec::new();
    for (i, text) in texts.iter().enumerate() {
        wire.extend_from_slice(&predict_request(text, &format!("pipe-{i}")));
    }
    reader.stream.write_all(&wire).unwrap();
    for (i, expected) in sequential.iter().enumerate() {
        let got = reader.next();
        assert_eq!(
            got,
            *expected,
            "pipelined response {i} differs from sequential:\n got: {}\nwant: {}",
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(expected)
        );
    }
    server.shutdown();
}

/// Routing as two separate recognitions: the union recognizer's mentions
/// for affinity and the ring key, then the owning shard's own
/// `resolve_entities` (its recognizer run again on the raw text).
fn two_pass_route(names: &[String], models: &[Arc<EdgeModel>], text: &str) -> (usize, Vec<usize>) {
    if models.len() == 1 {
        return (0, models[0].resolve_entities(text));
    }
    let mut union = EntityRecognizer::new();
    for model in models {
        union.merge(model.recognizer());
    }
    let mentions = union.recognize(text);
    let counts: Vec<usize> = models
        .iter()
        .map(|m| mentions.iter().filter(|x| m.entity_index().get(&x.id).is_some()).count())
        .collect();
    let best = *counts.iter().max().unwrap();
    let s = if best > 0 && counts.iter().filter(|&&c| c == best).count() == 1 {
        counts.iter().position(|&c| c == best).unwrap()
    } else {
        let key = if mentions.is_empty() {
            fnv1a(text.as_bytes())
        } else {
            entity_set_key(&mut mentions.into_iter().map(|m| m.id).collect())
        };
        HashRing::new(names, DEFAULT_VNODES).route(key)
    };
    (s, models[s].resolve_entities(text))
}

/// A third metro shard trained on a slice of the NY 2020 preset.
fn ny2020_model() -> Arc<EdgeModel> {
    static MODEL: OnceLock<Arc<EdgeModel>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let d = ny2020(PresetSize::Smoke, 77);
        let (train, _) = d.paper_split();
        let mut cfg = EdgeConfig::smoke();
        cfg.epochs = 1;
        let opts = TrainOptions::default();
        let (model, _) =
            EdgeModel::train(train, dataset_recognizer(&d), &d.bbox, cfg, &opts).expect("train");
        Arc::new(model)
    }))
}

#[test]
fn one_scan_routing_matches_two_recognitions_on_every_preset_text() {
    let all = [
        ("nyma", Arc::new(EdgeModel::load_artifact(&util::world().model_path).expect("nyma"))),
        ("lama", Arc::new(EdgeModel::load_artifact(&util::lama_world().model_path).expect("lama"))),
        ("ny2020", ny2020_model()),
    ];
    let corpora = [
        util::world().dataset.clone(),
        util::lama_world().dataset.clone(),
        ny2020(PresetSize::Smoke, 5),
        covid19(PresetSize::Smoke, 5),
    ];
    for shards in 1..=3 {
        let names: Vec<String> = all[..shards].iter().map(|(n, _)| n.to_string()).collect();
        let models: Vec<Arc<EdgeModel>> =
            all[..shards].iter().map(|(_, m)| Arc::clone(m)).collect();
        let router = Router::new(names.clone(), &models);
        let mut scratch = TextScratch::new();
        let mut routed = vec![0usize; shards];
        let mut texts = 0;
        for tweet in corpora.iter().flat_map(|d| &d.tweets) {
            let (want_shard, want_ids) = two_pass_route(&names, &models, &tweet.text);
            let s = router.route_resolve(&tweet.text, &models, &mut scratch);
            assert_eq!(s, want_shard, "{shards} shards routed {:?}", tweet.text);
            assert_eq!(scratch.entities(), want_ids, "{shards} shards resolved {:?}", tweet.text);
            assert_eq!(router.route_text(&tweet.text, &models), s, "route_text agrees");
            routed[s] += 1;
            texts += 1;
        }
        assert!(texts > 10_000, "every preset contributes texts: {texts}");
        assert!(
            routed.iter().all(|&n| n > 0),
            "{shards} shards: every shard routed to: {routed:?}"
        );
    }
}

/// A tiny model over hand-written texts: `gazetteer` is its recognizer,
/// `texts` (cycled over a slice of NYMA tweets for locations and dates)
/// its training corpus, so its entity index holds exactly what they
/// mention.
fn hand_model(gazetteer: &[(&str, EntityCategory)], texts: &[&str]) -> Arc<EdgeModel> {
    let d = nyma(PresetSize::Smoke, 3);
    let train: Vec<Tweet> = d.tweets[..96]
        .iter()
        .zip(texts.iter().cycle())
        .map(|(t, text)| Tweet { text: text.to_string(), ..t.clone() })
        .collect();
    let mut cfg = EdgeConfig::smoke();
    cfg.epochs = 1;
    let ner = EntityRecognizer::with_gazetteer(gazetteer.iter().copied());
    let (model, _) =
        EdgeModel::train(&train, ner, &d.bbox, cfg, &TrainOptions::default()).expect("train");
    Arc::new(model)
}

const GEO: EntityCategory = EntityCategory::Geolocation;
const WEST: &[(&str, EntityCategory)] =
    &[("sunset boulevard", GEO), ("santa monica", GEO), ("venice beach", GEO)];
const WEST_TEXTS: &[&str] = &[
    "brunch on sunset boulevard",
    "sunset boulevard traffic again",
    "pier day in santa monica",
    "santa monica to venice beach by bike",
    "venice beach skate park",
];
const EAST: &[(&str, EntityCategory)] =
    &[("sunset", EntityCategory::Other), ("central park", GEO), ("times square", GEO)];
const EAST_TEXTS: &[&str] = &[
    "watching the sunset",
    "sunset over central park",
    "central park loop run",
    "times square lights",
    "times square to central park",
];

/// The union sees `sunset boulevard` (a phrase only shard A knows), but
/// the text routes to shard B, whose own recognizer reads `sunset`: the
/// ids must come from B's segmentation.
#[test]
fn resolution_follows_the_owning_shards_segmentation() {
    let names = vec!["west".to_string(), "east".to_string()];
    let models = vec![hand_model(WEST, WEST_TEXTS), hand_model(EAST, EAST_TEXTS)];
    let east = &models[1];
    let sunset = east.entity_index().get("sunset").expect("east knows sunset");
    assert!(east.entity_index().get("sunset_boulevard").is_none());
    let router = Router::new(names.clone(), &models);
    let mut scratch = TextScratch::new();

    let text = "sunset boulevard then central park and times square";
    assert_eq!(router.route_resolve(text, &models, &mut scratch), 1, "east wins 2 to 1");
    assert!(scratch.entities().contains(&sunset), "{:?}", scratch.entities());
    assert_eq!(scratch.entities(), east.resolve_entities(text));
    assert_eq!(scratch.entities().len(), 3);
    assert_eq!((1, scratch.entities().to_vec()), two_pass_route(&names, &models, text));

    let text = "sunset boulevard to santa monica";
    assert_eq!(router.route_resolve(text, &models, &mut scratch), 0, "west wins 2 to 0");
    assert_eq!(scratch.entities(), models[0].resolve_entities(text));
    assert_eq!(scratch.entities().len(), 2);
}

/// Affinity reads each shard's current entity index: once shard A is
/// replaced by a model that never saw two of its entities, the same
/// router sends their text to shard B.
#[test]
fn affinity_follows_a_reloaded_shards_index() {
    let names = vec!["west".to_string(), "east".to_string()];
    let before = vec![hand_model(WEST, WEST_TEXTS), hand_model(EAST, EAST_TEXTS)];
    let router = Router::new(names, &before);
    let text = "santa monica and venice beach, then central park";
    let mut scratch = TextScratch::new();
    assert_eq!(router.route_resolve(text, &before, &mut scratch), 0, "west knows two");

    let reloaded = hand_model(WEST, &["brunch on sunset boulevard", "dinner near Echo Park"]);
    assert!(reloaded.entity_index().get("santa_monica").is_none());
    let after = vec![reloaded, Arc::clone(&before[1])];
    assert_eq!(router.route_resolve(text, &after, &mut scratch), 1, "east now wins 1 to 0");
    assert_eq!(scratch.entities(), after[1].resolve_entities(text));
    assert_eq!(router.route_text(text, &after), 1);
}
