//! Brownout degradation-ladder tests, driven deterministically through
//! the `serve.mode.force` failpoint: each fired hit forces one unhealthy
//! controller tick, so the ladder position is exact regardless of timing.
//!
//! `FailScenario::setup` holds a global lock, so these tests serialize
//! against each other.

mod util;

use std::time::{Duration, Instant};

use edge_faults::FailScenario;
use edge_serve::brownout::Mode;
use edge_serve::{Client, ServeConfig};

/// A config whose controller ticks on every evaluation and escalates on
/// a single unhealthy tick — the ladder moves exactly one step per
/// forced failpoint hit.
fn ladder_config(recover_ticks: u32) -> ServeConfig {
    ServeConfig {
        brownout_tick_us: 0,
        brownout_escalate_ticks: 1,
        brownout_recover_ticks: recover_ticks,
        ..ServeConfig::default()
    }
}

fn await_mode(server: &edge_serve::Server, want: Mode) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.brownout_mode() != want {
        assert!(
            Instant::now() < deadline,
            "mode never reached {:?} (stuck at {:?})",
            want,
            server.brownout_mode()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One forced unhealthy tick lands the ladder at CacheOnly: cached
/// answers still serve bit-identically, misses are rejected with
/// `503 + Retry-After`.
#[test]
fn cache_only_serves_hits_and_rejects_misses() {
    let scenario = FailScenario::setup();
    // Recovery is pinned far away so the mode holds still under test.
    let server = util::start_server(ladder_config(1_000_000));
    let mut client = Client::connect(server.addr()).unwrap();
    let texts = util::covered_texts(2);
    assert!(texts.len() >= 2, "need two covered texts");

    // Prime the cache with the first text while still Full.
    let resp = client.predict(&texts[0]).unwrap();
    assert_eq!(resp.status, 200);

    edge_faults::configure("serve.mode.force", "1*err").unwrap();
    await_mode(&server, Mode::CacheOnly);

    let hit = client.predict(&texts[0]).unwrap();
    assert_eq!(hit.status, 200, "cache hits keep serving: {}", hit.text());
    assert_eq!(hit.body, util::expected_fragment(&texts[0]));

    let miss = client.predict(&texts[1]).unwrap();
    assert_eq!(miss.status, 503, "misses are rejected: {}", miss.text());
    assert_eq!(miss.json().get("error").unwrap().as_str(), Some("browned_out"));
    assert_eq!(miss.json().get("mode").unwrap().as_str(), Some("cache_only"));
    assert!(miss.retry_after().is_some(), "brownout 503 must carry Retry-After");

    // /healthz reports the mode for operators.
    let health = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!(health.json().get("mode").unwrap().as_str(), Some("cache_only"));

    server.shutdown();
    drop(scenario);
}

/// Two forced ticks land at PriorOnly: misses are answered from the
/// fallback prior Gaussian, explicitly marked `"degraded": true`.
#[test]
fn prior_only_answers_degraded_from_the_prior() {
    let scenario = FailScenario::setup();
    let server = util::start_server(ladder_config(1_000_000));
    let mut client = Client::connect(server.addr()).unwrap();
    let text = util::covered_texts(1).remove(0);

    edge_faults::configure("serve.mode.force", "2*err").unwrap();
    await_mode(&server, Mode::PriorOnly);

    let resp = client.predict(&text).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let v = resp.json();
    assert_eq!(v.get("degraded"), Some(&serde_json::Value::Bool(true)));
    assert!(v.get("point").is_some(), "a degraded answer is still a full prediction shape");

    server.shutdown();
    drop(scenario);
}

/// Forced ticks hold the ladder at Shed (everything rejected); once the
/// fault clears, the controller walks back to Full within a bounded window
/// and answers bit-identically again.
#[test]
fn shed_rejects_everything_then_recovers_to_full() {
    let scenario = FailScenario::setup();
    let server = util::start_server(ladder_config(2));
    let mut client = Client::connect(server.addr()).unwrap();
    let text = util::covered_texts(1).remove(0);

    // Unbounded, so every tick stays unhealthy until the predict below has
    // been answered: a bounded count could run out while the predict is on
    // its way, and two healthy ticks would leave Shed before it arrives.
    edge_faults::configure("serve.mode.force", "err").unwrap();
    await_mode(&server, Mode::Shed);

    let resp = client.predict(&text).unwrap();
    assert_eq!(resp.status, 503, "Shed rejects all predicts: {}", resp.text());
    assert_eq!(resp.json().get("mode").unwrap().as_str(), Some("shed"));

    // The fault clears: healthy ticks walk the ladder back up.
    edge_faults::configure("serve.mode.force", "off").unwrap();
    await_mode(&server, Mode::Full);
    let resp = client.predict(&text).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(resp.body, util::expected_fragment(&text));

    server.shutdown();
    drop(scenario);
}
