//! Closed-loop serving benchmark: measures end-to-end `POST /predict`
//! throughput and latency against a live `edge-serve` server over real
//! sockets, in four classic legs (all on one keep-alive connection):
//!
//! 1. `unbatched` — one text per request, `max_batch = 1`, default server
//!    config (cache on): every request pays the full per-request fixed
//!    cost (syscalls, HTTP framing, event-loop wake-ups).
//! 2. `batched` — 32 texts per request, `max_batch = 32`, same config:
//!    the fixed cost is amortized across the batch. The headline
//!    `speedup_batched_vs_unbatched` is leg 2 over leg 1 — identical
//!    server defaults, only the batching differs.
//! 3. `unbatched-cold` / 4. `batched-cold` — the same pair with the
//!    response cache disabled, isolating the model-bound regime where
//!    every text pays the full inference cost (inference forward pass,
//!    Eq. 14 mode search and rendering).
//!
//! On top of the classic legs, the event-loop/router stack gets its own
//! measurements:
//!
//! - `lone_request` — one text per request on one connection, default
//!   `max_batch`, cache off: the single-user case, which the event loop
//!   runs at the end of the round that parsed it, never waiting for
//!   company. CI gates its ring-median queue wait.
//! - `high_concurrency` — the server holds 10k+ idle keep-alive
//!   connections (the epoll interest list, not threads, carries them)
//!   while a foreground client drives batched predict traffic; latency
//!   must stay flat and nothing may shed.
//! - `multi_shard` — the warm batched leg against a two-shard routed
//!   server, with the per-shard latency/shed decomposition from the
//!   `serve_shard_*` metric families.
//! - `obs_overhead` / `robustness_overhead` — the warm batched leg with
//!   the metrics layer (or the deadline/budget/brownout layer) on vs off:
//!   the median over 7 interleaved on/off pairs of each pair's
//!   `1 - on/off`, with its IQR. CI gates each median at <= 2%.
//! - `router_overhead` — interleaved best-of-5 warm batched throughput,
//!   two-shard routed vs single-shard (the single-model path
//!   short-circuits routing entirely; the two-shard side pays one extra
//!   union-gazetteer pass per text for the routing decision).
//! - `render` — in process, no sockets: `json::render_response` against
//!   a `Display`-based reference renderer over every answered test text,
//!   interleaved best-of-15 ns per response. The two must agree byte for
//!   byte; `scripts/perf_smoke.sh` gates `ratio` at <= 0.5.
//!
//! Usage: `cargo run --release -p edge-bench --bin bench_serve [--size smoke]`
//!
//! Writes `results/BENCH_serve.{json,txt}`. Cache counters are snapshot
//! after warmup and subtracted, so each leg's hit/miss numbers cover
//! exactly the measured window (warmup traffic used to leak in).

use std::net::TcpStream;
use std::time::Instant;

use std::hint::black_box;

use edge_core::{
    ArtifactLoad, EdgeModel, ModelArtifact, PredictOptions, PredictRequest, PredictResponse,
    Predictor, QuantMode,
};
use edge_obs::ring::{STAGE_BATCH, STAGE_INFERENCE, STAGE_PARSE, STAGE_QUEUE, STAGE_SERIALIZE};
use edge_serve::{Client, ServeConfig, Server};
use serde::Serialize;

/// How many texts each batched request carries (= leg 2's `max_batch`).
const BATCH: usize = 32;

/// Interleaved on/off pairs behind each gated overhead (obs, robustness).
const OVERHEAD_PAIRS: usize = 7;

/// Idle keep-alive connections the high-concurrency leg holds open.
const HIGH_CONC_TARGET: usize = 10_000;

/// Server-side medians of the ring's per-stage decomposition over the
/// leg's successful `/predict` requests.
#[derive(Clone, Copy, Serialize)]
struct StageMedians {
    parse_us: f64,
    queue_us: f64,
    batch_us: f64,
    inference_us: f64,
    serialize_us: f64,
}

/// One shard's view of a leg, from the `serve_shard_*` labeled families
/// scraped off `/metrics` at the end of the measured window.
#[derive(Clone, Serialize)]
struct ShardStat {
    shard: String,
    requests: f64,
    texts: f64,
    p50_us: f64,
    p99_us: f64,
    shed_rate: f64,
}

#[derive(Serialize)]
struct LegRecord {
    leg: String,
    requests: usize,
    texts_per_request: usize,
    total_texts: usize,
    wall_secs: f64,
    texts_per_sec: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    /// Cache traffic within the measured window only (warmup subtracted).
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
    stage_median_us: StageMedians,
    per_shard: Vec<ShardStat>,
}

/// A single user against the default server: nothing else is parked, so
/// the queue wait is only the rest of the loop's readiness round.
#[derive(Serialize)]
struct LoneRequest {
    requests: usize,
    p50_us: f64,
    /// Ring median of the queue stage. CI gates this at <= 250.
    queue_us: f64,
}

/// A layer's cost on the warm batched leg, from interleaved on/off pairs.
/// Each pair runs both sides back to back (alternating which goes first),
/// so machine-wide drift (thermal, neighbors) hits both; the estimate is
/// the median of the per-pair overheads, not a ratio of each side's best,
/// which one lucky rep on either side could swing past a 2% gate.
#[derive(Serialize)]
struct PairedOverhead {
    /// On/off pairs measured.
    pairs: usize,
    /// Median throughput with the layer on.
    enabled_texts_per_sec: f64,
    /// Median throughput with the layer off.
    disabled_texts_per_sec: f64,
    /// `max(0, median over pairs of 1 - on/off)`. CI gates this at <= 0.02.
    overhead_frac: f64,
    /// Interquartile range of the per-pair `1 - on/off`: the spread the
    /// median is judged against.
    overhead_iqr: f64,
}

/// Runs `pairs` interleaved `rep(true)` / `rep(false)` throughput pairs.
fn paired_overhead(pairs: usize, rep: impl Fn(bool) -> f64) -> PairedOverhead {
    let (mut on, mut off, mut overheads) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..pairs {
        let (a, b) = if i % 2 == 0 { (true, false) } else { (false, true) };
        let first = rep(a);
        let second = rep(b);
        let (enabled, disabled) = if a { (first, second) } else { (second, first) };
        on.push(enabled);
        off.push(disabled);
        overheads.push(1.0 - enabled / disabled);
    }
    for v in [&mut on, &mut off, &mut overheads] {
        v.sort_by(f64::total_cmp);
    }
    PairedOverhead {
        pairs,
        enabled_texts_per_sec: percentile(&on, 50.0),
        disabled_texts_per_sec: percentile(&off, 50.0),
        overhead_frac: percentile(&overheads, 50.0).max(0.0),
        overhead_iqr: percentile(&overheads, 75.0) - percentile(&overheads, 25.0),
    }
}

/// The warm batched leg against a two-shard routed server vs the
/// single-shard short-circuit path, interleaved best-of-5 each.
#[derive(Serialize)]
struct RouterOverhead {
    single_shard_texts_per_sec: f64,
    multi_shard_texts_per_sec: f64,
    /// `max(0, 1 - multi/single)`: what a real routing decision (one
    /// union-gazetteer pass per text) costs against the cache-hit-bound
    /// warm path. The single-model path pays none of it (short-circuit).
    overhead_frac: f64,
}

/// The 10k-connection leg: idle keep-alive connections held open while
/// foreground batched traffic measures latency under epoll load.
#[derive(Serialize)]
struct HighConcurrency {
    target_connections: usize,
    connections_held: usize,
    requests: usize,
    texts_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    per_shard: Vec<ShardStat>,
}

/// One quantization mode's accuracy/size against the f32 baseline on the
/// full test split.
#[derive(Serialize)]
struct QuantLeg {
    mode: String,
    artifact_bytes: u64,
    mean_km: f64,
    /// `|mean_km - f32 mean_km|` — the CI drift gate.
    drift_km: f64,
}

#[derive(Serialize)]
struct Quantization {
    f32_artifact_bytes: u64,
    f32_mean_km: f64,
    modes: Vec<QuantLeg>,
}

/// The response writer against the `Display`-based renderer it replaced.
#[derive(Serialize)]
struct RenderBench {
    responses: usize,
    floats_per_response: f64,
    /// Best-of-reps nanoseconds per response, `json::render_response`.
    render_ns: f64,
    /// The same for [`render_display`].
    display_ns: f64,
    /// `render_ns / display_ns`; `scripts/perf_smoke.sh` gates it at <= 0.5.
    ratio: f64,
}

#[derive(Serialize)]
struct ServeBenchOutput {
    threads: usize,
    corpus: String,
    covered_texts: usize,
    legs: Vec<LegRecord>,
    /// Leg "batched" texts/sec over leg "unbatched" texts/sec (both under
    /// the default server config).
    speedup_batched_vs_unbatched: f64,
    /// The same ratio with the response cache disabled in both legs.
    cold_speedup_batched_vs_unbatched: f64,
    obs_overhead: PairedOverhead,
    robustness_overhead: PairedOverhead,
    router_overhead: RouterOverhead,
    multi_shard: LegRecord,
    lone_request: LoneRequest,
    high_concurrency: HighConcurrency,
    quantization: Quantization,
    render: RenderBench,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return f64::NAN;
    }
    let idx = ((p / 100.0) * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Median of one ring stage over the leg's successful predict records.
/// Empty yields 0.0 (not NaN) so the JSON stays loadable.
fn stage_median(records: &[edge_obs::RequestRecord], stage: usize) -> f64 {
    let mut v: Vec<u64> = records.iter().map(|r| r.stage_us[stage]).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    v[v.len() / 2] as f64
}

/// Scrapes `/metrics` and extracts each shard's request/latency/shed view.
/// Restricted to `server`'s own shard names: the metrics registry is
/// process-global, so earlier legs' shard families (every leg starts a
/// fresh server in this one process) still appear in the exposition.
fn scrape_shards(client: &mut Client, server: &Server) -> Vec<ShardStat> {
    let Ok(resp) = client.request("GET", "/metrics", b"") else { return Vec::new() };
    if resp.status != 200 {
        return Vec::new();
    }
    let Ok(scrape) = edge_obs::openmetrics::parse(resp.text()) else { return Vec::new() };
    let shards: Vec<String> = server.shard_names().iter().map(|s| s.to_string()).collect();
    shards
        .into_iter()
        .map(|shard| {
            let l: &[(&str, &str)] = &[("shard", &shard)];
            let val = |name: &str| scrape.value(name, l).unwrap_or(0.0);
            ShardStat {
                requests: val("serve_shard_requests_total"),
                texts: val("serve_shard_texts_total"),
                p50_us: val("serve_shard_request_us_p50"),
                p99_us: val("serve_shard_request_us_p99"),
                shed_rate: val("serve_shard_shed_rate"),
                shard,
            }
        })
        .collect()
}

/// Runs one closed-loop leg against a freshly started server.
fn run_leg(
    name: &str,
    make_server: &dyn Fn() -> Server,
    texts: &[String],
    texts_per_request: usize,
    requests: usize,
    warmup: usize,
) -> LegRecord {
    let server = make_server();
    let mut client = Client::connect(server.addr()).expect("connect");

    let batch_at = |i: usize| -> Vec<&str> {
        (0..texts_per_request)
            .map(|j| texts[(i * texts_per_request + j) % texts.len()].as_str())
            .collect()
    };
    let shoot = |client: &mut Client, i: usize| {
        let refs = batch_at(i);
        let resp = if texts_per_request == 1 {
            client.predict(refs[0]).expect("predict")
        } else {
            client.predict_batch(&refs).expect("predict_batch")
        };
        assert_eq!(resp.status, 200, "bench traffic must succeed: {}", resp.text());
    };

    // Warmup: fault in lazy state (threads, allocator pools) and, when the
    // cache is on, populate it with the whole text pool so the timed
    // window measures the steady state.
    for i in 0..warmup {
        shoot(&mut client, i);
    }
    // Counter baseline at the end of warmup, so the reported hit/miss
    // numbers cover exactly the measured window below.
    let (warm_hits, warm_misses) = server.cache_stats();

    let mut latencies_us = Vec::with_capacity(requests);
    let started = Instant::now();
    for i in 0..requests {
        let t0 = Instant::now();
        shoot(&mut client, i);
        latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let wall_secs = started.elapsed().as_secs_f64();
    let (total_hits, total_misses) = server.cache_stats();
    let (cache_hits, cache_misses) = (total_hits - warm_hits, total_misses - warm_misses);
    // Per-stage decomposition from the request ring: the server's own view
    // of where each request's latency went.
    let ring: Vec<edge_obs::RequestRecord> = server
        .recent_requests(requests)
        .into_iter()
        .filter(|r| r.endpoint == "predict" && r.status == 200)
        .collect();
    let stage_median_us = StageMedians {
        parse_us: stage_median(&ring, STAGE_PARSE),
        queue_us: stage_median(&ring, STAGE_QUEUE),
        batch_us: stage_median(&ring, STAGE_BATCH),
        inference_us: stage_median(&ring, STAGE_INFERENCE),
        serialize_us: stage_median(&ring, STAGE_SERIALIZE),
    };
    let per_shard = scrape_shards(&mut client, &server);
    server.shutdown();

    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let total_texts = requests * texts_per_request;
    let lookups = cache_hits + cache_misses;
    LegRecord {
        leg: name.to_string(),
        requests,
        texts_per_request,
        total_texts,
        wall_secs,
        texts_per_sec: total_texts as f64 / wall_secs,
        p50_us: percentile(&latencies_us, 50.0),
        p95_us: percentile(&latencies_us, 95.0),
        p99_us: percentile(&latencies_us, 99.0),
        cache_hits,
        cache_misses,
        cache_hit_rate: if lookups == 0 { 0.0 } else { cache_hits as f64 / lookups as f64 },
        stage_median_us,
        per_shard,
    }
}

/// Re-execed child mode for the high-concurrency leg: opens `count` idle
/// keep-alive connections to `addr`, reports how many it holds on
/// stdout, then holds them until stdin closes. A child process per herd
/// slice keeps the *client-side* fds out of the server process's
/// `RLIMIT_NOFILE` budget — the server pays one fd per connection, not
/// two.
fn herd_child(spec: &str) -> ! {
    use std::io::{BufRead, Write};
    let (addr, count) = spec.split_once(' ').expect("herd spec is 'addr count'");
    let count: usize = count.parse().expect("herd count");
    edge_serve::reactor::raise_nofile_limit((count + 512) as u64).ok();
    let mut herd: Vec<TcpStream> = Vec::with_capacity(count);
    let mut retries = 0u32;
    // The listen backlog is finite and several children connect at once,
    // so transient failures back off and retry instead of giving up.
    while herd.len() < count && retries < 5_000 {
        match TcpStream::connect(addr) {
            Ok(s) => herd.push(s),
            Err(_) => {
                retries += 1;
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
    }
    println!("held {}", herd.len());
    std::io::stdout().flush().ok();
    // Hold until the parent closes our stdin.
    let mut line = String::new();
    while std::io::stdin().lock().read_line(&mut line).map(|n| n > 0).unwrap_or(false) {}
    std::process::exit(0);
}

/// Holds 10k+ idle keep-alive connections against the server (in herd
/// child processes) while a foreground client measures batched predict
/// latency.
fn run_high_concurrency(model_path: &str, texts: &[String]) -> HighConcurrency {
    // The epoll loops need one fd per held connection; the client ends
    // live in child processes with their own fd budgets.
    let wanted = (HIGH_CONC_TARGET + 1024) as u64;
    match edge_serve::reactor::raise_nofile_limit(wanted) {
        Ok(limit) => edge_obs::progress!("   nofile limit {limit} (wanted {wanted})"),
        Err(e) => edge_obs::progress!("   nofile limit raise failed: {e}"),
    }

    let config =
        ServeConfig { addr: "127.0.0.1:0".to_string(), max_batch: BATCH, ..ServeConfig::default() };
    let server = Server::start_from_artifact(model_path, config).expect("server starts");
    let addr = server.addr();

    // Spawn the herd: children of ~2500 connections each.
    const SLICE: usize = 2_500;
    let exe = std::env::current_exe().expect("current exe");
    let mut children = Vec::new();
    let mut remaining = HIGH_CONC_TARGET;
    while remaining > 0 {
        let count = remaining.min(SLICE);
        remaining -= count;
        let child = std::process::Command::new(&exe)
            .env("EDGE_BENCH_HERD", format!("{addr} {count}"))
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn herd child");
        children.push(child);
    }
    let mut connections_held = 0usize;
    let mut readers = Vec::new();
    for child in &mut children {
        let stdout = child.stdout.take().expect("child stdout");
        let mut reader = std::io::BufReader::new(stdout);
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).expect("herd child reports");
        let held: usize =
            line.trim().strip_prefix("held ").and_then(|n| n.parse().ok()).unwrap_or(0);
        connections_held += held;
        readers.push(reader);
    }
    edge_obs::progress!("   holding {connections_held} idle keep-alive connections");

    // Foreground traffic while the herd sits idle on the interest lists.
    let mut client = Client::connect(addr).expect("connect");
    let refs_at = |i: usize| -> Vec<&str> {
        (0..BATCH).map(|j| texts[(i * BATCH + j) % texts.len()].as_str()).collect()
    };
    let warmup = texts.len() / BATCH + 10;
    for i in 0..warmup {
        let resp = client.predict_batch(&refs_at(i)).expect("predict_batch");
        assert_eq!(resp.status, 200);
    }
    let requests = 300;
    let mut latencies_us = Vec::with_capacity(requests);
    let started = Instant::now();
    for i in 0..requests {
        let t0 = Instant::now();
        let resp = client.predict_batch(&refs_at(i)).expect("predict_batch");
        assert_eq!(resp.status, 200, "traffic under connection load must succeed");
        latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let wall_secs = started.elapsed().as_secs_f64();
    let per_shard = scrape_shards(&mut client, &server);
    // Closing each child's stdin releases its herd slice; reap them
    // before tearing the server down.
    for child in &mut children {
        drop(child.stdin.take());
    }
    drop(readers);
    for mut child in children {
        child.wait().ok();
    }
    server.shutdown();

    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    HighConcurrency {
        target_connections: HIGH_CONC_TARGET,
        connections_held,
        requests,
        texts_per_sec: (requests * BATCH) as f64 / wall_secs,
        p50_us: percentile(&latencies_us, 50.0),
        p99_us: percentile(&latencies_us, 99.0),
        per_shard,
    }
}

fn render_stage_table(legs: &[LegRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "\n{:<16} {:>9} {:>9} {:>9} {:>12} {:>12}\n",
        "stage medians", "parse us", "queue us", "batch us", "inference us", "serialize us"
    ));
    for l in legs {
        let s = &l.stage_median_us;
        out.push_str(&format!(
            "{:<16} {:>9.1} {:>9.1} {:>9.1} {:>12.1} {:>12.1}\n",
            l.leg, s.parse_us, s.queue_us, s.batch_us, s.inference_us, s.serialize_us
        ));
    }
    out
}

fn render_table(legs: &[LegRecord], speedup: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16} {:>9} {:>7} {:>12} {:>10} {:>10} {:>10} {:>9}\n",
        "leg", "requests", "texts", "texts/sec", "p50 us", "p95 us", "p99 us", "hit rate"
    ));
    for l in legs {
        out.push_str(&format!(
            "{:<16} {:>9} {:>7} {:>12.0} {:>10.1} {:>10.1} {:>10.1} {:>8.1}%\n",
            l.leg,
            l.requests,
            l.total_texts,
            l.texts_per_sec,
            l.p50_us,
            l.p95_us,
            l.p99_us,
            l.cache_hit_rate * 100.0
        ));
    }
    out.push_str(&format!(
        "\nbatched vs unbatched speedup (default config): {speedup:.2}x (texts/sec)\n"
    ));
    out
}

/// Saves the model under each quantization mode, reloads it, and scores
/// the full test split — the accuracy-drift gate for quantized serving.
fn run_quantization(model: &EdgeModel, test: &[edge_data::Tweet], mmap_path: &str) -> Quantization {
    let opts = PredictOptions::default();
    let mean_of = |m: &EdgeModel| {
        m.evaluate(test, &opts).report().expect("quant eval covers the test split").mean_km
    };
    let f32_mean_km = mean_of(model);
    let f32_artifact_bytes = std::fs::metadata(mmap_path).expect("stat f32").len();
    let modes = [QuantMode::F16, QuantMode::Int8]
        .into_iter()
        .map(|quant| {
            let path = std::env::temp_dir()
                .join(format!("edge_bench_serve_{}.{quant}", std::process::id()));
            model.save_artifact(&path, quant).expect("quantized save");
            let artifact_bytes = std::fs::metadata(&path).expect("stat").len();
            let loaded = ModelArtifact::open(&path).expect("open").load_model().expect("load");
            let mean_km = mean_of(&loaded);
            std::fs::remove_file(&path).ok();
            QuantLeg {
                mode: quant.to_string(),
                artifact_bytes,
                mean_km,
                drift_km: (mean_km - f32_mean_km).abs(),
            }
        })
        .collect();
    Quantization { f32_artifact_bytes, f32_mean_km, modes }
}

/// `json::render_response` as it was written with `core::fmt`: every float
/// through `Display`, names escaped per `char`. The byte oracle and the
/// baseline of the `render` leg.
fn render_display(resp: &PredictResponse) -> Vec<u8> {
    use std::fmt::Write;
    let num = |out: &mut String, x: f64| match x.is_finite() {
        true => write!(out, "{x}").unwrap(),
        false => out.push_str("null"),
    };
    let p = &resp.prediction;
    let mut out = String::with_capacity(256);
    out.push_str("{\"point\":{\"lat\":");
    num(&mut out, p.point.lat);
    out.push_str(",\"lon\":");
    num(&mut out, p.point.lon);
    out.push_str("},\"mixture\":[");
    for (i, (weight, g)) in p.mixture.iter().enumerate() {
        out.push_str(if i > 0 { ",{\"weight\":" } else { "{\"weight\":" });
        num(&mut out, weight);
        out.push_str(",\"mu\":{\"lat\":");
        num(&mut out, g.mu.lat);
        out.push_str(",\"lon\":");
        num(&mut out, g.mu.lon);
        out.push_str("},\"sigma_lat\":");
        num(&mut out, g.sigma_lat);
        out.push_str(",\"sigma_lon\":");
        num(&mut out, g.sigma_lon);
        out.push_str(",\"rho\":");
        num(&mut out, g.rho);
        out.push('}');
    }
    out.push_str("],\"attention\":[");
    for (i, (name, w)) in p.attention.iter().enumerate() {
        out.push_str(if i > 0 { ",[\"" } else { "[\"" });
        for c in name.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                c => out.push(c),
            }
        }
        out.push_str("\",");
        match w.is_finite() {
            true => write!(out, "{w}").unwrap(),
            false => out.push_str("null"),
        }
        out.push(']');
    }
    write!(out, "],\"from_fallback\":{}}}", resp.from_fallback).unwrap();
    out.into_bytes()
}

/// The `render` leg: both renderers over every answered test text,
/// alternating, the best of `REPS` passes kept for each.
fn run_render(model: &EdgeModel, test: &[edge_data::Tweet]) -> RenderBench {
    const REPS: usize = 15;
    let opts = PredictOptions::default();
    let responses: Vec<PredictResponse> = test
        .iter()
        .filter_map(|t| model.locate(&PredictRequest::text(&t.text), &opts).ok())
        .collect();
    assert!(!responses.is_empty(), "no answered test text");
    for resp in &responses {
        let (new, reference) = (edge_serve::json::render_response(resp), render_display(resp));
        assert!(new == reference, "renderers disagree:\n{}", String::from_utf8_lossy(&reference));
    }
    let floats: usize = responses
        .iter()
        .map(|r| 2 + 6 * r.prediction.mixture.len() + r.prediction.attention.len())
        .sum();
    let per_response = |render: fn(&PredictResponse) -> Vec<u8>| {
        let started = Instant::now();
        for resp in &responses {
            black_box(render(black_box(resp)));
        }
        started.elapsed().as_nanos() as f64 / responses.len() as f64
    };
    let (mut render_ns, mut display_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        render_ns = render_ns.min(per_response(edge_serve::json::render_response));
        display_ns = display_ns.min(per_response(render_display));
    }
    RenderBench {
        responses: responses.len(),
        floats_per_response: floats as f64 / responses.len() as f64,
        render_ns,
        display_ns,
        ratio: render_ns / display_ns,
    }
}

fn main() {
    if let Ok(spec) = std::env::var("EDGE_BENCH_HERD") {
        herd_child(&spec);
    }
    let (size, seeds) = edge_bench::parse_cli();
    let dataset = edge_data::nyma(size, seeds[0]);
    edge_obs::progress!(
        "== serve bench on {} ({} tweets, {} threads) ==",
        dataset.name,
        dataset.len(),
        edge_par::num_threads()
    );

    // One trained artifact shared by every leg, so all legs serve
    // bit-identical parameters.
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
        std::env::temp_dir().join(format!("edge_bench_serve_{}.edgemap", std::process::id()));
    model.save_artifact(&model_path, QuantMode::None).expect("save");
    let model_path = model_path.to_string_lossy().into_owned();

    let covered: Vec<String> = test
        .iter()
        .filter(|t| !model.resolve_entities(&t.text).is_empty())
        .map(|t| t.text.clone())
        .collect();
    assert!(covered.len() >= BATCH, "corpus too small to fill one batch");
    edge_obs::progress!("   artifact {model_path}, {} covered texts", covered.len());

    // A fixed text pool shared by every leg, small enough that the warm
    // legs reach cache steady state during warmup.
    let pool: Vec<String> = covered.iter().take(256).cloned().collect();
    let warm = |max_batch: usize| ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        max_batch,
        ..ServeConfig::default()
    };
    let cold = |max_batch: usize| ServeConfig { cache_capacity: 0, ..warm(max_batch) };
    let single = |config: ServeConfig| {
        let path = model_path.clone();
        move || Server::start_from_artifact(&path, config.clone()).expect("server starts")
    };
    // Two shards off the same artifact: both gazetteers know every
    // entity, so affinity always ties and routing exercises the
    // consistent-hash path on every text.
    let multi = |config: ServeConfig| {
        let path = model_path.clone();
        move || {
            let east = EdgeModel::load_artifact(&path).expect("load");
            let west = EdgeModel::load_artifact(&path).expect("load");
            Server::start_shards(
                vec![("east".to_string(), east), ("west".to_string(), west)],
                config.clone(),
            )
            .expect("server starts")
        }
    };

    // Warm pair: identical default config, only the batching differs. The
    // warmup covers the pool at least once so the cache is populated.
    let unbatched = run_leg("unbatched", &single(warm(1)), &pool, 1, 2000, pool.len() + 50);
    edge_obs::progress!("   unbatched       {:>10.0} texts/sec", unbatched.texts_per_sec);
    let batched =
        run_leg("batched", &single(warm(BATCH)), &pool, BATCH, 400, pool.len() / BATCH + 10);
    edge_obs::progress!("   batched         {:>10.0} texts/sec", batched.texts_per_sec);

    // Cold pair: same comparison with the cache disabled (model-bound).
    let unbatched_cold = run_leg("unbatched-cold", &single(cold(1)), &pool, 1, 600, 60);
    edge_obs::progress!("   unbatched-cold  {:>10.0} texts/sec", unbatched_cold.texts_per_sec);
    let batched_cold = run_leg("batched-cold", &single(cold(BATCH)), &pool, BATCH, 200, 10);
    edge_obs::progress!("   batched-cold    {:>10.0} texts/sec", batched_cold.texts_per_sec);

    // Observability overhead: the warm batched leg with the metrics layer
    // on vs off. The ring and the stage cells stay on in both legs (they
    // are always-on by design); the comparison isolates the
    // counters/histograms/labels hot path.
    let obs_rep = |enable_metrics: bool| {
        let name = if enable_metrics { "obs-on" } else { "obs-off" };
        let config = ServeConfig { enable_metrics, ..warm(BATCH) };
        run_leg(name, &single(config), &pool, BATCH, 300, pool.len() / BATCH + 5).texts_per_sec
    };
    let obs_overhead = paired_overhead(OVERHEAD_PAIRS, obs_rep);
    edge_obs::progress!(
        "   obs overhead    {:>9.2}% (IQR {:.2}%; on {:.0} vs off {:.0} texts/sec)",
        obs_overhead.overhead_frac * 100.0,
        obs_overhead.overhead_iqr * 100.0,
        obs_overhead.enabled_texts_per_sec,
        obs_overhead.disabled_texts_per_sec
    );

    // Robustness overhead: the warm batched leg with the robustness layer
    // on (server defaults: deadline budget armed, read/write socket
    // budgets, brownout controller ticking) vs off (all three disabled).
    // These legs are measured but deliberately NOT appended to `legs`,
    // whose membership CI asserts exactly.
    let robust_rep = |enabled: bool| {
        let name = if enabled { "robust-on" } else { "robust-off" };
        let config = if enabled {
            warm(BATCH)
        } else {
            ServeConfig {
                default_deadline_us: 0,
                read_budget_us: 0,
                write_timeout_us: 0,
                brownout_enabled: false,
                ..warm(BATCH)
            }
        };
        run_leg(name, &single(config), &pool, BATCH, 300, pool.len() / BATCH + 5).texts_per_sec
    };
    let robustness_overhead = paired_overhead(OVERHEAD_PAIRS, robust_rep);
    edge_obs::progress!(
        "   robust overhead {:>9.2}% (IQR {:.2}%; on {:.0} vs off {:.0} texts/sec)",
        robustness_overhead.overhead_frac * 100.0,
        robustness_overhead.overhead_iqr * 100.0,
        robustness_overhead.enabled_texts_per_sec,
        robustness_overhead.disabled_texts_per_sec
    );

    // Router overhead: two-shard routed vs single-shard warm batched,
    // interleaved best-of-5. The single-model path short-circuits the
    // router entirely (the gate that it stays as fast as before is the
    // classic legs above); this measures what a *real* routing decision
    // costs when it cannot be skipped.
    let router_rep = |multi_shard: bool| {
        let name = if multi_shard { "router-multi" } else { "router-single" };
        if multi_shard {
            run_leg(name, &multi(warm(BATCH)), &pool, BATCH, 300, pool.len() / BATCH + 5)
                .texts_per_sec
        } else {
            run_leg(name, &single(warm(BATCH)), &pool, BATCH, 300, pool.len() / BATCH + 5)
                .texts_per_sec
        }
    };
    let (mut router_multi, mut router_single) = (0.0f64, 0.0f64);
    for _ in 0..5 {
        router_multi = router_multi.max(router_rep(true));
        router_single = router_single.max(router_rep(false));
    }
    let router_overhead = RouterOverhead {
        single_shard_texts_per_sec: router_single,
        multi_shard_texts_per_sec: router_multi,
        overhead_frac: (1.0 - router_multi / router_single).max(0.0),
    };
    edge_obs::progress!(
        "   router overhead {:>9.2}% (multi {:.0} vs single {:.0} texts/sec)",
        router_overhead.overhead_frac * 100.0,
        router_multi,
        router_single
    );

    // The routed leg proper, with per-shard decomposition.
    let multi_shard =
        run_leg("multi-shard", &multi(warm(BATCH)), &pool, BATCH, 400, pool.len() / BATCH + 10);
    edge_obs::progress!(
        "   multi-shard     {:>10.0} texts/sec ({} shards)",
        multi_shard.texts_per_sec,
        multi_shard.per_shard.len()
    );

    // One user, one text at a time, default batching, cache off.
    let lone =
        run_leg("lone-request", &single(cold(ServeConfig::default().max_batch)), &pool, 1, 600, 60);
    let lone_request = LoneRequest {
        requests: lone.requests,
        p50_us: lone.p50_us,
        queue_us: lone.stage_median_us.queue_us,
    };
    edge_obs::progress!(
        "   lone-request    p50 {:>7.0} us, queue {:.0} us",
        lone_request.p50_us,
        lone_request.queue_us
    );

    // 10k idle keep-alive connections under foreground traffic.
    let high_concurrency = run_high_concurrency(&model_path, &pool);
    edge_obs::progress!(
        "   high-conc       {:>10.0} texts/sec @ {} conns (p99 {:.0} us)",
        high_concurrency.texts_per_sec,
        high_concurrency.connections_held,
        high_concurrency.p99_us
    );

    // The quantization accuracy-drift gate.
    let quantization = run_quantization(&model, test, &model_path);
    for q in &quantization.modes {
        edge_obs::progress!(
            "   quant {:<9} {:>10} bytes  mean {:.2} km (drift {:.3} km)",
            q.mode,
            q.artifact_bytes,
            q.mean_km,
            q.drift_km
        );
    }

    let render = run_render(&model, test);
    edge_obs::progress!(
        "   render          {:>7.0} ns vs {:.0} ns Display per response ({:.2}x)",
        render.render_ns,
        render.display_ns,
        render.ratio
    );

    let speedup = batched.texts_per_sec / unbatched.texts_per_sec;
    let cold_speedup = batched_cold.texts_per_sec / unbatched_cold.texts_per_sec;
    let legs = vec![unbatched, batched, unbatched_cold, batched_cold];
    let quant_lines: String = quantization
        .modes
        .iter()
        .map(|q| {
            format!(
                "quantization {}: {} bytes (f32 {}), mean {:.2} km, drift {:.3} km\n",
                q.mode, q.artifact_bytes, quantization.f32_artifact_bytes, q.mean_km, q.drift_km
            )
        })
        .collect();
    let text = format!(
        "Serve bench ({size:?} scale): closed-loop POST /predict over real sockets\n{}{}\nobs overhead (warm batched, metrics on vs off, median of {} pairs): {:.2}% (IQR {:.2}%)\nrobustness overhead (warm batched, deadlines+budgets+brownout on vs off, median of {} pairs): {:.2}% (IQR {:.2}%)\nrouter overhead (warm batched, two-shard routed vs single-shard): {:.2}%\nmulti-shard: {:.0} texts/sec across {} shards\nlone request (1 text, cache off): p50 {:.0} us, queue {:.0} us\nhigh-concurrency: {} idle keep-alive conns held, p50 {:.0} us, p99 {:.0} us\n{}render ({} responses, {:.1} floats each): {:.0} ns vs {:.0} ns Display per response, ratio {:.2}\n",
        render_table(&legs, speedup),
        render_stage_table(&legs),
        obs_overhead.pairs,
        obs_overhead.overhead_frac * 100.0,
        obs_overhead.overhead_iqr * 100.0,
        robustness_overhead.pairs,
        robustness_overhead.overhead_frac * 100.0,
        robustness_overhead.overhead_iqr * 100.0,
        router_overhead.overhead_frac * 100.0,
        multi_shard.texts_per_sec,
        multi_shard.per_shard.len(),
        lone_request.p50_us,
        lone_request.queue_us,
        high_concurrency.connections_held,
        high_concurrency.p50_us,
        high_concurrency.p99_us,
        quant_lines,
        render.responses,
        render.floats_per_response,
        render.render_ns,
        render.display_ns,
        render.ratio,
    );
    print!("{text}");
    let output = ServeBenchOutput {
        threads: edge_par::num_threads(),
        corpus: dataset.name.clone(),
        covered_texts: covered.len(),
        legs,
        speedup_batched_vs_unbatched: speedup,
        cold_speedup_batched_vs_unbatched: cold_speedup,
        obs_overhead,
        robustness_overhead,
        router_overhead,
        multi_shard,
        lone_request,
        high_concurrency,
        quantization,
        render,
    };
    edge_bench::write_results("BENCH_serve", &output, &text).expect("write results");
    std::fs::remove_file(&model_path).ok();
    edge_obs::progress!("wrote results/BENCH_serve.{{json,txt}}");
}
