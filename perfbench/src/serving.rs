//! The serving workloads, measured socket to socket against `edge-cli
//! serve` running as a child process.
//!
//! Phases: models are trained from the benchmark corpora (trainer child),
//! the server is started several times (set-up time), warmed up
//! (untimed), driven open-loop with Poisson arrivals at the workload's
//! fixed offered rate, for `cold-single` then by a single user (latency),
//! then closed-loop over two connections (throughput).
//! Sampled responses are checked byte for byte against in-process
//! `Predictor::locate` + `json::render_response` on the same artifacts.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use edge_core::{EdgeModel, ModelArtifact, PredictOptions, PredictRequest, Predictor};
use edge_data::Dataset;
use edge_serve::json::{render_error, render_response};

use crate::inputs::{self, InputProperties, Vocabulary};
use crate::loadgen::{self, predict_request, Record, Ticker};
use crate::server::{
    ring_records, Counters, CpuTicks, RingRecord, ServerProc, ATTEMPTS, STAGES, STEAL_LIMIT,
};
use crate::stats::{self, median, tail};
use crate::trace::{mean, Tracer};
use crate::train::{self, Corpus, TrainJob};
use crate::{Ctx, Outcome};

/// A serving workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// One shard per metro.
    pub metros: &'static [&'static str],
    pub texts_per_request: usize,
    /// Offered rate of the open-loop phase, requests per second. Fixed
    /// here, never derived from the code under test.
    pub open_rate: f64,
    /// Requests in flight per connection in the closed-loop phase.
    pub closed_depth: usize,
    /// The phase `latency_p50_us` comes from.
    pub latency: LatencyPhase,
}

/// Where a serving workload's gated latency is measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyPhase {
    /// The open loop, which runs for half of `--seconds`.
    Open,
    /// A single user with one request in flight on one connection, for a
    /// quarter of `--seconds` after an open loop of a quarter.
    ///
    /// For one-text requests the server's 500 µs micro-batch timer makes
    /// the open-loop median a property of the host: how long a request
    /// waits depends on whether another arrives inside its batch window,
    /// and a host that takes the CPU away for milliseconds queues every
    /// request due meanwhile. Over five runs on a 2-vCPU shared host the
    /// open-loop p50 read 0.78-1.55 ms as the host took 1-21% of the CPU;
    /// a single user's p50 moved 8% at 9%. The open loop's figures are
    /// still printed.
    SingleUser,
}

/// Covered test tweets of both metros, 32 per request, all cache hits
/// after warm-up.
pub const WARM_ROUTED: Spec = Spec {
    metros: &["nyma", "lama"],
    texts_per_request: 32,
    open_rate: 1100.0,
    closed_depth: 4,
    latency: LatencyPhase::Open,
};

/// One composed text per request, entity sets that almost never repeat.
pub const COLD_SINGLE: Spec = Spec {
    metros: &["nyma"],
    texts_per_request: 1,
    open_rate: 2500.0,
    closed_depth: 16,
    latency: LatencyPhase::SingleUser,
};

/// Server starts per run; set-up time is their median.
const SETUP_STARTS: usize = 25;

/// Length of the slices whose medians the latencies are:
/// short enough that most slices miss the millisecond stalls a shared
/// host injects a few times a second, long enough to hold hundreds of
/// requests.
const LATENCY_SLICE: Duration = Duration::from_millis(250);

/// Length of the slices whose median the closed-loop throughput is.
const THROUGHPUT_SLICE: Duration = Duration::from_millis(500);

/// Every this-many-th request's response is checked byte for byte.
const CHECK_EVERY: usize = 23;

/// Where the texts of request `k` come from.
enum Texts {
    /// Cycle through a fixed pool.
    Pool(Vec<String>),
    /// Compose fresh texts from a vocabulary.
    Composed(Vocabulary, u64),
}

impl Texts {
    fn request(&self, per_request: usize, offset: u64, k: usize) -> Vec<String> {
        (0..per_request)
            .map(|j| {
                let i = offset + (k * per_request + j) as u64;
                match self {
                    Texts::Pool(pool) => pool[i as usize % pool.len()].clone(),
                    Texts::Composed(vocab, seed) => vocab.compose(*seed, i),
                }
            })
            .collect()
    }
}

/// Requests of one phase: their texts and wire bytes, index-aligned.
struct RequestSet {
    texts: Vec<Vec<String>>,
    wire: Vec<Vec<u8>>,
}

impl RequestSet {
    fn new(source: &Texts, per_request: usize, offset: u64, count: usize) -> RequestSet {
        let texts: Vec<Vec<String>> =
            (0..count).map(|k| source.request(per_request, offset, k)).collect();
        let wire = texts
            .iter()
            .map(|t| {
                let refs: Vec<&str> = t.iter().map(String::as_str).collect();
                predict_request(&inputs::predict_body(&refs))
            })
            .collect();
        RequestSet { texts, wire }
    }
}

/// The loaded shards, in server order.
struct Shards {
    names: Vec<String>,
    models: Vec<Arc<EdgeModel>>,
    router: edge_serve::Router,
}

impl Shards {
    fn route(&self, text: &str) -> usize {
        self.router.route_text(text, &self.models)
    }

    /// What the server must answer for `texts`, built from in-process
    /// `locate` + `render_response` on the same artifacts.
    fn expected_body(&self, texts: &[String], memo: &mut HashMap<String, Vec<u8>>) -> Vec<u8> {
        let mut fragment = |text: &String| -> Vec<u8> {
            memo.entry(text.clone())
                .or_insert_with(|| {
                    let model = &self.models[self.route(text)];
                    match model
                        .locate(&PredictRequest::text(text.as_str()), &PredictOptions::default())
                    {
                        Ok(resp) => render_response(&resp),
                        Err(e) => render_error(&e),
                    }
                })
                .clone()
        };
        if texts.len() == 1 {
            return fragment(&texts[0]);
        }
        let parts: Vec<Vec<u8>> = texts.iter().map(&mut fragment).collect();
        let mut out = b"{\"results\":[".to_vec();
        out.extend_from_slice(&parts.join(&b','));
        out.extend_from_slice(b"]}");
        out
    }
}

fn load_model(path: &Path) -> Result<EdgeModel, String> {
    ModelArtifact::open(path)
        .and_then(|a| a.load_model())
        .map_err(|e| format!("opening {}: {e}", path.display()))
}

/// One run of a measured phase.
struct Attempt {
    set: RequestSet,
    records: Vec<Record>,
    /// Share of CPU time the host took from the machine meanwhile.
    steal: f64,
    /// The phase's ring records (traced runs only).
    ring: Vec<RingRecord>,
    /// The machine's CPU counters, sampled at slice boundaries (time
    /// since the phase start).
    ticks: Vec<(Duration, CpuTicks)>,
}

/// Runs a phase up to [`ATTEMPTS`] times, each on fresh requests, until
/// one sees the host take at most [`STEAL_LIMIT`] of the CPU. Returns
/// every attempt; the figures come from the quietest.
/// The CPU counters are sampled at every `slice` boundary of each attempt.
fn attempts(
    addr: std::net::SocketAddr,
    traced: bool,
    make: &dyn Fn(usize) -> RequestSet,
    slice: Duration,
    run: &dyn Fn(&RequestSet, usize, &Ticker) -> Vec<Record>,
) -> Result<Vec<Attempt>, String> {
    let mut out: Vec<Attempt> = Vec::new();
    while out.len() < ATTEMPTS && out.last().is_none_or(|a| a.steal > STEAL_LIMIT) {
        let set = make(out.len());
        let last_id = if traced { ring_records(addr, 1)?.first().map_or(0, |r| r.id) } else { 0 };
        let samples = Mutex::new(Vec::new());
        let sample = |at: Duration| {
            samples.lock().expect("samples lock").push((at, CpuTicks::read()));
        };
        let cpu = CpuTicks::read();
        let records = run(&set, out.len(), &Ticker { every: slice, tick: &sample });
        let steal = cpu.steal_share(&CpuTicks::read());
        let mut ring = Vec::new();
        if traced {
            ring = ring_records(addr, 1024)?;
            ring.retain(|r| r.id > last_id);
        }
        let ticks = samples.into_inner().expect("samples lock");
        out.push(Attempt { set, records, steal, ring, ticks });
    }
    Ok(out)
}

impl Attempt {
    /// The host's share of the CPU in each of `n` slices of length `slice`
    /// from the phase start, from the samples taken at the slice
    /// boundaries; a slice without samples around it gets the whole
    /// attempt's share.
    fn slice_steal(&self, slice: Duration, n: usize) -> Vec<f64> {
        (0..n as u32)
            .map(|i| {
                let (start, end) = (slice * i, slice * (i + 1));
                let before = self.ticks.iter().rev().find(|(at, _)| *at < start + slice / 2);
                let after = self.ticks.iter().find(|(at, _)| *at >= end);
                match (before, after) {
                    (Some((_, a)), Some((_, b))) => a.steal_share(b),
                    _ => self.steal,
                }
            })
            .collect()
    }
}

/// The slices whose figures count: those in which the host took at most
/// [`STEAL_LIMIT`] of the CPU, or, when fewer than a third of them did,
/// the third with the least steal.
fn quiet_slices(steal: &[f64]) -> Vec<usize> {
    let calm: Vec<usize> = (0..steal.len()).filter(|&i| steal[i] <= STEAL_LIMIT).collect();
    let third = steal.len().div_ceil(3);
    if calm.len() >= third {
        return calm;
    }
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    order.truncate(third);
    order.sort_unstable();
    order
}

fn quietest(attempts: &[Attempt]) -> &Attempt {
    attempts.iter().min_by(|a, b| a.steal.total_cmp(&b.steal)).expect("at least one attempt")
}

/// What a serving session measured.
struct Session {
    setup_s: Vec<f64>,
    warm: Attempt,
    open: Vec<Attempt>,
    /// Empty unless the workload's latency is a single user's.
    single: Vec<Attempt>,
    closed: Vec<Attempt>,
    windows: Windows,
    peak_rss_mb: f64,
    /// Counter deltas over the measured phases, and over the whole
    /// session.
    window: Counters,
    session: Counters,
}

/// How long each measured phase runs.
#[derive(Debug, Clone, Copy)]
struct Windows {
    open: Duration,
    single: Duration,
    closed: Duration,
}

impl Windows {
    fn new(seconds: f64, latency: LatencyPhase) -> Windows {
        let part = |share: f64| Duration::from_secs_f64(seconds * share);
        match latency {
            LatencyPhase::Open => {
                Windows { open: part(0.5), single: Duration::ZERO, closed: part(0.5) }
            }
            LatencyPhase::SingleUser => {
                Windows { open: part(0.25), single: part(0.25), closed: part(0.5) }
            }
        }
    }
}

/// Starts the server `SETUP_STARTS` times, then drives warm-up, the
/// open loop, the single user (when the workload has one) and the closed
/// loop against the last start.
#[allow(clippy::too_many_arguments)]
fn drive(
    ctx: &Ctx,
    serve_args: &[String],
    warm: RequestSet,
    open: &dyn Fn(usize) -> RequestSet,
    single: &dyn Fn(usize) -> RequestSet,
    closed: &dyn Fn(usize) -> RequestSet,
    spec: &Spec,
    windows: Windows,
) -> Result<Session, String> {
    let bin = ctx.edge_cli()?;
    let log = ctx.run_dir.join("server.log");
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_STARTS {
        drop(server.take());
        let (s, took) = ServerProc::start(&bin, serve_args, &log)?;
        setup_s.push(took.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one start");
    let addr = server.addr;
    let keep = |k: usize| k.is_multiple_of(CHECK_EVERY);
    let start_counters = Counters::scrape(addr)?;
    let warm_records = loadgen::closed_loop(
        addr,
        &warm.wire,
        loadgen::CONNECTIONS,
        spec.closed_depth.max(4),
        Duration::from_secs(60),
        warm.wire.len(),
        &keep,
        None,
    );
    let warm_ring = if ctx.trace { ring_records(addr, 1024)? } else { Vec::new() };
    let warm = Attempt {
        set: warm,
        records: warm_records,
        steal: 0.0,
        ring: warm_ring,
        ticks: Vec::new(),
    };
    let before = Counters::scrape(addr)?;
    let open = attempts(addr, ctx.trace, open, LATENCY_SLICE, &|set, attempt, ticker| {
        let due = inputs::arrivals(set.wire.len(), spec.open_rate, ctx.seed ^ attempt as u64);
        loadgen::open_loop(addr, &set.wire, &due, &keep, Some(ticker))
    })?;
    let single = match spec.latency {
        LatencyPhase::Open => Vec::new(),
        LatencyPhase::SingleUser => attempts(addr, false, single, LATENCY_SLICE, &|set, _, t| {
            loadgen::closed_loop(addr, &set.wire, 1, 1, windows.single, usize::MAX, &keep, Some(t))
        })?,
    };
    let closed = attempts(addr, false, closed, THROUGHPUT_SLICE, &|set, _, ticker| {
        let (connections, depth, window) =
            (loadgen::CONNECTIONS, spec.closed_depth, windows.closed);
        let (limit, keep) = (usize::MAX, &keep);
        loadgen::closed_loop(addr, &set.wire, connections, depth, window, limit, keep, Some(ticker))
    })?;
    let after = Counters::scrape(addr)?;
    let peak_rss_mb = server.peak_rss_mb().ok_or("no VmHWM for the server")?;
    drop(server);
    Ok(Session {
        setup_s,
        warm,
        open,
        single,
        closed,
        windows,
        peak_rss_mb,
        window: after.since(&before),
        session: after.since(&start_counters),
    })
}

/// Byte-compares every kept response with its expected body; returns
/// the number of mismatches and the number checked.
fn check(
    records: &[Record],
    set: &RequestSet,
    shards: &Shards,
    memo: &mut HashMap<String, Vec<u8>>,
) -> (usize, usize) {
    let mut bad = 0;
    let mut checked = 0;
    for r in records {
        let Some(body) = &r.body else { continue };
        checked += 1;
        let texts = &set.texts[r.index % set.texts.len()];
        if *body != shards.expected_body(texts, memo) {
            bad += 1;
            if bad <= 3 {
                eprintln!("mismatch on request {}: {}", r.index, String::from_utf8_lossy(body));
            }
        }
    }
    (bad, checked)
}

/// Measured properties of the texts a phase sent.
fn properties(set: &RequestSet, shards: &Shards, cache_capacity: usize) -> InputProperties {
    let mut union = edge_text::EntityRecognizer::new();
    for m in &shards.models {
        union.merge(m.recognizer());
    }
    // Pools repeat texts: resolve each distinct text once, weighted by
    // how often it was sent.
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for t in set.texts.iter().flatten() {
        *counts.entry(t).or_default() += 1;
    }
    let (mut texts, mut entities, mut affinity) = (0usize, 0usize, 0usize);
    let mut sets = HashSet::new();
    for (t, n) in counts {
        let s = shards.route(t);
        let ids = shards.models[s].resolve_entities(t);
        texts += n;
        entities += n * ids.len();
        sets.insert((s, ids));
        if shards.models.len() > 1 {
            // The router's affinity rule: a unique shard knowing the most
            // mentions wins; ties and unknowns fall to the hash ring.
            let mentions = union.recognize(t);
            let known: Vec<usize> = shards
                .models
                .iter()
                .map(|m| mentions.iter().filter(|x| m.entity_index().get(&x.id).is_some()).count())
                .collect();
            let best = known.iter().copied().max().unwrap_or(0);
            if best > 0 && known.iter().filter(|&&c| c == best).count() == 1 {
                affinity += n;
            }
        }
    }
    let routed = if shards.models.len() > 1 { texts } else { 0 };
    let share = |n: usize| if routed == 0 { 0.0 } else { n as f64 / routed as f64 };
    InputProperties {
        texts_per_request: set.texts.first().map_or(0, Vec::len),
        body_bytes_mean: mean(&set.wire.iter().map(|w| w.len() as f64).collect::<Vec<_>>()),
        entities_per_text_mean: entities as f64 / texts.max(1) as f64,
        distinct_entity_sets: sets.len(),
        cache_capacity,
        routed_by_affinity: share(affinity),
        routed_by_ring: share(routed - affinity),
        corpus_bytes: 0,
    }
}

/// Trains one model per metro in trainer children and loads the saved
/// artifacts. Returns the shards, the corpora, the summed train time and
/// the first trainer's report.
fn prepare(
    ctx: &Ctx,
    metros: &[&str],
    traced: bool,
) -> Result<(Shards, Vec<Dataset>, f64, train::Report), String> {
    let mut names = Vec::new();
    let mut models = Vec::new();
    let mut datasets = Vec::new();
    let mut train_s = 0.0;
    let mut first_report = None;
    for (i, metro) in metros.iter().enumerate() {
        let out = ctx.run_dir.join(format!("{metro}.edgemap"));
        let job = TrainJob {
            corpus: Corpus::Generated { metro: metro.to_string() },
            out: out.clone(),
            seconds: 0.0,
            trace: (traced && i == 0)
                .then(|| ctx.out_dir.join(format!("{}-train-spans.jsonl", ctx.tag))),
        };
        let report = train::run(&job)?;
        train_s += train::one(&report, "train_s")?;
        first_report.get_or_insert(report);
        names.push(metro.to_string());
        models.push(Arc::new(load_model(&out)?));
        datasets.push(inputs::corpus(metro));
    }
    let router = edge_serve::Router::new(names.clone(), &models);
    Ok((Shards { names, models, router }, datasets, train_s, first_report.expect("one metro")))
}

/// Runs a serving workload.
pub fn run(ctx: &Ctx, spec: &Spec) -> Result<Outcome, String> {
    let (shards, datasets, train_s, report) = prepare(ctx, spec.metros, ctx.trace)?;
    let source = match spec.texts_per_request {
        1 => {
            let model = &shards.models[0];
            let vocab = Vocabulary::build(&datasets[0], &|t| model.resolve_entities(t));
            if vocab.mentions.len() < 20 || vocab.filler.is_empty() {
                return Err("corpus gave too small a vocabulary".to_string());
            }
            Texts::Composed(vocab, ctx.seed)
        }
        _ => {
            let mut covered = datasets.iter().map(|d| covered_texts(d, &shards));
            let (a, b) = (covered.next().unwrap_or_default(), covered.next().unwrap_or_default());
            Texts::Pool(inputs::mixed_pool(a, b, ctx.seed))
        }
    };
    measure(ctx, spec, &shards, &datasets, source, train_s, &report)
}

/// `train-file`'s traced serving session: its freshly trained artifact
/// (`<name>.edgemap` in the run directory) served one covered test tweet
/// per request, so the serving layers are measured on its inputs too.
pub fn serve_trained(
    ctx: &Ctx,
    name: &str,
    dataset: Dataset,
    report: &train::Report,
) -> Result<Outcome, String> {
    let model = Arc::new(load_model(&ctx.run_dir.join(format!("{name}.edgemap")))?);
    let names = vec![name.to_string()];
    let router = edge_serve::Router::new(names.clone(), std::slice::from_ref(&model));
    let shards = Shards { names, models: vec![model], router };
    let texts = covered_texts(&dataset, &shards);
    // A traced session reports per-layer figures only, so no train time.
    measure(ctx, &TRAIN_FILE_SERVE, &shards, &[dataset], Texts::Pool(texts), f64::NAN, report)
}

/// Test tweets whose routed shard knows at least one of their entities.
fn covered_texts(dataset: &Dataset, shards: &Shards) -> Vec<String> {
    dataset
        .paper_split()
        .1
        .iter()
        .map(|t| t.text.clone())
        .filter(|t| !shards.models[shards.route(t)].resolve_entities(t).is_empty())
        .collect()
}

/// Serving shape of `train-file`'s traced session.
const TRAIN_FILE_SERVE: Spec = Spec {
    metros: &["nyma"],
    texts_per_request: 1,
    open_rate: 1500.0,
    closed_depth: 16,
    latency: LatencyPhase::Open,
};

/// A phase's latencies: the medians, over the quiet [`LATENCY_SLICE`]
/// slices of the phase (by due time), of each slice's p50 and tails.
struct Latency {
    p50: f64,
    p90: f64,
    p99: f64,
    /// Slices counted, of all the phase's slices.
    counted: (usize, usize),
    /// The most the host took of the CPU in a counted slice.
    steal: f64,
    requests: usize,
    /// The lowest percentiles any slice's "p90" and "p99" fell back to,
    /// keeping [`stats::TAIL_MIN_BEYOND`] samples beyond them.
    lowest: (f64, f64),
    /// The whole phase's p99 (or the percentile it fell back to).
    whole: stats::Tail,
}

impl Latency {
    fn of(attempt: &Attempt, phase: Duration) -> Result<Latency, String> {
        let records = &attempt.records;
        let index = |d: Duration| (d.as_secs_f64() / LATENCY_SLICE.as_secs_f64()) as usize;
        let n = index(phase).max(1);
        let mut slices = vec![Vec::new(); n];
        for r in records {
            slices[index(r.due).min(n - 1)].push(r.latency_us());
        }
        let steal = attempt.slice_steal(LATENCY_SLICE, n);
        let quiet = quiet_slices(&steal);
        let slices: Vec<Vec<f64>> = quiet.iter().map(|&i| std::mem::take(&mut slices[i])).collect();
        let p50s: Vec<f64> = slices.iter().filter_map(|s| median(s)).collect();
        let tails = |want: f64| -> Vec<stats::Tail> {
            slices.iter().filter_map(|s| tail(s, want)).collect()
        };
        let (p90s, p99s) = (tails(90.0), tails(99.0));
        let median_of = |tails: &[stats::Tail]| {
            median(&tails.iter().map(|t| t.value).collect::<Vec<_>>())
                .ok_or("too few requests for a tail")
        };
        let lowest =
            |tails: &[stats::Tail]| tails.iter().fold(100.0f64, |m, t| m.min(t.percentile));
        let all: Vec<f64> = records.iter().map(Record::latency_us).collect();
        Ok(Latency {
            p50: median(&p50s).ok_or("no requests")?,
            p90: median_of(&p90s)?,
            p99: median_of(&p99s)?,
            counted: (p50s.len(), n),
            steal: quiet.iter().map(|&i| steal[i]).fold(0.0, f64::max),
            requests: all.len(),
            lowest: (lowest(&p90s), lowest(&p99s)),
            whole: tail(&all, 99.0).ok_or("too few requests")?,
        })
    }

    fn lines(&self, phase: &str) -> [String; 2] {
        [
            format!(
                "latency.{phase}: medians over {} of {} slices of {:?} (host steal <= {:.3} in them), {} requests in all, each slice tail with >= {} samples beyond (p90 at p{:.2}+, p99 at p{:.2}+)",
                self.counted.0,
                self.counted.1,
                LATENCY_SLICE,
                self.steal,
                self.requests,
                stats::TAIL_MIN_BEYOND,
                self.lowest.0,
                self.lowest.1,
            ),
            format!(
                "latency.{phase}.p50_us {:.1}, p90_us {:.1}, p99_us {:.1} (whole phase p{:.2} {:.1})",
                self.p50, self.p90, self.p99, self.whole.percentile, self.whole.value
            ),
        ]
    }
}

/// Drives one serving session over `source` and turns it into figures.
#[allow(clippy::too_many_arguments)]
fn measure(
    ctx: &Ctx,
    spec: &Spec,
    shards: &Shards,
    datasets: &[Dataset],
    source: Texts,
    train_s: f64,
    report: &train::Report,
) -> Result<Outcome, String> {
    if let Texts::Pool(pool) = &source {
        if pool.len() < spec.texts_per_request {
            return Err("too few covered test tweets".to_string());
        }
    }
    let windows = Windows::new(ctx.seconds, spec.latency);
    let open_count = (spec.open_rate * windows.open.as_secs_f64()).ceil() as usize;
    let warm_count = match &source {
        Texts::Pool(pool) => pool.len().div_ceil(spec.texts_per_request) + 20,
        // Enough distinct texts to fill the 4096-entry cache, so inserts
        // in the measured window evict.
        Texts::Composed(..) => 6000,
    };
    let closed_count = match &source {
        Texts::Pool(_) => open_count,
        Texts::Composed(..) => 60_000,
    };
    let warm = RequestSet::new(&source, spec.texts_per_request, 0, warm_count);
    // Each attempt of each phase sends texts of its own, so a cold phase
    // meets no entries an earlier phase or attempt cached.
    let source = &source;
    let fresh = |phase: u64, count: usize| {
        move |attempt: usize| {
            let offset = (1 + phase * ATTEMPTS as u64 + attempt as u64) << 32;
            RequestSet::new(source, spec.texts_per_request, offset, count)
        }
    };
    let (open, single, closed) =
        (fresh(0, open_count), fresh(2, closed_count), fresh(1, closed_count));

    let serve_args: Vec<String> = if shards.names.len() == 1 {
        vec![
            "--model".into(),
            ctx.run_dir.join(format!("{}.edgemap", shards.names[0])).display().to_string(),
        ]
    } else {
        shards
            .names
            .iter()
            .flat_map(|n| {
                [
                    "--model".to_string(),
                    format!("{n}={}", ctx.run_dir.join(format!("{n}.edgemap")).display()),
                ]
            })
            .collect()
    };
    let session = drive(ctx, &serve_args, warm, &open, &single, &closed, spec, windows)?;

    // Checks, over every attempt of every phase.
    let mut memo = HashMap::new();
    let mut mismatches = 0;
    let mut checked = 0;
    let every = || {
        std::iter::once(&session.warm)
            .chain(&session.open)
            .chain(&session.single)
            .chain(&session.closed)
    };
    for attempt in every() {
        let (bad, n) = check(&attempt.records, &attempt.set, shards, &mut memo);
        mismatches += bad;
        checked += n;
    }
    let attempted = every().map(|a| a.records.len()).sum();
    let failed = every().map(|a| a.records.iter().filter(|r| !r.ok()).count()).sum();
    let (open, closed) = (quietest(&session.open), quietest(&session.closed));

    // End-to-end figures.
    // Each figure is the median over short slices of its phase, so one
    // burst of interference moves a slice, not the figure.
    let open_latency = Latency::of(open, session.windows.open)?;
    let single_latency = match session.single.is_empty() {
        true => None,
        false => Some(Latency::of(quietest(&session.single), session.windows.single)?),
    };
    let p50 = single_latency.as_ref().unwrap_or(&open_latency).p50;
    let slices = |d: Duration, slice: Duration| (d.as_secs_f64() / slice.as_secs_f64()) as usize;
    let closed_window = session.windows.closed;
    let n_closed = slices(closed_window, THROUGHPUT_SLICE).max(1);
    let mut closed_texts = vec![0usize; n_closed];
    for r in closed.records.iter().filter(|r| r.ok()) {
        let done = r.done.expect("ok records completed");
        if done < closed_window {
            closed_texts[slices(done, THROUGHPUT_SLICE).min(n_closed - 1)] +=
                closed.set.texts[r.index % closed.set.texts.len()].len();
        }
    }
    let slice_secs = closed_window.as_secs_f64() / n_closed as f64;
    let closed_steal = closed.slice_steal(THROUGHPUT_SLICE, n_closed);
    let counted = quiet_slices(&closed_steal);
    let throughput =
        median(&counted.iter().map(|&i| closed_texts[i] as f64 / slice_secs).collect::<Vec<_>>())
            .ok_or("no closed-loop slice")?;
    let mut pairs = Vec::new();
    for (model, dataset) in shards.models.iter().zip(datasets) {
        pairs.extend(train::accuracy(model, dataset.paper_split().1));
    }
    let acc = edge_geo::DistanceReport::from_pairs(&pairs).ok_or("no test tweet covered")?;

    let mut props =
        properties(&open.set, shards, edge_serve::ServeConfig::default().cache_capacity);
    props.corpus_bytes =
        datasets.iter().map(|d| serde_json::to_string(d).map(|s| s.len()).unwrap_or(0)).sum();
    let mut notes = props.lines();
    notes.push(format!("check.responses_compared {checked} mismatches {mismatches}"));
    let mut phase = |name: &str, attempts: &[Attempt]| {
        for (i, a) in attempts.iter().enumerate() {
            notes.push(format!(
                "phase.{name} attempt {i}: sent {} ok {} host steal share {:.4}",
                a.records.len(),
                a.records.iter().filter(|r| r.ok()).count(),
                a.steal
            ));
        }
    };
    phase("warmup", std::slice::from_ref(&session.warm));
    phase("open", &session.open);
    phase("single", &session.single);
    phase("closed", &session.closed);
    notes.push(format!(
        "open loop, Poisson arrivals at {} req/s, {:?}; {}closed loop {} in flight x {} connections, {:?}; figures from the attempt with the least steal",
        spec.open_rate,
        session.windows.open,
        match spec.latency {
            LatencyPhase::Open => String::new(),
            LatencyPhase::SingleUser =>
                format!("single user, 1 in flight x 1 connection, {:?}; ", session.windows.single),
        },
        spec.closed_depth,
        loadgen::CONNECTIONS,
        session.windows.closed,
    ));
    notes.push(format!(
        "throughput: median over {} of {} slices of {:?} (host steal <= {:.3} in them)",
        counted.len(),
        n_closed,
        THROUGHPUT_SLICE,
        counted.iter().map(|&i| closed_steal[i]).fold(0.0, f64::max),
    ));
    notes.extend(open_latency.lines("open"));
    if let Some(single) = &single_latency {
        notes.extend(single.lines("single"));
    }
    notes.push(format!(
        "latency_p50_us is latency.{}.p50_us; no tail is gated: on a shared 2-vCPU host the open-loop p90 and p99 spread up to 0.96 and 0.45 over ten runs",
        if single_latency.is_some() { "single" } else { "open" }
    ));
    let lookups = session.window.cache_hits + session.window.cache_misses;
    let hit_rate = if lookups > 0.0 { session.window.cache_hits / lookups } else { 0.0 };
    notes.push(format!("window.cache_hit_rate {hit_rate:.4} over {lookups} lookups"));

    let mut metrics = vec![
        ("throughput_tps", throughput),
        ("latency_p50_us", p50),
        ("setup_s", median(&session.setup_s).ok_or("no server start")?),
        ("peak_rss_mb", session.peak_rss_mb),
        ("train_s", train_s),
        ("mean_km", acc.mean_km),
        ("median_km", acc.median_km),
        ("acc_3km", acc.at_3km),
    ];
    if ctx.trace {
        let open_p50 = open_latency.p50;
        metrics = layer_metrics(
            ctx, shards, &session, open, open_p50, p50, throughput, hit_rate, report,
        )?;
    }
    Ok(Outcome {
        correct: mismatches == 0 && checked > 0 && failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// The traced run's per-layer figures.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    ctx: &Ctx,
    shards: &Shards,
    session: &Session,
    open: &Attempt,
    open_p50: f64,
    p50: f64,
    throughput: f64,
    hit_rate: f64,
    train_report: &train::Report,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut tracer = Tracer::default();
    // Replica load: artifact open + model load, per shard, several times.
    for (i, name) in shards.names.iter().enumerate() {
        let path = ctx.run_dir.join(format!("{name}.edgemap"));
        for _ in 0..5 {
            tracer.span("core.artifact.load", i as u64, |_| load_model(&path))?;
        }
    }
    let load_us = mean(&tracer.self_times_us(0)["core.artifact.load"]);
    let per_request = open.set.texts[0].len().max(1);
    let measured: Vec<Vec<u8>> =
        open.set.wire.iter().take(REPLAY_REQUESTS / per_request).cloned().collect();
    let warm = &session.warm.set.wire;
    let layers =
        crate::layers::replay(&mut tracer, &shards.names, &shards.models, warm, &measured)?;
    tracer
        .write_jsonl(&ctx.out_dir.join(format!("{}-serve-spans.jsonl", ctx.tag)))
        .map_err(|e| format!("writing spans: {e}"))?;

    // Server stages from the ring: the open-loop window's records, and
    // for the stages behind the queue, every record that reached it.
    let served = |r: &&RingRecord| r.endpoint == "predict" && r.status == 200;
    let window: Vec<&RingRecord> = open.ring.iter().filter(served).collect();
    let ring: Vec<&RingRecord> =
        session.warm.ring.iter().filter(served).chain(window.iter().copied()).collect();
    let mut stage_means = [0.0; 5];
    let mut window_sum = 0.0;
    for (s, slot) in stage_means.iter_mut().enumerate() {
        let in_window: Vec<f64> = window.iter().map(|r| r.stage_us[s]).collect();
        window_sum += mean(&in_window);
        let reached: Vec<f64> = ring.iter().map(|r| r.stage_us[s]).filter(|&v| v > 0.0).collect();
        *slot = if STAGES[s] == "parse" || STAGES[s] == "serialize" || reached.is_empty() {
            mean(&in_window)
        } else {
            mean(&reached)
        };
    }
    let late: Vec<f64> = open.records.iter().map(Record::late_us).collect();
    let late_p99 = tail(&late, 99.0).ok_or("too few open-loop requests")?.value;
    let texts_per_batch = if session.session.batches > 0.0 {
        session.session.batched_texts / session.session.batches
    } else {
        0.0
    };
    let frame = layers["serve.http.frame"];
    let mut out = vec![
        ("serve.http.frame_us", frame),
        ("serve.json.decode_us", layers["serve.json.decode"]),
        ("serve.json.body_bytes", layers["serve.json.body_bytes"]),
        ("serve.router.route_us", layers["serve.router.route"]),
        ("text.ner.recognize_us", layers["text.ner.recognize"]),
        ("core.resolve_us", layers["core.resolve"]),
        ("serve.cache.get_us", layers["serve.cache.get"]),
        ("serve.cache.hit_rate", hit_rate),
        ("serve.cache.insert_us", layers["serve.cache.insert"]),
        ("serve.batch.texts_per_batch", texts_per_batch),
        ("serve.stage.parse_us", stage_means[0]),
        ("serve.stage.queue_us", stage_means[1]),
        ("serve.stage.batch_us", stage_means[2]),
        ("serve.stage.inference_us", stage_means[3]),
        ("serve.stage.serialize_us", stage_means[4]),
        ("core.infer_us", layers["core.infer"]),
        ("geo.mixture.mode_us", layers["geo.mixture.mode"]),
        ("serve.json.render_us", layers["serve.json.render"]),
        ("serve.unattributed_us", open_p50 - frame - window_sum),
        ("core.artifact.load_us", load_us),
        ("loadgen.late_p99_us", late_p99),
        ("trace.latency_p50_us", p50),
        ("trace.throughput_tps", throughput),
    ];
    out.extend(crate::training_layers(train_report)?);
    Ok(out)
}

/// Texts replayed through the layers after the warm-up pass.
const REPLAY_REQUESTS: usize = 4000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_count_the_slices_the_host_left_alone() {
        // Enough calm slices: exactly those count.
        let steal = [0.0, 0.2, 0.01, 0.03, 0.5, 0.0];
        assert_eq!(quiet_slices(&steal), vec![0, 2, 3, 5]);
        // Fewer than a third calm: the third with the least steal.
        let steal = [0.2, 0.1, 0.3, 0.05, 0.25, 0.02, 0.4];
        assert_eq!(quiet_slices(&steal), vec![1, 3, 5]);
    }

    #[test]
    fn slice_steal_reads_the_samples_around_each_slice() {
        let at = |ms: u64, steal: u64| {
            (Duration::from_millis(ms), CpuTicks { steal, total: 1000 + 100 * ms })
        };
        let attempt = Attempt {
            set: RequestSet { texts: Vec::new(), wire: Vec::new() },
            records: Vec::new(),
            steal: 0.5,
            ring: Vec::new(),
            // Samples at 0, 251 (a little late) and 500 ms: 250 ms slices
            // of 25100 and 24900 ticks, 0 and 4980 of them stolen.
            ticks: vec![at(0, 0), at(251, 0), at(500, 4980)],
        };
        let steal = attempt.slice_steal(Duration::from_millis(250), 3);
        assert_eq!(steal[0], 0.0);
        assert!((steal[1] - 0.2).abs() < 1e-12, "{}", steal[1]);
        // No sample after the third slice: the attempt's share.
        assert_eq!(steal[2], 0.5);
    }
}
