//! The HTTP server: a small pool of `epoll` event loops multiplexing
//! every connection, a per-metro-shard serving stack behind the entity
//! router, and graceful drain.
//!
//! Threading model: `event_loops` threads each own one `epoll` instance
//! and a set of non-blocking connections (loop 0 also owns the
//! listener; accepted sockets are handed off round-robin). A request is
//! parsed, routed, and admitted on its loop thread; batched inference
//! happens on the per-shard scheduler threads; completion wakes the loop
//! through an `eventfd`, which serializes and flushes the response. An
//! idle keep-alive connection is one fd in an interest list — 10k+ of
//! them cost zero threads and zero per-tick work.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use edge_core::{ArtifactLoad, EdgeModel, Predictor};
use edge_obs::ring::{
    RequestRecord, N_STAGES, STAGE_BATCH, STAGE_INFERENCE, STAGE_PARSE, STAGE_QUEUE,
    STAGE_SERIALIZE,
};
use edge_obs::trace::{AdoptGuard, DetachedSpan, SpanContext};
use edge_obs::{Histogram, RequestRing, SloConfig, SloStatus, SloTracker, SpanGuard};

use crate::batch::{run_scheduler, BatchQueue, Job, Pending, StageCells};
use crate::breaker::CircuitBreaker;
use crate::brownout::{BrownoutConfig, LoadController, Mode};
use crate::cache::{CacheKey, ResponseCache};
use crate::config::ServeConfig;
use crate::deadline::Deadline;
use crate::http::{parse_buffered, write_response_with, ParseStatus, ReadLimits, Request};
use crate::json::{
    parse_predict_body, render_deadline_error, render_error, render_response_degraded,
    simple_object,
};
use crate::metrics::{
    batch_path_counter, mode_rejection_counter, mode_transition_counter, request_counter,
    shard_cells, stage_hists, ShardCells,
};
use crate::reactor::{
    self, event_buffer, interest_rw, Poller, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT,
    EPOLLRDHUP,
};
use crate::router::Router;
use crate::slot::ModelSlot;

/// How long an admitted predict may wait on the scheduler before the
/// loop gives up with 500.
const PREDICT_TIMEOUT: Duration = Duration::from_secs(60);
/// How long shutdown waits for in-flight work before force-exiting.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// Headroom over `max_body_bytes` for the request line and headers
/// before an unparseable read buffer is cut off with 400.
const HEADER_SLACK: usize = 16 * 1024;
/// Epoll tick when any timed state (read budgets, write stalls,
/// in-flight predicts) needs enforcing.
const TICK_MS: i32 = 25;
/// Epoll tick when fully idle — bounds how late a drain is observed.
const IDLE_MS: i32 = 200;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;

/// Process-wide flag set by SIGTERM/SIGINT when `handle_signals` is on.
static SIGNALLED: AtomicBool = AtomicBool::new(false);
/// The eventfd a signal handler writes so [`Server::wait`] unparks in
/// microseconds instead of at a poll tick. Created once, never closed
/// (the handler may race a close).
static SIGNAL_FD: AtomicI32 = AtomicI32::new(-1);

extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::Release);
    let fd = SIGNAL_FD.load(Ordering::Acquire);
    if fd >= 0 {
        // One write syscall: async-signal-safe.
        reactor::eventfd_write(fd);
    }
}

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: *const ()) -> *const ();
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    if SIGNAL_FD.load(Ordering::Acquire) < 0 {
        if let Ok(fd) = reactor::raw_eventfd() {
            SIGNAL_FD.store(fd, Ordering::Release);
        }
    }
    unsafe {
        signal(SIGTERM, on_signal as extern "C" fn(i32) as *const ());
        signal(SIGINT, on_signal as extern "C" fn(i32) as *const ());
    }
}

/// One metro shard: a full serving stack behind its router slot.
pub(crate) struct Shard {
    name: &'static str,
    slot: ModelSlot,
    queue: BatchQueue,
    cache: ResponseCache,
    slo: SloTracker,
    brownout: LoadController,
    reload_breaker: CircuitBreaker,
    cells: ShardCells,
}

/// Per-event-loop mailbox: how other threads reach a loop. Both vectors
/// are drained on the loop thread right after every wake.
struct LoopShared {
    waker: Waker,
    /// Connections handed off by the accepting loop.
    incoming: Mutex<Vec<TcpStream>>,
    /// Tokens of async predicts whose last fragment just landed.
    completions: Mutex<Vec<u64>>,
}

/// Everything the event loops and schedulers share.
struct ServerState {
    config: ServeConfig,
    shards: Vec<Shard>,
    router: Router,
    ring: RequestRing,
    read_limits: ReadLimits,
    shutdown: AtomicBool,
    loops: Vec<Arc<LoopShared>>,
    /// Round-robin cursor for connection handoff at accept.
    next_loop: AtomicUsize,
}

impl ServerState {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) || SIGNALLED.load(Ordering::Acquire)
    }
}

/// A running inference server. Dropping the handle does *not* stop it;
/// call [`Server::shutdown`] (or send SIGTERM with `handle_signals`).
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    loop_threads: Vec<JoinHandle<()>>,
    scheduler_threads: Vec<JoinHandle<()>>,
    /// Keeps metrics recording for the server's lifetime; the prior
    /// global state is restored when the last lease drops.
    _metrics_lease: Option<edge_obs::MetricsLease>,
}

impl Server {
    /// Binds and starts a single-shard server — the pre-router API,
    /// byte-identical in behavior to a one-entry shard list.
    pub fn start(model: EdgeModel, config: ServeConfig) -> Result<Server, String> {
        Server::start_shards(vec![("default".to_string(), model)], config)
    }

    /// Binds, spawns the event loops and per-shard batching schedulers,
    /// and returns once the socket is listening. One shard per loaded
    /// metro model; requests route by resolved entity affinity with a
    /// consistent-hash tiebreak.
    pub fn start_shards(
        shards: Vec<(String, EdgeModel)>,
        config: ServeConfig,
    ) -> Result<Server, String> {
        config.validate()?;
        if shards.is_empty() {
            return Err("at least one model shard is required".into());
        }
        {
            let mut names: Vec<&str> = shards.iter().map(|(n, _)| n.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            if names.len() != shards.len() {
                return Err("shard names must be unique".into());
            }
        }
        let metrics_lease = config.enable_metrics.then(edge_obs::metrics_lease);
        if config.handle_signals {
            #[cfg(unix)]
            install_signal_handlers();
        }
        let listener =
            TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;

        let names: Vec<String> = shards.iter().map(|(n, _)| n.clone()).collect();
        let shard_stacks: Vec<Shard> = shards
            .into_iter()
            .map(|(name, model)| {
                // Shard topology is fixed for the process lifetime, so
                // leaking the name buys `&'static` labels for the metric
                // cells without a registry of interned strings.
                let name: &'static str = Box::leak(name.into_boxed_str());
                Shard {
                    cells: shard_cells(name),
                    name,
                    slot: ModelSlot::new(model),
                    queue: BatchQueue::new(config.queue_capacity),
                    cache: ResponseCache::new(
                        config.cache_capacity,
                        config.cache_shards,
                        config.cache_lsh_bits,
                        config.cache_hamming_max,
                    ),
                    slo: SloTracker::new(SloConfig {
                        target_p99_us: config.slo_target_p99_us,
                        max_shed_rate: config.slo_max_shed_rate,
                        window_secs: config.slo_window_secs,
                    }),
                    brownout: LoadController::new(BrownoutConfig {
                        enabled: config.brownout_enabled,
                        target_p99_us: config.brownout_p99_us,
                        max_shed_rate: config.brownout_max_shed_rate,
                        window_secs: config.brownout_window_secs,
                        escalate_ticks: config.brownout_escalate_ticks,
                        recover_ticks: config.brownout_recover_ticks,
                        tick_interval: Duration::from_micros(config.brownout_tick_us),
                    }),
                    reload_breaker: CircuitBreaker::new(
                        config.reload_breaker_threshold,
                        Duration::from_secs(config.reload_breaker_cooldown_secs),
                    ),
                }
            })
            .collect();
        let models: Vec<Arc<EdgeModel>> = shard_stacks.iter().map(|s| s.slot.get().0).collect();
        let router = Router::new(names, &models);
        drop(models);

        let loops: Vec<Arc<LoopShared>> = (0..config.event_loops)
            .map(|_| {
                Ok(Arc::new(LoopShared {
                    waker: Waker::new().map_err(|e| format!("eventfd: {e}"))?,
                    incoming: Mutex::new(Vec::new()),
                    completions: Mutex::new(Vec::new()),
                }))
            })
            .collect::<Result<_, String>>()?;

        let state = Arc::new(ServerState {
            read_limits: ReadLimits {
                max_body_bytes: config.max_body_bytes,
                read_budget: Duration::from_micros(config.read_budget_us),
            },
            ring: RequestRing::new(config.ring_capacity),
            shards: shard_stacks,
            router,
            shutdown: AtomicBool::new(false),
            loops,
            next_loop: AtomicUsize::new(0),
            config,
        });

        let mut scheduler_threads = Vec::new();
        for shard_idx in 0..state.shards.len() {
            for replica in 0..state.config.replicas {
                let state = Arc::clone(&state);
                let name = format!("edge-serve-sched-{}-{replica}", state.shards[shard_idx].name);
                scheduler_threads.push(
                    std::thread::Builder::new()
                        .name(name)
                        .spawn(move || scheduler_entry(state, shard_idx))
                        .map_err(|e| e.to_string())?,
                );
            }
        }
        let mut loop_threads = Vec::new();
        let mut listener = Some(listener);
        for idx in 0..state.config.event_loops {
            let state = Arc::clone(&state);
            let listener = listener.take(); // loop 0 owns the accept path
            loop_threads.push(
                std::thread::Builder::new()
                    .name(format!("edge-serve-loop-{idx}"))
                    .spawn(move || event_loop(idx, listener, state))
                    .map_err(|e| e.to_string())?,
            );
        }
        Ok(Server { addr, state, loop_threads, scheduler_threads, _metrics_lease: metrics_lease })
    }

    /// Loads the model from a saved mapped artifact (see
    /// [`edge_core::ModelArtifact::open`]), then starts.
    pub fn start_from_artifact(path: &str, config: ServeConfig) -> Result<Server, String> {
        let model = EdgeModel::load_artifact(path).map_err(|e| format!("loading {path}: {e}"))?;
        Server::start(model, config)
    }

    /// Loads one artifact per named shard, then starts the routed server.
    pub fn start_from_artifacts(
        specs: &[(String, String)],
        config: ServeConfig,
    ) -> Result<Server, String> {
        let mut shards = Vec::with_capacity(specs.len());
        for (name, path) in specs {
            let model =
                EdgeModel::load_artifact(path).map_err(|e| format!("loading {path}: {e}"))?;
            shards.push((name.clone(), model));
        }
        Server::start_shards(shards, config)
    }

    /// The actually bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Loaded shard names, in routing index order.
    pub fn shard_names(&self) -> Vec<&str> {
        self.state.shards.iter().map(|s| s.name).collect()
    }

    /// Current model generation (shard 0 — the whole server pre-router).
    pub fn generation(&self) -> u64 {
        self.state.shards[0].slot.generation()
    }

    /// Lifetime cache (hits, misses), summed across shards.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.state.shards.iter().fold((0, 0), |(h, m), s| {
            let (sh, sm) = s.cache.stats();
            (h + sh, m + sm)
        })
    }

    /// Jobs currently waiting across every shard's batching queue.
    pub fn queue_depth(&self) -> usize {
        self.state.shards.iter().map(|s| s.queue.depth()).sum()
    }

    /// The brownout load-controller mode of shard 0 right now.
    pub fn brownout_mode(&self) -> Mode {
        self.state.shards[0].brownout.mode()
    }

    /// True while shard 0's `/reload` circuit breaker rejects attempts.
    pub fn reload_breaker_open(&self) -> bool {
        self.state.shards[0].reload_breaker.is_open()
    }

    /// The last `n` request records from the debug ring, oldest first
    /// (what `GET /debug/requests` serves).
    pub fn recent_requests(&self, n: usize) -> Vec<RequestRecord> {
        self.state.ring.recent(n)
    }

    /// Requests a graceful drain and blocks until the event loops and
    /// schedulers exit (bounded by the drain timeout).
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::Release);
        for shared in &self.state.loops {
            shared.waker.wake();
        }
        for shard in &self.state.shards {
            shard.queue.notify_waiters();
        }
        for t in self.loop_threads.drain(..) {
            let _ = t.join();
        }
        for t in self.scheduler_threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Blocks until a signal (or programmatic shutdown) stops the server.
    /// The CLI's foreground mode. With signal handling on, the park is an
    /// `eventfd` the handler writes — the drain starts within
    /// microseconds of SIGTERM, not at a poll tick.
    pub fn wait(self) {
        let fd = SIGNAL_FD.load(Ordering::Acquire);
        while !self.state.shutdown.load(Ordering::Acquire) && !SIGNALLED.load(Ordering::Acquire) {
            if fd >= 0 {
                // The coarse timeout only covers flag flips that bypass
                // the eventfd; a signal wakes this immediately.
                reactor::wait_readable(fd, 1000);
            } else {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        edge_obs::progress!("edge-serve: draining ({} in flight)", self.queue_depth());
        self.shutdown();
    }
}

fn scheduler_entry(state: Arc<ServerState>, shard_idx: usize) {
    let max_batch = state.config.max_batch;
    let max_delay = Duration::from_micros(state.config.max_delay_us);
    let shard = &state.shards[shard_idx];
    run_scheduler(
        &shard.queue,
        &shard.slot,
        &shard.cache,
        max_batch,
        max_delay,
        || state.draining(),
        || tick_brownout(&state, shard_idx),
    );
}

/// Advances one shard's load controller and publishes a transition
/// everywhere an operator can see it: labeled counters, the mode gauges,
/// the request ring (as a synthetic `mode:<name>` record with a freshly
/// minted id, so ring replay stays ordered), and the progress log.
fn tick_brownout(state: &ServerState, shard_idx: usize) {
    let shard = &state.shards[shard_idx];
    let Some(transition) = shard.brownout.maybe_tick() else { return };
    mode_transition_counter(transition.to.name()).inc(1);
    shard.cells.mode.set(transition.to as u8 as f64);
    // The unlabeled gauge keeps its pre-router meaning: the worst mode
    // any shard is in right now.
    let worst = state.shards.iter().map(|s| s.brownout.mode()).max().unwrap_or(Mode::Full);
    edge_obs::gauge!("serve.mode").set(worst as u8 as f64);
    let endpoint: &'static str = match transition.to {
        Mode::Full => "mode:full",
        Mode::CacheOnly => "mode:cache_only",
        Mode::PriorOnly => "mode:prior_only",
        Mode::Shed => "mode:shed",
    };
    state.ring.push(RequestRecord {
        id: edge_obs::trace::next_request_id(),
        endpoint,
        status: 0,
        batch: transition.from as u8 as u32,
        cache_hits: 0,
        stage_us: [0; N_STAGES],
        total_us: 0,
    });
    if state.shards.len() == 1 {
        edge_obs::progress!(
            "edge-serve: brownout {} -> {}",
            transition.from.name(),
            transition.to.name()
        );
    } else {
        edge_obs::progress!(
            "edge-serve: brownout[{}] {} -> {}",
            shard.name,
            transition.from.name(),
            transition.to.name()
        );
    }
}

// ---------------------------------------------------------------------------
// Request bookkeeping shared by the sync and async completion paths.
// ---------------------------------------------------------------------------

/// What the predict handler learned about its request, for the debug
/// ring and the labeled stage histograms.
#[derive(Default)]
struct PredictStats {
    /// Microseconds per stage; `None` for a stage the request never
    /// reached.
    stage_us: [Option<u64>; N_STAGES],
    batch: u32,
    cache_hits: u32,
}

/// One timed serve stage on the loop thread: adopts the request's trace
/// context, opens the stage span and starts the clock. Dropping it ends
/// the span, restores the thread's context and records the stage's
/// microseconds into its slot — zero included, since the stage ran.
struct StageGuard<'a> {
    slot: &'a mut Option<u64>,
    started: Instant,
    span: Option<SpanGuard>,
    adopt: Option<AdoptGuard>,
}

impl<'a> StageGuard<'a> {
    fn start(slot: &'a mut Option<u64>, ctx: SpanContext, name: &'static str) -> Self {
        let adopt = Some(edge_obs::trace::adopt(ctx));
        StageGuard { slot, started: Instant::now(), span: Some(edge_obs::span(name)), adopt }
    }
}

impl Drop for StageGuard<'_> {
    fn drop(&mut self) {
        drop(self.span.take());
        drop(self.adopt.take());
        *self.slot = Some(self.started.elapsed().as_micros() as u64);
    }
}

/// Feeds every stage the request ran into `hists`, indexed like the
/// stages.
fn record_stages(hists: &[&Histogram; N_STAGES], stats: &PredictStats) {
    for (hist, us) in hists.iter().zip(stats.stage_us) {
        if let Some(us) = us {
            hist.record(us as f64);
        }
    }
}

/// How a finished predict feeds the per-shard SLO/brownout trackers.
enum SloAction {
    /// Not a predict — no SLO accounting.
    None,
    /// Latency recorded into each participating shard (shard 0 when the
    /// request failed before routing).
    Record(Vec<usize>),
    /// Queue shed: counts against both trackers of the refusing shard.
    Shed429(usize),
    /// Brownout rejection: honest shed reporting in `/healthz`, but never
    /// fed back into the controller (a mode must not sustain itself on
    /// the load it sheds).
    Shed503(Vec<usize>),
}

/// Identity and timing of one in-flight request, carried from parse to
/// the final accounting no matter which thread finishes it.
struct RequestMeta {
    started: Instant,
    request_id: u64,
    endpoint: &'static str,
    /// Root span; detached because the request may complete on a later
    /// loop iteration. Dropped (= recorded) by [`finish_request`].
    root: DetachedSpan,
}

/// The single exit point for every request: ends the root span, feeds
/// the global and per-shard metric families and SLO trackers, pushes the
/// debug-ring record, and advances the brownout controllers, so every
/// status (inline, completed or timed out) is accounted the same way.
fn finish_request(
    state: &ServerState,
    meta: RequestMeta,
    status: u16,
    stats: &PredictStats,
    action: SloAction,
) {
    let RequestMeta { started, request_id, endpoint, root } = meta;
    // The root span ends before the total is measured, so the request
    // total covers the span's own recording.
    drop(root);
    let total_us = started.elapsed().as_micros() as u64;
    edge_obs::counter!("serve.requests").inc(1);
    edge_obs::histogram!("serve.request.us").record(total_us as f64);
    request_counter(endpoint, status).inc(1);
    record_stages(stage_hists(), stats);
    match action {
        SloAction::None => {}
        SloAction::Record(mut shards) => {
            if shards.is_empty() {
                shards.push(0);
            }
            shards.sort_unstable();
            shards.dedup();
            for s in shards {
                let shard = &state.shards[s];
                shard.slo.record(total_us);
                shard.brownout.record(total_us);
                shard.cells.requests.inc(1);
                shard.cells.request_us.record(total_us as f64);
            }
        }
        SloAction::Shed429(s) => {
            let shard = &state.shards[s];
            shard.slo.record_shed();
            shard.brownout.record_shed();
            shard.cells.requests.inc(1);
        }
        SloAction::Shed503(mut shards) => {
            shards.sort_unstable();
            shards.dedup();
            for s in shards {
                let shard = &state.shards[s];
                shard.slo.record_shed();
                shard.cells.requests.inc(1);
            }
        }
    }
    let record = RequestRecord {
        id: request_id,
        endpoint,
        status,
        batch: stats.batch,
        cache_hits: stats.cache_hits,
        stage_us: stats.stage_us.map(|us| us.unwrap_or(0)),
        total_us,
    };
    state.ring.push(record);
    if state.config.slow_request_us > 0 && total_us >= state.config.slow_request_us {
        edge_obs::progress!("{}", record.to_json());
    }
    // Advance the load controllers after the ring push so a transition
    // record minted now carries an id above this request's.
    for shard_idx in 0..state.shards.len() {
        tick_brownout(state, shard_idx);
    }
}

/// An endpoint's answer before it is framed onto the wire.
struct Reply {
    status: u16,
    content_type: &'static str,
    extra: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Reply {
    fn json(status: u16, body: Vec<u8>) -> Reply {
        Reply { status, content_type: "application/json", extra: Vec::new(), body }
    }

    fn with_retry_after(mut self, secs: u64) -> Reply {
        self.extra.push(("Retry-After".to_string(), secs.to_string()));
        self
    }
}

/// Frames a reply as wire bytes, stamping its `X-Request-Id`.
fn to_wire(reply: &Reply, header_id: &str, keep_alive: bool) -> Vec<u8> {
    let mut headers: Vec<(&str, &str)> = Vec::with_capacity(reply.extra.len() + 1);
    headers.push(("X-Request-Id", header_id));
    for (name, value) in &reply.extra {
        headers.push((name, value));
    }
    let mut out = Vec::with_capacity(reply.body.len() + 128);
    write_response_with(
        &mut out,
        reply.status,
        reply.content_type,
        &headers,
        &reply.body,
        keep_alive,
    )
    .expect("writing to a Vec cannot fail");
    out
}

// ---------------------------------------------------------------------------
// Endpoint handlers (synchronous; predict may instead go async).
// ---------------------------------------------------------------------------

fn handle_healthz(state: &ServerState) -> Reply {
    // Aggregate across shards: degraded if any shard is, the tightest
    // budget, the worst burn/shed, the worst brownout mode. Identical to
    // the pre-router body for a single shard.
    let statuses: Vec<SloStatus> = state.shards.iter().map(|s| s.slo.status()).collect();
    let degraded = statuses.iter().any(|s| s.degraded);
    let budget = statuses.iter().map(|s| s.budget_remaining).fold(f64::INFINITY, f64::min);
    let burn = statuses.iter().map(|s| s.burn_rate).fold(0.0, f64::max);
    let shed = statuses.iter().map(|s| s.shed_rate).fold(0.0, f64::max);
    let mode = state.shards.iter().map(|s| s.brownout.mode()).max().unwrap_or(Mode::Full);
    let generation = state.shards[0].slot.generation().to_string();
    let status = if degraded { "degraded" } else { "ok" };
    let budget = format!("{budget:.4}");
    let burn = format!("{burn:.4}");
    let shed = format!("{shed:.4}");
    let body = simple_object(&[
        ("status", status),
        ("model", "EDGE"),
        ("generation", &generation),
        ("mode", mode.name()),
        ("slo_budget_remaining", &budget),
        ("slo_burn_rate", &burn),
        ("slo_shed_rate", &shed),
    ]);
    Reply::json(200, body)
}

fn handle_metrics(state: &ServerState) -> Reply {
    // Point-in-time gauges are refreshed at scrape so the exposition is
    // self-contained. Unlabeled gauges keep their pre-router meaning as
    // whole-server rollups; the `serve_shard_*` families carry the
    // per-shard truth.
    let (hits, misses) = state.shards.iter().fold((0u64, 0u64), |(h, m), s| {
        let (sh, sm) = s.cache.stats();
        (h + sh, m + sm)
    });
    edge_obs::gauge!("serve.cache.stats.hits").set(hits as f64);
    edge_obs::gauge!("serve.cache.stats.misses").set(misses as f64);
    let depth: usize = state.shards.iter().map(|s| s.queue.depth()).sum();
    edge_obs::gauge!("serve.queue.depth").set(depth as f64);
    let statuses: Vec<SloStatus> = state.shards.iter().map(|s| s.slo.status()).collect();
    let burn = statuses.iter().map(|s| s.burn_rate).fold(0.0, f64::max);
    let budget = statuses.iter().map(|s| s.budget_remaining).fold(f64::INFINITY, f64::min);
    let shed = statuses.iter().map(|s| s.shed_rate).fold(0.0, f64::max);
    let degraded = statuses.iter().any(|s| s.degraded);
    edge_obs::gauge!("serve.slo.burn.rate").set(burn);
    edge_obs::gauge!("serve.slo.budget.remaining").set(budget);
    edge_obs::gauge!("serve.slo.shed.rate").set(shed);
    edge_obs::gauge!("serve.slo.degraded").set(if degraded { 1.0 } else { 0.0 });
    let worst = state.shards.iter().map(|s| s.brownout.mode()).max().unwrap_or(Mode::Full);
    edge_obs::gauge!("serve.mode").set(worst as u8 as f64);
    for (shard, status) in state.shards.iter().zip(&statuses) {
        let (sh, sm) = shard.cache.stats();
        shard.cells.queue_depth.set(shard.queue.depth() as f64);
        shard.cells.shed_rate.set(status.shed_rate);
        shard.cells.cache_hits.set(sh as f64);
        shard.cells.cache_misses.set(sm as f64);
        shard.cells.mode.set(shard.brownout.mode() as u8 as f64);
        shard.cells.generation.set(shard.slot.generation() as f64);
    }
    let text = edge_obs::openmetrics::render(&edge_obs::metrics::snapshot());
    Reply {
        status: 200,
        content_type: edge_obs::openmetrics::CONTENT_TYPE,
        extra: Vec::new(),
        body: text.into_bytes(),
    }
}

fn handle_debug_requests(req: &Request, state: &ServerState) -> Reply {
    let n = req.query_param("n").and_then(|v| v.parse().ok()).unwrap_or(64usize);
    let records = state.ring.recent(n);
    let mut body = String::from("{\"requests\":[");
    for (i, record) in records.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&record.to_json());
    }
    body.push_str("]}");
    Reply::json(200, body.into_bytes())
}

fn handle_reload(req: &Request, state: &ServerState) -> Reply {
    let parsed = std::str::from_utf8(&req.body)
        .ok()
        .and_then(|s| serde_json::from_str::<serde_json::Value>(s).ok());
    let path =
        parsed.as_ref().and_then(|v| v.get("path").and_then(|p| p.as_str().map(str::to_string)));
    let Some(path) = path else {
        let body = simple_object(&[("error", "bad_request"), ("detail", "body needs a \"path\"")]);
        return Reply::json(400, body);
    };
    // Which shard swaps: explicit `"shard": NAME`, defaulting to the only
    // shard when there is exactly one.
    let shard_name =
        parsed.as_ref().and_then(|v| v.get("shard").and_then(|s| s.as_str().map(str::to_string)));
    let shard_idx = match (&shard_name, state.shards.len()) {
        (Some(name), _) => match state.router.shard_index(name) {
            Some(idx) => idx,
            None => {
                let detail = format!("unknown shard {name:?}");
                let body = simple_object(&[("error", "bad_request"), ("detail", &detail)]);
                return Reply::json(400, body);
            }
        },
        (None, 1) => 0,
        (None, _) => {
            let body = simple_object(&[
                ("error", "bad_request"),
                ("detail", "body needs a \"shard\" on a multi-shard server"),
            ]);
            return Reply::json(400, body);
        }
    };
    let shard = &state.shards[shard_idx];
    // A corrupt-artifact storm (checksum/deserialize failures in a row)
    // opens the breaker: further attempts are refused outright until the
    // cooldown lapses, protecting the serving path from reload churn.
    if let Err(retry_after) = shard.reload_breaker.check() {
        edge_obs::counter!("serve.reload.breaker.rejected").inc(1);
        let body = simple_object(&[
            ("error", "circuit_open"),
            ("detail", "reload breaker open after repeated failures"),
        ]);
        return Reply::json(503, body).with_retry_after(retry_after);
    }
    match shard.slot.reload_from(&path) {
        Ok(generation) => {
            shard.reload_breaker.record_success();
            // Entries keyed under older generations can never be returned
            // (the key carries the generation); clearing reclaims memory.
            shard.cache.clear();
            edge_obs::counter!("serve.reloads").inc(1);
            edge_obs::progress!("edge-serve: reloaded {path} as generation {generation}");
            let generation = generation.to_string();
            let body = simple_object(&[("status", "ok"), ("generation", &generation)]);
            Reply::json(200, body)
        }
        Err(msg) => {
            shard.reload_breaker.record_failure();
            edge_obs::counter!("serve.reload.failures").inc(1);
            let body = simple_object(&[("error", "reload_rejected"), ("detail", &msg)]);
            Reply::json(422, body)
        }
    }
}

// ---------------------------------------------------------------------------
// Predict: routed, admitted on the loop thread, completed asynchronously.
// ---------------------------------------------------------------------------

/// An admitted predict waiting for its shard schedulers, owned by the
/// event loop that parsed it.
struct InFlight {
    conn: u64,
    pending: Arc<Pending>,
    deadline: Deadline,
    /// When the loop gives up waiting: the request's deadline, capped by
    /// the scheduler-wedge bound `PREDICT_TIMEOUT`.
    timeout_at: Instant,
    /// Per-text fragments; inline answers prefilled, seeds filled at
    /// completion.
    fragments: Vec<Option<Arc<Vec<u8>>>>,
    /// Fragment index of each pending slot, in pending order.
    seeds: Vec<usize>,
    stages: Arc<StageCells>,
    single: bool,
    meta: RequestMeta,
    stats: PredictStats,
    participants: Vec<usize>,
    header_id: String,
    keep_alive: bool,
}

/// A brownout 503 for `mode`, charged to `shards`.
fn browned_out_reply(state: &ServerState, mode: Mode, shards: Vec<usize>) -> (Reply, SloAction) {
    mode_rejection_counter(mode.name()).inc(1);
    let body = simple_object(&[("error", "browned_out"), ("mode", mode.name())]);
    let reply = Reply::json(503, body).with_retry_after(state.config.retry_after_secs);
    (reply, SloAction::Shed503(shards))
}

/// What dispatching one parsed request produced.
enum Outcome {
    /// Fully answered: wire bytes ready to flush.
    Ready(Vec<u8>),
    /// Predict admitted to shard queues; answered when `InFlight`
    /// completes or times out.
    Pending(u64),
}

/// Parses, routes, and either answers or admits one request. Runs on the
/// event-loop thread; never blocks.
#[allow(clippy::too_many_arguments)]
fn dispatch_request(
    state: &ServerState,
    shared: &Arc<LoopShared>,
    inflight: &mut HashMap<u64, InFlight>,
    next_token: &mut u64,
    conn_token: u64,
    req: Request,
    keep_alive: bool,
) -> Outcome {
    let started = Instant::now();
    // Every request gets a fresh id; spans opened anywhere below (this
    // thread, the scheduler, the worker pool) carry it, and the response
    // echoes the client's X-Request-Id when it sent one.
    let request_id = edge_obs::trace::next_request_id();
    let _scope = edge_obs::trace::request_scope(request_id);
    let header_id = req.request_id.clone().unwrap_or_else(|| format!("req-{request_id}"));
    let endpoint: &'static str = match req.path.as_str() {
        "/predict" => "predict",
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/reload" => "reload",
        "/debug/requests" => "debug_requests",
        _ => "other",
    };
    // The request's budget: the client's X-Deadline-Us when sent, the
    // server default otherwise.
    let deadline = Deadline::resolve(req.deadline_us, state.config.default_deadline_us);
    let meta =
        RequestMeta { started, request_id, endpoint, root: DetachedSpan::begin("serve.request") };

    if let ("POST", "predict") = (req.method.as_str(), endpoint) {
        return handle_predict(
            state, shared, inflight, next_token, conn_token, &req, meta, deadline, header_id,
            keep_alive,
        );
    }
    let reply = match (req.method.as_str(), endpoint) {
        ("GET", "healthz") => handle_healthz(state),
        ("GET", "metrics") => handle_metrics(state),
        ("GET", "debug_requests") => handle_debug_requests(&req, state),
        ("POST", "reload") => handle_reload(&req, state),
        (_, "other") => Reply::json(404, simple_object(&[("error", "not_found")])),
        _ => Reply::json(405, simple_object(&[("error", "method_not_allowed")])),
    };
    let wire = to_wire(&reply, &header_id, keep_alive);
    finish_request(state, meta, reply.status, &PredictStats::default(), SloAction::None);
    Outcome::Ready(wire)
}

#[allow(clippy::too_many_arguments)]
fn handle_predict(
    state: &ServerState,
    shared: &Arc<LoopShared>,
    inflight: &mut HashMap<u64, InFlight>,
    next_token: &mut u64,
    conn_token: u64,
    req: &Request,
    meta: RequestMeta,
    deadline: Deadline,
    header_id: String,
    keep_alive: bool,
) -> Outcome {
    let mut stats = PredictStats::default();
    let finish = |meta: RequestMeta, reply: Reply, stats: &PredictStats, action: SloAction| {
        let wire = to_wire(&reply, &header_id, keep_alive);
        finish_request(state, meta, reply.status, stats, action);
        Outcome::Ready(wire)
    };

    // Shed rejects before spending anything on the body — but only when
    // *every* shard is shedding; any surviving shard might still own the
    // request, which routing (below) decides.
    let shed_everywhere = state.shards.iter().all(|s| s.brownout.mode() == Mode::Shed);
    if shed_everywhere {
        let all: Vec<usize> = (0..state.shards.len()).collect();
        let (reply, action) = browned_out_reply(state, Mode::Shed, all);
        return finish(meta, reply, &stats, action);
    }

    // The parse stage covers body parse, routing, entity resolution, and
    // cache probes; it ends at admission, where queue time takes over.
    // Its span nests under the detached root.
    let ctx = meta.root.ctx();
    let parse = StageGuard::start(&mut stats.stage_us[STAGE_PARSE], ctx, "serve.stage.parse");
    let body = match parse_predict_body(&req.body) {
        Ok(b) => b,
        Err(msg) => {
            drop(parse);
            let body = simple_object(&[("error", "bad_request"), ("detail", &msg)]);
            return finish(meta, Reply::json(400, body), &stats, SloAction::Record(Vec::new()));
        }
    };
    let fallback = body.fallback_prior.unwrap_or(state.config.fallback_prior);
    // One coherent snapshot of every shard's model for this request.
    let snapshots: Vec<(Arc<EdgeModel>, u64)> = state.shards.iter().map(|s| s.slot.get()).collect();
    let models: Vec<Arc<EdgeModel>> = snapshots.iter().map(|(m, _)| Arc::clone(m)).collect();
    edge_obs::counter!("serve.predict.texts").inc(body.texts.len() as u64);
    stats.batch = body.texts.len() as u32;

    // A request that arrived already out of budget is not worth resolving.
    if deadline.expired() {
        drop(parse);
        edge_obs::counter!("serve.deadline.expired").inc(1);
        let reply = Reply::json(504, render_deadline_error());
        return finish(meta, reply, &stats, SloAction::Record(Vec::new()));
    }

    // Route and resolve each text up front: abstentions answer
    // immediately, cache hits skip the queue, and only genuine model work
    // is admitted. Each text's shard decides its brownout fate: CacheOnly
    // rejects a miss, PriorOnly answers from that shard's fallback prior
    // with a `degraded` marker, Full admits it to the shard's queue.
    let mut fragments: Vec<Option<Arc<Vec<u8>>>> = vec![None; body.texts.len()];
    let mut seeds: Vec<(usize, usize, Vec<usize>)> = Vec::new();
    let mut participants: Vec<usize> = Vec::new();
    let mut degraded_prior: HashMap<usize, Arc<Vec<u8>>> = HashMap::new();
    for (i, text) in body.texts.iter().enumerate() {
        let s = state.router.route_text(text, &models);
        let shard = &state.shards[s];
        shard.cells.texts.inc(1);
        participants.push(s);
        let (model, generation) = (&models[s], snapshots[s].1);
        let entities = model.resolve_entities(text);
        if entities.is_empty() && !fallback {
            fragments[i] = Some(Arc::new(render_error(&edge_core::PredictError::NoEntities)));
            batch_path_counter(false).inc(1);
            continue;
        }
        let key = CacheKey { generation, entities: entities.clone(), fallback };
        if let Some(bytes) = shard.cache.get(&key) {
            fragments[i] = Some(bytes);
            stats.cache_hits += 1;
            batch_path_counter(false).inc(1);
            continue;
        }
        match shard.brownout.mode() {
            mode @ (Mode::CacheOnly | Mode::Shed) => {
                drop(parse);
                let (reply, action) = browned_out_reply(state, mode, vec![s]);
                return finish(meta, reply, &stats, action);
            }
            Mode::PriorOnly => {
                // Skip diffusion/attention entirely: one shared prior
                // answer per shard per request, explicitly marked degraded.
                let bytes = degraded_prior.entry(s).or_insert_with(|| {
                    let opts = edge_core::PredictOptions::default().with_fallback_prior(true);
                    let result =
                        model.locate(&edge_core::PredictRequest::entities(Vec::new()), &opts);
                    Arc::new(match &result {
                        Ok(resp) => render_response_degraded(resp),
                        Err(err) => render_error(err),
                    })
                });
                fragments[i] = Some(Arc::clone(bytes));
                edge_obs::counter!("serve.degraded.answers").inc(1);
                batch_path_counter(false).inc(1);
            }
            Mode::Full => {
                batch_path_counter(true).inc(1);
                seeds.push((i, s, entities));
            }
        }
    }

    if seeds.is_empty() {
        // Everything answered inline: serialize and finish synchronously.
        drop(parse);
        let slot = &mut stats.stage_us[STAGE_SERIALIZE];
        let serialize = StageGuard::start(slot, ctx, "serve.stage.serialize");
        let out = serialize_fragments(&mut fragments, body.single);
        drop(serialize);
        let reply = Reply::json(200, out);
        return finish(meta, reply, &stats, SloAction::Record(participants));
    }

    let stages = Arc::new(StageCells::default());
    // The parse stage ends here, at admission: job construction and the
    // submit itself contend on the queue mutex (the scheduler holds it to
    // evict expired jobs), and that wait is queue time. Ending parse
    // first keeps the stages disjoint, so their sum never exceeds the
    // request's end-to-end latency.
    drop(parse);
    let submitted = Instant::now();
    let token = *next_token;
    *next_token += 1;
    // Completion path: the worker that fills the last fragment posts the
    // token to this loop's mailbox and wakes its epoll.
    let notify = Arc::clone(shared);
    let pending = Arc::new(Pending::new(seeds.len(), move || {
        notify.completions.lock().unwrap_or_else(|e| e.into_inner()).push(token);
        notify.waker.wake();
    }));
    // One submit per shard, all-or-nothing within each shard's queue, so
    // a single-shard request is admitted whole or not at all. If any shard
    // sheds, the whole request answers 429; fragments already admitted
    // elsewhere complete into an unregistered token and are ignored.
    let mut by_shard: HashMap<usize, Vec<Job>> = HashMap::new();
    for (k, (i, s, entities)) in seeds.iter().enumerate() {
        by_shard.entry(*s).or_default().push(Job {
            entities: entities.clone(),
            generation: snapshots[*s].1,
            text: body.texts[*i].clone(),
            fallback,
            pending: Arc::clone(&pending),
            index: k,
            ctx: meta.root.ctx(),
            submitted,
            stages: Arc::clone(&stages),
            deadline,
        });
    }
    for (s, jobs) in by_shard {
        if !state.shards[s].queue.try_submit(jobs) {
            edge_obs::counter!("serve.shed").inc(1);
            let body = simple_object(&[("error", "overloaded")]);
            let reply = Reply::json(429, body).with_retry_after(state.config.retry_after_secs);
            return finish(meta, reply, &stats, SloAction::Shed429(s));
        }
    }
    // Wait no longer than the request's own budget: a bounded request
    // answers 504 the moment its budget is gone, not at the generic
    // scheduler-wedge timeout.
    let wait_limit = match deadline.remaining() {
        Some(remaining) => remaining.min(PREDICT_TIMEOUT),
        None => PREDICT_TIMEOUT,
    };
    inflight.insert(
        token,
        InFlight {
            conn: conn_token,
            pending,
            deadline,
            timeout_at: submitted + wait_limit,
            fragments,
            seeds: seeds.into_iter().map(|(i, _, _)| i).collect(),
            stages,
            single: body.single,
            meta,
            stats,
            participants,
            header_id,
            keep_alive,
        },
    );
    Outcome::Pending(token)
}

/// Joins fragments into the response body: a bare object for the single
/// shape, an envelope for batch.
fn serialize_fragments(fragments: &mut [Option<Arc<Vec<u8>>>], single: bool) -> Vec<u8> {
    let mut out: Vec<u8> = Vec::with_capacity(64 * fragments.len());
    if single {
        out.extend_from_slice(&fragments[0].take().expect("filled"));
    } else {
        out.extend_from_slice(b"{\"results\":[");
        for (i, frag) in fragments.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.extend_from_slice(frag.as_ref().expect("filled"));
        }
        out.extend_from_slice(b"]}");
    }
    out
}

/// Resolves a completed (or timed-out) in-flight predict into wire
/// bytes: 504 past the deadline, 500 when the schedulers never answered,
/// else the joined fragments.
fn resolve_inflight(state: &ServerState, mut flight: InFlight, timed_out: bool) -> (u64, Vec<u8>) {
    let results = flight.pending.try_results();
    let (reply, action) = match results {
        _ if flight.deadline.expired() => {
            edge_obs::counter!("serve.deadline.expired").inc(1);
            (
                Reply::json(504, render_deadline_error()),
                SloAction::Record(flight.participants.clone()),
            )
        }
        None => {
            debug_assert!(timed_out, "resolved without results or timeout");
            let body = simple_object(&[("error", "timeout")]);
            (Reply::json(500, body), SloAction::Record(flight.participants.clone()))
        }
        Some(results) => {
            // Queue eviction resolves a job to the deadline fragment; a
            // request holding one is answered 504 as a whole, matching
            // the typed contract regardless of which stage gave up first.
            if results.iter().any(|b| b.as_slice() == render_deadline_error().as_slice()) {
                (
                    Reply::json(504, render_deadline_error()),
                    SloAction::Record(flight.participants.clone()),
                )
            } else {
                for (&i, bytes) in flight.seeds.iter().zip(results) {
                    flight.fragments[i] = Some(bytes);
                }
                let (queue_us, batch_us, inference_us) = flight.stages.load();
                let stage_us = &mut flight.stats.stage_us;
                stage_us[STAGE_QUEUE] = Some(queue_us);
                stage_us[STAGE_BATCH] = Some(batch_us);
                stage_us[STAGE_INFERENCE] = Some(inference_us);
                let slot = &mut stage_us[STAGE_SERIALIZE];
                let ctx = flight.meta.root.ctx();
                let serialize = StageGuard::start(slot, ctx, "serve.stage.serialize");
                let out = serialize_fragments(&mut flight.fragments, flight.single);
                drop(serialize);
                (Reply::json(200, out), SloAction::Record(flight.participants.clone()))
            }
        }
    };
    let wire = to_wire(&reply, &flight.header_id, flight.keep_alive);
    finish_request(state, flight.meta, reply.status, &flight.stats, action);
    (flight.conn, wire)
}

// ---------------------------------------------------------------------------
// The event loop: connection state machines over epoll.
// ---------------------------------------------------------------------------

/// One response slot in a connection's pipeline: answered in request
/// order, so pipelined requests cannot reorder even when a later one
/// finishes first.
enum Slot {
    Ready(Vec<u8>),
    Waiting(u64),
}

/// Per-connection state machine.
struct Connection {
    stream: TcpStream,
    read_buf: Vec<u8>,
    /// Responses (ready or awaited) in request order.
    slots: VecDeque<Slot>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Close once every queued response has flushed.
    close_after_flush: bool,
    /// Stop parsing further pipelined requests (after `Connection:
    /// close`, a parse error, or drain).
    stop_reading: bool,
    /// Read-budget arm time: set by the first byte of an incomplete
    /// request, re-armed per request, cleared when the buffer is empty.
    armed_at: Option<Instant>,
    /// Last time a write made progress (stalled-reader bound).
    last_write_progress: Instant,
    /// Peer half-closed its send side (EOF observed).
    read_closed: bool,
}

impl Connection {
    fn new(stream: TcpStream) -> Connection {
        Connection {
            stream,
            read_buf: Vec::new(),
            slots: VecDeque::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            close_after_flush: false,
            stop_reading: false,
            armed_at: None,
            last_write_progress: Instant::now(),
            read_closed: false,
        }
    }

    /// Whether any timed bound (budget, write stall, pending output)
    /// needs tick-granularity enforcement.
    fn timed(&self) -> bool {
        self.armed_at.is_some() || self.write_pos < self.write_buf.len() || !self.slots.is_empty()
    }

    fn queue_reply(&mut self, wire: Vec<u8>) {
        self.slots.push_back(Slot::Ready(wire));
    }
}

fn event_loop(loop_idx: usize, listener: Option<TcpListener>, state: Arc<ServerState>) {
    let shared = Arc::clone(&state.loops[loop_idx]);
    let Ok(poller) = Poller::new() else { return };
    let mut listener = listener;
    if let Some(l) = &listener {
        let _ = poller.add(l.as_raw_fd(), TOKEN_LISTENER, EPOLLIN | reactor::EPOLLET);
    }
    // Level-triggered waker registration: a wake posted while the loop is
    // busy still shows on the next epoll_wait.
    let _ = poller.add(shared.waker.fd(), TOKEN_WAKER, EPOLLIN);

    let mut conns: HashMap<u64, Connection> = HashMap::new();
    let mut inflight: HashMap<u64, InFlight> = HashMap::new();
    // Monotonic, never reused: connection and in-flight tokens share the
    // space, so a stale completion can never alias a live connection.
    let mut next_token: u64 = 2;
    let mut events = event_buffer(256);
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let draining = state.draining();
        if draining {
            if drain_deadline.is_none() {
                drain_deadline = Some(Instant::now() + DRAIN_TIMEOUT);
                // Stop accepting: close the listening socket now so the
                // port frees while in-flight work finishes.
                if let Some(l) = listener.take() {
                    let _ = poller.delete(l.as_raw_fd());
                }
                // Idle connections close immediately; busy ones flush
                // their pipeline first.
                let idle: Vec<u64> = conns
                    .iter()
                    .filter(|(_, c)| c.slots.is_empty() && c.write_buf.len() == c.write_pos)
                    .map(|(&t, _)| t)
                    .collect();
                for token in idle {
                    close_conn(&poller, &mut conns, token);
                }
                for conn in conns.values_mut() {
                    conn.stop_reading = true;
                    conn.close_after_flush = true;
                }
            }
            if (conns.is_empty() && inflight.is_empty())
                || drain_deadline.is_some_and(|d| Instant::now() >= d)
            {
                return;
            }
        }

        let timed = !inflight.is_empty() || conns.values().any(Connection::timed);
        let timeout_ms = if draining {
            10
        } else if timed {
            TICK_MS
        } else {
            IDLE_MS
        };
        let Ok(n) = poller.wait(&mut events, timeout_ms) else { return };

        for event in events.iter().take(n) {
            let (token, bits) = (event.token(), event.events());
            match token {
                TOKEN_LISTENER => accept_ready(
                    &state,
                    &poller,
                    listener.as_ref(),
                    loop_idx,
                    &mut conns,
                    &mut next_token,
                    &shared,
                    &mut inflight,
                ),
                TOKEN_WAKER => shared.waker.drain(),
                token => {
                    if bits & (EPOLLERR | EPOLLHUP) != 0 {
                        close_conn(&poller, &mut conns, token);
                        continue;
                    }
                    if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
                        conn_readable(
                            &state,
                            &poller,
                            &shared,
                            &mut conns,
                            &mut inflight,
                            &mut next_token,
                            token,
                        );
                    }
                    if bits & EPOLLOUT != 0 {
                        if let Some(conn) = conns.get_mut(&token) {
                            if !try_flush(conn) {
                                close_conn(&poller, &mut conns, token);
                            }
                        }
                    }
                }
            }
        }

        // Handed-off connections from the accepting loop.
        let incoming: Vec<TcpStream> =
            shared.incoming.lock().unwrap_or_else(|e| e.into_inner()).drain(..).collect();
        for stream in incoming {
            if state.draining() {
                continue; // dropped: refusing new work mid-drain
            }
            register_conn(
                &state,
                &poller,
                &shared,
                &mut conns,
                &mut inflight,
                &mut next_token,
                stream,
            );
        }

        // Completed async predicts.
        let done: Vec<u64> =
            shared.completions.lock().unwrap_or_else(|e| e.into_inner()).drain(..).collect();
        for token in done {
            // Unknown tokens are fine: a 429'd request's stray fragments
            // (other-shard submits that preceded the failing one), or a
            // predict the timeout tick already resolved.
            if let Some(flight) = inflight.remove(&token) {
                let (conn_token, wire) = resolve_inflight(&state, flight, false);
                deliver(&poller, &mut conns, conn_token, token, wire);
            }
        }

        // Timed bounds: in-flight waits, read budgets, write stalls.
        let now = Instant::now();
        let expired: Vec<u64> =
            inflight.iter().filter(|(_, f)| now >= f.timeout_at).map(|(&t, _)| t).collect();
        for token in expired {
            let Some(flight) = inflight.remove(&token) else { continue };
            let (conn_token, wire) = resolve_inflight(&state, flight, true);
            deliver(&poller, &mut conns, conn_token, token, wire);
        }
        let budget = state.read_limits.read_budget;
        let write_timeout = Duration::from_micros(state.config.write_timeout_us);
        let cut: Vec<u64> = conns
            .iter()
            .filter(|(_, c)| {
                let read_overdue = !budget.is_zero()
                    && c.armed_at.is_some_and(|armed| now.duration_since(armed) >= budget);
                let write_stalled = !write_timeout.is_zero()
                    && c.write_pos < c.write_buf.len()
                    && now.duration_since(c.last_write_progress) >= write_timeout;
                read_overdue || write_stalled
            })
            .map(|(&t, _)| t)
            .collect();
        for token in cut {
            // Slow-loris or stalled reader: the request never finished
            // arriving (or the client never drained) within its budget.
            edge_obs::counter!("serve.read.timeouts").inc(1);
            close_conn(&poller, &mut conns, token);
        }
    }
}

/// Accepts until the listener would block, handing connections off
/// round-robin across the loop pool.
#[allow(clippy::too_many_arguments)]
fn accept_ready(
    state: &Arc<ServerState>,
    poller: &Poller,
    listener: Option<&TcpListener>,
    loop_idx: usize,
    conns: &mut HashMap<u64, Connection>,
    next_token: &mut u64,
    shared: &Arc<LoopShared>,
    inflight: &mut HashMap<u64, InFlight>,
) {
    let Some(listener) = listener else { return };
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                edge_obs::counter!("serve.connections").inc(1);
                // Fault hook on the accept path: an injected error drops
                // the connection before any request is read.
                if edge_faults::enabled() && edge_faults::check("serve.accept").is_err() {
                    edge_obs::counter!("serve.accept.failures").inc(1);
                    drop(stream);
                    continue;
                }
                let target = state.next_loop.fetch_add(1, Ordering::Relaxed) % state.loops.len();
                if target == loop_idx {
                    register_conn(state, poller, shared, conns, inflight, next_token, stream);
                } else {
                    state.loops[target]
                        .incoming
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(stream);
                    state.loops[target].waker.wake();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
}

/// Registers a connection with this loop and performs the initial read
/// (its first readable edge may predate registration).
fn register_conn(
    state: &ServerState,
    poller: &Poller,
    shared: &Arc<LoopShared>,
    conns: &mut HashMap<u64, Connection>,
    inflight: &mut HashMap<u64, InFlight>,
    next_token: &mut u64,
    stream: TcpStream,
) {
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let token = *next_token;
    *next_token += 1;
    if poller.add(stream.as_raw_fd(), token, interest_rw()).is_err() {
        return;
    }
    conns.insert(token, Connection::new(stream));
    conn_readable(state, poller, shared, conns, inflight, next_token, token);
}

/// Removes and drops a connection (closing its fd). Any in-flight
/// predicts pointed at it finish later and simply find no connection.
fn close_conn(poller: &Poller, conns: &mut HashMap<u64, Connection>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        let _ = poller.delete(conn.stream.as_raw_fd());
    }
}

/// Hands a completed async response to its connection's pipeline slot
/// and flushes whatever became writable.
fn deliver(
    poller: &Poller,
    conns: &mut HashMap<u64, Connection>,
    conn_token: u64,
    pending_token: u64,
    wire: Vec<u8>,
) {
    let Some(conn) = conns.get_mut(&conn_token) else { return };
    for slot in conn.slots.iter_mut() {
        if matches!(slot, Slot::Waiting(t) if *t == pending_token) {
            *slot = Slot::Ready(wire);
            break;
        }
    }
    if !try_flush(conn) {
        close_conn(poller, conns, conn_token);
    }
}

/// Drains the socket, parses every complete pipelined request, and
/// flushes. Closes the connection on protocol or transport failure.
fn conn_readable(
    state: &ServerState,
    poller: &Poller,
    shared: &Arc<LoopShared>,
    conns: &mut HashMap<u64, Connection>,
    inflight: &mut HashMap<u64, InFlight>,
    next_token: &mut u64,
    token: u64,
) {
    let Some(conn) = conns.get_mut(&token) else { return };
    // Edge-triggered: read to WouldBlock, every time.
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                if !conn.stop_reading {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                } // else: discard bytes after close was decided
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                close_conn(poller, conns, token);
                return;
            }
        }
    }

    // Parse every complete request sitting in the buffer, answering (or
    // admitting) each in arrival order.
    let draining = state.draining();
    loop {
        let Some(conn) = conns.get_mut(&token) else { return };
        if conn.stop_reading || conn.read_buf.is_empty() {
            if conn.read_buf.is_empty() {
                conn.armed_at = None;
            }
            break;
        }
        match parse_buffered(&conn.read_buf, &state.read_limits) {
            ParseStatus::Partial => {
                // First byte of an incomplete request arms the slow-loris
                // budget; it stays armed until this request completes.
                if conn.armed_at.is_none() {
                    conn.armed_at = Some(Instant::now());
                }
                if conn.read_buf.len() > state.read_limits.max_body_bytes + HEADER_SLACK {
                    // Unbounded header/request-line growth: typed close.
                    let body = simple_object(&[("error", "bad_request")]);
                    respond_and_close(conn, 400, &body);
                } else if conn.read_closed {
                    // EOF mid-request: framing is gone and no request
                    // exists to answer, so close silently once the
                    // pipeline flushes.
                    conn.stop_reading = true;
                    conn.close_after_flush = true;
                }
                break;
            }
            ParseStatus::Complete { req, consumed } => {
                conn.read_buf.drain(..consumed);
                // Budget re-arms fresh for a next pipelined request
                // already sitting in the buffer, and disarms when idle.
                conn.armed_at = (!conn.read_buf.is_empty()).then(Instant::now);
                let keep_alive = req.keep_alive && !draining;
                if !keep_alive {
                    conn.stop_reading = true;
                    conn.close_after_flush = true;
                }
                match dispatch_request(state, shared, inflight, next_token, token, req, keep_alive)
                {
                    Outcome::Ready(wire) => {
                        // Re-borrow: dispatch had exclusive use of the maps.
                        let Some(conn) = conns.get_mut(&token) else { return };
                        conn.queue_reply(wire);
                    }
                    Outcome::Pending(pending_token) => {
                        let Some(conn) = conns.get_mut(&token) else { return };
                        conn.slots.push_back(Slot::Waiting(pending_token));
                    }
                }
            }
            ParseStatus::TooLarge => {
                // The oversize body was never read, so framing is gone:
                // answer 413 and close.
                edge_obs::counter!("serve.body.too_large").inc(1);
                request_counter("other", 413).inc(1);
                let body = simple_object(&[("error", "payload_too_large")]);
                respond_and_close(conn, 413, &body);
                break;
            }
            ParseStatus::Bad(_) => {
                // Torn/garbage framing still gets a typed status before
                // the connection drops.
                let body = simple_object(&[("error", "bad_request")]);
                respond_and_close(conn, 400, &body);
                break;
            }
        }
    }

    let Some(conn) = conns.get_mut(&token) else { return };
    if conn.read_closed && conn.read_buf.is_empty() && !conn.slots.is_empty() {
        // Half-closed client with answers still owed: flush then close.
        conn.close_after_flush = true;
    }
    if conn.read_closed && conn.slots.is_empty() && conn.write_buf.len() == conn.write_pos {
        close_conn(poller, conns, token);
        return;
    }
    if let Some(conn) = conns.get_mut(&token) {
        if !try_flush(conn) {
            close_conn(poller, conns, token);
        }
    }
}

/// Queues a parse-level error response (no request was framed, so no
/// request id is minted) and marks the connection for close.
fn respond_and_close(conn: &mut Connection, status: u16, body: &[u8]) {
    let mut wire = Vec::with_capacity(body.len() + 128);
    let _ = write_response_with(&mut wire, status, "application/json", &[], body, false);
    conn.queue_reply(wire);
    conn.stop_reading = true;
    conn.close_after_flush = true;
    conn.read_buf.clear();
    conn.armed_at = None;
}

/// Moves ready responses onto the wire, preserving pipeline order.
/// Returns false when the connection should close (fatal write error, or
/// flush finished on a closing connection).
fn try_flush(conn: &mut Connection) -> bool {
    loop {
        if conn.write_pos == conn.write_buf.len() {
            conn.write_buf.clear();
            conn.write_pos = 0;
            // Promote the contiguous run of in-order ready responses; a
            // Waiting head blocks everything behind it (pipelining is
            // answered strictly in request order).
            while matches!(conn.slots.front(), Some(Slot::Ready(_))) {
                let Some(Slot::Ready(bytes)) = conn.slots.pop_front() else { unreachable!() };
                conn.write_buf.extend_from_slice(&bytes);
            }
            if conn.write_buf.is_empty() {
                break;
            }
        }
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return false,
            Ok(n) => {
                conn.write_pos += n;
                conn.last_write_progress = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    let flushed = conn.slots.is_empty() && conn.write_pos == conn.write_buf.len();
    !(flushed && conn.close_after_flush)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stage_that_ran_is_counted_even_at_zero_micros() {
        let _lease = edge_obs::metrics_lease();
        let cells: [Histogram; N_STAGES] = Default::default();
        let hists: [&Histogram; N_STAGES] = std::array::from_fn(|i| &cells[i]);
        let mut stats = PredictStats::default();
        stats.stage_us[STAGE_PARSE] = Some(0);
        stats.stage_us[STAGE_BATCH] = Some(0);
        stats.stage_us[STAGE_INFERENCE] = Some(7);
        record_stages(&hists, &stats);
        let counts: Vec<u64> = cells.iter().map(Histogram::count).collect();
        let mut expected = [0; N_STAGES];
        for stage in [STAGE_PARSE, STAGE_BATCH, STAGE_INFERENCE] {
            expected[stage] = 1;
        }
        assert_eq!(counts, expected, "ran stages count once each; the rest stay empty");

        // A guard that ends at once still records its (zero) stage.
        let mut slot = None;
        drop(StageGuard::start(&mut slot, SpanContext::default(), "serve.stage.test"));
        assert!(slot.is_some());
    }
}
