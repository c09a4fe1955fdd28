//! # edge-serve — batched, hot-reloadable inference serving
//!
//! An HTTP/1.1 inference server for trained EDGE models, built directly
//! on `std::net` plus raw `epoll` syscalls ([`reactor`]; the workspace is
//! offline — see `shims/README.md` for the no-external-crates policy).
//! Endpoints:
//!
//! | endpoint | method | purpose |
//! |---|---|---|
//! | `/predict` | POST | single (`{"text": ...}`) or batch (`{"texts": [...]}`) prediction |
//! | `/healthz` | GET | liveness, current model generation, SLO budget (degrades when burning) |
//! | `/metrics` | GET | OpenMetrics exposition of the `edge-obs` registry, with p50/p95/p99 per histogram |
//! | `/reload` | POST | atomically swap in a new model artifact (`{"path": ...}`) |
//! | `/debug/requests` | GET | the last N per-request records (status, batch, per-stage micros) |
//!
//! Every response carries an `X-Request-Id` header (echoing the client's,
//! if sent), and the same id tags every span the request produced — on the
//! event loop, the scheduler, and the `edge-par` workers — so one
//! request can be reconstructed end-to-end from the JSONL trace.
//!
//! ## Architecture
//!
//! Connections are multiplexed by a small pool of **event loops**
//! ([`reactor`], [`server`]): each loop thread owns one edge-triggered
//! `epoll` instance and a set of non-blocking connection state machines
//! supporting HTTP/1.1 keep-alive *and pipelining* (responses strictly in
//! request order). An idle keep-alive connection is one fd in an interest
//! list — 10k+ of them cost zero threads. Wakeups between threads use
//! `eventfd`: batch completions and `SIGTERM` both unpark a sleeping
//! loop in microseconds.
//!
//! A server can load **multiple model shards** (one per metro, say) behind
//! an entity **router** ([`router`]): each text's resolved entity set
//! picks a shard — by gazetteer affinity when one shard uniquely knows
//! the mentioned entities, by consistent hashing otherwise — and every
//! shard runs its own micro-batch queue, scheduler replicas, response
//! cache partition, SLO tracker, and brownout ladder. Per-shard state is
//! visible as `serve_shard_*` labeled metric families.
//!
//! Texts flow through a micro-batching scheduler ([`batch`]): the event
//! loop resolves entities, consults the shard's response cache
//! ([`cache`]), and enqueues the misses into its bounded queue, which
//! scheduler threads drain in batches of up to `max_batch`, dispatched
//! through the model's order-preserving `locate_batch`. Responses are
//! **bit-identical** to direct [`edge_core::Predictor`] calls: batching,
//! caching, routing, and the wire format never change a single float bit
//! (the JSON writer emits shortest-round-trip decimals).
//!
//! Overload is explicit: a `POST` whose texts do not all fit in the
//! queue is shed with `429` and counted in `serve.shed`. Hot reload is
//! atomic: the artifact is checksum-verified *before* the swap, in-flight
//! batches finish on the model they started with, and a corrupt artifact
//! leaves the old model serving. SIGTERM (CLI mode) drains gracefully.
//!
//! ## Robustness
//!
//! Every request carries a deadline budget ([`deadline`]): the client's
//! `X-Deadline-Us` header, or the server default. The budget bounds queue
//! admission, batch flush, inference, and the final wait; an expired
//! request answers a typed `504 deadline_exceeded`, and queued jobs past
//! budget are evicted rather than flushed. Socket read budgets bound
//! slow-loris senders (the request must finish arriving within the budget
//! once its first byte lands) and write timeouts bound stalled readers.
//! Oversized bodies are refused with `413` before a byte of the body is
//! read.
//!
//! Under sustained overload a load controller ([`brownout`]) walks a
//! degradation ladder — `Full → CacheOnly → PriorOnly → Shed` — with
//! hysteresis, trading answer quality for survival, and walks back up
//! when the pressure clears. `/reload` sits behind a circuit breaker
//! ([`breaker`]) so a corrupt-artifact storm cannot churn the serving
//! path. The [`client`] retries idempotent requests with capped,
//! decorrelated-jitter backoff, honoring `Retry-After`.

pub mod batch;
pub mod breaker;
pub mod brownout;
pub mod cache;
pub mod client;
pub mod config;
pub mod deadline;
pub mod http;
pub mod json;
mod metrics;
pub mod reactor;
pub mod router;
pub mod server;
pub mod slot;

pub use brownout::Mode;
pub use cache::{CacheKey, ResponseCache};
pub use client::{Client, RetryPolicy};
pub use config::ServeConfig;
pub use deadline::Deadline;
pub use router::{HashRing, Router};
pub use server::Server;
pub use slot::ModelSlot;
