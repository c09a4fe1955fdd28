//! # edge-obs: observability for the EDGE pipeline
//!
//! A small, dependency-light observability layer shared by every crate in the
//! workspace. It has three pillars:
//!
//! * **Metrics** ([`metrics`], [`labels`]): one global registry of metric
//!   families — counters, gauges, and log-scale histograms, one cell per
//!   label set, an unlabeled metric being its family's empty-label cell.
//!   Names that would expose as the same OpenMetrics family are refused at
//!   registration. The hot path is lock-free — an increment is a
//!   relaxed atomic add on a handle cached at the call site via the
//!   [`counter!`] / [`gauge!`] / [`histogram!`] macros — and compiles down to
//!   a single branch on a relaxed load when metrics are disabled (the
//!   default). Snapshots ([`metrics::snapshot`]) are cheap, serializable, and
//!   [`metrics::reset`] rewinds everything to zero between benchmark runs.
//!
//! * **Tracing** ([`trace`]): RAII span timers ([`span`]) that record a
//!   thread-aware in-memory trace. Each span knows its parent (per-thread
//!   stack), so the trace can be dumped either as JSONL (one span per line,
//!   [`trace::dump_jsonl`]) or aggregated into a self-time / total-time
//!   profile table ([`trace::profile`], [`trace::Profile::render`]) that
//!   attributes wall time to named phases (`gcn`, `attention`, `mdn`,
//!   `matmul`, `sgns`, ...).
//!
//! * **Training telemetry** ([`telemetry`]): a sink for per-epoch training
//!   records (NLL, per-parameter-group gradient norms, learning rate,
//!   tweets/sec, epoch wall time) fed by `EdgeModel::train` and written as
//!   one JSONL file per run under `results/telemetry/`.
//!
//! All three pillars are **off by default** and enabled explicitly (for
//! example by the CLI's `--trace` / `--metrics-out` flags or the `profile`
//! subcommand), so library code can be instrumented unconditionally without
//! taxing ordinary runs:
//!
//! ```
//! edge_obs::set_metrics_enabled(true);
//! edge_obs::counter!("demo.calls").inc(1);
//! {
//!     edge_obs::set_trace_enabled(true);
//!     let _span = edge_obs::span("demo.phase");
//!     // ... timed work ...
//! }
//! let snap = edge_obs::metrics::snapshot();
//! assert_eq!(snap.counter("demo.calls"), Some(1));
//! ```

pub mod alloc;
pub mod labels;
pub mod metrics;
pub mod openmetrics;
pub mod ring;
pub mod slo;
pub mod telemetry;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricsSnapshot};
pub use ring::{RequestRecord, RequestRing};
pub use slo::{SloConfig, SloStatus, SloTracker};
pub use telemetry::{EpochRecord, TrainTelemetry};
pub use trace::{span, Profile, SpanContext, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);
static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

/// Globally enable or disable metric recording. Disabled recording is a
/// relaxed load + branch (see `crates/bench/benches/obs_overhead.rs`).
pub fn set_metrics_enabled(enabled: bool) {
    METRICS_ENABLED.store(enabled, Ordering::Relaxed);
}

struct LeaseState {
    count: usize,
    prior: bool,
}

static LEASES: Mutex<LeaseState> = Mutex::new(LeaseState { count: 0, prior: false });

/// Enables metrics for as long as the returned lease lives. The first
/// outstanding lease saves the prior global state and enables; dropping
/// the last restores it. Refcounted rather than save/restore so embedded
/// servers running concurrently (the in-process test suites) cannot turn
/// each other's metrics off mid-flight.
#[must_use = "metrics are re-disabled when the lease is dropped"]
pub fn metrics_lease() -> MetricsLease {
    let mut state = LEASES.lock().unwrap_or_else(|e| e.into_inner());
    if state.count == 0 {
        state.prior = metrics_enabled();
        set_metrics_enabled(true);
    }
    state.count += 1;
    MetricsLease { _priv: () }
}

/// RAII handle returned by [`metrics_lease`].
pub struct MetricsLease {
    _priv: (),
}

impl Drop for MetricsLease {
    fn drop(&mut self) {
        let mut state = LEASES.lock().unwrap_or_else(|e| e.into_inner());
        state.count -= 1;
        if state.count == 0 {
            set_metrics_enabled(state.prior);
        }
    }
}

#[inline(always)]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable span tracing.
pub fn set_trace_enabled(enabled: bool) {
    TRACE_ENABLED.store(enabled, Ordering::Relaxed);
}

#[inline(always)]
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Writes progress lines to stderr so stdout stays machine-parseable.
/// The single chokepoint for human-facing progress output across the CLI and
/// bench binaries.
pub fn progress(msg: std::fmt::Arguments<'_>) {
    eprintln!("{msg}");
}

/// Progress reporting macro: formats like `println!` but writes to stderr.
#[macro_export]
macro_rules! progress {
    ($($arg:tt)*) => {
        $crate::progress(format_args!($($arg)*))
    };
}
