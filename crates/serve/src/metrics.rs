//! Pre-resolved labeled metric handles for the serving hot path.
//!
//! Resolving a label combination takes the family's registry lock, so the
//! handlers never do it per request: every cell the server can touch is
//! resolved once into a static grid, and steady-state recording is an
//! array index plus one relaxed atomic op — the same lock-free contract
//! as the unlabeled `counter!`/`histogram!` macros.

use std::sync::OnceLock;

use edge_obs::ring::{N_STAGES, STAGE_NAMES};
use edge_obs::{Counter, Gauge, Histogram};

/// Endpoint labels in grid order; `other` catches unknown paths.
pub(crate) const ENDPOINTS: [&str; 6] =
    ["predict", "healthz", "metrics", "reload", "debug_requests", "other"];

/// Statuses the server can actually emit; anything else lands in `other`.
const STATUSES: [(u16, &str); 10] = [
    (200, "200"),
    (400, "400"),
    (404, "404"),
    (405, "405"),
    (413, "413"),
    (422, "422"),
    (429, "429"),
    (500, "500"),
    (503, "503"),
    (504, "504"),
];

/// The `serve_http_requests{endpoint,status}` cell for a combination.
pub(crate) fn request_counter(endpoint: &'static str, status: u16) -> &'static Counter {
    static GRID: OnceLock<Vec<&'static Counter>> = OnceLock::new();
    let grid = GRID.get_or_init(|| {
        let family = edge_obs::labels::counter_family(
            "serve_http_requests",
            "HTTP requests served, by endpoint and response status.",
        );
        let mut cells = Vec::with_capacity(ENDPOINTS.len() * (STATUSES.len() + 1));
        for endpoint in ENDPOINTS {
            for (_, status) in STATUSES {
                cells.push(family.with(&[("endpoint", endpoint), ("status", status)]));
            }
            cells.push(family.with(&[("endpoint", endpoint), ("status", "other")]));
        }
        cells
    });
    let e = ENDPOINTS.iter().position(|&ep| ep == endpoint).unwrap_or(ENDPOINTS.len() - 1);
    let s = STATUSES.iter().position(|&(code, _)| code == status).unwrap_or(STATUSES.len());
    grid[e * (STATUSES.len() + 1) + s]
}

/// Per-stage latency cells (`serve_stage_us{stage=...}`), indexed like
/// [`STAGE_NAMES`].
pub(crate) fn stage_hists() -> &'static [&'static Histogram; N_STAGES] {
    static CELLS: OnceLock<[&'static Histogram; N_STAGES]> = OnceLock::new();
    CELLS.get_or_init(|| {
        let family = edge_obs::labels::histogram_family(
            "serve_stage_us",
            "Per-request pipeline stage latency in microseconds.",
        );
        std::array::from_fn(|i| family.with(&[("stage", STAGE_NAMES[i])]))
    })
}

/// `serve_predict_texts{batch_path}`: whether a text was answered inline
/// (abstention / cache hit) or went through the batched model path.
pub(crate) fn batch_path_counter(batched: bool) -> &'static Counter {
    static CELLS: OnceLock<[&'static Counter; 2]> = OnceLock::new();
    let cells = CELLS.get_or_init(|| {
        let family = edge_obs::labels::counter_family(
            "serve_predict_texts",
            "Predict texts answered, by path (inline vs batched).",
        );
        [family.with(&[("batch_path", "inline")]), family.with(&[("batch_path", "batched")])]
    });
    cells[batched as usize]
}

/// Brownout mode names in ladder order, shared by the labeled families
/// below and [`crate::brownout::Mode::name`].
const MODES: [&str; 4] = ["full", "cache_only", "prior_only", "shed"];

fn mode_index(mode: &str) -> usize {
    MODES.iter().position(|&m| m == mode).unwrap_or(0)
}

/// `serve_brownout_rejections{mode}`: predicts rejected (503) because the
/// load controller was in this mode.
pub(crate) fn mode_rejection_counter(mode: &'static str) -> &'static Counter {
    static CELLS: OnceLock<[&'static Counter; 4]> = OnceLock::new();
    let cells = CELLS.get_or_init(|| {
        let family = edge_obs::labels::counter_family(
            "serve_brownout_rejections",
            "Predict requests rejected with 503 by brownout mode.",
        );
        std::array::from_fn(|i| family.with(&[("mode", MODES[i])]))
    });
    cells[mode_index(mode)]
}

/// `serve_mode_transitions{to}`: load-controller transitions into a mode.
pub(crate) fn mode_transition_counter(to: &'static str) -> &'static Counter {
    static CELLS: OnceLock<[&'static Counter; 4]> = OnceLock::new();
    let cells = CELLS.get_or_init(|| {
        let family = edge_obs::labels::counter_family(
            "serve_mode_transitions",
            "Brownout load-controller transitions, by destination mode.",
        );
        std::array::from_fn(|i| family.with(&[("to", MODES[i])]))
    });
    cells[mode_index(to)]
}

/// Every per-shard cell, resolved once at server start (the family keeps
/// its own copy of the shard name, so the hot path stays an array-free
/// pointer deref). A second server with the same shard names resolves to
/// the same cells.
///
/// The `serve_shard_request_us` histogram is what gives each shard its
/// own `_p50/_p95/_p99` estimate gauges in the OpenMetrics exposition —
/// the per-shard p99 the bench and `edge-cli top` report.
pub(crate) struct ShardCells {
    /// `serve_shard_requests{shard}`: predict requests this shard served.
    pub requests: &'static Counter,
    /// `serve_shard_texts{shard}`: predict texts routed to this shard.
    pub texts: &'static Counter,
    /// `serve_shard_request_us{shard}`: predict latency per shard.
    pub request_us: &'static Histogram,
    /// Scrape-time gauges mirroring the shard's queue/cache/SLO state.
    pub queue_depth: &'static Gauge,
    pub shed_rate: &'static Gauge,
    pub cache_hits: &'static Gauge,
    pub cache_misses: &'static Gauge,
    pub mode: &'static Gauge,
    pub generation: &'static Gauge,
}

/// Resolves the full cell set for one shard label.
pub(crate) fn shard_cells(shard: &str) -> ShardCells {
    use edge_obs::labels::{counter_family, gauge_family, histogram_family};
    let label = &[("shard", shard)];
    let gauge = |name, help| gauge_family(name, help).with(label);
    ShardCells {
        requests: counter_family(
            "serve_shard_requests",
            "Predict requests served, by model shard.",
        )
        .with(label),
        texts: counter_family("serve_shard_texts", "Predict texts routed, by model shard.")
            .with(label),
        request_us: histogram_family(
            "serve_shard_request_us",
            "Predict request latency in microseconds, by model shard.",
        )
        .with(label),
        queue_depth: gauge("serve_shard_queue_depth", "Micro-batch queue depth, by model shard."),
        shed_rate: gauge("serve_shard_shed_rate", "Rolling shed fraction, by model shard."),
        cache_hits: gauge("serve_shard_cache_hits", "Response-cache hits, by model shard."),
        cache_misses: gauge("serve_shard_cache_misses", "Response-cache misses, by model shard."),
        mode: gauge(
            "serve_shard_mode",
            "Brownout ladder position (0=full .. 3=shed), by model shard.",
        ),
        generation: gauge("serve_shard_generation", "Loaded model generation, by model shard."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_resolve_known_and_unknown_cells() {
        let a = request_counter("predict", 200);
        let b = request_counter("predict", 200);
        assert!(std::ptr::eq(a, b), "same combination must share a cell");
        // Unknown status falls into the endpoint's `other` column.
        let odd = request_counter("predict", 418);
        assert!(!std::ptr::eq(a, odd));
        assert!(!std::ptr::eq(a, request_counter("predict", 504)));
        assert_eq!(stage_hists().len(), N_STAGES);
        assert!(!std::ptr::eq(batch_path_counter(false), batch_path_counter(true)));
        assert!(!std::ptr::eq(mode_rejection_counter("shed"), mode_rejection_counter("full")));
        assert!(std::ptr::eq(mode_transition_counter("full"), mode_transition_counter("full")));
    }

    #[test]
    fn shard_cells_are_stable_per_label() {
        let a = shard_cells("nyma");
        // A name built at runtime, as a second server start would pass it.
        let b = shard_cells(&String::from("nyma"));
        let other = shard_cells("lama");
        assert!(std::ptr::eq(a.requests, b.requests));
        assert!(std::ptr::eq(a.request_us, b.request_us));
        assert!(!std::ptr::eq(a.requests, other.requests));
        assert!(!std::ptr::eq(a.mode, other.mode));
    }
}
