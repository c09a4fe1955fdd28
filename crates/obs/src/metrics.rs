//! Global metrics registry: counters, gauges, and log-scale histograms.
//!
//! Handles are `&'static` references to atomics; the [`counter!`](crate::counter!),
//! [`gauge!`](crate::gauge!), and [`histogram!`](crate::histogram!) macros cache the registry lookup in a
//! call-site `OnceLock`, so steady-state recording never touches a lock.

use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of histogram buckets. Bucket `i` covers values in
/// `[2^(i - UNDERFLOW_EXP), 2^(i - UNDERFLOW_EXP + 1))`; the first and last
/// buckets absorb under- and overflow.
pub const N_BUCKETS: usize = 64;
/// Exponent offset: bucket 0's upper edge is `2^-32`.
const UNDERFLOW_EXP: i32 = 32;

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    #[inline(always)]
    pub fn inc(&self, by: u64) {
        if crate::metrics_enabled() {
            self.value.fetch_add(by, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins floating point level (stored as `f64` bits).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge { bits: AtomicU64::new(0f64.to_bits()) }
    }
}

impl Gauge {
    #[inline(always)]
    pub fn set(&self, value: f64) {
        if crate::metrics_enabled() {
            self.bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    pub(crate) fn reset(&self) {
        self.bits.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// Log-scale (base-2) histogram over positive `f64` values.
///
/// Recording is a relaxed `fetch_add` on one bucket plus count/sum updates;
/// non-positive and non-finite values land in the underflow/overflow buckets
/// rather than being dropped, so `count` always equals the number of
/// `record` calls while metrics were enabled.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    /// Sum of recorded values, accumulated via CAS on the f64 bit pattern.
    sum_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

/// Bucket index for a value: `floor(log2(v))` shifted so bucket 0 is the
/// underflow bin. Exposed for the bucketing-edge tests.
pub fn bucket_index(value: f64) -> usize {
    if value <= 0.0 || !value.is_finite() {
        // NaN fails both `<= 0.0` and `is_finite`, landing in overflow.
        return if value.is_finite() { 0 } else { N_BUCKETS - 1 };
    }
    // log2 via the exponent field is exact for normal floats and immune to
    // libm rounding at bucket edges (e.g. log2(8.0) = 2.999999...).
    let exp = if value >= f64::MIN_POSITIVE {
        ((value.to_bits() >> 52) & 0x7ff) as i32 - 1023
    } else {
        // Subnormals: all far below bucket 0's edge anyway.
        -1023
    };
    (exp + UNDERFLOW_EXP).clamp(0, N_BUCKETS as i32 - 1) as usize
}

/// Inclusive lower edge of bucket `i` (`0.0` for the underflow bucket).
pub fn bucket_lower_edge(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        2f64.powi(i as i32 - UNDERFLOW_EXP)
    }
}

impl Histogram {
    #[inline(always)]
    pub fn record(&self, value: f64) {
        if !crate::metrics_enabled() {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        if value.is_finite() {
            // CAS loop on the f64 bit pattern; contention here is rare
            // because recording sites are coarse (per-op, not per-element).
            let mut cur = self.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(cur) + value).to_bits();
                match self.sum_bits.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((bucket_lower_edge(i), n))
                })
                .collect(),
        }
    }
}

/// Point-in-time copy of one histogram: `(lower_edge, count)` per non-empty
/// bucket.
#[derive(Debug, Clone, Serialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: f64,
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated value at quantile `q` (in `[0, 1]`): walk the cumulative
    /// bucket counts to the bucket where the rank falls, then interpolate
    /// linearly inside that bucket. A deterministic function of the bucket
    /// counts, so concurrent and serial recordings of the same values
    /// estimate identical quantiles.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for &(lower, n) in &self.buckets {
            let next = cum + n;
            if next as f64 >= rank {
                // Bucket 0 reports lower edge 0.0; its true upper edge is
                // bucket 1's lower edge.
                let upper = if lower == 0.0 { bucket_lower_edge(1) } else { lower * 2.0 };
                let within = (rank - cum as f64) / n as f64;
                return lower + (upper - lower) * within.clamp(0.0, 1.0);
            }
            cum = next;
        }
        self.buckets.last().map_or(0.0, |&(lower, _)| lower * 2.0)
    }

    /// `(p50, p95, p99)` — the quantiles the OpenMetrics exposition carries.
    pub fn percentiles(&self) -> (f64, f64, f64) {
        (self.quantile(0.50), self.quantile(0.95), self.quantile(0.99))
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Name → metric maps. `Box::leak` gives out `&'static` handles so the hot
/// path after the first lookup is a direct atomic op with no locking.
#[derive(Default)]
struct Registry {
    counters: Mutex<HashMap<&'static str, &'static Counter>>,
    gauges: Mutex<HashMap<&'static str, &'static Gauge>>,
    histograms: Mutex<HashMap<&'static str, &'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Look up or create the counter `name`. Prefer the [`counter!`](crate::counter!) macro, which
/// caches this lookup at the call site.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut map = registry().counters.lock().unwrap();
    map.entry(name).or_insert_with(|| Box::leak(Box::default()))
}

/// Look up or create the gauge `name`. Prefer the [`gauge!`](crate::gauge!) macro.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut map = registry().gauges.lock().unwrap();
    map.entry(name).or_insert_with(|| Box::leak(Box::default()))
}

/// Look up or create the histogram `name`. Prefer the [`histogram!`](crate::histogram!) macro.
pub fn histogram(name: &'static str) -> &'static Histogram {
    let mut map = registry().histograms.lock().unwrap();
    map.entry(name).or_insert_with(|| Box::leak(Box::default()))
}

/// Call-site-cached counter handle: `counter!("tensor.matmul.calls").inc(1)`.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// Call-site-cached gauge handle.
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Gauge> = ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

/// Call-site-cached histogram handle.
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static HANDLE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::histogram($name))
    }};
}

/// Point-in-time copy of every registered metric, sorted by name. Labeled
/// families ([`crate::labels`]) ride along so one snapshot covers the whole
/// registry.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
    pub counter_families: Vec<crate::labels::CounterFamilySnapshot>,
    pub gauge_families: Vec<crate::labels::GaugeFamilySnapshot>,
    pub histogram_families: Vec<crate::labels::HistogramFamilySnapshot>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Value of one labeled counter cell (exact label match).
    pub fn labeled_counter(&self, family: &str, labels: &[(&str, &str)]) -> Option<u64> {
        self.counter_families
            .iter()
            .find(|f| f.name == family)
            .and_then(|f| f.cells.iter().find(|c| label_match(&c.labels, labels)).map(|c| c.value))
    }

    /// One labeled histogram cell (exact label match).
    pub fn labeled_histogram(
        &self,
        family: &str,
        labels: &[(&str, &str)],
    ) -> Option<&HistogramSnapshot> {
        self.histogram_families
            .iter()
            .find(|f| f.name == family)
            .and_then(|f| f.cells.iter().find(|c| label_match(&c.labels, labels)).map(|c| &c.value))
    }

    /// Human-readable one-metric-per-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("counter   {name:<44} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("gauge     {name:<44} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {name:<44} count={} sum={:.4} mean={:.6}\n",
                h.count,
                h.sum,
                h.mean()
            ));
        }
        let labels_of = |labels: &[(String, String)]| {
            let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
            format!("{{{}}}", pairs.join(","))
        };
        for fam in &self.counter_families {
            for cell in &fam.cells {
                let name = format!("{}{}", fam.name, labels_of(&cell.labels));
                out.push_str(&format!("counter   {name:<44} {}\n", cell.value));
            }
        }
        for fam in &self.gauge_families {
            for cell in &fam.cells {
                let name = format!("{}{}", fam.name, labels_of(&cell.labels));
                out.push_str(&format!("gauge     {name:<44} {}\n", cell.value));
            }
        }
        for fam in &self.histogram_families {
            for cell in &fam.cells {
                let name = format!("{}{}", fam.name, labels_of(&cell.labels));
                let h = &cell.value;
                out.push_str(&format!(
                    "histogram {name:<44} count={} sum={:.4} mean={:.6}\n",
                    h.count,
                    h.sum,
                    h.mean()
                ));
            }
        }
        out
    }
}

fn label_match(cell: &[(String, String)], want: &[(&str, &str)]) -> bool {
    cell.len() == want.len()
        && cell.iter().zip(want).all(|((ck, cv), (wk, wv))| ck == wk && cv == wv)
}

/// Snapshot every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let mut snap = MetricsSnapshot::default();
    for (name, c) in reg.counters.lock().unwrap().iter() {
        snap.counters.push((name.to_string(), c.get()));
    }
    for (name, g) in reg.gauges.lock().unwrap().iter() {
        snap.gauges.push((name.to_string(), g.get()));
    }
    for (name, h) in reg.histograms.lock().unwrap().iter() {
        snap.histograms.push((name.to_string(), h.snapshot()));
    }
    snap.counters.sort();
    snap.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    snap.histograms.sort_by(|a, b| a.0.cmp(&b.0));
    crate::labels::snapshot_into(&mut snap);
    snap
}

/// Zero every registered metric, labeled families included (names stay
/// registered).
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().unwrap().values() {
        c.reset();
    }
    for g in reg.gauges.lock().unwrap().values() {
        g.reset();
    }
    for h in reg.histograms.lock().unwrap().values() {
        h.reset();
    }
    crate::labels::reset_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_powers_of_two() {
        // Exactly-on-edge values land in the bucket whose lower edge they are.
        assert_eq!(bucket_index(1.0), bucket_index(1.5));
        assert_ne!(bucket_index(1.0), bucket_index(2.0));
        assert_eq!(bucket_index(2.0), bucket_index(3.999));
        assert_eq!(bucket_lower_edge(bucket_index(1.0)), 1.0);
        assert_eq!(bucket_lower_edge(bucket_index(8.0)), 8.0);
        // Degenerate values are absorbed, not dropped.
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::INFINITY), N_BUCKETS - 1);
        assert_eq!(bucket_index(f64::NAN), N_BUCKETS - 1);
        assert_eq!(bucket_index(1e300), N_BUCKETS - 1);
        assert_eq!(bucket_index(1e-300), 0);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        crate::set_metrics_enabled(false);
        let c = counter("test.disabled.counter");
        let before = c.get();
        c.inc(10);
        assert_eq!(c.get(), before);
    }
}
