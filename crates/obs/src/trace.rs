//! RAII span timers with a thread-aware in-memory trace.
//!
//! [`span("name")`](span) pushes onto a per-thread stack and, when the
//! returned [`SpanGuard`] drops, appends a [`SpanRecord`] (with its parent id
//! from the stack) to the global trace buffer. The buffer can be dumped as
//! JSONL ([`dump_jsonl`]) or aggregated into a self-time / total-time
//! [`Profile`] table.
//!
//! Spans also carry a **request id** so a serving-side trace can be sliced
//! per request even when its work hops threads: a handler enters a
//! [`request_scope`], captures its [`SpanContext`] ([`current_context`]),
//! threads it through queues alongside the work, and the thread that picks
//! the work up re-[`adopt`]s it — new spans there parent to the handler's
//! span and inherit its request id. [`record_manual`] appends a span for an
//! interval measured outside any guard (e.g. queue wait).

use serde::Serialize;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One completed span. Times are microseconds relative to the process's
/// first span (so traces from one run share a clock).
#[derive(Debug, Clone, Serialize)]
pub struct SpanRecord {
    pub id: u64,
    /// 0 for root spans.
    pub parent: u64,
    pub name: &'static str,
    /// Arbitrary but stable per-thread number.
    pub thread: u64,
    /// Request id from the enclosing [`request_scope`] / [`adopt`]
    /// (0 outside any request).
    pub request: u64,
    pub start_us: u64,
    pub dur_us: u64,
}

struct TraceState {
    records: Mutex<Vec<SpanRecord>>,
    epoch: Instant,
}

fn state() -> &'static TraceState {
    static STATE: OnceLock<TraceState> = OnceLock::new();
    STATE.get_or_init(|| TraceState { records: Mutex::new(Vec::new()), epoch: Instant::now() })
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stack of open span ids on this thread (for parent attribution).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    /// Request id new spans on this thread are tagged with (0 = none).
    static CURRENT_REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// Mints a process-unique request id (serve mints one per connection
/// request; ids are also usable while tracing is disabled, e.g. for the
/// `X-Request-Id` response header and the request ring).
pub fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
}

/// A portable span context: enough to re-parent work on another thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanContext {
    /// The request this work belongs to (0 = none).
    pub request: u64,
    /// The span id new child spans should parent to (0 = root).
    pub span: u64,
}

/// The context a span started *right now* on this thread would inherit:
/// the current request id and the innermost open span.
pub fn current_context() -> SpanContext {
    SpanContext {
        request: CURRENT_REQUEST.with(Cell::get),
        span: SPAN_STACK.with(|stack| stack.borrow().last().copied().unwrap_or(0)),
    }
}

/// Tags spans opened on this thread with `request` until the guard drops.
#[must_use = "the request scope ends when this guard is dropped"]
pub fn request_scope(request: u64) -> RequestScopeGuard {
    let prev = CURRENT_REQUEST.with(|c| c.replace(request));
    RequestScopeGuard { prev }
}

/// RAII handle returned by [`request_scope`].
pub struct RequestScopeGuard {
    prev: u64,
}

impl Drop for RequestScopeGuard {
    fn drop(&mut self) {
        CURRENT_REQUEST.with(|c| c.set(self.prev));
    }
}

/// Adopts a [`SpanContext`] captured elsewhere: until the guard drops,
/// spans opened here carry the context's request id and parent to its
/// span. `edge-par` wraps pooled tasks in this so worker-thread spans
/// stay attached to the submitting span; a serving event loop adopts a
/// request's context around the model call that answers it. Cheap when
/// tracing is disabled (two thread-local writes).
#[must_use = "the adopted context ends when this guard is dropped"]
pub fn adopt(ctx: SpanContext) -> AdoptGuard {
    let prev_request = CURRENT_REQUEST.with(|c| c.replace(ctx.request));
    let pushed = if crate::trace_enabled() && ctx.span != 0 {
        SPAN_STACK.with(|stack| stack.borrow_mut().push(ctx.span));
        Some(ctx.span)
    } else {
        None
    };
    AdoptGuard { prev_request, pushed }
}

/// RAII handle returned by [`adopt`].
pub struct AdoptGuard {
    prev_request: u64,
    pushed: Option<u64>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if let Some(id) = self.pushed {
            SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                if let Some(pos) = stack.iter().rposition(|&s| s == id) {
                    stack.truncate(pos);
                }
            });
        }
        CURRENT_REQUEST.with(|c| c.set(self.prev_request));
    }
}

/// A span whose lifetime is detached from any thread's span stack: it is
/// opened with [`DetachedSpan::begin`], hands out its [`SpanContext`] for
/// children to [`adopt`] (possibly on other threads), and records itself
/// when dropped or [`finish`](DetachedSpan::finish)ed — from whatever
/// thread that happens on.
///
/// This is what an event-loop server needs for its per-request root span:
/// a [`span`] guard held across an asynchronous wait would sit on the loop
/// thread's stack and mis-parent every other request's spans, while a
/// detached span never touches the stack at all.
#[derive(Debug)]
pub struct DetachedSpan {
    /// 0 when tracing was disabled at `begin` (then drop is a no-op).
    id: u64,
    parent: u64,
    name: &'static str,
    request: u64,
    start: Instant,
}

impl DetachedSpan {
    /// Opens a detached span parented to the calling thread's current
    /// context (like [`span`]), without pushing the thread's span stack.
    #[must_use = "the span ends when this value is dropped"]
    pub fn begin(name: &'static str) -> DetachedSpan {
        let ctx = current_context();
        let id =
            if crate::trace_enabled() { NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed) } else { 0 };
        DetachedSpan { id, parent: ctx.span, name, request: ctx.request, start: Instant::now() }
    }

    /// The context child spans should [`adopt`]: this span's request id and
    /// (when tracing is live) this span's id as their parent.
    pub fn ctx(&self) -> SpanContext {
        SpanContext { request: self.request, span: self.id }
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for DetachedSpan {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = Instant::now();
        let st = state();
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            thread: THREAD_ID.with(|t| *t),
            request: self.request,
            start_us: self.start.saturating_duration_since(st.epoch).as_micros() as u64,
            dur_us: end.saturating_duration_since(self.start).as_micros() as u64,
        };
        st.records.lock().unwrap().push(record);
    }
}

/// Appends a span for an interval measured manually (no guard was open):
/// the caller supplies the parent context and both endpoints. Used for
/// stages like queue wait, which start while one request is parsed and
/// end when a later step, shared by several requests, runs.
pub fn record_manual(name: &'static str, ctx: SpanContext, start: Instant, end: Instant) {
    if !crate::trace_enabled() {
        return;
    }
    let st = state();
    let record = SpanRecord {
        id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
        parent: ctx.span,
        name,
        thread: THREAD_ID.with(|t| *t),
        request: ctx.request,
        start_us: start.saturating_duration_since(st.epoch).as_micros() as u64,
        dur_us: end.saturating_duration_since(start).as_micros() as u64,
    };
    st.records.lock().unwrap().push(record);
}

/// Starts a span; the span ends (and is recorded) when the guard drops.
/// A no-op when tracing is disabled.
#[must_use = "the span ends when this guard is dropped"]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::trace_enabled() {
        return SpanGuard { inner: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    let request = CURRENT_REQUEST.with(Cell::get);
    SpanGuard { inner: Some(OpenSpan { id, parent, name, request, start: Instant::now() }) }
}

struct OpenSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    request: u64,
    start: Instant,
}

/// RAII handle returned by [`span`]; records the span on drop.
pub struct SpanGuard {
    inner: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.inner.take() else { return };
        let end = Instant::now();
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Pop back to (and including) this span: tolerates guards dropped
            // out of order instead of corrupting parent attribution.
            if let Some(pos) = stack.iter().rposition(|&id| id == open.id) {
                stack.truncate(pos);
            }
        });
        let st = state();
        let start_us = open.start.saturating_duration_since(st.epoch).as_micros() as u64;
        let dur_us = end.saturating_duration_since(open.start).as_micros() as u64;
        let record = SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name,
            thread: THREAD_ID.with(|t| *t),
            request: open.request,
            start_us,
            dur_us,
        };
        st.records.lock().unwrap().push(record);
    }
}

/// Copy of the trace buffer, in completion order.
pub fn records() -> Vec<SpanRecord> {
    state().records.lock().unwrap().clone()
}

/// Clear the trace buffer (span ids keep counting).
pub fn reset() {
    state().records.lock().unwrap().clear();
}

/// Serialize the trace as JSONL: one span object per line.
pub fn dump_jsonl() -> String {
    let mut out = String::new();
    for rec in records() {
        out.push_str(&serde_json::to_string(&rec).expect("span serializes"));
        out.push('\n');
    }
    out
}

/// Parse a JSONL trace dump back into records (for round-trip tooling).
/// Returns `None` on any malformed line.
pub fn parse_jsonl(input: &str) -> Option<Vec<ParsedSpanRecord>> {
    input
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| serde_json::from_str(line).ok())
        .collect()
}

/// Owned-name twin of [`SpanRecord`] used when reading traces back in.
#[derive(Debug, Clone, serde::Deserialize, Serialize, PartialEq)]
pub struct ParsedSpanRecord {
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub thread: u64,
    pub request: u64,
    pub start_us: u64,
    pub dur_us: u64,
}

/// Aggregated per-span-name timing statistics.
#[derive(Debug, Clone, Serialize)]
pub struct ProfileRow {
    pub name: String,
    pub calls: u64,
    /// Wall time inside spans of this name, including child spans.
    pub total_us: u64,
    /// Wall time inside spans of this name, excluding child spans.
    pub self_us: u64,
}

/// A profile table: rows sorted by self-time, plus the trace's wall span.
#[derive(Debug, Clone, Serialize)]
pub struct Profile {
    pub rows: Vec<ProfileRow>,
    /// Wall time covered by root (parentless) spans.
    pub root_total_us: u64,
}

/// Aggregate the given records into a profile table.
///
/// A span's self time is its duration minus the union of its direct
/// children's intervals, clipped to the span. When no span has concurrent
/// children, summing `self_us` over all rows recovers `root_total_us`
/// exactly: the table attributes 100% of traced wall time to named spans.
/// Children that overlap — `edge_par` workers adopting one submitter's
/// context — each keep their own time, so then the sum exceeds the wall
/// time.
pub fn profile_of(records: &[SpanRecord]) -> Profile {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for rec in records {
        if rec.parent != 0 {
            children.entry(rec.parent).or_default().push((rec.start_us, rec.start_us + rec.dur_us));
        }
    }
    let mut by_name: HashMap<&str, ProfileRow> = HashMap::new();
    let mut root_total_us = 0u64;
    for rec in records {
        let covered = children
            .get_mut(&rec.id)
            .map_or(0, |intervals| covered_us(intervals, rec.start_us, rec.start_us + rec.dur_us));
        let row = by_name.entry(rec.name).or_insert_with(|| ProfileRow {
            name: rec.name.to_string(),
            calls: 0,
            total_us: 0,
            self_us: 0,
        });
        row.calls += 1;
        row.total_us += rec.dur_us;
        row.self_us += rec.dur_us - covered;
        if rec.parent == 0 {
            root_total_us += rec.dur_us;
        }
    }
    let mut rows: Vec<ProfileRow> = by_name.into_values().collect();
    rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
    Profile { rows, root_total_us }
}

/// Length of the union of `intervals` (`[start, end)` in µs) within
/// `[lo, hi)`.
fn covered_us(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Profile of the current global trace buffer.
pub fn profile() -> Profile {
    profile_of(&records())
}

impl Profile {
    /// Fraction of root wall time attributed to spans named in `names`
    /// (by self time). With a root span around the whole run, the named
    /// coverage is what the `profile` subcommand reports.
    pub fn coverage(&self, names: &[&str]) -> f64 {
        if self.root_total_us == 0 {
            return 0.0;
        }
        let named: u64 = self
            .rows
            .iter()
            .filter(|r| names.iter().any(|n| r.name.contains(n)))
            .map(|r| r.self_us)
            .sum();
        named as f64 / self.root_total_us as f64
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>8} {:>12} {:>12} {:>7}\n",
            "span", "calls", "total", "self", "self%"
        ));
        let denom = self.root_total_us.max(1) as f64;
        for row in &self.rows {
            out.push_str(&format!(
                "{:<28} {:>8} {:>12} {:>12} {:>6.1}%\n",
                row.name,
                row.calls,
                format_us(row.total_us),
                format_us(row.self_us),
                100.0 * row.self_us as f64 / denom,
            ));
        }
        out.push_str(&format!("traced wall time: {}\n", format_us(self.root_total_us)));
        out
    }
}

fn format_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}us")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{:.3}s", us as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord { id, parent, name, thread: id, request: 0, start_us, dur_us }
    }

    /// Two workers' spans overlapping under one parent: the parent's self
    /// time is what the union of the two leaves uncovered, not zero.
    #[test]
    fn concurrent_children_leave_the_parent_its_uncovered_time() {
        let records = [
            span(1, 0, "batch", 100, 50),
            span(2, 1, "item", 110, 30), // 110..140
            span(3, 1, "item", 120, 25), // 120..145
            span(4, 1, "item", 148, 10), // 148..158, clipped at 150
        ];
        let profile = profile_of(&records);
        let row = |name: &str| profile.rows.iter().find(|r| r.name == name).unwrap().clone();
        // Covered: 110..145 and 148..150, 37 µs of the parent's 50.
        assert_eq!(row("batch").self_us, 13);
        assert_eq!(row("item").self_us, 65);
        assert_eq!(row("item").calls, 3);
        assert_eq!(profile.root_total_us, 50);
    }
}
