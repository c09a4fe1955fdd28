//! In-memory spans recorded around the calls the benchmark makes into
//! each layer, written out as JSONL when the run ends.
//!
//! The program itself is not instrumented: a span brackets one public
//! call made from the benchmark. Where a layer's call runs a deeper
//! layer internally (resolve runs NER; inference runs the mixture mode
//! search), the deeper call is replayed on the same input right after
//! its parent and recorded as a `replayed` child. A span's self time is
//! its duration minus its children's durations, so a replayed child is
//! subtracted from the parent that contains the real call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// The request (or training run) the span belongs to.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Replayed beside its parent rather than nested inside it.
    pub replayed: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns: 0,
            end_ns: 0,
            replayed: false,
        });
        self.open.push(id);
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.open.pop();
        let span = &mut self.spans[id];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// Replayed children finish after their parent; they are attached to
    /// the parent span most recently closed with `parent_name`.
    pub fn replay_after<T>(
        &mut self,
        parent_name: &'static str,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let parent = self.spans.iter().rposition(|s| s.name == parent_name);
        let id = self.spans.len();
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns: start,
            end_ns: end,
            replayed: true,
        });
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span (duration minus its children's), in µs,
    /// grouped by name, for requests numbered `first_request` and up.
    pub fn self_times_us(&self, first_request: u64) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.request >= first_request) {
            let own = s.duration_ns().saturating_sub(child_ns[s.id]);
            out.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    /// Total duration of every span, in µs, grouped by name.
    #[cfg(test)]
    pub fn durations_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name).or_default().push(s.duration_ns() as f64 / 1e3);
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"replayed\":{}}}",
                s.id, parent, s.name, s.request, s.start_ns, s.end_ns, s.replayed
            )?;
        }
        out.flush()
    }
}

/// Mean of a sample list (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {}
    }

    #[test]
    fn self_time_excludes_nested_and_replayed_children() {
        let mut t = Tracer::default();
        t.span("request", 1, |t| {
            t.span("outer", 1, |t| {
                spin(300);
                t.span("inner", 1, |_| spin(200));
            });
            t.replay_after("outer", "replayed", 1, || spin(100));
        });
        let own = t.self_times_us(0);
        let total = t.durations_us();
        // outer holds 500us of real work; 200 nested + 100 replayed are
        // subtracted.
        let outer_self = own["outer"][0];
        assert!((190.0..450.0).contains(&outer_self), "{outer_self}");
        assert!(total["outer"][0] >= 500.0);
        assert!(own["inner"][0] >= 200.0);
        assert_eq!(t.spans().iter().filter(|s| s.replayed).count(), 1);
        let replayed = t.spans().iter().find(|s| s.replayed).unwrap();
        assert_eq!(t.spans()[replayed.parent.unwrap()].name, "outer");
        // Every span carries the request id and a parent chain to the root.
        assert!(t.spans().iter().all(|s| s.request == 1));
        assert_eq!(t.spans()[0].parent, None);
    }
}
