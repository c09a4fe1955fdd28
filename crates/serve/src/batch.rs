//! The event loop's inference backlog. A loop keeps the predict misses
//! it parsed during a readiness round and runs them itself at the end of
//! that round, on its own thread: grouped by `(shard, fallback)`, since
//! `PredictOptions` applies per call, in slices of at most `max_batch`,
//! each slice one `Predictor::locate_batch` call. No other thread takes
//! part. EDGE predicts every text on its own, so a slice shares no work
//! between its texts; responses are bit-identical to direct calls however
//! texts were grouped.
//!
//! Admission is shared by every loop: each shard counts its admitted,
//! not-yet-run texts in one [`Admission`], and a request reserves every
//! shard it touches all or nothing ([`reserve_all`]), so `queue_capacity`
//! sheds per shard whichever loop parsed the request.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use edge_core::{PredictInput, PredictOptions, PredictRequest, Predictor};
use edge_obs::trace;

use crate::cache::{CacheKey, ResponseCache};
use crate::deadline::Deadline;
use crate::json::{render_error, render_response};
use crate::slot::ModelSlot;

/// One admitted text waiting on its loop.
pub struct Job {
    /// The shard whose model answers it.
    pub shard: usize,
    /// Entity ids resolved against `generation`'s model at admission.
    pub entities: Vec<usize>,
    /// Generation the entities were resolved under.
    pub generation: u64,
    /// The original text, kept to re-resolve after a hot reload swapped
    /// the model underneath this job.
    pub text: String,
    /// Zero-entity policy for this job.
    pub fallback: bool,
    /// The in-flight predict this text belongs to.
    pub token: u64,
    /// Fragment index within that predict.
    pub index: usize,
    /// Span context of the originating request, so the queue, batch and
    /// inference stages parent to its root span.
    pub ctx: trace::SpanContext,
    /// Parse end: the queue stage starts here.
    pub submitted: Instant,
    /// The originating request's deadline budget.
    pub deadline: Deadline,
}

/// What became of one job.
pub enum JobOutcome {
    /// The rendered fragment: a prediction or a typed model error.
    Answered(Arc<Vec<u8>>),
    /// Its deadline passed before it ran; the request answers 504.
    Expired,
}

/// One shard's count of admitted texts that have not run yet.
pub struct Admission {
    texts: AtomicUsize,
    capacity: usize,
}

impl Admission {
    pub fn new(capacity: usize) -> Self {
        Self { texts: AtomicUsize::new(0), capacity }
    }

    /// Texts admitted and not yet run (or evicted).
    pub fn depth(&self) -> usize {
        self.texts.load(Ordering::Acquire)
    }

    /// Returns `n` texts' worth of room once they ran or were evicted.
    pub fn release(&self, n: usize) {
        self.texts.fetch_sub(n, Ordering::AcqRel);
    }

    fn try_reserve(&self, n: usize) -> bool {
        let fits = |texts: usize| (texts + n <= self.capacity).then_some(texts + n);
        self.texts.fetch_update(Ordering::AcqRel, Ordering::Acquire, fits).is_ok()
    }
}

/// Reserves room for `n` texts on every `(admission, n)` pair, all or
/// nothing: when one refuses, the reservations already made are rolled
/// back and its position comes back as the error, so a refused request
/// runs no text anywhere.
pub fn reserve_all<'a, I>(wants: I) -> Result<(), usize>
where
    I: IntoIterator<Item = (&'a Admission, usize)> + Clone,
{
    for (k, (admission, n)) in wants.clone().into_iter().enumerate() {
        if n > 0 && !admission.try_reserve(n) {
            for (admission, n) in wants.into_iter().take(k) {
                admission.release(n);
            }
            return Err(k);
        }
    }
    Ok(())
}

/// The jobs one loop admitted and has not run yet, in arrival order.
#[derive(Default)]
pub struct Backlog {
    jobs: Vec<Job>,
}

impl Backlog {
    pub fn push(&mut self, job: Job) {
        self.jobs.push(job);
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Removes every job past its deadline and returns them in arrival
    /// order. The `serve.queue.expire` failpoint (err action) evicts
    /// every parked job, deadline or not: the deterministic handle the
    /// fault suite uses to cover this path.
    pub fn evict_expired(&mut self) -> Vec<Job> {
        if self.jobs.is_empty() {
            return Vec::new();
        }
        let force = edge_faults::enabled() && edge_faults::fired("serve.queue.expire");
        // The common case — nothing expired — leaves the backlog as it is.
        if !force && !self.jobs.iter().any(|job| job.deadline.expired()) {
            return Vec::new();
        }
        let (evicted, kept) = std::mem::take(&mut self.jobs)
            .into_iter()
            .partition(|job| force || job.deadline.expired());
        self.jobs = kept;
        evicted
    }

    /// Takes the whole backlog as slices of at most `max_batch` jobs that
    /// share a `(shard, fallback)`, arrival order kept within each.
    pub fn take_slices(&mut self, max_batch: usize) -> Vec<Vec<Job>> {
        let mut jobs = std::mem::take(&mut self.jobs);
        jobs.sort_by_key(|job| (job.shard, job.fallback)); // stable
        let mut slices: Vec<Vec<Job>> = Vec::new();
        for job in jobs {
            match slices.last_mut() {
                Some(slice)
                    if slice.len() < max_batch
                        && (slice[0].shard, slice[0].fallback) == (job.shard, job.fallback) =>
                {
                    slice.push(job)
                }
                _ => slices.push(vec![job]),
            }
        }
        slices
    }
}

/// When one slice's stages began, for per-request stage accounting:
/// queue ends at `started`, batch assembly runs to `inference`, and
/// inference (model call, rendering, cache inserts) to `finished`.
pub struct SliceTimes {
    pub started: Instant,
    pub inference: Instant,
    pub finished: Instant,
}

/// Runs one slice (jobs of one shard and fallback policy) through the
/// shard's current model on the calling thread, caching every answer.
/// Each job's admission-time ids move into its request. Returns one
/// outcome per job, in slice order.
pub fn run_slice(
    slice: &mut [Job],
    slot: &ModelSlot,
    cache: &ResponseCache,
) -> (Vec<JobOutcome>, SliceTimes) {
    let started = Instant::now();
    let (model, generation) = slot.get();
    let fallback = slice[0].fallback;
    let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(slice.len());
    let mut requests: Vec<PredictRequest> = Vec::with_capacity(slice.len());
    let mut live: Vec<usize> = Vec::with_capacity(slice.len());
    for (k, job) in slice.iter_mut().enumerate() {
        // Injected stall (`sleep(ms)` action): it stalls this loop. Placed
        // before the expiry check, so a stall past a tight budget yields
        // a typed 504, never a silently late answer.
        if edge_faults::enabled() {
            let _ = edge_faults::eval("serve.worker.stall");
        }
        outcomes.push(JobOutcome::Expired);
        if job.deadline.expired() {
            continue;
        }
        // A job resolved under an older generation re-resolves against the
        // model that will answer it (entity ids are not stable across
        // models); its admission-time cache key is stale either way.
        let entities = if job.generation == generation {
            std::mem::take(&mut job.entities)
        } else {
            model.resolve_entities(&job.text)
        };
        requests.push(PredictRequest::entities(entities));
        live.push(k);
    }

    let inference = Instant::now();
    if let Some(&first) = live.first() {
        edge_obs::histogram!("serve.batch.size").record(requests.len() as f64);
        // The model's own spans nest under the inference stage of the
        // slice's first live request; every other request in the slice
        // records the same interval below.
        let _adopt = trace::adopt(slice[first].ctx);
        let _span = edge_obs::span("serve.stage.inference");
        let opts = PredictOptions::default().with_fallback_prior(fallback);
        let results = edge_par::with_max_threads(1, || model.locate_batch(&requests, &opts));
        for ((k, request), result) in live.iter().zip(requests).zip(results) {
            let bytes = Arc::new(match &result {
                Ok(resp) => render_response(resp),
                Err(err) => render_error(err),
            });
            if let (Ok(_), PredictInput::Entities(entities)) = (&result, request.input) {
                cache.insert(CacheKey { generation, entities, fallback }, Arc::clone(&bytes));
            }
            outcomes[*k] = JobOutcome::Answered(bytes);
        }
    }
    let times = SliceTimes { started, inference, finished: Instant::now() };

    // The stage spans, once per request in the slice (a request's jobs
    // sit next to each other: they were admitted together).
    let first_live = live.first().map(|&k| slice[k].token);
    for (k, job) in slice.iter().enumerate() {
        if k > 0 && slice[k - 1].token == job.token {
            continue;
        }
        trace::record_manual("serve.stage.queue", job.ctx, job.submitted, times.started);
        trace::record_manual("serve.stage.batch", job.ctx, times.started, times.inference);
        if matches!(outcomes[k], JobOutcome::Answered(_)) && Some(job.token) != first_live {
            trace::record_manual("serve.stage.inference", job.ctx, times.inference, times.finished);
        }
    }
    (outcomes, times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn job(shard: usize, fallback: bool, index: usize) -> Job {
        job_with_deadline(shard, fallback, index, Deadline::none())
    }

    fn job_with_deadline(shard: usize, fallback: bool, index: usize, deadline: Deadline) -> Job {
        Job {
            shard,
            entities: vec![],
            generation: 1,
            text: String::new(),
            fallback,
            token: 7,
            index,
            ctx: trace::SpanContext::default(),
            submitted: Instant::now(),
            deadline,
        }
    }

    fn indices(slice: &[Job]) -> Vec<usize> {
        slice.iter().map(|job| job.index).collect()
    }

    #[test]
    fn submission_is_all_or_nothing() {
        let (a, b) = (Admission::new(3), Admission::new(3));
        assert_eq!(reserve_all([(&a, 2), (&b, 1)]), Ok(()));
        // Two held on `a` plus two more would exceed its capacity 3: the
        // reservation already made on `b` is rolled back.
        assert_eq!(reserve_all([(&b, 1), (&a, 2)]), Err(1), "a refuses");
        assert_eq!((a.depth(), b.depth()), (2, 1), "nothing admitted anywhere");
        assert_eq!(reserve_all([(&a, 1), (&b, 0)]), Ok(()));
        assert_eq!(a.depth(), 3);
        a.release(3);
        assert_eq!(a.depth(), 0, "running a job returns its room");
    }

    #[test]
    fn a_lone_job_pops_as_a_batch_of_one() {
        let mut backlog = Backlog::default();
        backlog.push(job(0, false, 0));
        let slices = backlog.take_slices(32);
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].len(), 1, "nothing holds an under-full slice open");
        assert!(backlog.is_empty());
    }

    #[test]
    fn a_backlog_pops_in_max_batch_slices() {
        let mut backlog = Backlog::default();
        for i in 0..40 {
            backlog.push(job(0, false, i));
        }
        let slices = backlog.take_slices(32);
        assert_eq!(slices.len(), 2);
        assert_eq!(indices(&slices[0]), (0..32).collect::<Vec<_>>(), "arrival order");
        assert_eq!(indices(&slices[1]), (32..40).collect::<Vec<_>>());
    }

    #[test]
    fn slices_never_mix_shards_or_fallback_policies() {
        let mut backlog = Backlog::default();
        let keys = [(1, false), (0, false), (1, true), (0, false), (1, false), (0, true)];
        for (i, &(shard, fallback)) in keys.iter().enumerate() {
            backlog.push(job(shard, fallback, i));
        }
        let slices = backlog.take_slices(32);
        let got: Vec<(usize, bool, Vec<usize>)> =
            slices.iter().map(|s| (s[0].shard, s[0].fallback, indices(s))).collect();
        assert_eq!(
            got,
            [
                (0, false, vec![1, 3]),
                (0, true, vec![5]),
                (1, false, vec![0, 4]),
                (1, true, vec![2])
            ]
        );
    }

    #[test]
    fn expired_jobs_are_evicted() {
        let _s = edge_faults::FailScenario::setup();
        let mut backlog = Backlog::default();
        backlog.push(job_with_deadline(0, false, 0, Deadline::after_us(1)));
        backlog.push(job_with_deadline(0, false, 1, Deadline::none()));
        std::thread::sleep(Duration::from_millis(2));
        let evicted = backlog.evict_expired();
        assert_eq!(indices(&evicted), [0], "only the expired job goes");
        let kept = backlog.take_slices(8);
        assert_eq!(kept.len(), 1);
        assert_eq!(indices(&kept[0]), [1], "the unbounded job stays");
    }

    #[test]
    fn expire_failpoint_force_evicts_everything() {
        let _s = edge_faults::FailScenario::setup();
        edge_faults::configure("serve.queue.expire", "1*err").unwrap();
        let mut backlog = Backlog::default();
        backlog.push(job(0, false, 0));
        backlog.push(job(1, false, 1));
        assert_eq!(backlog.evict_expired().len(), 2, "failpoint evicts unbounded jobs too");
        assert!(backlog.is_empty());
        // Failpoint exhausted: eviction is a no-op again.
        backlog.push(job(0, false, 2));
        assert!(backlog.evict_expired().is_empty());
    }
}
