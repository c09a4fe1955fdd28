//! The micro-batching scheduler: the event loops enqueue resolved
//! texts into a bounded queue; one scheduler thread drains it in batches
//! of up to `max_batch`, holding an under-full batch open for at most
//! `max_delay_us` before flushing. Each popped batch fans out across the
//! `edge-par` worker pool, one order-preserving model call per job, so
//! responses are bit-identical to direct calls regardless of how texts
//! were grouped — and each job carries its request's span context, so
//! queue-wait, batch-assembly, and inference show up as stages of the
//! originating request in both the trace and `/debug/requests`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use edge_core::{PredictOptions, PredictRequest, Predictor};
use edge_obs::trace;

use crate::cache::{CacheKey, ResponseCache};
use crate::deadline::Deadline;
use crate::json::{render_deadline_error, render_error, render_response};
use crate::slot::ModelSlot;

/// One text admitted to the queue.
pub struct Job {
    /// Entity ids resolved against `generation`'s model at admission.
    pub entities: Vec<usize>,
    /// Generation the entities were resolved under.
    pub generation: u64,
    /// The original text, kept so the scheduler can re-resolve after a
    /// hot reload swapped the model underneath this job.
    pub text: String,
    /// Zero-entity policy for this job.
    pub fallback: bool,
    /// Where the rendered fragment lands.
    pub pending: Arc<Pending>,
    /// Index into the pending response.
    pub index: usize,
    /// Span context of the originating request: the scheduler and the
    /// `edge-par` workers adopt it, so queue/batch/inference spans parent
    /// to the request's root span even across threads.
    pub ctx: trace::SpanContext,
    /// Admission time — the queue-wait stage starts here.
    pub submitted: Instant,
    /// Per-request stage accumulators, read by the handler after its
    /// [`Pending`] resolves.
    pub stages: Arc<StageCells>,
    /// The originating request's deadline budget. Expired jobs are
    /// evicted from the queue (and skipped at dispatch) with a typed
    /// `deadline_exceeded` fragment instead of burning model time.
    pub deadline: Deadline,
}

/// Stage wall-micros for one request, written scheduler/worker-side and
/// read by the connection handler once all fragments arrived. A request's
/// texts can land in different batches; `fetch_max` keeps the slowest
/// path, which is what a per-request latency decomposition means.
#[derive(Default)]
pub struct StageCells {
    queue: AtomicU64,
    batch: AtomicU64,
    inference: AtomicU64,
}

impl StageCells {
    fn note(cell: &AtomicU64, us: u64) {
        cell.fetch_max(us, Ordering::Relaxed);
    }

    /// `(queue, batch, inference)` micros recorded so far.
    pub fn load(&self) -> (u64, u64, u64) {
        (
            self.queue.load(Ordering::Relaxed),
            self.batch.load(Ordering::Relaxed),
            self.inference.load(Ordering::Relaxed),
        )
    }
}

/// The rendezvous for one `POST /predict`: the scheduler and workers
/// fill slots as batches complete, and the last fragment runs the
/// notifier, which wakes the event loop to collect [`Pending::try_results`].
pub struct Pending {
    state: Mutex<PendingState>,
    /// Ran once when the last fragment lands.
    notifier: Box<dyn Fn() + Send + Sync>,
}

/// Fragment slots plus the count still outstanding.
type PendingState = (Vec<Option<Arc<Vec<u8>>>>, usize);

impl Pending {
    /// A pending response expecting `n` fragments; `notifier` is invoked
    /// exactly once, from whichever thread delivers the final fragment.
    pub fn new(n: usize, notifier: impl Fn() + Send + Sync + 'static) -> Self {
        Self { state: Mutex::new((vec![None; n], n)), notifier: Box::new(notifier) }
    }

    /// Delivers fragment `i`. First delivery wins: a duplicate (a late
    /// batch result racing a deadline eviction, say) neither overwrites
    /// the fragment nor re-notifies.
    pub fn fulfill(&self, i: usize, bytes: Arc<Vec<u8>>) {
        let completed = {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            let newly_filled = state.0[i].is_none();
            if newly_filled {
                state.0[i] = Some(bytes);
                state.1 -= 1;
            }
            // Only the fulfill that *drops the count to zero* completes;
            // a duplicate arriving after completion must not re-notify.
            newly_filled && state.1 == 0
        };
        // Notify outside the lock, so the notifier can take locks of its
        // own without ordering against ours.
        if completed {
            (self.notifier)();
        }
    }

    /// The fragments if all arrived, without blocking — the event loop's
    /// check when a completion wake (or a timeout tick) comes in.
    pub fn try_results(&self) -> Option<Vec<Arc<Vec<u8>>>> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.1 > 0 {
            return None;
        }
        Some(state.0.iter().map(|slot| Arc::clone(slot.as_ref().expect("filled"))).collect())
    }
}

/// The bounded admission queue. `try_submit` is all-or-nothing: either
/// every text of a POST fits, or none are queued and the request is shed
/// with 429 — a partial admission would leave the request waiting on
/// texts that were never queued until its wedge timeout.
pub struct BatchQueue {
    inner: Mutex<VecDeque<Job>>,
    capacity: usize,
    arrived: Condvar,
}

impl BatchQueue {
    pub fn new(capacity: usize) -> Self {
        Self { inner: Mutex::new(VecDeque::new()), capacity, arrived: Condvar::new() }
    }

    /// Admits all jobs or none. Returns whether they were queued.
    pub fn try_submit(&self, jobs: Vec<Job>) -> bool {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() + jobs.len() > self.capacity {
            return false;
        }
        q.extend(jobs);
        edge_obs::gauge!("serve.queue.depth").set(q.len() as f64);
        self.arrived.notify_one();
        true
    }

    /// Queue length right now.
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Wakes every scheduler parked in `pop_batch` so a shutdown is
    /// observed immediately instead of at the next 20ms idle poll.
    pub fn notify_waiters(&self) {
        let _q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        self.arrived.notify_all();
    }

    /// Evicts every queued job whose deadline has passed, fulfilling it
    /// with the typed `deadline_exceeded` fragment so its handler answers
    /// 504 immediately instead of waiting for a batch that would be
    /// wasted work. The `serve.queue.expire` failpoint (err action)
    /// force-expires everything queued — the deterministic handle the
    /// fault suite uses to cover this path. Returns the eviction count.
    pub fn evict_expired(&self) -> usize {
        let force = edge_faults::enabled() && edge_faults::fired("serve.queue.expire");
        let evicted: Vec<Job> = {
            let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            if q.is_empty() {
                return 0;
            }
            let mut kept = VecDeque::with_capacity(q.len());
            let mut evicted = Vec::new();
            for job in q.drain(..) {
                if force || job.deadline.expired() {
                    evicted.push(job);
                } else {
                    kept.push_back(job);
                }
            }
            *q = kept;
            if !evicted.is_empty() {
                edge_obs::gauge!("serve.queue.depth").set(q.len() as f64);
            }
            evicted
            // Lock dropped before fulfill runs the notifiers.
        };
        let n = evicted.len();
        if n > 0 {
            edge_obs::counter!("serve.queue.evicted").inc(n as u64);
            let fragment = Arc::new(render_deadline_error());
            for job in evicted {
                job.pending.fulfill(job.index, Arc::clone(&fragment));
            }
        }
        n
    }

    /// Waits briefly for a first job, then keeps the batch open until it
    /// holds `max_batch` jobs or `max_delay` elapsed since the first
    /// arrival. Returns an empty batch when nothing arrived within the
    /// idle window (so the caller's loop can observe failpoints and
    /// shutdown between waits), and `None` only when shutting down with
    /// an empty queue.
    fn pop_batch(
        &self,
        max_batch: usize,
        max_delay: Duration,
        shutdown: &dyn Fn() -> bool,
    ) -> Option<Vec<Job>> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if q.is_empty() {
            if shutdown() {
                return None;
            }
            let (guard, _) = self
                .arrived
                .wait_timeout(q, Duration::from_millis(20))
                .unwrap_or_else(|e| e.into_inner());
            q = guard;
            if q.is_empty() {
                return if shutdown() { None } else { Some(Vec::new()) };
            }
        }
        let deadline = Instant::now() + max_delay;
        while q.len() < max_batch && !shutdown() {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else { break };
            let (guard, timed_out) =
                self.arrived.wait_timeout(q, remaining).unwrap_or_else(|e| e.into_inner());
            q = guard;
            if timed_out.timed_out() {
                break;
            }
        }
        let take = q.len().min(max_batch);
        let batch: Vec<Job> = q.drain(..take).collect();
        edge_obs::gauge!("serve.queue.depth").set(q.len() as f64);
        Some(batch)
    }
}

/// The scheduler loop: runs on its own thread until `shutdown()` holds
/// *and* the queue is drained, so accepted requests are answered even
/// during a graceful shutdown.
pub fn run_scheduler(
    queue: &BatchQueue,
    slot: &ModelSlot,
    cache: &ResponseCache,
    max_batch: usize,
    max_delay: Duration,
    shutdown: impl Fn() -> bool,
    tick: impl Fn(),
) {
    loop {
        // Test hook: hold the scheduler while a failpoint has hits left —
        // before popping, so the queue-overflow suite can fill the queue
        // deterministically and watch submissions shed. Expired jobs are
        // still evicted (and the brownout controller still ticks) while
        // held: a wedged dispatch path must not pin doomed requests.
        while edge_faults::enabled() && edge_faults::fired("serve.dispatch.hold") {
            queue.evict_expired();
            tick();
            std::thread::sleep(Duration::from_millis(1));
        }
        queue.evict_expired();
        tick();
        let Some(batch) = queue.pop_batch(max_batch, max_delay, &shutdown) else { return };
        if batch.is_empty() {
            continue;
        }
        dispatch(&batch, slot, cache);
    }
}

/// Runs one batch through the current model and fulfills its jobs.
fn dispatch(batch: &[Job], slot: &ModelSlot, cache: &ResponseCache) {
    let _span = edge_obs::span("serve.dispatch");
    edge_obs::histogram!("serve.batch.size").record(batch.len() as f64);
    let popped = Instant::now();
    let (model, generation) = slot.get();

    // Jobs resolved under an older generation re-resolve against the model
    // that will actually answer them (entity ids are not stable across
    // models); their admission-time cache key is stale either way.
    let resolved: Vec<Vec<usize>> = batch
        .iter()
        .map(|job| {
            if job.generation == generation {
                job.entities.clone()
            } else {
                model.resolve_entities(&job.text)
            }
        })
        .collect();

    // Queue-wait (submit → pop) and batch assembly (pop → fan-out) are
    // recorded per job against the *request's* span context, so the trace
    // shows them under the request root even though they happen on the
    // scheduler thread.
    let assembled = Instant::now();
    for job in batch {
        trace::record_manual("serve.stage.queue", job.ctx, job.submitted, popped);
        trace::record_manual("serve.stage.batch", job.ctx, popped, assembled);
        StageCells::note(&job.stages.queue, (popped - job.submitted).as_micros() as u64);
        StageCells::note(&job.stages.batch, (assembled - popped).as_micros() as u64);
    }

    // Fan out across the worker pool, one model call per job. Each worker
    // adopts the job's context, so its inference span (and the model's
    // `predict_*` spans under it) stitch into the right request. `locate`
    // delegates to the same order-preserving single-item `locate_batch`
    // path as before, so responses stay bit-identical to unbatched calls.
    edge_par::parallel_for(batch.len(), |i| {
        let job = &batch[i];
        let _adopt = trace::adopt(job.ctx);
        // Injected worker stall (`sleep(ms)` action) — the wedged-worker
        // simulation the chaos harness drives. Placed before the expiry
        // check so a stalled worker plus a tight budget yields a typed
        // 504, never a silently late answer.
        if edge_faults::enabled() {
            let _ = edge_faults::eval("serve.worker.stall");
        }
        if job.deadline.expired() {
            edge_obs::counter!("serve.deadline.expired").inc(1);
            job.pending.fulfill(job.index, Arc::new(render_deadline_error()));
            return;
        }
        let inference_started = Instant::now();
        let _inf = edge_obs::span("serve.stage.inference");
        let opts = PredictOptions::default().with_fallback_prior(job.fallback);
        let result = model.locate(&PredictRequest::entities(resolved[i].clone()), &opts);
        let bytes = Arc::new(match &result {
            Ok(resp) => render_response(resp),
            Err(err) => render_error(err),
        });
        if result.is_ok() {
            let key =
                CacheKey { generation, entities: resolved[i].clone(), fallback: job.fallback };
            cache.insert(key, Arc::clone(&bytes));
        }
        // Note the stage before fulfilling: the last fulfill wakes the
        // event loop, which reads the cells immediately.
        StageCells::note(&job.stages.inference, inference_started.elapsed().as_micros() as u64);
        job.pending.fulfill(job.index, bytes);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_collects_out_of_order_fragments() {
        let p = pending(3);
        p.fulfill(2, Arc::new(b"c".to_vec()));
        p.fulfill(0, Arc::new(b"a".to_vec()));
        assert!(p.try_results().is_none(), "one fragment still outstanding");
        p.fulfill(1, Arc::new(b"b".to_vec()));
        let got = p.try_results().unwrap();
        let joined: Vec<u8> = got.iter().flat_map(|b| b.iter().copied()).collect();
        assert_eq!(joined, b"abc");
    }

    #[test]
    fn pending_notifier_fires_once_on_the_last_fragment() {
        let fired = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&fired);
        let p = Pending::new(2, move || {
            seen.fetch_add(1, Ordering::SeqCst);
        });
        assert!(p.try_results().is_none());
        p.fulfill(1, Arc::new(b"b".to_vec()));
        assert_eq!(fired.load(Ordering::SeqCst), 0, "not complete yet");
        assert!(p.try_results().is_none());
        p.fulfill(0, Arc::new(b"a".to_vec()));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        // Duplicate fulfills never re-notify.
        p.fulfill(0, Arc::new(b"x".to_vec()));
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        let got = p.try_results().unwrap();
        assert_eq!(&*got[0], b"a");
        assert_eq!(&*got[1], b"b");
    }

    /// A pending response whose completion nobody listens for.
    fn pending(n: usize) -> Pending {
        Pending::new(n, || {})
    }

    fn job(pending: &Arc<Pending>, index: usize) -> Job {
        job_with_deadline(pending, index, Deadline::none())
    }

    fn job_with_deadline(pending: &Arc<Pending>, index: usize, deadline: Deadline) -> Job {
        Job {
            entities: vec![],
            generation: 1,
            text: String::new(),
            fallback: false,
            pending: Arc::clone(pending),
            index,
            ctx: trace::SpanContext::default(),
            submitted: Instant::now(),
            stages: Arc::new(StageCells::default()),
            deadline,
        }
    }

    #[test]
    fn submission_is_all_or_nothing() {
        let q = BatchQueue::new(3);
        let p = Arc::new(pending(4));
        assert!(q.try_submit(vec![job(&p, 0), job(&p, 1)]));
        // Two queued + two more would exceed capacity 3: nothing admitted.
        assert!(!q.try_submit(vec![job(&p, 2), job(&p, 3)]));
        assert_eq!(q.depth(), 2);
        assert!(q.try_submit(vec![job(&p, 2)]));
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn pop_batch_flushes_on_deadline_and_on_size() {
        let q = BatchQueue::new(16);
        let shutdown = || false;
        let p = Arc::new(pending(8));
        q.try_submit((0..2).map(|i| job(&p, i)).collect());
        let started = Instant::now();
        let batch = q.pop_batch(8, Duration::from_millis(5), &shutdown).unwrap();
        assert_eq!(batch.len(), 2, "under-full batch flushes at the deadline");
        assert!(started.elapsed() >= Duration::from_millis(4));
        q.try_submit((0..8).map(|i| job(&p, i)).collect());
        let batch = q.pop_batch(4, Duration::from_secs(5), &shutdown).unwrap();
        assert_eq!(batch.len(), 4, "full batch flushes immediately");
        assert_eq!(q.depth(), 4);
    }

    #[test]
    fn expired_jobs_are_evicted_with_a_typed_fragment() {
        let _s = edge_faults::FailScenario::setup();
        let q = BatchQueue::new(16);
        let p = Arc::new(pending(2));
        q.try_submit(vec![
            job_with_deadline(&p, 0, Deadline::after_us(1)),
            job_with_deadline(&p, 1, Deadline::none()),
        ]);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(q.evict_expired(), 1, "only the expired job goes");
        assert_eq!(q.depth(), 1, "the unbounded job stays queued");
        // The evicted slot resolved to the deadline fragment; fulfill the
        // survivor so the response completes.
        p.fulfill(1, Arc::new(b"ok".to_vec()));
        let got = p.try_results().unwrap();
        assert!(
            std::str::from_utf8(&got[0]).unwrap().contains("deadline_exceeded"),
            "{:?}",
            std::str::from_utf8(&got[0])
        );
        assert_eq!(&*got[1], b"ok");
    }

    #[test]
    fn expire_failpoint_force_evicts_everything() {
        let _s = edge_faults::FailScenario::setup();
        edge_faults::configure("serve.queue.expire", "1*err").unwrap();
        let q = BatchQueue::new(16);
        let p = Arc::new(pending(2));
        q.try_submit(vec![job(&p, 0), job(&p, 1)]);
        assert_eq!(q.evict_expired(), 2, "failpoint expires unbounded jobs too");
        assert_eq!(q.depth(), 0);
        let got = p.try_results().unwrap();
        for frag in &got {
            assert!(std::str::from_utf8(frag).unwrap().contains("deadline_exceeded"));
        }
        // Failpoint exhausted: eviction is a no-op again.
        q.try_submit(vec![job(&Arc::new(pending(1)), 0)]);
        assert_eq!(q.evict_expired(), 0);
    }

    #[test]
    fn shutdown_drains_the_queue_before_stopping() {
        let q = BatchQueue::new(16);
        let shutdown = || true;
        let p = Arc::new(pending(1));
        q.try_submit(vec![job(&p, 0)]);
        // Shutdown already requested, but the queued job still comes out.
        let batch = q.pop_batch(8, Duration::from_millis(1), &shutdown).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(q.pop_batch(8, Duration::from_millis(1), &shutdown).is_none());
    }
}
