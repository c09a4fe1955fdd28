//! # edge-par: the workspace's persistent worker pool
//!
//! Every parallel region in the workspace (matmul, spmm, evaluation sweeps,
//! batched prediction) runs on one persistent, lazily-initialized worker
//! pool rather than spawning OS threads per call:
//!
//! * **Parked workers.** Worker threads are spawned once (on first parallel
//!   call), then park on a condvar between jobs. Dispatching a job is a
//!   queue push + wake, not a `clone`+`spawn`+`join` cycle.
//! * **Chunked indexed dispatch.** A job is a closure over an index range
//!   `0..count`. Threads claim contiguous chunks via an atomic cursor — the
//!   cheap half of work stealing: dynamic load balancing without per-worker
//!   deques. Chunks claimed by a thread other than the submitter count as
//!   steals (`par.pool.steals`).
//! * **The caller participates.** The submitting thread works the job too,
//!   which makes nested parallelism deadlock-free by construction: a pooled
//!   task that itself calls [`parallel_for`] drives its own inner job to
//!   completion even if every worker is busy.
//! * **Panic propagation.** A panicking job index poisons the job; remaining
//!   chunks are claimed-and-discarded and the first payload is re-thrown on
//!   the submitting thread, matching `std::thread::scope` semantics.
//! * **`EDGE_NUM_THREADS`.** The environment variable (or
//!   [`set_num_threads`], e.g. from the CLI `--threads` flag) overrides the
//!   detected hardware parallelism; [`with_max_threads`] scopes a cap (or a
//!   raise, for tests) to the current thread.
//! * **Kernel selection travels with the job.** The workspace's one SIMD
//!   probe ([`simd_available`]) and its scoped scalar override
//!   ([`with_scalar_kernels`]) live here, and a job carries the submitter's
//!   override to every worker that claims a chunk of it, so [`simd_active`]
//!   answers the same on every index of a region.
//!
//! Observability: `par.pool.jobs` / `par.pool.steals` counters and the
//! `par.pool.queue_depth` / `par.pool.threads` gauges via `edge-obs`.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Hard ceiling on pool size, a backstop against runaway configuration.
const MAX_WORKERS: usize = 256;

/// Each thread claims indices in chunks of roughly `count / (width * OVERSUB)`
/// so fast threads can rebalance without hammering the shared cursor.
const OVERSUB: usize = 4;

// ---------------------------------------------------------------------------
// Thread-count configuration
// ---------------------------------------------------------------------------

/// Programmatic override set via [`set_num_threads`] (0 = unset).
static REQUESTED_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread cap/raise installed by [`with_max_threads`] (0 = unset).
    static TL_THREADS: Cell<usize> = const { Cell::new(0) };
}

fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("EDGE_NUM_THREADS").ok().and_then(|s| s.trim().parse::<usize>().ok())
    })
}

fn hardware_threads() -> usize {
    // `available_parallelism` re-reads the cgroup CPU quota files on every
    // call (several microseconds) — cache it, it cannot change under us in
    // any way this pool would want to track.
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
}

/// Sets the default parallelism for subsequent parallel calls (the CLI
/// `--threads` flag lands here). Takes precedence over `EDGE_NUM_THREADS`.
/// Workers are spawned lazily, so raising the count later is cheap; threads
/// already parked stay parked if the count is lowered.
pub fn set_num_threads(n: usize) {
    REQUESTED_THREADS.store(n.clamp(1, MAX_WORKERS), Ordering::Relaxed);
}

/// The parallelism the next [`parallel_for`] on this thread will use:
/// the [`with_max_threads`] scope, else [`set_num_threads`], else
/// `EDGE_NUM_THREADS`, else the detected hardware parallelism.
pub fn num_threads() -> usize {
    let tl = TL_THREADS.with(Cell::get);
    if tl > 0 {
        return tl.min(MAX_WORKERS);
    }
    let req = REQUESTED_THREADS.load(Ordering::Relaxed);
    if req > 0 {
        return req;
    }
    env_threads().unwrap_or_else(hardware_threads).clamp(1, MAX_WORKERS)
}

/// Runs `f` with parallelism fixed to `n` on this thread (nested parallel
/// calls made *from pooled tasks* see the global setting instead — the cap
/// is a property of the calling thread).
/// Used by the determinism property tests to sweep thread counts in-process.
pub fn with_max_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            TL_THREADS.with(|c| c.set(self.0));
        }
    }
    let prev = TL_THREADS.with(|c| {
        let prev = c.get();
        c.set(n.clamp(1, MAX_WORKERS));
        prev
    });
    let _restore = Restore(prev);
    f()
}

// ---------------------------------------------------------------------------
// Kernel selection
// ---------------------------------------------------------------------------

/// Whether the AVX2+FMA kernels are compiled in, supported by this CPU, and
/// not disabled via `EDGE_NO_SIMD`. Detection runs once and is cached.
pub fn simd_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        let disabled = std::env::var_os("EDGE_NO_SIMD").is_some_and(|v| !v.is_empty() && v != "0");
        !disabled && detect_simd()
    })
}

#[cfg(target_arch = "x86_64")]
fn detect_simd() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_simd() -> bool {
    false
}

thread_local! {
    /// Scalar-kernel override installed by [`with_scalar_kernels`], or
    /// carried in from the submitter of the job this thread is working.
    static FORCE_SCALAR: Cell<bool> = const { Cell::new(false) };
}

/// Whether the vector kernels run on this thread right now:
/// [`simd_available`] minus the [`with_scalar_kernels`] override.
#[inline]
pub fn simd_active() -> bool {
    simd_available() && !FORCE_SCALAR.with(Cell::get)
}

/// Runs `f` with the scalar reference kernels forced, regardless of
/// hardware — the scoped analogue of `EDGE_NO_SIMD`. Parallel regions
/// dispatched inside `f` inherit the override on every worker. Used by the
/// scalar-vs-SIMD parity tests and the benchmark's scalar legs.
pub fn with_scalar_kernels<R>(f: impl FnOnce() -> R) -> R {
    let _restore = ScalarScope::enter(true);
    f()
}

/// Sets this thread's scalar override and restores the previous value on
/// drop (including unwinds).
struct ScalarScope(bool);

impl ScalarScope {
    fn enter(force_scalar: bool) -> Self {
        Self(FORCE_SCALAR.with(|c| c.replace(force_scalar)))
    }
}

impl Drop for ScalarScope {
    fn drop(&mut self) {
        FORCE_SCALAR.with(|c| c.set(self.0));
    }
}

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

type PanicPayload = Box<dyn Any + Send + 'static>;

/// One parallel region: a task closure over `0..count` plus the shared
/// cursor/completion state threads coordinate through.
///
/// The task is stored as a raw (lifetime-less) pointer so that `Job`
/// allocations can be cached and reused across dispatches: between regions
/// the pointer dangles, which is fine for a raw pointer and would be UB for
/// the `&'static` reference this field used to be. Dereferencing is sound
/// because [`Pool::run`] does not return until every index is accounted for
/// (`done == count`), and no thread dereferences the task after claiming a
/// chunk at or past `count` — so the pointee outlives every use.
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    count: usize,
    grain: usize,
    /// The submitter's span context at dispatch (tracing enabled only):
    /// workers adopt it around each claimed chunk, so spans opened inside
    /// pooled tasks parent to the submitting span and keep its request id
    /// instead of dangling as per-worker roots.
    ctx: Option<edge_obs::trace::SpanContext>,
    /// The submitter's [`with_scalar_kernels`] override at dispatch; every
    /// thread working the job runs its chunks under it.
    force_scalar: bool,
    /// Next unclaimed index.
    next: AtomicUsize,
    /// Indices accounted for (executed, or discarded after a panic).
    done: AtomicUsize,
    panicked: AtomicBool,
    panic: Mutex<Option<PanicPayload>>,
}

// SAFETY: the raw task pointer is only dereferenced while the submitting
// thread blocks in `Pool::run`, during which the pointee (a `Sync` closure
// borrowed from the submitter's stack) is valid and shareable. All other
// fields are atomics or mutexes.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// No unclaimed indices remain (claimed ≠ finished; see [`Job::complete`]).
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.count
    }

    /// Every index has been executed or discarded.
    fn complete(&self) -> bool {
        self.done.load(Ordering::Acquire) >= self.count
    }

    /// Claims and runs chunks until the cursor passes the end. Returns the
    /// number of chunks this thread claimed.
    fn work(&self) -> u64 {
        let mut claimed = 0u64;
        loop {
            let lo = self.next.fetch_add(self.grain, Ordering::Relaxed);
            if lo >= self.count {
                return claimed;
            }
            let hi = (lo + self.grain).min(self.count);
            claimed += 1;
            // After a panic the remaining chunks are claimed-and-discarded so
            // the submitter can stop waiting and rethrow.
            if !self.panicked.load(Ordering::Relaxed) {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // SAFETY: a worker only reaches a job through the pool
                    // queue, and `Pool::run` keeps the pointee alive (and the
                    // job queued) until every index is accounted for.
                    let task = unsafe { &*self.task };
                    let _adopt = self.ctx.map(edge_obs::trace::adopt);
                    let _kernels = ScalarScope::enter(self.force_scalar);
                    for i in lo..hi {
                        task(i);
                    }
                }));
                if let Err(payload) = result {
                    self.panicked.store(true, Ordering::Relaxed);
                    let mut slot = self.panic.lock().unwrap();
                    slot.get_or_insert(payload);
                }
            }
            self.done.fetch_add(hi - lo, Ordering::Release);
        }
    }
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

struct Pool {
    /// Injector queue of open jobs. Workers service the front job; exhausted
    /// jobs are dropped from the queue on the way.
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_signal: Condvar,
    /// Number of worker threads spawned so far (grows on demand).
    spawned: Mutex<usize>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        work_signal: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

impl Pool {
    /// Ensures at least `needed` workers exist (the submitter itself is the
    /// +1 that completes the requested width).
    fn ensure_workers(&'static self, needed: usize) {
        let mut spawned = self.spawned.lock().unwrap();
        while *spawned < needed.min(MAX_WORKERS - 1) {
            let name = format!("edge-par-{}", *spawned);
            std::thread::Builder::new()
                .name(name)
                .spawn(move || self.worker_loop())
                .expect("spawning edge-par worker");
            *spawned += 1;
        }
        edge_obs::gauge!("par.pool.threads").set(*spawned as f64 + 1.0);
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().unwrap();
                loop {
                    while queue.front().is_some_and(|j| j.exhausted()) {
                        queue.pop_front();
                    }
                    edge_obs::gauge!("par.pool.queue_depth").set(queue.len() as f64);
                    match queue.front() {
                        Some(job) => break Arc::clone(job),
                        None => queue = self.work_signal.wait(queue).unwrap(),
                    }
                }
            };
            let stolen = job.work();
            if stolen > 0 {
                edge_obs::counter!("par.pool.steals").inc(stolen);
            }
        }
    }

    /// Publishes `job`, works it from the submitting thread, waits for the
    /// last in-flight chunk, and rethrows any panic.
    fn run(&'static self, job: Arc<Job>) {
        {
            let mut queue = self.queue.lock().unwrap();
            queue.push_back(Arc::clone(&job));
            edge_obs::gauge!("par.pool.queue_depth").set(queue.len() as f64);
        }
        self.work_signal.notify_all();
        job.work();
        // Unclaimed work is gone; wait out chunks still running on workers.
        // These are bounded by one chunk per worker, so a spin/yield wait
        // beats parking the submitter on yet another condvar.
        let mut spins = 0u32;
        while !job.complete() {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // Retire the finished job from the queue (workers would drop it
        // lazily, but only on their next wake — eagerly removing it lets the
        // submitter's cached `Arc` drop back to refcount 1 for reuse).
        {
            let mut queue = self.queue.lock().unwrap();
            if let Some(pos) = queue.iter().position(|j| Arc::ptr_eq(j, &job)) {
                queue.remove(pos);
            }
        }
        if job.panicked.load(Ordering::Relaxed) {
            let payload = job
                .panic
                .lock()
                .unwrap()
                .take()
                .unwrap_or_else(|| Box::new("edge-par task panicked"));
            std::panic::resume_unwind(payload);
        }
    }
}

// ---------------------------------------------------------------------------
// Public dispatch entry points
// ---------------------------------------------------------------------------

thread_local! {
    /// Per-thread cache of the last dispatched `Job` allocation. A train loop
    /// dispatches thousands of regions from one thread; once the pool retires
    /// a finished job from its queue the submitter holds the only `Arc`, so
    /// the next dispatch can re-initialize it in place instead of allocating.
    static JOB_CACHE: Cell<Option<Arc<Job>>> = const { Cell::new(None) };
}

/// Runs `task(i)` for every `i in 0..count` across the pool (plus the
/// calling thread), blocking until all indices completed. Panics in `task`
/// propagate to the caller. Serial (inline) when `count <= 1` or the
/// configured parallelism is 1.
pub fn parallel_for<F: Fn(usize) + Sync>(count: usize, task: F) {
    parallel_for_grained(count, 1, task);
}

/// [`parallel_for`] with a floor on the claim grain: each atomic-cursor claim
/// covers at least `min_grain` indices. Kernels whose per-index work is small
/// relative to dispatch (the SIMD matmul tiles) raise it so cursor traffic
/// stays amortized; the grain only changes how indices are *claimed*, never
/// the per-index work, so results are unaffected.
pub fn parallel_for_grained<F: Fn(usize) + Sync>(count: usize, min_grain: usize, task: F) {
    let width = num_threads().min(count);
    if width <= 1 {
        for i in 0..count {
            task(i);
        }
        return;
    }
    edge_obs::counter!("par.pool.jobs").inc(1);
    let ctx = edge_obs::trace_enabled().then(edge_obs::trace::current_context);
    let force_scalar = FORCE_SCALAR.with(Cell::get);
    let pool = pool();
    pool.ensure_workers(width - 1);
    let task_ref: &(dyn Fn(usize) + Sync) = &task;
    // SAFETY: `Pool::run` blocks until every index is executed or discarded,
    // and no thread touches `task` afterwards (see `Job` docs), so erasing
    // the borrow's lifetime cannot outlive the closure.
    let task_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task_ref) };
    let task_ptr: *const (dyn Fn(usize) + Sync) = task_static;
    let grain = count.div_ceil(width * OVERSUB).max(min_grain).max(1);
    let mut cached = JOB_CACHE.with(Cell::take);
    let reusable = cached.as_mut().and_then(Arc::get_mut);
    let job = if let Some(slot) = reusable {
        slot.task = task_ptr;
        slot.count = count;
        slot.grain = grain;
        slot.ctx = ctx;
        slot.force_scalar = force_scalar;
        slot.next = AtomicUsize::new(0);
        slot.done = AtomicUsize::new(0);
        slot.panicked = AtomicBool::new(false);
        // The panic slot is drained on rethrow; clearing keeps a poisoned
        // mutex from a previous region from leaking into this one.
        slot.panic = Mutex::new(None);
        edge_obs::counter!("par.pool.job_reuse").inc(1);
        cached.expect("just matched Some")
    } else {
        // The cached allocation (if any) is still referenced by a worker that
        // has not dropped its handle yet — allocate fresh; reuse is
        // best-effort and the stale Arc is simply dropped here.
        edge_obs::counter!("par.pool.job_alloc").inc(1);
        Arc::new(Job {
            task: task_ptr,
            count,
            grain,
            ctx,
            force_scalar,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic: Mutex::new(None),
        })
    };
    pool.run(Arc::clone(&job));
    JOB_CACHE.with(|c| c.set(Some(job)));
}

/// Splits `data` into `chunk_size`-element chunks and runs
/// `task(chunk_index, chunk)` for each, in parallel, blocking until all
/// chunks completed. The final chunk may be shorter. This performs **no heap
/// allocation** on the serial path (parallelism 1), which is what makes a
/// zero-allocation train loop at `--threads 1` possible.
pub fn parallel_for_chunks_mut<T: Send, F: Fn(usize, &mut [T]) + Sync>(
    data: &mut [T],
    chunk_size: usize,
    task: F,
) {
    parallel_for_chunks_mut_grained(data, chunk_size, 1, task);
}

/// [`parallel_for_chunks_mut`] with a floor on how many chunks one
/// atomic-cursor claim covers (see [`parallel_for_grained`]).
pub fn parallel_for_chunks_mut_grained<T: Send, F: Fn(usize, &mut [T]) + Sync>(
    data: &mut [T],
    chunk_size: usize,
    min_grain: usize,
    task: F,
) {
    assert!(chunk_size > 0, "chunk_size must be positive");
    let len = data.len();
    if len == 0 {
        return;
    }
    let count = len.div_ceil(chunk_size);
    // A raw base pointer shared across threads; each index maps to a disjoint
    // `[lo, hi)` range so no two tasks alias.
    struct SendPtr<T>(*mut T);
    unsafe impl<T: Send> Send for SendPtr<T> {}
    unsafe impl<T: Send> Sync for SendPtr<T> {}
    let base = SendPtr(data.as_mut_ptr());
    // Capture the wrapper by reference, not its raw-pointer field — Rust 2021
    // disjoint capture would otherwise grab the bare `*mut T`, which is not
    // `Sync`.
    let base = &base;
    parallel_for_grained(count, min_grain, |idx| {
        let lo = idx * chunk_size;
        let hi = (lo + chunk_size).min(len);
        // SAFETY: `base` points at `data`, which outlives this call because
        // `parallel_for` blocks until every index completes; chunk ranges are
        // disjoint, so each `&mut [T]` is exclusive.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.0.add(lo), hi - lo) };
        task(idx, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn covers_every_index_exactly_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        with_max_threads(8, || {
            parallel_for(n, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn serial_when_width_one() {
        let sum = AtomicU64::new(0);
        with_max_threads(1, || {
            parallel_for(100, |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn work_crosses_threads_when_requested() {
        let ids = Mutex::new(HashSet::new());
        with_max_threads(4, || {
            parallel_for(8, |_| {
                // Hold each chunk long enough for parked workers to wake and
                // claim the rest (the submitter alone would need ~80ms).
                std::thread::sleep(std::time::Duration::from_millis(10));
                ids.lock().unwrap().insert(std::thread::current().id());
            });
        });
        assert!(ids.lock().unwrap().len() >= 2, "expected at least 2 threads");
    }

    #[test]
    fn panics_propagate_to_submitter() {
        let result = std::panic::catch_unwind(|| {
            with_max_threads(4, || {
                parallel_for(1000, |i| {
                    if i == 517 {
                        panic!("boom at {i}");
                    }
                });
            });
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("payload");
        assert!(msg.contains("boom at 517"));
    }

    #[test]
    fn nested_parallel_for_does_not_deadlock() {
        let total = AtomicU64::new(0);
        with_max_threads(4, || {
            parallel_for(16, |_| {
                // Inner regions run from pool workers and the submitter alike.
                parallel_for(64, |j| {
                    total.fetch_add(j as u64, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16 * (0..64).sum::<u64>());
    }

    #[test]
    fn with_max_threads_restores_on_exit_and_panic() {
        assert_eq!(with_max_threads(3, num_threads), 3);
        let before = num_threads();
        let _ = std::panic::catch_unwind(|| {
            with_max_threads(2, || panic!("inner"));
        });
        assert_eq!(num_threads(), before, "cap must unwind with the scope");
    }

    #[test]
    fn zero_count_is_a_noop() {
        parallel_for(0, |_| panic!("must not run"));
    }

    #[test]
    fn chunks_mut_covers_disjoint_ranges() {
        for threads in [1, 2, 8] {
            let mut data = vec![0u64; 10_007];
            with_max_threads(threads, || {
                parallel_for_chunks_mut(&mut data, 64, |idx, chunk| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v += (idx * 64 + k) as u64 + 1;
                    }
                });
            });
            assert!(
                data.iter().enumerate().all(|(i, &v)| v == i as u64 + 1),
                "every element written exactly once at threads={threads}"
            );
        }
    }

    #[test]
    fn chunks_mut_handles_ragged_tail_and_empty() {
        let mut data = vec![0u8; 10];
        parallel_for_chunks_mut(&mut data, 3, |idx, chunk| {
            assert_eq!(chunk.len(), if idx == 3 { 1 } else { 3 });
            chunk.fill(1);
        });
        assert!(data.iter().all(|&v| v == 1));
        let mut empty: Vec<u8> = Vec::new();
        parallel_for_chunks_mut(&mut empty, 4, |_, _| panic!("must not run"));
    }

    #[test]
    fn pooled_tasks_adopt_the_submitters_span_context() {
        edge_obs::set_trace_enabled(true);
        let request = edge_obs::trace::next_request_id();
        let outer_id;
        {
            let _scope = edge_obs::trace::request_scope(request);
            let outer = edge_obs::span("par.adopt.outer");
            outer_id = edge_obs::trace::current_context().span;
            with_max_threads(4, || {
                parallel_for(8, |_| {
                    // Hold chunks so parked workers wake and claim some.
                    std::thread::sleep(std::time::Duration::from_millis(10));
                    let _inner = edge_obs::span("par.adopt.inner");
                });
            });
            drop(outer);
        }
        edge_obs::set_trace_enabled(false);
        let records = edge_obs::trace::records();
        let inners: Vec<_> = records.iter().filter(|r| r.name == "par.adopt.inner").collect();
        assert_eq!(inners.len(), 8);
        for inner in &inners {
            assert_eq!(inner.parent, outer_id, "pooled span must parent to the submitter");
            assert_eq!(inner.request, request, "pooled span must keep the request id");
        }
        let threads: HashSet<u64> = inners.iter().map(|r| r.thread).collect();
        assert!(threads.len() >= 2, "adoption must be exercised across threads");
    }

    #[test]
    fn job_cache_survives_repeated_dispatch() {
        // Back-to-back regions from one thread must stay correct whether the
        // cached job allocation is reused or not (reuse is best-effort).
        let total = AtomicU64::new(0);
        with_max_threads(4, || {
            for _ in 0..100 {
                parallel_for(257, |i| {
                    total.fetch_add(i as u64, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 100 * (0..257).sum::<u64>());
    }

    #[test]
    fn dispatch_after_panic_is_clean() {
        with_max_threads(4, || {
            let _ = std::panic::catch_unwind(|| {
                parallel_for(512, |i| {
                    if i == 100 {
                        panic!("poisoned region");
                    }
                });
            });
            // The cached job from the panicked region must be fully reset.
            let sum = AtomicU64::new(0);
            parallel_for(512, |i| {
                sum.fetch_add(i as u64, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), (0..512).sum::<u64>());
        });
    }
}
