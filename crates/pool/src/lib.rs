//! A dependency-free work-stealing thread pool for frame-parallel
//! pipeline execution.
//!
//! The DiEvent pipeline historically parallelized only *across*
//! cameras: a 4-camera recording could never use more than 4 cores.
//! This crate provides the shared execution substrate that lets every
//! stage fan work *within* a camera (per-frame extraction chunks,
//! per-frame look-at fusion) without oversubscribing the machine: all
//! callers share one lazily-created [global pool](ThreadPool::global)
//! sized from [`std::thread::available_parallelism`].
//!
//! # Architecture
//!
//! One **injector** queue receives work submitted from outside the
//! pool; each worker additionally owns a **deque** it pushes nested
//! work onto (LIFO for cache locality). Idle workers first drain their
//! own deque, then the injector (FIFO), then **steal** the oldest task
//! from a sibling's deque — the classic work-stealing discipline,
//! implemented with mutex-guarded deques rather than a lock-free
//! Chase–Lev buffer so the crate stays free of `unsafe` memory
//! management (the only `unsafe` in this crate is the scoped-lifetime
//! erasure in [`Scope::spawn`], mirroring `std::thread::scope`).
//!
//! # Blocking and helping
//!
//! Both join points ([`ThreadPool::scope`] and
//! [`ThreadPool::parallel_chunk_map`]) block until their tasks
//! complete — and while blocked, the waiting thread *helps*: it
//! executes queued pool tasks instead of sleeping. This has two
//! consequences:
//!
//! * a nested `scope` from inside a pool worker cannot deadlock, even
//!   when every worker is blocked in a join — each blocked worker keeps
//!   executing pending tasks, including the nested ones;
//! * a pool with zero workers (spawn failure, exotic platforms) still
//!   makes progress: the joining thread simply runs everything itself.
//!
//! # Panic safety
//!
//! A panicking task never takes the pool down: panics are caught at the
//! task boundary, the join completes, and the join point reports
//! [`PoolError::WorkerPanicked`] (which `dievent-core` maps to
//! `DiEventError::PoolWorkerPanicked`). Results produced by sibling
//! tasks of a panicked batch are discarded rather than returned
//! partially.
//!
//! # Determinism
//!
//! [`ThreadPool::parallel_chunk_map`] places results by input
//! position, so its output is bit-identical to a sequential loop
//! regardless of worker count, chunk boundaries, or scheduling order.
//! The pipeline's `pool_parallel ≡ sequential` digest guarantee is
//! built on this property.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Errors reported by pool join points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// At least one task in the joined batch panicked. `message`
    /// carries the first panic payload when it was a string.
    WorkerPanicked {
        /// Stringified panic payload, when recoverable.
        message: Option<String>,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerPanicked { message: Some(m) } => {
                write!(f, "a pool task panicked: {m}")
            }
            PoolError::WorkerPanicked { message: None } => write!(f, "a pool task panicked"),
        }
    }
}

impl std::error::Error for PoolError {}

/// Monotonic counters describing pool activity, read with
/// [`ThreadPool::stats`]. The pipeline publishes deltas of these into
/// its telemetry domain as `pool.tasks` / `pool.steals`, plus the
/// instantaneous [`ThreadPool::queue_depth`] as `pool.queue_depth`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Tasks executed to completion (including panicked ones).
    pub tasks: u64,
    /// Tasks a worker took from a *sibling worker's* deque.
    pub steals: u64,
    /// Tasks submitted through the external injector queue.
    pub injected: u64,
    /// Cumulative nanoseconds tasks spent queued before any thread
    /// picked them up (the pool-level queue-wait component of frame
    /// lineage).
    pub queue_wait_ns: u64,
    /// Cumulative nanoseconds threads spent executing tasks.
    pub run_ns: u64,
}

/// A queued unit of work, stamped at submission so the pool can
/// attribute queue-wait separately from execution time.
struct Job {
    run: Box<dyn FnOnce() + Send + 'static>,
    queued_at: std::time::Instant,
}

/// One worker's own deque. The owner pushes and pops at the back
/// (LIFO); thieves and helpers take from the front (FIFO), so the
/// oldest — typically largest — subtree migrates first.
struct WorkerQueue {
    deque: Mutex<VecDeque<Job>>,
    /// Mirror of `deque.len()` so idle checks don't take every lock.
    len: AtomicUsize,
}

impl WorkerQueue {
    fn new() -> Self {
        WorkerQueue {
            deque: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }
}

struct Shared {
    /// Unique id distinguishing pools, so a worker of pool A that calls
    /// into pool B does not push onto an A-local deque index.
    pool_id: u64,
    injector: Mutex<VecDeque<Job>>,
    injector_len: AtomicUsize,
    workers: Vec<WorkerQueue>,
    /// Sleep support: workers wait here when no work is visible.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    shutdown: AtomicBool,
    tasks: AtomicU64,
    steals: AtomicU64,
    injected: AtomicU64,
    queue_wait_ns: AtomicU64,
    run_ns: AtomicU64,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // Queue contents are plain jobs and every critical section is
    // panic-free, so a poisoned lock is recoverable.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Makes `job` visible to the pool. Workers push to their own deque
    /// (when they belong to this pool); everyone else injects.
    fn push(&self, job: Job) {
        match current_worker(self.pool_id) {
            Some(idx) => {
                let q = &self.workers[idx];
                lock(&q.deque).push_back(job);
                q.len.fetch_add(1, Ordering::SeqCst);
            }
            None => {
                lock(&self.injector).push_back(job);
                self.injector_len.fetch_add(1, Ordering::SeqCst);
                self.injected.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Wake sleepers *after* the job is visible; the lock/notify
        // pairing with the sleep path below prevents missed wakeups.
        let _g = lock(&self.idle_lock);
        self.idle_cv.notify_all();
    }

    fn pop_own(&self, idx: usize) -> Option<Job> {
        let q = &self.workers[idx];
        if q.len.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let job = lock(&q.deque).pop_back();
        if job.is_some() {
            q.len.fetch_sub(1, Ordering::SeqCst);
        }
        job
    }

    fn pop_injector(&self) -> Option<Job> {
        if self.injector_len.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let job = lock(&self.injector).pop_front();
        if job.is_some() {
            self.injector_len.fetch_sub(1, Ordering::SeqCst);
        }
        job
    }

    /// Steals the oldest task from a sibling deque. `not` is the
    /// stealing worker's own index (or `usize::MAX` for helpers).
    fn steal(&self, not: usize) -> Option<Job> {
        for (i, q) in self.workers.iter().enumerate() {
            if i == not || q.len.load(Ordering::SeqCst) == 0 {
                continue;
            }
            if let Some(job) = lock(&q.deque).pop_front() {
                q.len.fetch_sub(1, Ordering::SeqCst);
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    /// One unit of progress from any queue, from the perspective of a
    /// thread with worker index `idx` (`usize::MAX` = external helper).
    fn find_job(&self, idx: usize) -> Option<Job> {
        if idx != usize::MAX {
            if let Some(job) = self.pop_own(idx) {
                return Some(job);
            }
        }
        self.pop_injector().or_else(|| self.steal(idx))
    }

    fn run_job(&self, job: Job) {
        let started = std::time::Instant::now();
        // Saturates to zero when clocks race; never panics.
        let waited = started.duration_since(job.queued_at);
        (job.run)();
        self.queue_wait_ns
            .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
        self.run_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.tasks.fetch_add(1, Ordering::Relaxed);
    }

    fn queued(&self) -> usize {
        self.injector_len.load(Ordering::SeqCst)
            + self
                .workers
                .iter()
                .map(|q| q.len.load(Ordering::SeqCst))
                .sum::<usize>()
    }
}

/// How long a worker sleeps before re-checking the queues and the
/// shutdown flag (belt and braces under the condvar wakeup).
const WORKER_PARK: Duration = Duration::from_millis(50);
/// How long a join point sleeps between help attempts when no task is
/// runnable (its own batch may be executing on workers).
const JOIN_PARK: Duration = Duration::from_millis(1);

fn worker_loop(shared: Arc<Shared>, idx: usize) {
    set_current_worker(Some((shared.pool_id, idx)));
    loop {
        if let Some(job) = shared.find_job(idx) {
            shared.run_job(job);
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let guard = lock(&shared.idle_lock);
        // Re-check under the lock: a push after our scan but before
        // this lock acquisition is visible here; a push after it will
        // notify while we wait.
        if shared.queued() == 0 && !shared.shutdown.load(Ordering::SeqCst) {
            let _ = shared
                .idle_cv
                .wait_timeout(guard, WORKER_PARK)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    set_current_worker(None);
}

std::thread_local! {
    /// `(pool_id, worker_index)` for pool worker threads.
    static CURRENT_WORKER: std::cell::Cell<Option<(u64, usize)>> =
        const { std::cell::Cell::new(None) };
}

fn current_worker(pool_id: u64) -> Option<usize> {
    CURRENT_WORKER.with(|c| match c.get() {
        Some((id, idx)) if id == pool_id => Some(idx),
        _ => None,
    })
}

fn set_current_worker(v: Option<(u64, usize)>) {
    CURRENT_WORKER.with(|c| c.set(v));
}

/// Join-point bookkeeping for one batch of spawned tasks.
struct Batch {
    pending: AtomicUsize,
    panicked: AtomicBool,
    panic_message: Mutex<Option<String>>,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl Batch {
    fn new() -> Arc<Self> {
        Arc::new(Batch {
            pending: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            panic_message: Mutex::new(None),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        })
    }

    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        self.panicked.store(true, Ordering::SeqCst);
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned());
        if let Some(m) = message {
            lock(&self.panic_message).get_or_insert(m);
        }
    }

    fn complete_one(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _g = lock(&self.done_lock);
            self.done_cv.notify_all();
        }
    }
}

/// Dropping the last user handle shuts the pool down (workers finish
/// queued tasks, then exit). The global pool's handle lives forever.
struct HandleGuard {
    shared: Arc<Shared>,
}

impl Drop for HandleGuard {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _g = lock(&self.shared.idle_lock);
        self.shared.idle_cv.notify_all();
    }
}

/// A handle to a work-stealing thread pool. Cheap to clone; the pool
/// shuts down when the last handle drops.
#[derive(Clone)]
pub struct ThreadPool {
    shared: Arc<Shared>,
    _guard: Arc<HandleGuard>,
}

static POOL_IDS: AtomicU64 = AtomicU64::new(0);
static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

impl ThreadPool {
    /// Builds a pool with `threads` workers (clamped to ≥ 1 requested;
    /// fewer may start if thread spawning fails — joins still make
    /// progress by helping).
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            pool_id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            injector: Mutex::new(VecDeque::new()),
            injector_len: AtomicUsize::new(0),
            workers: (0..threads).map(|_| WorkerQueue::new()).collect(),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            queue_wait_ns: AtomicU64::new(0),
            run_ns: AtomicU64::new(0),
        });
        for idx in 0..threads {
            let shared = Arc::clone(&shared);
            // Spawn failure leaves a worker slot empty; helpers cover it.
            let _ = std::thread::Builder::new()
                .name(format!("dievent-pool-{idx}"))
                .spawn(move || worker_loop(shared, idx));
        }
        ThreadPool {
            _guard: Arc::new(HandleGuard {
                shared: Arc::clone(&shared),
            }),
            shared,
        }
    }

    /// The shared process-wide pool, created on first use and sized
    /// from [`std::thread::available_parallelism`] (override with the
    /// `DIEVENT_POOL_THREADS` environment variable). Every pipeline
    /// session and camera worker shares this pool — that is the
    /// no-oversubscription rule: N camera workers fanning frame chunks
    /// produce tasks for *one* set of `available_parallelism` workers,
    /// never `cameras × threads` threads.
    pub fn global() -> &'static ThreadPool {
        GLOBAL.get_or_init(|| {
            let threads = std::env::var("DIEVENT_POOL_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
            ThreadPool::new(threads)
        })
    }

    /// Number of worker threads this pool was built with.
    pub fn threads(&self) -> usize {
        self.shared.workers.len()
    }

    /// Monotonic activity counters (see [`PoolStats`]).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks: self.shared.tasks.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            injected: self.shared.injected.load(Ordering::Relaxed),
            queue_wait_ns: self.shared.queue_wait_ns.load(Ordering::Relaxed),
            run_ns: self.shared.run_ns.load(Ordering::Relaxed),
        }
    }

    /// Tasks currently queued (injector + all worker deques).
    pub fn queue_depth(&self) -> usize {
        self.shared.queued()
    }

    /// Runs `f` with a [`Scope`] that can spawn borrowing tasks, then
    /// blocks (helping) until every spawned task finished.
    ///
    /// Returns [`PoolError::WorkerPanicked`] when any spawned task
    /// panicked; a panic in `f` itself resumes unwinding in the caller
    /// after all spawned tasks joined (exactly like
    /// [`std::thread::scope`]).
    pub fn scope<'env, T>(&self, f: impl FnOnce(&Scope<'env>) -> T) -> Result<T, PoolError> {
        let batch = Batch::new();
        let scope = Scope {
            shared: Arc::clone(&self.shared),
            batch: Arc::clone(&batch),
            _env: std::marker::PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Join before looking at anything else — also on the panic
        // path, so spawned tasks never outlive borrowed data.
        self.wait_batch(&batch);
        match result {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(value) => {
                if batch.panicked.load(Ordering::SeqCst) {
                    Err(PoolError::WorkerPanicked {
                        message: lock(&batch.panic_message).take(),
                    })
                } else {
                    Ok(value)
                }
            }
        }
    }

    /// Splits `items` into contiguous chunks of at most `chunk_size`,
    /// maps each chunk on the pool with `f(offset, chunk)`, and
    /// returns the concatenated results in input order. `f` runs once
    /// per chunk, so per-chunk scratch state is allocated `⌈n/chunk⌉`
    /// times instead of `n` times.
    pub fn parallel_chunk_map<T: Sync, R: Send>(
        &self,
        items: &[T],
        chunk_size: usize,
        f: impl Fn(usize, &[T]) -> Vec<R> + Sync,
    ) -> Result<Vec<R>, PoolError> {
        let chunk_size = chunk_size.max(1);
        if items.len() <= chunk_size {
            // Too small to be worth a join point.
            return Ok(f(0, items));
        }
        let chunks: Vec<(usize, &[T])> = items
            .chunks(chunk_size)
            .enumerate()
            .map(|(i, c)| (i * chunk_size, c))
            .collect();
        let mut slots: Vec<Option<Vec<R>>> = (0..chunks.len()).map(|_| None).collect();
        let f = &f;
        self.scope(|s| {
            for (slot, (offset, chunk)) in slots.iter_mut().zip(chunks) {
                s.spawn(move || {
                    *slot = Some(f(offset, chunk));
                });
            }
        })?;
        let mut out = Vec::with_capacity(items.len());
        for slot in slots {
            match slot {
                Some(part) => out.extend(part),
                // Unreachable when scope returned Ok; stay panic-free.
                None => return Err(PoolError::WorkerPanicked { message: None }),
            }
        }
        Ok(out)
    }

    /// Blocks until `batch` completes, executing queued pool tasks
    /// while waiting (the no-deadlock / zero-worker guarantee).
    fn wait_batch(&self, batch: &Batch) {
        let idx = current_worker(self.shared.pool_id).unwrap_or(usize::MAX);
        loop {
            if batch.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            if let Some(job) = self.shared.find_job(idx) {
                self.shared.run_job(job);
                continue;
            }
            let guard = lock(&batch.done_lock);
            if batch.pending.load(Ordering::SeqCst) == 0 {
                return;
            }
            // Short park: our batch's remaining tasks are running on
            // workers (or queued in a deque we lost a race on).
            let _ = batch
                .done_cv
                .wait_timeout(guard, JOIN_PARK)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads())
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

/// Spawn surface handed to [`ThreadPool::scope`] closures. Tasks may
/// borrow anything that outlives the `scope` call (`'env`).
pub struct Scope<'env> {
    shared: Arc<Shared>,
    batch: Arc<Batch>,
    /// Invariance over `'env`, mirroring `std::thread::scope`: the
    /// borrow may not be shortened by variance.
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Spawns a task on the pool. The task may borrow `'env` data; the
    /// enclosing [`ThreadPool::scope`] call joins it before returning.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.batch.pending.fetch_add(1, Ordering::SeqCst);
        let batch = Arc::clone(&self.batch);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                batch.record_panic(payload);
            }
            batch.complete_one();
        });
        // SAFETY: the job borrows at most `'env` data. `Scope` is only
        // obtainable inside `ThreadPool::scope`, which blocks — on both
        // the success and unwind paths — until `batch.pending` reaches
        // zero, i.e. until this job's wrapper ran to completion and was
        // dropped. Therefore the job never outlives `'env`, and the
        // lifetime erasure to `'static` required by the type-erased
        // queue cannot be observed. This mirrors `std::thread::scope`.
        let run: Box<dyn FnOnce() + Send + 'static> = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(
                job,
            )
        };
        self.shared.push(Job {
            run,
            queued_at: std::time::Instant::now(),
        });
    }
}

/// Per-worker-thread storage: each thread that calls
/// [`with`](WorkerLocal::with) gets its own lazily-created `T`, reused
/// across calls from that thread. Built for arena-style scratch buffers
/// in pool-fanned closures — each pool worker warms its own arena once
/// and then reuses it for every chunk it steals, with no cross-thread
/// contention during the closure body.
///
/// The value is *removed* from the map while the closure runs and
/// reinserted afterwards, so the (brief) map lock is never held during
/// user code. A re-entrant `with` on the same thread therefore sees a
/// fresh `T` — fine for scratch buffers, where correctness never
/// depends on which instance you get.
#[derive(Debug, Default)]
pub struct WorkerLocal<T> {
    slots: Mutex<std::collections::HashMap<std::thread::ThreadId, T>>,
}

impl<T: Default> WorkerLocal<T> {
    /// Creates an empty store; per-thread values are created on first
    /// use via `T::default()`.
    pub fn new() -> Self {
        WorkerLocal {
            slots: Mutex::new(std::collections::HashMap::new()),
        }
    }

    /// Runs `f` with this thread's instance, creating it on first use.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let id = std::thread::current().id();
        let mut value = lock(&self.slots).remove(&id).unwrap_or_default();
        let out = f(&mut value);
        lock(&self.slots).insert(id, value);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn chunk_map_preserves_order() {
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..1000).collect();
        let out = pool
            .parallel_chunk_map(&items, 16, |_, c| c.iter().map(|&x| x * 2).collect())
            .expect("map");
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_map_matches_sequential_for_any_chunking() {
        let pool = ThreadPool::new(3);
        let items: Vec<u64> = (0..257).collect();
        let reference: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 7).collect();
        for chunk in [1, 2, 7, 64, 300] {
            let out = pool
                .parallel_chunk_map(&items, chunk, |_, c| {
                    c.iter().map(|&x| x.wrapping_mul(x) ^ 7).collect()
                })
                .expect("map");
            assert_eq!(out, reference, "chunk size {chunk}");
        }
    }

    #[test]
    fn chunk_map_offsets_are_correct() {
        let pool = ThreadPool::new(2);
        let items: Vec<usize> = (0..100).collect();
        let out = pool
            .parallel_chunk_map(&items, 9, |offset, chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| {
                        assert_eq!(offset + i, x, "offset must address the original slice");
                        x
                    })
                    .collect()
            })
            .expect("map");
        assert_eq!(out, items);
    }

    #[test]
    fn scope_tasks_borrow_stack_data() {
        let pool = ThreadPool::new(2);
        let data: Vec<u32> = (0..64).collect();
        let sums: Mutex<Vec<u32>> = Mutex::new(Vec::new());
        pool.scope(|s| {
            for chunk in data.chunks(8) {
                let sums = &sums;
                s.spawn(move || {
                    let sum: u32 = chunk.iter().sum();
                    lock(sums).push(sum);
                });
            }
        })
        .expect("scope");
        let collected: u32 = lock(&sums).iter().sum();
        assert_eq!(collected, (0..64).sum::<u32>());
    }

    #[test]
    fn work_stealing_under_imbalance() {
        // One heavily skewed task plus many tiny ones: with more than
        // one worker the tiny tasks migrate off the loaded deque. The
        // batch must complete either way; on a multi-worker pool the
        // steal counter moves.
        let pool = ThreadPool::new(4);
        let done = AtomicU32::new(0);
        pool.scope(|s| {
            for i in 0..64 {
                let done = &done;
                s.spawn(move || {
                    // Nested spawn from pool workers lands on worker
                    // deques, creating stealable work.
                    if i == 0 {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    let mut acc = 0u64;
                    for k in 0..5_000u64 {
                        acc = acc.wrapping_add(k * k);
                    }
                    assert!(acc > 0);
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        })
        .expect("scope");
        assert_eq!(done.load(Ordering::SeqCst), 64);
        let stats = pool.stats();
        assert_eq!(stats.tasks, 64);
    }

    #[test]
    fn nested_spawns_generate_steals() {
        // Tasks that themselves spawn create deque-local work; sibling
        // workers must steal it for the inner batch to spread.
        let pool = ThreadPool::new(4);
        let done = AtomicU32::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                let done = &done;
                s.spawn(move || {
                    ThreadPool::global()
                        .scope(|inner| {
                            for _ in 0..32 {
                                inner.spawn(|| std::thread::sleep(Duration::from_micros(200)));
                            }
                        })
                        .expect("inner");
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        })
        .expect("outer");
        assert_eq!(done.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn panic_in_task_is_reported_not_fatal() {
        let pool = ThreadPool::new(2);
        let err = pool
            .parallel_chunk_map(&[1u32, 2, 3, 4, 5, 6, 7, 8], 1, |_, c| {
                assert!(c[0] != 5, "task five exploded");
                c.to_vec()
            })
            .expect_err("must report the panic");
        let PoolError::WorkerPanicked { message } = err;
        assert!(
            message.as_deref().is_some_and(|m| m.contains("exploded")),
            "payload should surface: {message:?}"
        );
        // The pool survives and keeps working.
        let ok = pool
            .parallel_chunk_map(&[1u32, 2, 3], 1, |_, c| c.iter().map(|&x| x + 1).collect())
            .expect("map");
        assert_eq!(ok, vec![2, 3, 4]);
    }

    #[test]
    fn scope_body_panic_resumes_after_join() {
        let pool = ThreadPool::new(2);
        let ran = Arc::new(AtomicU32::new(0));
        let ran2 = Arc::clone(&ran);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _: Result<(), PoolError> = pool.scope(|s| {
                let ran = &ran2;
                for _ in 0..4 {
                    s.spawn(move || {
                        std::thread::sleep(Duration::from_millis(5));
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                }
                panic!("scope body dies");
            });
        }));
        assert!(result.is_err(), "body panic must propagate");
        // All spawned tasks joined before the unwind escaped.
        assert_eq!(ran.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn nested_scope_from_pool_worker_does_not_deadlock() {
        // Depth-3 nesting on a 1-worker pool: only the helping join
        // points can make progress. Completion proves no deadlock.
        let pool = ThreadPool::new(1);
        let total = AtomicU32::new(0);
        pool.scope(|outer| {
            for _ in 0..3 {
                let total = &total;
                let pool = &pool;
                outer.spawn(move || {
                    pool.scope(|inner| {
                        for _ in 0..3 {
                            let total = &total;
                            let pool = &pool;
                            inner.spawn(move || {
                                let n = pool
                                    .parallel_chunk_map(&[1u32, 2, 3], 1, |_, c| c.to_vec())
                                    .expect("innermost")
                                    .len();
                                total.fetch_add(n as u32, Ordering::SeqCst);
                            });
                        }
                    })
                    .expect("inner scope");
                });
            }
        })
        .expect("outer scope");
        assert_eq!(total.load(Ordering::SeqCst), 27);
    }

    #[test]
    fn zero_len_and_tiny_inputs() {
        let pool = ThreadPool::new(2);
        let empty: Vec<u32> = Vec::new();
        let copy = |_: usize, c: &[u32]| c.to_vec();
        assert_eq!(
            pool.parallel_chunk_map(&empty, 1, copy).expect("empty"),
            empty
        );
        assert_eq!(
            pool.parallel_chunk_map(&[9u32], 1, copy).expect("one"),
            vec![9]
        );
        pool.scope(|_| {}).expect("empty scope");
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = ThreadPool::global();
        let b = ThreadPool::global();
        assert_eq!(a.shared.pool_id, b.shared.pool_id);
        assert!(a.threads() >= 1);
    }

    #[test]
    fn stats_count_tasks_and_injection() {
        let pool = ThreadPool::new(2);
        let before = pool.stats();
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {});
            }
        })
        .expect("scope");
        let after = pool.stats();
        assert!(after.tasks > before.tasks);
        assert!(after.injected > before.injected, "external submits inject");
    }

    #[test]
    fn stats_attribute_queue_wait_and_run_time() {
        let pool = ThreadPool::new(2);
        let before = pool.stats();
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| std::thread::sleep(Duration::from_millis(2)));
            }
        })
        .expect("scope");
        let after = pool.stats();
        assert!(
            after.run_ns >= before.run_ns + 8 * 2_000_000,
            "sleeping tasks must accrue run time: {} -> {}",
            before.run_ns,
            after.run_ns
        );
        assert!(after.queue_wait_ns >= before.queue_wait_ns);
    }

    #[test]
    fn dropping_last_handle_shuts_down_workers() {
        let pool = ThreadPool::new(2);
        let shared = Arc::clone(&pool.shared);
        drop(pool);
        // Workers observe shutdown within a park interval.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while Arc::strong_count(&shared) > 1 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            Arc::strong_count(&shared),
            1,
            "workers must drop their Arc on shutdown"
        );
    }

    #[test]
    fn deterministic_results_across_pool_sizes() {
        let items: Vec<u64> = (0..500).collect();
        let reference: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1usize, 2, 5, 8] {
            let pool = ThreadPool::new(threads);
            for chunk in [1, 3, 64, 500] {
                let out = pool
                    .parallel_chunk_map(&items, chunk, |_, c| {
                        c.iter().map(|&x| x * 3 + 1).collect()
                    })
                    .expect("map");
                assert_eq!(out, reference, "{threads} threads, chunk size {chunk}");
            }
        }
    }

    #[test]
    fn worker_local_reuses_per_thread_value() {
        let local: WorkerLocal<Vec<u32>> = WorkerLocal::new();
        local.with(|v| v.push(1));
        local.with(|v| v.push(2));
        let seen = local.with(|v| v.clone());
        assert_eq!(seen, vec![1, 2], "same thread must see the same instance");
    }

    #[test]
    fn worker_local_isolates_threads() {
        let local = WorkerLocal::<Vec<u64>>::new();
        let pool = ThreadPool::new(3);
        let items: Vec<u64> = (0..64).collect();
        let out = pool
            .parallel_chunk_map(&items, 4, |_, c| {
                c.iter()
                    .map(|&x| {
                        local.with(|v| {
                            v.push(x);
                            v.len()
                        })
                    })
                    .collect()
            })
            .expect("map");
        // Every call appended exactly one element to *some* thread's
        // vec, so per-call lengths within a thread are strictly
        // increasing and the total across threads is the item count.
        assert_eq!(out.len(), items.len());
        let total: usize = local.with(|mine| mine.len()) + {
            // Drain the other threads' slots through the map.
            let slots = lock(&local.slots);
            let me = std::thread::current().id();
            slots
                .iter()
                .filter(|(id, _)| **id != me)
                .map(|(_, v)| v.len())
                .sum::<usize>()
        };
        assert_eq!(total, items.len());
    }
}
