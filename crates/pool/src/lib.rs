//! A dependency-free thread pool for frame-parallel pipeline execution.
//!
//! A camera lane fans its frame chunks over the cores through
//! [`ThreadPool::parallel_chunk_map`]. All callers share one
//! lazily-created [global pool](ThreadPool::global) sized from
//! [`std::thread::available_parallelism`], so the machine is never
//! oversubscribed.
//!
//! # One queue, helping joins
//!
//! The pool has one job queue and one condvar; workers block until a
//! job or shutdown arrives. A call queues one job per chunk, then runs
//! queued jobs itself until the queue is empty, then sleeps until its
//! last chunk completes. Progress cannot stall: every job of a call is
//! queued before its join starts, so once the queue is empty each
//! remaining job is running on some thread. Hence a nested call from
//! inside a chunk cannot deadlock, and a pool whose workers failed to
//! spawn still makes progress on the calling thread.
//!
//! # Panics and determinism
//!
//! A panicking chunk never takes the pool down: the panic is caught,
//! the join completes, and the call reports
//! [`PoolError::WorkerPanicked`] (which `dievent-core` maps to
//! `DiEventError::PoolWorkerPanicked`), discarding the sibling chunks'
//! results. Results are placed by input position, so the output is
//! bit-identical to a sequential loop regardless of worker count, chunk
//! boundaries, or scheduling order. The pipeline's
//! `pool_parallel ≡ sequential` digest guarantee is built on this.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Errors reported by [`ThreadPool::parallel_chunk_map`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// At least one chunk of the batch panicked. `message` carries the
    /// first panic payload when it was a string.
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
/// its telemetry domain as `pool.tasks`, `pool.task_wait_ns` and
/// `pool.task_run_ns`, plus the instantaneous
/// [`ThreadPool::queue_depth`] as `pool.queue_depth`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Tasks executed to completion (including panicked ones).
    pub tasks: u64,
    /// Always 0: the pool has one shared queue, so no task is ever
    /// taken from another worker. Kept because the benchmark's
    /// `pool.steal_share` still reads it.
    pub steals: u64,
    /// Cumulative nanoseconds tasks spent queued before any thread
    /// picked them up (the pool-level queue-wait component of frame
    /// lineage).
    pub queue_wait_ns: u64,
    /// Cumulative nanoseconds threads spent executing tasks.
    pub run_ns: u64,
}

/// Runs one chunk and stores its result; `Err` holds a panic payload.
type RunChunk<'a> = Box<dyn FnOnce() -> std::thread::Result<()> + Send + 'a>;

/// A queued unit of work, stamped at submission so the pool can
/// attribute queue-wait separately from execution time.
struct Job {
    run: RunChunk<'static>,
    batch: Arc<Batch>,
    queued_at: Instant,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    /// Workers wait here for a job or shutdown.
    work: Condvar,
    shutdown: AtomicBool,
    threads: usize,
    tasks: AtomicU64,
    queue_wait_ns: AtomicU64,
    run_ns: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Queue and batch state are plain data and every critical section
    // is panic-free, so a poisoned lock is recoverable.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn push_all(&self, jobs: Vec<Job>) {
        lock(&self.queue).extend(jobs);
        self.work.notify_all();
    }

    fn try_pop(&self) -> Option<Job> {
        lock(&self.queue).pop_front()
    }

    fn run_job(&self, job: Job) {
        let started = Instant::now();
        // Saturates to zero when clocks race; never panics.
        let waited = started.duration_since(job.queued_at);
        let outcome = (job.run)();
        self.queue_wait_ns
            .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
        self.run_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.tasks.fetch_add(1, Ordering::Relaxed);
        // Counted before the batch learns the job is done, so stats
        // read after `parallel_chunk_map` returns include all its jobs.
        job.batch.complete(outcome);
    }

    /// Runs queued jobs until the queue is empty, then sleeps until
    /// `batch` completes. Every job of `batch` was queued before this
    /// call, so once the queue is empty each unfinished one is running
    /// on some thread.
    fn join(&self, batch: &Batch) {
        while let Some(job) = self.try_pop() {
            self.run_job(job);
        }
        let mut state = lock(&batch.state);
        while state.pending > 0 {
            state = batch
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Runs jobs until the pool shuts down with nothing left queued.
fn worker_loop(shared: Arc<Shared>) {
    let mut queue = lock(&shared.queue);
    loop {
        if let Some(job) = queue.pop_front() {
            drop(queue);
            shared.run_job(job);
            queue = lock(&shared.queue);
        } else if shared.shutdown.load(Ordering::SeqCst) {
            return;
        } else {
            // Shutdown is set before its notify takes this lock, so a
            // worker that saw it unset is waiting when the notify fires.
            queue = shared
                .work
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Join-point bookkeeping for one `parallel_chunk_map` call.
struct Batch {
    state: Mutex<BatchState>,
    done: Condvar,
}

struct BatchState {
    /// Jobs not yet finished.
    pending: usize,
    /// `Some` once a job panicked, holding the first payload when it
    /// was a string.
    panic: Option<Option<String>>,
}

impl Batch {
    /// Marks one job finished, recording its panic payload if any.
    fn complete(&self, outcome: Result<(), Box<dyn std::any::Any + Send>>) {
        let mut state = lock(&self.state);
        if let (Err(payload), None) = (&outcome, &state.panic) {
            state.panic = Some(
                payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned()),
            );
        }
        state.pending -= 1;
        if state.pending == 0 {
            self.done.notify_all();
        }
    }
}

/// Joins its batch when dropped, so that no path out of
/// `parallel_chunk_map`, an unwind included, leaves one of its jobs
/// running.
struct JoinOnDrop<'a> {
    shared: &'a Shared,
    batch: &'a Batch,
}

impl Drop for JoinOnDrop<'_> {
    fn drop(&mut self) {
        self.shared.join(self.batch);
    }
}

/// Dropping the last user handle shuts the pool down (workers finish
/// queued jobs, then exit). The global pool's handle lives forever.
struct HandleGuard {
    shared: Arc<Shared>,
}

impl Drop for HandleGuard {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _queue = lock(&self.shared.queue);
        self.shared.work.notify_all();
    }
}

/// A handle to a thread pool. Cheap to clone; the pool shuts down when
/// the last handle drops.
#[derive(Clone)]
pub struct ThreadPool {
    shared: Arc<Shared>,
    _guard: Arc<HandleGuard>,
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

impl ThreadPool {
    /// Builds a pool with `threads` workers (clamped to ≥ 1 requested;
    /// fewer may start if thread spawning fails — joins still make
    /// progress by helping).
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
            threads,
            tasks: AtomicU64::new(0),
            queue_wait_ns: AtomicU64::new(0),
            run_ns: AtomicU64::new(0),
        });
        for idx in 0..threads {
            let shared = Arc::clone(&shared);
            // Spawn failure leaves a worker slot empty; helpers cover it.
            let _ = std::thread::Builder::new()
                .name(format!("dievent-pool-{idx}"))
                .spawn(move || worker_loop(shared));
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
        self.shared.threads
    }

    /// Monotonic activity counters (see [`PoolStats`]).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks: self.shared.tasks.load(Ordering::Relaxed),
            steals: 0,
            queue_wait_ns: self.shared.queue_wait_ns.load(Ordering::Relaxed),
            run_ns: self.shared.run_ns.load(Ordering::Relaxed),
        }
    }

    /// Tasks currently queued and not yet picked up.
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.queue).len()
    }

    /// Splits `items` into contiguous chunks of at most `chunk_size`,
    /// maps each chunk on the pool with `f(offset, chunk)`, and
    /// returns the concatenated results in input order. `f` runs once
    /// per chunk, so per-chunk scratch state is allocated `⌈n/chunk⌉`
    /// times instead of `n` times. A single chunk runs inline.
    ///
    /// The calling thread helps: it runs queued jobs until the queue is
    /// empty, then waits for its own chunks to finish. `f` may call
    /// `parallel_chunk_map` again.
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
        let mut slots: Vec<Option<Vec<R>>> = (0..items.len().div_ceil(chunk_size))
            .map(|_| None)
            .collect();
        let batch = Arc::new(Batch {
            state: Mutex::new(BatchState {
                pending: slots.len(),
                panic: None,
            }),
            done: Condvar::new(),
        });
        let f = &f;
        let queued_at = Instant::now();
        let jobs: Vec<Job> = slots
            .iter_mut()
            .zip(items.chunks(chunk_size))
            .enumerate()
            .map(|(i, (slot, chunk))| {
                let job: RunChunk<'_> = Box::new(move || {
                    catch_unwind(AssertUnwindSafe(|| f(i * chunk_size, chunk)))
                        .map(|part| *slot = Some(part))
                });
                // SAFETY: the job borrows `items`, `f` and one slot of
                // `slots`, which all outlive this call. Jobs reach the
                // queue only in `push_all` below, after `_join` exists,
                // and `_join`'s `Drop` (on return and unwind alike)
                // waits until `pending` is zero. `run_job` decrements it
                // only after the job closure has returned and been
                // consumed (the `Arc<Batch>` is owned), so no job
                // touches a borrow after this call returns, and erasing
                // the lifetime to `'static` for the queue is never
                // observable. Jobs never queued are dropped unrun.
                let run = unsafe { std::mem::transmute::<RunChunk<'_>, RunChunk<'static>>(job) };
                Job {
                    run,
                    batch: Arc::clone(&batch),
                    queued_at,
                }
            })
            .collect();
        {
            let _join = JoinOnDrop {
                shared: &self.shared,
                batch: &batch,
            };
            self.shared.push_all(jobs);
        }
        if let Some(message) = lock(&batch.state).panic.take() {
            return Err(PoolError::WorkerPanicked { message });
        }
        let mut out = Vec::with_capacity(items.len());
        for slot in slots {
            match slot {
                Some(part) => out.extend(part),
                // Unreachable when no chunk panicked; stay panic-free.
                None => return Err(PoolError::WorkerPanicked { message: None }),
            }
        }
        Ok(out)
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

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
    fn panic_in_task_is_reported_not_fatal() {
        let pool = ThreadPool::new(2);
        let caller = std::thread::current().id();
        let ran = AtomicU32::new(0);
        let err = pool
            .parallel_chunk_map(&[1u32, 2, 3, 4, 5, 6, 7, 8], 1, |_, c| {
                assert!(c[0] != 5, "task five exploded");
                // Chunks on pool workers finish after the caller has
                // drained the queue, so the join must wait for them.
                if std::thread::current().id() != caller {
                    std::thread::sleep(Duration::from_millis(20));
                }
                ran.fetch_add(1, Ordering::SeqCst);
                c.to_vec()
            })
            .expect_err("must report the panic");
        let PoolError::WorkerPanicked { message } = err;
        assert!(
            message.as_deref().is_some_and(|m| m.contains("exploded")),
            "payload should surface: {message:?}"
        );
        // Every sibling chunk finished before the error was returned.
        assert_eq!(ran.load(Ordering::SeqCst), 7);
        // The pool survives and keeps working.
        let ok = pool
            .parallel_chunk_map(&[1u32, 2, 3], 1, |_, c| c.iter().map(|&x| x + 1).collect())
            .expect("map");
        assert_eq!(ok, vec![2, 3, 4]);
    }

    #[test]
    fn nested_scope_from_pool_worker_does_not_deadlock() {
        // Depth-3 nesting on a 1-worker pool: only the helping joins
        // can make progress. Completion proves no deadlock.
        let pool = ThreadPool::new(1);
        let outer: Vec<u32> = (0..3).collect();
        let total: u32 = pool
            .parallel_chunk_map(&outer, 1, |_, _| {
                let inner = pool
                    .parallel_chunk_map(&outer, 1, |_, _| {
                        let n = pool
                            .parallel_chunk_map(&[1u32, 2, 3], 1, |_, c| c.to_vec())
                            .expect("innermost")
                            .len();
                        vec![n as u32]
                    })
                    .expect("inner");
                vec![inner.iter().sum::<u32>()]
            })
            .expect("outer")
            .iter()
            .sum();
        assert_eq!(total, 27);
    }

    #[test]
    fn concurrent_nested_calls_finish() {
        // Several OS threads each run a nested map on one 2-worker
        // pool at once: callers, workers and nested joins all help
        // from the same queue. A watchdog turns a deadlock into a
        // failure instead of a hung test.
        let pool = ThreadPool::new(2);
        let (tx, rx) = std::sync::mpsc::channel();
        let start = Arc::new(std::sync::Barrier::new(4));
        let mut callers = Vec::new();
        for t in 0..4u64 {
            let pool = pool.clone();
            let tx = tx.clone();
            let start = Arc::clone(&start);
            callers.push(std::thread::spawn(move || {
                let items: Vec<u64> = (0..24).collect();
                start.wait();
                let out = pool.parallel_chunk_map(&items, 3, |_, chunk| {
                    chunk
                        .iter()
                        .map(|&x| {
                            let inner: Vec<u64> = (0..x + 2).collect();
                            pool.parallel_chunk_map(&inner, 1, |_, c| vec![c[0] * t])
                                .map_or(u64::MAX, |v| v.iter().sum())
                        })
                        .collect()
                });
                let _ = tx.send((t, out));
            }));
        }
        drop(tx);
        for _ in 0..4 {
            let (t, out) = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("every caller finishes");
            let expected: Vec<u64> = (0..24u64).map(|x| t * (x + 1) * (x + 2) / 2).collect();
            assert_eq!(out.expect("no panic"), expected, "caller {t}");
        }
        for caller in callers {
            caller.join().expect("caller thread exits cleanly");
        }
    }

    #[test]
    fn panic_in_nested_call_is_reported_and_pool_stays_usable() {
        let pool = ThreadPool::new(2);
        let items: Vec<u32> = (0..6).collect();
        let out = pool
            .parallel_chunk_map(&items, 1, |_, c| {
                let inner = pool.parallel_chunk_map(&items, 2, |_, d| {
                    assert!(!(c[0] == 3 && d[0] == 4), "nested chunk exploded");
                    d.to_vec()
                });
                vec![inner]
            })
            .expect("outer chunks catch nothing themselves");
        for (i, inner) in out.iter().enumerate() {
            match inner {
                Err(PoolError::WorkerPanicked { message }) => {
                    assert_eq!(i, 3, "only outer chunk 3 saw a panic");
                    assert!(message.as_deref().is_some_and(|m| m.contains("exploded")));
                }
                Ok(values) => assert_eq!(values, &items),
            }
        }
        assert!(out[3].is_err());
        let ok = pool
            .parallel_chunk_map(&items, 1, |_, c| vec![c[0] + 1])
            .expect("pool still works");
        assert_eq!(ok, vec![1, 2, 3, 4, 5, 6]);
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
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = ThreadPool::global();
        let b = ThreadPool::global();
        assert!(Arc::ptr_eq(&a.shared, &b.shared));
        assert!(a.threads() >= 1);
    }

    #[test]
    fn stats_count_tasks_and_injection() {
        // Every chunk is queued as one job and counted once it ran,
        // wherever it ran; nothing is ever stolen.
        let pool = ThreadPool::new(2);
        let before = pool.stats();
        let items = [0u8; 100];
        pool.parallel_chunk_map(&items, 1, |_, c| c.to_vec())
            .expect("map");
        let after = pool.stats();
        assert_eq!(after.tasks - before.tasks, 100);
        assert_eq!(after.steals, 0);
        assert_eq!(pool.queue_depth(), 0);
    }

    #[test]
    fn stats_attribute_queue_wait_and_run_time() {
        let pool = ThreadPool::new(2);
        let before = pool.stats();
        pool.parallel_chunk_map(&[0u8; 8], 1, |_, _| {
            std::thread::sleep(Duration::from_millis(2));
            Vec::<u8>::new()
        })
        .expect("map");
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
        // Workers are woken by the shutdown notify and exit.
        let deadline = Instant::now() + Duration::from_secs(5);
        while Arc::strong_count(&shared) > 1 && Instant::now() < deadline {
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
}
