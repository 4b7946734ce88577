//! The sharded worker-pool executor shared by the execution backends.
//!
//! Both the in-process runtime and the cluster nodes used to burn one OS
//! thread per unit of work (one thread per submitted event, one worker
//! thread per blocking cluster message), which collapses long before the
//! "heavy traffic from millions of users" target.  This module replaces
//! that with a fixed pool of resident workers fed by per-shard FIFO
//! injection queues:
//!
//! * **Sharding** — tasks are submitted with a key (the raw id of the
//!   target context); the key picks a shard, so work for the same context
//!   always lands in the same FIFO queue and is dequeued in submission
//!   order, while independent contexts spread over all shards and run in
//!   parallel.  Sharding is an ordering/locality affinity, *not* a
//!   correctness mechanism: strict serializability still comes from the
//!   per-context activation locks and dominator sequencing.
//! * **Resident workers** — a fixed number of threads (default: the
//!   machine's available parallelism) scan the shards starting from a
//!   per-worker home offset, so under load each worker tends to drain its
//!   own shards (cache affinity) but no queue is ever starved.
//! * **Blocking: announce it** — a task about to wait for something that
//!   may need another queued task to happen first (a cluster worker's
//!   remote call, a contended activation) makes the wait inside
//!   [`ShardedExecutor::block_in_place`].  While `k` of the pool's threads
//!   are in there, the pool keeps at least `workers` threads outside: the
//!   thread that announces wakes a resting thread, or starts one, when no
//!   other would be left to run the queues.  A thread that finds no work
//!   while more than `workers` others run them rests where submitters do
//!   not wake it, and retires once it has rested a park timeout with no
//!   announced wait taking it back.  The announcing thread also puts the
//!   tasks of its batch that have not started back at the front of their
//!   queue, since the task it waits for may be one of them.  Nothing watches for stalls, so
//!   there is no detection delay — and a task that blocks *without*
//!   announcing it simply holds its worker, like any long task.
//!   `shutdown` joins every thread the pool started.
//!
//! Workers run each task under `catch_unwind`, so a panicking task can
//! never kill a pool thread; panics are counted in [`ExecutorStats`].
//! Callers that need to observe the panic (e.g. to resolve an event handle
//! with a proper error) catch it closer to the application code.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A unit of work accepted by the pool.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// A queued task, and whether it counts in the statistics: a continuation
/// ([`ShardedExecutor::resume`]) is the rest of a task that counted already.
struct Job {
    task: Task,
    counted: bool,
}

/// How long an idle thread parks before it looks again — and a surplus one
/// rests before it retires.
const PARK_TIMEOUT: Duration = Duration::from_millis(100);

thread_local! {
    /// The pool the current thread works for (the address of its
    /// `ExecutorInner`), or 0: off the pool, and inside `block_in_place`.
    static POOL: Cell<usize> = const { Cell::new(0) };
    /// The key and the not yet started tasks of the batch this pool thread
    /// is running.
    static BATCH: RefCell<(u64, VecDeque<Job>)> = const { RefCell::new((0, VecDeque::new())) };
}

/// Injection queues per resident worker.  Tasks are routed by
/// `key % shards`, so same-key tasks share a queue and keep FIFO order.
const SHARDS_PER_WORKER: usize = 4;

/// Most same-key tasks a worker drains from a shard in one dequeue
/// (per-context event batching).  The extra tasks run back-to-back on the
/// same worker, so a hot context amortises one wakeup and scan over up to
/// this many events while per-key FIFO order is preserved.
const BATCH_MAX: usize = 8;

/// Configuration of a [`ShardedExecutor`].
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Number of resident worker threads; the pool has
    /// `SHARDS_PER_WORKER` injection queues per worker.
    pub workers: usize,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self::with_workers(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
        )
    }
}

impl ExecutorConfig {
    /// A configuration with `workers` resident workers.
    pub fn with_workers(workers: usize) -> Self {
        Self { workers }
    }
}

/// A point-in-time snapshot of the pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Number of resident workers.
    pub workers: usize,
    /// Number of injection shards.
    pub shards: usize,
    /// Tasks accepted by [`ShardedExecutor::submit`].
    pub submitted: u64,
    /// Tasks that finished executing (including panicked ones).
    pub completed: u64,
    /// Tasks currently sitting in the injection queues.
    pub queued: u64,
    /// Threads [`ShardedExecutor::block_in_place`] started so that
    /// `workers` threads stayed outside it.
    pub spill_spawned: u64,
    /// Threads alive beyond the resident workers.
    pub spill_live: usize,
    /// Tasks that panicked (caught by the worker; the pool survived).
    pub panics: u64,
    /// Tasks that ran as a later member of a same-key batch (the first
    /// task of every dequeue is not counted, so this is the number of
    /// shard scans and worker wakeups saved by batching).
    pub batched: u64,
    /// Events served by the certified read-only fast path (recorded by the
    /// owning backend via [`ShardedExecutor::note_fast_path`]; the pool
    /// itself never increments it).
    pub fast_path: u64,
}

/// The pool's threads, counted under one mutex so that "wake or start one"
/// and "rest or retire" decide on the same numbers.
#[derive(Debug, Default)]
struct Threads {
    /// Threads running the worker loop, resident or started later.
    live: usize,
    /// Threads of `live` inside `block_in_place`.
    blocked: usize,
    /// Threads of `live` resting (surplus, parked on `rest_cv`), less those
    /// already woken to run again.
    resting: usize,
    /// Wake-ups handed to resting threads and not yet taken by one.
    woken: usize,
    /// Every thread started and not yet seen finished.
    handles: Vec<JoinHandle<()>>,
}

impl Threads {
    /// Threads that run the queues: neither blocked nor resting.
    fn runners(&self) -> usize {
        self.live - self.blocked - self.resting
    }
}

struct ExecutorInner {
    name: String,
    /// Number of resident workers.
    workers: usize,
    /// Each queued task keeps its routing key so a dequeue can extract the
    /// other tasks of the same key (context) from the shard in one go.
    shards: Vec<Mutex<VecDeque<(u64, Job)>>>,
    /// Tasks queued across all shards (fast path for parking workers).
    queued: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    spill_spawned: AtomicU64,
    panics: AtomicU64,
    batched: AtomicU64,
    fast_path: AtomicU64,
    shutdown: AtomicBool,
    /// Sleep coordination: submitters notify under this mutex, workers
    /// re-check `queued` under it before parking, so wakeups are not lost.
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
    threads: Mutex<Threads>,
    /// Where surplus threads rest: only `block_in_place` wakes them.
    rest_cv: Condvar,
}

impl ExecutorInner {
    /// The value of [`POOL`] on this pool's threads.
    fn marker(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    /// Starts the pool thread numbered `index`; homes spread over the
    /// shard space.
    fn spawn_thread(self: &Arc<Self>, index: usize) -> std::io::Result<JoinHandle<()>> {
        let home = index * self.shards.len() / self.workers % self.shards.len();
        let inner = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("{}-worker-{index}", self.name))
            .spawn(move || {
                POOL.with(|pool| pool.set(inner.marker()));
                inner.worker_loop(home);
            })
    }

    /// Pops the oldest task of the first non-empty shard, scanning from
    /// `home` so distinct workers prefer distinct shards, and drains up to
    /// `BATCH_MAX - 1` queued tasks with the same key behind it (in their
    /// submission order, leaving other keys' relative order untouched).
    /// Per-key FIFO is preserved: the batch is exactly the key's queued
    /// prefix in this shard, executed back-to-back by one worker.
    fn next_batch(&self, home: usize) -> Option<(u64, VecDeque<Job>)> {
        let n = self.shards.len();
        for i in 0..n {
            let shard = &self.shards[(home + i) % n];
            let mut queue = shard.lock();
            let Some((key, task)) = queue.pop_front() else {
                continue;
            };
            let mut batch = VecDeque::from([task]);
            let mut index = 0;
            while batch.len() < BATCH_MAX && index < queue.len() {
                if queue[index].0 == key {
                    let (_, follower) = queue.remove(index).expect("index is in range");
                    batch.push_back(follower);
                } else {
                    index += 1;
                }
            }
            drop(queue);
            self.queued.fetch_sub(batch.len() as u64, Ordering::SeqCst);
            if batch.len() > 1 {
                self.batched
                    .fetch_add(batch.len() as u64 - 1, Ordering::Relaxed);
            }
            return Some((key, batch));
        }
        None
    }

    /// Puts the tasks of a batch that have not started back at the front of
    /// their shard, in order: the thread that took them is about to wait —
    /// perhaps for one of them.
    fn hand_back(&self, key: u64, rest: VecDeque<Job>) {
        if rest.is_empty() {
            return;
        }
        let n = rest.len() as u64;
        self.queued.fetch_add(n, Ordering::SeqCst);
        self.batched.fetch_sub(n, Ordering::Relaxed);
        {
            let mut queue = self.shards[self.shard_of(key)].lock();
            for job in rest.into_iter().rev() {
                queue.push_front((key, job));
            }
        }
        if self.shutdown.load(Ordering::SeqCst) {
            self.drain_queues();
            return;
        }
        let _guard = self.sleep_lock.lock();
        self.sleep_cv.notify_one();
    }

    fn shard_of(&self, key: u64) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    fn run_task(&self, job: Job) {
        if std::panic::catch_unwind(AssertUnwindSafe(job.task)).is_err() {
            self.panics.fetch_add(1, Ordering::Relaxed);
        }
        if job.counted {
            self.completed.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Queues `job` — a submission behind the tasks of its shard, a
    /// continuation in front of them — and wakes a worker; after shutdown
    /// it is dropped, which closes any reply it carries.
    fn push(&self, key: u64, job: Job) {
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if job.counted {
            self.submitted.fetch_add(1, Ordering::Relaxed);
        }
        let shard = self.shard_of(key);
        // Count before pushing so a concurrent pop (which decrements)
        // can never observe the task ahead of its increment.
        self.queued.fetch_add(1, Ordering::SeqCst);
        {
            let mut queue = self.shards[shard].lock();
            // A continuation holds the lock its grant gave it: it goes
            // first, so that the lock is not held by work waiting in line.
            if job.counted {
                queue.push_back((key, job));
            } else {
                queue.push_front((key, job));
            }
        }
        // Close the race with a concurrent shutdown(): its drain may have
        // run between our entry check and the push, in which case nobody
        // will ever pop this task and its reply would leak (hanging the
        // waiting handle instead of closing it).
        if self.shutdown.load(Ordering::SeqCst) {
            self.drain_queues();
            return;
        }
        // Notify under the sleep lock so a worker between "scan found
        // nothing" and "park" re-checks and cannot miss this task.
        let _guard = self.sleep_lock.lock();
        self.sleep_cv.notify_one();
    }

    fn worker_loop(&self, home: usize) {
        while !self.shutdown.load(Ordering::SeqCst) {
            if let Some(batch) = self.next_batch(home) {
                BATCH.with(|rest| *rest.borrow_mut() = batch);
                while let Some(task) = BATCH.with(|rest| rest.borrow_mut().1.pop_front()) {
                    self.run_task(task);
                }
                continue;
            }
            match self.rest_if_surplus() {
                Some(true) => return,
                Some(false) => continue,
                None => {}
            }
            let mut guard = self.sleep_lock.lock();
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Re-check under the sleep lock: a submitter that enqueued
            // after our scan notifies under this lock.
            if self.queued.load(Ordering::SeqCst) > 0 {
                continue;
            }
            self.sleep_cv.wait_for(&mut guard, PARK_TIMEOUT);
        }
    }

    /// Called by a thread that found no work: when more than `workers`
    /// others run the queues, it rests — where submitters, which wake
    /// only runners, do not reach it — until an announced wait takes it
    /// back (`Some(false)`) or a park timeout passes and it retires
    /// (`Some(true)`).  `None`: it is needed as a runner.
    fn rest_if_surplus(&self) -> Option<bool> {
        let mut threads = self.threads.lock();
        if threads.runners() <= self.workers {
            return None;
        }
        threads.resting += 1;
        let deadline = std::time::Instant::now() + PARK_TIMEOUT;
        loop {
            if threads.woken > 0 {
                threads.woken -= 1;
                return Some(false);
            }
            let now = std::time::Instant::now();
            if now >= deadline || self.shutdown.load(Ordering::SeqCst) {
                threads.resting -= 1;
                threads.live -= 1;
                return Some(true);
            }
            self.rest_cv.wait_for(&mut threads, deadline - now);
        }
    }

    /// Counts the calling thread as blocked and, should that leave fewer
    /// than `workers` threads to run the queues, wakes a resting thread or
    /// starts one.
    fn enter_blocking(self: &Arc<Self>) {
        let mut threads = self.threads.lock();
        threads.blocked += 1;
        if threads.runners() >= self.workers || self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if threads.resting > 0 {
            threads.resting -= 1;
            threads.woken += 1;
            self.rest_cv.notify_one();
            return;
        }
        let index = self.workers + self.spill_spawned.load(Ordering::Relaxed) as usize;
        // Without a thread the wait still happens; the queues then wait
        // for a blocker to return, as on any saturated pool.
        if let Ok(handle) = self.spawn_thread(index) {
            self.spill_spawned.fetch_add(1, Ordering::Relaxed);
            threads.live += 1;
            threads.handles.retain(|handle| !handle.is_finished());
            threads.handles.push(handle);
        }
    }

    /// Drops every queued task (the replies they carry close, resolving
    /// any waiting handles as shut down).
    fn drain_queues(&self) {
        for shard in &self.shards {
            let dropped = {
                let mut queue = shard.lock();
                std::mem::take(&mut *queue)
            };
            self.queued
                .fetch_sub(dropped.len() as u64, Ordering::SeqCst);
            drop(dropped);
        }
    }
}

impl std::fmt::Debug for ExecutorInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorInner")
            .field("name", &self.name)
            .field("workers", &self.workers)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

/// Leaves `block_in_place` — also when its closure unwinds: the thread
/// counts as running again and is marked as this pool's once more.
struct Unblock<'a>(&'a Arc<ExecutorInner>);

impl Drop for Unblock<'_> {
    fn drop(&mut self) {
        self.0.threads.lock().blocked -= 1;
        POOL.with(|pool| pool.set(self.0.marker()));
    }
}

/// A fixed-size worker pool over sharded FIFO injection queues.
///
/// Dropping the executor shuts it down (queued tasks are dropped, every
/// thread it started is joined), so an owner does not leak threads when it
/// goes away without an explicit shutdown.
#[derive(Debug)]
pub struct ShardedExecutor {
    inner: Arc<ExecutorInner>,
}

impl ShardedExecutor {
    /// Starts a pool named `name` (thread names derive from it).
    ///
    /// A zero `workers` is promoted to one (misconfiguration should be
    /// rejected by the owning builder with a proper error).
    pub fn new(name: impl Into<String>, config: ExecutorConfig) -> Self {
        let workers = config.workers.max(1);
        let shards = workers.saturating_mul(SHARDS_PER_WORKER);
        let inner = Arc::new(ExecutorInner {
            name: name.into(),
            workers,
            shards: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            spill_spawned: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            batched: AtomicU64::new(0),
            fast_path: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
            threads: Mutex::new(Threads {
                live: workers,
                ..Threads::default()
            }),
            rest_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|worker| {
                inner
                    .spawn_thread(worker)
                    .expect("spawning a pool worker succeeds")
            })
            .collect();
        inner.threads.lock().handles = handles;
        Self { inner }
    }

    /// Submits a task routed by `key` (same key ⇒ same shard ⇒ FIFO
    /// dequeue order).  Tasks submitted after shutdown are dropped, which
    /// closes any reply they carry.
    pub fn submit(&self, key: u64, task: impl FnOnce() + Send + 'static) {
        let task = Box::new(task);
        self.inner.push(
            key,
            Job {
                task,
                counted: true,
            },
        );
    }

    /// Queues `task`, the rest of a task of this pool that stopped to wait
    /// for a grant, at the front of `key`'s shard: it holds the lock it was
    /// granted.  It is the same unit of work, so neither `submitted` nor
    /// `completed` counts it again.
    pub fn resume(&self, key: u64, task: impl FnOnce() + Send + 'static) {
        let task = Box::new(task);
        self.inner.push(
            key,
            Job {
                task,
                counted: false,
            },
        );
    }

    /// Runs `f`, a wait that may need one of this pool's queued tasks to
    /// run first, announcing it: on a thread of this pool, the tasks of
    /// the current batch that have not started go back to the front of
    /// their queue, the pool counts the thread as blocked for the duration
    /// and starts another when fewer than `workers` would be left to run
    /// the queues (the surplus retires after idling a park timeout).  Off
    /// the pool — a client thread, another pool's worker, a nested call —
    /// it just runs `f`.
    pub fn block_in_place<R>(&self, f: impl FnOnce() -> R) -> R {
        if POOL.with(Cell::get) != self.inner.marker() {
            return f();
        }
        let (key, rest) = BATCH.with(|rest| std::mem::take(&mut *rest.borrow_mut()));
        self.inner.hand_back(key, rest);
        self.inner.enter_blocking();
        POOL.with(|pool| pool.set(0));
        let _unblock = Unblock(&self.inner);
        f()
    }

    /// Locks `mutex`, announcing the wait ([`ShardedExecutor::block_in_place`])
    /// when it is contended: its holder may itself wait for a task queued
    /// on this pool.
    pub fn lock<'m, T>(&self, mutex: &'m Mutex<T>) -> MutexGuard<'m, T> {
        mutex
            .try_lock()
            .unwrap_or_else(|| self.block_in_place(|| mutex.lock()))
    }

    /// Queued (not yet dequeued) task counts grouped by routing key.
    ///
    /// Control-plane only: this locks each shard in turn and walks its
    /// queue, so metrics reporters can attribute depth to the entity the
    /// key identifies (the runtime keys by context id, letting
    /// `server_metrics` report the *real* backlog behind each server
    /// instead of an even split).  The result is a snapshot — tasks may be
    /// dequeued while later shards are scanned.
    pub fn queued_by_key(&self) -> std::collections::HashMap<u64, u64> {
        let mut counts = std::collections::HashMap::new();
        for shard in &self.inner.shards {
            let queue = shard.lock();
            for (key, _) in queue.iter() {
                *counts.entry(*key).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Current counters.
    pub fn stats(&self) -> ExecutorStats {
        let live = self.inner.threads.lock().live;
        ExecutorStats {
            workers: self.inner.workers,
            shards: self.inner.shards.len(),
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::SeqCst),
            queued: self.inner.queued.load(Ordering::SeqCst),
            spill_spawned: self.inner.spill_spawned.load(Ordering::Relaxed),
            spill_live: live.saturating_sub(self.inner.workers),
            panics: self.inner.panics.load(Ordering::Relaxed),
            batched: self.inner.batched.load(Ordering::Relaxed),
            fast_path: self.inner.fast_path.load(Ordering::Relaxed),
        }
    }

    /// Records one event served by the certified read-only fast path.  The
    /// pool only carries the counter (so fast-path observability travels
    /// with the rest of the executor stats); the owning backend decides
    /// what qualifies.
    pub fn note_fast_path(&self) {
        self.inner.fast_path.fetch_add(1, Ordering::Relaxed);
    }

    /// Stops the pool: queued tasks are dropped and every thread the pool
    /// started is joined.  Tasks already executing run to completion first,
    /// so callers that poison blocking primitives should do so *before*
    /// shutting the pool down — and never call this from one of its
    /// threads.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Drop queued tasks before waking workers so nothing new starts.
        self.inner.drain_queues();
        {
            let _guard = self.inner.sleep_lock.lock();
            self.inner.sleep_cv.notify_all();
        }
        // No thread is started once the flag is up (`enter_blocking`
        // checks it under this same mutex), so this is all of them; the
        // resting ones leave as soon as they see the flag.
        let handles = {
            let mut threads = self.inner.threads.lock();
            self.inner.rest_cv.notify_all();
            std::mem::take(&mut threads.handles)
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for ShardedExecutor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as Counter;
    use std::sync::mpsc;
    use std::time::Instant;

    fn small_pool(workers: usize) -> ShardedExecutor {
        ShardedExecutor::new("test-pool", ExecutorConfig::with_workers(workers))
    }

    #[test]
    fn executes_submitted_tasks() {
        let pool = small_pool(2);
        let counter = Arc::new(Counter::new(0));
        for key in 0..100u64 {
            let counter = Arc::clone(&counter);
            pool.submit(key, move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while counter.load(Ordering::SeqCst) < 100 {
            assert!(Instant::now() < deadline, "tasks did not all run");
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = pool.stats();
        assert_eq!(stats.submitted, 100);
        assert_eq!(stats.completed, 100);
        assert_eq!(stats.queued, 0);
        pool.shutdown();
    }

    #[test]
    fn a_resumed_task_goes_first_and_counts_once() {
        let pool = small_pool(1);
        let (started_tx, started) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        pool.submit(0, move || {
            started_tx.send(()).unwrap();
            released.recv_timeout(Duration::from_secs(10)).unwrap();
        });
        started.recv_timeout(Duration::from_secs(10)).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        for (name, resumed) in [("submitted", false), ("resumed", true)] {
            let order = Arc::clone(&order);
            let task = move || order.lock().push(name);
            if resumed {
                pool.resume(0, task);
            } else {
                pool.submit(0, task);
            }
        }
        release.send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while order.lock().len() < 2 || pool.stats().completed < 2 {
            assert!(Instant::now() < deadline, "the tasks did not run");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(*order.lock(), ["resumed", "submitted"]);
        let stats = pool.stats();
        assert_eq!((stats.submitted, stats.completed, stats.queued), (2, 2, 0));
        pool.shutdown();
    }

    #[test]
    fn same_key_tasks_dequeue_in_submission_order() {
        let pool = small_pool(4);
        let order = Arc::new(Mutex::new(Vec::new()));
        let gate = Arc::new(Counter::new(0));
        // One slow task on the shard first, then ordered followers: the
        // followers must be dequeued in submission order.
        for i in 0..50u64 {
            let order = Arc::clone(&order);
            let gate = Arc::clone(&gate);
            pool.submit(7, move || {
                while gate.load(Ordering::SeqCst) != i {
                    std::thread::yield_now();
                }
                order.lock().push(i);
                gate.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while gate.load(Ordering::SeqCst) < 50 {
            assert!(Instant::now() < deadline, "ordered tasks stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(*order.lock(), (0..50).collect::<Vec<_>>());
        pool.shutdown();
    }

    #[test]
    fn block_in_place_keeps_a_pool_of_one_live() {
        // Pool of 1; the first task blocks until a second task — queued
        // behind it on the same pool — unblocks it.  Announcing the wait
        // starts the thread that runs the second task, at once.
        let pool = Arc::new(small_pool(1));
        let (tx, rx) = mpsc::channel::<()>();
        let p = Arc::clone(&pool);
        pool.submit(0, move || {
            p.block_in_place(|| rx.recv_timeout(Duration::from_secs(10)))
                .expect("the second task must run beside the blocked one");
        });
        pool.submit(1, move || {
            let _ = tx.send(());
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.stats().completed < 2 {
            assert!(Instant::now() < deadline, "the blocked pool never moved");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.stats().spill_spawned, 1);
        // Off the pool, `block_in_place` is just the call.
        assert_eq!(pool.block_in_place(|| 7), 7);
        assert_eq!(pool.stats().spill_spawned, 1);
        pool.shutdown();
    }

    #[test]
    fn a_blocked_task_hands_the_rest_of_its_batch_back() {
        // One worker, held by a task on another key while `waiter` and
        // `signal` queue on key 1: it then takes both as one batch.  The
        // waiter waits for the signal behind it, which must be handed back
        // to the queue for the thread started beside it to run.
        let pool = Arc::new(small_pool(1));
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        pool.submit(0, move || gate_rx.recv().unwrap());
        std::thread::sleep(Duration::from_millis(20));
        let (tx, rx) = mpsc::channel::<()>();
        let p = Arc::clone(&pool);
        pool.submit(1, move || {
            p.block_in_place(|| rx.recv_timeout(Duration::from_secs(10)))
                .expect("the signal behind the waiter in its batch never ran");
        });
        pool.submit(1, move || tx.send(()).unwrap());
        gate_tx.send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.stats().completed < 3 {
            assert!(Instant::now() < deadline, "the batch stayed wedged");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The signal ran as a task of its own, not as a batch follower.
        assert_eq!(pool.stats().batched, 0);
        pool.shutdown();
    }

    #[test]
    fn an_announced_wait_takes_a_resting_thread_back() {
        // Two blocking waits in a row on a pool of one: the thread started
        // for the first rests when it returns, and the second wakes it
        // instead of starting another.
        let pool = Arc::new(small_pool(1));
        for round in 0..2 {
            let (tx, rx) = mpsc::channel::<()>();
            let p = Arc::clone(&pool);
            pool.submit(0, move || {
                p.block_in_place(|| rx.recv_timeout(Duration::from_secs(10)))
                    .unwrap();
            });
            pool.submit(1, move || tx.send(()).unwrap());
            let deadline = Instant::now() + Duration::from_secs(10);
            while pool.stats().completed < 2 * (round + 1) {
                assert!(Instant::now() < deadline, "round {round} stalled");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(pool.stats().spill_spawned, 1);
        pool.shutdown();
    }

    #[test]
    fn a_surplus_thread_retires_after_its_blocker_returns() {
        let pool = Arc::new(small_pool(1));
        assert_eq!(
            (pool.stats().spill_spawned, pool.stats().spill_live),
            (0, 0)
        );
        let (tx, rx) = mpsc::channel::<()>();
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let p = Arc::clone(&pool);
        pool.submit(0, move || {
            p.block_in_place(|| {
                // A nested announcement counts nothing more.
                p.block_in_place(|| entered_tx.send(()).unwrap());
                rx.recv_timeout(Duration::from_secs(10))
            })
            .unwrap();
        });
        entered_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        let stats = pool.stats();
        assert_eq!((stats.spill_spawned, stats.spill_live), (1, 1));
        tx.send(()).unwrap();
        // Two threads idle now, one of them surplus: it goes after one
        // park timeout, and it is the only one that goes.
        let deadline = Instant::now() + PARK_TIMEOUT * 20;
        while pool.stats().spill_live > 0 {
            assert!(Instant::now() < deadline, "the surplus thread stayed");
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(PARK_TIMEOUT * 3);
        assert_eq!(pool.stats().spill_live, 0);
        assert_eq!(pool.stats().spill_spawned, 1);
        // The pool still serves, with its one resident thread.
        let (done_tx, done_rx) = mpsc::channel::<()>();
        pool.submit(3, move || done_tx.send(()).unwrap());
        done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        pool.shutdown();
    }

    #[test]
    fn panicking_task_does_not_kill_the_worker() {
        let pool = small_pool(1);
        pool.submit(0, || panic!("boom"));
        let done = Arc::new(Counter::new(0));
        let d = Arc::clone(&done);
        pool.submit(0, move || {
            d.store(1, Ordering::SeqCst);
        });
        // Wait for *both* tasks to complete (the second runs once the
        // panic backtrace has been printed).
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.stats().completed < 2 {
            assert!(Instant::now() < deadline, "worker died after a panic");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(pool.stats().panics, 1);
        // The pool keeps serving tasks after the panic.
        let d = Arc::clone(&done);
        pool.submit(3, move || {
            d.store(2, Ordering::SeqCst);
        });
        while pool.stats().completed < 3 {
            assert!(Instant::now() < deadline, "pool dead after a panic");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(done.load(Ordering::SeqCst), 2);
        pool.shutdown();
    }

    #[test]
    fn same_key_tasks_batch_under_one_dequeue() {
        // One worker: block it on shard 0 (unannounced, so nothing runs
        // beside it),
        // queue interleaved tasks of two keys that share shard 1, then
        // release.  The worker must drain each key's run as one batch (all
        // key-1 tasks before any key-5 task despite interleaved submission)
        // and count the saved dequeues.
        let pool = small_pool(1);
        assert_eq!(pool.stats().shards, 4);
        let (tx, rx) = mpsc::channel::<()>();
        pool.submit(0, move || {
            let _ = rx.recv_timeout(Duration::from_secs(10));
        });
        std::thread::sleep(Duration::from_millis(20));
        let order = Arc::new(Mutex::new(Vec::new()));
        for key in [1u64, 5, 1, 5, 1] {
            let order = Arc::clone(&order);
            pool.submit(key, move || order.lock().push(key));
        }
        tx.send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.stats().completed < 6 {
            assert!(Instant::now() < deadline, "batched tasks stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(*order.lock(), vec![1, 1, 1, 5, 5]);
        // Two follower tasks rode the key-1 batch, one the key-5 batch.
        assert_eq!(pool.stats().batched, 3);
        pool.shutdown();
    }

    #[test]
    fn shutdown_drops_queued_tasks_and_joins() {
        // One worker, blocked without announcing it, so the queued
        // follower cannot run: it must be dropped by shutdown's drain.
        let pool = small_pool(1);
        let (tx, rx) = mpsc::channel::<()>();
        pool.submit(0, move || {
            let _ = rx.recv_timeout(Duration::from_secs(10));
        });
        std::thread::sleep(Duration::from_millis(20));
        // Queued behind the blocked worker on the same shard.
        let ran = Arc::new(Counter::new(0));
        let r = Arc::clone(&ran);
        pool.submit(0, move || {
            r.store(1, Ordering::SeqCst);
        });
        assert_eq!(pool.stats().queued, 1);
        // Shut down from another thread: the drain drops the follower
        // immediately, the join then waits for the blocked task.
        let pool = Arc::new(pool);
        let p = Arc::clone(&pool);
        let shutdown = std::thread::spawn(move || p.shutdown());
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.stats().queued != 0 {
            assert!(Instant::now() < deadline, "shutdown never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(ran.load(Ordering::SeqCst), 0, "dropped task ran");
        drop(tx);
        shutdown.join().unwrap();
        // The follower was dropped, not executed; submissions after
        // shutdown are dropped too.
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(pool.stats().completed, 1);
        let r = Arc::clone(&ran);
        pool.submit(0, move || {
            r.store(2, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        assert_eq!(pool.stats().queued, 0);
    }
}
