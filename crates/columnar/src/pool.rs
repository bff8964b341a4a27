//! Process-wide work-stealing worker pool driving every partition-parallel
//! stage.
//!
//! PR 1 drove each [`crate::BatchStream::collect`] with its own scoped-thread
//! pool: correct, but every drive point spawned and tore down
//! `degree_of_parallelism` OS threads, so a serving tier running N concurrent
//! queries oversubscribed the machine with N×DOP transient threads. This
//! module replaces that with **one long-lived pool per process**
//! ([`WorkerPool::global`]): each worker owns a deque, submissions are
//! distributed round-robin, and an idle worker steals from its siblings
//! (LIFO on its own deque for cache locality, FIFO steals for fairness).
//! Concurrent queries now interleave their partition tasks on one fixed set
//! of OS threads.
//!
//! ## Scoped jobs on a long-lived pool
//!
//! [`parallel_map`] keeps its borrowed-closure signature (`F: Fn(T) ->
//! Result<U>` with any lifetime) even though the workers are `'static`
//! threads: a call builds a stack-allocated job (work queue, result slots,
//! abort flag), submits up to `dop - 1` *helper* tasks that reference the job
//! through a type-erased pointer, and then **participates itself**, draining
//! the same queue. It returns only after every spawned helper has finished
//! running — helpers increment a completion counter as their last touch of
//! the job — so the borrow never outlives the call (the same completion
//! protocol `std::thread::scope` and rayon use).
//!
//! Two properties make this safe under load and nesting:
//!
//! * **The submitter is always an executor.** A job makes progress even when
//!   every pool worker is busy with other jobs, so `parallel_map` from inside
//!   a pool task (nested parallelism) cannot deadlock.
//! * **Waiters help.** While waiting for its helpers, a submitter runs other
//!   queued pool tasks instead of blocking, so a worker parked in a nested
//!   wait still executes the tasks everyone else is waiting on.
//!
//! ## Cancellation
//!
//! Jobs carry a shared abort flag checked **before each pop**: the first
//! error (or panic) recorded by any worker cancels the job's outstanding
//! items, so an early failure no longer drains the whole remaining queue
//! before surfacing. Panics are caught per item and re-raised on the
//! submitting thread after the helpers have quiesced.
//!
//! ## Parked drives (serving tier)
//!
//! The participating protocol above is right for batch work but wrong for a
//! serving worker: a thread that drives a query by *helping* can pick up an
//! arbitrary other query's partition task while it waits, so one long drive
//! holds a scheduler thread hostage for the duration of someone else's work.
//! [`with_parked_drive`] flips a thread-local that routes [`parallel_map`]
//! through [`WorkerPool::map_parked`] instead: every per-partition item is
//! submitted to the pool as its own poll-able task and the submitter **parks
//! on a completion latch** — it executes nothing itself and wakes the moment
//! its own job is done. Pool workers never park (a nested drive from a pool
//! worker falls back to the participating protocol via a second
//! thread-local), so parked submitters always make progress.

use crate::error::{ColumnarError, Result};
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;

// ---------------------------------------------------------------------------
// the pool
// ---------------------------------------------------------------------------

/// A type-erased task: a pointer to a stack-allocated job plus the
/// monomorphized entry point that knows the job's real type. The completion
/// protocol of [`parallel_map`] guarantees the pointee outlives the task.
struct RawTask {
    data: *const (),
    run: unsafe fn(*const ()),
}

// Safety: the job state a task points to is Sync (mutex-guarded queue and
// slots, atomics, a `&F where F: Sync`), and the submitting thread keeps it
// alive until the task has run.
unsafe impl Send for RawTask {}

struct PoolShared {
    /// One deque per worker. Owners pop LIFO from the back; thieves (other
    /// workers, helping submitters) steal FIFO from the front.
    queues: Vec<Mutex<VecDeque<RawTask>>>,
    /// Guards the sleep/wake protocol: a worker re-checks every queue while
    /// holding this lock before waiting, and every submission notifies under
    /// it, so wakeups are never lost.
    sleep: Mutex<()>,
    wake: Condvar,
    /// Round-robin submission cursor.
    next: AtomicUsize,
    shutdown: AtomicBool,
    tasks_executed: AtomicU64,
    tasks_stolen: AtomicU64,
}

impl PoolShared {
    /// Take one task as worker `me`: own deque first (LIFO), then steal from
    /// siblings (FIFO), scanning from the next index for fairness.
    fn take(&self, me: usize) -> Option<RawTask> {
        if let Some(t) = self.queues[me]
            .lock()
            .expect("pool queue poisoned")
            .pop_back()
        {
            return Some(t);
        }
        let n = self.queues.len();
        for k in 1..n {
            let i = (me + k) % n;
            if let Some(t) = self.queues[i]
                .lock()
                .expect("pool queue poisoned")
                .pop_front()
            {
                self.tasks_stolen.fetch_add(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        None
    }

    /// Take one task from any deque (used by submitters helping while they
    /// wait; they have no deque of their own).
    fn take_any(&self) -> Option<RawTask> {
        for q in &self.queues {
            if let Some(t) = q.lock().expect("pool queue poisoned").pop_front() {
                return Some(t);
            }
        }
        None
    }

    fn run(&self, task: RawTask) {
        // Job entry points catch per-item panics themselves; this outer guard
        // only keeps a worker thread alive if the job plumbing itself panics.
        let _ = catch_unwind(AssertUnwindSafe(|| unsafe { (task.run)(task.data) }));
        self.tasks_executed.fetch_add(1, Ordering::Relaxed);
    }

    fn submit(&self, task: RawTask) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[i]
            .lock()
            .expect("pool queue poisoned")
            .push_back(task);
        // Acquire the sleep lock before notifying: a worker that found every
        // queue empty re-checks under this lock before waiting, so it either
        // sees the push or is woken by this notify.
        let _g = self.sleep.lock().expect("pool sleep lock poisoned");
        self.wake.notify_one();
    }
}

thread_local! {
    /// `true` on pool worker threads. A nested drive on a worker must use
    /// the participating protocol — a worker parked on a latch would strand
    /// the very pool its job needs.
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// `true` inside a [`with_parked_drive`] scope on a non-worker thread.
    static PARKED_DRIVE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` with parked drives enabled on this thread: every
/// [`parallel_map`] in the scope submits its per-partition items to the
/// shared pool and parks on a completion latch instead of executing items
/// (or other jobs' tasks) itself. No-op on pool worker threads. Restores
/// the previous routing on exit, so scopes nest.
pub fn with_parked_drive<R>(f: impl FnOnce() -> R) -> R {
    if IS_POOL_WORKER.with(|w| w.get()) {
        return f();
    }
    let prev = PARKED_DRIVE.with(|p| p.replace(true));
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            PARKED_DRIVE.with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// `true` when the current thread would route [`parallel_map`] through the
/// parked-latch driver (inside [`with_parked_drive`], not a pool worker).
pub fn parked_drive_active() -> bool {
    PARKED_DRIVE.with(|p| p.get()) && !IS_POOL_WORKER.with(|w| w.get())
}

fn worker_loop(shared: std::sync::Arc<PoolShared>, me: usize) {
    IS_POOL_WORKER.with(|w| w.set(true));
    loop {
        if let Some(task) = shared.take(me) {
            shared.run(task);
            continue;
        }
        let guard = shared.sleep.lock().expect("pool sleep lock poisoned");
        // a worker only exits once its last sweep found every deque empty,
        // so shutdown never strands queued work
        if shared.shutdown.load(Ordering::Acquire) {
            match shared.take_any() {
                Some(task) => {
                    drop(guard);
                    shared.run(task);
                    continue;
                }
                None => return,
            }
        }
        if let Some(task) = shared.take(me) {
            drop(guard);
            shared.run(task);
            continue;
        }
        // the timeout is a belt-and-braces backstop; the sleep-lock protocol
        // above already prevents lost wakeups
        let _ = shared
            .wake
            .wait_timeout(guard, Duration::from_millis(100))
            .expect("pool sleep lock poisoned");
    }
}

/// A fixed set of long-lived worker threads with per-worker deques and work
/// stealing. One process-wide instance ([`WorkerPool::global`]) drives every
/// partition-parallel stage; independent instances exist only for tests.
pub struct WorkerPool {
    shared: std::sync::Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.worker_count())
            .field("tasks_executed", &self.tasks_executed())
            .field("tasks_stolen", &self.tasks_stolen())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn a pool with `workers` threads (min 1).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = std::sync::Arc::new(PoolShared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            next: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            tasks_executed: AtomicU64::new(0),
            tasks_stolen: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("raven-pool-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// The process-wide pool every drive point shares. Sized by
    /// `RAVEN_POOL_WORKERS` when set, otherwise by the machine's available
    /// parallelism — per-query `degree_of_parallelism` only bounds how many
    /// of these workers one job may occupy.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let workers = crate::envcfg::pool_workers().unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
            WorkerPool::new(workers)
        })
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.shared.queues.len()
    }

    /// Tasks executed by pool workers since startup (helper tasks, not
    /// per-partition items; submitters running their own items don't count).
    pub fn tasks_executed(&self) -> u64 {
        self.shared.tasks_executed.load(Ordering::Relaxed)
    }

    /// Tasks a worker stole from a sibling's deque.
    pub fn tasks_stolen(&self) -> u64 {
        self.shared.tasks_stolen.load(Ordering::Relaxed)
    }

    /// Run `f` over `items` on this pool with at most `dop` concurrent
    /// executors (the submitting thread plus up to `dop - 1` pool workers),
    /// preserving input order in the output. The first error aborts the
    /// job's outstanding items.
    pub fn map<T, U, F>(&self, items: Vec<T>, dop: usize, f: F) -> Result<Vec<U>>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> Result<U> + Send + Sync,
    {
        let dop = dop.max(1);
        if dop == 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        self.map_inner(items, dop, &f)
    }

    /// Like [`WorkerPool::map`], but the submitting thread does not execute
    /// items (or anyone else's tasks): every item is submitted to the pool
    /// as a poll-able per-partition task and the submitter parks on the
    /// job's completion latch. Falls back to the participating protocol when
    /// called from a pool worker thread — a parked worker would strand the
    /// pool its own job needs.
    pub fn map_parked<T, U, F>(&self, items: Vec<T>, dop: usize, f: F) -> Result<Vec<U>>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> Result<U> + Send + Sync,
    {
        let dop = dop.max(1);
        if dop == 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        if IS_POOL_WORKER.with(|w| w.get()) {
            return self.map_inner(items, dop, &f);
        }
        let n = items.len();
        let f = &f;
        let job = Job {
            queue: Mutex::new(items.into_iter().enumerate().rev().collect()),
            results: (0..n).map(|_| Mutex::new(None)).collect(),
            error: Mutex::new(None),
            panic: Mutex::new(None),
            abort: AtomicBool::new(false),
            f,
            helpers: Mutex::new(HelperCount {
                spawned: 0,
                finished: 0,
            }),
            done: Condvar::new(),
        };
        // the submitter is not an executor here, so at least one pool task
        // must exist; pool workers never park, so every task finishes
        let helpers = dop.min(n).min(self.worker_count()).max(1);
        job.helpers.lock().expect("job state poisoned").spawned = helpers;
        for _ in 0..helpers {
            self.shared.submit(RawTask {
                data: (&job as *const Job<'_, T, U, F>).cast(),
                run: helper_entry::<T, U, F>,
            });
        }
        job.wait_parked();
        if let Some(payload) = job.panic.lock().expect("job state poisoned").take() {
            resume_unwind(payload);
        }
        if let Some(e) = job.error.lock().expect("job state poisoned").take() {
            return Err(e);
        }
        job.results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .ok_or_else(|| {
                        ColumnarError::InvalidArgument("worker did not produce a result".into())
                    })
            })
            .collect()
    }

    fn map_inner<T, U, F>(&self, items: Vec<T>, dop: usize, f: &F) -> Result<Vec<U>>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> Result<U> + Send + Sync,
    {
        let n = items.len();
        let job = Job {
            queue: Mutex::new(items.into_iter().enumerate().rev().collect()),
            results: (0..n).map(|_| Mutex::new(None)).collect(),
            error: Mutex::new(None),
            panic: Mutex::new(None),
            abort: AtomicBool::new(false),
            f,
            helpers: Mutex::new(HelperCount {
                spawned: 0,
                finished: 0,
            }),
            done: Condvar::new(),
        };
        let helpers = (dop - 1).min(n - 1).min(self.worker_count());
        job.helpers.lock().expect("job state poisoned").spawned = helpers;
        for _ in 0..helpers {
            self.shared.submit(RawTask {
                data: (&job as *const Job<'_, T, U, F>).cast(),
                run: helper_entry::<T, U, F>,
            });
        }
        // the submitter is always an executor: progress is guaranteed even
        // when every pool worker is busy with other jobs (nested parallelism
        // therefore cannot deadlock)
        job.work();
        job.wait_helpers(&self.shared);
        if let Some(payload) = job.panic.lock().expect("job state poisoned").take() {
            resume_unwind(payload);
        }
        if let Some(e) = job.error.lock().expect("job state poisoned").take() {
            return Err(e);
        }
        job.results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .ok_or_else(|| {
                        ColumnarError::InvalidArgument("worker did not produce a result".into())
                    })
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = self.shared.sleep.lock().expect("pool sleep lock poisoned");
            self.shared.wake.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// scoped jobs
// ---------------------------------------------------------------------------

struct HelperCount {
    spawned: usize,
    finished: usize,
}

/// Stack-allocated state of one `map` call, shared with its helper tasks via
/// a type-erased pointer.
struct Job<'f, T, U, F> {
    /// Remaining `(index, item)` pairs, reversed so `pop` yields source order.
    queue: Mutex<Vec<(usize, T)>>,
    results: Vec<Mutex<Option<U>>>,
    /// First error any executor hit.
    error: Mutex<Option<ColumnarError>>,
    /// First panic payload any executor caught.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Set on the first error/panic; checked before each pop, so the failure
    /// cancels outstanding items instead of draining the whole queue.
    abort: AtomicBool,
    f: &'f F,
    helpers: Mutex<HelperCount>,
    done: Condvar,
}

impl<T, U, F> Job<'_, T, U, F>
where
    T: Send,
    U: Send,
    F: Fn(T) -> Result<U> + Send + Sync,
{
    /// Drain the job queue: the loop every executor (submitter and helpers)
    /// runs.
    fn work(&self) {
        loop {
            if self.abort.load(Ordering::Acquire) {
                return;
            }
            let next = self.queue.lock().expect("job queue poisoned").pop();
            let Some((idx, item)) = next else { return };
            match catch_unwind(AssertUnwindSafe(|| (self.f)(item))) {
                Ok(Ok(out)) => {
                    *self.results[idx].lock().expect("result slot poisoned") = Some(out);
                }
                Ok(Err(e)) => {
                    let mut first = self.error.lock().expect("job state poisoned");
                    if first.is_none() {
                        *first = Some(e);
                    }
                    self.abort.store(true, Ordering::Release);
                }
                Err(payload) => {
                    let mut first = self.panic.lock().expect("job state poisoned");
                    if first.is_none() {
                        *first = Some(payload);
                    }
                    self.abort.store(true, Ordering::Release);
                }
            }
        }
    }

    /// Block until every spawned helper has finished its last touch of this
    /// job, running other queued pool tasks while waiting (so a submitter
    /// parked here — possibly a pool worker in a nested job — keeps the pool
    /// live instead of holding a thread hostage).
    fn wait_helpers(&self, shared: &PoolShared) {
        loop {
            {
                let g = self.helpers.lock().expect("job state poisoned");
                if g.finished == g.spawned {
                    return;
                }
            }
            if let Some(task) = shared.take_any() {
                shared.run(task);
                continue;
            }
            let g = self.helpers.lock().expect("job state poisoned");
            if g.finished == g.spawned {
                return;
            }
            // the helpers we're waiting on are running on other threads;
            // they notify `done` as they finish (timeout is a backstop)
            let _ = self
                .done
                .wait_timeout(g, Duration::from_millis(10))
                .expect("job state poisoned");
        }
    }

    /// Park on the completion latch until every spawned helper has finished,
    /// executing nothing while waiting. Only used by
    /// [`WorkerPool::map_parked`] from non-worker threads, so the pool stays
    /// fully staffed while this thread sleeps.
    fn wait_parked(&self) {
        let mut g = self.helpers.lock().expect("job state poisoned");
        while g.finished < g.spawned {
            // helpers notify `done` as their last touch of the job; the
            // timeout is a belt-and-braces backstop
            g = self
                .done
                .wait_timeout(g, Duration::from_millis(10))
                .expect("job state poisoned")
                .0;
        }
    }
}

/// Monomorphized helper entry point: reconstruct the job's type, drain its
/// queue, and — as the very last touch of the job — mark this helper
/// finished. The submitter returns (releasing the job's stack frame) only
/// after `finished == spawned`.
unsafe fn helper_entry<T, U, F>(data: *const ())
where
    T: Send,
    U: Send,
    F: Fn(T) -> Result<U> + Send + Sync,
{
    let job = &*data.cast::<Job<'_, T, U, F>>();
    job.work();
    let mut g = job.helpers.lock().expect("job state poisoned");
    g.finished += 1;
    job.done.notify_all();
}

// ---------------------------------------------------------------------------
// public drivers
// ---------------------------------------------------------------------------

/// Apply `f` to every item with up to `dop` concurrent executors, preserving
/// input order in the output. This is the single drive primitive shared by
/// every execution layer (relational operators, ML scoring, the session, the
/// serving tier): items run on the process-wide work-stealing pool
/// ([`WorkerPool::global`]) plus the calling thread, and the first error
/// cancels the job's outstanding items.
pub fn parallel_map<T, U, F>(items: Vec<T>, dop: usize, f: F) -> Result<Vec<U>>
where
    T: Send,
    U: Send,
    F: Fn(T) -> Result<U> + Send + Sync,
{
    if parked_drive_active() {
        return WorkerPool::global().map_parked(items, dop, f);
    }
    WorkerPool::global().map(items, dop, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pool_map_matches_serial_and_preserves_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..97).collect();
        let serial: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for dop in [2, 4, 8] {
            let out = pool.map(items.clone(), dop, |x| Ok(x * 3)).unwrap();
            assert_eq!(out, serial);
        }
    }

    #[test]
    fn global_pool_is_shared_and_counts_tasks() {
        let before = WorkerPool::global().tasks_executed();
        let out = parallel_map((0..64).collect::<Vec<usize>>(), 4, |x| Ok(x + 1)).unwrap();
        assert_eq!(out.len(), 64);
        // helper tasks ran on the global pool (unless a single worker lost
        // every race to the submitting thread, which the retry below makes
        // vanishingly unlikely)
        for _ in 0..20 {
            if WorkerPool::global().tasks_executed() > before {
                break;
            }
            let _ = parallel_map((0..64).collect::<Vec<usize>>(), 4, |x| {
                std::thread::sleep(Duration::from_micros(50));
                Ok(x + 1)
            })
            .unwrap();
        }
        assert!(WorkerPool::global().tasks_executed() > before);
    }

    #[test]
    fn errors_abort_outstanding_items() {
        // 64 items; item 0 fails immediately, the rest sleep. Without the
        // abort flag every item would still run; with it, only the handful
        // already in flight when the error lands do.
        let pool = WorkerPool::new(4);
        let invocations = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        let err = pool.map(items, 4, |x| {
            invocations.fetch_add(1, Ordering::SeqCst);
            if x == 0 {
                Err(ColumnarError::InvalidArgument("boom".into()))
            } else {
                std::thread::sleep(Duration::from_millis(2));
                Ok(x)
            }
        });
        assert!(err.is_err());
        let ran = invocations.load(Ordering::SeqCst);
        assert!(ran < 64, "abort should cancel outstanding items, ran {ran}");
    }

    #[test]
    fn nested_parallel_map_does_not_deadlock() {
        // saturate a tiny pool with jobs that themselves call map
        let pool = std::sync::Arc::new(WorkerPool::new(2));
        let outer: Vec<usize> = (0..8).collect();
        let p = pool.clone();
        let out = pool
            .map(outer, 4, move |i| {
                let inner = p.map((0..16).collect::<Vec<usize>>(), 4, |x| Ok(x * 2))?;
                Ok(inner.into_iter().sum::<usize>() + i)
            })
            .unwrap();
        assert_eq!(out[0], 240);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let pool = WorkerPool::new(2);
        let res = catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.map((0..16).collect::<Vec<usize>>(), 4, |x| {
                if x == 3 {
                    panic!("kaboom");
                }
                Ok(x)
            });
        }));
        assert!(res.is_err(), "panic must surface on the submitting thread");
        // the pool is still usable afterwards
        let ok = pool.map((0..8).collect::<Vec<usize>>(), 2, Ok).unwrap();
        assert_eq!(ok.len(), 8);
    }

    #[test]
    fn parked_map_matches_participating_and_preserves_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..97).collect();
        let serial: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for dop in [2, 4, 8] {
            let out = pool.map_parked(items.clone(), dop, |x| Ok(x * 3)).unwrap();
            assert_eq!(out, serial);
        }
    }

    #[test]
    fn parked_map_propagates_errors_and_panics() {
        let pool = WorkerPool::new(4);
        let err = pool.map_parked((0..64).collect::<Vec<usize>>(), 4, |x| {
            if x == 5 {
                Err(ColumnarError::InvalidArgument("boom".into()))
            } else {
                Ok(x)
            }
        });
        assert!(err.is_err());
        let res = catch_unwind(AssertUnwindSafe(|| {
            let _ = pool.map_parked((0..16).collect::<Vec<usize>>(), 4, |x| {
                if x == 3 {
                    panic!("kaboom");
                }
                Ok(x)
            });
        }));
        assert!(res.is_err(), "panic must surface on the submitting thread");
        let ok = pool
            .map_parked((0..8).collect::<Vec<usize>>(), 2, Ok)
            .unwrap();
        assert_eq!(ok.len(), 8);
    }

    #[test]
    fn with_parked_drive_scopes_and_restores_routing() {
        assert!(!parked_drive_active());
        let inner = with_parked_drive(|| {
            let active = parked_drive_active();
            // nesting keeps the flag set and restores it pairwise
            with_parked_drive(|| assert_eq!(parked_drive_active(), active));
            active
        });
        assert!(inner);
        assert!(!parked_drive_active());
        // results are identical either way
        let out = with_parked_drive(|| {
            parallel_map((0..64).collect::<Vec<usize>>(), 4, |x| Ok(x + 1)).unwrap()
        });
        assert_eq!(out, (1..=64).collect::<Vec<usize>>());
    }

    #[test]
    fn parked_drive_from_a_pool_worker_falls_back_and_completes() {
        // a nested parked request on a tiny, saturated pool must not park
        // the workers themselves (that would deadlock); the IS_POOL_WORKER
        // guard routes nested drives through the participating protocol
        let pool = std::sync::Arc::new(WorkerPool::new(2));
        let p = pool.clone();
        let out = pool
            .map_parked((0..8).collect::<Vec<usize>>(), 4, move |i| {
                let inner = with_parked_drive(|| {
                    p.map_parked((0..16).collect::<Vec<usize>>(), 4, |x| Ok(x * 2))
                })?;
                Ok(inner.into_iter().sum::<usize>() + i)
            })
            .unwrap();
        assert_eq!(out[0], 240);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn stealing_happens_across_worker_deques() {
        // many tiny jobs from one submitter: round-robin lands helper tasks
        // on every deque while workers finish at different times, so a
        // worker drains its own deque and steals from a sibling's within a
        // few rounds (bounded retry keeps the test deterministic-enough on
        // single-core machines)
        let pool = WorkerPool::new(4);
        for _ in 0..500 {
            let _ = pool
                .map((0..32).collect::<Vec<usize>>(), 5, |x| {
                    if x % 7 == 0 {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Ok(x)
                })
                .unwrap();
            if pool.tasks_stolen() > 0 {
                break;
            }
        }
        assert!(pool.tasks_executed() > 0);
        assert!(
            pool.tasks_stolen() > 0,
            "idle workers must steal from sibling deques"
        );
    }
}
