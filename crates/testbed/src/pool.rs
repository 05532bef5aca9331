//! A reusable work-stealing worker pool for campaign execution.
//!
//! The supervisor used to spawn one detached OS thread per *attempt*; a
//! 24-path Table II campaign with retries could burn through dozens of
//! short-lived threads. This pool spawns its workers once and feeds them
//! through per-worker deques with work stealing: submission round-robins
//! across the workers' own queues, an idle worker first drains its own
//! queue front-to-back, then steals from the back of its siblings'.
//!
//! The supervisor's containment semantics are preserved exactly:
//!
//! * **panic isolation** — a worker runs every task under
//!   [`std::panic::catch_unwind`], so a panicking experiment neither kills
//!   the worker nor poisons anything; the worker moves on to the next task
//!   (the task's own channel reports the panic, as before);
//! * **abandonment** — OS threads cannot be killed, so when a wall-clock
//!   deadline expires the monitor calls [`WorkerPool::abandon`]: a task
//!   that has not started yet is discarded unrun, and a task currently
//!   executing gets its worker *replaced* — a fresh worker thread is
//!   spawned immediately so pool capacity never degrades, and the stuck
//!   worker exits (instead of rejoining the pool) if it ever finishes.
//!
//! No condition variables: idle workers park with
//! [`std::thread::park_timeout`] and submissions unpark the pool. An
//! unpark "token" is never lost (unpark-before-park makes the next park
//! return immediately), and the timeout bounds the latency of any race to
//! one short interval.
//!
//! **Schedule chaos** ([`WorkerPool::with_schedule_chaos`]): for the
//! replay-equivalence gate the pool can deliberately perturb its own
//! scheduling — each worker draws from a tiny seeded xorshift stream to
//! insert 0–3 [`std::thread::yield_now`] points before every grab and to
//! rotate its steal order. Campaign output must be bit-identical under
//! any such schedule (and any worker count); the chaos knob makes "the
//! schedule happened to be benign" an untenable explanation for a
//! passing test. Chaos never changes *what* runs, only *when* and *who*.
//!
//! **Ordered runs** (`run_in_order`, crate-private): the fleet's blocks
//! and the serial campaign's connections are independent tasks whose
//! results must come back by index, not by completion. The runner submits
//! them to one pool and collects each result into its task's slot.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;
use std::time::Duration;

/// Task lifecycle states (stored in [`TaskHandle::state`]).
const QUEUED: u8 = 0;
const RUNNING: u8 = 1;
/// Abandoned before any worker picked it up: will be discarded unrun.
const ABANDONED_QUEUED: u8 = 2;
/// Abandoned mid-execution: the running worker is written off and exits
/// when (if) the task returns; a replacement has already been spawned.
const ABANDONED_RUNNING: u8 = 3;

/// How long an idle worker sleeps between queue checks. Parking is also
/// interrupted by every submission, so this is only the fallback bound on
/// wakeup latency.
const IDLE_PARK: Duration = Duration::from_millis(50);

/// Locks `mutex`, taking the data even if a panicking holder poisoned
/// it: every structure behind these locks (queues, registries, report
/// slots) stays consistent between operations, so poison carries no
/// information here.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A unit of work queued on the pool.
struct TaskCell {
    run: Box<dyn FnOnce() + Send + 'static>,
    state: Arc<AtomicU8>,
}

/// A handle to a submitted task, used to abandon it after a deadline.
#[derive(Debug, Clone)]
pub struct TaskHandle {
    state: Arc<AtomicU8>,
}

struct PoolShared {
    /// One deque per home worker slot; stealing crosses slots.
    queues: Vec<Mutex<VecDeque<TaskCell>>>,
    /// Park/unpark registry: every live (and some exited) worker threads.
    /// Unparking an exited thread is a no-op, so stale entries are
    /// harmless; the list only grows when workers are replaced, which is
    /// rare (one entry per abandonment).
    threads: Mutex<Vec<Thread>>,
    shutdown: AtomicBool,
    workers_spawned: AtomicUsize,
    tasks_executed: AtomicUsize,
    /// Schedule-chaos seed; `None` = natural scheduling.
    chaos: Option<u64>,
}

/// One step of a xorshift64 stream: cheap, seedable, and deliberately not
/// `sim::rng` — chaos draws must never share (or perturb) the experiment
/// RNG streams whose determinism they exist to stress.
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

impl PoolShared {
    /// Pops the next task for a worker homed at `home`: own queue from the
    /// front (FIFO), then a steal from the back of sibling queues starting
    /// `steal_start` siblings past its own (0 = natural order; chaos mode
    /// rotates it to exercise different victim orders).
    fn grab(&self, home: usize, steal_start: usize) -> Option<TaskCell> {
        if let Some(cell) = lock(&self.queues[home]).pop_front() {
            return Some(cell);
        }
        let n = self.queues.len();
        for off in 0..n.saturating_sub(1) {
            let victim = (home + 1 + (steal_start + off) % (n - 1)) % n;
            if let Some(cell) = lock(&self.queues[victim]).pop_back() {
                return Some(cell);
            }
        }
        None
    }

    fn unpark_all(&self) {
        for t in lock(&self.threads).iter() {
            t.unpark();
        }
    }

    fn spawn_worker(self: &Arc<Self>, home: usize) {
        //~ allow(relaxed_atomic): monotonic stat counter read by diagnostics only
        self.workers_spawned.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(self);
        std::thread::spawn(move || {
            lock(&shared.threads).push(std::thread::current());
            // Per-worker chaos stream: seed mixed with the home slot so
            // workers perturb independently but reproducibly.
            let mut chaos = shared
                .chaos
                .map(|seed| (seed ^ (home as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1);
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let steal_start = match chaos.as_mut() {
                    Some(state) => {
                        let draw = xorshift64(state);
                        for _ in 0..(draw & 3) {
                            std::thread::yield_now();
                        }
                        (draw >> 2) as usize % shared.queues.len()
                    }
                    None => 0,
                };
                let Some(cell) = shared.grab(home, steal_start) else {
                    std::thread::park_timeout(IDLE_PARK);
                    continue;
                };
                if cell
                    .state
                    .compare_exchange(QUEUED, RUNNING, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // Abandoned while still queued: discard unrun. Dropping
                    // the closure drops its result channel, which is how
                    // the (long gone) monitor would have learned of it.
                    continue;
                }
                let run = cell.run;
                let _ = catch_unwind(AssertUnwindSafe(run));
                //~ allow(relaxed_atomic): monotonic stat counter; task results travel by channel, not this counter
                shared.tasks_executed.fetch_add(1, Ordering::Relaxed);
                if cell.state.load(Ordering::Acquire) == ABANDONED_RUNNING {
                    // This worker was written off and replaced while stuck
                    // in the task; exiting keeps the pool at capacity.
                    return;
                }
            }
        });
    }
}

/// The pool; see the module docs. Dropping it shuts the workers down
/// (idle workers exit promptly; a worker stuck in an abandoned task leaks,
/// exactly as the old detached-thread design leaked it).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    next: AtomicUsize,
    replacement_home: AtomicUsize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers_spawned", &self.workers_spawned())
            .field("tasks_executed", &self.tasks_executed())
            .finish()
    }
}

impl WorkerPool {
    /// A pool with `workers` worker threads (at least one).
    pub fn new(workers: usize) -> Self {
        Self::build(workers, None)
    }

    /// A pool that deliberately perturbs its own scheduling (seeded yield
    /// points and rotated steal order; see the module docs). Campaign
    /// output must be invariant under the perturbation — the
    /// replay-equivalence gate runs the same seeded campaign with and
    /// without chaos and asserts bit-identical reports.
    pub fn with_schedule_chaos(workers: usize, seed: u64) -> Self {
        Self::build(workers, Some(seed))
    }

    fn build(workers: usize, chaos: Option<u64>) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            threads: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            workers_spawned: AtomicUsize::new(0),
            tasks_executed: AtomicUsize::new(0),
            chaos,
        });
        for home in 0..workers {
            shared.spawn_worker(home);
        }
        WorkerPool {
            shared,
            next: AtomicUsize::new(0),
            replacement_home: AtomicUsize::new(0),
        }
    }

    /// Submits a task; it runs on some worker, FIFO per home queue,
    /// stealable by any idle worker. Returns a handle for
    /// [`WorkerPool::abandon`].
    pub fn submit<F: FnOnce() + Send + 'static>(&self, task: F) -> TaskHandle {
        let state = Arc::new(AtomicU8::new(QUEUED));
        let cell = TaskCell {
            run: Box::new(task),
            state: Arc::clone(&state),
        };
        let n = self.shared.queues.len();
        //~ allow(relaxed_atomic): round-robin cursor; only uniqueness matters, the queue Mutex orders the hand-off
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % n;
        lock(&self.shared.queues[slot]).push_back(cell);
        self.shared.unpark_all();
        TaskHandle { state }
    }

    /// Gives up on a task whose wall-clock deadline expired. A task still
    /// queued is discarded without running; a task currently executing
    /// keeps running on its (unkillable) worker, but that worker is
    /// written off and a replacement is spawned immediately, so the pool's
    /// capacity is unchanged. Idempotent.
    pub fn abandon(&self, handle: &TaskHandle) {
        let result = handle
            .state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |state| match state {
                QUEUED => Some(ABANDONED_QUEUED),
                RUNNING => Some(ABANDONED_RUNNING),
                _ => None,
            });
        if result == Ok(RUNNING) {
            // The runner is stuck inside the task: replace it.
            let n = self.shared.queues.len();
            //~ allow(relaxed_atomic): round-robin cursor choosing a home slot; no payload rides on it
            let home = self.replacement_home.fetch_add(1, Ordering::Relaxed) % n;
            self.shared.spawn_worker(home);
        }
    }

    /// Worker threads spawned over the pool's lifetime (initial workers
    /// plus abandonment replacements).
    pub fn workers_spawned(&self) -> usize {
        //~ allow(relaxed_atomic): diagnostic read of a stat counter
        self.shared.workers_spawned.load(Ordering::Relaxed)
    }

    /// Tasks that ran to completion (including ones that panicked inside
    /// and ones abandoned mid-run that eventually returned).
    pub fn tasks_executed(&self) -> usize {
        //~ allow(relaxed_atomic): diagnostic read of a stat counter
        self.shared.tasks_executed.load(Ordering::Relaxed)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.unpark_all();
        // No joins: idle workers exit within one park interval; a worker
        // wedged inside an abandoned task cannot be waited for anyway.
    }
}

/// One worker per available core (4 when the count is unknown): the
/// default width of a campaign's pool.
pub(crate) fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |c| c.get())
}

/// Longest [`run_in_order`] waits for the next finished task before it
/// declares the run wedged. Generous: a whole 10^6-flow fleet or a
/// 100-connection serial campaign finishes in seconds in release builds.
const ORDERED_WALL_BUDGET: Duration = Duration::from_secs(1800);

/// Runs `tasks` on `min(workers, tasks.len())` pooled workers (with
/// seeded schedule chaos when `schedule_chaos` is set) and returns their
/// results by task index, whatever order they finish in. With one worker
/// the tasks run inline, in order, on the calling thread, with no pool.
///
/// # Panics
/// If a task panics, or no task finishes within [`ORDERED_WALL_BUDGET`]
/// of the previous one; the message names the task index.
//= pftk#det-ordered-output
pub(crate) fn run_in_order<T, F>(
    workers: usize,
    schedule_chaos: Option<u64>,
    tasks: Vec<F>,
) -> Vec<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let n = tasks.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return tasks
            .into_iter()
            .enumerate()
            .map(|(i, task)| {
                catch_unwind(AssertUnwindSafe(task)).unwrap_or_else(|_| {
                    //~ allow(panic): a failed task leaves a hole the ordered result cannot have
                    panic!("ordered task {i} of {n} panicked")
                })
            })
            .collect();
    }

    let pool = match schedule_chaos {
        Some(seed) => WorkerPool::with_schedule_chaos(workers, seed),
        None => WorkerPool::new(workers),
    };
    let (tx, rx) = mpsc::channel();
    for (i, task) in tasks.into_iter().enumerate() {
        let tx = tx.clone();
        pool.submit(move || {
            // A send can only fail if the collector gave up; the task's
            // result is then discarded with it.
            let _ = tx.send((i, catch_unwind(AssertUnwindSafe(task))));
        });
    }
    drop(tx);

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        let Ok((i, outcome)) = rx.recv_timeout(ORDERED_WALL_BUDGET) else {
            let first = slots.iter().position(Option::is_none).unwrap_or(n);
            //~ allow(panic): a lost task means a lost worker; the run cannot continue
            panic!("ordered task {first} of {n} (first outstanding) died or exceeded its budget");
        };
        let Ok(result) = outcome else {
            //~ allow(panic): a failed task leaves a hole the ordered result cannot have
            panic!("ordered task {i} of {n} panicked");
        };
        slots[i] = Some(result);
    }
    // Every index in 0..n reports exactly once, so no slot is empty.
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Instant;

    /// The executed-task counter is bumped *after* a task body returns, so
    /// a test that observed a task's side effect may still be ahead of the
    /// counter; wait for it to catch up.
    fn wait_for_executed(pool: &WorkerPool, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool.tasks_executed() < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn executes_submitted_tasks() {
        let pool = WorkerPool::new(4);
        let (tx, rx) = mpsc::channel();
        for i in 0..32u64 {
            let tx = tx.clone();
            pool.submit(move || {
                let _ = tx.send(i);
            });
        }
        drop(tx);
        let mut got: Vec<u64> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
        assert_eq!(pool.workers_spawned(), 4);
        wait_for_executed(&pool, 32);
        assert_eq!(pool.tasks_executed(), 32);
    }

    #[test]
    fn single_worker_pool_is_fifo_for_its_queue() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        for i in 0..10u64 {
            let tx = tx.clone();
            pool.submit(move || {
                let _ = tx.send(i);
            });
        }
        drop(tx);
        let got: Vec<u64> = rx.iter().collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_task_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        pool.submit(|| panic!("injected task panic"));
        let (tx, rx) = mpsc::channel();
        pool.submit(move || {
            let _ = tx.send(7u64);
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(7));
        assert_eq!(pool.workers_spawned(), 1, "no replacement for a panic");
        wait_for_executed(&pool, 2);
        assert_eq!(pool.tasks_executed(), 2);
    }

    #[test]
    fn abandoning_a_queued_task_discards_it_unrun() {
        // One worker, blocked on a slow task; the task queued behind it is
        // abandoned before any worker can claim it.
        let pool = WorkerPool::new(1);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            let _ = gate_rx.recv_timeout(Duration::from_secs(10));
        });
        let (tx, rx) = mpsc::channel();
        let handle = pool.submit(move || {
            let _ = tx.send(1u64);
        });
        pool.abandon(&handle);
        let _ = gate_tx.send(()); // release the worker
                                  // The abandoned task's channel reports disconnection, not a value.
        assert!(rx.recv_timeout(Duration::from_secs(5)).is_err());
        assert_eq!(pool.workers_spawned(), 1, "queued abandonment: no spawn");
    }

    #[test]
    fn abandoning_a_running_task_spawns_a_replacement() {
        let pool = WorkerPool::new(1);
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let handle = pool.submit(move || {
            let _ = started_tx.send(());
            let _ = gate_rx.recv_timeout(Duration::from_secs(10));
        });
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or(());
        pool.abandon(&handle);
        // Capacity is preserved: a fresh worker picks up new work even
        // though the original worker is still wedged.
        let (tx, rx) = mpsc::channel();
        pool.submit(move || {
            let _ = tx.send(42u64);
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(42));
        assert_eq!(pool.workers_spawned(), 2, "one replacement spawned");
        let _ = gate_tx.send(());
    }

    #[test]
    fn abandon_is_idempotent() {
        let pool = WorkerPool::new(2);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let handle = pool.submit(move || {
            let _ = started_tx.send(());
            let _ = gate_rx.recv_timeout(Duration::from_secs(10));
        });
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or(());
        pool.abandon(&handle);
        pool.abandon(&handle);
        pool.abandon(&handle);
        assert_eq!(pool.workers_spawned(), 3, "exactly one replacement");
        let _ = gate_tx.send(());
    }

    #[test]
    fn work_stealing_uses_all_workers() {
        // 4 workers, 4 long-ish tasks submitted round-robin: if stealing
        // (or fair distribution) works, wall time is ~1 task, not 4.
        let pool = WorkerPool::new(4);
        let started = Instant::now();
        let (tx, rx) = mpsc::channel();
        for _ in 0..4 {
            let tx = tx.clone();
            pool.submit(move || {
                std::thread::sleep(Duration::from_millis(200));
                let _ = tx.send(());
            });
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 4);
        assert!(
            started.elapsed() < Duration::from_millis(700),
            "tasks did not run concurrently: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn chaos_pool_executes_every_task_exactly_once() {
        let pool = WorkerPool::with_schedule_chaos(4, 0xDECAF);
        let (tx, rx) = mpsc::channel();
        for i in 0..64u64 {
            let tx = tx.clone();
            pool.submit(move || {
                let _ = tx.send(i);
            });
        }
        drop(tx);
        let mut got: Vec<u64> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..64).collect::<Vec<_>>());
        wait_for_executed(&pool, 64);
        assert_eq!(pool.tasks_executed(), 64, "chaos reorders, never drops");
    }

    #[test]
    fn drop_shuts_down_idle_workers() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel();
        pool.submit(move || {
            let _ = tx.send(1u64);
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(1));
        drop(pool); // must not hang
    }

    /// `n` tasks whose later indices sleep less, so they tend to finish
    /// in reverse index order.
    fn staggered_tasks(n: usize) -> Vec<impl FnOnce() -> usize + Send + 'static> {
        (0..n)
            .map(|i| {
                move || {
                    std::thread::sleep(Duration::from_micros(200 * (n - i) as u64));
                    i * i
                }
            })
            .collect()
    }

    //= pftk#det-ordered-output type=test
    #[test]
    fn ordered_results_follow_task_index() {
        let expected: Vec<usize> = (0..24).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8] {
            for chaos in [None, Some(0xC0FFEE)] {
                let got = run_in_order(workers, chaos, staggered_tasks(24));
                assert_eq!(got, expected, "{workers} workers, chaos {chaos:?}");
            }
        }
    }

    #[test]
    fn ordered_run_of_no_tasks_is_empty() {
        let tasks: Vec<fn() -> u64> = Vec::new();
        assert!(run_in_order(4, None, tasks).is_empty());
    }

    #[test]
    fn one_worker_runs_ordered_tasks_inline() {
        let caller = std::thread::current().id();
        let on_thread = |workers| {
            let tasks = (0..4).map(|_| || std::thread::current().id()).collect();
            run_in_order(workers, None, tasks)
        };
        assert!(on_thread(1).iter().all(|&id| id == caller));
        assert!(on_thread(2).iter().all(|&id| id != caller));
    }

    #[test]
    #[should_panic(expected = "ordered task 3 of 6 panicked")]
    fn panicking_ordered_task_panics_the_caller() {
        let tasks = (0..6u64)
            .map(|i| move || assert!(i != 3, "injected task panic"))
            .collect();
        run_in_order(2, None, tasks);
    }

    #[test]
    #[should_panic(expected = "ordered task 2 of 4 panicked")]
    fn panicking_inline_ordered_task_panics_the_caller() {
        let tasks = (0..4u64)
            .map(|i| move || assert!(i != 2, "injected task panic"))
            .collect();
        run_in_order(1, None, tasks);
    }
}
