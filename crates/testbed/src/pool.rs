//! The campaign worker pool: long-lived workers fed from one FIFO queue.
//!
//! A `Mutex` guards the queue and a shutdown flag; idle workers sleep on
//! a `Condvar` that each submission and the pool's drop signal. Campaign
//! tasks last milliseconds or longer, so one lock per hand-off is noise.
//! The workers are spawned once per pool, not once per attempt: a thread
//! per attempt costs only ~40 µs, yet it lost 6 of 6 alternating
//! `table2_hour` pairs to this pool on a 2-vCPU host (DESIGN.md §9.4).
//!
//! * **panic isolation** — every task runs under
//!   [`std::panic::catch_unwind`], so a panicking experiment neither kills
//!   its worker nor poisons anything (the task's own channel reports it);
//! * **abandonment** — OS threads cannot be killed, so when a wall-clock
//!   deadline expires the monitor calls [`WorkerPool::abandon`]: a queued
//!   task is discarded unrun, and a running one keeps its worker, which
//!   is written off (it exits if the task ever returns) while a
//!   replacement worker on the same queue keeps the pool at capacity.
//!
//! **Schedule chaos** ([`WorkerPool::with_schedule_chaos`]): for the
//! replay-equivalence gate each worker draws from a tiny seeded xorshift
//! stream to yield 0–3 times ([`std::thread::yield_now`]) before every
//! grab, perturbing which worker takes which task and how they
//! interleave. Campaign output must be bit-identical under any schedule
//! and worker count; chaos changes only *when* and *who*, never *what*.
//!
//! **Ordered runs** ([`run_in_order`]): the fleet's blocks and the serial
//! campaign's connections are independent tasks whose results must come
//! back by index, not by completion.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Task lifecycle states (stored in [`TaskHandle::state`]).
const QUEUED: u8 = 0;
const RUNNING: u8 = 1;
/// Abandoned before any worker picked it up: will be discarded unrun.
const ABANDONED_QUEUED: u8 = 2;
/// Abandoned mid-execution: the running worker is written off and exits
/// when (if) the task returns; a replacement has already been spawned.
const ABANDONED_RUNNING: u8 = 3;

/// Locks `mutex`, taking the data even if a panicking holder poisoned
/// it: every structure behind these locks (the task queue, report slots)
/// stays consistent between operations, so poison carries no information
/// here.
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
pub(crate) struct TaskHandle {
    state: Arc<AtomicU8>,
}

/// What the pool's one lock guards.
struct Queue {
    tasks: VecDeque<TaskCell>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<Queue>,
    /// Signalled when a task is queued or the pool shuts down.
    ready: Condvar,
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
    /// Waits for the next queued task, oldest first; `None` once the pool
    /// shuts down. A chaos worker first yields 0–3 times.
    fn next_task(&self, chaos: Option<&mut u64>) -> Option<TaskCell> {
        if let Some(state) = chaos {
            for _ in 0..(xorshift64(state) & 3) {
                std::thread::yield_now();
            }
        }
        let mut queue = lock(&self.queue);
        loop {
            if queue.shutdown {
                return None;
            }
            if let Some(cell) = queue.tasks.pop_front() {
                return Some(cell);
            }
            queue = self
                .ready
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn spawn_worker(self: &Arc<Self>) {
        //~ allow(relaxed_atomic): monotonic stat counter; the returned index only seeds chaos
        let index = self.workers_spawned.fetch_add(1, Ordering::Relaxed) as u64;
        let shared = Arc::clone(self);
        std::thread::spawn(move || {
            // Per-worker chaos stream: seed mixed with the worker's spawn
            // index so workers perturb independently but reproducibly.
            let mut chaos = shared
                .chaos
                .map(|seed| (seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1);
            while let Some(cell) = shared.next_task(chaos.as_mut()) {
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

/// The pool; see the module docs. Dropping it shuts the workers down:
/// idle workers wake and exit, and queued tasks are dropped unrun (a
/// worker stuck in an abandoned task cannot be stopped and leaks).
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
}

impl WorkerPool {
    /// A pool with `workers` worker threads (at least one).
    pub(crate) fn new(workers: usize) -> Self {
        Self::build(workers, None)
    }

    /// A pool that deliberately perturbs its own scheduling (seeded yield
    /// points; see the module docs). Campaign output must be invariant
    /// under the perturbation — the replay-equivalence gate runs the same
    /// seeded campaign with and without chaos and asserts bit-identical
    /// reports.
    pub(crate) fn with_schedule_chaos(workers: usize, seed: u64) -> Self {
        Self::build(workers, Some(seed))
    }

    fn build(workers: usize, chaos: Option<u64>) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            workers_spawned: AtomicUsize::new(0),
            tasks_executed: AtomicUsize::new(0),
            chaos,
        });
        for _ in 0..workers.max(1) {
            shared.spawn_worker();
        }
        WorkerPool { shared }
    }

    /// Queues a task behind every earlier one; the next free worker runs
    /// it. Returns a handle for [`WorkerPool::abandon`].
    pub(crate) fn submit<F: FnOnce() + Send + 'static>(&self, task: F) -> TaskHandle {
        let state = Arc::new(AtomicU8::new(QUEUED));
        lock(&self.shared.queue).tasks.push_back(TaskCell {
            run: Box::new(task),
            state: Arc::clone(&state),
        });
        self.shared.ready.notify_one();
        TaskHandle { state }
    }

    /// Gives up on a task whose wall-clock deadline expired. A task still
    /// queued is discarded without running; a task currently executing
    /// keeps running on its (unkillable) worker, but that worker is
    /// written off and a replacement is spawned immediately, so the pool's
    /// capacity is unchanged. Idempotent.
    pub(crate) fn abandon(&self, handle: &TaskHandle) {
        let result = handle
            .state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |state| match state {
                QUEUED => Some(ABANDONED_QUEUED),
                RUNNING => Some(ABANDONED_RUNNING),
                _ => None,
            });
        if result == Ok(RUNNING) {
            // The runner is stuck inside the task: replace it.
            self.shared.spawn_worker();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.ready.notify_all();
        // No joins: idle workers wake and exit; a worker wedged inside an
        // abandoned task cannot be waited for anyway.
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
    run_in_order_within(ORDERED_WALL_BUDGET, workers, schedule_chaos, tasks)
}

/// [`run_in_order`] with the wait for each next result bounded by `budget`.
fn run_in_order_within<T, F>(
    budget: Duration,
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
        let Ok((i, outcome)) = rx.recv_timeout(budget) else {
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

    /// Worker threads spawned over the pool's lifetime (initial workers
    /// plus abandonment replacements).
    fn workers_spawned(pool: &WorkerPool) -> usize {
        pool.shared.workers_spawned.load(Ordering::Relaxed)
    }

    /// Tasks that ran to completion (including ones that panicked inside
    /// and ones abandoned mid-run that eventually returned).
    fn tasks_executed(pool: &WorkerPool) -> usize {
        pool.shared.tasks_executed.load(Ordering::Relaxed)
    }

    /// The executed-task counter is bumped *after* a task body returns, so
    /// a test that observed a task's side effect may still be ahead of the
    /// counter; wait for it to catch up.
    fn wait_for_executed(pool: &WorkerPool, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while tasks_executed(pool) < n && Instant::now() < deadline {
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
        assert_eq!(workers_spawned(&pool), 4);
        wait_for_executed(&pool, 32);
        assert_eq!(tasks_executed(&pool), 32);
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
        assert_eq!(workers_spawned(&pool), 1, "no replacement for a panic");
        wait_for_executed(&pool, 2);
        assert_eq!(tasks_executed(&pool), 2);
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
        assert_eq!(workers_spawned(&pool), 1, "queued abandonment: no spawn");
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
        assert_eq!(workers_spawned(&pool), 2, "one replacement spawned");
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
        assert_eq!(workers_spawned(&pool), 3, "exactly one replacement");
        let _ = gate_tx.send(());
    }

    #[test]
    fn all_workers_take_tasks_concurrently() {
        // 4 workers, 4 long-ish tasks on the one queue: if every idle
        // worker takes a task, wall time is ~1 task, not 4.
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
        assert_eq!(tasks_executed(&pool), 64, "chaos reorders, never drops");
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

    #[test]
    fn wedged_ordered_task_exceeds_the_budget() {
        // Task 1 blocks on a gate far longer than the budget; tasks 0 and
        // 2 finish on the other worker, so the wait for the third result
        // runs out the budget.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let mut gate = Some(gate_rx);
        let tasks = (0..3u64)
            .map(|i| {
                let gate = if i == 1 { gate.take() } else { None };
                move || {
                    if let Some(gate) = gate {
                        let _ = gate.recv_timeout(Duration::from_secs(10));
                    }
                    i
                }
            })
            .collect();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_in_order_within(Duration::from_millis(100), 2, None, tasks)
        }));
        // Release the wedged worker before asserting anything.
        let _ = gate_tx.send(());
        let message = match outcome {
            Ok(results) => panic!("a wedged run returned {results:?}"),
            Err(payload) => payload.downcast::<String>().map(|s| *s).unwrap_or_default(),
        };
        assert_eq!(
            message,
            "ordered task 1 of 3 (first outstanding) died or exceeded its budget"
        );
    }
}
