//! Self-healing campaign supervisor: runs a batch of experiments under
//! per-experiment budgets, isolating panics and hangs so one bad path
//! degrades the campaign to a partial result instead of killing it.
//!
//! The paper's Table II aggregates 24 hour-long measurements; losing all
//! 24 because one path wedged would have been absurd in 1997 and is just
//! as absurd here. Experiments run on a shared work-stealing
//! [`WorkerPool`] (one worker per monitor, spawned once per campaign
//! instead of one thread per attempt) with:
//!
//! * a **wall-clock budget** — the monitor waits on a channel with
//!   [`std::sync::mpsc::Receiver::recv_timeout`]; an attempt that blows
//!   the budget is abandoned via [`WorkerPool::abandon`] (threads cannot
//!   be killed; the pool immediately replaces the wedged worker so
//!   campaign capacity never degrades, and the leaked attempt keeps its
//!   own sim-event budget, so even a hung one is doubly fenced);
//! * **panic isolation** — every pool task runs under
//!   [`std::panic::catch_unwind`], so a panicking experiment reports
//!   [`Outcome::Panicked`] instead of poisoning anything, and the worker
//!   survives to run the next attempt;
//! * **one retry with a reseeded RNG** — stochastic wedges (a
//!   pathological seed) get a second, deterministic-but-different draw;
//!   success on the retry is recorded as [`Outcome::Retried`].
//!
//! The result is a [`CampaignReport`]: one [`CampaignRow`] per experiment,
//! each labeled `Ok`/`Retried`/`TimedOut`/`Panicked`, with results present
//! exactly for the successful rows. Consumers render failures as explicit
//! holes (see `repro`'s Table II) rather than silently shrinking the
//! campaign.

use crate::experiment::ExperimentResult;
use crate::pool::{self, WorkerPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

/// An experiment as the supervisor sees it: a seeded, re-runnable closure.
/// Taking the seed as an argument (rather than capturing it) is what makes
/// the reseeded retry possible.
pub type Job = Arc<dyn Fn(u64) -> ExperimentResult + Send + Sync + 'static>;

/// One schedulable experiment.
#[derive(Clone)]
pub struct JobSpec {
    /// Human-readable label (e.g. the path id) used in reports.
    pub label: String,
    /// Seed for the first attempt.
    pub seed: u64,
    /// The experiment body.
    pub job: Job,
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("label", &self.label)
            .field("seed", &self.seed)
            .finish()
    }
}

/// How one experiment ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Completed within budget on the first attempt.
    Ok,
    /// First attempt failed; the reseeded retry completed.
    Retried,
    /// Completed after resuming from a crash-recovery checkpoint (the
    /// journaled campaign restored mid-flight state written before a
    /// previous process died). Distinct from [`Outcome::Retried`]: a
    /// resumed attempt continues the *same* seed's event stream
    /// bit-identically, a retry abandons it for a reseeded draw.
    Resumed,
    /// Exceeded the wall-clock budget (on the final attempt).
    TimedOut,
    /// Panicked (on the final attempt).
    Panicked,
}

impl Outcome {
    /// True when the experiment produced a usable result.
    pub fn succeeded(self) -> bool {
        matches!(self, Outcome::Ok | Outcome::Retried | Outcome::Resumed)
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Retried => "retried",
            Outcome::Resumed => "resumed",
            Outcome::TimedOut => "timed-out",
            Outcome::Panicked => "panicked",
        }
    }
}

/// Supervisor tunables.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Wall-clock budget per *attempt* (not per experiment).
    pub wall_budget: Duration,
    /// Whether a failed first attempt gets one reseeded retry.
    pub retry: bool,
    /// Concurrent experiments; 0 = one per available core.
    pub max_workers: usize,
    /// When set, the worker pool perturbs its own scheduling from this
    /// seed ([`WorkerPool::with_schedule_chaos`]): injected yield points
    /// and rotated steal order. Campaign reports must be bit-identical
    /// with or without it; the replay-equivalence gate relies on that.
    pub schedule_chaos: Option<u64>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            // Generous: an hour-long Table II simulation finishes in
            // seconds; ten minutes of wall clock means something is wedged.
            wall_budget: Duration::from_secs(600),
            retry: true,
            max_workers: 0,
            schedule_chaos: None,
        }
    }
}

/// Per-experiment line of a [`CampaignReport`].
#[derive(Debug)]
pub struct CampaignRow {
    /// The experiment's label.
    pub label: String,
    /// Seed of the attempt the outcome describes (the reseeded one for
    /// retries).
    pub seed: u64,
    /// How the experiment ended.
    pub outcome: Outcome,
    /// Attempts consumed (1 or 2).
    pub attempts: u32,
    /// The result, present iff [`Outcome::succeeded`].
    pub result: Option<ExperimentResult>,
}

/// The (possibly partial) outcome of a supervised campaign.
#[derive(Debug, Default)]
pub struct CampaignReport {
    /// One row per submitted job, in submission order.
    pub rows: Vec<CampaignRow>,
}

impl CampaignReport {
    /// Rows that produced a usable result.
    pub fn ok_count(&self) -> usize {
        self.rows.iter().filter(|r| r.outcome.succeeded()).count()
    }

    /// True when every row succeeded.
    pub fn is_complete(&self) -> bool {
        self.ok_count() == self.rows.len()
    }

    /// The failed rows (explicit holes a renderer must account for).
    pub fn failures(&self) -> impl Iterator<Item = &CampaignRow> {
        self.rows.iter().filter(|r| !r.outcome.succeeded())
    }

    /// One-line human summary, e.g. `22/24 ok (1 timed-out, 1 panicked)`.
    pub fn summary(&self) -> String {
        let mut s = format!("{}/{} ok", self.ok_count(), self.rows.len());
        let failed: Vec<String> = self
            .failures()
            .map(|r| format!("{} {}", r.label, r.outcome.label()))
            .collect();
        if !failed.is_empty() {
            s.push_str(&format!(" ({})", failed.join(", ")));
        }
        s
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

/// How one attempt ended (internal).
enum Attempt {
    Completed(Box<ExperimentResult>),
    Panicked,
    TimedOut,
}

impl Attempt {
    fn failure_outcome(&self) -> Outcome {
        match self {
            Attempt::Completed(_) => Outcome::Ok,
            Attempt::Panicked => Outcome::Panicked,
            Attempt::TimedOut => Outcome::TimedOut,
        }
    }
}

/// Derives the retry seed: deterministic, but a different stream.
fn reseed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xD1B5_4A32_D192_ED03)
}

/// Runs one attempt on the shared worker pool and waits up to `budget`.
/// An attempt that neither finishes nor panics in time is abandoned:
/// threads cannot be killed, so the monitor walks away (the leaked
/// attempt's eventual send lands on a closed channel) and the pool spawns
/// a replacement worker so capacity is unchanged.
fn attempt(pool: &WorkerPool, job: &Job, seed: u64, budget: Duration) -> Attempt {
    let (tx, rx) = mpsc::channel();
    let job = Arc::clone(job);
    let handle = pool.submit(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| job(seed)));
        let _ = tx.send(outcome);
    });
    match rx.recv_timeout(budget) {
        Ok(Ok(result)) => Attempt::Completed(Box::new(result)),
        Ok(Err(_panic)) => Attempt::Panicked,
        Err(_timeout_or_discarded) => {
            pool.abandon(&handle);
            Attempt::TimedOut
        }
    }
}

/// Supervises a single experiment: first attempt, optional reseeded retry.
fn supervise_one(pool: &WorkerPool, spec: &JobSpec, config: &SupervisorConfig) -> CampaignRow {
    match attempt(pool, &spec.job, spec.seed, config.wall_budget) {
        Attempt::Completed(result) => CampaignRow {
            label: spec.label.clone(),
            seed: spec.seed,
            outcome: Outcome::Ok,
            attempts: 1,
            result: Some(*result),
        },
        first => {
            if !config.retry {
                return CampaignRow {
                    label: spec.label.clone(),
                    seed: spec.seed,
                    outcome: first.failure_outcome(),
                    attempts: 1,
                    result: None,
                };
            }
            let retry_seed = reseed(spec.seed);
            match attempt(pool, &spec.job, retry_seed, config.wall_budget) {
                Attempt::Completed(result) => CampaignRow {
                    label: spec.label.clone(),
                    seed: retry_seed,
                    outcome: Outcome::Retried,
                    attempts: 2,
                    result: Some(*result),
                },
                second => CampaignRow {
                    label: spec.label.clone(),
                    seed: retry_seed,
                    outcome: second.failure_outcome(),
                    attempts: 2,
                    result: None,
                },
            }
        }
    }
}

/// Runs every job under supervision, bounded by
/// [`SupervisorConfig::max_workers`] concurrent experiments, and returns
/// one row per job in submission order.
///
/// The report always covers every submitted job: monitors never execute
/// experiment code directly (it runs on pooled worker threads), and
/// even if a monitor were lost its slot degrades to a `Panicked` hole
/// rather than poisoning the whole campaign.
//= pftk#det-replay
//= pftk#det-ordered-output
pub fn run_campaign(jobs: Vec<JobSpec>, config: &SupervisorConfig) -> CampaignReport {
    let n = jobs.len();
    // Rows are assembled into slots indexed by *submission order*, never
    // by completion order, so the report is invariant under scheduling.
    let slots: Mutex<Vec<Option<CampaignRow>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let monitors = if config.max_workers == 0 {
        pool::available_workers()
    } else {
        config.max_workers
    }
    .min(n.max(1));
    // One pooled worker per monitor: each monitor drives at most one
    // attempt at a time, so the pool can never be oversubscribed, and
    // abandoned (wedged) workers are replaced by the pool itself.
    let pool = match config.schedule_chaos {
        Some(seed) => WorkerPool::with_schedule_chaos(monitors, seed),
        None => WorkerPool::new(monitors),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..monitors)
            .map(|_| {
                scope.spawn(|| loop {
                    // AcqRel: claiming index `i` is the hand-off point that
                    // entitles this monitor to job `i` and its report slot;
                    // make the claim's ordering explicit instead of leaning
                    // on the slots Mutex alone.
                    let i = next.fetch_add(1, Ordering::AcqRel);
                    if i >= n {
                        break;
                    }
                    let row = supervise_one(&pool, &jobs[i], config);
                    pool::lock(&slots)[i] = Some(row);
                })
            })
            .collect();
        // A lost monitor (cannot happen in the current design: monitors
        // run no experiment code) must not void the survivors' work, so
        // its join error is discarded rather than re-raised by the scope.
        for handle in handles {
            let _ = handle.join();
        }
    });
    let rows = slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| CampaignRow {
                label: jobs[i].label.clone(),
                seed: jobs[i].seed,
                outcome: Outcome::Panicked,
                attempts: 1,
                result: None,
            })
        })
        .collect();
    CampaignReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp_sim::stats::ConnStats;

    fn fake_result(seed: u64) -> ExperimentResult {
        let stats = ConnStats {
            packets_sent: seed,
            ..Default::default()
        };
        ExperimentResult {
            stream: tcp_trace::stream::StreamAnalysis::default(),
            trace: None,
            stats,
            ground_rtt: None,
            ground_t0: None,
            duration_secs: 1.0,
            event_budget_hit: false,
        }
    }

    fn quick_config() -> SupervisorConfig {
        SupervisorConfig {
            wall_budget: Duration::from_millis(300),
            retry: true,
            max_workers: 4,
            schedule_chaos: None,
        }
    }

    //= pftk#det-ordered-output type=test
    #[test]
    fn all_ok_campaign_is_complete_and_ordered() {
        let jobs: Vec<JobSpec> = (0..8u64)
            .map(|i| JobSpec {
                label: format!("job-{i}"),
                seed: i,
                job: Arc::new(fake_result),
            })
            .collect();
        let report = run_campaign(jobs, &quick_config());
        assert!(report.is_complete());
        assert_eq!(report.ok_count(), 8);
        for (i, row) in report.rows.iter().enumerate() {
            assert_eq!(row.label, format!("job-{i}"), "submission order kept");
            assert_eq!(row.outcome, Outcome::Ok);
            assert_eq!(row.attempts, 1);
            let result = row.result.as_ref().unwrap();
            assert_eq!(result.stats.packets_sent, i as u64, "own seed used");
        }
        assert_eq!(report.summary(), "8/8 ok");
    }

    #[test]
    fn panicking_job_yields_a_labeled_hole_not_a_poisoned_join() {
        let jobs = vec![
            JobSpec {
                label: "good".into(),
                seed: 1,
                job: Arc::new(fake_result),
            },
            JobSpec {
                label: "bad".into(),
                seed: 2,
                job: Arc::new(|_seed| panic!("injected experiment failure")),
            },
            JobSpec {
                label: "also-good".into(),
                seed: 3,
                job: Arc::new(fake_result),
            },
        ];
        let report = run_campaign(jobs, &quick_config());
        assert_eq!(report.ok_count(), 2, "survivors' rows are returned");
        assert!(!report.is_complete());
        assert_eq!(report.rows[1].outcome, Outcome::Panicked);
        assert_eq!(report.rows[1].attempts, 2, "the panic was retried once");
        assert!(report.rows[1].result.is_none());
        assert!(report.rows[0].result.is_some());
        assert!(report.rows[2].result.is_some());
        assert_eq!(report.summary(), "2/3 ok (bad panicked)");
    }

    #[test]
    fn hanging_job_times_out_within_budget() {
        let jobs = vec![
            JobSpec {
                label: "fast".into(),
                seed: 1,
                job: Arc::new(fake_result),
            },
            JobSpec {
                label: "wedged".into(),
                seed: 2,
                // An "infinite loop" that does not burn a CPU for the rest
                // of the test binary's life: the leaked thread sleeps.
                job: Arc::new(|_seed| loop {
                    std::thread::sleep(Duration::from_millis(50));
                }),
            },
        ];
        let started = std::time::Instant::now();
        let report = run_campaign(jobs, &quick_config());
        // Two attempts × 300 ms budget, plus scheduling slack.
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(report.ok_count(), 1);
        assert_eq!(report.rows[1].outcome, Outcome::TimedOut);
        assert!(report.summary().contains("wedged timed-out"));
    }

    #[test]
    fn flaky_job_succeeds_on_reseeded_retry() {
        let jobs = vec![JobSpec {
            label: "flaky".into(),
            seed: 42,
            job: Arc::new(|seed| {
                assert!(seed != 42, "pathological seed");
                fake_result(seed)
            }),
        }];
        let report = run_campaign(jobs, &quick_config());
        assert_eq!(report.rows[0].outcome, Outcome::Retried);
        assert_eq!(report.rows[0].attempts, 2);
        assert_eq!(report.rows[0].seed, reseed(42), "retry seed recorded");
        let result = report.rows[0].result.as_ref().unwrap();
        assert_eq!(result.stats.packets_sent, reseed(42));
        assert_eq!(report.ok_count(), 1);
    }

    #[test]
    fn retry_can_be_disabled() {
        let config = SupervisorConfig {
            retry: false,
            ..quick_config()
        };
        let jobs = vec![JobSpec {
            label: "bad".into(),
            seed: 1,
            job: Arc::new(|_| panic!("boom")),
        }];
        let report = run_campaign(jobs, &config);
        assert_eq!(report.rows[0].outcome, Outcome::Panicked);
        assert_eq!(report.rows[0].attempts, 1);
    }

    #[test]
    fn empty_campaign_is_trivially_complete() {
        let report = run_campaign(Vec::new(), &quick_config());
        assert!(report.is_complete());
        assert_eq!(report.ok_count(), 0);
        assert_eq!(report.summary(), "0/0 ok");
    }

    /// Regression: a crash-resumed attempt must be labeled distinctly from
    /// a reseeded retry. A resume continues the *same* seed's event stream
    /// bit-identically; a retry abandons it for a different draw — reports
    /// that conflated them would hide which rows are exact.
    #[test]
    fn resumed_outcome_is_distinct_from_retried() {
        assert_ne!(Outcome::Resumed, Outcome::Retried);
        assert_eq!(Outcome::Resumed.label(), "resumed");
        assert_ne!(Outcome::Resumed.label(), Outcome::Retried.label());
        // Both count as usable results…
        assert!(Outcome::Resumed.succeeded());
        assert!(Outcome::Retried.succeeded());
        // …so a resumed row is never rendered as a campaign hole.
        let report = CampaignReport {
            rows: vec![CampaignRow {
                label: "resumed-row".into(),
                seed: 7,
                outcome: Outcome::Resumed,
                attempts: 1,
                result: Some(fake_result(7)),
            }],
        };
        assert!(report.is_complete());
        assert_eq!(report.failures().count(), 0);
        assert_eq!(report.summary(), "1/1 ok");
    }
}
