//! # tcp-testbed
//!
//! The synthetic measurement testbed: this crate stands in for the paper's
//! 1997 Internet — 19 hosts (Table I), 24 calibrated sender→receiver paths
//! (Table II), a modem path (Fig. 11) — and runs the paper's three
//! measurement campaigns against the `tcp-sim` packet-level simulator:
//!
//! * [`experiment::run_hour_budgeted_with`] /
//!   [`experiment::run_table2_supervised`] — the hour-long "infinite
//!   source" connections behind Table II and Figs. 7/9;
//! * [`experiment::run_serial_100s_with`] — the 100×100-second serial
//!   connections behind Figs. 8/10 ("serially initiated" is the paper's
//!   schedule; the simulated connections run concurrently on the worker
//!   pool and come back in index order);
//! * [`experiment::run_modem`] — the dedicated-buffer modem scenario of
//!   Fig. 11.
//!
//! [`fleet`] scales validation to populations: sharded 10^5–10^6-flow
//! campaigns over the `tcp-sim` fleet arenas, with per-cohort
//! distributional comparison against Eq. (32) and a pooled-analyzer wire
//! audit (DESIGN.md §14).
//! [`report`] turns results into the exact series each figure plots.
//! [`supervisor`] runs campaigns under per-experiment budgets with panic
//! isolation and retry, so one wedged path degrades Table II to a partial
//! table with explicit holes instead of killing the run.
//! [`journal`] adds crash safety on top: [`experiment::run_table2_journaled`]
//! writes a write-ahead journal of completed attempts and in-flight
//! checkpoints, and a re-invocation after a crash resumes bit-identically
//! instead of starting over (DESIGN.md §13).
//! See DESIGN.md §1 for the substitution argument (what the paper used →
//! what this testbed provides → why it preserves the relevant behaviour).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod experiment;
pub mod fleet;
pub mod hosts;
pub mod journal;
pub mod paths;
pub mod pool;
pub mod report;
pub mod supervisor;

pub use experiment::{
    run_hour_budgeted, run_hour_budgeted_with, run_modem, run_serial_100s, run_serial_100s_with,
    run_table2_journaled, run_table2_supervised, ExperimentOptions, ExperimentResult,
    JournalConfig, TraceRecorder, DEFAULT_EVENT_BUDGET,
};
pub use fleet::{
    run_fleet, run_fleet_with, CohortAudit, CohortReport, FleetCampaignSpec, FleetCohortSpec,
    FleetReport,
};
pub use hosts::{host, Host, Os, HOSTS};
pub use journal::{CampaignRecord, CrashPoint, Journal, ResultPayload};
pub use paths::{fig7_paths, fig8_paths, table2_path, ModemSpec, PathSpec, TABLE2_PATHS};
pub use pool::{TaskHandle, WorkerPool};
pub use supervisor::{
    run_campaign, CampaignReport, CampaignRow, Job, JobSpec, Outcome, SupervisorConfig,
};

pub use report::{
    error_triple_hourly, error_triple_serial, fig7_panel, fig8_series, fitted_params, loss_grid,
    ErrorTriple, Fig7Panel, Fig8Point, ModelCurve, ScatterPoint,
};
