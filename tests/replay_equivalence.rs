//! Replay-equivalence gate: the dynamic half of the determinism audit.
//!
//! `pftk-audit` proves statically that no wall-clock, unordered-container,
//! or ad-hoc RNG nondeterminism reaches the result path; this gate proves
//! the property end to end. The same pinned-seed campaign over the first
//! eight Table II paths is executed by the supervised worker pool at 1, 2,
//! and 8 workers — and again with schedule chaos injected (seeded
//! yield-point shuffling plus rotated steal order inside the pool) — and
//! every run must reproduce the single-worker reference **bit for bit**:
//! identical traces, identical stats, identical calibration floats
//! (compared via `f64::to_bits`, not epsilon).
//!
//! Worker-pool scheduling may therefore affect only *when* a job runs,
//! never *what* it computes or *where* its row lands. CI runs a matrix
//! over `PFTK_REPLAY_WORKERS=1|2|8`; unset, each test sweeps all three.
//!
//! Jobs are real Table II hour-runs truncated by a small event budget so
//! the gate stays cheap in debug builds; truncation is itself
//! deterministic (the budget is counted in simulated events, not time).
//!
//! The `fleet_*` tests extend the gate to the sharded fleet executor:
//! the same seeded multi-cohort campaign at 1, 2, and 8 shards (CI
//! matrix: `PFTK_FLEET_SHARDS`), with and without schedule chaos, must
//! serialize to byte-identical reports — f64 folds and all.
//! `PFTK_FLEET_FLOWS` scales the population (default 2000, debug-friendly).

use std::sync::Arc;
use std::time::Duration;

use padhye_tcp_repro::sim::rounds::RoundsConfig;
use padhye_tcp_repro::testbed::{
    run_campaign, run_fleet, run_fleet_with, run_hour_budgeted_with, CampaignReport,
    ExperimentOptions, FleetCampaignSpec, FleetCohortSpec, JobSpec, Outcome, SupervisorConfig,
    TABLE2_PATHS,
};

/// Pinned campaign seed. Never change it casually: the point of the gate
/// is that this exact seed replays bit-identically everywhere.
const BASE_SEED: u64 = 0x00DE_7E57_2026;

/// Simulated-event budget per job — small enough that the whole sweep
/// stays in tier-1 time even unoptimized, large enough that every path
/// sees slow start, steady state, and recovery.
const EVENT_BUDGET: u64 = 120_000;

/// How many Table II paths the campaign covers. Must be >= the largest
/// worker count exercised: `run_campaign` clamps its worker fleet to the
/// job count, so fewer jobs would silently demote the 8-worker run.
const JOBS: usize = 8;

fn campaign_jobs() -> Vec<JobSpec> {
    TABLE2_PATHS[..JOBS]
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let spec = *spec;
            JobSpec {
                label: spec.id(),
                seed: BASE_SEED.wrapping_add(i as u64),
                // Retained so the gate can compare full traces record for
                // record on top of the streamed analysis.
                job: Arc::new(move |seed| {
                    run_hour_budgeted_with(
                        &spec,
                        seed,
                        EVENT_BUDGET,
                        &ExperimentOptions::retained(),
                    )
                }),
            }
        })
        .collect()
}

fn run_with(workers: usize, schedule_chaos: Option<u64>) -> CampaignReport {
    let config = SupervisorConfig {
        wall_budget: Duration::from_secs(120),
        retry: false,
        max_workers: workers,
        schedule_chaos,
    };
    run_campaign(campaign_jobs(), &config)
}

/// Worker counts under test: the full `[1, 2, 8]` sweep, or the single
/// count named by `PFTK_REPLAY_WORKERS` (the CI determinism matrix runs
/// one process per count so a divergence names its worker count).
fn worker_counts() -> Vec<usize> {
    match std::env::var("PFTK_REPLAY_WORKERS") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("PFTK_REPLAY_WORKERS must be a worker count")],
        Err(_) => vec![1, 2, 8],
    }
}

/// Asserts two campaign reports are bit-identical, row by row. Floats are
/// compared by bit pattern: an "equal within epsilon" replay is a broken
/// replay.
fn assert_bit_identical(reference: &CampaignReport, candidate: &CampaignReport, context: &str) {
    assert_eq!(
        reference.rows.len(),
        candidate.rows.len(),
        "{context}: row count diverged"
    );
    for (i, (a, b)) in reference.rows.iter().zip(&candidate.rows).enumerate() {
        let at = format!("{context}: row {i} ({})", a.label);
        assert_eq!(a.label, b.label, "{at}: label");
        assert_eq!(a.seed, b.seed, "{at}: seed");
        assert_eq!(a.outcome, b.outcome, "{at}: outcome");
        assert_eq!(a.attempts, b.attempts, "{at}: attempts");
        let ra = a.result.as_ref().expect("reference row has a result");
        let rb = b
            .result
            .as_ref()
            .unwrap_or_else(|| panic!("{at}: no result"));
        assert_eq!(ra.stats, rb.stats, "{at}: stats diverged");
        assert_eq!(
            ra.ground_rtt.map(f64::to_bits),
            rb.ground_rtt.map(f64::to_bits),
            "{at}: ground_rtt bits diverged"
        );
        assert_eq!(
            ra.ground_t0.map(f64::to_bits),
            rb.ground_t0.map(f64::to_bits),
            "{at}: ground_t0 bits diverged"
        );
        assert_eq!(
            ra.duration_secs.to_bits(),
            rb.duration_secs.to_bits(),
            "{at}: duration bits diverged"
        );
        assert_eq!(
            ra.event_budget_hit, rb.event_budget_hit,
            "{at}: budget flag diverged"
        );
        // The streamed analysis, including its float reductions bit for
        // bit (PartialEq would call -0.0 == 0.0 a match; the bits say no).
        assert_eq!(ra.stream, rb.stream, "{at}: streamed analysis diverged");
        assert_eq!(
            ra.timing().and_then(|t| t.mean_rtt).map(f64::to_bits),
            rb.timing().and_then(|t| t.mean_rtt).map(f64::to_bits),
            "{at}: streamed RTT bits diverged"
        );
        assert_eq!(
            ra.timing().and_then(|t| t.mean_t0).map(f64::to_bits),
            rb.timing().and_then(|t| t.mean_t0).map(f64::to_bits),
            "{at}: streamed T0 bits diverged"
        );
        assert_eq!(
            ra.rtt_window_corr().map(f64::to_bits),
            rb.rtt_window_corr().map(f64::to_bits),
            "{at}: streamed correlation bits diverged"
        );
        // The big one: the full event trace, record for record (these
        // jobs run retained precisely so this compare stays meaningful).
        assert!(ra.trace.is_some(), "{at}: retained run lost its trace");
        assert_eq!(ra.trace, rb.trace, "{at}: trace diverged");
    }
}

//= pftk#det-replay type=test
#[test]
fn campaign_replays_bit_identically_across_worker_counts() {
    let reference = run_with(1, None);
    assert!(
        reference.is_complete(),
        "reference campaign must be clean: {}",
        reference.summary()
    );
    assert_eq!(reference.rows.len(), JOBS);
    for row in &reference.rows {
        assert_eq!(row.outcome, Outcome::Ok, "{}", row.label);
    }

    for workers in worker_counts() {
        let plain = run_with(workers, None);
        assert_bit_identical(&reference, &plain, &format!("{workers} workers"));

        // Same campaign under schedule chaos: the pool inserts seeded
        // yield points and rotates steal order, maximally perturbing which
        // worker runs which job when. Results must not notice.
        let chaotic = run_with(workers, Some(0xC4A0_5000 + workers as u64));
        assert_bit_identical(
            &reference,
            &chaotic,
            &format!("{workers} workers + schedule chaos"),
        );
    }
}

/// Fleet population under test: `PFTK_FLEET_FLOWS` (CI's fleet-smoke job
/// raises it to 10^4), defaulting to a debug-friendly 2000.
fn fleet_flows() -> u64 {
    match std::env::var("PFTK_FLEET_FLOWS") {
        Ok(s) => s
            .trim()
            .parse()
            .expect("PFTK_FLEET_FLOWS must be a flow count"),
        Err(_) => 2000,
    }
}

/// Shard counts under test: the full `[1, 2, 8]` sweep, or the single
/// count named by `PFTK_FLEET_SHARDS` (one CI matrix process per count).
fn fleet_shard_counts() -> Vec<usize> {
    match std::env::var("PFTK_FLEET_SHARDS") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("PFTK_FLEET_SHARDS must be a shard count")],
        Err(_) => vec![1, 2, 8],
    }
}

/// The pinned fleet campaign: two grid points (TD-heavy and
/// timeout-heavy) splitting the population 3:1, with a small wire audit
/// so the pooled-analyzer path is inside the equivalence boundary too.
fn fleet_campaign() -> FleetCampaignSpec {
    let flows = fleet_flows();
    let lossy = flows / 4;
    FleetCampaignSpec {
        cohorts: vec![
            FleetCohortSpec {
                label: "p=0.02 rtt=0.1 wmax=64".into(),
                config: RoundsConfig {
                    p: 0.02,
                    rtt: 0.1,
                    t0: 1.0,
                    b: 2,
                    wmax: 64,
                    ..RoundsConfig::default()
                },
                flows: flows - lossy,
            },
            FleetCohortSpec {
                label: "p=0.1 rtt=0.3 wmax=16".into(),
                config: RoundsConfig {
                    p: 0.1,
                    rtt: 0.3,
                    t0: 1.5,
                    b: 2,
                    wmax: 16,
                    ..RoundsConfig::default()
                },
                flows: lossy,
            },
        ],
        base_seed: BASE_SEED ^ 0xF1EE7,
        horizon_secs: 30.0,
        audit_flows_per_cohort: 2,
        ..FleetCampaignSpec::default()
    }
}

/// Byte-exact report comparison: serializing to JSON makes every f64
/// fold part of the identity (two floats serialize identically iff their
/// bits match — modulo -0.0/0.0, which the fleet's sums never produce
/// from positive rates).
fn assert_fleet_identical(
    reference: &padhye_tcp_repro::testbed::FleetReport,
    candidate: &padhye_tcp_repro::testbed::FleetReport,
    context: &str,
) {
    let a = serde_json::to_string(reference).expect("reference report serializes");
    let b = serde_json::to_string(candidate).expect("candidate report serializes");
    assert_eq!(a, b, "{context}: fleet report diverged");
}

//= pftk#fleet-shard-equivalence type=test
#[test]
fn fleet_reports_are_bit_identical_across_shard_counts() {
    let spec = fleet_campaign();
    let reference = run_fleet(&spec, 1);
    assert_eq!(reference.total_flows, fleet_flows());
    assert!(reference.events > 0, "fleet did nothing");

    for shards in fleet_shard_counts() {
        let plain = run_fleet(&spec, shards);
        assert_fleet_identical(&reference, &plain, &format!("{shards} shards"));

        // Same campaign under schedule chaos: seeded yield points and
        // rotated steal order inside the worker pool perturb which worker
        // runs which shard when. Reports must not notice.
        let chaotic = run_fleet_with(&spec, shards, Some(0xF1EE_7C4A + shards as u64));
        assert_fleet_identical(
            &reference,
            &chaotic,
            &format!("{shards} shards + schedule chaos"),
        );
    }
}

/// A campaign mixing every congestion-control variant across cohorts:
/// the per-flow `CcState` dispatch must be as shard-invariant as Reno.
fn mixed_variant_campaign() -> FleetCampaignSpec {
    use padhye_tcp_repro::sim::cc::CcAlgorithm;
    let cohorts = CcAlgorithm::ALL
        .iter()
        .enumerate()
        .map(|(i, &algo)| FleetCohortSpec {
            label: format!("cc={} p=0.03 wmax=48", algo.label()),
            config: RoundsConfig {
                p: 0.03,
                rtt: 0.08 + 0.02 * i as f64,
                t0: 1.0,
                b: 2,
                wmax: 48,
                cc: algo,
                ..RoundsConfig::default()
            },
            flows: 240 + 40 * i as u64,
        })
        .collect();
    FleetCampaignSpec {
        cohorts,
        base_seed: BASE_SEED ^ 0xCC_A11,
        horizon_secs: 25.0,
        audit_flows_per_cohort: 1,
        ..FleetCampaignSpec::default()
    }
}

//= pftk#fleet-shard-equivalence type=test
#[test]
fn mixed_variant_fleet_replays_bit_identically_across_shard_counts() {
    let spec = mixed_variant_campaign();
    let reference = run_fleet(&spec, 1);
    assert!(reference.events > 0, "mixed-variant fleet did nothing");
    assert_eq!(reference.cohorts.len(), spec.cohorts.len());

    for shards in fleet_shard_counts() {
        let plain = run_fleet(&spec, shards);
        assert_fleet_identical(&reference, &plain, &format!("mixed-cc {shards} shards"));

        let chaotic = run_fleet_with(&spec, shards, Some(0xCC0_5EED + shards as u64));
        assert_fleet_identical(
            &reference,
            &chaotic,
            &format!("mixed-cc {shards} shards + schedule chaos"),
        );
    }
}

//= pftk#fleet-shard-equivalence type=test
#[test]
fn fleet_chaos_seed_never_leaks_into_reports() {
    let spec = FleetCampaignSpec {
        cohorts: vec![FleetCohortSpec {
            label: "chaos-probe".into(),
            config: RoundsConfig {
                p: 0.05,
                rtt: 0.1,
                t0: 1.0,
                b: 2,
                wmax: 32,
                ..RoundsConfig::default()
            },
            flows: 600,
        }],
        base_seed: BASE_SEED ^ 0xC4A05,
        horizon_secs: 20.0,
        audit_flows_per_cohort: 0,
        ..FleetCampaignSpec::default()
    };
    let a = run_fleet_with(&spec, 4, Some(1));
    let b = run_fleet_with(&spec, 4, Some(2));
    assert_fleet_identical(&a, &b, "fleet chaos seed 1 vs 2");
}

//= pftk#det-replay type=test
#[test]
fn chaos_seed_itself_never_leaks_into_results() {
    // Two different chaos seeds produce different schedules; the reports
    // must still match bit for bit — the chaos stream may only shape
    // scheduling, never observable output.
    let a = run_with(4, Some(1));
    let b = run_with(4, Some(2));
    assert_bit_identical(&a, &b, "chaos seed 1 vs 2");
}
