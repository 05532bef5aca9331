//! Resume-equivalence gate: the replay-equivalence property extended
//! across process death.
//!
//! `tests/replay_equivalence.rs` proves a supervised campaign reproduces
//! bit-identically under any scheduling. This gate proves the stronger
//! property the crash-safe journal adds: a campaign that is **killed at a
//! seeded random checkpoint boundary and re-invoked** produces final
//! Table II / streamed-analysis outputs bit-identical (`f64::to_bits`) to
//! an uninterrupted run — completed rows replay from the write-ahead
//! journal, the killed row resumes mid-connection from its snapshot, and
//! nothing is recomputed differently.
//!
//! The "kill" is an injected panic ([`CrashPoint`]) tripped by a worker
//! right after it hands a checkpoint to the journal writer — the same
//! durable state a SIGKILL would leave behind, unwound through the
//! supervisor's panic isolation so the campaign reports an attributable
//! `Panicked` hole. The pool's schedule chaos stays armed throughout, so
//! the kill lands under perturbed scheduling too.
//!
//! CI runs a matrix over `PFTK_RESUME_WORKERS=1|2|8` (two kill seeds and
//! a kill at the last checkpoint per worker count); unset, the test sweeps
//! all three counts. The journal is also checked for **freshness**: a
//! resumed run strictly appends — the byte prefix written before the
//! crash is never rewritten.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use padhye_tcp_repro::testbed::journal::{self, CampaignRecord, Checkpoint, Journal};
use padhye_tcp_repro::testbed::{
    run_table2_journaled, CampaignReport, CrashPoint, JournalConfig, Outcome, SupervisorConfig,
    TraceRecorder, TABLE2_PATHS,
};
use padhye_tcp_repro::trace::analyzer::AnalyzerConfig;
use padhye_tcp_repro::trace::stream::{StreamConfig, STREAM_SNAPSHOT_KIND};

/// Pinned campaign seed: the gate's claim is that this exact campaign
/// reproduces bit-identically through a crash.
const BASE_SEED: u64 = 0x0C0F_FEE5_2026;

/// Table II paths under test. Must be >= the largest worker count so the
/// 8-worker run is not silently demoted to fewer busy workers.
const JOBS: usize = 8;

/// Sim horizon per connection, seconds. Short enough for tier-1 debug
/// builds, long enough for several checkpoint boundaries per connection.
const HORIZON_SECS: f64 = 300.0;

/// Checkpoint cadence, sim-seconds: 5 in-flight checkpoints per run.
const CHECKPOINT_SECS: f64 = 50.0;

/// Two pinned kill seeds per worker count (the CI matrix dimension).
const KILL_SEEDS: [u64; 2] = [0xDEAD_0001, 0xDEAD_0002];

fn journal_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pftk-resume-{}-{tag}.waj", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn config(workers: usize, crash: Option<Arc<CrashPoint>>) -> JournalConfig {
    JournalConfig {
        supervisor: SupervisorConfig {
            wall_budget: Duration::from_secs(120),
            // No reseeded retries: a killed attempt must stay an
            // attributable hole for the *resume* run to pick up, not be
            // papered over with a different seed's result.
            retry: false,
            max_workers: workers,
            // Reuse the worker-pool chaos machinery: seeded yield points
            // and rotated steal order, so the kill point lands under
            // perturbed scheduling.
            schedule_chaos: Some(0xC4A0_5E5E + workers as u64),
        },
        checkpoint_sim_secs: CHECKPOINT_SECS,
        horizon_secs: HORIZON_SECS,
        crash,
        ..JournalConfig::default()
    }
}

fn run(path: &std::path::Path, workers: usize, crash: Option<Arc<CrashPoint>>) -> CampaignReport {
    run_table2_journaled(
        &TABLE2_PATHS[..JOBS],
        BASE_SEED,
        path,
        &config(workers, crash),
    )
    .expect("journal I/O")
}

/// Worker counts under test: the full `[1, 2, 8]` sweep, or the single
/// count named by `PFTK_RESUME_WORKERS` (one CI process per count).
fn worker_counts() -> Vec<usize> {
    match std::env::var("PFTK_RESUME_WORKERS") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("PFTK_RESUME_WORKERS must be a worker count")],
        Err(_) => vec![1, 2, 8],
    }
}

/// SplitMix64: turns a kill seed into a well-mixed draw.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Asserts a resumed/replayed report reproduces the uninterrupted
/// reference bit for bit. Outcomes may differ only in the allowed way:
/// `Ok` in the reference, `Ok` (replayed/re-run) or `Resumed`
/// (checkpoint-restored) in the candidate — never a retry, which would
/// mean a different seed's stream was substituted.
fn assert_outputs_bit_identical(
    reference: &CampaignReport,
    candidate: &CampaignReport,
    context: &str,
) {
    assert_eq!(
        reference.rows.len(),
        candidate.rows.len(),
        "{context}: rows"
    );
    for (i, (a, b)) in reference.rows.iter().zip(&candidate.rows).enumerate() {
        let at = format!("{context}: row {i} ({})", a.label);
        assert_eq!(a.label, b.label, "{at}: label");
        assert_eq!(a.seed, b.seed, "{at}: seed (a retry leaked in?)");
        assert!(
            matches!(b.outcome, Outcome::Ok | Outcome::Resumed),
            "{at}: outcome {:?}",
            b.outcome
        );
        let ra = a.result.as_ref().expect("reference row has a result");
        let rb = b
            .result
            .as_ref()
            .unwrap_or_else(|| panic!("{at}: no result"));
        assert_eq!(ra.stats, rb.stats, "{at}: ground-truth stats diverged");
        assert_eq!(ra.stream, rb.stream, "{at}: streamed analysis diverged");
        assert_eq!(
            ra.ground_rtt.map(f64::to_bits),
            rb.ground_rtt.map(f64::to_bits),
            "{at}: ground RTT bits"
        );
        assert_eq!(
            ra.ground_t0.map(f64::to_bits),
            rb.ground_t0.map(f64::to_bits),
            "{at}: ground T0 bits"
        );
        assert_eq!(
            ra.duration_secs.to_bits(),
            rb.duration_secs.to_bits(),
            "{at}: duration bits"
        );
        assert_eq!(
            ra.timing().and_then(|t| t.mean_rtt).map(f64::to_bits),
            rb.timing().and_then(|t| t.mean_rtt).map(f64::to_bits),
            "{at}: streamed RTT bits"
        );
        assert_eq!(
            ra.timing().and_then(|t| t.mean_t0).map(f64::to_bits),
            rb.timing().and_then(|t| t.mean_t0).map(f64::to_bits),
            "{at}: streamed T0 bits"
        );
        assert_eq!(
            ra.rtt_window_corr().map(f64::to_bits),
            rb.rtt_window_corr().map(f64::to_bits),
            "{at}: correlation bits"
        );
    }
}

/// How many checkpoint records an uninterrupted run of this campaign
/// writes — the tick space the seeded kill points draw from.
fn count_checkpoints(path: &std::path::Path) -> u64 {
    let replayed = journal::replay(path).expect("journal readable");
    assert!(!replayed.torn_tail, "clean run left a torn journal");
    replayed
        .records
        .iter()
        .filter(|r| matches!(r, CampaignRecord::Checkpoint(_)))
        .count() as u64
}

//= pftk#det-replay type=test
//= pftk#crash-resume type=test
#[test]
fn killed_and_resumed_campaign_is_bit_identical() {
    // Uninterrupted journaled reference.
    let ref_path = journal_path("reference");
    let reference = run(&ref_path, 2, None);
    assert!(
        reference.is_complete(),
        "reference campaign must be clean: {}",
        reference.summary()
    );
    assert_eq!(reference.rows.len(), JOBS);
    for row in &reference.rows {
        assert_eq!(row.outcome, Outcome::Ok, "{}", row.label);
    }
    let total_ticks = count_checkpoints(&ref_path);
    assert!(
        total_ticks >= JOBS as u64 * 2,
        "too few checkpoints ({total_ticks}) for a meaningful kill space"
    );
    let _ = std::fs::remove_file(&ref_path);

    for workers in worker_counts() {
        // The longest checkpoint chain a resumed row restored from.
        let mut longest_chain = 0;
        // Seeded kill points, clamped to the first half of the tick space
        // so the crash reliably fires before the campaign drains. Which job
        // a seeded tick lands on depends on scheduling, so a third kill
        // is pinned to the campaign's last checkpoint: it is always the
        // final checkpoint of some job, whose resume then applies a chain
        // of all that job's checkpoints.
        let ticks = KILL_SEEDS
            .iter()
            .map(|seed| 1 + splitmix(seed ^ workers as u64) % (total_ticks / 2))
            .chain([total_ticks]);
        for (ki, tick) in ticks.enumerate() {
            let context = format!("{workers} workers, kill {ki} at tick {tick}");
            let path = journal_path(&format!("kill-w{workers}-k{ki}"));
            let crashed = run(&path, workers, Some(CrashPoint::after(tick)));
            let holes: Vec<_> = crashed
                .rows
                .iter()
                .filter(|r| !r.outcome.succeeded())
                .collect();
            assert!(
                !holes.is_empty(),
                "{context}: kill at tick {tick} left no hole"
            );
            for hole in &holes {
                assert_eq!(
                    hole.outcome,
                    Outcome::Panicked,
                    "{context}: hole must be an attributable crash"
                );
            }
            let bytes_after_crash = std::fs::read(&path).expect("journal exists");
            let chains = journal::replay(&path)
                .expect("journal readable")
                .into_state()
                .inflight;

            // Resume: completed rows replay, the killed row restores from
            // its last checkpoint and continues.
            let resumed = run(&path, workers, None);
            assert!(
                resumed.is_complete(),
                "{context}: resume left holes: {}",
                resumed.summary()
            );
            assert!(
                resumed.rows.iter().any(|r| r.outcome == Outcome::Resumed),
                "{context}: no row was checkpoint-resumed"
            );
            assert_outputs_bit_identical(&reference, &resumed, &context);
            longest_chain = longest_chain.max(longest_resumed_chain(&resumed, &chains));

            // Journal freshness: resuming strictly appends — the bytes
            // written before the crash are still there, byte for byte.
            let bytes_after_resume = std::fs::read(&path).expect("journal exists");
            assert!(
                bytes_after_resume.len() >= bytes_after_crash.len(),
                "{context}: journal shrank"
            );
            assert_eq!(
                &bytes_after_resume[..bytes_after_crash.len()],
                &bytes_after_crash[..],
                "{context}: resume rewrote completed records"
            );

            // Idempotence: a third invocation replays everything and the
            // journal does not grow at all.
            let replayed = run(&path, workers, None);
            assert!(replayed.is_complete());
            assert_outputs_bit_identical(&reference, &replayed, &format!("{context} (replay)"));
            assert_eq!(
                std::fs::read(&path).expect("journal exists"),
                bytes_after_resume,
                "{context}: pure replay grew the journal"
            );
            let _ = std::fs::remove_file(&path);
        }
        // Incremental checkpoints only prove out when a resume applies
        // more than one analyzer delta.
        assert!(
            longest_chain >= 2,
            "{workers} workers: no resumed row restored from a chain of 2+ \
             checkpoints (longest {longest_chain})"
        );
    }
}

/// The longest checkpoint chain among the rows of `report` that resumed.
fn longest_resumed_chain(
    report: &CampaignReport,
    chains: &BTreeMap<u64, Vec<Checkpoint>>,
) -> usize {
    report
        .rows
        .iter()
        .enumerate()
        .filter(|(_, row)| row.outcome == Outcome::Resumed)
        .filter_map(|(i, _)| chains.get(&(i as u64)))
        .map(Vec::len)
        .max()
        .unwrap_or(0)
}

//= pftk#crash-resume type=test
#[test]
fn non_reno_campaign_checkpoint_resumes_bit_identically() {
    // The checkpoint path must restore *variant* controller state, not
    // just Reno's: run the kill/resume cycle under CUBIC, whose snapshot
    // carries epoch geometry (w_max, K, epoch start) absent from Reno.
    use padhye_tcp_repro::sim::cc::CcAlgorithm;
    const CC: CcAlgorithm = CcAlgorithm::Cubic;
    const CC_SEED: u64 = BASE_SEED ^ 0xCC;
    let cfg = |crash| JournalConfig {
        cc: CC,
        ..config(2, crash)
    };
    let run_cc = |path: &std::path::Path, crash| {
        run_table2_journaled(&TABLE2_PATHS[..4], CC_SEED, path, &cfg(crash)).expect("journal I/O")
    };

    let ref_path = journal_path("cubic-reference");
    let reference = run_cc(&ref_path, None);
    assert!(
        reference.is_complete(),
        "reference campaign must be clean: {}",
        reference.summary()
    );
    let total_ticks = count_checkpoints(&ref_path);
    assert!(total_ticks >= 8, "too few checkpoints ({total_ticks})");
    let _ = std::fs::remove_file(&ref_path);

    let path = journal_path("cubic-kill");
    let crashed = run_cc(&path, Some(CrashPoint::after(1 + total_ticks / 3)));
    assert!(
        crashed.rows.iter().any(|r| r.outcome == Outcome::Panicked),
        "kill left no attributable hole"
    );

    let resumed = run_cc(&path, None);
    assert!(
        resumed.is_complete(),
        "resume left holes: {}",
        resumed.summary()
    );
    assert!(
        resumed.rows.iter().any(|r| r.outcome == Outcome::Resumed),
        "no row was checkpoint-resumed under {CC:?}"
    );
    assert_outputs_bit_identical(&reference, &resumed, "cubic resume");
    let _ = std::fs::remove_file(&path);
}

//= pftk#journal-torn-tail type=test
#[test]
fn torn_or_corrupt_journal_recovers_without_panicking() {
    let ref_path = journal_path("torn-reference");
    let reference = run(&ref_path, 2, None);
    assert!(reference.is_complete());
    let _ = std::fs::remove_file(&ref_path);

    // Crash a campaign, then damage the journal the way a real crash or a
    // bad disk would, and resume. Recovery must never panic and the final
    // outputs must still be bit-identical — damaged suffixes only cost
    // re-simulation.
    let total_ticks = {
        let probe = journal_path("torn-probe");
        let _ = run(&probe, 2, None);
        let n = count_checkpoints(&probe);
        let _ = std::fs::remove_file(&probe);
        n
    };

    // Scenario 1: torn tail — the file ends mid-record.
    let path = journal_path("torn-tail");
    let _ = run(&path, 2, Some(CrashPoint::after(1 + total_ticks / 3)));
    let mut bytes = std::fs::read(&path).expect("journal exists");
    bytes.truncate(bytes.len().saturating_sub(3));
    std::fs::write(&path, &bytes).expect("truncate journal");
    let resumed = run(&path, 2, None);
    assert!(
        resumed.is_complete(),
        "torn tail: resume left holes: {}",
        resumed.summary()
    );
    assert_outputs_bit_identical(&reference, &resumed, "torn tail");
    let _ = std::fs::remove_file(&path);

    // Scenario 2: corrupt record in the middle — everything from the
    // damaged record on is treated as truncated and re-run.
    let path = journal_path("corrupt-mid");
    let _ = run(&path, 2, Some(CrashPoint::after(1 + total_ticks / 3)));
    let mut bytes = std::fs::read(&path).expect("journal exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&path, &bytes).expect("corrupt journal");
    let resumed = run(&path, 2, None);
    assert!(
        resumed.is_complete(),
        "corrupt record: resume left holes: {}",
        resumed.summary()
    );
    assert_outputs_bit_identical(&reference, &resumed, "corrupt record");
    let _ = std::fs::remove_file(&path);
}

/// A journal in the format older builds wrote: every checkpoint carries
/// the analyzer's full `stream_snapshot()` at its boundary, sent with
/// `Journal::append`, and completions with `append_sync`. The records are
/// those of `delta_journal` (written by this build), with each job's
/// delta chain expanded into the full snapshots it encodes. Stops right
/// after the first checkpoint at `boundary` or later of a job that has
/// not completed by then, and returns that job's index.
fn write_full_snapshot_journal(
    delta_journal: &std::path::Path,
    out: &std::path::Path,
    boundary: u64,
) -> u64 {
    let records = journal::replay(delta_journal)
        .expect("journal readable")
        .records;
    let journal = Journal::open(out).expect("journal opens");
    let mut recorders: BTreeMap<u64, TraceRecorder> = BTreeMap::new();
    let mut done = Vec::new();
    for record in records {
        match record {
            CampaignRecord::Checkpoint(mut cp) => {
                let spec = &TABLE2_PATHS[cp.job_index as usize];
                let recorder = recorders.entry(cp.job_index).or_insert_with(|| {
                    TraceRecorder::streaming(StreamConfig::with_analyzer(AnalyzerConfig {
                        dupack_threshold: spec.sender_os().dupack_threshold(),
                    }))
                });
                recorder
                    .stream_restore(&cp.stream)
                    .expect("delta chain applies");
                cp.stream = recorder.stream_snapshot().expect("reduce-only recorder");
                let (job, at) = (cp.job_index, cp.next_boundary);
                journal.append(CampaignRecord::Checkpoint(cp).encode());
                if at >= boundary && !done.contains(&job) {
                    journal.close().expect("journal closes");
                    return job;
                }
            }
            CampaignRecord::AttemptDone { job_index, .. } => {
                done.push(job_index);
                journal
                    .append_sync(record.encode())
                    .expect("journal append");
            }
        }
    }
    panic!("no job was mid-run at boundary {boundary}");
}

//= pftk#crash-resume type=test
#[test]
fn full_snapshot_journal_of_older_builds_still_resumes() {
    let delta_path = journal_path("delta-source");
    let reference = run(&delta_path, 2, None);
    assert!(
        reference.is_complete(),
        "reference campaign must be clean: {}",
        reference.summary()
    );

    // Cut after a mid-run checkpoint, so the resumed job applies a chain
    // of two or more full snapshots.
    let path = journal_path("full-snapshots");
    let job = write_full_snapshot_journal(&delta_path, &path, 3);
    let _ = std::fs::remove_file(&delta_path);
    let state = journal::replay(&path)
        .expect("journal readable")
        .into_state();
    let chain = &state.inflight[&job];
    assert!(chain.len() >= 2, "chain of {} checkpoints", chain.len());
    for cp in chain {
        let framed = pftk_snap::unframe(&cp.stream, 1).expect("framed analyzer snapshot");
        assert_eq!(framed.kind, STREAM_SNAPSHOT_KIND, "not a full snapshot");
    }

    let resumed = run(&path, 2, None);
    assert!(
        resumed.is_complete(),
        "resume left holes: {}",
        resumed.summary()
    );
    assert_eq!(
        resumed.rows[job as usize].outcome,
        Outcome::Resumed,
        "the cut job did not resume from its full snapshots"
    );
    assert_outputs_bit_identical(&reference, &resumed, "full-snapshot journal");
    let _ = std::fs::remove_file(&path);
}
