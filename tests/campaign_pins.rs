//! Digest pins of the testbed's campaign runners.
//!
//! Every case runs one of the paper's §III campaigns (or the Fig. 11
//! modem run) at a pinned seed and pins the length and CRC32 of what it
//! returns: each `ExperimentResult` in its `pftk-snap` encoding (every
//! `f64` as its bits, a retained trace included), each campaign row's
//! label, seed, outcome and attempt count, and a journaled campaign's
//! journal bytes. The constants were recorded before the campaign
//! runners shared one connection runner, one Table II job and one
//! calibration site, so a pass means the runners compute what they did
//! then. A digest mismatch means some campaign's output moved.
//!
//! The last case checks that a Table II campaign without a journal gives
//! the rows of the journaled campaign.

use std::time::Duration;

use padhye_tcp_repro::sim::cc::CcAlgorithm;
use padhye_tcp_repro::testbed::{
    fig8_paths, run_hour_budgeted, run_hour_budgeted_with, run_modem, run_serial_100s_with,
    run_table2_journaled, run_table2_supervised, CampaignReport, ExperimentOptions,
    ExperimentResult, JournalConfig, ModemSpec, PathSpec, SupervisorConfig, DEFAULT_EVENT_BUDGET,
    TABLE2_PATHS,
};

/// `(length, CRC32)` of an encoding.
type Digest = (usize, u32);

fn digest(bytes: &[u8]) -> Digest {
    (bytes.len(), pftk_snap::crc32(bytes))
}

fn result_digest(r: &ExperimentResult) -> Digest {
    digest(&r.encode())
}

/// One digest over every row: label, seed, outcome, attempts and the
/// encoded result, in row order.
fn report_digest(report: &CampaignReport) -> Digest {
    let mut bytes = Vec::new();
    for row in &report.rows {
        bytes.extend_from_slice(row.label.as_bytes());
        bytes.extend_from_slice(&row.seed.to_le_bytes());
        bytes.extend_from_slice(row.outcome.label().as_bytes());
        bytes.extend_from_slice(&row.attempts.to_le_bytes());
        if let Some(r) = &row.result {
            bytes.extend_from_slice(&r.encode());
        }
    }
    digest(&bytes)
}

/// The three Table II paths with the fewest packets: `manic->tove`,
/// `void->tove`, `babel->alps`.
fn small_paths() -> [PathSpec; 3] {
    [TABLE2_PATHS[7], TABLE2_PATHS[14], TABLE2_PATHS[15]]
}

/// Asserts an hour-long run stays far from the supervised event budget:
/// the same run under a tenth of [`DEFAULT_EVENT_BUDGET`] completes with
/// the same bytes. So every hour run here computes the same result with or
/// without that budget.
fn assert_far_from_budget(spec: &PathSpec, seed: u64, pinned: Digest) {
    let r = run_hour_budgeted(spec, seed, DEFAULT_EVENT_BUDGET / 10);
    assert!(
        !r.event_budget_hit,
        "{} seed {seed}: near the budget",
        spec.id()
    );
    assert_eq!(result_digest(&r), pinned, "{} seed {seed}", spec.id());
}

#[test]
fn hour_runs_are_pinned() {
    const SEED: u64 = 0x0C0F_FEE1;
    // Per path: default options, then trace retention.
    const PINS: [[Digest; 2]; 2] = [
        [(8780, 2166324993), (3458513, 2394657458)],
        [(4348, 3061946549), (35381, 361580226)],
    ];
    // The path with the most packets, `manic->spiff`, and `babel->alps`.
    let paths = [TABLE2_PATHS[5], TABLE2_PATHS[15]];
    let mut got = Vec::new();
    for (i, spec) in paths.iter().enumerate() {
        let seed = SEED + i as u64;
        let plain = run_hour_budgeted(spec, seed, DEFAULT_EVENT_BUDGET);
        let retained = run_hour_budgeted_with(
            spec,
            seed,
            DEFAULT_EVENT_BUDGET,
            &ExperimentOptions::retained(),
        );
        assert!(plain.trace.is_none() && retained.trace.is_some());
        assert!(!plain.event_budget_hit && !retained.event_budget_hit);
        got.push([result_digest(&plain), result_digest(&retained)]);
    }
    assert_eq!(got, PINS, "[default, retained] digests changed");
    for (i, spec) in paths.iter().enumerate() {
        assert_far_from_budget(spec, SEED + i as u64, PINS[i][0]);
    }
}

#[test]
fn serial_runs_are_pinned() {
    const SEED: u64 = 0x5E71_A100;
    // Reno, then CUBIC: one digest over each campaign's five results.
    const PINS: [Digest; 2] = [(2378, 852975243), (2296, 1903275720)];
    let spec = fig8_paths()[2];
    let got: Vec<Digest> = [CcAlgorithm::Reno, CcAlgorithm::Cubic]
        .into_iter()
        .map(|cc| {
            let opts = ExperimentOptions {
                cc,
                ..ExperimentOptions::default()
            };
            let results = run_serial_100s_with(&spec, 5, SEED, &opts);
            assert_eq!(results.len(), 5);
            let bytes: Vec<u8> = results.iter().flat_map(ExperimentResult::encode).collect();
            digest(&bytes)
        })
        .collect();
    assert_eq!(got, PINS, "[reno, cubic] digests changed");
}

#[test]
fn supervised_table2_rows_are_pinned() {
    const SEED: u64 = 0x7AB1_E002;
    const PIN: Digest = (22362, 1727464424);
    let specs = small_paths();
    let report = run_table2_supervised(&specs, SEED, &SupervisorConfig::default());
    assert!(report.is_complete(), "campaign: {}", report.summary());
    assert_eq!(report_digest(&report), PIN, "rows changed");
    for (i, (spec, row)) in specs.iter().zip(&report.rows).enumerate() {
        let r = row.result.as_ref().expect("complete campaign");
        assert!(!r.event_budget_hit);
        assert_far_from_budget(spec, SEED + i as u64, result_digest(r));
    }
}

#[test]
fn journaled_table2_is_pinned() {
    const SEED: u64 = 0x0004_A1ED;
    // Live rows, journal bytes, replayed rows.
    const PINS: [Digest; 3] = [(2114, 40158600), (18227, 426833206), (2114, 40158600)];
    let path = std::env::temp_dir().join(format!("pftk-campaign-pins-{}.waj", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // One worker: the journal's record order is then fixed, so its bytes
    // can be pinned.
    let config = JournalConfig {
        supervisor: SupervisorConfig {
            wall_budget: Duration::from_secs(120),
            max_workers: 1,
            ..SupervisorConfig::default()
        },
        checkpoint_sim_secs: 100.0,
        horizon_secs: 300.0,
        ..JournalConfig::default()
    };
    let specs = &small_paths()[..2];
    let live = run_table2_journaled(specs, SEED, &path, &config).expect("journal I/O");
    assert!(live.is_complete(), "campaign: {}", live.summary());
    let bytes = std::fs::read(&path).expect("journal written");
    let replayed = run_table2_journaled(specs, SEED, &path, &config).expect("journal I/O");
    assert_eq!(
        std::fs::read(&path).expect("journal"),
        bytes,
        "replay appended"
    );
    let _ = std::fs::remove_file(&path);
    let got = [
        report_digest(&live),
        digest(&bytes),
        report_digest(&replayed),
    ];
    assert_eq!(got, PINS, "[live, journal, replayed] digests changed");
}

#[test]
fn modem_run_is_pinned() {
    const PIN: Digest = (699, 732186831);
    let r = run_modem(&ModemSpec::default(), 600.0, 0x30DE_0011);
    assert_eq!(result_digest(&r), PIN, "modem result changed");
}

/// A Table II campaign without a journal is the journaled campaign with
/// none: at one and at two workers, the rows of `run_table2_supervised`
/// equal the live rows of `run_table2_journaled` (which checkpoints every
/// 300 sim-seconds) for the same paths and seed.
#[test]
fn campaign_without_a_journal_equals_the_journaled_one() {
    const SEED: u64 = 0x0A0B_0C0D;
    let specs = small_paths();
    for workers in [1, 2] {
        let supervisor = SupervisorConfig {
            max_workers: workers,
            ..SupervisorConfig::default()
        };
        let plain = run_table2_supervised(&specs, SEED, &supervisor);
        assert!(plain.is_complete(), "campaign: {}", plain.summary());
        let path = std::env::temp_dir().join(format!(
            "pftk-campaign-pins-{}-{workers}w.waj",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let config = JournalConfig {
            supervisor,
            ..JournalConfig::default()
        };
        let journaled = run_table2_journaled(&specs, SEED, &path, &config).expect("journal I/O");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            report_digest(&plain),
            report_digest(&journaled),
            "{workers} workers: rows differ"
        );
    }
}
