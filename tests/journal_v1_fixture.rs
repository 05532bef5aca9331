//! Journal compatibility pin: a campaign journal written by an older
//! build still replays and resumes, row for row.
//!
//! `tests/data/journal_v1.waj` was written by the build at commit
//! `79440b2`, whose journal stored completed attempts as JSON (record
//! tag 1) and whose checkpoints carried version-1 analyzer deltas. The
//! campaign behind it is three Table II paths (`manic->ganef`,
//! `void->tove`, `babel->alps`: the three with the fewest packets) at a
//! 600 s horizon with a 200 s checkpoint cadence on one worker, no
//! retries, killed by a [`CrashPoint`] at its sixth checkpoint tick. That
//! leaves two completed attempts and, for the third path, an in-flight
//! chain of two analyzer deltas.
//!
//! Re-invoking the campaign on a copy of the fixture must replay the two
//! completed rows, resume the third from its chain, and give rows whose
//! JSON has the pinned length and CRC-32. The resumed journal must start
//! with the fixture's bytes: resuming only appends.

use std::path::PathBuf;
use std::time::Duration;

use padhye_tcp_repro::testbed::journal::{self, CampaignRecord};
use padhye_tcp_repro::testbed::{
    run_table2_journaled, CampaignReport, CrashPoint, JournalConfig, Outcome, PathSpec,
    SupervisorConfig, TABLE2_PATHS,
};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/journal_v1.waj");

/// Campaign seed the fixture was written with.
const BASE_SEED: u64 = 0x0001_F1C7_0AE5;

fn specs() -> [PathSpec; 3] {
    [TABLE2_PATHS[7], TABLE2_PATHS[14], TABLE2_PATHS[15]]
}

fn config(crash: Option<std::sync::Arc<CrashPoint>>) -> JournalConfig {
    JournalConfig {
        supervisor: SupervisorConfig {
            wall_budget: Duration::from_secs(120),
            retry: false,
            max_workers: 1,
            schedule_chaos: None,
        },
        checkpoint_sim_secs: 200.0,
        horizon_secs: 600.0,
        crash,
        ..JournalConfig::default()
    }
}

fn scratch(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("pftk-v1-fixture-{}-{tag}.waj", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// `(length, CRC-32)` of each row's JSON, in row order.
fn row_pins(report: &CampaignReport) -> Vec<(usize, u32)> {
    report
        .rows
        .iter()
        .map(|row| {
            let result = row
                .result
                .as_ref()
                .unwrap_or_else(|| panic!("{}: no result", row.label));
            let json = serde_json::to_string(result).expect("result serializes");
            (json.len(), pftk_snap::crc32(json.as_bytes()))
        })
        .collect()
}

#[test]
fn v1_journal_replays_and_resumes_to_pinned_rows() {
    let fixture = std::fs::read(FIXTURE).expect("fixture readable");

    // The fixture scans clean, every record re-encodes to the bytes it
    // was read from, and it folds to two completions and one chain.
    let scan = journal::replay(FIXTURE.as_ref()).expect("fixture replays");
    assert!(!scan.torn_tail);
    assert_eq!(scan.valid_bytes, fixture.len() as u64);
    let mut at = 0;
    for record in &scan.records {
        let payload = record.encode();
        assert_eq!(&fixture[at + 8..at + 8 + payload.len()], &payload[..]);
        at += 8 + payload.len();
    }
    assert_eq!(at, fixture.len());
    let kinds: Vec<bool> = scan
        .records
        .iter()
        .map(|r| matches!(r, CampaignRecord::Checkpoint(_)))
        .collect();
    assert_eq!(kinds, [true, true, false, true, true, false, true, true]);
    let state = scan.into_state();
    assert_eq!(state.done.keys().copied().collect::<Vec<_>>(), [0, 1]);
    assert_eq!(state.inflight.keys().copied().collect::<Vec<_>>(), [2]);
    assert_eq!(state.inflight[&2].len(), 2);

    let path = scratch("resume");
    std::fs::write(&path, &fixture).expect("copy fixture");
    let resumed =
        run_table2_journaled(&specs(), BASE_SEED, &path, &config(None)).expect("journal I/O");
    let outcomes: Vec<Outcome> = resumed.rows.iter().map(|r| r.outcome).collect();
    assert_eq!(outcomes, [Outcome::Ok, Outcome::Ok, Outcome::Resumed]);
    assert_eq!(
        row_pins(&resumed),
        [(6778, 1735117967), (10045, 2173988232), (2426, 98672808)],
        "rows replayed or resumed from the older journal changed"
    );
    let after = std::fs::read(&path).expect("journal exists");
    assert!(
        after.len() > fixture.len(),
        "the resumed row was not journaled"
    );
    assert_eq!(
        &after[..fixture.len()],
        &fixture[..],
        "resume rewrote the fixture"
    );

    // A further invocation replays all three rows from the journal.
    let replayed =
        run_table2_journaled(&specs(), BASE_SEED, &path, &config(None)).expect("journal I/O");
    assert_eq!(row_pins(&replayed), row_pins(&resumed));
    assert_eq!(std::fs::read(&path).expect("journal exists"), after);
    let _ = std::fs::remove_file(&path);
}
