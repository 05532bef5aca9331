//! Golden pins of the packet sender under every recovery style and every
//! congestion-control law.
//!
//! Each row runs one pinned-seed connection for every `RenoStyle` ×
//! `CcAlgorithm` pair, under isolated (Bernoulli) and burst
//! (`RoundCorrelated`) wire loss. The rates are high enough that every
//! row takes timeouts and that multi-loss windows give the partial-ACK
//! recovery paths work. Each row pins the length and CRC32 of three
//! encodings: the sender-side observer trace ([`Trace::encode_binary`]),
//! the full [`ConnStats`] ([`ConnStats::snapshot_into`]) and the
//! [`Connection::snapshot`] bytes taken at a mid-run cut. The trace and
//! stats pins say that the window laws made the same decisions in the
//! same order; the snapshot pin says that the controller and sender
//! state, and its encoding, are the same mid-run.
//!
//! Under the `Reno` style the NewReno law runs RFC 6582 partial-ACK
//! recovery. Its row's trace and stats pins are those the same
//! connection had when NewReno was a recovery style of its own
//! (`RenoStyle::NewReno` × `CcAlgorithm::NewReno`). Its snapshot differs
//! from that one only in the sender's style tag (and so in the frame
//! checksum). Every other row kept its pins through that change.
//!
//! Tahoe × Reno and Tahoe × NewReno carry the same trace and stats pins:
//! Tahoe never enters recovery, so NewReno's partial-ACK reaction never
//! runs. Tahoe × Relentless matches them too: Tahoe takes every loss
//! through the timeout collapse, where Relentless keeps Reno's
//! `flight / 2` threshold. These snapshots differ only in the sender's
//! cc tag.

use padhye_tcp_repro::sim::cc::CcAlgorithm;
use padhye_tcp_repro::sim::connection::{Connection, ConnectionBuilder};
use padhye_tcp_repro::sim::link::Path;
use padhye_tcp_repro::sim::loss::{Bernoulli, LossKind, RoundCorrelated};
use padhye_tcp_repro::sim::reno::sender::{RenoStyle, SenderConfig};
use padhye_tcp_repro::sim::time::{SimDuration, SimTime};
use padhye_tcp_repro::testbed::TraceRecorder;
use pftk_snap::SnapWriter;
use CcAlgorithm::{Cubic, NewReno as NewRenoCc, Relentless, Reno as RenoCc, Scalable};
use RenoStyle::{Reno, Sack, Tahoe};

/// Event budget generous enough that no row ever hits it.
const EVENT_BUDGET: u64 = 10_000_000;

/// Where the snapshot is cut, seconds.
const CUT_SECS: f64 = 97.3;

/// Where each run stops, seconds.
const HORIZON_SECS: f64 = 200.0;

/// `(length, CRC32)` of an encoding.
type Digest = (usize, u32);

/// The pins of one row: trace, stats, mid-run snapshot.
type Pins = [Digest; 3];

fn digest(bytes: &[u8]) -> Digest {
    (bytes.len(), pftk_snap::crc32(bytes))
}

fn builder(style: RenoStyle, cc: CcAlgorithm, loss: LossKind, seed: u64) -> ConnectionBuilder {
    let half = SimDuration::from_millis(50);
    Connection::builder()
        .fwd_path(Path::constant(half))
        .rev_path(Path::constant(half))
        .sender_config(SenderConfig {
            style,
            cc,
            rwnd: 32,
            ..SenderConfig::default()
        })
        .loss(loss)
        .seed(seed)
}

/// Runs one row to the horizon, cutting a snapshot on the way.
fn pins_of(style: RenoStyle, cc: CcAlgorithm, loss: LossKind, seed: u64) -> Pins {
    let case = format!("{style:?} × {cc:?}");
    let mut conn = builder(style, cc, loss, seed).build_with_observer(TraceRecorder::new());
    assert!(
        !conn.run_until_budget(SimTime::from_secs_f64(CUT_SECS), EVENT_BUDGET),
        "{case}: hit the event budget"
    );
    let snapshot = conn.snapshot().expect("snapshot");
    assert!(
        !conn.run_until_budget(SimTime::from_secs_f64(HORIZON_SECS), EVENT_BUDGET),
        "{case}: hit the event budget"
    );
    conn.finish();
    let stats = conn.stats();
    assert!(
        stats.rto_firings > 0,
        "{case}: no timeout, a path unexercised"
    );
    assert!(stats.td_events > 0, "{case}: no TD, a path unexercised");
    let mut trace = Vec::new();
    conn.into_observer().into_trace().encode_binary(&mut trace);
    let mut w = SnapWriter::new();
    stats.snapshot_into(&mut w);
    [digest(&trace), digest(&w.into_bytes()), digest(&snapshot)]
}

/// Checks every row of one loss process against its pins.
fn assert_rows(loss: impl Fn() -> LossKind, seed: u64, rows: &[(RenoStyle, CcAlgorithm, Pins)]) {
    let mut failed = Vec::new();
    for &(style, cc, want) in rows {
        let got = pins_of(style, cc, loss(), seed);
        if got != want {
            failed.push(format!("({style:?}, {cc:?}): got {got:?}, want {want:?}"));
        }
    }
    assert!(failed.is_empty(), "pins changed:\n{}", failed.join("\n"));
}

#[test]
fn bernoulli_rows_are_pinned() {
    #[rustfmt::skip]
    const ROWS: [(RenoStyle, CcAlgorithm, Pins); 15] = [
        (Tahoe, RenoCc, [(286790, 3504288024), (112, 740910678), (654, 3361817117)]),
        (Tahoe, NewRenoCc, [(286790, 3504288024), (112, 740910678), (654, 3109851288)]),
        (Tahoe, Cubic, [(271473, 1403601829), (112, 2608471911), (810, 3913282124)]),
        (Tahoe, Relentless, [(286790, 3504288024), (112, 740910678), (654, 1529296274)]),
        (Tahoe, Scalable, [(160871, 4236466537), (112, 2147349228), (707, 3932593068)]),
        (Reno, RenoCc, [(357068, 2520367413), (112, 2825284711), (733, 1792551692)]),
        (Reno, NewRenoCc, [(361879, 1233757584), (112, 894009834), (733, 1973381122)]),
        (Reno, Cubic, [(371331, 774139650), (112, 2996106734), (862, 1868930406)]),
        (Reno, Relentless, [(920380, 3185606861), (112, 1396351965), (1071, 3097427136)]),
        (Reno, Scalable, [(138958, 1715061196), (112, 3188885834), (707, 1423407226)]),
        (Sack, RenoCc, [(368203, 3615044801), (112, 3044754615), (759, 1425800156)]),
        (Sack, NewRenoCc, [(367778, 2607350774), (112, 1587321020), (733, 2868691034)]),
        (Sack, Cubic, [(407881, 1199543819), (112, 2273087684), (856, 3387793280)]),
        (Sack, Relentless, [(1107703, 1114929529), (112, 1359434838), (1071, 838503040)]),
        (Sack, Scalable, [(135354, 1937414923), (112, 2010670275), (707, 1774794494)]),
    ];
    assert_rows(|| LossKind::from(Bernoulli::new(0.01)), 71, &ROWS);
}

#[test]
fn round_correlated_rows_are_pinned() {
    #[rustfmt::skip]
    const ROWS: [(RenoStyle, CcAlgorithm, Pins); 15] = [
        (Tahoe, RenoCc, [(156825, 2878316551), (112, 2538268673), (786, 2139873763)]),
        (Tahoe, NewRenoCc, [(156825, 2878316551), (112, 2538268673), (786, 3034892739)]),
        (Tahoe, Cubic, [(119102, 3403545840), (112, 855340028), (728, 3137436688)]),
        (Tahoe, Relentless, [(156825, 2878316551), (112, 2538268673), (786, 4182482882)]),
        (Tahoe, Scalable, [(141814, 3663021954), (112, 1111845707), (734, 3996655723)]),
        (Reno, RenoCc, [(156672, 2780373596), (112, 2756005121), (623, 4050313720)]),
        (Reno, NewRenoCc, [(309706, 2763307336), (112, 2267175441), (631, 2590909670)]),
        (Reno, Cubic, [(110347, 757515132), (112, 2654216260), (672, 787734804)]),
        (Reno, Relentless, [(146302, 279623665), (112, 468600960), (767, 1388895677)]),
        (Reno, Scalable, [(137241, 2921955464), (112, 4058944402), (615, 4170268916)]),
        (Sack, RenoCc, [(259012, 371154453), (112, 1815953431), (916, 3777507546)]),
        (Sack, NewRenoCc, [(352631, 3356543813), (112, 3068258953), (1020, 2579512019)]),
        (Sack, Cubic, [(475813, 1118249274), (112, 4019700927), (915, 2977600561)]),
        (Sack, Relentless, [(382143, 1525445881), (112, 1345267066), (942, 1580850615)]),
        (Sack, Scalable, [(193137, 4213582359), (112, 3699647011), (760, 3821850801)]),
    ];
    assert_rows(|| LossKind::from(RoundCorrelated::new(0.002)), 72, &ROWS);
}
