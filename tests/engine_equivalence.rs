//! Golden-trace pins of the packet-level engine.
//!
//! Every case runs a pinned-seed connection to a fixed horizon and pins
//! the length and CRC32 of two encodings: the sender-side observer trace
//! ([`Trace::encode_binary`]) and the full [`ConnStats`]
//! ([`ConnStats::snapshot_into`]). The constants were recorded from the
//! legacy single-binary-heap engine, and the hybrid lane engine matched
//! them before the legacy engine was removed. So a pass still means that
//! the engine produces the reference engine's events, in its order, with
//! its RNG draws and its counters. That contract lets the engine change
//! without re-validating any of the paper's Table II / Figs. 7–11
//! reproductions. A digest mismatch means the event stream changed.

use padhye_tcp_repro::sim::connection::{Connection, ConnectionBuilder};
use padhye_tcp_repro::sim::fault::impairments::{AckLoss, Duplicate, Reorder};
use padhye_tcp_repro::sim::fault::FaultPlan;
use padhye_tcp_repro::sim::link::Path;
use padhye_tcp_repro::sim::loss::{
    Bernoulli, GilbertElliott, Mixed, RoundCorrelated, TimedGilbertElliott,
};
use padhye_tcp_repro::sim::reno::sender::SenderConfig;
use padhye_tcp_repro::sim::stats::ConnStats;
use padhye_tcp_repro::sim::time::{SimDuration, SimTime};
use padhye_tcp_repro::testbed::TraceRecorder;
use padhye_tcp_repro::trace::record::Trace;
use pftk_snap::SnapWriter;

/// Event budget generous enough that no case below ever hits it; a budget
/// stop would silently shrink the pinned window.
const EVENT_BUDGET: u64 = 10_000_000;

/// `(length, CRC32)` of an encoding.
type Digest = (usize, u32);

/// The pins of one case: the encoded trace, then the encoded stats.
type Pins = [Digest; 2];

fn digest(bytes: &[u8]) -> Digest {
    (bytes.len(), pftk_snap::crc32(bytes))
}

fn pins_of(trace: &Trace, stats: &ConnStats) -> Pins {
    assert!(stats.packets_sent > 0, "degenerate run, nothing was sent");
    let mut trace_bytes = Vec::new();
    trace.encode_binary(&mut trace_bytes);
    let mut w = SnapWriter::new();
    stats.snapshot_into(&mut w);
    [digest(&trace_bytes), digest(&w.into_bytes())]
}

/// Runs the case to `horizon_secs` and asserts its trace and stats match
/// the pins.
fn assert_pinned(builder: ConnectionBuilder, horizon_secs: f64, case: &str, want: Pins) {
    let horizon = SimTime::from_secs_f64(horizon_secs);
    let mut conn = builder.build_with_observer(TraceRecorder::new());
    assert!(
        !conn.run_until_budget(horizon, EVENT_BUDGET),
        "{case}: hit the event budget"
    );
    conn.finish();
    let stats = conn.stats();
    let got = pins_of(&conn.into_observer().into_trace(), &stats);
    assert_eq!(got, want, "{case}: [trace, stats] digests changed");
}

fn base_builder(seed: u64) -> ConnectionBuilder {
    let half = SimDuration::from_millis(50);
    Connection::builder()
        .fwd_path(Path::constant(half))
        .rev_path(Path::constant(half))
        .sender_config(SenderConfig::default())
        .seed(seed)
}

#[test]
fn bernoulli_traces_are_bit_identical_across_engines() {
    const PINS: [Pins; 3] = [
        [(258_638, 3_551_528_375), (112, 1_853_423_794)],
        [(119_748, 1_300_197_088), (112, 1_516_290_596)],
        [(45_526, 1_885_628_643), (112, 3_058_809_083)],
    ];
    for ((seed, p), want) in [(11u64, 0.005), (12, 0.02), (13, 0.05)]
        .into_iter()
        .zip(PINS)
    {
        assert_pinned(
            base_builder(seed).loss(Bernoulli::new(p)),
            120.0,
            &format!("bernoulli p={p} seed={seed}"),
            want,
        );
    }
}

#[test]
fn gilbert_elliott_traces_are_bit_identical_across_engines() {
    const PINS: [Pins; 2] = [
        [(110_806, 4_205_300_527), (112, 3_612_896_569)],
        [(146_455, 2_799_029_970), (112, 3_725_482_410)],
    ];
    for (seed, want) in [21u64, 22].into_iter().zip(PINS) {
        assert_pinned(
            base_builder(seed).loss(GilbertElliott::new(0.001, 0.4, 0.01, 0.3)),
            120.0,
            &format!("gilbert-elliott seed={seed}"),
            want,
        );
    }
}

#[test]
fn round_correlated_traces_are_bit_identical_across_engines() {
    assert_pinned(
        base_builder(31).loss(RoundCorrelated::new(0.02)),
        120.0,
        "round-correlated p=0.02 seed=31",
        [(39_389, 539_881_768), (112, 1_404_415_591)],
    );
}

#[test]
fn mixed_wire_matches_too() {
    // The testbed's wire: isolated losses, then timed bursts, as one
    // `Mixed` process, over jittered paths. Recorded on the `Mixed` that
    // walked a `Vec<LossKind>` per packet, before its components were
    // held flat.
    let half = SimDuration::from_millis(50);
    let jitter = SimDuration::from_millis(5);
    assert_pinned(
        base_builder(41)
            .fwd_path(Path::constant(half).with_jitter(jitter))
            .rev_path(Path::constant(half).with_jitter(jitter))
            .loss(Mixed::from_kinds(vec![
                Bernoulli::new(0.01).into(),
                TimedGilbertElliott::from_rate_and_burst_secs(0.02, 0.5).into(),
            ])),
        300.0,
        "mixed wire seed=41",
        [(401_387, 553_630_095), (112, 2_956_257_766)],
    );
    // A one-part mix draws exactly as its component: these are the pins
    // of the same Bernoulli run through the boxed `dyn` loss path this
    // test replaced.
    assert_pinned(
        base_builder(41).loss(Mixed::from_kinds(vec![Bernoulli::new(0.02).into()])),
        60.0,
        "one-part mixed bernoulli seed=41",
        [(54_230, 969_845_931), (112, 3_627_395_373)],
    );
}

#[test]
fn seeded_fault_plan_traces_are_bit_identical_across_engines() {
    // The full chaos battery: reordering, duplication, ACK loss, jitter
    // bursts, link flaps, corruption — the hardest case for the lane
    // engine because extra-delay faults schedule arrivals out of lane order.
    const PINS: [Pins; 3] = [
        [(39_627, 3_417_363_606), (112, 1_956_692_431)],
        [(45_798, 3_877_584_381), (112, 1_748_686_026)],
        [(51_085, 668_832_666), (112, 1_796_939_120)],
    ];
    for (seed, want) in [1u64, 2, 3].into_iter().zip(PINS) {
        assert_pinned(
            base_builder(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1))
                .loss(Bernoulli::new(0.02))
                .fault(FaultPlan::from_seed(seed)),
            120.0,
            &format!("fault-plan from_seed({seed})"),
            want,
        );
    }
}

#[test]
fn composed_fault_plan_traces_are_bit_identical_across_engines() {
    // A hand-composed plan (as opposed to the seeded battery): heavy
    // reordering plus duplication plus ACK loss on top of wire loss.
    let plan = FaultPlan::none()
        .with(Box::new(Reorder::new(0.10, SimDuration::from_millis(40))))
        .with(Box::new(Duplicate::new(0.05, 1)))
        .with(Box::new(AckLoss::new(0.03)));
    assert_pinned(
        base_builder(51).loss(Bernoulli::new(0.01)).fault(plan),
        120.0,
        "composed reorder+duplicate+ackloss",
        [(96_645, 1_372_740_439), (112, 2_599_337_428)],
    );
}
