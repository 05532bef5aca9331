//! The mechanism behind Table II's exponential-backoff columns: loss
//! episodes must persist in *wall-clock time* (outlasting the RTO) for
//! T1+/T2+ sequences to appear — and the right process for that is
//! [`TimedGilbertElliott`], whose states live in seconds.
//!
//! Two Reno behaviours surface along the way, both documented in the
//! paper's world:
//!
//! * most timeout sequences are *singles* even under long episodes: after
//!   the episode, plain Reno repairs the doomed window's holes one
//!   timeout at a time (the multi-indication-per-burst behaviour our
//!   Table II calibration corrects for);
//! * a per-packet bursty chain ([`GilbertElliott`]) cannot model
//!   wall-clock episodes at all — packets are its clock, so a bad state
//!   freezes across timeout gaps and produces absurd 64×-capped sequences
//!   while throughput collapses.

use padhye_tcp_repro::sim::connection::Connection;
use padhye_tcp_repro::sim::loss::{GilbertElliott, LossKind, TimedGilbertElliott};
use padhye_tcp_repro::sim::reno::sender::SenderConfig;
use padhye_tcp_repro::sim::time::SimDuration;
use padhye_tcp_repro::sim::ConnStats;

const HORIZON: f64 = 2400.0;
const LOSS_RATE: f64 = 0.05;

fn run(loss: impl Into<LossKind>, seed: u64) -> ConnStats {
    // A realistic receiver window: without it, lossless good periods let
    // the congestion window grow without bound.
    let sender = SenderConfig {
        rwnd: 32,
        ..SenderConfig::default()
    };
    let mut c = Connection::builder()
        .rtt(0.1)
        .loss(loss)
        .sender_config(sender)
        .seed(seed)
        .build();
    c.run_for(SimDuration::from_secs_f64(HORIZON));
    c.finish();
    c.stats()
}

#[test]
//= pftk#rto-backoff type=test
//= pftk#backoff-lk type=test
fn timed_bursts_generate_exponential_backoff() {
    // ~80 episodes of mean 1.5 s against a 1 s RTO: the first retransmission
    // of each episode dies about half the time → a solid crop of T1+
    // sequences, while hole repairs keep the singles column dominant.
    let s = run(
        Box::new(TimedGilbertElliott::from_rate_and_burst_secs(
            LOSS_RATE, 1.5,
        )),
        1,
    );
    let backoffs: u64 = s.to_sequences[1..].iter().sum();
    assert!(
        backoffs > 20,
        "expected T1+ sequences, got {:?}",
        s.to_sequences
    );
    assert!(
        s.to_sequences[0] > backoffs,
        "hole-repair singles should still dominate: {:?}",
        s.to_sequences
    );
}

#[test]
fn per_packet_bursts_freeze_through_timeouts() {
    // Same long-run loss rate, bursts of 8 *packets*: during a timeout the
    // chain advances one step per RTO-spaced probe, so a bad state survives
    // ~8 probes — exponential backoff runs to its 64× cap and the
    // connection starves. The timed process at the same rate stays healthy.
    let pkt = run(
        Box::new(GilbertElliott::from_rate_and_burst(LOSS_RATE, 8.0)),
        1,
    );
    let timed = run(
        Box::new(TimedGilbertElliott::from_rate_and_burst_secs(
            LOSS_RATE, 1.5,
        )),
        1,
    );
    assert!(
        pkt.packets_sent * 20 < timed.packets_sent,
        "frozen chain should starve the connection: {} vs {}",
        pkt.packets_sent,
        timed.packets_sent
    );
    assert!(
        pkt.to_sequences[5] > 0,
        "frozen chain should reach pathological T5+ depths: {:?}",
        pkt.to_sequences
    );
    assert_eq!(
        timed.to_sequences[5], 0,
        "1.5 s episodes must not reach T5+ (that needs ≥ 31 s of outage): {:?}",
        timed.to_sequences
    );
}

#[test]
fn deeper_backoff_with_longer_episodes() {
    // Longer loss episodes → deeper backoff (T2 and beyond, not just T1).
    let deep = |mean_burst: f64| {
        let s = run(
            Box::new(TimedGilbertElliott::from_rate_and_burst_secs(
                0.08, mean_burst,
            )),
            3,
        );
        s.to_sequences[2..].iter().sum::<u64>()
    };
    let short_eps = deep(0.5);
    let long_eps = deep(4.0);
    assert!(
        long_eps > short_eps,
        "4 s episodes (T2+: {long_eps}) should back off deeper than 0.5 s ones ({short_eps})"
    );
}
