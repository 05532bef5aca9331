//! Byte pin of the §II round law as both rounds engines execute it.
//!
//! `RoundsSim` and the fleet arena run the same round law: rounds of one
//! RTT, a truncated-geometric first loss, the Fig. 4 last round with its
//! `C(k, m)` TD/TO split, variant-requested recovery rounds, and a
//! doubling timeout sequence. This test encodes everything each engine
//! exposes after a fixed run — counters, clocks, the window sample path
//! and the TD-period records — and pins the length and CRC32 of the
//! encoding, so any change to a draw, a counter or a clock addition fails
//! here, whichever engine it reaches.
//!
//! `TdpRecord::start_window` is left out of the encoding: its meaning is
//! the window of the period's first round, which `rounds.rs` checks
//! directly.

use tcp_sim::cc::CcAlgorithm;
use tcp_sim::fleet::{FleetCohort, FleetShard, FleetSpec};
use tcp_sim::rounds::{Indication, RoundsConfig, RoundsSim};
use tcp_sim::time::SimTime;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Two operating points per variant: a mid-loss path whose short `T0`
/// lets NewReno's recovery outrun its retransmit timer, and a high-loss,
/// small-window path with linear post-timeout growth and a shallow
/// backoff cap, so timeout sequences reach the cap.
fn rounds_configs(cc: CcAlgorithm) -> [RoundsConfig; 2] {
    [
        RoundsConfig {
            p: 0.02,
            rtt: 0.1,
            t0: 0.35,
            b: 2,
            wmax: 64,
            backoff_cap_exp: 6,
            initial_window: 6,
            slow_start_after_to: true,
            cc,
        },
        RoundsConfig {
            p: 0.25,
            rtt: 0.07,
            t0: 1.3,
            b: 1,
            wmax: 12,
            backoff_cap_exp: 3,
            initial_window: 2,
            slow_start_after_to: false,
            cc,
        },
    ]
}

fn rounds_sim_bytes(cc: CcAlgorithm) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, config) in rounds_configs(cc).into_iter().enumerate() {
        let seed = 0x5EED_0000 + i as u64;
        let mut sim = RoundsSim::new(config, seed)
            .record_samples(1_000_000)
            .record_tdps();
        sim.run_tdps(1_500);
        let s = sim.stats();
        for v in [
            s.packets_sent,
            s.packets_sent_new,
            s.retransmissions,
            s.packets_dropped,
            s.packets_delivered,
            s.acks_received,
            s.td_events,
            s.rto_firings,
        ] {
            put_u64(&mut out, v);
        }
        for bucket in s.to_sequences {
            put_u64(&mut out, bucket);
        }
        put_f64(&mut out, sim.elapsed());
        put_u64(&mut out, sim.samples().len() as u64);
        for sample in sim.samples() {
            put_f64(&mut out, sample.time);
            put_u32(&mut out, sample.window);
        }
        put_u64(&mut out, sim.tdps().len() as u64);
        for t in sim.tdps() {
            put_u32(&mut out, t.peak_window);
            put_u32(&mut out, t.loss_round);
            put_u64(&mut out, t.alpha);
            put_u64(&mut out, t.packets_sent);
            put_u64(&mut out, t.packets_delivered);
            match t.indication {
                Indication::TripleDuplicate => put_u32(&mut out, 0),
                Indication::Timeout { sequence_len } => {
                    put_u32(&mut out, 1);
                    put_u32(&mut out, sequence_len);
                }
            }
        }
    }
    out
}

/// Ten cohorts — every variant at a mid-loss and a high-loss operating
/// point — on one shard.
fn fleet_shard() -> FleetShard {
    let mut cohorts = Vec::new();
    for (i, cc) in CcAlgorithm::ALL.into_iter().enumerate() {
        for config in rounds_configs(cc) {
            cohorts.push(FleetCohort {
                config,
                flows: 7 + i as u64,
            });
        }
    }
    let spec = FleetSpec {
        cohorts,
        base_seed: 0x000F_1EE7_601D,
        ..FleetSpec::default()
    };
    FleetShard::new(&spec, 0..spec.total_flows())
}

/// Encodes every flow's counters, each cohort's timeout histogram, the
/// shard clock and its event count.
fn put_shard(out: &mut Vec<u8>, shard: &FleetShard) {
    for local in 0..shard.flow_count() {
        let f = shard.flow_stats(local);
        put_u64(out, f.packets_sent);
        put_u64(out, f.packets_delivered);
        put_u32(out, f.td_events);
        put_u32(out, f.to_events);
        put_u32(out, f.rto_firings);
        put_u32(out, f.rounds);
    }
    for cohort in 0..shard.cohort_count() {
        for bucket in shard.to_histogram(cohort) {
            put_u64(out, bucket);
        }
    }
    put_u64(out, shard.now().as_nanos());
    put_u64(out, shard.events_processed());
}

/// The ten-cohort shard run to a horizon long enough for deep backoffs.
fn fleet_bytes() -> Vec<u8> {
    let mut shard = fleet_shard();
    shard.run_until(SimTime::from_secs_f64(400.0));
    let mut out = Vec::new();
    put_shard(&mut out, &shard);
    out
}

/// The same shard cut into uneven `run_until` slices: horizons inside a
/// millisecond, mid-millisecond, and past several seconds, then the same
/// 400 s end. Each slice's event count and clock are encoded before the
/// final state.
fn sliced_fleet_bytes() -> Vec<u8> {
    let mut shard = fleet_shard();
    let mut out = Vec::new();
    for secs in [0.0004, 0.7505, 9.0, 27.3, 400.0] {
        let horizon = SimTime::from_secs_f64(secs);
        put_u64(&mut out, shard.run_until(horizon));
        put_u64(&mut out, shard.now().as_nanos());
        // Repeating a horizon, or asking for one behind the clock, finds
        // nothing due.
        assert_eq!(shard.run_until(horizon), 0, "repeat of {secs} s");
        assert_eq!(shard.run_until(SimTime::ZERO), 0, "rewind after {secs} s");
        assert_eq!(shard.now(), horizon);
    }
    put_shard(&mut out, &shard);
    out
}

fn assert_pin(name: &str, bytes: &[u8], len: usize, crc: u32) {
    let got = (bytes.len(), pftk_snap::crc32(bytes));
    assert_eq!(
        got,
        (len, crc),
        "{name}: round-law bytes changed (len, crc32) = ({}, {:#010x})",
        got.0,
        got.1
    );
}

#[test]
fn rounds_sim_bytes_are_pinned() {
    let pins: [(CcAlgorithm, usize, u32); 5] = [
        (CcAlgorithm::Reno, 414476, 0x680b_b03c),
        (CcAlgorithm::NewReno, 433080, 0x7914_8e23),
        (CcAlgorithm::Cubic, 526520, 0xd38b_c932),
        (CcAlgorithm::Relentless, 368272, 0xaf90_400d),
        (CcAlgorithm::Scalable, 721768, 0x47a0_ee7b),
    ];
    for (cc, len, crc) in pins {
        assert_pin(&format!("{cc:?}"), &rounds_sim_bytes(cc), len, crc);
    }
}

#[test]
fn fleet_shard_bytes_are_pinned() {
    assert_pin("fleet", &fleet_bytes(), 3376, 0x3e45_48dc);
}

#[test]
fn sliced_fleet_shard_bytes_are_pinned() {
    assert_pin("sliced fleet", &sliced_fleet_bytes(), 3456, 0x779c_a43f);
}
