//! Byte pin of the shared-bottleneck network.
//!
//! `Network` runs the §I TCP-friendliness experiments: TCP, CBR and TFRC
//! flows coupled through one DropTail or RED queue. Each case below runs a
//! pinned-seed network to a fixed horizon and encodes `Network::stats()`
//! in flow order: `sent`, `dropped`, `delivered`, then every `ConnStats`
//! counter of a TCP flow. The test pins the length and CRC32 of that
//! encoding, so any change to the event order, a queue draw, or a sender
//! or receiver counter fails here.

use pftk_snap::SnapWriter;
use tcp_sim::cc::CcAlgorithm;
use tcp_sim::network::{FlowConfig, FlowKind, Network};
use tcp_sim::queue::{DropTail, QueuePolicy, Red};
use tcp_sim::receiver::ReceiverConfig;
use tcp_sim::reno::sender::{RenoStyle, SenderConfig};
use tcp_sim::tfrc::TfrcConfig;
use tcp_sim::time::SimDuration;

/// `(length, CRC32)` of an encoding.
type Digest = (usize, u32);

fn run_digest(
    rate_pps: f64,
    policy: Box<dyn QueuePolicy + Send>,
    seed: u64,
    flows: Vec<FlowConfig>,
    horizon_secs: f64,
) -> Digest {
    let mut net = Network::new(rate_pps, policy, seed);
    for flow in flows {
        net.add_flow(flow);
    }
    net.run_for(SimDuration::from_secs_f64(horizon_secs));
    net.finish();
    let mut w = SnapWriter::new();
    for s in net.stats() {
        assert!(s.sent > 0, "a flow never sent: {s:?}");
        w.put_u64(s.sent);
        w.put_u64(s.dropped);
        w.put_u64(s.delivered);
        match &s.tcp {
            Some(tcp) => {
                w.put_bool(true);
                tcp.snapshot_into(&mut w);
            }
            None => w.put_bool(false),
        }
    }
    let bytes = w.into_bytes();
    (bytes.len(), pftk_snap::crc32(&bytes))
}

#[test]
fn tcp_pair_with_unequal_rtts_on_drop_tail() {
    let got = run_digest(
        100.0,
        Box::new(DropTail::new(25)),
        3,
        vec![
            FlowConfig::tcp(0.05, SenderConfig::default()),
            FlowConfig::tcp(0.2, SenderConfig::default()),
        ],
        300.0,
    );
    assert_eq!(got, (274, 3_293_593_292));
}

#[test]
fn tcp_against_cbr_on_drop_tail() {
    let got = run_digest(
        80.0,
        Box::new(DropTail::new(20)),
        7,
        vec![
            FlowConfig::tcp(0.1, SenderConfig::default()),
            FlowConfig::cbr(0.1, 30.0),
        ],
        120.0,
    );
    assert_eq!(got, (162, 929_974_375));
}

#[test]
fn tcp_against_tfrc_under_red() {
    let got = run_digest(
        100.0,
        Box::new(Red::new(5.0, 20.0, 0.1, 0.02, 40)),
        22,
        vec![
            FlowConfig::tcp(0.1, SenderConfig::default()),
            FlowConfig::tfrc(0.1, TfrcConfig::for_rtt(0.2)),
        ],
        300.0,
    );
    assert_eq!(got, (162, 1_473_189_228));
}

#[test]
fn finite_transfer_against_cbr() {
    let sender = SenderConfig {
        data_limit: Some(500),
        ..SenderConfig::default()
    };
    let got = run_digest(
        100.0,
        Box::new(DropTail::new(25)),
        8,
        vec![FlowConfig::tcp(0.1, sender), FlowConfig::cbr(0.1, 40.0)],
        120.0,
    );
    assert_eq!(got, (162, 4_106_122_102));
}

#[test]
fn sack_flow_against_reno() {
    let sack = SenderConfig {
        style: RenoStyle::Sack,
        ..SenderConfig::default()
    };
    let got = run_digest(
        100.0,
        Box::new(DropTail::new(15)),
        11,
        vec![
            FlowConfig::tcp(0.1, sack),
            FlowConfig::tcp(0.1, SenderConfig::default()),
        ],
        300.0,
    );
    assert_eq!(got, (274, 2_470_451_636));
}

#[test]
fn newreno_flow_against_reno() {
    // RFC 6582 partial-ACK recovery: a shared drop-tail queue drops
    // several packets of one window, so NewReno stays in recovery where
    // Reno leaves it.
    let newreno = SenderConfig {
        cc: CcAlgorithm::NewReno,
        ..SenderConfig::default()
    };
    let got = run_digest(
        100.0,
        Box::new(DropTail::new(15)),
        12,
        vec![
            FlowConfig::tcp(0.1, newreno),
            FlowConfig::tcp(0.1, SenderConfig::default()),
        ],
        300.0,
    );
    assert_eq!(got, (274, 2_480_905_693));
}

#[test]
fn cubic_tahoe_flow_against_reno() {
    let cubic_tahoe = SenderConfig {
        style: RenoStyle::Tahoe,
        cc: CcAlgorithm::Cubic,
        ..SenderConfig::default()
    };
    let got = run_digest(
        100.0,
        Box::new(DropTail::new(20)),
        13,
        vec![
            FlowConfig::tcp(0.1, cubic_tahoe),
            FlowConfig::tcp(0.1, SenderConfig::default()),
        ],
        300.0,
    );
    assert_eq!(got, (274, 971_588_487));
}

#[test]
fn per_packet_acks_against_delayed_acks() {
    // `ack_every: 1` never arms the delayed-ACK timer; the default
    // receiver arms and cancels it on every other segment.
    let mut per_packet = FlowConfig::tcp(0.1, SenderConfig::default());
    per_packet.kind = FlowKind::Tcp {
        sender: SenderConfig::default(),
        receiver: ReceiverConfig {
            ack_every: 1,
            ..ReceiverConfig::default()
        },
    };
    let got = run_digest(
        100.0,
        Box::new(DropTail::new(25)),
        14,
        vec![per_packet, FlowConfig::tcp(0.1, SenderConfig::default())],
        300.0,
    );
    assert_eq!(got, (274, 2_523_052_367));
}
