//! Tahoe / Reno / NewReno / SACK comparison — the ref-[3] experiment
//! ("Simulation-based comparisons of Tahoe, Reno, and SACK TCP") run on
//! this workspace's simulator, connecting two threads of the reproduction:
//!
//! * the paper models **Reno**, and §IV notes real stacks deviate (SunOS
//!   was Tahoe-derived);
//! * our Table II calibration found that plain Reno converts one
//!   burst-lossy round into *several* loss indications (the first hole
//!   recovers by fast retransmit, later holes by timeout). SACK repairs
//!   multiple holes per episode and shows it directly; NewReno only helps
//!   once fast recovery actually starts, which whole-tail bursts often
//!   prevent (fewer than three duplicate ACKs) — so its visible gain here
//!   is in send rate, not indication count.
//!
//! NewReno is not a recovery style of its own: it is the `Reno` style
//! under the NewReno law ([`CcAlgorithm::NewReno`]), which turns on RFC
//! 6582 partial-ACK recovery and adds its window deflation.

use padhye_tcp_repro::sim::cc::CcAlgorithm;
use padhye_tcp_repro::sim::connection::Connection;
use padhye_tcp_repro::sim::loss::RoundCorrelated;
use padhye_tcp_repro::sim::reno::sender::{RenoStyle, SenderConfig};
use padhye_tcp_repro::sim::time::SimDuration;
use padhye_tcp_repro::sim::ConnStats;

const HORIZON: f64 = 900.0;

/// A loss-recovery variant: the sender's style and its window law.
type Variant = (RenoStyle, CcAlgorithm);

const TAHOE: Variant = (RenoStyle::Tahoe, CcAlgorithm::Reno);
const RENO: Variant = (RenoStyle::Reno, CcAlgorithm::Reno);
const NEWRENO: Variant = (RenoStyle::Reno, CcAlgorithm::NewReno);
const SACK: Variant = (RenoStyle::Sack, CcAlgorithm::Reno);

fn run((style, cc): Variant, wire_p: f64, seed: u64) -> ConnStats {
    let sender = SenderConfig {
        style,
        cc,
        rwnd: 32,
        ..SenderConfig::default()
    };
    let mut c = Connection::builder()
        .rtt(0.1)
        .loss(Box::new(RoundCorrelated::new(wire_p)))
        .sender_config(sender)
        .seed(seed)
        .build();
    c.run_for(SimDuration::from_secs_f64(HORIZON));
    c.finish();
    c.stats()
}

/// Averages a metric over several seeds (one connection per seed).
fn mean_over_seeds<F: Fn(&ConnStats) -> f64>(variant: Variant, wire_p: f64, f: F) -> f64 {
    let seeds = [1u64, 2, 3, 4];
    seeds
        .iter()
        .map(|&s| f(&run(variant, wire_p, s)))
        .sum::<f64>()
        / seeds.len() as f64
}

#[test]
fn sack_takes_fewer_indications_per_burst() {
    // Under round-correlated loss a burst dooms the tail of a window.
    // SACK repairs several holes inside one recovery episode, so its
    // indication rate drops below Reno's. (NewReno's in-recovery advantage
    // barely registers at this operating point: with whole-tail bursts the
    // window usually gathers fewer than three duplicate ACKs, so fast
    // recovery rarely *starts* — the timeout-dominated regime the paper's
    // Table II documents. We only require NewReno not to be worse.)
    let p = 0.02;
    let reno = mean_over_seeds(RENO, p, |s| {
        s.loss_indications() as f64 / s.packets_sent as f64
    });
    let newreno = mean_over_seeds(NEWRENO, p, |s| {
        s.loss_indications() as f64 / s.packets_sent as f64
    });
    let sack = mean_over_seeds(SACK, p, |s| {
        s.loss_indications() as f64 / s.packets_sent as f64
    });
    assert!(
        sack < reno * 0.9,
        "SACK indication rate {sack:.4} should be well below Reno's {reno:.4}"
    );
    assert!(
        newreno <= reno * 1.03,
        "NewReno indication rate {newreno:.4} must not exceed Reno's {reno:.4}"
    );
}

#[test]
fn send_rate_ordering_under_bursty_loss() {
    let p = 0.02;
    let rate = |variant| mean_over_seeds(variant, p, |s| s.packets_sent as f64 / HORIZON);
    let tahoe = rate(TAHOE);
    let reno = rate(RENO);
    let newreno = rate(NEWRENO);
    let sack = rate(SACK);
    // The ref-[3] ordering, with slack for stochastic noise: Tahoe worst,
    // SACK/NewReno best.
    assert!(reno > tahoe * 0.95, "Reno {reno:.1} vs Tahoe {tahoe:.1}");
    assert!(newreno > reno, "NewReno {newreno:.1} vs Reno {reno:.1}");
    assert!(sack > reno, "SACK {sack:.1} vs Reno {reno:.1}");
}

#[test]
fn timeout_share_shrinks_with_better_recovery() {
    // Reno's extra reductions under burst loss are mostly timeouts (later
    // holes in the window can't gather three dupacks). NewReno/SACK repair
    // those holes inside one recovery episode.
    let p = 0.02;
    let to_share = |variant| {
        mean_over_seeds(variant, p, |s| {
            s.to_events() as f64 / s.loss_indications().max(1) as f64
        })
    };
    let reno = to_share(RENO);
    let sack = to_share(SACK);
    assert!(
        sack < reno,
        "SACK timeout share {sack:.3} should be below Reno's {reno:.3}"
    );
}

#[test]
fn all_variants_conserve_and_deliver() {
    for variant in [TAHOE, RENO, NEWRENO, SACK] {
        let s = run(variant, 0.03, 9);
        assert_eq!(
            s.packets_sent,
            s.packets_sent_new + s.retransmissions,
            "{variant:?}"
        );
        assert!(s.packets_delivered > 0, "{variant:?} delivered nothing");
        assert!(s.packets_delivered <= s.packets_sent, "{variant:?}");
        assert!(s.loss_indications() > 0, "{variant:?} saw no loss at 3%");
    }
}

#[test]
fn variants_converge_under_isolated_losses() {
    // With *isolated* (Bernoulli) losses at low rate there is usually one
    // hole per window: Reno's single fast retransmit suffices, so the
    // fancier recovery algorithms buy little — all three loss-recovery
    // variants land within a narrow band (Tahoe still pays for its
    // collapse-on-every-loss).
    use padhye_tcp_repro::sim::loss::Bernoulli;
    let rate = |(style, cc): Variant| {
        let seeds = [21u64, 22, 23];
        seeds
            .iter()
            .map(|&seed| {
                let sender = SenderConfig {
                    style,
                    cc,
                    rwnd: 32,
                    ..SenderConfig::default()
                };
                let mut c = Connection::builder()
                    .rtt(0.1)
                    .loss(Box::new(Bernoulli::new(0.005)))
                    .sender_config(sender)
                    .seed(seed)
                    .build();
                c.run_for(SimDuration::from_secs_f64(HORIZON));
                c.finish();
                c.stats().packets_sent as f64 / HORIZON
            })
            .sum::<f64>()
            / seeds.len() as f64
    };
    let reno = rate(RENO);
    let newreno = rate(NEWRENO);
    let sack = rate(SACK);
    let tahoe = rate(TAHOE);
    for (name, v) in [("NewReno", newreno), ("SACK", sack)] {
        let rel = (v - reno).abs() / reno;
        assert!(
            rel < 0.10,
            "{name} {v:.1} vs Reno {reno:.1}: isolated losses should converge"
        );
    }
    assert!(
        tahoe < reno,
        "Tahoe {tahoe:.1} must trail Reno {reno:.1} even here"
    );
}
