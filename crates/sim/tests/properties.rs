//! Property-based tests of simulator invariants.

use proptest::prelude::*;
use tcp_sim::cc::CcAlgorithm;
use tcp_sim::connection::Connection;
use tcp_sim::loss::{Bernoulli, GilbertElliott, RoundCorrelated};
use tcp_sim::reno::sender::SenderConfig;
use tcp_sim::rounds::{RoundsConfig, RoundsSim};
use tcp_sim::time::SimDuration;

fn loss_rate() -> impl Strategy<Value = f64> {
    (-2.5f64..-0.7).prop_map(|e| 10f64.powf(e))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn connection_accounting_identities(p in loss_rate(), seed in 0u64..1000) {
        let mut c = Connection::builder()
            .rtt(0.05)
            .loss(Box::new(Bernoulli::new(p)))
            .seed(seed)
            .build();
        c.run_for(SimDuration::from_secs_f64(60.0));
        c.finish();
        let s = c.stats();
        // Conservation: every transmission is new or a retransmission.
        prop_assert_eq!(s.packets_sent, s.packets_sent_new + s.retransmissions);
        // Nothing arrives that was not sent; drops never exceed sends.
        prop_assert!(s.packets_delivered <= s.packets_sent);
        prop_assert!(s.packets_dropped <= s.packets_sent);
        // Everything sent was either dropped or delivered-or-duplicate; at
        // minimum, delivered + dropped cannot exceed sent.
        prop_assert!(s.packets_delivered + s.packets_dropped <= s.packets_sent);
        // Each timeout sequence contains at least one firing.
        prop_assert!(s.rto_firings >= s.to_events());
    }

    #[test]
    fn replay_determinism(p in loss_rate(), seed in 0u64..1000) {
        let run = || {
            let mut c = Connection::builder()
                .rtt(0.08)
                .loss(Box::new(RoundCorrelated::new(p)))
                .seed(seed)
                .build();
            c.run_for(SimDuration::from_secs_f64(30.0));
            c.finish();
            c.stats()
        };
        prop_assert_eq!(run(), run());
    }

    /// Per-variant torn-tail property (the `pftk-snap` truncation proptest
    /// lifted to whole-connection snapshots): for a random variant, seed,
    /// and cut point, a truncated snapshot is always rejected — never a
    /// panic, never a silent partial restore — while the pristine bytes
    /// restore to the exact captured state.
    #[test]
    fn variant_snapshots_reject_any_truncation(
        which in 0usize..tcp_sim::cc::CcAlgorithm::ALL.len(),
        seed in 0u64..200,
        cut_frac in 0.0f64..1.0,
    ) {
        let algo = tcp_sim::cc::CcAlgorithm::ALL[which];
        let build = || {
            Connection::builder()
                .rtt(0.07)
                .sender_config(SenderConfig { cc: algo, ..SenderConfig::default() })
                .loss(Box::new(RoundCorrelated::new(0.04)))
                .seed(seed)
                .build()
        };
        let mut donor = build();
        donor.run_for(SimDuration::from_secs_f64(20.0));
        let snap = donor.snapshot().expect("snapshot");
        let cut = ((snap.len() as f64 * cut_frac) as usize).min(snap.len() - 1);
        prop_assert!(
            build().restore(&snap[..cut]).is_err(),
            "{:?}: truncation to {} of {} bytes restored",
            algo, cut, snap.len()
        );
        let mut ok = build();
        ok.restore(&snap).expect("pristine restore");
        prop_assert_eq!(ok.stats(), donor.stats());
    }

    #[test]
    fn window_never_exceeds_rwnd(rwnd in 2u32..64, seed in 0u64..200) {
        let sender = SenderConfig { rwnd, ..SenderConfig::default() };
        let mut c = Connection::builder()
            .rtt(0.05)
            .sender_config(sender)
            .loss(Box::new(Bernoulli::new(0.01)))
            .seed(seed)
            .build();
        c.run_for(SimDuration::from_secs_f64(30.0));
        // The invariant is enforced continuously; spot-check the final state.
        prop_assert!(c.sender().flight() <= u64::from(rwnd));
    }

    /// Spans the whole parameter domain, including the high-loss,
    /// deep-backoff corner (p up to 0.9, cap up to 30) where long timeout
    /// sequences reach the largest backoff shift.
    #[test]
    fn rounds_sim_rate_positive_and_bounded(
        log_p in -2.5f64..-0.0458,
        wmax in 4u32..128,
        backoff_cap_exp in 0u32..=30,
        cc in 0usize..CcAlgorithm::ALL.len(),
        seed in 0u64..500,
    ) {
        let p = 10f64.powf(log_p);
        let mut sim = RoundsSim::new(
            RoundsConfig {
                p,
                rtt: 0.1,
                t0: 1.0,
                b: 2,
                wmax,
                backoff_cap_exp,
                cc: CcAlgorithm::ALL[cc],
                ..RoundsConfig::default()
            },
            seed,
        );
        sim.run_for(2_000.0);
        let rate = sim.send_rate();
        prop_assert!(rate > 0.0);
        // Can never beat a full window every round.
        prop_assert!(rate <= f64::from(wmax) / 0.1 * (1.0 + 1e-9));
        // Throughput cannot exceed send rate.
        prop_assert!(sim.throughput() <= rate);
    }

    #[test]
    //= pftk#loss-model type=test
    //= pftk#infinite-source type=test
    fn rounds_sim_alpha_mean_is_one_over_p(p in -2.0f64..-1.0, seed in 0u64..100) {
        let p = 10f64.powf(p);
        let mut sim = RoundsSim::new(
            RoundsConfig { p, rtt: 0.1, t0: 1.0, b: 2, wmax: 10_000, ..RoundsConfig::default() },
            seed,
        )
        .record_tdps();
        sim.run_tdps(4_000);
        let mean: f64 =
            sim.tdps().iter().map(|t| t.alpha as f64).sum::<f64>() / sim.tdps().len() as f64;
        let expect = 1.0 / p;
        prop_assert!((mean - expect).abs() / expect < 0.15,
            "E[alpha]={mean} vs 1/p={expect}");
    }

    #[test]
    fn network_conserves_packets_per_flow(
        rtt_a in 0.02f64..0.4,
        rtt_b in 0.02f64..0.4,
        cbr_rate in 5.0f64..120.0,
        seed in 0u64..200,
    ) {
        use tcp_sim::network::{FlowConfig, Network};
        use tcp_sim::queue::DropTail;
        let mut net = Network::new(100.0, Box::new(DropTail::new(20)), seed);
        net.add_flow(FlowConfig::tcp(rtt_a, SenderConfig::default()));
        net.add_flow(FlowConfig::tcp(rtt_b, SenderConfig::default()));
        net.add_flow(FlowConfig::cbr(rtt_a, cbr_rate));
        net.run_for(SimDuration::from_secs_f64(60.0));
        net.finish();
        for (i, s) in net.stats().iter().enumerate() {
            // Delivered + dropped never exceeds sent (packets still in
            // flight at the horizon account for the slack).
            prop_assert!(s.delivered + s.dropped <= s.sent, "flow {i}: {s:?}");
            prop_assert!(s.sent > 0, "flow {i} never sent");
        }
    }

    #[test]
    fn tfrc_estimator_rate_is_valid_probability(
        gaps in proptest::collection::vec(1u64..500, 1..60),
    ) {
        use tcp_sim::tfrc::LossIntervalEstimator;
        use tcp_sim::time::SimTime;
        let mut e = LossIntervalEstimator::new(0.1);
        let mut now = 0.0f64;
        for (k, gap) in gaps.iter().enumerate() {
            for _ in 0..*gap {
                e.on_packet();
            }
            now += 1.0 + (k as f64 % 3.0) * 0.5;
            e.on_gap(SimTime::from_secs_f64(now));
            let p = e.loss_event_rate().unwrap();
            prop_assert!(p > 0.0 && p <= 1.0, "p = {p}");
        }
    }

    #[test]
    fn gilbert_elliott_hits_target_rate(target in 0.01f64..0.2, burst in 1.5f64..10.0) {
        use tcp_sim::loss::LossModel;
        use tcp_sim::rng::SimRng;
        let mut model = GilbertElliott::from_rate_and_burst(target, burst);
        let mut rng = SimRng::seed_from_u64(7);
        let n = 400_000u64;
        let drops = (0..n)
            .filter(|_| model.should_drop(tcp_sim::time::SimTime::ZERO, &mut rng))
            .count();
        let rate = drops as f64 / n as f64;
        prop_assert!((rate - target).abs() < 0.25 * target + 0.005,
            "measured {rate} vs target {target}");
    }
}
