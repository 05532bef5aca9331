//! The whole stack under every congestion-control law: for each of
//! `CcAlgorithm::ALL`, the packet-level engine, a mid-run
//! snapshot/restore, the §II rounds model, and a budgeted Table II path
//! through the testbed pipeline. No tier-1 invariant may depend on Reno
//! being the only law in the build.

use std::sync::Arc;
use std::time::Duration;

use padhye_tcp_repro::sim::cc::CcAlgorithm;
use padhye_tcp_repro::sim::connection::Connection;
use padhye_tcp_repro::sim::loss::RoundCorrelated;
use padhye_tcp_repro::sim::reno::sender::SenderConfig;
use padhye_tcp_repro::sim::rounds::{RoundsConfig, RoundsSim};
use padhye_tcp_repro::sim::time::{SimDuration, SimTime};
use padhye_tcp_repro::testbed::{
    run_campaign, run_hour_budgeted_with, ExperimentOptions, JobSpec, Outcome, SupervisorConfig,
    TABLE2_PATHS,
};

//= pftk#variant-envelope type=test
#[test]
fn selected_variant_runs_the_whole_stack() {
    for algo in CcAlgorithm::ALL {
        runs_the_whole_stack(algo);
    }
}

fn runs_the_whole_stack(algo: CcAlgorithm) {
    // Packet level: the variant simulates, delivers, and accounts sanely.
    let build = || {
        Connection::builder()
            .rtt(0.08)
            .sender_config(SenderConfig {
                cc: algo,
                ..SenderConfig::default()
            })
            .loss(Box::new(RoundCorrelated::new(0.03)))
            .seed(29)
            .build()
    };
    let mut whole = build();
    whole.run_for(SimDuration::from_secs_f64(120.0));
    whole.finish();
    let stats = whole.stats();
    assert!(stats.packets_sent > 500, "{algo:?}: degenerate run");
    assert!(stats.packets_delivered <= stats.packets_sent);
    assert_eq!(
        stats.packets_sent,
        stats.packets_sent_new + stats.retransmissions
    );

    // Mid-run checkpoint: the variant's controller state survives a
    // snapshot/restore cycle bit-identically.
    let mut first = build();
    first.run_until(SimTime::from_secs_f64(53.0));
    let snap = first.snapshot().expect("snapshot");
    let mut resumed = build();
    resumed.restore(&snap).expect("restore");
    resumed.run_until(SimTime::from_secs_f64(120.0));
    resumed.finish();
    assert_eq!(whole.stats(), resumed.stats(), "{algo:?}: resume diverged");

    // Rounds model: the same algorithm's round law produces a positive,
    // W_m/RTT-bounded send rate.
    let cfg = RoundsConfig {
        p: 0.03,
        rtt: 0.1,
        t0: 1.0,
        b: 2,
        wmax: 48,
        cc: algo,
        ..RoundsConfig::default()
    };
    let mut sim = RoundsSim::new(cfg, 31);
    sim.run_tdps(2_000);
    let rate = sim.send_rate();
    assert!(rate > 0.0, "{algo:?}: rounds model sent nothing");
    assert!(
        rate <= f64::from(cfg.wmax) / cfg.rtt * 1.01,
        "{algo:?}: rounds rate {rate} exceeds the window limit"
    );

    // Testbed: a budgeted Table II campaign runs clean under the variant.
    let opts = ExperimentOptions {
        cc: algo,
        ..ExperimentOptions::default()
    };
    let jobs = TABLE2_PATHS[..2]
        .iter()
        .map(|spec| {
            let spec = *spec;
            JobSpec {
                label: spec.id(),
                seed: 0x0571_00C0 ^ algo.tag(),
                job: Arc::new(move |seed| run_hour_budgeted_with(&spec, seed, 60_000, &opts)),
            }
        })
        .collect();
    let report = run_campaign(
        jobs,
        &SupervisorConfig {
            wall_budget: Duration::from_secs(120),
            retry: false,
            max_workers: 2,
            schedule_chaos: None,
        },
    );
    assert!(
        report.is_complete(),
        "{algo:?}: campaign left holes: {}",
        report.summary()
    );
    for row in &report.rows {
        assert_eq!(row.outcome, Outcome::Ok, "{algo:?}: {}", row.label);
    }
}
