//! Controlled-conditions validation: drive the packet-level TCP Reno
//! simulator under conditions that match the model's assumptions as closely
//! as the implementation allows — per-ACK acking (b = 1), constant RTT, the
//! paper's round-correlated loss — and check that the closed form's fit
//! tightens relative to the realistic (delayed-ACK, jittered) setup.

use padhye_tcp_repro::model::prelude::*;
use padhye_tcp_repro::sim::connection::Connection;
use padhye_tcp_repro::sim::loss::RoundCorrelated;
use padhye_tcp_repro::sim::receiver::ReceiverConfig;
use padhye_tcp_repro::sim::reno::rto::RtoConfig;
use padhye_tcp_repro::sim::reno::sender::SenderConfig;
use padhye_tcp_repro::sim::time::SimDuration;

const HORIZON: f64 = 1800.0;
const RTT: f64 = 0.1;
const WMAX: u32 = 48;

struct Outcome {
    rate: f64,
    p_obs: f64,
    t0_obs: f64,
}

fn run_with(b: u32, wire_p: f64, seed: u64, bursty: bool) -> Outcome {
    use padhye_tcp_repro::sim::loss::{Bernoulli, LossKind};
    let sender = SenderConfig {
        rwnd: WMAX,
        rto: RtoConfig {
            min_rto: SimDuration::from_secs_f64(1.0),
            initial_rto: SimDuration::from_secs_f64(1.0),
            ..RtoConfig::default()
        },
        ..SenderConfig::default()
    };
    let receiver = ReceiverConfig {
        ack_every: b,
        ..ReceiverConfig::default()
    };
    let loss: LossKind = if bursty {
        RoundCorrelated::new(wire_p).into()
    } else {
        Bernoulli::new(wire_p).into()
    };
    let mut c = Connection::builder()
        .rtt(RTT)
        .loss(loss)
        .sender_config(sender)
        .receiver_config(receiver)
        .seed(seed)
        .build();
    c.run_for(SimDuration::from_secs_f64(HORIZON));
    c.finish();
    let stats = c.stats();
    Outcome {
        rate: stats.packets_sent as f64 / HORIZON,
        p_obs: stats.loss_indication_rate().clamp(1e-6, 0.9),
        t0_obs: c.sender().rto_estimator().mean_t0().unwrap_or(1.0),
    }
}

fn model_fit(b: u32, wire_p: f64, bursty: bool) -> (f64, f64) {
    // Mean |model − sim| / sim and mean signed (model − sim)/sim over seeds.
    let seeds = [1u64, 2, 3];
    let mut err = 0.0;
    let mut signed = 0.0;
    for &seed in &seeds {
        let o = run_with(b, wire_p, seed, bursty);
        let params = ModelParams::new(RTT, o.t0_obs, b, WMAX).unwrap();
        let predicted = full_model(LossProb::new(o.p_obs).unwrap(), &params);
        err += (predicted - o.rate).abs() / o.rate;
        signed += (predicted - o.rate) / o.rate;
    }
    (err / seeds.len() as f64, signed / seeds.len() as f64)
}

#[test]
//= pftk#eq-32 type=test
//= pftk#loss-model type=test
fn model_fits_simulator_within_paper_error_bands() {
    // Constant RTT, the paper's round-correlated loss, generous window.
    // Whole-round bursts put real Reno in the timeout-dominated regime
    // where the paper's own full-model errors reach 0.7–0.9 (Fig. 9); we
    // require the same band, and that the deviation is the documented
    // *optimism* (model above measurement), not scatter.
    for wire_p in [0.005, 0.01, 0.02] {
        let (err, signed) = model_fit(1, wire_p, true);
        assert!(
            err < 0.7,
            "round-correlated, wire_p={wire_p}: model error {err:.3}"
        );
        assert!(
            signed > 0.0,
            "wire_p={wire_p}: deviation should be over-prediction, got {signed:.3}"
        );
    }
}

#[test]
fn bernoulli_losses_fit_tighter_than_bursts() {
    // §IV: the model predicted throughput "quite well, even with Bernoulli
    // losses". Isolated losses mostly recover by a single fast retransmit —
    // the process the closed form describes — so the fit must be tighter
    // than under whole-round bursts.
    let wire_p = 0.01;
    let (err_bern, _) = model_fit(1, wire_p, false);
    let (err_burst, _) = model_fit(1, wire_p, true);
    assert!(
        err_bern < err_burst,
        "Bernoulli error {err_bern:.3} should beat bursty error {err_burst:.3}"
    );
    assert!(
        err_bern < 0.35,
        "Bernoulli fit {err_bern:.3} should be tight"
    );
}

#[test]
//= pftk#delack-b type=test
fn delayed_acks_match_b2_model_variant() {
    // With delayed ACKs the b = 2 model must fit better than the b = 1
    // model evaluated on the same runs — the delayed-ACK factor is doing
    // real work in the formula.
    let wire_p = 0.01;
    let seeds = [5u64, 6, 7];
    let (mut err_b2, mut err_b1) = (0.0, 0.0);
    for &seed in &seeds {
        let o = run_with(2, wire_p, seed, true);
        let lp = LossProb::new(o.p_obs).unwrap();
        let m2 = full_model(lp, &ModelParams::new(RTT, o.t0_obs, 2, WMAX).unwrap());
        let m1 = full_model(lp, &ModelParams::new(RTT, o.t0_obs, 1, WMAX).unwrap());
        err_b2 += (m2 - o.rate).abs() / o.rate;
        err_b1 += (m1 - o.rate).abs() / o.rate;
    }
    assert!(
        err_b2 < err_b1,
        "b=2 model error {:.3} should beat b=1 error {:.3} on delayed-ACK runs",
        err_b2 / 3.0,
        err_b1 / 3.0
    );
}

#[test]
fn per_ack_acking_sends_faster_than_delayed() {
    // b = 1 grows the window twice as fast; the model says rate scales like
    // √(b)… verify the simulator agrees directionally.
    let fast = run_with(1, 0.01, 9, true).rate;
    let slow = run_with(2, 0.01, 9, true).rate;
    assert!(
        fast > slow,
        "per-ACK acking {fast:.1} pkt/s should beat delayed {slow:.1} pkt/s"
    );
}
