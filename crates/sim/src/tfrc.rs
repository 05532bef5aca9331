//! A simplified TFRC endpoint: equation-based congestion control built on
//! the paper's approximate model (Eq. (33)) — the control law that RFC 5348
//! later standardized, and the §I application that motivated the model.
//!
//! Faithful pieces:
//!
//! * **loss-event detection** — sequence gaps at the receiver, with gaps
//!   inside one RTT coalesced into a single loss event (the paper's
//!   loss-*indication* notion, and RFC 5348 §5.2);
//! * **average loss interval** — the weighted mean of the last eight
//!   closed loss-event intervals with weights `[1,1,1,1,0.8,0.6,0.4,0.2]`,
//!   including the open interval when that raises the mean (RFC 5348 §5.4);
//! * **the control equation** — send rate = Eq. (33) at the measured loss
//!   event rate.
//!
//! Simplifications (documented, deliberate): feedback is computed at the
//! receiver and applied after one configured feedback delay rather than via
//! explicit feedback packets; the RTT is a configured estimate instead of a
//! measured one; there is no oscillation damping or idle-period handling.

use crate::time::{SimDuration, SimTime};
use pftk_model::params::ModelParams;
use pftk_model::sendrate::approx_model;
use pftk_model::units::LossProb;
use std::collections::VecDeque;

/// RFC 5348 §5.4 loss-interval weights, most recent first.
const WEIGHTS: [f64; 8] = [1.0, 1.0, 1.0, 1.0, 0.8, 0.6, 0.4, 0.2];

/// Receiver-side loss-event-rate estimator (the average-loss-interval
/// method).
#[derive(Debug, Clone)]
pub struct LossIntervalEstimator {
    /// Closed intervals (packets between consecutive loss-event starts),
    /// most recent first; at most 8 kept.
    closed: VecDeque<u64>,
    /// Packets since the current loss event started (the open interval).
    open: u64,
    /// When the current loss event started.
    last_event_at: Option<SimTime>,
    /// Gaps within this span of the previous event are the same event.
    coalesce_secs: f64,
}

impl LossIntervalEstimator {
    /// An estimator coalescing losses within `rtt_secs` into one event.
    pub fn new(rtt_secs: f64) -> Self {
        assert!(rtt_secs > 0.0, "rtt must be positive");
        LossIntervalEstimator {
            closed: VecDeque::new(),
            open: 0,
            last_event_at: None,
            coalesce_secs: rtt_secs,
        }
    }

    /// A packet arrived in order (or filled a hole).
    pub fn on_packet(&mut self) {
        self.open += 1;
    }

    /// A sequence gap was observed at `now`. Returns `true` when this
    /// starts a *new* loss event (not coalesced into the previous one).
    pub fn on_gap(&mut self, now: SimTime) -> bool {
        if let Some(last) = self.last_event_at {
            if now.saturating_since(last).as_secs_f64() < self.coalesce_secs {
                return false; // same loss event
            }
        }
        // Close the running interval and start a new event.
        if self.last_event_at.is_some() {
            self.closed.push_front(self.open);
            if self.closed.len() > WEIGHTS.len() {
                self.closed.pop_back();
            }
        }
        self.open = 0;
        self.last_event_at = Some(now);
        true
    }

    /// The average loss interval (RFC 5348 §5.4): weighted mean of the
    /// closed intervals, taking the open interval into account when it
    /// raises the mean. `None` until the first loss event.
    pub fn average_interval(&self) -> Option<f64> {
        self.last_event_at?;
        if self.closed.is_empty() {
            // Only the open interval exists; use it directly (bootstraps
            // the estimator right after the first event).
            return Some(self.open.max(1) as f64); //~ allow(cast): integer count to f64, exact below 2^53
        }
        let weighted = |vals: &mut dyn Iterator<Item = u64>| -> f64 {
            let mut num = 0.0;
            let mut den = 0.0;
            for (v, w) in vals.zip(WEIGHTS.iter()) {
                num += v as f64 * w; //~ allow(cast): integer count to f64, exact below 2^53
                den += w;
            }
            num / den
        };
        let hist = weighted(&mut self.closed.iter().copied());
        let with_open =
            weighted(&mut std::iter::once(self.open).chain(self.closed.iter().copied()));
        Some(hist.max(with_open))
    }

    /// The loss-event rate `p = 1 / average interval`; `None` before any
    /// loss.
    pub fn loss_event_rate(&self) -> Option<f64> {
        self.average_interval()
            .map(|iv| (1.0 / iv).clamp(1e-9, 1.0))
    }
}

/// The spacing of a source that sends `rate_pps` packets per second.
///
/// # Panics
/// Unless `rate_pps` is finite and positive and the spacing rounds to at
/// least 1 ns: a source rescheduled at the instant it fires would never
/// let the clock move. `what` names the rate in the message.
pub(crate) fn packet_interval(rate_pps: f64, what: &str) -> SimDuration {
    assert!(
        rate_pps.is_finite() && rate_pps > 0.0,
        "{what} must be finite and positive, got {rate_pps}"
    );
    let interval = SimDuration::from_secs_f64(1.0 / rate_pps);
    assert!(
        interval.as_nanos() > 0,
        "{what} of {rate_pps} pkt/s spaces packets less than 1 ns apart"
    );
    interval
}

/// TFRC sender configuration.
#[derive(Debug, Clone, Copy)]
pub struct TfrcConfig {
    /// RTT estimate used in the control equation, seconds.
    pub rtt_secs: f64,
    /// Timeout estimate `T0` for the control equation, seconds
    /// (RFC 5348 uses `4·RTT` when no finer estimate exists).
    pub t0_secs: f64,
    /// Initial sending rate, packets per second.
    pub initial_rate_pps: f64,
    /// Hard ceiling on the sending rate (a sanity bound; RFC 5348 bounds by
    /// twice the receive rate — we keep the simpler static cap).
    pub max_rate_pps: f64,
}

impl TfrcConfig {
    /// Conventional defaults for a given RTT: `T0 = 4·RTT`, initial rate of
    /// one packet per RTT.
    pub fn for_rtt(rtt_secs: f64) -> Self {
        TfrcConfig {
            rtt_secs,
            t0_secs: 4.0 * rtt_secs,
            initial_rate_pps: 1.0 / rtt_secs,
            max_rate_pps: 100_000.0,
        }
    }
}

/// The TFRC rate controller (sender side).
#[derive(Debug, Clone)]
pub struct TfrcController {
    config: TfrcConfig,
    rate_pps: f64,
}

impl TfrcController {
    /// A controller starting at the configured initial rate.
    ///
    /// # Panics
    /// Unless `rtt_secs` is positive; both rates are finite and positive
    /// with packets at least 1 ns apart; and `max_rate_pps` is at least the
    /// probing floor of one packet per 8 RTTs. Every rate the controller
    /// can reach then lies between these bounds.
    pub fn new(config: TfrcConfig) -> Self {
        assert!(config.rtt_secs > 0.0, "TFRC rtt must be positive");
        packet_interval(config.initial_rate_pps, "TFRC initial rate");
        packet_interval(config.max_rate_pps, "TFRC max rate");
        assert!(
            floor_pps(&config) <= config.max_rate_pps,
            "TFRC max rate {} pkt/s is below the probing floor",
            config.max_rate_pps
        );
        TfrcController {
            config,
            rate_pps: config.initial_rate_pps,
        }
    }

    /// Current allowed sending rate, packets per second.
    pub fn rate_pps(&self) -> f64 {
        self.rate_pps
    }

    /// Feedback arrived: update the rate. With no loss yet, the rate
    /// doubles per feedback (slow-start phase); with a measured loss-event
    /// rate, the allowed rate is the paper's Eq. (33).
    pub fn on_feedback(&mut self, loss_event_rate: Option<f64>) {
        match loss_event_rate {
            None => {
                self.rate_pps = (self.rate_pps * 2.0).min(self.config.max_rate_pps);
            }
            Some(p) => {
                // `TfrcConfig` was validated on construction and the loss
                // rate is clamped into the open interval, so both
                // constructors succeed; if either ever failed we hold the
                // current rate rather than panic mid-simulation.
                let params = ModelParams::new(
                    self.config.rtt_secs,
                    self.config.t0_secs,
                    2,
                    u32::from(u16::MAX),
                );
                let lp = LossProb::new(p.clamp(1e-9, 1.0 - 1e-9));
                let (Ok(params), Ok(lp)) = (params, lp) else {
                    return;
                };
                //= pftk#eq-33
                //= pftk#tcp-friendly
                let eq = approx_model(lp, &params);
                self.rate_pps = eq.clamp(floor_pps(&self.config), self.config.max_rate_pps);
            }
        }
    }
}

/// The slowest rate the control equation may set: one packet per
/// RTO-ish interval, so the flow keeps probing (RFC 5348's
/// one-packet-per-64s absolute floor is far below anything this testbed
/// needs).
fn floor_pps(config: &TfrcConfig) -> f64 {
    1.0 / (8.0 * config.rtt_secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn estimator_starts_empty() {
        let e = LossIntervalEstimator::new(0.1);
        assert!(e.loss_event_rate().is_none());
        assert!(e.average_interval().is_none());
    }

    #[test]
    fn gaps_within_rtt_coalesce() {
        let mut e = LossIntervalEstimator::new(0.1);
        for _ in 0..50 {
            e.on_packet();
        }
        assert!(e.on_gap(t(1.0)), "first gap starts an event");
        assert!(!e.on_gap(t(1.05)), "gap 50 ms later is the same event");
        assert!(e.on_gap(t(1.30)), "gap 300 ms later is a new event");
    }

    #[test]
    fn loss_event_rate_tracks_regular_spacing() {
        // A loss event every 100 packets → p ≈ 0.01.
        let mut e = LossIntervalEstimator::new(0.1);
        let mut now = 0.0;
        for _ in 0..20 {
            for _ in 0..100 {
                e.on_packet();
            }
            now += 10.0;
            e.on_gap(t(now));
        }
        let p = e.loss_event_rate().unwrap();
        assert!((p - 0.01).abs() < 0.002, "p = {p}");
    }

    #[test]
    fn open_interval_raises_the_mean_only_upward() {
        let mut e = LossIntervalEstimator::new(0.1);
        // Two closed intervals of 10.
        for k in 0..3 {
            for _ in 0..10 {
                e.on_packet();
            }
            e.on_gap(t(1.0 + k as f64));
        }
        let base = e.average_interval().unwrap();
        assert!((base - 10.0).abs() < 1e-9);
        // A long open interval lifts the mean…
        for _ in 0..100 {
            e.on_packet();
        }
        assert!(e.average_interval().unwrap() > base);
        // …but a short open interval must not drag it down.
        let mut e2 = LossIntervalEstimator::new(0.1);
        for k in 0..3 {
            for _ in 0..10 {
                e2.on_packet();
            }
            e2.on_gap(t(1.0 + k as f64));
        }
        e2.on_packet(); // open interval of 1
        assert!((e2.average_interval().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn history_bounded_to_eight() {
        let mut e = LossIntervalEstimator::new(0.1);
        // Early intervals of 1000, then a regime change to 10.
        for k in 0..4 {
            for _ in 0..1_000 {
                e.on_packet();
            }
            e.on_gap(t(10.0 * k as f64));
        }
        for k in 4..30 {
            for _ in 0..10 {
                e.on_packet();
            }
            e.on_gap(t(10.0 * k as f64));
        }
        // Old regime fully aged out: p ≈ 1/10.
        let p = e.loss_event_rate().unwrap();
        assert!((p - 0.1).abs() < 0.02, "p = {p}");
    }

    #[test]
    fn controller_slow_starts_then_obeys_equation() {
        let mut c = TfrcController::new(TfrcConfig::for_rtt(0.1));
        let r0 = c.rate_pps();
        c.on_feedback(None);
        c.on_feedback(None);
        assert!(
            (c.rate_pps() - 4.0 * r0).abs() < 1e-9,
            "doubling per feedback"
        );
        // First loss feedback: rate follows Eq. (33).
        c.on_feedback(Some(0.01));
        let params = ModelParams::new(0.1, 0.4, 2, u16::MAX as u32).unwrap();
        let expect = approx_model(LossProb::new(0.01).unwrap(), &params);
        assert!((c.rate_pps() - expect).abs() < 1e-9);
        // Higher loss → lower rate.
        let before = c.rate_pps();
        c.on_feedback(Some(0.05));
        assert!(c.rate_pps() < before);
    }

    fn config(initial_rate_pps: f64, max_rate_pps: f64) -> TfrcConfig {
        TfrcConfig {
            rtt_secs: 0.1,
            t0_secs: 0.4,
            initial_rate_pps,
            max_rate_pps,
        }
    }

    #[test]
    #[should_panic(expected = "less than 1 ns apart")]
    fn initial_rate_with_a_zero_spacing_is_rejected() {
        TfrcController::new(config(3e9, 100_000.0));
    }

    #[test]
    #[should_panic(expected = "less than 1 ns apart")]
    fn max_rate_with_a_zero_spacing_is_rejected() {
        TfrcController::new(config(10.0, 3e9));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn nan_max_rate_is_rejected() {
        TfrcController::new(config(10.0, f64::NAN));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn infinite_initial_rate_is_rejected() {
        TfrcController::new(config(f64::INFINITY, 100_000.0));
    }

    #[test]
    #[should_panic(expected = "below the probing floor")]
    fn max_rate_below_the_probing_floor_is_rejected() {
        // The floor at a 100 ms RTT is 1.25 pkt/s.
        TfrcController::new(config(1.0, 1.0));
    }

    #[test]
    fn controller_rate_floor_and_cap() {
        let mut c = TfrcController::new(TfrcConfig {
            rtt_secs: 0.1,
            t0_secs: 0.4,
            initial_rate_pps: 10.0,
            max_rate_pps: 50.0,
        });
        for _ in 0..20 {
            c.on_feedback(None);
        }
        assert_eq!(c.rate_pps(), 50.0, "cap binds");
        c.on_feedback(Some(0.9));
        assert!(c.rate_pps() >= 1.0 / 0.8, "floor binds at extreme loss");
    }
}
