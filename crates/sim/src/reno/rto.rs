//! Retransmission-timeout estimation: Jacobson/Karels SRTT/RTTVAR with
//! Karn's algorithm (handled by the sender: no samples from retransmitted
//! segments) and exponential backoff capped at `2^max_backoff_exp · RTO`
//! (the paper's `64·T0` for the default exponent cap of 6; §IV notes Irix
//! caps at `2^5`, which [`RtoConfig::backoff_cap_exp`] can express).

use crate::time::SimDuration;
use pftk_snap::{SnapReader, SnapResult, SnapWriter};

/// Tunables of the timeout machinery.
#[derive(Debug, Clone, Copy)]
pub struct RtoConfig {
    /// Timer granularity; the computed RTO is rounded up to a multiple of
    /// this (classic BSD stacks used 500 ms ticks).
    pub granularity: SimDuration,
    /// Lower clamp on the base (unbacked-off) RTO.
    pub min_rto: SimDuration,
    /// Upper clamp on the *backed-off* RTO.
    pub max_rto: SimDuration,
    /// RTO before any RTT sample exists (RFC 6298 says 1 s; older stacks 3 s).
    pub initial_rto: SimDuration,
    /// Backoff exponent cap: the backed-off RTO is `base · 2^min(n, cap)`.
    /// 6 reproduces the paper's `64·T0` ceiling; 5 the Irix quirk.
    pub backoff_cap_exp: u32,
}

impl Default for RtoConfig {
    fn default() -> Self {
        RtoConfig {
            granularity: SimDuration::from_millis(100),
            // RFC 6298 §2.4: "Whenever RTO is computed, if it is less than
            // 1 second, then the RTO SHOULD be rounded up to 1 second" —
            // in part so a delayed-ACK hold (up to 500 ms) cannot fire a
            // spurious timeout.
            min_rto: SimDuration::from_secs_f64(1.0),
            max_rto: SimDuration::from_secs_f64(240.0),
            initial_rto: SimDuration::from_secs_f64(3.0),
            backoff_cap_exp: 6,
        }
    }
}

/// SRTT/RTTVAR estimator plus backoff state.
#[derive(Debug, Clone)]
pub struct RtoEstimator {
    config: RtoConfig,
    /// Smoothed RTT, seconds.
    srtt: Option<f64>,
    /// RTT variation, seconds.
    rttvar: f64,
    /// [`Self::base_rto`], recomputed whenever its inputs (`srtt`,
    /// `rttvar`) change, so the per-ACK timer re-arm reads it instead of
    /// redoing the rounding. Derived state: snapshots leave it out.
    base_rto: SimDuration,
    backoff_exp: u32,
    /// Diagnostics: sum/count of base RTOs sampled at the first firing of
    /// each timeout sequence — the simulator's ground-truth `T0`.
    t0_sum: f64,
    t0_count: u64,
    /// Diagnostics: sum/count of raw RTT samples (ground-truth mean RTT).
    rtt_sum: f64,
    rtt_count: u64,
}

impl RtoEstimator {
    /// A fresh estimator with no samples.
    pub fn new(config: RtoConfig) -> Self {
        let mut e = RtoEstimator {
            config,
            srtt: None,
            rttvar: 0.0,
            base_rto: SimDuration::ZERO,
            backoff_exp: 0,
            t0_sum: 0.0,
            t0_count: 0,
            rtt_sum: 0.0,
            rtt_count: 0,
        };
        e.base_rto = e.compute_base_rto();
        e
    }

    /// Writes the estimator's mutable state (samples, backoff, ground-truth
    /// accumulators); the config is restore-side shape.
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        match self.srtt {
            Some(v) => {
                w.put_bool(true);
                w.put_f64(v);
            }
            None => w.put_bool(false),
        }
        w.put_f64(self.rttvar);
        w.put_u32(self.backoff_exp);
        w.put_f64(self.t0_sum);
        w.put_u64(self.t0_count);
        w.put_f64(self.rtt_sum);
        w.put_u64(self.rtt_count);
    }

    /// Reads state written by [`Self::snapshot_into`].
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        self.srtt = if r.get_bool()? {
            Some(r.get_f64()?)
        } else {
            None
        };
        self.rttvar = r.get_f64()?;
        self.backoff_exp = r.get_u32()?;
        self.t0_sum = r.get_f64()?;
        self.t0_count = r.get_u64()?;
        self.rtt_sum = r.get_f64()?;
        self.rtt_count = r.get_u64()?;
        self.base_rto = self.compute_base_rto();
        Ok(())
    }

    /// Feeds one RTT measurement (from a never-retransmitted segment, per
    /// Karn). RFC 6298 update: first sample sets `SRTT = R`,
    /// `RTTVAR = R/2`; later samples use gains 1/8 and 1/4.
    pub fn on_rtt_sample(&mut self, rtt: SimDuration) {
        let r = rtt.as_secs_f64();
        self.rtt_sum += r;
        self.rtt_count += 1;
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - r).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * r);
            }
        }
        self.base_rto = self.compute_base_rto();
    }

    /// The base (unbacked-off) RTO: `SRTT + max(G, 4·RTTVAR)`, rounded up to
    /// the granularity and clamped to `[min_rto, max_rto]`. This is what the
    /// paper's `T0` measures (the duration of a *single* timeout).
    #[inline]
    pub fn base_rto(&self) -> SimDuration {
        self.base_rto
    }

    /// Evaluates [`Self::base_rto`] from the current estimates.
    fn compute_base_rto(&self) -> SimDuration {
        let base = match self.srtt {
            None => self.config.initial_rto,
            Some(srtt) => {
                let g = self.config.granularity.as_secs_f64();
                SimDuration::from_secs_f64(srtt + (4.0 * self.rttvar).max(g))
            }
        };
        let g = self.config.granularity.as_nanos().max(1);
        let rounded = SimDuration::from_nanos(base.as_nanos().div_ceil(g) * g);
        rounded.max(self.config.min_rto).min(self.config.max_rto)
    }

    /// The RTO to arm right now, including exponential backoff.
    //= pftk#rto-backoff
    pub fn current_rto(&self) -> SimDuration {
        let capped_exp = self.backoff_exp.min(self.config.backoff_cap_exp);
        self.base_rto()
            .saturating_mul(1u64 << capped_exp)
            .min(self.config.max_rto)
    }

    /// The timer fired: double (up to the cap). Records the ground-truth
    /// `T0` at the start of a timeout sequence.
    pub fn on_timeout(&mut self) {
        if self.backoff_exp == 0 {
            self.t0_sum += self.base_rto().as_secs_f64();
            self.t0_count += 1;
        }
        self.backoff_exp = (self.backoff_exp + 1).min(self.config.backoff_cap_exp + 1);
    }

    /// Forward progress (a new ACK): backoff resets.
    pub fn on_progress(&mut self) {
        self.backoff_exp = 0;
    }

    /// Current backoff exponent (0 = no backoff).
    pub fn backoff_exp(&self) -> u32 {
        self.backoff_exp
    }

    /// Ground truth: mean of the base RTO at the first firing of each
    /// timeout sequence (the simulator-side analogue of Table II's "Time
    /// Out" column). `None` before any timeout.
    pub fn mean_t0(&self) -> Option<f64> {
        (self.t0_count > 0).then(|| self.t0_sum / self.t0_count as f64) //~ allow(cast): integer count to f64, exact below 2^53
    }

    /// Ground truth: mean raw RTT sample. `None` before any sample.
    pub fn mean_rtt(&self) -> Option<f64> {
        (self.rtt_count > 0).then(|| self.rtt_sum / self.rtt_count as f64) //~ allow(cast): integer count to f64, exact below 2^53
    }

    /// Smoothed RTT, if at least one sample has arrived.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt.map(SimDuration::from_secs_f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(v: f64) -> SimDuration {
        SimDuration::from_secs_f64(v)
    }

    #[test]
    fn initial_rto_before_samples() {
        let e = RtoEstimator::new(RtoConfig::default());
        assert_eq!(e.base_rto(), secs(3.0));
    }

    /// A config whose floor is low enough to expose the raw estimator
    /// arithmetic (the RFC 6298 default floor of 1 s would mask it).
    fn low_floor() -> RtoConfig {
        RtoConfig {
            min_rto: SimDuration::from_millis(100),
            ..RtoConfig::default()
        }
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = RtoEstimator::new(low_floor());
        e.on_rtt_sample(secs(0.2));
        // SRTT=0.2, RTTVAR=0.1 → RTO = 0.2 + 0.4 = 0.6, granularity-aligned.
        assert_eq!(e.base_rto(), secs(0.6));
    }

    #[test]
    fn rfc6298_floor_applies_by_default() {
        let mut e = RtoEstimator::new(RtoConfig::default());
        for _ in 0..200 {
            e.on_rtt_sample(secs(0.05));
        }
        assert_eq!(e.base_rto(), secs(1.0), "default floor is RFC 6298's 1 s");
    }

    #[test]
    fn constant_rtt_converges_to_srtt_plus_granularity() {
        let mut e = RtoEstimator::new(low_floor());
        for _ in 0..200 {
            e.on_rtt_sample(secs(0.2));
        }
        // RTTVAR → 0, so RTO → SRTT + G = 0.3, rounded up to 100 ms grid.
        assert_eq!(e.base_rto(), secs(0.3));
        assert!((e.srtt().unwrap().as_secs_f64() - 0.2).abs() < 1e-9);
    }

    #[test]
    //= pftk#rto-backoff type=test
    fn backoff_doubles_then_caps_at_64x() {
        let mut e = RtoEstimator::new(RtoConfig::default());
        for _ in 0..200 {
            e.on_rtt_sample(secs(0.2));
        }
        let base = e.base_rto().as_secs_f64();
        let mut expected = vec![];
        for k in 0..9 {
            expected.push((base * f64::from(1u32 << k.min(6))).min(240.0));
            // current_rto BEFORE k-th firing uses exponent k.
            let got = e.current_rto().as_secs_f64();
            assert!((got - expected[k as usize]).abs() < 1e-9, "k={k}: {got}");
            e.on_timeout();
        }
        // 64× cap reached and held.
        assert!((e.current_rto().as_secs_f64() - base * 64.0).abs() < 1e-9);
    }

    #[test]
    fn irix_quirk_caps_at_32x() {
        let config = RtoConfig {
            backoff_cap_exp: 5,
            ..RtoConfig::default()
        };
        let mut e = RtoEstimator::new(config);
        for _ in 0..200 {
            e.on_rtt_sample(secs(0.2));
        }
        let base = e.base_rto().as_secs_f64();
        for _ in 0..10 {
            e.on_timeout();
        }
        assert!((e.current_rto().as_secs_f64() - base * 32.0).abs() < 1e-9);
    }

    #[test]
    fn progress_resets_backoff() {
        let mut e = RtoEstimator::new(RtoConfig::default());
        e.on_timeout();
        e.on_timeout();
        assert_eq!(e.backoff_exp(), 2);
        e.on_progress();
        assert_eq!(e.backoff_exp(), 0);
    }

    #[test]
    fn ground_truth_t0_only_counts_sequence_starts() {
        let mut e = RtoEstimator::new(RtoConfig::default());
        e.on_rtt_sample(secs(0.2));
        e.on_timeout(); // sequence 1 starts (records T0)
        e.on_timeout(); // backoff — not a new sequence
        e.on_progress();
        e.on_timeout(); // sequence 2 starts
        assert_eq!(e.t0_count, 2);
        assert!((e.mean_t0().unwrap() - e.base_rto().as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn mean_rtt_ground_truth() {
        let mut e = RtoEstimator::new(RtoConfig::default());
        assert!(e.mean_rtt().is_none());
        e.on_rtt_sample(secs(0.1));
        e.on_rtt_sample(secs(0.3));
        assert!((e.mean_rtt().unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn min_rto_clamp() {
        let config = RtoConfig {
            min_rto: SimDuration::from_secs_f64(1.0),
            ..RtoConfig::default()
        };
        let mut e = RtoEstimator::new(config);
        for _ in 0..100 {
            e.on_rtt_sample(secs(0.01));
        }
        assert_eq!(e.base_rto(), secs(1.0));
    }

    /// The cached base RTO always equals a fresh evaluation: after every
    /// sample, across timeouts, and after a snapshot restore (which does
    /// not carry it).
    #[test]
    fn cached_base_rto_tracks_its_inputs() {
        let mut e = RtoEstimator::new(low_floor());
        assert_eq!(e.base_rto(), e.compute_base_rto());
        for (i, ms) in [80u64, 200, 130, 900, 40, 75, 310].iter().enumerate() {
            e.on_rtt_sample(SimDuration::from_millis(*ms));
            assert_eq!(e.base_rto(), e.compute_base_rto(), "sample {i}");
            if i % 3 == 0 {
                e.on_timeout();
            }
        }
        let mut w = SnapWriter::new();
        e.snapshot_into(&mut w);
        let bytes = w.into_bytes();
        let mut restored = RtoEstimator::new(low_floor());
        let mut r = SnapReader::new(&bytes);
        restored.restore_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.base_rto(), e.base_rto());
        assert_eq!(restored.current_rto(), e.current_rto());
    }

    #[test]
    fn variance_widens_rto() {
        let mut stable = RtoEstimator::new(low_floor());
        let mut noisy = RtoEstimator::new(low_floor());
        for i in 0..100 {
            stable.on_rtt_sample(secs(0.2));
            noisy.on_rtt_sample(secs(if i % 2 == 0 { 0.1 } else { 0.3 }));
        }
        assert!(noisy.base_rto() > stable.base_rto());
    }
}
