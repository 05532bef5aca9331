//! CUBIC congestion control (RFC 8312).
//!
//! The window is a cubic function of *time since the last reduction*
//! rather than of ACK arrivals: after a loss at plateau `W_max`, the
//! window follows `W(t) = C·(t − K)³ + W_max` with `C = 0.4` and
//! `K = ∛(W_max·β/C)`-shaped recovery origin, so it concave-approaches
//! the old plateau, plateaus, then convex-probes beyond it. This breaks
//! both PFTK modelling assumptions at once — growth is neither +1/W per
//! round nor a function of the window — which is exactly why it belongs
//! in the model-domain atlas.
//!
//! On the shared window core ([`super::CcState`]) CUBIC supplies its
//! congestion-avoidance step, its `β` reduction and the `W_max`/`K`/epoch
//! state those reset; slow start, inflation, recovery and the timeout
//! collapse are the core's.

use super::{CUBIC_BETA, CUBIC_FAST_CONVERGENCE, MIN_SSTHRESH};
use crate::time::SimTime;
use pftk_snap::{SnapReader, SnapResult, SnapWriter};

/// Time, in seconds, for the cubic to return from `start` to the plateau
/// `w_max`: the real root of `C·(t − K)³ + W_max = start`.
///
/// `start` may *exceed* `w_max` (dupack inflation, or a shallow loss with
/// fast convergence shrinking the plateau below the surviving window);
/// the offset under the cube root is then negative and `K < 0`, placing
/// the epoch origin in the past so the window immediately convex-probes.
/// `f64::cbrt` is total over all of ℝ, so no clamping is needed — the
/// audit's numeric-domain pass proves this, including the `K = 0` edge
/// where `start == w_max`.
//= pftk#cwnd-td-halve
pub fn cubic_k(w_max: f64, start: f64) -> f64 {
    // (w_max − start) / C with C = 0.4, i.e. ×2.5, inlined for the
    // numeric-domain analysis (module consts are opaque to it).
    ((w_max - start) * 2.5).cbrt()
}

/// The cubic window `W(t) = C·(t − K)³ + W_max`, packets, at `t` seconds
/// since the epoch start (RFC 8312 §4.1, `C = 0.4`).
///
/// Total for every finite input: the cube and the multiply stay finite
/// for the bounded `t`, `k`, `w_max` the controllers produce, and the
/// function is monotone increasing in `t`, crossing `w_max` at `t = k`
/// (including the `k = 0` edge, where growth is convex from the start).
//= pftk#cwnd-linear-growth
pub fn cubic_window(t: f64, k: f64, w_max: f64) -> f64 {
    let d = t - k;
    0.4 * (d * d * d) + w_max
}

/// The plateau `W_max` a loss at window `w` leaves behind, given the
/// previous plateau `w_max`. Fast convergence (RFC 8312 §4.6): a plateau
/// lower than the previous one means capacity shrank, so release it
/// faster by keeping only `(2 − β)/2` of it. Both granularities call this.
#[inline]
pub(super) fn cubic_plateau(w: f64, w_max: f64) -> f64 {
    if w < w_max {
        w * CUBIC_FAST_CONVERGENCE
    } else {
        w
    }
}

/// CUBIC's state on top of the shared window core: the last loss plateau
/// `w_max`, the recovery origin `k`, and the wall-clock epoch start. The
/// [`SimTime`] of each ACK is what makes the growth law time-based.
#[derive(Debug, Clone)]
pub(super) struct Cubic {
    w_max: f64,
    k: f64,
    epoch_start: Option<SimTime>,
}

impl Cubic {
    /// A first epoch with the plateau at the initial window.
    pub(super) fn new(initial_cwnd: f64) -> Self {
        Cubic {
            w_max: initial_cwnd,
            k: 0.0,
            epoch_start: None,
        }
    }

    /// Congestion-avoidance growth of `cwnd` for one ACK at `now`: close
    /// the gap to the cubic within roughly one RTT (RFC 8312 §4.1's
    /// per-ACK increment), or slow max-probing at or beyond it.
    #[inline]
    pub(super) fn increment(&mut self, cwnd: f64, now: SimTime) -> f64 {
        let start = *self.epoch_start.get_or_insert(now);
        let t = now.saturating_since(start).as_secs_f64();
        let target = cubic_window(t, self.k, self.w_max);
        if target > cwnd {
            (target - cwnd) / cwnd
        } else {
            0.01 / cwnd
        }
    }

    /// Enters a fresh reduction epoch from window `w` and returns the new
    /// `ssthresh`, with the plateau chosen by [`cubic_plateau`].
    #[inline]
    pub(super) fn reduce(&mut self, w: f64) -> f64 {
        self.w_max = cubic_plateau(w, self.w_max);
        let ssthresh = (w * CUBIC_BETA).max(MIN_SSTHRESH);
        self.k = cubic_k(self.w_max, ssthresh);
        self.epoch_start = None;
        ssthresh
    }

    /// Recovery exit: the next congestion-avoidance ACK starts the epoch.
    #[inline]
    pub(super) fn restart_epoch(&mut self) {
        self.epoch_start = None;
    }

    /// Writes `w_max`, `k` and the epoch start; the core writes them
    /// between `ssthresh` and the recovery flag.
    pub(super) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_f64(self.w_max);
        w.put_f64(self.k);
        match self.epoch_start {
            Some(t) => {
                w.put_bool(true);
                w.put_u64(t.as_nanos());
            }
            None => w.put_bool(false),
        }
    }

    /// Reads state written by [`Self::snapshot_into`].
    pub(super) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        self.w_max = r.get_f64()?;
        self.k = r.get_f64()?;
        self.epoch_start = if r.get_bool()? {
            Some(SimTime::from_nanos(r.get_u64()?))
        } else {
            None
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{CcAlgorithm, CcState, CongestionController, Law};

    fn at(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn k_zero_edge_window_equals_plateau() {
        // start == w_max → K = 0 and W(0) = W_max exactly.
        let k = cubic_k(40.0, 40.0);
        assert_eq!(k, 0.0);
        assert_eq!(cubic_window(0.0, k, 40.0), 40.0);
    }

    #[test]
    fn negative_offset_gives_negative_k() {
        // Post-reduction start above the plateau: K < 0, window probes
        // beyond W_max from t = 0.
        let k = cubic_k(4.0, 6.8);
        assert!(k < 0.0, "K = {k}");
        assert!(cubic_window(0.0, k, 4.0) > 4.0);
    }

    #[test]
    fn window_recrosses_plateau_at_k() {
        let w_max = 50.0;
        let start = w_max * CUBIC_BETA;
        let k = cubic_k(w_max, start);
        assert!((cubic_window(k, k, w_max) - w_max).abs() < 1e-9);
        assert!((cubic_window(0.0, k, w_max) - start).abs() < 1e-9);
        // Concave below K, convex beyond it — monotone throughout.
        assert!(cubic_window(k / 2.0, k, w_max) > start);
        assert!(cubic_window(k * 1.5, k, w_max) > w_max);
    }

    /// A CUBIC controller and a view of its epoch state.
    fn cubic_cc(initial_cwnd: f64) -> CcState {
        CcState::new(CcAlgorithm::Cubic, initial_cwnd)
    }

    fn epoch(cc: &CcState) -> &Cubic {
        match &cc.law {
            Law::Cubic(c) => c,
            _ => unreachable!("not a CUBIC controller"),
        }
    }

    #[test]
    fn slow_start_then_cubic_growth() {
        let mut cc = cubic_cc(1.0);
        assert!(cc.in_slow_start());
        for _ in 0..9 {
            cc.on_new_ack(at(0.0));
        }
        assert_eq!(cc.window(), 10);
        cc.on_fast_retransmit(at(1.0), 10);
        assert!(cc.in_fast_recovery());
        assert_eq!(cc.ssthresh(), 7.0);
        cc.on_new_ack(at(1.1)); // deflate, exit recovery
        assert!(!cc.in_fast_recovery());
        assert_eq!(cc.cwnd(), 7.0);
        // Time-driven growth: the same number of ACKs spread over more
        // time grows the window further.
        let mut near = cc.clone();
        let mut far = cc.clone();
        for i in 0..50 {
            let dt = f64::from(i);
            near.on_new_ack(at(1.2 + 0.01 * dt));
            far.on_new_ack(at(1.2 + 1.0 * dt));
        }
        assert!(
            far.cwnd() > near.cwnd(),
            "time-based growth: {} vs {}",
            far.cwnd(),
            near.cwnd()
        );
        assert!(
            far.cwnd() > epoch(&cc).w_max,
            "convex probe beyond the plateau"
        );
    }

    #[test]
    fn fast_convergence_shrinks_plateau_on_back_to_back_losses() {
        let mut cc = cubic_cc(20.0);
        cc.on_fast_retransmit(at(1.0), 20); // w_max = 20
        assert_eq!(epoch(&cc).w_max, 20.0);
        cc.on_new_ack(at(1.1));
        // Second loss from a smaller window: plateau shrinks below it.
        let w = cc.cwnd();
        cc.on_fast_retransmit(at(1.2), 14);
        let w_max = epoch(&cc).w_max;
        assert!(w_max < w, "fast convergence: {w_max} < {w}");
    }

    #[test]
    fn timeout_collapses_to_one() {
        let mut cc = cubic_cc(16.0);
        cc.on_timeout(16);
        assert_eq!(cc.window(), 1);
        assert!(cc.in_slow_start());
        assert_eq!(cc.ssthresh(), 16.0 * CUBIC_BETA);
    }

    #[test]
    fn snapshot_round_trips_mid_epoch() {
        let mut cc = cubic_cc(1.0);
        for _ in 0..14 {
            cc.on_new_ack(at(0.5));
        }
        cc.on_fast_retransmit(at(2.0), 15);
        cc.on_new_ack(at(2.1));
        cc.on_new_ack(at(2.3)); // CA: epoch pinned at 2.3
        let mut w = SnapWriter::new();
        cc.snapshot_into(&mut w);
        let bytes = w.into_bytes();
        let mut restored = cubic_cc(1.0);
        let mut r = SnapReader::new(&bytes);
        restored.restore_from(&mut r).expect("restore");
        r.finish().expect("fully consumed");
        // Continued evolution must be bit-identical.
        cc.on_new_ack(at(2.9));
        restored.on_new_ack(at(2.9));
        assert_eq!(cc.cwnd().to_bits(), restored.cwnd().to_bits());
        assert_eq!(epoch(&cc).k.to_bits(), epoch(&restored).k.to_bits());
        assert_eq!(epoch(&cc).epoch_start, epoch(&restored).epoch_start);
    }
}
