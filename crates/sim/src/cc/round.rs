//! Round-granularity congestion control for the §II rounds model and the
//! fleet arena.
//!
//! [`RoundCc`] is the variant counterpart of the packet-level
//! [`super::CcState`], abstracted to the paper's round granularity: it
//! owns only the *window laws* (per-round growth, triple-duplicate
//! reduction, timeout collapse) and **never draws randomness** — the
//! round law that both rounds engines call (`rounds::RoundLaw::step`)
//! keeps every RNG draw and the `k ≥ 3 ∧ m ≥ 3` TD/TO classification.
//! That split is what makes RNG draw order — and
//! therefore replay/shard equivalence — structurally identical across
//! variants: switching a cohort from Reno to CUBIC cannot move a single
//! draw.
//!
//! `Copy` on purpose: the fleet arena stores one `RoundCc` per flow in a
//! dense SoA column, and the warm loop must stay allocation-free.
//!
//! One carefully scoped exception to "the engine owns all draws": a
//! triple-duplicate hook may *request* recovery rounds
//! ([`RoundCc::on_td`]'s return value). The round law then charges them —
//! time, retransmissions, and the per-retransmission loss draws — in a
//! fixed order, so the draw sequence is still a pure function of the
//! variant, and the Reno sequence (zero recovery rounds) is untouched.
//!
//! Variant round laws, and where they come from:
//!
//! * **Reno** — the paper's §II laws verbatim; bit-identical to the
//!   pre-trait engine.
//! * **NewReno** — Reno's window laws plus Fall & Floyd's fast-recovery
//!   phase in the RFC 6582 §4 *Impatient* form: each packet of the doomed
//!   tail is repaired by one retransmission per round, during which no
//!   new data flows, under a retransmit timer armed at the first partial
//!   ACK and never reset — so recovery outliving T0, like a lost
//!   retransmission, degrades into a timeout. The §II model charges Reno
//!   zero rounds for loss recovery (an idealization the closed form
//!   inherits); NewReno is the variant that actually pays the recovery
//!   bill the model waves away, which is exactly what its atlas frontier
//!   maps: wherever the doomed tail outruns ⌊T0/RTT⌋, TDs the model
//!   prices at one window halving become timeout sequences.
//! * **Relentless** — Mathis's decrease-by-losses rule in the mean-field
//!   form Diana & Lochin's analytical model uses: the expected number of
//!   per-packet Bernoulli losses in the window, `p·W`. The §II
//!   doomed-tail loss count is a Reno-recovery modeling device (it makes
//!   every TD cost half a window); applying it to Relentless would
//!   collapse the variant back onto Reno and erase precisely the law the
//!   Relentless model predicts diverges.
//! * **CUBIC** — RFC 8312 cube growth in pure form (no TCP-friendly
//!   Reno-tracking region, which would mask the short-RTT divergence the
//!   atlas is after).
//! * **Scalable** — Kelly's MIMD: the window grows by `0.01·W/b` per
//!   round (0.01 per ACK) and keeps 7/8 on a TD. Its equilibrium window
//!   is `Θ(1/p)` against the PFTK formula's `Θ(1/√p)`, so it undershoots
//!   the prediction across the whole mid-loss band — the widest frontier
//!   in the atlas.

use super::cubic::{cubic_k, cubic_window};
use super::CcAlgorithm;

/// Per-flow round-level congestion state for one algorithm.
///
/// `ssthresh` uses the `u32` encoding of the rounds model: `0` means "no
/// threshold active" (pure congestion avoidance), matching the paper's
/// model which has no initial slow start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoundCc {
    /// Reno: +1/b per round, halve on TD.
    Reno {
        /// Fractional congestion window, packets.
        wf: f64,
        /// Slow-start threshold (0 = none).
        ssthresh: u32,
    },
    /// NewReno: Reno's laws plus Impatient-variant fast recovery (one
    /// repaired loss per round, charged by the engine under the
    /// retransmit timer).
    NewReno {
        /// Fractional congestion window, packets.
        wf: f64,
        /// Slow-start threshold (0 = none).
        ssthresh: u32,
    },
    /// CUBIC: time-based cube growth around the last plateau.
    Cubic {
        /// Fractional congestion window, packets.
        wf: f64,
        /// Slow-start threshold (0 = none).
        ssthresh: u32,
        /// Last loss plateau `W_max`, packets.
        w_max: f64,
        /// Seconds of congestion avoidance since the current epoch began.
        t: f64,
        /// Recovery-origin offset `K`, seconds.
        k: f64,
    },
    /// Relentless: decrease by the number of lost packets on TD.
    Relentless {
        /// Fractional congestion window, packets.
        wf: f64,
        /// Slow-start threshold (0 = none).
        ssthresh: u32,
    },
    /// Scalable: MIMD — `+0.01·W/b` per round, `×7/8` on TD.
    Scalable {
        /// Fractional congestion window, packets.
        wf: f64,
        /// Slow-start threshold (0 = none).
        ssthresh: u32,
    },
}

/// The shared Reno-shaped per-round growth law: slow start toward an
/// active threshold, else linear +1/b per round, capped at `wmax`. This
/// is character-for-character the arithmetic the Reno rounds model has
/// always used, so Reno behind [`RoundCc`] is bit-identical to the
/// pre-trait engine.
//= pftk#cwnd-linear-growth
#[inline]
fn reno_round_growth(wf: f64, ssthresh: u32, b: u32, wmax: u32) -> f64 {
    if ssthresh != 0 && wf < f64::from(ssthresh) {
        (wf * (1.0 + 1.0 / f64::from(b))).min(f64::from(ssthresh))
    } else {
        wf + 1.0 / f64::from(b)
    }
    .min(f64::from(wmax))
}

impl RoundCc {
    /// Initial state for `algo` with the given (already `wmax`-clamped)
    /// initial window. Matches the rounds model's historic start: no
    /// threshold active, i.e. congestion avoidance from the first round.
    pub fn new(algo: CcAlgorithm, initial_window: u32) -> RoundCc {
        let wf = f64::from(initial_window);
        match algo {
            CcAlgorithm::Reno => RoundCc::Reno { wf, ssthresh: 0 },
            CcAlgorithm::NewReno => RoundCc::NewReno { wf, ssthresh: 0 },
            CcAlgorithm::Cubic => RoundCc::Cubic {
                wf,
                ssthresh: 0,
                // First epoch: plateau at the initial window with K = 0,
                // so W(t) = C·t³ + W₀ probes convexly from the start.
                w_max: wf,
                t: 0.0,
                k: 0.0,
            },
            CcAlgorithm::Relentless => RoundCc::Relentless { wf, ssthresh: 0 },
            CcAlgorithm::Scalable => RoundCc::Scalable { wf, ssthresh: 0 },
        }
    }

    /// Integer send window for the coming round, packets, in `[1, wmax]`.
    #[inline]
    pub fn window(&self, wmax: u32) -> u32 {
        let wf = match *self {
            RoundCc::Reno { wf, .. }
            | RoundCc::NewReno { wf, .. }
            | RoundCc::Cubic { wf, .. }
            | RoundCc::Relentless { wf, .. }
            | RoundCc::Scalable { wf, .. } => wf,
        };
        // The truncating cast equals `wf.floor() as u32` for every f64 —
        // floor and truncation differ only below zero, where the cast
        // saturates both to 0 — without `floor`'s libm call on baseline
        // x86-64.
        (wf as u32).clamp(1, wmax) //~ allow(cast): saturating float truncation, clamped into [1, wmax]
    }

    /// Current slow-start threshold (0 = none) — exposed for parity tests.
    #[inline]
    pub fn ssthresh(&self) -> u32 {
        match *self {
            RoundCc::Reno { ssthresh, .. }
            | RoundCc::NewReno { ssthresh, .. }
            | RoundCc::Cubic { ssthresh, .. }
            | RoundCc::Relentless { ssthresh, .. }
            | RoundCc::Scalable { ssthresh, .. } => ssthresh,
        }
    }

    /// A full round completed without a loss indication: grow the window.
    /// `rtt` (seconds) advances CUBIC's epoch clock; the AIMD variants
    /// ignore it.
    #[inline]
    pub fn on_round_no_loss(&mut self, b: u32, wmax: u32, rtt: f64) {
        match self {
            RoundCc::Reno { wf, ssthresh }
            | RoundCc::NewReno { wf, ssthresh }
            | RoundCc::Relentless { wf, ssthresh } => {
                *wf = reno_round_growth(*wf, *ssthresh, b, wmax);
            }
            RoundCc::Scalable { wf, ssthresh } => {
                if *ssthresh != 0 && *wf < f64::from(*ssthresh) {
                    // Post-timeout slow start is shared mechanics.
                    *wf = reno_round_growth(*wf, *ssthresh, b, wmax);
                } else {
                    // Kelly's MIMD: 0.01 per ACK, W/b ACKs per round.
                    *wf = (*wf * (1.0 + 0.01 / f64::from(b))).min(f64::from(wmax));
                }
            }
            RoundCc::Cubic {
                wf,
                ssthresh,
                w_max,
                t,
                k,
            } => {
                if *ssthresh != 0 && *wf < f64::from(*ssthresh) {
                    // Post-timeout slow start is shared mechanics, not a
                    // CUBIC law: grow like Reno until the threshold.
                    *wf = reno_round_growth(*wf, *ssthresh, b, wmax);
                } else {
                    // Congestion avoidance: one round of wall-clock time
                    // passes, take the cubic's value there. max() keeps
                    // the window monotone across the slow-start → CA
                    // hand-off when the cubic starts below it.
                    *t += rtt;
                    *wf = wf.max(cubic_window(*t, *k, *w_max)).min(f64::from(wmax));
                }
            }
        }
    }

    /// The TD period ended in a triple-duplicate indication at window
    /// `peak` with `losses` packets lost in the final two rounds (the
    /// engine computes `losses` from draws it already made) under
    /// per-packet loss probability `p`.
    ///
    /// Returns the number of **recovery rounds** the engine must charge
    /// before new data flows again: zero for every variant except
    /// NewReno, whose fast recovery (Fall & Floyd) repairs one lost
    /// packet per round. The engine charges each round one RTT and one
    /// retransmission, and draws its fate — a lost retransmission, or
    /// the Impatient variant's never-reset retransmit timer firing after
    /// ⌊T0/RTT⌋ rounds, aborts recovery into a timeout sequence.
    //= pftk#cwnd-td-halve
    #[inline]
    #[must_use = "the engine must charge the returned recovery rounds"]
    pub fn on_td(&mut self, peak: u32, losses: u32, p: f64) -> u32 {
        match self {
            RoundCc::Reno { wf, ssthresh } => {
                *wf = f64::from((peak / 2).max(1));
                *ssthresh = 0;
                0
            }
            RoundCc::NewReno { wf, ssthresh } => {
                // Same halving as Reno, but the doomed tail is repaired
                // one retransmission per round (module docs).
                *wf = f64::from((peak / 2).max(1));
                *ssthresh = 0;
                losses
            }
            RoundCc::Cubic {
                wf,
                ssthresh,
                w_max,
                t,
                k,
            } => {
                let w = f64::from(peak);
                // Fast convergence: a plateau below the previous one
                // means capacity shrank — release it faster ((2−β)/2
                // with β = 0.7, inlined for the numeric-domain pass).
                *w_max = if w < *w_max { w * 0.65 } else { w };
                let new_wf = (w * 0.7).max(1.0);
                *k = cubic_k(*w_max, new_wf);
                *t = 0.0;
                *wf = new_wf;
                *ssthresh = 0;
                0
            }
            RoundCc::Relentless { wf, ssthresh } => {
                // Decrease by the number of lost packets in the
                // mean-field form of the Relentless model: `p·W` expected
                // per-packet Bernoulli losses, at least one (the loss
                // that triggered the indication). The engine-supplied
                // doomed-tail count is Reno's recovery idealization, not
                // this variant's law (module docs).
                let _ = losses;
                let lost = (f64::from(peak) * p).max(1.0);
                *wf = (f64::from(peak) - lost).max(1.0);
                *ssthresh = 0;
                0
            }
            RoundCc::Scalable { wf, ssthresh } => {
                // Kelly's b = 1/8 cut: keep 7/8 of the window.
                *wf = (f64::from(peak) * 0.875).max(1.0);
                *ssthresh = 0;
                0
            }
        }
    }

    /// The TD period ended in a timeout at window `peak`: collapse to one
    /// and (optionally) arm slow start back toward `peak/2` — every
    /// variant keeps the paper's timeout behaviour.
    //= pftk#cwnd-to-collapse
    #[inline]
    pub fn on_to(&mut self, peak: u32, slow_start_after_to: bool) {
        let ss = if slow_start_after_to {
            (peak / 2).max(2)
        } else {
            0
        };
        match self {
            RoundCc::Reno { wf, ssthresh }
            | RoundCc::NewReno { wf, ssthresh }
            | RoundCc::Relentless { wf, ssthresh }
            | RoundCc::Scalable { wf, ssthresh } => {
                *wf = 1.0;
                *ssthresh = ss;
            }
            RoundCc::Cubic {
                wf,
                ssthresh,
                w_max,
                t,
                k,
            } => {
                *w_max = f64::from(peak);
                *k = cubic_k(*w_max, f64::from(ss.max(1)));
                *t = 0.0;
                *wf = 1.0;
                *ssthresh = ss;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reno_matches_historic_laws() {
        let mut cc = RoundCc::new(CcAlgorithm::Reno, 4);
        assert_eq!(cc.window(64), 4);
        // Linear growth: +1/b per round.
        cc.on_round_no_loss(2, 64, 0.1);
        assert_eq!(cc.window(64), 4);
        cc.on_round_no_loss(2, 64, 0.1);
        assert_eq!(cc.window(64), 5);
        assert_eq!(
            cc.on_td(20, 3, 0.1),
            0,
            "Reno never requests recovery rounds"
        );
        assert_eq!(cc.window(64), 10);
        assert_eq!(cc.ssthresh(), 0);
        cc.on_to(20, true);
        assert_eq!(cc.window(64), 1);
        assert_eq!(cc.ssthresh(), 10);
        // Slow start toward the threshold (×1.5 per round with b = 2,
        // capped at ssthresh = 10), then linear +1/2 per round.
        for _ in 0..6 {
            cc.on_round_no_loss(2, 64, 0.1);
        }
        assert_eq!(cc.window(64), 10);
        for _ in 0..4 {
            cc.on_round_no_loss(2, 64, 0.1);
        }
        assert_eq!(cc.window(64), 12);
    }

    #[test]
    fn newreno_halves_like_reno_but_requests_recovery_rounds() {
        let mut cc = RoundCc::new(CcAlgorithm::NewReno, 20);
        // Growth is Reno's.
        cc.on_round_no_loss(2, 64, 0.1);
        assert_eq!(cc.window(64), 20);
        cc.on_round_no_loss(2, 64, 0.1);
        assert_eq!(cc.window(64), 21);
        // TD: same halving, but one recovery round per repaired loss.
        assert_eq!(cc.on_td(21, 7, 0.02), 7);
        assert_eq!(cc.window(64), 10);
        cc.on_to(10, true);
        assert_eq!(cc.window(64), 1);
        assert_eq!(cc.ssthresh(), 5);
    }

    #[test]
    fn relentless_td_costs_expected_packet_losses_not_half() {
        let mut cc = RoundCc::new(CcAlgorithm::Relentless, 1);
        for _ in 0..40 {
            cc.on_round_no_loss(1, 64, 0.1);
        }
        assert_eq!(cc.window(64), 41);
        // Mean-field decrease: p·W = 0.05·41 ≈ 2, floored at 1 lost
        // packet; the doomed-tail count (second argument) is ignored.
        assert_eq!(cc.on_td(41, 30, 0.05), 0);
        assert_eq!(cc.window(64), 38, "peak − ceil-ish p·peak");
        cc.on_to(38, true);
        assert_eq!(cc.window(64), 1);
        assert_eq!(cc.ssthresh(), 19);
    }

    #[test]
    fn relentless_td_floors_at_one() {
        let mut cc = RoundCc::new(CcAlgorithm::Relentless, 2);
        assert_eq!(cc.on_td(2, 50, 0.9), 0);
        assert_eq!(cc.window(64), 1);
    }

    #[test]
    fn scalable_grows_multiplicatively_and_cuts_one_eighth() {
        let mut cc = RoundCc::new(CcAlgorithm::Scalable, 16);
        // MIMD growth: ×(1 + 0.01/b) per round.
        cc.on_round_no_loss(2, 64, 0.1);
        assert_eq!(cc.window(64), 16); // 16·1.005 = 16.08
        for _ in 0..100 {
            cc.on_round_no_loss(2, 64, 0.1);
        }
        assert_eq!(cc.window(64), 26, "16·1.005^101 ≈ 26.5");
        // TD: keep 7/8, request no recovery rounds.
        assert_eq!(cc.on_td(26, 5, 0.1), 0);
        assert_eq!(cc.window(64), 22, "⌊26·0.875⌋");
        // Timeout collapse is the shared law.
        cc.on_to(22, true);
        assert_eq!(cc.window(64), 1);
        assert_eq!(cc.ssthresh(), 11);
    }

    #[test]
    fn cubic_outgrows_reno_on_long_no_loss_stretches() {
        let mut reno = RoundCc::new(CcAlgorithm::Reno, 1);
        let mut cubic = RoundCc::new(CcAlgorithm::Cubic, 1);
        // Same loss history: one TD at window 30, then a long quiet
        // stretch with RTT 0.2 s.
        assert_eq!(reno.on_td(30, 1, 0.01), 0);
        assert_eq!(cubic.on_td(30, 1, 0.01), 0);
        for _ in 0..60 {
            reno.on_round_no_loss(2, 1000, 0.2);
            cubic.on_round_no_loss(2, 1000, 0.2);
        }
        // Reno: 15 + 60/2 = 45. CUBIC recrosses W_max = 30 at K ≈ 2.8 s
        // (round 14) and then probes convexly, ending far above.
        assert_eq!(reno.window(1000), 45);
        assert!(
            cubic.window(1000) > reno.window(1000),
            "cubic {} vs reno {}",
            cubic.window(1000),
            reno.window(1000)
        );
    }

    #[test]
    fn cubic_window_is_monotone_and_capped() {
        let mut cc = RoundCc::new(CcAlgorithm::Cubic, 1);
        assert_eq!(cc.on_td(10, 1, 0.01), 0);
        let mut prev = cc.window(16);
        for _ in 0..200 {
            cc.on_round_no_loss(2, 16, 0.05);
            let w = cc.window(16);
            assert!(w >= prev, "monotone between losses");
            prev = w;
        }
        assert_eq!(prev, 16, "capped at wmax");
    }

    #[test]
    fn cubic_post_timeout_slow_starts_then_goes_cubic() {
        let mut cc = RoundCc::new(CcAlgorithm::Cubic, 1);
        cc.on_to(24, true); // ssthresh 12, wf 1
        assert_eq!(cc.window(64), 1);
        assert_eq!(cc.ssthresh(), 12);
        // b = 1 slow start: ×2 per round toward the threshold.
        cc.on_round_no_loss(1, 64, 0.1);
        assert_eq!(cc.window(64), 2);
        for _ in 0..10 {
            cc.on_round_no_loss(1, 64, 0.1);
        }
        // At the threshold the cubic takes over and keeps growing.
        assert!(cc.window(64) >= 12);
    }
}
