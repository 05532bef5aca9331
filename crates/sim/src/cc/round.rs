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
//! One flat `Copy` struct for every law: the fleet arena stores one
//! `RoundCc` per flow in a dense SoA column (40 bytes), and the warm loop
//! must stay allocation-free. The law constants are the packet core's
//! (`SCALABLE_GAIN`, `SCALABLE_KEEP`, `CUBIC_BETA` and CUBIC's plateau
//! rule), so a law changes in one place at both granularities.
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
//! * **Reno** — the paper's §II laws verbatim.
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
//! * **Scalable** — Kelly's MIMD: the window grows by `SCALABLE_GAIN·W/b`
//!   per round (`SCALABLE_GAIN` per ACK) and keeps `SCALABLE_KEEP` of
//!   itself on a TD. Its equilibrium window is `Θ(1/p)` against the PFTK
//!   formula's `Θ(1/√p)`, so it undershoots the prediction across the
//!   whole mid-loss band — the widest frontier in the atlas.

use super::cubic::{cubic_k, cubic_plateau, cubic_window};
use super::{CcAlgorithm, CUBIC_BETA, SCALABLE_GAIN, SCALABLE_KEEP};

/// Per-flow round-level congestion state for one algorithm.
///
/// `ssthresh` uses the `u32` encoding of the rounds model: `0` means "no
/// threshold active" (pure congestion avoidance), matching the paper's
/// model which has no initial slow start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundCc {
    /// Fractional congestion window, packets.
    pub(crate) wf: f64,
    /// Slow-start threshold (0 = none).
    ssthresh: u32,
    /// Which window law runs.
    law: CcAlgorithm,
    /// CUBIC's last loss plateau `W_max`, packets (unused by the other
    /// laws).
    w_max: f64,
    /// CUBIC: seconds of congestion avoidance since the current epoch
    /// began.
    t: f64,
    /// CUBIC's recovery-origin offset `K`, seconds.
    k: f64,
}

impl RoundCc {
    /// Initial state for `algo` with the given (already `wmax`-clamped)
    /// initial window: no threshold active, i.e. congestion avoidance
    /// from the first round.
    pub fn new(algo: CcAlgorithm, initial_window: u32) -> RoundCc {
        let wf = f64::from(initial_window);
        RoundCc {
            wf,
            ssthresh: 0,
            law: algo,
            // CUBIC's first epoch: plateau at the initial window with
            // K = 0, so W(t) = C·t³ + W₀ probes convexly from the start.
            w_max: wf,
            t: 0.0,
            k: 0.0,
        }
    }

    /// Integer send window for the coming round, packets, in `[1, wmax]`.
    #[inline]
    pub fn window(&self, wmax: u32) -> u32 {
        // The truncating cast equals `wf.floor() as u32` for every f64 —
        // floor and truncation differ only below zero, where the cast
        // saturates both to 0 — without `floor`'s libm call on baseline
        // x86-64.
        (self.wf as u32).clamp(1, wmax) //~ allow(cast): saturating float truncation, clamped into [1, wmax]
    }

    /// Current slow-start threshold (0 = none) — exposed for parity tests.
    #[inline]
    pub fn ssthresh(&self) -> u32 {
        self.ssthresh
    }

    /// A full round completed without a loss indication: grow the window
    /// by slow start toward an active threshold, else by the law's
    /// congestion-avoidance step, capped at `wmax`. `rtt` (seconds)
    /// advances CUBIC's epoch clock; the other laws ignore it.
    //= pftk#cwnd-linear-growth
    #[inline]
    pub fn on_round_no_loss(&mut self, b: u32, wmax: u32, rtt: f64) {
        let b = f64::from(b);
        self.wf = if self.ssthresh != 0 && self.wf < f64::from(self.ssthresh) {
            // Post-timeout slow start is shared mechanics, not a law.
            (self.wf * (1.0 + 1.0 / b)).min(f64::from(self.ssthresh))
        } else {
            match self.law {
                CcAlgorithm::Reno | CcAlgorithm::NewReno | CcAlgorithm::Relentless => {
                    self.wf + 1.0 / b
                }
                // Kelly's MIMD: the per-ACK gain, W/b ACKs per round.
                CcAlgorithm::Scalable => self.wf * (1.0 + SCALABLE_GAIN / b),
                CcAlgorithm::Cubic => {
                    // One round of wall-clock time passes; take the
                    // cubic's value there. max() keeps the window
                    // monotone across the slow-start → CA hand-off when
                    // the cubic starts below it.
                    self.t += rtt;
                    self.wf.max(cubic_window(self.t, self.k, self.w_max))
                }
            }
        }
        .min(f64::from(wmax));
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
        let w = f64::from(peak);
        self.ssthresh = 0;
        match self.law {
            CcAlgorithm::Reno | CcAlgorithm::NewReno => self.wf = f64::from((peak / 2).max(1)),
            CcAlgorithm::Cubic => {
                self.w_max = cubic_plateau(w, self.w_max);
                self.wf = (w * CUBIC_BETA).max(1.0);
                self.k = cubic_k(self.w_max, self.wf);
                self.t = 0.0;
            }
            CcAlgorithm::Relentless => {
                // Decrease by the number of lost packets in the
                // mean-field form of the Relentless model: `p·W` expected
                // per-packet Bernoulli losses, at least one (the loss
                // that triggered the indication). The engine-supplied
                // doomed-tail count is Reno's recovery idealization, not
                // this variant's law (module docs).
                let lost = (w * p).max(1.0);
                self.wf = (w - lost).max(1.0);
            }
            // Kelly's b = 1/8 cut.
            CcAlgorithm::Scalable => self.wf = (w * SCALABLE_KEEP).max(1.0),
        }
        // NewReno repairs the doomed tail one retransmission per round
        // (module docs).
        if self.law == CcAlgorithm::NewReno {
            losses
        } else {
            0
        }
    }

    /// The TD period ended in a timeout at window `peak`: collapse to one
    /// and (optionally) arm slow start back toward `peak/2` — every
    /// variant keeps the paper's timeout behaviour. CUBIC also starts a
    /// new epoch at the `peak` plateau.
    //= pftk#cwnd-to-collapse
    #[inline]
    pub fn on_to(&mut self, peak: u32, slow_start_after_to: bool) {
        self.wf = 1.0;
        self.ssthresh = if slow_start_after_to {
            (peak / 2).max(2)
        } else {
            0
        };
        if self.law == CcAlgorithm::Cubic {
            self.w_max = f64::from(peak);
            self.k = cubic_k(self.w_max, f64::from(self.ssthresh.max(1)));
            self.t = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{CcState, CongestionController};
    use crate::time::SimTime;

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn flat_state_fits_the_arena_column() {
        // wf, w_max, t, k (4 × 8) + ssthresh (4) + law tag (1), padded.
        assert_eq!(std::mem::size_of::<RoundCc>(), 40);
    }

    /// The two granularities cut the window the same way on a triple
    /// duplicate: the round window after `on_td(W, ..)` is ⌊ssthresh⌋ of
    /// the packet core after a SACK entry with cwnd = flight = W. The
    /// peaks start where neither floor binds (2 packets on the packet
    /// side, 1 on the round side); Reno and NewReno halve, so they are
    /// checked at even peaks. Relentless is left out on purpose: its round
    /// law cuts the mean-field `p·W` expected losses, the packet core
    /// `cwnd − 1` at entry and one per repaired hole (DESIGN §16).
    #[test]
    fn td_cut_matches_the_packet_core() {
        for (law, first, step) in [
            (CcAlgorithm::Reno, 4, 2),
            (CcAlgorithm::NewReno, 4, 2),
            (CcAlgorithm::Cubic, 3, 1),
            (CcAlgorithm::Scalable, 3, 1),
        ] {
            for peak in (first..=1_024).step_by(step) {
                let mut round = RoundCc::new(law, peak);
                let _ = round.on_td(peak, 1, 0.01);
                let mut packet = CcState::new(law, f64::from(peak));
                packet.on_sack_retransmit(SimTime::ZERO, u64::from(peak));
                assert_eq!(
                    f64::from(round.window(u32::MAX)),
                    packet.ssthresh().floor(),
                    "{law:?} at peak {peak}"
                );
            }
        }
    }

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
