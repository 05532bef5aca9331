//! Pluggable congestion control: the [`CongestionController`] trait and
//! [`CcState`], the one window core every packet-level law runs on.
//!
//! The paper models **Reno**; this module generalizes the sender's
//! congestion state so the same engine — packet-level sender, §II rounds
//! model, and fleet arena — can run the variants that replaced Reno
//! (NewReno window deflation, CUBIC's cube-root growth, Relentless's
//! loss-proportional decrease, Scalable's MIMD) and map where the PFTK
//! prediction stops holding.
//!
//! Every packet-level law shares the §II mechanics: slow start, dupack
//! inflation, recovery entry and exit, and the timeout collapse to one.
//! [`CcState`] writes them once over the three words `cwnd`, `ssthresh`
//! and `in_fast_recovery`. A law supplies only what differs from Reno:
//! its congestion-avoidance increment, its reduced `ssthresh` after a
//! loss, its partial-ACK reaction, and (CUBIC) its epoch state. The law
//! is a private enum matched inside each `#[inline]` hook — the
//! [`crate::loss::LossKind`] idiom — so the per-packet path pays a
//! predictable branch instead of a `dyn` call and stays allocation-free.
//!
//! Per-OS quirks ([`Quirks`]) are plain configuration: the sender reads
//! its duplicate-ACK threshold from its own config, so protocol code
//! never branches on host identity.
//!
//! The round-granularity counterpart for the §II model and the fleet
//! arena is [`RoundCc`]: window laws only, no RNG draws, so every variant
//! consumes the same draw sequence as Reno and replay/shard equivalence
//! holds structurally.

mod cubic;
mod round;

pub use cubic::{cubic_k, cubic_window};
pub use round::RoundCc;

use crate::time::{SimDuration, SimTime};
use cubic::Cubic;
use pftk_snap::{SnapReader, SnapResult, SnapWriter};
use serde::{Deserialize, Serialize};

/// Floor for the slow-start threshold, packets (RFC 5681's `max(F/2, 2)`);
/// every law's decrease stops here, so the sender can always keep one
/// retransmission and one probe in flight.
const MIN_SSTHRESH: f64 = 2.0;

// The law constants, each stated once: the packet core (`Law`, `Cubic`)
// and the round law (`RoundCc`) both read them.

/// Per-ACK congestion-avoidance increment of Scalable TCP (Kelly's `a`).
const SCALABLE_GAIN: f64 = 0.01;

/// Share of the window Scalable TCP keeps on a loss (1 − Kelly's `b`).
const SCALABLE_KEEP: f64 = 0.875;

/// CUBIC's multiplicative-decrease factor β (RFC 8312 §4.5).
const CUBIC_BETA: f64 = 0.7;

/// CUBIC's fast-convergence factor `(2 − β)/2` (RFC 8312 §4.6): the share
/// of a shrinking plateau it remembers.
const CUBIC_FAST_CONVERGENCE: f64 = (2.0 - CUBIC_BETA) / 2.0;

/// The sender-side congestion-control contract: window accessors plus the
/// ACK/loss/timeout/RTT event hooks the sender state machine drives.
///
/// Implementations are pure window arithmetic — they never touch the
/// clock, the RNG, or the network. Loss *detection* (dupack counting,
/// SACK scoreboards, RTO timers, the RFC 6582 `recover` mark) stays in
/// the sender; implementations only decide how the window reacts.
pub trait CongestionController {
    /// Raw floating-point congestion window, packets.
    fn cwnd(&self) -> f64;
    /// Current slow-start threshold, packets (`∞` before any loss).
    fn ssthresh(&self) -> f64;
    /// Integer usable window in packets (≥ 1).
    fn window(&self) -> u64;
    /// True between a recovery entry and its exit.
    fn in_fast_recovery(&self) -> bool;
    /// True while the window grows exponentially.
    fn in_slow_start(&self) -> bool;
    /// An ACK advancing `snd_una` arrived at `now`.
    fn on_new_ack(&mut self, now: SimTime);
    /// A partial ACK arrived during RFC 6582 / SACK recovery: `snd_una`
    /// advanced by `newly_acked` packets but recovery stays open.
    fn on_partial_ack(&mut self, newly_acked: u64);
    /// A further duplicate ACK arrived during fast recovery (a packet has
    /// left the network).
    fn on_dupack_in_recovery(&mut self);
    /// The `dupthresh`-th duplicate ACK arrived at `now`: reduce and enter
    /// fast recovery. `flight` is the outstanding data, packets.
    fn on_fast_retransmit(&mut self, now: SimTime, flight: u64);
    /// SACK-style recovery entry: reduce without dupack inflation (the
    /// pipe algorithm regulates transmissions instead).
    fn on_sack_retransmit(&mut self, now: SimTime, flight: u64);
    /// Retransmission timeout: collapse the window.
    fn on_timeout(&mut self, flight: u64);
    /// Recovery ended (the full ACK covering `recover` arrived).
    fn exit_recovery(&mut self);
    /// A Karn-valid RTT sample was taken. Default: ignored.
    fn on_rtt_sample(&mut self, rtt: SimDuration) {
        let _ = rtt;
    }
    /// Writes the controller's mutable state (floats via `to_bits`).
    fn snapshot_into(&self, w: &mut SnapWriter);
    /// Reads state written by [`Self::snapshot_into`].
    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()>;
}

/// Which congestion-control algorithm a sender (or rounds-model flow)
/// runs. [`crate::reno::sender::RenoStyle`] selects the *loss-recovery
/// mechanics* (Tahoe collapse, dupack or SACK bookkeeping); this selects
/// the *window laws*. NewReno is the one law the mechanics read: it turns
/// on the sender's RFC 6582 partial-ACK recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum CcAlgorithm {
    /// RFC 5681 AIMD — the paper's protocol and the library default.
    #[default]
    Reno,
    /// RFC 6582: Reno laws plus partial-ACK window deflation. The sender
    /// runs partial-ACK recovery for it: a partial ACK retransmits the next
    /// hole and recovery stays open until `snd_una` passes `recover`.
    NewReno,
    /// RFC 8312 CUBIC: cube-root window growth around the last loss
    /// plateau, β = 0.7 multiplicative decrease, fast convergence.
    Cubic,
    /// Relentless congestion control (Diana & Lochin): on a fast
    /// retransmit the window shrinks by the number of lost segments
    /// instead of halving; timeouts still collapse to one.
    Relentless,
    /// Scalable TCP (Kelly 2003): MIMD — `+0.01` per ACK in congestion
    /// avoidance, `×7/8` on loss.
    Scalable,
}

impl CcAlgorithm {
    /// Every algorithm, in stable order (CI matrices, the atlas sweep).
    pub const ALL: [CcAlgorithm; 5] = [
        CcAlgorithm::Reno,
        CcAlgorithm::NewReno,
        CcAlgorithm::Cubic,
        CcAlgorithm::Relentless,
        CcAlgorithm::Scalable,
    ];

    /// Stable lower-case name (file names, report columns).
    pub fn label(self) -> &'static str {
        match self {
            CcAlgorithm::Reno => "reno",
            CcAlgorithm::NewReno => "newreno",
            CcAlgorithm::Cubic => "cubic",
            CcAlgorithm::Relentless => "relentless",
            CcAlgorithm::Scalable => "scalable",
        }
    }

    /// Stable numeric code used as a snapshot shape tag.
    pub fn tag(self) -> u64 {
        match self {
            CcAlgorithm::Reno => 0,
            CcAlgorithm::NewReno => 1,
            CcAlgorithm::Cubic => 2,
            CcAlgorithm::Relentless => 3,
            CcAlgorithm::Scalable => 4,
        }
    }
}

/// The one window core: Reno's three words and the §II mechanics every
/// packet-level law shares, plus the law that supplies what differs.
//= pftk#variant-envelope type=impl
#[derive(Debug, Clone)]
pub struct CcState {
    cwnd: f64,
    ssthresh: f64,
    in_fast_recovery: bool,
    law: Law,
}

/// What a law changes on top of Reno's mechanics.
#[derive(Debug, Clone)]
enum Law {
    /// RFC 5681 AIMD, the paper's protocol: +1/W per ACK, `flight / 2`
    /// on every loss.
    Reno,
    /// RFC 6582: Reno plus partial-ACK deflation. Selecting it also turns
    /// on the sender's partial-ACK recovery.
    NewReno,
    /// CUBIC (RFC 8312): the cubic step and its epoch state.
    Cubic(Cubic),
    /// Relentless (Diana & Lochin, "An Analytical Model of TCP Relentless
    /// Congestion Control"): a fast retransmit costs one segment per lost
    /// segment instead of `W/2` — `W − 1` at entry and one more per
    /// partial ACK, each of which marks another repaired hole. Timeouts
    /// stay Reno's, which keeps the PFTK timeout term comparable while the
    /// TD term's `√(3/2bp)` dependence disappears.
    Relentless,
    /// Scalable TCP (Kelly, CCR 2003): MIMD — `+0.01` per ACK in
    /// congestion avoidance (`+a·W` per round) and `×7/8` on a loss, as in
    /// Linux `tcp_scalable`. Its equilibrium window is `Θ(1/p)` where
    /// Reno's is `Θ(1/√p)`, so its atlas frontier is the widest.
    Scalable,
}

impl Law {
    /// Congestion-avoidance growth of `cwnd` for one ACK at `now`.
    #[inline]
    fn ca_increment(&mut self, cwnd: f64, now: SimTime) -> f64 {
        match self {
            Law::Reno | Law::NewReno | Law::Relentless => 1.0 / cwnd,
            Law::Cubic(c) => c.increment(cwnd, now),
            Law::Scalable => SCALABLE_GAIN,
        }
    }

    /// The reduced slow-start threshold after a loss seen at window `cwnd`
    /// with `flight` packets outstanding; `timeout` marks an RTO (or a
    /// Tahoe TD) as against a fast or SACK retransmit.
    #[inline]
    fn reduced_ssthresh(&mut self, cwnd: f64, flight: u64, timeout: bool) -> f64 {
        let flight = flight as f64; //~ allow(cast): integer count to f64, exact below 2^53
        let target = match self {
            Law::Cubic(c) => return c.reduce(cwnd),
            Law::Relentless if !timeout => cwnd - 1.0,
            Law::Scalable if timeout => flight * SCALABLE_KEEP,
            Law::Scalable => cwnd * SCALABLE_KEEP,
            Law::Reno | Law::NewReno | Law::Relentless => flight / 2.0,
        };
        target.max(MIN_SSTHRESH)
    }
}

impl CcState {
    /// Builds the selected algorithm's controller in slow start with the
    /// given initial window (packets) and an effectively unlimited
    /// threshold.
    pub fn new(algo: CcAlgorithm, initial_cwnd: f64) -> CcState {
        assert!(
            initial_cwnd >= 1.0,
            "initial cwnd must be at least one segment"
        );
        let law = match algo {
            CcAlgorithm::Reno => Law::Reno,
            CcAlgorithm::NewReno => Law::NewReno,
            CcAlgorithm::Cubic => Law::Cubic(Cubic::new(initial_cwnd)),
            CcAlgorithm::Relentless => Law::Relentless,
            CcAlgorithm::Scalable => Law::Scalable,
        };
        CcState {
            cwnd: initial_cwnd,
            ssthresh: f64::INFINITY,
            in_fast_recovery: false,
            law,
        }
    }

    /// Which algorithm this state belongs to.
    pub fn algorithm(&self) -> CcAlgorithm {
        match self.law {
            Law::Reno => CcAlgorithm::Reno,
            Law::NewReno => CcAlgorithm::NewReno,
            Law::Cubic(_) => CcAlgorithm::Cubic,
            Law::Relentless => CcAlgorithm::Relentless,
            Law::Scalable => CcAlgorithm::Scalable,
        }
    }

    /// Recovery entry: reduce `ssthresh` by the law, then set the window
    /// to it plus `inflation` (3 for the duplicates behind a fast
    /// retransmit, RFC 5681 §3.2; 0 under SACK, whose pipe algorithm
    /// regulates transmissions instead).
    //= pftk#cwnd-td-halve
    #[inline]
    fn enter_recovery(&mut self, flight: u64, inflation: f64) {
        self.ssthresh = self.law.reduced_ssthresh(self.cwnd, flight, false);
        self.cwnd = self.ssthresh + inflation;
        self.in_fast_recovery = true;
    }
}

impl CongestionController for CcState {
    #[inline]
    fn cwnd(&self) -> f64 {
        self.cwnd
    }
    #[inline]
    fn ssthresh(&self) -> f64 {
        self.ssthresh
    }
    #[inline]
    fn window(&self) -> u64 {
        // The truncating cast equals `cwnd.floor() as u64` for every f64 —
        // floor and truncation differ only below zero, where the cast
        // saturates both to 0 — without `floor`'s libm call on baseline
        // x86-64, once per segment the sender fills.
        (self.cwnd as u64).max(1) //~ allow(cast): saturating float truncation, floored at one packet
    }
    #[inline]
    fn in_fast_recovery(&self) -> bool {
        self.in_fast_recovery
    }
    #[inline]
    fn in_slow_start(&self) -> bool {
        !self.in_fast_recovery && self.cwnd < self.ssthresh
    }

    /// Leaves fast recovery (Reno deflates to `ssthresh` on the first new
    /// ACK), or grows the window: +1 per ACK in slow start, the law's
    /// increment (Reno's +1/W) in congestion avoidance.
    //= pftk#cwnd-linear-growth
    #[inline]
    fn on_new_ack(&mut self, now: SimTime) {
        if self.in_fast_recovery {
            self.exit_recovery();
        } else if self.cwnd < self.ssthresh {
            self.cwnd += 1.0;
        } else {
            self.cwnd += self.law.ca_increment(self.cwnd, now);
        }
    }

    /// NewReno deflates by the amount acknowledged and adds back one
    /// segment for the retransmitted hole (RFC 6582 §3.2 step 5);
    /// Relentless takes one more segment off the exit window; the other
    /// laws ignore partial ACKs.
    #[inline]
    fn on_partial_ack(&mut self, newly_acked: u64) {
        debug_assert!(self.in_fast_recovery);
        match self.law {
            Law::NewReno => {
                let acked = newly_acked as f64; //~ allow(cast): integer count to f64, exact below 2^53
                self.cwnd = (self.cwnd - acked + 1.0).max(1.0);
            }
            Law::Relentless => self.ssthresh = (self.ssthresh - 1.0).max(MIN_SSTHRESH),
            Law::Reno | Law::Cubic(_) | Law::Scalable => {}
        }
    }

    #[inline]
    fn on_dupack_in_recovery(&mut self) {
        debug_assert!(self.in_fast_recovery);
        self.cwnd += 1.0;
    }

    #[inline]
    fn on_fast_retransmit(&mut self, _now: SimTime, flight: u64) {
        self.enter_recovery(flight, 3.0);
    }

    #[inline]
    fn on_sack_retransmit(&mut self, _now: SimTime, flight: u64) {
        self.enter_recovery(flight, 0.0);
    }

    /// Collapse to one segment and re-enter slow start ("following a
    /// time-out, the congestion window is reduced to one", §II-B). Also
    /// the Tahoe reaction to a triple duplicate.
    //= pftk#cwnd-to-collapse
    #[inline]
    fn on_timeout(&mut self, flight: u64) {
        self.ssthresh = self.law.reduced_ssthresh(self.cwnd, flight, true);
        self.cwnd = 1.0;
        self.in_fast_recovery = false;
    }

    #[inline]
    fn exit_recovery(&mut self) {
        self.cwnd = self.ssthresh;
        self.in_fast_recovery = false;
        if let Law::Cubic(c) = &mut self.law {
            c.restart_epoch();
        }
    }

    fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_f64(self.cwnd);
        w.put_f64(self.ssthresh);
        if let Law::Cubic(c) = &self.law {
            c.snapshot_into(w);
        }
        w.put_bool(self.in_fast_recovery);
    }

    fn restore_from(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        self.cwnd = r.get_f64()?;
        self.ssthresh = r.get_f64()?;
        if let Law::Cubic(c) = &mut self.law {
            c.restore_from(r)?;
        }
        self.in_fast_recovery = r.get_bool()?;
        Ok(())
    }
}

/// The per-OS TCP quirk knobs the paper's §III/§IV measurements correct
/// for, gathered in one place so protocol code reads *quirks*, never host
/// identity. They are configuration: a host's sender takes `dupthresh`
/// as [`crate::reno::sender::SenderConfig::dupthresh`] and the backoff cap
/// as [`crate::reno::rto::RtoConfig::backoff_cap_exp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quirks {
    /// Duplicate ACKs required for fast retransmit (Linux 2.0: 2; RFC: 3).
    pub dupthresh: u32,
    /// Exponential-backoff cap exponent (Irix: 5; the paper's 64·T0: 6).
    pub backoff_cap_exp: u32,
}

impl Default for Quirks {
    fn default() -> Self {
        Quirks {
            dupthresh: 3,
            backoff_cap_exp: 6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: SimTime = SimTime::ZERO;

    fn reno(initial_cwnd: f64) -> CcState {
        CcState::new(CcAlgorithm::Reno, initial_cwnd)
    }

    /// A controller of `algo` grown by `acks` slow-start ACKs from one
    /// segment.
    fn grown(algo: CcAlgorithm, acks: u32) -> CcState {
        let mut cc = CcState::new(algo, 1.0);
        for _ in 0..acks {
            cc.on_new_ack(T);
        }
        cc
    }

    #[test]
    fn labels_are_distinct_and_state_reports_its_algorithm() {
        for (i, algo) in CcAlgorithm::ALL.into_iter().enumerate() {
            assert_eq!(CcState::new(algo, 1.0).algorithm(), algo);
            let earlier = &CcAlgorithm::ALL[..i];
            assert!(earlier.iter().all(|a| a.label() != algo.label()));
        }
    }

    #[test]
    fn fast_convergence_factor_is_the_rfc_value() {
        // (2 − 0.7)/2, computed in the const, has the bits of 0.65.
        assert_eq!(CUBIC_FAST_CONVERGENCE.to_bits(), 0.65f64.to_bits());
    }

    #[test]
    fn tags_are_distinct() {
        let tags: std::collections::BTreeSet<u64> =
            CcAlgorithm::ALL.iter().map(|a| a.tag()).collect();
        assert_eq!(tags.len(), CcAlgorithm::ALL.len());
    }

    #[test]
    fn starts_in_slow_start() {
        let cc = reno(1.0);
        assert!(cc.in_slow_start());
        assert_eq!(cc.window(), 1);
    }

    #[test]
    fn slow_start_doubles_per_window() {
        // Each ACK adds a full segment: after W ACKs the window has doubled.
        assert_eq!(grown(CcAlgorithm::Reno, 1).window(), 2);
        assert_eq!(grown(CcAlgorithm::Reno, 3).window(), 4);
    }

    #[test]
    //= pftk#cwnd-linear-growth type=test
    fn congestion_avoidance_grows_one_per_window() {
        let mut cc = reno(10.0);
        // Force CA by setting a low threshold via a timeout + regrowth.
        cc.on_timeout(10); // ssthresh = 5, cwnd = 1
        for _ in 0..4 {
            cc.on_new_ack(T); // slow start to 5
        }
        assert!(!cc.in_slow_start());
        let w0 = cc.cwnd();
        // W ACKs in CA should add ~1 segment total.
        for _ in 0..cc.window() {
            cc.on_new_ack(T);
        }
        let grown = cc.cwnd() - w0;
        assert!((grown - 1.0).abs() < 0.2, "grew {grown} per window");
    }

    #[test]
    //= pftk#cwnd-td-halve type=test
    fn fast_retransmit_halves_and_inflates() {
        let mut cc = grown(CcAlgorithm::Reno, 19);
        assert_eq!(cc.window(), 20);
        cc.on_fast_retransmit(T, 20);
        assert!(cc.in_fast_recovery());
        assert_eq!(cc.ssthresh(), 10.0);
        assert_eq!(cc.window(), 13); // ssthresh + 3 dupacks
        cc.on_dupack_in_recovery();
        assert_eq!(cc.window(), 14);
        cc.on_new_ack(T); // deflate
        assert!(!cc.in_fast_recovery());
        assert_eq!(cc.window(), 10);
    }

    #[test]
    //= pftk#cwnd-to-collapse type=test
    fn timeout_collapses_to_one() {
        let mut cc = grown(CcAlgorithm::Reno, 15);
        cc.on_timeout(16);
        assert_eq!(cc.window(), 1);
        assert_eq!(cc.ssthresh(), 8.0);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn ssthresh_floor_is_two() {
        let mut cc = reno(1.0);
        cc.on_timeout(1);
        assert_eq!(cc.ssthresh(), 2.0);
        cc.on_fast_retransmit(T, 2);
        assert_eq!(cc.ssthresh(), 2.0);
    }

    #[test]
    fn window_never_below_one() {
        let mut cc = reno(1.0);
        cc.on_timeout(0);
        assert_eq!(cc.window(), 1);
    }

    #[test]
    fn sack_entry_halves_without_inflation() {
        let mut cc = grown(CcAlgorithm::Reno, 19);
        cc.on_sack_retransmit(T, 20);
        assert!(cc.in_fast_recovery());
        assert_eq!(cc.window(), 10, "no +3 inflation under SACK");
        cc.exit_recovery();
        assert!(!cc.in_fast_recovery());
        assert_eq!(cc.window(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_initial_cwnd_rejected() {
        let _ = reno(0.0);
    }

    #[test]
    fn newreno_matches_reno_outside_recovery() {
        let mut nr = grown(CcAlgorithm::NewReno, 25);
        let mut reno = grown(CcAlgorithm::Reno, 25);
        nr.on_timeout(26);
        reno.on_timeout(26);
        for _ in 0..40 {
            nr.on_new_ack(T);
            reno.on_new_ack(T);
        }
        assert_eq!(nr.cwnd().to_bits(), reno.cwnd().to_bits());
        assert_eq!(nr.ssthresh().to_bits(), reno.ssthresh().to_bits());
    }

    #[test]
    fn newreno_partial_ack_deflates_and_readds_one() {
        let mut nr = grown(CcAlgorithm::NewReno, 19);
        nr.on_fast_retransmit(T, 20); // ssthresh 10, cwnd 13
        assert_eq!(nr.cwnd(), 13.0);
        nr.on_partial_ack(5); // 13 − 5 + 1
        assert_eq!(nr.cwnd(), 9.0);
        assert!(nr.in_fast_recovery(), "partial ACK keeps recovery open");
        nr.exit_recovery();
        assert_eq!(nr.cwnd(), 10.0);
        assert!(!nr.in_fast_recovery());
        // Reno ignores the same partial ACK.
        let mut reno = grown(CcAlgorithm::Reno, 19);
        reno.on_fast_retransmit(T, 20);
        reno.on_partial_ack(5);
        assert_eq!(reno.cwnd(), 13.0);
    }

    #[test]
    fn newreno_partial_ack_deflation_floors_at_one() {
        let mut nr = CcState::new(CcAlgorithm::NewReno, 4.0);
        nr.on_fast_retransmit(T, 4);
        nr.on_partial_ack(100);
        assert_eq!(nr.cwnd(), 1.0);
        assert_eq!(nr.window(), 1);
    }

    #[test]
    fn relentless_single_loss_costs_one_segment() {
        let mut cc = grown(CcAlgorithm::Relentless, 19);
        assert_eq!(cc.window(), 20);
        cc.on_fast_retransmit(T, 20);
        assert!(cc.in_fast_recovery());
        assert_eq!(cc.ssthresh(), 19.0, "W − 1, not W/2");
        cc.on_new_ack(T); // deflate
        assert_eq!(cc.cwnd(), 19.0);
    }

    #[test]
    fn relentless_each_repaired_hole_costs_another_segment() {
        let mut cc = CcState::new(CcAlgorithm::Relentless, 10.0);
        cc.on_fast_retransmit(T, 10); // ssthresh 9
        cc.on_partial_ack(3);
        cc.on_partial_ack(2);
        assert_eq!(cc.ssthresh(), 7.0, "3 losses → W − 3");
        cc.exit_recovery();
        assert_eq!(cc.cwnd(), 7.0);
    }

    #[test]
    fn relentless_timeout_still_halves_the_flight() {
        let mut cc = grown(CcAlgorithm::Relentless, 15);
        cc.on_timeout(16);
        assert_eq!(cc.window(), 1);
        assert_eq!(cc.ssthresh(), 8.0);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn relentless_decrease_floors_at_min_ssthresh() {
        let mut cc = CcState::new(CcAlgorithm::Relentless, 2.0);
        cc.on_fast_retransmit(T, 2);
        assert_eq!(cc.ssthresh(), 2.0);
        cc.on_partial_ack(1);
        assert_eq!(cc.ssthresh(), 2.0);
    }

    #[test]
    fn scalable_congestion_avoidance_adds_a_per_ack() {
        let mut cc = CcState::new(CcAlgorithm::Scalable, 1.0);
        cc.on_timeout(1); // arm a threshold so CA is reachable
        cc.ssthresh = 2.0;
        cc.on_new_ack(T); // slow start: 1 → 2
        assert_eq!(cc.cwnd(), 2.0);
        cc.on_new_ack(T); // CA: + 0.01
        assert_eq!(cc.cwnd(), 2.01);
    }

    #[test]
    fn scalable_loss_costs_one_eighth_not_half() {
        let mut cc = CcState::new(CcAlgorithm::Scalable, 16.0);
        cc.on_fast_retransmit(T, 16);
        assert!(cc.in_fast_recovery());
        assert_eq!(cc.ssthresh(), 14.0, "16 · 7/8, not 8");
        cc.on_new_ack(T); // deflate
        assert_eq!(cc.cwnd(), 14.0);
        assert!(!cc.in_fast_recovery());
    }

    #[test]
    fn scalable_timeout_collapses_to_one() {
        let mut cc = CcState::new(CcAlgorithm::Scalable, 16.0);
        cc.on_timeout(16);
        assert_eq!(cc.window(), 1);
        assert_eq!(cc.ssthresh(), 14.0);
        assert!(cc.in_slow_start());
    }

    #[test]
    fn scalable_decrease_floors_at_min_ssthresh() {
        let mut cc = CcState::new(CcAlgorithm::Scalable, 2.0);
        cc.on_fast_retransmit(T, 2);
        assert_eq!(cc.ssthresh(), 2.0);
    }

    #[test]
    fn quirk_defaults_are_rfc_5681_and_the_papers_cap() {
        assert_eq!(Quirks::default().dupthresh, 3);
        assert_eq!(Quirks::default().backoff_cap_exp, 6);
    }

    #[test]
    fn snapshot_round_trips_every_variant() {
        for algo in CcAlgorithm::ALL {
            let t = SimTime::from_secs_f64(1.0);
            let mut cc = CcState::new(algo, 1.0);
            for _ in 0..10 {
                cc.on_new_ack(t);
            }
            cc.on_fast_retransmit(t, 11);
            cc.on_dupack_in_recovery();
            let mut w = SnapWriter::with_capacity(64);
            cc.snapshot_into(&mut w);
            let bytes = w.into_bytes();
            let mut restored = CcState::new(algo, 1.0);
            let mut r = SnapReader::new(&bytes);
            restored.restore_from(&mut r).expect("restore");
            r.finish().expect("fully consumed");
            assert_eq!(cc.cwnd().to_bits(), restored.cwnd().to_bits(), "{algo:?}");
            assert_eq!(
                cc.ssthresh().to_bits(),
                restored.ssthresh().to_bits(),
                "{algo:?}"
            );
            assert_eq!(cc.window(), restored.window(), "{algo:?}");
        }
    }
}
