//! The rounds-based abstract simulator: the paper's §II model assumptions,
//! executed literally.
//!
//! Where the packet-level simulator ([`crate::connection`]) is a faithful
//! TCP Reno implementation, this simulator *is the model*, minus the final
//! i.i.d./independence approximations that produce the closed form:
//!
//! * time advances in rounds of exactly one RTT;
//! * in each round of window `w`, the first loss falls on packet `k` with
//!   probability `(1−p)^{k−1} p` (no loss with probability `(1−p)^w`), and
//!   dooms the rest of the round;
//! * a loss in the "penultimate" round of window `W` is followed by one
//!   "last" round of `k` packets (the ones that were ACKed), of which `m`
//!   survive with the paper's `C(k, m)` law — a triple-duplicate needs
//!   `k ≥ 3` and `m ≥ 3`, otherwise the indication is a timeout (Fig. 4);
//! * a timeout sequence has geometric length (each retransmission fails
//!   with probability `p`), duration `L_k` with doubling capped at
//!   `2^cap · T0`, and restarts congestion avoidance from window 1;
//! * a triple-duplicate halves the window; growth is 1 packet per `b`
//!   rounds, clamped at `W_m`.
//!
//! Because it shares the closed form's assumptions exactly, its long-run
//! send rate converges tightly to Eq. (32) — the crate's strongest
//! correctness check — and its sample paths regenerate Figs. 1, 3, 5 and 6.
//!
//! The law is written once, as a crate-private step that runs one
//! loss-free round or one whole loss event; the fleet arena
//! ([`crate::fleet`]) calls the same step for every flow event.

use crate::cc::{CcAlgorithm, RoundCc};
use crate::rng::SimRng;
use crate::stats::ConnStats;
use serde::{Deserialize, Serialize};

/// Parameters of the rounds-based simulation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RoundsConfig {
    /// First-loss probability `p` (the paper's loss measure).
    pub p: f64,
    /// Round duration = RTT, seconds.
    pub rtt: f64,
    /// Single-timeout duration `T0`, seconds.
    pub t0: f64,
    /// Delayed-ACK factor `b`: window grows 1 packet per `b` rounds.
    pub b: u32,
    /// Receiver-window clamp `W_m`, packets.
    pub wmax: u32,
    /// Backoff-doubling cap exponent (6 → the paper's `64·T0`); at most
    /// 30, so that `2^cap` stays a `u32` shift.
    pub backoff_cap_exp: u32,
    /// Window at the start of the very first TDP.
    pub initial_window: u32,
    /// Whether the window recovers via slow start after a timeout (real TCP
    /// behaviour, and what the paper's reuse of the §II-A TDP statistics for
    /// post-timeout periods implicitly credits). When false, post-timeout
    /// periods grow linearly from 1, which is strictly more pessimistic than
    /// the model.
    pub slow_start_after_to: bool,
    /// Congestion-control window laws the flow runs (default: Reno, the
    /// paper's protocol). Loss sampling and TD/TO classification are
    /// engine-side and identical for every variant — see
    /// [`crate::cc::RoundCc`].
    #[serde(default)]
    pub cc: CcAlgorithm,
}

impl Default for RoundsConfig {
    fn default() -> Self {
        RoundsConfig {
            p: 0.01,
            rtt: 0.1,
            t0: 1.0,
            b: 2,
            wmax: u32::from(u16::MAX),
            backoff_cap_exp: 6,
            initial_window: 1,
            slow_start_after_to: true,
            cc: CcAlgorithm::Reno,
        }
    }
}

/// How a TD period ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Indication {
    /// Triple-duplicate ACK: window halves.
    TripleDuplicate,
    /// Timeout (with the recorded number of consecutive timeouts).
    Timeout {
        /// Consecutive RTO firings in the ensuing timeout sequence.
        sequence_len: u32,
    },
}

/// One TD period, for Fig. 2-style inspection.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TdpRecord {
    /// Window of the period's first round.
    pub start_window: u32,
    /// The paper's `W_i`: window in the round where the loss fell.
    pub peak_window: u32,
    /// The paper's `X_i`: 1-indexed round where the first loss fell.
    pub loss_round: u32,
    /// The paper's `α_i`: packets sent up to and including the first loss.
    pub alpha: u64,
    /// The paper's `Y_i = α_i + W_i − 1`: total packets sent in the period.
    pub packets_sent: u64,
    /// Packets that actually reached the receiver in the period.
    pub packets_delivered: u64,
    /// How the period ended.
    pub indication: Indication,
}

/// A `(time, window)` point of the sample path (Figs. 1/3/5/6).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WindowSample {
    /// Wall-clock seconds since simulation start.
    pub time: f64,
    /// Congestion window during this round (0 marks a timeout gap).
    pub window: u32,
}

/// The §II round law with its parameters validated once and precomputed
/// into the forms the two engines' loops use.
///
/// [`RoundLaw::step`] is the only implementation of the law: `RoundsSim`
/// folds its outcomes into `ConnStats`, an `f64` clock and the sample and
/// TD-period records, and the fleet arena folds the same outcomes into its
/// SoA counters and an integer-nanosecond clock. A fleet flow seeded like
/// a `RoundsSim` therefore makes the same draws and reaches the same
/// counters.
///
/// The round-loss probability `1 − (1−p)^w` and `ln(1−p)` are fixed per
/// law, so they are tabulated here for windows up to [`LOSS_TABLE_MAX`]
/// with the very expressions [`RoundLaw::step`] would otherwise evaluate
/// per round; larger windows fall back to evaluating them. With its 2 KiB
/// table the law is not `Copy`: both engines borrow it.
#[derive(Debug, Clone)]
pub(crate) struct RoundLaw {
    p: f64,
    /// `ln(1 − p)`, the truncated-geometric inverse-CDF divisor.
    ln_q: f64,
    /// `1 − (1−p)^w` at index `w`, for `w ∈ 0..=LOSS_TABLE_MAX`. Inline,
    /// not boxed: a fleet block builds one law per cohort, and one small
    /// allocation per law among the arena lanes fragments the heap enough
    /// to double a multi-worker fleet run's peak RSS.
    round_loss: [f64; LOSS_TABLE_LEN],
    rtt: f64,
    t0: f64,
    /// RTT in integer nanoseconds, for the fleet's clock.
    pub(crate) rtt_ns: u64,
    t0_ns: u64,
    b: u32,
    wmax: u32,
    backoff_cap_exp: u32,
    slow_start_after_to: bool,
    /// Recovery rounds before the retransmit timer fires: the timer, armed
    /// at the first partial ACK and never reset (RFC 6582 §4, the
    /// Impatient variant), expires after `t0`, i.e. after ⌊T0/RTT⌋ one-RTT
    /// recovery rounds (at least one — an RTO is never shorter than the
    /// RTT).
    recovery_cap: u32,
}

/// What one [`RoundLaw::step`] did: either one loss-free round, or a whole
/// loss event — the loss round, the Fig. 4 last round, any recovery
/// rounds and, on a TO, the entire timeout sequence.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoundStep {
    /// Window of the round; the paper's `W_i` when the round lost a packet.
    pub(crate) window: u32,
    /// 1-indexed position of the first loss in the round, 0 if none.
    pub(crate) loss_pos: u32,
    /// Successes `m` of the last round's `k = loss_pos − 1` packets.
    pub(crate) last_delivered: u32,
    /// Whether the last round signalled a triple duplicate (`k ≥ 3 ∧ m ≥ 3`),
    /// even if its recovery later degraded into a timeout.
    pub(crate) td: bool,
    /// Recovery rounds charged, one retransmission each.
    pub(crate) recovery_rounds: u32,
    /// Recovery and timeout retransmissions that got through.
    pub(crate) retx_delivered: u32,
    /// Length of the timeout sequence that ended the event, 0 if none.
    pub(crate) to_len: u32,
}

impl RoundStep {
    /// Whether the step ran a loss event rather than a loss-free round.
    #[inline]
    pub(crate) fn is_loss(&self) -> bool {
        self.loss_pos != 0
    }

    /// New data sent: the round's window plus, after a loss, the last
    /// round's `k` packets. The round's post-loss tail counts as sent
    /// (§II-A counts packets "regardless of their eventual fate"), so a
    /// loss event sends the paper's `Y = α + W − 1` in total.
    #[inline]
    pub(crate) fn new_data(&self) -> u64 {
        u64::from(self.window) + u64::from(self.loss_pos.saturating_sub(1))
    }

    /// Retransmissions: one per recovery round and one per RTO.
    #[inline]
    pub(crate) fn retransmissions(&self) -> u64 {
        u64::from(self.recovery_rounds) + u64::from(self.to_len)
    }

    /// Distinct packets that reached the receiver in this step.
    #[inline]
    pub(crate) fn delivered(&self) -> u64 {
        if self.is_loss() {
            u64::from(self.loss_pos - 1)
                + u64::from(self.last_delivered)
                + u64::from(self.retx_delivered)
        } else {
            u64::from(self.window)
        }
    }
}

/// Largest window whose round-loss probability [`RoundLaw`] tabulates. A
/// table for the default `wmax` of 65 535 would take 512 KiB per cohort,
/// competing with the fleet's arena blocks for L2; 2 KiB covers the
/// windows of the model's loss-rate range, and larger windows evaluate
/// the expression.
const LOSS_TABLE_MAX: u32 = 256;

/// Entries of the round-loss table, windows 0 through [`LOSS_TABLE_MAX`].
const LOSS_TABLE_LEN: usize = LOSS_TABLE_MAX as usize + 1; //~ allow(cast): small constant widens losslessly

/// `x.ceil() as u32` without the `ceil` call (a libm call on baseline
/// x86-64): the truncating cast, plus one when it rounded down. Equal to
/// the `ceil`-then-cast for every `f64`, NaN and both infinities included —
/// both saturate at `u32::MAX` and send NaN and everything at or below
/// zero to 0.
#[inline]
fn ceil_to_u32(x: f64) -> u32 {
    let t = x as u32; //~ allow(cast): saturating truncation, corrected to the ceiling below
    t.saturating_add(u32::from(f64::from(t) < x))
}

impl RoundLaw {
    /// Validates `cfg` against the model's domain.
    ///
    /// # Panics
    /// If `p ∉ (0, 1)`, a time is not positive, `b`, `wmax` or
    /// `initial_window` is 0, or `backoff_cap_exp > 30`.
    pub(crate) fn new(cfg: &RoundsConfig) -> Self {
        assert!(cfg.p > 0.0 && cfg.p < 1.0, "p must be in (0,1)");
        assert!(cfg.rtt > 0.0 && cfg.t0 > 0.0, "times must be positive");
        assert!(cfg.b >= 1 && cfg.wmax >= 1 && cfg.initial_window >= 1);
        assert!(
            cfg.backoff_cap_exp <= 30,
            "backoff cap exponent must stay shiftable"
        );
        let q = 1.0 - cfg.p;
        let mut round_loss = [0.0; LOSS_TABLE_LEN];
        for (w, mass) in (0i32..).zip(round_loss.iter_mut()) {
            *mass = 1.0 - q.powi(w);
        }
        RoundLaw {
            p: cfg.p,
            ln_q: q.ln(),
            round_loss,
            rtt: cfg.rtt,
            t0: cfg.t0,
            rtt_ns: (cfg.rtt * 1e9).round() as u64, //~ allow(cast): deliberate float truncation after round/floor
            t0_ns: (cfg.t0 * 1e9).round() as u64, //~ allow(cast): deliberate float truncation after round/floor
            b: cfg.b,
            wmax: cfg.wmax,
            backoff_cap_exp: cfg.backoff_cap_exp,
            slow_start_after_to: cfg.slow_start_after_to,
            recovery_cap: ((cfg.t0 / cfg.rtt).floor() as u32).max(1), //~ allow(cast): deliberate float truncation after round/floor
        }
    }

    /// Probability `1 − (1−p)^w` that a round of `w` packets loses one:
    /// the tabulated value, or the same expression evaluated past the
    /// table.
    #[inline]
    fn round_loss(&self, w: u32) -> f64 {
        //~ allow(cast): u32 window widens losslessly
        match self.round_loss.get(w as usize) {
            Some(&mass) => mass,
            //~ allow(cast): powi exponent; window bounded far below i32::MAX
            None => 1.0 - (1.0 - self.p).powi(w as i32),
        }
    }

    /// Backoff multiplier `2^min(i, cap)` of the `i`-th (0-indexed)
    /// timeout of a sequence.
    #[inline]
    fn backoff(&self, i: u32) -> u32 {
        1 << i.min(self.backoff_cap_exp)
    }

    /// Total wait of a timeout sequence of `len` RTOs in nanoseconds,
    /// `Σ_{i<len} T0·2^min(i, cap)` in closed form.
    #[inline]
    pub(crate) fn timeout_gap_ns(&self, len: u32) -> u64 {
        let doubling = len.min(self.backoff_cap_exp + 1);
        self.t0_ns * ((1u64 << doubling) - 1)
            + u64::from(len - doubling) * (self.t0_ns << self.backoff_cap_exp)
    }

    /// Runs one loss-free round or one whole loss event of the §II model
    /// on the controller `cc`, making every RNG draw and every `RoundCc`
    /// hook call. The draw order is: one Bernoulli round-loss draw; on a
    /// loss, one truncated-geometric position draw, the `C(k, m)`
    /// last-round draws, one Bernoulli draw per variant-requested recovery
    /// round, and (on a lost recovery retransmission, an expired recovery
    /// timer or a TO indication) one Bernoulli draw per retransmission of
    /// the timeout sequence.
    #[inline]
    pub(crate) fn step(&self, cc: &mut RoundCc, rng: &mut SimRng) -> RoundStep {
        let w = cc.window(self.wmax);
        if rng.chance(self.round_loss(w)) {
            return self.loss_event(cc, rng, w);
        }
        // Loss-free round: grow the window (variant law; `rtt` drives
        // CUBIC's epoch clock).
        cc.on_round_no_loss(self.b, self.wmax, self.rtt);
        RoundStep {
            window: w,
            loss_pos: 0,
            last_delivered: 0,
            td: false,
            recovery_rounds: 0,
            retx_delivered: 0,
            to_len: 0,
        }
    }

    /// The loss event that follows a round of `w` packets with a loss.
    /// Kept out of line so the loss-free round stays a short path.
    #[inline(never)]
    fn loss_event(&self, cc: &mut RoundCc, rng: &mut SimRng, w: u32) -> RoundStep {
        // The first loss dooms the rest of the round; the pos − 1 packets
        // before it are ACKed and trigger the "last" round (Fig. 4) of
        // k = pos − 1 packets, of which m survive.
        let pos = self.truncated_geometric(rng, w);
        let k = pos - 1;
        let m = self.last_round_successes(rng, k);
        let mut out = RoundStep {
            window: w,
            loss_pos: pos,
            last_delivered: m,
            td: k >= 3 && m >= 3,
            recovery_rounds: 0,
            retx_delivered: 0,
            to_len: 0,
        };
        let to_window = if out.td {
            // Packets lost this period: the doomed tail of the penultimate
            // round plus the last round's failures. Only the
            // loss-proportional variants read it.
            let recovery = cc.on_td(w, (w - pos + 1) + (k - m), self.p);
            // Recovery rounds (NewReno, RFC 6582 Impatient variant): one
            // retransmission per round, no new data, under the retransmit
            // timer. A fired timer or a lost retransmission degrades into
            // a timeout sequence from the already-reduced window. Variants
            // that request no rounds make no draws here.
            let mut degraded = recovery > self.recovery_cap;
            for _ in 0..recovery.min(self.recovery_cap) {
                out.recovery_rounds += 1;
                if rng.chance(self.p) {
                    degraded = true;
                    break;
                }
                out.retx_delivered += 1;
            }
            if !degraded {
                return out;
            }
            cc.window(self.wmax)
        } else {
            w
        };
        // Timeout sequence: geometric length, one retransmission at the
        // end of each doubling wait; the one that gets through delivers
        // one packet (§V: E[R'] = 1).
        loop {
            out.to_len += 1;
            if !rng.chance(self.p) {
                out.retx_delivered += 1;
                break;
            }
            if out.to_len >= 1_000 {
                // Astronomically unlikely for p < 1; bound the loop anyway.
                break;
            }
        }
        cc.on_to(to_window, self.slow_start_after_to);
        out
    }

    /// First-loss position within a round of `w` packets, truncated
    /// geometric on `1..=w`, by inverse CDF on the conditional law.
    #[inline]
    fn truncated_geometric(&self, rng: &mut SimRng, w: u32) -> u32 {
        let u = rng.open01() * self.round_loss(w);
        // Smallest k with 1 − q^k ≥ u.
        ceil_to_u32((1.0 - u).ln() / self.ln_q).clamp(1, w)
    }

    /// In-sequence successes in the last round of `k` packets (the paper's
    /// `C(k, m)` law): each packet survives with probability `1−p` until
    /// the first failure.
    #[inline]
    fn last_round_successes(&self, rng: &mut SimRng, k: u32) -> u32 {
        let mut m = 0;
        while m < k && !rng.chance(self.p) {
            m += 1;
        }
        m
    }
}

/// The rounds-based simulator.
#[derive(Debug)]
pub struct RoundsSim {
    law: RoundLaw,
    rng: SimRng,
    /// Round-level congestion controller: owns the fractional window and
    /// the variant's growth/decrease laws; never draws from `rng`.
    cc: RoundCc,
    elapsed: f64,
    stats: ConnStats,
    /// Optional window sample path (bounded).
    samples: Option<Vec<WindowSample>>,
    /// Optional per-TDP records (bounded).
    tdps: Option<Vec<TdpRecord>>,
    sample_cap: usize,
}

impl RoundsSim {
    /// Creates a simulator; `seed` fixes the whole run.
    ///
    /// # Panics
    /// If `config` is outside the model's domain (see
    /// [`RoundsConfig::backoff_cap_exp`] for the backoff bound).
    pub fn new(config: RoundsConfig, seed: u64) -> Self {
        RoundsSim {
            law: RoundLaw::new(&config),
            cc: RoundCc::new(config.cc, config.initial_window.min(config.wmax)),
            rng: SimRng::seed_from_u64(seed),
            elapsed: 0.0,
            stats: ConnStats::default(),
            samples: None,
            tdps: None,
            sample_cap: 100_000,
        }
    }

    /// Enables window-sample-path recording (bounded at `cap` samples).
    pub fn record_samples(mut self, cap: usize) -> Self {
        self.samples = Some(Vec::new());
        self.sample_cap = cap;
        self
    }

    /// Enables per-TDP recording (bounded at 100 000 periods).
    pub fn record_tdps(mut self) -> Self {
        self.tdps = Some(Vec::new());
        self
    }

    /// Elapsed simulated seconds.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// Ground-truth counters.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    /// Long-run send rate so far, packets per second.
    pub fn send_rate(&self) -> f64 {
        if self.elapsed <= 0.0 {
            0.0
        } else {
            self.stats.packets_sent as f64 / self.elapsed //~ allow(cast): u64 count; f64 noise irrelevant for a rate
        }
    }

    /// Long-run receiver throughput so far, packets per second (§V).
    pub fn throughput(&self) -> f64 {
        if self.elapsed <= 0.0 {
            0.0
        } else {
            self.stats.packets_delivered as f64 / self.elapsed //~ allow(cast): u64 count; f64 noise irrelevant for a rate
        }
    }

    /// The recorded sample path, if enabled.
    pub fn samples(&self) -> &[WindowSample] {
        self.samples.as_deref().unwrap_or(&[])
    }

    /// The recorded TD periods, if enabled.
    pub fn tdps(&self) -> &[TdpRecord] {
        self.tdps.as_deref().unwrap_or(&[])
    }

    /// Runs complete TD periods until at least `horizon_secs` of simulated
    /// time have elapsed.
    pub fn run_for(&mut self, horizon_secs: f64) {
        let end = self.elapsed + horizon_secs;
        while self.elapsed < end {
            self.run_one_tdp();
        }
    }

    /// Runs exactly `n` TD periods.
    pub fn run_tdps(&mut self, n: usize) {
        for _ in 0..n {
            self.run_one_tdp();
        }
    }

    /// Simulates one TD period and, if it ends in a timeout, the ensuing
    /// timeout sequence: steps of the round law up to and including the
    /// first loss event. The clock adds `rtt` per round and `T0·2^e` per
    /// timeout in the order they happen, as the atlas goldens require.
    fn run_one_tdp(&mut self) {
        let law = &self.law;
        let mut start_window = 0;
        let mut round: u32 = 0; // rounds within this TDP
        let mut alpha: u64 = 0; // packets before/incl. the first loss
        let s = loop {
            let s = law.step(&mut self.cc, &mut self.rng);
            if round == 0 {
                start_window = s.window;
            }
            record_sample(&mut self.samples, self.sample_cap, self.elapsed, s.window);
            self.elapsed += law.rtt;
            round += 1;
            self.stats.packets_sent += s.new_data() + s.retransmissions();
            self.stats.packets_sent_new += s.new_data();
            self.stats.packets_delivered += s.delivered();
            if s.is_loss() {
                break s;
            }
            alpha += u64::from(s.window);
        };
        alpha += u64::from(s.loss_pos);
        // The last round (Fig. 4), then the recovery rounds.
        self.elapsed += law.rtt;
        record_sample(&mut self.samples, self.sample_cap, self.elapsed, s.window);
        for _ in 0..s.recovery_rounds {
            self.elapsed += law.rtt;
        }
        self.stats.retransmissions += s.retransmissions();
        if s.td {
            self.stats.td_events += 1;
        }
        let indication = if s.to_len == 0 {
            Indication::TripleDuplicate
        } else {
            for i in 0..s.to_len {
                record_sample(&mut self.samples, self.sample_cap, self.elapsed, 0);
                self.elapsed += law.t0 * f64::from(law.backoff(i));
            }
            self.stats.rto_firings += u64::from(s.to_len);
            self.stats.record_to_sequence(s.to_len);
            Indication::Timeout {
                sequence_len: s.to_len,
            }
        };

        if let Some(tdps) = &mut self.tdps {
            if tdps.len() < 100_000 {
                tdps.push(TdpRecord {
                    start_window,
                    peak_window: s.window,
                    loss_round: round,
                    alpha,
                    packets_sent: alpha + u64::from(s.window) - 1,
                    packets_delivered: alpha - 1 + u64::from(s.last_delivered),
                    indication,
                });
            }
        }
    }
}

/// Appends `(time, window)` to an enabled sample path below its cap. A
/// free function over the two fields, so [`RoundsSim::run_one_tdp`] can
/// record while it borrows the law.
fn record_sample(samples: &mut Option<Vec<WindowSample>>, cap: usize, time: f64, window: u32) {
    if let Some(samples) = samples {
        if samples.len() < cap {
            samples.push(WindowSample { time, window });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn config(p: f64, wmax: u32) -> RoundsConfig {
        RoundsConfig {
            p,
            rtt: 0.1,
            t0: 1.0,
            b: 2,
            wmax,
            ..RoundsConfig::default()
        }
    }

    #[test]
    fn deterministic_replay() {
        let mut a = RoundsSim::new(config(0.02, 64), 5);
        let mut b = RoundsSim::new(config(0.02, 64), 5);
        a.run_for(1000.0);
        b.run_for(1000.0);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.elapsed(), b.elapsed());
    }

    #[test]
    fn send_rate_decreases_with_p() {
        let rate = |p| {
            let mut s = RoundsSim::new(config(p, 1_000), 7);
            s.run_for(50_000.0);
            s.send_rate()
        };
        assert!(rate(0.005) > rate(0.02));
        assert!(rate(0.02) > rate(0.1));
    }

    #[test]
    fn window_cap_respected_in_samples() {
        let mut s = RoundsSim::new(config(0.001, 8), 3).record_samples(50_000);
        s.run_for(5_000.0);
        assert!(s.samples().iter().all(|w| w.window <= 8));
        // With p tiny the clamp should actually bind most of the time.
        let at_cap = s.samples().iter().filter(|w| w.window == 8).count();
        assert!(at_cap * 2 > s.samples().len(), "cap never binding");
    }

    #[test]
    fn tdp_records_satisfy_paper_identities() {
        let mut s = RoundsSim::new(config(0.03, 256), 11).record_tdps();
        s.run_tdps(2_000);
        for (i, rec) in s.tdps().iter().enumerate() {
            // Y_i = α_i + W_i − 1 (Fig. 2).
            assert_eq!(
                rec.packets_sent,
                rec.alpha + u64::from(rec.peak_window) - 1,
                "TDP {i}: Y ≠ α + W − 1"
            );
            assert!(rec.loss_round >= 1);
            assert!(rec.packets_delivered <= rec.packets_sent);
            assert!(rec.peak_window >= 1);
        }
        // E[α] should be close to 1/p (Eq. (4)).
        let mean_alpha: f64 =
            s.tdps().iter().map(|r| r.alpha as f64).sum::<f64>() / s.tdps().len() as f64;
        assert!(
            (mean_alpha - 1.0 / 0.03).abs() / (1.0 / 0.03) < 0.1,
            "E[α]={mean_alpha}, expected ≈{}",
            1.0 / 0.03
        );
    }

    #[test]
    fn small_window_losses_always_time_out() {
        // With W_m = 3 a triple-duplicate is impossible (§II-B: Q̂(w)=1 for
        // w ≤ 3): every indication must be a timeout.
        let mut s = RoundsSim::new(config(0.05, 3), 13);
        s.run_for(20_000.0);
        assert_eq!(s.stats().td_events, 0);
        assert!(s.stats().to_events() > 50);
    }

    #[test]
    fn large_window_low_loss_mostly_td() {
        let mut s = RoundsSim::new(config(0.003, 10_000), 17);
        s.run_for(200_000.0);
        let td = s.stats().td_events as f64;
        let to = s.stats().to_events() as f64;
        // E[W] ≈ sqrt(8/(3bp)) ≈ 21 ⇒ Q ≈ 3/21 ≈ 0.14.
        let q = to / (td + to);
        assert!(q < 0.35, "timeout fraction {q} too high for large windows");
        assert!(td > 100.0);
    }

    #[test]
    fn timeout_sequence_lengths_geometric() {
        let p = 0.3;
        let mut s = RoundsSim::new(config(p, 3), 19); // every loss a TO
        s.run_for(200_000.0);
        let seqs = &s.stats().to_sequences;
        let total: u64 = seqs.iter().sum();
        assert!(total > 500);
        // P[len = 2]/P[len = 1] should be ≈ p.
        let ratio = seqs[1] as f64 / seqs[0] as f64;
        assert!((ratio - p).abs() < 0.08, "ratio {ratio}, expected ≈{p}");
    }

    #[test]
    fn throughput_below_send_rate() {
        let mut s = RoundsSim::new(config(0.05, 64), 23);
        s.run_for(50_000.0);
        assert!(s.throughput() < s.send_rate());
        assert!(s.throughput() > 0.0);
    }

    #[test]
    fn sample_path_shows_sawtooth() {
        let mut s = RoundsSim::new(config(0.01, 1_000), 29).record_samples(10_000);
        s.run_for(2_000.0);
        let samples = s.samples();
        // There must be rises (congestion avoidance) and falls (halvings).
        let rises = samples
            .windows(2)
            .filter(|w| w[1].window > w[0].window)
            .count();
        let falls = samples
            .windows(2)
            .filter(|w| w[1].window < w[0].window && w[1].window > 0)
            .count();
        assert!(rises > 100, "rises={rises}");
        assert!(falls > 5, "falls={falls}");
        // Time is nondecreasing.
        assert!(samples.windows(2).all(|w| w[1].time >= w[0].time));
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn invalid_p_rejected() {
        let _ = RoundsSim::new(config(0.0, 8), 1);
    }

    /// A cap above 30 used to overflow the `1 << exp` backoff shift deep
    /// into a timeout sequence (a debug panic, a silently wrapped clock in
    /// release); both engines now reject it up front.
    #[test]
    #[should_panic(expected = "backoff cap exponent must stay shiftable")]
    fn unshiftable_backoff_cap_rejected() {
        let cfg = RoundsConfig {
            backoff_cap_exp: 31,
            ..config(0.9, 8)
        };
        let _ = RoundsSim::new(cfg, 1);
    }

    #[test]
    fn first_tdp_starts_at_the_initial_window() {
        let cfg = RoundsConfig {
            initial_window: 6,
            ..config(0.003, 8)
        };
        let mut s = RoundsSim::new(cfg, 7).record_tdps();
        s.run_tdps(1);
        assert_eq!(s.tdps()[0].start_window, 6);
    }

    /// `start_window` is the window of the period's first round for every
    /// variant, found by walking the sample path: a period records one
    /// sample per round up to the loss, one for the last round, and one
    /// per timeout of its sequence.
    #[test]
    fn start_window_is_the_first_sample_of_its_period() {
        for cc in CcAlgorithm::ALL {
            let cfg = RoundsConfig {
                t0: 0.35,
                initial_window: 6,
                cc,
                ..config(0.02, 64)
            };
            let mut s = RoundsSim::new(cfg, 7)
                .record_samples(1_000_000)
                .record_tdps();
            s.run_tdps(2_000);
            let samples = s.samples();
            let mut at = 0;
            for (i, t) in s.tdps().iter().enumerate() {
                assert_eq!(t.start_window, samples[at].window, "{cc:?} TDP {i}");
                at += t.loss_round as usize + 1;
                if let Indication::Timeout { sequence_len } = t.indication {
                    at += sequence_len as usize;
                }
            }
            assert_eq!(at, samples.len(), "{cc:?}");
        }
    }

    /// Values where float-to-int truncation and rounding disagree or
    /// saturate: NaN, ±0, (−1, 0), below −1, the infinities, integers and
    /// their neighbours, and the neighbourhood of `u32::MAX`.
    fn truncation_edges() -> Vec<f64> {
        let max = f64::from(u32::MAX);
        let mut xs = vec![
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            -1e-300,
            -0.25,
            -0.5,
            -0.999_999,
            -1.0,
            -1.5,
            -2.0,
            -1e10,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            1.5,
            2.0,
            3.0,
            255.5,
            256.0,
            65_535.0,
            max - 1.0,
            max - 0.5,
            max,
            max + 0.5,
            max + 1.0,
            1e300,
        ];
        for x in xs.clone() {
            if x.is_finite() && x != 0.0 {
                // The adjacent doubles on either side.
                xs.push(f64::from_bits(x.to_bits() + 1));
                xs.push(f64::from_bits(x.to_bits() - 1));
            }
        }
        xs
    }

    /// The two integer truncations on the round path give exactly what
    /// `floor`/`ceil`, the cast and the clamp gave: the window of
    /// `RoundCc::window`, and the first-loss position of
    /// `truncated_geometric`.
    fn assert_truncations_match(x: f64, bound: u32) {
        assert_eq!(ceil_to_u32(x), x.ceil() as u32, "ceil of {x:?}");
        assert_eq!(
            ceil_to_u32(x).clamp(1, bound),
            (x.ceil() as u32).clamp(1, bound),
            "ceil of {x:?} clamped to {bound}"
        );
        let mut cc = RoundCc::new(CcAlgorithm::Reno, 1);
        cc.wf = x;
        assert_eq!(
            cc.window(bound),
            (x.floor() as u32).clamp(1, bound),
            "window of {x:?} under wmax {bound}"
        );
    }

    #[test]
    fn integer_truncations_match_floor_and_ceil_on_edges() {
        for x in truncation_edges() {
            for bound in [1, 2, 3, 64, 256, 65_535, u32::MAX] {
                assert_truncations_match(x, bound);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn integer_truncations_match_on_random_bit_patterns(
            bits in 0u64..u64::MAX,
            bound in 1u32..u32::MAX,
        ) {
            assert_truncations_match(f64::from_bits(bits), bound);
        }

        #[test]
        fn integer_truncations_match_on_window_scale_values(
            x in -3.0f64..70_000.0,
            bound in 1u32..70_000,
        ) {
            assert_truncations_match(x, bound);
        }

        #[test]
        fn integer_truncations_match_between_minus_one_and_zero(x in -1.0f64..0.0) {
            assert_truncations_match(x, 65_535);
        }
    }

    /// The round-loss probability has the bits of the `powi` expression
    /// it replaces for every window up to the default `wmax`: below, at
    /// and above the table bound.
    #[test]
    fn loss_table_matches_powi_reference() {
        for p in [1e-6, 0.001, 0.013, 0.2, 0.5, 0.97] {
            let law = RoundLaw::new(&config(p, RoundsConfig::default().wmax));
            assert_eq!(law.ln_q.to_bits(), (1.0 - p).ln().to_bits());
            for w in 0..=RoundsConfig::default().wmax {
                let reference = 1.0 - (1.0 - p).powi(w as i32);
                assert_eq!(
                    law.round_loss(w).to_bits(),
                    reference.to_bits(),
                    "p={p} w={w}"
                );
            }
        }
    }

    /// First-loss positions drawn through the table and the integer
    /// ceiling equal the `powi`/`ceil` formula draw for draw.
    #[test]
    fn truncated_geometric_matches_reference_draws() {
        for p in [0.001, 0.03, 0.4] {
            let law = RoundLaw::new(&config(p, 65_535));
            let mut rng = SimRng::seed_from_u64(17);
            let mut reference_rng = SimRng::seed_from_u64(17);
            for w in [1, 2, 3, 4, 31, 255, 256, 257, 400, 4_096, 65_535] {
                for _ in 0..200 {
                    let q = 1.0 - p;
                    let u = reference_rng.open01() * (1.0 - q.powi(w as i32));
                    let k = ((1.0 - u).ln() / q.ln()).ceil();
                    let reference = (k as u32).clamp(1, w);
                    assert_eq!(law.truncated_geometric(&mut rng, w), reference);
                }
            }
        }
    }

    /// Whole runs at the default `wmax`, with windows far past the table
    /// bound, reach the counters and clock recorded from the `powi`/`ceil`
    /// implementation, bit for bit, for every variant.
    #[test]
    fn default_wmax_runs_match_pinned_values() {
        // Per variant in `CcAlgorithm::ALL` order: packets sent and
        // delivered, TD events, RTO firings, elapsed-time bits, peak window.
        let pinned: [[u64; 6]; 5] = [
            [10_094_973, 10_078_985, 100, 0, 0x40AB_1933_3333_2183, 722],
            [9_425_045, 9_411_193, 99, 95, 0x40B1_E3E6_6666_62B5, 606],
            [10_044_250, 9_950_375, 100, 0, 0x4083_5B33_3333_35AF, 4_969],
            [10_113_488, 10_027_855, 100, 0, 0x4084_84CC_CCCC_CF93, 3_056],
            [9_433_777, 9_259_735, 100, 0, 0x407C_3800_0000_0259, 5_011],
        ];
        for (cc, want) in CcAlgorithm::ALL.into_iter().zip(pinned) {
            let cfg = RoundsConfig {
                p: 1e-5,
                cc,
                ..RoundsConfig::default()
            };
            let mut s = RoundsSim::new(cfg, 23).record_samples(1_000_000);
            s.run_tdps(100);
            let st = s.stats();
            let peak = s.samples().iter().map(|w| w.window).max();
            let got = [
                st.packets_sent,
                st.packets_delivered,
                st.td_events,
                st.rto_firings,
                s.elapsed().to_bits(),
                peak.map_or(0, u64::from),
            ];
            assert_eq!(got, want, "{cc:?}");
        }
    }
}
