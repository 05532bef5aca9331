//! The TCP Reno sender state machine (sans-I/O).
//!
//! The sender never touches the event queue or the paths: each input event
//! ([`Sender::on_start_into`], [`Sender::on_ack_into`],
//! [`Sender::on_rto_into`]) fills a caller-owned [`SenderOutput`] with the
//! segments to transmit and what to do with the retransmission timer.
//! The connection layer turns those into scheduled events. This keeps the
//! protocol logic purely functional over its own state and unit-testable
//! without a network.

use crate::cc::{CcAlgorithm, CcState, CongestionController};
use crate::packet::{Ack, Segment, Seq};
use crate::reno::rto::{RtoConfig, RtoEstimator};
use crate::stats::ConnStats;
use crate::time::SimTime;
use pftk_snap::{SnapReader, SnapResult, SnapWriter};

/// Which loss-recovery mechanics the sender runs. The paper models
/// **Reno**; the other variants exist for the ref-\[3\]-style comparison
/// ("Simulation-based comparisons of Tahoe, Reno, and SACK TCP") and to
/// quantify how far each deviates from the model. NewReno is not a style:
/// it is [`CcAlgorithm::NewReno`], whose RFC 6582 partial-ACK recovery the
/// `Reno` style runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RenoStyle {
    /// No fast recovery: any loss (dupacks or timeout) collapses the window
    /// to one and slow-starts (§IV notes SunOS TCP was Tahoe-derived).
    Tahoe,
    /// RFC 5681 fast retransmit/fast recovery — the paper's protocol.
    /// With [`CcAlgorithm::NewReno`] it becomes RFC 6582: partial ACKs
    /// retransmit the next hole without leaving recovery, so a multi-loss
    /// window costs one window reduction.
    #[default]
    Reno,
    /// RFC 2018 selective acknowledgments with a pipe-driven recovery
    /// (requires a SACK-enabled receiver).
    Sack,
}

/// What the connection layer should do with the RTO timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimerCmd {
    /// Leave the timer as it is.
    #[default]
    Keep,
    /// (Re)arm the timer to fire at the given instant, cancelling any
    /// earlier deadline.
    Arm(SimTime),
}

/// The sender's reaction to an input event.
///
/// The `*_into` event entry points fill a caller-owned instance, so a hot
/// loop reuses one allocation for the whole run; see [`SenderOutput::reset`].
#[derive(Debug, Clone, Default)]
pub struct SenderOutput {
    /// Segments to put on the wire, in order.
    pub segments: Vec<Segment>,
    /// Timer instruction.
    pub timer: TimerCmd,
}

impl SenderOutput {
    /// Empties the output for reuse, keeping the segment buffer's capacity.
    pub fn reset(&mut self) {
        self.segments.clear();
        self.timer = TimerCmd::Keep;
    }
}

/// Tunables of the sender.
#[derive(Debug, Clone, Copy)]
pub struct SenderConfig {
    /// Receiver's advertised window, packets (the paper's `W_m`).
    pub rwnd: u32,
    /// Duplicate ACKs required to trigger fast retransmit: 3 per RFC 5681;
    /// 2 reproduces the Linux behaviour §III corrects for.
    pub dupthresh: u32,
    /// Initial congestion window, packets.
    pub initial_cwnd: f64,
    /// Timeout machinery settings.
    pub rto: RtoConfig,
    /// Amount of data to transfer, in packets. `None` is the paper's
    /// "infinite source"; `Some(n)` models a finite transfer (an HTTP
    /// response, say) — the flow completes when packet `n − 1` is acked.
    pub data_limit: Option<u64>,
    /// Loss-recovery algorithm (default: Reno, the paper's protocol).
    pub style: RenoStyle,
    /// Congestion-control window laws (default: Reno). `style` picks the
    /// recovery *mechanics* (dupack vs SACK bookkeeping), `cc` picks how
    /// the window reacts to those events; `NewReno` also turns on
    /// partial-ACK recovery.
    pub cc: CcAlgorithm,
}

impl Default for SenderConfig {
    fn default() -> Self {
        SenderConfig {
            rwnd: u32::from(u16::MAX),
            dupthresh: 3,
            initial_cwnd: 1.0,
            rto: RtoConfig::default(),
            data_limit: None,
            style: RenoStyle::Reno,
            cc: CcAlgorithm::Reno,
        }
    }
}

/// A bulk-transfer ("infinite source", §III) TCP Reno sender.
//= pftk#infinite-source
#[derive(Debug)]
pub struct Sender {
    config: SenderConfig,
    /// Oldest unacknowledged sequence number.
    snd_una: Seq,
    /// Next new sequence number to send.
    snd_nxt: Seq,
    /// The pluggable congestion controller.
    cc: CcState,
    rto: RtoEstimator,
    dupacks: u32,
    /// RTT timing in progress: (sequence, send time). Karn: discarded if
    /// that sequence is retransmitted.
    timed: Option<(Seq, SimTime)>,
    /// Consecutive RTO firings without forward progress (current timeout-
    /// sequence length).
    to_run: u32,
    /// When the final packet of a finite transfer was acked.
    completed_at: Option<SimTime>,
    /// Partial-ACK recovery: highest sequence outstanding when recovery
    /// began; the recovery ends when `snd_una` passes it (RFC 6582's
    /// `recover`).
    recover: Seq,
    /// Whether partial ACKs keep recovery open (the SACK style, or the
    /// NewReno law). A function of the config, so never snapshotted.
    partial_acks: bool,
    /// SACK scoreboard: sequences above `snd_una` the receiver reported.
    scoreboard: std::collections::BTreeSet<Seq>,
    /// Holes already retransmitted during the current recovery episode.
    rexmitted: std::collections::BTreeSet<Seq>,
    /// Ground-truth counters.
    pub stats: ConnStats,
}

impl Sender {
    /// A fresh sender about to transmit sequence 0.
    pub fn new(config: SenderConfig) -> Self {
        Sender {
            snd_una: 0,
            snd_nxt: 0,
            cc: CcState::new(config.cc, config.initial_cwnd),
            rto: RtoEstimator::new(config.rto),
            dupacks: 0,
            timed: None,
            to_run: 0,
            completed_at: None,
            recover: 0,
            partial_acks: config.style == RenoStyle::Sack || config.cc == CcAlgorithm::NewReno,
            scoreboard: std::collections::BTreeSet::new(),
            rexmitted: std::collections::BTreeSet::new(),
            stats: ConnStats::default(),
            config,
        }
    }

    /// For a finite transfer: when the last packet was acknowledged.
    /// Always `None` for the infinite source.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }

    /// True once a finite transfer has been fully acknowledged.
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Outstanding (unacknowledged) packets.
    pub fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// The usable window: `min(cwnd, rwnd)`.
    pub fn usable_window(&self) -> u64 {
        self.cc.window().min(u64::from(self.config.rwnd))
    }

    /// Read-only view of the congestion controller.
    pub fn congestion(&self) -> &CcState {
        &self.cc
    }

    /// Read-only view of the RTO estimator (ground-truth RTT/T0 diagnostics).
    pub fn rto_estimator(&self) -> &RtoEstimator {
        &self.rto
    }

    /// Oldest unacknowledged sequence number.
    pub fn snd_una(&self) -> Seq {
        self.snd_una
    }

    /// Next fresh sequence number.
    pub fn snd_nxt(&self) -> Seq {
        self.snd_nxt
    }

    /// Stable numeric code for the recovery style, used as a snapshot
    /// shape tag (2 was a retired NewReno style).
    fn style_tag(style: RenoStyle) -> u64 {
        match style {
            RenoStyle::Tahoe => 0,
            RenoStyle::Reno => 1,
            RenoStyle::Sack => 3,
        }
    }

    /// Writes the sender's mutable state. Config fields contribute shape
    /// tags only: restore requires an identically-configured sender.
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_tag(Self::style_tag(self.config.style));
        w.put_tag(self.config.cc.tag());
        w.put_tag(u64::from(self.config.rwnd));
        w.put_tag(u64::from(self.config.dupthresh));
        w.put_u64(self.snd_una);
        w.put_u64(self.snd_nxt);
        self.cc.snapshot_into(w);
        self.rto.snapshot_into(w);
        w.put_u32(self.dupacks);
        match self.timed {
            Some((seq, at)) => {
                w.put_bool(true);
                w.put_u64(seq);
                w.put_u64(at.as_nanos());
            }
            None => w.put_bool(false),
        }
        w.put_u32(self.to_run);
        match self.completed_at {
            Some(at) => {
                w.put_bool(true);
                w.put_u64(at.as_nanos());
            }
            None => w.put_bool(false),
        }
        w.put_u64(self.recover);
        // BTreeSet iteration is ascending, so the byte encoding is a pure
        // function of the set's contents.
        w.put_usize(self.scoreboard.len());
        for seq in &self.scoreboard {
            w.put_u64(*seq);
        }
        w.put_usize(self.rexmitted.len());
        for seq in &self.rexmitted {
            w.put_u64(*seq);
        }
        self.stats.snapshot_into(w);
    }

    /// Reads state written by [`Self::snapshot_into`]; fails with a
    /// tag mismatch if this sender's config differs from the snapshotted one.
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        r.expect_tag("sender-style", Self::style_tag(self.config.style))?;
        r.expect_tag("sender-cc", self.config.cc.tag())?;
        r.expect_tag("sender-rwnd", u64::from(self.config.rwnd))?;
        r.expect_tag("sender-dupthresh", u64::from(self.config.dupthresh))?;
        self.snd_una = r.get_u64()?;
        self.snd_nxt = r.get_u64()?;
        self.cc.restore_from(r)?;
        self.rto.restore_from(r)?;
        self.dupacks = r.get_u32()?;
        self.timed = if r.get_bool()? {
            let seq = r.get_u64()?;
            let at = SimTime::from_nanos(r.get_u64()?);
            Some((seq, at))
        } else {
            None
        };
        self.to_run = r.get_u32()?;
        self.completed_at = if r.get_bool()? {
            Some(SimTime::from_nanos(r.get_u64()?))
        } else {
            None
        };
        self.recover = r.get_u64()?;
        self.scoreboard.clear();
        for _ in 0..r.get_usize()? {
            self.scoreboard.insert(r.get_u64()?);
        }
        self.rexmitted.clear();
        for _ in 0..r.get_usize()? {
            self.rexmitted.insert(r.get_u64()?);
        }
        self.stats.restore_from(r)
    }

    /// Kicks the connection off at time `now`: sends the initial window and
    /// arms the timer. Resets and fills the caller-owned `out`.
    pub fn on_start_into(&mut self, now: SimTime, out: &mut SenderOutput) {
        out.reset();
        self.fill_window(now, out);
        out.timer = TimerCmd::Arm(now + self.rto.current_rto());
    }

    /// Processes an arriving cumulative ACK. Resets and fills the
    /// caller-owned `out`.
    pub fn on_ack_into(&mut self, now: SimTime, ack: Ack, out: &mut SenderOutput) {
        self.stats.acks_received += 1;
        out.reset();

        if ack.ack > self.snd_nxt {
            // Acknowledges data we never sent — a receiver bug; ignore.
            return;
        }

        // SACK bookkeeping: fold reported ranges into the scoreboard.
        if self.config.style == RenoStyle::Sack && !ack.sack.is_empty() {
            for &(start, end) in ack.sack.ranges() {
                for seq in start..end.min(self.snd_nxt) {
                    if seq > self.snd_una {
                        self.scoreboard.insert(seq); //~ allow(hot_alloc): SACK scoreboard; node count bounded by the flight window
                    }
                }
            }
        }

        if ack.ack > self.snd_una {
            // Forward progress.
            let was_in_recovery = self.cc.in_fast_recovery();
            let newly_acked = ack.ack - self.snd_una;
            self.snd_una = ack.ack;
            self.dupacks = 0;
            for set in [&mut self.scoreboard, &mut self.rexmitted] {
                while set.first().is_some_and(|&seq| seq < ack.ack) {
                    set.pop_first();
                }
            }
            if let Some(limit) = self.config.data_limit {
                if self.snd_una >= limit && self.completed_at.is_none() {
                    self.completed_at = Some(now);
                }
            }
            if self.to_run > 0 {
                self.stats.record_to_sequence(self.to_run);
                self.to_run = 0;
            }
            self.rto.on_progress();
            if let Some((seq, sent_at)) = self.timed {
                if ack.ack > seq {
                    self.rto.on_rtt_sample(now - sent_at);
                    self.cc.on_rtt_sample(now - sent_at);
                    self.timed = None;
                }
            }
            if !(self.partial_acks && was_in_recovery) {
                self.cc.on_new_ack(now);
                self.fill_window(now, out);
            } else if self.snd_una >= self.recover {
                // Full ACK: recovery over.
                self.cc.exit_recovery();
                self.rexmitted.clear();
                self.fill_window(now, out);
            } else {
                // Partial ACK (RFC 6582): the next hole is also lost;
                // retransmit it immediately, stay in recovery.
                self.cc.on_partial_ack(newly_acked);
                if self.config.style == RenoStyle::Sack {
                    self.send_sack_recovery(now, out);
                } else {
                    self.retransmit_head(now, out);
                }
            }
            // Restart the timer for the (still) outstanding data.
            out.timer = TimerCmd::Arm(now + self.rto.current_rto());
        } else if ack.ack == self.snd_una && self.flight() > 0 {
            // Duplicate ACK.
            self.dupacks += 1;
            match self.config.style {
                RenoStyle::Tahoe => {
                    // `== dupthresh` fires once per progress epoch (dupacks
                    // only reset on forward progress). The threshold is the
                    // configured per-OS quirk, never the host.
                    if self.dupacks == self.config.dupthresh {
                        // Tahoe: a TD indication collapses the window.
                        self.stats.td_events += 1;
                        self.cc.on_timeout(self.flight());
                        self.retransmit_head(now, out);
                        out.timer = TimerCmd::Arm(now + self.rto.current_rto());
                    }
                }
                RenoStyle::Reno => {
                    if self.cc.in_fast_recovery() {
                        self.cc.on_dupack_in_recovery();
                        self.fill_window(now, out);
                    } else if self.dupacks == self.config.dupthresh {
                        self.stats.td_events += 1;
                        // Plain Reno never reads `recover`; it stays 0, as
                        // its pinned snapshot bytes record.
                        if self.partial_acks {
                            self.recover = self.snd_nxt;
                        }
                        self.cc.on_fast_retransmit(now, self.flight());
                        self.retransmit_head(now, out);
                        out.timer = TimerCmd::Arm(now + self.rto.current_rto());
                    }
                }
                RenoStyle::Sack => {
                    if self.cc.in_fast_recovery() {
                        self.send_sack_recovery(now, out);
                    } else if self.dupacks == self.config.dupthresh {
                        self.stats.td_events += 1;
                        self.recover = self.snd_nxt;
                        self.rexmitted.clear();
                        self.cc.on_sack_retransmit(now, self.flight());
                        self.retransmit_head(now, out);
                        // The head repair counts as an in-recovery repair.
                        self.rexmitted.insert(self.snd_una); //~ allow(hot_alloc): repair ledger; node count bounded by the flight window
                        self.send_sack_recovery(now, out);
                        out.timer = TimerCmd::Arm(now + self.rto.current_rto());
                    }
                }
            }
        }
        // ACKs below snd_una carry no information here (cumulative).
    }

    /// SACK pipe estimate: packets believed in flight — outstanding data
    /// minus SACKed packets minus presumed-lost holes that have not been
    /// retransmitted (RFC 6675's pipe, simplified to our packet units).
    fn sack_pipe(&self) -> u64 {
        let sacked = self.scoreboard.len() as u64; //~ allow(cast): usize length to u64, lossless on this platform set
        let lost_unrexmitted = match self.scoreboard.iter().next_back() {
            Some(&hi) => (self.snd_una..hi)
                .filter(|s| !self.scoreboard.contains(s) && !self.rexmitted.contains(s))
                .count() as u64, //~ allow(cast): usize length to u64, lossless on this platform set
            None => 0,
        };
        self.flight().saturating_sub(sacked + lost_unrexmitted)
    }

    /// The SACK transmission rule: while the pipe has room under `cwnd`,
    /// retransmit the lowest unrepaired hole below the highest SACKed
    /// sequence; with no holes left, send new data.
    fn send_sack_recovery(&mut self, now: SimTime, out: &mut SenderOutput) {
        loop {
            if self.sack_pipe() >= self.cc.window().min(u64::from(self.config.rwnd)) {
                break;
            }
            let hole = self.scoreboard.iter().next_back().and_then(|&hi| {
                (self.snd_una..hi)
                    .find(|s| !self.scoreboard.contains(s) && !self.rexmitted.contains(s))
            });
            match hole {
                Some(seq) => {
                    self.rexmitted.insert(seq); //~ allow(hot_alloc): repair ledger; node count bounded by the flight window
                                                //= pftk#karn-rto
                    if let Some((timed_seq, _)) = self.timed {
                        if timed_seq == seq {
                            self.timed = None; // Karn
                        }
                    }
                    self.stats.packets_sent += 1;
                    self.stats.retransmissions += 1;
                    //~ allow(hot_alloc): caller-owned output pool; capacity persists across reset
                    out.segments.push(Segment {
                        seq,
                        retransmit: true,
                    });
                }
                None => {
                    // No repairable holes: send new data if permitted.
                    if let Some(limit) = self.config.data_limit {
                        if self.snd_nxt >= limit {
                            break;
                        }
                    }
                    if self.flight() >= u64::from(self.config.rwnd) {
                        break;
                    }
                    let seq = self.snd_nxt;
                    self.snd_nxt += 1;
                    if self.timed.is_none() {
                        self.timed = Some((seq, now));
                    }
                    self.stats.packets_sent += 1;
                    self.stats.packets_sent_new += 1;
                    //~ allow(hot_alloc): caller-owned output pool; capacity persists across reset
                    out.segments.push(Segment {
                        seq,
                        retransmit: false,
                    });
                }
            }
        }
    }

    /// The retransmission timer fired. Resets and fills the caller-owned
    /// `out`.
    pub fn on_rto_into(&mut self, now: SimTime, out: &mut SenderOutput) {
        out.reset();
        if self.flight() == 0 {
            // Nothing outstanding: for a completed finite transfer the
            // timer simply dies; for a bulk sender (cannot normally happen)
            // rearm defensively.
            if !self.is_complete() {
                out.timer = TimerCmd::Arm(now + self.rto.current_rto());
            }
            return;
        }
        self.stats.rto_firings += 1;
        self.to_run += 1;
        self.cc.on_timeout(self.flight());
        self.rto.on_timeout();
        self.dupacks = 0;
        // Recovery episode (if any) is over; the scoreboard stays (the
        // receiver still holds that data) but repairs restart.
        self.rexmitted.clear();
        // Karn: anything in flight is now suspect.
        self.timed = None;
        self.retransmit_head(now, out);
        out.timer = TimerCmd::Arm(now + self.rto.current_rto());
    }

    /// Flushes the final (possibly open) timeout run into the stats; call
    /// once when the simulation horizon is reached.
    pub fn finish(&mut self) {
        if self.to_run > 0 {
            self.stats.record_to_sequence(self.to_run);
            self.to_run = 0;
        }
    }

    fn retransmit_head(&mut self, _now: SimTime, out: &mut SenderOutput) {
        let seq = self.snd_una;
        // Karn: a retransmitted sequence must not produce an RTT sample.
        if let Some((timed_seq, _)) = self.timed {
            if timed_seq == seq {
                self.timed = None;
            }
        }
        self.stats.packets_sent += 1;
        self.stats.retransmissions += 1;
        //~ allow(hot_alloc): caller-owned output pool; capacity persists across reset
        out.segments.push(Segment {
            seq,
            retransmit: true,
        });
    }

    fn fill_window(&mut self, now: SimTime, out: &mut SenderOutput) {
        while self.flight() < self.usable_window() {
            if let Some(limit) = self.config.data_limit {
                if self.snd_nxt >= limit {
                    break; // everything has been transmitted at least once
                }
            }
            let seq = self.snd_nxt;
            self.snd_nxt += 1;
            if self.timed.is_none() {
                self.timed = Some((seq, now));
            }
            self.stats.packets_sent += 1;
            self.stats.packets_sent_new += 1;
            //~ allow(hot_alloc): caller-owned output pool; capacity persists across reset
            out.segments.push(Segment {
                seq,
                retransmit: false,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Test-only allocating forms of the event entry points: each fills a
    /// fresh output through the `_into` form and returns it.
    trait Drive {
        fn start(&mut self, now: SimTime) -> SenderOutput;
        fn ack(&mut self, now: SimTime, ack: Ack) -> SenderOutput;
        fn fire_rto(&mut self, now: SimTime) -> SenderOutput;
    }

    impl Drive for Sender {
        fn start(&mut self, now: SimTime) -> SenderOutput {
            let mut out = SenderOutput::default();
            self.on_start_into(now, &mut out);
            out
        }

        fn ack(&mut self, now: SimTime, ack: Ack) -> SenderOutput {
            let mut out = SenderOutput::default();
            self.on_ack_into(now, ack, &mut out);
            out
        }

        fn fire_rto(&mut self, now: SimTime) -> SenderOutput {
            let mut out = SenderOutput::default();
            self.on_rto_into(now, &mut out);
            out
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn sender() -> Sender {
        Sender::new(SenderConfig::default())
    }

    #[test]
    fn start_sends_initial_window_and_arms_timer() {
        let mut s = sender();
        let out = s.start(t(0));
        assert_eq!(out.segments.len(), 1); // initial cwnd 1
        assert_eq!(
            out.segments[0],
            Segment {
                seq: 0,
                retransmit: false
            }
        );
        assert!(matches!(out.timer, TimerCmd::Arm(_)));
        assert_eq!(s.flight(), 1);
    }

    #[test]
    fn ack_grows_window_slow_start() {
        let mut s = sender();
        s.start(t(0));
        let out = s.ack(t(100), Ack::plain(1));
        // cwnd 1 → 2; flight 0 → send 2.
        assert_eq!(out.segments.len(), 2);
        assert_eq!(s.flight(), 2);
        assert_eq!(s.stats.packets_sent, 3);
    }

    #[test]
    fn dupacks_trigger_fast_retransmit_at_threshold() {
        let mut s = sender();
        s.start(t(0));
        // Grow to a window of several packets.
        s.ack(t(100), Ack::plain(1));
        s.ack(t(200), Ack::plain(2));
        s.ack(t(300), Ack::plain(3));
        assert!(s.flight() >= 4);
        let una = s.snd_una();
        // Three duplicate ACKs.
        assert!(s.ack(t(400), Ack::plain(una)).segments.is_empty());
        assert!(s.ack(t(401), Ack::plain(una)).segments.is_empty());
        let out = s.ack(t(402), Ack::plain(una));
        assert_eq!(out.segments.len(), 1);
        assert!(out.segments[0].retransmit);
        assert_eq!(out.segments[0].seq, una);
        assert_eq!(s.stats.td_events, 1);
        assert!(s.congestion().in_fast_recovery());
        assert!(matches!(out.timer, TimerCmd::Arm(_)));
    }

    #[test]
    fn linux_dupthresh_two() {
        let config = SenderConfig {
            dupthresh: 2,
            ..SenderConfig::default()
        };
        let mut s = Sender::new(config);
        s.start(t(0));
        s.ack(t(100), Ack::plain(1));
        s.ack(t(200), Ack::plain(2));
        let una = s.snd_una();
        s.ack(t(300), Ack::plain(una));
        let out = s.ack(t(301), Ack::plain(una));
        assert_eq!(s.stats.td_events, 1, "TD after only two dupacks");
        assert!(out.segments[0].retransmit);
    }

    #[test]
    fn rto_collapses_window_and_retransmits() {
        let mut s = sender();
        s.start(t(0));
        s.ack(t(100), Ack::plain(1));
        s.ack(t(200), Ack::plain(2));
        assert!(s.flight() > 1);
        let out = s.fire_rto(t(5000));
        assert_eq!(out.segments.len(), 1);
        assert!(out.segments[0].retransmit);
        assert_eq!(out.segments[0].seq, s.snd_una());
        assert_eq!(s.congestion().window(), 1);
        assert_eq!(s.stats.rto_firings, 1);
    }

    #[test]
    fn timeout_sequences_recorded_on_progress() {
        let mut s = sender();
        s.start(t(0));
        s.fire_rto(t(3000));
        s.fire_rto(t(9000)); // backed-off second firing: same sequence
        assert_eq!(s.stats.to_events(), 0, "sequence still open");
        s.ack(t(9500), Ack::plain(1));
        assert_eq!(s.stats.to_sequences[1], 1, "double timeout recorded as T1");
    }

    #[test]
    fn finish_flushes_open_sequence() {
        let mut s = sender();
        s.start(t(0));
        s.fire_rto(t(3000));
        s.finish();
        assert_eq!(s.stats.to_sequences[0], 1);
        // Idempotent.
        s.finish();
        assert_eq!(s.stats.to_events(), 1);
    }

    #[test]
    fn rwnd_clamps_flight() {
        let config = SenderConfig {
            rwnd: 4,
            ..SenderConfig::default()
        };
        let mut s = Sender::new(config);
        s.start(t(0));
        for i in 1..100u64 {
            s.ack(t(i * 10), Ack::plain(i));
            assert!(s.flight() <= 4, "flight {} exceeds rwnd", s.flight());
        }
    }

    #[test]
    fn karn_discards_sample_for_retransmitted_head() {
        let mut s = sender();
        s.start(t(0)); // times seq 0
        s.fire_rto(t(3000)); // retransmits seq 0 → timing discarded
        let before = s.rto_estimator().mean_rtt();
        s.ack(t(3100), Ack::plain(1));
        assert_eq!(
            s.rto_estimator().mean_rtt(),
            before,
            "no sample from retransmit"
        );
    }

    #[test]
    fn fast_recovery_inflation_allows_new_data() {
        let mut s = sender();
        s.start(t(0));
        for i in 1..=8u64 {
            s.ack(t(i * 10), Ack::plain(i));
        }
        let una = s.snd_una();
        s.ack(t(200), Ack::plain(una));
        s.ack(t(201), Ack::plain(una));
        s.ack(t(202), Ack::plain(una)); // fast retransmit
                                        // Further dupacks inflate and eventually release new segments.
        let mut released = 0;
        for k in 0..10 {
            released += s.ack(t(210 + k), Ack::plain(una)).segments.len();
        }
        assert!(released > 0, "window inflation never released data");
    }

    #[test]
    fn ack_beyond_snd_nxt_ignored() {
        let mut s = sender();
        s.start(t(0));
        let out = s.ack(t(1), Ack::plain(999));
        assert!(out.segments.is_empty());
        assert_eq!(s.snd_una(), 0);
    }

    /// Grows the window to ~9 and leaves `flight == 8` outstanding.
    fn warmed(style: RenoStyle) -> Sender {
        warmed_with(style, CcAlgorithm::Reno)
    }

    fn warmed_with(style: RenoStyle, cc: CcAlgorithm) -> Sender {
        let mut s = Sender::new(SenderConfig {
            style,
            cc,
            ..SenderConfig::default()
        });
        s.start(t(0));
        for i in 1..=8u64 {
            s.ack(t(i * 10), Ack::plain(i));
        }
        s
    }

    fn dupack_n(s: &mut Sender, una: Seq, n: u64, base_ms: u64) -> Vec<Segment> {
        let mut sent = Vec::new();
        for k in 0..n {
            sent.extend(s.ack(t(base_ms + k), Ack::plain(una)).segments);
        }
        sent
    }

    #[test]
    fn tahoe_td_collapses_to_slow_start() {
        let mut s = warmed(RenoStyle::Tahoe);
        let una = s.snd_una();
        let sent = dupack_n(&mut s, una, 3, 200);
        assert_eq!(sent.len(), 1);
        assert!(sent[0].retransmit);
        assert_eq!(s.congestion().window(), 1, "Tahoe collapses the window");
        assert!(!s.congestion().in_fast_recovery());
        assert!(s.congestion().in_slow_start());
        assert_eq!(s.stats.td_events, 1);
        // Further dupacks do nothing.
        assert!(dupack_n(&mut s, una, 3, 210).is_empty());
    }

    #[test]
    fn newreno_partial_ack_repairs_next_hole_in_recovery() {
        let mut s = warmed_with(RenoStyle::Reno, CcAlgorithm::NewReno);
        let una = s.snd_una();
        let snd_nxt = s.snd_nxt();
        dupack_n(&mut s, una, 3, 200); // enter recovery, retransmit head
        assert!(s.congestion().in_fast_recovery());
        // Partial ACK: advances but below `recover` (= snd_nxt at entry).
        let out = s.ack(t(400), Ack::plain(una + 2));
        assert!(
            s.congestion().in_fast_recovery(),
            "partial ACK must not exit"
        );
        assert_eq!(
            out.segments.len(),
            1,
            "partial ACK retransmits the next hole"
        );
        assert!(out.segments[0].retransmit);
        assert_eq!(out.segments[0].seq, una + 2);
        assert_eq!(s.stats.td_events, 1, "one indication for the whole episode");
        // Full ACK ends recovery.
        s.ack(t(500), Ack::plain(snd_nxt));
        assert!(!s.congestion().in_fast_recovery());
    }

    #[test]
    fn reno_by_contrast_exits_on_any_new_ack() {
        let mut s = warmed(RenoStyle::Reno);
        let una = s.snd_una();
        dupack_n(&mut s, una, 3, 200);
        assert!(s.congestion().in_fast_recovery());
        s.ack(t(400), Ack::plain(una + 2));
        assert!(
            !s.congestion().in_fast_recovery(),
            "plain Reno exits on a partial ACK"
        );
    }

    #[test]
    fn sack_repairs_multiple_holes_in_one_episode() {
        // warmed(): snd_una = 8, snd_nxt = 17, flight = 9.
        // Losses at 8, 9 and 12; the receiver holds 10–11 and 13–16.
        let mut s = warmed(RenoStyle::Sack);
        let una = s.snd_una();
        let end = s.snd_nxt();
        assert_eq!((una, end), (8, 17));
        let sack = crate::packet::SackBlocks::from_ranges([(10, 12), (13, 17)]);
        let mut sent = Vec::new();
        for k in 0..3u64 {
            sent.extend(s.ack(t(200 + k), Ack { ack: una, sack }).segments);
        }
        assert_eq!(s.stats.td_events, 1);
        let retx: Vec<Seq> = sent
            .iter()
            .filter(|g| g.retransmit)
            .map(|g| g.seq)
            .collect();
        assert!(
            retx.contains(&8) && retx.contains(&9),
            "entry repairs head holes: {retx:?}"
        );
        // Repairs 8 and 9 arrive; with 10–11 already held the cumulative
        // ACK jumps to 12 — a partial ACK (recover = 17).
        let out = s.ack(
            t(400),
            Ack {
                ack: 12,
                sack: crate::packet::SackBlocks::from_ranges([(13, 17)]),
            },
        );
        assert!(
            s.congestion().in_fast_recovery(),
            "partial ACK keeps recovery open"
        );
        sent.extend(out.segments);
        let retx: std::collections::BTreeSet<Seq> = sent
            .iter()
            .filter(|g| g.retransmit)
            .map(|g| g.seq)
            .collect();
        assert!(
            retx.contains(&12),
            "hole 12 repaired on the partial ACK: {retx:?}"
        );
        // No hole repaired twice across the whole episode.
        let all: Vec<Seq> = sent
            .iter()
            .filter(|g| g.retransmit)
            .map(|g| g.seq)
            .collect();
        let uniq: std::collections::BTreeSet<&Seq> = all.iter().collect();
        assert_eq!(all.len(), uniq.len(), "duplicate hole repairs: {all:?}");
        // The full ACK closes the episode: one TD indication total.
        s.ack(t(500), Ack::plain(end));
        assert!(!s.congestion().in_fast_recovery());
        assert_eq!(
            s.stats.td_events, 1,
            "one reduction for a three-loss window"
        );
    }

    #[test]
    fn sack_exits_on_full_ack_and_cleans_state() {
        let mut s = warmed(RenoStyle::Sack);
        let una = s.snd_una();
        let end = s.snd_nxt();
        let sack = crate::packet::SackBlocks::from_ranges([(una + 2, end)]);
        for k in 0..3u64 {
            s.ack(t(200 + k), Ack { ack: una, sack });
        }
        assert!(s.congestion().in_fast_recovery());
        s.ack(t(300), Ack::plain(end));
        assert!(!s.congestion().in_fast_recovery());
        assert!(!s.is_complete());
        // New data flows again.
        let out = s.ack(t(400), Ack::plain(s.snd_nxt()));
        let _ = out;
    }

    #[test]
    fn finite_flow_stops_at_limit_and_completes() {
        let config = SenderConfig {
            data_limit: Some(3),
            ..SenderConfig::default()
        };
        let mut s = Sender::new(config);
        let out = s.start(t(0));
        assert_eq!(out.segments.len(), 1); // initial cwnd 1
        assert!(!s.is_complete());
        let out = s.ack(t(100), Ack::plain(1));
        assert_eq!(
            out.segments.len(),
            2,
            "window grows to 2, both remaining packets go"
        );
        assert_eq!(s.snd_nxt(), 3);
        // No more new data even as the window opens further.
        let out = s.ack(t(200), Ack::plain(2));
        assert!(out.segments.is_empty());
        assert!(!s.is_complete());
        s.ack(t(300), Ack::plain(3));
        assert!(s.is_complete());
        assert_eq!(s.completed_at(), Some(t(300)));
    }

    #[test]
    fn finite_flow_retransmits_tail_loss() {
        let config = SenderConfig {
            data_limit: Some(2),
            ..SenderConfig::default()
        };
        let mut s = Sender::new(config);
        s.start(t(0));
        s.ack(t(100), Ack::plain(1)); // sends seq 1
                                      // Seq 1 lost: RTO fires, retransmits it.
        let out = s.fire_rto(t(4000));
        assert_eq!(out.segments.len(), 1);
        assert!(out.segments[0].retransmit);
        assert_eq!(out.segments[0].seq, 1);
        s.ack(t(4200), Ack::plain(2));
        assert!(s.is_complete());
    }

    #[test]
    fn completed_flow_rto_does_not_rearm() {
        let config = SenderConfig {
            data_limit: Some(1),
            ..SenderConfig::default()
        };
        let mut s = Sender::new(config);
        s.start(t(0));
        s.ack(t(100), Ack::plain(1));
        assert!(s.is_complete());
        let out = s.fire_rto(t(5000));
        assert!(out.segments.is_empty());
        assert_eq!(out.timer, TimerCmd::Keep, "timer must die after completion");
    }

    #[test]
    fn infinite_source_never_completes() {
        let mut s = sender();
        s.start(t(0));
        for i in 1..100u64 {
            s.ack(t(i * 10), Ack::plain(i));
        }
        assert!(!s.is_complete());
        assert!(s.completed_at().is_none());
    }

    #[test]
    fn new_ack_exits_fast_recovery() {
        let mut s = sender();
        s.start(t(0));
        for i in 1..=8u64 {
            s.ack(t(i * 10), Ack::plain(i));
        }
        let una = s.snd_una();
        for k in 0..3 {
            s.ack(t(200 + k), Ack::plain(una));
        }
        assert!(s.congestion().in_fast_recovery());
        s.ack(t(300), Ack::plain(s.snd_nxt()));
        assert!(!s.congestion().in_fast_recovery());
    }
}
