//! The TCP receiver: cumulative ACKs, delayed ACKs, duplicate ACKs.
//!
//! Matches the behaviour the paper assumes: one cumulative ACK per `b`
//! consecutive in-order packets (delayed ACK, `b = 2` typically), a
//! standalone delayed-ACK timer so an odd final segment is still
//! acknowledged, and an *immediate* duplicate ACK for every out-of-order
//! segment ("these ACK's are not delayed", §II-B).

use crate::packet::{Ack, SackBlocks, Segment, Seq};
use crate::reno::sender::RenoStyle;
use crate::time::{SimDuration, SimTime};
use pftk_snap::{SnapError, SnapReader, SnapResult, SnapWriter};

/// What the connection layer should do with the delayed-ACK timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DelAckTimer {
    /// Leave as is.
    #[default]
    Keep,
    /// Arm (or re-arm) to fire at the instant.
    Arm(SimTime),
    /// Cancel any pending firing.
    Cancel,
}

/// The receiver's reaction to an input.
///
/// The `*_into` event entry points fill a caller-owned instance, so a hot
/// loop reuses one allocation for the whole run; see
/// [`ReceiverOutput::reset`].
#[derive(Debug, Clone, Default)]
pub struct ReceiverOutput {
    /// ACKs to send, in order.
    pub acks: Vec<Ack>,
    /// Delayed-ACK timer instruction.
    pub timer: DelAckTimer,
}

impl ReceiverOutput {
    /// Empties the output for reuse, keeping the ACK buffer's capacity.
    pub fn reset(&mut self) {
        self.acks.clear();
        self.timer = DelAckTimer::Keep;
    }
}

/// Receiver tunables.
#[derive(Debug, Clone, Copy)]
pub struct ReceiverConfig {
    /// ACK every `b`-th in-order segment (1 = ACK everything, 2 = delayed
    /// ACKs as in most stacks).
    pub ack_every: u32,
    /// Standalone delayed-ACK timer (RFC: at most 500 ms; common: 200 ms).
    pub delack_timeout: SimDuration,
    /// Attach RFC 2018 SACK blocks to ACKs (needed by SACK senders).
    pub sack: bool,
}

impl Default for ReceiverConfig {
    fn default() -> Self {
        ReceiverConfig {
            ack_every: 2,
            delack_timeout: SimDuration::from_millis(200),
            sack: false,
        }
    }
}

impl ReceiverConfig {
    /// The receiver a sender of `style` runs against: a SACK sender is
    /// useless without a SACK-reporting receiver, so SACK is enabled
    /// implicitly (mirrors the SYN-time option negotiation).
    pub(crate) fn negotiated_with(mut self, style: RenoStyle) -> Self {
        self.sack |= style == RenoStyle::Sack;
        self
    }
}

/// TCP receiver state.
#[derive(Debug)]
pub struct Receiver {
    config: ReceiverConfig,
    /// Next expected in-order sequence number.
    rcv_nxt: Seq,
    /// Out-of-order segments held for reassembly: a sorted, deduplicated
    /// `Vec` rather than a `BTreeSet` — the reassembly buffer is bounded
    /// by the flight window, and a `Vec` keeps its capacity across loss
    /// episodes where a B-tree re-allocates nodes on every deep episode,
    /// which would break the hot path's steady-state zero-allocation
    /// guarantee.
    ooo: Vec<Seq>,
    /// In-order segments received since the last ACK went out.
    unacked: u32,
    /// Most recently buffered out-of-order sequence (for SACK block order).
    last_ooo: Option<Seq>,
    /// Distinct data packets received (in-order or buffered) — the paper's
    /// §V "throughput" numerator.
    distinct_received: u64,
}

impl Receiver {
    /// A fresh receiver expecting sequence 0.
    pub fn new(config: ReceiverConfig) -> Self {
        Receiver {
            config,
            rcv_nxt: 0,
            ooo: Vec::new(),
            unacked: 0,
            last_ooo: None,
            distinct_received: 0,
        }
    }

    /// Next expected sequence number.
    pub fn rcv_nxt(&self) -> Seq {
        self.rcv_nxt
    }

    /// Distinct data packets that have arrived (§V throughput counter).
    pub fn distinct_received(&self) -> u64 {
        self.distinct_received
    }

    /// Writes the receiver's mutable state. The config contributes shape
    /// tags only: restore requires an identically-configured receiver.
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_tag(u64::from(self.config.ack_every));
        w.put_tag(u64::from(self.config.sack));
        w.put_u64(self.rcv_nxt);
        w.put_usize(self.ooo.len());
        for seq in &self.ooo {
            w.put_u64(*seq);
        }
        w.put_u32(self.unacked);
        match self.last_ooo {
            Some(seq) => {
                w.put_bool(true);
                w.put_u64(seq);
            }
            None => w.put_bool(false),
        }
        w.put_u64(self.distinct_received);
    }

    /// Reads state written by [`Self::snapshot_into`]; fails with
    /// [`SnapError::TagMismatch`] if this receiver's config differs from the
    /// snapshotted one.
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        r.expect_tag("receiver-ack-every", u64::from(self.config.ack_every))?;
        r.expect_tag("receiver-sack", u64::from(self.config.sack))?;
        self.rcv_nxt = r.get_u64()?;
        let n = r.get_usize()?;
        self.ooo.clear();
        self.ooo.reserve(n);
        for _ in 0..n {
            self.ooo.push(r.get_u64()?);
        }
        if self
            .ooo
            .iter()
            .zip(self.ooo.iter().skip(1))
            .any(|(a, b)| a >= b)
        {
            return Err(SnapError::Invalid("receiver ooo buffer not sorted"));
        }
        self.unacked = r.get_u32()?;
        self.last_ooo = if r.get_bool()? {
            Some(r.get_u64()?)
        } else {
            None
        };
        self.distinct_received = r.get_u64()?;
        Ok(())
    }

    /// The cumulative ACK for the current state, with SACK blocks when
    /// enabled: contiguous out-of-order ranges, the one holding the most
    /// recent arrival first (RFC 2018's ordering).
    fn make_ack(&self) -> Ack {
        if !self.config.sack || self.ooo.is_empty() {
            return Ack::plain(self.rcv_nxt);
        }
        // Most-recent range first (RFC 2018), then the rest in buffer
        // order; `from_ranges` truncates at the block capacity. Two
        // coalescing passes over the (window-bounded) buffer instead of
        // materializing the ranges keeps this allocation-free.
        let recent = self
            .last_ooo
            .and_then(|last| self.coalesced().find(|&(s, e)| (s..e).contains(&last)));
        let rest = self.coalesced().filter(|r| Some(*r) != recent);
        Ack {
            ack: self.rcv_nxt,
            sack: SackBlocks::from_ranges(recent.into_iter().chain(rest)),
        }
    }

    /// The buffered out-of-order sequences (sorted, distinct) coalesced
    /// into contiguous `[start, end)` ranges, yielded without
    /// materializing them.
    fn coalesced(&self) -> impl Iterator<Item = (Seq, Seq)> + '_ {
        let mut i = 0;
        std::iter::from_fn(move || {
            let start = *self.ooo.get(i)?;
            let mut end = start + 1;
            i += 1;
            while self.ooo.get(i) == Some(&end) {
                end += 1;
                i += 1;
            }
            Some((start, end))
        })
    }

    /// Handles an arriving data segment. Resets and fills the caller-owned
    /// `out`.
    //= pftk#delack-b
    pub fn on_segment_into(&mut self, now: SimTime, seg: Segment, out: &mut ReceiverOutput) {
        out.reset();
        if seg.seq == self.rcv_nxt {
            // In-order: advance, absorb any contiguous buffered segments.
            self.distinct_received += 1;
            self.rcv_nxt += 1;
            let mut absorbed = 0;
            //~ allow(hot_panic): index guarded by the len test on its left
            while absorbed < self.ooo.len() && self.ooo[absorbed] == self.rcv_nxt {
                self.rcv_nxt += 1;
                absorbed += 1;
            }
            if absorbed > 0 {
                self.ooo.drain(..absorbed);
            }
            self.unacked += 1;
            if self.unacked >= self.config.ack_every {
                self.unacked = 0;
                out.acks.push(self.make_ack()); //~ allow(hot_alloc): caller-owned output pool; capacity persists across reset
                out.timer = DelAckTimer::Cancel;
            } else {
                out.timer = DelAckTimer::Arm(now + self.config.delack_timeout);
            }
        } else if seg.seq > self.rcv_nxt {
            // A gap: buffer and emit an immediate duplicate ACK.
            if let Err(pos) = self.ooo.binary_search(&seg.seq) {
                self.ooo.insert(pos, seg.seq); //~ allow(hot_alloc): out-of-order buffer bounded by the receive window
                self.distinct_received += 1;
            }
            self.last_ooo = Some(seg.seq);
            self.unacked = 0;
            out.acks.push(self.make_ack()); //~ allow(hot_alloc): caller-owned output pool; capacity persists across reset
            out.timer = DelAckTimer::Cancel;
        } else {
            // Below rcv_nxt: a spurious retransmission; re-ACK immediately
            // so the sender can resynchronize.
            self.unacked = 0;
            out.acks.push(self.make_ack()); //~ allow(hot_alloc): caller-owned output pool; capacity persists across reset
            out.timer = DelAckTimer::Cancel;
        }
    }

    /// The delayed-ACK timer fired: flush the pending acknowledgment.
    /// Resets and fills the caller-owned `out`.
    pub fn on_delack_into(&mut self, out: &mut ReceiverOutput) {
        out.reset();
        if self.unacked > 0 {
            self.unacked = 0;
            out.acks.push(self.make_ack()); //~ allow(hot_alloc): caller-owned output pool; capacity persists across reset
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-only allocating forms of the event entry points: each fills a
    /// fresh output through the `_into` form and returns it.
    trait Drive {
        fn segment(&mut self, now: SimTime, seg: Segment) -> ReceiverOutput;
        fn fire_delack(&mut self) -> ReceiverOutput;
    }

    impl Drive for Receiver {
        fn segment(&mut self, now: SimTime, seg: Segment) -> ReceiverOutput {
            let mut out = ReceiverOutput::default();
            self.on_segment_into(now, seg, &mut out);
            out
        }

        fn fire_delack(&mut self) -> ReceiverOutput {
            let mut out = ReceiverOutput::default();
            self.on_delack_into(&mut out);
            out
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn seg(seq: Seq) -> Segment {
        Segment {
            seq,
            retransmit: false,
        }
    }

    fn rx() -> Receiver {
        Receiver::new(ReceiverConfig::default())
    }

    #[test]
    fn delayed_ack_every_second_segment() {
        let mut r = rx();
        let out = r.segment(t(0), seg(0));
        assert!(out.acks.is_empty(), "first segment held for delack");
        assert!(matches!(out.timer, DelAckTimer::Arm(_)));
        let out = r.segment(t(1), seg(1));
        assert_eq!(out.acks, vec![Ack::plain(2)]);
        assert_eq!(out.timer, DelAckTimer::Cancel);
    }

    #[test]
    fn ack_every_one_acks_immediately() {
        let config = ReceiverConfig {
            ack_every: 1,
            ..ReceiverConfig::default()
        };
        let mut r = Receiver::new(config);
        let out = r.segment(t(0), seg(0));
        assert_eq!(out.acks, vec![Ack::plain(1)]);
    }

    #[test]
    fn delack_timer_flushes_odd_segment() {
        let mut r = rx();
        r.segment(t(0), seg(0));
        let out = r.fire_delack();
        assert_eq!(out.acks, vec![Ack::plain(1)]);
        // Timer with nothing pending is a no-op.
        let out = r.fire_delack();
        assert!(out.acks.is_empty());
    }

    #[test]
    fn out_of_order_triggers_immediate_dupack() {
        let mut r = rx();
        r.segment(t(0), seg(0));
        r.segment(t(1), seg(1)); // rcv_nxt = 2
        let out = r.segment(t(2), seg(3)); // gap at 2
        assert_eq!(out.acks, vec![Ack::plain(2)]);
        let out = r.segment(t(3), seg(4));
        assert_eq!(out.acks, vec![Ack::plain(2)], "every OOO segment dupacks");
    }

    #[test]
    fn gap_fill_jumps_cumulative_ack() {
        let mut r = rx();
        r.segment(t(0), seg(0));
        r.segment(t(1), seg(1));
        r.segment(t(2), seg(3));
        r.segment(t(3), seg(4));
        // Filling the hole at 2 advances past everything buffered.
        let out = r.segment(t(4), seg(2));
        assert_eq!(r.rcv_nxt(), 5);
        // In-order arrival counts toward delack; with ack_every=2 the count
        // was reset by the OOO arrivals, so this is the 1st unacked → held.
        assert!(out.acks.is_empty());
        assert!(matches!(out.timer, DelAckTimer::Arm(_)));
    }

    #[test]
    fn spurious_retransmission_reacked() {
        let mut r = rx();
        r.segment(t(0), seg(0));
        r.segment(t(1), seg(1));
        let out = r.segment(t(2), seg(0));
        assert_eq!(out.acks, vec![Ack::plain(2)]);
    }

    #[test]
    fn distinct_received_ignores_duplicates() {
        let mut r = rx();
        r.segment(t(0), seg(0));
        r.segment(t(1), seg(2));
        r.segment(t(2), seg(2)); // duplicate OOO
        r.segment(t(3), seg(0)); // duplicate old
        assert_eq!(r.distinct_received(), 2);
    }

    #[test]
    fn sack_blocks_report_ooo_ranges() {
        let config = ReceiverConfig {
            sack: true,
            ..ReceiverConfig::default()
        };
        let mut r = Receiver::new(config);
        r.segment(t(0), seg(0)); // rcv_nxt = 1
                                 // Hole at 1; buffer 2,3 and 5.
        r.segment(t(1), seg(2));
        r.segment(t(2), seg(3));
        let out = r.segment(t(3), seg(5));
        let ack = out.acks[0];
        assert_eq!(ack.ack, 1);
        // Most recent range (5..6) first, then (2..4).
        assert_eq!(ack.sack.ranges(), &[(5, 6), (2, 4)]);
    }

    #[test]
    fn sack_disabled_by_default() {
        let mut r = rx();
        r.segment(t(0), seg(0));
        let out = r.segment(t(1), seg(3));
        assert!(out.acks[0].sack.is_empty());
    }

    #[test]
    fn sack_blocks_clear_after_hole_fills() {
        let config = ReceiverConfig {
            sack: true,
            ack_every: 1,
            ..ReceiverConfig::default()
        };
        let mut r = Receiver::new(config);
        r.segment(t(0), seg(0));
        r.segment(t(1), seg(2)); // hole at 1
        let out = r.segment(t(2), seg(1)); // fills it
        let ack = out.acks[0];
        assert_eq!(ack.ack, 3);
        assert!(ack.sack.is_empty(), "no OOO data left");
    }

    #[test]
    fn long_in_order_run_acks_half() {
        let mut r = rx();
        let mut acks = 0;
        for i in 0..100 {
            acks += r.segment(t(i), seg(i)).acks.len();
        }
        assert_eq!(acks, 50, "b=2 means one ACK per two segments");
        assert_eq!(r.rcv_nxt(), 100);
        assert_eq!(r.distinct_received(), 100);
    }
}
