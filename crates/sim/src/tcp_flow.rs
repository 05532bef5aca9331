//! The TCP flow core both packet engines run: a [`Sender`] and a
//! [`Receiver`], their pooled outputs (a warm flow allocates nothing per
//! packet) and their timer generations. [`crate::connection::Connection`]
//! and [`crate::network::Network`] differ only in what lies between the
//! endpoints, so each hands the core its own [`Wire`] and the core writes
//! the glue once.
//!
//! Both engines arm the two timers in the flow's superseding timer slots
//! ([`crate::event::HybridQueue`]), so a re-armed timer never fires. The
//! core still drops a firing whose generation is not the live one: a
//! cancelled delayed ACK bumps its generation but stays in its slot, and
//! the generations are part of a connection's checkpoint bytes.

use crate::packet::{Ack, SackBlocks, Segment, Seq};
use crate::receiver::{DelAckTimer, Receiver, ReceiverConfig, ReceiverOutput};
use crate::reno::sender::{Sender, SenderConfig, SenderOutput, TimerCmd};
use crate::stats::ConnStats;
use crate::time::SimTime;
use pftk_snap::{SnapError, SnapReader, SnapResult, SnapWriter};

/// What lies between a flow's endpoints: it schedules segments, ACKs and
/// the two timers as [`Ev`]s.
pub(crate) trait Wire {
    /// Puts `seg`, just sent by `sender`, on the wire at `now`; `true` if
    /// the wire dropped it on the way (the core counts it).
    fn send_segment(&mut self, now: SimTime, seg: Segment, sender: &Sender) -> bool;
    /// Puts `ack` on the wire at `now`.
    fn send_ack(&mut self, now: SimTime, ack: Ack);
    /// An [`Ev::AckArrive`] is due at the sender: the ACK it carries, its
    /// SACK ranges taken back from where [`Self::send_ack`] parked them.
    fn ack_arrived(&mut self, now: SimTime, ack: Seq, sack: u32) -> Ack;
    /// Schedules [`Ev::Rto`]`(gen)` at `at`.
    fn arm_rto(&mut self, at: SimTime, gen: u64);
    /// Schedules [`Ev::DelAck`]`(gen)` at `at`.
    fn arm_delack(&mut self, at: SimTime, gen: u64);
}

/// A pending event of one flow. Each is 16 bytes: an ACK's SACK ranges
/// (48 bytes inline in an [`Ack`]) wait in a [`SackSlab`] and the event
/// holds their handle.
#[derive(Debug)]
pub(crate) enum Ev {
    DataArrive { seq: Seq, retransmit: bool },
    AckArrive { ack: Seq, sack: u32 },
    Rto(u64),
    DelAck(u64),
}

impl Ev {
    /// Payload codec for queue snapshots: a one-byte discriminant, then the
    /// variant's fields. An ACK writes its ranges, looked up in `sacks`.
    pub(crate) fn snapshot_into(&self, sacks: &SackSlab, w: &mut SnapWriter) {
        match *self {
            Ev::DataArrive { seq, retransmit } => {
                w.put_u8(0);
                w.put_u64(seq);
                w.put_bool(retransmit);
            }
            Ev::AckArrive { ack, sack } => {
                w.put_u8(1);
                w.put_u64(ack);
                sacks.get(sack).snapshot_into(w);
            }
            Ev::Rto(gen) => {
                w.put_u8(2);
                w.put_u64(gen);
            }
            Ev::DelAck(gen) => {
                w.put_u8(3);
                w.put_u64(gen);
            }
        }
    }

    /// Reads an event written by [`Self::snapshot_into`], parking an ACK's
    /// ranges in `sacks`.
    pub(crate) fn restore_from(r: &mut SnapReader<'_>, sacks: &mut SackSlab) -> SnapResult<Ev> {
        match r.get_u8()? {
            0 => Ok(Ev::DataArrive {
                seq: r.get_u64()?,
                retransmit: r.get_bool()?,
            }),
            1 => Ok(Ev::AckArrive {
                ack: r.get_u64()?,
                sack: sacks.put(SackBlocks::restore_from(r)?),
            }),
            2 => Ok(Ev::Rto(r.get_u64()?)),
            3 => Ok(Ev::DelAck(r.get_u64()?)),
            _ => Err(SnapError::Invalid("event payload discriminant")),
        }
    }
}

/// The SACK ranges of the ACK events in flight, out of line so that an
/// event stays small. An event holds a handle: 0 is the empty set, which
/// takes no slot, so an ACK without SACK ranges never touches the slab;
/// handle `h > 0` names slot `h - 1`. A taken slot joins a free list and
/// is reused, so the slab grows only to the high-water mark of
/// SACK-bearing ACKs in flight.
#[derive(Debug, Default)]
pub(crate) struct SackSlab {
    slots: Vec<SackSlot>,
    /// The handle of the most recently freed slot, whose link names the
    /// next free one.
    free: Option<u32>,
}

#[derive(Debug, Clone, Copy)]
enum SackSlot {
    Held(SackBlocks),
    Free(Option<u32>),
}

impl SackSlab {
    /// The slot index of a handle; `None` for the empty set.
    #[inline]
    fn index(handle: u32) -> Option<usize> {
        usize::try_from(handle.checked_sub(1)?).ok()
    }

    /// Parks `blocks`, returning their handle.
    #[inline]
    pub(crate) fn put(&mut self, blocks: SackBlocks) -> u32 {
        if blocks.is_empty() {
            return 0;
        }
        if let Some(handle) = self.free {
            if let Some(slot) = Self::index(handle).and_then(|i| self.slots.get_mut(i)) {
                if let SackSlot::Free(next) = *slot {
                    *slot = SackSlot::Held(blocks);
                    self.free = next;
                    return handle;
                }
            }
        }
        //~ allow(hot_alloc): slots are reused through the free list; the slab grows only to the SACK-bearing ACKs in flight
        self.slots.push(SackSlot::Held(blocks));
        u32::try_from(self.slots.len()).unwrap_or(0)
    }

    /// Takes the ranges of `handle` out and frees its slot.
    #[inline]
    pub(crate) fn take(&mut self, handle: u32) -> SackBlocks {
        let next = self.free;
        let Some(slot) = Self::index(handle).and_then(|i| self.slots.get_mut(i)) else {
            return SackBlocks::EMPTY;
        };
        let SackSlot::Held(blocks) = *slot else {
            return SackBlocks::EMPTY;
        };
        *slot = SackSlot::Free(next);
        self.free = Some(handle);
        blocks
    }

    /// The ranges of `handle`, left in place.
    fn get(&self, handle: u32) -> SackBlocks {
        match Self::index(handle).and_then(|i| self.slots.get(i)) {
            Some(SackSlot::Held(blocks)) => *blocks,
            _ => SackBlocks::EMPTY,
        }
    }

    /// Drops every parked range (the queue they belonged to was emptied).
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.free = None;
    }
}

/// One TCP flow's endpoints and the glue between them and a [`Wire`].
#[derive(Debug)]
pub(crate) struct TcpFlow {
    pub(crate) sender: Sender,
    pub(crate) receiver: Receiver,
    /// Generation of the live RTO deadline; a firing of any other is stale.
    pub(crate) rto_gen: u64,
    /// Generation of the live delayed-ACK deadline.
    pub(crate) delack_gen: u64,
    /// Pooled sender-output scratch: dead between events (each one resets
    /// and refills it before it is read), so snapshots leave it out.
    sender_out: SenderOutput,
    /// Pooled receiver-output scratch.
    receiver_out: ReceiverOutput,
}

impl TcpFlow {
    /// A flow whose receiver runs the options `sender` negotiates.
    pub(crate) fn new(sender: SenderConfig, receiver: ReceiverConfig) -> Self {
        TcpFlow {
            sender: Sender::new(sender),
            receiver: Receiver::new(receiver.negotiated_with(sender.style)),
            rto_gen: 0,
            delack_gen: 0,
            sender_out: SenderOutput::default(),
            receiver_out: ReceiverOutput::default(),
        }
    }

    /// Sends the initial window at `now` and arms the RTO.
    pub(crate) fn start<W: Wire>(&mut self, now: SimTime, wire: &mut W) {
        self.sender.on_start_into(now, &mut self.sender_out);
        self.emit_sender(now, wire);
    }

    /// Handles one of this flow's events, due at `now`.
    #[inline]
    pub(crate) fn handle<W: Wire>(&mut self, now: SimTime, ev: Ev, wire: &mut W) {
        match ev {
            Ev::DataArrive { seq, retransmit } => {
                let seg = Segment { seq, retransmit };
                let out = &mut self.receiver_out;
                self.receiver.on_segment_into(now, seg, out);
                self.emit_receiver(now, wire);
            }
            Ev::AckArrive { ack, sack } => {
                let ack = wire.ack_arrived(now, ack, sack);
                self.sender.on_ack_into(now, ack, &mut self.sender_out);
                self.emit_sender(now, wire);
            }
            Ev::Rto(gen) => {
                if gen == self.rto_gen {
                    self.sender.on_rto_into(now, &mut self.sender_out);
                    self.emit_sender(now, wire);
                }
            }
            Ev::DelAck(gen) => {
                if gen == self.delack_gen {
                    self.receiver.on_delack_into(&mut self.receiver_out);
                    self.emit_receiver(now, wire);
                }
            }
        }
    }

    /// Ground truth: the sender's counters plus the receiver's delivery
    /// count.
    pub(crate) fn stats(&self) -> ConnStats {
        let mut s = self.sender.stats.clone();
        s.packets_delivered = self.receiver.distinct_received();
        s
    }

    /// Flushes end-of-run bookkeeping (an open timeout sequence).
    pub(crate) fn finish(&mut self) {
        self.sender.finish();
    }

    /// Puts the sender's output on the wire. The scratch output is read in
    /// place: every other field this touches is a different one.
    fn emit_sender<W: Wire>(&mut self, now: SimTime, wire: &mut W) {
        for &seg in &self.sender_out.segments {
            if wire.send_segment(now, seg, &self.sender) {
                self.sender.stats.packets_dropped += 1;
            }
        }
        if let TimerCmd::Arm(at) = self.sender_out.timer {
            self.rto_gen += 1;
            wire.arm_rto(at, self.rto_gen);
        }
    }

    /// Puts the receiver's output on the wire, reading the scratch output
    /// in place like [`Self::emit_sender`].
    fn emit_receiver<W: Wire>(&mut self, now: SimTime, wire: &mut W) {
        for &ack in &self.receiver_out.acks {
            wire.send_ack(now, ack);
        }
        match self.receiver_out.timer {
            DelAckTimer::Keep => {}
            DelAckTimer::Arm(at) => {
                self.delack_gen += 1;
                wire.arm_delack(at, self.delack_gen);
            }
            DelAckTimer::Cancel => self.delack_gen += 1,
        }
    }
}
