//! The discrete-event engine: a time-ordered queue with stable FIFO
//! tie-breaking.
//!
//! Sans-I/O design: the engine owns nothing but `(time, payload)` pairs; all
//! protocol state lives in the simulator that pops events and schedules new
//! ones. Two events at the same instant pop in the order they were
//! scheduled, which keeps runs deterministic.
//!
//! [`HybridQueue`] realizes the total order ascending `(time, insertion
//! id)` with one global id counter, from three kinds of storage:
//!
//! * per-direction monotone [`VecDeque`] lanes for link arrivals
//!   ([`Lane::Data`]/[`Lane::Ack`]): an append is O(1) whenever its time is
//!   not before the lane tail, and a push that would break the lane's order
//!   (a fault-plan delay spike) overflows to the heap;
//! * single-slot timer lanes ([`Lane::Rto`]/[`Lane::DelAck`]), where a
//!   schedule *supersedes* the pending entry, because a connection has at
//!   most one live deadline per timer kind;
//! * a small heap for the overflow.
//!
//! Each lane stays sorted by `(time, id)`, and a pop takes the minimum over
//! the lane heads, the timer slots and the heap top. A superseded timer
//! therefore never becomes an event; that is the one observable difference
//! from a plain `(time, id)` heap. A simulator that schedules only on the
//! arrival lanes sees exactly the heap's order: [`crate::network`] does,
//! for timers too, and the TCP flow core it shares with
//! [`crate::connection`] drops the stale firings by generation.

use crate::time::SimTime;
use pftk_snap::{SnapError, SnapReader, SnapResult, SnapWriter};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Which scheduling lane an event belongs to.
///
/// The lanes exploit the per-direction FIFO ordering of link arrivals and
/// the one-live-deadline nature of the protocol timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Data-direction link arrivals (sender → receiver): monotone
    /// per-path, eligible for the O(1) deque lane.
    Data,
    /// ACK-direction link arrivals (receiver → sender): monotone
    /// per-path, eligible for the O(1) deque lane.
    Ack,
    /// The retransmission-timeout timer: **single-slot** — scheduling
    /// replaces any pending entry in this lane, because re-arming the RTO
    /// supersedes the previous deadline (the simulator would discard its
    /// firing via a generation check anyway).
    Rto,
    /// The delayed-ACK timer: single-slot, like [`Lane::Rto`].
    DelAck,
}

/// The event engine's interface: schedule on a lane, pop in `(time, id)`
/// order.
pub trait EventScheduler<E>: Default {
    /// Schedules `payload` to fire at `at` on the given lane.
    fn schedule(&mut self, lane: Lane, at: SimTime, payload: E);
    /// Removes and returns the earliest event, if any.
    fn pop(&mut self) -> Option<(SimTime, E)>;
    /// Removes and returns the earliest event if it is due at or before
    /// `until`: one pass over the sources, where `peek_time` then `pop`
    /// takes two.
    fn pop_due(&mut self, until: SimTime) -> Option<(SimTime, E)>;
    /// The timestamp of the earliest pending event.
    fn peek_time(&self) -> Option<SimTime>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// True when no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A pending event, ordered by its total-order key `(at, id)`.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    id: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.id) == (other.at, other.id)
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.id).cmp(&(other.at, other.id))
    }
}

/// The event engine: two monotone arrival lanes, two single-slot timer
/// lanes, plus a tiny heap for out-of-order pushes; see the module docs.
#[derive(Debug)]
pub struct HybridQueue<E> {
    data: VecDeque<Entry<E>>,
    ack: VecDeque<Entry<E>>,
    rto: Option<Entry<E>>,
    delack: Option<Entry<E>>,
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_id: u64,
}

impl<E> Default for HybridQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Which source holds the globally earliest event (internal to pop).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Src {
    Data,
    Ack,
    Rto,
    DelAck,
    Heap,
}

impl<E> HybridQueue<E> {
    /// Initial capacity of the arrival lanes and the overflow heap. Lanes
    /// are bounded by packets in flight and the heap by simultaneously
    /// pending out-of-order (fault-delayed) arrivals, both of which
    /// typically peak in the low hundreds; starting warm keeps the
    /// steady-state hot path allocation-free instead of paying amortized
    /// doublings whenever a deep loss episode sets a new high-water mark
    /// mid-run.
    const INITIAL_CAPACITY: usize = 512;

    /// An empty queue (pre-reserved; see `Self::INITIAL_CAPACITY`).
    pub fn new() -> Self {
        HybridQueue {
            data: VecDeque::with_capacity(Self::INITIAL_CAPACITY),
            ack: VecDeque::with_capacity(Self::INITIAL_CAPACITY),
            rto: None,
            delack: None,
            heap: BinaryHeap::with_capacity(Self::INITIAL_CAPACITY),
            next_id: 0,
        }
    }

    /// The time of the earliest pending event, with its source: one
    /// pass over the two lane heads, the two timer slots and the heap top.
    #[inline]
    fn min_key(&self) -> Option<(SimTime, Src)> {
        let mut best: Option<(SimTime, u64, Src)> = None;
        if let Some(front) = self.data.front() {
            best = Some((front.at, front.id, Src::Data));
        }
        if let Some(front) = self.ack.front() {
            if best.is_none_or(|(at, id, _)| (front.at, front.id) < (at, id)) {
                best = Some((front.at, front.id, Src::Ack));
            }
        }
        if let Some(slot) = &self.rto {
            if best.is_none_or(|(at, id, _)| (slot.at, slot.id) < (at, id)) {
                best = Some((slot.at, slot.id, Src::Rto));
            }
        }
        if let Some(slot) = &self.delack {
            if best.is_none_or(|(at, id, _)| (slot.at, slot.id) < (at, id)) {
                best = Some((slot.at, slot.id, Src::DelAck));
            }
        }
        if let Some(Reverse(top)) = self.heap.peek() {
            if best.is_none_or(|(at, id, _)| (top.at, top.id) < (at, id)) {
                best = Some((top.at, top.id, Src::Heap));
            }
        }
        best.map(|(at, _, src)| (at, src))
    }

    /// Removes the head of `src`, the source [`Self::min_key`] named.
    #[inline]
    fn take(&mut self, src: Src) -> Option<(SimTime, E)> {
        match src {
            Src::Data => self.data.pop_front().map(|e| (e.at, e.payload)),
            Src::Ack => self.ack.pop_front().map(|e| (e.at, e.payload)),
            Src::Rto => self.rto.take().map(|e| (e.at, e.payload)),
            Src::DelAck => self.delack.take().map(|e| (e.at, e.payload)),
            Src::Heap => self.heap.pop().map(|Reverse(e)| (e.at, e.payload)),
        }
    }

    /// Writes the queue's full state — every pending event with its
    /// `(time, id)` key plus the id counter — using `enc` to serialize
    /// payloads. Heap entries are emitted sorted by key so the byte
    /// encoding is a pure function of the queue's contents (a `BinaryHeap`'s
    /// internal layout depends on insertion history).
    pub(crate) fn snapshot_into(
        &self,
        w: &mut SnapWriter,
        mut enc: impl FnMut(&E, &mut SnapWriter),
    ) {
        let mut put = |e: &Entry<E>, w: &mut SnapWriter| {
            w.put_u64(e.at.as_nanos());
            w.put_u64(e.id);
            enc(&e.payload, w);
        };
        w.put_u64(self.next_id);
        for lane in [&self.data, &self.ack] {
            w.put_usize(lane.len());
            for e in lane {
                put(e, w);
            }
        }
        for slot in [&self.rto, &self.delack] {
            w.put_bool(slot.is_some());
            if let Some(e) = slot {
                put(e, w);
            }
        }
        let mut entries: Vec<&Entry<E>> = self.heap.iter().map(|Reverse(e)| e).collect();
        entries.sort();
        w.put_usize(entries.len());
        for e in entries {
            put(e, w);
        }
    }

    /// Rebuilds the queue from state written by [`Self::snapshot_into`],
    /// using `dec` to deserialize payloads. Existing contents are
    /// discarded. Lane ordering is validated so a corrupt snapshot yields
    /// an error instead of a queue that pops out of order.
    pub(crate) fn restore_from(
        &mut self,
        r: &mut SnapReader<'_>,
        mut dec: impl FnMut(&mut SnapReader<'_>) -> SnapResult<E>,
    ) -> SnapResult<()> {
        self.data.clear();
        self.ack.clear();
        self.rto = None;
        self.delack = None;
        self.heap.clear();
        self.next_id = r.get_u64()?;
        let mut read_entry = |r: &mut SnapReader<'_>| -> SnapResult<Entry<E>> {
            let at = SimTime::from_nanos(r.get_u64()?);
            let id = r.get_u64()?;
            let payload = dec(r)?;
            Ok(Entry { at, id, payload })
        };
        for lane_idx in 0..2u8 {
            let n = r.get_usize()?;
            for _ in 0..n {
                let e = read_entry(r)?;
                let deque = if lane_idx == 0 {
                    &mut self.data
                } else {
                    &mut self.ack
                };
                if deque.back().is_some_and(|b| e <= *b) {
                    return Err(SnapError::Invalid("event lane not sorted by (time, id)"));
                }
                deque.push_back(e);
            }
        }
        self.rto = if r.get_bool()? {
            Some(read_entry(r)?)
        } else {
            None
        };
        self.delack = if r.get_bool()? {
            Some(read_entry(r)?)
        } else {
            None
        };
        let n = r.get_usize()?;
        for _ in 0..n {
            self.heap.push(Reverse(read_entry(r)?));
        }
        Ok(())
    }
}

impl<E> EventScheduler<E> for HybridQueue<E> {
    #[inline]
    fn schedule(&mut self, lane: Lane, at: SimTime, payload: E) {
        let id = self.next_id;
        self.next_id += 1;
        let deque = match lane {
            Lane::Data => &mut self.data,
            Lane::Ack => &mut self.ack,
            // Single-slot timers: the new deadline supersedes any pending
            // one (which the simulator would have generation-filtered).
            Lane::Rto => {
                self.rto = Some(Entry { at, id, payload });
                return;
            }
            Lane::DelAck => {
                self.delack = Some(Entry { at, id, payload });
                return;
            }
        };
        // The lane stays sorted by (at, id): ids are globally increasing,
        // so appending preserves order whenever time is non-decreasing. A
        // violating push (fault-plan delay landing before the lane tail)
        // overflows to the heap, which handles arbitrary order.
        match deque.back() {
            //~ allow(hot_alloc): overflow lane for out-of-order fault-plan delays; rare by construction
            Some(back) if at < back.at => self.heap.push(Reverse(Entry { at, id, payload })),
            //~ allow(hot_alloc): lane deques reach steady-state capacity; appends amortized O(1)
            _ => deque.push_back(Entry { at, id, payload }),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimTime, E)> {
        let (_, src) = self.min_key()?;
        self.take(src)
    }

    #[inline]
    fn pop_due(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        match self.min_key()? {
            (at, _) if at > until => None,
            (_, src) => self.take(src),
        }
    }

    #[inline]
    fn peek_time(&self) -> Option<SimTime> {
        self.min_key().map(|(at, _)| at)
    }

    #[inline]
    fn len(&self) -> usize {
        self.data.len()
            + self.ack.len()
            + usize::from(self.rto.is_some())
            + usize::from(self.delack.is_some())
            + self.heap.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.data.is_empty()
            && self.ack.is_empty()
            && self.rto.is_none()
            && self.delack.is_none()
            && self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn hybrid_pops_in_time_order_across_lanes() {
        let mut q = HybridQueue::new();
        q.schedule(Lane::Data, t(30), "d30");
        q.schedule(Lane::Rto, t(10), "t10");
        q.schedule(Lane::Ack, t(20), "a20");
        q.schedule(Lane::DelAck, t(15), "k15");
        q.schedule(Lane::Data, t(40), "d40");
        assert_eq!(q.pop(), Some((t(10), "t10")));
        assert_eq!(q.pop(), Some((t(15), "k15")));
        assert_eq!(q.pop(), Some((t(20), "a20")));
        assert_eq!(q.pop(), Some((t(30), "d30")));
        assert_eq!(q.pop(), Some((t(40), "d40")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn hybrid_ties_break_in_schedule_order_across_lanes() {
        let mut q = HybridQueue::new();
        q.schedule(Lane::Data, t(5), 0);
        q.schedule(Lane::Rto, t(5), 1);
        q.schedule(Lane::Ack, t(5), 2);
        q.schedule(Lane::Data, t(5), 3);
        q.schedule(Lane::DelAck, t(5), 4);
        for want in 0..5 {
            assert_eq!(q.pop(), Some((t(5), want)));
        }
    }

    #[test]
    fn hybrid_timer_lanes_are_single_slot() {
        let mut q = HybridQueue::new();
        // Re-arming supersedes: only the latest RTO deadline survives.
        q.schedule(Lane::Rto, t(100), "old-rto");
        q.schedule(Lane::Rto, t(60), "new-rto");
        // The two timer lanes are independent slots.
        q.schedule(Lane::DelAck, t(80), "delack");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(60), "new-rto")));
        assert_eq!(q.pop(), Some((t(80), "delack")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn hybrid_out_of_order_lane_push_overflows_to_heap() {
        let mut q = HybridQueue::new();
        q.schedule(Lane::Data, t(100), "late");
        // Earlier than the lane tail: must divert to the heap, and still
        // pop first.
        q.schedule(Lane::Data, t(50), "early");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(50)));
        assert_eq!(q.pop(), Some((t(50), "early")));
        assert_eq!(q.pop(), Some((t(100), "late")));
    }

    #[test]
    fn hybrid_peek_len_empty() {
        let mut q: HybridQueue<()> = HybridQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Lane::Rto, t(9), ());
        q.schedule(Lane::Ack, t(4), ());
        assert_eq!(q.peek_time(), Some(t(4)));
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    /// `pop_due(until)` is `peek_time` then `pop` in one pass: over random
    /// schedules on all four lanes — monotone arrivals, backwards pushes
    /// that overflow to the heap, re-armed timers that supersede their
    /// slot — interleaved with pops bounded by random horizons (some
    /// before the earliest event, some at it exactly), both forms return
    /// the same `(time, payload)` sequence and leave the same queue.
    #[test]
    fn pop_due_matches_peek_then_pop() {
        for seed in 0..40u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut one_pass = HybridQueue::new();
            let mut two_pass = HybridQueue::new();
            let (mut data_clock, mut ack_clock) = (0u64, 0u64);
            let mut overflowed = 0usize;
            for next in 0..600u32 {
                let (lane, at) = match rng.uniform_u32(0, 9) {
                    0..=1 => {
                        data_clock += rng.uniform_u64(0, 40);
                        (Lane::Data, data_clock)
                    }
                    2..=3 => {
                        ack_clock += rng.uniform_u64(0, 40);
                        (Lane::Ack, ack_clock)
                    }
                    4 => (Lane::Data, rng.uniform_u64(0, data_clock.max(1))),
                    5 => (Lane::Ack, rng.uniform_u64(0, ack_clock.max(1))),
                    6 => (Lane::Rto, rng.uniform_u64(0, 2000)),
                    7 => (Lane::DelAck, rng.uniform_u64(0, 2000)),
                    _ => {
                        let earliest = two_pass.peek_time().map_or(0, SimTime::as_nanos);
                        let until = t(match rng.uniform_u32(0, 2) {
                            0 => earliest.saturating_sub(1),
                            1 => earliest,
                            _ => earliest + rng.uniform_u64(0, 200),
                        });
                        let want = match two_pass.peek_time() {
                            Some(at) if at <= until => EventScheduler::pop(&mut two_pass),
                            _ => None,
                        };
                        assert_eq!(one_pass.pop_due(until), want, "seed {seed}");
                        assert_eq!(one_pass.len(), two_pass.len(), "seed {seed}");
                        continue;
                    }
                };
                let heap_before = one_pass.heap.len();
                one_pass.schedule(lane, t(at), next);
                two_pass.schedule(lane, t(at), next);
                overflowed += one_pass.heap.len() - heap_before;
            }
            assert!(
                overflowed > 0,
                "seed {seed}: no push overflowed to the heap"
            );
            loop {
                let want = EventScheduler::pop(&mut two_pass);
                assert_eq!(one_pass.pop_due(t(u64::MAX)), want, "seed {seed}");
                if want.is_none() {
                    break;
                }
            }
        }
    }

    /// The queue realizes the `(time, id)` total order: a randomized
    /// schedule history (mostly-monotone lanes with occasional backwards
    /// jumps and re-armed timers, interleaved with pops) must pop the same
    /// events in the same order as an ordered map keyed by `(time, id)`.
    /// A timer re-arm removes the superseded key from the map, as the
    /// single-slot lanes do.
    #[test]
    fn hybrid_matches_ordered_model_on_randomized_histories() {
        use std::collections::BTreeMap;

        for seed in 0..20u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut model: BTreeMap<(SimTime, u64), u32> = BTreeMap::new();
            let mut hybrid = HybridQueue::new();
            // Keys of the latest RTO and delayed-ACK entries.
            let mut live_rto: Option<(SimTime, u64)> = None;
            let mut live_delack: Option<(SimTime, u64)> = None;
            let mut data_clock = 0u64;
            let mut ack_clock = 0u64;
            // The payload doubles as the queue's insertion id: both count
            // schedules from zero.
            let mut next = 0u32;
            for _ in 0..400 {
                let op = rng.uniform_u32(0, 10);
                let (lane, at) = match op {
                    // Monotone data arrival.
                    0..=2 => {
                        data_clock += rng.uniform_u64(0, 40);
                        (Lane::Data, data_clock)
                    }
                    // Monotone ACK arrival.
                    3..=5 => {
                        ack_clock += rng.uniform_u64(0, 40);
                        (Lane::Ack, ack_clock)
                    }
                    // Backwards lane push (fault-plan delay spike).
                    6 => (Lane::Data, rng.uniform_u64(0, data_clock.max(1))),
                    // (Re-)arm the RTO timer at an arbitrary instant.
                    7 => (Lane::Rto, rng.uniform_u64(0, 2000)),
                    // (Re-)arm the delayed-ACK timer.
                    8 => (Lane::DelAck, rng.uniform_u64(0, 2000)),
                    // Interleaved pop.
                    _ => {
                        let want = model.pop_first().map(|((at, _), v)| (at, v));
                        assert_eq!(EventScheduler::pop(&mut hybrid), want, "seed {seed}");
                        continue;
                    }
                };
                let key = (t(at), u64::from(next));
                let superseded = match lane {
                    Lane::Rto => live_rto.replace(key),
                    Lane::DelAck => live_delack.replace(key),
                    Lane::Data | Lane::Ack => None,
                };
                if let Some(old) = superseded {
                    model.remove(&old);
                }
                model.insert(key, next);
                hybrid.schedule(lane, t(at), next);
                next += 1;
                assert_eq!(model.len(), EventScheduler::len(&hybrid), "seed {seed}");
            }
            // Drain: the full remaining sequences must agree.
            loop {
                let want = model.pop_first().map(|((at, _), v)| (at, v));
                assert_eq!(EventScheduler::pop(&mut hybrid), want, "seed {seed}");
                if want.is_none() {
                    break;
                }
            }
        }
    }
}
