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
//! * numbered timer slots, each holding at most one pending event: arming
//!   a slot *supersedes* its pending entry, because a flow has at most one
//!   live deadline per timer kind. The entry keeps the id issued when it
//!   was armed. [`Lane::Rto`] and [`Lane::DelAck`] are slots 0 and 1, a
//!   connection's two timers; in [`crate::network`] flow `f` owns slots
//!   `2f` and `2f + 1`. A winner tree over the slots keeps the earliest
//!   one at hand;
//! * a small heap for the overflow.
//!
//! Each lane stays sorted by `(time, id)`, and a pop takes the minimum over
//! the lane heads, the earliest timer slot and the heap top. A superseded
//! timer therefore never becomes an event; that is the one observable
//! difference from a plain `(time, id)` heap. Both packet engines keep
//! every timer in the slots, so the only stale firings left are cancelled
//! delayed ACKs, which wait in their slot and which the TCP flow core
//! drops by generation.

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
    /// The retransmission-timeout timer, timer slot 0: scheduling
    /// replaces any pending entry in the slot, because re-arming the RTO
    /// supersedes the previous deadline.
    Rto,
    /// The delayed-ACK timer, timer slot 1; a slot like [`Lane::Rto`].
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

/// An event's total-order key `(at, id)`.
type Key = (SimTime, u64);

/// The key of an empty timer slot: it sorts after every issued key.
const VACANT: Key = (SimTime::from_nanos(u64::MAX), u64::MAX);

/// A pending event, ordered by its total-order key `(at, id)`.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    id: u64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> Key {
        (self.at, self.id)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        self.key().cmp(&other.key())
    }
}

/// The timer slots: slot `s` holds at most one pending event, and arming
/// it again supersedes that event. A winner tree over the slot keys names
/// the earliest slot, so arming or popping replays the matches on one
/// leaf-to-root path, and stops where a match comes out as before.
#[derive(Debug)]
struct TimerSlots<E> {
    /// Each slot's pending payload. The slot count `n` is a power of two,
    /// at least two.
    payloads: Vec<Option<E>>,
    /// The winner tree, `2n` nodes of `(key, slot)`: node `n + s` is slot
    /// `s` with its key ([`VACANT`] when empty), and node `i` in `1..n`
    /// holds the lesser of its children `2i` and `2i + 1`.
    tree: Vec<(Key, usize)>,
    /// The root, node 1, kept inline so that [`HybridQueue::min_key`]
    /// reads it without following a pointer.
    head: (Key, usize),
    /// Number of armed slots.
    armed: usize,
}

impl<E> TimerSlots<E> {
    /// Two empty slots: a connection's RTO and delayed-ACK timers.
    fn new() -> Self {
        let mut slots = TimerSlots {
            payloads: Vec::new(),
            tree: Vec::new(),
            head: (VACANT, 0),
            armed: 0,
        };
        slots.grow(1);
        slots
    }

    /// Makes room for `slot` (the slot count doubles until it fits) and
    /// replays every match, leaves first.
    #[cold]
    fn grow(&mut self, slot: usize) {
        let (old, n) = (self.payloads.len(), (slot + 1).max(2).next_power_of_two());
        let leaf = |node: usize| match node.checked_sub(n) {
            Some(s) if s < old => self.node(old + s),
            Some(s) => (VACANT, s),
            None => (VACANT, 0),
        };
        //~ allow(hot_alloc): the slots grow once per doubling, to the highest slot a simulator arms (two per flow)
        let tree = (0..2 * n).map(leaf).collect();
        self.tree = tree;
        //~ allow(hot_alloc): grows with the tree, once per doubling
        self.payloads.extend((old..n).map(|_| None));
        for node in (1..n).rev() {
            let winner = self.match_at(node);
            if let Some(stored) = self.tree.get_mut(node) {
                *stored = winner;
            }
        }
        self.head = self.node(1);
    }

    #[inline]
    fn node(&self, node: usize) -> (Key, usize) {
        self.tree.get(node).copied().unwrap_or((VACANT, 0))
    }

    /// The winner at `node`: the child of lesser key.
    #[inline]
    fn match_at(&self, node: usize) -> (Key, usize) {
        let (left, right) = (self.node(2 * node), self.node(2 * node + 1));
        if right.0 < left.0 {
            right
        } else {
            left
        }
    }

    /// Sets `slot`'s key and replays the matches above it. A match that
    /// comes out as before leaves every match above it as it was, so the
    /// walk stops there.
    #[inline]
    fn fix(&mut self, slot: usize, key: Key) {
        let mut node = self.payloads.len() + slot;
        let mut entry = (key, slot);
        loop {
            match self.tree.get_mut(node) {
                Some(stored) if *stored != entry => *stored = entry,
                _ => return,
            }
            if node == 1 {
                break;
            }
            node /= 2;
            entry = self.match_at(node);
        }
        self.head = entry;
    }

    /// Arms `slot` at `key`, superseding its pending event.
    #[inline]
    fn arm(&mut self, slot: usize, key: Key, payload: E) {
        if slot >= self.payloads.len() {
            self.grow(slot);
        }
        let Some(pending) = self.payloads.get_mut(slot) else {
            return;
        };
        if pending.replace(payload).is_none() {
            self.armed += 1;
        }
        self.fix(slot, key);
    }

    /// Removes the earliest armed event.
    #[inline]
    fn pop(&mut self) -> Option<(SimTime, E)> {
        let ((at, _), slot) = self.head;
        let payload = self.payloads.get_mut(slot)?.take()?;
        self.armed -= 1;
        self.fix(slot, VACANT);
        Some((at, payload))
    }

    /// Every slot in order: its key and payload when armed.
    fn iter(&self) -> impl Iterator<Item = Option<(Key, &E)>> {
        let leaves = self.tree.iter().skip(self.payloads.len());
        leaves
            .zip(&self.payloads)
            .map(|(&(key, _), payload)| payload.as_ref().map(|p| (key, p)))
    }

    /// Empties every slot, keeping the slot count.
    fn clear(&mut self) {
        let n = self.payloads.len();
        self.payloads.clear();
        self.armed = 0;
        self.grow(n - 1);
    }
}

/// The event engine: two monotone arrival lanes, the timer slots, plus a
/// tiny heap for out-of-order pushes; see the module docs.
#[derive(Debug)]
pub struct HybridQueue<E> {
    data: VecDeque<Entry<E>>,
    ack: VecDeque<Entry<E>>,
    timers: TimerSlots<E>,
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
    Timer,
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
            timers: TimerSlots::new(),
            heap: BinaryHeap::with_capacity(Self::INITIAL_CAPACITY),
            next_id: 0,
        }
    }

    /// Arms timer slot `slot` to fire `payload` at `at`, superseding the
    /// slot's pending event. Slots 0 and 1 are [`Lane::Rto`] and
    /// [`Lane::DelAck`]; the slots grow to the highest one armed.
    #[inline]
    pub(crate) fn arm(&mut self, slot: usize, at: SimTime, payload: E) {
        let id = self.next_id;
        self.next_id += 1;
        self.timers.arm(slot, (at, id), payload);
    }

    /// The time of the earliest pending event, with its source: one
    /// pass over the two lane heads, the earliest timer slot and the heap
    /// top.
    #[inline]
    fn min_key(&self) -> Option<(SimTime, Src)> {
        let mut best = (self.timers.head.0, Src::Timer);
        if let Some(front) = self.data.front() {
            if front.key() < best.0 {
                best = (front.key(), Src::Data);
            }
        }
        if let Some(front) = self.ack.front() {
            if front.key() < best.0 {
                best = (front.key(), Src::Ack);
            }
        }
        if let Some(Reverse(top)) = self.heap.peek() {
            if top.key() < best.0 {
                best = (top.key(), Src::Heap);
            }
        }
        let ((at, _), src) = best;
        (best.0 != VACANT).then_some((at, src))
    }

    /// Removes the head of `src`, the source [`Self::min_key`] named.
    #[inline]
    fn take(&mut self, src: Src) -> Option<(SimTime, E)> {
        match src {
            Src::Data => self.data.pop_front().map(|e| (e.at, e.payload)),
            Src::Ack => self.ack.pop_front().map(|e| (e.at, e.payload)),
            Src::Timer => self.timers.pop(),
            Src::Heap => self.heap.pop().map(|Reverse(e)| (e.at, e.payload)),
        }
    }

    /// Writes the queue's full state — every pending event with its
    /// `(time, id)` key plus the id counter — using `enc` to serialize
    /// payloads. Timer slots are written in slot order without a count,
    /// so a snapshot restores into a queue with as many slots (a
    /// connection's two). Heap entries are emitted sorted by key so the
    /// byte encoding is a pure function of the queue's contents (a
    /// `BinaryHeap`'s internal layout depends on insertion history).
    pub(crate) fn snapshot_into(
        &self,
        w: &mut SnapWriter,
        mut enc: impl FnMut(&E, &mut SnapWriter),
    ) {
        let mut put = |(at, id): Key, payload: &E, w: &mut SnapWriter| {
            w.put_u64(at.as_nanos());
            w.put_u64(id);
            enc(payload, w);
        };
        w.put_u64(self.next_id);
        for lane in [&self.data, &self.ack] {
            w.put_usize(lane.len());
            for e in lane {
                put(e.key(), &e.payload, w);
            }
        }
        for slot in self.timers.iter() {
            w.put_bool(slot.is_some());
            if let Some((key, payload)) = slot {
                put(key, payload, w);
            }
        }
        let mut entries: Vec<&Entry<E>> = self.heap.iter().map(|Reverse(e)| e).collect();
        entries.sort();
        w.put_usize(entries.len());
        for e in entries {
            put(e.key(), &e.payload, w);
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
        self.timers.clear();
        self.heap.clear();
        self.next_id = r.get_u64()?;
        let mut read_entry = |r: &mut SnapReader<'_>| -> SnapResult<Entry<E>> {
            let at = SimTime::from_nanos(r.get_u64()?);
            let id = r.get_u64()?;
            let payload = dec(r)?;
            Ok(Entry { at, id, payload })
        };
        for deque in [&mut self.data, &mut self.ack] {
            let n = r.get_usize()?;
            for _ in 0..n {
                let e = read_entry(r)?;
                if deque.back().is_some_and(|b| e <= *b) {
                    return Err(SnapError::Invalid("event lane not sorted by (time, id)"));
                }
                deque.push_back(e);
            }
        }
        for slot in 0..self.timers.payloads.len() {
            if r.get_bool()? {
                let e = read_entry(r)?;
                self.timers.arm(slot, e.key(), e.payload);
            }
        }
        let n = r.get_usize()?;
        for _ in 0..n {
            self.heap.push(Reverse(read_entry(r)?));
        }
        Ok(())
    }
}

#[cfg(test)]
impl<E> HybridQueue<E> {
    /// The payloads pending on the arrival lanes and in the overflow heap.
    pub(crate) fn arrivals(&self) -> impl Iterator<Item = &E> {
        let lanes = self.data.iter().chain(&self.ack);
        let heap = self.heap.iter().map(|Reverse(e)| e);
        lanes.chain(heap).map(|e| &e.payload)
    }

    /// Number of armed timer slots.
    pub(crate) fn timers_armed(&self) -> usize {
        self.timers.armed
    }
}

impl<E> EventScheduler<E> for HybridQueue<E> {
    #[inline]
    fn schedule(&mut self, lane: Lane, at: SimTime, payload: E) {
        let deque = match lane {
            Lane::Data => &mut self.data,
            Lane::Ack => &mut self.ack,
            Lane::Rto => return self.arm(0, at, payload),
            Lane::DelAck => return self.arm(1, at, payload),
        };
        let id = self.next_id;
        self.next_id += 1;
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
        self.data.len() + self.ack.len() + self.timers.armed + self.heap.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.data.is_empty()
            && self.ack.is_empty()
            && self.timers.armed == 0
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
    /// jumps, timers armed across 64 slots, interleaved with pops) must pop
    /// the same events in the same order as an ordered map keyed by
    /// `(time, id)`. Arming a slot removes its superseded key from the map.
    /// Re-arms land both before and after the slot's pending deadline,
    /// the slots grow while armed, and slots 0 and 1 are armed through
    /// [`Lane::Rto`] and [`Lane::DelAck`] too.
    #[test]
    fn hybrid_matches_ordered_model_on_randomized_histories() {
        use std::collections::BTreeMap;
        const SLOTS: usize = 64;

        let (mut earlier, mut later) = (0usize, 0usize);
        for seed in 0..20u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut model: BTreeMap<(SimTime, u64), u32> = BTreeMap::new();
            let mut hybrid = HybridQueue::new();
            // The key of each slot's latest arm.
            let mut live: [Option<(SimTime, u64)>; SLOTS] = [None; SLOTS];
            let mut data_clock = 0u64;
            let mut ack_clock = 0u64;
            // The payload doubles as the queue's insertion id: both count
            // schedules from zero.
            let mut next = 0u32;
            for step in 0..1500u32 {
                let id = u64::from(next);
                match rng.uniform_u32(0, 11) {
                    // Monotone data arrival.
                    0..=2 => {
                        data_clock += rng.uniform_u64(0, 40);
                        hybrid.schedule(Lane::Data, t(data_clock), next);
                        model.insert((t(data_clock), id), next);
                    }
                    // Monotone ACK arrival.
                    3..=4 => {
                        ack_clock += rng.uniform_u64(0, 40);
                        hybrid.schedule(Lane::Ack, t(ack_clock), next);
                        model.insert((t(ack_clock), id), next);
                    }
                    // Backwards lane push (fault-plan delay spike).
                    5 => {
                        let at = t(rng.uniform_u64(0, data_clock.max(1)));
                        hybrid.schedule(Lane::Data, at, next);
                        model.insert((at, id), next);
                    }
                    // (Re-)arm a timer slot: before or after its pending
                    // deadline when it has one, anywhere otherwise. The
                    // slot range widens as the history runs, so the slots
                    // grow while some are armed.
                    6..=9 => {
                        let top = (1 + step / 16).min(SLOTS as u32 - 1);
                        let slot = rng.uniform_u32(0, top) as usize;
                        let pending = live[slot].filter(|key| model.contains_key(key));
                        let at = match pending {
                            Some((due, _)) if rng.chance(0.5) => {
                                earlier += 1;
                                rng.uniform_u64(0, due.as_nanos().saturating_sub(1))
                            }
                            Some((due, _)) => {
                                later += 1;
                                due.as_nanos() + rng.uniform_u64(1, 500)
                            }
                            None => rng.uniform_u64(0, 4000),
                        };
                        if let Some(old) = live[slot].replace((t(at), id)) {
                            model.remove(&old);
                        }
                        model.insert((t(at), id), next);
                        match slot {
                            0 if rng.chance(0.5) => hybrid.schedule(Lane::Rto, t(at), next),
                            1 if rng.chance(0.5) => hybrid.schedule(Lane::DelAck, t(at), next),
                            _ => hybrid.arm(slot, t(at), next),
                        }
                    }
                    // Interleaved pop.
                    _ => {
                        let want = model.pop_first().map(|((at, _), v)| (at, v));
                        assert_eq!(EventScheduler::pop(&mut hybrid), want, "seed {seed}");
                        continue;
                    }
                }
                next += 1;
                assert_eq!(model.len(), EventScheduler::len(&hybrid), "seed {seed}");
                assert_eq!(
                    hybrid.peek_time(),
                    model.first_key_value().map(|(&(at, _), _)| at),
                    "seed {seed}"
                );
            }
            // Drain: the full remaining sequences must agree.
            loop {
                let want = model.pop_first().map(|((at, _), v)| (at, v));
                assert_eq!(EventScheduler::pop(&mut hybrid), want, "seed {seed}");
                if want.is_none() {
                    break;
                }
            }
            assert!(hybrid.is_empty(), "seed {seed}");
        }
        assert!(
            earlier > 100 && later > 100,
            "re-arms: {earlier} earlier, {later} later"
        );
    }
}
