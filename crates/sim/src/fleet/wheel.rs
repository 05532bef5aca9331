//! A calendar wheel keyed by `(slot, flow)`, kept only for the
//! benchmark's `sim.fleet.wheel.schedule_ns` ledger row.
//!
//! The fleet engine does not use it: flows are independent, so
//! [`crate::fleet::FleetShard::run_until`] runs each flow to the horizon
//! in turn and keeps one pending time per flow in the arena. The wheel,
//! [`WheelConfig`] and the `wheel` fields of the fleet specs stay until
//! the benchmark, which compiles against them, drops that row; they are
//! to be deleted then.
//!
//! [`ShardWheel::schedule`] holds one pending event per flow: it unlinks
//! the flow's intrusive list node from its ring slot and relinks it at
//! the tail of the new slot. An event beyond the ring horizon keeps only
//! its due time; nothing drains the wheel, so nothing would read it.

use crate::time::{SimDuration, SimTime};

/// Wheel geometry: `slots` ring positions of `granularity` each, giving a
/// `slots × granularity` horizon. Unused by the fleet engine; see the
/// module docs.
#[derive(Debug, Clone, Copy)]
pub struct WheelConfig {
    /// Width of one slot.
    pub granularity: SimDuration,
    /// Ring size; must be a power of two.
    pub slots: usize,
}

impl Default for WheelConfig {
    fn default() -> Self {
        // 1 ms × 8192 ≈ an 8.2 s horizon.
        WheelConfig {
            granularity: SimDuration::from_millis(1),
            slots: 8192,
        }
    }
}

/// Niche index value: "no node" in the intrusive lists, "no slot" in the
/// per-flow slot map.
const NIL: u32 = u32::MAX;

/// The calendar wheel. Unused by the fleet engine; see the module docs.
#[derive(Debug)]
pub struct ShardWheel {
    granularity_ns: u64,
    /// Head node (flow index) of each ring slot's intrusive list.
    head: Vec<u32>,
    /// Tail node of each ring slot's list.
    tail: Vec<u32>,
    /// Intrusive list links, flow-indexed.
    prev: Vec<u32>,
    next: Vec<u32>,
    /// Ring slot index each flow's node is linked in; `NIL` when the flow
    /// is idle or due beyond the ring horizon.
    in_slot: Vec<u32>,
    /// Due time per flow; `u64::MAX` = no pending event.
    next_at: Vec<u64>,
    /// Number of flows with a pending event.
    live: usize,
}

impl ShardWheel {
    /// An empty wheel for `flows` flows (indices `0..flows`).
    pub fn new(config: WheelConfig, flows: usize) -> Self {
        assert!(
            config.slots.is_power_of_two(),
            "slot count must be a power of two"
        );
        let granularity_ns = config.granularity.as_nanos();
        assert!(granularity_ns > 0, "granularity must be positive");
        ShardWheel {
            granularity_ns,
            head: vec![NIL; config.slots],
            tail: vec![NIL; config.slots],
            prev: vec![NIL; flows],
            next: vec![NIL; flows],
            in_slot: vec![NIL; flows],
            next_at: vec![u64::MAX; flows],
            live: 0,
        }
    }

    /// Number of flows with a pending event.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Unlinks `flow`'s node from its ring slot, if linked. O(1).
    fn unlink(&mut self, flow: u32) {
        let fi = flow as usize; //~ allow(cast): u32 flow index widens losslessly
        let s = self.in_slot[fi];
        if s == NIL {
            return;
        }
        let (p, n) = (self.prev[fi], self.next[fi]);
        if p == NIL {
            self.head[s as usize] = n; //~ allow(cast): u32 slot index widens losslessly
        } else {
            self.next[p as usize] = n; //~ allow(cast): u32 flow index widens losslessly
        }
        if n == NIL {
            self.tail[s as usize] = p; //~ allow(cast): u32 slot index widens losslessly
        } else {
            self.prev[n as usize] = p; //~ allow(cast): u32 flow index widens losslessly
        }
        self.in_slot[fi] = NIL;
    }

    /// Links `flow`'s node at the tail of ring slot `idx`. O(1).
    fn link_tail(&mut self, flow: u32, idx: usize) {
        let fi = flow as usize; //~ allow(cast): u32 flow index widens losslessly
        let t = self.tail[idx];
        self.prev[fi] = t;
        self.next[fi] = NIL;
        if t == NIL {
            self.head[idx] = flow;
        } else {
            self.next[t as usize] = flow; //~ allow(cast): u32 flow index widens losslessly
        }
        self.tail[idx] = flow;
        self.in_slot[fi] = idx as u32; //~ allow(cast): ring index bounded by the power-of-two slot count
    }

    /// Schedules (or — O(1) — *supersedes*) the pending event of `flow`
    /// to fire at `at`.
    pub fn schedule(&mut self, flow: u32, at: SimTime) {
        let at_ns = at.as_nanos();
        let slot = at_ns / self.granularity_ns;
        let fi = flow as usize; //~ allow(cast): u32 flow index widens losslessly
        if self.next_at[fi] == u64::MAX {
            self.live += 1;
        }
        self.next_at[fi] = at_ns;
        self.unlink(flow);
        //~ allow(cast): slot count (usize) widens losslessly to u64
        if slot < self.head.len() as u64 {
            let idx = (slot as usize) & (self.head.len() - 1); //~ allow(cast): slot masked into ring range
            self.link_tail(flow, idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superseding_keeps_one_pending_event_per_flow() {
        let mut w = ShardWheel::new(WheelConfig::default(), 3);
        w.schedule(0, SimTime::from_secs_f64(0.5));
        w.schedule(0, SimTime::from_secs_f64(0.25));
        w.schedule(1, SimTime::from_secs_f64(64.0)); // beyond the ring
        w.schedule(1, SimTime::from_secs_f64(0.1));
        assert_eq!(w.live(), 2);
        assert_eq!(w.in_slot[0], 250);
        assert_eq!(w.in_slot[1], 100);
        assert_eq!(w.in_slot[2], NIL);
    }
}
