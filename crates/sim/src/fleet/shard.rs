//! The shard executor: one SoA arena, advanced flow by flow.
//! [`FleetShard::run_until`] is the fleet's hot path (registered as a
//! `[[hotpath]]` root in `specs/pftk-spec.toml`): it walks the shard's
//! flows in local order and runs each through every event due by the
//! horizon. Flows are mutually independent, so no scheduler orders events
//! across them, and the walk performs zero heap allocation — the arena is
//! a set of fixed arrays sized at construction (pinned by
//! `tests/alloc_steady_state.rs`).

use super::arena::{FlowArena, FlowStats};
use super::FleetSpec;
use crate::time::SimTime;
use std::ops::Range;

/// A shard: the contiguous global flow range `flows` of a fleet,
/// simulated independently of every other shard.
#[derive(Debug)]
pub struct FleetShard {
    arena: FlowArena,
    first_flow: u64,
    now: SimTime,
    events: u64,
}

impl FleetShard {
    /// Builds the shard owning global flows `flows` of `spec`'s fleet,
    /// with every flow's first round due at time zero.
    ///
    /// # Panics
    /// If `flows` exceeds the fleet's flow space or a cohort's parameters
    /// are outside the model's domain.
    pub fn new(spec: &FleetSpec, flows: Range<u64>) -> Self {
        FleetShard {
            arena: FlowArena::new(&spec.cohorts, spec.base_seed, flows.clone()),
            first_flow: flows.start,
            now: SimTime::ZERO,
            events: 0,
        }
    }

    /// Advances every flow to `horizon`, returning the number of events
    /// processed by this call. Each event is one round of the §II model
    /// (or a loss round with its recovery — see
    /// [`crate::fleet::FlowStats::rounds`]). Safe to call repeatedly with
    /// growing horizons; events due after `horizon` stay pending.
    ///
    /// A flow's trajectory depends only on its seed, never on when other
    /// flows run, so the flows run one after another, each to the
    /// horizon. A fleet whose flows interact (a shared bottleneck setting
    /// every cohort's loss rate each tick, say) would advance by calling
    /// this once per tick and updating the shared state between calls.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let until = horizon.as_nanos();
        let mut n = 0;
        for flow in 0..self.arena.flow_count() {
            n += self.arena.run_flow(flow, until);
        }
        if horizon > self.now {
            self.now = horizon;
        }
        self.events += n;
        n
    }

    /// Flows owned by this shard.
    pub fn flow_count(&self) -> usize {
        self.arena.flow_count()
    }

    /// Global flow id of local flow index `local`.
    pub fn global_id(&self, local: usize) -> u64 {
        debug_assert!(local < self.arena.flow_count());
        self.first_flow + local as u64 //~ allow(cast): local flow index widens losslessly
    }

    /// Cohort index of local flow `local`.
    pub fn cohort_of(&self, local: usize) -> u32 {
        self.arena.cohort_of(local)
    }

    /// Ground-truth counters of local flow `local`.
    pub fn flow_stats(&self, local: usize) -> FlowStats {
        self.arena.flow_stats(local)
    }

    /// Number of cohorts in the fleet (not just those with flows here).
    pub fn cohort_count(&self) -> usize {
        self.arena.cohort_count()
    }

    /// Timeout-sequence-length histogram of `cohort`, over this shard's
    /// flows (buckets as in `ConnStats::to_sequences`).
    pub fn to_histogram(&self, cohort: usize) -> [u64; 6] {
        self.arena.to_histogram(cohort)
    }

    /// Horizon reached so far.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetCohort;
    use crate::rounds::RoundsConfig;

    fn spec(flows_per_cohort: u64) -> FleetSpec {
        let mk = |p, wmax| FleetCohort {
            config: RoundsConfig {
                p,
                rtt: 0.1,
                t0: 1.0,
                b: 2,
                wmax,
                ..RoundsConfig::default()
            },
            flows: flows_per_cohort,
        };
        FleetSpec {
            cohorts: vec![mk(0.02, 64), mk(0.1, 16)],
            base_seed: 0xF1EE7,
            ..FleetSpec::default()
        }
    }

    #[test]
    fn shard_runs_every_flow_to_horizon() {
        let s = spec(50);
        let mut shard = FleetShard::new(&s, 0..s.total_flows());
        let events = shard.run_until(SimTime::from_secs_f64(20.0));
        assert!(events > 0);
        assert_eq!(shard.events_processed(), events);
        for local in 0..shard.flow_count() {
            let st = shard.flow_stats(local);
            // 20 s at 0.1 s RTT: every flow must have made real progress
            // (timeout gaps can eat most of the horizon at p = 0.1).
            assert!(st.rounds > 10, "flow {local} stalled: {st:?}");
            assert!(st.packets_sent > 0);
        }
    }

    /// The determinism contract at shard level: a flow's counters depend
    /// only on (base seed, global flow id) — splitting the same fleet
    /// into different shard ranges never changes any flow's trajectory.
    #[test]
    fn flows_identical_across_shard_partitions() {
        let s = spec(30);
        let horizon = SimTime::from_secs_f64(50.0);
        let mut whole = FleetShard::new(&s, 0..60);
        whole.run_until(horizon);
        for range in [0..20u64, 20..45, 45..60] {
            let mut part = FleetShard::new(&s, range.clone());
            part.run_until(horizon);
            for local in 0..part.flow_count() {
                let g = part.global_id(local);
                assert_eq!(
                    part.flow_stats(local),
                    whole.flow_stats(g as usize), //~ allow(cast): test flow ids are tiny
                    "flow {g} diverged in range {range:?}"
                );
                assert_eq!(part.cohort_of(local), whole.cohort_of(g as usize)); //~ allow(cast): test flow ids are tiny
            }
        }
    }

    #[test]
    fn incremental_horizons_equal_one_shot() {
        let s = spec(20);
        let mut steps = FleetShard::new(&s, 0..40);
        let mut oneshot = FleetShard::new(&s, 0..40);
        for k in 1..=10 {
            steps.run_until(SimTime::from_secs_f64(3.0 * f64::from(k)));
        }
        oneshot.run_until(SimTime::from_secs_f64(30.0));
        assert_eq!(steps.events_processed(), oneshot.events_processed());
        for local in 0..steps.flow_count() {
            assert_eq!(steps.flow_stats(local), oneshot.flow_stats(local));
        }
        assert_eq!(steps.to_histogram(0), oneshot.to_histogram(0));
        assert_eq!(steps.to_histogram(1), oneshot.to_histogram(1));
    }

    #[test]
    fn replay_is_bit_identical() {
        let s = spec(25);
        let mut a = FleetShard::new(&s, 0..50);
        let mut b = FleetShard::new(&s, 0..50);
        a.run_until(SimTime::from_secs_f64(40.0));
        b.run_until(SimTime::from_secs_f64(40.0));
        assert_eq!(a.events_processed(), b.events_processed());
        for local in 0..a.flow_count() {
            assert_eq!(a.flow_stats(local), b.flow_stats(local));
        }
    }
}
