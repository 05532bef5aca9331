//! SoA connection arenas: hot per-flow state in dense parallel arrays,
//! cold per-cohort configuration in a small shared table.
//!
//! The arena executes the §II rounds model as an event-per-round state
//! machine: each event is one [`RoundLaw::step`] — the same law
//! [`crate::rounds::RoundsSim`] runs — folded into the flow's SoA counters
//! and its pending time, an integer-nanosecond clock.
//! [`FlowArena::run_flow`] runs one flow through every event due by a
//! horizon. A single fleet flow therefore reproduces a `RoundsSim` run
//! counter for counter (pinned by `single_flow_matches_rounds_sim`).

use super::FleetCohort;
use crate::cc::RoundCc;
use crate::rng::{flow_seed, SimRng};
use crate::rounds::RoundLaw;
use std::ops::Range;

/// Ground-truth counters of one fleet flow — the fleet-scale subset of
/// [`crate::stats::ConnStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Total data transmissions (new + retransmissions).
    pub packets_sent: u64,
    /// Distinct data packets that reached the receiver.
    pub packets_delivered: u64,
    /// Triple-duplicate loss indications.
    pub td_events: u32,
    /// Timeout sequences (loss indications of type TO).
    pub to_events: u32,
    /// Individual RTO firings.
    pub rto_firings: u32,
    /// Rounds executed (penultimate and last rounds both count).
    pub rounds: u32,
}

impl FlowStats {
    /// Total loss indications (TD + TO).
    pub fn loss_indications(&self) -> u64 {
        u64::from(self.td_events) + u64::from(self.to_events)
    }
}

/// The SoA arena: one entry per flow across every parallel array.
///
/// Hot state (the `Copy` per-flow controller `cc`, `rng`) and counters
/// are split into separate arrays so the inner loop touches only the
/// cache lines it needs; cold configuration is one validated [`RoundLaw`]
/// per *cohort*, not per flow.
#[derive(Debug)]
pub(crate) struct FlowArena {
    cohorts: Vec<RoundLaw>,
    /// Cohort index of each flow.
    cohort_of: Vec<u32>,
    /// Per-flow deterministic RNG stream (`flow_seed(base, global_id)`).
    rng: Vec<SimRng>,
    /// Per-flow round-level congestion controller (`Copy`, SoA-friendly,
    /// one flat 40-byte struct for every law); never draws from `rng`.
    cc: Vec<RoundCc>,
    /// Per-flow pending time: the absolute nanosecond time of the flow's
    /// next event. Every flow's first round is due at time zero.
    next_at: Vec<u64>,
    packets_sent: Vec<u64>,
    packets_delivered: Vec<u64>,
    td_events: Vec<u32>,
    to_events: Vec<u32>,
    rto_firings: Vec<u32>,
    rounds: Vec<u32>,
    /// Per-cohort timeout-sequence-length histogram (buckets as in
    /// `ConnStats::to_sequences`: index k counts sequences of k+1, last
    /// bucket is "6 or more").
    to_hist: Vec<[u64; 6]>,
}

impl FlowArena {
    /// Builds the arena for the contiguous global flow range `flows` of a
    /// fleet whose global flow space is `cohorts` concatenated in order.
    pub(crate) fn new(cohorts: &[FleetCohort], base_seed: u64, flows: Range<u64>) -> Self {
        let n = usize::try_from(flows.end - flows.start).expect("shard flow count fits usize"); //~ allow(expect): construction-time validation, documented panic
        let mut arena = FlowArena {
            cohorts: cohorts.iter().map(|c| RoundLaw::new(&c.config)).collect(),
            cohort_of: Vec::with_capacity(n),
            rng: Vec::with_capacity(n),
            cc: Vec::with_capacity(n),
            next_at: vec![0; n],
            packets_sent: vec![0; n],
            packets_delivered: vec![0; n],
            td_events: vec![0; n],
            to_events: vec![0; n],
            rto_firings: vec![0; n],
            rounds: vec![0; n],
            to_hist: vec![[0; 6]; cohorts.len()],
        };
        // Walk the cohort boundaries in step with the (sorted, contiguous)
        // global ids instead of binary-searching each one.
        let mut cohort = 0usize;
        let mut cohort_end: u64 = cohorts.first().map_or(0, |c| c.flows);
        for g in flows {
            while g >= cohort_end {
                cohort += 1;
                cohort_end += cohorts
                    .get(cohort)
                    .expect("flow range exceeds fleet flow space") //~ allow(expect): construction-time validation, documented panic
                    .flows;
            }
            let cfg = &cohorts[cohort].config;
            //~ allow(expect): construction-time validation, documented panic
            let cid = u32::try_from(cohort).expect("cohort count fits u32");
            arena.cohort_of.push(cid);
            arena
                .rng
                .push(SimRng::seed_from_u64(flow_seed(base_seed, g)));
            arena
                .cc
                .push(RoundCc::new(cfg.cc, cfg.initial_window.min(cfg.wmax)));
        }
        arena
    }

    pub(crate) fn flow_count(&self) -> usize {
        self.cc.len()
    }

    pub(crate) fn cohort_count(&self) -> usize {
        self.cohorts.len()
    }

    pub(crate) fn flow_stats(&self, flow: usize) -> FlowStats {
        FlowStats {
            packets_sent: self.packets_sent[flow],
            packets_delivered: self.packets_delivered[flow],
            td_events: self.td_events[flow],
            to_events: self.to_events[flow],
            rto_firings: self.rto_firings[flow],
            rounds: self.rounds[flow],
        }
    }

    pub(crate) fn cohort_of(&self, flow: usize) -> u32 {
        self.cohort_of[flow]
    }

    pub(crate) fn to_histogram(&self, cohort: usize) -> [u64; 6] {
        self.to_hist[cohort]
    }

    /// Pending time of flow `f`: the absolute nanosecond time of its next
    /// event.
    #[cfg(test)]
    pub(crate) fn next_at(&self, f: usize) -> u64 {
        self.next_at[f]
    }

    /// Runs flow `f` through every event due at or before `until_ns` and
    /// stores its next pending time; returns the number of events run.
    /// Each event is one [`RoundLaw::step`]: a round of the §II model, or
    /// a loss round together with its Fig. 4 last round, any recovery
    /// rounds and (for a TO) the whole timeout sequence.
    pub(crate) fn run_flow(&mut self, f: usize, until_ns: u64) -> u64 {
        let mut at = self.next_at[f];
        if at > until_ns {
            return 0;
        }
        let cohort = self.cohort_of[f] as usize; //~ allow(cast): u32 cohort index widens losslessly
        let law = &self.cohorts[cohort];
        let hist = &mut self.to_hist[cohort];
        let rng = &mut self.rng[f];
        let mut cc = self.cc[f];
        let (mut sent, mut delivered, mut events) = (0u64, 0u64, 0u64);
        let (mut td, mut to, mut rto, mut rounds) = (0u32, 0u32, 0u32, 0u32);
        while at <= until_ns {
            let s = law.step(&mut cc, rng);
            events += 1;
            sent += s.new_data() + s.retransmissions();
            delivered += s.delivered();
            if !s.is_loss() {
                rounds = rounds.wrapping_add(1);
                at += law.rtt_ns;
                continue;
            }
            // Loss round, last round, recovery rounds; then the timeout gaps.
            rounds = rounds.wrapping_add(2 + s.recovery_rounds);
            td += u32::from(s.td);
            at += (2 + u64::from(s.recovery_rounds)) * law.rtt_ns;
            if s.to_len > 0 {
                to += 1;
                rto += s.to_len;
                let bucket = (s.to_len as usize - 1).min(5); //~ allow(cast): u32 sequence length widens losslessly
                hist[bucket] += 1;
                at += law.timeout_gap_ns(s.to_len);
            }
        }
        self.next_at[f] = at;
        self.cc[f] = cc;
        self.packets_sent[f] += sent;
        self.packets_delivered[f] += delivered;
        self.td_events[f] += td;
        self.to_events[f] += to;
        self.rto_firings[f] += rto;
        self.rounds[f] = self.rounds[f].wrapping_add(rounds);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rounds::{RoundsConfig, RoundsSim};

    /// Runs exactly one event of flow `f` (the horizon is the flow's own
    /// pending time) and returns its next pending time.
    fn step(arena: &mut FlowArena, f: usize) -> u64 {
        let at = arena.next_at(f);
        assert_eq!(arena.run_flow(f, at), 1);
        arena.next_at(f)
    }

    fn cohort(p: f64, wmax: u32) -> FleetCohort {
        FleetCohort {
            config: RoundsConfig {
                p,
                rtt: 0.1,
                t0: 1.0,
                b: 2,
                wmax,
                ..RoundsConfig::default()
            },
            flows: 4,
        }
    }

    /// The fleet's strongest correctness check: a fleet flow consumes the
    /// same RNG draws in the same order as `RoundsSim` with the same seed,
    /// so after the same number of TD periods every shared counter agrees
    /// exactly and elapsed time agrees to nanosecond rounding.
    #[test]
    fn single_flow_matches_rounds_sim() {
        for (p, wmax, seed) in [(0.03, 64, 0xF1EE7u64), (0.005, 1_000, 9), (0.2, 8, 77)] {
            let c = cohort(p, wmax);
            let mut reference = RoundsSim::new(c.config, flow_seed(seed, 0));
            reference.run_tdps(400);
            let ref_stats = reference.stats();
            let indications = ref_stats.loss_indications();

            let mut arena = FlowArena::new(std::slice::from_ref(&c), seed, 0..1);
            let mut t = 0u64;
            while arena.flow_stats(0).loss_indications() < indications {
                t = step(&mut arena, 0);
            }
            let fleet = arena.flow_stats(0);
            assert_eq!(fleet.packets_sent, ref_stats.packets_sent, "p={p}");
            assert_eq!(fleet.packets_delivered, ref_stats.packets_delivered);
            assert_eq!(u64::from(fleet.td_events), ref_stats.td_events);
            assert_eq!(u64::from(fleet.to_events), ref_stats.to_events());
            assert_eq!(u64::from(fleet.rto_firings), ref_stats.rto_firings);
            assert_eq!(arena.to_histogram(0), ref_stats.to_sequences);
            // Times agree up to f64-vs-integer-nanosecond accumulation.
            let fleet_elapsed = t as f64 / 1e9;
            let rel = (fleet_elapsed - reference.elapsed()).abs() / reference.elapsed();
            assert!(
                rel < 1e-6,
                "elapsed {fleet_elapsed} vs {}",
                reference.elapsed()
            );
        }
    }

    /// Draw parity holds per variant, not just for Reno: every algorithm's
    /// fleet flow must mirror its own `RoundsSim` — including NewReno,
    /// whose recovery rounds add draws the other variants never make.
    #[test]
    fn every_variant_matches_its_rounds_sim() {
        use crate::cc::CcAlgorithm;
        for algo in CcAlgorithm::ALL {
            let mut c = cohort(0.03, 64);
            c.config.cc = algo;
            let mut reference = RoundsSim::new(c.config, flow_seed(11, 0));
            reference.run_tdps(300);
            let ref_stats = reference.stats();
            let indications = ref_stats.loss_indications();

            let mut arena = FlowArena::new(std::slice::from_ref(&c), 11, 0..1);
            let mut t = 0u64;
            while arena.flow_stats(0).loss_indications() < indications {
                t = step(&mut arena, 0);
            }
            let fleet = arena.flow_stats(0);
            assert_eq!(fleet.packets_sent, ref_stats.packets_sent, "{algo:?}");
            assert_eq!(
                fleet.packets_delivered, ref_stats.packets_delivered,
                "{algo:?}"
            );
            assert_eq!(u64::from(fleet.td_events), ref_stats.td_events, "{algo:?}");
            assert_eq!(
                u64::from(fleet.to_events),
                ref_stats.to_events(),
                "{algo:?}"
            );
            assert_eq!(
                u64::from(fleet.rto_firings),
                ref_stats.rto_firings,
                "{algo:?}"
            );
            assert_eq!(arena.to_histogram(0), ref_stats.to_sequences, "{algo:?}");
            let rel = (t as f64 / 1e9 - reference.elapsed()).abs() / reference.elapsed();
            assert!(rel < 1e-6, "{algo:?} elapsed diverged: rel {rel}");
        }
    }

    /// A flow's trajectory is a pure function of (base seed, global id):
    /// the same flow simulated in a wider arena is unchanged.
    #[test]
    fn flow_isolated_from_arena_layout() {
        let c = cohort(0.05, 32);
        let mut narrow = FlowArena::new(std::slice::from_ref(&c), 3, 2..3);
        let mut wide = FlowArena::new(std::slice::from_ref(&c), 3, 0..4);
        let mut tn = 0u64;
        let mut tw = 0u64;
        for _ in 0..5_000 {
            tn = step(&mut narrow, 0);
            tw = step(&mut wide, 2);
        }
        assert_eq!(tn, tw);
        assert_eq!(narrow.flow_stats(0), wide.flow_stats(2));
    }

    #[test]
    fn multi_cohort_ranges_assign_cohorts_correctly() {
        let a = cohort(0.01, 16);
        let b = cohort(0.2, 8);
        let arena = FlowArena::new(&[a, b], 1, 2..6);
        // Global ids 2,3 belong to cohort 0 (flows 0..4), ids 4,5 to cohort 1.
        assert_eq!(arena.cohort_of(0), 0);
        assert_eq!(arena.cohort_of(1), 0);
        assert_eq!(arena.cohort_of(2), 1);
        assert_eq!(arena.cohort_of(3), 1);
        assert_eq!(arena.flow_count(), 4);
        assert_eq!(arena.cohort_count(), 2);
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn invalid_cohort_rejected() {
        let mut c = cohort(0.5, 8);
        c.config.p = 0.0;
        let _ = FlowArena::new(std::slice::from_ref(&c), 1, 0..1);
    }
}
