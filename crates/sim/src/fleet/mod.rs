//! Fleet-scale sharded simulation: 10^5–10^6 concurrent Reno flows.
//!
//! The paper validates its formula one connection at a time (Table II);
//! the formula itself, though, is a statement about *steady-state send
//! rate*, which is cheapest to stress across a **population** of flows —
//! sweep `(p, RTT, T0, W_m)` and compare the empirical per-flow rate
//! distribution against the Eq. (32) prediction at each grid point.
//! Running that sweep at fleet scale needs a different execution shape
//! than [`crate::connection::Connection`]:
//!
//! * **SoA arenas** (`FlowArena` — internal): hot per-flow state (the
//!   fractional window, slow-start threshold, RNG stream, counters) lives
//!   in dense parallel arrays indexed by flow, so a shard's inner loop
//!   walks cache-line-friendly memory instead of pointer-chasing boxed
//!   connections. Cold per-cohort configuration (loss rate, RTT, `T0`,
//!   quirk knobs) is shared in a small cohort table.
//! * **Flow-major execution** ([`FleetShard::run_until`]): flows are
//!   mutually independent, so a shard needs no event scheduler. It walks
//!   its flows in order and runs each through every round due by the
//!   horizon, keeping one pending time per flow in the arena.
//! * **Deterministic flow seeding** ([`crate::rng::flow_seed`]): a flow's
//!   random stream is a pure function of `(campaign seed, global flow
//!   id)`, so partitioning the flow space across 1, 2 or 8 shards cannot
//!   change any flow's trajectory — the fleet analogue of the
//!   `PFTK_REPLAY_WORKERS` replay-equivalence contract.
//!
//! Each flow executes the **rounds-based model** of
//! [`crate::rounds::RoundsSim`] — the paper's §II assumptions, executed
//! literally — as an event-per-round state machine over the arena. Both
//! engines call the same round law (one step per loss-free round or per
//! whole loss event) and differ only in how they fold its outcome: the
//! arena into SoA counters and an integer-nanosecond clock, `RoundsSim`
//! into `ConnStats` and an `f64` clock. A fleet flow seeded with
//! `flow_seed(base, id)` therefore consumes the *same RNG draws in the
//! same order* as `RoundsSim::new(config, flow_seed(base, id))` and
//! produces identical counters (pinned by unit tests). The packet-level
//! simulator stays the ground truth for protocol fidelity; the testbed's
//! fleet driver cross-checks cohorts against it with a handful of
//! packet-level "audit" flows per grid point.
//!
//! ```
//! use tcp_sim::fleet::{FleetCohort, FleetShard, FleetSpec};
//! use tcp_sim::rounds::RoundsConfig;
//! use tcp_sim::time::SimTime;
//!
//! let spec = FleetSpec {
//!     cohorts: vec![FleetCohort {
//!         config: RoundsConfig {
//!             p: 0.02,
//!             wmax: 64,
//!             ..RoundsConfig::default()
//!         },
//!         flows: 1_000,
//!     }],
//!     base_seed: 7,
//!     ..FleetSpec::default()
//! };
//! let mut shard = FleetShard::new(&spec, 0..spec.total_flows());
//! shard.run_until(SimTime::from_secs_f64(30.0));
//! let stats = shard.flow_stats(0);
//! assert!(stats.packets_sent > 0);
//! ```

mod arena;
mod shard;
mod wheel;

pub use arena::FlowStats;
pub use shard::FleetShard;
pub use wheel::{ShardWheel, WheelConfig};

use crate::rounds::RoundsConfig;

/// One grid point of a fleet campaign: a flow population sharing model
/// parameters.
#[derive(Debug, Clone)]
pub struct FleetCohort {
    /// The §II model parameters every flow in the cohort runs.
    pub config: RoundsConfig,
    /// Number of flows in the cohort.
    pub flows: u64,
}

/// A fleet specification: the cohort grid plus the campaign seed.
///
/// The global flow space is the concatenation of the cohorts in order:
/// cohort 0 owns global flow ids `[0, flows_0)`, cohort 1 owns
/// `[flows_0, flows_0 + flows_1)`, and so on. Shards slice this space
/// into contiguous ranges, so concatenating shard outputs in shard order
/// always reproduces global-flow-id order regardless of shard count.
#[derive(Debug, Clone, Default)]
pub struct FleetSpec {
    /// The cohort grid.
    pub cohorts: Vec<FleetCohort>,
    /// Campaign seed; flow `g` draws from
    /// [`crate::rng::flow_seed`]`(base_seed, g)`.
    pub base_seed: u64,
    /// Unused by the engine, which schedules no events; kept only while
    /// the benchmark compiles against it, and to be deleted with
    /// [`ShardWheel`].
    pub wheel: WheelConfig,
}

impl FleetSpec {
    /// Total flows across all cohorts.
    pub fn total_flows(&self) -> u64 {
        self.cohorts.iter().map(|c| c.flows).sum()
    }
}
