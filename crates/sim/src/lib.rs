//! # tcp-sim
//!
//! Deterministic, sans-I/O simulators of a bulk-transfer TCP Reno flow —
//! the experimental substrate for validating the PFTK model
//! (`pftk-model`), replacing the real 1997 Internet hosts of the paper's
//! measurement study.
//!
//! Two simulators, different fidelity/abstraction trade-offs:
//!
//! * [`connection::Connection`] — a **packet-level discrete-event TCP Reno
//!   implementation**: slow start, congestion avoidance, fast
//!   retransmit/recovery, SRTT/RTTVAR + Karn RTO estimation with
//!   exponential backoff, delayed ACKs, receiver window, plus path models
//!   with jitter and rate-limited bottleneck queues (drop-tail or RED).
//!   Per-OS quirks of §IV (Linux dupthresh = 2, Irix backoff cap `2^5`) are
//!   configuration knobs.
//! * [`rounds::RoundsSim`] — the **paper's §II model assumptions executed
//!   literally** (rounds, intra-round-correlated loss, the Fig. 4
//!   penultimate/last-round TD-vs-TO rule, geometric timeout sequences);
//!   its long-run send rate converges to Eq. (32) and its sample paths
//!   regenerate the paper's Figs. 1/3/5/6.
//!
//! [`fleet`] scales the rounds model to populations: SoA flow arenas,
//! advanced flow by flow, run 10^5–10^6 concurrent flows with
//! deterministic, shard-count-independent per-flow seeding, for
//! distributional validation of Eq. (32) at each `(p, RTT, T0, W_m)`
//! grid point.
//!
//! Everything is seeded and deterministic: a run is a pure function of its
//! configuration, per the sans-I/O design idiom (no sockets, no async
//! runtime — this workload is CPU-bound simulation).
//!
//! ```
//! use tcp_sim::connection::Connection;
//! use tcp_sim::loss::Bernoulli;
//! use tcp_sim::time::SimDuration;
//!
//! let mut conn = Connection::builder()
//!     .rtt(0.1)
//!     .loss(Box::new(Bernoulli::new(0.02)))
//!     .seed(42)
//!     .build();
//! conn.run_for(SimDuration::from_secs_f64(60.0));
//! conn.finish();
//! let stats = conn.stats();
//! assert!(stats.packets_sent > 0);
//! assert!(stats.loss_indications() > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cc;
pub mod connection;
pub mod event;
pub mod fault;
pub mod fleet;
pub mod link;
pub mod loss;
pub mod network;
pub mod packet;
pub mod queue;
pub mod receiver;
pub mod reno;
pub mod rng;
pub mod rounds;
pub mod stats;
pub mod tfrc;
pub mod time;

pub use cc::{CcAlgorithm, CcState, CongestionController, Quirks, RoundCc};
pub use connection::{Connection, Observer};
pub use fault::{FaultPlan, Impairment};
pub use fleet::{FleetCohort, FleetShard, FleetSpec, FlowStats};
pub use rounds::{RoundsConfig, RoundsSim};
pub use stats::ConnStats;
pub use time::{SimDuration, SimTime};
