//! Fleet-scale sharded campaigns: 10^5–10^6 concurrent §II-model flows,
//! cut into cache-sized blocks that pooled workers take from one queue,
//! validated distributionally against Eq. (32).
//!
//! The paper's Table II validates the model one connection at a time; a
//! fleet campaign asks the same question at population scale. Each cohort
//! pins one `(p, RTT, T0, W_m)` grid point and runs `flows` independent
//! [`tcp_sim::fleet`] flows to a common horizon; the report compares the
//! empirical per-flow send-rate distribution against the full-model
//! prediction for that grid point (mean, spread, and a log-bucketed
//! ratio histogram).
//!
//! ## Determinism contract
//!
//! A [`FleetReport`] is a pure function of ([`FleetCampaignSpec`], nothing
//! else). The shard count and schedule chaos passed to [`run_fleet_with`]
//! are *execution* details: flows are seeded from `(base_seed, global
//! flow id)` only, each block owns a contiguous global range whose cut
//! depends on the flow count alone, and every merge fold walks blocks in
//! range order and flows in global order — so reports from 1, 2, and 8
//! workers (chaotic or not) serialize bit-identically. The report
//! deliberately carries no wall-clock fields; throughput measurement
//! wraps the call (see `crates/bench`).
//!
//! ## Blocks
//!
//! `shards` counts workers, not partitions. The flow space is cut into
//! contiguous blocks of at most 4096 flows, each run as its own
//! [`FleetShard`]. A shard runs its flows one after another, each to the
//! horizon, so its cost per event barely depends on its size; the blocks
//! are there for balance. One range per worker would leave the halves
//! unevenly loaded, because cohorts differ in cost per flow, while many
//! small blocks on one queue even those costs out: a worker that finishes
//! early takes the next block.
//!
//! ## Wire audit
//!
//! A fleet flow is the rounds abstraction, not a wire trace. To keep the
//! population result anchored to the packet level, each cohort can run a
//! few *audit flows*: full packet-level [`Connection`]s under Bernoulli
//! loss at the cohort's grid point, reduced on the fly by pooled
//! [`tcp_trace::stream::StreamAnalyzer`]s ([`AnalyzerPool`]) — the same O(window) streaming
//! reduction the hour-long campaigns use, recycled shell-for-shell so an
//! entire audit pass allocates a bounded number of analyzers.

use crate::experiment::TraceRecorder;
use crate::pool;
use pftk_model::params::ModelParams;
use pftk_model::sendrate::full_model;
use pftk_model::units::LossProb;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::Arc;
use tcp_sim::connection::Connection;
use tcp_sim::fleet::{FleetCohort, FleetShard, FleetSpec, WheelConfig};
use tcp_sim::link::Path;
use tcp_sim::loss::Bernoulli;
use tcp_sim::receiver::ReceiverConfig;
use tcp_sim::reno::rto::RtoConfig;
use tcp_sim::reno::sender::{RenoStyle, SenderConfig};
use tcp_sim::rng::flow_seed;
use tcp_sim::rounds::RoundsConfig;
use tcp_sim::time::{SimDuration, SimTime};
use tcp_trace::analyzer::AnalyzerConfig;
use tcp_trace::stream::{AnalyzerPool, StreamConfig};

/// One cohort: `flows` identical-parameter flows at one `(p, RTT, T0,
/// W_m)` grid point of the validation sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetCohortSpec {
    /// Human-readable grid-point label, echoed into the report.
    pub label: String,
    /// The §II model parameters for every flow in the cohort.
    pub config: RoundsConfig,
    /// Number of flows at this grid point.
    pub flows: u64,
}

/// A fleet campaign: the full cohort grid plus the execution-independent
/// inputs (seed, horizon, audit sampling).
#[derive(Debug, Clone)]
pub struct FleetCampaignSpec {
    /// Cohorts in grid order; global flow ids are assigned by
    /// concatenating cohorts in this order.
    pub cohorts: Vec<FleetCohortSpec>,
    /// Campaign seed; flow `g` derives its stream from
    /// `flow_seed(base_seed, g)` and nothing else.
    pub base_seed: u64,
    /// Simulated horizon every flow runs to, seconds.
    pub horizon_secs: f64,
    /// Unused by the engine, which schedules no events; kept only while
    /// the benchmark compiles against it, and to be deleted with
    /// [`tcp_sim::fleet::ShardWheel`].
    pub wheel: WheelConfig,
    /// Packet-level audit connections per cohort (0 disables the audit).
    pub audit_flows_per_cohort: u32,
}

impl Default for FleetCampaignSpec {
    fn default() -> Self {
        FleetCampaignSpec {
            cohorts: Vec::new(),
            base_seed: 0,
            horizon_secs: 60.0,
            wheel: WheelConfig::default(),
            audit_flows_per_cohort: 0,
        }
    }
}

impl FleetCampaignSpec {
    /// Total flows across all cohorts.
    pub fn total_flows(&self) -> u64 {
        self.cohorts.iter().map(|c| c.flows).sum()
    }
}

/// Ratio-histogram geometry: 16 buckets of half a doubling each, covering
/// per-flow-rate / model-rate from 2^-4 to 2^4; out-of-range ratios clamp
/// into the end buckets.
pub const RATIO_BUCKETS: usize = 16;

/// Wire-audit summary for one cohort: packet-level ground truth next to
/// the streamed analyzer's wire-visible classification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CohortAudit {
    /// Audit connections run.
    pub flows: u32,
    /// Wire data segments sent, summed over audit flows.
    pub packets_sent: u64,
    /// Packets delivered (acked), summed over audit flows.
    pub packets_delivered: u64,
    /// Mean per-connection wire send rate, packets/sec.
    pub wire_rate_mean_pps: f64,
    /// Triple-duplicate indications per the streamed analyzer.
    pub analyzer_td: u64,
    /// Timeout sequences per the streamed analyzer.
    pub analyzer_to: u64,
    /// Simulator ground-truth TD count.
    pub ground_td: u64,
    /// Simulator ground-truth TO-sequence count.
    pub ground_to: u64,
}

/// Per-cohort fleet results: population counters, the per-flow send-rate
/// distribution, and its position against the Eq. (32) prediction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CohortReport {
    /// Grid-point label from the spec.
    pub label: String,
    /// Flows simulated.
    pub flows: u64,
    /// Full-model (Eq. (32)) send-rate prediction at this grid point,
    /// packets/sec.
    pub model_rate_pps: f64,
    /// Packets sent, summed over the cohort.
    pub packets_sent: u64,
    /// Packets delivered, summed over the cohort.
    pub packets_delivered: u64,
    /// Triple-duplicate loss indications, summed.
    pub td_events: u64,
    /// Timeout sequences, summed.
    pub to_events: u64,
    /// Individual RTO firings (a length-`k` sequence fires `k` times).
    pub rto_firings: u64,
    /// Model rounds executed, summed.
    pub rounds: u64,
    /// Timeout-sequence lengths, Table II bucketing (T0..T5+).
    pub to_histogram: [u64; 6],
    /// Minimum per-flow send rate, packets/sec.
    pub rate_min_pps: f64,
    /// Maximum per-flow send rate, packets/sec.
    pub rate_max_pps: f64,
    /// Mean per-flow send rate, packets/sec (folded in global flow order).
    pub rate_mean_pps: f64,
    /// Population standard deviation of per-flow send rates.
    pub rate_stddev_pps: f64,
    /// Histogram of per-flow-rate / model-rate over [`RATIO_BUCKETS`]
    /// half-doubling buckets spanning 2^-4..2^4.
    pub ratio_histogram: [u64; RATIO_BUCKETS],
    /// Wire audit, when `audit_flows_per_cohort > 0`.
    pub audit: Option<CohortAudit>,
}

/// The campaign result. Bit-identical (as serialized JSON) across shard
/// counts and schedule chaos — the fleet half of the `det-replay`
/// contract, pinned by `tests/replay_equivalence.rs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Campaign seed, echoed.
    pub base_seed: u64,
    /// Horizon, seconds, echoed.
    pub horizon_secs: f64,
    /// Total flows simulated.
    pub total_flows: u64,
    /// Total fleet events processed (shard-count-invariant: each flow's
    /// event sequence depends only on its seed and the horizon).
    pub events: u64,
    /// Per-cohort results, in grid order.
    pub cohorts: Vec<CohortReport>,
    /// High-water mark of concurrently leased audit analyzers.
    pub audit_peak_leased: u64,
    /// High-water mark of a single audit analyzer's retained state, bytes.
    pub audit_peak_state_bytes: u64,
}

/// Runs `spec` on up to `shards` workers with natural scheduling.
/// See [`run_fleet_with`].
pub fn run_fleet(spec: &FleetCampaignSpec, shards: usize) -> FleetReport {
    run_fleet_with(spec, shards, None)
}

/// Runs the fleet campaign: cuts the global flow space into contiguous
/// cache-sized blocks, executes each block as a [`FleetShard`] on a
/// worker pool of at most `shards` workers (with seeded schedule
/// chaos when `schedule_chaos` is set), merges per-cohort results in
/// global flow order, and runs the serial wire audit. The pool never has
/// more workers than blocks; with one worker the blocks run inline, in
/// order.
///
/// The returned [`FleetReport`] does not depend on `shards` or
/// `schedule_chaos`.
///
/// # Panics
/// If the spec is empty, `shards` is zero, the horizon is not positive,
/// a cohort's parameters are outside the model's domain, or a block
/// panics, dies or exceeds its wall budget.
//= pftk#fleet-shard-equivalence
pub fn run_fleet_with(
    spec: &FleetCampaignSpec,
    shards: usize,
    schedule_chaos: Option<u64>,
) -> FleetReport {
    assert!(shards > 0, "fleet needs at least one shard");
    assert!(
        spec.horizon_secs > 0.0 && spec.horizon_secs.is_finite(),
        "fleet horizon must be positive"
    );
    let total = spec.total_flows();
    assert!(total > 0, "fleet needs at least one flow");

    let fleet_spec = Arc::new(sim_spec(spec));
    let horizon = SimTime::from_secs_f64(spec.horizon_secs);

    let finished = run_shards(&fleet_spec, total, shards, schedule_chaos, horizon);

    let mut report = merge_shards(spec, &finished);
    run_audit(spec, &mut report);
    report
}

/// The simulator's view of `spec`: cohort grid and seed.
fn sim_spec(spec: &FleetCampaignSpec) -> FleetSpec {
    FleetSpec {
        cohorts: spec
            .cohorts
            .iter()
            .map(|c| FleetCohort {
                config: c.config,
                flows: c.flows,
            })
            .collect(),
        base_seed: spec.base_seed,
        ..FleetSpec::default()
    }
}

/// Most flows one block may hold. Blocks serve load balance only: a
/// shard runs each flow to the horizon in turn, so its per-event cost
/// barely moves between 1024-flow blocks and one 100k range (DESIGN.md
/// §14.3), and ~25 blocks at 10^5 flows on one queue let two workers
/// even out the cohorts' unequal costs.
const BLOCK_FLOWS: u64 = 4096;

/// Cuts `0..total` into the fewest contiguous, near-equal blocks of at
/// most [`BLOCK_FLOWS`] flows each, in global flow order.
fn block_ranges(total: u64) -> Vec<Range<u64>> {
    let n = total.div_ceil(BLOCK_FLOWS);
    (0..n)
        .map(|b| (b * total / n)..((b + 1) * total / n))
        .collect()
}

/// Runs every block of `0..total` as a [`FleetShard`] through
/// [`pool::run_in_order`] on at most `shards` workers, which take the
/// blocks from one queue as they free up; returns the finished blocks in
/// range order. With one worker (or one block) the blocks run inline, in
/// order.
fn run_shards(
    fleet_spec: &Arc<FleetSpec>,
    total: u64,
    shards: usize,
    schedule_chaos: Option<u64>,
    horizon: SimTime,
) -> Vec<FleetShard> {
    let tasks = block_ranges(total)
        .into_iter()
        .map(|range| {
            let fleet_spec = Arc::clone(fleet_spec);
            move || run_block(&fleet_spec, range, horizon)
        })
        .collect();
    pool::run_in_order(shards, schedule_chaos, tasks)
}

/// Builds one block's [`FleetShard`] and runs it to `horizon`.
fn run_block(spec: &FleetSpec, range: Range<u64>, horizon: SimTime) -> FleetShard {
    let mut block = FleetShard::new(spec, range);
    block.run_until(horizon);
    block
}

/// Folds finished blocks into per-cohort reports. Blocks arrive in range
/// order and each walks its flows in local order, so every f64 fold below
/// accumulates in global flow order — the exact same sequence of
/// additions no matter how many workers ran them.
fn merge_shards(spec: &FleetCampaignSpec, shards: &[FleetShard]) -> FleetReport {
    let mut cohorts: Vec<CohortReport> = spec
        .cohorts
        .iter()
        .map(|c| CohortReport {
            label: c.label.clone(),
            flows: c.flows,
            model_rate_pps: model_rate(&c.config),
            packets_sent: 0,
            packets_delivered: 0,
            td_events: 0,
            to_events: 0,
            rto_firings: 0,
            rounds: 0,
            to_histogram: [0; 6],
            rate_min_pps: f64::INFINITY,
            rate_max_pps: f64::NEG_INFINITY,
            rate_mean_pps: 0.0,
            rate_stddev_pps: 0.0,
            ratio_histogram: [0; RATIO_BUCKETS],
            audit: None,
        })
        .collect();
    // Mean/stddev accumulators, folded strictly in global flow order.
    let mut sum = vec![0.0f64; cohorts.len()];
    let mut sum_sq = vec![0.0f64; cohorts.len()];

    let mut events = 0u64;
    for shard in shards {
        events += shard.events_processed();
        for local in 0..shard.flow_count() {
            let c = shard.cohort_of(local) as usize;
            let st = shard.flow_stats(local);
            let cr = &mut cohorts[c];
            cr.packets_sent += st.packets_sent;
            cr.packets_delivered += st.packets_delivered;
            cr.td_events += u64::from(st.td_events);
            cr.to_events += u64::from(st.to_events);
            cr.rto_firings += u64::from(st.rto_firings);
            cr.rounds += u64::from(st.rounds);
            let rate = st.packets_sent as f64 / spec.horizon_secs;
            cr.rate_min_pps = cr.rate_min_pps.min(rate);
            cr.rate_max_pps = cr.rate_max_pps.max(rate);
            sum[c] += rate;
            sum_sq[c] += rate * rate;
            cr.ratio_histogram[ratio_bucket(rate / cr.model_rate_pps)] += 1;
        }
        for (c, cr) in cohorts.iter_mut().enumerate() {
            let h = shard.to_histogram(c);
            for (acc, v) in cr.to_histogram.iter_mut().zip(h) {
                *acc += v;
            }
        }
    }
    for (c, cr) in cohorts.iter_mut().enumerate() {
        let n = cr.flows.max(1) as f64;
        cr.rate_mean_pps = sum[c] / n;
        cr.rate_stddev_pps = (sum_sq[c] / n - cr.rate_mean_pps * cr.rate_mean_pps)
            .max(0.0)
            .sqrt();
    }

    FleetReport {
        base_seed: spec.base_seed,
        horizon_secs: spec.horizon_secs,
        total_flows: spec.total_flows(),
        events,
        cohorts,
        audit_peak_leased: 0,
        audit_peak_state_bytes: 0,
    }
}

/// Eq. (32) send-rate prediction for one cohort's grid point.
fn model_rate(config: &RoundsConfig) -> f64 {
    let p =
        LossProb::new(config.p).expect("cohort loss probability validated by arena construction"); //~ allow(expect): FlowArena::new rejects p outside (0,1) before any shard runs
    let params = ModelParams::new(config.rtt, config.t0, config.b, config.wmax)
        .expect("cohort model parameters validated by arena construction"); //~ allow(expect): same validation
    full_model(p, &params)
}

/// Maps a per-flow-rate / model-rate ratio into its half-doubling bucket.
fn ratio_bucket(ratio: f64) -> usize {
    if ratio <= 0.0 || !ratio.is_finite() {
        return 0;
    }
    let b = (ratio.log2() * 2.0).floor() + (RATIO_BUCKETS as f64 / 2.0);
    if b < 0.0 {
        0
    } else if b >= RATIO_BUCKETS as f64 {
        RATIO_BUCKETS - 1
    } else {
        b as usize //~ allow(cast): clamped to 0..RATIO_BUCKETS just above
    }
}

/// Global-flow-id offset of the audit seed space: 2^48, far above the
/// global id of any real fleet flow, so audit streams can never collide
/// with fleet streams.
const AUDIT_ID_OFFSET: u64 = 1 << 48;

/// Runs the serial packet-level wire audit: `audit_flows_per_cohort`
/// Bernoulli-loss connections per cohort, each reduced by a pooled
/// streaming analyzer, summarized into each cohort's
/// [`CohortReport::audit`].
fn run_audit(spec: &FleetCampaignSpec, report: &mut FleetReport) {
    if spec.audit_flows_per_cohort == 0 {
        return;
    }
    let mut pool = AnalyzerPool::new(StreamConfig {
        analyzer: AnalyzerConfig {
            dupack_threshold: 3,
        },
        interval_secs: None,
        timing: true,
        correlation: false,
    });
    for (c, cohort) in spec.cohorts.iter().enumerate() {
        let mut audit = CohortAudit {
            flows: spec.audit_flows_per_cohort,
            packets_sent: 0,
            packets_delivered: 0,
            wire_rate_mean_pps: 0.0,
            analyzer_td: 0,
            analyzer_to: 0,
            ground_td: 0,
            ground_to: 0,
        };
        let mut rate_sum = 0.0f64;
        for k in 0..u64::from(spec.audit_flows_per_cohort) {
            let audit_id = AUDIT_ID_OFFSET + (c as u64) * u64::from(u32::MAX) + k;
            let seed = flow_seed(spec.base_seed, audit_id);
            let mut conn = build_audit_connection(&cohort.config, seed, pool.acquire());
            conn.run_until(SimTime::from_secs_f64(spec.horizon_secs));
            conn.finish();
            let stats = conn.stats();
            audit.packets_sent += stats.packets_sent;
            audit.packets_delivered += stats.packets_delivered;
            audit.ground_td += stats.td_events;
            audit.ground_to += stats.to_events();
            rate_sum += stats.packets_sent as f64 / spec.horizon_secs;
            let analyzer = conn
                .into_observer()
                .into_stream()
                .expect("audit recorders are reduce-only"); //~ allow(expect): constructed via streaming_with three lines up
            let analysis = pool.finish(analyzer, Some(spec.horizon_secs));
            audit.analyzer_td += analysis.analysis.td_count();
            audit.analyzer_to += analysis.analysis.to_count();
        }
        audit.wire_rate_mean_pps = rate_sum / f64::from(spec.audit_flows_per_cohort.max(1));
        report.cohorts[c].audit = Some(audit);
    }
    report.audit_peak_leased = pool.peak_leased() as u64;
    report.audit_peak_state_bytes = pool.peak_state_bytes();
}

/// A packet-level referee connection at one cohort's grid point: constant
/// `RTT/2` paths (no jitter — the grid point pins RTT), Bernoulli loss at
/// `p`, RTO pinned to the cohort's `T0`, delayed ACKs per the cohort's
/// `b`.
fn build_audit_connection(
    config: &RoundsConfig,
    seed: u64,
    analyzer: tcp_trace::stream::StreamAnalyzer,
) -> Connection<TraceRecorder> {
    let half = SimDuration::from_secs_f64(config.rtt / 2.0);
    Connection::builder()
        .fwd_path(Path::constant(half))
        .rev_path(Path::constant(half))
        .loss(Bernoulli::new(config.p))
        .sender_config(SenderConfig {
            rwnd: config.wmax,
            dupthresh: 3,
            initial_cwnd: 1.0,
            rto: RtoConfig {
                granularity: SimDuration::from_millis(10),
                min_rto: SimDuration::from_secs_f64(config.t0),
                max_rto: SimDuration::from_secs_f64(
                    config.t0 * f64::powi(2.0, config.backoff_cap_exp as i32),
                ),
                initial_rto: SimDuration::from_secs_f64(config.t0),
                backoff_cap_exp: config.backoff_cap_exp,
            },
            data_limit: None,
            style: RenoStyle::Reno,
            // The audit referee runs the same variant as the cohort's
            // rounds-model flows, so mixed-variant fleets stay anchored to
            // matching packet-level behavior.
            cc: config.cc,
        })
        .receiver_config(ReceiverConfig {
            ack_every: config.b,
            ..ReceiverConfig::default()
        })
        .seed(seed)
        .build_with_observer(TraceRecorder::streaming_with(analyzer))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> FleetCampaignSpec {
        FleetCampaignSpec {
            cohorts: vec![
                FleetCohortSpec {
                    label: "p=0.02 rtt=0.1".into(),
                    config: RoundsConfig {
                        p: 0.02,
                        rtt: 0.1,
                        t0: 1.0,
                        wmax: 64,
                        ..RoundsConfig::default()
                    },
                    flows: 120,
                },
                FleetCohortSpec {
                    label: "p=0.1 rtt=0.3".into(),
                    config: RoundsConfig {
                        p: 0.1,
                        rtt: 0.3,
                        t0: 1.5,
                        wmax: 16,
                        ..RoundsConfig::default()
                    },
                    flows: 80,
                },
            ],
            base_seed: 0x000F_1EE7_CA3D,
            horizon_secs: 30.0,
            audit_flows_per_cohort: 2,
            ..FleetCampaignSpec::default()
        }
    }

    #[test]
    fn report_covers_every_cohort() {
        let spec = small_spec();
        let report = run_fleet(&spec, 2);
        assert_eq!(report.total_flows, 200);
        assert_eq!(report.cohorts.len(), 2);
        assert!(report.events > 0);
        for (cr, cs) in report.cohorts.iter().zip(&spec.cohorts) {
            assert_eq!(cr.label, cs.label);
            assert_eq!(cr.flows, cs.flows);
            assert!(cr.packets_sent > 0);
            assert!(cr.model_rate_pps > 0.0);
            assert!(cr.rate_min_pps <= cr.rate_mean_pps);
            assert!(cr.rate_mean_pps <= cr.rate_max_pps);
            let hist_total: u64 = cr.ratio_histogram.iter().sum();
            assert_eq!(hist_total, cr.flows);
            let audit = cr.audit.as_ref().expect("audit enabled");
            assert_eq!(audit.flows, 2);
            assert!(audit.packets_sent > 0);
            assert!(audit.wire_rate_mean_pps > 0.0);
        }
        assert!(report.audit_peak_leased >= 1);
        assert!(report.audit_peak_state_bytes > 0);
    }

    //= pftk#fleet-shard-equivalence type=test
    #[test]
    fn report_is_bit_identical_across_shard_counts() {
        let spec = small_spec();
        let reference = run_fleet(&spec, 1);
        for shards in [2usize, 3, 8] {
            let candidate = run_fleet(&spec, shards);
            assert_eq!(
                serde_json::to_string(&reference).unwrap(),
                serde_json::to_string(&candidate).unwrap(),
                "{shards} shards diverged from 1 shard"
            );
        }
    }

    //= pftk#fleet-shard-equivalence type=test
    #[test]
    fn schedule_chaos_never_reaches_the_report() {
        let spec = small_spec();
        let a = run_fleet_with(&spec, 4, Some(11));
        let b = run_fleet_with(&spec, 4, Some(22));
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
        );
    }

    #[test]
    fn blocks_cover_the_flow_space_contiguously() {
        for total in [
            1,
            2,
            BLOCK_FLOWS - 1,
            BLOCK_FLOWS,
            BLOCK_FLOWS + 1,
            2 * BLOCK_FLOWS + 123,
            100_000,
            1_000_003,
        ] {
            let blocks = block_ranges(total);
            assert_eq!(blocks.len() as u64, total.div_ceil(BLOCK_FLOWS));
            let mut next = 0;
            for b in &blocks {
                assert_eq!(b.start, next, "gap or overlap at {b:?} of {total}");
                assert!(!b.is_empty(), "empty block {b:?} of {total}");
                assert!(b.end - b.start <= BLOCK_FLOWS, "{b:?} of {total}");
                next = b.end;
            }
            assert_eq!(next, total, "blocks of {total} stop short");
        }
    }

    //= pftk#fleet-shard-equivalence type=test
    #[test]
    fn multi_block_fleet_matches_one_whole_range_shard() {
        // Three near-equal blocks over two cohorts; the cohort boundary
        // (flow 3000) falls inside the second block.
        let cohort = |label: &str, p, wmax, flows| FleetCohortSpec {
            label: label.into(),
            config: RoundsConfig {
                p,
                rtt: 0.1,
                t0: 1.0,
                wmax,
                ..RoundsConfig::default()
            },
            flows,
        };
        let spec = FleetCampaignSpec {
            cohorts: vec![
                cohort("p=0.02", 0.02, 64, 3000),
                cohort("p=0.1", 0.1, 16, 2 * BLOCK_FLOWS + 123 - 3000),
            ],
            base_seed: 0xB10C,
            horizon_secs: 3.0,
            audit_flows_per_cohort: 0,
            ..FleetCampaignSpec::default()
        };
        let total = spec.total_flows();
        assert_eq!(block_ranges(total).len(), 3);

        let whole = run_block(&sim_spec(&spec), 0..total, SimTime::from_secs_f64(3.0));
        let reference = serde_json::to_string(&merge_shards(&spec, &[whole])).unwrap();

        for shards in [1usize, 2, 3, 8] {
            let candidate = serde_json::to_string(&run_fleet(&spec, shards)).unwrap();
            assert_eq!(reference, candidate, "{shards} workers diverged");
        }
        let chaotic = serde_json::to_string(&run_fleet_with(&spec, 3, Some(0xB10C))).unwrap();
        assert_eq!(reference, chaotic, "schedule chaos diverged");
    }

    /// Pins the serialized report of a campaign that spans three blocks,
    /// runs every law at a mid-loss point, and has a deep-backoff cohort
    /// whose timeout gaps reach 64 · T0, at one and two workers.
    #[test]
    fn multi_block_report_bytes_are_pinned() {
        let mut cohorts = Vec::new();
        for cc in tcp_sim::cc::CcAlgorithm::ALL {
            cohorts.push(FleetCohortSpec {
                label: format!("p=0.03 cc={}", cc.label()),
                config: RoundsConfig {
                    p: 0.03,
                    rtt: 0.08,
                    t0: 0.4,
                    wmax: 48,
                    cc,
                    ..RoundsConfig::default()
                },
                flows: 1700,
            });
        }
        cohorts.push(FleetCohortSpec {
            label: "deep backoff".into(),
            config: RoundsConfig {
                p: 0.3,
                rtt: 0.2,
                t0: 0.5,
                wmax: 8,
                backoff_cap_exp: 6,
                ..RoundsConfig::default()
            },
            flows: 300,
        });
        let spec = FleetCampaignSpec {
            cohorts,
            base_seed: 0x0000_B10C_5EED,
            horizon_secs: 45.0,
            ..FleetCampaignSpec::default()
        };
        assert_eq!(block_ranges(spec.total_flows()).len(), 3);
        for shards in [1usize, 2] {
            let report = run_fleet(&spec, shards);
            assert!(report.cohorts[5].to_histogram[5] > 0, "no deep backoff");
            let json = serde_json::to_string(&report).unwrap();
            let got = (json.len(), pftk_snap::crc32(json.as_bytes()));
            assert_eq!(
                got,
                (2767, 0x662d_9c5d),
                "{shards} workers: report bytes changed (len, crc32) = ({}, {:#010x})",
                got.0,
                got.1
            );
        }
    }

    #[test]
    fn population_mean_tracks_the_model() {
        // Distributional validation in miniature: at a comfortable grid
        // point the population mean send rate lands near Eq. (32).
        let spec = FleetCampaignSpec {
            cohorts: vec![FleetCohortSpec {
                label: "validation".into(),
                config: RoundsConfig {
                    p: 0.02,
                    rtt: 0.1,
                    t0: 1.0,
                    wmax: 64,
                    ..RoundsConfig::default()
                },
                flows: 400,
            }],
            base_seed: 7,
            horizon_secs: 120.0,
            audit_flows_per_cohort: 0,
            ..FleetCampaignSpec::default()
        };
        let report = run_fleet(&spec, 4);
        let cr = &report.cohorts[0];
        let ratio = cr.rate_mean_pps / cr.model_rate_pps;
        assert!(
            (0.7..1.4).contains(&ratio),
            "population mean {} vs model {} (ratio {ratio})",
            cr.rate_mean_pps,
            cr.model_rate_pps
        );
    }

    #[test]
    fn ratio_buckets_clamp_and_center() {
        assert_eq!(ratio_bucket(0.0), 0);
        assert_eq!(ratio_bucket(f64::NAN), 0);
        assert_eq!(ratio_bucket(1e-9), 0);
        assert_eq!(ratio_bucket(1e9), RATIO_BUCKETS - 1);
        // ratio 1.0 → log2 = 0 → exact center.
        assert_eq!(ratio_bucket(1.0), RATIO_BUCKETS / 2);
        assert_eq!(ratio_bucket(0.99), RATIO_BUCKETS / 2 - 1);
    }
}
