//! Experiment runners: the paper's three measurement campaigns, executed
//! against the packet-level simulator.
//!
//! * [`run_hour_budgeted_with`] — one 1-hour "infinite source" connection
//!   per path (Table II, Figs. 7 and 9);
//! * [`run_serial_100s_with`] — 100 serially initiated 100-second
//!   connections with 50-second gaps (Figs. 8 and 10); the gaps carry no
//!   traffic, so each connection is simulated independently with its own
//!   seed, and the connections run concurrently on the worker pool;
//! * [`run_modem`] — the Fig. 11 scenario: a dedicated-buffer bottleneck
//!   path on which RTT correlates with window size and the models fail to
//!   match the measured rate.
//!
//! [`run_table2_supervised`] fans the 24 hour-long experiments out through
//! the [`crate::supervisor`]: each path runs on its own budgeted worker
//! (wall-clock deadline, sim-event budget, panic isolation, one reseeded
//! retry) and the campaign returns a [`crate::supervisor::CampaignReport`]
//! — a partial Table II with explicit holes when paths fail, instead of a
//! poisoned join killing all 24 measurements. [`run_table2_journaled`] is
//! the same campaign with a write-ahead journal.
//! One private runner runs every wire connection, calibration probes
//! included, and one job builder serves both Table II entry points.

use crate::journal::{
    self, CampaignRecord, CampaignState, Checkpoint, CrashPoint, Journal, ResultPayload,
};
use crate::paths::{ModemSpec, PathSpec};
use crate::pool;
use crate::supervisor::{
    run_campaign, CampaignReport, CampaignRow, JobSpec, Outcome, SupervisorConfig,
};
use pftk_snap::{SnapError, SnapReader, SnapResult, SnapWriter};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path as FsPath;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tcp_sim::cc::CcAlgorithm;
use tcp_sim::connection::{Connection, Observer};
use tcp_sim::link::{Bottleneck, Path};
use tcp_sim::loss::{Bernoulli, LossKind, Mixed, TimedGilbertElliott};
use tcp_sim::packet::{Ack, Segment};
use tcp_sim::queue::DropTail;
use tcp_sim::receiver::ReceiverConfig;
use tcp_sim::reno::rto::RtoConfig;
use tcp_sim::reno::sender::SenderConfig;
use tcp_sim::stats::ConnStats;
use tcp_sim::time::{SimDuration, SimTime};
use tcp_trace::analyzer::Analysis;
use tcp_trace::intervals::IntervalStats;
use tcp_trace::karn::TimingEstimates;
use tcp_trace::log::TraceLog;
use tcp_trace::record::Trace;
use tcp_trace::stream::{LogMark, StreamAnalysis, StreamAnalyzer, StreamConfig, TraceSink};

/// A [`tcp_sim::Observer`] that consumes the sender-side wire trace — the
/// glue between the simulator and the analysis programs (the `tcpdump` of
/// this testbed). Two modes, combinable:
///
/// * **retain** — a columnar [`TraceLog`] keeps every event (a
///   steady-state push is three primitive stores into preallocated
///   columns; the zero-allocation audit pins this mode);
/// * **reduce** — a [`StreamAnalyzer`] folds each event into the paper's
///   statistics on the fly with O(window) state, so hour-long campaigns
///   never materialize their traces.
///
/// The retain-only constructors ([`TraceRecorder::new`],
/// [`TraceRecorder::for_horizon`]) keep their historical behavior;
/// campaign runners use [`TraceRecorder::streaming`] (reduce-only, the
/// default) or [`TraceRecorder::streaming_retained`] (both, the
/// retention opt-in).
#[derive(Debug)]
pub struct TraceRecorder {
    log: Option<TraceLog>,
    stream: Option<StreamAnalyzer>,
}

impl Default for TraceRecorder {
    /// The historical default: retain-only.
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl TraceRecorder {
    /// An empty retain-only recorder.
    pub fn new() -> Self {
        TraceRecorder {
            log: Some(TraceLog::new()),
            stream: None,
        }
    }

    /// A retain-only recorder preallocated for a run of `horizon_secs` at
    /// roughly `events_per_sec` wire events (sends + ACK arrivals) per
    /// second.
    pub fn for_horizon(horizon_secs: f64, events_per_sec: f64) -> Self {
        TraceRecorder {
            log: Some(TraceLog::for_horizon(horizon_secs, events_per_sec)),
            stream: None,
        }
    }

    /// A reduce-only recorder: every event folds into a [`StreamAnalyzer`]
    /// and nothing is retained.
    pub fn streaming(config: StreamConfig) -> Self {
        TraceRecorder {
            log: None,
            stream: Some(StreamAnalyzer::new(config)),
        }
    }

    /// A reduce-only recorder wrapping an existing analyzer — the seam for
    /// [`tcp_trace::stream::AnalyzerPool`]: fleet audits lease a recycled
    /// analyzer shell, wrap it here, and return it to the pool via
    /// [`TraceRecorder::into_stream`] when the connection finishes.
    pub fn streaming_with(analyzer: StreamAnalyzer) -> Self {
        TraceRecorder {
            log: None,
            stream: Some(analyzer),
        }
    }

    /// Consumes the recorder, yielding the analyzer itself (un-finished)
    /// so a pool can reduce and recycle it. `None` on retain-only
    /// recorders.
    pub fn into_stream(self) -> Option<StreamAnalyzer> {
        self.stream
    }

    /// A recorder that both reduces and retains (the trace-retention
    /// opt-in for runs whose events are re-read afterwards: exports,
    /// golden-trace comparisons, ad-hoc re-analysis).
    pub fn streaming_retained(
        config: StreamConfig,
        horizon_secs: f64,
        events_per_sec: f64,
    ) -> Self {
        TraceRecorder {
            log: Some(TraceLog::for_horizon(horizon_secs, events_per_sec)),
            stream: Some(StreamAnalyzer::new(config)),
        }
    }

    /// Consumes the recorder, yielding the retained trace.
    ///
    /// # Panics
    /// On a reduce-only recorder — retention is a construction-time
    /// choice, not a recoverable condition.
    pub fn into_trace(self) -> Trace {
        self.log
            //~ allow(expect): retention is a construction-time property of the recorder
            .expect("TraceRecorder::into_trace on a non-retaining recorder")
            .into_trace()
    }

    /// Consumes the recorder, yielding the streamed analysis (with the
    /// interval segmentation bounded by `total_secs`) and the retained
    /// trace — each present iff the corresponding mode was enabled.
    pub fn finish(self, total_secs: Option<f64>) -> (Option<StreamAnalysis>, Option<Trace>) {
        (
            self.stream.map(|s| s.finish(total_secs)),
            self.log.map(TraceLog::into_trace),
        )
    }

    /// Snapshot of the streaming analyzer's state, for checkpointed runs.
    /// `None` when the recorder retains a trace (a checkpoint would then be
    /// O(duration), so checkpointed campaigns run reduce-only) or has no
    /// analyzer at all.
    pub fn stream_snapshot(&self) -> Option<Vec<u8>> {
        if self.log.is_some() {
            return None;
        }
        self.stream.as_ref().map(StreamAnalyzer::snapshot)
    }

    /// A delta of the streaming analyzer's state since `mark`
    /// ([`StreamAnalyzer::snapshot_since`]), with the mark the next delta
    /// starts from; same availability rule as
    /// [`TraceRecorder::stream_snapshot`]. Checkpointed runs write one
    /// delta per checkpoint, so each is O(cadence), not O(duration).
    pub fn stream_snapshot_since(&self, mark: LogMark) -> Option<(Vec<u8>, LogMark)> {
        if self.log.is_some() {
            return None;
        }
        let stream = self.stream.as_ref()?;
        Some((stream.snapshot_since(mark), stream.log_mark()))
    }

    /// Applies analyzer bytes — a full [`TraceRecorder::stream_snapshot`]
    /// or a [`TraceRecorder::stream_snapshot_since`] delta — and returns
    /// the mark the next delta starts from. A chain of deltas must be
    /// applied in the order it was written (see
    /// [`StreamAnalyzer::restore`]). The recorder must be reduce-only with
    /// an identically configured analyzer; on `Err` the analyzer state is
    /// unspecified and the recorder must be rebuilt before use.
    pub fn stream_restore(&mut self, bytes: &[u8]) -> SnapResult<LogMark> {
        if self.log.is_some() {
            return Err(SnapError::Unsupported(
                "checkpoint restore into a trace-retaining recorder",
            ));
        }
        match &mut self.stream {
            Some(stream) => {
                stream.restore(bytes)?;
                Ok(stream.log_mark())
            }
            None => Err(SnapError::Invalid("recorder has no streaming analyzer")),
        }
    }
}

impl Observer for TraceRecorder {
    fn on_segment_sent(&mut self, at: SimTime, seg: Segment) {
        if let Some(log) = &mut self.log {
            log.push_send(at.as_nanos(), seg.seq, seg.retransmit);
        }
        if let Some(stream) = &mut self.stream {
            stream.on_send(at.as_nanos(), seg.seq, seg.retransmit);
        }
    }

    fn on_ack_received(&mut self, at: SimTime, ack: Ack) {
        if let Some(log) = &mut self.log {
            log.push_ack_in(at.as_nanos(), ack.ack);
        }
        if let Some(stream) = &mut self.stream {
            stream.on_ack_in(at.as_nanos(), ack.ack);
        }
    }
}

/// Per-run options: what the recorder keeps beyond the streamed analysis.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentOptions {
    /// Retain the full wire trace on the result (`ExperimentResult::trace`
    /// = `Some`). Off by default: campaigns that only read the analysis
    /// should not hold O(duration) memory per connection.
    pub retain_trace: bool,
    /// Interval length for the streamed segmentation (`Some(100.0)` = the
    /// paper's Fig. 7–10 intervals); `None` disables it.
    pub interval_secs: Option<f64>,
    /// Run the streamed RTT-vs-flight correlation diagnostic (Fig. 11).
    pub correlation: bool,
    /// Congestion-control variant the sender runs. The paper's campaigns
    /// are Reno; the variant matrix re-runs them per algorithm.
    pub cc: CcAlgorithm,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            retain_trace: false,
            interval_secs: Some(100.0),
            correlation: true,
            cc: CcAlgorithm::default(),
        }
    }
}

impl ExperimentOptions {
    /// The default options with trace retention switched on.
    pub fn retained() -> Self {
        ExperimentOptions {
            retain_trace: true,
            ..ExperimentOptions::default()
        }
    }
}

/// Result of one simulated connection.
///
/// The campaign journal records completed attempts in the `pftk-snap`
/// codec ([`ExperimentResult::encode`]), which carries every `f64` as its
/// bits; that is what lets a journal-replayed row stay bit-identical to
/// the live one (the resume-equivalence gate checks this). The serde
/// derives remain for JSON output and for journals of older builds, which
/// stored results as JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// The streamed analysis: loss indications, Karn timing, interval
    /// rows, RTT-vs-flight correlation — computed while simulating, no
    /// trace materialization.
    pub stream: StreamAnalysis,
    /// The full wire trace, retained only when
    /// [`ExperimentOptions::retain_trace`] was set.
    pub trace: Option<Trace>,
    /// Simulator ground-truth counters.
    pub stats: ConnStats,
    /// Ground-truth mean RTT from the sender's estimator, seconds.
    pub ground_rtt: Option<f64>,
    /// Ground-truth mean single-timeout duration, seconds.
    pub ground_t0: Option<f64>,
    /// Wall-clock horizon simulated, seconds. When the sim-event budget
    /// aborted the run early this is the time actually reached, so rates
    /// stay honest.
    pub duration_secs: f64,
    /// True when the sim-event budget stopped the run before the horizon
    /// (a runaway event loop was fenced off; the analysis covers only
    /// `duration_secs`).
    pub event_budget_hit: bool,
}

impl ExperimentResult {
    /// Ground-truth send rate, packets/second.
    pub fn send_rate(&self) -> f64 {
        self.stats.packets_sent as f64 / self.duration_secs
    }

    /// The streamed loss-indication analysis (what batch
    /// `analyze(&trace, _)` used to recompute).
    pub fn analysis(&self) -> &Analysis {
        &self.stream.analysis
    }

    /// The streamed Karn RTT / T0 estimates.
    pub fn timing(&self) -> Option<&TimingEstimates> {
        self.stream.timing.as_ref()
    }

    /// The streamed per-interval statistics.
    pub fn intervals(&self) -> Option<&[IntervalStats]> {
        self.stream.intervals.as_deref()
    }

    /// The streamed RTT-vs-flight correlation (Fig. 11 diagnostic).
    pub fn rtt_window_corr(&self) -> Option<f64> {
        self.stream.rtt_window_corr
    }

    /// Encodes the result with the `pftk-snap` codec: every field, every
    /// `f64` as its bits (NaN, the infinities and −0.0 included).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.stream.encode_into(&mut w);
        match &self.trace {
            Some(trace) => {
                w.put_bool(true);
                let mut records = Vec::with_capacity(trace.len() * 17);
                trace.encode_binary(&mut records);
                w.put_bytes(&records);
            }
            None => w.put_bool(false),
        }
        self.stats.snapshot_into(&mut w);
        w.put_opt_f64(self.ground_rtt);
        w.put_opt_f64(self.ground_t0);
        w.put_f64(self.duration_secs);
        w.put_bool(self.event_budget_hit);
        w.into_bytes()
    }

    /// Decodes bytes written by [`ExperimentResult::encode`]. Truncated,
    /// malformed or over-long input is an `Err`, never a panic.
    pub fn decode(bytes: &[u8]) -> SnapResult<ExperimentResult> {
        let mut r = SnapReader::new(bytes);
        let stream = StreamAnalysis::decode_from(&mut r)?;
        let trace = if r.get_bool()? {
            Some(
                Trace::decode_binary(&mut r.get_bytes()?)
                    .map_err(|_| SnapError::Invalid("trace records"))?,
            )
        } else {
            None
        };
        let mut stats = ConnStats::default();
        stats.restore_from(&mut r)?;
        let result = ExperimentResult {
            stream,
            trace,
            stats,
            ground_rtt: r.get_opt_f64()?,
            ground_t0: r.get_opt_f64()?,
            duration_secs: r.get_f64()?,
            event_budget_hit: r.get_bool()?,
        };
        r.finish()?;
        Ok(result)
    }
}

fn sender_config(spec: &PathSpec, cc: CcAlgorithm) -> SenderConfig {
    // All per-OS knobs come from the quirk bundle and go into the sender's
    // config, so no protocol code branches on host identity past this
    // point.
    let quirks = spec.sender_os().quirks();
    SenderConfig {
        rwnd: spec.wmax,
        dupthresh: quirks.dupthresh,
        initial_cwnd: 1.0,
        rto: RtoConfig {
            // Calibration: the RTO floor pins the single-timeout duration to
            // the row's T0 (DESIGN.md §1); granularity stays fine so the
            // floor, not rounding, dominates.
            granularity: SimDuration::from_millis(10),
            min_rto: SimDuration::from_secs_f64(spec.t0),
            max_rto: SimDuration::from_secs_f64(spec.t0 * 64.0 * 4.0),
            initial_rto: SimDuration::from_secs_f64(spec.t0),
            backoff_cap_exp: quirks.backoff_cap_exp,
        },
        data_limit: None,
        // The paper models Reno-style recovery; the referee keeps the Reno
        // loss-recovery style while the congestion controller varies.
        style: tcp_sim::reno::sender::RenoStyle::Reno,
        cc,
    }
}

/// Calibrated wire-loss parameters: the path's loss process is a
/// [`Mixed`] union of isolated per-packet losses (which mostly yield
/// triple-duplicate recoveries) and timed loss bursts (which yield timeout
/// sequences, with backoff when an episode outlasts the RTO).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireLoss {
    /// Per-packet isolated-loss probability (drives the TD count).
    pub isolated_p: f64,
    /// Long-run fraction of time spent in a loss burst (drives the TO count).
    pub burst_time_frac: f64,
    /// Mean burst duration, seconds.
    pub mean_burst_secs: f64,
}

impl WireLoss {
    fn build(&self) -> LossKind {
        let mut components: Vec<LossKind> = Vec::new();
        if self.isolated_p > 0.0 {
            components.push(Bernoulli::new(self.isolated_p).into());
        }
        if self.burst_time_frac > 0.0 {
            components.push(
                TimedGilbertElliott::from_rate_and_burst_secs(
                    self.burst_time_frac,
                    self.mean_burst_secs,
                )
                .into(),
            );
        }
        Mixed::from_kinds(components).into()
    }

    /// Exact bit image, for journaled checkpoints: a resumed run rebuilds
    /// its loss process from these bits instead of re-calibrating, so the
    /// parameters are bit-identical by construction.
    fn to_bits(self) -> [u64; 3] {
        [
            self.isolated_p.to_bits(),
            self.burst_time_frac.to_bits(),
            self.mean_burst_secs.to_bits(),
        ]
    }

    /// Inverse of [`WireLoss::to_bits`].
    fn from_bits(bits: [u64; 3]) -> WireLoss {
        WireLoss {
            isolated_p: f64::from_bits(bits[0]),
            burst_time_frac: f64::from_bits(bits[1]),
            mean_burst_secs: f64::from_bits(bits[2]),
        }
    }
}

/// The seed a campaign job seeded `seed` calibrates its wire with. Every
/// campaign derives it here, so a change to calibration seeding is one
/// change.
pub fn calibration_seed(seed: u64) -> u64 {
    seed.wrapping_mul(31).wrapping_add(17)
}

/// Finds wire-loss parameters whose *analyzed* TD and TO rates match the
/// Table II row. Real Reno's mapping from wire loss to loss indications is
/// not identity (a burst becomes several window reductions; an isolated
/// loss in a small window becomes a timeout), so both knobs are solved by a
/// multiplicative fixed point: five steps, each on one 400 s probe,
/// keeping the last parameters whatever their residual.
pub fn calibrate_wire_loss(spec: &PathSpec, seed: u64) -> WireLoss {
    let packets = spec.paper_packets.max(1) as f64;
    let td_target = spec.paper_td as f64 / packets;
    let to_target = spec.paper_loss.saturating_sub(spec.paper_td) as f64 / packets;
    // Burst episodes ~3/4 of the RTO: a realistic minority outlast the
    // first timeout (→ T1+ columns); the cap keeps large loss targets
    // reachable on paths with very long RTOs (pif→alps: T0 = 7.3 s).
    let mut wire = WireLoss {
        isolated_p: td_target * 2.0,
        burst_time_frac: to_target,
        mean_burst_secs: (spec.t0 * 0.75).clamp(0.2, 1.5),
    };
    // Probe runs stream their classification: only the loss-indication
    // counts feed the fixed point, so probe traces are not retained and
    // the interval, correlation and Karn timing reductions are off. The
    // TD/TO classifier never reads Karn state (the two are separate cores
    // of the streaming analyzer), so the counts are the same without it.
    let probe_opts = ExperimentOptions {
        retain_trace: false,
        interval_secs: None,
        correlation: false,
        // Calibration always probes with the Reno referee: wire-loss
        // parameters are a property of the path, pinned against the
        // paper's own (Reno) loss-indication rates, so every variant runs
        // over the identical calibrated wire.
        cc: CcAlgorithm::default(),
    };
    for iter in 0..5 {
        let probe_seed = seed.wrapping_add(iter);
        let mut probe = WireRun::new(spec, wire, 400.0, probe_seed, u64::MAX, &probe_opts);
        probe.stream.timing = false;
        let r = probe.run(None).0;
        let a = r.analysis();
        if a.packets_sent == 0 {
            break;
        }
        let sent = a.packets_sent as f64;
        let td_rate = a.td_count() as f64 / sent;
        let to_rate = a.to_count() as f64 / sent;
        if td_target > 0.0 {
            let factor = if td_rate > 0.0 {
                td_target / td_rate
            } else {
                3.0
            };
            wire.isolated_p = (wire.isolated_p * factor.clamp(0.2, 5.0)).clamp(1e-7, 0.3);
        } else {
            wire.isolated_p = 0.0;
        }
        if to_target > 0.0 {
            let factor = if to_rate > 0.0 {
                to_target / to_rate
            } else {
                3.0
            };
            wire.burst_time_frac = (wire.burst_time_frac * factor.clamp(0.2, 5.0)).clamp(1e-7, 0.6);
        } else {
            wire.burst_time_frac = 0.0;
        }
    }
    wire
}

/// Sim-event budget for supervised runs: a 1-hour Table II trace needs a
/// few million events; anything past this is a runaway loop, not a
/// measurement.
pub const DEFAULT_EVENT_BUDGET: u64 = 50_000_000;

fn stream_config(spec: &PathSpec, opts: &ExperimentOptions) -> StreamConfig {
    StreamConfig {
        analyzer: tcp_trace::analyzer::AnalyzerConfig {
            dupack_threshold: spec.sender_os().dupack_threshold(),
        },
        interval_secs: opts.interval_secs,
        timing: true,
        correlation: opts.correlation,
    }
}

/// One wire connection: a Table II path over a wire-loss process, run
/// from `seed` to its horizon under a sim-event budget. Every wire run of
/// the testbed is one of these: the calibration probes, the hour runs,
/// the serial connections and the Table II jobs.
struct WireRun {
    spec: PathSpec,
    wire: WireLoss,
    horizon_secs: f64,
    seed: u64,
    max_events: u64,
    opts: ExperimentOptions,
    /// The streamed reductions.
    stream: StreamConfig,
}

/// Everything a checkpointed run needs to know about its journal.
struct CheckpointCtx<'a> {
    journal: &'a Journal,
    job_index: u64,
    every_sim_secs: f64,
    /// The checkpoint chain to resume from, oldest first; empty for a
    /// fresh run.
    resume: &'a [Checkpoint],
    crash: Option<&'a CrashPoint>,
}

impl WireRun {
    /// A run that streams the reductions `opts` asks for.
    fn new(
        spec: &PathSpec,
        wire: WireLoss,
        horizon_secs: f64,
        seed: u64,
        max_events: u64,
        opts: &ExperimentOptions,
    ) -> Self {
        WireRun {
            spec: *spec,
            wire,
            horizon_secs,
            seed,
            max_events,
            opts: *opts,
            stream: stream_config(spec, opts),
        }
    }

    /// Builds the connection. Every build of a run is configured
    /// identically, so a resumed connection is rebuilt from exactly the
    /// configuration the crashed one had (the snapshot codec restores
    /// mutable state only).
    fn build_wire_connection(&self) -> Connection<TraceRecorder> {
        let spec = &self.spec;
        // Mild jitter (5% of RTT) keeps RTT samples realistic without
        // breaking the RTT-independence assumption the non-modem paths must
        // satisfy.
        let half = spec.rtt / 2.0;
        let jitter = SimDuration::from_secs_f64(spec.rtt * 0.05);
        let fwd = Path::constant(SimDuration::from_secs_f64(half)).with_jitter(jitter);
        let rev = Path::constant(SimDuration::from_secs_f64(half)).with_jitter(jitter);
        let recorder = if self.opts.retain_trace {
            // Preallocate the trace from the paper's hour-long packet count
            // for this path: sends plus delayed (b=2) ACK arrivals ≈ 1.5×
            // packets.
            TraceRecorder::streaming_retained(
                self.stream,
                self.horizon_secs,
                spec.paper_packets.max(1) as f64 / 3600.0 * 1.5,
            )
        } else {
            TraceRecorder::streaming(self.stream)
        };
        Connection::builder()
            .fwd_path(fwd)
            .rev_path(rev)
            .loss(self.wire.build())
            .sender_config(sender_config(spec, self.opts.cc))
            .receiver_config(ReceiverConfig::default())
            .seed(self.seed)
            .build_with_observer(recorder)
    }

    /// Runs the connection to the horizon and drains it into a result;
    /// returns the result and whether the run resumed from a checkpoint.
    ///
    /// Without `checkpoints` one slice covers the whole horizon. With
    /// them, the run goes in sim-time slices and journals a checkpoint
    /// between slices. Determinism: slice boundaries are absolute
    /// multiples of the cadence (`t_k = k · every`), and the checkpoint
    /// records the next boundary index, so an interrupted-and-resumed run
    /// executes exactly the boundary sequence of an uninterrupted one —
    /// and `Connection::run_until_budget` is boundary-insensitive (the sim
    /// is event-driven; splitting a run at any time yields the identical
    /// event stream). Each checkpoint carries the connection snapshot and
    /// an analyzer delta since the previous checkpoint of this run, both
    /// encoded here on the worker thread strictly between slices; all
    /// journal I/O happens on the journal's writer thread, so the sim hot
    /// path never sees either.
    fn run(&self, checkpoints: Option<&CheckpointCtx<'_>>) -> (ExperimentResult, bool) {
        let mut conn = self.build_wire_connection();
        let mut next_boundary: u64 = 1;
        let mut mark = LogMark::default();
        let mut resumed = false;
        let resume = checkpoints.and_then(|ctx| Some((ctx, ctx.resume.last()?)));
        if let Some((ctx, cp)) = resume {
            let compatible = cp.seed == self.seed
                && cp.horizon_bits == self.horizon_secs.to_bits()
                && cp.every_bits == ctx.every_sim_secs.to_bits()
                && cp.wire_bits == self.wire.to_bits();
            let restored = compatible
                .then(|| restore_chain(&mut conn, ctx.resume))
                .and_then(Result::ok);
            if let Some(restored) = restored {
                next_boundary = cp.next_boundary;
                mark = restored;
                resumed = true;
            } else {
                // A stale or mismatched checkpoint is not an error; restore
                // may have half-applied, so rebuild and run from the start.
                conn = self.build_wire_connection();
            }
        }
        let every = match checkpoints {
            Some(ctx) if ctx.every_sim_secs > 0.0 => ctx.every_sim_secs,
            // No journal, or checkpointing disabled.
            _ => self.horizon_secs,
        };
        let event_budget_hit = loop {
            let t = ((next_boundary as f64) * every).min(self.horizon_secs);
            let hit = conn.run_until_budget(SimTime::from_secs_f64(t), self.max_events);
            let ctx = match checkpoints {
                Some(ctx) if !hit && t < self.horizon_secs => ctx,
                _ => break hit,
            };
            if let (Ok(conn_bytes), Some((stream, next_mark))) =
                (conn.snapshot(), conn.observer().stream_snapshot_since(mark))
            {
                mark = next_mark;
                ctx.journal
                    .append_record(&CampaignRecord::Checkpoint(Checkpoint {
                        job_index: ctx.job_index,
                        seed: self.seed,
                        wire_bits: self.wire.to_bits(),
                        horizon_bits: self.horizon_secs.to_bits(),
                        every_bits: every.to_bits(),
                        next_boundary: next_boundary + 1,
                        conn: conn_bytes,
                        stream,
                    }));
            } else {
                // No record for this boundary breaks the chain, so the next
                // checkpoint starts a new one and must carry the full state.
                mark = LogMark::default();
            }
            if let Some(crash) = ctx.crash {
                crash.tick();
            }
            next_boundary += 1;
        };
        (
            finish_connection(conn, self.horizon_secs, event_budget_hit),
            resumed,
        )
    }
}

/// Restores `conn` from a checkpoint chain: the connection from the last
/// record, the analyzer by applying every record's bytes in order.
/// Returns the analyzer mark the next delta starts from.
fn restore_chain(
    conn: &mut Connection<TraceRecorder>,
    chain: &[Checkpoint],
) -> SnapResult<LogMark> {
    let last = chain
        .last()
        .ok_or(SnapError::Invalid("empty checkpoint chain"))?;
    conn.restore(&last.conn)?;
    let mut mark = LogMark::default();
    for cp in chain {
        mark = conn.observer_mut().stream_restore(&cp.stream)?;
    }
    Ok(mark)
}

/// Drains a finished connection into an [`ExperimentResult`]: every wire
/// run and the modem run end here.
fn finish_connection(
    mut conn: Connection<TraceRecorder>,
    horizon_secs: f64,
    event_budget_hit: bool,
) -> ExperimentResult {
    conn.finish();
    let stats = conn.stats();
    let ground_rtt = conn.sender().rto_estimator().mean_rtt();
    let ground_t0 = conn.sender().rto_estimator().mean_t0();
    // On abort the clock stays at the last processed event; report the
    // horizon actually covered so rates are not inflated.
    let duration_secs = if event_budget_hit {
        conn.now().as_secs_f64().max(1e-9)
    } else {
        horizon_secs
    };
    let (stream, trace) = conn.into_observer().finish(Some(duration_secs));
    ExperimentResult {
        stream: stream.unwrap_or_default(),
        trace,
        stats,
        ground_rtt,
        ground_t0,
        duration_secs,
        event_budget_hit,
    }
}

/// The one calibration site: the wire a campaign job seeded `seed` runs
/// over. A resuming attempt takes its checkpoint's bits, which equal what
/// calibration would produce (it is seed-deterministic); using them skips
/// the probe runs and is exact by construction.
fn job_wire(spec: &PathSpec, seed: u64, resume: Option<&Checkpoint>) -> WireLoss {
    match resume {
        Some(cp) => WireLoss::from_bits(cp.wire_bits),
        None => calibrate_wire_loss(spec, calibration_seed(seed)),
    }
}

/// The job behind every hour run and every Table II row: the job's wire,
/// then one connection seeded `seed`, checkpointed when `checkpoints` is
/// given.
fn run_job(
    spec: &PathSpec,
    seed: u64,
    horizon_secs: f64,
    max_events: u64,
    opts: &ExperimentOptions,
    checkpoints: Option<&CheckpointCtx<'_>>,
) -> (ExperimentResult, bool) {
    let wire = job_wire(spec, seed, checkpoints.and_then(|ctx| ctx.resume.last()));
    WireRun::new(spec, wire, horizon_secs, seed, max_events, opts).run(checkpoints)
}

/// One hour-long "infinite source" connection (§III, first experiment
/// set) under a sim-event budget, so a runaway event loop degrades to a
/// truncated (but analyzable) result instead of wedging the worker. A
/// Table II row is this run at the row's seed, [`DEFAULT_EVENT_BUDGET`]
/// (which no hour run comes near) and the default options;
/// [`ExperimentOptions::retained`] keeps the trace (e.g. for golden-trace
/// comparisons).
pub fn run_hour_budgeted_with(
    spec: &PathSpec,
    seed: u64,
    max_events: u64,
    opts: &ExperimentOptions,
) -> ExperimentResult {
    run_job(spec, seed, 3600.0, max_events, opts, None).0
}

/// [`run_hour_budgeted_with`] with the default options, kept for the
/// frozen benchmark (`perfbench/`) until ROADMAP item 4.
pub fn run_hour_budgeted(spec: &PathSpec, seed: u64, max_events: u64) -> ExperimentResult {
    run_hour_budgeted_with(spec, seed, max_events, &ExperimentOptions::default())
}

/// The second §III campaign: `n` serially initiated 100-second connections.
/// The 50-second gaps carry no traffic; each connection gets an independent
/// seed derived from `base_seed` and its index.
///
/// "Serially initiated" is the paper's measurement schedule. Each
/// simulated connection is a pure function of the path, the calibrated
/// wire and its own seed, so the connections run concurrently, one pooled
/// worker per available core, and come back in index order: the results
/// do not depend on the worker count.
///
/// # Panics
/// If a connection panics or exceeds the pool's wall budget.
pub fn run_serial_100s_with(
    spec: &PathSpec,
    n: usize,
    base_seed: u64,
    opts: &ExperimentOptions,
) -> Vec<ExperimentResult> {
    // One calibration pass serves all n connections (the path doesn't change
    // between them).
    let wire = job_wire(spec, base_seed, None);
    let tasks = (0..n)
        .map(|i| {
            let seed = base_seed.wrapping_mul(1000).wrapping_add(i as u64);
            let connection = WireRun::new(spec, wire, 100.0, seed, u64::MAX, opts);
            move || connection.run(None).0
        })
        .collect();
    pool::run_in_order(pool::available_workers(), None, tasks)
}

/// [`run_serial_100s_with`] with the default options, kept for the
/// frozen benchmark (`perfbench/`) until ROADMAP item 4.
pub fn run_serial_100s(spec: &PathSpec, n: usize, base_seed: u64) -> Vec<ExperimentResult> {
    run_serial_100s_with(spec, n, base_seed, &ExperimentOptions::default())
}

/// Runs Table II hour-long experiments under supervision: the report's
/// rows are in `specs` order, one per path, with per-path seed
/// `base_seed + index` (so row *i* reproduces [`run_hour_budgeted_with`]
/// on `specs[i]` at seed `base_seed + i`, [`DEFAULT_EVENT_BUDGET`] and the
/// default options).
///
/// A panicking, hanging, or runaway path no longer kills the campaign:
/// its row is labeled (`Panicked`/`TimedOut`) and the remaining paths'
/// results survive — a partial Table II with explicit holes. This is
/// [`run_table2_journaled`] without a journal.
pub fn run_table2_supervised(
    specs: &[PathSpec],
    base_seed: u64,
    config: &SupervisorConfig,
) -> CampaignReport {
    let config = JournalConfig {
        supervisor: config.clone(),
        ..JournalConfig::default()
    };
    table2_campaign(specs, base_seed, &config, None, CampaignState::default())
}

/// Tunables for a Table II campaign ([`run_table2_journaled`]).
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Supervisor tunables for the underlying campaign.
    pub supervisor: SupervisorConfig,
    /// Sim-time checkpoint cadence, seconds; non-positive disables
    /// checkpointing (completed attempts are still journaled).
    pub checkpoint_sim_secs: f64,
    /// Run horizon per connection, seconds (the paper's hour).
    pub horizon_secs: f64,
    /// Sim-event budget per attempt.
    pub event_budget: u64,
    /// Congestion-control variant every attempt runs. Part of the
    /// checkpoint compatibility surface: the connection snapshot carries
    /// the controller's algorithm tag, so a checkpoint written under a
    /// different variant fails restore and the attempt reruns fresh.
    pub cc: CcAlgorithm,
    /// Test instrumentation: a campaign-wide countdown that panics a
    /// worker at the n-th checkpoint boundary, simulating a crash (the
    /// resume-equivalence gate arms this; production campaigns leave it
    /// `None`).
    pub crash: Option<Arc<CrashPoint>>,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            supervisor: SupervisorConfig::default(),
            // A dozen checkpoints per hour-long run: losing a process costs
            // at most 5 sim-minutes of re-simulation per in-flight path.
            checkpoint_sim_secs: 300.0,
            horizon_secs: 3600.0,
            event_budget: DEFAULT_EVENT_BUDGET,
            cc: CcAlgorithm::default(),
            crash: None,
        }
    }
}

/// Crash-safe [`run_table2_supervised`]: the campaign writes a
/// write-ahead journal at `journal_path` and can be re-invoked with the
/// same arguments after a crash (process kill, power loss) to pick up
/// where it left off.
///
/// * attempts already recorded as complete are **replayed** from the
///   journal without re-running (their rows keep the recorded outcome);
/// * attempts with an in-flight checkpoint **resume** from it and are
///   labeled [`Outcome::Resumed`] — their results are bit-identical to an
///   uninterrupted run (`tests/resume_equivalence.rs` gates this);
/// * a torn or corrupt journal tail is treated as a clean truncation: the
///   affected work is re-run, the campaign never aborts.
///
/// Completion records are fsync'd before the row is reported; checkpoints
/// are written asynchronously off the simulation threads. The journal is
/// strictly append-only — resuming never rewrites existing bytes.
//= pftk#crash-resume
pub fn run_table2_journaled(
    specs: &[PathSpec],
    base_seed: u64,
    journal_path: &FsPath,
    config: &JournalConfig,
) -> io::Result<CampaignReport> {
    let state = journal::replay(journal_path)?.into_state();
    let journal = Arc::new(Journal::open(journal_path)?);
    let report = table2_campaign(specs, base_seed, config, Some(&journal), state);
    // Flush and join the writer before returning so the journal is durable
    // and byte-stable the moment the report is in hand. An abandoned
    // (timed-out) attempt may still hold a journal handle; its drop will
    // flush whenever it finally dies.
    if let Ok(journal) = Arc::try_unwrap(journal) {
        journal.close()?;
    }
    Ok(report)
}

/// The one Table II campaign: builds each path's job, runs the jobs under
/// the supervisor and returns the rows in `specs` order. With a journal,
/// `state` is what its replay held: completed attempts are replayed,
/// in-flight ones resume from their checkpoints, and every live attempt
/// journals its checkpoints and its completion.
fn table2_campaign(
    specs: &[PathSpec],
    base_seed: u64,
    config: &JournalConfig,
    journal: Option<&Arc<Journal>>,
    mut state: CampaignState,
) -> CampaignReport {
    let opts = ExperimentOptions {
        cc: config.cc,
        ..ExperimentOptions::default()
    };
    let mut prefilled: Vec<Option<CampaignRow>> = specs.iter().map(|_| None).collect();
    let mut jobs: Vec<JobSpec> = Vec::new();
    let mut resumed_flags: Vec<Arc<AtomicBool>> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let job_index = i as u64;
        let first_seed = base_seed.wrapping_add(job_index);
        if let Some(done) = state.done.get(&job_index) {
            if let Some(result) = done.result.decode() {
                let outcome = if done.resumed {
                    Outcome::Resumed
                } else if done.seed == first_seed {
                    Outcome::Ok
                } else {
                    Outcome::Retried
                };
                prefilled[i] = Some(CampaignRow {
                    label: done.label.clone(),
                    seed: done.seed,
                    outcome,
                    attempts: if done.seed == first_seed { 1 } else { 2 },
                    result: Some(result),
                });
                continue;
            }
            // An undecodable result payload re-runs the attempt — same
            // never-abort policy as a torn tail.
        }
        let resume = state.inflight.remove(&job_index).unwrap_or_default();
        let resumed_flag = Arc::new(AtomicBool::new(false));
        resumed_flags.push(Arc::clone(&resumed_flag));
        let spec = *spec;
        let label = spec.id();
        let journal = journal.map(Arc::clone);
        let config = config.clone();
        jobs.push(JobSpec {
            label: label.clone(),
            seed: first_seed,
            job: Arc::new(move |seed| {
                // Only a checkpoint chain of this very attempt (same seed)
                // may be resumed; a reseeded retry starts fresh.
                let resume = match resume.last() {
                    Some(cp) if cp.seed == seed => resume.as_slice(),
                    _ => &[],
                };
                let ctx = journal.as_deref().map(|journal| CheckpointCtx {
                    journal,
                    job_index,
                    every_sim_secs: config.checkpoint_sim_secs,
                    resume,
                    crash: config.crash.as_deref(),
                });
                let (horizon, budget) = (config.horizon_secs, config.event_budget);
                let (result, resumed) = run_job(&spec, seed, horizon, budget, &opts, ctx.as_ref());
                if let Some(journal) = &journal {
                    // Durable completion record *before* the supervisor
                    // sees the row: once a row is reported, it is never
                    // recomputed.
                    let _ = journal.append_record_sync(&CampaignRecord::AttemptDone {
                        job_index,
                        label: label.clone(),
                        seed,
                        resumed,
                        result: ResultPayload::Snap(result.encode()),
                    });
                }
                resumed_flag.store(resumed, Ordering::Release);
                result
            }),
        });
    }
    // Merge replayed and live rows back into spec order: live rows come
    // out of `run_campaign` in submission order, which is spec order with
    // the replayed indices skipped. `run_campaign` returns one row per job;
    // should that ever break, the table ends early rather than panicking.
    let mut live = run_campaign(jobs, &config.supervisor)
        .rows
        .into_iter()
        .zip(resumed_flags);
    let rows = prefilled
        .into_iter()
        .map_while(|pre| {
            pre.or_else(|| {
                let (mut row, resumed) = live.next()?;
                if row.outcome == Outcome::Ok && resumed.load(Ordering::Acquire) {
                    row.outcome = Outcome::Resumed;
                }
                Some(row)
            })
        })
        .collect();
    CampaignReport { rows }
}

/// The Fig. 11 modem experiment: no random loss at all — every drop comes
/// from the dedicated drop-tail buffer in front of the slow link, and the
/// standing queue makes RTT grow with the window. The run streams what
/// the default [`ExperimentOptions`] ask for.
pub fn run_modem(spec: &ModemSpec, horizon_secs: f64, seed: u64) -> ExperimentResult {
    let opts = ExperimentOptions::default();
    let half = spec.base_rtt / 2.0;
    let fwd = Path::constant(SimDuration::from_secs_f64(half)).with_bottleneck(Bottleneck::new(
        spec.bottleneck_pps,
        Box::new(DropTail::new(spec.buffer_packets)),
    ));
    let rev = Path::constant(SimDuration::from_secs_f64(half));
    let sender = SenderConfig {
        rwnd: spec.wmax,
        dupthresh: 3,
        initial_cwnd: 1.0,
        rto: RtoConfig::default(),
        data_limit: None,
        style: tcp_sim::reno::sender::RenoStyle::Reno,
        cc: opts.cc,
    };
    // Modem sender is a standard-threshold stack (dupthresh 3).
    let config = StreamConfig {
        analyzer: tcp_trace::analyzer::AnalyzerConfig::default(),
        interval_secs: opts.interval_secs,
        timing: true,
        correlation: opts.correlation,
    };
    let mut conn = Connection::builder()
        .fwd_path(fwd)
        .rev_path(rev)
        .loss(Box::new(tcp_sim::loss::Bernoulli::new(spec.wire_loss)))
        .sender_config(sender)
        .seed(seed)
        .build_with_observer(TraceRecorder::streaming(config));
    conn.run_for(SimDuration::from_secs_f64(horizon_secs));
    finish_connection(conn, horizon_secs, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::{fig8_paths, table2_path, TABLE2_PATHS};
    use tcp_trace::analyzer::{analyze, AnalyzerConfig};

    /// Calibrated wire-loss parameters, bit for bit, for four Table II
    /// paths (three sender OSes, one TD-free path) at two seeds — recorded
    /// when the probes still ran Karn timing, so they pin that the probes'
    /// loss-indication counts do not depend on it.
    #[test]
    fn calibration_bits_are_pinned() {
        let paths = [
            ("manic", "alps"),
            ("void", "baskerville"),
            ("babel", "spiff"),
            ("pif", "imagine"),
        ];
        // Seeds 1 and 300 of each path, in order.
        let pinned: [[u64; 3]; 8] = [
            [
                0x3F57_D121_2C6B_3B16,
                0x3FB2_3D78_6731_C813,
                0x3FF8_0000_0000_0000,
            ],
            [
                0x3F31_BA95_76EE_F73F,
                0x3FBA_D3AD_09C7_00C2,
                0x3FF8_0000_0000_0000,
            ],
            [
                0x3F86_0AF1_9D38_DF82,
                0x3FA7_9465_8984_00EE,
                0x3FEA_4189_374B_C6A8,
            ],
            [
                0x3F8E_B6B1_4348_6E04,
                0x3F90_AAE8_F929_8E38,
                0x3FEA_4189_374B_C6A8,
            ],
            [0, 0x3FAC_2AAF_D353_F5A5, 0x3FE6_DF3B_645A_1CAC],
            [0, 0x3FB8_DB9A_941D_82B6, 0x3FE6_DF3B_645A_1CAC],
            [
                0x3F36_2887_2BCB_0EC1,
                0x3FB0_DA3D_B7C1_03FB,
                0x3FE0_CCCC_CCCC_CCCC,
            ],
            [
                0x3F12_C46F_14A2_3080,
                0x3FB8_76CB_F667_D3BF,
                0x3FE0_CCCC_CCCC_CCCC,
            ],
        ];
        let runs = paths.iter().flat_map(|&path| [(path, 1), (path, 300)]);
        for (((sender, receiver), seed), bits) in runs.zip(pinned) {
            let spec = table2_path(sender, receiver).expect("Table II path");
            let wire = calibrate_wire_loss(spec, seed);
            assert_eq!(wire.to_bits(), bits, "{sender}->{receiver} seed {seed}");
        }
    }

    #[test]
    fn hour_run_produces_consistent_analysis_and_stats() {
        let spec = table2_path("manic", "baskerville").unwrap();
        let r = run_hour_budgeted(spec, 1, DEFAULT_EVENT_BUDGET);
        assert!(
            r.trace.is_none(),
            "campaign default must not retain the trace"
        );
        assert_eq!(r.analysis().packets_sent, r.stats.packets_sent);
        assert!(r.stats.packets_sent > 1000, "sent {}", r.stats.packets_sent);
        assert!(r.stats.loss_indications() > 50);
        assert!(r.send_rate() > 1.0);
        // The streamed reductions all ran.
        assert!(r.timing().is_some());
        assert_eq!(r.intervals().map(<[_]>::len), Some(36));
    }

    #[test]
    fn retained_run_matches_batch_analysis_bit_for_bit() {
        let spec = table2_path("manic", "baskerville").unwrap();
        let retained = run_hour_budgeted_with(
            spec,
            1,
            DEFAULT_EVENT_BUDGET,
            &ExperimentOptions::retained(),
        );
        let trace = retained.trace.as_ref().expect("retention requested");
        // Send count in the retained trace matches ground truth.
        assert_eq!(
            trace
                .records()
                .iter()
                .filter(|rec| matches!(rec.event, tcp_trace::record::TraceEvent::Send { .. }))
                .count() as u64,
            retained.stats.packets_sent
        );
        // Streamed analysis == batch analysis of the retained trace.
        let analyzer = AnalyzerConfig {
            dupack_threshold: spec.sender_os().dupack_threshold(),
        };
        assert_eq!(retained.analysis(), &analyze(trace, analyzer));
        assert_eq!(
            retained.timing(),
            Some(&tcp_trace::karn::estimate_timing(trace))
        );
        // And retention does not perturb the simulation itself.
        let plain = run_hour_budgeted(spec, 1, DEFAULT_EVENT_BUDGET);
        assert_eq!(plain.stats, retained.stats);
        assert_eq!(plain.analysis(), retained.analysis());
    }

    #[test]
    fn calibrated_rtt_and_t0_close_to_paper() {
        let spec = table2_path("manic", "baskerville").unwrap();
        let r = run_hour_budgeted(spec, 2, DEFAULT_EVENT_BUDGET);
        let rtt = r.ground_rtt.unwrap();
        assert!(
            (rtt - spec.rtt).abs() / spec.rtt < 0.25,
            "ground RTT {rtt} vs paper {}",
            spec.rtt
        );
        let t0 = r.ground_t0.unwrap();
        assert!(
            (t0 - spec.t0).abs() / spec.t0 < 0.25,
            "ground T0 {t0} vs paper {}",
            spec.t0
        );
    }

    #[test]
    fn calibrated_loss_rate_in_range() {
        let spec = table2_path("void", "maria").unwrap();
        assert_eq!(spec.sender_os().dupack_threshold(), 2, "Linux sender");
        let r = run_hour_budgeted(spec, 3, DEFAULT_EVENT_BUDGET);
        let p = r.analysis().loss_rate();
        let target = spec.paper_loss_rate();
        assert!(
            p > target * 0.4 && p < target * 2.5,
            "analyzed p {p} vs paper {target}"
        );
    }

    #[test]
    fn serial_runs_are_independent_and_deterministic() {
        let spec = table2_path("manic", "ganef").unwrap();
        let a = run_serial_100s(spec, 3, 7);
        let b = run_serial_100s(spec, 3, 7);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stats, y.stats);
        }
        // Different connections differ.
        assert_ne!(a[0].stats.packets_sent, a[1].stats.packets_sent);
    }

    /// The pooled serial campaign returns, field for field, what running
    /// each connection in turn over the one calibrated wire returns.
    #[test]
    fn serial_pooled_campaign_matches_connections_run_in_turn() {
        let spec = fig8_paths()[1];
        let opts = ExperimentOptions {
            cc: CcAlgorithm::Cubic,
            ..ExperimentOptions::default()
        };
        let (n, base_seed) = (9, 5);
        let pooled = run_serial_100s_with(&spec, n, base_seed, &opts);
        let wire = calibrate_wire_loss(&spec, calibration_seed(base_seed));
        let json = |r: &ExperimentResult| serde_json::to_string(r).unwrap();
        assert_eq!(pooled.len(), n);
        for (i, result) in pooled.iter().enumerate() {
            let seed = base_seed.wrapping_mul(1000).wrapping_add(i as u64);
            let reference = WireRun::new(&spec, wire, 100.0, seed, u64::MAX, &opts)
                .run(None)
                .0;
            assert!(json(result) == json(&reference), "connection {i} differs");
        }
    }

    #[test]
    fn parallel_table2_matches_sequential() {
        let specs = &TABLE2_PATHS[..4];
        let report = run_table2_supervised(specs, 99, &SupervisorConfig::default());
        assert!(report.is_complete(), "campaign: {}", report.summary());
        for (i, spec) in specs.iter().enumerate() {
            let row = &report.rows[i];
            assert_eq!(row.label, spec.id());
            assert_eq!(row.outcome, crate::supervisor::Outcome::Ok);
            let seq = run_hour_budgeted(spec, 99 + i as u64, DEFAULT_EVENT_BUDGET);
            let par = row.result.as_ref().unwrap();
            assert_eq!(par.stats, seq.stats, "path {}", spec.id());
        }
    }

    #[test]
    fn event_budget_truncates_honestly() {
        let spec = table2_path("manic", "baskerville").unwrap();
        let r = run_hour_budgeted(spec, 1, 20_000);
        assert!(r.event_budget_hit, "20k events cannot cover an hour");
        assert!(
            r.duration_secs < 3600.0,
            "reported horizon must shrink on abort ({})",
            r.duration_secs
        );
        assert!(r.duration_secs > 0.0);
        // The truncated run is still analyzable and rate-consistent.
        assert!(r.send_rate() > 0.0);
        assert_eq!(r.analysis().packets_sent, r.stats.packets_sent);
        // The full hour, by contrast, finishes clean.
        let full = run_hour_budgeted(spec, 1, DEFAULT_EVENT_BUDGET);
        assert!(!full.event_budget_hit);
        assert_eq!(full.duration_secs, 3600.0);
    }

    #[test]
    fn journaled_campaign_completes_and_replays_without_rerunning() {
        let path = std::env::temp_dir().join(format!(
            "pftk-journal-exp-{}-replay.waj",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let specs = &TABLE2_PATHS[..2];
        let cfg = JournalConfig {
            horizon_secs: 120.0,
            checkpoint_sim_secs: 30.0,
            ..JournalConfig::default()
        };
        let first = run_table2_journaled(specs, 5, &path, &cfg).unwrap();
        assert!(first.is_complete(), "campaign: {}", first.summary());
        assert_eq!(first.rows[0].outcome, Outcome::Ok);
        let bytes = std::fs::read(&path).unwrap();
        assert!(!bytes.is_empty());

        // Re-invocation replays every row from the journal: no attempt is
        // re-run (the journal stays byte-identical) and the replayed rows —
        // which round-trip through the serialized result — are exactly the
        // live ones.
        let second = run_table2_journaled(specs, 5, &path, &cfg).unwrap();
        assert!(second.is_complete());
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "journal rewritten");
        for (live, replayed) in first.rows.iter().zip(&second.rows) {
            assert_eq!(live.label, replayed.label);
            assert_eq!(live.outcome, replayed.outcome);
            assert_eq!(live.result, replayed.result, "row {}", live.label);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn modem_shows_rtt_window_correlation() {
        let r = run_modem(&ModemSpec::default(), 1800.0, 5);
        let corr = r.rtt_window_corr().unwrap();
        // §IV: "we found the coefficient of correlation to be as high as
        // 0.97" on modem paths.
        assert!(
            corr > 0.6,
            "correlation {corr} too weak for the modem regime"
        );
        // And the RTT is queueing-dominated: far above the base 0.3 s.
        assert!(r.ground_rtt.unwrap() > 1.0, "RTT {:?}", r.ground_rtt);
    }

    #[test]
    fn modem_drops_come_from_the_buffer() {
        let r = run_modem(&ModemSpec::default(), 900.0, 6);
        // No random loss was configured, yet the connection must experience
        // loss indications (buffer overflow).
        assert!(r.stats.loss_indications() > 0);
    }

    /// The completion-record codec: a round trip returns every field, each
    /// `f64` compared by its bits, and damaged bytes decode to an `Err` or
    /// some result, never a panic or a hang.
    mod result_codec {
        use super::*;
        use proptest::prelude::*;
        use tcp_trace::analyzer::{IndicationKind, LossIndication};
        use tcp_trace::intervals::IntervalCategory;
        use tcp_trace::karn::TimingEstimates;
        use tcp_trace::record::{TraceEvent, TraceRecord};

        /// SplitMix64 draws.
        struct Draws(u64);

        impl Draws {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = self.0;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            }

            /// Mostly the awkward floats: NaN with a payload, both
            /// infinities, both zeros, a subnormal, raw bits.
            fn float(&mut self) -> f64 {
                match self.next() % 8 {
                    0 => f64::from_bits(0x7FF8_0000_0000_0000 | (self.next() >> 13)),
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => -0.0,
                    4 => 0.0,
                    5 => f64::from_bits(1),
                    6 => f64::from_bits(self.next()),
                    _ => (self.next() % 1_000_000) as f64 / 1e3,
                }
            }

            fn opt_float(&mut self) -> Option<f64> {
                (!self.next().is_multiple_of(4)).then(|| self.float())
            }
        }

        /// A result with every field drawn from `seed`: `indications`
        /// loss indications, an optional retained trace, and the flags.
        fn result(seed: u64, indications: usize, with_trace: bool) -> ExperimentResult {
            let mut d = Draws(seed);
            let indications = (0..indications)
                .map(|i| LossIndication {
                    time_ns: i as u64 * 1000 + d.next() % 1000,
                    kind: match d.next() % 3 {
                        0 => IndicationKind::TripleDuplicate,
                        _ => IndicationKind::Timeout {
                            sequence_len: (d.next() % 9) as u32,
                        },
                    },
                })
                .collect();
            let intervals = (!d.next().is_multiple_of(3)).then(|| {
                (0..d.next() % 40)
                    .map(|index| tcp_trace::intervals::IntervalStats {
                        index: index as usize,
                        packets_sent: d.next(),
                        loss_indications: d.next() % 100,
                        loss_rate: d.float(),
                        category: match d.next() % 3 {
                            0 => IntervalCategory::NoLoss,
                            1 => IntervalCategory::TdOnly,
                            _ => IntervalCategory::Timeout(d.next() as u8),
                        },
                    })
                    .collect()
            });
            let trace = with_trace.then(|| {
                let mut trace = Trace::new();
                let mut t = 0;
                for _ in 0..d.next() % 200 {
                    t += d.next() % 5_000_000;
                    let event = match d.next() % 3 {
                        0 => TraceEvent::AckIn { ack: d.next() },
                        n => TraceEvent::Send {
                            seq: d.next(),
                            retx: n == 2,
                        },
                    };
                    trace.push(TraceRecord { time_ns: t, event });
                }
                trace
            });
            ExperimentResult {
                stream: StreamAnalysis {
                    analysis: Analysis {
                        indications,
                        packets_sent: d.next(),
                        retransmissions: d.next(),
                        acks_seen: d.next(),
                    },
                    timing: (!d.next().is_multiple_of(3)).then(|| TimingEstimates {
                        mean_rtt: d.opt_float(),
                        rtt_samples: d.next(),
                        mean_t0: d.opt_float(),
                        t0_samples: d.next(),
                    }),
                    intervals,
                    rtt_window_corr: d.opt_float(),
                    interval_secs: d.opt_float(),
                    events: d.next(),
                    peak_state_bytes: d.next(),
                },
                trace,
                stats: ConnStats {
                    packets_sent: d.next(),
                    to_sequences: [d.next(), 0, 1, 2, d.next(), u64::MAX],
                    rto_firings: d.next(),
                    ..ConnStats::default()
                },
                ground_rtt: d.opt_float(),
                ground_t0: d.opt_float(),
                duration_secs: d.float(),
                event_budget_hit: d.next().is_multiple_of(2),
            }
        }

        /// The bits of every `f64` in `r`, in field order.
        fn float_bits(r: &ExperimentResult) -> Vec<Option<u64>> {
            let bits = |v: Option<f64>| v.map(f64::to_bits);
            let mut out = vec![
                bits(r.stream.rtt_window_corr),
                bits(r.stream.interval_secs),
                bits(r.ground_rtt),
                bits(r.ground_t0),
                Some(r.duration_secs.to_bits()),
            ];
            if let Some(t) = &r.stream.timing {
                out.extend([bits(t.mean_rtt), bits(t.mean_t0)]);
            }
            for row in r.stream.intervals.iter().flatten() {
                out.push(Some(row.loss_rate.to_bits()));
            }
            out
        }

        /// `r` with every `f64` zeroed, so `PartialEq` compares the rest.
        fn without_floats(mut r: ExperimentResult) -> ExperimentResult {
            let zero = |v: &mut Option<f64>| *v = v.map(|_| 0.0);
            zero(&mut r.stream.rtt_window_corr);
            zero(&mut r.stream.interval_secs);
            zero(&mut r.ground_rtt);
            zero(&mut r.ground_t0);
            r.duration_secs = 0.0;
            if let Some(t) = &mut r.stream.timing {
                zero(&mut t.mean_rtt);
                zero(&mut t.mean_t0);
            }
            for row in r.stream.intervals.iter_mut().flatten() {
                row.loss_rate = 0.0;
            }
            r
        }

        fn indication_count(shape: u8, n: u64) -> usize {
            match shape {
                0 => 0,
                1 => (n % 8) as usize,
                _ => 1000 + (n % 3000) as usize,
            }
        }

        #[test]
        fn a_real_run_round_trips_and_is_smaller_than_its_json() {
            let r = run_hour_budgeted(&TABLE2_PATHS[0], 9, 4_000_000);
            let bytes = r.encode();
            assert_eq!(ExperimentResult::decode(&bytes), Ok(r.clone()));
            let json = serde_json::to_string(&r).unwrap();
            assert!(
                bytes.len() * 3 < json.len(),
                "{} vs {}",
                bytes.len(),
                json.len()
            );
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn results_round_trip_bit_for_bit(
                seed in 0u64..=u64::MAX,
                shape in 0u8..3,
                n in 0u64..=u64::MAX,
                with_trace in 0u8..2,
            ) {
                let r = result(seed, indication_count(shape, n), with_trace == 1);
                let bytes = r.encode();
                let back = ExperimentResult::decode(&bytes)
                    .map_err(|e| TestCaseError::Fail(format!("decode: {e}")))?;
                prop_assert_eq!(float_bits(&back), float_bits(&r));
                prop_assert_eq!(without_floats(back.clone()), without_floats(r));
                prop_assert_eq!(back.encode(), bytes);
            }

            #[test]
            fn truncated_results_are_rejected(seed in 0u64..=u64::MAX, cut in 0u64..=u64::MAX) {
                let bytes = result(seed, (seed % 50) as usize, seed.is_multiple_of(2)).encode();
                let cut = (cut % bytes.len() as u64) as usize;
                prop_assert!(ExperimentResult::decode(&bytes[..cut]).is_err(), "cut at {}", cut);
            }

            #[test]
            fn bit_flipped_results_never_panic(
                seed in 0u64..=u64::MAX,
                pos in 0u64..=u64::MAX,
                bit in 0u8..8,
            ) {
                let mut bytes = result(seed, (seed % 50) as usize, seed.is_multiple_of(2)).encode();
                let pos = (pos % bytes.len() as u64) as usize;
                bytes[pos] ^= 1 << bit;
                let _ = ExperimentResult::decode(&bytes);
            }

            #[test]
            fn garbage_results_never_panic(
                seed in 0u64..=u64::MAX,
                keep in 0u64..=u64::MAX,
                garbage in proptest::collection::vec(0u8..=255, 0..64),
            ) {
                let _ = ExperimentResult::decode(&garbage);
                let bytes = result(seed, (seed % 50) as usize, seed.is_multiple_of(2)).encode();
                let keep = (keep % bytes.len() as u64) as usize;
                let mut spliced = bytes[..keep].to_vec();
                spliced.extend_from_slice(&garbage);
                let _ = ExperimentResult::decode(&spliced);
            }
        }
    }
}
