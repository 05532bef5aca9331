//! Streaming trace analysis: analyze while simulating instead of
//! materializing every wire event first.
//!
//! The paper reduces 1-hour `tcpdump` traces to a handful of statistics —
//! loss-indication counts, an RTT median, T0 means, 100-second interval
//! rows. None of those need the trace afterwards, yet the batch pipeline
//! holds O(duration) memory (every wire event as a [`TraceRecord`]) to
//! produce O(1) output. This module inverts that: [`StreamAnalyzer`]
//! consumes wire events one at a time and keeps only the incremental cores
//! the batch functions are themselves folds of —
//!
//! * [`Classifier`] — TD/TO classification
//!   (O(1) automaton state + the emitted indications),
//! * [`KarnCore`] — Karn RTT / T0 estimation
//!   (O(window) in-flight deque + one sample per forward ACK),
//! * [`CorrCore`] — RTT-vs-flight correlation,
//! * [`IntervalCore`] — per-interval send
//!   counts (one `u64` per elapsed interval).
//!
//! Because `analyze`, `estimate_timing`, `rtt_window_correlation`, and
//! `split_intervals_bounded` are *thin folds over these same cores*, a
//! [`StreamAnalyzer`] fed record by record produces **bit-identical**
//! results to the batch pipeline run over the materialized trace — not
//! approximately equal: the same float operations execute in the same
//! order. The workspace equivalence harness pins this with
//! `f64::to_bits` comparisons.
//!
//! The [`TraceSink`] trait is the seam: the testbed's per-event observer
//! writes into *some* sink, and the caller picks retain
//! ([`TraceLog`] — keep every event) or reduce ([`StreamAnalyzer`] —
//! O(window) state) or both ([`TeeSink`]).

use crate::analyzer::{Analysis, AnalyzerConfig, Classifier, LossIndication};
use crate::intervals::{IntervalCore, IntervalStats};
use crate::karn::{CorrCore, KarnCore, TimingEstimates};
use crate::log::TraceLog;
use crate::record::{Trace, TraceEvent, TraceRecord};
use pftk_snap::{frame_with, unframe, SnapError, SnapReader, SnapResult, SnapWriter};
use serde::{Deserialize, Serialize};

/// Frame kind identifying a streaming-analyzer snapshot (DESIGN.md §13).
pub const STREAM_SNAPSHOT_KIND: u32 = 2;
/// Frame kind identifying an analyzer delta
/// ([`StreamAnalyzer::snapshot_since`]).
pub const STREAM_DELTA_KIND: u32 = 3;
/// Analyzer-snapshot format version this build writes (for both kinds).
/// Version 2 writes the RTT and correlation sample logs as varints of
/// their exact integers (nanoseconds, packets); version 1 wrote each
/// value as a raw 8-byte word. [`StreamAnalyzer::restore`] reads both.
pub const STREAM_SNAPSHOT_VERSION: u32 = 2;

/// Lengths of the analyzer's append-only logs — the classifier's
/// indications, Karn's RTT samples and the correlation series — at one
/// point of the stream. A delta written since a mark carries only the log
/// entries appended after it ([`StreamAnalyzer::snapshot_since`]); the
/// default (all-zero) mark makes the delta a full state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogMark {
    indications: usize,
    rtt_samples: usize,
    corr_samples: usize,
}

/// A consumer of sender-side wire events, fed in nondecreasing time order.
///
/// Implemented by the retaining stores ([`TraceLog`], [`Trace`]) and the
/// reducing analyzer ([`StreamAnalyzer`]); the testbed's observer writes
/// through this trait so retention is a configuration choice, not a code
/// path.
pub trait TraceSink {
    /// Consumes a data-segment departure.
    fn on_send(&mut self, time_ns: u64, seq: u64, retx: bool);
    /// Consumes an ACK arrival.
    fn on_ack_in(&mut self, time_ns: u64, ack: u64);
    /// Consumes a row-oriented record (dispatches to the event methods).
    fn on_record(&mut self, rec: &TraceRecord) {
        match rec.event {
            TraceEvent::Send { seq, retx } => self.on_send(rec.time_ns, seq, retx),
            TraceEvent::AckIn { ack } => self.on_ack_in(rec.time_ns, ack),
        }
    }
}

impl TraceSink for TraceLog {
    fn on_send(&mut self, time_ns: u64, seq: u64, retx: bool) {
        self.push_send(time_ns, seq, retx);
    }
    fn on_ack_in(&mut self, time_ns: u64, ack: u64) {
        self.push_ack_in(time_ns, ack);
    }
}

impl TraceSink for Trace {
    fn on_send(&mut self, time_ns: u64, seq: u64, retx: bool) {
        self.push(TraceRecord {
            time_ns,
            event: TraceEvent::Send { seq, retx },
        });
    }
    fn on_ack_in(&mut self, time_ns: u64, ack: u64) {
        self.push(TraceRecord {
            time_ns,
            event: TraceEvent::AckIn { ack },
        });
    }
}

/// Streaming-analysis configuration: which reductions to run.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// TD/TO classifier configuration (dupack threshold).
    pub analyzer: AnalyzerConfig,
    /// Interval segmentation length in seconds (`Some(100.0)` = the
    /// paper's Fig. 7–10 intervals); `None` disables segmentation.
    pub interval_secs: Option<f64>,
    /// Run Karn RTT / T0 estimation.
    pub timing: bool,
    /// Run the RTT-vs-flight correlation diagnostic (§IV / Fig. 11).
    pub correlation: bool,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            analyzer: AnalyzerConfig::default(),
            interval_secs: Some(100.0),
            timing: true,
            correlation: true,
        }
    }
}

impl StreamConfig {
    /// The default reductions with the given classifier configuration.
    pub fn with_analyzer(analyzer: AnalyzerConfig) -> Self {
        StreamConfig {
            analyzer,
            ..StreamConfig::default()
        }
    }
}

/// The finished product of a streamed connection: everything the batch
/// pipeline used to recompute from a retained trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamAnalysis {
    /// Loss-indication analysis (the batch [`crate::analyze`] output).
    pub analysis: Analysis,
    /// Karn RTT / T0 estimates, when timing was enabled.
    pub timing: Option<TimingEstimates>,
    /// Per-interval statistics, when segmentation was enabled.
    pub intervals: Option<Vec<IntervalStats>>,
    /// RTT-vs-flight Pearson correlation, when enabled (and defined).
    pub rtt_window_corr: Option<f64>,
    /// Interval length used for `intervals`, seconds.
    pub interval_secs: Option<f64>,
    /// Wire events consumed.
    pub events: u64,
    /// High-water mark of the analyzer's retained state, bytes
    /// (see [`StreamAnalyzer::state_bytes`]).
    pub peak_state_bytes: u64,
}

impl StreamAnalysis {
    /// Streams a materialized trace through a fresh [`StreamAnalyzer`] —
    /// the batch-compatibility path for imported/salvaged traces and
    /// tests. `total_secs` bounds the interval segmentation; `None` infers
    /// the horizon from the last record like
    /// [`crate::split_intervals`].
    pub fn from_trace(trace: &Trace, config: StreamConfig, total_secs: Option<f64>) -> Self {
        let mut s = StreamAnalyzer::new(config);
        for rec in trace.records() {
            s.on_record(rec);
        }
        s.finish(total_secs)
    }

    /// Writes the analysis with the `pftk-snap` codec — the form a
    /// campaign journal stores completed attempts in. Every `f64` travels
    /// as its bits, so NaN, the infinities and −0.0 come back exactly.
    pub fn encode_into(&self, w: &mut SnapWriter) {
        self.analysis.encode_into(w);
        match &self.timing {
            Some(timing) => {
                w.put_bool(true);
                timing.encode_into(w);
            }
            None => w.put_bool(false),
        }
        match &self.intervals {
            Some(rows) => {
                w.put_bool(true);
                w.put_usize(rows.len());
                for row in rows {
                    row.encode_into(w);
                }
            }
            None => w.put_bool(false),
        }
        w.put_opt_f64(self.rtt_window_corr);
        w.put_opt_f64(self.interval_secs);
        w.put_u64(self.events);
        w.put_u64(self.peak_state_bytes);
    }

    /// Reads an analysis written by [`StreamAnalysis::encode_into`];
    /// malformed input is an `Err`, never a panic.
    pub fn decode_from(r: &mut SnapReader<'_>) -> SnapResult<StreamAnalysis> {
        let analysis = Analysis::decode_from(r)?;
        let timing = if r.get_bool()? {
            Some(TimingEstimates::decode_from(r)?)
        } else {
            None
        };
        let intervals = if r.get_bool()? {
            let n = r.get_usize()?;
            // A row takes at least 33 bytes.
            let mut rows = Vec::with_capacity(n.min(r.remaining() / 33));
            for _ in 0..n {
                rows.push(IntervalStats::decode_from(r)?);
            }
            Some(rows)
        } else {
            None
        };
        Ok(StreamAnalysis {
            analysis,
            timing,
            intervals,
            rtt_window_corr: r.get_opt_f64()?,
            interval_secs: r.get_opt_f64()?,
            events: r.get_u64()?,
            peak_state_bytes: r.get_u64()?,
        })
    }
}

/// The reducing [`TraceSink`]: incremental trace analysis with O(window)
/// state.
///
/// Feed wire events through the [`TraceSink`] methods (or
/// [`TraceSink::on_record`]) and call [`StreamAnalyzer::finish`] at end of
/// connection. Between events the retained state is the classifier
/// automaton plus the enabled cores — bounded by the congestion window and
/// the number of *reduced* outputs (indications, RTT samples, interval
/// counters), never by the number of wire events. An hour-long modem-path
/// connection analyzes in a few hundred kilobytes where the materialized
/// trace takes tens of megabytes.
///
/// Equivalence contract: every enabled reduction executes the exact
/// per-event code of its batch counterpart (which is a fold of the same
/// core), so streamed and batch results match bit for bit.
//= pftk#stream-batch-equivalence
#[derive(Debug, Clone)]
pub struct StreamAnalyzer {
    config: StreamConfig,
    classifier: Classifier,
    karn: Option<KarnCore>,
    corr: Option<CorrCore>,
    intervals: Option<IntervalCore>,
    interval_secs: Option<f64>,
    events: u64,
    last_time_ns: u64,
    peak_state_bytes: usize,
}

impl StreamAnalyzer {
    /// A fresh analyzer running the reductions named by `config`.
    pub fn new(config: StreamConfig) -> Self {
        StreamAnalyzer {
            config,
            classifier: Classifier::new(config.analyzer),
            karn: config.timing.then(KarnCore::new),
            corr: config.correlation.then(CorrCore::new),
            intervals: config.interval_secs.map(IntervalCore::new),
            interval_secs: config.interval_secs,
            events: 0,
            last_time_ns: 0,
            peak_state_bytes: 0,
        }
    }

    /// The configuration this analyzer was built with.
    pub fn config(&self) -> StreamConfig {
        self.config
    }

    /// Wire events consumed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Loss indications emitted so far (an open timeout sequence is
    /// flushed only at [`StreamAnalyzer::finish`]).
    pub fn indications(&self) -> &[LossIndication] {
        self.classifier.indications()
    }

    /// Estimated bytes of retained analysis state right now: per-entry
    /// payload sizes of the in-flight state, sample vectors, emitted
    /// indications, and interval counters (container overhead excluded —
    /// this is the scaling term, and the asserted memory ceilings leave
    /// headroom for the constant factors).
    ///
    /// The fixed term is `size_of::<StreamAnalyzer>()`, and snapshots carry
    /// the high-water mark, so resizing this struct or its cores changes
    /// the snapshot bytes (`tests/analyzer_snapshot_compat.rs` pins them).
    pub fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = size_of::<Self>();
        bytes += std::mem::size_of_val(self.classifier.indications());
        if let Some(karn) = &self.karn {
            let (pending, last_send, samples) = karn.state_len();
            bytes += (pending + last_send) * size_of::<(u64, u64)>();
            bytes += samples * size_of::<(f64, usize)>();
        }
        if let Some(corr) = &self.corr {
            let (pending, samples) = corr.state_len();
            bytes += pending * size_of::<(u64, (u64, u64))>();
            bytes += samples * 2 * size_of::<f64>();
        }
        if let Some(iv) = &self.intervals {
            bytes += iv.state_len() * size_of::<u64>();
        }
        bytes
    }

    /// High-water mark of [`StreamAnalyzer::state_bytes`] over the
    /// connection so far.
    pub fn peak_state_bytes(&self) -> usize {
        self.peak_state_bytes
    }

    fn note_event(&mut self, time_ns: u64) {
        self.events += 1;
        self.last_time_ns = time_ns;
        let now = self.state_bytes();
        if now > self.peak_state_bytes {
            self.peak_state_bytes = now;
        }
    }

    /// Encodes the analyzer's full mid-stream state — the classifier
    /// automaton and every enabled core — as a framed, checksummed
    /// snapshot ([`STREAM_SNAPSHOT_KIND`]). An analyzer restored from this
    /// snapshot into an identically-configured [`StreamAnalyzer::new`] and
    /// fed the remaining events produces a [`StreamAnalysis`] bit-identical
    /// to the uninterrupted one.
    ///
    /// The snapshot is O(duration): it carries every RTT sample and
    /// correlation point so far. Checkpoint chains use
    /// [`StreamAnalyzer::snapshot_since`] instead.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        self.encode(STREAM_SNAPSHOT_KIND, LogMark::default())
    }

    /// The current lengths of the analyzer's append-only logs: the mark a
    /// later [`StreamAnalyzer::snapshot_since`] writes its delta from.
    pub fn log_mark(&self) -> LogMark {
        LogMark {
            indications: self.classifier.indications().len(),
            rtt_samples: self.karn.as_ref().map_or(0, |k| k.state_len().2),
            corr_samples: self.corr.as_ref().map_or(0, |c| c.state_len().1),
        }
    }

    /// Encodes a delta ([`STREAM_DELTA_KIND`]): the O(window) head state
    /// in full plus only the log entries appended since `mark`. Restored
    /// in order after the state `mark` was taken at, a chain of deltas
    /// rebuilds the analyzer exactly; each delta is O(what the stream
    /// appended since its mark), not O(duration). At the default mark
    /// the delta is a full state.
    #[must_use]
    pub fn snapshot_since(&self, mark: LogMark) -> Vec<u8> {
        self.encode(STREAM_DELTA_KIND, mark)
    }

    /// Frames the state as `kind`, writing each log from `mark` on. A
    /// delta leads with its mark; after that both kinds share one body,
    /// which at the default mark is exactly a full snapshot's.
    fn encode(&self, kind: u32, mark: LogMark) -> Vec<u8> {
        use std::mem::size_of;
        // Size hint: the retained-state estimate bounds the encoded size
        // (both are dominated by the same sample vectors, which encode in
        // fewer bytes than they occupy), so the buffer almost never
        // reallocates mid-encode.
        let skipped = mark.indications * size_of::<LossIndication>()
            + mark.rtt_samples * size_of::<(f64, usize)>()
            + mark.corr_samples * 2 * size_of::<f64>();
        let hint = self.state_bytes().saturating_sub(skipped) + 1024;
        frame_with(kind, STREAM_SNAPSHOT_VERSION, hint, |w| {
            if kind == STREAM_DELTA_KIND {
                w.put_usize(mark.indications);
                w.put_usize(mark.rtt_samples);
                w.put_usize(mark.corr_samples);
            }
            self.classifier.snapshot_into(w, mark.indications);
            match &self.karn {
                Some(core) => {
                    w.put_bool(true);
                    core.snapshot_into(w, mark.rtt_samples);
                }
                None => w.put_bool(false),
            }
            match &self.corr {
                Some(core) => {
                    w.put_bool(true);
                    core.snapshot_into(w, mark.corr_samples);
                }
                None => w.put_bool(false),
            }
            match &self.intervals {
                Some(core) => {
                    w.put_bool(true);
                    core.snapshot_into(w);
                }
                None => w.put_bool(false),
            }
            w.put_u64(self.events);
            w.put_u64(self.last_time_ns);
            w.put_usize(self.peak_state_bytes);
        })
    }

    /// Applies a snapshot ([`StreamAnalyzer::snapshot`]) or a delta
    /// ([`StreamAnalyzer::snapshot_since`]) into this analyzer, which must
    /// have been built with the same [`StreamConfig`] (mismatches are
    /// [`SnapError::TagMismatch`]; corrupt or truncated bytes error, never
    /// panic). A delta applies only where its mark equals this analyzer's
    /// [`StreamAnalyzer::log_mark`] — that is, in chain order — unless the
    /// mark is all-zero, which makes it a full restore. On error the
    /// analyzer is left in an unspecified partially-restored state:
    /// rebuild it before further use.
    pub fn restore(&mut self, bytes: &[u8]) -> SnapResult<()> {
        let framed = unframe(bytes, STREAM_SNAPSHOT_VERSION)?;
        let compact = match framed.version {
            1 => false,
            2 => true,
            _ => return Err(SnapError::Invalid("analyzer snapshot version")),
        };
        let mut r = SnapReader::new(framed.payload);
        let mark = match framed.kind {
            STREAM_SNAPSHOT_KIND => LogMark::default(),
            STREAM_DELTA_KIND => {
                let mark = LogMark {
                    indications: r.get_usize()?,
                    rtt_samples: r.get_usize()?,
                    corr_samples: r.get_usize()?,
                };
                if mark != LogMark::default() && mark != self.log_mark() {
                    return Err(SnapError::Invalid(
                        "analyzer delta does not continue this state",
                    ));
                }
                mark
            }
            _ => return Err(SnapError::Invalid("not an analyzer snapshot")),
        };
        self.classifier.restore_from(&mut r, mark.indications)?;
        let karn_present = r.get_bool()?;
        match (&mut self.karn, karn_present) {
            (Some(core), true) => core.restore_from(&mut r, mark.rtt_samples, compact)?,
            (None, false) => {}
            (target, found) => {
                return Err(SnapError::TagMismatch {
                    context: "karn-presence",
                    expected: u64::from(target.is_some()),
                    found: u64::from(found),
                });
            }
        }
        let corr_present = r.get_bool()?;
        match (&mut self.corr, corr_present) {
            (Some(core), true) => core.restore_from(&mut r, mark.corr_samples, compact)?,
            (None, false) => {}
            (target, found) => {
                return Err(SnapError::TagMismatch {
                    context: "corr-presence",
                    expected: u64::from(target.is_some()),
                    found: u64::from(found),
                });
            }
        }
        let intervals_present = r.get_bool()?;
        match (&mut self.intervals, intervals_present) {
            (Some(core), true) => core.restore_from(&mut r)?,
            (None, false) => {}
            (target, found) => {
                return Err(SnapError::TagMismatch {
                    context: "intervals-presence",
                    expected: u64::from(target.is_some()),
                    found: u64::from(found),
                });
            }
        }
        self.events = r.get_u64()?;
        self.last_time_ns = r.get_u64()?;
        self.peak_state_bytes = r.get_usize()?;
        r.finish()
    }

    /// Like [`StreamAnalyzer::finish`], but leaves `self` fresh (as if
    /// just built with the same [`StreamConfig`]) instead of consuming
    /// it — the recycling primitive behind [`AnalyzerPool`].
    pub fn finish_and_reset(&mut self, total_secs: Option<f64>) -> StreamAnalysis {
        let fresh = StreamAnalyzer::new(self.config);
        std::mem::replace(self, fresh).finish(total_secs)
    }

    /// Closes the analyzer and assembles the [`StreamAnalysis`].
    ///
    /// `total_secs` is the true experiment duration for interval
    /// segmentation (an hour-long run's last packet rarely lands exactly
    /// on the hour); `None` infers the horizon from the last event, like
    /// [`crate::split_intervals`].
    pub fn finish(self, total_secs: Option<f64>) -> StreamAnalysis {
        let events = self.events;
        let peak_state_bytes = self.peak_state_bytes as u64;
        let horizon = total_secs.unwrap_or(self.last_time_ns as f64 / 1e9);
        let analysis = self.classifier.finish();
        let intervals = self
            .intervals
            .map(|core| core.finish(&analysis.indications, horizon));
        StreamAnalysis {
            timing: self.karn.map(KarnCore::finish),
            rtt_window_corr: self.corr.and_then(CorrCore::finish),
            intervals,
            interval_secs: self.interval_secs,
            analysis,
            events,
            peak_state_bytes,
        }
    }
}

impl TraceSink for StreamAnalyzer {
    fn on_send(&mut self, time_ns: u64, seq: u64, _retx: bool) {
        // The retx flag is ground truth the analyzer deliberately ignores:
        // like the batch classifier, it re-infers retransmissions from
        // sequence repetition, as a real trace analyzer must.
        self.classifier.on_send(time_ns, seq);
        if let Some(karn) = &mut self.karn {
            karn.on_send(time_ns, seq);
        }
        if let Some(corr) = &mut self.corr {
            corr.on_send(time_ns, seq);
        }
        if let Some(iv) = &mut self.intervals {
            iv.on_send(time_ns);
        }
        self.note_event(time_ns);
    }

    fn on_ack_in(&mut self, time_ns: u64, ack: u64) {
        self.classifier.on_ack(time_ns, ack);
        if let Some(karn) = &mut self.karn {
            karn.on_ack(time_ns, ack);
        }
        if let Some(corr) = &mut self.corr {
            corr.on_ack(time_ns, ack);
        }
        self.note_event(time_ns);
    }
}

/// A sink that feeds every event to both of its children — retain *and*
/// reduce in one pass (e.g. keep the trace for export while streaming the
/// analysis).
#[derive(Debug)]
pub struct TeeSink<A, B> {
    /// First child.
    pub a: A,
    /// Second child.
    pub b: B,
}

impl<A: TraceSink, B: TraceSink> TeeSink<A, B> {
    /// Tees events into `a` and `b`.
    pub fn new(a: A, b: B) -> Self {
        TeeSink { a, b }
    }

    /// Dissolves the tee back into its children.
    pub fn into_parts(self) -> (A, B) {
        (self.a, self.b)
    }
}

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    fn on_send(&mut self, time_ns: u64, seq: u64, retx: bool) {
        self.a.on_send(time_ns, seq, retx);
        self.b.on_send(time_ns, seq, retx);
    }
    fn on_ack_in(&mut self, time_ns: u64, ack: u64) {
        self.a.on_ack_in(time_ns, ack);
        self.b.on_ack_in(time_ns, ack);
    }
}

/// A recycling pool of [`StreamAnalyzer`]s for campaigns that analyze
/// *many* flows — the fleet driver's per-cohort packet-level audit flows,
/// or any serial sweep of short connections.
///
/// At fleet scale the memory question flips: a single streaming analyzer
/// is O(window), but 10^5 of them are not. The pool keeps the number of
/// **live** analyzers equal to the number of flows mid-analysis (for the
/// fleet: a handful of audit flows, not the population), recycles shells
/// through [`StreamAnalyzer::finish_and_reset`], and accounts the
/// high-water analyzer memory across everything it processed, so a
/// campaign can report its true analysis footprint.
#[derive(Debug)]
pub struct AnalyzerPool {
    config: StreamConfig,
    free: Vec<StreamAnalyzer>,
    leased: usize,
    peak_leased: usize,
    flows_finished: u64,
    peak_state_bytes: u64,
}

impl AnalyzerPool {
    /// An empty pool handing out analyzers configured with `config`.
    pub fn new(config: StreamConfig) -> Self {
        AnalyzerPool {
            config,
            free: Vec::new(),
            leased: 0,
            peak_leased: 0,
            flows_finished: 0,
            peak_state_bytes: 0,
        }
    }

    /// Leases an analyzer (recycled if one is free, fresh otherwise).
    pub fn acquire(&mut self) -> StreamAnalyzer {
        self.leased += 1;
        if self.leased > self.peak_leased {
            self.peak_leased = self.leased;
        }
        self.free
            .pop()
            .unwrap_or_else(|| StreamAnalyzer::new(self.config))
    }

    /// Finishes a leased analyzer's flow, returns its analysis, and takes
    /// the shell back for reuse. `total_secs` as in
    /// [`StreamAnalyzer::finish`].
    pub fn finish(
        &mut self,
        mut analyzer: StreamAnalyzer,
        total_secs: Option<f64>,
    ) -> StreamAnalysis {
        self.leased = self.leased.saturating_sub(1);
        self.flows_finished += 1;
        let peak = analyzer.peak_state_bytes() as u64;
        if peak > self.peak_state_bytes {
            self.peak_state_bytes = peak;
        }
        let analysis = analyzer.finish_and_reset(total_secs);
        self.free.push(analyzer);
        analysis
    }

    /// Analyzers currently leased out.
    pub fn leased(&self) -> usize {
        self.leased
    }

    /// High-water mark of simultaneously leased analyzers.
    pub fn peak_leased(&self) -> usize {
        self.peak_leased
    }

    /// Flows finished through this pool.
    pub fn flows_finished(&self) -> u64 {
        self.flows_finished
    }

    /// Largest per-flow [`StreamAnalyzer::peak_state_bytes`] seen.
    pub fn peak_state_bytes(&self) -> u64 {
        self.peak_state_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze;
    use crate::intervals::split_intervals_bounded;
    use crate::karn::{estimate_timing, rtt_window_correlation};

    const S: u64 = 1_000_000_000;
    const MS: u64 = 1_000_000;

    /// A 250-second connection with a clean interval, a timeout, a
    /// backoff chain, and a fast retransmit — every classifier path.
    fn eventful_trace() -> Trace {
        let mut t = Trace::new();
        let mut push = |time_ns: u64, event: TraceEvent| {
            t.push(TraceRecord { time_ns, event });
        };
        let send = |seq| TraceEvent::Send { seq, retx: false };
        let ack = |a| TraceEvent::AckIn { ack: a };
        // Interval 0: clean window growth.
        for i in 0..10u64 {
            push(i * S, send(i));
            push(i * S + 80 * MS, ack(i + 1));
        }
        // Interval 1: fast retransmit (packet 10 lost, dupacks from 11–14).
        for i in 10..15u64 {
            push(110 * S + i, send(i));
        }
        for _ in 0..4 {
            push(111 * S, ack(10));
        }
        push(112 * S, send(10)); // TD
        push(113 * S, ack(15));
        // Interval 2: a double-timeout backoff chain.
        push(210 * S, send(15));
        push(213 * S, send(15));
        push(219 * S, send(15));
        push(220 * S, ack(16));
        push(230 * S, send(16));
        t
    }

    fn stream(trace: &Trace, config: StreamConfig, total: Option<f64>) -> StreamAnalysis {
        StreamAnalysis::from_trace(trace, config, total)
    }

    //= pftk#stream-batch-equivalence type=test
    #[test]
    fn streamed_equals_batch_on_eventful_trace() {
        let t = eventful_trace();
        let cfg = StreamConfig::default();
        let got = stream(&t, cfg, Some(250.0));

        let analysis = analyze(&t, cfg.analyzer);
        assert_eq!(got.analysis, analysis);
        assert_eq!(got.timing.as_ref(), Some(&estimate_timing(&t)));
        assert_eq!(
            got.rtt_window_corr.map(f64::to_bits),
            rtt_window_correlation(&t).map(f64::to_bits)
        );
        assert_eq!(
            got.intervals.as_deref(),
            Some(&split_intervals_bounded(&t, &analysis, 100.0, 250.0)[..])
        );
        assert_eq!(got.events, t.len() as u64);
    }

    #[test]
    fn disabled_reductions_stay_none() {
        let t = eventful_trace();
        let cfg = StreamConfig {
            analyzer: AnalyzerConfig::default(),
            interval_secs: None,
            timing: false,
            correlation: false,
        };
        let got = stream(&t, cfg, None);
        assert!(got.timing.is_none());
        assert!(got.intervals.is_none());
        assert!(got.rtt_window_corr.is_none());
        assert_eq!(got.analysis, analyze(&t, cfg.analyzer));
    }

    #[test]
    fn unbounded_horizon_matches_last_event() {
        let t = eventful_trace();
        let cfg = StreamConfig::default();
        let got = stream(&t, cfg, None);
        // Last event at 230 s → two full 100 s intervals.
        assert_eq!(got.intervals.as_ref().map(Vec::len), Some(2));
        let analysis = analyze(&t, cfg.analyzer);
        assert_eq!(
            got.intervals.as_deref(),
            Some(&split_intervals_bounded(&t, &analysis, 100.0, 230.0)[..])
        );
    }

    /// A pooled (recycled) analyzer must be indistinguishable from a
    /// fresh one: same flow, same events ⇒ bit-identical analysis.
    #[test]
    fn pooled_analyzer_matches_fresh() {
        let t = eventful_trace();
        let cfg = StreamConfig::default();
        let fresh = stream(&t, cfg, Some(250.0));

        let mut pool = AnalyzerPool::new(cfg);
        for round in 0..3 {
            let mut a = pool.acquire();
            for rec in t.records() {
                a.on_record(rec);
            }
            let got = pool.finish(a, Some(250.0));
            assert_eq!(got, fresh, "recycled analyzer diverged on round {round}");
        }
        assert_eq!(pool.flows_finished(), 3);
        assert_eq!(pool.leased(), 0);
        assert_eq!(pool.peak_leased(), 1);
        assert!(pool.peak_state_bytes() > 0);
    }

    #[test]
    fn pool_recycles_shells_and_tracks_concurrency() {
        let mut pool = AnalyzerPool::new(StreamConfig::default());
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(pool.leased(), 2);
        assert_eq!(pool.peak_leased(), 2);
        let _ = pool.finish(a, None);
        let _ = pool.finish(b, None);
        // Both shells are back: two more leases reuse them without
        // raising the peak.
        let c = pool.acquire();
        let d = pool.acquire();
        assert_eq!(pool.peak_leased(), 2);
        let _ = pool.finish(c, None);
        let _ = pool.finish(d, None);
        assert_eq!(pool.flows_finished(), 4);
    }

    #[test]
    fn finish_and_reset_leaves_analyzer_fresh() {
        let t = eventful_trace();
        let cfg = StreamConfig::default();
        let mut a = StreamAnalyzer::new(cfg);
        for rec in t.records() {
            a.on_record(rec);
        }
        let first = a.finish_and_reset(Some(250.0));
        assert_eq!(a.events(), 0);
        assert!(a.indications().is_empty());
        for rec in t.records() {
            a.on_record(rec);
        }
        let second = a.finish_and_reset(Some(250.0));
        assert_eq!(first, second);
    }

    #[test]
    fn tee_sink_retains_and_reduces_in_one_pass() {
        let t = eventful_trace();
        let mut tee = TeeSink::new(
            TraceLog::new(),
            StreamAnalyzer::new(StreamConfig::default()),
        );
        for rec in t.records() {
            tee.on_record(rec);
        }
        let (log, analyzer) = tee.into_parts();
        assert_eq!(log.into_trace(), t);
        let got = analyzer.finish(Some(250.0));
        assert_eq!(got.analysis, analyze(&t, AnalyzerConfig::default()));
    }

    #[test]
    fn trace_itself_is_a_sink() {
        let t = eventful_trace();
        let mut copy = Trace::new();
        for rec in t.records() {
            copy.on_record(rec);
        }
        assert_eq!(copy, t);
    }

    #[test]
    fn state_is_window_bounded_not_duration_bounded() {
        // Two connections, one 20× longer, same window/loss behavior: the
        // peak state may grow only by the per-reduced-output terms
        // (indications, RTT samples, interval counters), never
        // proportionally to wire events the way a retained trace does.
        // Classification + intervals only: the timing/correlation cores
        // additionally keep one sample per forward ACK (the irreducible
        // input of their exact end-of-trace statistics), which grows with
        // ACK count — still far below retained-trace memory, but not what
        // this bound is about.
        let cfg = StreamConfig {
            analyzer: AnalyzerConfig::default(),
            interval_secs: Some(100.0),
            timing: false,
            correlation: false,
        };
        let run = |cycles: u64| {
            let mut s = StreamAnalyzer::new(cfg);
            let mut seq = 0u64;
            for c in 0..cycles {
                let base = c * S;
                for k in 0..8u64 {
                    s.on_send(base + k * MS, seq + k, false);
                }
                s.on_ack_in(base + 500 * MS, seq + 8);
                seq += 8;
            }
            (s.peak_state_bytes(), s.finish(None))
        };
        let (short_peak, short) = run(100);
        let (long_peak, long) = run(2000);
        let long_events = long.events as usize;
        let short_events = short.events as usize;
        // Retained-trace memory would scale 20×; reduced state must not.
        let event_ratio = long_events as f64 / short_events as f64;
        let state_ratio = long_peak as f64 / short_peak as f64;
        assert!(
            state_ratio < event_ratio / 2.0,
            "state grew like the trace: {short_peak} → {long_peak} \
             over {short_events} → {long_events} events"
        );
        assert!(short_peak > 0);
    }

    #[test]
    fn serde_roundtrip() {
        let t = eventful_trace();
        let got = stream(&t, StreamConfig::default(), Some(250.0));
        let json = serde_json::to_string(&got).unwrap();
        let back: StreamAnalysis = serde_json::from_str(&json).unwrap();
        assert_eq!(back, got);
    }

    #[test]
    fn mid_stream_snapshot_restore_is_bit_identical() {
        let t = eventful_trace();
        let cfg = StreamConfig::default();
        let whole = stream(&t, cfg, Some(250.0));

        // Cut the stream at several points, snapshot, restore into a fresh
        // analyzer, and feed the remainder: the finished analysis must be
        // bit-identical to the uninterrupted one at every cut.
        let records: Vec<_> = t.records().to_vec();
        for cut in [
            0,
            1,
            records.len() / 3,
            records.len() / 2,
            records.len() - 1,
        ] {
            let mut first = StreamAnalyzer::new(cfg);
            for rec in &records[..cut] {
                first.on_record(rec);
            }
            let snap = first.snapshot();
            assert_eq!(snap, first.snapshot(), "snapshot encoding deterministic");
            let mut resumed = StreamAnalyzer::new(cfg);
            resumed.restore(&snap).expect("restore");
            for rec in &records[cut..] {
                first.on_record(rec);
                resumed.on_record(rec);
            }
            let a = first.finish(Some(250.0));
            let b = resumed.finish(Some(250.0));
            assert_eq!(a, b, "cut at record {cut}");
            assert_eq!(
                a.rtt_window_corr.map(f64::to_bits),
                b.rtt_window_corr.map(f64::to_bits),
                "cut at record {cut}"
            );
            assert_eq!(a, whole, "cut at record {cut} diverged from whole run");
        }
    }

    #[test]
    fn restore_rejects_config_mismatch_and_corruption() {
        let t = eventful_trace();
        let mut donor = StreamAnalyzer::new(StreamConfig::default());
        for rec in t.records() {
            donor.on_record(rec);
        }
        let snap = donor.snapshot();

        // Core enabled in the target but absent from the snapshot.
        let mut no_timing = StreamAnalyzer::new(StreamConfig {
            timing: false,
            ..StreamConfig::default()
        });
        assert!(matches!(
            no_timing.restore(&snap),
            Err(SnapError::TagMismatch {
                context: "karn-presence",
                ..
            })
        ));

        // Different classifier threshold.
        let mut linux = StreamAnalyzer::new(StreamConfig::with_analyzer(AnalyzerConfig {
            dupack_threshold: 2,
        }));
        assert!(matches!(
            linux.restore(&snap),
            Err(SnapError::TagMismatch {
                context: "classifier-dupack-threshold",
                ..
            })
        ));

        // Bit flips and truncations error, never panic.
        let mut flipped = snap.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(StreamAnalyzer::new(StreamConfig::default())
            .restore(&flipped)
            .is_err());
        for cut in (0..snap.len()).step_by(7) {
            assert!(
                StreamAnalyzer::new(StreamConfig::default())
                    .restore(&snap[..cut])
                    .is_err(),
                "prefix {cut}"
            );
        }

        // The pristine snapshot still restores.
        let mut ok = StreamAnalyzer::new(StreamConfig::default());
        ok.restore(&snap).expect("pristine restore");
        assert_eq!(ok.events(), donor.events());
    }

    /// The v2 delta decoder against damaged input that gets past the
    /// frame: the payload is cut, flipped or replaced and the frame
    /// resealed (length and CRC recomputed), so the cores' decoders see
    /// the damage. A cut must be an `Err`; nothing may panic or hang.
    mod delta_fuzz {
        use super::*;
        use pftk_snap::frame;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// A delta carrying about a hundred RTT and correlation samples,
        /// with the mark it applies at and the chain head it continues.
        fn delta() -> &'static (Vec<u8>, Vec<u8>) {
            static DELTA: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
            DELTA.get_or_init(|| {
                let mut live = StreamAnalyzer::new(StreamConfig::default());
                let (mut now, mut seq) = (0u64, 0u64);
                let mut feed = |live: &mut StreamAnalyzer, rounds: u64| {
                    for round in 0..rounds {
                        for _ in 0..3 {
                            now += MS;
                            live.on_send(now, seq, false);
                            seq += 1;
                        }
                        if round % 7 == 3 {
                            now += 400 * MS;
                            live.on_send(now, seq - 3, true);
                        }
                        now += 60 * MS + (round * 7919) % (90 * MS);
                        live.on_ack_in(now, seq - round % 2);
                    }
                };
                feed(&mut live, 40);
                let head = live.snapshot_since(LogMark::default());
                let mark = live.log_mark();
                feed(&mut live, 120);
                (head, live.snapshot_since(mark))
            })
        }

        /// Reseals `payload` under the delta's frame kind and version and
        /// applies it after the chain head.
        fn apply(payload: &[u8]) -> SnapResult<()> {
            let (head, delta) = delta();
            let framed = unframe(delta, STREAM_SNAPSHOT_VERSION).expect("pristine delta");
            let mut target = StreamAnalyzer::new(StreamConfig::default());
            target.restore(head).expect("chain head applies");
            target.restore(&frame(framed.kind, framed.version, payload))
        }

        fn payload() -> &'static [u8] {
            let (_, delta) = delta();
            unframe(delta, STREAM_SNAPSHOT_VERSION)
                .expect("pristine delta")
                .payload
        }

        #[test]
        fn pristine_delta_is_version_2_and_applies() {
            let (_, delta) = delta();
            assert_eq!(
                unframe(delta, STREAM_SNAPSHOT_VERSION).map(|f| (f.kind, f.version)),
                Ok((STREAM_DELTA_KIND, 2))
            );
            assert_eq!(apply(payload()), Ok(()));
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn resealed_truncations_are_rejected(cut in 0u64..=u64::MAX) {
                let payload = payload();
                let cut = (cut % payload.len() as u64) as usize;
                prop_assert!(apply(&payload[..cut]).is_err(), "cut at {}", cut);
            }

            #[test]
            fn resealed_bit_flips_never_panic(pos in 0u64..=u64::MAX, bit in 0u8..8) {
                let mut payload = payload().to_vec();
                let pos = (pos % payload.len() as u64) as usize;
                payload[pos] ^= 1 << bit;
                let _ = apply(&payload);
            }

            #[test]
            fn resealed_garbage_never_panics(
                keep in 0u64..=u64::MAX,
                garbage in proptest::collection::vec(0u8..=255, 0..64),
            ) {
                // Garbage alone, and garbage after a prefix of the real
                // payload, so it lands inside the sample logs too.
                let _ = apply(&garbage);
                let payload = payload();
                let keep = (keep % payload.len() as u64) as usize;
                let mut spliced = payload[..keep].to_vec();
                spliced.extend_from_slice(&garbage);
                let _ = apply(&spliced);
            }
        }
    }
}
