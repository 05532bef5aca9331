//! Fixed-interval segmentation of a trace — the paper's per-100-second
//! analysis (§III: "each 1 h trace was divided into 36 consecutive 100 s
//! intervals, and each plotted point on a graph represents the number of
//! packets sent versus the frequency of loss indications during a 100 s
//! interval").
//!
//! Each interval is also categorized like the paper's Fig. 7 legend:
//! `TD` if it suffered no timeout, `T0` if it saw at least one single
//! timeout but no backoff, `T1` for at least one double timeout, etc. —
//! the category is the *deepest* backoff observed.

use crate::analyzer::{Analysis, IndicationKind, LossIndication};
use crate::record::{Trace, TraceEvent};
use pftk_snap::{SnapError, SnapReader, SnapResult, SnapWriter};
use serde::{Deserialize, Serialize};

/// The paper's interval categories (Fig. 7): the deepest loss-indication
/// type observed in the interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum IntervalCategory {
    /// No loss indications at all.
    NoLoss,
    /// Only triple-duplicate indications.
    TdOnly,
    /// At least one timeout; the payload is the deepest backoff level
    /// (0 = single timeout "T0", 1 = double "T1", …, capped at 5).
    Timeout(u8),
}

/// Per-interval statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalStats {
    /// Interval index (0-based).
    pub index: usize,
    /// Packets sent during the interval (the paper's `N_observed`).
    pub packets_sent: u64,
    /// Loss indications falling in the interval.
    pub loss_indications: u64,
    /// The paper's `p_observed` = indications ÷ packets (0 if nothing sent).
    pub loss_rate: f64,
    /// Deepest indication type in the interval.
    pub category: IntervalCategory,
}

impl IntervalStats {
    /// Writes the row with the `pftk-snap` codec.
    pub(crate) fn encode_into(&self, w: &mut SnapWriter) {
        w.put_usize(self.index);
        w.put_u64(self.packets_sent);
        w.put_u64(self.loss_indications);
        w.put_f64(self.loss_rate);
        match self.category {
            IntervalCategory::NoLoss => w.put_u8(0),
            IntervalCategory::TdOnly => w.put_u8(1),
            IntervalCategory::Timeout(level) => {
                w.put_u8(2);
                w.put_u8(level);
            }
        }
    }

    /// Reads a row written by [`IntervalStats::encode_into`].
    pub(crate) fn decode_from(r: &mut SnapReader<'_>) -> SnapResult<IntervalStats> {
        Ok(IntervalStats {
            index: r.get_usize()?,
            packets_sent: r.get_u64()?,
            loss_indications: r.get_u64()?,
            loss_rate: r.get_f64()?,
            category: match r.get_u8()? {
                0 => IntervalCategory::NoLoss,
                1 => IntervalCategory::TdOnly,
                2 => IntervalCategory::Timeout(r.get_u8()?),
                _ => return Err(SnapError::Invalid("interval category")),
            },
        })
    }
}

/// Splits a trace plus its analysis into consecutive `interval_secs`-long
/// intervals (the trailing partial interval is dropped, as a partial
/// interval's send count is not comparable). The horizon is inferred from
/// the last record; use [`split_intervals_bounded`] when the true
/// experiment duration is known (an hour-long run's last packet rarely
/// lands exactly on the hour).
//= pftk#interval-100s
pub fn split_intervals(
    trace: &Trace,
    analysis: &Analysis,
    interval_secs: f64,
) -> Vec<IntervalStats> {
    let end_ns = trace.records().last().map_or(0, |r| r.time_ns);
    split_intervals_bounded(trace, analysis, interval_secs, end_ns as f64 / 1e9)
}

/// The incremental per-interval send counter: the streaming core behind
/// [`split_intervals_bounded`].
///
/// Between events the only retained state is one `u64` per *elapsed*
/// interval — 36 counters for the paper's hour at 100 s — because loss
/// indications arrive already-reduced (the classifier's `Analysis`) at
/// [`IntervalCore::finish`], which replays the exact batch bucketing and
/// categorization over them.
#[derive(Debug, Clone)]
pub struct IntervalCore {
    interval_ns: u64,
    sent: Vec<u64>,
}

impl IntervalCore {
    /// A fresh counter for `interval_secs`-long intervals.
    ///
    /// # Panics
    /// If `interval_secs` is not positive.
    pub fn new(interval_secs: f64) -> Self {
        assert!(interval_secs > 0.0, "interval length must be positive");
        IntervalCore {
            interval_ns: (interval_secs * 1e9) as u64,
            sent: Vec::new(),
        }
    }

    /// Consumes one data-segment departure (original or retransmission —
    /// the paper counts both as "packets sent").
    pub fn on_send(&mut self, time_ns: u64) {
        let idx = (time_ns / self.interval_ns) as usize;
        if idx >= self.sent.len() {
            self.sent.resize(idx + 1, 0);
        }
        self.sent[idx] += 1; //~ allow(hot_panic): resize above guarantees idx is in bounds
    }

    /// Number of interval counters currently retained — the input to
    /// streaming memory accounting.
    pub fn state_len(&self) -> usize {
        self.sent.len()
    }

    /// Writes the counters. The interval length is a shape tag: restore
    /// requires a core built with the same segmentation.
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_tag(self.interval_ns);
        w.put_usize(self.sent.len());
        for v in &self.sent {
            w.put_u64(*v);
        }
    }

    /// Reads state written by [`IntervalCore::snapshot_into`].
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        r.expect_tag("interval-ns", self.interval_ns)?;
        let n = r.get_usize()?;
        self.sent.clear();
        for _ in 0..n {
            self.sent.push(r.get_u64()?);
        }
        Ok(())
    }

    /// Buckets the finished connection's loss indications and emits the
    /// per-interval statistics, exactly `⌊total_secs / interval_secs⌋`
    /// of them (trailing partial intervals are dropped; intervals past the
    /// last send are zero-padded).
    pub fn finish(&self, indications_in: &[LossIndication], total_secs: f64) -> Vec<IntervalStats> {
        let interval_ns = self.interval_ns;
        let end_ns = (total_secs * 1e9) as u64;
        let n_full = (end_ns / interval_ns) as usize;
        if n_full == 0 {
            return Vec::new();
        }
        let mut sent = vec![0u64; n_full];
        let take = n_full.min(self.sent.len());
        sent[..take].copy_from_slice(&self.sent[..take]);
        let mut indications = vec![0u64; n_full];
        let mut deepest: Vec<Option<IntervalCategory>> = vec![None; n_full];
        for ind in indications_in {
            let idx = (ind.time_ns / interval_ns) as usize;
            if idx >= n_full {
                continue;
            }
            indications[idx] += 1;
            let cat = match ind.kind {
                IndicationKind::TripleDuplicate => IntervalCategory::TdOnly,
                IndicationKind::Timeout { sequence_len } => {
                    // `saturating_sub`: a deserialized `Analysis` may carry
                    // `sequence_len == 0`; it categorizes as a single
                    // timeout, matching `Analysis::to_histogram`.
                    IntervalCategory::Timeout((sequence_len.saturating_sub(1)).min(5) as u8)
                }
            };
            let slot = &mut deepest[idx];
            *slot = Some(match slot.take() {
                None => cat,
                Some(prev) => prev.max(cat),
            });
        }
        (0..n_full)
            .map(|i| IntervalStats {
                index: i,
                packets_sent: sent[i],
                loss_indications: indications[i],
                loss_rate: if sent[i] == 0 {
                    0.0
                } else {
                    indications[i] as f64 / sent[i] as f64
                },
                category: deepest[i].unwrap_or(IntervalCategory::NoLoss),
            })
            .collect()
    }
}

/// [`split_intervals`] with an explicit total duration: exactly
/// `⌊total_secs / interval_secs⌋` intervals are produced. A thin fold of
/// the incremental [`IntervalCore`] over the materialized records, so
/// batch and streaming segmentation are identical by construction.
pub fn split_intervals_bounded(
    trace: &Trace,
    analysis: &Analysis,
    interval_secs: f64,
    total_secs: f64,
) -> Vec<IntervalStats> {
    let mut core = IntervalCore::new(interval_secs);
    for rec in trace.records() {
        if let TraceEvent::Send { .. } = rec.event {
            core.on_send(rec.time_ns);
        }
    }
    core.finish(&analysis.indications, total_secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{analyze, AnalyzerConfig};
    use crate::record::TraceRecord;

    const S: u64 = 1_000_000_000;

    fn rec(time_ns: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord { time_ns, event }
    }

    fn send(seq: u64) -> TraceEvent {
        TraceEvent::Send { seq, retx: false }
    }

    fn ack(a: u64) -> TraceEvent {
        TraceEvent::AckIn { ack: a }
    }

    /// Builds a 350-second synthetic trace:
    ///   interval 0 (0–100 s): clean sends;
    ///   interval 1 (100–200 s): one single timeout;
    ///   interval 2 (200–300 s): one double timeout;
    ///   tail (300–350 s): partial, must be dropped.
    fn build() -> (Trace, Analysis) {
        let mut t = Trace::new();
        let mut seq = 0u64;
        // Interval 0: 10 clean packets, acked.
        for i in 0..10 {
            t.push(rec(i * S / 10, send(seq)));
            seq += 1;
        }
        t.push(rec(2 * S, ack(seq)));
        // Interval 1: a packet and its single timeout retransmission.
        t.push(rec(110 * S, send(seq)));
        t.push(rec(115 * S, send(seq))); // retransmission → T0
        t.push(rec(116 * S, ack(seq + 1)));
        seq += 1;
        // Interval 2: a double timeout.
        t.push(rec(210 * S, send(seq)));
        t.push(rec(214 * S, send(seq)));
        t.push(rec(222 * S, send(seq)));
        t.push(rec(223 * S, ack(seq + 1)));
        // Partial tail.
        t.push(rec(340 * S, send(seq + 1)));
        let a = analyze(&t, AnalyzerConfig::default());
        (t, a)
    }

    #[test]
    //= pftk#interval-100s type=test
    fn intervals_counted_and_categorized() {
        let (t, a) = build();
        let iv = split_intervals(&t, &a, 100.0);
        assert_eq!(iv.len(), 3, "partial tail dropped");
        assert_eq!(iv[0].packets_sent, 10);
        assert_eq!(iv[0].loss_indications, 0);
        assert_eq!(iv[0].category, IntervalCategory::NoLoss);
        assert_eq!(iv[1].loss_indications, 1);
        assert_eq!(iv[1].category, IntervalCategory::Timeout(0));
        assert_eq!(iv[2].category, IntervalCategory::Timeout(1));
        assert!((iv[1].loss_rate - 1.0 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn category_ordering_matches_paper_severity() {
        assert!(IntervalCategory::NoLoss < IntervalCategory::TdOnly);
        assert!(IntervalCategory::TdOnly < IntervalCategory::Timeout(0));
        assert!(IntervalCategory::Timeout(0) < IntervalCategory::Timeout(3));
    }

    #[test]
    fn empty_trace_no_intervals() {
        let t = Trace::new();
        let a = analyze(&t, AnalyzerConfig::default());
        assert!(split_intervals(&t, &a, 100.0).is_empty());
    }

    #[test]
    fn short_trace_no_full_interval() {
        let mut t = Trace::new();
        t.push(rec(0, send(0)));
        t.push(rec(50 * S, send(1)));
        let a = analyze(&t, AnalyzerConfig::default());
        assert!(split_intervals(&t, &a, 100.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let t = Trace::new();
        let a = analyze(&t, AnalyzerConfig::default());
        let _ = split_intervals(&t, &a, 0.0);
    }

    #[test]
    fn zero_send_interval_has_zero_rate() {
        let mut t = Trace::new();
        t.push(rec(0, send(0)));
        // Nothing in interval 1, a send in interval 2 to extend the trace.
        t.push(rec(250 * S, send(1)));
        let a = analyze(&t, AnalyzerConfig::default());
        let iv = split_intervals(&t, &a, 100.0);
        assert_eq!(iv[1].packets_sent, 0);
        assert_eq!(iv[1].loss_rate, 0.0);
    }
}
