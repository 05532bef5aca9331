//! Loss-indication extraction and TD/TO classification from sender-side
//! traces — a reimplementation of the paper's trace-analysis programs
//! (§III; the originals were "verified by checking them against tcptrace
//! and ns", ours is verified against the simulator's ground-truth counters).
//!
//! Only wire-visible information is used: the analyzer re-derives
//! retransmissions from sequence-number repetition and counts duplicate
//! ACKs itself. The `retx` flag in the records is deliberately ignored.
//!
//! Classification rules:
//!
//! * a retransmission preceded (since the last forward ACK) by at least
//!   `dupack_threshold` duplicate ACKs is a **TD** (fast-retransmit)
//!   indication — the threshold is 3, or 2 for Linux senders (§III: "we
//!   account for the fact that TD events occur after getting only two
//!   duplicate ACKs");
//! * any other retransmission is a **timeout**; consecutive timeout
//!   retransmissions with no intervening forward ACK chain into a single
//!   timeout *sequence* whose length gives the paper's T0/T1/…/T5+
//!   buckets (Table II).

use crate::record::{Trace, TraceEvent};
use pftk_snap::{SnapError, SnapReader, SnapResult, SnapWriter};
use serde::{Deserialize, Serialize};

/// Loss-indication kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IndicationKind {
    /// Triple-duplicate (fast retransmit).
    TripleDuplicate,
    /// A timeout sequence of the given length (1 = single timeout, 2 =
    /// one exponential backoff, …).
    Timeout {
        /// Number of consecutive timeout retransmissions in the sequence.
        sequence_len: u32,
    },
}

/// One detected loss indication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LossIndication {
    /// Time of the indication (first retransmission of the sequence for
    /// timeouts), nanoseconds.
    pub time_ns: u64,
    /// TD or TO (with sequence length).
    pub kind: IndicationKind,
}

impl LossIndication {
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_u64(self.time_ns);
        match self.kind {
            IndicationKind::TripleDuplicate => w.put_u8(0),
            IndicationKind::Timeout { sequence_len } => {
                w.put_u8(1);
                w.put_u32(sequence_len);
            }
        }
    }

    pub(crate) fn restore_from(r: &mut SnapReader<'_>) -> SnapResult<LossIndication> {
        let time_ns = r.get_u64()?;
        let kind = match r.get_u8()? {
            0 => IndicationKind::TripleDuplicate,
            1 => IndicationKind::Timeout {
                sequence_len: r.get_u32()?,
            },
            _ => return Err(SnapError::Invalid("loss-indication discriminant")),
        };
        Ok(LossIndication { time_ns, kind })
    }
}

/// Analyzer configuration.
#[derive(Debug, Clone, Copy)]
//= pftk#linux-dupthresh
pub struct AnalyzerConfig {
    /// Duplicate ACKs that mark a retransmission as a fast retransmit
    /// (3 standard, 2 for Linux senders).
    pub dupack_threshold: u32,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            dupack_threshold: 3,
        }
    }
}

/// Full analysis result for one trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Analysis {
    /// Every loss indication, in time order.
    pub indications: Vec<LossIndication>,
    /// Total data transmissions observed.
    pub packets_sent: u64,
    /// Retransmissions inferred from sequence repetition.
    pub retransmissions: u64,
    /// ACKs observed.
    pub acks_seen: u64,
}

impl Analysis {
    /// Number of TD indications.
    pub fn td_count(&self) -> u64 {
        self.indications
            .iter()
            .filter(|i| i.kind == IndicationKind::TripleDuplicate)
            .count() as u64
    }

    /// Number of timeout sequences.
    pub fn to_count(&self) -> u64 {
        self.indications.len() as u64 - self.td_count()
    }

    /// Timeout sequences bucketed by length, Table II style: index 0 holds
    /// single timeouts ("T0"), …, index 5 holds length ≥ 6 ("T5 or more").
    ///
    /// A `sequence_len` of 0 cannot be produced by the classifier, but an
    /// [`Analysis`] deserialized from external data may carry one; such a
    /// record lands in the "T0" bucket instead of panicking on underflow.
    pub fn to_histogram(&self) -> [u64; 6] {
        let mut hist = [0u64; 6];
        for ind in &self.indications {
            if let IndicationKind::Timeout { sequence_len } = ind.kind {
                let idx = (sequence_len as usize).saturating_sub(1).min(5);
                hist[idx] += 1;
            }
        }
        hist
    }

    /// The paper's loss-rate estimate `p` = loss indications ÷ packets sent.
    //= pftk#loss-rate-estimate
    pub fn loss_rate(&self) -> f64 {
        if self.packets_sent == 0 {
            0.0
        } else {
            self.indications.len() as f64 / self.packets_sent as f64
        }
    }
}

/// The incremental TD/TO classification automaton: the streaming core
/// behind [`analyze`].
///
/// Feed it wire events one at a time ([`Classifier::on_send`] /
/// [`Classifier::on_ack`]) and call [`Classifier::finish`] at end of
/// trace. Between events it holds O(1) automaton state plus the
/// indications emitted so far; it never needs the trace itself, which is
/// what lets hour-long campaigns analyze while simulating instead of
/// materializing every wire event first (see [`crate::stream`]).
#[derive(Debug, Clone)]
pub struct Classifier {
    config: AnalyzerConfig,
    snd_max: u64,
    last_ack: u64,
    dupacks: u32,
    /// An open timeout sequence: (start time, length).
    open_to: Option<(u64, u32)>,
    /// Set right after a TD classification; cleared on forward progress.
    /// A further retransmission without progress is a timeout, not a second
    /// TD (the duplicate ACKs were already "spent").
    td_consumed: bool,
    out: Analysis,
}

impl Classifier {
    /// A fresh automaton.
    pub fn new(config: AnalyzerConfig) -> Self {
        Classifier {
            config,
            snd_max: 0,
            last_ack: 0,
            dupacks: 0,
            open_to: None,
            td_consumed: false,
            out: Analysis {
                indications: Vec::new(),
                packets_sent: 0,
                retransmissions: 0,
                acks_seen: 0,
            },
        }
    }

    /// Consumes one ACK arrival.
    pub fn on_ack(&mut self, _time_ns: u64, ack: u64) {
        self.out.acks_seen += 1;
        if ack > self.last_ack {
            // Forward progress closes any open timeout sequence.
            if let Some((start, len)) = self.open_to.take() {
                self.out.indications.push(LossIndication {
                    time_ns: start,
                    kind: IndicationKind::Timeout { sequence_len: len },
                });
            }
            self.last_ack = ack;
            self.dupacks = 0;
            self.td_consumed = false;
        } else if ack == self.last_ack {
            self.dupacks += 1;
        }
    }

    /// Consumes one data-segment departure.
    pub fn on_send(&mut self, time_ns: u64, seq: u64) {
        self.out.packets_sent += 1;
        if seq >= self.snd_max {
            self.snd_max = seq + 1;
            return;
        }
        // A repeated sequence number: retransmission.
        self.out.retransmissions += 1;
        if self.dupacks >= self.config.dupack_threshold
            && !self.td_consumed
            && self.open_to.is_none()
        {
            self.out.indications.push(LossIndication {
                time_ns,
                kind: IndicationKind::TripleDuplicate,
            });
            self.td_consumed = true;
        } else {
            match &mut self.open_to {
                Some((_, len)) => *len += 1,
                None => self.open_to = Some((time_ns, 1)),
            }
        }
    }

    /// Loss indications emitted so far (an open timeout sequence is not yet
    /// among them; [`Classifier::finish`] flushes it).
    pub fn indications(&self) -> &[LossIndication] {
        &self.out.indications
    }

    /// Writes the automaton's mutable state (field order is part of the
    /// snapshot format — see DESIGN.md §13). The dupack threshold is a
    /// shape tag: restore requires an identically-configured classifier.
    /// The indication log is append-only, so only its entries from index
    /// `from` on are written; at `from = 0` this is the full state.
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter, from: usize) {
        w.put_tag(u64::from(self.config.dupack_threshold));
        w.put_u64(self.snd_max);
        w.put_u64(self.last_ack);
        w.put_u32(self.dupacks);
        match self.open_to {
            Some((start, len)) => {
                w.put_bool(true);
                w.put_u64(start);
                w.put_u32(len);
            }
            None => w.put_bool(false),
        }
        w.put_bool(self.td_consumed);
        let appended = self.out.indications.get(from..).unwrap_or_default();
        w.put_usize(appended.len());
        for ind in appended {
            ind.snapshot_into(w);
        }
        w.put_u64(self.out.packets_sent);
        w.put_u64(self.out.retransmissions);
        w.put_u64(self.out.acks_seen);
    }

    /// Reads state written by [`Classifier::snapshot_into`] at the same
    /// `from`: the indications past `from` are replaced by the written
    /// ones (at `from = 0`, all of them).
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>, from: usize) -> SnapResult<()> {
        r.expect_tag(
            "classifier-dupack-threshold",
            u64::from(self.config.dupack_threshold),
        )?;
        self.snd_max = r.get_u64()?;
        self.last_ack = r.get_u64()?;
        self.dupacks = r.get_u32()?;
        self.open_to = if r.get_bool()? {
            Some((r.get_u64()?, r.get_u32()?))
        } else {
            None
        };
        self.td_consumed = r.get_bool()?;
        let n = r.get_usize()?;
        self.out.indications.truncate(from);
        for _ in 0..n {
            self.out.indications.push(LossIndication::restore_from(r)?);
        }
        self.out.packets_sent = r.get_u64()?;
        self.out.retransmissions = r.get_u64()?;
        self.out.acks_seen = r.get_u64()?;
        Ok(())
    }

    /// Closes the automaton: flushes an unterminated timeout sequence and
    /// restores time order (timeout sequences are recorded at close time,
    /// which can interleave with TDs out of order).
    pub fn finish(mut self) -> Analysis {
        if let Some((start, len)) = self.open_to.take() {
            self.out.indications.push(LossIndication {
                time_ns: start,
                kind: IndicationKind::Timeout { sequence_len: len },
            });
        }
        self.out.indications.sort_by_key(|i| i.time_ns);
        self.out
    }
}

/// Analyzes a sender-side trace: a thin fold of the incremental
/// [`Classifier`] over the materialized records. Streaming consumers feed
/// the same automaton event by event through [`crate::stream`], so batch
/// and streaming classification are identical by construction.
//= pftk#td-to-classify
//= pftk#to-sequence
pub fn analyze(trace: &Trace, config: AnalyzerConfig) -> Analysis {
    let mut cls = Classifier::new(config);
    for rec in trace.records() {
        match rec.event {
            TraceEvent::Send { seq, .. } => cls.on_send(rec.time_ns, seq),
            TraceEvent::AckIn { ack } => cls.on_ack(rec.time_ns, ack),
        }
    }
    cls.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;

    fn trace(events: &[(u64, TraceEvent)]) -> Trace {
        let mut t = Trace::new();
        for &(time_ns, event) in events {
            t.push(TraceRecord { time_ns, event });
        }
        t
    }

    fn send(seq: u64) -> TraceEvent {
        TraceEvent::Send { seq, retx: false }
    }

    fn ack(a: u64) -> TraceEvent {
        TraceEvent::AckIn { ack: a }
    }

    #[test]
    fn clean_transfer_has_no_indications() {
        let t = trace(&[
            (0, send(0)),
            (1, send(1)),
            (100, ack(2)),
            (101, send(2)),
            (102, send(3)),
            (200, ack(4)),
        ]);
        let a = analyze(&t, AnalyzerConfig::default());
        assert!(a.indications.is_empty());
        assert_eq!(a.packets_sent, 4);
        assert_eq!(a.retransmissions, 0);
        assert_eq!(a.acks_seen, 2);
        assert_eq!(a.loss_rate(), 0.0);
    }

    #[test]
    //= pftk#td-to-classify type=test
    fn triple_duplicate_classified_as_td() {
        let t = trace(&[
            (0, send(0)),
            (1, send(1)),
            (2, send(2)),
            (3, send(3)),
            (4, send(4)),
            (100, ack(1)), // packet 1 lost; these are dupacks for 1
            (110, ack(1)),
            (120, ack(1)),
            (130, ack(1)),  // third duplicate
            (131, send(1)), // fast retransmit
            (200, ack(5)),
        ]);
        let a = analyze(&t, AnalyzerConfig::default());
        assert_eq!(a.indications.len(), 1);
        assert_eq!(a.indications[0].kind, IndicationKind::TripleDuplicate);
        assert_eq!(a.indications[0].time_ns, 131);
        assert_eq!(a.retransmissions, 1);
    }

    #[test]
    //= pftk#linux-dupthresh type=test
    fn linux_threshold_two() {
        let t = trace(&[
            (0, send(0)),
            (1, send(1)),
            (2, send(2)),
            (100, ack(1)),
            (110, ack(1)),
            (120, ack(1)), // two duplicates
            (121, send(1)),
        ]);
        let std = analyze(&t, AnalyzerConfig::default());
        assert!(matches!(
            std.indications[0].kind,
            IndicationKind::Timeout { .. }
        ));
        let linux = analyze(
            &t,
            AnalyzerConfig {
                dupack_threshold: 2,
            },
        );
        assert_eq!(linux.indications[0].kind, IndicationKind::TripleDuplicate);
    }

    #[test]
    fn lone_retransmission_is_single_timeout() {
        let t = trace(&[
            (0, send(0)),
            (3_000_000_000, send(0)), // RTO retransmission
            (3_100_000_000, ack(1)),
        ]);
        let a = analyze(&t, AnalyzerConfig::default());
        assert_eq!(a.indications.len(), 1);
        assert_eq!(
            a.indications[0].kind,
            IndicationKind::Timeout { sequence_len: 1 }
        );
        assert_eq!(a.indications[0].time_ns, 3_000_000_000);
    }

    #[test]
    //= pftk#to-sequence type=test
    fn backoff_chain_is_one_sequence() {
        let t = trace(&[
            (0, send(0)),
            (3_000_000_000, send(0)),
            (9_000_000_000, send(0)),  // doubled
            (21_000_000_000, send(0)), // doubled again
            (21_100_000_000, ack(1)),
        ]);
        let a = analyze(&t, AnalyzerConfig::default());
        assert_eq!(a.indications.len(), 1);
        assert_eq!(
            a.indications[0].kind,
            IndicationKind::Timeout { sequence_len: 3 }
        );
        assert_eq!(a.to_histogram(), [0, 0, 1, 0, 0, 0]);
    }

    #[test]
    fn unterminated_sequence_flushed_at_end() {
        let t = trace(&[(0, send(0)), (3_000_000_000, send(0))]);
        let a = analyze(&t, AnalyzerConfig::default());
        assert_eq!(a.indications.len(), 1);
        assert!(matches!(
            a.indications[0].kind,
            IndicationKind::Timeout { sequence_len: 1 }
        ));
    }

    #[test]
    fn fast_retransmit_then_rto_counts_td_and_to() {
        // The fast retransmit itself is lost; the subsequent RTO
        // retransmission (no new dupacks, no progress) must be a timeout,
        // not a second TD.
        let t = trace(&[
            (0, send(0)),
            (1, send(1)),
            (2, send(2)),
            (3, send(3)),
            (100, ack(1)),
            (110, ack(1)),
            (120, ack(1)),
            (130, ack(1)),
            (131, send(1)),           // fast retransmit (lost)
            (5_000_000_000, send(1)), // RTO
            (5_100_000_000, ack(4)),
        ]);
        let a = analyze(&t, AnalyzerConfig::default());
        assert_eq!(a.indications.len(), 2);
        assert_eq!(a.td_count(), 1);
        assert_eq!(a.to_count(), 1);
    }

    #[test]
    fn separate_sequences_after_progress() {
        let t = trace(&[
            (0, send(0)),
            (3_000_000_000, send(0)),
            (3_100_000_000, ack(1)), // progress: sequence 1 closes
            (3_100_000_001, send(1)),
            (8_000_000_000, send(1)), // new sequence
            (8_100_000_000, ack(2)),
        ]);
        let a = analyze(&t, AnalyzerConfig::default());
        assert_eq!(a.to_count(), 2);
        assert_eq!(a.to_histogram()[0], 2);
    }

    #[test]
    fn loss_rate_counts_indications_over_sent() {
        let t = trace(&[
            (0, send(0)),
            (1, send(1)),
            (2, send(2)),
            (3, send(3)),
            (3_000_000_000, send(0)),
            (3_100_000_000, ack(4)),
        ]);
        let a = analyze(&t, AnalyzerConfig::default());
        assert_eq!(a.packets_sent, 5);
        assert!((a.loss_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn indications_sorted_in_time() {
        // A TD occurring after a TO sequence started but before it closed
        // must still come out in time order.
        let t = trace(&[
            (0, send(0)),
            (1, send(1)),
            (2, send(2)),
            (3, send(3)),
            (3_000_000_000, send(0)), // TO starts
            (3_000_000_100, ack(1)),  // progress closes TO
            (3_000_000_200, ack(1)),
            (3_000_000_300, ack(1)),
            (3_000_000_400, ack(1)),
            (3_000_000_500, send(1)), // TD
        ]);
        let a = analyze(&t, AnalyzerConfig::default());
        let times: Vec<u64> = a.indications.iter().map(|i| i.time_ns).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert_eq!(a.indications.len(), 2);
    }

    #[test]
    fn empty_trace() {
        let a = analyze(&Trace::new(), AnalyzerConfig::default());
        assert!(a.indications.is_empty());
        assert_eq!(a.loss_rate(), 0.0);
    }

    #[test]
    fn zero_length_timeout_sequence_does_not_underflow_histogram() {
        // The classifier never emits sequence_len == 0, but a deserialized
        // Analysis (external JSON) can carry one; the histogram must not
        // panic on `0 - 1` in debug builds.
        let a = Analysis {
            indications: vec![LossIndication {
                time_ns: 0,
                kind: IndicationKind::Timeout { sequence_len: 0 },
            }],
            packets_sent: 1,
            retransmissions: 1,
            acks_seen: 0,
        };
        assert_eq!(a.to_histogram(), [1, 0, 0, 0, 0, 0]);
        assert_eq!(a.to_count(), 1);
    }
}
