//! RTT and timeout-duration estimation from sender-side traces.
//!
//! The paper (§III): "When calculating RTT values, we follow Karn's
//! algorithm, in an attempt to minimize the impact of time-outs and
//! retransmissions on the RTT estimates." Karn's rule: never take an RTT
//! sample from a segment that was retransmitted, because the ACK cannot be
//! attributed to a particular transmission.
//!
//! `T0` (Table II's "Time Out" column) is estimated as the duration of the
//! *first* timeout in each timeout sequence: the gap between the
//! retransmission and the later of (a) the last prior transmission of that
//! sequence number and (b) the last forward-ACK arrival (the events that
//! restart a TCP retransmission timer).

use crate::record::{Trace, TraceEvent};
use pftk_snap::{SnapError, SnapReader, SnapResult, SnapWriter};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// RTT samples are whole nanoseconds over this scale, which is what lets a
/// snapshot write each one as its integer nanoseconds.
const NS_PER_SEC: f64 = 1e9;

/// In-flight per-segment state: `(seq, value)` entries in a `VecDeque`
/// kept sorted by seq, with a `BTreeMap<u64, V>`'s contents after every
/// operation but shaped for the sender's access pattern. A new send is
/// above every key (a `push_back`); a forward ACK drops a prefix (front
/// pops); retransmits look a seq up by binary search. Only salvaged or
/// imported traces insert elsewhere — a spurious retransmit below the
/// cumulative ACK, or a "retransmit" of a seq never sent — which falls
/// back to an ordered insert. The deque holds O(window) entries and keeps
/// its capacity, so a warm core does not allocate per event.
#[derive(Debug, Clone)]
struct SeqDeque<V> {
    entries: VecDeque<(u64, V)>,
}

impl<V> Default for SeqDeque<V> {
    fn default() -> Self {
        SeqDeque {
            entries: VecDeque::new(),
        }
    }
}

impl<V: Copy> SeqDeque<V> {
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Entries in ascending seq order.
    fn iter(&self) -> impl Iterator<Item = &(u64, V)> {
        self.entries.iter()
    }

    fn clear(&mut self) {
        self.entries.clear();
    }

    fn find(&self, seq: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&seq, |&(s, _)| s)
    }

    fn get(&self, seq: u64) -> Option<V> {
        let i = self.find(seq).ok()?;
        self.entries.get(i).map(|&(_, v)| v)
    }

    /// Sets `seq`'s value, inserting it in order if absent; returns the
    /// value it replaced.
    fn insert(&mut self, seq: u64, value: V) -> Option<V> {
        match self.entries.back() {
            Some(&(last, _)) if last >= seq => match self.find(seq) {
                Ok(i) => self
                    .entries
                    .get_mut(i)
                    .map(|entry| std::mem::replace(&mut entry.1, value)),
                Err(i) => {
                    self.entries.insert(i, (seq, value));
                    None
                }
            },
            _ => {
                self.entries.push_back((seq, value));
                None
            }
        }
    }

    fn remove(&mut self, seq: u64) -> Option<V> {
        let i = self.find(seq).ok()?;
        self.entries.remove(i).map(|(_, v)| v)
    }

    /// Drops every entry below `bound`, passing each value to `popped` in
    /// ascending seq order.
    fn pop_below(&mut self, bound: u64, mut popped: impl FnMut(V)) {
        while let Some(&(seq, value)) = self.entries.front() {
            if seq >= bound {
                break;
            }
            self.entries.pop_front();
            popped(value);
        }
    }
}

/// One in-flight sequence number's send history, as [`KarnCore`] keeps it.
#[derive(Debug, Clone, Copy)]
struct Sent {
    /// Time of the latest transmission.
    at_ns: u64,
    /// Sent exactly once so far, so an ACK covering it is a Karn-valid
    /// RTT sample (`at_ns` is then also the first transmission).
    timeable: bool,
}

/// RTT/T0 estimates extracted from a trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimingEstimates {
    /// Mean round-trip time over all Karn-valid samples, seconds.
    pub mean_rtt: Option<f64>,
    /// Number of RTT samples taken.
    pub rtt_samples: u64,
    /// Mean single-timeout duration, seconds.
    pub mean_t0: Option<f64>,
    /// Number of T0 samples (one per timeout sequence).
    pub t0_samples: u64,
}

impl TimingEstimates {
    /// Writes the estimates with the `pftk-snap` codec.
    pub(crate) fn encode_into(&self, w: &mut SnapWriter) {
        w.put_opt_f64(self.mean_rtt);
        w.put_u64(self.rtt_samples);
        w.put_opt_f64(self.mean_t0);
        w.put_u64(self.t0_samples);
    }

    /// Reads estimates written by [`TimingEstimates::encode_into`].
    pub(crate) fn decode_from(r: &mut SnapReader<'_>) -> SnapResult<TimingEstimates> {
        Ok(TimingEstimates {
            mean_rtt: r.get_opt_f64()?,
            rtt_samples: r.get_u64()?,
            mean_t0: r.get_opt_f64()?,
            t0_samples: r.get_u64()?,
        })
    }
}

/// The incremental Karn RTT / T0 estimator: the streaming core behind
/// [`estimate_timing`].
///
/// Between events it holds an O(window) in-flight deque (entries below the
/// cumulative ACK are pruned on every forward ACK) plus the RTT sample set
/// — one sample per forward ACK, the irreducible input of the exact
/// end-of-trace median. Everything else is O(1), so an hour-long
/// connection can be timed without ever materializing its trace.
#[derive(Debug, Clone, Default)]
pub struct KarnCore {
    /// Send history of every sequence number at or above the cumulative
    /// ACK, plus retransmitted ones below it until the next forward ACK:
    /// the last transmission time is what T0 anchoring needs, and a
    /// retransmission permanently disqualifies its sequence number from
    /// RTT sampling.
    in_flight: SeqDeque<Sent>,
    /// Number of `in_flight` entries still timeable: the segments an ACK
    /// may yet take an RTT sample from.
    pending: usize,
    snd_max: u64,
    last_ack: u64,
    /// Samples tagged with how many segments the ACK covered: delayed-ACK
    /// receivers hold an odd final segment for the delack timer (~200 ms),
    /// inflating single-cover samples; when the trace shows delayed acking
    /// (a substantial share of multi-cover ACKs), single-cover samples are
    /// discarded at [`KarnCore::finish`].
    samples: Vec<(f64, usize)>,
    last_progress_ns: Option<u64>,
    in_to_sequence: bool,
    t0_sum: f64,
    t0_n: u64,
}

impl KarnCore {
    /// A fresh estimator.
    pub fn new() -> Self {
        KarnCore::default()
    }

    /// Consumes one data-segment departure.
    pub fn on_send(&mut self, time_ns: u64, seq: u64) {
        // Anything below `snd_max` is a retransmission: Karn-disqualify it.
        let timeable = seq >= self.snd_max;
        let prev = self.in_flight.insert(
            seq,
            Sent {
                at_ns: time_ns,
                timeable,
            },
        );
        if prev.is_some_and(|p| p.timeable) {
            self.pending -= 1;
        }
        if timeable {
            self.snd_max = seq + 1;
            self.pending += 1;
        } else if !self.in_to_sequence {
            // First retransmission since last progress: if it is
            // a timeout (no way to tell TD vs TO here without
            // the classifier; T0 sampling accepts the small TD
            // contamination the same way trace tools do — the
            // gap for a fast retransmit is ≈RTT and for a
            // timeout ≈RTO, so downstream users combine this
            // with the classifier; see `estimate_t0_classified`).
            let anchor = prev
                .map(|p| p.at_ns)
                .into_iter()
                .chain(self.last_progress_ns)
                .max();
            if let Some(anchor) = anchor {
                if time_ns > anchor {
                    self.t0_sum += (time_ns - anchor) as f64 / 1e9;
                    self.t0_n += 1;
                }
            }
            self.in_to_sequence = true;
        }
    }

    /// Consumes one ACK arrival.
    pub fn on_ack(&mut self, time_ns: u64, ack: u64) {
        if ack > self.last_ack {
            self.last_ack = ack;
            self.last_progress_ns = Some(time_ns);
            self.in_to_sequence = false;
            // Sample the *highest* newly covered segment: with
            // delayed ACKs its send→ack gap is the cleanest RTT
            // (lower segments include the delayed-ACK hold).
            //
            // Every entry below the cumulative ACK goes, not only the
            // timeable ones: an acked sequence's last send happened at or
            // before this ACK's arrival, so a later (spurious) retransmit
            // of it anchors on `last_progress_ns` either way — the max is
            // unchanged while the deque stays O(window) instead of leaking
            // one entry per retransmitted sequence for the whole trace.
            let mut covered = 0usize;
            let mut highest_sent = None;
            self.in_flight.pop_below(ack, |sent| {
                if sent.timeable {
                    covered += 1;
                    highest_sent = Some(sent.at_ns);
                }
            });
            self.pending -= covered;
            if let Some(sent) = highest_sent {
                if time_ns > sent {
                    self.samples
                        .push(((time_ns - sent) as f64 / NS_PER_SEC, covered));
                }
            }
        }
    }

    /// Entry counts of the retained state `(pending, last_send_of,
    /// rtt_samples)` — the inputs to streaming memory accounting. Pending
    /// entries are the timeable in-flight ones; `last_send_of` counts every
    /// in-flight entry.
    pub fn state_len(&self) -> (usize, usize, usize) {
        (self.pending, self.in_flight.len(), self.samples.len())
    }

    /// Writes the estimator's state: the timeable entries' send times
    /// (`pending`), then every entry's last send time (`last_send_of`).
    /// The deque iterates in ascending seq order, so the byte encoding is a
    /// pure function of the contents. The sample log is append-only, so
    /// only its entries from index `from` on are written; at `from = 0`
    /// this is the full state. The samples are written as two runs of
    /// varints: every RTT as its whole nanoseconds
    /// ([`SnapWriter::put_scaled_f64`], raw bits where that would not be
    /// exact), then every covered count.
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter, from: usize) {
        w.put_usize(self.pending);
        for (seq, sent) in self.in_flight.iter().filter(|(_, s)| s.timeable) {
            w.put_u64(*seq);
            w.put_u64(sent.at_ns);
        }
        w.put_u64(self.snd_max);
        w.put_u64(self.last_ack);
        let appended = self.samples.get(from..).unwrap_or_default();
        w.put_usize(appended.len());
        for (rtt, _) in appended {
            w.put_scaled_f64(*rtt, NS_PER_SEC);
        }
        for (_, covered) in appended {
            w.put_varint(*covered as u64);
        }
        w.put_usize(self.in_flight.len());
        for (seq, sent) in self.in_flight.iter() {
            w.put_u64(*seq);
            w.put_u64(sent.at_ns);
        }
        match self.last_progress_ns {
            Some(t) => {
                w.put_bool(true);
                w.put_u64(t);
            }
            None => w.put_bool(false),
        }
        w.put_bool(self.in_to_sequence);
        w.put_f64(self.t0_sum);
        w.put_u64(self.t0_n);
    }

    /// Reads state written by [`KarnCore::snapshot_into`]. Every pending
    /// entry must reappear in `last_send_of` with the same time — a segment
    /// is timeable only while it has been sent exactly once — or the
    /// snapshot is rejected as invalid. As in [`KarnCore::snapshot_into`],
    /// the samples past `from` are replaced by the written ones. `compact`
    /// selects the sample encoding: the two varint runs, or the two raw
    /// 8-byte words per sample of version-1 snapshots.
    pub(crate) fn restore_from(
        &mut self,
        r: &mut SnapReader<'_>,
        from: usize,
        compact: bool,
    ) -> SnapResult<()> {
        let n = r.get_usize()?;
        self.in_flight.clear();
        for _ in 0..n {
            let seq = r.get_u64()?;
            let at_ns = r.get_u64()?;
            self.in_flight.insert(
                seq,
                Sent {
                    at_ns,
                    timeable: true,
                },
            );
        }
        let pending = self.in_flight.len();
        self.snd_max = r.get_u64()?;
        self.last_ack = r.get_u64()?;
        let n = r.get_usize()?;
        self.samples.truncate(from);
        if compact {
            let start = self.samples.len();
            for _ in 0..n {
                self.samples.push((r.get_scaled_f64(NS_PER_SEC)?, 0));
            }
            for (_, covered) in self.samples.iter_mut().skip(start) {
                *covered = r.get_varint_usize()?;
            }
        } else {
            for _ in 0..n {
                self.samples.push((r.get_f64()?, r.get_usize()?));
            }
        }
        let n = r.get_usize()?;
        let mut matched = 0usize;
        for _ in 0..n {
            let seq = r.get_u64()?;
            let at_ns = r.get_u64()?;
            let resent = Sent {
                at_ns,
                timeable: false,
            };
            match self.in_flight.get(seq) {
                None => {
                    self.in_flight.insert(seq, resent);
                }
                Some(s) if s.timeable && s.at_ns == at_ns => matched += 1,
                Some(_) => return Err(SnapError::Invalid("karn: inconsistent send history")),
            }
        }
        if matched != pending {
            return Err(SnapError::Invalid(
                "karn: pending entry without a last send",
            ));
        }
        self.pending = pending;
        self.last_progress_ns = if r.get_bool()? {
            Some(r.get_u64()?)
        } else {
            None
        };
        self.in_to_sequence = r.get_bool()?;
        self.t0_sum = r.get_f64()?;
        self.t0_n = r.get_u64()?;
        Ok(())
    }

    /// Closes the estimator and computes the estimates.
    pub fn finish(self) -> TimingEstimates {
        let multi = self.samples.iter().filter(|(_, c)| *c >= 2).count();
        let delayed_acking = multi * 3 >= self.samples.len(); // ≥1/3 multi-cover ACKs
        let mut kept: Vec<f64> = self
            .samples
            .iter()
            .filter(|(_, c)| !delayed_acking || *c >= 2)
            .map(|(r, _)| *r)
            .collect();
        // Robust location: the median. Two artifacts pollute the sample set —
        // delack-timer ACKs add the delayed-ACK hold (filtered above when the
        // receiver delays ACKs), and cumulative ACKs that jump a repaired hole
        // anchor on segments sent a recovery ago. Both are heavy right tails;
        // the median ignores them where a mean would not.
        TimingEstimates {
            rtt_samples: kept.len() as u64,
            mean_rtt: median(&mut kept),
            mean_t0: (self.t0_n > 0).then(|| self.t0_sum / self.t0_n as f64),
            t0_samples: self.t0_n,
        }
    }
}

/// The median of `xs` under `f64::total_cmp` (mean of the two middle
/// values for even counts), or `None` when empty. Selection, not a full
/// sort: `total_cmp` ties are bit-identical, so the values picked — and
/// the result bits — are exactly those of sorting first. Reorders `xs`.
fn median(xs: &mut [f64]) -> Option<f64> {
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let (left, &mut upper, _) = xs.select_nth_unstable_by(n / 2, f64::total_cmp);
    if n % 2 == 1 {
        return Some(upper);
    }
    // The left partition holds the n/2 smallest values; its max is the
    // lower middle.
    let lower = left.iter().copied().max_by(f64::total_cmp)?;
    Some(0.5 * (lower + upper))
}

/// Extracts RTT and T0 estimates from a sender-side trace: a thin fold of
/// the incremental [`KarnCore`] over the materialized records, so batch
/// and streaming timing are identical by construction.
//= pftk#karn-rto
//= pftk#t0-first-timeout
pub fn estimate_timing(trace: &Trace) -> TimingEstimates {
    let mut core = KarnCore::new();
    for rec in trace.records() {
        match rec.event {
            TraceEvent::Send { seq, .. } => core.on_send(rec.time_ns, seq),
            TraceEvent::AckIn { ack } => core.on_ack(rec.time_ns, ack),
        }
    }
    core.finish()
}

/// T0 estimation restricted to retransmissions the classifier labelled as
/// timeout-sequence starts — use when TD contamination matters (the plain
/// [`estimate_timing`] also averages fast-retransmit gaps, biasing T0 low
/// on TD-heavy traces).
pub fn estimate_t0_classified(trace: &Trace, timeout_start_times: &[u64]) -> Option<f64> {
    if timeout_start_times.is_empty() {
        return None;
    }
    let starts: std::collections::BTreeSet<u64> = timeout_start_times.iter().copied().collect();
    let mut last_send_of: BTreeMap<u64, u64> = BTreeMap::new();
    let mut last_progress_ns: Option<u64> = None;
    let mut last_ack: u64 = 0;
    let mut snd_max: u64 = 0;
    let mut sum = 0.0;
    let mut n: u64 = 0;
    for rec in trace.records() {
        match rec.event {
            TraceEvent::Send { seq, .. } => {
                if seq >= snd_max {
                    snd_max = seq + 1;
                } else if starts.contains(&rec.time_ns) {
                    let anchor = last_send_of
                        .get(&seq)
                        .copied()
                        .into_iter()
                        .chain(last_progress_ns)
                        .max();
                    if let Some(anchor) = anchor {
                        if rec.time_ns > anchor {
                            sum += (rec.time_ns - anchor) as f64 / 1e9;
                            n += 1;
                        }
                    }
                }
                last_send_of.insert(seq, rec.time_ns);
            }
            TraceEvent::AckIn { ack } => {
                if ack > last_ack {
                    last_ack = ack;
                    last_progress_ns = Some(rec.time_ns);
                }
            }
        }
    }
    (n > 0).then(|| sum / n as f64)
}

/// The incremental RTT-vs-flight correlator: the streaming core behind
/// [`rtt_window_correlation`].
///
/// O(window) in-flight deque plus two sample vectors (one point per forward
/// ACK — the irreducible input of the exact end-of-trace Pearson
/// coefficient).
#[derive(Debug, Clone, Default)]
pub struct CorrCore {
    /// seq → (send time, flight size at send).
    pending: SeqDeque<(u64, u64)>,
    snd_max: u64,
    last_ack: u64,
    /// Flight sizes.
    xs: Vec<f64>,
    /// RTT samples, seconds.
    ys: Vec<f64>,
}

impl CorrCore {
    /// A fresh correlator.
    pub fn new() -> Self {
        CorrCore::default()
    }

    /// Consumes one data-segment departure.
    pub fn on_send(&mut self, time_ns: u64, seq: u64) {
        if seq >= self.snd_max {
            self.snd_max = seq + 1;
            // Saturating: a salvaged/corrupt capture can carry an ACK
            // beyond anything sent, leaving `last_ack > snd_max` — flight
            // clamps to 0 there instead of underflowing.
            let flight = self.snd_max.saturating_sub(self.last_ack);
            self.pending.insert(seq, (time_ns, flight));
        } else {
            self.pending.remove(seq); // Karn
        }
    }

    /// Consumes one ACK arrival.
    pub fn on_ack(&mut self, time_ns: u64, ack: u64) {
        if ack > self.last_ack {
            self.last_ack = ack;
            // The last entry popped is the highest newly covered
            // segment, the one worth timing.
            let mut last = None;
            self.pending.pop_below(ack, |entry| last = Some(entry));
            if let Some((sent, flight)) = last {
                if time_ns > sent {
                    self.xs.push(flight as f64);
                    self.ys.push((time_ns - sent) as f64 / NS_PER_SEC);
                }
            }
        }
    }

    /// Entry counts of the retained state `(pending, samples)` — the
    /// inputs to streaming memory accounting.
    pub fn state_len(&self) -> (usize, usize) {
        (self.pending.len(), self.xs.len())
    }

    /// Writes the correlator's state (one length prefix covers both
    /// sample vectors — they grow in lock step). The vectors are
    /// append-only, so only their entries from index `from` on are
    /// written; at `from = 0` this is the full state. Flight sizes are
    /// whole packets and RTTs whole nanoseconds, so each value is one
    /// varint ([`SnapWriter::put_scaled_f64`]).
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter, from: usize) {
        w.put_usize(self.pending.len());
        for (seq, (sent, flight)) in self.pending.iter() {
            w.put_u64(*seq);
            w.put_u64(*sent);
            w.put_u64(*flight);
        }
        w.put_u64(self.snd_max);
        w.put_u64(self.last_ack);
        let xs = self.xs.get(from..).unwrap_or_default();
        let ys = self.ys.get(from..).unwrap_or_default();
        w.put_usize(xs.len());
        for x in xs {
            w.put_scaled_f64(*x, 1.0);
        }
        for y in ys {
            w.put_scaled_f64(*y, NS_PER_SEC);
        }
    }

    /// Reads state written by [`CorrCore::snapshot_into`] at the same
    /// `from`: the samples past `from` are replaced by the written ones.
    /// `compact` selects varints or version 1's raw 8-byte words.
    pub(crate) fn restore_from(
        &mut self,
        r: &mut SnapReader<'_>,
        from: usize,
        compact: bool,
    ) -> SnapResult<()> {
        let n = r.get_usize()?;
        self.pending.clear();
        for _ in 0..n {
            let seq = r.get_u64()?;
            let sent = r.get_u64()?;
            let flight = r.get_u64()?;
            self.pending.insert(seq, (sent, flight));
        }
        self.snd_max = r.get_u64()?;
        self.last_ack = r.get_u64()?;
        let n = r.get_usize()?;
        self.xs.truncate(from);
        self.ys.truncate(from);
        for (series, scale) in [(&mut self.xs, 1.0), (&mut self.ys, NS_PER_SEC)] {
            for _ in 0..n {
                series.push(if compact {
                    r.get_scaled_f64(scale)?
                } else {
                    r.get_f64()?
                });
            }
        }
        Ok(())
    }

    /// Closes the correlator: Pearson coefficient, or `None` with fewer
    /// than two samples or zero variance.
    pub fn finish(self) -> Option<f64> {
        pearson(&self.xs, &self.ys)
    }
}

/// Pearson correlation between RTT samples and the number of packets in
/// flight when the timed segment was sent — the paper's §IV diagnostic
/// ("we have measured the coefficient of correlation between the duration
/// of round samples and the number of packets in transit"). Values near 0
/// support the model's RTT-independence assumption; values near 1 are the
/// modem-path regime of Fig. 11 where every model fails.
///
/// A thin fold of the incremental [`CorrCore`].
///
/// Returns `None` with fewer than two samples or zero variance.
//= pftk#rtt-window-corr
pub fn rtt_window_correlation(trace: &Trace) -> Option<f64> {
    let mut core = CorrCore::new();
    for rec in trace.records() {
        match rec.event {
            TraceEvent::Send { seq, .. } => core.on_send(rec.time_ns, seq),
            TraceEvent::AckIn { ack } => core.on_ack(rec.time_ns, ack),
        }
    }
    core.finish()
}

fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mx = xs.iter().sum::<f64>() / nf;
    let my = ys.iter().sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    // Sums of squares are non-negative; a degenerate (constant) series has
    // an undefined correlation. `<=` avoids a NaN-hazard float equality.
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;
    use proptest::prelude::*;

    /// The reference the selection median must match bit for bit: sort,
    /// then index.
    fn sorted_median(xs: &[f64]) -> Option<f64> {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => None,
            n if n % 2 == 1 => Some(v[n / 2]),
            n => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
        }
    }

    #[test]
    fn selection_median_matches_sorted_median() {
        let cases: [&[f64]; 9] = [
            &[],
            &[0.2],
            &[0.3, 0.1],
            &[0.2, 0.2, 0.1],
            &[0.4, 0.1, 0.4, 0.1],
            &[0.5, 0.1, 0.3, 0.3, 0.3, 0.2],
            &[0.0, -0.0, 0.0, -0.0],
            &[1e-9, 3.0, 1e-9, 2.0, 3.0, 1e-9, 0.7],
            &[0.25, 0.5, 0.125, 0.5, 0.25, 0.125, 0.5, 0.25],
        ];
        for xs in cases {
            let mut scratch = xs.to_vec();
            assert_eq!(
                median(&mut scratch).map(f64::to_bits),
                sorted_median(xs).map(f64::to_bits),
                "{xs:?}"
            );
        }
    }

    /// The map-based Karn core the deque replaced (in-flight bookkeeping,
    /// RTT samples and T0), kept as the reference the folded deque must
    /// reproduce event for event.
    #[derive(Default)]
    struct MapKarn {
        pending: BTreeMap<u64, u64>,
        last_send_of: BTreeMap<u64, u64>,
        snd_max: u64,
        last_ack: u64,
        samples: Vec<(f64, usize)>,
        last_progress_ns: Option<u64>,
        in_to_sequence: bool,
        t0_sum: f64,
        t0_n: u64,
    }

    impl MapKarn {
        fn on_send(&mut self, time_ns: u64, seq: u64) {
            if seq >= self.snd_max {
                self.snd_max = seq + 1;
                self.pending.insert(seq, time_ns);
            } else {
                self.pending.remove(&seq);
                if !self.in_to_sequence {
                    let anchor = self.last_send_of.get(&seq).copied();
                    if let Some(anchor) = anchor.into_iter().chain(self.last_progress_ns).max() {
                        if time_ns > anchor {
                            self.t0_sum += (time_ns - anchor) as f64 / 1e9;
                            self.t0_n += 1;
                        }
                    }
                    self.in_to_sequence = true;
                }
            }
            self.last_send_of.insert(seq, time_ns);
        }

        fn on_ack(&mut self, time_ns: u64, ack: u64) {
            if ack > self.last_ack {
                self.last_ack = ack;
                self.last_progress_ns = Some(time_ns);
                self.in_to_sequence = false;
                let mut covered = 0usize;
                let mut highest_sent = None;
                while let Some(entry) = self.pending.first_entry() {
                    if *entry.key() >= ack {
                        break;
                    }
                    covered += 1;
                    highest_sent = Some(entry.remove());
                }
                if let Some(sent) = highest_sent {
                    if time_ns > sent {
                        self.samples.push(((time_ns - sent) as f64 / 1e9, covered));
                    }
                }
                self.last_send_of = self.last_send_of.split_off(&ack);
            }
        }
    }

    /// A time-ordered sender trace with the unusual events salvaged and
    /// imported traces carry: in-order sends (every fourth skipping a few
    /// seqs that are then never sent), retransmits inside and below the
    /// window, and duplicate, forward, and beyond-`snd_max` ACKs.
    fn odd_trace(ops: &[(u8, u64)]) -> Vec<(u64, TraceEvent)> {
        let mut events = Vec::new();
        let (mut snd_max, mut last_ack) = (0u64, 0u64);
        for (i, &(op, arg)) in (0u64..).zip(ops) {
            let now = i * MS + arg % 7;
            let window = snd_max.saturating_sub(last_ack);
            let event = match op {
                0..=2 => {
                    let seq = snd_max + if arg % 4 == 3 { 1 + arg % 5 } else { 0 };
                    snd_max = seq + 1;
                    send(seq)
                }
                3 if window > 0 => send(last_ack + arg % window),
                4 if last_ack > 0 => send(arg % last_ack),
                5 => ack(last_ack),
                6 => ack(last_ack + 1 + arg % (window + 1)),
                7 => ack(snd_max + 1 + arg % 10),
                _ => continue,
            };
            if let TraceEvent::AckIn { ack } = event {
                last_ack = last_ack.max(ack);
            }
            events.push((now, event));
        }
        events
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Model check of the in-flight deque against the `BTreeMap` it
        /// replaced, driven the way a sender trace drives it: in-order
        /// sends (some skipping seqs, which are then never sent),
        /// retransmits inside and below the window, Karn removals, and
        /// duplicate, forward, and beyond-`snd_max` ACKs. Every return
        /// value, every popped value, and the full contents in iteration
        /// order must agree after every operation.
        #[test]
        fn seq_deque_matches_btreemap_model(
            ops in prop::collection::vec((0u8..9, 0u64..1_000), 1..300),
        ) {
            let mut deque: SeqDeque<u64> = SeqDeque::default();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut snd_max = 0u64;
            let mut last_ack = 0u64;
            for (t, (op, arg)) in (0u64..).zip(ops) {
                let window = snd_max.saturating_sub(last_ack);
                match op {
                    // In-order send; every fourth skips a few seqs.
                    0 | 1 => {
                        let skip = if arg % 4 == 3 { 1 + arg % 5 } else { 0 };
                        let seq = snd_max + skip;
                        snd_max = seq + 1;
                        prop_assert_eq!(deque.insert(seq, t), model.insert(seq, t));
                    }
                    // Retransmit inside the window (a never-sent seq when
                    // it lands in a skipped hole).
                    2 if window > 0 => {
                        let seq = last_ack + arg % window;
                        prop_assert_eq!(deque.insert(seq, t), model.insert(seq, t));
                    }
                    // Spurious retransmit below the cumulative ACK.
                    3 if last_ack > 0 => {
                        let seq = arg % last_ack;
                        prop_assert_eq!(deque.insert(seq, t), model.insert(seq, t));
                    }
                    // Karn removal anywhere, sent or not.
                    4 => {
                        let seq = arg % (snd_max + 2);
                        prop_assert_eq!(deque.remove(seq), model.remove(&seq));
                    }
                    5 => {
                        let seq = arg % (snd_max + 2);
                        prop_assert_eq!(deque.get(seq), model.get(&seq).copied());
                    }
                    // Duplicate, forward, and beyond-snd_max ACKs.
                    6..=8 => {
                        let ack = match op {
                            6 => last_ack,
                            7 => last_ack + 1 + arg % (window + 1),
                            _ => snd_max + 1 + arg % 10,
                        };
                        last_ack = last_ack.max(ack);
                        let mut popped = Vec::new();
                        deque.pop_below(ack, |v| popped.push(v));
                        let mut expected = Vec::new();
                        while let Some(entry) = model.first_entry() {
                            if *entry.key() >= ack {
                                break;
                            }
                            expected.push(entry.remove());
                        }
                        prop_assert_eq!(popped, expected);
                    }
                    _ => {}
                }
                prop_assert_eq!(deque.len(), model.len());
                let got: Vec<(u64, u64)> = deque.iter().copied().collect();
                let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                prop_assert_eq!(got, want);
            }
        }

        #[test]
        fn folded_karn_core_matches_map_reference(
            ops in prop::collection::vec((0u8..9, 0u64..1_000), 1..300),
        ) {
            let mut core = KarnCore::new();
            let mut reference = MapKarn::default();
            for (time_ns, event) in odd_trace(&ops) {
                match event {
                    TraceEvent::Send { seq, .. } => {
                        core.on_send(time_ns, seq);
                        reference.on_send(time_ns, seq);
                    }
                    TraceEvent::AckIn { ack } => {
                        core.on_ack(time_ns, ack);
                        reference.on_ack(time_ns, ack);
                    }
                }
                let entries = |m: &BTreeMap<u64, u64>| -> Vec<(u64, u64)> {
                    m.iter().map(|(&k, &v)| (k, v)).collect()
                };
                let pending: Vec<(u64, u64)> = core
                    .in_flight
                    .iter()
                    .filter(|(_, s)| s.timeable)
                    .map(|&(seq, s)| (seq, s.at_ns))
                    .collect();
                let last_send: Vec<(u64, u64)> =
                    core.in_flight.iter().map(|&(seq, s)| (seq, s.at_ns)).collect();
                prop_assert_eq!(pending, entries(&reference.pending));
                prop_assert_eq!(last_send, entries(&reference.last_send_of));
                let (p, l, n) = core.state_len();
                prop_assert_eq!(p, reference.pending.len());
                prop_assert_eq!(l, reference.last_send_of.len());
                prop_assert_eq!(n, reference.samples.len());
                prop_assert_eq!(&core.samples, &reference.samples);
                prop_assert_eq!(core.t0_sum.to_bits(), reference.t0_sum.to_bits());
                prop_assert_eq!(core.t0_n, reference.t0_n);
            }
        }
    }

    #[test]
    fn restore_rejects_pending_without_matching_last_send() {
        let mut core = KarnCore::new();
        core.on_send(0, 0);
        core.on_send(MS, 1);
        let mut w = SnapWriter::new();
        core.snapshot_into(&mut w, 0);
        let good = w.into_bytes();
        let mut back = KarnCore::new();
        back.restore_from(&mut SnapReader::new(&good), 0, true)
            .expect("own snapshot restores");
        assert_eq!(back.state_len(), core.state_len());

        // Same snapshot with seq 1's last send moved: a "pending" segment
        // whose last transmission differs from its only one.
        // The tail after the last_send_of block: progress flag (1 byte,
        // no progress yet), in_to_sequence (1), t0_sum (8), t0_n (8).
        let mut skewed = good.clone();
        let last_send_time = good.len() - (1 + 1 + 8 + 8) - 8;
        skewed[last_send_time] ^= 1;
        assert!(matches!(
            KarnCore::new().restore_from(&mut SnapReader::new(&skewed), 0, true),
            Err(SnapError::Invalid("karn: inconsistent send history"))
        ));
    }

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

    const S: u64 = 1_000_000_000;
    const MS: u64 = 1_000_000;

    #[test]
    fn correlation_survives_ack_beyond_snd_max() {
        // A salvaged capture can acknowledge data that was never sent;
        // the next send must not underflow the flight computation.
        let t = trace(&[
            (0, send(0)),
            (100 * MS, ack(999)),
            (200 * MS, send(1)),
            (300 * MS, send(2)),
            (400 * MS, ack(1_000)),
        ]);
        let _ = rtt_window_correlation(&t);
    }

    #[test]
    fn clean_rtt_measured() {
        let t = trace(&[
            (0, send(0)),
            (200 * MS, ack(1)),
            (200 * MS + 1, send(1)),
            (400 * MS, ack(2)),
        ]);
        let est = estimate_timing(&t);
        assert_eq!(est.rtt_samples, 2);
        let expect = (0.2 + (0.4 - 0.2 - 1e-9) / 1.0) / 2.0;
        assert!((est.mean_rtt.unwrap() - expect).abs() < 1e-6);
        assert!(est.mean_t0.is_none());
    }

    #[test]
    fn delayed_ack_samples_highest_covered() {
        // Two segments sent 10 ms apart; one cumulative ACK 200 ms after the
        // second. The sample must anchor on the second segment (0.2 s), not
        // the first (0.21 s).
        let t = trace(&[(0, send(0)), (10 * MS, send(1)), (210 * MS, ack(2))]);
        let est = estimate_timing(&t);
        assert_eq!(est.rtt_samples, 1);
        assert!((est.mean_rtt.unwrap() - 0.2).abs() < 1e-9);
    }

    #[test]
    //= pftk#karn-rto type=test
    fn karn_excludes_retransmitted_segments() {
        let t = trace(&[
            (0, send(0)),
            (3 * S, send(0)), // retransmission: seq 0 disqualified
            (3 * S + 100 * MS, ack(1)),
        ]);
        let est = estimate_timing(&t);
        assert_eq!(est.rtt_samples, 0, "Karn must reject the ambiguous sample");
    }

    #[test]
    //= pftk#t0-first-timeout type=test
    fn t0_measured_from_send_gap() {
        let t = trace(&[
            (0, send(0)),
            (3 * S, send(0)), // timeout after 3 s
            (3 * S + 100 * MS, ack(1)),
        ]);
        let est = estimate_timing(&t);
        assert_eq!(est.t0_samples, 1);
        assert!((est.mean_t0.unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn t0_anchors_on_later_of_send_and_progress() {
        // Progress at t=1s restarts the timer; the timeout retransmission at
        // t=3.5s therefore measures 2.5 s, not 3.5 s.
        let t = trace(&[
            (0, send(0)),
            (500 * MS, send(1)),
            (S, ack(1)), // progress (seq 0 acked)
            (3_500 * MS, send(1)),
        ]);
        let est = estimate_timing(&t);
        assert_eq!(est.t0_samples, 1);
        assert!(
            (est.mean_t0.unwrap() - 2.5).abs() < 1e-9,
            "got {:?}",
            est.mean_t0
        );
    }

    #[test]
    fn only_first_timeout_of_sequence_sampled() {
        let t = trace(&[
            (0, send(0)),
            (3 * S, send(0)),
            (9 * S, send(0)),  // backoff: same sequence, not sampled
            (21 * S, send(0)), // backoff
            (21 * S + 100 * MS, ack(1)),
            (21 * S + 200 * MS, send(1)),
            (24 * S, send(1)), // new sequence after progress
        ]);
        let est = estimate_timing(&t);
        assert_eq!(est.t0_samples, 2);
        // First sequence T0 = 3 s; second = 24 − 21.2 = 2.8 s.
        assert!((est.mean_t0.unwrap() - (3.0 + 2.8) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn classified_t0_uses_only_given_starts() {
        let t = trace(&[
            (0, send(0)),
            (1, send(1)),
            (100 * MS, ack(1)),
            (101 * MS, ack(1)),
            (102 * MS, ack(1)),
            (103 * MS, ack(1)),
            (104 * MS, send(1)), // fast retransmit — would contaminate T0
            (5 * S, send(1)),    // true timeout
        ]);
        let plain = estimate_timing(&t);
        // Plain estimator sampled the fast retransmit's tiny gap.
        assert!(plain.mean_t0.unwrap() < 1.0);
        let classified = estimate_t0_classified(&t, &[5 * S]).unwrap();
        assert!(
            (classified - (5.0 - 0.104)).abs() < 1e-6,
            "got {classified}"
        );
        assert!(estimate_t0_classified(&t, &[]).is_none());
    }

    #[test]
    fn empty_trace_yields_nones() {
        let est = estimate_timing(&Trace::new());
        assert!(est.mean_rtt.is_none());
        assert!(est.mean_t0.is_none());
    }

    #[test]
    //= pftk#rtt-window-corr type=test
    fn correlation_detects_queueing_regime() {
        // Build a trace where RTT grows linearly with flight size
        // (a dedicated bottleneck buffer): correlation ≈ 1.
        let mut t = Trace::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for flight in 1..=20u64 {
            // `flight − 1` unacked predecessors, then the timed segment.
            for _ in 0..flight {
                t.push(TraceRecord {
                    time_ns: now,
                    event: send(seq),
                });
                seq += 1;
                now += 1;
            }
            // RTT proportional to flight.
            now += flight * 100 * MS;
            t.push(TraceRecord {
                time_ns: now,
                event: ack(seq),
            });
            now += 1;
        }
        let corr = rtt_window_correlation(&t).unwrap();
        assert!(corr > 0.95, "expected strong correlation, got {corr}");
    }

    #[test]
    fn correlation_near_zero_for_constant_rtt() {
        let mut t = Trace::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for flight in [1u64, 5, 2, 9, 3, 7, 4, 8, 6, 10, 2, 9, 5, 1, 7] {
            for _ in 0..flight {
                t.push(TraceRecord {
                    time_ns: now,
                    event: send(seq),
                });
                seq += 1;
                now += 1;
            }
            now += 200 * MS; // constant RTT regardless of flight
            t.push(TraceRecord {
                time_ns: now,
                event: ack(seq),
            });
            now += 1;
        }
        let corr = rtt_window_correlation(&t).unwrap();
        assert!(
            corr.abs() < 0.2,
            "expected near-zero correlation, got {corr}"
        );
    }

    #[test]
    fn correlation_needs_two_samples() {
        assert!(rtt_window_correlation(&Trace::new()).is_none());
        let mut t = Trace::new();
        t.push(TraceRecord {
            time_ns: 0,
            event: send(0),
        });
        t.push(TraceRecord {
            time_ns: 100 * MS,
            event: ack(1),
        });
        assert!(rtt_window_correlation(&t).is_none());
    }
}
