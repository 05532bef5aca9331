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
use std::collections::VecDeque;

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

    /// Appends `seq`, which the caller knows is above every key.
    fn push_above(&mut self, seq: u64, value: V) {
        debug_assert!(self.entries.back().is_none_or(|&(last, _)| last < seq));
        self.entries.push_back((seq, value));
    }

    /// True when every key is below `bound`.
    fn all_below(&self, bound: u64) -> bool {
        self.entries.back().is_none_or(|&(last, _)| last < bound)
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

/// One in-flight sequence number, as the shared [`Flight`] record keeps
/// it.
#[derive(Debug, Clone, Copy)]
struct Sent {
    /// Time of the latest transmission.
    at_ns: u64,
    /// Packets in flight right after the first transmission (`snd_max`
    /// minus the cumulative ACK, clamped at 0); 0 and unread once the
    /// entry is not timeable.
    flight: u64,
    /// Sent exactly once so far, so an ACK covering it is a Karn-valid
    /// RTT sample (`at_ns` is then also the first transmission).
    timeable: bool,
}

/// One RTT sample: a forward ACK that covered a timeable segment sent
/// before it, timed against the highest such segment.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// The RTT, whole nanoseconds.
    rtt_ns: u64,
    /// Timeable segments the ACK covered: delayed-ACK receivers hold an
    /// odd final segment for the delack timer (~200 ms), inflating
    /// single-cover samples; when the trace shows delayed acking (a
    /// substantial share of multi-cover ACKs), single-cover samples are
    /// discarded at [`KarnState::finish`].
    covered: u64,
    /// The timed segment's flight at send, in packets.
    flight: u64,
}

/// A data-segment departure, as [`Flight::on_send`] classified it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Departure {
    /// A sequence number at or above `snd_max`: a first transmission.
    New,
    /// A retransmission, with the sequence number's previous send time
    /// when the record still held it.
    Resend(Option<u64>),
}

/// The in-flight record and RTT log that Karn estimation and the
/// RTT-vs-flight correlator share.
///
/// Both cores track the same segments: the correlator's are exactly
/// Karn's *timeable* ones (sent once, never retransmitted, not yet below
/// a forward ACK), both pop them on the same forward ACKs, and both time
/// the highest one covered — so they take the same samples, bit for bit.
/// One deque entry per sequence number holds the send time, the flight
/// at send and the timeable flag; one log entry per sample holds the RTT
/// in whole nanoseconds with the ACK's covered count (Karn's) and the
/// timed segment's flight (the correlator's). [`KarnCore`] and
/// [`CorrCore`] each wrap a record of their own; a
/// [`crate::StreamAnalyzer`] running both keeps one.
///
/// Between events the record is O(window): entries below the cumulative
/// ACK are pruned on every forward ACK, retransmitted ones too. The log
/// grows by one sample per forward ACK, the irreducible input of the
/// exact end-of-trace median and Pearson coefficient.
#[derive(Debug, Clone, Default)]
pub(crate) struct Flight {
    /// Every sequence number at or above the cumulative ACK that was
    /// sent, plus retransmitted ones below it until the next forward ACK:
    /// the last transmission time is what T0 anchoring needs, and a
    /// retransmission permanently disqualifies its sequence number from
    /// RTT sampling. Every key is below `snd_max`.
    in_flight: SeqDeque<Sent>,
    /// Number of `in_flight` entries still timeable.
    pending: usize,
    snd_max: u64,
    last_ack: u64,
    samples: Vec<Sample>,
}

impl Flight {
    /// Consumes one data-segment departure.
    #[inline]
    pub(crate) fn on_send(&mut self, time_ns: u64, seq: u64) -> Departure {
        if seq >= self.snd_max {
            // A first transmission, above every key.
            self.snd_max = seq + 1;
            // Saturating: a salvaged/corrupt capture can carry an ACK
            // beyond anything sent, leaving `last_ack > snd_max` — flight
            // clamps to 0 there instead of underflowing.
            let sent = Sent {
                at_ns: time_ns,
                flight: self.snd_max.saturating_sub(self.last_ack),
                timeable: true,
            };
            self.in_flight.push_above(seq, sent);
            self.pending += 1;
            return Departure::New;
        }
        // Anything below `snd_max` is a retransmission: Karn-disqualify it.
        let resent = Sent {
            at_ns: time_ns,
            flight: 0,
            timeable: false,
        };
        let prev = self.in_flight.insert(seq, resent);
        if prev.is_some_and(|p| p.timeable) {
            self.pending -= 1;
        }
        Departure::Resend(prev.map(|p| p.at_ns))
    }

    /// Consumes one ACK arrival; true for a forward ACK.
    #[inline]
    pub(crate) fn on_ack(&mut self, time_ns: u64, ack: u64) -> bool {
        if ack <= self.last_ack {
            return false;
        }
        self.last_ack = ack;
        // Sample the *highest* newly covered segment: with delayed ACKs
        // its send→ack gap is the cleanest RTT (lower segments include the
        // delayed-ACK hold).
        //
        // Every entry below the cumulative ACK goes, not only the timeable
        // ones: an acked sequence's last send happened at or before this
        // ACK's arrival, so a later (spurious) retransmit of it anchors on
        // the last progress either way — the T0 anchor is unchanged while
        // the deque stays O(window) instead of leaking one entry per
        // retransmitted sequence for the whole trace.
        let mut covered = 0usize;
        let mut highest = None;
        self.in_flight.pop_below(ack, |sent| {
            if sent.timeable {
                covered += 1;
                highest = Some(sent);
            }
        });
        self.pending -= covered;
        if let Some(sent) = highest.filter(|sent| time_ns > sent.at_ns) {
            self.samples.push(Sample {
                rtt_ns: time_ns - sent.at_ns,
                covered: covered as u64,
                flight: sent.flight,
            });
        }
        true
    }

    /// Entry counts `(timeable, entries, samples)`: the inputs to
    /// streaming memory accounting.
    pub(crate) fn state_len(&self) -> (usize, usize, usize) {
        (self.pending, self.in_flight.len(), self.samples.len())
    }

    /// The timeable entries, in ascending seq order.
    fn timeable(&self) -> impl Iterator<Item = (u64, Sent)> + '_ {
        self.in_flight
            .iter()
            .filter(|(_, s)| s.timeable)
            .map(|&(seq, s)| (seq, s))
    }

    /// The samples from index `from` on.
    fn samples_from(&self, from: usize) -> &[Sample] {
        self.samples.get(from..).unwrap_or_default()
    }

    /// Writes the correlator's snapshot section: the timeable entries
    /// with their flights, then the samples from index `from` on (one
    /// length prefix covers both runs): every flight, then every RTT,
    /// each one varint of its integer ([`SnapWriter::put_scaled_u64`]).
    pub(crate) fn corr_snapshot_into(&self, w: &mut SnapWriter, from: usize) {
        w.put_usize(self.pending);
        for (seq, sent) in self.timeable() {
            w.put_u64(seq);
            w.put_u64(sent.at_ns);
            w.put_u64(sent.flight);
        }
        w.put_u64(self.snd_max);
        w.put_u64(self.last_ack);
        let samples = self.samples_from(from);
        w.put_usize(samples.len());
        for s in samples {
            w.put_scaled_u64(s.flight, 1.0);
        }
        for s in samples {
            w.put_scaled_u64(s.rtt_ns, NS_PER_SEC);
        }
    }

    /// Reads a section written by [`Flight::corr_snapshot_into`] at the
    /// same `from`: the samples past `from` are replaced by the written
    /// ones. `compact` selects varints or version 1's raw 8-byte words,
    /// which must hold whole packets and nanoseconds.
    ///
    /// With `shared`, Karn's section has already restored the record, and
    /// this section must agree with it — the same timeable entries, ACK
    /// state and RTTs — supplying only the flights; a section that
    /// disagrees is [`SnapError::Invalid`]. Without, it restores the
    /// record itself.
    pub(crate) fn corr_restore_from(
        &mut self,
        r: &mut SnapReader<'_>,
        from: usize,
        compact: bool,
        shared: bool,
    ) -> SnapResult<()> {
        const DISAGREE: SnapError = SnapError::Invalid("correlator and Karn disagree");
        let n = r.get_usize()?;
        if !shared {
            self.in_flight.clear();
        }
        for _ in 0..n {
            let seq = r.get_u64()?;
            let at_ns = r.get_u64()?;
            let sent = Sent {
                at_ns,
                flight: r.get_u64()?,
                timeable: true,
            };
            let karn = self.in_flight.get(seq);
            if shared && !karn.is_some_and(|s| s.timeable && s.at_ns == at_ns) {
                return Err(DISAGREE);
            }
            self.in_flight.insert(seq, sent);
        }
        let (snd_max, last_ack) = (r.get_u64()?, r.get_u64()?);
        if shared {
            if n != self.pending || (snd_max, last_ack) != (self.snd_max, self.last_ack) {
                return Err(DISAGREE);
            }
        } else {
            if !self.in_flight.all_below(snd_max) {
                return Err(SnapError::Invalid("correlator: send at or above snd_max"));
            }
            self.pending = self.in_flight.len();
            self.snd_max = snd_max;
            self.last_ack = last_ack;
        }
        let n = r.get_usize()?;
        let read = |r: &mut SnapReader<'_>, scale: f64| {
            if compact {
                r.get_scaled_u64(scale)
            } else {
                r.get_f64_as_scaled_u64(scale)
            }
        };
        if shared {
            if self.samples.len() != from.saturating_add(n) {
                return Err(DISAGREE);
            }
        } else {
            self.samples.truncate(from);
            let blank = Sample {
                rtt_ns: 0,
                covered: 0,
                flight: 0,
            };
            for _ in 0..n {
                self.samples.push(blank);
            }
        }
        let samples = self.samples.get_mut(from..).unwrap_or_default();
        for s in samples.iter_mut() {
            s.flight = read(r, 1.0)?;
        }
        for s in samples.iter_mut() {
            let rtt_ns = read(r, NS_PER_SEC)?;
            if shared && s.rtt_ns != rtt_ns {
                return Err(DISAGREE);
            }
            s.rtt_ns = rtt_ns;
        }
        Ok(())
    }

    /// The Pearson coefficient of RTT against flight over the samples, or
    /// `None` with fewer than two samples or zero variance.
    pub(crate) fn correlation(&self) -> Option<f64> {
        // Pearson walks each series twice: convert the RTTs once.
        let ys: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.rtt_ns as f64 / NS_PER_SEC)
            .collect();
        let xs = self.samples.iter().map(|s| s.flight as f64);
        pearson(xs, ys.iter().copied())
    }
}

/// Karn estimation's state beyond the shared [`Flight`] record: the T0
/// accumulator.
#[derive(Debug, Clone, Default)]
pub(crate) struct KarnState {
    last_progress_ns: Option<u64>,
    in_to_sequence: bool,
    t0_sum: f64,
    t0_n: u64,
}

impl KarnState {
    /// Consumes one departure, as the record classified it.
    #[inline]
    pub(crate) fn on_send(&mut self, time_ns: u64, departure: Departure) {
        let Departure::Resend(prev_at) = departure else {
            return;
        };
        if !self.in_to_sequence {
            // First retransmission since last progress: if it is a timeout
            // (no way to tell TD vs TO here without the classifier; T0
            // sampling accepts the small TD contamination the same way
            // trace tools do — the gap for a fast retransmit is ≈RTT and
            // for a timeout ≈RTO).
            let anchor = prev_at.into_iter().chain(self.last_progress_ns).max();
            if let Some(anchor) = anchor {
                if time_ns > anchor {
                    self.t0_sum += (time_ns - anchor) as f64 / 1e9;
                    self.t0_n += 1;
                }
            }
            self.in_to_sequence = true;
        }
    }

    /// Consumes one ACK arrival, forward or not as the record saw it.
    #[inline]
    pub(crate) fn on_ack(&mut self, time_ns: u64, forward: bool) {
        if forward {
            self.last_progress_ns = Some(time_ns);
            self.in_to_sequence = false;
        }
    }

    /// Writes Karn's snapshot section: the timeable entries' send times
    /// (`pending`), the RTT samples, then every entry's last send time
    /// (`last_send_of`) and the T0 state. The deque iterates in ascending
    /// seq order, so the byte encoding is a pure function of the contents.
    /// The sample log is append-only, so only its entries from index
    /// `from` on are written; at `from = 0` this is the full state. The
    /// samples are two runs of varints: every RTT as its whole nanoseconds
    /// ([`SnapWriter::put_scaled_u64`]), then every covered count.
    pub(crate) fn snapshot_into(&self, flight: &Flight, w: &mut SnapWriter, from: usize) {
        w.put_usize(flight.pending);
        for (seq, sent) in flight.timeable() {
            w.put_u64(seq);
            w.put_u64(sent.at_ns);
        }
        w.put_u64(flight.snd_max);
        w.put_u64(flight.last_ack);
        let samples = flight.samples_from(from);
        w.put_usize(samples.len());
        for s in samples {
            w.put_scaled_u64(s.rtt_ns, NS_PER_SEC);
        }
        for s in samples {
            w.put_varint(s.covered);
        }
        w.put_usize(flight.in_flight.len());
        for (seq, sent) in flight.in_flight.iter() {
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

    /// Reads a section written by [`KarnState::snapshot_into`] into this
    /// state and the record. Every pending entry must reappear in
    /// `last_send_of` with the same time — a segment is timeable only
    /// while it has been sent exactly once — or the snapshot is rejected
    /// as invalid. The samples past `from` are replaced by the written
    /// ones. `compact` selects the sample encoding: the two varint runs,
    /// or the two raw 8-byte words per sample of version-1 snapshots,
    /// whose RTTs must be whole nanoseconds.
    pub(crate) fn restore_from(
        &mut self,
        flight: &mut Flight,
        r: &mut SnapReader<'_>,
        from: usize,
        compact: bool,
    ) -> SnapResult<()> {
        let n = r.get_usize()?;
        flight.in_flight.clear();
        for _ in 0..n {
            let seq = r.get_u64()?;
            let at_ns = r.get_u64()?;
            let sent = Sent {
                at_ns,
                flight: 0,
                timeable: true,
            };
            flight.in_flight.insert(seq, sent);
        }
        let pending = flight.in_flight.len();
        flight.snd_max = r.get_u64()?;
        flight.last_ack = r.get_u64()?;
        let n = r.get_usize()?;
        flight.samples.truncate(from);
        for _ in 0..n {
            let (rtt_ns, covered) = if compact {
                (r.get_scaled_u64(NS_PER_SEC)?, 0)
            } else {
                (r.get_f64_as_scaled_u64(NS_PER_SEC)?, r.get_u64()?)
            };
            flight.samples.push(Sample {
                rtt_ns,
                covered,
                flight: 0,
            });
        }
        if compact {
            for s in flight.samples.get_mut(from..).unwrap_or_default() {
                s.covered = r.get_varint()?;
            }
        }
        let n = r.get_usize()?;
        let mut matched = 0usize;
        for _ in 0..n {
            let seq = r.get_u64()?;
            let at_ns = r.get_u64()?;
            match flight.in_flight.get(seq) {
                None => {
                    let resent = Sent {
                        at_ns,
                        flight: 0,
                        timeable: false,
                    };
                    flight.in_flight.insert(seq, resent);
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
        if !flight.in_flight.all_below(flight.snd_max) {
            return Err(SnapError::Invalid("karn: send at or above snd_max"));
        }
        flight.pending = pending;
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

    /// Computes the estimates from the record's samples.
    pub(crate) fn finish(self, flight: &Flight) -> TimingEstimates {
        let samples = &flight.samples;
        let multi = samples.iter().filter(|s| s.covered >= 2).count();
        let delayed_acking = multi * 3 >= samples.len(); // ≥1/3 multi-cover ACKs
        let mut kept: Vec<f64> = samples
            .iter()
            .filter(|s| !delayed_acking || s.covered >= 2)
            .map(|s| s.rtt_ns as f64 / NS_PER_SEC)
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

/// The incremental Karn RTT / T0 estimator: the streaming core behind
/// [`estimate_timing`].
///
/// An in-flight record of its own (the one a [`crate::StreamAnalyzer`]
/// shares with the correlator) plus O(1) T0 state: an O(window)
/// in-flight deque and one RTT sample per forward ACK, so
/// an hour-long connection can be timed without ever materializing its
/// trace.
#[derive(Debug, Clone, Default)]
pub struct KarnCore {
    flight: Flight,
    state: KarnState,
}

impl KarnCore {
    /// A fresh estimator.
    pub fn new() -> Self {
        KarnCore::default()
    }

    /// Consumes one data-segment departure.
    pub fn on_send(&mut self, time_ns: u64, seq: u64) {
        let departure = self.flight.on_send(time_ns, seq);
        self.state.on_send(time_ns, departure);
    }

    /// Consumes one ACK arrival.
    pub fn on_ack(&mut self, time_ns: u64, ack: u64) {
        let forward = self.flight.on_ack(time_ns, ack);
        self.state.on_ack(time_ns, forward);
    }

    /// Entry counts of the retained state `(pending, last_send_of,
    /// rtt_samples)` — the inputs to streaming memory accounting. Pending
    /// entries are the timeable in-flight ones; `last_send_of` counts every
    /// in-flight entry.
    pub fn state_len(&self) -> (usize, usize, usize) {
        self.flight.state_len()
    }

    /// Closes the estimator and computes the estimates.
    pub fn finish(self) -> TimingEstimates {
        self.state.finish(&self.flight)
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

/// The incremental RTT-vs-flight correlator: the streaming core behind
/// [`rtt_window_correlation`].
///
/// An in-flight record of its own (the one a [`crate::StreamAnalyzer`]
/// shares with Karn): an O(window) in-flight deque and one
/// (flight, RTT) point per forward ACK — the irreducible input of the
/// exact end-of-trace Pearson coefficient.
#[derive(Debug, Clone, Default)]
pub struct CorrCore {
    flight: Flight,
}

impl CorrCore {
    /// A fresh correlator.
    pub fn new() -> Self {
        CorrCore::default()
    }

    /// Consumes one data-segment departure.
    pub fn on_send(&mut self, time_ns: u64, seq: u64) {
        self.flight.on_send(time_ns, seq);
    }

    /// Consumes one ACK arrival.
    pub fn on_ack(&mut self, time_ns: u64, ack: u64) {
        self.flight.on_ack(time_ns, ack);
    }

    /// Entry counts of the retained state `(pending, samples)` — the
    /// inputs to streaming memory accounting.
    pub fn state_len(&self) -> (usize, usize) {
        let (pending, _, samples) = self.flight.state_len();
        (pending, samples)
    }

    /// Closes the correlator: Pearson coefficient, or `None` with fewer
    /// than two samples or zero variance.
    pub fn finish(self) -> Option<f64> {
        self.flight.correlation()
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

/// The Pearson coefficient of two equally long series, each walked twice:
/// once for its mean, once for the sums of products.
fn pearson<X, Y>(xs: X, ys: Y) -> Option<f64>
where
    X: ExactSizeIterator<Item = f64> + Clone,
    Y: Iterator<Item = f64> + Clone,
{
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mx = xs.clone().sum::<f64>() / nf;
    let my = ys.clone().sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.zip(ys) {
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
    use std::collections::BTreeMap;

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

    /// The correlator as it stood before it shared Karn's record: its own
    /// seq map, filled by new sends, emptied of a seq on any resend and of
    /// a prefix on a forward ACK, timing the highest entry popped.
    #[derive(Default)]
    struct MapCorr {
        pending: BTreeMap<u64, (u64, u64)>,
        snd_max: u64,
        last_ack: u64,
        xs: Vec<f64>,
        ys: Vec<f64>,
    }

    impl MapCorr {
        fn on_send(&mut self, time_ns: u64, seq: u64) {
            if seq >= self.snd_max {
                self.snd_max = seq + 1;
                let flight = self.snd_max.saturating_sub(self.last_ack);
                self.pending.insert(seq, (time_ns, flight));
            } else {
                self.pending.remove(&seq);
            }
        }

        fn on_ack(&mut self, time_ns: u64, ack: u64) {
            if ack > self.last_ack {
                self.last_ack = ack;
                let mut last = None;
                while let Some(entry) = self.pending.first_entry() {
                    if *entry.key() >= ack {
                        break;
                    }
                    last = Some(entry.remove());
                }
                if let Some((sent, flight)) = last {
                    if time_ns > sent {
                        self.xs.push(flight as f64);
                        self.ys.push((time_ns - sent) as f64 / 1e9);
                    }
                }
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
        /// retransmits inside and below the window, lookups, and
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
                    4 | 5 => {
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
                    .flight
                    .timeable()
                    .map(|(seq, s)| (seq, s.at_ns))
                    .collect();
                let last_send: Vec<(u64, u64)> =
                    core.flight.in_flight.iter().map(|&(seq, s)| (seq, s.at_ns)).collect();
                prop_assert_eq!(pending, entries(&reference.pending));
                prop_assert_eq!(last_send, entries(&reference.last_send_of));
                let (p, l, n) = core.state_len();
                prop_assert_eq!(p, reference.pending.len());
                prop_assert_eq!(l, reference.last_send_of.len());
                prop_assert_eq!(n, reference.samples.len());
                let samples: Vec<(f64, usize)> = core
                    .flight
                    .samples
                    .iter()
                    .map(|s| (s.rtt_ns as f64 / 1e9, s.covered as usize))
                    .collect();
                prop_assert_eq!(&samples, &reference.samples);
                prop_assert_eq!(core.state.t0_sum.to_bits(), reference.t0_sum.to_bits());
                prop_assert_eq!(core.state.t0_n, reference.t0_n);
            }
        }
    }

    /// Restores a Karn section into a fresh record.
    fn restore_karn(bytes: &[u8]) -> SnapResult<KarnCore> {
        let mut core = KarnCore::new();
        core.state
            .restore_from(&mut core.flight, &mut SnapReader::new(bytes), 0, true)?;
        Ok(core)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The shared record stands in for the correlator's own map: its
        /// timeable entries are the map's entries, with the same send
        /// times and flights, after every event of odd traces, and the
        /// samples agree bit for bit.
        #[test]
        fn shared_record_matches_correlator_map_reference(
            ops in prop::collection::vec((0u8..9, 0u64..1_000), 1..300),
        ) {
            let mut core = CorrCore::new();
            let mut reference = MapCorr::default();
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
                let timeable: Vec<(u64, (u64, u64))> = core
                    .flight
                    .timeable()
                    .map(|(seq, s)| (seq, (s.at_ns, s.flight)))
                    .collect();
                let want: Vec<(u64, (u64, u64))> =
                    reference.pending.iter().map(|(&k, &v)| (k, v)).collect();
                prop_assert_eq!(timeable, want);
                prop_assert_eq!(core.state_len(), (reference.pending.len(), reference.xs.len()));
                let xs: Vec<u64> =
                    core.flight.samples.iter().map(|s| (s.flight as f64).to_bits()).collect();
                let ys: Vec<u64> =
                    core.flight.samples.iter().map(|s| (s.rtt_ns as f64 / 1e9).to_bits()).collect();
                prop_assert_eq!(xs, reference.xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
                prop_assert_eq!(ys, reference.ys.iter().map(|y| y.to_bits()).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn restore_rejects_pending_without_matching_last_send() {
        let mut core = KarnCore::new();
        core.on_send(0, 0);
        core.on_send(MS, 1);
        let mut w = SnapWriter::new();
        core.state.snapshot_into(&core.flight, &mut w, 0);
        let good = w.into_bytes();
        let back = restore_karn(&good).expect("own snapshot restores");
        assert_eq!(back.state_len(), core.state_len());

        // Same snapshot with seq 1's last send moved: a "pending" segment
        // whose last transmission differs from its only one.
        // The tail after the last_send_of block: progress flag (1 byte,
        // no progress yet), in_to_sequence (1), t0_sum (8), t0_n (8).
        let mut skewed = good.clone();
        let last_send_time = good.len() - (1 + 1 + 8 + 8) - 8;
        skewed[last_send_time] ^= 1;
        assert!(matches!(
            restore_karn(&skewed),
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
