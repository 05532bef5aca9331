//! Sender-side trace records — the simulator's stand-in for `tcpdump`
//! output captured at the sending host (§III: "we gathered the measurement
//! data by running tcpdump at the sender").
//!
//! A record is a timestamped wire event visible at the sender: a data
//! segment leaving, or an ACK arriving. Two serializations are provided:
//! JSON lines (human-inspectable, one record per line) and a compact binary
//! framing (17 bytes/record) for large traces.

use crate::health::{HealthIssue, TraceHealth};
use bytes::{Buf, BufMut};
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Write};

/// A wire event at the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "ev", rename_all = "snake_case")]
pub enum TraceEvent {
    /// A data segment left the sender. The sequence number is in packets;
    /// whether this was a retransmission is *not* trusted by the analyzer
    /// (it re-infers retransmissions from sequence repetition, as a real
    /// trace analyzer must), but is kept for validation.
    Send {
        /// Segment sequence number (packets).
        seq: u64,
        /// True if the simulator marked this a retransmission (ground truth).
        retx: bool,
    },
    /// A cumulative ACK arrived at the sender.
    AckIn {
        /// Next expected sequence number (acknowledges everything below).
        ack: u64,
    },
}

/// A timestamped trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Nanoseconds since connection start.
    pub time_ns: u64,
    /// The event.
    #[serde(flatten)]
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Seconds since connection start.
    pub fn time_secs(&self) -> f64 {
        self.time_ns as f64 / 1e9
    }
}

/// An in-memory sender-side trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

/// Binary framing tags.
const TAG_SEND: u8 = 1;
const TAG_SEND_RETX: u8 = 2;
const TAG_ACK: u8 = 3;

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// An empty trace with room for `records` records.
    pub fn with_capacity(records: usize) -> Self {
        Trace {
            records: Vec::with_capacity(records),
        }
    }

    /// Appends a record. Records must be pushed in nondecreasing time order
    /// (they come from a monotone simulation clock); this is checked.
    pub fn push(&mut self, record: TraceRecord) {
        if let Some(last) = self.records.last() {
            assert!(
                record.time_ns >= last.time_ns,
                "trace records must be time-ordered: {} after {}",
                record.time_ns,
                last.time_ns
            );
        }
        self.records.push(record);
    }

    /// Appends a record whose time order the caller guarantees (a
    /// [`crate::TraceSink`] is fed in order); checked in debug builds.
    #[inline]
    pub(crate) fn push_in_order(&mut self, record: TraceRecord) {
        debug_assert!(
            self.records
                .last()
                .is_none_or(|last| record.time_ns >= last.time_ns),
            "trace records must be time-ordered"
        );
        self.records.push(record);
    }

    /// Fallible append: returns the record back instead of panicking when
    /// it would violate time order. For ingesting untrusted streams where
    /// out-of-order data is an input problem, not a programming bug.
    pub fn try_push(&mut self, record: TraceRecord) -> Result<(), TraceRecord> {
        match self.records.last() {
            Some(last) if record.time_ns < last.time_ns => Err(record),
            _ => {
                self.records.push(record);
                Ok(())
            }
        }
    }

    /// The records, in time order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Approximate heap footprint of the retained records, bytes — the
    /// "peak retained trace" term of the streaming-vs-batch memory
    /// comparison in `bench_report`.
    pub fn approx_bytes(&self) -> usize {
        self.records.len() * std::mem::size_of::<TraceRecord>()
    }

    /// Total duration covered (first to last record), seconds.
    pub fn duration_secs(&self) -> f64 {
        match (self.records.first(), self.records.last()) {
            (Some(a), Some(b)) => (b.time_ns - a.time_ns) as f64 / 1e9,
            _ => 0.0,
        }
    }

    /// Writes the trace as JSON lines.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        for rec in &self.records {
            serde_json::to_writer(&mut w, rec)?;
            w.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Reads a JSON-lines trace.
    pub fn read_jsonl<R: BufRead>(r: R) -> io::Result<Self> {
        let mut trace = Trace::new();
        for line in r.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let rec: TraceRecord = serde_json::from_str(&line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            trace.try_push(rec).map_err(|rec| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("out-of-order record at {} ns", rec.time_ns),
                )
            })?;
        }
        Ok(trace)
    }

    /// Encodes the trace into a compact binary buffer
    /// (tag byte + u64 time + u64 seq/ack, little-endian).
    pub fn encode_binary<B: BufMut>(&self, buf: &mut B) {
        for rec in &self.records {
            match rec.event {
                TraceEvent::Send { seq, retx } => {
                    buf.put_u8(if retx { TAG_SEND_RETX } else { TAG_SEND });
                    buf.put_u64_le(rec.time_ns);
                    buf.put_u64_le(seq);
                }
                TraceEvent::AckIn { ack } => {
                    buf.put_u8(TAG_ACK);
                    buf.put_u64_le(rec.time_ns);
                    buf.put_u64_le(ack);
                }
            }
        }
    }

    /// Decodes a binary buffer produced by [`Trace::encode_binary`].
    pub fn decode_binary<B: Buf>(buf: &mut B) -> io::Result<Self> {
        let mut trace = Trace::new();
        while buf.has_remaining() {
            if buf.remaining() < 17 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "truncated trace record",
                ));
            }
            let tag = buf.get_u8();
            let time_ns = buf.get_u64_le();
            let value = buf.get_u64_le();
            let event = match tag {
                TAG_SEND => TraceEvent::Send {
                    seq: value,
                    retx: false,
                },
                TAG_SEND_RETX => TraceEvent::Send {
                    seq: value,
                    retx: true,
                },
                TAG_ACK => TraceEvent::AckIn { ack: value },
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unknown trace tag {other}"),
                    ))
                }
            };
            trace
                .try_push(TraceRecord { time_ns, event })
                .map_err(|r| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("out-of-order record at {} ns", r.time_ns),
                    )
                })?;
        }
        Ok(trace)
    }

    /// Lenient counterpart of [`Trace::decode_binary`]: salvages every
    /// complete, well-formed record. A truncated final record or an
    /// unknown tag is discarded with a [`TraceHealth`] warning (decoding
    /// resynchronizes on the next 17-byte frame), and out-of-order
    /// timestamps are clamped monotone — matching the salvage policy of
    /// [`crate::import::import_text`].
    pub fn decode_binary_lenient<B: Buf>(buf: &mut B) -> (Self, TraceHealth) {
        let mut trace = Trace::new();
        let mut health = TraceHealth::new();
        let mut index = 0usize;
        let mut last_ns = 0u64;
        while buf.has_remaining() {
            if buf.remaining() < 17 {
                health.discarded += 1;
                health.warn(
                    index,
                    HealthIssue::TruncatedTail {
                        fragment: format!("{} trailing bytes", buf.remaining()),
                    },
                );
                break;
            }
            let tag = buf.get_u8();
            let mut time_ns = buf.get_u64_le();
            let value = buf.get_u64_le();
            let event = match tag {
                TAG_SEND => TraceEvent::Send {
                    seq: value,
                    retx: false,
                },
                TAG_SEND_RETX => TraceEvent::Send {
                    seq: value,
                    retx: true,
                },
                TAG_ACK => TraceEvent::AckIn { ack: value },
                other => {
                    health.discarded += 1;
                    health.warn(
                        index,
                        HealthIssue::Malformed {
                            reason: format!("unknown trace tag {other}"),
                        },
                    );
                    index += 1;
                    continue;
                }
            };
            if time_ns < last_ns {
                health.repaired += 1;
                health.warn(
                    index,
                    HealthIssue::TimestampClamped {
                        original_ns: time_ns,
                        clamped_to_ns: last_ns,
                    },
                );
                time_ns = last_ns;
            }
            last_ns = time_ns;
            health.salvaged += 1;
            trace.push(TraceRecord { time_ns, event });
            index += 1;
        }
        (trace, health)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.push(TraceRecord {
            time_ns: 0,
            event: TraceEvent::Send {
                seq: 0,
                retx: false,
            },
        });
        t.push(TraceRecord {
            time_ns: 100_000_000,
            event: TraceEvent::AckIn { ack: 1 },
        });
        t.push(TraceRecord {
            time_ns: 100_000_001,
            event: TraceEvent::Send {
                seq: 1,
                retx: false,
            },
        });
        t.push(TraceRecord {
            time_ns: 3_100_000_000,
            event: TraceEvent::Send { seq: 1, retx: true },
        });
        t
    }

    #[test]
    fn push_preserves_order_and_len() {
        let t = sample_trace();
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
        assert!((t.duration_secs() - 3.1).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_push_panics() {
        let mut t = Trace::new();
        t.push(TraceRecord {
            time_ns: 10,
            event: TraceEvent::AckIn { ack: 1 },
        });
        t.push(TraceRecord {
            time_ns: 5,
            event: TraceEvent::AckIn { ack: 2 },
        });
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_sink_push_asserts_in_debug() {
        use crate::TraceSink;
        let mut t = Trace::new();
        t.on_ack_in(10, 1);
        t.on_ack_in(5, 2);
    }

    #[test]
    fn jsonl_roundtrip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("\"ev\":\"send\""));
        let back = Trace::read_jsonl(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn jsonl_skips_blank_lines() {
        let input = "\n{\"time_ns\":5,\"ev\":\"ack_in\",\"ack\":3}\n\n";
        let t = Trace::read_jsonl(std::io::Cursor::new(input)).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.records()[0].event, TraceEvent::AckIn { ack: 3 });
    }

    #[test]
    fn jsonl_rejects_garbage() {
        let input = "not json\n";
        assert!(Trace::read_jsonl(std::io::Cursor::new(input)).is_err());
    }

    #[test]
    fn binary_roundtrip() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.encode_binary(&mut buf);
        assert_eq!(buf.len(), 17 * 4);
        let back = Trace::decode_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_rejects_truncation_and_bad_tags() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.encode_binary(&mut buf);
        buf.truncate(20);
        assert!(Trace::decode_binary(&mut buf.as_slice()).is_err());
        let bad = vec![99u8; 17];
        assert!(Trace::decode_binary(&mut bad.as_slice()).is_err());
    }

    #[test]
    fn try_push_rejects_out_of_order_without_panicking() {
        let mut t = Trace::new();
        assert!(t
            .try_push(TraceRecord {
                time_ns: 10,
                event: TraceEvent::AckIn { ack: 1 },
            })
            .is_ok());
        let rejected = t
            .try_push(TraceRecord {
                time_ns: 5,
                event: TraceEvent::AckIn { ack: 2 },
            })
            .unwrap_err();
        assert_eq!(rejected.time_ns, 5);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn jsonl_rejects_out_of_order_records() {
        let input = "{\"time_ns\":10,\"ev\":\"ack_in\",\"ack\":1}\n\
                     {\"time_ns\":5,\"ev\":\"ack_in\",\"ack\":2}\n";
        let err = Trace::read_jsonl(std::io::Cursor::new(input)).unwrap_err();
        assert!(err.to_string().contains("out-of-order"));
    }

    #[test]
    fn lenient_binary_decode_salvages_truncated_prefix() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.encode_binary(&mut buf);
        buf.truncate(17 * 2 + 9); // two whole records + a partial third
        let (back, health) = Trace::decode_binary_lenient(&mut buf.as_slice());
        assert_eq!(back.len(), 2);
        assert_eq!(back.records(), &t.records()[..2]);
        assert_eq!(health.salvaged, 2);
        assert_eq!(health.discarded, 1);
        assert!(matches!(
            &health.warnings()[0].issue,
            HealthIssue::TruncatedTail { fragment } if fragment == "9 trailing bytes"
        ));
    }

    #[test]
    fn lenient_binary_decode_skips_bad_tags_and_clamps_time() {
        let mut buf = Vec::new();
        // Good record at t=100.
        buf.push(1u8);
        buf.extend_from_slice(&100u64.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        // Unknown tag.
        buf.push(77u8);
        buf.extend_from_slice(&110u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        // Good record with a *backwards* timestamp (clock step).
        buf.push(3u8);
        buf.extend_from_slice(&40u64.to_le_bytes());
        buf.extend_from_slice(&1u64.to_le_bytes());
        let (back, health) = Trace::decode_binary_lenient(&mut buf.as_slice());
        assert_eq!(back.len(), 2);
        assert_eq!(back.records()[1].time_ns, 100, "clamped monotone");
        assert_eq!(health.salvaged, 2);
        assert_eq!(health.discarded, 1);
        assert_eq!(health.repaired, 1);
    }

    #[test]
    fn time_secs_conversion() {
        let rec = TraceRecord {
            time_ns: 2_500_000_000,
            event: TraceEvent::AckIn { ack: 0 },
        };
        assert!((rec.time_secs() - 2.5).abs() < 1e-12);
    }
}
