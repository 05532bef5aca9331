//! Analyzer snapshot byte-compatibility pin.
//!
//! A campaign journal stores `StreamAnalyzer::snapshot()` bytes, and a
//! resumed campaign restores them with whatever build is running now. The
//! format version (`STREAM_SNAPSHOT_VERSION`) promises that a journal
//! written by an older build of the same version still resumes — which
//! holds only if the encoding of a given analyzer state never changes.
//! This test pins the length and CRC32 of the snapshot taken at several
//! cuts of four traces, so any change to how the analyzer cores store or
//! encode their state fails here rather than in somebody's resumed
//! campaign. The pins are version-2 bytes (varint sample logs);
//! `tests/journal_v1_fixture.rs` keeps version-1 deltas resuming, and
//! `tests/data/stream_snapshot_v1.snap` holds version-1 full snapshots of
//! the four traces below that must still restore.
//!
//! The traces cover the in-flight bookkeeping's unusual paths, not only
//! the in-order ones: a fast retransmit and a backoff chain, a real
//! simulator run under a seeded fault plan, a capture salvaged by the
//! lenient binary decoder, and a hand-built imported trace with a
//! spurious retransmit below the cumulative ACK, a retransmit of a seq
//! that was never sent, and an ACK beyond anything sent.
//!
//! Campaign checkpoints write `snapshot_since` deltas instead of full
//! snapshots. The same four traces check that a chain of deltas restores
//! exactly what the uninterrupted analyzer holds, and that a delta applied
//! anywhere but at the end of its chain is rejected.

use padhye_tcp_repro::sim::connection::Connection;
use padhye_tcp_repro::sim::fault::FaultPlan;
use padhye_tcp_repro::sim::link::Path;
use padhye_tcp_repro::sim::loss::Bernoulli;
use padhye_tcp_repro::sim::reno::sender::SenderConfig;
use padhye_tcp_repro::sim::time::{SimDuration, SimTime};
use padhye_tcp_repro::testbed::TraceRecorder;
use padhye_tcp_repro::trace::record::{Trace, TraceEvent, TraceRecord};
use padhye_tcp_repro::trace::stream::{
    LogMark, StreamAnalysis, StreamAnalyzer, StreamConfig, TraceSink, STREAM_SNAPSHOT_KIND,
    STREAM_SNAPSHOT_VERSION,
};

const S: u64 = 1_000_000_000;
const MS: u64 = 1_000_000;

fn send(seq: u64) -> TraceEvent {
    TraceEvent::Send { seq, retx: false }
}

fn ack(ack: u64) -> TraceEvent {
    TraceEvent::AckIn { ack }
}

fn trace_of(events: impl IntoIterator<Item = (u64, TraceEvent)>) -> Trace {
    let mut t = Trace::new();
    for (time_ns, event) in events {
        t.push(TraceRecord { time_ns, event });
    }
    t
}

/// The 250-second connection of the stream module's unit tests: a clean
/// interval, a fast retransmit, and a double-timeout backoff chain.
fn eventful_trace() -> Trace {
    let mut events = Vec::new();
    for i in 0..10u64 {
        events.push((i * S, send(i)));
        events.push((i * S + 80 * MS, ack(i + 1)));
    }
    for i in 10..15u64 {
        events.push((110 * S + i, send(i)));
    }
    for _ in 0..4 {
        events.push((111 * S, ack(10)));
    }
    events.push((112 * S, send(10)));
    events.push((113 * S, ack(15)));
    events.push((210 * S, send(15)));
    events.push((213 * S, send(15)));
    events.push((219 * S, send(15)));
    events.push((220 * S, ack(16)));
    events.push((230 * S, send(16)));
    trace_of(events)
}

/// A 20-second simulator run under seeded fault plan 7 (reordering, ACK
/// loss, link flaps, corruption), trace retained.
fn fault_plan_trace() -> Trace {
    let half = SimDuration::from_millis(50);
    let mut conn = Connection::builder()
        .fwd_path(Path::constant(half))
        .rev_path(Path::constant(half))
        .loss(Box::new(Bernoulli::new(0.02)))
        .fault(FaultPlan::from_seed(7))
        .sender_config(SenderConfig::default())
        .seed(0x5EED)
        .build_with_observer(TraceRecorder::new());
    conn.run_until_budget(SimTime::from_secs_f64(20.0), 2_000_000);
    conn.finish();
    conn.into_observer().into_trace()
}

/// A windowed transfer with periodic head retransmissions, encoded as a
/// binary capture, damaged in place, and salvaged by the lenient decoder:
/// records with a smashed tag are dropped (so later sends retransmit seqs
/// the trace never sent and ACKs go missing), a bit flip lifts one seq and
/// one ACK far above the window, a zeroed timestamp is clamped, and the
/// truncated tail record is discarded.
fn salvaged_trace() -> Trace {
    let mut events = Vec::new();
    let mut now = 0u64;
    let mut next = 0u64;
    let mut acked = 0u64;
    for round in 0..60u64 {
        for _ in 0..8 {
            now += MS;
            events.push((now, send(next)));
            next += 1;
        }
        if round % 5 == 4 {
            now += 300 * MS;
            events.push((now, send(acked)));
        }
        now += 100 * MS;
        acked += 6;
        events.push((now, ack(acked)));
    }
    // Binary frames are 17 bytes: tag, u64 LE time, u64 LE seq/ack.
    const FRAME: usize = 17;
    let mut buf = Vec::new();
    trace_of(events).encode_binary(&mut buf);
    for frame in [20, 55, 140, 301] {
        buf[frame * FRAME] = 0xEE;
    }
    for frame in [90, 91] {
        buf[frame * FRAME + 10] ^= 0x01;
    }
    buf[120 * FRAME + 1..120 * FRAME + 9].fill(0);
    buf.truncate(buf.len() - 5);
    let (salvaged, health) = Trace::decode_binary_lenient(&mut buf.as_slice());
    assert!(health.discarded > 0 && health.repaired > 0, "{health:?}");
    salvaged
}

/// A hand-built imported trace hitting the ordered-insert paths: a
/// spurious retransmit of an already-acked seq, a retransmit of a seq
/// inside the window that was never sent, and an ACK beyond `snd_max`.
fn imported_trace() -> Trace {
    trace_of([
        (0, send(0)),
        (MS, send(1)),
        (2 * MS, send(2)),
        (3 * MS, send(5)), // seqs 3 and 4 never sent
        (100 * MS, ack(2)),
        (150 * MS, send(0)), // spurious: below the cumulative ACK
        (160 * MS, send(4)), // "retransmit" of a never-sent seq
        (170 * MS, send(3)), // another, inserted below it
        (200 * MS, ack(2)),
        (S, send(2)),
        (S + 100 * MS, ack(4)),
        (S + 200 * MS, send(6)),
        (S + 300 * MS, ack(40)), // beyond anything sent
        (S + 400 * MS, send(7)),
        (S + 500 * MS, send(1)),
        (S + 600 * MS, ack(41)),
    ])
}

/// Snapshot fingerprints of `trace` fed record by record:
/// `(cut, length, CRC32)` at five cuts, plus a CRC32 digest over the
/// `(length, CRC32)` of the snapshot after *every* record.
fn snapshot_pins(trace: &Trace) -> (Vec<(usize, usize, u32)>, u32) {
    let records = trace.records();
    let n = records.len();
    let cuts = [0, n / 4, n / 2, 3 * n / 4, n];
    let mut analyzer = StreamAnalyzer::new(StreamConfig::default());
    let mut pins = Vec::new();
    let mut every = Vec::new();
    for cut in 0..=n {
        if cut > 0 {
            analyzer.on_record(&records[cut - 1]);
        }
        let snap = analyzer.snapshot();
        let crc = pftk_snap::crc32(&snap);
        every.extend_from_slice(&(snap.len() as u64).to_le_bytes());
        every.extend_from_slice(&crc.to_le_bytes());
        if cuts.contains(&cut) {
            pins.push((cut, snap.len(), crc));
        }
    }
    (pins, pftk_snap::crc32(&every))
}

fn assert_pins(name: &str, trace: &Trace, cuts: &[(usize, usize, u32)], digest: u32) {
    let got = snapshot_pins(trace);
    assert_eq!(
        got,
        (cuts.to_vec(), digest),
        "{name}: analyzer snapshot bytes changed — journals written by \
         earlier builds of STREAM_SNAPSHOT_VERSION would no longer resume \
         bit-identically; got {got:?}"
    );
}

#[test]
fn eventful_trace_snapshot_bytes_are_pinned() {
    assert_pins(
        "eventful",
        &eventful_trace(),
        &[
            (0, 223, 1371084112),
            (9, 335, 960684356),
            (18, 329, 3656514607),
            (27, 627, 1474240889),
            (36, 445, 1028756347),
        ],
        2687450617,
    );
}

#[test]
fn fault_plan_trace_snapshot_bytes_are_pinned() {
    assert_pins(
        "fault-plan",
        &fault_plan_trace(),
        &[
            (0, 223, 1371084112),
            (196, 1051, 861390547),
            (392, 1908, 2604390027),
            (588, 1991, 3795793275),
            (784, 2850, 1672887555),
        ],
        1520009060,
    );
}

#[test]
fn salvaged_trace_snapshot_bytes_are_pinned() {
    assert_pins(
        "salvaged",
        &salvaged_trace(),
        &[
            (0, 223, 1371084112),
            (136, 1017, 3873710510),
            (273, 2921, 2607119603),
            (410, 6785, 3597408820),
            (547, 7503, 2441709915),
        ],
        1573018215,
    );
}

#[test]
fn imported_trace_snapshot_bytes_are_pinned() {
    assert_pins(
        "imported",
        &imported_trace(),
        &[
            (0, 223, 1371084112),
            (4, 455, 134963444),
            (8, 421, 3201212085),
            (12, 390, 115717842),
            (16, 297, 2355653933),
        ],
        3774372563,
    );
}

/// Cuts `trace` at four points, writes the chain of `snapshot_since`
/// deltas an incremental checkpointer would, and checks it against the
/// uninterrupted analyzer:
///
/// * a fresh analyzer fed the chain so far holds the same state at every
///   cut (equal `snapshot()` bytes) and, fed the rest of the trace,
///   finishes equal;
/// * a delta applied out of order, or to an analyzer whose log lengths
///   differ from its mark, is an `Err`;
/// * an all-zero-mark delta is a full restore, even into an analyzer that
///   already holds another stream's state.
fn assert_delta_chain(name: &str, trace: &Trace) {
    let records = trace.records();
    let n = records.len();
    let cuts = [n / 4, n / 2, 3 * n / 4, n];
    let config = StreamConfig::default();
    let whole = StreamAnalysis::from_trace(trace, config, Some(300.0));

    let mut live = StreamAnalyzer::new(config);
    let mut mark = LogMark::default();
    let mut chain: Vec<(Vec<u8>, LogMark)> = Vec::new();
    let mut restored = StreamAnalyzer::new(config);
    let mut fed = 0;
    for cut in cuts {
        for rec in &records[fed..cut] {
            live.on_record(rec);
        }
        fed = cut;
        let delta = live.snapshot_since(mark);
        chain.push((delta.clone(), mark));
        mark = live.log_mark();
        restored
            .restore(&delta)
            .unwrap_or_else(|e| panic!("{name}: delta at cut {cut} did not apply: {e}"));
        assert_eq!(restored.log_mark(), mark, "{name}: cut {cut}");
        assert_eq!(
            restored.snapshot(),
            live.snapshot(),
            "{name}: chain restored to cut {cut} differs from the live analyzer"
        );

        // The chain so far, continued with the rest of the trace.
        let mut resumed = StreamAnalyzer::new(config);
        for (bytes, _) in &chain {
            resumed.restore(bytes).expect("chain applies in order");
        }
        for rec in &records[cut..] {
            resumed.on_record(rec);
        }
        assert_eq!(
            resumed.finish(Some(300.0)),
            whole,
            "{name}: resumed at cut {cut}, finish diverged"
        );

        // A zero-mark delta is a full restore into an analyzer in use.
        let mut used = StreamAnalyzer::new(config);
        for rec in eventful_trace().records().iter().chain(records) {
            used.on_record(rec);
        }
        used.restore(&live.snapshot_since(LogMark::default()))
            .unwrap_or_else(|e| panic!("{name}: zero-mark delta at cut {cut}: {e}"));
        assert_eq!(used.snapshot(), live.snapshot(), "{name}: cut {cut}");
    }
    assert_eq!(
        restored.finish(Some(300.0)),
        live.finish(Some(300.0)),
        "{name}: finish after the whole chain"
    );

    // Out of order: after the first `applied` deltas, every delta whose
    // mark is not this state's log lengths must be rejected.
    let mut rejected = 0;
    for applied in 0..=chain.len() {
        for (k, (bytes, delta_mark)) in chain.iter().enumerate() {
            let mut target = StreamAnalyzer::new(config);
            for (prefix, _) in &chain[..applied] {
                target.restore(prefix).expect("chain applies in order");
            }
            if k == applied || *delta_mark == LogMark::default() {
                continue;
            }
            if target.log_mark() != *delta_mark {
                assert!(
                    target.restore(bytes).is_err(),
                    "{name}: delta {k} applied after {applied} deltas"
                );
                rejected += 1;
            }
        }
    }
    assert!(rejected > 0, "{name}: the chain never grew its logs");
}

#[test]
fn delta_chains_restore_the_uninterrupted_state() {
    for (name, trace) in [
        ("eventful", eventful_trace()),
        ("fault-plan", fault_plan_trace()),
        ("salvaged", salvaged_trace()),
        ("imported", imported_trace()),
    ] {
        assert_delta_chain(name, &trace);
    }
}

/// Full analyzer snapshots at version 1 (raw 8-byte sample words),
/// written by the build at commit `79440b2`: for each of the eventful,
/// fault-plan, salvaged and imported traces, in that order, the framed
/// `snapshot()` after the first half of its records.
const V1_SNAPSHOTS: &[u8] = include_bytes!("data/stream_snapshot_v1.snap");

/// Splits concatenated snapshot frames. The frame header is the 8-byte
/// magic, `u32` kind, `u32` version, `u64` payload length and `u32` CRC.
fn split_frames(mut bytes: &[u8]) -> Vec<&[u8]> {
    const HEADER: usize = 8 + 4 + 4 + 8 + 4;
    let mut frames = Vec::new();
    while !bytes.is_empty() {
        let len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
        let (frame, rest) = bytes.split_at(HEADER + len as usize);
        frames.push(frame);
        bytes = rest;
    }
    frames
}

#[test]
fn version_1_full_snapshots_still_restore() {
    let frames = split_frames(V1_SNAPSHOTS);
    let traces = [
        ("eventful", eventful_trace()),
        ("fault-plan", fault_plan_trace()),
        ("salvaged", salvaged_trace()),
        ("imported", imported_trace()),
    ];
    assert_eq!(frames.len(), traces.len());
    let config = StreamConfig::default();
    for ((name, trace), frame) in traces.iter().zip(frames) {
        let framed = pftk_snap::unframe(frame, STREAM_SNAPSHOT_VERSION).expect("framed snapshot");
        assert_eq!((framed.kind, framed.version), (STREAM_SNAPSHOT_KIND, 1));

        let records = trace.records();
        let (head, tail) = records.split_at(records.len() / 2);
        let mut live = StreamAnalyzer::new(config);
        for rec in head {
            live.on_record(rec);
        }
        let mut restored = StreamAnalyzer::new(config);
        restored
            .restore(frame)
            .unwrap_or_else(|e| panic!("{name}: version-1 snapshot did not restore: {e}"));
        assert_eq!(
            restored.snapshot(),
            live.snapshot(),
            "{name}: restored state differs from the live analyzer"
        );
        for rec in tail {
            restored.on_record(rec);
        }
        assert_eq!(
            restored.finish(Some(300.0)),
            StreamAnalysis::from_trace(trace, config, Some(300.0)),
            "{name}: resumed from version 1, finish diverged"
        );
    }
}
