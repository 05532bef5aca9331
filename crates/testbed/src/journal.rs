//! Write-ahead campaign journal: crash safety for hour-scale campaigns.
//!
//! A journaled campaign appends two kinds of records to a single
//! append-only file while it runs:
//!
//! * **`AttemptDone`** — a completed experiment (label, seed, and the full
//!   [`crate::experiment::ExperimentResult`] in the `pftk-snap` codec),
//!   written with an `fsync` before the supervisor reports the row, so a
//!   completed attempt is never lost or recomputed;
//! * **`Checkpoint`** — periodic in-flight state (the simulator's
//!   [`Connection::snapshot`](tcp_sim::connection::Connection::snapshot)
//!   plus an analyzer delta: the streaming analyzer's O(window) head state
//!   and only the log entries appended since the attempt's previous
//!   checkpoint), queued to a writer thread so the sim hot path never
//!   blocks on I/O.
//!
//! On startup [`replay`] scans the journal and
//! [`JournalReplay::into_state`] folds it: completed attempts are
//! reconstructed without re-running, and in-flight attempts resume from
//! their *checkpoint chain* — the consecutive checkpoints of the attempt's
//! latest run, whose analyzer deltas restore in order. A torn tail — a
//! partial header, a short payload, a checksum mismatch, an undecodable
//! record — is treated as a clean truncation of everything from that point
//! on. Replay never aborts: the worst possible corruption merely re-runs
//! work.
//!
//! # Record framing
//!
//! ```text
//! ┌────────────┬────────────┬────────────────┐
//! │ len: u32 LE│ crc: u32 LE│ payload (len B)│   repeated
//! └────────────┴────────────┴────────────────┘
//! ```
//!
//! `crc` is the CRC-32 (IEEE) of the payload. A record is encoded once,
//! header included, into the buffer the writer thread hands to a single
//! `write_all` ([`CampaignRecord::framed`]), so a crash leaves at most one
//! torn record — always at the tail.
//!
//! The payload is a [`CampaignRecord`] encoded with the `pftk-snap` codec
//! (the same writer/reader discipline as the simulator snapshots; see
//! DESIGN.md §13). Its first byte is the record tag:
//!
//! | tag | record | body |
//! |-----|--------|------|
//! | 1 | `AttemptDone`, older builds | job, label, seed, resumed, the result as JSON |
//! | 2 | `Checkpoint` | job, seed, wire/horizon/cadence bits, next boundary, connection snapshot, analyzer delta |
//! | 3 | `AttemptDone` | job, label, seed, resumed, the result in the `pftk-snap` codec ([`ExperimentResult::encode`]) |
//!
//! This build writes tags 2 and 3 and reads all three, so journals of
//! older builds still replay. A completion whose result does not decode
//! re-runs its attempt; it does not truncate the journal.

use crate::experiment::ExperimentResult;
use pftk_snap::{crc32, SnapError, SnapReader, SnapResult, SnapWriter};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Sanity cap on a single record's payload. A Table II checkpoint delta is
/// tens to hundreds of kilobytes and a full analyzer snapshot of an
/// hour-long path (as older journals hold) runs to about a megabyte;
/// anything near this cap is corruption, not data.
const MAX_RECORD_LEN: u32 = 1 << 30;

/// One journal entry.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignRecord {
    /// A completed attempt: the row can be reconstructed without re-running.
    AttemptDone {
        /// Index of the job in the campaign's submission order.
        job_index: u64,
        /// The row label (path id).
        label: String,
        /// Seed of the attempt that completed (the reseeded one for a
        /// retry).
        seed: u64,
        /// True when the attempt itself resumed from a checkpoint.
        resumed: bool,
        /// The attempt's `ExperimentResult`, still encoded.
        result: ResultPayload,
    },
    /// In-flight state of a running attempt at a checkpoint boundary.
    Checkpoint(Checkpoint),
}

/// A completed attempt's [`ExperimentResult`] as a completion record
/// holds it. It stays encoded through replay: a payload that does not
/// decode only re-runs its attempt ([`ResultPayload::decode`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ResultPayload {
    /// `ExperimentResult::encode` bytes (record tag 3).
    Snap(Vec<u8>),
    /// JSON, as older builds wrote it (record tag 1). Non-finite floats
    /// were written as `null` and do not decode.
    Json(Vec<u8>),
}

impl ResultPayload {
    /// Decodes the result; `None` for any malformation.
    pub fn decode(&self) -> Option<ExperimentResult> {
        match self {
            ResultPayload::Snap(bytes) => ExperimentResult::decode(bytes).ok(),
            ResultPayload::Json(bytes) => {
                let text = std::str::from_utf8(bytes).ok()?;
                serde_json::from_str(text).ok()
            }
        }
    }

    fn bytes(&self) -> &[u8] {
        match self {
            ResultPayload::Snap(bytes) | ResultPayload::Json(bytes) => bytes,
        }
    }
}

/// The resumable in-flight state of one attempt. Every field a resumer
/// needs to rebuild an identically configured connection is carried here;
/// the `*_bits` fields are exact `f64::to_bits` images so a resumed run is
/// parameterized bit-identically to the crashed one.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Index of the job in the campaign's submission order.
    pub job_index: u64,
    /// Seed of the attempt being checkpointed; a resumer only restores
    /// when its attempt seed matches (a reseeded retry must start fresh).
    pub seed: u64,
    /// Calibrated wire-loss parameters (`isolated_p`, `burst_time_frac`,
    /// `mean_burst_secs`), as bits.
    pub wire_bits: [u64; 3],
    /// The run horizon in seconds, as bits.
    pub horizon_bits: u64,
    /// The checkpoint cadence in sim-seconds, as bits. A resumer with a
    /// different cadence would slice the remaining run at different
    /// boundaries; it discards the checkpoint and restarts instead.
    pub every_bits: u64,
    /// Index `k` of the next slice boundary (`t = k · every`), so the
    /// resumed run continues the exact boundary sequence.
    pub next_boundary: u64,
    /// `Connection::snapshot` bytes.
    pub conn: Vec<u8>,
    /// Analyzer bytes: a `StreamAnalyzer::snapshot_since` delta from the
    /// attempt's previous checkpoint (older journals hold full
    /// `StreamAnalyzer::snapshot` bytes; restore accepts both).
    pub stream: Vec<u8>,
}

impl Checkpoint {
    /// True when `next` is the checkpoint that follows this one in the same
    /// run: same attempt (seed), same horizon, cadence and wire loss, and
    /// the next slice boundary. Only such a record may apply its analyzer
    /// delta on top of this one's.
    pub fn is_followed_by(&self, next: &Checkpoint) -> bool {
        next.job_index == self.job_index
            && next.seed == self.seed
            && next.wire_bits == self.wire_bits
            && next.horizon_bits == self.horizon_bits
            && next.every_bits == self.every_bits
            && Some(next.next_boundary) == self.next_boundary.checked_add(1)
    }
}

const TAG_ATTEMPT_DONE_JSON: u8 = 1;
const TAG_CHECKPOINT: u8 = 2;
const TAG_ATTEMPT_DONE: u8 = 3;

/// Bytes of the record header: `len` and `crc`.
const HEADER: usize = 8;

impl CampaignRecord {
    /// Encodes the record payload, without the header. The payload of a
    /// replayed record re-encodes to the bytes it was read from.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::with_capacity(self.encoded_len_hint());
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Encodes the whole record — header and payload — into one buffer,
    /// ready for a single `write_all`. Fails only when the payload is
    /// over the record size cap.
    pub fn framed(&self) -> io::Result<Vec<u8>> {
        frame_record(self.encoded_len_hint(), |w| self.encode_into(w))
    }

    fn encoded_len_hint(&self) -> usize {
        let blobs = match self {
            CampaignRecord::AttemptDone { label, result, .. } => label.len() + result.bytes().len(),
            CampaignRecord::Checkpoint(cp) => cp.conn.len() + cp.stream.len(),
        };
        128 + blobs
    }

    fn encode_into(&self, w: &mut SnapWriter) {
        match self {
            CampaignRecord::AttemptDone {
                job_index,
                label,
                seed,
                resumed,
                result,
            } => {
                w.put_u8(match result {
                    ResultPayload::Snap(_) => TAG_ATTEMPT_DONE,
                    ResultPayload::Json(_) => TAG_ATTEMPT_DONE_JSON,
                });
                w.put_u64(*job_index);
                w.put_str(label);
                w.put_u64(*seed);
                w.put_bool(*resumed);
                w.put_bytes(result.bytes());
            }
            CampaignRecord::Checkpoint(cp) => {
                w.put_u8(TAG_CHECKPOINT);
                w.put_u64(cp.job_index);
                w.put_u64(cp.seed);
                for bits in cp.wire_bits {
                    w.put_u64(bits);
                }
                w.put_u64(cp.horizon_bits);
                w.put_u64(cp.every_bits);
                w.put_u64(cp.next_boundary);
                w.put_bytes(&cp.conn);
                w.put_bytes(&cp.stream);
            }
        }
    }

    /// Decodes a record payload. Any malformation is an `Err`, never a
    /// panic — replay maps it to a clean truncation. The result of a
    /// completion stays encoded here, so a result that does not decode
    /// costs only its attempt ([`ResultPayload::decode`]).
    pub fn decode(payload: &[u8]) -> SnapResult<CampaignRecord> {
        let mut r = SnapReader::new(payload);
        let rec = match r.get_u8()? {
            tag @ (TAG_ATTEMPT_DONE | TAG_ATTEMPT_DONE_JSON) => CampaignRecord::AttemptDone {
                job_index: r.get_u64()?,
                label: r.get_str()?,
                seed: r.get_u64()?,
                resumed: r.get_bool()?,
                result: match (tag, r.get_bytes()?.to_vec()) {
                    (TAG_ATTEMPT_DONE, bytes) => ResultPayload::Snap(bytes),
                    (_, bytes) => ResultPayload::Json(bytes),
                },
            },
            TAG_CHECKPOINT => {
                let job_index = r.get_u64()?;
                let seed = r.get_u64()?;
                let wire_bits = [r.get_u64()?, r.get_u64()?, r.get_u64()?];
                CampaignRecord::Checkpoint(Checkpoint {
                    job_index,
                    seed,
                    wire_bits,
                    horizon_bits: r.get_u64()?,
                    every_bits: r.get_u64()?,
                    next_boundary: r.get_u64()?,
                    conn: r.get_bytes()?.to_vec(),
                    stream: r.get_bytes()?.to_vec(),
                })
            }
            _ => return Err(SnapError::Invalid("campaign record tag")),
        };
        r.finish()?;
        Ok(rec)
    }
}

/// Builds a framed record in place: `write` encodes the payload after an
/// 8-byte header that is filled in afterwards with the payload's length
/// and CRC-32.
fn frame_record(capacity: usize, write: impl FnOnce(&mut SnapWriter)) -> io::Result<Vec<u8>> {
    let mut w = SnapWriter::with_capacity(HEADER + capacity);
    w.put_raw(&[0; HEADER]);
    write(&mut w);
    let mut buf = w.into_bytes();
    let (header, payload) = buf.split_at_mut(HEADER);
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|l| *l <= MAX_RECORD_LEN)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "journal record too large"))?;
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    Ok(buf)
}

/// What a journal scan recovered.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// The valid record prefix, in append order.
    pub records: Vec<CampaignRecord>,
    /// True when the scan stopped before end-of-file (torn or corrupt
    /// tail — the bytes past `valid_bytes` were ignored).
    pub torn_tail: bool,
    /// Length of the valid prefix in bytes.
    pub valid_bytes: u64,
}

/// The per-job state a replayed journal implies.
#[derive(Debug, Default)]
pub struct CampaignState {
    /// Jobs with a durably recorded completion, by job index (the last
    /// record wins).
    pub done: BTreeMap<u64, DoneAttempt>,
    /// Jobs with in-flight checkpoints and no completion, by job index:
    /// the checkpoint chain of the job's latest run, oldest first. The
    /// last record carries the connection state to restore; the analyzer
    /// bytes of every record apply in order. A checkpoint that does not
    /// follow the chain's last ([`Checkpoint::is_followed_by`]) starts a
    /// new chain, and an `AttemptDone` clears it.
    pub inflight: BTreeMap<u64, Vec<Checkpoint>>,
}

/// A replayed completion record.
#[derive(Debug, Clone)]
pub struct DoneAttempt {
    /// The row label.
    pub label: String,
    /// Seed of the completed attempt.
    pub seed: u64,
    /// Whether that attempt had itself resumed from a checkpoint.
    pub resumed: bool,
    /// The attempt's result, still encoded.
    pub result: ResultPayload,
}

impl JournalReplay {
    /// Folds the record sequence into per-job state, moving the records:
    /// the last completion per job wins, a completion clears the job's
    /// checkpoint chain, and checkpoints after a completion are ignored.
    pub fn into_state(self) -> CampaignState {
        let mut state = CampaignState::default();
        for rec in self.records {
            match rec {
                CampaignRecord::AttemptDone {
                    job_index,
                    label,
                    seed,
                    resumed,
                    result,
                } => {
                    state.inflight.remove(&job_index);
                    state.done.insert(
                        job_index,
                        DoneAttempt {
                            label,
                            seed,
                            resumed,
                            result,
                        },
                    );
                }
                CampaignRecord::Checkpoint(cp) => {
                    if state.done.contains_key(&cp.job_index) {
                        continue;
                    }
                    let chain = state.inflight.entry(cp.job_index).or_default();
                    if !chain.last().is_some_and(|last| last.is_followed_by(&cp)) {
                        chain.clear();
                    }
                    chain.push(cp);
                }
            }
        }
        state
    }
}

/// Scans a journal file, returning the valid record prefix. A missing file
/// is an empty journal; a torn or corrupt tail is a clean truncation.
/// Only an environmental I/O failure (permissions, disk) is an `Err`.
//= pftk#journal-torn-tail
//= pftk#crash-resume
pub fn replay(path: &Path) -> io::Result<JournalReplay> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(JournalReplay::default()),
        Err(e) => return Err(e),
    };
    let mut out = JournalReplay::default();
    let mut rest: &[u8] = &bytes;
    loop {
        if rest.is_empty() {
            break;
        }
        let Some((header, body)) = split_at_checked(rest, HEADER) else {
            out.torn_tail = true;
            break;
        };
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len > MAX_RECORD_LEN {
            out.torn_tail = true;
            break;
        }
        let Some((payload, tail)) = split_at_checked(body, len as usize) else {
            out.torn_tail = true;
            break;
        };
        if crc32(payload) != crc {
            out.torn_tail = true;
            break;
        }
        let Ok(rec) = CampaignRecord::decode(payload) else {
            // Framing intact but the payload is not a record we understand:
            // same policy as a torn tail — stop, never abort.
            out.torn_tail = true;
            break;
        };
        out.records.push(rec);
        out.valid_bytes += 8 + u64::from(len);
        rest = tail;
    }
    Ok(out)
}

/// Frames an already encoded payload.
fn frame_payload(payload: &[u8]) -> io::Result<Vec<u8>> {
    frame_record(payload.len(), |w| w.put_raw(payload))
}

/// `slice::split_at` without the panic branch.
fn split_at_checked(s: &[u8], mid: usize) -> Option<(&[u8], &[u8])> {
    if mid <= s.len() {
        Some(s.split_at(mid))
    } else {
        None
    }
}

enum Cmd {
    /// Fire-and-forget append (checkpoints) of a framed record.
    Append(Vec<u8>),
    /// Append + fsync of a framed record, acknowledged (attempt
    /// boundaries).
    AppendSync(Vec<u8>, mpsc::Sender<io::Result<()>>),
}

/// Handle to the append-only journal writer: a dedicated thread owns the
/// file, so simulation workers hand framed records over a channel and
/// never block on disk (except when they explicitly ask for durability
/// with [`Journal::append_record_sync`]).
///
/// The file is opened in append mode and existing bytes are never
/// rewritten — a resumed campaign strictly extends the journal, which the
/// resume-equivalence gate checks byte-for-byte.
#[derive(Debug)]
pub struct Journal {
    tx: Option<mpsc::Sender<Cmd>>,
    worker: Option<JoinHandle<()>>,
    path: PathBuf,
}

impl Journal {
    /// Opens (creating if needed) the journal for appending and starts the
    /// writer thread.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Journal> {
        let path = path.into();
        let file = OpenOptions::new().append(true).create(true).open(&path)?;
        let (tx, rx) = mpsc::channel::<Cmd>();
        let worker = std::thread::Builder::new()
            .name("pftk-journal".into())
            //~ allow(hot_block): the writer thread is the off-hot-path I/O
            // sink; it blocks on the channel and the disk by design, and the
            // hotpath analysis proves no hot root can reach it.
            .spawn(move || writer_loop(file, &rx))?;
        Ok(Journal {
            tx: Some(tx),
            worker: Some(worker),
            path,
        })
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Frames a record on the calling thread and queues it for appending;
    /// returns immediately. Used for checkpoints: losing one to a crash
    /// only costs re-simulating from the previous checkpoint.
    pub fn append_record(&self, record: &CampaignRecord) {
        self.queue(record.framed());
    }

    /// Frames a record on the calling thread, appends it and waits until
    /// it (and everything queued before it) is durable (`fdatasync`).
    /// Used at attempt boundaries: once this returns, a crash cannot lose
    /// the completion.
    pub fn append_record_sync(&self, record: &CampaignRecord) -> io::Result<()> {
        self.send_sync(record.framed()?)
    }

    /// [`Journal::append_record_sync`] for an encoded payload
    /// ([`CampaignRecord::encode`]), which is copied behind a header.
    pub fn append_sync(&self, payload: Vec<u8>) -> io::Result<()> {
        self.send_sync(frame_payload(&payload)?)
    }

    fn queue(&self, frame: io::Result<Vec<u8>>) {
        if let (Some(tx), Ok(frame)) = (&self.tx, frame) {
            let _ = tx.send(Cmd::Append(frame));
        }
    }

    fn send_sync(&self, frame: Vec<u8>) -> io::Result<()> {
        let gone = || io::Error::new(io::ErrorKind::BrokenPipe, "journal writer is gone");
        let tx = self.tx.as_ref().ok_or_else(gone)?;
        let (ack_tx, ack_rx) = mpsc::channel();
        tx.send(Cmd::AppendSync(frame, ack_tx))
            .map_err(|_| gone())?;
        ack_rx.recv().map_err(|_| gone())?
    }

    /// Closes the journal: drains the queue, syncs, joins the writer.
    pub fn close(mut self) -> io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        drop(self.tx.take());
        if let Some(worker) = self.worker.take() {
            worker
                .join()
                .map_err(|_| io::Error::other("journal writer panicked"))?;
        }
        Ok(())
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Writes each framed record with a single `write_all`, so a crash can
/// tear at most the trailing record.
fn writer_loop(mut file: File, rx: &mpsc::Receiver<Cmd>) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Append(frame) => {
                // Best-effort: a failed checkpoint write degrades crash
                // recovery granularity, never the campaign itself.
                let _ = file.write_all(&frame);
            }
            Cmd::AppendSync(frame, ack) => {
                let res = file.write_all(&frame).and_then(|()| file.sync_data());
                let _ = ack.send(res);
            }
        }
    }
    let _ = file.sync_data();
}

/// Test instrumentation for the resume-equivalence gate: a countdown that
/// panics the calling (worker) thread when it expires, simulating a
/// process crash at a checkpoint boundary. The panic unwinds into the
/// supervisor's isolation ([`crate::supervisor::Outcome::Panicked`]); a
/// subsequent journaled run then resumes from the last durable state —
/// exactly the path a real crash exercises, minus the lost process.
#[derive(Debug)]
pub struct CrashPoint {
    remaining: AtomicI64,
}

impl CrashPoint {
    /// Panics the thread that performs the `n`-th tick (1-based).
    pub fn after(n: u64) -> Arc<CrashPoint> {
        let n = i64::try_from(n).unwrap_or(i64::MAX);
        Arc::new(CrashPoint {
            remaining: AtomicI64::new(n),
        })
    }

    /// Counts one checkpoint boundary; panics when the countdown expires.
    ///
    /// # Panics
    /// On the `n`-th call, by construction.
    pub fn tick(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // The panic only fires when a resume gate explicitly arms a
            // CrashPoint, and the supervisor's isolation converts it into
            // a Panicked row (never into an aborted campaign).
            //~ allow(panic): crash injection is this type's entire purpose
            panic!("injected crash: resume-equivalence gate");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pftk-journal-{}-{name}.waj", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn done(i: u64) -> CampaignRecord {
        CampaignRecord::AttemptDone {
            job_index: i,
            label: format!("path-{i}"),
            seed: 40 + i,
            resumed: i % 2 == 1,
            result: ResultPayload::Snap(vec![5; 24]),
        }
    }

    fn ckpt(i: u64, k: u64) -> CampaignRecord {
        CampaignRecord::Checkpoint(checkpoint(i, k))
    }

    fn checkpoint(i: u64, k: u64) -> Checkpoint {
        Checkpoint {
            job_index: i,
            seed: 40 + i,
            wire_bits: [1, 2, 3],
            horizon_bits: 3600f64.to_bits(),
            every_bits: 300f64.to_bits(),
            next_boundary: k,
            conn: vec![9; 16],
            stream: vec![7; 8],
        }
    }

    #[test]
    fn record_roundtrip() {
        let json = CampaignRecord::AttemptDone {
            job_index: 4,
            label: "path-4".into(),
            seed: 44,
            resumed: false,
            result: ResultPayload::Json(b"{}".to_vec()),
        };
        for (rec, tag) in [(done(3), 3), (json, 1), (ckpt(5, 11), 2)] {
            let enc = rec.encode();
            assert_eq!(enc[0], tag);
            assert_eq!(CampaignRecord::decode(&enc).unwrap(), rec);
            // The framed record is the header, then exactly the payload.
            let framed = rec.framed().unwrap();
            assert_eq!(&framed[HEADER..], &enc[..]);
            assert_eq!(framed[..4], (enc.len() as u32).to_le_bytes());
            assert_eq!(framed[4..8], crc32(&enc).to_le_bytes());
        }
    }

    #[test]
    fn payload_and_record_appends_write_the_same_bytes() {
        let (by_payload, by_record) = (tmp("by-payload"), tmp("by-record"));
        let journal = Journal::open(&by_payload).unwrap();
        journal.append_sync(ckpt(0, 1).encode()).unwrap();
        journal.append_sync(done(0).encode()).unwrap();
        journal.close().unwrap();
        let journal = Journal::open(&by_record).unwrap();
        journal.append_record_sync(&ckpt(0, 1)).unwrap();
        journal.append_record_sync(&done(0)).unwrap();
        journal.close().unwrap();
        assert_eq!(
            std::fs::read(&by_payload).unwrap(),
            std::fs::read(&by_record).unwrap()
        );
        for p in [by_payload, by_record] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn append_replay_roundtrip_and_fold() {
        let path = tmp("roundtrip");
        let journal = Journal::open(&path).unwrap();
        journal.append_record(&ckpt(0, 1));
        journal.append_record(&ckpt(0, 2));
        journal.append_record_sync(&done(1)).unwrap();
        journal.append_record(&ckpt(1, 9)); // late checkpoint after done: ignored by fold
        journal.close().unwrap();

        let replayed = replay(&path).unwrap();
        assert!(!replayed.torn_tail);
        assert_eq!(replayed.records.len(), 4);
        let state = replayed.into_state();
        assert_eq!(state.done.len(), 1);
        assert_eq!(state.done[&1].seed, 41);
        assert!(state.done[&1].resumed);
        // Job 0 is in flight with a two-record chain ending at its *last*
        // checkpoint; job 1's post-completion checkpoint was discarded.
        assert_eq!(state.inflight.len(), 1);
        let boundaries: Vec<u64> = state.inflight[&0].iter().map(|c| c.next_boundary).collect();
        assert_eq!(boundaries, [1, 2]);
        let _ = std::fs::remove_file(&path);
    }

    fn chain_of(records: Vec<CampaignRecord>) -> Vec<u64> {
        let state = JournalReplay {
            records,
            ..JournalReplay::default()
        }
        .into_state();
        state
            .inflight
            .get(&0)
            .map(|chain| chain.iter().map(|c| c.next_boundary).collect())
            .unwrap_or_default()
    }

    fn with(k: u64, edit: impl FnOnce(&mut Checkpoint)) -> CampaignRecord {
        let mut cp = checkpoint(0, k);
        edit(&mut cp);
        CampaignRecord::Checkpoint(cp)
    }

    #[test]
    fn chains_join_consecutive_boundaries_of_one_run_only() {
        // Consecutive boundaries of one run form one chain.
        assert_eq!(chain_of((2..6).map(|k| ckpt(0, k)).collect()), [2, 3, 4, 5]);
        // A rerun from the start (boundary 2 again) starts a new chain, and
        // so does a gap left by a lost checkpoint.
        assert_eq!(chain_of(vec![ckpt(0, 2), ckpt(0, 3), ckpt(0, 2)]), [2]);
        assert_eq!(chain_of(vec![ckpt(0, 2), ckpt(0, 4), ckpt(0, 5)]), [4, 5]);
        // A different attempt, horizon, cadence or wire loss never joins.
        for edit in [
            (|cp: &mut Checkpoint| cp.seed += 1) as fn(&mut Checkpoint),
            |cp| cp.horizon_bits = 1800f64.to_bits(),
            |cp| cp.every_bits = 600f64.to_bits(),
            |cp| cp.wire_bits[1] ^= 1,
        ] {
            assert_eq!(chain_of(vec![ckpt(0, 2), with(3, edit)]), [3]);
        }
        // A completion clears the chain; later checkpoints are ignored.
        let mut records = vec![ckpt(0, 2), ckpt(0, 3)];
        records.push(CampaignRecord::AttemptDone {
            job_index: 0,
            label: "path-0".into(),
            seed: 40,
            resumed: false,
            result: ResultPayload::Snap(Vec::new()),
        });
        records.push(ckpt(0, 4));
        assert!(chain_of(records).is_empty());
    }

    //= pftk#journal-torn-tail type=test
    #[test]
    fn torn_tail_is_clean_truncation() {
        let path = tmp("torn");
        let journal = Journal::open(&path).unwrap();
        journal.append_sync(done(0).encode()).unwrap();
        journal.append_sync(done(1).encode()).unwrap();
        journal.close().unwrap();
        let full = std::fs::read(&path).unwrap();

        // Chop the file at every prefix length: the replay must never fail
        // and must recover a prefix of the record sequence.
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let replayed = replay(&path).unwrap();
            assert!(replayed.records.len() <= 2);
            assert!(u64::try_from(cut).unwrap() >= replayed.valid_bytes);
            if cut < full.len() {
                // Anything short of the full file loses at least the last
                // record or flags the tail.
                assert!(replayed.records.len() < 2 || !replayed.torn_tail);
            }
        }

        // Corrupt one payload byte of the first record: everything from
        // that record on is discarded.
        let mut corrupt = full.clone();
        corrupt[10] ^= 0x40;
        std::fs::write(&path, &corrupt).unwrap();
        let replayed = replay(&path).unwrap();
        assert!(replayed.torn_tail);
        assert!(replayed.records.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_after_valid_records_is_ignored() {
        let path = tmp("garbage");
        let journal = Journal::open(&path).unwrap();
        journal.append_sync(done(0).encode()).unwrap();
        journal.close().unwrap();
        let valid_len = std::fs::metadata(&path).unwrap().len();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0xFF; 13]);
        std::fs::write(&path, &bytes).unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.records.len(), 1);
        assert!(replayed.torn_tail);
        assert_eq!(replayed.valid_bytes, valid_len);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_empty_journal() {
        let replayed = replay(Path::new("/nonexistent/pftk/journal.waj")).unwrap();
        assert!(replayed.records.is_empty());
        assert!(!replayed.torn_tail);
    }

    #[test]
    fn reopen_appends_never_rewrites() {
        let path = tmp("reopen");
        let j1 = Journal::open(&path).unwrap();
        j1.append_sync(done(0).encode()).unwrap();
        j1.close().unwrap();
        let before = std::fs::read(&path).unwrap();

        let j2 = Journal::open(&path).unwrap();
        j2.append_sync(done(1).encode()).unwrap();
        j2.close().unwrap();
        let after = std::fs::read(&path).unwrap();
        assert!(after.len() > before.len());
        assert_eq!(&after[..before.len()], &before[..], "prefix rewritten");
        assert_eq!(replay(&path).unwrap().records.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    /// Decoding a damaged delta journal — `replay`, `into_state`, and
    /// restoring every checkpoint chain into a fresh recorder — returns
    /// `Ok` or `Err` at each step and never panics. The damage generators
    /// are those of the snapshot codec's properties: truncation, garbage
    /// and single-bit flips.
    mod fuzz {
        use super::*;
        use crate::experiment::TraceRecorder;
        use proptest::prelude::*;
        use std::sync::OnceLock;
        use tcp_trace::stream::{LogMark, StreamAnalyzer, StreamConfig, TraceSink};

        /// A small journal as a campaign writes it: job 0 in flight with a
        /// chain of three analyzer deltas, job 1 checkpointed twice and
        /// then completed with a real result, and job 2 holding one full
        /// analyzer snapshot (the format of older builds).
        fn delta_journal() -> &'static [u8] {
            static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
            BYTES.get_or_init(|| {
                const MS: u64 = 1_000_000;
                let mut analyzer = StreamAnalyzer::new(StreamConfig::default());
                let (mut mark, mut now, mut seq) = (LogMark::default(), 0, 0);
                let mut records = Vec::new();
                for k in 2..5 {
                    for round in 0..6u64 {
                        for _ in 0..4 {
                            now += MS;
                            analyzer.on_send(now, seq, false);
                            seq += 1;
                        }
                        if round % 3 == 2 {
                            now += 300 * MS;
                            analyzer.on_send(now, seq - 4, true);
                        }
                        now += 100 * MS;
                        analyzer.on_ack_in(now, seq - 1);
                    }
                    let mut cp = checkpoint(0, k);
                    cp.stream = analyzer.snapshot_since(mark);
                    mark = analyzer.log_mark();
                    let mut twin = cp.clone();
                    twin.job_index = 1;
                    twin.seed = 41;
                    records.push(CampaignRecord::Checkpoint(cp));
                    if k < 4 {
                        records.push(CampaignRecord::Checkpoint(twin));
                    }
                }
                let result = ExperimentResult {
                    stream: analyzer.clone().finish(Some(900.0)),
                    trace: None,
                    stats: tcp_sim::stats::ConnStats::default(),
                    ground_rtt: Some(0.1),
                    ground_t0: None,
                    duration_secs: 900.0,
                    event_budget_hit: false,
                };
                records.push(CampaignRecord::AttemptDone {
                    job_index: 1,
                    label: "path-1".into(),
                    seed: 41,
                    resumed: false,
                    result: ResultPayload::Snap(result.encode()),
                });
                let mut full = checkpoint(2, 2);
                full.stream = analyzer.snapshot();
                records.push(CampaignRecord::Checkpoint(full));

                let path = tmp("fuzz-source");
                let journal = Journal::open(&path).unwrap();
                for rec in &records {
                    journal.append_record(rec);
                }
                journal.close().unwrap();
                let bytes = std::fs::read(&path).unwrap();
                let _ = std::fs::remove_file(&path);
                bytes
            })
        }

        /// Replays `bytes` as a journal file, decodes every completed
        /// result and restores every chain into a fresh recorder, stopping
        /// a chain at its first error (the resume policy). Returns how many
        /// chains restored completely.
        fn replay_and_restore(bytes: &[u8], name: &str) -> usize {
            let path = tmp(name);
            std::fs::write(&path, bytes).unwrap();
            let replayed = replay(&path).expect("a readable file always replays");
            let _ = std::fs::remove_file(&path);
            assert!(replayed.valid_bytes <= bytes.len() as u64);
            let state = replayed.into_state();
            for done in state.done.values() {
                let _ = done.result.decode();
            }
            state
                .inflight
                .values()
                .filter(|chain| {
                    let mut recorder = TraceRecorder::streaming(StreamConfig::default());
                    chain
                        .iter()
                        .all(|cp| recorder.stream_restore(&cp.stream).is_ok())
                })
                .count()
        }

        /// `(offset, length)` of every record payload in a journal.
        fn payloads(bytes: &[u8]) -> Vec<(usize, usize)> {
            let mut out = Vec::new();
            let mut at = 0;
            while at + 8 <= bytes.len() {
                let len =
                    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
                out.push((at + 8, len as usize));
                at += 8 + len as usize;
            }
            out
        }

        #[test]
        fn pristine_delta_journal_restores_both_open_chains() {
            let bytes = delta_journal();
            assert_eq!(payloads(bytes).len(), 7);
            let state = {
                let path = tmp("fuzz-pristine");
                std::fs::write(&path, bytes).unwrap();
                let state = replay(&path).unwrap().into_state();
                let _ = std::fs::remove_file(&path);
                state
            };
            assert_eq!(state.inflight[&0].len(), 3);
            assert!(state.done.contains_key(&1) && !state.inflight.contains_key(&1));
            let result = state.done[&1].result.decode().expect("result decodes");
            assert_eq!(result.stream.analysis.indications.len(), 6);
            assert_eq!(replay_and_restore(bytes, "fuzz-pristine"), 2);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn truncated_delta_journals_never_panic(cut in 0u64..=u64::MAX) {
                let bytes = delta_journal();
                let cut = (cut % (bytes.len() as u64 + 1)) as usize;
                let restored = replay_and_restore(&bytes[..cut], "fuzz-truncated");
                prop_assert!(restored <= 2);
            }

            #[test]
            fn bit_flipped_delta_journals_never_panic(pos in 0u64..=u64::MAX, bit in 0u8..8) {
                let mut bytes = delta_journal().to_vec();
                let pos = (pos % bytes.len() as u64) as usize;
                bytes[pos] ^= 1 << bit;
                let restored = replay_and_restore(&bytes, "fuzz-flipped");
                prop_assert!(restored <= 2);
            }

            /// A flip inside a record payload with the record's CRC
            /// recomputed gets past the framing, so the record decoder and
            /// the analyzer restore see the damage.
            #[test]
            fn resealed_bit_flips_reach_the_decoders(pos in 0u64..=u64::MAX, bit in 0u8..8) {
                let mut bytes = delta_journal().to_vec();
                let records = payloads(&bytes);
                let (at, len) = records[(pos % records.len() as u64) as usize];
                let flip = at + ((pos / records.len() as u64) % len as u64) as usize;
                bytes[flip] ^= 1 << bit;
                let crc = crc32(&bytes[at..at + len]);
                bytes[at - 4..at].copy_from_slice(&crc.to_le_bytes());
                // A flip may move a record to another job or attempt, so
                // any number of chains may restore; not panicking is the
                // property.
                replay_and_restore(&bytes, "fuzz-resealed");
            }

            #[test]
            fn garbage_journals_never_panic(garbage in proptest::collection::vec(0u8..=255, 0..64)) {
                prop_assert!(replay_and_restore(&garbage, "fuzz-garbage") == 0);
                let mut bytes = delta_journal().to_vec();
                bytes.extend_from_slice(&garbage);
                let restored = replay_and_restore(&bytes, "fuzz-garbage-tail");
                prop_assert!(restored <= 2);
            }
        }
    }

    #[test]
    fn crash_point_fires_once_at_the_requested_tick() {
        let cp = CrashPoint::after(3);
        cp.tick();
        cp.tick();
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cp.tick()));
        assert!(crashed.is_err());
        // Past the trip point the countdown stays expired without re-firing.
        cp.tick();
    }
}
