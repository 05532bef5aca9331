//! Versioned, checksummed binary snapshot codec.
//!
//! This crate is the wire layer under the crash-safe campaign machinery:
//! `sim` encodes full connection state through it, `trace` encodes the
//! incremental analyzer cores, and `testbed` frames journal records with
//! its CRC. It is deliberately dependency-free and panic-free: every read
//! is bounds-checked and returns a [`SnapError`] instead of slicing out of
//! range, so corrupt or truncated input degrades to an `Err` the caller
//! can treat as a clean truncation point (the house lenient-decode style).
//!
//! # Format
//!
//! Primitive values are little-endian fixed-width integers; `f64` travels
//! as its IEEE-754 bit pattern via [`f64::to_bits`] so NaN payloads and
//! signed zeros survive a round trip bit-identically. Variable-length byte
//! strings carry a `u64` length prefix. Long append-only logs may use
//! LEB128 varints instead ([`SnapWriter::put_varint`]), and a float that
//! is an integer over a fixed scale — an RTT in nanoseconds over 1e9 — can
//! travel as that integer ([`SnapWriter::put_scaled_f64`]), which falls
//! back to the raw bits whenever the integer would not decode to the
//! identical `f64`. Composite snapshots are framed by
//! [`frame`]/[`unframe`]: an 8-byte magic, a `u32` kind, a `u32` version,
//! a `u64` payload length, a CRC-32 of the payload, then the payload.
//!
//! Snapshots capture *mutable* state only. Restoring applies a snapshot
//! into a freshly-built, identically-configured object; shape tags written
//! by the encoder and checked by the decoder ([`SnapReader::expect_tag`])
//! turn configuration mismatches into [`SnapError::TagMismatch`] rather
//! than silent corruption.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::error::Error;
use std::fmt;

/// Magic bytes opening every framed snapshot.
pub const MAGIC: [u8; 8] = *b"PFTKSNAP";

/// Reasons a snapshot failed to decode.
///
/// All variants are recoverable: decoding never panics, and the journal
/// layer maps any of these on the tail record to a clean truncation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// Input ended before the requested value was complete.
    Truncated,
    /// Framed input did not start with [`MAGIC`].
    BadMagic,
    /// Frame version is newer than this decoder understands.
    UnsupportedVersion {
        /// Version found in the frame header.
        found: u32,
        /// Newest version this decoder supports.
        supported: u32,
    },
    /// Payload bytes do not match the frame's CRC-32.
    ChecksumMismatch,
    /// A shape tag did not match: the snapshot was taken from an object
    /// configured differently from the restore target.
    TagMismatch {
        /// What the tag guards (e.g. `"loss-kind"`).
        context: &'static str,
        /// Tag the restore target expected.
        expected: u64,
        /// Tag found in the snapshot.
        found: u64,
    },
    /// A decoded value is structurally invalid (bad bool byte, length
    /// overflow, out-of-range discriminant, ...).
    Invalid(&'static str),
    /// The state contains something the codec cannot capture (e.g. a
    /// type-erased `Box<dyn>` loss process with unknown internals).
    Unsupported(&'static str),
    /// Decoding finished but input bytes remain.
    TrailingBytes,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "snapshot magic bytes missing"),
            SnapError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (decoder supports <= {supported})"
                )
            }
            SnapError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapError::TagMismatch {
                context,
                expected,
                found,
            } => {
                write!(
                    f,
                    "snapshot shape mismatch at {context}: expected {expected}, found {found}"
                )
            }
            SnapError::Invalid(what) => write!(f, "invalid snapshot field: {what}"),
            SnapError::Unsupported(what) => write!(f, "state not snapshottable: {what}"),
            SnapError::TrailingBytes => write!(f, "trailing bytes after snapshot payload"),
        }
    }
}

impl Error for SnapError {}

/// Convenience alias for codec results.
pub type SnapResult<T> = Result<T, SnapError>;

/// Slicing-by-8 lookup tables: `CRC32_TABLES[0]` is the classic
/// byte-at-a-time table; `CRC32_TABLES[k][i]` extends it by `k` zero
/// bytes, letting [`crc32`] fold eight input bytes per iteration. The
/// polynomial and the resulting checksum are the standard reflected
/// CRC-32 (IEEE 802.3) — only throughput changes (checkpoint snapshots
/// run to hundreds of kilobytes, and the frame and journal codecs each
/// checksum every byte).
const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes`.
///
/// Shared by the frame codec and the testbed journal's record framing.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC32_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC32_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[4][(lo >> 24) as usize]
            ^ CRC32_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC32_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC32_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC32_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = (crc >> 8) ^ CRC32_TABLES[0][idx];
    }
    !crc
}

/// The integer `n < 2^63` with `n as f64 / scale` bit-identical to `v`,
/// if there is one: the compact form of [`SnapWriter::put_scaled_f64`].
#[inline]
fn scaled_integer(v: f64, scale: f64) -> Option<u64> {
    // The nearest integer for non-negative `v · scale`. The cast saturates
    // (NaN to 0), and whatever it yields the exactness check decides: a
    // wrong candidate only costs the compact form. Signed conversions are
    // single instructions where unsigned ones are not.
    let n = (v * scale + 0.5) as i64;
    (n >= 0 && (n as f64 / scale).to_bits() == v.to_bits()).then_some(n as u64)
}

/// Append-only encoder for snapshot payloads.
///
/// All writes are infallible; the buffer grows as needed. Finish with
/// [`SnapWriter::into_bytes`] (raw payload) or wrap in [`frame`].
#[derive(Debug, Default, Clone)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Creates a writer with `capacity` bytes preallocated.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        SnapWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded payload.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a single byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32` little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64` little-endian.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    #[inline]
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes a bool as one byte (0 or 1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes an `f64` as its IEEE-754 bit pattern, preserving NaN
    /// payloads and signed zeros bit-for-bit.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes an optional `f64`: a presence byte, then the bits.
    #[inline]
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_f64(x);
            }
            None => self.put_bool(false),
        }
    }

    /// Writes `v` as an LEB128 varint: seven bits per byte, low groups
    /// first, high bit set on every byte but the last. One byte below
    /// 128, ten at most.
    #[inline]
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v & 0x7F) as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Writes `v`, usually an exact integer `n` divided by `scale` (an RTT
    /// of `n` nanoseconds at `scale = 1e9`, a packet count at
    /// `scale = 1.0`), as the varint `2n`. Before choosing that form the
    /// writer checks that `n as f64 / scale` gives back the identical
    /// bits; when it would not (a value off the integer grid, a NaN, −0.0,
    /// an infinity, anything past 2^63) it writes the varint `1` and the
    /// raw bits instead. [`SnapReader::get_scaled_f64`] at the same
    /// `scale` returns `v` bit for bit either way.
    #[inline]
    pub fn put_scaled_f64(&mut self, v: f64, scale: f64) {
        match scaled_integer(v, scale) {
            Some(n) => self.put_varint(n << 1),
            None => {
                self.put_varint(1);
                self.put_f64(v);
            }
        }
    }

    /// Writes a length-prefixed byte string (`u64` length, then bytes).
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    #[inline]
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Writes raw bytes with no length prefix (caller knows the length).
    #[inline]
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a shape tag — a `u64` the decoder checks with
    /// [`SnapReader::expect_tag`] to catch configuration mismatches.
    #[inline]
    pub fn put_tag(&mut self, tag: u64) {
        self.put_u64(tag);
    }
}

/// Bounds-checked decoder over an encoded payload.
///
/// Every accessor returns [`SnapError::Truncated`] instead of reading out
/// of range; decoding arbitrary corrupt bytes can fail but never panic.
#[derive(Debug, Clone)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// True if every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Asserts all input was consumed; [`SnapError::TrailingBytes`] if not.
    pub fn finish(&self) -> SnapResult<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes)
        }
    }

    fn take(&mut self, n: usize) -> SnapResult<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(SnapError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads a single byte.
    #[inline]
    pub fn get_u8(&mut self) -> SnapResult<u8> {
        let bytes = self.take(1)?;
        Ok(bytes[0])
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> SnapResult<u32> {
        let bytes = self.take(4)?;
        let arr: [u8; 4] = bytes.try_into().map_err(|_| SnapError::Truncated)?;
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> SnapResult<u64> {
        let bytes = self.take(8)?;
        let arr: [u8; 8] = bytes.try_into().map_err(|_| SnapError::Truncated)?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a little-endian `i64`.
    #[inline]
    pub fn get_i64(&mut self) -> SnapResult<i64> {
        let bytes = self.take(8)?;
        let arr: [u8; 8] = bytes.try_into().map_err(|_| SnapError::Truncated)?;
        Ok(i64::from_le_bytes(arr))
    }

    /// Reads a `usize` encoded as `u64`; [`SnapError::Invalid`] if the
    /// value does not fit this platform's `usize`.
    #[inline]
    pub fn get_usize(&mut self) -> SnapResult<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapError::Invalid("usize overflow"))
    }

    /// Reads a bool byte; anything other than 0/1 is [`SnapError::Invalid`].
    #[inline]
    pub fn get_bool(&mut self) -> SnapResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Invalid("bool byte")),
        }
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    #[inline]
    pub fn get_f64(&mut self) -> SnapResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads an optional `f64` written by [`SnapWriter::put_opt_f64`].
    #[inline]
    pub fn get_opt_f64(&mut self) -> SnapResult<Option<f64>> {
        Ok(if self.get_bool()? {
            Some(self.get_f64()?)
        } else {
            None
        })
    }

    /// Reads an LEB128 varint written by [`SnapWriter::put_varint`].
    /// Only the shortest encoding of a value is accepted: a trailing zero
    /// group, or an eleventh byte or bits past 64, is
    /// [`SnapError::Invalid`].
    #[inline]
    pub fn get_varint(&mut self) -> SnapResult<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            let group = u64::from(byte & 0x7F);
            if shift == 63 && group > 1 {
                return Err(SnapError::Invalid("varint overflows u64"));
            }
            v |= group << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(SnapError::Invalid("varint not in shortest form"));
                }
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(SnapError::Invalid("varint overflows u64"));
            }
        }
    }

    /// Reads a varint as a `usize`; [`SnapError::Invalid`] if the value
    /// does not fit this platform's `usize`.
    #[inline]
    pub fn get_varint_usize(&mut self) -> SnapResult<usize> {
        let v = self.get_varint()?;
        usize::try_from(v).map_err(|_| SnapError::Invalid("usize overflow"))
    }

    /// Reads an `f64` written by [`SnapWriter::put_scaled_f64`] at the
    /// same `scale`. Raw bits that the integer form could have carried
    /// are [`SnapError::Invalid`], as is any odd varint but `1`.
    #[inline]
    pub fn get_scaled_f64(&mut self, scale: f64) -> SnapResult<f64> {
        match self.get_varint()? {
            1 => {
                let v = self.get_f64()?;
                if scaled_integer(v, scale).is_some() {
                    return Err(SnapError::Invalid("scaled f64 not in integer form"));
                }
                Ok(v)
            }
            // `n >> 1` is below 2^63, so the signed conversion is exact.
            n if n & 1 == 0 => Ok((n >> 1) as i64 as f64 / scale),
            _ => Err(SnapError::Invalid("scaled f64 form")),
        }
    }

    /// Reads a length-prefixed byte string.
    ///
    /// The length is validated against the remaining input *before* any
    /// allocation, so a corrupt huge length cannot trigger an OOM abort.
    #[inline]
    pub fn get_bytes(&mut self) -> SnapResult<&'a [u8]> {
        let len = self.get_usize()?;
        if len > self.remaining() {
            return Err(SnapError::Truncated);
        }
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> SnapResult<String> {
        let bytes = self.get_bytes()?;
        let s = std::str::from_utf8(bytes).map_err(|_| SnapError::Invalid("utf-8 string"))?;
        Ok(s.to_owned())
    }

    /// Reads `n` raw bytes with no length prefix.
    #[inline]
    pub fn get_raw(&mut self, n: usize) -> SnapResult<&'a [u8]> {
        self.take(n)
    }

    /// Reads a shape tag and checks it against `expected`; a mismatch is
    /// [`SnapError::TagMismatch`] naming `context`.
    #[inline]
    pub fn expect_tag(&mut self, context: &'static str, expected: u64) -> SnapResult<()> {
        let found = self.get_u64()?;
        if found == expected {
            Ok(())
        } else {
            Err(SnapError::TagMismatch {
                context,
                expected,
                found,
            })
        }
    }
}

/// A decoded frame header plus its validated payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framed<'a> {
    /// Caller-defined record kind (e.g. connection vs analyzer snapshot).
    pub kind: u32,
    /// Format version the payload was written with.
    pub version: u32,
    /// The CRC-validated payload bytes.
    pub payload: &'a [u8],
}

/// Bytes of the [`frame`] header: magic, kind, version, length, CRC-32.
const FRAME_HEADER: usize = MAGIC.len() + 4 + 4 + 8 + 4;

/// Wraps `payload` in the snapshot frame: magic, kind, version, length,
/// CRC-32, payload.
//= pftk#snapshot-codec
#[must_use]
pub fn frame(kind: u32, version: u32, payload: &[u8]) -> Vec<u8> {
    frame_with(kind, version, payload.len(), |w| w.put_raw(payload))
}

/// Builds a frame in place: `write` encodes the payload straight into
/// the buffer that is returned, after a header whose length and CRC are
/// filled in afterwards, so the payload is never copied. `capacity` is a
/// hint for the payload size. The bytes equal
/// `frame(kind, version, &payload)`.
#[must_use]
pub fn frame_with(
    kind: u32,
    version: u32,
    capacity: usize,
    write: impl FnOnce(&mut SnapWriter),
) -> Vec<u8> {
    let mut w = SnapWriter::with_capacity(FRAME_HEADER + capacity);
    w.put_raw(&MAGIC);
    w.put_u32(kind);
    w.put_u32(version);
    w.put_u64(0);
    w.put_u32(0);
    write(&mut w);
    let mut out = w.into_bytes();
    let (header, payload) = out.split_at_mut(FRAME_HEADER);
    header[MAGIC.len() + 8..MAGIC.len() + 16]
        .copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[MAGIC.len() + 16..].copy_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// Parses and validates a frame produced by [`frame`].
///
/// `max_version` is the newest version the caller's decoder understands;
/// newer frames are rejected with [`SnapError::UnsupportedVersion`].
/// Trailing bytes after the payload are rejected ([`SnapError::TrailingBytes`]).
pub fn unframe(bytes: &[u8], max_version: u32) -> SnapResult<Framed<'_>> {
    let mut r = SnapReader::new(bytes);
    let magic = r.get_raw(MAGIC.len())?;
    if magic != MAGIC {
        return Err(SnapError::BadMagic);
    }
    let kind = r.get_u32()?;
    let version = r.get_u32()?;
    if version > max_version {
        return Err(SnapError::UnsupportedVersion {
            found: version,
            supported: max_version,
        });
    }
    let len = r.get_usize()?;
    let expected_crc = r.get_u32()?;
    if len != r.remaining() {
        return Err(if len > r.remaining() {
            SnapError::Truncated
        } else {
            SnapError::TrailingBytes
        });
    }
    let payload = r.get_raw(len)?;
    if crc32(payload) != expected_crc {
        return Err(SnapError::ChecksumMismatch);
    }
    Ok(Framed {
        kind,
        version,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_usize(12345);
        w.put_bool(true);
        w.put_bool(false);
        w.put_f64(-0.0);
        w.put_f64(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN with payload
        w.put_bytes(b"hello");
        w.put_str("snapshot");
        w.put_tag(99);
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_u8(), Ok(0xAB));
        assert_eq!(r.get_u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.get_u64(), Ok(u64::MAX - 3));
        assert_eq!(r.get_i64(), Ok(-42));
        assert_eq!(r.get_usize(), Ok(12345));
        assert_eq!(r.get_bool(), Ok(true));
        assert_eq!(r.get_bool(), Ok(false));
        assert_eq!(r.get_f64().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.get_f64().map(f64::to_bits), Ok(0x7FF8_0000_0000_1234));
        assert_eq!(r.get_bytes(), Ok(&b"hello"[..]));
        assert_eq!(r.get_str(), Ok("snapshot".to_owned()));
        assert_eq!(r.expect_tag("t", 99), Ok(()));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn truncated_reads_error() {
        let mut w = SnapWriter::new();
        w.put_u64(7);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert_eq!(r.get_u64(), Err(SnapError::Truncated));
    }

    #[test]
    fn bad_bool_and_huge_length_are_invalid_not_panics() {
        let mut r = SnapReader::new(&[7]);
        assert_eq!(r.get_bool(), Err(SnapError::Invalid("bool byte")));

        // Length prefix far beyond the buffer: must not allocate or panic.
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn tag_mismatch_reports_context() {
        let mut w = SnapWriter::new();
        w.put_tag(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            r.expect_tag("loss-kind", 2),
            Err(SnapError::TagMismatch {
                context: "loss-kind",
                expected: 2,
                found: 1
            })
        );
    }

    #[test]
    fn frame_round_trip_and_rejections() {
        let payload = b"state bytes".to_vec();
        let framed = frame(3, 1, &payload);
        let f = match unframe(&framed, 1) {
            Ok(f) => f,
            Err(e) => panic!("unframe failed: {e}"),
        };
        assert_eq!(f.kind, 3);
        assert_eq!(f.version, 1);
        assert_eq!(f.payload, &payload[..]);

        // Newer version than supported.
        let newer = frame(3, 2, &payload);
        assert_eq!(
            unframe(&newer, 1),
            Err(SnapError::UnsupportedVersion {
                found: 2,
                supported: 1
            })
        );

        // Flip a payload bit: checksum catches it.
        let mut corrupt = framed.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        assert_eq!(unframe(&corrupt, 1), Err(SnapError::ChecksumMismatch));

        // Truncate mid-payload.
        assert_eq!(
            unframe(&framed[..framed.len() - 3], 1),
            Err(SnapError::Truncated)
        );

        // Bad magic.
        let mut nomagic = framed.clone();
        nomagic[0] ^= 0xFF;
        assert_eq!(unframe(&nomagic, 1), Err(SnapError::BadMagic));

        // Trailing junk.
        let mut long = framed;
        long.push(0);
        assert_eq!(unframe(&long, 1), Err(SnapError::TrailingBytes));
    }

    #[test]
    fn varints_round_trip_in_shortest_form_only() {
        let values = [0, 1, 127, 128, 300, 1 << 35, u64::MAX - 1, u64::MAX];
        let mut w = SnapWriter::new();
        for v in values {
            w.put_varint(v);
        }
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 1 + 1 + 2 + 2 + 6 + 10 + 10);
        let mut r = SnapReader::new(&bytes);
        for v in values {
            assert_eq!(r.get_varint(), Ok(v));
        }
        assert_eq!(r.finish(), Ok(()));

        let invalid: [&[u8]; 4] = [
            &[0x80, 0x00],                                                 // trailing zero group
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02], // past 64 bits
            &[
                0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01,
            ], // eleven bytes
            &[0x80],                                                       // truncated
        ];
        for bytes in invalid {
            assert!(SnapReader::new(bytes).get_varint().is_err(), "{bytes:?}");
        }
    }

    #[test]
    fn scaled_floats_round_trip_bit_for_bit() {
        let rtts = [0.0, 1e-9, 0.1, 0.087_654_321, 3.5, 1e3];
        let odd = [
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1 + 1e-13,
            -2.0,
            1e300,
        ];
        let flights = [0.0f64, 1.0, 44.0, 1e15];
        let mut w = SnapWriter::new();
        for v in rtts.iter().chain(&odd) {
            w.put_scaled_f64(*v, 1e9);
        }
        for flight in flights {
            w.put_scaled_f64(flight, 1.0);
        }
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        for v in rtts.iter().chain(&odd) {
            assert_eq!(r.get_scaled_f64(1e9).map(f64::to_bits), Ok(v.to_bits()));
        }
        for flight in flights {
            assert_eq!(
                r.get_scaled_f64(1.0).map(f64::to_bits),
                Ok(flight.to_bits())
            );
        }
        assert_eq!(r.finish(), Ok(()));
        // On the grid, an RTT costs a varint of twice its nanoseconds:
        // four bytes for 100 ms. Off it, one marker byte and the bits.
        let mut w = SnapWriter::new();
        w.put_scaled_f64(0.1, 1e9);
        w.put_scaled_f64(f64::NAN, 1e9);
        assert_eq!(w.len(), 4 + 9);

        // Raw bits the integer form could carry, and odd forms other than
        // the raw-bits marker, are rejected.
        let mut w = SnapWriter::new();
        w.put_varint(1);
        w.put_f64(0.5);
        assert!(SnapReader::new(&w.into_bytes())
            .get_scaled_f64(1e9)
            .is_err());
        assert!(SnapReader::new(&[3]).get_scaled_f64(1e9).is_err());
    }

    #[test]
    fn frame_with_equals_frame() {
        let payload = b"written in place".to_vec();
        let framed = frame_with(4, 2, 0, |w| w.put_raw(&payload));
        assert_eq!(framed, frame(4, 2, &payload));
        assert_eq!(unframe(&framed, 2).map(|f| f.payload), Ok(&payload[..]));
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
