//! Property-based tests of the snapshot codec: random valid snapshots
//! decode bit-identically, and corrupted ones (bit flips, truncation,
//! garbage) return `Err` — never panic, never silently succeed with a
//! damaged payload. Mirrors the lenient-decoder fuzz precedent in
//! `tcp-trace` (`decode_binary_lenient`).

use pftk_snap::{crc32, frame, unframe, SnapReader, SnapWriter, MAGIC};
use proptest::prelude::*;

/// One typed write in a snapshot script. The decoder must replay the
/// exact same op sequence, so the script itself is the shared schema.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    U8(u8),
    U32(u32),
    U64(u64),
    I64(i64),
    Usize(usize),
    Bool(bool),
    /// Stored as raw bits so NaN payloads and -0.0 are preserved exactly.
    F64(u64),
    Bytes(u64),
    Str(u64),
    Tag(u64),
    Varint(u64),
    /// A scaled integer (`put_scaled_u64` at 1e9).
    Scaled(u64),
}

/// Deterministic filler: expands a seed into `len` bytes.
fn fill_bytes(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64) >> 7) as u8)
        .collect()
}

/// Deterministic ASCII filler (put_str requires valid UTF-8).
fn fill_str(seed: u64, len: usize) -> String {
    fill_bytes(seed, len)
        .into_iter()
        .map(|b| (b'a' + b % 26) as char)
        .collect()
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..12, 0u64..=u64::MAX).prop_map(|(kind, v)| match kind {
        0 => Op::U8(v as u8),
        1 => Op::U32(v as u32),
        2 => Op::U64(v),
        3 => Op::I64(v as i64),
        4 => Op::Usize(v as usize),
        5 => Op::Bool(v & 1 == 1),
        // Raw bits: ~49% of draws are non-finite or subnormal corners.
        6 => Op::F64(v),
        7 => Op::Bytes(v),
        8 => Op::Str(v),
        9 => Op::Tag(v),
        10 => Op::Varint(v >> (v % 64)),
        // Half the draws below 2^40 (the integer written directly), half
        // anywhere (mostly the float fallback).
        _ if v & 1 == 0 => Op::Scaled(v >> 24),
        _ => Op::Scaled(v),
    })
}

fn script_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_strategy(), 1..40)
}

fn encode(script: &[Op]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    for op in script {
        match *op {
            Op::U8(v) => w.put_u8(v),
            Op::U32(v) => w.put_u32(v),
            Op::U64(v) => w.put_u64(v),
            Op::I64(v) => w.put_i64(v),
            Op::Usize(v) => w.put_usize(v),
            Op::Bool(v) => w.put_bool(v),
            Op::F64(bits) => w.put_f64(f64::from_bits(bits)),
            Op::Bytes(seed) => w.put_bytes(&fill_bytes(seed, (seed % 23) as usize)),
            Op::Str(seed) => w.put_str(&fill_str(seed, (seed % 17) as usize)),
            Op::Tag(v) => w.put_tag(v),
            Op::Varint(v) => w.put_varint(v),
            Op::Scaled(n) => w.put_scaled_u64(n, 1e9),
        }
    }
    w.into_bytes()
}

/// Replays the script against a reader, checking every value decodes
/// bit-identically. Returns an error string on the first divergence.
fn decode_and_check(script: &[Op], bytes: &[u8]) -> Result<(), String> {
    let mut r = SnapReader::new(bytes);
    for (i, op) in script.iter().enumerate() {
        let ok = match *op {
            Op::U8(v) => r.get_u8() == Ok(v),
            Op::U32(v) => r.get_u32() == Ok(v),
            Op::U64(v) => r.get_u64() == Ok(v),
            Op::I64(v) => r.get_i64() == Ok(v),
            Op::Usize(v) => r.get_usize() == Ok(v),
            Op::Bool(v) => r.get_bool() == Ok(v),
            Op::F64(bits) => r.get_f64().map(f64::to_bits) == Ok(bits),
            Op::Bytes(seed) => r.get_bytes() == Ok(&fill_bytes(seed, (seed % 23) as usize)[..]),
            Op::Str(seed) => r.get_str() == Ok(fill_str(seed, (seed % 17) as usize)),
            Op::Tag(v) => r.expect_tag("prop", v).is_ok(),
            Op::Varint(v) => r.get_varint() == Ok(v),
            // Past 2^48 the integer read back may differ from the one
            // written, but never the float a reader makes of it.
            Op::Scaled(n) => r
                .get_scaled_u64(1e9)
                .is_ok_and(|m| (m as f64 / 1e9).to_bits() == (n as f64 / 1e9).to_bits()),
        };
        if !ok {
            return Err(format!("op {i} ({op:?}) did not round-trip"));
        }
    }
    r.finish().map_err(|e| format!("trailing bytes: {e}"))
}

/// Offsets of the kind..version header fields, which the CRC does *not*
/// cover — callers validate them semantically (kind dispatch, version
/// gate), so a flip there may still unframe successfully.
const KIND_OFFSET: usize = MAGIC.len();
const LEN_OFFSET: usize = MAGIC.len() + 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Round trip: any put-script frames, unframes, and decodes
    /// bit-identically (f64s compared as raw bits).
    //= pftk#snapshot-codec type=test
    #[test]
    fn random_snapshots_round_trip_bit_identically(
        script in script_strategy(),
        kind in 0u32..8,
        version in 1u32..4,
    ) {
        let payload = encode(&script);
        let framed = frame(kind, version, &payload);
        let parsed = match unframe(&framed, version) {
            Ok(p) => p,
            Err(e) => return Err(TestCaseError::Fail(format!("unframe failed: {e}"))),
        };
        prop_assert_eq!(parsed.kind, kind);
        prop_assert_eq!(parsed.version, version);
        prop_assert_eq!(parsed.payload, &payload[..]);
        if let Err(msg) = decode_and_check(&script, parsed.payload) {
            return Err(TestCaseError::Fail(msg));
        }
    }

    /// Truncation at any point — inside the header or the payload —
    /// is detected: unframe returns `Err`, never panics, never yields
    /// a shorter payload as if it were complete.
    #[test]
    fn any_truncation_is_rejected(script in script_strategy(), cut in 0u64..=u64::MAX) {
        let framed = frame(3, 1, &encode(&script));
        let cut = (cut % framed.len() as u64) as usize;
        prop_assert!(
            unframe(&framed[..cut], 1).is_err(),
            "truncation to {} of {} bytes decoded successfully",
            cut,
            framed.len()
        );
    }

    /// A single bit flip anywhere in the frame never panics, and is
    /// rejected everywhere the CRC (or structural validation) covers:
    /// magic, length, checksum, payload. Flips in the kind/version
    /// header fields may still unframe — those are validated by the
    /// caller's kind dispatch and version gate, not the CRC — but even
    /// then the payload must come through untouched.
    #[test]
    fn single_bit_flips_never_panic_and_corruption_is_caught(
        script in script_strategy(),
        pos in 0u64..=u64::MAX,
        bit in 0u8..8,
    ) {
        let payload = encode(&script);
        let mut framed = frame(5, 1, &payload);
        let pos = (pos % framed.len() as u64) as usize;
        framed[pos] ^= 1 << bit;
        match unframe(&framed, 1) {
            Err(_) => {}
            Ok(parsed) => {
                prop_assert!(
                    (KIND_OFFSET..LEN_OFFSET).contains(&pos),
                    "flip at byte {} (bit {}) outside the kind/version fields decoded successfully",
                    pos,
                    bit
                );
                prop_assert_eq!(
                    parsed.payload,
                    &payload[..],
                    "header-field flip altered the payload"
                );
            }
        }
    }

    /// Random garbage bytes never panic the reader: every accessor
    /// either returns a value or an `Err`, including on pathological
    /// length prefixes.
    #[test]
    fn reader_never_panics_on_garbage(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        let _ = unframe(&bytes, u32::MAX);
        let mut r = SnapReader::new(&bytes);
        // Walk the buffer with every accessor in rotation until it errors.
        let mut i = 0u32;
        loop {
            let step: Result<(), pftk_snap::SnapError> = match i % 10 {
                0 => r.get_u8().map(|_| ()),
                1 => r.get_u32().map(|_| ()),
                2 => r.get_bool().map(|_| ()),
                3 => r.get_f64().map(|_| ()),
                4 => r.get_bytes().map(|_| ()),
                5 => r.get_str().map(|_| ()),
                6 => r.get_i64().map(|_| ()),
                7 => r.get_varint().map(|_| ()),
                8 => r.get_scaled_u64(1e9).map(|_| ()),
                _ => r.expect_tag("garbage", 0),
            };
            if step.is_err() {
                break;
            }
            i += 1;
            if i > 1024 {
                break;
            }
        }
        let _ = r.finish();
    }

    /// Flipping any payload bit changes the CRC — the checksum actually
    /// discriminates, it is not a constant.
    #[test]
    fn crc_discriminates_payload_flips(
        script in script_strategy(),
        pos in 0u64..=u64::MAX,
        bit in 0u8..8,
    ) {
        let mut payload = encode(&script);
        prop_assume!(!payload.is_empty());
        let before = crc32(&payload);
        let pos = (pos % payload.len() as u64) as usize;
        payload[pos] ^= 1 << bit;
        prop_assert_ne!(before, crc32(&payload));
    }
}
