//! Deterministic random-number generation.
//!
//! Every stochastic element of the simulator (loss draws, RTT jitter,
//! timeout placement) pulls from a [`SimRng`] seeded explicitly, so a run is
//! a pure function of its configuration — reruns reproduce traces bit for
//! bit, which the integration tests rely on.
//!
//! The generator is ChaCha8 (RFC 8439 state layout, 8 rounds, zero nonce),
//! implemented here rather than behind a crate boundary: [`SimRng`] owns
//! the key, the 64-bit block counter, one 16-word output block and the
//! read position, so the draw path ([`SimRng::open01`], [`SimRng::chance`])
//! inlines into the loops that call it and only the block refill — one
//! call per 16 words — stays out of line. A 64-bit seed is expanded into
//! the 32-byte key with SplitMix64, and 64-bit draws take the low word
//! first. A generator's state is fully described by its seed and the
//! number of words consumed, which is what snapshots store.

use pftk_snap::{SnapReader, SnapResult, SnapWriter};

/// ChaCha's "expand 32-byte k" constant (state words 0..4).
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Words per ChaCha output block.
const BLOCK_WORDS: usize = 16;

/// `2^-53`: scales a 53-bit integer into `[0, 1)`.
const UNIT_53: f64 = 1.0 / 9_007_199_254_740_992.0;

/// Maps a 53-bit value `x` to `(x + ½)·2⁻⁵³`. Below 2⁵² the sum is exact,
/// giving `[2⁻⁵⁴, ½ − 2⁻⁵⁴]`. From 2⁵² up, `x + 0.5` needs a 54th bit and
/// rounds half to even: an even `x` maps to `x·2⁻⁵³`, an odd one to
/// `(x + 1)·2⁻⁵³`, so `x = 2⁵³ − 1` maps to exactly 1.0.
#[inline]
fn half_ulp_unit(x: u64) -> f64 {
    //~ allow(cast): 53-bit integer to f64 is exact
    (x as f64 + 0.5) * UNIT_53
}

/// One row of the 4×4 ChaCha state.
type Row = [u32; 4];

/// Lane-wise `a + b`.
#[inline(always)]
fn add(mut a: Row, b: Row) -> Row {
    for (x, y) in a.iter_mut().zip(b) {
        *x = x.wrapping_add(y);
    }
    a
}

/// Lane-wise `(a ^ b) <<< n`.
#[inline(always)]
fn xor_rotate(mut a: Row, b: Row, n: u32) -> Row {
    for (x, y) in a.iter_mut().zip(b) {
        *x = (*x ^ y).rotate_left(n);
    }
    a
}

/// Rotates the lanes of a row left by one, two or three places.
#[inline(always)]
fn lanes_left_1([a, b, c, d]: Row) -> Row {
    [b, c, d, a]
}

#[inline(always)]
fn lanes_left_2([a, b, c, d]: Row) -> Row {
    [c, d, a, b]
}

#[inline(always)]
fn lanes_left_3([a, b, c, d]: Row) -> Row {
    [d, a, b, c]
}

/// Four ChaCha quarter rounds at once, lane `i` on the words
/// `(a[i], b[i], c[i], d[i])`.
#[inline(always)]
fn quarter_rounds(mut a: Row, mut b: Row, mut c: Row, mut d: Row) -> (Row, Row, Row, Row) {
    a = add(a, b);
    d = xor_rotate(d, a, 16);
    c = add(c, d);
    b = xor_rotate(b, c, 12);
    a = add(a, b);
    d = xor_rotate(d, a, 8);
    c = add(c, d);
    b = xor_rotate(b, c, 7);
    (a, b, c, d)
}

/// The eight ChaCha rounds over a state block held as four rows, before
/// the final feed-forward addition. A column round is four lane-parallel
/// quarter rounds; a diagonal round is the same after rotating rows 1–3
/// left by one to three lanes, and rotating them back after.
#[inline(always)]
fn chacha8_rounds(mut a: Row, mut b: Row, mut c: Row, mut d: Row) -> (Row, Row, Row, Row) {
    for _ in 0..4 {
        (a, b, c, d) = quarter_rounds(a, b, c, d);
        let (a2, b2, c2, d2) = quarter_rounds(a, lanes_left_1(b), lanes_left_2(c), lanes_left_3(d));
        (a, b, c, d) = (a2, lanes_left_3(b2), lanes_left_2(c2), lanes_left_1(d2));
    }
    (a, b, c, d)
}

/// The two key rows of the ChaCha state.
#[inline(always)]
fn split_key([k0, k1, k2, k3, k4, k5, k6, k7]: [u32; 8]) -> (Row, Row) {
    ([k0, k1, k2, k3], [k4, k5, k6, k7])
}

/// SplitMix64's increment, the 64-bit golden ratio.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output finalizer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step, used to expand a 64-bit seed into a key.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix64(*state)
}

/// A seedable, deterministic ChaCha8 stream (fast, high-quality, portable
/// across platforms; see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct SimRng {
    /// Key words (state words 4..12).
    key: [u32; 8],
    /// Counter of the next block to generate (state words 12..14).
    counter: u64,
    /// The current output block.
    block: [u32; BLOCK_WORDS],
    /// Next unread word of `block`; `BLOCK_WORDS` means "generate the next
    /// block first".
    pos: usize,
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    //= pftk#det-seeded-streams
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut bytes = [0u8; 32];
        let mut sm = seed;
        for chunk in bytes.chunks_exact_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut sm).to_le_bytes());
        }
        SimRng::from_seed(bytes)
    }

    /// Creates an RNG keyed by the 32 bytes of `seed` (little-endian key
    /// words), positioned at the start of its stream.
    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        SimRng {
            key,
            counter: 0,
            block: [0; BLOCK_WORDS],
            pos: BLOCK_WORDS,
        }
    }

    /// The 32-byte seed this stream was keyed with (the inverse of
    /// [`Self::from_seed`]).
    fn seed(&self) -> [u8; 32] {
        let mut seed = [0u8; 32];
        for (chunk, k) in seed.chunks_exact_mut(4).zip(&self.key) {
            chunk.copy_from_slice(&k.to_le_bytes());
        }
        seed
    }

    /// Generates the block for `counter` and advances the counter. Out of
    /// line: it runs once per 16 words, and keeping it out of the draw
    /// path keeps that path small enough to inline.
    #[inline(never)]
    fn refill(&mut self) {
        let c0 = self.counter as u32; //~ allow(cast): low half of the 64-bit block counter
        let c1 = (self.counter >> 32) as u32; //~ allow(cast): high half of the 64-bit block counter
        let (k0, k1) = split_key(self.key);
        // Constant, key, counter, then the nonce words, always zero.
        let d0 = [c0, c1, 0, 0];
        let (a, b, c, d) = chacha8_rounds(SIGMA, k0, k1, d0);
        let rows = [add(a, SIGMA), add(b, k0), add(c, k1), add(d, d0)];
        for (out, word) in self.block.iter_mut().zip(rows.iter().flatten()) {
            *out = *word;
        }
        self.counter = self.counter.wrapping_add(1);
        self.pos = 0;
    }

    /// The next 32-bit word of the keystream.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.pos >= BLOCK_WORDS {
            self.refill();
        }
        let w = self.block[self.pos]; //~ allow(hot_panic): pos < BLOCK_WORDS after the refill above
        self.pos += 1;
        w
    }

    /// The next 64 bits: the next word low, the one after it high.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if let Some(&[lo, hi]) = self.block.get(self.pos..self.pos + 2) {
            // Both words are in the current block.
            self.pos += 2;
            return (u64::from(hi) << 32) | u64::from(lo);
        }
        let lo = self.next_u32();
        let hi = self.next_u32();
        (u64::from(hi) << 32) | u64::from(lo)
    }

    /// Fills `dest` with keystream words, little-endian, one word per four
    /// bytes (a short tail takes the low bytes of one more word).
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            let bytes = self.next_u32().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Keystream words consumed since the stream started.
    fn word_pos(&self) -> u64 {
        if self.pos >= BLOCK_WORDS {
            self.counter.wrapping_mul(16)
        } else {
            // The current block was generated for `counter - 1`.
            let spent = self.pos as u64; //~ allow(cast): block index below 16 widens losslessly
            self.counter
                .wrapping_sub(1)
                .wrapping_mul(16)
                .wrapping_add(spent)
        }
    }

    /// Repositions the stream `pos` words from its start, as reported by
    /// [`Self::word_pos`].
    fn set_word_pos(&mut self, pos: u64) {
        self.counter = pos / 16;
        let in_block = (pos % 16) as usize; //~ allow(cast): remainder below 16 fits usize
        if in_block == 0 {
            // On a block boundary: generate lazily, like a fresh stream.
            self.pos = BLOCK_WORDS;
        } else {
            // Mid-block: regenerate this block and skip the spent words.
            self.refill();
            self.pos = in_block;
        }
    }

    /// Derives an independent child stream; used so that e.g. the loss
    /// process and the jitter process cannot influence each other by
    /// consuming from a shared stream.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let mut seed = [0u8; 32];
        self.fill_bytes(&mut seed);
        // Mix the label in so identical fork orders with different labels
        // still diverge.
        for (i, b) in label.to_le_bytes().iter().enumerate() {
            seed[i] ^= b;
        }
        SimRng::from_seed(seed)
    }

    /// Writes the stream state (seed + keystream position) so a restored
    /// generator continues the identical random stream.
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_raw(&self.seed());
        w.put_u64(self.word_pos());
    }

    /// Repositions this generator to a state written by
    /// [`Self::snapshot_into`].
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> SnapResult<()> {
        let mut seed = [0u8; 32];
        seed.copy_from_slice(r.get_raw(32)?);
        let pos = r.get_u64()?;
        let mut restored = SimRng::from_seed(seed);
        restored.set_word_pos(pos);
        *self = restored;
        Ok(())
    }

    /// A uniform draw in `(0, 1]`: 53 random bits `x` mapped to
    /// `(x + ½)·2⁻⁵³`, so the smallest value is 2⁻⁵⁴ and `ln` of a draw is
    /// always finite. Above one half the sum rounds to an even `x`, and
    /// the largest `x` gives exactly 1.0 (once in 2⁵³ draws).
    #[inline]
    pub fn open01(&mut self) -> f64 {
        half_ulp_unit(self.next_u64() >> 11)
    }

    /// Bernoulli draw with success probability `p` (clamped to [0, 1]).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.open01() < p
        }
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    #[inline]
    pub fn uniform_u32(&mut self, lo: u32, hi: u32) -> u32 {
        debug_assert!(lo <= hi, "uniform_u32: empty range");
        // The span is at most 2^32, so it never wraps to zero.
        let span = u64::from(hi.wrapping_sub(lo)) + 1;
        lo.wrapping_add((self.next_u64() % span) as u32) //~ allow(cast): remainder below the u32 span
    }

    /// Uniform integer in `[lo, hi]` inclusive (64-bit; used for
    /// nanosecond-granularity delay draws).
    #[inline]
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi, "uniform_u64: empty range");
        let span = hi.wrapping_sub(lo).wrapping_add(1);
        if span == 0 {
            // The full 64-bit range: every value is fair game.
            return self.next_u64();
        }
        lo.wrapping_add(self.next_u64() % span)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if lo >= hi {
            return lo;
        }
        //~ allow(cast): 53-bit integer to f64 is exact
        let unit = (self.next_u64() >> 11) as f64 * UNIT_53;
        let v = lo + (hi - lo) * unit;
        if v >= hi {
            // Rounding can land exactly on `hi`; nudge back inside.
            lo.max(v.min(hi - (hi - lo) * f64::EPSILON))
        } else {
            v
        }
    }

    /// A geometric draw: number of Bernoulli(p) trials up to and including
    /// the first success, i.e. `P[K = k] = (1-p)^{k-1} p`. Used by the
    /// rounds-based simulator for first-loss positions. Capped at `cap` to
    /// bound pathological draws when `p` is microscopic.
    pub fn geometric(&mut self, p: f64, cap: u64) -> u64 {
        debug_assert!(p > 0.0 && p < 1.0);
        // Inverse-CDF sampling: K = ceil(ln(U) / ln(1-p)).
        let u: f64 = self.open01();
        let k = (u.ln() / (1.0 - p).ln()).ceil();
        if k < 1.0 {
            1
        //~ allow(cast): integer count to f64, exact below 2^53
        } else if k >= cap as f64 {
            cap
        } else {
            k as u64 //~ allow(cast): deliberate float truncation after round/floor
        }
    }
}

/// Deterministic per-flow seed for fleet campaigns: a splitmix64-style
/// finalizer over the campaign seed and the *global* flow id.
///
/// A flow's random stream is a pure function of `(base_seed, flow_id)` —
/// never of the shard the flow landed on, the shard count, or the worker
/// schedule — which is what makes fleet output bit-identical across
/// 1/2/8-shard runs (the fleet analogue of `PFTK_REPLAY_WORKERS`).
//= pftk#det-seeded-streams
pub fn flow_seed(base_seed: u64, flow_id: u64) -> u64 {
    mix64(base_seed ^ flow_id.wrapping_mul(GOLDEN_GAMMA))
}

#[cfg(test)]
mod tests {
    use super::*;

    //= pftk#det-seeded-streams type=test
    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.open01(), b.open01());
        }
    }

    #[test]
    fn half_ulp_unit_edges() {
        let unit = |x: u64| half_ulp_unit(x).to_bits();
        assert_eq!(unit(0), 2f64.powi(-54).to_bits());
        assert_eq!(unit((1 << 52) - 1), (0.5 - 2f64.powi(-54)).to_bits());
        assert_eq!(unit(1 << 52), 0.5f64.to_bits());
        assert_eq!(unit((1 << 53) - 1), 1.0f64.to_bits());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.open01() == b.open01()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let mut root1 = SimRng::seed_from_u64(42);
        let mut root2 = SimRng::seed_from_u64(42);
        let mut f1 = root1.fork(1);
        let mut f2 = root2.fork(1);
        for _ in 0..10 {
            assert_eq!(f1.open01(), f2.open01());
        }
        // Different labels at the same fork point give different streams.
        let mut r1 = SimRng::seed_from_u64(42);
        let mut g1 = r1.fork(1);
        let mut r2 = SimRng::seed_from_u64(42);
        let mut g2 = r2.fork(2);
        assert_ne!(g1.open01(), g2.open01());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(0);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_frequency_close_to_p() {
        let mut rng = SimRng::seed_from_u64(3);
        let n = 200_000;
        let hits = (0..n).filter(|_| rng.chance(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq={freq}");
    }

    #[test]
    fn geometric_mean_close_to_1_over_p() {
        let mut rng = SimRng::seed_from_u64(9);
        let p = 0.05;
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| rng.geometric(p, u64::MAX)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 20.0).abs() < 0.5, "mean={mean}");
    }

    #[test]
    fn geometric_respects_cap() {
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert!(rng.geometric(1e-9, 10) <= 10);
        }
    }

    #[test]
    fn snapshot_resumes_identical_stream() {
        let mut root = SimRng::seed_from_u64(11);
        let mut rng = root.fork(2);
        for _ in 0..37 {
            rng.open01();
        }
        let mut w = SnapWriter::new();
        rng.snapshot_into(&mut w);
        let bytes = w.into_bytes();
        let mut restored = SimRng::seed_from_u64(0);
        let mut r = SnapReader::new(&bytes);
        restored.restore_from(&mut r).unwrap();
        r.finish().unwrap();
        for _ in 0..100 {
            assert_eq!(rng.open01().to_bits(), restored.open01().to_bits());
        }
    }

    #[test]
    fn flow_seed_depends_only_on_base_and_flow() {
        assert_eq!(flow_seed(1, 2), flow_seed(1, 2));
        assert_ne!(flow_seed(1, 2), flow_seed(1, 3));
        assert_ne!(flow_seed(1, 2), flow_seed(2, 2));
        // Adjacent flow ids must not produce correlated seeds that collide.
        let seeds: std::collections::BTreeSet<u64> =
            (0..10_000u64).map(|f| flow_seed(0xABCD, f)).collect();
        assert_eq!(seeds.len(), 10_000);
    }

    /// The first eight 64-bit draws of fixed seeds, and of one fork,
    /// recorded from the generator this module replaced: the keystream, the
    /// SplitMix64 key expansion, the word order of a 64-bit draw and the
    /// fork derivation are all pinned.
    #[test]
    fn pinned_streams() {
        let cases: [(u64, [u64; 8]); 4] = [
            (
                0,
                [
                    0xBF94_D133_2D8E_E5E8,
                    0x3A73_8775_A6DA_5A01,
                    0x3D46_FF10_C143_EE06,
                    0x17C6_AB23_E9F6_424F,
                    0x5CE2_479B_2FB6_898B,
                    0x0AE8_099F_86BF_F662,
                    0x5F2F_09FD_C72F_90BD,
                    0x95D5_3EFA_28E5_A01F,
                ],
            ),
            (
                1,
                [
                    0xEF72_EAF4_48A8_B558,
                    0x8A33_BA97_599A_55B3,
                    0x0C40_074E_E248_F1EE,
                    0xDBB1_6098_5B66_0E10,
                    0x7285_8F91_22A8_CE78,
                    0x1A91_5DFC_6EC9_D0A6,
                    0xF285_32B6_B682_3C71,
                    0x42BD_7361_C283_1367,
                ],
            ),
            (
                42,
                [
                    0x3115_9EF9_87C9_1AFC,
                    0x1755_9844_B416_9001,
                    0xF7D0_AFBF_9AD9_A69F,
                    0xB920_7AD5_FD37_495A,
                    0x072D_B0DB_6132_9C11,
                    0x4051_BC3B_ECA2_6593,
                    0xBFAA_B970_CC47_03B6,
                    0xAFF5_425D_8F89_D223,
                ],
            ),
            (
                u64::MAX,
                [
                    0x167F_CA9C_60EF_8644,
                    0xF792_FA24_F2F8_3696,
                    0x71E8_F282_DBCB_E0B1,
                    0xEBAA_0DCA_9492_A6E7,
                    0x438B_9759_FF25_B8BB,
                    0x3D92_CEA8_5DD8_C0CF,
                    0xE533_584B_2F5B_3043,
                    0x62A4_544F_E79A_FBC9,
                ],
            ),
        ];
        for (seed, want) in cases {
            let mut rng = SimRng::seed_from_u64(seed);
            let got: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
            assert_eq!(got, want, "seed {seed}");
        }
        let mut child = SimRng::seed_from_u64(42).fork(7);
        let got: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        let want = [
            0xEAA0_8E9C_41A1_5CDA,
            0x6FA0_37E8_1C8F_1D8B,
            0xD111_F36A_E50D_56B7,
            0xCDBE_5383_E06F_E3F3,
            0x74BB_C491_53BA_9FE7,
            0xB3C6_2D8D_4FD7_52DA,
            0x4394_CA54_302F_9EEE,
            0x00A6_E427_ABE3_7E45,
        ];
        assert_eq!(got, want, "fork(7) of seed 42");
    }

    /// A 64-bit draw is two consecutive words, low first, including
    /// across a block boundary (the fast path covers in-block pairs only).
    #[test]
    fn u64_draws_are_word_pairs_at_every_offset() {
        for offset in 0..20 {
            let mut a = SimRng::seed_from_u64(5);
            let mut b = SimRng::seed_from_u64(5);
            for _ in 0..offset {
                a.next_u32();
                b.next_u32();
            }
            for _ in 0..40 {
                let lo = u64::from(b.next_u32());
                let hi = u64::from(b.next_u32());
                assert_eq!(a.next_u64(), (hi << 32) | lo, "offset {offset}");
            }
        }
    }

    #[test]
    fn word_pos_save_restore_resumes_identical_stream() {
        // At every offset (fresh, mid-block, on and around block
        // boundaries) the (seed, word position) pair fully describes the
        // stream state.
        for consumed in [0u64, 1, 15, 16, 17, 31, 32, 100] {
            let mut original = SimRng::seed_from_u64(42);
            for _ in 0..consumed {
                original.next_u32();
            }
            assert_eq!(original.word_pos(), consumed);
            let mut restored = SimRng::from_seed(original.seed());
            restored.set_word_pos(original.word_pos());
            assert_eq!(restored.word_pos(), consumed);
            for i in 0..64 {
                assert_eq!(
                    original.next_u32(),
                    restored.next_u32(),
                    "diverged at word {i} after consuming {consumed}"
                );
            }
        }
    }

    #[test]
    fn seed_round_trips() {
        let mut seed = [0u8; 32];
        for (i, b) in (0u8..).zip(seed.iter_mut()) {
            *b = i.wrapping_mul(37).wrapping_add(5);
        }
        assert_eq!(SimRng::from_seed(seed).seed(), seed);
    }

    #[test]
    fn fill_bytes_matches_words() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(1);
        let mut buf = [0u8; 10];
        a.fill_bytes(&mut buf);
        assert_eq!(&buf[..4], &b.next_u32().to_le_bytes());
        assert_eq!(&buf[4..8], &b.next_u32().to_le_bytes());
        assert_eq!(&buf[8..], &b.next_u32().to_le_bytes()[..2]);
        // A short tail still spends a whole word.
        assert_eq!(a.next_u32(), b.next_u32());
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..1000 {
            let v = rng.uniform_u32(3, 7);
            assert!((3..=7).contains(&v));
            let w = rng.uniform_u64(10, 20);
            assert!((10..=20).contains(&w));
            let f = rng.uniform_f64(1.0, 2.0);
            assert!((1.0..2.0).contains(&f));
        }
        assert_eq!(rng.uniform_f64(5.0, 5.0), 5.0);
    }
}
