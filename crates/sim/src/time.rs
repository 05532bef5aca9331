//! Simulated time.
//!
//! Integer nanoseconds in a newtype: total order, exact arithmetic, no
//! floating-point drift in the event queue. An hour-long trace is ~3.6e12 ns,
//! comfortably inside `u64` (which holds ~584 years).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock (nanoseconds since simulation start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span between two [`SimTime`]s (nanoseconds).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

/// `(secs * 1e9).round() as u64` for `secs >= 0`, without the libm call
/// that `round` is on baseline x86-64 (once per RTT sample, in the RTO
/// update). Below 2^52 the truncation `t` and the fraction `x - t` are
/// exact; from there on `x` is an integer and the fraction is 0. Ties
/// round up, as `round` rounds them away from zero, and the cast
/// saturates as `round() as u64` does.
#[inline]
fn nanos_of_secs(secs: f64) -> u64 {
    let x = secs * 1e9;
    let t = x as u64; //~ allow(cast): saturating truncation, rounded up below when the fraction is at least a half
    t.saturating_add(u64::from(x - t as f64 >= 0.5)) //~ allow(cast): t is exact wherever x has a fraction
}

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Builds an instant from (possibly fractional) seconds. Panics on
    /// negative or non-finite input — simulation clocks don't run backwards.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid time {secs}");
        SimTime(nanos_of_secs(secs))
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9 //~ allow(cast): integer count to f64, exact below 2^53
    }

    /// Saturating difference: `self - earlier`, clamped at zero.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a span from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a span from (possibly fractional) seconds. Panics on negative
    /// or non-finite input.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration {secs}"); //~ allow(hot_panic): boundary guard; rejects NaN/negative spans at construction
        SimDuration(nanos_of_secs(secs))
    }

    /// Nanoseconds in this span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds in this span, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9 //~ allow(cast): integer count to f64, exact below 2^53
    }

    /// Doubles the span, saturating — used by RTO exponential backoff.
    pub fn saturating_double(self) -> SimDuration {
        SimDuration(self.0.saturating_mul(2))
    }

    /// Multiplies by an integer factor, saturating.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Element-wise maximum.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Element-wise minimum.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                //~ allow(expect): clock overflow is a simulation bug; panicking is this Add/Sub contract
                .expect("simulation clock overflow"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative duration")) //~ allow(expect): clock overflow is a simulation bug; panicking is this Add/Sub contract
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow")) //~ allow(expect): clock overflow is a simulation bug; panicking is this Add/Sub contract
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The libm-free rounding agrees with `round() as u64` everywhere:
    /// exact halves, the values either side of them, the 2^52 and 2^53
    /// boundaries, saturation, and random seconds at every magnitude.
    #[test]
    fn nanos_of_secs_matches_round() {
        let mut xs: Vec<f64> = vec![
            0.0, -0.0, 1e-10, 4.9e-10, 5e-10, 1.5e-9, 2.5e-9, 0.243, 3600.0,
        ];
        for e in [
            0.5f64,
            1.5,
            2.5,
            1e6 + 0.5,
            4503599627370495.5,
            4503599627370496.0,
            9007199254740993.0,
        ] {
            for x in [
                e,
                f64::from_bits(e.to_bits() - 1),
                f64::from_bits(e.to_bits() + 1),
            ] {
                xs.push(x / 1e9);
            }
        }
        xs.extend([1.8e10, 1.8446744073709552e10, 1e11, 1e300, f64::MAX]);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..200_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mantissa = (state >> 11) as f64 / (1u64 << 53) as f64;
            xs.push(mantissa * 10f64.powi((state % 24) as i32 - 12));
        }
        for secs in xs {
            assert_eq!(nanos_of_secs(secs), (secs * 1e9).round() as u64, "{secs:e}");
        }
    }

    #[test]
    fn conversions_roundtrip() {
        let t = SimTime::from_secs_f64(0.243);
        assert!((t.as_secs_f64() - 0.243).abs() < 1e-9);
        assert_eq!(SimTime::from_nanos(5).as_nanos(), 5);
        assert_eq!(SimDuration::from_millis(200).as_nanos(), 200_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_nanos(100);
        let d = SimDuration::from_nanos(50);
        assert_eq!((t + d).as_nanos(), 150);
        assert_eq!(((t + d) - t).as_nanos(), 50);
        let mut t2 = t;
        t2 += d;
        assert_eq!(t2.as_nanos(), 150);
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn backwards_subtraction_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a).as_nanos(), 1);
    }

    #[test]
    fn doubling_saturates() {
        let d = SimDuration::from_nanos(u64::MAX - 1);
        assert_eq!(d.saturating_double().as_nanos(), u64::MAX);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![
            SimTime::from_nanos(3),
            SimTime::from_nanos(1),
            SimTime::from_nanos(2),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                SimTime::from_nanos(1),
                SimTime::from_nanos(2),
                SimTime::from_nanos(3)
            ]
        );
    }

    #[test]
    #[should_panic]
    fn negative_seconds_rejected() {
        let _ = SimTime::from_secs_f64(-0.1);
    }

    #[test]
    fn min_max() {
        let a = SimDuration::from_nanos(10);
        let b = SimDuration::from_nanos(20);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(format!("{}", SimTime::from_secs_f64(1.5)), "1.500000s");
        assert_eq!(format!("{}", SimDuration::from_millis(250)), "0.250000s");
    }
}
