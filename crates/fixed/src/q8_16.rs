//! The Q8.16 datapath type of the Non-Conv unit.

use std::fmt;

use crate::round::{round_f64, shift_right_half_away};

/// Total bit width of the Non-Conv constants (paper: "24-bit fixed-point").
pub const Q8X16_TOTAL_BITS: u32 = 24;
/// Integer bits (including sign), paper: "8 integer bits".
pub const Q8X16_INT_BITS: u32 = 8;
/// Fractional bits, paper: "16 fractional bits".
pub const Q8X16_FRAC_BITS: u32 = 16;

const RAW_MAX: i32 = (1 << (Q8X16_TOTAL_BITS - 1)) - 1; // 8388607
const RAW_MIN: i32 = -(1 << (Q8X16_TOTAL_BITS - 1)); // -8388608

/// A 24-bit Q8.16 fixed-point number — the representation the EDEA Non-Conv
/// unit uses for the folded batch-norm/quantization constants `k` and `b`
/// (paper Sec. III-C: "we select k and b as 24-bit fixed-point numbers with 8
/// integer bits and 16 fractional bits").
///
/// The value represented is `raw / 2^16`, with `raw` a 24-bit two's-complement
/// integer stored in an `i32`. All arithmetic is bit-exact with respect to the
/// hardware: multiplication by an integer accumulator value is performed in
/// wide precision and only rounded/ saturated where the RTL would.
///
/// # Example
///
/// ```
/// use edea_fixed::Q8x16;
///
/// let k = Q8x16::from_f64(0.5);
/// let b = Q8x16::from_f64(1.25);
/// // y = k*x + b for x = 7  ->  4.75, still in Q8.16:
/// let y = k.mul_int_add(7, b);
/// assert_eq!(y.to_f64(), 4.75);
/// assert_eq!(y.round_to_int(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Q8x16(i32);

impl Q8x16 {
    /// Zero.
    pub const ZERO: Self = Self(0);
    /// One (raw `1 << 16`).
    pub const ONE: Self = Self(1 << Q8X16_FRAC_BITS);
    /// Largest representable value, `127.99998474…`.
    pub const MAX: Self = Self(RAW_MAX);
    /// Smallest representable value, `-128.0`.
    pub const MIN: Self = Self(RAW_MIN);

    /// Builds from a raw 24-bit two's-complement integer.
    ///
    /// # Panics
    ///
    /// Panics if `raw` does not fit in 24 bits. Use
    /// [`Q8x16::from_raw_saturating`] for a non-panicking variant.
    #[must_use]
    pub fn from_raw(raw: i32) -> Self {
        assert!(
            (RAW_MIN..=RAW_MAX).contains(&raw),
            "raw value {raw} outside 24-bit range [{RAW_MIN}, {RAW_MAX}]"
        );
        Self(raw)
    }

    /// Builds from a raw integer, saturating to the 24-bit range.
    #[must_use]
    pub fn from_raw_saturating(raw: i64) -> Self {
        Self(raw.clamp(RAW_MIN as i64, RAW_MAX as i64) as i32)
    }

    /// Converts a finite `f64`, rounding half away from zero and saturating —
    /// this is how offline software prepares `k`/`b` for the accelerator.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    #[must_use]
    #[expect(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        reason = "the offline f64 to Q8.16 conversion boundary"
    )]
    pub fn from_f64(x: f64) -> Self {
        assert!(!x.is_nan(), "cannot convert NaN to Q8.16");
        if x.is_infinite() {
            return if x > 0.0 { Self::MAX } else { Self::MIN };
        }
        let scaled = x * f64::from(1u32 << Q8X16_FRAC_BITS);
        if scaled >= RAW_MAX as f64 {
            Self::MAX
        } else if scaled <= RAW_MIN as f64 {
            Self::MIN
        } else {
            Self(round_f64(scaled) as i32)
        }
    }

    /// The raw 24-bit representation.
    #[must_use]
    pub fn raw(&self) -> i32 {
        self.0
    }

    /// The represented real value (exact: Q8.16 ⊂ f64).
    #[must_use]
    #[expect(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        reason = "the Q8.16 to f64 conversion boundary"
    )]
    pub fn to_f64(&self) -> f64 {
        f64::from(self.0) / f64::from(1u32 << Q8X16_FRAC_BITS)
    }

    /// Fixed-point multiply-add `k·x + b` where `x` is an integer (the DWC
    /// accumulator value), `k = self`, producing a Q8.16-scaled wide product.
    ///
    /// The hardware keeps the full `24 + 32`-bit product before the round
    /// stage; we model that with [`WideQ16`], which the caller then rounds to
    /// an integer and clips (see [`WideQ16::round_to_int`]).
    #[must_use]
    pub fn mul_int_add(self, x: i32, b: Q8x16) -> WideQ16 {
        let prod = i64::from(self.0) * i64::from(x); // Q8.16 * int -> Q?.16
        WideQ16(prod + i64::from(b.0))
    }

    /// Saturating Q8.16 + Q8.16 addition.
    #[must_use]
    pub fn saturating_add(self, other: Self) -> Self {
        Self::from_raw_saturating(i64::from(self.0) + i64::from(other.0))
    }
}

impl fmt::Display for Q8x16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

/// The wide (pre-round) result of the Non-Conv multiply-add: an integer value
/// scaled by `2^16`. The RTL carries this on an internal bus wide enough not
/// to overflow (paper Fig. 6 "Rescale Int24" path); `i64` is ample.
///
/// # Example
///
/// ```
/// use edea_fixed::Q8x16;
///
/// let w = Q8x16::from_f64(0.75).mul_int_add(3, Q8x16::ZERO);
/// assert_eq!(w.to_f64(), 2.25);
/// assert_eq!(w.round_to_int(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WideQ16(i64);

impl WideQ16 {
    /// The raw value scaled by `2^16`.
    #[must_use]
    pub fn raw(&self) -> i64 {
        self.0
    }

    /// The represented real value.
    #[must_use]
    #[expect(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        reason = "the wide Q16 to f64 conversion boundary"
    )]
    pub fn to_f64(&self) -> f64 {
        self.0 as f64 / f64::from(1u32 << Q8X16_FRAC_BITS)
    }

    /// Saturating wide + wide addition — the residual-accumulate path of
    /// the Non-Conv unit (a requantized skip connection is summed onto the
    /// `k·x + b` bus *before* the round stage, so fold-then-add and
    /// add-then-fold are bit-identical).
    #[must_use]
    pub fn saturating_add(self, other: WideQ16) -> WideQ16 {
        WideQ16(self.0.saturating_add(other.0))
    }

    /// Rounds to an integer, half away from zero — the Round stage of
    /// Fig. 6.
    #[must_use]
    pub fn round_to_int(self) -> i64 {
        shift_right_half_away(i128::from(self.0)) as i64
    }

    /// Rounds and clips to int8 with ReLU folded in (`lo = 0`) or without
    /// (`lo = -128`) — the Clip stage of Fig. 6.
    #[must_use]
    pub fn round_clip_i8(self, lo: i8, hi: i8) -> i8 {
        debug_assert!(lo <= hi, "empty clip range");
        self.round_to_int().clamp(i64::from(lo), i64::from(hi)) as i8
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "the conversions are checked against f64 references"
)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_paper_ranges() {
        assert_eq!(Q8x16::MIN.to_f64(), -128.0);
        assert!((Q8x16::MAX.to_f64() - (128.0 - 1.0 / 65536.0)).abs() < 1e-12);
        assert_eq!(Q8x16::ONE.to_f64(), 1.0);
        assert_eq!(Q8X16_TOTAL_BITS, Q8X16_INT_BITS + Q8X16_FRAC_BITS);
    }

    #[test]
    fn from_f64_rounds_to_nearest() {
        // 2^-17 rounds up to one LSB (half away from zero).
        let lsb = 1.0 / 65536.0;
        assert_eq!(Q8x16::from_f64(lsb / 2.0).raw(), 1);
        assert_eq!(Q8x16::from_f64(lsb / 2.0 - 1e-9).raw(), 0);
        assert_eq!(Q8x16::from_f64(-lsb / 2.0).raw(), -1);
    }

    #[test]
    fn from_f64_saturates() {
        assert_eq!(Q8x16::from_f64(1e6), Q8x16::MAX);
        assert_eq!(Q8x16::from_f64(-1e6), Q8x16::MIN);
        assert_eq!(Q8x16::from_f64(f64::INFINITY), Q8x16::MAX);
        assert_eq!(Q8x16::from_f64(f64::NEG_INFINITY), Q8x16::MIN);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn from_f64_rejects_nan() {
        let _ = Q8x16::from_f64(f64::NAN);
    }

    #[test]
    fn mul_int_add_is_exact() {
        // Q8.16 * int + Q8.16 is exact in i64: verify against f64 on exact cases.
        let k = Q8x16::from_f64(1.5);
        let b = Q8x16::from_f64(-0.25);
        let w = k.mul_int_add(1000, b);
        assert_eq!(w.to_f64(), 1499.75);
        assert_eq!(w.round_to_int(), 1500);
    }

    #[test]
    fn round_clip_i8_with_relu_floor() {
        let k = Q8x16::from_f64(1.0);
        let neg = k.mul_int_add(-5, Q8x16::ZERO);
        assert_eq!(neg.round_clip_i8(0, 127), 0);
        let big = k.mul_int_add(100_000, Q8x16::ZERO);
        assert_eq!(big.round_clip_i8(0, 127), 127);
        let mid = k.mul_int_add(64, Q8x16::ZERO);
        assert_eq!(mid.round_clip_i8(0, 127), 64);
    }

    #[test]
    fn quantization_error_bounded_by_half_lsb() {
        let lsb = 1.0 / 65536.0;
        for i in 0..1000 {
            let x = -100.0 + 0.21371 * f64::from(i);
            let err = (x - Q8x16::from_f64(x).to_f64()).abs();
            assert!(err <= lsb / 2.0 + 1e-15, "x={x}");
        }
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Q8x16::MAX.saturating_add(Q8x16::ONE), Q8x16::MAX);
        assert_eq!(Q8x16::MIN.saturating_add(Q8x16::MIN), Q8x16::MIN);
    }

    #[test]
    fn from_raw_panics_out_of_range() {
        assert!(std::panic::catch_unwind(|| Q8x16::from_raw(1 << 23)).is_err());
        assert!(std::panic::catch_unwind(|| Q8x16::from_raw((1 << 23) - 1)).is_ok());
    }
}
