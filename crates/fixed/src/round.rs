//! The one rounding rule of the datapath: round half away from zero.
//!
//! The EDEA Non-Conv unit (Fig. 6 of the paper) contains an explicit `Round`
//! stage between the Q8.16 multiply-add and the int8 clip. The conventional
//! hardware implementation adds half an LSB before truncating, with a sign
//! correction so ties go away from zero; that is the only rule the datapath
//! executes, and the offline conversions round the same way.

use crate::Q8X16_FRAC_BITS;

/// Drops the [`Q8X16_FRAC_BITS`] fractional bits of a wide value, rounding
/// half away from zero.
///
/// Operates in `i128` so the widest Non-Conv product (a 24-bit constant
/// times a 32-bit accumulator) passes without overflow.
pub(crate) fn shift_right_half_away(value: i128) -> i128 {
    let bits = Q8X16_FRAC_BITS;
    let floor = value >> bits;
    let frac = value - (floor << bits); // in [0, 2^bits)
    let half = 1i128 << (bits - 1);
    if value >= 0 {
        if frac >= half {
            floor + 1
        } else {
            floor
        }
    } else {
        // Negative: ties must go away from zero, i.e. more negative.
        if frac > half {
            floor + 1
        } else {
            floor
        }
    }
}

/// Rounds a finite `f64` to the nearest integer, ties away from zero — the
/// datapath's rounding rule applied to the offline `f64` conversions.
///
/// # Panics
///
/// Panics if `x` is NaN or infinite, or out of `i128` range.
///
/// # Example
///
/// ```
/// use edea_fixed::round_f64;
///
/// assert_eq!(round_f64(1.5), 2);
/// assert_eq!(round_f64(-1.5), -2); // ties go away from zero
/// assert_eq!(round_f64(-1.25), -1);
/// ```
#[must_use]
#[expect(
    clippy::disallowed_types,
    reason = "the offline f64 rounding boundary, the integer path's reference"
)]
pub fn round_f64(x: f64) -> i128 {
    assert!(x.is_finite(), "round_f64 requires a finite input");
    let r = x.round(); // f64::round is half-away-from-zero
    assert!(
        r >= i128::MIN as f64 && r <= i128::MAX as f64,
        "rounded value out of i128 range"
    );
    r as i128
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "the integer rounding is checked against an f64 reference"
)]
mod tests {
    use super::*;

    const ONE: i128 = 1 << Q8X16_FRAC_BITS;

    #[test]
    fn half_away_from_zero_reference_values() {
        // value / 2^16 with .5 ties
        let q = ONE / 4;
        assert_eq!(shift_right_half_away(6 * q), 2); // 1.5 -> 2
        assert_eq!(shift_right_half_away(-6 * q), -2); // -1.5 -> -2
        assert_eq!(shift_right_half_away(5 * q), 1); // 1.25 -> 1
        assert_eq!(shift_right_half_away(-5 * q), -1);
        assert_eq!(shift_right_half_away(7 * q), 2); // 1.75 -> 2
        assert_eq!(shift_right_half_away(-7 * q), -2);
        assert_eq!(shift_right_half_away(2 * q), 1); // 0.5 -> 1
        assert_eq!(shift_right_half_away(-2 * q), -1); // -0.5 -> -1
    }

    #[test]
    fn shift_matches_f64_reference_on_small_values() {
        // n / 2^b for b in 1..8: whole values, ties of both signs and the
        // fractions between them.
        for n in -4096i128..=4096 {
            for b in 1..8u32 {
                let v = n << (Q8X16_FRAC_BITS - b);
                let exact = n as f64 / f64::from(1u32 << b);
                assert_eq!(shift_right_half_away(v), round_f64(exact), "n={n} b={b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn round_f64_rejects_nan() {
        let _ = round_f64(f64::NAN);
    }
}
