//! Boundary-condition tests for the fixed-point substrate: saturating
//! arithmetic at the integer extremes and round-half-away behaviour exactly
//! at its tie points.

#![expect(
    clippy::disallowed_types,
    reason = "the integer rounding is checked against f64 references"
)]

use edea_fixed::sat::fits_in_bits;
use edea_fixed::{round_f64, Q8x16, WideQ16};

/// The wide value `int_part + frac / 2^16`, built the only way the datapath
/// builds one: `1.0 · int_part + frac` on the multiply-add bus.
fn wide(int_part: i32, frac: i32) -> WideQ16 {
    Q8x16::ONE.mul_int_add(int_part, Q8x16::from_raw(frac))
}

#[test]
fn saturating_add_pins_at_both_rails() {
    // MAX + anything positive pins at MAX; MIN + anything negative at MIN.
    assert_eq!(Q8x16::MAX.saturating_add(Q8x16::MAX), Q8x16::MAX);
    assert_eq!(Q8x16::MAX.saturating_add(Q8x16::from_raw(1)), Q8x16::MAX);
    assert_eq!(Q8x16::MIN.saturating_add(Q8x16::MIN), Q8x16::MIN);
    assert_eq!(Q8x16::MIN.saturating_add(Q8x16::from_raw(-1)), Q8x16::MIN);
    // The rails cancel to the asymmetry of two's complement: MAX + MIN = -1.
    assert_eq!(Q8x16::MAX.saturating_add(Q8x16::MIN).raw(), -1);
    // One step inside the rail does not saturate.
    assert_eq!(
        Q8x16::MAX.saturating_add(Q8x16::from_raw(-1)),
        Q8x16::from_raw(Q8x16::MAX.raw() - 1)
    );
}

#[test]
fn from_raw_saturating_covers_the_whole_i64_range() {
    assert_eq!(Q8x16::from_raw_saturating(i64::MAX), Q8x16::MAX);
    assert_eq!(Q8x16::from_raw_saturating(i64::MIN), Q8x16::MIN);
    assert_eq!(Q8x16::from_raw_saturating(i64::from(i32::MAX)), Q8x16::MAX);
    assert_eq!(Q8x16::from_raw_saturating(i64::from(i32::MIN)), Q8x16::MIN);
    // Exactly at the 24-bit rails: representable, not clipped.
    assert_eq!(Q8x16::from_raw_saturating((1 << 23) - 1), Q8x16::MAX);
    assert_eq!(Q8x16::from_raw_saturating(-(1 << 23)), Q8x16::MIN);
    // One past the rails: clipped to them.
    assert_eq!(Q8x16::from_raw_saturating(1 << 23), Q8x16::MAX);
    assert_eq!(Q8x16::from_raw_saturating(-(1 << 23) - 1), Q8x16::MIN);
}

#[test]
fn mul_int_add_exact_at_i32_extremes() {
    // The accumulator input is an i32; the wide product must be exact (no
    // wrap) even at i32::MIN/MAX with the constants at their rails.
    let w = Q8x16::MIN.mul_int_add(i32::MIN, Q8x16::MIN);
    let want = i64::from(Q8x16::MIN.raw()) * i64::from(i32::MIN) + i64::from(Q8x16::MIN.raw());
    assert_eq!(w.raw(), want);

    let w = Q8x16::MAX.mul_int_add(i32::MAX, Q8x16::MAX);
    let want = i64::from(Q8x16::MAX.raw()) * i64::from(i32::MAX) + i64::from(Q8x16::MAX.raw());
    assert_eq!(w.raw(), want);

    // And the rounded clip stays lawful at the extremes.
    assert_eq!(
        Q8x16::MAX
            .mul_int_add(i32::MAX, Q8x16::ZERO)
            .round_clip_i8(0, 127),
        127
    );
    assert_eq!(
        Q8x16::MAX
            .mul_int_add(i32::MIN, Q8x16::ZERO)
            .round_clip_i8(0, 127),
        0
    );
}

#[test]
fn half_away_ties_at_every_lsb_boundary() {
    // The Round stage drops 16 fractional bits. Check the exact tie
    // (fraction = 0x8000) for positive and negative mantissas.
    let half = 1 << 15;
    for int_part in [-3i32, -2, -1, 0, 1, 2, 3] {
        let v = wide(int_part, half); // exactly int_part + 0.5
        let want = if int_part >= 0 {
            int_part + 1
        } else {
            int_part
        };
        assert_eq!(v.round_to_int(), i64::from(want), "tie at {int_part}+0.5");
        // One ULP inside the tie rounds towards the integer part.
        assert_eq!(wide(int_part, half - 1).round_to_int(), i64::from(int_part));
    }
}

#[test]
fn round_half_away_matches_f64_round_on_negative_ties() {
    // f64::round is specified as half-away-from-zero; the integer path must
    // agree on negative ties, which is where add-half-then-shift circuits
    // classically go wrong.
    for i in -9i32..=9 {
        let x = f64::from(i) + 0.5; // …-1.5, -0.5, 0.5, 1.5…
        let via_f64 = round_f64(x);
        let via_int = wide(i, 1 << 15).round_to_int();
        assert_eq!(i128::from(via_int), via_f64, "x={x}");
        // And the -x tie is the mirror image.
        assert_eq!(round_f64(-x), -via_f64, "x={x}");
    }
}

#[test]
fn round_to_int_at_the_widest_products_is_exact() {
    // The widest products the Non-Conv unit forms are whole numbers; they
    // pass the Round stage without overflow and come out unchanged.
    // MIN·MIN + MIN = 2^54 − 2^23 raw, i.e. 2^38 − 128.
    let w = Q8x16::MIN.mul_int_add(i32::MIN, Q8x16::MIN);
    assert_eq!(w.round_to_int(), (1i64 << 38) - 128);
    assert_eq!(w.round_to_int() << 16, w.raw());
    // MAX·MAX + MAX = (2^23 − 1)·2^31 raw, i.e. (2^23 − 1)·2^15.
    let w = Q8x16::MAX.mul_int_add(i32::MAX, Q8x16::MAX);
    assert_eq!(w.round_to_int(), ((1i64 << 23) - 1) << 15);
    assert_eq!(w.round_to_int() << 16, w.raw());
}

#[test]
fn fits_in_bits_at_the_i64_rails() {
    assert!(!fits_in_bits(i64::MAX, 63));
    assert!(!fits_in_bits(i64::MIN, 63));
    assert!(fits_in_bits((1i64 << 62) - 1, 63));
    assert!(fits_in_bits(-(1i64 << 62), 63));
    assert!(fits_in_bits(1, 2));
    assert!(fits_in_bits(-2, 2));
    assert!(!fits_in_bits(2, 2));
    assert!(!fits_in_bits(-3, 2));
}
