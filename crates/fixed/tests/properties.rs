//! Property-based tests for the fixed-point substrate.

use edea_fixed::{round_f64, Q8x16};
use proptest::prelude::*;

proptest! {
    /// Converting any in-range f64 to Q8.16 commits at most half an LSB of error.
    #[test]
    fn q8_16_from_f64_error_bounded(x in -127.9f64..127.9) {
        let err = (x - Q8x16::from_f64(x).to_f64()).abs();
        prop_assert!(err <= 0.5 / 65536.0 + 1e-12, "x={x} err={err}");
    }

    /// Q8.16 raw round-trip: from_raw(raw()).raw() == raw().
    #[test]
    fn q8_16_raw_round_trip(raw in -(1i32 << 23)..(1i32 << 23)) {
        let v = Q8x16::from_raw(raw);
        prop_assert_eq!(Q8x16::from_raw(v.raw()).raw(), raw);
    }

    /// to_f64 then from_f64 is the identity on representable values.
    #[test]
    fn q8_16_f64_round_trip(raw in -(1i32 << 23)..(1i32 << 23)) {
        let v = Q8x16::from_raw(raw);
        prop_assert_eq!(Q8x16::from_f64(v.to_f64()), v);
    }

    /// mul_int_add is exact: matches wide integer reference arithmetic.
    #[test]
    fn mul_int_add_exact(k in -(1i32 << 23)..(1i32 << 23),
                         x in -1_000_000i32..1_000_000,
                         b in -(1i32 << 23)..(1i32 << 23)) {
        let w = Q8x16::from_raw(k).mul_int_add(x, Q8x16::from_raw(b));
        prop_assert_eq!(w.raw(), i64::from(k) * i64::from(x) + i64::from(b));
    }

    /// Rounding a wide value to int agrees with the f64 reference; these
    /// wide values are exact in f64.
    #[test]
    fn wide_round_matches_f64(k in -(1i32 << 20)..(1i32 << 20), x in -10_000i32..10_000) {
        let w = Q8x16::from_raw(k).mul_int_add(x, Q8x16::ZERO);
        prop_assert_eq!(i128::from(w.round_to_int()), round_f64(w.to_f64()));
    }

    /// round_clip_i8 always lands inside the clip range.
    #[test]
    fn clip_stays_in_range(k in -(1i32 << 23)..(1i32 << 23),
                           x in i32::MIN/65536..i32::MAX/65536,
                           lo in -128i8..0, hi in 0i8..=127) {
        let w = Q8x16::from_raw(k).mul_int_add(x, Q8x16::ZERO);
        let y = w.round_clip_i8(lo, hi);
        prop_assert!(y >= lo && y <= hi);
    }

    /// The Round stage picks a nearest integer: the discarded remainder is
    /// at most half an LSB, whatever `k` and `x` built the wide value.
    #[test]
    fn half_away_is_nearest(k in -(1i32 << 23)..(1i32 << 23),
                            x in any::<i32>(),
                            b in -(1i32 << 23)..(1i32 << 23)) {
        let w = Q8x16::from_raw(k).mul_int_add(x, Q8x16::from_raw(b));
        let r = i128::from(w.round_to_int());
        let scale = 1i128 << 16;
        let err = (i128::from(w.raw()) - r * scale).abs();
        prop_assert!(err * 2 <= scale, "not nearest: raw={} r={r}", w.raw());
    }
}
