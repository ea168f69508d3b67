//! Property tests for the Q8.16 Non-Conv fold: saturation, rounding, and
//! the dequant → batch-norm → ReLU → requant equivalence the paper's Fig. 6
//! unit relies on.

use edea_fixed::Q8x16;
use edea_nn::fold::{fold_boundary, FoldedAffine};
use edea_tensor::ops::BatchNorm;
use proptest::prelude::*;

/// The reference chain the fold replaces, in f64 with *unrounded* constants:
/// dequantize, batch-normalize, ReLU, requantize.
fn reference_chain(acc: i32, bn_k: f64, bn_b: f64, s_in: f64, s_w: f64, s_out: f64) -> i8 {
    let x = f64::from(acc) * s_in * s_w; // dequantize
    let y = bn_k * x + bn_b; // batch norm (affine form)
    let y = y.max(0.0); // ReLU
    (y / s_out).round().clamp(0.0, 127.0) as i8 // requantize (round half away)
}

proptest! {
    /// The folded hardware path agrees with the four-stage floating-point
    /// reference chain to within one output LSB (the slack Q8.16 rounding
    /// is allowed on exact .5 boundaries), across random BN parameters,
    /// step sizes and accumulator values.
    #[test]
    fn fixed_fold_matches_reference_chain(
        bn_k in -4.0f64..4.0,
        bn_b in -8.0f64..8.0,
        s_in in 0.001f64..0.1,
        s_w in 0.001f64..0.1,
        s_out in 0.005f64..0.1,
        acc in -60_000i32..60_000,
    ) {
        let f = FoldedAffine::fold(bn_k, bn_b, s_in, s_w, s_out);
        // Only meaningful when the constants are representable without
        // range normalization.
        prop_assume!(f.k_exact.abs() < 127.9 && f.b_exact.abs() < 127.9);
        let hw = f.apply_fixed(acc, 0);
        let want = reference_chain(acc, bn_k, bn_b, s_in, s_w, s_out);
        // The Q8.16 constant rounding can perturb the pre-round value by at
        // most the documented bound; when that bound is far from a rounding
        // boundary the paths must agree exactly, and they may never drift by
        // more than one LSB.
        prop_assert!(
            (i32::from(hw) - i32::from(want)).abs() <= 1,
            "acc={acc} hw={hw} ref={want} k={} b={}", f.k_exact, f.b_exact
        );
    }

    /// apply_fixed == apply_exact whenever the Q8.16 error bound keeps the
    /// value away from a rounding boundary — the precise sense in which the
    /// paper's "without losing precision" claim holds.
    #[test]
    fn fixed_equals_exact_away_from_boundaries(
        bn_k in -2.0f64..2.0,
        bn_b in -4.0f64..4.0,
        acc in -30_000i32..30_000,
    ) {
        let f = FoldedAffine::fold(bn_k, bn_b, 0.02, 0.01, 0.02);
        prop_assume!(f.k_exact.abs() < 127.9 && f.b_exact.abs() < 127.9);
        let pre = f.k_exact * f64::from(acc) + f.b_exact;
        // Rounding decision boundaries sit at half-integers m + 0.5.
        let frac = (pre - 0.5).rem_euclid(1.0);
        let dist_to_boundary = frac.min(1.0 - frac);
        prop_assume!(dist_to_boundary > f.q8_16_error_bound(acc.abs().max(1)) + 1e-9);
        prop_assert_eq!(f.apply_fixed(acc, 0), f.apply_exact(acc, 0));
    }

    /// The hardware output is always inside the clip range, for *any*
    /// accumulator — saturation can never be escaped.
    #[test]
    fn fold_output_always_clipped(
        bn_k in -100.0f64..100.0,
        bn_b in -100.0f64..100.0,
        acc in any::<i32>(),
        relu in any::<bool>(),
    ) {
        let f = FoldedAffine::fold(bn_k, bn_b, 0.5, 0.5, 0.5);
        let lo: i8 = if relu { 0 } else { -128 };
        let y = f.apply_fixed(acc, lo);
        // (The high clip at 127 is the i8 type bound itself.)
        prop_assert!(y >= lo, "y={y} lo={lo}");
    }

    /// Q8.16 constant construction saturates instead of wrapping: folds whose
    /// exact constants exceed the representable range produce MAX/MIN, with
    /// the sign preserved.
    #[test]
    fn fold_constants_saturate_with_sign(scale in 130.0f64..1e6, pos in any::<bool>()) {
        let k_exact = if pos { scale } else { -scale };
        let f = FoldedAffine::fold(k_exact, 0.0, 1.0, 1.0, 1.0);
        prop_assert_eq!(f.k, if pos { Q8x16::MAX } else { Q8x16::MIN });
        prop_assert_eq!(f.b, Q8x16::ZERO);
    }

    /// fold_boundary never emits constants outside the Q8.16 envelope (range
    /// normalization), and preserves each channel's zero crossing when it
    /// rescales.
    #[test]
    fn fold_boundary_respects_envelope(
        gamma in prop::collection::vec(-50.0f32..50.0, 4),
        beta in prop::collection::vec(-500.0f32..500.0, 4),
        mean in prop::collection::vec(-2.0f32..2.0, 4),
        var in prop::collection::vec(0.01f32..9.0, 4),
    ) {
        let bn = BatchNorm { gamma, beta, mean, var, eps: 1e-5 };
        let folded = fold_boundary(&bn, 0.02, 0.01, 0.01).expect("finite BN folds");
        let coeffs = bn.affine_coefficients();
        for (c, f) in folded.iter().enumerate() {
            prop_assert!(f.k_exact.abs() < 128.0 && f.b_exact.abs() < 128.0, "channel {c}");
            // Where rescaling applied, the zero crossing must be unchanged.
            let (bk, bb) = coeffs[c];
            let raw = FoldedAffine::fold(f64::from(bk), f64::from(bb), 0.02, 0.01, 0.01);
            prop_assume!(raw.k_exact.abs() > 1e-9);
            let want = -raw.b_exact / raw.k_exact;
            let got = -f.b_exact / f.k_exact;
            prop_assert!(
                (got - want).abs() <= 1e-6 * want.abs().max(1.0),
                "channel {c}: crossing {got} vs {want}"
            );
        }
    }

    /// The fold commutes with the hardware rounding mode on integers: for
    /// k = 1, b integer, the unit is exact (no rounding error at all).
    #[test]
    fn identity_slope_integer_offset_is_exact(b_int in -100i32..100, acc in -200i32..200) {
        let f = FoldedAffine::fold(1.0, f64::from(b_int), 1.0, 1.0, 1.0);
        let want = (acc + b_int).clamp(0, 127) as i8;
        prop_assert_eq!(f.apply_fixed(acc, 0), want);
    }

    /// Rounding in the Non-Conv unit is half-away-from-zero: the .5 boundary
    /// always moves away from zero, like the RTL's add-half-then-shift.
    #[test]
    fn fold_rounds_half_away(acc in -126i32..126) {
        // k = 1, b = 0.5 exactly representable in Q8.16.
        let f = FoldedAffine::fold(1.0, 0.5, 1.0, 1.0, 1.0);
        let pre = f64::from(acc) + 0.5;
        let want = if pre >= 0.0 { pre.floor() + 1.0 } else { pre.floor() }; // ties away
        let want = want.clamp(-128.0, 127.0) as i8;
        prop_assert_eq!(f.apply_fixed(acc, -128), want, "acc={}", acc);
    }
}

#[test]
fn wide_mul_int_add_never_overflows_at_extremes() {
    // The widest possible multiply-add the unit can see: |k| = 128, |x| =
    // i32::MAX, |b| = 128 — still far inside i64; the rounded result then
    // clips to int8.
    for k in [Q8x16::MIN, Q8x16::MAX] {
        for x in [i32::MIN, i32::MAX] {
            for b in [Q8x16::MIN, Q8x16::MAX] {
                let w = k.mul_int_add(x, b);
                let y = w.round_clip_i8(-128, 127);
                assert!((-128..=127).contains(&i32::from(y)));
                // And the wide raw value matches i128 reference arithmetic.
                let want = i128::from(k.raw()) * i128::from(x) + i128::from(b.raw());
                assert_eq!(i128::from(w.raw()), want);
            }
        }
    }
}
