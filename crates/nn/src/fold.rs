//! The Non-Conv fold: dequantization + BN + ReLU + requantization collapsed
//! into `y = k·x + b`.
//!
//! Paper Sec. III-C / Fig. 6: between DWC and PWC the network requires
//! dequantization (int accumulator → real), batch normalization, ReLU, and
//! requantization back to int8. "In inference, all BN parameters (γ, β, μ,
//! σ, ε) and quantization scaling factors (s_a, s_w) are fixed and can be
//! pre-computed. … these parameters and scaling factors can be simplified
//! into a multiplication and addition: y = k·x + b."
//!
//! Derivation (per output channel `c`):
//!
//! ```text
//! real value of accumulator X:   x = X · s_in · s_w
//! batch norm:                    y = γ_c (x − μ_c)/√(σ²_c + ε) + β_c  =  k̂_c·x + b̂_c
//! requantize to step s_out:      q = clip(round(y / s_out), 0, 127)    (ReLU ⇒ low clip 0)
//! ⇒  q = clip(round(k_c·X + b_c), 0, 127)
//!    with  k_c = k̂_c · s_in · s_w / s_out   and   b_c = b̂_c / s_out.
//! ```
//!
//! `k` and `b` are then rounded to Q8.16 — this module also quantifies the
//! precision impact of that rounding, backing the paper's claim that Q8.16
//! "covers all possible ranges of the values for k and b without losing
//! precision".

use edea_fixed::{round_f64, Q8x16};
use edea_tensor::ops::BatchNorm;
use edea_tensor::Tensor3;

use crate::NnError;

/// One channel's folded affine transform, kept in both exact (f64) and
/// hardware (Q8.16) form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldedAffine {
    /// Exact multiplier before Q8.16 rounding.
    pub k_exact: f64,
    /// Exact offset before Q8.16 rounding.
    pub b_exact: f64,
    /// Hardware multiplier (Q8.16).
    pub k: Q8x16,
    /// Hardware offset (Q8.16).
    pub b: Q8x16,
}

impl FoldedAffine {
    /// Folds one channel: BN affine coefficients `(bn_k, bn_b)`, input
    /// activation step `s_in`, weight step `s_w`, output activation step
    /// `s_out`.
    ///
    /// # Panics
    ///
    /// Panics if any step size is not finite-positive.
    #[must_use]
    pub fn fold(bn_k: f64, bn_b: f64, s_in: f64, s_w: f64, s_out: f64) -> Self {
        assert!(
            s_in > 0.0 && s_w > 0.0 && s_out > 0.0,
            "step sizes must be positive"
        );
        let k_exact = bn_k * s_in * s_w / s_out;
        let b_exact = bn_b / s_out;
        Self {
            k_exact,
            b_exact,
            k: Q8x16::from_f64(k_exact),
            b: Q8x16::from_f64(b_exact),
        }
    }

    /// Applies the *hardware* path: Q8.16 multiply-add, round, clip.
    /// `lo` is `0` when ReLU is folded in (the DSC case) or `-128` otherwise.
    #[must_use]
    pub fn apply_fixed(&self, acc: i32, lo: i8) -> i8 {
        self.k.mul_int_add(acc, self.b).round_clip_i8(lo, 127)
    }

    /// Applies the folded transform with a requantized residual summed onto
    /// the wide bus before the round stage:
    /// `clip(round(k·acc + b + r·res), lo, 127)` — the inverted-residual
    /// skip connection as a natural extension of the Non-Conv fold. `r` is
    /// the residual rescale `s_res / s_out` in Q8.16; the add happens at
    /// wide (pre-round) precision, so folding the add into the affine and
    /// adding after the fold are bit-identical (property-tested).
    #[must_use]
    pub fn apply_fixed_residual(&self, acc: i32, residual: i8, r: Q8x16, lo: i8) -> i8 {
        self.k
            .mul_int_add(acc, self.b)
            .saturating_add(r.mul_int_add(i32::from(residual), Q8x16::ZERO))
            .round_clip_i8(lo, 127)
    }

    /// Applies the *reference* path in f64: `clip(round(k·x + b))` with the
    /// exact (unrounded) constants. Used to bound the Q8.16 rounding impact.
    #[must_use]
    pub fn apply_exact(&self, acc: i32, lo: i8) -> i8 {
        let y = self.k_exact * f64::from(acc) + self.b_exact;
        let r = round_f64(y.clamp(-1e15, 1e15));
        r.clamp(i128::from(lo), 127) as i8
    }

    /// Worst-case absolute error of the Q8.16 representation of `k` and `b`
    /// propagated through an accumulator of magnitude `max_acc` — if this is
    /// well below 0.5, hardware and exact paths agree except on exact
    /// rounding boundaries.
    #[must_use]
    pub fn q8_16_error_bound(&self, max_acc: i32) -> f64 {
        let dk = (self.k_exact - self.k.to_f64()).abs();
        let db = (self.b_exact - self.b.to_f64()).abs();
        dk * f64::from(max_acc.abs()) + db
    }

    /// Rescales both constants by `factor`, preserving the zero crossing
    /// `x* = −b/k` (and therefore the post-ReLU sparsity pattern) while
    /// shrinking the channel's output slope. Used by [`fold_boundary`] to
    /// range-normalize channels whose shift exceeds the Q8.16 range — the
    /// per-channel equalization step a real deployment flow performs.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    #[must_use]
    pub fn rescaled(&self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "rescale factor must be in (0,1]"
        );
        let k_exact = self.k_exact * factor;
        let b_exact = self.b_exact * factor;
        Self {
            k_exact,
            b_exact,
            k: Q8x16::from_f64(k_exact),
            b: Q8x16::from_f64(b_exact),
        }
    }
}

/// Applies a layer's per-channel folds to an accumulator map, one channel
/// plane at a time: `fold[c]` maps plane `c` through
/// [`FoldedAffine::apply_fixed`], or through
/// [`FoldedAffine::apply_fixed_residual`] with the same plane of the
/// residual map and its Q8.16 rescale when `residual` is given.
pub(crate) fn apply_planes(
    acc: &Tensor3<i32>,
    fold: &[FoldedAffine],
    residual: Option<(&Tensor3<i8>, Q8x16)>,
    lo: i8,
) -> Tensor3<i8> {
    let (c, h, w) = acc.shape();
    debug_assert_eq!(fold.len(), c);
    let mut out = Tensor3::<i8>::zeros(c, h, w);
    let planes = out
        .as_mut_slice()
        .chunks_exact_mut(h * w)
        .zip(acc.as_slice().chunks_exact(h * w))
        .zip(fold);
    match residual {
        Some((res, r)) => {
            debug_assert_eq!(res.shape(), (c, h, w));
            for (((out, acc), f), res) in planes.zip(res.as_slice().chunks_exact(h * w)) {
                for ((o, &a), &x) in out.iter_mut().zip(acc).zip(res) {
                    *o = f.apply_fixed_residual(a, x, r, lo);
                }
            }
        }
        None => {
            for ((out, acc), f) in planes {
                for (o, &a) in out.iter_mut().zip(acc) {
                    *o = f.apply_fixed(a, lo);
                }
            }
        }
    }
    out
}

/// Folds a whole layer boundary: per-channel BN + the three step sizes.
///
/// Channels whose folded constants exceed the Q8.16 range (a constant shift
/// larger than the whole int8 output range — channels that are pinned dead
/// or saturated) are **range-normalized**: `k` and `b` are scaled down
/// together, preserving the zero crossing and sign structure exactly while
/// compressing that channel's output slope. The paper chose Q8.16 to cover
/// "all possible ranges of the values for k and b" of its trained network;
/// range normalization is what a deployment flow does when a user-supplied
/// network violates that envelope.
///
/// # Errors
///
/// [`NnError::InvalidConfig`] if a BN coefficient is non-finite.
pub fn fold_boundary(
    bn: &BatchNorm,
    s_in: f64,
    s_w: f64,
    s_out: f64,
) -> Result<Vec<FoldedAffine>, NnError> {
    let coeffs = bn.affine_coefficients();
    let mut out = Vec::with_capacity(coeffs.len());
    // Leave one LSB of headroom below the absolute Q8.16 maximum.
    let limit = 127.9;
    for (c, (bn_k, bn_b)) in coeffs.into_iter().enumerate() {
        if !(bn_k.is_finite() && bn_b.is_finite()) {
            return Err(NnError::InvalidConfig {
                detail: format!("channel {c}: non-finite batch-norm coefficients"),
            });
        }
        let mut folded = FoldedAffine::fold(f64::from(bn_k), f64::from(bn_b), s_in, s_w, s_out);
        let mag = folded.k_exact.abs().max(folded.b_exact.abs());
        if mag >= limit {
            folded = folded.rescaled(limit / mag);
        }
        out.push(folded);
    }
    Ok(out)
}

/// Operation counts per activation element before and after the fold,
/// quantifying the paper's "reduces the overall number of operations" claim.
///
/// Before: dequant multiply, BN multiply, BN add, ReLU compare, requant
/// multiply, round, clip = 7 elementary ops.
/// After: one multiply, one add, round, clip = 4 — and, critically, a single
/// fused unit instead of four pipelined ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldOpCounts {
    /// Elementary ops per element without folding.
    pub unfused_ops: u32,
    /// Elementary ops per element with the Non-Conv fold.
    pub fused_ops: u32,
    /// Parameter words per channel without folding (γ, β, μ, σ², s_a, s_w).
    pub unfused_params: u32,
    /// Parameter words per channel with folding (k, b).
    pub fused_params: u32,
}

impl FoldOpCounts {
    /// The counts for the EDEA Non-Conv unit.
    #[must_use]
    pub fn edea() -> Self {
        Self {
            unfused_ops: 7,
            fused_ops: 4,
            unfused_params: 6,
            fused_params: 2,
        }
    }

    /// Multiplicative reduction in per-channel parameter storage.
    #[must_use]
    pub fn param_reduction(&self) -> f64 {
        f64::from(self.unfused_params) / f64::from(self.fused_params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_bn() -> BatchNorm {
        BatchNorm {
            gamma: vec![1.2, -0.8, 0.5],
            beta: vec![0.1, 0.0, -0.2],
            mean: vec![0.05, -0.1, 0.2],
            var: vec![0.9, 1.5, 0.3],
            eps: 1e-5,
        }
    }

    #[test]
    fn fold_matches_manual_derivation() {
        let f = FoldedAffine::fold(2.0, -1.0, 0.01, 0.02, 0.05);
        assert!((f.k_exact - 2.0 * 0.01 * 0.02 / 0.05).abs() < 1e-12);
        assert!((f.b_exact - (-1.0 / 0.05)).abs() < 1e-12);
    }

    #[test]
    fn fixed_path_matches_full_reference_chain() {
        // Full chain: dequant -> BN -> ReLU -> requant, vs the folded fixed
        // path, across a sweep of accumulator values.
        let bn = example_bn();
        let (s_in, s_w, s_out) = (0.02, 0.004, 0.015);
        let folded = fold_boundary(&bn, s_in, s_w, s_out).unwrap();
        let coeffs = bn.affine_coefficients();
        for c in 0..3 {
            let (bk, bb) = coeffs[c];
            for acc in (-30_000i32..30_000).step_by(997) {
                // Reference chain:
                let x = f64::from(acc) * s_in * s_w; // dequantize
                let y = f64::from(bk) * x + f64::from(bb); // batch norm
                let y = y.max(0.0); // ReLU
                let q = (y / s_out).round().clamp(0.0, 127.0) as i8; // requantize
                let hw = folded[c].apply_fixed(acc, 0);
                // Q8.16 rounding may flip values exactly on a .5 boundary;
                // allow a 1-LSB difference, require exactness elsewhere.
                assert!(
                    (i32::from(hw) - i32::from(q)).abs() <= 1,
                    "c={c} acc={acc} hw={hw} ref={q}"
                );
            }
        }
    }

    #[test]
    fn exact_and_fixed_paths_agree_within_error_bound() {
        // Accumulator magnitudes are bounded by the DWC adder tree width in
        // practice (well under 2^15 for real layers).
        let folded = fold_boundary(&example_bn(), 0.01, 0.005, 0.02).unwrap();
        for f in &folded {
            assert!(
                f.q8_16_error_bound(30_000) < 0.5,
                "bound {}",
                f.q8_16_error_bound(30_000)
            );
            for acc in [-30_000, -1, 0, 1, 12_345, 29_999] {
                let d = (i32::from(f.apply_fixed(acc, 0)) - i32::from(f.apply_exact(acc, 0))).abs();
                assert!(d <= 1, "acc={acc}");
            }
        }
    }

    #[test]
    fn relu_fold_clips_low_at_zero() {
        let f = FoldedAffine::fold(1.0, 0.0, 1.0, 1.0, 1.0);
        assert_eq!(f.apply_fixed(-5, 0), 0);
        assert_eq!(f.apply_fixed(-5, -128), -5);
        assert_eq!(f.apply_fixed(300, 0), 127);
    }

    #[test]
    fn fold_boundary_range_normalizes_extreme_channels() {
        let bn = BatchNorm {
            gamma: vec![1.0],
            beta: vec![1000.0], // huge shift: way past the Q8.16 range
            mean: vec![0.0],
            var: vec![1.0],
            eps: 0.0,
        };
        let folded = fold_boundary(&bn, 0.01, 0.01, 0.001).unwrap();
        let f = &folded[0];
        // Constants now fit the hardware range…
        assert!(f.k_exact.abs() < 128.0 && f.b_exact.abs() < 128.0);
        // …and the zero crossing is preserved: x* = -b/k = -(1000/0.001)/(0.0001/0.001)
        let unscaled = FoldedAffine::fold(1.0, 1000.0, 0.01, 0.01, 0.001);
        let crossing_scaled = -f.b_exact / f.k_exact;
        let crossing_unscaled = -unscaled.b_exact / unscaled.k_exact;
        assert!((crossing_scaled - crossing_unscaled).abs() / crossing_unscaled.abs() < 1e-9);
    }

    #[test]
    fn rescaled_preserves_sign_structure() {
        let f = FoldedAffine::fold(2.0, -3.0, 1.0, 1.0, 1.0);
        let r = f.rescaled(0.25);
        assert!((r.k_exact - 0.5).abs() < 1e-12);
        assert!((r.b_exact + 0.75).abs() < 1e-12);
        for acc in -10..10 {
            let a = f.k_exact * f64::from(acc) + f.b_exact;
            let b = r.k_exact * f64::from(acc) + r.b_exact;
            assert_eq!(a > 0.0, b > 0.0, "acc={acc}");
        }
    }

    #[test]
    fn q8_16_loses_no_precision_for_realistic_constants() {
        // Realistic folded constants live in roughly [1e-3, 10] and real DWC
        // accumulators stay within ~2^15 (19-bit worst case, but values that
        // large saturate the int8 clip anyway). The Q8.16 error bound must
        // stay below half an LSB of the int8 output in that domain.
        for &k in &[0.001f64, 0.01, 0.1, 1.0, 5.0] {
            let f = FoldedAffine::fold(k, 0.3, 0.02, 0.01, 0.02);
            assert!(
                f.q8_16_error_bound(1 << 15) < 0.5,
                "k={k}: {}",
                f.q8_16_error_bound(1 << 15)
            );
        }
    }

    #[test]
    fn op_counts_reduce() {
        let c = FoldOpCounts::edea();
        assert!(c.fused_ops < c.unfused_ops);
        assert_eq!(c.param_reduction(), 3.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn fold_rejects_zero_scale() {
        let _ = FoldedAffine::fold(1.0, 0.0, 0.0, 1.0, 1.0);
    }
}
