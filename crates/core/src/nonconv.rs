//! The Non-Convolutional unit (paper Fig. 6).
//!
//! Eight parallel lanes, one per channel of the current `Td` slice, each
//! applying the folded `y = k·x + b` (Q8.16), the round stage, and the
//! ReLU-folded clip to int8. The unit sits between the DWC adder trees and
//! the intermediate buffer; the same hardware is reused on the output path
//! after the PWC (the paper describes only the DWC→PWC placement; reuse on
//! drain is our documented assumption — it adds no cycles because the
//! output interface is otherwise idle).

use edea_fixed::Q8x16;
use edea_nn::fold::FoldedAffine;
use edea_tensor::Tensor3;

use crate::CoreError;

/// The skip connection of an inverted-residual add stage, read in place:
/// the `(C, rows, cols)` window of the saved block input `map` anchored at
/// `(0, row0, col0)`, requantized by the Q8.16 rescale `scale`.
#[derive(Debug, Clone, Copy)]
pub struct Residual<'a> {
    /// The saved block input, channel-major.
    pub map: &'a Tensor3<i8>,
    /// First row of the window.
    pub row0: usize,
    /// First column of the window.
    pub col0: usize,
    /// The rescale `s_res / s_out`.
    pub scale: Q8x16,
}

/// The Non-Conv unit: `Td` parallel Q8.16 multiply-add datapaths (8 in the
/// paper: "Non-Conv Unit #0 … X8").
#[derive(Debug, Clone, Copy, Default)]
pub struct NonConvUnit;

impl NonConvUnit {
    /// Maps one portion's pixel-major `(rows, cols, C)` accumulators to the
    /// channel-major int8 `(C, rows, cols)` slab `out` — the one place
    /// where the accumulator layout turns into the map layout (see
    /// [`crate::engine`]). `params[c]` applies to channel `c` (`params` may
    /// cover more channels than `acc`), and `lo` is the clip floor (`0` =
    /// folded ReLU, `-128` = the linear project of an inverted-residual
    /// block). Returns how many of the outputs are zero, the count the
    /// layer's intermediate and output zero fractions are taken from.
    ///
    /// With a `residual`, the requantized skip connection
    /// `scale · residual[c]` is summed onto the `k·x + b` bus at wide
    /// Q8.16 precision *before* the round stage (see
    /// [`FoldedAffine::apply_fixed_residual`]) — the Non-Conv fold and the
    /// residual add commute bit-exactly, proven by the `residual_fold`
    /// property suite in `edea-nn`.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if `params` has fewer entries than
    /// `acc` has channels, `out` is not exactly `acc`'s length, or the
    /// residual window exceeds its map.
    pub fn apply(
        &self,
        acc: &Tensor3<i32>,
        params: &[FoldedAffine],
        lo: i8,
        residual: Option<Residual<'_>>,
        out: &mut [i8],
    ) -> Result<u64, CoreError> {
        let (rows, cols, c) = acc.shape();
        if params.len() < c {
            return Err(CoreError::UnsupportedShape {
                detail: format!("{} Non-Conv parameter sets for {c} channels", params.len()),
            });
        }
        if out.len() != acc.len() {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "Non-Conv output of {} elements for a {:?} accumulator",
                    out.len(),
                    acc.shape()
                ),
            });
        }
        if let Some(res) = residual {
            let (rc, rh, rw) = res.map.shape();
            if rc < c || res.row0 + rows > rh || res.col0 + cols > rw {
                return Err(CoreError::UnsupportedShape {
                    detail: format!(
                        "residual window ({c}, {rows}, {cols}) at (0, {}, {}) exceeds its {:?} map",
                        res.row0,
                        res.col0,
                        res.map.shape()
                    ),
                });
            }
        }
        let src = acc.as_slice();
        let mut zero_outputs = 0u64;
        let planes = out.chunks_exact_mut(rows * cols).zip(params).enumerate();
        for (ch, (plane, p)) in planes {
            for (r, dst) in plane.chunks_exact_mut(cols).enumerate() {
                let skip = residual.map(|res| {
                    let (_, rh, rw) = res.map.shape();
                    let at = (ch * rh + res.row0 + r) * rw + res.col0;
                    (&res.map.as_slice()[at..at + cols], res.scale)
                });
                for (q, d) in dst.iter_mut().enumerate() {
                    let a = src[(r * cols + q) * c + ch];
                    let y = match skip {
                        Some((row, scale)) => p.apply_fixed_residual(a, row[q], scale, lo),
                        None => p.apply_fixed(a, lo),
                    };
                    zero_outputs += u64::from(y == 0);
                    *d = y;
                }
            }
        }
        Ok(zero_outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn affine(k: f64, b: f64) -> FoldedAffine {
        FoldedAffine::fold(k, b, 1.0, 1.0, 1.0)
    }

    /// Applies the unit to channel-major accumulators, returning the
    /// channel-major output.
    fn apply(
        acc: &Tensor3<i32>,
        params: &[FoldedAffine],
        lo: i8,
    ) -> Result<(Tensor3<i8>, u64), CoreError> {
        let (c, h, w) = acc.shape();
        let by_pixel = Tensor3::from_fn(h, w, c, |r, q, ch| acc[(ch, r, q)]);
        let mut out = Tensor3::<i8>::zeros(c, h, w);
        let zeros = NonConvUnit.apply(&by_pixel, params, lo, None, out.as_mut_slice())?;
        Ok((out, zeros))
    }

    #[test]
    fn applies_per_channel_affine() {
        let acc = Tensor3::<i32>::from_fn(2, 2, 2, |c, h, w| (c as i32 + 1) * (h * 2 + w) as i32);
        let params = vec![affine(1.0, 0.0), affine(0.5, 1.0)];
        let (out, _) = apply(&acc, &params, 0).unwrap();
        assert_eq!(out[(0, 1, 1)], 3); // 1.0·3 + 0
        assert_eq!(out[(1, 1, 1)], 4); // 0.5·6 + 1
    }

    #[test]
    fn relu_floor_counts_zero_outputs() {
        let acc = Tensor3::<i32>::from_fn(1, 2, 2, |_, h, w| (h * 2 + w) as i32 - 2); // -2..1
        let params = vec![affine(1.0, 0.0)];
        let (out, zeros) = apply(&acc, &params, 0).unwrap();
        assert_eq!(out.as_slice(), &[0, 0, 0, 1]);
        assert_eq!(zeros, 3);
    }

    #[test]
    fn saturates_at_127() {
        let acc = Tensor3::<i32>::from_fn(1, 1, 1, |_, _, _| 1_000_000);
        let (out, _) = apply(&acc, &[affine(1.0, 0.0)], 0).unwrap();
        assert_eq!(out[(0, 0, 0)], 127);
    }

    #[test]
    fn rejects_missing_params() {
        let acc = Tensor3::<i32>::zeros(8, 2, 2);
        let params = vec![affine(1.0, 0.0); 4];
        assert!(apply(&acc, &params, 0).is_err());
    }

    #[test]
    fn clipped_floor_passes_negative_outputs() {
        // lo = −128: the linear project boundary keeps signed codes that
        // the ReLU-folded boundary would floor to zero.
        let acc = Tensor3::<i32>::from_fn(1, 2, 2, |_, h, w| (h * 2 + w) as i32 - 2); // -2..1
        let params = vec![affine(1.0, 0.0)];
        let (out, _) = apply(&acc, &params, -128).unwrap();
        assert_eq!(out.as_slice(), &[-2, -1, 0, 1]);
    }

    #[test]
    fn residual_path_matches_the_fold_reference() {
        let acc = Tensor3::<i32>::from_fn(2, 2, 2, |c, h, w| {
            (c as i32 * 900 - 700) + (h as i32 * 55) - (w as i32 * 13)
        });
        let residual = Tensor3::<i8>::from_fn(2, 2, 2, |c, h, w| {
            (c as i32 * 37 - 60 + (h * 2 + w) as i32 * 9) as i8
        });
        let params = vec![
            FoldedAffine::fold(0.6, -0.1, 0.02, 0.01, 0.015),
            FoldedAffine::fold(-0.3, 0.4, 0.02, 0.01, 0.015),
        ];
        let r = Q8x16::from_f64(0.73);
        let by_pixel = Tensor3::from_fn(2, 2, 2, |h, w, c| acc[(c, h, w)]);
        let mut out = Tensor3::<i8>::zeros(2, 2, 2);
        let skip = Residual {
            map: &residual,
            row0: 0,
            col0: 0,
            scale: r,
        };
        NonConvUnit
            .apply(&by_pixel, &params, -128, Some(skip), out.as_mut_slice())
            .unwrap();
        for ((c, h, w), &v) in out.indexed_iter() {
            assert_eq!(
                v,
                params[c].apply_fixed_residual(acc[(c, h, w)], residual[(c, h, w)], r, -128)
            );
        }
    }

    #[test]
    fn matches_q8_16_reference_bit_exactly() {
        // The unit must be exactly FoldedAffine::apply_fixed per element.
        let acc = Tensor3::<i32>::from_fn(3, 2, 2, |c, h, w| {
            (c as i32 * 1000 - 1500) + (h as i32 * 77) - (w as i32 * 31)
        });
        let params = vec![
            FoldedAffine::fold(0.7, -0.3, 0.02, 0.01, 0.015),
            FoldedAffine::fold(-0.2, 0.9, 0.02, 0.01, 0.015),
            FoldedAffine::fold(1.4, 0.0, 0.02, 0.01, 0.015),
        ];
        let (out, _) = apply(&acc, &params, 0).unwrap();
        for ((c, h, w), &v) in out.indexed_iter() {
            assert_eq!(v, params[c].apply_fixed(acc[(c, h, w)], 0));
        }
        // And the constants really are Q8.16 words:
        assert_eq!(params[0].k, Q8x16::from_f64(params[0].k_exact));
    }

    #[test]
    fn residual_rejects_mismatched_shapes() {
        // A 2×2 window at (0, 1) runs off a 2×2 map.
        let acc = Tensor3::<i32>::zeros(2, 2, 2);
        let map = Tensor3::<i8>::zeros(2, 2, 2);
        let params = vec![affine(1.0, 0.0); 2];
        let mut out = [0i8; 8];
        let residual = Residual {
            map: &map,
            row0: 0,
            col0: 1,
            scale: Q8x16::ONE,
        };
        assert!(NonConvUnit
            .apply(&acc, &params, -128, Some(residual), &mut out)
            .is_err());
        // So does a map with fewer channels than the accumulators.
        let shallow = Tensor3::<i8>::zeros(1, 2, 2);
        let residual = Residual {
            map: &shallow,
            col0: 0,
            ..residual
        };
        assert!(NonConvUnit
            .apply(&acc, &params, -128, Some(residual), &mut out)
            .is_err());
    }
}
