//! The Non-Convolutional unit (paper Fig. 6).
//!
//! Eight parallel lanes, one per channel of the current `Td` slice, each
//! applying the folded `y = k·x + b` (Q8.16), the round stage, and the
//! ReLU-folded clip to int8. The unit sits between the DWC adder trees and
//! the intermediate buffer; the same hardware is reused on the output path
//! after the PWC (the paper describes only the DWC→PWC placement; reuse on
//! drain is our documented assumption — it adds no cycles because the
//! output interface is otherwise idle).

use edea_nn::fold::FoldedAffine;
use edea_tensor::Tensor3;

use crate::config::EdeaConfig;
use crate::CoreError;

/// Activity record of the Non-Conv unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NonConvActivity {
    /// Multiply-add operations performed.
    pub ops: u64,
    /// Outputs clipped to zero (the ReLU floor) — these feed the zero-gating
    /// statistics of the PWC engine.
    pub zero_outputs: u64,
}

/// The Non-Conv unit: `lanes` parallel Q8.16 multiply-add datapaths.
#[derive(Debug, Clone)]
pub struct NonConvUnit {
    lanes: usize,
}

impl NonConvUnit {
    /// Builds the unit from the architecture configuration (`Td` lanes).
    #[must_use]
    pub fn new(cfg: &EdeaConfig) -> Self {
        Self { lanes: cfg.tile.td }
    }

    /// Number of parallel lanes (8 in the paper: "Non-Conv Unit #0 … X8").
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Transforms one accumulator tile `(C, Tn, Tm)` with per-channel
    /// parameters (`params[c]` applies to channel `c`), producing the int8
    /// tile the intermediate buffer stores.
    ///
    /// Thin allocating wrapper over [`NonConvUnit::apply_tile_into`]; the
    /// simulator's hot path uses the `_into` variant with a reused output
    /// buffer.
    ///
    /// `params` may cover more channels than the tile (the caller passes the
    /// slice for the current channel window).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if `params` has fewer entries than
    /// the tile has channels.
    pub fn apply_tile(
        &self,
        acc: &Tensor3<i32>,
        params: &[FoldedAffine],
    ) -> Result<(Tensor3<i8>, NonConvActivity), CoreError> {
        let (c, h, w) = acc.shape();
        let mut out = Tensor3::<i8>::zeros(c, h, w);
        let activity = self.apply_tile_into(acc, params, &mut out)?;
        Ok((out, activity))
    }

    /// Transforms one accumulator tile into a caller-provided output
    /// buffer, which is reshaped to `acc`'s shape in place —
    /// allocation-free once the buffer has grown to that size, and
    /// bit-exact with [`NonConvUnit::apply_tile`]. The per-channel
    /// transform walks flat channel planes instead of indexing every
    /// element.
    ///
    /// The clip floor is the ReLU zero — the intermediate-boundary
    /// configuration. [`NonConvUnit::apply_tile_into_clipped`] exposes the
    /// floor for output boundaries that fold no ReLU (the linear project
    /// convolution of an inverted-residual block clips to −128).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if `params` has fewer entries than
    /// the tile has channels.
    pub fn apply_tile_into(
        &self,
        acc: &Tensor3<i32>,
        params: &[FoldedAffine],
        out: &mut Tensor3<i8>,
    ) -> Result<NonConvActivity, CoreError> {
        self.apply_tile_into_clipped(acc, params, 0, out)
    }

    /// [`NonConvUnit::apply_tile_into`] with an explicit clip floor `lo`
    /// (`0` = folded ReLU, `-128` = linear output).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if `params` has fewer entries than
    /// the tile has channels.
    pub fn apply_tile_into_clipped(
        &self,
        acc: &Tensor3<i32>,
        params: &[FoldedAffine],
        lo: i8,
        out: &mut Tensor3<i8>,
    ) -> Result<NonConvActivity, CoreError> {
        let (c, h, w) = acc.shape();
        // The plane loop writes every output element, so the reshape
        // skips the zero-fill.
        out.resize_for_overwrite(c, h, w);
        self.apply_into_slice(acc, params, lo, out.as_mut_slice())
    }

    /// [`NonConvUnit::apply_tile_into_clipped`] into a caller-owned slice
    /// laid out like `acc` (channel planes, then rows) — the form that
    /// writes a portion's DWC accumulators straight into their channel
    /// slab of the portion-local intermediate map, with no tile paste.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if `params` has fewer entries than
    /// `acc` has channels, or `out` is not exactly `acc`'s length.
    pub fn apply_into_slice(
        &self,
        acc: &Tensor3<i32>,
        params: &[FoldedAffine],
        lo: i8,
        out: &mut [i8],
    ) -> Result<NonConvActivity, CoreError> {
        let (c, h, w) = acc.shape();
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
        let mut activity = NonConvActivity::default();
        let plane = h * w;
        let planes = acc
            .as_slice()
            .chunks_exact(plane)
            .zip(out.chunks_exact_mut(plane));
        for ((src, dst), p) in planes.zip(params) {
            for (d, &a) in dst.iter_mut().zip(src) {
                let y = p.apply_fixed(a, lo);
                activity.ops += 1;
                activity.zero_outputs += u64::from(y == 0);
                *d = y;
            }
        }
        Ok(activity)
    }

    /// The residual extension of the output boundary: transforms one
    /// accumulator tile while summing the requantized skip connection
    /// `r · residual[c]` onto the `k·x + b` bus at wide Q8.16 precision
    /// *before* the round stage (see
    /// [`FoldedAffine::apply_fixed_residual`]) — the Non-Conv fold and the
    /// residual add commute bit-exactly, proven by the `residual_fold`
    /// property suite in `edea-nn`.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if `params` has fewer entries than
    /// the tile has channels, or if `residual`'s shape differs from
    /// `acc`'s.
    pub fn apply_tile_residual_into(
        &self,
        acc: &Tensor3<i32>,
        params: &[FoldedAffine],
        residual: &Tensor3<i8>,
        r: edea_fixed::Q8x16,
        lo: i8,
        out: &mut Tensor3<i8>,
    ) -> Result<NonConvActivity, CoreError> {
        let (c, h, w) = acc.shape();
        if params.len() < c {
            return Err(CoreError::UnsupportedShape {
                detail: format!("{} Non-Conv parameter sets for {c} channels", params.len()),
            });
        }
        if residual.shape() != acc.shape() {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "residual tile {:?} does not match accumulator tile {:?}",
                    residual.shape(),
                    acc.shape()
                ),
            });
        }
        out.resize_for_overwrite(c, h, w);
        let mut activity = NonConvActivity::default();
        let plane = h * w;
        let planes = acc
            .as_slice()
            .chunks_exact(plane)
            .zip(residual.as_slice().chunks_exact(plane))
            .zip(out.as_mut_slice().chunks_exact_mut(plane));
        for (((src, res), dst), p) in planes.zip(params) {
            for ((d, &a), &rv) in dst.iter_mut().zip(src).zip(res) {
                let y = p.apply_fixed_residual(a, rv, r, lo);
                activity.ops += 1;
                activity.zero_outputs += u64::from(y == 0);
                *d = y;
            }
        }
        Ok(activity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edea_fixed::Q8x16;
    use edea_tensor::Tensor3;

    fn unit() -> NonConvUnit {
        NonConvUnit::new(&EdeaConfig::paper())
    }

    fn affine(k: f64, b: f64) -> FoldedAffine {
        FoldedAffine::fold(k, b, 1.0, 1.0, 1.0)
    }

    #[test]
    fn paper_unit_has_8_lanes() {
        assert_eq!(unit().lanes(), 8);
    }

    #[test]
    fn applies_per_channel_affine() {
        let acc = Tensor3::<i32>::from_fn(2, 2, 2, |c, h, w| (c as i32 + 1) * (h * 2 + w) as i32);
        let params = vec![affine(1.0, 0.0), affine(0.5, 1.0)];
        let (out, act) = unit().apply_tile(&acc, &params).unwrap();
        assert_eq!(out[(0, 1, 1)], 3); // 1.0·3 + 0
        assert_eq!(out[(1, 1, 1)], 4); // 0.5·6 + 1
        assert_eq!(act.ops, 8);
    }

    #[test]
    fn relu_floor_counts_zero_outputs() {
        let acc = Tensor3::<i32>::from_fn(1, 2, 2, |_, h, w| (h * 2 + w) as i32 - 2); // -2..1
        let params = vec![affine(1.0, 0.0)];
        let (out, act) = unit().apply_tile(&acc, &params).unwrap();
        assert_eq!(out.as_slice(), &[0, 0, 0, 1]);
        assert_eq!(act.zero_outputs, 3);
    }

    #[test]
    fn saturates_at_127() {
        let acc = Tensor3::<i32>::from_fn(1, 1, 1, |_, _, _| 1_000_000);
        let (out, _) = unit().apply_tile(&acc, &[affine(1.0, 0.0)]).unwrap();
        assert_eq!(out[(0, 0, 0)], 127);
    }

    #[test]
    fn rejects_missing_params() {
        let acc = Tensor3::<i32>::zeros(8, 2, 2);
        let params = vec![affine(1.0, 0.0); 4];
        assert!(unit().apply_tile(&acc, &params).is_err());
    }

    #[test]
    fn clipped_floor_passes_negative_outputs() {
        // lo = −128: the linear project boundary keeps signed codes that
        // the ReLU-folded boundary would floor to zero.
        let acc = Tensor3::<i32>::from_fn(1, 2, 2, |_, h, w| (h * 2 + w) as i32 - 2); // -2..1
        let params = vec![affine(1.0, 0.0)];
        let mut out = Tensor3::<i8>::zeros(1, 1, 1);
        unit()
            .apply_tile_into_clipped(&acc, &params, -128, &mut out)
            .unwrap();
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
        let mut out = Tensor3::<i8>::zeros(1, 1, 1);
        unit()
            .apply_tile_residual_into(&acc, &params, &residual, r, -128, &mut out)
            .unwrap();
        for ((c, h, w), &v) in out.indexed_iter() {
            assert_eq!(
                v,
                params[c].apply_fixed_residual(acc[(c, h, w)], residual[(c, h, w)], r, -128)
            );
        }
    }

    #[test]
    fn residual_rejects_mismatched_shapes() {
        let acc = Tensor3::<i32>::zeros(2, 2, 2);
        let residual = Tensor3::<i8>::zeros(2, 2, 1);
        let params = vec![affine(1.0, 0.0); 2];
        let mut out = Tensor3::<i8>::zeros(1, 1, 1);
        assert!(unit()
            .apply_tile_residual_into(&acc, &params, &residual, Q8x16::ONE, -128, &mut out)
            .is_err());
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
        let (out, _) = unit().apply_tile(&acc, &params).unwrap();
        for ((c, h, w), &v) in out.indexed_iter() {
            assert_eq!(v, params[c].apply_fixed(acc[(c, h, w)], 0));
        }
        // And the constants really are Q8.16 words:
        assert_eq!(params[0].k, Q8x16::from_f64(params[0].k_exact));
    }
}
