//! Sparsity shaping: imposing the trained network's activation statistics.
//!
//! The paper's power results (Fig. 11) depend on the per-layer activation
//! zero percentages of the *trained* MobileNetV1 — e.g. layer 12 reaches
//! 97.4 % (DWC) / 95.3 % (PWC) zeros, and the overall profile grows with
//! depth. Since the trained checkpoint is unavailable, this module makes the
//! synthetic model reproduce a given zero-percentage profile exactly (on the
//! calibration set) by choosing batch-norm parameters so that the desired
//! quantile of every pre-activation distribution sits at zero:
//!
//! For a target zero fraction `z`, set `μ_c = quantile_c(x, z)`,
//! `σ²_c = Var_c(x)`, `γ_c = 1`, `β_c = 0`; then
//! `P(bn(x) ≤ 0) = P(x ≤ μ_c) = z` and ReLU zeroes exactly that fraction.
//! This is a *faithful* substitution: a trained network also realizes its
//! sparsity through the (learned) location/scale of its BN parameters.
//!
//! The shaping runs inside the int8-path calibration
//! [`QuantizedDscNetwork::calibrate_shaped`](crate::quantize::QuantizedDscNetwork::calibrate_shaped),
//! which calls [`shape_bn_from_pools`] on each layer's accumulator pools.

use edea_tensor::ops::quantile;

use crate::NnError;

/// Per-layer target zero fractions for the DWC and PWC activations.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsityProfile {
    /// Target zero fraction of each layer's DWC activation (PWC input).
    pub dwc_zero: Vec<f64>,
    /// Target zero fraction of each layer's PWC activation (next input).
    pub pwc_zero: Vec<f64>,
}

impl SparsityProfile {
    /// The 13-layer profile used for the paper reproduction.
    ///
    /// Anchors from the paper: layer 12 is 97.4 % (DWC) / 95.3 % (PWC);
    /// layer 1 has the lowest sparsity (it has the highest power in
    /// Fig. 11); sparsity generally grows with depth; layer 10 is high
    /// (peak energy efficiency in Fig. 12). Intermediate values
    /// interpolate those anchors; see EXPERIMENTS.md for the comparison
    /// of resulting power numbers against the paper.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            dwc_zero: vec![
                0.58, 0.42, 0.47, 0.52, 0.57, 0.62, 0.64, 0.76, 0.82, 0.84, 0.90, 0.80, 0.974,
            ],
            pwc_zero: vec![
                0.52, 0.38, 0.44, 0.49, 0.54, 0.59, 0.61, 0.73, 0.79, 0.81, 0.87, 0.77, 0.953,
            ],
        }
    }

    /// A uniform profile (every layer the same `z`), for ablations.
    ///
    /// # Panics
    ///
    /// Panics if `z` is outside `(0, 1)`.
    #[must_use]
    pub fn uniform(z: f64, layers: usize) -> Self {
        assert!(z > 0.0 && z < 1.0, "zero fraction must be in (0,1)");
        Self {
            dwc_zero: vec![z; layers],
            pwc_zero: vec![z; layers],
        }
    }

    /// A near-dense profile (5 % zeros everywhere): the dense control for
    /// sparsity experiments. Exactly 0 is unreachable — the shaper places a
    /// quantile of each pre-activation distribution at zero, and ReLU on a
    /// continuous distribution always clips *some* mass — so this is the
    /// densest profile the calibration flow can realize.
    #[must_use]
    pub fn near_dense(layers: usize) -> Self {
        Self::uniform(0.05, layers)
    }

    /// Number of layers covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.dwc_zero.len()
    }

    /// Whether the profile is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dwc_zero.is_empty()
    }

    /// Validates the profile against a layer count.
    ///
    /// # Errors
    ///
    /// [`NnError::InvalidConfig`] on length mismatch or out-of-range values.
    pub fn validate(&self, layers: usize) -> Result<(), NnError> {
        if self.dwc_zero.len() != layers || self.pwc_zero.len() != layers {
            return Err(NnError::InvalidConfig {
                detail: format!(
                    "profile covers {}/{} layers, expected {layers}",
                    self.dwc_zero.len(),
                    self.pwc_zero.len()
                ),
            });
        }
        let ok = |v: &f64| *v > 0.0 && *v < 1.0;
        if !self.dwc_zero.iter().all(ok) || !self.pwc_zero.iter().all(ok) {
            return Err(NnError::InvalidConfig {
                detail: "zero fractions must be strictly inside (0,1)".into(),
            });
        }
        Ok(())
    }
}

/// Sets BN parameters so a `z` fraction of the layer's pre-activations map
/// to ≤ 0 (and are zeroed by ReLU). `pools[c]` holds the pre-activation
/// values of channel `c` (in real units). Returns the fraction of
/// calibration values that will be zeroed (= `z` up to quantile
/// discreteness).
///
/// The threshold is chosen *globally over the layer* on per-channel
/// standardized values: each channel is standardized by its own mean and
/// deviation (`γ = 1`, `μ_c`, `σ̂_c`), then a single shift `β = −τ` places
/// the layer-wide `z`-quantile at zero. Low-mean channels go entirely dead —
/// exactly what trained networks exhibit at the very sparse late layers —
/// and the layer-wide fraction hits the target even when per-channel pools
/// are tiny (layer 12 has only 2×2 pixels per channel).
///
/// # Panics
///
/// Panics if `pools` does not match the BN channel count or any pool is
/// empty.
pub fn shape_bn_from_pools(
    bn: &mut edea_tensor::ops::BatchNorm,
    pools: &[Vec<f32>],
    z: f64,
) -> f64 {
    let c_total = pools.len();
    assert_eq!(c_total, bn.channels(), "pool count must match BN channels");
    assert!(pools.iter().all(|p| !p.is_empty()), "empty channel pool");
    let mut standardized: Vec<f32> = Vec::new();
    for (c, pool) in pools.iter().enumerate() {
        let mean = pool.iter().map(|&v| f64::from(v)).sum::<f64>() / pool.len() as f64;
        let var = pool
            .iter()
            .map(|&v| (f64::from(v) - mean).powi(2))
            .sum::<f64>()
            / pool.len() as f64;
        let var = if var > 1e-12 { var } else { 1.0 };
        bn.gamma[c] = 1.0;
        bn.mean[c] = mean as f32;
        bn.var[c] = var as f32;
        let s = (var + f64::from(bn.eps)).sqrt();
        standardized.extend(pool.iter().map(|&v| ((f64::from(v) - mean) / s) as f32));
    }
    let mut tau = f64::from(quantile(&standardized, z));
    // Keep at least one value positive per layer: if the threshold reached
    // the maximum (degenerate distributions), back it off just below.
    let max_u = standardized
        .iter()
        .copied()
        .fold(f32::NEG_INFINITY, f32::max);
    if tau >= f64::from(max_u) {
        let second = standardized
            .iter()
            .copied()
            .filter(|&u| u < max_u)
            .fold(f32::NEG_INFINITY, f32::max);
        tau = if second.is_finite() {
            f64::from((second + max_u) / 2.0)
        } else {
            f64::from(max_u) - 1.0
        };
    }
    for c in 0..c_total {
        bn.beta[c] = (-tau) as f32;
    }
    let zeroed = standardized
        .iter()
        .filter(|&&u| f64::from(u) <= tau)
        .count();
    zeroed as f64 / standardized.len() as f64
}

/// Achieved zero fractions after shaping, per layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapingReport {
    /// Achieved DWC-activation zero fraction per layer (on calibration data).
    pub dwc_zero: Vec<f64>,
    /// Achieved PWC-activation zero fraction per layer.
    pub pwc_zero: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobilenet::MobileNetV1;
    use crate::quantize::{QuantStrategy, QuantizedDscNetwork};
    use edea_tensor::ops::BatchNorm;
    use edea_tensor::rng;

    #[test]
    fn paper_profile_is_valid_and_anchored() {
        let p = SparsityProfile::paper();
        p.validate(13).unwrap();
        assert_eq!(p.len(), 13);
        assert!((p.dwc_zero[12] - 0.974).abs() < 1e-9);
        assert!((p.pwc_zero[12] - 0.953).abs() < 1e-9);
        // Layer 1 is the sparsity minimum (highest power in Fig. 11):
        let min = p
            .dwc_zero
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(min, 1);
    }

    #[test]
    fn uniform_profile() {
        let p = SparsityProfile::uniform(0.5, 4);
        assert_eq!(p.len(), 4);
        assert!(p.validate(4).is_ok());
        assert!(p.validate(5).is_err());
    }

    #[test]
    fn near_dense_profile() {
        let p = SparsityProfile::near_dense(13);
        assert!(p.validate(13).is_ok());
        assert!(p.dwc_zero.iter().all(|&z| z == 0.05));
        assert!(p.pwc_zero.iter().all(|&z| z == 0.05));
    }

    #[test]
    fn profile_rejects_out_of_range() {
        let mut p = SparsityProfile::uniform(0.5, 3);
        p.dwc_zero[1] = 1.0;
        assert!(p.validate(3).is_err());
    }

    #[test]
    fn shaping_hits_targets_on_calibration_data() {
        // Channels with different locations and spreads: one layer-wide
        // threshold still zeroes the target fraction of all values.
        let pools: Vec<Vec<f32>> = (0..8)
            .map(|c| {
                let mut g = rng::Normal::new(c as u64);
                (0..64)
                    .map(|_| (g.sample() * (1.0 + c as f64) + c as f64) as f32)
                    .collect()
            })
            .collect();
        for z in [0.05, 0.42, 0.9, 0.974] {
            let mut bn = BatchNorm::identity(8);
            let zeroed = shape_bn_from_pools(&mut bn, &pools, z);
            assert!((zeroed - z).abs() < 0.01, "target {z}: zeroed {zeroed}");
            let coeffs = bn.affine_coefficients();
            let realized = pools
                .iter()
                .enumerate()
                .flat_map(|(c, p)| p.iter().map(move |&v| (c, v)))
                .filter(|&(c, v)| coeffs[c].0 * v + coeffs[c].1 <= 0.0)
                .count() as f64
                / (8 * 64) as f64;
            assert!(
                (realized - z).abs() < 0.01,
                "target {z}: BN zeroes {realized}"
            );
        }
    }

    #[test]
    fn empty_calibration_rejected() {
        let mut model = MobileNetV1::synthetic(0.25, 1);
        let e = QuantizedDscNetwork::calibrate_shaped(
            &mut model,
            &[],
            &SparsityProfile::paper(),
            QuantStrategy::paper(),
        );
        assert_eq!(e.unwrap_err(), NnError::EmptyCalibrationSet);
    }

    #[test]
    fn wrong_profile_length_rejected() {
        let mut model = MobileNetV1::synthetic(0.25, 1);
        let calib = rng::synthetic_batch(1, 3, 32, 32, 1);
        let e = QuantizedDscNetwork::calibrate_shaped(
            &mut model,
            &calib,
            &SparsityProfile::uniform(0.5, 5),
            QuantStrategy::paper(),
        );
        assert!(matches!(e, Err(NnError::InvalidConfig { .. })));
    }
}
