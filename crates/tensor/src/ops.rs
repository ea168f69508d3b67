//! Non-convolutional reference operations: batch norm, ReLU, pooling,
//! statistics.

use crate::{Tensor3, TensorError};

/// Per-channel batch-normalization parameters, as they exist after training:
/// `y = γ·(x − μ)/√(σ² + ε) + β`.
///
/// At inference all five quantities are constants (paper Sec. III-C); the
/// Non-Conv unit folds them away, but this reference form is what the fold is
/// verified against.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNorm {
    /// Scale γ, one per channel.
    pub gamma: Vec<f32>,
    /// Shift β, one per channel.
    pub beta: Vec<f32>,
    /// Running mean μ, one per channel.
    pub mean: Vec<f32>,
    /// Running variance σ², one per channel.
    pub var: Vec<f32>,
    /// Numerical-stability constant ε.
    pub eps: f32,
}

impl BatchNorm {
    /// Identity normalization for `c` channels (γ=1, β=0, μ=0, σ²=1).
    #[must_use]
    pub fn identity(c: usize) -> Self {
        Self {
            gamma: vec![1.0; c],
            beta: vec![0.0; c],
            mean: vec![0.0; c],
            var: vec![1.0; c],
            eps: 1e-5,
        }
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.gamma.len()
    }

    /// Validates that all parameter vectors have length `c` and variances
    /// are non-negative.
    ///
    /// # Errors
    ///
    /// [`TensorError::ShapeMismatch`] describing the first inconsistency.
    pub fn validate(&self, c: usize) -> Result<(), TensorError> {
        for (name, len) in [
            ("gamma", self.gamma.len()),
            ("beta", self.beta.len()),
            ("mean", self.mean.len()),
            ("var", self.var.len()),
        ] {
            if len != c {
                return Err(TensorError::ShapeMismatch {
                    detail: format!("batchnorm {name} has {len} channels, expected {c}"),
                });
            }
        }
        if self.var.iter().any(|&v| v < 0.0 || !v.is_finite()) {
            return Err(TensorError::ShapeMismatch {
                detail: "batchnorm variance must be finite and non-negative".to_owned(),
            });
        }
        Ok(())
    }

    /// The affine coefficients `(k_c, b_c)` such that
    /// `bn(x) = k_c·x + b_c` per channel — the first step of the Non-Conv
    /// fold.
    #[must_use]
    pub fn affine_coefficients(&self) -> Vec<(f32, f32)> {
        (0..self.channels())
            .map(|c| {
                let inv_sigma = 1.0 / (self.var[c] + self.eps).sqrt();
                let k = self.gamma[c] * inv_sigma;
                let b = self.beta[c] - self.gamma[c] * self.mean[c] * inv_sigma;
                (k, b)
            })
            .collect()
    }

    /// Applies the normalization to a feature map.
    ///
    /// # Panics
    ///
    /// Panics if channel counts disagree.
    #[must_use]
    pub fn apply(&self, x: &Tensor3<f32>) -> Tensor3<f32> {
        assert_eq!(x.channels(), self.channels(), "batchnorm channel mismatch");
        let coeff = self.affine_coefficients();
        let (c, h, w) = x.shape();
        Tensor3::from_fn(c, h, w, |ci, hi, wi| {
            let (k, b) = coeff[ci];
            k * x[(ci, hi, wi)] + b
        })
    }
}

/// ReLU: `max(x, 0)` elementwise.
#[must_use]
pub fn relu(x: &Tensor3<f32>) -> Tensor3<f32> {
    x.map(|&v| v.max(0.0))
}

/// Global average pooling: collapses each channel plane to its mean.
#[must_use]
pub fn global_avg_pool(x: &Tensor3<f32>) -> Vec<f32> {
    let (c, h, w) = x.shape();
    let n = (h * w) as f32;
    (0..c)
        .map(|ci| {
            let mut sum = 0.0;
            for hi in 0..h {
                for wi in 0..w {
                    sum += x[(ci, hi, wi)];
                }
            }
            sum / n
        })
        .collect()
}

/// Fully-connected layer: `y = W·x + b` with `W` of shape `out×in`.
///
/// # Panics
///
/// Panics if dimensions disagree.
#[must_use]
pub fn linear(x: &[f32], weights: &[f32], bias: &[f32], out: usize) -> Vec<f32> {
    let n = x.len();
    assert_eq!(weights.len(), out * n, "weight matrix must be out*in");
    assert_eq!(bias.len(), out, "bias must have out entries");
    (0..out)
        .map(|o| {
            let mut acc = bias[o];
            for (i, &xi) in x.iter().enumerate() {
                acc += weights[o * n + i] * xi;
            }
            acc
        })
        .collect()
}

/// The `q`-th quantile (0 ≤ q ≤ 1) of `values`, by sorting (nearest-rank).
///
/// # Panics
///
/// Panics if `values` is empty or `q` is outside `[0, 1]`.
#[must_use]
pub fn quantile(values: &[f32], q: f64) -> f32 {
    assert!(!values.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile fraction out of range");
    let mut sorted: Vec<f32> = values.to_vec();
    sorted.sort_by(f32::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Whether every byte of an int8 run is zero, scanned in `u64` words.
///
/// The zero-run scan behind the engines' skip-on-zero fast paths: post-ReLU
/// activation tiles are mostly zero (the paper's Fig. 11 measures up to
/// 97.4 %), and a whole-run check costs one word compare per 8 elements —
/// far below the MAC work it lets the caller skip. An empty run is
/// vacuously all-zero.
#[must_use]
pub fn all_zero_i8(values: &[i8]) -> bool {
    let mut words = values.chunks_exact(8);
    for word in &mut words {
        let mut bytes = [0u8; 8];
        for (dst, &src) in bytes.iter_mut().zip(word) {
            *dst = src as u8;
        }
        if u64::from_ne_bytes(bytes) != 0 {
            return false;
        }
    }
    words.remainder().iter().all(|&v| v == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn identity_bn_is_identity_up_to_eps() {
        let x = rng::synthetic_image(3, 4, 4, 1);
        let bn = BatchNorm::identity(3);
        let y = bn.apply(&x);
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn bn_standardizes_constant_offset() {
        // x with mean 5 var 4 per channel: bn with μ=5, σ²=4, γ=1, β=0 gives
        // (x-5)/2.
        let x = Tensor3::from_fn(1, 2, 2, |_, h, w| 5.0 + (h * 2 + w) as f32 * 2.0 - 3.0);
        let bn = BatchNorm {
            gamma: vec![1.0],
            beta: vec![0.0],
            mean: vec![5.0],
            var: vec![4.0],
            eps: 0.0,
        };
        let y = bn.apply(&x);
        for ((_, h, w), &v) in y.indexed_iter() {
            let expect = ((h * 2 + w) as f32 * 2.0 - 3.0) / 2.0;
            assert!((v - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn affine_coefficients_match_definition() {
        let bn = BatchNorm {
            gamma: vec![2.0],
            beta: vec![1.0],
            mean: vec![3.0],
            var: vec![0.25],
            eps: 0.0,
        };
        let (k, b) = bn.affine_coefficients()[0];
        assert!((k - 4.0).abs() < 1e-6); // 2/0.5
        assert!((b - (1.0 - 2.0 * 3.0 / 0.5)).abs() < 1e-5); // 1 - 12 = -11
    }

    #[test]
    fn bn_validate_catches_mismatch_and_negative_var() {
        let mut bn = BatchNorm::identity(4);
        assert!(bn.validate(4).is_ok());
        assert!(bn.validate(5).is_err());
        bn.var[2] = -1.0;
        assert!(bn.validate(4).is_err());
    }

    #[test]
    fn relu_clamps_negatives_only() {
        let x = Tensor3::from_fn(1, 1, 4, |_, _, w| w as f32 - 2.0);
        let y = relu(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn global_avg_pool_means_per_channel() {
        let x = Tensor3::from_fn(2, 2, 2, |c, h, w| (c * 4 + h * 2 + w) as f32);
        let p = global_avg_pool(&x);
        assert_eq!(p, vec![1.5, 5.5]);
    }

    #[test]
    fn linear_reference() {
        let y = linear(
            &[1.0, 2.0],
            &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0],
            &[0.0, 0.0, 0.5],
            3,
        );
        assert_eq!(y, vec![1.0, 2.0, 3.5]);
    }

    #[test]
    #[should_panic(expected = "out*in")]
    fn linear_rejects_bad_weight_size() {
        let _ = linear(&[1.0, 2.0], &[1.0], &[0.0], 1);
    }

    #[test]
    fn quantile_nearest_rank() {
        let v = [5.0f32, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
    }

    #[test]
    fn all_zero_scan_matches_elementwise_check() {
        // Lengths straddling the 8-byte word boundary, with the nonzero in
        // every position: the word path and the remainder path both see it.
        for len in [0usize, 1, 7, 8, 9, 16, 23] {
            let zeros = vec![0i8; len];
            assert!(all_zero_i8(&zeros), "len {len}");
            for hot in 0..len {
                let mut v = zeros.clone();
                v[hot] = -1;
                assert!(!all_zero_i8(&v), "len {len} hot {hot}");
            }
        }
    }
}
