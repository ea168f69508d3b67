//! Symmetric int8 quantization.
//!
//! EDEA deploys MobileNetV1 with 8-bit weights and activations obtained via
//! LSQ (learned step size quantization, paper ref \[14\]). At inference time an
//! LSQ-quantized tensor is fully described by its int8 payload plus a single
//! positive step size (scale); zero point is 0 (symmetric). This module
//! implements that representation; the step-size *learning* lives in
//! `edea-nn::lsq`.

use edea_fixed::round_f64;

use crate::{Tensor3, Tensor4};

/// Symmetric quantization parameters: `real = scale * int`.
///
/// # Example
///
/// ```
/// use edea_tensor::QuantParams;
///
/// let q = QuantParams::new(0.05)?;
/// assert_eq!(q.quantize(1.0), 20);
/// assert_eq!(q.dequantize(20), 1.0);
/// assert_eq!(q.quantize(100.0), 127); // saturates
/// # Ok::<(), edea_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    scale: f32,
}

impl QuantParams {
    /// Creates parameters with the given positive, finite scale.
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::ShapeMismatch`] — reused as a generic
    /// validation error — if `scale` is not a finite positive number.
    pub fn new(scale: f32) -> Result<Self, crate::TensorError> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(crate::TensorError::ShapeMismatch {
                detail: format!("quantization scale must be finite and positive, got {scale}"),
            });
        }
        Ok(Self { scale })
    }

    /// The step size (`real = scale * int`).
    #[must_use]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Chooses a scale so that `max_abs` maps to the int8 maximum (127).
    ///
    /// # Panics
    ///
    /// Panics if `max_abs` is not finite-positive.
    #[must_use]
    pub fn from_max_abs(max_abs: f32) -> Self {
        assert!(
            max_abs.is_finite() && max_abs > 0.0,
            "max_abs must be positive"
        );
        Self {
            scale: max_abs / 127.0,
        }
    }

    /// Quantizes one value: `round(x / scale)` clamped to `[-128, 127]`
    /// (round half away from zero, like the hardware).
    #[must_use]
    pub fn quantize(&self, x: f32) -> i8 {
        let v = f64::from(x) / f64::from(self.scale);
        let r = round_f64(v.clamp(-1e18, 1e18));
        r.clamp(-128, 127) as i8
    }

    /// Dequantizes one value.
    #[must_use]
    pub fn dequantize(&self, q: i8) -> f32 {
        f32::from(q) * self.scale
    }

    /// Quantizes a feature map.
    #[must_use]
    pub fn quantize_tensor3(&self, t: &Tensor3<f32>) -> QTensor3 {
        QTensor3 {
            values: t.map(|&x| self.quantize(x)),
            params: *self,
        }
    }

    /// Quantizes a weight tensor.
    #[must_use]
    pub fn quantize_tensor4(&self, t: &Tensor4<f32>) -> QTensor4 {
        QTensor4 {
            values: t.map(|&x| self.quantize(x)),
            params: *self,
        }
    }
}

/// A quantized feature map: int8 payload + [`QuantParams`].
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor3 {
    values: Tensor3<i8>,
    params: QuantParams,
}

impl QTensor3 {
    /// Wraps an existing int8 tensor with its scale.
    #[must_use]
    pub fn new(values: Tensor3<i8>, params: QuantParams) -> Self {
        Self { values, params }
    }

    /// The int8 payload.
    #[must_use]
    pub fn values(&self) -> &Tensor3<i8> {
        &self.values
    }

    /// The quantization parameters.
    #[must_use]
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Dequantizes back to floating point.
    #[must_use]
    pub fn dequantize(&self) -> Tensor3<f32> {
        self.values.map(|&q| self.params.dequantize(q))
    }

    /// Fraction of elements that are exactly zero — the activation sparsity
    /// statistic of the paper's Fig. 11.
    #[must_use]
    pub fn zero_fraction(&self) -> f64 {
        let zeros = self.values.as_slice().iter().filter(|&&v| v == 0).count();
        zeros as f64 / self.values.len() as f64
    }

    /// Consumes self, returning the payload tensor.
    #[must_use]
    pub fn into_values(self) -> Tensor3<i8> {
        self.values
    }
}

/// A quantized weight tensor: int8 payload + [`QuantParams`].
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor4 {
    values: Tensor4<i8>,
    params: QuantParams,
}

impl QTensor4 {
    /// Wraps an existing int8 tensor with its scale.
    #[must_use]
    pub fn new(values: Tensor4<i8>, params: QuantParams) -> Self {
        Self { values, params }
    }

    /// The int8 payload.
    #[must_use]
    pub fn values(&self) -> &Tensor4<i8> {
        &self.values
    }

    /// The quantization parameters.
    #[must_use]
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Dequantizes back to floating point.
    #[must_use]
    pub fn dequantize(&self) -> Tensor4<f32> {
        self.values.map(|&q| self.params.dequantize(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_validation() {
        assert!(QuantParams::new(0.0).is_err());
        assert!(QuantParams::new(-1.0).is_err());
        assert!(QuantParams::new(f32::NAN).is_err());
        assert!(QuantParams::new(f32::INFINITY).is_err());
        assert!(QuantParams::new(0.01).is_ok());
    }

    #[test]
    fn quantize_rounds_half_away_from_zero() {
        let q = QuantParams::new(1.0).unwrap();
        assert_eq!(q.quantize(0.5), 1);
        assert_eq!(q.quantize(-0.5), -1);
        assert_eq!(q.quantize(0.49), 0);
        assert_eq!(q.quantize(1.49), 1);
    }

    #[test]
    fn quantize_saturates_to_int8() {
        let q = QuantParams::new(1.0).unwrap();
        assert_eq!(q.quantize(127.6), 127);
        assert_eq!(q.quantize(-129.0), -128);
        assert_eq!(q.quantize(1e30), 127);
        assert_eq!(q.quantize(-1e30), -128);
    }

    #[test]
    fn from_max_abs_maps_extreme_to_127() {
        let q = QuantParams::from_max_abs(6.35);
        assert_eq!(q.quantize(6.35), 127);
        assert_eq!(q.quantize(-6.35), -127);
    }

    #[test]
    fn round_trip_error_bounded_by_half_scale() {
        let q = QuantParams::new(0.1).unwrap();
        for i in -1200..=1200 {
            let x = i as f32 * 0.01;
            let back = q.dequantize(q.quantize(x));
            assert!((back - x).abs() <= 0.05 + 1e-6, "x={x} back={back}");
        }
    }

    #[test]
    fn zero_fraction_counts_exact_zeros() {
        let t = Tensor3::<f32>::from_fn(1, 2, 2, |_, h, w| if h == w { 0.0 } else { 1.0 });
        let q = QuantParams::new(0.5).unwrap().quantize_tensor3(&t);
        assert_eq!(q.zero_fraction(), 0.5);
    }

    #[test]
    fn qtensor_dequantize_round_trip() {
        let t = Tensor3::<f32>::from_fn(2, 2, 2, |c, h, w| (c + h + w) as f32 * 0.5 - 1.0);
        let p = QuantParams::new(0.5).unwrap();
        let qt = p.quantize_tensor3(&t);
        assert_eq!(qt.dequantize(), t); // all values are multiples of 0.5
    }

    #[test]
    fn qtensor4_shape_preserved() {
        let t = Tensor4::<f32>::zeros(3, 4, 1, 1);
        let p = QuantParams::new(1.0).unwrap();
        assert_eq!(p.quantize_tensor4(&t).values().shape(), (3, 4, 1, 1));
    }
}
