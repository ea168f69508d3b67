//! Property-based tests for tensors, quantization and reference kernels.

use edea_tensor::conv::{
    compose_dsc_weights, conv2d_f32, conv2d_im2col_f32, depthwise_conv2d_f32, depthwise_conv2d_i8,
    out_dim, pointwise_conv2d_f32, pointwise_conv2d_i8,
};
use edea_tensor::ops::{quantile, BatchNorm};
use edea_tensor::{rng, QuantParams, Tensor3, Tensor4};
use proptest::prelude::*;

fn small_i8_tensor3(c: usize, h: usize, w: usize) -> impl Strategy<Value = Tensor3<i8>> {
    prop::collection::vec(-128i8..=127, c * h * w)
        .prop_map(move |v| Tensor3::from_vec(v, c, h, w).expect("sized correctly"))
}

fn small_i8_tensor4(
    k: usize,
    c: usize,
    kh: usize,
    kw: usize,
) -> impl Strategy<Value = Tensor4<i8>> {
    prop::collection::vec(-128i8..=127, k * c * kh * kw)
        .prop_map(move |v| Tensor4::from_vec(v, k, c, kh, kw).expect("sized correctly"))
}

/// A full-range int8 value source: uniform for `fill` 0–1, else every
/// value at one extreme (2: all −128, 3: all 127).
fn fill_value(fill: u8) -> Option<i8> {
    match fill {
        2 => Some(i8::MIN),
        3 => Some(i8::MAX),
        _ => None,
    }
}

/// A `c×h×w` int8 map drawn by [`fill_value`].
fn i8_map(c: usize, h: usize, w: usize, fill: u8, seed: u64) -> Tensor3<i8> {
    match fill_value(fill) {
        Some(v) => Tensor3::from_fn(c, h, w, |_, _, _| v),
        None => rng::uniform_i8_tensor3(c, h, w, i8::MIN, i8::MAX, seed),
    }
}

/// `k×c×size×size` int8 kernels drawn by [`fill_value`].
fn i8_kernels(k: usize, c: usize, size: usize, fill: u8, seed: u64) -> Tensor4<i8> {
    match fill_value(fill) {
        Some(v) => Tensor4::from_fn(k, c, size, size, |_, _, _, _| v),
        None => rng::uniform_i8_tensor4(k, c, size, size, i8::MIN, i8::MAX, seed),
    }
}

proptest! {
    /// out_dim is consistent with actually sliding a window.
    #[test]
    fn out_dim_counts_window_positions(input in 1usize..24, k in 1usize..5,
                                        stride in 1usize..3, pad in 0usize..2) {
        prop_assume!(input + 2 * pad >= k);
        let n = out_dim(input, k, stride, pad);
        // count positions p = 0, stride, 2*stride... with p + k <= input + 2*pad
        let mut count = 0;
        let mut p = 0;
        while p + k <= input + 2 * pad {
            count += 1;
            p += stride;
        }
        prop_assert_eq!(n, count);
    }

    /// Convolution is linear: conv(a*x) == a*conv(x) (exact for power-of-two a).
    #[test]
    fn conv_is_homogeneous(seed in 0u64..1000) {
        let x = rng::synthetic_image(2, 6, 6, seed);
        let w = rng::kaiming_weights(3, 2, 3, 3, seed + 1);
        let y1 = conv2d_f32(&x, &w, 1, 1);
        let x2 = x.map(|&v| v * 2.0);
        let y2 = conv2d_f32(&x2, &w, 1, 1);
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            prop_assert!((2.0 * a - b).abs() < 1e-4);
        }
    }

    /// Convolution is additive in the input.
    #[test]
    fn conv_is_additive(seed in 0u64..500) {
        let xa = rng::synthetic_image(2, 5, 5, seed);
        let xb = rng::synthetic_image(2, 5, 5, seed + 77);
        let w = rng::kaiming_weights(2, 2, 3, 3, seed + 2);
        let sum = Tensor3::from_fn(2, 5, 5, |c, h, wi| xa[(c, h, wi)] + xb[(c, h, wi)]);
        let ys = conv2d_f32(&sum, &w, 1, 1);
        let ya = conv2d_f32(&xa, &w, 1, 1);
        let yb = conv2d_f32(&xb, &w, 1, 1);
        for i in 0..ys.len() {
            prop_assert!((ys.as_slice()[i] - ya.as_slice()[i] - yb.as_slice()[i]).abs() < 1e-4);
        }
    }

    /// Direct and im2col convolutions agree on random integer-valued data
    /// (exact in f32 because all intermediates are small integers).
    #[test]
    fn direct_equals_im2col_exact(x in small_i8_tensor3(2, 5, 5),
                                  w in small_i8_tensor4(3, 2, 3, 3),
                                  stride in 1usize..3) {
        let xf = x.map(|&v| f32::from(v));
        let wf = w.map(|&v| f32::from(v));
        let a = conv2d_f32(&xf, &wf, stride, 1);
        let b = conv2d_im2col_f32(&xf, &wf, stride, 1);
        prop_assert_eq!(a, b);
    }

    /// Integer depthwise conv matches the f32 reference exactly on int data,
    /// at generated geometries: 1–64 channels, maps 1–17 on a side,
    /// kernels 1/3/5, strides 1–3, pads 0–2 where the window fits.
    #[test]
    fn depthwise_int_matches_float(c in 1usize..=64, h in 1usize..=17, w in 1usize..=17,
                                   k in (0usize..3).prop_map(|i| 2 * i + 1), stride in 1usize..=3, pad in 0usize..=2,
                                   fills in (0u8..4, 0u8..4), seed in any::<u64>()) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let x = i8_map(c, h, w, fills.0, seed);
        let wt = i8_kernels(c, 1, k, fills.1, seed);
        let yi = depthwise_conv2d_i8(&x, &wt, stride, pad);
        let yf = depthwise_conv2d_f32(&x.map(|&v| f32::from(v)), &wt.map(|&v| f32::from(v)), stride, pad);
        prop_assert_eq!(yi.map(|&v| v as f32), yf);
    }

    /// Integer pointwise conv matches the f32 reference exactly on int data:
    /// 1–64 input and output channels on maps 1–17 on a side.
    #[test]
    fn pointwise_int_matches_float(c in 1usize..=64, k in 1usize..=64,
                                   h in 1usize..=17, w in 1usize..=17,
                                   fills in (0u8..4, 0u8..4), seed in any::<u64>()) {
        let x = i8_map(c, h, w, fills.0, seed);
        let wt = i8_kernels(k, c, 1, fills.1, seed);
        let yi = pointwise_conv2d_i8(&x, &wt);
        let yf = pointwise_conv2d_f32(&x.map(|&v| f32::from(v)), &wt.map(|&v| f32::from(v)));
        prop_assert_eq!(yi.map(|&v| v as f32), yf);
    }

    /// The same on deep inputs: 65–1024 input channels on maps up to 4×4.
    /// A sum reaches at most 1024·128·128 = 2²⁴, still exact in f32.
    #[test]
    fn pointwise_deep_int_matches_float(c in 65usize..=1024, k in 1usize..=16,
                                        h in 1usize..=4, w in 1usize..=4,
                                        fills in (0u8..4, 0u8..4), seed in any::<u64>()) {
        let x = i8_map(c, h, w, fills.0, seed);
        let wt = i8_kernels(k, c, 1, fills.1, seed);
        let yi = pointwise_conv2d_i8(&x, &wt);
        let yf = pointwise_conv2d_f32(&x.map(|&v| f32::from(v)), &wt.map(|&v| f32::from(v)));
        prop_assert_eq!(yi.map(|&v| v as f32), yf);
    }

    /// The DSC composition identity holds for random weights.
    #[test]
    fn dsc_equals_composed_standard_conv(seed in 0u64..300) {
        let x = rng::synthetic_image(3, 6, 6, seed);
        let dw = rng::kaiming_weights(3, 1, 3, 3, seed + 5);
        let pw = rng::kaiming_weights(4, 3, 1, 1, seed + 6);
        let via_dsc = pointwise_conv2d_f32(&depthwise_conv2d_f32(&x, &dw, 1, 1), &pw);
        let via_sc = conv2d_f32(&x, &compose_dsc_weights(&dw, &pw), 1, 1);
        for (a, b) in via_dsc.as_slice().iter().zip(via_sc.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// Quantize/dequantize error is bounded by scale/2 for in-range values.
    #[test]
    fn quant_round_trip_bounded(scale in 0.001f32..1.0, x in -10.0f32..10.0) {
        let q = QuantParams::new(scale).unwrap();
        prop_assume!(x.abs() <= scale * 127.0);
        let back = q.dequantize(q.quantize(x));
        prop_assert!((back - x).abs() <= scale / 2.0 + scale * 1e-4);
    }

    /// Quantization is monotone.
    #[test]
    fn quantization_monotone(scale in 0.01f32..2.0, a in -50.0f32..50.0, d in 0.0f32..20.0) {
        let q = QuantParams::new(scale).unwrap();
        prop_assert!(q.quantize(a) <= q.quantize(a + d));
    }

    /// BN followed by its inverse affine is the identity.
    #[test]
    fn bn_affine_is_exactly_bn(seed in 0u64..300) {
        let x = rng::synthetic_image(2, 4, 4, seed);
        let bn = BatchNorm {
            gamma: vec![1.3, -0.7],
            beta: vec![0.2, 1.0],
            mean: vec![-0.1, 0.4],
            var: vec![0.5, 2.0],
            eps: 1e-5,
        };
        let direct = bn.apply(&x);
        let coeff = bn.affine_coefficients();
        for ((c, h, w), &v) in x.indexed_iter() {
            let (k, b) = coeff[c];
            prop_assert!((direct[(c, h, w)] - (k * v + b)).abs() < 1e-5);
        }
    }

    /// quantile(., 0) is min, quantile(., 1) is max, and it is monotone in q.
    #[test]
    fn quantile_properties(values in prop::collection::vec(-100f32..100.0, 1..200),
                           q1 in 0.0f64..1.0, q2 in 0.0f64..1.0) {
        let lo = q1.min(q2);
        let hi = q1.max(q2);
        prop_assert!(quantile(&values, lo) <= quantile(&values, hi));
        let min = values.iter().cloned().fold(f32::INFINITY, f32::min);
        let max = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_assert_eq!(quantile(&values, 0.0), min);
        prop_assert_eq!(quantile(&values, 1.0), max);
    }

    /// Channel slicing then re-reading matches the original contents.
    #[test]
    fn channel_slice_consistent(x in small_i8_tensor3(6, 3, 3), c0 in 0usize..4, n in 1usize..3) {
        prop_assume!(c0 + n <= 6);
        let s = x.channel_slice(c0, n);
        for c in 0..n {
            for h in 0..3 {
                for w in 0..3 {
                    prop_assert_eq!(s[(c, h, w)], x[(c0 + c, h, w)]);
                }
            }
        }
    }
}
