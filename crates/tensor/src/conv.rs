//! Reference convolution kernels (golden models).
//!
//! These define *correct* results for standard, depthwise and pointwise
//! convolution, against which the EDEA engine simulators are verified
//! bit-exactly (integer variants) or to floating-point tolerance.
//!
//! * The `f32` kernels are the oracle: straightforward loop nests over
//!   checked `(c, h, w)` indices, every output summed in one pass
//!   (`ko, ho, wo, ci, dh, dw`). The int8 kernels are property-tested
//!   against them on integer-valued data, where f32 sums are exact.
//!   Two independent implementations of standard convolution are provided
//!   (direct and im2col) so the oracle itself is cross-checked.
//! * The int8 kernels are the golden models the engines must match bit
//!   for bit, written for speed on the host: their inner loops run over
//!   contiguous slices. [`depthwise_conv2d_i8`] loops `c, dh, dw, ho, wo`
//!   (per channel plane, one row axpy per tap and output row);
//!   [`pointwise_conv2d_i8`] loops `ko, pixel, ci` over a pixel-major copy
//!   of its input (one contiguous dot product per output). Integer sums
//!   are exact in any order, so the loop order does not change a result.
//!   They stay dense loop nests and share no code with the engine
//!   simulators in `edea-core`: no zero skip, no tiling, no portions.

use crate::{Tensor3, Tensor4};

/// Output spatial size of a convolution: `(in + 2*pad - k)/stride + 1`.
///
/// # Panics
///
/// Panics if the window does not fit (`in + 2*pad < k`) or `stride == 0`.
///
/// # Example
///
/// ```
/// use edea_tensor::conv::out_dim;
///
/// assert_eq!(out_dim(32, 3, 1, 1), 32); // same-padding stride 1
/// assert_eq!(out_dim(32, 3, 2, 1), 16); // stride 2 halves
/// assert_eq!(out_dim(4, 3, 1, 0), 2);   // valid padding
/// ```
#[must_use]
pub fn out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    assert!(
        input + 2 * pad >= kernel,
        "window {kernel} does not fit input {input} with pad {pad}"
    );
    (input + 2 * pad - kernel) / stride + 1
}

/// Standard 2-D convolution, `f32`, direct loop nest.
///
/// `input` is `C×H×W`, `weights` are `K×C×Kh×Kw`; output is `K×H'×W'`.
///
/// # Panics
///
/// Panics if `weights.channels() != input.channels()` or the window does not
/// fit.
#[must_use]
pub fn conv2d_f32(
    input: &Tensor3<f32>,
    weights: &Tensor4<f32>,
    stride: usize,
    pad: usize,
) -> Tensor3<f32> {
    let (c_in, h_in, w_in) = input.shape();
    let (k, wc, kh, kw) = weights.shape();
    assert_eq!(wc, c_in, "weight channels {wc} != input channels {c_in}");
    let h_out = out_dim(h_in, kh, stride, pad);
    let w_out = out_dim(w_in, kw, stride, pad);
    let padded = input.zero_padded(pad);
    let mut out = Tensor3::<f32>::zeros(k, h_out, w_out);
    for ko in 0..k {
        for ho in 0..h_out {
            for wo in 0..w_out {
                let mut acc = 0.0f32;
                for ci in 0..c_in {
                    for dh in 0..kh {
                        for dw in 0..kw {
                            acc += padded[(ci, ho * stride + dh, wo * stride + dw)]
                                * weights[(ko, ci, dh, dw)];
                        }
                    }
                }
                out[(ko, ho, wo)] = acc;
            }
        }
    }
    out
}

/// Standard 2-D convolution via im2col + matrix multiply — an independent
/// second implementation used to validate [`conv2d_f32`].
///
/// # Panics
///
/// Same conditions as [`conv2d_f32`].
#[must_use]
pub fn conv2d_im2col_f32(
    input: &Tensor3<f32>,
    weights: &Tensor4<f32>,
    stride: usize,
    pad: usize,
) -> Tensor3<f32> {
    let (c_in, h_in, w_in) = input.shape();
    let (k, wc, kh, kw) = weights.shape();
    assert_eq!(wc, c_in, "weight channels {wc} != input channels {c_in}");
    let h_out = out_dim(h_in, kh, stride, pad);
    let w_out = out_dim(w_in, kw, stride, pad);
    let padded = input.zero_padded(pad);
    let cols = c_in * kh * kw;
    let rows = h_out * w_out;
    // Column matrix: rows = output pixels, cols = unrolled receptive field.
    let mut col = vec![0.0f32; rows * cols];
    for ho in 0..h_out {
        for wo in 0..w_out {
            let r = ho * w_out + wo;
            let mut cidx = 0;
            for ci in 0..c_in {
                for dh in 0..kh {
                    for dw in 0..kw {
                        col[r * cols + cidx] = padded[(ci, ho * stride + dh, wo * stride + dw)];
                        cidx += 1;
                    }
                }
            }
        }
    }
    let mut out = Tensor3::<f32>::zeros(k, h_out, w_out);
    for ko in 0..k {
        let wbase: Vec<f32> = (0..cols)
            .map(|i| {
                let ci = i / (kh * kw);
                let rest = i % (kh * kw);
                weights[(ko, ci, rest / kw, rest % kw)]
            })
            .collect();
        for r in 0..rows {
            let mut acc = 0.0f32;
            for i in 0..cols {
                acc += col[r * cols + i] * wbase[i];
            }
            out[(ko, r / w_out, r % w_out)] = acc;
        }
    }
    out
}

/// Depthwise 2-D convolution, `f32`: one `Kh×Kw` filter per channel.
///
/// `weights` are `C×1×Kh×Kw` (kernel index = channel index).
///
/// # Panics
///
/// Panics if `weights.kernels() != input.channels()`, if
/// `weights.channels() != 1`, or the window does not fit.
#[must_use]
pub fn depthwise_conv2d_f32(
    input: &Tensor3<f32>,
    weights: &Tensor4<f32>,
    stride: usize,
    pad: usize,
) -> Tensor3<f32> {
    let (c_in, h_in, w_in) = input.shape();
    let (k, wc, kh, kw) = weights.shape();
    assert_eq!(k, c_in, "depthwise kernel count {k} != channels {c_in}");
    assert_eq!(
        wc, 1,
        "depthwise weights must have a single channel, got {wc}"
    );
    let h_out = out_dim(h_in, kh, stride, pad);
    let w_out = out_dim(w_in, kw, stride, pad);
    let padded = input.zero_padded(pad);
    let mut out = Tensor3::<f32>::zeros(c_in, h_out, w_out);
    for c in 0..c_in {
        for ho in 0..h_out {
            for wo in 0..w_out {
                let mut acc = 0.0f32;
                for dh in 0..kh {
                    for dw in 0..kw {
                        acc += padded[(c, ho * stride + dh, wo * stride + dw)]
                            * weights[(c, 0, dh, dw)];
                    }
                }
                out[(c, ho, wo)] = acc;
            }
        }
    }
    out
}

/// Pointwise (1×1) convolution, `f32`: `weights` are `K×C×1×1`.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
#[must_use]
pub fn pointwise_conv2d_f32(input: &Tensor3<f32>, weights: &Tensor4<f32>) -> Tensor3<f32> {
    let (c_in, h, w) = input.shape();
    let (k, wc, kh, kw) = weights.shape();
    assert_eq!(wc, c_in, "weight channels {wc} != input channels {c_in}");
    assert_eq!((kh, kw), (1, 1), "pointwise kernels must be 1x1");
    let mut out = Tensor3::<f32>::zeros(k, h, w);
    for ko in 0..k {
        for ho in 0..h {
            for wo in 0..w {
                let mut acc = 0.0f32;
                for ci in 0..c_in {
                    acc += input[(ci, ho, wo)] * weights[(ko, ci, 0, 0)];
                }
                out[(ko, ho, wo)] = acc;
            }
        }
    }
    out
}

/// Integer depthwise convolution: int8 × int8 → i32 accumulators.
///
/// This is the *functional* golden model for the DWC engine: the engine must
/// produce exactly these accumulator values before the Non-Conv stage.
///
/// Loop order `c, dh, dw, ho, wo`: per channel plane, each tap in turn adds
/// `weight × input row` into every output row (a row axpy over the padded
/// plane), so every output still sums its taps in `(dh, dw)` order.
///
/// # Panics
///
/// Same conditions as [`depthwise_conv2d_f32`].
#[must_use]
pub fn depthwise_conv2d_i8(
    input: &Tensor3<i8>,
    weights: &Tensor4<i8>,
    stride: usize,
    pad: usize,
) -> Tensor3<i32> {
    let (c_in, h_in, w_in) = input.shape();
    let (k, wc, kh, kw) = weights.shape();
    assert_eq!(k, c_in, "depthwise kernel count {k} != channels {c_in}");
    assert_eq!(
        wc, 1,
        "depthwise weights must have a single channel, got {wc}"
    );
    let h_out = out_dim(h_in, kh, stride, pad);
    let w_out = out_dim(w_in, kw, stride, pad);
    let padded = input.zero_padded(pad);
    let (_, hp, wp) = padded.shape();
    let mut out = Tensor3::<i32>::zeros(c_in, h_out, w_out);
    for ((plane, taps), out_plane) in padded
        .as_slice()
        .chunks_exact(hp * wp)
        .zip(weights.as_slice().chunks_exact(kh * kw))
        .zip(out.as_mut_slice().chunks_exact_mut(h_out * w_out))
    {
        for (dh, tap_row) in taps.chunks_exact(kw).enumerate() {
            for (dw, &tap) in tap_row.iter().enumerate() {
                let tap = i32::from(tap);
                for (ho, out_row) in out_plane.chunks_exact_mut(w_out).enumerate() {
                    let row = &plane[(ho * stride + dh) * wp + dw..];
                    for (o, &x) in out_row.iter_mut().zip(row.iter().step_by(stride)) {
                        *o += tap * i32::from(x);
                    }
                }
            }
        }
    }
    out
}

/// Integer pointwise convolution: int8 × int8 → i32 accumulators.
///
/// The functional golden model for the PWC engine.
///
/// Loop order `ko, pixel, ci`: one pixel-major (`H·W×C`) copy of the
/// input is made per call, so each output is a contiguous dot product of
/// a pixel's channels with its kernel row. Both sides of the product are
/// widened to `i16` first, which lets the dot product vectorize as
/// 16-bit multiply-adds.
///
/// # Panics
///
/// Same conditions as [`pointwise_conv2d_f32`].
#[must_use]
pub fn pointwise_conv2d_i8(input: &Tensor3<i8>, weights: &Tensor4<i8>) -> Tensor3<i32> {
    let (c_in, h, w) = input.shape();
    let (k, wc, kh, kw) = weights.shape();
    assert_eq!(wc, c_in, "weight channels {wc} != input channels {c_in}");
    assert_eq!((kh, kw), (1, 1), "pointwise kernels must be 1x1");
    let hw = h * w;
    let mut pixels = vec![0i16; hw * c_in];
    for (ci, plane) in input.as_slice().chunks_exact(hw).enumerate() {
        for (p, &x) in plane.iter().enumerate() {
            pixels[p * c_in + ci] = i16::from(x);
        }
    }
    let mut row = vec![0i16; c_in];
    let mut out = Tensor3::<i32>::zeros(k, h, w);
    for (out_plane, kernel) in out
        .as_mut_slice()
        .chunks_exact_mut(hw)
        .zip(weights.as_slice().chunks_exact(c_in))
    {
        for (r, &wt) in row.iter_mut().zip(kernel) {
            *r = i16::from(wt);
        }
        for (o, pixel) in out_plane.iter_mut().zip(pixels.chunks_exact(c_in)) {
            *o = pixel
                .iter()
                .zip(&row)
                .map(|(&x, &wt)| i32::from(x) * i32::from(wt))
                .sum();
        }
    }
    out
}

/// Composes a depthwise and a pointwise convolution into the equivalent
/// *standard* convolution weights — the mathematical identity behind DSC
/// (`SC ≈ DWC ∘ PWC` when the DSC is exact). Used by tests to validate the
/// decomposition reasoning of the paper's Sec. I.
///
/// Returns `K×C×Kh×Kw` weights such that
/// `conv2d(x, returned) == pointwise(depthwise(x, dw), pw)` for all `x`
/// (exactly in ℝ; to f32 round-off in practice).
///
/// # Panics
///
/// Panics if shapes are inconsistent.
#[must_use]
pub fn compose_dsc_weights(dw: &Tensor4<f32>, pw: &Tensor4<f32>) -> Tensor4<f32> {
    let (c, one, kh, kw) = dw.shape();
    assert_eq!(one, 1, "depthwise weights must have a single channel");
    let (k, pc, ph, pww) = pw.shape();
    assert_eq!(
        pc, c,
        "pointwise channels must match depthwise kernel count"
    );
    assert_eq!((ph, pww), (1, 1), "pointwise kernels must be 1x1");
    Tensor4::from_fn(k, c, kh, kw, |ko, ci, dh, dwi| {
        pw[(ko, ci, 0, 0)] * dw[(ci, 0, dh, dwi)]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn out_dim_reference_cases() {
        assert_eq!(out_dim(32, 3, 1, 1), 32);
        assert_eq!(out_dim(16, 3, 2, 1), 8);
        assert_eq!(out_dim(2, 3, 1, 1), 2);
        assert_eq!(out_dim(4, 3, 2, 1), 2);
        assert_eq!(out_dim(5, 5, 1, 0), 1);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn out_dim_rejects_oversized_window() {
        let _ = out_dim(2, 5, 1, 0);
    }

    #[test]
    fn identity_kernel_passes_through() {
        let x = rng::synthetic_image(2, 5, 5, 3);
        // 1x1 standard conv with identity matrix weights.
        let w = Tensor4::from_fn(2, 2, 1, 1, |k, c, _, _| if k == c { 1.0 } else { 0.0 });
        let y = conv2d_f32(&x, &w, 1, 0);
        assert_eq!(y, x);
    }

    #[test]
    fn direct_matches_im2col() {
        let x = rng::synthetic_image(3, 9, 7, 1);
        let w = rng::kaiming_weights(4, 3, 3, 3, 2);
        for (stride, pad) in [(1, 1), (2, 1), (1, 0), (2, 0)] {
            let a = conv2d_f32(&x, &w, stride, pad);
            let b = conv2d_im2col_f32(&x, &w, stride, pad);
            assert_eq!(a.shape(), b.shape());
            for (av, bv) in a.as_slice().iter().zip(b.as_slice()) {
                assert!((av - bv).abs() < 1e-4, "stride={stride} pad={pad}");
            }
        }
    }

    #[test]
    fn depthwise_is_groupwise_standard_conv() {
        // A depthwise conv equals a standard conv whose cross-channel taps
        // are zero.
        let x = rng::synthetic_image(3, 6, 6, 5);
        let dw = rng::kaiming_weights(3, 1, 3, 3, 6);
        let equivalent = Tensor4::from_fn(
            3,
            3,
            3,
            3,
            |k, c, h, w| {
                if k == c {
                    dw[(k, 0, h, w)]
                } else {
                    0.0
                }
            },
        );
        let a = depthwise_conv2d_f32(&x, &dw, 1, 1);
        let b = conv2d_f32(&x, &equivalent, 1, 1);
        for (av, bv) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((av - bv).abs() < 1e-5);
        }
    }

    #[test]
    fn pointwise_is_1x1_standard_conv() {
        let x = rng::synthetic_image(4, 5, 5, 8);
        let pw = rng::kaiming_weights(6, 4, 1, 1, 9);
        let a = pointwise_conv2d_f32(&x, &pw);
        let b = conv2d_f32(&x, &pw, 1, 0);
        for (av, bv) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((av - bv).abs() < 1e-5);
        }
    }

    #[test]
    fn dsc_composition_identity() {
        // pointwise(depthwise(x)) == conv2d(x, composed) — the core DSC
        // algebra from the paper's introduction.
        let x = rng::synthetic_image(3, 8, 8, 10);
        let dw = rng::kaiming_weights(3, 1, 3, 3, 11);
        let pw = rng::kaiming_weights(5, 3, 1, 1, 12);
        let composed = compose_dsc_weights(&dw, &pw);
        for stride in [1, 2] {
            let via_dsc = pointwise_conv2d_f32(&depthwise_conv2d_f32(&x, &dw, stride, 1), &pw);
            let via_sc = conv2d_f32(&x, &composed, stride, 1);
            assert_eq!(via_dsc.shape(), via_sc.shape());
            for (a, b) in via_dsc.as_slice().iter().zip(via_sc.as_slice()) {
                assert!((a - b).abs() < 1e-4, "stride={stride}");
            }
        }
    }

    #[test]
    fn integer_convs_match_float_on_integral_data() {
        let xi =
            Tensor3::<i8>::from_fn(2, 6, 6, |c, h, w| ((c * 31 + h * 7 + w * 3) % 19) as i8 - 9);
        let wi = Tensor4::<i8>::from_fn(2, 1, 3, 3, |k, _, h, w| {
            ((k * 5 + h * 3 + w) % 11) as i8 - 5
        });
        let xf = xi.map(|&v| f32::from(v));
        let wf = wi.map(|&v| f32::from(v));
        let yi = depthwise_conv2d_i8(&xi, &wi, 2, 1);
        let yf = depthwise_conv2d_f32(&xf, &wf, 2, 1);
        for (a, b) in yi.as_slice().iter().zip(yf.as_slice()) {
            assert_eq!(*a as f32, *b);
        }

        let pw = Tensor4::<i8>::from_fn(3, 2, 1, 1, |k, c, _, _| (k as i8 - 1) * (c as i8 + 1));
        let ypi = pointwise_conv2d_i8(&xi, &pw);
        let ypf = pointwise_conv2d_f32(&xf, &pw.map(|&v| f32::from(v)));
        for (a, b) in ypi.as_slice().iter().zip(ypf.as_slice()) {
            assert_eq!(*a as f32, *b);
        }
    }

    #[test]
    fn stride2_halves_spatial_dims() {
        let x = rng::synthetic_image(1, 32, 32, 4);
        let w = rng::kaiming_weights(1, 1, 3, 3, 4);
        let y = depthwise_conv2d_f32(&x, &w, 2, 1);
        assert_eq!(y.shape(), (1, 16, 16));
    }

    #[test]
    fn padding_contributes_zeros_at_border() {
        // With an all-ones 3x3 kernel and all-ones 3x3 input, the center
        // output is 9 and the corners are 4 under same-padding.
        let x = Tensor3::<f32>::from_fn(1, 3, 3, |_, _, _| 1.0);
        let w = Tensor4::<f32>::from_fn(1, 1, 3, 3, |_, _, _, _| 1.0);
        let y = conv2d_f32(&x, &w, 1, 1);
        assert_eq!(y[(0, 1, 1)], 9.0);
        assert_eq!(y[(0, 0, 0)], 4.0);
        assert_eq!(y[(0, 0, 1)], 6.0);
    }
}
