//! Golden int8 executor for the quantized DSC stack.
//!
//! This is the **reference semantics** of the accelerator: plain loop-nest
//! int8 convolutions plus the Q8.16 Non-Conv transform, with no tiling, no
//! pipelining, no buffers. The EDEA simulator in `edea-core` must reproduce
//! these outputs *bit-exactly* — that equivalence (checked in the
//! integration tests) is what makes the performance model trustworthy.
//!
//! The executor also records the activity statistics (zero fractions,
//! accumulator ranges) that drive the power model of paper Fig. 11.

use edea_tensor::conv::{depthwise_conv2d_i8, pointwise_conv2d_i8};
use edea_tensor::Tensor3;

use crate::fold::apply_planes;
use crate::quantize::{QuantizedDscLayer, QuantizedDscNetwork};
use crate::workload::StageOp;
use crate::NnError;

/// Activity statistics of one executed DSC layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerActivity {
    /// Zero fraction of the (int8) layer input.
    pub input_zero: f64,
    /// Zero fraction of the quantized DWC activation (PWC input) — the
    /// "DWC zero percentage" of paper Fig. 11.
    pub dwc_out_zero: f64,
    /// Zero fraction of the quantized PWC activation — the "PWC zero
    /// percentage" of Fig. 11.
    pub pwc_out_zero: f64,
    /// Observed DWC accumulator range (min, max).
    pub dwc_acc_range: (i32, i32),
    /// Observed PWC accumulator range (min, max).
    pub pwc_acc_range: (i32, i32),
}

/// Result of executing one DSC layer.
#[derive(Debug, Clone)]
pub struct LayerExecution {
    /// Quantized intermediate map (DWC → Non-Conv output, the PWC input).
    pub pwc_input: Tensor3<i8>,
    /// Quantized layer output (PWC → Non-Conv output).
    pub output: Tensor3<i8>,
    /// Activity statistics.
    pub activity: LayerActivity,
}

fn zero_fraction(t: &Tensor3<i8>) -> f64 {
    t.as_slice().iter().filter(|&&v| v == 0).count() as f64 / t.len() as f64
}

fn acc_range(t: &Tensor3<i32>) -> (i32, i32) {
    let mut lo = i32::MAX;
    let mut hi = i32::MIN;
    for &v in t.as_slice() {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

/// Executes one quantized DSC layer on an int8 input.
///
/// # Panics
///
/// Panics if `input` does not match the layer's input shape; use
/// [`try_run_layer`] for a fallible variant.
#[must_use]
pub fn run_layer(layer: &QuantizedDscLayer, input: &Tensor3<i8>) -> LayerExecution {
    try_run_layer(layer, input).unwrap_or_else(|e| panic!("{e}"))
}

/// Executes one quantized DSC layer on an int8 input, rejecting shape
/// mismatches instead of panicking — the entry point the serving backends
/// use.
///
/// # Errors
///
/// [`NnError::ShapeMismatch`] if `input` does not match the layer's input
/// shape.
pub fn try_run_layer(
    layer: &QuantizedDscLayer,
    input: &Tensor3<i8>,
) -> Result<LayerExecution, NnError> {
    try_run_layer_with(layer, input, None)
}

/// Executes one quantized stage with an optional residual source — the
/// int8 block input preserved at a `residual_save` stage. The residual is
/// requantized by the layer's Q8.16 residual scale and summed onto the
/// Non-Conv #2 bus *before* the round stage (see
/// `FoldedAffine::apply_fixed_residual`). Only [`try_run_network`] passes
/// a residual, and a well-formed network guarantees its shape and scale.
///
/// # Errors
///
/// * [`NnError::ShapeMismatch`] if `input` does not match the layer's
///   input shape.
/// * [`NnError::InvalidConfig`] if the residual presence disagrees with the
///   layer shape's `residual_add` marker.
fn try_run_layer_with(
    layer: &QuantizedDscLayer,
    input: &Tensor3<i8>,
    residual: Option<&Tensor3<i8>>,
) -> Result<LayerExecution, NnError> {
    let s = layer.shape();
    if input.shape() != (s.d_in, s.in_spatial, s.in_spatial) {
        return Err(NnError::ShapeMismatch {
            layer: s.index,
            detail: format!(
                "input shape mismatch: expected ({}, {}, {}), got {:?}",
                s.d_in,
                s.in_spatial,
                s.in_spatial,
                input.shape()
            ),
        });
    }
    if s.residual_add != residual.is_some() {
        return Err(NnError::InvalidConfig {
            detail: format!(
                "layer {}: residual_add={} but residual {}",
                s.index,
                s.residual_add,
                if residual.is_some() {
                    "provided"
                } else {
                    "missing"
                }
            ),
        });
    }
    // DWC + Non-Conv #1 — skipped by a lone PWC, whose engine input is the
    // ifmap itself.
    let (dwc_acc, pwc_input) = match s.op {
        StageOp::Dsc => {
            let acc = depthwise_conv2d_i8(input, layer.dw_weights().values(), s.stride, s.pad);
            let mid = apply_planes(&acc, layer.nonconv1(), None, 0);
            (Some(acc), mid)
        }
        StageOp::PwcOnly => (None, input.clone()),
    };
    // PWC: int8 conv to i32 accumulators.
    let pwc_acc = pointwise_conv2d_i8(&pwc_input, layer.pw_weights().values());
    // Non-Conv #2 (same hardware, used at the layer output boundary): low
    // clip 0 with a folded ReLU, −128 for a linear (project) stage.
    let output = apply_planes(
        &pwc_acc,
        layer.nonconv2(),
        residual.zip(layer.residual_scale()),
        layer.out_lo(),
    );
    let activity = LayerActivity {
        input_zero: zero_fraction(input),
        dwc_out_zero: zero_fraction(&pwc_input),
        pwc_out_zero: zero_fraction(&output),
        dwc_acc_range: dwc_acc.as_ref().map_or((0, 0), acc_range),
        pwc_acc_range: acc_range(&pwc_acc),
    };
    Ok(LayerExecution {
        pwc_input,
        output,
        activity,
    })
}

/// Result of executing the full quantized DSC stack.
#[derive(Debug, Clone)]
pub struct NetworkExecution {
    /// Per-layer activity statistics.
    pub activities: Vec<LayerActivity>,
    /// Final int8 feature map (after layer 12's Non-Conv).
    pub output: Tensor3<i8>,
}

/// Executes all DSC layers on a quantized layer-0 input.
///
/// # Panics
///
/// Panics if `input` does not match layer 0's input shape; use
/// [`try_run_network`] for a fallible variant.
#[must_use]
pub fn run_network(net: &QuantizedDscNetwork, input: &Tensor3<i8>) -> NetworkExecution {
    try_run_network(net, input).unwrap_or_else(|e| panic!("{e}"))
}

/// Executes all DSC layers on a quantized layer-0 input, rejecting shape
/// mismatches instead of panicking.
///
/// # Errors
///
/// [`NnError::ShapeMismatch`] if `input` does not match layer 0's input
/// shape (a network is well formed, so no later layer can reject).
pub fn try_run_network(
    net: &QuantizedDscNetwork,
    input: &Tensor3<i8>,
) -> Result<NetworkExecution, NnError> {
    let mut x = input.clone();
    let mut activities = Vec::with_capacity(net.layers().len());
    let mut saved: Option<Tensor3<i8>> = None;
    for layer in net.layers() {
        let s = layer.shape();
        if s.residual_save {
            saved = Some(x.clone());
        }
        let residual = if s.residual_add { saved.take() } else { None };
        let exec = try_run_layer_with(layer, &x, residual.as_ref())?;
        activities.push(exec.activity);
        x = exec.output;
    }
    Ok(NetworkExecution {
        activities,
        output: x,
    })
}

/// Classification-level agreement between the float model and the int8
/// network: the fraction of `images` whose pooled-feature argmax matches
/// between the two paths. With the trained checkpoint unavailable, this is
/// the reproduction's accuracy proxy for quantization quality (a lossless
/// quantization has agreement 1.0 by construction).
///
/// # Panics
///
/// Panics if `images` is empty.
#[must_use]
pub fn classification_agreement(
    model: &crate::mobilenet::MobileNetV1,
    net: &QuantizedDscNetwork,
    images: &[Tensor3<f32>],
) -> f64 {
    assert!(!images.is_empty(), "agreement over an empty batch");
    let argmax = |v: &[f32]| -> usize {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty")
    };
    let mut agree = 0usize;
    for img in images {
        let trace = model.forward(img);
        let float_class = argmax(&trace.pooled);
        let input = net.quantize_input(&trace.stem_act);
        let exec = run_network(net, &input);
        // Pool the int8 features (dequantized by a constant scale, which
        // does not change the argmax).
        let (c, h, w) = exec.output.shape();
        let mut pooled = vec![0.0f32; c];
        for (ci, p) in pooled.iter_mut().enumerate() {
            for hi in 0..h {
                for wi in 0..w {
                    *p += f32::from(exec.output[(ci, hi, wi)]);
                }
            }
        }
        if argmax(&pooled) == float_class {
            agree += 1;
        }
    }
    agree as f64 / images.len() as f64
}

/// Cosine similarity between two equal-length value collections — the
/// fidelity metric comparing quantized against float execution.
///
/// # Panics
///
/// Panics if lengths differ or either vector is all-zero.
#[must_use]
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine similarity needs equal lengths");
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += f64::from(x) * f64::from(y);
        na += f64::from(x) * f64::from(x);
        nb += f64::from(y) * f64::from(y);
    }
    assert!(na > 0.0 && nb > 0.0, "cosine similarity of a zero vector");
    dot / (na.sqrt() * nb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobilenet::MobileNetV1;
    use crate::quantize::{QuantStrategy, QuantizedDscNetwork};
    use crate::sparsity::SparsityProfile;
    use edea_fixed::sat::fits_in_bits;
    use edea_tensor::rng;

    fn setup() -> (MobileNetV1, QuantizedDscNetwork, Vec<Tensor3<f32>>) {
        let mut model = MobileNetV1::synthetic(0.25, 21);
        let calib = rng::synthetic_batch(4, 3, 32, 32, 22);
        let (qnet, _) = QuantizedDscNetwork::calibrate_shaped(
            &mut model,
            &calib,
            &SparsityProfile::paper(),
            QuantStrategy::paper(),
        )
        .unwrap();
        (model, qnet, calib)
    }

    #[test]
    fn network_executes_and_produces_nonnegative_codes() {
        let (model, qnet, calib) = setup();
        let input = qnet.quantize_input(&model.forward_stem(&calib[0]));
        let exec = run_network(&qnet, &input);
        assert_eq!(exec.activities.len(), 13);
        assert!(
            exec.output.as_slice().iter().all(|&v| v >= 0),
            "post-ReLU codes"
        );
        let s12 = qnet.layers()[12].shape();
        assert_eq!(exec.output.shape(), (s12.k_out, 2, 2));
    }

    #[test]
    fn execution_is_deterministic() {
        let (model, qnet, calib) = setup();
        let input = qnet.quantize_input(&model.forward_stem(&calib[0]));
        let a = run_network(&qnet, &input);
        let b = run_network(&qnet, &input);
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn executor_reproduces_calibration_statistics() {
        // Running the executor over the calibration images must reproduce
        // the shaped zero-percentage profile (this is the exact data path
        // calibration used).
        let (model, qnet, calib) = setup();
        let profile = SparsityProfile::paper();
        let mut dwc_zeros = [0.0f64; 13];
        for img in &calib {
            let input = qnet.quantize_input(&model.forward_stem(img));
            let exec = run_network(&qnet, &input);
            for (i, a) in exec.activities.iter().enumerate() {
                dwc_zeros[i] += a.dwc_out_zero / calib.len() as f64;
            }
        }
        for (i, (&got, &target)) in dwc_zeros.iter().zip(&profile.dwc_zero).enumerate() {
            assert!(got >= target - 0.03, "layer {i}: {got} vs target {target}");
            assert!(
                dwc_zeros[i] <= profile.dwc_zero[i] + 0.15,
                "layer {i} oversparse: {}",
                dwc_zeros[i]
            );
        }
        assert!(dwc_zeros[12] > 0.95, "layer-12 anchor: {}", dwc_zeros[12]);
    }

    #[test]
    fn accumulators_fit_hardware_widths() {
        // DWC accumulators must fit the 19-bit adder-tree bound; PWC
        // accumulators the 26-bit full-depth bound (both well inside i32).
        let (model, qnet, calib) = setup();
        let input = qnet.quantize_input(&model.forward_stem(&calib[0]));
        let exec = run_network(&qnet, &input);
        for act in &exec.activities {
            for v in [act.dwc_acc_range.0, act.dwc_acc_range.1] {
                assert!(fits_in_bits(i64::from(v), 19));
            }
            for v in [act.pwc_acc_range.0, act.pwc_acc_range.1] {
                assert!(fits_in_bits(i64::from(v), 26));
            }
        }
    }

    #[test]
    fn layer_zero_tracks_float_reference() {
        // Single-layer fidelity: feeding the float stem activation through
        // layer 0 must track the float DSC block closely. (Whole-network
        // trajectory fidelity is not a meaningful criterion for a synthetic
        // random network — deep random nets amplify perturbations — and the
        // accelerator's correctness criterion is bit-exactness against THIS
        // executor, checked in the integration tests.)
        let (model, qnet, _) = setup();
        let img = rng::synthetic_image(3, 32, 32, 31);
        let stem = model.forward_stem(&img);
        let input = qnet.quantize_input(&stem);
        let exec = run_layer(&qnet.layers()[0], &input);
        let deq: Vec<f32> = exec
            .pwc_input
            .as_slice()
            .iter()
            .map(|&v| f32::from(v) * qnet.layers()[0].s_mid())
            .collect();
        let float_block = model.forward_block(0, &stem);
        let sim = cosine_similarity(&deq, float_block.dwc_act.as_slice());
        assert!(sim > 0.97, "layer-0 cosine {sim}");
        let deq_out: Vec<f32> = exec
            .output
            .as_slice()
            .iter()
            .map(|&v| f32::from(v) * qnet.layers()[0].s_out())
            .collect();
        let sim_out = cosine_similarity(&deq_out, float_block.pwc_act.as_slice());
        assert!(sim_out > 0.95, "layer-0 output cosine {sim_out}");
    }

    #[test]
    fn classification_agreement_is_well_defined_and_deterministic() {
        // On the *synthetic random* network, 13 layers of trajectory
        // divergence make deep-feature argmax agreement near chance (see
        // ARCHITECTURE.md — trained networks are well-conditioned, random
        // ones are chaotic); the metric itself must be in range and
        // reproducible.
        let (model, qnet, calib) = setup();
        let a = classification_agreement(&model, &qnet, &calib);
        assert!((0.0..=1.0).contains(&a), "{a}");
        assert_eq!(a, classification_agreement(&model, &qnet, &calib));
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn classification_agreement_rejects_empty() {
        let (model, qnet, _) = setup();
        let _ = classification_agreement(&model, &qnet, &[]);
    }

    #[test]
    fn cosine_similarity_reference_values() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 1.0], &[-1.0, -1.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn cosine_rejects_length_mismatch() {
        let _ = cosine_similarity(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "input shape mismatch")]
    fn run_layer_rejects_wrong_shape() {
        let (_, qnet, _) = setup();
        let bad = Tensor3::<i8>::zeros(3, 32, 32);
        let _ = run_layer(&qnet.layers()[0], &bad);
    }

    #[test]
    fn try_variants_error_instead_of_panicking() {
        let (_, qnet, _) = setup();
        let bad = Tensor3::<i8>::zeros(3, 32, 32);
        assert!(matches!(
            try_run_layer(&qnet.layers()[0], &bad),
            Err(NnError::ShapeMismatch { layer: 0, .. })
        ));
        assert!(matches!(
            try_run_network(&qnet, &bad),
            Err(NnError::ShapeMismatch { layer: 0, .. })
        ));
    }

    #[test]
    fn try_variants_match_panicking_paths_on_good_input() {
        let (model, qnet, calib) = setup();
        let input = qnet.quantize_input(&model.forward_stem(&calib[0]));
        let a = try_run_network(&qnet, &input).unwrap();
        let b = run_network(&qnet, &input);
        assert_eq!(a.output, b.output);
    }

    fn setup_v2() -> (
        crate::mobilenet::MobileNetV2,
        QuantizedDscNetwork,
        Vec<Tensor3<f32>>,
    ) {
        let model = crate::mobilenet::MobileNetV2::synthetic(0.25, 41);
        let calib = rng::synthetic_batch(3, 3, 32, 32, 42);
        let qnet =
            QuantizedDscNetwork::calibrate_v2(&model, &calib, QuantStrategy::paper()).unwrap();
        (model, qnet, calib)
    }

    #[test]
    fn v2_network_executes_through_the_generalized_path() {
        let (model, qnet, calib) = setup_v2();
        let input = qnet.quantize_input(&model.forward_stem(&calib[0]));
        let exec = run_network(&qnet, &input);
        assert_eq!(exec.activities.len(), 17);
        let last = qnet.layers().last().unwrap().shape();
        assert_eq!(exec.output.shape(), (last.k_out, 4, 4));
        // Project stages are linear: the final map carries both signs.
        assert!(exec.output.as_slice().iter().any(|&v| v < 0));
        // Determinism.
        assert_eq!(run_network(&qnet, &input).output, exec.output);
    }

    #[test]
    fn v2_residual_layers_reject_missing_or_spurious_residuals() {
        let (_, qnet, _) = setup_v2();
        let add_layer = qnet
            .layers()
            .iter()
            .find(|l| l.shape().residual_add)
            .unwrap();
        let s = add_layer.shape();
        let input = Tensor3::<i8>::zeros(s.d_in, s.in_spatial, s.in_spatial);
        assert!(matches!(
            try_run_layer_with(add_layer, &input, None),
            Err(NnError::InvalidConfig { .. })
        ));
        let plain = &qnet.layers()[0];
        let s0 = plain.shape();
        let in0 = Tensor3::<i8>::zeros(s0.d_in, s0.in_spatial, s0.in_spatial);
        let res = Tensor3::<i8>::zeros(s0.k_out, s0.out_spatial(), s0.out_spatial());
        assert!(matches!(
            try_run_layer_with(plain, &in0, Some(&res)),
            Err(NnError::InvalidConfig { .. })
        ));
    }
}
