//! Assembling a fully-quantized DSC network from the float model.
//!
//! The deployment flow of the paper: train (PyTorch) → quantize weights and
//! activations to 8 bits with LSQ → pre-compute per-channel Non-Conv
//! constants (k, b) offline → load onto the accelerator. This module is that
//! offline step, in one pipeline that runs layer by layer **on the int8
//! path**, so the Non-Conv constants describe exactly the tensors the
//! accelerator sees: [`QuantizedDscNetwork::calibrate_shaped`] for
//! MobileNetV1 (jointly shaping the sparsity, so the quantized network
//! realizes the target zero-percentage profile where the accelerator
//! measures it, paper Fig. 11) and [`QuantizedDscNetwork::calibrate_v2`] for
//! MobileNetV2.
//!
//! Every step size is learned by LSQ from the pool's max-abs step, and
//! activation steps are then fitted to the **Q8.16 fold envelope**: the
//! folded offset `b` is the ReLU dead-zone width measured in output LSBs,
//! so a layer with 97 % zeros needs a step size large enough that
//! `|b| ≤ 127` — the same constraint the paper's trained network satisfies
//! by construction ("to cover all possible ranges of the values for k and
//! b"). Without this fit, extreme layers would need per-channel slope
//! compression (handled as a fallback in [`crate::fold::fold_boundary`]).

use std::borrow::Cow;

use edea_tensor::conv::{depthwise_conv2d_i8, pointwise_conv2d_i8};
use edea_tensor::ops::BatchNorm;
use edea_tensor::{QTensor4, QuantParams, Tensor3, Tensor4};

use edea_fixed::Q8x16;

use crate::fold::{apply_planes, fold_boundary, FoldedAffine};
use crate::lsq::{learn_step, LsqConfig};
use crate::mobilenet::{MobileNetV1, MobileNetV2};
use crate::sparsity::{shape_bn_from_pools, ShapingReport, SparsityProfile};
use crate::workload::{check_chain, LayerShape, StageOp};
use crate::NnError;

/// A folded Non-Conv boundary: the per-channel fold, the output step and
/// the int8 maps it produces.
type Boundary = (Vec<FoldedAffine>, f64, Vec<Tensor3<i8>>);

/// How step sizes are chosen during calibration: LSQ refinement started
/// from the max-abs step. [`QuantStrategy::paper`] is its only value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantStrategy {
    weights: LsqConfig,
    activations: LsqConfig,
}

impl QuantStrategy {
    /// The paper's configuration: max-abs init + LSQ refinement.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            weights: LsqConfig::weight_int8(),
            activations: LsqConfig::activation_int8(),
        }
    }

    /// The learned step of one calibration pool; `what` names the tensor
    /// in the error.
    ///
    /// # Errors
    ///
    /// [`NnError::InvalidConfig`] if the pool is empty, all zero or
    /// non-finite (no range to calibrate).
    fn step(&self, values: &[f32], is_weight: bool, what: &str) -> Result<QuantParams, NnError> {
        let samples = subsample(values);
        let max_abs = samples.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        if !(max_abs > 0.0 && max_abs.is_finite()) {
            return Err(NnError::InvalidConfig {
                detail: format!("{what}: calibration values have no non-zero finite range"),
            });
        }
        let cfg = if is_weight {
            &self.weights
        } else {
            &self.activations
        };
        let start = QuantParams::from_max_abs(max_abs).scale();
        QuantParams::new(learn_step(&samples, start, cfg)).map_err(|e| NnError::InvalidConfig {
            detail: format!("{what}: {e}"),
        })
    }

    /// Per-tensor weight quantization at the learned step.
    fn quantize_weights(&self, w: &Tensor4<f32>, what: &str) -> Result<QTensor4, NnError> {
        Ok(self.step(w.as_slice(), true, what)?.quantize_tensor4(w))
    }

    /// Quantizes the stem activations into the layer-0 inputs.
    fn quantize_inputs(
        &self,
        stem_acts: &[Tensor3<f32>],
    ) -> Result<(QuantParams, Vec<Tensor3<i8>>), NnError> {
        let pool: Vec<f32> = stem_acts
            .iter()
            .flat_map(|t| t.as_slice().iter().copied())
            .collect();
        let params = self.step(&pool, false, "input")?;
        let xs = stem_acts
            .iter()
            .map(|t| t.map(|&v| params.quantize(v)))
            .collect();
        Ok((params, xs))
    }

    /// One ReLU-folding Non-Conv boundary: the post-BN+ReLU values of the
    /// real-unit accumulator `pools` set the output step, which is widened
    /// to the fold envelope, folded with `bn` and applied to `accs`.
    /// Returns `(fold, step, int8 maps)`.
    fn fold_relu(
        &self,
        accs: &[Tensor3<i32>],
        pools: &[Vec<f32>],
        bn: &BatchNorm,
        s_in: f64,
        s_w: f64,
        what: &str,
    ) -> Result<Boundary, NnError> {
        let coeffs = bn.affine_coefficients();
        let post_relu: Vec<f32> = pools
            .iter()
            .enumerate()
            .flat_map(|(c, pool)| {
                let (k, b) = coeffs[c];
                pool.iter().map(move |&v| (k * v + b).max(0.0))
            })
            .filter(|&v| v > 0.0)
            .collect();
        let s_raw = f64::from(self.step(&post_relu, false, what)?.scale());
        let s_out = fit_scale_to_fold(bn, s_in, s_w, s_raw);
        let fold = fold_boundary(bn, s_in, s_w, s_out)?;
        let maps = apply_fold(accs, &fold, 0);
        Ok((fold, s_out, maps))
    }
}

/// One quantized DSC layer, ready for the accelerator.
#[derive(Debug, Clone)]
pub struct QuantizedDscLayer {
    shape: LayerShape,
    dw_weights: QTensor4,
    pw_weights: QTensor4,
    nonconv1: Vec<FoldedAffine>,
    nonconv2: Vec<FoldedAffine>,
    s_in: f32,
    s_mid: f32,
    s_out: f32,
    /// Low clip of the output-side Non-Conv: 0 with ReLU folded in (v1),
    /// −128 for a linear stage (the v2 project PWC).
    out_lo: i8,
    /// Residual rescale `s_res / s_out` in Q8.16 for a
    /// [`residual_add`](LayerShape::residual_add) stage.
    residual_scale: Option<Q8x16>,
}

impl QuantizedDscLayer {
    /// Reassembles a layer from its parts (used by the deployment-artifact
    /// loader in [`crate::artifact`]).
    ///
    /// # Panics
    ///
    /// Panics if tensor shapes or Non-Conv parameter counts do not match
    /// `shape`.
    #[expect(clippy::too_many_arguments, reason = "mirrors the artifact layout 1:1")]
    #[must_use]
    pub fn from_parts(
        shape: LayerShape,
        dw_weights: QTensor4,
        pw_weights: QTensor4,
        nonconv1: Vec<FoldedAffine>,
        nonconv2: Vec<FoldedAffine>,
        s_in: f32,
        s_mid: f32,
        s_out: f32,
    ) -> Self {
        assert_eq!(
            dw_weights.values().shape(),
            (shape.d_in, 1, shape.kernel, shape.kernel),
            "dw weight shape"
        );
        assert_eq!(
            pw_weights.values().shape(),
            (shape.k_out, shape.d_in, 1, 1),
            "pw weight shape"
        );
        assert_eq!(nonconv1.len(), shape.d_in, "nonconv1 channel count");
        assert_eq!(nonconv2.len(), shape.k_out, "nonconv2 channel count");
        Self {
            shape,
            dw_weights,
            pw_weights,
            nonconv1,
            nonconv2,
            s_in,
            s_mid,
            s_out,
            out_lo: 0,
            residual_scale: None,
        }
    }

    /// Sets the output-side Non-Conv low clip (−128 for a linear stage,
    /// e.g. the v2 project PWC; the default 0 folds the ReLU).
    #[must_use]
    pub fn with_out_lo(mut self, lo: i8) -> Self {
        self.out_lo = lo;
        self
    }

    /// Attaches the residual rescale `s_res / s_out` (Q8.16) of a
    /// [`residual_add`](LayerShape::residual_add) stage.
    ///
    /// # Panics
    ///
    /// Panics if the shape does not mark a residual add.
    #[must_use]
    pub fn with_residual_scale(mut self, r: Q8x16) -> Self {
        assert!(
            self.shape.residual_add,
            "residual scale on a non-residual stage"
        );
        self.residual_scale = Some(r);
        self
    }

    /// Layer shape.
    #[must_use]
    pub fn shape(&self) -> LayerShape {
        self.shape
    }

    /// Quantized depthwise weights (`D×1×3×3`).
    #[must_use]
    pub fn dw_weights(&self) -> &QTensor4 {
        &self.dw_weights
    }

    /// Quantized pointwise weights (`K×D×1×1`).
    #[must_use]
    pub fn pw_weights(&self) -> &QTensor4 {
        &self.pw_weights
    }

    /// Per-channel Non-Conv constants between DWC and PWC (`D` entries).
    #[must_use]
    pub fn nonconv1(&self) -> &[FoldedAffine] {
        &self.nonconv1
    }

    /// Per-channel Non-Conv constants after the PWC (`K` entries).
    #[must_use]
    pub fn nonconv2(&self) -> &[FoldedAffine] {
        &self.nonconv2
    }

    /// Input activation step size.
    #[must_use]
    pub fn s_in(&self) -> f32 {
        self.s_in
    }

    /// Intermediate (PWC input) activation step size.
    #[must_use]
    pub fn s_mid(&self) -> f32 {
        self.s_mid
    }

    /// Output activation step size.
    #[must_use]
    pub fn s_out(&self) -> f32 {
        self.s_out
    }

    /// Low clip of the output-side Non-Conv (0 = folded ReLU, −128 =
    /// linear stage).
    #[must_use]
    pub fn out_lo(&self) -> i8 {
        self.out_lo
    }

    /// Residual rescale `s_res / s_out` (Q8.16) of a residual-add stage.
    #[must_use]
    pub fn residual_scale(&self) -> Option<Q8x16> {
        self.residual_scale
    }
}

/// The quantized 13-layer DSC stack plus the input quantizer.
#[derive(Debug, Clone)]
pub struct QuantizedDscNetwork {
    input_params: QuantParams,
    layers: Vec<QuantizedDscLayer>,
}

/// Cap on per-pool calibration samples fed to the max-abs start and LSQ.
/// Subsampling is deterministic (fixed stride).
const MAX_POOL_SAMPLES: usize = 16_384;

fn subsample(pool: &[f32]) -> Cow<'_, [f32]> {
    if pool.len() <= MAX_POOL_SAMPLES {
        return Cow::Borrowed(pool);
    }
    let stride = pool.len() / MAX_POOL_SAMPLES + 1;
    Cow::Owned(pool.iter().step_by(stride).copied().collect())
}

/// Widens an activation step until the folded constants of `bn` fit the
/// Q8.16 envelope with one LSB of headroom. Returns the adjusted step.
fn fit_scale_to_fold(bn: &BatchNorm, s_in: f64, s_w: f64, s_out: f64) -> f64 {
    let limit = 127.0;
    let mut required = s_out;
    for (bn_k, bn_b) in bn.affine_coefficients() {
        // |k| = |bn_k|·s_in·s_w/s_out ≤ limit  and  |b| = |bn_b|/s_out ≤ limit
        required = required.max(f64::from(bn_k.abs()) * s_in * s_w / limit);
        required = required.max(f64::from(bn_b.abs()) / limit);
    }
    required
}

/// Per-channel pools (in real units) of an int accumulator tensor set:
/// pool `c` holds plane `c` of every map, in map order.
fn acc_pools(accs: &[Tensor3<i32>], unit: f64) -> Vec<Vec<f32>> {
    let c = accs[0].channels();
    let per_pool = accs.iter().map(Tensor3::len).sum::<usize>() / c;
    let mut pools: Vec<Vec<f32>> = (0..c).map(|_| Vec::with_capacity(per_pool)).collect();
    for t in accs {
        let (tc, h, w) = t.shape();
        debug_assert_eq!(tc, c);
        for (pool, plane) in pools.iter_mut().zip(t.as_slice().chunks_exact(h * w)) {
            pool.extend(plane.iter().map(|&v| (f64::from(v) * unit) as f32));
        }
    }
    pools
}

/// Applies a per-channel fold (low clip `lo`) to every accumulator map.
fn apply_fold(accs: &[Tensor3<i32>], fold: &[FoldedAffine], lo: i8) -> Vec<Tensor3<i8>> {
    accs.iter()
        .map(|acc| apply_planes(acc, fold, None, lo))
        .collect()
}

fn zero_fraction_i8(tensors: &[Tensor3<i8>]) -> f64 {
    let zeros: usize = tensors
        .iter()
        .map(|t| t.as_slice().iter().filter(|&&v| v == 0).count())
        .sum();
    let total: usize = tensors.iter().map(Tensor3::len).sum();
    zeros as f64 / total as f64
}

impl QuantizedDscNetwork {
    /// Assembles a network from its parts — the one constructor: both
    /// calibrators and the deployment-artifact loader in [`crate::artifact`]
    /// build through it, so every network that exists is well formed.
    ///
    /// # Errors
    ///
    /// [`NnError::InvalidConfig`] if the layer shapes fail [`check_chain`]
    /// or a [`residual_add`](LayerShape::residual_add) layer carries no
    /// residual scale.
    pub fn from_parts(
        input_params: QuantParams,
        layers: Vec<QuantizedDscLayer>,
    ) -> Result<Self, NnError> {
        let shapes: Vec<LayerShape> = layers.iter().map(QuantizedDscLayer::shape).collect();
        check_chain(&shapes)?;
        if let Some(l) = layers
            .iter()
            .find(|l| l.shape.residual_add && l.residual_scale.is_none())
        {
            return Err(NnError::InvalidConfig {
                detail: format!(
                    "layer {}: residual add without a residual scale",
                    l.shape.index
                ),
            });
        }
        Ok(Self {
            input_params,
            layers,
        })
    }

    /// Joint sparsity shaping + calibration **on the int8 path** — the
    /// calibration every experiment and deployment of MobileNetV1 runs.
    ///
    /// Proceeds layer by layer: quantize weights, run the int8 DWC on the
    /// current int8 calibration activations, shape `bn1` on the resulting
    /// (real-unit) accumulator pools to hit `profile.dwc_zero[i]`, choose and
    /// envelope-fit `s_mid`, fold, apply the Non-Conv to produce the int8
    /// intermediates; same again for the PWC. The model's BN parameters are
    /// updated in place, and the achieved int8 zero fractions are returned.
    ///
    /// # Errors
    ///
    /// * [`NnError::EmptyCalibrationSet`] if `calib` is empty.
    /// * [`NnError::InvalidConfig`] if `profile` does not match the model,
    ///   BN parameters are non-finite, the block shapes fail
    ///   [`check_chain`], or a calibration pool (input, weights, or a
    ///   layer's DWC/PWC output) has no non-zero range — e.g. all-zero
    ///   calibration images.
    pub fn calibrate_shaped(
        model: &mut MobileNetV1,
        calib: &[Tensor3<f32>],
        profile: &SparsityProfile,
        strategy: QuantStrategy,
    ) -> Result<(Self, ShapingReport), NnError> {
        if calib.is_empty() {
            return Err(NnError::EmptyCalibrationSet);
        }
        profile.validate(model.blocks().len())?;

        let stem_acts: Vec<Tensor3<f32>> =
            calib.iter().map(|img| model.forward_stem(img)).collect();
        let (input_params, mut xs) = strategy.quantize_inputs(&stem_acts)?;

        let mut layers = Vec::with_capacity(model.blocks().len());
        let mut report = ShapingReport {
            dwc_zero: Vec::new(),
            pwc_zero: Vec::new(),
        };
        let mut s_in = f64::from(input_params.scale());
        for i in 0..model.blocks().len() {
            let block = &model.blocks()[i];
            let shape = block.shape;
            let dw_q =
                strategy.quantize_weights(&block.dw_weights, &format!("layer {i} DWC weights"))?;
            let pw_q =
                strategy.quantize_weights(&block.pw_weights, &format!("layer {i} PWC weights"))?;
            let s_dw = f64::from(dw_q.params().scale());
            let s_pw = f64::from(pw_q.params().scale());

            // --- DWC + Non-Conv #1 ---
            let dwc_accs: Vec<Tensor3<i32>> = xs
                .iter()
                .map(|x| depthwise_conv2d_i8(x, dw_q.values(), shape.stride, shape.pad))
                .collect();
            let pools = acc_pools(&dwc_accs, s_in * s_dw);
            shape_bn_from_pools(&mut model.blocks_mut()[i].bn1, &pools, profile.dwc_zero[i]);
            let (nonconv1, s_mid, mids) = strategy.fold_relu(
                &dwc_accs,
                &pools,
                &model.blocks()[i].bn1,
                s_in,
                s_dw,
                &format!("layer {i} DWC"),
            )?;
            report.dwc_zero.push(zero_fraction_i8(&mids));

            // --- PWC + Non-Conv #2 ---
            let pwc_accs: Vec<Tensor3<i32>> = mids
                .iter()
                .map(|m| pointwise_conv2d_i8(m, pw_q.values()))
                .collect();
            let pools = acc_pools(&pwc_accs, s_mid * s_pw);
            shape_bn_from_pools(&mut model.blocks_mut()[i].bn2, &pools, profile.pwc_zero[i]);
            let (nonconv2, s_out, outs) = strategy.fold_relu(
                &pwc_accs,
                &pools,
                &model.blocks()[i].bn2,
                s_mid,
                s_pw,
                &format!("layer {i} PWC"),
            )?;
            report.pwc_zero.push(zero_fraction_i8(&outs));

            layers.push(QuantizedDscLayer {
                shape,
                dw_weights: dw_q,
                pw_weights: pw_q,
                nonconv1,
                nonconv2,
                s_in: s_in as f32,
                s_mid: s_mid as f32,
                s_out: s_out as f32,
                out_lo: 0,
                residual_scale: None,
            });
            xs = outs;
            s_in = s_out;
        }
        Ok((Self::from_parts(input_params, layers)?, report))
    }

    /// Calibrates a quantized MobileNetV2 stack **on the int8 path**: stage
    /// by stage, weights are quantized, the int8 engine ops run on the
    /// calibration activations, step sizes are envelope-fitted and folded,
    /// and the resulting int8 activations feed the next stage — so the
    /// Non-Conv constants describe exactly the tensors the accelerator will
    /// see. Expand ([`StageOp::PwcOnly`]) stages fold a ReLU
    /// (`out_lo = 0`); project stages are linear (`out_lo = −128`) and, on
    /// residual blocks, carry the Q8.16 requantized residual scale
    /// `s_res / s_out`.
    ///
    /// # Errors
    ///
    /// * [`NnError::EmptyCalibrationSet`] if `calib` is empty.
    /// * [`NnError::ShapeMismatch`] if a DSC stage lacks depthwise
    ///   parameters.
    /// * [`NnError::InvalidConfig`] if BN parameters are non-finite, the
    ///   stage shapes fail [`check_chain`], or a calibration pool
    ///   (input, weights, or a layer's DWC/PWC output) has no non-zero
    ///   range — e.g. all-zero calibration images.
    pub fn calibrate_v2(
        model: &MobileNetV2,
        calib: &[Tensor3<f32>],
        strategy: QuantStrategy,
    ) -> Result<Self, NnError> {
        if calib.is_empty() {
            return Err(NnError::EmptyCalibrationSet);
        }
        let stem_acts: Vec<Tensor3<f32>> =
            calib.iter().map(|img| model.forward_stem(img)).collect();
        let (input_params, mut xs) = strategy.quantize_inputs(&stem_acts)?;

        let mut layers = Vec::with_capacity(model.stages().len());
        let mut s_in = f64::from(input_params.scale());
        // Residual source: the int8 block input plus its step size, held
        // from the save stage to the matching add stage.
        let mut saved: Option<(Vec<Tensor3<i8>>, f64)> = None;
        for stage in model.stages() {
            let shape = stage.shape;
            let i = shape.index;
            let missing = |what: &str| NnError::ShapeMismatch {
                layer: i,
                detail: format!("DSC stage without {what}"),
            };
            if shape.residual_save {
                saved = Some((xs.clone(), s_in));
            }
            let pw_q =
                strategy.quantize_weights(&stage.pw_weights, &format!("layer {i} PWC weights"))?;
            let s_pw = f64::from(pw_q.params().scale());

            // --- DWC + Non-Conv #1 (DSC stages; expand stages feed the
            // PWC straight from the ifmap) ---
            let (dw_q, nonconv1, mids, s_mid) = match shape.op {
                StageOp::Dsc => {
                    let dw = stage
                        .dw_weights
                        .as_ref()
                        .ok_or_else(|| missing("depthwise weights"))?;
                    let bn1 = stage.bn1.as_ref().ok_or_else(|| missing("bn1"))?;
                    let dw_q = strategy.quantize_weights(dw, &format!("layer {i} DWC weights"))?;
                    let s_dw = f64::from(dw_q.params().scale());
                    let dwc_accs: Vec<Tensor3<i32>> = xs
                        .iter()
                        .map(|x| depthwise_conv2d_i8(x, dw_q.values(), shape.stride, shape.pad))
                        .collect();
                    let pools = acc_pools(&dwc_accs, s_in * s_dw);
                    let (nonconv1, s_mid, mids) = strategy.fold_relu(
                        &dwc_accs,
                        &pools,
                        bn1,
                        s_in,
                        s_dw,
                        &format!("layer {i} DWC"),
                    )?;
                    (dw_q, nonconv1, mids, s_mid)
                }
                StageOp::PwcOnly => {
                    // Placeholder depthwise parameters keep the layer layout
                    // uniform; the engine skips them (zero 1×1 kernels,
                    // identity Non-Conv #1).
                    let unit = QuantParams::new(1.0)
                        .map_err(|e| NnError::InvalidConfig {
                            detail: e.to_string(),
                        })?
                        .quantize_tensor4(&Tensor4::zeros(shape.d_in, 1, 1, 1));
                    let identity = vec![FoldedAffine::fold(1.0, 0.0, 1.0, 1.0, 1.0); shape.d_in];
                    (unit, identity, xs.clone(), s_in)
                }
            };

            // --- PWC + Non-Conv #2 ---
            let pwc_accs: Vec<Tensor3<i32>> = mids
                .iter()
                .map(|m| pointwise_conv2d_i8(m, pw_q.values()))
                .collect();
            let res = if shape.residual_add {
                saved.take()
            } else {
                None
            };
            let relu_out = stage.relu_out();
            let coeffs = stage.bn2.affine_coefficients();
            let unit = (s_mid * s_pw) as f32;
            // Real-unit output pool, including the residual contribution on
            // skip-connected blocks, so s_out covers the summed range.
            let mut out_pool: Vec<f32> = Vec::new();
            for (img, acc) in pwc_accs.iter().enumerate() {
                let (c, h, w) = acc.shape();
                for ci in 0..c {
                    let (k, b) = coeffs[ci];
                    for hi in 0..h {
                        for wi in 0..w {
                            let mut v = k * (acc[(ci, hi, wi)] as f32 * unit) + b;
                            if let Some((res_xs, s_res)) = &res {
                                v += f32::from(res_xs[img][(ci, hi, wi)]) * *s_res as f32;
                            }
                            if relu_out {
                                v = v.max(0.0);
                            }
                            out_pool.push(v);
                        }
                    }
                }
            }
            if relu_out {
                out_pool.retain(|&v| v > 0.0);
            }
            let s_out_raw = f64::from(
                strategy
                    .step(&out_pool, false, &format!("layer {i} PWC"))?
                    .scale(),
            );
            let mut s_out = fit_scale_to_fold(&stage.bn2, s_mid, s_pw, s_out_raw);
            if let Some((_, s_res)) = &res {
                // The residual coefficient r = s_res/s_out must itself fit
                // the Q8.16 envelope (|r| ≤ 127).
                s_out = s_out.max(s_res / 127.0);
            }
            let nonconv2 = fold_boundary(&stage.bn2, s_mid, s_pw, s_out)?;
            let out_lo: i8 = if relu_out { 0 } else { -128 };
            let r_scale = res
                .as_ref()
                .map(|(_, s_res)| Q8x16::from_f64(s_res / s_out));
            let outs: Vec<Tensor3<i8>> = match (&res, r_scale) {
                (Some((res_xs, _)), Some(r)) => pwc_accs
                    .iter()
                    .zip(res_xs)
                    .map(|(acc, res_x)| apply_planes(acc, &nonconv2, Some((res_x, r)), out_lo))
                    .collect(),
                _ => apply_fold(&pwc_accs, &nonconv2, out_lo),
            };

            layers.push(QuantizedDscLayer {
                shape,
                dw_weights: dw_q,
                pw_weights: pw_q,
                nonconv1,
                nonconv2,
                s_in: s_in as f32,
                s_mid: s_mid as f32,
                s_out: s_out as f32,
                out_lo,
                residual_scale: r_scale,
            });
            xs = outs;
            s_in = s_out;
        }
        Self::from_parts(input_params, layers)
    }

    /// Quantization parameters for the network input (the stem activation).
    #[must_use]
    pub fn input_params(&self) -> QuantParams {
        self.input_params
    }

    /// The quantized layers.
    #[must_use]
    pub fn layers(&self) -> &[QuantizedDscLayer] {
        &self.layers
    }

    /// Quantizes a float stem activation into the layer-0 input tensor.
    #[must_use]
    pub fn quantize_input(&self, stem_act: &Tensor3<f32>) -> Tensor3<i8> {
        stem_act.map(|&v| self.input_params.quantize(v))
    }

    /// Quantizes a batch of float stem activations into a layer-0 input
    /// batch. Each image is quantized exactly as [`Self::quantize_input`]
    /// would — batching never changes values.
    #[must_use]
    pub fn quantize_input_batch(
        &self,
        stem_acts: &edea_tensor::Batch<f32>,
    ) -> edea_tensor::Batch<i8> {
        stem_acts.map_images(|img| self.quantize_input(img))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparsity::SparsityProfile;
    use edea_tensor::rng;

    fn calibrated_tiny() -> (MobileNetV1, QuantizedDscNetwork, ShapingReport) {
        let mut model = MobileNetV1::synthetic(0.25, 11);
        let calib = rng::synthetic_batch(4, 3, 32, 32, 12);
        let (qnet, report) = QuantizedDscNetwork::calibrate_shaped(
            &mut model,
            &calib,
            &SparsityProfile::paper(),
            QuantStrategy::paper(),
        )
        .unwrap();
        (model, qnet, report)
    }

    fn calibrated_v2() -> (MobileNetV2, QuantizedDscNetwork) {
        let model = MobileNetV2::synthetic(0.25, 31);
        let calib = rng::synthetic_batch(3, 3, 32, 32, 32);
        let qnet =
            QuantizedDscNetwork::calibrate_v2(&model, &calib, QuantStrategy::paper()).unwrap();
        (model, qnet)
    }

    #[test]
    fn v2_calibration_matches_stage_structure() {
        let (model, qnet) = calibrated_v2();
        assert_eq!(qnet.layers().len(), 17);
        for (layer, stage) in qnet.layers().iter().zip(model.stages()) {
            assert_eq!(layer.shape(), stage.shape);
            match layer.shape().op {
                // Expand stages fold a ReLU; project stages are linear.
                StageOp::PwcOnly => assert_eq!(layer.out_lo(), 0),
                StageOp::Dsc => assert_eq!(layer.out_lo(), -128),
            }
            assert_eq!(
                layer.residual_scale().is_some(),
                layer.shape().residual_add,
                "stage {}",
                layer.shape().index
            );
        }
        assert_eq!(
            qnet.layers()
                .iter()
                .filter(|l| l.residual_scale().is_some())
                .count(),
            3
        );
    }

    #[test]
    fn v2_scales_chain_across_stages() {
        let (_, qnet) = calibrated_v2();
        for pair in qnet.layers().windows(2) {
            assert_eq!(pair[0].s_out(), pair[1].s_in());
        }
    }

    #[test]
    fn v2_expand_stages_carry_inert_placeholder_dwc() {
        // A lone PWC still slots into the uniform layer layout: zero 1×1
        // depthwise kernels and an identity Non-Conv #1 the engine skips.
        let (_, qnet) = calibrated_v2();
        let expand = qnet
            .layers()
            .iter()
            .find(|l| l.shape().op == StageOp::PwcOnly)
            .unwrap();
        let s = expand.shape();
        assert_eq!(expand.dw_weights().values().shape(), (s.d_in, 1, 1, 1));
        assert!(expand
            .dw_weights()
            .values()
            .as_slice()
            .iter()
            .all(|&v| v == 0));
        assert_eq!(expand.nonconv1().len(), s.d_in);
        for f in expand.nonconv1() {
            assert_eq!(f.apply_fixed(37, -128), 37);
        }
        assert_eq!(expand.s_in(), expand.s_mid());
    }

    #[test]
    fn v2_residual_scale_is_the_save_to_out_ratio() {
        // The residual source is the *expand* stage's input, so
        // r = expand.s_in / project.s_out, rounded to Q8.16.
        let (_, qnet) = calibrated_v2();
        let mut checked = 0;
        for (i, l) in qnet.layers().iter().enumerate() {
            if let Some(r) = l.residual_scale() {
                let s_res = f64::from(qnet.layers()[i - 1].s_in());
                let want = s_res / f64::from(l.s_out());
                assert!((r.to_f64() - want).abs() < 1e-4, "stage {i}");
                assert!(want <= 127.0, "stage {i}: envelope");
                checked += 1;
            }
        }
        assert_eq!(checked, 3);
    }

    #[test]
    fn calibration_produces_thirteen_layers() {
        let (_, qnet, _) = calibrated_tiny();
        assert_eq!(qnet.layers().len(), 13);
    }

    #[test]
    fn scales_chain_between_layers() {
        let (_, qnet, _) = calibrated_tiny();
        for pair in qnet.layers().windows(2) {
            assert_eq!(pair[0].s_out(), pair[1].s_in());
        }
        assert_eq!(qnet.input_params().scale(), qnet.layers()[0].s_in());
    }

    #[test]
    fn shaped_calibration_hits_sparsity_targets_on_int_path() {
        let (_, _, report) = calibrated_tiny();
        let profile = SparsityProfile::paper();
        for i in 0..13 {
            // Int8 rounding can only add zeros (small positives round to 0),
            // so achieved ≥ target − ε and within a few percent above.
            assert!(
                report.dwc_zero[i] >= profile.dwc_zero[i] - 0.02,
                "dwc layer {i}: {} vs {}",
                report.dwc_zero[i],
                profile.dwc_zero[i]
            );
            assert!(
                report.dwc_zero[i] <= profile.dwc_zero[i] + 0.12,
                "dwc layer {i} oversparse: {}",
                report.dwc_zero[i]
            );
            assert!(
                report.pwc_zero[i] >= profile.pwc_zero[i] - 0.02,
                "pwc layer {i}"
            );
        }
        // Layer-12 anchors from the paper: 97.4 % / 95.3 %.
        assert!(report.dwc_zero[12] >= 0.954);
        assert!(report.pwc_zero[12] >= 0.933);
    }

    #[test]
    fn nonconv_channel_counts_match_shapes() {
        let (_, qnet, _) = calibrated_tiny();
        for l in qnet.layers() {
            assert_eq!(l.nonconv1().len(), l.shape().d_in);
            assert_eq!(l.nonconv2().len(), l.shape().k_out);
            assert_eq!(l.dw_weights().values().shape(), (l.shape().d_in, 1, 3, 3));
            assert_eq!(
                l.pw_weights().values().shape(),
                (l.shape().k_out, l.shape().d_in, 1, 1)
            );
        }
    }

    #[test]
    fn folded_constants_inside_q8_16_range_without_rescaling() {
        // The envelope fit must place every folded constant inside Q8.16 so
        // the rescale fallback never fires.
        let (model, qnet, _) = calibrated_tiny();
        for (l, b) in qnet.layers().iter().zip(model.blocks()) {
            let coeffs = b.bn1.affine_coefficients();
            for (c, f) in l.nonconv1().iter().enumerate() {
                assert!(f.k_exact.abs() < 128.0 && f.b_exact.abs() < 128.0);
                let unscaled_k = f64::from(coeffs[c].0)
                    * f64::from(l.s_in())
                    * f64::from(l.dw_weights().params().scale())
                    / f64::from(l.s_mid());
                // Tolerance covers f32 round-trips of the stored scales; an
                // actual rescale changes k by ≥ ~0.1 %.
                assert!(
                    (f.k_exact - unscaled_k).abs() <= 1e-4 * unscaled_k.abs().max(1e-6),
                    "layer {} channel {c} was rescaled: {} vs {}",
                    l.shape().index,
                    f.k_exact,
                    unscaled_k
                );
            }
        }
    }

    #[test]
    fn empty_calibration_is_an_error() {
        let mut model = MobileNetV1::synthetic(0.25, 1);
        let r = QuantizedDscNetwork::calibrate_shaped(
            &mut model,
            &[],
            &SparsityProfile::paper(),
            QuantStrategy::paper(),
        );
        assert_eq!(r.unwrap_err(), NnError::EmptyCalibrationSet);
        let v2 = MobileNetV2::synthetic(0.25, 1);
        let r2 = QuantizedDscNetwork::calibrate_v2(&v2, &[], QuantStrategy::paper());
        assert_eq!(r2.unwrap_err(), NnError::EmptyCalibrationSet);
    }

    fn assert_names_input(r: Result<impl std::fmt::Debug, NnError>) {
        match r {
            Err(NnError::InvalidConfig { detail }) => {
                assert!(detail.starts_with("input:"), "{detail}");
            }
            other => panic!("expected an input calibration error, got {other:?}"),
        }
    }

    #[test]
    fn all_zero_calibration_image_is_an_error() {
        let zero = vec![Tensor3::<f32>::zeros(3, 32, 32)];
        let mut model = MobileNetV1::synthetic(0.25, 1);
        assert_names_input(QuantizedDscNetwork::calibrate_shaped(
            &mut model,
            &zero,
            &SparsityProfile::paper(),
            QuantStrategy::paper(),
        ));
        let v2 = MobileNetV2::synthetic(0.25, 1);
        assert_names_input(QuantizedDscNetwork::calibrate_v2(
            &v2,
            &zero,
            QuantStrategy::paper(),
        ));
    }

    fn assert_step_rejects(pool: &[f32]) {
        let e = QuantStrategy::paper()
            .step(pool, false, "layer 3 DWC")
            .unwrap_err();
        assert!(e.to_string().contains("layer 3 DWC"), "{e}");
    }

    #[test]
    fn step_rejects_an_empty_pool() {
        assert_step_rejects(&[]);
    }

    #[test]
    fn step_rejects_an_all_zero_pool() {
        assert_step_rejects(&[0.0, -0.0]);
    }

    #[test]
    fn step_rejects_a_non_finite_pool() {
        assert_step_rejects(&[f32::INFINITY, 1.0]);
    }

    #[test]
    fn quantize_input_respects_scale() {
        let (model, qnet, _) = calibrated_tiny();
        let img = rng::synthetic_image(3, 32, 32, 77);
        let stem = model.forward_stem(&img);
        let q = qnet.quantize_input(&stem);
        // Post-ReLU stem activations are non-negative, so int8 codes are too.
        assert!(q.as_slice().iter().all(|&v| v >= 0));
    }

    #[test]
    fn fit_scale_widens_until_envelope_holds() {
        let bn = BatchNorm {
            gamma: vec![1.0],
            beta: vec![-5.0],
            mean: vec![0.0],
            var: vec![1.0],
            eps: 0.0,
        };
        // |b̂| = 5 ⇒ s_out must be at least 5/127.
        let s = fit_scale_to_fold(&bn, 0.01, 0.01, 0.001);
        assert!(s >= 5.0 / 127.0 - 1e-12);
        // Already-wide scales are untouched:
        let s2 = fit_scale_to_fold(&bn, 0.01, 0.01, 1.0);
        assert_eq!(s2, 1.0);
    }
}
