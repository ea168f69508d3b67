//! Float MobileNetV1 model with deterministic synthetic parameters.
//!
//! The paper trains MobileNetV1 on CIFAR-10 in PyTorch. The trained
//! checkpoint is not available, so [`MobileNetV1::synthetic`] builds the same
//! graph with Kaiming-initialized weights and identity batch norm; the
//! trained network's *activation statistics* — the only property of the
//! checkpoint the hardware results depend on — are then imposed by the
//! joint sparsity shaping of
//! [`QuantizedDscNetwork::calibrate_shaped`](crate::quantize::QuantizedDscNetwork::calibrate_shaped)
//! (see ARCHITECTURE.md's substitution notes).

use edea_tensor::conv::{conv2d_f32, depthwise_conv2d_f32, pointwise_conv2d_f32};
use edea_tensor::ops::{global_avg_pool, linear, relu, BatchNorm};
use edea_tensor::{rng, Tensor3, Tensor4};

use crate::workload::{
    mobilenet_v1_cifar10, mobilenet_v2_cifar10, scale_width, LayerShape, StageOp, StemShape,
};
use crate::NnError;

/// Number of CIFAR-10 classes.
pub const NUM_CLASSES: usize = 10;

/// Parameters of one depthwise-separable block:
/// `DWC(3×3) → BN → ReLU → PWC(1×1) → BN → ReLU`.
#[derive(Debug, Clone)]
pub struct DscBlockParams {
    /// Layer shape (spatial size, channels, stride).
    pub shape: LayerShape,
    /// Depthwise weights, `D×1×3×3`.
    pub dw_weights: Tensor4<f32>,
    /// Batch norm between DWC and PWC (`D` channels).
    pub bn1: BatchNorm,
    /// Pointwise weights, `K×D×1×1`.
    pub pw_weights: Tensor4<f32>,
    /// Batch norm after the PWC (`K` channels).
    pub bn2: BatchNorm,
}

impl DscBlockParams {
    /// Validates weight/BN shapes against `self.shape`.
    ///
    /// # Errors
    ///
    /// [`NnError::ShapeMismatch`] naming the offending tensor.
    pub fn validate(&self) -> Result<(), NnError> {
        let s = &self.shape;
        let err = |detail: String| NnError::ShapeMismatch {
            layer: s.index,
            detail,
        };
        if self.dw_weights.shape() != (s.d_in, 1, s.kernel, s.kernel) {
            return Err(err(format!(
                "dw weights {:?}, expected ({}, 1, {}, {})",
                self.dw_weights.shape(),
                s.d_in,
                s.kernel,
                s.kernel
            )));
        }
        if self.pw_weights.shape() != (s.k_out, s.d_in, 1, 1) {
            return Err(err(format!(
                "pw weights {:?}, expected ({}, {}, 1, 1)",
                self.pw_weights.shape(),
                s.k_out,
                s.d_in
            )));
        }
        self.bn1.validate(s.d_in).map_err(|e| err(e.to_string()))?;
        self.bn2.validate(s.k_out).map_err(|e| err(e.to_string()))?;
        Ok(())
    }
}

/// Intermediate activations of one DSC block during a float forward pass.
#[derive(Debug, Clone)]
pub struct DscTrace {
    /// Raw DWC convolution output (before BN1).
    pub dwc_raw: Tensor3<f32>,
    /// DWC activation after BN1 + ReLU — the PWC input.
    pub dwc_act: Tensor3<f32>,
    /// Raw PWC convolution output (before BN2).
    pub pwc_raw: Tensor3<f32>,
    /// PWC activation after BN2 + ReLU — the next block's input.
    pub pwc_act: Tensor3<f32>,
}

/// Complete float forward-pass record.
#[derive(Debug, Clone)]
pub struct ForwardTrace {
    /// Stem output (post BN + ReLU) — DSC layer 0's input.
    pub stem_act: Tensor3<f32>,
    /// Per-DSC-block intermediates.
    pub blocks: Vec<DscTrace>,
    /// Globally-pooled features.
    pub pooled: Vec<f32>,
    /// Classifier logits.
    pub logits: Vec<f32>,
}

/// A float MobileNetV1 for CIFAR-10: stem conv, 13 DSC blocks, global
/// average pooling, linear classifier.
///
/// # Example
///
/// ```
/// use edea_nn::mobilenet::MobileNetV1;
/// use edea_tensor::rng;
///
/// let model = MobileNetV1::synthetic(0.25, 1);
/// let image = rng::synthetic_image(3, 32, 32, 2);
/// let trace = model.forward(&image);
/// assert_eq!(trace.logits.len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct MobileNetV1 {
    stem: StemShape,
    stem_weights: Tensor4<f32>,
    stem_bn: BatchNorm,
    blocks: Vec<DscBlockParams>,
    fc_weights: Vec<f32>,
    fc_bias: Vec<f32>,
}

impl MobileNetV1 {
    /// Builds a model with deterministic Kaiming-initialized weights and
    /// identity batch norm, at the given width multiplier (1.0 = the paper's
    /// network; smaller values shrink channel counts for fast tests).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive and finite.
    #[must_use]
    pub fn synthetic(width: f64, seed: u64) -> Self {
        let shapes = scale_width(&mobilenet_v1_cifar10(), width, 8)
            .expect("width multiplier must be positive and finite");
        let stem = StemShape {
            c_out: shapes[0].d_in,
            ..StemShape::cifar10()
        };
        let stem_weights = rng::kaiming_weights(stem.c_out, stem.c_in, 3, 3, seed ^ 0xa11ce);
        let stem_bn = BatchNorm::identity(stem.c_out);
        let blocks = shapes
            .iter()
            .enumerate()
            .map(|(i, &shape)| DscBlockParams {
                shape,
                dw_weights: rng::kaiming_weights(
                    shape.d_in,
                    1,
                    shape.kernel,
                    shape.kernel,
                    seed.wrapping_add(1000 + i as u64),
                ),
                bn1: BatchNorm::identity(shape.d_in),
                pw_weights: rng::kaiming_weights(
                    shape.k_out,
                    shape.d_in,
                    1,
                    1,
                    seed.wrapping_add(2000 + i as u64),
                ),
                bn2: BatchNorm::identity(shape.k_out),
            })
            .collect::<Vec<_>>();
        let c_last = blocks.last().expect("13 blocks").shape.k_out;
        let fc = rng::kaiming_weights(NUM_CLASSES, c_last, 1, 1, seed ^ 0xfc);
        let fc_weights = fc.as_slice().to_vec();
        let fc_bias = vec![0.0; NUM_CLASSES];
        Self {
            stem,
            stem_weights,
            stem_bn,
            blocks,
            fc_weights,
            fc_bias,
        }
    }

    /// The stem shape.
    #[must_use]
    pub fn stem(&self) -> StemShape {
        self.stem
    }

    /// The DSC blocks (13 for MobileNetV1).
    #[must_use]
    pub fn blocks(&self) -> &[DscBlockParams] {
        &self.blocks
    }

    /// Mutable access to the DSC blocks — used by the sparsity shaper.
    pub fn blocks_mut(&mut self) -> &mut [DscBlockParams] {
        &mut self.blocks
    }

    /// The layer shapes of all DSC blocks.
    #[must_use]
    pub fn layer_shapes(&self) -> Vec<LayerShape> {
        self.blocks.iter().map(|b| b.shape).collect()
    }

    /// Runs the stem only: `conv → BN → ReLU`.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the stem input shape.
    #[must_use]
    pub fn forward_stem(&self, image: &Tensor3<f32>) -> Tensor3<f32> {
        assert_eq!(
            image.shape(),
            (self.stem.c_in, self.stem.in_spatial, self.stem.in_spatial),
            "stem input shape mismatch"
        );
        let conv = conv2d_f32(image, &self.stem_weights, self.stem.stride, 1);
        relu(&self.stem_bn.apply(&conv))
    }

    /// Runs one DSC block, returning all intermediates.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match the block's input shape.
    #[must_use]
    pub fn forward_block(&self, index: usize, input: &Tensor3<f32>) -> DscTrace {
        let block = &self.blocks[index];
        let s = &block.shape;
        assert_eq!(
            input.shape(),
            (s.d_in, s.in_spatial, s.in_spatial),
            "block {index} input shape mismatch"
        );
        let dwc_raw = depthwise_conv2d_f32(input, &block.dw_weights, s.stride, s.pad);
        let dwc_act = relu(&block.bn1.apply(&dwc_raw));
        let pwc_raw = pointwise_conv2d_f32(&dwc_act, &block.pw_weights);
        let pwc_act = relu(&block.bn2.apply(&pwc_raw));
        DscTrace {
            dwc_raw,
            dwc_act,
            pwc_raw,
            pwc_act,
        }
    }

    /// Full forward pass with all intermediates recorded.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the stem input shape.
    #[must_use]
    pub fn forward(&self, image: &Tensor3<f32>) -> ForwardTrace {
        let stem_act = self.forward_stem(image);
        let mut blocks = Vec::with_capacity(self.blocks.len());
        let mut x = stem_act.clone();
        for i in 0..self.blocks.len() {
            let trace = self.forward_block(i, &x);
            x = trace.pwc_act.clone();
            blocks.push(trace);
        }
        let pooled = global_avg_pool(&x);
        let logits = linear(&pooled, &self.fc_weights, &self.fc_bias, NUM_CLASSES);
        ForwardTrace {
            stem_act,
            blocks,
            pooled,
            logits,
        }
    }

    /// Validates every block's parameter shapes.
    ///
    /// # Errors
    ///
    /// The first [`NnError::ShapeMismatch`] found.
    pub fn validate(&self) -> Result<(), NnError> {
        for b in &self.blocks {
            b.validate()?;
        }
        Ok(())
    }
}

/// Parameters of one flattened MobileNetV2 stage (see
/// [`mobilenet_v2_cifar10`]): a [`StageOp::PwcOnly`] *expand* stage carries
/// only the pointwise weights plus BN (with ReLU); a [`StageOp::Dsc`] stage
/// carries the depthwise kernel with its BN (ReLU) and the linear *project*
/// pointwise with its BN — the inverted bottleneck keeps the block output
/// linear so the residual add happens in the full signed range.
#[derive(Debug, Clone)]
pub struct V2StageParams {
    /// Generalized stage shape (op, stride, residual markers).
    pub shape: LayerShape,
    /// Depthwise weights `D×1×3×3` — `None` for an expand stage.
    pub dw_weights: Option<Tensor4<f32>>,
    /// Batch norm between DWC and PWC — `None` for an expand stage.
    pub bn1: Option<BatchNorm>,
    /// Pointwise weights `K×D×1×1`.
    pub pw_weights: Tensor4<f32>,
    /// Batch norm after the PWC.
    pub bn2: BatchNorm,
}

impl V2StageParams {
    /// Whether the PWC output passes a ReLU: expand stages do, project
    /// stages are linear.
    #[must_use]
    pub fn relu_out(&self) -> bool {
        self.shape.op == StageOp::PwcOnly
    }

    /// Validates weight/BN shapes against `self.shape`.
    ///
    /// # Errors
    ///
    /// [`NnError::ShapeMismatch`] naming the offending tensor.
    pub fn validate(&self) -> Result<(), NnError> {
        let s = &self.shape;
        let err = |detail: String| NnError::ShapeMismatch {
            layer: s.index,
            detail,
        };
        match s.op {
            StageOp::Dsc => {
                let dw = self
                    .dw_weights
                    .as_ref()
                    .ok_or_else(|| err("DSC stage without depthwise weights".into()))?;
                if dw.shape() != (s.d_in, 1, s.kernel, s.kernel) {
                    return Err(err(format!(
                        "dw weights {:?}, expected ({}, 1, {}, {})",
                        dw.shape(),
                        s.d_in,
                        s.kernel,
                        s.kernel
                    )));
                }
                let bn1 = self
                    .bn1
                    .as_ref()
                    .ok_or_else(|| err("DSC stage without bn1".into()))?;
                bn1.validate(s.d_in).map_err(|e| err(e.to_string()))?;
            }
            StageOp::PwcOnly => {
                if self.dw_weights.is_some() || self.bn1.is_some() {
                    return Err(err("expand stage carries depthwise parameters".into()));
                }
            }
        }
        if self.pw_weights.shape() != (s.k_out, s.d_in, 1, 1) {
            return Err(err(format!(
                "pw weights {:?}, expected ({}, {}, 1, 1)",
                self.pw_weights.shape(),
                s.k_out,
                s.d_in
            )));
        }
        self.bn2.validate(s.k_out).map_err(|e| err(e.to_string()))?;
        Ok(())
    }
}

/// Intermediate activations of one v2 stage during a float forward pass.
#[derive(Debug, Clone)]
pub struct V2StageTrace {
    /// PWC input: the DWC activation for a DSC stage, the stage input for
    /// an expand stage.
    pub mid_act: Tensor3<f32>,
    /// Raw PWC convolution output (before BN2).
    pub pwc_raw: Tensor3<f32>,
    /// Stage output: BN2 (+ ReLU on expand stages) (+ residual on
    /// [`residual_add`](LayerShape::residual_add) stages).
    pub act: Tensor3<f32>,
}

/// Complete MobileNetV2 float forward-pass record.
#[derive(Debug, Clone)]
pub struct V2ForwardTrace {
    /// Stem output (post BN + ReLU) — stage 0's input.
    pub stem_act: Tensor3<f32>,
    /// Per-stage intermediates.
    pub stages: Vec<V2StageTrace>,
    /// Globally-pooled features.
    pub pooled: Vec<f32>,
    /// Classifier logits.
    pub logits: Vec<f32>,
}

/// A float MobileNetV2 for CIFAR-10: the same stem as
/// [`MobileNetV1`], inverted-residual blocks flattened into accelerator
/// stages (see [`mobilenet_v2_cifar10`]), global average pooling, linear
/// classifier.
#[derive(Debug, Clone)]
pub struct MobileNetV2 {
    stem: StemShape,
    stem_weights: Tensor4<f32>,
    stem_bn: BatchNorm,
    stages: Vec<V2StageParams>,
    fc_weights: Vec<f32>,
    fc_bias: Vec<f32>,
}

impl MobileNetV2 {
    /// Builds a model with deterministic Kaiming-initialized weights and
    /// identity batch norm at the given width multiplier. Channel counts
    /// round to multiples of 16 (`Tk`) so every width keeps the stack on
    /// the engine geometry.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive and finite.
    #[must_use]
    pub fn synthetic(width: f64, seed: u64) -> Self {
        let shapes = scale_width(&mobilenet_v2_cifar10(), width, 16)
            .expect("width multiplier must be positive and finite");
        let stem = StemShape {
            c_out: shapes[0].d_in,
            ..StemShape::cifar10()
        };
        let stem_weights = rng::kaiming_weights(stem.c_out, stem.c_in, 3, 3, seed ^ 0xb22ce);
        let stem_bn = BatchNorm::identity(stem.c_out);
        let stages = shapes
            .iter()
            .enumerate()
            .map(|(i, &shape)| {
                let (dw_weights, bn1) = match shape.op {
                    StageOp::Dsc => (
                        Some(rng::kaiming_weights(
                            shape.d_in,
                            1,
                            shape.kernel,
                            shape.kernel,
                            seed.wrapping_add(5000 + i as u64),
                        )),
                        Some(BatchNorm::identity(shape.d_in)),
                    ),
                    StageOp::PwcOnly => (None, None),
                };
                V2StageParams {
                    shape,
                    dw_weights,
                    bn1,
                    pw_weights: rng::kaiming_weights(
                        shape.k_out,
                        shape.d_in,
                        1,
                        1,
                        seed.wrapping_add(6000 + i as u64),
                    ),
                    bn2: BatchNorm::identity(shape.k_out),
                }
            })
            .collect::<Vec<_>>();
        let c_last = stages.last().expect("17 stages").shape.k_out;
        let fc = rng::kaiming_weights(NUM_CLASSES, c_last, 1, 1, seed ^ 0xfc2);
        Self {
            stem,
            stem_weights,
            stem_bn,
            stages,
            fc_weights: fc.as_slice().to_vec(),
            fc_bias: vec![0.0; NUM_CLASSES],
        }
    }

    /// The stem shape (shared with v1: `StemShape::cifar10()` scaled).
    #[must_use]
    pub fn stem(&self) -> StemShape {
        self.stem
    }

    /// The flattened accelerator stages.
    #[must_use]
    pub fn stages(&self) -> &[V2StageParams] {
        &self.stages
    }

    /// The layer shapes of all stages.
    #[must_use]
    pub fn layer_shapes(&self) -> Vec<LayerShape> {
        self.stages.iter().map(|s| s.shape).collect()
    }

    /// Runs the stem only: `conv → BN → ReLU`.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the stem input shape.
    #[must_use]
    pub fn forward_stem(&self, image: &Tensor3<f32>) -> Tensor3<f32> {
        assert_eq!(
            image.shape(),
            (self.stem.c_in, self.stem.in_spatial, self.stem.in_spatial),
            "stem input shape mismatch"
        );
        let conv = conv2d_f32(image, &self.stem_weights, self.stem.stride, 1);
        relu(&self.stem_bn.apply(&conv))
    }

    /// Runs one stage, adding `residual` (a block input saved at the
    /// matching [`residual_save`](LayerShape::residual_save) stage) onto
    /// the linear project output when the shape requests it.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match the stage's input shape, or if a
    /// residual is required but missing (and vice versa).
    #[must_use]
    pub fn forward_stage(
        &self,
        index: usize,
        input: &Tensor3<f32>,
        residual: Option<&Tensor3<f32>>,
    ) -> V2StageTrace {
        let stage = &self.stages[index];
        let s = &stage.shape;
        assert_eq!(
            input.shape(),
            (s.d_in, s.in_spatial, s.in_spatial),
            "stage {index} input shape mismatch"
        );
        assert_eq!(
            s.residual_add,
            residual.is_some(),
            "stage {index} residual presence mismatch"
        );
        let mid_act = match s.op {
            StageOp::Dsc => {
                let dw = stage.dw_weights.as_ref().expect("validated DSC stage");
                let bn1 = stage.bn1.as_ref().expect("validated DSC stage");
                let dwc_raw = depthwise_conv2d_f32(input, dw, s.stride, s.pad);
                relu(&bn1.apply(&dwc_raw))
            }
            StageOp::PwcOnly => input.clone(),
        };
        let pwc_raw = pointwise_conv2d_f32(&mid_act, &stage.pw_weights);
        let post = stage.bn2.apply(&pwc_raw);
        let act = match residual {
            Some(res) => {
                assert_eq!(res.shape(), post.shape(), "stage {index} residual shape");
                Tensor3::from_fn(post.shape().0, post.shape().1, post.shape().2, |c, h, w| {
                    post[(c, h, w)] + res[(c, h, w)]
                })
            }
            None if stage.relu_out() => relu(&post),
            None => post,
        };
        V2StageTrace {
            mid_act,
            pwc_raw,
            act,
        }
    }

    /// Full forward pass with all intermediates recorded.
    ///
    /// # Panics
    ///
    /// Panics if `image` does not match the stem input shape.
    #[must_use]
    pub fn forward(&self, image: &Tensor3<f32>) -> V2ForwardTrace {
        let stem_act = self.forward_stem(image);
        let mut stages = Vec::with_capacity(self.stages.len());
        let mut x = stem_act.clone();
        let mut saved: Option<Tensor3<f32>> = None;
        for i in 0..self.stages.len() {
            let s = self.stages[i].shape;
            if s.residual_save {
                saved = Some(x.clone());
            }
            let residual = if s.residual_add { saved.take() } else { None };
            let trace = self.forward_stage(i, &x, residual.as_ref());
            x = trace.act.clone();
            stages.push(trace);
        }
        let pooled = global_avg_pool(&x);
        let logits = linear(&pooled, &self.fc_weights, &self.fc_bias, NUM_CLASSES);
        V2ForwardTrace {
            stem_act,
            stages,
            pooled,
            logits,
        }
    }

    /// Validates every stage's parameter shapes.
    ///
    /// # Errors
    ///
    /// The first [`NnError::ShapeMismatch`] found.
    pub fn validate(&self) -> Result<(), NnError> {
        for s in &self.stages {
            s.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MobileNetV1 {
        MobileNetV1::synthetic(0.25, 42)
    }

    #[test]
    fn synthetic_model_validates() {
        tiny().validate().unwrap();
        MobileNetV1::synthetic(0.5, 7).validate().unwrap();
    }

    #[test]
    fn forward_shapes_chain_correctly() {
        let m = tiny();
        let img = rng::synthetic_image(3, 32, 32, 3);
        let t = m.forward(&img);
        assert_eq!(t.blocks.len(), 13);
        // Stem output feeds block 0:
        let s0 = m.blocks()[0].shape;
        assert_eq!(t.stem_act.shape(), (s0.d_in, 32, 32));
        for (i, b) in m.blocks().iter().enumerate() {
            let o = b.shape.out_spatial();
            assert_eq!(
                t.blocks[i].dwc_act.shape(),
                (b.shape.d_in, o, o),
                "layer {i}"
            );
            assert_eq!(
                t.blocks[i].pwc_act.shape(),
                (b.shape.k_out, o, o),
                "layer {i}"
            );
        }
        assert_eq!(t.pooled.len(), m.blocks().last().unwrap().shape.k_out);
        assert_eq!(t.logits.len(), NUM_CLASSES);
    }

    #[test]
    fn forward_is_deterministic() {
        let m = tiny();
        let img = rng::synthetic_image(3, 32, 32, 9);
        let a = m.forward(&img);
        let b = m.forward(&img);
        assert_eq!(a.logits, b.logits);
    }

    #[test]
    fn different_seeds_give_different_models() {
        let img = rng::synthetic_image(3, 32, 32, 1);
        let a = MobileNetV1::synthetic(0.25, 1).forward(&img);
        let b = MobileNetV1::synthetic(0.25, 2).forward(&img);
        assert_ne!(a.logits, b.logits);
    }

    #[test]
    fn activations_are_nonnegative_after_relu() {
        let m = tiny();
        let img = rng::synthetic_image(3, 32, 32, 5);
        let t = m.forward(&img);
        for b in &t.blocks {
            assert!(b.dwc_act.as_slice().iter().all(|&v| v >= 0.0));
            assert!(b.pwc_act.as_slice().iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn raw_outputs_contain_negatives() {
        // With identity BN and random weights, pre-activation maps must have
        // both signs — otherwise ReLU and the sparsity story are vacuous.
        let m = tiny();
        let img = rng::synthetic_image(3, 32, 32, 5);
        let t = m.forward(&img);
        assert!(t.blocks[0].dwc_raw.as_slice().iter().any(|&v| v < 0.0));
        assert!(t.blocks[0].pwc_raw.as_slice().iter().any(|&v| v > 0.0));
    }

    #[test]
    fn forward_block_matches_full_forward() {
        let m = tiny();
        let img = rng::synthetic_image(3, 32, 32, 11);
        let t = m.forward(&img);
        let b0 = m.forward_block(0, &t.stem_act);
        assert_eq!(b0.pwc_act, t.blocks[0].pwc_act);
    }

    #[test]
    #[should_panic(expected = "input shape mismatch")]
    fn forward_rejects_wrong_input() {
        let m = tiny();
        let img = rng::synthetic_image(3, 16, 16, 1);
        let _ = m.forward(&img);
    }

    #[test]
    fn block_validate_catches_swapped_weights() {
        let m = tiny();
        let mut b = m.blocks()[0].clone();
        std::mem::swap(&mut b.dw_weights, &mut b.pw_weights);
        assert!(b.validate().is_err());
    }

    #[test]
    fn full_width_model_has_paper_channels() {
        let m = MobileNetV1::synthetic(1.0, 0);
        let shapes = m.layer_shapes();
        assert_eq!(shapes[0].d_in, 32);
        assert_eq!(shapes[12].d_in, 1024);
        assert_eq!(shapes[12].k_out, 1024);
    }

    fn tiny_v2() -> MobileNetV2 {
        MobileNetV2::synthetic(0.25, 42)
    }

    #[test]
    fn v2_synthetic_model_validates() {
        tiny_v2().validate().unwrap();
        MobileNetV2::synthetic(1.0, 7).validate().unwrap();
    }

    #[test]
    fn v2_forward_shapes_chain_correctly() {
        let m = tiny_v2();
        let img = rng::synthetic_image(3, 32, 32, 3);
        let t = m.forward(&img);
        assert_eq!(t.stages.len(), 17);
        let s0 = m.stages()[0].shape;
        assert_eq!(t.stem_act.shape(), (s0.d_in, 32, 32));
        for (i, s) in m.stages().iter().enumerate() {
            let o = s.shape.out_spatial();
            assert_eq!(t.stages[i].act.shape(), (s.shape.k_out, o, o), "stage {i}");
        }
        assert_eq!(t.logits.len(), NUM_CLASSES);
    }

    #[test]
    fn v2_forward_is_deterministic() {
        let m = tiny_v2();
        let img = rng::synthetic_image(3, 32, 32, 9);
        assert_eq!(m.forward(&img).logits, m.forward(&img).logits);
    }

    #[test]
    fn v2_residual_actually_feeds_forward() {
        // Zeroing the saved residual input must change a residual block's
        // output — the skip connection is load-bearing, not decorative.
        let m = tiny_v2();
        let img = rng::synthetic_image(3, 32, 32, 5);
        let t = m.forward(&img);
        let add_idx = m
            .layer_shapes()
            .iter()
            .position(|s| s.residual_add)
            .expect("v2 has residual stages");
        let input = &t.stages[add_idx - 1].act;
        let save_input = &t.stages[add_idx - 2].act;
        let with_res = m.forward_stage(add_idx, input, Some(save_input));
        assert_eq!(with_res.act, t.stages[add_idx].act);
        let zeros = Tensor3::zeros(
            save_input.shape().0,
            save_input.shape().1,
            save_input.shape().2,
        );
        let without = m.forward_stage(add_idx, input, Some(&zeros));
        assert_ne!(without.act, with_res.act);
    }

    #[test]
    fn v2_project_outputs_are_signed() {
        // The project stage is linear: unlike v1's post-ReLU maps, block
        // outputs must carry both signs.
        let m = tiny_v2();
        let img = rng::synthetic_image(3, 32, 32, 6);
        let t = m.forward(&img);
        let last = t.stages.last().unwrap();
        assert!(last.act.as_slice().iter().any(|&v| v < 0.0));
        // Expand stages stay non-negative (ReLU).
        let expand_idx = m
            .layer_shapes()
            .iter()
            .position(|s| s.op == StageOp::PwcOnly)
            .unwrap();
        assert!(t.stages[expand_idx]
            .act
            .as_slice()
            .iter()
            .all(|&v| v >= 0.0));
    }

    #[test]
    fn v2_shares_the_v1_stem_geometry() {
        let v1 = MobileNetV1::synthetic(1.0, 1);
        let v2 = MobileNetV2::synthetic(1.0, 1);
        assert_eq!(v1.stem(), v2.stem());
    }
}
