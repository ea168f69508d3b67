//! The workload database: generalized DSC stages and the networks built
//! from them.
//!
//! Every experiment in the paper iterates over "all DSC layers of
//! MobileNetV1" on CIFAR-10 (32×32 inputs, stem convolution with stride 1).
//! That yields the 13 depthwise-separable layers of
//! [`mobilenet_v1_cifar10`], with stride-2 down-sampling at layers 1, 3, 5
//! and 11 — exactly the layers the paper singles out in Fig. 10 ("layers
//! 1, 3, 5 and 11 exhibit a reduced number of MAC operations due to the
//! stride of 2") — and 2×2 feature maps in the last two layers.
//!
//! The block structure is **data, not code**: a [`LayerShape`] carries
//! the axes the dual-engine datapath executes — spatial size, channels,
//! stride, kernel, symmetric padding, the stage operator ([`StageOp`]) and
//! residual markers — so the same representation expresses the paper's
//! plain DSC block (same-padding, no residual) and the MobileNetV2
//! inverted residual (expand-PWC → DWC → project-PWC with a requantized
//! skip connection) of [`mobilenet_v2_cifar10`]. Axes the datapath cannot
//! run — dilated windows, several kernels per input channel, asymmetric
//! padding — are not representable.

use edea_tensor::conv::out_dim;

use crate::error::NnError;

/// The operator a stage runs on the dual-engine datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageOp {
    /// The paper's depthwise-separable block: DWC (`kernel×kernel`,
    /// per-channel) → Non-Conv → PWC (1×1, direct transfer).
    Dsc,
    /// A lone pointwise convolution (the MobileNetV2 *expand* stage): the
    /// PWC engine at a different channel count — no new MAC loop, the DWC
    /// engine idles. `kernel = stride = 1`, no padding.
    PwcOnly,
}

/// Shape of one accelerator stage. For [`StageOp::Dsc`] this is a DWC
/// (`kernel×kernel`, one kernel per input channel) followed by a PWC (1×1,
/// `d_in → k_out`); for [`StageOp::PwcOnly`] it is the PWC alone
/// (`d_in → k_out`).
///
/// # Example
///
/// ```
/// use edea_nn::workload::mobilenet_v1_cifar10;
///
/// let layers = mobilenet_v1_cifar10();
/// assert_eq!(layers.len(), 13);
/// assert_eq!(layers[12].d_in, 1024);
/// assert_eq!(layers[12].out_spatial(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerShape {
    /// Stage index within the stack (0-based, as in the paper's plots).
    pub index: usize,
    /// Input feature-map spatial size (`R = C`, square maps).
    pub in_spatial: usize,
    /// Input channels `D`.
    pub d_in: usize,
    /// Output channels `K` (PWC kernel count).
    pub k_out: usize,
    /// DWC stride (1 or 2).
    pub stride: usize,
    /// DWC kernel height/width (`H = W = 3` for MobileNet; 1 for
    /// [`StageOp::PwcOnly`]).
    pub kernel: usize,
    /// Spatial zero-padding on every edge (v1: same-padding `kernel / 2`).
    pub pad: usize,
    /// Which engines the stage occupies.
    pub op: StageOp,
    /// This stage's *input* is the residual source of its block (it must
    /// stay resident in external memory until the matching
    /// [`residual_add`](LayerShape::residual_add) stage drains).
    pub residual_save: bool,
    /// The saved residual is requantized and added to this stage's output
    /// on the Non-Conv drain path (inverted-residual skip connection).
    pub residual_add: bool,
}

impl Default for LayerShape {
    /// A v1-style stage: 3×3 DSC, stride 1, same-padding, no residual.
    fn default() -> Self {
        Self {
            index: 0,
            in_spatial: 1,
            d_in: 1,
            k_out: 1,
            stride: 1,
            kernel: 3,
            pad: 1,
            op: StageOp::Dsc,
            residual_save: false,
            residual_add: false,
        }
    }
}

impl LayerShape {
    /// A plain DSC stage with v1 defaults (same-padding, no residual).
    #[must_use]
    pub fn dsc(
        index: usize,
        in_spatial: usize,
        d_in: usize,
        k_out: usize,
        stride: usize,
        kernel: usize,
    ) -> Self {
        Self {
            index,
            in_spatial,
            d_in,
            k_out,
            stride,
            kernel,
            pad: kernel / 2,
            ..Self::default()
        }
    }

    /// A lone pointwise (expand/project) stage: 1×1, stride 1, no padding.
    #[must_use]
    pub fn pwc(index: usize, in_spatial: usize, d_in: usize, k_out: usize) -> Self {
        Self {
            index,
            in_spatial,
            d_in,
            k_out,
            stride: 1,
            kernel: 1,
            pad: 0,
            op: StageOp::PwcOnly,
            ..Self::default()
        }
    }

    /// The shape-only rules of one stage: every dimension is positive, the
    /// window fits the padded input, so [`out_spatial`] is defined, and a
    /// [`StageOp::PwcOnly`] stage is 1×1 with stride 1 and no padding, so
    /// its ofmap is its ifmap's size. [`check_chain`] applies it to every
    /// stage of a network.
    ///
    /// [`out_spatial`]: LayerShape::out_spatial
    ///
    /// # Errors
    ///
    /// [`NnError::InvalidConfig`] naming the stage and the broken rule.
    pub fn check(&self) -> Result<(), NnError> {
        let i = self.index;
        if [
            self.in_spatial,
            self.d_in,
            self.k_out,
            self.stride,
            self.kernel,
        ]
        .contains(&0)
        {
            return Err(NnError::InvalidConfig {
                detail: format!("layer {i}: zero dimension"),
            });
        }
        if self.in_spatial + 2 * self.pad < self.kernel {
            return Err(NnError::InvalidConfig {
                detail: format!(
                    "layer {i}: window {} does not fit input {} with pad {}",
                    self.kernel, self.in_spatial, self.pad
                ),
            });
        }
        if self.op == StageOp::PwcOnly && (self.kernel, self.stride, self.pad) != (1, 1, 0) {
            return Err(NnError::InvalidConfig {
                detail: format!(
                    "layer {i}: PwcOnly stage must be 1x1 stride-1 unpadded \
                     (kernel {}, stride {}, pad {})",
                    self.kernel, self.stride, self.pad
                ),
            });
        }
        Ok(())
    }

    /// Output spatial size (`N = M`): `(R + 2·pad − kernel)/stride + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero or the window does not fit the padded
    /// input — the cases [`LayerShape::check`] rejects first.
    #[must_use]
    pub fn out_spatial(&self) -> usize {
        out_dim(self.in_spatial, self.kernel, self.stride, self.pad)
    }

    /// MAC operations in the DWC: `N·M·D·H·W` (0 for a lone PWC).
    #[must_use]
    pub fn dwc_macs(&self) -> u64 {
        if self.op == StageOp::PwcOnly {
            return 0;
        }
        let n = self.out_spatial() as u64;
        n * n * self.d_in as u64 * (self.kernel * self.kernel) as u64
    }

    /// MAC operations in the PWC: `N·M·D·K`.
    #[must_use]
    pub fn pwc_macs(&self) -> u64 {
        let n = self.out_spatial() as u64;
        n * n * self.d_in as u64 * self.k_out as u64
    }

    /// Total stage MACs (`dwc_macs + pwc_macs`).
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.dwc_macs() + self.pwc_macs()
    }

    /// Total operations, counting each MAC as 2 ops (multiply + add), the
    /// convention behind the paper's GOPS numbers.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        2 * self.total_macs()
    }

    /// DWC weight parameter count: `H·W·D` (0 for a lone PWC).
    #[must_use]
    pub fn dwc_params(&self) -> u64 {
        if self.op == StageOp::PwcOnly {
            return 0;
        }
        (self.kernel * self.kernel * self.d_in) as u64
    }

    /// PWC weight parameter count: `D·K`.
    #[must_use]
    pub fn pwc_params(&self) -> u64 {
        (self.d_in * self.k_out) as u64
    }

    /// Elements in the DWC input feature map: `R·C·D`.
    #[must_use]
    pub fn ifmap_elems(&self) -> u64 {
        (self.in_spatial * self.in_spatial * self.d_in) as u64
    }

    /// Elements in the intermediate (DWC output = PWC input) map:
    /// `N·M·D` — 0 for a lone PWC, which feeds the engine straight from
    /// the ifmap buffer.
    #[must_use]
    pub fn intermediate_elems(&self) -> u64 {
        if self.op == StageOp::PwcOnly {
            return 0;
        }
        let n = self.out_spatial() as u64;
        n * n * self.d_in as u64
    }

    /// Elements in the PWC output feature map: `N·M·K`.
    #[must_use]
    pub fn ofmap_elems(&self) -> u64 {
        let n = self.out_spatial() as u64;
        n * n * self.k_out as u64
    }
}

/// The one definition of a well-formed stage chain — the direct data
/// transfer contract every network is built against:
///
/// * the chain is non-empty and every stage passes [`LayerShape::check`];
/// * each stage's input is the previous stage's ofmap (channels and
///   spatial size);
/// * every [`residual_add`](LayerShape::residual_add) consumes an earlier
///   [`residual_save`](LayerShape::residual_save) whose saved map (that
///   stage's input) equals the add stage's ofmap. A stage marked with both
///   saves its own input first.
///
/// Every `QuantizedDscNetwork` is checked by it when built, so execution
/// never re-checks the chain.
///
/// # Errors
///
/// [`NnError::InvalidConfig`] naming the first stage that breaks a rule.
pub fn check_chain(shapes: &[LayerShape]) -> Result<(), NnError> {
    let invalid = |detail: String| Err(NnError::InvalidConfig { detail });
    if shapes.is_empty() {
        return invalid("network must contain at least one layer".into());
    }
    let mut saved: Option<&LayerShape> = None;
    for (i, s) in shapes.iter().enumerate() {
        s.check()?;
        if let Some(prev) = i.checked_sub(1).map(|p| &shapes[p]) {
            if (s.d_in, s.in_spatial) != (prev.k_out, prev.out_spatial()) {
                return invalid(format!(
                    "layer {} input ({}, {}) does not chain from layer {} output ({}, {})",
                    s.index,
                    s.d_in,
                    s.in_spatial,
                    prev.index,
                    prev.k_out,
                    prev.out_spatial()
                ));
            }
        }
        if s.residual_save {
            saved = Some(s);
        }
        if s.residual_add {
            let Some(src) = saved.take() else {
                return invalid(format!(
                    "layer {}: residual add without a preceding residual save",
                    s.index
                ));
            };
            if (s.k_out, s.out_spatial()) != (src.d_in, src.in_spatial) {
                return invalid(format!(
                    "layer {}: residual maps for the add ofmap ({}, {}) and the input \
                     saved at layer {} ({}, {}) differ",
                    s.index,
                    s.k_out,
                    s.out_spatial(),
                    src.index,
                    src.d_in,
                    src.in_spatial
                ));
            }
        }
    }
    Ok(())
}

/// The 13 DSC layers of MobileNetV1 adapted to CIFAR-10 (stem stride 1, so
/// DSC layer 0 sees 32×32×32).
#[must_use]
pub fn mobilenet_v1_cifar10() -> Vec<LayerShape> {
    // (in_spatial, d_in, k_out, stride)
    const SPEC: [(usize, usize, usize, usize); 13] = [
        (32, 32, 64, 1),
        (32, 64, 128, 2),
        (16, 128, 128, 1),
        (16, 128, 256, 2),
        (8, 256, 256, 1),
        (8, 256, 512, 2),
        (4, 512, 512, 1),
        (4, 512, 512, 1),
        (4, 512, 512, 1),
        (4, 512, 512, 1),
        (4, 512, 512, 1),
        (4, 512, 1024, 2),
        (2, 1024, 1024, 1),
    ];
    SPEC.iter()
        .enumerate()
        .map(|(index, &(in_spatial, d_in, k_out, stride))| {
            LayerShape::dsc(index, in_spatial, d_in, k_out, stride, 3)
        })
        .collect()
}

/// One MobileNetV2 inverted-residual block spec:
/// `(expansion t, c_out, stride, residual)`.
type V2Block = (usize, usize, usize, bool);

/// The MobileNetV2 inverted-residual stack adapted to CIFAR-10 and to the
/// engine geometry (channel counts rounded to multiples of `Tk = 16`,
/// spatial sizes kept even), flattened into accelerator stages: each block
/// with expansion `t > 1` becomes a [`StageOp::PwcOnly`] expand stage
/// (marked [`residual_save`](LayerShape::residual_save) when the block has
/// a skip connection) followed by a [`StageOp::Dsc`] stage fusing the DWC
/// with the *project* PWC (marked
/// [`residual_add`](LayerShape::residual_add) on residual blocks); `t = 1`
/// blocks are a single DSC stage. The stem is shared with v1
/// ([`StemShape::cifar10`]), so both networks accept the same layer-0
/// input — what lets one pool serve mixed v1+v2 traffic.
#[must_use]
pub fn mobilenet_v2_cifar10() -> Vec<LayerShape> {
    // (t, c_out, stride, residual); input channels start at the stem's 32.
    const BLOCKS: [V2Block; 9] = [
        (1, 16, 1, false),
        (6, 32, 2, false),
        (6, 32, 1, true),
        (6, 64, 2, false),
        (6, 64, 1, true),
        (6, 96, 1, false),
        (6, 160, 2, false),
        (6, 160, 1, true),
        (6, 320, 1, false),
    ];
    let mut layers = Vec::new();
    let mut spatial = 32usize;
    let mut c_in = StemShape::cifar10().c_out;
    for &(t, c_out, stride, residual) in &BLOCKS {
        debug_assert!(!residual || (stride == 1 && c_in == c_out));
        if t > 1 {
            let mut expand = LayerShape::pwc(layers.len(), spatial, c_in, t * c_in);
            expand.residual_save = residual;
            layers.push(expand);
            let mut dsc = LayerShape::dsc(layers.len(), spatial, t * c_in, c_out, stride, 3);
            dsc.residual_add = residual;
            layers.push(dsc);
        } else {
            let mut dsc = LayerShape::dsc(layers.len(), spatial, c_in, c_out, stride, 3);
            dsc.residual_save = residual;
            dsc.residual_add = residual;
            layers.push(dsc);
        }
        spatial = layers[layers.len() - 1].out_spatial();
        c_in = c_out;
    }
    layers
}

/// Identifies a network within a serving deployment (requests carry one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetworkId(pub u32);

impl NetworkId {
    /// The primary network of a deployment (the first registered model).
    pub const PRIMARY: Self = Self(0);
}

impl std::fmt::Display for NetworkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "net{}", self.0)
    }
}

/// A complete network descriptor: identity, host-side stem, accelerator
/// stage list and classifier head width. The stage list is the part the
/// accelerator consumes; the rest routes requests and sizes the host-side
/// pre/post-processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkDescriptor {
    /// Identity within a deployment.
    pub id: NetworkId,
    /// Human-readable name.
    pub name: &'static str,
    /// The host-run stem convolution feeding stage 0.
    pub stem: StemShape,
    /// The accelerator stage list.
    pub layers: Vec<LayerShape>,
    /// Classifier head width (CIFAR-10: 10).
    pub num_classes: usize,
}

impl NetworkDescriptor {
    /// MobileNetV1-CIFAR10 as the primary network.
    #[must_use]
    pub fn mobilenet_v1() -> Self {
        Self {
            id: NetworkId::PRIMARY,
            name: "mobilenet-v1-cifar10",
            stem: StemShape::cifar10(),
            layers: mobilenet_v1_cifar10(),
            num_classes: 10,
        }
    }

    /// MobileNetV2-CIFAR10 as a secondary network (id 1).
    #[must_use]
    pub fn mobilenet_v2() -> Self {
        Self {
            id: NetworkId(1),
            name: "mobilenet-v2-cifar10",
            stem: StemShape::cifar10(),
            layers: mobilenet_v2_cifar10(),
            num_classes: 10,
        }
    }
}

/// Scales a layer stack by a MobileNet width multiplier (channel counts are
/// multiplied and rounded up to a multiple of `round_to`). Used to build
/// small models for fast tests while preserving the layer structure.
///
/// # Errors
///
/// [`NnError::InvalidConfig`] if `round_to` is zero or `width` is
/// non-positive or non-finite (a NaN or infinite multiplier would
/// silently produce nonsense channel counts).
pub fn scale_width(
    layers: &[LayerShape],
    width: f64,
    round_to: usize,
) -> Result<Vec<LayerShape>, NnError> {
    if !width.is_finite() || width <= 0.0 {
        return Err(NnError::InvalidConfig {
            detail: format!("width multiplier must be positive and finite, got {width}"),
        });
    }
    if round_to == 0 {
        return Err(NnError::InvalidConfig {
            detail: "round_to must be positive".into(),
        });
    }
    let scale = |c: usize| -> usize {
        let scaled = (c as f64 * width).round().max(1.0) as usize;
        scaled.div_ceil(round_to) * round_to
    };
    Ok(layers
        .iter()
        .map(|l| LayerShape {
            d_in: scale(l.d_in),
            k_out: scale(l.k_out),
            ..*l
        })
        .collect())
}

/// Stem (first) layer of MobileNetV1-CIFAR10: a standard 3×3 convolution,
/// 3 → 32 channels, stride 1 — run on the host, not on the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StemShape {
    /// Input spatial size (CIFAR-10: 32).
    pub in_spatial: usize,
    /// Input channels (RGB: 3).
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Stride.
    pub stride: usize,
}

impl StemShape {
    /// The CIFAR-10 stem: 32×32×3 → 32×32×32.
    #[must_use]
    pub fn cifar10() -> Self {
        Self {
            in_spatial: 32,
            c_in: 3,
            c_out: 32,
            stride: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_layers_with_strides_at_1_3_5_11() {
        let layers = mobilenet_v1_cifar10();
        assert_eq!(layers.len(), 13);
        let strided: Vec<usize> = layers
            .iter()
            .filter(|l| l.stride == 2)
            .map(|l| l.index)
            .collect();
        assert_eq!(strided, vec![1, 3, 5, 11]);
    }

    #[test]
    fn v1_layers_are_the_degenerate_generalized_case() {
        for l in mobilenet_v1_cifar10() {
            assert_eq!((l.kernel, l.pad), (3, 1));
            assert_eq!(l.op, StageOp::Dsc);
            assert!(!l.residual_save && !l.residual_add);
        }
    }

    #[test]
    fn spatial_chain_is_consistent() {
        // Each layer's output must be the next layer's input.
        let layers = mobilenet_v1_cifar10();
        check_chain(&layers).unwrap();
        assert_eq!(layers[12].out_spatial(), 2);
    }

    #[test]
    fn channel_chain_is_consistent() {
        let layers = mobilenet_v1_cifar10();
        for pair in layers.windows(2) {
            assert_eq!(pair[0].k_out, pair[1].d_in);
        }
    }

    #[test]
    fn mac_counts_match_paper_fig10_scale() {
        // Derived analytically from the layer shapes; Fig. 10's MAC axis
        // tops out just below 5e6 with layer 2 the largest.
        let layers = mobilenet_v1_cifar10();
        let macs: Vec<u64> = layers.iter().map(LayerShape::total_macs).collect();
        assert_eq!(macs[0], 2_392_064);
        assert_eq!(macs[1], 2_244_608);
        assert_eq!(macs[2], 4_489_216);
        assert_eq!(macs[3], 2_170_880);
        assert_eq!(macs[4], 4_341_760);
        assert_eq!(macs[5], 2_134_016);
        assert_eq!(macs[6], 4_268_032);
        assert_eq!(macs[11], 2_115_584);
        assert_eq!(macs[12], 4_231_168);
        let max = *macs.iter().max().unwrap();
        assert_eq!(max, 4_489_216); // layer 2
        assert!(max < 5_000_000);
    }

    #[test]
    fn strided_layers_have_reduced_macs() {
        // Paper Fig. 10: layers 1, 3, 5, 11 have ~half the MACs of their
        // dense neighbours.
        let layers = mobilenet_v1_cifar10();
        for &i in &[1usize, 3, 5, 11] {
            assert!(
                (layers[i].total_macs() as f64) < 0.6 * layers[i + 1].total_macs() as f64,
                "layer {i}"
            );
        }
    }

    #[test]
    fn parameter_total_matches_mobilenet_conv_body() {
        // Sum of DSC parameters (without stem/classifier) for CIFAR
        // MobileNetV1 is about 3.2M, dominated by PWC.
        let layers = mobilenet_v1_cifar10();
        let dwc: u64 = layers.iter().map(LayerShape::dwc_params).sum();
        let pwc: u64 = layers.iter().map(LayerShape::pwc_params).sum();
        assert_eq!(
            dwc,
            9 * (32 + 64 + 128 + 128 + 256 + 256 + 512 * 5 + 512 + 1024)
        );
        assert_eq!(pwc, 3_139_584);
        assert!(pwc > 50 * dwc, "PWC parameters must dominate");
    }

    #[test]
    fn ops_are_twice_macs() {
        for l in mobilenet_v1_cifar10() {
            assert_eq!(l.total_ops(), 2 * l.total_macs());
        }
    }

    #[test]
    fn scale_width_preserves_structure() {
        let layers = mobilenet_v1_cifar10();
        let small = scale_width(&layers, 0.25, 8).unwrap();
        assert_eq!(small.len(), 13);
        assert_eq!(small[0].d_in, 8);
        assert_eq!(small[0].k_out, 16);
        assert_eq!(small[12].d_in, 256);
        for (a, b) in layers.iter().zip(&small) {
            assert_eq!(a.stride, b.stride);
            assert_eq!(a.in_spatial, b.in_spatial);
            assert_eq!(b.d_in % 8, 0);
        }
    }

    #[test]
    fn scale_width_rounds_up_to_multiple() {
        let layers = mobilenet_v1_cifar10();
        let odd = scale_width(&layers, 0.1, 16).unwrap();
        assert!(odd.iter().all(|l| l.d_in % 16 == 0 && l.k_out % 16 == 0));
    }

    #[test]
    fn scale_width_rejects_bad_width() {
        let layers = mobilenet_v1_cifar10();
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(
                    scale_width(&layers, w, 8),
                    Err(NnError::InvalidConfig { .. })
                ),
                "width {w} must be rejected"
            );
        }
    }

    #[test]
    fn scale_width_rejects_zero_round_to() {
        let layers = mobilenet_v1_cifar10();
        assert!(matches!(
            scale_width(&layers, 1.0, 0),
            Err(NnError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn intermediate_elems_match_dwc_output() {
        let l = mobilenet_v1_cifar10()[1]; // stride 2: 32 -> 16
        assert_eq!(l.intermediate_elems(), 16 * 16 * 64);
        assert_eq!(l.ofmap_elems(), 16 * 16 * 128);
        assert_eq!(l.ifmap_elems(), 32 * 32 * 64);
    }

    #[test]
    fn stem_is_cifar_shaped() {
        let s = StemShape::cifar10();
        assert_eq!((s.in_spatial, s.c_in, s.c_out, s.stride), (32, 3, 32, 1));
    }

    #[test]
    fn v2_stack_chains_and_maps_onto_engine_geometry() {
        let layers = mobilenet_v2_cifar10();
        assert_eq!(layers.len(), 17); // 8 expanded blocks × 2 + 1 t=1 block
        for (i, l) in layers.iter().enumerate() {
            assert_eq!(l.index, i);
            assert_eq!(l.d_in % 8, 0, "stage {i} d_in {}", l.d_in);
            assert_eq!(l.k_out % 16, 0, "stage {i} k_out {}", l.k_out);
            assert_eq!(l.out_spatial() % 2, 0, "stage {i}");
            match l.op {
                StageOp::Dsc => assert_eq!(l.kernel, 3),
                StageOp::PwcOnly => {
                    assert_eq!((l.kernel, l.stride, l.pad), (1, 1, 0));
                }
            }
        }
        check_chain(&layers).unwrap();
        // The network ends at 4×4×320 after three stride-2 blocks.
        let last = layers.last().unwrap();
        assert_eq!((last.k_out, last.out_spatial()), (320, 4));
    }

    #[test]
    fn v2_residual_markers_pair_up_inside_blocks() {
        let layers = mobilenet_v2_cifar10();
        let saves: Vec<usize> = layers
            .iter()
            .filter(|l| l.residual_save)
            .map(|l| l.index)
            .collect();
        let adds: Vec<usize> = layers
            .iter()
            .filter(|l| l.residual_add)
            .map(|l| l.index)
            .collect();
        assert_eq!(saves.len(), 3);
        assert_eq!(adds.len(), 3);
        for (&s, &a) in saves.iter().zip(&adds) {
            // Save on the expand stage, add on the very next DSC stage.
            assert_eq!(a, s + 1);
            let (expand, dsc) = (&layers[s], &layers[a]);
            assert_eq!(expand.op, StageOp::PwcOnly);
            assert_eq!(dsc.op, StageOp::Dsc);
            // A residual needs stride 1 and matched channels end to end.
            assert_eq!(dsc.stride, 1);
            assert_eq!(expand.d_in, dsc.k_out);
        }
    }

    #[test]
    fn network_descriptors_identify_and_wrap_the_stacks() {
        let v1 = NetworkDescriptor::mobilenet_v1();
        let v2 = NetworkDescriptor::mobilenet_v2();
        assert_eq!(v1.id, NetworkId::PRIMARY);
        assert_ne!(v1.id, v2.id);
        assert_eq!(v1.layers, mobilenet_v1_cifar10());
        assert_eq!(v2.layers, mobilenet_v2_cifar10());
        // The shared stem is what allows one pool to serve both networks.
        assert_eq!(v1.stem, v2.stem);
        assert_eq!(format!("{}", v2.id), "net1");
    }
}
