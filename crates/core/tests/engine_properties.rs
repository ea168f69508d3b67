//! Property-based tests: the engine datapaths against the golden reference
//! kernels, on arbitrary int8 tiles and — for the DWC portion kernel — at
//! any lane count, stride and portion extent.

use edea_core::engine::{DwcEngine, EngineActivity, PwcEngine, WeightSlice};
use edea_core::nonconv::NonConvUnit;
use edea_core::{timing, EdeaConfig};
use edea_nn::fold::FoldedAffine;
use edea_tensor::conv::{depthwise_conv2d_i8, pointwise_conv2d_i8};
use edea_tensor::{rng, Tensor3, Tensor4};
use proptest::prelude::*;

fn i8_tensor3(c: usize, h: usize, w: usize) -> impl Strategy<Value = Tensor3<i8>> {
    prop::collection::vec(any::<i8>(), c * h * w)
        .prop_map(move |v| Tensor3::from_vec(v, c, h, w).expect("sized"))
}

fn i8_tensor4(k: usize, c: usize, h: usize, w: usize) -> impl Strategy<Value = Tensor4<i8>> {
    prop::collection::vec(any::<i8>(), k * c * h * w)
        .prop_map(move |v| Tensor4::from_vec(v, k, c, h, w).expect("sized"))
}

/// Zeroes about `pct` percent of `values`, by a hash of the index and
/// `salt` (independent of the RNG that drew the values).
fn sparsify(values: &mut [i8], pct: u32, salt: u64) {
    for (i, v) in values.iter_mut().enumerate() {
        let h = (i as u64 + 1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(salt)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        if (h >> 32) % 100 < u64::from(pct) {
            *v = 0;
        }
    }
}

/// The modeled activity of one DWC channel pass, slot by slot: every
/// `(channel, output pixel, tap)` slot, with its zero operands.
fn dwc_slot_activity(
    window: &Tensor3<i8>,
    weights: &Tensor4<i8>,
    stride: usize,
    (rows, cols): (usize, usize),
) -> EngineActivity {
    let (td, _, k, _) = weights.shape();
    let mut activity = EngineActivity::default();
    for c in 0..td {
        for r in 0..rows {
            for q in 0..cols {
                for kh in 0..k {
                    for kw in 0..k {
                        activity.mac_slots += 1;
                        let a = window[(c, r * stride + kh, q * stride + kw)];
                        activity.zero_act_slots += u64::from(a == 0);
                        activity.zero_weight_slots += u64::from(weights[(c, 0, kh, kw)] == 0);
                    }
                }
            }
        }
    }
    activity
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The DWC portion kernel at geometries the paper configuration never
    /// reaches: 1 to 72 channel lanes (partial and multiple 8-lane
    /// blocks), strides 1–3, portions of up to 32×32 outputs (windows of
    /// up to 96×96, beyond one staging strip) and 0–100 % activation
    /// zeros (100 % takes the whole-window skip). Its accumulators equal
    /// the reference depthwise convolution, and its activity the per-slot
    /// count.
    #[test]
    fn dwc_portion_kernel_matches_references_at_any_geometry(
        lanes in 0usize..5,
        stride in 1usize..4,
        extent in (1usize..33, 1usize..33),
        zero_pct in 0u32..101,
        seed in any::<u64>(),
    ) {
        let td = [1, 4, 8, 12, 72][lanes];
        let (rows, cols) = extent;
        let mut cfg = EdeaConfig::paper();
        cfg.tile.td = td;
        cfg.tile.tn = 1;
        cfg.tile.tm = 1;
        let k = cfg.tile.kernel;
        let engine = DwcEngine::new(&cfg);
        let (hr, hc) = ((rows - 1) * stride + k, (cols - 1) * stride + k);
        let mut window = rng::uniform_i8_tensor3(td, hr, hc, -128, 127, seed);
        sparsify(window.as_mut_slice(), zero_pct, seed);
        let mut weights = rng::uniform_i8_tensor4(td, 1, k, k, -128, 127, seed ^ 1);
        sparsify(weights.as_mut_slice(), 20, seed ^ 2);
        let mut acc = Tensor3::<i32>::zeros(1, 1, 1);
        let activity = engine
            .compute_portion_into(&window, WeightSlice::new(weights.as_slice()), stride, &mut acc)
            .expect("whole-tile portion");
        prop_assert_eq!(&acc, &depthwise_conv2d_i8(&window, &weights, stride, 0));
        prop_assert_eq!(activity, dwc_slot_activity(&window, &weights, stride, (rows, cols)));
    }
}

proptest! {
    /// The DWC engine equals the reference depthwise convolution on any
    /// 4×4×8 tile (stride 1).
    #[test]
    fn dwc_engine_equals_reference_s1(ifmap in i8_tensor3(8, 4, 4),
                                      weights in i8_tensor4(8, 1, 3, 3)) {
        let engine = DwcEngine::new(&EdeaConfig::paper());
        let out = engine.compute_tile(&ifmap, &weights, 1).expect("tile");
        prop_assert_eq!(out.acc, depthwise_conv2d_i8(&ifmap, &weights, 1, 0));
    }

    /// The DWC engine equals the reference on any 5×5×8 tile (stride 2).
    #[test]
    fn dwc_engine_equals_reference_s2(ifmap in i8_tensor3(8, 5, 5),
                                      weights in i8_tensor4(8, 1, 3, 3)) {
        let engine = DwcEngine::new(&EdeaConfig::paper());
        let out = engine.compute_tile(&ifmap, &weights, 2).expect("tile");
        prop_assert_eq!(out.acc, depthwise_conv2d_i8(&ifmap, &weights, 2, 0));
    }

    /// The PWC engine equals the reference pointwise convolution on any
    /// 2×2×8 tile with a 16×8 kernel tile.
    #[test]
    fn pwc_engine_equals_reference(ifmap in i8_tensor3(8, 2, 2),
                                   weights in i8_tensor4(16, 8, 1, 1)) {
        let engine = PwcEngine::new(&EdeaConfig::paper());
        let out = engine.compute_tile(&ifmap, &weights).expect("tile");
        prop_assert_eq!(out.partial, pointwise_conv2d_i8(&ifmap, &weights));
    }

    /// Engine zero-activation counts are exact: each zero activation gates
    /// exactly the slots that consume it.
    #[test]
    fn pwc_gating_count_is_exact(ifmap in i8_tensor3(8, 2, 2),
                                 weights in i8_tensor4(16, 8, 1, 1)) {
        let engine = PwcEngine::new(&EdeaConfig::paper());
        let out = engine.compute_tile(&ifmap, &weights).expect("tile");
        let zeros = ifmap.as_slice().iter().filter(|&&v| v == 0).count() as u64;
        prop_assert_eq!(out.activity.zero_act_slots, zeros * 16);
    }

    /// The Non-Conv unit is elementwise-identical to the folded affine.
    #[test]
    fn nonconv_unit_matches_folded_affine(acc in prop::collection::vec(-200_000i32..200_000, 32),
                                          k in -2.0f64..2.0, b in -50.0f64..50.0) {
        let unit = NonConvUnit::new(&EdeaConfig::paper());
        let tile = Tensor3::from_vec(acc.clone(), 8, 2, 2).expect("sized");
        let f = FoldedAffine::fold(k, b, 0.05, 0.05, 0.1);
        let params = vec![f; 8];
        let (out, _) = unit.apply_tile(&tile, &params).expect("apply");
        for (i, &a) in acc.iter().enumerate() {
            prop_assert_eq!(out.as_slice()[i], f.apply_fixed(a, 0));
        }
    }

    /// Non-Conv outputs always land in [0, 127] (ReLU-folded clip).
    #[test]
    fn nonconv_outputs_in_relu_range(acc in prop::collection::vec(any::<i32>(), 32),
                                     k in -100.0f64..100.0, b in -100.0f64..100.0) {
        let unit = NonConvUnit::new(&EdeaConfig::paper());
        let tile = Tensor3::from_vec(acc, 8, 2, 2).expect("sized");
        let params = vec![FoldedAffine::fold(k, b, 1.0, 1.0, 1.0); 8];
        let (out, activity) = unit.apply_tile(&tile, &params).expect("apply");
        prop_assert!(out.as_slice().iter().all(|&v| (0..=127).contains(&v)));
        let zeros = out.as_slice().iter().filter(|&&v| v == 0).count() as u64;
        prop_assert_eq!(activity.zero_outputs, zeros);
    }

    /// Eq. 1/Eq. 2 cycles are monotone in every workload dimension.
    #[test]
    fn cycles_monotone_in_workload(d_mult in 1usize..6, k_mult in 1usize..6,
                                   sp in 1usize..6) {
        use edea_nn::workload::LayerShape;
        let cfg = EdeaConfig::paper();
        let mk = |d: usize, k: usize, s: usize| LayerShape::dsc(0, 2 * s, 8 * d, 16 * k, 1, 3);
        let base = timing::layer_cycles(&mk(d_mult, k_mult, sp), &cfg).total();
        prop_assert!(timing::layer_cycles(&mk(d_mult + 1, k_mult, sp), &cfg).total() > base);
        prop_assert!(timing::layer_cycles(&mk(d_mult, k_mult + 1, sp), &cfg).total() > base);
        prop_assert!(timing::layer_cycles(&mk(d_mult, k_mult, sp + 1), &cfg).total() > base);
    }
}
