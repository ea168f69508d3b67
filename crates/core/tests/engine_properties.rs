//! Property-based tests: the engine datapaths against the golden reference
//! kernels, on arbitrary int8 tiles, for the DWC portion kernel at any
//! lane count, stride, pad, portion extent and portion placement, and for
//! the PWC portion kernel at any depth against its per-pass calls.

use edea_core::engine::{DwcEngine, EngineActivity, PwcEngine, WeightSlice};
use edea_core::nonconv::{NonConvUnit, Residual};
use edea_core::schedule::Portion;
use edea_core::{timing, EdeaConfig};
use edea_fixed::Q8x16;
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

/// The modeled activity of one DWC channel pass over `portion`, slot by
/// slot: every `(channel, output pixel, tap)` slot, with its zero
/// operands, read from the zero-padded `(Td, ·, ·)` input.
fn dwc_slot_activity(
    padded: &Tensor3<i8>,
    weights: &Tensor4<i8>,
    stride: usize,
    portion: &Portion,
) -> EngineActivity {
    let (td, _, k, _) = weights.shape();
    let mut activity = EngineActivity::default();
    for c in 0..td {
        for r in portion.row0..portion.row0 + portion.rows {
            for q in portion.col0..portion.col0 + portion.cols {
                for kh in 0..k {
                    for kw in 0..k {
                        activity.mac_slots += 1;
                        let a = padded[(c, r * stride + kh, q * stride + kw)];
                        activity.zero_act_slots += u64::from(a == 0);
                        activity.zero_weight_slots += u64::from(weights[(c, 0, kh, kw)] == 0);
                    }
                }
            }
        }
    }
    activity
}

/// One engine cycle of the paper's DWC: the portion kernel at the extent
/// of one 2×2 tile over an unpadded window, returned channel-major.
fn dwc_tile(ifmap: &Tensor3<i8>, weights: &Tensor4<i8>, stride: usize) -> Tensor3<i32> {
    let tile = Portion {
        row0: 0,
        col0: 0,
        rows: 2,
        cols: 2,
    };
    let mut acc = Tensor3::zeros(1, 1, 1);
    DwcEngine::new(&EdeaConfig::paper())
        .compute_portion_into(
            ifmap,
            0,
            WeightSlice::new(weights.as_slice()),
            &tile,
            stride,
            0,
            &mut acc,
        )
        .expect("tile");
    Tensor3::from_fn(8, 2, 2, |c, r, q| acc[(r, q, c)])
}

/// One engine cycle of the paper's PWC: the portion kernel at the extent
/// of one 2×2 tile and one 16-wide kernel tile, returned channel-major.
fn pwc_tile(ifmap: &Tensor3<i8>, weights: &Tensor4<i8>) -> (Tensor3<i32>, EngineActivity) {
    let by_channel: Vec<i8> = (0..8 * 16)
        .map(|i| weights[(i % 16, i / 16, 0, 0)])
        .collect();
    let mut psum = vec![0i32; 4 * 16];
    let activity = PwcEngine::new(&EdeaConfig::paper())
        .accumulate_portion(ifmap, WeightSlice::new(&by_channel), &mut psum)
        .expect("tile");
    let planes = Tensor3::from_fn(16, 2, 2, |k, r, q| psum[(r * 2 + q) * 16 + k]);
    (planes, activity)
}

/// Where a portion of `n` outputs sits on an axis of `out`: at the first
/// edge, at the last, or in between.
fn place(at: usize, n: usize, out: usize) -> usize {
    [0, out - n, (out - n) / 2][at]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The DWC portion kernel at geometries the paper configuration never
    /// reaches, reading a whole layer input in place: 1 to 72 channel
    /// lanes (partial and multiple 8-lane blocks) at either channel block
    /// of the input, strides 1–3, pads 0–2 (the halo it zero-fills as it
    /// stages), portions of up to 32×32 outputs (windows of up to 96×96,
    /// beyond one staging strip) at every edge, corner and the interior of
    /// the map, and 0–100 % activation zeros (100 % takes the whole-window
    /// skip). Its accumulators equal the reference depthwise convolution of
    /// the padded map sliced to the portion, and its activity the per-slot
    /// count.
    #[test]
    fn dwc_portion_kernel_matches_references_at_any_geometry(
        lanes in 0usize..5,
        stride in 1usize..4,
        pad in 0usize..3,
        extent in (1usize..33, 1usize..33),
        margin in 0usize..5,
        at in (0usize..3, 0usize..3),
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
        // The smallest map whose ofmap holds the portion plus the margin,
        // widened by up to `stride − 1` columns the last output never
        // reads.
        let want = rows.max(cols) + margin;
        let side = ((want - 1) * stride + k + seed as usize % stride).saturating_sub(2 * pad).max(1);
        let out = (side + 2 * pad - k) / stride + 1;
        let portion = Portion {
            row0: place(at.0, rows, out),
            col0: place(at.1, cols, out),
            rows,
            cols,
        };
        let mut map = rng::uniform_i8_tensor3(2 * td, side, side, -128, 127, seed);
        sparsify(map.as_mut_slice(), zero_pct, seed);
        let c0 = td * ((seed >> 8) as usize & 1);
        let mut weights = rng::uniform_i8_tensor4(td, 1, k, k, -128, 127, seed ^ 1);
        sparsify(weights.as_mut_slice(), 20, seed ^ 2);
        let mut acc = Tensor3::<i32>::zeros(1, 1, 1);
        let activity = engine
            .compute_portion_into(
                &map,
                c0,
                WeightSlice::new(weights.as_slice()),
                &portion,
                stride,
                pad,
                &mut acc,
            )
            .expect("whole-tile portion");
        let block = map.channel_slice(c0, td);
        let reference = depthwise_conv2d_i8(&block, &weights, stride, pad);
        let expected = Tensor3::from_fn(rows, cols, td, |r, q, c| {
            reference[(c, portion.row0 + r, portion.col0 + q)]
        });
        prop_assert_eq!(&acc, &expected);
        let padded = block.zero_padded(pad);
        prop_assert_eq!(activity, dwc_slot_activity(&padded, &weights, stride, &portion));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The PWC portion kernel over a portion's whole `D`-deep slab equals
    /// both the sum of its `Td`-deep per-pass calls into the same bank and
    /// the reference pointwise convolution, bit for bit in every psum, and
    /// its activity equals the per-pass sum and the per-slot count field
    /// for field. Depths span one pass to eight 128-channel gather groups,
    /// extents 2–8 each way, K from 1 to 80 (inside one 256-sum row block)
    /// or past one or two whole blocks, activation sparsity 0 to 100 %,
    /// and operands that are
    /// random, all −128 (two negated −128·−128 products sum to exactly
    /// the i16 floor) or all 127. Zeroing channel 0 of every pixel makes
    /// the live count odd on a dense slab.
    #[test]
    fn pwc_whole_depth_call_equals_per_pass_sum_and_reference(
        depth in 0usize..5,
        extent in (1usize..5, 1usize..5),
        k in 1usize..81,
        wide in any::<bool>(),
        sparsity in 0usize..4,
        operands in 0usize..3,
        odd in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let cfg = EdeaConfig::paper();
        let td = cfg.tile.td;
        let engine = PwcEngine::new(&cfg);
        let d = [8, 16, 64, 512, 1024][depth];
        let (rows, cols) = (2 * extent.0, 2 * extent.1);
        let k = if wide { 256 * (1 + k % 2) + k } else { k };
        let (mut mid, mut weights) = match operands {
            0 => (
                rng::uniform_i8_tensor3(d, rows, cols, -128, 127, seed),
                rng::uniform_i8_tensor4(k, d, 1, 1, -128, 127, seed ^ 1),
            ),
            _ => {
                let v = if operands == 1 { -128 } else { 127 };
                let weights = Tensor4::from_fn(k, d, 1, 1, |_, _, _, _| v);
                (Tensor3::from_fn(d, rows, cols, |_, _, _| v), weights)
            }
        };
        sparsify(mid.as_mut_slice(), [0, 50, 97, 100][sparsity], seed ^ 2);
        if odd {
            mid.as_mut_slice()[..rows * cols].fill(0);
        }
        if operands == 0 {
            sparsify(weights.as_mut_slice(), 30, seed ^ 3);
        }
        // Input-channel-major, as the plan lays the layer out.
        let wt: Vec<i8> = (0..d * k).map(|i| weights[(i % k, i / k, 0, 0)]).collect();
        let pix = rows * cols;

        let mut whole = vec![0i32; pix * k];
        let activity = engine
            .accumulate_portion(&mid, WeightSlice::new(&wt), &mut whole)
            .expect("whole-depth call");

        let mut passes = vec![0i32; pix * k];
        let mut pass_activity = EngineActivity::default();
        for (ct, w) in wt.chunks_exact(td * k).enumerate() {
            let slab = mid.channel_slice(ct * td, td);
            let act = engine
                .accumulate_portion(&slab, WeightSlice::new(w), &mut passes)
                .expect("per-pass call");
            pass_activity.merge(&act);
        }
        prop_assert_eq!(&whole, &passes);
        prop_assert_eq!(activity, pass_activity);

        let reference = pointwise_conv2d_i8(&mid, &weights);
        let planes = Tensor3::from_fn(k, rows, cols, |ki, r, q| whole[(r * cols + q) * k + ki]);
        prop_assert_eq!(&planes, &reference);
        let zeros = |v: &[i8]| v.iter().filter(|&&x| x == 0).count() as u64;
        prop_assert_eq!(activity, EngineActivity {
            mac_slots: (d * k * pix) as u64,
            zero_act_slots: zeros(mid.as_slice()) * k as u64,
            zero_weight_slots: zeros(&wt) * pix as u64,
        });
    }
}

proptest! {
    /// The DWC engine equals the reference depthwise convolution on any
    /// 4×4×8 tile (stride 1).
    #[test]
    fn dwc_engine_equals_reference_s1(ifmap in i8_tensor3(8, 4, 4),
                                      weights in i8_tensor4(8, 1, 3, 3)) {
        prop_assert_eq!(dwc_tile(&ifmap, &weights, 1), depthwise_conv2d_i8(&ifmap, &weights, 1, 0));
    }

    /// The DWC engine equals the reference on any 5×5×8 tile (stride 2).
    #[test]
    fn dwc_engine_equals_reference_s2(ifmap in i8_tensor3(8, 5, 5),
                                      weights in i8_tensor4(8, 1, 3, 3)) {
        prop_assert_eq!(dwc_tile(&ifmap, &weights, 2), depthwise_conv2d_i8(&ifmap, &weights, 2, 0));
    }

    /// The PWC engine equals the reference pointwise convolution on any
    /// 2×2×8 tile with a 16×8 kernel tile.
    #[test]
    fn pwc_engine_equals_reference(ifmap in i8_tensor3(8, 2, 2),
                                   weights in i8_tensor4(16, 8, 1, 1)) {
        prop_assert_eq!(pwc_tile(&ifmap, &weights).0, pointwise_conv2d_i8(&ifmap, &weights));
    }

    /// Engine zero-activation counts are exact: each zero activation gates
    /// exactly the slots that consume it.
    #[test]
    fn pwc_gating_count_is_exact(ifmap in i8_tensor3(8, 2, 2),
                                 weights in i8_tensor4(16, 8, 1, 1)) {
        let (_, activity) = pwc_tile(&ifmap, &weights);
        let zeros = ifmap.as_slice().iter().filter(|&&v| v == 0).count() as u64;
        prop_assert_eq!(activity.zero_act_slots, zeros * 16);
    }

    /// Non-Conv outputs always land in [0, 127] (ReLU-folded clip).
    #[test]
    fn nonconv_outputs_in_relu_range(acc in prop::collection::vec(any::<i32>(), 32),
                                     k in -100.0f64..100.0, b in -100.0f64..100.0) {
        let acc = Tensor3::from_vec(acc, 2, 2, 8).expect("sized");
        let params = vec![FoldedAffine::fold(k, b, 1.0, 1.0, 1.0); 8];
        let mut out = [0i8; 32];
        let counted = NonConvUnit.apply(&acc, &params, 0, None, &mut out).expect("apply");
        prop_assert!(out.iter().all(|&v| (0..=127).contains(&v)));
        let zeros = out.iter().filter(|&&v| v == 0).count() as u64;
        prop_assert_eq!(counted, zeros);
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

proptest! {
    /// The one Non-Conv entry is elementwise-identical to the folded
    /// affine, on random `(rows, cols, C)` pixel-major accumulators, both
    /// clip floors (0 = folded ReLU, −128 = linear project) and with or
    /// without a residual read in place from a larger saved map: output
    /// `(c, r, q)` is `apply_fixed` (or `apply_fixed_residual` with the
    /// map's element at the window offset) of accumulator `(r, q, c)`, and
    /// the zero count is a scan of the output. The per-channel constants
    /// are Q8.16 words.
    #[test]
    fn nonconv_unit_matches_folded_affine(
        extent in (1usize..9, 1usize..9),
        channels in 1usize..33,
        acc in prop::collection::vec(-200_000i32..200_000, 8 * 8 * 32),
        affine in (-2.0f64..2.0, -50.0f64..50.0),
        floor in 0usize..2,
        skip in (0usize..2, 0usize..4, 0usize..4),
        scale in -1.5f64..1.5,
        seed in any::<u64>(),
    ) {
        let (rows, cols) = extent;
        let acc = Tensor3::from_vec(acc[..rows * cols * channels].to_vec(), rows, cols, channels)
            .expect("sized");
        let params: Vec<FoldedAffine> = (0..channels)
            .map(|c| {
                let t = c as f64 / channels as f64;
                FoldedAffine::fold(affine.0 * (1.0 - t), affine.1 - t, 0.02, 0.01, 0.015)
            })
            .collect();
        let lo = [0i8, -128][floor];
        let map = rng::uniform_i8_tensor3(channels + 1, rows + 3, cols + 3, -128, 127, seed);
        let (with_skip, row0, col0) = skip;
        let scale = Q8x16::from_f64(scale);
        let residual = (with_skip == 1).then_some(Residual { map: &map, row0, col0, scale });
        let mut out = vec![0i8; acc.len()];
        let zero_outputs = NonConvUnit
            .apply(&acc, &params, lo, residual, &mut out)
            .expect("apply");
        let plane = rows * cols;
        for (i, &y) in out.iter().enumerate() {
            let (c, r, q) = (i / plane, i % plane / cols, i % cols);
            let a = acc[(r, q, c)];
            let want = match residual {
                Some(_) => params[c].apply_fixed_residual(a, map[(c, row0 + r, col0 + q)], scale, lo),
                None => params[c].apply_fixed(a, lo),
            };
            prop_assert_eq!(y, want);
        }
        prop_assert_eq!(zero_outputs, out.iter().filter(|&&v| v == 0).count() as u64);
        for p in &params {
            prop_assert_eq!(p.k, Q8x16::from_f64(p.k_exact));
        }
    }
}
