//! Dense-vs-sparse bit-identity suite for the zero-skipping engine
//! kernels.
//!
//! The engines elide multiplies whose activation (or weight) operand is
//! zero — bit-exact by the additive identity — while the
//! [`EngineActivity`] they report keeps counting the *modeled hardware*
//! slots (a clock-gated slot still fires in the silicon; the power model
//! must keep seeing it). This suite pins both halves of that contract:
//!
//! 1. skip-path outputs equal a per-slot dense reference on tiles at every
//!    sparsity level, including the shaped Fig.-11 profile end to end;
//! 2. skip-path activity counts equal a brute-force per-slot count that
//!    never skips anything;
//! 3. the portion kernels — one call per (portion, channel pass) covering
//!    many modeled engine cycles — equal the sum of the same kernels'
//!    calls at the extent of one tile (one engine cycle) on the same data,
//!    in outputs *and* activity.

use edea_core::engine::{DwcEngine, EngineActivity, PwcEngine, WeightSlice};
use edea_core::nonconv::NonConvUnit;
use edea_core::schedule::Portion;
use edea_core::serve::SimulatorBackend;
use edea_core::EdeaConfig;
use edea_nn::executor;
use edea_nn::fold::FoldedAffine;
use edea_tensor::conv::{depthwise_conv2d_i8, pointwise_conv2d_i8};
use edea_tensor::rng;
use edea_tensor::{Tensor3, Tensor4};
use edea_testutil::{deploy, paper_edea};
use proptest::prelude::*;

/// Zeroes roughly `z` of a tensor's values, deterministically (an LCG on
/// the flat index — independent of the vendored RNG streams).
fn sparsify3(t: &mut Tensor3<i8>, z: f64, salt: u64) {
    let cut = (z * 65536.0) as u64;
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        let h = (i as u64 + 1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(salt)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        if (h >> 16) & 0xffff < cut {
            *v = 0;
        }
    }
}

fn sparsify4(t: &mut Tensor4<i8>, z: f64, salt: u64) {
    let cut = (z * 65536.0) as u64;
    for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
        let h = (i as u64 + 1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(salt)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9);
        if (h >> 16) & 0xffff < cut {
            *v = 0;
        }
    }
}

/// The pre-skip per-slot DWC loop: multiplies every slot and counts every
/// zero operand — the modeled hardware the engine must keep agreeing with.
fn dwc_reference(
    ifmap: &Tensor3<i8>,
    weights: &Tensor4<i8>,
    stride: usize,
    tn: usize,
    tm: usize,
    kernel: usize,
) -> (Tensor3<i32>, EngineActivity) {
    let (td, _, tc) = ifmap.shape();
    let mut acc = Tensor3::<i32>::zeros(td, tn, tm);
    let mut zero_act = 0u64;
    let mut zero_weight = 0u64;
    for c in 0..td {
        for kh in 0..kernel {
            for kw in 0..kernel {
                let w = i32::from(weights[(c, 0, kh, kw)]);
                zero_weight += u64::from(w == 0) * (tn * tm) as u64;
                for on in 0..tn {
                    for om in 0..tm {
                        let a = ifmap.as_slice()[c * ifmap.height() * tc
                            + (on * stride + kh) * tc
                            + (om * stride + kw)];
                        zero_act += u64::from(a == 0);
                        acc[(c, on, om)] += i32::from(a) * w;
                    }
                }
            }
        }
    }
    let activity = EngineActivity {
        mac_slots: (td * kernel * kernel * tn * tm) as u64,
        zero_act_slots: zero_act,
        zero_weight_slots: zero_weight,
    };
    (acc, activity)
}

/// The pre-skip per-slot PWC loop.
fn pwc_reference(ifmap: &Tensor3<i8>, weights: &Tensor4<i8>) -> (Tensor3<i32>, EngineActivity) {
    let (td, tn, tm) = ifmap.shape();
    let (tk, _, _, _) = weights.shape();
    let mut partial = Tensor3::<i32>::zeros(tk, tn, tm);
    for k in 0..tk {
        for c in 0..td {
            let w = i32::from(weights[(k, c, 0, 0)]);
            for n in 0..tn {
                for m in 0..tm {
                    partial[(k, n, m)] += i32::from(ifmap[(c, n, m)]) * w;
                }
            }
        }
    }
    let zero_act: u64 = ifmap.as_slice().iter().filter(|&&a| a == 0).count() as u64;
    let zero_weight: u64 = weights.as_slice().iter().filter(|&&w| w == 0).count() as u64;
    let activity = EngineActivity {
        mac_slots: (td * tk * tn * tm) as u64,
        zero_act_slots: zero_act * tk as u64,
        zero_weight_slots: zero_weight * (tn * tm) as u64,
    };
    (partial, activity)
}

#[test]
fn dwc_skip_is_bit_identical_to_per_slot_reference_at_every_sparsity() {
    let cfg = EdeaConfig::paper();
    let engine = DwcEngine::new(&cfg);
    for (case, z) in [0.0, 0.3, 0.6, 0.9, 0.974, 1.0].iter().enumerate() {
        for stride in [1usize, 2] {
            let side = stride + 3; // 4×4 at stride 1, 5×5 at stride 2
            let mut ifmap = rng::uniform_i8_tensor3(8, side, side, -128, 127, 100 + case as u64);
            let mut weights = rng::uniform_i8_tensor4(8, 1, 3, 3, -128, 127, 200 + case as u64);
            sparsify3(&mut ifmap, *z, 7 * case as u64);
            sparsify4(&mut weights, 0.2, 11 * case as u64); // quantized weights have zeros too
            let (out, out_activity) = dwc_tile(&engine, &ifmap, &weights, stride);
            let (acc, activity) = dwc_reference(&ifmap, &weights, stride, 2, 2, 3);
            assert_eq!(out, acc, "z={z} stride={stride}");
            assert_eq!(out_activity, activity, "z={z} stride={stride}");
            assert_eq!(out, depthwise_conv2d_i8(&ifmap, &weights, stride, 0));
        }
    }
}

#[test]
fn dwc_uncached_stride_fallback_matches_reference() {
    // Stride 3, beyond the paper's 1 and 2: the kernel must still skip
    // zeros bit-exactly and count identically.
    let cfg = EdeaConfig::paper();
    let engine = DwcEngine::new(&cfg);
    let mut ifmap = rng::uniform_i8_tensor3(8, 6, 6, -128, 127, 300);
    let weights = rng::uniform_i8_tensor4(8, 1, 3, 3, -128, 127, 301);
    sparsify3(&mut ifmap, 0.8, 13);
    let (out, out_activity) = dwc_tile(&engine, &ifmap, &weights, 3);
    let (acc, activity) = dwc_reference(&ifmap, &weights, 3, 2, 2, 3);
    assert_eq!(out, acc);
    assert_eq!(out_activity, activity);
    assert_eq!(out, depthwise_conv2d_i8(&ifmap, &weights, 3, 0));
}

#[test]
fn pwc_gated_and_ungated_match_per_slot_reference_at_every_sparsity() {
    let cfg = EdeaConfig::paper();
    let engine = PwcEngine::new(&cfg);
    for (case, z) in [0.0, 0.5, 0.953, 1.0].iter().enumerate() {
        let mut ifmap = rng::uniform_i8_tensor3(8, 2, 2, -128, 127, 400 + case as u64);
        let mut weights = rng::uniform_i8_tensor4(16, 8, 1, 1, -128, 127, 500 + case as u64);
        sparsify3(&mut ifmap, *z, 17 * case as u64);
        sparsify4(&mut weights, 0.25, 19 * case as u64);
        let (reference, activity) = pwc_reference(&ifmap, &weights);
        // One engine cycle: the portion kernel on the plan's
        // input-channel-major layout, with the zero-weight count taken
        // once per weight slice.
        let (partial, act) = pwc_portion(&engine, &ifmap, &weights);
        assert_eq!(partial, reference, "z={z}");
        assert_eq!(act, activity, "z={z}");
        assert_eq!(partial, pointwise_conv2d_i8(&ifmap, &weights));
    }
}

#[test]
fn activity_reports_modeled_slots_even_when_all_compute_is_skipped() {
    // An all-zero tile exercises every MAC slot in the modeled hardware —
    // all of them gated — even though the simulator multiplies nothing.
    let cfg = EdeaConfig::paper();
    let dwc = DwcEngine::new(&cfg);
    let pwc = PwcEngine::new(&cfg);
    let zeros3 = Tensor3::<i8>::zeros(8, 4, 4);
    let dwc_w = rng::uniform_i8_tensor4(8, 1, 3, 3, 1, 127, 600);
    let (acc, activity) = dwc_tile(&dwc, &zeros3, &dwc_w, 1);
    assert_eq!(activity.mac_slots, 288);
    assert_eq!(activity.zero_act_slots, 288);
    assert!(acc.as_slice().iter().all(|&v| v == 0));
    let zeros_pwc = Tensor3::<i8>::zeros(8, 2, 2);
    let pwc_w = rng::uniform_i8_tensor4(16, 8, 1, 1, 1, 127, 601);
    let (partial, activity) = pwc_portion(&pwc, &zeros_pwc, &pwc_w);
    assert_eq!(activity.mac_slots, 512);
    assert_eq!(activity.zero_act_slots, 512);
    assert!(partial.as_slice().iter().all(|&v| v == 0));
}

#[test]
fn portion_pwc_handles_dense_and_sparse_weight_tiles() {
    let cfg = EdeaConfig::paper();
    let engine = PwcEngine::new(&cfg);
    let ifmap = rng::uniform_i8_tensor3(8, 2, 2, 1, 127, 701);
    let dense = rng::uniform_i8_tensor4(16, 8, 1, 1, 1, 127, 700);
    let (out, act) = pwc_portion(&engine, &ifmap, &dense);
    assert_eq!(out, pointwise_conv2d_i8(&ifmap, &dense));
    assert_eq!(act.zero_weight_slots, 0);
    let mut sparse = dense.clone();
    sparse.as_mut_slice()[3] = 0; // lane 0, channel 3
    let (out, act) = pwc_portion(&engine, &ifmap, &sparse);
    assert_eq!(out, pointwise_conv2d_i8(&ifmap, &sparse));
    assert_eq!(act, pwc_reference(&ifmap, &sparse).1);
    assert_eq!(act.zero_weight_slots, 4); // one zero weight × 4 pixels
                                          // Depth beyond a 64-bit channel mask and more lanes than a 16-wide
                                          // tile: the portion kernel has no mask word to outgrow.
    let mut deep_cfg = cfg.clone();
    deep_cfg.tile.td = 72;
    let deep_engine = PwcEngine::new(&deep_cfg);
    let mut deep_in = rng::uniform_i8_tensor3(72, 2, 2, -128, 127, 702);
    sparsify3(&mut deep_in, 0.6, 3);
    let wide = rng::uniform_i8_tensor4(17, 72, 1, 1, -128, 127, 703);
    let (out, act) = pwc_portion(&deep_engine, &deep_in, &wide);
    assert_eq!(out, pointwise_conv2d_i8(&deep_in, &wide));
    assert_eq!(act, pwc_reference(&deep_in, &wide).1);
}

#[test]
fn shaped_network_outputs_and_activity_are_bit_identical_across_paths() {
    // End to end on the Fig.-11-shaped deployment: the planned run (weight
    // occupancy active) and the unplanned run must agree with the golden
    // executor on outputs and with each other on every activity count —
    // the skip machinery changes wall-clock only.
    let d = deploy(0.25, 91);
    let edea = paper_edea();
    let session = SimulatorBackend::new(edea.clone(), d.qnet.clone()).unwrap();
    let planned = session.run_network(&d.input).unwrap();
    let unplanned = edea.run_network(&d.qnet, &d.input).unwrap();
    let golden = executor::run_network(&d.qnet, &d.input);
    assert_eq!(planned.output, golden.output);
    assert_eq!(unplanned.output, golden.output);
    for (p, u) in planned.stats.layers.iter().zip(&unplanned.stats.layers) {
        assert_eq!(p.dwc_activity, u.dwc_activity, "layer {}", p.shape.index);
        assert_eq!(p.pwc_activity, u.pwc_activity, "layer {}", p.shape.index);
        // PWC slot accounting closes against the intermediate map: each
        // mid element feeds Tk adder trees per kernel tile = k_out slots,
        // so gated slots = (zero mid elements) × k_out.
        let mids = p.mid_zero * p.shape.intermediate_elems() as f64;
        assert_eq!(
            p.pwc_activity.zero_act_slots,
            (mids.round() as u64) * p.shape.k_out as u64,
            "layer {}",
            p.shape.index
        );
    }
}

/// `weights` `(K, Td, 1, 1)` transposed to the plan's input-channel-major
/// `Td × K` layout.
fn channel_major(weights: &Tensor4<i8>) -> Vec<i8> {
    let (k, td, _, _) = weights.shape();
    let mut out = vec![0i8; td * k];
    for ki in 0..k {
        for c in 0..td {
            out[c * k + ki] = weights[(ki, c, 0, 0)];
        }
    }
    out
}

/// Pixel-major `(rows, cols, K)` accumulators (a psum bank or the DWC's)
/// back to channel planes `(K, rows, cols)`.
fn channel_planes(psum: &[i32], k: usize, rows: usize, cols: usize) -> Tensor3<i32> {
    Tensor3::from_fn(k, rows, cols, |ki, r, c| psum[(r * cols + c) * k + ki])
}

/// One PWC portion-kernel call over `mid` `(Td, rows, cols)` with every
/// output channel of `weights`, returned channel-major.
fn pwc_portion(
    engine: &PwcEngine,
    mid: &Tensor3<i8>,
    weights: &Tensor4<i8>,
) -> (Tensor3<i32>, EngineActivity) {
    let (_, rows, cols) = mid.shape();
    let k = weights.shape().0;
    let wt = channel_major(weights);
    let mut psum = vec![0i32; rows * cols * k];
    let act = engine
        .accumulate_portion(mid, WeightSlice::new(&wt), &mut psum)
        .unwrap();
    (channel_planes(&psum, k, rows, cols), act)
}

/// The same work tile by tile: one PWC call per `Tn×Tm` spatial tile ×
/// `Tk` kernel tile, each partial pasted into its place.
fn pwc_by_tiles(
    engine: &PwcEngine,
    mid: &Tensor3<i8>,
    weights: &Tensor4<i8>,
) -> (Tensor3<i32>, EngineActivity) {
    let (td, rows, cols) = mid.shape();
    let k = weights.shape().0;
    let mut out = Tensor3::<i32>::zeros(k, rows, cols);
    let mut act = EngineActivity::default();
    let mut tile = Tensor3::<i8>::zeros(td, 2, 2);
    for r in (0..rows).step_by(2) {
        for c in (0..cols).step_by(2) {
            mid.copy_window_to_slice((0, r, c), tile.shape(), tile.as_mut_slice());
            for kt in (0..k).step_by(16) {
                let (partial, activity) = pwc_portion(engine, &tile, &weights.kernel_slice(kt, 16));
                out.paste_window(kt, r, c, &partial);
                act.merge(&activity);
            }
        }
    }
    (out, act)
}

/// One DWC portion-kernel call over `portion` of the unpadded 8-channel
/// input `window`; the accumulators are pixel-major `(rows, cols, 8)`.
fn dwc_portion(
    engine: &DwcEngine,
    window: &Tensor3<i8>,
    weights: &Tensor4<i8>,
    stride: usize,
    portion: &Portion,
) -> (Tensor3<i32>, EngineActivity) {
    let mut acc = Tensor3::<i32>::zeros(1, 1, 1);
    let act = engine
        .compute_portion_into(
            window,
            0,
            WeightSlice::new(weights.as_slice()),
            portion,
            stride,
            0,
            &mut acc,
        )
        .unwrap();
    (acc, act)
}

/// One DWC engine cycle: the portion kernel at the extent of the 2×2 tile
/// at the window's origin, its accumulators channel-major.
fn dwc_tile(
    engine: &DwcEngine,
    window: &Tensor3<i8>,
    weights: &Tensor4<i8>,
    stride: usize,
) -> (Tensor3<i32>, EngineActivity) {
    let (acc, act) = dwc_portion(engine, window, weights, stride, &tile_at(0, 0));
    (channel_planes(acc.as_slice(), 8, 2, 2), act)
}

/// The 2×2 output tile anchored at `(row0, col0)`.
fn tile_at(row0: usize, col0: usize) -> Portion {
    Portion {
        row0,
        col0,
        rows: 2,
        cols: 2,
    }
}

/// The same region tile by tile: one DWC call at the extent of each
/// `Tn×Tm` output tile, pasted into pixel-major `(rows, cols, 8)`.
fn dwc_by_tiles(
    engine: &DwcEngine,
    window: &Tensor3<i8>,
    weights: &Tensor4<i8>,
    stride: usize,
    (rows, cols): (usize, usize),
) -> (Tensor3<i32>, EngineActivity) {
    let mut out = Tensor3::<i32>::zeros(rows, cols, 8);
    let mut act = EngineActivity::default();
    for r in (0..rows).step_by(2) {
        for c in (0..cols).step_by(2) {
            let (t, a) = dwc_portion(engine, window, weights, stride, &tile_at(r, c));
            out.paste_window(r, c, 0, &t);
            act.merge(&a);
        }
    }
    (out, act)
}

/// Activation sparsities the portion cases draw from: dense, mid, the
/// Fig.-11 late-layer levels and all-zero.
const ACT_SPARSITY: [f64; 5] = [0.0, 0.5, 0.9, 0.97, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A `Dsc` stage's channel pass: DWC → Non-Conv #1 → PWC over a whole
    /// portion in three kernel calls equals the per-tile chain, in the
    /// accumulators, the intermediate slab, the psums and every activity
    /// count — for portion extents 2..=8, stride 1 and 2, activation
    /// sparsity up to all-zero and sparse weights.
    #[test]
    fn dsc_portion_kernels_equal_sum_of_tiles(
        extent in (1usize..=4, 1usize..=4),
        stride in 1usize..=2,
        sparsity in (0usize..5, 0usize..3),
        k_tiles in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let cfg = EdeaConfig::paper();
        let (dwc, pwc) = (DwcEngine::new(&cfg), PwcEngine::new(&cfg));
        let (rows, cols) = (2 * extent.0, 2 * extent.1);
        let (z, wz) = (ACT_SPARSITY[sparsity.0], [0.0, 0.3, 0.7][sparsity.1]);
        // A square window whose unused rows or columns sit past the
        // portion's last output.
        let side = (rows.max(cols) - 1) * stride + 3;
        let mut window = rng::uniform_i8_tensor3(8, side, side, -128, 127, seed);
        sparsify3(&mut window, z, seed);
        let mut dw = rng::uniform_i8_tensor4(8, 1, 3, 3, -128, 127, seed ^ 1);
        sparsify4(&mut dw, wz, seed ^ 2);
        let mut pw = rng::uniform_i8_tensor4(16 * k_tiles, 8, 1, 1, -128, 127, seed ^ 3);
        sparsify4(&mut pw, wz, seed ^ 4);
        let params: Vec<FoldedAffine> = (0..8)
            .map(|c| FoldedAffine::fold(0.5 + c as f64 * 0.1, c as f64 - 4.0, 0.05, 0.05, 0.1))
            .collect();

        let whole = Portion { row0: 0, col0: 0, rows, cols };
        let (acc, dwc_act) = dwc_portion(&dwc, &window, &dw, stride, &whole);
        let (tile_acc, tile_dwc_act) = dwc_by_tiles(&dwc, &window, &dw, stride, (rows, cols));
        prop_assert_eq!(&acc, &tile_acc);
        prop_assert_eq!(dwc_act, tile_dwc_act);
        let reference = depthwise_conv2d_i8(&window, &dw, stride, 0);
        let planes = channel_planes(acc.as_slice(), 8, rows, cols);
        prop_assert_eq!(&planes, &Tensor3::from_fn(8, rows, cols, |c, r, q| reference[(c, r, q)]));

        // Non-Conv #1 straight into a mid slab vs tile by tile.
        let mut mid = Tensor3::<i8>::zeros(8, rows, cols);
        NonConvUnit.apply(&acc, &params, 0, None, mid.as_mut_slice()).unwrap();
        let mut tile_mid = Tensor3::<i8>::zeros(8, rows, cols);
        let mut acc_tile = Tensor3::<i32>::zeros(2, 2, 8);
        let mut t = Tensor3::<i8>::zeros(8, 2, 2);
        for r in (0..rows).step_by(2) {
            for c in (0..cols).step_by(2) {
                tile_acc.copy_window_to_slice((r, c, 0), acc_tile.shape(), acc_tile.as_mut_slice());
                NonConvUnit.apply(&acc_tile, &params, 0, None, t.as_mut_slice()).unwrap();
                tile_mid.paste_window(0, r, c, &t);
            }
        }
        prop_assert_eq!(&mid, &tile_mid);

        let (psum, pwc_act) = pwc_portion(&pwc, &mid, &pw);
        let (tile_psum, tile_pwc_act) = pwc_by_tiles(&pwc, &mid, &pw);
        prop_assert_eq!(&psum, &tile_psum);
        prop_assert_eq!(pwc_act, tile_pwc_act);
        prop_assert_eq!(&psum, &pointwise_conv2d_i8(&mid, &pw));
    }

    /// A `PwcOnly` stage's channel pass: the PWC portion kernel fed
    /// straight from the input region equals the per-tile engine.
    #[test]
    fn pwc_only_portion_kernel_equals_sum_of_tiles(
        extent in (1usize..=4, 1usize..=4),
        sparsity in (0usize..5, 0usize..3),
        k_tiles in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let pwc = PwcEngine::new(&EdeaConfig::paper());
        let (rows, cols) = (2 * extent.0, 2 * extent.1);
        let mut input = rng::uniform_i8_tensor3(8, rows, cols, -128, 127, seed);
        sparsify3(&mut input, ACT_SPARSITY[sparsity.0], seed);
        let mut pw = rng::uniform_i8_tensor4(16 * k_tiles, 8, 1, 1, -128, 127, seed ^ 5);
        sparsify4(&mut pw, [0.0, 0.3, 0.7][sparsity.1], seed ^ 6);
        let (psum, act) = pwc_portion(&pwc, &input, &pw);
        let (tile_psum, tile_act) = pwc_by_tiles(&pwc, &input, &pw);
        prop_assert_eq!(&psum, &tile_psum);
        prop_assert_eq!(act, tile_act);
        prop_assert_eq!(act, pwc_reference(&input, &pw).1);
    }

    /// The last layers' shape: a one-tile portion (2×2 pixels) against
    /// K = 1024 output channels, 64 kernel tiles per call.
    #[test]
    fn one_tile_k1024_portion_equals_sum_of_tiles(
        sparsity in (0usize..5, 0usize..3),
        seed in any::<u64>(),
    ) {
        let pwc = PwcEngine::new(&EdeaConfig::paper());
        let mut mid = rng::uniform_i8_tensor3(8, 2, 2, -128, 127, seed);
        sparsify3(&mut mid, ACT_SPARSITY[sparsity.0], seed);
        let mut pw = rng::uniform_i8_tensor4(1024, 8, 1, 1, -128, 127, seed ^ 7);
        sparsify4(&mut pw, [0.0, 0.3, 0.7][sparsity.1], seed ^ 8);
        let (psum, act) = pwc_portion(&pwc, &mid, &pw);
        let (tile_psum, tile_act) = pwc_by_tiles(&pwc, &mid, &pw);
        prop_assert_eq!(&psum, &tile_psum);
        prop_assert_eq!(act, tile_act);
        prop_assert_eq!(act.mac_slots, 64 * 512);
    }
}

#[test]
fn portion_kernels_reject_partial_tiles() {
    let cfg = EdeaConfig::paper();
    let (dwc, pwc) = (DwcEngine::new(&cfg), PwcEngine::new(&cfg));
    let w = [1i8; 72];
    let mut acc = Tensor3::<i32>::zeros(1, 1, 1);
    let input = Tensor3::<i8>::zeros(8, 6, 6);
    let portion = |rows: usize, cols: usize| Portion {
        row0: 0,
        col0: 0,
        rows,
        cols,
    };
    let dwc_call =
        |input: &Tensor3<i8>, portion: &Portion, stride: usize, acc: &mut Tensor3<i32>| {
            dwc.compute_portion_into(input, 0, WeightSlice::new(&w), portion, stride, 0, acc)
        };
    // 3 output rows at stride 1 is not a whole number of 2-row tiles.
    assert!(dwc_call(&input, &portion(3, 2), 1, &mut acc).is_err());
    // 4 output rows at stride 2 read 9 rows of a 6×6 map.
    assert!(dwc_call(&input, &portion(4, 2), 2, &mut acc).is_err());
    // A map that is not square.
    let oblong = Tensor3::<i8>::zeros(8, 4, 5);
    assert!(dwc_call(&oblong, &portion(2, 2), 1, &mut acc).is_err());
    // The whole 6×6 map is two tiles each way at stride 1.
    assert!(dwc_call(&input, &portion(4, 4), 1, &mut acc).is_ok());
    // A 2×3 slab is not a whole number of 2×2 tiles, a 12-deep one not a
    // whole number of 8-deep channel passes; a psum bank of the wrong
    // size is refused.
    let pw = [1i8; 8 * 16];
    let mut psum = vec![0i32; 6 * 16];
    let slab =
        |d: usize, rows: usize, cols: usize| Tensor3::<i8>::from_fn(d, rows, cols, |_, _, _| 1);
    assert!(pwc
        .accumulate_portion(&slab(8, 2, 3), WeightSlice::new(&pw), &mut psum)
        .is_err());
    let mut deep = vec![0i32; 4 * 16];
    assert!(pwc
        .accumulate_portion(
            &slab(12, 2, 2),
            WeightSlice::new(&[1i8; 12 * 16]),
            &mut deep
        )
        .is_err());
    let mut short = vec![0i32; 4 * 16 - 1];
    assert!(pwc
        .accumulate_portion(&slab(8, 2, 2), WeightSlice::new(&pw), &mut short)
        .is_err());
}
