//! Tight-loop microbenchmarks of the engine kernels, isolating the
//! zero-skipping fast paths from the full simulator (whose end-to-end
//! timings on a shared host carry several percent of scheduler noise).
//!
//! Tile cases stream 256 pre-built tiles through a reused accumulator,
//! one portion-kernel call per tile — the kernels at the extent of one
//! engine cycle:
//!  - `dwc_dense`   — no zeros: the window staged into channel lanes and
//!    the lane-parallel MAC loop, behind one whole-window `all_zero`
//!    probe (the probe cost is the dense overhead).
//!  - `dwc_allzero` — every window zero: the whole-window skip, the
//!    common case at the Fig.-11 late layers (97.4 % element zeros).
//!  - `pwc_dense`   — dense activations.
//!  - `pwc_sparse`  — 6 of 8 channel rows zero.
//!
//! Whole-depth PWC cases time the accelerator's PWC step — one
//! `accumulate_portion` call over a portion's whole `D`-deep intermediate
//! slab with all `D × K` weights — at layer 6 (`pwc_depth_4x4_d512`, a
//! 4×4 portion, D = K = 512) and layer 12 (`pwc_depth_2x2_d1024`, the
//! one-tile portion, D = K = 1024), at those layers' traced `gated_frac`
//! on `forward_v1` (63 % and 81 % activation zeros). Each has a
//! `pwc_passes_*` control: the same kernel at `D = Td` once per channel
//! pass, into the same bank, on the same data.
//!
//! DWC portion cases time one `compute_portion_into` call — one channel
//! pass of one portion, over its unpadded input region read in place —
//! at each of the four MobileNetV1 DWC portion shapes with 60 % activation
//! zeros: `dwc_portion_8x8_s1` (layers 0, 2 and 4), `dwc_portion_8x8_s2`
//! (layers 1 and 3), `dwc_portion_4x4_s1` (layers 6–10) and
//! `dwc_portion_2x2_s1` (layer 12). A call is `8·9·side²` MACs, so the
//! median over that count is the kernel's ns per DWC MAC.
//!
//! Portion cases time one channel pass of one portion — the DWC over the
//! input region, then the PWC over every kernel tile into the psum bank —
//! once through the portion kernels (two calls) and once tile by tile
//! (the same kernels at one-tile extent: one DWC call per spatial tile,
//! one PWC call per spatial tile × kernel tile, each partial scattered
//! into the bank), on the same data — the per-call cost the portion
//! kernels remove:
//!  - `8x8_k512`  — a 64-pixel portion at K = 512, 60 % activation zeros
//!    (the widest portion the schedule cuts, at a mid-network K).
//!  - `2x2_k1024` — the one-tile portion of layer 12, K = 1024, 97 %
//!    activation zeros (Fig. 11's last layer).

use criterion::{criterion_group, criterion_main, Criterion};
use edea::core::engine::{DwcEngine, PwcEngine, WeightSlice};
use edea::core::schedule::Portion;
use edea::tensor::{rng, Tensor3, Tensor4};
use edea::EdeaConfig;
use std::hint::black_box;

const TILES: usize = 256;

/// Zeroes every element whose index hash falls below `z` of the range.
fn sparsify(values: &mut [i8], z: f64) {
    let cut = (z * 65536.0) as u64;
    for (i, v) in values.iter_mut().enumerate() {
        let h = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 48;
        if h < cut {
            *v = 0;
        }
    }
}

/// The `side × side` output rectangle at `(row0, col0)`.
fn square(row0: usize, col0: usize, side: usize) -> Portion {
    Portion {
        row0,
        col0,
        rows: side,
        cols: side,
    }
}

/// One channel pass of one `side × side` portion against `k` output
/// channels: the input region, the DWC taps, the intermediate slab and
/// the pointwise weights in both layouts.
struct PortionCase {
    side: usize,
    region: Tensor3<i8>,
    dw: Tensor4<i8>,
    mid: Tensor3<i8>,
    /// `(K, Td)` pointwise weights transposed to input-channel-major.
    pw_t: Vec<i8>,
    /// The same weights as one input-channel-major slice per kernel tile.
    kernel_tiles: Vec<Vec<i8>>,
}

impl PortionCase {
    fn new(side: usize, k: usize, zeros: f64, seed: u64) -> Self {
        let mut region = rng::uniform_i8_tensor3(8, side + 2, side + 2, -128, 127, seed);
        sparsify(region.as_mut_slice(), zeros);
        let dw = rng::uniform_i8_tensor4(8, 1, 3, 3, -128, 127, seed + 1);
        let mut mid = rng::uniform_i8_tensor3(8, side, side, -128, 127, seed + 2);
        sparsify(mid.as_mut_slice(), zeros);
        let pw = rng::uniform_i8_tensor4(k, 8, 1, 1, -128, 127, seed + 3);
        let by_channel = |k0: usize, n: usize| -> Vec<i8> {
            (0..8)
                .flat_map(|c| (k0..k0 + n).map(move |ki| (ki, c)))
                .map(|(ki, c)| pw[(ki, c, 0, 0)])
                .collect()
        };
        Self {
            side,
            region,
            dw,
            mid,
            pw_t: by_channel(0, k),
            kernel_tiles: (0..k / 16).map(|kt| by_channel(kt * 16, 16)).collect(),
        }
    }
}

fn bench_tile_kernels(c: &mut Criterion) {
    let smoke = edea_bench::smoke();
    let cfg = EdeaConfig::paper();
    let dwc = DwcEngine::new(&cfg);
    let pwc = PwcEngine::new(&cfg);

    let dw_weights = rng::uniform_i8_tensor4(8, 1, 3, 3, -128, 127, 11);
    let dw_dense: Vec<Tensor3<i8>> = (0..TILES)
        .map(|i| rng::uniform_i8_tensor3(8, 4, 4, 1, 127, 100 + i as u64))
        .collect();
    let dw_zero: Vec<Tensor3<i8>> = (0..TILES).map(|_| Tensor3::zeros(8, 4, 4)).collect();

    // A 16×8 kernel tile, input-channel-major.
    let pw_weights: Vec<i8> = rng::uniform_i8_tensor4(16, 8, 1, 1, -128, 127, 12)
        .as_slice()
        .to_vec();
    let pw_dense: Vec<Tensor3<i8>> = (0..TILES)
        .map(|i| rng::uniform_i8_tensor3(8, 2, 2, 1, 127, 500 + i as u64))
        .collect();
    // Channels 0..6 entirely zero — the shape of a Fig.-11 late-layer
    // tile.
    let pw_sparse: Vec<Tensor3<i8>> = pw_dense
        .iter()
        .map(|t| {
            let mut s = t.clone();
            s.as_mut_slice()[..6 * 4].fill(0);
            s
        })
        .collect();

    let mut g = c.benchmark_group("tile_kernels");
    g.sample_size(if smoke { 10 } else { 60 });

    let dw = WeightSlice::new(dw_weights.as_slice());
    let tile = square(0, 0, 2);
    let mut acc = Tensor3::<i32>::zeros(2, 2, 8);
    g.bench_function("dwc_dense_256_tiles", |b| {
        b.iter(|| {
            for t in &dw_dense {
                black_box(
                    dwc.compute_portion_into(t, 0, dw, &tile, 1, 0, &mut acc)
                        .unwrap(),
                );
            }
        });
    });
    g.bench_function("dwc_allzero_256_tiles", |b| {
        b.iter(|| {
            for t in &dw_zero {
                black_box(
                    dwc.compute_portion_into(t, 0, dw, &tile, 1, 0, &mut acc)
                        .unwrap(),
                );
            }
        });
    });

    for (side, stride) in [(8, 1), (8, 2), (4, 1), (2, 1)] {
        let extent = (side - 1) * stride + 3;
        let mut region = rng::uniform_i8_tensor3(8, extent, extent, -128, 127, 800 + side as u64);
        sparsify(region.as_mut_slice(), 0.6);
        let portion = square(0, 0, side);
        g.bench_function(&format!("dwc_portion_{side}x{side}_s{stride}"), |b| {
            b.iter(|| {
                black_box(
                    dwc.compute_portion_into(&region, 0, dw, &portion, stride, 0, &mut acc)
                        .unwrap(),
                )
            });
        });
    }

    // One 2×2 tile's psum bank against one 16-wide kernel tile, zeroed
    // before each cycle as a fresh bank would be.
    let mut partial = [0i32; 4 * 16];
    let pw_tile = WeightSlice::new(&pw_weights);
    g.bench_function("pwc_dense_256_tiles", |b| {
        b.iter(|| {
            for t in &pw_dense {
                partial.fill(0);
                black_box(pwc.accumulate_portion(t, pw_tile, &mut partial).unwrap());
            }
        });
    });
    g.bench_function("pwc_sparse_256_tiles", |b| {
        b.iter(|| {
            for t in &pw_sparse {
                partial.fill(0);
                black_box(pwc.accumulate_portion(t, pw_tile, &mut partial).unwrap());
            }
        });
    });

    for (name, side, d, zeros) in [("4x4_d512", 4, 512, 0.63), ("2x2_d1024", 2, 1024, 0.81)] {
        let mut mid = rng::uniform_i8_tensor3(d, side, side, -128, 127, 700 + d as u64);
        sparsify(mid.as_mut_slice(), zeros);
        let passes: Vec<Tensor3<i8>> = (0..d / 8).map(|ct| mid.channel_slice(ct * 8, 8)).collect();
        // D = K random weights, read input-channel-major, whole and per
        // pass.
        let pw = rng::uniform_i8_tensor4(d, d, 1, 1, -128, 127, 701 + d as u64);
        let whole = WeightSlice::new(pw.as_slice());
        let pass_slices: Vec<WeightSlice<'_>> = pw
            .as_slice()
            .chunks_exact(8 * d)
            .map(WeightSlice::new)
            .collect();
        let mut psum = vec![0i32; side * side * d];
        g.bench_function(&format!("pwc_depth_{name}"), |b| {
            b.iter(|| {
                psum.fill(0);
                black_box(pwc.accumulate_portion(&mid, whole, &mut psum).unwrap())
            });
        });
        g.bench_function(&format!("pwc_passes_{name}"), |b| {
            b.iter(|| {
                psum.fill(0);
                for (slab, &w) in passes.iter().zip(&pass_slices) {
                    black_box(pwc.accumulate_portion(slab, w, &mut psum).unwrap());
                }
            });
        });
    }

    for (name, case) in [
        ("8x8_k512", PortionCase::new(8, 512, 0.6, 900)),
        ("2x2_k1024", PortionCase::new(2, 1024, 0.97, 910)),
    ] {
        let (side, k) = (case.side, case.pw_t.len() / 8);
        let pix = side * side;
        let mut psum = vec![0i32; pix * k];
        // Zero counts are taken once, as the plan does.
        let dw_slice = WeightSlice::new(case.dw.as_slice());
        let pw_slice = WeightSlice::new(&case.pw_t);
        let tile_slices: Vec<WeightSlice<'_>> = case
            .kernel_tiles
            .iter()
            .map(|w| WeightSlice::new(w))
            .collect();
        let whole = square(0, 0, side);
        g.bench_function(&format!("portion_{name}"), |b| {
            b.iter(|| {
                black_box(
                    dwc.compute_portion_into(&case.region, 0, dw_slice, &whole, 1, 0, &mut acc)
                        .unwrap(),
                );
                psum.fill(0);
                black_box(
                    pwc.accumulate_portion(&case.mid, pw_slice, &mut psum)
                        .unwrap(),
                );
            });
        });
        let mut mid_tile = Tensor3::<i8>::zeros(8, 2, 2);
        g.bench_function(&format!("tiles_{name}"), |b| {
            b.iter(|| {
                psum.fill(0);
                for r in (0..side).step_by(2) {
                    for col in (0..side).step_by(2) {
                        let tile = square(r, col, 2);
                        black_box(
                            dwc.compute_portion_into(
                                &case.region,
                                0,
                                dw_slice,
                                &tile,
                                1,
                                0,
                                &mut acc,
                            )
                            .unwrap(),
                        );
                        case.mid.copy_window_to_slice(
                            (0, r, col),
                            mid_tile.shape(),
                            mid_tile.as_mut_slice(),
                        );
                        for (kt, &w) in tile_slices.iter().enumerate() {
                            partial.fill(0);
                            black_box(pwc.accumulate_portion(&mid_tile, w, &mut partial).unwrap());
                            for (p, sums) in partial.chunks_exact(16).enumerate() {
                                let at = ((r + p / 2) * side + col + p % 2) * k + kt * 16;
                                for (dst, &v) in psum[at..at + 16].iter_mut().zip(sums) {
                                    *dst += v;
                                }
                            }
                        }
                    }
                }
                black_box(&psum);
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_tile_kernels);
criterion_main!(benches);
