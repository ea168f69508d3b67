//! Tile/portion iteration of the chosen dataflow.
//!
//! The DSE selected `La` with `Tn = Tm = 2`, `Td = 8`, `Tk = 16`; the
//! realized hardware additionally splits large feature maps into spatial
//! **portions** (ifmap-buffer constraint) and, thanks to the intermediate
//! buffer, runs the kernel loop innermost at tile granularity (Fig. 7):
//!
//! ```text
//! for portion in portions(ofmap):          # ≤ 8×8 ofmap pixels
//!   for ct in 0..⌈D/Td⌉:                   # channel passes
//!     (9-cycle initiation: load ifmap slice, weights, offline params)
//!     for st in spatial_tiles(portion):    # 2×2 ofmap each
//!       DWC tile → Non-Conv → intermediate buffer     (1 cycle)
//!       for kt in 0..⌈K/Tk⌉:               # kernel tiles
//!         PWC tile → psum[st][kt] += …                (1 cycle each)
//!   drain psums → Non-Conv → output                   (overlapped)
//! ```
//!
//! # Batched schedule
//!
//! For multi-image inference the nest gains an image loop *inside* the
//! channel pass, so every external weight fetch — the layer's DWC kernels
//! and offline parameters, and the per-pass PWC weight slice — stays
//! resident and serves the whole batch ([`WeightResidency::PerBatch`]):
//!
//! ```text
//! for portion in portions(ofmap):
//!   for ct in 0..⌈D/Td⌉:
//!     load DWC weight slice + offline params + PWC weight slice   (once)
//!     for img in 0..N:                     # batch loop
//!       load img's ifmap slice (per-image initiation)
//!       for st in spatial_tiles(portion):  # as in the per-image nest
//!         …
//!   drain each image's psums → Non-Conv → output
//! ```
//!
//! Ifmap reads and ofmap writes remain per-image; weight traffic is paid
//! once per batch. The cost is psum SRAM: each in-flight image holds its
//! own psum residency per portion (see [`crate::buffer::check_capacity`]).

use crate::config::EdeaConfig;
use crate::CoreError;
use edea_nn::workload::{LayerShape, StageOp};

/// Checks that one layer shape maps onto the engine geometry: channels a
/// multiple of `Td`, kernels of `Tk`, output size of `Tn`, and a `Dsc`
/// stage's kernel equal to the engine's depthwise kernel. The shape-only
/// rules of [`LayerShape::check`] run first, so the output size is
/// defined. The single source of this rule — the accelerator's per-layer
/// check and [`crate::serve::CostModel::for_network`] both delegate here.
///
/// # Errors
///
/// [`CoreError::UnsupportedShape`] naming the violated constraint.
pub fn check_layer_geometry(s: &LayerShape, cfg: &EdeaConfig) -> Result<(), CoreError> {
    s.check().map_err(|e| CoreError::UnsupportedShape {
        detail: e.to_string(),
    })?;
    let t = &cfg.tile;
    if s.d_in % t.td != 0 {
        return Err(CoreError::UnsupportedShape {
            detail: format!(
                "layer {}: d_in {} not a multiple of Td {}",
                s.index, s.d_in, t.td
            ),
        });
    }
    if s.k_out % t.tk != 0 {
        return Err(CoreError::UnsupportedShape {
            detail: format!(
                "layer {}: k_out {} not a multiple of Tk {}",
                s.index, s.k_out, t.tk
            ),
        });
    }
    if s.out_spatial() % t.tn != 0 {
        return Err(CoreError::UnsupportedShape {
            detail: format!(
                "layer {}: output size {} not a multiple of Tn {}",
                s.index,
                s.out_spatial(),
                t.tn
            ),
        });
    }
    if s.op == StageOp::Dsc && s.kernel != t.kernel {
        return Err(CoreError::UnsupportedShape {
            detail: format!(
                "layer {}: kernel {} != engine kernel {}",
                s.index, s.kernel, t.kernel
            ),
        });
    }
    Ok(())
}

/// When external weight/parameter fetches are (re)paid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightResidency {
    /// Every image re-fetches all weight tiles — the per-image baseline.
    #[default]
    PerImage,
    /// Weight tiles are fetched once and stay resident across the batch.
    PerBatch,
}

/// External offline-parameter bytes one image's layer execution fetches:
/// two 24-bit `(k, b)` words per channel at each Non-Conv boundary the
/// stage actually crosses. A `Dsc` stage pays both boundaries (the
/// DWC-side set covers its `d_in` depthwise output channels); a `PwcOnly`
/// stage has no DWC-side Non-Conv, so only the output-side set is fetched.
#[must_use]
pub fn layer_param_fetch_bytes(shape: &LayerShape) -> u64 {
    match shape.op {
        StageOp::Dsc => 6 * (shape.d_in + shape.k_out) as u64,
        StageOp::PwcOnly => 6 * shape.k_out as u64,
    }
}

/// A spatial portion: a rectangle of ofmap pixels processed with one psum
/// residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Portion {
    /// First ofmap row.
    pub row0: usize,
    /// First ofmap column.
    pub col0: usize,
    /// Rows of ofmap pixels.
    pub rows: usize,
    /// Columns of ofmap pixels.
    pub cols: usize,
}

impl Portion {
    /// Ofmap pixels in this portion.
    #[must_use]
    pub fn pixels(&self) -> usize {
        self.rows * self.cols
    }

    /// The ifmap region this portion reads (in *unpadded* ifmap
    /// coordinates, clipped to the map): returns
    /// `(row0, col0, rows, cols)` of the input window including halo.
    /// Underflow below the map is clipped to zero, overflow to
    /// `in_spatial`, and a window lying wholly in the padding (a pad wider
    /// than the kernel's halo) clips to an empty region — the region never
    /// escapes the real map (proven by the `schedule_properties` suite).
    #[must_use]
    pub fn input_region(
        &self,
        stride: usize,
        kernel: usize,
        pad: usize,
        in_spatial: usize,
    ) -> (usize, usize, usize, usize) {
        // Padded-coordinate window: [row0*stride, row0*stride + (rows-1)*stride + kernel)
        let r0p = self.row0 * stride;
        let c0p = self.col0 * stride;
        let rows_p = (self.rows - 1) * stride + kernel;
        let cols_p = (self.cols - 1) * stride + kernel;
        let r1 = (r0p + rows_p).saturating_sub(pad).min(in_spatial);
        let c1 = (c0p + cols_p).saturating_sub(pad).min(in_spatial);
        let r0 = r0p.saturating_sub(pad).min(r1);
        let c0 = c0p.saturating_sub(pad).min(c1);
        (r0, c0, r1 - r0, c1 - c0)
    }
}

/// A spatial tile inside a portion: `Tn×Tm` ofmap pixels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpatialTile {
    /// First ofmap row.
    pub row0: usize,
    /// First ofmap column.
    pub col0: usize,
}

/// Splits an `out_spatial × out_spatial` ofmap into portions of at most
/// `limit × limit` pixels (row-major).
#[must_use]
pub fn portions(out_spatial: usize, limit: usize) -> Vec<Portion> {
    let iter = portion_iter(out_spatial, limit);
    // Sized up front: a flat map's size hint starts at zero, so a collect
    // would regrow the list.
    let side = out_spatial.div_ceil(limit);
    let mut list = Vec::with_capacity(side * side);
    list.extend(iter);
    list
}

/// [`portions`] without the allocation.
pub(crate) fn portion_iter(out_spatial: usize, limit: usize) -> impl Iterator<Item = Portion> {
    let spans = crate::timing::portion_spans(out_spatial, limit);
    spans.clone().flat_map(move |(row0, rows)| {
        spans.clone().map(move |(col0, cols)| Portion {
            row0,
            col0,
            rows,
            cols,
        })
    })
}

/// Spatial tiles of a portion, row-major, each anchored at a multiple of
/// `(Tn, Tm)` relative to the portion origin.
#[must_use]
pub fn spatial_tiles(p: &Portion, cfg: &EdeaConfig) -> Vec<SpatialTile> {
    let mut tiles = Vec::new();
    let mut r = 0;
    while r < p.rows {
        let mut c = 0;
        while c < p.cols {
            tiles.push(SpatialTile {
                row0: p.row0 + r,
                col0: p.col0 + c,
            });
            c += cfg.tile.tm;
        }
        r += cfg.tile.tn;
    }
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> EdeaConfig {
        EdeaConfig::paper()
    }

    #[test]
    fn geometry_check_is_op_aware() {
        // A well-formed Dsc stage and a well-formed PwcOnly stage pass.
        let dsc = LayerShape::dsc(0, 16, 8, 16, 1, 3);
        check_layer_geometry(&dsc, &cfg()).unwrap();
        let pwc = LayerShape::pwc(1, 16, 8, 16);
        check_layer_geometry(&pwc, &cfg()).unwrap();

        // A malformed stage is rejected with a typed error naming the
        // constraint.
        let reject = |s: &LayerShape, needle: &str| {
            let err = check_layer_geometry(s, &cfg()).unwrap_err();
            match err {
                CoreError::UnsupportedShape { detail } => {
                    assert!(detail.contains(needle), "{detail:?} missing {needle:?}");
                }
                other => panic!("expected UnsupportedShape, got {other:?}"),
            }
        };
        let mut wide = dsc;
        wide.kernel = 5;
        wide.pad = 2;
        reject(&wide, "engine kernel");
        // A PwcOnly stage that is not 1×1 stride-1 unpadded is malformed.
        let mut strided = pwc;
        strided.in_spatial = 32;
        strided.stride = 2;
        reject(&strided, "PwcOnly");
    }

    #[test]
    fn pwc_only_param_fetch_skips_the_dwc_side() {
        // Dsc offline params cover both Non-Conv stages (6 bytes per
        // channel each side); a PwcOnly stage has no DWC-side Non-Conv.
        let dsc = LayerShape::dsc(0, 16, 8, 16, 1, 3);
        assert_eq!(layer_param_fetch_bytes(&dsc), 6 * (8 + 16));
        let pwc = LayerShape::pwc(1, 16, 8, 16);
        assert_eq!(layer_param_fetch_bytes(&pwc), 6 * 16);
    }

    #[test]
    fn portions_tile_the_plane_disjointly() {
        for n in [2usize, 4, 8, 16, 32] {
            let ps = portions(n, 8);
            let mut covered = vec![false; n * n];
            for p in &ps {
                for r in p.row0..p.row0 + p.rows {
                    for c in p.col0..p.col0 + p.cols {
                        assert!(!covered[r * n + c], "overlap at ({r},{c})");
                        covered[r * n + c] = true;
                    }
                }
            }
            assert!(covered.iter().all(|&v| v), "n={n} not fully covered");
        }
    }

    #[test]
    fn portion_counts_match_timing_model() {
        use edea_nn::workload::mobilenet_v1_cifar10;
        for l in mobilenet_v1_cifar10() {
            let ps = portions(l.out_spatial(), cfg().portion_limit);
            let breakdown = crate::timing::layer_cycles(&l, &cfg());
            assert_eq!(ps.len() as u64, breakdown.portions, "layer {}", l.index);
            let tiles: u64 = ps
                .iter()
                .map(|p| spatial_tiles(p, &cfg()).len() as u64)
                .sum();
            assert_eq!(tiles, breakdown.spatial_tiles, "layer {}", l.index);
        }
    }

    #[test]
    fn spatial_tiles_are_2x2_anchored() {
        let p = Portion {
            row0: 8,
            col0: 0,
            rows: 8,
            cols: 8,
        };
        let tiles = spatial_tiles(&p, &cfg());
        assert_eq!(tiles.len(), 16);
        assert_eq!(tiles[0], SpatialTile { row0: 8, col0: 0 });
        assert_eq!(tiles[1], SpatialTile { row0: 8, col0: 2 });
        assert_eq!(tiles[4], SpatialTile { row0: 10, col0: 0 });
    }

    #[test]
    fn input_region_stride1_includes_halo() {
        // 8×8 ofmap portion at origin, stride 1, 3×3 kernel, pad 1 on a
        // 32×32 map: reads rows −1..9 clipped to 0..9.
        let p = Portion {
            row0: 0,
            col0: 0,
            rows: 8,
            cols: 8,
        };
        let (r0, c0, rows, cols) = p.input_region(1, 3, 1, 32);
        assert_eq!((r0, c0), (0, 0));
        assert_eq!((rows, cols), (9, 9));
        // An interior portion sees the full 10×10 halo window.
        let p = Portion {
            row0: 8,
            col0: 8,
            rows: 8,
            cols: 8,
        };
        let (r0, c0, rows, cols) = p.input_region(1, 3, 1, 32);
        assert_eq!((r0, c0), (7, 7));
        assert_eq!((rows, cols), (10, 10));
    }

    #[test]
    fn input_region_stride2() {
        // 8×8 ofmap portion, stride 2: input window 17×17 (clipped at map
        // edges).
        let p = Portion {
            row0: 0,
            col0: 0,
            rows: 8,
            cols: 8,
        };
        let (_, _, rows, cols) = p.input_region(2, 3, 1, 32);
        assert_eq!((rows, cols), (16, 16)); // left/top clipped by pad
        let p = Portion {
            row0: 8,
            col0: 8,
            rows: 8,
            cols: 8,
        };
        let (r0, c0, rows, cols) = p.input_region(2, 3, 1, 32);
        assert_eq!((r0, c0), (15, 15));
        assert_eq!((rows, cols), (17, 17));
    }

    #[test]
    fn batched_weight_fetches_amortize_exactly() {
        use edea_nn::workload::mobilenet_v1_cifar10;
        for l in mobilenet_v1_cifar10() {
            let fetched = |n, residency| {
                let e = crate::stats::layer_ledger(&l, &cfg(), n, residency).external;
                e.weight_reads + e.param_reads
            };
            let one = fetched(1, WeightResidency::PerBatch);
            for n in [1usize, 2, 4, 8, 16] {
                // Resident weights: independent of N.
                assert_eq!(
                    fetched(n, WeightResidency::PerBatch),
                    one,
                    "layer {} n={n}",
                    l.index
                );
                // Baseline: exactly N×.
                assert_eq!(
                    fetched(n, WeightResidency::PerImage),
                    n as u64 * one,
                    "layer {} n={n}",
                    l.index
                );
            }
        }
    }

    #[test]
    fn small_maps_are_single_portions() {
        let ps = portions(2, 8);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].pixels(), 4);
        assert_eq!(spatial_tiles(&ps[0], &cfg()).len(), 1);
    }
}
