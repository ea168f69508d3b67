//! Property tests of the portion geometry: `Portion::input_region` halo
//! clipping must never underflow, must hand every portion exactly the
//! (clipped) halo window its output pixels read, and the portions of a
//! layer must together read **every** ifmap pixel — for stride-1 and
//! stride-2 layers and for out_spatial values the portion limit does not
//! divide.

use edea_core::schedule::portions;
use proptest::prelude::*;

/// `out = (in + 2·pad − kernel) / stride + 1`, as the workload defines it.
fn out_dim(in_spatial: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    (in_spatial + 2 * pad - kernel) / stride + 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any map size, stride and portion limit: every portion's input
    /// region is a valid in-bounds rectangle (no index underflow), it is
    /// exactly the brute-force union of the halo windows of the portion's
    /// output pixels (clipped to the map), and the regions of all
    /// portions together cover the whole ifmap.
    #[test]
    fn input_region_is_exact_and_portions_cover_the_ifmap(
        in_spatial in 2usize..=64,
        stride in 1usize..=2,
        limit in 1usize..=8,
    ) {
        let (kernel, pad) = (3usize, 1usize);
        let out = out_dim(in_spatial, kernel, stride, pad);
        prop_assume!(out >= 1);
        let mut covered = vec![false; in_spatial * in_spatial];
        for p in portions(out, limit) {
            let (r0, c0, rows, cols) = p.input_region(stride, kernel, pad, in_spatial);
            // A valid sub-rectangle: non-empty, in bounds, no wrap-around
            // from the saturating arithmetic.
            prop_assert!(rows >= 1 && cols >= 1, "empty region for {p:?}");
            prop_assert!(r0 + rows <= in_spatial, "{p:?} rows overflow");
            prop_assert!(c0 + cols <= in_spatial, "{p:?} cols overflow");
            // Brute force the rows/cols the portion's output pixels read.
            let needed = |o0: usize, n: usize| {
                let lo = (o0 * stride).saturating_sub(pad);
                let hi = ((o0 + n - 1) * stride + kernel - pad).min(in_spatial);
                (lo, hi)
            };
            let (nr0, nr1) = needed(p.row0, p.rows);
            let (nc0, nc1) = needed(p.col0, p.cols);
            prop_assert_eq!((r0, r0 + rows), (nr0, nr1), "row window of {:?}", p);
            prop_assert_eq!((c0, c0 + cols), (nc0, nc1), "col window of {:?}", p);
            for r in r0..r0 + rows {
                for c in c0..c0 + cols {
                    covered[r * in_spatial + c] = true;
                }
            }
        }
        prop_assert!(
            covered.iter().all(|&v| v),
            "portions do not cover the {in_spatial}×{in_spatial} ifmap"
        );
    }

    /// Stride-2 layers on *even* input maps (the shape MobileNet actually
    /// uses: the halo window starts mid-pixel) still cover the last input
    /// row and column.
    #[test]
    fn stride2_even_maps_cover_the_bottom_right_halo(half in 1usize..=32, limit in 1usize..=8) {
        let in_spatial = 2 * half;
        let out = out_dim(in_spatial, 3, 2, 1);
        let last = portions(out, limit)
            .into_iter()
            .map(|p| p.input_region(2, 3, 1, in_spatial))
            .map(|(r0, _, rows, _)| r0 + rows)
            .max()
            .expect("at least one portion");
        prop_assert_eq!(last, in_spatial);
    }

    /// The window math beyond the paper's 3×3/pad-1 case: over kernels
    /// 1/3/5, pads 0–3 (wider than the halo included) and strides 1–2,
    /// every portion's input region stays an in-bounds (possibly empty
    /// only when it lies wholly in the padding) rectangle — no index
    /// underflow from the saturating arithmetic — and matches the
    /// brute-force union of the halo windows of the portion's output
    /// pixels.
    #[test]
    fn generalized_input_regions_never_underflow_and_are_exact(
        in_spatial in 4usize..=48,
        kernel_idx in 0usize..3,
        stride in 1usize..=2,
        pad in 0usize..=3,
        limit in 1usize..=8,
    ) {
        let kernel = [1usize, 3, 5][kernel_idx];
        prop_assume!(in_spatial + 2 * pad >= kernel);
        let out = out_dim(in_spatial, kernel, stride, pad);
        for p in portions(out, limit) {
            let (r0, c0, rows, cols) = p.input_region(stride, kernel, pad, in_spatial);
            // In bounds, no wrap-around.
            prop_assert!(r0 + rows <= in_spatial, "{p:?} rows overflow");
            prop_assert!(c0 + cols <= in_spatial, "{p:?} cols overflow");
            prop_assert!(r0 <= in_spatial && c0 <= in_spatial, "{p:?} origin escapes");
            // Brute-force the clipped union of the halo windows.
            let needed = |o0: usize, n: usize| {
                let lo = (o0 * stride).saturating_sub(pad).min(in_spatial);
                let hi = ((o0 + n - 1) * stride + kernel)
                    .saturating_sub(pad)
                    .min(in_spatial);
                (lo, hi.max(lo))
            };
            let (nr0, nr1) = needed(p.row0, p.rows);
            let (nc0, nc1) = needed(p.col0, p.cols);
            prop_assert_eq!((r0, r0 + rows), (nr0, nr1), "row window of {:?}", p);
            prop_assert_eq!((c0, c0 + cols), (nc0, nc1), "col window of {:?}", p);
        }
    }

    /// Portion geometry covers the ofmap exactly — the portion edges
    /// partition `out × out` for any stride, kernel, pad and portion limit
    /// `LayerShape` can describe — and the MAC/param model scales
    /// linearly in the channel count, never in the spatial partition.
    #[test]
    fn generalized_shapes_partition_the_ofmap_and_scale_channels(
        in_spatial in 4usize..=48,
        stride in 1usize..=2,
        kernel_idx in 0usize..3,
        pad in 0usize..=3,
        channels in 1usize..=4,
        limit in 1usize..=8,
    ) {
        use edea_nn::workload::LayerShape;
        let kernel = [1usize, 3, 5][kernel_idx];
        let mut s = LayerShape::dsc(0, in_spatial, 8 * channels, 16, stride, kernel);
        s.pad = pad;
        prop_assume!(in_spatial + 2 * pad >= kernel);
        let out = s.out_spatial();
        prop_assert_eq!(out, out_dim(in_spatial, kernel, stride, pad));
        // Exact cover of the ofmap, no overlap.
        let mut covered = vec![false; out * out];
        for p in portions(out, limit) {
            for r in p.row0..p.row0 + p.rows {
                for c in p.col0..p.col0 + p.cols {
                    prop_assert!(!covered[r * out + c], "overlap at ({r},{c})");
                    covered[r * out + c] = true;
                }
            }
        }
        prop_assert!(covered.iter().all(|&v| v), "portions miss ofmap pixels");
        // The channel axis: input channels multiply DWC kernels, MACs and
        // params and the PWC's input depth, and nothing spatial.
        let base = LayerShape { d_in: 8, ..s };
        let c = channels as u64;
        prop_assert_eq!(s.out_spatial(), base.out_spatial());
        prop_assert_eq!(s.dwc_macs(), base.dwc_macs() * c);
        prop_assert_eq!(s.dwc_params(), base.dwc_params() * c);
        prop_assert_eq!(s.pwc_macs(), base.pwc_macs() * c);
        prop_assert_eq!(s.intermediate_elems(), base.intermediate_elems() * c);
    }
}
