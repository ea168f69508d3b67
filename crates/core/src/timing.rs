//! Analytic latency/throughput model (paper Eq. 1, Eq. 2, Figs. 10 & 13).
//!
//! The schedule (Fig. 7): the ofmap is split into spatial **portions** of at
//! most `portion_limit × portion_limit` output pixels (ifmap-buffer
//! constraint, Eq. 2's "number of tiled ifmaps"). For every channel tile
//! (`⌈D/Td⌉` passes) and every portion, the pipeline pays the
//! 9-cycle initiation, then retires one PWC tile per cycle:
//!
//! ```text
//! Lat_tile  = (9 + ⌈N'/Tn⌉·⌈M'/Tm⌉·⌈K/Tk⌉) · T      (Eq. 1, portion N'×M')
//! Lat_total = Σ_portions Lat_tile · ⌈D/Td⌉           (Eq. 2)
//! ```
//!
//! With the paper's parameters this reproduces Fig. 13 exactly:
//! 1024 GOPS for layers 0–4, 973.5 for layers 5–10, 905.6 for layers 11–12.

use edea_nn::workload::{LayerShape, StageOp};

use crate::config::EdeaConfig;

/// Spatial portion sizes (ofmap rows/cols) for a layer under a portion
/// limit: the map is split into `⌈N/limit⌉` chunks per dimension, each of at
/// most `limit` pixels.
#[must_use]
pub fn portion_edges(out_spatial: usize, limit: usize) -> Vec<usize> {
    portion_spans(out_spatial, limit)
        .map(|(_, len)| len)
        .collect()
}

/// `(offset, size)` of each portion edge along one ofmap dimension —
/// [`portion_edges`] without the allocation, so per-layer accounting on
/// the hot path stays allocation-free.
pub(crate) fn portion_spans(
    out_spatial: usize,
    limit: usize,
) -> impl Iterator<Item = (usize, usize)> + Clone {
    assert!(limit > 0, "portion limit must be positive");
    (0..out_spatial.div_ceil(limit)).map(move |i| (i * limit, limit.min(out_spatial - i * limit)))
}

/// Cycle-level breakdown of one layer's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Number of spatial portions `P`.
    pub portions: u64,
    /// Channel passes `⌈D/Td⌉`.
    pub channel_passes: u64,
    /// Spatial tiles over the whole ofmap.
    pub spatial_tiles: u64,
    /// Kernel tiles `⌈K/Tk⌉`.
    pub kernel_tiles: u64,
    /// Total initiation cycles (`init · P · passes`).
    pub init: u64,
    /// Cycles the PWC engine is busy (`S_total · Kt · passes`).
    pub pwc_busy: u64,
    /// Cycles the DWC engine is busy (`S_total · passes`).
    pub dwc_busy: u64,
}

impl CycleBreakdown {
    /// Total cycles: initiation + PWC busy (the PWC is the steady-state
    /// bottleneck; DWC work is fully hidden under it).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.init + self.pwc_busy
    }

    /// DWC engine active fraction ("more idle time due to fewer MAC
    /// operations", Sec. III-D).
    #[must_use]
    pub fn dwc_utilization(&self) -> f64 {
        self.dwc_busy as f64 / self.total() as f64
    }

    /// PWC engine active fraction.
    #[must_use]
    pub fn pwc_utilization(&self) -> f64 {
        self.pwc_busy as f64 / self.total() as f64
    }

    /// Fraction of cycles spent in initiation — the term that grows for the
    /// small late layers (Fig. 10's latency uptick).
    #[must_use]
    pub fn init_fraction(&self) -> f64 {
        self.init as f64 / self.total() as f64
    }
}

/// Computes the cycle breakdown of a layer (Eq. 1 + Eq. 2).
///
/// A [`StageOp::PwcOnly`] stage (the 1×1 expand/project convolutions of an
/// inverted-residual block) bypasses the DWC engine entirely: the PWC is
/// fed straight from the ifmap buffer, so `dwc_busy` is zero while the
/// initiation and PWC terms keep the identical form — the total is still
/// `init + pwc_busy`.
///
/// # Panics
///
/// Panics if the layer kernel does not match the configuration (`Dsc`
/// stages must match the engine kernel; `PwcOnly` stages must be 1×1).
#[must_use]
pub fn layer_cycles(shape: &LayerShape, cfg: &EdeaConfig) -> CycleBreakdown {
    match shape.op {
        StageOp::Dsc => assert_eq!(shape.kernel, cfg.tile.kernel, "kernel mismatch"),
        StageOp::PwcOnly => assert_eq!(shape.kernel, 1, "PwcOnly stages are 1x1"),
    }
    let n = shape.out_spatial();
    let spans = portion_spans(n, cfg.portion_limit);
    let kernel_tiles = shape.k_out.div_ceil(cfg.tile.tk) as u64;
    let channel_passes = shape.d_in.div_ceil(cfg.tile.td) as u64;
    let mut portions = 0u64;
    let mut spatial_tiles = 0u64;
    for (_, rows) in spans.clone() {
        for (_, cols) in spans.clone() {
            portions += 1;
            spatial_tiles += (rows.div_ceil(cfg.tile.tn) * cols.div_ceil(cfg.tile.tm)) as u64;
        }
    }
    CycleBreakdown {
        portions,
        channel_passes,
        spatial_tiles,
        kernel_tiles,
        init: cfg.init_cycles * portions * channel_passes,
        pwc_busy: spatial_tiles * kernel_tiles * channel_passes,
        dwc_busy: match shape.op {
            StageOp::Dsc => spatial_tiles * channel_passes,
            StageOp::PwcOnly => 0,
        },
    }
}

/// Eq. 1 evaluated for one portion of `rows×cols` ofmap pixels, in cycles.
#[must_use]
pub fn eq1_tile_latency_cycles(rows: usize, cols: usize, k_out: usize, cfg: &EdeaConfig) -> u64 {
    cfg.init_cycles
        + (rows.div_ceil(cfg.tile.tn) * cols.div_ceil(cfg.tile.tm) * k_out.div_ceil(cfg.tile.tk))
            as u64
}

/// Layer latency in nanoseconds at the configured clock.
#[must_use]
pub fn layer_latency_ns(shape: &LayerShape, cfg: &EdeaConfig) -> f64 {
    layer_cycles(shape, cfg).total() as f64 * cfg.period_ns()
}

/// Layer throughput in GOPS (2 ops per MAC; Fig. 13).
#[must_use]
pub fn layer_throughput_gops(shape: &LayerShape, cfg: &EdeaConfig) -> f64 {
    shape.total_ops() as f64 / layer_latency_ns(shape, cfg)
}

/// Network-level timing summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkTiming {
    /// Sum of per-layer latencies (ns).
    pub total_latency_ns: f64,
    /// Total operations.
    pub total_ops: u64,
    /// Ops-weighted average throughput (GOPS).
    pub average_gops: f64,
    /// Highest per-layer throughput (GOPS) — the paper's "peak throughput".
    pub peak_gops: f64,
}

/// Summarizes timing over a layer stack.
///
/// # Panics
///
/// Panics if `layers` is empty.
#[must_use]
pub fn network_timing(layers: &[LayerShape], cfg: &EdeaConfig) -> NetworkTiming {
    assert!(!layers.is_empty(), "empty layer stack");
    let mut total_latency = 0.0;
    let mut total_ops = 0u64;
    let mut peak: f64 = 0.0;
    for l in layers {
        total_latency += layer_latency_ns(l, cfg);
        total_ops += l.total_ops();
        peak = peak.max(layer_throughput_gops(l, cfg));
    }
    NetworkTiming {
        total_latency_ns: total_latency,
        total_ops,
        average_gops: total_ops as f64 / total_latency,
        peak_gops: peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edea_nn::workload::mobilenet_v1_cifar10;

    fn cfg() -> EdeaConfig {
        EdeaConfig::paper()
    }

    /// Per-layer latencies in ns derived from Eq. 1/Eq. 2 — the series
    /// behind paper Fig. 10 (1 cycle = 1 ns at 1 GHz).
    const GOLDEN_LATENCY_NS: [u64; 13] = [
        4672, 4384, 8768, 4240, 8480, 4384, 8768, 8768, 8768, 8768, 8768, 4672, 9344,
    ];

    #[test]
    fn golden_latencies_fig10() {
        let layers = mobilenet_v1_cifar10();
        for (l, &want) in layers.iter().zip(&GOLDEN_LATENCY_NS) {
            let got = layer_cycles(l, &cfg()).total();
            assert_eq!(got, want, "layer {}", l.index);
        }
    }

    #[test]
    fn pwc_only_stages_never_occupy_the_dwc_engine() {
        // Inverted-residual expansions bypass the DWC engine entirely:
        // zero DWC-busy cycles, and Eq. 1 degenerates to init + pwc_busy.
        use edea_nn::workload::mobilenet_v2_cifar10;
        let v2 = mobilenet_v2_cifar10();
        let mut saw_pwc_only = false;
        for l in &v2 {
            let b = layer_cycles(l, &cfg());
            if l.op == edea_nn::workload::StageOp::PwcOnly {
                saw_pwc_only = true;
                assert_eq!(b.dwc_busy, 0, "layer {}", l.index);
            } else {
                assert!(b.dwc_busy > 0, "layer {}", l.index);
            }
            assert_eq!(b.total(), b.init + b.pwc_busy, "layer {}", l.index);
            assert!(b.pwc_busy > 0, "layer {}", l.index);
        }
        assert!(saw_pwc_only, "v2 should contain PwcOnly stages");
    }

    #[test]
    fn golden_throughput_fig13() {
        // Paper Fig. 13: 1024 GOPS (layers 0–4), 973.5 (5–10), 905.6 (11–12).
        let layers = mobilenet_v1_cifar10();
        let want = [
            1024.0, 1024.0, 1024.0, 1024.0, 1024.0, 973.5, 973.5, 973.5, 973.5, 973.5, 973.5,
            905.6, 905.6,
        ];
        for (l, w) in layers.iter().zip(want) {
            let got = layer_throughput_gops(l, &cfg());
            assert!((got - w).abs() < 0.1, "layer {}: {got} vs {w}", l.index);
        }
    }

    #[test]
    fn average_throughput_matches_paper() {
        // Paper: average throughput 981.42 GOPS over all DSC layers. The
        // ops-weighted average lands at 979.9; the arithmetic mean of the
        // per-layer values at 982.5 — the paper's number sits between.
        let layers = mobilenet_v1_cifar10();
        let t = network_timing(&layers, &cfg());
        assert!((t.average_gops - 979.9).abs() < 0.5, "{}", t.average_gops);
        let mean: f64 = layers
            .iter()
            .map(|l| layer_throughput_gops(l, &cfg()))
            .sum::<f64>()
            / layers.len() as f64;
        assert!((mean - 982.5).abs() < 1.0, "{mean}");
        assert!(t.average_gops < 981.42 && 981.42 < mean + 1.5);
    }

    #[test]
    fn peak_throughput_is_1024() {
        let layers = mobilenet_v1_cifar10();
        let t = network_timing(&layers, &cfg());
        assert!((t.peak_gops - 1024.0).abs() < 1e-9);
    }

    #[test]
    fn eq1_matches_paper_form() {
        // Layer 12: whole 2×2 map is one portion; Eq. 1 gives
        // (9 + 1·1·64)·T = 73 cycles; Eq. 2 multiplies by D/Td = 128.
        let l12 = mobilenet_v1_cifar10()[12];
        assert_eq!(eq1_tile_latency_cycles(2, 2, 1024, &cfg()), 73);
        assert_eq!(layer_cycles(&l12, &cfg()).total(), 73 * 128);
    }

    #[test]
    fn portion_edges_cover_exactly() {
        assert_eq!(portion_edges(32, 8), vec![8, 8, 8, 8]);
        assert_eq!(portion_edges(8, 8), vec![8]);
        assert_eq!(portion_edges(2, 8), vec![2]);
        assert_eq!(portion_edges(10, 8), vec![8, 2]);
        assert_eq!(portion_edges(16, 8).iter().sum::<usize>(), 16);
    }

    #[test]
    fn portion_counts_match_eq2() {
        // Layer 0: 32×32 ofmap → 16 portions of 8×8, each 16 spatial tiles.
        let l0 = mobilenet_v1_cifar10()[0];
        let b = layer_cycles(&l0, &cfg());
        assert_eq!(b.portions, 16);
        assert_eq!(b.spatial_tiles, 256);
        assert_eq!(b.channel_passes, 4);
        assert_eq!(b.kernel_tiles, 4);
        assert_eq!(b.init, 9 * 16 * 4);
    }

    #[test]
    fn dwc_idles_more_on_wide_layers() {
        // Sec. III-D: "The DWC PE arrays encounter more idle time due to
        // fewer MAC operations" — utilization is 1/Kt-ish and shrinks as K
        // grows.
        let layers = mobilenet_v1_cifar10();
        let u0 = layer_cycles(&layers[0], &cfg()).dwc_utilization();
        let u12 = layer_cycles(&layers[12], &cfg()).dwc_utilization();
        assert!(u0 > 0.2 && u0 < 0.25, "{u0}");
        assert!(u12 < 0.02, "{u12}");
        for l in &layers {
            let b = layer_cycles(l, &cfg());
            assert!(b.pwc_utilization() > 0.85, "layer {}", l.index);
        }
    }

    #[test]
    fn init_fraction_grows_for_late_layers() {
        // Fig. 10's explanation: "the initiation stage … accounts for a
        // larger contribution" for small maps. Layer 6 spends 9/137 of its
        // cycles in initiation; layer 12 spends 9/73.
        let layers = mobilenet_v1_cifar10();
        let f6 = layer_cycles(&layers[6], &cfg()).init_fraction();
        let f12 = layer_cycles(&layers[12], &cfg()).init_fraction();
        assert!(f12 > f6);
        assert!((f6 - 9.0 / 137.0).abs() < 1e-9);
        assert!((f12 - 9.0 / 73.0).abs() < 1e-9);
    }

    #[test]
    fn latency_correlates_with_macs() {
        // Fig. 10: "a strong correlation between the number of MAC
        // operations and the total latency" — Pearson r over the 13 layers.
        let layers = mobilenet_v1_cifar10();
        let xs: Vec<f64> = layers.iter().map(|l| l.total_macs() as f64).collect();
        let ys: Vec<f64> = layers.iter().map(|l| layer_latency_ns(l, &cfg())).collect();
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
        let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
        let r = cov / (vx * vy).sqrt();
        assert!(r > 0.99, "correlation {r}");
    }

    #[test]
    fn slower_clock_scales_latency_not_cycles() {
        let l0 = mobilenet_v1_cifar10()[0];
        let mut half = cfg();
        half.clock_mhz = 500;
        assert_eq!(
            layer_cycles(&l0, &half).total(),
            layer_cycles(&l0, &cfg()).total()
        );
        assert!((layer_latency_ns(&l0, &half) - 2.0 * layer_latency_ns(&l0, &cfg())).abs() < 1e-9);
    }
}
