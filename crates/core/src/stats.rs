//! Execution statistics of the accelerator, and the traffic ledger they are
//! built from.
//!
//! [`LayerStats`] and [`NetworkStats`] describe a run over a batch of
//! `N ≥ 1` images; a single image is the batch-of-one case. Counters are
//! batch totals, and the per-image views (`cycles_per_image`,
//! `external_per_image`, `weight_bytes_per_image`) divide by the batch.
//! Under [`WeightResidency::PerBatch`] external weight traffic is paid once
//! per batch instead of once per image. External traffic is carried split
//! by stream ([`crate::buffer::ExternalMemory`]) precisely so the
//! amortizable part (weights + offline parameters) is visible separately
//! from the inherently per-image part (ifmap reads, ofmap writes). The
//! record does not carry the residency: at `N = 1` both residencies give
//! identical counters, so a batch-of-one record equals a single-image one.
//!
//! Every cycle and byte count depends only on the layer shape, the
//! configuration, the batch size and the residency, so one pure function,
//! [`layer_ledger`], computes them all. The functional simulator adds what
//! depends on the data — engine zero-slot counts and zero fractions — and
//! [`synthetic_layer_stats`] estimates those from given zero fractions
//! instead.

use edea_nn::workload::{LayerShape, StageOp};

use crate::buffer::ExternalMemory;
use crate::config::EdeaConfig;
use crate::engine::EngineActivity;
use crate::schedule::WeightResidency;
use crate::timing::CycleBreakdown;

/// Per-buffer byte counters snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BufferTraffic {
    /// Bytes read.
    pub reads: u64,
    /// Bytes written.
    pub writes: u64,
}

impl BufferTraffic {
    /// Total bytes moved.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Complete statistics of one layer executed on the accelerator over a
/// batch of `batch ≥ 1` images; a single image is `batch = 1`.
///
/// Every counter is a **batch total**; the cycle [`CycleBreakdown`] is
/// per-image (every image runs the identical schedule). Zero fractions are
/// batch means.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStats {
    /// The layer executed.
    pub shape: LayerShape,
    /// Batch size `N ≥ 1`.
    pub batch: usize,
    /// Per-image cycle breakdown from the timing model.
    pub breakdown: CycleBreakdown,
    /// Whole-batch cycles (`batch × breakdown.total()`; the initiation is
    /// bound by the per-image ifmap-slice fetch, so weight residency saves
    /// traffic, not cycles).
    pub cycles: u64,
    /// DWC engine activity (all invocations merged).
    pub dwc_activity: EngineActivity,
    /// PWC engine activity.
    pub pwc_activity: EngineActivity,
    /// Non-Conv operations (both boundaries).
    pub nonconv_ops: u64,
    /// Zero fraction of the layer input codes.
    pub input_zero: f64,
    /// Zero fraction of the intermediate (PWC input) codes — Fig. 11's
    /// "DWC zero percentage".
    pub mid_zero: f64,
    /// Zero fraction of the output codes — Fig. 11's "PWC zero percentage".
    pub out_zero: f64,
    /// External-memory traffic, split by stream. Under
    /// [`WeightResidency::PerBatch`] the weight/param components are the
    /// single-image figures; ifmap/writes always scale with the batch.
    pub external: ExternalMemory,
    /// On-chip SRAM traffic (all buffers).
    pub onchip: BufferTraffic,
    /// Intermediate-buffer traffic alone (the "direct data transfer").
    pub intermediate: BufferTraffic,
    /// Psum register-file traffic alone (accumulation read-modify-write).
    pub psum: BufferTraffic,
}

impl LayerStats {
    /// Useful MAC operations (= workload MACs; the engines never idle
    /// partially within a cycle).
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.dwc_activity.mac_slots + self.pwc_activity.mac_slots
    }

    /// Throughput in GOPS at the configured clock.
    #[must_use]
    pub fn throughput_gops(&self, cfg: &EdeaConfig) -> f64 {
        2.0 * self.total_macs() as f64 / (self.cycles as f64 * cfg.period_ns())
    }

    /// Whole-batch latency in nanoseconds.
    #[must_use]
    pub fn latency_ns(&self, cfg: &EdeaConfig) -> f64 {
        self.cycles as f64 * cfg.period_ns()
    }

    /// Cycles per image (exact: every image runs the same schedule).
    #[must_use]
    pub fn cycles_per_image(&self) -> u64 {
        self.cycles / self.batch as u64
    }

    /// External bytes per image (fractional once weights amortize).
    #[must_use]
    pub fn external_per_image(&self) -> f64 {
        self.external.total() as f64 / self.batch as f64
    }

    /// External weight + offline-parameter bytes per image.
    #[must_use]
    pub fn weight_bytes_per_image(&self) -> f64 {
        (self.external.weight_reads + self.external.param_reads) as f64 / self.batch as f64
    }

    /// The statistics of a single-image run, unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `batch != 1`.
    #[must_use]
    pub fn into_layer_stats(self) -> LayerStats {
        assert_eq!(self.batch, 1, "into_layer_stats requires a batch of 1");
        self
    }
}

/// Statistics of a full network run over a batch of `batch ≥ 1` images.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkStats {
    /// Batch size `N ≥ 1`.
    pub batch: usize,
    /// Per-layer statistics, in layer order.
    pub layers: Vec<LayerStats>,
}

impl NetworkStats {
    /// Total cycles over all layers and images.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Cycles per image.
    #[must_use]
    pub fn cycles_per_image(&self) -> u64 {
        self.total_cycles() / self.batch as u64
    }

    /// Total MACs over all layers and images.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(LayerStats::total_macs).sum()
    }

    /// Ops-weighted average throughput in GOPS.
    #[must_use]
    pub fn average_gops(&self, cfg: &EdeaConfig) -> f64 {
        2.0 * self.total_macs() as f64 / (self.total_cycles() as f64 * cfg.period_ns())
    }

    /// Total external traffic in bytes.
    #[must_use]
    pub fn external_total(&self) -> u64 {
        self.layers.iter().map(|l| l.external.total()).sum()
    }

    /// Total external weight + offline-parameter traffic in bytes — the
    /// part a batched schedule amortizes.
    #[must_use]
    pub fn external_weight_total(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| l.external.weight_reads + l.external.param_reads)
            .sum()
    }

    /// External bytes per image.
    #[must_use]
    pub fn external_per_image(&self) -> f64 {
        self.external_total() as f64 / self.batch as f64
    }

    /// External weight bytes per image — the figure the batch sweep plots,
    /// strictly decreasing in `N` under [`WeightResidency::PerBatch`].
    #[must_use]
    pub fn weight_bytes_per_image(&self) -> f64 {
        self.external_weight_total() as f64 / self.batch as f64
    }
}

/// Builds a [`LayerStats`] analytically for a batch of `n` images under
/// `residency` — the [`layer_ledger`] the functional simulator also reads,
/// without executing the layer. Zero *fractions* are taken from the caller
/// (e.g. the sparsity profile or a previous run); engine zero-slot counts
/// are estimated from them.
///
/// Used by the power-model calibration, which needs full-size statistics
/// that would otherwise require a width-1.0 simulation per tweak.
///
/// # Panics
///
/// Panics if `n` is zero or the layer does not map onto the configuration
/// (dims must be multiples of the tile sizes).
#[must_use]
pub fn synthetic_layer_stats(
    shape: &LayerShape,
    cfg: &EdeaConfig,
    n: usize,
    residency: WeightResidency,
    input_zero: f64,
    mid_zero: f64,
    out_zero: f64,
) -> LayerStats {
    let est = |slots: u64, z: f64| (slots as f64 * z).round() as u64;
    let mut stats = layer_ledger(shape, cfg, n, residency);
    stats.dwc_activity.zero_act_slots = est(stats.dwc_activity.mac_slots, input_zero);
    stats.pwc_activity.zero_act_slots = est(stats.pwc_activity.mac_slots, mid_zero);
    stats.input_zero = input_zero;
    stats.mid_zero = mid_zero;
    stats.out_zero = out_zero;
    stats
}

/// The traffic ledger of one layer over a batch of `n` images: every
/// statistic that depends only on the layer shape, the configuration and
/// the residency — the cycle breakdown, every external and on-chip traffic
/// category, the Non-Conv operation count and the engines' MAC slots. It
/// is the one source of these figures: [`crate::Edea`]'s functional
/// schedule, [`synthetic_layer_stats`] and
/// [`crate::serve::CostModel`] all build their statistics from it.
///
/// The data-dependent fields — the zero fractions and the engines'
/// zero-activation and zero-weight slot counts — are left at zero for the
/// caller to fill in.
///
/// Engine streaming traffic (ifmap reads, intermediate transfers, psum
/// accumulation, ofmap writes) scales with `n`; external weight and
/// offline-parameter fetches — and the register loads they fill — are paid
/// once per batch under [`WeightResidency::PerBatch`].
///
/// # Panics
///
/// Panics if `n` is zero or the layer does not map onto the configuration.
#[must_use]
pub fn layer_ledger(
    shape: &LayerShape,
    cfg: &EdeaConfig,
    n: usize,
    residency: WeightResidency,
) -> LayerStats {
    assert!(n > 0, "batch must be non-empty");
    let t = cfg.tile;
    assert_eq!(shape.d_in % t.td, 0, "d_in must be a multiple of Td");
    assert_eq!(shape.k_out % t.tk, 0, "k_out must be a multiple of Tk");
    let breakdown = crate::timing::layer_cycles(shape, cfg);
    let nb = n as u64;
    // Weight fetches amortize; everything per-image scales with n.
    let fetches = match residency {
        WeightResidency::PerImage => nb,
        WeightResidency::PerBatch => 1,
    };
    let passes = breakdown.channel_passes;
    let tr = (t.tn - 1) * shape.stride + shape.kernel;
    let tc = (t.tm - 1) * shape.stride + shape.kernel;

    // External traffic. Per weight load: all DWC kernels and the offline
    // parameter sets the stage uses, plus the PWC weight slice (`Td × K`)
    // of every portion × channel pass.
    let pw_slices = breakdown.portions * passes * (t.td * shape.k_out) as u64;
    let weight_reads = fetches * (shape.dwc_params() + pw_slices);
    let param_reads = fetches * crate::schedule::layer_param_fetch_bytes(shape);
    // One halo'd ifmap slice per (portion, channel pass, image).
    let ifmap_slices = nb
        * passes
        * crate::schedule::portion_iter(shape.out_spatial(), cfg.portion_limit)
            .map(|portion| {
                let (_, _, rows, cols) =
                    portion.input_region(shape.stride, shape.kernel, shape.pad, shape.in_spatial);
                (rows * cols * t.td) as u64
            })
            .sum::<u64>();
    // A residual-add stage streams the saved block input (one ofmap-sized
    // map per image) in from external memory at the drain.
    let ifmap_reads = ifmap_slices
        + if shape.residual_add {
            nb * shape.ofmap_elems()
        } else {
            0
        };
    let writes = nb * shape.ofmap_elems();

    // On-chip traffic:
    let dwc_inv = nb * breakdown.dwc_busy;
    let pwc_inv = nb * breakdown.pwc_busy;
    // Spatial-tile visits (equals DWC invocations on a Dsc stage; a
    // PwcOnly stage still extracts each tile from the ifmap buffer).
    let st_inv = nb * breakdown.spatial_tiles * passes;
    let tile_bytes = (t.tn * t.tm * t.td) as u64;
    let psum_word = (t.tk * t.tn * t.tm * 4) as u64;
    // Per spatial tile the window is read from the ifmap buffer; a
    // PwcOnly stage additionally re-reads the tile once per kernel tile
    // (the intermediate buffer is bypassed).
    let ifmap_buf_reads = st_inv * (tr * tc * t.td) as u64
        + match shape.op {
            StageOp::Dsc => 0,
            StageOp::PwcOnly => pwc_inv * tile_bytes,
        };
    // Register loads at initiation follow the residency: resident weights
    // skip the per-image reload of the weight/offline registers. PwcOnly
    // stages load neither the DWC weight slice nor the DWC-side
    // Non-Conv parameters.
    let (dwcw_reads, offline_reads) = match shape.op {
        StageOp::Dsc => (
            fetches * breakdown.portions * passes * (shape.kernel * shape.kernel * t.td) as u64,
            fetches * breakdown.portions * passes * 6 * t.td as u64,
        ),
        StageOp::PwcOnly => (0, 0),
    };
    let inter_writes = dwc_inv * tile_bytes;
    let inter_reads = match shape.op {
        StageOp::Dsc => pwc_inv * tile_bytes,
        StageOp::PwcOnly => 0,
    };
    let pwcw_reads = pwc_inv * (t.td * t.tk) as u64;
    // psum: read-modify-write except the first pass; plus the drain read.
    let psum_reads = pwc_inv.saturating_sub(nb * breakdown.spatial_tiles * breakdown.kernel_tiles)
        * psum_word
        + nb * shape.ofmap_elems() * 4;
    let psum_writes = pwc_inv * psum_word;
    // Every external fetch lands in its on-chip buffer: the DWC weight,
    // offline and PWC weight buffers and the ifmap buffer.
    let onchip_fills = weight_reads + param_reads + ifmap_slices;

    LayerStats {
        shape: *shape,
        batch: n,
        breakdown,
        cycles: nb * breakdown.total(),
        dwc_activity: EngineActivity {
            mac_slots: nb * shape.dwc_macs(),
            ..EngineActivity::default()
        },
        pwc_activity: EngineActivity {
            mac_slots: nb * shape.pwc_macs(),
            ..EngineActivity::default()
        },
        // Every intermediate element passes the Non-Conv once, every output
        // element once at the drain.
        nonconv_ops: nb * (shape.intermediate_elems() + shape.ofmap_elems()),
        input_zero: 0.0,
        mid_zero: 0.0,
        out_zero: 0.0,
        external: ExternalMemory {
            weight_reads,
            param_reads,
            ifmap_reads,
            writes,
        },
        onchip: BufferTraffic {
            reads: ifmap_buf_reads
                + dwcw_reads
                + offline_reads
                + inter_reads
                + pwcw_reads
                + psum_reads,
            writes: onchip_fills + inter_writes + psum_writes,
        },
        intermediate: BufferTraffic {
            reads: inter_reads,
            writes: inter_writes,
        },
        psum: BufferTraffic {
            reads: psum_reads,
            writes: psum_writes,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edea_nn::workload::mobilenet_v1_cifar10;

    #[test]
    fn buffer_traffic_totals() {
        let t = BufferTraffic {
            reads: 3,
            writes: 4,
        };
        assert_eq!(t.total(), 7);
    }

    #[test]
    fn batch_of_one_matches_single_image_stats() {
        let cfg = EdeaConfig::paper();
        for l in mobilenet_v1_cifar10() {
            let single =
                synthetic_layer_stats(&l, &cfg, 1, WeightResidency::PerImage, 0.3, 0.5, 0.6);
            let resident =
                synthetic_layer_stats(&l, &cfg, 1, WeightResidency::PerBatch, 0.3, 0.5, 0.6);
            assert_eq!(resident, single, "layer {}", l.index);
            assert_eq!(single.cycles_per_image(), single.cycles);
            assert_eq!(single.clone().into_layer_stats(), single);
        }
    }

    #[test]
    fn per_image_residency_scales_everything_by_n() {
        let cfg = EdeaConfig::paper();
        let l = mobilenet_v1_cifar10()[3];
        let one = synthetic_layer_stats(&l, &cfg, 1, WeightResidency::PerImage, 0.3, 0.5, 0.6);
        let four = synthetic_layer_stats(&l, &cfg, 4, WeightResidency::PerImage, 0.3, 0.5, 0.6);
        assert_eq!(four.cycles, 4 * one.cycles);
        assert_eq!(four.external.weight_reads, 4 * one.external.weight_reads);
        assert_eq!(four.external.ifmap_reads, 4 * one.external.ifmap_reads);
        assert_eq!(four.external.writes, 4 * one.external.writes);
        assert_eq!(four.onchip.reads, 4 * one.onchip.reads);
        assert_eq!(four.psum.reads, 4 * one.psum.reads);
    }

    #[test]
    fn resident_weights_amortize_only_weight_streams() {
        let cfg = EdeaConfig::paper();
        let l = mobilenet_v1_cifar10()[6];
        let one = synthetic_layer_stats(&l, &cfg, 1, WeightResidency::PerBatch, 0.3, 0.5, 0.6);
        let eight = synthetic_layer_stats(&l, &cfg, 8, WeightResidency::PerBatch, 0.3, 0.5, 0.6);
        // Amortized: weight and parameter fetches identical to one image.
        assert_eq!(eight.external.weight_reads, one.external.weight_reads);
        assert_eq!(eight.external.param_reads, one.external.param_reads);
        // Per-image streams still scale.
        assert_eq!(eight.external.ifmap_reads, 8 * one.external.ifmap_reads);
        assert_eq!(eight.external.writes, 8 * one.external.writes);
        assert_eq!(eight.cycles, 8 * one.cycles);
        // Per-image weight bytes strictly decrease.
        assert!(eight.weight_bytes_per_image() < one.weight_bytes_per_image());
    }

    #[test]
    fn network_weight_totals_sum_layers() {
        let cfg = EdeaConfig::paper();
        let layers: Vec<LayerStats> = mobilenet_v1_cifar10()
            .iter()
            .map(|l| synthetic_layer_stats(l, &cfg, 4, WeightResidency::PerBatch, 0.3, 0.5, 0.6))
            .collect();
        let net = NetworkStats {
            batch: 4,
            layers: layers.clone(),
        };
        let want: u64 = layers
            .iter()
            .map(|l| l.external.weight_reads + l.external.param_reads)
            .sum();
        assert_eq!(net.external_weight_total(), want);
        assert!((net.weight_bytes_per_image() - want as f64 / 4.0).abs() < 1e-9);
        assert_eq!(net.cycles_per_image() * 4, net.total_cycles());
    }
}
