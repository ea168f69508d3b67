//! The on-chip buffer set's capacity check and the external-memory
//! interface.
//!
//! Fig. 4's buffer set: DWC ifmap buffer, DWC weight buffer, offline
//! (Non-Conv parameter) buffer, intermediate buffer, PWC weight buffer —
//! plus the psum SRAM the portion-wise PWC accumulation requires (not
//! detailed in the paper; see ARCHITECTURE.md). Their sizes are
//! [`EdeaConfig`] fields. What a layer's schedule holds in them and moves
//! through them depends only on the layer shape, so neither is counted at
//! run time: [`check_capacity`] is the one check that a layer's residencies
//! fit, and [`crate::stats::layer_ledger`] is the one source of the byte
//! counts, reported per stream in [`ExternalMemory`] and per buffer in
//! [`crate::stats::BufferTraffic`].

use edea_nn::workload::LayerShape;

use crate::config::EdeaConfig;
use crate::schedule::{layer_param_fetch_bytes, Portion};
use crate::CoreError;

/// External (off-chip) memory traffic, in bytes, split by stream.
///
/// The split matters for batching: weight and offline-parameter fetches
/// depend only on the layer, so a batched schedule pays them **once per
/// batch**, while ifmap reads and ofmap writes are inherently per-image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExternalMemory {
    /// Weight bytes read (DWC kernels + PWC tile slices).
    pub weight_reads: u64,
    /// Offline Non-Conv parameter bytes read.
    pub param_reads: u64,
    /// Activation (ifmap slice) bytes read.
    pub ifmap_reads: u64,
    /// Bytes written to external memory (the ofmap).
    pub writes: u64,
}

impl ExternalMemory {
    /// Total bytes read, over all streams.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.weight_reads + self.param_reads + self.ifmap_reads
    }

    /// Total traffic.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.reads() + self.writes
    }
}

/// Checks that every buffer residency a layer's portion loop holds fits
/// its configured capacity, for the portion list `ports` with `n_images`
/// images in flight:
///
/// * `psum` — one bank per in-flight image, each holding the largest
///   portion's `pixels × K` 4-byte sums, against `n_images ×` the
///   configured bank (the silicon cost of weight residency);
/// * `dwc_ifmap` — the largest halo'd ifmap slice (`rows × cols × Td`);
/// * `dwc_weight` — the layer's DWC kernels (none on a PwcOnly stage);
/// * `offline` — the Non-Conv parameter sets the stage uses (no DWC-side
///   set on a PwcOnly stage);
/// * `pwc_weight` — one PWC weight slice (`Td × K`).
///
/// The intermediate buffer is not checked: [`EdeaConfig::validate`]
/// already requires it to hold a double-buffered tile, which is all it
/// ever holds.
///
/// This is the one capacity check: the accelerator runs it before every
/// layer's portion loop, and [`crate::plan::audit::audit_portions`] runs
/// it ahead of time. Returns the psum bytes reserved over all banks.
///
/// # Errors
///
/// [`CoreError::BufferOverflow`] naming the first buffer, in the order
/// above, whose residency exceeds its capacity.
pub fn check_capacity(
    shape: &LayerShape,
    cfg: &EdeaConfig,
    ports: &[Portion],
    n_images: usize,
) -> Result<usize, CoreError> {
    let fits = |buffer: &'static str, required: usize, capacity: usize| {
        if required > capacity {
            return Err(CoreError::BufferOverflow {
                buffer,
                required,
                capacity,
            });
        }
        Ok(())
    };
    let td = cfg.tile.td;
    let mut psum_peak = 0usize;
    let mut ifmap_peak = 0usize;
    for portion in ports {
        psum_peak = psum_peak.max(portion.pixels() * shape.k_out * 4);
        let (_, _, rows, cols) =
            portion.input_region(shape.stride, shape.kernel, shape.pad, shape.in_spatial);
        ifmap_peak = ifmap_peak.max(rows * cols * td);
    }
    let psum_required = n_images * psum_peak;
    fits("psum", psum_required, cfg.psum_buf_bytes * n_images)?;
    fits("dwc_ifmap", ifmap_peak, cfg.ifmap_buf_bytes)?;
    fits(
        "dwc_weight",
        usize::try_from(shape.dwc_params()).unwrap_or(usize::MAX),
        cfg.dwc_weight_buf_bytes,
    )?;
    fits(
        "offline",
        usize::try_from(layer_param_fetch_bytes(shape)).unwrap_or(usize::MAX),
        cfg.offline_buf_bytes,
    )?;
    fits("pwc_weight", td * shape.k_out, cfg.pwc_weight_buf_bytes)?;
    Ok(psum_required)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{portions, WeightResidency};
    use crate::stats::layer_ledger;
    use edea_nn::workload::{mobilenet_v1_cifar10, mobilenet_v2_cifar10, scale_width};

    /// Layer 3 at width 1.0: one 8×8 portion of 256 kernels, whose psums
    /// fill the paper's 64 KiB bank exactly.
    fn psum_worst() -> (LayerShape, Vec<Portion>) {
        let shape = mobilenet_v1_cifar10()[3];
        let ports = portions(shape.out_spatial(), EdeaConfig::paper().portion_limit);
        (shape, ports)
    }

    #[test]
    fn fill_checks_capacity() {
        let (shape, ports) = psum_worst();
        let mut cfg = EdeaConfig::paper();
        assert_eq!(check_capacity(&shape, &cfg, &ports, 1), Ok(8 * 8 * 256 * 4));
        cfg.psum_buf_bytes -= 1;
        assert_eq!(
            check_capacity(&shape, &cfg, &ports, 1),
            Err(CoreError::BufferOverflow {
                buffer: "psum",
                required: 8 * 8 * 256 * 4,
                capacity: 8 * 8 * 256 * 4 - 1,
            })
        );
    }

    #[test]
    fn external_memory_totals() {
        let e = ExternalMemory {
            weight_reads: 60,
            param_reads: 30,
            ifmap_reads: 10,
            writes: 50,
        };
        assert_eq!(e.reads(), 100);
        assert_eq!(e.total(), 150);
    }

    #[test]
    fn batched_set_scales_only_the_psum_banks() {
        let (shape, ports) = psum_worst();
        // Every non-psum buffer cut to exactly one image's residency still
        // holds a batch of four: only the psum banks scale with the batch.
        let mut cfg = EdeaConfig::paper();
        cfg.dwc_weight_buf_bytes = shape.dwc_params() as usize;
        cfg.offline_buf_bytes = layer_param_fetch_bytes(&shape) as usize;
        cfg.pwc_weight_buf_bytes = cfg.tile.td * shape.k_out;
        let one = check_capacity(&shape, &cfg, &ports, 1).unwrap();
        assert_eq!(check_capacity(&shape, &cfg, &ports, 4), Ok(4 * one));
        // A bank one word short fails at any batch size.
        cfg.psum_buf_bytes = one - 4;
        for n in [1, 4] {
            assert!(matches!(
                check_capacity(&shape, &cfg, &ports, n),
                Err(CoreError::BufferOverflow { buffer: "psum", .. })
            ));
        }
    }

    #[test]
    fn buffer_set_aggregates() {
        // On-chip traffic covers the whole buffer set: the intermediate
        // buffer and the psum SRAM are parts of it, and every external
        // weight and parameter fetch also fills an on-chip buffer.
        let cfg = EdeaConfig::paper();
        let v2 = scale_width(&mobilenet_v2_cifar10(), 0.25, 16).unwrap();
        for shape in mobilenet_v1_cifar10().iter().chain(&v2) {
            for residency in [WeightResidency::PerImage, WeightResidency::PerBatch] {
                let l = layer_ledger(shape, &cfg, 2, residency);
                assert!(l.onchip.reads > l.intermediate.reads + l.psum.reads);
                assert!(
                    l.onchip.writes
                        > l.intermediate.writes
                            + l.psum.writes
                            + l.external.weight_reads
                            + l.external.param_reads
                );
            }
        }
    }

    #[test]
    fn paper_capacities_hold_worst_layers() {
        let cfg = EdeaConfig::paper();
        // Layer-3 psums: 8×8 portion × 256 kernels × 4 B.
        assert!(cfg.psum_buf_bytes >= 8 * 8 * 256 * 4);
        // Deepest DWC weights: 3·3·1024.
        assert!(cfg.dwc_weight_buf_bytes >= 9 * 1024);
        // Widest PWC weight slice: 8 × 1024, double-buffered.
        assert!(cfg.pwc_weight_buf_bytes >= 2 * 8 * 1024);
        // Stride-2 portion window: 17×17×8, double-buffered.
        assert!(cfg.ifmap_buf_bytes >= 2 * 17 * 17 * 8);
        for shape in mobilenet_v1_cifar10() {
            let ports = portions(shape.out_spatial(), cfg.portion_limit);
            check_capacity(&shape, &cfg, &ports, 1)
                .unwrap_or_else(|e| panic!("layer {}: {e}", shape.index));
        }
    }
}
