//! Reusable scratch buffers for the simulator's portion pipeline.
//!
//! Every `(portion, image)` step of the loop nest in
//! [`crate::accelerator`] needs the same working buffers: the DWC
//! accumulators of one channel pass, one psum bank, and the portion-local
//! mid/output maps. The layer inputs need no copy: the DWC reads them in
//! place and zero-fills the halo as it stages each window, and the drain
//! reads the psum bank and a residual stage's saved inputs in place.
//! Allocating the buffers afresh per step would be the software
//! equivalent of the external-memory round trips the paper's direct data
//! transfer eliminates. A [`TileScratch`] owns them instead:
//! [`TileScratch::reserve`] grows each buffer to the layer's largest shape
//! once per layer run, and every later reshape
//! ([`edea_tensor::Tensor3::resize_zeroed`]) reuses the allocation, so the
//! steady-state portion loop performs **zero heap allocations** (guarded
//! by the allocation-regression test in `crates/core/tests`).
//!
//! A scratch outlives a layer run: the network loop threads one scratch
//! through every layer, a serving session
//! ([`crate::serve::SimulatorBackend`]) reuses one across requests, and its
//! capacity grows monotonically to the largest layer it has seen.

use edea_nn::workload::LayerShape;
use edea_tensor::Tensor3;

use crate::config::EdeaConfig;

/// The per-layer-run scratch arena: one set of buffers reused across
/// channel passes, portions and images.
#[derive(Debug, Clone)]
pub struct TileScratch {
    /// The pixel-major `(portion rows, portion cols, Td)` DWC
    /// accumulators.
    pub(crate) dwc_acc: Tensor3<i32>,
    /// The psum bank of the current `(portion, image)`, pixel-major
    /// `(portion rows, portion cols, K)` — the layout the PWC portion
    /// kernel accumulates into and the output-side Non-Conv drains. One
    /// image's bank is drained before the next image's PWC call, so one
    /// bank serves the whole batch.
    pub(crate) psum: Tensor3<i32>,
    /// Lane-private sub-scratches for the parallel portion loop (lane 0
    /// reuses this scratch itself; lane `i + 1` owns `lanes[i]`). Empty
    /// until a parallel run reserves them; a serial run never touches it.
    pub(crate) lanes: Vec<TileScratch>,
    /// The portion loop's output slots, one per `(portion, image)`,
    /// pasted into the layer's maps in portion order after all lanes join.
    pub(crate) portion_slots: Vec<PortionSlot>,
}

/// One `(portion, image)` output of the portion loop: the portion-local
/// intermediate and output maps, and how many of their elements are zero
/// — counted as the Non-Conv unit (or a `PwcOnly` stage's slab copy)
/// writes them, so the layer's zero fractions need no second scan.
#[derive(Debug, Clone)]
pub(crate) struct PortionSlot {
    /// The `(d_in, rows, cols)` intermediate map (the PWC input).
    pub(crate) mid: Tensor3<i8>,
    /// The `(k_out, rows, cols)` drained output.
    pub(crate) out: Tensor3<i8>,
    /// Zero elements of `mid`.
    pub(crate) mid_zeros: u64,
    /// Zero elements of `out`.
    pub(crate) out_zeros: u64,
}

impl Default for PortionSlot {
    fn default() -> Self {
        Self {
            mid: Tensor3::zeros(1, 1, 1),
            out: Tensor3::zeros(1, 1, 1),
            mid_zeros: 0,
            out_zeros: 0,
        }
    }
}

impl Default for TileScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl TileScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self {
            dwc_acc: Tensor3::zeros(1, 1, 1),
            psum: Tensor3::zeros(1, 1, 1),
            lanes: Vec::new(),
            portion_slots: Vec::new(),
        }
    }

    /// Grows every buffer so a run of layer `s` never allocates in the
    /// portion loop, whatever its batch size. Buffers get capacity only,
    /// sized for the layer's largest portion, since every consumer
    /// reshapes its buffer to the current portion before use. Capacity
    /// only ever grows — reserving for a smaller layer after a larger one
    /// is free.
    pub fn reserve(&mut self, s: &LayerShape, cfg: &EdeaConfig) {
        // The largest portion is bounded by the portion limit and the map.
        let pmax = s.out_spatial().min(cfg.portion_limit).max(1);
        self.dwc_acc.reserve_capacity(cfg.tile.td * pmax * pmax);
        self.psum.reserve_capacity(s.k_out * pmax * pmax);
    }

    /// Grows the per-`(portion, image)` output slots so the portion loop —
    /// serial or parallel — writes portion-local mids/outs without
    /// allocating in steady state. The slot vector only ever grows, like
    /// the buffers' capacity.
    pub(crate) fn reserve_portion_slots(
        &mut self,
        s: &LayerShape,
        cfg: &EdeaConfig,
        n_slots: usize,
    ) {
        let pmax = s.out_spatial().min(cfg.portion_limit).max(1);
        while self.portion_slots.len() < n_slots {
            self.portion_slots.push(PortionSlot::default());
        }
        for slot in self.portion_slots.iter_mut().take(n_slots) {
            slot.mid.reserve_capacity(s.d_in * pmax * pmax);
            slot.out.reserve_capacity(s.k_out * pmax * pmax);
        }
    }

    /// Grows the lane-private sub-scratch pool to `extra` entries (for
    /// lanes `1..=extra`; lane 0 reuses this scratch) and reserves each
    /// for layer `s`, so the parallel portion loops stay allocation-free in
    /// steady state.
    pub(crate) fn ensure_lanes(&mut self, extra: usize, s: &LayerShape, cfg: &EdeaConfig) {
        while self.lanes.len() < extra {
            self.lanes.push(TileScratch::new());
        }
        for lane in self.lanes.iter_mut().take(extra) {
            lane.reserve(s, cfg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edea_nn::workload::mobilenet_v1_cifar10;

    #[test]
    fn reserve_sizes_buffers_for_the_layer() {
        let cfg = EdeaConfig::paper();
        let mut scratch = TileScratch::new();
        let layers = mobilenet_v1_cifar10();
        scratch.reserve(&layers[0], &cfg);
        // Every buffer gets capacity for its largest steady-state shape —
        // the 8×8 portion's pixel-major accumulators and psum bank — so
        // the reshapes its consumers perform cannot allocate.
        let bank = scratch.psum.as_slice().as_ptr();
        scratch.psum.resize_zeroed(8, 8, layers[0].k_out);
        assert_eq!(scratch.psum.len(), layers[0].k_out * 8 * 8);
        assert_eq!(scratch.psum.as_slice().as_ptr(), bank);
        let capacity = scratch.dwc_acc.as_slice().as_ptr();
        scratch.dwc_acc.resize_zeroed(8, 8, 8);
        assert_eq!(scratch.dwc_acc.as_slice().as_ptr(), capacity);
        // A later, smaller layer keeps the psum bank's capacity of the
        // previous reserve instead of freeing it.
        let stride2 = layers.iter().find(|l| l.stride == 2).unwrap();
        scratch.reserve(stride2, &cfg);
        scratch.psum.resize_zeroed(8, 8, layers[0].k_out);
        assert_eq!(scratch.psum.as_slice().as_ptr(), bank);
    }
}
