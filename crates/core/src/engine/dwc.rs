//! The depthwise convolution engine (paper Fig. 5a).
//!
//! "The DWC engine consists of a fully parallel PE array capable of
//! simultaneously computing 8 channels of ifmap, resulting in a total of
//! 288 MAC operations. Each column of PE performs 3×3 MACs using an adder
//! tree and produces the output of DWC. … The DWC engine utilizes an ifmap
//! of size 4×4×8 (5×5×8 when stride is 2) and a tiled kernel of size 3×3×8,
//! and generates an ofmap of size 2×2×8."
//!
//! One invocation of [`DwcEngine::compute_tile`] models one engine cycle:
//! all `Td` channel PEs fire in parallel, each computing its `Tn×Tm` output
//! windows through 9-input adder trees. [`DwcEngine::compute_portion_into`]
//! models every cycle of one portion's channel pass in a single call; the
//! tile API is its one-cycle case.

use edea_tensor::ops::all_zero_i8;
use edea_tensor::{Tensor3, Tensor4};

use crate::config::EdeaConfig;
use crate::engine::{EngineActivity, WeightSlice};
use crate::CoreError;

/// Output of one DWC engine cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct DwcTileOutput {
    /// Accumulators, shape `(Td, Tn, Tm)` — int8×int8 sums over 3×3 taps
    /// (19-bit worst case, carried in `i32`).
    pub acc: Tensor3<i32>,
    /// Multiplier activity for the power model.
    pub activity: EngineActivity,
}

/// The DWC PE array.
#[derive(Debug, Clone)]
pub struct DwcEngine {
    td: usize,
    tn: usize,
    tm: usize,
    kernel: usize,
}

impl DwcEngine {
    /// Builds the engine from the architecture configuration.
    #[must_use]
    pub fn new(cfg: &EdeaConfig) -> Self {
        let t = &cfg.tile;
        Self {
            td: t.td,
            tn: t.tn,
            tm: t.tm,
            kernel: t.kernel,
        }
    }

    /// MAC slots exercised per invocation (288 for the paper config).
    #[must_use]
    pub fn macs_per_cycle(&self) -> u64 {
        (self.td * self.kernel * self.kernel * self.tn * self.tm) as u64
    }

    /// Computes one tile: `ifmap` is the `(Td, Tr, Tc)` input window
    /// (`Tr = (Tn−1)·stride + kernel`), `weights` the `(Td, 1, K, K)` kernel
    /// slice.
    ///
    /// Thin allocating wrapper over [`DwcEngine::compute_tile_into`].
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if tile shapes do not match the
    /// engine geometry.
    pub fn compute_tile(
        &self,
        ifmap: &Tensor3<i8>,
        weights: &Tensor4<i8>,
        stride: usize,
    ) -> Result<DwcTileOutput, CoreError> {
        let mut acc = Tensor3::<i32>::zeros(self.td, self.tn, self.tm);
        let activity = self.compute_tile_into(ifmap, weights, stride, &mut acc)?;
        Ok(DwcTileOutput { acc, activity })
    }

    /// Computes one tile into a caller-provided accumulator buffer, which
    /// is reshaped to `(Td, Tn, Tm)` in place — the one-cycle case of
    /// [`DwcEngine::compute_portion_into`], bit-exact with
    /// [`DwcEngine::compute_tile`].
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if tile shapes do not match the
    /// engine geometry.
    pub fn compute_tile_into(
        &self,
        ifmap: &Tensor3<i8>,
        weights: &Tensor4<i8>,
        stride: usize,
        acc: &mut Tensor3<i32>,
    ) -> Result<EngineActivity, CoreError> {
        let tr = (self.tn - 1) * stride + self.kernel;
        let tc = (self.tm - 1) * stride + self.kernel;
        if ifmap.shape() != (self.td, tr, tc) {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "DWC ifmap tile {:?}, engine expects ({}, {tr}, {tc}) at stride {stride}",
                    ifmap.shape(),
                    self.td
                ),
            });
        }
        if weights.shape() != (self.td, 1, self.kernel, self.kernel) {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "DWC weight tile {:?}, engine expects ({}, 1, {}, {})",
                    weights.shape(),
                    self.td,
                    self.kernel,
                    self.kernel
                ),
            });
        }
        self.compute_portion_into(ifmap, WeightSlice::new(weights.as_slice()), stride, acc)
    }

    /// Computes one channel pass of a whole portion — every spatial tile's
    /// engine cycle — in one call. `window` is the `(Td, Hr, Hc)` input
    /// region with halo (`Hr = (rows−1)·stride + K` for `rows` output
    /// rows), `weights` the pass's `Td·K·K` taps in channel-major order;
    /// `acc` is reshaped to `(Td, rows, cols)`. The output extent must be
    /// a whole number of `Tn×Tm` tiles, and the returned activity is
    /// exactly the sum of those tiles' per-cycle activities.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if the window is not `Td` deep, its
    /// extent is not a whole number of tiles at `stride`, or `weights` is
    /// not `Td·K·K` long.
    pub fn compute_portion_into(
        &self,
        window: &Tensor3<i8>,
        weights: WeightSlice<'_>,
        stride: usize,
        acc: &mut Tensor3<i32>,
    ) -> Result<EngineActivity, CoreError> {
        let k = self.kernel;
        let taps = k * k;
        let (c, hr, hc) = window.shape();
        let extent = |h: usize| {
            (stride > 0 && h >= k && (h - k) % stride == 0).then(|| (h - k) / stride + 1)
        };
        let (rows, cols) = match (extent(hr), extent(hc)) {
            (Some(rows), Some(cols))
                if c == self.td && rows % self.tn == 0 && cols % self.tm == 0 =>
            {
                (rows, cols)
            }
            _ => {
                return Err(CoreError::UnsupportedShape {
                    detail: format!(
                        "DWC portion window {:?} is not a whole number of ({}, {}) tiles \
                         of a {}-deep engine at stride {stride}",
                        window.shape(),
                        self.tn,
                        self.tm,
                        self.td
                    ),
                })
            }
        };
        let wt = weights.values();
        if wt.len() != self.td * taps {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "DWC weight slice of {} taps, engine expects {}",
                    wt.len(),
                    self.td * taps
                ),
            });
        }
        acc.resize_zeroed(self.td, rows, cols);
        // Flat-slice tap-major form of the 9-input adder trees: per
        // channel, each kernel tap accumulates into all rows·cols outputs.
        // Per output element the tap order is ascending `(kh, kw)` —
        // integer addition is associative, so this is bit-exact with both
        // the element-at-a-time fold and the tree the RTL instantiates, and
        // covering the portion's tiles in one sweep instead of one call
        // per tile changes no sum.
        //
        // Zero skipping: a plane (one channel's input region) that is
        // entirely zero contributes exactly 0 to every accumulator, so the
        // simulator skips its whole taps×pixels slot block — bit-exact by
        // the additive identity, and common at the Fig.-11 late layers
        // (97.4 % element zeros). The skip granularity is deliberately the
        // *plane*, never the element: a per-element branch on mid-sparsity
        // data mispredicts constantly and forfeits the vectorized inner
        // loop, costing more than the multiplies it saves. The *modeled*
        // activity is decoupled from the shortcut: a skipped plane counts
        // its full `taps·pix` gated slots, and live planes count per slot
        // branchlessly inside the MAC loop — the power model sees every
        // clock-gated hardware slot either way.
        let ia = window.as_slice();
        let out = acc.as_mut_slice();
        let pix = rows * cols;
        let mut zero_act = 0u64;
        for ch in 0..self.td {
            let plane = &ia[ch * hr * hc..(ch + 1) * hr * hc];
            let wch = &wt[ch * taps..(ch + 1) * taps];
            let orow = &mut out[ch * pix..(ch + 1) * pix];
            if all_zero_i8(plane) {
                // Every slot of this channel sees a zero activation; the
                // accumulators stay at resize_zeroed's zeros — no MACs.
                zero_act += (taps * pix) as u64;
                continue;
            }
            for kh in 0..k {
                for kw in 0..k {
                    let w = i32::from(wch[kh * k + kw]);
                    for (on, orow) in orow.chunks_exact_mut(cols).enumerate() {
                        let base = (on * stride + kh) * hc + kw;
                        for (om, o) in orow.iter_mut().enumerate() {
                            let a = plane[base + om * stride];
                            zero_act += u64::from(a == 0);
                            *o += i32::from(a) * w;
                        }
                    }
                }
            }
        }
        // Every weight feeds every output pixel of its channel.
        Ok(EngineActivity {
            mac_slots: (self.td * taps * pix) as u64,
            zero_act_slots: zero_act,
            zero_weight_slots: weights.zeros() * pix as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edea_tensor::conv::depthwise_conv2d_i8;
    use edea_tensor::rng;

    fn engine() -> DwcEngine {
        DwcEngine::new(&EdeaConfig::paper())
    }

    #[test]
    fn macs_per_cycle_is_288() {
        assert_eq!(engine().macs_per_cycle(), 288);
    }

    #[test]
    fn matches_reference_conv_stride1() {
        // A 4×4×8 window against the golden depthwise conv (valid padding).
        let ifmap = rng::uniform_i8_tensor3(8, 4, 4, -128, 127, 1);
        let weights = rng::uniform_i8_tensor4(8, 1, 3, 3, -128, 127, 2);
        let out = engine().compute_tile(&ifmap, &weights, 1).unwrap();
        let reference = depthwise_conv2d_i8(&ifmap, &weights, 1, 0);
        assert_eq!(out.acc, reference);
    }

    #[test]
    fn matches_reference_conv_stride2() {
        // Fig. 5a: a 5×5×8 window at stride 2 still yields 2×2×8 outputs.
        let ifmap = rng::uniform_i8_tensor3(8, 5, 5, -128, 127, 3);
        let weights = rng::uniform_i8_tensor4(8, 1, 3, 3, -128, 127, 4);
        let out = engine().compute_tile(&ifmap, &weights, 2).unwrap();
        let reference = depthwise_conv2d_i8(&ifmap, &weights, 2, 0);
        assert_eq!(out.acc.shape(), (8, 2, 2));
        assert_eq!(out.acc, reference);
    }

    #[test]
    fn counts_zero_operands() {
        let mut ifmap = rng::uniform_i8_tensor3(8, 4, 4, 1, 127, 5); // no zeros
        let weights = rng::uniform_i8_tensor4(8, 1, 3, 3, 1, 127, 6); // no zeros
        let out = engine().compute_tile(&ifmap, &weights, 1).unwrap();
        assert_eq!(out.activity.zero_act_slots, 0);
        assert_eq!(out.activity.zero_weight_slots, 0);
        // Zero one input pixel: it participates in windows covering it.
        ifmap[(0, 1, 1)] = 0;
        let out = engine().compute_tile(&ifmap, &weights, 1).unwrap();
        // Pixel (1,1) is covered by all four 3×3 windows at stride 1.
        assert_eq!(out.activity.zero_act_slots, 4);
    }

    #[test]
    fn worst_case_accumulator_fits_19_bits() {
        let ifmap = rng::uniform_i8_tensor3(8, 4, 4, -128, -128, 7);
        let weights = rng::uniform_i8_tensor4(8, 1, 3, 3, -128, -128, 8);
        let out = engine().compute_tile(&ifmap, &weights, 1).unwrap();
        for &v in out.acc.as_slice() {
            assert_eq!(v, 9 * 128 * 128);
            assert!(edea_fixed::sat::fits_in_bits(i64::from(v), 19));
        }
    }

    #[test]
    fn rejects_wrong_tile_shapes() {
        let weights = rng::uniform_i8_tensor4(8, 1, 3, 3, -1, 1, 9);
        let bad_ifmap = rng::uniform_i8_tensor3(8, 4, 4, -1, 1, 10);
        // 4×4 window is invalid at stride 2 (needs 5×5).
        assert!(engine().compute_tile(&bad_ifmap, &weights, 2).is_err());
        let bad_channels = rng::uniform_i8_tensor3(4, 4, 4, -1, 1, 11);
        assert!(engine().compute_tile(&bad_channels, &weights, 1).is_err());
    }

    #[test]
    fn full_parallelism_every_cycle() {
        // 100 % PE utilization: every invocation exercises all 288 slots.
        let ifmap = rng::uniform_i8_tensor3(8, 4, 4, -128, 127, 12);
        let weights = rng::uniform_i8_tensor4(8, 1, 3, 3, -128, 127, 13);
        let out = engine().compute_tile(&ifmap, &weights, 1).unwrap();
        assert_eq!(out.activity.mac_slots, 288);
    }
}
