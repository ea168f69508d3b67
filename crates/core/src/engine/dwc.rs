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
//!
//! The portion kernel mirrors the PE array's layout on the host: it
//! computes 8 channels side by side, one per lane. It stages the input
//! window once per call into a bounded pixel-major buffer of `i16` lane
//! operands (8 channels of one pixel = one 128-bit register, so the
//! baseline SSE2 build multiplies with `pmullw`), then accumulates each
//! output pixel's K×K taps of all lanes at once in an `[i32; 8]` block and
//! counts each lane's gated slots beside them. A `Td` that is not a
//! multiple of 8 leaves dead lanes in the last channel block; a window
//! larger than the buffer is processed in strips of output rows and
//! columns. Every `Td`, kernel, stride and portion size runs this one
//! path. The only skip is a window that is zero throughout.

use edea_tensor::ops::all_zero_i8;
use edea_tensor::{Tensor3, Tensor4};

use crate::config::EdeaConfig;
use crate::engine::{EngineActivity, WeightSlice};
use crate::CoreError;

/// Channels the portion kernel computes side by side: the paper's eight
/// parallel channel PEs, and one 128-bit register of `i16` operands.
const LANES: usize = 8;
/// Input pixels the staging buffer holds (2 KiB of lane operands): an 8×8
/// portion's window stages in one strip at stride 1 (10×10) and in three
/// at stride 2 (17×17).
const STAGE_PIXELS: usize = 128;
/// The largest depthwise kernel side the lane tap buffer holds (a K×K
/// kernel needs `K·K ≤ STAGE_PIXELS` staged pixels for one output).
const MAX_KERNEL: usize = 7;

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
    /// [`CoreError::UnsupportedShape`] if the engine kernel is wider than
    /// 7×7, the window is not `Td` deep, its extent is not a whole number
    /// of tiles at `stride`, or `weights` is not `Td·K·K` long.
    pub fn compute_portion_into(
        &self,
        window: &Tensor3<i8>,
        weights: WeightSlice<'_>,
        stride: usize,
        acc: &mut Tensor3<i32>,
    ) -> Result<EngineActivity, CoreError> {
        let k = self.kernel;
        let taps = k * k;
        if k == 0 || k > MAX_KERNEL {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "DWC kernel {k}×{k}, engine taps hold 1×1 to {MAX_KERNEL}×{MAX_KERNEL}"
                ),
            });
        }
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
        let td = self.td;
        let pix = rows * cols;
        let mac_slots = (td * taps * pix) as u64;
        // Every weight feeds every output pixel of its channel.
        let zero_weight_slots = weights.zeros() * pix as u64;
        acc.resize_for_overwrite(td, rows, cols);
        let ia = window.as_slice();
        let out = acc.as_mut_slice();
        if all_zero_i8(ia) {
            // A zero window contributes 0 to every accumulator (the
            // additive identity) and gates every modeled slot.
            out.fill(0);
            return Ok(EngineActivity {
                mac_slots,
                zero_act_slots: mac_slots,
                zero_weight_slots,
            });
        }
        // A strip is as many output columns as `K` staged input rows
        // hold, then as many output rows as the stage holds at that width
        // — the whole portion whenever its window fits.
        let strip_cols = cols.min((STAGE_PIXELS / k - k) / stride + 1);
        let strip_rows =
            rows.min((STAGE_PIXELS / ((strip_cols - 1) * stride + k) - k) / stride + 1);
        let mut stage = [[0i16; LANES]; STAGE_PIXELS];
        let mut lane_taps = [[0i16; LANES]; MAX_KERNEL * MAX_KERNEL];
        let mut tap_offsets = [0usize; MAX_KERNEL * MAX_KERNEL];
        let mut zero_act = 0u64;
        for c0 in (0..td).step_by(LANES) {
            let live = LANES.min(td - c0);
            // The block's taps, tap-major across lanes and negated (see
            // the MAC loop). Dead lanes keep stale taps.
            for l in 0..live {
                let w = &wt[(c0 + l) * taps..(c0 + l + 1) * taps];
                for (lt, &v) in lane_taps.iter_mut().zip(w) {
                    lt[l] = -i16::from(v);
                }
            }
            let lane_taps = &lane_taps[..taps];
            for r0 in (0..rows).step_by(strip_rows) {
                let nr = strip_rows.min(rows - r0);
                for q0 in (0..cols).step_by(strip_cols) {
                    let nc = strip_cols.min(cols - q0);
                    let (in_h, in_w) = ((nr - 1) * stride + k, (nc - 1) * stride + k);
                    // Stage the strip pixel-major: one input row of every
                    // lane at a time. A dead lane (the last block of a `Td`
                    // that is not a multiple of 8) repeats the last live
                    // one; its sums and zero counts are never stored.
                    for ir in 0..in_h {
                        let at = (r0 * stride + ir) * hc + q0 * stride;
                        let src: [&[i8]; LANES] = std::array::from_fn(|l| {
                            &ia[(c0 + l.min(live - 1)) * hr * hc + at..][..in_w]
                        });
                        let staged_row = &mut stage[ir * in_w..(ir + 1) * in_w];
                        for (i, px) in staged_row.iter_mut().enumerate() {
                            *px = std::array::from_fn(|l| i16::from(src[l][i]));
                        }
                    }
                    let staged = &stage[..in_h * in_w];
                    for kh in 0..k {
                        for kw in 0..k {
                            tap_offsets[kh * k + kw] = kh * in_w + kw;
                        }
                    }
                    let mut lane_zeros = [0u32; LANES];
                    for orow in 0..nr {
                        for ocol in 0..nc {
                            // One output pixel of every lane: the K×K taps
                            // of its adder trees, two taps at a time, and
                            // the lane's gated slots. Against a negated
                            // weight an int8 product lies in
                            // [−128·128, 127·128], so the sum of two fits
                            // i16 exactly; the pair is widened once and
                            // subtracted.
                            let mut sum = [0i32; LANES];
                            let mut zeros = [0u16; LANES];
                            let at = orow * stride * in_w + ocol * stride;
                            let mut pairs = tap_offsets[..taps]
                                .chunks_exact(2)
                                .zip(lane_taps.chunks_exact(2));
                            for (off, w) in &mut pairs {
                                let (x0, x1) = (&staged[at + off[0]], &staged[at + off[1]]);
                                for l in 0..LANES {
                                    let pair = x0[l]
                                        .wrapping_mul(w[0][l])
                                        .wrapping_add(x1[l].wrapping_mul(w[1][l]));
                                    sum[l] -= i32::from(pair);
                                    zeros[l] += u16::from(x0[l] == 0) + u16::from(x1[l] == 0);
                                }
                            }
                            if taps % 2 == 1 {
                                let (x, w) =
                                    (&staged[at + tap_offsets[taps - 1]], &lane_taps[taps - 1]);
                                for l in 0..LANES {
                                    sum[l] -= i32::from(x[l].wrapping_mul(w[l]));
                                    zeros[l] += u16::from(x[l] == 0);
                                }
                            }
                            let o = (r0 + orow) * cols + q0 + ocol;
                            for (l, &v) in sum[..live].iter().enumerate() {
                                out[(c0 + l) * pix + o] = v;
                            }
                            for (z, &n) in lane_zeros.iter_mut().zip(&zeros) {
                                *z += u32::from(n);
                            }
                        }
                    }
                    zero_act += lane_zeros[..live]
                        .iter()
                        .map(|&z| u64::from(z))
                        .sum::<u64>();
                }
            }
        }
        Ok(EngineActivity {
            mac_slots,
            zero_act_slots: zero_act,
            zero_weight_slots,
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
    fn rejects_a_kernel_wider_than_the_tap_buffer() {
        let mut cfg = EdeaConfig::paper();
        cfg.tile.kernel = MAX_KERNEL + 1;
        let k = cfg.tile.kernel;
        let engine = DwcEngine::new(&cfg);
        let window = Tensor3::<i8>::zeros(8, k + 1, k + 1);
        let weights = vec![1i8; 8 * k * k];
        let mut acc = Tensor3::<i32>::zeros(1, 1, 1);
        assert!(matches!(
            engine.compute_portion_into(&window, WeightSlice::new(&weights), 1, &mut acc),
            Err(CoreError::UnsupportedShape { .. })
        ));
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
