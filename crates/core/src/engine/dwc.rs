//! The depthwise convolution engine (paper Fig. 5a).
//!
//! "The DWC engine consists of a fully parallel PE array capable of
//! simultaneously computing 8 channels of ifmap, resulting in a total of
//! 288 MAC operations. Each column of PE performs 3×3 MACs using an adder
//! tree and produces the output of DWC. … The DWC engine utilizes an ifmap
//! of size 4×4×8 (5×5×8 when stride is 2) and a tiled kernel of size 3×3×8,
//! and generates an ofmap of size 2×2×8."
//!
//! [`DwcEngine::compute_portion_into`] models every engine cycle of one
//! portion's channel pass in a single call: each cycle all `Td` channel
//! PEs fire in parallel, each computing its `Tn×Tm` output windows
//! through 9-input adder trees. A single cycle is the call at the extent
//! of one `Tn×Tm` tile.
//!
//! The portion kernel mirrors the PE array's layout on the host: it
//! computes 8 channels side by side, one per lane. It stages the input
//! window once per call into a bounded pixel-major buffer of `i16` lane
//! operands (8 channels of one pixel = one 128-bit register, so the
//! baseline SSE2 build multiplies with `pmullw`), reading the in-map rows
//! straight from the layer input and zero-filling the halo that falls in
//! the padding, then accumulates each output pixel's K×K taps of all lanes
//! at once in an `[i32; 8]` block, stored contiguously in the pixel-major
//! accumulators, and counts each lane's gated slots beside them. A `Td`
//! that is not a multiple of 8 leaves dead lanes in the last channel
//! block; a window larger than the buffer is processed in strips of
//! output rows and columns. Every `Td`, kernel, stride, pad and portion
//! size runs this one path. The only skip is a window that is zero
//! throughout.

use edea_tensor::ops::all_zero_i8;
use edea_tensor::Tensor3;

use crate::config::EdeaConfig;
use crate::engine::{EngineActivity, WeightSlice};
use crate::schedule::Portion;
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

    /// Computes one channel pass of a whole portion — every spatial tile's
    /// engine cycle — in one call, reading the layer input in place.
    ///
    /// `input` is the unpadded, square `(D, H, H)` layer input, and the
    /// pass covers its channels `c0..c0 + Td`. `portion` is the ofmap
    /// rectangle, `stride` and `pad` are the layer's: input pixels outside
    /// the map are the zero padding. `weights` holds the pass's `Td·K·K`
    /// taps in channel-major order, and `acc` is reshaped to the
    /// pixel-major `(rows, cols, Td)` accumulators. The portion must be a
    /// whole number of `Tn×Tm` tiles inside the ofmap, and the returned
    /// activity is exactly the sum of those tiles' per-cycle activities.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if the engine kernel is wider than
    /// 7×7, `stride` is 0, the input is not square or has no channels
    /// `c0..c0 + Td`, the portion is not a whole number of tiles or
    /// reaches past the padded map, or `weights` is not `Td·K·K` long.
    #[expect(
        clippy::too_many_arguments,
        reason = "channel offset, weights, portion, stride, pad and accumulator are independent inputs"
    )]
    pub fn compute_portion_into(
        &self,
        input: &Tensor3<i8>,
        c0: usize,
        weights: WeightSlice<'_>,
        portion: &Portion,
        stride: usize,
        pad: usize,
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
        let td = self.td;
        let (d, side, width) = input.shape();
        let (rows, cols) = (portion.rows, portion.cols);
        // The last of `n` outputs from `first` reads the padded input up
        // to `(first + n − 1)·stride + K`.
        let fits = |first: usize, n: usize| n > 0 && (first + n - 1) * stride + k <= side + 2 * pad;
        if stride == 0
            || side != width
            || c0 + td > d
            || rows % self.tn != 0
            || cols % self.tm != 0
            || !fits(portion.row0, rows)
            || !fits(portion.col0, cols)
        {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "DWC portion {portion:?} of channels {c0}..{} at stride {stride}, pad \
                     {pad} is not a whole number of ({}, {}) tiles of a {:?} input",
                    c0 + td,
                    self.tn,
                    self.tm,
                    input.shape()
                ),
            });
        }
        let wt = weights.values();
        if wt.len() != td * taps {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "DWC weight slice of {} taps, engine expects {}",
                    wt.len(),
                    td * taps
                ),
            });
        }
        let pix = rows * cols;
        let mac_slots = (td * taps * pix) as u64;
        // Every weight feeds every output pixel of its channel.
        let zero_weight_slots = weights.zeros() * pix as u64;
        acc.resize_for_overwrite(rows, cols, td);
        let ia = input.as_slice();
        let out = acc.as_mut_slice();
        let plane = |c: usize| &ia[c * side * side..(c + 1) * side * side];
        // The in-map rows the window touches, tested in place: one run per
        // channel, or one run for the whole block when those rows are the
        // whole map (every portion of the late layers). A zero window in
        // rows that are not zero just takes the MAC loop, which counts the
        // same gated slots.
        let (in_r0, _, in_rows, _) = portion.input_region(stride, k, pad, side);
        let window_zero = if in_rows == side {
            all_zero_i8(&ia[c0 * side * side..(c0 + td) * side * side])
        } else {
            (c0..c0 + td).all(|c| all_zero_i8(&plane(c)[in_r0 * side..(in_r0 + in_rows) * side]))
        };
        if window_zero {
            // A zero window (its halo is padding) contributes 0 to every
            // accumulator (the additive identity) and gates every modeled
            // slot.
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
        for b0 in (0..td).step_by(LANES) {
            let live = LANES.min(td - b0);
            // The block's taps, tap-major across lanes and negated (see
            // the MAC loop). Dead lanes keep stale taps.
            for l in 0..live {
                let w = &wt[(b0 + l) * taps..(b0 + l + 1) * taps];
                for (lt, &v) in lane_taps.iter_mut().zip(w) {
                    lt[l] = -i16::from(v);
                }
            }
            let lane_taps = &lane_taps[..taps];
            // A dead lane (the last block of a `Td` that is not a
            // multiple of 8) repeats the last live one; its sums and zero
            // counts are never stored.
            let lanes: [&[i8]; LANES] = std::array::from_fn(|l| plane(c0 + b0 + l.min(live - 1)));
            for sr in (0..rows).step_by(strip_rows) {
                let nr = strip_rows.min(rows - sr);
                for sc in (0..cols).step_by(strip_cols) {
                    let nc = strip_cols.min(cols - sc);
                    let (in_h, in_w) = ((nr - 1) * stride + k, (nc - 1) * stride + k);
                    // The strip's window in padded coordinates, and the
                    // span of its columns that lies in the map.
                    let top = (portion.row0 + sr) * stride;
                    let left = (portion.col0 + sc) * stride;
                    let x_lo = pad.saturating_sub(left).min(in_w);
                    let x_hi = (side + pad).saturating_sub(left).clamp(x_lo, in_w);
                    let map_x = (left + x_lo).saturating_sub(pad).min(side);
                    // Stage the strip pixel-major, one input row of every
                    // lane at a time: in-map pixels from the input, halo
                    // pixels zero.
                    for ir in 0..in_h {
                        let staged_row = &mut stage[ir * in_w..(ir + 1) * in_w];
                        let y = (top + ir).wrapping_sub(pad);
                        if y >= side {
                            staged_row.fill([0; LANES]);
                            continue;
                        }
                        staged_row[..x_lo].fill([0; LANES]);
                        staged_row[x_hi..].fill([0; LANES]);
                        let src: [&[i8]; LANES] =
                            std::array::from_fn(|l| &lanes[l][y * side + map_x..][..x_hi - x_lo]);
                        for (i, px) in staged_row[x_lo..x_hi].iter_mut().enumerate() {
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
                            let o = (sr + orow) * cols + sc + ocol;
                            out[o * td + b0..][..live].copy_from_slice(&sum[..live]);
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
    use edea_tensor::{rng, Tensor4};

    fn engine() -> DwcEngine {
        DwcEngine::new(&EdeaConfig::paper())
    }

    /// One engine cycle: the portion kernel at the extent of one 2×2 tile
    /// over an unpadded window, its accumulators returned channel-major.
    fn one_tile(
        ifmap: &Tensor3<i8>,
        weights: &Tensor4<i8>,
        stride: usize,
    ) -> Result<(Tensor3<i32>, EngineActivity), CoreError> {
        let tile = Portion {
            row0: 0,
            col0: 0,
            rows: 2,
            cols: 2,
        };
        let mut acc = Tensor3::zeros(1, 1, 1);
        let weights = WeightSlice::new(weights.as_slice());
        let activity =
            engine().compute_portion_into(ifmap, 0, weights, &tile, stride, 0, &mut acc)?;
        let planes = Tensor3::from_fn(8, 2, 2, |c, r, q| acc[(r, q, c)]);
        Ok((planes, activity))
    }

    #[test]
    fn macs_per_cycle_is_288() {
        // One cycle — one 2×2 tile — exercises Td · K² · Tn · Tm slots.
        let ifmap = rng::uniform_i8_tensor3(8, 4, 4, -128, 127, 12);
        let weights = rng::uniform_i8_tensor4(8, 1, 3, 3, -128, 127, 13);
        let (_, activity) = one_tile(&ifmap, &weights, 1).unwrap();
        assert_eq!(activity.mac_slots, 288);
    }

    #[test]
    fn matches_reference_conv_stride1() {
        // A 4×4×8 window against the golden depthwise conv (valid padding).
        let ifmap = rng::uniform_i8_tensor3(8, 4, 4, -128, 127, 1);
        let weights = rng::uniform_i8_tensor4(8, 1, 3, 3, -128, 127, 2);
        let (acc, _) = one_tile(&ifmap, &weights, 1).unwrap();
        let reference = depthwise_conv2d_i8(&ifmap, &weights, 1, 0);
        assert_eq!(acc, reference);
    }

    #[test]
    fn matches_reference_conv_stride2() {
        // Fig. 5a: a 5×5×8 window at stride 2 still yields 2×2×8 outputs.
        let ifmap = rng::uniform_i8_tensor3(8, 5, 5, -128, 127, 3);
        let weights = rng::uniform_i8_tensor4(8, 1, 3, 3, -128, 127, 4);
        let (acc, _) = one_tile(&ifmap, &weights, 2).unwrap();
        let reference = depthwise_conv2d_i8(&ifmap, &weights, 2, 0);
        assert_eq!(acc.shape(), (8, 2, 2));
        assert_eq!(acc, reference);
    }

    #[test]
    fn counts_zero_operands() {
        let mut ifmap = rng::uniform_i8_tensor3(8, 4, 4, 1, 127, 5); // no zeros
        let weights = rng::uniform_i8_tensor4(8, 1, 3, 3, 1, 127, 6); // no zeros
        let (_, activity) = one_tile(&ifmap, &weights, 1).unwrap();
        assert_eq!(activity.zero_act_slots, 0);
        assert_eq!(activity.zero_weight_slots, 0);
        // Zero one input pixel: it participates in windows covering it.
        ifmap[(0, 1, 1)] = 0;
        let (_, activity) = one_tile(&ifmap, &weights, 1).unwrap();
        // Pixel (1,1) is covered by all four 3×3 windows at stride 1.
        assert_eq!(activity.zero_act_slots, 4);
    }

    #[test]
    fn worst_case_accumulator_fits_19_bits() {
        let ifmap = rng::uniform_i8_tensor3(8, 4, 4, -128, -128, 7);
        let weights = rng::uniform_i8_tensor4(8, 1, 3, 3, -128, -128, 8);
        let (acc, _) = one_tile(&ifmap, &weights, 1).unwrap();
        for &v in acc.as_slice() {
            assert_eq!(v, 9 * 128 * 128);
            assert!(edea_fixed::sat::fits_in_bits(i64::from(v), 19));
        }
    }

    #[test]
    fn rejects_wrong_tile_shapes() {
        let weights = rng::uniform_i8_tensor4(8, 1, 3, 3, -1, 1, 9);
        let bad_ifmap = rng::uniform_i8_tensor3(8, 4, 4, -1, 1, 10);
        // 4×4 window is invalid at stride 2 (needs 5×5).
        assert!(one_tile(&bad_ifmap, &weights, 2).is_err());
        let bad_channels = rng::uniform_i8_tensor3(4, 4, 4, -1, 1, 11);
        assert!(one_tile(&bad_channels, &weights, 1).is_err());
    }

    #[test]
    fn rejects_a_kernel_wider_than_the_tap_buffer() {
        let mut cfg = EdeaConfig::paper();
        cfg.tile.kernel = MAX_KERNEL + 1;
        let k = cfg.tile.kernel;
        let engine = DwcEngine::new(&cfg);
        let input = Tensor3::<i8>::zeros(8, k + 1, k + 1);
        let weights = vec![1i8; 8 * k * k];
        let tile = Portion {
            row0: 0,
            col0: 0,
            rows: 2,
            cols: 2,
        };
        let mut acc = Tensor3::<i32>::zeros(1, 1, 1);
        assert!(matches!(
            engine.compute_portion_into(
                &input,
                0,
                WeightSlice::new(&weights),
                &tile,
                1,
                0,
                &mut acc
            ),
            Err(CoreError::UnsupportedShape { .. })
        ));
    }

    #[test]
    fn full_parallelism_every_cycle() {
        // 100 % PE utilization: each of an 8×8 portion's 16 cycles
        // exercises all 288 slots, halo and zero operands included.
        let mut input = rng::uniform_i8_tensor3(8, 8, 8, -128, 127, 14);
        input.as_mut_slice()[..64].fill(0);
        let weights = rng::uniform_i8_tensor4(8, 1, 3, 3, -128, 127, 15);
        let portion = Portion {
            row0: 0,
            col0: 0,
            rows: 8,
            cols: 8,
        };
        let mut acc = Tensor3::zeros(1, 1, 1);
        let weights = WeightSlice::new(weights.as_slice());
        let activity = engine()
            .compute_portion_into(&input, 0, weights, &portion, 1, 1, &mut acc)
            .unwrap();
        assert_eq!(activity.mac_slots, 16 * 288);
    }
}
