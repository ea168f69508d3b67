//! The pointwise convolution engine (paper Fig. 5b).
//!
//! "The PWC engine incorporates a total of 512 MAC operations. It operates
//! on an ifmap with dimensions 2×2×8 and a tiled kernel of size 1×1×8×16,
//! producing an ofmap with dimensions 2×2×16."
//!
//! [`PwcEngine::accumulate_portion`] models every engine cycle of one
//! portion over the layer's whole input depth — all `D/Td` channel
//! passes × all spatial tiles × all kernel tiles — in a single call: each
//! cycle is 64 dot-product lanes (`Tn·Tm·Tk`), each 8 deep (`Td`), summed
//! by 8-input adder trees, and the psum SRAM accumulates the passes. The
//! host does not follow the passes' order: integer sums are
//! order-independent, so one sweep of each pixel's psum row over the whole
//! depth is bit-exact with the pass-by-pass accumulation, and the activity
//! is the same per-cycle sum. A single cycle is the call at the extent of
//! one `Td`-deep slab, one `Tn×Tm` tile and one `Tk` kernel tile.

use edea_tensor::Tensor3;

use crate::config::EdeaConfig;
use crate::engine::{EngineActivity, WeightSlice};
use crate::CoreError;

/// The PWC PE array.
#[derive(Debug, Clone)]
pub struct PwcEngine {
    td: usize,
    tn: usize,
    tm: usize,
}

impl PwcEngine {
    /// Builds the engine from the architecture configuration.
    #[must_use]
    pub fn new(cfg: &EdeaConfig) -> Self {
        Self {
            td: cfg.tile.td,
            tn: cfg.tile.tn,
            tm: cfg.tile.tm,
        }
    }

    /// Accumulates a whole portion over its full input depth — every
    /// channel pass × spatial tile × kernel tile engine cycle — into its
    /// psum bank in one call.
    ///
    /// `mid` is the `(D, rows, cols)` intermediate slab (a whole number of
    /// `Td`-deep channel passes and `Tn×Tm` tiles), `weights` the layer's
    /// `D × K` pointwise weights in input-channel-major order (row `c`
    /// holds input channel `c`'s weight for every output channel — the
    /// layout [`crate::plan::LayerPlan`] transposes the layer into once),
    /// and `psum` the pixel-major `(rows·cols, K)` bank, accumulated with
    /// `+=`. The returned activity is exactly the sum of the covered
    /// cycles' per-cycle activities.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if `mid` is not a whole number of
    /// `Td`-deep passes and `Tn×Tm` tiles, `weights` is not a whole number
    /// of `D`-long columns, or `psum` does not hold `pixels × K` sums.
    pub fn accumulate_portion(
        &self,
        mid: &Tensor3<i8>,
        weights: WeightSlice<'_>,
        psum: &mut [i32],
    ) -> Result<EngineActivity, CoreError> {
        let (d, rows, cols) = mid.shape();
        let wt = weights.values();
        if mid.is_empty()
            || d % self.td != 0
            || rows % self.tn != 0
            || cols % self.tm != 0
            || wt.is_empty()
            || wt.len() % d != 0
        {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "PWC portion {:?} and {} weights, engine expects ({}·n, {}·n, {}·n) \
                     and whole columns of the depth",
                    mid.shape(),
                    wt.len(),
                    self.td,
                    self.tn,
                    self.tm
                ),
            });
        }
        let pix = rows * cols;
        let k = wt.len() / d;
        if psum.len() != pix * k {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "PWC psum bank of {} sums, portion needs {pix} pixels × {k} kernels",
                    psum.len()
                ),
            });
        }
        // Pixel-outer, K-inner: each live activation is one axpy of its
        // weight row into its pixel's contiguous psum row. The zero skip
        // sits on the activation *element* — coarse enough because every
        // skipped element elides a whole K-long row of multiplies (K ≥ 16
        // on the paper geometry, 1024 at the last layers, where ≥ 97 % of
        // the elements are zero), so one-tile and 64-pixel portions are
        // both served. A pixel's live activations are gathered
        // branch-free across the whole depth, `LIVE_GROUP` channels at a
        // time and negated (see `accumulate_row`), then applied together
        // one L1-sized block of the psum row at a time, so a block is
        // fetched once per group instead of once per channel pass. Integer
        // sums are order-independent, so the result is bit-exact with the
        // pass-by-pass, per-tile adder-tree fold.
        let m = mid.as_slice();
        let mut zero_act = 0u64;
        let mut live = [(0i16, 0usize); LIVE_GROUP];
        for (p, row) in psum.chunks_exact_mut(k).enumerate() {
            for c0 in (0..d).step_by(LIVE_GROUP) {
                let group = c0..(c0 + LIVE_GROUP).min(d);
                let mut n = 0;
                for c in group.clone() {
                    let a = m[c * pix + p];
                    live[n] = (-i16::from(a), c * k);
                    n += usize::from(a != 0);
                }
                zero_act += (group.len() - n) as u64;
                accumulate_row(row, &live[..n], wt);
            }
        }
        // Every activation feeds all K adder trees, every weight all
        // pixels — the modeled slots, whatever the shortcut skipped.
        Ok(EngineActivity {
            mac_slots: (d * k * pix) as u64,
            zero_act_slots: zero_act * k as u64,
            zero_weight_slots: weights.zeros() * pix as u64,
        })
    }
}

/// Input channels gathered per psum-row sweep (2 KiB of stack).
const LIVE_GROUP: usize = 128;
/// Psum sums per block of a row sweep: the block (1 KiB) and its pair
/// sums (512 B) stay in L1 while a group's activations are applied.
const ROW_BLOCK: usize = 256;

/// `row[j] −= Σ a · wt[offset + j]` over the `(a, offset)` pairs in
/// `live`, whose activations `a` are negated, one `ROW_BLOCK`-sum block of
/// the row at a time. Against a negated activation an int8 product lies
/// in [−128·128, 128·127], so the sum of two fits `i16` exactly: the
/// activations are applied two at a time, each pair sum widened once and
/// subtracted, with an odd one out applied alone. A pair's sums are
/// formed in an `i16` buffer and widened in a second loop: each loop then
/// vectorizes at its own element width (8 `i16` lanes, then 4 `i32`),
/// where one fused loop runs its 16-bit multiplies at the `i32` width,
/// half a register idle.
fn accumulate_row(row: &mut [i32], live: &[(i16, usize)], wt: &[i8]) {
    if live.is_empty() {
        return;
    }
    let (pairs, odd) = live.split_at(live.len() & !1);
    let mut sums = [0i16; ROW_BLOCK];
    for (j, block) in row.chunks_mut(ROW_BLOCK).enumerate() {
        let at = j * ROW_BLOCK;
        let n = block.len();
        let sums = &mut sums[..n];
        for pair in pairs.chunks_exact(2) {
            let ((a0, o0), (a1, o1)) = (pair[0], pair[1]);
            let (w0, w1) = (&wt[o0 + at..][..n], &wt[o1 + at..][..n]);
            for ((s, &x0), &x1) in sums.iter_mut().zip(w0).zip(w1) {
                *s = a0
                    .wrapping_mul(i16::from(x0))
                    .wrapping_add(a1.wrapping_mul(i16::from(x1)));
            }
            for (o, &s) in block.iter_mut().zip(sums.iter()) {
                *o -= i32::from(s);
            }
        }
        for &(a, offset) in odd {
            for (o, &x) in block.iter_mut().zip(&wt[offset + at..][..n]) {
                *o -= i32::from(a * i16::from(x));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edea_tensor::conv::pointwise_conv2d_i8;
    use edea_tensor::{rng, Tensor3, Tensor4};

    fn engine() -> PwcEngine {
        PwcEngine::new(&EdeaConfig::paper())
    }

    /// One engine cycle: the portion kernel at the extent of one 2×2 tile
    /// and one 16-wide kernel tile, its partials returned channel-major.
    fn one_tile(
        ifmap: &Tensor3<i8>,
        weights: &Tensor4<i8>,
    ) -> Result<(Tensor3<i32>, EngineActivity), CoreError> {
        let (k, td, _, _) = weights.shape();
        let by_channel: Vec<i8> = (0..td * k).map(|i| weights[(i % k, i / k, 0, 0)]).collect();
        let mut psum = vec![0i32; 4 * k];
        let activity =
            engine().accumulate_portion(ifmap, WeightSlice::new(&by_channel), &mut psum)?;
        let planes = Tensor3::from_fn(k, 2, 2, |ki, r, q| psum[(r * 2 + q) * k + ki]);
        Ok((planes, activity))
    }

    #[test]
    fn macs_per_cycle_is_512() {
        // One cycle — one 2×2 tile against one 16-wide kernel tile —
        // exercises Td · Tk · Tn · Tm slots.
        let ifmap = rng::uniform_i8_tensor3(8, 2, 2, -128, 127, 11);
        let weights = rng::uniform_i8_tensor4(16, 8, 1, 1, -128, 127, 12);
        let (_, activity) = one_tile(&ifmap, &weights).unwrap();
        assert_eq!(activity.mac_slots, 512);
    }

    #[test]
    fn matches_reference_pointwise_conv() {
        let ifmap = rng::uniform_i8_tensor3(8, 2, 2, -128, 127, 1);
        let weights = rng::uniform_i8_tensor4(16, 8, 1, 1, -128, 127, 2);
        let (partial, _) = one_tile(&ifmap, &weights).unwrap();
        assert_eq!(partial, pointwise_conv2d_i8(&ifmap, &weights));
        assert_eq!(partial.shape(), (16, 2, 2));
    }

    #[test]
    fn slice_accumulation_equals_full_depth_conv() {
        // Two channel slices accumulated externally must equal a single
        // 16-channel pointwise conv — the psum-SRAM contract.
        let full = rng::uniform_i8_tensor3(16, 2, 2, -128, 127, 3);
        let weights = rng::uniform_i8_tensor4(16, 16, 1, 1, -128, 127, 4);
        let lo = full.channel_slice(0, 8);
        let hi = full.channel_slice(8, 8);
        let w_lo = weights.channel_slice(0, 8);
        let w_hi = weights.channel_slice(8, 8);
        let a = one_tile(&lo, &w_lo).unwrap().0;
        let b = one_tile(&hi, &w_hi).unwrap().0;
        let reference = pointwise_conv2d_i8(&full, &weights);
        for k in 0..16 {
            for n in 0..2 {
                for m in 0..2 {
                    assert_eq!(a[(k, n, m)] + b[(k, n, m)], reference[(k, n, m)]);
                }
            }
        }
    }

    #[test]
    fn zero_activation_gating_counts() {
        let mut ifmap = rng::uniform_i8_tensor3(8, 2, 2, 1, 127, 5);
        let weights = rng::uniform_i8_tensor4(16, 8, 1, 1, 1, 127, 6);
        ifmap[(3, 1, 0)] = 0; // one zero activation feeds all 16 kernels
        let (_, activity) = one_tile(&ifmap, &weights).unwrap();
        assert_eq!(activity.zero_act_slots, 16);
    }

    #[test]
    fn rejects_wrong_shapes() {
        let e = engine();
        // A weight slice that is no whole number of 8-long columns.
        let ifmap = rng::uniform_i8_tensor3(8, 2, 2, -1, 1, 7);
        let mut psum = vec![0i32; 4 * 16];
        assert!(e
            .accumulate_portion(&ifmap, WeightSlice::new(&[1; 8 * 16 - 1]), &mut psum)
            .is_err());
        // 128 weights over 16 channels are 8 kernels: the bank's 64 sums
        // are not 4 pixels × 8 kernels.
        let deep = rng::uniform_i8_tensor3(16, 2, 2, -1, 1, 9);
        assert!(e
            .accumulate_portion(&deep, WeightSlice::new(&[1; 8 * 16]), &mut psum)
            .is_err());
    }

    #[test]
    fn full_parallelism_every_cycle() {
        // 100 % PE utilization: an 8×8 portion against K = 64 is 16
        // spatial tiles × 4 kernel tiles = 64 cycles of 512 slots each,
        // zero activations included.
        let mut mid = rng::uniform_i8_tensor3(8, 8, 8, -128, 127, 15);
        mid.as_mut_slice()[..64].fill(0);
        let weights = vec![1i8; 8 * 64];
        let mut psum = vec![0i32; 64 * 64];
        let activity = engine()
            .accumulate_portion(&mid, WeightSlice::new(&weights), &mut psum)
            .unwrap();
        assert_eq!(activity.mac_slots, 64 * 512);
    }

    #[test]
    fn worst_case_partial_fits_adder_tree_width() {
        let ifmap = rng::uniform_i8_tensor3(8, 2, 2, -128, -128, 13);
        let weights = rng::uniform_i8_tensor4(16, 8, 1, 1, -128, -128, 14);
        let (partial, _) = one_tile(&ifmap, &weights).unwrap();
        for &v in partial.as_slice() {
            assert_eq!(v, 8 * 128 * 128);
            assert!(edea_fixed::sat::fits_in_bits(i64::from(v), 19));
        }
    }
}
