//! The pointwise convolution engine (paper Fig. 5b).
//!
//! "The PWC engine incorporates a total of 512 MAC operations. It operates
//! on an ifmap with dimensions 2×2×8 and a tiled kernel of size 1×1×8×16,
//! producing an ofmap with dimensions 2×2×16."
//!
//! One invocation of [`PwcEngine::compute_tile`] models one engine cycle:
//! 64 dot-product lanes (`Tn·Tm·Tk`), each 8 deep (`Td`), summed by
//! 8-input adder trees. [`PwcEngine::accumulate_portion`] models every
//! cycle of one portion's channel pass — all spatial tiles × all kernel
//! tiles — in a single call. The values are *partial sums over one channel
//! slice*; accumulation across the `⌈D/Td⌉` passes happens in the psum
//! SRAM (see [`crate::accelerator`]).

use edea_tensor::{Tensor3, Tensor4};

use crate::config::EdeaConfig;
use crate::engine::{transpose_into, EngineActivity, WeightSlice};
use crate::CoreError;

/// Output of one PWC engine cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct PwcTileOutput {
    /// Partial sums for one channel slice, shape `(Tk, Tn, Tm)`.
    pub partial: Tensor3<i32>,
    /// Multiplier activity for the power model.
    pub activity: EngineActivity,
}

/// The PWC PE array.
#[derive(Debug, Clone)]
pub struct PwcEngine {
    td: usize,
    tk: usize,
    tn: usize,
    tm: usize,
}

impl PwcEngine {
    /// Builds the engine from the architecture configuration.
    #[must_use]
    pub fn new(cfg: &EdeaConfig) -> Self {
        Self {
            td: cfg.tile.td,
            tk: cfg.tile.tk,
            tn: cfg.tile.tn,
            tm: cfg.tile.tm,
        }
    }

    /// MAC slots exercised per invocation (512 for the paper config).
    #[must_use]
    pub fn macs_per_cycle(&self) -> u64 {
        (self.td * self.tk * self.tn * self.tm) as u64
    }

    /// Computes one tile: `ifmap` is the `(Td, Tn, Tm)` intermediate tile
    /// from the Non-Conv unit, `weights` the `(Tk, Td, 1, 1)` kernel tile.
    ///
    /// Allocating wrapper over [`PwcEngine::compute_tile_into`]: it lays
    /// the kernel tile out input-channel-major and returns the partials
    /// channel-major.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if tile shapes do not match the
    /// engine geometry.
    pub fn compute_tile(
        &self,
        ifmap: &Tensor3<i8>,
        weights: &Tensor4<i8>,
    ) -> Result<PwcTileOutput, CoreError> {
        if weights.shape() != (self.tk, self.td, 1, 1) {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "PWC weight tile {:?}, engine expects ({}, {}, 1, 1)",
                    weights.shape(),
                    self.tk,
                    self.td
                ),
            });
        }
        let mut by_channel = vec![0i8; self.td * self.tk];
        transpose_into(weights.as_slice(), self.tk, self.td, &mut by_channel);
        let mut sums = Tensor3::<i32>::zeros(self.tn, self.tm, self.tk);
        let activity = self.compute_tile_into(ifmap, WeightSlice::new(&by_channel), &mut sums)?;
        let mut partial = Tensor3::<i32>::zeros(self.tk, self.tn, self.tm);
        transpose_into(
            sums.as_slice(),
            self.tn * self.tm,
            self.tk,
            partial.as_mut_slice(),
        );
        Ok(PwcTileOutput { partial, activity })
    }

    /// Computes one tile into a caller-provided buffer — the one-cycle
    /// case of [`PwcEngine::accumulate_portion`], bit-exact with
    /// [`PwcEngine::compute_tile`]. `weights` is the `Td × Tk` kernel tile
    /// in input-channel-major order, and `partial` is reshaped to the
    /// pixel-major `(Tn, Tm, Tk)` layout of a psum bank.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if `ifmap` is not `(Td, Tn, Tm)` or
    /// `weights` is not `Td·Tk` long.
    pub fn compute_tile_into(
        &self,
        ifmap: &Tensor3<i8>,
        weights: WeightSlice<'_>,
        partial: &mut Tensor3<i32>,
    ) -> Result<EngineActivity, CoreError> {
        if ifmap.shape() != (self.td, self.tn, self.tm) {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "PWC ifmap tile {:?}, engine expects ({}, {}, {})",
                    ifmap.shape(),
                    self.td,
                    self.tn,
                    self.tm
                ),
            });
        }
        if weights.values().len() != self.td * self.tk {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "PWC weight tile of {} weights, engine expects {}",
                    weights.values().len(),
                    self.td * self.tk
                ),
            });
        }
        partial.resize_zeroed(self.tn, self.tm, self.tk);
        self.accumulate_portion(ifmap.as_slice(), weights, partial.as_mut_slice())
    }

    /// Accumulates one channel pass of a whole portion — every spatial
    /// tile × kernel tile engine cycle — into its psum bank in one call.
    ///
    /// `mid` is the `(Td, pixels)` channel-major intermediate slab (a whole
    /// number of `Tn×Tm` tiles), `weights` the pass's `Td × K` weights in
    /// input-channel-major order (row `c` holds input channel `c`'s weight
    /// for every output channel — the layout
    /// [`crate::plan::LayerPlan`] transposes the layer into once), and
    /// `psum` the pixel-major `(pixels, K)` bank, accumulated with `+=`.
    /// The returned activity is exactly the sum of the covered cycles'
    /// per-cycle activities.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if `mid` is not a whole number of
    /// `Td`-deep tiles, `weights` is not a whole number of `Td`-long
    /// columns, or `psum` does not hold `pixels × K` sums.
    pub fn accumulate_portion(
        &self,
        mid: &[i8],
        weights: WeightSlice<'_>,
        psum: &mut [i32],
    ) -> Result<EngineActivity, CoreError> {
        let tile = self.td * self.tn * self.tm;
        let wt = weights.values();
        let pix = mid.len() / self.td;
        let k = wt.len() / self.td;
        if mid.is_empty() || mid.len() % tile != 0 || wt.is_empty() || wt.len() % self.td != 0 {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "PWC portion of {} activations and {} weights, engine expects \
                     multiples of {tile} and {}",
                    mid.len(),
                    wt.len(),
                    self.td
                ),
            });
        }
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
        // branch-free, then applied together one register-sized chunk of
        // the psum row at a time, so the row is loaded and stored once per
        // group instead of once per activation. Integer sums are
        // order-independent, so the result is bit-exact with the per-tile
        // adder-tree fold.
        let mut zero_act = 0u64;
        let mut live = [(0i16, 0usize); LIVE_GROUP];
        for (p, row) in psum.chunks_exact_mut(k).enumerate() {
            for c0 in (0..self.td).step_by(LIVE_GROUP) {
                let group = c0..(c0 + LIVE_GROUP).min(self.td);
                let mut n = 0;
                for c in group.clone() {
                    let a = mid[c * pix + p];
                    live[n] = (i16::from(a), c * k);
                    n += usize::from(a != 0);
                }
                zero_act += (group.len() - n) as u64;
                accumulate_row(row, &live[..n], wt);
            }
        }
        // Every activation feeds all K adder trees, every weight all
        // pixels — the modeled slots, whatever the shortcut skipped.
        Ok(EngineActivity {
            mac_slots: (self.td * k * pix) as u64,
            zero_act_slots: zero_act * k as u64,
            zero_weight_slots: weights.zeros() * pix as u64,
        })
    }
}

/// Input channels gathered per psum-row sweep (the paper's `Td`).
const LIVE_GROUP: usize = 8;
/// Psum sums held in registers per chunk of a row sweep.
const ROW_CHUNK: usize = 16;

/// `row[j] += Σ a · wt[offset + j]` over the `(a, offset)` pairs in
/// `live`, one `ROW_CHUNK`-sum chunk of the row at a time. The product of
/// two int8 values always fits `i16`, which keeps the multiplies 16-bit.
fn accumulate_row(row: &mut [i32], live: &[(i16, usize)], wt: &[i8]) {
    if live.is_empty() {
        return;
    }
    let done = row.len() - row.len() % ROW_CHUNK;
    for (j, chunk) in row.chunks_exact_mut(ROW_CHUNK).enumerate() {
        let mut acc = [0i32; ROW_CHUNK];
        acc.copy_from_slice(chunk);
        for &(a, offset) in live {
            let at = offset + j * ROW_CHUNK;
            for (o, &w) in acc.iter_mut().zip(&wt[at..at + ROW_CHUNK]) {
                *o += i32::from(a * i16::from(w));
            }
        }
        chunk.copy_from_slice(&acc);
    }
    for (j, o) in row[done..].iter_mut().enumerate() {
        for &(a, offset) in live {
            *o += i32::from(a * i16::from(wt[offset + done + j]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edea_tensor::conv::pointwise_conv2d_i8;
    use edea_tensor::rng;

    fn engine() -> PwcEngine {
        PwcEngine::new(&EdeaConfig::paper())
    }

    #[test]
    fn macs_per_cycle_is_512() {
        assert_eq!(engine().macs_per_cycle(), 512);
    }

    #[test]
    fn matches_reference_pointwise_conv() {
        let ifmap = rng::uniform_i8_tensor3(8, 2, 2, -128, 127, 1);
        let weights = rng::uniform_i8_tensor4(16, 8, 1, 1, -128, 127, 2);
        let out = engine().compute_tile(&ifmap, &weights).unwrap();
        assert_eq!(out.partial, pointwise_conv2d_i8(&ifmap, &weights));
        assert_eq!(out.partial.shape(), (16, 2, 2));
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
        let e = engine();
        let a = e.compute_tile(&lo, &w_lo).unwrap().partial;
        let b = e.compute_tile(&hi, &w_hi).unwrap().partial;
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
        let out = engine().compute_tile(&ifmap, &weights).unwrap();
        assert_eq!(out.activity.zero_act_slots, 16);
    }

    #[test]
    fn rejects_wrong_shapes() {
        let e = engine();
        let ifmap = rng::uniform_i8_tensor3(8, 2, 2, -1, 1, 7);
        let bad_w = rng::uniform_i8_tensor4(8, 8, 1, 1, -1, 1, 8);
        assert!(e.compute_tile(&ifmap, &bad_w).is_err());
        let bad_ifmap = rng::uniform_i8_tensor3(16, 2, 2, -1, 1, 9);
        let w = rng::uniform_i8_tensor4(16, 8, 1, 1, -1, 1, 10);
        assert!(e.compute_tile(&bad_ifmap, &w).is_err());
    }

    #[test]
    fn full_parallelism_every_cycle() {
        let ifmap = rng::uniform_i8_tensor3(8, 2, 2, -128, 127, 11);
        let weights = rng::uniform_i8_tensor4(16, 8, 1, 1, -128, 127, 12);
        let out = engine().compute_tile(&ifmap, &weights).unwrap();
        assert_eq!(out.activity.mac_slots, 512);
    }

    #[test]
    fn worst_case_partial_fits_adder_tree_width() {
        let ifmap = rng::uniform_i8_tensor3(8, 2, 2, -128, -128, 13);
        let weights = rng::uniform_i8_tensor4(16, 8, 1, 1, -128, -128, 14);
        let out = engine().compute_tile(&ifmap, &weights).unwrap();
        for &v in out.partial.as_slice() {
            assert_eq!(v, 8 * 128 * 128);
            assert!(edea_fixed::sat::fits_in_bits(i64::from(v), 19));
        }
    }
}
