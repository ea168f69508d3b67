//! Pre-sliced weight plans for the functional simulator.
//!
//! The loop nest of [`crate::accelerator`] consumes depthwise weights one
//! `Td`-kernel slice per channel pass, and the pointwise weights as one
//! input-channel-major `D × K` slice per portion, fed to the engines'
//! portion kernels. Laying the weights out is pure bookkeeping — the same
//! bytes come out for the same layer every time — so a [`LayerPlan`] does
//! it once, together with the zero-weight counts the engines report; a
//! [`NetworkPlan`] holds one plan per layer and is the unit a long-lived
//! deployment caches (see `edea::Deployment` and
//! [`crate::serve::SimulatorBackend`]).
//!
//! Plans are pure data derived from `(layer weights, config tile
//! geometry)`: executing through a plan is bit-exact with the unplanned
//! wrappers, which simply build a throwaway plan per call.

pub mod audit;

use std::sync::OnceLock;

use edea_nn::quantize::{QuantizedDscLayer, QuantizedDscNetwork};
use edea_nn::workload::LayerShape;

use crate::config::EdeaConfig;
use crate::engine::{count_zeros, WeightSlice};
use crate::CoreError;

/// The laid-out weights of one layer: everything `execute_layer` needs
/// that depends only on the layer and the tile geometry, not on the input.
#[derive(Debug, Clone)]
pub struct LayerPlan {
    shape: LayerShape,
    /// Lazily computed FNV-style digest of the plan's weight bytes, so a
    /// plan can detect being used with a same-shaped layer from a
    /// *different* network (`shape` alone identifies a layer only within
    /// one network). Lazy because only [`LayerPlan::check_layer`] reads
    /// it: the throwaway plans of the unplanned wrappers, and a session's
    /// plans, are built together with their network and never re-checked.
    fingerprint: OnceLock<u64>,
    /// The `(D, 1, K, K)` depthwise taps, flat and channel-major: channel
    /// pass `ct` is the contiguous run of its `Td` kernels.
    dw: Vec<i8>,
    /// Zero taps per channel pass.
    dw_zeros: Vec<u64>,
    /// The pointwise weights transposed to input-channel-major `(D, K)`:
    /// row `d` holds input channel `d`'s weight for every output channel —
    /// the layout the PWC portion kernel accumulates from. The plan holds
    /// this one copy of the pointwise weights and no other.
    pw: Vec<i8>,
    /// Zero pointwise weights.
    pw_zeros: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one byte run into an FNV-1a style digest, in `u64` chunks so the
/// per-run identity check stays far below the run itself (~0.1 ms for the
/// width-1.0 network's 3.3 MB of weights).
fn fnv_bytes(h: &mut u64, bytes: &[i8]) {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        for (dst, &src) in word.iter_mut().zip(chunk) {
            *dst = src as u8;
        }
        *h ^= u64::from_le_bytes(word);
        *h = h.wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        *h ^= u64::from(b as u8);
        *h = h.wrapping_mul(PRIME);
    }
}

/// Digest of a layer's weights: the depthwise taps, then the pointwise
/// weights one output channel (`D` bytes) at a time — the layer's own
/// layout, so [`LayerPlan::check_layer`] hashes the layer in place.
fn fingerprint<'a>(dw: &[i8], pw_rows: impl Iterator<Item = &'a [i8]>) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_bytes(&mut h, dw);
    for row in pw_rows {
        fnv_bytes(&mut h, row);
    }
    h
}

/// The `cols × rows` transpose of a row-major `rows × cols` matrix, in
/// square blocks so both sides stay cache-resident.
fn transpose(src: &[i8], rows: usize, cols: usize) -> Vec<i8> {
    const BLOCK: usize = 32;
    debug_assert_eq!(src.len(), rows * cols);
    let mut out = vec![0i8; rows * cols];
    for r0 in (0..rows).step_by(BLOCK) {
        for c0 in (0..cols).step_by(BLOCK) {
            for r in r0..(r0 + BLOCK).min(rows) {
                for c in c0..(c0 + BLOCK).min(cols) {
                    out[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
    out
}

/// `values` split into `n` equal runs, each run's zero count.
fn zeros_per_run(values: &[i8], n: usize) -> Vec<u64> {
    values
        .chunks_exact(values.len() / n)
        .map(count_zeros)
        .collect()
}

impl LayerPlan {
    /// Lays out one layer's weights for `cfg`'s tile geometry.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if the layer does not map onto the
    /// engine geometry.
    pub fn new(layer: &QuantizedDscLayer, cfg: &EdeaConfig) -> Result<Self, CoreError> {
        let shape = layer.shape();
        crate::schedule::check_layer_geometry(&shape, cfg)?;
        let channel_passes = shape.d_in / cfg.tile.td;
        let dw = layer.dw_weights().values().as_slice().to_vec();
        let pw = transpose(
            layer.pw_weights().values().as_slice(),
            shape.k_out,
            shape.d_in,
        );
        Ok(Self {
            shape,
            fingerprint: OnceLock::new(),
            dw_zeros: zeros_per_run(&dw, channel_passes),
            dw,
            pw_zeros: count_zeros(&pw),
            pw,
        })
    }

    /// The shape of the layer this plan was sliced from.
    #[must_use]
    pub fn shape(&self) -> &LayerShape {
        &self.shape
    }

    /// The `Td·K·K` depthwise taps of channel pass `ct`.
    #[must_use]
    pub(crate) fn dw_slice(&self, ct: usize) -> WeightSlice<'_> {
        let len = self.dw.len() / self.dw_zeros.len();
        WeightSlice::with_zeros(&self.dw[ct * len..(ct + 1) * len], self.dw_zeros[ct])
    }

    /// The layer's `D × K` input-channel-major pointwise weights.
    #[must_use]
    pub(crate) fn pw_weights(&self) -> WeightSlice<'_> {
        WeightSlice::with_zeros(&self.pw, self.pw_zeros)
    }

    /// Checks that this plan was built for `layer`: shape (which carries
    /// the layer index, so same-shaped layers of one network are told
    /// apart) plus a digest of the weight bytes (so a same-shaped layer
    /// of a *different* network — e.g. a recalibrated model — is caught
    /// instead of silently blending two models' parameters).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] naming the mismatch.
    pub fn check_layer(&self, layer: &QuantizedDscLayer) -> Result<(), CoreError> {
        if self.shape != layer.shape() {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "layer plan built for {:?} used with layer {:?}",
                    self.shape,
                    layer.shape()
                ),
            });
        }
        let (d, k) = (self.shape.d_in, self.shape.k_out);
        let own = *self.fingerprint.get_or_init(|| {
            // Back to output-channel rows, once per plan.
            fingerprint(&self.dw, transpose(&self.pw, d, k).chunks_exact(d))
        });
        let theirs = fingerprint(
            layer.dw_weights().values().as_slice(),
            layer.pw_weights().values().as_slice().chunks_exact(d),
        );
        if own != theirs {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "layer plan built for a different layer {} (same shape, different weights)",
                    self.shape.index
                ),
            });
        }
        Ok(())
    }
}

/// One [`LayerPlan`] per layer of a network — the weight-slicing cache a
/// long-lived deployment builds once and reuses for every request.
#[derive(Debug, Clone)]
pub struct NetworkPlan {
    layers: Vec<LayerPlan>,
}

impl NetworkPlan {
    /// Slices every layer of `net` for `cfg`'s tile geometry.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if any layer does not map onto the
    /// engine geometry.
    pub fn new(net: &QuantizedDscNetwork, cfg: &EdeaConfig) -> Result<Self, CoreError> {
        let layers = net
            .layers()
            .iter()
            .map(|l| LayerPlan::new(l, cfg))
            .collect::<Result<_, _>>()?;
        Ok(Self { layers })
    }

    /// The per-layer plans, in network order.
    #[must_use]
    pub fn layers(&self) -> &[LayerPlan] {
        &self.layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edea_testutil::deploy;

    #[test]
    fn plan_slices_match_on_the_fly_slicing() {
        let d = deploy(0.25, 21);
        let cfg = EdeaConfig::paper();
        let layer = &d.qnet.layers()[1];
        let plan = LayerPlan::new(layer, &cfg).unwrap();
        let s = layer.shape();
        let td = cfg.tile.td;
        let pw = layer.pw_weights().values();
        for ct in 0..s.d_in / td {
            let dw = layer.dw_weights().values().kernel_slice(ct * td, td);
            let slice = plan.dw_slice(ct);
            assert_eq!(slice.values(), dw.as_slice());
            assert_eq!(slice.zeros(), count_zeros(dw.as_slice()));
        }
        // Row c of the pointwise weights is input channel c's weight for
        // every output channel.
        let slice = plan.pw_weights();
        assert_eq!(slice.values().len(), s.d_in * s.k_out);
        for (c, row) in slice.values().chunks_exact(s.k_out).enumerate() {
            for (k, &w) in row.iter().enumerate() {
                assert_eq!(w, pw[(k, c, 0, 0)], "c={c} k={k}");
            }
        }
        assert_eq!(slice.zeros(), count_zeros(slice.values()));
    }

    #[test]
    fn network_plan_covers_every_layer_and_checks_identity() {
        let d = deploy(0.25, 22);
        let cfg = EdeaConfig::paper();
        let plan = NetworkPlan::new(&d.qnet, &cfg).unwrap();
        assert_eq!(plan.layers().len(), d.qnet.layers().len());
        for (lp, layer) in plan.layers().iter().zip(d.qnet.layers()) {
            lp.check_layer(layer).unwrap();
        }
        // A plan for one layer rejects a different layer.
        let err = plan.layers()[0]
            .check_layer(&d.qnet.layers()[1])
            .unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedShape { .. }), "{err:?}");
    }

    #[test]
    fn plan_rejects_same_shaped_layer_with_different_weights() {
        // Two deployments at the same width share every LayerShape
        // (including the index) but have different weights; the
        // fingerprint must tell them apart.
        let a = deploy(0.25, 31);
        let b = deploy(0.25, 32);
        let cfg = EdeaConfig::paper();
        let plan = LayerPlan::new(&a.qnet.layers()[0], &cfg).unwrap();
        plan.check_layer(&a.qnet.layers()[0]).unwrap();
        let err = plan.check_layer(&b.qnet.layers()[0]).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedShape { .. }), "{err:?}");
        let net_plan = NetworkPlan::new(&a.qnet, &cfg).unwrap();
        assert!(net_plan
            .layers()
            .iter()
            .zip(b.qnet.layers())
            .any(|(lp, layer)| lp.check_layer(layer).is_err()));
    }

    #[test]
    fn plan_rejects_unmappable_geometry() {
        let d = deploy(0.25, 23);
        let mut cfg = EdeaConfig::paper();
        cfg.tile.td = 3; // no layer's d_in is a multiple of 3
        assert!(LayerPlan::new(&d.qnet.layers()[0], &cfg).is_err());
    }
}
