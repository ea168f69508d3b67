//! Deployment artifact: the binary blob the accelerator consumes.
//!
//! The paper's flow ends with pre-computed int8 weights and Q8.16 Non-Conv
//! constants being loaded into the accelerator's buffers from external
//! memory. This module defines that artifact: a deterministic, versioned,
//! checksummed binary serialization of a [`QuantizedDscNetwork`] — what a
//! driver would DMA to the device — with a strict round-trip guarantee.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "EDEA"  | u32 version | u32 layer count | f32 input scale
//! per layer:
//!   u32×5 shape (in_spatial, d_in, k_out, stride, kernel)
//!   u32×3 stage (pad, op, residual flags)
//!   i32 out_lo | u32 residual-scale presence | [i32 raw Q8.16 scale]
//!   f32×3 scales (s_in, s_mid, s_out)
//!   f32 dw weight scale, i8[k²·D] dw weights
//!   f32 pw weight scale, i8[D·K] pw weights
//!   i32[2·D] nonconv1 (k, b) raw Q8.16 words
//!   i32[2·K] nonconv2 (k, b) raw Q8.16 words
//! u32 FNV-1a checksum of everything above
//! ```
//!
//! Version 3 records exactly the stage axes the datapath executes: the
//! symmetric pad, the stage op and the residual markers, plus the
//! residual/out-lo words that let the MobileNetV2 inverted residual
//! round-trip exactly. Blobs of earlier versions (whose wider row also
//! carried dilated-window, kernels-per-channel and asymmetric-pad axes)
//! are rejected by the version check.
//!
//! Every size derived from header fields is computed with checked
//! arithmetic and bounded by the blob before anything is allocated, so a
//! malformed header yields a typed error, never a panic or an unbounded
//! allocation.

use edea_fixed::Q8x16;
use edea_tensor::{QTensor4, QuantParams, Tensor4};

use crate::fold::FoldedAffine;
use crate::quantize::{QuantizedDscLayer, QuantizedDscNetwork};
use crate::workload::{LayerShape, StageOp};
use crate::NnError;

const MAGIC: &[u8; 4] = b"EDEA";
/// Artifact format version.
pub const ARTIFACT_VERSION: u32 = 3;

/// FNV-1a, the checksum of the artifact body.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i8s(&mut self, vs: &[i8]) {
        self.buf.extend(vs.iter().map(|&v| v as u8));
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], NnError> {
        if n > self.buf.len() - self.pos {
            return Err(NnError::InvalidConfig {
                detail: format!("artifact truncated at byte {}", self.pos),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u32(&mut self) -> Result<u32, NnError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn i32(&mut self) -> Result<i32, NnError> {
        Ok(i32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn f32(&mut self) -> Result<f32, NnError> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn i8s(&mut self, n: usize) -> Result<Vec<i8>, NnError> {
        Ok(self.take(n)?.iter().map(|&b| b as i8).collect())
    }
    /// `n` raw Q8.16 `(k, b)` word pairs of Non-Conv `unit` in `layer`;
    /// the bytes are taken before any allocation, so `n` is bounded by the
    /// blob.
    fn affines(
        &mut self,
        n: usize,
        layer: usize,
        unit: &str,
    ) -> Result<Vec<FoldedAffine>, NnError> {
        let bytes = self.take(checked_size(&[n, 8])?)?;
        bytes
            .chunks_exact(8)
            .enumerate()
            .map(|(c, w)| {
                let word = |i: usize| i32::from_le_bytes(w[i..i + 4].try_into().expect("4 bytes"));
                let k = q8x16(word(0), || format!("layer {layer}: {unit}[{c}].k"))?;
                let b = q8x16(word(4), || format!("layer {layer}: {unit}[{c}].b"))?;
                Ok(FoldedAffine {
                    k_exact: k.to_f64(),
                    b_exact: b.to_f64(),
                    k,
                    b,
                })
            })
            .collect()
    }
}

/// The product of header-derived sizes, or a typed error if it overflows.
fn checked_size(factors: &[usize]) -> Result<usize, NnError> {
    factors
        .iter()
        .try_fold(1usize, |acc, &f| acc.checked_mul(f))
        .ok_or_else(|| NnError::InvalidConfig {
            detail: format!("artifact size {factors:?} overflows"),
        })
}

/// Serializes a quantized network into the deployment blob.
#[must_use]
pub fn serialize(net: &QuantizedDscNetwork) -> Vec<u8> {
    let mut w = Writer { buf: Vec::new() };
    w.buf.extend_from_slice(MAGIC);
    w.u32(ARTIFACT_VERSION);
    w.u32(net.layers().len() as u32);
    w.f32(net.input_params().scale());
    for l in net.layers() {
        let s = l.shape();
        for v in [s.in_spatial, s.d_in, s.k_out, s.stride, s.kernel] {
            w.u32(v as u32);
        }
        let op = match s.op {
            StageOp::Dsc => 0,
            StageOp::PwcOnly => 1,
        };
        let flags = u32::from(s.residual_save) | (u32::from(s.residual_add) << 1);
        for v in [s.pad as u32, op, flags] {
            w.u32(v);
        }
        w.i32(i32::from(l.out_lo()));
        match l.residual_scale() {
            Some(r) => {
                w.u32(1);
                w.i32(r.raw());
            }
            None => w.u32(0),
        }
        w.f32(l.s_in());
        w.f32(l.s_mid());
        w.f32(l.s_out());
        w.f32(l.dw_weights().params().scale());
        w.i8s(l.dw_weights().values().as_slice());
        w.f32(l.pw_weights().params().scale());
        w.i8s(l.pw_weights().values().as_slice());
        for f in l.nonconv1().iter().chain(l.nonconv2()) {
            w.i32(f.k.raw());
            w.i32(f.b.raw());
        }
    }
    let checksum = fnv1a(&w.buf);
    w.u32(checksum);
    w.buf
}

/// A raw Q8.16 word read from the blob, or a typed error naming the word
/// (`what`) if it does not fit in 24 bits.
fn q8x16(raw: i32, what: impl FnOnce() -> String) -> Result<Q8x16, NnError> {
    if (Q8x16::MIN.raw()..=Q8x16::MAX.raw()).contains(&raw) {
        Ok(Q8x16::from_raw(raw))
    } else {
        Err(NnError::InvalidConfig {
            detail: format!("{}: word {raw} outside the 24-bit Q8.16 range", what()),
        })
    }
}

/// Deserializes a deployment blob into a network built through
/// [`QuantizedDscNetwork::from_parts`], so a blob that loads is well formed.
///
/// # Errors
///
/// [`NnError::InvalidConfig`] on bad magic, unsupported version, truncation,
/// checksum mismatch, a malformed layer record (including sizes that
/// overflow and Q8.16 words outside 24 bits), or a network that fails
/// `from_parts`: stage shapes outside [`check_chain`] or a residual-add
/// stage that carries no residual scale.
///
/// [`check_chain`]: crate::workload::check_chain
pub fn deserialize(bytes: &[u8]) -> Result<QuantizedDscNetwork, NnError> {
    if bytes.len() < 8 || &bytes[..4] != MAGIC {
        return Err(NnError::InvalidConfig {
            detail: "not an EDEA artifact".into(),
        });
    }
    let body = &bytes[..bytes.len() - 4];
    let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if fnv1a(body) != stored {
        return Err(NnError::InvalidConfig {
            detail: "artifact checksum mismatch".into(),
        });
    }
    let mut r = Reader { buf: body, pos: 4 };
    let version = r.u32()?;
    if version != ARTIFACT_VERSION {
        return Err(NnError::InvalidConfig {
            detail: format!("unsupported artifact version {version}"),
        });
    }
    let n_layers = r.u32()? as usize;
    if n_layers > 1024 {
        return Err(NnError::InvalidConfig {
            detail: "implausible layer count".into(),
        });
    }
    let input_scale = r.f32()?;
    let input_params = QuantParams::new(input_scale).map_err(|e| NnError::InvalidConfig {
        detail: e.to_string(),
    })?;
    let mut layers = Vec::with_capacity(n_layers);
    for index in 0..n_layers {
        let in_spatial = r.u32()? as usize;
        let d_in = r.u32()? as usize;
        let k_out = r.u32()? as usize;
        let stride = r.u32()? as usize;
        let kernel = r.u32()? as usize;
        let pad = r.u32()? as usize;
        let op = match r.u32()? {
            0 => StageOp::Dsc,
            1 => StageOp::PwcOnly,
            other => {
                return Err(NnError::InvalidConfig {
                    detail: format!("layer {index}: unknown stage op {other}"),
                })
            }
        };
        let flags = r.u32()?;
        if flags > 0b11 {
            return Err(NnError::InvalidConfig {
                detail: format!("layer {index}: bad residual flags {flags}"),
            });
        }
        let shape = LayerShape {
            index,
            in_spatial,
            d_in,
            k_out,
            stride,
            kernel,
            pad,
            op,
            residual_save: flags & 1 != 0,
            residual_add: flags & 2 != 0,
        };
        let out_lo = r.i32()?;
        let out_lo = i8::try_from(out_lo).map_err(|_| NnError::InvalidConfig {
            detail: format!("layer {index}: out_lo {out_lo} outside i8"),
        })?;
        let residual_scale = match r.u32()? {
            0 => None,
            1 => Some(q8x16(r.i32()?, || {
                format!("layer {index}: residual scale")
            })?),
            other => {
                return Err(NnError::InvalidConfig {
                    detail: format!("layer {index}: bad residual-scale flag {other}"),
                })
            }
        };
        if residual_scale.is_some() && !shape.residual_add {
            return Err(NnError::InvalidConfig {
                detail: format!("layer {index}: residual scale on a non-residual stage"),
            });
        }
        let s_in = r.f32()?;
        let s_mid = r.f32()?;
        let s_out = r.f32()?;
        let dw_scale = r.f32()?;
        let dw = r.i8s(checked_size(&[kernel, kernel, d_in])?)?;
        let pw_scale = r.f32()?;
        let pw = r.i8s(checked_size(&[d_in, k_out])?)?;
        let nonconv1 = r.affines(d_in, index, "nonconv1")?;
        let nonconv2 = r.affines(k_out, index, "nonconv2")?;
        let dw_t =
            Tensor4::from_vec(dw, d_in, 1, kernel, kernel).map_err(|e| NnError::InvalidConfig {
                detail: e.to_string(),
            })?;
        let pw_t =
            Tensor4::from_vec(pw, k_out, d_in, 1, 1).map_err(|e| NnError::InvalidConfig {
                detail: e.to_string(),
            })?;
        let dw_params = QuantParams::new(dw_scale).map_err(|e| NnError::InvalidConfig {
            detail: e.to_string(),
        })?;
        let pw_params = QuantParams::new(pw_scale).map_err(|e| NnError::InvalidConfig {
            detail: e.to_string(),
        })?;
        let mut layer = QuantizedDscLayer::from_parts(
            shape,
            QTensor4::new(dw_t, dw_params),
            QTensor4::new(pw_t, pw_params),
            nonconv1,
            nonconv2,
            s_in,
            s_mid,
            s_out,
        )
        .with_out_lo(out_lo);
        if let Some(r) = residual_scale {
            layer = layer.with_residual_scale(r);
        }
        layers.push(layer);
    }
    if r.pos != body.len() {
        return Err(NnError::InvalidConfig {
            detail: format!("{} trailing bytes in artifact", body.len() - r.pos),
        });
    }
    QuantizedDscNetwork::from_parts(input_params, layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor;
    use crate::mobilenet::{MobileNetV1, MobileNetV2};
    use crate::quantize::QuantStrategy;
    use crate::sparsity::SparsityProfile;
    use edea_tensor::rng;

    /// Recomputes the trailing checksum after a test edits the body.
    fn fix_checksum(blob: &mut [u8]) {
        let body_len = blob.len() - 4;
        let sum = super::fnv1a(&blob[..body_len]);
        blob[body_len..].copy_from_slice(&sum.to_le_bytes());
    }

    /// `blob` with the 4 bytes at `pos` replaced by `word`, checksum fixed
    /// up so the parser sees the edit.
    fn with_word(blob: &[u8], pos: usize, word: u32) -> Vec<u8> {
        let mut bad = blob.to_vec();
        bad[pos..pos + 4].copy_from_slice(&word.to_le_bytes());
        fix_checksum(&mut bad);
        bad
    }

    /// Byte offset of each layer record in `serialize(net)`, following the
    /// layout in the module doc.
    fn layer_offsets(net: &QuantizedDscNetwork) -> Vec<usize> {
        let mut at = 16; // magic, version, layer count, input scale
        let offsets = net
            .layers()
            .iter()
            .map(|l| {
                let start = at;
                let s = l.shape();
                let residual = if l.residual_scale().is_some() { 4 } else { 0 };
                at += 40 + residual + 16; // shape, stage, out_lo, flag; scales
                at += s.kernel * s.kernel * s.d_in + 4 + s.d_in * s.k_out;
                at += 8 * (s.d_in + s.k_out);
                start
            })
            .collect();
        assert_eq!(at + 4, serialize(net).len(), "layout walk out of step");
        offsets
    }

    fn network() -> (MobileNetV1, QuantizedDscNetwork) {
        let mut model = MobileNetV1::synthetic(0.25, 91);
        let calib = rng::synthetic_batch(1, 3, 32, 32, 92);
        let (qnet, _) = QuantizedDscNetwork::calibrate_shaped(
            &mut model,
            &calib,
            &SparsityProfile::paper(),
            QuantStrategy::paper(),
        )
        .unwrap();
        (model, qnet)
    }

    #[test]
    fn round_trip_preserves_execution_bit_exactly() {
        let (model, qnet) = network();
        let blob = serialize(&qnet);
        let restored = deserialize(&blob).expect("valid artifact");
        // The restored network must execute identically.
        let img = rng::synthetic_image(3, 32, 32, 93);
        let input = qnet.quantize_input(&model.forward_stem(&img));
        let a = executor::run_network(&qnet, &input);
        let b = executor::run_network(&restored, &input);
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn round_trip_preserves_all_parameters() {
        let (_, qnet) = network();
        let restored = deserialize(&serialize(&qnet)).unwrap();
        assert_eq!(restored.layers().len(), qnet.layers().len());
        for (a, b) in qnet.layers().iter().zip(restored.layers()) {
            assert_eq!(a.shape(), b.shape());
            assert_eq!(a.dw_weights().values(), b.dw_weights().values());
            assert_eq!(a.pw_weights().values(), b.pw_weights().values());
            assert_eq!(a.s_in(), b.s_in());
            assert_eq!(a.s_mid(), b.s_mid());
            assert_eq!(a.s_out(), b.s_out());
            assert_eq!(a.out_lo(), b.out_lo());
            assert_eq!(a.residual_scale(), b.residual_scale());
            for (fa, fb) in a.nonconv1().iter().zip(b.nonconv1()) {
                assert_eq!(fa.k, fb.k);
                assert_eq!(fa.b, fb.b);
            }
        }
    }

    #[test]
    fn v2_inverted_residuals_round_trip_bit_exactly() {
        // Stage ops, residual markers, out_lo and the residual rescale must
        // all survive the blob, proven by bit-exact re-execution.
        let model = MobileNetV2::synthetic(0.25, 94);
        let calib = rng::synthetic_batch(1, 3, 32, 32, 95);
        let qnet =
            QuantizedDscNetwork::calibrate_v2(&model, &calib, QuantStrategy::paper()).unwrap();
        let restored = deserialize(&serialize(&qnet)).expect("valid v2 artifact");
        assert!(qnet.layers().iter().any(|l| l.shape().residual_add));
        for (a, b) in qnet.layers().iter().zip(restored.layers()) {
            assert_eq!(a.shape(), b.shape());
            assert_eq!(a.out_lo(), b.out_lo());
            assert_eq!(a.residual_scale(), b.residual_scale());
        }
        let img = rng::synthetic_image(3, 32, 32, 96);
        let input = qnet.quantize_input(&model.forward_stem(&img));
        assert_eq!(
            executor::run_network(&qnet, &input).output,
            executor::run_network(&restored, &input).output
        );
    }

    #[test]
    fn serialization_is_deterministic() {
        let (_, qnet) = network();
        assert_eq!(serialize(&qnet), serialize(&qnet));
    }

    #[test]
    fn rejects_bad_magic() {
        let (_, qnet) = network();
        let mut blob = serialize(&qnet);
        blob[0] = b'X';
        assert!(deserialize(&blob).is_err());
    }

    #[test]
    fn rejects_corruption_anywhere() {
        let (_, qnet) = network();
        let blob = serialize(&qnet);
        // Flip one byte in several places spread over the blob.
        for frac in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let mut bad = blob.clone();
            let idx = (blob.len() as f64 * frac) as usize;
            bad[idx] ^= 0x55;
            assert!(deserialize(&bad).is_err(), "corruption at {idx} not caught");
        }
    }

    #[test]
    fn rejects_truncation() {
        let (_, qnet) = network();
        let blob = serialize(&qnet);
        assert!(deserialize(&blob[..blob.len() / 2]).is_err());
        assert!(deserialize(&blob[..3]).is_err());
        assert!(deserialize(&[]).is_err());
    }

    #[test]
    fn artifact_size_tracks_parameter_count() {
        let (_, qnet) = network();
        let blob = serialize(&qnet);
        let params: usize = qnet
            .layers()
            .iter()
            .map(|l| l.dw_weights().values().len() + l.pw_weights().values().len())
            .sum();
        // Weights dominate; overhead is scales + nonconv words + header.
        assert!(blob.len() > params);
        assert!(
            blob.len() < params + 64 * params.max(4096),
            "{}",
            blob.len()
        );
    }

    #[test]
    fn version_mismatch_rejected() {
        let (_, qnet) = network();
        let mut blob = serialize(&qnet);
        // Bump the version field (bytes 4..8) and fix up the checksum.
        blob[4] = 99;
        fix_checksum(&mut blob);
        let err = deserialize(&blob).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn overflowing_layer_sizes_are_rejected() {
        let (_, qnet) = network();
        let mut blob = serialize(&qnet);
        // Layer 0's record starts after magic, version, layer count and
        // input scale; its kernel is the fifth shape word. With d_in = 2
        // the depthwise size k²·D overflows.
        let layer0 = 16;
        blob[layer0 + 4..layer0 + 8].copy_from_slice(&2u32.to_le_bytes());
        blob[layer0 + 16..layer0 + 20].copy_from_slice(&u32::MAX.to_le_bytes());
        fix_checksum(&mut blob);
        let err = deserialize(&blob).unwrap_err();
        assert!(
            matches!(&err, NnError::InvalidConfig { detail } if detail.contains("overflows")),
            "{err:?}"
        );
    }

    #[test]
    fn out_of_range_nonconv_word_is_rejected() {
        let (_, qnet) = network();
        let blob = serialize(&qnet);
        // The (k, b) words close a layer record, nonconv1 before nonconv2.
        let l0 = qnet.layers()[0].shape();
        let nonconv1 = layer_offsets(&qnet)[1] - 8 * (l0.d_in + l0.k_out);
        let err = deserialize(&with_word(&blob, nonconv1, 1 << 23)).unwrap_err();
        assert!(
            matches!(&err, NnError::InvalidConfig { detail }
                if detail.contains("layer 0: nonconv1[0].k") && detail.contains("8388608")),
            "{err:?}"
        );
    }

    fn v2_network() -> QuantizedDscNetwork {
        let model = MobileNetV2::synthetic(0.25, 94);
        let calib = rng::synthetic_batch(1, 3, 32, 32, 95);
        QuantizedDscNetwork::calibrate_v2(&model, &calib, QuantStrategy::paper()).unwrap()
    }

    #[test]
    fn out_of_range_residual_scale_word_is_rejected() {
        let qnet = v2_network();
        let blob = serialize(&qnet);
        let layer = qnet
            .layers()
            .iter()
            .position(|l| l.residual_scale().is_some())
            .expect("v2 has a residual stage");
        // The raw scale follows the 40 bytes of shape, stage, out_lo and flag.
        let pos = layer_offsets(&qnet)[layer] + 40;
        let err = deserialize(&with_word(&blob, pos, i32::MIN as u32)).unwrap_err();
        assert!(
            matches!(&err, NnError::InvalidConfig { detail }
                if detail.contains(&format!("layer {layer}: residual scale"))),
            "{err:?}"
        );
    }

    #[test]
    fn mutated_words_never_panic() {
        // A valid checksum lets each edit reach the parser, unlike the byte
        // flips of `rejects_corruption_anywhere`. Any outcome but a panic
        // is acceptable. The v2 prefix through its first residual stage
        // keeps the blob small while carrying every field kind.
        let full = v2_network();
        let first_residual = full
            .layers()
            .iter()
            .position(|l| l.residual_scale().is_some())
            .expect("v2 has a residual stage");
        let qnet = QuantizedDscNetwork::from_parts(
            full.input_params(),
            full.layers()[..=first_residual].to_vec(),
        )
        .unwrap();
        let blob = serialize(&qnet);
        let body_len = blob.len() - 4;
        for i in 0..400u64 {
            let pos = ((i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize % (body_len - 3);
            for word in [0, 7, 1 << 23, i32::MIN as u32, u32::MAX] {
                let _ = deserialize(&with_word(&blob, pos, word));
            }
        }
    }
}
