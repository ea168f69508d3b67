//! The invalid-network space fails with typed errors, at build time.
//!
//! `edea_nn::workload::check_chain` is the one definition of a well-formed
//! stage chain: every window fits, each stage's input is the previous
//! stage's ofmap, and every residual add consumes an earlier save of its
//! ofmap's shape. These tests pin each rule on hand-built chains, the
//! mapping onto `CoreError::UnsupportedShape` for raw-shape callers, and
//! that a malformed deployment blob fails when it loads instead of when it
//! runs.

use edea_core::serve::AnalyticBackend;
use edea_core::{CoreError, EdeaConfig};
use edea_nn::artifact::{deserialize, serialize};
use edea_nn::quantize::QuantizedDscNetwork;
use edea_nn::workload::{check_chain, LayerShape};
use edea_nn::NnError;
use edea_testutil::{deploy, deploy_v2};

/// A well-formed inverted-residual block at 8×8×16: the expand stage saves
/// its input, the DSC project stage adds it back onto its ofmap.
fn residual_block() -> Vec<LayerShape> {
    let mut expand = LayerShape::pwc(0, 8, 16, 96);
    expand.residual_save = true;
    let mut project = LayerShape::dsc(1, 8, 96, 16, 1, 3);
    project.residual_add = true;
    vec![expand, project]
}

/// `check_chain` rejects `shapes` with an `InvalidConfig` containing
/// `needle`, and a raw-shape backend with `UnsupportedShape`.
fn assert_rejected(shapes: &[LayerShape], needle: &str) {
    match check_chain(shapes) {
        Err(NnError::InvalidConfig { detail }) => {
            assert!(detail.contains(needle), "{detail:?} missing {needle:?}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    let err = AnalyticBackend::new(shapes, &EdeaConfig::paper()).unwrap_err();
    assert!(
        matches!(&err, CoreError::UnsupportedShape { detail } if detail.contains(needle)),
        "{err:?}"
    );
}

#[test]
fn a_residual_block_is_well_formed() {
    check_chain(&residual_block()).unwrap();
    AnalyticBackend::new(&residual_block(), &EdeaConfig::paper()).unwrap();
}

#[test]
fn empty_chain_is_rejected() {
    assert_rejected(&[], "at least one layer");
}

#[test]
fn non_chaining_pair_is_rejected() {
    let mut channels = residual_block();
    channels[1].d_in = 64;
    assert_rejected(
        &channels,
        "layer 1 input (64, 8) does not chain from layer 0 output (96, 8)",
    );
    let mut spatial = residual_block();
    spatial[1].in_spatial = 16;
    assert_rejected(
        &spatial,
        "layer 1 input (96, 16) does not chain from layer 0 output (96, 8)",
    );
}

#[test]
fn add_without_save_is_rejected() {
    let mut unsaved = residual_block();
    unsaved[0].residual_save = false;
    assert_rejected(
        &unsaved,
        "layer 1: residual add without a preceding residual save",
    );
    // One save feeds one add: a second add needs a save of its own.
    let mut twice = residual_block();
    let mut again = LayerShape::dsc(2, 8, 16, 16, 1, 3);
    again.residual_add = true;
    twice.push(again);
    assert_rejected(
        &twice,
        "layer 2: residual add without a preceding residual save",
    );
}

#[test]
fn add_whose_ofmap_differs_from_the_saved_map_is_rejected() {
    let mut channels = residual_block();
    channels[1].k_out = 32;
    assert_rejected(
        &channels,
        "layer 1: residual maps for the add ofmap (32, 8) and the input saved at layer 0 (16, 8)",
    );
    let mut strided = residual_block();
    strided[1].stride = 2;
    assert_rejected(
        &strided,
        "layer 1: residual maps for the add ofmap (16, 4) and the input saved at layer 0 (16, 8)",
    );
}

#[test]
fn every_stage_passes_the_per_shape_rules() {
    assert_rejected(
        &[LayerShape {
            pad: 0,
            ..LayerShape::dsc(0, 1, 8, 16, 1, 3)
        }],
        "layer 0: window 3 does not fit input 1 with pad 0",
    );
    assert_rejected(
        &[LayerShape {
            stride: 0,
            ..LayerShape::dsc(0, 8, 8, 16, 1, 3)
        }],
        "layer 0: zero dimension",
    );
    // A lone PWC's ofmap is its ifmap: no window, no stride.
    assert_rejected(
        &[LayerShape {
            stride: 2,
            ..LayerShape::pwc(0, 8, 16, 96)
        }],
        "layer 0: PwcOnly stage must be 1x1 stride-1 unpadded",
    );
}

/// Recomputes the trailing FNV-1a checksum after a test edits the body,
/// so the edit reaches the parser.
fn fix_checksum(blob: &mut [u8]) {
    let body_len = blob.len() - 4;
    let mut h: u32 = 0x811c_9dc5;
    for &b in &blob[..body_len] {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    blob[body_len..].copy_from_slice(&h.to_le_bytes());
}

fn set_word(blob: &mut [u8], pos: usize, word: u32) {
    blob[pos..pos + 4].copy_from_slice(&word.to_le_bytes());
}

/// Byte offset of each layer record in `serialize(net)`, following the
/// layout in the `artifact` module doc.
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

#[test]
fn window_that_does_not_fit_fails_at_load() {
    // Layer 0 of the width-0.25 v1 stack (d 8 → k 16) shrunk to a 1×1
    // input without padding: its 3×3 window no longer fits. Loading it
    // used to succeed and the first run then panicked inside the
    // convolution.
    let d = deploy(0.25, 2101);
    let mut blob = serialize(&d.qnet);
    let layer0 = layer_offsets(&d.qnet)[0];
    set_word(&mut blob, layer0, 1); // in_spatial, the first shape word
    set_word(&mut blob, layer0 + 20, 0); // pad, the first stage word
    fix_checksum(&mut blob);
    let err = deserialize(&blob).unwrap_err();
    assert!(
        matches!(&err, NnError::InvalidConfig { detail }
            if detail.contains("layer 0: window 3 does not fit input 1 with pad 0")),
        "{err:?}"
    );

    let shape = LayerShape {
        in_spatial: 1,
        pad: 0,
        ..d.qnet.layers()[0].shape()
    };
    assert_eq!((shape.d_in, shape.k_out, shape.kernel), (8, 16, 3));
    let err = AnalyticBackend::new(&[shape], &EdeaConfig::paper()).unwrap_err();
    assert!(matches!(err, CoreError::UnsupportedShape { .. }), "{err:?}");
}

#[test]
fn residual_add_without_scale_fails_at_load() {
    let v2 = deploy_v2(0.25, 2102);
    let blob = serialize(&v2.qnet);
    let layer = v2
        .qnet
        .layers()
        .iter()
        .position(|l| l.shape().residual_add)
        .expect("v2 has a residual-add stage");
    // The residual-scale flag follows 36 bytes of shape, stage and out_lo;
    // the raw scale word it announces comes next. Zero the flag and drop
    // that word, so the rest of the record still parses.
    let flag = layer_offsets(&v2.qnet)[layer] + 36;
    assert_eq!(blob[flag..flag + 4], 1u32.to_le_bytes());
    let mut bad = [&blob[..flag], &0u32.to_le_bytes(), &blob[flag + 8..]].concat();
    fix_checksum(&mut bad);
    let err = deserialize(&bad).unwrap_err();
    assert!(
        matches!(&err, NnError::InvalidConfig { detail }
            if detail.contains(&format!("layer {layer}: residual add without a residual scale"))),
        "{err:?}"
    );
}
