//! Pins the output of both int8 calibrators bit for bit: the FNV-1a
//! checksum of the serialized deployment artifact (every weight, step size
//! and folded Non-Conv constant) and of the achieved zero fractions of the
//! sparsity shaping. A refactor of the calibration pipeline must leave all
//! of them unchanged.
//!
//! The three cases are the shapes every experiment and benchmark
//! calibrates: MobileNetV1 width 0.25 at the paper's Fig. 11 profile,
//! MobileNetV1 width 0.5 near-dense (the mixed-serving primary), and
//! MobileNetV2 width 0.25 (its residual stages included).

use edea_nn::artifact;
use edea_nn::mobilenet::{MobileNetV1, MobileNetV2};
use edea_nn::quantize::{QuantStrategy, QuantizedDscNetwork};
use edea_nn::sparsity::{ShapingReport, SparsityProfile};
use edea_tensor::rng;

/// 64-bit FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn artifact_sum(qnet: &QuantizedDscNetwork) -> u64 {
    fnv1a(artifact::serialize(qnet))
}

/// Checksum of the exact bits of every achieved zero fraction, DWC first.
fn report_sum(report: &ShapingReport) -> u64 {
    fnv1a(
        report
            .dwc_zero
            .iter()
            .chain(&report.pwc_zero)
            .flat_map(|z| z.to_bits().to_le_bytes()),
    )
}

fn shaped_v1(width: f64, seed: u64, profile: impl Fn(usize) -> SparsityProfile) -> (u64, u64) {
    let mut model = MobileNetV1::synthetic(width, seed);
    let calib = rng::synthetic_batch(2, 3, 32, 32, seed + 1);
    let profile = profile(model.blocks().len());
    let (qnet, report) =
        QuantizedDscNetwork::calibrate_shaped(&mut model, &calib, &profile, QuantStrategy::paper())
            .unwrap();
    (artifact_sum(&qnet), report_sum(&report))
}

#[test]
fn v1_width_quarter_paper_profile_is_pinned() {
    let (artifact, report) = shaped_v1(0.25, 42, |_| SparsityProfile::paper());
    assert_eq!(artifact, 0xa6f6e56120f835c9, "artifact checksum");
    assert_eq!(report, 0x18899ad978d86c11, "shaping report checksum");
}

#[test]
fn v1_width_half_near_dense_is_pinned() {
    let (artifact, report) = shaped_v1(0.5, 1, SparsityProfile::near_dense);
    assert_eq!(artifact, 0x8afe8951839709c7, "artifact checksum");
    assert_eq!(report, 0xd6ad6d3972458424, "shaping report checksum");
}

#[test]
fn v2_width_quarter_is_pinned() {
    let model = MobileNetV2::synthetic(0.25, 8);
    let calib = rng::synthetic_batch(2, 3, 32, 32, 2);
    let qnet = QuantizedDscNetwork::calibrate_v2(&model, &calib, QuantStrategy::paper()).unwrap();
    assert_eq!(artifact_sum(&qnet), 0x85b659381065f4fc, "artifact checksum");
}
