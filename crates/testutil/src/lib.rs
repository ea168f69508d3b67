//! Shared test support for the EDEA workspace.
//!
//! Integration tests across the workspace repeat the same deploy-time
//! choreography: build a synthetic MobileNetV1, calibrate a quantized DSC
//! network against a deterministic batch, quantize the stem output, and run
//! the accelerator. This crate centralizes that choreography behind seeded,
//! deterministic builders, plus the tolerance assertion macros the
//! paper-number tests use.
//!
//! Everything here is deterministic: the same `(width, seed)` pair always
//! yields bit-identical networks, inputs and accelerator traces, on every
//! platform — and the same holds for the batched flow
//! ([`batch_inputs`] / [`deploy_and_run_batch`]). The determinism guard in
//! `tests/determinism.rs` enforces both.
//!
//! # Example
//!
//! ```
//! use edea_testutil::{deploy, TestDeployment};
//!
//! let TestDeployment { qnet, input, .. } = deploy(0.25, 42);
//! assert_eq!(qnet.layers().len(), 13);
//! assert!(input.len() > 0);
//! ```

// `deny`, not `forbid`: the counting allocator in [`alloc`] needs one
// `unsafe impl GlobalAlloc` (an `#![expect(unsafe_code)]` there);
// everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;

use edea_core::accelerator::{BatchRun, Edea, NetworkRun};
use edea_core::config::EdeaConfig;
use edea_core::par::Parallelism;
use edea_core::serve::Request;
use edea_nn::mobilenet::{MobileNetV1, MobileNetV2};
use edea_nn::quantize::{QuantStrategy, QuantizedDscNetwork};
use edea_nn::sparsity::SparsityProfile;
use edea_nn::workload::NetworkId;
use edea_tensor::{rng, Batch, Tensor3};

/// A fully deployed network ready to run on the accelerator: the float
/// model, its quantization, and the quantized stem activation for the first
/// calibration image.
///
/// (The production session type is `edea::Deployment`, built with
/// `Deployment::builder()`; this test fixture predates it and keeps the
/// seeded `(width, seed)` choreography the golden baselines depend on.)
#[derive(Debug, Clone)]
pub struct TestDeployment {
    /// The float MobileNetV1 the quantization was derived from.
    pub model: MobileNetV1,
    /// The quantized DSC network.
    pub qnet: QuantizedDscNetwork,
    /// Quantized input to DSC layer 0 (the stem output of the first
    /// calibration image).
    pub input: Tensor3<i8>,
}

/// Runs the paper's deploy-time flow deterministically: synthetic
/// MobileNetV1 at `width`, a two-image calibration batch, sparsity-shaped
/// calibration with the paper's quantization strategy.
///
/// The RNG streams are derived from `seed` exactly as the integration tests
/// have always done (`seed` for the model, `seed + 1` for the batch), so
/// existing tests can migrate without changing their data.
///
/// # Panics
///
/// Panics if calibration fails — synthetic networks at the widths used in
/// tests always calibrate.
#[must_use]
pub fn deploy(width: f64, seed: u64) -> TestDeployment {
    let mut model = MobileNetV1::synthetic(width, seed);
    let calib = rng::synthetic_batch(2, 3, 32, 32, seed + 1);
    let (qnet, _) = QuantizedDscNetwork::calibrate_shaped(
        &mut model,
        &calib,
        &SparsityProfile::paper(),
        QuantStrategy::paper(),
    )
    .expect("synthetic calibration succeeds");
    let input = qnet.quantize_input(&model.forward_stem(&calib[0]));
    TestDeployment { model, qnet, input }
}

/// A deployed MobileNetV2 ready for the accelerator: the float model, its
/// quantization (17 flattened inverted-residual stages), and the quantized
/// stem output of the first calibration image — the v2 counterpart of
/// [`TestDeployment`].
#[derive(Debug, Clone)]
pub struct TestDeploymentV2 {
    /// The float MobileNetV2 the quantization was derived from.
    pub model: MobileNetV2,
    /// The quantized DSC network (PwcOnly expand + Dsc project stages).
    pub qnet: QuantizedDscNetwork,
    /// Quantized input to stage 0 (the stem output of the first
    /// calibration image).
    pub input: Tensor3<i8>,
}

/// Deterministic MobileNetV2 deploy-time flow, mirroring [`deploy`]'s
/// seeded stream layout (`seed` for the model, `seed + 1` for the
/// calibration batch).
///
/// # Panics
///
/// Panics if calibration fails — synthetic v2 networks at the widths used
/// in tests always calibrate.
#[must_use]
pub fn deploy_v2(width: f64, seed: u64) -> TestDeploymentV2 {
    let model = MobileNetV2::synthetic(width, seed);
    let calib = rng::synthetic_batch(2, 3, 32, 32, seed + 1);
    let qnet = QuantizedDscNetwork::calibrate_v2(&model, &calib, QuantStrategy::paper())
        .expect("synthetic v2 calibration succeeds");
    let input = qnet.quantize_input(&model.forward_stem(&calib[0]));
    TestDeploymentV2 { model, qnet, input }
}

/// A paper-configuration accelerator (thread count from `EDEA_THREADS`,
/// defaulting to the serial path).
#[must_use]
pub fn paper_edea() -> Edea {
    Edea::new(EdeaConfig::paper()).expect("paper configuration is valid")
}

/// A paper-configuration accelerator pinned to an explicit host-thread
/// count — the building block of the parallel bit-identity suite.
///
/// # Panics
///
/// Panics if `threads` is zero or above the `edea_core::par` cap.
#[must_use]
pub fn paper_edea_threads(threads: usize) -> Edea {
    paper_edea()
        .with_parallelism(Parallelism::new(threads).expect("test thread counts are in range"))
}

/// Deploys at `(width, seed)` and runs the whole network on the paper
/// configuration, returning the deployment and the run.
///
/// # Panics
///
/// Panics if the run fails; the paper configuration accepts every layer of
/// the synthetic MobileNetV1 at the widths used in tests.
#[must_use]
pub fn deploy_and_run(width: f64, seed: u64) -> (TestDeployment, NetworkRun) {
    let d = deploy(width, seed);
    let run = paper_edea()
        .run_network(&d.qnet, &d.input)
        .expect("network runs");
    (d, run)
}

/// [`deploy_and_run`] pinned to an explicit host-thread count. Every
/// `threads` value yields bit-identical runs — the determinism guard and
/// the parallel bit-identity suite both lean on this.
///
/// # Panics
///
/// Panics if the run fails or `threads` is out of range.
#[must_use]
pub fn deploy_and_run_threads(
    width: f64,
    seed: u64,
    threads: usize,
) -> (TestDeployment, NetworkRun) {
    let d = deploy(width, seed);
    let run = paper_edea_threads(threads)
        .run_network(&d.qnet, &d.input)
        .expect("network runs");
    (d, run)
}

/// Builds a quantized layer-0 input batch of `n` deterministic images for
/// an existing deployment: fresh synthetic images seeded from `seed`, run
/// through the float stem and quantized exactly as [`deploy`]'s single
/// input is.
///
/// # Panics
///
/// Panics if `n` is zero (a [`Batch`] is non-empty by construction).
#[must_use]
pub fn batch_inputs(d: &TestDeployment, n: usize, seed: u64) -> Batch<i8> {
    let images = rng::synthetic_batch(n, 3, 32, 32, seed);
    Batch::new(
        images
            .iter()
            .map(|img| d.qnet.quantize_input(&d.model.forward_stem(img)))
            .collect(),
    )
    .expect("stem outputs are uniformly shaped")
}

/// Deploys at `(width, seed)` and runs a batch of `n` images (seeded from
/// `seed + 2`, continuing [`deploy`]'s stream layout) through the batched
/// accelerator schedule on the paper configuration.
///
/// # Panics
///
/// Panics if the run fails; the paper configuration accepts every layer of
/// the synthetic MobileNetV1 at the widths used in tests.
#[must_use]
pub fn deploy_and_run_batch(
    width: f64,
    seed: u64,
    n: usize,
) -> (TestDeployment, Batch<i8>, BatchRun) {
    let d = deploy(width, seed);
    let inputs = batch_inputs(&d, n, seed + 2);
    let run = paper_edea()
        .run_batch(&d.qnet, &inputs)
        .expect("batched network runs");
    (d, inputs, run)
}

/// [`deploy_and_run_batch`] pinned to an explicit host-thread count.
///
/// # Panics
///
/// Panics if the run fails or `threads` is out of range.
#[must_use]
pub fn deploy_and_run_batch_threads(
    width: f64,
    seed: u64,
    n: usize,
    threads: usize,
) -> (TestDeployment, Batch<i8>, BatchRun) {
    let d = deploy(width, seed);
    let inputs = batch_inputs(&d, n, seed + 2);
    let run = paper_edea_threads(threads)
        .run_batch(&d.qnet, &inputs)
        .expect("batched network runs");
    (d, inputs, run)
}

/// Builds a deterministic serving request stream for a deployment: one
/// synthetic image per arrival tick, seeded from `seed`, run through the
/// float stem and quantized, stamped with ids `0..arrivals.len()`.
#[must_use]
pub fn serve_requests(d: &TestDeployment, arrivals: &[u64], seed: u64) -> Vec<Request> {
    let images = rng::synthetic_batch(arrivals.len(), 3, 32, 32, seed);
    let inputs = images
        .iter()
        .map(|img| d.qnet.quantize_input(&d.model.forward_stem(img)))
        .collect();
    Request::stream(arrivals, inputs).expect("one arrival tick per input")
}

/// Builds a deterministic **mixed-model** request stream: arrival `i`
/// targets `networks[i % networks.len()]`, with the image prepared through
/// that network's own float stem and quantizer ([`NetworkId::PRIMARY`] →
/// `v1`, anything else → `v2`). Ids are `0..arrivals.len()`; images are
/// seeded from `seed` exactly as [`serve_requests`] seeds them.
///
/// The two deployments must share a stem output shape (e.g. v1 at width
/// 0.5 with v2 at width 0.25) — the same precondition the multi-model
/// backend enforces.
///
/// # Panics
///
/// Panics if `networks` is empty.
#[must_use]
pub fn mixed_requests(
    v1: &TestDeployment,
    v2: &TestDeploymentV2,
    networks: &[NetworkId],
    arrivals: &[u64],
    seed: u64,
) -> Vec<Request> {
    assert!(!networks.is_empty(), "at least one network id is required");
    let images = rng::synthetic_batch(arrivals.len().max(1), 3, 32, 32, seed);
    let nets: Vec<NetworkId> = (0..arrivals.len())
        .map(|i| networks[i % networks.len()])
        .collect();
    let inputs = images
        .iter()
        .take(arrivals.len())
        .zip(&nets)
        .map(|(img, &n)| {
            if n == NetworkId::PRIMARY {
                v1.qnet.quantize_input(&v1.model.forward_stem(img))
            } else {
                v2.qnet.quantize_input(&v2.model.forward_stem(img))
            }
        })
        .collect();
    Request::stream_mixed(arrivals, &nets, inputs).expect("one arrival tick per input")
}

/// Builds a serving request stream of all-zero inputs of `shape`
/// (`(channels, height, width)`), one per arrival tick, ids
/// `0..arrivals.len()` — the cheap stream for scheduler and pool tests
/// where only timing and accounting matter, not pixel values.
#[must_use]
pub fn zero_requests(shape: (usize, usize, usize), arrivals: &[u64]) -> Vec<Request> {
    let (d, h, w) = shape;
    Request::stream(
        arrivals,
        arrivals.iter().map(|_| Tensor3::zeros(d, h, w)).collect(),
    )
    .expect("one arrival tick per input")
}

/// Asserts two floats are within an absolute tolerance.
///
/// ```
/// edea_testutil::assert_close!(1.0, 1.004, 0.01);
/// ```
#[macro_export]
macro_rules! assert_close {
    ($left:expr, $right:expr, $tol:expr $(,)?) => {{
        let (l, r, tol) = (f64::from($left), f64::from($right), f64::from($tol));
        assert!(
            (l - r).abs() <= tol,
            "assert_close failed: |{} - {}| = {} > {} (left: `{}`, right: `{}`)",
            l,
            r,
            (l - r).abs(),
            tol,
            stringify!($left),
            stringify!($right),
        );
    }};
}

/// Asserts two floats agree to a relative tolerance (scaled by the larger
/// magnitude, so it is symmetric in its arguments).
///
/// ```
/// edea_testutil::assert_rel_close!(973.5, 973.6, 1e-3);
/// ```
#[macro_export]
macro_rules! assert_rel_close {
    ($left:expr, $right:expr, $rel:expr $(,)?) => {{
        let (l, r, rel) = (f64::from($left), f64::from($right), f64::from($rel));
        let scale = l.abs().max(r.abs()).max(f64::MIN_POSITIVE);
        assert!(
            (l - r).abs() <= rel * scale,
            "assert_rel_close failed: |{} - {}| = {} > {} × {} (left: `{}`, right: `{}`)",
            l,
            r,
            (l - r).abs(),
            rel,
            scale,
            stringify!($left),
            stringify!($right),
        );
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deploy_is_deterministic() {
        let a = deploy(0.25, 7);
        let b = deploy(0.25, 7);
        assert_eq!(a.input, b.input);
        assert_eq!(a.qnet.layers().len(), b.qnet.layers().len());
        for (x, y) in a.qnet.layers().iter().zip(b.qnet.layers()) {
            assert_eq!(x.dw_weights().values(), y.dw_weights().values());
            assert_eq!(x.pw_weights().values(), y.pw_weights().values());
        }
    }

    #[test]
    fn deploy_v2_is_deterministic_and_mixed_requests_alternate() {
        let a = deploy_v2(0.25, 7);
        let b = deploy_v2(0.25, 7);
        assert_eq!(a.input, b.input);
        assert_eq!(a.qnet.layers().len(), b.qnet.layers().len());

        let v1 = deploy(0.5, 7);
        let reqs = mixed_requests(
            &v1,
            &a,
            &[NetworkId::PRIMARY, NetworkId(1)],
            &[0, 10, 20, 30],
            9,
        );
        assert_eq!(reqs.len(), 4);
        let nets: Vec<u32> = reqs.iter().map(|r| r.network.0).collect();
        assert_eq!(nets, vec![0, 1, 0, 1]);
        // Inputs route through the right stem: both models share the
        // input shape, and the pixel values differ between the stems.
        assert_eq!(reqs[0].input.shape(), reqs[1].input.shape());
        assert_ne!(reqs[0].input, reqs[1].input);
        // Seeded determinism extends to the mixed stream.
        let again = mixed_requests(
            &v1,
            &a,
            &[NetworkId::PRIMARY, NetworkId(1)],
            &[0, 10, 20, 30],
            9,
        );
        for (x, y) in reqs.iter().zip(&again) {
            assert_eq!(x.input, y.input);
            assert_eq!(x.network, y.network);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = deploy(0.25, 1);
        let b = deploy(0.25, 2);
        assert_ne!(a.input, b.input);
    }

    #[test]
    fn close_macros_accept_and_reject() {
        assert_close!(1.0, 1.0009, 0.001);
        assert_rel_close!(1000.0, 1000.9, 1e-3);
        let caught = std::panic::catch_unwind(|| assert_close!(1.0, 1.1, 0.01));
        assert!(caught.is_err());
        let caught = std::panic::catch_unwind(|| assert_rel_close!(1.0, 1.1, 1e-3));
        assert!(caught.is_err());
    }
}
