//! Session-based deployment: the one-stop entry point for serving.
//!
//! [`Deployment`] owns everything a long-lived serving session needs — the
//! float model, the calibrated [`QuantizedDscNetwork`] and a [`Pool`] of
//! validated [`Edea`] replicas (one by default; scale out with
//! [`DeploymentBuilder::replicas`]). It offers one way to run and one way
//! to serve: [`Deployment::run`] executes a prepared batch on a chosen
//! network, and [`Deployment::serve`] dispatches a request stream across
//! the pool under a chosen [`DispatchPolicy`]. Build one with
//! [`Deployment::builder`]:
//!
//! ```
//! use edea::{Deployment, EdeaConfig};
//! use edea::nn::mobilenet::MobileNetV1;
//! use edea::nn::workload::NetworkId;
//! use edea::tensor::{rng, Batch};
//!
//! let deployment = Deployment::builder()
//!     .model(MobileNetV1::synthetic(0.25, 1))
//!     .calibration(rng::synthetic_batch(2, 3, 32, 32, 2))
//!     .config(EdeaConfig::paper())
//!     .build()?;
//! let input = deployment.prepare(&rng::synthetic_image(3, 32, 32, 3));
//! let run = deployment.run(NetworkId::PRIMARY, &Batch::new(vec![input])?)?;
//! assert_eq!(run.stats.layers.len(), 13);
//! # Ok::<(), edea::Error>(())
//! ```
//!
//! Construction is fallible end to end — a missing ingredient, a failed
//! calibration or an invalid configuration all surface as one
//! [`Error`](crate::Error) — and nothing panics on the serving path.

use edea_core::accelerator::{BatchRun, Edea};
use edea_core::config::EdeaConfig;
use edea_core::par::Parallelism;
use edea_core::pool::{DispatchPolicy, Dispatcher, Pool, PoolReport};
use edea_core::serve::{GoldenBackend, Policy, Request, SimulatorBackend};
use edea_core::telemetry::{Disabled, Telemetry};
use edea_nn::mobilenet::{MobileNetV1, MobileNetV2};
use edea_nn::quantize::{QuantStrategy, QuantizedDscNetwork};
use edea_nn::sparsity::{ShapingReport, SparsityProfile};
use edea_nn::workload::NetworkId;
use edea_tensor::{Batch, Tensor3};

use crate::Error;

/// A calibrated, validated, long-lived serving session: the float model,
/// its quantized DSC network and the accelerator pool, owned together.
#[derive(Debug, Clone)]
pub struct Deployment {
    model: MobileNetV1,
    /// Secondary float models, in registration order: entry `i` serves
    /// `NetworkId(1 + i)`. Empty for a single-model deployment.
    models_v2: Vec<MobileNetV2>,
    report: ShapingReport,
    // The single owner of the calibrated network and the accelerator
    // replicas, built once at build() time so serve() never re-clones
    // either. Worker 0 doubles as the one-shot `run` engine.
    pool: Pool<SimulatorBackend>,
    telemetry: Option<std::sync::Arc<dyn Telemetry>>,
}

/// Step-by-step construction of a [`Deployment`].
///
/// Defaults: the paper's sparsity profile and accelerator configuration
/// (quantization is always the paper's LSQ). A model and at least one
/// calibration image are required.
#[derive(Debug, Clone)]
pub struct DeploymentBuilder {
    model: Option<MobileNetV1>,
    models_v2: Vec<MobileNetV2>,
    calibration: Vec<Tensor3<f32>>,
    sparsity: SparsityProfile,
    config: EdeaConfig,
    replicas: usize,
    threads: Option<usize>,
    telemetry: Option<std::sync::Arc<dyn Telemetry>>,
}

impl Default for DeploymentBuilder {
    fn default() -> Self {
        Self {
            model: None,
            models_v2: Vec::new(),
            calibration: Vec::new(),
            sparsity: SparsityProfile::paper(),
            config: EdeaConfig::paper(),
            replicas: 1,
            threads: None,
            telemetry: None,
        }
    }
}

impl DeploymentBuilder {
    /// The float MobileNetV1 to deploy (required). It serves
    /// [`NetworkId::PRIMARY`] and every pool worker boots with its
    /// weights resident.
    #[must_use]
    pub fn model(mut self, model: MobileNetV1) -> Self {
        self.model = Some(model);
        self
    }

    /// Registers a secondary MobileNetV2 for mixed-model serving. The
    /// `i`-th registration serves `NetworkId(1 + i)`; it is calibrated on
    /// the same image set as the primary and must share its stem output
    /// shape. Requests opt in per network
    /// ([`Request::for_network`] / [`Request::stream_mixed`]); dispatching
    /// a batch to a worker whose resident network differs pays the
    /// incoming network's full weight refetch as model-switch traffic.
    #[must_use]
    pub fn model_v2(mut self, model: MobileNetV2) -> Self {
        self.models_v2.push(model);
        self
    }

    /// The calibration images (required, at least one): used to learn the
    /// int8 step sizes and shape the activation sparsity.
    #[must_use]
    pub fn calibration(mut self, images: Vec<Tensor3<f32>>) -> Self {
        self.calibration = images;
        self
    }

    /// The sparsity profile to shape toward (default: paper's).
    #[must_use]
    pub fn sparsity(mut self, profile: SparsityProfile) -> Self {
        self.sparsity = profile;
        self
    }

    /// The accelerator configuration (default: [`EdeaConfig::paper`]).
    #[must_use]
    pub fn config(mut self, cfg: EdeaConfig) -> Self {
        self.config = cfg;
        self
    }

    /// Number of simulated accelerator instances behind the serving pool
    /// (default: 1 — a pool of one). Each replica
    /// owns its own weight plan and busy-until clock; `serve` dispatches
    /// across all of them.
    #[must_use]
    pub fn replicas(mut self, n: usize) -> Self {
        self.replicas = n;
        self
    }

    /// Number of host threads the simulation may use (default: the
    /// `EDEA_THREADS` environment variable, falling back to 1). `1` is the
    /// serial reference path; any `n` produces bit-identical results — the
    /// thread pool only parallelizes independent portions of a layer
    /// and independent pool workers, never the simulated clock (see the
    /// `edea_core::par` module docs for the determinism contract).
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// A telemetry sink observing every serve through this deployment
    /// (default: none — the zero-cost
    /// [`Disabled`](edea_core::telemetry::Disabled) path). The sink
    /// receives the canonical sim-clock event stream (see
    /// [`edea_core::telemetry`]), bit-identical at every thread count;
    /// pass an `Arc<Recorder>` and keep a clone to read events back.
    #[must_use]
    pub fn telemetry(mut self, sink: std::sync::Arc<dyn Telemetry>) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Calibrates the network and builds the validated accelerator.
    ///
    /// # Errors
    ///
    /// * [`Error::Builder`] if the model or calibration images are
    ///   missing, or `replicas` is zero.
    /// * [`Error::Nn`] if calibration fails.
    /// * [`Error::Core`] if the configuration is invalid, `threads` is out
    ///   of range, or the calibrated network does not map onto its engine
    ///   geometry.
    pub fn build(self) -> Result<Deployment, Error> {
        let mut model = self.model.ok_or_else(|| Error::Builder {
            detail: "a model is required: call .model(...)".into(),
        })?;
        if self.calibration.is_empty() {
            return Err(Error::Builder {
                detail: "calibration images are required: call .calibration(...)".into(),
            });
        }
        if self.replicas == 0 {
            return Err(Error::Builder {
                detail: "a deployment needs at least one replica: call .replicas(n >= 1)".into(),
            });
        }
        let (qnet, report) = QuantizedDscNetwork::calibrate_shaped(
            &mut model,
            &self.calibration,
            &self.sparsity,
            QuantStrategy::paper(),
        )?;
        let par = match self.threads {
            None => Parallelism::from_env(),
            Some(n) => Parallelism::new(n)?,
        };
        let edea = Edea::new(self.config)?.with_parallelism(par);
        let mut simulator = SimulatorBackend::new(edea, qnet)?;
        for (i, m) in self.models_v2.iter().enumerate() {
            let q =
                QuantizedDscNetwork::calibrate_v2(m, &self.calibration, QuantStrategy::paper())?;
            simulator = simulator.with_model(NetworkId(1 + i as u32), q)?;
        }
        let pool = Pool::replicate(simulator, self.replicas)?.with_parallelism(par);
        Ok(Deployment {
            model,
            models_v2: self.models_v2,
            report,
            pool,
            telemetry: self.telemetry,
        })
    }
}

impl Deployment {
    /// Starts building a deployment.
    #[must_use]
    pub fn builder() -> DeploymentBuilder {
        DeploymentBuilder::default()
    }

    /// Worker 0 of the pool: the engine behind [`Deployment::run`].
    fn simulator(&self) -> &SimulatorBackend {
        &self.pool.workers()[0]
    }

    /// The calibrated quantized DSC network.
    #[must_use]
    pub fn qnet(&self) -> &QuantizedDscNetwork {
        self.simulator().qnet()
    }

    /// The accelerator instance (worker 0 of the pool).
    #[must_use]
    pub fn accelerator(&self) -> &Edea {
        self.simulator().accelerator()
    }

    /// The accelerator pool serving this deployment: `replicas` clones of
    /// the simulator backend, each owning its weight plan and scratch.
    #[must_use]
    pub fn pool(&self) -> &Pool<SimulatorBackend> {
        &self.pool
    }

    /// Number of accelerator replicas behind [`Deployment::serve`].
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.pool.len()
    }

    /// The host-thread budget of this deployment (shared by the tile
    /// pipeline of every replica and the pool's worker fan-out).
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.pool.parallelism()
    }

    /// The accelerator configuration.
    #[must_use]
    pub fn config(&self) -> &EdeaConfig {
        self.accelerator().config()
    }

    /// The sparsity achieved during calibration.
    #[must_use]
    pub fn shaping_report(&self) -> &ShapingReport {
        &self.report
    }

    /// The network ids this deployment serves, primary first.
    #[must_use]
    pub fn networks(&self) -> Vec<NetworkId> {
        self.simulator().networks()
    }

    /// The secondary float models, in registration order (entry `i`
    /// serves `NetworkId(1 + i)`).
    #[must_use]
    pub fn models_v2(&self) -> &[MobileNetV2] {
        &self.models_v2
    }

    /// The calibrated quantized network of a registered secondary model
    /// (`None` for an unknown id; use [`Deployment::qnet`] for the
    /// primary).
    #[must_use]
    pub fn qnet_of(&self, network: NetworkId) -> Option<&QuantizedDscNetwork> {
        self.simulator().qnet_of(network)
    }

    /// Turns a float image into the quantized layer-0 input the
    /// accelerator consumes: float stem forward, then int8 quantization.
    #[must_use]
    pub fn prepare(&self, image: &Tensor3<f32>) -> Tensor3<i8> {
        self.qnet().quantize_input(&self.model.forward_stem(image))
    }

    /// [`Deployment::prepare`] against a registered network: the float
    /// stem of *that* network's model feeds its own quantizer (`None`
    /// for an unknown id).
    #[must_use]
    pub fn prepare_for(&self, network: NetworkId, image: &Tensor3<f32>) -> Option<Tensor3<i8>> {
        if network == NetworkId::PRIMARY {
            return Some(self.prepare(image));
        }
        let model = self.models_v2.get(network.0.checked_sub(1)? as usize)?;
        let qnet = self.qnet_of(network)?;
        Some(qnet.quantize_input(&model.forward_stem(image)))
    }

    /// Runs a batch of prepared inputs through `network` on the simulator's
    /// weight-residency schedule, through the session's weight plan (built
    /// once at [`DeploymentBuilder::build`] time) and reused scratch. A
    /// batch of one is the single-image run.
    ///
    /// # Errors
    ///
    /// [`Error::Core`] — `InvalidRequest` for an unknown network id, else
    /// shape or buffer-capacity errors.
    pub fn run(&self, network: NetworkId, inputs: &Batch<i8>) -> Result<BatchRun, Error> {
        Ok(self.simulator().run_batch(network, inputs)?)
    }

    /// The cycle-accurate serving backend over this deployment (worker 0
    /// of the pool), built once at [`DeploymentBuilder::build`] time
    /// (clone it to move it elsewhere).
    #[must_use]
    pub fn simulator_backend(&self) -> &SimulatorBackend {
        self.simulator()
    }

    /// A golden-reference serving backend over this deployment: bit-exact
    /// reference outputs, analytic service cost of the same configuration.
    ///
    /// # Errors
    ///
    /// [`Error::Core`] if the network does not map onto the configuration.
    pub fn golden_backend(&self) -> Result<GoldenBackend, Error> {
        Ok(GoldenBackend::new(
            self.qnet().clone(),
            self.config().clone(),
        )?)
    }

    /// Serves a request stream across the deployment's accelerator pool:
    /// each worker forms batches under `policy`, and `dispatch` routes
    /// requests to workers. The report carries the aggregate serve
    /// statistics plus per-worker utilization, queue depth and batch →
    /// worker assignments. On a single replica every dispatch policy
    /// serves identically (pinned in `tests/pool.rs`). The telemetry sink
    /// configured at build time, if any, observes the run.
    ///
    /// # Errors
    ///
    /// [`Error::Core`] on an invalid policy, malformed requests, or an
    /// execution error in a dispatched batch.
    pub fn serve(
        &self,
        policy: Policy,
        dispatch: DispatchPolicy,
        requests: Vec<Request>,
    ) -> Result<PoolReport, Error> {
        let tel: &dyn Telemetry = self.telemetry.as_deref().unwrap_or(&Disabled);
        Ok(Dispatcher::new(policy, dispatch).serve_with(&self.pool, requests, tel)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edea_tensor::rng;

    /// The simulator's output for one prepared input on `network`.
    fn run_one(d: &Deployment, network: NetworkId, input: &Tensor3<i8>) -> Tensor3<i8> {
        let batch = Batch::new(vec![input.clone()]).unwrap();
        d.run(network, &batch)
            .expect("run")
            .outputs
            .into_images()
            .remove(0)
    }

    fn built() -> Deployment {
        Deployment::builder()
            .model(MobileNetV1::synthetic(0.25, 11))
            .calibration(rng::synthetic_batch(2, 3, 32, 32, 12))
            .build()
            .expect("synthetic deployment builds")
    }

    #[test]
    fn builder_requires_model_and_calibration() {
        let e = Deployment::builder().build().unwrap_err();
        assert!(matches!(e, Error::Builder { .. }), "{e}");
        let e = Deployment::builder()
            .model(MobileNetV1::synthetic(0.25, 11))
            .build()
            .unwrap_err();
        assert!(e.to_string().contains("calibration"), "{e}");
    }

    #[test]
    fn builder_surfaces_invalid_configs_as_core_errors() {
        let mut cfg = EdeaConfig::paper();
        cfg.clock_mhz = 0;
        let e = Deployment::builder()
            .model(MobileNetV1::synthetic(0.25, 11))
            .calibration(rng::synthetic_batch(1, 3, 32, 32, 12))
            .config(cfg)
            .build()
            .unwrap_err();
        assert!(matches!(e, Error::Core(_)), "{e}");
    }

    #[test]
    fn builder_surfaces_degenerate_calibration_as_nn_error() {
        // An all-zero image leaves the input pool without a range to
        // calibrate: an error naming the tensor, never a panic.
        let e = Deployment::builder()
            .model(MobileNetV1::synthetic(0.25, 11))
            .model_v2(MobileNetV2::synthetic(0.25, 12))
            .calibration(vec![Tensor3::zeros(3, 32, 32)])
            .build()
            .unwrap_err();
        assert!(
            matches!(&e, Error::Nn(edea_nn::NnError::InvalidConfig { detail }) if detail.starts_with("input")),
            "{e}"
        );
    }

    #[test]
    fn deployment_runs_and_matches_direct_simulator_use() {
        let d = built();
        let input = d.prepare(&rng::synthetic_image(3, 32, 32, 13));
        let output = run_one(&d, NetworkId::PRIMARY, &input);
        let direct = d
            .accelerator()
            .run_network(d.qnet(), &input)
            .expect("direct run");
        assert_eq!(output, direct.output);
        assert_eq!(d.shaping_report().dwc_zero.len(), 13);
    }

    #[test]
    fn backends_share_the_deployment_cost_model() {
        let d = built();
        let golden = d.golden_backend().unwrap();
        assert_eq!(d.simulator_backend().cost(), golden.cost());
    }

    #[test]
    fn builder_rejects_zero_replicas() {
        let e = Deployment::builder()
            .model(MobileNetV1::synthetic(0.25, 11))
            .calibration(rng::synthetic_batch(2, 3, 32, 32, 12))
            .replicas(0)
            .build()
            .unwrap_err();
        assert!(matches!(e, Error::Builder { .. }), "{e}");
        assert!(e.to_string().contains("replica"), "{e}");
    }

    #[test]
    fn builder_threads_knob_reaches_accelerator_and_pool() {
        let d = Deployment::builder()
            .model(MobileNetV1::synthetic(0.25, 11))
            .calibration(rng::synthetic_batch(2, 3, 32, 32, 12))
            .threads(3)
            .build()
            .expect("threaded deployment builds");
        assert_eq!(d.parallelism().threads(), 3);
        assert_eq!(d.accelerator().parallelism().threads(), 3);
        assert_eq!(d.pool().parallelism().threads(), 3);

        // threads(0) is rejected at build time, as a core config error.
        let e = Deployment::builder()
            .model(MobileNetV1::synthetic(0.25, 11))
            .calibration(rng::synthetic_batch(2, 3, 32, 32, 12))
            .threads(0)
            .build()
            .unwrap_err();
        assert!(matches!(e, Error::Core(_)), "{e}");
        assert!(e.to_string().contains("thread"), "{e}");
    }

    #[test]
    fn threaded_deployment_matches_serial_bit_for_bit() {
        let serial = Deployment::builder()
            .model(MobileNetV1::synthetic(0.25, 11))
            .calibration(rng::synthetic_batch(2, 3, 32, 32, 12))
            .threads(1)
            .build()
            .expect("serial deployment builds");
        let threaded = Deployment::builder()
            .model(MobileNetV1::synthetic(0.25, 11))
            .calibration(rng::synthetic_batch(2, 3, 32, 32, 12))
            .threads(4)
            .build()
            .expect("threaded deployment builds");
        let input = serial.prepare(&rng::synthetic_image(3, 32, 32, 13));
        let batch = Batch::new(vec![input]).unwrap();
        let a = serial.run(NetworkId::PRIMARY, &batch).expect("serial run");
        let b = threaded
            .run(NetworkId::PRIMARY, &batch)
            .expect("threaded run");
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);
    }

    fn built_mixed(replicas: usize, threads: usize) -> Deployment {
        // v1 at width 0.5 and v2 at width 0.25 share the (16, 32, 32)
        // stem output shape — the mixed-model precondition.
        Deployment::builder()
            .model(MobileNetV1::synthetic(0.5, 11))
            .model_v2(MobileNetV2::synthetic(0.25, 21))
            .calibration(rng::synthetic_batch(2, 3, 32, 32, 12))
            .replicas(replicas)
            .threads(threads)
            .build()
            .expect("mixed deployment builds")
    }

    #[test]
    fn mixed_deployment_serves_both_networks_bit_exactly() {
        let d = built_mixed(2, 1);
        assert_eq!(d.networks(), vec![NetworkId::PRIMARY, NetworkId(1)]);
        assert_eq!(d.models_v2().len(), 1);

        // Per-network preparation routes through the right float stem
        // and quantizer.
        let image = rng::synthetic_image(3, 32, 32, 33);
        let p1 = d.prepare_for(NetworkId::PRIMARY, &image).unwrap();
        let p2 = d.prepare_for(NetworkId(1), &image).unwrap();
        assert_eq!(p1, d.prepare(&image));
        assert_eq!(d.prepare_for(NetworkId(9), &image), None);

        // The v2 serving path is bit-exact against the golden executor.
        let direct = run_one(&d, NetworkId(1), &p2);
        let golden = edea_nn::executor::run_network(d.qnet_of(NetworkId(1)).unwrap(), &p2);
        assert_eq!(direct, golden.output);

        // A mixed stream over the pool: responses carry the right
        // network and match the one-shot paths image for image.
        let requests = Request::stream_mixed(
            &[0, 0, 0, 0],
            &[
                NetworkId::PRIMARY,
                NetworkId(1),
                NetworkId::PRIMARY,
                NetworkId(1),
            ],
            vec![p1.clone(), p2.clone(), p1.clone(), p2.clone()],
        )
        .unwrap();
        let report = d
            .serve(
                Policy::new(2, 1_000).unwrap(),
                DispatchPolicy::RoundRobin,
                requests,
            )
            .expect("mixed serve");
        assert_eq!(report.serve.responses.len(), 4);
        let v1 = run_one(&d, NetworkId::PRIMARY, &p1);
        for r in &report.serve.responses {
            let expect = if r.network == NetworkId(1) {
                &golden.output
            } else {
                &v1
            };
            assert_eq!(&r.output, expect, "request {}", r.id);
        }
        // The stream switched models somewhere, and the traffic shows it.
        assert!(report.serve.switch_bytes_total() > 0);
        // An unknown network id is rejected naming the request.
        let bad = vec![Request::for_network(9, 0, NetworkId(4), p1)];
        let err = d
            .serve(Policy::new(1, 0).unwrap(), DispatchPolicy::LeastLoaded, bad)
            .expect_err("unknown id");
        assert!(err.to_string().contains("net4"), "{err}");
    }

    #[test]
    fn mixed_deployment_is_bit_identical_across_thread_counts() {
        let serve = |threads: usize| {
            let d = built_mixed(2, threads);
            let image = rng::synthetic_image(3, 32, 32, 35);
            let p1 = d.prepare_for(NetworkId::PRIMARY, &image).unwrap();
            let p2 = d.prepare_for(NetworkId(1), &image).unwrap();
            let nets: Vec<NetworkId> = (0..6)
                .map(|i| {
                    if i % 3 == 0 {
                        NetworkId(1)
                    } else {
                        NetworkId::PRIMARY
                    }
                })
                .collect();
            let inputs = nets
                .iter()
                .map(|&n| {
                    if n == NetworkId(1) {
                        p2.clone()
                    } else {
                        p1.clone()
                    }
                })
                .collect();
            let requests =
                Request::stream_mixed(&[0, 500, 1_000, 1_500, 2_000, 2_500], &nets, inputs)
                    .unwrap();
            d.serve(
                Policy::new(2, 2_000).unwrap(),
                DispatchPolicy::LeastLoaded,
                requests,
            )
            .expect("mixed serve")
        };
        let serial = serve(1);
        let threaded = serve(4);
        assert_eq!(serial.serve.responses, threaded.serve.responses);
        assert_eq!(serial.serve.batches, threaded.serve.batches);
        assert_eq!(serial.workers, threaded.workers);
        assert_eq!(
            serial.serve.switch_bytes_total(),
            threaded.serve.switch_bytes_total()
        );
    }

    #[test]
    fn replicated_deployment_spreads_a_burst_and_stays_bit_exact() {
        let d = Deployment::builder()
            .model(MobileNetV1::synthetic(0.25, 11))
            .calibration(rng::synthetic_batch(2, 3, 32, 32, 12))
            .replicas(2)
            .build()
            .expect("replicated deployment builds");
        assert_eq!(d.replicas(), 2);
        assert_eq!(d.pool().len(), 2);

        // Two simultaneous batch-of-1 requests land on different workers.
        let inputs: Vec<_> = (0..2)
            .map(|i| d.prepare(&rng::synthetic_image(3, 32, 32, 40 + i)))
            .collect();
        let report = d
            .serve(
                Policy::new(1, 0).unwrap(),
                DispatchPolicy::LeastLoaded,
                Request::stream(&[0, 0], inputs.clone()).unwrap(),
            )
            .expect("pool serve");
        assert_eq!(report.assignments, vec![0, 1]);
        // Both dispatch at t = 0 — the replicas run in parallel.
        assert_eq!(report.serve.batches[0].dispatched, 0);
        assert_eq!(report.serve.batches[1].dispatched, 0);
        // Outputs stay bit-identical to the one-shot path.
        for (id, input) in inputs.iter().enumerate() {
            assert_eq!(
                report.serve.response(id as u64).unwrap().output,
                run_one(&d, NetworkId::PRIMARY, input),
                "request {id}"
            );
        }
    }
}
