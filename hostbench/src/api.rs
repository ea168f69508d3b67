//! The adapter: every call the benchmark makes into the simulator's public
//! API lives in this module. The workloads time these functions from
//! outside and see only the plain records defined here, so a change to the
//! library's API (a payload-free `Request`, a collapsed `run_*` surface)
//! touches this file alone.
//!
//! Every accelerator and pool built here pins host parallelism to one
//! thread explicitly, so an `EDEA_THREADS` in the caller's environment
//! cannot change the program being measured.

use std::sync::Mutex;

use edea::core::par::Parallelism;
use edea::core::pool::{DispatchPolicy, Dispatcher, PoolReport};
use edea::core::schedule::WeightResidency;
use edea::core::serve::{arrivals, BackendRun, CostModel, Request};
use edea::core::stats::LayerStats;
use edea::core::CoreError;
use edea::nn::executor;
use edea::nn::mobilenet::{MobileNetV1, MobileNetV2};
use edea::nn::quantize::{QuantStrategy, QuantizedDscNetwork};
use edea::nn::sparsity::SparsityProfile;
use edea::nn::workload::{mobilenet_v1_cifar10, NetworkId};
use edea::tensor::{rng, Batch, Tensor3};
use edea::EdeaConfig;

pub use edea::core::accelerator::Edea;
pub use edea::core::plan::NetworkPlan;
pub use edea::core::pool::Pool;
pub use edea::core::scratch::TileScratch;
pub use edea::core::serve::{AnalyticBackend, Backend, Policy, SimulatorBackend};
pub use edea::Deployment;

use crate::HostTime;

/// Errors cross the adapter as text: the benchmark only reports them.
pub type Result<T> = std::result::Result<T, String>;

/// A quantized layer-0 input or a network output.
pub type Map = Tensor3<i8>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The accelerator configuration every workload runs on.
#[must_use]
pub fn config() -> EdeaConfig {
    EdeaConfig::paper()
}

/// The simulated clock in MHz (cycles → simulated seconds).
#[must_use]
pub fn clock_mhz() -> f64 {
    config().clock_mhz as f64
}

// ---------------------------------------------------------------- nn.quantize

/// A float MobileNetV1 calibrated to int8 on its own seeded images.
pub struct CalibratedV1 {
    model: MobileNetV1,
    qnet: QuantizedDscNetwork,
}

/// Synthesizes MobileNetV1 at `width` and calibrates it to the paper's
/// Fig. 11 sparsity profile (`paper_sparsity`) or to the near-dense
/// control.
///
/// # Errors
///
/// Calibration failures, as text.
pub fn calibrate_v1(width: f64, seed: u64, paper_sparsity: bool) -> Result<CalibratedV1> {
    let mut model = MobileNetV1::synthetic(width, seed);
    let calib = rng::synthetic_batch(2, 3, 32, 32, seed.wrapping_add(1));
    let profile = if paper_sparsity {
        SparsityProfile::paper()
    } else {
        SparsityProfile::near_dense(model.blocks().len())
    };
    let (qnet, _) =
        QuantizedDscNetwork::calibrate_shaped(&mut model, &calib, &profile, QuantStrategy::paper())
            .map_err(err)?;
    Ok(CalibratedV1 { model, qnet })
}

/// Seeded float images pushed through the float stem and quantized: the
/// layer-0 inputs of `net`.
#[must_use]
pub fn prepare_inputs(net: &CalibratedV1, seed: u64, n: usize) -> Vec<Map> {
    (0..n as u64)
        .map(|i| {
            let image = rng::synthetic_image(3, 32, 32, seed.wrapping_add(100 + i));
            net.qnet.quantize_input(&net.model.forward_stem(&image))
        })
        .collect()
}

// ---------------------------------------------------------------- nn.executor

/// The golden int8 reference output of `net` on `input`.
#[must_use]
pub fn golden_forward(net: &CalibratedV1, input: &Map) -> Map {
    executor::run_network(&net.qnet, input).output
}

// ------------------------------------------------------------ plan/accelerator

/// The accelerator on the paper configuration, serial on the host.
///
/// # Errors
///
/// An invalid configuration, as text.
pub fn accelerator() -> Result<Edea> {
    Ok(Edea::new(config())
        .map_err(err)?
        .with_parallelism(Parallelism::serial()))
}

/// `Edea::plan_network`: the pre-sliced weight plan of `net`.
///
/// # Errors
///
/// A layer that does not map onto the engine geometry, as text.
pub fn plan_network(edea: &Edea, net: &CalibratedV1) -> Result<NetworkPlan> {
    edea.plan_network(&net.qnet).map_err(err)
}

/// The serving session over `net`: plan built once, scratch reused.
///
/// # Errors
///
/// As [`plan_network`].
pub fn simulator_backend(edea: &Edea, net: &CalibratedV1) -> Result<SimulatorBackend> {
    SimulatorBackend::new(edea.clone(), net.qnet.clone()).map_err(err)
}

/// `CostModel::per_image_cycles` of the backend's network.
#[must_use]
pub fn cost_per_image_cycles(backend: &SimulatorBackend) -> u64 {
    backend.cost().per_image_cycles()
}

/// Number of layers of `net`.
#[must_use]
pub fn layer_count(net: &CalibratedV1) -> usize {
    net.qnet.layers().len()
}

/// What one layer of a forward did, on the modeled chip.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerFacts {
    /// Modeled cycles.
    pub cycles: u64,
    /// Engine multiplier slots exercised (DWC + PWC), gated ones included.
    pub mac_slots: u64,
    /// Slots gated by a zero activation (DWC + PWC).
    pub gated_slots: u64,
    /// External bytes moved.
    pub ext_bytes: u64,
    stats: LayerStats,
}

impl LayerFacts {
    fn of(stats: LayerStats) -> Self {
        Self {
            cycles: stats.cycles,
            mac_slots: stats.dwc_activity.mac_slots + stats.pwc_activity.mac_slots,
            gated_slots: stats.dwc_activity.zero_act_slots + stats.pwc_activity.zero_act_slots,
            ext_bytes: stats.external.total(),
            stats,
        }
    }
}

/// One planned forward's output and per-layer facts.
pub struct Forward {
    /// The network output.
    pub output: Map,
    /// Per-layer facts, in layer order (all statistics compare equal
    /// between two forwards only when every counter agrees).
    pub layers: Vec<LayerFacts>,
}

impl Forward {
    /// Modeled cycles of the whole forward.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// External bytes of the whole forward.
    #[must_use]
    pub fn ext_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.ext_bytes).sum()
    }
}

/// `SimulatorBackend::run_network`: one planned batch-1 forward.
///
/// # Errors
///
/// Shape or capacity errors, as text.
pub fn forward(backend: &SimulatorBackend, input: &Map) -> Result<Forward> {
    let run = backend.run_network(input).map_err(err)?;
    Ok(Forward {
        output: run.output,
        layers: run.stats.layers.into_iter().map(LayerFacts::of).collect(),
    })
}

/// Reusable tile buffers for [`run_layer`].
#[must_use]
pub fn scratch() -> TileScratch {
    TileScratch::new()
}

/// `Edea::run_layer_planned` on layer `i` of `net` for one image with
/// per-image weight residency (the schedule `run_network` uses).
///
/// # Errors
///
/// Shape or capacity errors, or a residual stage (the chained forward
/// covers plain MobileNetV1 only), as text.
pub fn run_layer(
    edea: &Edea,
    net: &CalibratedV1,
    plan: &NetworkPlan,
    i: usize,
    input: &Map,
    scratch: &mut TileScratch,
) -> Result<(Map, LayerFacts)> {
    let layer = &net.qnet.layers()[i];
    let shape = layer.shape();
    if shape.residual_save || shape.residual_add {
        return Err(format!("layer {i} has a residual stage"));
    }
    let mut run = edea
        .run_layer_planned(
            layer,
            &plan.layers()[i],
            std::slice::from_ref(input),
            WeightResidency::PerImage,
            scratch,
        )
        .map_err(err)?;
    let output = run.outputs.pop().ok_or("layer returned no output")?;
    Ok((output, LayerFacts::of(run.stats.into_layer_stats())))
}

// ---------------------------------------------------------------------- serve

/// The network a request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Net(u32);

impl Net {
    /// The primary network.
    pub const V1: Net = Net(0);
    /// The secondary (MobileNetV2) network of the mixed deployment.
    pub const V2: Net = Net(1);

    fn id(self) -> NetworkId {
        NetworkId(self.0)
    }
}

/// The mixed-model deployment: MobileNetV1 width 0.5 at near-dense
/// sparsity (primary) plus MobileNetV2 width 0.25, `replicas` simulator
/// workers, one host thread.
///
/// # Errors
///
/// Calibration or mapping failures, as text.
pub fn mixed_deployment(seed: u64, replicas: usize) -> Result<Deployment> {
    let v1 = MobileNetV1::synthetic(0.5, seed);
    Deployment::builder()
        .sparsity(SparsityProfile::near_dense(v1.blocks().len()))
        .model(v1)
        .model_v2(MobileNetV2::synthetic(0.25, seed.wrapping_add(7)))
        .calibration(rng::synthetic_batch(2, 3, 32, 32, seed.wrapping_add(1)))
        .replicas(replicas)
        .threads(1)
        .build()
        .map_err(err)
}

/// `Edea::plan_network` on the deployment's network `net`.
///
/// # Errors
///
/// An unknown network or a mapping failure, as text.
pub fn plan_deployed(dep: &Deployment, net: Net) -> Result<NetworkPlan> {
    let qnet = dep.qnet_of(net.id()).ok_or("unknown network")?;
    dep.accelerator().plan_network(qnet).map_err(err)
}

/// Seeded image `i` prepared for the deployment's network `net`.
///
/// # Errors
///
/// An unknown network, as text.
pub fn prepare_deployed(dep: &Deployment, net: Net, seed: u64, i: u64) -> Result<Map> {
    let image = rng::synthetic_image(3, 32, 32, seed.wrapping_add(100 + i));
    dep.prepare_for(net.id(), &image)
        .ok_or_else(|| "unknown network".to_owned())
}

/// The golden reference output of the deployment's network `net`.
///
/// # Errors
///
/// An unknown network or a shape mismatch, as text.
pub fn golden_deployed(dep: &Deployment, net: Net, input: &Map) -> Result<Map> {
    let qnet = dep.qnet_of(net.id()).ok_or("unknown network")?;
    Ok(executor::try_run_network(qnet, input).map_err(err)?.output)
}

/// `CostModel::per_image_cycles` of the deployment's network `net`.
///
/// # Errors
///
/// An unknown network, as text.
pub fn deployed_cycles(dep: &Deployment, net: Net) -> Result<u64> {
    dep.simulator_backend()
        .cost_of(net.id())
        .map(CostModel::per_image_cycles)
        .ok_or_else(|| "unknown network".to_owned())
}

/// The deployment's own pool (its replicas, one host thread).
#[must_use]
pub fn deployed_pool(dep: &Deployment) -> &Pool<SimulatorBackend> {
    dep.pool()
}

/// The deployment's workers behind the timing wrapper, one host thread.
///
/// # Errors
///
/// Pool construction errors, as text.
pub fn timed_deployed_pool(dep: &Deployment) -> Result<Pool<Timed<SimulatorBackend>>> {
    serial_pool(
        dep.pool()
            .workers()
            .iter()
            .cloned()
            .map(Timed::new)
            .collect(),
    )
}

fn serial_pool<B: Backend>(workers: Vec<B>) -> Result<Pool<B>> {
    Ok(Pool::new(workers)
        .map_err(err)?
        .with_parallelism(Parallelism::serial()))
}

/// The analytic backend on the paper's MobileNetV1 layer shapes.
///
/// # Errors
///
/// Mapping failures, as text.
pub fn analytic_backend() -> Result<AnalyticBackend> {
    AnalyticBackend::new(&mobilenet_v1_cifar10(), &config()).map_err(err)
}

/// `CostModel::per_image_cycles` of the analytic backend.
#[must_use]
pub fn analytic_cycles(backend: &AnalyticBackend) -> u64 {
    backend.cost().per_image_cycles()
}

/// `workers` clones of `backend`, one host thread.
///
/// # Errors
///
/// Pool construction errors, as text.
pub fn analytic_pool(backend: &AnalyticBackend, workers: usize) -> Result<Pool<AnalyticBackend>> {
    serial_pool(vec![backend.clone(); workers])
}

/// [`analytic_pool`] behind the timing wrapper.
///
/// # Errors
///
/// Pool construction errors, as text.
pub fn timed_analytic_pool(
    backend: &AnalyticBackend,
    workers: usize,
) -> Result<Pool<Timed<AnalyticBackend>>> {
    serial_pool((0..workers).map(|_| Timed::new(backend.clone())).collect())
}

/// The `(channels, height, width)` every request input of `pool` has.
#[must_use]
pub fn input_shape<B: Backend>(pool: &Pool<B>) -> (usize, usize, usize) {
    pool.workers()[0].input_shape()
}

/// A zero input of `shape` (the analytic backend never reads it).
#[must_use]
pub fn zero_map(shape: (usize, usize, usize)) -> Map {
    Tensor3::zeros(shape.0, shape.1, shape.2)
}

/// `arrivals::poisson`: `n` seeded Poisson arrival ticks.
#[must_use]
pub fn poisson(n: usize, mean_gap: f64, seed: u64) -> Vec<u64> {
    arrivals::poisson(n, mean_gap, seed)
}

/// A request stream ready for [`serve`].
pub struct Requests(Vec<Request>);

/// `Request::stream` (all primary) or `Request::stream_mixed`.
///
/// # Errors
///
/// Length mismatches, as text.
pub fn requests(arrivals: &[u64], nets: Option<&[Net]>, inputs: Vec<Map>) -> Result<Requests> {
    let stream = match nets {
        None => Request::stream(arrivals, inputs),
        Some(nets) => {
            let ids: Vec<NetworkId> = nets.iter().map(|n| n.id()).collect();
            Request::stream_mixed(arrivals, &ids, inputs)
        }
    };
    stream.map(Requests).map_err(err)
}

/// The batch-forming policy.
///
/// # Errors
///
/// A zero `max_batch`, as text.
pub fn policy(max_batch: usize, max_wait: u64) -> Result<Policy> {
    Policy::new(max_batch, max_wait).map_err(err)
}

/// A finished pool run.
pub struct Served(PoolReport);

/// `Dispatcher::serve` with least-loaded routing.
///
/// # Errors
///
/// Any error of the run, as text.
pub fn serve<B: Backend>(pool: &Pool<B>, policy: Policy, requests: Requests) -> Result<Served> {
    Dispatcher::new(policy, DispatchPolicy::LeastLoaded)
        .serve(pool, requests.0)
        .map(Served)
        .map_err(err)
}

/// The end-to-end modeled figures of a pool run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fold {
    /// Requests served.
    pub served: usize,
    /// 99th-percentile simulated latency.
    pub p99_cycles: u64,
    /// Served images per simulated second.
    pub sim_images_per_s: f64,
    /// Modeled service cycles per served image.
    pub cycles_per_image: f64,
    /// External plus model-switch bytes per served image.
    pub ext_bytes_per_image: f64,
    /// Deepest any worker queue got.
    pub max_queue_depth: usize,
}

/// Folds a pool run into its end-to-end modeled figures (the report
/// statistics a user of the pool reads).
#[must_use]
pub fn fold(served: &Served) -> Fold {
    let r = &served.0.serve;
    let n = r.responses.len().max(1) as f64;
    let cycles: u64 = r.batches.iter().map(|b| b.cycles).sum();
    Fold {
        served: r.responses.len(),
        p99_cycles: r.p99(),
        sim_images_per_s: r.throughput_images_per_second(&config()),
        cycles_per_image: cycles as f64 / n,
        ext_bytes_per_image: r.external_bytes_per_image() + r.switch_bytes_total() as f64 / n,
        max_queue_depth: served.0.max_queue_depth(),
    }
}

/// One response, as the correctness gate sees it.
pub struct Response<'a> {
    /// Request id.
    pub id: u64,
    /// Network that served it.
    pub net: Net,
    /// Size of the batch that carried it.
    pub batch_size: usize,
    /// The output.
    pub output: &'a Map,
}

/// The responses of a pool run, in dispatch order.
#[must_use]
pub fn responses(served: &Served) -> Vec<Response<'_>> {
    let r = &served.0.serve;
    r.responses
        .iter()
        .map(|resp| Response {
            id: resp.id,
            net: Net(resp.network.0),
            batch_size: r.batches.get(resp.batch).map_or(usize::MAX, |b| b.size),
            output: &resp.output,
        })
        .collect()
}

/// Whether two pool runs produced bit-identical reports.
#[must_use]
pub fn identical(a: &Served, b: &Served) -> bool {
    let (a, b) = (&a.0, &b.0);
    a.serve.backend == b.serve.backend
        && a.serve.policy == b.serve.policy
        && a.serve.responses == b.serve.responses
        && a.serve.batches == b.serve.batches
        && a.dispatch == b.dispatch
        && a.workers == b.workers
        && a.assignments == b.assignments
}

/// One timed `Backend::run`/`run_for` call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// When the call started.
    pub start: HostTime,
    /// When it returned.
    pub end: HostTime,
    /// Images in the batch.
    pub images: usize,
    /// Modeled cycles the call reported (0 on error).
    pub cycles: u64,
}

/// A [`Backend`] that times every execution call of the backend it wraps
/// and forwards every other trait method unchanged, so a pool takes the
/// same path with or without it.
pub struct Timed<B> {
    inner: B,
    calls: Mutex<Vec<Call>>,
}

impl<B> Timed<B> {
    fn new(inner: B) -> Self {
        Self {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    fn time(
        &self,
        images: usize,
        f: impl FnOnce() -> std::result::Result<BackendRun, CoreError>,
    ) -> std::result::Result<BackendRun, CoreError> {
        let start = crate::now();
        let run = f();
        let end = crate::now();
        let cycles = run.as_ref().map_or(0, |r| r.cycles);
        self.calls.lock().expect("call log poisoned").push(Call {
            start,
            end,
            images,
            cycles,
        });
        run
    }
}

/// Takes the calls every worker of `pool` logged since the last take.
#[must_use]
pub fn take_calls<B>(pool: &Pool<Timed<B>>) -> Vec<Call>
where
    Timed<B>: Backend,
{
    let mut calls: Vec<Call> = pool
        .workers()
        .iter()
        .flat_map(|w| std::mem::take(&mut *w.calls.lock().expect("call log poisoned")))
        .collect();
    calls.sort_by_key(|c| c.start);
    calls
}

impl<B: Backend> Backend for Timed<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn config(&self) -> &EdeaConfig {
        self.inner.config()
    }

    fn input_shape(&self) -> (usize, usize, usize) {
        self.inner.input_shape()
    }

    fn run(&self, inputs: &Batch<i8>) -> std::result::Result<BackendRun, CoreError> {
        self.time(inputs.len(), || self.inner.run(inputs))
    }

    fn dispatch_cycles(&self, batch: usize) -> Option<u64> {
        self.inner.dispatch_cycles(batch)
    }

    fn input_shape_for(&self, network: NetworkId) -> Option<(usize, usize, usize)> {
        self.inner.input_shape_for(network)
    }

    fn run_for(
        &self,
        network: NetworkId,
        inputs: &Batch<i8>,
    ) -> std::result::Result<BackendRun, CoreError> {
        self.time(inputs.len(), || self.inner.run_for(network, inputs))
    }

    fn dispatch_cycles_for(&self, network: NetworkId, batch: usize) -> Option<u64> {
        self.inner.dispatch_cycles_for(network, batch)
    }

    fn switch_bytes(&self, network: NetworkId) -> u64 {
        self.inner.switch_bytes(network)
    }
}
