//! The serving layer: long-lived backends, requests and the policy that
//! forms them into batches for [`Edea::run_batch`].
//!
//! The paper's direct-data-transfer argument pays off when the accelerator
//! is kept busy with a *stream* of images, not one-shot calls. This module
//! provides the session abstraction that turns the one-shot simulator into
//! a serving substrate:
//!
//! * [`Backend`] — anything that can execute a formed batch and report its
//!   service cost: the cycle-accurate [`SimulatorBackend`] over
//!   [`Edea::run_batch`], the bit-exact reference [`GoldenBackend`] over
//!   `edea-nn`'s executor, and the outputs-free [`AnalyticBackend`] for
//!   capacity planning and load sweeps.
//! * [`Request`] / [`Response`] — one image in, one image out, stamped with
//!   arrival / dispatch / completion ticks of the simulated clock.
//! * [`Policy`] — the batch-forming rule (`max_batch` + `max_wait` ticks)
//!   every worker of a [`Pool`](crate::pool::Pool) drains its queue under,
//!   and [`ServeReport`] — per-request latency plus aggregate
//!   throughput/SLO statistics. The [`Dispatcher`](crate::pool::Dispatcher)
//!   is the one serve entry; a single backend is a pool of one.
//!
//! Everything runs on a **simulated clock**: one tick is one accelerator
//! cycle, service times come from the backend's cycle accounting, and no
//! wall time is ever consulted — the whole serving simulation is a pure
//! function of `(requests, policy, backend)`, so batch boundaries and
//! statistics are bit-reproducible (the determinism guard enforces this).
//!
//! Batching changes *when weight tiles cross the external interface*, never
//! what is computed: every [`Response::output`] is bit-identical to running
//! the same input through [`Edea::run_network`], while
//! [`ServeReport::weight_bytes_per_image`] falls as batches form.
//!
//! # Example
//!
//! ```
//! use edea_core::pool::{DispatchPolicy, Dispatcher, Pool};
//! use edea_core::serve::{arrivals, AnalyticBackend, Backend, Policy, Request};
//! use edea_core::EdeaConfig;
//! use edea_nn::workload::mobilenet_v1_cifar10;
//! use edea_tensor::Tensor3;
//!
//! let cfg = EdeaConfig::paper();
//! let backend = AnalyticBackend::new(&mobilenet_v1_cifar10(), &cfg)?;
//! let (d, h, w) = backend.input_shape();
//! let ticks = arrivals::poisson(8, 50_000.0, 7);
//! let inputs = (0..8).map(|_| Tensor3::<i8>::zeros(d, h, w)).collect();
//! let requests = Request::stream(&ticks, inputs)?;
//! let dispatcher = Dispatcher::new(Policy::new(4, 100_000)?, DispatchPolicy::RoundRobin);
//! let report = dispatcher.serve(&Pool::replicate(backend, 1)?, requests)?.serve;
//! assert_eq!(report.responses.len(), 8);
//! # Ok::<(), edea_core::CoreError>(())
//! ```

use std::sync::Mutex;

use edea_nn::executor;
use edea_nn::quantize::QuantizedDscNetwork;
use edea_nn::workload::{check_chain, LayerShape, NetworkId};
use edea_tensor::{Batch, Tensor3};

use crate::accelerator::{BatchRun, Edea, NetworkRun};
use crate::config::EdeaConfig;
use crate::plan::NetworkPlan;
use crate::schedule::WeightResidency;
use crate::scratch::TileScratch;
use crate::stats::layer_ledger;
use crate::CoreError;

/// Analytic service-cost model of a network on a configuration, read from
/// the same traffic ledger as the functional simulator ([`layer_ledger`]).
///
/// Under [`WeightResidency::PerBatch`] a dispatch of `N` images costs
/// `N ×` the per-image cycles (the 9-cycle initiation is bound by the
/// per-image ifmap fetch, so residency saves traffic, not cycles), one
/// batch-wide weight + offline-parameter fetch, and `N ×` the per-image
/// streaming bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    per_image_cycles: u64,
    weight_bytes: u64,
    stream_bytes: u64,
}

impl CostModel {
    /// Builds the cost model for a layer chain on `cfg`.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if the chain fails
    /// [`check_chain`] or a layer does not map onto the engine geometry.
    pub fn for_network(shapes: &[LayerShape], cfg: &EdeaConfig) -> Result<Self, CoreError> {
        check_chain(shapes).map_err(|e| CoreError::UnsupportedShape {
            detail: e.to_string(),
        })?;
        for s in shapes {
            crate::schedule::check_layer_geometry(s, cfg)?;
        }
        let mut per_image_cycles = 0u64;
        let mut weight_bytes = 0u64;
        let mut stream_bytes = 0u64;
        for s in shapes {
            let one = layer_ledger(s, cfg, 1, WeightResidency::PerBatch);
            per_image_cycles += one.cycles;
            weight_bytes += one.external.weight_reads + one.external.param_reads;
            stream_bytes += one.external.ifmap_reads + one.external.writes;
        }
        Ok(Self {
            per_image_cycles,
            weight_bytes,
            stream_bytes,
        })
    }

    /// Cycles to serve one image (= ticks of the simulated clock).
    #[must_use]
    pub fn per_image_cycles(&self) -> u64 {
        self.per_image_cycles
    }

    /// Cycles to serve a batch of `n` images.
    #[must_use]
    pub fn batch_cycles(&self, n: usize) -> u64 {
        n as u64 * self.per_image_cycles
    }

    /// External weight + offline-parameter bytes per dispatch — paid once
    /// per batch regardless of its size (the amortizable part).
    #[must_use]
    pub fn weight_bytes(&self) -> u64 {
        self.weight_bytes
    }

    /// External streaming bytes (ifmap reads + ofmap writes) per image —
    /// the inherently per-image part.
    #[must_use]
    pub fn stream_bytes_per_image(&self) -> u64 {
        self.stream_bytes
    }

    /// Total external bytes for a dispatch of `n` images.
    #[must_use]
    pub fn batch_external_bytes(&self, n: usize) -> u64 {
        self.weight_bytes + n as u64 * self.stream_bytes
    }
}

/// Per-layer execution summary attached to a [`BackendRun`] for telemetry.
///
/// The layer cycles sum to the run's total cycles
/// (`NetworkStats::total_cycles` is exactly that sum), so telemetry
/// layer spans tile the batch span with no gaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerTrace {
    /// Layer index within the network.
    pub index: usize,
    /// Modeled cycles this layer took for the whole batch.
    pub cycles: u64,
    /// MAC slots exercised (DWC + PWC engines).
    pub mac_slots: u64,
    /// Slots gated by zero activations (DWC + PWC engines).
    pub gated_slots: u64,
    /// External bytes this layer moved for the whole batch.
    pub external_bytes: u64,
}

/// Result of a backend executing one formed batch.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// Per-request outputs, in batch order.
    pub outputs: Batch<i8>,
    /// Service time of the batch in cycles (= simulated-clock ticks).
    pub cycles: u64,
    /// External weight + offline-parameter bytes for the whole batch.
    pub weight_bytes: u64,
    /// Total external bytes for the whole batch.
    pub external_bytes: u64,
    /// Per-layer spans for telemetry, in execution order. Empty for
    /// backends that do not model per-layer time (golden, analytic);
    /// the simulator fills it from its batched schedule statistics.
    pub layers: Vec<LayerTrace>,
}

/// An execution engine a [`Pool`](crate::pool::Pool) worker dispatches
/// formed batches to.
///
/// Implementations must be deterministic and must report service cycles
/// consistently with the analytic [`CostModel`] so that batch boundaries
/// are identical across backends (tested in the serving suite).
///
/// Backends are `Sync` so a parallel [`crate::pool::Pool`] can execute
/// different workers' batches on different host threads (every provided
/// backend is immutable-by-`&self`; [`SimulatorBackend`] guards its scratch
/// arena internally).
pub trait Backend: Sync {
    /// Human-readable backend name (appears in reports).
    fn name(&self) -> &'static str;

    /// The accelerator configuration whose clock paces the simulation.
    fn config(&self) -> &EdeaConfig;

    /// The `(channels, height, width)` every request input must have.
    fn input_shape(&self) -> (usize, usize, usize);

    /// Executes one formed batch.
    ///
    /// # Errors
    ///
    /// Backend-specific: shape or capacity errors from the underlying
    /// execution path.
    fn run(&self, inputs: &Batch<i8>) -> Result<BackendRun, CoreError>;

    /// The service cycles a dispatch of `batch` images *will* report,
    /// declared without executing. The serve loop schedules every dispatch
    /// from these cycles, so it stays serial on the simulated clock while
    /// execution may run later, on other host threads.
    ///
    /// Every [`Backend::run`] on a batch of `batch` images must report
    /// exactly these cycles; the serve loop fails the run with
    /// [`CoreError::InvalidConfig`] on a mismatch, at every thread count.
    /// The contract is all-or-nothing: a backend that returns `None` for a
    /// batch of 1 is rejected before any batch runs, and one that declares
    /// a batch of 1 but not a larger batch it is handed fails at that
    /// dispatch. All provided backends are paced by the equality-tested
    /// [`CostModel`] and always return `Some`.
    fn dispatch_cycles(&self, batch: usize) -> Option<u64>;

    /// The input shape requests for `network` must have, or `None` if this
    /// backend does not serve that network. The default serves exactly
    /// [`NetworkId::PRIMARY`] — a single-model backend needs no override.
    fn input_shape_for(&self, network: NetworkId) -> Option<(usize, usize, usize)> {
        (network == NetworkId::PRIMARY).then(|| self.input_shape())
    }

    /// Executes one formed batch of `network` requests. The default
    /// delegates [`NetworkId::PRIMARY`] to [`Backend::run`] and rejects
    /// every other id — multi-model backends override it with a
    /// per-network execution path.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidRequest`] naming an unserved network id, plus
    /// whatever [`Backend::run`] can return.
    fn run_for(&self, network: NetworkId, inputs: &Batch<i8>) -> Result<BackendRun, CoreError> {
        if network != NetworkId::PRIMARY {
            return Err(CoreError::InvalidRequest {
                detail: format!("unknown network id {network}"),
            });
        }
        self.run(inputs)
    }

    /// [`Backend::dispatch_cycles`], per network. Same all-or-nothing
    /// contract, checked per network actually present in the stream.
    fn dispatch_cycles_for(&self, network: NetworkId, batch: usize) -> Option<u64> {
        if network == NetworkId::PRIMARY {
            self.dispatch_cycles(batch)
        } else {
            None
        }
    }

    /// External bytes to (re)load `network`'s weights and offline
    /// parameters when a worker switches its resident model to it — the
    /// model-switch cost of mixed-model serving, accounted by the pool as
    /// a traffic category of its own (never folded into
    /// [`BackendRun::external_bytes`]). Single-model backends never
    /// switch; the default is 0.
    fn switch_bytes(&self, network: NetworkId) -> u64 {
        let _ = network;
        0
    }
}

/// One network a [`SimulatorBackend`] serves: the quantized model, its
/// pre-sliced weight plan and its analytic cost model, built together.
#[derive(Debug, Clone)]
struct ModelEntry {
    id: NetworkId,
    qnet: QuantizedDscNetwork,
    plan: NetworkPlan,
    cost: CostModel,
}

/// The cycle-accurate backend: dispatches to the accelerator's planned
/// batch path and reports the *measured* cycle and traffic accounting of
/// the batched weight-residency schedule. The pre-sliced weight plan
/// ([`NetworkPlan`]) is built once at construction and one
/// [`TileScratch`] is reused across requests, so a serving session
/// neither re-slices weights nor re-grows tile buffers per dispatch.
///
/// A backend can serve **several networks**: register more with
/// [`SimulatorBackend::with_model`] (each keeps its own plan and cost
/// model; all must share the primary's input shape, the shared-stem
/// requirement that lets one pool route mixed traffic). Dispatching a
/// batch of a non-resident network costs that network's weight refetch,
/// accounted by the pool as model-switch traffic.
#[derive(Debug)]
pub struct SimulatorBackend {
    edea: Edea,
    /// Entry 0 is the primary network ([`NetworkId::PRIMARY`]).
    models: Vec<ModelEntry>,
    scratch: Mutex<TileScratch>,
}

impl Clone for SimulatorBackend {
    fn clone(&self) -> Self {
        Self {
            edea: self.edea.clone(),
            models: self.models.clone(),
            // Scratch is pure working memory: a clone starts empty and
            // grows to steady state on its first request.
            scratch: Mutex::new(TileScratch::new()),
        }
    }
}

impl SimulatorBackend {
    /// Builds a simulator backend owning the accelerator, the primary
    /// network ([`NetworkId::PRIMARY`]) and its pre-sliced weight plan.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if the network does not map onto the
    /// accelerator's engine geometry.
    pub fn new(edea: Edea, qnet: QuantizedDscNetwork) -> Result<Self, CoreError> {
        let entry = Self::entry_for(&edea, NetworkId::PRIMARY, qnet)?;
        Ok(Self {
            edea,
            models: vec![entry],
            scratch: Mutex::new(TileScratch::new()),
        })
    }

    fn entry_for(
        edea: &Edea,
        id: NetworkId,
        qnet: QuantizedDscNetwork,
    ) -> Result<ModelEntry, CoreError> {
        let shapes: Vec<LayerShape> = qnet.layers().iter().map(|l| l.shape()).collect();
        let cost = CostModel::for_network(&shapes, edea.config())?;
        let plan = edea.plan_network(&qnet)?;
        Ok(ModelEntry {
            id,
            qnet,
            plan,
            cost,
        })
    }

    /// Registers another network under `id`, with its own plan and cost
    /// model. Requests carrying `id` route to it; everything else
    /// (including the single-model serve paths) is untouched.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] if `id` is already registered or the
    ///   network's input shape differs from the primary's (one pool input
    ///   shape serves all models — the shared-stem requirement).
    /// * [`CoreError::UnsupportedShape`] if the network does not map onto
    ///   the accelerator's engine geometry.
    pub fn with_model(
        mut self,
        id: NetworkId,
        qnet: QuantizedDscNetwork,
    ) -> Result<Self, CoreError> {
        if self.models.iter().any(|m| m.id == id) {
            return Err(CoreError::InvalidConfig {
                detail: format!("network id {id} is already registered"),
            });
        }
        let entry = Self::entry_for(&self.edea, id, qnet)?;
        let s = entry.qnet.layers()[0].shape();
        let shape = (s.d_in, s.in_spatial, s.in_spatial);
        if shape != self.input_shape() {
            return Err(CoreError::InvalidConfig {
                detail: format!(
                    "network {id} input shape {shape:?} != primary input shape {:?} \
                     (mixed-model serving requires a shared stem)",
                    self.input_shape()
                ),
            });
        }
        self.models.push(entry);
        Ok(self)
    }

    /// The networks this backend serves, primary first.
    #[must_use]
    pub fn networks(&self) -> Vec<NetworkId> {
        self.models.iter().map(|m| m.id).collect()
    }

    fn entry(&self, id: NetworkId) -> Option<&ModelEntry> {
        self.models.iter().find(|m| m.id == id)
    }

    fn entry_or_err(&self, id: NetworkId) -> Result<&ModelEntry, CoreError> {
        self.entry(id).ok_or_else(|| CoreError::InvalidRequest {
            detail: format!("unknown network id {id}"),
        })
    }

    /// The analytic cost model of the primary network (measured runs agree
    /// with it exactly; equality-tested).
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        &self.models[0].cost
    }

    /// The analytic cost model of `network`, if registered.
    #[must_use]
    pub fn cost_of(&self, network: NetworkId) -> Option<&CostModel> {
        self.entry(network).map(|m| &m.cost)
    }

    /// The primary network being served.
    #[must_use]
    pub fn qnet(&self) -> &QuantizedDscNetwork {
        &self.models[0].qnet
    }

    /// The quantized network registered under `network`, if any.
    #[must_use]
    pub fn qnet_of(&self, network: NetworkId) -> Option<&QuantizedDscNetwork> {
        self.entry(network).map(|m| &m.qnet)
    }

    /// The accelerator instance executing the batches.
    #[must_use]
    pub fn accelerator(&self) -> &Edea {
        &self.edea
    }

    /// Runs `f` with the session scratch, without ever blocking: the
    /// shared arena on the fast path, a fresh one under contention or
    /// after a poisoning panic (the buffers are plain working memory,
    /// always valid to reuse).
    fn with_scratch<R>(&self, f: impl FnOnce(&mut TileScratch) -> R) -> R {
        match self.scratch.try_lock() {
            Ok(mut g) => f(&mut g),
            Err(std::sync::TryLockError::Poisoned(p)) => f(&mut p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => f(&mut TileScratch::new()),
        }
    }

    /// Runs one input through the primary network on the cycle-accurate
    /// simulator with per-image weight residency, through the session's
    /// cached plan and reused scratch.
    ///
    /// # Errors
    ///
    /// As [`Edea::run_network`].
    pub fn run_network(&self, input: &Tensor3<i8>) -> Result<NetworkRun, CoreError> {
        self.run_planned(
            NetworkId::PRIMARY,
            std::slice::from_ref(input),
            WeightResidency::PerImage,
        )
        .map(BatchRun::into_single)
    }

    /// Runs a batch through `network`'s weight-residency schedule, through
    /// the session's cached plan and reused scratch. A batch of one reports
    /// exactly the statistics of [`SimulatorBackend::run_network`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidRequest`] for an unregistered network, else as
    /// [`Edea::run_batch`].
    pub fn run_batch(&self, network: NetworkId, inputs: &Batch<i8>) -> Result<BatchRun, CoreError> {
        self.run_planned(network, inputs.images(), WeightResidency::PerBatch)
    }

    /// Runs `inputs` through `network`'s cached plan and the session
    /// scratch — the one path every run method of the session takes. No
    /// per-call identity check is needed: plan and network were built
    /// together when the model was registered and are immutable.
    fn run_planned(
        &self,
        network: NetworkId,
        inputs: &[Tensor3<i8>],
        residency: WeightResidency,
    ) -> Result<BatchRun, CoreError> {
        let m = self.entry_or_err(network)?;
        self.with_scratch(|scratch| {
            self.edea
                .run_planned(&m.qnet, &m.plan, inputs, residency, scratch)
        })
    }
}

impl Backend for SimulatorBackend {
    fn name(&self) -> &'static str {
        "simulator"
    }

    fn config(&self) -> &EdeaConfig {
        self.edea.config()
    }

    fn input_shape(&self) -> (usize, usize, usize) {
        let s = self.models[0].qnet.layers()[0].shape();
        (s.d_in, s.in_spatial, s.in_spatial)
    }

    fn run(&self, inputs: &Batch<i8>) -> Result<BackendRun, CoreError> {
        self.run_for(NetworkId::PRIMARY, inputs)
    }

    fn dispatch_cycles(&self, batch: usize) -> Option<u64> {
        // The measured batched schedule reports exactly the analytic
        // cycles (equality-tested in the serving suite).
        Some(self.cost().batch_cycles(batch))
    }

    fn input_shape_for(&self, network: NetworkId) -> Option<(usize, usize, usize)> {
        // Every registered model shares the primary's input shape
        // (enforced by `with_model`).
        self.entry(network).map(|_| self.input_shape())
    }

    fn run_for(&self, network: NetworkId, inputs: &Batch<i8>) -> Result<BackendRun, CoreError> {
        let run = self.run_batch(network, inputs)?;
        let layers = run
            .stats
            .layers
            .iter()
            .map(|l| LayerTrace {
                index: l.shape.index,
                cycles: l.cycles,
                mac_slots: l.dwc_activity.mac_slots + l.pwc_activity.mac_slots,
                gated_slots: l.dwc_activity.zero_act_slots + l.pwc_activity.zero_act_slots,
                external_bytes: l.external.total(),
            })
            .collect();
        Ok(BackendRun {
            outputs: run.outputs,
            cycles: run.stats.total_cycles(),
            weight_bytes: run.stats.external_weight_total(),
            external_bytes: run.stats.external_total(),
            layers,
        })
    }

    fn dispatch_cycles_for(&self, network: NetworkId, batch: usize) -> Option<u64> {
        self.entry(network).map(|m| m.cost.batch_cycles(batch))
    }

    fn switch_bytes(&self, network: NetworkId) -> u64 {
        // Switching the resident model refetches the incoming network's
        // weights and offline parameters in full.
        self.entry(network).map_or(0, |m| m.cost.weight_bytes())
    }
}

/// The reference backend: outputs come from `edea-nn`'s golden int8
/// executor (the semantics the simulator is verified against), service
/// cost from the analytic [`CostModel`] of the same configuration — so a
/// schedule driven by this backend forms **identical batch boundaries** to
/// the simulator while executing the reference loop nests.
#[derive(Debug, Clone)]
pub struct GoldenBackend {
    qnet: QuantizedDscNetwork,
    cfg: EdeaConfig,
    cost: CostModel,
}

impl GoldenBackend {
    /// Builds a golden backend for `qnet`, costed as if running on `cfg`.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if the network does not map onto
    /// `cfg`'s engine geometry (the cost model needs the mapping even
    /// though the reference execution itself would not).
    pub fn new(qnet: QuantizedDscNetwork, cfg: EdeaConfig) -> Result<Self, CoreError> {
        cfg.validate()?;
        let shapes: Vec<LayerShape> = qnet.layers().iter().map(|l| l.shape()).collect();
        let cost = CostModel::for_network(&shapes, &cfg)?;
        Ok(Self { qnet, cfg, cost })
    }

    /// The analytic cost model pacing this backend.
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }
}

impl Backend for GoldenBackend {
    fn name(&self) -> &'static str {
        "golden"
    }

    fn config(&self) -> &EdeaConfig {
        &self.cfg
    }

    fn input_shape(&self) -> (usize, usize, usize) {
        let s = self.qnet.layers()[0].shape();
        (s.d_in, s.in_spatial, s.in_spatial)
    }

    fn run(&self, inputs: &Batch<i8>) -> Result<BackendRun, CoreError> {
        let unsupported = |detail: String| CoreError::UnsupportedShape { detail };
        let outputs = inputs
            .iter()
            .map(|img| executor::try_run_network(&self.qnet, img).map(|e| e.output))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| unsupported(e.to_string()))?;
        Ok(BackendRun {
            outputs: Batch::new(outputs).map_err(|e| unsupported(e.to_string()))?,
            cycles: self.cost.batch_cycles(inputs.len()),
            weight_bytes: self.cost.weight_bytes(),
            external_bytes: self.cost.batch_external_bytes(inputs.len()),
            layers: Vec::new(),
        })
    }

    fn dispatch_cycles(&self, batch: usize) -> Option<u64> {
        Some(self.cost.batch_cycles(batch))
    }
}

/// The capacity-planning backend: no network, no weights, no outputs —
/// service cost and traffic come from the analytic [`CostModel`] alone and
/// every "output" is an all-zero placeholder map. Use it for load sweeps
/// and property tests where only the scheduling behaviour matters; it is
/// orders of magnitude faster than executing the network.
#[derive(Debug, Clone)]
pub struct AnalyticBackend {
    cfg: EdeaConfig,
    cost: CostModel,
    in_shape: (usize, usize, usize),
    out_shape: (usize, usize, usize),
}

impl AnalyticBackend {
    /// Builds an analytic backend for a layer chain on `cfg`.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if a layer does not map onto the
    /// engine geometry or the chain is inconsistent.
    pub fn new(shapes: &[LayerShape], cfg: &EdeaConfig) -> Result<Self, CoreError> {
        cfg.validate()?;
        let cost = CostModel::for_network(shapes, cfg)?;
        let first = &shapes[0];
        let last = &shapes[shapes.len() - 1];
        Ok(Self {
            cfg: cfg.clone(),
            cost,
            in_shape: (first.d_in, first.in_spatial, first.in_spatial),
            out_shape: (last.k_out, last.out_spatial(), last.out_spatial()),
        })
    }

    /// The analytic cost model pacing this backend.
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }
}

impl Backend for AnalyticBackend {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn config(&self) -> &EdeaConfig {
        &self.cfg
    }

    fn input_shape(&self) -> (usize, usize, usize) {
        self.in_shape
    }

    fn run(&self, inputs: &Batch<i8>) -> Result<BackendRun, CoreError> {
        let (k, h, w) = self.out_shape;
        #[expect(
            clippy::expect_used,
            reason = "the from_fn closure yields one fixed shape"
        )]
        let outputs = Batch::from_fn(inputs.len(), |_| Tensor3::<i8>::zeros(k, h, w))
            .expect("uniform placeholder outputs");
        Ok(BackendRun {
            outputs,
            cycles: self.cost.batch_cycles(inputs.len()),
            weight_bytes: self.cost.weight_bytes(),
            external_bytes: self.cost.batch_external_bytes(inputs.len()),
            layers: Vec::new(),
        })
    }

    fn dispatch_cycles(&self, batch: usize) -> Option<u64> {
        Some(self.cost.batch_cycles(batch))
    }
}

/// The batch-forming policy: dispatch when `max_batch` requests are queued,
/// or when the oldest queued request has waited `max_wait` ticks, whichever
/// comes first (and never before the accelerator is free).
///
/// `max_wait = 0` disables batching-by-waiting: every request dispatches as
/// soon as the accelerator is free, batching only what has already queued
/// up behind a busy accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// Largest batch a worker may form (`≥ 1`).
    pub max_batch: usize,
    /// Longest a queue-head request may wait, in ticks, before the batch is
    /// dispatched regardless of its size.
    pub max_wait: u64,
}

impl Policy {
    /// Builds a validated policy.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if `max_batch` is zero.
    pub fn new(max_batch: usize, max_wait: u64) -> Result<Self, CoreError> {
        let p = Self {
            max_batch,
            max_wait,
        };
        p.validate()?;
        Ok(p)
    }

    /// Checks the policy invariants.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if `max_batch` is zero.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.max_batch == 0 {
            return Err(CoreError::InvalidConfig {
                detail: "policy max_batch must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// One inference request: an input image stamped with its arrival tick and
/// the network it targets ([`NetworkId::PRIMARY`] unless the stream is
/// mixed-model).
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen identifier, unique within one `serve` call.
    pub id: u64,
    /// Arrival tick on the simulated clock.
    pub arrival: u64,
    /// The network this request targets. Backends that serve a single
    /// model only accept [`NetworkId::PRIMARY`].
    pub network: NetworkId,
    /// The quantized layer-0 input.
    pub input: Tensor3<i8>,
}

impl Request {
    /// Builds one request against the primary network.
    #[must_use]
    pub fn new(id: u64, arrival: u64, input: Tensor3<i8>) -> Self {
        Self::for_network(id, arrival, NetworkId::PRIMARY, input)
    }

    /// Builds one request against a specific network.
    #[must_use]
    pub fn for_network(id: u64, arrival: u64, network: NetworkId, input: Tensor3<i8>) -> Self {
        Self {
            id,
            arrival,
            network,
            input,
        }
    }

    /// Zips an arrival pattern with inputs into a request stream against
    /// the primary network, assigning ids `0..n` in order.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidRequest`] if the lengths differ.
    pub fn stream(arrivals: &[u64], inputs: Vec<Tensor3<i8>>) -> Result<Vec<Self>, CoreError> {
        if arrivals.len() != inputs.len() {
            return Err(CoreError::InvalidRequest {
                detail: format!(
                    "{} arrival ticks for {} inputs",
                    arrivals.len(),
                    inputs.len()
                ),
            });
        }
        Ok(arrivals
            .iter()
            .zip(inputs)
            .enumerate()
            .map(|(id, (&arrival, input))| Self::new(id as u64, arrival, input))
            .collect())
    }

    /// [`Request::stream`] with a per-request network id — the mixed-model
    /// traffic constructor.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidRequest`] if the three lengths differ.
    pub fn stream_mixed(
        arrivals: &[u64],
        networks: &[NetworkId],
        inputs: Vec<Tensor3<i8>>,
    ) -> Result<Vec<Self>, CoreError> {
        if arrivals.len() != inputs.len() || networks.len() != inputs.len() {
            return Err(CoreError::InvalidRequest {
                detail: format!(
                    "{} arrival ticks and {} network ids for {} inputs",
                    arrivals.len(),
                    networks.len(),
                    inputs.len()
                ),
            });
        }
        Ok(arrivals
            .iter()
            .zip(networks)
            .zip(inputs)
            .enumerate()
            .map(|(id, ((&arrival, &network), input))| {
                Self::for_network(id as u64, arrival, network, input)
            })
            .collect())
    }
}

/// One served request: the output plus its full timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request id.
    pub id: u64,
    /// Arrival tick (copied from the request).
    pub arrival: u64,
    /// Tick the carrying batch was dispatched.
    pub dispatched: u64,
    /// Tick the carrying batch completed.
    pub completed: u64,
    /// Index of the carrying batch in [`ServeReport::batches`].
    pub batch: usize,
    /// The network that served the request.
    pub network: NetworkId,
    /// The int8 network output.
    pub output: Tensor3<i8>,
}

impl Response {
    /// Ticks spent queued before dispatch.
    #[must_use]
    pub fn queue_ticks(&self) -> u64 {
        self.dispatched - self.arrival
    }

    /// End-to-end latency in ticks (arrival → completion).
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.completed - self.arrival
    }
}

/// One dispatched batch in a serve run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// Batch index in dispatch order.
    pub index: usize,
    /// Number of requests in the batch.
    pub size: usize,
    /// Earliest arrival among the members.
    pub oldest_arrival: u64,
    /// Dispatch tick.
    pub dispatched: u64,
    /// Completion tick (`dispatched + cycles`).
    pub completed: u64,
    /// Service cycles reported by the backend.
    pub cycles: u64,
    /// The network the batch ran (batches are never mixed-network).
    pub network: NetworkId,
    /// External weight + offline-parameter bytes (paid once per batch).
    pub weight_bytes: u64,
    /// Total external bytes.
    pub external_bytes: u64,
    /// Model-switch traffic: the weight refetch paid because the worker's
    /// resident network differed from this batch's. Zero whenever the
    /// previous batch on the same worker ran the same network — so a
    /// single-model run reports zero everywhere. A category of its own,
    /// **not** folded into [`BatchRecord::external_bytes`].
    pub switch_bytes: u64,
}

/// Everything a serve run produced: per-request responses, per-batch
/// records, and aggregate throughput / latency / SLO statistics.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Name of the backend that executed the run.
    pub backend: String,
    /// The policy the run's workers formed batches under.
    pub policy: Policy,
    /// Responses in dispatch order (batch by batch, FIFO within a batch).
    pub responses: Vec<Response>,
    /// Batches in dispatch order.
    pub batches: Vec<BatchRecord>,
}

impl ServeReport {
    /// Looks a response up by request id.
    #[must_use]
    pub fn response(&self, id: u64) -> Option<&Response> {
        self.responses.iter().find(|r| r.id == id)
    }

    /// Completion tick of the last batch to finish (0 for an empty run).
    /// Batches are recorded in dispatch order, and on a pool of several
    /// workers an earlier, larger batch can finish after a later one, so
    /// this is the maximum completion tick, not the last record's.
    #[must_use]
    pub fn makespan(&self) -> u64 {
        self.batches.iter().map(|b| b.completed).max().unwrap_or(0)
    }

    /// Mean formed-batch size.
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        self.responses.len() as f64 / self.batches.len() as f64
    }

    /// External weight + offline-parameter bytes per served image — the
    /// amortization headline: equals the single-image figure when every
    /// batch has size 1 and falls toward `1/max_batch` of it as batches
    /// fill.
    #[must_use]
    pub fn weight_bytes_per_image(&self) -> f64 {
        if self.responses.is_empty() {
            return 0.0;
        }
        let bytes: u64 = self.batches.iter().map(|b| b.weight_bytes).sum();
        bytes as f64 / self.responses.len() as f64
    }

    /// Total external bytes per served image.
    #[must_use]
    pub fn external_bytes_per_image(&self) -> f64 {
        if self.responses.is_empty() {
            return 0.0;
        }
        let bytes: u64 = self.batches.iter().map(|b| b.external_bytes).sum();
        bytes as f64 / self.responses.len() as f64
    }

    /// Total model-switch traffic across all batches — the mixed-model
    /// serving cost headline. Zero for any single-model run.
    #[must_use]
    pub fn switch_bytes_total(&self) -> u64 {
        self.batches.iter().map(|b| b.switch_bytes).sum()
    }

    /// Mean end-to-end latency in ticks over the responses of one network
    /// (`None` when the run served none of its requests).
    #[must_use]
    pub fn mean_latency_for(&self, network: NetworkId) -> Option<f64> {
        let lat: Vec<u64> = self
            .responses
            .iter()
            .filter(|r| r.network == network)
            .map(Response::latency)
            .collect();
        if lat.is_empty() {
            return None;
        }
        Some(lat.iter().map(|&l| l as f64).sum::<f64>() / lat.len() as f64)
    }

    /// Mean end-to-end latency in ticks.
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        if self.responses.is_empty() {
            return 0.0;
        }
        self.responses
            .iter()
            .map(|r| r.latency() as f64)
            .sum::<f64>()
            / self.responses.len() as f64
    }

    /// Worst end-to-end latency in ticks.
    #[must_use]
    pub fn max_latency(&self) -> u64 {
        self.responses
            .iter()
            .map(Response::latency)
            .max()
            .unwrap_or(0)
    }

    /// Latency percentile in ticks, by the **nearest-rank** rule over the
    /// sorted latencies: the value at index `round(p/100 · (n−1))`, where
    /// `round` is half-away-from-zero ([`f64::round`]) — so at a half-index
    /// the *higher* rank wins (`p = 50` of two latencies returns the
    /// larger; for odd `n` it is the exact median). `p = 0` is the
    /// minimum, `p = 100` the maximum.
    ///
    /// `p` is clamped into `0.0..=100.0` (a NaN `p` reads as `0`); an
    /// empty report returns `0`, consistent with the rest of the
    /// empty-report convention (see [`ServeReport::slo_attainment`]).
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> u64 {
        if self.responses.is_empty() {
            return 0;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        let mut lat: Vec<u64> = self.responses.iter().map(Response::latency).collect();
        lat.sort_unstable();
        let idx = ((p / 100.0) * (lat.len() - 1) as f64).round() as usize;
        lat[idx.min(lat.len() - 1)]
    }

    /// Median end-to-end latency in ticks
    /// (= [`latency_percentile(50.0)`](ServeReport::latency_percentile)).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.latency_percentile(50.0)
    }

    /// 95th-percentile end-to-end latency in ticks
    /// (= [`latency_percentile(95.0)`](ServeReport::latency_percentile)).
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.latency_percentile(95.0)
    }

    /// 99th-percentile end-to-end latency in ticks
    /// (= [`latency_percentile(99.0)`](ServeReport::latency_percentile)).
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.latency_percentile(99.0)
    }

    /// Fraction of requests whose latency met `slo` ticks.
    ///
    /// An empty report returns `0.0` — **every** aggregate statistic of an
    /// empty report is zero (mean/max latency, percentiles, batch size,
    /// bytes per image, throughput, and this attainment), so an idle
    /// window never reads as a vacuously *met* SLO.
    #[must_use]
    pub fn slo_attainment(&self, slo: u64) -> f64 {
        if self.responses.is_empty() {
            return 0.0;
        }
        self.responses.iter().filter(|r| r.latency() <= slo).count() as f64
            / self.responses.len() as f64
    }

    /// Served images per second at `cfg`'s clock (images over the
    /// makespan). An empty report returns `0.0` (the empty-report
    /// convention of [`ServeReport::slo_attainment`]).
    #[must_use]
    pub fn throughput_images_per_second(&self, cfg: &EdeaConfig) -> f64 {
        if self.makespan() == 0 {
            return 0.0;
        }
        self.responses.len() as f64 / (self.makespan() as f64 * cfg.period_ns() * 1e-9)
    }
}

/// Deterministic arrival-pattern generators for serving experiments.
///
/// All generators return sorted tick sequences and are pure functions of
/// their arguments — the same inputs always yield the same pattern, on
/// every platform (the streams come from the vendored xoshiro generator).
pub mod arrivals {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `n` arrivals at a fixed inter-arrival `gap`: `0, gap, 2·gap, …`,
    /// saturating at `u64::MAX`.
    #[must_use]
    pub fn uniform(n: usize, gap: u64) -> Vec<u64> {
        (0..n as u64).map(|i| i.saturating_mul(gap)).collect()
    }

    /// `n` arrivals with exponentially distributed inter-arrival times of
    /// mean `mean_gap` ticks (a Poisson process), seeded.
    ///
    /// # Panics
    ///
    /// Panics unless `mean_gap` is positive and finite: an infinite (or
    /// NaN) gap would pass a bare positivity check and then saturate every
    /// arrival tick to `u64::MAX` in the float→tick rounding — a silent
    /// degenerate stream instead of an error at the call site.
    #[must_use]
    pub fn poisson(n: usize, mean_gap: f64, seed: u64) -> Vec<u64> {
        assert!(
            mean_gap.is_finite() && mean_gap > 0.0,
            "mean gap must be positive and finite, got {mean_gap}"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0f64;
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(0.0..1.0);
                t += -mean_gap * (1.0 - u).ln();
                t.round() as u64
            })
            .collect()
    }

    /// `n` arrivals in bursts of `burst` simultaneous requests, one burst
    /// every `gap` ticks (the last burst may be partial), saturating at
    /// `u64::MAX`.
    #[must_use]
    pub fn bursts(n: usize, burst: usize, gap: u64) -> Vec<u64> {
        assert!(burst > 0, "burst size must be positive");
        (0..n)
            .map(|i| ((i / burst) as u64).saturating_mul(gap))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{DispatchPolicy, Dispatcher, Pool};
    use edea_nn::workload::mobilenet_v1_cifar10;

    fn analytic() -> AnalyticBackend {
        AnalyticBackend::new(&mobilenet_v1_cifar10(), &EdeaConfig::paper()).unwrap()
    }

    fn zero_requests(backend: &AnalyticBackend, ticks: &[u64]) -> Vec<Request> {
        let (d, h, w) = backend.input_shape();
        Request::stream(
            ticks,
            (0..ticks.len())
                .map(|_| Tensor3::<i8>::zeros(d, h, w))
                .collect(),
        )
        .unwrap()
    }

    /// Serves `reqs` on a round-robin pool of one `backend`.
    fn serve_one<B: Backend + Clone>(
        backend: &B,
        policy: Policy,
        reqs: Vec<Request>,
    ) -> Result<ServeReport, CoreError> {
        let pool = Pool::replicate(backend.clone(), 1)?;
        Ok(Dispatcher::new(policy, DispatchPolicy::RoundRobin)
            .serve(&pool, reqs)?
            .serve)
    }

    #[test]
    fn cost_model_matches_timing_model() {
        let cfg = EdeaConfig::paper();
        let shapes = mobilenet_v1_cifar10();
        let cost = CostModel::for_network(&shapes, &cfg).unwrap();
        let total: u64 = shapes
            .iter()
            .map(|s| crate::timing::layer_cycles(s, &cfg).total())
            .sum();
        assert_eq!(cost.per_image_cycles(), total);
        assert_eq!(cost.batch_cycles(4), 4 * total);
        // Weight bytes are positive and independent of batch size; stream
        // bytes scale with it.
        assert!(cost.weight_bytes() > 0);
        assert_eq!(
            cost.batch_external_bytes(3) - cost.batch_external_bytes(1),
            2 * cost.stream_bytes_per_image()
        );
    }

    #[test]
    fn cost_model_rejects_broken_chains() {
        let cfg = EdeaConfig::paper();
        let mut shapes = mobilenet_v1_cifar10();
        shapes[1].d_in += 8; // still a Td multiple, but no longer chains
        assert!(matches!(
            CostModel::for_network(&shapes, &cfg),
            Err(CoreError::UnsupportedShape { .. })
        ));
        assert!(matches!(
            CostModel::for_network(&[], &cfg),
            Err(CoreError::UnsupportedShape { .. })
        ));
    }

    #[test]
    fn full_queue_dispatches_immediately_in_fifo_chunks() {
        let b = analytic();
        let reqs = zero_requests(&b, &[0; 8]);
        let report = serve_one(&b, Policy::new(4, 1_000_000).unwrap(), reqs).unwrap();
        assert_eq!(report.batches.len(), 2);
        assert_eq!(report.batches[0].size, 4);
        assert_eq!(report.batches[1].size, 4);
        assert_eq!(report.batches[0].dispatched, 0);
        // The second batch waits for the accelerator, not the deadline.
        assert_eq!(report.batches[1].dispatched, report.batches[0].completed);
        // FIFO: ids 0..4 ride batch 0, 4..8 batch 1.
        for r in &report.responses {
            assert_eq!(r.batch, (r.id / 4) as usize, "request {}", r.id);
        }
    }

    #[test]
    fn lone_request_dispatches_at_its_deadline() {
        let b = analytic();
        let reqs = zero_requests(&b, &[10]);
        let report = serve_one(&b, Policy::new(4, 500).unwrap(), reqs).unwrap();
        assert_eq!(report.batches.len(), 1);
        assert_eq!(report.batches[0].dispatched, 510);
        assert_eq!(
            report.responses[0].latency(),
            500 + b.cost().per_image_cycles()
        );
    }

    #[test]
    fn zero_wait_policy_dispatches_eagerly() {
        let b = analytic();
        let reqs = zero_requests(&b, &[0, 10]);
        let report = serve_one(&b, Policy::new(4, 0).unwrap(), reqs).unwrap();
        // The first request dispatches alone at t=0; the second queues
        // behind the busy accelerator and dispatches at its completion.
        assert_eq!(report.batches.len(), 2);
        assert_eq!(report.batches[0].dispatched, 0);
        assert_eq!(report.batches[0].size, 1);
        assert_eq!(report.batches[1].dispatched, report.batches[0].completed);
    }

    #[test]
    fn arrival_inside_wait_window_joins_the_batch() {
        let b = analytic();
        let reqs = zero_requests(&b, &[0, 400]);
        let report = serve_one(&b, Policy::new(2, 1_000).unwrap(), reqs).unwrap();
        // The batch fills at t=400, well before the t=1000 deadline.
        assert_eq!(report.batches.len(), 1);
        assert_eq!(report.batches[0].size, 2);
        assert_eq!(report.batches[0].dispatched, 400);
    }

    #[test]
    fn arrival_after_deadline_forms_its_own_batch() {
        let b = analytic();
        let service = b.cost().per_image_cycles();
        let late = 100 + service + 1; // after the first batch completes
        let reqs = zero_requests(&b, &[0, late]);
        let report = serve_one(&b, Policy::new(2, 100).unwrap(), reqs).unwrap();
        assert_eq!(report.batches.len(), 2);
        assert_eq!(report.batches[0].dispatched, 100);
        assert_eq!(report.batches[1].dispatched, late + 100);
    }

    #[test]
    fn queue_grows_behind_busy_accelerator_and_amortizes() {
        // Offered load ~2× capacity: arrivals every half service time.
        let b = analytic();
        let gap = b.cost().per_image_cycles() / 2;
        let reqs = zero_requests(&b, &arrivals::uniform(16, gap));
        let report = serve_one(&b, Policy::new(8, 0).unwrap(), reqs).unwrap();
        assert!(
            report.mean_batch_size() > 1.5,
            "mean batch {}",
            report.mean_batch_size()
        );
        let single = b.cost().weight_bytes() as f64;
        assert!(
            report.weight_bytes_per_image() < single,
            "{} !< {single}",
            report.weight_bytes_per_image()
        );
    }

    #[test]
    fn report_statistics_are_consistent() {
        let b = analytic();
        let reqs = zero_requests(&b, &arrivals::bursts(6, 3, 1_000_000));
        let report = serve_one(&b, Policy::new(4, 0).unwrap(), reqs).unwrap();
        assert_eq!(report.responses.len(), 6);
        assert_eq!(report.makespan(), report.batches.last().unwrap().completed);
        assert!(report.latency_percentile(0.0) <= report.latency_percentile(50.0));
        assert!(report.latency_percentile(50.0) <= report.latency_percentile(100.0));
        assert_eq!(report.latency_percentile(100.0), report.max_latency());
        assert!((0.0..=1.0).contains(&report.slo_attainment(report.max_latency())));
        assert_eq!(report.slo_attainment(report.max_latency()), 1.0);
        assert!(report.throughput_images_per_second(b.config()) > 0.0);
        // Batches never overlap and dispatch after their members arrive.
        for pair in report.batches.windows(2) {
            assert!(pair[1].dispatched >= pair[0].completed);
        }
        for r in &report.responses {
            assert!(r.dispatched >= r.arrival);
            assert_eq!(r.completed, r.dispatched + report.batches[r.batch].cycles);
        }
    }

    #[test]
    fn empty_request_stream_yields_empty_report() {
        let b = analytic();
        let report = serve_one(&b, Policy::new(4, 100).unwrap(), Vec::new()).unwrap();
        assert!(report.responses.is_empty());
        assert!(report.batches.is_empty());
        assert_eq!(report.makespan(), 0);
        assert_eq!(report.mean_batch_size(), 0.0);
    }

    /// Builds a report whose responses have exactly the given latencies
    /// (arrival 0, completion = latency), with no batch records.
    fn report_with_latencies(lats: &[u64]) -> ServeReport {
        ServeReport {
            backend: "test".into(),
            policy: Policy::new(1, 0).unwrap(),
            responses: lats
                .iter()
                .enumerate()
                .map(|(i, &lat)| Response {
                    id: i as u64,
                    arrival: 0,
                    dispatched: 0,
                    completed: lat,
                    batch: 0,
                    network: NetworkId::PRIMARY,
                    output: Tensor3::<i8>::zeros(1, 1, 1),
                })
                .collect(),
            batches: Vec::new(),
        }
    }

    #[test]
    fn latency_percentile_exact_values_at_small_n() {
        // n = 1: every percentile is the lone latency.
        let r = report_with_latencies(&[7]);
        for p in [0.0, 50.0, 100.0] {
            assert_eq!(r.latency_percentile(p), 7, "n=1 p={p}");
        }
        // n = 2: p50 sits at the half-index 0.5, which rounds *up*
        // (half-away-from-zero), so the larger latency wins.
        let r = report_with_latencies(&[10, 20]);
        assert_eq!(r.latency_percentile(0.0), 10);
        assert_eq!(r.latency_percentile(50.0), 20);
        assert_eq!(r.latency_percentile(100.0), 20);
        // n = 3: p50 is the exact median.
        let r = report_with_latencies(&[30, 10, 20]); // unsorted on purpose
        assert_eq!(r.latency_percentile(0.0), 10);
        assert_eq!(r.latency_percentile(50.0), 20);
        assert_eq!(r.latency_percentile(100.0), 30);
    }

    #[test]
    fn latency_percentile_clamps_out_of_range_p() {
        let r = report_with_latencies(&[10, 20, 30]);
        assert_eq!(r.latency_percentile(-5.0), r.latency_percentile(0.0));
        assert_eq!(r.latency_percentile(250.0), r.latency_percentile(100.0));
        assert_eq!(r.latency_percentile(f64::NAN), r.latency_percentile(0.0));
        assert_eq!(
            r.latency_percentile(f64::NEG_INFINITY),
            r.latency_percentile(0.0)
        );
        assert_eq!(
            r.latency_percentile(f64::INFINITY),
            r.latency_percentile(100.0)
        );
    }

    #[test]
    fn empty_report_statistics_are_uniformly_zero() {
        // The empty-report convention: no vacuous SLO success, no
        // asymmetry — every aggregate is zero.
        let r = report_with_latencies(&[]);
        assert_eq!(r.slo_attainment(u64::MAX), 0.0);
        assert_eq!(r.throughput_images_per_second(&EdeaConfig::paper()), 0.0);
        assert_eq!(r.latency_percentile(50.0), 0);
        assert_eq!(r.mean_latency(), 0.0);
        assert_eq!(r.max_latency(), 0);
        assert_eq!(r.mean_batch_size(), 0.0);
        assert_eq!(r.weight_bytes_per_image(), 0.0);
        assert_eq!(r.external_bytes_per_image(), 0.0);
        assert_eq!(r.makespan(), 0);
    }

    #[test]
    fn nonempty_report_slo_attainment_counts_met_requests() {
        let r = report_with_latencies(&[10, 20, 30, 40]);
        assert_eq!(r.slo_attainment(5), 0.0);
        assert_eq!(r.slo_attainment(20), 0.5);
        assert_eq!(r.slo_attainment(40), 1.0);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        let b = analytic();
        assert!(matches!(
            Policy::new(0, 10),
            Err(CoreError::InvalidConfig { .. })
        ));
        // Wrong input shape.
        let bad = vec![Request::new(0, 0, Tensor3::<i8>::zeros(1, 1, 1))];
        assert!(matches!(
            serve_one(&b, Policy::new(2, 0).unwrap(), bad),
            Err(CoreError::InvalidRequest { .. })
        ));
        // Duplicate ids.
        let (d, h, w) = b.input_shape();
        let dup = vec![
            Request::new(7, 0, Tensor3::<i8>::zeros(d, h, w)),
            Request::new(7, 1, Tensor3::<i8>::zeros(d, h, w)),
        ];
        assert!(matches!(
            serve_one(&b, Policy::new(2, 0).unwrap(), dup),
            Err(CoreError::InvalidRequest { .. })
        ));
        // Mismatched stream lengths.
        assert!(matches!(
            Request::stream(&[0, 1], vec![Tensor3::<i8>::zeros(d, h, w)]),
            Err(CoreError::InvalidRequest { .. })
        ));
        // Mismatched mixed-stream lengths.
        assert!(matches!(
            Request::stream_mixed(
                &[0, 1],
                &[NetworkId::PRIMARY],
                vec![Tensor3::<i8>::zeros(d, h, w), Tensor3::<i8>::zeros(d, h, w)]
            ),
            Err(CoreError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn unknown_network_id_on_a_single_model_backend_names_the_request() {
        // A single-model backend (the trait defaults) serves only
        // PRIMARY: a request targeting any other network must fail up
        // front with an InvalidRequest naming both the request and the
        // network — not a panic, not a silently dropped response.
        let b = analytic();
        let (d, h, w) = b.input_shape();
        let reqs = vec![Request::for_network(
            3,
            0,
            NetworkId(7),
            Tensor3::<i8>::zeros(d, h, w),
        )];
        let err = serve_one(&b, Policy::new(1, 0).unwrap(), reqs).unwrap_err();
        match err {
            CoreError::InvalidRequest { detail } => {
                assert!(detail.contains("request 3"), "{detail}");
                assert!(detail.contains("net7"), "{detail}");
            }
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
    }

    #[test]
    fn multi_model_registration_is_validated() {
        use crate::accelerator::Edea;
        use edea_nn::mobilenet::{MobileNetV1, MobileNetV2};
        use edea_nn::quantize::{QuantStrategy, QuantizedDscNetwork};
        use edea_nn::sparsity::SparsityProfile;
        use edea_tensor::rng;

        let calib = rng::synthetic_batch(2, 3, 32, 32, 32);
        let calibrate_v1 = |width| {
            let mut model = MobileNetV1::synthetic(width, 31);
            let profile = SparsityProfile::near_dense(model.blocks().len());
            QuantizedDscNetwork::calibrate_shaped(
                &mut model,
                &calib,
                &profile,
                QuantStrategy::paper(),
            )
            .unwrap()
            .0
        };
        let q1 = calibrate_v1(0.5);
        let q2 = QuantizedDscNetwork::calibrate_v2(
            &MobileNetV2::synthetic(0.25, 41),
            &calib,
            QuantStrategy::paper(),
        )
        .unwrap();
        // A second model on the primary's id is a duplicate.
        let backend =
            SimulatorBackend::new(Edea::new(EdeaConfig::paper()).unwrap(), q1.clone()).unwrap();
        let err = backend.clone().with_model(NetworkId::PRIMARY, q2.clone());
        assert!(
            matches!(err, Err(CoreError::InvalidConfig { .. })),
            "{err:?}"
        );
        // A model whose stem disagrees with the primary's cannot share
        // the pool's single input shape.
        let narrow = calibrate_v1(0.25);
        let err = backend.clone().with_model(NetworkId(1), narrow);
        match err {
            Err(CoreError::InvalidConfig { detail }) => {
                assert!(detail.contains("shared stem"), "{detail}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // A valid registration serves both ids; any other id is an
        // InvalidRequest naming the network.
        let backend = backend.with_model(NetworkId(1), q2).unwrap();
        assert_eq!(backend.networks(), vec![NetworkId::PRIMARY, NetworkId(1)]);
        assert_eq!(
            backend.input_shape_for(NetworkId(1)),
            Some(backend.input_shape())
        );
        assert!(backend.dispatch_cycles_for(NetworkId(1), 2).is_some());
        assert!(backend.switch_bytes(NetworkId(1)) > 0);
        let (d, h, w) = backend.input_shape();
        let batch = Batch::new(vec![Tensor3::<i8>::zeros(d, h, w)]).unwrap();
        let err = backend.run_batch(NetworkId(5), &batch).unwrap_err();
        match err {
            CoreError::InvalidRequest { detail } => {
                assert!(detail.contains("net5"), "{detail}");
            }
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
    }

    #[test]
    fn backend_returning_wrong_output_count_is_an_error() {
        // The Backend trait is public; a broken implementation must
        // surface as an error, not as silently dropped responses.
        #[derive(Clone)]
        struct ShortBackend(AnalyticBackend);
        impl Backend for ShortBackend {
            fn name(&self) -> &'static str {
                "short"
            }
            fn config(&self) -> &EdeaConfig {
                self.0.config()
            }
            fn input_shape(&self) -> (usize, usize, usize) {
                self.0.input_shape()
            }
            fn run(&self, inputs: &Batch<i8>) -> Result<BackendRun, CoreError> {
                let mut run = self.0.run(inputs)?;
                let mut images = run.outputs.into_images();
                images.pop();
                run.outputs = Batch::new(images).expect("still non-empty");
                Ok(run)
            }
            fn dispatch_cycles(&self, batch: usize) -> Option<u64> {
                self.0.dispatch_cycles(batch)
            }
        }
        let b = ShortBackend(analytic());
        let reqs = zero_requests(&b.0, &[0, 0]);
        let err = serve_one(&b, Policy::new(2, 0).unwrap(), reqs).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedShape { .. }), "{err:?}");
    }

    #[test]
    fn serve_is_deterministic() {
        let b = analytic();
        let ticks = arrivals::poisson(24, 30_000.0, 99);
        let policy = Policy::new(4, 50_000).unwrap();
        let a = serve_one(&b, policy, zero_requests(&b, &ticks)).unwrap();
        let c = serve_one(&b, policy, zero_requests(&b, &ticks)).unwrap();
        assert_eq!(a.responses, c.responses);
        assert_eq!(a.batches, c.batches);
    }

    #[test]
    fn arrival_generators_are_deterministic_and_sorted() {
        let p1 = arrivals::poisson(32, 1000.0, 5);
        let p2 = arrivals::poisson(32, 1000.0, 5);
        assert_eq!(p1, p2);
        assert!(p1.windows(2).all(|w| w[0] <= w[1]));
        assert_ne!(p1, arrivals::poisson(32, 1000.0, 6));
        assert_eq!(arrivals::uniform(3, 10), vec![0, 10, 20]);
        assert_eq!(arrivals::bursts(5, 2, 100), vec![0, 0, 100, 100, 200]);
        // Gaps too large for the tick range saturate, as `poisson`'s
        // float→tick conversion does, rather than overflow or wrap.
        assert_eq!(arrivals::uniform(3, u64::MAX), vec![0, u64::MAX, u64::MAX]);
        assert_eq!(
            arrivals::bursts(5, 2, u64::MAX / 2 + 1),
            vec![0, 0, u64::MAX / 2 + 1, u64::MAX / 2 + 1, u64::MAX]
        );
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn poisson_rejects_infinite_mean_gap() {
        // An infinite gap used to pass the bare `> 0.0` assert and then
        // saturate every tick to u64::MAX; now it fails fast.
        let _ = arrivals::poisson(4, f64::INFINITY, 1);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn poisson_rejects_nan_mean_gap() {
        let _ = arrivals::poisson(4, f64::NAN, 1);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn poisson_rejects_nonpositive_mean_gap() {
        let _ = arrivals::poisson(4, 0.0, 1);
    }
}
