//! The accelerator pool: N serving backends behind one dispatcher.
//!
//! The paper argues a *single* EDEA instance wins by keeping DWC→PWC
//! traffic on-chip; the system-level question is how many instances it
//! takes to serve heavy traffic, and what replication costs. This module
//! answers it in simulation:
//!
//! * [`Pool`] — N [`Backend`] workers, each with its own busy-until clock
//!   and its own weight residency (every dispatch to a worker pays that
//!   worker's batch-wide weight fetch — replicas do **not** share DRAM
//!   amortization).
//! * [`Dispatcher`] — routes requests to workers under a
//!   [`DispatchPolicy`] ([`RoundRobin`](DispatchPolicy::RoundRobin),
//!   [`LeastLoaded`](DispatchPolicy::LeastLoaded) — fewest outstanding
//!   requests, earliest-free tie-break — or
//!   [`JoinShortestQueue`](DispatchPolicy::JoinShortestQueue)), while
//!   each worker forms batches from its own FIFO queue under one shared
//!   [`Policy`] rule.
//! * [`PoolReport`] — a [`ServeReport`] aggregate plus per-worker
//!   utilization, queue-depth and traffic accounting
//!   ([`WorkerReport`]), and the batch → worker assignment map.
//!
//! The whole pool runs on one simulated clock: one tick is one accelerator
//! cycle, and the run is a pure function of
//! `(requests, policy, dispatch policy, pool)`.
//!
//! **A single backend is the N = 1 case.** [`Dispatcher::serve`] is the
//! one serve entry: to serve on one backend, serve on
//! `Pool::replicate(backend, 1)`. A pool of one produces a bit-identical
//! [`ServeReport`] under every dispatch policy (all three route every
//! request to the lone worker) — pinned by a regression test in the root
//! `tests/pool.rs` suite.
//!
//! **Replication cost.** Batching amortizes the per-dispatch weight fetch;
//! spreading a fixed arrival stream over more workers shortens queues, so
//! batches shrink and the *aggregate* weight DRAM traffic per image
//! **rises** with N — the inverse of the `batch_sweep` 1/N curve, and the
//! price of horizontal scaling the single-instance model cannot show (see
//! the `pool_sweep` experiment).
//!
//! # Example
//!
//! ```
//! use edea_core::pool::{Dispatcher, DispatchPolicy, Pool};
//! use edea_core::serve::{arrivals, AnalyticBackend, Backend, Policy, Request};
//! use edea_core::EdeaConfig;
//! use edea_nn::workload::mobilenet_v1_cifar10;
//! use edea_tensor::Tensor3;
//!
//! let cfg = EdeaConfig::paper();
//! let backend = AnalyticBackend::new(&mobilenet_v1_cifar10(), &cfg)?;
//! let (d, h, w) = backend.input_shape();
//! let pool = Pool::replicate(backend, 4)?;
//! let ticks = arrivals::poisson(16, 20_000.0, 7);
//! let inputs = (0..16).map(|_| Tensor3::<i8>::zeros(d, h, w)).collect();
//! let dispatcher = Dispatcher::new(Policy::new(4, 100_000)?, DispatchPolicy::LeastLoaded);
//! let report = dispatcher.serve(&pool, Request::stream(&ticks, inputs)?)?;
//! assert_eq!(report.serve.responses.len(), 16);
//! assert_eq!(report.workers.len(), 4);
//! # Ok::<(), edea_core::CoreError>(())
//! ```

use std::collections::VecDeque;

use edea_nn::workload::NetworkId;
use edea_tensor::Batch;

use crate::config::EdeaConfig;
use crate::par::{self, Parallelism};
use crate::serve::{
    Backend, BackendRun, BatchRecord, LayerTrace, Policy, Request, Response, ServeReport,
};
use crate::telemetry::{Event, Telemetry};
use crate::CoreError;

/// How the dispatcher assigns incoming requests to pool workers.
///
/// Every policy is deterministic (ties break toward the lowest worker
/// index) and all three coincide on a pool of one — the single-backend
/// case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Cyclic assignment in arrival order, blind to worker state.
    RoundRobin,
    /// The worker with the least outstanding work — fewest requests
    /// queued **plus in service** (the batch it is currently executing),
    /// ties broken by the earliest-free worker (smallest busy-until
    /// tick; an idle worker counts as free *now*), then lower index.
    LeastLoaded,
    /// The worker with the fewest queued (not yet dispatched) requests —
    /// blind to the batch in service — ties broken by earlier free tick,
    /// then lower index.
    JoinShortestQueue,
}

impl std::fmt::Display for DispatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastLoaded => "least-loaded",
            DispatchPolicy::JoinShortestQueue => "join-shortest-queue",
        })
    }
}

/// A pool of N serving backends with identical interfaces: same input
/// shape and same accelerator configuration (one clock paces the whole
/// simulation).
///
/// Workers are typically N clones of one backend ([`Pool::replicate`]) —
/// each clone owns its weight plan and scratch, the simulated analogue of
/// N chips each holding a resident copy of the weights.
#[derive(Debug, Clone)]
pub struct Pool<B> {
    workers: Vec<B>,
    par: Parallelism,
}

impl<B: Backend> Pool<B> {
    /// Builds a pool from explicit workers.
    ///
    /// Host parallelism defaults to [`Parallelism::from_env`]
    /// (`EDEA_THREADS`, else serial); override with
    /// [`Pool::with_parallelism`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if `workers` is empty or a worker
    /// disagrees with worker 0 on input shape or configuration.
    pub fn new(workers: Vec<B>) -> Result<Self, CoreError> {
        if workers.is_empty() {
            return Err(CoreError::InvalidConfig {
                detail: "pool must contain at least one worker".into(),
            });
        }
        let shape = workers[0].input_shape();
        let cfg = workers[0].config().clone();
        for (i, w) in workers.iter().enumerate().skip(1) {
            if w.input_shape() != shape {
                return Err(CoreError::InvalidConfig {
                    detail: format!(
                        "pool worker {i} input shape {:?} != worker 0 input shape {shape:?}",
                        w.input_shape()
                    ),
                });
            }
            if *w.config() != cfg {
                return Err(CoreError::InvalidConfig {
                    detail: format!(
                        "pool worker {i} configuration differs from worker 0 \
                         (one clock must pace the whole pool)"
                    ),
                });
            }
        }
        let (par, warning) = Parallelism::from_env_checked();
        if let Some(w) = &warning {
            Parallelism::warn_env_once(w);
        }
        Ok(Self { workers, par })
    }

    /// Builds a pool of `n` clones of one worker.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if `n` is zero.
    pub fn replicate(worker: B, n: usize) -> Result<Self, CoreError>
    where
        B: Clone,
    {
        if n == 0 {
            return Err(CoreError::InvalidConfig {
                detail: "pool must contain at least one worker".into(),
            });
        }
        Self::new(vec![worker; n])
    }

    /// Number of workers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// A pool is never empty (enforced at construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The workers.
    #[must_use]
    pub fn workers(&self) -> &[B] {
        &self.workers
    }

    /// The configuration pacing every worker.
    #[must_use]
    pub fn config(&self) -> &EdeaConfig {
        self.workers[0].config()
    }

    /// The host-parallelism knob for batch execution across workers.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// Sets the host thread count for executing different workers' batches
    /// concurrently. A host-simulation knob, not a serving parameter: the
    /// dispatch loop stays serial on the simulated clock at any setting,
    /// and reports are bit-identical (see [`crate::par`]): the thread
    /// count decides only when dispatched batches execute.
    #[must_use]
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.par = par;
        self
    }

    /// In-place variant of [`Pool::with_parallelism`].
    pub fn set_parallelism(&mut self, par: Parallelism) {
        self.par = par;
    }
}

/// Routes a request stream across a [`Pool`]: a [`DispatchPolicy`] assigns
/// each request to a worker's FIFO queue at its arrival tick, and each
/// worker forms batches from its own queue under the shared [`Policy`]
/// (dispatch when the batch fills or the queue head's deadline passes,
/// never before that worker is free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dispatcher {
    policy: Policy,
    dispatch: DispatchPolicy,
}

impl Dispatcher {
    /// Builds a dispatcher with a batch-forming `policy` and a routing
    /// `dispatch` policy.
    #[must_use]
    pub fn new(policy: Policy, dispatch: DispatchPolicy) -> Self {
        Self { policy, dispatch }
    }

    /// The batch-forming policy each worker runs under.
    #[must_use]
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The routing policy.
    #[must_use]
    pub fn dispatch_policy(&self) -> DispatchPolicy {
        self.dispatch
    }

    /// Serves a request stream to completion across the pool.
    ///
    /// Requests may be supplied in any order; they are routed in
    /// `(arrival, id)` order and served FIFO within each worker. The run
    /// is a pure function of its arguments.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidConfig`] if the policy is invalid.
    /// * [`CoreError::InvalidRequest`] on a duplicate id or an input whose
    ///   shape does not match the pool's input shape.
    /// * Any error a worker returns for a dispatched batch.
    pub fn serve<B: Backend>(
        &self,
        pool: &Pool<B>,
        requests: Vec<Request>,
    ) -> Result<PoolReport, CoreError> {
        self.serve_with(pool, requests, &crate::telemetry::Disabled)
    }

    /// [`Dispatcher::serve`] with a telemetry sink observing the run.
    ///
    /// The sink receives the canonical event stream (see
    /// [`crate::telemetry`]) derived from the run's assembled outcome, so
    /// it is bit-identical at every thread count; passing
    /// [`crate::telemetry::Disabled`] makes this identical to
    /// [`Dispatcher::serve`] at zero extra cost.
    ///
    /// # Errors
    ///
    /// Same as [`Dispatcher::serve`].
    pub fn serve_with<B: Backend>(
        &self,
        pool: &Pool<B>,
        requests: Vec<Request>,
        telemetry: &dyn crate::telemetry::Telemetry,
    ) -> Result<PoolReport, CoreError> {
        drive(
            &pool.workers,
            self.policy,
            self.dispatch,
            requests,
            pool.par,
            telemetry,
        )
    }
}

/// Per-worker accounting of one pool serve run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkerReport {
    /// Worker index in the pool.
    pub index: usize,
    /// Requests routed to this worker.
    pub requests: usize,
    /// Batches this worker dispatched.
    pub batches: usize,
    /// Cycles this worker spent executing batches.
    pub busy_cycles: u64,
    /// External weight + offline-parameter bytes this worker fetched
    /// (paid per dispatch — replicas do not share residency).
    pub weight_bytes: u64,
    /// Total external bytes this worker moved.
    pub external_bytes: u64,
    /// Model-switch traffic this worker paid: the weight refetch charged
    /// whenever a dispatched batch's network differed from the worker's
    /// resident one. Workers start resident on [`NetworkId::PRIMARY`], so
    /// a single-model run reports zero. A traffic category of its own,
    /// never folded into [`WorkerReport::external_bytes`].
    pub switch_bytes: u64,
    /// Deepest its request queue ever got.
    pub max_queue_depth: usize,
    /// Time-averaged queue depth over the run's makespan.
    pub mean_queue_depth: f64,
}

/// Everything a pool serve run produced: the aggregate [`ServeReport`]
/// (responses and batches in global dispatch order — identical under
/// every dispatch policy when the pool has one worker), per-worker
/// accounting, and the batch → worker assignment map.
#[derive(Debug, Clone)]
pub struct PoolReport {
    /// Aggregate report over all workers, in global dispatch order.
    pub serve: ServeReport,
    /// The routing policy the run used.
    pub dispatch: DispatchPolicy,
    /// Per-worker accounting, indexed by worker.
    pub workers: Vec<WorkerReport>,
    /// Worker index that executed each batch of
    /// [`ServeReport::batches`](crate::serve::ServeReport).
    pub assignments: Vec<usize>,
}

impl PoolReport {
    /// Number of workers the run dispatched across.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The worker that executed batch `batch` (`None` out of range).
    #[must_use]
    pub fn worker_of(&self, batch: usize) -> Option<usize> {
        self.assignments.get(batch).copied()
    }

    /// Fraction of the makespan worker `w` spent busy.
    ///
    /// Returns 0.0 both for an empty run (per the empty-report
    /// convention) and for an out-of-range worker index — like
    /// [`PoolReport::worker_of`]'s `None`, the accessors never panic on a
    /// bad index.
    #[must_use]
    pub fn worker_utilization(&self, w: usize) -> f64 {
        let makespan = self.serve.makespan();
        let Some(worker) = self.workers.get(w) else {
            return 0.0;
        };
        if makespan == 0 {
            return 0.0;
        }
        worker.busy_cycles as f64 / makespan as f64
    }

    /// `(min, max)` worker utilization — the load-balance spread.
    #[must_use]
    pub fn utilization_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for w in 0..self.workers.len() {
            let u = self.worker_utilization(w);
            lo = lo.min(u);
            hi = hi.max(u);
        }
        if lo.is_infinite() {
            lo = 0.0;
        }
        (lo, hi)
    }

    /// Mean worker utilization.
    #[must_use]
    pub fn mean_utilization(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        (0..self.workers.len())
            .map(|w| self.worker_utilization(w))
            .sum::<f64>()
            / self.workers.len() as f64
    }

    /// Deepest any worker's queue ever got.
    #[must_use]
    pub fn max_queue_depth(&self) -> usize {
        self.workers
            .iter()
            .map(|w| w.max_queue_depth)
            .max()
            .unwrap_or(0)
    }

    /// Aggregate external weight + offline-parameter bytes per served
    /// image — **rises** with the worker count at fixed load: spreading
    /// the stream shortens queues, batches shrink, and every extra
    /// dispatch pays its own weight fetch (the replication cost).
    #[must_use]
    pub fn weight_bytes_per_image(&self) -> f64 {
        self.serve.weight_bytes_per_image()
    }
}

/// One worker's scheduling state inside the event loop (its accounting
/// accumulates in place in the run's [`WorkerReport`]).
struct WorkerState {
    queue: VecDeque<Request>,
    free_at: u64,
    /// Size of the batch currently executing (counts as outstanding work
    /// for [`DispatchPolicy::LeastLoaded`] while `free_at` is in the
    /// future).
    in_service: usize,
    /// The network whose weights the worker holds resident. Workers boot
    /// resident on the primary model; dispatching any other network pays
    /// that network's switch traffic and flips residency.
    resident: NetworkId,
    /// `Σ queue-depth × ticks`, advanced whenever simulated time moves.
    depth_integral: u128,
}

impl WorkerState {
    fn new() -> Self {
        Self {
            queue: VecDeque::new(),
            free_at: 0,
            in_service: 0,
            resident: NetworkId::PRIMARY,
            depth_integral: 0,
        }
    }

    /// Number of leading queued requests that target the same network as
    /// the queue head, counted up to `cap` — the batch the worker would
    /// dispatch (batches are never mixed-network: one plan runs per
    /// dispatch). Both callers pass `policy.max_batch`, so the count reads
    /// at most `max_batch` requests however deep the queue: a serve-loop
    /// event costs O(workers · max_batch), not O(queued requests).
    fn same_network_prefix(&self, cap: usize) -> usize {
        let Some(head) = self.queue.front() else {
            return 0;
        };
        self.queue
            .iter()
            .take(cap)
            .take_while(|r| r.network == head.network)
            .count()
    }

    /// The tick this worker's next batch may dispatch, given the current
    /// simulated time — the [`Policy`] rule:
    /// `ready = now.max(free_at)`; dispatch at `ready` when the head's
    /// same-network prefix holds `max_batch`, else at the queue head's
    /// waiting deadline (but never before `ready`). A request of another
    /// network parked behind the prefix never fills the head's batch.
    fn dispatch_at(&self, now: u64, policy: Policy) -> Option<u64> {
        let head = self.queue.front()?;
        let ready = now.max(self.free_at);
        if self.same_network_prefix(policy.max_batch) >= policy.max_batch {
            Some(ready)
        } else {
            Some(ready.max(head.arrival.saturating_add(policy.max_wait)))
        }
    }
}

/// Picks the worker for a request arriving at `now` under `policy`.
fn route(
    workers: &[WorkerState],
    policy: DispatchPolicy,
    rr_cursor: &mut usize,
    now: u64,
) -> usize {
    match policy {
        DispatchPolicy::RoundRobin => {
            let i = *rr_cursor;
            *rr_cursor = (*rr_cursor + 1) % workers.len();
            i
        }
        #[expect(clippy::expect_used, reason = "Pool::new rejects empty worker sets")]
        DispatchPolicy::LeastLoaded => {
            workers
                .iter()
                .enumerate()
                .min_by_key(|(i, w)| {
                    let busy = if w.free_at > now { w.in_service } else { 0 };
                    (w.queue.len() + busy, w.free_at.max(now), *i)
                })
                .expect("pool is non-empty")
                .0
        }
        #[expect(clippy::expect_used, reason = "Pool::new rejects empty worker sets")]
        DispatchPolicy::JoinShortestQueue => {
            workers
                .iter()
                .enumerate()
                .min_by_key(|(i, w)| (w.queue.len(), w.free_at.max(now), *i))
                .expect("pool is non-empty")
                .0
        }
    }
}

/// One dispatched batch awaiting [`execute`]: the scheduling decision
/// (who, when, how long) is final; it still owns its inputs.
struct PlannedBatch {
    worker: usize,
    /// The network every member targets (batches are never mixed).
    network: NetworkId,
    /// `(id, arrival)` of each drained request, in FIFO order.
    timeline: Vec<(u64, u64)>,
    inputs: Batch<i8>,
    dispatched: u64,
    /// The backend's pre-declared service cycles
    /// ([`Backend::dispatch_cycles_for`]); the measured run must match
    /// exactly, enforced at assembly.
    predicted: u64,
    /// Model-switch traffic charged at the (serial) scheduling decision.
    switch_bytes: u64,
}

impl PoolReport {
    /// Folds one executed batch into the report — called once per batch,
    /// in global dispatch order, so the batch index is the number of
    /// batches completed before it. Fails on a wrong output count, or on
    /// measured cycles that differ from the predicted ones.
    fn complete(
        &mut self,
        layers: &mut Option<Vec<Vec<LayerTrace>>>,
        backend: &str,
        p: PlannedBatch,
        run: BackendRun,
    ) -> Result<(), CoreError> {
        let size = p.timeline.len();
        if run.outputs.len() != size {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "backend {backend} returned {} outputs for a batch of {size}",
                    run.outputs.len()
                ),
            });
        }
        if run.cycles != p.predicted {
            return Err(CoreError::InvalidConfig {
                detail: format!(
                    "backend {backend} reported {} cycles for a batch of {size} but \
                     declared {} at dispatch; dispatch_cycles must equal the \
                     measured run exactly",
                    run.cycles, p.predicted
                ),
            });
        }
        if let Some(layers) = layers {
            layers.push(run.layers);
        }
        let worker = &mut self.workers[p.worker];
        worker.weight_bytes += run.weight_bytes;
        worker.external_bytes += run.external_bytes;
        let index = self.serve.batches.len();
        let completed = p.dispatched + p.predicted;
        self.serve.batches.push(BatchRecord {
            index,
            size,
            oldest_arrival: p.timeline[0].1,
            dispatched: p.dispatched,
            completed,
            cycles: p.predicted,
            network: p.network,
            weight_bytes: run.weight_bytes,
            external_bytes: run.external_bytes,
            switch_bytes: p.switch_bytes,
        });
        for ((id, arrival), output) in p.timeline.into_iter().zip(run.outputs.into_images()) {
            self.serve.responses.push(Response {
                id,
                arrival,
                dispatched: p.dispatched,
                completed,
                batch: index,
                network: p.network,
                output,
            });
        }
        Ok(())
    }
}

/// Runs every planned batch, then completes each in global dispatch order.
/// Batches run on by-worker lanes (`lane_of[w]` is worker `w`'s), so
/// each worker's batches run in dispatch order. A lane stops at its first
/// error, so the globally first error always runs and wins.
fn execute<W: Backend>(
    workers: &[W],
    lane_of: &[usize],
    planned: &mut Vec<PlannedBatch>,
    report: &mut PoolReport,
    layers: &mut Option<Vec<Vec<LayerTrace>>>,
) -> Result<(), CoreError> {
    let lanes = lane_of.last().map_or(1, |&l| l + 1);
    let mut runs = par::map_lanes(vec![(); lanes], |lane, ()| {
        let mut runs = Vec::new();
        for p in planned.iter().filter(|p| lane_of[p.worker] == lane) {
            let run = workers[p.worker].run_for(p.network, &p.inputs);
            let failed = run.is_err();
            runs.push(run);
            if failed {
                break;
            }
        }
        runs.into_iter()
    });
    for p in planned.drain(..) {
        #[expect(
            clippy::expect_used,
            reason = "a lane skips batches only after its first error, which completes \
                      (and returns) before any batch it skipped"
        )]
        let run = runs[lane_of[p.worker]]
            .next()
            .expect("every batch up to the first error was executed")?;
        report.complete(layers, workers[p.worker].name(), p, run)?;
    }
    Ok(())
}

/// Intake for the first request of a network: every worker must serve the
/// network and declare its cycles, so no batch can fail mid-run for want
/// of either.
fn admit<W: Backend>(workers: &[W], r: &Request) -> Result<(), CoreError> {
    for (i, w) in workers.iter().enumerate() {
        if w.input_shape_for(r.network).is_none() {
            return Err(CoreError::InvalidRequest {
                detail: format!(
                    "request {}: unknown network id {} (pool worker {i}, backend {}, \
                     does not serve it)",
                    r.id,
                    r.network,
                    w.name()
                ),
            });
        }
        if w.dispatch_cycles_for(r.network, 1).is_none() {
            return Err(CoreError::InvalidConfig {
                detail: format!(
                    "backend {} declares no dispatch cycles for network {}",
                    w.name(),
                    r.network
                ),
            });
        }
    }
    Ok(())
}

/// One routing decision, side-recorded in the serial scheduling loop so
/// the telemetry post-pass can replay arrivals in routing order. Collected
/// only when the sink is enabled — the disabled path allocates nothing.
struct RouteRecord {
    /// Arrival tick (= enqueue tick; routing is immediate).
    t: u64,
    /// Request id.
    request: u64,
    /// Network the request targets.
    network: NetworkId,
    /// Worker the dispatch policy chose.
    worker: usize,
    /// Queue depth just after the push (what `max_queue_depth` samples).
    depth: usize,
}

/// Replays a finished run as the canonical telemetry event stream (see
/// `crate::telemetry`): phase A emits arrival + enqueue per routing
/// decision in routing order; phase B walks batches in global dispatch
/// order emitting form/switch/dispatch, per-layer spans tiling the batch
/// span, the batch span itself, then a completion per member request.
///
/// Everything here is derived from the *assembled* run — `routes` from
/// the serial scheduling loop, the rest from outputs that are already
/// bit-identical across thread counts (PR-7 contract) — so the stream is
/// bit-identical at every thread count by construction. Worker threads
/// never touch the sink.
fn emit(
    tel: &dyn Telemetry,
    routes: &[RouteRecord],
    responses: &[Response],
    batches: &[BatchRecord],
    assignments: &[usize],
    batch_layers: &[Vec<LayerTrace>],
) {
    for r in routes {
        tel.record(&Event::RequestArrived {
            t: r.t,
            request: r.request,
            network: r.network,
        });
        tel.record(&Event::RequestEnqueued {
            t: r.t,
            request: r.request,
            worker: r.worker,
            depth: r.depth,
        });
    }
    // Responses are pushed batch-by-batch in dispatch order, so each
    // batch's members are the next `size` responses.
    let mut member = 0usize;
    for b in batches {
        let worker = assignments.get(b.index).copied().unwrap_or(0);
        tel.record(&Event::BatchFormed {
            t: b.dispatched,
            batch: b.index,
            worker,
            size: b.size,
            network: b.network,
        });
        if b.switch_bytes > 0 {
            tel.record(&Event::ModelSwitch {
                t: b.dispatched,
                batch: b.index,
                worker,
                network: b.network,
                bytes: b.switch_bytes,
            });
        }
        tel.record(&Event::BatchDispatched {
            t: b.dispatched,
            batch: b.index,
            worker,
            size: b.size,
            network: b.network,
        });
        let mut cursor = b.dispatched;
        if let Some(layers) = batch_layers.get(b.index) {
            for l in layers {
                let end = cursor + l.cycles;
                tel.record(&Event::LayerExecuted {
                    start: cursor,
                    end,
                    batch: b.index,
                    worker,
                    layer: l.index,
                    network: b.network,
                    cycles: l.cycles,
                    mac_slots: l.mac_slots,
                    gated_slots: l.gated_slots,
                });
                cursor = end;
            }
        }
        tel.record(&Event::BatchExecuted {
            start: b.dispatched,
            end: b.completed,
            batch: b.index,
            worker,
            size: b.size,
            network: b.network,
            cycles: b.cycles,
            weight_bytes: b.weight_bytes,
            external_bytes: b.external_bytes,
            switch_bytes: b.switch_bytes,
        });
        for resp in responses.iter().skip(member).take(b.size) {
            tel.record(&Event::RequestCompleted {
                t: resp.completed,
                request: resp.id,
                batch: b.index,
                worker,
                network: resp.network,
                latency: resp.completed - resp.arrival,
                queue_ticks: resp.dispatched - resp.arrival,
            });
        }
        member += b.size;
    }
}

/// The shared discrete-event serve loop: routes arrivals to per-worker
/// queues and dispatches each worker's batches in global time order,
/// processing arrivals before dispatches at equal ticks (an arrival at or
/// before a dispatch tick joins a queue first — it may fill a batch and
/// move its dispatch earlier).
///
/// [`Dispatcher::serve_with`] calls this with the pool's N workers. With
/// one worker every routing policy is the identity, so a single backend
/// is served as the N = 1 case of this loop.
///
/// # One scheduling rule, one execution step
///
/// The loop stays serial on the simulated clock: every dispatch is
/// scheduled from its backend's declared cycles as a [`PlannedBatch`],
/// which [`execute`] runs and [`PoolReport::complete`] checks. The lane
/// count, `par.threads().min(workers.len())`, decides only when
/// [`execute`] runs: with one lane right after each dispatch, so inputs
/// are freed as batches complete; with more, once after the loop, so
/// different workers' batches run concurrently. Reports and the first
/// error are the same either way.
fn drive<W: Backend>(
    workers: &[W],
    policy: Policy,
    dispatch: DispatchPolicy,
    requests: Vec<Request>,
    par: Parallelism,
    tel: &dyn Telemetry,
) -> Result<PoolReport, CoreError> {
    policy.validate()?;
    // Telemetry is derived, never recorded from worker threads: routing
    // decisions are side-recorded in the serial loop below, per-batch
    // layer traces are captured off each run, and one post-pass replays
    // the assembled outcome into the sink (see `emit`). With a disabled
    // sink none of these vectors ever allocates.
    let observe = tel.enabled();
    let mut routes: Vec<RouteRecord> = Vec::new();
    let mut layers: Option<Vec<Vec<LayerTrace>>> = observe.then(Vec::new);
    assert!(!workers.is_empty(), "pool is non-empty by construction");
    let mut admitted: Vec<NetworkId> = Vec::new();
    for r in &requests {
        if !admitted.contains(&r.network) {
            admit(workers, r)?;
            admitted.push(r.network);
        }
        if let Some(want) = workers[0]
            .input_shape_for(r.network)
            .filter(|&want| want != r.input.shape())
        {
            return Err(CoreError::InvalidRequest {
                detail: format!(
                    "request {}: input shape {:?} != backend input shape {want:?}",
                    r.id,
                    r.input.shape(),
                ),
            });
        }
    }
    {
        let mut ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        if let Some(dup) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(CoreError::InvalidRequest {
                detail: format!("duplicate request id {}", dup[0]),
            });
        }
    }

    let lanes = par.threads().min(workers.len());
    let mut lane_of = vec![0usize; workers.len()];
    for (lane, range) in (0..).zip(par::chunk_ranges(workers.len(), lanes)) {
        lane_of[range].fill(lane);
    }
    let mut report = PoolReport {
        serve: ServeReport {
            backend: workers[0].name().to_string(),
            policy,
            responses: Vec::with_capacity(requests.len()),
            batches: Vec::new(),
        },
        dispatch,
        workers: (0..workers.len())
            .map(|index| WorkerReport {
                index,
                ..WorkerReport::default()
            })
            .collect(),
        assignments: Vec::new(),
    };
    let mut pending: VecDeque<Request> = {
        let mut v = requests;
        v.sort_by_key(|r| (r.arrival, r.id));
        v.into()
    };
    let mut states: Vec<WorkerState> = (0..workers.len()).map(|_| WorkerState::new()).collect();
    let mut planned: Vec<PlannedBatch> = Vec::new();
    let mut rr_cursor = 0usize;
    let mut now = 0u64;

    // Advances simulated time to `t`, accumulating each worker's
    // queue-depth integral over the elapsed ticks.
    let advance = |states: &mut [WorkerState], now: &mut u64, t: u64| {
        if t > *now {
            let dt = u128::from(t - *now);
            for s in states.iter_mut() {
                s.depth_integral += s.queue.len() as u128 * dt;
            }
            *now = t;
        }
    };

    loop {
        // The earliest worker dispatch on the table (ties → lowest index).
        let next_dispatch: Option<(u64, usize)> = states
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.dispatch_at(now, policy).map(|t| (t, i)))
            .min();

        // Route the next arrival if it lands at or before that dispatch.
        let route_next = match (pending.front(), next_dispatch) {
            (Some(r), Some((t, _))) => r.arrival <= t,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };

        if route_next {
            #[expect(
                clippy::expect_used,
                reason = "route_next is true only when the front exists"
            )]
            let r = pending.pop_front().expect("checked front");
            advance(&mut states, &mut now, r.arrival);
            let w = route(&states, dispatch, &mut rr_cursor, now);
            let queue = &mut states[w].queue;
            if observe {
                routes.push(RouteRecord {
                    t: r.arrival,
                    request: r.id,
                    network: r.network,
                    worker: w,
                    depth: queue.len() + 1,
                });
            }
            queue.push_back(r);
            let acct = &mut report.workers[w];
            acct.requests += 1;
            acct.max_queue_depth = acct.max_queue_depth.max(queue.len());
            continue;
        }

        #[expect(
            clippy::expect_used,
            reason = "route_next is false only when a dispatch exists"
        )]
        let (t, wi) = next_dispatch.expect("route_next is false only with a dispatch");
        advance(&mut states, &mut now, t);
        let state = &mut states[wi];
        let size = state.same_network_prefix(policy.max_batch);
        #[expect(
            clippy::expect_used,
            reason = "dispatch_at returned Some, so the queue head (and thus a non-empty \
                      same-network prefix) exists"
        )]
        let network = state.queue.front().expect("non-empty batch").network;
        let Some(cycles) = workers[wi].dispatch_cycles_for(network, size) else {
            // Errors surface in dispatch order at every lane count: batches
            // dispatched before this one run (and may fail) first.
            execute(workers, &lane_of, &mut planned, &mut report, &mut layers)?;
            return Err(CoreError::InvalidConfig {
                detail: format!(
                    "backend {} declared dispatch cycles for a batch of 1 but not for \
                     a batch of {size}; dispatch_cycles must be all-or-nothing",
                    workers[wi].name()
                ),
            });
        };
        let Some(free_at) = now.checked_add(cycles) else {
            execute(workers, &lane_of, &mut planned, &mut report, &mut layers)?;
            return Err(CoreError::InvalidRequest {
                detail: format!(
                    "request {}: a batch dispatched at tick {now} for {cycles} cycles \
                     would complete past the end of the simulated clock",
                    state.queue[0].id
                ),
            });
        };
        // Move the inputs out of the drained requests — no tensor copies
        // on the dispatch path.
        let mut timeline = Vec::with_capacity(size);
        let mut inputs = Vec::with_capacity(size);
        for r in state.queue.drain(..size) {
            timeline.push((r.id, r.arrival));
            inputs.push(r.input);
        }
        #[expect(
            clippy::expect_used,
            reason = "every request shape was checked against the backend at intake \
                      (InvalidRequest), so the drained batch is uniform"
        )]
        let inputs = Batch::new(inputs).expect("request shapes validated above");
        // A dispatch whose network differs from the worker's resident one
        // pays the incoming network's refetch and flips residency.
        let switch = if state.resident == network {
            0
        } else {
            workers[wi].switch_bytes(network)
        };
        state.resident = network;
        state.free_at = free_at;
        state.in_service = size;
        let acct = &mut report.workers[wi];
        acct.switch_bytes += switch;
        acct.batches += 1;
        acct.busy_cycles += cycles;
        report.assignments.push(wi);
        planned.push(PlannedBatch {
            worker: wi,
            network,
            timeline,
            inputs,
            dispatched: now,
            predicted: cycles,
            switch_bytes: switch,
        });
        if lanes == 1 {
            execute(workers, &lane_of, &mut planned, &mut report, &mut layers)?;
        }
    }
    execute(workers, &lane_of, &mut planned, &mut report, &mut layers)?;

    let makespan = report.serve.makespan();
    for (acct, s) in report.workers.iter_mut().zip(&states) {
        if makespan > 0 {
            acct.mean_queue_depth = s.depth_integral as f64 / makespan as f64;
        }
    }
    if let Some(layers) = &layers {
        emit(
            tel,
            &routes,
            &report.serve.responses,
            &report.serve.batches,
            &report.assignments,
            layers,
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{arrivals, AnalyticBackend};
    use edea_nn::workload::mobilenet_v1_cifar10;
    use edea_tensor::Tensor3;

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

    #[test]
    fn empty_pool_and_zero_replication_are_rejected() {
        assert!(matches!(
            Pool::<AnalyticBackend>::new(Vec::new()),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Pool::replicate(analytic(), 0),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn mismatched_workers_are_rejected() {
        let a = analytic();
        let mut shapes = mobilenet_v1_cifar10();
        shapes.truncate(3); // different output, same input shape — allowed
        let b = AnalyticBackend::new(&shapes, &EdeaConfig::paper()).unwrap();
        assert!(Pool::new(vec![a.clone(), b]).is_ok());

        // A different clock is not allowed: one clock paces the pool.
        let mut cfg = EdeaConfig::paper();
        cfg.clock_mhz *= 2;
        let c = AnalyticBackend::new(&mobilenet_v1_cifar10(), &cfg).unwrap();
        assert!(matches!(
            Pool::new(vec![a, c]),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn pool_of_one_matches_single_scheduler_for_every_policy() {
        let b = analytic();
        let ticks = arrivals::poisson(24, b.cost().per_image_cycles() as f64 / 2.0, 31);
        let policy = Policy::new(4, b.cost().per_image_cycles()).unwrap();
        let single = Dispatcher::new(policy, DispatchPolicy::RoundRobin)
            .serve(
                &Pool::replicate(b.clone(), 1).unwrap(),
                zero_requests(&b, &ticks),
            )
            .unwrap()
            .serve;
        for dp in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastLoaded,
            DispatchPolicy::JoinShortestQueue,
        ] {
            let pool = Pool::replicate(b.clone(), 1).unwrap();
            let report = Dispatcher::new(policy, dp)
                .serve(&pool, zero_requests(&b, &ticks))
                .unwrap();
            assert_eq!(report.serve.batches, single.batches, "{dp}");
            assert_eq!(report.serve.responses, single.responses, "{dp}");
            assert_eq!(report.assignments, vec![0; single.batches.len()], "{dp}");
        }
    }

    #[test]
    fn makespan_is_the_latest_completion_not_the_last_dispatch() {
        // Round-robin puts requests 0 and 2 on worker 0 and request 1 on
        // worker 1. Both workers dispatch at t = 0, worker 0 first, so
        // worker 0's batch of two is recorded first yet finishes last.
        let b = analytic();
        let service = b.cost().per_image_cycles();
        let pool = Pool::replicate(b.clone(), 2).unwrap();
        let recorder = crate::telemetry::Recorder::with_capacity(64);
        let report = Dispatcher::new(Policy::new(2, 0).unwrap(), DispatchPolicy::RoundRobin)
            .serve_with(&pool, zero_requests(&b, &[0, 0, 0]), &recorder)
            .unwrap();
        let batches = &report.serve.batches;
        assert_eq!(report.assignments, vec![0, 1]);
        assert_eq!((batches[0].size, batches[1].size), (2, 1));
        assert_eq!(batches[0].completed, 2 * service);
        assert_eq!(batches[1].completed, service);
        assert_eq!(report.serve.makespan(), 2 * service);
        assert_eq!(report.worker_utilization(0), 1.0);
        assert_eq!(report.worker_utilization(1), 0.5);
        // The telemetry views derive the same makespan from the events.
        let events = recorder.events();
        assert_eq!(crate::telemetry::derive::makespan(&events), 2 * service);
        let registry = crate::telemetry::metrics::Registry::from_events(&events);
        assert_eq!(registry.gauge("makespan_ticks"), Some(2 * service));
    }

    #[test]
    fn a_dispatch_completing_past_the_clock_is_rejected() {
        // The second dispatch, at tick u64::MAX, would complete past the
        // end of the simulated clock; the first batch still runs.
        let b = analytic();
        let ticks = arrivals::uniform(3, u64::MAX);
        assert_eq!(ticks, [0, u64::MAX, u64::MAX]);
        let policy = Policy::new(1, 0).unwrap();
        let rejected = |e: Option<CoreError>| {
            matches!(e, Some(CoreError::InvalidRequest { detail })
                if detail.starts_with("request 1:") && detail.contains("simulated clock"))
        };
        assert!(rejected(
            Dispatcher::new(policy, DispatchPolicy::RoundRobin)
                .serve(
                    &Pool::replicate(b.clone(), 1).unwrap(),
                    zero_requests(&b, &ticks)
                )
                .err()
        ));
        for threads in [1, 2] {
            let pool = Pool::replicate(b.clone(), 2)
                .unwrap()
                .with_parallelism(Parallelism::new(threads).unwrap());
            let report = Dispatcher::new(policy, DispatchPolicy::LeastLoaded)
                .serve(&pool, zero_requests(&b, &ticks));
            assert!(rejected(report.err()), "threads {threads}");
        }
    }

    #[test]
    fn round_robin_cycles_through_workers() {
        let b = analytic();
        // Far-apart arrivals: each request dispatches alone; round-robin
        // must still cycle 0, 1, 2, 0, 1, 2.
        let gap = b.cost().per_image_cycles() * 2;
        let pool = Pool::replicate(b.clone(), 3).unwrap();
        let report = Dispatcher::new(Policy::new(1, 0).unwrap(), DispatchPolicy::RoundRobin)
            .serve(&pool, zero_requests(&b, &arrivals::uniform(6, gap)))
            .unwrap();
        assert_eq!(report.assignments, vec![0, 1, 2, 0, 1, 2]);
        for w in &report.workers {
            assert_eq!(w.requests, 2);
            assert_eq!(w.batches, 2);
        }
    }

    #[test]
    fn least_loaded_prefers_idle_workers() {
        let b = analytic();
        let service = b.cost().per_image_cycles();
        // r0 at t=0 occupies worker 0; r1 arrives while it is busy and
        // must go to the idle worker 1, not queue behind worker 0.
        let pool = Pool::replicate(b.clone(), 2).unwrap();
        let report = Dispatcher::new(Policy::new(4, 0).unwrap(), DispatchPolicy::LeastLoaded)
            .serve(&pool, zero_requests(&b, &[0, service / 2]))
            .unwrap();
        assert_eq!(report.assignments, vec![0, 1]);
        assert_eq!(report.serve.batches[1].dispatched, service / 2);
        // Both served with zero queueing: latency is exactly one service.
        for r in &report.serve.responses {
            assert_eq!(r.latency(), service);
        }
    }

    #[test]
    fn join_shortest_queue_balances_a_burst() {
        let b = analytic();
        // Four simultaneous arrivals, max_wait long enough that nothing
        // dispatches during routing: JSQ spreads them 1-1-1-1.
        let pool = Pool::replicate(b.clone(), 4).unwrap();
        let report = Dispatcher::new(
            Policy::new(4, 1_000_000).unwrap(),
            DispatchPolicy::JoinShortestQueue,
        )
        .serve(&pool, zero_requests(&b, &[0, 0, 0, 0]))
        .unwrap();
        for w in &report.workers {
            assert_eq!(w.requests, 1, "worker {}", w.index);
        }
    }

    #[test]
    fn two_workers_double_throughput_of_an_overloaded_stream() {
        let b = analytic();
        let service = b.cost().per_image_cycles();
        // Saturating load: all requests at t=0, batch-of-1 policy.
        let ticks = vec![0u64; 8];
        let policy = Policy::new(1, 0).unwrap();
        let one = Dispatcher::new(policy, DispatchPolicy::LeastLoaded)
            .serve(
                &Pool::replicate(b.clone(), 1).unwrap(),
                zero_requests(&b, &ticks),
            )
            .unwrap();
        let two = Dispatcher::new(policy, DispatchPolicy::LeastLoaded)
            .serve(
                &Pool::replicate(b.clone(), 2).unwrap(),
                zero_requests(&b, &ticks),
            )
            .unwrap();
        assert_eq!(one.serve.makespan(), 8 * service);
        assert_eq!(two.serve.makespan(), 4 * service);
        // Perfect balance: both workers fully busy until the makespan.
        assert_eq!(two.utilization_range(), (1.0, 1.0));
    }

    #[test]
    fn replication_raises_weight_traffic_per_image_at_fixed_load() {
        let b = analytic();
        let service = b.cost().per_image_cycles();
        // 2× overload on one worker: batches form and amortize. The same
        // stream on four workers dispatches mostly singles.
        let ticks = arrivals::poisson(32, service as f64 / 2.0, 77);
        let policy = Policy::new(8, service).unwrap();
        let mut prev = 0.0f64;
        for n in [1usize, 2, 4] {
            let report = Dispatcher::new(policy, DispatchPolicy::LeastLoaded)
                .serve(
                    &Pool::replicate(b.clone(), n).unwrap(),
                    zero_requests(&b, &ticks),
                )
                .unwrap();
            let wpi = report.weight_bytes_per_image();
            assert!(
                wpi >= prev,
                "weight B/img fell from {prev} to {wpi} going to {n} workers"
            );
            prev = wpi;
        }
        // And the single-worker run actually amortized, so the rise is real.
        assert!(prev > 0.0);
    }

    #[test]
    fn worker_reports_are_consistent_with_the_aggregate() {
        let b = analytic();
        let service = b.cost().per_image_cycles();
        let ticks = arrivals::poisson(24, service as f64 / 3.0, 41);
        let pool = Pool::replicate(b.clone(), 3).unwrap();
        let report = Dispatcher::new(
            Policy::new(4, service).unwrap(),
            DispatchPolicy::JoinShortestQueue,
        )
        .serve(&pool, zero_requests(&b, &ticks))
        .unwrap();

        assert_eq!(report.worker_count(), 3);
        assert_eq!(report.assignments.len(), report.serve.batches.len());
        // Conservation: per-worker sums equal the aggregate.
        let sum_req: usize = report.workers.iter().map(|w| w.requests).sum();
        let sum_batches: usize = report.workers.iter().map(|w| w.batches).sum();
        let sum_weight: u64 = report.workers.iter().map(|w| w.weight_bytes).sum();
        assert_eq!(sum_req, report.serve.responses.len());
        assert_eq!(sum_batches, report.serve.batches.len());
        assert_eq!(
            sum_weight,
            report
                .serve
                .batches
                .iter()
                .map(|b| b.weight_bytes)
                .sum::<u64>()
        );
        // Utilization is a fraction of the makespan; busy time never
        // exceeds it.
        for w in 0..3 {
            let u = report.worker_utilization(w);
            assert!((0.0..=1.0).contains(&u), "worker {w} utilization {u}");
        }
        let (lo, hi) = report.utilization_range();
        assert!(lo <= report.mean_utilization() && report.mean_utilization() <= hi);
        // Per-batch worker attribution covers every batch.
        for i in 0..report.serve.batches.len() {
            assert!(report.worker_of(i).unwrap() < 3);
        }
        assert_eq!(report.worker_of(report.serve.batches.len()), None);
        // Out-of-range accessors are consistent: `worker_of` answers
        // `None`, `worker_utilization` answers 0.0 — neither panics.
        assert_eq!(report.worker_of(usize::MAX), None);
        assert_eq!(report.worker_utilization(report.worker_count()), 0.0);
        assert_eq!(report.worker_utilization(usize::MAX), 0.0);
        // In range it still reports real busy fractions (this run served
        // work, so at least one worker was busy).
        assert!((0..3).any(|w| report.worker_utilization(w) > 0.0));
    }

    /// A two-model simulator backend: MobileNetV1 (primary) and
    /// MobileNetV2 (net1) at width 0.25, sharing the stem input shape.
    fn mixed_backend(threads: usize) -> crate::serve::SimulatorBackend {
        use crate::accelerator::Edea;
        use crate::serve::SimulatorBackend;
        use edea_nn::quantize::{QuantStrategy, QuantizedDscNetwork};
        use edea_nn::sparsity::SparsityProfile;
        use edea_tensor::rng;

        let calib = rng::synthetic_batch(2, 3, 32, 32, 32);
        // v1 at width 0.5 and v2 at width 0.25 share the stem output
        // shape (16, 32, 32) — the multi-model precondition.
        let mut v1 = edea_nn::mobilenet::MobileNetV1::synthetic(0.5, 31);
        let profile = SparsityProfile::near_dense(v1.blocks().len());
        let (q1, _) = QuantizedDscNetwork::calibrate_shaped(
            &mut v1,
            &calib,
            &profile,
            QuantStrategy::paper(),
        )
        .unwrap();
        let v2 = edea_nn::mobilenet::MobileNetV2::synthetic(0.25, 41);
        let q2 = QuantizedDscNetwork::calibrate_v2(&v2, &calib, QuantStrategy::paper()).unwrap();
        let edea = Edea::new(EdeaConfig::paper())
            .unwrap()
            .with_parallelism(Parallelism::new(threads).unwrap());
        SimulatorBackend::new(edea, q1)
            .unwrap()
            .with_model(NetworkId(1), q2)
            .unwrap()
    }

    fn mixed_requests(backend: &impl Backend, nets: &[u32], ticks: &[u64]) -> Vec<Request> {
        let (d, h, w) = backend.input_shape();
        let networks: Vec<NetworkId> = nets.iter().map(|&n| NetworkId(n)).collect();
        Request::stream_mixed(
            ticks,
            &networks,
            nets.iter()
                .map(|&n| {
                    Tensor3::<i8>::from_fn(d, h, w, |c, r, col| (c + r + col + n as usize) as i8)
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn mixed_stream_batches_same_network_prefixes_and_pays_switch_traffic() {
        let b = mixed_backend(1);
        // One worker, everything arrives at t = 0: the queue reads
        // v1 v1 v2 v2 v1. Prefix batching must form [v1 v1] [v2 v2] [v1]
        // — never a mixed batch — and charge switch traffic exactly on
        // the two residency flips (PRIMARY → net1 → PRIMARY).
        let reqs = mixed_requests(&b, &[0, 0, 1, 1, 0], &[0; 5]);
        let pool = Pool::replicate(b.clone(), 1)
            .unwrap()
            .with_parallelism(Parallelism::serial());
        let report = Dispatcher::new(Policy::new(2, 0).unwrap(), DispatchPolicy::RoundRobin)
            .serve(&pool, reqs)
            .unwrap();

        let nets: Vec<u32> = report.serve.batches.iter().map(|b| b.network.0).collect();
        assert_eq!(nets, vec![0, 1, 0]);
        assert_eq!(
            report
                .serve
                .batches
                .iter()
                .map(|b| b.size)
                .collect::<Vec<_>>(),
            vec![2, 2, 1]
        );
        // Per-response network attribution follows the batches.
        for r in &report.serve.responses {
            assert_eq!(r.network.0, if (2..=3).contains(&r.id) { 1 } else { 0 });
        }
        // Switch traffic: worker boots resident on PRIMARY, so batch 0 is
        // free; batch 1 pays net1's full refetch, batch 2 pays net0's.
        let sw: Vec<u64> = report
            .serve
            .batches
            .iter()
            .map(|b| b.switch_bytes)
            .collect();
        assert_eq!(sw[0], 0);
        assert_eq!(sw[1], b.switch_bytes(NetworkId(1)));
        assert_eq!(sw[2], b.switch_bytes(NetworkId::PRIMARY));
        assert!(sw[1] > 0 && sw[2] > 0);
        assert_eq!(report.serve.switch_bytes_total(), sw.iter().sum::<u64>());
        assert_eq!(
            report.workers[0].switch_bytes,
            report.serve.switch_bytes_total()
        );
        // Switch traffic is its own category, never folded into the
        // backend-measured external bytes: the v2 batch's external and
        // cycle figures equal a direct switch-free run of the same inputs.
        let (d, h, w) = b.input_shape();
        let img =
            |n: u32| Tensor3::<i8>::from_fn(d, h, w, |c, r, col| (c + r + col + n as usize) as i8);
        let direct = b
            .run_batch(NetworkId(1), &Batch::new(vec![img(1), img(1)]).unwrap())
            .unwrap();
        assert_eq!(
            report.serve.batches[1].external_bytes,
            direct.stats.external_total()
        );
        assert_eq!(report.serve.batches[1].cycles, direct.stats.total_cycles());
        // Per-network latency accounting sees both populations.
        assert!(report.serve.mean_latency_for(NetworkId::PRIMARY).is_some());
        assert!(report.serve.mean_latency_for(NetworkId(1)).is_some());
        assert_eq!(report.serve.mean_latency_for(NetworkId(9)), None);
    }

    #[test]
    fn single_model_stream_on_a_multi_model_backend_pays_no_switch_traffic() {
        let b = mixed_backend(1);
        let reqs = mixed_requests(&b, &[0, 0, 0, 0], &[0, 10, 20, 30]);
        let pool = Pool::replicate(b, 2)
            .unwrap()
            .with_parallelism(Parallelism::serial());
        let report = Dispatcher::new(Policy::new(2, 1_000).unwrap(), DispatchPolicy::LeastLoaded)
            .serve(&pool, reqs)
            .unwrap();
        assert_eq!(report.serve.switch_bytes_total(), 0);
        assert!(report.workers.iter().all(|w| w.switch_bytes == 0));
        assert!(report
            .serve
            .batches
            .iter()
            .all(|b| b.network == NetworkId::PRIMARY));
    }

    #[test]
    fn a_foreign_network_request_never_fills_the_heads_batch() {
        let b = mixed_backend(1);
        // max_batch = 2, long wait: a v1 head plus a v2 arrival must NOT
        // dispatch as a "full" batch of two — the v2 request parks behind
        // the prefix and each network dispatches alone at its deadline.
        let reqs = mixed_requests(&b, &[0, 1], &[0, 0]);
        let pool = Pool::replicate(b, 1)
            .unwrap()
            .with_parallelism(Parallelism::serial());
        let report = Dispatcher::new(Policy::new(2, 5_000).unwrap(), DispatchPolicy::RoundRobin)
            .serve(&pool, reqs)
            .unwrap();
        assert_eq!(report.serve.batches.len(), 2);
        assert!(report.serve.batches.iter().all(|b| b.size == 1));
        // Neither batch dispatched before the head's deadline.
        assert_eq!(report.serve.batches[0].dispatched, 5_000);
    }

    #[test]
    fn mixed_serving_is_bit_identical_across_thread_counts() {
        // Deferred execution on several lanes must reproduce the one-lane
        // mixed-model schedule exactly: same batches, same networks, same
        // switch traffic, same outputs.
        let serve = |threads: usize| -> PoolReport {
            let b = mixed_backend(threads);
            let reqs = mixed_requests(&b, &[0, 1, 0, 1, 1, 0, 0, 1], &arrivals::uniform(8, 1_000));
            let pool = Pool::replicate(b, 2)
                .unwrap()
                .with_parallelism(Parallelism::new(threads).unwrap());
            Dispatcher::new(Policy::new(2, 2_000).unwrap(), DispatchPolicy::LeastLoaded)
                .serve(&pool, reqs)
                .unwrap()
        };
        let serial = serve(1);
        let parallel = serve(4);
        assert_eq!(serial.serve.responses, parallel.serve.responses);
        assert_eq!(serial.serve.batches, parallel.serve.batches);
        assert_eq!(serial.assignments, parallel.assignments);
        assert_eq!(serial.workers, parallel.workers);
        // The mixed stream actually exercised both models and a switch.
        assert!(serial
            .serve
            .batches
            .iter()
            .any(|b| b.network == NetworkId(1)));
        assert!(serial.serve.switch_bytes_total() > 0);
    }

    #[test]
    fn unknown_network_id_is_rejected_naming_request_and_network() {
        let b = mixed_backend(1);
        let (d, h, w) = b.input_shape();
        let reqs = vec![Request::for_network(
            7,
            0,
            NetworkId(9),
            Tensor3::<i8>::zeros(d, h, w),
        )];
        let pool = Pool::replicate(b, 1).unwrap();
        let err = Dispatcher::new(Policy::new(1, 0).unwrap(), DispatchPolicy::RoundRobin)
            .serve(&pool, reqs)
            .unwrap_err();
        match err {
            CoreError::InvalidRequest { detail } => {
                assert!(detail.contains("request 7"), "{detail}");
                assert!(detail.contains("net9"), "{detail}");
            }
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
    }

    /// A worker whose queue holds one request per entry of `nets`.
    fn queued(nets: &[u32]) -> WorkerState {
        let mut state = WorkerState::new();
        state.queue = (0u64..)
            .zip(nets)
            .map(|(id, &n)| Request::for_network(id, 0, NetworkId(n), Tensor3::zeros(1, 1, 1)))
            .collect();
        state
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The capped prefix is the uncapped same-network run, clamped at
        /// the cap — what both serve-loop callers used to compute.
        #[test]
        fn capped_prefix_is_the_clamped_same_network_run(
            nets in proptest::prop::collection::vec(0u32..3, 0..41),
            cap in 1usize..17,
        ) {
            let run = nets.iter().take_while(|&&n| n == nets[0]).count();
            proptest::prop_assert_eq!(queued(&nets).same_network_prefix(cap), run.min(cap));
        }
    }

    /// One analytic worker serving two networks of the same cost.
    struct TwoNetworks(AnalyticBackend);

    impl Backend for TwoNetworks {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn config(&self) -> &EdeaConfig {
            self.0.config()
        }
        fn input_shape(&self) -> (usize, usize, usize) {
            self.0.input_shape()
        }
        fn run(&self, inputs: &Batch<i8>) -> Result<crate::serve::BackendRun, CoreError> {
            self.0.run(inputs)
        }
        fn dispatch_cycles(&self, batch: usize) -> Option<u64> {
            self.0.dispatch_cycles(batch)
        }
        fn input_shape_for(&self, network: NetworkId) -> Option<(usize, usize, usize)> {
            (network.0 < 2).then(|| self.input_shape())
        }
        fn run_for(
            &self,
            _network: NetworkId,
            inputs: &Batch<i8>,
        ) -> Result<crate::serve::BackendRun, CoreError> {
            self.0.run(inputs)
        }
        fn dispatch_cycles_for(&self, network: NetworkId, batch: usize) -> Option<u64> {
            self.0.dispatch_cycles(batch).filter(|_| network.0 < 2)
        }
    }

    #[test]
    fn a_deep_backlog_batches_each_same_network_run_in_fifo_chunks() {
        // 4 096 requests at tick 0 on one worker: the queue alternates
        // runs of 3 (net0) and 11 (net1). With max_batch 8 each run
        // dispatches as chunks of min(rest of the run, 8), in order.
        let shape = edea_nn::workload::LayerShape::dsc(0, 2, 8, 16, 1, 3);
        let b = TwoNetworks(AnalyticBackend::new(&[shape], &EdeaConfig::paper()).unwrap());
        let (d, h, w) = b.input_shape();
        let mut nets = Vec::new();
        let mut want = Vec::new();
        for (net, run) in [(0u32, 3usize), (1, 11)].into_iter().cycle() {
            let run = run.min(4_096 - nets.len());
            nets.extend(std::iter::repeat_n(NetworkId(net), run));
            want.extend(
                (0..run)
                    .step_by(8)
                    .map(|i| (NetworkId(net), (run - i).min(8))),
            );
            if nets.len() == 4_096 {
                break;
            }
        }
        let reqs = (0u64..)
            .zip(&nets)
            .map(|(id, &n)| Request::for_network(id, 0, n, Tensor3::zeros(d, h, w)))
            .collect();
        let report = Dispatcher::new(Policy::new(8, 0).unwrap(), DispatchPolicy::RoundRobin)
            .serve(&Pool::new(vec![b]).unwrap(), reqs)
            .unwrap();
        let got: Vec<(NetworkId, usize)> = report
            .serve
            .batches
            .iter()
            .map(|b| (b.network, b.size))
            .collect();
        assert_eq!(got, want);
        assert_eq!(report.max_queue_depth(), 4_096);
        // FIFO: batch after batch, request ids come out in arrival order.
        let mut by_dispatch: Vec<(usize, u64)> = report
            .serve
            .responses
            .iter()
            .map(|r| (r.batch, r.id))
            .collect();
        by_dispatch.sort_unstable();
        let ids: Vec<u64> = by_dispatch.into_iter().map(|(_, id)| id).collect();
        assert_eq!(ids, (0..4_096).collect::<Vec<u64>>());
        for r in &report.serve.responses {
            assert_eq!(r.network, nets[r.id as usize]);
        }
    }

    #[test]
    fn empty_stream_yields_empty_pool_report() {
        let b = analytic();
        let pool = Pool::replicate(b, 2).unwrap();
        let report = Dispatcher::new(Policy::new(4, 0).unwrap(), DispatchPolicy::LeastLoaded)
            .serve(&pool, Vec::new())
            .unwrap();
        assert!(report.serve.responses.is_empty());
        assert_eq!(report.utilization_range(), (0.0, 0.0));
        assert_eq!(report.mean_utilization(), 0.0);
        assert_eq!(report.max_queue_depth(), 0);
        for w in &report.workers {
            assert_eq!(w.mean_queue_depth, 0.0);
        }
    }
}
