//! The serve loop's contract with `Backend::dispatch_cycles`.
//!
//! Every dispatch is scheduled from the cycles its backend declares, and
//! the measured run must report exactly those cycles. So a backend whose
//! declaration is missing or wrong fails the run with the same typed error
//! at every host thread count, and a request some worker cannot serve is
//! rejected at intake, before any batch executes.

use std::sync::atomic::{AtomicUsize, Ordering};

use edea_core::par::Parallelism;
use edea_core::pool::{DispatchPolicy, Dispatcher, Pool, PoolReport};
use edea_core::serve::{AnalyticBackend, Backend, BackendRun, Policy, Request, SimulatorBackend};
use edea_core::{CoreError, EdeaConfig};
use edea_nn::workload::{mobilenet_v1_cifar10, NetworkId};
use edea_tensor::Batch;
use edea_testutil::{deploy, deploy_v2, mixed_requests, paper_edea, zero_requests};

/// Wraps a backend, rewriting the cycles it declares and counting the
/// batches it executes.
struct Probe<B> {
    inner: B,
    /// Maps `(batch size, the inner backend's declared cycles)` to the
    /// cycles the probe declares.
    declare: fn(usize, u64) -> Option<u64>,
    runs: AtomicUsize,
}

impl<B> Probe<B> {
    fn new(inner: B, declare: fn(usize, u64) -> Option<u64>) -> Self {
        Self {
            inner,
            declare,
            runs: AtomicUsize::new(0),
        }
    }
}

impl<B: Backend> Backend for Probe<B> {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn config(&self) -> &EdeaConfig {
        self.inner.config()
    }

    fn input_shape(&self) -> (usize, usize, usize) {
        self.inner.input_shape()
    }

    fn run(&self, inputs: &Batch<i8>) -> Result<BackendRun, CoreError> {
        self.run_for(NetworkId::PRIMARY, inputs)
    }

    fn dispatch_cycles(&self, batch: usize) -> Option<u64> {
        self.dispatch_cycles_for(NetworkId::PRIMARY, batch)
    }

    fn input_shape_for(&self, network: NetworkId) -> Option<(usize, usize, usize)> {
        self.inner.input_shape_for(network)
    }

    fn run_for(&self, network: NetworkId, inputs: &Batch<i8>) -> Result<BackendRun, CoreError> {
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.inner.run_for(network, inputs)
    }

    fn dispatch_cycles_for(&self, network: NetworkId, batch: usize) -> Option<u64> {
        self.inner
            .dispatch_cycles_for(network, batch)
            .and_then(|c| (self.declare)(batch, c))
    }

    fn switch_bytes(&self, network: NetworkId) -> u64 {
        self.inner.switch_bytes(network)
    }
}

fn analytic() -> AnalyticBackend {
    AnalyticBackend::new(&mobilenet_v1_cifar10(), &EdeaConfig::paper())
        .expect("paper workload maps")
}

/// Serves `ticks` through a round-robin pool of two probes at `threads`
/// host threads; returns the outcome and the batches the probes executed.
fn serve_pool(
    declare: fn(usize, u64) -> Option<u64>,
    ticks: &[u64],
    threads: usize,
) -> (Result<PoolReport, CoreError>, usize) {
    let pool = Pool::new(vec![
        Probe::new(analytic(), declare),
        Probe::new(analytic(), declare),
    ])
    .expect("pool builds")
    .with_parallelism(Parallelism::new(threads).expect("threads in range"));
    let requests = zero_requests(pool.workers()[0].input_shape(), ticks);
    let result = Dispatcher::new(
        Policy::new(2, 0).expect("policy"),
        DispatchPolicy::RoundRobin,
    )
    .serve(&pool, requests);
    let runs = pool
        .workers()
        .iter()
        .map(|w| w.runs.load(Ordering::Relaxed))
        .sum();
    (result, runs)
}

/// Serves `ticks` through a round-robin pool of one probe.
fn serve_one(declare: fn(usize, u64) -> Option<u64>, ticks: &[u64]) -> (CoreError, usize) {
    let pool = Pool::new(vec![Probe::new(analytic(), declare)]).expect("pool builds");
    let requests = zero_requests(pool.workers()[0].input_shape(), ticks);
    let err = Dispatcher::new(
        Policy::new(2, 0).expect("policy"),
        DispatchPolicy::RoundRobin,
    )
    .serve(&pool, requests)
    .expect_err("the probe's declaration is rejected");
    (err, pool.workers()[0].runs.load(Ordering::Relaxed))
}

fn invalid_config_detail(err: &CoreError) -> &str {
    match err {
        CoreError::InvalidConfig { detail } => detail,
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn a_wrong_declaration_fails_the_run_at_every_thread_count() {
    // Four simultaneous arrivals: the first batch is a pair on worker 0,
    // declared one cycle longer than it runs.
    let lying = |_: usize, c: u64| Some(c + 1);
    let ticks = [0u64; 4];
    let (single, _) = serve_one(lying, &ticks);
    let detail = invalid_config_detail(&single);
    assert!(detail.contains("backend probe"), "{detail}");
    assert!(detail.contains("batch of 2"), "{detail}");
    for threads in [1, 2] {
        let (result, _) = serve_pool(lying, &ticks, threads);
        assert_eq!(result.unwrap_err(), single, "threads = {threads}");
    }
}

#[test]
fn declaring_only_single_image_batches_fails_at_the_first_larger_batch() {
    // A lone request dispatches (and runs) as a batch of 1; the burst
    // behind it forms a batch of 2, whose cycles the backend cannot
    // declare.
    let singles_only = |n: usize, c: u64| (n == 1).then_some(c);
    let ticks = [0u64, 5, 5, 5, 5];
    let (single, single_runs) = serve_one(singles_only, &ticks);
    let detail = invalid_config_detail(&single);
    assert!(detail.contains("backend probe"), "{detail}");
    assert!(detail.contains("not for a batch of 2"), "{detail}");
    assert_eq!(single_runs, 1, "the batch of 1 ran before the error");
    for threads in [1, 2] {
        let (result, runs) = serve_pool(singles_only, &ticks, threads);
        let err = result.unwrap_err();
        assert_eq!(invalid_config_detail(&err), detail, "threads = {threads}");
        // Errors surface in dispatch order at every lane count: the batch
        // dispatched before the failing one has run, and nothing after.
        assert_eq!(runs, 1, "threads = {threads}");
    }
}

#[test]
fn a_backend_declaring_no_cycles_is_rejected_before_any_batch_runs() {
    let none = |_: usize, _: u64| None;
    let (err, runs) = serve_one(none, &[0, 0]);
    let detail = invalid_config_detail(&err);
    assert!(detail.contains("backend probe"), "{detail}");
    assert_eq!(runs, 0);
    for threads in [1, 2] {
        let (result, runs) = serve_pool(none, &[0, 0], threads);
        assert_eq!(result.unwrap_err(), err, "threads = {threads}");
        assert_eq!(runs, 0, "threads = {threads}");
    }
}

#[test]
fn a_network_one_worker_does_not_serve_is_rejected_before_any_batch_runs() {
    // Worker 0 serves v1 and v2; worker 1 serves v1 only. Round-robin
    // routes the v2 request to worker 1, so the pool cannot serve the
    // stream — whichever worker routing would pick.
    let v1 = deploy(0.5, 31);
    let v2 = deploy_v2(0.25, 41);
    let one = SimulatorBackend::new(paper_edea(), v1.qnet.clone()).expect("v1 backend builds");
    let both = one
        .clone()
        .with_model(NetworkId(1), v2.qnet.clone())
        .expect("v2 registers");
    let keep = |_: usize, c: u64| Some(c);
    let requests = || -> Vec<Request> {
        mixed_requests(
            &v1,
            &v2,
            &[NetworkId::PRIMARY, NetworkId(1)],
            &[0, 0, 400, 400],
            51,
        )
    };
    for threads in [1, 2] {
        let pool = Pool::new(vec![
            Probe::new(both.clone(), keep),
            Probe::new(one.clone(), keep),
        ])
        .expect("both workers share the primary input shape")
        .with_parallelism(Parallelism::new(threads).expect("threads in range"));
        let err = Dispatcher::new(
            Policy::new(1, 0).expect("policy"),
            DispatchPolicy::RoundRobin,
        )
        .serve(&pool, requests())
        .unwrap_err();
        match err {
            CoreError::InvalidRequest { detail } => {
                assert!(detail.contains("net1"), "{detail}");
                assert!(detail.contains("does not serve"), "{detail}");
            }
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
        for w in pool.workers() {
            assert_eq!(w.runs.load(Ordering::Relaxed), 0, "threads = {threads}");
        }
    }
}
