//! Property and cross-check tests of the telemetry subsystem.
//!
//! Three obligations, per the determinism contract in `edea_core::telemetry`:
//!
//! 1. **Structure** — over random pool loads, the emitted event stream is a
//!    well-formed span tree (every arrival enqueues and completes, batch
//!    form/dispatch/execute ticks agree, layer spans tile their batch,
//!    per-worker spans never overlap).
//! 2. **Two accounting paths, one truth** — the metrics registry folded
//!    from events must equal the independently computed
//!    `ServeReport`/`PoolReport` on every shared quantity, and the derived
//!    views (`telemetry::derive`) must reproduce `worker_utilization`,
//!    `max_queue_depth` and `mean_queue_depth` *exactly* (same integer
//!    arithmetic, same single float division — `==`, not approx).
//! 3. **Determinism** — the event stream, both exporters' renderings, and
//!    the underlying reports are bit-identical at every thread count, and
//!    attaching a recorder never changes the run it observes.

use edea_core::par::Parallelism;
use edea_core::pool::{DispatchPolicy, Dispatcher, Pool};
use edea_core::serve::{arrivals, AnalyticBackend, Backend, Policy, SimulatorBackend};
use edea_core::telemetry::{derive, export, metrics::Registry, Event, Recorder};
use edea_core::EdeaConfig;
use edea_nn::workload::{mobilenet_v1_cifar10, NetworkId};
use edea_testutil::{deploy, deploy_v2, mixed_requests, paper_edea_threads, zero_requests};
use proptest::prelude::*;

fn backend() -> AnalyticBackend {
    AnalyticBackend::new(&mobilenet_v1_cifar10(), &EdeaConfig::paper())
        .expect("paper workload maps")
}

fn dispatch_policy(idx: usize) -> DispatchPolicy {
    [
        DispatchPolicy::RoundRobin,
        DispatchPolicy::LeastLoaded,
        DispatchPolicy::JoinShortestQueue,
    ][idx % 3]
}

/// A seeded mixed-model simulator pool serve (v1 + v2, two workers),
/// observed by a fresh recorder: returns the report and the events.
fn observed_mixed_serve(threads: usize, n: usize) -> (edea_core::pool::PoolReport, Vec<Event>) {
    let v1 = deploy(0.5, 31);
    let v2 = deploy_v2(0.25, 41);
    let sim = SimulatorBackend::new(paper_edea_threads(threads), v1.qnet.clone())
        .expect("backend builds")
        .with_model(NetworkId(1), v2.qnet.clone())
        .expect("v2 registers");
    let pool = Pool::replicate(sim, 2)
        .expect("pool builds")
        .with_parallelism(Parallelism::new(threads).expect("threads in range"));
    let ticks: Vec<u64> = (0..n as u64).map(|i| i * 400).collect();
    let requests = mixed_requests(
        &v1,
        &v2,
        &[NetworkId::PRIMARY, NetworkId(1), NetworkId::PRIMARY],
        &ticks,
        51,
    );
    let recorder = Recorder::with_capacity(1 << 12);
    let report = Dispatcher::new(
        Policy::new(2, 3_000).expect("policy"),
        DispatchPolicy::LeastLoaded,
    )
    .serve_with(&pool, requests, &recorder)
    .expect("mixed serve");
    assert_eq!(recorder.dropped(), 0, "capacity sized for the run");
    (report, recorder.events())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// (a) Span trees are well-formed over random pool loads, and (b) the
    /// registry folded from the same events conserves request counts and
    /// every shared byte/cycle total against the report.
    #[test]
    fn span_trees_well_formed_and_registry_conserves_report(
        n in 1usize..40,
        workers in 1usize..5,
        max_batch in 1usize..8,
        wait_frac in 0.0f64..2.0,
        load in 0.2f64..4.0,
        seed in 0u64..1_000,
        dp in 0usize..3,
    ) {
        let b = backend();
        let service = b.cost().per_image_cycles();
        let policy = Policy::new(max_batch, (wait_frac * service as f64) as u64)
            .expect("policy");
        let ticks = arrivals::poisson(n, service as f64 / load, seed);
        let pool = Pool::replicate(b.clone(), workers).expect("pool");
        let recorder = Recorder::with_capacity(1 << 12);
        let report = Dispatcher::new(policy, dispatch_policy(dp))
            .serve_with(&pool, zero_requests(b.input_shape(), &ticks), &recorder)
            .expect("serve");
        let events = recorder.events();
        prop_assert_eq!(recorder.dropped(), 0);

        // (a) Structure.
        derive::check_well_formed(&events).expect("well-formed span tree");

        // (b) Registry vs report, every shared quantity.
        let reg = Registry::from_events(&events);
        prop_assert_eq!(reg.counter("requests_total"), Some(n as u64));
        prop_assert_eq!(reg.counter("requests_completed_total"), Some(n as u64));
        prop_assert_eq!(
            reg.counter("batches_total"),
            Some(report.serve.batches.len() as u64)
        );
        prop_assert_eq!(
            reg.counter("switch_bytes_total"),
            Some(report.serve.switch_bytes_total())
        );
        let weight: u64 = report.serve.batches.iter().map(|b| b.weight_bytes).sum();
        let external: u64 = report.serve.batches.iter().map(|b| b.external_bytes).sum();
        prop_assert_eq!(reg.counter("weight_bytes_total"), Some(weight));
        prop_assert_eq!(reg.counter("external_bytes_total"), Some(external));
        prop_assert_eq!(reg.gauge("makespan_ticks"), Some(report.serve.makespan()));

        // Histograms conserve counts: every request is one latency and one
        // queue-wait sample, every batch one size sample whose values sum
        // back to the request count.
        let lat = reg.histogram("latency_ticks").expect("latency histogram");
        prop_assert_eq!(lat.count(), n as u64);
        let lat_sum: u128 = report
            .serve
            .responses
            .iter()
            .map(|r| u128::from(r.latency()))
            .sum();
        prop_assert_eq!(lat.sum(), lat_sum);
        let qt = reg.histogram("queue_ticks").expect("queue histogram");
        prop_assert_eq!(qt.count(), n as u64);
        let bs = reg.histogram("batch_size").expect("batch-size histogram");
        prop_assert_eq!(bs.count(), report.serve.batches.len() as u64);
        prop_assert_eq!(bs.sum(), n as u128);

        // Per-worker counters partition the aggregate.
        let wr = reg.worker_counter("worker_requests_total").expect("series");
        prop_assert_eq!(wr.iter().sum::<u64>(), n as u64);
        for (w, r) in report.workers.iter().enumerate() {
            prop_assert_eq!(wr.get(w).copied().unwrap_or(0), r.requests as u64);
        }
    }

    /// The derived views reproduce the pool's own per-worker accounting
    /// exactly — busy cycles, utilization, max and mean queue depth.
    #[test]
    fn derived_views_equal_pool_report_exactly(
        n in 1usize..40,
        workers in 1usize..5,
        max_batch in 1usize..8,
        load in 0.2f64..4.0,
        seed in 0u64..1_000,
        dp in 0usize..3,
    ) {
        let b = backend();
        let service = b.cost().per_image_cycles();
        let policy = Policy::new(max_batch, service).expect("policy");
        let ticks = arrivals::poisson(n, service as f64 / load, seed);
        let pool = Pool::replicate(b.clone(), workers).expect("pool");
        let recorder = Recorder::with_capacity(1 << 12);
        let report = Dispatcher::new(policy, dispatch_policy(dp))
            .serve_with(&pool, zero_requests(b.input_shape(), &ticks), &recorder)
            .expect("serve");
        let events = recorder.events();

        // Worker count from events: the highest worker id that ever saw a
        // request (idle tail workers emit nothing).
        let touched = report
            .workers
            .iter()
            .rposition(|w| w.requests > 0)
            .map_or(0, |i| i + 1);
        prop_assert_eq!(derive::worker_count(&events), touched);
        let span = derive::makespan(&events);
        prop_assert_eq!(span, report.serve.makespan());

        let busy = derive::busy_cycles(&events, workers);
        let util = derive::utilization(&events, workers);
        for (w, r) in report.workers.iter().enumerate() {
            prop_assert_eq!(busy[w], r.busy_cycles, "worker {} busy", w);
            // Exact float equality: same ops, same order.
            prop_assert!(
                util[w] == report.worker_utilization(w),
                "worker {} utilization {} != {}", w, util[w], report.worker_utilization(w)
            );
            prop_assert_eq!(
                derive::max_queue_depth(&events, w),
                r.max_queue_depth,
                "worker {} max depth", w
            );
            let mean = derive::mean_queue_depth(&events, w, span);
            prop_assert!(
                mean == r.mean_queue_depth,
                "worker {} mean depth {} != {}", w, mean, r.mean_queue_depth
            );
        }

        // Busy intervals are exactly this worker's batch spans.
        let intervals = derive::busy_intervals(&events, workers);
        for (w, spans) in intervals.iter().enumerate() {
            let expect: Vec<(u64, u64)> = report
                .serve
                .batches
                .iter()
                .filter(|b| report.assignments[b.index] == w)
                .map(|b| (b.dispatched, b.completed))
                .collect();
            prop_assert_eq!(spans, &expect, "worker {} intervals", w);
        }
    }
}

#[test]
fn telemetry_is_bit_identical_across_thread_counts() {
    let (serial_report, serial_events) = observed_mixed_serve(1, 6);
    let (threaded_report, threaded_events) = observed_mixed_serve(4, 6);

    // The observed runs agree (PR-7 contract) …
    assert_eq!(
        serial_report.serve.responses,
        threaded_report.serve.responses
    );
    assert_eq!(serial_report.serve.batches, threaded_report.serve.batches);
    assert_eq!(serial_report.workers, threaded_report.workers);
    // … and so do the event streams and both exporters, character for
    // character — the golden `trace_export` fixture leans on this.
    assert_eq!(serial_events, threaded_events);
    assert_eq!(
        export::chrome_trace(&serial_events),
        export::chrome_trace(&threaded_events)
    );
    let reg_a = Registry::from_events(&serial_events);
    let reg_b = Registry::from_events(&threaded_events);
    assert_eq!(export::prometheus(&reg_a), export::prometheus(&reg_b));
}

#[test]
fn recorder_on_vs_off_leaves_the_underlying_run_unchanged() {
    let b = backend();
    let ticks = arrivals::poisson(24, b.cost().per_image_cycles() as f64, 7);
    let policy = Policy::new(4, b.cost().per_image_cycles()).expect("policy");
    let pool = Pool::replicate(b.clone(), 3).expect("pool");
    let dispatcher = Dispatcher::new(policy, DispatchPolicy::JoinShortestQueue);

    let plain = dispatcher
        .serve(&pool, zero_requests(b.input_shape(), &ticks))
        .expect("unobserved serve");
    let recorder = Recorder::with_capacity(1 << 12);
    let observed = dispatcher
        .serve_with(&pool, zero_requests(b.input_shape(), &ticks), &recorder)
        .expect("observed serve");

    assert_eq!(plain.serve.responses, observed.serve.responses);
    assert_eq!(plain.serve.batches, observed.serve.batches);
    assert_eq!(plain.workers, observed.workers);
    assert_eq!(plain.assignments, observed.assignments);
    assert!(!recorder.is_empty());
}

#[test]
fn mixed_simulator_run_emits_full_lifecycle_with_layer_spans() {
    let (report, events) = observed_mixed_serve(1, 6);
    derive::check_well_formed(&events).expect("well-formed");

    // Every lifecycle stage appears, stamped with stable ids.
    let has = |f: fn(&Event) -> bool| events.iter().any(f);
    assert!(has(|e| matches!(e, Event::RequestArrived { .. })));
    assert!(has(|e| matches!(e, Event::RequestEnqueued { .. })));
    assert!(has(|e| matches!(e, Event::BatchFormed { .. })));
    assert!(has(|e| matches!(e, Event::BatchDispatched { .. })));
    assert!(has(|e| matches!(e, Event::LayerExecuted { .. })));
    assert!(has(|e| matches!(e, Event::BatchExecuted { .. })));
    assert!(has(|e| matches!(e, Event::RequestCompleted { .. })));
    // The stream mixes models, so at least one dispatch switched.
    assert!(report.serve.switch_bytes_total() > 0);
    assert!(has(|e| matches!(e, Event::ModelSwitch { .. })));

    // Layer spans carry the simulator's sparsity counters (the run gates
    // slots on the shaped network), and the per-batch counter deltas sum
    // to the registry totals.
    let gated: u64 = events
        .iter()
        .filter_map(|e| match *e {
            Event::LayerExecuted { gated_slots, .. } => Some(gated_slots),
            _ => None,
        })
        .sum();
    assert!(gated > 0, "shaped run gates slots");
    let reg = Registry::from_events(&events);
    assert_eq!(reg.counter("gated_slots_total"), Some(gated));

    // Per-batch layer spans: 13 v1 stages or 17 v2 stages, exactly.
    for b in &report.serve.batches {
        let spans = events
            .iter()
            .filter(|e| matches!(e, Event::LayerExecuted { batch, .. } if *batch == b.index))
            .count();
        let expect = if b.network == NetworkId::PRIMARY {
            13
        } else {
            17
        };
        assert_eq!(spans, expect, "batch {} layer spans", b.index);
    }

    // The Chrome trace names every worker track and draws every span.
    let trace = export::chrome_trace(&events);
    assert!(trace.contains("worker 0 batches"));
    assert!(trace.contains("worker 1 layers"));
    assert!(trace.contains("\"name\":\"L0\""));
    assert!(trace.contains("switch net"));
}

#[test]
fn single_backend_scheduler_telemetry_matches_its_report() {
    let b = backend();
    let ticks = arrivals::uniform(10, b.cost().per_image_cycles() / 2);
    let recorder = Recorder::with_capacity(1 << 10);
    let policy = Policy::new(3, b.cost().per_image_cycles()).expect("policy");
    let pool = Pool::replicate(b.clone(), 1).expect("pool");
    let report = Dispatcher::new(policy, DispatchPolicy::RoundRobin)
        .serve_with(&pool, zero_requests(b.input_shape(), &ticks), &recorder)
        .expect("serve")
        .serve;
    let events = recorder.events();
    derive::check_well_formed(&events).expect("well-formed");
    assert_eq!(derive::worker_count(&events), 1);
    assert_eq!(derive::makespan(&events), report.makespan());
    let reg = Registry::from_events(&events);
    assert_eq!(reg.counter("requests_total"), Some(10));
    assert_eq!(
        reg.counter("batches_total"),
        Some(report.batches.len() as u64)
    );
}
