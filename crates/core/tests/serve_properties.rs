//! Property tests of batch forming on a single backend (a round-robin
//! pool of one).
//!
//! Over random arrival patterns, policies and loads (driven by the fast
//! analytic backend so hundreds of serve runs cost nothing), the serve loop
//! must: conserve requests, keep every formed batch within `max_batch`,
//! never hold a queue head past its waiting deadline while the accelerator
//! is free, keep batches FIFO and non-overlapping, and stay a pure
//! function of its inputs.

use edea_core::pool::{DispatchPolicy, Dispatcher, Pool};
use edea_core::serve::{arrivals, AnalyticBackend, Backend, Policy, Request, ServeReport};
use edea_core::EdeaConfig;
use edea_nn::workload::mobilenet_v1_cifar10;
use edea_tensor::Tensor3;
use proptest::prelude::*;

fn backend() -> AnalyticBackend {
    AnalyticBackend::new(&mobilenet_v1_cifar10(), &EdeaConfig::paper())
        .expect("paper workload maps")
}

fn zero_requests(b: &AnalyticBackend, ticks: &[u64]) -> Vec<Request> {
    let (d, h, w) = b.input_shape();
    Request::stream(
        ticks,
        (0..ticks.len())
            .map(|_| Tensor3::<i8>::zeros(d, h, w))
            .collect(),
    )
    .expect("one tick per input")
}

fn serve(b: &AnalyticBackend, policy: Policy, requests: Vec<Request>) -> ServeReport {
    let pool = Pool::replicate(b.clone(), 1).expect("pool");
    Dispatcher::new(policy, DispatchPolicy::RoundRobin)
        .serve(&pool, requests)
        .expect("serve")
        .serve
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Formed batches never exceed `max_batch`; no queue head is held past
    /// its deadline while the accelerator is free; batches are FIFO and
    /// never overlap; every request is served exactly once.
    #[test]
    fn scheduler_invariants_hold_under_random_load(
        n in 1usize..48,
        max_batch in 1usize..9,
        wait_frac in 0.0f64..2.0,
        load in 0.1f64..3.0,
        seed in 0u64..1_000,
    ) {
        let b = backend();
        let service = b.cost().per_image_cycles();
        let max_wait = (wait_frac * service as f64) as u64;
        let mean_gap = service as f64 / load;
        let ticks = arrivals::poisson(n, mean_gap, seed);
        let policy = Policy::new(max_batch, max_wait).expect("policy");
        let report = serve(&b, policy, zero_requests(&b, &ticks));

        // Conservation: each of the n requests answered exactly once.
        prop_assert_eq!(report.responses.len(), n);
        let mut ids: Vec<u64> = report.responses.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..n as u64).collect::<Vec<_>>());
        prop_assert_eq!(
            report.batches.iter().map(|b| b.size).sum::<usize>(),
            n
        );

        let mut prev_completed = 0u64;
        for batch in &report.batches {
            // Size bound.
            prop_assert!(batch.size >= 1 && batch.size <= max_batch,
                "batch {} size {}", batch.index, batch.size);
            // Wait bound: dispatch no later than the head's deadline,
            // unless the accelerator was still busy (then immediately on
            // completion of the previous batch).
            let deadline = batch.oldest_arrival.saturating_add(max_wait);
            prop_assert!(batch.dispatched <= deadline.max(prev_completed),
                "batch {} dispatched {} > max(deadline {}, prev {})",
                batch.index, batch.dispatched, deadline, prev_completed);
            // Non-overlap and causality.
            prop_assert!(batch.dispatched >= prev_completed);
            prop_assert!(batch.dispatched >= batch.oldest_arrival);
            prop_assert_eq!(batch.completed, batch.dispatched + batch.cycles);
            prev_completed = batch.completed;
        }

        // FIFO: responses in dispatch order are sorted by (arrival, id).
        let keys: Vec<_> = report.responses.iter().map(|r| (r.arrival, r.id)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        prop_assert_eq!(keys, sorted);

        // Amortization: any multi-image batch pulls weight bytes per image
        // below the single-image baseline (each dispatch pays the weight
        // fetch once, whatever its size).
        let baseline = b.cost().weight_bytes() as f64;
        if report.batches.iter().any(|batch| batch.size > 1) {
            prop_assert!(report.weight_bytes_per_image() < baseline);
        } else {
            prop_assert!((report.weight_bytes_per_image() - baseline).abs() < 1e-9);
        }
    }

    /// The serve run is a pure function of (requests, policy, backend):
    /// identical inputs give identical batch boundaries and statistics.
    #[test]
    fn scheduler_is_deterministic(
        n in 1usize..32,
        max_batch in 1usize..9,
        seed in 0u64..1_000,
    ) {
        let b = backend();
        let service = b.cost().per_image_cycles();
        let ticks = arrivals::poisson(n, service as f64, seed);
        let policy = Policy::new(max_batch, service).expect("policy");
        let r1 = serve(&b, policy, zero_requests(&b, &ticks));
        let r2 = serve(&b, policy, zero_requests(&b, &ticks));
        prop_assert_eq!(r1.batches, r2.batches);
        prop_assert_eq!(r1.responses, r2.responses);
    }

    /// Request order does not matter: a shuffled stream serves identically
    /// to the sorted one (the serve loop orders by (arrival, id) itself).
    #[test]
    fn arrival_order_of_the_input_vec_is_irrelevant(
        n in 2usize..24,
        seed in 0u64..1_000,
    ) {
        let b = backend();
        let service = b.cost().per_image_cycles();
        let ticks = arrivals::poisson(n, service as f64 / 2.0, seed);
        let policy = Policy::new(4, service).expect("policy");
        let forward = serve(&b, policy, zero_requests(&b, &ticks));
        let mut reversed = zero_requests(&b, &ticks);
        reversed.reverse();
        let backward = serve(&b, policy, reversed);
        prop_assert_eq!(forward.batches, backward.batches);
        prop_assert_eq!(forward.responses, backward.responses);
    }
}
