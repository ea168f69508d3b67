//! The accelerator pool end to end: the serve loop sharded across N
//! simulated EDEA instances through the `Deployment` facade.
//!
//! The contract under test: a pool of one is **bit-identical** under every
//! dispatch policy (same batch boundaries, same `ServeReport` numbers as
//! the round-robin pool of one — the single-backend case), replication
//! changes *where* batches run and *how often* weights are fetched but
//! never what is computed (every response stays bit-identical to
//! `run_network`), throughput scales with workers, and the aggregate
//! weight DRAM traffic per image rises with the replica count at fixed
//! load — the replication cost.

use edea::nn::executor;
use edea::nn::mobilenet::MobileNetV1;
use edea::nn::workload::NetworkId;
use edea::pool::{DispatchPolicy, Dispatcher, Pool};
use edea::serve::{arrivals, Policy, Request, SimulatorBackend};
use edea::tensor::rng;
use edea::{Deployment, EdeaConfig};
use edea_testutil::{deploy, deploy_v2, mixed_requests, paper_edea, serve_requests};

fn deployment(seed: u64, replicas: usize) -> Deployment {
    Deployment::builder()
        .model(MobileNetV1::synthetic(0.25, seed))
        .calibration(rng::synthetic_batch(2, 3, 32, 32, seed + 1))
        .config(EdeaConfig::paper())
        .replicas(replicas)
        .build()
        .expect("synthetic deployment builds")
}

#[test]
fn pool_of_one_is_bit_identical_to_the_scheduler_path() {
    // The regression pin for the single-backend case: a one-worker pool
    // must produce the same batch boundaries and the same ServeReport
    // numbers under every dispatch policy as under round-robin, on the
    // real simulator backend.
    let d = deploy(0.25, 930);
    let backend = SimulatorBackend::new(paper_edea(), d.qnet.clone()).expect("backend");
    let per_image = backend.cost().per_image_cycles();
    let ticks = arrivals::poisson(12, per_image as f64 / 2.0, 931);
    let policy = Policy::new(4, per_image).expect("policy");

    let single = Dispatcher::new(policy, DispatchPolicy::RoundRobin)
        .serve(
            &Pool::replicate(backend.clone(), 1).expect("pool"),
            serve_requests(&d, &ticks, 932),
        )
        .expect("round-robin serve")
        .serve;
    for dp in [
        DispatchPolicy::RoundRobin,
        DispatchPolicy::LeastLoaded,
        DispatchPolicy::JoinShortestQueue,
    ] {
        let pool = Pool::replicate(backend.clone(), 1).expect("pool");
        let pooled = Dispatcher::new(policy, dp)
            .serve(&pool, serve_requests(&d, &ticks, 932))
            .expect("pool serve");
        assert_eq!(pooled.serve.batches, single.batches, "{dp}");
        assert_eq!(pooled.serve.responses, single.responses, "{dp}");
        assert_eq!(pooled.serve.backend, single.backend, "{dp}");
        assert_eq!(
            pooled.serve.weight_bytes_per_image(),
            single.weight_bytes_per_image(),
            "{dp}"
        );
        assert_eq!(pooled.serve.mean_latency(), single.mean_latency(), "{dp}");
        assert_eq!(pooled.serve.p50(), single.p50(), "{dp}");
        assert_eq!(pooled.serve.p95(), single.p95(), "{dp}");
        assert_eq!(pooled.serve.p99(), single.p99(), "{dp}");
        // Every batch ran on the lone worker.
        assert_eq!(pooled.assignments, vec![0; single.batches.len()], "{dp}");
        assert_eq!(pooled.workers[0].requests, 12, "{dp}");
    }

    // The facade's default single-replica serve is that same path.
    let d1 = deployment(930, 1);
    assert_eq!(d1.replicas(), 1);
}

#[test]
fn replicated_deployment_stays_bit_exact_and_scales_throughput() {
    let d = deployment(940, 3);
    let sim = d.simulator_backend();
    let per_image = sim.cost().per_image_cycles();

    // A 2x-overload Poisson stream through three replicas.
    let ticks = arrivals::poisson(12, per_image as f64 / 2.0, 941);
    let images = rng::synthetic_batch(12, 3, 32, 32, 942);
    let inputs: Vec<_> = images.iter().map(|img| d.prepare(img)).collect();
    let policy = Policy::new(4, per_image).expect("policy");

    let report = d
        .serve(
            policy,
            DispatchPolicy::LeastLoaded,
            Request::stream(&ticks, inputs.clone()).expect("stream"),
        )
        .expect("pool serve");

    // Replication never changes what is computed: every response is
    // bit-identical to the one-shot per-image path, whichever worker
    // served it.
    assert_eq!(report.serve.responses.len(), 12);
    for (id, input) in inputs.iter().enumerate() {
        let single = sim.run_network(input).expect("run_network");
        assert_eq!(
            report.serve.response(id as u64).expect("response").output,
            single.output,
            "request {id} vs run_network"
        );
    }

    // The stream actually spread: more than one worker served requests.
    let active = report.workers.iter().filter(|w| w.requests > 0).count();
    assert!(active > 1, "all requests landed on one worker");

    // Scaling: the same stream on a single replica takes strictly longer.
    let single = Dispatcher::new(policy, DispatchPolicy::RoundRobin)
        .serve(
            &Pool::replicate(sim.clone(), 1).expect("pool"),
            Request::stream(&ticks, inputs).expect("stream"),
        )
        .expect("single serve")
        .serve;
    assert!(
        report.serve.makespan() < single.makespan(),
        "pool makespan {} !< single {}",
        report.serve.makespan(),
        single.makespan()
    );
    assert!(
        report.serve.mean_latency() < single.mean_latency(),
        "pool mean latency {} !< single {}",
        report.serve.mean_latency(),
        single.mean_latency()
    );

    // …and the replication cost shows: the pool runs more, smaller
    // batches, so aggregate weight bytes per image are at least the
    // single-backend figure (each dispatch pays a full weight fetch).
    assert!(report.serve.batches.len() >= single.batches.len());
    assert!(report.serve.weight_bytes_per_image() >= single.weight_bytes_per_image());
    // Per-worker weight accounting sums to the aggregate.
    let per_worker: u64 = report.workers.iter().map(|w| w.weight_bytes).sum();
    let aggregate: u64 = report.serve.batches.iter().map(|b| b.weight_bytes).sum();
    assert_eq!(per_worker, aggregate);
}

#[test]
fn replication_cost_rises_with_worker_count_at_fixed_load() {
    // One overloaded stream, one deployment — only the replica count
    // varies. Weight DRAM per image must not fall as workers are added,
    // and must strictly rise from 1 to 4 replicas (shorter queues form
    // smaller batches; every replica fetches its own weights).
    let d = deploy(0.25, 950);
    let backend = SimulatorBackend::new(paper_edea(), d.qnet.clone()).expect("backend");
    let per_image = backend.cost().per_image_cycles();
    let ticks = arrivals::poisson(16, per_image as f64 / 3.0, 951);
    let policy = Policy::new(8, per_image).expect("policy");

    let wpi = |n: usize| {
        let pool = Pool::replicate(backend.clone(), n).expect("pool");
        Dispatcher::new(policy, DispatchPolicy::LeastLoaded)
            .serve(&pool, serve_requests(&d, &ticks, 952))
            .expect("serve")
            .weight_bytes_per_image()
    };
    let one = wpi(1);
    let two = wpi(2);
    let four = wpi(4);
    assert!(two >= one, "{two} < {one}");
    assert!(four >= two, "{four} < {two}");
    assert!(four > one, "replication cost did not rise: {four} vs {one}");
    // Bounded by the unbatched single-image figure.
    assert!(four <= backend.cost().weight_bytes() as f64);
}

#[test]
fn pool_serving_is_deterministic_end_to_end() {
    // Same seed + arrival pattern + replica count → identical batch
    // boundaries, worker assignments, outputs and statistics (extends
    // the determinism guard to the pool layer).
    let d = deployment(960, 2);
    let per_image = d.simulator_backend().cost().per_image_cycles();
    let ticks = arrivals::poisson(8, per_image as f64 / 2.0, 961);
    let policy = Policy::new(4, per_image).expect("policy");

    let run = |seed| {
        let images = rng::synthetic_batch(8, 3, 32, 32, seed);
        let inputs: Vec<_> = images.iter().map(|img| d.prepare(img)).collect();
        d.serve(
            policy,
            DispatchPolicy::JoinShortestQueue,
            Request::stream(&ticks, inputs).expect("stream"),
        )
        .expect("serve")
    };
    let a = run(962);
    let b = run(962);
    assert_eq!(
        a.serve.batches, b.serve.batches,
        "batch boundaries diverged"
    );
    assert_eq!(a.serve.responses, b.serve.responses, "responses diverged");
    assert_eq!(a.assignments, b.assignments, "assignments diverged");
    assert_eq!(a.workers, b.workers, "worker reports diverged");
}

#[test]
fn mixed_model_pool_serves_both_networks_bit_exactly() {
    // The testutil mixed-model builders in anger: a shared-stem pair
    // (v1 at width 0.5, v2 at width 0.25 — both (16, 32, 32) after the
    // stem) served as one alternating stream over a two-worker pool.
    // Every response must match the golden executor through the network
    // its request targeted, and the model switches must be accounted as
    // their own traffic category.
    let v1 = deploy(0.5, 970);
    let v2 = deploy_v2(0.25, 971);
    let backend = SimulatorBackend::new(paper_edea(), v1.qnet.clone())
        .expect("backend")
        .with_model(NetworkId(1), v2.qnet.clone())
        .expect("shared stem");
    let per_image = backend.cost().per_image_cycles();
    let ticks = arrivals::poisson(10, per_image as f64 / 2.0, 972);
    let nets = [NetworkId::PRIMARY, NetworkId(1)];
    let requests = mixed_requests(&v1, &v2, &nets, &ticks, 973);
    let policy = Policy::new(2, per_image).expect("policy");
    let pool = Pool::replicate(backend, 2).expect("pool");
    let report = Dispatcher::new(policy, DispatchPolicy::LeastLoaded)
        .serve(&pool, requests)
        .expect("mixed pool serve");

    assert_eq!(report.serve.responses.len(), 10);
    let images = rng::synthetic_batch(10, 3, 32, 32, 973);
    for (i, img) in images.iter().enumerate() {
        let resp = report.serve.response(i as u64).expect("response");
        let expected = if i % 2 == 0 {
            assert_eq!(resp.network, NetworkId::PRIMARY, "request {i}");
            let input = v1.qnet.quantize_input(&v1.model.forward_stem(img));
            executor::run_network(&v1.qnet, &input).output
        } else {
            assert_eq!(resp.network, NetworkId(1), "request {i}");
            let input = v2.qnet.quantize_input(&v2.model.forward_stem(img));
            executor::run_network(&v2.qnet, &input).output
        };
        assert_eq!(resp.output, expected, "request {i} vs golden executor");
    }

    // Both networks saw traffic, switches happened, and the per-worker
    // switch accounting sums to the aggregate — separate from the
    // per-batch external/weight traffic.
    assert!(report.serve.mean_latency_for(NetworkId::PRIMARY).is_some());
    assert!(report.serve.mean_latency_for(NetworkId(1)).is_some());
    assert!(report.serve.switch_bytes_total() > 0, "no model switches");
    let per_worker: u64 = report.workers.iter().map(|w| w.switch_bytes).sum();
    assert_eq!(per_worker, report.serve.switch_bytes_total());
}
