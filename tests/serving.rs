//! The serving layer end to end: a seeded request stream driven through
//! a round-robin pool of one on both the cycle-accurate simulator
//! backend and the golden-reference backend.
//!
//! The contract under test: batch forming changes *when* images are
//! dispatched (and therefore how weight fetches amortize), never *what* is
//! computed — every response is bit-identical to running the same input
//! through `run_network`, batch boundaries are identical across backends
//! (the simulator's measured service cost equals the analytic cost model
//! pacing the golden backend), and external weight traffic per image falls
//! below the single-image baseline as batches form.

use edea::nn::mobilenet::MobileNetV1;
use edea::pool::{DispatchPolicy, Dispatcher, Pool};
use edea::serve::{arrivals, Backend, Policy, Request, ServeReport, SimulatorBackend};
use edea::tensor::rng;
use edea::{Deployment, EdeaConfig};
use edea_testutil::{deploy, paper_edea, serve_requests};

fn deployment(seed: u64) -> Deployment {
    Deployment::builder()
        .model(MobileNetV1::synthetic(0.25, seed))
        .calibration(rng::synthetic_batch(2, 3, 32, 32, seed + 1))
        .config(EdeaConfig::paper())
        .build()
        .expect("synthetic deployment builds")
}

/// Serves `requests` on a round-robin pool of one `backend`.
fn serve_one<B: Backend + Clone>(
    backend: &B,
    policy: Policy,
    requests: Vec<Request>,
) -> ServeReport {
    let pool = Pool::replicate(backend.clone(), 1).expect("pool of one");
    Dispatcher::new(policy, DispatchPolicy::RoundRobin)
        .serve(&pool, requests)
        .expect("serve")
        .serve
}

#[test]
fn scheduler_serves_32_requests_bit_identically_on_both_backends() {
    let d = deployment(900);
    let sim = d.simulator_backend();
    let golden = d.golden_backend().expect("golden backend");

    // Offered load ~2× capacity: Poisson arrivals with a mean gap of half
    // the per-image service time, so the queue builds and batches form.
    let per_image = sim.cost().per_image_cycles();
    let ticks = arrivals::poisson(32, per_image as f64 / 2.0, 901);
    let images = rng::synthetic_batch(32, 3, 32, 32, 902);
    let inputs: Vec<_> = images.iter().map(|img| d.prepare(img)).collect();
    let policy = Policy::new(4, per_image).expect("policy");

    let rs = serve_one(
        sim,
        policy,
        Request::stream(&ticks, inputs.clone()).expect("stream"),
    );
    let rg = serve_one(
        &golden,
        policy,
        Request::stream(&ticks, inputs.clone()).expect("stream"),
    );

    assert_eq!(rs.responses.len(), 32);
    assert_eq!(rs.backend, "simulator");
    assert_eq!(rg.backend, "golden");

    // Identical batch boundaries AND identical service/traffic accounting:
    // the simulator's measured cycles and external bytes per batch equal
    // the analytic cost model that paces the golden backend.
    assert_eq!(rs.batches, rg.batches);

    // Every output bit-identical to the per-image path, on both backends.
    for (id, input) in inputs.iter().enumerate() {
        let single = sim.run_network(input).expect("run_network");
        let from_sim = rs.response(id as u64).expect("sim response");
        let from_gold = rg.response(id as u64).expect("golden response");
        assert_eq!(
            from_sim.output, single.output,
            "request {id} vs run_network"
        );
        assert_eq!(
            from_gold.output, single.output,
            "request {id} golden vs run_network"
        );
    }

    // Under 2× load the serve loop must actually form multi-image batches…
    assert!(
        rs.batches.iter().any(|b| b.size > 1),
        "no batches formed under 2x load: {:?}",
        rs.batches.iter().map(|b| b.size).collect::<Vec<_>>()
    );
    assert!(rs.mean_batch_size() > 1.0);

    // …and the amortization survives the serving layer: each dispatch pays
    // the weight fetch once regardless of batch size, so weight DRAM bytes
    // per image fall below the single-image baseline.
    let baseline = sim.cost().weight_bytes();
    for b in &rs.batches {
        assert_eq!(b.weight_bytes, baseline, "batch {} weight bytes", b.index);
    }
    assert!(
        rs.weight_bytes_per_image() < baseline as f64,
        "{} !< {baseline}",
        rs.weight_bytes_per_image()
    );

    // Aggregate statistics are well-formed.
    assert!(rs.makespan() > 0);
    assert!(rs.mean_latency() > 0.0);
    assert!(rs.throughput_images_per_second(d.config()) > 0.0);
    assert_eq!(rs.slo_attainment(rs.max_latency()), 1.0);
}

#[test]
fn batch_of_one_policy_matches_run_network_and_baseline_traffic() {
    let d = deployment(910);
    let sim = d.simulator_backend();

    // Underloaded stream + max_batch = 1: every request rides alone.
    let gap = sim.cost().per_image_cycles() * 2;
    let ticks = arrivals::uniform(6, gap);
    let images = rng::synthetic_batch(6, 3, 32, 32, 911);
    let inputs: Vec<_> = images.iter().map(|img| d.prepare(img)).collect();
    let report = d
        .serve(
            Policy::new(1, 0).expect("policy"),
            DispatchPolicy::LeastLoaded,
            Request::stream(&ticks, inputs.clone()).expect("stream"),
        )
        .expect("serve")
        .serve;

    assert!(report.batches.iter().all(|b| b.size == 1));
    assert_eq!(report.mean_batch_size(), 1.0);
    // Batch-of-1 serving pays exactly the single-image weight traffic.
    assert_eq!(
        report.weight_bytes_per_image(),
        sim.cost().weight_bytes() as f64
    );
    // Underloaded with max_wait = 0, every request dispatches on arrival
    // and its latency is exactly the service time.
    for r in &report.responses {
        assert_eq!(r.dispatched, r.arrival, "request {}", r.id);
        assert_eq!(r.latency(), sim.cost().per_image_cycles());
    }
    // Bit-identity against the per-image path.
    for (id, input) in inputs.iter().enumerate() {
        let single = sim.run_network(input).expect("run_network");
        assert_eq!(
            report.response(id as u64).expect("response").output,
            single.output,
            "request {id}"
        );
    }
}

#[test]
fn serving_is_deterministic_end_to_end() {
    // Same seed + arrival pattern → identical batch boundaries, outputs
    // and statistics (extends the determinism guard to the serving layer).
    // Also exercises building the backend from the core types directly,
    // without the facade builder.
    let d = deploy(0.25, 920);
    let backend = SimulatorBackend::new(paper_edea(), d.qnet.clone()).expect("backend");
    let per_image = backend.cost().per_image_cycles();
    let ticks = arrivals::poisson(8, per_image as f64 / 2.0, 921);
    let policy = Policy::new(4, per_image).expect("policy");

    let a = serve_one(&backend, policy, serve_requests(&d, &ticks, 922));
    let b = serve_one(&backend, policy, serve_requests(&d, &ticks, 922));

    assert_eq!(a.batches, b.batches, "batch boundaries diverged");
    assert_eq!(a.responses, b.responses, "responses diverged");
    assert_eq!(a.weight_bytes_per_image(), b.weight_bytes_per_image());
    assert_eq!(a.mean_latency(), b.mean_latency());
}
