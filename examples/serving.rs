//! Session-based serving: build a [`Deployment`], then drive a Poisson
//! request stream through the batch-forming serve loop at three offered
//! loads and watch weight DRAM traffic per image fall as batches form —
//! the paper's weight-residency amortization surviving the serving layer.
//!
//! ```sh
//! cargo run -p edea --example serving --release
//! ```

use edea::nn::mobilenet::MobileNetV1;
use edea::pool::DispatchPolicy;
use edea::serve::{arrivals, Policy, Request};
use edea::tensor::rng;
use edea::{Deployment, EdeaConfig};

fn main() -> Result<(), edea::Error> {
    // One session object owns the calibrated network and the accelerator.
    let deployment = Deployment::builder()
        .model(MobileNetV1::synthetic(0.25, 42))
        .calibration(rng::synthetic_batch(2, 3, 32, 32, 7))
        .config(EdeaConfig::paper())
        .build()?;

    let sim = deployment.simulator_backend();
    let service = sim.cost().per_image_cycles();
    let single_weights = sim.cost().weight_bytes();
    println!(
        "deployment ready: {} DSC layers, {} cycles/image, {} weight B/image unbatched\n",
        deployment.qnet().layers().len(),
        service,
        single_weights
    );

    let n = 24;
    let policy = Policy::new(8, service)?;
    println!(
        "policy: max_batch = {}, max_wait = {} ticks",
        policy.max_batch, policy.max_wait
    );
    println!("\nload (x capacity) | mean batch | wgt B/img | p50 lat | p99 lat | img/s");
    println!("------------------+------------+-----------+---------+---------+--------");
    for load in [0.5, 1.0, 2.0] {
        let mean_gap = service as f64 / load;
        let ticks = arrivals::poisson(n, mean_gap, 1000 + load as u64);
        let inputs = (0..n)
            .map(|i| deployment.prepare(&rng::synthetic_image(3, 32, 32, 2000 + i as u64)))
            .collect();
        let requests = Request::stream(&ticks, inputs)?;
        let report = deployment
            .serve(policy, DispatchPolicy::LeastLoaded, requests)?
            .serve;
        println!(
            "{load:>17.1} | {:>10.2} | {:>9.0} | {:>7} | {:>7} | {:>6.0}",
            report.mean_batch_size(),
            report.weight_bytes_per_image(),
            report.p50(),
            report.p99(),
            report.throughput_images_per_second(deployment.config()),
        );
    }
    println!(
        "\nhigher load -> deeper queues -> larger batches -> fewer weight bytes per image,\n\
         while every response stays bit-identical to the per-image path\n\
         (the serving suite asserts this against run_network and the golden executor)."
    );
    Ok(())
}
