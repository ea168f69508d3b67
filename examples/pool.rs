//! Multi-accelerator serving: build a [`Deployment`] with N simulated
//! EDEA replicas and drive one overloaded Poisson stream through pools of
//! growing size — throughput scales with N until the pool capacity
//! crosses the offered load, while the aggregate weight DRAM traffic per
//! image *rises* (each replica fetches its own resident weights, and
//! shorter queues form smaller batches): the replication cost of
//! horizontal scaling.
//!
//! ```sh
//! cargo run -p edea --example pool --release
//! ```

use edea::nn::mobilenet::MobileNetV1;
use edea::pool::DispatchPolicy;
use edea::serve::{arrivals, Policy, Request};
use edea::tensor::rng;
use edea::{Deployment, EdeaConfig};

fn main() -> Result<(), edea::Error> {
    let n = 24;
    let load = 4.0; // 4x one instance's capacity

    println!("serving {n} requests at {load}x single-instance capacity\n");
    println!("replicas | mean batch | wgt B/img | p50 lat | p99 lat |  img/s | util");
    println!("---------+------------+-----------+---------+---------+--------+------");
    for replicas in [1usize, 2, 4] {
        // One session object owns the calibrated network and all replicas.
        let deployment = Deployment::builder()
            .model(MobileNetV1::synthetic(0.25, 42))
            .calibration(rng::synthetic_batch(2, 3, 32, 32, 7))
            .config(EdeaConfig::paper())
            .replicas(replicas)
            .build()?;

        let service = deployment.simulator_backend().cost().per_image_cycles();
        let ticks = arrivals::poisson(n, service as f64 / load, 1000);
        let inputs = (0..n)
            .map(|i| deployment.prepare(&rng::synthetic_image(3, 32, 32, 2000 + i as u64)))
            .collect();
        let report = deployment.serve(
            Policy::new(8, service)?,
            DispatchPolicy::LeastLoaded,
            Request::stream(&ticks, inputs)?,
        )?;
        println!(
            "{replicas:>8} | {:>10.2} | {:>9.0} | {:>7} | {:>7} | {:>6.0} | {:.2}",
            report.serve.mean_batch_size(),
            report.serve.weight_bytes_per_image(),
            report.serve.p50(),
            report.serve.p99(),
            report
                .serve
                .throughput_images_per_second(deployment.config()),
            report.mean_utilization(),
        );
    }
    println!(
        "\nmore replicas -> shorter queues -> smaller batches -> more weight bytes\n\
         per image (each replica pays its own per-dispatch weight fetch), while\n\
         throughput climbs until the pool outruns the arrival rate. Outputs stay\n\
         bit-identical to the per-image path on every worker (tests/pool.rs),\n\
         and a pool of one serves identically under every dispatch policy."
    );
    Ok(())
}
