//! Full-network run: all 13 DSC layers of MobileNetV1-CIFAR10 (width 1.0,
//! the paper's network) through the EDEA simulator, reporting the per-layer
//! series behind Figs. 10–13.
//!
//! ```sh
//! cargo run -p edea --example full_network --release
//! ```

use edea::core::power::EnergyModel;
use edea::core::{paperdata, timing};
use edea::nn::mobilenet::MobileNetV1;
use edea::nn::quantize::{QuantStrategy, QuantizedDscNetwork};
use edea::nn::sparsity::SparsityProfile;
use edea::tensor::rng;
use edea::{Edea, EdeaConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = EdeaConfig::paper();
    println!("building + quantizing MobileNetV1 (width 1.0)…");
    let mut model = MobileNetV1::synthetic(1.0, 2024);
    let calib = rng::synthetic_batch(2, 3, 32, 32, 99);
    let (qnet, _) = QuantizedDscNetwork::calibrate_shaped(
        &mut model,
        &calib,
        &SparsityProfile::paper(),
        QuantStrategy::paper(),
    )?;

    println!("running all 13 DSC layers on the accelerator…");
    let edea = Edea::new(cfg.clone())?;
    let input = qnet.quantize_input(&model.forward_stem(&calib[0]));
    let run = edea.run_network(&qnet, &input)?;

    // Calibrated energy model (anchored to the paper's silicon points).
    let power_stats = edea::core::power::paper_layer_stats(&cfg, 1).layers;
    let energy = EnergyModel::calibrate(&power_stats, &cfg, &paperdata::power_mw());

    println!();
    println!("layer |   MACs    | latency ns | GOPS   | mW     | TOPS/W | DWCzero | PWCzero");
    println!("------+-----------+------------+--------+--------+--------+---------+--------");
    let mut total_ops = 0u64;
    let mut total_ns = 0.0f64;
    for s in &run.stats.layers {
        let p = energy.layer_power_mw(s, &cfg);
        let ee = energy.layer_efficiency_tops_w(s, &cfg);
        total_ops += 2 * s.total_macs();
        total_ns += s.latency_ns(&cfg);
        println!(
            "{:5} | {:9} | {:10.0} | {:6.1} | {:6.1} | {:6.2} | {:6.1}% | {:5.1}%",
            s.shape.index,
            s.total_macs(),
            s.latency_ns(&cfg),
            s.throughput_gops(&cfg),
            p,
            ee,
            100.0 * s.mid_zero,
            100.0 * s.out_zero,
        );
    }
    println!();
    println!(
        "network total: {:.1} µs, average {:.1} GOPS",
        total_ns / 1000.0,
        total_ops as f64 / total_ns
    );
    let t = timing::network_timing(&edea::mobilenet_v1_cifar10(), &cfg);
    println!(
        "analytic model: {:.1} µs, average {:.1} GOPS (paper: avg 981.42 GOPS)",
        t.total_latency_ns / 1000.0,
        t.average_gops
    );
    println!("peak throughput: {:.1} GOPS (paper: 1024)", t.peak_gops);
    Ok(())
}
