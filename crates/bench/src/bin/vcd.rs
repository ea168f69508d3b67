//! Dumps the cycle-accurate pipeline trace of a layer as a VCD waveform
//! (openable in GTKWave) — the reproduction's QuestaSim-equivalent artifact.
//!
//! Usage: `cargo run -p edea-bench --bin vcd --release [layer] [out.vcd]`
//!
//! `layer` is a MobileNetV1 DSC layer index, 0..=12 (default 0). A
//! malformed or out-of-range layer, or a failed write, prints the usage
//! line and exits with status 2 (usage) or 1 (write).

use std::process::ExitCode;

use edea::core::{pipeline, trace};
use edea::{mobilenet_v1_cifar10, EdeaConfig};

const USAGE: &str = "usage: vcd [layer 0..=12] [out.vcd]";

fn main() -> ExitCode {
    let layers = mobilenet_v1_cifar10();
    let mut args = std::env::args().skip(1);
    let layer = match args.next().map(|a| a.parse::<usize>()) {
        None => 0,
        Some(Ok(l)) if l < layers.len() => l,
        Some(_) => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let path = args
        .next()
        .unwrap_or_else(|| format!("edea_layer{layer}.vcd"));
    let cfg = EdeaConfig::paper();
    let sim = pipeline::simulate_layer(&layers[layer], &cfg, 2_000_000);
    let vcd = trace::to_vcd(&sim.events, cfg.clock_mhz);
    if let Err(e) = std::fs::write(&path, &vcd) {
        eprintln!("could not write {path}: {e}\n{USAGE}");
        return ExitCode::FAILURE;
    }
    println!(
        "layer {layer}: {} cycles, {} events -> {path} ({} bytes)",
        sim.total_cycles,
        sim.events.len(),
        vcd.len()
    );
    ExitCode::SUCCESS
}
