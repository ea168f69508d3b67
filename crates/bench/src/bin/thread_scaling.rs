//! Host-thread scaling measurement: wall-clock of the *simulator itself*
//! (not the simulated machine — every simulated number is bit-identical
//! at every thread count, enforced by `parallel_identity`) as the scoped
//! thread pool fans out over portion lanes and pool workers.
//! Run with: `cargo run -p edea-bench --bin thread_scaling --release`
//!
//! Unlike the paper-artifact bins this one is **not** golden-snapshotted:
//! wall-clock depends on the host. Results belong in EXPERIMENTS.md with
//! the host's core count (`std::thread::available_parallelism`) recorded
//! next to them — on a single-core host the parallel path can only show
//! its overhead, and the speedup materializes on multi-core CI.
//!
//! Set `EDEA_BENCH_SMOKE=1` for a reduced smoke pass (tiny stream, 2
//! workers, threads ∈ {1, 2}, one rep) — used by CI to keep both parallel
//! seams executing end to end.

#![expect(
    clippy::disallowed_types,
    reason = "wall-clock bench of the simulator host itself, the one sanctioned use"
)]

use std::time::Instant;

use edea::core::par::Parallelism;
use edea::nn::mobilenet::MobileNetV1;
use edea::nn::quantize::{QuantStrategy, QuantizedDscNetwork};
use edea::nn::sparsity::SparsityProfile;
use edea::nn::workload::NetworkId;
use edea::pool::{DispatchPolicy, Dispatcher, Pool};
use edea::serve::{arrivals, Policy, Request, SimulatorBackend};
use edea::tensor::{rng, Batch};
use edea::{Edea, EdeaConfig};

struct Setup {
    qnet: QuantizedDscNetwork,
    inputs: Vec<edea::tensor::Tensor3<i8>>,
}

fn setup(width: f64, n_inputs: usize) -> Setup {
    let mut model = MobileNetV1::synthetic(width, 9001);
    let calib = rng::synthetic_batch(2, 3, 32, 32, 9002);
    let (qnet, _) = QuantizedDscNetwork::calibrate_shaped(
        &mut model,
        &calib,
        &SparsityProfile::paper(),
        QuantStrategy::paper(),
    )
    .expect("synthetic calibration succeeds");
    let inputs = (0..n_inputs)
        .map(|i| {
            qnet.quantize_input(&model.forward_stem(&rng::synthetic_image(
                3,
                32,
                32,
                9100 + i as u64,
            )))
        })
        .collect();
    Setup { qnet, inputs }
}

fn backend(s: &Setup, threads: usize) -> SimulatorBackend {
    let edea = Edea::new(EdeaConfig::paper())
        .expect("paper config")
        .with_parallelism(Parallelism::new(threads).expect("thread count"));
    SimulatorBackend::new(edea, s.qnet.clone()).expect("backend builds")
}

/// Median wall-clock milliseconds of `reps` runs of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let smoke = edea_bench::smoke();
    let (thread_counts, pool_workers, n_requests, batch, reps): (
        &[usize],
        usize,
        usize,
        usize,
        usize,
    ) = if smoke {
        (&[1, 2], 2, 4, 2, 1)
    } else {
        (&[1, 2, 4], 8, 64, 4, 5)
    };
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!("== Host-thread scaling (host cores: {cores}) ==");
    println!("simulated results are bit-identical at every thread count;");
    println!("this measures the simulator's own wall-clock only.\n");

    let s = setup(0.25, n_requests.max(batch));
    // (path, threads, median ms) samples for the machine-readable line.
    let mut samples: Vec<(&str, usize, f64)> = Vec::new();

    // Seam 1: the per-portion tile lanes inside one planned batched
    // forward (one backend, one scratch, portions fanned across lanes).
    println!("-- batched forward (width 0.25, batch {batch}) --");
    println!("{:>7}  {:>10}  {:>8}", "threads", "median ms", "speedup");
    let mut base = 0.0f64;
    for &t in thread_counts {
        let b = backend(&s, t);
        let inputs = Batch::new(s.inputs[..batch].to_vec()).expect("batch");
        let _ = b.run_batch(NetworkId::PRIMARY, &inputs).expect("warm-up");
        let ms = median_ms(reps, || {
            let _ = b
                .run_batch(NetworkId::PRIMARY, &inputs)
                .expect("batched forward");
        });
        if t == 1 {
            base = ms;
        }
        println!("{:>7}  {:>10.2}  {:>7.2}x", t, ms, base / ms);
        samples.push(("batched_forward", t, ms));
    }

    // Seam 2: the pool-worker fan-out — N workers serve a burst of
    // batch-of-1 requests; dispatch stays serial on the simulated clock,
    // scheduled from declared cycles, and execution runs on the lanes.
    println!("\n-- pool serve ({pool_workers} workers, {n_requests} batch-of-1 requests) --");
    println!("{:>7}  {:>10}  {:>8}", "threads", "median ms", "speedup");
    let ticks = arrivals::uniform(n_requests, 1_000);
    let dispatcher = Dispatcher::new(
        Policy::new(1, 0).expect("policy"),
        DispatchPolicy::LeastLoaded,
    );
    let mut base = 0.0f64;
    for &t in thread_counts {
        let pool = Pool::replicate(backend(&s, 1), pool_workers)
            .expect("pool builds")
            .with_parallelism(Parallelism::new(t).expect("thread count"));
        let requests = || Request::stream(&ticks, s.inputs[..n_requests].to_vec()).expect("stream");
        let _ = dispatcher.serve(&pool, requests()).expect("warm-up");
        let ms = median_ms(reps, || {
            let _ = dispatcher.serve(&pool, requests()).expect("pool serve");
        });
        if t == 1 {
            base = ms;
        }
        println!("{:>7}  {:>10.2}  {:>7.2}x", t, ms, base / ms);
        samples.push(("pool_serve", t, ms));
    }

    // One machine-readable JSON line so the perf trajectory is scrapeable
    // across CI runs. Deliberately NOT golden-snapshotted: wall-clock
    // depends on the host (the `host_cores` field records it).
    let results: Vec<String> = samples
        .iter()
        .map(|(path, t, ms)| {
            format!("{{\"path\":\"{path}\",\"threads\":{t},\"median_ms\":{ms:.3}}}")
        })
        .collect();
    println!(
        "\nJSON: {{\"bench\":\"thread_scaling\",\"host_cores\":{cores},\"smoke\":{smoke},\"results\":[{}]}}",
        results.join(",")
    );
}
