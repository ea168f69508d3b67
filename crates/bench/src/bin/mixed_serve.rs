//! Extension study: mixed-model serving — MobileNetV1 and MobileNetV2
//! traffic interleaved over one accelerator pool, with model-switch
//! weight traffic accounted as its own external-traffic category.
//! Run with: `cargo run -p edea-bench --bin mixed_serve --release`
//!
//! Set `EDEA_BENCH_SMOKE=1` for a reduced smoke pass (8 requests, one v2
//! share) — used by CI to keep the mixed dispatch path executing without
//! paying the full sweep.

fn main() {
    if edea_bench::smoke() {
        println!("{}", edea_bench::experiments::mixed_serve_smoke());
    } else {
        println!("{}", edea_bench::experiments::mixed_serve());
    }
}
