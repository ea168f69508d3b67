//! Observability export: renders a seeded 64-request mixed-model pool run
//! as a Chrome trace-event JSON (open it in Perfetto or
//! `chrome://tracing`) and a Prometheus text exposition of the telemetry
//! metrics registry. Every timestamp is a simulated tick; the output is
//! bit-identical at every `EDEA_THREADS` setting.
//! Run with: `cargo run -p edea-bench --bin trace_export --release`
//!
//! Set `EDEA_BENCH_SMOKE=1` for a reduced smoke pass (8 requests) — used
//! by CI to keep the recorder and both exporters executing without paying
//! the full run.

fn main() {
    if edea_bench::smoke() {
        println!("{}", edea_bench::experiments::trace_export_smoke());
    } else {
        println!("{}", edea_bench::experiments::trace_export());
    }
}
