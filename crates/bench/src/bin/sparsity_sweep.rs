//! Extension study: the Fig.-11 sparsity profile vs a near-dense control
//! through the serving stack — the activation landscape the zero-skipping
//! engine kernels exploit.
//! Run with: `cargo run -p edea-bench --bin sparsity_sweep --release`
//!
//! Set `EDEA_BENCH_SMOKE=1` for a reduced smoke pass (width 0.25, batch
//! of 2) — used by CI to keep the sparse and dense deployment paths
//! executing without paying the full comparison.

fn main() {
    if edea_bench::smoke() {
        println!("{}", edea_bench::experiments::sparsity_sweep_smoke());
    } else {
        println!("{}", edea_bench::experiments::sparsity_sweep());
    }
}
