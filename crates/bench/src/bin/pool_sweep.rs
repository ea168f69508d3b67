//! Extension study: the serve loop sharded across a pool of N
//! simulated EDEA instances.
//! Run with: `cargo run -p edea-bench --bin pool_sweep --release`
//!
//! Set `EDEA_BENCH_SMOKE=1` for a reduced smoke pass (one load point,
//! N ∈ {1, 2}) — used by CI to keep the pool dispatch path executing
//! without paying the full sweep.

fn main() {
    if edea_bench::smoke() {
        println!("{}", edea_bench::experiments::pool_sweep_smoke());
    } else {
        println!("{}", edea_bench::experiments::pool_sweep());
    }
}
