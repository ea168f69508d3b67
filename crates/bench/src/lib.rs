//! Benchmark harness for the EDEA reproduction.
//!
//! One function per table/figure of the paper's evaluation plus the
//! extension studies (ablation, PE scaling, portion sensitivity, and the
//! batched-inference weight-residency sweep); each returns the rendered
//! rows/series the paper reports (plus the paper's published values side by
//! side). The binaries in `src/bin` print them; the Criterion benches in
//! `benches/` time their regeneration; EXPERIMENTS.md records the
//! paper-vs-measured comparison. Every rendered artifact is pinned
//! character-for-character under `tests/golden/` — see this crate's
//! README.md for the `UPDATE_GOLDEN=1` workflow and why the vendored RNG
//! streams are load-bearing.
//!
//! ```
//! let out = edea_bench::experiments::fig13();
//! assert!(out.contains("973.5"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

/// Whether `EDEA_BENCH_SMOKE` asks for a reduced smoke pass: set,
/// non-empty and not `"0"`. CI sets it to keep the benches and sweep
/// binaries executing without paying their full cost.
#[must_use]
pub fn smoke() -> bool {
    matches!(
        std::env::var("EDEA_BENCH_SMOKE").as_deref(),
        Ok(v) if !v.is_empty() && v != "0"
    )
}
