//! # EDEA — Efficient Dual-Engine Accelerator for Depthwise Separable Convolution
//!
//! A faithful, bit-exact simulator of the EDEA accelerator (Chen et al.,
//! SOCC 2024): a 22 nm ASIC with **separate, parallel engines** for
//! depthwise (DWC) and pointwise (PWC) convolution, a **Non-Conv unit**
//! folding dequantization + batch norm + ReLU + requantization into one
//! Q8.16 multiply-add, and an **intermediate buffer** providing direct
//! DWC→PWC data transfer with no external-memory round trip.
//!
//! ## What this crate contains
//!
//! * [`config`] — the architecture parameters (Fig. 4/5: `Td = 8`,
//!   `Tk = 16`, `Tn = Tm = 2`, 288-MAC DWC engine, 512-MAC PWC engine,
//!   9-cycle initiation, 1 GHz @ 0.8 V).
//! * [`engine`] — bit-exact models of both PE arrays and their adder trees.
//! * [`nonconv`] — the Non-Conv unit (Fig. 6).
//! * [`buffer`] — the on-chip buffer set's capacity check and the
//!   external-traffic record (Fig. 4).
//! * [`stats`] — execution statistics and the traffic ledger, the one
//!   source of every shape-determined cycle and byte count.
//! * [`schedule`] — the tile/portion iteration of the chosen `La` dataflow,
//!   including the batched loop nest and its
//!   [`WeightResidency`](schedule::WeightResidency) accounting.
//! * [`accelerator`] — the functional simulator ([`Edea`]); verified
//!   bit-exact against `edea-nn`'s golden executor. [`Edea::run_batch`]
//!   holds weight tiles resident across a batch of images, cutting external
//!   weight traffic per image to `1/N` at the cost of one psum bank per
//!   in-flight image.
//! * [`plan`] / [`scratch`] — the hot-path support structures: weight
//!   plans laid out for the portion kernels ([`plan::NetworkPlan`], cached
//!   by long-lived sessions) and the reusable buffer arena
//!   ([`scratch::TileScratch`]) that makes the steady-state portion loop
//!   allocation-free.
//! * [`timing`] — the analytic latency model (Eq. 1/Eq. 2) reproducing the
//!   paper's per-layer latency and throughput (Figs. 10, 13).
//! * [`pipeline`] — a cycle-accurate pipeline simulation (Fig. 7),
//!   cross-validated against [`timing`].
//! * [`power`] / [`area`] — calibrated energy and area models (Figs. 9,
//!   11, 12; layout dimensions of Fig. 8 via [`floorplan`]).
//! * [`scaling`] / [`compare`] — technology/voltage normalization and the
//!   state-of-the-art comparison (Table III).
//! * [`baseline`] — serial-dual and unified round-trip baselines for the
//!   ablation study.
//! * [`serve`] — the serving layer: a [`Backend`](serve::Backend) trait
//!   over the simulator / golden-reference / analytic execution paths,
//!   requests, the batch-forming [`Policy`](serve::Policy) (max-batch +
//!   max-wait, simulated clock) and the [`ServeReport`](serve::ServeReport)
//!   of per-request latency and aggregate throughput/SLO statistics.
//! * [`par`] — the deterministic scoped thread pool: a host-`Parallelism`
//!   knob (default serial, `EDEA_THREADS` overridable) that fans
//!   independent portions of a layer and independent pool workers
//!   across `std::thread::scope` lanes under a strict static-partition /
//!   one-writer / fixed-order-reduction contract, so every simulated
//!   number stays bit-identical at every thread count.
//! * [`pool`] — the multi-accelerator pool: N backends, each with its own
//!   busy-until clock and weight residency, behind a
//!   [`Dispatcher`](pool::Dispatcher) routing requests by
//!   [`DispatchPolicy`](pool::DispatchPolicy) (round-robin, least-loaded,
//!   join-shortest-queue) — the one serve entry; a single backend is a
//!   pool of one. [`PoolReport`](pool::PoolReport) adds per-worker
//!   utilization, queue depth and the aggregate weight-DRAM-per-image
//!   replication cost.
//! * [`telemetry`] — deterministic observability on the simulated clock: a
//!   [`Telemetry`](telemetry::Telemetry) sink (ring-buffer
//!   [`Recorder`](telemetry::Recorder), zero-cost
//!   [`Disabled`](telemetry::Disabled)) recording the full request
//!   lifecycle as spans + events, a fixed-bucket metrics
//!   [`Registry`](telemetry::metrics::Registry), and Chrome-trace /
//!   Prometheus exporters — bit-identical at every thread count.
//!
//! ## Quickstart
//!
//! ```
//! use edea_core::accelerator::Edea;
//! use edea_core::config::EdeaConfig;
//! use edea_nn::mobilenet::MobileNetV1;
//! use edea_nn::quantize::{QuantStrategy, QuantizedDscNetwork};
//! use edea_nn::sparsity::SparsityProfile;
//! use edea_tensor::rng;
//!
//! // Build + quantize a (small) MobileNetV1, then run layer 0 on EDEA.
//! let mut model = MobileNetV1::synthetic(0.25, 7);
//! let calib = rng::synthetic_batch(2, 3, 32, 32, 9);
//! let (qnet, _) = QuantizedDscNetwork::calibrate_shaped(
//!     &mut model, &calib, &SparsityProfile::paper(), QuantStrategy::paper()).unwrap();
//! let edea = Edea::new(EdeaConfig::paper()).unwrap();
//! let input = qnet.quantize_input(&model.forward_stem(&calib[0]));
//! let run = edea.run_layer(&qnet.layers()[0], &input).unwrap();
//! assert_eq!(run.stats.cycles, edea_core::timing::layer_cycles(
//!     &qnet.layers()[0].shape(), &EdeaConfig::paper()).total());
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accelerator;
pub mod area;
pub mod baseline;
pub mod buffer;
pub mod compare;
pub mod config;
pub mod engine;
mod error;
pub mod floorplan;
pub mod nonconv;
pub mod paperdata;
pub mod par;
pub mod pipeline;
pub mod plan;
pub mod pool;
pub mod power;
pub mod scaling;
pub mod schedule;
pub mod scratch;
pub mod serve;
pub mod stats;
pub mod telemetry;
pub mod timing;
pub mod trace;

pub use accelerator::Edea;
pub use config::EdeaConfig;
pub use error::CoreError;
