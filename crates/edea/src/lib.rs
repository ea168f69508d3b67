//! # EDEA — Efficient Dual-Engine Accelerator for Depthwise Separable Convolution
//!
//! Facade crate for the full reproduction of *"EDEA: Efficient Dual-Engine
//! Accelerator for Depthwise Separable Convolution with Direct Data
//! Transfer"* (Chen et al., SOCC 2024). Re-exports the workspace crates
//! under one roof:
//!
//! * [`fixed`] — fixed-point arithmetic (Q8.16 Non-Conv constants).
//! * [`tensor`] — tensors, batches, int8 quantization, reference
//!   convolutions.
//! * [`nn`] — MobileNetV1-CIFAR10, LSQ-style quantization, BN folding,
//!   sparsity shaping, golden int8 executor (per image and per batch).
//! * [`dse`] — the design-space exploration of the paper's Sec. II.
//! * [`core`] — the accelerator itself: engines, Non-Conv unit, buffers,
//!   cycle-accurate pipeline, power/area models, scaling, baselines,
//!   batched multi-image inference with weight residency
//!   ([`Edea::run_batch`]), and the serving layer ([`serve`], [`pool`]).
//!
//! The serving entry point is the [`Deployment`] builder: one session
//! object owning the calibrated network and a [`pool::Pool`] of validated
//! accelerator replicas (`.replicas(n)`, default 1). It has one way to run
//! ([`Deployment::run`], a batch on a chosen network) and one way to serve
//! ([`Deployment::serve`], a request stream through the
//! [`pool::Dispatcher`] with round-robin / least-loaded /
//! join-shortest-queue routing). Every fallible path returns the unified
//! [`Error`]. The workspace builds offline: `rand`,
//! `proptest` and `criterion` are vendored API-subset stand-ins whose
//! deterministic streams the golden fixtures depend on (see
//! `vendor/*/src/lib.rs` for each one's caveats). See ARCHITECTURE.md for
//! the crate/module → paper-section map.
//!
//! # Example
//!
//! ```
//! use edea::{Deployment, EdeaConfig};
//! use edea::nn::mobilenet::MobileNetV1;
//! use edea::nn::workload::NetworkId;
//! use edea::pool::DispatchPolicy;
//! use edea::serve::{arrivals, Policy, Request};
//! use edea::tensor::{rng, Batch};
//!
//! // One session object: model + calibration in, serving session out.
//! let deployment = Deployment::builder()
//!     .model(MobileNetV1::synthetic(0.25, 1))
//!     .calibration(rng::synthetic_batch(2, 3, 32, 32, 2))
//!     .config(EdeaConfig::paper())
//!     .build()?;
//!
//! // One-shot inference on a batch of one…
//! let input = deployment.prepare(&rng::synthetic_image(3, 32, 32, 3));
//! let run = deployment.run(NetworkId::PRIMARY, &Batch::new(vec![input])?)?;
//! println!("total cycles: {}", run.stats.total_cycles());
//!
//! // …or a served request stream, batched and dispatched across the pool.
//! let ticks = arrivals::bursts(4, 2, 1_000_000);
//! let inputs = (0..4).map(|i| deployment.prepare(&rng::synthetic_image(3, 32, 32, i))).collect();
//! let policy = Policy::new(4, 0)?;
//! let requests = Request::stream(&ticks, inputs)?;
//! let report = deployment.serve(policy, DispatchPolicy::LeastLoaded, requests)?;
//! assert_eq!(report.serve.responses.len(), 4);
//! # Ok::<(), edea::Error>(())
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

mod deploy;
mod error;

pub use edea_core as core;
pub use edea_dse as dse;
pub use edea_fixed as fixed;
pub use edea_nn as nn;
pub use edea_tensor as tensor;

pub use deploy::{Deployment, DeploymentBuilder};
pub use edea_core::pool;
pub use edea_core::serve;
pub use edea_core::telemetry;
pub use edea_core::{Edea, EdeaConfig};
pub use edea_nn::workload::mobilenet_v1_cifar10;
pub use error::Error;
