//! Neural-network substrate for the EDEA accelerator simulator.
//!
//! The EDEA paper (SOCC 2024) evaluates its dual-engine depthwise-separable
//! convolution (DSC) accelerator on **MobileNetV1 trained on CIFAR-10 and
//! quantized to 8 bits with LSQ**. This crate supplies everything the
//! accelerator simulator needs from that software stack, built from scratch:
//!
//! * [`workload`] — the 13 DSC layer shapes of MobileNetV1-CIFAR10 and their
//!   MAC/parameter counts (the workload database every experiment iterates
//!   over), and [`workload::check_chain`], the one definition of a
//!   well-formed stage chain that every quantized network is built against.
//! * [`mobilenet`] — a full float MobileNetV1 model (stem + 13 DSC blocks +
//!   classifier) with deterministic synthetic parameters.
//! * [`lsq`] — an LSQ-style learned-step-size quantizer (gradient descent
//!   on the quantization objective, the inference-time essence of paper
//!   ref \[14\]), started from each pool's max-abs step.
//! * [`fold`] — the Non-Conv fold: dequantization + batch norm + ReLU +
//!   requantization collapsed into `y = k·x + b` with Q8.16 constants
//!   (paper Fig. 6).
//! * [`sparsity`] — shapes per-layer BN parameters so the post-ReLU zero
//!   fraction matches the trained-network profile of paper Fig. 11 (the
//!   substitution for the unavailable trained checkpoint).
//! * [`quantize`] — assembles a fully-quantized DSC network from the float
//!   model plus a calibration batch, layer by layer on the int8 path.
//! * [`executor`] — the bit-exact int8 golden executor the accelerator
//!   simulator is verified against, with per-layer activity statistics.
//!   Batched inference has no executor of its own: its reference is
//!   [`executor::run_network`] per image, so the accelerator's
//!   weight-residency batching can never change an output bit.
//!
//! # Example
//!
//! ```
//! use edea_nn::mobilenet::MobileNetV1;
//! use edea_nn::quantize::{QuantStrategy, QuantizedDscNetwork};
//! use edea_nn::sparsity::SparsityProfile;
//! use edea_tensor::rng;
//!
//! // A width-0.25 model keeps doc tests fast; the experiments use 1.0.
//! let mut model = MobileNetV1::synthetic(0.25, 42);
//! let calib = rng::synthetic_batch(2, 3, 32, 32, 7);
//! let (qnet, report) = QuantizedDscNetwork::calibrate_shaped(
//!     &mut model,
//!     &calib,
//!     &SparsityProfile::paper(),
//!     QuantStrategy::paper(),
//! )?;
//! assert_eq!(qnet.layers().len(), 13);
//! assert_eq!(report.dwc_zero.len(), 13);
//! # Ok::<(), edea_nn::NnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artifact;
mod error;
pub mod executor;
pub mod fold;
pub mod lsq;
pub mod mobilenet;
pub mod quantize;
pub mod sparsity;
pub mod workload;

pub use error::NnError;
