//! Fixed-point arithmetic substrate for the EDEA accelerator simulator.
//!
//! The EDEA paper's Non-Convolutional unit (Fig. 6) folds dequantization,
//! batch normalization, ReLU and requantization between the depthwise (DWC)
//! and pointwise (PWC) convolution engines into a single fixed-point affine
//! transform `y = k·x + b`, with `k` and `b` represented as **24-bit
//! fixed-point numbers with 8 integer bits and 16 fractional bits** (Q8.16).
//!
//! This crate provides the bit-exact arithmetic that the hardware would
//! perform, and nothing the datapath does not execute:
//!
//! * [`Q8x16`] — the Q8.16 type of the Non-Conv constants; cheap, `Copy`,
//!   and bit-exact.
//! * [`WideQ16`] — the wide `k·x + b` bus, drained by the Round stage
//!   ([`WideQ16::round_to_int`]) and the Clip stage
//!   ([`WideQ16::round_clip_i8`]).
//! * [`round_f64`] — the same rounding rule for the offline `f64`
//!   conversions. There is one rule, round half away from zero: the usual
//!   "add half then shift" circuit.
//! * [`sat::fits_in_bits`] — the register-width check the engine tests
//!   apply to their accumulators.
//!
//! # Example
//!
//! ```
//! use edea_fixed::Q8x16;
//!
//! // Fold BN parameters into k = 0.40625, b = -3.25 exactly:
//! let k = Q8x16::from_f64(0.40625);
//! let b = Q8x16::from_f64(-3.25);
//! // Apply y = k*x + b to an integer accumulator value x = 100,
//! // rounding to the nearest integer exactly as the RTL would:
//! let y = k.mul_int_add(100, b).round_to_int();
//! assert_eq!(y, 37); // 0.40625*100 - 3.25 = 37.375 -> 37
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Integer-only kernels: with `f32`/`f64` disallowed in crates/fixed/clippy.toml,
// this also rejects float arithmetic on values whose type is never named.
#![deny(clippy::float_arithmetic)]

mod q8_16;
mod round;
pub mod sat;

pub use q8_16::{Q8x16, WideQ16, Q8X16_FRAC_BITS, Q8X16_INT_BITS, Q8X16_TOTAL_BITS};
pub use round::round_f64;
