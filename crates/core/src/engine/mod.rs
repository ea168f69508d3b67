//! The two convolution engines (paper Fig. 5).
//!
//! Both engines are *bit-exact* datapath models: given the same int8 tiles
//! the RTL would see, they produce the accumulator values the adder trees
//! would produce, plus the activity statistics (zero-operand counts) the
//! power model consumes.
//!
//! Each engine has one entry, its **portion kernel**: one call covers
//! many modeled engine cycles — the DWC every spatial tile of a portion
//! for one channel pass, the PWC every channel pass, spatial tile and
//! kernel tile of a portion — and a single cycle is the call at the
//! extent of one tile. The kernel's [`EngineActivity`] is exactly the sum
//! of the per-cycle activities of the tiles it covers, so modeled cycles
//! and host calls are decoupled without moving any modeled number.
//!
//! # Layout rule
//!
//! The datapath keeps two layouts, and one place turns one into the other:
//!
//! - **i32 accumulators are pixel-major**, `(pixels, channels)`: the DWC
//!   writes each output pixel's channel block contiguously, and a psum
//!   bank holds each pixel's `K` sums in one row the PWC accumulates into.
//! - **int8 maps are channel-major**, `(channels, rows, cols)`: layer
//!   inputs and outputs, the intermediate slab the PWC reads, and the
//!   saved residual inputs.
//! - **The Non-Conv unit turns one into the other**
//!   ([`crate::nonconv::NonConvUnit::apply`]): it maps pixel-major
//!   accumulators to a channel-major int8 slab, on the DWC→PWC path and
//!   at the psum drain alike. No other code transposes activations.

mod dwc;
mod pwc;

pub use dwc::DwcEngine;
pub use pwc::PwcEngine;

/// A weight slice handed to a portion kernel, with its zero count: the
/// engines report zero-weight slots as `zeros × pixels`, so the count is
/// taken once — at plan time for [`crate::plan::LayerPlan`]'s slices —
/// instead of per engine call.
#[derive(Debug, Clone, Copy)]
pub struct WeightSlice<'a> {
    values: &'a [i8],
    zeros: u64,
}

impl<'a> WeightSlice<'a> {
    /// Wraps `values`, counting its zeros.
    #[must_use]
    pub fn new(values: &'a [i8]) -> Self {
        Self {
            values,
            zeros: count_zeros(values),
        }
    }

    /// Wraps `values` with a precomputed zero count.
    pub(crate) fn with_zeros(values: &'a [i8], zeros: u64) -> Self {
        debug_assert_eq!(zeros, count_zeros(values), "stale zero count");
        Self { values, zeros }
    }

    /// The weights.
    #[must_use]
    pub fn values(&self) -> &'a [i8] {
        self.values
    }

    /// How many of the weights are zero.
    #[must_use]
    pub fn zeros(&self) -> u64 {
        self.zeros
    }
}

/// Number of zero bytes in an int8 run.
pub(crate) fn count_zeros(values: &[i8]) -> u64 {
    values.iter().map(|&v| u64::from(v == 0)).sum()
}

/// Activity statistics of one engine invocation.
///
/// `mac_slots` counts every multiplier slot exercised (the engines always
/// run fully parallel — 100 % PE utilization); `zero_act_slots` counts slots
/// whose activation operand was zero, which clock-gate their multiplier in
/// the silicon and therefore consume almost no dynamic energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineActivity {
    /// Multiplier slots exercised.
    pub mac_slots: u64,
    /// Slots with a zero activation operand (gated).
    pub zero_act_slots: u64,
    /// Slots with a zero weight operand.
    pub zero_weight_slots: u64,
}

impl EngineActivity {
    /// Merges another activity record into this one.
    pub fn merge(&mut self, other: &EngineActivity) {
        self.mac_slots += other.mac_slots;
        self.zero_act_slots += other.zero_act_slots;
        self.zero_weight_slots += other.zero_weight_slots;
    }

    /// Fraction of slots gated by zero activations.
    #[must_use]
    pub fn gating_fraction(&self) -> f64 {
        if self.mac_slots == 0 {
            return 0.0;
        }
        self.zero_act_slots as f64 / self.mac_slots as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = EngineActivity {
            mac_slots: 10,
            zero_act_slots: 3,
            zero_weight_slots: 1,
        };
        a.merge(&EngineActivity {
            mac_slots: 5,
            zero_act_slots: 2,
            zero_weight_slots: 0,
        });
        assert_eq!(a.mac_slots, 15);
        assert_eq!(a.zero_act_slots, 5);
        assert_eq!(a.zero_weight_slots, 1);
    }

    #[test]
    fn gating_fraction_handles_empty() {
        assert_eq!(EngineActivity::default().gating_fraction(), 0.0);
        let a = EngineActivity {
            mac_slots: 4,
            zero_act_slots: 1,
            zero_weight_slots: 0,
        };
        assert_eq!(a.gating_fraction(), 0.25);
    }
}
