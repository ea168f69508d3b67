//! Register-width checks for the accelerator datapath.
//!
//! The engines accumulate int8×int8 products into width-limited registers
//! (the 19-bit DWC adder tree, the 26-bit full-depth PWC accumulator); the
//! engine tests check every accumulator value against that width.

/// Whether `value` fits in a signed `bits`-wide two's-complement register.
///
/// # Panics
///
/// Panics if `bits` is not in `2..=63`.
///
/// # Example
///
/// ```
/// use edea_fixed::sat::fits_in_bits;
///
/// assert!(fits_in_bits(127, 8));
/// assert!(fits_in_bits(-128, 8));
/// assert!(!fits_in_bits(128, 8));
/// ```
#[must_use]
pub fn fits_in_bits(value: i64, bits: u32) -> bool {
    assert!((2..=63).contains(&bits), "bit width {bits} out of range");
    let half = 1i64 << (bits - 1);
    (-half..half).contains(&value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_in_bits_boundaries() {
        assert!(fits_in_bits(32767, 16));
        assert!(!fits_in_bits(32768, 16));
        assert!(fits_in_bits(-32768, 16));
        assert!(!fits_in_bits(-32769, 16));
    }

    #[test]
    fn dwc_adder_tree_width_matches_design() {
        // 9-input int8 adder tree: the worst case 9·(−128)·(−128) fits in
        // 19 bits, inside the 24-bit bus of Fig. 6.
        assert!(fits_in_bits(9 * 128 * 128, 19));
        assert!(!fits_in_bits(9 * 128 * 128, 18));
    }

    #[test]
    fn pwc_full_depth_accumulation_fits_i32() {
        // PWC accumulates across D/Td passes: up to 128 passes of 8-deep dots
        // for MobileNetV1 (D=1024): the 1024-term int8 worst case fits in
        // 26 bits, inside an i32.
        assert!(fits_in_bits(1024 * 128 * 128, 26));
        assert!(!fits_in_bits(1024 * 128 * 128, 25));
    }
}
