//! Plan-time race auditor: proves the memory side of the determinism
//! contract **before any thread runs**.
//!
//! The parallel portion loop of `execute_layer` is race-free by
//! construction: portions tile the ofmap disjointly, each lane owns a
//! contiguous portion range ([`par::chunk_ranges`]) and with it a disjoint
//! window of the per-`(portion, image)` mid/out slot arrays, and every
//! lane works in private scratch. The `par` module *states* that contract
//! and the `parallel_identity` suite observes it after the fact; this
//! module proves it ahead of time, the same way the paper's schedule makes
//! buffer conflicts impossible by construction rather than detected at
//! runtime:
//!
//! 1. **Write-set disjointness** — each portion's paste window is lowered
//!    to row-major ofmap index intervals; a sort-and-scan proves every
//!    pair of intervals (hence every pair of lanes) disjoint.
//! 2. **Exact coverage** — the interval union is exactly `[0, out²)`:
//!    no ofmap pixel is written twice, none is left unwritten.
//! 3. **Slot partition** — the per-lane windows of the flat
//!    `(portion, image)` slot arrays are contiguous, disjoint and cover
//!    every slot, so the `split_slots` borrow split cannot panic or
//!    misattribute a slot.
//! 4. **Capacity bounds** — every buffer residency the portion loop holds
//!    (psum banks per in-flight image, the halo'd ifmap slice, weight and
//!    parameter slices) fits its configured capacity. This proof is
//!    [`crate::buffer::check_capacity`], the same function `execute_layer`
//!    runs before every portion loop, so the audit and a run raise the
//!    identical error.
//!
//! Race and coverage violations surface as [`CoreError::InvalidConfig`]
//! naming the offending `(layer, portion, lane)` triple; capacity
//! violations surface as [`CoreError::BufferOverflow`] naming the buffer.
//! `execute_layer` runs the audit under `debug_assertions` on the exact
//! portion list and lane count it is about to fork; release builds and
//! long-lived deployments run it once up front via `Edea::audit_plan`.

use edea_nn::workload::LayerShape;

use crate::config::EdeaConfig;
use crate::par::{self, Parallelism};
use crate::schedule::{check_layer_geometry, portions, Portion};
use crate::CoreError;

/// Summary of one layer's successful audit — every proof listed in the
/// module docs passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerAudit {
    /// Layer index within its network.
    pub layer: usize,
    /// Portions the schedule splits this layer's ofmap into.
    pub portions: usize,
    /// Lanes the portion loop would fork (after clamping to the portion
    /// count).
    pub lanes: usize,
    /// Row-major ofmap index intervals proven pairwise disjoint.
    pub intervals: usize,
    /// Worst-case psum residency the batch will reserve, in bytes.
    pub psum_peak_bytes: usize,
}

/// A race/coverage violation, pinned to its `(layer, portion, lane)`.
fn violation(layer: usize, portion: usize, lane: usize, what: &str) -> CoreError {
    CoreError::InvalidConfig {
        detail: format!("plan audit: layer {layer}, portion {portion}, lane {lane}: {what}"),
    }
}

/// Audits an explicit portion list against `lanes` lanes and `n_images`
/// in-flight images — the low-level entry the injected-violation tests
/// drive with hand-built (deliberately broken) portion plans.
/// [`audit_layer`] wraps it with the real schedule.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] naming the offending
/// `(layer, portion, lane)` on a race, bounds or coverage violation;
/// [`CoreError::BufferOverflow`] naming the buffer on a capacity
/// violation.
pub fn audit_portions(
    shape: &LayerShape,
    cfg: &EdeaConfig,
    ports: &[Portion],
    lanes: usize,
    n_images: usize,
) -> Result<LayerAudit, CoreError> {
    let layer = shape.index;
    if ports.is_empty() || lanes == 0 || n_images == 0 {
        return Err(violation(
            layer,
            0,
            0,
            "audit requires at least one portion, one lane and one image",
        ));
    }
    let out = shape.out_spatial();

    // Proof 3 — slot partition. The portion loop hands lane `i` the slot
    // window `ranges[i].start*n_images .. ranges[i].end*n_images`; prove
    // the windows are contiguous, in order, and cover every slot, so the
    // `split_slots` split is total and one-writer-per-slot holds.
    let ranges = par::chunk_ranges(ports.len(), lanes);
    let mut expect_start = 0usize;
    for (lane, range) in ranges.iter().enumerate() {
        if range.start != expect_start || range.end < range.start {
            return Err(violation(
                layer,
                range.start.min(ports.len().saturating_sub(1)),
                lane,
                "lane portion ranges are not a contiguous in-order partition",
            ));
        }
        expect_start = range.end;
    }
    if expect_start != ports.len() {
        return Err(violation(
            layer,
            ports.len() - 1,
            lanes - 1,
            "lane portion ranges do not cover every portion",
        ));
    }
    // Which lane will run each portion — for attributing violations.
    let mut lane_of = vec![0usize; ports.len()];
    for (lane, range) in ranges.iter().enumerate() {
        for p in range.clone() {
            lane_of[p] = lane;
        }
    }

    // Proofs 1 + 2 — write sets as row-major ofmap index intervals. Each
    // portion's paste window contributes one interval per ofmap row; the
    // mid and out maps (and every channel and image) share the same
    // spatial footprint, so disjointness here is disjointness of every
    // lane's full write set.
    // (start, end, portion); sized up front — the audit runs inside
    // debug-mode layer executions, where the allocation-regression guard
    // budgets every warm-run allocation.
    let mut intervals: Vec<(usize, usize, usize)> =
        Vec::with_capacity(ports.iter().map(|p| p.rows).sum());
    for (p, portion) in ports.iter().enumerate() {
        if portion.rows == 0 || portion.cols == 0 {
            return Err(violation(layer, p, lane_of[p], "portion is empty"));
        }
        if portion.row0 + portion.rows > out || portion.col0 + portion.cols > out {
            return Err(violation(
                layer,
                p,
                lane_of[p],
                "portion paste window writes outside the ofmap",
            ));
        }
        for r in 0..portion.rows {
            let start = (portion.row0 + r) * out + portion.col0;
            intervals.push((start, start + portion.cols, p));
        }
    }
    intervals.sort_unstable();
    let mut covered = 0usize;
    let mut prev_end = 0usize;
    let mut prev_portion = 0usize;
    for &(start, end, p) in &intervals {
        if start < prev_end && p != prev_portion {
            let what = format!(
                "write set overlaps portion {prev_portion} (lane {}) on ofmap indices \
                 {start}..{prev_end}",
                lane_of[prev_portion]
            );
            return Err(violation(layer, p, lane_of[p], &what));
        }
        if start < prev_end {
            return Err(violation(
                layer,
                p,
                lane_of[p],
                "portion write set overlaps itself",
            ));
        }
        covered += end - start;
        prev_end = end;
        prev_portion = p;
    }
    if covered != out * out {
        // Attribute the first gap to the portion whose interval follows it
        // (the schedule that should have started earlier); a gap at the
        // very end falls to the last portion.
        let mut expect = 0usize;
        let mut p = ports.len() - 1;
        for &(start, end, portion) in &intervals {
            if start > expect {
                p = portion;
                break;
            }
            expect = expect.max(end);
        }
        let what = format!(
            "portions cover {covered} of {} ofmap pixels; first unwritten index {expect}",
            out * out
        );
        return Err(violation(layer, p, lane_of[p], &what));
    }

    // Proof 4 — capacity bounds: the same check `execute_layer` runs
    // before its portion loop.
    let psum_required = crate::buffer::check_capacity(shape, cfg, ports, n_images)?;

    Ok(LayerAudit {
        layer,
        portions: ports.len(),
        lanes,
        intervals: intervals.len(),
        psum_peak_bytes: psum_required,
    })
}

/// Audits one layer's real schedule: the portion list
/// [`portions`] produces and the lane count the portion loop would fork
/// under `par` (clamped exactly as `execute_layer` clamps it).
///
/// # Errors
///
/// As [`audit_portions`]; additionally [`CoreError::UnsupportedShape`] if
/// the layer does not map onto the engine geometry.
pub fn audit_layer(
    shape: &LayerShape,
    cfg: &EdeaConfig,
    par: Parallelism,
    n_images: usize,
) -> Result<LayerAudit, CoreError> {
    check_layer_geometry(shape, cfg)?;
    let ports = portions(shape.out_spatial(), cfg.portion_limit);
    let lanes = par.threads().min(ports.len()).max(1);
    audit_portions(shape, cfg, &ports, lanes, n_images)
}

/// Audits every layer of a shape stack (e.g. a width-scaled MobileNet from
/// `edea_nn::workload::scale_width`) — the whole-network proof the
/// `plan_audit` bench binary reports.
///
/// # Errors
///
/// The first failing layer's error, as [`audit_layer`].
pub fn audit_network(
    shapes: &[LayerShape],
    cfg: &EdeaConfig,
    par: Parallelism,
    n_images: usize,
) -> Result<Vec<LayerAudit>, CoreError> {
    shapes
        .iter()
        .map(|s| audit_layer(s, cfg, par, n_images))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edea_nn::workload::{mobilenet_v1_cifar10, scale_width};

    fn cfg() -> EdeaConfig {
        EdeaConfig::paper()
    }

    fn threads(n: usize) -> Parallelism {
        Parallelism::new(n).unwrap()
    }

    #[test]
    fn every_mobilenet_layer_passes_at_all_widths_and_lane_counts() {
        for width in [0.25, 0.5, 0.75, 1.0] {
            let shapes = scale_width(&mobilenet_v1_cifar10(), width, 8).unwrap();
            for n in [1usize, 2, 4, 8] {
                for batch in [1usize, 4] {
                    let audits = audit_network(&shapes, &cfg(), threads(n), batch)
                        .unwrap_or_else(|e| panic!("width {width} lanes {n}: {e}"));
                    assert_eq!(audits.len(), shapes.len());
                }
            }
        }
    }

    #[test]
    fn every_mobilenet_v2_stage_passes_the_proofs() {
        // The generalized workload: 17 inverted-residual stages, PwcOnly
        // expansions included.
        use edea_nn::workload::mobilenet_v2_cifar10;
        let shapes = scale_width(&mobilenet_v2_cifar10(), 0.25, 16).unwrap();
        for n in [1usize, 4] {
            let audits = audit_network(&shapes, &cfg(), threads(n), 2)
                .unwrap_or_else(|e| panic!("v2 lanes {n}: {e}"));
            assert_eq!(audits.len(), shapes.len());
        }
    }

    #[test]
    fn full_width_v2_expansions_overflow_the_paper_psum_budget() {
        // At width 1.0 the 6× expand stages hold up to 576 kernels over an
        // 8×8 portion — 147 456 bytes of psum against the paper's 64 KiB.
        // The audit proves the overflow ahead of time, naming the buffer,
        // instead of failing mid-run.
        use edea_nn::workload::mobilenet_v2_cifar10;
        let err = audit_network(&mobilenet_v2_cifar10(), &cfg(), threads(1), 1).unwrap_err();
        assert!(
            matches!(err, CoreError::BufferOverflow { buffer: "psum", .. }),
            "{err:?}"
        );
    }

    #[test]
    fn audit_matches_the_real_schedule_shape() {
        let shapes = mobilenet_v1_cifar10();
        let a = audit_layer(&shapes[0], &cfg(), threads(4), 1).unwrap();
        let ports = portions(shapes[0].out_spatial(), cfg().portion_limit);
        assert_eq!(a.portions, ports.len());
        assert_eq!(a.lanes, 4.min(ports.len()));
        assert_eq!(a.intervals, ports.iter().map(|p| p.rows).sum::<usize>());
    }

    /// The injected-violation test: a hand-built portion plan in which
    /// portions 1 and 2 (on different lanes) overlap must be rejected with
    /// the offending `(layer, portion, lane)` triple.
    #[test]
    fn overlapping_portions_are_rejected_with_the_offending_triple() {
        let shape = &mobilenet_v1_cifar10()[1]; // 16×16 ofmap, layer 1
        let out = shape.out_spatial();
        assert_eq!(out, 16);
        let half = out / 2;
        let mut ports = vec![
            Portion {
                row0: 0,
                col0: 0,
                rows: half,
                cols: out,
            },
            Portion {
                row0: half,
                col0: 0,
                rows: half,
                cols: half,
            },
            Portion {
                row0: half,
                col0: half,
                rows: half,
                cols: half,
            },
        ];
        // Sound plan first: 3 portions over 2 lanes pass.
        audit_portions(shape, &cfg(), &ports, 2, 1).unwrap();
        // Shift portion 2 one column left: it now overwrites portion 1's
        // rightmost column. chunk_ranges(3, 2) = [0..2, 2..3], so portion
        // 2 is lane 1 and portion 1 is lane 0 — a true cross-lane race.
        ports[2].col0 = half - 1;
        let err = audit_portions(shape, &cfg(), &ports, 2, 1).unwrap_err();
        let CoreError::InvalidConfig { detail } = &err else {
            panic!("expected InvalidConfig, got {err:?}");
        };
        assert!(
            detail.contains("layer 1, portion 2, lane 1"),
            "triple missing: {detail}"
        );
        assert!(detail.contains("portion 1 (lane 0)"), "{detail}");
    }

    #[test]
    fn coverage_gaps_and_out_of_bounds_windows_are_rejected() {
        let shape = &mobilenet_v1_cifar10()[1];
        let out = shape.out_spatial();
        let half = out / 2;
        // Leave the bottom half unwritten.
        let top = vec![Portion {
            row0: 0,
            col0: 0,
            rows: half,
            cols: out,
        }];
        let err = audit_portions(shape, &cfg(), &top, 1, 1).unwrap_err();
        assert!(
            matches!(&err, CoreError::InvalidConfig { detail } if detail.contains("unwritten")),
            "{err:?}"
        );
        // A window past the ofmap edge.
        let wide = vec![Portion {
            row0: 0,
            col0: 0,
            rows: out,
            cols: out + 1,
        }];
        let err = audit_portions(shape, &cfg(), &wide, 1, 1).unwrap_err();
        assert!(
            matches!(&err, CoreError::InvalidConfig { detail } if detail.contains("outside")),
            "{err:?}"
        );
    }

    #[test]
    fn capacity_violations_name_the_runtime_buffer() {
        let shape = &mobilenet_v1_cifar10()[3]; // the psum-worst layer
        let mut c = cfg();
        c.psum_buf_bytes = 8 * 8 * shape.k_out * 4 - 4; // one word short
        let err = audit_layer(shape, &c, threads(1), 2).unwrap_err();
        assert!(
            matches!(err, CoreError::BufferOverflow { buffer: "psum", .. }),
            "{err:?}"
        );
        let mut c = cfg();
        c.ifmap_buf_bytes = 16; // cannot hold any halo'd slice
        let err = audit_layer(shape, &c, threads(1), 1).unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::BufferOverflow {
                    buffer: "dwc_ifmap",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn audit_is_lane_count_invariant_for_sound_plans() {
        // The proofs hold for any lane count the clamp can produce —
        // oversubscription (more lanes than portions) included, because
        // audit_layer clamps exactly as execute_layer does.
        let shapes = mobilenet_v1_cifar10();
        let deep = &shapes[12]; // 2×2 ofmap: one portion
        for n in [1usize, 2, 64] {
            let a = audit_layer(deep, &cfg(), threads(n), 1).unwrap();
            assert_eq!(a.lanes, 1, "clamped to the single portion");
        }
    }
}
