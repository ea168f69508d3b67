//! Energy / power model (paper Figs. 9, 11, 12).
//!
//! Architectural power modeling in the Accelergy/Timeloop tradition: each
//! action (an active MAC, a gated MAC, a byte moved per memory level, a
//! Non-Conv op) carries an energy constant; the functional simulator's
//! activity counts turn those into per-layer energy, and dividing by the
//! latency gives power. Zero activations clock-gate their multipliers —
//! this is what makes power fall as sparsity rises (Fig. 11) and energy
//! efficiency peak at the sparse layer 10 (Fig. 12).
//!
//! Two parameter sets are provided:
//!
//! * [`EnergyModel::physical_22nm`] — first-principles per-action energies
//!   for a 22 nm node; reproduces the *shape* of Figs. 11/12 from scratch.
//! * [`EnergyModel::calibrate`] — a non-negative least-squares fit of the
//!   datapath/memory coefficients to the paper's 13 per-layer power points
//!   (the standard way architectural models are anchored to silicon).

use crate::config::EdeaConfig;
use crate::schedule::WeightResidency;
use crate::stats::{LayerStats, NetworkStats};

/// Per-action energy constants (pJ) and constant power terms (mW).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Energy per active DWC MAC (pJ).
    pub e_mac_dwc_pj: f64,
    /// Energy per active PWC MAC (pJ).
    pub e_mac_pwc_pj: f64,
    /// Fraction of MAC energy saved when the activation operand is zero.
    pub gating: f64,
    /// Energy per Non-Conv op (Q8.16 multiply-add + round + clip) (pJ).
    pub e_nonconv_pj: f64,
    /// Energy per on-chip SRAM byte (weight/ifmap/offline buffers) (pJ).
    pub e_sram_pj_byte: f64,
    /// Energy per psum/intermediate register-file byte (pJ).
    pub e_rf_pj_byte: f64,
    /// Energy per external-interface byte charged to the chip (pJ).
    pub e_ext_pj_byte: f64,
    /// Clock-tree and control power while running (mW).
    pub p_clock_mw: f64,
    /// Leakage power (mW).
    pub p_static_mw: f64,
}

/// Power of one layer, split by component (the Fig. 9 right-hand pie).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// DWC engine (mW).
    pub dwc_mw: f64,
    /// PWC engine (mW).
    pub pwc_mw: f64,
    /// Non-Conv units (mW).
    pub nonconv_mw: f64,
    /// SRAM buffers (mW).
    pub buffers_mw: f64,
    /// Psum/intermediate register files (mW).
    pub rf_mw: f64,
    /// External interface (mW).
    pub io_mw: f64,
    /// Clock tree (mW).
    pub clock_mw: f64,
    /// Leakage (mW).
    pub static_mw: f64,
}

impl PowerBreakdown {
    /// Total power (mW).
    #[must_use]
    pub fn total_mw(&self) -> f64 {
        self.dwc_mw
            + self.pwc_mw
            + self.nonconv_mw
            + self.buffers_mw
            + self.rf_mw
            + self.io_mw
            + self.clock_mw
            + self.static_mw
    }

    /// Component shares as `(label, percent)` pairs.
    #[must_use]
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let t = self.total_mw();
        vec![
            ("pwc", 100.0 * self.pwc_mw / t),
            ("dwc", 100.0 * self.dwc_mw / t),
            ("clock", 100.0 * self.clock_mw / t),
            ("nonconv", 100.0 * self.nonconv_mw / t),
            ("buffers", 100.0 * (self.buffers_mw + self.rf_mw) / t),
            ("io", 100.0 * self.io_mw / t),
            ("static", 100.0 * self.static_mw / t),
        ]
    }
}

impl EnergyModel {
    /// First-principles per-action energies for a 22 nm node at 0.8 V
    /// (int8 MAC ≈ 0.2 pJ, SRAM ≈ 0.12 pJ/B, register file ≈ 0.03 pJ/B,
    /// chip-side external interface ≈ 0.5 pJ/B).
    #[must_use]
    pub fn physical_22nm() -> Self {
        Self {
            e_mac_dwc_pj: 0.25,
            e_mac_pwc_pj: 0.15,
            gating: 0.85,
            e_nonconv_pj: 1.5,
            e_sram_pj_byte: 0.12,
            e_rf_pj_byte: 0.03,
            e_ext_pj_byte: 0.5,
            p_clock_mw: 8.0,
            p_static_mw: 3.0,
        }
    }

    /// Macro-level constants matching the paper's accounting: the
    /// post-layout power of the accelerator macro charges buffer reads and
    /// interface toggling far less than standalone-memory models (the
    /// paper's buffers + IO slices total < 7 % of power despite a sustained
    /// 128 B/cycle weight stream). Used as the base for
    /// [`EnergyModel::calibrate`].
    #[must_use]
    pub fn macro_level_22nm() -> Self {
        Self {
            e_nonconv_pj: 0.4,
            e_sram_pj_byte: 0.02,
            e_rf_pj_byte: 0.01,
            e_ext_pj_byte: 0.05,
            p_clock_mw: 5.0,
            p_static_mw: 2.0,
            ..Self::physical_22nm()
        }
    }

    /// Active (non-gated) MAC equivalents of an engine activity record.
    fn active_macs(&self, a: &crate::engine::EngineActivity) -> f64 {
        a.mac_slots as f64 - self.gating * a.zero_act_slots as f64
    }

    /// Per-layer power breakdown.
    #[must_use]
    pub fn layer_power(&self, stats: &LayerStats, cfg: &EdeaConfig) -> PowerBreakdown {
        let lat_ns = stats.cycles as f64 * cfg.period_ns();
        // 1 pJ / 1 ns = 1 mW.
        let sram_bytes = stats.onchip.total() - stats.psum.total() - stats.intermediate.total();
        PowerBreakdown {
            dwc_mw: self.e_mac_dwc_pj * self.active_macs(&stats.dwc_activity) / lat_ns,
            pwc_mw: self.e_mac_pwc_pj * self.active_macs(&stats.pwc_activity) / lat_ns,
            nonconv_mw: self.e_nonconv_pj * stats.nonconv_ops as f64 / lat_ns,
            buffers_mw: self.e_sram_pj_byte * sram_bytes as f64 / lat_ns,
            rf_mw: self.e_rf_pj_byte * (stats.psum.total() + stats.intermediate.total()) as f64
                / lat_ns,
            io_mw: self.e_ext_pj_byte * stats.external.total() as f64 / lat_ns,
            clock_mw: self.p_clock_mw,
            static_mw: self.p_static_mw,
        }
    }

    /// Per-layer total power (mW).
    #[must_use]
    pub fn layer_power_mw(&self, stats: &LayerStats, cfg: &EdeaConfig) -> f64 {
        self.layer_power(stats, cfg).total_mw()
    }

    /// Per-layer energy efficiency in TOPS/W: `ops / (P · t)`.
    #[must_use]
    pub fn layer_efficiency_tops_w(&self, stats: &LayerStats, cfg: &EdeaConfig) -> f64 {
        let ops = 2.0 * stats.total_macs() as f64;
        let energy_pj = self.layer_power_mw(stats, cfg) * stats.cycles as f64 * cfg.period_ns();
        // ops / pJ = TOPS/W (10^12 ops per joule).
        ops / energy_pj
    }

    /// Fits the sparsity-dependent datapath coefficients (DWC/PWC MAC
    /// energies and the constant clock/leakage term) to per-layer power
    /// targets (mW) by non-negative least squares. The memory-movement and
    /// Non-Conv energies are pinned at their physical 22 nm values and
    /// subtracted from the targets first — fitting them too would let the
    /// (nearly layer-invariant) SRAM streaming term absorb variance that
    /// physically belongs to the gated MAC arrays.
    ///
    /// # Panics
    ///
    /// Panics if `stats` and `targets_mw` differ in length or are empty.
    #[must_use]
    pub fn calibrate(stats: &[LayerStats], cfg: &EdeaConfig, targets_mw: &[f64]) -> Self {
        assert_eq!(stats.len(), targets_mw.len(), "one target per layer");
        assert!(!stats.is_empty(), "need at least one layer");
        let base = Self::macro_level_22nm();
        // Features per layer: [dwc_rate, pwc_rate, 1] (columns 3..5 unused).
        let rows: Vec<[f64; 6]> = stats
            .iter()
            .map(|s| {
                let lat = s.cycles as f64 * cfg.period_ns();
                [
                    base.active_macs(&s.dwc_activity) / lat,
                    base.active_macs(&s.pwc_activity) / lat,
                    1.0,
                    0.0,
                    0.0,
                    0.0,
                ]
            })
            .collect();
        // Subtract the pinned memory/Non-Conv contributions.
        let adjusted: Vec<f64> = stats
            .iter()
            .zip(targets_mw)
            .map(|(s, &t)| {
                let b = base.layer_power(s, cfg);
                (t - b.nonconv_mw - b.buffers_mw - b.rf_mw - b.io_mw).max(0.0)
            })
            .collect();
        let coeffs = nnls(&rows, &adjusted);
        Self {
            e_mac_dwc_pj: coeffs[0],
            e_mac_pwc_pj: coeffs[1],
            p_clock_mw: coeffs[2] * 0.75,
            p_static_mw: coeffs[2] * 0.25,
            ..base
        }
    }
}

/// Non-negative least squares via iterated constrained normal equations:
/// solve, clamp negative coefficients to zero (remove the column), repeat.
fn nnls(rows: &[[f64; 6]], targets: &[f64]) -> [f64; 6] {
    let mut active = [true; 6];
    loop {
        let idx: Vec<usize> = (0..6).filter(|&j| active[j]).collect();
        let n = idx.len();
        if n == 0 {
            return [0.0; 6];
        }
        // Normal equations A^T A x = A^T b on the active columns.
        let mut ata = vec![vec![0.0f64; n]; n];
        let mut atb = vec![0.0f64; n];
        for (r, row) in rows.iter().enumerate() {
            for (i, &ji) in idx.iter().enumerate() {
                atb[i] += row[ji] * targets[r];
                for (j, &jj) in idx.iter().enumerate() {
                    ata[i][j] += row[ji] * row[jj];
                }
            }
        }
        // Tikhonov damping for numerical safety.
        for (i, row) in ata.iter_mut().enumerate() {
            row[i] += 1e-9;
        }
        let x = solve(&mut ata, &mut atb);
        let mut out = [0.0f64; 6];
        let mut any_negative = false;
        for (i, &j) in idx.iter().enumerate() {
            if x[i] < 0.0 {
                active[j] = false;
                any_negative = true;
            } else {
                out[j] = x[i];
            }
        }
        if !any_negative {
            return out;
        }
    }
}

/// Gaussian elimination with partial pivoting (consumes its inputs).
fn solve(a: &mut [Vec<f64>], b: &mut [f64]) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let mut pivot = col;
        for r in col + 1..n {
            if a[r][col].abs() > a[pivot][col].abs() {
                pivot = r;
            }
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        if diag.abs() < 1e-30 {
            continue;
        }
        for r in col + 1..n {
            let f = a[r][col] / diag;
            let (head, tail) = a.split_at_mut(r);
            let (pivot_row, row) = (&head[col], &mut tail[0]);
            for c in col..n {
                row[c] -= f * pivot_row[c];
            }
            b[r] -= f * b[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for c in col + 1..n {
            acc -= a[col][c] * x[c];
        }
        x[col] = if a[col][col].abs() < 1e-30 {
            0.0
        } else {
            acc / a[col][col]
        };
    }
    x
}

/// Builds the 13 full-size MobileNetV1 layer statistics analytically from
/// the paper sparsity profile, for a batch of `n` images with weights
/// resident across the batch (identical to per-image residency at `n = 1`)
/// — the inputs for calibrating and evaluating the power model without
/// running a full-width simulation.
///
/// # Panics
///
/// Panics if `n` is zero.
#[must_use]
pub fn paper_layer_stats(cfg: &EdeaConfig, n: usize) -> NetworkStats {
    let profile = edea_nn::sparsity::SparsityProfile::paper();
    NetworkStats {
        batch: n,
        layers: edea_nn::workload::mobilenet_v1_cifar10()
            .iter()
            .map(|l| {
                let input_zero = if l.index == 0 {
                    0.5 // stem activation sparsity
                } else {
                    profile.pwc_zero[l.index - 1]
                };
                crate::stats::synthetic_layer_stats(
                    l,
                    cfg,
                    n,
                    WeightResidency::PerBatch,
                    input_zero,
                    profile.dwc_zero[l.index],
                    profile.pwc_zero[l.index],
                )
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paperdata;

    fn cfg() -> EdeaConfig {
        EdeaConfig::paper()
    }

    fn calibrated() -> (Vec<LayerStats>, EnergyModel) {
        let stats = paper_layer_stats(&cfg(), 1).layers;
        let model = EnergyModel::calibrate(&stats, &cfg(), &paperdata::power_mw());
        (stats, model)
    }

    #[test]
    fn physical_model_lands_in_silicon_ballpark() {
        // First-principles constants must put every layer inside 30–200 mW
        // (the paper's band is 67.7–117.7 mW) with the right ordering trend.
        let stats = paper_layer_stats(&cfg(), 1).layers;
        let m = EnergyModel::physical_22nm();
        for s in &stats {
            let p = m.layer_power_mw(s, &cfg());
            assert!(p > 30.0 && p < 200.0, "layer {}: {p} mW", s.shape.index);
        }
        // Sparse late layers must be cheaper than dense early ones.
        let p1 = m.layer_power_mw(&stats[1], &cfg());
        let p12 = m.layer_power_mw(&stats[12], &cfg());
        assert!(p12 < p1, "{p12} vs {p1}");
    }

    #[test]
    fn calibrated_model_tracks_paper_power() {
        let (stats, m) = calibrated();
        let targets = paperdata::power_mw();
        let mut worst = 0.0f64;
        for (s, &t) in stats.iter().zip(&targets) {
            let p = m.layer_power_mw(s, &cfg());
            worst = worst.max((p - t).abs());
        }
        assert!(worst < 12.0, "worst per-layer residual {worst} mW");
    }

    #[test]
    fn calibrated_coefficients_are_nonnegative() {
        let (_, m) = calibrated();
        for v in [
            m.e_mac_dwc_pj,
            m.e_mac_pwc_pj,
            m.e_sram_pj_byte,
            m.e_rf_pj_byte,
            m.e_ext_pj_byte,
            m.p_clock_mw,
            m.p_static_mw,
        ] {
            assert!(v >= 0.0, "{m:?}");
        }
    }

    #[test]
    fn peak_efficiency_layer_and_value() {
        // Fig. 12: peak at layer 10, 13.43 TOPS/W.
        let (stats, m) = calibrated();
        let effs: Vec<f64> = stats
            .iter()
            .map(|s| m.layer_efficiency_tops_w(s, &cfg()))
            .collect();
        let (peak_layer, peak) = effs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert!(
            peak_layer == 10 || peak_layer == 12,
            "peak at layer {peak_layer} (paper: 10, with 12 a close second)"
        );
        assert!((peak - 13.43).abs() < 1.0, "peak {peak} vs paper 13.43");
    }

    #[test]
    fn average_efficiency_near_paper() {
        let (stats, m) = calibrated();
        let mean: f64 = stats
            .iter()
            .map(|s| m.layer_efficiency_tops_w(s, &cfg()))
            .sum::<f64>()
            / stats.len() as f64;
        assert!(
            (mean - paperdata::headline::AVG_TOPS_W).abs() < 1.0,
            "{mean}"
        );
    }

    #[test]
    fn power_decreases_with_sparsity() {
        // Fig. 11: "The power reduces as the zero percentage increases."
        // Correlation between mid-activation zero fraction and power must be
        // strongly negative.
        let (stats, m) = calibrated();
        let zs: Vec<f64> = stats.iter().map(|s| s.mid_zero).collect();
        let ps: Vec<f64> = stats.iter().map(|s| m.layer_power_mw(s, &cfg())).collect();
        let n = zs.len() as f64;
        let mz = zs.iter().sum::<f64>() / n;
        let mp = ps.iter().sum::<f64>() / n;
        let cov: f64 = zs.iter().zip(&ps).map(|(z, p)| (z - mz) * (p - mp)).sum();
        let vz: f64 = zs.iter().map(|z| (z - mz).powi(2)).sum();
        let vp: f64 = ps.iter().map(|p| (p - mp).powi(2)).sum();
        let r = cov / (vz * vp).sqrt();
        assert!(r < -0.6, "correlation {r}");
    }

    #[test]
    fn breakdown_shares_order_matches_fig9() {
        // At the peak workload: PWC > DWC among engines, PWC dominant.
        let (stats, m) = calibrated();
        let b = m.layer_power(&stats[10], &cfg());
        assert!(b.pwc_mw > b.dwc_mw);
        // The calibrated fit attributes ≥30 % to the PWC array at the peak
        // point (the paper's 66 % folds clocking/register overhead into the
        // engine blocks; our model carries those in the constant term).
        assert!(
            b.pwc_mw / b.total_mw() > 0.30,
            "PWC share {}",
            b.pwc_mw / b.total_mw()
        );
        let sum: f64 = b.shares().iter().map(|(_, v)| v).sum();
        assert!((sum - 100.0).abs() < 1e-6);
    }

    #[test]
    fn gating_reduces_power_monotonically() {
        let stats = paper_layer_stats(&cfg(), 1).layers;
        let mut low = EnergyModel::physical_22nm();
        low.gating = 0.0;
        let mut high = EnergyModel::physical_22nm();
        high.gating = 1.0;
        for s in &stats {
            assert!(high.layer_power_mw(s, &cfg()) <= low.layer_power_mw(s, &cfg()));
        }
    }

    #[test]
    fn nnls_recovers_exact_nonnegative_solution() {
        // y = 2·x0 + 0.5·x2 with noise-free rows.
        let rows: Vec<[f64; 6]> = (0..10)
            .map(|i| {
                let x = f64::from(i);
                [x, (x * 7.0) % 3.0, x * x, 0.0, 0.0, 1.0]
            })
            .collect();
        let targets: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] + 0.5 * r[2] + 3.0).collect();
        let c = nnls(&rows, &targets);
        assert!((c[0] - 2.0).abs() < 1e-6, "{c:?}");
        assert!((c[2] - 0.5).abs() < 1e-6, "{c:?}");
        assert!((c[5] - 3.0).abs() < 1e-6, "{c:?}");
    }

    #[test]
    fn nnls_clamps_negative_components() {
        // Target anti-correlates with feature 0: the fit must zero it, not
        // go negative.
        let rows: Vec<[f64; 6]> = (0..8)
            .map(|i| [f64::from(i), 0.0, 0.0, 0.0, 0.0, 1.0])
            .collect();
        let targets: Vec<f64> = (0..8).map(|i| 10.0 - f64::from(i)).collect();
        let c = nnls(&rows, &targets);
        assert_eq!(c[0], 0.0);
        assert!(c[5] > 0.0);
    }
}
