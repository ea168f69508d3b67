//! The functional accelerator simulator.
//!
//! [`Edea::run_layer`] executes one quantized DSC layer on the silicon's
//! schedule: portion by portion, channel pass by channel pass through the
//! DWC engine, Non-Conv unit, intermediate buffer, PWC engine and psum
//! SRAM. The host runs each `(portion, image)` as one DWC and one
//! Non-Conv call per channel pass, then one PWC call over the whole depth
//! and one drain (see `run_portion`). Its outputs are **bit-exact** with
//! `edea-nn`'s golden executor (checked in tests and again in the
//! integration suite).
//!
//! What the run counts is only what depends on the data: the engines'
//! MAC, zero-activation and zero-weight slots, and the zero fractions of
//! the input, intermediate and output maps. Every cycle and byte count of
//! the tile-by-tile hardware depends only on the layer shape and comes
//! from the traffic ledger ([`crate::stats::layer_ledger`]); whether the
//! buffers can hold the schedule is checked once per layer, before the
//! portion loop ([`crate::buffer::check_capacity`]).
//!
//! [`Edea::run_batch`] runs a whole batch of images through the batched
//! loop nest of [`crate::schedule`]: weight tiles are fetched from
//! external memory once per batch instead of once per image, so the
//! external weight traffic per image falls as `1/N` while outputs stay
//! bit-identical to the per-image path. [`Edea::run_network`] is the
//! batch-of-one, per-image-residency case of the same network loop, which
//! the serving session ([`crate::serve::SimulatorBackend`]) runs through
//! its cached plan and scratch.
//!
//! Every entry point reports the same statistics record: one
//! [`LayerStats`] per layer, or a [`NetworkStats`] per network, holding
//! batch totals plus the batch size. A single image is `batch = 1`, so
//! single-image and batched runs differ only in how many outputs they
//! return, never in the type of their statistics.

use edea_fixed::Q8x16;
use edea_nn::quantize::{QuantizedDscLayer, QuantizedDscNetwork};
use edea_nn::workload::StageOp;
use edea_tensor::{Batch, Tensor3};

use crate::buffer::check_capacity;
use crate::config::EdeaConfig;
use crate::engine::{count_zeros, DwcEngine, EngineActivity, PwcEngine};
use crate::nonconv::{NonConvUnit, Residual};
use crate::par::{self, Parallelism};
use crate::plan::{LayerPlan, NetworkPlan};
use crate::schedule::{portions, Portion, WeightResidency};
use crate::scratch::{PortionSlot, TileScratch};
use crate::stats::{layer_ledger, LayerStats, NetworkStats};
use crate::CoreError;

/// Result of running one layer.
#[derive(Debug, Clone)]
pub struct LayerRun {
    /// The int8 layer output (after the output-side Non-Conv).
    pub output: Tensor3<i8>,
    /// The reconstructed intermediate map (PWC input) — never leaves the
    /// chip in hardware; exposed for verification.
    pub pwc_input: Tensor3<i8>,
    /// Execution statistics.
    pub stats: LayerStats,
}

/// Result of running a full network.
#[derive(Debug, Clone)]
pub struct NetworkRun {
    /// Final feature map.
    pub output: Tensor3<i8>,
    /// Per-layer statistics.
    pub stats: NetworkStats,
}

/// Result of running one layer over a batch.
#[derive(Debug, Clone)]
pub struct BatchLayerRun {
    /// Per-image int8 layer outputs, in batch order.
    pub outputs: Vec<Tensor3<i8>>,
    /// Per-image intermediate maps (PWC inputs), for verification.
    pub pwc_inputs: Vec<Tensor3<i8>>,
    /// Whole-batch execution statistics.
    pub stats: LayerStats,
}

/// Result of running a full network over a batch.
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// Final feature maps, one per image.
    pub outputs: Batch<i8>,
    /// Per-layer whole-batch statistics.
    pub stats: NetworkStats,
}

/// Splits the flat `(portion, image)` slot array into disjoint per-lane
/// `&mut` slices: lane `i` owns the slots of its portion range
/// `ranges[i]`, scaled by `per` slots per portion. The borrow checker then
/// enforces the one-writer-per-slot rule of [`crate::par`] at compile
/// time.
fn split_slots<'a, T>(
    mut slots: &'a mut [T],
    ranges: &[std::ops::Range<usize>],
    per: usize,
) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    for range in ranges {
        let (head, tail) = slots.split_at_mut(range.len() * per);
        out.push(head);
        slots = tail;
    }
    out
}

/// Per-portion engine activity, accumulated lane-locally by the portion
/// loop and merged in lane order afterwards. Every field is an exact
/// counter sum, so the fixed-order merge reproduces the serial totals bit
/// for bit.
#[derive(Debug, Default)]
struct PortionTally {
    dwc_activity: EngineActivity,
    pwc_activity: EngineActivity,
}

impl PortionTally {
    fn merge(&mut self, other: &Self) {
        self.dwc_activity.merge(&other.dwc_activity);
        self.pwc_activity.merge(&other.pwc_activity);
    }
}

/// The EDEA accelerator.
#[derive(Debug, Clone)]
pub struct Edea {
    cfg: EdeaConfig,
    dwc: DwcEngine,
    pwc: PwcEngine,
    nonconv: NonConvUnit,
    par: Parallelism,
}

impl Edea {
    /// Builds an accelerator, validating the configuration.
    ///
    /// Host parallelism defaults to [`Parallelism::from_env`]
    /// (`EDEA_THREADS`, else serial); override with
    /// [`Edea::with_parallelism`].
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] from [`EdeaConfig::validate`].
    pub fn new(cfg: EdeaConfig) -> Result<Self, CoreError> {
        cfg.validate()?;
        let dwc = DwcEngine::new(&cfg);
        let pwc = PwcEngine::new(&cfg);
        let (par, par_warning) = Parallelism::from_env_checked();
        if let Some(w) = &par_warning {
            Parallelism::warn_env_once(w);
        }
        Ok(Self {
            cfg,
            dwc,
            pwc,
            nonconv: NonConvUnit,
            par,
        })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &EdeaConfig {
        &self.cfg
    }

    /// The host-parallelism knob for the portion loop.
    #[must_use]
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// Sets the host thread count for the portion loop. This is a
    /// host-simulation knob, not an architecture parameter: any setting
    /// produces bit-identical outputs and statistics (see [`crate::par`]
    /// for the contract).
    #[must_use]
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.set_parallelism(par);
        self
    }

    /// In-place variant of [`Edea::with_parallelism`].
    pub fn set_parallelism(&mut self, par: Parallelism) {
        self.par = par;
    }

    fn check_layer(&self, layer: &QuantizedDscLayer, input: &Tensor3<i8>) -> Result<(), CoreError> {
        let s = layer.shape();
        if input.shape() != (s.d_in, s.in_spatial, s.in_spatial) {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "layer {} expects input ({}, {}, {}), got {:?}",
                    s.index,
                    s.d_in,
                    s.in_spatial,
                    s.in_spatial,
                    input.shape()
                ),
            });
        }
        crate::schedule::check_layer_geometry(&s, &self.cfg)
    }

    /// Builds the pre-sliced weight plan of a whole network on this
    /// accelerator's tile geometry — the cache a long-lived session builds
    /// once so repeated requests stop re-slicing weights (see
    /// [`crate::serve::SimulatorBackend`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if any layer does not map onto the
    /// engine geometry.
    pub fn plan_network(&self, net: &QuantizedDscNetwork) -> Result<NetworkPlan, CoreError> {
        NetworkPlan::new(net, &self.cfg)
    }

    /// Runs the plan-time race audit ([`crate::plan::audit`]) over every
    /// layer of `plan` for a batch of `batch` in-flight images: write-set
    /// disjointness across lanes, exact ofmap coverage, the per-lane slot
    /// partition and all buffer-capacity bounds, at this accelerator's
    /// [`Edea::parallelism`]. A long-lived deployment calls this once up
    /// front; every layer execution re-runs the capacity check, and debug
    /// builds additionally re-prove the race proofs.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] naming the offending
    /// `(layer, portion, lane)` triple on a race or coverage violation;
    /// [`CoreError::BufferOverflow`] naming the buffer on a capacity
    /// violation.
    pub fn audit_plan(
        &self,
        plan: &NetworkPlan,
        batch: usize,
    ) -> Result<Vec<crate::plan::audit::LayerAudit>, CoreError> {
        plan.layers()
            .iter()
            .map(|lp| crate::plan::audit::audit_layer(lp.shape(), &self.cfg, self.par, batch))
            .collect()
    }

    /// Runs one quantized DSC layer.
    ///
    /// Thin wrapper over the planned path: slices the layer's weights into
    /// a throwaway [`LayerPlan`] and runs with a fresh [`TileScratch`].
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedShape`] if the layer does not map onto the
    /// engine geometry (channels/kernels must be multiples of `Td`/`Tk`,
    /// output size a multiple of `Tn`); [`CoreError::BufferOverflow`] if a
    /// buffer capacity would be exceeded.
    pub fn run_layer(
        &self,
        layer: &QuantizedDscLayer,
        input: &Tensor3<i8>,
    ) -> Result<LayerRun, CoreError> {
        let plan = LayerPlan::new(layer, &self.cfg)?;
        let mut scratch = TileScratch::new();
        let mut run = self.execute_layer(
            layer,
            &plan,
            std::slice::from_ref(input),
            None,
            WeightResidency::PerImage,
            &mut scratch,
            true,
        )?;
        #[expect(clippy::expect_used, reason = "from_ref put exactly one image in")]
        let output = run.outputs.pop().expect("one image in, one image out");
        #[expect(clippy::expect_used, reason = "from_ref put exactly one image in")]
        let pwc_input = run.pwc_inputs.pop().expect("one image in, one image out");
        Ok(LayerRun {
            output,
            pwc_input,
            stats: run.stats,
        })
    }

    /// Runs one layer over a batch of images through a caller-held
    /// [`LayerPlan`] and [`TileScratch`] — the zero-setup-cost variant the
    /// per-layer benchmarks and the allocation-regression tests use.
    ///
    /// Under [`WeightResidency::PerBatch`] weight tiles stay resident
    /// across the batch (the batched loop nest of [`crate::schedule`]):
    /// external weight and offline-parameter fetches are paid once, ifmap
    /// reads and ofmap writes once per image, and the psum SRAM holds one
    /// residency per in-flight image. Per-image outputs are
    /// **bit-identical** to [`Edea::run_layer`] under either residency —
    /// batching changes when weights are fetched, never what is computed.
    ///
    /// # Errors
    ///
    /// As [`Edea::run_layer`], checked per image, and for an empty batch;
    /// [`CoreError::BufferOverflow`] if the `batch×`-provisioned psum SRAM
    /// cannot hold every in-flight image's portion psums;
    /// [`CoreError::UnsupportedShape`] if `plan` was built for a different
    /// layer.
    pub fn run_layer_planned(
        &self,
        layer: &QuantizedDscLayer,
        plan: &LayerPlan,
        inputs: &[Tensor3<i8>],
        residency: WeightResidency,
        scratch: &mut TileScratch,
    ) -> Result<BatchLayerRun, CoreError> {
        plan.check_layer(layer)?;
        self.execute_layer(layer, plan, inputs, None, residency, scratch, true)
    }

    /// One portion of the layer schedule, one image at a time: the
    /// intermediate slab, one PWC sweep and the drain — writing
    /// **portion-local** intermediate and output maps and their zero
    /// counts into `slots` (one per image) and summing engine activity
    /// into the caller's `tally`. A residual-add stage passes its saved
    /// block inputs with the already-checked rescale.
    ///
    /// Each image is `2·D/Td + 2` host calls whatever the portion's size.
    /// Per channel pass, one DWC portion kernel, which reads the unpadded
    /// input in place and zero-fills the halo as it stages the window, and
    /// one Non-Conv #1 straight into the mid slot's channel slab (a
    /// `PwcOnly` stage copies its whole `D`-deep window instead). Then one
    /// PWC call over the whole slab — every channel pass × spatial tile ×
    /// kernel tile — into the psum bank, and one Non-Conv #2 drain of the
    /// bank as it stands. One modeled engine cycle is one spatial tile
    /// (DWC) or one channel pass × spatial tile × kernel tile (PWC); the
    /// kernels cover all of their cycles at once and their activity is the
    /// exact per-cycle sum, so the hardware's pass-major order need not be
    /// followed. The weight and ifmap loads, buffer transfers and psum
    /// read-modify-writes are not counted here: they depend only on the
    /// shape and come from the ledger.
    ///
    /// This is the unit the parallel portion loop distributes across
    /// lanes: a portion touches only its own output rectangle, its lane's
    /// scratch and its lane's tally, so any static partition of portions
    /// is race-free by construction, and every count it produces is a
    /// pure function of the portion alone (identical in any lane).
    #[expect(
        clippy::too_many_arguments,
        reason = "a portion borrows shared plan state and lane-private scratch, slots and tally apart"
    )]
    fn run_portion(
        &self,
        layer: &QuantizedDscLayer,
        plan: &LayerPlan,
        inputs: &[Tensor3<i8>],
        residual: Option<(&[Tensor3<i8>], Q8x16)>,
        portion: &Portion,
        scratch: &mut TileScratch,
        slots: &mut [PortionSlot],
        tally: &mut PortionTally,
    ) -> Result<(), CoreError> {
        let s = layer.shape();
        let td = self.cfg.tile.td;
        let pix = portion.pixels();
        // The drain's clip floor is the layer's (0 for a folded ReLU,
        // −128 for the linear project of an inverted-residual block).
        let lo = layer.out_lo();

        for (img, (input, slot)) in inputs.iter().zip(slots.iter_mut()).enumerate() {
            // Every channel pass writes its own slab, so no zero-fill.
            slot.mid
                .resize_for_overwrite(s.d_in, portion.rows, portion.cols);
            slot.mid_zeros = match s.op {
                StageOp::Dsc => {
                    let mut zeros = 0;
                    let slabs = slot.mid.as_mut_slice().chunks_exact_mut(td * pix);
                    for (ct, slab) in slabs.enumerate() {
                        let act = self.dwc.compute_portion_into(
                            input,
                            ct * td,
                            plan.dw_slice(ct),
                            portion,
                            s.stride,
                            s.pad,
                            &mut scratch.dwc_acc,
                        )?;
                        tally.dwc_activity.merge(&act);
                        // Non-Conv: fold to int8 and stream to the
                        // intermediate buffer (direct data transfer — no
                        // external round trip), here straight into the
                        // pass's channel slab of the portion's mid map.
                        zeros += self.nonconv.apply(
                            &scratch.dwc_acc,
                            &layer.nonconv1()[ct * td..],
                            0,
                            None,
                            slab,
                        )?;
                    }
                    zeros
                }
                // PwcOnly: the DWC engine, Non-Conv #1 and the
                // intermediate buffer are bypassed — the PWC is fed
                // straight from the ifmap buffer.
                StageOp::PwcOnly => {
                    input.copy_window_to_slice(
                        (0, portion.row0, portion.col0),
                        (s.d_in, portion.rows, portion.cols),
                        slot.mid.as_mut_slice(),
                    );
                    count_zeros(slot.mid.as_slice())
                }
            };

            // PWC: every channel pass × kernel tile × spatial tile, into
            // a fresh psum bank.
            scratch
                .psum
                .resize_zeroed(portion.rows, portion.cols, s.k_out);
            let act = self.pwc.accumulate_portion(
                &slot.mid,
                plan.pw_weights(),
                scratch.psum.as_mut_slice(),
            )?;
            tally.pwc_activity.merge(&act);

            // Drain: output-side Non-Conv and external write-back
            // (overlapped with the next portion in hardware — no cycles).
            // A residual-add stage streams the saved block input in from
            // external memory and sums it onto the Non-Conv bus at wide
            // precision.
            slot.out
                .resize_for_overwrite(s.k_out, portion.rows, portion.cols);
            let skip = residual.map(|(maps, scale)| Residual {
                map: &maps[img],
                row0: portion.row0,
                col0: portion.col0,
                scale,
            });
            slot.out_zeros = self.nonconv.apply(
                &scratch.psum,
                layer.nonconv2(),
                lo,
                skip,
                slot.out.as_mut_slice(),
            )?;
        }
        Ok(())
    }

    /// The functional schedule, generalized over a batch of images and a
    /// weight-residency policy. `PerImage` reproduces the per-image
    /// baseline accounting exactly (every image re-fetches all weights);
    /// `PerBatch` fetches each weight tile once for the whole batch.
    ///
    /// The portion loop works entirely in `scratch`'s reusable buffers —
    /// reserved once up front, so the steady state performs zero heap
    /// allocations per portion (guarded by the allocation-regression
    /// test). Every layer reads its inputs in place: the DWC kernel
    /// zero-fills a padded layer's halo as it stages each window.
    ///
    /// Before the portion loop the layer's buffer residencies are checked
    /// against their capacities ([`check_capacity`]); after it the
    /// statistics are the layer's [`layer_ledger`] plus the measured engine
    /// activity and zero fractions. The intermediate and output zero
    /// fractions come from the zeros the Non-Conv unit counts as it writes
    /// each portion slot, so neither map is scanned again; the whole-layer
    /// intermediate maps are assembled only when `keep_mids` asks for them
    /// (the per-layer entry points return them as `pwc_inputs`; the
    /// network loop never reads them).
    ///
    /// With [`Edea::parallelism`] above one thread, portions are statically
    /// partitioned into contiguous lanes ([`par::chunk_ranges`]) and run
    /// concurrently: each lane owns a private [`TileScratch`], a private
    /// activity tally and its own portion-local output slots, then lanes
    /// are reduced **in lane order** (exact counter sums, first error in
    /// portion order) and the portion outputs pasted in portion order —
    /// bit-identical to the serial run by construction (see [`crate::par`])
    /// and enforced by the `parallel_identity` suite.
    #[expect(
        clippy::too_many_arguments,
        reason = "the one layer entry behind single, batched and planned runs takes the union of their knobs"
    )]
    fn execute_layer(
        &self,
        layer: &QuantizedDscLayer,
        plan: &LayerPlan,
        inputs: &[Tensor3<i8>],
        residuals: Option<&[Tensor3<i8>]>,
        residency: WeightResidency,
        scratch: &mut TileScratch,
        keep_mids: bool,
    ) -> Result<BatchLayerRun, CoreError> {
        if inputs.is_empty() {
            return Err(CoreError::UnsupportedShape {
                detail: "batch must contain at least one image".into(),
            });
        }
        for input in inputs {
            self.check_layer(layer, input)?;
        }
        let s = layer.shape();
        if s.residual_add != residuals.is_some() {
            return Err(CoreError::UnsupportedShape {
                detail: format!(
                    "layer {}: residual_add={} but residual batch {}",
                    s.index,
                    s.residual_add,
                    if residuals.is_some() {
                        "provided"
                    } else {
                        "missing"
                    }
                ),
            });
        }
        // Only the network loop passes residuals, and a well-formed network
        // guarantees one map per image of the ofmap's shape, and the scale.
        let residual = residuals.zip(layer.residual_scale());
        let out = s.out_spatial();
        let n_images = inputs.len();
        let ports = portions(out, self.cfg.portion_limit);
        check_capacity(&s, &self.cfg, &ports, n_images)?;
        scratch.reserve(&s, &self.cfg);

        let mut tally = PortionTally::default();

        let n_slots = ports.len() * n_images;
        scratch.reserve_portion_slots(&s, &self.cfg, n_slots);
        let lanes = self.par.threads().min(ports.len()).max(1);
        // Debug builds re-prove the determinism contract on the exact
        // portion list and lane count about to fork (release deployments
        // run the same proofs once up front via `Edea::audit_plan`).
        #[cfg(debug_assertions)]
        crate::plan::audit::audit_portions(&s, &self.cfg, &ports, lanes, n_images)?;

        // The slot vector leaves the scratch for the duration of the
        // portion loop so it can be split into disjoint per-lane `&mut`
        // slices; it is restored below on every path, success or error.
        let mut portion_slots = std::mem::take(&mut scratch.portion_slots);

        let run_result = if lanes <= 1 {
            // Serial base case: one lane over all portions and the
            // caller's scratch.
            let mut result = Ok(());
            for (p, portion) in ports.iter().enumerate() {
                if let Err(e) = self.run_portion(
                    layer,
                    plan,
                    inputs,
                    residual,
                    portion,
                    &mut *scratch,
                    &mut portion_slots[p * n_images..(p + 1) * n_images],
                    &mut tally,
                ) {
                    result = Err(e);
                    break;
                }
            }
            result
        } else {
            // Parallel lanes: contiguous portion ranges, lane-private
            // scratches (lane 0 reuses the caller's) and tallies, disjoint
            // output slots.
            scratch.ensure_lanes(lanes - 1, &s, &self.cfg);
            let mut lane_scratches = std::mem::take(&mut scratch.lanes);
            let ranges = par::chunk_ranges(ports.len(), lanes);
            let slot_slices = split_slots(&mut portion_slots[..n_slots], &ranges, n_images);

            struct LaneCtx<'a> {
                scratch: &'a mut TileScratch,
                slots: &'a mut [PortionSlot],
                range: std::ops::Range<usize>,
            }
            let ctxs: Vec<LaneCtx<'_>> = std::iter::once(&mut *scratch)
                .chain(lane_scratches.iter_mut().take(lanes - 1))
                .zip(slot_slices)
                .zip(ranges)
                .map(|((scratch, slots), range)| LaneCtx {
                    scratch,
                    slots,
                    range,
                })
                .collect();

            let lane_results = par::map_lanes(ctxs, |_, ctx| {
                let mut tally = PortionTally::default();
                let mut result = Ok(());
                for (i, p) in ctx.range.clone().enumerate() {
                    if let Err(e) = self.run_portion(
                        layer,
                        plan,
                        inputs,
                        residual,
                        &ports[p],
                        ctx.scratch,
                        &mut ctx.slots[i * n_images..(i + 1) * n_images],
                        &mut tally,
                    ) {
                        // Stop at this lane's first error; since lanes are
                        // contiguous, the first error across lanes in lane
                        // order is the serial run's first error.
                        result = Err(e);
                        break;
                    }
                }
                (tally, result)
            });
            scratch.lanes = lane_scratches;

            // Fixed-order reduction: lane order == portion order.
            let mut first_err = Ok(());
            for (lane_tally, lane_result) in lane_results {
                tally.merge(&lane_tally);
                if first_err.is_ok() {
                    first_err = lane_result;
                }
            }
            first_err
        };

        // Paste phase, serially in portion order: assemble the full output
        // (and, if asked, intermediate) maps from the portion-local slots.
        // Portions tile the output map disjointly, so this is a pure
        // scatter. Each image's zero fraction is its slots' exact zero
        // count over its map size, the f64 formula a scan would compute.
        let assembled = run_result.map(|()| {
            let slots_of = |img: usize| portion_slots[img..n_slots].iter().step_by(n_images);
            let paste = |c: usize, map: fn(&PortionSlot) -> &Tensor3<i8>| -> Vec<Tensor3<i8>> {
                (0..n_images)
                    .map(|img| {
                        let mut whole = Tensor3::zeros(c, out, out);
                        for (portion, slot) in ports.iter().zip(slots_of(img)) {
                            whole.paste_window(0, portion.row0, portion.col0, map(slot));
                        }
                        whole
                    })
                    .collect()
            };
            let mean_zero = |c: usize, zeros: fn(&PortionSlot) -> u64| {
                (0..n_images)
                    .map(|img| {
                        slots_of(img).map(zeros).sum::<u64>() as f64 / (c * out * out) as f64
                    })
                    .sum::<f64>()
                    / n_images as f64
            };
            let outputs = paste(s.k_out, |slot| &slot.out);
            let pwc_inputs = if keep_mids {
                paste(s.d_in, |slot| &slot.mid)
            } else {
                Vec::new()
            };
            let mid_zero = mean_zero(s.d_in, |slot| slot.mid_zeros);
            let out_zero = mean_zero(s.k_out, |slot| slot.out_zeros);
            (outputs, pwc_inputs, mid_zero, out_zero)
        });
        scratch.portion_slots = portion_slots;
        let (outputs, pwc_inputs, mid_zero, out_zero) = assembled?;

        let zero_frac = |t: &Tensor3<i8>| count_zeros(t.as_slice()) as f64 / t.len() as f64;
        let stats = LayerStats {
            dwc_activity: tally.dwc_activity,
            pwc_activity: tally.pwc_activity,
            input_zero: inputs.iter().map(zero_frac).sum::<f64>() / n_images as f64,
            mid_zero,
            out_zero,
            ..layer_ledger(&s, &self.cfg, n_images, residency)
        };
        Ok(BatchLayerRun {
            outputs,
            pwc_inputs,
            stats,
        })
    }

    /// Runs the whole quantized DSC stack on one image.
    ///
    /// Thin wrapper over the network loop with a throwaway [`NetworkPlan`]
    /// and [`TileScratch`]; a long-lived session holds both instead (see
    /// [`crate::serve::SimulatorBackend`]).
    ///
    /// # Errors
    ///
    /// Propagates the first per-layer error.
    pub fn run_network(
        &self,
        net: &QuantizedDscNetwork,
        input: &Tensor3<i8>,
    ) -> Result<NetworkRun, CoreError> {
        let plan = NetworkPlan::new(net, &self.cfg)?;
        let run = self.run_planned(
            net,
            &plan,
            std::slice::from_ref(input),
            WeightResidency::PerImage,
            &mut TileScratch::new(),
        )?;
        Ok(run.into_single())
    }

    /// Runs the whole quantized DSC stack over a batch of images, holding
    /// weight tiles resident across the batch at every layer.
    ///
    /// Per-image outputs are bit-identical to running each image through
    /// [`Edea::run_network`]; what changes is the external-memory traffic
    /// ([`NetworkStats::weight_bytes_per_image`] falls as `1/N`) and
    /// the psum SRAM provisioning (`N` banks, see
    /// [`crate::buffer::check_capacity`]).
    ///
    /// # Errors
    ///
    /// Propagates the first per-layer error.
    pub fn run_batch(
        &self,
        net: &QuantizedDscNetwork,
        inputs: &Batch<i8>,
    ) -> Result<BatchRun, CoreError> {
        let plan = NetworkPlan::new(net, &self.cfg)?;
        self.run_planned(
            net,
            &plan,
            inputs.images(),
            WeightResidency::PerBatch,
            &mut TileScratch::new(),
        )
    }

    /// The network loop — the one place that walks a network's layers.
    /// One [`TileScratch`] is threaded through every layer; the inputs are
    /// borrowed, not copied (the first layer reads them in place, each
    /// later layer consumes the previous outputs by move). An
    /// inverted-residual skip saves the int8 block inputs at its
    /// `residual_save` stage and hands them to the `residual_add` stage
    /// that consumes them, in the golden executor's order. `net` is well
    /// formed ([`edea_nn::workload::check_chain`]), so the chain and the
    /// save→add pairing are not re-checked here.
    ///
    /// `plan` must have been built from `net` (the wrappers build both
    /// together; a session builds both once); it is not re-checked here.
    pub(crate) fn run_planned(
        &self,
        net: &QuantizedDscNetwork,
        plan: &NetworkPlan,
        inputs: &[Tensor3<i8>],
        residency: WeightResidency,
        scratch: &mut TileScratch,
    ) -> Result<BatchRun, CoreError> {
        debug_assert_eq!(plan.layers().len(), net.layers().len());
        let mut layers = Vec::with_capacity(net.layers().len());
        let mut xs: Option<Vec<Tensor3<i8>>> = None;
        let mut saved: Option<Vec<Tensor3<i8>>> = None;
        for (layer, lp) in net.layers().iter().zip(plan.layers()) {
            let s = layer.shape();
            let cur = xs.as_deref().unwrap_or(inputs);
            if s.residual_save {
                saved = Some(cur.to_vec());
            }
            let residual = if s.residual_add { saved.take() } else { None };
            let run = self.execute_layer(
                layer,
                lp,
                cur,
                residual.as_deref(),
                residency,
                &mut *scratch,
                false,
            )?;
            xs = Some(run.outputs);
            layers.push(run.stats);
        }
        #[expect(
            clippy::expect_used,
            reason = "every output of one layer has the layer's shape"
        )]
        let outputs =
            Batch::new(xs.unwrap_or_else(|| inputs.to_vec())).expect("uniform layer outputs");
        Ok(BatchRun {
            outputs,
            stats: NetworkStats {
                batch: inputs.len(),
                layers,
            },
        })
    }
}

impl BatchRun {
    /// A batch-of-one run as the single-image [`NetworkRun`].
    pub(crate) fn into_single(self) -> NetworkRun {
        let mut outputs = self.outputs.into_images();
        debug_assert_eq!(outputs.len(), 1);
        #[expect(clippy::expect_used, reason = "a batch holds at least one image")]
        let output = outputs.pop().expect("one image in, one image out");
        NetworkRun {
            output,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edea_nn::executor;
    use edea_nn::mobilenet::MobileNetV1;
    use edea_nn::quantize::{QuantStrategy, QuantizedDscNetwork};
    use edea_nn::sparsity::SparsityProfile;
    use edea_tensor::rng;

    use crate::timing;

    fn setup() -> (MobileNetV1, QuantizedDscNetwork, Tensor3<i8>) {
        let mut model = MobileNetV1::synthetic(0.25, 31);
        let calib = rng::synthetic_batch(2, 3, 32, 32, 32);
        let (qnet, _) = QuantizedDscNetwork::calibrate_shaped(
            &mut model,
            &calib,
            &SparsityProfile::paper(),
            QuantStrategy::paper(),
        )
        .unwrap();
        let input = qnet.quantize_input(&model.forward_stem(&calib[0]));
        (model, qnet, input)
    }

    #[test]
    fn layer_is_bit_exact_with_golden_executor() {
        let (_, qnet, input) = setup();
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let run = edea.run_layer(&qnet.layers()[0], &input).unwrap();
        let golden = executor::run_layer(&qnet.layers()[0], &input);
        assert_eq!(run.pwc_input, golden.pwc_input, "intermediate map differs");
        assert_eq!(run.output, golden.output, "output map differs");
    }

    #[test]
    fn network_is_bit_exact_with_golden_executor() {
        let (_, qnet, input) = setup();
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let run = edea.run_network(&qnet, &input).unwrap();
        let golden = executor::run_network(&qnet, &input);
        assert_eq!(run.output, golden.output);
        // Zero statistics agree too.
        for (a, b) in run.stats.layers.iter().zip(&golden.activities) {
            assert!((a.mid_zero - b.dwc_out_zero).abs() < 1e-12);
            assert!((a.out_zero - b.pwc_out_zero).abs() < 1e-12);
        }
    }

    #[test]
    fn cycle_counts_match_analytic_model() {
        let (_, qnet, input) = setup();
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let run = edea.run_network(&qnet, &input).unwrap();
        for stats in &run.stats.layers {
            let analytic = timing::layer_cycles(&stats.shape, edea.config());
            assert_eq!(
                stats.cycles,
                analytic.total(),
                "layer {}",
                stats.shape.index
            );
        }
    }

    #[test]
    fn mac_counts_match_workload() {
        let (_, qnet, input) = setup();
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let run = edea.run_network(&qnet, &input).unwrap();
        for stats in &run.stats.layers {
            assert_eq!(stats.dwc_activity.mac_slots, stats.shape.dwc_macs());
            assert_eq!(stats.pwc_activity.mac_slots, stats.shape.pwc_macs());
        }
    }

    #[test]
    fn intermediate_traffic_replaces_external_roundtrip() {
        // The direct transfer: intermediate-buffer writes equal the
        // intermediate map size × channel passes … and none of it appears
        // as external traffic beyond input/weights/output.
        let (_, qnet, input) = setup();
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let l0 = &qnet.layers()[0];
        let run = edea.run_layer(l0, &input).unwrap();
        let s = l0.shape();
        let inter_elems = s.intermediate_elems();
        assert_eq!(run.stats.intermediate.writes, inter_elems);
        // Each intermediate byte is read once per kernel tile:
        assert_eq!(
            run.stats.intermediate.reads,
            inter_elems * (s.k_out / 16) as u64
        );
        // External writes are exactly the ofmap (nothing intermediate):
        assert_eq!(run.stats.external.writes, s.ofmap_elems());
    }

    #[test]
    fn rejects_mismatched_input() {
        let (_, qnet, _) = setup();
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let bad = Tensor3::<i8>::zeros(3, 32, 32);
        assert!(matches!(
            edea.run_layer(&qnet.layers()[0], &bad),
            Err(CoreError::UnsupportedShape { .. })
        ));
    }

    /// One layer's measured figures: shape, batch, cycles and the DWC
    /// and PWC activity.
    type Measured = (
        edea_nn::workload::LayerShape,
        usize,
        u64,
        EngineActivity,
        EngineActivity,
    );

    /// The figures a run still measures — the engines' MAC slots, summed
    /// from the kernels — must agree with the analytic constructor, and
    /// the cycles with the timing model. Traffic needs no comparison: the
    /// run and the constructor both read it from the one ledger.
    fn assert_measured_match_synthetic(cfg: &EdeaConfig, runs: impl Iterator<Item = Measured>) {
        for (shape, batch, cycles, dwc, pwc) in runs {
            let i = shape.index;
            let synth = crate::stats::synthetic_layer_stats(
                &shape,
                cfg,
                batch,
                WeightResidency::PerImage,
                0.0,
                0.0,
                0.0,
            );
            let analytic = timing::layer_cycles(&shape, cfg).total();
            assert_eq!(cycles, batch as u64 * analytic, "layer {i}");
            assert_eq!(cycles, synth.cycles, "layer {i}");
            assert_eq!(dwc.mac_slots, synth.dwc_activity.mac_slots, "layer {i}");
            assert_eq!(pwc.mac_slots, synth.pwc_activity.mac_slots, "layer {i}");
        }
    }

    #[test]
    fn synthetic_stats_match_simulated_traffic() {
        let (_, qnet, input) = setup();
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let run = edea.run_network(&qnet, &input).unwrap();
        assert_measured_match_synthetic(
            edea.config(),
            run.stats
                .layers
                .iter()
                .map(|l| (l.shape, 1, l.cycles, l.dwc_activity, l.pwc_activity)),
        );
    }

    fn setup_batch(n: usize) -> (QuantizedDscNetwork, Batch<i8>) {
        let mut model = MobileNetV1::synthetic(0.25, 31);
        let calib = rng::synthetic_batch(2, 3, 32, 32, 32);
        let (qnet, _) = QuantizedDscNetwork::calibrate_shaped(
            &mut model,
            &calib,
            &SparsityProfile::paper(),
            QuantStrategy::paper(),
        )
        .unwrap();
        let images = rng::synthetic_batch(n, 3, 32, 32, 77);
        let inputs = Batch::new(
            images
                .iter()
                .map(|img| qnet.quantize_input(&model.forward_stem(img)))
                .collect(),
        )
        .unwrap();
        (qnet, inputs)
    }

    #[test]
    fn batch_outputs_are_bit_identical_to_per_image_runs() {
        let (qnet, inputs) = setup_batch(3);
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let batch = edea.run_batch(&qnet, &inputs).unwrap();
        for (i, input) in inputs.iter().enumerate() {
            let single = edea.run_network(&qnet, input).unwrap();
            assert_eq!(batch.outputs[i], single.output, "image {i}");
            let golden = executor::run_network(&qnet, input);
            assert_eq!(batch.outputs[i], golden.output, "image {i} vs golden");
        }
    }

    #[test]
    fn batch_of_one_matches_unbatched_stats_exactly() {
        let (qnet, inputs) = setup_batch(1);
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let batch = edea.run_batch(&qnet, &inputs).unwrap();
        let single = edea.run_network(&qnet, &inputs[0]).unwrap();
        assert_eq!(batch.outputs[0], single.output);
        for (b, s) in batch.stats.layers.iter().zip(&single.stats.layers) {
            assert_eq!(b, s, "layer {}", s.shape.index);
        }
    }

    #[test]
    fn batched_weight_reads_equal_unbatched_reads() {
        // The whole point: a batch of N fetches each external weight byte
        // once — the same count as a single image, not N×.
        let (qnet, inputs) = setup_batch(4);
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let batch = edea.run_batch(&qnet, &inputs).unwrap();
        let single = edea.run_network(&qnet, &inputs[0]).unwrap();
        for (b, s) in batch.stats.layers.iter().zip(&single.stats.layers) {
            assert_eq!(
                b.external.weight_reads, s.external.weight_reads,
                "layer {}",
                s.shape.index
            );
            assert_eq!(
                b.external.param_reads, s.external.param_reads,
                "layer {}",
                s.shape.index
            );
            // Per-image streams scale with N.
            assert_eq!(b.external.ifmap_reads, 4 * s.external.ifmap_reads);
            assert_eq!(b.external.writes, 4 * s.external.writes);
            assert_eq!(b.cycles, 4 * s.cycles);
        }
    }

    #[test]
    fn synthetic_batch_stats_match_batched_simulator() {
        let (qnet, inputs) = setup_batch(2);
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let batch = edea.run_batch(&qnet, &inputs).unwrap();
        assert_measured_match_synthetic(
            edea.config(),
            batch
                .stats
                .layers
                .iter()
                .map(|l| (l.shape, l.batch, l.cycles, l.dwc_activity, l.pwc_activity)),
        );
    }

    #[test]
    fn undersized_psum_banks_overflow_in_batch_mode_too() {
        // The psum SRAM is provisioned batch× one bank; a bank smaller
        // than a portion's psums must still be caught by the capacity
        // check of the batched reservation.
        let (qnet, inputs) = setup_batch(2);
        let mut cfg = EdeaConfig::paper();
        // Layer 0 at width 0.25: one portion's psums are 8×8×16×4 bytes.
        cfg.psum_buf_bytes = 8 * 8 * 16 * 4 - 4; // one word short per bank
        let edea = Edea::new(cfg).unwrap();
        let layer = &qnet.layers()[0];
        let err = edea
            .run_layer_planned(
                layer,
                &LayerPlan::new(layer, edea.config()).unwrap(),
                inputs.images(),
                WeightResidency::PerBatch,
                &mut TileScratch::new(),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::BufferOverflow { .. }), "{err:?}");
    }

    #[test]
    fn every_capacity_violation_surfaces_identically() {
        // Shrinking any one buffer below layer 0's residency (width 0.25:
        // d_in 8, k_out 16, 8×8 portions) must fail the run with exactly
        // the error the plan-time audit predicts.
        let (qnet, inputs) = setup_batch(2);
        let layer = &qnet.layers()[0];
        type Shrink = fn(&mut EdeaConfig);
        let shrink: [(&str, Shrink); 5] = [
            ("psum", |c| c.psum_buf_bytes = 8 * 8 * 16 * 4 - 4),
            ("dwc_ifmap", |c| c.ifmap_buf_bytes = 9 * 9 * 8),
            ("dwc_weight", |c| c.dwc_weight_buf_bytes = 9 * 8 - 1),
            ("offline", |c| c.offline_buf_bytes = 6 * (8 + 16) - 1),
            ("pwc_weight", |c| c.pwc_weight_buf_bytes = 8 * 16 - 1),
        ];
        for (name, shrink) in shrink {
            let mut cfg = EdeaConfig::paper();
            shrink(&mut cfg);
            let edea = Edea::new(cfg).unwrap();
            let plan = LayerPlan::new(layer, edea.config()).unwrap();
            for n in [1, 2] {
                let run = edea
                    .run_layer_planned(
                        layer,
                        &plan,
                        &inputs.images()[..n],
                        WeightResidency::PerBatch,
                        &mut TileScratch::new(),
                    )
                    .unwrap_err();
                let audit = crate::plan::audit::audit_layer(
                    &layer.shape(),
                    edea.config(),
                    edea.parallelism(),
                    n,
                )
                .unwrap_err();
                assert!(
                    matches!(run, CoreError::BufferOverflow { buffer, .. } if buffer == name),
                    "{name}, batch {n}: {run:?}"
                );
                assert_eq!(run, audit, "{name}, batch {n}");
            }
        }
    }

    #[test]
    fn empty_batch_is_rejected() {
        let (qnet, _) = setup_batch(1);
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let layer = &qnet.layers()[0];
        let plan = LayerPlan::new(layer, edea.config()).unwrap();
        assert!(matches!(
            edea.run_layer_planned(
                layer,
                &plan,
                &[],
                WeightResidency::PerBatch,
                &mut TileScratch::new()
            ),
            Err(CoreError::UnsupportedShape { .. })
        ));
    }

    #[test]
    fn utilization_is_full_when_engines_fire() {
        // "100% PE utilization": every DWC invocation uses all 288 slots,
        // every PWC invocation all 512.
        let (_, qnet, input) = setup();
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let run = edea.run_layer(&qnet.layers()[0], &input).unwrap();
        let b = &run.stats.breakdown;
        assert_eq!(run.stats.dwc_activity.mac_slots, b.dwc_busy * 288);
        assert_eq!(run.stats.pwc_activity.mac_slots, b.pwc_busy * 512);
    }

    fn setup_v2() -> (
        edea_nn::mobilenet::MobileNetV2,
        QuantizedDscNetwork,
        Tensor3<i8>,
    ) {
        let model = edea_nn::mobilenet::MobileNetV2::synthetic(0.25, 41);
        let calib = rng::synthetic_batch(2, 3, 32, 32, 32);
        let qnet =
            QuantizedDscNetwork::calibrate_v2(&model, &calib, QuantStrategy::paper()).unwrap();
        let input = qnet.quantize_input(&model.forward_stem(&calib[0]));
        (model, qnet, input)
    }

    #[test]
    fn v2_network_is_bit_exact_with_golden_executor() {
        // The inverted-residual stack: PwcOnly expansions, linear
        // projections and Q8.16 residual adds through the same datapath.
        let (_, qnet, input) = setup_v2();
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let run = edea.run_network(&qnet, &input).unwrap();
        let golden = executor::run_network(&qnet, &input);
        assert_eq!(run.output, golden.output);
    }

    #[test]
    fn v2_planned_path_matches_one_shot() {
        // The session's cached plan and reused scratch against the
        // throwaway-plan wrapper, across the residual save→add hand-off.
        let (_, qnet, input) = setup_v2();
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let session = crate::serve::SimulatorBackend::new(edea.clone(), qnet.clone()).unwrap();
        let planned = session.run_network(&input).unwrap();
        let oneshot = edea.run_network(&qnet, &input).unwrap();
        assert_eq!(planned.output, oneshot.output);
        assert_eq!(planned.stats, oneshot.stats);
    }

    #[test]
    fn v2_batch_outputs_match_per_image_and_golden() {
        let (model, qnet, _) = setup_v2();
        let images = rng::synthetic_batch(3, 3, 32, 32, 77);
        let inputs = Batch::new(
            images
                .iter()
                .map(|img| qnet.quantize_input(&model.forward_stem(img)))
                .collect(),
        )
        .unwrap();
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let batch = edea.run_batch(&qnet, &inputs).unwrap();
        for (i, input) in inputs.iter().enumerate() {
            let single = edea.run_network(&qnet, input).unwrap();
            assert_eq!(batch.outputs[i], single.output, "image {i}");
            let golden = executor::run_network(&qnet, input);
            assert_eq!(batch.outputs[i], golden.output, "image {i} vs golden");
        }
    }

    #[test]
    fn v2_synthetic_stats_match_simulated_traffic() {
        // The generalized datapath: PwcOnly stages (no DWC MACs) and
        // residual-add stages.
        let (_, qnet, input) = setup_v2();
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let run = edea.run_network(&qnet, &input).unwrap();
        assert_measured_match_synthetic(
            edea.config(),
            run.stats
                .layers
                .iter()
                .map(|l| (l.shape, 1, l.cycles, l.dwc_activity, l.pwc_activity)),
        );
    }

    #[test]
    fn v2_residual_add_without_matching_batch_is_rejected() {
        // execute_layer's contract: the residual batch must be present
        // exactly when the shape says residual_add.
        let (_, qnet, input) = setup_v2();
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let add_layer = qnet
            .layers()
            .iter()
            .find(|l| l.shape().residual_add)
            .expect("v2 has residual-add stages");
        let err = edea.run_layer(add_layer, &input).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedShape { .. }), "{err:?}");
    }
}
