//! `forward_v1`: a closed loop of planned MobileNetV1 width-1.0 forwards,
//! one at a time with batch 1, at the paper's Fig. 11 sparsity, cycling
//! over a fixed seeded set of input images.
//!
//! Nearly all host time is in the accelerator's tile loop on its
//! zero-skipping path; none is in serving or pooling.
//!
//! The untraced loop calls `SimulatorBackend::run_network`. The traced
//! run interleaves that call with a forward chained layer by layer through
//! `Edea::run_layer_planned` (one reused scratch), timing each layer, and
//! checks that the chain reproduces `run_network`'s output and per-layer
//! statistics.

use crate::api::{self, CalibratedV1, Edea, Map, NetworkPlan, SimulatorBackend};
use crate::metrics::{self, median};
use crate::trace::Tracer;
use crate::{ms_since, now, repeat_setup, step, Budget, Outcome, Step};

/// MobileNetV1 width multiplier (1.0 = the paper's network).
const WIDTH: f64 = 1.0;
/// Distinct input images the loop cycles over.
const IMAGES: usize = 8;

struct Setup {
    edea: Edea,
    net: CalibratedV1,
    plan: NetworkPlan,
    backend: SimulatorBackend,
    inputs: Vec<Map>,
    golden: Vec<Map>,
    cost_cycles: u64,
}

fn setup(seed: u64) -> api::Result<(Setup, Vec<Step>)> {
    let (net, calibrate) = step("calibrate", || api::calibrate_v1(WIDTH, seed, true));
    let net = net?;
    let edea = api::accelerator()?;
    let (plan, plan_step) = step("plan.build", || api::plan_network(&edea, &net));
    let plan = plan?;
    let backend = api::simulator_backend(&edea, &net)?;
    let inputs = api::prepare_inputs(&net, seed, IMAGES);
    let (golden, golden_step) = step("golden.ref", || {
        inputs
            .iter()
            .map(|x| api::golden_forward(&net, x))
            .collect::<Vec<_>>()
    });
    let cost_cycles = api::cost_per_image_cycles(&backend);
    let s = Setup {
        edea,
        net,
        plan,
        backend,
        inputs,
        golden,
        cost_cycles,
    };
    Ok((s, vec![calibrate, plan_step, golden_step]))
}

/// The correctness gate: counts one forward as attempted, and as failed
/// on an error, an output that differs from the golden reference, or
/// modeled cycles that differ from the cost model.
fn gate(s: &Setup, out: &mut Outcome, k: usize, run: &api::Result<api::Forward>) -> bool {
    out.attempted += 1;
    let ok = matches!(run, Ok(f) if f.output == s.golden[k] && f.cycles() == s.cost_cycles);
    if !ok {
        out.failed += 1;
    }
    ok
}

/// Runs the workload: end-to-end metrics untraced, per-layer metrics
/// traced.
///
/// # Errors
///
/// A set-up failure, as text.
pub fn run(seed: u64, seconds: u64, mut tracer: Option<&mut Tracer>) -> api::Result<Outcome> {
    let mut out = Outcome::default();
    let s = repeat_setup(&mut out, tracer.as_deref_mut(), || setup(seed))?;
    // Warm the backend's scratch arena; not counted.
    let _ = api::forward(&s.backend, &s.inputs[0]);
    let budget = Budget::new(seconds);
    match tracer {
        None => untraced(&s, budget, &mut out),
        Some(tr) => traced(&s, budget, tr, &mut out),
    }
    Ok(out)
}

fn untraced(s: &Setup, budget: Budget, out: &mut Outcome) {
    let mut ms = Vec::new();
    let mut ext = Vec::new();
    let mut i = 0;
    while i < IMAGES || !budget.spent() {
        let k = i % IMAGES;
        let t = now();
        let run = api::forward(&s.backend, &s.inputs[k]);
        ms.push(ms_since(t));
        if gate(s, out, k, &run) && i < IMAGES {
            if let Ok(f) = &run {
                ext.push(f.ext_bytes() as f64);
            }
        }
        i += 1;
    }
    let notes = metrics::set_host_rate(&mut out.metrics, &ms);
    out.notes.extend(notes);
    let m = &mut out.metrics;
    let cycles = s.cost_cycles as f64;
    m.set("modeled_cycles_per_image", cycles, "cycles");
    m.set(
        "modeled_ext_bytes_per_image",
        ext.iter().sum::<f64>() / ext.len().max(1) as f64,
        "B",
    );
    // One forward at a time: every image's simulated latency is its
    // service time, and the chip completes one image per service time.
    m.set("sim_latency_p99_cycles", cycles, "cycles");
    m.set(
        "sim_images_per_s",
        api::clock_mhz() * 1e6 / cycles,
        "1/sim_s",
    );
}

fn traced(s: &Setup, budget: Budget, tr: &mut Tracer, out: &mut Outcome) {
    let layers = api::layer_count(&s.net);
    let mut scratch = api::scratch();
    // Host time of each traced forward over the untraced one just before
    // it: the pair ran under the same host conditions.
    let mut overhead = Vec::new();
    let mut layer_us = vec![Vec::new(); layers];
    let mut glue_us = Vec::new();
    // Per-layer facts of the first pass over the distinct images.
    let mut first_pass: Vec<Vec<api::LayerFacts>> = Vec::new();
    let mut i = 0;
    while i < IMAGES || !budget.spent() {
        let k = i % IMAGES;
        let t = now();
        let plain = api::forward(&s.backend, &s.inputs[k]);
        let plain_ms = ms_since(t);
        gate(s, out, k, &plain);

        let fwd = tr.begin("forward", None);
        let mut x: Option<Map> = None;
        let mut facts = Vec::with_capacity(layers);
        let mut ids = Vec::with_capacity(layers);
        let mut chain_err = None;
        for l in 0..layers {
            let input = x.as_ref().unwrap_or(&s.inputs[k]);
            let id = tr.begin(format!("accelerator.layer.{l}"), Some(fwd));
            match api::run_layer(&s.edea, &s.net, &s.plan, l, input, &mut scratch) {
                Ok((y, f)) => {
                    tr.end(id, f.cycles);
                    x = Some(y);
                    facts.push(f);
                    ids.push(id);
                }
                Err(e) => {
                    tr.end(id, 0);
                    chain_err = Some(e);
                    break;
                }
            }
        }
        let total: u64 = facts.iter().map(|f| f.cycles).sum();
        tr.end(fwd, total);
        overhead.push(tr.duration_us(fwd) / 1e3 / plain_ms);
        let layer_sum: f64 = ids.iter().map(|&id| tr.duration_us(id)).sum();
        glue_us.push(tr.duration_us(fwd) - layer_sum);
        for (l, &id) in ids.iter().enumerate() {
            layer_us[l].push(tr.duration_us(id));
        }
        let names: Vec<(String, u64)> = facts
            .iter()
            .enumerate()
            .map(|(l, f)| (format!("accelerator.layer.{l}"), f.cycles))
            .collect();
        tr.modeled_track(fwd, &names);

        // The chained forward is gated like any other, and must also
        // reproduce run_network's per-layer statistics exactly.
        let chained = match chain_err {
            Some(e) => Err(e),
            None => Ok(api::Forward {
                output: x.unwrap_or_else(|| s.inputs[k].clone()),
                layers: facts,
            }),
        };
        if gate(s, out, k, &chained) {
            if let (Ok(c), Ok(p)) = (&chained, &plain) {
                if c.layers != p.layers {
                    out.violations.push(format!(
                        "image {k}: chained run_layer_planned stats differ from run_network"
                    ));
                }
            }
        }
        if i < IMAGES {
            if let Ok(c) = chained {
                first_pass.push(c.layers);
            }
        }
        i += 1;
    }

    let m = &mut out.metrics;
    let mut modeled_total = 0;
    for l in 0..layers {
        let host_us = median(&layer_us[l]);
        let cycles = first_pass.first().map_or(0, |f| f[l].cycles);
        let (gated, macs) = first_pass.iter().fold((0u64, 0u64), |(g, n), f| {
            (g + f[l].gated_slots, n + f[l].mac_slots)
        });
        modeled_total += cycles;
        m.set(format!("layer.{l}.host_us"), host_us, "us");
        m.set(format!("layer.{l}.modeled_cycles"), cycles as f64, "cycles");
        m.set(
            format!("layer.{l}.ns_per_cycle"),
            host_us * 1e3 / cycles as f64,
            "ns/cycle",
        );
        m.set(
            format!("layer.{l}.gated_frac"),
            gated as f64 / macs as f64,
            "ratio",
        );
    }
    m.set("net.glue_us", median(&glue_us), "us");
    m.set("trace.overhead_pct", (median(&overhead) - 1.0) * 100.0, "%");
    if modeled_total != s.cost_cycles {
        out.violations.push(format!(
            "sum of layer modeled cycles {modeled_total} != modeled_cycles_per_image {}",
            s.cost_cycles
        ));
    }
}
