//! The zero fractions of a layer's statistics are counted as the portion
//! loop writes each map — the Non-Conv unit's zero outputs, or the zeros
//! of a `PwcOnly` stage's copied slab — never by scanning the assembled
//! maps again. This suite pins the counted figures to a scan, bit for bit
//! (`f64 ==`):
//!
//! 1. per layer, `input_zero`, `mid_zero` and `out_zero` equal a scan of
//!    the layer's inputs, returned `pwc_inputs` and returned `outputs`;
//! 2. through the network loop — which assembles no intermediate maps — on
//!    MobileNetV1 and MobileNetV2 (`PwcOnly` expansions and residual-add
//!    stages), every layer's fractions equal a scan of the golden
//!    executor's maps, at batch 1 and 3 and on 1 and 3 host threads;
//! 3. `run_network`'s statistics equal those of the same layers chained
//!    through `run_layer_planned`, the identity the benchmark's traced
//!    per-layer gate relies on.

use edea_core::par::Parallelism;
use edea_core::plan::NetworkPlan;
use edea_core::schedule::WeightResidency;
use edea_core::scratch::TileScratch;
use edea_core::stats::LayerStats;
use edea_core::Edea;
use edea_nn::executor;
use edea_nn::quantize::QuantizedDscNetwork;
use edea_tensor::{rng, Batch, Tensor3};
use edea_testutil::{batch_inputs, deploy, deploy_v2, paper_edea};

/// The zero fraction of one map, as a scan computes it.
fn scan(t: &Tensor3<i8>) -> f64 {
    t.as_slice().iter().filter(|&&v| v == 0).count() as f64 / t.len() as f64
}

/// The batch mean of per-image fractions, summed in image order.
fn mean(fracs: impl Iterator<Item = f64>, n: usize) -> f64 {
    fracs.sum::<f64>() / n as f64
}

fn threaded(threads: usize) -> Edea {
    paper_edea().with_parallelism(Parallelism::new(threads).expect("valid thread count"))
}

fn v2_inputs(n: usize, seed: u64) -> (QuantizedDscNetwork, Batch<i8>) {
    let d = deploy_v2(0.25, 41);
    let images = rng::synthetic_batch(n, 3, 32, 32, seed);
    let inputs = Batch::new(
        images
            .iter()
            .map(|img| d.qnet.quantize_input(&d.model.forward_stem(img)))
            .collect(),
    )
    .expect("stem outputs are uniformly shaped");
    (d.qnet, inputs)
}

/// Every layer of the network loop against the golden executor's maps.
fn assert_network_fractions_match_scans(net: &QuantizedDscNetwork, inputs: &Batch<i8>) {
    let n = inputs.len();
    let golden: Vec<_> = inputs
        .iter()
        .map(|img| executor::run_network(net, img))
        .collect();
    for threads in [1, 3] {
        let run = threaded(threads).run_batch(net, inputs).expect("batch run");
        for (i, stats) in run.stats.layers.iter().enumerate() {
            let at = |f: fn(&executor::LayerActivity) -> f64| {
                mean(golden.iter().map(|g| f(&g.activities[i])), n)
            };
            let what = format!("layer {i}, batch {n}, {threads} thread(s)");
            assert_eq!(stats.input_zero, at(|a| a.input_zero), "input_zero, {what}");
            assert_eq!(stats.mid_zero, at(|a| a.dwc_out_zero), "mid_zero, {what}");
            assert_eq!(stats.out_zero, at(|a| a.pwc_out_zero), "out_zero, {what}");
        }
    }
}

#[test]
fn v1_network_zero_fractions_equal_scans() {
    let d = deploy(0.25, 77);
    for n in [1, 3] {
        assert_network_fractions_match_scans(&d.qnet, &batch_inputs(&d, n, 79));
    }
}

#[test]
fn v2_network_zero_fractions_equal_scans() {
    for n in [1, 3] {
        let (net, inputs) = v2_inputs(n, 43);
        assert!(net
            .layers()
            .iter()
            .any(|l| l.shape().op == edea_nn::workload::StageOp::PwcOnly));
        assert!(net.layers().iter().any(|l| l.shape().residual_add));
        assert_network_fractions_match_scans(&net, &inputs);
    }
}

/// Chains `run_layer_planned` over the network, checking each layer's
/// counted fractions against a scan of what it returns, and returns the
/// per-layer statistics.
fn chained_layer_stats(
    edea: &Edea,
    net: &QuantizedDscNetwork,
    inputs: &Batch<i8>,
) -> Vec<LayerStats> {
    let plan = NetworkPlan::new(net, edea.config()).expect("plan");
    let mut scratch = TileScratch::new();
    let mut xs = inputs.images().to_vec();
    let mut stats = Vec::new();
    for (i, (layer, lp)) in net.layers().iter().zip(plan.layers()).enumerate() {
        let run = edea
            .run_layer_planned(layer, lp, &xs, WeightResidency::PerBatch, &mut scratch)
            .expect("layer run");
        let n = xs.len();
        assert_eq!(
            run.stats.input_zero,
            mean(xs.iter().map(scan), n),
            "layer {i}"
        );
        assert_eq!(
            run.stats.mid_zero,
            mean(run.pwc_inputs.iter().map(scan), n),
            "layer {i}"
        );
        assert_eq!(
            run.stats.out_zero,
            mean(run.outputs.iter().map(scan), n),
            "layer {i}"
        );
        stats.push(run.stats);
        xs = run.outputs;
    }
    stats
}

#[test]
fn per_layer_fractions_equal_scans_and_chain_to_the_network_loop() {
    let d = deploy(0.25, 77);
    for n in [1, 3] {
        let inputs = batch_inputs(&d, n, 81);
        for threads in [1, 3] {
            let edea = threaded(threads);
            let chained = chained_layer_stats(&edea, &d.qnet, &inputs);
            let net = edea.run_batch(&d.qnet, &inputs).expect("batch run");
            assert_eq!(net.stats.layers, chained, "batch {n}, {threads} thread(s)");
        }
    }
    // The single-image entry points agree too: `run_network` is the
    // batch-of-one, per-image-residency case of the same loop.
    let edea = paper_edea();
    let single = edea.run_network(&d.qnet, &d.input).expect("forward");
    let plan = NetworkPlan::new(&d.qnet, edea.config()).expect("plan");
    let mut scratch = TileScratch::new();
    let mut x = vec![d.input.clone()];
    for ((layer, lp), stats) in d
        .qnet
        .layers()
        .iter()
        .zip(plan.layers())
        .zip(&single.stats.layers)
    {
        let run = edea
            .run_layer_planned(layer, lp, &x, WeightResidency::PerImage, &mut scratch)
            .expect("layer run");
        assert_eq!(&run.stats, stats, "layer {}", stats.shape.index);
        x = run.outputs;
    }
}
