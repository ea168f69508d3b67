//! Independent schedule identities for the traffic ledger
//! (`edea_core::stats::layer_ledger`), the one source of every cycle and
//! byte count the simulator reports.
//!
//! The DWC→PWC intermediate buffer is the paper's headline structural
//! feature, so its byte counters must follow exactly from the schedule
//! arithmetic, and no intermediate activation may ever touch external
//! memory. Every expected figure here is recomputed from the tile geometry
//! and the layer shape alone — never through the ledger's own helpers — so
//! a wrong ledger formula cannot vouch for itself. The identities are
//! checked on MobileNetV1 (Dsc stages) and MobileNetV2 (PwcOnly expand and
//! residual-add stages), for single images and for a weight-resident batch
//! of two.

use edea_core::accelerator::Edea;
use edea_core::baseline::roundtrip_external_traffic;
use edea_core::plan::LayerPlan;
use edea_core::schedule::WeightResidency;
use edea_core::scratch::TileScratch;
use edea_core::stats::LayerStats;
use edea_nn::executor;
use edea_nn::workload::StageOp;
use edea_tensor::{rng, Batch, Tensor3};
use edea_testutil::{batch_inputs, deploy, deploy_v2, paper_edea, TestDeployment};
use proptest::prelude::*;

/// Checks every identity for one layer's statistics over a batch of
/// `stats.batch` images run under `residency`; `one` is the same layer run
/// on a single image.
fn check_layer_identities(
    edea: &Edea,
    stats: &LayerStats,
    one: &LayerStats,
    residency: WeightResidency,
) {
    let s = stats.shape;
    let i = s.index;
    let t = edea.config().tile;
    let n = stats.batch as u64;
    let out = s.out_spatial() as u64;
    let tile_bytes = (t.tn * t.tm * t.td) as u64;

    // 0. Engine busy cycles from the loop nest alone: the 2×2 spatial
    //    tiles partition the ofmap, the DWC fires once per spatial tile and
    //    channel pass, the PWC once more per kernel tile.
    let passes = (s.d_in / t.td) as u64;
    let kernel_tiles = (s.k_out / t.tk) as u64;
    let spatial_tiles = (out / t.tn as u64) * (out / t.tm as u64);
    let dwc_busy = match s.op {
        StageOp::Dsc => passes * spatial_tiles,
        StageOp::PwcOnly => 0,
    };
    let pwc_busy = passes * spatial_tiles * kernel_tiles;
    assert_eq!(stats.breakdown.dwc_busy, dwc_busy, "layer {i}: dwc_busy");
    assert_eq!(stats.breakdown.pwc_busy, pwc_busy, "layer {i}: pwc_busy");

    // 1. The intermediate buffer is written exactly once per DWC engine
    //    invocation (one Tn×Tm×Td tile per busy cycle), and read exactly
    //    once per PWC invocation. A PwcOnly stage bypasses it entirely.
    let (inter_writes, inter_reads) = match s.op {
        StageOp::Dsc => (n * dwc_busy * tile_bytes, n * pwc_busy * tile_bytes),
        StageOp::PwcOnly => (0, 0),
    };
    assert_eq!(
        stats.intermediate.writes, inter_writes,
        "layer {i}: intermediate writes != dwc_busy × tile"
    );
    assert_eq!(
        stats.intermediate.reads, inter_reads,
        "layer {i}: intermediate reads != pwc_busy × tile"
    );

    // 2. The La dataflow re-reads each written tile once per kernel tile:
    //    reads = Kt × writes.
    assert_eq!(
        stats.intermediate.reads,
        kernel_tiles * stats.intermediate.writes,
        "layer {i}: reads != Kt × writes"
    );

    // 3. The spatial tiles partition the output exactly, so the bytes
    //    written equal the intermediate map size (D × out²) per image —
    //    nothing is double-buffered or recomputed on the DWC side.
    if s.op == StageOp::Dsc {
        assert_eq!(
            stats.intermediate.writes,
            n * s.d_in as u64 * out * out,
            "layer {i}: writes != |mid|"
        );
    }

    // 4. Direct data transfer: the ONLY external writes are the final
    //    layer outputs, n·K·out². The intermediate map never leaves the
    //    chip.
    assert_eq!(
        stats.external.writes,
        n * s.k_out as u64 * out * out,
        "layer {i}: external writes must be the ofmap alone"
    );

    // 5. Removing the buffer would cost `roundtrip_external_traffic`
    //    extra external bytes per image — and that figure is exactly the
    //    traffic the buffer absorbed on-chip.
    assert_eq!(
        n * roundtrip_external_traffic(&s),
        stats.intermediate.writes + stats.intermediate.reads,
        "layer {i}: baseline round-trip must equal absorbed traffic"
    );

    // 6. Every PWC invocation writes one Tk×Tn×Tm word of 4-byte psums.
    assert_eq!(
        stats.psum.writes,
        n * pwc_busy * (t.tk * t.tn * t.tm * 4) as u64,
        "layer {i}: psum writes != n·pwc_busy·Tk·Tn·Tm·4"
    );

    // 7. Resident weights: a batch fetches its weights and offline
    //    parameters once — exactly the single-image figure.
    assert_eq!(one.batch, 1);
    if residency == WeightResidency::PerBatch {
        assert_eq!(
            stats.external.weight_reads + stats.external.param_reads,
            one.external.weight_reads + one.external.param_reads,
            "layer {i}: resident weight + param reads != batch-1 figure"
        );
    }
}

/// Every identity for one deployed MobileNetV1, checked layer by layer on
/// a single image (per-image residency) and on a resident batch of two.
fn check_network_accounting(width: f64, seed: u64) {
    let d: TestDeployment = deploy(width, seed);
    let edea = paper_edea();
    let pair = batch_inputs(&d, 2, seed + 2);
    let mut x = d.input.clone();
    let mut xs: Vec<Tensor3<i8>> = vec![d.input.clone(), pair[1].clone()];
    let mut scratch = TileScratch::new();
    for layer in d.qnet.layers() {
        let s = layer.shape();
        let plan = LayerPlan::new(layer, edea.config()).unwrap();
        let mut run = |inputs: &[Tensor3<i8>], residency| {
            edea.run_layer_planned(layer, &plan, inputs, residency, &mut scratch)
                .expect("layer runs")
        };
        let one = run(std::slice::from_ref(&x), WeightResidency::PerImage);
        let two = run(&xs, WeightResidency::PerBatch);
        check_layer_identities(&edea, &one.stats, &one.stats, WeightResidency::PerImage);
        check_layer_identities(&edea, &two.stats, &one.stats, WeightResidency::PerBatch);

        // 8. The simulator's intermediate map is bit-exact with the golden
        //    executor's (the data the accounting describes is also
        //    correct), and batching changes no image's data.
        let golden = executor::run_layer(layer, &x);
        assert_eq!(
            one.pwc_inputs[0], golden.pwc_input,
            "layer {}: mid map mismatch",
            s.index
        );
        assert_eq!(
            one.outputs[0], golden.output,
            "layer {}: output mismatch",
            s.index
        );
        assert_eq!(two.outputs[0], one.outputs[0], "layer {}", s.index);

        x = one.outputs.into_iter().next().unwrap();
        xs = two.outputs;
    }
}

#[test]
fn intermediate_accounting_exact_over_all_13_layers() {
    check_network_accounting(0.25, 11);
}

#[test]
fn v2_accounting_exact_over_every_stage() {
    // PwcOnly expand stages (no DWC, no intermediate buffer) and
    // residual-add stages (an extra external ifmap stream), through the
    // network path that carries the residual maps.
    let d = deploy_v2(0.25, 13);
    let extra = rng::synthetic_batch(1, 3, 32, 32, 15);
    let second = d.qnet.quantize_input(&d.model.forward_stem(&extra[0]));
    let edea = paper_edea();
    let one = edea
        .run_batch(&d.qnet, &Batch::new(vec![d.input.clone()]).unwrap())
        .unwrap();
    let two = edea
        .run_batch(&d.qnet, &Batch::new(vec![d.input.clone(), second]).unwrap())
        .unwrap();
    assert!(one
        .stats
        .layers
        .iter()
        .any(|l| l.shape.op == StageOp::PwcOnly));
    assert!(one.stats.layers.iter().any(|l| l.shape.residual_add));
    for (a, b) in one.stats.layers.iter().zip(&two.stats.layers) {
        check_layer_identities(&edea, a, a, WeightResidency::PerBatch);
        check_layer_identities(&edea, b, a, WeightResidency::PerBatch);
    }
    assert_eq!(two.outputs[0], one.outputs[0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The accounting identities are properties of the schedule, not of one
    /// particular network: they must hold for any deployed network.
    #[test]
    fn intermediate_accounting_holds_for_random_deployments(seed in 0u64..10_000) {
        check_network_accounting(0.25, seed);
    }
}
