//! End-to-end integration: deploy-time flow → accelerator simulation →
//! golden-model equivalence, across the crate boundaries.

use edea::nn::executor;
use edea::nn::quantize::QuantizedDscNetwork;
use edea::tensor::Tensor3;
use edea::{Edea, EdeaConfig};
use edea_testutil::TestDeployment;

fn deploy(width: f64, seed: u64) -> (QuantizedDscNetwork, Tensor3<i8>) {
    let TestDeployment { qnet, input, .. } = edea_testutil::deploy(width, seed);
    (qnet, input)
}

#[test]
fn accelerator_is_bit_exact_over_whole_network() {
    let (qnet, input) = deploy(0.25, 100);
    let edea = Edea::new(EdeaConfig::paper()).unwrap();
    let run = edea.run_network(&qnet, &input).expect("run");
    let golden = executor::run_network(&qnet, &input);
    assert_eq!(run.output, golden.output, "final feature maps differ");
    for (i, (a, b)) in run.stats.layers.iter().zip(&golden.activities).enumerate() {
        assert!(
            (a.mid_zero - b.dwc_out_zero).abs() < 1e-12,
            "layer {i} mid zeros"
        );
        assert!(
            (a.out_zero - b.pwc_out_zero).abs() < 1e-12,
            "layer {i} out zeros"
        );
    }
}

#[test]
fn accelerator_is_bit_exact_on_every_single_layer() {
    // Feed each layer an independently generated (executor-produced) input
    // so a cancellation in one layer cannot mask a bug in another.
    let (qnet, input) = deploy(0.25, 200);
    let edea = Edea::new(EdeaConfig::paper()).unwrap();
    let mut x = input;
    for (i, layer) in qnet.layers().iter().enumerate() {
        let golden = executor::run_layer(layer, &x);
        let run = edea.run_layer(layer, &x).expect("layer run");
        assert_eq!(run.pwc_input, golden.pwc_input, "layer {i} intermediate");
        assert_eq!(run.output, golden.output, "layer {i} output");
        x = golden.output;
    }
}

#[test]
fn different_seeds_and_widths_stay_bit_exact() {
    for (width, seed) in [(0.25, 7), (0.5, 8)] {
        let (qnet, input) = deploy(width, seed);
        let edea = Edea::new(EdeaConfig::paper()).unwrap();
        let run = edea.run_layer(&qnet.layers()[0], &input).expect("run");
        let golden = executor::run_layer(&qnet.layers()[0], &input);
        assert_eq!(run.output, golden.output, "width {width} seed {seed}");
    }
}

#[test]
fn cycle_counts_are_identical_across_models() {
    // Three independent models of time — the analytic Eq. 1/Eq. 2, the
    // clocked pipeline, and the functional scheduler — must agree cycle-
    // for-cycle on every layer.
    let (qnet, input) = deploy(0.25, 300);
    let cfg = EdeaConfig::paper();
    let edea = Edea::new(cfg.clone()).unwrap();
    let run = edea.run_network(&qnet, &input).expect("run");
    for s in &run.stats.layers {
        let analytic = edea::core::timing::layer_cycles(&s.shape, &cfg);
        let clocked = edea::core::pipeline::simulate_layer(&s.shape, &cfg, 0);
        assert_eq!(
            s.cycles,
            analytic.total(),
            "functional vs analytic, layer {}",
            s.shape.index
        );
        if analytic.kernel_tiles >= 3 {
            // Bubble-free regime (every real MobileNetV1 layer): all three
            // models agree exactly.
            assert_eq!(
                clocked.total_cycles,
                analytic.total(),
                "clocked vs analytic, layer {}",
                s.shape.index
            );
        } else {
            // Narrow-K layers (this width-0.25 test model only): the clocked
            // pipeline exposes intermediate-buffer stalls that Eq. 1 does
            // not model.
            assert!(
                clocked.total_cycles >= analytic.total(),
                "layer {}",
                s.shape.index
            );
        }
    }
}

#[test]
fn external_traffic_excludes_intermediate_map() {
    // The architectural point of the paper: the intermediate map never
    // crosses the external interface.
    let (qnet, input) = deploy(0.25, 400);
    let edea = Edea::new(EdeaConfig::paper()).unwrap();
    let run = edea.run_network(&qnet, &input).expect("run");
    for s in &run.stats.layers {
        // External writes are exactly the ofmap.
        assert_eq!(
            s.external.writes,
            s.shape.ofmap_elems(),
            "layer {}",
            s.shape.index
        );
        // And the intermediate traffic lives entirely on chip.
        assert_eq!(
            s.intermediate.writes,
            s.shape.intermediate_elems(),
            "layer {}",
            s.shape.index
        );
    }
}

#[test]
fn q8_16_nonconv_matches_float_reference_within_one_lsb() {
    // Cross-crate property: the fixed-point Non-Conv path (edea-fixed ->
    // edea-nn fold) agrees with an f64 reference on every intermediate
    // element of a real layer.
    let (qnet, input) = deploy(0.25, 500);
    let layer = &qnet.layers()[0];
    let acc = edea::tensor::conv::depthwise_conv2d_i8(
        &input,
        layer.dw_weights().values(),
        layer.shape().stride,
        layer.shape().pad,
    );
    for ((c, h, w), &a) in acc.indexed_iter() {
        let hw = layer.nonconv1()[c].apply_fixed(a, 0);
        let exact = layer.nonconv1()[c].apply_exact(a, 0);
        assert!(
            (i32::from(hw) - i32::from(exact)).abs() <= 1,
            "({c},{h},{w}): {hw} vs {exact}"
        );
    }
}

#[test]
fn network_statistics_aggregate_consistently() {
    let (qnet, input) = deploy(0.25, 600);
    let edea = Edea::new(EdeaConfig::paper()).unwrap();
    let run = edea.run_network(&qnet, &input).expect("run");
    let sum: u64 = run.stats.layers.iter().map(|l| l.cycles).sum();
    assert_eq!(run.stats.total_cycles(), sum);
    let macs: u64 = run.stats.layers.iter().map(|l| l.total_macs()).sum();
    assert_eq!(run.stats.total_macs(), macs);
    assert!(run.stats.average_gops(edea.config()) > 0.0);
}
