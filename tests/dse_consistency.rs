//! Cross-validation of the DSE analytical access models (paper Table II)
//! against the functional simulator's actual buffer counters.

use edea::core::schedule::WeightResidency;
use edea::dse::access::layer_access;
use edea::dse::{LoopOrder, TileConfig};
use edea::mobilenet_v1_cifar10;
use edea::nn::mobilenet::MobileNetV1;
use edea::nn::quantize::{QuantStrategy, QuantizedDscNetwork};
use edea::nn::sparsity::SparsityProfile;
use edea::tensor::rng;
use edea::{Edea, EdeaConfig};

#[test]
fn table2_equations_match_simulator_counters() {
    // The DSE's Table II access model and the cycle-level simulator were
    // written independently; on a real execution they must agree:
    //  * DWC activation reads  = ifmap-buffer reads,
    //  * PWC activation reads  = intermediate-buffer reads,
    //  * DWC weight traffic    = external weight fetch (all layers),
    //  * PWC weight traffic    = external weight fetch (single-portion
    //    layers, where the portion re-fetch does not apply).
    let mut model = MobileNetV1::synthetic(0.25, 77);
    let calib = rng::synthetic_batch(1, 3, 32, 32, 78);
    let (qnet, _) = QuantizedDscNetwork::calibrate_shaped(
        &mut model,
        &calib,
        &SparsityProfile::paper(),
        QuantStrategy::paper(),
    )
    .unwrap();
    let edea = Edea::new(EdeaConfig::paper()).unwrap();
    let input = qnet.quantize_input(&model.forward_stem(&calib[0]));
    let run = edea.run_network(&qnet, &input).unwrap();
    let cfg = TileConfig::edea();

    for s in &run.stats.layers {
        let model = layer_access(&s.shape, &cfg, LoopOrder::La);
        let i = s.shape.index;
        // Intermediate (PWC input) re-reads: N·M·D·K/Tk.
        assert_eq!(model.pwc_act, s.intermediate.reads, "layer {i} pwc act");
        // External weight traffic is exactly the DWC kernels (fetched once,
        // H·W·D) plus the PWC slice re-fetched per portion × channel pass.
        let pwc_slice_ext =
            s.breakdown.portions * s.breakdown.channel_passes * (cfg.td * s.shape.k_out) as u64;
        assert_eq!(
            s.external.weight_reads,
            model.dwc_weight + pwc_slice_ext,
            "layer {i} weight stream"
        );
        if s.breakdown.portions == 1 {
            // Single-portion layers: PWC weights also fetched exactly once
            // per channel slice → D·K external bytes.
            let pwc_w_ext = s.breakdown.channel_passes * 8 * s.shape.k_out as u64;
            assert_eq!(model.pwc_weight, pwc_w_ext, "layer {i} pwc wgt");
        }
    }
}

#[test]
fn dwc_activation_model_matches_ifmap_buffer_reads() {
    // Table II DWC act = Tr·Tc·Td·spatial_tiles·channel_tiles — exactly the
    // per-tile window reads the simulator issues against the ifmap buffer.
    let mut model = MobileNetV1::synthetic(0.25, 79);
    let calib = rng::synthetic_batch(1, 3, 32, 32, 80);
    let (qnet, _) = QuantizedDscNetwork::calibrate_shaped(
        &mut model,
        &calib,
        &SparsityProfile::paper(),
        QuantStrategy::paper(),
    )
    .unwrap();
    let edea = Edea::new(EdeaConfig::paper()).unwrap();
    let input = qnet.quantize_input(&model.forward_stem(&calib[0]));
    let run = edea.run_network(&qnet, &input).unwrap();
    let cfg = TileConfig::edea();
    for s in &run.stats.layers {
        let m = layer_access(&s.shape, &cfg, LoopOrder::La);
        let ifmap_reads = s.onchip.reads
            - s.intermediate.reads
            - s.psum.reads
            - s.breakdown.pwc_busy * 128 // pwc weight-buffer reads
            - s.breakdown.portions * s.breakdown.channel_passes * (72 + 48); // dwc wgt + offline
        assert_eq!(m.dwc_act, ifmap_reads, "layer {}", s.shape.index);
    }
}

#[test]
fn fig3_elimination_equals_simulator_intermediate_traffic() {
    // The accesses Fig. 3 eliminates (one write + one read per intermediate
    // element) are exactly the traffic the simulator keeps on chip — its
    // intermediate-buffer writes (the reads are amplified K/Tk-fold, which
    // is the La re-read the buffer absorbs on top).
    let layers = mobilenet_v1_cifar10();
    let mut model = MobileNetV1::synthetic(1.0, 81);
    // Only check shapes/counters — use the analytic stats for width 1.0.
    for l in &layers {
        let s = edea::core::stats::synthetic_layer_stats(
            l,
            &EdeaConfig::paper(),
            1,
            WeightResidency::PerImage,
            0.5,
            0.5,
            0.5,
        );
        assert_eq!(s.intermediate.writes, l.intermediate_elems());
        assert_eq!(
            s.intermediate.reads,
            l.intermediate_elems() * (l.k_out as u64 / 16)
        );
    }
    // Keep the width-1.0 model alive so the test exercises its construction.
    assert_eq!(model.blocks_mut().len(), 13);
}
