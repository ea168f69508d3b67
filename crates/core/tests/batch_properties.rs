//! Property tests of the batched weight-residency accounting.
//!
//! The invariant the batch extension rests on: under
//! [`WeightResidency::PerBatch`], external weight (and offline-parameter)
//! reads of a batch of any size equal the unbatched reads exactly — not
//! `N×` — while every per-image stream (ifmap reads, ofmap writes, engine
//! traffic, cycles) scales exactly `N×`. Checked both on the analytic
//! accounting over every full-size layer shape and on the functional
//! simulator over random deployments.

use edea_core::schedule::WeightResidency;
use edea_core::stats::synthetic_layer_stats;
use edea_core::EdeaConfig;
use edea_nn::workload::mobilenet_v1_cifar10;
use edea_testutil::{batch_inputs, deploy, paper_edea};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Analytic accounting: for any layer shape of the workload and any
    /// batch size, resident weight reads equal the unbatched reads and
    /// per-image streams scale exactly N×.
    #[test]
    fn batched_weight_reads_equal_unbatched(layer in 0usize..13, n in 1usize..32) {
        let cfg = EdeaConfig::paper();
        let shape = mobilenet_v1_cifar10()[layer];
        let one = synthetic_layer_stats(
            &shape, &cfg, 1, WeightResidency::PerBatch, 0.3, 0.5, 0.6);
        let batch = synthetic_layer_stats(
            &shape, &cfg, n, WeightResidency::PerBatch, 0.3, 0.5, 0.6);
        prop_assert_eq!(batch.external.weight_reads, one.external.weight_reads);
        prop_assert_eq!(batch.external.param_reads, one.external.param_reads);
        prop_assert_eq!(batch.external.ifmap_reads, n as u64 * one.external.ifmap_reads);
        prop_assert_eq!(batch.external.writes, n as u64 * one.external.writes);
        prop_assert_eq!(batch.cycles, n as u64 * one.cycles);
        prop_assert_eq!(batch.intermediate.reads, n as u64 * one.intermediate.reads);
        prop_assert_eq!(batch.psum.writes, n as u64 * one.psum.writes);
    }

    /// The baseline residency really is the N× straw man the sweep
    /// compares against.
    #[test]
    fn per_image_residency_is_n_times(layer in 0usize..13, n in 1usize..32) {
        let cfg = EdeaConfig::paper();
        let shape = mobilenet_v1_cifar10()[layer];
        let one = synthetic_layer_stats(
            &shape, &cfg, 1, WeightResidency::PerImage, 0.3, 0.5, 0.6);
        let batch = synthetic_layer_stats(
            &shape, &cfg, n, WeightResidency::PerImage, 0.3, 0.5, 0.6);
        prop_assert_eq!(batch.external.weight_reads, n as u64 * one.external.weight_reads);
        prop_assert_eq!(batch.external.param_reads, n as u64 * one.external.param_reads);
        prop_assert_eq!(batch.external.total(), n as u64 * one.external.total());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Functional simulator: the property holds on real executions of
    /// randomly-seeded deployments, not just on the analytic model.
    #[test]
    fn functional_batched_weight_reads_equal_unbatched(seed in 0u64..10_000, n in 2usize..4) {
        let d = deploy(0.25, seed);
        let edea = paper_edea();
        let inputs = batch_inputs(&d, n, seed ^ 0xba7c);
        let batch = edea.run_batch(&d.qnet, &inputs).expect("batched run");
        let single = edea.run_network(&d.qnet, &inputs[0]).expect("single run");
        for (b, s) in batch.stats.layers.iter().zip(&single.stats.layers) {
            prop_assert_eq!(b.external.weight_reads, s.external.weight_reads);
            prop_assert_eq!(b.external.param_reads, s.external.param_reads);
            prop_assert_eq!(b.external.ifmap_reads, n as u64 * s.external.ifmap_reads);
            prop_assert_eq!(b.external.writes, n as u64 * s.external.writes);
        }
    }
}
