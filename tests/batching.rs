//! Batched multi-image inference: edge cases of the weight-residency
//! schedule against the per-image path and the golden executor.
//!
//! The contract under test: batching changes *when* weight tiles cross the
//! external interface (once per batch instead of once per image), never
//! *what* is computed — so a batch of one is bit-identical to the
//! unbatched path, every batched output matches the golden executor, and
//! external weight reads do not scale with `N`.

use edea::core::accelerator::{BatchRun, NetworkRun};
use edea::nn::executor;
use edea::tensor::Batch;
use edea_testutil::{batch_inputs, deploy, deploy_and_run_batch, deploy_v2, paper_edea};

/// A batch of one and the unbatched path agree on the output and on every
/// statistic — cycles, activities, all five traffic categories.
fn assert_batch_of_one_matches(batch: &BatchRun, single: &NetworkRun) {
    assert_eq!(batch.outputs[0], single.output, "outputs diverged");
    assert_eq!(batch.stats.batch, 1);
    assert_eq!(batch.stats.total_cycles(), single.stats.total_cycles());
    assert_eq!(batch.stats.layers.len(), single.stats.layers.len());
    for (b, s) in batch.stats.layers.iter().zip(&single.stats.layers) {
        assert_eq!(b, s, "layer {} stats diverged", s.shape.index);
    }
}

#[test]
fn batch_of_one_is_bit_identical_to_unbatched_path() {
    let (d, inputs, batch) = deploy_and_run_batch(0.25, 501, 1);
    let single = paper_edea()
        .run_network(&d.qnet, &inputs[0])
        .expect("network runs");
    assert_batch_of_one_matches(&batch, &single);

    // MobileNetV2: PwcOnly stages and the residual save→add hand-off.
    let v2 = deploy_v2(0.25, 506);
    let edea = paper_edea();
    let inputs = Batch::new(vec![v2.input.clone()]).expect("one image");
    let batch = edea.run_batch(&v2.qnet, &inputs).expect("batched v2 runs");
    let single = edea.run_network(&v2.qnet, &v2.input).expect("v2 runs");
    assert!(single.stats.layers.iter().any(|l| l.shape.residual_add));
    assert_batch_of_one_matches(&batch, &single);
}

#[test]
fn batched_outputs_match_golden_executor() {
    let (d, inputs, batch) = deploy_and_run_batch(0.25, 502, 3);
    assert_eq!(batch.outputs.len(), inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        let golden = executor::run_network(&d.qnet, input);
        assert_eq!(
            batch.outputs[i], golden.output,
            "image {i}: batch vs golden"
        );
    }
}

#[test]
fn batched_weight_reads_equal_unbatched_not_n_times() {
    let (d, inputs, batch) = deploy_and_run_batch(0.25, 503, 4);
    let single = paper_edea()
        .run_network(&d.qnet, &inputs[0])
        .expect("network runs");
    for (b, s) in batch.stats.layers.iter().zip(&single.stats.layers) {
        let i = s.shape.index;
        // Weight and offline-parameter fetches: once per batch.
        assert_eq!(
            b.external.weight_reads, s.external.weight_reads,
            "layer {i}"
        );
        assert_eq!(b.external.param_reads, s.external.param_reads, "layer {i}");
        // Per-image streams: exactly N×.
        assert_eq!(
            b.external.ifmap_reads,
            4 * s.external.ifmap_reads,
            "layer {i}"
        );
        assert_eq!(b.external.writes, 4 * s.external.writes, "layer {i}");
    }
    // Network-level: weight bytes per image strictly decrease vs N=1.
    let per_image_weights = single.stats.external_weight_total() as f64;
    assert!(batch.stats.weight_bytes_per_image() < per_image_weights);
    assert!((batch.stats.weight_bytes_per_image() - per_image_weights / 4.0).abs() < 1e-9);
}

#[test]
fn weight_traffic_per_image_strictly_decreases_in_n() {
    let d = deploy(0.25, 504);
    let edea = paper_edea();
    let mut last = f64::INFINITY;
    for n in [1usize, 2, 4] {
        let inputs = batch_inputs(&d, n, 505);
        let run = edea.run_batch(&d.qnet, &inputs).expect("batched run");
        let w = run.stats.weight_bytes_per_image();
        assert!(w < last, "N={n}: {w} not below {last}");
        // Cycles per image are batch-invariant (initiation-bound).
        assert_eq!(
            run.stats.cycles_per_image(),
            edea.run_network(&d.qnet, &inputs[0])
                .expect("single run")
                .stats
                .total_cycles()
        );
        last = w;
    }
}
