//! Allocation-regression guard for the simulator's scratch-buffer tile
//! pipeline and the pool dispatch loop: the steady-state tile loop must
//! perform **zero** heap allocations, a warm layer run must allocate only
//! per-image output structures — never per tile — and the pool's
//! steady-state dispatch machinery must add only a small, stable,
//! per-batch constant on top of the backend run (never per tick or per
//! queue entry). Part 4 pins the scoped thread pool: a warm 2-lane layer
//! run allocates only a small, stable, per-region constant (the scoped
//! spawn plus per-lane buffers), never per tile. Part 5 pins telemetry:
//! a `Disabled` sink adds exactly zero allocations to the serve path,
//! and a warm enabled recorder settles to a stable per-batch constant.
//! Part 6 pins the network loop: a warm planned forward allocates a
//! stable count bounded by what it returns — each layer's output map and
//! its vector, the layer's portion list, the stats vector — and no
//! whole-layer intermediate map or padded input copy.
//!
//! The whole guard lives in one `#[test]` because the counting allocator
//! is process-wide and the default harness runs tests of one binary
//! concurrently.

use edea_core::par::Parallelism;
use edea_core::plan::LayerPlan;
use edea_core::pool::{DispatchPolicy, Dispatcher, Pool};
use edea_core::schedule::{portions, Portion, WeightResidency};
use edea_core::scratch::TileScratch;
use edea_core::serve::{arrivals, AnalyticBackend, Backend, Policy, SimulatorBackend};
use edea_core::EdeaConfig;
use edea_core::{
    engine::{DwcEngine, PwcEngine, WeightSlice},
    nonconv::NonConvUnit,
    Edea,
};
use edea_nn::workload::mobilenet_v1_cifar10;
use edea_tensor::Tensor3;
use edea_testutil::alloc::CountingAllocator;
use edea_testutil::{batch_inputs, deploy, zero_requests};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn steady_state_tile_pipeline_does_not_allocate() {
    let cfg = EdeaConfig::paper();
    let d = deploy(0.25, 77);
    let layer = &d.qnet.layers()[0]; // d_in 8, k_out 16, 32×32 ofmap

    // Parts 1–3 measure the serial reference path, so pin it explicitly —
    // the per-tile/per-batch bounds below assume no scoped threads are
    // spawned (CI also runs this suite under EDEA_THREADS=4; part 4 covers
    // the parallel path with its own bound).
    let edea = Edea::new(cfg.clone())
        .unwrap()
        .with_parallelism(Parallelism::serial());

    // --- Part 1: the per-tile pipeline itself allocates exactly zero. ---
    // Drive the DWC → Non-Conv → PWC chain one engine cycle at a time —
    // each kernel at the extent of one 2×2 tile — over warm scratch
    // buffers, reading the padded layer input in place.
    let dwc = DwcEngine::new(&cfg);
    let pwc = PwcEngine::new(&cfg);
    let dw = d.qnet.layers()[0].dw_weights().values().kernel_slice(0, 8);
    let dw = WeightSlice::new(dw.as_slice());
    let pw = d.qnet.layers()[0]
        .pw_weights()
        .values()
        .channel_slice(0, 8)
        .kernel_slice(0, 16);
    // The pointwise tile input-channel-major, as the plan lays it out.
    let mut pw_t = vec![0i8; 8 * 16];
    for k in 0..16 {
        for c in 0..8 {
            pw_t[c * 16 + k] = pw[(k, c, 0, 0)];
        }
    }
    let nonconv1 = d.qnet.layers()[0].nonconv1();
    let mut acc = Tensor3::<i32>::zeros(1, 1, 1);
    let mut mid = Tensor3::<i8>::zeros(8, 2, 2);
    let mut partial = [0i32; 4 * 16];
    let mut tile = |row0: usize, col0: usize, acc: &mut Tensor3<i32>| {
        let tile = Portion {
            row0,
            col0,
            rows: 2,
            cols: 2,
        };
        dwc.compute_portion_into(&d.input, 0, dw, &tile, 1, 1, acc)
            .unwrap();
        NonConvUnit
            .apply(acc, nonconv1, 0, None, mid.as_mut_slice())
            .unwrap();
        partial.fill(0);
        pwc.accumulate_portion(&mid, WeightSlice::new(&pw_t), &mut partial)
            .unwrap();
    };
    // Warm-up grows every buffer to its steady-state shape.
    tile(0, 0, &mut acc);
    let before = CountingAllocator::allocations();
    for i in 0..256usize {
        let (r, c) = ((i / 16) * 2, (i % 16) * 2);
        tile(r, c, &mut acc);
    }
    let per_tile = CountingAllocator::allocations() - before;
    assert_eq!(
        per_tile, 0,
        "steady-state tile pipeline allocated {per_tile} times over 256 tiles"
    );

    // --- Part 1b: the portion pipeline — the accelerator's hot path —
    // is just as allocation-free, dense and ~90 %-zero. ---
    // One 8×8 portion's channel pass per step: the DWC portion kernel
    // over the input in place (padding as it stages), Non-Conv #1 into
    // the mid slab and the PWC accumulate over the input-channel-major
    // weights, exactly as run_portion drives them.
    let mut sparse_input = d.input.clone();
    for (i, v) in sparse_input.as_mut_slice().iter_mut().enumerate() {
        if i % 8 != 0 {
            *v = 0;
        }
    }
    let mut pw_sparse = pw_t.clone();
    for (i, v) in pw_sparse.iter_mut().enumerate() {
        if i % 3 == 0 {
            *v = 0;
        }
    }
    let mut portion_acc = Tensor3::<i32>::zeros(1, 1, 1);
    let mut mid_slab = Tensor3::<i8>::zeros(8, 8, 8);
    let mut psum = vec![0i32; 64 * 16];
    for (name, src) in [("dense", &d.input), ("zero-skipping", &sparse_input)] {
        let mut step = |row0: usize, col0: usize| {
            let portion = Portion {
                row0,
                col0,
                rows: 8,
                cols: 8,
            };
            dwc.compute_portion_into(src, 0, dw, &portion, 1, 1, &mut portion_acc)
                .unwrap();
            NonConvUnit
                .apply(&portion_acc, nonconv1, 0, None, mid_slab.as_mut_slice())
                .unwrap();
            pwc.accumulate_portion(&mid_slab, WeightSlice::new(&pw_sparse), &mut psum)
                .unwrap();
        };
        step(0, 0);
        let before = CountingAllocator::allocations();
        for i in 0..256usize {
            step((i / 4 % 4) * 8, (i % 4) * 8);
        }
        let per_portion = CountingAllocator::allocations() - before;
        assert_eq!(
            per_portion, 0,
            "{name} portion pipeline allocated {per_portion} times over 256 portion steps"
        );
    }

    // --- Part 2: a warm planned layer run allocates only a small, stable,
    // per-image set of output structures — not one per tile. ---
    let plan = LayerPlan::new(layer, &cfg).unwrap();
    let mut scratch = TileScratch::new();
    let inputs = batch_inputs(&d, 2, 79);
    let run = |n: usize, scratch: &mut TileScratch| {
        edea.run_layer_planned(
            layer,
            &plan,
            &inputs.images()[..n],
            WeightResidency::PerBatch,
            scratch,
        )
        .unwrap()
    };
    // Warm the scratch for the larger batch first.
    let _ = run(2, &mut scratch);
    let count_allocs = |n: usize, scratch: &mut TileScratch| {
        let before = CountingAllocator::allocations();
        let out = run(n, scratch);
        let allocs = CountingAllocator::allocations() - before;
        drop(out);
        allocs
    };
    let one_a = count_allocs(1, &mut scratch);
    let one_b = count_allocs(1, &mut scratch);
    let two = count_allocs(2, &mut scratch);
    assert_eq!(
        one_a, one_b,
        "warm runs must have a stable allocation count"
    );
    // Layer 0 at width 0.25 runs 16 portions (256 spatial tiles) per
    // image: if even one allocation per portion slipped back in, the
    // count would reach 16.
    assert!(
        one_a < 16,
        "warm single-image layer run allocated {one_a} times (16 portions)"
    );
    // Doubling the batch doubles the tile work; the allocation count may
    // grow only by the per-image output set.
    assert!(
        two - one_a < 32,
        "batch of 2 allocated {two}, batch of 1 {one_a}: per-tile allocation crept back in"
    );

    // --- Part 3: the pool dispatch loop in steady state adds only a
    // small, stable, per-batch constant on top of the backend run. ---
    // The analytic backend's run is a handful of allocations (one
    // placeholder tensor per image plus the batch), so driving it through
    // a 2-worker pool isolates the dispatcher's own footprint: routing
    // decisions, queue moves and clock advances must allocate nothing —
    // only the per-batch record/response structures and the backend's
    // outputs may. With batch-of-1 dispatches, anything per-tick or
    // per-queue-entry would blow the per-batch bound immediately.
    let backend = AnalyticBackend::new(&mobilenet_v1_cifar10(), &cfg).unwrap();
    let pool = Pool::replicate(backend.clone(), 2)
        .unwrap()
        .with_parallelism(Parallelism::serial());
    let dispatcher = Dispatcher::new(
        Policy::new(1, 0).unwrap(),
        DispatchPolicy::JoinShortestQueue,
    );
    let shape = backend.input_shape();
    let serve_allocs = |n_requests: usize| {
        // Build the request stream outside the measured window.
        let ticks = arrivals::uniform(n_requests, 1_000);
        let requests = zero_requests(shape, &ticks);
        let before = CountingAllocator::allocations();
        let report = dispatcher.serve(&pool, requests).unwrap();
        let allocs = CountingAllocator::allocations() - before;
        assert_eq!(report.serve.batches.len(), n_requests, "batch-of-1 policy");
        drop(report);
        allocs
    };
    // Warm-up, then measure: identical streams must allocate identically
    // (the dispatch loop holds no hidden growing state)…
    let _ = serve_allocs(8);
    let eight_a = serve_allocs(8);
    let eight_b = serve_allocs(8);
    assert_eq!(
        eight_a, eight_b,
        "pool serve must have a stable allocation count"
    );
    // …and doubling the batches at most doubles the count: the marginal
    // cost of 8 more single-request dispatches is bounded by a small
    // per-batch constant (response + batch record + assignment + the
    // backend's placeholder output), nowhere near a per-tick loop.
    let sixteen = serve_allocs(16);
    let per_batch = (sixteen - eight_a) / 8;
    assert!(
        per_batch <= 16,
        "pool dispatch allocates {per_batch} per batch ({eight_a} for 8, {sixteen} for 16)"
    );

    // --- Part 4: the scoped thread pool in steady state adds only a
    // small, stable, per-region constant — never per tile. ---
    // A 2-lane planned layer run spawns one scoped thread per region and
    // gives each lane a warm lane-private scratch and its own portion
    // slots, so after warm-up the only allocations left are the spawn
    // itself, the per-lane batch buffers and the per-image output set.
    // Per-tile allocation creeping into the *parallel* loop would clear
    // the 256-tile bound immediately; instability across identical warm
    // runs would betray hidden growing state in the lane machinery.
    let threaded = Edea::new(cfg.clone())
        .unwrap()
        .with_parallelism(Parallelism::new(2).unwrap());
    let mut par_scratch = TileScratch::new();
    let par_run = |n: usize, scratch: &mut TileScratch| {
        threaded
            .run_layer_planned(
                layer,
                &plan,
                &inputs.images()[..n],
                WeightResidency::PerBatch,
                scratch,
            )
            .unwrap()
    };
    // Warm twice: the first run grows the lane scratches and portion
    // slots, the second settles any thread-runtime one-offs (TLS, stack
    // caches) so the measured window sees only the steady state.
    let _ = par_run(2, &mut par_scratch);
    let _ = par_run(2, &mut par_scratch);
    let count_par = |n: usize, scratch: &mut TileScratch| {
        let before = CountingAllocator::allocations();
        let out = par_run(n, scratch);
        let allocs = CountingAllocator::allocations() - before;
        drop(out);
        allocs
    };
    let warm_a = count_par(2, &mut par_scratch);
    let warm_b = count_par(2, &mut par_scratch);
    assert_eq!(
        warm_a, warm_b,
        "warm 2-lane runs must have a stable allocation count"
    );
    // 2 images × 256 tiles each: a single per-tile allocation in the lane
    // loop would cost 512+. The steady-state budget is the scoped spawn
    // and the per-image outputs.
    assert!(
        warm_a < 128,
        "warm 2-lane batch run allocated {warm_a} times (512 tiles)"
    );

    // --- Part 5: telemetry discipline — a Disabled sink adds exactly
    // zero allocations to the serve path, and an enabled ring-buffer
    // recorder settles to a stable steady-state count. ---
    // The drive loop's side-record vectors are gated on `enabled()`, so
    // the explicit Disabled path must count identically to the default
    // (no-sink) path measured in part 3.
    let serve_with_allocs = |n_requests: usize, tel: &dyn edea_core::telemetry::Telemetry| {
        let ticks = arrivals::uniform(n_requests, 1_000);
        let requests = zero_requests(shape, &ticks);
        let before = CountingAllocator::allocations();
        let report = dispatcher.serve_with(&pool, requests, tel).unwrap();
        let allocs = CountingAllocator::allocations() - before;
        drop(report);
        allocs
    };
    let disabled = edea_core::telemetry::Disabled;
    let _ = serve_with_allocs(8, &disabled);
    let off_a = serve_with_allocs(8, &disabled);
    assert_eq!(
        off_a, eight_b,
        "Disabled telemetry changed the serve allocation count \
         ({off_a} observed vs {eight_b} unobserved)"
    );

    // Enabled recorder: warm it (ring buffer + side-record vectors grow
    // to steady state), then identical runs must allocate identically —
    // the per-event record path itself pushes into preallocated storage.
    let recorder = edea_core::telemetry::Recorder::with_capacity(1 << 10);
    let _ = serve_with_allocs(8, &recorder);
    recorder.clear();
    let on_a = serve_with_allocs(8, &recorder);
    recorder.clear();
    let on_b = serve_with_allocs(8, &recorder);
    assert_eq!(
        on_a, on_b,
        "warm enabled-recorder serves must have a stable allocation count"
    );
    // The recorder's marginal footprint per batch is a small constant:
    // the route records, layer vectors and ring-buffer pushes — nothing
    // per tick or per queue entry.
    let on_margin = (on_a - off_a) / 8;
    assert!(
        on_margin <= 16,
        "enabled recorder adds {on_margin} allocations per batch \
         ({on_a} observed vs {off_a} disabled for 8 batches)"
    );

    // --- Part 6: a warm planned network forward allocates only what it
    // returns. ---
    // Per layer the loop may allocate the output map, the vector holding
    // it and the portion list — one allocation, sized up front; per
    // forward, the stats vector. In debug builds the allocations of the
    // plan-time race audit each layer re-runs are counted on the same
    // inputs and join the budget. Assembling a
    // whole-layer intermediate map (a vector and a map per layer) or
    // copying the inputs per layer (the same again) would each add 26
    // over the 13 layers and break it.
    let session = SimulatorBackend::new(edea.clone(), d.qnet.clone()).unwrap();
    let forward_allocs = || {
        let before = CountingAllocator::allocations();
        let run = session.run_network(&d.input).unwrap();
        let allocs = CountingAllocator::allocations() - before;
        drop(run);
        allocs
    };
    let _ = forward_allocs();
    let fwd_a = forward_allocs();
    let fwd_b = forward_allocs();
    assert_eq!(
        fwd_a, fwd_b,
        "warm planned forwards must have a stable allocation count"
    );
    let mut lists = 0;
    for layer in d.qnet.layers() {
        let s = layer.shape();
        let before = CountingAllocator::allocations();
        let ports = portions(s.out_spatial(), cfg.portion_limit);
        let list = CountingAllocator::allocations() - before;
        assert_eq!(
            list,
            1,
            "layer {}: its {}-portion list allocated {list} times",
            s.index,
            ports.len()
        );
        lists += list;
        if cfg!(debug_assertions) {
            let before = CountingAllocator::allocations();
            edea_core::plan::audit::audit_portions(&s, &cfg, &ports, 1, 1).unwrap();
            lists += CountingAllocator::allocations() - before;
        }
    }
    let n_layers = d.qnet.layers().len() as u64;
    let budget = 2 * n_layers + 1 + lists;
    assert!(
        fwd_a <= budget,
        "warm forward allocated {fwd_a} times, budget {budget} \
         ({n_layers} layers × (output map + its vector) + stats + {lists} for portion lists and audits)"
    );
}
