//! Parallel bit-identity suite: every thread count must reproduce the
//! serial simulation **exactly** — outputs, engine activity, external
//! traffic, cycle timelines, batch records — because the scoped thread
//! pool only parallelizes host work that is independent by construction
//! (portions of a tile loop, workers of a pool), never the simulated
//! machine. Each configuration runs three times, so run-to-run stability
//! (no scheduling-order leak into results) is pinned alongside the
//! cross-thread-count identity.
//!
//! This suite is the enforcement arm of the determinism contract in
//! `edea_core::par`: static partition, one writer per element, fixed-order
//! reduction. `tests/determinism.rs` at the workspace root guards the
//! whole deploy flow at 1 and 4 threads; this file sweeps the thread axis
//! itself ({1, 2, 3, 8} — odd, even and oversubscribed) over all four
//! execution paths: full network, batched schedule, single-backend
//! serving, and the multi-worker pool.

use edea_core::par::Parallelism;
use edea_core::pool::{DispatchPolicy, Dispatcher, Pool, PoolReport};
use edea_core::serve::{arrivals, Policy, ServeReport, SimulatorBackend};
use edea_testutil::{batch_inputs, deploy, paper_edea_threads, serve_requests, TestDeployment};

/// The sweep: serial reference, even and odd lane counts (3 does not
/// divide most portion counts, so chunk boundaries land unevenly), and an
/// oversubscribed count beyond the portion/worker counts in play.
const THREADS: [usize; 4] = [1, 2, 3, 8];
const REPS: usize = 3;

fn fixture() -> TestDeployment {
    deploy(0.25, 501)
}

#[test]
fn network_forward_is_bit_identical_at_every_thread_count() {
    let d = fixture();
    let baseline = paper_edea_threads(1)
        .run_network(&d.qnet, &d.input)
        .expect("serial network run");
    for threads in THREADS {
        let edea = paper_edea_threads(threads);
        for rep in 0..REPS {
            let run = edea
                .run_network(&d.qnet, &d.input)
                .expect("threaded network run");
            assert_eq!(
                run.output, baseline.output,
                "{threads}-thread rep {rep}: output diverged"
            );
            // NetworkStats equality covers per-layer cycles, MACs, engine
            // activity (busy/idle/stall) and the external-traffic split.
            assert_eq!(
                run.stats, baseline.stats,
                "{threads}-thread rep {rep}: stats diverged"
            );
        }
    }
}

#[test]
fn batched_forward_is_bit_identical_at_every_thread_count() {
    let d = fixture();
    let inputs = batch_inputs(&d, 3, 503);
    let baseline = paper_edea_threads(1)
        .run_batch(&d.qnet, &inputs)
        .expect("serial batch run");
    for threads in THREADS {
        let edea = paper_edea_threads(threads);
        for rep in 0..REPS {
            let run = edea
                .run_batch(&d.qnet, &inputs)
                .expect("threaded batch run");
            assert_eq!(
                run.outputs, baseline.outputs,
                "{threads}-thread rep {rep}: batch outputs diverged"
            );
            // NetworkStats equality covers the amortized external traffic
            // and per-layer engine activity.
            assert_eq!(
                run.stats, baseline.stats,
                "{threads}-thread rep {rep}: batch stats diverged"
            );
        }
    }
}

fn assert_serve_identical(a: &ServeReport, b: &ServeReport, what: &str) {
    assert_eq!(a.responses, b.responses, "{what}: responses diverged");
    assert_eq!(a.batches, b.batches, "{what}: batch records diverged");
    assert_eq!(a.policy, b.policy, "{what}: policy diverged");
    assert_eq!(a.backend, b.backend, "{what}: backend name diverged");
}

#[test]
fn serving_is_bit_identical_at_every_thread_count() {
    let d = fixture();
    let requests = serve_requests(&d, &arrivals::bursts(6, 2, 40_000_000), 505);
    let dispatcher = Dispatcher::new(
        Policy::new(2, 0).expect("valid policy"),
        DispatchPolicy::RoundRobin,
    );
    let serve = |threads: usize| -> ServeReport {
        let backend = SimulatorBackend::new(paper_edea_threads(threads), d.qnet.clone())
            .expect("backend builds");
        let pool = Pool::replicate(backend, 1).expect("pool builds");
        dispatcher
            .serve(&pool, requests.clone())
            .expect("serve runs")
            .serve
    };
    let baseline = serve(1);
    for threads in THREADS {
        for rep in 0..REPS {
            let report = serve(threads);
            assert_serve_identical(&report, &baseline, &format!("{threads}-thread rep {rep}"));
        }
    }
}

#[test]
fn pool_serve_is_bit_identical_at_every_thread_count() {
    let d = fixture();
    // A burst of 8 single-request batches across 3 workers: several
    // batches run on independent workers in the same simulated window, so
    // the by-worker execution lanes actually engage at threads > 1.
    let requests = serve_requests(&d, &arrivals::uniform(8, 1_000), 507);
    let dispatcher = Dispatcher::new(
        Policy::new(1, 0).expect("valid policy"),
        DispatchPolicy::LeastLoaded,
    );
    let serve = |threads: usize| -> PoolReport {
        let backend = SimulatorBackend::new(paper_edea_threads(threads), d.qnet.clone())
            .expect("backend builds");
        let pool = Pool::replicate(backend, 3)
            .expect("pool builds")
            .with_parallelism(Parallelism::new(threads).expect("in range"));
        dispatcher
            .serve(&pool, requests.clone())
            .expect("pool serve runs")
    };
    let baseline = serve(1);
    for threads in THREADS {
        for rep in 0..REPS {
            let what = format!("{threads}-thread rep {rep}");
            let report = serve(threads);
            assert_serve_identical(&report.serve, &baseline.serve, &what);
            assert_eq!(
                report.assignments, baseline.assignments,
                "{what}: batch → worker assignments diverged"
            );
            assert_eq!(
                report.workers, baseline.workers,
                "{what}: per-worker accounting diverged"
            );
            assert_eq!(report.dispatch, baseline.dispatch, "{what}: policy");
        }
    }
}
