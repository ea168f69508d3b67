//! The serving workloads: a request stream built, served by a pool under
//! least-loaded dispatch, and folded into its report figures, repeated
//! until the time is up. Every repetition serves the same stream, so the
//! modeled figures of a run are one stream's, and each repetition is one
//! host-time sample (its time per request).
//!
//! * `serve_mixed_sim`: 2 simulator workers serving MobileNetV1 width 0.5
//!   (near-dense) and MobileNetV2 width 0.25, every second request for
//!   v2, 32-request streams of Poisson arrivals at 0.75× pool capacity,
//!   `max_batch` 4 and a `max_wait` of one mean service time.
//!   Execution dominates, on the dense kernel path, with batched weight
//!   residency, v2's expand/project/residual stages and model switches.
//! * `serve_overload`: 8 analytic workers on the paper's MobileNetV1
//!   shapes, 16384-request streams of Poisson arrivals at 2× pool
//!   capacity, `max_batch` 8 and a
//!   `max_wait` of one service time. The backend costs O(1) per batch, so
//!   host time is stream construction (a 32 KiB input per request), the
//!   pool's queue scans and the report fold.
//!
//! The traced run interleaves untraced repetitions with repetitions on
//! the same workers behind a timing `Backend` wrapper, and checks that
//! both produce bit-identical pool reports.

use crate::api::{self, Map, Net, Policy, Pool};
use crate::metrics::{self, median};
use crate::trace::Tracer;
use crate::HostTime;

use crate::{now, repeat_setup, step, Budget, Outcome, Step};

/// One serving workload's stream and policy.
struct Spec {
    policy: Policy,
    arrivals: Vec<u64>,
    /// The network of each request, or `None` for a primary-only stream.
    nets: Option<Vec<Net>>,
    inputs: Inputs,
    /// Golden outputs of the `Cycle` inputs, or empty where outputs are
    /// not checked.
    golden: Vec<Map>,
}

impl Spec {
    fn len(&self) -> usize {
        self.arrivals.len()
    }
}

/// Where request inputs come from.
enum Inputs {
    /// Request `i` carries a copy of entry `i % len`.
    Cycle(Vec<Map>),
    /// Every request carries a fresh all-zero map of this shape (the
    /// analytic backend never reads it).
    Zeros((usize, usize, usize)),
}

impl Inputs {
    fn get(&self, i: usize) -> Map {
        match self {
            Inputs::Cycle(v) => v[i % v.len()].clone(),
            Inputs::Zeros(shape) => api::zero_map(*shape),
        }
    }
}

/// One repetition: its result, the host instants between its phases
/// (build, serve, fold) and its modeled figures.
struct Rep {
    served: api::Result<api::Served>,
    marks: [HostTime; 4],
    fold: Option<api::Fold>,
}

impl Rep {
    /// Milliseconds from mark `a` to mark `b`.
    fn ms(&self, a: usize, b: usize) -> f64 {
        self.marks[b].duration_since(self.marks[a]).as_secs_f64() * 1e3
    }
}

fn rep<B: api::Backend>(pool: &Pool<B>, spec: &Spec) -> Rep {
    let t0 = now();
    let requests = api::requests(
        &spec.arrivals,
        spec.nets.as_deref(),
        (0..spec.len()).map(|i| spec.inputs.get(i)).collect(),
    );
    let t1 = now();
    let served = requests.and_then(|r| api::serve(pool, spec.policy, r));
    let t2 = now();
    let fold = served.as_ref().ok().map(api::fold);
    Rep {
        served,
        marks: [t0, t1, t2, now()],
        fold,
    }
}

/// The correctness gate: counts the stream's requests as attempted and
/// fails each one that is missing, completes more than once, rides in a
/// batch over `max_batch`, lands on the wrong network or (where checked)
/// differs from its golden output. A run that errs fails every request.
fn gate(spec: &Spec, served: &api::Result<api::Served>, out: &mut Outcome) {
    let n = spec.len();
    out.attempted += n as u64;
    let Ok(served) = served else {
        out.failed += n as u64;
        return;
    };
    let mut seen = vec![0u32; n];
    let mut bad = vec![false; n];
    for r in api::responses(served) {
        let Some(i) = usize::try_from(r.id).ok().filter(|&i| i < n) else {
            continue;
        };
        seen[i] += 1;
        let net = spec.nets.as_ref().map_or(Net::V1, |nets| nets[i]);
        bad[i] |= r.batch_size > spec.policy.max_batch
            || r.net != net
            || spec
                .golden
                .get(i % spec.golden.len().max(1))
                .is_some_and(|g| g != r.output);
    }
    out.failed += (0..n).filter(|&i| seen[i] != 1 || bad[i]).count() as u64;
}

/// Checks that a repetition's modeled figures equal the first one's.
fn same_fold(first: &mut Option<api::Fold>, fold: Option<api::Fold>, out: &mut Outcome) {
    match (first.as_ref(), fold) {
        (None, f) => *first = f,
        (Some(a), Some(b)) if *a != b => out
            .violations
            .push("modeled figures differ between repetitions of one stream".into()),
        _ => {}
    }
}

fn untraced<B: api::Backend>(pool: &Pool<B>, spec: &Spec, budget: Budget, out: &mut Outcome) {
    let mut per_image_ms = Vec::new();
    let mut first = None;
    loop {
        let r = rep(pool, spec);
        gate(spec, &r.served, out);
        same_fold(&mut first, r.fold, out);
        per_image_ms.push(r.ms(0, 3) / spec.len() as f64);
        if budget.spent() {
            break;
        }
    }
    let notes = metrics::set_host_rate(&mut out.metrics, &per_image_ms);
    out.notes.extend(notes);
    let m = &mut out.metrics;
    if let Some(f) = first {
        m.set("modeled_cycles_per_image", f.cycles_per_image, "cycles");
        m.set("modeled_ext_bytes_per_image", f.ext_bytes_per_image, "B");
        m.set("sim_latency_p99_cycles", f.p99_cycles as f64, "cycles");
        m.set("sim_images_per_s", f.sim_images_per_s, "1/sim_s");
        out.notes
            .push(("max_queue_depth".into(), f.max_queue_depth.to_string()));
    }
    out.notes
        .push(("requests_per_rep".into(), spec.len().to_string()));
}

fn traced<B: api::Backend>(
    pool: &Pool<B>,
    timed: &Pool<api::Timed<B>>,
    spec: &Spec,
    budget: Budget,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let n = spec.len() as f64;
    // Each traced repetition's host time over the untraced one just before
    // it: the pair ran under the same host conditions.
    let mut overhead = Vec::new();
    let (mut build, mut serve, mut fold, mut run, mut self_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut calls, mut batch, mut ns_per_cycle) = (Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    loop {
        let plain = rep(pool, spec);
        gate(spec, &plain.served, out);
        same_fold(&mut first, plain.fold, out);

        let r = rep(timed, spec);
        gate(spec, &r.served, out);
        same_fold(&mut first, r.fold, out);
        if let (Ok(a), Ok(b)) = (&plain.served, &r.served) {
            if !api::identical(a, b) {
                out.violations
                    .push("timing wrapper changed the pool report".into());
            }
        }
        overhead.push(r.ms(0, 3) / plain.ms(0, 3));
        drop(plain);

        let log = api::take_calls(timed);
        let run_ns: f64 = log
            .iter()
            .map(|c| c.end.duration_since(c.start).as_secs_f64() * 1e9)
            .sum();
        let cycles: u64 = log.iter().map(|c| c.cycles).sum();
        let images: usize = log.iter().map(|c| c.images).sum();
        let [t0, t1, t2, t3] = r.marks;
        let root = tr.record("serve.rep", None, t0, t3, cycles);
        tr.record("requests.build", Some(root), t0, t1, 0);
        let pool_span = tr.record("pool.serve", Some(root), t1, t2, cycles);
        for c in &log {
            tr.record("backend.run_for", Some(pool_span), c.start, c.end, c.cycles);
        }
        tr.record("report.fold", Some(root), t2, t3, 0);
        build.push(r.ms(0, 1));
        serve.push(r.ms(1, 2));
        fold.push(r.ms(2, 3));
        run.push(run_ns / 1e6);
        self_ms.push(r.ms(1, 2) - run_ns / 1e6);
        calls.push(log.len() as f64);
        batch.push(images as f64 / log.len().max(1) as f64);
        ns_per_cycle.push(run_ns / cycles.max(1) as f64);
        if budget.spent() {
            break;
        }
    }
    let m = &mut out.metrics;
    m.set("requests.build_ms", median(&build), "ms");
    m.set("pool.serve_ms", median(&serve), "ms");
    m.set("backend.run_ms", median(&run), "ms");
    m.set("pool.self_ms", median(&self_ms), "ms");
    m.set("pool.ns_per_request", median(&self_ms) * 1e6 / n, "ns");
    m.set("backend.calls", median(&calls), "count");
    m.set("backend.mean_batch", median(&batch), "images");
    m.set(
        "backend.ns_per_modeled_cycle",
        median(&ns_per_cycle),
        "ns/cycle",
    );
    m.set("report.fold_ms", median(&fold), "ms");
    if let Some(f) = first {
        m.set("pool.max_queue_depth", f.max_queue_depth as f64, "count");
    }
    m.set("trace.overhead_pct", (median(&overhead) - 1.0) * 100.0, "%");
}

/// `serve_mixed_sim` pool size.
const MIXED_WORKERS: usize = 2;
/// Requests per `serve_mixed_sim` stream.
const MIXED_REQUESTS: usize = 32;
/// The `serve_mixed_sim` arrival trace is fixed; the run's seed draws the
/// models and images. A short stream's latency percentiles swing widely
/// from one Poisson draw to the next, and pinning the trace keeps every
/// modeled figure of the workload identical across seeds.
const MIXED_ARRIVALS_SEED: u64 = 0x5eed;
/// Distinct `serve_mixed_sim` inputs; entry `j` targets v2 when `j` is odd.
const MIXED_IMAGES: usize = 8;

/// `serve_overload` pool size.
const OVERLOAD_WORKERS: usize = 8;
/// Requests per `serve_overload` stream: at 2× capacity half the stream
/// backs up, so each of the 8 queues reaches about a thousand requests.
const OVERLOAD_REQUESTS: usize = 16_384;

struct Mixed {
    dep: api::Deployment,
    spec: Spec,
}

fn mixed_setup(seed: u64, requests: usize) -> api::Result<(Mixed, Vec<Step>)> {
    // Deployment::build calibrates both networks (and plans them).
    let (dep, calibrate) = step("calibrate", || api::mixed_deployment(seed, MIXED_WORKERS));
    let dep = dep?;
    let (plans, plan) = step("plan.build", || {
        api::plan_deployed(&dep, Net::V1).and(api::plan_deployed(&dep, Net::V2))
    });
    plans?;
    let (nets, inputs): (Vec<Net>, Vec<Map>) = (0..MIXED_IMAGES)
        .map(|j| {
            let net = if j % 2 == 1 { Net::V2 } else { Net::V1 };
            api::prepare_deployed(&dep, net, seed, j as u64).map(|x| (net, x))
        })
        .collect::<api::Result<Vec<_>>>()?
        .into_iter()
        .unzip();
    let (golden, golden_step) = step("golden.ref", || {
        nets.iter()
            .zip(&inputs)
            .map(|(&net, x)| api::golden_deployed(&dep, net, x))
            .collect::<api::Result<Vec<_>>>()
    });
    let golden = golden?;
    // Half the requests go to each network, so the mean service time is
    // the mean of the two; one service time is also the batching wait.
    let mean =
        (api::deployed_cycles(&dep, Net::V1)? + api::deployed_cycles(&dep, Net::V2)?) as f64 / 2.0;
    let arrivals = api::poisson(
        requests,
        mean / (MIXED_WORKERS as f64 * 0.75),
        MIXED_ARRIVALS_SEED,
    );
    let spec = Spec {
        policy: api::policy(4, mean.round() as u64)?,
        nets: Some((0..requests).map(|i| nets[i % nets.len()]).collect()),
        arrivals,
        inputs: Inputs::Cycle(inputs),
        golden,
    };
    let m = Mixed { dep, spec };
    Ok((m, vec![calibrate, plan, golden_step]))
}

/// Runs `serve_mixed_sim`.
///
/// # Errors
///
/// A set-up failure, as text.
pub fn run_mixed(seed: u64, seconds: u64, mut tracer: Option<&mut Tracer>) -> api::Result<Outcome> {
    let mut out = Outcome::default();
    let m = repeat_setup(&mut out, tracer.as_deref_mut(), || {
        mixed_setup(seed, MIXED_REQUESTS)
    })?;
    let spec = &m.spec;
    let pool = api::deployed_pool(&m.dep);
    let budget = Budget::new(seconds);
    match tracer {
        None => untraced(pool, spec, budget, &mut out),
        Some(tr) => traced(
            pool,
            &api::timed_deployed_pool(&m.dep)?,
            spec,
            budget,
            tr,
            &mut out,
        ),
    }
    Ok(out)
}

struct Overload {
    backend: api::AnalyticBackend,
    pool: Pool<api::AnalyticBackend>,
    spec: Spec,
}

fn overload_setup(seed: u64, requests: usize) -> api::Result<(Overload, Vec<Step>)> {
    let (backend, plan) = step("plan.build", api::analytic_backend);
    let backend = backend?;
    let pool = api::analytic_pool(&backend, OVERLOAD_WORKERS)?;
    let service = api::analytic_cycles(&backend);
    let arrivals = api::poisson(
        requests,
        service as f64 / (OVERLOAD_WORKERS as f64 * 2.0),
        seed,
    );
    let spec = Spec {
        policy: api::policy(8, service)?,
        arrivals,
        nets: None,
        inputs: Inputs::Zeros(api::input_shape(&pool)),
        golden: Vec::new(),
    };
    let o = Overload {
        backend,
        pool,
        spec,
    };
    Ok((o, vec![plan]))
}

/// Runs `serve_overload`.
///
/// # Errors
///
/// A set-up failure, as text.
pub fn run_overload(
    seed: u64,
    seconds: u64,
    mut tracer: Option<&mut Tracer>,
) -> api::Result<Outcome> {
    let mut out = Outcome::default();
    let o = repeat_setup(&mut out, tracer.as_deref_mut(), || {
        overload_setup(seed, OVERLOAD_REQUESTS)
    })?;
    let spec = &o.spec;
    let budget = Budget::new(seconds);
    match tracer {
        None => untraced(&o.pool, spec, budget, &mut out),
        Some(tr) => {
            let timed = api::timed_analytic_pool(&o.backend, OVERLOAD_WORKERS)?;
            traced(&o.pool, &timed, spec, budget, tr, &mut out);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves `spec` on the plain and the timed pool and checks the two
    /// reports are bit-identical, every request passes the gate and the
    /// wrapper saw every batch.
    fn wrapper_is_transparent<B: api::Backend>(
        pool: &Pool<B>,
        timed: &Pool<api::Timed<B>>,
        spec: &Spec,
    ) {
        let plain = rep(pool, spec);
        let wrapped = rep(timed, spec);
        let (a, b) = (
            plain.served.as_ref().unwrap(),
            wrapped.served.as_ref().unwrap(),
        );
        assert!(
            api::identical(a, b),
            "timing wrapper changed the pool report"
        );
        let mut out = Outcome::default();
        gate(spec, &plain.served, &mut out);
        gate(spec, &wrapped.served, &mut out);
        assert_eq!((out.attempted, out.failed), (2 * spec.len() as u64, 0));
        let calls = api::take_calls(timed);
        let images: usize = calls.iter().map(|c| c.images).sum();
        assert_eq!(images, spec.len());
    }

    #[test]
    fn timing_wrapper_is_transparent_on_serve_mixed_sim() {
        let (m, _) = mixed_setup(5, 12).unwrap();
        let timed = api::timed_deployed_pool(&m.dep).unwrap();
        wrapper_is_transparent(api::deployed_pool(&m.dep), &timed, &m.spec);
    }

    #[test]
    fn timing_wrapper_is_transparent_on_serve_overload() {
        let (o, _) = overload_setup(5, 2048).unwrap();
        let timed = api::timed_analytic_pool(&o.backend, OVERLOAD_WORKERS).unwrap();
        wrapper_is_transparent(&o.pool, &timed, &o.spec);
    }

    #[test]
    fn gate_fails_every_request_of_an_erring_run() {
        let (o, _) = overload_setup(5, 64).unwrap();
        let mut out = Outcome::default();
        gate(&o.spec, &Err("boom".into()), &mut out);
        assert_eq!((out.attempted, out.failed), (64, 64));
    }
}
