//! The repository benchmark: how fast the simulator itself runs (host
//! time), on three workloads, with the modeled numbers of the simulated
//! chip reported beside it.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path hostbench/Cargo.toml -- \
//!     --workload <forward_v1|serve_mixed_sim|serve_overload> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs traced
//! and untraced iterations interleaved, prints the per-layer metrics and
//! writes a Chrome trace to `hostbench/out/`. The last stdout line is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod api;
mod forward;
mod metrics;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

// edea-lint: allow(wall-clock-in-sim): the benchmark measures the simulator's host time
pub use std::time::Instant as HostTime;

use metrics::{json_string, Metrics};
use trace::Tracer;

/// Full set-ups per run, at least; `setup_s` and the set-up layer metrics
/// are their medians.
const SETUP_REPS: usize = 3;
/// Set-up repeats until this many seconds have passed, so a set-up of a
/// millisecond is still the median of many.
const SETUP_MIN_S: f64 = 1.0;

/// The end-to-end metrics every untraced run prints, with their units
/// (the `end_to_end` list of `BENCHMARK.json`).
const END_TO_END: [(&str, &str); 7] = [
    ("images_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("modeled_cycles_per_image", "cycles"),
    ("modeled_ext_bytes_per_image", "B"),
    ("sim_latency_p99_cycles", "cycles"),
    ("sim_images_per_s", "1/sim_s"),
];

/// Layers of MobileNetV1 timed one by one on `forward_v1`.
const V1_LAYERS: usize = 13;

/// The per-layer metrics every traced run prints, with their units (the
/// `per_layer` list of `BENCHMARK.json`). A workload that does not run a
/// layer reports 0 for it.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for l in 0..V1_LAYERS {
        names.push((format!("layer.{l}.host_us"), "us"));
        names.push((format!("layer.{l}.modeled_cycles"), "cycles"));
        names.push((format!("layer.{l}.ns_per_cycle"), "ns/cycle"));
        names.push((format!("layer.{l}.gated_frac"), "ratio"));
    }
    for (name, unit) in [
        ("net.glue_us", "us"),
        ("calibrate_ms", "ms"),
        ("plan.build_ms", "ms"),
        ("golden.ref_ms", "ms"),
        ("requests.build_ms", "ms"),
        ("pool.serve_ms", "ms"),
        ("pool.self_ms", "ms"),
        ("pool.ns_per_request", "ns"),
        ("pool.max_queue_depth", "count"),
        ("backend.run_ms", "ms"),
        ("backend.calls", "count"),
        ("backend.mean_batch", "images"),
        ("backend.ns_per_modeled_cycle", "ns/cycle"),
        ("report.fold_ms", "ms"),
        ("trace.overhead_pct", "%"),
    ] {
        names.push((name.to_owned(), unit));
    }
    names
}

/// Keeps exactly the metrics the mode declares. A missing per-layer
/// metric reads 0; a missing end-to-end metric is a violation.
fn declared(all: &Metrics, trace: bool, violations: &mut Vec<String>) -> Metrics {
    let names: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let mut out = Metrics::default();
    for (name, unit) in names {
        match all.get(&name) {
            Some(v) => out.set(name, v, unit),
            None if trace => out.set(name, 0.0, unit),
            None => violations.push(format!("metric {name} was not measured")),
        }
    }
    out
}

/// The command line.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse().map_err(bad)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Operations attempted (forwards or requests).
    pub attempted: u64,
    /// Operations that failed the correctness gate.
    pub failed: u64,
    /// Whole-run checks (cross-checks, determinism) that do not belong to
    /// one operation; any message here makes the run incorrect.
    pub violations: Vec<String>,
    /// Facts for the header and the trace file (name, JSON value).
    pub notes: Vec<(String, String)>,
}

/// The timed region of a run, which starts after set-up: iterations
/// continue until `deadline`.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    deadline: HostTime,
}

impl Budget {
    /// Starts the timed region now.
    #[must_use]
    pub fn new(seconds: u64) -> Self {
        Self {
            deadline: now() + Duration::from_secs(seconds),
        }
    }

    /// Whether the time is up.
    #[must_use]
    pub fn spent(&self) -> bool {
        now() >= self.deadline
    }
}

/// The host clock.
#[must_use]
pub fn now() -> HostTime {
    HostTime::now()
}

/// Milliseconds since `t`.
#[must_use]
pub fn ms_since(t: HostTime) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One timed set-up step: name and host interval.
pub type Step = (&'static str, HostTime, HostTime);

/// Runs `f` and returns its result with its host interval under `name`.
pub fn step<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, Step) {
    let start = now();
    let r = f();
    (r, (name, start, now()))
}

/// Repeats `setup` at least [`SETUP_REPS`] times and for at least
/// [`SETUP_MIN_S`] seconds, and keeps the last product. Sets `setup_s`
/// (median whole set-up) and, per step, `<step>_ms` (its median); in a
/// traced run, records every step as a span.
pub fn repeat_setup<S>(
    out: &mut Outcome,
    tracer: Option<&mut Tracer>,
    mut setup: impl FnMut() -> api::Result<(S, Vec<Step>)>,
) -> api::Result<S> {
    let mut totals = Vec::new();
    let mut steps: Vec<Step> = Vec::new();
    let mut spans = Vec::new();
    let mut last = None;
    let begin = now();
    while totals.len() < SETUP_REPS || begin.elapsed().as_secs_f64() < SETUP_MIN_S {
        drop(last.take());
        let start = now();
        let (s, st) = setup()?;
        let end = now();
        totals.push(end.duration_since(start).as_secs_f64());
        spans.push((start, end, st.clone()));
        steps.extend(st);
        last = Some(s);
    }
    out.metrics.set("setup_s", metrics::median(&totals), "s");
    let mut names: Vec<&str> = steps.iter().map(|s| s.0).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let ms: Vec<f64> = steps
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| s.2.duration_since(s.1).as_secs_f64() * 1e3)
            .collect();
        out.metrics
            .set(format!("{name}_ms"), metrics::median(&ms), "ms");
    }
    if let Some(tr) = tracer {
        for (start, end, st) in spans {
            let root = tr.record("setup", None, start, end, 0);
            for (name, s, e) in st {
                tr.record(name, Some(root), s, e, 0);
            }
        }
    }
    last.ok_or_else(|| "no set-up ran".to_owned())
}

fn git_rev() -> String {
    // The ceiling keeps git from searching above the working directory.
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(PathBuf::from).unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let epoch = now();
    let mut tracer = args.trace.then(|| Tracer::new(epoch, api::clock_mhz()));
    let result = match args.workload.as_str() {
        "forward_v1" => forward::run(args.seed, args.seconds, tracer.as_mut()),
        "serve_mixed_sim" => serve::run_mixed(args.seed, args.seconds, tracer.as_mut()),
        "serve_overload" => serve::run_overload(args.seed, args.seconds, tracer.as_mut()),
        w => Err(format!(
            "unknown workload {w} (forward_v1, serve_mixed_sim, serve_overload)"
        )),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hostbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    out.metrics
        .set("peak_rss_mib", metrics::peak_rss_mib(), "MiB");
    out.metrics = declared(&out.metrics, args.trace, &mut out.violations);
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let mut notes = vec![
        ("workload".to_owned(), json_string(&args.workload)),
        ("seed".to_owned(), args.seed.to_string()),
        ("host_cores".to_owned(), cores.to_string()),
        ("rustc".to_owned(), json_string(env!("HOSTBENCH_RUSTC"))),
        ("git_rev".to_owned(), json_string(&git_rev())),
        ("threads".to_owned(), "1".to_owned()),
    ];
    notes.append(&mut out.notes);
    for (k, v) in &notes {
        println!("# {k}: {v}");
    }
    for v in &out.violations {
        println!("# violation: {v}");
    }
    if let Some(tr) = &tracer {
        let path = PathBuf::from("hostbench/out")
            .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        let mut other: Vec<String> = notes
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_string(k)))
            .collect();
        other.push(format!("\"metrics\": {}", out.metrics.to_flat_json()));
        match tr.write_chrome(&path, &format!("{{{}}}", other.join(", "))) {
            Ok(()) => println!("# trace: {}", path.display()),
            Err(e) => {
                eprintln!("hostbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let correct = out.failed == 0 && out.violations.is_empty() && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        out.metrics.to_json()
    );
    ExitCode::SUCCESS
}
