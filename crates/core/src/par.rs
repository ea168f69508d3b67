//! Deterministic fork-join parallelism for the simulator host.
//!
//! The simulated chip is parallel by thesis (dual engines, Fig. 7); the
//! *host* simulation was single-threaded. This module provides the two
//! primitives that parallelize it **without changing a single output
//! byte**:
//!
//! * [`Parallelism`] — the explicit thread-count knob threaded through
//!   [`Edea`](crate::accelerator::Edea), [`crate::pool::Pool`] and the
//!   `edea` facade's deployment builder. The default is serial
//!   (one thread = today's exact code path); the `EDEA_THREADS`
//!   environment variable sets a process-wide default so an entire test
//!   suite can be re-run on the parallel paths unchanged.
//! * [`map_lanes`] — a scoped fork-join over per-lane work items on
//!   `std::thread::scope` (no crates.io dependencies, no `unsafe`).
//!   Lane 0 runs on the calling thread; results are joined **in lane
//!   order**, never in completion order.
//! * [`chunk_ranges`] — the static contiguous partition both parallel
//!   seams use to split work across lanes, so every output element has
//!   exactly one writer and reductions can run in fixed index order.
//!
//! # The determinism contract
//!
//! Parallel callers must obey three rules, and everything in this module
//! is shaped to make obeying them easy:
//!
//! 1. **Static partition** — work is split by [`chunk_ranges`] before any
//!    thread starts; nothing is stolen or rebalanced at runtime.
//! 2. **One writer per element** — each lane owns its output slots
//!    (disjoint `&mut` slices); shared state is read-only.
//! 3. **Fixed-order reduction** — per-lane results are merged in lane
//!    (hence work-index) order after the join, so commutative-but-not-
//!    bit-associative folds (and error precedence) match the serial run.
//!
//! Under these rules a run at any thread count is **bit-identical** to
//! the serial run — enforced by the `parallel_identity` test matrix and
//! the determinism guard.

use crate::CoreError;

/// Maximum accepted thread count — a sanity bound, far above any real
/// host, so a malformed `EDEA_THREADS` cannot ask for millions of spawns.
pub const MAX_THREADS: usize = 256;

/// The explicit host-parallelism knob: how many OS threads a simulator
/// component may use for its fork-join regions.
///
/// `Parallelism::serial()` (the [`Default`]) is exactly the historical
/// single-threaded code path. Any other count changes **scheduling
/// only** — outputs, statistics and reports stay bit-identical (see the
/// module docs for the contract that guarantees it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::serial()
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} thread{}",
            self.threads,
            if self.threads == 1 { "" } else { "s" }
        )
    }
}

impl Parallelism {
    /// One thread: the bit-identical serial base case.
    #[must_use]
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// A validated thread count.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] if `threads` is zero or exceeds
    /// [`MAX_THREADS`].
    pub fn new(threads: usize) -> Result<Self, CoreError> {
        if threads == 0 || threads > MAX_THREADS {
            return Err(CoreError::InvalidConfig {
                detail: format!("parallelism must be 1..={MAX_THREADS} threads, got {threads}"),
            });
        }
        Ok(Self { threads })
    }

    /// The process-wide default from the `EDEA_THREADS` environment
    /// variable, read leniently: unset, unparsable, zero or out-of-range
    /// values all fall back to [`Parallelism::serial`] — an environment
    /// knob must never turn into a runtime error. Use
    /// [`Parallelism::from_env_checked`] to learn *whether* the fallback
    /// was a silent repair of a malformed value.
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_env_checked().0
    }

    /// As [`Parallelism::from_env`], but reports the parse outcome: the
    /// second element carries a warning when `EDEA_THREADS` was set to
    /// something unusable and the serial fallback papered over it.
    /// `Edea::new` and `Pool::new` surface that warning to stderr once per
    /// process, so a typo'd knob (`EDEA_THREADS=fourr`) no longer
    /// silently benchmarks the serial path.
    #[must_use]
    pub fn from_env_checked() -> (Self, Option<String>) {
        let value = std::env::var("EDEA_THREADS").ok();
        Self::parse_env_value(value.as_deref())
    }

    /// The pure parsing core of [`Parallelism::from_env_checked`]:
    /// `None` (unset) is the quiet serial default; a set-but-unusable
    /// value falls back to serial **with** a warning describing the
    /// repair. Separated from the environment read so tests can cover
    /// every outcome without racing on process-global state.
    #[must_use]
    pub fn parse_env_value(value: Option<&str>) -> (Self, Option<String>) {
        let Some(raw) = value else {
            return (Self::serial(), None);
        };
        let trimmed = raw.trim();
        match trimmed.parse::<usize>() {
            Ok(n) => match Self::new(n) {
                Ok(par) => (par, None),
                Err(e) => (
                    Self::serial(),
                    Some(format!(
                        "EDEA_THREADS={trimmed} is out of range ({e}); running serial"
                    )),
                ),
            },
            Err(_) => (
                Self::serial(),
                Some(format!(
                    "EDEA_THREADS={raw:?} is not a thread count; running serial"
                )),
            ),
        }
    }

    /// Prints an environment-repair warning to stderr, once per process —
    /// every `Edea`/`Pool` construction re-reads the variable, and a
    /// long-lived service should not log the same typo per request.
    pub(crate) fn warn_env_once(warning: &str) {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| eprintln!("edea-core: {warning}"));
    }

    /// The thread count (always ≥ 1).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Splits `0..n` into `lanes` contiguous, in-order ranges — the static
/// partition of the determinism contract. The first `n % lanes` ranges
/// get one extra element; with `lanes > n` the trailing ranges are empty
/// (oversubscription degrades gracefully, it never reorders work).
///
/// # Panics
///
/// Panics if `lanes` is zero.
#[must_use]
pub fn chunk_ranges(n: usize, lanes: usize) -> Vec<std::ops::Range<usize>> {
    assert!(lanes > 0, "at least one lane is required");
    let base = n / lanes;
    let extra = n % lanes;
    let mut out = Vec::with_capacity(lanes);
    let mut start = 0usize;
    for lane in 0..lanes {
        let len = base + usize::from(lane < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

/// Runs one closure invocation per lane on a scoped fork-join and returns
/// the results **in lane order** regardless of completion order.
///
/// Lane 0 executes on the calling thread (a one-lane call spawns
/// nothing — the serial base case runs exactly the caller's code); lanes
/// `1..` each get a scoped `std::thread`. The closure receives the lane
/// index and that lane's work item by value, so each lane owns its
/// mutable state outright and the borrow checker enforces the
/// one-writer-per-element rule at compile time.
///
/// # Panics
///
/// A panic on any lane is re-raised on the calling thread
/// (`resume_unwind`) after the scope joins — panics never vanish into a
/// detached thread.
#[expect(
    clippy::disallowed_methods,
    reason = "map_lanes is the one sanctioned fork point of the workspace"
)]
pub fn map_lanes<T, R, F>(lanes: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if lanes.len() <= 1 {
        return lanes
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    std::thread::scope(|scope| {
        let f = &f;
        let mut items = lanes.into_iter();
        #[expect(
            clippy::expect_used,
            reason = "the len <= 1 early return guarantees a first item"
        )]
        let first = items.next().expect("len checked above");
        // Spawn lanes 1.. first so they overlap with lane 0's inline run.
        let handles: Vec<_> = items
            .enumerate()
            .map(|(i, item)| scope.spawn(move || f(i + 1, item)))
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(f(0, first));
        for h in handles {
            // Join strictly in lane order: the reduction order the
            // determinism contract requires.
            out.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_is_the_default_and_displays() {
        assert_eq!(Parallelism::default(), Parallelism::serial());
        assert_eq!(Parallelism::serial().threads(), 1);
        assert_eq!(Parallelism::serial().to_string(), "1 thread");
        assert_eq!(Parallelism::new(4).unwrap().to_string(), "4 threads");
    }

    #[test]
    fn zero_and_oversized_thread_counts_are_rejected() {
        assert!(matches!(
            Parallelism::new(0),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            Parallelism::new(MAX_THREADS + 1),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert_eq!(
            Parallelism::new(MAX_THREADS).unwrap().threads(),
            MAX_THREADS
        );
    }

    #[test]
    fn env_value_parsing_reports_repairs() {
        // Unset: quiet serial default, no warning.
        assert_eq!(
            Parallelism::parse_env_value(None),
            (Parallelism::serial(), None)
        );
        // Valid counts (whitespace tolerated): no warning.
        let (par, warn) = Parallelism::parse_env_value(Some("4"));
        assert_eq!(par.threads(), 4);
        assert!(warn.is_none());
        let (par, warn) = Parallelism::parse_env_value(Some(" 2 "));
        assert_eq!(par.threads(), 2);
        assert!(warn.is_none());
        // Out-of-range counts: serial fallback, with a warning naming it.
        for bad in ["0", "999"] {
            let (par, warn) = Parallelism::parse_env_value(Some(bad));
            assert_eq!(par, Parallelism::serial());
            let warn = warn.unwrap();
            assert!(warn.contains("out of range"), "{warn}");
            assert!(warn.contains(bad), "{warn}");
        }
        // Unparsable garbage: serial fallback, with the raw value quoted.
        for bad in ["fourr", "", "-2", "3.5"] {
            let (par, warn) = Parallelism::parse_env_value(Some(bad));
            assert_eq!(par, Parallelism::serial());
            let warn = warn.unwrap();
            assert!(warn.contains("not a thread count"), "{warn}");
            assert!(warn.contains(&format!("{bad:?}")), "{warn}");
        }
    }

    #[test]
    fn chunk_ranges_partition_contiguously() {
        assert_eq!(chunk_ranges(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(chunk_ranges(4, 4), vec![0..1, 1..2, 2..3, 3..4]);
        // Oversubscription: trailing lanes go empty, order is preserved.
        assert_eq!(chunk_ranges(2, 4), vec![0..1, 1..2, 2..2, 2..2]);
        assert_eq!(chunk_ranges(0, 2), vec![0..0, 0..0]);
    }

    #[test]
    fn map_lanes_returns_results_in_lane_order() {
        // Lane 0 does the most work, so later lanes finish first; the
        // result order must still be the lane order.
        let work: Vec<usize> = (0..6).map(|i| (6 - i) * 50_000).collect();
        let out = map_lanes(work, |lane, spin| {
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_mul(31).wrapping_add(i as u64);
            }
            (lane, spin, acc & 1)
        });
        for (lane, r) in out.iter().enumerate() {
            assert_eq!(r.0, lane);
            assert_eq!(r.1, (6 - lane) * 50_000);
        }
    }

    #[test]
    fn map_lanes_single_lane_runs_inline() {
        let tid = std::thread::current().id();
        let out = map_lanes(vec![()], move |lane, ()| {
            assert_eq!(lane, 0);
            std::thread::current().id() == tid
        });
        assert_eq!(out, vec![true]);
    }

    #[test]
    fn map_lanes_propagates_panics() {
        let caught = std::panic::catch_unwind(|| {
            map_lanes(vec![0, 1, 2], |_, v| {
                assert_ne!(v, 1, "lane payload 1 panics");
                v
            })
        });
        assert!(caught.is_err());
    }
}
