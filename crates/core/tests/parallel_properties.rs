//! Property tests of the `edea_core::par` primitives — the foundation the
//! parallel bit-identity suite stands on. Over arbitrary work sizes and
//! thread counts: `chunk_ranges` must be an exact ordered partition (every
//! index exactly once, contiguous, balanced, with oversubscription
//! degrading to trailing empty lanes, never a panic), and `map_lanes` must
//! return results in **lane order** regardless of completion order, so a
//! fixed-order reduction over its output equals the serial fold even for
//! non-commutative operations.

use std::ops::Range;

use edea_core::par::{chunk_ranges, map_lanes, Parallelism, MAX_THREADS};
use proptest::prelude::*;

/// A deliberately non-commutative, non-associative-under-reordering fold:
/// a 31-multiplier hash chain. Any deviation from strict left-to-right
/// order over the items changes the result, so it detects both
/// out-of-order joins and mis-partitioned chunks.
fn hash_chain(acc: u64, x: u64) -> u64 {
    acc.wrapping_mul(31).wrapping_add(x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `chunk_ranges(n, lanes)` is an exact ordered partition of `0..n`:
    /// one range per lane, contiguous and ascending, sizes within one of
    /// each other, larger chunks first. Oversubscription (`lanes > n`)
    /// degrades to trailing empty ranges instead of panicking.
    #[test]
    fn chunk_ranges_is_an_exact_ordered_partition(
        n in 0usize..512,
        lanes in 1usize..40,
    ) {
        let ranges = chunk_ranges(n, lanes);
        prop_assert_eq!(ranges.len(), lanes, "one range per lane");

        // Contiguous cover: each range starts where the previous ended.
        let mut next = 0usize;
        for (i, r) in ranges.iter().enumerate() {
            prop_assert_eq!(r.start, next, "lane {} not contiguous", i);
            prop_assert!(r.end >= r.start, "lane {} inverted", i);
            next = r.end;
        }
        prop_assert_eq!(next, n, "partition must cover 0..n exactly");

        // Balance: no lane differs from another by more than one item,
        // and the longer lanes come first (the static schedule is
        // deterministic, not load-stolen).
        let sizes: Vec<usize> = ranges.iter().map(Range::len).collect();
        let max = *sizes.iter().max().expect("lanes >= 1");
        let min = *sizes.iter().min().expect("lanes >= 1");
        prop_assert!(max - min <= 1, "unbalanced: {:?}", sizes);
        let mut sorted = sizes.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(&sizes, &sorted, "larger chunks must come first");

        // Oversubscription: lanes beyond the item count are empty, and
        // every item still appears exactly once (covered above).
        if lanes > n {
            for (i, r) in ranges.iter().enumerate().skip(n) {
                prop_assert!(r.is_empty(), "lane {} past n={} not empty", i, n);
            }
        }
    }

    /// Chunking arbitrary items across arbitrary lane counts and reducing
    /// the per-lane results in lane order reproduces the serial fold of a
    /// non-commutative operation bit for bit — the exact shape of every
    /// counter merge in the parallel tile loop and the pool's lanes.
    #[test]
    fn fixed_order_reduction_equals_serial_fold(
        items in prop::collection::vec(0u64..u64::MAX, 0..96),
        lanes in 1usize..24,
    ) {
        let serial = items.iter().fold(7u64, |acc, &x| hash_chain(acc, x));

        let ranges = chunk_ranges(items.len(), lanes);
        let work: Vec<&[u64]> = ranges.iter().map(|r| &items[r.clone()]).collect();
        // Each lane folds its own chunk from 0 on a pool thread; the
        // combiner splices lane partials back with `acc·31^len + partial`,
        // which is only correct when partials arrive in lane order — any
        // completion-order leak through map_lanes changes the result.
        let partials = map_lanes(work, |_, chunk| {
            let partial = chunk.iter().fold(0u64, |acc, &x| hash_chain(acc, x));
            (partial, chunk.len())
        });
        prop_assert_eq!(partials.len(), lanes);
        let mut reduced = 7u64;
        for &(partial, len) in &partials {
            let shift = (0..len).fold(1u64, |p, _| p.wrapping_mul(31));
            reduced = reduced.wrapping_mul(shift).wrapping_add(partial);
        }
        prop_assert_eq!(reduced, serial, "lane-order reduction diverged");
    }

    /// Oversubscribed `map_lanes` (more lanes than items, or empty lanes
    /// mixed in) still returns one result per lane, in lane order, with
    /// empty lanes contributing their identity — thread counts beyond the
    /// work size degrade gracefully, never corrupt.
    #[test]
    fn oversubscription_degrades_to_identity_lanes(
        n in 0usize..8,
        lanes in 1usize..32,
    ) {
        let items: Vec<u64> = (0..n as u64).collect();
        let ranges = chunk_ranges(items.len(), lanes);
        let work: Vec<&[u64]> = ranges.iter().map(|r| &items[r.clone()]).collect();
        let sums = map_lanes(work, |lane, chunk| {
            (lane, chunk.iter().sum::<u64>(), chunk.len())
        });
        prop_assert_eq!(sums.len(), lanes);
        for (i, &(lane, _, _)) in sums.iter().enumerate() {
            prop_assert_eq!(lane, i, "results must arrive in lane order");
        }
        let total: u64 = sums.iter().map(|&(_, s, _)| s).sum();
        prop_assert_eq!(total, items.iter().sum::<u64>());
        let touched: usize = sums.iter().map(|&(_, _, l)| l).sum();
        prop_assert_eq!(touched, n, "every item processed exactly once");
        if lanes > n {
            for &(lane, s, l) in sums.iter().skip(n.max(1)) {
                prop_assert_eq!(l, 0, "lane {} should be empty", lane);
                prop_assert_eq!(s, 0, "empty lane {} must contribute identity", lane);
            }
        }
    }

    /// `Parallelism::new` accepts exactly `1..=MAX_THREADS`.
    #[test]
    fn parallelism_bounds(n in 0usize..600) {
        let p = Parallelism::new(n);
        if (1..=MAX_THREADS).contains(&n) {
            let p = p.expect("in range");
            prop_assert_eq!(p.threads(), n);
            prop_assert_eq!(p == Parallelism::serial(), n == 1);
        } else {
            prop_assert!(p.is_err(), "{} must be rejected", n);
        }
    }
}

/// Join order must be lane order even when lanes complete in the
/// *opposite* order: the last lane finishes first and the first lane
/// finishes last, yet the results come back `[0, 1, 2, 3]`. This is the
/// property that makes the pool's batch completion order and the portion
/// paste phase deterministic on a real scheduler, not just on one core.
#[test]
fn join_order_is_lane_order_not_completion_order() {
    for _ in 0..3 {
        let lanes = 4usize;
        // Lane i sleeps (lanes - 1 - i) * 20 ms: lane 0 is the slowest,
        // lane 3 returns immediately.
        let delays: Vec<u64> = (0..lanes).map(|i| (lanes - 1 - i) as u64 * 20).collect();
        let out = map_lanes(delays, |lane, ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            lane
        });
        assert_eq!(out, vec![0, 1, 2, 3], "results must be in lane order");
    }
}

/// A panicking lane propagates to the caller (no hung or silently dropped
/// lanes), and the panic payload survives the join.
#[test]
fn lane_panics_propagate() {
    let caught = std::panic::catch_unwind(|| {
        map_lanes(vec![0usize, 1, 2], |_, x| {
            assert_ne!(x, 1, "lane boom");
            x
        })
    });
    let err = caught.expect_err("the panicking lane must propagate");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("lane boom"), "payload lost: {msg}");
}
