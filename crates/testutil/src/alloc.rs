//! A test-only counting allocator for allocation-regression guards.
//!
//! The simulator's tile pipeline promises **zero heap allocations per tile
//! in steady state** (see `edea_core::scratch::TileScratch`). That claim
//! is only as good as the test enforcing it, and enforcing it needs an
//! allocator that can be interrogated. [`CountingAllocator`] wraps the
//! system allocator and counts every `alloc`/`realloc` call in a process-
//! wide atomic; a regression test installs it as the `#[global_allocator]`
//! and asserts on the count delta around the code under guard:
//!
//! ```ignore
//! use edea_testutil::alloc::CountingAllocator;
//!
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator::new();
//!
//! let before = CountingAllocator::allocations();
//! hot_path();
//! assert_eq!(CountingAllocator::allocations() - before, 0);
//! ```
//!
//! The counter is process-wide, so a binary using it should run its
//! measurements from a single `#[test]` (the default test harness runs
//! tests of one binary concurrently, which would interleave counts).

#![expect(
    unsafe_code,
    reason = "the counting GlobalAlloc needs one unsafe impl; the rest of the crate denies unsafe_code"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] wrapper around [`System`] that counts allocation
/// events (`alloc` and `realloc` calls; frees are not counted — the guard
/// cares about acquisition, not churn).
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAllocator;

impl CountingAllocator {
    /// Creates the allocator (const, so it can be a `static`).
    #[must_use]
    pub const fn new() -> Self {
        Self
    }

    /// Allocation events since process start (monotonic).
    #[must_use]
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

// SAFETY: delegates every operation verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counter increment has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}
