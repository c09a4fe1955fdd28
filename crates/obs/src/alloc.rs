//! Opt-in heap-allocation accounting (`alloc-stats` feature).
//!
//! With the feature enabled this module installs a `#[global_allocator]` that
//! wraps [`std::alloc::System`] and counts every allocation (and every
//! growing/shrinking reallocation) into two process-wide relaxed atomics.
//! The zero-allocation train-loop guarantee is *verified*, not assumed: the
//! `zero_alloc` test in `edge-tensor` and the pipeline bench diff
//! [`counts`] around a steady-state batch and assert the delta is zero.
//!
//! Without the feature, [`counts`] returns zeros and [`active`] is `false`,
//! so callers can gate their measurement logic on it at zero cost.

/// A snapshot of the process-wide allocation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCounts {
    /// Number of allocations (`alloc` + `realloc` calls) since process start.
    pub count: u64,
    /// Total bytes requested by those calls.
    pub bytes: u64,
}

/// Whether the counting allocator is compiled in.
pub const fn active() -> bool {
    cfg!(feature = "alloc-stats")
}

#[cfg(feature = "alloc-stats")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(super) static COUNT: AtomicU64 = AtomicU64::new(0);
    pub(super) static BYTES: AtomicU64 = AtomicU64::new(0);

    struct CountingAlloc;

    // SAFETY: defers every operation to `System`; only adds relaxed counter
    // updates, which are allocation-free and reentrancy-safe.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            COUNT.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            COUNT.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

/// Current allocation counters (zeros when the feature is off). Diff two
/// snapshots around a region to measure its allocations; note the counters
/// are process-global, so only single-threaded regions measure precisely.
pub fn counts() -> AllocCounts {
    #[cfg(feature = "alloc-stats")]
    {
        use std::sync::atomic::Ordering;
        AllocCounts {
            count: counting::COUNT.load(Ordering::Relaxed),
            bytes: counting::BYTES.load(Ordering::Relaxed),
        }
    }
    #[cfg(not(feature = "alloc-stats"))]
    AllocCounts::default()
}

#[cfg(all(test, feature = "alloc-stats"))]
mod tests {
    use super::*;

    #[test]
    fn boxing_is_counted() {
        let before = counts();
        let v = std::hint::black_box(vec![0u8; 4096]);
        let after = counts();
        drop(v);
        assert!(after.count > before.count);
        assert!(after.bytes - before.bytes >= 4096);
    }
}
