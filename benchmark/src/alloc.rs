//! A counting allocator for the traced run.
//!
//! Installed as the global allocator of the `swbench` binary. Counting is
//! off unless a traced run switches it on, and the off path is one relaxed
//! load per call, so end-to-end runs are not measurably slowed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The system allocator plus call and live-byte counters.
pub struct CountingAlloc;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are statistics that publish no
// other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            CALLS.fetch_add(1, Relaxed);
            let live = LIVE.fetch_add(layout.size() as i64, Relaxed) + layout.size() as i64;
            PEAK.fetch_max(live, Relaxed);
        }
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and peak live bytes seen while counting was on.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocCounts {
    /// Calls to `alloc` (a `realloc` counts through the default
    /// alloc-copy-dealloc path).
    pub calls: u64,
    /// Highest live-byte level above the level at which counting started.
    pub peak_bytes: u64,
}

/// Reset the counters and start counting.
pub fn start() {
    CALLS.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
}

/// Stop counting and read the counters.
pub fn stop() -> AllocCounts {
    COUNTING.store(false, Relaxed);
    AllocCounts {
        calls: CALLS.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed).max(0) as u64,
    }
}
