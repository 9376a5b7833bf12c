//! A counting global allocator: allocation calls, bytes requested and the
//! high-water mark of live heap bytes. The counters are relaxed atomics —
//! the simulation is single-threaded, so they only have to be cheap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The allocator installed by `main.rs`.
pub struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

fn on_free(size: usize) {
    LIVE.fetch_sub(size as u64, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's pointer,
// layout and size unchanged, so `System` upholds the `GlobalAlloc`
// contract; the counters are atomics that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_free(layout.size());
        on_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation activity between [`Window::open`] and [`Window::close`].
pub struct Window {
    calls: u64,
    bytes: u64,
    live: u64,
}

/// What a [`Window`] saw.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocStats {
    /// Allocation calls (a `realloc` counts as one).
    pub count: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// High-water mark of live heap bytes inside the window, above the
    /// bytes live when it opened (what the benchmark itself holds).
    pub peak_bytes: u64,
}

impl Window {
    /// Start counting; the peak restarts from the bytes live now.
    pub fn open() -> Self {
        let live = LIVE.load(Relaxed);
        PEAK.store(live, Relaxed);
        Window {
            calls: CALLS.load(Relaxed),
            bytes: BYTES.load(Relaxed),
            live,
        }
    }

    /// Stop counting.
    pub fn close(self) -> AllocStats {
        AllocStats {
            count: CALLS.load(Relaxed) - self.calls,
            bytes: BYTES.load(Relaxed) - self.bytes,
            peak_bytes: PEAK.load(Relaxed) - self.live,
        }
    }
}
