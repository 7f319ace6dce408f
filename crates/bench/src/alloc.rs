//! Counting global allocator — the live-heap bound of the `serve_soak` test.
//!
//! Wraps [`System`] with relaxed atomic counters: bytes and calls
//! allocated, plus a high-water mark of live bytes. [`measure`] reads the
//! deltas around a region, turning "a long-lived daemon's heap stays
//! bounded" into a number a test can assert on. Overhead is four relaxed
//! atomic ops per allocation — noise next to the allocation itself.
//!
//! The `unsafe` here is confined to forwarding [`GlobalAlloc`] to
//! [`System`]; the counters themselves are safe code.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus allocation accounting. Installed as the global
/// allocator of every `rwc-bench` binary and test.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the bookkeeping never observes or
// alters the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            record_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            record_alloc(new_size as u64);
        }
        p
    }
}

fn record_alloc(bytes: u64) {
    ALLOC_BYTES.fetch_add(bytes, Ordering::Relaxed);
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Point-in-time allocator counters.
#[derive(Debug, Clone, Copy)]
pub struct AllocSnapshot {
    /// Total bytes allocated since process start.
    pub bytes: u64,
    /// Total allocation calls since process start.
    pub count: u64,
    /// Bytes currently live.
    pub live_bytes: u64,
    /// High-water mark of live bytes since the last [`reset_peak`].
    pub peak_live_bytes: u64,
}

/// Reads the counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        count: ALLOC_COUNT.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_live_bytes: PEAK_LIVE_BYTES.load(Ordering::Relaxed),
    }
}

/// Resets the live-bytes high-water mark to the current live level, so the
/// next measured region reports its own peak rather than the process's.
pub fn reset_peak() {
    PEAK_LIVE_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Allocation accounting of one measured region: bytes/calls allocated
/// inside it and the peak of live bytes reached while it ran.
#[derive(Debug, Clone, Copy)]
pub struct AllocDelta {
    /// Bytes allocated within the region.
    pub bytes: u64,
    /// Allocation calls within the region.
    pub count: u64,
    /// Peak live bytes while the region ran (absolute, RSS-proxy).
    pub peak_live_bytes: u64,
}

/// Measures the allocations of `f`. Single measured region at a time —
/// concurrent measured regions would share the global counters.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, AllocDelta) {
    reset_peak();
    let before = snapshot();
    let out = f();
    let after = snapshot();
    (
        out,
        AllocDelta {
            bytes: after.bytes - before.bytes,
            count: after.count - before.count,
            peak_live_bytes: after.peak_live_bytes,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_sees_allocations() {
        let (len, delta) = measure(|| {
            let v: Vec<u64> = (0..10_000).collect();
            v.len()
        });
        assert_eq!(len, 10_000);
        assert!(delta.bytes >= 80_000, "vec of 10k u64 allocates >= 80 kB, saw {}", delta.bytes);
        assert!(delta.count >= 1);
        assert!(delta.peak_live_bytes >= 80_000);
    }

    #[test]
    fn counters_are_monotonic() {
        let a = snapshot();
        let _v: Vec<u8> = Vec::with_capacity(1024);
        let b = snapshot();
        assert!(b.bytes >= a.bytes + 1024);
        assert!(b.count > a.count);
    }
}
