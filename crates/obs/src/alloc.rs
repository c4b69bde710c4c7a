//! Scoped heap-allocation tracking.
//!
//! [`TrackingAllocator`] wraps the system allocator and is installed as
//! the `#[global_allocator]` of every binary that links this crate. It
//! is **off by default**: each allocator call pays exactly one relaxed
//! atomic load and a predictable branch — nothing else — until tracking
//! is switched on. Tracking is on while any [`TrackingScope`] is open
//! ([`track`]); observability coming up (see [`crate::enable`]) opens
//! one for the rest of the process. Scopes are counted, so tests
//! measuring in parallel cannot switch tracking off under each other.
//!
//! When on, every allocation bumps
//!
//! * global totals ([`stats`]: count and bytes, mirrored at flush time
//!   into the `alloc.count` / `alloc.bytes` counters, live bytes, their
//!   high-water mark, and the count of allocations of at least
//!   [`LARGE_ALLOC_BYTES`]), and
//! * per-thread running totals, which span guards diff to attribute
//!   allocation counts to span paths (see
//!   [`SpanPerf`](crate::ring::SpanPerf)) — the per-call-site
//!   inventory the workspace-reuse optimisation work burns down.
//!
//! The accounting path must never allocate (it runs inside `alloc`):
//! it touches only atomics and `const`-initialised thread-locals, and
//! uses `try_with` so allocations during thread teardown (after TLS
//! destruction) stay safe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Allocations at least this large are counted apart: glibc's default
/// mmap threshold, above which a fresh block may come from new,
/// zero-filled pages (each touched page a minor fault).
pub const LARGE_ALLOC_BYTES: usize = 128 * 1024;

/// Open [`TrackingScope`]s; tracking is on while this is non-zero.
static SCOPES: AtomicUsize = AtomicUsize::new(0);
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
/// Signed: deallocations of blocks allocated before tracking was
/// enabled would otherwise underflow.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
    static TL_LARGE: Cell<u64> = const { Cell::new(0) };
}

/// Whether allocation tracking is currently on (some scope is open).
#[inline]
pub fn tracking_enabled() -> bool {
    SCOPES.load(Relaxed) > 0
}

/// Allocation tracking held on: every allocation, on every thread, is
/// counted from [`track`] until the last open scope is dropped.
#[must_use = "tracking stops when the scope is dropped"]
#[derive(Debug)]
pub struct TrackingScope(());

/// Open a tracking scope. Tracking stays on while any scope is open, so
/// one caller closing its scope never switches off another's
/// measurement.
pub fn track() -> TrackingScope {
    SCOPES.fetch_add(1, Relaxed);
    TrackingScope(())
}

impl Drop for TrackingScope {
    fn drop(&mut self) {
        SCOPES.fetch_sub(1, Relaxed);
    }
}

/// A point-in-time copy of the global allocation totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Allocations observed while tracking was on.
    pub count: u64,
    /// Bytes requested across those allocations.
    pub bytes: u64,
    /// Net live bytes (allocated − freed while tracking; can dip
    /// negative transiently, clamped to 0 here).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_bytes: u64,
    /// Allocations of at least [`LARGE_ALLOC_BYTES`].
    pub large: u64,
}

/// Current global allocation totals.
pub fn stats() -> AllocStats {
    AllocStats {
        count: TOTAL_ALLOCS.load(Relaxed),
        bytes: TOTAL_BYTES.load(Relaxed),
        live_bytes: LIVE_BYTES.load(Relaxed).max(0) as u64,
        peak_bytes: PEAK_BYTES.load(Relaxed),
        large: LARGE_ALLOCS.load(Relaxed),
    }
}

/// This thread's running `(allocs, bytes)` totals; span guards diff two
/// reads to attribute allocations to a span.
pub fn thread_totals() -> (u64, u64) {
    (TL_ALLOCS.with(Cell::get), TL_BYTES.with(Cell::get))
}

/// This thread's running count of allocations of at least
/// [`LARGE_ALLOC_BYTES`].
pub fn thread_large() -> u64 {
    TL_LARGE.with(Cell::get)
}

/// Mirror the global totals into the registry's `alloc.count` /
/// `alloc.bytes` counters (emitted as records by the perf flush), so
/// snapshots and reports see them.
/// Called from the flush path; cheap no-op when nothing was tracked.
pub(crate) fn sync_registry() {
    if !crate::is_enabled() {
        return;
    }
    let s = stats();
    if s.count == 0 {
        return;
    }
    let reg = &crate::state().registry;
    for (name, total) in [("alloc.count", s.count), ("alloc.bytes", s.bytes)] {
        let c = reg.counter(name);
        let cur = c.get();
        if total > cur {
            c.add(total - cur);
        }
    }
}

#[inline]
fn note_alloc(size: usize) {
    let size = size as u64;
    TOTAL_ALLOCS.fetch_add(1, Relaxed);
    TOTAL_BYTES.fetch_add(size, Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Relaxed) + size as i64;
    if live > 0 {
        PEAK_BYTES.fetch_max(live as u64, Relaxed);
    }
    let _ = TL_ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
    let _ = TL_BYTES.try_with(|c| c.set(c.get().wrapping_add(size)));
    if size >= LARGE_ALLOC_BYTES as u64 {
        LARGE_ALLOCS.fetch_add(1, Relaxed);
        let _ = TL_LARGE.try_with(|c| c.set(c.get().wrapping_add(1)));
    }
}

#[inline]
fn note_dealloc(size: usize) {
    LIVE_BYTES.fetch_sub(size as i64, Relaxed);
}

/// The wrapper allocator. Install with
/// `#[global_allocator] static A: TrackingAllocator = TrackingAllocator;`
/// (this crate already does, for every dependent binary).
pub struct TrackingAllocator;

// SAFETY: defers all allocation to `System`; the bookkeeping on the
// side touches only atomics and const-initialised thread-locals, so it
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if tracking_enabled() && !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if tracking_enabled() && !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        if tracking_enabled() {
            note_dealloc(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if tracking_enabled() && !p.is_null() {
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracking_counts_allocations_and_peak() {
        // Inside a scope: totals, thread totals and the peak all move,
        // whatever other tests open or close meanwhile. (That nothing
        // is counted with no scope open is pinned by
        // `tests/alloc_scopes.rs`, a binary of its own.)
        let scope = track();
        assert!(tracking_enabled());
        let before = stats();
        let (ta1, tb1) = thread_totals();
        let large1 = thread_large();
        let v = std::hint::black_box(vec![7u8; 8192]);
        let big = std::hint::black_box(vec![1u8; LARGE_ALLOC_BYTES]);
        let after = stats();
        assert!(after.count > before.count);
        assert!(after.bytes >= before.bytes + 8192);
        assert!(after.peak_bytes >= 8192);
        assert!(after.large > before.large);
        let (ta2, tb2) = thread_totals();
        assert!(ta2 > ta1);
        assert!(tb2 - tb1 >= 8192 + LARGE_ALLOC_BYTES as u64);
        assert_eq!(thread_large() - large1, 1, "only the big one is large");
        drop((v, big));
        drop(scope);
    }
}
