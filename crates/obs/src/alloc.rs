//! Scoped heap-allocation tracking.
//!
//! [`TrackingAllocator`] wraps the system allocator and is installed as
//! the `#[global_allocator]` of every binary that links this crate. It
//! is **off by default**: each allocator call pays exactly one relaxed
//! atomic load and a predictable branch — nothing else — until tracking
//! is switched on with `FEDKNOW_PROF_ALLOC=1` (read by
//! [`init_from_env`](crate::init_from_env)) or [`set_tracking`].
//!
//! When on, every allocation bumps
//!
//! * global totals (`alloc.count`, `alloc.bytes`, live bytes and the
//!   high-water mark `alloc.peak_bytes`, mirrored into the registry at
//!   flush time), and
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
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

static TRACKING: AtomicBool = AtomicBool::new(false);
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
/// Signed: deallocations of blocks allocated before tracking was
/// enabled would otherwise underflow.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Whether allocation tracking is currently on.
#[inline]
pub fn tracking_enabled() -> bool {
    TRACKING.load(Relaxed)
}

/// Switch allocation tracking on or off at runtime (used by the
/// overhead harness and tests; normal runs go through
/// [`init_from_env`](crate::init_from_env)).
pub fn set_tracking(on: bool) {
    TRACKING.store(on, Relaxed);
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
}

/// Current global allocation totals.
pub fn stats() -> AllocStats {
    AllocStats {
        count: TOTAL_ALLOCS.load(Relaxed),
        bytes: TOTAL_BYTES.load(Relaxed),
        live_bytes: LIVE_BYTES.load(Relaxed).max(0) as u64,
        peak_bytes: PEAK_BYTES.load(Relaxed),
    }
}

/// This thread's running `(allocs, bytes)` totals; span guards diff two
/// reads to attribute allocations to a span.
pub fn thread_totals() -> (u64, u64) {
    (TL_ALLOCS.with(Cell::get), TL_BYTES.with(Cell::get))
}

/// Mirror the global totals into the metrics registry (`alloc.count`,
/// `alloc.bytes` counters; `alloc.peak_bytes`, `alloc.live_bytes`
/// gauges) so snapshots and reports see them.
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
    reg.set_gauge("alloc.peak_bytes", s.peak_bytes as f64);
    reg.set_gauge("alloc.live_bytes", s.live_bytes as f64);
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
        // Off: a fresh allocation leaves the totals alone.
        set_tracking(false);
        let before = stats();
        let (ta0, _) = thread_totals();
        std::hint::black_box(vec![0u8; 4096]);
        assert_eq!(stats().count, before.count);
        assert_eq!(thread_totals().0, ta0);

        // On: totals, thread totals and the peak all move.
        set_tracking(true);
        let before = stats();
        let (ta1, tb1) = thread_totals();
        let v = std::hint::black_box(vec![7u8; 8192]);
        let after = stats();
        assert!(after.count > before.count);
        assert!(after.bytes >= before.bytes + 8192);
        assert!(after.peak_bytes >= 8192);
        let (ta2, tb2) = thread_totals();
        assert!(ta2 > ta1);
        assert!(tb2 - tb1 >= 8192);
        drop(v);
        set_tracking(false);
    }
}
