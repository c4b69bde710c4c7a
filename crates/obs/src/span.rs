//! Hierarchical spans and phase timers.
//!
//! Spans form a per-thread stack (`run → task → round → client →
//! phase`); each span emits a `Begin` record when it opens and an `End`
//! record (slash-joined path, duration, attributed work) when it
//! closes. Worker threads spawned mid-run inherit the parent's path via
//! [`inherit_path`], which is what keeps paths correct under parallel
//! client execution.
//!
//! All constructors return inert guards when observability is disabled:
//! no clock read, no allocation.

use std::cell::RefCell;
use std::time::Instant;

use crate::ring::{RingData, SpanPerf};

thread_local! {
    static SPAN_PATH: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// The current thread's span path, slash-joined (empty if no spans are
/// open). Capture this before spawning workers and pass it to
/// [`inherit_path`] inside them.
pub fn current_path() -> String {
    SPAN_PATH.with(|p| p.borrow().join("/"))
}

/// Thread-local totals captured when a span opens; diffed on close to
/// attribute kernel work and allocations to the span.
struct SpanStart {
    t: Instant,
    flops: u64,
    bytes: u64,
    allocs: u64,
    alloc_bytes: u64,
}

/// RAII guard for an open span. Closing (dropping) pops the span and
/// emits its timing.
#[must_use = "dropping a SpanGuard immediately records a zero-length span; bind it to a variable"]
pub struct SpanGuard {
    start: Option<SpanStart>,
}

impl SpanGuard {
    /// An inert guard that records nothing on drop. Used by
    /// [`obs_span!`](crate::obs_span) to skip name formatting entirely
    /// when observability is disabled.
    pub fn inert() -> Self {
        Self { start: None }
    }
}

/// Open a span named `name` under the current thread's span stack.
pub fn span(name: &str) -> SpanGuard {
    if !crate::is_enabled() {
        return SpanGuard { start: None };
    }
    let path = SPAN_PATH.with(|p| {
        let mut p = p.borrow_mut();
        p.push(name.to_string());
        p.join("/")
    });
    crate::ring::emit(RingData::Begin { path });
    let (flops, bytes) = crate::perf::thread_totals();
    let (allocs, alloc_bytes) = crate::alloc::thread_totals();
    SpanGuard {
        start: Some(SpanStart {
            t: Instant::now(),
            flops,
            bytes,
            allocs,
            alloc_bytes,
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        let dur_ns = start.t.elapsed().as_nanos() as u64;
        let (flops, bytes) = crate::perf::thread_totals();
        let (allocs, alloc_bytes) = crate::alloc::thread_totals();
        let perf = SpanPerf {
            flops: flops.wrapping_sub(start.flops),
            bytes: bytes.wrapping_sub(start.bytes),
            allocs: allocs.wrapping_sub(start.allocs),
            alloc_bytes: alloc_bytes.wrapping_sub(start.alloc_bytes),
        };
        let path = SPAN_PATH.with(|p| {
            let mut p = p.borrow_mut();
            let path = p.join("/");
            p.pop();
            path
        });
        crate::ring::emit(RingData::End {
            path,
            dur_ns,
            perf: (perf != SpanPerf::default()).then_some(perf),
        });
    }
}

/// RAII guard restoring a worker thread's previous (usually empty) span
/// path on drop.
#[must_use = "dropping a PathGuard immediately reverts the inherited span path; bind it to a variable"]
pub struct PathGuard {
    saved: Option<Vec<String>>,
}

/// Adopt `path` (a [`current_path`] capture from the parent thread) as
/// this thread's span-stack root, so spans opened here nest correctly
/// in the run hierarchy.
pub fn inherit_path(path: &str) -> PathGuard {
    if !crate::is_enabled() {
        return PathGuard { saved: None };
    }
    let segments: Vec<String> = path
        .split('/')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    let saved = SPAN_PATH.with(|p| std::mem::replace(&mut *p.borrow_mut(), segments));
    PathGuard { saved: Some(saved) }
}

impl Drop for PathGuard {
    fn drop(&mut self) {
        if let Some(saved) = self.saved.take() {
            SPAN_PATH.with(|p| *p.borrow_mut() = saved);
        }
    }
}

/// RAII phase timer: on drop, records the elapsed nanoseconds as one
/// `Sample` record of the named metric.
#[must_use = "dropping a TimerGuard immediately records a zero-length phase; bind it to a variable"]
pub struct TimerGuard {
    name: &'static str,
    start: Option<Instant>,
}

/// Start timing the phase metric `name` (e.g. `qp.solve_ns`).
pub fn timer(name: &'static str) -> TimerGuard {
    let start = crate::is_enabled().then(Instant::now);
    TimerGuard { name, start }
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        crate::record(self.name, start.elapsed().as_nanos() as u64);
    }
}
