//! Pre-registered metric handles for hot-path instrumentation.
//!
//! [`crate::count`] and [`crate::record`] take a `&str` and walk the
//! registry's name map on every call. That lookup (a lock plus a
//! `BTreeMap` search) is noise for once-per-round metrics but real cost
//! inside the training loop. A handle is declared `static` at the
//! instrument site and resolves its registry slot **once**, the first
//! time it fires with observability enabled; every later hit is the
//! enabled check plus one atomic.
//!
//! ```
//! use fedknow_obs::{CounterHandle, HistHandle};
//!
//! static FAST_PATH: CounterHandle = CounterHandle::new("qp.fast_path");
//! static SOLVE_NS: HistHandle = HistHandle::new("qp.solve_ns");
//!
//! fn solve() {
//!     let _t = SOLVE_NS.timer();
//!     FAST_PATH.add(1);
//! }
//! ```
//!
//! Handles keep full parity with the string API: they feed the same
//! registry slots (so `registry.counter(name)` sees the same totals)
//! and emit the same `Count` / `Sample` records.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::hist::LogHistogram;
use crate::registry::Counter;
use crate::ring::RingData;

/// A named counter whose registry slot is resolved once.
pub struct CounterHandle {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl CounterHandle {
    /// Declare a handle (usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The metric name this handle records under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Add `delta`. No-op (one relaxed load) when disabled.
    #[inline]
    pub fn add(&self, delta: u64) {
        if !crate::is_enabled() {
            return;
        }
        self.cell
            .get_or_init(|| crate::state().registry.counter(self.name))
            .add(delta);
        crate::ring::emit(RingData::Count {
            name: self.name.to_string(),
            delta,
        });
    }
}

/// A named histogram whose registry slot is resolved once.
pub struct HistHandle {
    name: &'static str,
    cell: OnceLock<Arc<LogHistogram>>,
}

impl HistHandle {
    /// Declare a handle (usable in `static` position).
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    /// The metric name this handle records under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record one value. No-op (one relaxed load) when disabled.
    #[inline]
    pub fn record(&self, value: u64) {
        if !crate::is_enabled() {
            return;
        }
        self.cell
            .get_or_init(|| crate::state().registry.hist(self.name))
            .record(value);
        crate::ring::emit(RingData::Sample {
            name: self.name.to_string(),
            value,
        });
    }

    /// RAII timer recording elapsed nanoseconds into this histogram on
    /// drop. Reads no clock when disabled.
    #[inline]
    pub fn timer(&self) -> HandleTimer<'_> {
        HandleTimer {
            handle: self,
            start: crate::is_enabled().then(Instant::now),
        }
    }
}

/// RAII guard from [`HistHandle::timer`].
#[must_use = "dropping a HandleTimer immediately records a zero-length phase; bind it to a variable"]
pub struct HandleTimer<'a> {
    handle: &'a HistHandle,
    start: Option<Instant>,
}

impl Drop for HandleTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.handle.record(start.elapsed().as_nanos() as u64);
        }
    }
}

// Handle behaviour is covered by the facade lifecycle test in
// `lib.rs`: the enable/disable sequencing is process-global, so all
// global-state coverage lives in that single test.
