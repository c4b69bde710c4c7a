//! Pre-registered counter handles for hot-path instrumentation.
//!
//! [`crate::count`] takes a `&str` and walks the registry's name map on
//! every call. That lookup (a lock plus a `BTreeMap` search) is noise
//! for once-per-round counters but real cost inside the training loop.
//! A handle is declared `static` at the instrument site and resolves
//! its registry slot **once**, the first time it fires with
//! observability enabled; every later hit is the enabled check plus one
//! atomic.
//!
//! ```
//! use fedknow_obs::CounterHandle;
//!
//! static FAST_PATH: CounterHandle = CounterHandle::new("qp.fast_path");
//!
//! fn solve() {
//!     let _t = fedknow_obs::timer("qp.solve_ns");
//!     FAST_PATH.add(1);
//! }
//! ```
//!
//! A handle keeps full parity with the string API: it feeds the same
//! registry counter (so `registry.counter(name)` sees the same total)
//! and emits the same `Count` record.

use std::sync::{Arc, OnceLock};

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

// Handle behaviour is covered by the facade lifecycle test in
// `lib.rs`: the enable/disable sequencing is process-global, so all
// global-state coverage lives in that single test.
