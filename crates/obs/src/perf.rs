//! FLOP/byte performance accounting for the numerical kernels.
//!
//! A [`PerfCounter`] is the hot-path variant of
//! [`CounterHandle`](crate::handle::CounterHandle): it feeds the pair of
//! registry counters `flops.<kernel>` / `bytes.<kernel>` **only** — no
//! record per call — because kernel call sites (every `matmul`, every
//! conv image) fire orders of magnitude more often than round-level
//! metrics and per-call records would dominate the run. Recordings
//! still see the totals: `flush_deltas` (called from
//! [`flush`](crate::flush) at the end of a run and before every dump)
//! emits one `Count` record per perf counter carrying the delta since
//! the previous flush.
//!
//! Each `op` also adds to per-thread running totals; span guards
//! snapshot those at open and attribute the difference to the span on
//! close (see [`SpanPerf`](crate::ring::SpanPerf)), which is what lets
//! `obs report` print *achieved GFLOP/s per phase*.
//!
//! Kernel namespaces are disjoint by construction: `conv2d_fwd`/
//! `conv2d_bwd` call the uncounted `*_raw` GEMM variants internally and
//! do their own accounting, so `flops.*` counters can be summed without
//! double counting.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::registry::Counter;
use crate::ring::RingData;

thread_local! {
    static TL_FLOPS: Cell<u64> = const { Cell::new(0) };
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// A per-kernel FLOP/byte counter pair whose registry slots are
/// resolved once. Declare `static` at the kernel site:
///
/// ```
/// use fedknow_obs::PerfCounter;
///
/// static MATMUL: PerfCounter = PerfCounter::new("matmul");
///
/// fn matmul_site(m: u64, k: u64, n: u64) {
///     // ... the actual kernel ...
///     MATMUL.op(2 * m * k * n, 4 * (m * k + k * n + m * n));
/// }
/// ```
pub struct PerfCounter {
    kernel: &'static str,
    cell: OnceLock<(Arc<Counter>, Arc<Counter>)>,
}

impl PerfCounter {
    /// Declare a handle (usable in `static` position). `kernel` is the
    /// bare kernel name; the registry metrics are `flops.<kernel>` and
    /// `bytes.<kernel>`.
    pub const fn new(kernel: &'static str) -> Self {
        Self {
            kernel,
            cell: OnceLock::new(),
        }
    }

    /// The bare kernel name.
    pub fn kernel(&self) -> &'static str {
        self.kernel
    }

    /// Account one kernel invocation: `flops` floating-point operations
    /// performed, `bytes` bytes moved (compulsory operand traffic).
    /// No-op (one relaxed load) when observability is disabled; two
    /// atomic adds plus two thread-local adds when enabled.
    #[inline]
    pub fn op(&self, flops: u64, bytes: u64) {
        if !crate::is_enabled() {
            return;
        }
        let (f, b) = self.cell.get_or_init(|| {
            let r = &crate::state().registry;
            (
                r.counter(&format!("flops.{}", self.kernel)),
                r.counter(&format!("bytes.{}", self.kernel)),
            )
        });
        f.add(flops);
        b.add(bytes);
        TL_FLOPS.with(|c| c.set(c.get().wrapping_add(flops)));
        TL_BYTES.with(|c| c.set(c.get().wrapping_add(bytes)));
    }
}

/// This thread's running `(flops, bytes)` totals across all kernels.
/// Span guards diff two reads of this to attribute work to a span.
pub fn thread_totals() -> (u64, u64) {
    (TL_FLOPS.with(Cell::get), TL_BYTES.with(Cell::get))
}

/// Perf counter totals already emitted as records, by name.
static EMITTED: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// Whether `name` belongs to the perf namespaces that are accumulated
/// in the registry only and emitted as delta records at flush time.
pub(crate) fn is_perf_metric(name: &str) -> bool {
    name.starts_with("flops.") || name.starts_with("bytes.") || name.starts_with("alloc.")
}

/// Emit the growth of every `flops.*` / `bytes.*` / `alloc.*` registry
/// counter since the previous call as `Count` records.
/// Called from [`flush`](crate::flush); safe to call repeatedly.
pub(crate) fn flush_deltas() {
    if !crate::is_enabled() {
        return;
    }
    crate::alloc::sync_registry();
    let snap = crate::snapshot();
    let Some(snap) = snap else { return };
    let mut emitted = EMITTED.lock().expect("perf flush mutex");
    for (name, &total) in &snap.counters {
        if !is_perf_metric(name) {
            continue;
        }
        let prev = emitted.get(name).copied().unwrap_or(0);
        if total > prev {
            crate::ring::emit(RingData::Count {
                name: name.clone(),
                delta: total - prev,
            });
            emitted.insert(name.clone(), total);
        }
    }
}

// Enabled-path accumulation is covered by the facade lifecycle test in
// `lib.rs`: enable/disable sequencing is process-global, so all
// global-state coverage lives in that single test.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_namespace_filter() {
        assert!(is_perf_metric("flops.matmul"));
        assert!(is_perf_metric("bytes.conv2d_fwd"));
        assert!(is_perf_metric("alloc.count"));
        assert!(!is_perf_metric("qp.fast_path"));
        assert!(!is_perf_metric("comm.upload_bytes"));
    }
}
