//! # fedknow-obs
//!
//! Observability for the FedKNOW simulation stack: hierarchical spans,
//! phase timers, a thread-safe registry of exact counters, and one
//! telemetry event — the flight recorder's [`RingRecord`] — kept in
//! bounded per-thread rings and, optionally, streamed to a JSONL file.
//!
//! ## Cost model
//!
//! The layer is **off by default**. Every public recording function
//! starts with one relaxed atomic load; when disabled it returns
//! immediately — no clock reads, no allocation, no locks. It turns on
//! in two ways:
//!
//! * `FEDKNOW_OBS=<path>` or `FEDKNOW_TRACE_DIR=<dir>` in the
//!   environment (checked by [`init_from_env`], which the simulation
//!   calls once per run).
//! * [`enable`] from code (used by the report binaries and tests).
//!
//! Either way the two variables are read once, the first time
//! observability is asked for, and their effective values are
//! registered as `obs.*` context entries so every bundle says how it
//! was recorded. Once enabled, observability stays enabled for the
//! process, and so does heap-allocation accounting (see [`alloc`]).
//! Each thread's ring holds the last [`DEFAULT_TRACE_CAP`] records.
//!
//! ## Vocabulary
//!
//! * [`span`](mod@span) — hierarchical timed regions (`run → task → round →
//!   client`); worker threads join the hierarchy via [`current_path`] +
//!   [`inherit_path`].
//! * [`timer`] / [`record`] — phase timings (`qp.solve_ns`,
//!   `extract.topk_ns`, …) and other samples (`qp.iters`), one `Sample`
//!   record each; [`series`] — round-indexed points, one record each.
//! * [`count`] — exact counters (`comm.upload_bytes`, `qp.fallback`):
//!   a record and a registry total, which stays exact whatever the
//!   rings overwrote.
//! * [`snapshot`] — copy of the registry's counters;
//!   [`MetricsSnapshot::since`] attributes counts to one interval by
//!   diffing two snapshots.
//! * [`ring`] — the one event and the flight recorder: every site above
//!   builds one [`RingData`], which lands in the recording thread's
//!   bounded ring and, with `FEDKNOW_OBS=<path>`, as one line of the
//!   JSONL stream. Rings are drained into postmortem [`bundle`]s on
//!   panic, strict verify violations, injected faults, or an explicit
//!   [`dump_now`].
//! * [`Recording`] — the one reader: loads a stream or a bundle into
//!   records per thread; [`Aggregate`] totals it exactly for reports
//!   and [`trace`] renders it as a Chrome/Perfetto timeline.

pub mod alloc;
pub mod bundle;
pub mod perf;
pub mod registry;
pub mod ring;
pub mod sink;
pub mod span;
pub mod trace;

pub use alloc::{AllocStats, TrackingAllocator};
pub use bundle::{
    collect_bundle, dump_now, dump_trigger, set_context, ContextEntry, MetricsDump,
    PostmortemBundle,
};
pub use perf::PerfCounter;
pub use registry::{Counter, MetricsSnapshot, Registry};
pub use ring::{RingBuf, RingData, RingRecord, SpanPerf, ThreadTrack, DEFAULT_TRACE_CAP};
pub use sink::{Aggregate, JsonlSink, LoadError, Recording, SpanStat};
pub use span::{current_path, inherit_path, span, timer, PathGuard, SpanGuard, TimerGuard};

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Environment variable naming the JSONL stream path.
pub const ENV_JSONL: &str = "FEDKNOW_OBS";
/// Environment variable naming the directory postmortem bundles are
/// written to. Setting it enables observability on its own.
pub const ENV_TRACE_DIR: &str = "FEDKNOW_TRACE_DIR";

/// Every binary linking this crate routes heap allocation through the
/// tracking wrapper. Disabled it costs one relaxed load per allocator
/// call; observability coming up turns the accounting on (see [`alloc`]).
#[global_allocator]
static GLOBAL_ALLOC: TrackingAllocator = TrackingAllocator;

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: OnceLock<State> = OnceLock::new();
/// Ambient round index for series points recorded deep in the stack
/// (integrator, restorer) that don't know the round they run in.
static ROUND: AtomicU64 = AtomicU64::new(0);

/// The two observability variables, read once — the first time
/// [`init_from_env`] or [`enable`] runs.
pub(crate) struct Config {
    jsonl: Option<String>,
    pub(crate) trace_dir: Option<PathBuf>,
}

pub(crate) fn config() -> &'static Config {
    static CONFIG: OnceLock<Config> = OnceLock::new();
    CONFIG.get_or_init(|| Config {
        jsonl: std::env::var(ENV_JSONL).ok(),
        trace_dir: std::env::var_os(ENV_TRACE_DIR).map(PathBuf::from),
    })
}

struct State {
    registry: Registry,
    jsonl: Option<JsonlSink>,
}

/// Bring observability up: open the stream, start the recorder and
/// the allocation accounting, and register the effective
/// configuration as bundle context.
fn state() -> &'static State {
    STATE.get_or_init(|| {
        let cfg = config();
        let jsonl = cfg.jsonl.as_ref().and_then(|path| {
            if let Some(parent) = std::path::Path::new(path).parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            JsonlSink::create(path)
                .map_err(|e| eprintln!("fedknow-obs: cannot open {ENV_JSONL}={path}: {e}"))
                .ok()
        });
        let trace_dir = cfg.trace_dir.as_ref().map(|d| d.display().to_string());
        for (key, value) in [
            ("obs.jsonl", cfg.jsonl.clone()),
            ("obs.trace_dir", trace_dir),
        ] {
            set_context(key, value.as_deref().unwrap_or("unset"));
        }
        ring::start();
        // This scope never closes: accounting stays on with observability.
        std::mem::forget(alloc::track());
        State {
            registry: Registry::new(),
            jsonl,
        }
    })
}

/// The attached JSONL stream, if any.
pub(crate) fn stream() -> Option<&'static JsonlSink> {
    STATE.get()?.jsonl.as_ref()
}

/// Whether observability is on. One relaxed atomic load — this is the
/// entire cost of every instrumentation site when disabled.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable observability if `FEDKNOW_OBS` (JSONL stream) or
/// `FEDKNOW_TRACE_DIR` (postmortem bundle directory) is set in the
/// environment. Whenever observability is up, the crash-flush panic
/// hook is installed (see [`bundle`]). Idempotent; returns whether
/// observability is enabled afterwards.
pub fn init_from_env() -> bool {
    let cfg = config();
    if cfg.jsonl.is_some() || cfg.trace_dir.is_some() {
        enable();
    }
    if is_enabled() {
        bundle::install_panic_hook();
    }
    is_enabled()
}

/// Enable the in-memory registry and the flight recorder from code
/// (the JSONL stream is still attached only when `FEDKNOW_OBS` is set).
/// Idempotent.
pub fn enable() {
    state();
    ENABLED.store(true, Ordering::Release);
}

/// Add `delta` to the counter `name`. No-op when disabled.
pub fn count(name: &str, delta: u64) {
    if !is_enabled() {
        return;
    }
    state().registry.add(name, delta);
    ring::emit(RingData::Count {
        name: name.to_string(),
        delta,
    });
}

/// Record the sample `value` of the metric `name`. No-op when
/// disabled.
pub fn record(name: &str, value: u64) {
    if !is_enabled() {
        return;
    }
    ring::emit(RingData::Sample {
        name: name.to_string(),
        value,
    });
}

/// Append a point to the series `name` at the current ambient round
/// index (see [`set_round`]). No-op when disabled.
pub fn series(name: &str, value: f64) {
    series_at(name, round_index(), value);
}

/// Append a point to the series `name` at an explicit index. No-op when
/// disabled.
pub fn series_at(name: &str, index: u64, value: f64) {
    if !is_enabled() {
        return;
    }
    ring::emit(RingData::Point {
        name: name.to_string(),
        index,
        value,
    });
}

/// Publish the current global round index (the simulation calls this at
/// every round boundary) so instrumentation deep in the stack can tag
/// series points with the round they belong to.
pub fn set_round(round: u64) {
    ROUND.store(round, Ordering::Relaxed);
}

/// The last-published global round index (0 before any round).
pub fn round_index() -> u64 {
    ROUND.load(Ordering::Relaxed)
}

/// Record a fault injection into the flight recorder (`kind` is the
/// fault-plan label, `detail` mirrors the fl layer's `FaultEvent`
/// detail field). One relaxed load when disabled.
pub fn fault(client: u64, kind: &str, detail: u64) {
    if !is_enabled() {
        return;
    }
    ring::emit(RingData::Fault {
        client,
        kind: kind.to_string(),
        detail,
    });
}

/// Record a runtime invariant violation into the flight recorder.
/// One relaxed load when disabled.
pub fn violation(check: &str, detail: &str) {
    if !is_enabled() {
        return;
    }
    ring::emit(RingData::Violation {
        check: check.to_string(),
        detail: detail.to_string(),
    });
}

/// Record a free-form marker (checkpoint/resume boundaries, panics)
/// into the flight recorder. One relaxed load when disabled.
pub fn mark(note: &str) {
    if !is_enabled() {
        return;
    }
    ring::emit(RingData::Note {
        note: note.to_string(),
    });
}

/// Open a span with a formatted name (`obs_span!("client.{c}")`)
/// without paying for the `format!` when observability is disabled:
/// the arguments are only evaluated behind the enabled check.
#[macro_export]
macro_rules! obs_span {
    ($($arg:tt)*) => {
        if $crate::is_enabled() {
            $crate::span(&format!($($arg)*))
        } else {
            $crate::SpanGuard::inert()
        }
    };
}

/// A copy of the global registry's counters, or `None` while disabled.
pub fn snapshot() -> Option<MetricsSnapshot> {
    is_enabled().then(|| state().registry.snapshot())
}

/// Flush observability state at the end of a run: emit the growth of
/// the `flops.*`/`bytes.*`/`alloc.*` perf counters as `Count` records
/// (they are registry-only on the hot path), then flush the JSONL
/// stream (the global stream is never dropped).
pub fn flush() {
    if is_enabled() {
        perf::flush_deltas();
        if let Some(j) = stream() {
            j.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static LIFECYCLE_KERNEL: PerfCounter = PerfCounter::new("lifecycle_kernel");

    /// Everything this process's rings hold, aggregated.
    fn recorded() -> Aggregate {
        Aggregate::from_records(&Recording::from(collect_bundle("lifecycle")))
    }

    /// The global facade is process-wide state, so the whole sequence
    /// lives in one test: disabled behaviour first, then enable and
    /// exercise every entry point.
    #[test]
    fn facade_lifecycle() {
        // Disabled (no FEDKNOW_OBS in the test environment, `enable`
        // not yet called): everything is inert.
        assert!(!is_enabled());
        count("lifecycle.c", 5);
        record("lifecycle.h", 5);
        series("lifecycle.s", 9.0);
        LIFECYCLE_KERNEL.op(100, 50);
        assert_eq!(perf::thread_totals(), (0, 0));
        {
            let _t = timer("lifecycle.t_ns");
            let _s = span("lifecycle_span");
            assert_eq!(current_path(), "");
        }
        assert!(snapshot().is_none());
        assert!(!init_from_env());

        enable();
        assert!(is_enabled());
        assert!(
            alloc::tracking_enabled(),
            "allocation accounting follows observability"
        );
        // The disabled-phase calls must have left no trace.
        let s0 = snapshot().unwrap();
        assert!(!s0.counters.contains_key("lifecycle.c"));
        let a0 = recorded();
        assert!(!a0.samples.contains_key("lifecycle.h"));
        assert!(!a0.series.contains_key("lifecycle.s"));

        count("lifecycle.c", 5);
        count("lifecycle.c", 2);
        record("lifecycle.h", 40);
        set_round(3);
        assert_eq!(round_index(), 3);
        series("lifecycle.s", 0.5); // lands at the ambient round 3
        series_at("lifecycle.s", 7, 0.25);
        let (f0, b0) = perf::thread_totals();
        LIFECYCLE_KERNEL.op(64, 32);
        LIFECYCLE_KERNEL.op(6, 3);
        let (f1, b1) = perf::thread_totals();
        assert_eq!((f1 - f0, b1 - b0), (70, 35));
        {
            let _t = timer("lifecycle.t_ns");
            let outer = span("lifecycle_outer");
            {
                let _inner = span("lifecycle_inner");
                assert_eq!(current_path(), "lifecycle_outer/lifecycle_inner");
            }
            assert_eq!(current_path(), "lifecycle_outer");
            drop(outer);
            assert_eq!(current_path(), "");
        }
        let s = snapshot().unwrap().since(&s0);
        assert_eq!(s.counters["lifecycle.c"], 7);
        // Perf counters land under the flops./bytes. namespaces, and the
        // disabled-phase op left no trace.
        assert_eq!(s.counters["flops.lifecycle_kernel"], 70);
        assert_eq!(s.counters["bytes.lifecycle_kernel"], 35);
        // Samples, series and span durations are records only.
        let a = recorded();
        assert_eq!(a.samples["lifecycle.h"], vec![40]);
        assert_eq!(a.samples["lifecycle.t_ns"].len(), 1);
        assert_eq!(a.spans["lifecycle_outer"].count, 1);
        assert_eq!(a.spans["lifecycle_outer/lifecycle_inner"].count, 1);
        assert_eq!(a.series["lifecycle.s"], vec![(3, 0.5), (7, 0.25)]);
        assert_eq!(a.counter("lifecycle.c"), 7);

        // Worker-thread path inheritance.
        let root = span("lifecycle_root");
        let path = current_path();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _g = inherit_path(&path);
                let _c = span("lifecycle_worker");
                assert_eq!(current_path(), "lifecycle_root/lifecycle_worker");
            });
        });
        assert_eq!(current_path(), "lifecycle_root");
        drop(root);
        flush(); // no JSONL stream attached; must be a no-op
    }
}
