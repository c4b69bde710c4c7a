//! # fedknow-obs
//!
//! Observability for the FedKNOW simulation stack: hierarchical spans,
//! phase timers, a thread-safe metrics registry of counters and
//! log-bucketed histograms, and one telemetry event — the flight
//! recorder's [`RingRecord`] — kept in bounded per-thread rings and,
//! optionally, streamed to a JSONL file.
//!
//! ## Cost model
//!
//! The layer is **off by default**. Every public recording function
//! starts with one relaxed atomic load; when disabled it returns
//! immediately — no clock reads, no allocation, no locks. It turns on
//! in two ways:
//!
//! * `FEDKNOW_OBS=<path>`, `FEDKNOW_TRACE_DIR=<dir>` or
//!   `FEDKNOW_PROF_ALLOC=1` in the environment (checked by
//!   [`init_from_env`], which the simulation calls once per run).
//! * [`enable`] from code (used by the report binaries and tests).
//!
//! Either way the four `FEDKNOW_OBS` / `FEDKNOW_TRACE_DIR` /
//! `FEDKNOW_TRACE_CAP` / `FEDKNOW_PROF_ALLOC` variables are read once,
//! the first time observability is asked for, and their effective
//! values are registered as `obs.*` context entries so every bundle
//! says how it was recorded. Once enabled, observability stays enabled
//! for the process.
//!
//! ## Vocabulary
//!
//! * [`span`] — hierarchical timed regions (`run → task → round →
//!   client`); worker threads join the hierarchy via [`current_path`] +
//!   [`inherit_path`].
//! * [`timer`] — RAII phase timers feeding named histograms
//!   (`qp.solve_ns`, `extract.topk_ns`, …).
//! * [`count`] / [`record`] — plain counters (`comm.upload_bytes`,
//!   `qp.fallback`) and histogram samples (`qp.iters`).
//! * [`snapshot`] — copy of the registry; [`MetricsSnapshot::since`]
//!   attributes metrics to a single run by diffing two snapshots.
//! * [`ring`] — the one event and the flight recorder: every site above
//!   builds one [`RingData`], which lands in the recording thread's
//!   bounded ring and, with `FEDKNOW_OBS=<path>`, as one line of the
//!   JSONL stream. Rings are drained into postmortem [`bundle`]s on
//!   panic, strict verify violations, injected faults, or an explicit
//!   [`dump_now`].
//! * [`Recording`] — the one reader: loads a stream or a bundle into
//!   records per thread; [`Aggregate`] totals it for reports and
//!   [`trace`] renders it as a Chrome/Perfetto timeline.

pub mod alloc;
pub mod bundle;
pub mod handle;
pub mod health;
pub mod hist;
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
pub use handle::{CounterHandle, HandleTimer, HistHandle};
pub use health::{HealthEngine, HealthSnapshot, RoundObservation, SloState, SloStatus};
pub use hist::{HistSnapshot, LogHistogram};
pub use perf::PerfCounter;
pub use registry::{
    Counter, Gauge, MetricsSnapshot, Registry, Series, DEFAULT_MAX_NAMES, SERIES_POINT_CAP,
};
pub use ring::{now_ns, RingBuf, RingData, RingRecord, SpanPerf, ThreadTrack, DEFAULT_TRACE_CAP};
pub use sink::{Aggregate, JsonlSink, LoadError, Recording, SpanStat};
pub use span::{current_path, inherit_path, span, timer, PathGuard, SpanGuard, TimerGuard};

use parking_lot::Mutex;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Environment variable naming the JSONL stream path.
pub const ENV_JSONL: &str = "FEDKNOW_OBS";
/// Environment variable naming the directory postmortem bundles are
/// written to. Setting it enables observability on its own.
pub const ENV_TRACE_DIR: &str = "FEDKNOW_TRACE_DIR";
/// Environment variable bounding each thread's ring, in records. `0`
/// turns the in-memory ring off.
pub const ENV_TRACE_CAP: &str = "FEDKNOW_TRACE_CAP";
/// Environment variable enabling allocation tracking (`1`/any non-`0`).
pub const ENV_PROF_ALLOC: &str = "FEDKNOW_PROF_ALLOC";

/// Every binary linking this crate routes heap allocation through the
/// tracking wrapper. Disabled it costs one relaxed load per allocator
/// call; `FEDKNOW_PROF_ALLOC=1` turns the accounting on (see [`alloc`]).
#[global_allocator]
static GLOBAL_ALLOC: TrackingAllocator = TrackingAllocator;

static ENABLED: AtomicBool = AtomicBool::new(false);
static STATE: OnceLock<State> = OnceLock::new();
/// Ambient round index for series points recorded deep in the stack
/// (integrator, restorer) that don't know the round they run in.
static ROUND: AtomicU64 = AtomicU64::new(0);
/// The streaming health engine (armed lazily on first observation).
static HEALTH: OnceLock<Mutex<health::HealthEngine>> = OnceLock::new();

/// The four observability variables, read once — the first time
/// [`init_from_env`] or [`enable`] runs.
pub(crate) struct Config {
    jsonl: Option<String>,
    pub(crate) trace_dir: Option<PathBuf>,
    pub(crate) trace_cap: usize,
    prof_alloc: bool,
}

pub(crate) fn config() -> &'static Config {
    static CONFIG: OnceLock<Config> = OnceLock::new();
    CONFIG.get_or_init(|| Config {
        jsonl: std::env::var(ENV_JSONL).ok(),
        trace_dir: std::env::var_os(ENV_TRACE_DIR).map(PathBuf::from),
        trace_cap: std::env::var(ENV_TRACE_CAP)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_TRACE_CAP),
        prof_alloc: std::env::var(ENV_PROF_ALLOC).is_ok_and(|v| !v.is_empty() && v != "0"),
    })
}

struct State {
    registry: Registry,
    jsonl: Option<JsonlSink>,
}

/// Bring observability up: open the stream, start the recorder, and
/// register the effective configuration as bundle context.
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
            ("obs.trace_cap", Some(cfg.trace_cap.to_string())),
            ("obs.prof_alloc", Some(cfg.prof_alloc.to_string())),
        ] {
            set_context(key, value.as_deref().unwrap_or("unset"));
        }
        ring::start(cfg.trace_cap > 0 || jsonl.is_some());
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

/// Enable observability if `FEDKNOW_OBS` (JSONL stream),
/// `FEDKNOW_TRACE_DIR` (postmortem bundle directory) or
/// `FEDKNOW_PROF_ALLOC` (allocation accounting) is set in the
/// environment. Whenever observability is up, the crash-flush panic
/// hook is installed (see [`bundle`]). Idempotent; returns whether
/// observability is enabled afterwards.
pub fn init_from_env() -> bool {
    let cfg = config();
    if cfg.jsonl.is_some() || cfg.trace_dir.is_some() || cfg.prof_alloc {
        enable();
    }
    if is_enabled() {
        // Allocation tracking needs the registry mirror, hence piggy-
        // backs on general enablement.
        if cfg.prof_alloc {
            alloc::set_tracking(true);
        }
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

/// Record `value` into the histogram `name`. No-op when disabled.
pub fn record(name: &str, value: u64) {
    if !is_enabled() {
        return;
    }
    state().registry.record(name, value);
    ring::emit(RingData::Sample {
        name: name.to_string(),
        value,
    });
}

/// Set the gauge `name` to `value`. No-op when disabled.
pub fn gauge(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    state().registry.set_gauge(name, value);
    ring::emit(RingData::Gauge {
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
    state().registry.push_series(name, index, value);
    ring::emit(RingData::Point {
        name: name.to_string(),
        index,
        value,
    });
}

fn health_engine() -> &'static Mutex<health::HealthEngine> {
    HEALTH.get_or_init(|| Mutex::new(health::HealthEngine::new()))
}

/// Publish a health snapshot into `health.*` gauges so streams and
/// bundles see SLO state without extra plumbing.
fn publish_health(h: &health::HealthSnapshot) {
    gauge("health.rounds", h.rounds as f64);
    gauge("health.round_p50_seconds", h.round_p50_seconds);
    gauge("health.round_p99_seconds", h.round_p99_seconds);
    gauge("health.worst", h.worst().as_gauge());
    for slo in &h.slos {
        gauge(&format!("health.{}", slo.name), slo.value);
        gauge(&format!("health.slo.{}", slo.name), slo.state.as_gauge());
    }
}

/// Fold one round of telemetry: the streaming health engine updates
/// its SLO states (mirrored into `health.*` gauges). The simulation
/// calls this once per round. No-op when disabled.
pub fn observe_round(o: &health::RoundObservation) {
    if !is_enabled() {
        return;
    }
    let snap = {
        let mut eng = health_engine().lock();
        eng.observe_round(o);
        eng.snapshot()
    };
    publish_health(&snap);
}

/// The health engine's current SLO evaluation, or `None` while
/// disabled.
pub fn health_snapshot() -> Option<health::HealthSnapshot> {
    is_enabled().then(|| health_engine().lock().snapshot())
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

/// Record one point of the wire message lifecycle into the flight
/// recorder: `phase` is `enq`/`out`/`in`/`handled`/`drop`, `conn` the
/// connection (client id), `trace`/`span`/`parent` the frame's trace
/// context, `msg` the message-kind label, `bytes` the payload size and
/// `peer_ts_ns` the sender's send timestamp on receive-side records
/// (0 elsewhere). One relaxed load when disabled.
#[allow(clippy::too_many_arguments)]
pub fn wire_event(
    phase: &str,
    conn: u64,
    trace: u64,
    span: u64,
    parent: u64,
    msg: &str,
    bytes: u64,
    peer_ts_ns: u64,
) {
    if !is_enabled() {
        return;
    }
    ring::emit(RingData::Wire {
        phase: phase.to_string(),
        conn,
        trace,
        span,
        parent,
        msg: msg.to_string(),
        bytes,
        peer_ts_ns,
    });
}

/// Feed one message round-trip time (seconds) to the health engine's
/// transport RTT SLO. The SLO gauges refresh at the next round fold
/// ([`observe_round`]), so this stays cheap per message. No-op when
/// disabled.
pub fn observe_message_rtt(rtt_seconds: f64) {
    if !is_enabled() {
        return;
    }
    health_engine().lock().observe_message_rtt(rtt_seconds);
}

/// Feed the server inbox depth observed while handling a message to
/// the health engine's queue-depth SLO (it tracks the maximum). No-op
/// when disabled.
pub fn observe_queue_depth(depth: f64) {
    if !is_enabled() {
        return;
    }
    health_engine().lock().observe_queue_depth(depth);
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

/// Record into the registry without emitting a `Sample` record (spans
/// emit their own richer `End`).
pub(crate) fn record_in_registry(name: &str, value: u64) {
    if is_enabled() {
        state().registry.record(name, value);
    }
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

/// A copy of the global registry, or `None` while disabled.
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

    static LIFECYCLE_COUNTER: CounterHandle = CounterHandle::new("lifecycle.handle_c");
    static LIFECYCLE_HIST: HistHandle = HistHandle::new("lifecycle.handle_h_ns");
    static LIFECYCLE_KERNEL: PerfCounter = PerfCounter::new("lifecycle_kernel");

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
        gauge("lifecycle.g", 9.0);
        series("lifecycle.s", 9.0);
        LIFECYCLE_COUNTER.add(9);
        LIFECYCLE_HIST.record(9);
        LIFECYCLE_KERNEL.op(100, 50);
        observe_round(&RoundObservation::default());
        assert!(health_snapshot().is_none());
        assert_eq!(perf::thread_totals(), (0, 0));
        {
            let _t = timer("lifecycle.t_ns");
            let _ht = LIFECYCLE_HIST.timer();
            let _s = span("lifecycle_span");
            assert_eq!(current_path(), "");
        }
        assert!(snapshot().is_none());
        assert!(!init_from_env());

        enable();
        assert!(is_enabled());
        // The disabled-phase calls must have left no trace.
        let s0 = snapshot().unwrap();
        assert!(!s0.counters.contains_key("lifecycle.c"));
        assert!(!s0.hists.contains_key("lifecycle.h"));
        assert!(!s0.gauges.contains_key("lifecycle.g"));
        assert!(!s0.series.contains_key("lifecycle.s"));
        assert!(!s0.counters.contains_key("lifecycle.handle_c"));

        count("lifecycle.c", 5);
        count("lifecycle.c", 2);
        record("lifecycle.h", 40);
        gauge("lifecycle.g", 1.0);
        gauge("lifecycle.g", 2.5);
        set_round(3);
        assert_eq!(round_index(), 3);
        series("lifecycle.s", 0.5); // lands at the ambient round 3
        series_at("lifecycle.s", 7, 0.25);
        LIFECYCLE_COUNTER.add(2);
        LIFECYCLE_COUNTER.add(3);
        LIFECYCLE_HIST.record(7);
        let (f0, b0) = perf::thread_totals();
        LIFECYCLE_KERNEL.op(64, 32);
        LIFECYCLE_KERNEL.op(6, 3);
        let (f1, b1) = perf::thread_totals();
        assert_eq!((f1 - f0, b1 - b0), (70, 35));
        {
            let _ht = LIFECYCLE_HIST.timer();
        }
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
        assert_eq!(s.hists["lifecycle.h"].count(), 1);
        assert_eq!(s.hists["lifecycle.t_ns"].count(), 1);
        assert_eq!(s.hists["span.lifecycle_outer_ns"].count(), 1);
        assert_eq!(s.hists["span.lifecycle_inner_ns"].count(), 1);
        assert_eq!(s.gauges["lifecycle.g"], 2.5);
        assert_eq!(s.series["lifecycle.s"], vec![(3, 0.5), (7, 0.25)]);
        // Handles feed the same registry slots as the string API.
        assert_eq!(s.counters["lifecycle.handle_c"], 5);
        assert_eq!(s.hists["lifecycle.handle_h_ns"].count(), 2);
        // Perf counters land under the flops./bytes. namespaces, and the
        // disabled-phase op left no trace.
        assert_eq!(s.counters["flops.lifecycle_kernel"], 70);
        assert_eq!(s.counters["bytes.lifecycle_kernel"], 35);
        count("lifecycle.handle_c", 1);
        let s2 = snapshot().unwrap().since(&s0);
        assert_eq!(s2.counters["lifecycle.handle_c"], 6);

        // The health engine: one folded round publishes the gauges.
        observe_round(&RoundObservation {
            round: 3,
            expected: 2,
            completed: 2,
            round_seconds: 1.0,
            ..Default::default()
        });
        let s3 = snapshot().unwrap().since(&s0);
        assert_eq!(s3.gauges["health.rounds"], 1.0);
        assert!(s3.gauges.contains_key("health.slo.straggler_rate"));
        let h = health_snapshot().unwrap();
        assert_eq!(h.rounds, 1);
        assert_eq!(h.worst(), SloState::Ok);

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
