//! Postmortem bundles: one-file snapshots of everything the
//! observability layer knows at the moment something went wrong.
//!
//! A bundle is written by [`crate::dump_now`] (or the throttled
//! automatic triggers: the panic hook, strict verify violations, and
//! injected crash/quarantine faults) into the directory named by
//! `FEDKNOW_TRACE_DIR`. It contains:
//!
//! * the trigger reason and ambient round index,
//! * run context registered via [`crate::set_context`] (seed, sim
//!   config, method name),
//! * the registry's exact counter totals,
//! * every thread's drained flight-recorder ring (see [`crate::ring`]).
//!
//! Before the bundle is written the JSONL stream is flushed, so a
//! crashing run never loses buffered records. `obs report` reads a
//! bundle like a stream, and `obs trace` converts either to a
//! Chrome/Perfetto timeline (see [`crate::trace`]).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use serde::{Deserialize, Serialize};

use crate::registry::MetricsSnapshot;
use crate::ring::{self, ThreadTrack};
use crate::ENV_TRACE_DIR;

/// Bundle schema version.
pub const BUNDLE_VERSION: u32 = 1;

/// Cap on automatic dumps per distinct trigger reason (explicit
/// [`crate::dump_now`] calls are not throttled). Keeps a chaos run
/// that crashes a client every round from spraying hundreds of
/// near-identical bundles.
const MAX_AUTO_DUMPS_PER_REASON: u32 = 2;

/// One `key = value` context entry (seed, config, method, …).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContextEntry {
    /// Context key.
    pub key: String,
    /// Context value (free-form; configs are embedded as JSON text).
    pub value: String,
}

/// A counter's value at dump time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterDump {
    /// Counter name.
    pub name: String,
    /// Total.
    pub value: u64,
}

/// A serialisable dump of the registry's counters. (The live
/// [`MetricsSnapshot`] is map-based and stays the programmatic API;
/// this flat form is what lands in the bundle JSON.) Bundles written
/// while the registry also kept histograms, gauges and series carry
/// those sections too; they are skipped on load.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsDump {
    /// All counters.
    pub counters: Vec<CounterDump>,
}

impl MetricsDump {
    /// Flatten a registry snapshot.
    fn from_snapshot(s: &MetricsSnapshot) -> Self {
        let counters = s.counters.iter().map(|(name, &value)| CounterDump {
            name: name.clone(),
            value,
        });
        Self {
            counters: counters.collect(),
        }
    }
}

/// The black box's one-file output: everything known at dump time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PostmortemBundle {
    /// Schema version ([`BUNDLE_VERSION`]).
    pub version: u32,
    /// Why the dump fired (`panic`, `verify_violation`,
    /// `fault_crash`, or a caller-supplied reason).
    pub reason: String,
    /// Ambient global round index at dump time.
    pub round: u64,
    /// Registered run context (seed, config, method).
    pub context: Vec<ContextEntry>,
    /// The registry's counters.
    pub metrics: MetricsDump,
    /// One drained ring per recording thread.
    pub tracks: Vec<ThreadTrack>,
}

/// Poison-tolerant lock: dumps run inside the panic hook.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

static CONTEXT: Mutex<Vec<(String, String)>> = Mutex::new(Vec::new());
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);
static AUTO_DUMPS: Mutex<Vec<(String, u32)>> = Mutex::new(Vec::new());

/// Register (or overwrite) a run-context entry embedded in every
/// later bundle. The simulation registers its seed, serialised config
/// and method name here.
pub fn set_context(key: &str, value: &str) {
    let mut ctx = lock(&CONTEXT);
    match ctx.iter_mut().find(|(k, _)| k == key) {
        Some(entry) => entry.1 = value.to_string(),
        None => ctx.push((key.to_string(), value.to_string())),
    }
}

/// The currently registered context entries.
pub fn context_entries() -> Vec<ContextEntry> {
    lock(&CONTEXT)
        .iter()
        .map(|(k, v)| ContextEntry {
            key: k.clone(),
            value: v.clone(),
        })
        .collect()
}

/// Assemble a bundle from the current process state without writing
/// it anywhere.
pub fn collect_bundle(reason: &str) -> PostmortemBundle {
    let metrics = crate::snapshot()
        .as_ref()
        .map(MetricsDump::from_snapshot)
        .unwrap_or_default();
    PostmortemBundle {
        version: BUNDLE_VERSION,
        reason: reason.to_string(),
        round: crate::round_index(),
        context: context_entries(),
        metrics,
        tracks: ring::drain_all(),
    }
}

fn sanitize_reason(reason: &str) -> String {
    reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Write a postmortem bundle for `reason` to `FEDKNOW_TRACE_DIR`,
/// flushing the JSONL stream first. Returns the bundle path, or `None`
/// when no trace directory is configured. Never panics — a failing
/// dump must not mask the failure that triggered it (I/O errors go to
/// stderr).
pub fn dump_now(reason: &str) -> Option<PathBuf> {
    let dir = crate::config().trace_dir.as_ref()?;
    // A crashing run must keep its streamed records too.
    crate::flush();
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!(
            "fedknow-obs: cannot create {ENV_TRACE_DIR}={}: {e}",
            dir.display()
        );
        return None;
    }
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let bundle = collect_bundle(reason);
    let path = dir.join(format!(
        "bundle-{}-p{}-{seq}.json",
        sanitize_reason(reason),
        std::process::id()
    ));
    match serde_json::to_string(&bundle) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("fedknow-obs: cannot write {}: {e}", path.display());
                return None;
            }
        }
        Err(e) => {
            eprintln!("fedknow-obs: cannot serialise bundle: {e}");
            return None;
        }
    }
    eprintln!(
        "fedknow-obs: postmortem bundle ({reason}) -> {}",
        path.display()
    );
    Some(path)
}

/// Throttled automatic dump: at most `MAX_AUTO_DUMPS_PER_REASON`
/// bundles per distinct reason per process, so fault-heavy chaos runs
/// keep the first occurrences without flooding the directory. Cheap
/// no-op when `FEDKNOW_TRACE_DIR` is unset.
pub fn dump_trigger(reason: &str) -> Option<PathBuf> {
    crate::config().trace_dir.as_ref()?;
    {
        let mut counts = lock(&AUTO_DUMPS);
        match counts.iter_mut().find(|(r, _)| r == reason) {
            Some((_, n)) if *n >= MAX_AUTO_DUMPS_PER_REASON => return None,
            Some((_, n)) => *n += 1,
            None => counts.push((reason.to_string(), 1)),
        }
    }
    dump_now(reason)
}

/// Install the crash-time flush hook (idempotent): on panic, a note is
/// recorded, the JSONL stream is flushed, and — when a trace directory
/// is configured — a `panic` bundle is written before the previous
/// hook (the default backtrace printer) runs.
pub(crate) fn install_panic_hook() {
    use std::sync::Once;
    static INSTALLED: Once = Once::new();
    INSTALLED.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            crate::mark(&format!("panic: {info}"));
            crate::flush();
            let _ = dump_trigger("panic");
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{RingData, RingRecord};

    #[test]
    fn context_overwrites_by_key() {
        set_context("bundle_test.seed", "1");
        set_context("bundle_test.seed", "2");
        let hits: Vec<ContextEntry> = context_entries()
            .into_iter()
            .filter(|e| e.key == "bundle_test.seed")
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].value, "2");
    }

    #[test]
    fn bundle_roundtrips_through_json() {
        let b = PostmortemBundle {
            version: BUNDLE_VERSION,
            reason: "unit".to_string(),
            round: 7,
            context: vec![ContextEntry {
                key: "seed".to_string(),
                value: "42".to_string(),
            }],
            metrics: MetricsDump {
                counters: vec![CounterDump {
                    name: "fl.crashes".to_string(),
                    value: 3,
                }],
            },
            tracks: vec![ThreadTrack {
                thread: "ThreadId(1)".to_string(),
                dropped: 0,
                events: vec![RingRecord {
                    ts_ns: 5,
                    round: 7,
                    data: RingData::Note {
                        note: "hello".to_string(),
                    },
                }],
            }],
        };
        let json = serde_json::to_string_pretty(&b).unwrap();
        let back: PostmortemBundle = serde_json::from_str(&json).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn pre_sketch_bundles_still_parse() {
        // Schema-v1 bundles with and without the `pid` key later
        // bundles carried must keep loading (`obs` reads old dumps).
        let json = r#"{"version":1,"reason":"old","round":3,"context":[],
            "metrics":{"counters":[],"gauges":[],"hists":[],"series":[]},
            "tracks":[]}"#;
        let b: PostmortemBundle = serde_json::from_str(json).unwrap();
        assert_eq!(b.round, 3);
        let with_pid = json.replace(r#""round":3,"#, r#""round":3,"pid":4242,"#);
        assert_eq!(
            serde_json::from_str::<PostmortemBundle>(&with_pid).unwrap(),
            b
        );
    }

    #[test]
    fn bundles_with_sketches_and_cohorts_still_load() {
        // Bundles written by binaries that still had quantile sketches,
        // cohort sets and the health engine's SLOs carry keys this
        // schema no longer names; they must parse (unknown keys are
        // skipped) and still convert to a valid trace.
        let json = r#"{"version":1,"reason":"probe","round":3,
            "context":[{"key":"sim.seed","value":"7"}],
            "metrics":{
              "counters":[{"name":"transport.frames","value":61}],
              "gauges":[{"name":"health.slo.forgetting_drift","value":2.0}],
              "hists":[{"name":"qp.solve_ns","count":2,"sum":900,"p50":400,"p99":500,"max":500}],
              "series":[{"name":"sketch.client.compute_s.p50","points":[[0,0.0004],[1,0.0005]]}],
              "sketches":[{"name":"client.compute_s","count":6,"sum":0.0043,
                           "p50":0.0004,"p99":0.0013,"max":0.0013}],
              "cohorts":[{"name":"client.compute_s","cohorts":{"cohorts":[
                {"cohort":0,"count":4,"sum":0.0025,"min":0.0002,"max":0.001,
                 "exemplars":[[0,0.0002],[0,0.001]]}]}}]},
            "health":{"rounds":4,"round_p50_seconds":0.045,"round_p99_seconds":0.588,
              "slos":[{"name":"forgetting_drift","state":"Critical","value":0.33,
                       "warn":0.05,"critical":0.15}]},
            "pid":6245,
            "tracks":[{"thread":"ThreadId(1)","dropped":0,"events":[
              {"ts_ns":10,"round":0,"data":{"Begin":{"path":"run"}}},
              {"ts_ns":20,"round":0,"data":{"Count":{"name":"transport.frames","delta":1}}},
              {"ts_ns":90,"round":0,"data":{"End":{"path":"run","dur_ns":80}}}]}]}"#;
        let b: PostmortemBundle = serde_json::from_str(json).unwrap();
        assert_eq!(b.metrics.counters[0].value, 61);
        assert_eq!(b.tracks[0].events.len(), 3);

        let trace = crate::trace::to_trace(&crate::Recording::parse(json).unwrap());
        let stats = crate::trace::validate(&trace).unwrap();
        assert_eq!(stats.slices, 1);
        assert_eq!(stats.counters, 1);
    }

    #[test]
    fn registry_sections_of_older_bundles_load_into_the_same_recording() {
        // Before the registry kept counters only, bundles also dumped
        // its histograms, gauges and series. A bundle carrying them
        // loads into the same recording as one without.
        let tracks = r#""tracks":[{"thread":"ThreadId(1)","dropped":0,"events":[
              {"ts_ns":10,"round":0,"data":{"Begin":{"path":"run"}}},
              {"ts_ns":20,"round":0,"data":{"Sample":{"name":"qp.solve_ns","value":400}}},
              {"ts_ns":90,"round":0,"data":{"End":{"path":"run","dur_ns":80}}}]}]"#;
        let head = r#"{"version":1,"reason":"probe","round":3,
            "context":[{"key":"sim.seed","value":"7"}],"pid":6245,"#;
        let old = format!(
            r#"{head}"metrics":{{
              "counters":[{{"name":"transport.frames","value":61}}],
              "gauges":[{{"name":"alloc.peak_bytes","value":2048.0}}],
              "hists":[{{"name":"qp.solve_ns","count":1,"sum":400,"p50":400,"p99":400,"max":400}}],
              "series":[{{"name":"fl.participation","points":[[0,1.0],[1,0.5]]}}]}},
              {tracks}}}"#
        );
        let new = format!(
            r#"{head}"metrics":{{"counters":[{{"name":"transport.frames","value":61}}]}},
              {tracks}}}"#
        );
        let old = crate::Recording::parse(&old).unwrap();
        assert_eq!(old, crate::Recording::parse(&new).unwrap());
        assert_eq!(old.tracks[0].events.len(), 3);
    }
}
