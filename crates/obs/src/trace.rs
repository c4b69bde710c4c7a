//! Chrome `trace_event` JSON export of recordings (postmortem bundles
//! and JSONL streams alike, through [`Recording`]) — loadable in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! The timeline is laid out as one process (`pid` 1) with one track
//! per actor: `tid` 0 is the coordinator, `tid` `c + 1` is client `c`
//! (derived from the deepest `client.<c>` segment of a span path).
//!
//! * Span begin/end ring records become `B`/`E` duration events, so
//!   `run → task → round → client → phase` nest as slices. Ring
//!   truncation is repaired: an `End` whose `Begin` was overwritten
//!   becomes a complete `X` slice (its duration is known), and spans
//!   still open at dump time are closed at the bundle's last
//!   timestamp.
//! * Fault injections and verify violations become instant (`i`)
//!   events on the affected client's track / the coordinator track.
//! * Series points become counter (`C`) tracks; counter
//!   deltas are accumulated into running-total counter tracks.
//!
//! Timestamps are microseconds (fractional) since the recording
//! epoch. A stream holds the same records as a bundle, so it converts
//! to the same timeline — and, never truncated by a ring bound, to the
//! whole run.

use serde_json::{Number, Value};

use crate::ring::{RingData, RingRecord};
use crate::sink::{LoadError, Recording};

/// The `pid` every event lives under: a recording is one process.
const PID: u64 = 1;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn vs(s: &str) -> Value {
    Value::String(s.to_string())
}

fn vu(u: u64) -> Value {
    Value::Number(Number::U(u))
}

fn vf(f: f64) -> Value {
    Value::Number(Number::F(f))
}

/// Track id for a span path: the deepest `client.<c>` segment maps to
/// `c + 1`, everything else to the coordinator track 0.
fn tid_for_path(path: &str) -> u64 {
    path.rsplit('/')
        .find_map(|seg| {
            seg.strip_prefix("client.")
                .and_then(|c| c.parse::<u64>().ok())
        })
        .map_or(0, |c| c + 1)
}

fn leaf(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

fn track_name(tid: u64) -> String {
    if tid == 0 {
        "coordinator".to_string()
    } else {
        format!("client {}", tid - 1)
    }
}

struct Emitter {
    events: Vec<Value>,
    tids: Vec<u64>,
    /// Per-tid stack of open `B` paths (for balance repair).
    stacks: Vec<(u64, Vec<String>)>,
    /// Per-name running totals for `Count` records.
    totals: Vec<(String, u64)>,
    max_ts_us: f64,
}

impl Emitter {
    fn new() -> Self {
        Self {
            events: Vec::new(),
            tids: Vec::new(),
            stacks: Vec::new(),
            totals: Vec::new(),
            max_ts_us: 0.0,
        }
    }

    fn stack(&mut self, tid: u64) -> &mut Vec<String> {
        if let Some(i) = self.stacks.iter().position(|(t, _)| *t == tid) {
            return &mut self.stacks[i].1;
        }
        self.stacks.push((tid, Vec::new()));
        &mut self.stacks.last_mut().unwrap().1
    }

    fn push(&mut self, tid: u64, ev: Value) {
        self.tids.push(tid);
        self.events.push(ev);
    }

    fn see_ts(&mut self, ts_us: f64) {
        if ts_us > self.max_ts_us {
            self.max_ts_us = ts_us;
        }
    }

    fn begin(&mut self, ts_us: f64, round: u64, path: &str) {
        let tid = tid_for_path(path);
        self.see_ts(ts_us);
        self.stack(tid).push(path.to_string());
        self.push(
            tid,
            obj(vec![
                ("name", vs(leaf(path))),
                ("cat", vs("span")),
                ("ph", vs("B")),
                ("ts", vf(ts_us)),
                ("pid", vu(PID)),
                ("tid", vu(tid)),
                ("args", obj(vec![("path", vs(path)), ("round", vu(round))])),
            ]),
        );
    }

    fn emit_end(&mut self, tid: u64, ts_us: f64, name: &str) {
        self.push(
            tid,
            obj(vec![
                ("name", vs(name)),
                ("ph", vs("E")),
                ("ts", vf(ts_us)),
                ("pid", vu(PID)),
                ("tid", vu(tid)),
            ]),
        );
    }

    fn end(&mut self, ts_us: f64, path: &str, dur_ns: u64) {
        let tid = tid_for_path(path);
        self.see_ts(ts_us);
        let stack = self.stack(tid);
        match stack.iter().rposition(|p| p == path) {
            Some(pos) => {
                // Close any deeper spans whose `End` the ring lost.
                let orphans: Vec<String> = stack.drain(pos..).collect();
                for p in orphans.iter().skip(1).rev() {
                    let n = leaf(p).to_string();
                    self.emit_end(tid, ts_us, &n);
                }
                let n = leaf(path).to_string();
                self.emit_end(tid, ts_us, &n);
            }
            None => {
                // The matching `Begin` was overwritten by the ring
                // bound; the duration is still known, so emit a
                // self-contained complete slice.
                let dur_us = dur_ns as f64 / 1000.0;
                self.push(
                    tid,
                    obj(vec![
                        ("name", vs(leaf(path))),
                        ("cat", vs("span")),
                        ("ph", vs("X")),
                        ("ts", vf((ts_us - dur_us).max(0.0))),
                        ("dur", vf(dur_us)),
                        ("pid", vu(PID)),
                        ("tid", vu(tid)),
                        (
                            "args",
                            obj(vec![("path", vs(path)), ("truncated", Value::Bool(true))]),
                        ),
                    ]),
                );
            }
        }
    }

    fn instant(&mut self, ts_us: f64, tid: u64, name: &str, cat: &str, args: Value) {
        self.see_ts(ts_us);
        self.push(
            tid,
            obj(vec![
                ("name", vs(name)),
                ("cat", vs(cat)),
                ("ph", vs("i")),
                ("ts", vf(ts_us)),
                ("pid", vu(PID)),
                ("tid", vu(tid)),
                ("s", vs("t")),
                ("args", args),
            ]),
        );
    }

    fn counter(&mut self, ts_us: f64, name: &str, value: f64) {
        self.see_ts(ts_us);
        self.push(
            0,
            obj(vec![
                ("name", vs(name)),
                ("ph", vs("C")),
                ("ts", vf(ts_us)),
                ("pid", vu(PID)),
                ("tid", vu(0)),
                ("args", obj(vec![("value", vf(value))])),
            ]),
        );
    }

    fn count_delta(&mut self, ts_us: f64, name: &str, delta: u64) {
        let total = match self.totals.iter_mut().find(|(n, _)| n == name) {
            Some((_, t)) => {
                *t += delta;
                *t
            }
            None => {
                self.totals.push((name.to_string(), delta));
                delta
            }
        };
        self.counter(ts_us, name, total as f64);
    }

    /// Close spans still open at dump time at the last seen timestamp.
    fn close_open_spans(&mut self) {
        let ts = self.max_ts_us;
        let stacks = std::mem::take(&mut self.stacks);
        for (tid, stack) in stacks {
            for p in stack.iter().rev() {
                let n = leaf(p).to_string();
                self.emit_end(tid, ts, &n);
            }
        }
    }

    /// Close open spans and wrap the events in the trace envelope,
    /// prepending process/thread-name metadata for every track seen.
    fn into_trace(mut self) -> Value {
        self.close_open_spans();
        let mut tids = std::mem::take(&mut self.tids);
        tids.sort_unstable();
        tids.dedup();
        let mut all = vec![obj(vec![
            ("name", vs("process_name")),
            ("ph", vs("M")),
            ("pid", vu(PID)),
            ("args", obj(vec![("name", vs("fedknow-sim"))])),
        ])];
        for tid in tids {
            all.push(obj(vec![
                ("name", vs("thread_name")),
                ("ph", vs("M")),
                ("pid", vu(PID)),
                ("tid", vu(tid)),
                ("args", obj(vec![("name", vs(&track_name(tid)))])),
            ]));
        }
        all.append(&mut self.events);
        obj(vec![
            ("traceEvents", Value::Array(all)),
            ("displayTimeUnit", vs("ms")),
        ])
    }
}

fn ring_record_to_events(em: &mut Emitter, rec: &RingRecord) {
    let ts_us = rec.ts_ns as f64 / 1000.0;
    let round = rec.round;
    match &rec.data {
        RingData::Begin { path } => em.begin(ts_us, round, path),
        RingData::End { path, dur_ns, .. } => em.end(ts_us, path, *dur_ns),
        RingData::Fault {
            client,
            kind,
            detail,
        } => em.instant(
            ts_us,
            client + 1,
            &format!("fault.{kind}"),
            "fault",
            obj(vec![
                ("client", vu(*client)),
                ("detail", vu(*detail)),
                ("round", vu(round)),
            ]),
        ),
        RingData::Violation { check, detail } => em.instant(
            ts_us,
            0,
            &format!("violation.{check}"),
            "verify",
            obj(vec![("detail", vs(detail)), ("round", vu(round))]),
        ),
        RingData::Note { note } => {
            let short: String = note.chars().take(120).collect();
            em.instant(ts_us, 0, &short, "note", obj(vec![("round", vu(round))]));
        }
        RingData::Point { name, value, .. } => em.counter(ts_us, name, *value),
        RingData::Count { name, delta } => em.count_delta(ts_us, name, *delta),
        // `Sample` records are timing raw material for the report's
        // phase table; they would only blur the timeline.
        RingData::Sample { .. } => {}
    }
}

/// Convert a recording (stream or bundle) into a Chrome trace value.
pub fn to_trace(recording: &Recording) -> Value {
    let mut em = Emitter::new();
    for (_, rec) in recording.merged() {
        ring_record_to_events(&mut em, rec);
    }
    em.into_trace()
}

/// The trace in `text`: a Chrome trace (an object with `traceEvents`)
/// as it is, a bundle or a stream converted.
pub fn from_text(text: &str) -> Result<Value, LoadError> {
    match serde_json::from_str::<Value>(text) {
        Ok(doc) if doc.get("traceEvents").is_some() => Ok(doc),
        _ => Recording::parse(text).map(|r| to_trace(&r)),
    }
}

/// Validation summary of a trace (see [`validate`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Total events, metadata included.
    pub events: usize,
    /// Distinct `(pid, tid)` tracks carrying non-metadata events.
    pub tracks: usize,
    /// Duration slices (`B`/`E` pairs plus `X` events).
    pub slices: usize,
    /// Instant (`i`) events.
    pub instants: usize,
    /// Counter (`C`) events.
    pub counters: usize,
    /// Largest timestamp seen, µs.
    pub max_ts_us: f64,
}

/// Validate a Chrome trace value: envelope shape, known phase codes,
/// required fields, per-track monotonically non-decreasing `B`/`E`
/// timestamps, and balanced, name-matched `B`/`E` nesting. Returns
/// counting stats on success, the first problem found on failure.
pub fn validate(trace: &Value) -> Result<TraceStats, String> {
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("trace has no `traceEvents` array")?;
    let mut stats = TraceStats {
        events: events.len(),
        tracks: 0,
        slices: 0,
        instants: 0,
        counters: 0,
        max_ts_us: 0.0,
    };
    // Per-(pid, tid): open-B stack of names and the last B/E timestamp.
    let mut tracks: Vec<((u64, u64), Vec<String>, f64)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let at = |msg: &str| format!("event {i}: {msg}");
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| at("missing `ph`"))?;
        if ph == "M" {
            continue;
        }
        let ts = ev
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| at("missing numeric `ts`"))?;
        if ts < 0.0 || !ts.is_finite() {
            return Err(at(&format!("bad timestamp {ts}")));
        }
        if ts > stats.max_ts_us {
            stats.max_ts_us = ts;
        }
        let pid = ev
            .get("pid")
            .and_then(Value::as_u64)
            .ok_or_else(|| at("missing `pid`"))?;
        let tid = ev
            .get("tid")
            .and_then(Value::as_u64)
            .ok_or_else(|| at("missing `tid`"))?;
        let key = (pid, tid);
        let slot = match tracks.iter().position(|(k, _, _)| *k == key) {
            Some(p) => p,
            None => {
                tracks.push((key, Vec::new(), 0.0));
                tracks.len() - 1
            }
        };
        let name = ev.get("name").and_then(Value::as_str);
        match ph {
            "B" | "E" => {
                let (_, stack, last_ts) = &mut tracks[slot];
                if ts < *last_ts {
                    return Err(at(&format!(
                        "track {key:?}: timestamp {ts} goes backwards (last {last_ts})"
                    )));
                }
                *last_ts = ts;
                if ph == "B" {
                    let name = name.ok_or_else(|| at("`B` without name"))?;
                    stack.push(name.to_string());
                    stats.slices += 1;
                } else {
                    let open = stack
                        .pop()
                        .ok_or_else(|| at(&format!("track {key:?}: `E` without open `B`")))?;
                    if let Some(n) = name {
                        if n != open {
                            return Err(at(&format!(
                                "track {key:?}: `E` named `{n}` closes `B` named `{open}`"
                            )));
                        }
                    }
                }
            }
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| at("`X` without numeric `dur`"))?;
                if dur < 0.0 || !dur.is_finite() {
                    return Err(at(&format!("bad duration {dur}")));
                }
                name.ok_or_else(|| at("`X` without name"))?;
                stats.slices += 1;
            }
            "i" => {
                name.ok_or_else(|| at("`i` without name"))?;
                stats.instants += 1;
            }
            "C" => {
                name.ok_or_else(|| at("`C` without name"))?;
                ev.get("args")
                    .filter(|a| matches!(a, Value::Object(_)))
                    .ok_or_else(|| at("`C` without args object"))?;
                stats.counters += 1;
            }
            other => return Err(at(&format!("unknown phase `{other}`"))),
        }
    }
    for (key, stack, _) in &tracks {
        if let Some(open) = stack.last() {
            return Err(format!("track {key:?}: span `{open}` never closed"));
        }
    }
    stats.tracks = tracks.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tids_derive_from_deepest_client_segment() {
        assert_eq!(tid_for_path("run/task.0/round.1"), 0);
        assert_eq!(tid_for_path("run/task.0/round.1/client.3"), 4);
        assert_eq!(tid_for_path("run/client.2/restore"), 3);
        assert_eq!(tid_for_path("run/client.x"), 0);
        assert_eq!(tid_for_path(""), 0);
    }

    fn bundle_with(events: &str) -> Recording {
        let json = format!(
            r#"{{"version":1,"reason":"unit","round":0,"context":[],
                "metrics":{{"counters":[]}},
                "tracks":[{{"thread":"ThreadId(1)","dropped":0,"events":[{events}]}}]}}"#
        );
        Recording::parse(&json).unwrap()
    }

    #[test]
    fn nested_spans_convert_to_balanced_begin_end() {
        let b = bundle_with(
            r#"{"ts_ns":1000,"round":0,"data":{"Begin":{"path":"run"}}},
               {"ts_ns":2000,"round":0,"data":{"Begin":{"path":"run/client.0"}}},
               {"ts_ns":5000,"round":0,"data":{"End":{"path":"run/client.0","dur_ns":3000}}},
               {"ts_ns":9000,"round":0,"data":{"End":{"path":"run","dur_ns":8000}}}"#,
        );
        let trace = to_trace(&b);
        let stats = validate(&trace).unwrap();
        assert_eq!(stats.slices, 2);
        assert_eq!(stats.tracks, 2, "coordinator + client 0");
        let text = serde_json::to_string(&trace).unwrap();
        assert!(text.contains(r#""ph":"B""#) && text.contains(r#""ph":"E""#));
    }

    #[test]
    fn faults_and_violations_become_instants_and_truncation_is_repaired() {
        let b = bundle_with(
            // `End` without its `Begin` (ring wrapped) + an open span
            // at dump time + a fault and a violation.
            r#"{"ts_ns":4000,"round":1,"data":{"End":{"path":"run/round.0","dur_ns":2500}}},
               {"ts_ns":5000,"round":1,"data":{"Begin":{"path":"run"}}},
               {"ts_ns":6000,"round":1,"data":{"Fault":{"client":2,"kind":"crash","detail":0}}},
               {"ts_ns":7000,"round":1,"data":{"Violation":{"check":"qp.kkt","detail":"residual"}}}"#,
        );
        let trace = to_trace(&b);
        let stats = validate(&trace).unwrap();
        assert_eq!(stats.instants, 2);
        assert_eq!(stats.slices, 2, "one X repair + one auto-closed B");
        let text = serde_json::to_string(&trace).unwrap();
        assert!(text.contains("fault.crash"));
        assert!(text.contains("violation.qp.kkt"));
        assert!(
            text.contains(r#""ph":"X""#),
            "truncated End becomes X: {text}"
        );
    }

    #[test]
    fn counters_accumulate_deltas() {
        let b = bundle_with(
            r#"{"ts_ns":1000,"round":0,"data":{"Count":{"name":"comm.upload_bytes","delta":10}}},
               {"ts_ns":2000,"round":0,"data":{"Count":{"name":"comm.upload_bytes","delta":5}}},
               {"ts_ns":3000,"round":0,"data":{"Point":{"name":"fl.participation","index":0,"value":0.75}}}"#,
        );
        let trace = to_trace(&b);
        let stats = validate(&trace).unwrap();
        assert_eq!(stats.counters, 3);
        let text = serde_json::to_string(&trace).unwrap();
        assert!(text.contains(r#""value":15.0"#), "running total: {text}");
    }

    #[test]
    fn validator_rejects_unbalanced_and_backwards_traces() {
        let lone_e: Value = serde_json::from_str(
            r#"{"traceEvents":[{"name":"x","ph":"E","ts":1.0,"pid":1,"tid":0}]}"#,
        )
        .unwrap();
        assert!(validate(&lone_e).unwrap_err().contains("without open"));
        let backwards: Value = serde_json::from_str(
            r#"{"traceEvents":[
                {"name":"a","ph":"B","ts":5.0,"pid":1,"tid":0},
                {"name":"a","ph":"E","ts":2.0,"pid":1,"tid":0}]}"#,
        )
        .unwrap();
        assert!(validate(&backwards).unwrap_err().contains("backwards"));
        let unclosed: Value = serde_json::from_str(
            r#"{"traceEvents":[{"name":"a","ph":"B","ts":1.0,"pid":1,"tid":0}]}"#,
        )
        .unwrap();
        assert!(validate(&unclosed).unwrap_err().contains("never closed"));
    }

    #[test]
    fn validator_rejects_flow_events_and_other_unknown_phases() {
        // Flow arrows (`s`/`t`/`f`) are not part of the timeline any
        // more: a trace carrying one is refused like any unknown phase.
        for ph in ["s", "t", "f", "Q"] {
            let doc: Value = serde_json::from_str(&format!(
                r#"{{"traceEvents":[{{"name":"w","ph":"{ph}","id":"1","ts":1.0,"pid":1,"tid":0}}]}}"#
            ))
            .unwrap();
            assert!(
                validate(&doc).unwrap_err().contains("unknown phase"),
                "{ph}"
            );
        }
    }

    #[test]
    fn recordings_holding_wire_records_no_longer_load() {
        let wire = r#"{"ts_ns":1100,"round":0,"data":{"Wire":{"phase":"out","conn":0,"trace":7,"span":42,"parent":0,"msg":"upload","bytes":64,"peer_ts_ns":0}}"#;
        let stream = format!(
            "{{\"ts_ns\":1000,\"round\":0,\"data\":{{\"Begin\":{{\"path\":\"run\"}}}},\"thread\":\"ThreadId(1)\"}}\n{wire},\"thread\":\"ThreadId(1)\"}}\n"
        );
        match Recording::parse(&stream) {
            Err(LoadError::Line { line: 2, .. }) => {}
            other => panic!("a Wire line must be refused at line 2: {other:?}"),
        }
        let bundle = format!(
            r#"{{"version":1,"reason":"unit","round":0,"context":[],
                "metrics":{{"counters":[]}},
                "tracks":[{{"thread":"ThreadId(1)","dropped":0,"events":[{wire}}}]}}]}}"#
        );
        assert!(matches!(
            Recording::parse(&bundle),
            Err(LoadError::Bundle(_))
        ));
    }
}
