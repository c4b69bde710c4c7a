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
//! * Series points and gauges become counter (`C`) tracks; counter
//!   deltas are accumulated into running-total counter tracks.
//!
//! Timestamps are microseconds (fractional) since the recording
//! epoch. A stream holds the same records as a bundle, so it converts
//! to the same timeline — and, never truncated by a ring bound, to the
//! whole run.
//!
//! ## Wire lifecycle and multi-process merges
//!
//! `Wire` ring records (the four-point message lifecycle the transport
//! stamps: `enq → out → in → handled`, plus `drop` for frames the
//! fault injector burned) become instant events named
//! `wire.<phase>.<msg>` *and* Chrome flow events (`s`/`t`/`f`, cat
//! `wire.flow`, id = the frame's span id in hex) so Perfetto draws a
//! causal arrow from the sender's transmit to the receiver's handling.
//! A dropped frame starts a flow that never finishes — a terminated
//! arrow.
//!
//! [`merge`] fuses per-process recordings into one
//! timeline: each bundle keeps its own `pid` (its OS pid when
//! recorded), and clock offsets between processes are estimated
//! NTP-style from the send timestamps receivers echo into their `in`
//! records — for each process pair the minimum observed one-way delta
//! bounds the skew, and opposing directions split it.

use serde_json::{Number, Value};

use crate::bundle::PostmortemBundle;
use crate::ring::{RingData, RingRecord};
use crate::sink::{LoadError, Recording};

/// The `pid` single-bundle traces live under.
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
pub fn tid_for_path(path: &str) -> u64 {
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

/// One converted process's share of a merged trace: its `pid`, its
/// display name, its events, and the tids they touched.
type ProcessPart = (u64, String, Vec<Value>, Vec<u64>);

/// Wrap per-process event sets in the trace envelope, prepending
/// process/thread-name metadata for every pid and track seen.
fn finish_multi(parts: Vec<ProcessPart>) -> Value {
    let mut all: Vec<Value> = Vec::new();
    let mut bodies: Vec<Value> = Vec::new();
    for (pid, name, mut events, mut tids) in parts {
        tids.sort_unstable();
        tids.dedup();
        all.push(obj(vec![
            ("name", vs("process_name")),
            ("ph", vs("M")),
            ("pid", vu(pid)),
            ("args", obj(vec![("name", vs(&name))])),
        ]));
        for tid in tids {
            all.push(obj(vec![
                ("name", vs("thread_name")),
                ("ph", vs("M")),
                ("pid", vu(pid)),
                ("tid", vu(tid)),
                ("args", obj(vec![("name", vs(&track_name(tid)))])),
            ]));
        }
        bodies.append(&mut events);
    }
    all.append(&mut bodies);
    obj(vec![
        ("traceEvents", Value::Array(all)),
        ("displayTimeUnit", vs("ms")),
    ])
}

struct Emitter {
    /// The `pid` every event of this process carries.
    pid: u64,
    /// Display name for the process track.
    proc_name: String,
    /// Clock alignment: added to every timestamp at emit time, µs.
    offset_us: f64,
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
        Self::with_process(PID, "fedknow-sim", 0.0)
    }

    fn with_process(pid: u64, proc_name: &str, offset_us: f64) -> Self {
        Self {
            pid,
            proc_name: proc_name.to_string(),
            offset_us,
            events: Vec::new(),
            tids: Vec::new(),
            stacks: Vec::new(),
            totals: Vec::new(),
            max_ts_us: 0.0,
        }
    }

    /// Apply this process's clock-alignment offset. Clamped at zero:
    /// the validator (and Perfetto) reject negative timestamps, and
    /// anything the clamp touches predates the aligned origin anyway.
    fn shift(&self, ts_us: f64) -> f64 {
        (ts_us + self.offset_us).max(0.0)
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
        let ts_us = self.shift(ts_us);
        let tid = tid_for_path(path);
        self.see_ts(ts_us);
        self.stack(tid).push(path.to_string());
        let pid = self.pid;
        self.push(
            tid,
            obj(vec![
                ("name", vs(leaf(path))),
                ("cat", vs("span")),
                ("ph", vs("B")),
                ("ts", vf(ts_us)),
                ("pid", vu(pid)),
                ("tid", vu(tid)),
                ("args", obj(vec![("path", vs(path)), ("round", vu(round))])),
            ]),
        );
    }

    /// Emit an `E` at an already-shifted timestamp.
    fn emit_end(&mut self, tid: u64, ts_us: f64, name: &str) {
        let pid = self.pid;
        self.push(
            tid,
            obj(vec![
                ("name", vs(name)),
                ("ph", vs("E")),
                ("ts", vf(ts_us)),
                ("pid", vu(pid)),
                ("tid", vu(tid)),
            ]),
        );
    }

    fn end(&mut self, ts_us: f64, path: &str, dur_ns: u64) {
        let ts_us = self.shift(ts_us);
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
                let pid = self.pid;
                self.push(
                    tid,
                    obj(vec![
                        ("name", vs(leaf(path))),
                        ("cat", vs("span")),
                        ("ph", vs("X")),
                        ("ts", vf((ts_us - dur_us).max(0.0))),
                        ("dur", vf(dur_us)),
                        ("pid", vu(pid)),
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
        let ts_us = self.shift(ts_us);
        self.see_ts(ts_us);
        let pid = self.pid;
        self.push(
            tid,
            obj(vec![
                ("name", vs(name)),
                ("cat", vs(cat)),
                ("ph", vs("i")),
                ("ts", vf(ts_us)),
                ("pid", vu(pid)),
                ("tid", vu(tid)),
                ("s", vs("t")),
                ("args", args),
            ]),
        );
    }

    /// A wire-lifecycle record: an instant on the connection's track,
    /// plus — for the phases that bound a frame's flight — a Chrome
    /// flow event keyed by the frame's span id, so the viewer draws the
    /// causal arrow from sender to receiver. `out` and `drop` start a
    /// flow (`s`); `in` continues it (`t`); `handled` finishes it
    /// (`f`). A `drop` therefore leaves a started, never-finished flow:
    /// the terminated arrow is the dropped frame.
    #[allow(clippy::too_many_arguments)]
    fn wire(
        &mut self,
        ts_us: f64,
        round: u64,
        phase: &str,
        msg: &str,
        conn: u64,
        span: u64,
        parent: u64,
        bytes: u64,
        peer_ts_ns: u64,
    ) {
        let tid = if conn == u64::MAX { 0 } else { conn + 1 };
        self.instant(
            ts_us,
            tid,
            &format!("wire.{phase}.{msg}"),
            "wire",
            obj(vec![
                ("span", vs(&format!("{span:x}"))),
                ("parent", vs(&format!("{parent:x}"))),
                ("bytes", vu(bytes)),
                ("round", vu(round)),
                ("peer_ts_ns", vu(peer_ts_ns)),
            ]),
        );
        let flow_ph = match phase {
            "out" | "drop" => Some("s"),
            "in" => Some("t"),
            "handled" => Some("f"),
            _ => None,
        };
        if let Some(ph) = flow_ph {
            let sts = self.shift(ts_us);
            let pid = self.pid;
            let mut fields = vec![
                ("name", vs(&format!("wire.{msg}"))),
                ("cat", vs("wire.flow")),
                ("ph", vs(ph)),
                ("id", vs(&format!("{span:x}"))),
                ("ts", vf(sts)),
                ("pid", vu(pid)),
                ("tid", vu(tid)),
            ];
            if ph == "f" {
                // Bind to the enclosing slice's *end*, not its start.
                fields.push(("bp", vs("e")));
            }
            self.push(tid, obj(fields));
        }
    }

    fn counter(&mut self, ts_us: f64, name: &str, value: f64) {
        let ts_us = self.shift(ts_us);
        self.see_ts(ts_us);
        let pid = self.pid;
        self.push(
            0,
            obj(vec![
                ("name", vs(name)),
                ("ph", vs("C")),
                ("ts", vf(ts_us)),
                ("pid", vu(pid)),
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

    /// Close open spans and surrender this process's share of a merged
    /// trace.
    fn into_parts(mut self) -> ProcessPart {
        self.close_open_spans();
        (self.pid, self.proc_name, self.events, self.tids)
    }

    fn into_trace(self) -> Value {
        finish_multi(vec![self.into_parts()])
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
        RingData::Point { name, value, .. } | RingData::Gauge { name, value } => {
            em.counter(ts_us, name, *value);
        }
        RingData::Count { name, delta } => em.count_delta(ts_us, name, *delta),
        RingData::Wire {
            phase,
            conn,
            span,
            parent,
            msg,
            bytes,
            peer_ts_ns,
            ..
        } => em.wire(
            ts_us,
            round,
            phase,
            msg,
            *conn,
            *span,
            *parent,
            *bytes,
            *peer_ts_ns,
        ),
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

/// Convert a parsed postmortem bundle into a Chrome trace value.
pub fn bundle_to_trace(bundle: &Value) -> Result<Value, String> {
    serde_json::from_value::<PostmortemBundle>(bundle.clone())
        .map(|b| to_trace(&b.into()))
        .map_err(|e| e.to_string())
}

/// The trace in `text`: a Chrome trace (an object with `traceEvents`)
/// as it is, a bundle or a stream converted.
pub fn from_text(text: &str) -> Result<Value, LoadError> {
    match serde_json::from_str::<Value>(text) {
        Ok(doc) if doc.get("traceEvents").is_some() => Ok(doc),
        _ => Recording::parse(text).map(|r| to_trace(&r)),
    }
}

/// What a multi-process merge established about the run's wire
/// traffic and clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeStats {
    /// Bundles merged.
    pub bundles: usize,
    /// Frames some process recorded receiving (`in`).
    pub delivered: usize,
    /// Delivered frames whose sender-side record was also found — the
    /// complete causal flow links.
    pub linked: usize,
    /// Frames the fault injector burned (`drop`): terminated flows.
    pub dropped: usize,
    /// `linked / delivered` (1.0 when nothing was delivered).
    pub link_fraction: f64,
    /// Clock shift applied to each bundle, µs, in input order (offset
    /// to bundle 0's clock, then a common shift to a zero origin).
    pub offsets_us: Vec<f64>,
}

/// Merge per-process recordings into one clock-aligned Chrome
/// trace. Each bundle becomes its own trace process (keeping the OS
/// pid it recorded), and inter-process clock offsets are estimated
/// NTP-style: every receive record echoes the sender's send timestamp,
/// so for a process pair the minimum observed `recv − send` in each
/// direction bounds skew-plus-delay, and opposing directions cancel
/// the delay. Processes exchanging frames in only one direction fall
/// back to `delay ≈ 0`; processes with no direct traffic to an
/// already-aligned one stay unshifted.
pub fn merge(bundles: &[Recording]) -> Result<(Value, MergeStats), String> {
    if bundles.is_empty() {
        return Err("no bundles to merge".to_string());
    }
    let n = bundles.len();
    let recs: Vec<Vec<(usize, &RingRecord)>> = bundles.iter().map(Recording::merged).collect();

    // Pass 1 — wire lifecycle census: which bundle sent each span,
    // which spans were received/handled/dropped, and the per-pair
    // minimum one-way deltas for clock estimation.
    let mut sender_of: Vec<(u64, usize)> = Vec::new();
    let mut dropped_spans: Vec<u64> = Vec::new();
    let mut in_recs: Vec<(usize, u64, i128)> = Vec::new(); // (bundle, span, recv − send)
    for (bi, rs) in recs.iter().enumerate() {
        for (_, r) in rs {
            let RingData::Wire {
                phase,
                span,
                peer_ts_ns,
                ..
            } = &r.data
            else {
                continue;
            };
            match phase.as_str() {
                "enq" | "out" | "drop" => {
                    sender_of.push((*span, bi));
                    if phase == "drop" {
                        dropped_spans.push(*span);
                    }
                }
                "in" => {
                    in_recs.push((bi, *span, i128::from(r.ts_ns) - i128::from(*peer_ts_ns)));
                }
                _ => {}
            }
        }
    }
    sender_of.sort_unstable();
    sender_of.dedup();
    let sender = |span: u64| -> Option<usize> {
        let i = sender_of.partition_point(|&(s, _)| s < span);
        (i < sender_of.len() && sender_of[i].0 == span).then(|| sender_of[i].1)
    };

    // d[a][b]: minimum observed (recv_b − send_a) over a→b frames —
    // true flight delay plus (clock_b − clock_a).
    let mut d: Vec<Vec<Option<i128>>> = vec![vec![None; n]; n];
    let mut delivered_spans: Vec<(u64, bool)> = Vec::new();
    for &(bi, span, delta) in &in_recs {
        let from = sender(span);
        delivered_spans.push((span, from.is_some()));
        if let Some(a) = from {
            if a != bi {
                let slot = &mut d[a][bi];
                *slot = Some(slot.map_or(delta, |cur| cur.min(delta)));
            }
        }
    }
    delivered_spans.sort_unstable();
    delivered_spans.dedup();
    dropped_spans.sort_unstable();
    dropped_spans.dedup();

    // Pass 2 — align clocks onto bundle 0's, walking the pair graph so
    // chains (client↔server↔client) resolve even without direct
    // client↔client traffic.
    let mut shift_ns: Vec<Option<f64>> = vec![None; n];
    shift_ns[0] = Some(0.0);
    let mut frontier = vec![0usize];
    while let Some(a) = frontier.pop() {
        let base = shift_ns[a].expect("frontier entries are aligned");
        for b in 0..n {
            if shift_ns[b].is_some() {
                continue;
            }
            let skew = match (d[a][b], d[b][a]) {
                (Some(ab), Some(ba)) => Some((ab as f64 - ba as f64) / 2.0),
                (Some(ab), None) => Some(ab as f64),
                (None, Some(ba)) => Some(-(ba as f64)),
                (None, None) => None,
            };
            if let Some(skew) = skew {
                shift_ns[b] = Some(base - skew);
                frontier.push(b);
            }
        }
    }
    let shift_ns: Vec<f64> = shift_ns.into_iter().map(|s| s.unwrap_or(0.0)).collect();

    // Common origin: the earliest aligned timestamp maps to zero.
    let mut origin = f64::INFINITY;
    for (bi, rs) in recs.iter().enumerate() {
        if let Some((_, r)) = rs.first() {
            origin = origin.min(r.ts_ns as f64 + shift_ns[bi]);
        }
    }
    if !origin.is_finite() {
        origin = 0.0;
    }

    // Pass 3 — emit each bundle as its own trace process.
    let mut parts: Vec<ProcessPart> = Vec::with_capacity(n);
    let mut offsets_us = Vec::with_capacity(n);
    let mut pids_seen: Vec<u64> = Vec::new();
    for (bi, rs) in recs.iter().enumerate() {
        let mut pid = bundles[bi].pid.map_or(1000 + bi as u64, u64::from);
        if pids_seen.contains(&pid) {
            pid = 1000 + bi as u64;
        }
        pids_seen.push(pid);
        let name = bundles[bi]
            .context
            .iter()
            .find(|e| e.key == "proc.name")
            .map_or_else(|| format!("process {pid}"), |e| e.value.clone());
        let off_us = (shift_ns[bi] - origin) / 1000.0;
        offsets_us.push(off_us);
        let mut em = Emitter::with_process(pid, &name, off_us);
        for (_, r) in rs {
            ring_record_to_events(&mut em, r);
        }
        parts.push(em.into_parts());
    }

    let delivered = delivered_spans.len();
    let linked = delivered_spans.iter().filter(|(_, l)| *l).count();
    let stats = MergeStats {
        bundles: n,
        delivered,
        linked,
        dropped: dropped_spans.len(),
        link_fraction: if delivered == 0 {
            1.0
        } else {
            linked as f64 / delivered as f64
        },
        offsets_us,
    };
    Ok((finish_multi(parts), stats))
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
    /// Flow starts (`s`) — one per frame put on the wire.
    pub flow_starts: usize,
    /// Flow finishes (`f`) — frames whose handling closed the flow.
    pub flow_ends: usize,
    /// Largest timestamp seen, µs.
    pub max_ts_us: f64,
}

/// Validate a Chrome trace value: envelope shape, known phase codes,
/// required fields, per-track monotonically non-decreasing `B`/`E`
/// timestamps, and balanced, name-matched `B`/`E` nesting. Flow
/// events are checked in two passes — every `t`/`f` must reference an
/// `s` id, wherever in the file that `s` lives — so event order
/// between processes of a merged trace doesn't matter. Returns
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
        flow_starts: 0,
        flow_ends: 0,
        max_ts_us: 0.0,
    };
    // Per-(pid, tid): open-B stack of names and the last B/E timestamp.
    let mut tracks: Vec<((u64, u64), Vec<String>, f64)> = Vec::new();
    // Flow bookkeeping for the second pass.
    let mut flow_starts: Vec<String> = Vec::new();
    let mut flow_refs: Vec<(usize, String)> = Vec::new();
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
            "s" | "t" | "f" => {
                name.ok_or_else(|| at("flow event without name"))?;
                let id = ev
                    .get("id")
                    .and_then(Value::as_str)
                    .ok_or_else(|| at("flow event without string `id`"))?;
                if ph == "s" {
                    stats.flow_starts += 1;
                    flow_starts.push(id.to_string());
                } else {
                    if ph == "f" {
                        stats.flow_ends += 1;
                    }
                    flow_refs.push((i, id.to_string()));
                }
            }
            other => return Err(at(&format!("unknown phase `{other}`"))),
        }
    }
    for (key, stack, _) in &tracks {
        if let Some(open) = stack.last() {
            return Err(format!("track {key:?}: span `{open}` never closed"));
        }
    }
    flow_starts.sort_unstable();
    flow_starts.dedup();
    for (i, id) in &flow_refs {
        if flow_starts.binary_search(id).is_err() {
            return Err(format!("event {i}: flow step references unknown id `{id}`"));
        }
    }
    stats.tracks = tracks.len();
    Ok(stats)
}

/// Top-`n` slice table: per span name, the occurrence count and total/
/// mean/max duration, ordered by total time, formatted for terminals.
pub fn summarize(trace: &Value, n: usize) -> Result<String, String> {
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("trace has no `traceEvents` array")?;
    // name -> (count, total_us, max_us)
    let mut agg: Vec<(String, u64, f64, f64)> = Vec::new();
    let mut add = |name: &str, dur: f64| match agg.iter_mut().find(|(n, ..)| n == name) {
        Some((_, c, t, m)) => {
            *c += 1;
            *t += dur;
            if dur > *m {
                *m = dur;
            }
        }
        None => agg.push((name.to_string(), 1, dur, dur)),
    };
    // B/E pairing per track mirrors the validator's stack walk.
    type OpenStack = Vec<(String, f64)>;
    let mut stacks: Vec<((u64, u64), OpenStack)> = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).unwrap_or("");
        let name = ev.get("name").and_then(Value::as_str).unwrap_or("");
        let ts = ev.get("ts").and_then(Value::as_f64).unwrap_or(0.0);
        let key = (
            ev.get("pid").and_then(Value::as_u64).unwrap_or(0),
            ev.get("tid").and_then(Value::as_u64).unwrap_or(0),
        );
        match ph {
            "X" => add(name, ev.get("dur").and_then(Value::as_f64).unwrap_or(0.0)),
            "B" => {
                match stacks.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, s)) => s.push((name.to_string(), ts)),
                    None => stacks.push((key, vec![(name.to_string(), ts)])),
                };
            }
            "E" => {
                if let Some((_, s)) = stacks.iter_mut().find(|(k, _)| *k == key) {
                    if let Some((n, t0)) = s.pop() {
                        add(&n, ts - t0);
                    }
                }
            }
            _ => {}
        }
    }
    agg.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>8} {:>12} {:>12} {:>12}\n",
        "slice", "count", "total ms", "mean ms", "max ms"
    ));
    for (name, count, total, max) in agg.iter().take(n) {
        out.push_str(&format!(
            "{:<28} {:>8} {:>12.3} {:>12.3} {:>12.3}\n",
            name,
            count,
            total / 1000.0,
            total / 1000.0 / *count as f64,
            max / 1000.0
        ));
    }
    Ok(out)
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
                "metrics":{{"counters":[],"gauges":[],"hists":[],"series":[]}},
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

    fn bundle_with_pid(pid: u64, name: &str, events: &str) -> Recording {
        let json = format!(
            r#"{{"version":1,"reason":"unit","round":0,"pid":{pid},
                "context":[{{"key":"proc.name","value":"{name}"}}],
                "metrics":{{"counters":[],"gauges":[],"hists":[],"series":[]}},
                "tracks":[{{"thread":"ThreadId(1)","dropped":0,"events":[{events}]}}]}}"#
        );
        Recording::parse(&json).unwrap()
    }

    fn wire_rec(ts: u64, phase: &str, span: u64, peer_ts: u64) -> String {
        format!(
            r#"{{"ts_ns":{ts},"round":0,"data":{{"Wire":{{"phase":"{phase}","conn":0,
                "trace":7,"span":{span},"parent":0,"msg":"upload","bytes":64,
                "peer_ts_ns":{peer_ts}}}}}}}"#
        )
    }

    #[test]
    fn wire_records_become_instants_and_flow_events() {
        let b = bundle_with(
            &[
                wire_rec(1000, "enq", 9, 0),
                wire_rec(1100, "out", 9, 0),
                wire_rec(1500, "in", 9, 1100),
                wire_rec(1700, "handled", 9, 1100),
                wire_rec(2000, "drop", 10, 0),
            ]
            .join(",\n"),
        );
        let trace = to_trace(&b);
        let stats = validate(&trace).unwrap();
        assert_eq!(stats.flow_starts, 2, "out + drop each start a flow");
        assert_eq!(stats.flow_ends, 1, "only span 9 was handled");
        assert_eq!(stats.instants, 5, "every lifecycle point is an instant");
        let text = serde_json::to_string(&trace).unwrap();
        assert!(text.contains("wire.out.upload") && text.contains("wire.drop.upload"));
        assert!(text.contains(r#""cat":"wire.flow""#));
    }

    #[test]
    fn validator_rejects_flow_steps_with_unknown_ids() {
        let orphan: Value = serde_json::from_str(
            r#"{"traceEvents":[
                {"name":"w","cat":"wire.flow","ph":"t","id":"dead","ts":1.0,"pid":1,"tid":0}]}"#,
        )
        .unwrap();
        assert!(validate(&orphan).unwrap_err().contains("unknown id"));
    }

    #[test]
    fn merge_aligns_clocks_and_links_cross_process_flows() {
        // The client's clock runs 5000 ns ahead of the server's; each
        // direction's frame flies for 100 ns. The merger should
        // recover the 5000 ns skew exactly (symmetric delays cancel).
        let server = bundle_with_pid(
            11,
            "server",
            &[
                wire_rec(5100, "in", 100, 10000),
                wire_rec(5200, "handled", 100, 10000),
                wire_rec(6000, "out", 200, 0),
            ]
            .join(",\n"),
        );
        let client = bundle_with_pid(
            22,
            "client0",
            &[
                wire_rec(10000, "out", 100, 0),
                wire_rec(11100, "in", 200, 6000),
                wire_rec(11200, "handled", 200, 6000),
            ]
            .join(",\n"),
        );
        let (trace, stats) = merge(&[server, client]).unwrap();
        assert_eq!(stats.bundles, 2);
        assert_eq!(stats.delivered, 2);
        assert_eq!(stats.linked, 2);
        assert_eq!(stats.dropped, 0);
        assert!((stats.link_fraction - 1.0).abs() < 1e-12);
        let rel = stats.offsets_us[1] - stats.offsets_us[0];
        assert!((rel + 5.0).abs() < 1e-9, "client shifts −5 µs, got {rel}");
        let vstats = validate(&trace).unwrap();
        assert_eq!(vstats.flow_starts, 2);
        assert_eq!(vstats.flow_ends, 2);
        let text = serde_json::to_string(&trace).unwrap();
        assert!(text.contains("server") && text.contains("client0"));
        assert!(text.contains(r#""pid":11"#) && text.contains(r#""pid":22"#));
    }

    #[test]
    fn merge_counts_dropped_frames_as_terminated_flows() {
        let server = bundle_with_pid(11, "server", &wire_rec(5000, "in", 1, 900));
        let client = bundle_with_pid(
            22,
            "client0",
            &[
                wire_rec(900, "out", 1, 0),
                wire_rec(1000, "drop", 2, 0),
                wire_rec(1100, "drop", 3, 0),
            ]
            .join(",\n"),
        );
        let (trace, stats) = merge(&[server, client]).unwrap();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.linked, 1);
        assert_eq!(stats.dropped, 2);
        // A dropped frame is a started flow that never finishes —
        // still a valid trace.
        let vstats = validate(&trace).unwrap();
        assert_eq!(vstats.flow_starts, 3);
        assert_eq!(vstats.flow_ends, 0);
    }

    #[test]
    fn merge_accepts_bundles_without_wire_records() {
        // Pre-tracing bundles (no Wire records, no pid) still merge:
        // no links to estimate, offsets stay zero.
        let a = bundle_with(
            r#"{"ts_ns":1000,"round":0,"data":{"Begin":{"path":"run"}}},
               {"ts_ns":2000,"round":0,"data":{"End":{"path":"run","dur_ns":1000}}}"#,
        );
        let b = bundle_with(
            r#"{"ts_ns":3000,"round":0,"data":{"Begin":{"path":"run"}}},
               {"ts_ns":4000,"round":0,"data":{"End":{"path":"run","dur_ns":1000}}}"#,
        );
        let (trace, stats) = merge(&[a, b]).unwrap();
        assert_eq!(stats.delivered, 0);
        assert!(
            (stats.link_fraction - 1.0).abs() < 1e-12,
            "vacuously linked"
        );
        let vstats = validate(&trace).unwrap();
        assert_eq!(vstats.slices, 2);
        assert_eq!(vstats.tracks, 2, "same tid 0 under two distinct pids");
    }

    #[test]
    fn summary_ranks_by_total_time() {
        let b = bundle_with(
            r#"{"ts_ns":0,"round":0,"data":{"Begin":{"path":"big"}}},
               {"ts_ns":9000000,"round":0,"data":{"End":{"path":"big","dur_ns":9000000}}},
               {"ts_ns":9000000,"round":0,"data":{"Begin":{"path":"small"}}},
               {"ts_ns":9001000,"round":0,"data":{"End":{"path":"small","dur_ns":1000}}}"#,
        );
        let trace = to_trace(&b);
        let table = summarize(&trace, 10).unwrap();
        let big_at = table.find("big").unwrap();
        let small_at = table.find("small").unwrap();
        assert!(big_at < small_at, "{table}");
    }
}
