//! The one telemetry event and the flight recorder that holds it.
//!
//! Every instrumentation site (span begin/end, counter delta, histogram
//! sample, gauge update, series point, fault injection, verify
//! violation, free-form note, wire lifecycle point) builds one
//! [`RingData`] and hands it to `emit`, which stamps it into a
//! [`RingRecord`], appends it to the `FEDKNOW_OBS` JSONL stream when
//! one is attached, and pushes it into the recording thread's ring.
//! Rings are bounded — `FEDKNOW_TRACE_CAP` records per thread, default
//! 65 536 — so a run of any length holds only the most recent window,
//! like an aircraft black box. When a dump trigger fires (panic, strict
//! verify violation, injected fault, explicit [`crate::dump_now`]),
//! every ring is drained into a postmortem bundle (see
//! [`crate::bundle`]). Stream and bundle therefore carry the same
//! records; [`crate::sink::Recording`] reads either.
//!
//! ## Cost model
//!
//! The recorder follows the facade's contract: while observability is
//! disabled, every record call is one relaxed atomic load. When
//! enabled, a record is a thread-local borrow, an uncontended
//! mutex lock (contended only while a dump drains), and
//! a slot write — bounded memory, no reallocation after the ring
//! fills. `FEDKNOW_TRACE_CAP=0` switches the in-memory ring off while
//! the stream and the rest of the observability stack stay up.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Default per-thread ring capacity, in records.
pub const DEFAULT_TRACE_CAP: usize = 65_536;

/// One flight-recorder record: what happened ([`RingData`]), when
/// (nanoseconds since the process-wide recording epoch), and in which
/// global round (the ambient [`crate::round_index`] at record time).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RingRecord {
    /// Nanoseconds since the recording epoch (first enable).
    pub ts_ns: u64,
    /// Ambient global round index at record time.
    pub round: u64,
    /// The event payload.
    pub data: RingData,
}

/// Work attributed to a span: the growth of the opening thread's
/// kernel and allocator totals between span open and close. Inclusive
/// of child spans on the same thread (like `dur_ns`); work done by
/// other threads inside the span is attributed to *their* spans, and
/// [`crate::Aggregate`] rolls it up the span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SpanPerf {
    /// Floating-point operations performed by instrumented kernels.
    pub flops: u64,
    /// Bytes moved by instrumented kernels (compulsory operand traffic).
    pub bytes: u64,
    /// Heap allocations (0 unless `FEDKNOW_PROF_ALLOC` tracking is on).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// The payload of a flight-recorder record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RingData {
    /// A span opened (full slash-joined path, own name included).
    Begin {
        /// Slash-joined span path, e.g. `run/task.0/round.2/client.1`.
        path: String,
    },
    /// A span closed.
    End {
        /// Slash-joined span path (matches the opening `Begin`).
        path: String,
        /// Span duration in nanoseconds.
        dur_ns: u64,
        /// Work attributed to the span, when the profiling layer
        /// observed any; `None` in older bundles and when nothing was
        /// counted.
        perf: Option<SpanPerf>,
    },
    /// A counter was bumped.
    Count {
        /// Counter name.
        name: String,
        /// Increment.
        delta: u64,
    },
    /// A histogram sample was recorded.
    Sample {
        /// Histogram name.
        name: String,
        /// Sampled value.
        value: u64,
    },
    /// A gauge was set.
    Gauge {
        /// Gauge name.
        name: String,
        /// New value.
        value: f64,
    },
    /// A series point was appended.
    Point {
        /// Series name.
        name: String,
        /// Point index (usually a round).
        index: u64,
        /// Point value.
        value: f64,
    },
    /// A fault-plan injection hit (crash, straggle, lost upload, …).
    Fault {
        /// Client the fault hit.
        client: u64,
        /// Fault kind label (`crash`, `upload_rejected`, …).
        kind: String,
        /// Kind-specific detail (mirrors `FaultEvent::detail`).
        detail: u64,
    },
    /// A runtime invariant check failed (`FEDKNOW_VERIFY`).
    Violation {
        /// Check name (e.g. `integrator.rotation`).
        check: String,
        /// Human-readable violation detail.
        detail: String,
    },
    /// A free-form marker (checkpoint/resume boundaries, panics, …).
    Note {
        /// Marker text.
        note: String,
    },
    /// One point of the four-phase wire message lifecycle
    /// (`enq` → `out` → `in` → `handled`, plus `drop` for attempts
    /// burned by the fault injector). `trace`/`span` tie the record to
    /// the frame's embedded trace context (`fedknow_fl::framing::TraceCtx`);
    /// `peer_ts_ns` carries the *sender's* send timestamp on
    /// receive-side records (zero otherwise) for cross-process clock
    /// alignment.
    Wire {
        /// Lifecycle phase: `enq`, `out`, `in`, `handled`, or `drop`.
        phase: String,
        /// Connection / client id the message moved on.
        conn: u64,
        /// Run-wide trace id.
        trace: u64,
        /// The frame's wire-span id.
        span: u64,
        /// Sender-side parent span id (0 = none).
        parent: u64,
        /// Message kind label (`upload`, `ack`, …).
        msg: String,
        /// Payload bytes of the message.
        bytes: u64,
        /// Sender's send timestamp (receive-side records; 0 otherwise).
        peer_ts_ns: u64,
    },
}

/// One thread's records: a drained ring in a bundle, or the lines one
/// thread wrote to a stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadTrack {
    /// Thread label (`ThreadId(..)` debug form).
    pub thread: String,
    /// Records lost to the ring bound (always 0 for a stream).
    pub dropped: u64,
    /// Held records, oldest first.
    pub events: Vec<RingRecord>,
}

/// A fixed-capacity overwrite-oldest ring of [`RingRecord`]s.
#[derive(Debug)]
pub struct RingBuf {
    cap: usize,
    records: Vec<RingRecord>,
    /// Next overwrite position once `records` reached `cap`.
    head: usize,
    /// Records overwritten (lost to the window bound).
    dropped: u64,
}

impl RingBuf {
    /// An empty ring holding at most `cap` records.
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            records: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// Append a record, overwriting the oldest once full.
    pub fn push(&mut self, r: RingRecord) {
        if self.cap == 0 {
            return;
        }
        if self.records.len() < self.cap {
            self.records.push(r);
        } else {
            self.records[self.head] = r;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records overwritten so far (the window that was lost).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// A copy of the held records, oldest first. The ring is left
    /// intact, so successive dumps each capture the current window.
    pub fn drain_ordered(&self) -> Vec<RingRecord> {
        let mut out = Vec::with_capacity(self.records.len());
        out.extend_from_slice(&self.records[self.head..]);
        out.extend_from_slice(&self.records[..self.head]);
        out
    }
}

/// One thread's label and ring, as registered globally so dumps can
/// reach rings of threads that have already exited.
#[derive(Clone)]
struct ThreadRing {
    label: String,
    buf: Arc<Mutex<RingBuf>>,
}

/// Poison-tolerant lock: the recorder must stay usable from the
/// panic hook even if a panic unwound through a lock holder.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether [`emit`] has anywhere to put a record: the ring is on or a
/// stream is attached. Set once, when observability comes up.
static RECORDING: AtomicBool = AtomicBool::new(false);
static RINGS: Mutex<Vec<ThreadRing>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static LOCAL: RefCell<Option<ThreadRing>> = const { RefCell::new(None) };
}

/// Start the recording epoch and switch [`emit`] on when the ring has
/// capacity or a stream is attached. Called once, as observability
/// comes up.
pub(crate) fn start(on: bool) {
    EPOCH.get_or_init(Instant::now);
    RECORDING.store(on, Ordering::Release);
}

/// Nanoseconds since this process's recording epoch — the timescale of
/// every record and of the send timestamps embedded in wire trace
/// contexts. Public so the transport can stamp frames on the same
/// clock the recorder uses; each process has its own epoch, and the
/// trace merger estimates the offsets between them.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The one emit path: stamp `data` with the time and the ambient round,
/// append it to the JSONL stream (when attached) under the calling
/// thread's label, and push it into the thread's ring (a no-op at
/// capacity 0). A relaxed load and nothing else while neither keeps
/// records.
pub(crate) fn emit(data: RingData) {
    if !RECORDING.load(Ordering::Relaxed) {
        return;
    }
    let rec = RingRecord {
        ts_ns: now_ns(),
        round: crate::round_index(),
        data,
    };
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let local = l.get_or_insert_with(register_current_thread);
        if let Some(stream) = crate::stream() {
            stream.append(&local.label, &rec);
        }
        lock(&local.buf).push(rec);
    });
}

/// Create + globally register the calling thread's ring.
fn register_current_thread() -> ThreadRing {
    let ring = ThreadRing {
        label: format!("{:?}", std::thread::current().id()),
        buf: Arc::new(Mutex::new(RingBuf::new(crate::config().trace_cap))),
    };
    lock(&RINGS).push(ring.clone());
    ring
}

/// Drain every registered ring, oldest record first, threads in
/// registration order. Rings are left intact.
pub fn drain_all() -> Vec<ThreadTrack> {
    lock(&RINGS)
        .iter()
        .map(|t| {
            let b = lock(&t.buf);
            ThreadTrack {
                thread: t.label.clone(),
                dropped: b.dropped(),
                events: b.drain_ordered(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64, note: &str) -> RingRecord {
        RingRecord {
            ts_ns: ts,
            round: 0,
            data: RingData::Note {
                note: note.to_string(),
            },
        }
    }

    #[test]
    fn ring_overwrites_oldest_and_reports_drops() {
        let mut r = RingBuf::new(3);
        assert!(r.is_empty());
        for i in 0..5u64 {
            r.push(rec(i, &format!("n{i}")));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let ts: Vec<u64> = r.drain_ordered().iter().map(|x| x.ts_ns).collect();
        assert_eq!(ts, vec![2, 3, 4]);
        // Drains are non-destructive.
        assert_eq!(r.drain_ordered().len(), 3);
    }

    #[test]
    fn zero_capacity_ring_records_nothing() {
        let mut r = RingBuf::new(0);
        r.push(rec(1, "x"));
        assert!(r.is_empty());
        assert!(r.drain_ordered().is_empty());
    }

    #[test]
    fn ring_record_roundtrips_through_json() {
        let r = RingRecord {
            ts_ns: 42,
            round: 3,
            data: RingData::Fault {
                client: 2,
                kind: "crash".to_string(),
                detail: 0,
            },
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: RingRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["data"]["Fault"]["kind"].as_str(), Some("crash"));
    }
}
