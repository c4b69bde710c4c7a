//! Wire-trace identity: run-wide trace ids, per-frame span ids, and
//! the ambient sender-side parent span — the glue between the frame
//! layer's [`TraceCtx`] block and the obs flight recorder's wire
//! lifecycle records.
//!
//! Every frame the transport sends carries a fresh span id (retry
//! attempts included, so a dropped attempt is distinguishable from the
//! delivery that followed it). The trace id is shared by every process
//! of one seeded run — the runtime derives it from the run seed — so a
//! multi-process trace merge can match frames across bundles. Ids are
//! salted with the OS pid in their high bits, keeping them unique
//! across the processes of a run without coordination, and masked to
//! 48 bits so they survive any JSON reader that routes numbers through
//! an f64.
//!
//! Tracing identity is deliberately decoupled from the seeded fault
//! ledger: allocating ids and recording lifecycle points never draws
//! from a run RNG, so the injected fault sequence — and with it
//! bit-identical cross-backend reports — is unchanged whether or not
//! the recorder is on.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::framing::TraceCtx;

/// Ids are masked to this many bits: large enough to never collide in
/// practice, small enough to be exact in an f64 (2^53) if a tool round
/// trips them through generic JSON.
const ID_BITS: u64 = 48;
const ID_MASK: u64 = (1 << ID_BITS) - 1;

/// Run-wide trace id; 0 until the runtime seeds it.
static TRACE_ID: AtomicU64 = AtomicU64::new(0);
/// Monotonic low bits of span ids.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The sender-side span currently ambient on this thread: frames
    /// sent while a guard is alive carry it as their parent.
    static WIRE_PARENT: Cell<u64> = const { Cell::new(0) };
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seed the run-wide trace id from the experiment seed. Every process
/// of one run derives the same id, which is how the merger matches
/// their bundles. Idempotent per process.
pub fn seed_trace_id(seed: u64) {
    TRACE_ID.store(splitmix64(seed ^ 0x7ACE_1D00) & ID_MASK, Ordering::Relaxed);
}

/// The current run's trace id (0 = never seeded).
fn trace_id() -> u64 {
    TRACE_ID.load(Ordering::Relaxed)
}

/// A fresh span id: pid-salted high bits, monotonic low bits — unique
/// across every process of a run without coordination.
pub fn next_span_id() -> u64 {
    let salt = u64::from(std::process::id() & 0xFFFF) << 32;
    (salt | (NEXT_SPAN.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF)) & ID_MASK
}

/// Make `span` the ambient wire parent on this thread until the guard
/// drops (restoring the previous parent — guards nest).
pub fn parent_scope(span: u64) -> ParentGuard {
    let prev = WIRE_PARENT.with(|p| p.replace(span));
    ParentGuard { prev }
}

/// The ambient wire parent on this thread (0 = none).
fn current_parent() -> u64 {
    WIRE_PARENT.with(Cell::get)
}

/// RAII restore for [`parent_scope`].
pub struct ParentGuard {
    prev: u64,
}

impl Drop for ParentGuard {
    fn drop(&mut self) {
        WIRE_PARENT.with(|p| p.set(self.prev));
    }
}

/// A freshly stamped context for a frame about to be sent: new span
/// id, ambient parent, ambient round, and the sender's clock.
pub fn ctx_for_send() -> TraceCtx {
    TraceCtx {
        trace: trace_id(),
        span: next_span_id(),
        parent: current_parent(),
        round: fedknow_obs::round_index(),
        send_ts_ns: fedknow_obs::now_ns(),
    }
}

/// Record a sender-side lifecycle point (`enq`, `out`, or `drop`).
pub fn record_send(phase: &str, ctx: &TraceCtx, conn: Option<u32>, msg: &str, bytes: u64) {
    fedknow_obs::wire_event(
        phase,
        conn.map_or(u64::MAX, u64::from),
        ctx.trace,
        ctx.span,
        ctx.parent,
        msg,
        bytes,
        0,
    );
}

/// Record a receiver-side lifecycle point (`in` or `handled`). The
/// context's embedded send timestamp rides along as `peer_ts_ns` so
/// the merger can estimate the clock offset between the two processes.
pub fn record_recv(phase: &str, ctx: &TraceCtx, conn: Option<u32>, msg: &str, bytes: u64) {
    fedknow_obs::wire_event(
        phase,
        conn.map_or(u64::MAX, u64::from),
        ctx.trace,
        ctx.span,
        ctx.parent,
        msg,
        bytes,
        ctx.send_ts_ns,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_unique_and_f64_exact() {
        let a = next_span_id();
        let b = next_span_id();
        assert_ne!(a, b);
        assert!(a < (1 << 53) && b < (1 << 53), "ids must survive f64");
        assert_eq!(a as f64 as u64, a);
    }

    // The only test that *writes* the process-global trace id: all
    // seeding assertions live here so parallel tests never race it.
    #[test]
    fn trace_id_is_a_pure_function_of_the_seed() {
        seed_trace_id(42);
        let first = trace_id();
        seed_trace_id(42);
        assert_eq!(trace_id(), first, "same seed, same trace id");
        assert!(first > 0 && first < (1 << 53));
        seed_trace_id(43);
        assert_ne!(trace_id(), first, "different seed, different trace id");
    }

    #[test]
    fn parent_scopes_nest_and_restore() {
        assert_eq!(current_parent(), 0);
        {
            let _outer = parent_scope(11);
            assert_eq!(current_parent(), 11);
            {
                let _inner = parent_scope(22);
                assert_eq!(current_parent(), 22);
            }
            assert_eq!(current_parent(), 11);
        }
        assert_eq!(current_parent(), 0);
    }

    #[test]
    fn ctx_for_send_stamps_ambient_state() {
        let _scope = parent_scope(99);
        let c = ctx_for_send();
        assert_eq!(c.parent, 99);
        assert_ne!(c.span, 0);
    }
}
