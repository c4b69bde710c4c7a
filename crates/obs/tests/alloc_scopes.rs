//! Allocation tracking is on exactly while a tracking scope is open,
//! on any thread. This binary holds one test, so no other test can
//! open or close a scope while it checks the "off" state.

use fedknow_obs::alloc::{self, stats, thread_totals, tracking_enabled};

/// Allocate and free a block, returning how many allocations the
/// tracker counted on this thread meanwhile.
fn counted_allocs() -> u64 {
    let (before, _) = thread_totals();
    std::hint::black_box(vec![0u8; 4096]);
    thread_totals().0 - before
}

#[test]
fn tracking_is_on_while_any_scope_is_open() {
    // No scope: nothing is counted, globally or on this thread.
    assert!(!tracking_enabled());
    let before = stats();
    assert_eq!(counted_allocs(), 0);
    assert_eq!(stats().count, before.count);

    // Nested scopes: closing the inner one leaves tracking on.
    let outer = alloc::track();
    let inner = alloc::track();
    assert_eq!(counted_allocs(), 1);
    drop(inner);
    assert!(tracking_enabled(), "the outer scope is still open");
    assert_eq!(counted_allocs(), 1);
    drop(outer);
    assert!(!tracking_enabled());
    assert_eq!(counted_allocs(), 0);

    // A scope opened on another thread tracks this one too, until that
    // thread closes it.
    let (opened_tx, opened_rx) = std::sync::mpsc::channel();
    let (close_tx, close_rx) = std::sync::mpsc::channel::<()>();
    let holder = std::thread::spawn(move || {
        let scope = alloc::track();
        opened_tx.send(()).unwrap();
        close_rx.recv().unwrap();
        drop(scope);
    });
    opened_rx.recv().unwrap();
    assert_eq!(counted_allocs(), 1);
    close_tx.send(()).unwrap();
    holder.join().unwrap();
    assert!(!tracking_enabled());
    assert_eq!(counted_allocs(), 0);
}
