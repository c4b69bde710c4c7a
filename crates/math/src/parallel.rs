//! Kernel thread count. Kernels run on the calling thread: each client is
//! a single-board edge device in the paper, and the federation already
//! spreads clients over the cores (DESIGN.md, "Determinism").

/// Threads a kernel uses: the calling thread alone.
pub fn threads() -> usize {
    1
}
