//! Numerical primitives for the FedKNOW reproduction.
//!
//! This crate is the lowest layer of the workspace: a small, dependency-light
//! tensor library plus the specialised numerics that the FedKNOW algorithm
//! needs —
//!
//! * [`tensor::Tensor`] — a dense row-major `f32` tensor with the handful of
//!   operations a manual-backprop neural network requires (GEMM, im2col,
//!   reductions, broadcasting over the leading batch axis),
//! * [`sparse::SparseVec`] — index/value pairs used to store *signature task
//!   knowledge* (the top-ρ fraction of model weights by magnitude),
//! * [`qp`] — a non-negative quadratic-program solver for the GEM-style dual
//!   (paper Eq. 4) used by the gradient integrator,
//! * [`distance`] — gradient-distance metrics (1-D Wasserstein, cosine,
//!   Euclidean) used to pick the *most dissimilar* signature tasks,
//! * [`rng`] — seeded sampling helpers (normal/uniform) so every experiment
//!   is reproducible without pulling in `rand_distr`,
//! * [`gemm`] — the cache-blocked, register-tiled GEMM (packed A/B panels,
//!   AVX-512/AVX2 microkernels with a portable fallback) that every matmul
//!   and conv lowers onto,
//! * [`direct`] — direct 3×3 convolution kernels for narrow layers on
//!   small square maps (AVX-512 tile only), bit-identical to the GEMM
//!   lowering they stand in for,
//! * [`parallel`] — the kernel thread count, which is 1: kernels run on
//!   the calling thread,
//! * [`pool`] — a thread-local buffer recycler that keeps the steady-state
//!   training loop allocation-free.
//!
//! Everything here is deterministic given a seed and panics only on
//! programmer error (shape mismatches); recoverable conditions return
//! [`MathError`].

pub mod direct;
pub mod distance;
pub mod flops;
pub mod gemm;
pub mod parallel;
pub mod pool;
pub mod qp;
pub mod rng;
pub mod sparse;
pub mod stats;
pub mod tensor;

pub use sparse::SparseVec;
pub use tensor::Tensor;

/// Errors surfaced by numerical routines that can fail on valid inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum MathError {
    /// The dual QP solve took more pivots than its bound, or its dual
    /// failed the KKT check. An exact solve of a finite problem never
    /// does; contains the residual that was reached.
    QpNotConverged {
        /// KKT residual at the final iterate.
        residual: f64,
    },
    /// A QP input held a NaN or an infinity.
    NonFinite {
        /// Which input: `"screen"` (`Gg` and the norms) or `"gram"`.
        input: &'static str,
    },
    /// An input had a dimension that does not match its partner.
    DimensionMismatch {
        /// Expected length.
        expected: usize,
        /// Observed length.
        got: usize,
    },
    /// An input that must be non-empty was empty.
    EmptyInput,
}

impl std::fmt::Display for MathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MathError::QpNotConverged { residual } => {
                write!(f, "QP solver did not converge (residual {residual:.3e})")
            }
            MathError::NonFinite { input } => write!(f, "non-finite QP {input}"),
            MathError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            MathError::EmptyInput => write!(f, "input must be non-empty"),
        }
    }
}

impl std::error::Error for MathError {}
