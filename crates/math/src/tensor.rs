//! A dense, row-major `f32` tensor.
//!
//! The tensor is intentionally minimal: the neural-network substrate in
//! `fedknow-nn` performs manual layer-wise backpropagation, so only the
//! operations that appear in those forward/backward passes are provided.
//! All shape violations are programmer errors and panic with a descriptive
//! message; this mirrors the convention of mainstream array libraries.
//!
//! The GEMM entry points ([`Tensor::matmul`], [`Tensor::matmul_tn`],
//! [`Tensor::matmul_nt`]) account their work to the `flops.matmul*` /
//! `bytes.matmul*` perf counters (see [`crate::flops`]); higher-level
//! kernels that do their own accounting (conv2d's fused im2col+GEMM) call
//! the uncounted `*_raw` variants instead, so the counter namespaces stay
//! disjoint and summable.
//!
//! All three entry points lower onto the packed, cache-blocked GEMM in
//! [`crate::gemm`]; the `_tn`/`_nt` variants feed transposed pack sources
//! to the same kernel, so `a.matmul_tn(b)` is **bit-identical** to
//! `a.transpose2().matmul(b)` — the packed panels are the same bytes.
//!
//! Buffers are recycled through [`crate::pool`]: every tensor returns its
//! storage to a thread-local free list on drop, and constructors draw
//! from it, keeping the steady-state training loop allocation-free. The
//! shape is stored inline (rank ≤ 4) for the same reason.

use crate::pool;
use fedknow_obs::PerfCounter;

static PERF_MATMUL: PerfCounter = PerfCounter::new("matmul");
static PERF_MATMUL_TN: PerfCounter = PerfCounter::new("matmul_tn");
static PERF_MATMUL_NT: PerfCounter = PerfCounter::new("matmul_nt");

/// Maximum tensor rank (batch × channel × height × width covers the zoo).
pub const MAX_RANK: usize = 4;

/// Inline shape: rank ≤ [`MAX_RANK`], no heap allocation.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    #[inline]
    fn from_slice(shape: &[usize]) -> Self {
        assert!(
            shape.len() <= MAX_RANK,
            "tensor rank {} exceeds MAX_RANK {MAX_RANK}",
            shape.len()
        );
        let mut dims = [0usize; MAX_RANK];
        dims[..shape.len()].copy_from_slice(shape);
        Self {
            dims,
            rank: shape.len() as u8,
        }
    }

    #[inline]
    fn as_slice(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    #[inline]
    fn count(&self) -> usize {
        self.as_slice().iter().product()
    }
}

impl std::fmt::Debug for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Dense row-major tensor of `f32` values.
///
/// Shapes are rank ≤ 4; in practice the workspace uses rank 1 (parameter
/// vectors), rank 2 (`[batch, features]`) and rank 4
/// (`[batch, channels, height, width]`).
#[derive(Debug)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = pool::take(self.data.len());
        data.copy_from_slice(&self.data);
        Self {
            data,
            shape: self.shape,
        }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        pool::give(std::mem::take(&mut self.data));
    }
}

impl Tensor {
    /// Create a tensor from raw data and a shape. Panics if the element
    /// count of `shape` does not match `data.len()`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            data.len(),
            "shape {shape:?} implies {n} elements, data has {}",
            data.len()
        );
        Self {
            data,
            shape: Shape::from_slice(shape),
        }
    }

    /// All-zero tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let s = Shape::from_slice(shape);
        Self {
            data: pool::take_zeroed(s.count()),
            shape: s,
        }
    }

    /// Tensor filled with a constant.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let s = Shape::from_slice(shape);
        Self {
            data: pool::take_filled(s.count(), value),
            shape: s,
        }
    }

    /// Shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        self.shape.as_slice()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the tensor, returning its buffer.
    pub fn into_vec(mut self) -> Vec<f32> {
        std::mem::take(&mut self.data)
    }

    /// Reinterpret the buffer under a new shape with the same element count.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(
            n,
            self.data.len(),
            "reshape to {shape:?} changes element count"
        );
        self.shape = Shape::from_slice(shape);
        self
    }

    /// Element at a rank-2 index.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.shape.rank, 2);
        self.data[i * self.shape.dims[1] + j]
    }

    /// The slices `rows` of the leading dimension, stacked in that order
    /// (repeats allowed): `[N, ...]` → `[rows.len(), ...]`.
    pub fn gather_rows(&self, rows: &[usize]) -> Tensor {
        let mut shape = self.shape().to_vec();
        let per = self.data.len() / shape[0].max(1);
        let mut data = Vec::with_capacity(rows.len() * per);
        for &r in rows {
            data.extend_from_slice(&self.data[r * per..(r + 1) * per]);
        }
        shape[0] = rows.len();
        Tensor::from_vec(data, &shape)
    }

    fn from_pooled(data: Vec<f32>, shape: &[usize]) -> Self {
        debug_assert_eq!(data.len(), shape.iter().product::<usize>());
        Self {
            data,
            shape: Shape::from_slice(shape),
        }
    }

    /// Rank-2 matrix multiply: `self [m,k] × other [k,n] → [m,n]`.
    ///
    /// Lowers onto the cache-blocked, packed-panel GEMM in
    /// [`crate::gemm`] (AVX-512/AVX2 microkernels with a portable
    /// fallback, runtime-detected).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let out = self.matmul_raw(other);
        let c = crate::flops::matmul(self.shape.dims[0], self.shape.dims[1], other.shape.dims[1]);
        PERF_MATMUL.op(c.flops, c.bytes);
        out
    }

    /// [`matmul`](Self::matmul) without perf accounting, for callers
    /// (conv2d) that attribute the work to their own kernel counters.
    pub fn matmul_raw(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank, 2, "matmul lhs must be rank-2");
        assert_eq!(other.shape.rank, 2, "matmul rhs must be rank-2");
        let (m, k) = (self.shape.dims[0], self.shape.dims[1]);
        let (k2, n) = (other.shape.dims[0], other.shape.dims[1]);
        assert_eq!(k, k2, "matmul inner dims differ: {k} vs {k2}");
        let mut out = pool::take(m * n);
        crate::gemm::gemm(
            m,
            k,
            n,
            &crate::gemm::DenseA {
                data: &self.data,
                k,
            },
            &crate::gemm::DenseB {
                data: &other.data,
                n,
            },
            &mut out,
        );
        Tensor::from_pooled(out, &[m, n])
    }

    /// `selfᵀ × other`: `self [k,m]`, `other [k,n]` → `[m,n]`, without
    /// materialising the transpose.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let out = self.matmul_tn_raw(other);
        let c = crate::flops::matmul(self.shape.dims[1], self.shape.dims[0], other.shape.dims[1]);
        PERF_MATMUL_TN.op(c.flops, c.bytes);
        out
    }

    /// [`matmul_tn`](Self::matmul_tn) without perf accounting.
    pub fn matmul_tn_raw(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank, 2);
        assert_eq!(other.shape.rank, 2);
        let (k, m) = (self.shape.dims[0], self.shape.dims[1]);
        let (k2, n) = (other.shape.dims[0], other.shape.dims[1]);
        assert_eq!(k, k2, "matmul_tn inner dims differ: {k} vs {k2}");
        let mut out = pool::take(m * n);
        crate::gemm::gemm(
            m,
            k,
            n,
            &crate::gemm::DenseATrans {
                data: &self.data,
                m,
            },
            &crate::gemm::DenseB {
                data: &other.data,
                n,
            },
            &mut out,
        );
        Tensor::from_pooled(out, &[m, n])
    }

    /// `self × otherᵀ`: `self [m,k]`, `other [n,k]` → `[m,n]`, without
    /// materialising the transpose.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let out = self.matmul_nt_raw(other);
        let c = crate::flops::matmul(self.shape.dims[0], self.shape.dims[1], other.shape.dims[0]);
        PERF_MATMUL_NT.op(c.flops, c.bytes);
        out
    }

    /// [`matmul_nt`](Self::matmul_nt) without perf accounting.
    pub fn matmul_nt_raw(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.rank, 2);
        assert_eq!(other.shape.rank, 2);
        let (m, k) = (self.shape.dims[0], self.shape.dims[1]);
        let (n, k2) = (other.shape.dims[0], other.shape.dims[1]);
        assert_eq!(k, k2, "matmul_nt inner dims differ: {k} vs {k2}");
        let mut out = pool::take(m * n);
        crate::gemm::gemm(
            m,
            k,
            n,
            &crate::gemm::DenseA {
                data: &self.data,
                k,
            },
            &crate::gemm::DenseBTrans {
                data: &other.data,
                k,
            },
            &mut out,
        );
        Tensor::from_pooled(out, &[m, n])
    }

    /// Rank-2 transpose.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.rank, 2);
        let (m, n) = (self.shape.dims[0], self.shape.dims[1]);
        let mut out = pool::take(m * n);
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::from_pooled(out, &[n, m])
    }

    /// Elementwise in-place addition. Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise in-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Elementwise in-place scaling.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Elementwise map, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = pool::take(self.data.len());
        for (o, &x) in out.iter_mut().zip(&self.data) {
            *o = f(x);
        }
        Tensor {
            data: out,
            shape: self.shape,
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Euclidean norm of the flattened tensor.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Row-wise softmax of a rank-2 tensor (numerically stable).
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.shape.rank, 2, "softmax_rows needs rank-2 input");
        let (m, n) = (self.shape.dims[0], self.shape.dims[1]);
        let mut out = pool::take(m * n);
        for i in 0..m {
            let row = &self.data[i * n..(i + 1) * n];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let o = &mut out[i * n..(i + 1) * n];
            let mut z = 0.0;
            for (dst, &x) in o.iter_mut().zip(row) {
                let e = (x - max).exp();
                *dst = e;
                z += e;
            }
            let inv = 1.0 / z;
            for dst in o.iter_mut() {
                *dst *= inv;
            }
        }
        Tensor {
            data: out,
            shape: self.shape,
        }
    }

    /// Index of the maximum element per row of a rank-2 tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.rank, 2);
        let (m, n) = (self.shape.dims[0], self.shape.dims[1]);
        (0..m)
            .map(|i| {
                let row = &self.data[i * n..(i + 1) * n];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(j, _)| j)
                    .unwrap_or(0)
            })
            .collect()
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha * x` over raw slices.
#[inline]
pub fn axpy_slice(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm_slice(a: &[f32]) -> f32 {
    a.iter().map(|x| x * x).sum::<f32>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_equals_transpose_then_matmul() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]);
        let b = Tensor::from_vec((0..8).map(|x| (x as f32) * 0.5).collect(), &[4, 2]);
        let via_t = a.transpose2().matmul(&b);
        let direct = a.matmul_tn(&b);
        assert_eq!(via_t, direct);
    }

    #[test]
    fn matmul_nt_equals_matmul_with_transpose() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let b = Tensor::from_vec((0..12).map(|x| x as f32 - 3.0).collect(), &[4, 3]);
        let via_t = a.matmul(&b.transpose2());
        let direct = a.matmul_nt(&b);
        assert_eq!(via_t, direct);
    }

    #[test]
    fn transpose_equivalences_hold_at_packed_tile_sizes() {
        // Shapes past the register tiles, so the packed panels (not a
        // small-case path) carry the equivalence.
        let (mr, nr) = crate::gemm::tile_params();
        let (k, m, n) = (3 * mr + 1, 2 * mr + 3, 2 * nr + 5);
        let a = Tensor::from_vec(
            (0..k * m).map(|x| (x as f32 * 0.37).sin()).collect(),
            &[k, m],
        );
        let b = Tensor::from_vec(
            (0..k * n).map(|x| (x as f32 * 0.11).cos()).collect(),
            &[k, n],
        );
        assert_eq!(a.transpose2().matmul(&b), a.matmul_tn(&b));
        let c = Tensor::from_vec(
            (0..n * k).map(|x| (x as f32 * 0.23).sin()).collect(),
            &[n, k],
        );
        assert_eq!(
            a.transpose2().matmul(&c.transpose2()),
            a.transpose2().matmul_nt(&c)
        );
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 100.0], &[2, 3]);
        let s = t.softmax_rows();
        for i in 0..2 {
            let row: f32 = (0..3).map(|j| s.at2(i, j)).sum();
            assert!((row - 1.0).abs() < 1e-5, "row {i} sums to {row}");
        }
        assert!(s.at2(0, 2) > s.at2(0, 1));
        assert!(s.at2(1, 2) > 0.99, "large logit should dominate");
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 5.0, -2.0, 3.0], &[2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn gather_rows_stacks_leading_slices_in_order() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 2, 2]);
        let g = t.gather_rows(&[2, 0, 2]);
        assert_eq!(g.shape(), &[3, 2, 2]);
        assert_eq!(
            g.data(),
            &[8.0, 9.0, 10.0, 11.0, 0.0, 1.0, 2.0, 3.0, 8.0, 9.0, 10.0, 11.0]
        );
        assert_eq!(t.gather_rows(&[]).shape(), &[0, 2, 2]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let r = t.clone().reshape(&[3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape(), &[3, 2]);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_rejects_bad_shape() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn from_vec_rejects_rank_over_four() {
        let _ = Tensor::from_vec(vec![1.0; 32], &[2, 2, 2, 2, 2]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::full(&[4], 1.0);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[1.5, 2.0, 2.5, 3.0]);
        a.scale(2.0);
        assert_eq!(a.data(), &[3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn recycled_buffers_do_not_leak_values() {
        // A dropped tensor's buffer may be recycled; constructors must
        // fully initialise it.
        let t = Tensor::full(&[32], 7.5);
        drop(t);
        let z = Tensor::zeros(&[32]);
        assert!(z.data().iter().all(|&v| v == 0.0));
        let m = Tensor::full(&[32], 2.0).map(|x| x + 1.0);
        assert!(m.data().iter().all(|&v| v == 3.0));
    }

    #[test]
    fn into_vec_keeps_buffer_out_of_pool() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let v = t.into_vec();
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }
}
