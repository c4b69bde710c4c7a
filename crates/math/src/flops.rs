//! FLOP and byte cost models for the workspace's numerical kernels.
//!
//! One place defines what "the work" of each kernel is; the instrument
//! sites (`tensor::matmul*`, `qp`, `distance`, `fedknow-nn::conv`,
//! `fedknow-fl::server`), the `kernel_bench` microbenchmark and the
//! verify-oracle cross-check tests all quote these functions, so a
//! formula can never drift from what is counted.
//!
//! Conventions:
//!
//! * **FLOPs are exact operation counts** under the multiply-accumulate
//!   = 2 FLOPs convention used by [`fedknow_nn`'s `Layer::flops`]. For
//!   convolution the count includes taps that fall in the zero padding,
//!   as the verify oracles count loop-trip entries, so it is nominal
//!   where the kernel skips taps that read only padding.
//! * **Bytes are compulsory operand traffic**: each logical operand
//!   read or written once at `f32` width (4 bytes), plus explicitly
//!   materialised intermediates (the im2col column buffer) counted once
//!   per write and once per read. Cache reuse is deliberately ignored,
//!   so `flops/bytes` is the *arithmetic intensity* an infinite cache
//!   would see.
//! * Comparison-dominated kernels (sorting inside the Wasserstein
//!   distance) count one "FLOP" per comparison; that makes the number a
//!   work estimate rather than a float-op count, and is called out on
//!   the function.

/// A kernel invocation's modelled cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// Floating-point operations (MAC = 2).
    pub flops: u64,
    /// Bytes moved (compulsory operand traffic).
    pub bytes: u64,
}

impl Cost {
    /// Arithmetic intensity in FLOPs per byte (`None` for zero bytes).
    pub fn intensity(&self) -> Option<f64> {
        (self.bytes > 0).then(|| self.flops as f64 / self.bytes as f64)
    }

    /// Component-wise sum.
    pub fn plus(self, other: Cost) -> Cost {
        Cost {
            flops: self.flops + other.flops,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// Dense GEMM `[m,k] × [k,n] → [m,n]`: one MAC per `(i,p,j)` triple.
/// Applies equally to the `tn`/`nt` variants (they reorder the loops,
/// not the arithmetic).
pub fn matmul(m: usize, k: usize, n: usize) -> Cost {
    let (m, k, n) = (m as u64, k as u64, n as u64);
    Cost {
        flops: 2 * m * k * n,
        bytes: 4 * (m * k + k * n + m * n),
    }
}

/// Shape of one conv2d invocation, mirroring `fedknow-nn`'s layer
/// fields and `fedknow-verify`'s `ConvSpec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dShape {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride (both axes).
    pub stride: usize,
    /// Zero padding (both axes).
    pub padding: usize,
    /// Channel groups.
    pub groups: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
}

impl Conv2dShape {
    /// Output spatial size `(oh, ow)`.
    pub fn out_hw(&self) -> (usize, usize) {
        let oh = (self.h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (self.w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// Input channels per group.
    pub fn cg(&self) -> usize {
        self.in_c / self.groups
    }

    /// Elements in the input tensor.
    pub fn input_len(&self) -> usize {
        self.batch * self.in_c * self.h * self.w
    }

    /// Elements in the weight tensor.
    pub fn weight_len(&self) -> usize {
        self.out_c * self.cg() * self.kernel * self.kernel
    }

    /// Elements in the output tensor.
    pub fn output_len(&self) -> usize {
        let (oh, ow) = self.out_hw();
        self.batch * self.out_c * oh * ow
    }

    /// Elements in the materialised im2col column buffer (whole batch).
    fn col_len(&self) -> usize {
        let (oh, ow) = self.out_hw();
        self.batch * self.groups * self.cg() * self.kernel * self.kernel * oh * ow
    }

    /// Kernel taps per output element (`cg·k²`), the inner GEMM depth.
    pub fn taps(&self) -> u64 {
        (self.cg() * self.kernel * self.kernel) as u64
    }
}

/// Conv2d forward: one MAC per tap per output element plus one bias add
/// per output element — `b·OC·oh·ow·(2·cg·k² + 1)`, identical to
/// `fedknow-nn`'s `Layer::flops` for conv and to the forward oracle's
/// loop-trip count. Nominal where taps read only padding: the production
/// conv skips those, and this model still charges them.
pub fn conv2d_fwd(s: &Conv2dShape) -> Cost {
    let out = s.output_len() as u64;
    Cost {
        flops: out * (2 * s.taps() + 1),
        bytes: 4
            * (s.input_len() as u64
            + s.weight_len() as u64
            + s.out_c as u64            // bias
            + out
            + 2 * s.col_len() as u64), // im2col written then read by GEMM
    }
}

/// Conv2d backward (inputs + weights + bias): per output element, each
/// tap takes one MAC into `gW` and one MAC into `gx`, plus one add into
/// `gb` — `b·OC·oh·ow·(4·cg·k² + 1)`, matching the backward oracle's
/// loop-trip count.
pub fn conv2d_bwd(s: &Conv2dShape) -> Cost {
    let out = s.output_len() as u64;
    Cost {
        flops: out * (4 * s.taps() + 1),
        // gy read twice (gW and gx GEMMs), col read, weights read, the
        // gx column buffer written then scattered by col2im, plus the
        // three gradient outputs.
        bytes: 4
            * (2 * out
                + 3 * s.col_len() as u64
                + 2 * s.weight_len() as u64
                + s.input_len() as u64
                + s.out_c as u64),
    }
}

/// Feasibility screen of the gradient integrator: `Gg` (k dots of
/// length n), plus the k constraint norms when `norms` (a non-zero
/// margin scales them) — always paid, fast path or not.
pub fn qp_screen(k: usize, n: usize, norms: bool) -> Cost {
    let (k, n, norms) = (k as u64, n as u64, u64::from(norms));
    Cost {
        flops: 2 * k * n + norms * k * (2 * n + 1),
        bytes: 4 * (k * n + n) + norms * 4 * (k * n + k),
    }
}

/// Dual QP solve past the screen: the k×k Gram matrix (`k(k+1)/2` dots
/// of length n) plus, per active-set pivot, a Cholesky solve of a
/// passive block of at most k (`k³/3 + 2k²`) and the dual gradient
/// `Qv + q` (`2k²`). The primal recovery is [`qp_recover`].
pub fn qp_solve(k: usize, n: usize, pivots: usize) -> Cost {
    let (k, n, pivots) = (k as u64, n as u64, pivots as u64);
    Cost {
        flops: n * k * (k + 1) + pivots * (k * k * k / 3 + 4 * k * k),
        bytes: 4 * (k * n)            // constraint rows re-read for the Gram
            + 8 * (k * k)             // Gram store (f64)
            + pivots * 8 * (2 * k * k + 3 * k), // block + gradient reads, v/z/grad traffic
    }
}

/// Primal recovery `g ← g + Gᵀv` over the `m` constraints whose dual is
/// non-zero (`2·m·n`; a zero dual adds nothing): their rows read, `g`
/// read and written. Nothing at all when `m = 0`.
pub fn qp_recover(m: usize, n: usize) -> Cost {
    if m == 0 {
        return Cost::default();
    }
    let (m, n) = (m as u64, n as u64);
    Cost {
        flops: 2 * m * n,
        bytes: 4 * (m * n + 2 * n),
    }
}

/// 1-D Wasserstein over two length-n samples: each sample's
/// [`wasserstein_sort`], then the paired [`wasserstein_sweep`].
pub fn wasserstein(n: usize) -> Cost {
    let (sort, sweep) = (wasserstein_sort(n), wasserstein_sweep(n));
    Cost {
        flops: 2 * sort.flops + sweep.flops,
        bytes: 2 * sort.bytes + sweep.bytes,
    }
}

/// One length-n sample made ready for the Wasserstein sweep: finite
/// screen (n), a copy, and a sort modelled at `n·(⌊log₂n⌋+1)`
/// comparisons (counted as 1 "FLOP" per comparison — a work model, not
/// a float-op count). Bytes: read the input, write the copy.
pub fn wasserstein_sort(n: usize) -> Cost {
    let n64 = n as u64;
    let log2n = usize::BITS as u64 - (n.max(1) as u64).leading_zeros() as u64;
    Cost {
        flops: n64 + n64 * log2n,
        bytes: 4 * 2 * n64,
    }
}

/// The paired |x−y| sweep over two sorted length-n samples (3n + 1).
/// Bytes: read both sorted samples.
pub fn wasserstein_sweep(n: usize) -> Cost {
    let n64 = n as u64;
    Cost {
        flops: 3 * n64 + 1,
        bytes: 4 * 2 * n64,
    }
}

/// Weighted FedAvg over `clients` uploads of dimension `dim`: one MAC
/// per element per upload plus the final `1/Σw` scale.
pub fn fedavg(clients: usize, dim: usize) -> Cost {
    let (c, d) = (clients as u64, dim as u64);
    Cost {
        flops: 2 * c * d + d,
        bytes: 4 * (c * d + 2 * d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_cost_counts_macs() {
        let c = matmul(2, 3, 4);
        assert_eq!(c.flops, 2 * 2 * 3 * 4);
        assert_eq!(c.bytes, 4 * (6 + 12 + 8));
        let i = c.intensity().unwrap();
        assert!((i - 48.0 / 104.0).abs() < 1e-12);
    }

    #[test]
    fn conv_shape_geometry() {
        // 3→8 channels, 3×3 kernel, stride 2, pad 1 on 7×5 input.
        let s = Conv2dShape {
            batch: 2,
            in_c: 3,
            out_c: 8,
            kernel: 3,
            stride: 2,
            padding: 1,
            groups: 1,
            h: 7,
            w: 5,
        };
        assert_eq!(s.out_hw(), (4, 3));
        assert_eq!(s.taps(), 27);
        assert_eq!(s.output_len(), 2 * 8 * 12);
        let fwd = conv2d_fwd(&s);
        assert_eq!(fwd.flops, (2 * 8 * 12) as u64 * (2 * 27 + 1));
        let bwd = conv2d_bwd(&s);
        assert_eq!(bwd.flops, (2 * 8 * 12) as u64 * (4 * 27 + 1));
        assert!(bwd.bytes > fwd.bytes);
    }

    #[test]
    fn conv_fwd_matches_layer_flops_convention() {
        // Same formula as fedknow-nn's Layer::flops for conv:
        // b·OC·oh·ow·(2·cg·k² + 1).
        let s = Conv2dShape {
            batch: 1,
            in_c: 4,
            out_c: 6,
            kernel: 5,
            stride: 1,
            padding: 2,
            groups: 2,
            h: 8,
            w: 8,
        };
        let per_out = 2 * (4 / 2) * 25 + 1;
        assert_eq!(conv2d_fwd(&s).flops, (6 * 8 * 8) as u64 * per_out as u64);
    }

    #[test]
    fn qp_and_fedavg_and_wasserstein_scale_as_expected() {
        assert_eq!(qp_screen(0, 10, true).flops, 0);
        assert_eq!(qp_screen(3, 100, false).flops, 2 * 3 * 100);
        assert_eq!(qp_recover(0, 100), Cost::default());
        assert_eq!(qp_recover(2, 100).flops, 2 * 2 * 100);
        let one_pivot = qp_solve(3, 100, 1).flops;
        let two_pivots = qp_solve(3, 100, 2).flops;
        assert_eq!(two_pivots - one_pivot, 27 / 3 + 4 * 9);
        assert_eq!(fedavg(4, 10).flops, 2 * 4 * 10 + 10);
        // n = 8: log2 = 4 (⌈log₂8⌉ via bit width of 8 = 1000b).
        let w = wasserstein(8);
        assert_eq!(w.flops, 16 + 2 * 8 * 4 + 24 + 1);
        assert!(wasserstein(0).bytes == 0);
    }
}
