//! Slow, obviously-correct `f64` reference kernels.
//!
//! Every oracle is written as the most literal transcription of the
//! mathematical definition — direct loops, no blocking, no im2col, no
//! iterative solvers — so that agreement with the production kernels is
//! evidence of correctness rather than of shared bugs. Everything
//! accumulates in `f64` regardless of the production precision.

/// Naive `[m,k] × [k,n]` matrix product, triple loop in `f64`.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f64> {
    matmul_counted(a, b, m, k, n).0
}

/// [`matmul`] plus an instrumented count of inner-loop trips (MACs).
///
/// The counted variant *is* the oracle — [`matmul`] delegates here — so
/// the trip count can never drift from the reference arithmetic. Each
/// trip is one multiply-accumulate; the FLOP model
/// `fedknow_math::flops::matmul` claims `2·m·k·n` FLOPs, i.e. exactly
/// two per trip, and the cross-check tests assert that equality.
pub fn matmul_counted(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> (Vec<f64>, u64) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    let mut out = vec![0.0f64; m * n];
    let mut macs = 0u64;
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for p in 0..k {
                macs += 1;
                acc += a[i * k + p] as f64 * b[p * n + j] as f64;
            }
            out[i * n + j] = acc;
        }
    }
    (out, macs)
}

/// Shape of one conv2d problem (mirrors `fedknow_nn::Conv2d`: square
/// kernel, grouped, weight laid out `[out_c, (in_c/groups)·k·k]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Batch size.
    pub batch: usize,
    /// Input channels (divisible by `groups`).
    pub in_c: usize,
    /// Output channels (divisible by `groups`).
    pub out_c: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding in both dimensions.
    pub padding: usize,
    /// Channel groups.
    pub groups: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
}

impl ConvSpec {
    /// Output spatial size `(out_h, out_w)`.
    pub fn out_hw(&self) -> (usize, usize) {
        let oh = (self.h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (self.w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// Input channels per group.
    pub fn cg(&self) -> usize {
        self.in_c / self.groups
    }

    /// Output channels per group.
    pub fn ocg(&self) -> usize {
        self.out_c / self.groups
    }

    /// Flat input length `[batch, in_c, h, w]`.
    pub fn input_len(&self) -> usize {
        self.batch * self.in_c * self.h * self.w
    }

    /// Flat weight length `[out_c, cg·k·k]`.
    pub fn weight_len(&self) -> usize {
        self.out_c * self.cg() * self.kernel * self.kernel
    }

    /// Flat output length `[batch, out_c, out_h, out_w]`.
    pub fn output_len(&self) -> usize {
        let (oh, ow) = self.out_hw();
        self.batch * self.out_c * oh * ow
    }
}

/// Instrumented loop-trip counts from a counted conv2d oracle run.
///
/// `taps` counts every `(output element, kernel tap)` pair the oracle
/// loops visit — *including* taps the bounds check skips because they
/// fall in the zero padding. That matches the FLOP-model convention in
/// `fedknow_math::flops`: the production im2col+GEMM path really
/// multiplies those zeros, so the model charges them, and the counted
/// oracle must count the same universe for the cross-check to mean
/// anything. `outputs` counts output elements (one bias add forward, one
/// `gb` add backward).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConvTrips {
    /// `(output, tap)` loop entries, padding taps included.
    pub taps: u64,
    /// Output elements touched (bias / `gb` adds).
    pub outputs: u64,
}

/// Direct-loop conv2d forward: for every output element, walk the
/// receptive field and accumulate `w·x` in `f64`, then add the bias.
pub fn conv2d_forward(spec: &ConvSpec, input: &[f32], weight: &[f32], bias: &[f32]) -> Vec<f64> {
    conv2d_forward_counted(spec, input, weight, bias).0
}

/// [`conv2d_forward`] plus instrumented [`ConvTrips`]. The plain oracle
/// delegates here, so the counts are of the reference loops themselves.
pub fn conv2d_forward_counted(
    spec: &ConvSpec,
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
) -> (Vec<f64>, ConvTrips) {
    assert_eq!(input.len(), spec.input_len(), "input length");
    assert_eq!(weight.len(), spec.weight_len(), "weight length");
    assert_eq!(bias.len(), spec.out_c, "bias length");
    let (oh, ow) = spec.out_hw();
    let (cg, k) = (spec.cg(), spec.kernel);
    let mut out = vec![0.0f64; spec.output_len()];
    let mut trips = ConvTrips::default();
    for b in 0..spec.batch {
        for oc in 0..spec.out_c {
            let g = oc / spec.ocg();
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[oc] as f64;
                    trips.outputs += 1;
                    for c in 0..cg {
                        let ic = g * cg + c;
                        for ky in 0..k {
                            for kx in 0..k {
                                // Count before the padding skip: the tap
                                // is charged whether or not it lands in
                                // bounds (see [`ConvTrips`]).
                                trips.taps += 1;
                                let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                if iy < 0
                                    || ix < 0
                                    || iy >= spec.h as isize
                                    || ix >= spec.w as isize
                                {
                                    continue;
                                }
                                let xi = ((b * spec.in_c + ic) * spec.h + iy as usize) * spec.w
                                    + ix as usize;
                                let wi = (oc * cg + c) * k * k + ky * k + kx;
                                acc += weight[wi] as f64 * input[xi] as f64;
                            }
                        }
                    }
                    out[((b * spec.out_c + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    (out, trips)
}

/// Gradients from the direct-loop conv2d backward pass.
#[derive(Debug, Clone)]
pub struct ConvGrads {
    /// Gradient w.r.t. the input, `[batch, in_c, h, w]`.
    pub gx: Vec<f64>,
    /// Gradient w.r.t. the weight, `[out_c, cg·k·k]`.
    pub gw: Vec<f64>,
    /// Gradient w.r.t. the bias, `[out_c]`.
    pub gb: Vec<f64>,
}

/// Direct-loop conv2d backward: re-walk every (output, tap) pair and
/// scatter the product rule into `gx`/`gw`/`gb`.
pub fn conv2d_backward(spec: &ConvSpec, input: &[f32], weight: &[f32], gy: &[f32]) -> ConvGrads {
    conv2d_backward_counted(spec, input, weight, gy).0
}

/// [`conv2d_backward`] plus instrumented [`ConvTrips`]. Each tap trip
/// covers one MAC into `gw` and one into `gx` (4 FLOPs under the
/// MAC = 2 convention), each output trip one `gb` add — the shape of
/// `fedknow_math::flops::conv2d_bwd`'s `out·(4·taps + 1)`.
pub fn conv2d_backward_counted(
    spec: &ConvSpec,
    input: &[f32],
    weight: &[f32],
    gy: &[f32],
) -> (ConvGrads, ConvTrips) {
    assert_eq!(input.len(), spec.input_len(), "input length");
    assert_eq!(weight.len(), spec.weight_len(), "weight length");
    assert_eq!(gy.len(), spec.output_len(), "output-gradient length");
    let (oh, ow) = spec.out_hw();
    let (cg, k) = (spec.cg(), spec.kernel);
    let mut gx = vec![0.0f64; spec.input_len()];
    let mut gw = vec![0.0f64; spec.weight_len()];
    let mut gb = vec![0.0f64; spec.out_c];
    let mut trips = ConvTrips::default();
    for b in 0..spec.batch {
        for oc in 0..spec.out_c {
            let g = oc / spec.ocg();
            for oy in 0..oh {
                for ox in 0..ow {
                    let gy_v = gy[((b * spec.out_c + oc) * oh + oy) * ow + ox] as f64;
                    gb[oc] += gy_v;
                    trips.outputs += 1;
                    for c in 0..cg {
                        let ic = g * cg + c;
                        for ky in 0..k {
                            for kx in 0..k {
                                // Charged before the padding skip, same
                                // convention as the forward oracle.
                                trips.taps += 1;
                                let iy = (oy * spec.stride + ky) as isize - spec.padding as isize;
                                let ix = (ox * spec.stride + kx) as isize - spec.padding as isize;
                                if iy < 0
                                    || ix < 0
                                    || iy >= spec.h as isize
                                    || ix >= spec.w as isize
                                {
                                    continue;
                                }
                                let xi = ((b * spec.in_c + ic) * spec.h + iy as usize) * spec.w
                                    + ix as usize;
                                let wi = (oc * cg + c) * k * k + ky * k + kx;
                                gw[wi] += gy_v * input[xi] as f64;
                                gx[xi] += gy_v * weight[wi] as f64;
                            }
                        }
                    }
                }
            }
        }
    }
    (ConvGrads { gx, gw, gb }, trips)
}

/// Explicit-CDF 1-D Wasserstein distance between two equal-size
/// empirical distributions: integrate `|F_a − F_b|` over the merged
/// support. Mathematically equal to the sorted-sample mean absolute
/// difference the production kernel uses, but computed the other way.
pub fn wasserstein_1d(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "equal sample counts");
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    let mut sa: Vec<f64> = a.iter().map(|&v| v as f64).collect();
    let mut sb: Vec<f64> = b.iter().map(|&v| v as f64).collect();
    sa.sort_unstable_by(f64::total_cmp);
    sb.sort_unstable_by(f64::total_cmp);
    // Walk the merged breakpoints; between consecutive values the two
    // step-CDFs are constant at i/n and j/n.
    let (mut i, mut j) = (0usize, 0usize);
    let mut prev = sa[0].min(sb[0]);
    let mut area = 0.0f64;
    while i < n || j < n {
        let next = match (sa.get(i), sb.get(j)) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => break,
        };
        let (fa, fb) = (i as f64 / n as f64, j as f64 / n as f64);
        area += (fa - fb).abs() * (next - prev);
        while i < n && sa[i] <= next {
            i += 1;
        }
        while j < n && sb[j] <= next {
            j += 1;
        }
        prev = next;
    }
    area
}

/// Weighted-mean FedAvg over the live uploads. Uploads of `None` and
/// zero-weight clients are excluded; the caller is responsible for
/// feeding well-formed (equal-length, finite) uploads — validation
/// semantics are the production aggregator's job, not the average's.
pub fn fedavg(uploads: &[Option<Vec<f32>>], weights: &[usize]) -> Option<Vec<f64>> {
    assert_eq!(uploads.len(), weights.len(), "uploads/weights length");
    let mut acc: Option<Vec<f64>> = None;
    let mut total = 0.0f64;
    for (u, &w) in uploads.iter().zip(weights) {
        let Some(u) = u else { continue };
        if w == 0 {
            continue;
        }
        let acc = acc.get_or_insert_with(|| vec![0.0f64; u.len()]);
        assert_eq!(u.len(), acc.len(), "oracle expects uniform dimensions");
        for (a, &v) in acc.iter_mut().zip(u) {
            *a += w as f64 * v as f64;
        }
        total += w as f64;
    }
    acc.map(|a| a.into_iter().map(|v| v / total).collect())
}

/// Exhaustive-enumeration cap for [`integrate`]: beyond this many
/// constraints, fall back to KKT certification of the production result
/// (see [`crate::check::kkt_residual`]).
pub const QP_EXHAUSTIVE_CAP: usize = 12;

/// Solve `A x = rhs` (dense, square) by Gaussian elimination with
/// partial pivoting. `None` when (numerically) singular.
fn solve_dense(mut a: Vec<Vec<f64>>, mut rhs: Vec<f64>) -> Option<Vec<f64>> {
    let n = rhs.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&r, &s| a[r][col].abs().total_cmp(&a[s][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        rhs.swap(col, pivot);
        let pivot_row = a[col].clone();
        for row in (col + 1)..n {
            let f = a[row][col] / pivot_row[col];
            for (dst, &src) in a[row][col..].iter_mut().zip(&pivot_row[col..]) {
                *dst -= f * src;
            }
            rhs[row] -= f * rhs[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut v = rhs[row];
        for c in (row + 1)..n {
            v -= a[row][c] * x[c];
        }
        x[row] = v / a[row][row];
    }
    Some(x)
}

/// Exhaustive active-set solve of the GEM dual QP (paper Eq. 4):
/// `min ½vᵀ(GGᵀ)v + (Gg − m)ᵀv, v ≥ 0`, returning the *rotated
/// gradient* `g' = g + Gᵀv` (paper Eq. 5) in `f64`. The dual is
/// [`dual`]'s on the Gram matrix and `Gg − m` (all in `f64`).
pub fn integrate(g: &[f32], constraints: &[Vec<f32>], margin: f64) -> Option<Vec<f64>> {
    let k = constraints.len();
    let gf: Vec<f64> = g.iter().map(|&v| v as f64).collect();
    if k == 0 {
        return Some(gf);
    }
    if k > QP_EXHAUSTIVE_CAP {
        return None;
    }
    let dot =
        |a: &[f32], b: &[f32]| -> f64 { a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum() };
    let q: Vec<f64> = constraints
        .iter()
        .map(|c| dot(c, g) - margin * dot(c, c).sqrt())
        .collect();
    if q.iter().all(|&v| v >= 0.0) {
        return Some(gf); // already feasible, v = 0
    }
    let gram: Vec<f64> = constraints
        .iter()
        .flat_map(|a| constraints.iter().map(|b| dot(a, b)))
        .collect();
    let v = dual(&gram, &q)?;
    let mut out = gf;
    for (c, &vi) in constraints.iter().zip(&v) {
        if vi != 0.0 {
            for (o, &ci) in out.iter_mut().zip(c) {
                *o += vi * ci as f64;
            }
        }
    }
    Some(out)
}

/// Exhaustive active-set solve of `min ½vᵀQv + qᵀv, v ≥ 0` for a `k×k`
/// Gram matrix `Q` (row-major) and the dual's linear term `q`.
///
/// Every support set `S ⊆ {1..k}` is tried: solve the equality system
/// `Q_SS v_S = −q_S`, then check dual feasibility (`v_S ≥ 0`) and
/// stationarity off the support (`(Qv + q)_i ≥ 0`), each within a
/// tolerance. Of the supports that pass, the one with the lowest dual
/// objective is returned (the first on a tie): near-parallel rows can
/// let a support pass within the tolerance that is not the optimum.
/// The primal optimum is unique (strictly convex projection), so that
/// dual determines `g'`. Feasible for `k ≤` [`QP_EXHAUSTIVE_CAP`];
/// `None` above the cap or if no support passes.
pub fn dual(gram: &[f64], q: &[f64]) -> Option<Vec<f64>> {
    let k = q.len();
    assert_eq!(gram.len(), k * k, "the Gram matrix is k×k");
    if k > QP_EXHAUSTIVE_CAP {
        return None;
    }
    let trace: f64 = (0..k).map(|i| gram[i * k + i]).sum();
    let eps = 1e-8 * (1.0 + trace);
    let objective = |v: &[f64]| -> f64 {
        (0..k)
            .map(|i| v[i] * (q[i] + 0.5 * (0..k).map(|j| gram[i * k + j] * v[j]).sum::<f64>()))
            .sum()
    };
    let mut best: Option<(f64, Vec<f64>)> = None;
    for support in 0u32..(1u32 << k) {
        let s: Vec<usize> = (0..k).filter(|&i| support & (1 << i) != 0).collect();
        let mut v = vec![0.0f64; k];
        if !s.is_empty() {
            let sub: Vec<Vec<f64>> = s
                .iter()
                .map(|&r| s.iter().map(|&c| gram[r * k + c]).collect())
                .collect();
            let rhs: Vec<f64> = s.iter().map(|&r| -q[r]).collect();
            let Some(vs) = solve_dense(sub, rhs) else {
                continue;
            };
            if vs.iter().any(|&x| x < -eps) {
                continue; // dual infeasible
            }
            for (&idx, &val) in s.iter().zip(&vs) {
                v[idx] = val.max(0.0);
            }
        }
        // Stationarity off the support: (Qv + q)_i ≥ 0.
        let feasible = (0..k).all(|i| {
            let grad_i: f64 = (0..k).map(|j| gram[i * k + j] * v[j]).sum::<f64>() + q[i];
            if v[i] > 0.0 {
                grad_i.abs() <= eps.max(1e-7 * (1.0 + grad_i.abs()))
            } else {
                grad_i >= -eps
            }
        });
        if !feasible {
            continue;
        }
        let f = objective(&v);
        if best.as_ref().is_none_or(|(b, _)| f < *b) {
            best = Some((f, v));
        }
    }
    best.map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = vec![1.0f32, 2.0, 3.0, 4.0];
        let eye = vec![1.0f32, 0.0, 0.0, 1.0];
        assert_eq!(matmul(&a, &eye, 2, 2, 2), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn conv_forward_hand_example() {
        // 1×1×2×2 input, single 2×2 kernel, no padding: one output =
        // Σ w·x + bias.
        let spec = ConvSpec {
            batch: 1,
            in_c: 1,
            out_c: 1,
            kernel: 2,
            stride: 1,
            padding: 0,
            groups: 1,
            h: 2,
            w: 2,
        };
        let y = conv2d_forward(&spec, &[1.0, 2.0, 3.0, 4.0], &[1.0, 1.0, 1.0, 1.0], &[0.5]);
        assert_eq!(y, vec![10.5]);
    }

    #[test]
    fn conv_backward_hand_example() {
        let spec = ConvSpec {
            batch: 1,
            in_c: 1,
            out_c: 1,
            kernel: 1,
            stride: 1,
            padding: 0,
            groups: 1,
            h: 2,
            w: 2,
        };
        let g = conv2d_backward(&spec, &[1.0, 2.0, 3.0, 4.0], &[2.0], &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(g.gb, vec![4.0]);
        assert_eq!(g.gw, vec![10.0]);
        assert_eq!(g.gx, vec![2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn wasserstein_cdf_matches_sorted_mean() {
        let a = vec![0.0f32, 1.0, 2.0];
        let b = vec![1.0f32, 2.0, 3.0];
        assert!((wasserstein_1d(&a, &b) - 1.0).abs() < 1e-12);
        let perm = vec![2.0f32, 0.0, 1.0];
        assert!(wasserstein_1d(&a, &perm).abs() < 1e-12);
    }

    #[test]
    fn fedavg_weighted_mean() {
        let uploads = vec![Some(vec![0.0f32]), None, Some(vec![4.0f32])];
        let g = fedavg(&uploads, &[1, 100, 3]).unwrap();
        assert!((g[0] - 3.0).abs() < 1e-12);
        assert!(fedavg(&[None], &[1]).is_none());
    }

    #[test]
    fn qp_feasible_gradient_is_untouched() {
        let g = vec![1.0f32, 0.0];
        let c = vec![vec![1.0f32, 0.0]];
        assert_eq!(integrate(&g, &c, 0.0).unwrap(), vec![1.0, 0.0]);
    }

    #[test]
    fn qp_single_conflict_projects_onto_halfspace() {
        // g = [-1, 1], c = [1, 0]: projection onto ⟨c, g'⟩ ≥ 0 zeroes
        // the first coordinate.
        let g = vec![-1.0f32, 1.0];
        let c = vec![vec![1.0f32, 0.0]];
        let out = integrate(&g, &c, 0.0).unwrap();
        assert!(
            out[0].abs() < 1e-9 && (out[1] - 1.0).abs() < 1e-9,
            "{out:?}"
        );
    }

    #[test]
    fn qp_two_conflicts() {
        // Both axes conflict: g = [-1, -1], constraints e1 and e2 →
        // projection is the origin.
        let g = vec![-1.0f32, -1.0];
        let c = vec![vec![1.0f32, 0.0], vec![0.0f32, 1.0]];
        let out = integrate(&g, &c, 0.0).unwrap();
        assert!(out.iter().all(|v| v.abs() < 1e-9), "{out:?}");
    }

    #[test]
    fn qp_above_cap_returns_none() {
        let g = vec![1.0f32; 4];
        let c = vec![vec![1.0f32; 4]; QP_EXHAUSTIVE_CAP + 1];
        assert!(integrate(&g, &c, 0.0).is_none());
    }
}
