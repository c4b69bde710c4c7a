//! Property-based tests for the numerical core.

use fedknow_math::distance::{
    cosine_distance, euclidean, most_dissimilar, wasserstein_1d, DistanceMetric,
};
use fedknow_math::gemm::{APanels, BPanels, DenseA, DenseATrans, DenseB, DenseBTrans};
use fedknow_math::qp::{integrate_gradient, QpConfig};
use fedknow_math::sparse::SparseVec;
use fedknow_math::tensor::Tensor;
use proptest::prelude::*;

fn vec_f32(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, len)
}

/// The packed layout both pack traits document, read off a naive indexer:
/// `dst[s·kc·r + p·r + j] = logical(x0 + s·r + j, k0 + p)` for the `xc`
/// rows (A) or columns (B) of the block, zero beyond them.
fn packed_reference(
    logical: impl Fn(usize, usize) -> f32,
    (x0, xc): (usize, usize),
    (k0, kc): (usize, usize),
    r: usize,
) -> Vec<f32> {
    let mut want = vec![0.0f32; xc.div_ceil(r) * kc * r];
    for (idx, v) in want.iter_mut().enumerate() {
        let (s, p, j) = (idx / (kc * r), (idx / r) % kc, idx % r);
        if s * r + j < xc {
            *v = logical(x0 + s * r + j, k0 + p);
        }
    }
    want
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every dense pack source fills exactly the documented strip layout —
    /// partial last strips, blocks smaller than one tile, `kc` not a
    /// multiple of 16 — for the `(mr, nr)` of all three microkernels, and
    /// writes nothing past the block.
    #[test]
    fn pack_sources_match_the_naive_indexer(
        extent in 1usize..130, depth in 1usize..80, tile in 0usize..3,
        a in 0usize..1000, b in 0usize..1000, c in 0usize..1000, d in 0usize..1000,
    ) {
        let (mr, nr) = [(8usize, 48usize), (6, 16), (4, 16)][tile];
        let x0 = a % extent;
        let xc = 1 + b % (extent - x0);
        let k0 = c % depth;
        let kc = 1 + d % (depth - k0);
        // logical(x, p): x indexes A's rows / B's columns, p the k
        // dimension; non-zero everywhere so padding is distinguishable.
        let logical = |x: usize, p: usize| (x * depth + p + 1) as f32;
        let x_major: Vec<f32> = (0..extent * depth).map(|i| logical(i / depth, i % depth)).collect();
        let k_major: Vec<f32> = (0..extent * depth).map(|i| logical(i % extent, i / extent)).collect();
        let check = |name: &str, r: usize, pack: &dyn Fn(&mut [f32])| -> Result<(), TestCaseError> {
            let want = packed_reference(logical, (x0, xc), (k0, kc), r);
            let mut got = vec![f32::NAN; want.len() + 7];
            pack(&mut got);
            let (body, tail) = got.split_at(want.len());
            prop_assert!(
                body.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()),
                "{name} r={r} x0={x0} xc={xc} k0={k0} kc={kc} extent={extent} depth={depth}"
            );
            prop_assert!(tail.iter().all(|v| v.is_nan()), "{name} wrote past its block");
            Ok(())
        };
        let (da, dat) = (DenseA { data: &x_major, k: depth }, DenseATrans { data: &k_major, m: extent });
        let (db, dbt) = (DenseB { data: &k_major, n: extent }, DenseBTrans { data: &x_major, k: depth });
        check("DenseA", mr, &|dst| da.pack(dst, x0, xc, k0, kc, mr))?;
        check("DenseATrans", mr, &|dst| dat.pack(dst, x0, xc, k0, kc, mr))?;
        check("DenseB", nr, &|dst| db.pack(dst, k0, kc, x0, xc, nr))?;
        check("DenseBTrans", nr, &|dst| dbt.pack(dst, k0, kc, x0, xc, nr))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (AB)C == A(BC) within float tolerance.
    #[test]
    fn matmul_is_associative(
        a in vec_f32(6), b in vec_f32(6), c in vec_f32(6)
    ) {
        let a = Tensor::from_vec(a, &[2, 3]);
        let b = Tensor::from_vec(b, &[3, 2]);
        let c = Tensor::from_vec(c, &[2, 3]);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-2 * (1.0 + x.abs().max(y.abs())));
        }
    }

    /// Softmax rows always sum to 1 and are non-negative.
    #[test]
    fn softmax_is_probability(xs in vec_f32(12)) {
        let t = Tensor::from_vec(xs, &[3, 4]).softmax_rows();
        for i in 0..3 {
            let s: f32 = (0..4).map(|j| t.at2(i, j)).sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            for j in 0..4 {
                prop_assert!(t.at2(i, j) >= 0.0);
            }
        }
    }

    /// Top-k extraction keeps exactly the k largest magnitudes: every kept
    /// value's magnitude is >= every dropped value's magnitude.
    #[test]
    fn top_k_magnitude_dominates_dropped(dense in vec_f32(32), k in 0usize..32) {
        let s = SparseVec::top_k_by_magnitude(&dense, k);
        prop_assert_eq!(s.nnz(), k);
        let mask = s.mask();
        let min_kept = s.values().iter().map(|v| v.abs()).fold(f32::INFINITY, f32::min);
        for (i, &v) in dense.iter().enumerate() {
            if !mask[i] {
                prop_assert!(v.abs() <= min_kept + 1e-6);
            }
        }
    }

    /// Sparse round-trip: retained positions survive, others zero.
    #[test]
    fn sparse_roundtrip(dense in vec_f32(24), k in 0usize..24) {
        let s = SparseVec::top_k_by_magnitude(&dense, k);
        let d = s.to_dense();
        let mask = s.mask();
        for i in 0..dense.len() {
            if mask[i] {
                prop_assert_eq!(d[i], dense[i]);
            } else {
                prop_assert_eq!(d[i], 0.0);
            }
        }
    }

    /// Wasserstein is a pseudo-metric on these inputs: symmetric,
    /// non-negative, zero on identical inputs.
    #[test]
    fn wasserstein_pseudo_metric(a in vec_f32(16), b in vec_f32(16)) {
        let ab = wasserstein_1d(&a, &b);
        let ba = wasserstein_1d(&b, &a);
        prop_assert!(ab >= 0.0);
        prop_assert!((ab - ba).abs() < 1e-9);
        prop_assert!(wasserstein_1d(&a, &a) < 1e-9);
    }

    /// Cosine distance stays in [0, 2].
    #[test]
    fn cosine_bounded(a in vec_f32(16), b in vec_f32(16)) {
        let d = cosine_distance(&a, &b);
        prop_assert!((-1e-6..=2.0 + 1e-6).contains(&d));
    }

    /// Translating every sample by `c` moves the empirical distribution
    /// by exactly `|c|` — the transport plan shifts all mass together.
    #[test]
    fn wasserstein_translation_is_the_shift(a in vec_f32(16), c in -5.0f32..5.0) {
        let shifted: Vec<f32> = a.iter().map(|&x| x + c).collect();
        let d = wasserstein_1d(&a, &shifted);
        prop_assert!((d - (c as f64).abs()).abs() < 1e-4, "W = {d}, |c| = {}", c.abs());
    }

    /// The zero vector is orthogonal to everything by convention
    /// (distance 1), in both argument positions.
    #[test]
    fn cosine_zero_vector_convention(a in vec_f32(16)) {
        let z = vec![0.0f32; 16];
        prop_assert_eq!(cosine_distance(&z, &a), 1.0);
        prop_assert_eq!(cosine_distance(&a, &z), 1.0);
    }

    /// A permutation moves a gradient in Euclidean space but is invisible
    /// to Wasserstein (same empirical distribution): W(a, π(a)) = 0 ≤
    /// ‖a − π(a)‖, and the Wasserstein selection rule ranks a genuinely
    /// shifted candidate above any permuted copy.
    #[test]
    fn permutation_separates_euclidean_from_wasserstein(a in vec_f32(16)) {
        let mut perm = a.clone();
        perm.reverse();
        let w = wasserstein_1d(&a, &perm);
        let e = euclidean(&a, &perm);
        prop_assert!(w < 1e-9, "permutation has W = {w}");
        prop_assert!(e >= w);
        let shifted: Vec<f32> = a.iter().map(|&x| x + 3.0).collect();
        let sel = most_dissimilar(
            DistanceMetric::Wasserstein, &a, &[perm, shifted], 1,
        );
        prop_assert_eq!(sel, vec![1]);
    }

    /// The QP integrator's output always satisfies every constraint
    /// (up to tolerance) and never errors on well-formed input.
    #[test]
    fn qp_output_satisfies_constraints(
        g in vec_f32(8),
        cons in prop::collection::vec(vec_f32(8), 1..5)
    ) {
        let r = integrate_gradient(&g, &cons, &QpConfig::default()).unwrap();
        for c in &cons {
            let d: f64 = c.iter().zip(&r.gradient)
                .map(|(&x, &y)| x as f64 * y as f64).sum();
            let cn: f64 = c.iter().map(|&x| (x as f64).powi(2)).sum::<f64>().sqrt();
            let gn: f64 = r.gradient.iter().map(|&x| (x as f64).powi(2)).sum::<f64>().sqrt();
            prop_assert!(d >= -1e-3 * (1.0 + cn * gn), "violated: {} (scale {})", d, cn * gn);
        }
        for &v in &r.dual {
            prop_assert!(v >= 0.0);
        }
    }

    /// Feasible inputs pass through the integrator unchanged.
    #[test]
    fn qp_identity_on_feasible(g in vec_f32(8)) {
        // A constraint equal to g itself is always satisfied (⟨g,g⟩ ≥ 0).
        let cons = vec![g.clone()];
        let r = integrate_gradient(&g, &cons, &QpConfig::default()).unwrap();
        prop_assert!(r.already_feasible);
        prop_assert_eq!(r.gradient, g);
    }
}
