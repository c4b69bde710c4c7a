//! Gradient-distance metrics for signature-task selection.
//!
//! The gradient restorer (paper §III-C) picks the `k` past tasks whose
//! gradients are *most dissimilar* from the current task's gradient — the
//! paper suggests the Wasserstein distance between gradients ("e.g.
//! Wasserstein distance"), with the intuition that the largest included
//! angles mark the tasks most damaged by an unconstrained update.
//!
//! Three metrics are provided so the selection rule can be ablated:
//! 1-D [`wasserstein_1d`] over the empirical distribution of gradient
//! components (the paper's choice), [`cosine_distance`] (1 − cosine, a
//! direct angle proxy), and [`euclidean`].

use fedknow_obs::PerfCounter;

/// Work accounting for the sort-dominated Wasserstein kernel, modelled
/// by [`crate::flops::wasserstein`].
static PERF_WASSERSTEIN: PerfCounter = PerfCounter::new("wasserstein");

/// Which metric to use when ranking gradient dissimilarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum DistanceMetric {
    /// 1-D Wasserstein distance between the sorted component distributions
    /// (the paper's suggested metric).
    Wasserstein,
    /// `1 − cos θ` between the gradients; monotone in the included angle.
    Cosine,
    /// Plain Euclidean distance.
    Euclidean,
}

/// Compute the configured distance between two equal-length gradients.
///
/// Panics if the lengths differ (gradient vectors in one model always
/// agree in length; a mismatch is a programming error).
fn gradient_distance(metric: DistanceMetric, a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "gradient lengths differ");
    match metric {
        DistanceMetric::Wasserstein => wasserstein_1d(a, b),
        DistanceMetric::Cosine => cosine_distance(a, b),
        DistanceMetric::Euclidean => euclidean(a, b),
    }
}

/// 1-D Wasserstein (earth mover's) distance between the empirical
/// distributions of the two slices: mean absolute difference of the
/// sorted samples. Both slices must have equal length.
///
/// Non-finite samples have no place on the real line the transport plan
/// lives on, so any NaN or infinity makes the distance `f64::INFINITY`
/// ("maximally dissimilar") rather than silently mis-sorting — the old
/// `partial_cmp(..).unwrap_or(Equal)` comparator left NaN wherever the
/// sort happened to put it, corrupting every pairing after it.
pub fn wasserstein_1d(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "wasserstein_1d requires equal lengths");
    if a.is_empty() {
        return 0.0;
    }
    let Some(sa) = sorted_finite(a) else {
        return f64::INFINITY;
    };
    sorted_finite(b).map_or(f64::INFINITY, |sb| sorted_l1(&sa, &sb))
}

/// A copy of `v` sorted for the Wasserstein sweep, charging
/// [`crate::flops::wasserstein_sort`]; `None` (and no sort) when `v`
/// holds a NaN or infinity.
fn sorted_finite(v: &[f32]) -> Option<Vec<f32>> {
    if !v.iter().all(|x| x.is_finite()) {
        return None;
    }
    let c = crate::flops::wasserstein_sort(v.len());
    PERF_WASSERSTEIN.op(c.flops, c.bytes);
    let mut s = v.to_vec();
    s.sort_unstable_by(f32::total_cmp);
    Some(s)
}

/// Mean absolute difference of two equal-length sorted samples — the
/// 1-D Wasserstein distance once both are sorted.
fn sorted_l1(sa: &[f32], sb: &[f32]) -> f64 {
    let c = crate::flops::wasserstein_sweep(sa.len());
    PERF_WASSERSTEIN.op(c.flops, c.bytes);
    let total: f64 = sa
        .iter()
        .zip(sb)
        .map(|(&x, &y)| ((x - y).abs()) as f64)
        .sum();
    total / sa.len() as f64
}

/// `1 − cosine similarity`. Ranges over `[0, 2]`; `0` for parallel,
/// `1` for orthogonal, `2` for anti-parallel. Zero vectors are treated as
/// orthogonal to everything (distance 1).
pub fn cosine_distance(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine_distance requires equal lengths");
    let d = crate::qp::pair_dots(&[(a, b), (a, a), (b, b)]);
    let (dot, na, nb) = (d[0], d[1], d[2]);
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - dot / (na.sqrt() * nb.sqrt())
}

/// Euclidean distance.
pub fn euclidean(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "euclidean requires equal lengths");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| ((x - y) as f64).powi(2))
        .sum::<f64>()
        .sqrt()
}

/// Rank `candidates` (owned vectors or borrowed slices) by descending
/// distance from `reference` and return the indices of the `k` most
/// dissimilar ones (the paper's signature-task selection rule). Stable
/// for ties (lower index first). `k` is clamped to the candidate count.
pub fn most_dissimilar<C: AsRef<[f32]>>(
    metric: DistanceMetric,
    reference: &[f32],
    candidates: &[C],
    k: usize,
) -> Vec<usize> {
    // Under Wasserstein the reference is sorted once, not once per
    // candidate; each distance is then the same value
    // `wasserstein_1d(reference, c)` returns.
    let sorted_ref = (metric == DistanceMetric::Wasserstein && !reference.is_empty())
        .then(|| sorted_finite(reference));
    let distance = |c: &[f32]| {
        assert_eq!(reference.len(), c.len(), "gradient lengths differ");
        match &sorted_ref {
            None => gradient_distance(metric, reference, c),
            Some(None) => f64::INFINITY,
            Some(Some(sr)) => sorted_finite(c).map_or(f64::INFINITY, |sc| sorted_l1(sr, &sc)),
        }
    };
    let mut scored: Vec<(usize, f64)> = candidates
        .iter()
        .enumerate()
        // A NaN score (non-finite gradients under Cosine/Euclidean) ranks
        // as maximally dissimilar, matching `wasserstein_1d`'s convention
        // for non-finite inputs, instead of corrupting the sort order.
        .map(|(i, c)| {
            let d = distance(c.as_ref());
            (i, if d.is_nan() { f64::INFINITY } else { d })
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored
        .into_iter()
        .take(k.min(candidates.len()))
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wasserstein_of_identical_is_zero() {
        let a = vec![3.0, -1.0, 2.0];
        assert_eq!(wasserstein_1d(&a, &a), 0.0);
    }

    #[test]
    fn wasserstein_is_shift_distance_for_shifted_samples() {
        let a = vec![0.0, 1.0, 2.0];
        let b = vec![1.0, 2.0, 3.0];
        assert!((wasserstein_1d(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wasserstein_is_symmetric_and_permutation_invariant() {
        let a = vec![5.0, -2.0, 0.5, 9.0];
        let b = vec![1.0, 1.0, -3.0, 2.0];
        let ab = wasserstein_1d(&a, &b);
        let ba = wasserstein_1d(&b, &a);
        assert!((ab - ba).abs() < 1e-12);
        let a_perm = vec![9.0, 0.5, -2.0, 5.0];
        assert!((wasserstein_1d(&a_perm, &b) - ab).abs() < 1e-12);
    }

    #[test]
    fn cosine_distance_extremes() {
        let a = vec![1.0, 0.0];
        assert!(cosine_distance(&a, &[2.0, 0.0]).abs() < 1e-9);
        assert!((cosine_distance(&a, &[0.0, 3.0]) - 1.0).abs() < 1e-9);
        assert!((cosine_distance(&a, &[-1.0, 0.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_vector_cosine_is_one() {
        assert_eq!(cosine_distance(&[0.0, 0.0], &[1.0, 1.0]), 1.0);
    }

    #[test]
    fn most_dissimilar_ranks_by_distance() {
        let reference = vec![1.0, 0.0];
        let candidates = vec![
            vec![1.0, 0.0],  // identical
            vec![-1.0, 0.0], // opposite
            vec![0.0, 1.0],  // orthogonal
        ];
        let top2 = most_dissimilar(DistanceMetric::Cosine, &reference, &candidates, 2);
        assert_eq!(top2, vec![1, 2]);
    }

    #[test]
    fn most_dissimilar_clamps_k() {
        let reference = vec![1.0];
        let candidates = vec![vec![0.0]];
        let all = most_dissimilar(DistanceMetric::Euclidean, &reference, &candidates, 10);
        assert_eq!(all, vec![0]);
    }

    #[test]
    fn euclidean_matches_hand_value() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn wasserstein_rejects_non_finite_inputs_as_infinitely_far() {
        // Regression: the old NaN-tolerant comparator left NaN stranded
        // mid-array, pairing finite samples against the wrong partners —
        // W(a, b) could silently *shrink* when a NaN appeared.
        let clean = vec![0.0f32, 1.0, 2.0];
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let dirty = vec![0.0f32, poison, 2.0];
            assert_eq!(wasserstein_1d(&dirty, &clean), f64::INFINITY);
            assert_eq!(wasserstein_1d(&clean, &dirty), f64::INFINITY);
            assert_eq!(wasserstein_1d(&dirty, &dirty), f64::INFINITY);
        }
        // Finite inputs are unaffected by the guard.
        assert!((wasserstein_1d(&clean, &clean)).abs() < 1e-12);
    }

    #[test]
    fn most_dissimilar_sorting_the_reference_once_ranks_as_pairwise_wasserstein() {
        let sample = |seed: u32| -> Vec<f32> {
            (0..257u32)
                .map(|i| {
                    (i.wrapping_mul(2_654_435_761).wrapping_add(seed * 40_503) >> 20) as f32 / 409.6
                        - 5.0
                })
                .collect()
        };
        let reference = sample(1);
        let mut candidates: Vec<Vec<f32>> = (2..9).map(sample).collect();
        candidates[3][17] = f32::NAN;
        candidates.push(reference.clone());
        let mut want: Vec<(usize, f64)> = candidates
            .iter()
            .map(|c| wasserstein_1d(&reference, c))
            .enumerate()
            .collect();
        want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let want: Vec<usize> = want.into_iter().map(|(i, _)| i).collect();
        let got = most_dissimilar(DistanceMetric::Wasserstein, &reference, &candidates, 9);
        assert_eq!(got, want);
        assert_eq!(got[0], 3, "the NaN candidate ranks first");
        // A non-finite reference is infinitely far from everything.
        let mut poisoned = reference.clone();
        poisoned[0] = f32::INFINITY;
        let got = most_dissimilar(DistanceMetric::Wasserstein, &poisoned, &candidates, 3);
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn most_dissimilar_ranks_nan_candidates_first_deterministically() {
        let reference = vec![1.0f32, 0.0];
        let candidates = vec![
            vec![1.0, 0.0],      // distance 0
            vec![f32::NAN, 0.0], // NaN score → +∞
            vec![-1.0, 0.0],     // distance 2
        ];
        let order = most_dissimilar(DistanceMetric::Cosine, &reference, &candidates, 3);
        assert_eq!(order, vec![1, 2, 0]);
    }
}
