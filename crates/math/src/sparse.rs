//! Sparse index/value vectors.
//!
//! FedKNOW's *knowledge extractor* keeps only the top-ρ fraction of model
//! weights by magnitude (paper Eq. 1). A [`SparseVec`] stores exactly that:
//! sorted indices into the flat parameter vector plus the retained values.
//! Byte-size accounting on this type drives the communication and memory
//! models in `fedknow-fl`.

use serde::{Deserialize, Serialize};

/// A sparse view of a dense `f32` vector: strictly increasing indices with
/// their values.
///
/// ```
/// use fedknow_math::SparseVec;
/// let weights = vec![0.1, -5.0, 0.3, 2.0];
/// // Keep the top-50% by magnitude — the signature knowledge of Eq. 1.
/// let knowledge = SparseVec::top_fraction_by_magnitude(&weights, 0.5);
/// assert_eq!(knowledge.indices(), &[1, 3]);
/// assert_eq!(knowledge.to_dense(), vec![0.0, -5.0, 0.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SparseVec {
    /// Length of the dense vector this was extracted from.
    dense_len: usize,
    /// Strictly increasing indices of retained entries.
    indices: Vec<u32>,
    /// Values at `indices`.
    values: Vec<f32>,
}

impl SparseVec {
    /// Build from parallel index/value arrays. Panics if lengths differ,
    /// indices are not strictly increasing, or an index is out of bounds.
    pub fn new(dense_len: usize, indices: Vec<u32>, values: Vec<f32>) -> Self {
        assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        for w in indices.windows(2) {
            assert!(w[0] < w[1], "indices must be strictly increasing");
        }
        if let Some(&last) = indices.last() {
            assert!(
                (last as usize) < dense_len,
                "index {last} out of bounds {dense_len}"
            );
        }
        Self {
            dense_len,
            indices,
            values,
        }
    }

    /// Extract the `keep` entries of `dense` with the largest absolute value.
    ///
    /// This is the paper's magnitude-based pruning: the retained entries are
    /// the signature knowledge of a task. Ties are broken by lower index so
    /// the result is deterministic. Non-finite entries rank above every
    /// finite one (NaN above infinity).
    pub fn top_k_by_magnitude(dense: &[f32], keep: usize) -> Self {
        let keep = keep.min(dense.len());
        if keep == 0 {
            return Self {
                dense_len: dense.len(),
                indices: vec![],
                values: vec![],
            };
        }
        // Select-nth on |value| descending, then sort the kept indices.
        let mut idx: Vec<u32> = (0..dense.len() as u32).collect();
        // `total_cmp` on |value| is a total order: NaN and infinity rank
        // largest, so a non-finite weight is kept rather than landing
        // wherever an inconsistent comparator happened to leave it.
        idx.select_nth_unstable_by(keep - 1, |&a, &b| {
            let (va, vb) = (dense[a as usize].abs(), dense[b as usize].abs());
            vb.total_cmp(&va).then(a.cmp(&b))
        });
        idx.truncate(keep);
        idx.sort_unstable();
        let values = idx.iter().map(|&i| dense[i as usize]).collect();
        Self {
            dense_len: dense.len(),
            indices: idx,
            values,
        }
    }

    /// Extract entries whose absolute value is at least the `1 - rho`
    /// quantile — i.e. keep the top `rho` fraction (paper Eq. 1 with
    /// quantile ρ). `rho` is clamped to `[0, 1]`.
    pub fn top_fraction_by_magnitude(dense: &[f32], rho: f64) -> Self {
        let rho = rho.clamp(0.0, 1.0);
        let keep = ((dense.len() as f64) * rho).round() as usize;
        Self::top_k_by_magnitude(dense, keep)
    }

    /// Number of retained entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Length of the originating dense vector.
    pub fn dense_len(&self) -> usize {
        self.dense_len
    }

    /// Retained indices (strictly increasing).
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Retained values, parallel to [`Self::indices`].
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Materialise as a dense vector with zeros elsewhere.
    ///
    /// This is how the gradient restorer rebuilds a pruned model: retained
    /// weights keep their value, pruned weights are zero.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dense_len];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] = v;
        }
        out
    }

    /// Read the current values of the retained positions out of `dense`
    /// (used when fine-tuning only the knowledge weights).
    pub fn gather_from(&mut self, dense: &[f32]) {
        assert_eq!(dense.len(), self.dense_len, "gather_from length mismatch");
        for (i, v) in self.indices.iter().zip(self.values.iter_mut()) {
            *v = dense[*i as usize];
        }
    }

    /// Bytes this knowledge occupies on the wire / in memory:
    /// 4 bytes per index + 4 bytes per value.
    pub fn size_bytes(&self) -> usize {
        self.indices.len() * (std::mem::size_of::<u32>() + std::mem::size_of::<f32>())
    }

    /// Jaccard similarity of the retained-index *supports*:
    /// `|A ∩ B| / |A ∪ B|`, in `[0, 1]`. Two empty supports count as
    /// fully overlapping (1.0). Linear two-pointer merge over the
    /// strictly-increasing index lists.
    pub fn jaccard(&self, other: &SparseVec) -> f64 {
        let (a, b) = (&self.indices, &other.indices);
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        let union = a.len() + b.len() - inter;
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_keeps_largest_magnitudes() {
        let dense = vec![0.1, -5.0, 0.3, 2.0, -0.2];
        let s = SparseVec::top_k_by_magnitude(&dense, 2);
        assert_eq!(s.indices(), &[1, 3]);
        assert_eq!(s.values(), &[-5.0, 2.0]);
    }

    #[test]
    fn top_k_ranks_non_finite_weights_above_every_finite_one() {
        // Every 31st weight NaN, two infinities: all of them are kept,
        // and the rest of the budget goes to the largest finite
        // magnitudes, exactly as on the finite weights alone.
        let mut dense: Vec<f32> = (0..4096)
            .map(|i| ((i * 7919) % 4096) as f32 / 100.0 - 20.0)
            .collect();
        for i in (0..dense.len()).step_by(31) {
            dense[i] = f32::NAN;
        }
        dense[100] = f32::INFINITY;
        dense[2000] = f32::NEG_INFINITY;
        let k = 400;
        let mut want: Vec<u32> = (0..dense.len() as u32)
            .filter(|&i| !dense[i as usize].is_finite())
            .collect();
        let mut finite: Vec<u32> = (0..dense.len() as u32)
            .filter(|&i| dense[i as usize].is_finite())
            .collect();
        finite.sort_by(|&a, &b| {
            let (va, vb) = (dense[a as usize].abs(), dense[b as usize].abs());
            vb.partial_cmp(&va).unwrap().then(a.cmp(&b))
        });
        want.extend(&finite[..k - want.len()]);
        want.sort_unstable();
        let s = SparseVec::top_k_by_magnitude(&dense, k);
        assert_eq!(s.indices(), want.as_slice());

        // More NaNs than the budget (every third weight): the kept
        // entries are the lowest-indexed NaNs, none finite.
        let dense: Vec<f32> = (0..4096)
            .map(|i| if i % 3 == 0 { f32::NAN } else { i as f32 })
            .collect();
        let s = SparseVec::top_k_by_magnitude(&dense, k);
        let want: Vec<u32> = (0..k as u32).map(|i| 3 * i).collect();
        assert_eq!(s.indices(), want.as_slice());
        assert!(s.values().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn top_fraction_rounds_count() {
        let dense: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let s = SparseVec::top_fraction_by_magnitude(&dense, 0.3);
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.indices(), &[7, 8, 9]);
    }

    #[test]
    fn dense_roundtrip_zeros_pruned_positions() {
        let dense = vec![1.0, -2.0, 3.0, -4.0];
        let s = SparseVec::top_k_by_magnitude(&dense, 2);
        assert_eq!(s.to_dense(), vec![0.0, 0.0, 3.0, -4.0]);
    }

    #[test]
    fn gather_updates_values() {
        let orig = vec![1.0, -2.0, 3.0, -4.0];
        let mut s = SparseVec::top_k_by_magnitude(&orig, 2);
        let newer = vec![0.0, 0.0, 30.0, -40.0];
        s.gather_from(&newer);
        assert_eq!(s.values(), &[30.0, -40.0]);
    }

    #[test]
    fn size_bytes_is_eight_per_entry() {
        let s = SparseVec::top_k_by_magnitude(&[1.0; 100], 10);
        assert_eq!(s.size_bytes(), 80);
    }

    #[test]
    fn keep_zero_and_keep_all_edge_cases() {
        let dense = vec![1.0, 2.0];
        assert_eq!(SparseVec::top_k_by_magnitude(&dense, 0).nnz(), 0);
        let all = SparseVec::top_k_by_magnitude(&dense, 5);
        assert_eq!(all.nnz(), 2);
        assert_eq!(all.to_dense(), dense);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn new_rejects_unsorted_indices() {
        let _ = SparseVec::new(10, vec![3, 1], vec![0.0, 0.0]);
    }

    #[test]
    fn jaccard_measures_support_overlap() {
        let a = SparseVec::new(10, vec![0, 1, 2, 3], vec![1.0; 4]);
        let b = SparseVec::new(10, vec![2, 3, 4, 5], vec![1.0; 4]);
        // |{2,3}| / |{0..=5}| = 2/6.
        assert!((a.jaccard(&b) - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(a.jaccard(&a), 1.0);
        let empty = SparseVec::new(10, vec![], vec![]);
        assert_eq!(a.jaccard(&empty), 0.0);
        assert_eq!(empty.jaccard(&empty), 1.0);
    }
}
