//! Minibatch assembly.

use crate::generate::Sample;
use fedknow_math::rng::shuffle;
use fedknow_math::Tensor;
use rand::rngs::StdRng;

/// Stack samples into an input tensor `[B, C, H, W]` and a label vector.
/// `image_shape` is `[C, H, W]`.
pub fn to_tensor(samples: &[&Sample], image_shape: &[usize]) -> (Tensor, Vec<usize>) {
    let b = samples.len();
    let img_len: usize = image_shape.iter().product();
    let mut data = Vec::with_capacity(b * img_len);
    let mut labels = Vec::with_capacity(b);
    for s in samples {
        assert_eq!(
            s.x.len(),
            img_len,
            "sample length does not match image shape"
        );
        data.extend_from_slice(&s.x);
        labels.push(s.label);
    }
    let mut shape = vec![b];
    shape.extend_from_slice(image_shape);
    (Tensor::from_vec(data, &shape), labels)
}

/// Shuffled minibatch iterator over a sample slice. Each call to
/// [`Batcher::next_batch`] yields up to `batch_size` samples; the order
/// reshuffles every epoch.
pub struct Batcher {
    order: Vec<usize>,
    cursor: usize,
    batch_size: usize,
}

impl Batcher {
    /// New batcher over `n` samples.
    pub fn new(rng: &mut StdRng, n: usize, batch_size: usize) -> Self {
        assert!(batch_size >= 1);
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(rng, &mut order);
        Self {
            order,
            cursor: 0,
            batch_size,
        }
    }

    /// Indices of the next minibatch, reshuffling at epoch boundaries.
    /// Returns an empty slice only when the dataset is empty.
    pub fn next_batch(&mut self, rng: &mut StdRng) -> &[usize] {
        if self.order.is_empty() {
            return &[];
        }
        if self.cursor >= self.order.len() {
            shuffle(rng, &mut self.order);
            self.cursor = 0;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let slice = &self.order[self.cursor..end];
        self.cursor = end;
        slice
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_math::rng::seeded;

    #[test]
    fn to_tensor_stacks_in_order() {
        let s1 = Sample {
            x: vec![1.0, 2.0],
            label: 0,
        };
        let s2 = Sample {
            x: vec![3.0, 4.0],
            label: 1,
        };
        let (t, labels) = to_tensor(&[&s1, &s2], &[1, 1, 2]);
        assert_eq!(t.shape(), &[2, 1, 1, 2]);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(labels, vec![0, 1]);
    }

    #[test]
    fn batcher_covers_all_indices_each_epoch() {
        let mut rng = seeded(1);
        let mut b = Batcher::new(&mut rng, 10, 3);
        let mut seen = Vec::new();
        // An epoch of 10 indices in batches of 3: four batches.
        for _ in 0..4 {
            seen.extend_from_slice(b.next_batch(&mut rng));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn batcher_handles_empty() {
        let mut rng = seeded(1);
        let mut b = Batcher::new(&mut rng, 0, 4);
        assert!(b.next_batch(&mut rng).is_empty());
    }
}
