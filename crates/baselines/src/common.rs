//! Shared infrastructure for the baseline implementations.

use fedknow_data::{to_tensor, ClientTask, Sample};
use fedknow_math::rng::sample_indices;
use fedknow_math::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Episodic memory: a per-task buffer holding a fraction of each learned
/// task's training samples (GEM/BCN/Co2L-style rehearsal).
#[derive(Debug, Clone, Default)]
pub struct EpisodicMemory {
    per_task: Vec<Vec<Sample>>,
}

impl EpisodicMemory {
    /// Empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `fraction` of the task's training samples (at least one).
    pub fn store_task(&mut self, task: &ClientTask, fraction: f64, rng: &mut StdRng) {
        let n = task.train.len();
        let take = ((n as f64 * fraction).round() as usize).clamp(1, n.max(1));
        let idx = sample_indices(rng, n, take);
        self.per_task
            .push(idx.into_iter().map(|i| task.train[i].clone()).collect());
    }

    /// Number of tasks with stored samples.
    pub fn num_tasks(&self) -> usize {
        self.per_task.len()
    }

    /// Total stored samples.
    fn total_samples(&self) -> usize {
        self.per_task.iter().map(|v| v.len()).sum()
    }

    /// Bytes retained (4 bytes per pixel plus the label).
    pub fn size_bytes(&self) -> u64 {
        self.per_task
            .iter()
            .flat_map(|t| t.iter())
            .map(|s| (s.x.len() * 4 + 8) as u64)
            .sum()
    }

    /// A batch of up to `n` samples from task `t`'s buffer.
    pub fn sample_task_batch(
        &self,
        t: usize,
        n: usize,
        image_shape: &[usize],
        rng: &mut StdRng,
    ) -> Option<(Tensor, Vec<usize>)> {
        let buf = self.per_task.get(t)?;
        if buf.is_empty() {
            return None;
        }
        let take = n.min(buf.len());
        let idx = sample_indices(rng, buf.len(), take);
        let refs: Vec<&Sample> = idx.iter().map(|&i| &buf[i]).collect();
        Some(to_tensor(&refs, image_shape))
    }

    /// A batch of up to `n` samples drawn uniformly across *all* stored
    /// tasks (balanced rehearsal).
    pub fn sample_mixed_batch(
        &self,
        n: usize,
        image_shape: &[usize],
        rng: &mut StdRng,
    ) -> Option<(Tensor, Vec<usize>)> {
        if self.per_task.is_empty() || self.total_samples() == 0 {
            return None;
        }
        let mut refs: Vec<&Sample> = Vec::with_capacity(n);
        for _ in 0..n {
            let t = rng.gen_range(0..self.per_task.len());
            let buf = &self.per_task[t];
            if buf.is_empty() {
                continue;
            }
            refs.push(&buf[rng.gen_range(0..buf.len())]);
        }
        if refs.is_empty() {
            return None;
        }
        Some(to_tensor(&refs, image_shape))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_data::{generate::generate, partition, DatasetSpec, PartitionConfig};
    use fedknow_math::rng::seeded;

    fn task() -> ClientTask {
        let spec = DatasetSpec::cifar100().scaled(0.5, 8).with_tasks(2);
        let d = generate(&spec, 1);
        partition(&d, 1, &PartitionConfig::default(), 1)[0].tasks[0].clone()
    }

    #[test]
    fn store_respects_fraction() {
        let t = task();
        let mut mem = EpisodicMemory::new();
        let mut rng = seeded(1);
        mem.store_task(&t, 0.5, &mut rng);
        let expected = ((t.train.len() as f64) * 0.5).round() as usize;
        assert_eq!(mem.total_samples(), expected);
        assert_eq!(mem.num_tasks(), 1);
        assert!(mem.size_bytes() > 0);
    }

    #[test]
    fn tiny_fraction_keeps_at_least_one() {
        let t = task();
        let mut mem = EpisodicMemory::new();
        let mut rng = seeded(2);
        mem.store_task(&t, 1e-9, &mut rng);
        assert_eq!(mem.total_samples(), 1);
    }

    #[test]
    fn task_batches_come_from_right_task() {
        let spec = DatasetSpec::cifar100().scaled(0.5, 8).with_tasks(2);
        let d = generate(&spec, 1);
        let tasks = &partition(&d, 1, &PartitionConfig::default(), 1)[0].tasks;
        let mut mem = EpisodicMemory::new();
        let mut rng = seeded(3);
        mem.store_task(&tasks[0], 0.5, &mut rng);
        mem.store_task(&tasks[1], 0.5, &mut rng);
        let (_, labels) = mem.sample_task_batch(1, 4, &[3, 8, 8], &mut rng).unwrap();
        for l in labels {
            assert!(tasks[1].classes.contains(&l));
        }
    }

    #[test]
    fn mixed_batch_spans_tasks_eventually() {
        let spec = DatasetSpec::cifar100().scaled(0.5, 8).with_tasks(2);
        let d = generate(&spec, 1);
        let tasks = &partition(&d, 1, &PartitionConfig::default(), 1)[0].tasks;
        let mut mem = EpisodicMemory::new();
        let mut rng = seeded(4);
        mem.store_task(&tasks[0], 0.5, &mut rng);
        mem.store_task(&tasks[1], 0.5, &mut rng);
        let mut seen_t0 = false;
        let mut seen_t1 = false;
        for _ in 0..10 {
            let (_, labels) = mem.sample_mixed_batch(8, &[3, 8, 8], &mut rng).unwrap();
            for l in labels {
                seen_t0 |= tasks[0].classes.contains(&l);
                seen_t1 |= tasks[1].classes.contains(&l);
            }
        }
        assert!(seen_t0 && seen_t1, "mixed batches never spanned both tasks");
    }

    #[test]
    fn empty_memory_returns_none() {
        let mem = EpisodicMemory::new();
        let mut rng = seeded(5);
        assert!(mem.sample_mixed_batch(4, &[3, 8, 8], &mut rng).is_none());
        assert!(mem.sample_task_batch(0, 4, &[3, 8, 8], &mut rng).is_none());
    }
}
