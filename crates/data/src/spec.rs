//! Dataset specifications mirroring the paper's benchmarks (§V-A).

use serde::{Deserialize, Serialize};

/// The shape of a continual-learning benchmark.
///
/// Default sample counts are scaled below the originals (the substrate is
/// a CPU trainer, not a GPU cluster); the *structure* — tasks × classes —
/// matches the paper exactly. Use [`DatasetSpec::scaled`] to move in
/// either direction.
///
/// ```
/// use fedknow_data::DatasetSpec;
/// let spec = DatasetSpec::cifar100();          // 10 tasks × 10 classes
/// assert_eq!(spec.total_classes(), 100);
/// let quick = spec.scaled(0.5, 8).with_tasks(3); // smaller, 8×8 images
/// assert_eq!(quick.num_tasks, 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Benchmark name used in reports ("cifar100", …).
    pub name: String,
    /// Number of sequential tasks.
    pub num_tasks: usize,
    /// Classes introduced by each task.
    pub classes_per_task: usize,
    /// Image channels.
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Training samples generated per class.
    pub train_per_class: usize,
    /// Test samples generated per class.
    pub test_per_class: usize,
    /// Standard deviation of per-sample noise around the class prototype.
    pub noise_std: f32,
    /// Mixed into the seed so different datasets decorrelate even under
    /// the same experiment seed.
    pub seed_salt: u64,
}

impl DatasetSpec {
    /// CIFAR-100 analogue: 10 tasks × 10 classes (paper: 50k train / 10k
    /// test over 100 classes).
    pub fn cifar100() -> Self {
        Self::named("cifar100", 10, 10, 0x00C1)
    }

    /// FC100 analogue: same 10 × 10 structure as CIFAR-100 but a harder
    /// (noisier) distribution — FC100 is the few-shot CIFAR variant.
    pub fn fc100() -> Self {
        let mut s = Self::named("fc100", 10, 10, 0x00FC);
        s.noise_std = 0.85;
        s
    }

    /// CORe50 analogue: 11 tasks × 50 classes (550 classes total).
    pub fn core50() -> Self {
        let mut s = Self::named("core50", 11, 50, 0x0C50);
        s.train_per_class = 24;
        s.test_per_class = 8;
        s
    }

    /// MiniImageNet analogue: 10 tasks × 10 classes.
    pub fn mini_imagenet() -> Self {
        Self::named("miniimagenet", 10, 10, 0x0313)
    }

    /// TinyImageNet analogue: 20 tasks × 10 classes (200 classes total).
    pub fn tiny_imagenet() -> Self {
        let mut s = Self::named("tinyimagenet", 20, 10, 0x0714);
        s.test_per_class = 10;
        s
    }

    /// SVHN analogue used only for hyper-parameter search (§V-B): 2 tasks
    /// × 5 classes.
    pub fn svhn() -> Self {
        Self::named("svhn", 2, 5, 0x0541)
    }

    /// All five evaluation benchmarks, in the paper's column order.
    pub fn all_benchmarks() -> Vec<DatasetSpec> {
        vec![
            Self::cifar100(),
            Self::fc100(),
            Self::core50(),
            Self::mini_imagenet(),
            Self::tiny_imagenet(),
        ]
    }

    /// The analogue called `name`: a benchmark of [`Self::all_benchmarks`]
    /// or the `svhn` search set.
    pub fn by_name(name: &str) -> Option<DatasetSpec> {
        let mut known = Self::all_benchmarks();
        known.push(Self::svhn());
        known.into_iter().find(|s| s.name == name)
    }

    fn named(name: &str, num_tasks: usize, classes_per_task: usize, salt: u64) -> Self {
        Self {
            name: name.to_string(),
            num_tasks,
            classes_per_task,
            channels: 3,
            height: 16,
            width: 16,
            train_per_class: 40,
            test_per_class: 10,
            noise_std: 0.65,
            seed_salt: salt,
        }
    }

    /// Total class count across all tasks.
    pub fn total_classes(&self) -> usize {
        self.num_tasks * self.classes_per_task
    }

    /// Elements per image.
    pub fn image_len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Scale sample counts by `samples_mult` (min 1 per class) and resize
    /// images to `hw × hw`. Quick experiment modes use e.g.
    /// `scaled(0.5, 8)`.
    pub fn scaled(mut self, samples_mult: f64, hw: usize) -> Self {
        self.train_per_class =
            ((self.train_per_class as f64 * samples_mult).round() as usize).max(1);
        self.test_per_class = ((self.test_per_class as f64 * samples_mult).round() as usize).max(1);
        self.height = hw;
        self.width = hw;
        self
    }

    /// Truncate to the first `n` tasks (quick experiment modes).
    pub fn with_tasks(mut self, n: usize) -> Self {
        self.num_tasks = n.min(self.num_tasks).max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_structures_match_paper() {
        // Tasks × classes structure from §V-A.
        let c = DatasetSpec::cifar100();
        assert_eq!((c.num_tasks, c.classes_per_task), (10, 10));
        let f = DatasetSpec::fc100();
        assert_eq!((f.num_tasks, f.classes_per_task), (10, 10));
        let o = DatasetSpec::core50();
        assert_eq!((o.num_tasks, o.classes_per_task), (11, 50));
        assert_eq!(o.total_classes(), 550);
        let m = DatasetSpec::mini_imagenet();
        assert_eq!((m.num_tasks, m.classes_per_task), (10, 10));
        let t = DatasetSpec::tiny_imagenet();
        assert_eq!((t.num_tasks, t.classes_per_task), (20, 10));
        assert_eq!(t.total_classes(), 200);
        let s = DatasetSpec::svhn();
        assert_eq!((s.num_tasks, s.classes_per_task), (2, 5));
    }

    #[test]
    fn seed_salts_are_distinct() {
        let salts: Vec<u64> = DatasetSpec::all_benchmarks()
            .iter()
            .map(|s| s.seed_salt)
            .collect();
        let mut dedup = salts.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), salts.len());
    }

    #[test]
    fn by_name_finds_every_analogue() {
        let mut all = DatasetSpec::all_benchmarks();
        all.push(DatasetSpec::svhn());
        for s in all {
            assert_eq!(DatasetSpec::by_name(&s.name), Some(s));
        }
        assert_eq!(DatasetSpec::by_name("mnist"), None);
    }

    #[test]
    fn scaling_clamps_to_one() {
        let s = DatasetSpec::cifar100().scaled(0.0001, 8);
        assert_eq!(s.train_per_class, 1);
        assert_eq!(s.height, 8);
    }

    #[test]
    fn with_tasks_truncates() {
        let s = DatasetSpec::tiny_imagenet().with_tasks(3);
        assert_eq!(s.num_tasks, 3);
        assert_eq!(s.total_classes(), 30);
    }
}
