//! Deterministic synthesis of class-prototype datasets.
//!
//! Every class `c` gets a smooth prototype image: a coarse 4×4 Gaussian
//! grid per channel, bilinearly upsampled to the target resolution.
//! Samples are `prototype + N(0, noise_std)`. Smoothness matters — it
//! gives convolutional models local structure to exploit, so accuracy
//! curves behave like they do on natural images (learnable but not
//! trivially separable once many classes share the space).

use crate::spec::DatasetSpec;
use fedknow_math::rng::{fill_normal, substream};

/// One labelled image, flattened `[C·H·W]`.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Flattened image data.
    pub x: Vec<f32>,
    /// Global class label (unique across all tasks of the dataset).
    pub label: usize,
}

/// All data belonging to one task.
#[derive(Debug, Clone)]
pub struct TaskData {
    /// Task index within the dataset.
    pub task_id: usize,
    /// Global class ids this task introduces.
    pub classes: Vec<usize>,
    /// Training pool (shared by all clients before partitioning).
    pub train: Vec<Sample>,
    /// Held-out test samples.
    pub test: Vec<Sample>,
}

/// A generated dataset: the spec plus its task sequence.
#[derive(Debug, Clone)]
pub struct ContinualDataset {
    /// Structure this dataset was generated from.
    pub spec: DatasetSpec,
    /// Task sequence, in canonical order (clients permute it).
    pub tasks: Vec<TaskData>,
}

/// Bilinearly upsample a `g×g` grid to `h×w`.
fn upsample(grid: &[f32], g: usize, h: usize, w: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; h * w];
    for y in 0..h {
        // Map pixel centre into grid coordinates.
        let fy = (y as f32 + 0.5) / h as f32 * (g as f32 - 1.0);
        let y0 = fy.floor() as usize;
        let y1 = (y0 + 1).min(g - 1);
        let ty = fy - y0 as f32;
        for x in 0..w {
            let fx = (x as f32 + 0.5) / w as f32 * (g as f32 - 1.0);
            let x0 = fx.floor() as usize;
            let x1 = (x0 + 1).min(g - 1);
            let tx = fx - x0 as f32;
            let v00 = grid[y0 * g + x0];
            let v01 = grid[y0 * g + x1];
            let v10 = grid[y1 * g + x0];
            let v11 = grid[y1 * g + x1];
            out[y * w + x] = v00 * (1.0 - ty) * (1.0 - tx)
                + v01 * (1.0 - ty) * tx
                + v10 * ty * (1.0 - tx)
                + v11 * ty * tx;
        }
    }
    out
}

/// The prototype image of a global class: smooth, deterministic in
/// `(seed, spec.seed_salt, class)`.
fn class_prototype(spec: &DatasetSpec, seed: u64, class: usize) -> Vec<f32> {
    let mut rng = substream(seed ^ spec.seed_salt, 0x7070_0000 + class as u64);
    let g = 4usize;
    let mut proto = Vec::with_capacity(spec.image_len());
    for _ in 0..spec.channels {
        let mut grid = vec![0.0f32; g * g];
        fill_normal(&mut rng, &mut grid, 0.0, 1.0);
        proto.extend(upsample(&grid, g, spec.height, spec.width));
    }
    proto
}

/// Generate the full dataset for a seed. Deterministic: the same
/// `(spec, seed)` always yields identical data.
pub fn generate(spec: &DatasetSpec, seed: u64) -> ContinualDataset {
    let mut tasks = Vec::with_capacity(spec.num_tasks);
    for t in 0..spec.num_tasks {
        let classes: Vec<usize> =
            (t * spec.classes_per_task..(t + 1) * spec.classes_per_task).collect();
        let mut train = Vec::with_capacity(classes.len() * spec.train_per_class);
        let mut test = Vec::with_capacity(classes.len() * spec.test_per_class);
        for &c in &classes {
            let proto = class_prototype(spec, seed, c);
            let mut rng = substream(seed ^ spec.seed_salt, 0x5A5A_0000 + c as u64);
            for i in 0..spec.train_per_class + spec.test_per_class {
                let mut x = proto.clone();
                for v in &mut x {
                    *v += spec.noise_std * fedknow_math::rng::normal(&mut rng);
                }
                let sample = Sample { x, label: c };
                if i < spec.train_per_class {
                    train.push(sample);
                } else {
                    test.push(sample);
                }
            }
        }
        tasks.push(TaskData {
            task_id: t,
            classes,
            train,
            test,
        });
    }
    ContinualDataset {
        spec: spec.clone(),
        tasks,
    }
}

/// A deterministic per-client feature shift: an additive smooth pattern
/// plus a mild contrast change, applied in place. This is what makes
/// client data non-IID in *features*, not just in class allocation.
pub fn apply_client_shift(spec: &DatasetSpec, seed: u64, client: u64, x: &mut [f32]) {
    let mut rng = substream(seed ^ spec.seed_salt, 0xC11E_0000 + client);
    let g = 4usize;
    let contrast = 1.0 + 0.1 * fedknow_math::rng::normal(&mut rng);
    let plane = spec.height * spec.width;
    for ch in 0..spec.channels {
        let mut grid = vec![0.0f32; g * g];
        fill_normal(&mut rng, &mut grid, 0.0, 0.2);
        let shift = upsample(&grid, g, spec.height, spec.width);
        for (v, s) in x[ch * plane..(ch + 1) * plane].iter_mut().zip(&shift) {
            *v = *v * contrast + s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> DatasetSpec {
        DatasetSpec::cifar100().scaled(0.2, 8).with_tasks(2)
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = small_spec();
        let a = generate(&spec, 42);
        let b = generate(&spec, 42);
        assert_eq!(a.tasks[0].train[0].x, b.tasks[0].train[0].x);
        assert_eq!(a.tasks[1].test[3].x, b.tasks[1].test[3].x);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = small_spec();
        let a = generate(&spec, 1);
        let b = generate(&spec, 2);
        assert_ne!(a.tasks[0].train[0].x, b.tasks[0].train[0].x);
    }

    #[test]
    fn task_classes_are_disjoint_and_sequential() {
        let spec = small_spec();
        let d = generate(&spec, 0);
        assert_eq!(d.tasks[0].classes, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(d.tasks[1].classes, (10..20).collect::<Vec<_>>());
    }

    #[test]
    fn sample_counts_match_spec() {
        let spec = small_spec();
        let d = generate(&spec, 0);
        for t in &d.tasks {
            assert_eq!(t.train.len(), spec.classes_per_task * spec.train_per_class);
            assert_eq!(t.test.len(), spec.classes_per_task * spec.test_per_class);
            for s in t.train.iter().chain(&t.test) {
                assert_eq!(s.x.len(), spec.image_len());
                assert!(t.classes.contains(&s.label));
            }
        }
    }

    #[test]
    fn prototypes_of_distinct_classes_are_far_apart() {
        let spec = small_spec();
        let p0 = class_prototype(&spec, 7, 0);
        let p1 = class_prototype(&spec, 7, 1);
        let d: f32 = p0
            .iter()
            .zip(&p1)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        // Two independent N(0,1) smooth fields have RMS distance ≈ sqrt(2)
        // per element; anything above ~0.5·len is safely "far".
        assert!(d > 5.0, "prototype distance {d}");
    }

    #[test]
    fn samples_cluster_around_their_prototype() {
        let spec = small_spec();
        let d = generate(&spec, 3);
        let proto = class_prototype(&spec, 3, 0);
        for s in d.tasks[0].train.iter().filter(|s| s.label == 0) {
            let dist: f32 =
                s.x.iter()
                    .zip(&proto)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f32>()
                    / s.x.len() as f32;
            // Per-element squared distance should be ≈ noise_std².
            assert!(
                dist < 4.0 * spec.noise_std * spec.noise_std,
                "sample too far: {dist}"
            );
        }
    }

    #[test]
    fn client_shift_changes_features_deterministically() {
        let spec = small_spec();
        let proto = class_prototype(&spec, 5, 0);
        let mut a = proto.clone();
        let mut b = proto.clone();
        apply_client_shift(&spec, 5, 1, &mut a);
        apply_client_shift(&spec, 5, 1, &mut b);
        assert_eq!(a, b, "same client shift must be deterministic");
        let mut c = proto.clone();
        apply_client_shift(&spec, 5, 2, &mut c);
        assert_ne!(a, c, "different clients must shift differently");
        assert_ne!(a, proto, "shift must actually change the data");
    }

    #[test]
    fn upsample_is_constant_preserving() {
        let grid = vec![2.5f32; 16];
        let up = upsample(&grid, 4, 8, 8);
        for v in up {
            assert!((v - 2.5).abs() < 1e-6);
        }
    }
}
