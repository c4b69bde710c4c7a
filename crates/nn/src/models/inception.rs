//! InceptionV3-style network (width category): modules of parallel 1×1,
//! 3×3 and factorised 5×5 (two stacked 3×3) branches concatenated along
//! channels. The average-pool branch of the original is represented by an
//! extra 1×1 branch — pooling at stride 1 adds nothing at these spatial
//! sizes and the *width/multi-branch* structure is the property under test.

use super::scaled;
use crate::activations::ReLU;
use crate::blocks::Concat;
use crate::conv::Conv2d;
use crate::layer::Sequential;
use crate::linear::Linear;
use crate::model::Model;
use crate::norm::BatchNorm2d;
use crate::pool::{GlobalAvgPool, MaxPool2d};
use rand::rngs::StdRng;

fn branch_conv(rng: &mut StdRng, cin: usize, cout: usize, kernel: usize) -> Sequential {
    let pad = kernel / 2;
    Sequential::new()
        .push(Conv2d::new(rng, cin, cout, kernel, 1, pad, 1))
        .push(BatchNorm2d::new(cout))
        .push(ReLU::new())
}

/// One inception module. Output channels = 4 × `branch_c`.
fn inception_module(rng: &mut StdRng, cin: usize, branch_c: usize) -> Concat {
    // 1×1
    let b1 = branch_conv(rng, cin, branch_c, 1);
    // 1×1 → 3×3
    let b2 = branch_conv(rng, cin, branch_c, 1).extend(branch_conv(rng, branch_c, branch_c, 3));
    // 1×1 → 3×3 → 3×3 (factorised 5×5)
    let b3 = branch_conv(rng, cin, branch_c, 1)
        .extend(branch_conv(rng, branch_c, branch_c, 3))
        .extend(branch_conv(rng, branch_c, branch_c, 3));
    // "pool" branch stand-in: 1×1 projection.
    let b4 = branch_conv(rng, cin, branch_c, 1);
    Concat::new(vec![b1, b2, b3, b4])
}

/// InceptionV3-style model: stem, two inception modules separated by a
/// pooling reduction, GAP head.
pub fn inception_v3(
    rng: &mut StdRng,
    in_channels: usize,
    num_classes: usize,
    width_mult: f64,
) -> Model {
    let stem_c = scaled(8, width_mult);
    let b1 = scaled(4, width_mult);
    let b2 = scaled(8, width_mult);
    let seq = Sequential::new()
        .push(Conv2d::conv3x3(rng, in_channels, stem_c, 1))
        .push(BatchNorm2d::new(stem_c))
        .push(ReLU::new())
        .push(inception_module(rng, stem_c, b1))
        .push(MaxPool2d::new())
        .push(inception_module(rng, 4 * b1, b2))
        .push(GlobalAvgPool::new())
        .push(Linear::new(rng, 4 * b2, num_classes));
    Model::new(seq, &[in_channels, 16, 16], num_classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_math::rng::seeded;
    use fedknow_math::Tensor;

    #[test]
    fn module_concatenates_four_branches() {
        let mut rng = seeded(0);
        let mut m = Model::new(inception_module(&mut rng, 8, 4), &[], 0);
        let y = m.forward(Tensor::zeros(&[1, 8, 8, 8]), false);
        assert_eq!(y.shape(), &[1, 16, 8, 8]);
    }

    #[test]
    fn inception_forward_shape() {
        let mut rng = seeded(0);
        let mut m = inception_v3(&mut rng, 3, 10, 1.0);
        let y = m.forward(Tensor::full(&[2, 3, 16, 16], 0.1), false);
        assert_eq!(y.shape(), &[2, 10]);
    }
}
