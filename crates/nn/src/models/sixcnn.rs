//! The paper's 6-layer CNN (4 convolutional + 2 fully-connected layers),
//! following the AGS-CL architecture \[19\] it cites; used for CIFAR-100,
//! FC100 and CORe50.

use super::scaled;
use crate::activations::ReLU;
use crate::conv::Conv2d;
use crate::layer::Sequential;
use crate::linear::Linear;
use crate::model::Model;
use crate::pool::{GlobalAvgPool, MaxPool2d};
use rand::rngs::StdRng;

/// Build the 6-layer CNN. Base widths (at `width_mult = 1`) are 8/8/16/16
/// channels and a 32-unit hidden fully-connected layer.
pub fn six_cnn(rng: &mut StdRng, in_channels: usize, num_classes: usize, width_mult: f64) -> Model {
    let seq = six_cnn_layers(rng, in_channels, num_classes, width_mult);
    Model::new(seq, &[in_channels, 16, 16], num_classes)
}

/// The layer stack of [`six_cnn`], for callers that time or inspect the
/// layers one by one (`kernel_bench`'s per-layer table).
pub fn six_cnn_layers(
    rng: &mut StdRng,
    in_channels: usize,
    num_classes: usize,
    width_mult: f64,
) -> Sequential {
    let c1 = scaled(8, width_mult);
    let c2 = scaled(16, width_mult);
    let hidden = scaled(32, width_mult);
    Sequential::new()
        .push(Conv2d::conv3x3(rng, in_channels, c1, 1))
        .push(ReLU::new())
        .push(Conv2d::conv3x3(rng, c1, c1, 1))
        .push(ReLU::new())
        .push(MaxPool2d::new())
        .push(Conv2d::conv3x3(rng, c1, c2, 1))
        .push(ReLU::new())
        .push(Conv2d::conv3x3(rng, c2, c2, 1))
        .push(ReLU::new())
        .push(MaxPool2d::new())
        .push(GlobalAvgPool::new())
        .push(Linear::new(rng, c2, hidden))
        .push(ReLU::new())
        .push(Linear::new(rng, hidden, num_classes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_math::rng::seeded;
    use fedknow_math::Tensor;

    #[test]
    fn six_cnn_has_six_weight_layers() {
        let mut rng = seeded(0);
        let m = six_cnn(&mut rng, 3, 10, 1.0);
        // 4 conv + 2 linear = 6 weight tensors (plus 6 biases).
        let weights = m
            .layout()
            .iter()
            .filter(|s| s.name.ends_with("weight"))
            .count();
        assert_eq!(weights, 6);
    }

    #[test]
    fn output_width_is_num_classes() {
        let mut rng = seeded(0);
        let mut m = six_cnn(&mut rng, 3, 7, 1.0);
        let y = m.forward(Tensor::zeros(&[3, 3, 16, 16]), false);
        assert_eq!(y.shape(), &[3, 7]);
    }
}
