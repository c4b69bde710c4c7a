//! ShuffleNetV2 (lightweight category): channel-split units — half the
//! channels pass through untouched, the other half go through a
//! 1×1 → depthwise 3×3 → 1×1 stack, then the halves are concatenated and
//! channel-shuffled. Downsampling units process both halves with stride 2.

use super::scaled_even;
use crate::activations::ReLU;
use crate::blocks::{ChannelShuffle, Concat, SplitConcat};
use crate::conv::Conv2d;
use crate::layer::Sequential;
use crate::linear::Linear;
use crate::model::Model;
use crate::norm::BatchNorm2d;
use crate::pool::GlobalAvgPool;
use rand::rngs::StdRng;

/// The per-branch conv stack: 1×1 → BN → ReLU → dw3×3 → BN → 1×1 → BN → ReLU.
fn branch_stack(rng: &mut StdRng, cin: usize, cout: usize, stride: usize) -> Sequential {
    Sequential::new()
        .push(Conv2d::conv1x1(rng, cin, cout, 1))
        .push(BatchNorm2d::new(cout))
        .push(ReLU::new())
        .push(Conv2d::depthwise3x3(rng, cout, stride))
        .push(BatchNorm2d::new(cout))
        .push(Conv2d::conv1x1(rng, cout, cout, 1))
        .push(BatchNorm2d::new(cout))
        .push(ReLU::new())
}

/// Basic unit (stride 1): split in half, transform one half, concat,
/// shuffle. Channel count is preserved.
fn basic_unit(rng: &mut StdRng, channels: usize) -> Sequential {
    assert_eq!(channels % 2, 0, "ShuffleNet units need even channels");
    let half = channels / 2;
    Sequential::new()
        .push(SplitConcat::new(
            vec![half, half],
            vec![Sequential::new(), branch_stack(rng, half, half, 1)],
        ))
        .push(ChannelShuffle::new(2))
}

/// Downsampling unit (stride 2): both branches see the full input; each
/// halves the spatial size and produces `cout / 2` channels.
fn down_unit(rng: &mut StdRng, cin: usize, cout: usize) -> Sequential {
    assert_eq!(cout % 2, 0);
    let half = cout / 2;
    let left = Sequential::new()
        .push(Conv2d::depthwise3x3(rng, cin, 2))
        .push(BatchNorm2d::new(cin))
        .push(Conv2d::conv1x1(rng, cin, half, 1))
        .push(BatchNorm2d::new(half))
        .push(ReLU::new());
    let right = branch_stack(rng, cin, half, 2);
    Sequential::new()
        .push(Concat::new(vec![left, right]))
        .push(ChannelShuffle::new(2))
}

/// ShuffleNetV2 at CPU scale: stem, two stages of (downsample + basic
/// unit), GAP head.
pub fn shufflenet_v2(
    rng: &mut StdRng,
    in_channels: usize,
    num_classes: usize,
    width_mult: f64,
) -> Model {
    let c0 = scaled_even(8, width_mult);
    let c1 = scaled_even(16, width_mult);
    let c2 = scaled_even(32, width_mult);
    let seq = Sequential::new()
        .push(Conv2d::conv3x3(rng, in_channels, c0, 1))
        .push(BatchNorm2d::new(c0))
        .push(ReLU::new())
        .push(down_unit(rng, c0, c1))
        .push(basic_unit(rng, c1))
        .push(down_unit(rng, c1, c2))
        .push(basic_unit(rng, c2))
        .push(GlobalAvgPool::new())
        .push(Linear::new(rng, c2, num_classes));
    Model::new(seq, &[in_channels, 16, 16], num_classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_math::rng::seeded;
    use fedknow_math::Tensor;

    #[test]
    fn basic_unit_preserves_shape() {
        let mut rng = seeded(0);
        let mut u = Model::new(basic_unit(&mut rng, 8), &[], 0);
        let y = u.forward(Tensor::full(&[1, 8, 4, 4], 0.1), false);
        assert_eq!(y.shape(), &[1, 8, 4, 4]);
    }

    #[test]
    fn down_unit_halves_spatial_doubles_channels() {
        let mut rng = seeded(0);
        let mut u = Model::new(down_unit(&mut rng, 8, 16), &[], 0);
        let y = u.forward(Tensor::full(&[1, 8, 8, 8], 0.1), false);
        assert_eq!(y.shape(), &[1, 16, 4, 4]);
    }

    #[test]
    fn shufflenet_forward_shape() {
        let mut rng = seeded(0);
        let mut m = shufflenet_v2(&mut rng, 3, 10, 1.0);
        let y = m.forward(Tensor::full(&[2, 3, 16, 16], 0.1), false);
        assert_eq!(y.shape(), &[2, 10]);
    }
}
