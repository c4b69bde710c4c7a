//! DenseNet (multi-path category): dense blocks whose layers see the
//! concatenation of every earlier feature map, joined by 1×1 + pool
//! transitions.

use super::scaled;
use crate::activations::ReLU;
use crate::blocks::Concat;
use crate::conv::Conv2d;
use crate::layer::Sequential;
use crate::linear::Linear;
use crate::model::Model;
use crate::norm::BatchNorm2d;
use crate::pool::{AvgPool2d, GlobalAvgPool};
use rand::rngs::StdRng;

/// One dense layer: `x → concat(x, H(x))` where `H` is BN→ReLU→3×3 conv
/// producing `growth` channels.
fn dense_layer(rng: &mut StdRng, cin: usize, growth: usize) -> Concat {
    let h = Sequential::new()
        .push(BatchNorm2d::new(cin))
        .push(ReLU::new())
        .push(Conv2d::conv3x3(rng, cin, growth, 1));
    Concat::new(vec![Sequential::new(), h])
}

/// A dense block of `layers` dense layers; channels grow by `growth` each.
fn dense_block(rng: &mut StdRng, cin: usize, growth: usize, layers: usize) -> (Sequential, usize) {
    let mut seq = Sequential::new();
    let mut c = cin;
    for _ in 0..layers {
        seq = seq.push(dense_layer(rng, c, growth));
        c += growth;
    }
    (seq, c)
}

/// Transition: 1×1 compression to half the channels + 2×2 average
/// pooling (as in the original DenseNet).
fn transition(rng: &mut StdRng, cin: usize) -> (Sequential, usize) {
    let cout = (cin / 2).max(1);
    let seq = Sequential::new()
        .push(BatchNorm2d::new(cin))
        .push(ReLU::new())
        .push(Conv2d::conv1x1(rng, cin, cout, 1))
        .push(AvgPool2d::new(2));
    (seq, cout)
}

/// DenseNet with two dense blocks of three layers each.
pub fn densenet(
    rng: &mut StdRng,
    in_channels: usize,
    num_classes: usize,
    width_mult: f64,
) -> Model {
    let growth = scaled(6, width_mult);
    let stem_c = scaled(8, width_mult);
    let mut seq = Sequential::new()
        .push(Conv2d::conv3x3(rng, in_channels, stem_c, 1))
        .push(BatchNorm2d::new(stem_c))
        .push(ReLU::new());
    let (b1, c1) = dense_block(rng, stem_c, growth, 3);
    seq = seq.push(b1);
    let (t1, c2) = transition(rng, c1);
    seq = seq.push(t1);
    let (b2, c3) = dense_block(rng, c2, growth, 3);
    seq = seq.push(b2);
    let seq = seq
        .push(BatchNorm2d::new(c3))
        .push(ReLU::new())
        .push(GlobalAvgPool::new())
        .push(Linear::new(rng, c3, num_classes));
    Model::new(seq, &[in_channels, 16, 16], num_classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_math::rng::seeded;
    use fedknow_math::Tensor;

    #[test]
    fn dense_layer_grows_channels() {
        let mut rng = seeded(0);
        let mut l = Model::new(dense_layer(&mut rng, 4, 3), &[], 0);
        let y = l.forward(Tensor::zeros(&[1, 4, 4, 4]), false);
        assert_eq!(y.shape(), &[1, 7, 4, 4]);
    }

    #[test]
    fn densenet_forward_shape() {
        let mut rng = seeded(0);
        let mut m = densenet(&mut rng, 3, 10, 1.0);
        let y = m.forward(Tensor::full(&[2, 3, 16, 16], 0.2), false);
        assert_eq!(y.shape(), &[2, 10]);
    }
}
