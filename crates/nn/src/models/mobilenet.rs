//! MobileNetV2 (lightweight category): inverted residual blocks —
//! 1×1 expansion, 3×3 depthwise convolution, 1×1 linear projection, with
//! an identity residual when the stride is 1 and channels match. The
//! paper evaluates width multipliers 1.0 and 2.0; pass them as
//! `width_mult`.

use super::scaled;
use crate::activations::ReLU;
use crate::blocks::Residual;
use crate::conv::Conv2d;
use crate::layer::{Layer, Sequential};
use crate::linear::Linear;
use crate::model::Model;
use crate::norm::BatchNorm2d;
use crate::pool::GlobalAvgPool;
use rand::rngs::StdRng;

/// Inverted residual: expand ×`expand`, depthwise, project. The final
/// projection is linear (no ReLU), as in the original design.
fn inverted_residual(
    rng: &mut StdRng,
    cin: usize,
    cout: usize,
    stride: usize,
    expand: usize,
) -> Box<dyn Layer> {
    let mid = cin * expand;
    let main = Sequential::new()
        .push(Conv2d::conv1x1(rng, cin, mid, 1))
        .push(BatchNorm2d::new(mid))
        .push(ReLU::new())
        .push(Conv2d::depthwise3x3(rng, mid, stride))
        .push(BatchNorm2d::new(mid))
        .push(ReLU::new())
        .push(Conv2d::conv1x1(rng, mid, cout, 1))
        .push(BatchNorm2d::new(cout));
    if stride == 1 && cin == cout {
        Box::new(Residual::new(main, None, false))
    } else {
        Box::new(main)
    }
}

/// MobileNetV2 at CPU scale: stem, five inverted residual blocks across
/// three resolutions, 1×1 head conv, GAP, classifier.
pub fn mobilenet_v2(
    rng: &mut StdRng,
    in_channels: usize,
    num_classes: usize,
    width_mult: f64,
) -> Model {
    let c0 = scaled(8, width_mult);
    let c1 = scaled(8, width_mult);
    let c2 = scaled(16, width_mult);
    let c3 = scaled(24, width_mult);
    let head = scaled(48, width_mult);
    let mut seq = Sequential::new()
        .push(Conv2d::conv3x3(rng, in_channels, c0, 1))
        .push(BatchNorm2d::new(c0))
        .push(ReLU::new());
    seq.push_boxed(inverted_residual(rng, c0, c1, 1, 1));
    seq.push_boxed(inverted_residual(rng, c1, c2, 2, 4));
    seq.push_boxed(inverted_residual(rng, c2, c2, 1, 4));
    seq.push_boxed(inverted_residual(rng, c2, c3, 2, 4));
    seq.push_boxed(inverted_residual(rng, c3, c3, 1, 4));
    let seq = seq
        .push(Conv2d::conv1x1(rng, c3, head, 1))
        .push(BatchNorm2d::new(head))
        .push(ReLU::new())
        .push(GlobalAvgPool::new())
        .push(Linear::new(rng, head, num_classes));
    Model::new(seq, &[in_channels, 16, 16], num_classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_math::rng::seeded;
    use fedknow_math::Tensor;

    #[test]
    fn stride1_same_channels_gets_residual() {
        let mut rng = seeded(0);
        let block = inverted_residual(&mut rng, 8, 8, 1, 4);
        assert_eq!(block.name(), "Residual");
        let strided = inverted_residual(&mut rng, 8, 16, 2, 4);
        assert_eq!(strided.name(), "Sequential");
        let mut block = Model::from_boxed(block, &[], 0);
        let mut strided = Model::from_boxed(strided, &[], 0);
        let y = block.forward(Tensor::full(&[1, 8, 4, 4], 0.1), false);
        assert_eq!(y.shape(), &[1, 8, 4, 4]);
        let y2 = strided.forward(Tensor::full(&[1, 8, 4, 4], 0.1), false);
        assert_eq!(y2.shape(), &[1, 16, 2, 2]);
    }

    #[test]
    fn width_two_doubles_channels() {
        let mut rng = seeded(0);
        let m1 = mobilenet_v2(&mut rng, 3, 10, 1.0);
        let mut rng = seeded(0);
        let m2 = mobilenet_v2(&mut rng, 3, 10, 2.0);
        assert!(
            m2.param_count() > 2 * m1.param_count() / 2,
            "width mult grows the model"
        );
        assert!(m2.param_count() > m1.param_count());
    }
}
