//! The model zoo.
//!
//! Mirrors the paper's evaluated architectures (§V-A, §V-E): the 6-layer
//! CNN and ResNet-18 used in the main experiments, plus the eight DNNs of
//! Figure 9 spanning six architecture categories — depth (ResNet-152),
//! multi-path (DenseNet), width (InceptionV3, ResNeXt, WideResNet),
//! feature-map exploitation / attention (SENet-18), and lightweight
//! (MobileNetV2, ShuffleNetV2).
//!
//! Each builder reproduces the architecture's *structure* (block types,
//! stage layout, stride schedule) at a width scaled for CPU training; the
//! [`ModelKind::build`] `width_mult` knob restores larger widths when
//! wanted. All models end in global average pooling, so they accept any
//! input resolution the stride schedule can divide.

mod densenet;
mod inception;
mod mobilenet;
mod resnet;
mod shufflenet;
mod sixcnn;

use crate::model::Model;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

pub use densenet::densenet;
pub use inception::inception_v3;
pub use mobilenet::mobilenet_v2;
pub use resnet::{resnet152, resnet18, resnext50, senet18, wide_resnet50};
pub use shufflenet::shufflenet_v2;
pub use sixcnn::{six_cnn, six_cnn_layers};

/// Which architecture to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// The paper's 6-layer CNN (4 conv + 2 fc), used for CIFAR-100, FC100
    /// and CORe50.
    SixCnn,
    /// ResNet-18 (basic blocks, 4 stages), used for Mini/TinyImageNet.
    ResNet18,
    /// Depth category: ResNet-152-style bottleneck stack.
    ResNet152,
    /// Width category: WideResNet-50-style widened basic blocks.
    WideResNet50,
    /// Width category: ResNeXt-50-style grouped bottlenecks.
    ResNeXt50,
    /// Multi-path category: DenseNet.
    DenseNet,
    /// Width category: InceptionV3-style parallel-branch modules.
    InceptionV3,
    /// Feature-map-exploitation/attention category: SE-ResNet-18.
    SENet18,
    /// Lightweight category: MobileNetV2 (inverted residuals). The paper
    /// evaluates width multipliers 1.0 and 2.0 — pass them as `width_mult`.
    MobileNetV2,
    /// Lightweight category: ShuffleNetV2 (split-shuffle units).
    ShuffleNetV2,
}

impl ModelKind {
    /// All zoo members, in the paper's Figure 9 ordering plus the two main
    /// models.
    pub const ALL: [ModelKind; 10] = [
        ModelKind::SixCnn,
        ModelKind::ResNet18,
        ModelKind::WideResNet50,
        ModelKind::ResNeXt50,
        ModelKind::ResNet152,
        ModelKind::SENet18,
        ModelKind::MobileNetV2,
        ModelKind::ShuffleNetV2,
        ModelKind::DenseNet,
        ModelKind::InceptionV3,
    ];

    /// The eight Figure 9 architectures (everything except the two models
    /// used in the main comparison).
    pub const FIG9: [ModelKind; 8] = [
        ModelKind::WideResNet50,
        ModelKind::ResNeXt50,
        ModelKind::ResNet152,
        ModelKind::SENet18,
        ModelKind::MobileNetV2,
        ModelKind::ShuffleNetV2,
        ModelKind::DenseNet,
        ModelKind::InceptionV3,
    ];

    /// Stable lower-case name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::SixCnn => "sixcnn",
            ModelKind::ResNet18 => "resnet18",
            ModelKind::ResNet152 => "resnet152",
            ModelKind::WideResNet50 => "wideresnet50",
            ModelKind::ResNeXt50 => "resnext50",
            ModelKind::DenseNet => "densenet",
            ModelKind::InceptionV3 => "inceptionv3",
            ModelKind::SENet18 => "senet18",
            ModelKind::MobileNetV2 => "mobilenetv2",
            ModelKind::ShuffleNetV2 => "shufflenetv2",
        }
    }

    /// Build the model. `width_mult` scales channel widths (1.0 = the
    /// CPU-scaled default); weights are drawn from `rng`.
    pub fn build(
        &self,
        rng: &mut StdRng,
        in_channels: usize,
        num_classes: usize,
        width_mult: f64,
    ) -> Model {
        match self {
            ModelKind::SixCnn => six_cnn(rng, in_channels, num_classes, width_mult),
            ModelKind::ResNet18 => resnet18(rng, in_channels, num_classes, width_mult),
            ModelKind::ResNet152 => resnet152(rng, in_channels, num_classes, width_mult),
            ModelKind::WideResNet50 => wide_resnet50(rng, in_channels, num_classes, width_mult),
            ModelKind::ResNeXt50 => resnext50(rng, in_channels, num_classes, width_mult),
            ModelKind::DenseNet => densenet(rng, in_channels, num_classes, width_mult),
            ModelKind::InceptionV3 => inception_v3(rng, in_channels, num_classes, width_mult),
            ModelKind::SENet18 => senet18(rng, in_channels, num_classes, width_mult),
            ModelKind::MobileNetV2 => mobilenet_v2(rng, in_channels, num_classes, width_mult),
            ModelKind::ShuffleNetV2 => shufflenet_v2(rng, in_channels, num_classes, width_mult),
        }
    }
}

/// Round a scaled width to at least 1 channel.
pub(crate) fn scaled(base: usize, mult: f64) -> usize {
    ((base as f64 * mult).round() as usize).max(1)
}

/// Round a scaled width up to the next even channel count (split blocks
/// need divisibility by 2).
pub(crate) fn scaled_even(base: usize, mult: f64) -> usize {
    let c = scaled(base, mult);
    if c.is_multiple_of(2) {
        c
    } else {
        c + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_math::rng::seeded;
    use fedknow_math::Tensor;

    /// Every zoo member must forward/backward at 16×16 and 8×8 inputs and
    /// expose a consistent flat parameter vector.
    #[test]
    fn zoo_forward_backward_all_models() {
        for kind in ModelKind::ALL {
            for hw in [16usize, 8] {
                let mut rng = seeded(42);
                let mut m = kind.build(&mut rng, 3, 5, 1.0);
                let x = Tensor::full(&[2, 3, hw, hw], 0.1);
                let y = m.forward(x, true);
                assert_eq!(
                    y.shape(),
                    &[2, 5],
                    "{} at {hw}x{hw} produced {:?}",
                    kind.name(),
                    y.shape()
                );
                assert!(
                    y.data().iter().all(|v| v.is_finite()),
                    "{} produced non-finite logits",
                    kind.name()
                );
                let g = m.backward(Tensor::full(&[2, 5], 0.3));
                assert_eq!(g.shape(), &[2, 3, hw, hw], "{} grad shape", kind.name());
                let grads = m.flat_grads();
                assert_eq!(grads.len(), m.param_count());
                assert!(
                    grads.iter().any(|&v| v != 0.0),
                    "{} backward produced all-zero grads",
                    kind.name()
                );
            }
        }
    }

    /// Width multiplier must grow the parameter count.
    #[test]
    fn width_mult_scales_parameters() {
        for kind in [ModelKind::ResNet18, ModelKind::MobileNetV2] {
            let mut rng = seeded(0);
            let small = kind.build(&mut rng, 3, 10, 1.0).param_count();
            let mut rng = seeded(0);
            let big = kind.build(&mut rng, 3, 10, 2.0).param_count();
            assert!(big > small, "{}: {big} !> {small}", kind.name());
        }
    }

    /// Deterministic init: same seed, same parameters.
    #[test]
    fn builds_are_deterministic_per_seed() {
        let mut a = ModelKind::ResNet18.build(&mut seeded(7), 3, 10, 1.0);
        let mut b = ModelKind::ResNet18.build(&mut seeded(7), 3, 10, 1.0);
        assert_eq!(a.flat_params(), b.flat_params());
    }

    /// FLOPs must be positive and monotone in batch size.
    #[test]
    fn flops_monotone_in_batch() {
        let mut rng = seeded(0);
        let m = ModelKind::SixCnn.build(&mut rng, 3, 10, 1.0);
        let f1 = m.flops(1);
        let f2 = m.flops(2);
        assert!(f1 > 0);
        assert_eq!(f2, 2 * f1);
    }
}
