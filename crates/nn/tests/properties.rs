//! Property-based tests for the NN substrate: flat-parameter plumbing
//! and forward/backward shape invariants over randomised architectures.

use fedknow_math::rng::seeded;
use fedknow_math::Tensor;
use fedknow_nn::activations::ReLU;
use fedknow_nn::conv::Conv2d;
use fedknow_nn::layer::Sequential;
use fedknow_nn::linear::Linear;
use fedknow_nn::loss::cross_entropy;
use fedknow_nn::norm::BatchNorm2d;
use fedknow_nn::pool::{GlobalAvgPool, MaxPool2d};
use fedknow_nn::{Model, ModelKind};
use proptest::prelude::*;

/// Build a random small CNN from a compact genome.
fn random_cnn(channels: Vec<u8>, use_bn: bool, use_pool: bool, classes: usize) -> Model {
    let mut rng = seeded(9);
    let mut seq = Sequential::new();
    let mut cin = 3usize;
    for (i, &c) in channels.iter().enumerate() {
        let cout = (c as usize % 6) + 2;
        seq = seq.push(Conv2d::conv3x3(&mut rng, cin, cout, 1));
        if use_bn {
            seq = seq.push(BatchNorm2d::new(cout));
        }
        seq = seq.push(ReLU::new());
        if use_pool && i == 0 {
            seq = seq.push(MaxPool2d::new());
        }
        cin = cout;
    }
    let seq = seq
        .push(GlobalAvgPool::new())
        .push(Linear::new(&mut rng, cin, classes));
    Model::new(seq, &[3, 8, 8], classes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random CNNs always produce [B, classes] logits, finite values, a
    /// consistent flat parameter vector, and gradients of the same size.
    #[test]
    fn random_cnn_forward_backward_invariants(
        channels in prop::collection::vec(0u8..=255, 1..4),
        use_bn in any::<bool>(),
        use_pool in any::<bool>(),
        batch in 2usize..5,
    ) {
        let classes = 4usize;
        let mut m = random_cnn(channels, use_bn, use_pool, classes);
        let x = Tensor::full(&[batch, 3, 8, 8], 0.25);
        let y = m.forward(x, true);
        prop_assert_eq!(y.shape(), &[batch, classes]);
        prop_assert!(y.data().iter().all(|v| v.is_finite()));
        let labels: Vec<usize> = (0..batch).map(|i| i % classes).collect();
        let (_, grad) = cross_entropy(&y, &labels);
        let gx = m.backward(grad);
        prop_assert_eq!(gx.shape(), &[batch, 3, 8, 8]);
        let grads = m.flat_grads();
        prop_assert_eq!(grads.len(), m.param_count());
        prop_assert!(grads.iter().all(|v| v.is_finite()));
    }

    /// set_flat_params ∘ flat_params is the identity for any scaling.
    #[test]
    fn flat_param_roundtrip(scale in -2.0f32..2.0) {
        let mut rng = seeded(1);
        let mut m = ModelKind::SixCnn.build(&mut rng, 3, 10, 1.0);
        let orig = m.flat_params();
        let scaled: Vec<f32> = orig.iter().map(|v| v * scale).collect();
        m.set_flat_params(&scaled);
        prop_assert_eq!(m.flat_params(), scaled);
    }

    /// apply_update with lr and -lr round-trips the parameters.
    #[test]
    fn apply_update_is_reversible(lr in 0.001f32..0.5) {
        let mut rng = seeded(2);
        let mut m = ModelKind::SixCnn.build(&mut rng, 3, 10, 1.0);
        let before = m.flat_params();
        let update: Vec<f32> = (0..m.param_count()).map(|i| ((i % 7) as f32) - 3.0).collect();
        m.apply_update(&update, lr);
        m.apply_update(&update, -lr);
        let after = m.flat_params();
        for (a, b) in before.iter().zip(&after) {
            prop_assert!((a - b).abs() < 1e-5);
        }
    }

    /// The layout tiles the flat vector exactly, with shapes whose
    /// products equal the segment lengths.
    #[test]
    fn layout_tiles_vector(seed in 0u64..100) {
        let mut rng = seeded(seed);
        let m = ModelKind::MobileNetV2.build(&mut rng, 3, 10, 1.0);
        let mut off = 0usize;
        for seg in m.layout() {
            prop_assert_eq!(seg.offset, off);
            prop_assert_eq!(seg.shape.iter().product::<usize>(), seg.len);
            off += seg.len;
        }
        prop_assert_eq!(off, m.param_count());
    }
}
