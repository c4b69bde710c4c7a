//! The [`Layer`] trait and [`Sequential`] container.
//!
//! Layers are stateful: `forward` caches whatever the matching `backward`
//! needs (inputs, masks, normalisation statistics), and `backward`
//! *accumulates* parameter gradients into per-layer grad buffers while
//! returning the gradient with respect to the layer input. A training step
//! is therefore `zero_grad → forward(train=true) → backward → optimiser`.

use fedknow_math::Tensor;

/// Callback used to walk a layer tree's parameters in a stable order.
///
/// `visit` receives the parameter name (diagnostic, stable across runs),
/// the parameter buffer, and its gradient buffer — always the same length.
pub trait ParamVisitor {
    /// Visit one parameter tensor with its logical shape (e.g.
    /// `[out, in]` for a linear weight, `[oc, cg·k·k]` for a conv
    /// kernel) and its gradient buffer.
    fn visit(&mut self, name: &str, shape: &[usize], params: &mut [f32], grads: &mut [f32]);
}

impl<F: FnMut(&str, &[usize], &mut [f32], &mut [f32])> ParamVisitor for F {
    fn visit(&mut self, name: &str, shape: &[usize], params: &mut [f32], grads: &mut [f32]) {
        self(name, shape, params, grads)
    }
}

/// A differentiable module with manually implemented backpropagation.
pub trait Layer: Send {
    /// Forward pass. `train` selects training behaviour (e.g. batch
    /// statistics in [`crate::norm::BatchNorm2d`]); backward may only be
    /// called after a `forward` with `train = true`.
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor;

    /// Backward pass: consume ∂L/∂output, accumulate parameter gradients,
    /// return ∂L/∂input.
    ///
    /// May be called any number of times after one `forward(x, true)`:
    /// it reads the cached activations without consuming them, so each
    /// call differentiates the same forward against a new output
    /// gradient. Parameter gradients accumulate across calls; the caller
    /// zeroes them in between (FedKNOW's restorer replays one training
    /// forward once per signature task this way).
    fn backward(&mut self, grad: Tensor) -> Tensor;

    /// Visit every (parameter, gradient) pair in a deterministic order.
    /// The default is a no-op for parameter-free layers.
    fn visit_params(&mut self, _v: &mut dyn ParamVisitor) {}

    /// Zero all gradient buffers. Default no-op for parameter-free layers.
    fn zero_grad(&mut self) {}

    /// Approximate FLOPs of one forward pass at the given input shape,
    /// and the output shape the layer produces. Drives the edge-device
    /// time model; multiply-accumulate counts as 2 FLOPs.
    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>);

    /// Human-readable layer kind for diagnostics.
    fn name(&self) -> &'static str;
}

/// Ordered composition of layers.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Empty container.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Append a layer, builder-style.
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Append a boxed layer in place.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of child layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Consume the container, yielding its layers (used to splice one
    /// sequence into another when assembling branches).
    pub fn into_layers(self) -> Vec<Box<dyn Layer>> {
        self.layers
    }

    /// Append all layers of another sequence.
    pub fn extend(mut self, other: Sequential) -> Self {
        self.layers.extend(other.into_layers());
        self
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        let verify = fedknow_verify::is_enabled();
        for l in &mut self.layers {
            x = l.forward(x, train);
            if verify {
                fedknow_verify::report(
                    "nn.finite_activation",
                    fedknow_verify::check::all_finite(l.name(), x.data()),
                );
            }
        }
        x
    }

    fn backward(&mut self, mut grad: Tensor) -> Tensor {
        let verify = fedknow_verify::is_enabled();
        for l in self.layers.iter_mut().rev() {
            grad = l.backward(grad);
            if verify {
                fedknow_verify::report(
                    "nn.finite_gradient",
                    fedknow_verify::check::all_finite(l.name(), grad.data()),
                );
            }
        }
        grad
    }

    fn visit_params(&mut self, v: &mut dyn ParamVisitor) {
        for l in &mut self.layers {
            l.visit_params(v);
        }
    }

    fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>) {
        let mut shape = in_shape.to_vec();
        let mut total = 0u64;
        for l in &self.layers {
            let (f, s) = l.flops(&shape);
            total += f;
            shape = s;
        }
        (total, shape)
    }

    fn name(&self) -> &'static str {
        "Sequential"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activations::ReLU;
    use crate::linear::Linear;
    use fedknow_math::rng::seeded;

    #[test]
    fn sequential_chains_forward_and_shapes() {
        let mut rng = seeded(1);
        let mut seq = Sequential::new()
            .push(Linear::new(&mut rng, 4, 8))
            .push(ReLU::new())
            .push(Linear::new(&mut rng, 8, 3));
        let x = Tensor::zeros(&[2, 4]);
        let y = seq.forward(x, false);
        assert_eq!(y.shape(), &[2, 3]);
    }

    #[test]
    fn visit_params_order_is_stable() {
        let mut rng = seeded(1);
        let mut seq = Sequential::new()
            .push(Linear::new(&mut rng, 4, 8))
            .push(Linear::new(&mut rng, 8, 3));
        let mut names = Vec::new();
        seq.visit_params(
            &mut |name: &str, _: &[usize], _: &mut [f32], _: &mut [f32]| {
                names.push(name.to_string());
            },
        );
        assert_eq!(
            names,
            vec![
                "linear.weight",
                "linear.bias",
                "linear.weight",
                "linear.bias"
            ]
        );
    }

    #[test]
    fn flops_accumulate_through_children() {
        let mut rng = seeded(1);
        let seq = Sequential::new()
            .push(Linear::new(&mut rng, 4, 8))
            .push(ReLU::new())
            .push(Linear::new(&mut rng, 8, 3));
        let (f, out) = seq.flops(&[1, 4]);
        assert_eq!(out, vec![1, 3]);
        // 2*4*8 + 8 (bias) + 8 (relu) + 2*8*3 + 3
        assert_eq!(f, 64 + 8 + 8 + 48 + 3);
    }
}
