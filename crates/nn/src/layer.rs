//! The [`Layer`] trait and [`Sequential`] container.
//!
//! Layers are stateful: `forward` caches whatever the matching `backward`
//! needs (inputs, masks, normalisation statistics), and `backward`
//! *accumulates* parameter gradients into per-layer grad buffers while
//! returning the gradient with respect to the layer input. A training step
//! is therefore `zero_grad → forward(train=true) → backward → optimiser`.
//!
//! One backward pass can differentiate one forward against several output
//! gradients at once — FedKNOW's restorer stacks the training loss's
//! gradient and every signature task's distillation gradient — so each
//! parameter gradient has *slots* ([`Grad`]): slot 0 is the one
//! [`Layer::visit_params`] exposes, slots `1..s` are handed out by
//! [`Layer::take_grad_slots`].

use fedknow_math::tensor::MAX_RANK;
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
    /// `grad` holds `s ≥ 1` output gradients of the cached forward
    /// (*slots*), stacked slot-major along the batch dimension: for a
    /// forward over `B` samples it is `[s·B, …]`, rows `j·B..(j+1)·B`
    /// being slot `j`. Every layer infers `s` as `grad`'s batch over the
    /// cached one. The returned input gradient is stacked the same way,
    /// slot `j`'s parameter gradient accumulates into gradient slot `j`,
    /// and each slot's result is bit-identical to a backward of that slot
    /// alone. `s = 1` is training.
    ///
    /// May be called any number of times after one `forward(x, true)`:
    /// it reads the cached activations without consuming them, so each
    /// call differentiates the same forward against new output
    /// gradients. Parameter gradients accumulate across calls; the caller
    /// zeroes them in between.
    fn backward(&mut self, grad: Tensor) -> Tensor;

    /// Visit every (parameter, gradient) pair in a deterministic order;
    /// the gradient is slot 0. The default is a no-op for parameter-free
    /// layers.
    fn visit_params(&mut self, _v: &mut dyn ParamVisitor) {}

    /// Hand the gradient slots `1..s` of the last `s`-slot backward to
    /// `v`, one call per parameter tensor in
    /// [`visit_params`](Self::visit_params) order with the tensor's
    /// length and its `(s − 1)·len` floats (slot-major), and release
    /// them. Slot 0 stays. Default no-op for parameter-free layers.
    fn take_grad_slots(&mut self, _v: &mut dyn FnMut(usize, Vec<f32>)) {}

    /// Visit every state buffer that is not a parameter but that
    /// inference reads (BatchNorm's running statistics), in a
    /// deterministic order. Composites forward the call to their
    /// children. The default is a no-op for layers without such state.
    fn visit_buffers(&mut self, _v: &mut dyn FnMut(&mut [f32])) {}

    /// Zero all gradient buffers (every slot). Default no-op for
    /// parameter-free layers.
    fn zero_grad(&mut self) {}

    /// Approximate FLOPs of one forward pass at the given input shape,
    /// and the output shape the layer produces. Drives the edge-device
    /// time model; multiply-accumulate counts as 2 FLOPs.
    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>);

    /// Human-readable layer kind for diagnostics.
    fn name(&self) -> &'static str;
}

/// One parameter tensor's gradient buffer, in slots (see [`Layer::backward`]):
/// slot 0, which [`Layer::visit_params`] exposes, and the slots `1..s` of
/// the last `s`-slot backward, kept until [`take_rest`](Self::take_rest)
/// hands them out. A single-slot backward holds no storage beyond slot 0.
pub(crate) struct Grad {
    main: Vec<f32>,
    rest: Vec<f32>,
}

impl Grad {
    /// A zeroed gradient of `len` floats.
    pub(crate) fn zeros(len: usize) -> Self {
        Self {
            main: vec![0.0; len],
            rest: Vec::new(),
        }
    }

    /// Slot 0.
    pub(crate) fn main(&mut self) -> &mut [f32] {
        &mut self.main
    }

    /// Size the buffer for an `s`-slot backward: slots `1..s` keep what
    /// they hold, new ones start at zero, slots past `s` are dropped
    /// (their storage is kept, so a steady state does not allocate).
    pub(crate) fn set_slots(&mut self, s: usize) {
        self.rest.resize((s - 1) * self.main.len(), 0.0);
    }

    /// Slot `j`, of the `s` set by [`set_slots`](Self::set_slots).
    pub(crate) fn slot(&mut self, j: usize) -> &mut [f32] {
        if j == 0 {
            return &mut self.main;
        }
        let len = self.main.len();
        &mut self.rest[(j - 1) * len..j * len]
    }

    /// Zero every slot.
    pub(crate) fn zero(&mut self) {
        self.main.fill(0.0);
        self.rest.fill(0.0);
    }

    /// [`Layer::take_grad_slots`] for this tensor.
    pub(crate) fn take_rest(&mut self, v: &mut dyn FnMut(usize, Vec<f32>)) {
        v(self.main.len(), std::mem::take(&mut self.rest));
    }
}

/// How many slots a stacked output gradient of `grad_len` floats holds
/// when the cached forward's output (one slot) held `out_len`. Panics
/// unless it is a whole number of at least one.
pub(crate) fn slot_count(grad_len: usize, out_len: usize, layer: &str) -> usize {
    if out_len == 0 {
        assert_eq!(grad_len, 0, "{layer} backward before forward(train)");
        return 1;
    }
    assert!(
        grad_len >= out_len && grad_len.is_multiple_of(out_len),
        "{layer} backward before forward(train), or a gradient of {grad_len} floats \
         that is no stack of {out_len}-float slots"
    );
    grad_len / out_len
}

/// `shape` with its batch dimension multiplied by `s`: the shape of `s`
/// stacked slots. Built inline (rank ≤ 4) so a backward stays
/// allocation-free; use as `&dims[..shape.len()]`.
pub(crate) fn stacked_shape(shape: &[usize], s: usize) -> [usize; MAX_RANK] {
    let mut dims = [0usize; MAX_RANK];
    dims[..shape.len()].copy_from_slice(shape);
    dims[0] *= s;
    dims
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

    fn take_grad_slots(&mut self, v: &mut dyn FnMut(usize, Vec<f32>)) {
        for l in &mut self.layers {
            l.take_grad_slots(v);
        }
    }

    fn visit_buffers(&mut self, v: &mut dyn FnMut(&mut [f32])) {
        for l in &mut self.layers {
            l.visit_buffers(v);
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
