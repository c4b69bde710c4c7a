//! The [`Layer`] trait and [`Sequential`] container.
//!
//! Layers are stateful: `forward` caches whatever the matching `backward`
//! needs (inputs, masks, normalisation statistics), and `backward`
//! *accumulates* parameter gradients while returning the gradient with
//! respect to the layer input. A training step is therefore
//! `zero_grad → forward(train=true) → backward → optimiser`.
//!
//! A layer owns no parameter or gradient storage. Its [`crate::Model`]
//! owns one parameter arena and one gradient slab; [`Layer::bind`] moves
//! each layer's initial weights into the arena when the model is built,
//! after which the layer keeps only the offset of its first tensor, and
//! `forward` / `backward` borrow the arena and the slab from the model.
//!
//! One backward pass can differentiate one forward against several output
//! gradients at once — FedKNOW's restorer stacks the training loss's
//! gradient and every signature task's distillation gradient — so the
//! slab has *slots*: `s` arena-sized gradients, slot-major, slot `j` of
//! the parameter at arena offset `o` at `o + j·P`.

use fedknow_math::tensor::MAX_RANK;
use fedknow_math::Tensor;

/// The callback of [`Layer::bind`]: append one parameter tensor (a
/// diagnostic name, its logical shape, its initial values) to the arena
/// and return its offset there.
pub type Bind<'a> = dyn FnMut(&'static str, &[usize], Vec<f32>) -> usize + 'a;

/// A differentiable module with manually implemented backpropagation.
pub trait Layer: Send {
    /// Forward pass. `params` is the model's parameter arena; the layer reads
    /// its own tensors at the offsets [`bind`](Self::bind) returned.
    /// `train` selects training behaviour (e.g. batch statistics in
    /// [`crate::norm::BatchNorm2d`]); backward may only be called after a
    /// `forward` with `train = true`.
    fn forward(&mut self, params: &[f32], x: Tensor, train: bool) -> Tensor;

    /// Backward pass: consume ∂L/∂output, accumulate parameter gradients
    /// into the gradient slab `grads`, return ∂L/∂input. `params` is the
    /// arena the forward read.
    ///
    /// `grad` holds `s ≥ 1` output gradients of the cached forward
    /// (*slots*), stacked slot-major along the batch dimension: for a
    /// forward over `B` samples it is `[s·B, …]`, rows `j·B..(j+1)·B`
    /// being slot `j`. Every layer infers `s` as `grad`'s batch over the
    /// cached one, and the slab holds `s` arena-sized slots
    /// ([`crate::Model::grad_slot`]). The returned input gradient is stacked the same
    /// way, slot `j`'s parameter gradient accumulates into gradient slot
    /// `j`, and each slot's result is bit-identical to a backward of that
    /// slot alone. `s = 1` is training.
    ///
    /// May be called any number of times after one `forward(x, true)`:
    /// it reads the cached activations without consuming them, so each
    /// call differentiates the same forward against new output
    /// gradients. Parameter gradients accumulate across calls; the caller
    /// zeroes them in between.
    fn backward(&mut self, params: &[f32], grads: &mut [f32], grad: Tensor) -> Tensor;

    /// Move the layer's initial parameters into the arena through `bind`,
    /// in a deterministic order, and keep the offsets it returns.
    /// Composites forward the call to their children. Called once, by
    /// [`crate::Model::new`]. The default is a no-op for parameter-free
    /// layers.
    fn bind(&mut self, _bind: &mut Bind) {}

    /// Visit every state buffer that is not a parameter but that
    /// inference reads (BatchNorm's running statistics), in a
    /// deterministic order. Composites forward the call to their
    /// children. The default is a no-op for layers without such state.
    fn visit_buffers(&mut self, _v: &mut dyn FnMut(&mut [f32])) {}

    /// Approximate FLOPs of one forward pass at the given input shape,
    /// and the output shape the layer produces. Drives the edge-device
    /// time model; multiply-accumulate counts as 2 FLOPs.
    fn flops(&self, in_shape: &[usize]) -> (u64, Vec<usize>);

    /// Human-readable layer kind for diagnostics.
    fn name(&self) -> &'static str;
}

/// Gradient slot `j` of the parameter run `off..off + len` in an
/// `s`-slot slab (see [`Layer::backward`]).
pub(crate) fn grad_slot(
    grads: &mut [f32],
    s: usize,
    j: usize,
    off: usize,
    len: usize,
) -> &mut [f32] {
    let stride = grads.len() / s;
    &mut grads[j * stride + off..][..len]
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
    fn forward(&mut self, params: &[f32], mut x: Tensor, train: bool) -> Tensor {
        let verify = fedknow_verify::is_enabled();
        for l in &mut self.layers {
            x = l.forward(params, x, train);
            if verify {
                fedknow_verify::report(
                    "nn.finite_activation",
                    fedknow_verify::check::all_finite(l.name(), x.data()),
                );
            }
        }
        x
    }

    fn backward(&mut self, params: &[f32], grads: &mut [f32], mut grad: Tensor) -> Tensor {
        let verify = fedknow_verify::is_enabled();
        for l in self.layers.iter_mut().rev() {
            grad = l.backward(params, grads, grad);
            if verify {
                fedknow_verify::report(
                    "nn.finite_gradient",
                    fedknow_verify::check::all_finite(l.name(), grad.data()),
                );
            }
        }
        grad
    }

    fn bind(&mut self, bind: &mut Bind) {
        for l in &mut self.layers {
            l.bind(bind);
        }
    }

    fn visit_buffers(&mut self, v: &mut dyn FnMut(&mut [f32])) {
        for l in &mut self.layers {
            l.visit_buffers(v);
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
    use crate::Model;
    use fedknow_math::rng::seeded;

    #[test]
    fn sequential_chains_forward_and_shapes() {
        let mut rng = seeded(1);
        let seq = Sequential::new()
            .push(Linear::new(&mut rng, 4, 8))
            .push(ReLU::new())
            .push(Linear::new(&mut rng, 8, 3));
        let mut m = Model::new(seq, &[4], 3);
        let x = Tensor::zeros(&[2, 4]);
        let y = m.forward(x, false);
        assert_eq!(y.shape(), &[2, 3]);
    }

    #[test]
    fn bind_order_is_stable() {
        let mut rng = seeded(1);
        let seq = Sequential::new()
            .push(Linear::new(&mut rng, 4, 8))
            .push(Linear::new(&mut rng, 8, 3));
        let m = Model::new(seq, &[4], 3);
        let names: Vec<&str> = m.layout().iter().map(|s| s.name.as_str()).collect();
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
