//! The [`Model`] wrapper: a layer tree plus the parameter arena and
//! gradient slab every FCL algorithm in the workspace operates on.

use crate::layer::Layer;
use fedknow_math::Tensor;

/// One named parameter tensor's position in the flat vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSegment {
    /// Diagnostic name (e.g. `conv.weight`), not unique across the model.
    pub name: String,
    /// Offset into the flat vector.
    pub offset: usize,
    /// Element count.
    pub len: usize,
    /// Logical tensor shape (`[out, fan]` for weights, `[out]` for
    /// biases/affine parameters) — what structured pruning groups by.
    pub shape: Vec<usize>,
}

/// A trainable model: a root layer, its input shape, and the storage of
/// all its parameters and gradients.
///
/// The parameters are one arena of `P` floats in [`layout`](Self::layout)
/// order; the gradients are one slab of `s·P` floats, slot-major, for the
/// `s` output gradients of the last backward (see [`Layer::backward`]).
pub struct Model {
    root: Box<dyn Layer>,
    input_shape: Vec<usize>,
    num_classes: usize,
    layout: Vec<ParamSegment>,
    params: Vec<f32>,
    grads: Vec<f32>,
    /// Batch of the last training forward: a backward's slot count is
    /// its gradient's batch over this one.
    batch: usize,
}

impl Model {
    /// Wrap a root layer. `input_shape` excludes the batch dimension
    /// (e.g. `[3, 16, 16]`); `num_classes` is the output width.
    pub fn new(root: impl Layer + 'static, input_shape: &[usize], num_classes: usize) -> Self {
        Self::from_boxed(Box::new(root), input_shape, num_classes)
    }

    /// Wrap an already-boxed root layer, moving every layer's initial
    /// weights into the arena ([`Layer::bind`]).
    pub fn from_boxed(mut root: Box<dyn Layer>, input_shape: &[usize], num_classes: usize) -> Self {
        let mut layout = Vec::new();
        let mut inits = Vec::new();
        let mut len = 0;
        root.bind(&mut |name, shape, init| {
            let offset = len;
            len += init.len();
            layout.push(ParamSegment {
                name: name.to_string(),
                offset,
                len: init.len(),
                shape: shape.to_vec(),
            });
            inits.push(init);
            offset
        });
        // One exact allocation and one copy: growing the arena tensor by
        // tensor would copy a large model several times over.
        let params = inits.concat();
        Self {
            root,
            input_shape: input_shape.to_vec(),
            num_classes,
            layout,
            grads: vec![0.0; params.len()],
            params,
            batch: 0,
        }
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Parameter-vector layout: one segment per parameter tensor, in the
    /// stable bind order.
    pub fn layout(&self) -> &[ParamSegment] {
        &self.layout
    }

    /// Input shape without the batch dimension.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Output class count.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Model size on the wire, assuming `f32` parameters.
    pub fn size_bytes(&self) -> usize {
        self.param_count() * std::mem::size_of::<f32>()
    }

    /// Forward pass. `x` is `[B, ...input_shape]`.
    pub fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        if train {
            self.batch = x.shape()[0];
        }
        self.root.forward(&self.params, x, train)
    }

    /// Backward pass from the loss gradient at the output — or from `s`
    /// of them stacked slot-major (`[s·B, classes]` for a `B`-row
    /// forward; see [`Layer::backward`]): slot `j`'s parameter gradient
    /// accumulates into [`grad_slot`](Self::grad_slot)`(j)`. Slots kept
    /// from the last backward keep what they hold, new ones start at
    /// zero.
    pub fn backward(&mut self, grad: Tensor) -> Tensor {
        let s = match self.batch {
            0 => 1,
            b => (grad.shape()[0] / b).max(1),
        };
        self.grads.resize(s * self.params.len(), 0.0);
        self.root.backward(&self.params, &mut self.grads, grad)
    }

    /// The parameters, in layout order.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// The parameters, in layout order, to write in place.
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// Exchange the parameters with `other`: the model takes `other`'s
    /// values and `other` holds the model's. Two calls around a forward
    /// run it at other weights without copying any. Panics on length
    /// mismatch.
    pub fn swap_params(&mut self, other: &mut Vec<f32>) {
        assert_eq!(
            other.len(),
            self.params.len(),
            "swapped parameter length mismatch"
        );
        std::mem::swap(&mut self.params, other);
    }

    /// Gradient slot `j` of the last backward, in layout order: slot 0 is
    /// the training gradient. Panics unless that backward had more than
    /// `j` slots.
    pub fn grad_slot(&self, j: usize) -> &[f32] {
        let p = self.params.len();
        &self.grads[j * p..(j + 1) * p]
    }

    /// Zero all gradient slots.
    pub fn zero_grad(&mut self) {
        self.grads.fill(0.0);
    }

    /// Copy all parameters into one flat vector (stable order).
    pub fn flat_params(&mut self) -> Vec<f32> {
        self.params.to_vec()
    }

    /// Copy all gradients (slot 0) into one flat vector (stable order).
    pub fn flat_grads(&mut self) -> Vec<f32> {
        self.grad_slot(0).to_vec()
    }

    /// Overwrite all parameters from a flat vector. Panics on length
    /// mismatch.
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.params.len(),
            "flat parameter length mismatch"
        );
        self.params.copy_from_slice(flat);
    }

    /// Copy every layer's state buffers ([`Layer::visit_buffers`]: the
    /// BatchNorm running statistics) into one flat vector, in visit
    /// order. Empty for a model without such state.
    pub fn flat_buffers(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        self.root
            .visit_buffers(&mut |b: &mut [f32]| out.extend_from_slice(b));
        out
    }

    /// Overwrite every state buffer from a vector produced by
    /// [`flat_buffers`](Self::flat_buffers). Panics on length mismatch.
    pub fn set_flat_buffers(&mut self, flat: &[f32]) {
        let mut rest = flat;
        self.root.visit_buffers(&mut |b: &mut [f32]| {
            assert!(rest.len() >= b.len(), "flat buffer length mismatch");
            let (head, tail) = rest.split_at(b.len());
            b.copy_from_slice(head);
            rest = tail;
        });
        assert!(rest.is_empty(), "flat buffer length mismatch");
    }

    /// `w ← w − lr · update`.
    pub fn apply_update(&mut self, update: &[f32], lr: f32) {
        assert_eq!(update.len(), self.params.len(), "update length mismatch");
        for (w, &u) in self.params.iter_mut().zip(update) {
            *w -= lr * u;
        }
    }

    /// `w ← w − lr · grad`, with gradient slot 0.
    pub fn sgd_step(&mut self, lr: f32) {
        for (w, &g) in self.params.iter_mut().zip(&self.grads) {
            *w -= lr * g;
        }
    }

    /// Forward-pass FLOPs for a given batch size.
    pub fn flops(&self, batch: usize) -> u64 {
        let mut shape = vec![batch];
        shape.extend_from_slice(&self.input_shape);
        self.root.flops(&shape).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activations::ReLU;
    use crate::layer::Sequential;
    use crate::linear::Linear;
    use fedknow_math::rng::seeded;

    fn tiny_model() -> Model {
        let mut rng = seeded(1);
        let seq = Sequential::new()
            .push(Linear::new(&mut rng, 4, 8))
            .push(ReLU::new())
            .push(Linear::new(&mut rng, 8, 3));
        Model::new(seq, &[4], 3)
    }

    #[test]
    fn param_count_matches_layout() {
        let m = tiny_model();
        assert_eq!(m.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
        let total: usize = m.layout().iter().map(|s| s.len).sum();
        assert_eq!(total, m.param_count());
        assert_eq!(m.layout()[0].offset, 0);
        // Segments tile the vector with no gaps.
        for w in m.layout().windows(2) {
            assert_eq!(w[0].offset + w[0].len, w[1].offset);
        }
    }

    #[test]
    fn flat_params_roundtrip() {
        let mut m = tiny_model();
        let orig = m.flat_params();
        let doubled: Vec<f32> = orig.iter().map(|x| x * 2.0).collect();
        m.set_flat_params(&doubled);
        assert_eq!(m.flat_params(), doubled);
        // Two swaps put the weights back; in between the model holds the
        // other vector's and the other vector the model's.
        let mut other = orig.clone();
        m.swap_params(&mut other);
        assert_eq!(m.params(), &orig[..]);
        assert_eq!(other, doubled);
        m.swap_params(&mut other);
        assert_eq!(m.params(), &doubled[..]);
        assert_eq!(other, orig);
        let mut short = vec![0.0f32; orig.len() - 1];
        let swapped =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.swap_params(&mut short)));
        assert!(swapped.is_err(), "a mismatched length must panic");
        assert_eq!(m.params(), &doubled[..], "and leave the weights alone");
    }

    #[test]
    fn apply_update_is_sgd() {
        let mut m = tiny_model();
        let w0 = m.flat_params();
        let update = vec![1.0f32; m.param_count()];
        m.apply_update(&update, 0.1);
        let w1 = m.flat_params();
        for (a, b) in w0.iter().zip(&w1) {
            assert!((a - 0.1 - b).abs() < 1e-6);
        }
    }

    #[test]
    fn size_bytes_counts_f32() {
        let m = tiny_model();
        assert_eq!(m.size_bytes(), m.param_count() * 4);
    }
}
