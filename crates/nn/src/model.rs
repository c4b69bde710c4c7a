//! The [`Model`] wrapper: a layer tree plus the flat parameter/gradient
//! view every FCL algorithm in the workspace operates on.

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

/// A trainable model: a root layer, its input shape, and flat-vector access
/// to all parameters and gradients.
pub struct Model {
    root: Box<dyn Layer>,
    input_shape: Vec<usize>,
    num_classes: usize,
    layout: Vec<ParamSegment>,
    param_count: usize,
}

impl Model {
    /// Wrap a root layer. `input_shape` excludes the batch dimension
    /// (e.g. `[3, 16, 16]`); `num_classes` is the output width.
    pub fn new(root: impl Layer + 'static, input_shape: &[usize], num_classes: usize) -> Self {
        Self::from_boxed(Box::new(root), input_shape, num_classes)
    }

    /// Wrap an already-boxed root layer.
    pub fn from_boxed(mut root: Box<dyn Layer>, input_shape: &[usize], num_classes: usize) -> Self {
        let mut layout = Vec::new();
        let mut offset = 0usize;
        root.visit_params(
            &mut |name: &str, shape: &[usize], p: &mut [f32], _: &mut [f32]| {
                layout.push(ParamSegment {
                    name: name.to_string(),
                    offset,
                    len: p.len(),
                    shape: shape.to_vec(),
                });
                offset += p.len();
            },
        );
        Self {
            root,
            input_shape: input_shape.to_vec(),
            num_classes,
            layout,
            param_count: offset,
        }
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Parameter-vector layout: one segment per parameter tensor, in the
    /// stable visit order.
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
        self.param_count * std::mem::size_of::<f32>()
    }

    /// Forward pass. `x` is `[B, ...input_shape]`.
    pub fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        self.root.forward(x, train)
    }

    /// Backward pass from the loss gradient at the output — or from `s`
    /// of them stacked slot-major (`[s·B, classes]` for a `B`-row
    /// forward; see [`Layer::backward`]): slot 0's parameter gradient
    /// lands in the gradient buffers, slots `1..s` are read with
    /// [`take_slot_grads`](Self::take_slot_grads).
    pub fn backward(&mut self, grad: Tensor) -> Tensor {
        self.root.backward(grad)
    }

    /// The parameter gradients of slots `1..s` of the last `s`-slot
    /// backward, one flat vector (stable order) per slot; their storage
    /// in the layers is released. Slot 0 stays in the gradient buffers.
    /// Empty after a one-slot backward.
    pub fn take_slot_grads(&mut self) -> Vec<Vec<f32>> {
        let p = self.param_count;
        let mut slots: Vec<Vec<f32>> = Vec::new();
        self.root
            .take_grad_slots(&mut |len: usize, rest: Vec<f32>| {
                if len == 0 {
                    return;
                }
                if slots.is_empty() {
                    slots = (0..rest.len() / len)
                        .map(|_| Vec::with_capacity(p))
                        .collect();
                }
                for (flat, part) in slots.iter_mut().zip(rest.chunks_exact(len)) {
                    flat.extend_from_slice(part);
                }
            });
        assert!(
            slots.iter().all(|g| g.len() == p),
            "gradient slots differ in count between layers"
        );
        slots
    }

    /// Zero all gradient buffers.
    pub fn zero_grad(&mut self) {
        self.root.zero_grad();
    }

    /// Copy all parameters into one flat vector (stable order).
    pub fn flat_params(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count);
        self.root
            .visit_params(&mut |_: &str, _: &[usize], p: &mut [f32], _: &mut [f32]| {
                out.extend_from_slice(p);
            });
        out
    }

    /// Copy all gradients (slot 0) into one flat vector (stable order).
    pub fn flat_grads(&mut self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count);
        self.root
            .visit_params(&mut |_: &str, _: &[usize], _: &mut [f32], g: &mut [f32]| {
                out.extend_from_slice(g);
            });
        out
    }

    /// Overwrite all parameters from a flat vector. Panics on length
    /// mismatch.
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.param_count,
            "flat parameter length mismatch"
        );
        let mut off = 0usize;
        self.root
            .visit_params(&mut |_: &str, _: &[usize], p: &mut [f32], _: &mut [f32]| {
                p.copy_from_slice(&flat[off..off + p.len()]);
                off += p.len();
            });
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

    /// `w ← w − lr · update` over the flat view, without materialising the
    /// parameter vector.
    pub fn apply_update(&mut self, update: &[f32], lr: f32) {
        assert_eq!(update.len(), self.param_count, "update length mismatch");
        let mut off = 0usize;
        self.root
            .visit_params(&mut |_: &str, _: &[usize], p: &mut [f32], _: &mut [f32]| {
                let len = p.len();
                for (w, &u) in p.iter_mut().zip(&update[off..off + len]) {
                    *w -= lr * u;
                }
                off += len;
            });
    }

    /// `w ← w − lr · grad` using each layer's own gradient buffers.
    pub fn sgd_step(&mut self, lr: f32) {
        self.root
            .visit_params(&mut |_: &str, _: &[usize], p: &mut [f32], g: &mut [f32]| {
                for (w, &gi) in p.iter_mut().zip(g.iter()) {
                    *w -= lr * gi;
                }
            });
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
