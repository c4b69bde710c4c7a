//! From-scratch neural-network substrate for the FedKNOW reproduction.
//!
//! The paper trains DNNs (a 6-layer CNN, ResNet-18, and eight further
//! architectures) with PyTorch; the Rust DL ecosystem gate means we build
//! the training stack ourselves. The substrate uses *manual layer-wise
//! backpropagation*: every [`layer::Layer`] caches its forward activations
//! and implements its own `backward`, and composite blocks (residual,
//! squeeze-excitation, dense, inception, shuffle) spell out the chain rule
//! explicitly. This keeps the system small, fast, and easy to verify with
//! finite-difference gradient checks (see `tests/gradcheck.rs`).
//!
//! The FCL algorithms above this crate never touch layers directly — they
//! operate on a [`model::Model`]'s *parameter arena* and *gradient slots*
//! ([`model::Model::params`], [`model::Model::grad_slot`]): one flat
//! vector of every weight and one of every gradient per backward slot,
//! which is exactly the representation FedKNOW's pruning, distillation
//! and QP integration need. The model owns both; a layer keeps only the
//! offsets [`layer::Layer::bind`] gave it and reads the arena the model
//! passes to `forward` and `backward`.

pub mod activations;
pub mod blocks;
pub mod conv;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod model;
pub mod models;
pub mod norm;
pub mod optim;
pub mod pool;

pub use layer::{Layer, Sequential};
pub use model::Model;
pub use models::ModelKind;
