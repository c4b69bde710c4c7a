//! The client-algorithm interface and the shared model template.

use fedknow_data::ClientTask;
use fedknow_math::SparseVec;
use fedknow_nn::{Model, ModelKind};
use rand::rngs::StdRng;

/// A method-specific artefact exchanged through the server (e.g.
/// FedWEIT's task-adaptive weights). The simulator collects every active
/// client's payloads each round, broadcasts the full set, and charges the
/// wire cost in both directions.
#[derive(Debug, Clone, PartialEq)]
pub struct Payload {
    /// Sender (filled in by the simulator).
    pub from_client: usize,
    /// Method-defined tag (e.g. task index the artefact belongs to).
    pub tag: u64,
    /// The artefact itself — sparse index/value data.
    pub sparse: SparseVec,
}

impl Payload {
    /// Bytes on the wire: the sparse payload plus a small header.
    pub fn size_bytes(&self) -> u64 {
        self.sparse.size_bytes() as u64 + 16
    }
}

/// Bytes a client moves on the wire in one aggregation round, *beyond*
/// nothing — i.e. everything it sends and receives. The base FedAvg cost
/// (model up + model down) is charged by the simulator; methods with
/// extra traffic (FedWEIT's knowledge exchange) add it here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommBytes {
    /// Bytes uploaded to the server this round.
    pub up: u64,
    /// Bytes downloaded from the server this round.
    pub down: u64,
}

impl CommBytes {
    /// Sum of both directions.
    pub fn total(&self) -> u64 {
        self.up + self.down
    }
}

/// Statistics from one local training iteration.
#[derive(Debug, Clone, Copy, Default)]
pub struct IterationStats {
    /// Training loss at this iteration.
    pub loss: f64,
    /// FLOPs this iteration cost on the client device (forward + backward
    /// plus any method-specific extra work such as restored-gradient
    /// computations).
    pub flops: u64,
}

/// Architecture + shared initialisation all clients start from
/// ("the model is trained using the same initial weights", §V-B).
///
/// Either a zoo [`ModelKind`] or a custom builder closure — FedKNOW and
/// every baseline only need the flat parameter view, so any `Layer` tree
/// plugs in via [`ModelTemplate::from_builder`].
#[derive(Clone)]
pub struct ModelTemplate {
    /// Zoo architecture, when not custom.
    pub kind: ModelKind,
    /// Input channels.
    pub in_channels: usize,
    /// Output width — the dataset's *total* class count.
    pub num_classes: usize,
    /// Width multiplier passed to the zoo builder.
    pub width: f64,
    /// The shared initial flat parameter vector.
    pub init: Vec<f32>,
    /// Custom architecture builder (overrides `kind` when present).
    custom: Option<std::sync::Arc<dyn Fn() -> Model + Send + Sync>>,
}

impl ModelTemplate {
    /// Create a template with a freshly drawn shared initialisation.
    pub fn new(
        kind: ModelKind,
        in_channels: usize,
        num_classes: usize,
        width: f64,
        seed: u64,
    ) -> Self {
        let mut rng = fedknow_math::rng::seeded(seed);
        let mut model = kind.build(&mut rng, in_channels, num_classes, width);
        let init = model.flat_params();
        Self {
            kind,
            in_channels,
            num_classes,
            width,
            init,
            custom: None,
        }
    }

    /// Create a template around a custom architecture. The builder is
    /// called once per client; the first build's parameters become the
    /// shared initialisation.
    pub fn from_builder(
        builder: impl Fn() -> Model + Send + Sync + 'static,
        in_channels: usize,
        num_classes: usize,
    ) -> Self {
        let mut first = builder();
        let init = first.flat_params();
        Self {
            kind: ModelKind::SixCnn, // unused when custom is set
            in_channels,
            num_classes,
            width: 1.0,
            init,
            custom: Some(std::sync::Arc::new(builder)),
        }
    }

    /// Instantiate a model carrying the shared initial weights.
    pub fn instantiate(&self) -> Model {
        let mut model = match &self.custom {
            Some(builder) => builder(),
            None => {
                let mut rng = fedknow_math::rng::seeded(0);
                self.kind
                    .build(&mut rng, self.in_channels, self.num_classes, self.width)
            }
        };
        model.set_flat_params(&self.init);
        model
    }

    /// Parameter count of the architecture.
    pub fn param_count(&self) -> usize {
        self.init.len()
    }

    /// Model size on the wire in bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.init.len() * std::mem::size_of::<f32>()) as u64
    }
}

/// A federated-continual-learning client algorithm.
///
/// The simulator drives the trait in this order per task:
/// `start_task` → r × (v × `train_iteration` → `upload` → server FedAvg →
/// `receive_global`) → `finish_task`; evaluation may be requested at any
/// task boundary via `evaluate`.
pub trait FclClient: Send {
    /// Begin training a new task on this client's local data.
    fn start_task(&mut self, task: &ClientTask, rng: &mut StdRng);

    /// One local training iteration (one minibatch).
    fn train_iteration(&mut self, rng: &mut StdRng) -> IterationStats;

    /// Model weights to upload for aggregation. `None` opts the client
    /// out of this round (e.g. an out-of-memory device).
    fn upload(&mut self) -> Option<Vec<f32>>;

    /// Receive the aggregated global model. Methods with personalisation
    /// may merge it partially; methods with post-aggregation fine-tuning
    /// (FedKNOW) run it here.
    fn receive_global(&mut self, global: &[f32], rng: &mut StdRng);

    /// Task finished: consolidate knowledge (extract signatures, update
    /// regularisers, store rehearsal memory, ...).
    fn finish_task(&mut self, rng: &mut StdRng);

    /// Top-1 accuracy on the given task's test data, restricted to that
    /// task's classes (task-incremental evaluation, as in the paper's
    /// benchmarks).
    fn evaluate(&mut self, task: &ClientTask) -> f64;

    /// Extra communication (beyond the base model up/down and any
    /// payloads) in the coming round. Default: none.
    fn extra_comm(&self) -> CommBytes {
        CommBytes::default()
    }

    /// Bytes the method's base model exchange actually puts on the wire,
    /// given the full model size. Default: the full model both ways
    /// (FedAvg). FedRep, for example, ships only its representation
    /// layers.
    fn base_comm(&self, full_model_bytes: u64) -> CommBytes {
        CommBytes {
            up: full_model_bytes,
            down: full_model_bytes,
        }
    }

    /// Artefacts to publish through the server this round (charged as
    /// upload bytes). Default: none.
    fn payload_out(&mut self) -> Vec<Payload> {
        Vec::new()
    }

    /// Receive every client's published artefacts for this round
    /// (including other clients'; the simulator charges the download).
    fn payloads_in(&mut self, _payloads: &[Payload], _rng: &mut StdRng) {}

    /// Bytes of state retained across tasks (knowledge, rehearsal
    /// samples, adaptive weights, ...) — drives the OOM model. Default 0.
    fn retained_bytes(&self) -> u64 {
        0
    }

    /// The client-state stream: everything this client must keep across
    /// a task boundary, as one flat vector, for a simulation checkpoint.
    /// A method that opts in returns its weights, any state it retains
    /// across tasks, and the model's state buffers
    /// ([`Model::flat_buffers`]), so that [`Self::restore_checkpoint`]
    /// on a fresh client continues bit-identically.
    ///
    /// Default: `None` — this method's state is not known to fit the
    /// stream, and [`Simulation::checkpoint`] refuses it with
    /// [`SimError::BadCheckpoint`] rather than resume differently.
    ///
    /// [`Simulation::checkpoint`]: crate::Simulation::checkpoint
    /// [`SimError::BadCheckpoint`]: crate::SimError::BadCheckpoint
    fn checkpoint_params(&mut self) -> Option<Vec<f32>> {
        None
    }

    /// Restore a fresh client from a stream captured by
    /// [`Self::checkpoint_params`]. Only called for methods that opted
    /// in. Default: treat the stream as an incoming global model, which
    /// fits a method whose whole state is the vector it uploads.
    fn restore_checkpoint(&mut self, params: &[f32], rng: &mut StdRng) {
        self.receive_global(params, rng);
    }

    /// Method name for reports.
    fn method_name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_instantiations_share_weights() {
        let t = ModelTemplate::new(ModelKind::SixCnn, 3, 10, 1.0, 99);
        let mut a = t.instantiate();
        let mut b = t.instantiate();
        assert_eq!(a.flat_params(), b.flat_params());
        assert_eq!(t.param_count(), a.param_count());
        assert_eq!(t.size_bytes(), 4 * a.param_count() as u64);
    }

    #[test]
    fn different_seeds_give_different_inits() {
        let a = ModelTemplate::new(ModelKind::SixCnn, 3, 10, 1.0, 1);
        let b = ModelTemplate::new(ModelKind::SixCnn, 3, 10, 1.0, 2);
        assert_ne!(a.init, b.init);
    }

    #[test]
    fn comm_bytes_total() {
        let c = CommBytes { up: 10, down: 32 };
        assert_eq!(c.total(), 42);
    }
}
