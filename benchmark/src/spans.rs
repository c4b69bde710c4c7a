//! Outside-in tracing: spans recorded by the benchmark around calls
//! into public functions, held in memory and written out at exit.
//!
//! [`SpanClient`] decorates a `Box<dyn FclClient>` so the real round
//! engines (`Simulation`, `FederationRuntime`) can be traced without a
//! line of instrumentation inside them: every protocol call a client
//! receives becomes a span under the run's root span.

use fedknow_data::ClientTask;
use fedknow_fl::{CommBytes, FclClient, IterationStats, Payload};
use rand::rngs::StdRng;
use serde::Serialize;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    /// What ran (`train_iteration`, `run.serial`, ...).
    pub name: &'static str,
    /// The crate the call went into.
    pub layer: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Client the call was made on.
    pub client: Option<usize>,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store shared by every thread of a traced run.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// Empty recorder; its clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Open a span and return its index.
    pub fn begin(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<usize>,
        client: Option<usize>,
    ) -> usize {
        let mut spans = self.lock();
        let now = self.origin.elapsed().as_nanos() as u64;
        spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent,
            client,
        });
        spans.len() - 1
    }

    /// Move a span's start to now. A root has to exist before the
    /// clients that name it as their parent are built, but should cover
    /// only the run.
    pub fn restart(&self, id: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.lock()[id].start_ns = now;
    }

    /// Close a span opened by [`Self::begin`].
    pub fn end(&self, id: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.lock()[id].end_ns = now;
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Time inside `spans[id]` not covered by any of its direct children.
/// Children may overlap one another (clients on parallel threads) and
/// are clipped to the parent, so the covered part is the length of the
/// union of their intervals.
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (start, end) in kids {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    parent.duration_ns() - covered
}

/// Summed duration of the direct children of `root` named `name`.
pub fn child_ns(spans: &[Span], root: usize, name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == Some(root) && s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// A client that records a span around every protocol call and
/// otherwise forwards to the client it wraps. Every trait method is
/// forwarded, the defaulted ones too: a default taken from the trait
/// instead of the wrapped client would change the run.
pub struct SpanClient {
    inner: Box<dyn FclClient>,
    rec: Arc<Recorder>,
    root: usize,
    client: usize,
    layer: &'static str,
}

impl SpanClient {
    /// Wrap `inner`, client number `client`, under the span `root`.
    /// `layer` is the crate the method lives in.
    pub fn wrap(
        inner: Box<dyn FclClient>,
        rec: Arc<Recorder>,
        root: usize,
        client: usize,
        layer: &'static str,
    ) -> Box<dyn FclClient> {
        Box::new(Self {
            inner,
            rec,
            root,
            client,
            layer,
        })
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut dyn FclClient) -> R) -> R {
        let id = self
            .rec
            .begin(name, self.layer, Some(self.root), Some(self.client));
        let out = f(self.inner.as_mut());
        self.rec.end(id);
        out
    }
}

impl FclClient for SpanClient {
    fn start_task(&mut self, task: &ClientTask, rng: &mut StdRng) {
        self.span("start_task", |c| c.start_task(task, rng))
    }

    fn train_iteration(&mut self, rng: &mut StdRng) -> IterationStats {
        self.span("train_iteration", |c| c.train_iteration(rng))
    }

    fn upload(&mut self) -> Option<Vec<f32>> {
        self.span("upload", |c| c.upload())
    }

    fn receive_global(&mut self, global: &[f32], rng: &mut StdRng) {
        self.span("receive_global", |c| c.receive_global(global, rng))
    }

    fn finish_task(&mut self, rng: &mut StdRng) {
        self.span("finish_task", |c| c.finish_task(rng))
    }

    fn evaluate(&mut self, task: &ClientTask) -> f64 {
        self.span("evaluate", |c| c.evaluate(task))
    }

    fn extra_comm(&self) -> CommBytes {
        self.inner.extra_comm()
    }

    fn base_comm(&self, full_model_bytes: u64) -> CommBytes {
        self.inner.base_comm(full_model_bytes)
    }

    fn payload_out(&mut self) -> Vec<Payload> {
        self.span("payload_out", |c| c.payload_out())
    }

    fn payloads_in(&mut self, payloads: &[Payload], rng: &mut StdRng) {
        self.span("payloads_in", |c| c.payloads_in(payloads, rng))
    }

    fn retained_bytes(&self) -> u64 {
        self.inner.retained_bytes()
    }

    fn checkpoint_params(&mut self) -> Option<Vec<f32>> {
        self.inner.checkpoint_params()
    }

    fn restore_checkpoint(&mut self, params: &[f32], rng: &mut StdRng) {
        self.inner.restore_checkpoint(params, rng)
    }

    fn method_name(&self) -> &'static str {
        self.inner.method_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{setup, setup_plain, Engine, Workload};

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            layer: "test",
            start_ns,
            end_ns,
            parent,
            client: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            // A grandchild is already inside its parent's interval.
            span(15, 30, Some(1)),
            span(60, 80, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 30 - 20);
        assert_eq!(self_ns(&spans, 1), 30 - 15);
        assert_eq!(self_ns(&spans, 2), 15);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 50, Some(0)),
            span(30, 70, Some(0)),
            // Entirely inside the first two.
            span(35, 45, Some(0)),
            // Sticks out past the parent: clipped.
            span(90, 130, Some(0)),
        ];
        // Union: [10, 70] and [90, 100].
        assert_eq!(self_ns(&spans, 0), 100 - 60 - 10);
    }

    #[test]
    fn child_ns_sums_by_name() {
        let mut spans = vec![
            span(0, 100, None),
            span(0, 10, Some(0)),
            span(20, 25, Some(0)),
        ];
        spans[2].name = "other";
        assert_eq!(child_ns(&spans, 0, "s"), 10);
        assert_eq!(child_ns(&spans, 0, "other"), 5);
    }

    #[test]
    fn span_client_is_transparent_on_every_engine() {
        for name in ["cnn_fedknow_t10", "cnn_fedavg_fleet"] {
            let base = Workload::by_name(name, 11, true).expect("known workload");
            let (plain, _) = setup_plain(&base);
            let (want, _) = plain.run().expect("plain run");
            for engine in [
                Engine::InProcess { parallel: false },
                Engine::InProcess { parallel: true },
                Engine::Tcp,
            ] {
                let rec = Recorder::new();
                let root = rec.begin("run", "fl", None, None);
                let (built, _) = setup(&base.on(engine), &|c, inner| {
                    SpanClient::wrap(inner, rec.clone(), root, c, "test")
                });
                let (got, _) = built.run().expect("wrapped run");
                rec.end(root);
                assert_eq!(got, want, "{name} on {engine:?}");
                let spans = rec.snapshot();
                let clients = base.spec.num_clients as u64;
                let iters =
                    clients * (base.spec.iters_per_round * base.spec.rounds_per_task) as u64;
                let count = |n: &str| spans.iter().filter(|s| s.name == n).count() as u64;
                assert_eq!(count("train_iteration"), iters);
                assert_eq!(count("start_task"), clients);
                assert_eq!(count("finish_task"), clients);
                assert_eq!(count("evaluate"), clients);
                assert!(spans[1..].iter().all(|s| s.parent == Some(root)));
            }
        }
    }
}
