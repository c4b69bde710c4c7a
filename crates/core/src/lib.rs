//! FedKNOW: federated continual learning with signature-task knowledge
//! integration (the paper's §III).
//!
//! A FedKNOW client owns three components, wired together by
//! [`client::FedKnowClient`]:
//!
//! 1. [`extractor::KnowledgeExtractor`] — after each task converges,
//!    retain the top-ρ fraction of model weights by magnitude as the
//!    task's *signature knowledge* `W_i` (Eq. 1), then fine-tune only
//!    those retained weights for a few iterations (§III-B step 3).
//! 2. [`restorer::GradientRestorer`] — re-derive a past task's gradient
//!    without its data (Eq. 2): forward the *current* batch through the
//!    model restricted to `W_i` to get pseudo-labels, then take the
//!    gradient of the cross-entropy between the live model's predictions
//!    and those pseudo-labels. Among all `m` past tasks, only the `k`
//!    whose gradients are most dissimilar from the current gradient
//!    (largest Wasserstein distance) are restored per iteration — the
//!    *signature tasks*.
//! 3. [`integrator::GradientIntegrator`] — solve the dual QP (Eqs. 3–5)
//!    so the update direction keeps an acute angle with every signature
//!    gradient (forgetting prevention), and, across each aggregation
//!    boundary, with the post-aggregation gradient (negative-transfer
//!    prevention, §III-A/§III-E).

pub mod client;
pub mod config;
pub mod extractor;
pub mod integrator;
pub mod restorer;

pub use client::FedKnowClient;
pub use config::FedKnowConfig;
pub use extractor::{ExtractionStrategy, KnowledgeExtractor};
pub use integrator::GradientIntegrator;
pub use restorer::GradientRestorer;
