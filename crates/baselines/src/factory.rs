//! Method registry: build any of the 12 evaluated methods by name with
//! shared hyper-parameters — the single entry point the experiment
//! harness uses so every comparison is wired identically.

use crate::apfl::ApflClient;
use crate::bcn::BcnClient;
use crate::co2l::Co2lClient;
use crate::fedavg::FedAvgClient;
use crate::fedrep::FedRepClient;
use crate::fedweit::FedWeitClient;
use crate::flcn::FlcnClient;
use crate::gem::{AGemClient, GemClient};
use crate::regularized::{ImportanceKind, RegularizedClient};
use fedknow::{FedKnowClient, FedKnowConfig};
use fedknow_fl::{FclClient, ModelTemplate};
use serde::{Deserialize, Serialize};

/// All 12 methods of the paper's comparison (11 baselines + FedKNOW),
/// plus the FedWEIT own-only ablation of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Method {
    /// FedKNOW (this paper).
    FedKnow,
    /// Gradient episodic memory.
    Gem,
    /// Balanced continual learning.
    Bcn,
    /// Contrastive continual learning.
    Co2l,
    /// Elastic weight consolidation.
    Ewc,
    /// Memory-aware synapses.
    Mas,
    /// Adaptive group-sparsity continual learning.
    AgsCl,
    /// Plain FedAvg.
    FedAvg,
    /// Adaptive personalized federated learning.
    Apfl,
    /// Shared representation / personal head.
    FedRep,
    /// Federated continual local training.
    Flcn,
    /// Federated weighted inter-client transfer.
    FedWeit,
    /// FedWEIT using only its own adaptive weights (Figure 10 ablation).
    FedWeitOwn,
    /// A-GEM: averaged-gradient episodic memory (efficiency variant the
    /// paper cites with GEM).
    AGem,
}

impl Method {
    /// The 12-method comparison set of Figure 4 (excludes the ablation).
    pub const COMPARISON: [Method; 12] = [
        Method::FedKnow,
        Method::Gem,
        Method::Bcn,
        Method::Co2l,
        Method::Ewc,
        Method::Mas,
        Method::AgsCl,
        Method::FedAvg,
        Method::Apfl,
        Method::FedRep,
        Method::Flcn,
        Method::FedWeit,
    ];

    /// Every method [`build_client`] can instantiate.
    pub const ALL: [Method; 14] = [
        Method::FedKnow,
        Method::Gem,
        Method::Bcn,
        Method::Co2l,
        Method::Ewc,
        Method::Mas,
        Method::AgsCl,
        Method::FedAvg,
        Method::Apfl,
        Method::FedRep,
        Method::Flcn,
        Method::FedWeit,
        Method::FedWeitOwn,
        Method::AGem,
    ];

    /// The method whose [`Method::name`] is `name`.
    pub fn from_name(name: &str) -> Option<Method> {
        Self::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Stable report name.
    pub fn name(&self) -> &'static str {
        match self {
            Method::FedKnow => "fedknow",
            Method::Gem => "gem",
            Method::Bcn => "bcn",
            Method::Co2l => "co2l",
            Method::Ewc => "ewc",
            Method::Mas => "mas",
            Method::AgsCl => "agscl",
            Method::FedAvg => "fedavg",
            Method::Apfl => "apfl",
            Method::FedRep => "fedrep",
            Method::Flcn => "flcn",
            Method::FedWeit => "fedweit",
            Method::FedWeitOwn => "fedweit-own",
            Method::AGem => "agem",
        }
    }
}

/// Hyper-parameters shared across methods plus the method-specific knobs
/// the paper sets in §V-B.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodConfig {
    /// Base learning rate (paper: 0.001/0.0008, scaled for the synthetic
    /// substrate).
    pub lr: f64,
    /// Learning-rate decrease per step (paper: 1e-4/1e-5).
    pub lr_decrease: f64,
    /// Minibatch size.
    pub batch_size: usize,
    /// Rehearsal fraction for memory methods (paper: 10 %).
    pub memory_fraction: f64,
    /// FedKNOW configuration (ρ, k, metric, ...).
    pub fedknow: FedKnowConfig,
}

impl Default for MethodConfig {
    fn default() -> Self {
        Self {
            lr: 0.05,
            lr_decrease: 1e-4,
            batch_size: 16,
            memory_fraction: 0.10,
            fedknow: FedKnowConfig::default(),
        }
    }
}

/// Instantiate one client of the given method. `image_shape` is
/// `[C, H, W]` of the dataset.
pub fn build_client(
    method: Method,
    template: &ModelTemplate,
    cfg: &MethodConfig,
    image_shape: Vec<usize>,
) -> Box<dyn FclClient> {
    let (lr, dec, bs) = (cfg.lr, cfg.lr_decrease, cfg.batch_size);
    match method {
        Method::FedKnow => {
            let mut fk = cfg.fedknow.clone();
            fk.local_lr = lr;
            fk.global_lr = lr;
            fk.lr_decrease = dec;
            Box::new(FedKnowClient::new(template, fk, bs, image_shape))
        }
        Method::Gem => Box::new(GemClient::new(
            template,
            cfg.memory_fraction,
            lr,
            dec,
            bs,
            image_shape,
        )),
        Method::Bcn => Box::new(BcnClient::new(
            template,
            cfg.memory_fraction,
            lr,
            dec,
            bs,
            image_shape,
        )),
        Method::Co2l => Box::new(Co2lClient::new(
            template,
            cfg.memory_fraction,
            1.0,
            lr,
            dec,
            bs,
            image_shape,
        )),
        Method::Ewc => Box::new(RegularizedClient::new(
            template,
            ImportanceKind::Fisher,
            1.0, // paper: 40000, scaled to this loss landscape
            lr,
            dec,
            bs,
            image_shape,
        )),
        Method::Mas => Box::new(RegularizedClient::new(
            template,
            ImportanceKind::Mas,
            1.0, // paper: 100, scaled likewise
            lr,
            dec,
            bs,
            image_shape,
        )),
        Method::AgsCl => Box::new(RegularizedClient::new(
            template,
            ImportanceKind::PathIntegral,
            3.0,
            lr,
            dec,
            bs,
            image_shape,
        )),
        Method::FedAvg => Box::new(FedAvgClient::new(template, lr, dec, bs, image_shape)),
        Method::Apfl => Box::new(ApflClient::new(template, 0.5, lr, dec, bs, image_shape)),
        Method::FedRep => Box::new(FedRepClient::new(template, lr, dec, bs, image_shape)),
        Method::Flcn => Box::new(FlcnClient::new(
            template,
            cfg.memory_fraction,
            lr,
            dec,
            bs,
            image_shape,
        )),
        Method::FedWeit => Box::new(FedWeitClient::new(
            template,
            0.10,
            false,
            lr,
            dec,
            bs,
            image_shape,
        )),
        Method::FedWeitOwn => Box::new(FedWeitClient::new(
            template,
            0.10,
            true,
            lr,
            dec,
            bs,
            image_shape,
        )),
        Method::AGem => Box::new(AGemClient::new(
            template,
            cfg.memory_fraction,
            lr,
            dec,
            bs,
            image_shape,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedknow_nn::ModelKind;

    #[test]
    fn every_method_builds_and_names_itself() {
        let template = ModelTemplate::new(ModelKind::SixCnn, 3, 10, 1.0, 1);
        let cfg = MethodConfig::default();
        for m in Method::COMPARISON {
            let c = build_client(m, &template, &cfg, vec![3, 8, 8]);
            assert_eq!(c.method_name(), m.name(), "name mismatch for {m:?}");
        }
        let own = build_client(Method::FedWeitOwn, &template, &cfg, vec![3, 8, 8]);
        assert_eq!(own.method_name(), "fedweit-own");
    }

    #[test]
    fn comparison_set_has_twelve_methods() {
        assert_eq!(Method::COMPARISON.len(), 12);
        let mut names: Vec<&str> = Method::COMPARISON.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12, "duplicate method names");
    }

    #[test]
    fn every_method_round_trips_through_its_name() {
        for m in Method::ALL {
            assert_eq!(Method::from_name(m.name()), Some(m));
        }
        assert!(Method::ALL.starts_with(&Method::COMPARISON));
        assert_eq!(Method::from_name("agem"), Some(Method::AGem));
        assert_eq!(Method::from_name("sgd"), None);
    }
}
