//! Differential acceptance suite: every production hot kernel against
//! its slow f64 oracle, ≥ 200 seeded cases each (`FEDKNOW_VERIFY_CASES`
//! / `FEDKNOW_VERIFY_SEED` bound a CI run). A failure prints the exact
//! reproducer seed — see README §Verification.

use fedknow_math::Tensor;
use fedknow_nn::conv::Conv2d;
use fedknow_nn::Model;
use fedknow_verify::fuzz::{cases_from_env, seed_from_env};
use fedknow_verify::suite::{self, ConvCase, DEFAULT_CASES, DEFAULT_SEED};

fn cases() -> usize {
    cases_from_env(DEFAULT_CASES)
}

fn seed() -> u64 {
    seed_from_env(DEFAULT_SEED)
}

/// Build the production `Conv2d`, alone in a model, with the case's
/// exact weight/bias planted in the model's parameter arena.
fn production_conv(c: &ConvCase) -> Model {
    let s = &c.spec;
    let mut rng = fedknow_math::rng::seeded(0);
    let conv = Conv2d::new(
        &mut rng, s.in_c, s.out_c, s.kernel, s.stride, s.padding, s.groups,
    );
    let mut conv = Model::new(conv, &[s.in_c, s.h, s.w], s.out_c);
    for seg in conv.layout().to_vec() {
        let src = match seg.name.as_str() {
            "conv.weight" => &c.weight,
            "conv.bias" => &c.bias,
            other => panic!("unexpected Conv2d parameter {other}"),
        };
        conv.params_mut()[seg.offset..seg.offset + seg.len].copy_from_slice(src);
    }
    conv
}

fn input_tensor(c: &ConvCase) -> Tensor {
    let s = &c.spec;
    Tensor::from_vec(c.input.clone(), &[s.batch, s.in_c, s.h, s.w])
}

#[test]
fn conv2d_forward_matches_direct_loop_oracle() {
    suite::conv_forward(seed(), cases(), |c| {
        let mut conv = production_conv(c);
        Some(conv.forward(input_tensor(c), false).into_vec())
    })
    .assert_clean();
}

#[test]
fn conv2d_backward_matches_direct_loop_oracle() {
    suite::conv_backward(seed(), cases(), |c| {
        let s = &c.spec;
        let mut conv = production_conv(c);
        let _ = conv.forward(input_tensor(c), true);
        let (oh, ow) = s.out_hw();
        let gy = Tensor::from_vec(c.gy.clone(), &[s.batch, s.out_c, oh, ow]);
        let mut out = conv.backward(gy).into_vec();
        out.extend_from_slice(conv.grad_slot(0));
        Some(out)
    })
    .assert_clean();
}

#[test]
fn matmul_matches_naive_triple_loop() {
    let r = suite::matmul(seed(), cases());
    r.assert_clean();
    assert_eq!(r.compared(), cases());
}

#[test]
fn matmul_on_tile_boundaries_matches_naive_triple_loop() {
    let r = suite::matmul_tiles(seed(), cases());
    r.assert_clean();
    assert_eq!(r.compared(), cases());
}

#[test]
fn conv2d_forward_on_tile_boundaries_matches_oracle() {
    suite::conv_forward_tiles(seed(), cases(), |c| {
        let mut conv = production_conv(c);
        Some(conv.forward(input_tensor(c), false).into_vec())
    })
    .assert_clean();
}

#[test]
fn conv2d_backward_on_tile_boundaries_matches_oracle() {
    suite::conv_backward_tiles(seed(), cases(), |c| {
        let s = &c.spec;
        let mut conv = production_conv(c);
        let _ = conv.forward(input_tensor(c), true);
        let (oh, ow) = s.out_hw();
        let gy = Tensor::from_vec(c.gy.clone(), &[s.batch, s.out_c, oh, ow]);
        let mut out = conv.backward(gy).into_vec();
        out.extend_from_slice(conv.grad_slot(0));
        Some(out)
    })
    .assert_clean();
}

#[test]
fn qp_matches_exhaustive_active_set_oracle() {
    let r = suite::qp(seed(), cases());
    r.assert_clean();
    // The exhaustive oracle must actually engage on most cases (both
    // sides may skip: solver non-convergence, k above the cap).
    assert!(
        r.compared() >= cases() / 2,
        "only {} of {} QP cases were compared",
        r.compared(),
        r.cases
    );
}

#[test]
fn qp_above_cap_is_kkt_certified() {
    let r = suite::qp_certify(seed(), cases());
    r.assert_clean();
    assert!(r.compared() >= cases() / 2);
}

/// The `k×k` solve on Gram matrices built directly (`k ≤ 12`:
/// near-parallel rows, condition numbers up to 1e8, singular Grams, zero
/// rows): KKT-certified, and `g'` within `QP_DUAL_TOL` of the oracle's.
#[test]
fn qp_dual_matches_the_oracle_on_built_gram_matrices() {
    let r = suite::qp_dual(seed(), cases());
    r.assert_clean();
    assert!(r.compared() >= cases() / 2);
}

#[test]
fn wasserstein_matches_explicit_cdf_oracle() {
    let r = suite::wasserstein(seed(), cases());
    r.assert_clean();
    assert_eq!(r.compared(), cases());
}

#[test]
fn top_rho_matches_full_sort_oracle() {
    let r = suite::top_rho(seed(), cases());
    r.assert_clean();
    assert_eq!(r.compared(), cases());
}

#[test]
fn fedavg_matches_weighted_mean_oracle() {
    let r = suite::fedavg(seed(), cases(), |c| {
        fedknow_fl::server::fedavg(&c.uploads, &c.weights)
            .expect("generated case is well-formed")
            .global
    });
    r.assert_clean();
    assert_eq!(r.compared(), cases());
}
