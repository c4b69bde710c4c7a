//! Losses and classification metrics.
//!
//! Cross-entropy comes in two flavours: hard labels for ordinary task
//! training, and soft targets for FedKNOW's gradient restorer (paper
//! Eq. 2 distils against the pruned model's predicted distribution).

use fedknow_math::Tensor;

/// Mean cross-entropy of `logits [B, C]` against hard labels, plus the
/// gradient ∂L/∂logits (softmax − onehot, averaged over the batch).
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (b, c) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(b, labels.len(), "batch/label length mismatch");
    let probs = logits.softmax_rows();
    let mut loss = 0.0f32;
    let mut grad = probs.clone();
    let inv_b = 1.0 / b as f32;
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < c, "label {y} out of range {c}");
        let p = probs.at2(i, y).max(1e-12);
        loss -= p.ln();
        grad.data_mut()[i * c + y] -= 1.0;
    }
    grad.scale(inv_b);
    (loss * inv_b, grad)
}

/// Mean cross-entropy of `logits [B, C]` against a soft target
/// distribution `target [B, C]` (rows must sum to 1), plus ∂L/∂logits.
pub fn soft_cross_entropy(logits: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(
        logits.shape(),
        target.shape(),
        "logits/target shape mismatch"
    );
    let (b, c) = (logits.shape()[0], logits.shape()[1]);
    let probs = logits.softmax_rows();
    let mut loss = 0.0f32;
    let mut grad = probs.clone();
    let inv_b = 1.0 / b as f32;
    for i in 0..b {
        for j in 0..c {
            let t = target.at2(i, j);
            if t > 0.0 {
                loss -= t * probs.at2(i, j).max(1e-12).ln();
            }
            grad.data_mut()[i * c + j] -= t;
        }
    }
    grad.scale(inv_b);
    (loss * inv_b, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let logits = Tensor::from_vec(vec![10.0, 0.0, 0.0], &[1, 3]);
        let (loss, _) = cross_entropy(&logits, &[0]);
        assert!(loss < 0.01, "loss {loss}");
    }

    #[test]
    fn gradient_is_softmax_minus_onehot() {
        let logits = Tensor::from_vec(vec![0.0, 0.0], &[1, 2]);
        let (_, grad) = cross_entropy(&logits, &[1]);
        assert!((grad.data()[0] - 0.5).abs() < 1e-6);
        assert!((grad.data()[1] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0, 0.0, -1.0], &[2, 3]);
        let (_, grad) = cross_entropy(&logits, &[2, 0]);
        for i in 0..2 {
            let s: f32 = (0..3).map(|j| grad.at2(i, j)).sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn soft_ce_equals_hard_ce_for_onehot_target() {
        let logits = Tensor::from_vec(vec![1.0, -0.5, 0.2, 0.1, 2.0, -1.0], &[2, 3]);
        let onehot = Tensor::from_vec(vec![0.0, 1.0, 0.0, 1.0, 0.0, 0.0], &[2, 3]);
        let (l_soft, g_soft) = soft_cross_entropy(&logits, &onehot);
        let (l_hard, g_hard) = cross_entropy(&logits, &[1, 0]);
        assert!((l_soft - l_hard).abs() < 1e-5);
        for (a, b) in g_soft.data().iter().zip(g_hard.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
