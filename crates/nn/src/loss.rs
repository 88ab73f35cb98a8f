//! Loss functions and their gradients with respect to network outputs.

use enw_numerics::vector::softmax_into;

/// Softmax cross-entropy loss for one sample, its gradient into a
/// caller-owned buffer — the allocation-free form steady-state training
/// loops use. `grad` is fully overwritten with `dL/dlogits`; the loss is
/// returned.
///
/// The gradient is the classic `softmax(logits) − onehot(label)`, which
/// assumes the final layer uses an identity activation (i.e. produces raw
/// logits).
///
/// # Panics
///
/// Panics if `logits` is empty, `label` is out of range, or the lengths
/// mismatch.
pub fn softmax_cross_entropy_into(logits: &[f32], label: usize, grad: &mut [f32]) -> f32 {
    assert!(label < logits.len(), "label {label} out of range");
    softmax_into(logits, 1.0, grad);
    let loss = -(grad[label].max(1e-12)).ln();
    grad[label] -= 1.0;
    loss
}

/// Mean squared error for one sample: `L = ½‖y − t‖²`.
///
/// Returns `(loss, dL/dy = y − t)`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn squared_error(output: &[f32], target: &[f32]) -> (f32, Vec<f32>) {
    assert_eq!(output.len(), target.len(), "squared_error length mismatch");
    let grad: Vec<f32> = output.iter().zip(target).map(|(y, t)| y - t).collect();
    let loss = 0.5 * grad.iter().map(|g| g * g).sum::<f32>();
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Loss and gradient into a fresh buffer.
    fn ce(logits: &[f32], label: usize) -> (f32, Vec<f32>) {
        let mut grad = vec![0.0f32; logits.len()];
        let loss = softmax_cross_entropy_into(logits, label, &mut grad);
        (loss, grad)
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_small() {
        let (loss, _) = ce(&[10.0, -10.0], 0);
        assert!(loss < 1e-3);
    }

    #[test]
    fn cross_entropy_wrong_prediction_is_large() {
        let (loss, _) = ce(&[10.0, -10.0], 1);
        assert!(loss > 5.0);
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero() {
        let (_, g) = ce(&[1.0, 2.0, 0.5], 1);
        assert!(g.iter().sum::<f32>().abs() < 1e-6);
        assert!(g[1] < 0.0); // pushes the true logit up
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = [0.4f32, -1.2, 0.9];
        let label = 2;
        let (_, g) = ce(&logits, label);
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut lp = logits;
            lp[i] += eps;
            let mut lm = logits;
            lm[i] -= eps;
            let num = (ce(&lp, label).0 - ce(&lm, label).0) / (2.0 * eps);
            assert!((num - g[i]).abs() < 1e-2, "dim {i}: {num} vs {}", g[i]);
        }
    }

    #[test]
    fn squared_error_zero_at_target() {
        let (loss, g) = squared_error(&[1.0, 2.0], &[1.0, 2.0]);
        assert_eq!(loss, 0.0);
        assert_eq!(g, vec![0.0, 0.0]);
    }

    #[test]
    fn squared_error_known_value() {
        let (loss, g) = squared_error(&[2.0, 0.0], &[0.0, 0.0]);
        assert_eq!(loss, 2.0);
        assert_eq!(g, vec![2.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        ce(&[1.0, 2.0], 5);
    }
}
