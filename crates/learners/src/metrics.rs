//! Evaluation metrics.
//!
//! Paper §4.3: "We used Macro F1 for classification tasks to account for
//! data imbalance, if any, and use R² for regression tasks, as in FLAML."

use crate::Matrix;

/// Classification accuracy. `y_true`/`y_pred` are class indices.
pub fn accuracy(y_true: &[f64], y_pred: &[f64]) -> f64 {
    if y_true.is_empty() {
        return 0.0;
    }
    let hits = y_true
        .iter()
        .zip(y_pred)
        .filter(|(a, b)| (**a - **b).abs() < 0.5)
        .count();
    hits as f64 / y_true.len() as f64
}

/// Macro-averaged F1 over `num_classes` classes. Classes absent from both
/// the truth and the predictions contribute an F1 of 0, matching
/// scikit-learn's default for macro averaging with explicit labels.
pub fn macro_f1(y_true: &[f64], y_pred: &[f64], num_classes: usize) -> f64 {
    if y_true.is_empty() || num_classes == 0 {
        return 0.0;
    }
    let mut tp = vec![0usize; num_classes];
    let mut fp = vec![0usize; num_classes];
    let mut fnn = vec![0usize; num_classes];
    for (&t, &p) in y_true.iter().zip(y_pred) {
        let (t, p) = (t as usize, p as usize);
        if t >= num_classes || p >= num_classes {
            continue;
        }
        if t == p {
            tp[t] += 1;
        } else {
            fp[p] += 1;
            fnn[t] += 1;
        }
    }
    let mut f1_sum = 0.0;
    for c in 0..num_classes {
        let denom = 2 * tp[c] + fp[c] + fnn[c];
        if denom > 0 {
            f1_sum += 2.0 * tp[c] as f64 / denom as f64;
        }
    }
    f1_sum / num_classes as f64
}

/// Coefficient of determination R². Can be negative for models worse than
/// predicting the mean; 1.0 is perfect.
pub fn r2(y_true: &[f64], y_pred: &[f64]) -> f64 {
    if y_true.is_empty() {
        return 0.0;
    }
    let mean = y_true.iter().sum::<f64>() / y_true.len() as f64;
    let ss_tot: f64 = y_true.iter().map(|y| (y - mean).powi(2)).sum();
    let ss_res: f64 = y_true
        .iter()
        .zip(y_pred)
        .map(|(y, p)| (y - p).powi(2))
        .sum();
    if ss_tot <= f64::EPSILON {
        // Constant target: perfect iff residuals vanish.
        return if ss_res <= f64::EPSILON { 1.0 } else { 0.0 };
    }
    1.0 - ss_res / ss_tot
}

/// Mean squared error.
pub fn mse(y_true: &[f64], y_pred: &[f64]) -> f64 {
    if y_true.is_empty() {
        return 0.0;
    }
    y_true
        .iter()
        .zip(y_pred)
        .map(|(y, p)| (y - p).powi(2))
        .sum::<f64>()
        / y_true.len() as f64
}

/// Mean absolute error.
pub fn mae(y_true: &[f64], y_pred: &[f64]) -> f64 {
    if y_true.is_empty() {
        return 0.0;
    }
    y_true
        .iter()
        .zip(y_pred)
        .map(|(y, p)| (y - p).abs())
        .sum::<f64>()
        / y_true.len() as f64
}

/// Multi-class logarithmic loss. `proba` is n×k with rows summing to ~1;
/// probabilities are clipped to `[1e-15, 1-1e-15]`.
pub fn log_loss(y_true: &[f64], proba: &Matrix) -> f64 {
    if y_true.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for (r, &t) in y_true.iter().enumerate() {
        let c = (t as usize).min(proba.cols().saturating_sub(1));
        let p = proba.get(r, c).clamp(1e-15, 1.0 - 1e-15);
        total -= p.ln();
    }
    total / y_true.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basic() {
        assert_eq!(accuracy(&[0.0, 1.0, 1.0], &[0.0, 1.0, 0.0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn macro_f1_perfect_and_worst() {
        let t = vec![0.0, 1.0, 2.0, 0.0];
        assert!((macro_f1(&t, &t, 3) - 1.0).abs() < 1e-12);
        let wrong = vec![1.0, 2.0, 0.0, 1.0];
        assert_eq!(macro_f1(&t, &wrong, 3), 0.0);
    }

    #[test]
    fn macro_f1_accounts_for_imbalance() {
        // 9 of class 0, 1 of class 1; predicting all-zero gets high accuracy
        // but macro-F1 only ~0.47.
        let mut t = vec![0.0; 9];
        t.push(1.0);
        let p = vec![0.0; 10];
        assert!(accuracy(&t, &p) > 0.89);
        let f1 = macro_f1(&t, &p, 2);
        assert!(
            f1 < 0.5,
            "macro F1 {f1} should punish ignoring the minority"
        );
    }

    #[test]
    fn macro_f1_matches_hand_computation() {
        // Class 0: tp=1 fp=1 fn=0 -> f1 = 2/3
        // Class 1: tp=1 fp=0 fn=1 -> f1 = 2/3
        let t = vec![0.0, 1.0, 1.0];
        let p = vec![0.0, 1.0, 0.0];
        assert!((macro_f1(&t, &p, 2) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn r2_properties() {
        let y = vec![1.0, 2.0, 3.0];
        assert!((r2(&y, &y) - 1.0).abs() < 1e-12);
        // Predicting the mean gives exactly 0.
        let mean_pred = vec![2.0; 3];
        assert!(r2(&y, &mean_pred).abs() < 1e-12);
        // Worse than the mean goes negative.
        assert!(r2(&y, &[3.0, 2.0, 1.0]) < 0.0);
    }

    #[test]
    fn r2_constant_target() {
        assert_eq!(r2(&[5.0, 5.0], &[5.0, 5.0]), 1.0);
        assert_eq!(r2(&[5.0, 5.0], &[4.0, 6.0]), 0.0);
    }

    #[test]
    fn mse_mae() {
        assert_eq!(mse(&[0.0, 0.0], &[1.0, -1.0]), 1.0);
        assert_eq!(mae(&[0.0, 0.0], &[2.0, -2.0]), 2.0);
    }

    #[test]
    fn log_loss_clips() {
        let proba = Matrix::from_vec(vec![1.0, 0.0], 1, 2).unwrap();
        // True class has probability 0 -> clipped, finite loss.
        let ll = log_loss(&[1.0], &proba);
        assert!(ll.is_finite() && ll > 10.0);
        // Confident correct prediction -> near-zero loss.
        let good = Matrix::from_vec(vec![0.01, 0.99], 1, 2).unwrap();
        assert!(log_loss(&[1.0], &good) < 0.02);
    }
}
