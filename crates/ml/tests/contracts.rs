//! Contracts of the scoring helpers the selectors and downstream tasks call:
//! `accuracy`, the VF-MINE mutual-information path (`quantile_bins`,
//! `discrete_mi`, `feature_label_mi`, `group_label_mi`) and the paper's
//! learning-rate grid search.

use proptest::prelude::*;
use vfps_ml::linalg::Matrix;
use vfps_ml::metrics::accuracy;
use vfps_ml::mi::{discrete_mi, feature_label_mi, group_label_mi, quantile_bins};
use vfps_ml::mlp::{grid_search_lr, FitReport, TrainConfig};
use vfps_ml::LogisticRegression;

fn no_fit() -> FitReport {
    FitReport { epochs_run: 0, best_val_loss: 0.0, early_stopped: false }
}

#[test]
#[should_panic(expected = "empty evaluation set")]
fn accuracy_rejects_an_empty_evaluation_set() {
    let _ = accuracy(&[], &[]);
}

#[test]
fn quantile_bins_of_nothing_is_nothing() {
    assert!(quantile_bins(&[], 4).is_empty());
}

#[test]
#[should_panic(expected = "need at least one bin")]
fn quantile_bins_rejects_zero_bins() {
    let _ = quantile_bins(&[1.0, 2.0], 0);
}

#[test]
#[should_panic(expected = "symbol out of range")]
fn discrete_mi_rejects_out_of_range_symbols() {
    let _ = discrete_mi(&[0, 2], 2, &[0, 1], 2);
}

/// A feature that copies balanced binary labels carries all of `H(Y)`.
#[test]
fn a_label_copy_carries_the_label_entropy() {
    let labels: Vec<usize> = (0..64).map(|i| i % 2).collect();
    let feature: Vec<f64> = labels.iter().map(|&y| y as f64 * 3.0 - 1.0).collect();
    let mi = feature_label_mi(&feature, &labels, 2, 8);
    assert!((mi - 2.0f64.ln()).abs() < 1e-12, "ln 2 expected, got {mi}");
}

/// `n_projections = 0` is read as one projection, and the estimate is a
/// pure function of the seed.
#[test]
fn group_mi_is_seeded_and_takes_at_least_one_projection() {
    let rows: Vec<Vec<f64>> =
        (0..120).map(|i| vec![(i % 7) as f64, ((i * 13) % 11) as f64, (i % 2) as f64]).collect();
    let x = Matrix::from_rows(&rows);
    let labels: Vec<usize> = (0..120).map(|i| i % 2).collect();
    let one = group_label_mi(&x, &[0, 1, 2], &labels, 2, 6, 1, 9);
    assert_eq!(group_label_mi(&x, &[0, 1, 2], &labels, 2, 6, 0, 9), one);
    assert_eq!(group_label_mi(&x, &[0, 1, 2], &labels, 2, 6, 1, 9), one);
    assert!(one > 0.0);
}

#[test]
#[should_panic(expected = "column out of range")]
fn group_mi_rejects_an_out_of_range_column() {
    let x = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
    let _ = group_label_mi(&x, &[2], &[0, 1], 2, 2, 1, 0);
}

/// Ties go to the earlier grid rate (a later one must be strictly better).
#[test]
fn grid_search_keeps_the_best_rate_and_the_first_of_ties() {
    let (model, lr) = grid_search_lr(|lr| (lr, no_fit()), |&m| (m - 0.01).abs());
    assert_eq!((model, lr), (0.01, 0.01));
    let (_, lr) = grid_search_lr(|lr| (lr, no_fit()), |_| 1.0);
    assert_eq!(lr, TrainConfig::LR_GRID[0]);
}

/// Logistic regression is a pure function of its seed and data.
#[test]
fn logistic_regression_is_deterministic_given_seed() {
    let rows: Vec<Vec<f64>> =
        (0..60).map(|i| vec![(i % 10) as f64 / 10.0, (i % 3) as f64]).collect();
    let x = Matrix::from_rows(&rows);
    let y: Vec<usize> = (0..60).map(|i| usize::from(i % 10 >= 5)).collect();
    let fit = |seed| {
        let mut m = LogisticRegression::new(2, 2, 0.05, seed);
        let report = m.fit(&x, &y, &x, &y, &TrainConfig::fast());
        (report.epochs_run, m.predict_proba(&x).as_slice().to_vec())
    };
    assert_eq!(fit(4), fit(4));
}

proptest! {
    /// Quantile bins preserve order: a larger value never lands in a lower
    /// bin, and every bin index is in range.
    #[test]
    fn quantile_bins_are_monotone(
        values in proptest::collection::vec(-50i32..50, 1..80),
        n_bins in 1usize..9,
    ) {
        let values: Vec<f64> = values.into_iter().map(f64::from).collect();
        let bins = quantile_bins(&values, n_bins);
        for (i, &a) in values.iter().enumerate() {
            prop_assert!(bins[i] < n_bins);
            for (j, &b) in values.iter().enumerate() {
                if a < b {
                    prop_assert!(bins[i] <= bins[j]);
                }
            }
        }
    }

    /// Binning is rank-based, so the feature-label MI ignores any strictly
    /// increasing rescaling of the feature.
    #[test]
    fn feature_mi_ignores_monotone_rescaling(
        pairs in proptest::collection::vec((-20i32..20, 0usize..3), 4..80),
        bins in 1usize..8,
    ) {
        let feature: Vec<f64> = pairs.iter().map(|p| f64::from(p.0)).collect();
        let labels: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        let rescaled: Vec<f64> = feature.iter().map(|v| 4.0 * v + 7.0).collect();
        prop_assert_eq!(
            feature_label_mi(&feature, &labels, 3, bins),
            feature_label_mi(&rescaled, &labels, 3, bins)
        );
    }
}
