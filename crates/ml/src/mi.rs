//! Mutual-information estimation — the scoring machinery of the VF-MINE
//! baseline (Jiang et al., NeurIPS 2022), which ranks participants by the
//! mutual information between their feature groups and the labels.
//!
//! Continuous features are quantile-binned and MI is computed with the
//! plug-in (histogram) estimator. Groups of features are reduced to one
//! dimension with seeded random projections, averaged over several
//! projections — the same "score a group, not a single feature" idea
//! VF-MINE's group testing uses.

use crate::linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Assigns each value to one of `n_bins` quantile bins (`0..n_bins`).
///
/// Constant inputs land in bin 0.
///
/// # Panics
/// Panics if `n_bins == 0`.
#[must_use]
pub fn quantile_bins(values: &[f64], n_bins: usize) -> Vec<usize> {
    assert!(n_bins > 0, "need at least one bin");
    if values.is_empty() {
        return Vec::new();
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Bin edges at the 1/n_bins quantiles.
    let edges: Vec<f64> = (1..n_bins)
        .map(|b| {
            let pos = b * sorted.len() / n_bins;
            sorted[pos.min(sorted.len() - 1)]
        })
        .collect();
    values.iter().map(|&v| edges.iter().take_while(|&&e| v >= e).count()).collect()
}

/// Plug-in mutual information (in nats) between two discrete variables.
///
/// # Panics
/// Panics on length mismatch, empty input, or out-of-range symbols.
#[must_use]
pub fn discrete_mi(xs: &[usize], nx: usize, ys: &[usize], ny: usize) -> f64 {
    assert_eq!(xs.len(), ys.len(), "length mismatch");
    assert!(!xs.is_empty(), "empty input");
    let n = xs.len() as f64;
    let mut joint = vec![0.0f64; nx * ny];
    let mut px = vec![0.0f64; nx];
    let mut py = vec![0.0f64; ny];
    for (&x, &y) in xs.iter().zip(ys) {
        assert!(x < nx && y < ny, "symbol out of range");
        joint[x * ny + y] += 1.0;
        px[x] += 1.0;
        py[y] += 1.0;
    }
    let mut mi = 0.0;
    for x in 0..nx {
        for y in 0..ny {
            let pxy = joint[x * ny + y] / n;
            if pxy > 0.0 {
                mi += pxy * (pxy / (px[x] / n * py[y] / n)).ln();
            }
        }
    }
    mi.max(0.0)
}

/// MI (nats) between one continuous feature and integer labels, via
/// quantile binning.
#[must_use]
pub fn feature_label_mi(feature: &[f64], labels: &[usize], n_classes: usize, bins: usize) -> f64 {
    let xb = quantile_bins(feature, bins);
    discrete_mi(&xb, bins, labels, n_classes)
}

/// MI (nats) between a *group* of feature columns and the labels, estimated
/// by averaging the MI of `n_projections` seeded random 1-D projections of
/// the group.
///
/// # Panics
/// Panics if `cols` is empty or out of range.
#[must_use]
pub fn group_label_mi(
    x: &Matrix,
    cols: &[usize],
    labels: &[usize],
    n_classes: usize,
    bins: usize,
    n_projections: usize,
    seed: u64,
) -> f64 {
    assert!(!cols.is_empty(), "empty feature group");
    assert!(cols.iter().all(|&c| c < x.cols()), "column out of range");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0.0;
    for _ in 0..n_projections.max(1) {
        let weights: Vec<f64> = cols.iter().map(|_| rng.gen_range(-1.0..1.0)).collect();
        let projected: Vec<f64> = (0..x.rows())
            .map(|r| {
                let row = x.row(r);
                cols.iter().zip(&weights).map(|(&c, &w)| row[c] * w).sum()
            })
            .collect();
        total += feature_label_mi(&projected, labels, n_classes, bins);
    }
    total / n_projections.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_bins_balance() {
        let vals: Vec<f64> = (0..100).map(f64::from).collect();
        let bins = quantile_bins(&vals, 4);
        for b in 0..4 {
            let count = bins.iter().filter(|&&x| x == b).count();
            assert_eq!(count, 25, "bin {b}");
        }
    }

    #[test]
    fn quantile_bins_constant_input() {
        let bins = quantile_bins(&[5.0; 10], 4);
        // All values tie: every value >= every edge, landing in the top bin
        // consistently (any single bin is fine; it must be uniform).
        assert!(bins.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn mi_of_identical_variables_is_entropy() {
        let xs = vec![0usize, 1, 0, 1, 0, 1, 0, 1];
        let mi = discrete_mi(&xs, 2, &xs, 2);
        assert!((mi - (2.0f64).ln() * 1.0).abs() < 1e-9, "H(X) = ln 2, got {mi}");
    }

    #[test]
    fn mi_of_independent_variables_is_near_zero() {
        // Perfectly balanced independent pattern.
        let xs = vec![0, 0, 1, 1, 0, 0, 1, 1];
        let ys = vec![0, 1, 0, 1, 0, 1, 0, 1];
        assert!(discrete_mi(&xs, 2, &ys, 2) < 1e-9);
    }

    #[test]
    fn informative_feature_scores_higher_than_noise() {
        let n = 400;
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let informative: Vec<f64> =
            labels.iter().map(|&y| if y == 0 { -1.0 } else { 1.0 }).collect();
        // Deterministic label-independent wiggle.
        let noise: Vec<f64> = (0..n).map(|i| ((i * 2654435761) % 1000) as f64).collect();
        let mi_info = feature_label_mi(&informative, &labels, 2, 8);
        let mi_noise = feature_label_mi(&noise, &labels, 2, 8);
        assert!(mi_info > 10.0 * mi_noise.max(1e-6), "{mi_info} vs {mi_noise}");
    }

    #[test]
    fn group_mi_detects_informative_group() {
        let n = 300;
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let rows: Vec<Vec<f64>> = labels
            .iter()
            .enumerate()
            .map(|(i, &y)| {
                let s = if y == 0 { -1.0 } else { 1.0 };
                vec![s, s * 0.5, ((i * 37) % 100) as f64 / 100.0]
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        let informative = group_label_mi(&x, &[0, 1], &labels, 2, 8, 4, 1);
        let noisy = group_label_mi(&x, &[2], &labels, 2, 8, 4, 1);
        assert!(informative > noisy, "{informative} vs {noisy}");
    }

    #[test]
    fn mi_is_symmetric() {
        let xs = vec![0usize, 1, 2, 0, 1, 2, 0, 0];
        let ys = vec![1usize, 0, 1, 1, 0, 0, 1, 0];
        let a = discrete_mi(&xs, 3, &ys, 2);
        let b = discrete_mi(&ys, 2, &xs, 3);
        assert!((a - b).abs() < 1e-12);
    }
}
