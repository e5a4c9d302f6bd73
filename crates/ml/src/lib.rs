//! # vfps-ml — machine-learning substrate for VFPS-SM
//!
//! From-scratch implementations of everything the paper trains or scores
//! with:
//!
//! * [`linalg`] — dense row-major matrices and distance kernels;
//! * [`knn`] — the KNN classifier (proxy model and downstream task);
//! * [`linear`] / [`mlp`] — logistic regression and the paper's 3-layer MLP
//!   with Adam, batch 100, ≤200 epochs, patience-5 early stopping, and the
//!   {0.001, 0.01, 0.1} learning-rate grid;
//! * [`optim`] — the Adam optimizer;
//! * [`metrics`] — accuracy;
//! * [`mi`] — mutual-information estimators powering the VF-MINE baseline.
//!
//! ```
//! use vfps_ml::linalg::Matrix;
//! use vfps_ml::knn::KnnClassifier;
//!
//! let x = Matrix::from_rows(&[vec![0.0], vec![0.1], vec![5.0], vec![5.1]]);
//! let knn = KnnClassifier::fit(3, x, vec![0, 0, 1, 1], 2);
//! assert_eq!(knn.predict_one(&[0.05]), 0);
//! ```

#![warn(missing_docs)]

pub mod knn;
pub mod linalg;
pub mod linear;
pub mod metrics;
pub mod mi;
pub mod mlp;
pub mod nn;
pub mod optim;

pub use knn::KnnClassifier;
pub use linalg::Matrix;
pub use linear::LogisticRegression;
pub use mlp::{FitReport, Mlp, TrainConfig};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Matrix multiplication is associative on small matrices.
        #[test]
        fn matmul_associative(
            a in proptest::collection::vec(-10.0f64..10.0, 4),
            b in proptest::collection::vec(-10.0f64..10.0, 4),
            c in proptest::collection::vec(-10.0f64..10.0, 4),
        ) {
            let a = Matrix::from_vec(2, 2, a);
            let b = Matrix::from_vec(2, 2, b);
            let c = Matrix::from_vec(2, 2, c);
            let left = a.matmul(&b).matmul(&c);
            let right = a.matmul(&b.matmul(&c));
            for i in 0..2 {
                for j in 0..2 {
                    prop_assert!((left.get(i, j) - right.get(i, j)).abs() < 1e-6);
                }
            }
        }

        /// Squared distance is a valid semi-metric: non-negative, zero on
        /// identical points, symmetric.
        #[test]
        fn squared_distance_semimetric(
            a in proptest::collection::vec(-100.0f64..100.0, 1..16),
        ) {
            let b: Vec<f64> = a.iter().map(|v| v + 1.0).collect();
            prop_assert_eq!(linalg::squared_distance(&a, &a), 0.0);
            let d_ab = linalg::squared_distance(&a, &b);
            let d_ba = linalg::squared_distance(&b, &a);
            prop_assert!(d_ab >= 0.0);
            prop_assert!((d_ab - d_ba).abs() < 1e-9);
        }

        /// The feature-major kernel is `squared_distance` point by point,
        /// bit for bit — signed zeros and negative coordinates included.
        #[test]
        fn feature_major_distances_match_squared_distance_bitwise(
            (f, n, raw) in (0usize..8, 0usize..300).prop_flat_map(|(f, n)| {
                let coordinate = (0usize..5, -100.0f64..100.0);
                (Just(f), Just(n), proptest::collection::vec(coordinate, f * (n + 1)))
            }),
        ) {
            let value = |&(pick, v): &(usize, f64)| match pick {
                0 => 0.0,
                1 => -0.0,
                2 => v.round(),
                _ => v,
            };
            let values: Vec<f64> = raw.iter().map(value).collect();
            let (q, points) = values.split_at(f);
            let rows = Matrix::from_vec(n, f, points.to_vec());
            let got = linalg::squared_distances_feature_major(&rows.transpose(), q);
            prop_assert_eq!(got.len(), n);
            for (i, d) in got.iter().enumerate() {
                prop_assert_eq!(d.to_bits(), linalg::squared_distance(q, rows.row(i)).to_bits());
            }
        }

        /// Softmax outputs are probabilities for arbitrary finite logits.
        #[test]
        fn softmax_is_distribution(
            logits in proptest::collection::vec(-500.0f64..500.0, 2..8),
        ) {
            let m = Matrix::from_vec(1, logits.len(), logits);
            let p = nn::softmax(&m);
            let s: f64 = p.row(0).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
            prop_assert!(p.row(0).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }

        /// Mutual information is non-negative and bounded by min entropy.
        #[test]
        fn mi_bounds(
            pairs in proptest::collection::vec((0usize..3, 0usize..2), 8..64),
        ) {
            let xs: Vec<usize> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<usize> = pairs.iter().map(|p| p.1).collect();
            let m = mi::discrete_mi(&xs, 3, &ys, 2);
            prop_assert!(m >= 0.0);
            prop_assert!(m <= (3.0f64).ln() + 1e-9);
        }
    }
}
