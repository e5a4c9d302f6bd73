//! In-memory labelled datasets with the paper's 80/10/10 split.

use vfps_ml::linalg::Matrix;

/// Role of a generated feature (kept for diagnostics and tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FeatureKind {
    /// Class-conditional signal.
    Informative,
    /// Noisy linear copy of an informative feature.
    Redundant,
    /// Class-independent noise.
    Noise,
}

/// A labelled dataset.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Feature matrix, `N × F`.
    pub x: Matrix,
    /// Integer labels, `N`.
    pub y: Vec<usize>,
    /// Number of classes.
    pub n_classes: usize,
    /// Per-feature generation role.
    pub feature_kinds: Vec<FeatureKind>,
    /// Human-readable name.
    pub name: String,
}

impl Dataset {
    /// Instance count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.x.rows()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x.rows() == 0
    }

    /// Feature count.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.x.cols()
    }

    /// Returns a copy with a seeded fraction of training-relevant labels
    /// flipped to a uniformly random *other* class — the label-noise
    /// robustness probe (`ablation-noise`). Features are untouched, so
    /// label-free machinery (e.g. VFPS-SM's distance-profile similarity)
    /// is unaffected by construction.
    ///
    /// # Panics
    /// Panics when `fraction` is outside `[0, 1]` or the dataset has fewer
    /// than two classes.
    #[must_use]
    pub fn with_label_noise(&self, fraction: f64, seed: u64) -> Dataset {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
        assert!(self.n_classes >= 2, "label noise needs at least two classes");
        let mut out = self.clone();
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for y in &mut out.y {
            if (next() as f64 / u64::MAX as f64) < fraction {
                let shift = 1 + (next() % (self.n_classes as u64 - 1)) as usize;
                *y = (*y + shift) % self.n_classes;
            }
        }
        out
    }
}

/// Row-index split of a dataset: train 80%, validation 10%, test 10%,
/// from a seeded shuffle (paper §V-A).
#[derive(Clone, Debug)]
pub struct Split {
    /// Training row indices.
    pub train: Vec<usize>,
    /// Validation row indices.
    pub val: Vec<usize>,
    /// Test row indices.
    pub test: Vec<usize>,
}

impl Split {
    /// Produces the 80/10/10 split with a deterministic shuffle.
    ///
    /// # Panics
    /// Panics when the dataset has fewer than 10 rows.
    #[must_use]
    pub fn paper_split(n: usize, seed: u64) -> Split {
        assert!(n >= 10, "need at least 10 rows to split 80/10/10");
        let mut idx: Vec<usize> = (0..n).collect();
        // Fisher–Yates with a splitmix-style seeded stream.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in (1..n).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            idx.swap(i, j);
        }
        let n_train = n * 8 / 10;
        let n_val = n / 10;
        Split {
            train: idx[..n_train].to_vec(),
            val: idx[n_train..n_train + n_val].to_vec(),
            test: idx[n_train + n_val..].to_vec(),
        }
    }

    /// Materializes `(x, y)` for the given index set.
    #[must_use]
    pub fn take(&self, ds: &Dataset, which: SplitPart) -> (Matrix, Vec<usize>) {
        let idx = match which {
            SplitPart::Train => &self.train,
            SplitPart::Val => &self.val,
            SplitPart::Test => &self.test,
        };
        let x = ds.x.select_rows(idx);
        let y = idx.iter().map(|&i| ds.y[i]).collect();
        (x, y)
    }
}

/// Which part of a [`Split`] to materialize.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitPart {
    /// 80% training portion.
    Train,
    /// 10% validation portion.
    Val,
    /// 10% test portion.
    Test,
}

/// Z-score normalization fitted on training rows and applied everywhere —
/// distances (and hence KNN and the likelihood proxy) are scale-sensitive.
#[derive(Clone, Debug)]
pub struct ZScore {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl ZScore {
    /// Fits per-column mean/std over the given rows.
    ///
    /// # Panics
    /// Panics on an empty row set.
    #[must_use]
    pub fn fit(x: &Matrix, rows: &[usize]) -> ZScore {
        assert!(!rows.is_empty(), "cannot fit normalizer on zero rows");
        let f = x.cols();
        let mut mean = vec![0.0; f];
        for &r in rows {
            for (m, &v) in mean.iter_mut().zip(x.row(r)) {
                *m += v;
            }
        }
        mean.iter_mut().for_each(|m| *m /= rows.len() as f64);
        let mut var = vec![0.0; f];
        for &r in rows {
            for (c, (&v, &m)) in x.row(r).iter().zip(&mean).enumerate() {
                var[c] += (v - m) * (v - m);
            }
        }
        let std = var
            .into_iter()
            .map(|v| {
                let s = (v / rows.len() as f64).sqrt();
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        ZScore { mean, std }
    }

    /// Applies the transform in place.
    pub fn apply(&self, x: &mut Matrix) {
        for r in 0..x.rows() {
            for (c, v) in x.row_mut(r).iter_mut().enumerate() {
                *v = (*v - self.mean[c]) / self.std[c];
            }
        }
    }
}

/// Min-max normalization to `[0, 1]`, fitted on training rows — the
/// normalization typical VFL KNN pipelines use. Distances then weight
/// widely-spread (class-separated) features more heavily than narrow
/// unimodal ones, which is what makes the partial-distance profiles of the
/// paper's similarity measure informative.
#[derive(Clone, Debug)]
pub struct MinMax {
    min: Vec<f64>,
    inv_range: Vec<f64>,
}

impl MinMax {
    /// Fits per-column min/max over the given rows.
    ///
    /// # Panics
    /// Panics on an empty row set.
    #[must_use]
    pub fn fit(x: &Matrix, rows: &[usize]) -> MinMax {
        assert!(!rows.is_empty(), "cannot fit normalizer on zero rows");
        let f = x.cols();
        let mut min = vec![f64::INFINITY; f];
        let mut max = vec![f64::NEG_INFINITY; f];
        for &r in rows {
            for (c, &v) in x.row(r).iter().enumerate() {
                min[c] = min[c].min(v);
                max[c] = max[c].max(v);
            }
        }
        let inv_range = min
            .iter()
            .zip(&max)
            .map(|(&lo, &hi)| {
                let range = hi - lo;
                if range < 1e-12 {
                    0.0
                } else {
                    1.0 / range
                }
            })
            .collect();
        MinMax { min, inv_range }
    }

    /// Applies the transform in place (values outside the fitted range are
    /// clamped to `[0, 1]` so test-set outliers cannot blow up distances).
    pub fn apply(&self, x: &mut Matrix) {
        for r in 0..x.rows() {
            for (c, v) in x.row_mut(r).iter_mut().enumerate() {
                *v = ((*v - self.min[c]) * self.inv_range[c]).clamp(0.0, 1.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let x =
            Matrix::from_rows(&(0..20).map(|i| vec![i as f64, (i * 2) as f64]).collect::<Vec<_>>());
        Dataset {
            x,
            y: (0..20).map(|i| i % 2).collect(),
            n_classes: 2,
            feature_kinds: vec![FeatureKind::Informative, FeatureKind::Redundant],
            name: "toy".into(),
        }
    }

    #[test]
    fn split_proportions() {
        let s = Split::paper_split(100, 1);
        assert_eq!(s.train.len(), 80);
        assert_eq!(s.val.len(), 10);
        assert_eq!(s.test.len(), 10);
    }

    #[test]
    fn split_is_a_partition() {
        let s = Split::paper_split(57, 2);
        let mut all: Vec<usize> = s.train.iter().chain(&s.val).chain(&s.test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..57).collect::<Vec<_>>());
    }

    #[test]
    fn split_deterministic_per_seed() {
        assert_eq!(Split::paper_split(50, 7).train, Split::paper_split(50, 7).train);
        assert_ne!(Split::paper_split(50, 7).train, Split::paper_split(50, 8).train);
    }

    #[test]
    fn take_materializes_rows() {
        let ds = toy();
        let s = Split::paper_split(ds.len(), 3);
        let (x, y) = s.take(&ds, SplitPart::Test);
        assert_eq!(x.rows(), 2);
        assert_eq!(y.len(), 2);
        assert_eq!(x.row(0)[1], x.row(0)[0] * 2.0, "row content preserved");
    }

    #[test]
    fn zscore_normalizes_train_columns() {
        let ds = toy();
        let rows: Vec<usize> = (0..20).collect();
        let z = ZScore::fit(&ds.x, &rows);
        let mut x = ds.x.clone();
        z.apply(&mut x);
        for c in 0..2 {
            let mean: f64 = (0..20).map(|r| x.get(r, c)).sum::<f64>() / 20.0;
            let var: f64 = (0..20).map(|r| x.get(r, c).powi(2)).sum::<f64>() / 20.0;
            assert!(mean.abs() < 1e-9);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zscore_constant_column_is_safe() {
        let x = Matrix::from_rows(&[vec![5.0], vec![5.0], vec![5.0]]);
        let z = ZScore::fit(&x, &[0, 1, 2]);
        let mut x2 = x.clone();
        z.apply(&mut x2);
        assert!(x2.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn label_noise_flips_roughly_the_requested_fraction() {
        let ds = toy();
        let noisy = ds.with_label_noise(0.5, 7);
        let flipped = ds.y.iter().zip(&noisy.y).filter(|(a, b)| a != b).count();
        assert!((5..=15).contains(&flipped), "flipped {flipped} of 20");
        assert!(noisy.y.iter().all(|&y| y < ds.n_classes));
        assert_eq!(ds.x.as_slice(), noisy.x.as_slice(), "features untouched");
        // Zero noise is the identity; determinism per seed.
        assert_eq!(ds.with_label_noise(0.0, 1).y, ds.y);
        assert_eq!(ds.with_label_noise(0.3, 9).y, ds.with_label_noise(0.3, 9).y);
    }

    #[test]
    fn minmax_normalizes_to_unit_interval() {
        let ds = toy();
        let rows: Vec<usize> = (0..20).collect();
        let mm = MinMax::fit(&ds.x, &rows);
        let mut x = ds.x.clone();
        mm.apply(&mut x);
        for v in x.as_slice() {
            assert!((0.0..=1.0).contains(v));
        }
        // Extremes map to 0 and 1.
        assert_eq!(x.get(0, 0), 0.0);
        assert_eq!(x.get(19, 0), 1.0);
    }

    #[test]
    fn minmax_constant_column_is_safe() {
        let x = Matrix::from_rows(&[vec![5.0], vec![5.0]]);
        let mm = MinMax::fit(&x, &[0, 1]);
        let mut x2 = x.clone();
        mm.apply(&mut x2);
        assert!(x2.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "at least 10 rows")]
    fn tiny_split_rejected() {
        let _ = Split::paper_split(5, 1);
    }

    #[test]
    fn full_label_noise_moves_every_label_to_another_class() {
        let mut ds = toy();
        ds.n_classes = 3;
        ds.y = (0..20).map(|i| i % 3).collect();
        let noisy = ds.with_label_noise(1.0, 4);
        for (before, after) in ds.y.iter().zip(&noisy.y) {
            assert_ne!(before, after);
            assert!(*after < 3);
        }
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0, 1]")]
    fn label_noise_refuses_a_fraction_past_one() {
        let _ = toy().with_label_noise(1.5, 1);
    }

    #[test]
    #[should_panic(expected = "label noise needs at least two classes")]
    fn label_noise_needs_two_classes() {
        let mut ds = toy();
        ds.n_classes = 1;
        ds.y = vec![0; 20];
        let _ = ds.with_label_noise(0.5, 1);
    }
}
