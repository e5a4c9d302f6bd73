//! Deterministic synthetic dataset generation — a class-conditional
//! latent-factor model.
//!
//! Real vertically partitioned data has a property VFPS-SM's similarity
//! measure depends on: features that *correlate* carry *overlapping
//! information*. The generator reproduces it explicitly:
//!
//! * each sample draws `L` **signal factors** whose means are
//!   class-conditional (separation controlled by `class_sep`) plus a few
//!   class-independent **noise factors**;
//! * every feature loads on exactly one factor (plus idiosyncratic noise),
//!   so features on the same factor are mutually *redundant* while features
//!   on different factors are *complementary*;
//! * a weak global factor shared by all features gives the cross-party
//!   ranking correlation real tabular data has (without it Fagin's
//!   algorithm would face adversarially independent rankings).
//!
//! Consequences for the reproduction: a vertical partition's quality is its
//! factor coverage; two participants are interchangeable exactly when
//! their factor sets overlap — so the paper's facility-location objective
//! (cover all participants with similar representatives) aligns with
//! downstream accuracy, which is the empirical premise of the paper.
//!
//! [`FeatureKind`] labels follow the factor structure: the first feature
//! on a signal factor is `Informative`, further features on the same
//! factor are `Redundant`, and features on noise factors are `Noise`.

use crate::dataset::{Dataset, FeatureKind};
use crate::spec::DatasetSpec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use vfps_ml::linalg::Matrix;

/// Strength of the weak global factor added to every feature.
pub const LATENT_STRENGTH: f64 = 0.8;

/// Standard normal draw via Box–Muller.
fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Number of signal factors for a feature dimension: roughly one factor
/// per three features, so a sub-consortium's factor *coverage* (not its
/// raw feature count) is what separates good selections from bad ones.
fn signal_factor_count(f: usize) -> usize {
    (f / 3).clamp(4, 24)
}

/// Generates the synthetic twin of `spec` with the given seed.
///
/// # Panics
/// Panics if `n == 0` after sizing.
#[must_use]
pub fn generate(spec: &DatasetSpec, seed: u64) -> Dataset {
    generate_sized(spec, spec.sim_instances, seed)
}

/// Generates a twin with an explicit instance count (tests use small `n`).
///
/// # Panics
/// Panics if `n == 0`.
#[must_use]
pub fn generate_sized(spec: &DatasetSpec, n: usize, seed: u64) -> Dataset {
    assert!(n > 0, "need at least one instance");
    let f = spec.features;
    let signal_frac = (spec.informative_frac + spec.redundant_frac).min(1.0);
    let n_signal = ((f as f64 * signal_frac).round() as usize).clamp(1, f);
    let n_weak = f - n_signal;

    let mut rng = StdRng::seed_from_u64(seed ^ 0x0da7_a5e7);

    let l_sig = signal_factor_count(f).min(n_signal);
    let l_noise = (l_sig / 3).max(1);

    // Assign features to factors: signal features cover every signal
    // factor at least once (shuffled), extras duplicate factors
    // (= redundancy); weak features go to noise factors.
    let mut feature_factor = vec![0usize; f];
    let mut kinds = vec![FeatureKind::Noise; f];
    {
        let mut signal_assignment: Vec<usize> =
            (0..n_signal).map(|i| if i < l_sig { i } else { rng.gen_range(0..l_sig) }).collect();
        signal_assignment.shuffle(&mut rng);
        let mut weak_assignment: Vec<usize> =
            (0..n_weak).map(|_| l_sig + rng.gen_range(0..l_noise)).collect();
        // Scatter signal/weak columns over the feature axis.
        let mut cols: Vec<usize> = (0..f).collect();
        cols.shuffle(&mut rng);
        let mut seen_factor = vec![false; l_sig + l_noise];
        for &col in cols.iter().take(n_signal) {
            let factor = signal_assignment.pop().expect("one per signal feature");
            feature_factor[col] = factor;
            kinds[col] = if seen_factor[factor] {
                FeatureKind::Redundant
            } else {
                seen_factor[factor] = true;
                FeatureKind::Informative
            };
        }
        for &col in cols.iter().skip(n_signal) {
            let factor = weak_assignment.pop().expect("one per weak feature");
            feature_factor[col] = factor;
            kinds[col] = FeatureKind::Noise;
        }
    }

    // Class-conditional factor means (zero for noise factors).
    let mut factor_means = vec![vec![0.0f64; l_sig + l_noise]; spec.classes];
    for means in factor_means.iter_mut() {
        for m in means.iter_mut().take(l_sig) {
            *m = normal(&mut rng) * spec.class_sep;
        }
    }

    // Per-feature loadings and idiosyncratic noise widths.
    let loadings: Vec<f64> = (0..f).map(|_| rng.gen_range(0.6..1.2)).collect();
    let idio: Vec<f64> = (0..f).map(|_| rng.gen_range(0.15..0.4)).collect();

    // Slightly imbalanced priors, as real tabular data has.
    let majority = 0.5 + 0.1 * (seed % 3) as f64 / 3.0;

    let mut x = Matrix::zeros(n, f);
    let mut y = Vec::with_capacity(n);
    let mut factors = vec![0.0f64; l_sig + l_noise];
    for r in 0..n {
        let label = if spec.classes == 2 {
            usize::from(!rng.gen_bool(majority))
        } else {
            rng.gen_range(0..spec.classes)
        };
        y.push(label);
        for (l, g) in factors.iter_mut().enumerate() {
            *g = factor_means[label][l] + normal(&mut rng);
        }
        let global = LATENT_STRENGTH * normal(&mut rng);
        // Draw idiosyncratic noise per feature and assemble the row.
        for col in 0..f {
            let v = loadings[col] * factors[feature_factor[col]]
                + idio[col] * normal(&mut rng)
                + global;
            x.set(r, col, v);
        }
    }

    Dataset { x, y, n_classes: spec.classes, feature_kinds: kinds, name: spec.name.to_owned() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::paper_catalog;
    use vfps_ml::knn::KnnClassifier;

    fn small_spec() -> DatasetSpec {
        let mut s = DatasetSpec::by_name("Rice").unwrap();
        s.sim_instances = 300;
        s
    }

    #[test]
    fn shapes_match_spec() {
        let spec = small_spec();
        let ds = generate(&spec, 1);
        assert_eq!(ds.len(), 300);
        assert_eq!(ds.n_features(), spec.features);
        assert_eq!(ds.feature_kinds.len(), spec.features);
        assert!(ds.y.iter().all(|&l| l < spec.classes));
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = small_spec();
        let a = generate(&spec, 42);
        let b = generate(&spec, 42);
        assert_eq!(a.x.as_slice(), b.x.as_slice());
        assert_eq!(a.y, b.y);
        let c = generate(&spec, 43);
        assert_ne!(a.x.as_slice(), c.x.as_slice());
    }

    #[test]
    fn both_classes_present() {
        let ds = generate(&small_spec(), 2);
        let ones = ds.y.iter().filter(|&&l| l == 1).count();
        assert!(ones > 30 && ones < 270, "ones={ones}");
    }

    #[test]
    fn informative_features_make_the_problem_learnable() {
        // A KNN on the full feature set should beat chance comfortably.
        let spec = small_spec();
        let ds = generate(&spec, 3);
        let train: Vec<usize> = (0..240).collect();
        let test: Vec<usize> = (240..300).collect();
        let knn = KnnClassifier::fit(
            5,
            ds.x.select_rows(&train),
            train.iter().map(|&i| ds.y[i]).collect(),
            2,
        );
        let acc = knn
            .accuracy(&ds.x.select_rows(&test), &test.iter().map(|&i| ds.y[i]).collect::<Vec<_>>());
        assert!(acc > 0.8, "acc={acc}");
    }

    #[test]
    fn redundant_features_correlate_with_an_informative_one() {
        // Every redundant feature shares a factor with some informative
        // feature; the pair's correlation must be visibly non-zero.
        let spec = small_spec();
        let ds = generate(&spec, 4);
        let n = ds.len();
        let corr = |a: usize, b: usize| -> f64 {
            let (mut ma, mut mb) = (0.0, 0.0);
            for r in 0..n {
                ma += ds.x.get(r, a);
                mb += ds.x.get(r, b);
            }
            ma /= n as f64;
            mb /= n as f64;
            let (mut num, mut va, mut vb) = (0.0, 0.0, 0.0);
            for r in 0..n {
                let da = ds.x.get(r, a) - ma;
                let db = ds.x.get(r, b) - mb;
                num += da * db;
                va += da * da;
                vb += db * db;
            }
            num / (va.sqrt() * vb.sqrt())
        };
        let redundant: Vec<usize> = ds
            .feature_kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == FeatureKind::Redundant)
            .map(|(i, _)| i)
            .collect();
        let informative: Vec<usize> = ds
            .feature_kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == FeatureKind::Informative)
            .map(|(i, _)| i)
            .collect();
        for &rcol in &redundant {
            let best = informative.iter().map(|&icol| corr(rcol, icol).abs()).fold(0.0, f64::max);
            assert!(best > 0.4, "redundant col {rcol} correlates at most {best}");
        }
    }

    #[test]
    fn noise_features_are_class_independent() {
        let spec = small_spec();
        let ds = generate(&spec, 4);
        let noise_cols: Vec<usize> = ds
            .feature_kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| **k == FeatureKind::Noise)
            .map(|(i, _)| i)
            .collect();
        for &c in &noise_cols {
            let m0: f64 =
                ds.y.iter()
                    .enumerate()
                    .filter(|(_, &l)| l == 0)
                    .map(|(r, _)| ds.x.get(r, c))
                    .sum::<f64>()
                    / ds.y.iter().filter(|&&l| l == 0).count() as f64;
            let m1: f64 =
                ds.y.iter()
                    .enumerate()
                    .filter(|(_, &l)| l == 1)
                    .map(|(r, _)| ds.x.get(r, c))
                    .sum::<f64>()
                    / ds.y.iter().filter(|&&l| l == 1).count() as f64;
            assert!((m0 - m1).abs() < 0.6, "noise col {c}: {m0} vs {m1}");
        }
    }

    #[test]
    fn informative_count_matches_factor_count() {
        let spec = small_spec();
        let ds = generate(&spec, 5);
        let n_informative =
            ds.feature_kinds.iter().filter(|k| **k == FeatureKind::Informative).count();
        let signal_feats = ((spec.features as f64 * (spec.informative_frac + spec.redundant_frac))
            .round() as usize)
            .max(1);
        let expected = signal_factor_count(spec.features).min(signal_feats);
        assert_eq!(n_informative, expected);
    }

    #[test]
    fn whole_catalog_generates() {
        for mut spec in paper_catalog() {
            spec.sim_instances = 60;
            let ds = generate(&spec, 5);
            assert_eq!(ds.len(), 60, "{}", spec.name);
            assert_eq!(ds.n_features(), spec.features, "{}", spec.name);
            assert!(ds.x.as_slice().iter().all(|v| v.is_finite()), "{}", spec.name);
        }
    }

    #[test]
    fn generate_sized_sets_the_instance_count() {
        let spec = small_spec();
        let ds = generate_sized(&spec, 57, 9);
        assert_eq!(ds.len(), 57);
        assert_eq!(ds.n_features(), spec.features);
        let full = generate(&spec, 9);
        let same = generate_sized(&spec, spec.sim_instances, 9);
        assert_eq!(full.x.as_slice(), same.x.as_slice());
        assert_eq!(full.y, same.y);
    }

    #[test]
    #[should_panic(expected = "need at least one instance")]
    fn generate_sized_refuses_zero_instances() {
        let _ = generate_sized(&small_spec(), 0, 1);
    }
}
