//! # vfps-data — dataset substrate for VFPS-SM
//!
//! Synthetic twins of the paper's ten datasets (Table III), vertical
//! partitioning across participants, the 80/10/10 split, and train-fitted
//! normalization.
//!
//! The original datasets are public UCI/Kaggle/LIBSVM corpora that are not
//! bundled here; [`synth::generate`] produces class-conditional
//! Gaussian-mixture twins with the same feature/class counts and a
//! controlled informative/redundant/noise feature structure — the property
//! vertical participant selection is sensitive to (see DESIGN.md §3 for the
//! substitution rationale).
//!
//! ```
//! use vfps_data::spec::DatasetSpec;
//! use vfps_data::synth::generate_sized;
//! use vfps_data::partition::VerticalPartition;
//!
//! let spec = DatasetSpec::by_name("Rice").unwrap();
//! let ds = generate_sized(&spec, 200, 42);
//! let parts = VerticalPartition::random(ds.n_features(), 4, 42);
//! assert_eq!(parts.parties(), 4);
//! ```

#![warn(missing_docs)]

pub mod dataset;
pub mod loader;
pub mod partition;
pub mod spec;
pub mod synth;

pub use dataset::{Dataset, FeatureKind, MinMax, Split, SplitPart, ZScore};
pub use loader::{load_csv, load_libsvm, parse_csv, parse_libsvm, CsvOptions, LoadError};
pub use partition::VerticalPartition;
pub use spec::{paper_catalog, DatasetSpec, Domain};

/// Convenience: generate `n` instances, normalize (min-max fitted on the
/// train split, as typical VFL KNN pipelines do), and return the dataset
/// plus its split.
#[must_use]
pub fn prepared_sized(spec: &DatasetSpec, n: usize, seed: u64) -> (Dataset, Split) {
    let mut ds = synth::generate_sized(spec, n, seed);
    let split = Split::paper_split(ds.len(), seed ^ 0x0005_b117);
    let mm = MinMax::fit(&ds.x, &split.train);
    mm.apply(&mut ds.x);
    (ds, split)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_pipeline_normalizes() {
        let spec = DatasetSpec::by_name("Bank").unwrap();
        let (ds, split) = prepared_sized(&spec, 200, 9);
        assert_eq!(ds.len(), 200);
        assert_eq!(split.train.len(), 160);
        // All values live in [0, 1] after min-max normalization, and train
        // columns span the full range.
        assert!(ds.x.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
        for c in 0..ds.n_features() {
            let max = split.train.iter().map(|&r| ds.x.get(r, c)).fold(0.0, f64::max);
            assert!(max > 0.99, "col {c} max {max}");
        }
    }

    #[test]
    fn prepared_is_deterministic() {
        let spec = DatasetSpec::by_name("Bank").unwrap();
        let (a, _) = prepared_sized(&spec, 100, 11);
        let (b, _) = prepared_sized(&spec, 100, 11);
        assert_eq!(a.x.as_slice(), b.x.as_slice());
    }
}
