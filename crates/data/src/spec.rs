//! Dataset specifications mirroring the paper's Table III.
//!
//! The original datasets (UCI / Kaggle / LIBSVM) are not bundled; each spec
//! describes a deterministic synthetic twin with the same feature count and
//! class count, and with the instance count scaled down for laptop-speed
//! runs. The *paper-scale* instance count is retained so the cost model can
//! report timings at the paper's data sizes.

/// Application domain from Table III.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Domain {
    /// Bank / credit datasets.
    Finance,
    /// Phishing / web datasets.
    Internet,
    /// Rice / Adult / IJCNN / SUSY.
    Science,
    /// HDI / SD.
    Healthcare,
}

/// One dataset's shape and generation parameters.
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Dataset name as in Table III.
    pub name: &'static str,
    /// Instance count in the paper (drives the cost model).
    pub paper_instances: usize,
    /// Instance count actually generated for simulation.
    pub sim_instances: usize,
    /// Feature dimension (matches Table III).
    pub features: usize,
    /// Number of label classes (all Table III tasks are binary).
    pub classes: usize,
    /// Domain from Table III.
    pub domain: Domain,
    /// Fraction of features that carry class signal.
    pub informative_frac: f64,
    /// Fraction of features that are noisy copies of informative ones.
    pub redundant_frac: f64,
    /// Separation of class means in informative dimensions (larger ⇒
    /// easier problem; tuned per dataset so synthetic accuracy magnitudes
    /// land near the paper's Table IV values).
    pub class_sep: f64,
}

impl DatasetSpec {
    /// Scale factor between paper-size and simulated-size instance counts.
    #[must_use]
    pub fn scale_factor(&self) -> f64 {
        self.paper_instances as f64 / self.sim_instances as f64
    }

    /// Looks a spec up by (case-insensitive) name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<DatasetSpec> {
        paper_catalog().into_iter().find(|s| s.name.eq_ignore_ascii_case(name))
    }
}

/// The ten datasets of Table III as synthetic-twin specs.
#[must_use]
pub fn paper_catalog() -> Vec<DatasetSpec> {
    vec![
        DatasetSpec {
            name: "Bank",
            paper_instances: 10_000,
            sim_instances: 1_200,
            features: 11,
            classes: 2,
            domain: Domain::Finance,
            informative_frac: 0.5,
            redundant_frac: 0.2,
            class_sep: 0.9,
        },
        DatasetSpec {
            name: "Credit",
            paper_instances: 30_000,
            sim_instances: 1_500,
            features: 23,
            classes: 2,
            domain: Domain::Finance,
            informative_frac: 0.4,
            redundant_frac: 0.5,
            class_sep: 0.8,
        },
        DatasetSpec {
            name: "Phishing",
            paper_instances: 11_055,
            sim_instances: 1_200,
            features: 68,
            classes: 2,
            domain: Domain::Internet,
            informative_frac: 0.35,
            redundant_frac: 0.35,
            class_sep: 1.0,
        },
        DatasetSpec {
            name: "Web",
            paper_instances: 64_700,
            sim_instances: 1_600,
            features: 300,
            classes: 2,
            domain: Domain::Internet,
            informative_frac: 0.2,
            redundant_frac: 0.7,
            class_sep: 0.8,
        },
        DatasetSpec {
            name: "Rice",
            paper_instances: 18_185,
            sim_instances: 1_400,
            features: 10,
            classes: 2,
            domain: Domain::Science,
            informative_frac: 0.7,
            redundant_frac: 0.2,
            class_sep: 3.0,
        },
        DatasetSpec {
            name: "Adult",
            paper_instances: 32_561,
            sim_instances: 1_500,
            features: 123,
            classes: 2,
            domain: Domain::Science,
            informative_frac: 0.3,
            redundant_frac: 0.6,
            class_sep: 0.6,
        },
        DatasetSpec {
            name: "IJCNN",
            paper_instances: 141_691,
            sim_instances: 1_800,
            features: 22,
            classes: 2,
            domain: Domain::Science,
            informative_frac: 0.5,
            redundant_frac: 0.25,
            class_sep: 1.6,
        },
        DatasetSpec {
            name: "SUSY",
            paper_instances: 5_000_000,
            sim_instances: 2_000,
            features: 18,
            classes: 2,
            domain: Domain::Science,
            informative_frac: 0.45,
            redundant_frac: 0.35,
            class_sep: 0.75,
        },
        DatasetSpec {
            name: "HDI",
            paper_instances: 253_661,
            sim_instances: 1_800,
            features: 21,
            classes: 2,
            domain: Domain::Healthcare,
            informative_frac: 0.4,
            redundant_frac: 0.35,
            class_sep: 1.1,
        },
        DatasetSpec {
            name: "SD",
            paper_instances: 991_346,
            sim_instances: 1_800,
            features: 23,
            classes: 2,
            domain: Domain::Healthcare,
            informative_frac: 0.35,
            redundant_frac: 0.55,
            class_sep: 0.5,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table_iii_shapes() {
        let cat = paper_catalog();
        assert_eq!(cat.len(), 10);
        let by = |n: &str| DatasetSpec::by_name(n).unwrap();
        assert_eq!(by("SUSY").paper_instances, 5_000_000);
        assert_eq!(by("SUSY").features, 18);
        assert_eq!(by("Web").features, 300);
        assert_eq!(by("Bank").features, 11);
        assert_eq!(by("Adult").features, 123);
        assert_eq!(by("HDI").domain, Domain::Healthcare);
    }

    #[test]
    fn fractions_are_sane() {
        for spec in paper_catalog() {
            assert!(spec.informative_frac > 0.0 && spec.informative_frac <= 1.0);
            assert!(spec.redundant_frac >= 0.0, "{}", spec.name);
            assert!(spec.informative_frac + spec.redundant_frac <= 1.0 + 1e-9, "{}", spec.name);
            assert!(spec.sim_instances >= 500, "{}", spec.name);
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(DatasetSpec::by_name("susy").is_some());
        assert!(DatasetSpec::by_name("NoSuch").is_none());
    }

    #[test]
    fn scale_factor_reflects_paper_size() {
        let susy = DatasetSpec::by_name("SUSY").unwrap();
        assert!(susy.scale_factor() > 1000.0);
    }
}
