//! The participant similarity measure (paper §III-A).
//!
//! For each query `q` with federated top-k set `T`, participant `p`'s
//! aggregated partial distance is `d_T^p`; the per-query similarity is
//!
//! ```text
//! w_q(p, s) = (d_T − |d_T^p − d_T^s|) / d_T        (≥ 0)
//! ```
//!
//! and `w(p, s)` averages over the query set. Participants whose local
//! geometry agrees (similar contributions to the same neighbor set) score
//! close to 1; divergent feature spaces score lower.

use std::fmt;
use vfps_vfl::fed_knn::QueryOutcome;

/// Shape error from feeding the accumulator an incompatible outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimilarityError {
    /// The outcome's `d_t` width disagrees with the accumulator's party
    /// count (an outcome computed over a different consortium).
    PartyCountMismatch {
        /// Width the accumulator was built for.
        expected: usize,
        /// Width the outcome actually carried.
        got: usize,
    },
    /// `finish` was asked for an average over zero accumulated queries.
    ///
    /// Averaging would divide by zero and emit an all-NaN matrix that
    /// only explodes later, deep inside `KnnSubmodular::new`'s
    /// finiteness assert — far from the cause. Surfaced as a typed error
    /// at the source instead.
    NoQueries,
}

impl fmt::Display for SimilarityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimilarityError::PartyCountMismatch { expected, got } => {
                write!(f, "party count mismatch: accumulator holds {expected}, outcome has {got}")
            }
            SimilarityError::NoQueries => {
                write!(f, "no queries accumulated: the similarity average is undefined")
            }
        }
    }
}

impl std::error::Error for SimilarityError {}

/// Accumulates per-query `d_T^p` vectors into the `P × P` similarity
/// matrix.
///
/// **Implementation note.** `d_T^p` is a sum over participant `p`'s local
/// features, so it scales with the party's feature count. The paper's
/// datasets have `F ≫ P`, where random near-equal splits make this
/// immaterial; for small-`F` datasets (Rice: 10 features over 4 parties)
/// the raw scalar would mostly measure partition *size*. The accumulator
/// therefore compares per-feature-normalized profiles when feature counts
/// are supplied via [`SimilarityAccumulator::with_feature_counts`] —
/// identical structure to the paper's measure, invariant to the count
/// artifact (see DESIGN.md §3).
#[derive(Clone, Debug)]
pub struct SimilarityAccumulator {
    parties: usize,
    sums: Vec<Vec<f64>>,
    queries: usize,
    feature_counts: Option<Vec<usize>>,
}

impl SimilarityAccumulator {
    /// Creates an accumulator for `parties` participants.
    ///
    /// # Panics
    /// Panics for an empty consortium.
    #[must_use]
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "need at least one participant");
        SimilarityAccumulator {
            parties,
            sums: vec![vec![0.0; parties]; parties],
            queries: 0,
            feature_counts: None,
        }
    }

    /// Enables per-feature normalization of the `d_T^p` profiles.
    ///
    /// # Panics
    /// Panics when the count vector has the wrong length or zero entries.
    #[must_use]
    pub fn with_feature_counts(mut self, counts: Vec<usize>) -> Self {
        assert_eq!(counts.len(), self.parties, "one count per participant");
        assert!(counts.iter().all(|&c| c > 0), "zero-width participant");
        self.feature_counts = Some(counts);
        self
    }

    /// Adds one query's outcome.
    ///
    /// # Errors
    /// Returns [`SimilarityError::PartyCountMismatch`] when the outcome's
    /// `d_t` width disagrees with the accumulator's party count.
    pub fn add_query(&mut self, outcome: &QueryOutcome) -> Result<(), SimilarityError> {
        self.add_d_t(&outcome.d_t)
    }

    /// Adds one query's per-party sums `d_T^p` — the whole of what a query
    /// contributes to `w`, so every path that holds `d_t` vectors (cold
    /// outcomes, churn-maintained profiles) averages them here.
    ///
    /// Queries with `d_T = 0` (all selected neighbors identical to the
    /// query in every feature) contribute full similarity for every pair —
    /// no distance signal means no evidence of divergence.
    ///
    /// # Errors
    /// Returns [`SimilarityError::PartyCountMismatch`] when `d_t`'s width
    /// disagrees with the accumulator's party count; nothing is
    /// accumulated then.
    pub fn add_d_t(&mut self, d_t: &[f64]) -> Result<(), SimilarityError> {
        if d_t.len() != self.parties {
            return Err(SimilarityError::PartyCountMismatch {
                expected: self.parties,
                got: d_t.len(),
            });
        }
        self.queries += 1;
        let profile: Vec<f64> = match &self.feature_counts {
            None => d_t.to_vec(),
            Some(counts) => d_t.iter().zip(counts).map(|(&d, &c)| d / c as f64).collect(),
        };
        let total: f64 = profile.iter().sum();
        for p in 0..self.parties {
            for s in 0..self.parties {
                let w = if total > 0.0 {
                    ((total - (profile[p] - profile[s]).abs()) / total).max(0.0)
                } else {
                    1.0
                };
                self.sums[p][s] += w;
            }
        }
        Ok(())
    }

    /// Number of queries accumulated.
    #[must_use]
    pub fn queries(&self) -> usize {
        self.queries
    }

    /// The averaged similarity matrix `w(p, s)`.
    ///
    /// # Errors
    /// Returns [`SimilarityError::NoQueries`] when no queries were
    /// accumulated (the average would be an all-NaN matrix).
    pub fn try_finish(&self) -> Result<Vec<Vec<f64>>, SimilarityError> {
        if self.queries == 0 {
            return Err(SimilarityError::NoQueries);
        }
        Ok(self
            .sums
            .iter()
            .map(|row| row.iter().map(|v| v / self.queries as f64).collect())
            .collect())
    }

    /// The averaged similarity matrix `w(p, s)`.
    ///
    /// # Panics
    /// Panics when no queries were accumulated; use
    /// [`SimilarityAccumulator::try_finish`] where a typed error is
    /// preferable.
    #[must_use]
    pub fn finish(&self) -> Vec<Vec<f64>> {
        self.try_finish().expect("no queries accumulated")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(d_t: Vec<f64>) -> QueryOutcome {
        let d_t_total = d_t.iter().sum();
        QueryOutcome { topk_rows: vec![], d_t, d_t_total, candidates: 0 }
    }

    #[test]
    fn identical_contributions_score_one() {
        let mut acc = SimilarityAccumulator::new(3);
        acc.add_query(&outcome(vec![2.0, 2.0, 2.0])).unwrap();
        let w = acc.finish();
        for p in 0..3 {
            for s in 0..3 {
                assert!((w[p][s] - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn divergent_contributions_score_lower() {
        let mut acc = SimilarityAccumulator::new(2);
        acc.add_query(&outcome(vec![9.0, 1.0])).unwrap();
        let w = acc.finish();
        // |9-1| = 8, total 10 → w = 0.2 off-diagonal, 1.0 on-diagonal.
        assert!((w[0][1] - 0.2).abs() < 1e-12);
        assert!((w[0][0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matrix_is_symmetric_with_unit_diagonal() {
        let mut acc = SimilarityAccumulator::new(4);
        acc.add_query(&outcome(vec![1.0, 3.0, 0.5, 2.5])).unwrap();
        acc.add_query(&outcome(vec![0.1, 0.2, 0.3, 0.4])).unwrap();
        let w = acc.finish();
        for p in 0..4 {
            assert!((w[p][p] - 1.0).abs() < 1e-12, "diagonal");
            for s in 0..4 {
                assert!((w[p][s] - w[s][p]).abs() < 1e-12, "symmetry");
                assert!((0.0..=1.0 + 1e-12).contains(&w[p][s]), "range");
            }
        }
    }

    #[test]
    fn averaging_over_queries() {
        let mut acc = SimilarityAccumulator::new(2);
        acc.add_query(&outcome(vec![1.0, 1.0])).unwrap(); // w01 = 1.0
        acc.add_query(&outcome(vec![3.0, 1.0])).unwrap(); // w01 = (4-2)/4 = 0.5
        let w = acc.finish();
        assert!((w[0][1] - 0.75).abs() < 1e-12);
        assert_eq!(acc.queries(), 2);
    }

    #[test]
    fn zero_total_distance_counts_as_full_similarity() {
        let mut acc = SimilarityAccumulator::new(2);
        acc.add_query(&outcome(vec![0.0, 0.0])).unwrap();
        let w = acc.finish();
        assert_eq!(w[0][1], 1.0);
    }

    #[test]
    fn shrunk_outcome_yields_typed_error_not_panic() {
        // An outcome from a 2-party consortium fed to a 3-party
        // accumulator: the mismatch is reported, not asserted.
        let mut acc = SimilarityAccumulator::new(3);
        acc.add_query(&outcome(vec![1.0, 2.0, 3.0])).unwrap();
        let err = acc.add_query(&outcome(vec![1.0, 2.0])).unwrap_err();
        assert_eq!(err, SimilarityError::PartyCountMismatch { expected: 3, got: 2 });
        assert!(err.to_string().contains("party count mismatch"));
        // The rejected query must not have been half-accumulated.
        assert_eq!(acc.queries(), 1);
        let w = acc.finish();
        assert_eq!(w.len(), 3, "accumulator state is untouched by the error");
    }

    #[test]
    #[should_panic(expected = "no queries")]
    fn finish_requires_queries() {
        let _ = SimilarityAccumulator::new(2).finish();
    }

    #[test]
    fn zero_query_finish_is_a_typed_error_not_a_nan_matrix() {
        // Regression: the zero-query average used to come out as all-NaN
        // and only trip KnnSubmodular::new's finiteness assert much later.
        let acc = SimilarityAccumulator::new(2);
        assert_eq!(acc.try_finish().unwrap_err(), SimilarityError::NoQueries);
        assert!(SimilarityError::NoQueries.to_string().contains("no queries"));
    }

    #[test]
    fn feature_counts_compare_per_feature_profiles() {
        // One feature against four: raw sums differ, per-feature ones agree.
        let mut raw = SimilarityAccumulator::new(2);
        raw.add_d_t(&[1.0, 4.0]).unwrap();
        assert!((raw.finish()[0][1] - 0.4).abs() < 1e-12, "(5 - 3) / 5");
        let mut norm = SimilarityAccumulator::new(2).with_feature_counts(vec![1, 4]);
        norm.add_d_t(&[1.0, 4.0]).unwrap();
        assert_eq!(norm.finish()[0][1], 1.0);
    }

    #[test]
    #[should_panic(expected = "one count per participant")]
    fn feature_counts_need_one_count_per_party() {
        let _ = SimilarityAccumulator::new(3).with_feature_counts(vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "zero-width participant")]
    fn feature_counts_refuse_a_zero_width_party() {
        let _ = SimilarityAccumulator::new(2).with_feature_counts(vec![3, 0]);
    }

    #[test]
    #[should_panic(expected = "need at least one participant")]
    fn an_empty_consortium_is_refused() {
        let _ = SimilarityAccumulator::new(0);
    }
}
