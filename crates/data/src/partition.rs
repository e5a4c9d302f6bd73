//! Vertical partitioning: assigning feature columns to participants.
//!
//! The paper splits each dataset "randomly into four vertical partitions
//! based on the number of features" and, for the diversity study (Fig. 6),
//! augments the consortium with *duplicate* participants holding copies of
//! an existing partition.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vfps_ml::linalg::Matrix;

/// A vertical partition: which feature columns each participant holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerticalPartition {
    assignments: Vec<Vec<usize>>,
    total_features: usize,
}

impl VerticalPartition {
    /// Splits `n_features` contiguous columns as evenly as possible over
    /// `parties` participants.
    ///
    /// # Panics
    /// Panics if `parties == 0` or `parties > n_features`.
    #[must_use]
    pub fn even(n_features: usize, parties: usize) -> Self {
        assert!(parties > 0, "need at least one party");
        assert!(parties <= n_features, "more parties than features");
        let base = n_features / parties;
        let extra = n_features % parties;
        let mut assignments = Vec::with_capacity(parties);
        let mut start = 0;
        for p in 0..parties {
            let len = base + usize::from(p < extra);
            assignments.push((start..start + len).collect());
            start += len;
        }
        VerticalPartition { assignments, total_features: n_features }
    }

    /// Random (seeded) assignment: columns are shuffled, then dealt into
    /// `parties` near-equal groups — the paper's "random split".
    ///
    /// # Panics
    /// Panics if `parties == 0` or `parties > n_features`.
    #[must_use]
    pub fn random(n_features: usize, parties: usize, seed: u64) -> Self {
        assert!(parties > 0, "need at least one party");
        assert!(parties <= n_features, "more parties than features");
        let mut cols: Vec<usize> = (0..n_features).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5917_ac3d);
        cols.shuffle(&mut rng);
        let base = n_features / parties;
        let extra = n_features % parties;
        let mut assignments = Vec::with_capacity(parties);
        let mut start = 0;
        for p in 0..parties {
            let len = base + usize::from(p < extra);
            let mut group: Vec<usize> = cols[start..start + len].to_vec();
            group.sort_unstable();
            assignments.push(group);
            start += len;
        }
        VerticalPartition { assignments, total_features: n_features }
    }

    /// Builds a partition from explicit column groups.
    ///
    /// # Panics
    /// Panics if a column index repeats across groups or exceeds
    /// `n_features`.
    #[must_use]
    pub fn from_groups(n_features: usize, groups: Vec<Vec<usize>>) -> Self {
        let mut seen = vec![false; n_features];
        for g in &groups {
            for &c in g {
                assert!(c < n_features, "column {c} out of range");
                assert!(!seen[c], "column {c} assigned twice");
                seen[c] = true;
            }
        }
        VerticalPartition { assignments: groups, total_features: n_features }
    }

    /// Appends `count` duplicate participants, each holding a copy of the
    /// columns of participant `src` — the Fig. 6 redundancy injection.
    /// Duplicates share column *indices* with the source (they observe the
    /// same underlying data).
    ///
    /// # Panics
    /// Panics on an out-of-range source.
    #[must_use]
    pub fn with_duplicates(&self, src: usize, count: usize) -> Self {
        assert!(src < self.assignments.len(), "source participant out of range");
        let mut assignments = self.assignments.clone();
        for _ in 0..count {
            assignments.push(self.assignments[src].clone());
        }
        VerticalPartition { assignments, total_features: self.total_features }
    }

    /// Number of participants.
    #[must_use]
    pub fn parties(&self) -> usize {
        self.assignments.len()
    }

    /// Columns held by participant `p`.
    ///
    /// # Panics
    /// Panics on an out-of-range participant.
    #[must_use]
    pub fn columns(&self, p: usize) -> &[usize] {
        &self.assignments[p]
    }

    /// All assignments.
    #[must_use]
    pub fn all_columns(&self) -> &[Vec<usize>] {
        &self.assignments
    }

    /// Materializes participant `p`'s local feature matrix.
    #[must_use]
    pub fn local_view(&self, x: &Matrix, p: usize) -> Matrix {
        x.select_columns(self.columns(p))
    }

    /// The union of columns held by the given participants, sorted and
    /// deduplicated (duplicate participants contribute the same columns
    /// once — concatenating identical copies would double-weight them in
    /// distance space).
    #[must_use]
    pub fn joint_columns(&self, parties: &[usize]) -> Vec<usize> {
        let mut cols: Vec<usize> =
            parties.iter().flat_map(|&p| self.columns(p).iter().copied()).collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_covers_all_columns() {
        let p = VerticalPartition::even(11, 4);
        assert_eq!(p.parties(), 4);
        let sizes: Vec<usize> = (0..4).map(|i| p.columns(i).len()).collect();
        assert_eq!(sizes, vec![3, 3, 3, 2]);
        let joint = p.joint_columns(&[0, 1, 2, 3]);
        assert_eq!(joint, (0..11).collect::<Vec<_>>());
    }

    #[test]
    fn random_split_is_partition_and_deterministic() {
        let a = VerticalPartition::random(20, 4, 7);
        let b = VerticalPartition::random(20, 4, 7);
        assert_eq!(a, b);
        let joint = a.joint_columns(&[0, 1, 2, 3]);
        assert_eq!(joint, (0..20).collect::<Vec<_>>());
        let c = VerticalPartition::random(20, 4, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn duplicates_share_columns() {
        let p = VerticalPartition::even(8, 4).with_duplicates(1, 2);
        assert_eq!(p.parties(), 6);
        assert_eq!(p.columns(4), p.columns(1));
        assert_eq!(p.columns(5), p.columns(1));
    }

    #[test]
    fn joint_columns_dedup_duplicate_parties() {
        let p = VerticalPartition::even(4, 2).with_duplicates(0, 1);
        // Parties 0 and 2 hold the same columns; the joint columns of
        // {0, 2} must not double them.
        let joint = p.joint_columns(&[0, 2]);
        assert_eq!(joint, p.columns(0).to_vec());
    }

    #[test]
    fn local_view_selects_columns() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]);
        let p = VerticalPartition::even(4, 2);
        let v = p.local_view(&x, 1);
        assert_eq!(v.row(0), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn from_groups_rejects_overlap() {
        let _ = VerticalPartition::from_groups(4, vec![vec![0, 1], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "more parties than features")]
    fn too_many_parties_rejected() {
        let _ = VerticalPartition::even(2, 3);
    }

    #[test]
    fn from_groups_keeps_group_order_and_may_leave_columns_out() {
        let p = VerticalPartition::from_groups(5, vec![vec![3, 0], vec![1]]);
        assert_eq!(p.parties(), 2);
        assert_eq!(p.columns(0), &[3, 0]);
        assert_eq!(p.all_columns(), &[vec![3, 0], vec![1]]);
        assert_eq!(p.joint_columns(&[1, 0]), vec![0, 1, 3]);
    }

    #[test]
    #[should_panic(expected = "column 4 out of range")]
    fn from_groups_rejects_a_column_past_the_end() {
        let _ = VerticalPartition::from_groups(4, vec![vec![0], vec![4]]);
    }

    #[test]
    #[should_panic(expected = "source participant out of range")]
    fn duplicates_of_an_unknown_party_are_refused() {
        let _ = VerticalPartition::even(4, 2).with_duplicates(2, 1);
    }

    #[test]
    #[should_panic(expected = "need at least one party")]
    fn a_random_split_over_no_party_is_refused() {
        let _ = VerticalPartition::random(4, 0, 1);
    }
}
