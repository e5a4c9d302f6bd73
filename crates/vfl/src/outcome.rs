//! A query's outcome, written once for both engines.
//!
//! The logical [`FedKnn`](crate::fed_knn::FedKnn) and the message-passing
//! [`protocol`](crate::protocol) differ in transport, HE and billing, not
//! in what a query returns (paper §IV, steps 1–2): each party's partial
//! distances with the query's own entry excluded, the leader's pick of the
//! `k` nearest *other* database instances, and each party's `d_T^p` over
//! that pick. Both engines call these functions for those steps, so the
//! two cannot disagree on them — at `k ≥ N` included.

use vfps_ml::linalg::{squared_distances_feature_major, Matrix};
use vfps_topk::Ranking;

/// The database position a query on `row` excludes: the row's first
/// position. A row the database lists again is a neighbor at distance 0
/// at every later position.
pub(crate) fn self_position(db_rows: &[usize], row: usize) -> Option<usize> {
    db_rows.iter().position(|&r| r == row)
}

/// One party's partial squared distances from `query` (its feature slice)
/// to every database position, over the party's feature-major view. The
/// query's own position reads `+inf`, so it ranks after every other one.
pub(crate) fn partial_distances(
    view_t: &Matrix,
    query: &[f64],
    self_pos: Option<usize>,
) -> Vec<f64> {
    let mut partials = squared_distances_feature_major(view_t, query);
    if let Some(i) = self_pos {
        partials[i] = f64::INFINITY;
    }
    partials
}

/// The leader's pick: the database positions of the `k` smallest
/// `(complete distance, position)` pairs, nearest first, with the query's
/// own position dropped by position — whatever distance it decrypted to.
/// The ranking is by position on ties, so the order candidates arrive in
/// never reaches the pick.
pub(crate) fn leader_pick(
    complete: impl IntoIterator<Item = (f64, usize)>,
    k: usize,
    self_pos: Option<usize>,
) -> Vec<usize> {
    Ranking::new(complete)
        .prefix(k.saturating_add(1))
        .iter()
        .map(|e| e.id())
        .filter(|&pos| Some(pos) != self_pos)
        .take(k)
        .collect()
}

/// One party's `d_T^p`: its partial distances summed over the pick, in
/// pick order.
pub(crate) fn d_t(partials: &[f64], pick: &[usize]) -> f64 {
    pick.iter().map(|&pos| partials[pos]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repeated_row_is_excluded_at_its_first_position() {
        assert_eq!(self_position(&[4, 7, 4, 9], 4), Some(0));
        assert_eq!(self_position(&[4, 7, 4, 9], 9), Some(3));
        assert_eq!(self_position(&[4, 7, 4, 9], 5), None);
    }

    #[test]
    fn the_pick_drops_the_own_position_whatever_it_decrypted_to() {
        // Position 2 is the query's own; a sentinel that decrypts small
        // still never enters the pick, and k past the candidates returns
        // every other position.
        let complete = [(3.0, 0), (1.0, 1), (0.5, 2), (1.0, 3)];
        assert_eq!(leader_pick(complete, 2, Some(2)), vec![1, 3]);
        assert_eq!(leader_pick(complete, 9, Some(2)), vec![1, 3, 0]);
        assert_eq!(leader_pick(complete, 9, None), vec![2, 1, 3, 0]);
        assert_eq!(leader_pick(complete, 0, Some(2)), Vec::<usize>::new());
    }
}
