//! The Threshold Algorithm (TA) of Fagin, Lotem & Naor (PODS 2001), over
//! the parties' [`Ranking`]s.
//!
//! TA interleaves sequential and random access: each id surfaced at the
//! scan depth is immediately scored in full, and the scan stops as soon as
//! `k` ids beat the *threshold* — the sum of the scores at the current
//! depth, which lower-bounds every id not yet surfaced. Sequential access
//! reads one more entry of each party's ranking; random access reads a
//! partial by id. TA typically stops well before Fagin's algorithm.

use crate::rank::{Entry, Ranking};

/// What a TA run found and what it touched.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThresholdOutcome {
    /// The best `k` ids, best first, each with its summed score.
    pub topk: Vec<Entry>,
    /// Ids scored in full: each cost one random access per party — in the
    /// federated setting an encrypted point query to every party.
    pub candidates: usize,
    /// Sequential scan depth reached in every party's ranking.
    pub depth: usize,
}

/// Runs TA over `partials[p][id]` — party `p`'s score of `id` — returning
/// the `k` ids with the smallest summed score, ties by id.
///
/// Totals are summed in party order. The stop test is strict: an exact tie
/// with the threshold scans on, so an unseen id that the id tiebreak would
/// rank first is never cut off.
///
/// # Panics
/// Panics if `partials` is empty or the parties score different numbers
/// of ids.
#[must_use]
pub fn threshold_topk(partials: &[Vec<f64>], k: usize) -> ThresholdOutcome {
    assert!(!partials.is_empty(), "need at least one party");
    let n = partials[0].len();
    assert!(partials.iter().all(|p| p.len() == n), "parties must score the same ids");
    let k = k.min(n);
    let mut rankings: Vec<Ranking> = partials.iter().map(|p| Ranking::of_scores(p)).collect();

    let mut scored = vec![false; n];
    let mut best: Vec<Entry> = Vec::with_capacity(k + 1);
    let mut frontier: Vec<Entry> = Vec::with_capacity(partials.len());
    let mut candidates = 0;
    let mut depth = 0;
    while depth < n {
        frontier.clear();
        frontier.extend(rankings.iter_mut().map(|r| r.prefix(depth + 1)[depth]));
        for id in frontier.iter().map(|e| e.id()) {
            if std::mem::replace(&mut scored[id], true) {
                continue;
            }
            let total: f64 = partials.iter().map(|p| p[id]).sum();
            candidates += 1;
            let entry = Entry::new(total, id);
            best.insert(best.partition_point(|e| *e < entry), entry);
            best.truncate(k);
        }
        depth += 1;

        let tau: f64 = frontier.iter().map(|e| e.score()).sum();
        if best.len() == k && best.last().is_some_and(|e| e.score() < tau) {
            break;
        }
    }
    ThresholdOutcome { topk: best, candidates, depth }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{fagin_stop, oracle, pairs};

    #[test]
    fn matches_the_oracle() {
        let partials = [
            vec![0.5, 2.0, 1.0, 4.0, 3.0, 0.1, 7.0, 0.9],
            vec![1.5, 0.2, 2.0, 0.4, 3.0, 2.2, 0.1, 1.1],
        ];
        for k in 1..=8 {
            assert_eq!(pairs(&threshold_topk(&partials, k).topk), oracle(&partials, k), "k={k}");
        }
    }

    #[test]
    fn stops_no_later_than_fagin() {
        let partials = [
            vec![1.0, 2.0, 6.0, 9.0, 0.5, 4.0],
            vec![3.0, 3.5, 1.0, 2.0, 5.0, 0.2],
            vec![1.0, 1.5, 2.0, 9.0, 0.1, 3.3],
        ];
        for k in 1..=6 {
            let ta = threshold_topk(&partials, k);
            let (fa, _) = fagin_stop(&partials, k);
            assert!(ta.depth <= fa, "k={k}: TA depth {} vs FA depth {fa}", ta.depth);
            assert_eq!(pairs(&ta.topk), oracle(&partials, k), "k={k}");
        }
    }

    #[test]
    fn early_stop_on_aligned_lists() {
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        let out = threshold_topk(&[s.clone(), s], 1);
        assert_eq!(out.topk[0].id(), 0);
        assert_eq!((out.depth, out.candidates), (2, 2), "aligned lists stop at once");
    }

    /// Reversed rankings put the best sum mid-list: TA must scan to it.
    #[test]
    fn anti_correlated_lists_scan_to_the_middle() {
        let asc: Vec<f64> = (0..10).map(f64::from).collect();
        let desc: Vec<f64> = (0..10).rev().map(f64::from).collect();
        let partials = [asc, desc];
        let out = threshold_topk(&partials, 1);
        assert!(out.depth >= 5, "must scan past the middle, got {}", out.depth);
        assert_eq!(pairs(&out.topk), oracle(&partials, 1));
    }

    #[test]
    fn k_at_least_n_returns_every_id() {
        let partials = [vec![2.0, 1.0, 3.0], vec![1.0, 2.0, 0.5]];
        for k in [3, 50] {
            let out = threshold_topk(&partials, k);
            assert_eq!(pairs(&out.topk), oracle(&partials, 3), "k={k}");
            assert_eq!((out.depth, out.candidates), (3, 3), "k={k}");
        }
    }

    #[test]
    fn single_party_is_its_ranking() {
        let out = threshold_topk(&[vec![3.0, 1.0, 2.0]], 2);
        assert_eq!(pairs(&out.topk), vec![(1, 1.0), (2, 2.0)]);
        assert_eq!(out.depth, 3, "the third score is the first above 2.0");
    }

    /// The engines give a query's own database row `+∞` in every party:
    /// it can only come last, and a tie with the threshold scans on.
    #[test]
    fn an_infinite_self_row_ranks_last() {
        let inf = f64::INFINITY;
        let partials = [vec![1.0, inf, 1.0, 2.0], vec![1.0, inf, 1.0, 0.0]];
        let out = threshold_topk(&partials, 3);
        assert_eq!(pairs(&out.topk), vec![(0, 2.0), (2, 2.0), (3, 2.0)]);
        assert_eq!(out.depth, 3, "depth 2's threshold 2.0 ties the third total");
        assert_eq!(pairs(&threshold_topk(&partials, 4).topk)[3], (1, inf));
    }

    /// On lists that roughly agree TA touches fewer entries — one
    /// sequential and one random access per party per depth and candidate
    /// — than the full scan's `n × P`.
    #[test]
    fn touches_fewer_entries_than_a_full_scan() {
        let partials: Vec<Vec<f64>> = (0..3usize)
            .map(|p| {
                (0..200usize).map(|i| i as f64 + ((i * 7 + p * 13) % 10) as f64 * 0.3).collect()
            })
            .collect();
        let out = threshold_topk(&partials, 5);
        assert!((out.depth + out.candidates) * 3 < 200 * 3, "{out:?}");
        assert_eq!(pairs(&out.topk), oracle(&partials, 5));
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn an_empty_consortium_panics() {
        let _ = threshold_topk(&[], 1);
    }

    #[test]
    #[should_panic(expected = "the same ids")]
    fn ragged_partials_panic() {
        let _ = threshold_topk(&[vec![1.0, 2.0], vec![1.0]], 1);
    }
}
