//! # vfps-topk — multi-party top-k over rankings
//!
//! The query-processing substrate behind VFPS-SM's efficiency optimization:
//! each participant ranks its partial distances to the same instances,
//! and the aggregation server must find the `k` instances with the
//! smallest *summed* distance while touching as few entries as possible
//! (every touched entry costs an encryption + a transmission).
//!
//! * [`rank::Ranking`] — the participant side: a party's `(score, id)`
//!   pairs ranked only as far as the server reads them. Every ranking and
//!   top-k in the federated protocols goes through it.
//! * [`stream::StreamingFagin`] — the server side: Fagin's algorithm (FA),
//!   the paper's choice, fed with pseudo-ID mini-batches exactly as the
//!   federated workflow runs it (§IV-B, Figs. 2–3).
//!
//! `experiments ablation-topk` compares the federated modes' candidate
//! counts on the paper's datasets.
//!
//! ```
//! use vfps_topk::stream::StreamingFagin;
//! use vfps_topk::Ranking;
//!
//! // Two parties' partial distances to the same three instances.
//! let partials = [vec![0.1, 0.9, 0.5], vec![0.2, 0.8, 0.6]];
//! let mut rankings: Vec<Ranking> = partials.iter().map(|p| Ranking::of_scores(p)).collect();
//! // Each party streams its next pseudo-id, in rank order, until one id
//! // has been seen by both.
//! let mut sf = StreamingFagin::new(2, 3, 1);
//! let mut depth = 0;
//! while !sf.is_complete() {
//!     for (party, ranking) in rankings.iter_mut().enumerate() {
//!         sf.feed(party, &[ranking.prefix(depth + 1)[depth].id()]);
//!     }
//!     depth += 1;
//! }
//! // The leader ranks the candidates' summed distances.
//! let sums = sf.candidates().iter().map(|&id| (partials[0][id] + partials[1][id], id));
//! assert_eq!(Ranking::new(sums).prefix(1)[0].id(), 0);
//! ```

#![warn(missing_docs)]

pub mod rank;
pub mod stream;

pub use rank::Ranking;

/// Identifier of a data instance (a pseudo ID after shuffling).
pub type ItemId = usize;

/// Independent references the algorithms are checked against, written
/// from their definitions rather than from the code under test.
#[cfg(test)]
pub(crate) mod reference {
    use super::ItemId;
    use std::collections::BTreeSet;

    /// The exhaustive top-k: sum in party order, sort by
    /// `(total_cmp, id)`, take `k`.
    pub fn oracle(partials: &[Vec<f64>], k: usize) -> Vec<(ItemId, f64)> {
        let mut all: Vec<(ItemId, f64)> =
            (0..partials[0].len()).map(|id| (id, partials.iter().map(|p| p[id]).sum())).collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// `(id, score)` of each entry, to compare with [`oracle`].
    pub fn pairs(entries: &[crate::rank::Entry]) -> Vec<(ItemId, f64)> {
        entries.iter().map(|e| (e.id(), e.score())).collect()
    }

    /// Each party's ids in `(total_cmp, id)` order, by a full sort.
    pub fn orders(partials: &[Vec<f64>]) -> Vec<Vec<ItemId>> {
        partials
            .iter()
            .map(|p| {
                let mut ids: Vec<ItemId> = (0..p.len()).collect();
                ids.sort_by(|&a, &b| p[a].total_cmp(&p[b]).then(a.cmp(&b)));
                ids
            })
            .collect()
    }

    /// Batch-1 Fagin's stop: the least depth `d` at which `k` ids lie in
    /// every party's length-`d` prefix, and the union of those prefixes.
    pub fn fagin_stop(partials: &[Vec<f64>], k: usize) -> (usize, BTreeSet<ItemId>) {
        let orders = orders(partials);
        let n = partials[0].len();
        let in_all =
            |d: usize| (0..n).filter(|id| orders.iter().all(|o| o[..d].contains(id))).count();
        let d = (0..=n).find(|&d| in_all(d) >= k.min(n)).expect("depth n holds every id");
        (d, orders.iter().flat_map(|o| o[..d].iter().copied()).collect())
    }
}

#[cfg(test)]
mod proptests {
    use super::reference::{fagin_stop, oracle, orders, pairs};
    use super::*;
    use crate::stream::StreamingFagin;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn score_matrix() -> impl Strategy<Value = Vec<Vec<f64>>> {
        // parties in 1..=4, items in 1..=24, scores in a bounded range.
        (1usize..=4, 1usize..=24).prop_flat_map(|(p, n)| {
            proptest::collection::vec(proptest::collection::vec(0.0f64..100.0, n), p)
        })
    }

    /// Scores mapped onto a tiny integer alphabet (0..6) so ties —
    /// within a list and across lists — are the common case.
    fn tied(scores: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        scores.into_iter().map(|s| s.into_iter().map(|v| (v * 0.06).floor()).collect()).collect()
    }

    proptest! {
        /// Fagin's candidate set always contains the true top-k, whatever
        /// the feeding batch size — the correctness property the encrypted
        /// phase relies on — so the leader's top-k over the candidates'
        /// sums, through `Ranking`, is the oracle's.
        #[test]
        fn streaming_candidates_cover_topk(
            scores in score_matrix(),
            ties in 0usize..2,
            k in 1usize..6,
            batch in 1usize..5,
        ) {
            let scores = if ties == 1 { tied(scores) } else { scores };
            let n = scores[0].len();
            let k = k.min(n);
            let mut rankings: Vec<Ranking> = scores.iter().map(|s| Ranking::of_scores(s)).collect();
            let mut sf = StreamingFagin::new(scores.len(), n, k);
            let mut pos = 0;
            'outer: while !sf.is_complete() {
                let end = (pos + batch).min(n);
                for (p, ranking) in rankings.iter_mut().enumerate() {
                    let ids: Vec<ItemId> = ranking.prefix(end)[pos..].iter().map(|e| e.id()).collect();
                    sf.feed(p, &ids);
                    if sf.is_complete() { break 'outer; }
                }
                pos = end;
            }
            let truth = oracle(&scores, k);
            for &(id, _) in &truth {
                prop_assert!(sf.candidates().contains(&id), "top-k id {} missing", id);
            }
            let sums = sf.candidates().iter().map(|&id| (scores.iter().map(|s| s[id]).sum(), id));
            prop_assert_eq!(pairs(Ranking::new(sums).prefix(k)), truth);
        }

        /// Fed one id per party per round, whole rounds at a time, the
        /// stream stops at batch-1 Fagin's depth with exactly the union of
        /// the parties' prefixes to that depth as its candidates — never
        /// fewer than k ids, never more than n.
        #[test]
        fn batch_one_stream_stops_at_the_least_covering_depth(
            scores in score_matrix(),
            k in 1usize..6,
        ) {
            let n = scores[0].len();
            let orders = orders(&scores);
            let mut sf = StreamingFagin::new(scores.len(), n, k);
            let mut depth = 0;
            while !sf.is_complete() {
                for (p, order) in orders.iter().enumerate() {
                    sf.feed(p, &order[depth..=depth]);
                }
                depth += 1;
            }
            let (want_depth, want) = fagin_stop(&scores, k);
            prop_assert_eq!(depth, want_depth);
            prop_assert!(sf.rows_consumed().iter().all(|&r| r == depth));
            prop_assert_eq!(sf.candidates().iter().copied().collect::<BTreeSet<_>>(), want);
            prop_assert_eq!(sf.candidate_count(), want.len(), "no id twice");
            prop_assert!((k.min(n)..=n).contains(&sf.candidate_count()));
        }
    }
}
