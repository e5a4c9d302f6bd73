//! Server-side streaming Fagin, matching VFPS-SM's optimized workflow
//! (paper §IV-B, Fig. 3, steps ①–③).
//!
//! In the federated setting the aggregation server never sees scores during
//! the sequential phase — participants stream mini-batches of **pseudo IDs
//! only**, in their local rank order. [`StreamingFagin`] consumes those
//! batches, tracks how many parties each id has surfaced in, and reports
//! completion once `k` ids are fully seen. Every surfaced id becomes a
//! *candidate* whose (encrypted) partial distances are then fetched — the
//! set the paper's Fig. 9 counts.

use crate::ItemId;

/// Incremental Fagin state fed by per-party pseudo-ID batches.
#[derive(Clone, Debug)]
pub struct StreamingFagin {
    parties: usize,
    k: usize,
    seen_count: Vec<u32>,
    surfaced: Vec<ItemId>,
    fully_seen: usize,
    rows_consumed: Vec<usize>,
    ids_received: usize,
}

impl StreamingFagin {
    /// Creates the state machine for `parties` lists over ids `0..n`,
    /// stopping once `k` ids are seen in all lists.
    ///
    /// # Panics
    /// Panics if `parties == 0` or `k == 0`.
    #[must_use]
    pub fn new(parties: usize, n: usize, k: usize) -> Self {
        assert!(parties > 0, "need at least one party");
        assert!(k > 0, "k must be positive");
        StreamingFagin {
            parties,
            k: k.min(n),
            seen_count: vec![0; n],
            surfaced: Vec::new(),
            fully_seen: 0,
            rows_consumed: vec![0; parties],
            ids_received: 0,
        }
    }

    /// Feeds the next mini-batch of ids from `party` (in its rank order).
    ///
    /// Ids past the completion point are still absorbed (they were already
    /// in flight); the caller should consult [`StreamingFagin::is_complete`]
    /// before requesting more batches.
    ///
    /// # Panics
    /// Panics on an out-of-range party or id.
    pub fn feed(&mut self, party: usize, ids: &[ItemId]) {
        assert!(party < self.parties, "party {party} out of range");
        for &id in ids {
            assert!(id < self.seen_count.len(), "id {id} out of range");
            self.rows_consumed[party] += 1;
            self.ids_received += 1;
            let c = &mut self.seen_count[id];
            if *c == 0 {
                self.surfaced.push(id);
            }
            *c += 1;
            if *c as usize == self.parties {
                self.fully_seen += 1;
            }
            if self.is_complete() {
                // Absorb nothing further from this batch: the sequential
                // phase ends the moment the k-th id completes.
                break;
            }
        }
    }

    /// True once `k` ids have appeared in all lists.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.fully_seen >= self.k
    }

    /// Whether feeding `ids` — one party's next batch, so distinct ids —
    /// would complete the stream: each id already seen by all other
    /// parties completes as it arrives.
    ///
    /// A batch that does not complete the stream is absorbed whole, and
    /// leaves the same counts, candidate set and consumption in any order;
    /// only the batch the stream stops in needs its ids in rank order.
    ///
    /// # Panics
    /// Panics on an out-of-range id.
    #[must_use]
    pub fn completes_within(&self, ids: &[ItemId]) -> bool {
        let completing =
            ids.iter().filter(|&&id| self.seen_count[id] as usize + 1 == self.parties).count();
        self.fully_seen + completing >= self.k
    }

    /// All ids surfaced so far, in first-seen order — the candidate set for
    /// the encrypted random-access phase.
    #[must_use]
    pub fn candidates(&self) -> &[ItemId] {
        &self.surfaced
    }

    /// Candidate count (the paper's Fig. 9 metric, per query).
    #[must_use]
    pub fn candidate_count(&self) -> usize {
        self.surfaced.len()
    }

    /// Rows consumed from each party's ranking so far.
    #[must_use]
    pub fn rows_consumed(&self) -> &[usize] {
        &self.rows_consumed
    }

    /// Total ids received across all parties (communication volume of the
    /// sequential phase, in ids).
    #[must_use]
    pub fn ids_received(&self) -> usize {
        self.ids_received
    }

    /// Number of ids fully seen so far.
    #[must_use]
    pub fn fully_seen(&self) -> usize {
        self.fully_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Round-robin feeding with batch size `b` until completion; returns the
    /// final state.
    fn run_round_robin(rankings: &[Vec<ItemId>], k: usize, b: usize) -> StreamingFagin {
        let n = rankings[0].len();
        let mut sf = StreamingFagin::new(rankings.len(), n, k);
        let mut pos = vec![0usize; rankings.len()];
        while !sf.is_complete() {
            for (p, ranking) in rankings.iter().enumerate() {
                let end = (pos[p] + b).min(ranking.len());
                sf.feed(p, &ranking[pos[p]..end]);
                pos[p] = end;
                if sf.is_complete() {
                    break;
                }
            }
        }
        sf
    }

    /// The walkthrough of the paper's Fig. 2: three parties' distances to
    /// X1..X4 (ids 0..3), k = 2, one id per party per round.
    #[test]
    fn completes_when_k_ids_fully_seen() {
        let scores = [vec![1.0, 2.0, 6.0, 9.0], vec![3.0, 3.5, 1.0, 2.0], vec![1.0, 1.5, 2.0, 9.0]];
        let rankings: Vec<Vec<ItemId>> = scores
            .iter()
            .map(|s| crate::Ranking::of_scores(s).into_iter().map(|e| e.id()).collect())
            .collect();
        assert_eq!(rankings, [[0, 1, 2, 3], [2, 3, 0, 1], [0, 1, 2, 3]], "the figure's orders");
        let sf = run_round_robin(&rankings, 2, 1);
        assert!(sf.is_complete());
        assert_eq!(sf.fully_seen(), 2, "X1 and X3 are seen in every list");
        assert_eq!(sf.rows_consumed(), [3, 3, 3], "the scan stops at depth 3");
        assert_eq!(sf.candidates(), [0, 2, 1, 3], "X1..X4 all surfaced");
        // The leader ranks the candidates' sums: X1 = 5, X2 = 7, X3 = 9.
        let sums = sf.candidates().iter().map(|&id| (scores.iter().map(|s| s[id]).sum(), id));
        let top: Vec<ItemId> = crate::Ranking::new(sums).prefix(2).iter().map(|e| e.id()).collect();
        assert_eq!(top, [0, 1], "minimal-2 is X1, X2 — not the fully-seen X3");
    }

    /// Reversed rankings force a deep scan — FA's worst case — and the
    /// candidates still hold the best sum.
    #[test]
    fn anti_correlated_rankings_scan_past_the_middle() {
        let asc: Vec<f64> = (0..10).map(f64::from).collect();
        let desc: Vec<f64> = (0..10).rev().map(|v| f64::from(v) * 0.5).collect();
        let scores = [asc, desc];
        let rankings = crate::reference::orders(&scores);
        let sf = run_round_robin(&rankings, 1, 1);
        assert!(
            sf.rows_consumed()[0] > 5,
            "must scan past the middle, got {:?}",
            sf.rows_consumed()
        );
        let best = crate::reference::oracle(&scores, 1)[0].0;
        assert!(sf.candidates().contains(&best), "best id {best} missing");
    }

    #[test]
    fn aligned_rankings_need_k_rows() {
        let rankings = vec![vec![5, 4, 3, 2, 1, 0], vec![5, 4, 3, 2, 1, 0]];
        let sf = run_round_robin(&rankings, 3, 1);
        assert_eq!(sf.candidate_count(), 3);
        assert!(sf.rows_consumed().iter().all(|&r| r == 3));
    }

    #[test]
    fn batch_size_does_not_change_candidates_much() {
        let rankings = vec![
            vec![0, 1, 2, 3, 4, 5, 6, 7],
            vec![7, 6, 5, 4, 3, 2, 1, 0],
            vec![3, 1, 4, 0, 5, 2, 7, 6],
        ];
        let s1 = run_round_robin(&rankings, 2, 1);
        let s4 = run_round_robin(&rankings, 2, 4);
        assert!(s1.is_complete() && s4.is_complete());
        // Bigger batches may overshoot, never undershoot.
        assert!(s4.candidate_count() >= s1.candidate_count());
    }

    #[test]
    fn stops_absorbing_mid_batch_after_completion() {
        let mut sf = StreamingFagin::new(1, 10, 2);
        sf.feed(0, &[9, 8, 7, 6, 5]);
        assert!(sf.is_complete());
        // Single party: every id completes instantly; the k-th completes at
        // the second element, so the rest of the batch is dropped.
        assert_eq!(sf.candidate_count(), 2);
        assert_eq!(sf.ids_received(), 2);
    }

    #[test]
    fn candidates_are_the_surfaced_ids_in_first_seen_order() {
        let mut sf = StreamingFagin::new(2, 5, 5);
        sf.feed(0, &[3, 1]);
        sf.feed(1, &[2, 1]);
        assert_eq!(sf.candidates(), [3, 1, 2]);
        assert_eq!(sf.fully_seen(), 1);
        assert!(!sf.is_complete());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_party() {
        let mut sf = StreamingFagin::new(2, 5, 1);
        sf.feed(2, &[0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_id() {
        let mut sf = StreamingFagin::new(2, 5, 1);
        sf.feed(0, &[5]);
    }

    #[test]
    fn k_clamped_to_n() {
        let mut sf = StreamingFagin::new(1, 3, 10);
        sf.feed(0, &[0, 1, 2]);
        assert!(sf.is_complete());
    }

    proptest::proptest! {
        /// `completes_within` predicts `is_complete` after the feed, and a
        /// batch it says the stream does not stop in leaves the same state
        /// fed in any order.
        #[test]
        fn completes_within_predicts_the_feed(
            parties in 1usize..5,
            n in 1usize..60,
            k in 1usize..12,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::seq::SliceRandom;
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let rankings: Vec<Vec<ItemId>> = (0..parties)
                .map(|_| {
                    let mut r: Vec<ItemId> = (0..n).collect();
                    r.shuffle(&mut rng);
                    r
                })
                .collect();
            let mut sf = StreamingFagin::new(parties, n, k);
            let mut pos = vec![0usize; parties];
            while !sf.is_complete() {
                let party = rng.gen_range(0..parties);
                let end = (pos[party] + rng.gen_range(1usize..=8)).min(n);
                let batch = &rankings[party][pos[party]..end];
                pos[party] = end;
                let predicted = sf.completes_within(batch);
                let mut reordered = batch.to_vec();
                reordered.shuffle(&mut rng);
                let mut other = sf.clone();
                sf.feed(party, batch);
                proptest::prop_assert_eq!(predicted, sf.is_complete());
                if !predicted {
                    other.feed(party, &reordered);
                    let set = |s: &StreamingFagin| {
                        s.candidates().iter().copied().collect::<std::collections::BTreeSet<_>>()
                    };
                    proptest::prop_assert_eq!(set(&other), set(&sf));
                    proptest::prop_assert_eq!(other.rows_consumed(), sf.rows_consumed());
                    proptest::prop_assert_eq!(other.ids_received(), sf.ids_received());
                    proptest::prop_assert_eq!(other.fully_seen(), sf.fully_seen());
                }
            }
        }
    }
}
