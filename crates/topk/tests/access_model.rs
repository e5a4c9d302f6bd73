//! The access model the top-k algorithms are compared on: what an outcome
//! reports matches what its lists counted, counters start fresh only when
//! reset, all three algorithms agree at scale, the streaming FA stops where
//! the batch FA does, and the participant-side `Ranking` orders exactly as
//! the oracle `RankedList` does.

use proptest::prelude::*;
use vfps_topk::fagin::fagin_topk;
use vfps_topk::list::total_stats;
use vfps_topk::naive::naive_topk;
use vfps_topk::stream::StreamingFagin;
use vfps_topk::threshold::threshold_topk;
use vfps_topk::{Direction, RankedList, Ranking, TopkOutcome};

type Algorithm = fn(&mut [RankedList], usize) -> TopkOutcome;
type Shape = (&'static str, fn() -> Vec<RankedList>);

const ALGORITHMS: [(&str, Algorithm); 3] =
    [("naive", naive_topk), ("fagin", fagin_topk), ("threshold", threshold_topk)];

/// Scores rise with the id, so the lists roughly agree on the order.
fn correlated(n: usize, parties: usize, direction: Direction) -> Vec<RankedList> {
    (0..parties)
        .map(|p| {
            let scores = (0..n).map(|i| i as f64 + ((i * 7 + p * 13) % 10) as f64 * 0.3).collect();
            RankedList::from_scores(scores, direction)
        })
        .collect()
}

/// Even parties rank ids up, odd parties down at half the slope.
fn anti_correlated(n: usize, parties: usize) -> Vec<RankedList> {
    (0..parties)
        .map(|p| {
            let scores =
                (0..n).map(|i| if p % 2 == 0 { i as f64 } else { (n - i) as f64 * 0.5 }).collect();
            RankedList::from_scores(scores, Direction::Ascending)
        })
        .collect()
}

#[test]
fn outcomes_report_the_random_accesses_their_lists_counted() {
    for (name, run) in ALGORITHMS {
        let mut lists = correlated(120, 3, Direction::Ascending);
        let out = run(&mut lists, 5);
        assert_eq!(out.random_accesses, total_stats(&lists).random, "{name}");
    }
}

/// Counters accumulate across runs until `reset_stats`, after which a rerun
/// costs exactly what the first run did.
#[test]
fn counters_accumulate_until_reset() {
    let mut lists = correlated(50, 2, Direction::Ascending);
    let _ = fagin_topk(&mut lists, 3);
    let first = total_stats(&lists);
    assert!(first.total() > 0);
    let _ = fagin_topk(&mut lists, 3);
    assert_eq!(total_stats(&lists), first.merged(first));
    lists.iter_mut().for_each(RankedList::reset_stats);
    let _ = fagin_topk(&mut lists, 3);
    assert_eq!(total_stats(&lists), first);
}

/// FA and TA return the exhaustive oracle's id set on 200-item lists, well
/// past the proptests' 24, for correlated lists in both directions and for
/// anti-correlated ones.
#[test]
fn all_algorithms_agree_with_the_oracle_at_scale() {
    let shapes: [Shape; 3] = [
        ("correlated asc", || correlated(200, 3, Direction::Ascending)),
        ("correlated desc", || correlated(200, 3, Direction::Descending)),
        ("anti-correlated", || anti_correlated(200, 4)),
    ];
    for (shape, make) in shapes {
        for k in [1, 5, 50, 200] {
            let mut oracle = naive_topk(&mut make(), k).ids();
            oracle.sort_unstable();
            for (name, run) in &ALGORITHMS[1..] {
                let mut ids = run(&mut make(), k).ids();
                ids.sort_unstable();
                assert_eq!(ids, oracle, "{name} on {shape}, k = {k}");
            }
        }
    }
}

/// Fed one id per party per round, the streaming FA stops in the round the
/// batch FA stops in, and never holds more candidates than it examined.
#[test]
fn streaming_fagin_stops_at_the_batch_depth() {
    for k in [1, 4, 16] {
        let mut lists = correlated(150, 3, Direction::Ascending);
        let batch = fagin_topk(&mut lists, k);
        let rankings: Vec<Vec<usize>> =
            lists.iter().map(|l| l.ranking().iter().map(|e| e.0).collect()).collect();
        let mut sf = StreamingFagin::new(3, 150, k);
        let mut depth = 0;
        while !sf.is_complete() {
            for (p, ranking) in rankings.iter().enumerate() {
                if !sf.is_complete() {
                    sf.feed(p, &ranking[depth..=depth]);
                }
            }
            depth += 1;
        }
        assert_eq!(depth, batch.depth, "k = {k}");
        assert_eq!(sf.rows_consumed()[0], batch.depth);
        assert!(sf.candidate_count() <= batch.candidates_examined, "k = {k}");
    }
}

proptest! {
    /// A full `Ranking` lists `(score, id)` in the order `RankedList` sorts
    /// them: `f64::total_cmp`, ties by id, over ties, signed zeros,
    /// infinities and NaN.
    #[test]
    fn ranking_orders_like_the_ranked_list(
        picks in proptest::collection::vec(0usize..7, 1..60),
    ) {
        let alphabet = [0.0, -0.0, 1.5, -2.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let scores: Vec<f64> = picks.iter().map(|&i| alphabet[i]).collect();
        let list = RankedList::from_scores(scores.clone(), Direction::Ascending);
        let ranked: Vec<(usize, u64)> =
            Ranking::of_scores(&scores).into_iter().map(|e| (e.id(), e.score().to_bits())).collect();
        let oracle: Vec<(usize, u64)> = list.ranking().iter().map(|e| (e.0, e.1.to_bits())).collect();
        prop_assert_eq!(ranked, oracle);
    }
}
