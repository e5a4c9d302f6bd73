//! The top-k algorithms against references written from their
//! definitions: at 200 ids the streaming FA returns the exhaustive
//! oracle's top-k, the batch-1 stream stops exactly where Fagin's
//! algorithm does, and `Ranking` orders exactly as a full sort.

use std::collections::BTreeSet;

use proptest::prelude::*;
use vfps_topk::stream::StreamingFagin;
use vfps_topk::{ItemId, Ranking};

type Shape = (&'static str, fn() -> Vec<Vec<f64>>);

/// Scores rise with the id, so the lists roughly agree on the order.
fn correlated(n: usize, parties: usize) -> Vec<Vec<f64>> {
    (0..parties)
        .map(|p| (0..n).map(|i| i as f64 + ((i * 7 + p * 13) % 10) as f64 * 0.3).collect())
        .collect()
}

/// Even parties rank ids up, odd parties down at half the slope.
fn anti_correlated(n: usize, parties: usize) -> Vec<Vec<f64>> {
    (0..parties)
        .map(|p| (0..n).map(|i| if p % 2 == 0 { i as f64 } else { (n - i) as f64 * 0.5 }).collect())
        .collect()
}

/// The exhaustive top-k: sum in party order, sort by `(total_cmp, id)`,
/// take `k`.
fn oracle(partials: &[Vec<f64>], k: usize) -> Vec<(ItemId, f64)> {
    let mut all: Vec<(ItemId, f64)> =
        (0..partials[0].len()).map(|id| (id, partials.iter().map(|p| p[id]).sum())).collect();
    all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// Each party's ids in `(total_cmp, id)` order, by a full sort.
fn orders(partials: &[Vec<f64>]) -> Vec<Vec<ItemId>> {
    partials
        .iter()
        .map(|p| {
            let mut ids: Vec<ItemId> = (0..p.len()).collect();
            ids.sort_by(|&a, &b| p[a].total_cmp(&p[b]).then(a.cmp(&b)));
            ids
        })
        .collect()
}

/// Feeds `partials`' rankings to a stream in whole rounds of `batch` ids
/// per party until it completes; returns it with the rounds' depth.
fn stream(partials: &[Vec<f64>], k: usize, batch: usize) -> (StreamingFagin, usize) {
    let n = partials[0].len();
    let mut rankings: Vec<Ranking> = partials.iter().map(|p| Ranking::of_scores(p)).collect();
    let mut sf = StreamingFagin::new(partials.len(), n, k);
    let mut depth = 0;
    while !sf.is_complete() {
        let end = (depth + batch).min(n);
        for (p, ranking) in rankings.iter_mut().enumerate() {
            let ids: Vec<ItemId> = ranking.prefix(end)[depth..].iter().map(|e| e.id()).collect();
            sf.feed(p, &ids);
        }
        depth = end;
    }
    (sf, depth)
}

/// The streaming FA (the leader ranking the candidates' sums) returns
/// the oracle's ids and totals on 200-id lists, well past the proptests'
/// 24, for correlated and anti-correlated lists.
#[test]
fn fagin_agrees_with_the_oracle_at_scale() {
    let shapes: [Shape; 2] =
        [("correlated", || correlated(200, 3)), ("anti-correlated", || anti_correlated(200, 4))];
    for (shape, make) in shapes {
        let partials = make();
        for k in [1, 5, 50, 200] {
            let want = oracle(&partials, k);
            for batch in [1, 16] {
                let (sf, _) = stream(&partials, k, batch);
                let sums =
                    sf.candidates().iter().map(|&id| (partials.iter().map(|p| p[id]).sum(), id));
                let fa: Vec<(ItemId, f64)> =
                    Ranking::new(sums).prefix(k).iter().map(|e| (e.id(), e.score())).collect();
                assert_eq!(fa, want, "fagin on {shape}, k = {k}, batch = {batch}");
            }
        }
    }
}

/// Fed one id per party per round, the stream stops at the least depth at
/// which `k` ids lie in every party's prefix, and its candidates are
/// exactly the union of those prefixes.
#[test]
fn streaming_fagin_stops_at_the_least_covering_depth() {
    for k in [1, 4, 16] {
        let partials = correlated(150, 3);
        let orders = orders(&partials);
        let in_all =
            |d: usize| (0..150).filter(|id| orders.iter().all(|o| o[..d].contains(id))).count();
        let want_depth = (0..=150).find(|&d| in_all(d) >= k).expect("depth 150 holds every id");
        let want: BTreeSet<ItemId> =
            orders.iter().flat_map(|o| o[..want_depth].iter().copied()).collect();

        let (sf, depth) = stream(&partials, k, 1);
        assert_eq!(depth, want_depth, "k = {k}");
        assert_eq!(sf.rows_consumed(), [want_depth; 3], "k = {k}");
        assert_eq!(sf.candidates().iter().copied().collect::<BTreeSet<_>>(), want, "k = {k}");
        assert_eq!(sf.candidate_count(), want.len(), "k = {k}: no id twice");
    }
}

proptest! {
    /// A full `Ranking` lists `(score, id)` in the order a stable
    /// `(total_cmp, id)` sort does, over ties, signed zeros, infinities
    /// and NaN.
    #[test]
    fn ranking_orders_like_the_full_sort(
        picks in proptest::collection::vec(0usize..7, 1..60),
    ) {
        let alphabet = [0.0, -0.0, 1.5, -2.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        let scores: Vec<f64> = picks.iter().map(|&i| alphabet[i]).collect();
        let ranked: Vec<(usize, u64)> =
            Ranking::of_scores(&scores).into_iter().map(|e| (e.id(), e.score().to_bits())).collect();
        let sorted: Vec<(usize, u64)> = orders(std::slice::from_ref(&scores))[0]
            .iter()
            .map(|&id| (id, scores[id].to_bits()))
            .collect();
        prop_assert_eq!(ranked, sorted);
    }
}
