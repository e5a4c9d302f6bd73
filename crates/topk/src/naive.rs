//! The naive multi-party top-k baseline: random-access every score in every
//! list, aggregate, and sort. Correct by construction; used as the oracle
//! for the optimized algorithms and as the cost baseline (`VFPS-SM-BASE`
//! touches exactly this many items per query).

use crate::list::{Direction, ItemId, RankedList};
use crate::TopkOutcome;

/// Full-scan top-k: aggregates every id across all lists.
///
/// # Panics
/// Panics if `lists` is empty or lists disagree on length/direction.
#[must_use]
pub fn naive_topk(lists: &mut [RankedList], k: usize) -> TopkOutcome {
    assert!(!lists.is_empty(), "need at least one list");
    let n = lists[0].len();
    let direction = lists[0].direction();
    assert!(
        lists.iter().all(|l| l.len() == n && l.direction() == direction),
        "lists must agree on length and direction"
    );
    let mut agg: Vec<(ItemId, f64)> = (0..n).map(|id| (id, 0.0)).collect();
    for list in lists.iter_mut() {
        for entry in agg.iter_mut() {
            entry.1 += list.random_access(entry.0).expect("dense ids");
        }
    }
    sort_for(direction, &mut agg);
    agg.truncate(k);
    // Every id is point-looked-up in every list: the full n x |P| cost.
    TopkOutcome { topk: agg, candidates_examined: n, depth: 0, random_accesses: n * lists.len() }
}

/// Sorts aggregate scores best-first for `direction`, ties by id.
pub(crate) fn sort_for(direction: Direction, items: &mut [(ItemId, f64)]) {
    items.sort_by(|a, b| {
        let ord = match direction {
            Direction::Ascending => a.1.total_cmp(&b.1),
            Direction::Descending => b.1.total_cmp(&a.1),
        };
        ord.then(a.0.cmp(&b.0))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::total_stats;

    fn lists() -> Vec<RankedList> {
        vec![
            RankedList::from_scores(vec![1.0, 5.0, 2.0, 9.0], Direction::Ascending),
            RankedList::from_scores(vec![2.0, 1.0, 3.0, 9.0], Direction::Ascending),
        ]
    }

    #[test]
    fn finds_minimal_k() {
        let mut ls = lists();
        let out = naive_topk(&mut ls, 2);
        // Aggregates: 3, 6, 5, 18 → minimal-2 = ids 0 and 2.
        assert_eq!(out.topk, vec![(0, 3.0), (2, 5.0)]);
        assert_eq!(out.candidates_examined, 4);
    }

    #[test]
    fn touches_every_item_in_every_list() {
        let mut ls = lists();
        let _ = naive_topk(&mut ls, 1);
        let stats = total_stats(&ls);
        assert_eq!(stats.random, 8, "2 lists x 4 items");
        assert_eq!(stats.sequential, 0);

        // On correlated but not aligned lists every other algorithm pays
        // fewer accesses in total than the full scan.
        let correlated = || -> Vec<RankedList> {
            (0..3)
                .map(|p| {
                    let scores: Vec<f64> = (0..200usize)
                        .map(|i| i as f64 + ((i * 7 + p * 13) % 10) as f64 * 0.3)
                        .collect();
                    RankedList::from_scores(scores, Direction::Ascending)
                })
                .collect()
        };
        let cost = |run: fn(&mut [RankedList], usize) -> crate::TopkOutcome| {
            let mut ls = correlated();
            let _ = run(&mut ls, 5);
            total_stats(&ls)
        };
        let naive = cost(naive_topk);
        assert_eq!(naive.random, 600, "3 lists x 200 items");
        for (name, stats) in [
            ("fagin", cost(crate::fagin::fagin_topk)),
            ("threshold", cost(crate::threshold::threshold_topk)),
        ] {
            let total = stats.total();
            assert!(total < naive.total(), "{name} paid {total} vs naive {}", naive.total());
        }
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let mut ls = lists();
        let out = naive_topk(&mut ls, 100);
        assert_eq!(out.topk.len(), 4);
    }

    #[test]
    fn descending_direction() {
        let mut ls = vec![
            RankedList::from_scores(vec![1.0, 5.0, 2.0], Direction::Descending),
            RankedList::from_scores(vec![2.0, 1.0, 3.0], Direction::Descending),
        ];
        let out = naive_topk(&mut ls, 1);
        assert_eq!(out.topk, vec![(1, 6.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one list")]
    fn empty_input_panics() {
        let _ = naive_topk(&mut [], 1);
    }
}
