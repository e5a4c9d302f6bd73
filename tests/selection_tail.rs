//! One selection tail: cold, warm and churn selections all maximize one
//! `SimilarityAccumulator` matrix through `selectors::select_from_matrix`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vfps_cache::{ArtifactCache, CacheEntry, CacheError};
use vfps_core::cached::{cache_key, select_with_cache, CacheStatus, TenantContext};
use vfps_core::selectors::{SelectionContext, VfpsSmSelector};
use vfps_core::{IncrementalConsortium, KnnSubmodular, Maximizer, SimilarityAccumulator};
use vfps_data::{prepared_sized, Dataset, DatasetSpec, Split, VerticalPartition};
use vfps_net::cost::{CostModel, OpLedger};
use vfps_net::wire::WireError;
use vfps_vfl::fed_knn::{FedKnn, FedKnnConfig, QueryOutcome};

struct World {
    ds: Dataset,
    split: Split,
    partition: VerticalPartition,
}

fn world() -> World {
    let spec = DatasetSpec::by_name("Rice").unwrap();
    let (ds, split) = prepared_sized(&spec, 200, 31);
    let partition = VerticalPartition::random(ds.n_features(), 5, 31);
    World { ds, split, partition }
}

fn ctx(w: &World) -> SelectionContext<'_> {
    SelectionContext {
        ds: &w.ds,
        split: &w.split,
        partition: &w.partition,
        cost_scale: 1.0,
        seed: 31,
    }
}

/// A fresh per-test cache directory (removed up front so reruns start
/// cold).
fn fresh_cache(tag: &str) -> ArtifactCache {
    let dir = std::env::temp_dir().join(format!("vfps_tail_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ArtifactCache::open(dir).unwrap()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// An entry a `select = 2` cold run stored serves a `select = 3` request,
/// bit-equal to a direct run at 3.
fn warm_serves_a_wider_selection_than_stored(maximizer: Maximizer, tag: &str) {
    let w = world();
    let c = ctx(&w);
    let sel = VfpsSmSelector { query_count: 8, maximizer, ..VfpsSmSelector::default() };
    let cache = fresh_cache(tag);
    let parties: Vec<usize> = (0..5).collect();
    let model = CostModel::default();
    let tc = TenantContext::single(b"it-wider");

    let cold = select_with_cache(&cache, &sel, &c, &parties, 2, &model, &tc);
    assert_eq!(cold.status, CacheStatus::Cold);
    let warm = select_with_cache(&cache, &sel, &c, &parties, 3, &model, &tc);
    assert_eq!(warm.status, CacheStatus::Warm, "{maximizer:?}");
    let direct = sel.run_over(&c, &parties, 3).selection;
    assert_eq!(warm.selection.chosen.len(), 3);
    assert_eq!(warm.selection.chosen, direct.chosen, "{maximizer:?}");
    assert_eq!(bits(&warm.selection.scores), bits(&direct.scores), "{maximizer:?}");
}

#[test]
fn warm_lazy_serves_a_wider_selection_than_stored() {
    warm_serves_a_wider_selection_than_stored(Maximizer::Lazy, "lazy");
}

#[test]
fn warm_stochastic_serves_a_wider_selection_than_stored() {
    warm_serves_a_wider_selection_than_stored(Maximizer::Stochastic { epsilon: 0.1 }, "stoch");
}

#[test]
fn misfit_stored_matrix_is_served_cold_as_damage() {
    let w = world();
    let c = ctx(&w);
    let sel = VfpsSmSelector { query_count: 8, ..VfpsSmSelector::default() };
    let cache = fresh_cache("misfit");
    let parties: Vec<usize> = vec![0, 1, 2, 3];
    let model = CostModel::default();
    let tc = TenantContext::single(b"it-misfit");
    let cold = select_with_cache(&cache, &sel, &c, &parties, 2, &model, &tc);
    let key = cache_key(&sel, &c, &parties, &model, &tc);
    let stored = cache.lookup(&key).unwrap().expect("the cold run stored its entry");

    let mut nan_cell = stored.similarity.clone();
    nan_cell[0][1] = f64::NAN;
    for misfit in [vec![vec![1.0; 3]; 3], nan_cell] {
        cache.store(&CacheEntry { similarity: misfit, ..stored.clone() }).unwrap();
        let served = select_with_cache(&cache, &sel, &c, &parties, 2, &model, &tc);
        assert_eq!(served.status, CacheStatus::Cold, "a misfit matrix never serves warm");
        assert!(
            matches!(served.degraded, Some(CacheError::Corrupt(WireError::Invalid(_)))),
            "typed error surfaced: {:?}",
            served.degraded
        );
        assert_eq!(served.selection.chosen, cold.selection.chosen);
        let repaired = select_with_cache(&cache, &sel, &c, &parties, 2, &model, &tc);
        assert_eq!(repaired.status, CacheStatus::Warm, "the cold run overwrote the entry");
    }
}

#[test]
fn churn_leave_and_cold_accumulate_the_same_bits_with_a_degenerate_query() {
    let w = world();
    let parties = [0usize, 1, 2, 3];
    let engine =
        FedKnn::new(&w.ds.x, &w.partition, &parties, &w.split.train, FedKnnConfig::default());
    let mut queries: Vec<usize> = w.split.train[..8].to_vec();
    let mut outcomes: Vec<QueryOutcome> =
        queries.iter().map(|&q| engine.query(q, &mut OpLedger::default())).collect();
    // A query whose neighbours all sit at distance 0 in every party.
    queries.push(w.split.train[8]);
    outcomes.push(QueryOutcome {
        topk_rows: vec![],
        d_t: vec![0.0; 4],
        d_t_total: 0.0,
        candidates: 0,
    });

    let mut churned =
        IncrementalConsortium::from_outcomes(&parties, &w.partition, &queries, &outcomes);
    churned.leave(2);
    let kept = [0usize, 1, 3];
    let counts = kept.iter().map(|&p| w.partition.columns(p).len()).collect();
    let mut cold = SimilarityAccumulator::new(kept.len()).with_feature_counts(counts);
    for o in &outcomes {
        cold.add_d_t(&[o.d_t[0], o.d_t[1], o.d_t[3]]).unwrap();
    }
    let flat = |m: Vec<Vec<f64>>| bits(&m.concat());
    assert_eq!(flat(churned.similarity_matrix()), flat(cold.finish()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `D` all-zero queries turn `w` into `(E·w + D) / (E + D)`: an affine
    /// map with positive slope, which no strict (lazy) greedy choice can
    /// see. An exact tie (one query over an even number of parties ties the
    /// two median profiles) is broken by rounding either way, so tied
    /// instances are rejected, not asserted.
    #[test]
    fn all_zero_queries_never_move_the_lazy_choice(
        seed in 0u64..10_000,
        parties in 3usize..8,
        normal in 1usize..12,
        zeros in 1usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut clean = SimilarityAccumulator::new(parties);
        for _ in 0..normal {
            let d_t: Vec<f64> = (0..parties).map(|_| rng.gen_range(0.01..5.0)).collect();
            clean.add_d_t(&d_t).unwrap();
        }
        let mut padded = clean.clone();
        for _ in 0..zeros {
            padded.add_d_t(&vec![0.0; parties]).unwrap();
        }
        let f = KnnSubmodular::new(clean.finish());
        let g = KnnSubmodular::new(padded.finish());
        let pool = vfps_par::Pool::with_threads(1);
        let mut best = vec![0.0; parties];
        for (v, gain) in f.maximize_scored(parties, Maximizer::Lazy, 0, &pool) {
            let runner_up = (0..parties)
                .filter(|&u| u != v)
                .map(|u| f.gain(&best, u))
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assume!(gain - runner_up > 1e-9);
            for (p, top) in best.iter_mut().enumerate() {
                *top = top.max(f.similarity(p, v));
            }
        }
        for size in 1..=parties {
            let m = Maximizer::Lazy;
            let (clean_pick, padded_pick) =
                (f.maximize(size, m, 0, &pool).0, g.maximize(size, m, 0, &pool).0);
            prop_assert_eq!(clean_pick, padded_pick, "size {}", size);
        }
    }
}
