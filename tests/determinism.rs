//! Determinism across thread counts — the hard requirement on `vfps-par`.
//!
//! The parallel selection engine must be a pure function of its inputs:
//! the selected participant set, the similarity matrix `w(p, s)`, and the
//! operation ledger have to be *bit-identical* whether the pool runs 1
//! worker, 2, or one per core. These properties drive the full
//! fed-KNN → accumulate → maximize pipeline on explicit pools over random
//! datasets, seeds, and query sets, and compare every artifact against
//! the single-threaded reference.

use proptest::prelude::*;
use vfps_core::{KnnSubmodular, Maximizer, SimilarityAccumulator};
use vfps_data::{prepared_sized, DatasetSpec, VerticalPartition};
use vfps_net::cost::OpLedger;
use vfps_par::Pool;
use vfps_vfl::fed_knn::{FedKnn, FedKnnConfig, KnnMode};

/// The thread counts under test: sequential, minimal parallelism, and one
/// worker per core on the host running the suite.
fn thread_counts() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut counts = vec![1, 2, cores];
    counts.dedup();
    counts
}

/// Runs the selection pipeline on `pool` and returns every artifact that
/// must be invariant: the chosen set, the similarity matrix as raw bits,
/// and the ledger.
fn run_selection(
    seed: u64,
    query_count: usize,
    mode: KnnMode,
    pool: &Pool,
) -> (Vec<usize>, Vec<Vec<u64>>, OpLedger) {
    let spec = DatasetSpec::by_name("Rice").expect("catalog");
    let (ds, split) = prepared_sized(&spec, 160, seed);
    let parties = [0usize, 1, 2, 3];
    let partition = VerticalPartition::random(ds.n_features(), parties.len(), seed);
    let cfg = FedKnnConfig { k: 5, mode, batch: 40, cost_scale: 1.0 };
    let engine = FedKnn::new(&ds.x, &partition, &parties, &split.train, cfg);

    let queries: Vec<usize> = split.train.iter().copied().take(query_count).collect();
    let counts: Vec<usize> = parties.iter().map(|&p| partition.columns(p).len()).collect();
    let mut acc = SimilarityAccumulator::new(parties.len()).with_feature_counts(counts);
    let mut ledger = OpLedger::default();
    for outcome in engine.query_batch(&queries, pool, &mut ledger) {
        acc.add_query(&outcome).unwrap();
    }
    let w = acc.finish();
    let w_bits: Vec<Vec<u64>> =
        w.iter().map(|row| row.iter().map(|v| v.to_bits()).collect()).collect();
    let (chosen, _) = KnnSubmodular::new(w).maximize(2, Maximizer::Lazy, seed, pool);
    (chosen, w_bits, ledger)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn selection_is_bit_identical_across_thread_counts(
        seed in 0u64..1_000,
        query_count in 4usize..12,
    ) {
        let reference = run_selection(seed, query_count, KnnMode::Fagin, &Pool::with_threads(1));
        for threads in thread_counts() {
            let pool = Pool::with_threads(threads);
            let run = run_selection(seed, query_count, KnnMode::Fagin, &pool);
            prop_assert_eq!(&run.0, &reference.0, "chosen set at {} threads", threads);
            prop_assert_eq!(&run.1, &reference.1, "w(p,s) bits at {} threads", threads);
            prop_assert_eq!(&run.2, &reference.2, "ledger at {} threads", threads);
        }
    }

    #[test]
    fn base_mode_is_bit_identical_across_thread_counts(seed in 0u64..1_000) {
        let reference = run_selection(seed, 6, KnnMode::Base, &Pool::with_threads(1));
        for threads in thread_counts() {
            let run = run_selection(seed, 6, KnnMode::Base, &Pool::with_threads(threads));
            prop_assert_eq!(&run.0, &reference.0, "chosen set at {} threads", threads);
            prop_assert_eq!(&run.1, &reference.1, "w(p,s) bits at {} threads", threads);
            prop_assert_eq!(&run.2, &reference.2, "ledger at {} threads", threads);
        }
    }
}

/// A dense random facility-location instance for the maximizer-level
/// determinism checks (unit diagonal, symmetric uniform off-diagonal).
fn random_instance(n: usize, seed: u64) -> KnnSubmodular {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        w[i][i] = 1.0;
        for j in 0..i {
            let v: f64 = rng.gen_range(0.0..1.0);
            w[i][j] = v;
            w[j][i] = v;
        }
    }
    KnnSubmodular::new(w)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seeded stochastic greedy samples sequentially and only maps the
    /// gain evaluations over the pool, so the chosen set (and the exact
    /// evaluation count) must be a pure function of the seed — identical
    /// at 1, 2, and cores threads.
    #[test]
    fn parallel_stochastic_greedy_is_bit_identical_across_thread_counts(
        seed in 0u64..1_000,
        n in 40usize..90,
    ) {
        let f = random_instance(n, seed);
        let m = Maximizer::Stochastic { epsilon: 0.1 };
        let reference = f.maximize(10, m, seed, &Pool::with_threads(1));
        for threads in thread_counts() {
            let run = f.maximize(10, m, seed, &Pool::with_threads(threads));
            prop_assert_eq!(&run.0, &reference.0, "chosen set at {} threads", threads);
            prop_assert_eq!(run.1, reference.1, "eval count at {} threads", threads);
        }
    }
}

/// Repeated runs on the *same* pool must also agree with each other — the
/// pool may not leak state between scopes.
#[test]
fn repeated_runs_on_one_pool_are_stable() {
    let pool = Pool::with_threads(4);
    let first = run_selection(7, 8, KnnMode::Fagin, &pool);
    for _ in 0..3 {
        let again = run_selection(7, 8, KnnMode::Fagin, &pool);
        assert_eq!(again.0, first.0);
        assert_eq!(again.1, first.1);
        assert_eq!(again.2, first.2);
    }
}
