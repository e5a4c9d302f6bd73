//! Exact work counters of the selection stack, pinned to equality.
//!
//! Encryption counts, traffic bytes, candidate counts, distance and gain
//! evaluations are deterministic outputs of the protocol and the
//! maximizers: they do not depend on the host, its speed or its thread
//! count, so any drift is a real change of behaviour. Each test states the
//! workload it counts; the values were produced by the code as it stood
//! when they were written down, and a change that moves one must say why.
//!
//! The obs recorder is process-global, so every test here serializes on
//! one mutex: a capture must not count another test's work.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vfps_cache::ArtifactCache;
use vfps_core::selectors::{SelectionContext, VfpsSmSelector};
use vfps_core::{select_with_cache, CacheStatus, KnnSubmodular, Maximizer, TenantContext};
use vfps_data::{prepared_sized, DatasetSpec, VerticalPartition};
use vfps_he::scheme::{AdditiveHe, PaillierHe};
use vfps_net::cost::{CostModel, OpLedger};
use vfps_par::Pool;
use vfps_vfl::fed_knn::{FedKnn, FedKnnConfig, KnnMode};

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Fed-KNN on Rice (200 rows, seed 1504, four parties, eight queries):
/// Base encrypts every partial, Fagin only its candidates, and the obs
/// counters mirror the ledger — the paper's Fig. 9 claim measured
/// through the observability plane.
#[test]
fn fagin_encrypts_fewer_instances_than_base_per_phase() {
    let _serial = lock();
    let spec = DatasetSpec::by_name("Rice").expect("catalog");
    let (ds, split) = prepared_sized(&spec, 200, 1504);
    let partition = VerticalPartition::random(ds.n_features(), 4, 1504);
    let parties = [0usize, 1, 2, 3];
    let queries: Vec<usize> = split.train.iter().copied().take(8).collect();
    let pool = Pool::with_threads(1);
    let measure = |mode: KnnMode| {
        let cfg = FedKnnConfig { k: 10, mode, batch: 100, cost_scale: 1.0 };
        let engine = FedKnn::new(&ds.x, &partition, &parties, &split.train, cfg);
        let mut ledger = OpLedger::default();
        vfps_obs::start_capture();
        let _ = engine.query_batch(&queries, &pool, &mut ledger);
        let trace = vfps_obs::finish_capture().expect("capture was started");
        (trace, ledger)
    };

    let (base_trace, base) = measure(KnnMode::Base);
    let (fagin_trace, fagin) = measure(KnnMode::Fagin);
    assert_eq!(base_trace.metrics.counter("fed_knn.base.enc_instances"), base.enc.work);
    assert_eq!(fagin_trace.metrics.counter("fed_knn.fagin.enc_instances"), fagin.enc.work);

    assert_eq!((base.enc.work, base.bytes), (5_120, 1_641_216));
    assert_eq!((fagin.enc.work, fagin.bytes), (3_852, 1_255_296));
    assert_eq!(fagin_trace.metrics.counter("fed_knn.fagin.candidates"), 963);
}

/// The artifact cache on Rice (200 rows, seed 1505, five parties, eight
/// queries): a cold run encrypts, its repeat is served warm and
/// bit-identical without encrypting, a joining party costs |Q|·k plaintext
/// distance evaluations and a leaving one none.
#[test]
fn cache_serves_warm_and_churn_without_encrypting() {
    let _serial = lock();
    let spec = DatasetSpec::by_name("Rice").expect("catalog");
    let (ds, split) = prepared_sized(&spec, 200, 1505);
    let partition = VerticalPartition::random(ds.n_features(), 5, 1505);
    let ctx = SelectionContext {
        ds: &ds,
        split: &split,
        partition: &partition,
        cost_scale: 1.0,
        seed: 1505,
    };
    let sel = VfpsSmSelector { query_count: 8, ..VfpsSmSelector::default() };
    let cost_model = CostModel::default();
    let tag = spec.canonical_bytes();
    let dir = std::env::temp_dir().join(format!("vfps_work_counters_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ArtifactCache::open(&dir).expect("cache dir");
    let serve = |party_set: &[usize]| {
        select_with_cache(
            &cache,
            &sel,
            &ctx,
            party_set,
            2,
            &cost_model,
            &TenantContext::single(&tag),
        )
    };

    let cold = serve(&[0, 1, 2, 3]);
    assert_eq!(cold.status, CacheStatus::Cold);
    assert_eq!(cold.selection.ledger.enc.work, 4_492);

    let warm = serve(&[0, 1, 2, 3]);
    assert_eq!(warm.status, CacheStatus::Warm);
    assert_eq!(warm.selection.ledger.enc.work, 0);
    assert_eq!(warm.selection.chosen, cold.selection.chosen);
    let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&warm.selection.scores), bits(&cold.selection.scores));

    let join = serve(&[0, 1, 2, 3, 4]);
    assert_eq!(join.status, CacheStatus::ChurnJoin(4));
    assert_eq!(join.selection.ledger.enc.work, 0);
    assert_eq!(join.selection.ledger.dist.work, 80);

    let leave = serve(&[0, 1, 2]);
    assert_eq!(leave.status, CacheStatus::ChurnLeave(3));
    assert_eq!(leave.selection.ledger.enc.work, 0);
    assert_eq!(leave.selection.ledger.dist.work, 0);
    assert!(!leave.selection.chosen.contains(&3), "a departed party must not be chosen");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A synthetic consortium of `parties`: candidate `s` resembles itself
/// (1.0) and about 24 random neighbours (0.05–0.95), each column seeded
/// apart; every other similarity is 0.
fn consortium(parties: usize, seed: u64) -> KnnSubmodular {
    let mut w = vec![vec![0.0f64; parties]; parties];
    for s in 0..parties {
        let mut rng = StdRng::seed_from_u64(vfps_par::split_seed(seed, s as u64));
        let degree = 24.min(parties - 1);
        let mut neighbors = std::collections::BTreeSet::new();
        neighbors.insert(s);
        while neighbors.len() < degree + 1 {
            neighbors.insert(rng.gen_range(0..parties));
        }
        for p in neighbors {
            w[p][s] = if p == s { 1.0 } else { rng.gen_range(0.05..0.95) };
        }
    }
    KnnSubmodular::new(w)
}

/// Party-axis scaling (select 25, ε 0.2, seed 1507): gain() evaluations
/// of full greedy against the two sublinear maximizers at 10² and 10³
/// parties. Both sublinear maximizers stay within 1 − 1/e − ε of
/// greedy's objective, return the same set at any thread count, and at
/// 10³ parties use at least ten times fewer evaluations.
#[test]
fn sublinear_maximizers_cut_gain_evaluations_at_party_scale() {
    let _serial = lock();
    const SELECT: usize = 25;
    const EPSILON: f64 = 0.2;
    const SEED: u64 = 1507;
    let guarantee = 1.0 - (-1.0f64).exp() - EPSILON;
    // (parties, greedy, stochastic, sieve) gain evaluations.
    let expected = [(100usize, 2_200usize, 175usize, 1_151usize), (1_000, 24_700, 1_625, 1_981)];
    let pool = Pool::with_threads(1);
    for (parties, greedy_evals, stochastic_evals, sieve_evals) in expected {
        let f = consortium(parties, SEED);
        let (greedy_set, evals) = f.maximize(SELECT, Maximizer::Greedy, SEED, &pool);
        assert_eq!(evals, greedy_evals, "greedy at {parties} parties");
        let greedy_val = f.eval(&greedy_set);
        for (name, m, want) in [
            ("stochastic", Maximizer::Stochastic { epsilon: EPSILON }, stochastic_evals),
            ("sieve", Maximizer::Sieve { epsilon: EPSILON }, sieve_evals),
        ] {
            let (chosen, evals) = f.maximize(SELECT, m, SEED, &pool);
            assert_eq!(evals, want, "{name} at {parties} parties");
            let ratio = f.eval(&chosen) / greedy_val;
            assert!(ratio >= guarantee, "{name} at {parties} parties: {ratio:.3} < {guarantee:.3}");
            for threads in [2, 4, 8] {
                let (again, _) = f.maximize(SELECT, m, SEED, &Pool::with_threads(threads));
                assert_eq!(again, chosen, "{name} at {parties} parties, {threads} threads");
            }
            if parties == 1_000 {
                assert!(greedy_evals >= 10 * evals, "{name}: {evals} vs greedy {greedy_evals}");
            }
        }
    }
}

/// Packed Paillier-256 over 32 values: one noise exponentiation per slot
/// group of four, so 8 exponentiations and 4.0 values per exponentiation;
/// the packed ciphertext decrypts back within the scheme's error bound.
#[test]
fn packed_paillier_amortizes_four_values_per_exponentiation() {
    let _serial = lock();
    let values: Vec<f64> = (0..32).map(|i| f64::from(i) * 0.125 - 2.0).collect();
    let pool = Pool::with_threads(1);
    let scheme = PaillierHe::generate(256, values.len(), 1506).expect("keygen");
    assert_eq!(scheme.layout().slots(), 4);

    vfps_obs::start_capture();
    let ct = scheme.encrypt_on(&values, &pool).expect("encrypt");
    let trace = vfps_obs::finish_capture().expect("capture was started");
    assert_eq!(trace.metrics.counter("he.paillier.enc_values"), 32);
    assert_eq!(trace.metrics.counter("he.paillier.exponentiations"), 8);

    let out = scheme.decrypt(&ct, values.len());
    for (got, want) in out.iter().zip(&values) {
        assert!((got - want).abs() <= scheme.error_bound(1), "{got} vs {want}");
    }
}
