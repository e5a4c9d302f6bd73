//! Selection-artifact cache guarantees, end to end:
//!
//! 1. **Warm bit-identity**: a repeated request served from the cache
//!    produces byte-exact the chosen set, scores, and Fig. 9 metric of the
//!    cold run that populated it — with zero new encryptions (checked on
//!    both the ledger and the obs counters).
//! 2. **Churn locality**: a request whose consortium differs by one party
//!    from a cached entry is served through `IncrementalConsortium` —
//!    `|Q|·k` plaintext distance evaluations for a join, zero work for a
//!    leave — and agrees with the incremental oracle built by hand.
//! 3. **Degradation**: a corrupted cache file downgrades the request to a
//!    cold run with a typed error surfaced; the cold run repairs the entry.
//!
//! Every test runs the real selection over `vfps_par::global()`, so the CI
//! determinism matrix (`VFPS_THREADS` ∈ {1, 2, 4, 8}) exercises the warm
//! and churn paths at every thread count. The obs recorder is
//! process-global, so tests that capture serialize on one mutex.

use std::path::PathBuf;
use std::sync::Mutex;

use vfps_cache::{ArtifactCache, CacheError};
use vfps_core::cached::{cache_key, select_with_cache, CacheStatus, TenantContext};
use vfps_core::selectors::{SelectionContext, VfpsSmSelector};
use vfps_core::IncrementalConsortium;
use vfps_data::{prepared_sized, DatasetSpec, VerticalPartition};
use vfps_net::cost::CostModel;

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Fixture {
    ds: vfps_data::Dataset,
    split: vfps_data::Split,
    partition: VerticalPartition,
}

fn fixture(seed: u64) -> Fixture {
    let spec = DatasetSpec::by_name("Rice").unwrap();
    let (ds, split) = prepared_sized(&spec, 220, seed);
    let partition = VerticalPartition::random(ds.n_features(), 5, seed);
    Fixture { ds, split, partition }
}

fn ctx(f: &Fixture, seed: u64) -> SelectionContext<'_> {
    SelectionContext { ds: &f.ds, split: &f.split, partition: &f.partition, cost_scale: 1.0, seed }
}

fn selector() -> VfpsSmSelector {
    VfpsSmSelector { query_count: 10, ..Default::default() }
}

/// A fresh per-test cache directory (removed up front so reruns start
/// cold).
fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vfps_cache_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The single-tenant context every pre-multi-tenant test serves under.
fn tc(dataset_tag: &[u8]) -> TenantContext<'_> {
    TenantContext::single(dataset_tag)
}

#[test]
fn warm_request_is_bit_identical_and_encrypts_nothing() {
    let _g = lock();
    let f = fixture(21);
    let c = ctx(&f, 21);
    let sel = selector();
    let cache = ArtifactCache::open(cache_dir("warm")).unwrap();
    let parties: Vec<usize> = (0..c.parties()).collect();
    let model = CostModel::default();

    let cold = select_with_cache(&cache, &sel, &c, &parties, 2, &model, &tc(b"it-warm"));
    assert_eq!(cold.status, CacheStatus::Cold);
    assert!(cold.degraded.is_none(), "{:?}", cold.degraded);
    assert!(cold.selection.ledger.enc.work > 0, "cold run does federated work");
    assert_eq!(cold.selection.ledger.cache_misses, 1);
    assert_eq!(cache.len().unwrap(), 1, "cold run stored its artifacts");

    vfps_obs::start_capture();
    let warm = select_with_cache(&cache, &sel, &c, &parties, 2, &model, &tc(b"it-warm"));
    let trace = vfps_obs::finish_capture().expect("capture was started");

    assert_eq!(warm.status, CacheStatus::Warm);
    assert_eq!(warm.fingerprint, cold.fingerprint);
    assert_eq!(warm.selection.chosen, cold.selection.chosen, "chosen set must not move");
    assert_eq!(bits(&warm.selection.scores), bits(&cold.selection.scores));
    assert_eq!(
        warm.selection.candidates_per_query.to_bits(),
        cold.selection.candidates_per_query.to_bits()
    );

    // Zero new federated work, on both accounting planes.
    assert_eq!(warm.selection.ledger.enc.work, 0, "warm run must encrypt nothing");
    assert_eq!(warm.selection.ledger.messages, 0);
    assert_eq!(warm.selection.ledger.cache_hits, 1);
    for counter in
        ["fed_knn.base.enc_instances", "fed_knn.fagin.enc_instances", "fed_knn.ta.enc_instances"]
    {
        assert_eq!(trace.metrics.counter(counter), 0, "{counter} must stay zero on a warm run");
    }
    assert_eq!(trace.span_count("fed_knn.query"), 0, "no query reaches the fed-KNN engine");
    assert_eq!(trace.metrics.counter("cache.hit"), 1);
}

#[test]
fn churn_join_touches_only_the_new_party() {
    let _g = lock();
    let f = fixture(22);
    let c = ctx(&f, 22);
    let sel = selector();
    let cache = ArtifactCache::open(cache_dir("join")).unwrap();
    let model = CostModel::default();

    let base: Vec<usize> = vec![0, 1, 2, 3];
    let cold = select_with_cache(&cache, &sel, &c, &base, 2, &model, &tc(b"it-join"));
    assert_eq!(cold.status, CacheStatus::Cold);

    let grown: Vec<usize> = vec![0, 1, 2, 3, 4];
    let churn = select_with_cache(&cache, &sel, &c, &grown, 2, &model, &tc(b"it-join"));
    assert_eq!(churn.status, CacheStatus::ChurnJoin(4));
    assert_eq!(churn.selection.ledger.enc.work, 0, "a join never re-encrypts");
    assert_eq!(
        churn.selection.ledger.dist.work,
        (10 * sel.k) as u64,
        "join cost is exactly |Q|·k local distance evaluations"
    );
    assert_eq!(churn.selection.ledger.cache_hits, 1);
    assert_eq!(cache.len().unwrap(), 1, "churn results are not stored back");

    // Oracle: the same incremental extension built by hand from the cold
    // run's artifacts.
    let art = sel.run_over(&c, &base, 2);
    let mut inc =
        IncrementalConsortium::from_outcomes(&base, c.partition, &art.queries, &art.outcomes);
    inc.join(4, &c.ds.x, c.partition);
    let scored = inc.select_scored(2);
    assert_eq!(
        churn.selection.chosen,
        scored.iter().map(|&(p, _)| p).collect::<Vec<_>>(),
        "churn serving must equal the incremental oracle"
    );
    for (p, gain) in scored {
        assert_eq!(churn.selection.scores[p].to_bits(), gain.to_bits());
    }
}

#[test]
fn churn_leave_is_free_and_matches_the_oracle() {
    let _g = lock();
    let f = fixture(23);
    let c = ctx(&f, 23);
    let sel = selector();
    let cache = ArtifactCache::open(cache_dir("leave")).unwrap();
    let model = CostModel::default();

    let full: Vec<usize> = vec![0, 1, 2, 3];
    let cold = select_with_cache(&cache, &sel, &c, &full, 2, &model, &tc(b"it-leave"));
    assert_eq!(cold.status, CacheStatus::Cold);

    let shrunk: Vec<usize> = vec![0, 1, 3];
    let churn = select_with_cache(&cache, &sel, &c, &shrunk, 2, &model, &tc(b"it-leave"));
    assert_eq!(churn.status, CacheStatus::ChurnLeave(2));
    assert_eq!(churn.selection.ledger.enc.work, 0);
    assert_eq!(churn.selection.ledger.dist.work, 0, "a leave is pure matrix surgery");
    assert!(!churn.selection.chosen.contains(&2), "the departed party is never chosen");

    let art = sel.run_over(&c, &full, 2);
    let mut inc =
        IncrementalConsortium::from_outcomes(&full, c.partition, &art.queries, &art.outcomes);
    inc.leave(2);
    let scored = inc.select_scored(2);
    assert_eq!(churn.selection.chosen, scored.iter().map(|&(p, _)| p).collect::<Vec<_>>());
}

#[test]
fn two_membership_changes_fall_back_to_cold() {
    let _g = lock();
    let f = fixture(24);
    let c = ctx(&f, 24);
    let sel = selector();
    let cache = ArtifactCache::open(cache_dir("farchurn")).unwrap();
    let model = CostModel::default();

    let a: Vec<usize> = vec![0, 1, 2];
    select_with_cache(&cache, &sel, &c, &a, 2, &model, &tc(b"it-far"));
    // Two changes away (one out, one in): not a churn neighbor.
    let b: Vec<usize> = vec![0, 1, 3];
    let second = select_with_cache(&cache, &sel, &c, &b, 2, &model, &tc(b"it-far"));
    assert_eq!(second.status, CacheStatus::Cold);
    assert_eq!(cache.len().unwrap(), 2, "the second consortium gets its own entry");
}

#[test]
fn corrupted_entry_degrades_to_cold_and_is_repaired() {
    let _g = lock();
    let f = fixture(25);
    let c = ctx(&f, 25);
    let sel = selector();
    let dir = cache_dir("corrupt");
    let cache = ArtifactCache::open(&dir).unwrap();
    let parties: Vec<usize> = (0..c.parties()).collect();
    let model = CostModel::default();

    let cold = select_with_cache(&cache, &sel, &c, &parties, 2, &model, &tc(b"it-corrupt"));
    assert_eq!(cold.status, CacheStatus::Cold);

    // Flip one payload byte in the stored entry, found where `store` puts
    // it: re-storing the entry the cold run wrote returns its path.
    let key = cache_key(&sel, &c, &parties, &model, &tc(b"it-corrupt"));
    let stored = cache.lookup(&key).unwrap().expect("the cold run stored its entry");
    let entry = cache.store(&stored).unwrap();
    assert_eq!(cache.len().unwrap(), 1, "re-storing is idempotent");
    let mut bytes = std::fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&entry, bytes).unwrap();

    let repaired = select_with_cache(&cache, &sel, &c, &parties, 2, &model, &tc(b"it-corrupt"));
    assert_eq!(repaired.status, CacheStatus::Cold, "corruption must not serve warm");
    assert!(
        matches!(repaired.degraded, Some(CacheError::Checksum)),
        "typed error surfaced: {:?}",
        repaired.degraded
    );
    assert_eq!(repaired.selection.chosen, cold.selection.chosen);

    // The degraded cold run overwrote the damaged file: third time warm.
    let warm = select_with_cache(&cache, &sel, &c, &parties, 2, &model, &tc(b"it-corrupt"));
    assert_eq!(warm.status, CacheStatus::Warm);
    assert!(warm.degraded.is_none());
    assert_eq!(warm.selection.chosen, cold.selection.chosen);
}

#[test]
fn dp_requests_bypass_the_cache() {
    let _g = lock();
    let f = fixture(26);
    let c = ctx(&f, 26);
    let cache = ArtifactCache::open(cache_dir("bypass")).unwrap();
    let parties: Vec<usize> = (0..c.parties()).collect();
    let model = CostModel::default();

    let dp = VfpsSmSelector { dp_epsilon: Some(1.0), ..selector() };
    let served = select_with_cache(&cache, &dp, &c, &parties, 2, &model, &tc(b"it-bypass"));
    assert_eq!(served.status, CacheStatus::Bypass);
    assert!(served.fingerprint.is_none());
    assert!(cache.is_empty().unwrap(), "bypassed runs never touch the store");
}

#[test]
fn tenants_get_disjoint_entries_warm_paths_and_identical_results() {
    let _g = lock();
    let f = fixture(27);
    let c = ctx(&f, 27);
    let sel = selector();
    let root = cache_dir("tenants");
    let bank = ArtifactCache::open_tenant(&root, "Bank").unwrap();
    let rice = ArtifactCache::open_tenant(&root, "Rice").unwrap();
    let parties: Vec<usize> = (0..c.parties()).collect();
    let model = CostModel::default();
    let tc_bank = TenantContext { tenant: "Bank", dataset_tag: b"it-tenants" };
    let tc_rice = TenantContext { tenant: "Rice", dataset_tag: b"it-tenants" };

    // Same (party_set, k, seed, dataset content) under two tenant tags:
    // two cold runs, two disjoint cache entries.
    let cold_bank = select_with_cache(&bank, &sel, &c, &parties, 2, &model, &tc_bank);
    let cold_rice = select_with_cache(&rice, &sel, &c, &parties, 2, &model, &tc_rice);
    assert_eq!(cold_bank.status, CacheStatus::Cold);
    assert_eq!(cold_rice.status, CacheStatus::Cold);
    assert_ne!(cold_bank.fingerprint, cold_rice.fingerprint, "tenants must not alias");
    assert_eq!(bank.len().unwrap(), 1);
    assert_eq!(rice.len().unwrap(), 1);

    // Each tenant warms independently, bit-identical to its own cold run
    // and to the direct single-tenant pipeline over the same world.
    let direct = sel.run_over(&c, &parties, 2).selection;
    for (cache, tcx, cold) in [(&bank, &tc_bank, &cold_bank), (&rice, &tc_rice, &cold_rice)] {
        let warm = select_with_cache(cache, &sel, &c, &parties, 2, &model, tcx);
        assert_eq!(warm.status, CacheStatus::Warm, "tenant {}", tcx.tenant);
        assert_eq!(warm.selection.ledger.enc.work, 0, "warm tenant encrypts nothing");
        assert_eq!(warm.selection.chosen, cold.selection.chosen);
        assert_eq!(bits(&warm.selection.scores), bits(&cold.selection.scores));
        assert_eq!(warm.selection.chosen, direct.chosen, "tenant {} vs direct", tcx.tenant);
        assert_eq!(bits(&warm.selection.scores), bits(&direct.scores));
    }

    // Cross-tenant lookups stay cold even though every other input is
    // bit-identical: tenant A's entry can never warm-serve tenant B.
    let crossed = select_with_cache(&bank, &sel, &c, &parties, 2, &model, &tc_rice);
    assert_eq!(crossed.status, CacheStatus::Cold, "no cross-tenant warm serving");
}
