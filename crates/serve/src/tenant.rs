//! Multi-tenant dataset worlds (DESIGN.md §10, protocol v2).
//!
//! A **tenant** is one dataset world: the synthetic dataset, its train
//! split, its vertical partition, and its shard of the artifact cache —
//! everything [`run_job`](crate::server) needs that used to be fixed at
//! startup. The [`TenantRegistry`] materializes worlds lazily on first
//! request and keeps at most `max_resident` of them in memory behind an
//! `RwLock`'d map with LRU eviction; per-tenant accounting
//! ([`TenantStats`]) lives outside the world so counters survive eviction
//! and resume when the world is rebuilt.
//!
//! Isolation is double-walled: every tenant gets its own cache *directory*
//! ([`ArtifactCache::open_tenant`]) and its tenant id folded into every
//! cache *fingerprint* (via [`vfps_core::TenantContext`]), so two tenants
//! can never alias, warm-serve, or churn-serve each other — even when
//! their dataset bits are identical.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use vfps_cache::ArtifactCache;
use vfps_core::{SelectionContext, TenantContext, TenantDigest};
use vfps_data::{prepared_sized, Dataset, DatasetSpec, Split, VerticalPartition};

use crate::proto::TenantStatus;

/// Lifetime accounting for one tenant. Kept behind an `Arc` shared by the
/// registry and every in-flight job, independent of the (evictable)
/// [`TenantWorld`].
#[derive(Debug, Default)]
pub struct TenantStats {
    /// Select requests admitted for this tenant.
    pub accepted: AtomicU64,
    /// Admitted requests completed with a selection.
    pub completed: AtomicU64,
    /// Admitted requests that failed (deadline expiry, panics).
    pub failed: AtomicU64,
    /// Requests refused for this tenant (busy or rejected).
    pub rejected: AtomicU64,
    /// Jobs currently queued or running for this tenant.
    pub in_flight: AtomicU64,
    /// Cache hits billed across this tenant's completed requests.
    pub cache_hits: AtomicU64,
}

/// One materialized dataset world. Immutable once built; jobs hold it by
/// `Arc`, so LRU eviction never invalidates in-flight work.
pub struct TenantWorld {
    /// The tenant id — the dataset's catalog name.
    pub name: String,
    /// The synthetic dataset, built exactly as a direct pipeline run
    /// builds it (same spec, instances, seed).
    pub ds: Dataset,
    /// Train/test split.
    pub split: Split,
    /// The vertical partition requests select parties from.
    pub partition: VerticalPartition,
    /// This tenant's shard of the artifact store.
    pub cache: ArtifactCache,
    /// Accounting shared with the registry (survives eviction).
    pub stats: Arc<TenantStats>,
    /// The tenant-constant half of every request's cache key, hashed once
    /// when the world is built.
    digest: TenantDigest,
    /// LRU clock stamp of the most recent use.
    last_used: AtomicU64,
}

impl TenantWorld {
    /// The tenant a request on this world is served and keyed under: the
    /// tenant id, with the dataset name as its tag.
    #[must_use]
    pub fn tenant_context(&self) -> TenantContext<'_> {
        TenantContext { tenant: &self.name, dataset_tag: self.ds.name.as_bytes() }
    }

    /// The digest of this world's data under
    /// [`tenant_context`](TenantWorld::tenant_context): requests build
    /// their cache keys from it instead of rehashing the dataset.
    #[must_use]
    pub fn digest(&self) -> &TenantDigest {
        &self.digest
    }
}

impl std::fmt::Debug for TenantWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantWorld")
            .field("name", &self.name)
            .field("features", &self.ds.n_features())
            .field("parties", &self.partition.parties())
            .finish_non_exhaustive()
    }
}

struct Inner {
    /// Materialized worlds by tenant id.
    resident: HashMap<String, Arc<TenantWorld>>,
    /// Every tenant ever served, in first-seen order, with its lifetime
    /// stats. Never shrinks.
    seen: Vec<(String, Arc<TenantStats>)>,
}

/// Lazily-materializing, LRU-capped registry of dataset worlds.
pub struct TenantRegistry {
    default_dataset: String,
    instances: usize,
    parties: usize,
    data_seed: u64,
    cache_root: PathBuf,
    max_resident: usize,
    clock: AtomicU64,
    inner: RwLock<Inner>,
}

impl TenantRegistry {
    /// A registry whose every world is built from
    /// `(instances, parties, data_seed)` over the named catalog dataset —
    /// the same recipe [`ServeConfig`](crate::server::ServeConfig) used
    /// for its single startup world, so served selections stay
    /// bit-identical to direct single-tenant runs. `max_resident` is
    /// clamped to at least 1.
    pub fn new(
        default_dataset: &str,
        instances: usize,
        parties: usize,
        data_seed: u64,
        cache_root: PathBuf,
        max_resident: usize,
    ) -> TenantRegistry {
        TenantRegistry {
            default_dataset: default_dataset.to_owned(),
            instances,
            parties,
            data_seed,
            cache_root,
            max_resident: max_resident.max(1),
            clock: AtomicU64::new(0),
            inner: RwLock::new(Inner { resident: HashMap::new(), seen: Vec::new() }),
        }
    }

    /// The dataset a `""` request tag resolves to.
    #[must_use]
    pub fn default_dataset(&self) -> &str {
        &self.default_dataset
    }

    /// The LRU residency cap.
    #[must_use]
    pub fn max_resident(&self) -> usize {
        self.max_resident
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Inner> {
        self.inner.write().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Resolves a request's dataset tag (`""` = default) to a resident
    /// world, materializing it on first use and evicting the
    /// least-recently-used world beyond `max_resident`. Returns a
    /// client-facing reason on an unknown dataset or one the registry's
    /// `(instances, parties)` recipe cannot host.
    pub fn resolve(&self, dataset: &str) -> Result<Arc<TenantWorld>, String> {
        let name = if dataset.is_empty() { self.default_dataset.as_str() } else { dataset };
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;

        // Fast path: resident world, LRU touch under the read lock.
        if let Some(world) = self.read().resident.get(name) {
            world.last_used.store(stamp, Ordering::Relaxed);
            return Ok(world.clone());
        }

        // Slow path: build outside any lock (dataset generation and the
        // digest are the expensive part), then insert under the write lock;
        // a racing builder's world wins and ours is dropped.
        let mut built = self.materialize(name)?;
        let mut inner = self.write();
        if let Some(world) = inner.resident.get(name) {
            world.last_used.store(stamp, Ordering::Relaxed);
            return Ok(world.clone());
        }
        match inner.seen.iter().find(|(n, _)| n == name) {
            Some((_, stats)) => built.stats = stats.clone(),
            None => inner.seen.push((name.to_owned(), built.stats.clone())),
        }
        *built.last_used.get_mut() = stamp;
        let world = Arc::new(built);
        inner.resident.insert(name.to_owned(), world.clone());
        vfps_obs::counter_add("serve.tenant_materialized", 1);
        while inner.resident.len() > self.max_resident {
            let Some(coldest) = inner
                .resident
                .iter()
                .filter(|(n, _)| n.as_str() != name)
                .min_by_key(|(_, w)| w.last_used.load(Ordering::Relaxed))
                .map(|(n, _)| n.clone())
            else {
                break;
            };
            inner.resident.remove(&coldest);
            vfps_obs::counter_add("serve.tenant_evicted", 1);
        }
        vfps_obs::gauge_set("serve.tenants_resident", inner.resident.len() as f64);
        Ok(world)
    }

    /// Builds the named world with fresh stats: dataset, split, partition,
    /// cache shard and the digest of its data.
    fn materialize(&self, name: &str) -> Result<TenantWorld, String> {
        let spec = DatasetSpec::by_name(name).ok_or_else(|| format!("unknown dataset {name:?}"))?;
        let instances = if self.instances == 0 { spec.sim_instances } else { self.instances };
        let (ds, split) = prepared_sized(&spec, instances, self.data_seed);
        if self.parties == 0 || self.parties > ds.n_features() {
            return Err(format!(
                "dataset {name:?} cannot host {} parties over {} features",
                self.parties,
                ds.n_features()
            ));
        }
        let partition = VerticalPartition::random(ds.n_features(), self.parties, self.data_seed);
        let cache = ArtifactCache::open_tenant(&self.cache_root, name)
            .map_err(|e| format!("cannot open cache shard for {name:?}: {e}"))?;
        // Under the context `TenantWorld::tenant_context` serves requests
        // with. The seed and cost scale are per request; the digest reads
        // neither.
        let ctx = SelectionContext {
            ds: &ds,
            split: &split,
            partition: &partition,
            cost_scale: 1.0,
            seed: 0,
        };
        let tc = TenantContext { tenant: name, dataset_tag: ds.name.as_bytes() };
        let digest = TenantDigest::of(&ctx, &tc);
        Ok(TenantWorld {
            name: name.to_owned(),
            ds,
            split,
            partition,
            cache,
            stats: Arc::default(),
            digest,
            last_used: AtomicU64::new(0),
        })
    }

    /// Whether the named tenant's world is currently materialized.
    #[must_use]
    pub fn is_resident(&self, name: &str) -> bool {
        self.read().resident.contains_key(name)
    }

    /// Per-tenant accounting snapshots, in first-seen order.
    #[must_use]
    pub fn statuses(&self) -> Vec<TenantStatus> {
        let inner = self.read();
        inner
            .seen
            .iter()
            .map(|(name, stats)| TenantStatus {
                dataset: name.clone(),
                resident: inner.resident.contains_key(name),
                accepted: stats.accepted.load(Ordering::Acquire),
                completed: stats.completed.load(Ordering::Acquire),
                failed: stats.failed.load(Ordering::Acquire),
                rejected: stats.rejected.load(Ordering::Acquire),
                in_flight: stats.in_flight.load(Ordering::Acquire),
                cache_hits: stats.cache_hits.load(Ordering::Acquire),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vfps_tenant_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn registry(tag: &str, max_resident: usize) -> TenantRegistry {
        TenantRegistry::new("Bank", 200, 4, 42, scratch(tag), max_resident)
    }

    #[test]
    fn empty_tag_resolves_to_the_default_world() {
        let reg = registry("default", 4);
        let a = reg.resolve("").expect("default");
        let b = reg.resolve("Bank").expect("named");
        assert_eq!(a.name, "Bank");
        assert!(Arc::ptr_eq(&a, &b), "one world per tenant, however it is named");
        assert_eq!(reg.statuses().len(), 1, "one tenant seen");
    }

    #[test]
    fn unknown_and_unhostable_datasets_are_client_errors() {
        let reg = registry("unknown", 4);
        let err = reg.resolve("NoSuchDataset").expect_err("must not materialize");
        assert!(err.contains("unknown dataset"), "{err}");
        assert!(reg.statuses().is_empty(), "failed resolves leave no tenant behind");

        // More parties than any catalog dataset has features.
        let wide = TenantRegistry::new("Bank", 200, 10_000, 42, scratch("wide"), 4);
        let err = wide.resolve("Bank").expect_err("cannot host");
        assert!(err.contains("cannot host"), "{err}");
    }

    #[test]
    fn worlds_match_the_single_tenant_recipe_bit_for_bit() {
        let reg = registry("recipe", 4);
        let world = reg.resolve("Rice").expect("materialize");
        let spec = DatasetSpec::by_name("Rice").unwrap();
        let (ds, split) = prepared_sized(&spec, 200, 42);
        assert_eq!(world.ds.x.rows(), ds.x.rows());
        assert_eq!(world.ds.x.cols(), ds.x.cols());
        for r in 0..ds.x.rows() {
            assert_eq!(world.ds.x.row(r), ds.x.row(r), "row {r} must be bit-identical");
        }
        assert_eq!(world.split.train, split.train);
        let partition = VerticalPartition::random(ds.n_features(), 4, 42);
        assert_eq!(world.partition.parties(), partition.parties());
    }

    #[test]
    fn lru_evicts_the_coldest_world_but_keeps_its_stats() {
        let reg = registry("lru", 1);
        let bank = reg.resolve("Bank").expect("bank");
        bank.stats.accepted.store(7, Ordering::Release);
        assert!(reg.is_resident("Bank"));

        let _rice = reg.resolve("Rice").expect("rice");
        assert!(reg.is_resident("Rice"));
        assert!(!reg.is_resident("Bank"), "cap 1: Bank must be evicted");

        // The evicted world is still usable by in-flight holders...
        assert_eq!(bank.name, "Bank");
        // ...its stats survive in the registry...
        let statuses = reg.statuses();
        assert_eq!(statuses.len(), 2);
        assert_eq!(statuses[0].dataset, "Bank");
        assert!(!statuses[0].resident);
        assert_eq!(statuses[0].accepted, 7);
        // ...and re-resolving rebuilds the world onto the same stats.
        let bank2 = reg.resolve("Bank").expect("rebuild");
        assert!(Arc::ptr_eq(&bank.stats, &bank2.stats), "stats must be shared across rebuilds");
        assert!(!Arc::ptr_eq(&bank, &bank2), "the world itself was rebuilt");
        assert!(!reg.is_resident("Rice"), "cap 1: Rice evicted in turn");
    }

    #[test]
    fn tenant_caches_are_disjoint_directories() {
        let reg = registry("shards", 4);
        let bank = reg.resolve("Bank").expect("bank");
        let rice = reg.resolve("Rice").expect("rice");
        assert_ne!(bank.cache.dir(), rice.cache.dir(), "one directory per tenant");
    }
}
