//! A resident world hashes its data once: every request's cache key is
//! built from the world's [`TenantDigest`](vfps_core::TenantDigest), and
//! that key is the from-scratch `cache_key` bit for bit.
//!
//! * the digest-built key equals `cache_key` for every catalog tenant a
//!   default registry hosts, over a grid of request shapes;
//! * an entry a direct `select_with_cache` stored is served warm by a
//!   `Server` over the same cache root, and the reverse;
//! * `core.tenant_digest_bytes` moves once per materialization, by the
//!   world's size, however many warm, churn and cold requests follow;
//! * a registry over a regenerated dataset serves cold, never warm;
//! * served keys keep the fingerprints already-stored entries carry.
//!
//! The obs recorder is process-global and every world built here adds to
//! the digest counter, so every test serializes on one mutex.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use vfps_core::cached::{cache_key, select_with_cache, CacheStatus, CachedSelection};
use vfps_core::selectors::{SelectionContext, VfpsSmSelector};
use vfps_data::paper_catalog;
use vfps_net::cost::CostModel;
use vfps_net::wire::Wire;
use vfps_serve::{
    knn_mode, maximizer, Client, DrainReport, Response, SelectReply, SelectRequest, ServeConfig,
    Server, TenantRegistry, TenantWorld,
};
use vfps_vfl::fed_knn::KnnMode;

fn lock() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vfps_resident_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const INSTANCES: usize = 240;
const PARTIES: usize = 4;

/// A server over `root` whose worlds are built from `data_seed`.
fn config(root: &std::path::Path, data_seed: u64, max_tenants: usize) -> ServeConfig {
    ServeConfig {
        dataset: "Bank".into(),
        instances: INSTANCES,
        parties: PARTIES,
        data_seed,
        max_tenants,
        cache_dir: Some(root.to_path_buf()),
        ..ServeConfig::default()
    }
}

struct Running {
    client: Client,
    handle: std::thread::JoinHandle<DrainReport>,
}

impl Running {
    fn start(cfg: &ServeConfig) -> Running {
        let server = Server::bind(cfg).expect("bind");
        let client = Client::connect(server.local_addr()).expect("connect");
        let handle = std::thread::spawn(move || server.run().expect("run"));
        Running { client, handle }
    }

    fn select(&mut self, req: &SelectRequest) -> SelectReply {
        match self.client.select(req).expect("roundtrip") {
            Response::Selected(r) => r,
            other => panic!("expected Selected, got {other:?}"),
        }
    }

    fn stop(mut self) {
        let report = self.client.shutdown().expect("shutdown");
        assert_eq!(report.failed, 0);
        self.handle.join().expect("server thread");
    }
}

fn request(dataset: &str, seed: u64, party_set: &[usize]) -> SelectRequest {
    SelectRequest {
        request_id: seed,
        dataset: dataset.into(),
        party_set: party_set.to_vec(),
        select: 2,
        k: 10,
        query_count: 8,
        mode: 1,
        seed,
        deadline_ms: 0,
        maximizer: 0,
    }
}

fn selection_context(world: &TenantWorld, seed: u64) -> SelectionContext<'_> {
    SelectionContext {
        ds: &world.ds,
        split: &world.split,
        partition: &world.partition,
        cost_scale: 1.0,
        seed,
    }
}

/// What the server's worker computes for `req`, called directly on a
/// registry-built world and its cache shard.
fn direct(world: &TenantWorld, req: &SelectRequest) -> CachedSelection {
    let sel = VfpsSmSelector {
        k: req.k,
        query_count: req.query_count,
        mode: knn_mode(req.mode).expect("known mode"),
        maximizer: maximizer(req.maximizer).expect("known maximizer"),
        ..VfpsSmSelector::default()
    };
    let ctx = selection_context(world, req.seed);
    let tc = world.tenant_context();
    select_with_cache(
        &world.cache,
        &sel,
        &ctx,
        &req.party_set,
        req.select,
        &CostModel::default(),
        &tc,
    )
}

fn assert_same(reply: &SelectReply, direct: &CachedSelection) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(reply.chosen, direct.selection.chosen);
    assert_eq!(bits(&reply.scores), bits(&direct.selection.scores));
}

/// The bytes `TenantDigest::of` hashes for `world`: tag, name and shape;
/// 8 bytes per cell and per label; the party count and column groups; the
/// train split.
fn world_bytes(world: &TenantWorld) -> u64 {
    let ds = &world.ds;
    let tc = world.tenant_context();
    let dataset = 8 + tc.dataset_tag.len() + 8 + ds.name.len() + 16;
    let cells = 8 * ds.x.rows() * ds.x.cols() + 8 * ds.y.len();
    let groups: usize = world.partition.all_columns().iter().map(|g| g.to_bytes().len()).sum();
    let db = world.split.train.to_bytes().len();
    (dataset + cells + 8 + groups + db) as u64
}

#[test]
fn resident_keys_equal_from_scratch_keys_for_every_catalog_tenant() {
    let _serial = lock();
    let d = ServeConfig::default();
    let root = scratch("grid");
    let registry = TenantRegistry::new(
        &d.dataset,
        d.instances,
        d.parties,
        d.data_seed,
        root.clone(),
        d.max_tenants,
    );
    let cost_model = CostModel::default();
    let mut tenants = 0;
    for spec in paper_catalog() {
        let world = registry.resolve(spec.name).expect("the default registry hosts every twin");
        tenants += 1;
        let tc = world.tenant_context();
        let full: Vec<usize> = (0..world.partition.parties()).collect();
        let short = full[..full.len() - 1].to_vec();
        for party_set in [&full, &short] {
            for k in [5, 10] {
                for mode in [KnnMode::Base, KnnMode::Fagin] {
                    for byte in 0..3 {
                        for seed in [1, 42, 9_001] {
                            let sel = VfpsSmSelector {
                                k,
                                query_count: 8,
                                mode,
                                maximizer: maximizer(byte).expect("every maximizer"),
                                ..VfpsSmSelector::default()
                            };
                            let ctx = selection_context(&world, seed);
                            let resident =
                                world.digest().key(&sel, &ctx, party_set, &cost_model, &tc);
                            let fresh = cache_key(&sel, &ctx, party_set, &cost_model, &tc);
                            let shape = format!(
                                "{} parties {party_set:?} k {k} {mode:?} maximizer {byte} seed {seed}",
                                spec.name
                            );
                            assert_eq!(resident.fingerprint(), fresh.fingerprint(), "{shape}");
                            assert_eq!(
                                resident.base_fingerprint(),
                                fresh.base_fingerprint(),
                                "{shape}"
                            );
                            assert_eq!(resident, fresh, "{shape}");
                        }
                    }
                }
            }
        }
    }
    assert_eq!(tenants, 10, "every catalog twin");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn direct_entries_serve_warm_from_a_server_and_back() {
    let _serial = lock();
    let root = scratch("cross");
    let cfg = config(&root, 42, 4);
    // The same recipe and cache root the server's registry uses.
    let registry = TenantRegistry::new("Bank", INSTANCES, PARTIES, 42, root.clone(), 4);
    let all = [0, 1, 2, 3];
    let mut server = Running::start(&cfg);
    for dataset in ["Bank", "Rice"] {
        let world = registry.resolve(dataset).expect("world");

        // Stored directly, served warm by the server.
        let req = request(dataset, 11, &all);
        let stored = direct(&world, &req);
        assert_eq!(stored.status, CacheStatus::Cold, "{dataset}");
        let served = server.select(&req);
        assert_eq!(served.cache_status, "warm", "{dataset}: a direct entry must serve warm");
        assert_eq!(served.enc_instances, 0);
        assert_same(&served, &stored);

        // Stored by the server, served warm directly.
        let req = request(dataset, 12, &all);
        let served = server.select(&req);
        assert_eq!(served.cache_status, "cold", "{dataset}");
        let warm = direct(&world, &req);
        assert_eq!(warm.status, CacheStatus::Warm, "{dataset}: a served entry must serve warm");
        assert_same(&served, &warm);
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_resident_world_is_hashed_once_per_materialization() {
    let _serial = lock();
    let sizes_root = scratch("sizes");
    let sizes = TenantRegistry::new("Bank", INSTANCES, PARTIES, 42, sizes_root.clone(), 2);
    let bank_bytes = world_bytes(&sizes.resolve("Bank").expect("bank"));
    let rice_bytes = world_bytes(&sizes.resolve("Rice").expect("rice"));
    let _ = std::fs::remove_dir_all(&sizes_root);
    let root = scratch("once");
    let all = [0, 1, 2, 3];

    // Binding materializes the default tenant; cold, warm, churn and a
    // second cold request then reuse its digest.
    vfps_obs::start_capture();
    let mut server = Running::start(&config(&root, 42, 1));
    let statuses: Vec<String> = [
        request("", 5, &all),
        request("", 5, &all),
        request("", 5, &[0, 1, 2]),
        request("", 6, &all),
        request("Bank", 6, &all),
    ]
    .iter()
    .map(|req| server.select(req).cache_status)
    .collect();
    assert_eq!(statuses, ["cold", "warm", "churn-leave(3)", "cold", "warm"]);
    let trace = vfps_obs::finish_capture().expect("capture");
    assert_eq!(trace.metrics.counter("serve.tenant_materialized"), 1);
    assert_eq!(trace.metrics.counter("core.tenant_digest_bytes"), bank_bytes);

    // A second tenant evicts the first (max_resident 1): one more digest.
    vfps_obs::start_capture();
    assert_eq!(server.select(&request("Rice", 5, &all)).cache_status, "cold");
    let trace = vfps_obs::finish_capture().expect("capture");
    assert_eq!(trace.metrics.counter("serve.tenant_evicted"), 1);
    assert_eq!(trace.metrics.counter("core.tenant_digest_bytes"), rice_bytes);

    // Re-resolving the first tenant hashes it exactly once more, and its
    // repeat request is still warm.
    vfps_obs::start_capture();
    let again = server.select(&request("", 5, &all));
    let trace = vfps_obs::finish_capture().expect("capture");
    assert_eq!(again.cache_status, "warm");
    assert_eq!(trace.metrics.counter("serve.tenant_materialized"), 1);
    assert_eq!(trace.metrics.counter("core.tenant_digest_bytes"), bank_bytes);
    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_regenerated_dataset_serves_cold_never_warm() {
    let _serial = lock();
    let root = scratch("regen");
    let all = [0, 1, 2, 3];
    let short = [0, 1, 2];
    let mut first = Running::start(&config(&root, 42, 4));
    for dataset in ["Bank", "Rice"] {
        for seed in [7, 8] {
            assert_eq!(first.select(&request(dataset, seed, &all)).cache_status, "cold");
            assert_eq!(first.select(&request(dataset, seed, &all)).cache_status, "warm");
        }
        let leave = first.select(&request(dataset, 8, &short));
        assert_eq!(leave.cache_status, "churn-leave(3)", "{dataset}: a churn-shaped probe");
    }
    first.stop();

    // Same root, same tenant names, other data: no entry may be reused,
    // neither as an exact hit nor as a churn neighbor.
    let mut second = Running::start(&config(&root, 43, 4));
    for dataset in ["Bank", "Rice"] {
        for req in [request(dataset, 7, &all), request(dataset, 8, &short)] {
            assert_eq!(second.select(&req).cache_status, "cold", "{req:?} must not alias");
        }
    }
    second.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn served_keys_keep_the_fingerprints_stored_entries_carry() {
    let _serial = lock();
    // Hex pinned from keys built before worlds carried a digest: a cache
    // written then must still be served warm, so these never change.
    let pinned = [
        ("Bank", "9136bc74d9bb93dfe244e9d0e725d8ea", "e0caa96595caa66a9e3f5da9459bf80e"),
        ("Rice", "9856d39f5647688214a5ac79478b93b9", "00b278d2a55cb42157f64e733a0c7d2d"),
    ];
    let root = scratch("pinned");
    let registry = TenantRegistry::new("Bank", INSTANCES, PARTIES, 42, root.clone(), 4);
    for (dataset, full, base) in pinned {
        let world = registry.resolve(dataset).expect("world");
        let sel = VfpsSmSelector {
            k: 10,
            query_count: 8,
            mode: KnnMode::Fagin,
            ..VfpsSmSelector::default()
        };
        let key = world.digest().key(
            &sel,
            &selection_context(&world, 5),
            &[0, 1, 2, 3],
            &CostModel::default(),
            &world.tenant_context(),
        );
        assert_eq!(key.fingerprint().hex(), full, "{dataset}");
        assert_eq!(key.base_fingerprint().hex(), base, "{dataset}");
    }
    let _ = std::fs::remove_dir_all(&root);
}
