//! The on-disk layout, `{tenant}/{bucket}/{base}-{full}.vfpsc` with the
//! bucket the base's first two hex digits (DESIGN.md §9): a churn lookup
//! lists one bucket and finds what the flat prefix scan found, in the same
//! order; a flat entry left by an older build is never served but is still
//! counted and evicted; and the `cache.bytes` gauge comes from capped
//! stores only.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use vfps_cache::{ArtifactCache, CacheEntry, CacheKey, ChurnKind, Fnv128};
use vfps_net::cost::OpLedger;
use vfps_vfl::fed_knn::QueryOutcome;

/// Capped stores publish the process-global `cache.bytes` gauge, so the
/// tests that cap (or capture) run one at a time.
static CAPPED: Mutex<()> = Mutex::new(());

fn capped() -> std::sync::MutexGuard<'static, ()> {
    CAPPED.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vfps_cache_layout_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key(parties: &[usize], seed: u64) -> CacheKey {
    CacheKey {
        tenant: Fnv128::of(b"layout"),
        dataset: Fnv128::of(b"layout-ds"),
        partition: Fnv128::of(b"layout-part"),
        db: Fnv128::of(b"layout-db"),
        queries: vec![2, 9, 4],
        party_set: parties.to_vec(),
        k: 3,
        batch: 8,
        mode: 1,
        maximizer: 0,
        maximizer_epsilon_bits: 0.0f64.to_bits(),
        cost_scale_bits: 1.0f64.to_bits(),
        cost_model: Fnv128::of(b"layout-cost"),
        seed,
    }
}

fn entry(parties: &[usize], seed: u64) -> CacheEntry {
    let key = key(parties, seed);
    let outcomes = key
        .queries
        .iter()
        .map(|&q| QueryOutcome {
            topk_rows: vec![q, q + 1, q + 2],
            d_t: parties.iter().map(|&p| p as f64).collect(),
            d_t_total: parties.iter().map(|&p| p as f64).sum(),
            candidates: 5,
        })
        .collect();
    let mut ledger = OpLedger::default();
    ledger.record_enc(9, parties.len() as u64);
    CacheEntry {
        key,
        outcomes,
        similarity: vec![vec![0.5; parties.len()]; parties.len()],
        chosen: vec![parties[0]],
        scores: vec![0.75; parties.len()],
        candidates_per_query: 5.0,
        ledger,
    }
}

fn file_name(path: &Path) -> String {
    path.file_name().and_then(|n| n.to_str()).expect("utf-8 file name").to_owned()
}

/// Rewinds `path`'s mtime by `secs` (shelling out to `touch`, as the
/// store's own eviction test does: no `filetime` crate here).
fn age(path: &Path, secs: u64) {
    let t = std::time::SystemTime::now() - std::time::Duration::from_secs(secs);
    let at = t.duration_since(std::time::SystemTime::UNIX_EPOCH).unwrap().as_secs();
    let status = std::process::Command::new("touch")
        .arg("-d")
        .arg(format!("@{at}"))
        .arg(path)
        .status()
        .expect("touch runs");
    assert!(status.success(), "touch -d failed on {}", path.display());
}

#[test]
fn a_neighbour_in_another_slot_order_is_found_among_a_thousand_entries() {
    let dir = scratch_dir("thousand");
    let cache = ArtifactCache::open(&dir).unwrap();
    // 1 000 unrelated entries, each under its own base (other seeds), plus
    // same-base entries two memberships away from the request.
    for seed in 0..1000u64 {
        cache.store(&entry(&[0, 1, 2], 1_000 + seed)).unwrap();
    }
    cache.store(&entry(&[0, 4], 7)).unwrap();
    cache.store(&entry(&[1, 2, 5, 6, 3], 7)).unwrap();
    // The neighbour was stored with its parties in another order.
    let neighbour = cache.store(&entry(&[2, 0, 1], 7)).unwrap();
    assert_eq!(cache.len().unwrap(), 1003);

    let (found, kind) = cache.lookup_churn(&key(&[0, 1, 2, 3], 7)).unwrap().expect("neighbour");
    assert_eq!(kind, ChurnKind::Join(3));
    assert_eq!(found.key.party_set, vec![2, 0, 1]);
    assert_eq!(found, entry(&[2, 0, 1], 7), "the neighbour is served bit-exact");
    let bucket = neighbour.parent().unwrap();
    assert_eq!(bucket.parent().unwrap(), dir, "entries live one bucket down");
    let digits = file_name(&neighbour)[..2].to_owned();
    assert_eq!(file_name(bucket), digits, "the bucket is the base's first two hex digits");
    let strangers = (0..1000u64)
        .filter(|seed| key(&[0, 1, 2], 1_000 + seed).base_fingerprint().hex()[..2] == digits)
        .count();
    assert_eq!(
        std::fs::read_dir(bucket).unwrap().count(),
        3 + strangers,
        "the base's own entries and the unrelated ones that share its bucket, nothing else"
    );
    assert!(strangers < 20, "a bucket holds about 1/256 of the entries: {strangers}");

    // A base nothing was stored under is a clean miss, not an error.
    assert!(cache.lookup_churn(&key(&[0, 1, 2, 3], 99)).unwrap().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn of_two_neighbours_the_smaller_filename_wins() {
    let dir = scratch_dir("two");
    let cache = ArtifactCache::open(&dir).unwrap();
    let request = key(&[0, 1, 2, 3], 11);
    let grown = cache.store(&entry(&[0, 1, 2, 3, 4], 11)).unwrap(); // leave 4
    let shrunk = cache.store(&entry(&[0, 1, 2], 11)).unwrap(); // join 3
    let (first, want) = if file_name(&grown) < file_name(&shrunk) {
        (grown, ChurnKind::Leave(4))
    } else {
        (shrunk, ChurnKind::Join(3))
    };
    let (found, kind) = cache.lookup_churn(&request).unwrap().expect("a neighbour");
    assert_eq!(kind, want, "the flat scan's pick: {}", file_name(&first));
    assert_eq!(file_name(&first), format!("{}.vfpsc", found.key.file_stem()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_legacy_flat_entry_is_never_served_but_is_counted_and_evicted_first() {
    let _g = capped();
    let dir = scratch_dir("legacy");
    let cache = ArtifactCache::open(&dir).unwrap();
    let old = entry(&[0, 1, 2], 21);
    // What an older build left: the same bytes, flat in the cache directory.
    let stored = cache.store(&old).unwrap();
    let flat = dir.join(file_name(&stored));
    std::fs::rename(&stored, &flat).unwrap();
    let size = std::fs::metadata(&flat).unwrap().len();

    assert!(cache.lookup(&old.key).unwrap().is_none(), "exact lookups read buckets");
    assert!(cache.lookup_churn(&key(&[0, 1, 2, 3], 21)).unwrap().is_none(), "churn too");
    assert_eq!(cache.len().unwrap(), 1, "but the flat file is still an entry");
    assert_eq!(cache.total_bytes().unwrap(), size);

    // Oldest first: under a cap of about two entries, the flat file goes.
    age(&flat, 600);
    let capped = ArtifactCache::open(&dir).unwrap().with_max_bytes(size * 2 + size / 2);
    let a = capped.store(&entry(&[0, 1, 3], 21)).unwrap();
    let b = capped.store(&entry(&[0, 2, 3], 21)).unwrap();
    assert!(!flat.exists(), "the legacy entry was the evictee");
    assert!(a.exists() && b.exists(), "newer entries survive");
    assert_eq!(capped.len().unwrap(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_bytes_is_published_by_capped_stores_only() {
    let _g = capped();
    let dir = scratch_dir("gauge");
    let uncapped = ArtifactCache::open(&dir).unwrap();
    vfps_obs::start_capture();
    uncapped.store(&entry(&[0, 1], 31)).unwrap();
    let trace = vfps_obs::finish_capture().expect("capture was started");
    assert_eq!(trace.metrics.gauge("cache.bytes"), None, "an uncapped store scans nothing");

    let capped = ArtifactCache::open(&dir).unwrap().with_max_bytes(u64::MAX);
    vfps_obs::start_capture();
    capped.store(&entry(&[0, 2], 31)).unwrap();
    let trace = vfps_obs::finish_capture().expect("capture was started");
    let total = capped.total_bytes().unwrap();
    assert_eq!(trace.metrics.gauge("cache.bytes"), Some(total as f64), "this shard's total");
    let _ = std::fs::remove_dir_all(&dir);
}
