//! The on-disk artifact store: one file per selection run.
//!
//! File layout: an 8-byte magic, the [`Wire`]-encoded [`CacheEntry`], and a
//! trailing 16-byte FNV-1a-128 checksum of the payload. An entry lives at
//! `{bucket}/{base_fingerprint}-{full_fingerprint}.vfpsc` under the cache
//! directory, `{bucket}` being the base fingerprint's first two hex digits,
//! so an exact lookup is one `open` and a churn lookup lists one of 256
//! buckets: 1/256 of the entries, not all of them. Only
//! [`ArtifactCache::len`], [`ArtifactCache::total_bytes`] and a byte cap
//! walk the whole tree.
//!
//! Every failure mode (missing magic, truncation, checksum mismatch,
//! undecodable payload, fingerprint collision) surfaces as a typed
//! [`CacheError`] — callers degrade to a cold run, never panic. Storing
//! over a corrupt file at the same key simply rewrites it, which is the
//! invalidation story: a key addresses content, so the only stale state
//! possible is a damaged file, and damage is always detected.

use std::path::{Path, PathBuf};

use vfps_net::cost::OpLedger;
use vfps_net::wire::{Wire, WireError};
use vfps_vfl::fed_knn::QueryOutcome;

use crate::fingerprint::{CacheKey, Fnv128};

/// File magic: "VFPSCAC" plus format version 4. v4 widened the embedded
/// `OpLedger` with the random-access counter; v3 added the maximizer
/// kind and epsilon to [`CacheKey`]; v2 added the tenant digest. Older
/// files fail [`CacheError::BadMagic`] and degrade to a cold run that
/// rewrites the slot in the current format.
pub const MAGIC: [u8; 8] = *b"VFPSCAC4";
/// Cache file extension.
pub const EXTENSION: &str = "vfpsc";
const CHECKSUM_LEN: usize = 16;
/// Hex digits of the base fingerprint that name an entry's bucket: 256
/// buckets. A directory per base would cost every cold store a `mkdir` (a
/// directory inode and block, journaled); buckets are all created within
/// the first couple of thousand stores and never again.
const BUCKET_DIGITS: usize = 2;

/// Why a cache operation failed. Every variant degrades the caller to a
/// cold run; none of them is a panic.
#[derive(Debug)]
pub enum CacheError {
    /// Filesystem error (unreadable directory, permission, short write...).
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a cache file, or a
    /// future incompatible format version.
    BadMagic,
    /// The file is shorter than magic + checksum.
    Truncated,
    /// The payload does not match its trailing checksum (bit rot or a torn
    /// write).
    Checksum,
    /// The payload checksums correctly but does not decode — a record
    /// written by an incompatible build.
    Corrupt(WireError),
    /// The decoded entry's key differs from the requested one: a 128-bit
    /// fingerprint collision (or a renamed file).
    KeyCollision,
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Io(e) => write!(f, "cache i/o error: {e}"),
            CacheError::BadMagic => f.write_str("not a vfps cache file (bad magic)"),
            CacheError::Truncated => f.write_str("cache file truncated"),
            CacheError::Checksum => f.write_str("cache payload checksum mismatch"),
            CacheError::Corrupt(e) => write!(f, "cache payload undecodable: {e}"),
            CacheError::KeyCollision => f.write_str("cache entry key does not match request"),
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Io(e) => Some(e),
            CacheError::Corrupt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError::Io(e)
    }
}

/// Everything one selection run produced that is worth reusing: the
/// per-query KNN outcomes (the churn path's `d_T^p` vectors), the
/// accumulated similarity matrix (what a warm run maximizes), and the
/// final greedy result with its billing ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheEntry {
    /// The full identity of the run.
    pub key: CacheKey,
    /// Per-query outcomes, aligned with `key.queries`.
    pub outcomes: Vec<QueryOutcome>,
    /// The accumulated party-by-party similarity matrix.
    pub similarity: Vec<Vec<f64>>,
    /// Parties the maximizer chose (at store-time `count`).
    pub chosen: Vec<usize>,
    /// Full-width marginal-gain scores.
    pub scores: Vec<f64>,
    /// Mean encrypted candidates per query (the Fig. 9 metric).
    pub candidates_per_query: f64,
    /// The cold run's operation ledger.
    pub ledger: OpLedger,
}

vfps_net::wire_struct!(CacheEntry {
    key,
    outcomes,
    similarity,
    chosen,
    scores,
    candidates_per_query,
    ledger
});

/// How a churned request relates to a cached neighbor entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnKind {
    /// The request adds exactly this party to the cached consortium.
    Join(usize),
    /// The request removes exactly this party from the cached consortium.
    Leave(usize),
}

/// A content-addressed, on-disk cache of selection artifacts.
pub struct ArtifactCache {
    dir: PathBuf,
    max_bytes: Option<u64>,
}

impl ArtifactCache {
    /// Opens (creating if needed) the cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, CacheError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ArtifactCache { dir, max_bytes: None })
    }

    /// Opens the per-tenant shard `root/`[`tenant_dir_name`]`(tenant)`.
    ///
    /// Each tenant gets its own directory, so directory scans (churn
    /// lookups, byte caps, eviction) never cross tenants; the tenant
    /// digest inside [`CacheKey`] independently guarantees that even a
    /// mis-rooted cache cannot serve one tenant another's artifacts.
    pub fn open_tenant(root: impl Into<PathBuf>, tenant: &str) -> Result<Self, CacheError> {
        Self::open(root.into().join(tenant_dir_name(tenant)))
    }

    /// Caps the cache at `max_bytes`: after each store, oldest entries
    /// (by modification time, ties broken by path) are evicted until the
    /// total fits, and the total is published as the `cache.bytes` gauge.
    /// The just-stored entry itself is never evicted; bucket directories
    /// are never removed, so a concurrent store never loses the directory
    /// it is staging into.
    #[must_use]
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `{bucket}/{base}-{full}.vfpsc`: every entry sharing `key`'s base
    /// fingerprint — its churn neighbours — lives in one bucket.
    fn path_for(&self, key: &CacheKey) -> PathBuf {
        let stem = key.file_stem();
        self.dir.join(&stem[..BUCKET_DIGITS]).join(format!("{stem}.{EXTENSION}"))
    }

    /// Exact lookup. `Ok(None)` is a clean miss; `Err` means a file exists
    /// at the key's address but cannot be trusted (the caller should run
    /// cold and may overwrite it via [`ArtifactCache::store`]). Bumps the
    /// `cache.hit` / `cache.miss` obs counters.
    pub fn lookup(&self, key: &CacheKey) -> Result<Option<CacheEntry>, CacheError> {
        let path = self.path_for(key);
        match read_entry(&path) {
            Ok(entry) => {
                if entry.key != *key {
                    vfps_obs::counter_add("cache.miss", 1);
                    return Err(CacheError::KeyCollision);
                }
                vfps_obs::counter_add("cache.hit", 1);
                Ok(Some(entry))
            }
            // A missing file is a clean miss — including one that vanished
            // between a directory scan and this open because a concurrent
            // evictor removed it.
            Err(CacheError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                vfps_obs::counter_add("cache.miss", 1);
                Ok(None)
            }
            Err(e) => {
                vfps_obs::counter_add("cache.miss", 1);
                Err(e)
            }
        }
    }

    /// Churn lookup: scans the entries sharing `key`'s base fingerprint
    /// (same run in every respect except consortium membership) — found
    /// by listing one bucket, a 1/256 share of the cache — in filename
    /// order for one whose party set differs from the request by exactly
    /// one join or one leave. Corrupt neighbors are skipped, not fatal —
    /// they only reduce reuse. Counts as a `cache.hit` when a neighbor is
    /// found.
    pub fn lookup_churn(
        &self,
        key: &CacheKey,
    ) -> Result<Option<(CacheEntry, ChurnKind)>, CacheError> {
        let prefix = format!("{}-", key.base_fingerprint().hex());
        let own = self.path_for(key);
        let Some(listing) = read_dir_if_exists(own.parent().expect("entries live in a bucket"))?
        else {
            return Ok(None);
        };
        let mut names: Vec<PathBuf> = listing
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|e| e == EXTENSION)
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with(&prefix))
                    && *p != own
            })
            .collect();
        names.sort();
        for path in names {
            let Ok(entry) = read_entry(&path) else { continue };
            if !entry.key.same_base(key) {
                continue;
            }
            let Some(kind) = churn_between(&entry.key.party_set, &key.party_set) else { continue };
            vfps_obs::counter_add("cache.hit", 1);
            return Ok(Some((entry, kind)));
        }
        Ok(None)
    }

    /// Stores `entry` (overwriting any file at its address, including a
    /// corrupt one) and returns the path it now lives at, then enforces
    /// the byte cap, if any. An uncapped store touches its own bucket
    /// only (creating it the first time): its cost does not grow with the
    /// cache.
    ///
    /// The write is atomic with respect to concurrent readers: the frame is
    /// written to a uniquely named `.tmp` sibling and `rename`d into place,
    /// so another process sharing the directory (e.g. two `--cache-dir`
    /// sessions, or the serving daemon's workers) can never observe a
    /// truncated entry mid-write — it sees either the old file, the new
    /// file, or no file at all.
    pub fn store(&self, entry: &CacheEntry) -> Result<PathBuf, CacheError> {
        let path = self.path_for(&entry.key);
        let payload = entry.to_bytes();
        let mut bytes = Vec::with_capacity(MAGIC.len() + payload.len() + CHECKSUM_LEN);
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&Fnv128::of(&payload).to_le_bytes());
        // Unique per process *and* call, so two concurrent writers of the
        // same key never clobber each other's staging file; the extension
        // is not `vfpsc`, so scans never pick a staging file up.
        static STORE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = STORE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = path.with_extension(format!("{}-{seq}.tmp", std::process::id()));
        match std::fs::write(&tmp, &bytes) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                std::fs::create_dir_all(path.parent().expect("entries live in a bucket"))?;
                std::fs::write(&tmp, &bytes)?;
            }
            written => written?,
        }
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        self.enforce_cap(&path)?;
        Ok(path)
    }

    /// Total bytes across all cache files.
    pub fn total_bytes(&self) -> Result<u64, CacheError> {
        Ok(self.files()?.iter().map(|(_, _, len)| len).sum())
    }

    /// Number of cached entries.
    pub fn len(&self) -> Result<usize, CacheError> {
        Ok(self.files()?.len())
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> Result<bool, CacheError> {
        Ok(self.len()? == 0)
    }

    /// `(path, mtime, len)` for every cache file: the entries of every
    /// bucket, and any flat `{base}-{full}.vfpsc` left in the cache
    /// directory itself by a build that predates buckets — never served,
    /// but counted and evicted like any other entry.
    fn files(&self) -> Result<Vec<CacheFile>, CacheError> {
        let mut out = Vec::new();
        for e in std::fs::read_dir(&self.dir)? {
            let e = e?;
            if !e.file_type()?.is_dir() {
                push_entry_file(&mut out, &e)?;
                continue;
            }
            let Some(base) = read_dir_if_exists(&e.path())? else { continue };
            for f in base {
                push_entry_file(&mut out, &f?)?;
            }
        }
        Ok(out)
    }

    fn enforce_cap(&self, keep: &Path) -> Result<(), CacheError> {
        let Some(cap) = self.max_bytes else { return Ok(()) };
        let mut files = self.files()?;
        // Oldest first; mtime ties (coarse filesystem clocks) break by name.
        files.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
        for (path, _, len) in files {
            if total <= cap {
                break;
            }
            if path == keep {
                continue;
            }
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                // A concurrent evictor already removed it — the bytes are
                // reclaimed either way.
                Err(err) if err.kind() == std::io::ErrorKind::NotFound => {}
                Err(err) => return Err(err.into()),
            }
            vfps_obs::counter_add("cache.evict", 1);
            total = total.saturating_sub(len);
        }
        vfps_obs::gauge_set("cache.bytes", total as f64);
        Ok(())
    }
}

/// `read_dir`, with a directory that does not exist read as `None`: a
/// bucket no entry was ever stored in.
fn read_dir_if_exists(dir: &Path) -> Result<Option<std::fs::ReadDir>, CacheError> {
    match std::fs::read_dir(dir) {
        Ok(listing) => Ok(Some(listing)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// `(path, mtime, len)` of one cache file.
type CacheFile = (PathBuf, std::time::SystemTime, u64);

/// Appends `e` to `out` when it is a cache file.
fn push_entry_file(out: &mut Vec<CacheFile>, e: &std::fs::DirEntry) -> Result<(), CacheError> {
    let path = e.path();
    if path.extension().is_none_or(|x| x != EXTENSION) {
        return Ok(());
    }
    // An entry can vanish between readdir and stat when another thread or
    // process evicts it; that is not an error, the file is simply gone.
    let meta = match e.metadata() {
        Ok(m) => m,
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(err) => return Err(err.into()),
    };
    let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
    out.push((path, mtime, meta.len()));
    Ok(())
}

/// The directory name of one tenant's cache shard: `tenant-<name>` with
/// every byte outside `[A-Za-z0-9._-]` percent-escaped, so distinct
/// tenant ids can never collapse onto one directory and no tenant id can
/// escape the cache root (`/`, `..`, and friends are all escaped). The
/// empty id (single-tenant use) maps to `tenant-default`.
#[must_use]
pub fn tenant_dir_name(tenant: &str) -> String {
    if tenant.is_empty() {
        return "tenant-default".to_owned();
    }
    let mut out = String::with_capacity(tenant.len() + 7);
    out.push_str("tenant-");
    for b in tenant.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'_' | b'-' => out.push(b as char),
            // '.' is safe except as a path-walking prefix; escaping it
            // everywhere keeps the rule one line.
            _ => out.push_str(&format!("%{b:02x}")),
        }
    }
    out
}

/// Reads and fully validates one cache file.
fn read_entry(path: &Path) -> Result<CacheEntry, CacheError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < MAGIC.len() + CHECKSUM_LEN {
        return Err(CacheError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(CacheError::BadMagic);
    }
    let (payload, check) = bytes[MAGIC.len()..].split_at(bytes.len() - MAGIC.len() - CHECKSUM_LEN);
    if Fnv128::of(payload).to_le_bytes() != check {
        return Err(CacheError::Checksum);
    }
    CacheEntry::from_bytes(payload).map_err(CacheError::Corrupt)
}

/// `Some(kind)` iff `to` differs from `from` by exactly one membership
/// change (order-insensitive).
fn churn_between(from: &[usize], to: &[usize]) -> Option<ChurnKind> {
    let joined: Vec<usize> = to.iter().copied().filter(|p| !from.contains(p)).collect();
    let left: Vec<usize> = from.iter().copied().filter(|p| !to.contains(p)).collect();
    match (joined.as_slice(), left.as_slice()) {
        ([j], []) => Some(ChurnKind::Join(*j)),
        ([], [l]) => Some(ChurnKind::Leave(*l)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fnv128;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vfps_cache_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key_with_parties(parties: &[usize]) -> CacheKey {
        CacheKey {
            tenant: Fnv128::of(b""),
            dataset: Fnv128::of(b"ds"),
            partition: Fnv128::of(b"part"),
            db: Fnv128::of(b"db"),
            queries: vec![1, 2, 3],
            party_set: parties.to_vec(),
            k: 5,
            batch: 10,
            mode: 1,
            maximizer: 0,
            maximizer_epsilon_bits: 0.0f64.to_bits(),
            cost_scale_bits: 1.0f64.to_bits(),
            cost_model: Fnv128::of(b"cost"),
            seed: 7,
        }
    }

    fn entry_with_parties(parties: &[usize]) -> CacheEntry {
        let key = key_with_parties(parties);
        let outcomes = key
            .queries
            .iter()
            .map(|&q| QueryOutcome {
                topk_rows: vec![q, q + 1],
                d_t: parties.iter().map(|&p| p as f64 + 0.5).collect(),
                d_t_total: parties.iter().map(|&p| p as f64 + 0.5).sum(),
                candidates: 4,
            })
            .collect();
        let mut ledger = OpLedger::default();
        ledger.record_enc(12, parties.len() as u64);
        CacheEntry {
            key,
            outcomes,
            similarity: vec![vec![1.0; parties.len()]; parties.len()],
            chosen: vec![parties[0]],
            scores: vec![0.25; parties.len()],
            candidates_per_query: 4.0,
            ledger,
        }
    }

    #[test]
    fn store_then_lookup_roundtrips() {
        let dir = temp_dir("roundtrip");
        let cache = ArtifactCache::open(&dir).unwrap();
        let entry = entry_with_parties(&[0, 1, 2]);
        assert!(matches!(cache.lookup(&entry.key), Ok(None)), "cold cache must miss cleanly");
        cache.store(&entry).unwrap();
        let back = cache.lookup(&entry.key).unwrap().expect("hit");
        assert_eq!(back, entry);
        assert_eq!(cache.len().unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn churn_lookup_finds_join_and_leave_neighbors() {
        let dir = temp_dir("churn");
        let cache = ArtifactCache::open(&dir).unwrap();
        cache.store(&entry_with_parties(&[0, 1, 2])).unwrap();

        let (e, kind) = cache.lookup_churn(&key_with_parties(&[0, 1, 2, 3])).unwrap().unwrap();
        assert_eq!(kind, ChurnKind::Join(3));
        assert_eq!(e.key.party_set, vec![0, 1, 2]);

        let (_, kind) = cache.lookup_churn(&key_with_parties(&[0, 1])).unwrap().unwrap();
        assert_eq!(kind, ChurnKind::Leave(2));

        // Two memberships away: no reuse.
        assert!(cache.lookup_churn(&key_with_parties(&[0, 1, 3, 4])).unwrap().is_none());
        // Different base (other k): no reuse even at one membership away.
        let mut other = key_with_parties(&[0, 1, 2, 3]);
        other.k = 6;
        assert!(cache.lookup_churn(&other).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tenant_shards_are_disjoint_directories_and_keyspaces() {
        let root = temp_dir("tenants");
        let a = ArtifactCache::open_tenant(&root, "Bank").unwrap();
        let b = ArtifactCache::open_tenant(&root, "Rice").unwrap();
        assert_ne!(a.dir(), b.dir());
        assert!(a.dir().starts_with(&root) && b.dir().starts_with(&root));

        // Same entry stored for tenant a is invisible to tenant b: the
        // shard directories are disjoint, so b both misses the exact
        // lookup and finds no churn neighbor.
        let mut entry = entry_with_parties(&[0, 1, 2]);
        entry.key.tenant = Fnv128::of(b"Bank");
        a.store(&entry).unwrap();
        assert!(a.lookup(&entry.key).unwrap().is_some());
        let mut foreign = entry.key.clone();
        foreign.tenant = Fnv128::of(b"Rice");
        assert!(b.lookup(&foreign).unwrap().is_none());
        assert!(b.lookup_churn(&foreign).unwrap().is_none());
        assert_eq!(b.len().unwrap(), 0);

        // Hostile tenant ids cannot escape the root or collide.
        assert_eq!(tenant_dir_name(""), "tenant-default");
        assert_eq!(tenant_dir_name("Bank"), "tenant-Bank");
        assert_ne!(tenant_dir_name("a/b"), tenant_dir_name("a%2fb"), "escaping must be injective");
        assert!(!tenant_dir_name("../up").contains('/'));
        assert!(!tenant_dir_name("a/b").contains('/'));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corruption_surfaces_as_typed_errors() {
        let dir = temp_dir("corrupt");
        let cache = ArtifactCache::open(&dir).unwrap();
        let entry = entry_with_parties(&[0, 1]);
        let path = cache.store(&entry).unwrap();

        // Flip one payload byte: checksum mismatch.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[MAGIC.len() + 3] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(cache.lookup(&entry.key), Err(CacheError::Checksum)));

        // Truncate below the minimum frame: Truncated.
        std::fs::write(&path, &bytes[..MAGIC.len() + 2]).unwrap();
        assert!(matches!(cache.lookup(&entry.key), Err(CacheError::Truncated)));

        // Wrong magic: BadMagic.
        let mut bad = std::fs::read(&path).unwrap();
        bad.splice(0..0, b"XXXXXXXXXXXXXXXXXXXXXXXX".iter().copied());
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(cache.lookup(&entry.key), Err(CacheError::BadMagic)));

        // Storing over the damage repairs the entry.
        cache.store(&entry).unwrap();
        assert_eq!(cache.lookup(&entry.key).unwrap().unwrap(), entry);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_payload_with_valid_checksum_is_corrupt() {
        let dir = temp_dir("truncpay");
        let cache = ArtifactCache::open(&dir).unwrap();
        let entry = entry_with_parties(&[0, 1]);
        let path = cache.store(&entry).unwrap();
        // Rebuild the frame around a half payload with a *correct* checksum:
        // decode itself must fail with a typed wire error.
        let bytes = std::fs::read(&path).unwrap();
        let payload = &bytes[MAGIC.len()..bytes.len() - CHECKSUM_LEN];
        let half = &payload[..payload.len() / 2];
        let mut rebuilt = Vec::new();
        rebuilt.extend_from_slice(&MAGIC);
        rebuilt.extend_from_slice(half);
        rebuilt.extend_from_slice(&Fnv128::of(half).to_le_bytes());
        std::fs::write(&path, &rebuilt).unwrap();
        assert!(matches!(cache.lookup(&entry.key), Err(CacheError::Corrupt(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_cap_evicts_oldest_entries_first() {
        let dir = temp_dir("evict");
        let one = entry_with_parties(&[0, 1]);
        let two = entry_with_parties(&[0, 1, 2]);
        let three = entry_with_parties(&[0, 1, 2, 3]);
        let size = {
            let probe = ArtifactCache::open(&dir).unwrap();
            let p = probe.store(&one).unwrap();
            let s = std::fs::metadata(&p).unwrap().len();
            std::fs::remove_file(&p).unwrap();
            s
        };
        // Cap fits roughly two entries (sizes grow slightly with parties).
        let cache = ArtifactCache::open(&dir).unwrap().with_max_bytes(size * 2 + size / 2);
        let first = cache.store(&one).unwrap();
        // Ensure a strictly older mtime on the first entry even on coarse
        // filesystem clocks.
        let old = std::time::SystemTime::now() - std::time::Duration::from_secs(600);
        let _ = filetime_set(&first, old);
        cache.store(&two).unwrap();
        cache.store(&three).unwrap();
        assert!(cache.total_bytes().unwrap() <= size * 2 + size / 2);
        assert!(matches!(cache.lookup(&one.key), Ok(None)), "oldest entry must be the evictee");
        assert!(cache.lookup(&three.key).unwrap().is_some(), "newest entry must survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Best-effort mtime rewind without external crates: re-write the file
    /// contents (no-op for eviction math) then use `filetime` via libc is
    /// unavailable, so shell out to `touch -d`.
    fn filetime_set(path: &Path, t: std::time::SystemTime) -> std::io::Result<()> {
        let secs = t.duration_since(std::time::SystemTime::UNIX_EPOCH).unwrap().as_secs();
        let status = std::process::Command::new("touch")
            .arg("-d")
            .arg(format!("@{secs}"))
            .arg(path)
            .status()?;
        if status.success() {
            Ok(())
        } else {
            Err(std::io::Error::other("touch failed"))
        }
    }
}
