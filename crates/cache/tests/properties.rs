//! Property tests for the artifact cache:
//!
//! * every record type that reaches disk round-trips bit-exactly through
//!   the `Wire` codec (fingerprints, keys, outcomes, ledgers, entries);
//! * the fingerprint is *sensitive* — any change to any key field moves
//!   both digests, identical inputs always collide — and the party set
//!   moves only the full fingerprint (the churn-scan invariant);
//! * arbitrary corruption and truncation of a stored file surface as a
//!   typed [`CacheError`] on lookup, never a panic and never a wrong hit,
//!   and a subsequent store repairs the slot.

use proptest::prelude::*;
use vfps_cache::{ArtifactCache, CacheEntry, CacheError, CacheKey, Fingerprint, Fnv128};
use vfps_net::cost::OpLedger;
use vfps_net::wire::Wire;
use vfps_vfl::fed_knn::QueryOutcome;

fn key_from(
    seeds: (u64, u64, u64, u64),
    queries: Vec<usize>,
    party_set: Vec<usize>,
    k: usize,
    batch: usize,
    mode: u8,
    seed: u64,
) -> CacheKey {
    CacheKey {
        tenant: Fnv128::of(&seeds.0.to_be_bytes()),
        dataset: Fnv128::of(&seeds.0.to_le_bytes()),
        partition: Fnv128::of(&seeds.1.to_le_bytes()),
        db: Fnv128::of(&seeds.2.to_le_bytes()),
        queries,
        party_set,
        k,
        batch,
        mode: mode % 3,
        maximizer: (seeds.1 % 4) as u8,
        maximizer_epsilon_bits: f64::from_bits(seeds.2 | 1).to_bits(),
        cost_scale_bits: f64::from_bits(seeds.3 | 1).to_bits(),
        cost_model: Fnv128::of(&seeds.3.to_le_bytes()),
        seed,
    }
}

fn entry_from(key: CacheKey, raw: &[f64], chosen: Vec<usize>) -> CacheEntry {
    let parties = key.party_set.len().max(1);
    let outcomes: Vec<QueryOutcome> = key
        .queries
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            let d_t: Vec<f64> =
                (0..parties).map(|p| raw[(i + p) % raw.len().max(1)].abs()).collect();
            QueryOutcome {
                topk_rows: vec![q, q + 1, q + 2],
                d_t_total: d_t.iter().sum(),
                d_t,
                candidates: q + i,
            }
        })
        .collect();
    let similarity: Vec<Vec<f64>> = (0..parties)
        .map(|a| (0..parties).map(|b| raw[(a * parties + b) % raw.len().max(1)]).collect())
        .collect();
    let mut ledger = OpLedger::default();
    ledger.record_enc(raw.len() as u64 + 1, parties as u64);
    ledger.record_dist(17, 2);
    ledger.record_traffic(4096, 3);
    ledger.record_round();
    let scores = raw.iter().take(parties).copied().collect();
    CacheEntry {
        key,
        outcomes,
        similarity,
        chosen,
        scores,
        candidates_per_query: raw.first().copied().unwrap_or(0.0),
        ledger,
    }
}

fn scratch_dir(tag: &str, case: u64) -> std::path::PathBuf {
    // Unique per call: the harness may run one property on two threads at
    // once (same seeded cases), and they must not share a directory.
    static CALL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let call = CALL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("vfps_cache_prop_{tag}_{}_{case}_{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every record type that reaches disk round-trips bit-exactly.
    #[test]
    fn every_record_type_roundtrips_through_wire(
        seeds in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        queries in proptest::collection::vec(0usize..5000, 1..12),
        party_set in proptest::collection::vec(0usize..16, 1..6),
        raw in proptest::collection::vec(-1e12f64..1e12, 1..24),
        (k, batch, mode, seed) in (1usize..64, 1usize..500, 0u8..6, any::<u64>()),
    ) {
        let key = key_from(seeds, queries, party_set, k, batch, mode, seed);
        let entry = entry_from(key.clone(), &raw, vec![0, 1]);

        let fp = key.fingerprint();
        prop_assert_eq!(Fingerprint::from_bytes(&fp.to_bytes()).unwrap(), fp);
        prop_assert_eq!(CacheKey::from_bytes(&key.to_bytes()).unwrap(), key);
        for o in &entry.outcomes {
            prop_assert_eq!(&QueryOutcome::from_bytes(&o.to_bytes()).unwrap(), o);
        }
        prop_assert_eq!(OpLedger::from_bytes(&entry.ledger.to_bytes()).unwrap(), entry.ledger.clone());
        let back = CacheEntry::from_bytes(&entry.to_bytes()).unwrap();
        prop_assert_eq!(back, entry);
    }

    /// `encoded_len` is exact for every record, so readers can preallocate
    /// and the checksum trailer lands where the decoder expects it.
    #[test]
    fn encoded_len_matches_actual_encoding(
        seeds in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        queries in proptest::collection::vec(0usize..5000, 1..12),
        party_set in proptest::collection::vec(0usize..16, 1..6),
        raw in proptest::collection::vec(-1e6f64..1e6, 1..24),
    ) {
        let key = key_from(seeds, queries, party_set, 10, 100, 1, 7);
        let entry = entry_from(key.clone(), &raw, vec![0]);
        prop_assert_eq!(key.to_bytes().len(), key.encoded_len());
        prop_assert_eq!(entry.to_bytes().len(), entry.encoded_len());
    }

    /// Identical inputs always hit; changing any single field always
    /// misses, and only the party set leaves the base digest alone.
    #[test]
    fn fingerprint_is_sensitive_and_membership_blind_in_base(
        seeds in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        queries in proptest::collection::vec(0usize..5000, 1..12),
        party_set in proptest::collection::vec(0usize..16, 1..6),
        (k, batch, mode, seed) in (1usize..64, 1usize..500, 0u8..3, any::<u64>()),
        which in 0usize..10,
    ) {
        let a = key_from(seeds, queries.clone(), party_set.clone(), k, batch, mode, seed);
        let b = key_from(seeds, queries.clone(), party_set.clone(), k, batch, mode, seed);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
        prop_assert_eq!(a.base_fingerprint(), b.base_fingerprint());
        prop_assert_eq!(a.file_stem(), b.file_stem());

        let mut m = a.clone();
        match which {
            0 => m.queries.push(queries[0] + 1),
            1 => m.k += 1,
            2 => m.batch += 1,
            3 => m.mode = (m.mode + 1) % 3,
            4 => m.seed = m.seed.wrapping_add(1),
            5 => m.cost_scale_bits ^= 1 << 52,
            6 => m.tenant = Fnv128::of(&m.tenant.to_le_bytes()),
            7 => m.maximizer = (m.maximizer + 1) % 4,
            8 => m.maximizer_epsilon_bits ^= 1 << 52,
            _ => m.dataset = Fnv128::of(&m.dataset.to_le_bytes()),
        }
        prop_assert!(a.fingerprint() != m.fingerprint(), "mutation {} must miss", which);
        prop_assert!(a.base_fingerprint() != m.base_fingerprint(), "mutation {}", which);

        let mut grown = a.clone();
        grown.party_set.push(99);
        prop_assert!(a.fingerprint() != grown.fingerprint());
        prop_assert_eq!(a.base_fingerprint(), grown.base_fingerprint());
        prop_assert!(a.same_base(&grown));
    }

    /// Arbitrary damage to the stored file — any byte flipped, or any
    /// truncation — surfaces as a typed error on lookup: never a panic,
    /// never a silently wrong entry. A fresh store then repairs the slot.
    #[test]
    fn arbitrary_damage_is_typed_and_repairable(
        seeds in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        queries in proptest::collection::vec(0usize..500, 1..6),
        party_set in proptest::collection::vec(0usize..8, 1..4),
        raw in proptest::collection::vec(-1e6f64..1e6, 1..12),
        damage in (any::<u64>(), any::<u64>(), any::<bool>()),
        case in any::<u64>(),
    ) {
        let key = key_from(seeds, queries, party_set, 10, 100, 1, 11);
        let entry = entry_from(key.clone(), &raw, vec![0]);
        let dir = scratch_dir("damage", case);
        let cache = ArtifactCache::open(&dir).unwrap();
        let path = cache.store(&entry).unwrap();
        prop_assert_eq!(cache.lookup(&key).unwrap().as_ref(), Some(&entry));

        let pristine = std::fs::read(&path).unwrap();
        let (offset, tweak, truncate) = damage;
        let mut bytes = pristine.clone();
        if truncate {
            bytes.truncate((offset % pristine.len() as u64) as usize);
        } else {
            let at = (offset % pristine.len() as u64) as usize;
            bytes[at] ^= (tweak % 255 + 1) as u8;
        }
        std::fs::write(&path, &bytes).unwrap();

        match cache.lookup(&key) {
            Err(
                CacheError::Checksum
                | CacheError::Truncated
                | CacheError::BadMagic
                | CacheError::Corrupt(_)
                | CacheError::KeyCollision,
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
            Ok(got) => prop_assert!(false, "damaged file served: {:?}", got.map(|e| e.key)),
        }

        cache.store(&entry).unwrap();
        prop_assert_eq!(cache.lookup(&key).unwrap(), Some(entry));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
