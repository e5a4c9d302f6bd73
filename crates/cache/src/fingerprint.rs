//! Deterministic fingerprints for selection-artifact cache keys.
//!
//! Keys are content-addressed: every input that can change a selection
//! outcome — dataset identity, vertical partition, database rows, query
//! ids, consortium membership, KNN parameters, cost model, seed — is
//! folded into a 128-bit FNV-1a digest over its canonical [`Wire`]
//! encoding. Two digests are derived per key:
//!
//! * the **full** fingerprint includes the party set and addresses the
//!   exact artifact;
//! * the **base** fingerprint excludes the party set, so entries that
//!   differ *only* in consortium membership share a filename prefix — the
//!   churn path scans that prefix to find a reusable neighbor entry.

use vfps_net::wire::{Wire, WireError};

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Incremental 128-bit FNV-1a hasher (hand-rolled; no external deps).
#[derive(Clone, Debug)]
pub struct Fnv128 {
    state: u128,
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv128 {
    /// A fresh hasher at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv128 { state: FNV128_OFFSET }
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    /// Current digest.
    #[must_use]
    pub fn digest(&self) -> Fingerprint {
        Fingerprint(self.state)
    }

    /// One-shot digest of `bytes`.
    #[must_use]
    pub fn of(bytes: &[u8]) -> Fingerprint {
        let mut h = Self::new();
        h.update(bytes);
        h.digest()
    }
}

/// A 128-bit content digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// 32-character lowercase hex form (used in cache filenames).
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Little-endian byte form (used as the on-disk checksum trailer).
    #[must_use]
    pub fn to_le_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

// hand-written Wire: a u128 travels as its high then its low u64, which no field list says.
impl Wire for Fingerprint {
    fn encode(&self, out: &mut Vec<u8>) {
        ((self.0 >> 64) as u64).encode(out);
        (self.0 as u64).encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let hi = u64::decode(input)?;
        let lo = u64::decode(input)?;
        Ok(Fingerprint((u128::from(hi) << 64) | u128::from(lo)))
    }

    fn encoded_len(&self) -> usize {
        16
    }
}

/// The complete identity of one selection run, as cached.
///
/// Bulky inputs (dataset content, partition layout, database rows, cost
/// model) are carried as digests; the small discriminating inputs (query
/// ids, party set, KNN parameters, seed) are carried verbatim so a decoded
/// entry can be reused structurally (e.g. the churn path needs the cached
/// party set and query list, not just their hashes).
///
/// The selection *size* (`count`) is deliberately not part of the key: the
/// cached artifacts are the per-query KNN outcomes and the similarity
/// matrix, and the configured maximizer re-runs over them
/// deterministically, so one entry serves every `count`. The maximizer
/// *itself* (kind + epsilon) **is** part of the key: different maximizers
/// choose different sets from identical artifacts, so a stochastic
/// selection must never alias a warm exact (lazy) entry.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheKey {
    /// Digest of the owning tenant's identity ([`Fnv128`] over the tenant
    /// id bytes; the digest of the empty string for single-tenant use).
    /// Folded into *both* fingerprints so two tenants can never alias an
    /// entry — not even when every other input (dataset content included)
    /// is bit-identical — and never warm-serve or churn-serve each other.
    pub tenant: Fingerprint,
    /// Digest of the dataset identity (spec canonical bytes + content).
    pub dataset: Fingerprint,
    /// Digest of the vertical partition (all parties' column groups).
    pub partition: Fingerprint,
    /// Digest of the database row ids the KNN engine indexes.
    pub db: Fingerprint,
    /// Query rows, in execution order.
    pub queries: Vec<usize>,
    /// Consortium party ids, in slot order.
    pub party_set: Vec<usize>,
    /// KNN neighbor count.
    pub k: usize,
    /// Fagin mini-batch size.
    pub batch: usize,
    /// KNN mode tag (0 = Base, 1 = Fagin).
    pub mode: u8,
    /// Maximizer kind tag (`Maximizer::kind`: 0 = lazy, which selects
    /// exact greedy's set and keeps its tag; 2 = stochastic).
    pub maximizer: u8,
    /// IEEE-754 bits of the maximizer's epsilon (0.0 for the exact
    /// maximizer, which has none).
    pub maximizer_epsilon_bits: u64,
    /// IEEE-754 bits of the billing cost scale.
    pub cost_scale_bits: u64,
    /// Digest of the cost model used for billing.
    pub cost_model: Fingerprint,
    /// Selection seed (drives query sampling).
    pub seed: u64,
}

impl CacheKey {
    /// The exact-match fingerprint (includes the party set).
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        Fnv128::of(&self.to_bytes())
    }

    /// The membership-blind fingerprint (party set excluded) shared by all
    /// entries that differ only in consortium composition.
    #[must_use]
    pub fn base_fingerprint(&self) -> Fingerprint {
        // Party sets are never empty, so the empty vector unambiguously
        // marks "membership excluded".
        Fnv128::of(&CacheKey { party_set: Vec::new(), ..self.clone() }.to_bytes())
    }

    /// `{base}-{full}` — the cache filename stem.
    #[must_use]
    pub fn file_stem(&self) -> String {
        format!("{}-{}", self.base_fingerprint().hex(), self.fingerprint().hex())
    }

    /// Whether `self` and `other` agree on everything except consortium
    /// membership — the precondition for churn reuse.
    #[must_use]
    pub fn same_base(&self, other: &CacheKey) -> bool {
        self.base_fingerprint() == other.base_fingerprint()
    }
}

vfps_net::wire_struct!(CacheKey {
    tenant,
    dataset,
    partition,
    db,
    queries,
    party_set,
    k,
    batch,
    mode,
    maximizer,
    maximizer_epsilon_bits,
    cost_scale_bits,
    cost_model,
    seed,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> CacheKey {
        CacheKey {
            tenant: Fnv128::of(b"tenant-a"),
            dataset: Fnv128::of(b"dataset"),
            partition: Fnv128::of(b"partition"),
            db: Fnv128::of(b"db"),
            queries: vec![3, 1, 4, 1, 5],
            party_set: vec![0, 1, 2, 3],
            k: 10,
            batch: 100,
            mode: 1,
            maximizer: 0,
            maximizer_epsilon_bits: 0.0f64.to_bits(),
            cost_scale_bits: 1.0f64.to_bits(),
            cost_model: Fnv128::of(b"cost"),
            seed: 42,
        }
    }

    #[test]
    fn fnv128_matches_known_vectors() {
        // Standard FNV-1a 128-bit test vectors.
        assert_eq!(Fnv128::of(b"").0, FNV128_OFFSET);
        assert_eq!(Fnv128::of(b"a").0, 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
    }

    #[test]
    fn identical_keys_share_fingerprints() {
        assert_eq!(key().fingerprint(), key().fingerprint());
        assert_eq!(key().base_fingerprint(), key().base_fingerprint());
        assert_eq!(key().file_stem(), key().file_stem());
    }

    #[test]
    fn any_field_change_moves_the_fingerprint() {
        let base = key();
        let mut variants = Vec::new();
        let mut k = key();
        k.tenant = Fnv128::of(b"tenant-b");
        variants.push(k);
        let mut k = key();
        k.dataset = Fnv128::of(b"other dataset");
        variants.push(k);
        let mut k = key();
        k.partition = Fnv128::of(b"other partition");
        variants.push(k);
        let mut k = key();
        k.db = Fnv128::of(b"other db");
        variants.push(k);
        let mut k = key();
        k.queries[2] = 9;
        variants.push(k);
        let mut k = key();
        k.k = 11;
        variants.push(k);
        let mut k = key();
        k.batch = 99;
        variants.push(k);
        let mut k = key();
        k.mode = 0;
        variants.push(k);
        let mut k = key();
        k.maximizer = 2;
        variants.push(k);
        let mut k = key();
        k.maximizer_epsilon_bits = 0.1f64.to_bits();
        variants.push(k);
        let mut k = key();
        k.cost_scale_bits = 2.0f64.to_bits();
        variants.push(k);
        let mut k = key();
        k.seed = 43;
        variants.push(k);
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base.fingerprint(), v.fingerprint(), "variant {i}");
            assert_ne!(base.base_fingerprint(), v.base_fingerprint(), "variant {i}");
        }
    }

    #[test]
    fn party_set_changes_full_but_not_base_fingerprint() {
        let a = key();
        let mut b = key();
        b.party_set = vec![0, 1, 2, 3, 4];
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.base_fingerprint(), b.base_fingerprint());
        assert!(a.same_base(&b));
    }

    #[test]
    fn tenants_shard_even_bit_identical_inputs() {
        // Two tenants over otherwise identical inputs must disagree on
        // both digests: no exact aliasing, no churn-scan crosstalk.
        let a = key();
        let mut b = key();
        b.tenant = Fnv128::of(b"tenant-b");
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.base_fingerprint(), b.base_fingerprint());
        assert!(!a.same_base(&b));
    }

    #[test]
    fn key_roundtrips_through_wire() {
        let k = key();
        assert_eq!(CacheKey::from_bytes(&k.to_bytes()).unwrap(), k);
    }

    #[test]
    fn update_in_pieces_equals_one_shot() {
        let bytes = b"tenant-Rice/partition/db";
        for cut in [0, 1, 7, bytes.len()] {
            let mut h = Fnv128::new();
            h.update(&bytes[..cut]);
            h.update(&[]);
            h.update(&bytes[cut..]);
            assert_eq!(h.digest(), Fnv128::of(bytes), "cut {cut}");
        }
        assert_eq!(Fnv128::default().digest(), Fnv128::of(b""));
    }

    #[test]
    fn fingerprint_forms_agree() {
        let f = Fingerprint(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff);
        assert_eq!(f.hex(), "00112233445566778899aabbccddeeff");
        assert_eq!(f.to_string(), f.hex());
        assert_eq!(Fingerprint(1).hex().len(), 32, "zero-padded");
        assert_eq!(f.to_le_bytes()[0], 0xff);
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), f.encoded_len());
        assert_eq!(bytes[..8], 0x0011_2233_4455_6677u64.to_bytes()[..], "high half first");
        assert_eq!(Fingerprint::from_bytes(&bytes).unwrap(), f);
    }
}
