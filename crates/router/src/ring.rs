//! The consistent-hash ring (DESIGN.md §13).
//!
//! Every backend owns `vnodes_per_backend` points on a 64-bit ring; a
//! tenant key hashes to a point and walks clockwise to the first
//! routable backend. The properties that make this the right structure
//! for a tenant-affine routing tier:
//!
//! * **determinism** — every point hashes from
//!   `(seed, backend name, vnode index)` with FNV-1a and the point list
//!   is kept sorted, so two routers built from the same configuration
//!   route identically, across processes and regardless of the order
//!   backends were added (no `HashMap` iteration order anywhere);
//! * **minimal disruption** — removing one of `n` backends deletes only
//!   that backend's points, so only keys whose clockwise-first point
//!   belonged to it remap (≈ `1/n` of keys in expectation), and every
//!   remapped key lands on a surviving backend; all other keys keep
//!   their backend, which keeps the daemons' tenant-LRU and
//!   artifact-cache shards hot through membership changes;
//! * **graceful degradation** — [`Ring::walk`] yields *all* distinct
//!   backends in clockwise order, so a caller that finds the owner
//!   unhealthy can fail over to the next arc without re-hashing.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Default virtual nodes per backend: enough that ownership is balanced
/// within a few ten percent across a handful of backends, small enough
/// that the sorted point list stays cache-resident.
pub const DEFAULT_VNODES: u64 = 64;

/// Default ring seed. Chosen (and pinned by a test) so the two bench
/// tenants — `""` (the default dataset) and `"Rice"` — land on
/// *different* backends of a two-backend ring named `b0`/`b1`.
pub const DEFAULT_RING_SEED: u64 = 0x5646_5053_2d52_4e47; // "VFPS-RNG"

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64's avalanche finalizer. Raw FNV-1a of short, similar
/// strings (`tenant-0007` vs `tenant-0008`, `b0` vs `b1`) leaves the
/// high bits nearly constant, which would cluster every key into one
/// thin arc of the ring; finalizing spreads single-bit input changes
/// across all 64 output bits, so ring positions are uniform even for
/// adversarially similar names.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded consistent-hash ring over named backends.
#[derive(Clone, Debug)]
pub struct Ring {
    seed: u64,
    vnodes_per_backend: u64,
    /// Backends in first-add order (stable indices for `points`).
    backends: Vec<String>,
    /// `(point hash, backend index)` sorted by hash then backend *name*
    /// — the name tie-break keeps the order independent of add order
    /// even on (astronomically unlikely) 64-bit collisions.
    points: Vec<(u64, u32)>,
}

impl Ring {
    /// An empty ring. `vnodes_per_backend == 0` is coerced to 1 — a
    /// backend with no points would silently never be routed to.
    #[must_use]
    pub fn new(seed: u64, vnodes_per_backend: u64) -> Ring {
        Ring {
            seed,
            vnodes_per_backend: vnodes_per_backend.max(1),
            backends: Vec::new(),
            points: Vec::new(),
        }
    }

    /// The seed points and keys hash from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Virtual nodes each backend owns.
    #[must_use]
    pub fn vnodes_per_backend(&self) -> u64 {
        self.vnodes_per_backend
    }

    /// Backend names in first-add order. A removed backend leaves an
    /// empty-string tombstone in its slot (so surviving indices — and
    /// therefore surviving keys' owners — never shift); callers that
    /// enumerate members should skip empty names.
    #[must_use]
    pub fn backends(&self) -> &[String] {
        &self.backends
    }

    /// Where a point for `(backend, vnode index)` lands.
    fn point_hash(&self, name: &str, vnode: u64) -> u64 {
        let h = fnv1a(FNV_OFFSET, &self.seed.to_le_bytes());
        let h = fnv1a(h, name.as_bytes());
        // A separator byte keeps ("ab", 1) and ("a", ...) streams from
        // colliding by concatenation.
        let h = fnv1a(h, &[0xff]);
        mix(fnv1a(h, &vnode.to_le_bytes()))
    }

    /// Where a tenant key lands.
    #[must_use]
    pub fn key_hash(&self, key: &str) -> u64 {
        let h = fnv1a(FNV_OFFSET, &self.seed.to_le_bytes());
        mix(fnv1a(h, key.as_bytes()))
    }

    /// Adds a backend (its vnodes join the ring). Adding a name twice is
    /// a no-op: vnode positions depend only on the name, so a duplicate
    /// would double the backend's points without changing ownership
    /// boundaries, only the accounting.
    pub fn add(&mut self, name: &str) {
        if self.backends.iter().any(|b| b == name) {
            return;
        }
        let idx = u32::try_from(self.backends.len()).expect("fewer than 2^32 backends");
        self.backends.push(name.to_owned());
        for v in 0..self.vnodes_per_backend {
            self.points.push((self.point_hash(name, v), idx));
        }
        self.sort_points();
    }

    /// Removes a backend and all its points. Returns whether it was
    /// present. Indices of the remaining backends are preserved, so
    /// lookups for unaffected keys return identical names.
    pub fn remove(&mut self, name: &str) -> bool {
        let Some(idx) = self.backends.iter().position(|b| b == name) else {
            return false;
        };
        let idx = u32::try_from(idx).expect("fewer than 2^32 backends");
        // Keep the slot (and thus every other backend's index) stable;
        // an emptied name can never match a future `add` of a live name.
        self.backends[idx as usize].clear();
        self.points.retain(|&(_, i)| i != idx);
        true
    }

    fn sort_points(&mut self) {
        let backends = std::mem::take(&mut self.backends);
        self.points.sort_by(|&(ha, ia), &(hb, ib)| {
            ha.cmp(&hb).then_with(|| backends[ia as usize].cmp(&backends[ib as usize]))
        });
        self.backends = backends;
    }

    /// The clockwise walk from `key`: every *distinct* backend in the
    /// order its first point appears at or after the key's hash
    /// (wrapping). The first yielded backend is the key's owner; the
    /// rest are its failover order.
    pub fn walk<'a>(&'a self, key: &str) -> impl Iterator<Item = &'a str> + 'a {
        let h = self.key_hash(key);
        let start = self.points.partition_point(|&(p, _)| p < h);
        let n = self.points.len();
        let mut seen = vec![false; self.backends.len()];
        (0..n).filter_map(move |off| {
            let (_, idx) = self.points[(start + off) % n];
            if std::mem::replace(&mut seen[idx as usize], true) {
                None
            } else {
                Some(self.backends[idx as usize].as_str())
            }
        })
    }

    /// The key's owning backend: the first backend on the clockwise walk
    /// that passes `routable`. `None` when no backend passes.
    #[must_use]
    pub fn lookup<'a>(
        &'a self,
        key: &str,
        mut routable: impl FnMut(&str) -> bool,
    ) -> Option<&'a str> {
        self.walk(key).find(|b| routable(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_deterministic_and_order_invariant() {
        let mut a = Ring::new(7, 64);
        a.add("b0");
        a.add("b1");
        a.add("b2");
        let mut b = Ring::new(7, 64);
        b.add("b2");
        b.add("b0");
        b.add("b1");
        for i in 0..500 {
            let key = format!("tenant-{i}");
            assert_eq!(a.lookup(&key, |_| true), b.lookup(&key, |_| true), "key {key}");
        }
    }

    #[test]
    fn removal_only_remaps_the_removed_backends_keys() {
        let mut ring = Ring::new(3, 64);
        for name in ["b0", "b1", "b2", "b3"] {
            ring.add(name);
        }
        let before: Vec<(String, String)> = (0..800)
            .map(|i| {
                let key = format!("tenant-{i}");
                let owner = ring.lookup(&key, |_| true).unwrap().to_owned();
                (key, owner)
            })
            .collect();
        assert!(ring.remove("b2"));
        for (key, owner) in &before {
            let now = ring.lookup(key, |_| true).unwrap();
            if owner != "b2" {
                assert_eq!(now, owner, "key {key} moved although its owner survived");
            } else {
                assert_ne!(now, "b2", "key {key} still maps to the removed backend");
            }
        }
    }

    #[test]
    fn walk_yields_each_backend_once() {
        let mut ring = Ring::new(11, 16);
        for name in ["x", "y", "z"] {
            ring.add(name);
        }
        let order: Vec<&str> = ring.walk("some-tenant").collect();
        assert_eq!(order.len(), 3);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }

    #[test]
    fn default_seed_splits_the_bench_tenants_across_two_backends() {
        // The tier tests and the CI router job run tenants "" (default
        // dataset) and "Rice" against backends named b0/b1; the
        // per-backend routed counts must both be nonzero, so the
        // defaults must split them.
        let mut ring = Ring::new(DEFAULT_RING_SEED, DEFAULT_VNODES);
        ring.add("b0");
        ring.add("b1");
        let default_owner = ring.lookup("", |_| true).unwrap().to_owned();
        let rice_owner = ring.lookup("Rice", |_| true).unwrap().to_owned();
        assert_ne!(default_owner, rice_owner, "bench tenants share a backend under the defaults");
    }

    #[test]
    fn zero_vnodes_is_coerced_to_one() {
        let mut ring = Ring::new(1, 0);
        ring.add("only");
        assert_eq!(ring.lookup("k", |_| true), Some("only"));
    }

    #[test]
    fn duplicate_add_is_a_noop() {
        let mut ring = Ring::new(1, 8);
        ring.add("a");
        let points_before = ring.points.len();
        ring.add("a");
        assert_eq!(ring.points.len(), points_before);
    }

    #[test]
    fn key_hash_depends_on_the_key_and_the_seed() {
        let a = Ring::new(7, 4);
        assert_eq!(a.key_hash("Rice"), Ring::new(7, 64).key_hash("Rice"), "vnodes do not matter");
        assert_ne!(a.key_hash("Rice"), a.key_hash("Bank"));
        assert_ne!(a.key_hash("Rice"), Ring::new(8, 4).key_hash("Rice"));
    }

    #[test]
    fn a_key_is_owned_by_the_first_point_at_or_after_its_hash() {
        let mut ring = Ring::new(3, 8);
        for name in ["b0", "b1", "b2"] {
            ring.add(name);
        }
        for i in 0..200 {
            let key = format!("tenant-{i}");
            let h = ring.key_hash(&key);
            let owner = ring
                .points
                .iter()
                .find(|&&(p, _)| p >= h)
                .or(ring.points.first())
                .map(|&(_, idx)| ring.backends[idx as usize].as_str());
            assert_eq!(ring.lookup(&key, |_| true), owner, "key {key}");
        }
    }
}
