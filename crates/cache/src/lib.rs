//! `vfps-cache`: a content-addressed, on-disk artifact cache for selection
//! runs.
//!
//! The paper's cost story is that the federated-KNN proxy dominates
//! selection; Fagin only reduces that cost *within* one request, while a
//! production selector re-pays the full proxy on every request over an
//! unchanged consortium. This crate closes that gap: a cold run stores its
//! per-query [`QueryOutcome`](vfps_vfl::fed_knn::QueryOutcome)s, similarity
//! matrix, and greedy result under a deterministic fingerprint of every
//! selection input, so that
//!
//! * a **warm** repeat of the same request runs the selection tail on the
//!   cached similarity matrix — bit-identical result, zero new
//!   encryptions;
//! * a **churned** request (one party joined or left) reuses the cached
//!   outcomes through `IncrementalConsortium`, touching only the changed
//!   party's column;
//! * a **multi-tenant** deployment shards the store per tenant
//!   ([`ArtifactCache::open_tenant`]): each tenant id gets its own
//!   directory *and* is folded into every fingerprint
//!   ([`CacheKey::tenant`]), so tenants can never alias, warm-serve, or
//!   churn-serve each other's artifacts.
//!
//! Key derivation and the frame format are documented in DESIGN.md §9.
//! Hashing is hand-rolled FNV-1a-128 and serialization is the existing
//! [`vfps_net::wire::Wire`] codec — no new dependencies. The store bumps
//! `cache.{hit,miss,evict}` counters on the `vfps-obs` plane.
//!
//! The `cache.bytes` gauge is the byte total of **one capped shard**, as
//! the eviction pass of a store into it left that shard. Only a store
//! into a [`ArtifactCache::with_max_bytes`] cache publishes it, from the
//! directory walk the cap makes anyway; an uncapped cache (the serving
//! daemon's tenant shards) walks nothing and publishes nothing. The gauge
//! is process-global, so in a process with several capped shards it reads
//! the shard that stored last — never a sum over tenants.

#![warn(missing_docs)]

pub mod fingerprint;
pub mod store;

pub use fingerprint::{CacheKey, Fingerprint, Fnv128};
pub use store::{
    tenant_dir_name, ArtifactCache, CacheEntry, CacheError, ChurnKind, EXTENSION, MAGIC,
};
