//! Cache-backed selection serving: warm-start and churn paths over the
//! `vfps-cache` artifact store (DESIGN.md §9).
//!
//! [`select_with_digest`] is the single selection body; it keys a request
//! by a [`TenantDigest`] of the tenant's data, which a resident world
//! takes once (DESIGN.md §10), and [`select_with_cache`] is the same call
//! with the digest taken for this one request. Per request it resolves to
//! one of three paths:
//!
//! * **warm** — an exact-fingerprint entry exists: its stored similarity
//!   matrix goes straight to the selection tail
//!   ([`select_from_matrix`]). The selection is bit-identical to a cold
//!   run at the request's `count`, with zero federated work and a ledger
//!   holding only the cache hit. A stored matrix that does not fit the
//!   request (wrong shape, a non-finite or negative cell) is cache damage.
//! * **churn** — an entry exists whose consortium differs by exactly one
//!   party: its per-query `d_T^p` vectors are extended/shrunk through
//!   [`IncrementalConsortium`] (`|Q|·k` plaintext distance evaluations for
//!   a join, zero work for a leave) and re-averaged into a matrix for the
//!   same tail. Churn results are *not* stored back — the entry is an
//!   approximation for joins; the churned consortium gets its own exact
//!   entry on its first cold run.
//! * **cold** — no reusable entry: the full pipeline runs and its
//!   artifacts are stored.
//!
//! Every cache failure (unreadable file, bad checksum, undecodable
//! payload, fingerprint collision) degrades to a cold run and is surfaced
//! as a typed [`CacheError`] on the result — serving never panics on
//! cache damage, and the cold run's store overwrites the damaged file.

use vfps_cache::{ArtifactCache, CacheEntry, CacheError, CacheKey, ChurnKind, Fingerprint, Fnv128};
use vfps_net::cost::{CostModel, OpLedger};
use vfps_net::wire::{Wire, WireError};

use crate::incremental::IncrementalConsortium;
use crate::selectors::{select_from_matrix, Selection, SelectionContext, VfpsSmSelector};
use crate::submodular::Maximizer;

/// How a cached request was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// No reusable entry: full run, artifacts stored.
    Cold,
    /// Exact entry's matrix reused: bit-identical selection, zero
    /// encryptions.
    Warm,
    /// Served from a cached neighbor entry by joining this party.
    ChurnJoin(usize),
    /// Served from a cached neighbor entry by dropping this party.
    ChurnLeave(usize),
}

impl std::fmt::Display for CacheStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheStatus::Cold => f.write_str("cold"),
            CacheStatus::Warm => f.write_str("warm"),
            CacheStatus::ChurnJoin(p) => write!(f, "churn-join({p})"),
            CacheStatus::ChurnLeave(p) => write!(f, "churn-leave({p})"),
        }
    }
}

/// A selection plus how the cache served it.
///
/// Not `Clone`: the `degraded` slot may hold an `io::Error`.
#[derive(Debug)]
pub struct CachedSelection {
    /// The selection result.
    pub selection: Selection,
    /// Which serving path ran.
    pub status: CacheStatus,
    /// Hex of the request's full fingerprint.
    pub fingerprint: String,
    /// A cache failure that forced degradation to a cold run (the run
    /// itself still succeeded; the damaged entry was overwritten).
    pub degraded: Option<CacheError>,
}

/// The tenant a selection request is served under.
///
/// Single-tenant callers (the direct pipeline, CLI one-shots) use
/// [`TenantContext::single`], which pins the tenant id to the empty
/// string; the multi-tenant service tier passes each tenant's dataset
/// name. The id is folded into [`CacheKey::tenant`], so two tenants can
/// never alias, warm-serve, or churn-serve each other's artifacts even
/// over bit-identical dataset worlds.
#[derive(Clone, Copy, Debug)]
pub struct TenantContext<'a> {
    /// Tenant identity; `""` for single-tenant use.
    pub tenant: &'a str,
    /// Caller-level dataset identity: the dataset's name on the served
    /// path and the CLI, or any bytes a caller identifies its data by.
    pub dataset_tag: &'a [u8],
}

impl<'a> TenantContext<'a> {
    /// The single-tenant context: empty tenant id, caller's dataset tag.
    #[must_use]
    pub fn single(dataset_tag: &'a [u8]) -> Self {
        TenantContext { tenant: "", dataset_tag }
    }
}

/// The tenant-constant half of a [`CacheKey`]: the `dataset`, `partition`
/// and `db` digests, which depend only on the tenant's dataset tag, its
/// dataset content, its train split and its vertical partition — never on
/// the request. A resident world hashes its data once, at
/// materialization, and builds every request's key from the digest
/// ([`TenantDigest::key`]); [`cache_key`] is the same two steps done
/// from scratch, so a resident key and a from-scratch key cannot drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantDigest {
    dataset: Fingerprint,
    partition: Fingerprint,
    db: Fingerprint,
}

impl TenantDigest {
    /// Hashes the tenant's data: `tc.dataset_tag`, the dataset's name,
    /// shape, every matrix cell and every label; the partition's column
    /// groups; the train split. Adds the bytes it hashed to the
    /// `core.tenant_digest_bytes` counter.
    #[must_use]
    pub fn of(ctx: &SelectionContext<'_>, tc: &TenantContext<'_>) -> TenantDigest {
        let mut h = CountingFnv::default();
        let dataset_tag = tc.dataset_tag;
        h.update(&(dataset_tag.len() as u64).to_le_bytes());
        h.update(dataset_tag);
        h.update(&(ctx.ds.name.len() as u64).to_le_bytes());
        h.update(ctx.ds.name.as_bytes());
        h.update(&(ctx.ds.x.rows() as u64).to_le_bytes());
        h.update(&(ctx.ds.x.cols() as u64).to_le_bytes());
        for r in 0..ctx.ds.x.rows() {
            for &v in ctx.ds.x.row(r) {
                h.update(&v.to_bits().to_le_bytes());
            }
        }
        for &label in &ctx.ds.y {
            h.update(&(label as u64).to_le_bytes());
        }
        let dataset = h.finish();

        h.update(&(ctx.partition.parties() as u64).to_le_bytes());
        for group in ctx.partition.all_columns() {
            h.update(&group.to_bytes());
        }
        let partition = h.finish();

        h.update(&ctx.split.train.to_bytes());
        let db = h.finish();

        vfps_obs::counter_add("core.tenant_digest_bytes", h.bytes);
        TenantDigest { dataset, partition, db }
    }

    /// The content-addressed key identifying one selection request over
    /// this digest's tenant data. `ctx` must hold the data the digest was
    /// taken of; only its per-request parts (the seed, the cost scale and
    /// the query sample drawn from the train split) are read here.
    /// `tc.tenant` shards the keyspace per tenant.
    #[must_use]
    pub fn key(
        &self,
        sel: &VfpsSmSelector,
        ctx: &SelectionContext<'_>,
        party_set: &[usize],
        cost_model: &CostModel,
        tc: &TenantContext<'_>,
    ) -> CacheKey {
        CacheKey {
            tenant: Fnv128::of(tc.tenant.as_bytes()),
            dataset: self.dataset,
            partition: self.partition,
            db: self.db,
            queries: sel.query_rows(ctx),
            party_set: party_set.to_vec(),
            k: sel.k,
            batch: sel.batch,
            mode: sel.mode.byte(),
            // The maximizer changes the chosen set for identical artifacts, so
            // both its kind and its epsilon are part of the identity: a
            // stochastic selection must never warm-alias an exact (lazy)
            // entry, or vice versa.
            maximizer: sel.maximizer.kind(),
            maximizer_epsilon_bits: sel.maximizer.epsilon().unwrap_or(0.0).to_bits(),
            cost_scale_bits: ctx.cost_scale.to_bits(),
            cost_model: Fnv128::of(&cost_model.to_bytes()),
            seed: ctx.seed,
        }
    }
}

/// An [`Fnv128`] that counts the bytes it absorbs; `finish` hands out the
/// digest and starts the next one.
#[derive(Default)]
struct CountingFnv {
    h: Fnv128,
    bytes: u64,
}

impl CountingFnv {
    fn update(&mut self, bytes: &[u8]) {
        self.bytes += bytes.len() as u64;
        self.h.update(bytes);
    }

    fn finish(&mut self) -> Fingerprint {
        std::mem::take(&mut self.h).digest()
    }
}

/// Builds the content-addressed key identifying one selection request:
/// [`TenantDigest::of`] then [`TenantDigest::key`].
///
/// `tc.dataset_tag` carries caller-level dataset identity; the dataset's
/// actual content — every matrix cell, every label — is hashed in as
/// well, so a regenerated or edited dataset can never alias a stale
/// entry. `tc.tenant` shards the keyspace per tenant.
#[must_use]
pub fn cache_key(
    sel: &VfpsSmSelector,
    ctx: &SelectionContext<'_>,
    party_set: &[usize],
    cost_model: &CostModel,
    tc: &TenantContext<'_>,
) -> CacheKey {
    TenantDigest::of(ctx, tc).key(sel, ctx, party_set, cost_model, tc)
}

/// Runs a VFPS-SM selection through the artifact cache, hashing the
/// tenant's data for this one request: [`select_with_digest`] over
/// [`TenantDigest::of`]. See the module docs for the warm / churn / cold
/// semantics.
///
/// # Panics
/// Panics if `party_set` contains an id outside the partition.
pub fn select_with_cache(
    cache: &ArtifactCache,
    sel: &VfpsSmSelector,
    ctx: &SelectionContext<'_>,
    party_set: &[usize],
    count: usize,
    cost_model: &CostModel,
    tc: &TenantContext<'_>,
) -> CachedSelection {
    let digest = TenantDigest::of(ctx, tc);
    select_with_digest(cache, &digest, sel, ctx, party_set, count, cost_model, tc)
}

/// Runs a VFPS-SM selection through the artifact cache, keyed by a digest
/// of the tenant's data taken earlier ([`TenantDigest::of`] over the same
/// `ctx` data and `tc`): the per-request work no longer grows with the
/// dataset. See the module docs for the warm / churn / cold semantics.
///
/// # Panics
/// Panics if `party_set` contains an id outside the partition.
#[allow(clippy::too_many_arguments)]
pub fn select_with_digest(
    cache: &ArtifactCache,
    digest: &TenantDigest,
    sel: &VfpsSmSelector,
    ctx: &SelectionContext<'_>,
    party_set: &[usize],
    count: usize,
    cost_model: &CostModel,
    tc: &TenantContext<'_>,
) -> CachedSelection {
    let key = digest.key(sel, ctx, party_set, cost_model, tc);
    let fingerprint = key.fingerprint().hex();
    let mut degraded: Option<CacheError> = None;

    // Warm path: exact entry.
    match cache.lookup(&key).and_then(|hit| hit.map(|e| fitted(e, party_set.len())).transpose()) {
        Ok(Some(entry)) => {
            let mut selection = Selection {
                candidates_per_query: entry.candidates_per_query,
                ..select_from_matrix(entry.similarity, ctx, party_set, count, sel.maximizer)
            };
            selection.ledger.record_cache_hit();
            return CachedSelection {
                selection,
                status: CacheStatus::Warm,
                fingerprint,
                degraded: None,
            };
        }
        Ok(None) => {}
        Err(e) => degraded = Some(e),
    }

    // Churn path: a neighbor entry one membership change away. Corrupt
    // neighbors were already skipped inside the scan; a scan-level failure
    // (unreadable directory) just falls through to cold. Only the exact
    // maximizer (lazy) is churn-served; stochastic falls through to its
    // own cold entries.
    let churn_eligible = sel.maximizer == Maximizer::Lazy;
    let churn_hit = if churn_eligible { cache.lookup_churn(&key) } else { Ok(None) };
    if let Ok(Some((entry, kind))) = churn_hit {
        let mut ledger = OpLedger::default();
        let mut inc = IncrementalConsortium::from_outcomes(
            &entry.key.party_set,
            ctx.partition,
            &entry.key.queries,
            &entry.outcomes,
        );
        let status = match kind {
            ChurnKind::Join(p) => {
                let evals = inc.join(p, &ctx.ds.x, ctx.partition);
                ledger.record_dist(evals as u64, 1);
                CacheStatus::ChurnJoin(p)
            }
            ChurnKind::Leave(p) => {
                inc.leave(p);
                CacheStatus::ChurnLeave(p)
            }
        };
        ledger.record_cache_hit();
        let selection = Selection {
            ledger,
            ..select_from_matrix(inc.similarity_matrix(), ctx, inc.parties(), count, sel.maximizer)
        };
        return CachedSelection { selection, status, fingerprint, degraded };
    }

    // Cold path: full run, then store (overwriting any damaged file at
    // this address).
    let art = sel.run_over(ctx, party_set, count);
    let mut selection = art.selection;
    let entry = CacheEntry {
        key,
        outcomes: art.outcomes,
        similarity: art.similarity,
        chosen: selection.chosen.clone(),
        scores: selection.scores.clone(),
        candidates_per_query: selection.candidates_per_query,
        ledger: selection.ledger.clone(),
    };
    if let Err(e) = cache.store(&entry) {
        degraded = degraded.or(Some(e));
    }
    selection.ledger.record_cache_miss();
    CachedSelection { selection, status: CacheStatus::Cold, fingerprint, degraded }
}

/// `entry`, if its stored matrix fits a `parties`-member request: square,
/// one row per party, every cell finite and non-negative. A matrix that
/// does not fit is damage the checksum could not see, reported like an
/// undecodable payload.
fn fitted(entry: CacheEntry, parties: usize) -> Result<CacheEntry, CacheError> {
    let w = &entry.similarity;
    let fits = w.len() == parties
        && w.iter()
            .all(|row| row.len() == parties && row.iter().all(|&v| v.is_finite() && v >= 0.0));
    let misfit = WireError::Invalid("similarity matrix does not fit the party set");
    fits.then_some(entry).ok_or(CacheError::Corrupt(misfit))
}
