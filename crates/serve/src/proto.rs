//! The vfps-serve wire protocol (DESIGN.md §10).
//!
//! Every message is one length-prefixed frame ([`vfps_net::write_frame`] /
//! [`vfps_net::read_frame`]): a `u32` little-endian payload length followed
//! by the [`Wire`](vfps_net::Wire)-encoded payload. Enums carry a leading
//! tag byte; unknown tags decode to
//! [`WireError::BadTag`](vfps_net::WireError::BadTag), never a panic.
//!
//! A connection carries any number of request/response pairs in order: the
//! client writes one [`Request`] frame and reads exactly one [`Response`]
//! frame before writing the next. There is no pipelining — admission
//! control happens server-side per request, so a client blocked behind its
//! own in-flight request is the intended backpressure.

use vfps_net::{wire_enum, wire_struct};

/// Bumped on any incompatible frame-layout change; [`Response::Pong`]
/// echoes it so clients can detect mismatched builds.
///
/// v2 (multi-tenant): [`SelectRequest`] gained the `dataset` tag and the
/// [`Request::ListDatasets`] / [`Response::Datasets`] pair. v1 `Select`
/// frames do not decode under v2 (the dataset field shifts every later
/// field); a v1 client should `Ping` first and refuse to proceed on a
/// version mismatch.
///
/// The `maximizer` byte appended to [`SelectRequest`] is v2-*compatible*:
/// it sits at the very end of the frame and decodes as trailing-optional
/// (an early-v2 frame without it reads as `0`, served by lazy greedy), so
/// the version did not bump.
///
/// The routing-tier control requests ([`Request::RouterStatus`] /
/// [`Request::DrainBackend`] / [`Request::AddBackend`] answered by
/// [`Response::RouterStatus`]) are also v2-compatible: the new request
/// tags are only ever *sent* by routing-aware clients, and a plain daemon
/// answers them with a typed [`Response::Rejected`] (`"not a router"`),
/// never a decode failure.
///
/// [`SelectReply::random_accesses`] is trailing-optional too (an old frame
/// without it decodes as `0`). Retired values of existing fields — `mode`
/// byte `3` (NRA) and `maximizer` byte `3` (sieve) — still decode; the
/// server refuses them at admission with a typed [`Response::Rejected`],
/// exactly like any unknown byte.
pub const PROTOCOL_VERSION: u32 = 2;

/// The federated-KNN variant a [`SelectRequest::mode`] byte names
/// ([`KnnMode::from_byte`](vfps_vfl::fed_knn::KnnMode::from_byte)), or
/// `None` for an unknown byte. Admission validation, job execution, and the
/// client-side pre-flight all call this, so an unknown mode can never be
/// silently coerced.
#[must_use]
pub fn knn_mode(mode: u8) -> Option<vfps_vfl::fed_knn::KnnMode> {
    vfps_vfl::fed_knn::KnnMode::from_byte(mode)
}

/// Epsilon the server attaches to the stochastic maximizer. Fixed
/// server-side (not wire-carried) so a request's cache identity stays a
/// pure function of its validated fields.
pub const SERVED_MAXIMIZER_EPSILON: f64 = 0.1;

/// The submodular maximizer a [`SelectRequest::maximizer`] byte names
/// (0 = greedy and 1 = lazy, both served by lazy greedy, whose set is
/// exact greedy's; 2 = stochastic), or `None` for an unknown byte. Mirrors [`knn_mode`]: the single mapping point that
/// admission validation, job execution, and the client pre-flight all
/// delegate to, so an unknown maximizer can never be silently coerced.
#[must_use]
pub fn maximizer(byte: u8) -> Option<vfps_core::Maximizer> {
    vfps_core::Maximizer::from_kind(byte, SERVED_MAXIMIZER_EPSILON)
}

/// One selection job, fully self-describing: the server owns the tenant
/// registry of dataset worlds, the request names its world (`dataset`) and
/// owns everything else that feeds the cache fingerprint, so equal
/// requests are served warm across connections and across client
/// processes — but never across tenants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SelectRequest {
    /// Client-chosen correlation id, echoed verbatim in every reply kind.
    pub request_id: u64,
    /// Which dataset world (tenant) serves this request. `""` selects the
    /// server's default tenant (its startup dataset); any other value must
    /// name a catalog dataset and is lazily materialized on first use.
    pub dataset: String,
    /// The consortium to select from (party ids within the tenant's
    /// partition).
    pub party_set: Vec<usize>,
    /// How many participants to keep.
    pub select: usize,
    /// Proxy-KNN neighbor count.
    pub k: usize,
    /// Similarity query sample size.
    pub query_count: usize,
    /// Federated KNN variant: 0 = Base, 1 = Fagin, 2 = Threshold (see
    /// [`knn_mode`]). Any other byte is rejected at admission with a typed
    /// [`Response::Rejected`] — it never reaches the pipeline.
    pub mode: u8,
    /// Run seed — the determinism handle: a served selection with this
    /// seed is bit-identical to a direct pipeline run with the same seed.
    pub seed: u64,
    /// Per-request deadline in milliseconds. The value `0` is a sentinel
    /// meaning "use the server's configured default deadline" — it does
    /// NOT mean "already expired"; an explicit 0 is served exactly like an
    /// omitted deadline (DESIGN.md §10).
    pub deadline_ms: u64,
    /// Submodular maximizer: 0 = greedy and 1 = lazy (one selection, one
    /// cache entry), 2 = stochastic (see [`maximizer`]). Any other byte is
    /// rejected at admission with a typed [`Response::Rejected`].
    /// Trailing-optional on the wire: an early-v2 frame that omits it
    /// decodes as 0.
    pub maximizer: u8,
}

// `maximizer` is trailing-optional: frames from early-v2 builds end at
// `deadline_ms`, and a `Select` payload is the frame's last content, so an
// empty remainder unambiguously means "field absent" = 0.
wire_struct!(SelectRequest {
    request_id, dataset, party_set, select, k, query_count, mode, seed, deadline_ms
} trailing_optional { maximizer });

/// A client-to-server frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Run (or warm-serve) one selection.
    Select(SelectRequest),
    /// Liveness / version probe.
    Ping,
    /// Drain and stop: finish in-flight jobs, reply [`Response::Draining`]
    /// with the final accounting, then exit the accept loop. A routing
    /// tier relays this to every backend and replies with the *merged*
    /// accounting.
    Shutdown,
    /// Enumerate the server's tenants (resident and evicted) with their
    /// per-tenant accounting; answered with [`Response::Datasets`]. A
    /// routing tier fans this out to every healthy backend and merges the
    /// ledgers by tenant name.
    ListDatasets,
    /// Routing-tier control: report the consistent-hash ring and the
    /// per-backend health/accounting ([`Response::RouterStatus`]). A plain
    /// daemon answers with a typed `Rejected` (`"not a router"`).
    RouterStatus,
    /// Routing-tier control: remove the named backend from the ring.
    /// In-flight requests already relayed to it still complete and their
    /// replies are still delivered; only *new* requests stop routing
    /// there. Answered with the post-drain [`Response::RouterStatus`].
    DrainBackend(String),
    /// Routing-tier control: join the backend `name=addr` to the ring
    /// live. Keys whose ring positions now land on the newcomer route
    /// there from the next request on; everything else keeps its old
    /// owner (consistent hashing moves only ~1/N of the keyspace).
    /// Answered with the post-join [`Response::RouterStatus`]; a plain
    /// daemon answers with a typed `Rejected` (`"not a router"`), and a
    /// duplicate name is a typed `Rejected`, never a ring corruption.
    AddBackend {
        /// The newcomer's ring name (must be unique on the router).
        name: String,
        /// The newcomer's socket address.
        addr: String,
    },
}

wire_enum!(Request {
    0 => Select(r),
    1 => Ping,
    2 => Shutdown,
    3 => ListDatasets,
    4 => RouterStatus,
    5 => DrainBackend(name),
    6 => AddBackend { name, addr },
});

/// The health-state byte carried by [`BackendStatus::state`], rendered for
/// humans. The single place the byte is mapped — the router's state
/// machine, the `vfps route` output, and the bench all delegate here.
#[must_use]
pub fn health_state_name(state: u8) -> &'static str {
    match state {
        0 => "healthy",
        1 => "suspect",
        2 => "down",
        3 => "drained",
        _ => "unknown",
    }
}

/// One backend daemon's row in a [`Response::RouterStatus`] reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackendStatus {
    /// The backend's ring name (stable across restarts; vnode positions
    /// hash from it).
    pub name: String,
    /// The backend's socket address.
    pub addr: String,
    /// Health state: 0 = healthy, 1 = suspect, 2 = down, 3 = drained (see
    /// [`health_state_name`]).
    pub state: u8,
    /// Virtual nodes this backend owns on the ring.
    pub vnodes: u64,
    /// Select requests relayed to this backend over the router's lifetime.
    pub routed: u64,
    /// Relays that failed transport-side (the client got a typed
    /// rejection carrying the taxonomy, never silence).
    pub relay_errors: u64,
}

wire_struct!(BackendStatus { name, addr, state, vnodes, routed, relay_errors });

/// The routing tier's self-description: ring parameters plus one
/// [`BackendStatus`] row per configured backend, in configuration order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouterStatusReply {
    /// Seed the ring's vnode positions hash from; two routers with the
    /// same seed, vnode count, and backend names route identically.
    pub ring_seed: u64,
    /// Virtual nodes per backend.
    pub vnodes_per_backend: u64,
    /// Every configured backend, including drained and down ones.
    pub backends: Vec<BackendStatus>,
}

wire_struct!(RouterStatusReply { ring_seed, vnodes_per_backend, backends });

/// One tenant's accounting snapshot in a [`Response::Datasets`] reply.
/// Counters are lifetime totals — they survive LRU eviction of the
/// tenant's materialized world and resume when it is rebuilt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantStatus {
    /// The tenant's dataset name.
    pub dataset: String,
    /// Whether the dataset world is currently materialized in memory.
    pub resident: bool,
    /// Select requests admitted for this tenant.
    pub accepted: u64,
    /// Admitted requests completed with [`Response::Selected`].
    pub completed: u64,
    /// Admitted requests that failed (deadline expiry, panics).
    pub failed: u64,
    /// Requests refused for this tenant (busy or rejected).
    pub rejected: u64,
    /// This tenant's jobs currently queued or running.
    pub in_flight: u64,
    /// Cache hits billed across this tenant's completed requests.
    pub cache_hits: u64,
}

wire_struct!(TenantStatus {
    dataset,
    resident,
    accepted,
    completed,
    failed,
    rejected,
    in_flight,
    cache_hits
});

/// A completed selection, with enough accounting for the client to verify
/// warm-path behavior (`enc_instances == 0`, `cache_hits > 0`) without
/// access to the server's trace.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectReply {
    /// Echo of [`SelectRequest::request_id`].
    pub request_id: u64,
    /// The chosen sub-consortium, in selection order.
    pub chosen: Vec<usize>,
    /// Full-width per-party marginal-gain scores.
    pub scores: Vec<f64>,
    /// Which cache path served it (`cold`, `warm`, `churn-join(p)`,
    /// `churn-leave(p)`, `bypass`), as rendered by
    /// [`vfps_core::CacheStatus`]'s `Display`.
    pub cache_status: String,
    /// Instances encrypted while serving this request (0 on a warm hit).
    pub enc_instances: u64,
    /// Cache hits billed to this request's ledger.
    pub cache_hits: u64,
    /// Cache misses billed to this request's ledger.
    pub cache_misses: u64,
    /// Microseconds the request waited in the admission queue.
    pub queue_us: u64,
    /// Microseconds the selection itself ran.
    pub run_us: u64,
    /// Random (by-id) accesses the fed-KNN runs charged while serving this
    /// request: 0 for Base, which only scans; Fagin's phase-2 fetches and
    /// Threshold's per-candidate probes otherwise. Trailing-optional on the
    /// wire: a frame from a build without it decodes as 0.
    pub random_accesses: u64,
}

// `random_accesses` is trailing-optional: a `Selected` payload is the
// frame's last content, so an empty remainder means "field absent" = 0.
wire_struct!(SelectReply {
    request_id, chosen, scores, cache_status, enc_instances, cache_hits, cache_misses, queue_us, run_us
} trailing_optional { random_accesses });

/// Final accounting returned by a graceful drain. After a clean drain
/// `in_flight` is 0 and `accepted == completed + failed`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct DrainReport {
    /// Select requests admitted to the queue over the server's lifetime.
    pub accepted: u64,
    /// Admitted requests that completed with a [`Response::Selected`].
    pub completed: u64,
    /// Admitted requests that failed (deadline expiry, invalid inputs).
    pub failed: u64,
    /// Requests refused at admission with [`Response::Busy`].
    pub rejected: u64,
    /// Jobs still running or queued at report time (0 after a drain).
    pub in_flight: u64,
    /// Total cache hits billed across all completed requests.
    pub cache_hits: u64,
}

wire_struct!(DrainReport { accepted, completed, failed, rejected, in_flight, cache_hits });

/// A server-to-client frame. Every request gets exactly one response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The selection result.
    Selected(SelectReply),
    /// Admission control refused the request: the queue is full. The
    /// client may retry; nothing was enqueued.
    Busy {
        /// Echo of the request id.
        request_id: u64,
        /// Queue depth observed at rejection.
        queue_depth: u64,
        /// The server's configured queue capacity.
        capacity: u64,
    },
    /// The request was admitted but its deadline expired before a worker
    /// could finish (or start) it.
    TimedOut {
        /// Echo of the request id.
        request_id: u64,
        /// How long the request waited before expiry, in milliseconds.
        waited_ms: u64,
    },
    /// The request was malformed for this server (party id out of range,
    /// `select` out of range, unknown mode...). Not retryable as-is.
    Rejected {
        /// Echo of the request id.
        request_id: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// Reply to [`Request::Shutdown`] after in-flight work finished.
    Draining(DrainReport),
    /// Reply to [`Request::Ping`].
    Pong {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Reply to [`Request::ListDatasets`].
    Datasets {
        /// The dataset a `""` request tag resolves to.
        default_dataset: String,
        /// How many tenant worlds the registry keeps materialized at once.
        /// A routing tier reports the *sum* across its healthy backends.
        max_resident: u64,
        /// Every tenant ever served, in first-seen order.
        tenants: Vec<TenantStatus>,
    },
    /// Reply to [`Request::RouterStatus`] and [`Request::DrainBackend`].
    RouterStatus(RouterStatusReply),
}

wire_enum!(Response {
    0 => Selected(r),
    1 => Busy { request_id, queue_depth, capacity },
    2 => TimedOut { request_id, waited_ms },
    3 => Rejected { request_id, reason },
    4 => Draining(r),
    5 => Pong { version },
    6 => Datasets { default_dataset, max_resident, tenants },
    7 => RouterStatus(r),
});

impl Response {
    /// The connection-level reject — an undecodable frame, a reply too
    /// large to frame, a control verb this endpoint refuses: there is no
    /// request id to echo, so it carries id 0.
    #[must_use]
    pub fn connection_reject(reason: String) -> Response {
        Response::Rejected { request_id: 0, reason }
    }
}

/// The id a reply answers, across every response kind (`None` for the
/// connection-level [`Response::Draining`] / [`Response::Pong`]).
#[must_use]
pub fn response_request_id(r: &Response) -> Option<u64> {
    match r {
        Response::Selected(s) => Some(s.request_id),
        Response::Busy { request_id, .. }
        | Response::TimedOut { request_id, .. }
        | Response::Rejected { request_id, .. } => Some(*request_id),
        Response::Draining(_)
        | Response::Pong { .. }
        | Response::Datasets { .. }
        | Response::RouterStatus(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfps_net::wire::{Wire, WireError};

    fn sample_request() -> SelectRequest {
        SelectRequest {
            request_id: 7,
            dataset: "Bank".into(),
            party_set: vec![0, 1, 3],
            select: 2,
            k: 10,
            query_count: 32,
            mode: 1,
            seed: 42,
            deadline_ms: 5000,
            maximizer: 0,
        }
    }

    #[test]
    fn knn_mode_maps_exactly_three_bytes() {
        use vfps_vfl::fed_knn::KnnMode;
        assert_eq!(knn_mode(0), Some(KnnMode::Base));
        assert_eq!(knn_mode(1), Some(KnnMode::Fagin));
        assert_eq!(knn_mode(2), Some(KnnMode::Threshold));
        for bad in [3u8, 4, 100, 250, 255] {
            assert_eq!(knn_mode(bad), None, "mode {bad} must not map");
        }
    }

    #[test]
    fn maximizer_maps_exactly_three_bytes() {
        use vfps_core::Maximizer;
        assert_eq!(maximizer(0), Some(Maximizer::Lazy));
        assert_eq!(maximizer(1), Some(Maximizer::Lazy));
        assert_eq!(maximizer(2), Some(Maximizer::Stochastic { epsilon: SERVED_MAXIMIZER_EPSILON }));
        for bad in [3u8, 4, 100, 250, 255] {
            assert_eq!(maximizer(bad), None, "maximizer {bad} must not map");
        }
    }

    #[test]
    fn a_reply_frame_without_the_random_accesses_field_decodes_as_zero() {
        // Re-encode a reply the way an older build did: every field up to
        // and including run_us, nothing after.
        let want = SelectReply {
            request_id: 21,
            chosen: vec![0, 2],
            scores: vec![1.0, 0.5, 0.25],
            cache_status: "cold".into(),
            enc_instances: 64,
            cache_hits: 0,
            cache_misses: 1,
            queue_us: 80,
            run_us: 4200,
            random_accesses: 0,
        };
        let mut old_frame = Vec::new();
        want.request_id.encode(&mut old_frame);
        want.chosen.encode(&mut old_frame);
        want.scores.encode(&mut old_frame);
        want.cache_status.encode(&mut old_frame);
        want.enc_instances.encode(&mut old_frame);
        want.cache_hits.encode(&mut old_frame);
        want.cache_misses.encode(&mut old_frame);
        want.queue_us.encode(&mut old_frame);
        want.run_us.encode(&mut old_frame);
        assert_eq!(old_frame.len() + 8, want.encoded_len(), "one trailing u64");

        let got = SelectReply::from_bytes(&old_frame).unwrap();
        assert_eq!(got, want, "absent field must read as 0 random accesses");

        // And inside a tagged Response frame too (the shape on the socket).
        let mut tagged = vec![0u8];
        tagged.extend_from_slice(&old_frame);
        assert_eq!(Response::from_bytes(&tagged).unwrap(), Response::Selected(want));
    }

    #[test]
    fn an_early_v2_frame_without_the_maximizer_byte_decodes_as_zero() {
        // Re-encode a request the way an early-v2 build did: every field
        // up to and including deadline_ms, nothing after.
        let want = sample_request();
        let mut old_frame = Vec::new();
        want.request_id.encode(&mut old_frame);
        want.dataset.encode(&mut old_frame);
        want.party_set.encode(&mut old_frame);
        want.select.encode(&mut old_frame);
        want.k.encode(&mut old_frame);
        want.query_count.encode(&mut old_frame);
        want.mode.encode(&mut old_frame);
        want.seed.encode(&mut old_frame);
        want.deadline_ms.encode(&mut old_frame);
        assert_eq!(old_frame.len() + 1, want.encoded_len(), "one trailing byte");

        let got = SelectRequest::from_bytes(&old_frame).unwrap();
        assert_eq!(got, want, "absent byte must read as 0");

        // And inside a tagged Request frame too (the shape on the socket).
        let mut tagged = vec![0u8];
        tagged.extend_from_slice(&old_frame);
        assert_eq!(Request::from_bytes(&tagged).unwrap(), Request::Select(want));
    }

    #[test]
    fn health_state_bytes_have_stable_names() {
        assert_eq!(health_state_name(0), "healthy");
        assert_eq!(health_state_name(1), "suspect");
        assert_eq!(health_state_name(2), "down");
        assert_eq!(health_state_name(3), "drained");
        assert_eq!(health_state_name(250), "unknown");
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        assert!(matches!(Request::from_bytes(&[9]), Err(WireError::BadTag(9))));
        assert!(matches!(Response::from_bytes(&[250]), Err(WireError::BadTag(250))));
    }

    #[test]
    fn request_ids_are_extracted_from_every_reply_kind() {
        assert_eq!(
            response_request_id(&Response::Busy { request_id: 4, queue_depth: 1, capacity: 1 }),
            Some(4)
        );
        assert_eq!(response_request_id(&Response::Pong { version: 1 }), None);
    }

    #[test]
    fn a_connection_reject_answers_no_request() {
        let r = Response::connection_reject("frame too large".into());
        assert_eq!(r, Response::Rejected { request_id: 0, reason: "frame too large".into() });
        assert_eq!(response_request_id(&r), Some(0));
        let bytes = r.to_bytes();
        assert_eq!(bytes[0], 3, "the Rejected tag");
        assert_eq!(Response::from_bytes(&bytes).unwrap(), r);
    }
}
