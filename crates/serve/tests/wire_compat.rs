//! Wire compatibility, proven rather than asserted.
//!
//! * **Golden bytes** — one hex vector per message type that crosses a
//!   socket or reaches disk, captured from the hand-written codecs at the
//!   commit before `wire_struct!` / `wire_enum!` replaced them. Each pins
//!   `to_bytes`, `encoded_len` and `from_bytes` at once
//!   ([`vfps_net::wire::assert_wire`]), so a macro-generated codec that
//!   moved one byte fails here before it meets an old peer or an old cache
//!   file.
//! * **Hostile bytes** — every top-level decoder is total over arbitrary
//!   input and never reserves memory the input has no bytes for.
//!
//! This crate is the one place that links every message-bearing crate, so
//! the vectors live together here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use proptest::prelude::*;
use vfps_cache::{CacheEntry, CacheKey, Fnv128};
use vfps_cluster::{ClusterMsg, ErrorFrame, SchemeSpec, SetupFrame};
use vfps_he::scheme::{AdditiveHe, PaillierHe};
use vfps_net::cost::{CostModel, OpCount, OpLedger};
use vfps_net::wire::{assert_wire, Wire, WireError};
use vfps_net::Error;
use vfps_serve::{
    BackendStatus, DrainReport, Request, Response, RouterStatusReply, SelectReply, SelectRequest,
    TenantStatus,
};
use vfps_vfl::fed_knn::{FedKnnConfig, KnnMode, QueryOutcome};
use vfps_vfl::{KnnSession, ProtoMsg};

fn select_request() -> SelectRequest {
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
        maximizer: 2,
    }
}

fn select_reply() -> SelectReply {
    SelectReply {
        request_id: 7,
        chosen: vec![1, 3],
        scores: vec![0.5, 0.25, 0.0, 0.125],
        cache_status: "churn-leave(2)".into(),
        enc_instances: 64,
        cache_hits: 1,
        cache_misses: 2,
        queue_us: 150,
        run_us: 9000,
        random_accesses: 12,
    }
}

fn tenant(dataset: &str, resident: bool) -> TenantStatus {
    TenantStatus {
        dataset: dataset.into(),
        resident,
        accepted: 12,
        completed: 10,
        failed: 1,
        rejected: 2,
        in_flight: 1,
        cache_hits: 7,
    }
}

fn setup_frame() -> SetupFrame {
    let cfg = FedKnnConfig { k: 2, mode: KnnMode::Fagin, batch: 3, cost_scale: 1.5 };
    let session = KnnSession::new(&[0, 2, 3], &[0, 1, 2, 3, 4], &[1, 4], cfg, 42);
    SetupFrame::for_slot(&session, 42, 1, SchemeSpec::paillier(128, 8, 5))
}

fn outcome() -> QueryOutcome {
    QueryOutcome { topk_rows: vec![4, 1], d_t: vec![0.5, 0.25], d_t_total: 0.75, candidates: 3 }
}

fn ledger() -> OpLedger {
    OpLedger {
        enc: OpCount { path: 3, work: 9 },
        dec: OpCount { path: 1, work: 2 },
        he_add: OpCount { path: 4, work: 8 },
        plain: OpCount { path: 5, work: 6 },
        dist: OpCount { path: 17, work: 34 },
        bytes: 4096,
        messages: 30,
        rounds: 2,
        dropouts: 1,
        cache_hits: 11,
        cache_misses: 13,
        random_accesses: 19,
    }
}

fn cache_key() -> CacheKey {
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
        maximizer: 3,
        maximizer_epsilon_bits: 0.1f64.to_bits(),
        cost_scale_bits: 1.0f64.to_bits(),
        cost_model: Fnv128::of(b"cost"),
        seed: 42,
    }
}

fn cache_entry() -> CacheEntry {
    CacheEntry {
        key: cache_key(),
        outcomes: vec![outcome()],
        similarity: vec![vec![1.0, 0.5], vec![0.5, 1.0]],
        chosen: vec![1, 0],
        scores: vec![0.75, 1.5],
        candidates_per_query: 3.5,
        ledger: ledger(),
    }
}

#[test]
fn every_request_matches_its_golden_bytes() {
    assert_wire(&Request::Select(select_request()), "0007000000000000000400000042616e6b0300000000000000000000000100000000000000030000000000000002000000000000000a000000000000002000000000000000012a00000000000000881300000000000002");
    assert_wire(&Request::Ping, "01");
    assert_wire(&Request::Shutdown, "02");
    assert_wire(&Request::ListDatasets, "03");
    assert_wire(&Request::RouterStatus, "04");
    assert_wire(&Request::DrainBackend("b1".into()), "05020000006231");
    assert_wire(
        &Request::AddBackend { name: "b2".into(), addr: "127.0.0.1:7973".into() },
        "060200000062320e0000003132372e302e302e313a37393733",
    );
}

#[test]
fn every_response_matches_its_golden_bytes() {
    assert_wire(&Response::Selected(select_reply()), "000700000000000000020000000100000000000000030000000000000004000000000000000000e03f000000000000d03f0000000000000000000000000000c03f0e000000636875726e2d6c65617665283229400000000000000001000000000000000200000000000000960000000000000028230000000000000c00000000000000");
    assert_wire(
        &Response::Busy { request_id: 9, queue_depth: 32, capacity: 33 },
        "01090000000000000020000000000000002100000000000000",
    );
    assert_wire(
        &Response::TimedOut { request_id: 11, waited_ms: 250 },
        "020b00000000000000fa00000000000000",
    );
    assert_wire(
        &Response::Rejected { request_id: 13, reason: "party 9 out of range".into() },
        "030d000000000000001400000070617274792039206f7574206f662072616e6765",
    );
    assert_wire(
        &Response::Draining(DrainReport {
            accepted: 40,
            completed: 38,
            failed: 2,
            rejected: 5,
            in_flight: 0,
            cache_hits: 30,
        }),
        "04280000000000000026000000000000000200000000000000050000000000000000000000000000001e00000000000000",
    );
    assert_wire(&Response::Pong { version: 2 }, "0502000000");
    assert_wire(
        &Response::Datasets {
            default_dataset: "Bank".into(),
            max_resident: 4,
            tenants: vec![tenant("Bank", true), tenant("Rice", false)],
        },
        "060400000042616e6b0400000000000000020000000400000042616e6b010c000000000000000a0000000000000001000000000000000200000000000000010000000000000007000000000000000400000052696365000c000000000000000a000000000000000100000000000000020000000000000001000000000000000700000000000000",
    );
    assert_wire(
        &Response::RouterStatus(RouterStatusReply {
            ring_seed: 0xF0E1,
            vnodes_per_backend: 64,
            backends: vec![BackendStatus {
                name: "b0".into(),
                addr: "127.0.0.1:7971".into(),
                state: 3,
                vnodes: 64,
                routed: 41,
                relay_errors: 1,
            }],
        }),
        "07e1f00000000000004000000000000000010000000200000062300e0000003132372e302e302e313a3739373103400000000000000029000000000000000100000000000000",
    );
}

#[test]
fn every_cluster_frame_matches_its_golden_bytes() {
    assert_wire(&setup_frame(), "010000000000000003000000000000000000000002000000000000000300000000000000050000000000000000000000010000000000000002000000000000000300000000000000040000000000000002000000010000000000000004000000000000000200000000000000010300000000000000000000000000f83f2a0000000000000001800000000000000008000000000000000500000000000000");
    assert_wire(&ClusterMsg::Setup(setup_frame()), "00010000000000000003000000000000000000000002000000000000000300000000000000050000000000000000000000010000000000000002000000000000000300000000000000040000000000000002000000010000000000000004000000000000000200000000000000010300000000000000000000000000f83f2a0000000000000001800000000000000008000000000000000500000000000000");
    assert_wire(&ClusterMsg::Ready { party_id: 7 }, "010700000000000000");
    assert_wire(
        &ClusterMsg::Routed { from: 0, to: 3, payload: vec![1, 2, 3] },
        "020000000000000000030000000000000003000000010203",
    );
    assert_wire(&ClusterMsg::Departed { node: 2, clean: false }, "03020000000000000000");
    assert_wire(&ClusterMsg::Finished { outcomes: vec![outcome()], dead_slots: vec![1] }, "0401000000020000000400000000000000010000000000000002000000000000000000e03f000000000000d03f000000000000e83f0300000000000000010000000100000000000000");
    let timeout = Error::Timeout { peer: Some(1), waited: Duration::from_millis(250) };
    assert_wire(
        &ErrorFrame::from_error(&timeout),
        "0101010000000000000080b2e60e00000000000000000000000000000000",
    );
    assert_wire(
        &ErrorFrame::from_error(&Error::violation("expected RankBatch")),
        "020000000000000000001200000065787065637465642052616e6b42617463680000000000000000",
    );
    assert_wire(
        &ClusterMsg::Failed(ErrorFrame::from_error(&Error::Killed { node: 2, op: 17 })),
        "05030102000000000000000000000000000000000000001100000000000000",
    );
    assert_wire(&ClusterMsg::Ping { nonce: 0xdead_beef }, "06efbeadde00000000");
    assert_wire(&ClusterMsg::Pong { nonce: 0xdead_beef }, "07efbeadde00000000");
    assert_wire(&SchemeSpec::plain(4), "00000000000000000004000000000000000000000000000000");
}

/// The three ciphertext-carrying variants keep the bytes the hand-written
/// codec produced. The id-carrying variants were re-declared when the
/// exchange became per-wave (ids as `u32`, a list per query): their
/// vectors are written out by hand from the frame grammar — tag, `u32`
/// little-endian counts, `u32` ids, `f64` bits — not captured from the
/// codec they pin.
#[test]
fn every_protocol_message_matches_its_golden_bytes() {
    assert_wire(&ProtoMsg::EncPartials(vec![vec![1, 2], vec![]]), "030200000002000000010200000000");
    assert_wire(&ProtoMsg::Aggregated(vec![vec![0xff; 5]]), "040100000005000000ffffffffff");
    assert_wire(
        &ProtoMsg::AggregatedPartial(vec![vec![0xaa; 4]], vec![0, 2]),
        "080100000004000000aaaaaaaa0200000000000000000000000200000000000000",
    );
    assert_wire(&ProtoMsg::NeedBatch(vec![0, 2]), "09020000000000000002000000");
    assert_wire(
        &ProtoMsg::RankBatch(vec![vec![1, 2, 3], vec![]]),
        "0a020000000300000001000000020000000300000000000000",
    );
    assert_wire(&ProtoMsg::Candidates(vec![vec![], vec![4]]), "0b02000000000000000100000004000000");
    assert_wire(&ProtoMsg::AllCandidates, "0c");
    assert_wire(&ProtoMsg::TopkIds(vec![vec![7]]), "0d010000000100000007000000");
    assert_wire(&ProtoMsg::DtSum(vec![-1.25, 0.0]), "0e02000000000000000000f4bf0000000000000000");
    assert_wire(&ProtoMsg::WaveDone, "0f");
}

/// The per-query messages' tags (0 `NeedBatch`, 1 `RankBatch`, 2
/// `Candidates`, 5 `TopkIds`, 6 `DtSum`, 7 the per-query barrier) are
/// retired, not reused: their golden frames from before no longer decode, so
/// a daemon and a hub from either side of it fail with a typed violation
/// instead of misreading each other (the party plane carries no version).
#[test]
fn retired_protocol_tags_refuse_to_decode() {
    for old_frame in [
        "00",
        "0103000000010000000000000002000000000000000300000000000000",
        "0200000000",
        "05010000000700000000000000",
        "06000000000000f4bf",
        "07",
    ] {
        let bytes: Vec<u8> = (0..old_frame.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&old_frame[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(ProtoMsg::from_bytes(&bytes), Err(WireError::BadTag(bytes[0])), "{old_frame}");
    }
}

#[test]
fn every_stored_record_matches_its_golden_bytes() {
    assert_wire(&outcome(), "020000000400000000000000010000000000000002000000000000000000e03f000000000000d03f000000000000e83f0300000000000000");
    assert_wire(&ledger(), "030000000000000009000000000000000100000000000000020000000000000004000000000000000800000000000000050000000000000006000000000000001100000000000000220000000000000000100000000000001e00000000000000020000000000000001000000000000000b000000000000000d000000000000001300000000000000");
    assert_wire(&CostModel::default(), "0000000000005e400000000000004e4000000000000014407b14ae47e17a743f7b14ae47e17a843f0000000000406f400000000000405f40000100000000000008000000000000000800000000000000");
    assert_wire(&cache_key(), "919b65c14ddb7ea8cbfdd1331f97b6dd8df74fd0163c37ddcb32e028b5e9bb9c978706a2ac457209d93b1263d4f4d803e91babd53d9580082ba8b2553073a05a05000000030000000000000001000000000000000400000000000000010000000000000005000000000000000400000000000000000000000100000000000000020000000000000003000000000000000a00000000000000640000000000000001039a9999999999b93f000000000000f03f7772757526687f69480679457be906b82a00000000000000");
    assert_wire(&cache_entry(), "919b65c14ddb7ea8cbfdd1331f97b6dd8df74fd0163c37ddcb32e028b5e9bb9c978706a2ac457209d93b1263d4f4d803e91babd53d9580082ba8b2553073a05a05000000030000000000000001000000000000000400000000000000010000000000000005000000000000000400000000000000000000000100000000000000020000000000000003000000000000000a00000000000000640000000000000001039a9999999999b93f000000000000f03f7772757526687f69480679457be906b82a0000000000000001000000020000000400000000000000010000000000000002000000000000000000e03f000000000000d03f000000000000e83f03000000000000000200000002000000000000000000f03f000000000000e03f02000000000000000000e03f000000000000f03f020000000100000000000000000000000000000002000000000000000000e83f000000000000f83f0000000000000c40030000000000000009000000000000000100000000000000020000000000000004000000000000000800000000000000050000000000000006000000000000001100000000000000220000000000000000100000000000001e00000000000000020000000000000001000000000000000b000000000000000d000000000000001300000000000000");
    // The filename a parent-written entry lives under: both digests, the
    // membership-blind one included.
    assert_eq!(
        cache_key().file_stem(),
        "e91eb700c95bbf44cbf91891696d0b4a-0e57e32692bf3c3f83519c5d75c2990e"
    );
}

// ---------------------------------------------------------------------------
// Hostile bytes
// ---------------------------------------------------------------------------

thread_local! {
    /// Bytes this thread has requested from the allocator.
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting what each thread asks it for.
struct Counting;

// SAFETY: every method forwards to `System` with its arguments unchanged,
// so `System`'s guarantees carry over; the counter is a const-initialized
// `Cell<usize>` thread-local with no destructor, so touching it here
// neither allocates nor can run after the thread's TLS teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.with(|r| r.set(r.get() + new_size));
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Decodes `bytes` as `T` (any outcome but a panic is fine) and returns
/// whether the decoder stayed inside its memory budget: 16 heap bytes per
/// input byte — the in-memory/wire ratio of the fattest element (an empty
/// `Vec<u8>` blob: 24 bytes for 4), doubled for `Vec` growth — plus a
/// constant for error strings.
fn decodes_within_budget<T: Wire>(bytes: &[u8]) -> bool {
    let before = REQUESTED.with(Cell::get);
    drop(T::from_bytes(bytes));
    REQUESTED.with(Cell::get) - before <= 16 * bytes.len() + 256
}

fn every_decoder_stays_within_budget(bytes: &[u8]) -> bool {
    decodes_within_budget::<Request>(bytes)
        && decodes_within_budget::<Response>(bytes)
        && decodes_within_budget::<ClusterMsg>(bytes)
        && decodes_within_budget::<ProtoMsg>(bytes)
        && decodes_within_budget::<SetupFrame>(bytes)
        && decodes_within_budget::<ErrorFrame>(bytes)
        && decodes_within_budget::<QueryOutcome>(bytes)
        && decodes_within_budget::<OpLedger>(bytes)
        && decodes_within_budget::<CostModel>(bytes)
        && decodes_within_budget::<CacheKey>(bytes)
        && decodes_within_budget::<CacheEntry>(bytes)
}

/// The blobs inside `EncPartials` / `Aggregated` have a decoder of their
/// own, `PaillierHe::ct_from_bytes`. Same budget — and whatever it accepts,
/// the key holder can decrypt and the server can try to add without a
/// panic, because the header was checked against the layout on the way in.
fn paillier_blob_is_harmless(bytes: &[u8]) -> bool {
    static HE: std::sync::OnceLock<PaillierHe> = std::sync::OnceLock::new();
    let he = HE.get_or_init(|| PaillierHe::generate(256, 64, 7).expect("keygen"));
    let before = REQUESTED.with(Cell::get);
    let decoded = he.ct_from_bytes(bytes);
    let within_budget = REQUESTED.with(Cell::get) - before <= 16 * bytes.len() + 256;
    if let Ok(ct) = decoded {
        drop(he.decrypt(&ct, ct.count()));
        drop(he.try_add(&ct, &ct));
    }
    within_budget
}

proptest! {
    /// Arbitrary bytes behind every plausible tag: no decoder panics, and
    /// a hostile length prefix buys no memory.
    #[test]
    fn decode_garbage_is_total(
        tag in 0u8..17,
        body in proptest::collection::vec(any::<u8>(), 0..256),
        (count, terms, groups) in (0u32..20, 0u32..20, 0u32..6),
    ) {
        prop_assert!(every_decoder_stays_within_budget(&body));
        prop_assert!(paillier_blob_is_harmless(&body));
        let mut tagged = vec![tag];
        tagged.extend_from_slice(&body);
        prop_assert!(every_decoder_stays_within_budget(&tagged));
        // Garbage behind a ciphertext header that is plausible for the
        // scheme (in range or just past it), each group length-prefixed.
        let mut blob = Vec::new();
        for word in [count, terms, groups] {
            blob.extend_from_slice(&word.to_le_bytes());
        }
        for group in body.chunks(64).take(groups as usize) {
            blob.extend_from_slice(&(group.len() as u32).to_le_bytes());
            blob.extend_from_slice(group);
        }
        prop_assert!(paillier_blob_is_harmless(&blob));
    }
}

/// The frame that used to take the leader down: an honest ciphertext whose
/// header claims 1000 summed terms.
#[test]
fn a_lying_ciphertext_header_is_a_decode_error() {
    let he = PaillierHe::generate(256, 64, 7).expect("keygen");
    let mut blob = he.ct_to_bytes(&he.encrypt(&[1.0, 2.0, 3.0]).expect("encrypt"));
    assert!(paillier_blob_is_harmless(&blob));
    assert!(he.ct_from_bytes(&blob).is_ok());
    blob[4..8].copy_from_slice(&1000u32.to_le_bytes());
    assert!(paillier_blob_is_harmless(&blob));
    assert!(he.ct_from_bytes(&blob).is_err());
}

/// The worst case spelled out: a vector header claiming as many elements
/// as the old guard allowed (8 per remaining byte), with nothing behind it.
#[test]
fn a_lying_length_prefix_reserves_nothing() {
    for tag in [3u8, 4] {
        // ProtoMsg::EncPartials / Aggregated: a `Vec<Vec<u8>>` of blobs.
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&800u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 100]);
        assert!(decodes_within_budget::<ProtoMsg>(&bytes));
    }
}

/// Well-formed frames fit the same budget, so it is not vacuous.
#[test]
fn honest_messages_fit_the_budget_too() {
    assert!(decodes_within_budget::<Response>(&Response::Selected(select_reply()).to_bytes()));
    assert!(decodes_within_budget::<ClusterMsg>(&ClusterMsg::Setup(setup_frame()).to_bytes()));
    assert!(decodes_within_budget::<CacheEntry>(&cache_entry().to_bytes()));
    let blobs = ProtoMsg::EncPartials(vec![Vec::new(); 100]);
    assert!(decodes_within_budget::<ProtoMsg>(&blobs.to_bytes()));
}
