//! In-process integration tests for the selection service: warm-path
//! serving, bit-identity with direct pipeline runs, admission-control
//! backpressure, per-request deadlines, and clean drain accounting.

use std::time::Duration;

use vfps_core::selectors::{SelectionContext, VfpsSmSelector};
use vfps_data::{prepared_sized, DatasetSpec, VerticalPartition};
use vfps_serve::{Client, ClientError, Request, Response, SelectRequest, ServeConfig, Server};
use vfps_vfl::fed_knn::KnnMode;

/// A small-footprint server config shared by the tests. `instances` is
/// shrunk well below the spec default so each selection takes
/// milliseconds, not seconds.
fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        dataset: "Bank".into(),
        instances: 240,
        parties: 4,
        data_seed: 42,
        max_concurrent: 2,
        queue_capacity: 4,
        default_deadline: Duration::from_secs(30),
        cache_dir: None,
        once: false,
        trace_out: None,
        max_tenants: 4,
    }
}

fn spawn(
    cfg: ServeConfig,
) -> (std::net::SocketAddr, std::thread::JoinHandle<vfps_serve::DrainReport>) {
    let server = Server::bind(&cfg).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("run"));
    (addr, handle)
}

fn request(id: u64, seed: u64) -> SelectRequest {
    SelectRequest {
        request_id: id,
        dataset: String::new(),
        party_set: vec![0, 1, 2, 3],
        select: 2,
        k: 10,
        query_count: 8,
        mode: 1,
        seed,
        deadline_ms: 0,
        maximizer: 0,
    }
}

/// The selection a direct (no service, no cache) pipeline run produces
/// for the same inputs the test server holds.
fn direct_run(
    seed: u64,
    party_set: &[usize],
    select: usize,
    query_count: usize,
) -> (Vec<usize>, Vec<f64>) {
    direct_run_on("Bank", seed, party_set, select, query_count)
}

/// Like [`direct_run`] but against an arbitrary dataset world with the
/// test server's sizing (240 instances, 4 parties, data seed 42).
fn direct_run_on(
    dataset: &str,
    seed: u64,
    party_set: &[usize],
    select: usize,
    query_count: usize,
) -> (Vec<usize>, Vec<f64>) {
    let spec = DatasetSpec::by_name(dataset).unwrap();
    let (ds, split) = prepared_sized(&spec, 240, 42);
    let partition = VerticalPartition::random(ds.n_features(), 4, 42);
    let ctx =
        SelectionContext { ds: &ds, split: &split, partition: &partition, cost_scale: 1.0, seed };
    let sel =
        VfpsSmSelector { k: 10, query_count, mode: KnnMode::Fagin, ..VfpsSmSelector::default() };
    let art = sel.run_over(&ctx, party_set, select);
    (art.selection.chosen, art.selection.scores)
}

#[test]
fn served_selection_is_bit_identical_to_a_direct_run_and_repeats_serve_warm() {
    let (addr, handle) = spawn(test_config());
    let mut client = Client::connect(addr).unwrap();

    // Cold request.
    let cold = match client.select(&request(1, 42)).unwrap() {
        Response::Selected(r) => r,
        other => panic!("expected Selected, got {other:?}"),
    };
    assert_eq!(cold.request_id, 1);
    assert_eq!(cold.cache_status, "cold");
    assert!(cold.enc_instances > 0, "a cold run must encrypt");

    // Bit-identity against the pipeline run directly, no service involved.
    let (chosen, scores) = direct_run(42, &[0, 1, 2, 3], 2, 8);
    assert_eq!(cold.chosen, chosen, "served chosen set must match a direct run");
    assert_eq!(cold.scores, scores, "served scores must be bit-identical to a direct run");

    // The same request again: warm path, zero new encryptions, same bits.
    let warm = match client.select(&request(2, 42)).unwrap() {
        Response::Selected(r) => r,
        other => panic!("expected Selected, got {other:?}"),
    };
    assert_eq!(warm.cache_status, "warm");
    assert_eq!(warm.enc_instances, 0, "warm serving must not encrypt");
    assert!(warm.cache_hits > 0);
    assert_eq!(warm.chosen, cold.chosen);
    assert_eq!(warm.scores, cold.scores);

    // Churn: the same run minus one party rides the incremental path.
    let mut churned = request(3, 42);
    churned.party_set = vec![0, 1, 2];
    let churn = match client.select(&churned).unwrap() {
        Response::Selected(r) => r,
        other => panic!("expected Selected, got {other:?}"),
    };
    assert_eq!(churn.cache_status, "churn-leave(3)");
    assert_eq!(churn.enc_instances, 0, "churn serving must not encrypt");

    let report = client.shutdown().unwrap();
    assert_eq!(report.in_flight, 0, "drain must leave nothing in flight");
    assert_eq!(report.completed, 3);
    assert_eq!(report.accepted, report.completed + report.failed);
    let final_report = handle.join().unwrap();
    assert_eq!(final_report.in_flight, 0);
}

#[test]
fn ping_reports_the_protocol_version() {
    let (addr, handle) = spawn(test_config());
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.ping().unwrap(), vfps_serve::PROTOCOL_VERSION);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn invalid_requests_are_rejected_with_reasons_not_hangs() {
    let (addr, handle) = spawn(test_config());
    let mut client = Client::connect(addr).unwrap();

    let cases: Vec<(SelectRequest, &str)> = vec![
        (SelectRequest { party_set: vec![0, 9], ..request(10, 1) }, "out of range"),
        (SelectRequest { party_set: vec![], ..request(11, 1) }, "empty"),
        (SelectRequest { select: 5, ..request(12, 1) }, "select 5 out of range"),
        (SelectRequest { mode: 7, ..request(13, 1) }, "unknown KNN mode"),
        (SelectRequest { k: 0, ..request(14, 1) }, "must be positive"),
        (SelectRequest { party_set: vec![1, 1, 2], ..request(15, 1) }, "duplicate"),
    ];
    for (req, needle) in cases {
        let id = req.request_id;
        // Raw frames, bypassing the client's own pre-flight: the server
        // must enforce every rule itself.
        match client.roundtrip(&Request::Select(req)).unwrap() {
            Response::Rejected { request_id, reason } => {
                assert_eq!(request_id, id);
                assert!(reason.contains(needle), "reason {reason:?} should mention {needle:?}");
            }
            other => panic!("expected Rejected for {needle:?}, got {other:?}"),
        }
    }

    let report = client.shutdown().unwrap();
    assert_eq!(report.completed, 0);
    assert_eq!(report.rejected, 6);
    assert_eq!(report.in_flight, 0);
    handle.join().unwrap();
}

#[test]
fn over_capacity_submits_get_busy_and_drain_accounts_for_everything() {
    // One worker and a tiny queue: with enough simultaneous clients, some
    // must be refused at admission with a typed Busy.
    let cfg = ServeConfig { max_concurrent: 1, queue_capacity: 2, instances: 300, ..test_config() };
    let (addr, handle) = spawn(cfg);

    const CLIENTS: usize = 10;
    let results: Vec<(u64, Response)> = {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    // Distinct seeds: all cold, so jobs are slow enough to
                    // pile up against capacity 1+2.
                    let id = 100 + i as u64;
                    let resp = client.select(&request(id, 1000 + i as u64)).unwrap();
                    (id, resp)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    };

    let mut selected = 0u64;
    let mut busy = 0u64;
    for (id, resp) in &results {
        match resp {
            Response::Selected(r) => {
                assert_eq!(r.request_id, *id, "responses must correlate to their requests");
                selected += 1;
            }
            Response::Busy { request_id, queue_depth, capacity } => {
                assert_eq!(request_id, id);
                assert_eq!(*capacity, 2);
                assert!(*queue_depth >= *capacity, "Busy must report a full queue");
                busy += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(selected + busy, CLIENTS as u64, "every client gets exactly one response");
    assert!(busy >= 1, "10 cold jobs against capacity 1+2 must trip Busy");
    // At least the queue's capacity worth of jobs is always admitted (the
    // running job may or may not have been dequeued yet when the burst
    // lands, so 2 is the guaranteed floor).
    assert!(selected >= 2, "admitted jobs must all complete");

    let mut client = Client::connect(addr).unwrap();
    let report = client.shutdown().unwrap();
    assert_eq!(report.in_flight, 0);
    assert_eq!(report.accepted, selected);
    assert_eq!(report.completed, selected);
    assert_eq!(report.rejected, busy);
    handle.join().unwrap();
}

#[test]
fn an_already_expired_deadline_is_a_typed_timeout() {
    let (addr, handle) = spawn(test_config());
    let mut client = Client::connect(addr).unwrap();

    // A 1 ms deadline on a cold selection expires while the job sits in
    // the queue behind its own admission latency.
    let mut req = request(50, 77);
    req.deadline_ms = 1;
    match client.select(&req).unwrap() {
        Response::TimedOut { request_id, .. } => assert_eq!(request_id, 50),
        // On a fast machine the worker may dequeue within 1 ms and run it
        // to completion — that is also a correct outcome.
        Response::Selected(r) => assert_eq!(r.request_id, 50),
        other => panic!("unexpected response {other:?}"),
    }

    let report = client.shutdown().unwrap();
    assert_eq!(report.in_flight, 0);
    assert_eq!(report.accepted, report.completed + report.failed);
    handle.join().unwrap();
}

/// Tentpole acceptance: one server, two dataset tenants, interleaved
/// requests. Each tenant gets its own cache shard (cold → warm with zero
/// encryptions per tenant), and every served selection is bit-identical
/// to a direct single-tenant pipeline run over that tenant's world.
#[test]
fn two_tenants_serve_concurrently_with_disjoint_warm_paths_and_bit_identity() {
    let (addr, handle) = spawn(test_config());
    let mut client = Client::connect(addr).unwrap();

    let bank_req = |id: u64| request(id, 42); // "" resolves to the default (Bank)
    let rice_req = |id: u64| SelectRequest { dataset: "Rice".into(), ..request(id, 42) };

    // Interleave cold requests: Bank, Rice. Identical (party_set, k,
    // seed, ...) tuples — only the dataset tag differs.
    let bank_cold = match client.select(&bank_req(1)).unwrap() {
        Response::Selected(r) => r,
        other => panic!("expected Selected, got {other:?}"),
    };
    let rice_cold = match client.select(&rice_req(2)).unwrap() {
        Response::Selected(r) => r,
        other => panic!("expected Selected, got {other:?}"),
    };
    assert_eq!(bank_cold.cache_status, "cold");
    assert_eq!(rice_cold.cache_status, "cold", "tenants must never alias cache entries");
    assert!(bank_cold.enc_instances > 0);
    assert!(rice_cold.enc_instances > 0);

    // Each tenant's answer matches its own direct single-tenant run.
    let (bank_chosen, bank_scores) = direct_run_on("Bank", 42, &[0, 1, 2, 3], 2, 8);
    let (rice_chosen, rice_scores) = direct_run_on("Rice", 42, &[0, 1, 2, 3], 2, 8);
    assert_eq!(bank_cold.chosen, bank_chosen);
    assert_eq!(bank_cold.scores, bank_scores);
    assert_eq!(rice_cold.chosen, rice_chosen);
    assert_eq!(rice_cold.scores, rice_scores);
    assert_ne!(
        bank_cold.scores, rice_cold.scores,
        "distinct worlds should produce distinct scores"
    );

    // Warm repeats, per tenant, still interleaved: zero new encryptions
    // and bit-identical to each tenant's own cold run.
    for (req, cold) in [(rice_req(3), &rice_cold), (bank_req(4), &bank_cold)] {
        let warm = match client.select(&req).unwrap() {
            Response::Selected(r) => r,
            other => panic!("expected Selected, got {other:?}"),
        };
        assert_eq!(warm.cache_status, "warm");
        assert_eq!(warm.enc_instances, 0, "per-tenant warm serving must not encrypt");
        assert_eq!(warm.chosen, cold.chosen);
        assert_eq!(warm.scores, cold.scores);
    }

    // Per-tenant accounting via ListDatasets: both resident, two
    // completions and a cache hit each, nothing rejected.
    let (default_dataset, max_resident, tenants) = client.list_datasets().unwrap();
    assert_eq!(default_dataset, "Bank");
    assert_eq!(max_resident, 4);
    assert_eq!(tenants.len(), 2);
    for t in &tenants {
        assert!(t.resident, "tenant {} should be resident", t.dataset);
        assert_eq!(t.accepted, 2, "tenant {}", t.dataset);
        assert_eq!(t.completed, 2, "tenant {}", t.dataset);
        assert_eq!(t.failed, 0);
        assert_eq!(t.rejected, 0);
        assert_eq!(t.in_flight, 0);
        assert!(t.cache_hits >= 1, "tenant {} warm repeat must hit its cache", t.dataset);
    }

    let report = client.shutdown().unwrap();
    assert_eq!(report.completed, 4);
    assert_eq!(report.in_flight, 0);
    handle.join().unwrap();
}

#[test]
fn unknown_dataset_tags_are_rejected_with_a_reason() {
    let (addr, handle) = spawn(test_config());
    let mut client = Client::connect(addr).unwrap();

    let req = SelectRequest { dataset: "NoSuchWorld".into(), ..request(21, 1) };
    match client.select(&req).unwrap() {
        Response::Rejected { request_id, reason } => {
            assert_eq!(request_id, 21);
            assert!(reason.contains("NoSuchWorld"), "reason {reason:?} should name the dataset");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }

    let report = client.shutdown().unwrap();
    assert_eq!(report.rejected, 1);
    assert_eq!(report.completed, 0);
    handle.join().unwrap();
}

/// Satellite: an unknown `mode` byte must die at admission with a typed
/// `Rejected`, pinned at the wire level (raw `Request::Select` frame, no
/// client-side pre-flight in the way) with the hostile byte 250.
#[test]
fn a_raw_mode_250_frame_is_rejected_at_admission_not_mapped_or_hung() {
    let (addr, handle) = spawn(test_config());
    let mut client = Client::connect(addr).unwrap();

    // The convenience path refuses to even send it...
    let bad = SelectRequest { mode: 250, ..request(30, 1) };
    match client.select(&bad) {
        Err(ClientError::InvalidRequest(msg)) => {
            assert!(msg.contains("250"), "pre-flight message should name the byte: {msg}");
        }
        other => panic!("expected InvalidRequest pre-flight, got {other:?}"),
    }

    // ...so put the frame on the wire ourselves. The server must answer
    // with a typed Rejected naming the byte — not panic, not silently
    // coerce it to some valid mode.
    let bad = SelectRequest { mode: 250, ..request(31, 1) };
    match client.roundtrip(&Request::Select(bad)).unwrap() {
        Response::Rejected { request_id, reason } => {
            assert_eq!(request_id, 31);
            assert!(reason.contains("unknown KNN mode 250"), "got reason {reason:?}");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }

    // The connection and server survive: a valid request still serves.
    match client.select(&request(32, 1)).unwrap() {
        Response::Selected(r) => assert_eq!(r.request_id, 32),
        other => panic!("expected Selected, got {other:?}"),
    }

    let report = client.shutdown().unwrap();
    assert_eq!(report.rejected, 1, "only the raw frame reaches the server's rejection path");
    assert_eq!(report.completed, 1);
    handle.join().unwrap();
}

/// Satellite: an unknown `maximizer` byte dies exactly like an unknown
/// mode byte — client pre-flight refuses it, and a raw frame bypassing
/// the pre-flight gets a typed `Rejected` at admission naming the byte.
#[test]
fn a_raw_maximizer_250_frame_is_rejected_at_admission_not_coerced_to_greedy() {
    let (addr, handle) = spawn(test_config());
    let mut client = Client::connect(addr).unwrap();

    // The convenience path refuses to even send it...
    let bad = SelectRequest { maximizer: 250, ..request(40, 1) };
    match client.select(&bad) {
        Err(ClientError::InvalidRequest(msg)) => {
            assert!(msg.contains("250"), "pre-flight message should name the byte: {msg}");
            assert!(msg.contains("maximizer"), "pre-flight message should name the field: {msg}");
        }
        other => panic!("expected InvalidRequest pre-flight, got {other:?}"),
    }

    // ...so put the frame on the wire ourselves. The server must answer
    // with a typed Rejected naming the byte — not panic, not silently
    // fall back to greedy.
    let bad = SelectRequest { maximizer: 250, ..request(41, 1) };
    match client.roundtrip(&Request::Select(bad)).unwrap() {
        Response::Rejected { request_id, reason } => {
            assert_eq!(request_id, 41);
            assert!(reason.contains("unknown maximizer 250"), "got reason {reason:?}");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }

    // Every known byte still serves, returning a full-size selection.
    for (id, m) in [(42u64, 0u8), (43, 1), (44, 2)] {
        match client.select(&SelectRequest { maximizer: m, ..request(id, 1) }).unwrap() {
            Response::Selected(r) => {
                assert_eq!(r.request_id, id);
                assert_eq!(r.chosen.len(), 2, "maximizer {m} must fill the budget");
            }
            other => panic!("expected Selected for maximizer {m}, got {other:?}"),
        }
    }

    let report = client.shutdown().unwrap();
    assert_eq!(report.rejected, 1, "only the raw frame reaches the server's rejection path");
    assert_eq!(report.completed, 3);
    handle.join().unwrap();
}

/// Byte 0 (exact greedy) and byte 1 (lazy) are served by the same
/// maximizer, so the second request is a warm hit on the first one's
/// entry, with the same bits.
#[test]
fn greedy_and_lazy_bytes_are_served_from_one_cache_entry() {
    let (addr, handle) = spawn(test_config());
    let mut client = Client::connect(addr).unwrap();
    let mut replies = Vec::new();
    for (id, m) in [(50u64, 0u8), (51, 1)] {
        match client.select(&SelectRequest { maximizer: m, ..request(id, 17) }).unwrap() {
            Response::Selected(r) => replies.push(r),
            other => panic!("expected Selected for maximizer {m}, got {other:?}"),
        }
    }
    assert_eq!(replies[0].cache_status, "cold");
    assert_eq!(replies[1].cache_status, "warm", "byte 1 must hit byte 0's entry");
    assert_eq!(replies[1].enc_instances, 0);
    assert_eq!(replies[1].chosen, replies[0].chosen);
    assert_eq!(replies[1].scores, replies[0].scores);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// A retired `byte` (mode 2 was Threshold, mode 3 NRA, maximizer 3
/// sieve) is refused by the client pre-flight and, put on the wire raw,
/// gets a typed `Rejected` naming it; the connection keeps serving.
fn assert_retired_byte_is_refused(bad: SelectRequest, field: &str, byte: u8) {
    let (addr, handle) = spawn(test_config());
    let mut client = Client::connect(addr).unwrap();
    match client.select(&bad) {
        Err(ClientError::InvalidRequest(msg)) => {
            assert!(msg.contains(&format!("unknown {field} {byte}")), "{msg}");
        }
        other => panic!("expected InvalidRequest pre-flight, got {other:?}"),
    }
    match client.roundtrip(&Request::Select(bad.clone())).unwrap() {
        Response::Rejected { request_id, reason } => {
            assert_eq!(request_id, bad.request_id);
            assert_eq!(reason, format!("unknown {field} {byte}"));
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert!(matches!(client.select(&request(62, 1)).unwrap(), Response::Selected(_)));
    let report = client.shutdown().unwrap();
    assert_eq!((report.rejected, report.completed), (1, 1));
    handle.join().unwrap();
}

#[test]
fn the_retired_nra_mode_byte_is_refused() {
    // 2 named the retired Threshold mode, 3 the retired NRA.
    for mode in [2, 3] {
        assert_retired_byte_is_refused(SelectRequest { mode, ..request(60, 1) }, "KNN mode", mode);
    }
}

#[test]
fn the_retired_sieve_maximizer_byte_is_refused() {
    assert_retired_byte_is_refused(
        SelectRequest { maximizer: 3, ..request(61, 1) },
        "maximizer",
        3,
    );
}

/// Satellite: `deadline_ms == 0` is the documented "use the server
/// default" sentinel — it must never be read as "already expired".
#[test]
fn deadline_zero_means_server_default_not_already_expired() {
    // A server whose default deadline is generous; if 0 were treated as
    // an instant deadline every request here would come back TimedOut.
    let cfg = ServeConfig { default_deadline: Duration::from_secs(60), ..test_config() };
    let (addr, handle) = spawn(cfg);
    let mut client = Client::connect(addr).unwrap();

    let req = request(40, 7);
    assert_eq!(req.deadline_ms, 0, "fixture must exercise the sentinel");
    match client.select(&req).unwrap() {
        Response::Selected(r) => assert_eq!(r.request_id, 40),
        Response::TimedOut { .. } => {
            panic!("deadline_ms == 0 was treated as already expired; it is the default sentinel")
        }
        other => panic!("unexpected response {other:?}"),
    }

    let report = client.shutdown().unwrap();
    assert_eq!(report.completed, 1);
    assert_eq!(report.failed, 0);
    handle.join().unwrap();
}

/// With `max_tenants: 1`, requesting a second dataset evicts the first
/// world — but its stats survive, and its per-tenant cache shard is on
/// disk, so a re-materialized world still serves warm.
#[test]
fn lru_eviction_keeps_stats_and_warm_paths_across_rematerialization() {
    let dir = std::env::temp_dir().join(format!("vfps-serve-lru-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig { max_tenants: 1, cache_dir: Some(dir.clone()), ..test_config() };
    let (addr, handle) = spawn(cfg);
    let mut client = Client::connect(addr).unwrap();

    // Cold run on the default (Bank) world.
    let bank_cold = match client.select(&request(1, 42)).unwrap() {
        Response::Selected(r) => r,
        other => panic!("expected Selected, got {other:?}"),
    };
    assert_eq!(bank_cold.cache_status, "cold");

    // Rice displaces Bank (residency cap 1).
    let rice = SelectRequest { dataset: "Rice".into(), ..request(2, 42) };
    match client.select(&rice).unwrap() {
        Response::Selected(r) => assert_eq!(r.request_id, 2),
        other => panic!("expected Selected, got {other:?}"),
    }
    let (_, max_resident, tenants) = client.list_datasets().unwrap();
    assert_eq!(max_resident, 1);
    let bank = tenants.iter().find(|t| t.dataset == "Bank").unwrap();
    assert!(!bank.resident, "Bank must have been evicted");
    assert_eq!(bank.completed, 1, "eviction must not lose accounting");
    assert!(tenants.iter().find(|t| t.dataset == "Rice").unwrap().resident);

    // Re-requesting Bank re-materializes the world; its tenant-sharded
    // cache is content-addressed on disk, so the repeat serves warm and
    // bit-identical even though the in-memory world was rebuilt.
    let bank_back = match client.select(&request(3, 42)).unwrap() {
        Response::Selected(r) => r,
        other => panic!("expected Selected, got {other:?}"),
    };
    assert_eq!(bank_back.cache_status, "warm");
    assert_eq!(bank_back.enc_instances, 0);
    assert_eq!(bank_back.chosen, bank_cold.chosen);
    assert_eq!(bank_back.scores, bank_cold.scores);

    let report = client.shutdown().unwrap();
    assert_eq!(report.in_flight, 0);
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn draining_server_rejects_new_submits_but_answers_admitted_ones() {
    let (addr, handle) = spawn(test_config());

    // Drain via one client...
    let mut closer = Client::connect(addr).unwrap();
    let report = closer.shutdown().unwrap();
    assert_eq!(report.in_flight, 0);
    handle.join().unwrap();

    // ...after which the listener is gone entirely.
    assert!(
        Client::connect(addr).is_err() || {
            // Accept raced the drain: an accepted-but-dead connection must
            // still fail the roundtrip rather than hang.
            let mut c = Client::connect(addr).unwrap();
            c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            c.select(&request(99, 5)).is_err()
        }
    );
}

/// Mode byte 1 (Fagin) serves end-to-end, bit-identical to a direct run,
/// and the reply's `random_accesses` is the ledger's charge: positive for
/// Fagin's phase-2 fetches, zero for Base's scan through the very same
/// server.
#[test]
fn fagin_mode_serves_with_random_access_accounting_in_the_reply() {
    let (addr, handle) = spawn(test_config());
    let mut client = Client::connect(addr).unwrap();

    let fagin = match client.select(&SelectRequest { mode: 1, ..request(40, 9) }).unwrap() {
        Response::Selected(r) => r,
        other => panic!("expected Selected, got {other:?}"),
    };
    assert!(fagin.random_accesses > 0, "Fagin must bill its random accesses in the reply");

    // Bit-identity against the pipeline run directly with the Fagin variant.
    let spec = DatasetSpec::by_name("Bank").unwrap();
    let (ds, split) = prepared_sized(&spec, 240, 42);
    let partition = VerticalPartition::random(ds.n_features(), 4, 42);
    let ctx = SelectionContext {
        ds: &ds,
        split: &split,
        partition: &partition,
        cost_scale: 1.0,
        seed: 9,
    };
    let sel =
        VfpsSmSelector { k: 10, query_count: 8, mode: KnnMode::Fagin, ..VfpsSmSelector::default() };
    let art = sel.run_over(&ctx, &[0, 1, 2, 3], 2);
    assert_eq!(fagin.chosen, art.selection.chosen, "served Fagin run must match a direct run");
    assert_eq!(fagin.scores, art.selection.scores, "served Fagin scores must be bit-identical");
    assert_eq!(
        fagin.random_accesses, art.selection.ledger.random_accesses,
        "the reply's charge must be the ledger's, not an approximation"
    );

    // Base through the very same server only scans — so the field is live
    // accounting, not a constant the reply always carries.
    let base = match client.select(&SelectRequest { mode: 0, ..request(41, 9) }).unwrap() {
        Response::Selected(r) => r,
        other => panic!("expected Selected, got {other:?}"),
    };
    assert_eq!(base.random_accesses, 0, "Base is a scan, not random access");

    let report = client.shutdown().unwrap();
    assert_eq!(report.completed, 2);
    handle.join().unwrap();
}
