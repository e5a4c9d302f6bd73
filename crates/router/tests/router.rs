//! In-process integration tests for the routing tier: two real daemons
//! behind one router, exercising tenant-affine relay (bit-identical to
//! direct), status/drain control, broadcast merge, relayed shutdown,
//! and failover around a dead backend.

use std::path::PathBuf;
use std::time::Duration;

use vfps_router::{Router, RouterConfig};
use vfps_serve::{Client, Response, SelectRequest, ServeConfig, Server};

/// Small-footprint daemon config (mirrors the serve tests' sizing so
/// selections take milliseconds).
fn daemon_config(cache_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        dataset: "Bank".into(),
        instances: 240,
        parties: 4,
        data_seed: 42,
        max_concurrent: 2,
        queue_capacity: 4,
        max_tenants: 4,
        default_deadline: Duration::from_secs(30),
        cache_dir,
        once: false,
        trace_out: None,
    }
}

fn spawn_daemon(
    cfg: ServeConfig,
) -> (std::net::SocketAddr, std::thread::JoinHandle<vfps_serve::DrainReport>) {
    let server = Server::bind(&cfg).expect("bind daemon");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run().expect("daemon run")))
}

/// Two daemons sharing one on-disk artifact cache (so a tenant re-routed
/// after a drain still serves warm), plus a router over them.
struct Tier {
    router_addr: std::net::SocketAddr,
    router_handle: std::thread::JoinHandle<vfps_serve::DrainReport>,
    daemon_handles: Vec<std::thread::JoinHandle<vfps_serve::DrainReport>>,
    cache_dir: PathBuf,
}

fn spawn_tier(test: &str) -> Tier {
    let cache_dir =
        std::env::temp_dir().join(format!("vfps_router_test_{test}_{}", std::process::id()));
    let (a0, h0) = spawn_daemon(daemon_config(Some(cache_dir.clone())));
    let (a1, h1) = spawn_daemon(daemon_config(Some(cache_dir.clone())));
    let cfg = RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends: vec![("b0".into(), a0.to_string()), ("b1".into(), a1.to_string())],
        // A long interval: these tests drive state transitions through
        // drain/failure paths directly, not through background pings.
        health_interval: Duration::from_secs(30),
        health_timeout: Duration::from_millis(250),
        ..RouterConfig::default()
    };
    let router = Router::bind(&cfg).expect("bind router");
    let router_addr = router.local_addr();
    let router_handle = std::thread::spawn(move || router.run().expect("router run"));
    Tier { router_addr, router_handle, daemon_handles: vec![h0, h1], cache_dir }
}

impl Tier {
    /// Shuts the whole tier down through the router and checks the
    /// merged accounting invariants, then cleans up the shared cache.
    fn shutdown(self) -> vfps_serve::DrainReport {
        let mut client = Client::connect(self.router_addr).expect("connect for shutdown");
        let merged = client.shutdown().expect("relayed shutdown");
        assert_eq!(merged.in_flight, 0, "merged drain must report zero in-flight");
        assert_eq!(
            merged.accepted,
            merged.completed + merged.failed,
            "merged accounting must balance"
        );
        let report = self.router_handle.join().expect("router thread");
        assert_eq!(report, merged, "router run() must return the reply's report");
        for h in self.daemon_handles {
            h.join().expect("daemon thread");
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        merged
    }
}

fn request(id: u64, dataset: &str, seed: u64) -> SelectRequest {
    SelectRequest {
        request_id: id,
        dataset: dataset.into(),
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

fn select_ok(client: &mut Client, req: &SelectRequest) -> vfps_serve::SelectReply {
    match client.select(req).expect("roundtrip") {
        Response::Selected(r) => r,
        other => panic!("expected Selected, got {other:?}"),
    }
}

#[test]
fn routed_replies_are_bit_identical_to_direct_daemon_replies() {
    // A reference daemon with its own private cache dir: same world
    // parameters, never touched by the router.
    let direct_cache =
        std::env::temp_dir().join(format!("vfps_router_test_direct_{}", std::process::id()));
    let (direct_addr, direct_handle) = spawn_daemon(daemon_config(Some(direct_cache.clone())));
    let tier = spawn_tier("bitident");

    let mut via_router = Client::connect(tier.router_addr).unwrap();
    let mut direct = Client::connect(direct_addr).unwrap();

    assert_eq!(via_router.ping().unwrap(), vfps_serve::PROTOCOL_VERSION);

    for (id, dataset, seed) in
        [(1u64, "", 42u64), (2, "Rice", 42), (3, "", 7), (4, "Rice", 7), (5, "", 42)]
    {
        let routed = select_ok(&mut via_router, &request(id, dataset, seed));
        let straight = select_ok(&mut direct, &request(id, dataset, seed));
        assert_eq!(routed.request_id, id);
        assert_eq!(routed.chosen, straight.chosen, "chosen set differs through the tier");
        assert_eq!(routed.scores, straight.scores, "scores differ through the tier");
    }

    // Both backends must have taken traffic: "" and "Rice" hash to
    // different ring owners under the default seed (pinned by a ring
    // unit test, re-checked here end to end).
    let status = via_router.router_status().unwrap();
    assert_eq!(status.backends.len(), 2);
    for b in &status.backends {
        assert!(b.routed > 0, "backend {} took no traffic: {status:?}", b.name);
        assert_eq!(b.relay_errors, 0);
        assert_eq!(vfps_serve::health_state_name(b.state), "healthy");
    }

    let mut d = Client::connect(direct_addr).unwrap();
    d.shutdown().unwrap();
    direct_handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&direct_cache);
    tier.shutdown();
}

/// A retired byte (mode 2 was Threshold, mode 3 NRA, maximizer 3 sieve)
/// put on the wire raw reaches a daemon through the tier and comes back
/// as that daemon's typed refusal, with the request id; a refusal is a
/// reply, not a relay error, and the tier keeps serving.
#[test]
fn a_retired_byte_is_refused_through_the_tier() {
    let tier = spawn_tier("retired");
    let mut client = Client::connect(tier.router_addr).unwrap();
    for (bad, reason) in [
        (SelectRequest { mode: 2, ..request(69, "", 42) }, "unknown KNN mode 2"),
        (SelectRequest { mode: 3, ..request(70, "", 42) }, "unknown KNN mode 3"),
        (SelectRequest { maximizer: 3, ..request(71, "Rice", 42) }, "unknown maximizer 3"),
    ] {
        match client.roundtrip(&vfps_serve::Request::Select(bad.clone())).unwrap() {
            Response::Rejected { request_id, reason: got } => {
                assert_eq!((request_id, got.as_str()), (bad.request_id, reason));
            }
            other => panic!("expected Rejected, got {other:?}"),
        }
    }
    assert_eq!(select_ok(&mut client, &request(72, "", 42)).chosen.len(), 2);
    let status = client.router_status().unwrap();
    assert!(status.backends.iter().all(|b| b.relay_errors == 0), "{status:?}");
    tier.shutdown();
}

#[test]
fn drain_reroutes_new_requests_and_keeps_serving_warm() {
    let tier = spawn_tier("drain");
    let mut client = Client::connect(tier.router_addr).unwrap();

    // Prime both tenants (cold on their ring owners, shared disk cache).
    let cold_default = select_ok(&mut client, &request(1, "", 42));
    let cold_rice = select_ok(&mut client, &request(2, "Rice", 42));

    // Find who owns "Rice" — the test ring is a faithful replica of the
    // router's (same seed, vnodes, names), which is itself the
    // cross-process determinism property in action — and drain it.
    let mut ring =
        vfps_router::Ring::new(vfps_router::DEFAULT_RING_SEED, vfps_router::DEFAULT_VNODES);
    ring.add("b0");
    ring.add("b1");
    let rice_owner = ring.lookup("Rice", |_| true).expect("nonempty ring").to_owned();
    let after = client.router_drain(&rice_owner).unwrap();
    let drained_row = after.backends.iter().find(|b| b.name == rice_owner).unwrap();
    assert_eq!(vfps_serve::health_state_name(drained_row.state), "drained");
    assert_eq!(drained_row.vnodes, 0, "a drained backend owns no vnodes");
    assert!(
        after.backends.iter().any(|b| b.state == 0 && b.vnodes > 0),
        "a healthy backend must remain: {after:?}"
    );

    // Draining twice is idempotent at the protocol level.
    let again = client.router_drain(&rice_owner).unwrap();
    assert_eq!(again.backends.iter().find(|b| b.name == rice_owner).unwrap().state, 3);

    // Unknown backends are a typed rejection, not a hangup.
    match client.router_drain("no-such-backend") {
        Err(vfps_serve::ClientError::Protocol(reason)) => {
            assert!(reason.contains("unknown backend"), "got: {reason}");
        }
        other => panic!("expected typed rejection, got {other:?}"),
    }

    // Both tenants keep working through the survivor — and because the
    // daemons share the artifact cache directory, the re-routed tenant
    // is *still warm*: zero new encryptions after the drain.
    let warm_default = select_ok(&mut client, &request(3, "", 42));
    let warm_rice = select_ok(&mut client, &request(4, "Rice", 42));
    assert_eq!(warm_default.chosen, cold_default.chosen);
    assert_eq!(warm_default.scores, cold_default.scores);
    assert_eq!(warm_rice.chosen, cold_rice.chosen);
    assert_eq!(warm_rice.scores, cold_rice.scores);
    assert_eq!(warm_rice.enc_instances, 0, "re-routed tenant must hit the shared cache warm");
    assert_eq!(warm_default.enc_instances, 0);

    // All post-drain traffic went to the survivor.
    let final_status = client.router_status().unwrap();
    let drained_routed_before =
        after.backends.iter().find(|b| b.name == rice_owner).unwrap().routed;
    let drained_routed_now =
        final_status.backends.iter().find(|b| b.name == rice_owner).unwrap().routed;
    assert_eq!(
        drained_routed_now, drained_routed_before,
        "a drained backend must take no new requests"
    );

    // Shutdown still relays to the drained backend too — its accepted
    // work must appear in the merged report (4 selections total).
    let merged = tier.shutdown();
    assert_eq!(merged.accepted, 4);
    assert_eq!(merged.completed, 4);
}

/// A drain *under load*: four clients run mixed warm / cold / churn
/// requests over both tenants, without pause, while the `Rice` owner is
/// drained. Each client keeps going for six more requests after it sees
/// the drain. Relays already on the drained backend finish there, new ones
/// re-route to the survivor, and the shared cache keeps warm and churn
/// requests free of encryptions on either side of the drain.
#[test]
fn a_drain_under_load_loses_nothing() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    const CLIENTS: usize = 4;
    const AFTER_DRAIN: usize = 6;
    const MAX_PER_CLIENT: usize = 1000;

    let tier = spawn_tier("drainload");
    let mut control = Client::connect(tier.router_addr).unwrap();
    assert_eq!(select_ok(&mut control, &request(1, "", 42)).cache_status, "cold");
    assert_eq!(select_ok(&mut control, &request(2, "Rice", 42)).cache_status, "cold");

    let status = control.router_status().unwrap();
    let mut ring = vfps_router::Ring::new(status.ring_seed, status.vnodes_per_backend);
    for b in &status.backends {
        ring.add(&b.name);
    }
    let rice_owner = ring.lookup("Rice", |_| true).expect("nonempty ring").to_owned();

    // Each client walks warm → cold → churn, alternating tenants; `Busy`
    // (the daemons queue four) is retried.
    // Clients with at least one reply: each counts once, so a fast client
    // cannot stand in for a slow one.
    let under_way = Arc::new(AtomicUsize::new(0));
    let drained = Arc::new(AtomicBool::new(false));
    let router_addr = tier.router_addr;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (under_way, drained) = (Arc::clone(&under_way), Arc::clone(&drained));
            std::thread::spawn(move || {
                let mut client = Client::connect(router_addr).unwrap();
                client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
                let mut replies = Vec::new();
                let mut after_drain = 0;
                for i in 0..MAX_PER_CLIENT {
                    let seen_drain = drained.load(Ordering::Acquire);
                    let id = 1000 + (c * MAX_PER_CLIENT + i) as u64;
                    let dataset = if (c + i) % 2 == 0 { "" } else { "Rice" };
                    let mut req = request(id, dataset, 42);
                    match i % 3 {
                        0 => {}
                        1 => req.seed = 10_000 + id,
                        _ => {
                            req.party_set.pop();
                        }
                    }
                    let reply = loop {
                        match client.select(&req).expect("load roundtrip") {
                            Response::Busy { .. } => std::thread::sleep(Duration::from_millis(5)),
                            Response::Selected(r) => break r,
                            other => panic!("request {id} failed: {other:?}"),
                        }
                    };
                    if replies.is_empty() {
                        under_way.fetch_add(1, Ordering::AcqRel);
                    }
                    replies.push((id, i % 3, reply));
                    after_drain += usize::from(seen_drain);
                    if after_drain == AFTER_DRAIN {
                        break;
                    }
                }
                replies
            })
        })
        .collect();

    // Drain once every client is under way.
    let started = std::time::Instant::now();
    while under_way.load(Ordering::Acquire) < CLIENTS {
        assert!(started.elapsed() < Duration::from_secs(60), "the load never got going");
        std::thread::sleep(Duration::from_millis(1));
    }
    let status = control.router_drain(&rice_owner).unwrap();
    drained.store(true, Ordering::Release);
    let row = status.backends.iter().find(|b| b.name == rice_owner).unwrap();
    assert_eq!(vfps_serve::health_state_name(row.state), "drained");

    // Each request got its own reply here; the merged report below shows
    // the backends executed each exactly once.
    let mut issued = 0;
    for handle in clients {
        let replies = handle.join().expect("load client panicked");
        assert!(replies.len() > AFTER_DRAIN, "a client stopped before the drain");
        issued += replies.len();
        for (id, kind, reply) in replies {
            assert_eq!(reply.request_id, id, "reply correlated to the wrong request");
            if kind != 1 {
                assert_eq!(reply.enc_instances, 0, "warm/churn request {id} encrypted");
            }
        }
    }

    // The drained backend takes nothing new; both tenants still serve warm.
    let routed = |client: &mut Client| {
        let status = client.router_status().unwrap();
        status.backends.iter().find(|b| b.name == rice_owner).unwrap().routed
    };
    let frozen = routed(&mut control);
    for (id, dataset) in [(9001u64, ""), (9002, "Rice")] {
        let reply = select_ok(&mut control, &request(id, dataset, 42));
        assert_eq!(reply.cache_status, "warm", "{dataset:?} after the drain");
        assert_eq!(reply.enc_instances, 0);
    }
    assert_eq!(routed(&mut control), frozen, "a drained backend must take no new requests");

    drop(control);
    let merged = tier.shutdown();
    let selections = (2 + issued + 2) as u64;
    assert_eq!(merged.accepted, selections, "{merged:?}");
    assert_eq!(merged.completed, selections, "{merged:?}");
}

#[test]
fn broadcast_verbs_merge_across_backends() {
    let tier = spawn_tier("merge");
    let mut client = Client::connect(tier.router_addr).unwrap();

    select_ok(&mut client, &request(1, "", 42));
    select_ok(&mut client, &request(2, "Rice", 42));

    let (default_dataset, max_resident, tenants) = client.list_datasets().unwrap();
    assert_eq!(default_dataset, "Bank");
    // Capacities add across daemons: two daemons with max_tenants 4.
    assert_eq!(max_resident, 8);
    // Each daemon reports its default "Bank" tenant; the merge folds
    // them into one row, plus the "Rice" world on its owner.
    let bank = tenants.iter().find(|t| t.dataset == "Bank").expect("merged Bank row");
    let rice = tenants.iter().find(|t| t.dataset == "Rice").expect("Rice row");
    assert_eq!(bank.completed, 1);
    assert_eq!(rice.completed, 1);
    assert!(bank.resident && rice.resident);

    let merged = tier.shutdown();
    assert_eq!(merged.accepted, 2);
}

#[test]
fn a_dead_backend_is_failed_over_at_connect_time() {
    // One real daemon and one backend address that refuses connections:
    // grab a port with a listener, then drop it.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let cache_dir =
        std::env::temp_dir().join(format!("vfps_router_test_failover_{}", std::process::id()));
    let (alive_addr, alive_handle) = spawn_daemon(daemon_config(Some(cache_dir.clone())));
    let cfg = RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends: vec![("b0".into(), alive_addr.to_string()), ("b1".into(), dead_addr.to_string())],
        health_interval: Duration::from_secs(30),
        health_timeout: Duration::from_millis(100),
        ..RouterConfig::default()
    };
    let router = Router::bind(&cfg).expect("bind router");
    let router_addr = router.local_addr();
    let router_handle = std::thread::spawn(move || router.run().expect("router run"));

    let mut client = Client::connect(router_addr).unwrap();
    // Every tenant gets an answer — whichever ring owner a key has, a
    // dead owner is skipped at connect time and the live backend serves.
    for (id, dataset) in [(1u64, ""), (2, "Rice")] {
        let reply = select_ok(&mut client, &request(id, dataset, 42));
        assert_eq!(reply.request_id, id);
    }
    let status = client.router_status().unwrap();
    let alive = status.backends.iter().find(|b| b.name == "b0").unwrap();
    assert_eq!(alive.routed, 2, "the live backend must have served both tenants");

    let merged = client.shutdown().expect("shutdown tolerates the dead backend");
    assert_eq!(merged.accepted, 2);
    router_handle.join().unwrap();
    alive_handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn a_plain_daemon_rejects_router_control() {
    let cache_dir =
        std::env::temp_dir().join(format!("vfps_router_test_notarouter_{}", std::process::id()));
    let (addr, handle) = spawn_daemon(daemon_config(Some(cache_dir.clone())));
    let mut client = Client::connect(addr).unwrap();
    match client.router_status() {
        Err(vfps_serve::ClientError::Protocol(reason)) => {
            assert!(reason.contains("not a router"), "got: {reason}");
        }
        other => panic!("expected 'not a router' rejection, got {other:?}"),
    }
    match client.router_drain("b0") {
        Err(vfps_serve::ClientError::Protocol(reason)) => {
            assert!(reason.contains("not a router"), "got: {reason}");
        }
        other => panic!("expected 'not a router' rejection, got {other:?}"),
    }
    // The connection survives the rejections.
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Satellite: a backend added over the wire while the tier serves
/// traffic joins the ring live. The test reconstructs the router's
/// deterministic ring from the status reply (seed + vnodes + names) so
/// it can pick tenants by ownership instead of hoping hashes cooperate:
/// one tenant whose owner survives the join (must stay warm on its old
/// backend) and one tenant the newcomer owns (must actually be served by
/// it). Duplicate names are rejected without disturbing the topology.
#[test]
fn a_live_added_backend_joins_the_ring_and_existing_tenants_keep_their_homes() {
    use vfps_router::Ring;

    let tier = spawn_tier("livejoin");
    let mut client = Client::connect(tier.router_addr).unwrap();

    // Rebuild the ring before and after the join, exactly as the router
    // sees it (the status reply publishes seed + vnodes for this).
    let status = client.router_status().unwrap();
    assert_eq!(status.backends.len(), 2);
    let mut before = Ring::new(status.ring_seed, status.vnodes_per_backend);
    before.add("b0");
    before.add("b1");
    let mut after = before.clone();
    after.add("b2");

    let tags = ["", "Bank", "Credit", "Phishing", "Web", "Rice", "Adult", "IJCNN"];
    let stayer = *tags
        .iter()
        .find(|t| before.lookup(t, |_| true) == after.lookup(t, |_| true))
        .expect("a join re-homes ~1/3 of the keyspace, most tenants keep their owner");
    let mover = *tags
        .iter()
        .find(|t| after.lookup(t, |_| true) == Some("b2"))
        .expect("the newcomer's vnodes must capture at least one of 8 tenant keys");
    assert_ne!(stayer, mover, "a stayer by definition is not owned by the newcomer");

    // Warm the stayer on its pre-join home.
    let cold = select_ok(&mut client, &request(1, stayer, 42));
    assert_eq!(cold.cache_status, "cold");
    let warm = select_ok(&mut client, &request(2, stayer, 42));
    assert_eq!(warm.cache_status, "warm");

    // The newcomer: a third real daemon with a *private* (memory-only)
    // cache, so anything it serves warm it must have computed itself.
    let (a2, h2) = spawn_daemon(daemon_config(None));
    let joined = client.router_add("b2", &a2.to_string()).expect("live join");
    assert_eq!(joined.backends.len(), 3, "the join is visible immediately");
    let b2 = joined.backends.iter().find(|b| b.name == "b2").expect("newcomer listed");
    assert_eq!(b2.addr, a2.to_string());
    assert_eq!(b2.vnodes, status.vnodes_per_backend, "newcomer gets a full vnode complement");
    assert_eq!(b2.routed, 0, "no traffic routed to it yet");

    // Duplicate names are config errors, not silent ring churn.
    match client.router_add("b0", "127.0.0.1:1") {
        Err(vfps_serve::ClientError::Protocol(reason)) => {
            assert!(reason.contains("duplicate") && reason.contains("b0"), "got {reason:?}");
        }
        other => panic!("expected a typed duplicate rejection, got {other:?}"),
    }
    assert_eq!(client.router_status().unwrap().backends.len(), 3);

    // The stayer kept its backend: still warm (the newcomer could not
    // serve it warm — it has never computed this tenant), same bits.
    let still = select_ok(&mut client, &request(3, stayer, 42));
    assert_eq!(still.cache_status, "warm", "an unmoved tenant must keep its warm home");
    assert_eq!(still.chosen, cold.chosen);
    assert_eq!(still.scores, cold.scores);

    // The mover lands on the newcomer — cold there, then warm *there*.
    let moved = select_ok(&mut client, &request(4, mover, 42));
    assert_eq!(moved.cache_status, "cold", "the newcomer starts with nothing");
    let moved_warm = select_ok(&mut client, &request(5, mover, 42));
    assert_eq!(moved_warm.cache_status, "warm");
    assert_eq!(moved_warm.chosen, moved.chosen);
    let after_status = client.router_status().unwrap();
    let b2 = after_status.backends.iter().find(|b| b.name == "b2").unwrap();
    assert_eq!(b2.routed, 2, "both mover requests were relayed to the newcomer");

    drop(client);
    tier.shutdown();
    h2.join().expect("joined daemon drains with the tier");
}

/// The two-hop latency floor: a warm selection through router and daemon
/// is engine work (well under a millisecond) plus four frames. At the
/// commit before the shared network edge each hop paid a 44 ms Nagle +
/// delayed-ACK stall, so the median sat near 90 ms.
#[test]
fn a_warm_request_through_the_tier_takes_milliseconds_not_a_nagle_stall() {
    let tier = spawn_tier("latency");
    let mut client = Client::connect(tier.router_addr).unwrap();
    assert_eq!(select_ok(&mut client, &request(0, "", 42)).cache_status, "cold");
    let mut rtts: Vec<Duration> = (1..=50)
        .map(|id| {
            let started = std::time::Instant::now();
            let reply = select_ok(&mut client, &request(id, "", 42));
            let rtt = started.elapsed();
            assert_eq!(reply.cache_status, "warm");
            rtt
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(median < Duration::from_millis(5), "median warm round trip {median:?} ({rtts:?})");
    drop(client);
    tier.shutdown();
}
