//! End-to-end tests for the real-socket party plane: daemons on localhost
//! TCP, coordinator hub as node 0, pinned against the simulated backend.

use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use vfps_cluster::{
    ping_party, run_cluster_knn, ClusterMsg, HubOptions, PartyConfig, SchemeSpec, SetupFrame,
};
use vfps_data::VerticalPartition;
use vfps_he::scheme::{seeded_uniform, AdditiveHe, PaillierHe, PlainHe};
use vfps_ml::linalg::Matrix;
use vfps_net::wire::Wire;
use vfps_net::{Conn, FaultPlan};
use vfps_vfl::fed_knn::{FedKnn, FedKnnConfig, KnnMode};
use vfps_vfl::{run_threaded_knn_faulted, FaultedRun, KnnSession, ProtoMsg};

fn toy() -> (Matrix, VerticalPartition) {
    let x = Matrix::from_rows(&[
        vec![0.0, 0.0, 0.0, 0.0, 0.1, 0.0],
        vec![0.1, 0.0, 0.1, 0.0, 0.0, 0.1],
        vec![0.0, 0.2, 0.0, 0.1, 0.0, 0.0],
        vec![5.0, 5.0, 5.0, 5.0, 5.1, 5.0],
        vec![5.1, 5.0, 4.9, 5.0, 5.0, 5.2],
        vec![5.0, 5.2, 5.0, 5.1, 5.0, 4.9],
        vec![2.5, 2.5, 2.5, 2.5, 2.5, 2.5],
        vec![9.0, 9.0, 9.0, 9.0, 9.0, 9.0],
    ]);
    (x, VerticalPartition::even(6, 3))
}

/// Spawns one in-process party daemon on an ephemeral port.
fn spawn_party(
    x: &Matrix,
    partition: &VerticalPartition,
    cfg: PartyConfig,
    sessions: usize,
) -> (String, JoinHandle<vfps_cluster::PartyReport>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind daemon");
    let addr = listener.local_addr().unwrap().to_string();
    let x = x.clone();
    let partition = partition.clone();
    let handle = std::thread::spawn(move || {
        let cfg = PartyConfig { max_sessions: Some(sessions), ..cfg };
        serve(&listener, &x, &partition, &cfg)
    });
    (addr, handle)
}

fn serve(
    listener: &TcpListener,
    x: &Matrix,
    partition: &VerticalPartition,
    cfg: &PartyConfig,
) -> vfps_cluster::PartyReport {
    vfps_cluster::serve_party(listener, x, partition, cfg).expect("daemon accept loop")
}

fn fast_opts() -> HubOptions {
    HubOptions {
        connect_timeout: Duration::from_millis(500),
        connect_budget: 10,
        connect_backoff: Duration::from_millis(20),
        io_timeout: Duration::from_secs(20),
        result_timeout: Duration::from_secs(20),
    }
}

/// The acceptance pin: selection inputs computed over three real daemons
/// on localhost TCP are bit-identical — outcomes *and* logical traffic
/// totals — to the simulated cluster with the same seed, for both
/// protocol modes. Paillier aggregation is exact modular arithmetic, so
/// message arrival order cannot perturb the result.
#[test]
fn three_daemons_over_tcp_match_the_sim_bit_identically() {
    let (x, part) = toy();
    let db: Vec<usize> = (0..8).collect();
    let queries = vec![0usize, 3, 6];
    let parties = vec![0usize, 1, 2];
    let he = Arc::new(PaillierHe::generate(128, 8, 5).unwrap());
    let scheme = SchemeSpec::paillier(128, 8, 5);

    for mode in [KnnMode::Base, KnnMode::Fagin] {
        let cfg = FedKnnConfig { k: 3, mode, batch: 2, cost_scale: 1.0 };
        let sim = run_threaded_knn_faulted(
            &he,
            &x,
            &part,
            &parties,
            &db,
            &queries,
            cfg,
            77,
            &FaultPlan::default(),
        );
        let FaultedRun::Complete(sim) = sim else { panic!("sim run not complete") };

        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for &p in &parties {
            let (addr, h) = spawn_party(&x, &part, PartyConfig::new(p), 1);
            addrs.push(addr);
            handles.push(h);
        }
        let session = KnnSession::new(&parties, &db, &queries, cfg, 77);
        let report =
            run_cluster_knn(&he, &session, 77, scheme, &addrs, &fast_opts()).expect("tcp setup");
        let FaultedRun::Complete(tcp) = report.run else {
            panic!("{mode:?}: tcp run not complete: {:?}", report.run)
        };

        // Bit-identical per-query outcomes: top-k rows in order, exact
        // f64 d_t entries, candidate counts.
        assert_eq!(tcp.outcomes, sim.outcomes, "{mode:?}: outcomes diverge across backends");
        // Message-for-message the same transcript. (Byte totals are pinned
        // in the PlainHe test below: Paillier ciphertext serialization is
        // noise-dependent in length, so byte equality across independently
        // seeded noise pools is not a protocol property.)
        assert_eq!(tcp.total_messages, sim.total_messages, "{mode:?}: message totals diverge");
        assert!(tcp.dropouts.is_empty());
        assert_eq!(report.stats.kills_observed, 0);
        assert_eq!(report.stats.connects, 3);
        for h in handles {
            let r = h.join().unwrap();
            assert_eq!(r.sessions, 1);
            assert!(!r.killed);
        }
    }
}

/// With PlainHe's fixed-width ciphertext serialization the TCP transcript
/// is *byte*-identical to the simulated ledger. Two parties keep f64
/// aggregation arrival-order-exact.
#[test]
fn plain_two_party_transcript_is_byte_identical_to_the_ledger() {
    let (x, part) = toy();
    let db: Vec<usize> = (0..8).collect();
    let queries = vec![1usize, 4];
    let parties = vec![0usize, 1];
    let he = Arc::new(PlainHe::new(4));

    for mode in [KnnMode::Base, KnnMode::Fagin] {
        let cfg = FedKnnConfig { k: 2, mode, batch: 3, cost_scale: 1.0 };
        let sim = run_threaded_knn_faulted(
            &he,
            &x,
            &part,
            &parties,
            &db,
            &queries,
            cfg,
            13,
            &FaultPlan::default(),
        );
        let FaultedRun::Complete(sim) = sim else { panic!("sim run not complete") };

        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for &p in &parties {
            let (addr, h) = spawn_party(&x, &part, PartyConfig::new(p), 1);
            addrs.push(addr);
            handles.push(h);
        }
        let session = KnnSession::new(&parties, &db, &queries, cfg, 13);
        let report = run_cluster_knn(&he, &session, 13, SchemeSpec::plain(4), &addrs, &fast_opts())
            .expect("tcp setup");
        let FaultedRun::Complete(tcp) = report.run else {
            panic!("{mode:?}: tcp run not complete: {:?}", report.run)
        };
        assert_eq!(tcp.outcomes, sim.outcomes, "{mode:?}: outcomes diverge");
        assert_eq!(tcp.total_bytes, sim.total_bytes, "{mode:?}: byte totals diverge");
        assert_eq!(tcp.total_messages, sim.total_messages, "{mode:?}: message totals diverge");
        for h in handles {
            h.join().unwrap();
        }
    }
}

/// Where `k` reaches the database, three daemons over TCP return what the
/// logical engine does: the `k` nearest *other* rows, bit-equal `d_t`
/// (every entry finite) and the same candidate count.
#[test]
fn tcp_agrees_with_the_logical_engine_when_k_reaches_the_database() {
    let (x, part) = toy();
    let db: Vec<usize> = (0..8).collect();
    let queries = vec![0usize, 6];
    let parties = vec![0usize, 1, 2];
    let he = Arc::new(PaillierHe::generate(128, 8, 5).unwrap());
    let cfg = FedKnnConfig { k: db.len(), mode: KnnMode::Fagin, batch: 2, cost_scale: 1.0 };

    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for &p in &parties {
        let (addr, h) = spawn_party(&x, &part, PartyConfig::new(p), 1);
        addrs.push(addr);
        handles.push(h);
    }
    let session = KnnSession::new(&parties, &db, &queries, cfg, 21);
    let scheme = SchemeSpec::paillier(128, 8, 5);
    let report =
        run_cluster_knn(&he, &session, 21, scheme, &addrs, &fast_opts()).expect("tcp setup");
    let FaultedRun::Complete(tcp) = report.run else {
        panic!("tcp run not complete: {:?}", report.run)
    };
    let engine = FedKnn::new(&x, &part, &parties, &db, cfg);
    let mut ledger = vfps_net::cost::OpLedger::default();
    let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
    for (&q, got) in queries.iter().zip(&tcp.outcomes) {
        let want = engine.query(q, &mut ledger);
        assert_eq!(got.topk_rows, want.topk_rows, "q{q}");
        assert!(!got.topk_rows.contains(&q), "q{q} lists itself: {:?}", got.topk_rows);
        assert_eq!(bits(&got.d_t), bits(&want.d_t), "q{q}");
        assert!(got.d_t.iter().all(|d| d.is_finite()), "q{q}: {:?}", got.d_t);
        assert_eq!(got.candidates, want.candidates, "q{q}");
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// A non-leader daemon dying abruptly mid-protocol (socket dropped, no
/// terminal frame — the SIGKILL signature) degrades the run over the
/// survivors, wave by wave: the wave it dies in runs without it, the wave
/// before keeps its contribution.
#[test]
fn abrupt_nonleader_death_degrades_over_survivors() {
    // Enough rows that a dozen queries need two waves.
    let (rows, cols) = (1024usize, 6usize);
    let x = Matrix::from_vec(rows, cols, seeded_uniform(0xab0, rows * cols, 0.0, 1.0));
    let part = VerticalPartition::even(cols, 3);
    let db: Vec<usize> = (0..rows).collect();
    let parties = vec![0usize, 1, 2];
    // Real ciphertexts: the degraded wave has the server aggregate two of
    // three parties' Paillier blobs and the leader decrypt the partial sum.
    let he = Arc::new(PaillierHe::generate(128, 8, 6).unwrap());
    let scheme = SchemeSpec::paillier(128, 8, 6);
    let cfg = FedKnnConfig { k: 2, mode: KnnMode::Fagin, batch: 64, cost_scale: 1.0 };
    let wave = KnnSession::new(&parties, &db, &[], cfg, 9).wave_len();
    let queries: Vec<usize> = (0..wave + 2).map(|q| q * 11).collect();

    let run = |queries: &[usize], kill_after_ops: Option<u64>| {
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for &p in &parties {
            let mut pc = PartyConfig::new(p);
            if p == 2 {
                pc.kill_after_ops = kill_after_ops;
            }
            let (addr, h) = spawn_party(&x, &part, pc, 1);
            addrs.push(addr);
            handles.push(h);
        }
        let session = KnnSession::new(&parties, &db, queries, cfg, 9);
        let report =
            run_cluster_knn(&he, &session, 9, scheme, &addrs, &fast_opts()).expect("tcp setup");
        let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (report, reports)
    };

    // The first wave alone, fault-free: every frame slot 2 sends answers
    // one it received (or the other way round), so its channel ops there
    // are twice its frames.
    let (first_wave, _) = run(&queries[..wave], None);
    assert!(matches!(first_wave.run, FaultedRun::Complete(_)), "got {:?}", first_wave.run);
    let first_wave_ops = 2 * first_wave.stats.per_party[2].frames_in;

    // Slot 2 (node 3) dies in the second wave's Fagin stream, one answered
    // `NeedBatch` in.
    let (report, daemons) = run(&queries, Some(first_wave_ops + 2));
    let FaultedRun::Degraded(run) = report.run else {
        panic!("expected degraded run, got {:?}", report.run)
    };
    assert_eq!(run.dropouts, vec![3], "only node 3 died");
    assert_eq!(run.outcomes.len(), queries.len(), "leader finished the batch");
    for (q, o) in run.outcomes.iter().enumerate() {
        if q < wave {
            assert!(o.d_t[2] > 0.0, "query {q}: the wave before the death is intact");
        } else {
            assert_eq!(o.d_t[2], 0.0, "query {q}: zero-filled for the whole wave of the death");
        }
        assert!(o.d_t[0] > 0.0 && o.d_t[1] > 0.0, "query {q}: the survivors contribute");
        assert_eq!(o.topk_rows.len(), cfg.k, "query {q} still answers");
    }
    assert_eq!(report.stats.kills_observed, 1);
    assert_eq!(
        daemons.iter().map(|r| r.killed).collect::<Vec<_>>(),
        vec![false, false, true],
        "the kill knob fired on slot 2 only"
    );

    // The in-process cluster with node 3 killed at the same channel op
    // decrypts the same partial aggregates: Paillier sums are exact, so
    // every outcome is equal to the bit.
    let faults = FaultPlan::new().kill_at(3, first_wave_ops + 2);
    let sim = run_threaded_knn_faulted(&he, &x, &part, &parties, &db, &queries, cfg, 9, &faults);
    let FaultedRun::Degraded(sim) = sim else { panic!("expected degraded sim run, got {sim:?}") };
    assert_eq!(sim.dropouts, run.dropouts);
    assert_eq!(sim.outcomes, run.outcomes, "sim and TCP degrade to the same outcomes");
}

/// Killing the leader aborts the run with the same typed error the
/// in-process suite pins: a hangup of node 1 (nothing can be decrypted).
#[test]
fn abrupt_leader_death_aborts_with_typed_hangup() {
    let (x, part) = toy();
    let db: Vec<usize> = (0..8).collect();
    let queries = vec![0usize];
    let parties = vec![0usize, 1, 2];
    let he = Arc::new(PaillierHe::generate(128, 8, 7).unwrap());
    let cfg = FedKnnConfig { k: 2, mode: KnnMode::Base, batch: 2, cost_scale: 1.0 };

    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for &p in &parties {
        let mut pc = PartyConfig::new(p);
        if p == 0 {
            // Slot 0 = node 1 = the leader: die before doing anything.
            pc.kill_after_ops = Some(0);
        }
        let (addr, h) = spawn_party(&x, &part, pc, 1);
        addrs.push(addr);
        handles.push(h);
    }
    let session = KnnSession::new(&parties, &db, &queries, cfg, 4);
    let report =
        run_cluster_knn(&he, &session, 4, SchemeSpec::paillier(128, 8, 7), &addrs, &fast_opts())
            .expect("tcp setup");
    let FaultedRun::Aborted { error, dropouts } = report.run else {
        panic!("expected aborted run, got {:?}", report.run)
    };
    assert!(error.is_hangup_of(1), "leader death is a hangup of node 1, got {error}");
    assert!(dropouts.contains(&1), "dropouts {dropouts:?} name the leader");
    assert!(report.stats.kills_observed >= 1);
    for h in handles {
        h.join().unwrap();
    }
}

/// The idempotent probe reconnects within its budget against a live
/// daemon and reports a typed I/O failure once the budget is spent
/// against a dead address.
#[test]
fn ping_is_idempotent_and_budget_bounded() {
    let (x, part) = toy();
    let (addr, handle) = spawn_party(&x, &part, PartyConfig::new(0), 1);
    let opts = fast_opts();
    // Repeated probes against the same daemon: idempotent by design.
    for _ in 0..3 {
        let rtt = ping_party(&addr, &opts).expect("live daemon answers ping");
        assert!(rtt < Duration::from_secs(5));
    }

    // A dead address: bind-then-drop guarantees nothing listens there.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let tight = HubOptions {
        connect_budget: 3,
        connect_backoff: Duration::from_millis(5),
        connect_timeout: Duration::from_millis(200),
        ..opts
    };
    assert!(ping_party(&dead, &tight).is_err(), "budget must eventually give up");

    // Unblock the daemon's accept loop (it still owes one session).
    run_one_plain_session(&addr, &x, &part);
    handle.join().unwrap();
}

/// Garbage frames and misdirected setups refuse the *connection*, not the
/// daemon: it keeps serving and completes a real session afterwards.
#[test]
fn daemon_survives_garbage_and_misdirected_setups() {
    use std::io::Write;
    let (x, part) = toy();
    let (addr, handle) = spawn_party(&x, &part, PartyConfig::new(0), 1);

    // 1: a frame with a valid length prefix and an invalid tag.
    {
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        s.write_all(&5u32.to_le_bytes()).unwrap();
        s.write_all(&[0xEE; 5]).unwrap();
    }
    // 2: a setup naming the wrong party for the slot, and one naming the
    // retired Threshold mode's byte.
    let cfg = FedKnnConfig { k: 1, mode: KnnMode::Base, batch: 1, cost_scale: 1.0 };
    let wrong_party = KnnSession::new(&[9], &[0, 1], &[0], cfg, 1);
    let right_party = KnnSession::new(&[0], &[0, 1], &[0], cfg, 1);
    for (session, mode, want) in
        [(&wrong_party, 0, "party"), (&right_party, 2, "unroutable knn mode byte 2")]
    {
        use vfps_net::wire::{read_frame, write_frame};
        let s = std::net::TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let frame = vfps_cluster::SetupFrame {
            mode,
            ..vfps_cluster::SetupFrame::for_slot(session, 1, 0, SchemeSpec::plain(4))
        };
        write_frame(&mut &s, &vfps_cluster::ClusterMsg::Setup(frame)).unwrap();
        match read_frame::<_, vfps_cluster::ClusterMsg>(&mut &s) {
            Ok(Some(vfps_cluster::ClusterMsg::Failed(ef))) => {
                let e = ef.to_error();
                assert!(e.to_string().contains(want), "typed refusal, got {e}");
            }
            other => panic!("expected typed Failed frame, got {other:?}"),
        }
    }
    // 3: a real session still works — the daemon survived every abuse.
    run_one_plain_session(&addr, &x, &part);
    let report = handle.join().unwrap();
    assert_eq!(report.sessions, 1, "abusive connections never count as sessions");
}

/// Drives one single-party PlainHe session against `addr` and asserts it
/// completes.
fn run_one_plain_session(addr: &str, _x: &Matrix, _part: &VerticalPartition) {
    let he = Arc::new(PlainHe::new(4));
    let cfg = FedKnnConfig { k: 2, mode: KnnMode::Base, batch: 2, cost_scale: 1.0 };
    let db: Vec<usize> = (0..8).collect();
    let session = KnnSession::new(&[0], &db, &[1], cfg, 3);
    let report =
        run_cluster_knn(&he, &session, 3, SchemeSpec::plain(4), &[addr.to_string()], &fast_opts())
            .expect("tcp setup");
    assert!(matches!(report.run, FaultedRun::Complete(_)), "got {:?}", report.run);
}

/// Every daemon derives the same key pair from the setup's seed, but not
/// the same noise. Two parties whose columns are copies of each other
/// encrypt equal plaintexts; over TCP, their slots of one session send
/// different ciphertexts, and each daemon's second session differs from
/// its first. (With the setup seed's noise stream all four sent the same
/// bytes, and one party's ciphertext divided by another's exposed the
/// difference of their plaintexts.)
#[test]
fn paillier_noise_is_per_party_and_per_session() {
    let rows: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            let (a, b) = (f64::from(i) * 0.7, f64::from(i * i) * 0.1);
            vec![a, b, a, b]
        })
        .collect();
    let (x, part) = (Matrix::from_rows(&rows), VerticalPartition::even(4, 2));
    let parties = vec![0usize, 1];
    let db: Vec<usize> = (0..8).collect();
    let cfg = FedKnnConfig { k: 2, mode: KnnMode::Base, batch: 3, cost_scale: 1.0 };
    let session = KnnSession::new(&parties, &db, &[1, 4], cfg, 13);
    let spec = SchemeSpec::paillier(128, 8, 5);
    let daemons: Vec<(String, JoinHandle<vfps_cluster::PartyReport>)> =
        parties.iter().map(|&p| spawn_party(&x, &part, PartyConfig::new(p), 2)).collect();
    // One Base exchange as the coordinator: Setup, Ready, AllCandidates,
    // then the slot's EncPartials; dropping the socket ends the session.
    let encrypted = |slot: usize| -> Vec<Vec<u8>> {
        let conn = Conn::connect(daemons[slot].0.as_str()).expect("dial daemon");
        let setup = SetupFrame::for_slot(&session, 13, slot, spec);
        conn.send(&ClusterMsg::Setup(setup)).unwrap();
        assert!(matches!(conn.recv::<ClusterMsg>(), Ok(Some(ClusterMsg::Ready { .. }))));
        let payload = ProtoMsg::AllCandidates.to_bytes();
        conn.send(&ClusterMsg::Routed { from: 0, to: 1 + slot, payload }).unwrap();
        match conn.recv::<ClusterMsg>() {
            Ok(Some(ClusterMsg::Routed { payload, .. })) => match ProtoMsg::from_bytes(&payload) {
                Ok(ProtoMsg::EncPartials(blobs)) => blobs,
                other => panic!("expected EncPartials, got {other:?}"),
            },
            other => panic!("expected a routed frame, got {other:?}"),
        }
    };
    let first = [encrypted(0), encrypted(1)];
    let second = [encrypted(0), encrypted(1)];
    for (_, handle) in daemons {
        assert_eq!(handle.join().unwrap().sessions, 2);
    }

    let he = PaillierHe::generate(128, 8, 5).unwrap();
    let plain = |blobs: &[Vec<u8>]| -> Vec<Vec<f64>> {
        blobs.iter().map(|b| he.decrypt(&he.ct_from_bytes(b).unwrap(), 8)).collect()
    };
    let want = plain(&first[0]);
    for blobs in first.iter().chain(&second) {
        assert_eq!(plain(blobs), want, "equal plaintexts in every frame");
    }
    for (a, b) in [(&first[0], &first[1]), (&first[0], &second[0]), (&first[1], &second[1])] {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_ne!(x, y, "a ciphertext repeated across parties or sessions");
        }
    }
}
