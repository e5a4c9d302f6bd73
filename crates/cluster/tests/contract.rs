//! The `Channel` receive contract (`vfps_net::channel`) as one suite run
//! against all three transports: node 0 of a 4-node session is the channel
//! under test, and nodes 1–3 follow a script that forces every arrival
//! order the assertions depend on.

mod common;

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vfps_cluster::{
    run_cluster_knn, serve_party, ClusterMsg, HubOptions, PartyChannel, PartyConfig, SchemeSpec,
    SetupFrame,
};
use vfps_data::VerticalPartition;
use vfps_he::scheme::PlainHe;
use vfps_ml::linalg::Matrix;
use vfps_net::channel::Channel;
use vfps_net::wire::Wire;
use vfps_net::{run_cluster_fallible, ClusterOptions, Conn, Envelope, Error, FallibleNodeFn};
use vfps_vfl::fed_knn::{FedKnnConfig, KnnMode};
use vfps_vfl::{knn_server_node, FaultedRun, KnnSession, ProtoMsg};

const LONG: Duration = Duration::from_secs(20);

fn tag(t: u32) -> ProtoMsg {
    ProtoMsg::TopkIds(vec![vec![t]])
}

/// Node 0's side. What the peers have put in its inbox, in order, when
/// each step runs is stated beside the step.
fn contract<C: Channel<ProtoMsg>>(ch: &C) {
    // Inbox: 3:A1, 3:A2, 1:B. The interleaved sender is buffered, then
    // replayed in arrival order.
    assert_eq!(ch.recv_from_timeout(1, LONG), Ok(tag(10)));
    for t in [31, 32] {
        let Envelope { from, msg } = ch.recv_timeout(LONG).expect("buffered envelope");
        assert_eq!((from, msg), (3, tag(t)));
    }

    // Inbox: empty, every peer waiting on us.
    let short = Duration::from_millis(60);
    let started = Instant::now();
    assert_eq!(
        ch.recv_from_timeout(1, short),
        Err(Error::Timeout { peer: Some(1), waited: short })
    );
    assert!(started.elapsed() >= short, "expired early after {:?}", started.elapsed());

    // Inbox: 3 departed (clean), 1:C. Another peer's departure is silent.
    ch.send(3, tag(0)).unwrap();
    assert!(!ch.is_departed(3));
    assert_eq!(ch.recv_from_timeout(1, LONG), Ok(tag(11)));
    assert!(ch.is_departed(3));
    assert_eq!(ch.send(3, tag(0)), Err(Error::Hangup { peer: 3 }));

    // Inbox: 2 departed (dirty).
    ch.send(2, tag(0)).unwrap();
    assert_eq!(ch.recv_timeout(LONG).map(|e| e.from), Err(Error::Hangup { peer: 2 }));

    // Inbox: 1 departed (clean) — the awaited peer.
    ch.send(1, tag(0)).unwrap();
    assert_eq!(ch.recv_from_timeout(1, LONG), Err(Error::Hangup { peer: 1 }));

    // Everyone has left: nothing can arrive, so do not wait for it.
    let started = Instant::now();
    assert_eq!(ch.recv_timeout(LONG).map(|e| e.from), Err(Error::Hangup { peer: 1 }));
    assert!(started.elapsed() < LONG / 4, "waited {:?} for nobody", started.elapsed());
}

/// Nodes 1–3's side, over whatever channel reaches node 0. `Ok` is a
/// clean departure, `Err` a dirty one.
fn peer<C: Channel<ProtoMsg>>(ch: &C, me: usize) -> Result<(), Error> {
    match me {
        1 => {
            // After 3's two envelopes are in node 0's inbox.
            ch.recv_from_timeout(3, LONG)?;
            ch.send(0, tag(10))?;
            // After 3's departure is in node 0's inbox.
            assert_eq!(ch.recv_from_timeout(3, LONG), Err(Error::Hangup { peer: 3 }));
            ch.send(0, tag(11))?;
            ch.recv_from_timeout(0, LONG)?;
            Ok(())
        }
        2 => {
            ch.recv_from_timeout(0, LONG)?;
            Err(Error::violation("scripted dirty exit"))
        }
        _ => {
            ch.send(0, tag(31))?;
            ch.send(0, tag(32))?;
            ch.send(1, tag(0))?;
            ch.recv_from_timeout(0, LONG)?;
            Ok(())
        }
    }
}

#[test]
fn sim_node_ctx_honours_the_contract() {
    let mut fns: Vec<FallibleNodeFn<ProtoMsg, ()>> = vec![Box::new(|ctx| {
        contract(&ctx);
        Ok(())
    })];
    for me in 1..4 {
        fns.push(Box::new(move |ctx| peer(&ctx, me)));
    }
    let (results, _) = run_cluster_fallible(fns, ClusterOptions::default());
    assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1, "only node 2 exits dirty");
}

/// A daemon that runs `peer` over the real `PartyChannel` and reports the
/// way `serve_party` does.
fn scripted_daemon(listener: TcpListener, party_id: usize) {
    let conn = Conn::adopt(common::accept_session(&listener, party_id));
    let me = 1 + party_id;
    let terminal = match peer(&PartyChannel::new(&conn, me, 4, None), me) {
        Ok(()) => ClusterMsg::Finished { outcomes: Vec::new(), dead_slots: Vec::new() },
        Err(e) => ClusterMsg::Failed(vfps_cluster::ErrorFrame::from_error(&e)),
    };
    conn.send(&terminal).expect("report to the hub");
}

#[test]
fn tcp_hub_honours_the_contract() {
    let (hub, daemons) = common::hub_over(3, scripted_daemon);
    contract(&hub);
    for d in daemons {
        d.join().unwrap();
    }
}

/// The hub's side of one daemon socket, scripted: what node 0 should find
/// in its inbox is simply what is written, in order.
fn scripted_hub(conn: &Conn) {
    let routed = |from, t| ClusterMsg::Routed { from, to: 0, payload: tag(t).to_bytes() };
    let await_go = || match conn.recv::<ClusterMsg>() {
        Ok(Some(ClusterMsg::Routed { from: 0, .. })) => {}
        other => panic!("expected node 0's go, got {other:?}"),
    };
    for frame in [routed(3, 31), routed(3, 32), routed(1, 10)] {
        conn.send(&frame).unwrap();
    }
    await_go();
    conn.send(&ClusterMsg::Departed { node: 3, clean: true }).unwrap();
    conn.send(&routed(1, 11)).unwrap();
    await_go();
    conn.send(&ClusterMsg::Departed { node: 2, clean: false }).unwrap();
    await_go();
    conn.send(&ClusterMsg::Departed { node: 1, clean: true }).unwrap();
    // Stay connected until the daemon side hangs up: a dead hub socket is
    // `Hangup { peer: 0 }`, not the case under test.
    assert!(matches!(conn.recv::<ClusterMsg>(), Ok(None)));
}

#[test]
fn tcp_party_channel_honours_the_contract() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hub = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        scripted_hub(&Conn::adopt(stream));
    });
    let conn = Conn::connect(addr).unwrap();
    contract(&PartyChannel::new(&conn, 0, 4, None));
    drop(conn);
    hub.join().unwrap();
}

// ---------------------------------------------------------------------------
// Frames that lie: every id, index and count a peer sends is checked where it
// enters, so a hostile frame is a typed violation on every transport.
// ---------------------------------------------------------------------------

/// Database rows of the hostile sessions; `ROWS` itself is the first id
/// outside them.
const ROWS: u32 = 4;

fn session(parties: &[usize], mode: KnnMode) -> KnnSession {
    let cfg = FedKnnConfig { k: 1, mode, batch: 2, cost_scale: 1.0 };
    let db: Vec<usize> = (0..ROWS as usize).collect();
    KnnSession::new(parties, &db, &[0, 1], cfg, 5)
}

/// The lies a participant tells in its first `RankBatch`, each keeping
/// the batch count, with what the server's refusal names: an id outside
/// the database, and an id sent twice (a slot streams disjoint slices of
/// one ranking, so a repeat would pass for another party's sighting).
fn rank_batch_lies() -> [(Vec<u32>, String); 2] {
    [
        (vec![0, ROWS], format!("RankBatch: {ROWS} outside")),
        (vec![2, 2], "RankBatch: 2 already streamed by slot 0".to_owned()),
    ]
}

/// Node 0's side: the real server body over a one-party Fagin session
/// whose participant answers with `lie`'s batch.
fn server_refuses_a_lying_rank_batch<C: Channel<ProtoMsg>>(ch: &C, refusal: &str) {
    let he = Arc::new(PlainHe::new(4));
    let err = knn_server_node(ch, &he, &session(&[0], KnnMode::Fagin)).unwrap_err();
    assert!(matches!(err, Error::ProtocolViolation { .. }), "typed, got {err:?}");
    assert!(err.to_string().contains(refusal), "got {err}");
}

/// Node 1's side: one in-range batch too few would be a count violation;
/// this one keeps the count and lies about its ids.
fn lying_rank_batch(asked: &[u32], lie: &[u32]) -> ProtoMsg {
    ProtoMsg::RankBatch(asked.iter().map(|_| lie.to_vec()).collect())
}

fn lying_participant<C: Channel<ProtoMsg>>(ch: &C, lie: &[u32]) -> Result<(), Error> {
    let ProtoMsg::NeedBatch(asked) = ch.recv_from_timeout(0, LONG)? else {
        panic!("the stream opens with NeedBatch");
    };
    assert_eq!(asked, vec![0, 1], "both queries of the wave are open");
    ch.send(0, lying_rank_batch(&asked, lie))?;
    // The server body is gone; nothing else arrives.
    assert_eq!(ch.recv_from_timeout(0, LONG), Err(Error::Hangup { peer: 0 }));
    Ok(())
}

#[test]
fn a_lying_rank_batch_is_a_typed_violation_on_every_transport() {
    for (lie, refusal) in rank_batch_lies() {
        // Simulated cluster.
        let (server_refusal, participant_lie) = (refusal.clone(), lie.clone());
        let fns: Vec<FallibleNodeFn<ProtoMsg, ()>> = vec![
            Box::new(move |ctx| {
                server_refuses_a_lying_rank_batch(&ctx, &server_refusal);
                Err(Error::violation("server body refused the frame"))
            }),
            Box::new(move |ctx| lying_participant(&ctx, &participant_lie)),
        ];
        let (results, _) = run_cluster_fallible(fns, ClusterOptions::default());
        assert_eq!(results[1], Ok(()), "the participant saw the server leave");

        // The hub, against a daemon-side `PartyChannel`.
        let daemon_lie = lie.clone();
        let daemon = move |listener: TcpListener, party_id: usize| {
            let conn = Conn::adopt(common::accept_session(&listener, party_id));
            lying_participant(&PartyChannel::new(&conn, 1, 2, None), &daemon_lie).unwrap();
        };
        let (mut hub, daemons) = common::hub_over(1, daemon);
        server_refuses_a_lying_rank_batch(&hub, &refusal);
        hub.shutdown();
        for d in daemons {
            d.join().unwrap();
        }

        // A `PartyChannel` as node 0, against a scripted hub socket.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hub = std::thread::spawn(move || {
            let conn = Conn::adopt(listener.accept().unwrap().0);
            let Ok(Some(ClusterMsg::Routed { from: 0, to: 1, payload })) =
                conn.recv::<ClusterMsg>()
            else {
                panic!("expected node 0's NeedBatch");
            };
            let Ok(ProtoMsg::NeedBatch(asked)) = ProtoMsg::from_bytes(&payload) else {
                panic!("expected NeedBatch");
            };
            let payload = lying_rank_batch(&asked, &lie).to_bytes();
            conn.send(&ClusterMsg::Routed { from: 1, to: 0, payload }).unwrap();
            assert!(matches!(conn.recv::<ClusterMsg>(), Ok(None)));
        });
        let conn = Conn::connect(addr).unwrap();
        server_refuses_a_lying_rank_batch(&PartyChannel::new(&conn, 0, 2, None), &refusal);
        drop(conn);
        hub.join().unwrap();
    }
}

/// A slot that repeats an id from an earlier batch of the same query is
/// refused too; the same id for two queries is not. One party, k = 2, one
/// id a batch: honest, query 0's second batch would be its second id; this
/// one resends the first, which the stream alone would count as the second
/// completion.
#[test]
fn a_rank_batch_repeating_an_earlier_batch_is_a_typed_violation() {
    let fns: Vec<FallibleNodeFn<ProtoMsg, ()>> = vec![
        Box::new(|ctx| {
            let cfg = FedKnnConfig { k: 2, mode: KnnMode::Fagin, batch: 1, cost_scale: 1.0 };
            let db: Vec<usize> = (0..ROWS as usize).collect();
            let session = KnnSession::new(&[0], &db, &[0, 1], cfg, 5);
            let err = knn_server_node(&ctx, &Arc::new(PlainHe::new(4)), &session).unwrap_err();
            assert!(matches!(err, Error::ProtocolViolation { .. }), "typed, got {err:?}");
            assert!(err.to_string().contains("RankBatch: 0 already streamed by slot 0"), "{err}");
            Err(Error::violation("server body refused the frame"))
        }),
        Box::new(|ctx| {
            for batches in [vec![vec![0], vec![0]], vec![vec![0], vec![1]]] {
                let ProtoMsg::NeedBatch(asked) = ctx.recv_from_timeout(0, LONG)? else {
                    panic!("the stream asks for batches");
                };
                assert_eq!(asked, vec![0, 1], "neither query is complete");
                ctx.send(0, ProtoMsg::RankBatch(batches))?;
            }
            assert_eq!(ctx.recv_from_timeout(0, LONG), Err(Error::Hangup { peer: 0 }));
            Ok(())
        }),
    ];
    let (results, _) = run_cluster_fallible(fns, ClusterOptions::default());
    assert_eq!(results[1], Ok(()), "the participant saw the server leave");
}

/// A real daemon sent ids outside the database — by the server
/// (`Candidates`) or by the leader (`TopkIds`) — used to index out of
/// bounds and unwind through `serve_party`. It answers `Failed`, and the
/// next honest session runs.
#[test]
fn a_daemon_answers_lying_id_lists_with_failed_and_serves_on() {
    let x = Matrix::from_rows(&[vec![0.0, 0.1], vec![0.2, 0.0], vec![5.0, 5.1], vec![5.2, 5.0]]);
    let partition = VerticalPartition::even(2, 2);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let daemon = {
        let (x, partition) = (x.clone(), partition.clone());
        std::thread::spawn(move || {
            let cfg = PartyConfig { max_sessions: Some(3), ..PartyConfig::new(1) };
            serve_party(&listener, &x, &partition, &cfg).expect("daemon accept loop")
        })
    };
    let routed = |from, msg: ProtoMsg| ClusterMsg::Routed { from, to: 2, payload: msg.to_bytes() };
    let lies = [
        (KnnMode::Fagin, routed(0, ProtoMsg::Candidates(vec![vec![1], vec![ROWS]])), "Candidates"),
        (KnnMode::Base, routed(1, ProtoMsg::TopkIds(vec![vec![ROWS], vec![1]])), "TopkIds"),
    ];
    for (mode, lie, what) in lies {
        // The daemon is slot 1 — a plain participant — of a two-party session.
        let conn = Conn::connect(&addr).unwrap();
        conn.set_read_timeout(Some(LONG)).unwrap();
        let setup = SetupFrame::for_slot(&session(&[0, 1], mode), 5, 1, SchemeSpec::plain(4));
        conn.send(&ClusterMsg::Setup(setup)).unwrap();
        assert_eq!(conn.recv::<ClusterMsg>().unwrap(), Some(ClusterMsg::Ready { party_id: 1 }));
        if mode == KnnMode::Base {
            conn.send(&routed(0, ProtoMsg::AllCandidates)).unwrap();
            match conn.recv::<ClusterMsg>() {
                Ok(Some(ClusterMsg::Routed { from: 2, to: 0, .. })) => {}
                other => panic!("expected the daemon's EncPartials, got {other:?}"),
            }
        }
        conn.send(&lie).unwrap();
        match conn.recv::<ClusterMsg>() {
            Ok(Some(ClusterMsg::Failed(refusal))) => {
                let e = refusal.to_error();
                assert!(matches!(e, Error::ProtocolViolation { .. }), "{what}: got {e:?}");
                assert!(e.to_string().contains(&format!("{what}: {ROWS} outside")), "got {e}");
            }
            other => panic!("{what}: expected a typed Failed frame, got {other:?}"),
        }
    }

    // One-party honest session against the same daemon.
    let he = Arc::new(PlainHe::new(4));
    let opts = HubOptions { connect_timeout: Duration::from_secs(2), ..HubOptions::default() };
    let honest = session(&[1], KnnMode::Fagin);
    let report =
        run_cluster_knn(&he, &honest, 5, SchemeSpec::plain(4), &[addr], &opts).expect("tcp setup");
    assert!(matches!(report.run, FaultedRun::Complete(_)), "got {:?}", report.run);
    let report = daemon.join().unwrap();
    assert_eq!((report.sessions, report.killed), (3, false));
}
