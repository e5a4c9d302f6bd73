//! The `Channel` receive contract (`vfps_net::channel`) as one suite run
//! against all three transports: node 0 of a 4-node session is the channel
//! under test, and nodes 1–3 follow a script that forces every arrival
//! order the assertions depend on.

mod common;

use std::net::TcpListener;
use std::time::{Duration, Instant};

use vfps_cluster::{ClusterMsg, PartyChannel};
use vfps_net::channel::Channel;
use vfps_net::wire::Wire;
use vfps_net::{run_cluster_fallible, ClusterOptions, Conn, Envelope, Error, FallibleNodeFn};
use vfps_vfl::ProtoMsg;

const LONG: Duration = Duration::from_secs(20);

fn tag(t: usize) -> ProtoMsg {
    ProtoMsg::TopkIds(vec![t])
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
