//! The hub's result board: `Hub::wait_result` gives up at its deadline,
//! wakes as soon as a daemon's terminal frame lands, and a daemon that
//! dies silently is recorded once.

mod common;

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use vfps_cluster::ClusterMsg;
use vfps_net::{Conn, Error};

/// Blocks until the hub closes the socket.
fn until_hub_shutdown(mut stream: TcpStream) {
    let _ = stream.read_to_end(&mut Vec::new());
}

fn silent_daemon(listener: TcpListener, party_id: usize) {
    until_hub_shutdown(common::accept_session(&listener, party_id));
}

fn late_finisher(listener: TcpListener, party_id: usize) {
    let stream = common::accept_session(&listener, party_id);
    std::thread::sleep(Duration::from_millis(20));
    let conn = Conn::adopt(stream.try_clone().expect("clone stream"));
    conn.send(&ClusterMsg::Finished { outcomes: Vec::new(), dead_slots: vec![0, 2] })
        .expect("report to the hub");
    until_hub_shutdown(stream);
}

#[test]
fn wait_result_gives_up_at_its_deadline() {
    let (mut hub, daemons) = common::hub_over(1, silent_daemon);
    let start = Instant::now();
    assert!(hub.wait_result(0, Duration::from_millis(30)).is_none());
    assert!(start.elapsed() >= Duration::from_millis(30));
    hub.shutdown();
    for d in daemons {
        d.join().unwrap();
    }
}

#[test]
fn wait_result_wakes_when_a_result_lands() {
    let (mut hub, daemons) = common::hub_over(1, late_finisher);
    let start = Instant::now();
    let got = hub.wait_result(0, Duration::from_secs(60));
    assert!(start.elapsed() < Duration::from_secs(30), "the waiter was not woken");
    assert!(matches!(got, Some(Ok((_, ref dead))) if *dead == [0, 2]), "got {got:?}");
    hub.shutdown();
    for d in daemons {
        d.join().unwrap();
    }
}

/// Party 1 closes its socket without a terminal frame. Party 0 must hear
/// of it exactly once before it finishes.
fn one_dies_silently(listener: TcpListener, party_id: usize) {
    let stream = common::accept_session(&listener, party_id);
    if party_id == 1 {
        return;
    }
    let conn = Conn::adopt(stream);
    match conn.recv::<ClusterMsg>() {
        Ok(Some(ClusterMsg::Departed { node: 2, clean: false })) => {}
        other => panic!("expected node 2's dirty departure, got {other:?}"),
    }
    conn.send(&ClusterMsg::Finished { outcomes: Vec::new(), dead_slots: vec![1] })
        .expect("report to the hub");
    match conn.recv::<ClusterMsg>() {
        Ok(None) | Err(_) => {}
        Ok(Some(frame)) => panic!("a frame after the departure: {frame:?}"),
    }
}

#[test]
fn a_silent_death_is_recorded_once() {
    let (mut hub, daemons) = common::hub_over(2, one_dies_silently);
    let dead = hub.wait_result(1, Duration::from_secs(60));
    assert_eq!(dead, Some(Err(Error::Hangup { peer: 2 })));
    let alive = hub.wait_result(0, Duration::from_secs(60));
    assert!(matches!(alive, Some(Ok((_, ref dead))) if *dead == [1]), "got {alive:?}");
    assert_eq!(hub.stats().kills_observed, 1);
    hub.shutdown();
    for d in daemons {
        d.join().unwrap();
    }
}
