//! A daemon whose frame arrives slowly is slow, not dead: the hub reads
//! whole frames however long the bytes take.

mod common;

use std::io::Write;
use std::net::TcpListener;
use std::time::Duration;

use vfps_net::channel::Channel;
use vfps_net::wire::Wire;
use vfps_net::write_frame;
use vfps_vfl::ProtoMsg;

use vfps_cluster::ClusterMsg;

/// Writes one `Routed` frame as 10 bytes, a 350 ms pause, then the rest,
/// and holds the socket open until the hub closes it.
fn dribbling_daemon(listener: TcpListener, party_id: usize) {
    let mut stream = common::accept_session(&listener, party_id);
    let routed =
        ClusterMsg::Routed { from: 1, to: 0, payload: ProtoMsg::DtSum(vec![4.5]).to_bytes() };
    let mut frame = Vec::new();
    write_frame(&mut frame, &routed).unwrap();
    stream.write_all(&frame[..10]).unwrap();
    std::thread::sleep(Duration::from_millis(350));
    stream.write_all(&frame[10..]).unwrap();
    let _ = std::io::Read::read(&mut stream, &mut [0u8; 1]);
}

#[test]
fn a_frame_that_arrives_in_two_pieces_is_delivered_whole() {
    let (mut hub, daemons) = common::hub_over(1, dribbling_daemon);
    let got = hub.recv_from_timeout(1, Duration::from_secs(3));
    assert_eq!(got, Ok(ProtoMsg::DtSum(vec![4.5])), "the daemon was alive the whole time");
    assert!(!hub.is_departed(1));
    hub.shutdown();
    assert_eq!(hub.stats().kills_observed, 0, "the hub's own shutdown is not a kill");
    for d in daemons {
        d.join().unwrap();
    }
}
