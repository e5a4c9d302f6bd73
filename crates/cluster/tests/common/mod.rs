//! Fake daemons for driving a [`Hub`] without a protocol run behind it.

use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use vfps_cluster::{ClusterMsg, Hub, HubOptions, SchemeSpec};
use vfps_net::Conn;
use vfps_vfl::fed_knn::{FedKnnConfig, KnnMode};
use vfps_vfl::KnnSession;

/// Accepts the hub's connection and answers its `Setup` as party
/// `party_id`; returns the raw stream, positioned at the first protocol
/// frame.
pub fn accept_session(listener: &TcpListener, party_id: usize) -> TcpStream {
    let (stream, _) = listener.accept().expect("accept the hub");
    let conn = Conn::adopt(stream.try_clone().expect("clone stream"));
    match conn.recv::<ClusterMsg>() {
        Ok(Some(ClusterMsg::Setup(_))) => {}
        other => panic!("expected Setup, got {other:?}"),
    }
    conn.send(&ClusterMsg::Ready { party_id }).expect("send Ready");
    stream
}

/// Connects a hub to one `daemon(listener, party_id)` thread per party.
/// The daemons' session is a placeholder: no protocol body runs over it.
pub fn hub_over(
    parties: usize,
    daemon: impl Fn(TcpListener, usize) + Clone + Send + 'static,
) -> (Hub, Vec<std::thread::JoinHandle<()>>) {
    let mut addrs = Vec::new();
    let mut handles = Vec::new();
    for party_id in 0..parties {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake daemon");
        addrs.push(listener.local_addr().unwrap().to_string());
        let daemon = daemon.clone();
        handles.push(std::thread::spawn(move || daemon(listener, party_id)));
    }
    let ids: Vec<usize> = (0..parties).collect();
    let cfg = FedKnnConfig { k: 1, mode: KnnMode::Base, batch: 1, cost_scale: 1.0 };
    let session = KnnSession::new(&ids, &[0], &[0], cfg, 1);
    let opts = HubOptions { connect_timeout: Duration::from_secs(2), ..HubOptions::default() };
    let hub = Hub::connect(&addrs, &session, 1, SchemeSpec::plain(1), &opts).expect("hub setup");
    (hub, handles)
}
