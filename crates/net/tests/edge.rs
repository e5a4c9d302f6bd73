//! The network edge end to end: `net::server::Listener` on one side, the
//! framed `Conn` on the other, over real loopback sockets.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vfps_net::server::{Listener, Reply};
use vfps_net::wire::MAX_FRAME_BYTES;
use vfps_net::{Conn, TransportFailure};

/// Toy protocol: requests are `u64`, responses `Vec<u8>`. `n < STOP` is
/// answered with `n` zero bytes, `STOP` with `b"bye"` and a stop; the typed
/// reject is the reason's bytes behind a `!`.
const STOP: u64 = u64::MAX;

fn reject(reason: String) -> Vec<u8> {
    format!("!{reason}").into_bytes()
}

fn spawn_server() -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let listener = Listener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr();
    let handle = std::thread::spawn(move || {
        listener.serve(reject, || {
            |n: u64| match n {
                STOP => Reply::Stop(b"bye".to_vec()),
                n => Reply::Continue(vec![0u8; n as usize]),
            }
        })
    });
    (addr, handle)
}

fn stop(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let bye: Vec<u8> = Conn::connect(addr).unwrap().call(&STOP).expect("stop is answered");
    assert_eq!(bye, b"bye");
    handle.join().expect("acceptor thread").expect("serve returns cleanly");
}

/// The regression the edge exists to prevent: a frame written as two
/// segments on a socket that kept Nagle on costs one delayed ACK — 44 ms
/// per request at the commit before this test.
#[test]
fn loopback_round_trips_stay_under_a_few_milliseconds() {
    let (addr, handle) = spawn_server();
    let conn = Conn::connect(addr).unwrap();
    let mut rtts: Vec<Duration> = (0..50)
        .map(|_| {
            let started = Instant::now();
            let reply: Vec<u8> = conn.call(&8u64).expect("round trip");
            assert_eq!(reply.len(), 8);
            started.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(median < Duration::from_millis(5), "median round trip {median:?} (all: {rtts:?})");
    stop(addr, handle);
}

#[test]
fn connections_are_served_concurrently_and_keep_their_order() {
    let (addr, handle) = spawn_server();
    let a = Conn::connect(addr).unwrap();
    let b = Conn::connect_timeout(&addr.to_string(), Duration::from_secs(5)).unwrap();
    // `a` stays open and idle while `b` is served: one thread each.
    for n in [3u64, 0, 5] {
        assert_eq!(b.call::<_, Vec<u8>>(&n).unwrap().len() as u64, n);
    }
    assert_eq!(a.call::<_, Vec<u8>>(&1u64).unwrap(), [0]);
    stop(addr, handle);
}

#[test]
fn an_undecodable_frame_gets_the_typed_reject_then_a_close() {
    let (addr, handle) = spawn_server();
    let conn = Conn::connect(addr).unwrap();
    conn.send(&vec![1u8, 2, 3]).unwrap(); // 7 payload bytes: not a u64
    let reply: Vec<u8> = conn.recv().unwrap().expect("a reject, not silence");
    assert!(reply.starts_with(b"!bad frame"), "{}", String::from_utf8_lossy(&reply));
    assert!(matches!(conn.recv::<Vec<u8>>(), Ok(None)), "then the server hangs up");
    stop(addr, handle);
}

#[test]
fn an_oversized_length_prefix_gets_the_typed_reject_without_a_body() {
    let (addr, handle) = spawn_server();
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
    let conn = Conn::adopt(raw);
    let reply: Vec<u8> = conn.recv().unwrap().expect("a reject, not silence");
    assert!(reply.starts_with(b"!bad frame"), "{}", String::from_utf8_lossy(&reply));
    stop(addr, handle);
}

/// A reply above the frame cap used to panic the handler thread inside
/// `write_frame`, leaving the client waiting forever.
#[test]
fn a_reply_too_large_to_frame_becomes_the_typed_reject() {
    let (addr, handle) = spawn_server();
    let conn = Conn::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reply: Vec<u8> = conn.call(&(MAX_FRAME_BYTES as u64)).expect("still one response");
    assert!(reply.starts_with(b"!reply refused"), "{}", String::from_utf8_lossy(&reply));
    // The connection survives: the next request is served normally.
    assert_eq!(conn.call::<_, Vec<u8>>(&2u64).unwrap(), [0, 0]);
    stop(addr, handle);
}

#[test]
fn a_request_too_large_to_frame_is_refused_locally_as_a_protocol_failure() {
    let (addr, handle) = spawn_server();
    let conn = Conn::connect(addr).unwrap();
    let failure = conn.call::<_, Vec<u8>>(&vec![0u8; MAX_FRAME_BYTES]).unwrap_err();
    assert!(matches!(failure, TransportFailure::Protocol { .. }), "{failure:?}");
    assert!(!failure.is_liveness_failure(), "nothing was sent; the peer is not at fault");
    stop(addr, handle);
}

#[test]
fn call_maps_a_vanished_peer_and_a_silent_peer_onto_the_taxonomy() {
    // A listener that accepts, reads nothing, and hangs up.
    let hangup = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = hangup.local_addr().unwrap();
    let closer = std::thread::spawn(move || drop(hangup.accept()));
    let conn = Conn::connect(addr).unwrap();
    closer.join().unwrap();
    assert_eq!(conn.call::<_, u64>(&1u64), Err(TransportFailure::Hangup));

    // A listener whose backlog completes the handshake but never answers.
    let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let conn = Conn::connect(silent.local_addr().unwrap()).unwrap();
    conn.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
    assert!(matches!(conn.call::<_, u64>(&1u64), Err(TransportFailure::Timeout { .. })));
}

#[test]
fn stop_ends_serve_even_with_an_idle_client_still_connected() {
    let (addr, handle) = spawn_server();
    let idle = Conn::connect(addr).unwrap();
    assert_eq!(idle.call::<_, Vec<u8>>(&1u64).unwrap(), [0]);
    stop(addr, handle); // joins the acceptor: must not wait for `idle`
    drop(idle);
}
