//! A setup frame's `scheme.key_bits` is a word off the wire. A daemon
//! that took it at its word would sit in prime search (super-cubic in the
//! width) and size the encryptor's window table from it; key generation
//! refuses anything above `MAX_KEY_BITS` before drawing a bit, so the
//! frame costs the daemon a typed refusal and nothing else.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use vfps_cluster::{
    run_cluster_knn, serve_party, ClusterMsg, HubOptions, PartyConfig, SchemeSpec, SetupFrame,
};
use vfps_data::VerticalPartition;
use vfps_he::paillier::MAX_KEY_BITS;
use vfps_he::scheme::PaillierHe;
use vfps_ml::linalg::Matrix;
use vfps_net::wire::{read_frame, write_frame};
use vfps_vfl::fed_knn::{FedKnnConfig, KnnMode};
use vfps_vfl::{FaultedRun, KnnSession};

fn session() -> KnnSession {
    let cfg = FedKnnConfig { k: 2, mode: KnnMode::Base, batch: 2, cost_scale: 1.0 };
    KnnSession::new(&[0], &[0, 1, 2, 3], &[1], cfg, 3)
}

#[test]
fn an_oversized_key_width_is_refused_promptly_and_the_daemon_serves_on() {
    let x = Matrix::from_rows(&[vec![0.0, 0.1], vec![0.2, 0.0], vec![5.0, 5.1], vec![5.2, 5.0]]);
    let partition = VerticalPartition::even(2, 1);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind daemon");
    let addr = listener.local_addr().unwrap().to_string();
    let daemon = {
        let (x, partition) = (x.clone(), partition.clone());
        std::thread::spawn(move || {
            let cfg = PartyConfig { max_sessions: Some(1), ..PartyConfig::new(0) };
            serve_party(&listener, &x, &partition, &cfg).expect("daemon accept loop")
        })
    };

    // A 2²⁰-bit key would be hours of prime search; the first width past
    // the bound is refused the same way.
    for key_bits in [1 << 20, MAX_KEY_BITS + 1] {
        let stream = TcpStream::connect(&addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let frame = SetupFrame::for_slot(&session(), 3, 0, SchemeSpec::paillier(key_bits, 4, 9));
        let sent = Instant::now();
        write_frame(&mut &stream, &ClusterMsg::Setup(frame)).unwrap();
        match read_frame::<_, ClusterMsg>(&mut &stream) {
            Ok(Some(ClusterMsg::Failed(refusal))) => {
                let e = refusal.to_error().to_string();
                assert!(e.contains(&format!("above the maximum of {MAX_KEY_BITS}")), "got {e}");
            }
            other => panic!("expected a typed refusal, got {other:?}"),
        }
        assert!(sent.elapsed() < Duration::from_secs(2), "refused before any prime search");
    }

    // The refusals cost no session: an honest Paillier one still runs.
    let scheme = SchemeSpec::paillier(128, 4, 9);
    let he = Arc::new(PaillierHe::generate(128, 4, 9).unwrap());
    let opts = HubOptions { connect_timeout: Duration::from_secs(2), ..HubOptions::default() };
    let report = run_cluster_knn(&he, &session(), 3, scheme, &[addr], &opts).expect("tcp setup");
    assert!(matches!(report.run, FaultedRun::Complete(_)), "got {:?}", report.run);
    assert_eq!(daemon.join().unwrap().sessions, 1, "refused setups never count as sessions");
}
