//! The simulated cluster's links and traffic ledger under contention:
//! every node sends to every other at once, and each message arrives and
//! is counted exactly once.

use vfps_net::cluster::{run_cluster, LinkTraffic, NodeCtx};

const NODES: usize = 4;
const PER_LINK: u64 = 200;

type NodeFn = Box<dyn FnOnce(NodeCtx<u64>) -> u64 + Send>;

#[test]
fn all_to_all_traffic_is_delivered_and_counted_exactly() {
    let fns: Vec<NodeFn> = (0..NODES)
        .map(|me| {
            Box::new(move |ctx: NodeCtx<u64>| {
                for to in (0..NODES).filter(|&to| to != me) {
                    for i in 0..PER_LINK {
                        ctx.send(to, i).unwrap();
                    }
                }
                (0..(NODES as u64 - 1) * PER_LINK).map(|_| ctx.recv().unwrap().msg).sum()
            }) as NodeFn
        })
        .collect();
    let (sums, ledger) = run_cluster(fns);
    let per_sender: u64 = (0..PER_LINK).sum();
    assert!(sums.iter().all(|&s| s == (NODES as u64 - 1) * per_sender), "{sums:?}");
    let links = (NODES * (NODES - 1)) as u64;
    assert_eq!(ledger.total_messages(), links * PER_LINK);
    assert_eq!(ledger.total_bytes(), links * PER_LINK * 8, "u64 messages");
    let snapshot = ledger.snapshot();
    assert_eq!(snapshot.len(), NODES * (NODES - 1));
    let each = LinkTraffic { bytes: PER_LINK * 8, messages: PER_LINK };
    assert!(snapshot.values().all(|l| *l == each), "{snapshot:?}");
}
