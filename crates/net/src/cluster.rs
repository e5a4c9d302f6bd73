//! A simulated cluster: one thread per node, `std::sync::mpsc` channels as
//! links, and a shared traffic ledger recording byte-accurate per-link
//! volume.
//!
//! The VFL protocols deploy five logical roles (key server, aggregation
//! server, leader, participants) onto these nodes, mirroring the paper's
//! five-machine deployment.
//!
//! ## Failure semantics
//!
//! Every channel operation on [`NodeCtx`] returns `Result<_, Error>`
//! instead of panicking. When a node thread exits — cleanly, by returning
//! an error, or by panicking — a departure guard broadcasts the fact to
//! every peer, so a blocked `recv` observes [`Error::Hangup`] instead of
//! deadlocking, and [`run_cluster`] always drains every thread.
//! Out-of-order arrivals from other senders are buffered by
//! [`NodeCtx::recv_from`] (in arrival order) rather than treated as
//! protocol violations — the receive rules are [`Mailbox`]'s, shared with
//! the real-socket transports — and a [`FaultPlan`] can deterministically
//! kill nodes or drop/delay links to exercise all of the above.

use crate::channel::{Event, Mailbox};
use crate::error::Error;
use crate::fault::FaultPlan;
use crate::wire::Wire;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Node identifier within a cluster.
pub type NodeId = usize;

/// A routed message envelope.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Sender node.
    pub from: NodeId,
    /// The payload.
    pub msg: M,
}

/// Per-link traffic totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkTraffic {
    /// Bytes moved over the link.
    pub bytes: u64,
    /// Messages moved over the link.
    pub messages: u64,
}

/// Shared, thread-safe traffic ledger.
#[derive(Clone, Debug, Default)]
pub struct TrafficLedger {
    links: Arc<Mutex<HashMap<(NodeId, NodeId), LinkTraffic>>>,
}

impl TrafficLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Every update is one `entry` bump, so a holder that panicked left
    /// the map whole: recover the guard instead of spreading the panic.
    fn lock(&self) -> MutexGuard<'_, HashMap<(NodeId, NodeId), LinkTraffic>> {
        self.links.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn record(&self, from: NodeId, to: NodeId, bytes: u64) {
        let mut links = self.lock();
        let entry = links.entry((from, to)).or_default();
        entry.bytes += bytes;
        entry.messages += 1;
    }

    /// Snapshot of all links.
    #[must_use]
    pub fn snapshot(&self) -> HashMap<(NodeId, NodeId), LinkTraffic> {
        self.lock().clone()
    }

    /// Total bytes over all links.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.lock().values().map(|l| l.bytes).sum()
    }

    /// Total messages over all links.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.lock().values().map(|l| l.messages).sum()
    }
}

/// A message held back by a delay fault, due for release at `release_op`.
/// Wire size is captured at hold time so flushing (including from `Drop`,
/// where the `Wire` bound is unavailable) needs no re-encoding.
struct Delayed<M> {
    release_op: u64,
    to: NodeId,
    bytes: u64,
    env: Envelope<M>,
}

/// Interior mutable per-node bookkeeping (nodes are single-threaded, so a
/// `RefCell` suffices and keeps the public methods `&self`).
struct CtxState<M> {
    /// Combined send + receive operation counter (fault-plan clock).
    ops: u64,
    /// Per-destination message sequence numbers (fault-plan link clock).
    link_seq: HashMap<NodeId, u64>,
    /// Messages held back by delay faults.
    delayed: Vec<Delayed<M>>,
    /// Set once the fault plan kills this node; sticky.
    killed: Option<u64>,
}

/// A node's handle to the cluster: send to any node, receive from anyone.
pub struct NodeCtx<M> {
    /// This node's id.
    pub id: NodeId,
    senders: Vec<Sender<Event<M>>>,
    receiver: Receiver<Event<M>>,
    ledger: TrafficLedger,
    faults: Arc<FaultPlan>,
    state: RefCell<CtxState<M>>,
    /// Apart from `state`, which `poll` borrows while a receive holds this.
    mailbox: RefCell<Mailbox<M>>,
}

impl<M: Wire + Send + 'static> NodeCtx<M> {
    /// Advances the fault-plan clock by one channel operation; errors once
    /// the plan's kill point for this node is reached (and forever after).
    fn tick(&self) -> Result<(), Error> {
        let mut st = self.state.borrow_mut();
        if let Some(op) = st.killed {
            return Err(Error::Killed { node: self.id, op });
        }
        let op = st.ops;
        st.ops += 1;
        if let Some(kill) = self.faults.kill_op(self.id) {
            if op >= kill {
                st.killed = Some(kill);
                vfps_obs::counter_add("cluster.faults.kills", 1);
                return Err(Error::Killed { node: self.id, op: kill });
            }
        }
        Ok(())
    }

    /// Releases delayed messages whose hold has expired (`all` releases
    /// everything — used before blocking, so a held message can never
    /// deadlock the cluster on its own). Billed at delivery time; a
    /// hung-up destination just loses the message, like a crash while a
    /// real packet is in flight.
    fn flush_delayed(&self, all: bool) {
        let due: Vec<Delayed<M>> = {
            let mut st = self.state.borrow_mut();
            let now = st.ops;
            let mut due = Vec::new();
            let mut i = 0;
            while i < st.delayed.len() {
                if all || st.delayed[i].release_op <= now {
                    due.push(st.delayed.remove(i));
                } else {
                    i += 1;
                }
            }
            due
        };
        for d in due {
            self.ledger.record(self.id, d.to, d.bytes);
            let _ = self.senders[d.to].send(Event::Msg(d.env));
        }
    }

    /// Sends `msg` to node `to`, recording its wire size on the ledger.
    ///
    /// # Errors
    /// [`Error::Hangup`] if the destination has exited;
    /// [`Error::Killed`] once the fault plan has killed this node.
    pub fn send(&self, to: NodeId, msg: M) -> Result<(), Error> {
        self.tick()?;
        self.flush_delayed(false);
        let seq = {
            let mut st = self.state.borrow_mut();
            let seq = st.link_seq.entry(to).or_insert(0);
            let s = *seq;
            *seq += 1;
            s
        };
        if self.faults.should_drop(self.id, to, seq) {
            // Lost in flight: sender proceeds, nothing delivered or billed.
            vfps_obs::counter_add("cluster.faults.dropped_msgs", 1);
            return Ok(());
        }
        let bytes = msg.encoded_len() as u64;
        let env = Envelope { from: self.id, msg };
        if let Some(hold) = self.faults.delay_for(self.id, to, seq) {
            let release_op = self.state.borrow().ops + hold;
            self.state.borrow_mut().delayed.push(Delayed { release_op, to, bytes, env });
            return Ok(());
        }
        if self.is_departed(to) {
            return Err(Error::Hangup { peer: to });
        }
        self.ledger.record(self.id, to, bytes);
        if vfps_obs::is_enabled() {
            vfps_obs::counter_add(&format!("cluster.node{}.msgs_sent", self.id), 1);
            vfps_obs::counter_add(&format!("cluster.node{}.bytes_sent", self.id), bytes);
        }
        self.senders[to].send(Event::Msg(env)).map_err(|_| Error::Hangup { peer: to })
    }

    /// Blocks up to `d` for the next event.
    fn poll(&self, d: Duration) -> Result<Option<Event<M>>, Error> {
        // Anything we are still holding back could be the very message our
        // peer must answer before we unblock — release it all.
        self.flush_delayed(true);
        match self.receiver.recv_timeout(d) {
            Ok(event) => Ok(Some(event)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            // `senders` includes our own inbox, so this cannot happen.
            Err(RecvTimeoutError::Disconnected) => Err(Error::Hangup { peer: self.id }),
        }
    }

    fn recv_inner(&self, timeout: Option<Duration>) -> Result<Envelope<M>, Error> {
        self.tick()?;
        self.mailbox.borrow_mut().recv(timeout, |d| self.poll(d))
    }

    /// Blocking receive of the next message (buffered out-of-order
    /// envelopes first, in arrival order).
    ///
    /// # Errors
    /// [`Error::Hangup`] when a peer exits dirtily or every peer is gone;
    /// [`Error::Killed`] once the fault plan has killed this node.
    pub fn recv(&self) -> Result<Envelope<M>, Error> {
        self.recv_inner(None)
    }

    /// As [`NodeCtx::recv`] but gives up after `timeout`.
    ///
    /// # Errors
    /// [`Error::Timeout`] when the deadline expires, otherwise as
    /// [`NodeCtx::recv`].
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, Error> {
        self.recv_inner(Some(timeout))
    }

    fn recv_from_inner(&self, from: NodeId, timeout: Option<Duration>) -> Result<M, Error> {
        self.tick()?;
        self.mailbox.borrow_mut().recv_from(from, timeout, |d| self.poll(d))
    }

    /// Receives the next message from `from`, buffering envelopes that
    /// other senders interleave (they are replayed, in arrival order, by
    /// later receives).
    ///
    /// # Errors
    /// [`Error::Hangup`] if `from` has exited (other peers' departures are
    /// recorded but do not fail this call);
    /// [`Error::Killed`] once the fault plan has killed this node.
    pub fn recv_from(&self, from: NodeId) -> Result<M, Error> {
        self.recv_from_inner(from, None)
    }

    /// As [`NodeCtx::recv_from`] but gives up after `timeout`.
    ///
    /// # Errors
    /// [`Error::Timeout`] when the deadline expires, otherwise as
    /// [`NodeCtx::recv_from`].
    pub fn recv_from_timeout(&self, from: NodeId, timeout: Duration) -> Result<M, Error> {
        self.recv_from_inner(from, Some(timeout))
    }

    /// Whether `node` has been observed to exit (its departure
    /// notification may still be in flight — this reflects what this node
    /// has consumed so far).
    #[must_use]
    pub fn is_departed(&self, node: NodeId) -> bool {
        self.mailbox.borrow().is_departed(node)
    }

    /// All peers observed to have exited, in ascending id order.
    #[must_use]
    pub fn departed(&self) -> Vec<NodeId> {
        self.mailbox.borrow().departed()
    }
}

impl<M> Drop for NodeCtx<M> {
    fn drop(&mut self) {
        // A cleanly exiting node's held-back messages still reach their
        // destinations (a killed node's do not — it crashed holding them).
        let st = self.state.get_mut();
        if st.killed.is_some() {
            return;
        }
        for d in st.delayed.drain(..) {
            self.ledger.record(self.id, d.to, d.bytes);
            let _ = self.senders[d.to].send(Event::Msg(d.env));
        }
    }
}

/// Broadcasts this node's departure to every peer when dropped — on clean
/// return, error return, *and* panic — so no peer ever blocks forever on a
/// dead node (the fix for the join deadlock).
struct DepartureGuard<M> {
    id: NodeId,
    senders: Vec<Sender<Event<M>>>,
    clean: bool,
}

impl<M> Drop for DepartureGuard<M> {
    fn drop(&mut self) {
        vfps_obs::counter_add(
            if self.clean { "cluster.departures.clean" } else { "cluster.departures.dirty" },
            1,
        );
        for (to, tx) in self.senders.iter().enumerate() {
            if to != self.id {
                let _ = tx.send(Event::Departed { node: self.id, clean: self.clean });
            }
        }
    }
}

/// Configuration for [`run_cluster_fallible`]: which ledger records traffic
/// and which fault plan (if any) is injected.
#[derive(Clone, Debug, Default)]
pub struct ClusterOptions {
    /// Traffic ledger shared by all nodes.
    pub ledger: TrafficLedger,
    /// Deterministic fault script (empty by default).
    pub faults: FaultPlan,
}

fn run_cluster_impl<M, R>(
    node_fns: Vec<Box<dyn FnOnce(NodeCtx<M>) -> R + Send>>,
    opts: ClusterOptions,
    is_clean: fn(&R) -> bool,
) -> (Vec<R>, TrafficLedger)
where
    M: Wire + Send + 'static,
    R: Send + 'static,
{
    let n = node_fns.len();
    let ledger = opts.ledger;
    let faults = Arc::new(opts.faults);
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(rx);
    }
    let mut handles = Vec::with_capacity(n);
    for (id, (f, receiver)) in node_fns.into_iter().zip(receivers).enumerate() {
        let ctx = NodeCtx {
            id,
            senders: senders.clone(),
            receiver,
            ledger: ledger.clone(),
            faults: Arc::clone(&faults),
            state: RefCell::new(CtxState {
                ops: 0,
                link_seq: HashMap::new(),
                delayed: Vec::new(),
                killed: None,
            }),
            mailbox: RefCell::new(Mailbox::new(n.saturating_sub(1))),
        };
        let guard_senders = senders.clone();
        handles.push(std::thread::spawn(move || {
            let mut guard = DepartureGuard { id, senders: guard_senders, clean: false };
            let out = f(ctx);
            guard.clean = is_clean(&out);
            out
        }));
    }
    drop(senders);
    // Join EVERY thread before propagating any panic: departure broadcasts
    // guarantee each one terminates, and draining them all first is what
    // turns "one node panicked" from a deadlock into a clean unwind.
    let joined: Vec<Result<R, Box<dyn std::any::Any + Send>>> =
        handles.into_iter().map(std::thread::JoinHandle::join).collect();
    let mut results = Vec::with_capacity(n);
    let mut panic_payload = None;
    for j in joined {
        match j {
            Ok(r) => results.push(r),
            Err(p) => {
                if panic_payload.is_none() {
                    panic_payload = Some(p);
                }
            }
        }
    }
    if let Some(p) = panic_payload {
        std::panic::resume_unwind(p);
    }
    (results, ledger)
}

/// Spawns `node_fns.len()` nodes, runs them to completion, and returns their
/// results plus the traffic ledger.
///
/// # Panics
/// Propagates panics from node threads — after draining every other
/// thread, so a panicking node can no longer deadlock the join loop.
pub fn run_cluster<M, R>(
    node_fns: Vec<Box<dyn FnOnce(NodeCtx<M>) -> R + Send>>,
) -> (Vec<R>, TrafficLedger)
where
    M: Wire + Send + 'static,
    R: Send + 'static,
{
    run_cluster_impl(node_fns, ClusterOptions::default(), |_| true)
}

/// A fallible node body, as consumed by [`run_cluster_fallible`].
pub type FallibleNodeFn<M, R> = Box<dyn FnOnce(NodeCtx<M>) -> Result<R, Error> + Send>;

/// Runs fallible node bodies: a node returning `Err` departs *dirty* (its
/// peers observe [`Error::Hangup`]), one returning `Ok` departs clean.
/// Unlike [`run_cluster`], node failures come back as values instead of
/// unwinding, so callers can degrade instead of aborting.
pub fn run_cluster_fallible<M, R>(
    node_fns: Vec<FallibleNodeFn<M, R>>,
    opts: ClusterOptions,
) -> (Vec<Result<R, Error>>, TrafficLedger)
where
    M: Wire + Send + 'static,
    R: Send + 'static,
{
    run_cluster_impl(node_fns, opts, Result::is_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass_accumulates_traffic() {
        // Node 0 sends a token around a 4-node ring; each hop adds one.
        let n = 4;
        let fns: Vec<Box<dyn FnOnce(NodeCtx<u64>) -> u64 + Send>> = (0..n)
            .map(|i| {
                Box::new(move |ctx: NodeCtx<u64>| {
                    if i == 0 {
                        ctx.send(1, 1u64).unwrap();
                        ctx.recv().unwrap().msg
                    } else {
                        let v = ctx.recv().unwrap().msg;
                        ctx.send((i + 1) % n, v + 1).unwrap();
                        v
                    }
                }) as Box<dyn FnOnce(NodeCtx<u64>) -> u64 + Send>
            })
            .collect();
        let (results, ledger) = run_cluster(fns);
        assert_eq!(results[0], 4, "token incremented by three intermediate hops + 1");
        assert_eq!(ledger.total_messages(), 4);
        assert_eq!(ledger.total_bytes(), 4 * 8, "four u64 hops");
    }

    #[test]
    fn star_aggregation() {
        // Nodes 1..4 send a vector to node 0, which sums them.
        type SumNodeFn = Box<dyn FnOnce(NodeCtx<Vec<f64>>) -> f64 + Send>;
        let fns: Vec<SumNodeFn> = (0..4)
            .map(|i| {
                Box::new(move |ctx: NodeCtx<Vec<f64>>| {
                    if i == 0 {
                        let mut total = 0.0;
                        for _ in 0..3 {
                            total += ctx.recv().unwrap().msg.iter().sum::<f64>();
                        }
                        total
                    } else {
                        ctx.send(0, vec![i as f64; 2]).unwrap();
                        0.0
                    }
                }) as SumNodeFn
            })
            .collect();
        let (results, ledger) = run_cluster(fns);
        assert_eq!(results[0], 12.0, "2*(1+2+3)");
        // Each message: 4-byte length + 2 f64 = 20 bytes.
        let snap = ledger.snapshot();
        assert_eq!(snap[&(1, 0)].bytes, 20);
        assert_eq!(snap[&(2, 0)].messages, 1);
    }

    #[test]
    fn recv_from_enforces_order() {
        let fns: Vec<Box<dyn FnOnce(NodeCtx<u8>) -> u8 + Send>> = vec![
            Box::new(|ctx: NodeCtx<u8>| {
                let v = ctx.recv_from(1).unwrap();
                v + 1
            }),
            Box::new(|ctx: NodeCtx<u8>| {
                ctx.send(0, 41).unwrap();
                0
            }),
        ];
        let (results, _) = run_cluster(fns);
        assert_eq!(results[0], 42);
    }

    #[test]
    fn recv_from_buffers_other_senders() {
        // Node 2's message is guaranteed to land before node 1's, yet node
        // 0 asks for node 1 first: the old API panicked here, the new one
        // buffers node 2's envelope and replays it in arrival order.
        let fns: Vec<Box<dyn FnOnce(NodeCtx<u8>) -> u8 + Send>> = vec![
            Box::new(|ctx: NodeCtx<u8>| {
                let a = ctx.recv_from(1).unwrap();
                let b = ctx.recv_from(2).unwrap();
                a * 10 + b
            }),
            Box::new(|ctx: NodeCtx<u8>| {
                // Wait until node 2's message has certainly been consumed
                // into the buffer path by ordering: 2 sends, then pings 1.
                let go = ctx.recv_from(2).unwrap();
                ctx.send(0, go).unwrap();
                0
            }),
            Box::new(|ctx: NodeCtx<u8>| {
                ctx.send(0, 7).unwrap();
                ctx.send(1, 4).unwrap();
                0
            }),
        ];
        let (results, _) = run_cluster(fns);
        assert_eq!(results[0], 47);
    }

    #[test]
    fn clean_exit_of_all_peers_surfaces_hangup() {
        let fns: Vec<Box<dyn FnOnce(NodeCtx<u8>) -> bool + Send>> = vec![
            Box::new(|ctx: NodeCtx<u8>| {
                let _ = ctx.recv_from(1).unwrap();
                // Peer is gone now; a further receive must error, not hang.
                matches!(ctx.recv(), Err(Error::Hangup { peer: 1 }))
            }),
            Box::new(|ctx: NodeCtx<u8>| {
                ctx.send(0, 1).unwrap();
                true
            }),
        ];
        let (results, _) = run_cluster(fns);
        assert!(results[0]);
    }

    #[test]
    fn fault_kill_returns_killed_error() {
        let opts =
            ClusterOptions { ledger: TrafficLedger::new(), faults: FaultPlan::new().kill_at(1, 0) };
        let fns: Vec<FallibleNodeFn<u8, u8>> = vec![
            Box::new(|ctx: NodeCtx<u8>| {
                // Node 1 dies on its first op; we must see its hangup.
                match ctx.recv_from(1) {
                    Err(Error::Hangup { peer: 1 }) => Ok(0),
                    other => panic!("expected hangup of node 1, got {other:?}"),
                }
            }),
            Box::new(|ctx: NodeCtx<u8>| {
                ctx.send(0, 9)?; // killed at op 0: this fails
                Ok(1)
            }),
        ];
        let (results, ledger) = run_cluster_fallible(fns, opts);
        assert_eq!(results[0], Ok(0));
        assert_eq!(results[1], Err(Error::Killed { node: 1, op: 0 }));
        assert_eq!(ledger.total_messages(), 0, "killed before any send");
    }

    #[test]
    fn fault_drop_loses_message_silently() {
        let opts = ClusterOptions {
            ledger: TrafficLedger::new(),
            faults: FaultPlan::new().drop_nth(1, 0, 0),
        };
        let fns: Vec<FallibleNodeFn<u8, u8>> = vec![
            Box::new(|ctx: NodeCtx<u8>| {
                // First message dropped: only the retry arrives.
                let v = ctx.recv_from(1)?;
                Ok(v)
            }),
            Box::new(|ctx: NodeCtx<u8>| {
                ctx.send(0, 1)?; // dropped in flight
                ctx.send(0, 2)?; // delivered
                Ok(0)
            }),
        ];
        let (results, ledger) = run_cluster_fallible(fns, opts);
        assert_eq!(results[0], Ok(2));
        assert_eq!(ledger.total_messages(), 1, "dropped message is not billed");
    }

    #[test]
    fn fault_delay_reorders_but_flushes_before_block() {
        let opts = ClusterOptions {
            ledger: TrafficLedger::new(),
            // Hold node 1's first message to node 0 for 10 ops: its second
            // message overtakes it; the hold is flushed when node 1 blocks.
            faults: FaultPlan::new().delay_nth(1, 0, 0, 10),
        };
        let fns: Vec<FallibleNodeFn<u8, Vec<u8>>> = vec![
            Box::new(|ctx: NodeCtx<u8>| {
                let a = ctx.recv()?.msg;
                let b = ctx.recv()?.msg;
                ctx.send(1, 0)?;
                Ok(vec![a, b])
            }),
            Box::new(|ctx: NodeCtx<u8>| {
                ctx.send(0, 1)?; // held
                ctx.send(0, 2)?; // overtakes
                let _ = ctx.recv_from(0)?; // blocking: flushes the hold first
                Ok(vec![])
            }),
        ];
        let (results, ledger) = run_cluster_fallible(fns, opts);
        assert_eq!(results[0].as_ref().unwrap(), &vec![2, 1], "delay reordered the pair");
        assert_eq!(ledger.total_messages(), 3, "held message still billed on delivery");
    }

    #[test]
    fn recv_timeout_expires_on_silence() {
        let fns: Vec<FallibleNodeFn<u8, u8>> = vec![
            Box::new(|ctx: NodeCtx<u8>| {
                match ctx.recv_timeout(Duration::from_millis(20)) {
                    Err(Error::Timeout { .. }) => {}
                    other => panic!("expected timeout, got {other:?}"),
                }
                // Unblock node 1.
                ctx.send(1, 1)?;
                Ok(0)
            }),
            Box::new(|ctx: NodeCtx<u8>| {
                let v = ctx.recv_from(0)?;
                Ok(v)
            }),
        ];
        let (results, _) = run_cluster_fallible(fns, ClusterOptions::default());
        assert_eq!(results[1], Ok(1));
    }
}
