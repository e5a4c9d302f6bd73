//! The coordinator hub: node 0 of the protocol, plus the router that
//! carries every other node's traffic.
//!
//! The hub dials each party daemon (one socket per party, with a
//! reconnect budget for the idempotent setup/probe phase), ships a
//! [`SetupFrame`], and then becomes the session's message plane: a reader
//! thread per daemon turns inbound [`ClusterMsg::Routed`] frames into
//! either node-0 deliveries or daemon→daemon relays, and socket death is
//! classified onto the [`vfps_net::Error`] taxonomy and broadcast to the
//! survivors as [`ClusterMsg::Departed`] — exactly the departure
//! machinery the simulated cluster implements in-process.
//!
//! The [`Hub`] itself implements [`Channel<ProtoMsg>`], so
//! [`knn_server_node`](vfps_vfl::knn_server_node) runs over it unchanged.
//!
//! Reconnects are *setup-scoped*: a connect or probe may be retried
//! because it is idempotent, but a socket lost mid-protocol is a peer
//! death (the daemon's session state died with the stream), surfaced as a
//! departure so the PR-2 degradation paths take over.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex};
use vfps_net::channel::{Channel, Event, Mailbox};
use vfps_net::cluster::Envelope;
use vfps_net::wire::Wire;
use vfps_net::{Conn, Error, NodeId, TransportFailure};
use vfps_vfl::fed_knn::QueryOutcome;
use vfps_vfl::{KnnSession, ProtoMsg};

use crate::msg::{ClusterMsg, SchemeSpec, SetupFrame};

/// Connection-supervision knobs for a coordinator.
#[derive(Clone, Copy, Debug)]
pub struct HubOptions {
    /// Per-attempt TCP connect deadline.
    pub connect_timeout: Duration,
    /// Total connect attempts per daemon (the reconnect budget: up to
    /// `connect_budget - 1` retries).
    pub connect_budget: u32,
    /// Sleep between connect attempts.
    pub connect_backoff: Duration,
    /// Read deadline for setup-phase replies (`Ready`, `Pong`).
    pub io_timeout: Duration,
    /// How long to wait for a daemon's terminal frame after the server
    /// body returns.
    pub result_timeout: Duration,
}

impl Default for HubOptions {
    fn default() -> Self {
        HubOptions {
            connect_timeout: Duration::from_secs(2),
            connect_budget: 40,
            connect_backoff: Duration::from_millis(50),
            io_timeout: Duration::from_secs(10),
            result_timeout: Duration::from_secs(10),
        }
    }
}

/// Payload-level traffic counters for one coordinator⇄daemon link.
#[derive(Clone, Copy, Debug, Default)]
pub struct PartyLinkStats {
    /// Routed protocol frames received from the daemon (whatever their
    /// destination).
    pub frames_in: u64,
    /// Encoded [`ProtoMsg`] bytes received from the daemon.
    pub bytes_in: u64,
    /// Routed protocol frames node 0 sent to the daemon.
    pub frames_out: u64,
    /// Encoded [`ProtoMsg`] bytes node 0 sent to the daemon.
    pub bytes_out: u64,
}

/// One cluster run's transport accounting.
#[derive(Clone, Debug, Default)]
pub struct ClusterStats {
    /// Per-slot link counters.
    pub per_party: Vec<PartyLinkStats>,
    /// Successful daemon connections.
    pub connects: u64,
    /// Connect retries consumed out of the budget.
    pub reconnects: u64,
    /// Abrupt daemon deaths observed (socket died with no terminal frame
    /// — the signature of a `SIGKILL`).
    pub kills_observed: u64,
}

impl ClusterStats {
    /// Total encoded protocol bytes, counted once per logical send — the
    /// quantity the simulated [`TrafficLedger`](vfps_net::TrafficLedger)
    /// reports, so the two backends are comparable (and, fault-free,
    /// equal).
    #[must_use]
    pub fn logical_bytes(&self) -> u64 {
        self.per_party.iter().map(|s| s.bytes_in + s.bytes_out).sum()
    }

    /// Total protocol messages, counted once per logical send.
    #[must_use]
    pub fn logical_messages(&self) -> u64 {
        self.per_party.iter().map(|s| s.frames_in + s.frames_out).sum()
    }
}

/// Per-link atomics behind [`PartyLinkStats`].
#[derive(Default)]
struct LinkCounters {
    frames_in: AtomicU64,
    bytes_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_out: AtomicU64,
}

/// A daemon's terminal result as observed by the hub.
type SlotResult = Result<(Vec<QueryOutcome>, Vec<usize>), Error>;

/// State shared between the hub and its reader threads.
struct HubShared {
    writers: Vec<Mutex<Conn>>,
    /// Authoritative departure record (`Some(clean)`), used to fire each
    /// departure's broadcast exactly once.
    departed: Mutex<Vec<Option<bool>>>,
    /// Terminal results, filled by reader threads.
    results: Mutex<Vec<Option<SlotResult>>>,
    /// Notified whenever a slot of `results` is filled.
    result_set: Condvar,
    tx: Sender<Event<ProtoMsg>>,
    links: Vec<LinkCounters>,
    kills_observed: AtomicU64,
    shutdown: AtomicBool,
}

impl HubShared {
    fn write_to(&self, slot: usize, frame: &ClusterMsg) -> std::io::Result<()> {
        self.writers[slot].lock().send(frame)
    }

    /// Records a departure exactly once: event to node 0, broadcast to the
    /// surviving daemons. `abrupt` marks a socket that died without a
    /// terminal frame — a killed process.
    fn depart(&self, slot: usize, clean: bool, abrupt: bool) {
        {
            let mut d = self.departed.lock();
            if d[slot].is_some() {
                return;
            }
            d[slot] = Some(clean);
        }
        if abrupt {
            self.kills_observed.fetch_add(1, Ordering::Relaxed);
            vfps_obs::counter_add("cluster.kills_observed", 1);
        }
        let node = 1 + slot;
        let _ = self.tx.send(Event::Departed { node, clean });
        let gone: Vec<usize> = {
            let d = self.departed.lock();
            (0..d.len()).filter(|&s| d[s].is_some()).collect()
        };
        for other in 0..self.writers.len() {
            if other != slot && !gone.contains(&other) {
                let _ = self.write_to(other, &ClusterMsg::Departed { node, clean });
            }
        }
    }

    /// Stores a slot's terminal result (first writer wins).
    fn set_result(&self, slot: usize, r: SlotResult) {
        let mut res = self.results.lock();
        if res[slot].is_none() {
            res[slot] = Some(r);
            self.result_set.notify_all();
        }
    }

    fn has_result(&self, slot: usize) -> bool {
        self.results.lock()[slot].is_some()
    }

    fn link_stats(&self) -> Vec<PartyLinkStats> {
        self.links
            .iter()
            .map(|l| PartyLinkStats {
                frames_in: l.frames_in.load(Ordering::Relaxed),
                bytes_in: l.bytes_in.load(Ordering::Relaxed),
                frames_out: l.frames_out.load(Ordering::Relaxed),
                bytes_out: l.bytes_out.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// A detachable, `Send + Sync` live view of the hub's transport counters.
///
/// The [`Hub`] itself is not `Sync` (its node-0 inbox is single-consumer),
/// so a supervisor thread cannot poll `hub.stats()` while another thread
/// drives the protocol. A probe can: the kill-matrix harness uses one to
/// gate a real `SIGKILL` on observed protocol progress (frames seen from
/// the victim daemon) instead of wall-clock guesswork.
#[derive(Clone)]
pub struct StatsProbe {
    shared: Arc<HubShared>,
    connects: u64,
    reconnects: u64,
}

impl StatsProbe {
    /// Snapshot of the run's transport accounting so far.
    #[must_use]
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            per_party: self.shared.link_stats(),
            connects: self.connects,
            reconnects: self.reconnects,
            kills_observed: self.shared.kills_observed.load(Ordering::Relaxed),
        }
    }
}

/// Dials `addr`, retrying within the budget. Returns the connection, its
/// read deadline armed for the setup phase, and how many retries were
/// consumed.
fn connect_with_budget(addr: &str, opts: &HubOptions) -> std::io::Result<(Conn, u64)> {
    let mut retries = 0u64;
    let mut last_err = None;
    for attempt in 0..opts.connect_budget.max(1) {
        if attempt > 0 {
            retries += 1;
            vfps_obs::counter_add("cluster.reconnects", 1);
            std::thread::sleep(opts.connect_backoff);
        }
        match Conn::connect_timeout(addr, opts.connect_timeout) {
            Ok(conn) => {
                vfps_obs::counter_add("cluster.connects", 1);
                conn.set_read_timeout(Some(opts.io_timeout))?;
                return Ok((conn, retries));
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("the budget allows at least one attempt"))
}

/// Idempotent health probe: dials `addr` within the reconnect budget,
/// sends [`ClusterMsg::Ping`], and waits for the matching pong. Safe to
/// retry any number of times — the daemon holds no state for it.
///
/// # Errors
/// I/O error when the budget is spent or the daemon answers with anything
/// but the matching pong within the deadline.
pub fn ping_party(addr: &str, opts: &HubOptions) -> std::io::Result<Duration> {
    let (conn, _) = connect_with_budget(addr, opts)?;
    let nonce = 0x7666_7073_7069_6e67; // arbitrary, echoed back verbatim
    let started = Instant::now();
    match conn.call(&ClusterMsg::Ping { nonce }) {
        Ok(ClusterMsg::Pong { nonce: n }) if n == nonce => Ok(started.elapsed()),
        Ok(other) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{addr}: expected Pong, got {other:?}"),
        )),
        Err(failure) => Err(std::io::Error::other(format!("{addr}: {failure}"))),
    }
}

/// The coordinator: dials the daemons, runs setup, relays traffic, and
/// acts as node 0 of the protocol via its [`Channel`] implementation.
pub struct Hub {
    shared: Arc<HubShared>,
    rx: Receiver<Event<ProtoMsg>>,
    /// Node 0's receive state; its peers are the `p` daemons.
    mailbox: RefCell<Mailbox<ProtoMsg>>,
    readers: Vec<JoinHandle<()>>,
    reconnects: u64,
    p: usize,
}

impl Hub {
    /// Dials one daemon per consortium slot and ships each its
    /// [`SetupFrame`], then waits for every [`ClusterMsg::Ready`] in slot
    /// order — every daemon is building its keys and local view while the
    /// first is still being waited for — and starts the relay plane.
    ///
    /// # Errors
    /// I/O error when a daemon cannot be reached within its connect
    /// budget, refuses the setup, or fails the `Ready` handshake.
    pub fn connect(
        addrs: &[String],
        session: &KnnSession,
        shuffle_seed: u64,
        scheme: SchemeSpec,
        opts: &HubOptions,
    ) -> std::io::Result<Hub> {
        let p = session.parties.len();
        assert_eq!(addrs.len(), p, "one daemon address per consortium slot");
        let mut conns = Vec::with_capacity(p);
        let mut reconnects = 0u64;
        for (slot, addr) in addrs.iter().enumerate() {
            let (conn, retries) = connect_with_budget(addr, opts)?;
            reconnects += retries;
            let setup = SetupFrame::for_slot(session, shuffle_seed, slot, scheme);
            conn.send(&ClusterMsg::Setup(setup))?;
            conns.push(conn);
        }
        for ((conn, addr), &party) in conns.iter().zip(addrs).zip(&session.parties) {
            match conn.recv::<ClusterMsg>() {
                Ok(Some(ClusterMsg::Ready { party_id })) if party_id == party => {}
                Ok(Some(ClusterMsg::Failed(ef))) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("{addr}: daemon refused setup: {}", ef.to_error()),
                    ));
                }
                Ok(other) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("{addr}: expected Ready for party {party}, got {other:?}"),
                    ));
                }
                Err(e) => {
                    return Err(std::io::Error::other(format!(
                        "{addr}: ready handshake failed: {e}"
                    )));
                }
            }
        }

        let (tx, rx) = unbounded();
        let shared = Arc::new(HubShared {
            writers: conns
                .iter()
                .map(|c| c.try_clone().map(Mutex::new))
                .collect::<std::io::Result<_>>()?,
            departed: Mutex::new(vec![None; p]),
            results: Mutex::new((0..p).map(|_| None).collect()),
            result_set: Condvar::new(),
            tx,
            links: (0..p).map(|_| LinkCounters::default()).collect(),
            kills_observed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let readers = conns
            .into_iter()
            .enumerate()
            .map(|(slot, conn)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hub-reader-{slot}"))
                    .spawn(move || reader_loop(&shared, slot, &conn))
                    .expect("spawn hub reader")
            })
            .collect();
        Ok(Hub { shared, rx, mailbox: RefCell::new(Mailbox::new(p)), readers, reconnects, p })
    }

    /// Waits up to `deadline` for `slot`'s terminal result. `None` when
    /// the daemon reported nothing in time (it is then presumed dead).
    pub fn wait_result(&self, slot: usize, deadline: Duration) -> Option<SlotResult> {
        let until = Instant::now() + deadline;
        let mut results = self.shared.results.lock();
        loop {
            if let Some(r) = &results[slot] {
                return Some(r.clone());
            }
            let remaining = until.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            self.shared.result_set.wait_for(&mut results, remaining);
        }
    }

    /// Tells every daemon still in session that node 0 has left dirtily —
    /// what the simulated cluster broadcasts when a node body fails. A
    /// participant blocked on the server's next message gets its hangup
    /// now instead of at its deadline. (A clean exit needs no notice: the
    /// server body returns only after the last barrier, when no peer
    /// awaits node 0.)
    pub(crate) fn announce_server_failure(&self) {
        let gone = self.shared.departed.lock().clone();
        for slot in (0..self.p).filter(|&s| gone[s].is_none()) {
            let _ = self.shared.write_to(slot, &ClusterMsg::Departed { node: 0, clean: false });
        }
    }

    /// Blocks up to `d` for the next event from the reader threads.
    fn poll(&self, d: Duration) -> Result<Option<Event<ProtoMsg>>, Error> {
        match self.rx.recv_timeout(d) {
            Ok(event) => Ok(Some(event)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            // `shared` holds the sending half, so this cannot happen.
            Err(RecvTimeoutError::Disconnected) => Err(Error::Hangup { peer: 0 }),
        }
    }

    /// Snapshot of the run's transport accounting.
    #[must_use]
    pub fn stats(&self) -> ClusterStats {
        self.probe().stats()
    }

    /// A detachable [`StatsProbe`] over this hub's counters, for
    /// supervisor threads that watch progress while the protocol runs.
    #[must_use]
    pub fn probe(&self) -> StatsProbe {
        StatsProbe {
            shared: Arc::clone(&self.shared),
            connects: self.p as u64,
            reconnects: self.reconnects,
        }
    }

    /// Tears the relay plane down: closes every daemon socket and joins
    /// the reader threads.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for w in &self.shared.writers {
            w.lock().shutdown();
        }
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Hub {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One daemon socket's read loop: routes protocol frames, records
/// terminal results, classifies socket death onto the taxonomy.
fn reader_loop(shared: &HubShared, slot: usize, conn: &Conn) {
    let p = shared.writers.len();
    let me = 1 + slot;
    // Whole frames, however slowly they arrive: a deadline that fired
    // inside one would lose the bytes already read. `Hub::shutdown` closes
    // the socket, which wakes a blocked `recv`.
    let _ = conn.set_read_timeout(None);
    let violation = |detail: String| {
        shared.set_result(slot, Err(Error::violation(detail)));
        shared.depart(slot, false, false);
    };
    loop {
        let frame = conn.recv::<ClusterMsg>();
        // An EOF or error the hub's own shutdown caused is not a death.
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match frame {
            Ok(Some(ClusterMsg::Routed { from, to, payload })) => {
                vfps_obs::counter_add("cluster.frames", 1);
                if from != me {
                    violation(format!("daemon {me} forged sender {from}"));
                    return;
                }
                let link = &shared.links[slot];
                link.frames_in.fetch_add(1, Ordering::Relaxed);
                link.bytes_in.fetch_add(payload.len() as u64, Ordering::Relaxed);
                if to == 0 {
                    match ProtoMsg::from_bytes(&payload) {
                        Ok(msg) => {
                            let _ = shared.tx.send(Event::Msg(Envelope { from, msg }));
                        }
                        Err(e) => {
                            violation(format!("undecodable payload from node {me}: {e}"));
                            return;
                        }
                    }
                } else if to >= 1 && to <= p && to != me {
                    let dest = to - 1;
                    if shared.write_to(dest, &ClusterMsg::Routed { from, to, payload }).is_err() {
                        // The destination's socket is dead; its own reader
                        // will usually notice first, but whoever loses the
                        // race is a no-op.
                        shared.depart(dest, false, true);
                    }
                } else {
                    violation(format!("daemon {me} routed to invalid node {to}"));
                    return;
                }
            }
            Ok(Some(ClusterMsg::Finished { outcomes, dead_slots })) => {
                shared.set_result(slot, Ok((outcomes, dead_slots)));
                shared.depart(slot, true, false);
                return;
            }
            Ok(Some(ClusterMsg::Failed(ef))) => {
                shared.set_result(slot, Err(ef.to_error()));
                shared.depart(slot, false, false);
                return;
            }
            Ok(Some(other)) => {
                violation(format!("unexpected frame from daemon {me}: {other:?}"));
                return;
            }
            // Clean EOF. After a terminal frame this is the normal close;
            // without one the process died silently — the SIGKILL
            // signature.
            Ok(None) => {
                if !shared.has_result(slot) {
                    shared.set_result(slot, Err(Error::Hangup { peer: me }));
                    shared.depart(slot, false, true);
                }
                return;
            }
            Err(e) => {
                match TransportFailure::classify_frame(&e, Duration::ZERO) {
                    TransportFailure::Protocol { detail } => {
                        violation(format!("daemon {me}: {detail}"));
                    }
                    // Resets and mid-frame EOFs: abrupt death.
                    _ => {
                        if !shared.has_result(slot) {
                            shared.set_result(slot, Err(Error::Hangup { peer: me }));
                            shared.depart(slot, false, true);
                        }
                    }
                }
                return;
            }
        }
    }
}

impl Channel<ProtoMsg> for Hub {
    fn send(&self, to: NodeId, msg: ProtoMsg) -> Result<(), Error> {
        if self.is_departed(to) {
            return Err(Error::Hangup { peer: to });
        }
        if to == 0 || to > self.p {
            return Err(Error::violation(format!("node 0 sending to invalid node {to}")));
        }
        let payload = msg.to_bytes();
        let bytes = payload.len() as u64;
        let frame = ClusterMsg::Routed { from: 0, to, payload };
        match self.shared.write_to(to - 1, &frame) {
            Ok(()) => {
                let link = &self.shared.links[to - 1];
                link.frames_out.fetch_add(1, Ordering::Relaxed);
                link.bytes_out.fetch_add(bytes, Ordering::Relaxed);
                vfps_obs::counter_add("cluster.frames", 1);
                Ok(())
            }
            Err(_) => {
                self.shared.depart(to - 1, false, true);
                Err(Error::Hangup { peer: to })
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<ProtoMsg>, Error> {
        self.mailbox.borrow_mut().recv(Some(timeout), |d| self.poll(d))
    }

    fn recv_from_timeout(&self, from: NodeId, timeout: Duration) -> Result<ProtoMsg, Error> {
        self.mailbox.borrow_mut().recv_from(from, Some(timeout), |d| self.poll(d))
    }

    fn is_departed(&self, node: NodeId) -> bool {
        self.mailbox.borrow().is_departed(node)
    }
}
