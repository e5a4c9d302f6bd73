//! The party daemon: one process (or thread) holding one party's feature
//! columns, serving fed-KNN protocol sessions over a TCP socket.
//!
//! A daemon listens, accepts one coordinator connection at a time, and per
//! connection answers [`ClusterMsg::Ping`] probes and at most one
//! [`ClusterMsg::Setup`] — the session runs the *same*
//! [`knn_participant_node`] body the simulated cluster runs, over a
//! [`PartyChannel`] that implements [`Channel<ProtoMsg>`] on the socket.
//! Bad frames from a peer never kill the daemon: the connection is
//! answered with a typed [`ClusterMsg::Failed`] (or dropped) and the
//! accept loop continues.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, SystemTime};

use vfps_data::VerticalPartition;
use vfps_he::scheme::{AdditiveHe, PaillierHe, PlainHe};
use vfps_ml::linalg::Matrix;
use vfps_net::channel::{Channel, Event, Mailbox};
use vfps_net::cluster::Envelope;
use vfps_net::wire::Wire;
use vfps_net::{Conn, Error, NodeId, TransportFailure};
use vfps_vfl::{knn_participant_node, KnnSession, ProtoMsg};

use crate::msg::{ClusterMsg, ErrorFrame, SchemeKind, SchemeSpec, SetupFrame};

/// How long a daemon waits for the first frame of a connection (and
/// between control frames) before giving up on the peer.
const SETUP_TIMEOUT: Duration = Duration::from_secs(30);

/// Operational knobs for one party daemon.
#[derive(Clone, Debug)]
pub struct PartyConfig {
    /// The party id this daemon holds columns for. Setups naming another
    /// party at this daemon's slot are refused.
    pub party_id: usize,
    /// Serve this many protocol sessions, then return (`None` = forever).
    pub max_sessions: Option<usize>,
    /// Fault knob: die *abruptly* — socket dropped mid-protocol, no
    /// `Failed` frame — after this many channel operations. The in-process
    /// analogue of `SIGKILL` at a deterministic protocol point; the
    /// process-level kill matrix uses real signals instead.
    pub kill_after_ops: Option<u64>,
}

impl PartyConfig {
    /// A well-behaved daemon for `party_id` serving sessions forever.
    #[must_use]
    pub fn new(party_id: usize) -> Self {
        PartyConfig { party_id, max_sessions: None, kill_after_ops: None }
    }
}

/// What a bounded [`serve_party`] run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartyReport {
    /// Protocol sessions entered (including killed ones).
    pub sessions: usize,
    /// Whether the kill knob fired during the last session.
    pub killed: bool,
}

/// Runs the daemon accept loop over `listener`.
///
/// Returns after [`PartyConfig::max_sessions`] protocol sessions, or never
/// (propagating only `accept` failures) when unbounded.
///
/// # Errors
/// Only on listener-level I/O failure; per-connection errors are handled
/// by refusing the connection and continuing.
pub fn serve_party(
    listener: &TcpListener,
    x: &Matrix,
    partition: &VerticalPartition,
    cfg: &PartyConfig,
) -> std::io::Result<PartyReport> {
    let mut report = PartyReport::default();
    loop {
        if let Some(max) = cfg.max_sessions {
            if report.sessions >= max {
                return Ok(report);
            }
        }
        let (stream, _peer) = listener.accept()?;
        vfps_obs::counter_add("cluster.party.connections", 1);
        match handle_conn(&Conn::adopt(stream), x, partition, cfg) {
            ConnOutcome::Probe => {}
            ConnOutcome::Session { killed } => {
                report.sessions += 1;
                report.killed = killed;
            }
        }
    }
}

enum ConnOutcome {
    /// Pings only (or garbage); no protocol session ran.
    Probe,
    /// A `Setup` was received and a session ran (possibly dying mid-way).
    Session { killed: bool },
}

/// Serves one coordinator connection: answers pings until a `Setup`
/// arrives, then runs the protocol session and closes.
fn handle_conn(
    conn: &Conn,
    x: &Matrix,
    partition: &VerticalPartition,
    cfg: &PartyConfig,
) -> ConnOutcome {
    loop {
        if conn.set_read_timeout(Some(SETUP_TIMEOUT)).is_err() {
            return ConnOutcome::Probe;
        }
        match conn.recv::<ClusterMsg>() {
            Ok(Some(ClusterMsg::Ping { nonce })) => {
                if conn.send(&ClusterMsg::Pong { nonce }).is_err() {
                    return ConnOutcome::Probe;
                }
            }
            Ok(Some(ClusterMsg::Setup(frame))) => {
                return run_setup(conn, x, partition, cfg, &frame);
            }
            Ok(Some(other)) => {
                refuse(conn, Error::violation(format!("expected Setup or Ping, got {other:?}")));
                return ConnOutcome::Probe;
            }
            // Peer closed between frames (health probe done), or sent
            // bytes the codec rejects: refuse and survive either way.
            Ok(None) => return ConnOutcome::Probe,
            Err(e) => {
                let failure = TransportFailure::classify_frame(&e, SETUP_TIMEOUT);
                if let TransportFailure::Protocol { detail } = failure {
                    refuse(conn, Error::violation(detail));
                }
                return ConnOutcome::Probe;
            }
        }
    }
}

/// Best-effort typed refusal; the peer may already be gone.
fn refuse(conn: &Conn, e: Error) {
    let _ = conn.send(&ClusterMsg::Failed(ErrorFrame::from_error(&e)));
}

/// Validates a setup and dispatches to the scheme-monomorphized session
/// runner. A refused setup (typed refusal sent) never entered the
/// protocol, so it counts as a [`ConnOutcome::Probe`]: the connection is
/// spent, the session budget is not.
fn run_setup(
    conn: &Conn,
    x: &Matrix,
    partition: &VerticalPartition,
    cfg: &PartyConfig,
    frame: &SetupFrame,
) -> ConnOutcome {
    let session = match frame.session() {
        Ok(s) => s,
        Err(e) => {
            refuse(conn, e);
            return ConnOutcome::Probe;
        }
    };
    if session.parties[frame.slot] != cfg.party_id {
        refuse(
            conn,
            Error::violation(format!(
                "slot {} names party {}, daemon holds party {}",
                frame.slot, session.parties[frame.slot], cfg.party_id
            )),
        );
        return ConnOutcome::Probe;
    }
    match frame.scheme.kind {
        SchemeKind::Plain => {
            let he = Arc::new(PlainHe::new(frame.scheme.batch.max(1)));
            ConnOutcome::Session {
                killed: run_session(conn, &he, &session, frame.slot, x, partition, cfg),
            }
        }
        SchemeKind::Paillier => match session_paillier(&frame.scheme, cfg.party_id) {
            Ok(he) => {
                let he = Arc::new(he);
                ConnOutcome::Session {
                    killed: run_session(conn, &he, &session, frame.slot, x, partition, cfg),
                }
            }
            Err(e) => {
                refuse(conn, Error::violation(format!("scheme generation failed: {e}")));
                ConnOutcome::Probe
            }
        },
    }
}

/// The Paillier scheme for one session of party `party_id` under `spec`.
///
/// Every daemon derives the whole key pair from the spec's seed, so the
/// leader can decrypt what the others encrypt. The derived material —
/// keypair, encryptor table, CRT constants — is kept in a single-entry,
/// process-wide cache keyed by the full spec, so a daemon serving
/// back-to-back sessions pays keygen once; a failing generation (an
/// oversized key) leaves the cache as it was. The noise stream is never
/// the spec's: each session draws from [`session_noise_seed`], so two
/// parties — or two sessions — encrypting equal plaintexts do not produce
/// equal ciphertexts, and dividing one party's ciphertext by another's
/// does not cancel the noise.
fn session_paillier(spec: &SchemeSpec, party_id: usize) -> vfps_he::Result<PaillierHe> {
    static KEYS: Mutex<Option<(SchemeSpec, Arc<PaillierHe>)>> = Mutex::new(None);
    let keys = {
        let mut cached = KEYS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match &*cached {
            Some((cached_spec, he)) if cached_spec == spec => Arc::clone(he),
            _ => {
                let he = Arc::new(PaillierHe::generate(spec.key_bits, spec.batch, spec.seed)?);
                *cached = Some((*spec, Arc::clone(&he)));
                he
            }
        }
    };
    Ok(keys.with_noise_seed(session_noise_seed(party_id)))
}

/// A noise seed no other session of this process, and no other party,
/// draws: the party id and a cursor that advances with every session,
/// hashed under per-process entropy (a [`RandomState`]'s OS-seeded keys,
/// drawn once, plus the clock and the process id).
fn session_noise_seed(party_id: usize) -> u64 {
    static ENTROPY: OnceLock<(RandomState, u128)> = OnceLock::new();
    static SESSIONS: AtomicU64 = AtomicU64::new(0);
    let (keys, salt) = ENTROPY.get_or_init(|| {
        let now = SystemTime::now().duration_since(SystemTime::UNIX_EPOCH).unwrap_or_default();
        (RandomState::new(), now.as_nanos() ^ u128::from(std::process::id()))
    });
    let mut h = keys.build_hasher();
    h.write_u128(*salt);
    h.write_usize(party_id);
    h.write_u64(SESSIONS.fetch_add(1, Ordering::Relaxed));
    h.finish()
}

/// Runs one protocol session as node `1 + slot` over the socket. Returns
/// whether the kill knob fired (in which case the socket is dropped with
/// no terminal frame — the coordinator observes an abrupt death, exactly
/// as it would a `SIGKILL`ed process).
fn run_session<H: AdditiveHe>(
    conn: &Conn,
    he: &Arc<H>,
    session: &KnnSession,
    slot: usize,
    x: &Matrix,
    partition: &VerticalPartition,
    cfg: &PartyConfig,
) -> bool {
    let (view, qfeats) = session.local_inputs(x, partition, slot);
    if conn.send(&ClusterMsg::Ready { party_id: cfg.party_id }).is_err() {
        return false;
    }
    let ch = PartyChannel::new(conn, 1 + slot, session.parties.len() + 1, cfg.kill_after_ops);
    vfps_obs::counter_add("cluster.party.sessions", 1);
    match knn_participant_node(&ch, he, session, slot, &view, &qfeats) {
        Ok((outcomes, dead_slots)) => {
            let _ = conn.send(&ClusterMsg::Finished { outcomes, dead_slots });
            false
        }
        // The kill knob: drop the socket without a word.
        Err(Error::Killed { .. }) => true,
        Err(e) => {
            refuse(conn, e);
            false
        }
    }
}

/// A daemon's view of the cluster message plane: [`Channel<ProtoMsg>`]
/// over the single socket to the coordinator hub, which routes frames
/// between nodes and broadcasts peer departures.
///
/// The receive rules are [`Mailbox`]'s, as on every transport; what is
/// this one's own is the socket read, the kill knob's clock, and that
/// hub-socket death is a hangup of node 0 — without the coordinator
/// nothing can be routed.
///
/// A deadline that expires mid-frame can leave the stream desynchronized;
/// the protocol treats any timeout as a dead peer, so the session is
/// already lost at that point — matching a real mesh, where a deadline on
/// a stalled stream tears the stream down.
pub struct PartyChannel<'a> {
    conn: &'a Conn,
    me: NodeId,
    /// Channel operations so far (the kill knob's clock).
    ops: Cell<u64>,
    kill_after: Option<u64>,
    /// Receive state; the peers are the other `nodes - 1` nodes.
    mailbox: RefCell<Mailbox<ProtoMsg>>,
}

impl<'a> PartyChannel<'a> {
    /// Wraps `conn` as node `me` of a `nodes`-node session.
    #[must_use]
    pub fn new(
        conn: &'a Conn,
        me: NodeId,
        nodes: usize,
        kill_after: Option<u64>,
    ) -> PartyChannel<'a> {
        PartyChannel {
            conn,
            me,
            ops: Cell::new(0),
            kill_after,
            mailbox: RefCell::new(Mailbox::new(nodes.saturating_sub(1))),
        }
    }

    /// Counts one channel operation, firing the kill knob at its budget.
    fn tick(&self) -> Result<(), Error> {
        let op = self.ops.get() + 1;
        self.ops.set(op);
        match self.kill_after {
            Some(limit) if op > limit => Err(Error::Killed { node: self.me, op }),
            _ => Ok(()),
        }
    }

    /// Blocks up to `d` for one frame, translating socket failures onto
    /// the typed taxonomy.
    fn poll(&self, d: Duration) -> Result<Option<Event<ProtoMsg>>, Error> {
        // A zero read timeout means "no timeout" to the OS; clamp up.
        let slice = d.max(Duration::from_millis(1));
        if self.conn.set_read_timeout(Some(slice)).is_err() {
            return Err(Error::Hangup { peer: 0 });
        }
        match self.conn.recv::<ClusterMsg>() {
            Ok(Some(ClusterMsg::Routed { from, to, payload })) => {
                if to != self.me {
                    return Err(Error::violation(format!(
                        "hub routed a frame for node {to} to node {}",
                        self.me
                    )));
                }
                let msg = ProtoMsg::from_bytes(&payload)
                    .map_err(|e| Error::violation(format!("undecodable routed payload: {e}")))?;
                Ok(Some(Event::Msg(Envelope { from, msg })))
            }
            Ok(Some(ClusterMsg::Departed { node, clean })) => {
                Ok(Some(Event::Departed { node, clean }))
            }
            Ok(Some(other)) => {
                Err(Error::violation(format!("unexpected control frame mid-session: {other:?}")))
            }
            // Hub closed the socket: the coordinator — and with it node 0
            // and every route — is gone.
            Ok(None) => Err(Error::Hangup { peer: 0 }),
            Err(e) => match TransportFailure::classify_frame(&e, slice) {
                TransportFailure::Timeout { .. } => Ok(None),
                TransportFailure::Hangup => Err(Error::Hangup { peer: 0 }),
                TransportFailure::Protocol { detail } => Err(Error::violation(detail)),
            },
        }
    }
}

impl Channel<ProtoMsg> for PartyChannel<'_> {
    fn send(&self, to: NodeId, msg: ProtoMsg) -> Result<(), Error> {
        self.tick()?;
        if self.is_departed(to) {
            return Err(Error::Hangup { peer: to });
        }
        let frame = ClusterMsg::Routed { from: self.me, to, payload: msg.to_bytes() };
        self.conn.send(&frame).map_err(|_| Error::Hangup { peer: to })
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<ProtoMsg>, Error> {
        self.tick()?;
        self.mailbox.borrow_mut().recv(Some(timeout), |d| self.poll(d))
    }

    fn recv_from_timeout(&self, from: NodeId, timeout: Duration) -> Result<ProtoMsg, Error> {
        self.tick()?;
        self.mailbox.borrow_mut().recv_from(from, Some(timeout), |d| self.poll(d))
    }

    fn is_departed(&self, node: NodeId) -> bool {
        self.mailbox.borrow().is_departed(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The only test in this binary that derives Paillier keys, so nothing
    /// else touches the process-wide cache while it runs.
    #[test]
    fn keys_are_derived_once_per_spec_and_never_cached_from_a_refusal() {
        let spec = SchemeSpec::paillier(128, 8, 77);
        let first = session_paillier(&spec, 0).unwrap();
        let oversized = SchemeSpec::paillier(1 << 20, 8, 77);
        assert!(session_paillier(&oversized, 0).is_err());
        let again = session_paillier(&spec, 1).unwrap();
        assert!(std::ptr::eq(first.keypair(), again.keypair()), "a refusal evicted the keys");
        let other = session_paillier(&SchemeSpec::paillier(128, 8, 78), 0).unwrap();
        assert!(!std::ptr::eq(first.keypair(), other.keypair()));
        assert_ne!(first.keypair().public, other.keypair().public);
        // Same keys, different noise: equal plaintexts, different bytes.
        let (a, b) = (first.encrypt(&[1.5; 8]).unwrap(), again.encrypt(&[1.5; 8]).unwrap());
        assert_ne!(first.ct_to_bytes(&a), again.ct_to_bytes(&b));
        assert_eq!(first.decrypt(&b, 8), vec![1.5; 8]);
    }
}
