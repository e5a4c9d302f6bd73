//! The transport abstraction shared by the simulated and real-socket
//! cluster backends.
//!
//! Protocol bodies (the fed-KNN server/participant loops in `vfps-vfl`)
//! only ever touch four operations: send to a peer, receive from anyone
//! with a deadline, receive from a *specific* peer with a deadline, and
//! ask whether a peer has departed. [`Channel`] captures exactly that
//! surface, so the same protocol code runs unchanged over
//! [`crate::cluster::NodeCtx`] (threads + crossbeam channels) and over
//! `vfps-cluster`'s TCP transport (real daemons on real sockets) — the
//! backend is chosen by the caller, and bit-identical results across the
//! two are pinned by test.
//!
//! The contract every implementation honours:
//!
//! * `send` to a departed peer returns [`Error::Hangup`] for that peer;
//! * `recv_from_timeout(from, d)` buffers envelopes interleaved by
//!   *other* senders (they are replayed, in arrival order, by later
//!   receives), records other peers' departures silently, and fails only
//!   when `from` itself departs ([`Error::Hangup`]) or the deadline
//!   expires ([`Error::Timeout`] with `peer == Some(from)`);
//! * `recv_timeout` returns the next buffered or arriving envelope from
//!   any sender; a dirty departure surfaces as [`Error::Hangup`], and a
//!   receive that can never complete (every peer gone) reports the last
//!   departed peer without waiting out its deadline;
//! * `is_departed` reflects departures this node has *consumed* so far —
//!   a notification may still be in flight.
//!
//! The receive half is written once, in [`Mailbox`]: every transport
//! hands it "block up to `d` for the next [`Event`]" and keeps only what
//! is its own — `send`, its fault clock, and that one blocking read.

use crate::cluster::{Envelope, NodeCtx, NodeId};
use crate::error::Error;
use std::collections::{BTreeSet, VecDeque};
use std::time::{Duration, Instant};

/// A node's view of the cluster message plane: the minimal send/receive
/// surface the fed-KNN protocol bodies require, implemented by both the
/// simulated [`NodeCtx`] and the real-socket transport in `vfps-cluster`.
pub trait Channel<M> {
    /// Sends `msg` to node `to`.
    ///
    /// # Errors
    /// [`Error::Hangup`] when `to` is known to have departed;
    /// [`Error::Killed`] once a fault plan has killed this node.
    fn send(&self, to: NodeId, msg: M) -> Result<(), Error>;

    /// Receives the next message from any sender, giving up after
    /// `timeout`.
    ///
    /// # Errors
    /// [`Error::Timeout`] when the deadline expires; [`Error::Hangup`]
    /// when a peer exits dirtily or every peer is gone;
    /// [`Error::Killed`] once a fault plan has killed this node.
    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, Error>;

    /// Receives the next message from `from`, buffering envelopes that
    /// other senders interleave, giving up after `timeout`.
    ///
    /// # Errors
    /// [`Error::Timeout`] (with `peer == Some(from)`) when the deadline
    /// expires; [`Error::Hangup`] if `from` has exited (other peers'
    /// departures are recorded but do not fail this call);
    /// [`Error::Killed`] once a fault plan has killed this node.
    fn recv_from_timeout(&self, from: NodeId, timeout: Duration) -> Result<M, Error>;

    /// Whether `node` has been observed to exit, as consumed so far.
    fn is_departed(&self, node: NodeId) -> bool;
}

/// How long one `poll` of a receive without a deadline blocks before the
/// next.
const UNBOUNDED_SLICE: Duration = Duration::from_secs(3600);

/// What a transport delivers to a node: a routed message, or the notice
/// that a peer has exited.
#[derive(Debug)]
pub enum Event<M> {
    /// A message from a peer.
    Msg(Envelope<M>),
    /// `node` left the session, having completed its body (`clean`) or not.
    Departed {
        /// The departed peer.
        node: NodeId,
        /// Whether it finished its body rather than dying.
        clean: bool,
    },
}

/// The receive half of the [`Channel`] contract: reorder buffer, consumed
/// departures, "every peer gone" detection and deadlines, over whatever
/// blocking read the transport supplies.
///
/// `poll(d)` blocks up to `d` for the transport's next event; `Ok(None)`
/// means nothing arrived — possibly early, so the mailbox re-reads the
/// clock itself — and `Err` is a transport failure that ends the receive
/// as is.
#[derive(Debug)]
pub struct Mailbox<M> {
    peers: usize,
    /// Envelopes consumed while waiting for a specific sender, replayed in
    /// arrival order by later receives.
    reorder: VecDeque<Envelope<M>>,
    /// Peers whose departure has been consumed.
    departed: BTreeSet<NodeId>,
    last_departed: Option<NodeId>,
}

impl<M> Mailbox<M> {
    /// A mailbox for a node with `peers` other nodes to hear from.
    #[must_use]
    pub fn new(peers: usize) -> Self {
        Mailbox { peers, reorder: VecDeque::new(), departed: BTreeSet::new(), last_departed: None }
    }

    /// Whether `node`'s departure has been consumed.
    #[must_use]
    pub fn is_departed(&self, node: NodeId) -> bool {
        self.departed.contains(&node)
    }

    /// Every peer whose departure has been consumed, in ascending order.
    #[must_use]
    pub fn departed(&self) -> Vec<NodeId> {
        self.departed.iter().copied().collect()
    }

    /// The next event, a departure already recorded, for a receive that
    /// awaits `awaited` (anyone if `None`) for `timeout` (forever if
    /// `None`). Before every block it checks that a peer is left: with all
    /// of them gone nothing can arrive, so it hangs up on the last to
    /// leave instead.
    fn next(
        &mut self,
        awaited: Option<NodeId>,
        timeout: Option<(Duration, Instant)>,
        poll: &mut impl FnMut(Duration) -> Result<Option<Event<M>>, Error>,
    ) -> Result<Event<M>, Error> {
        loop {
            if self.departed.len() >= self.peers {
                return Err(Error::Hangup { peer: self.last_departed.unwrap_or(0) });
            }
            let remaining = timeout.map_or(UNBOUNDED_SLICE, |(_, until)| {
                until.saturating_duration_since(Instant::now())
            });
            if let Some(event) = poll(remaining)? {
                if let Event::Departed { node, .. } = event {
                    self.departed.insert(node);
                    self.last_departed = Some(node);
                }
                return Ok(event);
            }
            match timeout {
                Some((waited, until)) if Instant::now() >= until => {
                    return Err(Error::Timeout { peer: awaited, waited });
                }
                _ => {}
            }
        }
    }

    /// [`Channel::recv_timeout`] (`None` waits forever).
    ///
    /// # Errors
    /// As [`Channel::recv_timeout`], plus whatever `poll` fails with.
    pub fn recv(
        &mut self,
        timeout: Option<Duration>,
        mut poll: impl FnMut(Duration) -> Result<Option<Event<M>>, Error>,
    ) -> Result<Envelope<M>, Error> {
        if let Some(env) = self.reorder.pop_front() {
            return Ok(env);
        }
        let timeout = timeout.map(|t| (t, Instant::now() + t));
        loop {
            match self.next(None, timeout, &mut poll)? {
                Event::Msg(env) => return Ok(env),
                // A clean exit only matters once nobody is left to talk,
                // which `next` checks before it blocks again.
                Event::Departed { clean: true, .. } => {}
                Event::Departed { node, .. } => return Err(Error::Hangup { peer: node }),
            }
        }
    }

    /// [`Channel::recv_from_timeout`] (`None` waits forever).
    ///
    /// # Errors
    /// As [`Channel::recv_from_timeout`], plus whatever `poll` fails with.
    pub fn recv_from(
        &mut self,
        from: NodeId,
        timeout: Option<Duration>,
        mut poll: impl FnMut(Duration) -> Result<Option<Event<M>>, Error>,
    ) -> Result<M, Error> {
        if let Some(pos) = self.reorder.iter().position(|e| e.from == from) {
            return Ok(self.reorder.remove(pos).expect("position just found").msg);
        }
        if self.is_departed(from) {
            return Err(Error::Hangup { peer: from });
        }
        let timeout = timeout.map(|t| (t, Instant::now() + t));
        loop {
            match self.next(Some(from), timeout, &mut poll)? {
                Event::Msg(env) if env.from == from => return Ok(env.msg),
                Event::Msg(env) => self.reorder.push_back(env),
                Event::Departed { node, .. } if node == from => {
                    return Err(Error::Hangup { peer: from });
                }
                // Other peers' departures are recorded, not reported.
                Event::Departed { .. } => {}
            }
        }
    }
}

impl<M: crate::wire::Wire + Send + 'static> Channel<M> for NodeCtx<M> {
    fn send(&self, to: NodeId, msg: M) -> Result<(), Error> {
        NodeCtx::send(self, to, msg)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<M>, Error> {
        NodeCtx::recv_timeout(self, timeout)
    }

    fn recv_from_timeout(&self, from: NodeId, timeout: Duration) -> Result<M, Error> {
        NodeCtx::recv_from_timeout(self, from, timeout)
    }

    fn is_departed(&self, node: NodeId) -> bool {
        NodeCtx::is_departed(self, node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::run_cluster;

    /// A generic body that only knows the `Channel` surface must run over
    /// the simulated cluster unchanged.
    fn ping<C: Channel<u64>>(ch: &C, to: NodeId) -> u64 {
        ch.send(to, 41).unwrap();
        ch.recv_from_timeout(to, Duration::from_secs(5)).unwrap()
    }

    #[test]
    fn node_ctx_satisfies_the_channel_contract() {
        let fns: Vec<Box<dyn FnOnce(NodeCtx<u64>) -> u64 + Send>> = vec![
            Box::new(|ctx| ping(&ctx, 1)),
            Box::new(|ctx| {
                let env = ctx.recv_timeout(Duration::from_secs(5)).unwrap();
                Channel::send(&ctx, env.from, env.msg + 1).unwrap();
                assert!(!Channel::<u64>::is_departed(&ctx, 0));
                0
            }),
        ];
        let (results, _) = run_cluster(fns);
        assert_eq!(results[0], 42);
    }

    /// A `poll` that plays `script` back, one entry per call, and panics
    /// when asked to block with nothing left to deliver.
    fn scripted(
        script: Vec<Option<Event<u8>>>,
    ) -> impl FnMut(Duration) -> Result<Option<Event<u8>>, Error> {
        let mut script = script.into_iter();
        move |_| Ok(script.next().expect("polled with nothing scripted"))
    }

    fn msg(from: NodeId, msg: u8) -> Option<Event<u8>> {
        Some(Event::Msg(Envelope { from, msg }))
    }

    #[test]
    fn a_poll_that_returns_early_is_rearmed_not_reported() {
        let mut mailbox = Mailbox::new(2);
        let got = mailbox.recv_from(
            1,
            Some(Duration::from_secs(5)),
            scripted(vec![None, None, msg(1, 7)]),
        );
        assert_eq!(got, Ok(7), "two early returns are not an expired deadline");
    }

    #[test]
    fn the_mailbox_not_the_transport_decides_expiry() {
        let mut mailbox = Mailbox::<u8>::new(2);
        let timeout = Duration::from_millis(30);
        let mut slices = Vec::new();
        let started = Instant::now();
        let got = mailbox.recv_from(2, Some(timeout), |d| {
            slices.push(d);
            std::thread::sleep(Duration::from_millis(1));
            Ok(None)
        });
        assert_eq!(got, Err(Error::Timeout { peer: Some(2), waited: timeout }));
        assert!(started.elapsed() >= timeout);
        assert!(slices.len() > 1, "re-polled until the deadline really passed");
        assert!(slices.windows(2).all(|w| w[1] <= w[0]), "each slice is what remains: {slices:?}");
    }

    #[test]
    fn nothing_is_polled_once_every_peer_has_departed() {
        let mut mailbox = Mailbox::new(2);
        let departed = |node| Some(Event::Departed { node, clean: true });
        let long = Some(Duration::from_secs(3600));
        // The script ends with the second departure: a third poll panics.
        let got = mailbox.recv(long, scripted(vec![departed(2), departed(1)]));
        assert_eq!(got.map(|e| e.msg), Err(Error::Hangup { peer: 1 }), "the last to leave");
        let again = mailbox.recv(long, scripted(vec![]));
        assert_eq!(again.map(|e| e.msg), Err(Error::Hangup { peer: 1 }));
        assert_eq!(mailbox.departed(), vec![1, 2]);
    }
}
