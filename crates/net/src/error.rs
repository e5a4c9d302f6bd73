//! The cluster's typed failure taxonomy.
//!
//! Every fallible [`crate::cluster::NodeCtx`] operation returns one of
//! these instead of panicking, so protocol code can degrade (drop a dead
//! participant, finish on the survivors) rather than poison the whole
//! simulated deployment. The variants mirror what a real gRPC mesh
//! surfaces: peer hangups, deadline expiry, and protocol-state violations,
//! plus the fault-injection kill used by [`crate::fault::FaultPlan`].

use crate::cluster::NodeId;
use std::fmt;
use std::time::Duration;

/// A message-plane failure observed by one node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// A peer exited (crash, kill, or clean completion) while this node
    /// still depended on it. `peer` is the node that went away; when a
    /// blocking receive finds *every* peer gone it reports the last one.
    Hangup {
        /// The departed node.
        peer: NodeId,
    },
    /// A deadline-based receive expired with no message.
    Timeout {
        /// The node the caller was waiting for, when it was waiting for a
        /// specific one.
        peer: Option<NodeId>,
        /// How long the caller waited.
        waited: Duration,
    },
    /// A message arrived that the protocol state machine cannot accept
    /// (wrong variant, impossible phase).
    ProtocolViolation {
        /// Human-readable description of the violated expectation.
        detail: String,
    },
    /// This node was killed by the active [`crate::fault::FaultPlan`]. All
    /// of its subsequent channel operations return this same error.
    Killed {
        /// The killed node (always the caller's own id).
        node: NodeId,
        /// The channel-op index at which the kill fired.
        op: u64,
    },
}

impl Error {
    /// Convenience constructor for protocol-violation errors.
    #[must_use]
    pub fn violation(detail: impl Into<String>) -> Self {
        Error::ProtocolViolation { detail: detail.into() }
    }

    /// True when the error reports the departure of `node` specifically.
    #[must_use]
    pub fn is_hangup_of(&self, node: NodeId) -> bool {
        matches!(self, Error::Hangup { peer } if *peer == node)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Hangup { peer } => write!(f, "node {peer} hung up"),
            Error::Timeout { peer: Some(p), waited } => {
                write!(f, "timed out after {waited:?} waiting for node {p}")
            }
            Error::Timeout { peer: None, waited } => {
                write!(f, "timed out after {waited:?} waiting for any message")
            }
            Error::ProtocolViolation { detail } => write!(f, "protocol violation: {detail}"),
            Error::Killed { node, op } => {
                write!(f, "node {node} killed by fault plan at channel op {op}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// The cluster taxonomy projected onto a *real-socket* transport failure —
/// the classification the routing tier applies when a backend daemon
/// misbehaves. Mirrors [`Error`]'s hangup / timeout / protocol-violation
/// triad, but identifies peers by name (a backend in a router's ring)
/// rather than by simulated [`NodeId`], and carries no fault-plan variant
/// (real sockets are not killed by a plan).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportFailure {
    /// The peer closed the connection (or refused it) where a frame was
    /// due — the socket analogue of [`Error::Hangup`].
    Hangup,
    /// A read or connect deadline expired — the socket analogue of
    /// [`Error::Timeout`].
    Timeout {
        /// How long the caller waited before giving up.
        waited: Duration,
    },
    /// The bytes arrived but violate the protocol (undecodable frame,
    /// oversized length prefix, unexpected message kind) — the socket
    /// analogue of [`Error::ProtocolViolation`].
    Protocol {
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl TransportFailure {
    /// Classifies an I/O error against the taxonomy: deadline-shaped kinds
    /// (`WouldBlock` from a socket read timeout, `TimedOut` from connect)
    /// become [`TransportFailure::Timeout`]; `InvalidInput` (an address
    /// that names nothing, a frame too large to send) is this side's own
    /// mistake, i.e. [`TransportFailure::Protocol`]; everything else —
    /// resets, refusals, EOF-inside-a-frame — is a peer that went away,
    /// i.e. [`TransportFailure::Hangup`].
    #[must_use]
    pub fn classify_io(e: &std::io::Error, waited: Duration) -> TransportFailure {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => TransportFailure::Timeout { waited },
            ErrorKind::InvalidInput => TransportFailure::Protocol { detail: e.to_string() },
            _ => TransportFailure::Hangup,
        }
    }

    /// Classifies a framed-stream failure: I/O errors via
    /// [`TransportFailure::classify_io`], everything else (oversized or
    /// undecodable frames) as [`TransportFailure::Protocol`].
    #[must_use]
    pub fn classify_frame(e: &crate::wire::FrameError, waited: Duration) -> TransportFailure {
        match e {
            crate::wire::FrameError::Io(io) => TransportFailure::classify_io(io, waited),
            other => TransportFailure::Protocol { detail: other.to_string() },
        }
    }

    /// True for the variants a health checker should count against the
    /// backend (hangups and timeouts); protocol violations indicate a
    /// version mismatch, not flakiness.
    #[must_use]
    pub fn is_liveness_failure(&self) -> bool {
        !matches!(self, TransportFailure::Protocol { .. })
    }
}

impl fmt::Display for TransportFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportFailure::Hangup => write!(f, "peer hung up"),
            TransportFailure::Timeout { waited } => write!(f, "timed out after {waited:?}"),
            TransportFailure::Protocol { detail } => write!(f, "protocol violation: {detail}"),
        }
    }
}

impl std::error::Error for TransportFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::Hangup { peer: 3 };
        assert!(e.to_string().contains("node 3"));
        let t = Error::Timeout { peer: Some(1), waited: Duration::from_millis(50) };
        assert!(t.to_string().contains("node 1"));
        let v = Error::violation("expected RankBatch");
        assert!(v.to_string().contains("expected RankBatch"));
        let k = Error::Killed { node: 2, op: 7 };
        assert!(k.to_string().contains("op 7"));
    }

    #[test]
    fn hangup_predicate_matches_peer() {
        assert!(Error::Hangup { peer: 4 }.is_hangup_of(4));
        assert!(!Error::Hangup { peer: 4 }.is_hangup_of(1));
        assert!(!Error::violation("x").is_hangup_of(4));
    }

    #[test]
    fn io_errors_classify_onto_the_taxonomy() {
        use std::io::{Error as IoError, ErrorKind};
        let waited = Duration::from_millis(250);
        for kind in [ErrorKind::WouldBlock, ErrorKind::TimedOut] {
            assert_eq!(
                TransportFailure::classify_io(&IoError::from(kind), waited),
                TransportFailure::Timeout { waited },
                "{kind:?} is a deadline expiry"
            );
        }
        for kind in
            [ErrorKind::ConnectionRefused, ErrorKind::ConnectionReset, ErrorKind::UnexpectedEof]
        {
            assert_eq!(
                TransportFailure::classify_io(&IoError::from(kind), waited),
                TransportFailure::Hangup,
                "{kind:?} is a departed peer"
            );
        }
        let own = TransportFailure::classify_io(&IoError::from(ErrorKind::InvalidInput), waited);
        assert!(!own.is_liveness_failure(), "a refused send says nothing about the peer");
    }

    #[test]
    fn frame_errors_classify_onto_the_taxonomy() {
        use crate::wire::{FrameError, WireError};
        let waited = Duration::from_millis(10);
        let io = FrameError::Io(std::io::Error::from(std::io::ErrorKind::TimedOut));
        assert_eq!(
            TransportFailure::classify_frame(&io, waited),
            TransportFailure::Timeout { waited }
        );
        let huge = FrameError::TooLarge(1 << 30);
        assert!(matches!(
            TransportFailure::classify_frame(&huge, waited),
            TransportFailure::Protocol { .. }
        ));
        let bad = FrameError::Wire(WireError::BadTag(9));
        let c = TransportFailure::classify_frame(&bad, waited);
        assert!(c.to_string().contains("tag byte 9"), "{c}");
        assert!(!c.is_liveness_failure(), "protocol violations are not flakiness");
        assert!(TransportFailure::Hangup.is_liveness_failure());
    }
}
