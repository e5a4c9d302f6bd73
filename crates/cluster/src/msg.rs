//! The coordinator ⇄ daemon control protocol.
//!
//! One [`ClusterMsg`] frame kind carries everything that crosses a party
//! socket: session setup, readiness, routed [`ProtoMsg`](vfps_vfl::ProtoMsg) payloads, peer
//! departure notices, terminal results, and the idempotent health probe.
//! Frames travel length-prefixed through [`vfps_net::wire::write_frame`] /
//! [`read_frame`](vfps_net::wire::read_frame), so the 16 MiB cap and the
//! typed [`FrameError`](vfps_net::wire::FrameError) taxonomy apply
//! unchanged.
//!
//! Routed payloads are *opaque bytes* at this layer — the encoded
//! [`ProtoMsg`](vfps_vfl::ProtoMsg) — so the hub can relay participant ⇄ participant traffic
//! without decoding it.

use vfps_net::{wire_enum, wire_struct, Error, NodeId};
use vfps_vfl::fed_knn::{FedKnnConfig, KnnMode, QueryOutcome};
use vfps_vfl::KnnSession;

/// Which additive-HE scheme every node of a session instantiates.
///
/// All nodes derive the key pair from the same spec (same seed), so the
/// leader's decryption key matches the participants' encryption key; each
/// daemon's noise stream is its own, per session, never the seed's. A
/// production deployment would replace this with the paper's key server;
/// the testbed trades that ceremony for determinism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeKind {
    /// [`vfps_he::scheme::PlainHe`] — no cryptography, exact arithmetic.
    Plain,
    /// [`vfps_he::scheme::PaillierHe`] — real additively homomorphic
    /// encryption; aggregation is exact modular arithmetic, so results
    /// are independent of message arrival order.
    Paillier,
}

/// A deterministic scheme recipe shipped in [`SetupFrame`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchemeSpec {
    /// Scheme family.
    pub kind: SchemeKind,
    /// Key size in bits (ignored by [`SchemeKind::Plain`]).
    pub key_bits: usize,
    /// Ciphertext batch (packing) size.
    pub batch: usize,
    /// Key-generation seed (ignored by [`SchemeKind::Plain`]).
    pub seed: u64,
}

impl SchemeSpec {
    /// A plaintext "scheme" with the given batch size.
    #[must_use]
    pub fn plain(batch: usize) -> Self {
        SchemeSpec { kind: SchemeKind::Plain, key_bits: 0, batch, seed: 0 }
    }

    /// A seeded Paillier scheme.
    #[must_use]
    pub fn paillier(key_bits: usize, batch: usize, seed: u64) -> Self {
        SchemeSpec { kind: SchemeKind::Paillier, key_bits, batch, seed }
    }
}

wire_enum!(SchemeKind { 0 => Plain, 1 => Paillier });
wire_struct!(SchemeSpec { kind, key_bits, batch, seed });

/// [`KnnMode::from_byte`], restricted to the modes the threaded protocol
/// implements: Threshold is a logical-engine oracle and never reaches a
/// daemon.
#[must_use]
pub fn protocol_mode_from_byte(b: u8) -> Option<KnnMode> {
    KnnMode::from_byte(b).filter(|m| matches!(m, KnnMode::Base | KnnMode::Fagin))
}

/// Everything a daemon needs to enter one protocol run: the session
/// description (consortium, rows, queries, config, shuffle seed), its own
/// slot, and the scheme recipe. Shipping the *seed* rather than the
/// permutation keeps the frame small and forces both backends through the
/// identical [`KnnSession::new`] derivation.
#[derive(Clone, Debug, PartialEq)]
pub struct SetupFrame {
    /// This daemon's slot (node `1 + slot`).
    pub slot: usize,
    /// Party ids in slot order.
    pub parties: Vec<usize>,
    /// Database row indices.
    pub db_rows: Vec<usize>,
    /// Query row indices.
    pub queries: Vec<usize>,
    /// `FedKnnConfig::k`.
    pub k: usize,
    /// Protocol mode byte (see [`KnnMode::byte`]).
    pub mode: u8,
    /// `FedKnnConfig::batch`.
    pub batch: usize,
    /// `FedKnnConfig::cost_scale`, as IEEE-754 bits (exactness over text).
    pub cost_scale_bits: u64,
    /// Pseudo-ID permutation seed (paper §IV-B step ①).
    pub shuffle_seed: u64,
    /// Scheme recipe every node instantiates.
    pub scheme: SchemeSpec,
}

impl SetupFrame {
    /// Builds the frame for `slot` from a coordinator-side session.
    #[must_use]
    pub fn for_slot(
        session: &KnnSession,
        shuffle_seed: u64,
        slot: usize,
        scheme: SchemeSpec,
    ) -> Self {
        SetupFrame {
            slot,
            parties: session.parties.clone(),
            db_rows: session.db_rows.clone(),
            queries: session.queries.clone(),
            k: session.cfg.k,
            mode: session.cfg.mode.byte(),
            batch: session.cfg.batch,
            cost_scale_bits: session.cfg.cost_scale.to_bits(),
            shuffle_seed,
            scheme,
        }
    }

    /// Reconstructs the session on the daemon side — through the same
    /// [`KnnSession::new`] the simulated backend uses, so the pseudo-ID
    /// permutation is derived identically.
    ///
    /// # Errors
    /// [`Error::ProtocolViolation`] on a mode byte outside the threaded
    /// protocol, a slot outside the consortium, an empty consortium or
    /// database, or more database rows than the wire's `u32` ids address.
    pub fn session(&self) -> Result<KnnSession, Error> {
        let mode = protocol_mode_from_byte(self.mode)
            .ok_or_else(|| Error::violation(format!("unroutable knn mode byte {}", self.mode)))?;
        if self.slot >= self.parties.len() {
            return Err(Error::violation(format!(
                "slot {} outside consortium of {}",
                self.slot,
                self.parties.len()
            )));
        }
        if self.parties.is_empty() || self.db_rows.is_empty() {
            return Err(Error::violation("empty consortium or database"));
        }
        if u32::try_from(self.db_rows.len()).is_err() {
            return Err(Error::violation(format!(
                "{} database rows: pseudo ids travel as u32",
                self.db_rows.len()
            )));
        }
        let cfg = FedKnnConfig {
            k: self.k,
            mode,
            batch: self.batch,
            cost_scale: f64::from_bits(self.cost_scale_bits),
        };
        Ok(KnnSession::new(&self.parties, &self.db_rows, &self.queries, cfg, self.shuffle_seed))
    }
}

wire_struct!(SetupFrame {
    slot,
    parties,
    db_rows,
    queries,
    k,
    mode,
    batch,
    cost_scale_bits,
    shuffle_seed,
    scheme
});

/// A [`vfps_net::Error`] flattened for the wire, so a daemon's terminal
/// failure arrives at the coordinator with its type intact and the
/// process-level kill matrix can assert the *same* typed outcomes the
/// in-process fault suite pins.
#[derive(Clone, Debug, PartialEq)]
pub struct ErrorFrame {
    /// 0 = Hangup, 1 = Timeout, 2 = ProtocolViolation, 3 = Killed.
    pub kind: u8,
    /// Peer node (Hangup; Timeout when directed), else absent.
    pub peer: Option<usize>,
    /// Waited duration in nanoseconds (Timeout), else 0.
    pub waited_nanos: u64,
    /// Violation detail (ProtocolViolation), else empty.
    pub detail: String,
    /// Channel-op index (Killed), else 0.
    pub op: u64,
}

impl ErrorFrame {
    /// Flattens a typed error.
    #[must_use]
    pub fn from_error(e: &Error) -> Self {
        match e {
            Error::Hangup { peer } => ErrorFrame {
                kind: 0,
                peer: Some(*peer),
                waited_nanos: 0,
                detail: String::new(),
                op: 0,
            },
            Error::Timeout { peer, waited } => ErrorFrame {
                kind: 1,
                peer: *peer,
                waited_nanos: waited.as_nanos() as u64,
                detail: String::new(),
                op: 0,
            },
            Error::ProtocolViolation { detail } => {
                ErrorFrame { kind: 2, peer: None, waited_nanos: 0, detail: detail.clone(), op: 0 }
            }
            Error::Killed { node, op } => ErrorFrame {
                kind: 3,
                peer: Some(*node),
                waited_nanos: 0,
                detail: String::new(),
                op: *op,
            },
        }
    }

    /// Rebuilds the typed error. Unknown kinds decode as a violation so a
    /// newer daemon can never crash an older coordinator.
    #[must_use]
    pub fn to_error(&self) -> Error {
        match self.kind {
            0 => Error::Hangup { peer: self.peer.unwrap_or(0) },
            1 => Error::Timeout {
                peer: self.peer,
                waited: std::time::Duration::from_nanos(self.waited_nanos),
            },
            2 => Error::ProtocolViolation { detail: self.detail.clone() },
            3 => Error::Killed { node: self.peer.unwrap_or(0), op: self.op },
            k => Error::violation(format!("unknown remote error kind {k}")),
        }
    }
}

wire_struct!(ErrorFrame { kind, peer, waited_nanos, detail, op });

/// One frame of the coordinator ⇄ daemon control protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum ClusterMsg {
    /// Coordinator → daemon: enter this session.
    Setup(SetupFrame),
    /// Daemon → coordinator: setup validated, protocol body entered.
    Ready {
        /// The daemon's configured party id (coordinator cross-checks it).
        party_id: usize,
    },
    /// Either direction: one [`ProtoMsg`](vfps_vfl::ProtoMsg), encoded,
    /// routed `from` → `to` through the hub.
    Routed {
        /// Originating node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
        /// The encoded protocol message.
        payload: Vec<u8>,
    },
    /// Coordinator → daemon: a peer left the session.
    Departed {
        /// The departed node.
        node: NodeId,
        /// Whether it completed its body (`true`) or died (`false`).
        clean: bool,
    },
    /// Daemon → coordinator: protocol body returned `Ok`.
    Finished {
        /// The leader's per-query outcomes (empty for non-leaders).
        outcomes: Vec<QueryOutcome>,
        /// Participant slots this node observed dropping out.
        dead_slots: Vec<usize>,
    },
    /// Daemon → coordinator: protocol body returned `Err`.
    Failed(ErrorFrame),
    /// Idempotent health probe (either direction; safe to retry across
    /// reconnects).
    Ping {
        /// Echoed back verbatim in [`ClusterMsg::Pong`].
        nonce: u64,
    },
    /// Reply to [`ClusterMsg::Ping`].
    Pong {
        /// The probe's nonce.
        nonce: u64,
    },
}

wire_enum!(ClusterMsg {
    0 => Setup(f),
    1 => Ready { party_id },
    2 => Routed { from, to, payload },
    3 => Departed { node, clean },
    4 => Finished { outcomes, dead_slots },
    5 => Failed(e),
    6 => Ping { nonce },
    7 => Pong { nonce },
});

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use vfps_net::wire::Wire;

    #[test]
    fn error_frames_preserve_the_taxonomy() {
        let cases = vec![
            Error::Hangup { peer: 3 },
            Error::Timeout { peer: Some(1), waited: Duration::from_millis(250) },
            Error::Timeout { peer: None, waited: Duration::from_secs(10) },
            Error::violation("expected RankBatch, got WaveDone"),
            Error::Killed { node: 2, op: 17 },
        ];
        for e in cases {
            let f = ErrorFrame::from_error(&e);
            let bytes = f.to_bytes();
            assert_eq!(ErrorFrame::from_bytes(&bytes).unwrap().to_error(), e);
        }
        let unknown =
            ErrorFrame { kind: 200, peer: None, waited_nanos: 0, detail: String::new(), op: 0 };
        assert!(matches!(unknown.to_error(), Error::ProtocolViolation { .. }));
    }

    #[test]
    fn setup_rebuilds_the_identical_session() {
        let cfg = FedKnnConfig { k: 3, mode: KnnMode::Base, batch: 2, cost_scale: 2.0 };
        let session = KnnSession::new(&[1, 0], &[0, 1, 2, 3], &[2], cfg, 9);
        let frame = SetupFrame::for_slot(&session, 9, 0, SchemeSpec::plain(4));
        let rebuilt = frame.session().unwrap();
        assert_eq!(rebuilt.perm, session.perm);
        assert_eq!(rebuilt.inv, session.inv);
        assert_eq!(rebuilt.parties, session.parties);
        assert_eq!(rebuilt.queries, session.queries);
    }

    #[test]
    fn setup_rejects_unroutable_modes_and_bad_slots() {
        let cfg = FedKnnConfig { k: 1, mode: KnnMode::Base, batch: 1, cost_scale: 1.0 };
        let session = KnnSession::new(&[0], &[0, 1], &[0], cfg, 1);
        // Threshold has no message flow, and 3 named the retired NRA.
        for mode in [KnnMode::Threshold.byte(), 3] {
            let mut f = SetupFrame::for_slot(&session, 1, 0, SchemeSpec::plain(4));
            f.mode = mode;
            assert!(matches!(f.session(), Err(Error::ProtocolViolation { .. })), "mode {mode}");
        }
        let mut g = SetupFrame::for_slot(&session, 1, 0, SchemeSpec::plain(4));
        g.slot = 5;
        assert!(matches!(g.session(), Err(Error::ProtocolViolation { .. })));
    }

    #[test]
    fn protocol_modes_are_base_and_fagin_only() {
        assert_eq!(protocol_mode_from_byte(KnnMode::Base.byte()), Some(KnnMode::Base));
        assert_eq!(protocol_mode_from_byte(KnnMode::Fagin.byte()), Some(KnnMode::Fagin));
        assert_eq!(KnnMode::from_byte(KnnMode::Threshold.byte()), Some(KnnMode::Threshold));
        for b in [KnnMode::Threshold.byte(), 3, u8::MAX] {
            assert_eq!(protocol_mode_from_byte(b), None, "byte {b}");
        }
    }
}
