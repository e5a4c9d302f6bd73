//! # vfps-net — simulated distributed substrate for VFPS-SM
//!
//! The paper deploys five roles on five AWS machines talking gRPC; this
//! crate reproduces that topology in-process:
//!
//! * [`wire`] — a hand-rolled binary codec, so every message has an exact,
//!   deterministic byte size; [`wire_struct!`] / [`wire_enum!`] derive a
//!   message's three codec methods from one field list;
//! * [`conn`] and [`server`] — the network edge: the one framed TCP
//!   connection ([`Conn`]) and the one accept-loop skeleton
//!   ([`server::Listener`]) every tier's sockets go through;
//! * [`cluster`] — one thread per node with crossbeam-channel links and a
//!   shared per-link traffic ledger;
//! * [`channel`] — the transport trait ([`channel::Channel`]) the protocol
//!   bodies are generic over, implemented by the simulated cluster here
//!   and by the real-socket TCP transport in `vfps-cluster`;
//! * [`error`] — the typed failure taxonomy (hangup, timeout, protocol
//!   violation, fault-plan kill) every channel operation returns instead
//!   of panicking;
//! * [`fault`] — deterministic, replayable fault injection
//!   ([`fault::FaultPlan`]): kill a node at channel-op *n*, drop or delay
//!   the *n*-th message on a link;
//! * [`cost`] — operation ledgers (encrypt/decrypt/add/distance counts,
//!   bytes, rounds) and the [`cost::CostModel`] that prices them into
//!   simulated seconds at the paper's data scales.
//!
//! ```
//! use vfps_net::cost::{CostModel, OpLedger};
//!
//! let mut ledger = OpLedger::default();
//! ledger.record_enc(1_000, 4); // each of 4 parties encrypts 1000 values
//! ledger.record_round();
//! let secs = ledger.simulated_seconds(&CostModel::default());
//! assert!(secs > 0.0);
//! ```

#![warn(missing_docs)]

pub mod channel;
pub mod cluster;
pub mod conn;
pub mod cost;
pub mod error;
pub mod fault;
pub mod server;
pub mod wire;

pub use channel::Channel;
pub use cluster::{
    run_cluster, run_cluster_fallible, ClusterOptions, Envelope, FallibleNodeFn, NodeCtx, NodeId,
    TrafficLedger,
};
pub use conn::Conn;
pub use cost::{CostModel, OpLedger};
pub use error::{Error, TransportFailure};
pub use fault::FaultPlan;
pub use wire::{read_frame, write_frame, FrameError, Wire, WireError, MAX_FRAME_BYTES};

#[cfg(test)]
mod proptests {
    use super::wire::Wire;
    use proptest::prelude::*;

    proptest! {
        /// Every encoded value round-trips and reports its exact size.
        #[test]
        fn wire_roundtrip_vec_f64(v in proptest::collection::vec(-1e12f64..1e12, 0..64)) {
            let bytes = v.to_bytes();
            prop_assert_eq!(bytes.len(), v.encoded_len());
            prop_assert_eq!(Vec::<f64>::from_bytes(&bytes).unwrap(), v);
        }

        #[test]
        fn wire_roundtrip_pairs(v in proptest::collection::vec((0usize..1_000_000, -1e9f64..1e9), 0..32)) {
            let bytes = v.to_bytes();
            prop_assert_eq!(bytes.len(), v.encoded_len());
            prop_assert_eq!(Vec::<(usize, f64)>::from_bytes(&bytes).unwrap(), v);
        }

        /// Decoding arbitrary garbage never panics.
        #[test]
        fn decode_garbage_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = Vec::<u64>::from_bytes(&bytes);
            let _ = String::from_bytes(&bytes);
            let _ = <(u32, f64)>::from_bytes(&bytes);
        }
    }
}
