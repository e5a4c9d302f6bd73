//! # vfps-cluster — the real-socket party plane
//!
//! Runs the fed-KNN protocol of `vfps-vfl` over actual TCP instead of
//! in-process channels, with the *same* protocol bodies on both backends
//! (they are generic over [`vfps_net::Channel`]):
//!
//! * [`party`] — the party daemon: holds one party's feature columns,
//!   serves protocol sessions over a listener, answers idempotent health
//!   probes, and survives malformed peers. [`party::PartyChannel`] is the
//!   daemon-side [`Channel`](vfps_net::Channel) implementation.
//! * [`hub`] — the coordinator: dials the daemons with a reconnect
//!   budget, hosts node 0 in-process, relays participant ⇄ participant
//!   frames, and maps socket death onto the typed
//!   [`vfps_net::Error`] taxonomy as peer departures.
//! * [`msg`] — the coordinator ⇄ daemon control frames (setup, routing,
//!   departures, terminal results), length-prefixed via `net::wire`.
//! * [`run`] — backend-generic driving: [`run::run_cluster_knn`] over
//!   daemons, and [`run::Backend`] to pick sim vs TCP per config.
//!
//! Determinism: both backends derive the pseudo-ID permutation from the
//! same seed through [`vfps_vfl::KnnSession::new`], and with an
//! arrival-order-exact scheme (Paillier) the per-query outcomes — and the
//! logical byte/message totals — are bit-identical across backends. The
//! cross-backend test pins this.

#![warn(missing_docs)]

pub mod hub;
pub mod msg;
pub mod party;
pub mod run;

pub use hub::{ping_party, ClusterStats, Hub, HubOptions, PartyLinkStats, StatsProbe};
pub use msg::{ClusterMsg, ErrorFrame, SchemeKind, SchemeSpec, SetupFrame};
pub use party::{serve_party, PartyChannel, PartyConfig, PartyReport};
pub use run::{
    run_cluster_knn, run_cluster_knn_supervised, run_knn_backend, Backend, ClusterKnnReport,
};
