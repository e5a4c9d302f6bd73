//! # vfps-serve — the long-running selection service
//!
//! Four PRs built the machinery — the deterministic pool (`vfps-par`), the
//! fault-tolerant message plane (`vfps-net`), the observability plane
//! (`vfps-obs`), and the selection-artifact cache (`vfps-cache`) — and
//! this crate multiplexes many clients over all of it: a TCP daemon
//! speaking a hand-rolled length-prefixed protocol, with
//!
//! * **admission control** — a bounded queue ([`queue::BoundedQueue`]);
//!   over-capacity submits get an immediate typed [`proto::Response::Busy`],
//!   never unbounded queueing;
//! * **multi-tenancy** (protocol v2) — each request names its dataset
//!   world with a `dataset` tag; a [`tenant::TenantRegistry`] materializes
//!   worlds lazily, LRU-caps residency, shards the artifact cache per
//!   tenant, and accounts admission and `serve.*` metrics per tenant;
//! * **session scheduling** — up to `max_concurrent` jobs run at once,
//!   each through [`vfps_core::select_with_digest`] over its world's
//!   once-hashed [`vfps_core::TenantDigest`], so repeat requests are
//!   served warm (zero new encryptions, bit-identical) and one-party churn
//!   rides the incremental path;
//! * **graceful drain** — shutdown stops admission, finishes every
//!   admitted job, flushes the trace, and reports final accounting
//!   ([`proto::DrainReport`]) with `in_flight == 0`.
//!
//! ```no_run
//! use vfps_serve::{Client, SelectRequest, Request, Response, ServeConfig, Server};
//!
//! let cfg = ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() };
//! let server = Server::bind(&cfg).unwrap();
//! let addr = server.local_addr();
//! std::thread::spawn(move || server.run().unwrap());
//!
//! let mut client = Client::connect(addr).unwrap();
//! let reply = client
//!     .select(&SelectRequest {
//!         request_id: 1,
//!         dataset: String::new(), // "" = the server's default tenant
//!         party_set: vec![0, 1, 2, 3],
//!         select: 2,
//!         k: 10,
//!         query_count: 8,
//!         mode: 1,
//!         seed: 42,
//!         deadline_ms: 0,
//!         maximizer: 0, // 0 = exact greedy's set (2 = stochastic)
//!     })
//!     .unwrap();
//! assert!(matches!(reply, Response::Selected(_)));
//! client.shutdown().unwrap();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod flags;
pub mod proto;
pub mod queue;
pub mod server;
pub mod tenant;

pub use client::{Client, ClientError};
pub use proto::{
    health_state_name, knn_mode, maximizer, response_request_id, BackendStatus, DrainReport,
    Request, Response, RouterStatusReply, SelectReply, SelectRequest, TenantStatus,
    PROTOCOL_VERSION, SERVED_MAXIMIZER_EPSILON,
};
pub use queue::{AdmitError, BoundedQueue};
pub use server::{ServeConfig, ServeError, Server};
pub use tenant::{TenantRegistry, TenantStats, TenantWorld};
