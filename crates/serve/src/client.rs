//! Blocking client for the vfps-serve protocol.
//!
//! One [`Client`] wraps one connection and issues strictly ordered
//! request/response pairs. Retry-on-`Busy` is deliberately left to the
//! caller (the router suite's drain-under-load test has a retry loop) —
//! the protocol's backpressure only works if `Busy` stays visible.

use std::net::ToSocketAddrs;
use std::time::Duration;

use vfps_net::{Conn, FrameError};

use crate::proto::{
    knn_mode, DrainReport, Request, Response, RouterStatusReply, SelectRequest, TenantStatus,
};

/// Client-side failures. Typed server replies (`Busy`, `TimedOut`,
/// `Rejected`) are *not* errors — they come back as [`Response`] values.
#[derive(Debug)]
pub enum ClientError {
    /// Connect / read / write failure.
    Io(std::io::Error),
    /// The server closed the connection where a response frame was due.
    Disconnected,
    /// An undecodable or oversized response frame.
    Protocol(String),
    /// The request failed client-side pre-flight validation (unknown KNN
    /// mode byte) — nothing was sent; the server would only have rejected
    /// it.
    InvalidRequest(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o error: {e}"),
            ClientError::Disconnected => f.write_str("server hung up before responding"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// A connected vfps-serve client.
pub struct Client {
    conn: Conn,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Ok(Client { conn: Conn::connect(addr)? })
    }

    /// Bounds every blocking read on this connection — a client-side
    /// safety net past the server's own per-request deadline.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        Ok(self.conn.set_read_timeout(timeout)?)
    }

    /// Sends one request frame and reads exactly one response frame.
    pub fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.conn.send(req)?;
        self.conn.recv()?.ok_or(ClientError::Disconnected)
    }

    /// Submits one selection. The reply may be any of `Selected`, `Busy`,
    /// `TimedOut`, or `Rejected`; all echo the request id.
    ///
    /// An unknown `mode` or `maximizer` byte fails pre-flight with
    /// [`ClientError::InvalidRequest`] before anything hits the wire —
    /// the server enforces the same checks at admission (the wire-level
    /// contract is pinned by the mode=250 and maximizer=250 tests in
    /// `tests/service.rs`).
    pub fn select(&mut self, req: &SelectRequest) -> Result<Response, ClientError> {
        if knn_mode(req.mode).is_none() {
            return Err(ClientError::InvalidRequest(format!(
                "unknown KNN mode {} (known: 0=Base, 1=Fagin)",
                req.mode
            )));
        }
        if crate::proto::maximizer(req.maximizer).is_none() {
            return Err(ClientError::InvalidRequest(format!(
                "unknown maximizer {} (known: 0=greedy, 1=lazy, 2=stochastic)",
                req.maximizer
            )));
        }
        self.roundtrip(&Request::Select(req.clone()))
    }

    /// Liveness probe; returns the server's protocol version.
    pub fn ping(&mut self) -> Result<u32, ClientError> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong { version } => Ok(version),
            other => Err(ClientError::Protocol(format!("expected Pong, got {other:?}"))),
        }
    }

    /// Enumerates the server's tenants: `(default dataset, residency cap,
    /// per-tenant accounting in first-seen order)`.
    pub fn list_datasets(&mut self) -> Result<(String, u64, Vec<TenantStatus>), ClientError> {
        match self.roundtrip(&Request::ListDatasets)? {
            Response::Datasets { default_dataset, max_resident, tenants } => {
                Ok((default_dataset, max_resident, tenants))
            }
            other => Err(ClientError::Protocol(format!("expected Datasets, got {other:?}"))),
        }
    }

    /// Asks a routing tier for its ring and per-backend health/accounting.
    /// A plain daemon answers `Rejected` (`"not a router"`), surfaced here
    /// as [`ClientError::Protocol`].
    pub fn router_status(&mut self) -> Result<RouterStatusReply, ClientError> {
        self.router_verb(&Request::RouterStatus)
    }

    /// Asks a routing tier to remove `backend` from its ring (in-flight
    /// relays still complete); returns the post-drain status.
    pub fn router_drain(&mut self, backend: &str) -> Result<RouterStatusReply, ClientError> {
        self.router_verb(&Request::DrainBackend(backend.to_owned()))
    }

    /// Asks a routing tier to join backend `name` at `addr` to its ring
    /// live (only ~1/N of the keyspace re-homes); returns the post-join
    /// status. A duplicate name or a plain daemon answers `Rejected`,
    /// surfaced here as [`ClientError::Protocol`].
    pub fn router_add(&mut self, name: &str, addr: &str) -> Result<RouterStatusReply, ClientError> {
        self.router_verb(&Request::AddBackend { name: name.to_owned(), addr: addr.to_owned() })
    }

    /// Every routing-tier control verb is answered with the tier's status.
    fn router_verb(&mut self, req: &Request) -> Result<RouterStatusReply, ClientError> {
        match self.roundtrip(req)? {
            Response::RouterStatus(r) => Ok(r),
            Response::Rejected { reason, .. } => Err(ClientError::Protocol(reason)),
            other => Err(ClientError::Protocol(format!("expected RouterStatus, got {other:?}"))),
        }
    }

    /// Asks the server to drain and stop; blocks until in-flight work
    /// finished and returns the final accounting.
    pub fn shutdown(&mut self) -> Result<DrainReport, ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Draining(report) => Ok(report),
            other => Err(ClientError::Protocol(format!("expected Draining, got {other:?}"))),
        }
    }
}
