//! The routing tier: tenant-affine relay, health checking, backend drain,
//! and fan-out/merge for the broadcast verbs (DESIGN.md §13) behind the
//! shared accept loop ([`vfps_net::server`], DESIGN.md §6 "The network
//! edge").
//!
//! Each connection's handler relays one request at a time over its *own*
//! backend connections (cached per backend, so a client session keeps one
//! TCP stream per backend it actually talks to); one detached health
//! thread pings every non-drained backend on a fixed cadence and drives
//! the [`HealthMachine`]s.
//!
//! Relay contract: the router decodes each frame and re-encodes it
//! unchanged — the codec is canonical (every value has exactly one
//! encoding, pinned by the proto roundtrip tests), so a relayed reply is
//! bit-identical to the daemon's. Failover happens at **connect** time
//! only: once a request frame has been written to a backend, a transport
//! failure comes back to the client as a typed `Rejected` carrying the
//! [`TransportFailure`] taxonomy — never a silent retry, which could
//! execute a selection twice and lose the one-request-one-response
//! accounting.

use std::collections::btree_map::{BTreeMap, Entry};
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use vfps_net::server::{Listener, Reply};
use vfps_net::{Conn, TransportFailure};
use vfps_serve::{
    health_state_name, BackendStatus, DrainReport, Request, Response, RouterStatusReply,
    TenantStatus, PROTOCOL_VERSION,
};

use crate::health::{HealthMachine, HealthState};
use crate::ring::{Ring, DEFAULT_RING_SEED, DEFAULT_VNODES};

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Address to bind, e.g. `127.0.0.1:0` (0 picks a free port).
    pub addr: String,
    /// `(name, addr)` per backend daemon. Names are the ring identity:
    /// stable names keep vnode positions (and thus tenant placement)
    /// stable across router restarts.
    pub backends: Vec<(String, String)>,
    /// Seed the ring's point positions hash from.
    pub ring_seed: u64,
    /// Virtual nodes per backend.
    pub vnodes: u64,
    /// Cadence of the background ping loop.
    pub health_interval: Duration,
    /// Connect/read deadline for one health probe.
    pub health_timeout: Duration,
    /// Write a structured trace (span forest + metrics) here on drain.
    pub trace_out: Option<PathBuf>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: Vec::new(),
            ring_seed: DEFAULT_RING_SEED,
            vnodes: DEFAULT_VNODES,
            health_interval: Duration::from_millis(500),
            health_timeout: Duration::from_millis(250),
            trace_out: None,
        }
    }
}

/// One configured backend: address, health, and lifetime accounting.
struct Backend {
    name: String,
    addr: String,
    health: Mutex<HealthMachine>,
    routed: AtomicU64,
    relay_errors: AtomicU64,
}

impl Backend {
    fn state(&self) -> HealthState {
        self.health.lock().unwrap_or_else(PoisonError::into_inner).state()
    }

    fn routable(&self) -> bool {
        self.state().routable()
    }
}

/// The mutable routing membership: the ring and its index-aligned
/// backend list. Joins only *append* (drain keeps the slot, zeroing its
/// vnodes), so a backend's index is stable for the router's lifetime —
/// the invariant the per-connection [`ConnCache`] relies on.
struct Topology {
    ring: Ring,
    backends: Vec<Arc<Backend>>,
}

/// Everything shared between the acceptor, handlers, and the health
/// thread.
struct Shared {
    topology: RwLock<Topology>,
    /// The listener's stop flag; the health thread winds down with it.
    stopping: Arc<AtomicBool>,
    health_interval: Duration,
    health_timeout: Duration,
    /// The merged backend accounting, filled in by the handler that
    /// served the `Shutdown`.
    final_report: Mutex<Option<DrainReport>>,
}

impl Shared {
    /// A cheap membership snapshot: the `Arc`s, in index order. Handlers
    /// work on snapshots so a concurrent join never invalidates a relay
    /// already in flight.
    fn snapshot(&self) -> Vec<Arc<Backend>> {
        self.topology.read().unwrap_or_else(PoisonError::into_inner).backends.clone()
    }

    fn backend_entry(&self, name: &str) -> Option<(usize, Arc<Backend>)> {
        let topo = self.topology.read().unwrap_or_else(PoisonError::into_inner);
        topo.backends.iter().position(|b| b.name == name).map(|i| (i, topo.backends[i].clone()))
    }

    /// The ring owner for a tenant key among currently routable
    /// backends, plus the failover order behind it.
    fn candidates(&self, key: &str) -> Vec<(usize, Arc<Backend>)> {
        let topo = self.topology.read().unwrap_or_else(PoisonError::into_inner);
        topo.ring
            .walk(key)
            .filter_map(|name| topo.backends.iter().position(|b| b.name == name))
            .map(|i| (i, topo.backends[i].clone()))
            .filter(|(_, b)| b.routable())
            .collect()
    }

    fn status(&self) -> RouterStatusReply {
        let topo = self.topology.read().unwrap_or_else(PoisonError::into_inner);
        RouterStatusReply {
            ring_seed: topo.ring.seed(),
            vnodes_per_backend: topo.ring.vnodes_per_backend(),
            backends: topo
                .backends
                .iter()
                .map(|b| {
                    let state = b.state();
                    BackendStatus {
                        name: b.name.clone(),
                        addr: b.addr.clone(),
                        state: state.as_u8(),
                        // A drained backend has left the ring; down ones
                        // keep their points (they re-enter on recovery).
                        vnodes: if state == HealthState::Drained {
                            0
                        } else {
                            topo.ring.vnodes_per_backend()
                        },
                        routed: b.routed.load(Ordering::Acquire),
                        relay_errors: b.relay_errors.load(Ordering::Acquire),
                    }
                })
                .collect(),
        }
    }

    fn set_state_gauge(&self, b: &Backend, state: HealthState) {
        vfps_obs::gauge_set_labelled(
            "router.backend_state",
            "backend",
            &b.name,
            f64::from(state.as_u8()),
        );
    }
}

/// Errors surfaced by [`Router::bind`] / [`Router::run`] themselves
/// (per-request failures are typed wire replies, not `Err`s).
#[derive(Debug)]
pub enum RouterError {
    /// Configuration problem (no backends, duplicate names...).
    Config(String),
    /// Bind / accept failure.
    Io(std::io::Error),
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::Config(m) => write!(f, "config error: {m}"),
            RouterError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for RouterError {}

impl From<std::io::Error> for RouterError {
    fn from(e: std::io::Error) -> Self {
        RouterError::Io(e)
    }
}

/// The routing tier. Construct with [`Router::bind`], then
/// [`Router::run`].
pub struct Router {
    listener: Listener,
    shared: Arc<Shared>,
    trace_out: Option<PathBuf>,
}

impl Router {
    /// Validates the backend set, builds the ring, binds the listener,
    /// and prints the `listening on <addr>` line clients and tests
    /// parse. Backends start `Healthy`; the first health sweep corrects
    /// that within one interval if they are not.
    pub fn bind(cfg: &RouterConfig) -> Result<Router, RouterError> {
        if cfg.backends.is_empty() {
            return Err(RouterError::Config("at least one --backend is required".into()));
        }
        let mut ring = Ring::new(cfg.ring_seed, cfg.vnodes);
        let mut backends = Vec::with_capacity(cfg.backends.len());
        for (name, addr) in &cfg.backends {
            if name.is_empty() {
                return Err(RouterError::Config("backend names must be non-empty".into()));
            }
            if ring.backends().iter().any(|b| b == name) {
                return Err(RouterError::Config(format!("duplicate backend name {name}")));
            }
            ring.add(name);
            backends.push(Arc::new(Backend {
                name: name.clone(),
                addr: addr.clone(),
                health: Mutex::new(HealthMachine::new()),
                routed: AtomicU64::new(0),
                relay_errors: AtomicU64::new(0),
            }));
        }
        let listener = Listener::bind(&cfg.addr)?;
        if cfg.trace_out.is_some() {
            vfps_obs::start_capture();
        }
        let shared = Arc::new(Shared {
            topology: RwLock::new(Topology { ring, backends }),
            stopping: listener.stopping(),
            health_interval: cfg.health_interval,
            health_timeout: cfg.health_timeout,
            final_report: Mutex::new(None),
        });
        println!("vfps-router listening on {}", listener.local_addr());
        let _ = std::io::stdout().flush();
        Ok(Router { listener, shared, trace_out: cfg.trace_out.clone() })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Runs the accept loop (plus the background health thread) until a
    /// `Shutdown` request relays through to every backend and drains the
    /// tier. Returns the merged backend accounting; after a clean drain
    /// `in_flight == 0` and `accepted == completed + failed` hold for
    /// the merged report exactly as for each daemon's own.
    pub fn run(self) -> Result<DrainReport, RouterError> {
        {
            let shared = self.shared.clone();
            std::thread::Builder::new()
                .name("vfps-router-health".into())
                .spawn(move || health_loop(&shared))
                .expect("spawn health thread");
        }
        let shared = self.shared.clone();
        self.listener.serve(Response::connection_reject, move || {
            let shared = shared.clone();
            let mut conns = ConnCache::new();
            move |req| handle(&shared, &mut conns, req)
        })?;
        let report = self
            .shared
            .final_report
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .unwrap_or_default();
        if let Some(path) = &self.trace_out {
            if let Some(trace) = vfps_obs::finish_capture() {
                if let Err(e) = std::fs::write(path, trace.to_json()) {
                    eprintln!("warning: cannot write trace to {}: {e}", path.display());
                }
            }
        }
        let backends = self.shared.snapshot();
        let routed: u64 = backends.iter().map(|b| b.routed.load(Ordering::Acquire)).sum();
        let relay_errors: u64 =
            backends.iter().map(|b| b.relay_errors.load(Ordering::Acquire)).sum();
        println!(
            "router drain clean: accepted {} completed {} failed {} rejected {} in-flight {} \
             cache-hits {} routed {} relay-errors {}",
            report.accepted,
            report.completed,
            report.failed,
            report.rejected,
            report.in_flight,
            report.cache_hits,
            routed,
            relay_errors
        );
        Ok(report)
    }
}

/// One ping probe against a backend, bounded by `timeout` at connect,
/// read, and write.
fn probe(addr: &str, timeout: Duration) -> Result<(), TransportFailure> {
    let started = Instant::now();
    let conn = Conn::connect_timeout(addr, timeout)
        .and_then(|c| {
            c.set_read_timeout(Some(timeout))?;
            c.set_write_timeout(Some(timeout))?;
            Ok(c)
        })
        .map_err(|e| TransportFailure::classify_io(&e, started.elapsed()))?;
    match conn.call(&Request::Ping)? {
        Response::Pong { .. } => Ok(()),
        other => {
            Err(TransportFailure::Protocol { detail: format!("expected Pong, got {other:?}") })
        }
    }
}

/// The background health loop: pings every non-drained backend each
/// interval and logs state transitions. Sleeps in small slices so a
/// drain is noticed promptly.
fn health_loop(shared: &Arc<Shared>) {
    while !shared.stopping.load(Ordering::Acquire) {
        // Fresh snapshot per sweep: a backend joined mid-run is probed
        // from the next sweep on.
        for b in &shared.snapshot() {
            if b.state() == HealthState::Drained {
                continue;
            }
            let outcome = probe(&b.addr, shared.health_timeout);
            let mut health = b.health.lock().unwrap_or_else(PoisonError::into_inner);
            let transition = match &outcome {
                Ok(()) => health.record_success(),
                // Only liveness failures demote: a protocol-level
                // surprise (e.g. a misconfigured non-vfps peer) is an
                // operator error, and flapping the ring on it would
                // churn tenants for nothing.
                Err(tf) if tf.is_liveness_failure() => health.record_failure(),
                Err(_) => None,
            };
            let state = health.state();
            drop(health);
            if let Some(prev) = transition {
                vfps_obs::counter_add_labelled("router.health_transitions", "backend", &b.name, 1);
                shared.set_state_gauge(b, state);
                eprintln!(
                    "router: backend {} {} -> {}{}",
                    b.name,
                    health_state_name(prev.as_u8()),
                    health_state_name(state.as_u8()),
                    match &outcome {
                        Ok(()) => String::new(),
                        Err(tf) => format!(" ({tf})"),
                    }
                );
            }
        }
        let mut slept = Duration::ZERO;
        while slept < shared.health_interval && !shared.stopping.load(Ordering::Acquire) {
            let slice = shared.health_interval.saturating_sub(slept).min(Duration::from_millis(25));
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// Per-connection cache of backend streams, keyed by the backend's
/// topology index (stable — joins only append). A client session talking
/// to one tenant keeps one warm TCP stream to that tenant's backend.
type ConnCache = BTreeMap<usize, Conn>;

fn handle(shared: &Arc<Shared>, conns: &mut ConnCache, req: Request) -> Reply<Response> {
    Reply::Continue(match req {
        Request::Ping => Response::Pong { version: PROTOCOL_VERSION },
        Request::RouterStatus => Response::RouterStatus(shared.status()),
        Request::DrainBackend(name) => drain_backend(shared, &name),
        Request::AddBackend { name, addr } => add_backend(shared, &name, &addr),
        Request::ListDatasets => merged_datasets(shared, conns),
        Request::Shutdown => {
            let report = relay_shutdown(shared);
            *shared.final_report.lock().unwrap_or_else(PoisonError::into_inner) = Some(report);
            return Reply::Stop(Response::Draining(report));
        }
        Request::Select(sel) => route_select(shared, conns, sel),
    })
}

/// The connect stage: the cached stream to backend `idx`, dialled on first
/// use. Nothing has been sent when this fails, so the caller may fail over.
fn backend_conn<'c>(
    conns: &'c mut ConnCache,
    backend: &Backend,
    idx: usize,
) -> Result<&'c Conn, TransportFailure> {
    if let Entry::Vacant(slot) = conns.entry(idx) {
        let started = Instant::now();
        let conn = Conn::connect(&backend.addr)
            .map_err(|e| TransportFailure::classify_io(&e, started.elapsed()))?;
        slot.insert(conn);
    }
    Ok(&conns[&idx])
}

/// Relays one request over a (possibly cached) backend stream and reads
/// its single reply. Any failure invalidates the cached stream — but is
/// *returned*, never retried: the frame may already be executing.
fn relay(
    conns: &mut ConnCache,
    backend: &Backend,
    idx: usize,
    req: &Request,
) -> Result<Response, TransportFailure> {
    let result = backend_conn(conns, backend, idx)?.call(req);
    if result.is_err() {
        conns.remove(&idx);
    }
    result
}

/// Routes one selection to its tenant's ring owner. Failover walks the
/// ring only while *connects* fail; once a backend accepted the frame,
/// its outcome (or a typed rejection carrying the transport taxonomy)
/// is the client's answer.
fn route_select(
    shared: &Arc<Shared>,
    conns: &mut ConnCache,
    sel: vfps_serve::SelectRequest,
) -> Response {
    let request_id = sel.request_id;
    let key = sel.dataset.clone();
    let candidates = shared.candidates(&key);
    let req = Request::Select(sel);
    for (idx, backend) in &candidates {
        let idx = *idx;
        // Connect stage: a refused/unreachable backend is skipped (and
        // billed a relay error — the health loop will demote it soon).
        if let Err(tf) = backend_conn(conns, backend, idx) {
            backend.relay_errors.fetch_add(1, Ordering::AcqRel);
            vfps_obs::counter_add_labelled("router.relay_errors", "backend", &backend.name, 1);
            eprintln!("router: connect to backend {} failed: {tf}", backend.name);
            continue;
        }
        let started = Instant::now();
        match relay(conns, backend, idx, &req) {
            Ok(resp) => {
                backend.routed.fetch_add(1, Ordering::AcqRel);
                vfps_obs::counter_add_labelled("router.routed", "backend", &backend.name, 1);
                vfps_obs::histogram_record_labelled(
                    "router.relay_us",
                    "backend",
                    &backend.name,
                    started.elapsed().as_micros() as f64,
                );
                return resp;
            }
            Err(tf) => {
                backend.relay_errors.fetch_add(1, Ordering::AcqRel);
                vfps_obs::counter_add_labelled("router.relay_errors", "backend", &backend.name, 1);
                return Response::Rejected {
                    request_id,
                    reason: format!("relay to backend {} failed: {tf}", backend.name),
                };
            }
        }
    }
    Response::Rejected { request_id, reason: format!("no routable backend for tenant {key:?}") }
}

/// Drains a backend out of the ring: new requests route around it,
/// in-flight relays (already past the connect stage in some handler)
/// run to completion on their existing streams.
fn drain_backend(shared: &Arc<Shared>, name: &str) -> Response {
    let Some((_, backend)) = shared.backend_entry(name) else {
        return Response::connection_reject(format!(
            "unknown backend {name:?} (configured: {})",
            shared.snapshot().iter().map(|b| b.name.as_str()).collect::<Vec<_>>().join(", ")
        ));
    };
    let backend = &backend;
    let prev = {
        let mut health = backend.health.lock().unwrap_or_else(PoisonError::into_inner);
        health.drain()
    };
    if let Some(prev) = prev {
        shared.set_state_gauge(backend, HealthState::Drained);
        vfps_obs::counter_add_labelled("router.drained", "backend", name, 1);
        println!(
            "router: backend {name} drained out of the ring ({} -> drained)",
            health_state_name(prev.as_u8())
        );
        let _ = std::io::stdout().flush();
    }
    Response::RouterStatus(shared.status())
}

/// Joins a backend to the ring live. Consistent hashing means only the
/// keys whose ring walk now meets the newcomer's vnodes first re-home
/// (~1/N of the keyspace); every other tenant keeps its backend and its
/// warm cache shard. The newcomer starts `Healthy` and is probed from
/// the health loop's next sweep; a flaky join therefore demotes within
/// one interval, exactly like a configured backend going bad.
fn add_backend(shared: &Arc<Shared>, name: &str, addr: &str) -> Response {
    if name.is_empty() {
        return Response::connection_reject("backend names must be non-empty".into());
    }
    if addr.is_empty() {
        return Response::connection_reject("backend address must be non-empty".into());
    }
    {
        let mut topo = shared.topology.write().unwrap_or_else(PoisonError::into_inner);
        if topo.backends.iter().any(|b| b.name == name) {
            return Response::connection_reject(format!("duplicate backend name {name}"));
        }
        topo.ring.add(name);
        topo.backends.push(Arc::new(Backend {
            name: name.to_owned(),
            addr: addr.to_owned(),
            health: Mutex::new(HealthMachine::new()),
            routed: AtomicU64::new(0),
            relay_errors: AtomicU64::new(0),
        }));
    }
    vfps_obs::counter_add_labelled("router.added", "backend", name, 1);
    println!("router: backend {name} joined the ring at {addr}");
    let _ = std::io::stdout().flush();
    Response::RouterStatus(shared.status())
}

/// Fans `ListDatasets` out to every routable backend and merges the
/// ledgers: tenants are keyed by dataset name in first-seen (backend
/// config, then per-backend first-seen) order, counters sum, residency
/// ORs, and `max_resident` sums (it is a capacity, and capacities add
/// across daemons).
fn merged_datasets(shared: &Arc<Shared>, conns: &mut ConnCache) -> Response {
    let mut default_dataset: Option<String> = None;
    let mut max_resident = 0u64;
    let mut order: Vec<String> = Vec::new();
    let mut merged: Vec<TenantStatus> = Vec::new();
    let mut reached = 0usize;
    for (idx, backend) in shared.snapshot().iter().enumerate() {
        if !backend.routable() {
            continue;
        }
        let reply = match relay(conns, backend, idx, &Request::ListDatasets) {
            Ok(Response::Datasets { default_dataset: dd, max_resident: mr, tenants }) => {
                reached += 1;
                (dd, mr, tenants)
            }
            Ok(_) | Err(_) => {
                backend.relay_errors.fetch_add(1, Ordering::AcqRel);
                vfps_obs::counter_add_labelled("router.relay_errors", "backend", &backend.name, 1);
                continue;
            }
        };
        let (dd, mr, tenants) = reply;
        if default_dataset.is_none() {
            default_dataset = Some(dd);
        }
        max_resident += mr;
        for t in tenants {
            match order.iter().position(|d| *d == t.dataset) {
                Some(i) => {
                    let m = &mut merged[i];
                    m.resident |= t.resident;
                    m.accepted += t.accepted;
                    m.completed += t.completed;
                    m.failed += t.failed;
                    m.rejected += t.rejected;
                    m.in_flight += t.in_flight;
                    m.cache_hits += t.cache_hits;
                }
                None => {
                    order.push(t.dataset.clone());
                    merged.push(t);
                }
            }
        }
    }
    if reached == 0 {
        return Response::connection_reject("no routable backend".into());
    }
    Response::Datasets {
        default_dataset: default_dataset.unwrap_or_default(),
        max_resident,
        tenants: merged,
    }
}

/// Relays `Shutdown` to **every** backend — drained and down ones
/// included (a drained daemon still holds accepted work and accounting;
/// a down one gets a best-effort attempt) — and sums the reports.
fn relay_shutdown(shared: &Arc<Shared>) -> DrainReport {
    let mut total = DrainReport::default();
    let backends = shared.snapshot();
    for (idx, backend) in backends.iter().enumerate() {
        // Fresh connection: handler caches belong to their connections,
        // and this must reach backends this handler never routed to.
        match relay(&mut ConnCache::new(), backend, idx, &Request::Shutdown) {
            Ok(Response::Draining(report)) => {
                total.accepted += report.accepted;
                total.completed += report.completed;
                total.failed += report.failed;
                total.rejected += report.rejected;
                total.in_flight += report.in_flight;
                total.cache_hits += report.cache_hits;
            }
            Ok(other) => {
                eprintln!(
                    "router: backend {} answered shutdown with {other:?}; skipping its accounting",
                    backend.name
                );
            }
            Err(tf) => {
                eprintln!(
                    "router: backend {} unreachable during shutdown ({tf}); skipping its \
                     accounting",
                    backend.name
                );
            }
        }
    }
    total
}
