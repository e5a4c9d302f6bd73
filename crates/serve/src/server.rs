//! The selection daemon: admission control, session scheduling, and
//! graceful drain (DESIGN.md §10) behind the shared accept loop
//! ([`vfps_net::server`], DESIGN.md §6 "The network edge").
//!
//! Each connection's handler performs admission control inline and blocks
//! until the job's single [`Response`] is ready — a connection never has
//! more than one request in flight, so handler threads are the natural
//! per-session flow control. `max_concurrent` **workers** pop admitted
//! jobs off the [`BoundedQueue`] and run them through
//! [`vfps_core::select_with_digest`], keyed by their world's digest, so a
//! request never rehashes the tenant's data; the selection kernels inside
//! fan out on the shared `vfps-par` pool, so worker count bounds
//! *sessions*, not CPU parallelism.
//!
//! Determinism: every tenant's dataset and partition are fixed by
//! `(dataset, instances, parties, data_seed)` — built by the
//! [`TenantRegistry`] exactly as the `vfps` CLI builds them — and the
//! request seed feeds the [`SelectionContext`] unchanged, so a served
//! reply is bit-identical (chosen set and scores) to a direct
//! single-tenant pipeline run over the same inputs, and repeat requests
//! hit that tenant's artifact-cache shard's warm path with zero new
//! encryptions.
//!
//! Multi-tenancy (protocol v2): a request's `dataset` tag picks its
//! world; worlds materialize lazily and the registry LRU-caps residency.
//! Admission, queue depth, and failure accounting are kept per tenant
//! (`serve.*{tenant=...}` labelled metrics plus the [`crate::TenantStatus`]
//! counters behind [`Request::ListDatasets`]), so one hot tenant is
//! visible and cannot silently starve the rest.

use std::io::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use vfps_core::selectors::{SelectionContext, VfpsSmSelector};
use vfps_net::cost::CostModel;
use vfps_net::server::{Listener, Reply};

use crate::proto::{
    knn_mode, maximizer, DrainReport, Request, Response, SelectReply, SelectRequest,
    PROTOCOL_VERSION,
};
use crate::queue::{AdmitError, BoundedQueue};
use crate::tenant::{TenantRegistry, TenantWorld};

/// Server configuration. The dataset/partition fields must match a direct
/// run's for bit-identical replies (see the module docs).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Address to bind, e.g. `127.0.0.1:0` (0 picks a free port).
    pub addr: String,
    /// Default synthetic dataset name (`vfps_data::DatasetSpec::by_name`)
    /// — the tenant a request with an empty `dataset` tag is served under.
    pub dataset: String,
    /// Instance count; 0 uses the spec's simulation default.
    pub instances: usize,
    /// Consortium size the partition is built for.
    pub parties: usize,
    /// Seed for dataset generation and partitioning — a direct
    /// `vfps --synthetic <ds> --seed S` run matches a served request with
    /// `seed == S` on a server started with `data_seed == S`.
    pub data_seed: u64,
    /// Maximum selection jobs running at once (worker threads).
    pub max_concurrent: usize,
    /// Admission queue capacity; submits beyond it get `Busy`.
    pub queue_capacity: usize,
    /// How many tenant dataset worlds stay materialized at once; beyond
    /// it the least-recently-used world is evicted (its accounting and
    /// cache shard survive, the world rebuilds on next use).
    pub max_tenants: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Duration,
    /// Artifact cache directory; `None` uses a fresh per-process scratch
    /// directory (warm serving still works within the server's lifetime).
    pub cache_dir: Option<PathBuf>,
    /// Serve exactly one selection request, then drain and exit.
    pub once: bool,
    /// Write a structured trace (span forest + metrics) here on drain.
    pub trace_out: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            dataset: "Bank".into(),
            instances: 0,
            parties: 4,
            data_seed: 42,
            max_concurrent: 2,
            queue_capacity: 8,
            max_tenants: 4,
            default_deadline: Duration::from_secs(30),
            cache_dir: None,
            once: false,
            trace_out: None,
        }
    }
}

/// One admitted job: the request, its resolved tenant world, its reply
/// slot and timing. Holding the world by `Arc` pins it across LRU
/// eviction for the job's lifetime.
struct Job {
    req: SelectRequest,
    world: Arc<TenantWorld>,
    admitted_at: Instant,
    deadline: Instant,
    reply: mpsc::Sender<Response>,
}

/// Everything shared between acceptor, handlers, and workers.
struct Shared {
    registry: TenantRegistry,
    cost_model: CostModel,
    queue: BoundedQueue<Job>,
    default_deadline: Duration,
    once: bool,
    // Lifetime accounting (the DrainReport).
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cache_hits: AtomicU64,
    in_flight: AtomicU64,
    // Drain machinery: close the queue, then wait for every worker to
    // exit (which implies the queue fully drained).
    live_workers: AtomicUsize,
    drained: (Mutex<()>, Condvar),
}

impl Shared {
    fn report(&self) -> DrainReport {
        DrainReport {
            accepted: self.accepted.load(Ordering::Acquire),
            completed: self.completed.load(Ordering::Acquire),
            failed: self.failed.load(Ordering::Acquire),
            rejected: self.rejected.load(Ordering::Acquire),
            in_flight: self.in_flight.load(Ordering::Acquire) + self.queue.len() as u64,
            cache_hits: self.cache_hits.load(Ordering::Acquire),
        }
    }

    /// Stops admission and blocks until all admitted work is answered.
    /// A lock poisoned by a panicking thread is recovered, not
    /// propagated: the guarded state is `()` (the condvar's predicate is
    /// the `live_workers` atomic), so a drain must still complete after
    /// any worker panic. No wake-up is lost: a worker decrements, then
    /// notifies under the lock this thread holds from check to sleep.
    fn drain(&self) -> DrainReport {
        self.queue.close();
        let (lock, cvar) = &self.drained;
        let guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
        drop(
            cvar.wait_while(guard, |()| self.live_workers.load(Ordering::Acquire) > 0)
                .unwrap_or_else(PoisonError::into_inner),
        );
        self.report()
    }

    fn worker_exited(&self) {
        self.live_workers.fetch_sub(1, Ordering::AcqRel);
        let (lock, cvar) = &self.drained;
        let _g = lock.lock().unwrap_or_else(PoisonError::into_inner);
        cvar.notify_all();
    }
}

/// Errors surfaced by [`Server::run`] itself (per-request failures are
/// typed wire replies, not `Err`s).
#[derive(Debug)]
pub enum ServeError {
    /// Configuration problem (unknown dataset, zero parties...).
    Config(String),
    /// Bind / accept / cache-open failure.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(m) => write!(f, "config error: {m}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// The daemon. Construct with [`Server::bind`], then [`Server::run`].
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
    trace_out: Option<PathBuf>,
    scratch_cache: Option<PathBuf>,
}

impl Server {
    /// Builds the tenant registry (materializing the default tenant's
    /// world eagerly, so config errors fail the bind, not the first
    /// request), binds the listener, and prints the
    /// `listening on <addr>` line clients and tests parse.
    pub fn bind(cfg: &ServeConfig) -> Result<Server, ServeError> {
        if cfg.max_concurrent == 0 {
            return Err(ServeError::Config("max_concurrent must be positive".into()));
        }
        if cfg.queue_capacity == 0 {
            return Err(ServeError::Config("queue_capacity must be positive".into()));
        }
        let (cache_dir, scratch_cache) = match &cfg.cache_dir {
            Some(dir) => (dir.clone(), None),
            None => {
                // Unique per `Server`, not per process: two servers in one
                // process must not share (and on drain delete) a directory.
                static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);
                let dir = std::env::temp_dir().join(format!(
                    "vfps_serve_cache_{}_{}",
                    std::process::id(),
                    SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                (dir.clone(), Some(dir))
            }
        };
        let registry = TenantRegistry::new(
            &cfg.dataset,
            cfg.instances,
            cfg.parties,
            cfg.data_seed,
            cache_dir,
            cfg.max_tenants,
        );
        registry.resolve("").map_err(ServeError::Config)?;

        let listener = Listener::bind(&cfg.addr)?;

        if cfg.trace_out.is_some() {
            vfps_obs::start_capture();
        }

        let shared = Arc::new(Shared {
            registry,
            cost_model: CostModel::default(),
            queue: BoundedQueue::new(cfg.queue_capacity),
            default_deadline: cfg.default_deadline,
            once: cfg.once,
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            live_workers: AtomicUsize::new(cfg.max_concurrent),
            drained: (Mutex::new(()), Condvar::new()),
        });
        for w in 0..cfg.max_concurrent {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("vfps-serve-worker-{w}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker");
        }

        println!("vfps-serve listening on {}", listener.local_addr());
        let _ = std::io::stdout().flush();
        Ok(Server { listener, shared, trace_out: cfg.trace_out.clone(), scratch_cache })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Runs the accept loop until a `Shutdown` request (or, in `--once`
    /// mode, the first served selection) drains the server. Returns the
    /// final accounting; after a clean drain `in_flight == 0` and
    /// `accepted == completed + failed`.
    pub fn run(self) -> Result<DrainReport, ServeError> {
        let shared = self.shared.clone();
        self.listener.serve(Response::connection_reject, move || {
            let shared = shared.clone();
            move |req| handle(&shared, req)
        })?;
        // A `Shutdown` handler already drained; `--once` stops the listener
        // as soon as its reply is written and leaves the drain to here.
        let report = self.shared.drain();
        if let Some(path) = &self.trace_out {
            if let Some(trace) = vfps_obs::finish_capture() {
                if let Err(e) = std::fs::write(path, trace.to_json()) {
                    eprintln!("warning: cannot write trace to {}: {e}", path.display());
                }
            }
        }
        if let Some(dir) = &self.scratch_cache {
            let _ = std::fs::remove_dir_all(dir);
        }
        println!(
            "drain clean: accepted {} completed {} failed {} rejected {} in-flight {} cache-hits {}",
            report.accepted,
            report.completed,
            report.failed,
            report.rejected,
            report.in_flight,
            report.cache_hits
        );
        Ok(report)
    }
}

fn handle(shared: &Arc<Shared>, req: Request) -> Reply<Response> {
    Reply::Continue(match req {
        Request::Ping => Response::Pong { version: PROTOCOL_VERSION },
        Request::Shutdown => {
            vfps_obs::counter_add("serve.shutdown", 1);
            return Reply::Stop(Response::Draining(shared.drain()));
        }
        Request::ListDatasets => Response::Datasets {
            default_dataset: shared.registry.default_dataset().to_owned(),
            max_resident: shared.registry.max_resident() as u64,
            tenants: shared.registry.statuses(),
        },
        // Routing-tier control frames reaching a plain daemon get a typed
        // rejection, not a hangup — a misconfigured `vfps route` pointed
        // at a backend should learn *why* it failed.
        Request::RouterStatus | Request::DrainBackend(_) | Request::AddBackend { .. } => {
            Response::connection_reject("not a router: this is a vfps-serve daemon".into())
        }
        Request::Select(sel) => {
            let resp = submit(shared, sel);
            if shared.once && matches!(resp, Response::Selected(_)) {
                return Reply::Stop(resp);
            }
            resp
        }
    })
}

/// Validates, admits, and waits out one selection request; always returns
/// exactly one response.
fn submit(shared: &Arc<Shared>, req: SelectRequest) -> Response {
    let id = req.request_id;
    // Resolve the tenant world first: an unknown dataset is a typed
    // rejection with no tenant to bill it to.
    let world = match shared.registry.resolve(&req.dataset) {
        Ok(w) => w,
        Err(reason) => {
            shared.rejected.fetch_add(1, Ordering::AcqRel);
            vfps_obs::counter_add("serve.rejected", 1);
            return Response::Rejected { request_id: id, reason };
        }
    };
    let tenant = world.name.clone();
    if let Err(reason) = validate(&world, &req) {
        shared.rejected.fetch_add(1, Ordering::AcqRel);
        world.stats.rejected.fetch_add(1, Ordering::AcqRel);
        vfps_obs::counter_add("serve.rejected", 1);
        vfps_obs::counter_add_labelled("serve.rejected", "tenant", &tenant, 1);
        return Response::Rejected { request_id: id, reason };
    }
    let deadline_ms = req.deadline_ms;
    let now = Instant::now();
    let deadline = now
        + if deadline_ms == 0 {
            shared.default_deadline
        } else {
            Duration::from_millis(deadline_ms)
        };
    let (tx, rx) = mpsc::channel();
    let stats = world.stats.clone();
    // Bill the tenant's in-flight slot *before* the push: once the job is
    // in the queue a worker may pop, run, and decrement it at any moment,
    // so incrementing afterwards would race the counter below zero.
    stats.in_flight.fetch_add(1, Ordering::AcqRel);
    let job = Job { req, world, admitted_at: now, deadline, reply: tx };
    match shared.queue.try_push(job) {
        Ok(depth) => {
            shared.accepted.fetch_add(1, Ordering::AcqRel);
            stats.accepted.fetch_add(1, Ordering::AcqRel);
            vfps_obs::counter_add("serve.accepted", 1);
            vfps_obs::counter_add_labelled("serve.accepted", "tenant", &tenant, 1);
            vfps_obs::gauge_set("serve.queue_depth", depth as f64);
            vfps_obs::gauge_set_labelled(
                "serve.queue_depth",
                "tenant",
                &tenant,
                stats.in_flight.load(Ordering::Acquire) as f64,
            );
        }
        Err(AdmitError::Full(_, depth)) => {
            stats.in_flight.fetch_sub(1, Ordering::AcqRel);
            shared.rejected.fetch_add(1, Ordering::AcqRel);
            stats.rejected.fetch_add(1, Ordering::AcqRel);
            vfps_obs::counter_add("serve.rejected", 1);
            vfps_obs::counter_add("serve.busy", 1);
            vfps_obs::counter_add_labelled("serve.busy", "tenant", &tenant, 1);
            return Response::Busy {
                request_id: id,
                queue_depth: depth as u64,
                capacity: shared.queue.capacity() as u64,
            };
        }
        Err(AdmitError::Closed(_)) => {
            stats.in_flight.fetch_sub(1, Ordering::AcqRel);
            shared.rejected.fetch_add(1, Ordering::AcqRel);
            stats.rejected.fetch_add(1, Ordering::AcqRel);
            vfps_obs::counter_add("serve.rejected", 1);
            return Response::Rejected { request_id: id, reason: "server draining".into() };
        }
    }
    // The worker always sends exactly one response (selection, timeout, or
    // rejection), so a blocking receive cannot hang past the deadline plus
    // one job's runtime.
    match rx.recv() {
        Ok(resp) => resp,
        Err(_) => Response::Rejected { request_id: id, reason: "worker dropped reply".into() },
    }
}

fn validate(world: &TenantWorld, req: &SelectRequest) -> Result<(), String> {
    let parties = world.partition.parties();
    if req.party_set.is_empty() {
        return Err("empty party set".into());
    }
    if let Some(&bad) = req.party_set.iter().find(|&&p| p >= parties) {
        return Err(format!("party {bad} out of range (tenant {} has {parties})", world.name));
    }
    let mut sorted = req.party_set.clone();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != req.party_set.len() {
        return Err("duplicate party ids".into());
    }
    if req.select == 0 || req.select > req.party_set.len() {
        return Err(format!(
            "select {} out of range for a {}-party set",
            req.select,
            req.party_set.len()
        ));
    }
    if knn_mode(req.mode).is_none() {
        return Err(format!("unknown KNN mode {}", req.mode));
    }
    if maximizer(req.maximizer).is_none() {
        return Err(format!("unknown maximizer {}", req.maximizer));
    }
    if req.k == 0 || req.query_count == 0 {
        return Err("k and query_count must be positive".into());
    }
    Ok(())
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        vfps_obs::gauge_set("serve.queue_depth", shared.queue.len() as f64);
        let stats = job.world.stats.clone();
        let tenant = job.world.name.clone();
        let waited = job.admitted_at.elapsed();
        if Instant::now() >= job.deadline {
            // Reuse the net plane's timeout taxonomy for the failure.
            let err = vfps_net::Error::Timeout { peer: None, waited };
            vfps_obs::counter_add("serve.failed", 1);
            vfps_obs::counter_add("serve.deadline_expired", 1);
            vfps_obs::counter_add_labelled("serve.failed", "tenant", &tenant, 1);
            shared.failed.fetch_add(1, Ordering::AcqRel);
            stats.failed.fetch_add(1, Ordering::AcqRel);
            stats.in_flight.fetch_sub(1, Ordering::AcqRel);
            let _ = job.reply.send(Response::TimedOut {
                request_id: job.req.request_id,
                waited_ms: match err {
                    vfps_net::Error::Timeout { waited, .. } => waited.as_millis() as u64,
                    _ => unreachable!("constructed as Timeout"),
                },
            });
            continue;
        }
        shared.in_flight.fetch_add(1, Ordering::AcqRel);
        let resp = run_job(shared, &job, waited);
        if matches!(resp, Response::Selected(_)) {
            shared.completed.fetch_add(1, Ordering::AcqRel);
            stats.completed.fetch_add(1, Ordering::AcqRel);
            vfps_obs::counter_add("serve.completed", 1);
            vfps_obs::counter_add_labelled("serve.completed", "tenant", &tenant, 1);
        } else {
            shared.failed.fetch_add(1, Ordering::AcqRel);
            stats.failed.fetch_add(1, Ordering::AcqRel);
            vfps_obs::counter_add("serve.failed", 1);
            vfps_obs::counter_add_labelled("serve.failed", "tenant", &tenant, 1);
        }
        shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        stats.in_flight.fetch_sub(1, Ordering::AcqRel);
        let _ = job.reply.send(resp);
    }
    shared.worker_exited();
}

fn run_job(shared: &Arc<Shared>, job: &Job, queued: Duration) -> Response {
    let _span = vfps_obs::span("serve.request");
    let req = &job.req;
    let world = &job.world;
    let ctx = SelectionContext {
        ds: &world.ds,
        split: &world.split,
        partition: &world.partition,
        cost_scale: 1.0,
        seed: req.seed,
    };
    let sel = VfpsSmSelector {
        k: req.k,
        query_count: req.query_count,
        // Admission already rejected unknown bytes; an unreachable here
        // beats a silent coercion if the two ever drift.
        mode: knn_mode(req.mode).expect("mode validated at admission"),
        maximizer: maximizer(req.maximizer).expect("maximizer validated at admission"),
        ..VfpsSmSelector::default()
    };
    let tc = world.tenant_context();
    let started = Instant::now();
    // `run_over` is panic-free for validated inputs, but a lost response
    // would wedge the client forever — convert any selection panic into a
    // typed rejection instead.
    let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        vfps_core::select_with_digest(
            &world.cache,
            world.digest(),
            &sel,
            &ctx,
            &req.party_set,
            req.select,
            &shared.cost_model,
            &tc,
        )
    }));
    let run = started.elapsed();
    let served = match served {
        Ok(s) => s,
        Err(_) => {
            return Response::Rejected {
                request_id: req.request_id,
                reason: "selection panicked".into(),
            }
        }
    };
    if let Some(err) = &served.degraded {
        vfps_obs::counter_add("serve.cache_degraded", 1);
        eprintln!("warning: request {}: cache degraded to cold run: {err}", req.request_id);
    }
    let ledger = &served.selection.ledger;
    shared.cache_hits.fetch_add(ledger.cache_hits, Ordering::AcqRel);
    world.stats.cache_hits.fetch_add(ledger.cache_hits, Ordering::AcqRel);
    vfps_obs::counter_add_labelled("serve.cache_hits", "tenant", &world.name, ledger.cache_hits);
    vfps_obs::counter_add_labelled("serve.enc_instances", "tenant", &world.name, ledger.enc.work);
    let total_us = (queued + run).as_micros() as f64;
    vfps_obs::histogram_record("serve.latency_us", total_us);
    vfps_obs::histogram_record("serve.queue_us", queued.as_micros() as f64);
    vfps_obs::histogram_record_labelled("serve.latency_us", "tenant", &world.name, total_us);
    Response::Selected(SelectReply {
        request_id: req.request_id,
        chosen: served.selection.chosen.clone(),
        scores: served.selection.scores.clone(),
        cache_status: served.status.to_string(),
        enc_instances: ledger.enc.work,
        cache_hits: ledger.cache_hits,
        cache_misses: ledger.cache_misses,
        queue_us: queued.as_micros() as u64,
        run_us: run.as_micros() as u64,
        random_accesses: ledger.random_accesses,
    })
}
