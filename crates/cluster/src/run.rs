//! Backend-generic protocol driving: run the fed-KNN session over the
//! simulated cluster or over real daemons, with the same typed
//! [`FaultedRun`] outcome either way.

use std::sync::Arc;
use std::time::Duration;

use vfps_data::VerticalPartition;
use vfps_he::scheme::AdditiveHe;
use vfps_ml::linalg::Matrix;
use vfps_net::{Error, FaultPlan};
use vfps_vfl::fed_knn::FedKnnConfig;
use vfps_vfl::{knn_server_node, run_threaded_knn_faulted, FaultedRun, KnnSession};

use crate::hub::{ClusterStats, Hub, HubOptions, StatsProbe};
use crate::msg::SchemeSpec;

/// A finished real-socket run: the protocol outcome plus the transport
/// accounting the simulated backend reports through its traffic ledger.
#[derive(Debug)]
pub struct ClusterKnnReport {
    /// The typed protocol outcome (complete / degraded / aborted).
    pub run: FaultedRun,
    /// Per-link frame and byte counters, connect/reconnect/kill totals.
    pub stats: ClusterStats,
}

/// Runs one fed-KNN session against real party daemons: the coordinator
/// hosts node 0 in-process (the exact [`knn_server_node`] body the
/// simulated backend runs) and `addrs[slot]` hosts node `1 + slot`.
///
/// Fault-free, the outcomes — and the logical byte/message totals — are
/// bit-identical to [`run_threaded_knn_faulted`] with the same session
/// and an empty plan, provided the scheme's aggregation is
/// arrival-order-exact (Paillier's modular addition is; see the pinned
/// cross-backend test).
///
/// # Errors
/// I/O error only for setup failures (unreachable daemon, refused
/// session). Failures *during* the protocol are never an `Err`: they
/// surface as [`FaultedRun::Degraded`] / [`FaultedRun::Aborted`].
pub fn run_cluster_knn<H: AdditiveHe>(
    he: &Arc<H>,
    session: &KnnSession,
    shuffle_seed: u64,
    scheme: SchemeSpec,
    addrs: &[String],
    opts: &HubOptions,
) -> std::io::Result<ClusterKnnReport> {
    run_cluster_knn_supervised(he, session, shuffle_seed, scheme, addrs, opts, |_| {})
}

/// [`run_cluster_knn`] with a supervision hook: `supervise` receives a
/// [`StatsProbe`] right after every daemon passed setup, before the first
/// protocol frame. The kill-matrix harness uses it to spawn a watcher
/// thread that `SIGKILL`s a real daemon once the probe shows the protocol
/// mid-flight — progress-gated, not wall-clock-guessed.
///
/// # Errors
/// Same contract as [`run_cluster_knn`].
pub fn run_cluster_knn_supervised<H: AdditiveHe>(
    he: &Arc<H>,
    session: &KnnSession,
    shuffle_seed: u64,
    scheme: SchemeSpec,
    addrs: &[String],
    opts: &HubOptions,
    supervise: impl FnOnce(StatsProbe),
) -> std::io::Result<ClusterKnnReport> {
    let p = session.parties.len();
    let mut hub = Hub::connect(addrs, session, shuffle_seed, scheme, opts)?;
    supervise(hub.probe());

    let server = {
        vfps_obs::span!("cluster.run");
        knn_server_node(&hub, he, session)
    };

    if server.is_err() {
        hub.announce_server_failure();
    }

    // Collect terminal frames. The leader decides the run's fate; the
    // other daemons finish at essentially the same moment, so a short
    // grace per slot suffices. A daemon that reported nothing is down with
    // the server's own error if it had one, else a timeout naming it.
    let grace = Duration::from_secs(5);
    let server_error = server.as_ref().err().cloned();
    let mut nodes = vec![server.map(|dead_slots| (Vec::new(), dead_slots))];
    for slot in 0..p {
        let waited = if slot == 0 { opts.result_timeout } else { grace };
        let silent =
            || server_error.clone().unwrap_or(Error::Timeout { peer: Some(1 + slot), waited });
        nodes.push(hub.wait_result(slot, waited).unwrap_or_else(|| Err(silent())));
    }

    hub.shutdown();
    let stats = hub.stats();
    vfps_obs::gauge_set("cluster.run.total_bytes", stats.logical_bytes() as f64);
    vfps_obs::gauge_set("cluster.run.total_messages", stats.logical_messages() as f64);
    let run = FaultedRun::from_nodes(nodes, stats.logical_bytes(), stats.logical_messages());
    Ok(ClusterKnnReport { run, stats })
}

/// Which transport carries a protocol run. The protocol bodies are
/// identical either way; only the [`Channel`](vfps_net::Channel)
/// implementation differs.
#[derive(Clone, Debug)]
pub enum Backend {
    /// Threads and `std::sync::mpsc` channels in-process, with optional
    /// deterministic fault injection.
    Sim {
        /// Fault plan for the run (empty = fault-free).
        faults: FaultPlan,
    },
    /// Real party daemons over TCP, one address per consortium slot.
    Tcp {
        /// Daemon addresses, in slot order.
        addrs: Vec<String>,
        /// Scheme recipe shipped to the daemons (must describe the same
        /// scheme as the coordinator's handle).
        scheme: SchemeSpec,
        /// Connection-supervision knobs.
        opts: HubOptions,
    },
}

/// Runs the fed-KNN protocol over the chosen backend.
///
/// For [`Backend::Sim`] the caller's `x`/`partition` feed every node; for
/// [`Backend::Tcp`] the daemons hold their own columns and `x`/`partition`
/// are ignored, which is the point: the coordinator never sees raw
/// features.
///
/// # Errors
/// Setup-level I/O errors from the TCP backend; the sim backend cannot
/// fail setup.
#[allow(clippy::too_many_arguments)]
pub fn run_knn_backend<H: AdditiveHe + 'static>(
    he: &Arc<H>,
    x: &Matrix,
    partition: &VerticalPartition,
    parties: &[usize],
    db_rows: &[usize],
    queries: &[usize],
    cfg: FedKnnConfig,
    shuffle_seed: u64,
    backend: &Backend,
) -> std::io::Result<(FaultedRun, Option<ClusterStats>)> {
    match backend {
        Backend::Sim { faults } => {
            let run = run_threaded_knn_faulted(
                he,
                x,
                partition,
                parties,
                db_rows,
                queries,
                cfg,
                shuffle_seed,
                faults,
            );
            Ok((run, None))
        }
        Backend::Tcp { addrs, scheme, opts } => {
            let session = KnnSession::new(parties, db_rows, queries, cfg, shuffle_seed);
            let report = run_cluster_knn(he, &session, shuffle_seed, *scheme, addrs, opts)?;
            Ok((report.run, Some(report.stats)))
        }
    }
}
