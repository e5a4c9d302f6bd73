//! `experiments bench-cluster` — the real-socket cluster benchmark.
//!
//! Runs the same fed-KNN session over both protocol backends — the
//! simulated (thread + in-process channel) cluster and real TCP party
//! daemons — and measures what the wire costs: wall-clock per backend,
//! per-party frame/byte volume, and the reconnect/kill counters from the
//! hub's connection supervision. A third, deliberately-killed run times
//! the PR-2 degradation path (a participant dying mid-batch) end to end
//! over sockets.
//!
//! Invariants checked while measuring (a panic fails the CI job):
//!
//! * the TCP run is **bit-identical** to the simulated run — same
//!   per-query outcomes, same logical message count (Paillier
//!   aggregation is arrival-order-exact, so this is a hard equality);
//! * fault-free runs observe **zero** kills and consume **zero**
//!   reconnect budget;
//! * the kill run ends [`FaultedRun::Degraded`] with exactly one
//!   observed kill, and still yields a full outcome batch.
//!
//! Results merge into `BENCH_selection.json` as a `cluster_breakdown`
//! section, preserving every other key.

use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vfps_cluster::{
    run_cluster_knn, ClusterKnnReport, HubOptions, PartyConfig, PartyReport, SchemeSpec,
};
use vfps_data::{prepared_sized, DatasetSpec, VerticalPartition};
use vfps_he::scheme::PaillierHe;
use vfps_ml::linalg::Matrix;
use vfps_net::FaultPlan;
use vfps_vfl::fed_knn::{FedKnnConfig, KnnMode};
use vfps_vfl::{run_threaded_knn_faulted, FaultedRun, KnnSession, ThreadedKnnRun};

use crate::json::{parse, Value};
use crate::markdown_table;

/// The consortium world both backends derive: matches `vfps party
/// --synthetic Rice --instances 96 --parties 3 --seed 7`, so external
/// daemons started with those flags are drop-in via `--addr`.
pub const CLUSTER_DATASET: &str = "Rice";
/// Dataset rows.
pub const CLUSTER_INSTANCES: usize = 96;
/// Consortium size (one daemon per party).
pub const CLUSTER_PARTIES: usize = 3;
/// Dataset + partition seed.
pub const CLUSTER_SEED: u64 = 7;

/// Benchmark configuration.
#[derive(Default)]
pub struct ClusterBenchConfig {
    /// Fewer queries per run.
    pub quick: bool,
    /// Drive already-running external daemons (comma-separated
    /// `host:port` list, one per party slot, started with the
    /// [`CLUSTER_DATASET`] world flags) instead of in-process ones. The
    /// kill run is skipped — the bench will not SIGKILL processes it
    /// does not own.
    pub addrs: Option<Vec<String>>,
}

fn opts() -> HubOptions {
    HubOptions {
        connect_timeout: Duration::from_secs(2),
        connect_budget: 20,
        connect_backoff: Duration::from_millis(25),
        io_timeout: Duration::from_secs(60),
        result_timeout: Duration::from_secs(60),
    }
}

/// Spawns one in-process party daemon on an ephemeral port — real
/// listener, real sockets, same accept loop as `vfps party`.
fn spawn_party(
    x: &Matrix,
    partition: &VerticalPartition,
    cfg: PartyConfig,
    sessions: usize,
) -> (String, JoinHandle<PartyReport>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind daemon");
    let addr = listener.local_addr().unwrap().to_string();
    let x = x.clone();
    let partition = partition.clone();
    let handle = std::thread::spawn(move || {
        let cfg = PartyConfig { max_sessions: Some(sessions), ..cfg };
        vfps_cluster::serve_party(&listener, &x, &partition, &cfg).expect("daemon accept loop")
    });
    (addr, handle)
}

fn complete(run: FaultedRun, what: &str) -> ThreadedKnnRun {
    match run {
        FaultedRun::Complete(r) => r,
        other => panic!("{what} must complete fault-free, got {other:?}"),
    }
}

/// Runs the benchmark and returns the human-readable report.
#[must_use]
pub fn bench_cluster(cfg: &ClusterBenchConfig) -> String {
    let spec = DatasetSpec::by_name(CLUSTER_DATASET).expect("dataset");
    let (ds, split) = prepared_sized(&spec, CLUSTER_INSTANCES, CLUSTER_SEED);
    let partition = VerticalPartition::random(ds.n_features(), CLUSTER_PARTIES, CLUSTER_SEED);
    let parties: Vec<usize> = (0..CLUSTER_PARTIES).collect();
    let query_count = if cfg.quick { 6 } else { 12 };
    let queries: Vec<usize> = split.train.iter().copied().take(query_count).collect();
    let knn = FedKnnConfig { k: 4, mode: KnnMode::Fagin, batch: 8, cost_scale: 1.0 };
    let he = Arc::new(PaillierHe::generate(128, knn.batch, 5).unwrap());
    let scheme = SchemeSpec::paillier(128, knn.batch, 5);
    let session = KnnSession::new(&parties, &split.train, &queries, knn, 42);

    // Backend 1: the simulated cluster (threads + in-process channels).
    let t0 = Instant::now();
    let sim = run_threaded_knn_faulted(
        &he,
        &ds.x,
        &partition,
        &parties,
        &split.train,
        &queries,
        knn,
        42,
        &FaultPlan::default(),
    );
    let sim_us = t0.elapsed().as_micros() as u64;
    let sim = complete(sim, "the simulated run");

    // Backend 2: real sockets — external daemons if given, else
    // in-process daemons with real listeners.
    let mut handles = Vec::new();
    let addrs: Vec<String> = match &cfg.addrs {
        Some(addrs) => {
            assert_eq!(addrs.len(), CLUSTER_PARTIES, "need one address per party slot");
            addrs.clone()
        }
        None => parties
            .iter()
            .map(|&p| {
                let (addr, h) = spawn_party(&ds.x, &partition, PartyConfig::new(p), 1);
                handles.push(h);
                addr
            })
            .collect(),
    };
    let t0 = Instant::now();
    let report: ClusterKnnReport =
        run_cluster_knn(&he, &session, 42, scheme, &addrs, &opts()).expect("tcp setup");
    let tcp_us = t0.elapsed().as_micros() as u64;
    for h in handles.drain(..) {
        h.join().expect("daemon thread");
    }
    let tcp = complete(report.run, "the tcp run");
    let stats = report.stats;

    let bit_identical = tcp.outcomes == sim.outcomes && tcp.total_messages == sim.total_messages;
    assert!(bit_identical, "tcp backend diverged from the sim with the same seeds");
    assert_eq!(stats.kills_observed, 0, "fault-free run observed a kill");
    assert_eq!(stats.reconnects, 0, "fault-free localhost run consumed reconnect budget");

    // Backend 2 under fire: slot 2's daemon dies mid-wave (abrupt socket
    // death — the SIGKILL signature) and the leader degrades over the
    // survivors. Skipped for external daemons we do not own.
    let kill = if cfg.addrs.is_none() {
        // Every frame the victim sends answers, or is answered by, one it
        // receives: its frame count is half its channel ops, the middle
        // of the wave.
        let mid_wave_ops = stats.per_party[2].frames_in;
        let mut handles = Vec::new();
        let addrs: Vec<String> = parties
            .iter()
            .map(|&p| {
                let mut pc = PartyConfig::new(p);
                if p == 2 {
                    pc.kill_after_ops = Some(mid_wave_ops);
                }
                let (addr, h) = spawn_party(&ds.x, &partition, pc, 1);
                handles.push(h);
                addr
            })
            .collect();
        let t0 = Instant::now();
        let report =
            run_cluster_knn(&he, &session, 42, scheme, &addrs, &opts()).expect("tcp setup");
        let degraded_us = t0.elapsed().as_micros() as u64;
        for h in handles {
            h.join().expect("daemon thread");
        }
        let FaultedRun::Degraded(run) = report.run else {
            panic!("the kill run must degrade, got {:?}", report.run)
        };
        assert_eq!(run.dropouts, vec![3], "only the killed daemon drops");
        assert_eq!(run.outcomes.len(), queries.len(), "degraded run still answers every query");
        assert_eq!(report.stats.kills_observed, 1, "exactly one abrupt death");
        Some((degraded_us, report.stats.kills_observed))
    } else {
        None
    };
    let (degraded_us, kills_observed) = kill.unwrap_or((0, 0));

    let per_party: Vec<Value> = stats
        .per_party
        .iter()
        .map(|l| {
            Value::Obj(vec![
                ("frames_in".to_owned(), Value::Num(l.frames_in as f64)),
                ("frames_out".to_owned(), Value::Num(l.frames_out as f64)),
                ("bytes_in".to_owned(), Value::Num(l.bytes_in as f64)),
                ("bytes_out".to_owned(), Value::Num(l.bytes_out as f64)),
            ])
        })
        .collect();
    let breakdown = Value::Obj(vec![
        ("parties".to_owned(), Value::Num(CLUSTER_PARTIES as f64)),
        ("queries".to_owned(), Value::Num(queries.len() as f64)),
        ("sim_us".to_owned(), Value::Num(sim_us as f64)),
        ("tcp_us".to_owned(), Value::Num(tcp_us as f64)),
        ("degraded_us".to_owned(), Value::Num(degraded_us as f64)),
        ("total_bytes".to_owned(), Value::Num(stats.logical_bytes() as f64)),
        ("total_messages".to_owned(), Value::Num(stats.logical_messages() as f64)),
        ("connects".to_owned(), Value::Num(stats.connects as f64)),
        ("reconnects".to_owned(), Value::Num(stats.reconnects as f64)),
        ("kills_observed".to_owned(), Value::Num(kills_observed as f64)),
        ("bit_identical_to_sim".to_owned(), Value::Bool(bit_identical)),
        ("per_party".to_owned(), Value::Arr(per_party)),
    ]);
    merge_cluster_breakdown("BENCH_selection.json", breakdown);

    let rows: Vec<Vec<String>> = stats
        .per_party
        .iter()
        .enumerate()
        .map(|(slot, l)| {
            vec![
                format!("party {slot} (node {})", slot + 1),
                l.frames_in.to_string(),
                l.frames_out.to_string(),
                l.bytes_in.to_string(),
                l.bytes_out.to_string(),
            ]
        })
        .collect();
    let table =
        markdown_table(&["link", "frames in", "frames out", "bytes in", "bytes out"], &rows);
    format!(
        "## bench-cluster ({} parties × {} queries, {CLUSTER_DATASET} {CLUSTER_INSTANCES} rows, \
         Paillier-128)\n\n\
         backends: sim {:.1} ms | tcp {:.1} ms ({:.2}x) | tcp degraded (1 SIGKILL) {:.1} ms\n\
         bit-identical to sim: {bit_identical} ({} outcomes, {} logical messages, {} logical \
         bytes)\n\
         supervision: {} connects, {} reconnects, {} kills observed\n\n{table}",
        CLUSTER_PARTIES,
        queries.len(),
        sim_us as f64 / 1e3,
        tcp_us as f64 / 1e3,
        tcp_us as f64 / sim_us.max(1) as f64,
        degraded_us as f64 / 1e3,
        tcp.outcomes.len(),
        stats.logical_messages(),
        stats.logical_bytes(),
        stats.connects,
        stats.reconnects,
        kills_observed,
    )
}

/// Merges `cluster_breakdown` into an existing `BENCH_selection.json`,
/// preserving every other key, or writes a minimal document if the file
/// is absent or unparseable.
fn merge_cluster_breakdown(path: &str, breakdown: Value) {
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| parse(&text).ok())
        .unwrap_or_else(|| {
            Value::Obj(vec![(
                "benchmark".to_owned(),
                Value::Str("selection thread scaling".to_owned()),
            )])
        });
    doc.set("cluster_breakdown", breakdown);
    if let Err(e) = std::fs::write(path, doc.to_json()) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        eprintln!("[saved {path} (cluster_breakdown)]");
    }
}
