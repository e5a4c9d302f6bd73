//! The fixed worlds the workloads run over, and the in-process daemons
//! (party plane, selection servers, router) the harness spawns, stops and
//! joins — always through the crates' public entry points.

use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use vfps_cluster::{ping_party, run_cluster_knn, HubOptions, PartyConfig, SchemeSpec};
use vfps_data::{prepared_sized, Dataset, DatasetSpec, Split, VerticalPartition};
use vfps_he::scheme::PlainHe;
use vfps_router::{Router, RouterConfig};
use vfps_serve::{Client, DrainReport, ServeConfig, Server};
use vfps_vfl::fed_knn::{FedKnnConfig, KnnMode};
use vfps_vfl::KnnSession;

/// Dataset and partition seed of every world. The world is part of the
/// workload definition, not of the seeded input: regenerating it per
/// `--seed` moved Fagin's candidate count by ±10 % and the Base round by
/// ±15 % between seeds, which would drown any code change. `--seed`
/// drives query samples, request seeds and request order instead.
pub const DATA_SEED: u64 = 42;
/// Consortium size of every world.
pub const PARTIES: usize = 4;

/// One dataset world, built by the same recipe `vfps-serve`'s tenant
/// registry uses, so a harness-built world is the daemon's world.
pub struct World {
    pub ds: Dataset,
    pub split: Split,
    pub partition: VerticalPartition,
}

impl World {
    pub fn build(dataset: &str) -> World {
        let spec = DatasetSpec::by_name(dataset).expect("dataset is in the paper catalog");
        let (ds, split) = prepared_sized(&spec, spec.sim_instances, DATA_SEED);
        let partition = VerticalPartition::random(ds.n_features(), PARTIES, DATA_SEED);
        World { ds, split, partition }
    }
}

/// `benchmark/out`, inside the checkout: the only place the harness writes.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// A fresh, empty directory under `benchmark/out/tmp` that the harness
/// owns; removed by [`remove_scratch_root`] when the run ends.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = scratch_root().join(format!("{seq}-{tag}"));
    std::fs::create_dir_all(&dir).expect("create scratch dir inside the checkout");
    dir
}

fn scratch_root() -> PathBuf {
    out_dir().join("tmp").join(std::process::id().to_string())
}

pub fn remove_scratch_root() {
    let _ = std::fs::remove_dir_all(scratch_root());
}

pub fn hub_options() -> HubOptions {
    HubOptions {
        connect_timeout: Duration::from_secs(2),
        connect_budget: 20,
        connect_backoff: Duration::from_millis(25),
        io_timeout: Duration::from_secs(60),
        result_timeout: Duration::from_secs(60),
    }
}

/// Four long-lived party daemons on real loopback listeners, one thread
/// each, serving sessions until stopped.
pub struct PartyDaemons {
    pub addrs: Vec<String>,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<usize>>,
}

impl PartyDaemons {
    pub fn spawn(world: &World) -> PartyDaemons {
        let stop = Arc::new(AtomicBool::new(false));
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for party in 0..PARTIES {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind party daemon");
            addrs.push(listener.local_addr().expect("bound listener").to_string());
            let (x, partition, stop) =
                (world.ds.x.clone(), world.partition.clone(), Arc::clone(&stop));
            handles.push(std::thread::spawn(move || {
                // `serve_party` has no stop signal, so the accept loop is
                // re-entered one session at a time and leaves between
                // sessions once `stop` is set. The listener outlives the
                // calls: to a coordinator this is one long-lived daemon.
                let cfg = PartyConfig { max_sessions: Some(1), ..PartyConfig::new(party) };
                let mut sessions = 0;
                while !stop.load(Ordering::SeqCst) {
                    let report = vfps_cluster::serve_party(&listener, &x, &partition, &cfg)
                        .expect("party accept loop");
                    sessions += report.sessions;
                }
                sessions
            }));
        }
        PartyDaemons { addrs, stop, handles }
    }

    /// Stops and joins every daemon; returns the sessions each served
    /// (the closing session below included).
    pub fn stop(self, world: &World) -> Vec<usize> {
        // A daemon answers a ping only from inside `serve_party`, so once
        // every ping is answered no thread is between its `stop` check and
        // `accept`, and each will serve exactly one more session.
        for addr in &self.addrs {
            ping_party(addr, &hub_options()).expect("party daemon answers a ping");
        }
        self.stop.store(true, Ordering::SeqCst);
        // One plaintext single-query session wakes every blocked `accept`.
        let parties: Vec<usize> = (0..PARTIES).collect();
        let cfg = FedKnnConfig { k: 1, mode: KnnMode::Base, batch: 1, cost_scale: 1.0 };
        let db = &world.split.train[..2];
        let session = KnnSession::new(&parties, db, &db[..1], cfg, 0);
        let he = Arc::new(PlainHe::new(2));
        run_cluster_knn(&he, &session, 0, SchemeSpec::plain(2), &self.addrs, &hub_options())
            .expect("closing session reaches every daemon");
        self.handles.into_iter().map(|h| h.join().expect("party daemon thread")).collect()
    }
}

/// `vfps-serve` daemons, optionally behind a `vfps-router`.
pub struct Tier {
    /// Where clients connect: the router when there is one, else daemon 0.
    pub front: String,
    pub backends: Vec<String>,
    handles: Vec<JoinHandle<DrainReport>>,
}

impl Tier {
    /// `daemons` servers with the issue's fixed shape (2 workers, queue of
    /// 8, 4 resident tenants, spec-default instances), each with a private
    /// cache directory, fronted by a router when `routed`.
    pub fn spawn(daemons: usize, routed: bool, default_dataset: &str) -> Tier {
        let mut backends = Vec::new();
        let mut handles = Vec::new();
        for i in 0..daemons {
            let server = Server::bind(&ServeConfig {
                addr: "127.0.0.1:0".into(),
                dataset: default_dataset.into(),
                instances: 0,
                parties: PARTIES,
                data_seed: DATA_SEED,
                max_concurrent: 2,
                queue_capacity: 8,
                max_tenants: 4,
                default_deadline: Duration::from_secs(60),
                cache_dir: Some(scratch_dir(&format!("cache-b{i}"))),
                once: false,
                trace_out: None,
            })
            .expect("bind selection daemon");
            backends.push(server.local_addr().to_string());
            handles.push(std::thread::spawn(move || server.run().expect("daemon accept loop")));
        }
        let front = if routed {
            let router = Router::bind(&RouterConfig {
                backends: backends
                    .iter()
                    .enumerate()
                    .map(|(i, a)| (format!("b{i}"), a.clone()))
                    .collect(),
                ..RouterConfig::default()
            })
            .expect("bind router");
            let addr = router.local_addr().to_string();
            handles.push(std::thread::spawn(move || router.run().expect("router accept loop")));
            addr
        } else {
            backends[0].clone()
        };
        Tier { front, backends, handles }
    }

    pub fn client(addr: &str) -> Client {
        let client = Client::connect(addr).expect("connect to the tier");
        client.set_read_timeout(Some(Duration::from_secs(120))).expect("set read timeout");
        client
    }

    /// Graceful shutdown through the front door (a router relays it to
    /// every backend and sums the reports); joins every thread. Returns the
    /// drain report the client saw.
    pub fn shutdown(self) -> DrainReport {
        let report = Tier::client(&self.front).shutdown().expect("shutdown roundtrip");
        for h in self.handles {
            h.join().expect("tier thread");
        }
        report
    }
}
