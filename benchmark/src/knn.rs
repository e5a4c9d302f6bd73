//! The `knn_*` workloads: one coordinator running selection rounds with
//! real HE, through `vfps_cluster::run_knn_backend` (end to end) or the
//! hub's public steps (traced).

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use vfps_cluster::{run_knn_backend, Backend, ClusterStats, Hub, SchemeSpec};
use vfps_he::scheme::PaillierHe;
use vfps_net::cost::OpLedger;
use vfps_net::FaultPlan;
use vfps_vfl::fed_knn::{FedKnn, FedKnnConfig, KnnMode, QueryOutcome};
use vfps_vfl::{knn_server_node, FaultedRun, KnnSession};

use crate::stats::{host_slowdown, Rng, ROUND_PROBE};
use crate::trace::{span, Recorder};
use crate::world::{hub_options, PartyDaemons, World, PARTIES};

/// Queries per session round.
pub const Q: usize = 8;
const K: usize = 10;
const FAGIN_BATCH: usize = 100;
/// Toy key: absolute times are not paper-comparable (see README limits).
const KEY_BITS: usize = 256;
const HE_BATCH: usize = 64;
/// The key pair is part of the world, like the dataset: key seeds moved
/// the Base round by ±15 %.
const KEY_SEED: u64 = 7;

#[derive(Clone, Copy)]
pub struct KnnShape {
    pub mode: KnnMode,
    pub tcp: bool,
}

pub struct KnnSetup {
    pub world: World,
    pub he: Arc<PaillierHe>,
    daemons: Option<PartyDaemons>,
    /// Training rows in seeded order; round `r` queries the next `Q`.
    order: Vec<usize>,
    /// Pseudo-ID permutation seed of every session.
    pub shuffle_seed: u64,
    /// Sessions opened against the daemons, for the teardown balance.
    tcp_sessions: Cell<usize>,
}

pub fn parties() -> Vec<usize> {
    (0..PARTIES).collect()
}

pub fn config(mode: KnnMode) -> FedKnnConfig {
    FedKnnConfig { k: K, mode, batch: FAGIN_BATCH, cost_scale: 1.0 }
}

pub fn scheme() -> SchemeSpec {
    SchemeSpec::paillier(KEY_BITS, HE_BATCH, KEY_SEED)
}

pub fn keygen() -> PaillierHe {
    PaillierHe::generate(KEY_BITS, HE_BATCH, KEY_SEED).expect("valid Paillier parameters")
}

impl KnnSetup {
    /// Everything up to the first timed round: world, keys, daemons.
    pub fn new(tcp: bool, seed: u64) -> KnnSetup {
        let world = World::build("Bank");
        let he = Arc::new(keygen());
        let daemons = tcp.then(|| PartyDaemons::spawn(&world));
        let mut order = world.split.train.clone();
        Rng(seed).shuffle(&mut order);
        KnnSetup { world, he, daemons, order, shuffle_seed: seed, tcp_sessions: Cell::new(0) }
    }

    pub fn round_queries(&self, round: usize) -> Vec<usize> {
        (0..Q).map(|i| self.order[(round * Q + i) % self.order.len()]).collect()
    }

    pub fn session(&self, mode: KnnMode, queries: &[usize]) -> KnnSession {
        KnnSession::new(
            &parties(),
            &self.world.split.train,
            queries,
            config(mode),
            self.shuffle_seed,
        )
    }

    fn backend(&self, tcp: bool) -> Backend {
        if tcp {
            let daemons = self.tcp_daemons();
            Backend::Tcp { addrs: daemons.addrs.clone(), scheme: scheme(), opts: hub_options() }
        } else {
            Backend::Sim { faults: FaultPlan::default() }
        }
    }

    /// The daemons, with one more session billed to them.
    fn tcp_daemons(&self) -> &PartyDaemons {
        self.tcp_sessions.set(self.tcp_sessions.get() + 1);
        self.daemons.as_ref().expect("tcp rounds need the daemons spawned")
    }

    /// Stops and joins the daemons. Every daemon must have served exactly
    /// the sessions the harness opened plus the closing one.
    pub fn teardown(self, notes: &mut Vec<String>) {
        let Some(daemons) = self.daemons else { return };
        let served = daemons.stop(&self.world);
        let want = self.tcp_sessions.get() + 1;
        if served.iter().any(|&s| s != want) {
            notes.push(format!("daemons served {served:?} sessions, the hub opened {want}"));
        }
    }
}

/// One finished round as the caller saw it.
pub struct Round {
    pub queries: Vec<usize>,
    pub ms: f64,
    /// `Err` holds why the round is a failure (not `Complete`, setup error).
    pub result: Result<Done, String>,
}

pub struct Done {
    pub outcomes: Vec<QueryOutcome>,
    pub total_bytes: u64,
    pub total_messages: u64,
    pub stats: Option<ClusterStats>,
}

/// One round through the public backend-generic entry point; the timed
/// interval holds that call and nothing else.
pub fn round(setup: &KnnSetup, shape: KnnShape, queries: Vec<usize>) -> Round {
    let backend = setup.backend(shape.tcp);
    let (x, w) = (&setup.world.ds.x, &setup.world);
    let t = Instant::now();
    let out = run_knn_backend(
        &setup.he,
        x,
        &w.partition,
        &parties(),
        &w.split.train,
        &queries,
        config(shape.mode),
        setup.shuffle_seed,
        &backend,
    );
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let result = match out {
        Ok((FaultedRun::Complete(run), stats)) => Ok(Done {
            outcomes: run.outcomes,
            total_bytes: run.total_bytes,
            total_messages: run.total_messages,
            stats,
        }),
        Ok((other, _)) => Err(format!("round did not complete: {other:?}")),
        Err(e) => Err(format!("backend setup failed: {e}")),
    };
    Round { queries, ms, result }
}

/// A TCP round taken apart at the hub's public steps — the same calls, in
/// the same order, as `run_cluster_knn` — so each gets its own span.
pub fn round_stepwise(
    setup: &KnnSetup,
    mode: KnnMode,
    queries: Vec<usize>,
    rec: Option<&Recorder>,
    op: u64,
) -> Round {
    let daemons = setup.tcp_daemons();
    let session = setup.session(mode, &queries);
    let opts = hub_options();
    let t = Instant::now();
    let result = span(rec, "knn.round", None, op, |root| {
        let mut hub = span(rec, "cluster.hub_connect", root, op, |_| {
            Hub::connect(&daemons.addrs, &session, setup.shuffle_seed, scheme(), &opts)
        })
        .map_err(|e| format!("hub connect failed: {e}"))?;
        let server = span(rec, "vfl.knn_server_node", root, op, |_| {
            knn_server_node(&hub, &setup.he, &session)
        });
        let results: Vec<_> = span(rec, "cluster.wait_result", root, op, |_| {
            (0..PARTIES).map(|slot| hub.wait_result(slot, opts.result_timeout)).collect()
        });
        span(rec, "cluster.hub_shutdown", root, op, |_| hub.shutdown());
        let stats = hub.stats();
        match server {
            Ok(dead) if dead.is_empty() => {}
            other => return Err(format!("server node: {other:?}")),
        }
        let mut leader = None;
        for (slot, r) in results.into_iter().enumerate() {
            match r {
                Some(Ok((outcomes, dead))) if dead.is_empty() => {
                    if slot == 0 {
                        leader = Some(outcomes);
                    }
                }
                other => return Err(format!("slot {slot} terminal result: {other:?}")),
            }
        }
        Ok(Done {
            outcomes: leader.expect("slot 0 reported"),
            total_bytes: stats.logical_bytes(),
            total_messages: stats.logical_messages(),
            stats: Some(stats),
        })
    });
    Round { queries, ms: t.elapsed().as_secs_f64() * 1e3, result }
}

/// Runs rounds until `budget` has elapsed and at least `min_rounds` ran,
/// with a host-speed probe reading before the first round and after each.
/// Returns the rounds and, per round, the mean of the two readings around it.
pub fn measure(
    setup: &KnnSetup,
    shape: KnnShape,
    budget: Duration,
    min_rounds: usize,
) -> (Vec<Round>, Vec<f64>) {
    let started = Instant::now();
    let (mut rounds, mut probes) = (Vec::new(), Vec::new());
    let mut before = host_slowdown(ROUND_PROBE);
    while rounds.len() < min_rounds || started.elapsed() < budget {
        rounds.push(round(setup, shape, setup.round_queries(rounds.len())));
        let after = host_slowdown(ROUND_PROBE);
        probes.push((before + after) / 2.0);
        before = after;
    }
    (rounds, probes)
}

fn sorted(mut v: Vec<usize>) -> Vec<usize> {
    v.sort_unstable();
    v
}

/// Per-round oracle: every round is `Complete` with no kill or reconnect,
/// answers all its queries, and its top-k sets and per-party sums match
/// the logical engine `FedKnn::query`. Returns how many rounds failed and
/// appends a line per failure to `notes`.
pub fn check_rounds(
    setup: &KnnSetup,
    mode: KnnMode,
    rounds: &[Round],
    notes: &mut Vec<String>,
) -> u64 {
    let w = &setup.world;
    let engine = FedKnn::new(&w.ds.x, &w.partition, &parties(), &w.split.train, config(mode));
    let mut failed = 0;
    for (r, round) in rounds.iter().enumerate() {
        let problem = match &round.result {
            Err(e) => Some(e.clone()),
            Ok(done) => check_round(&engine, round, done),
        };
        if let Some(p) = problem {
            failed += 1;
            notes.push(format!("round {r}: {p}"));
        }
    }
    failed
}

/// The correctness oracles, run after the timed rounds: [`check_rounds`],
/// then round 0 must be bit-identical (outcomes, message count) both to a
/// repeat of its session and to a `Backend::Sim` run of it.
pub fn verify(setup: &KnnSetup, shape: KnnShape, rounds: &[Round], notes: &mut Vec<String>) -> u64 {
    let mut failed = check_rounds(setup, shape.mode, rounds, notes);
    let Some(Ok(first)) = rounds.first().map(|r| r.result.as_ref()) else {
        return failed;
    };
    let queries = rounds[0].queries.clone();
    let again = round(setup, shape, queries.clone());
    let sim = round(setup, KnnShape { tcp: false, ..shape }, queries);
    for (what, other) in [("a repeat of its session", again), ("the sim backend", sim)] {
        match other.result {
            Ok(o) if o.outcomes == first.outcomes && o.total_messages == first.total_messages => {}
            Ok(_) => {
                failed += 1;
                notes.push(format!("round 0 is not bit-identical to {what}"));
            }
            Err(e) => {
                failed += 1;
                notes.push(format!("{what} failed: {e}"));
            }
        }
    }
    failed
}

fn check_round(engine: &FedKnn<'_>, round: &Round, done: &Done) -> Option<String> {
    if done.outcomes.len() != round.queries.len() {
        return Some(format!(
            "{} outcomes for {} queries",
            done.outcomes.len(),
            round.queries.len()
        ));
    }
    if let Some(stats) = &done.stats {
        if stats.kills_observed != 0 || stats.reconnects != 0 {
            return Some(format!(
                "fault-free round saw {} kills, {} reconnects",
                stats.kills_observed, stats.reconnects
            ));
        }
    }
    let mut ledger = OpLedger::default();
    for (&q, got) in round.queries.iter().zip(&done.outcomes) {
        let want = engine.query(q, &mut ledger);
        if sorted(want.topk_rows.clone()) != sorted(got.topk_rows.clone()) {
            return Some(format!("query {q}: top-k set differs from FedKnn::query"));
        }
        if want.d_t.iter().zip(&got.d_t).any(|(a, b)| (a - b).abs() > 1e-6) {
            return Some(format!("query {q}: per-party sums differ from FedKnn::query"));
        }
    }
    None
}
