//! Process-level cluster tests: real `vfps party` daemons — separate OS
//! processes spawned from the built binary — driven by the in-process
//! coordinator transport.
//!
//! Two properties are pinned here that the in-process cluster suite
//! cannot reach:
//!
//! 1. **Bit-identity across real process boundaries.** Three daemon
//!    processes each derive their own dataset world from CLI flags alone
//!    (no shared memory with the coordinator), and the selection computed
//!    over their wire outcomes is bit-identical to the simulated
//!    (thread-backed) run with the same seeds.
//! 2. **The kill matrix with real `SIGKILL`s.** `Child::kill` delivers
//!    SIGKILL on Unix. Kills are *progress-gated*: a watcher thread polls
//!    a [`StatsProbe`] and fires once the victim's observed frame count
//!    crosses a phase threshold, so each cell deterministically lands in
//!    its phase (setup / Fagin stream / late batch) without wall-clock
//!    guessing. The cells run a three-wave session: a wave is one exchange,
//!    so a signal gated on the first wave's frames has two whole waves to
//!    land in. Each cell must produce the same typed outcome the
//!    in-process fault suite pins.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vfps_cluster::{
    outcome_memo, run_cluster_knn, run_cluster_knn_supervised, ClusterKnnReport, HubOptions,
    SchemeSpec, StatsProbe,
};
use vfps_core::selectors::{SelectionContext, VfpsSmSelector};
use vfps_data::{prepared_sized, Dataset, DatasetSpec, Split, VerticalPartition};
use vfps_he::scheme::{AdditiveHe, PaillierHe, PlainHe};
use vfps_net::FaultPlan;
use vfps_vfl::fed_knn::{FedKnnConfig, KnnMode};
use vfps_vfl::{run_threaded_knn_faulted, FaultedRun, KnnSession};

/// The consortium world every daemon process rebuilds from flags alone.
/// Must match [`world`] below — that shared derivation, not any shared
/// state, is what makes the cluster bit-identical to the sim.
const DATASET: &str = "Rice";
const INSTANCES: usize = 96;
const PARTIES: usize = 3;
const DATA_SEED: u64 = 7;

/// Instances of the kill matrix's world: its training rows times a dozen
/// queries are three waves.
const KILL_INSTANCES: usize = 2400;

fn world(instances: usize) -> (Dataset, Split, VerticalPartition) {
    let spec = DatasetSpec::by_name(DATASET).expect("dataset");
    let (ds, split) = prepared_sized(&spec, instances, DATA_SEED);
    let partition = VerticalPartition::random(ds.n_features(), PARTIES, DATA_SEED);
    (ds, split, partition)
}

fn fast_opts() -> HubOptions {
    HubOptions {
        connect_timeout: Duration::from_millis(500),
        connect_budget: 10,
        connect_backoff: Duration::from_millis(20),
        io_timeout: Duration::from_secs(30),
        result_timeout: Duration::from_secs(30),
    }
}

/// A spawned daemon process. The `Child` sits behind a mutex so a
/// progress-gated killer thread and the fleet's drop guard can race for
/// it safely; whoever takes it reaps it.
type Proc = Arc<Mutex<Option<Child>>>;

fn kill_proc(p: &Proc) {
    if let Some(mut child) = p.lock().unwrap().take() {
        let _ = child.kill(); // SIGKILL on Unix — no chance to flush or say goodbye
        let _ = child.wait();
    }
}

/// Three real daemon processes, one per consortium slot, with a drop
/// guard so no test leaves orphans behind even on panic.
struct Fleet {
    procs: Vec<Proc>,
    addrs: Vec<String>,
}

impl Fleet {
    /// A fleet whose daemons rebuild the `instances`-sized world.
    fn spawn(instances: usize, max_sessions: usize) -> Fleet {
        let mut procs = Vec::new();
        let mut addrs = Vec::new();
        for party_id in 0..PARTIES {
            let (child, addr) = spawn_party_proc(party_id, instances, max_sessions);
            procs.push(Arc::new(Mutex::new(Some(child))));
            addrs.push(addr);
        }
        Fleet { procs, addrs }
    }

    fn victim(&self, slot: usize) -> Proc {
        Arc::clone(&self.procs[slot])
    }

    /// Waits, up to `within`, for every daemon to exit on its own, and
    /// asserts each one exited with status 0. A reaped child is taken out
    /// of its slot, so the drop guard has nothing left to kill. Nothing
    /// asserts while a slot is locked: a poisoned slot would make the drop
    /// guard panic during the unwind.
    fn expect_clean_exits(&self, within: Duration) {
        let deadline = Instant::now() + within;
        for (slot, p) in self.procs.iter().enumerate() {
            let status = loop {
                let reaped = {
                    let mut guard = p.lock().unwrap();
                    let exited = guard.as_mut().map(|c| c.try_wait().expect("poll daemon"));
                    if matches!(exited, Some(Some(_))) {
                        guard.take();
                    }
                    exited
                };
                match reaped {
                    Some(Some(status)) => break status,
                    Some(None) => {}
                    None => panic!("daemon {slot} was already reaped"),
                }
                assert!(Instant::now() < deadline, "daemon {slot} did not exit within {within:?}");
                std::thread::sleep(Duration::from_millis(10));
            };
            assert!(status.success(), "daemon {slot} exited with {status}");
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for p in &self.procs {
            kill_proc(p);
        }
    }
}

/// Spawns `vfps party` as a real OS process and parses its readiness
/// banner for the bound address. Stdout stays drained by a detached
/// thread so the daemon can never block on a full pipe.
fn spawn_party_proc(party_id: usize, instances: usize, max_sessions: usize) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_vfps"))
        .args([
            "party",
            "--party-id",
            &party_id.to_string(),
            "--parties",
            &PARTIES.to_string(),
            "--synthetic",
            DATASET,
            "--instances",
            &instances.to_string(),
            "--seed",
            &DATA_SEED.to_string(),
            "--addr",
            "127.0.0.1:0",
            "--max-sessions",
            &max_sessions.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn vfps party");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = loop {
        let line = lines
            .next()
            .expect("daemon exited before announcing its address")
            .expect("read daemon banner");
        if line.contains("listening on ") {
            break line;
        }
    };
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unparseable banner {banner:?}"))
        .to_string();
    std::thread::spawn(move || for _line in lines {});
    (child, addr)
}

/// Spawns a watcher that SIGKILLs `victim` once the hub has seen at least
/// `frames_at_least` protocol frames from consortium slot `slot` — the
/// progress gate that pins which protocol phase the death lands in.
fn kill_at_progress(probe: StatsProbe, slot: usize, frames_at_least: u64, victim: Proc) {
    std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            let frames = probe.stats().per_party.get(slot).map_or(0, |l| l.frames_in);
            if frames >= frames_at_least {
                kill_proc(&victim);
                return;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    });
}

/// Drives one cluster session over the fleet, with an optional
/// progress-gated kill installed before the first protocol frame.
fn run_session<H: AdditiveHe>(
    he: &Arc<H>,
    session: &KnnSession,
    shuffle_seed: u64,
    scheme: SchemeSpec,
    fleet: &Fleet,
    kill: Option<(usize, u64)>,
) -> ClusterKnnReport {
    run_cluster_knn_supervised(
        he,
        session,
        shuffle_seed,
        scheme,
        &fleet.addrs,
        &fast_opts(),
        |probe| {
            if let Some((slot, frames)) = kill {
                kill_at_progress(probe, slot, frames, fleet.victim(slot));
            }
        },
    )
    .expect("cluster setup")
}

/// **The acceptance pin.** Selection inputs computed over three real
/// daemon *processes* — each rebuilding its world from CLI flags, no
/// shared memory — are bit-identical to the simulated thread-backed run,
/// and so is the selection served from either run's memo. Paillier's
/// modular aggregation is arrival-order-exact, which is what makes the
/// pin safe at three parties (f64 addition would not be). Each daemon,
/// started with `--max-sessions 1`, then exits with status 0 on its own.
#[test]
fn selection_over_three_real_daemons_is_bit_identical_to_the_sim() {
    let (ds, split, partition) = world(INSTANCES);
    let ctx = SelectionContext {
        ds: &ds,
        split: &split,
        partition: &partition,
        cost_scale: 1.0,
        seed: 21,
    };
    let sel = VfpsSmSelector {
        k: 4,
        query_count: 6,
        mode: KnnMode::Fagin,
        batch: 8,
        ..VfpsSmSelector::default()
    };
    let queries = sel.query_rows(&ctx);
    let parties: Vec<usize> = (0..PARTIES).collect();
    let cfg = FedKnnConfig { k: sel.k, mode: sel.mode, batch: sel.batch, cost_scale: 1.0 };
    let he = Arc::new(PaillierHe::generate(128, sel.batch, 5).unwrap());

    // The simulated backend: threads + in-process channels.
    let sim = run_threaded_knn_faulted(
        &he,
        &ds.x,
        &partition,
        &parties,
        &split.train,
        &queries,
        cfg,
        42,
        &FaultPlan::default(),
    );
    let FaultedRun::Complete(sim) = sim else { panic!("sim run must complete, got {sim:?}") };

    // The real backend: three OS processes, one TCP socket each.
    let fleet = Fleet::spawn(INSTANCES, 1);
    let session = KnnSession::new(&parties, &split.train, &queries, cfg, 42);
    let report =
        run_session(&he, &session, 42, SchemeSpec::paillier(128, sel.batch, 5), &fleet, None);
    let FaultedRun::Complete(tcp) = report.run else {
        panic!("tcp run must complete, got {:?}", report.run)
    };

    assert_eq!(tcp.outcomes, sim.outcomes, "per-query outcomes must be bit-identical");
    assert_eq!(
        tcp.total_messages, sim.total_messages,
        "logical message totals must match the sim ledger"
    );
    assert_eq!(report.stats.kills_observed, 0);
    assert_eq!(report.stats.reconnects, 0, "a fault-free session spends no reconnect budget");
    assert_eq!(report.stats.connects, PARTIES as u64);

    // And the selection layer sees no difference: a selection served from
    // either run's memo picks the same parties with the same scores.
    let from_sim = sel.run_over(&ctx, &parties, 2, Some(&outcome_memo(&queries, &sim.outcomes)));
    let from_tcp = sel.run_over(&ctx, &parties, 2, Some(&outcome_memo(&queries, &tcp.outcomes)));
    assert_eq!(from_tcp.selection.chosen, from_sim.selection.chosen);
    assert_eq!(from_tcp.selection.scores, from_sim.selection.scores);

    // `--max-sessions 1`: each daemon leaves by itself after its session.
    fleet.expect_clean_exits(Duration::from_secs(10));
}

/// Shared shape for the kill-matrix cells: a three-wave Fagin session
/// over the plaintext scheme (the matrix pins fault semantics, not
/// ciphertext bits).
struct KillShape {
    /// The world's training rows — the session's database.
    train: Vec<usize>,
    parties: Vec<usize>,
    /// Two full waves of queries and four more.
    queries: Vec<usize>,
    cfg: FedKnnConfig,
    he: Arc<PlainHe>,
    scheme: SchemeSpec,
    /// Queries per wave.
    wave: usize,
}

impl KillShape {
    fn new() -> KillShape {
        let (_ds, split, _partition) = world(KILL_INSTANCES);
        let parties: Vec<usize> = (0..PARTIES).collect();
        let cfg = FedKnnConfig { k: 4, mode: KnnMode::Fagin, batch: 8, cost_scale: 1.0 };
        let wave = KnnSession::new(&parties, &split.train, &[], cfg, 0).wave_len();
        let queries: Vec<usize> = split.train.iter().copied().take(2 * wave + 4).collect();
        assert!(queries.len() > 2 * wave, "the world must hold three waves of queries");
        KillShape {
            train: split.train,
            parties,
            queries,
            cfg,
            he: Arc::new(PlainHe::new(8)),
            scheme: SchemeSpec::plain(8),
            wave,
        }
    }

    /// The session over `queries` under `shuffle_seed`.
    fn session(&self, queries: &[usize], shuffle_seed: u64) -> KnnSession {
        KnnSession::new(&self.parties, &self.train, queries, self.cfg, shuffle_seed)
    }
}

/// Kill matrix, setup phase: a daemon SIGKILLed before the coordinator
/// dials is a typed *setup* failure (`Err`), never a protocol outcome —
/// the same admission/protocol split the in-process suite pins.
#[test]
fn kill_matrix_setup_phase_daemon_death_is_a_typed_connect_error() {
    let shape = KillShape::new();

    let fleet = Fleet::spawn(KILL_INSTANCES, 1);
    kill_proc(&fleet.victim(2)); // dead before the first dial
    let session = shape.session(&shape.queries, 11);
    let tight = HubOptions {
        connect_budget: 3,
        connect_backoff: Duration::from_millis(10),
        connect_timeout: Duration::from_millis(300),
        ..fast_opts()
    };
    let err = run_cluster_knn(&shape.he, &session, 11, shape.scheme, &fleet.addrs, &tight);
    assert!(err.is_err(), "a dead daemon at setup must be an Err, got {err:?}");
}

/// Kill matrix, Fagin stream × leader: SIGKILL on the leader process
/// early in the stream aborts the run with a hangup of node 1 — nothing
/// can be decrypted without the leader, exactly as in-process.
#[test]
fn kill_matrix_stream_phase_leader_sigkill_aborts_with_typed_hangup() {
    let shape = KillShape::new();

    let fleet = Fleet::spawn(KILL_INSTANCES, 1);
    let session = shape.session(&shape.queries, 17);
    let started = Instant::now();
    let report = run_session(&shape.he, &session, 17, shape.scheme, &fleet, Some((0, 4)));
    // The surviving daemons sit in the stream awaiting node 0; they are
    // told it failed rather than left to their ten-second deadlines.
    assert!(started.elapsed() < Duration::from_secs(4), "took {:?}", started.elapsed());

    let FaultedRun::Aborted { error, dropouts } = report.run else {
        panic!("expected aborted run, got {:?}", report.run)
    };
    assert!(error.is_hangup_of(1), "leader SIGKILL is a hangup of node 1, got {error}");
    assert!(dropouts.contains(&1), "dropouts {dropouts:?} name the leader");
    assert!(report.stats.kills_observed >= 1, "the abrupt death must be counted as a kill");
}

/// Kill matrix, Fagin stream × participant: SIGKILL on a non-leader
/// process early in the first wave's stream degrades the run over the
/// survivors, with the dead slot's `d_t` zero-filled from the wave of the
/// death onward.
#[test]
fn kill_matrix_stream_phase_participant_sigkill_degrades_over_survivors() {
    let shape = KillShape::new();

    let fleet = Fleet::spawn(KILL_INSTANCES, 1);
    let session = shape.session(&shape.queries, 23);
    let report = run_session(&shape.he, &session, 23, shape.scheme, &fleet, Some((2, 4)));

    let FaultedRun::Degraded(run) = report.run else {
        panic!("expected degraded run, got {:?}", report.run)
    };
    assert_eq!(run.dropouts, vec![3], "only node 3 (slot 2) died");
    assert_eq!(run.outcomes.len(), shape.queries.len(), "leader finished the whole batch");
    let last = run.outcomes.last().unwrap();
    assert_eq!(last.d_t[2], 0.0, "dead slot's d_t is zero-filled after the death");
    assert!(last.d_t[0] > 0.0 || last.d_t[1] > 0.0, "survivors keep contributing");
    assert!(report.stats.kills_observed >= 1);
}

/// Kill matrix, aggregation phase: the same participant SIGKILL landing
/// *late* in the batch — past the first of three waves, measured by a
/// calibration run of that wave alone — leaves the first wave's aggregates
/// intact and zero-fills the victim's share from the wave of the death on.
#[test]
fn kill_matrix_aggregation_phase_participant_sigkill_keeps_early_aggregates() {
    let shape = KillShape::new();
    let (queries, wave) = (&shape.queries, shape.wave);

    // Two sessions per daemon: one fault-free calibration run measuring
    // the victim's frame volume over the first wave, then the kill run
    // gated on it.
    let fleet = Fleet::spawn(KILL_INSTANCES, 2);
    let first_wave = shape.session(&queries[..wave], 29);
    let calibration = run_session(&shape.he, &first_wave, 29, shape.scheme, &fleet, None);
    assert!(
        matches!(calibration.run, FaultedRun::Complete(_)),
        "calibration run must complete, got {:?}",
        calibration.run
    );
    let first_wave_frames = calibration.stats.per_party[2].frames_in;
    assert!(first_wave_frames >= 3, "a Fagin wave is a stream plus two frames");

    // The victim's first frame of the second wave opens the gate; the
    // SIGKILL lands somewhere in the two waves that remain.
    let session = shape.session(queries, 29);
    let report = run_session(
        &shape.he,
        &session,
        29,
        shape.scheme,
        &fleet,
        Some((2, first_wave_frames + 1)),
    );
    let FaultedRun::Degraded(run) = report.run else {
        panic!("expected degraded run, got {:?}", report.run)
    };
    assert_eq!(run.dropouts, vec![3]);
    assert_eq!(run.outcomes.len(), queries.len());
    for (q, o) in run.outcomes[..wave].iter().enumerate() {
        assert!(
            o.d_t[2] > 0.0,
            "query {q}: the wave aggregated before the death keeps the victim's contribution"
        );
    }
    // Whole waves go dark, never part of one.
    let dark: Vec<bool> = run.outcomes.iter().map(|o| o.d_t[2] == 0.0).collect();
    let second = &dark[wave..2 * wave];
    assert!(second.iter().all(|&d| d == second[0]), "the second wave is split: {second:?}");
    assert!(dark[2 * wave..].iter().all(|&d| d), "the last wave runs without the victim");
    assert!(report.stats.kills_observed >= 1);
}
