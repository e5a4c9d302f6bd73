//! Seeded fault matrix over the threaded KNN protocol: every role killed
//! at operation indices spanning the protocol's phases (before the Fagin
//! stream, during the encrypt/aggregate phase, near the end). Every run
//! must return a typed outcome — Complete, Degraded, or Aborted — and
//! never hang; with an empty fault plan the protocol must be bit-identical
//! to the panic-free `run_threaded_knn` path.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;
use vfps_data::VerticalPartition;
use vfps_he::scheme::{seeded_uniform, PlainHe};
use vfps_ml::linalg::Matrix;
use vfps_net::{Error, FaultPlan};
use vfps_vfl::fed_knn::{FedKnnConfig, KnnMode};
use vfps_vfl::{run_threaded_knn, run_threaded_knn_faulted, FaultedRun, KnnSession};

const WATCHDOG: Duration = Duration::from_secs(60);

/// Runs `f` on a worker thread and fails the test if it does not return in
/// time — a hang is exactly the regression this suite exists to catch.
fn with_watchdog<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let out = f();
        let _ = tx.send(());
        out
    });
    rx.recv_timeout(WATCHDOG).expect("protocol hung: watchdog expired");
    worker.join().expect("watchdogged closure panicked")
}

fn toy() -> (Matrix, VerticalPartition) {
    let x = Matrix::from_rows(&[
        vec![0.0, 0.0, 0.0, 0.0],
        vec![0.1, 0.0, 0.1, 0.0],
        vec![0.0, 0.2, 0.0, 0.1],
        vec![5.0, 5.0, 5.0, 5.0],
        vec![5.1, 5.0, 4.9, 5.0],
        vec![5.0, 5.2, 5.0, 5.1],
        vec![2.5, 2.5, 2.5, 2.5],
        vec![9.0, 9.0, 9.0, 9.0],
    ]);
    (x, VerticalPartition::even(4, 2))
}

fn run_with(faults: FaultPlan, mode: KnnMode) -> FaultedRun {
    with_watchdog(move || {
        let (x, part) = toy();
        let db: Vec<usize> = (0..8).collect();
        let queries = vec![0usize, 3, 6];
        let cfg = FedKnnConfig { k: 3, mode, batch: 2, cost_scale: 1.0 };
        let he = Arc::new(PlainHe::new(4));
        run_threaded_knn_faulted(&he, &x, &part, &[0, 1], &db, &queries, cfg, 77, &faults)
    })
}

/// With no faults injected the fallible path must reproduce the legacy
/// panic-on-failure path bit for bit: same neighbors, same `d_t` bits,
/// same traffic ledger totals.
#[test]
fn empty_fault_plan_is_bit_identical_to_fault_free_run() {
    for mode in [KnnMode::Base, KnnMode::Fagin] {
        let (x, part) = toy();
        let db: Vec<usize> = (0..8).collect();
        let queries = vec![0usize, 3, 6];
        let cfg = FedKnnConfig { k: 3, mode, batch: 2, cost_scale: 1.0 };
        let he = Arc::new(PlainHe::new(4));
        let plain = run_threaded_knn(&he, &x, &part, &[0, 1], &db, &queries, cfg, 77);
        let faulted = run_with(FaultPlan::default(), mode);
        let FaultedRun::Complete(run) = faulted else {
            panic!("empty plan must complete, got {faulted:?}");
        };
        assert!(run.dropouts.is_empty());
        assert_eq!(run.total_bytes, plain.total_bytes, "{mode:?} byte transcript");
        assert_eq!(run.total_messages, plain.total_messages, "{mode:?} message transcript");
        for (a, b) in plain.outcomes.iter().zip(&run.outcomes) {
            assert_eq!(a.topk_rows, b.topk_rows, "{mode:?}");
            assert_eq!(a.candidates, b.candidates, "{mode:?}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.d_t), bits(&b.d_t), "{mode:?}");
        }
    }
}

/// Kill each role at op indices spanning the protocol's phases. No run may
/// hang; the outcome variant is determined by the role: server or leader
/// death aborts, participant death degrades (or completes, when the kill
/// op lies beyond the ops that node ever executes).
#[test]
fn kill_matrix_returns_typed_outcomes_for_every_role_and_phase() {
    // Op indices chosen to land before the stream starts, inside the
    // stream/encrypt phase, and in the late aggregate/d_t phase. The three
    // queries share one wave: a Base node lives six ops at most (so 2 and
    // 4 are its middle and end), a Fagin node a dozen more for the stream.
    let phases = [0u64, 2, 4, 12, 40];
    for mode in [KnnMode::Base, KnnMode::Fagin] {
        for node in [0usize, 1, 2] {
            for &op in &phases {
                let outcome = run_with(FaultPlan::new().kill_at(node, op), mode);
                match (node, &outcome) {
                    // The aggregation server or the leader dying is fatal.
                    (0 | 1, FaultedRun::Aborted { error, .. }) => {
                        assert!(
                            matches!(
                                error,
                                Error::Killed { .. } | Error::Hangup { .. } | Error::Timeout { .. }
                            ),
                            "{mode:?} node {node} op {op}: unexpected error {error:?}"
                        );
                    }
                    // A kill op beyond the node's lifetime never fires.
                    (0 | 1, FaultedRun::Complete(run)) => {
                        assert!(
                            run.dropouts.is_empty(),
                            "{mode:?} node {node} op {op}: complete run with dropouts"
                        );
                    }
                    // A plain participant dying degrades but never aborts.
                    (2, FaultedRun::Degraded(run)) => {
                        assert_eq!(run.dropouts, vec![2], "{mode:?} op {op}: dropout bookkeeping");
                        assert_eq!(run.outcomes.len(), 3, "{mode:?} op {op}: batch completes");
                        for o in &run.outcomes {
                            assert_eq!(o.d_t.len(), 2, "full p-width is preserved");
                        }
                    }
                    (2, FaultedRun::Complete(run)) => {
                        assert!(run.dropouts.is_empty(), "{mode:?} op {op}");
                    }
                    (n, o) => panic!("{mode:?} node {n} op {op}: unexpected outcome {o:?}"),
                }
            }
        }
    }
}

/// A participant dying mid-wave (here inside the Fagin stream of the
/// session's only wave) is out for the whole wave: the leader finishes
/// every query over the survivors, the dead slot carries `d_t = 0.0` in
/// each, and the surviving slots still produce usable neighbor sets.
#[test]
fn participant_death_zero_fills_its_d_t_share() {
    let outcome = run_with(FaultPlan::new().kill_at(2, 6), KnnMode::Fagin);
    let FaultedRun::Degraded(run) = outcome else {
        panic!("expected degraded run, got {outcome:?}");
    };
    assert_eq!(run.dropouts, vec![2]);
    assert_eq!(run.outcomes.len(), 3);
    for (q, o) in run.outcomes.iter().enumerate() {
        // Node 2 holds slot 1; the leader's own share stays live.
        assert_eq!(o.d_t[1], 0.0, "query {q}: dead slot is zero-filled");
        assert!(o.d_t[0] > 0.0, "query {q}: the leader still contributes");
        assert_eq!(o.d_t_total.to_bits(), o.d_t[0].to_bits(), "query {q}");
        assert_eq!(o.topk_rows.len(), 3, "query {q} still answers");
    }
}

/// Degradation is per wave, not per session: with more queries than one
/// wave carries, a participant killed in the second wave is zero-filled
/// there only — the first wave's outcomes keep its contribution.
#[test]
fn a_death_in_the_second_wave_leaves_the_first_wave_intact() {
    let run = with_watchdog(|| {
        let (rows, cols) = (1024usize, 4usize);
        let x = Matrix::from_vec(rows, cols, seeded_uniform(0xfa11, rows * cols, 0.0, 1.0));
        let part = VerticalPartition::even(cols, 2);
        let db: Vec<usize> = (0..rows).collect();
        let cfg = FedKnnConfig { k: 3, mode: KnnMode::Base, batch: 2, cost_scale: 1.0 };
        let wave = KnnSession::new(&[0, 1], &db, &[], cfg, 5).wave_len();
        assert!((2..64).contains(&wave), "1024 rows must fit a few queries a wave, got {wave}");
        let queries: Vec<usize> = (0..=wave).map(|q| q * 7).collect();
        // A Base wave is four channel ops to node 2 (announcement in,
        // partials out, top-k in, sums out): op 5 is its second wave's send.
        let faults = FaultPlan::new().kill_at(2, 5);
        let he = Arc::new(PlainHe::new(64));
        let run = run_threaded_knn_faulted(&he, &x, &part, &[0, 1], &db, &queries, cfg, 5, &faults);
        (run, wave)
    });
    let (FaultedRun::Degraded(run), wave) = run else {
        panic!("expected degraded run, got {:?}", run.0);
    };
    assert_eq!(run.dropouts, vec![2]);
    assert_eq!(run.outcomes.len(), wave + 1, "both waves answer");
    for (q, o) in run.outcomes.iter().enumerate() {
        if q < wave {
            assert!(o.d_t[1] > 0.0, "query {q} ran before the death");
        } else {
            assert_eq!(o.d_t[1], 0.0, "query {q} shares a wave with the death");
        }
        assert!(o.d_t[0] > 0.0, "query {q}: the leader still contributes");
    }
}

/// Seeded chaos plans at the protocol level: any seed must yield a typed
/// outcome, and the same seed twice must yield the same variant and the
/// same dropout set — the replayability that makes a failing matrix entry
/// debuggable.
#[test]
fn seeded_chaos_runs_are_typed_and_replayable() {
    let classify = |o: &FaultedRun| -> (u8, Vec<usize>) {
        match o {
            FaultedRun::Complete(r) => (0, r.dropouts.clone()),
            FaultedRun::Degraded(r) => (1, r.dropouts.clone()),
            FaultedRun::Aborted { dropouts, .. } => (2, dropouts.clone()),
        }
    };
    for seed in 0..6u64 {
        let a = classify(&run_with(FaultPlan::chaos(seed, 3, 1, 20), KnnMode::Fagin));
        let b = classify(&run_with(FaultPlan::chaos(seed, 3, 1, 20), KnnMode::Fagin));
        assert_eq!(a, b, "seed {seed} must replay identically");
    }
}

/// Dropped messages alone must not wedge the protocol: the lock-step
/// server loop uses `recv_from` against live peers, so a dropped frame
/// surfaces as a hangup/timeout abort or a degraded run, never a hang.
#[test]
fn dropped_link_messages_do_not_hang() {
    // Drop the first frame each direction between server and node 2.
    let plan = FaultPlan::new().drop_nth(2, 0, 0).kill_at(2, 8);
    let outcome = run_with(plan, KnnMode::Fagin);
    assert!(
        matches!(outcome, FaultedRun::Degraded(_) | FaultedRun::Aborted { .. }),
        "lost frames must produce a typed outcome, got {outcome:?}"
    );
}
