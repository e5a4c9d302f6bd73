//! Observability-plane guarantees: instrumentation observes the pipeline
//! without perturbing it, and the exported metrics reproduce the ledger's
//! cost accounting.
//!
//! The two load-bearing properties:
//!
//! 1. **Bit-identity**: a selection run under an active capture produces
//!    byte-exact the same chosen set, scores, and `OpLedger` as the same
//!    run with the recorder off. Spans read clocks and bump counters; they
//!    never feed back into the computation.
//! 2. **Ledger-mirroring**: the `fed_knn.*.enc_instances` counters equal
//!    the corresponding ledger `enc.work` totals, so the Fagin-vs-Base
//!    encryption comparison in an exported trace is the corrected Fagin
//!    accounting, not an approximation of it.
//!
//! The obs recorder is process-global, so every test here serializes on
//! one mutex.

use std::sync::Mutex;

use vfps_core::pipeline::{run_pipeline, Method, PipelineConfig};
use vfps_core::selectors::{SelectionContext, Selector, VfpsSmSelector};
use vfps_data::{prepared_sized, DatasetSpec, VerticalPartition};
use vfps_vfl::fed_knn::KnnMode;
use vfps_vfl::split_train::Downstream;

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Fixture {
    ds: vfps_data::Dataset,
    split: vfps_data::Split,
    partition: VerticalPartition,
}

fn fixture(seed: u64) -> Fixture {
    let spec = DatasetSpec::by_name("Rice").unwrap();
    let (ds, split) = prepared_sized(&spec, 220, seed);
    let partition = VerticalPartition::random(ds.n_features(), 4, seed);
    Fixture { ds, split, partition }
}

fn select_with(f: &Fixture, mode: KnnMode, seed: u64) -> vfps_core::selectors::Selection {
    let ctx = SelectionContext {
        ds: &f.ds,
        split: &f.split,
        partition: &f.partition,
        cost_scale: 1.0,
        seed,
    };
    VfpsSmSelector { query_count: 12, mode, ..Default::default() }.select(&ctx, 2)
}

#[test]
fn instrumented_selection_is_bit_identical_to_uninstrumented() {
    let _g = lock();
    let f = fixture(11);

    assert!(!vfps_obs::is_enabled(), "no capture active at test start");
    let plain = select_with(&f, KnnMode::Fagin, 11);

    vfps_obs::start_capture();
    let traced = select_with(&f, KnnMode::Fagin, 11);
    let trace = vfps_obs::finish_capture().expect("capture was started");

    assert_eq!(traced.chosen, plain.chosen, "chosen set must not move");
    assert_eq!(traced.ledger, plain.ledger, "billing must not move");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&traced.scores), bits(&plain.scores), "scores must be bit-identical");
    assert_eq!(
        traced.candidates_per_query.to_bits(),
        plain.candidates_per_query.to_bits(),
        "Fig. 9 metric must be bit-identical"
    );

    // The capture actually observed the run.
    assert!(trace.span_count("select.vfps_sm") >= 1, "names: {:?}", trace.span_names());
    assert!(trace.span_count("select.vfps_sm.maximize") >= 1);
    assert_eq!(trace.span_count("fed_knn.query") as usize, 12, "one span per query");
    assert!(trace.metrics.counter("fed_knn.fagin.candidates") > 0);
}

#[test]
fn enc_counters_mirror_the_ledger_and_fagin_undercuts_base() {
    let _g = lock();
    let f = fixture(12);

    vfps_obs::start_capture();
    let base = select_with(&f, KnnMode::Base, 12);
    let base_trace = vfps_obs::finish_capture().expect("capture was started");

    vfps_obs::start_capture();
    let fagin = select_with(&f, KnnMode::Fagin, 12);
    let fagin_trace = vfps_obs::finish_capture().expect("capture was started");

    // Exported counters equal the ledger's `enc.work` — same accounting,
    // two sinks.
    assert_eq!(
        base_trace.metrics.counter("fed_knn.base.enc_instances"),
        base.ledger.enc.work,
        "base counter must mirror the ledger"
    );
    assert_eq!(
        fagin_trace.metrics.counter("fed_knn.fagin.enc_instances"),
        fagin.ledger.enc.work,
        "fagin counter must mirror the ledger"
    );
    // The paper's claim, measured through the obs plane: Fagin encrypts
    // strictly fewer instances than the no-Fagin baseline.
    assert!(
        fagin_trace.metrics.counter("fed_knn.fagin.enc_instances")
            < base_trace.metrics.counter("fed_knn.base.enc_instances"),
        "fagin {} must undercut base {}",
        fagin_trace.metrics.counter("fed_knn.fagin.enc_instances"),
        base_trace.metrics.counter("fed_knn.base.enc_instances")
    );
    // Modes never cross-contaminate counters.
    assert_eq!(base_trace.metrics.counter("fed_knn.fagin.enc_instances"), 0);
    assert_eq!(fagin_trace.metrics.counter("fed_knn.base.enc_instances"), 0);
}

#[test]
fn pipeline_reports_phase_breakdown_and_emits_spans() {
    let _g = lock();
    let spec = DatasetSpec::by_name("Rice").unwrap();
    let cfg = PipelineConfig { sim_instances: Some(200), query_count: 8, ..Default::default() };

    vfps_obs::start_capture();
    let report = run_pipeline(&spec, Method::VfpsSm, Downstream::Knn { k: 3 }, &cfg, 5);
    let trace = vfps_obs::finish_capture().expect("capture was started");

    let names: Vec<&str> = report.phase_ms.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, vec!["prepare", "select", "train"], "fixed phase order");
    assert!(report.phase_ms.iter().all(|&(_, ms)| ms >= 0.0));
    let total: f64 = report.phase_ms.iter().map(|&(_, ms)| ms).sum();
    assert!(
        total <= report.real_ms + 1.0,
        "phases partition the run: {total} vs {}",
        report.real_ms
    );

    assert_eq!(trace.span_count("pipeline.run"), 1);
    assert_eq!(trace.span_count("pipeline.prepare"), 1);
    assert_eq!(trace.span_count("pipeline.select"), 1);
    assert_eq!(trace.span_count("pipeline.train"), 1);
    // The selector's spans nest under (or beside, on worker threads) the
    // pipeline's; the JSON export carries all of them.
    let json = trace.to_json();
    assert!(json.contains("\"pipeline.select\""), "exported JSON names phases");
    assert!(json.contains("fed_knn."), "hot-layer spans or counters are exported");
}

#[test]
fn uninstrumented_runs_leave_no_recorder_behind() {
    let _g = lock();
    let f = fixture(13);
    let _ = select_with(&f, KnnMode::Fagin, 13);
    assert!(!vfps_obs::is_enabled(), "selection must not start captures on its own");
    assert!(vfps_obs::finish_capture().is_none(), "and leaves nothing to collect");
}

/// The threaded protocol's `protocol.encrypted_values` counter is a count
/// of values, whatever frames carry them: every party encrypts each query's
/// candidates once, so a run sums to parties × Σ candidates — the figure
/// the per-query exchange reported, now added once per wave.
#[test]
fn protocol_encrypted_values_counts_each_candidate_once_per_party() {
    use std::sync::Arc;
    use vfps_he::scheme::PlainHe;
    use vfps_vfl::fed_knn::FedKnnConfig;
    use vfps_vfl::run_threaded_knn;

    let _g = lock();
    let f = fixture(13);
    let parties = [0usize, 1, 2];
    let queries: Vec<usize> = f.split.train.iter().copied().take(5).collect();
    for mode in [KnnMode::Base, KnnMode::Fagin] {
        let cfg = FedKnnConfig { k: 3, mode, batch: 8, cost_scale: 1.0 };
        let he = Arc::new(PlainHe::new(16));
        vfps_obs::start_capture();
        let run = run_threaded_knn(
            &he,
            &f.ds.x,
            &f.partition,
            &parties,
            &f.split.train,
            &queries,
            cfg,
            3,
        );
        let trace = vfps_obs::finish_capture().expect("capture was started");
        let candidates: usize = run.outcomes.iter().map(|o| o.candidates).sum();
        assert_eq!(
            trace.metrics.counter("protocol.encrypted_values"),
            (parties.len() * candidates) as u64,
            "{mode:?}"
        );
        assert_eq!(trace.span_count("protocol.server.wave"), 1, "{mode:?}: five queries, one wave");
    }
}
