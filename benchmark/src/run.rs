//! Orchestration: one end-to-end run (tracing off) or one traced run of a
//! workload, from set-up through oracles to a finished [`Outcome`].

use std::time::{Duration, Instant};

use vfps_vfl::fed_knn::KnnMode;

use crate::knn::{self, KnnSetup, KnnShape, Round};
use crate::layers;
use crate::serve::{self, Mix, Sample, ServeSetup, ServeShape};
use crate::stats::{self, canary_ms, cpu_seconds, median, percentile};
use crate::trace::{span, Recorder};
use crate::world::{out_dir, Tier};
use crate::{Metrics, Outcome};
use vfps_serve::Response;

/// `setup_s` is the median of at least this many set-ups per run...
const MIN_SETUPS: usize = 3;
/// ...and of as many more as fit in this much time: the `knn_*` set-up is
/// a few milliseconds, and a median of three of those is mostly noise.
const SETUP_FILL: Duration = Duration::from_millis(400);
const MAX_SETUPS: usize = 100;

pub struct Plan {
    pub workload: &'static str,
    pub seed: u64,
    /// How long the end-to-end pass measures.
    pub seconds: f64,
    /// ≈1 s per workload, every check on.
    pub smoke: bool,
}

enum Shape {
    Knn(KnnShape),
    Serve(ServeShape),
}

const WARM_TENANTS: &[&str] = &["Bank", "Rice", "Credit", "IJCNN"];
const COLD_TENANTS: &[&str] = &["Bank", "Rice"];
const FAGIN_TCP: KnnShape = KnnShape { mode: KnnMode::Fagin, tcp: true };
const WARM_ROUTED: ServeShape = ServeShape { routed: true, mix: Mix::Warm, tenants: WARM_TENANTS };

fn shape_of(workload: &str) -> Shape {
    match workload {
        "knn_base_sim" => Shape::Knn(KnnShape { mode: KnnMode::Base, tcp: false }),
        "knn_fagin_tcp" => Shape::Knn(FAGIN_TCP),
        "serve_warm_routed" => Shape::Serve(WARM_ROUTED),
        "serve_cold_direct" => {
            Shape::Serve(ServeShape { routed: false, mix: Mix::Cold, tenants: COLD_TENANTS })
        }
        other => unreachable!("workload {other} was validated against spec::WORKLOADS"),
    }
}

/// Times `build` repeatedly, tearing down all but the last set-up, and
/// returns the last set-up with the median time in seconds. `cpu_bound`
/// set-ups (`knn_*`: dataset synthesis and keygen, 2–3 ms) are read at
/// reference host speed like the rounds, each by the probe readings
/// around it: raw, their median of ten runs moved 39 % between spells.
fn timed_setups<S>(
    cpu_bound: bool,
    mut build: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
) -> (S, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    let mut spent = 0.0;
    while times.len() < MIN_SETUPS || (times.len() < MAX_SETUPS && spent < SETUP_FILL.as_secs_f64())
    {
        if let Some(old) = last.take() {
            teardown(old);
        }
        let before = if cpu_bound { stats::host_slowdown(stats::SETUP_PROBE) } else { 0.0 };
        let t = Instant::now();
        last = Some(build());
        let raw = t.elapsed().as_secs_f64();
        spent += raw;
        times.push(if cpu_bound {
            let after = stats::host_slowdown(stats::SETUP_PROBE);
            stats::at_reference_speed(raw, (before + after) / 2.0)
        } else {
            raw
        });
    }
    (last.expect("MIN_SETUPS > 0"), median(&times))
}

fn sorted_ms(ms: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = ms.collect();
    stats::sort(&mut v);
    v
}

/// The end-to-end pass: tracing off, every interval holds one public call.
pub fn end_to_end(plan: &Plan) -> Outcome {
    let canary_before = canary_ms();
    let budget = Duration::from_secs_f64(if plan.smoke { 1.0 } else { plan.seconds });
    let mut out = Outcome::new(plan.workload, plan.seed, false);
    match shape_of(plan.workload) {
        Shape::Knn(shape) => knn_end_to_end(shape, plan.seed, budget, &mut out),
        Shape::Serve(shape) => serve_end_to_end(shape, plan.seed, budget, &mut out),
    }
    out.finish(canary_before, canary_ms());
    out
}

/// `knn_*` timings are reported at reference host speed (see
/// [`stats::at_reference_speed`]): each round is corrected by the probe
/// readings taken right before and after it, while nothing else runs. The
/// raw numbers are printed and filed beside them.
fn knn_end_to_end(shape: KnnShape, seed: u64, budget: Duration, out: &mut Outcome) {
    let notes = &mut out.notes;
    let (setup, setup_s) =
        timed_setups(true, || KnnSetup::new(shape.tcp, seed), |s| s.teardown(notes));
    let (rounds, slowdown) = knn::measure(&setup, shape, budget, 3);
    out.failed = knn::verify(&setup, shape, &rounds, &mut out.notes);
    setup.teardown(&mut out.notes);

    let raw = sorted_ms(rounds.iter().map(|r| r.ms));
    let corrected =
        sorted_ms(rounds.iter().zip(&slowdown).map(|(r, &p)| stats::at_reference_speed(r.ms, p)));
    let done: Vec<_> = rounds.iter().filter_map(|r| r.result.as_ref().ok()).collect();
    let bytes: u64 = done.iter().map(|d| d.total_bytes).sum();
    let n = rounds.len() as f64;
    out.attempted = rounds.len() as u64;
    out.metrics.set("op_ms_p50", percentile(&corrected, 0.5));
    out.metrics.set("ops_per_s", n / (corrected.iter().sum::<f64>() / 1e3));
    out.metrics.set("wire_bytes_per_op", bytes as f64 / done.len().max(1) as f64);
    out.metrics.set("setup_s", setup_s);
    out.context = vec![
        ("raw_op_ms_p50", percentile(&raw, 0.5), "ms"),
        ("raw_ops_per_s", n / (raw.iter().sum::<f64>() / 1e3), "1/s"),
        ("host_slowdown_p50", median(&slowdown), "ratio"),
    ];
}

/// `serve_*` timings are raw: a request waits on a timer for 85–98 % of
/// its latency and repeats within 2 %, and a probe beside two clients and
/// the daemons competes with the load it should calibrate (tried: its
/// slices read 2× slow on `serve_cold_direct`).
fn serve_end_to_end(shape: ServeShape, seed: u64, budget: Duration, out: &mut Outcome) {
    let notes = &mut out.notes;
    let (mut setup, setup_s) = timed_setups(
        false,
        || ServeSetup::new(shape, shape.routed, seed),
        |s| serve::check_drain(&s.tier.shutdown(), s.selects_sent, notes),
    );
    let (samples, wall_s) = serve::measure(&mut setup, shape, budget, 3, None);
    out.failed = serve::verify(&setup, &samples, &mut out.notes);
    serve::check_drain(&setup.tier.shutdown(), setup.selects_sent, &mut out.notes);

    let ms = sorted_ms(samples.iter().map(|s| s.ms));
    let bytes: u64 = samples.iter().map(|s| s.wire_bytes).sum();
    out.attempted = samples.len() as u64;
    out.metrics.set("op_ms_p50", percentile(&ms, 0.5));
    out.metrics.set("ops_per_s", samples.len() as f64 / wall_s);
    out.metrics.set("wire_bytes_per_op", bytes as f64 / samples.len() as f64);
    out.metrics.set("setup_s", setup_s);
}

/// How many operations the traced pass runs. On the workload's own path
/// two in three are traced and one is not (the untraced third gives
/// `trace.overhead_pct`); the other paths run just enough for their
/// layer numbers to exist on every workload.
struct TraceSizes {
    knn_native: usize,
    knn_other: usize,
    serve_native_per_client: usize,
    serve_other_per_client: usize,
    pings: usize,
    relay_per_path: usize,
}

const FULL: TraceSizes = TraceSizes {
    knn_native: 30,
    knn_other: 6,
    serve_native_per_client: 150,
    serve_other_per_client: 30,
    pings: 40,
    relay_per_path: 20,
};
const SMOKE: TraceSizes = TraceSizes {
    knn_native: 3,
    knn_other: 1,
    serve_native_per_client: 6,
    serve_other_per_client: 3,
    pings: 10,
    relay_per_path: 2,
};

/// `(traced p50, overhead %)` of `(traced?, ms)` operations.
fn trace_overhead(ops: &[(bool, f64)]) -> (f64, f64) {
    let p50 = |traced: bool| {
        median(&ops.iter().filter(|o| o.0 == traced).map(|o| o.1).collect::<Vec<_>>())
    };
    (p50(true), (p50(true) / p50(false) - 1.0) * 100.0)
}

/// Runs `f`; returns its result with the process CPU seconds and the
/// wall-clock seconds it took.
fn metered<T>(f: impl FnOnce() -> T) -> (T, (f64, f64)) {
    let (cpu, wall) = (cpu_seconds(), Instant::now());
    let out = f();
    (out, (cpu_seconds() - cpu, wall.elapsed().as_secs_f64()))
}

/// The traced pass: a shortened run of the workload with the recorder on,
/// the other protocol plane's probe, and both layer replays, so every
/// per-layer metric is measured on every workload.
pub fn traced(plan: &Plan) -> Outcome {
    let canary_before = canary_ms();
    let sizes = if plan.smoke { SMOKE } else { FULL };
    let rec = Recorder::new();
    let mut out = Outcome::new(plan.workload, plan.seed, true);
    let shape = shape_of(plan.workload);

    // The fed-KNN plane. Daemons are always up so `cluster.*` exists even
    // where the workload's own rounds stay in-process.
    let (knn_shape, knn_native) = match shape {
        Shape::Knn(s) => (s, true),
        Shape::Serve(_) => (FAGIN_TCP, false),
    };
    let setup = KnnSetup::new(true, plan.seed);
    let (native_rounds, other_rounds) =
        if knn_native { (sizes.knn_native, sizes.knn_other) } else { (sizes.knn_other, 1) };
    let (native, knn_cpu) =
        metered(|| knn_rounds(&setup, knn_shape, native_rounds, knn_native, &rec, 0));
    let other_shape = KnnShape { tcp: !knn_shape.tcp, ..knn_shape };
    let other = knn_rounds(&setup, other_shape, other_rounds, false, &rec, 1 << 20);
    let knn_failed = knn::verify(&setup, knn_shape, &native.rounds, &mut out.notes)
        + knn::check_rounds(&setup, other_shape.mode, &other.rounds, &mut out.notes);
    knn_metrics(&native, &other, knn_shape, &rec, &mut out.metrics);
    layers::replay_knn(&setup, knn_shape.mode, &rec, &mut out.metrics);
    layers::replay_select(&setup.world, plan.seed, &rec, &mut out.metrics);
    setup.teardown(&mut out.notes);

    // The selection-service plane, always 2 daemons + router.
    let (serve_shape, serve_native) = match shape {
        Shape::Serve(s) => (s, true),
        Shape::Knn(_) => (WARM_ROUTED, false),
    };
    let per_client =
        if serve_native { sizes.serve_native_per_client } else { sizes.serve_other_per_client };
    let mut ss = ServeSetup::new(serve_shape, true, plan.seed);
    let ((samples, _), serve_cpu) =
        metered(|| serve::measure(&mut ss, serve_shape, Duration::ZERO, per_client, Some(&rec)));
    let serve_failed = serve::verify(&ss, &samples, &mut out.notes);
    serve_metrics(&samples, &mut out.metrics);
    tier_probes(&mut ss, &sizes, &mut out.metrics);
    serve::check_drain(&ss.tier.shutdown(), ss.selects_sent, &mut out.notes);

    // Attempted/failed, CPU and overhead describe the workload's own path.
    let ((cpu_s, wall_s), ops) = if knn_native {
        out.failed = knn_failed;
        (knn_cpu, native.rounds.iter().zip(&native.traced).map(|(r, &t)| (t, r.ms)).collect())
    } else {
        out.failed = serve_failed;
        (serve_cpu, samples.iter().map(|s| (s.traced, s.ms)).collect::<Vec<_>>())
    };
    if knn_native && serve_failed > 0 || serve_native && knn_failed > 0 {
        out.notes.push("a probe outside the workload's own path failed".into());
    }
    out.attempted = ops.len() as u64;
    let (traced_p50, overhead) = trace_overhead(&ops);
    out.metrics.set("trace.op_ms_p50", traced_p50);
    out.metrics.set("trace.overhead_pct", overhead);
    out.metrics.set("proc.cpu_ms_per_op", cpu_s * 1e3 / ops.len() as f64);
    out.metrics.set("proc.cpu_utilization", cpu_s / (wall_s * stats::nproc() as f64));
    out.metrics.set("proc.max_rss_mb", stats::max_rss_mb());
    out.metrics.set("par.threads", vfps_par::global().threads() as f64);
    out.metrics.set("host.nproc", stats::nproc() as f64);
    let canary_after = canary_ms();
    out.metrics.set("host.canary_ms_before", canary_before);
    out.metrics.set("host.canary_ms_after", canary_after);

    let path = out_dir().join(format!("trace-{}.json", plan.workload));
    std::fs::create_dir_all(out_dir()).expect("create benchmark/out");
    rec.write(&path, plan.workload).expect("write the span file");
    println!("{} spans -> {}", rec.len(), path.display());
    out.finish(canary_before, canary_after);
    out
}

struct KnnPass {
    rounds: Vec<Round>,
    traced: Vec<bool>,
}

/// `n` rounds over one backend. TCP rounds go through the hub's public
/// steps so each step is a span; sim rounds are one call, one span. With
/// `interleave`, every third round runs with the recorder off.
fn knn_rounds(
    setup: &KnnSetup,
    shape: KnnShape,
    n: usize,
    interleave: bool,
    rec: &Recorder,
    first_op: u64,
) -> KnnPass {
    let mut pass = KnnPass { rounds: Vec::new(), traced: Vec::new() };
    for i in 0..n {
        let traced = !(interleave && i % 3 == 2);
        let rec = traced.then_some(rec);
        let op = first_op + i as u64;
        let queries = setup.round_queries(i);
        pass.rounds.push(if shape.tcp {
            knn::round_stepwise(setup, shape.mode, queries, rec, op)
        } else {
            span(rec, "knn.round", None, op, |root| {
                span(rec, "vfl.run_knn_backend", root, op, |_| knn::round(setup, shape, queries))
            })
        });
        pass.traced.push(traced);
    }
    pass
}

fn knn_metrics(
    native: &KnnPass,
    other: &KnnPass,
    shape: KnnShape,
    rec: &Recorder,
    m: &mut Metrics,
) {
    let ms = |p: &KnnPass| p.rounds.iter().map(|r| r.ms).collect::<Vec<_>>();
    let (tcp, sim) = if shape.tcp { (native, other) } else { (other, native) };
    let (tcp_ms, sim_ms) = (median(&ms(tcp)), median(&ms(sim)));
    m.set("vfl.sim_round_ms", sim_ms);
    m.set("cluster.tcp_round_ms", tcp_ms);
    m.set("cluster.tcp_over_sim_ratio", tcp_ms / sim_ms);
    m.set("knn.round_ms_p90", percentile(&sorted_ms(ms(native).into_iter()), 0.9));
    for (metric, span_name) in [
        ("cluster.hub_connect_us", "cluster.hub_connect"),
        ("cluster.server_node_us", "vfl.knn_server_node"),
        ("cluster.wait_result_us", "cluster.wait_result"),
    ] {
        m.set(metric, rec.mean_self_us(span_name).unwrap_or(0.0));
    }
    let tcp_stats: Vec<_> = tcp
        .rounds
        .iter()
        .filter_map(|r| r.result.as_ref().ok().and_then(|d| d.stats.as_ref()))
        .collect();
    let per_round = |f: fn(&vfps_cluster::ClusterStats) -> u64| {
        tcp_stats.iter().map(|s| f(s)).sum::<u64>() as f64 / tcp_stats.len().max(1) as f64
    };
    m.set("cluster.frames_per_round", per_round(|s| s.logical_messages()));
    m.set("cluster.bytes_per_round", per_round(|s| s.logical_bytes()));
    m.set("cluster.reconnects", tcp_stats.iter().map(|s| s.reconnects).sum::<u64>() as f64);
    m.set("cluster.kills_observed", tcp_stats.iter().map(|s| s.kills_observed).sum::<u64>() as f64);
    let done: Vec<_> = native.rounds.iter().filter_map(|r| r.result.as_ref().ok()).collect();
    let candidates: usize = done.iter().flat_map(|d| &d.outcomes).map(|o| o.candidates).sum();
    let queries = (done.len() * knn::Q).max(1) as f64;
    m.set("topk.candidates_per_query", candidates as f64 / queries);
    m.set(
        "he.values_encrypted_per_round",
        (candidates * crate::world::PARTIES) as f64 / done.len().max(1) as f64,
    );
}

fn serve_metrics(samples: &[Sample], m: &mut Metrics) {
    let replies: Vec<_> = samples
        .iter()
        .filter_map(|s| match &s.resp {
            Ok(Response::Selected(r)) => Some((s.ms * 1e3, r.queue_us as f64, r.run_us as f64)),
            _ => None,
        })
        .collect();
    let col = |f: fn(&(f64, f64, f64)) -> f64| sorted_ms(replies.iter().map(f));
    if !replies.is_empty() {
        let (queue, run) = (col(|r| r.1), col(|r| r.2));
        m.set("serve.queue_us_p50", percentile(&queue, 0.5));
        m.set("serve.queue_us_p95", percentile(&queue, 0.95));
        m.set("serve.run_us_p50", percentile(&run, 0.5));
        m.set("serve.run_us_p95", percentile(&run, 0.95));
        m.set("serve.unattributed_us_p50", percentile(&col(|r| r.0 - r.1 - r.2), 0.5));
        let latency = col(|r| r.0);
        m.set("serve.latency_us_p50", percentile(&latency, 0.5));
        m.set("serve.latency_us_p95", percentile(&latency, 0.95));
    }
    let busy = samples.iter().filter(|s| matches!(s.resp, Ok(Response::Busy { .. }))).count();
    m.set("serve.busy_replies", busy as f64);
}

/// Frame round-trips with no selection (direct ping), and the router's
/// relay cost: the same warm request through the router and straight at
/// the backend that owns it.
fn tier_probes(ss: &mut ServeSetup, sizes: &TraceSizes, m: &mut Metrics) {
    let mut direct = Tier::client(&ss.tier.backends[0]);
    let pings = sorted_ms((0..sizes.pings).map(|_| {
        let t = Instant::now();
        direct.ping().expect("ping roundtrip");
        t.elapsed().as_secs_f64() * 1e6
    }));
    m.set("net.ping_rtt_us_p50", percentile(&pings, 0.5));

    let (hot, _) = ss.hot[0].clone();
    let mut routed = Tier::client(&ss.tier.front);
    let mut owner = Tier::client(&ss.owner_backend(0));
    let mut time_warm = |client: &mut vfps_serve::Client, timed: bool| {
        let t = Instant::now();
        let resp = client.select(&hot);
        let us = t.elapsed().as_secs_f64() * 1e6;
        ss.selects_sent += 1;
        assert!(
            matches!(&resp, Ok(Response::Selected(r)) if !timed || r.cache_status == "warm"),
            "relay probe must be served warm: {resp:?}"
        );
        us
    };
    // The first request on each path may find the tenant cold there.
    time_warm(&mut routed, false);
    time_warm(&mut owner, false);
    // Back to back per path, as the closed-loop clients send: on an idle
    // connection the kernel's delayed-ACK timer adds to every request.
    let via_router: Vec<f64> =
        (0..sizes.relay_per_path).map(|_| time_warm(&mut routed, true)).collect();
    let via_owner: Vec<f64> =
        (0..sizes.relay_per_path).map(|_| time_warm(&mut owner, true)).collect();
    m.set("router.relay_us_p50", median(&via_router) - median(&via_owner));
    let status = routed.router_status().expect("router status");
    let routed_min = status.backends.iter().map(|b| b.routed).min().unwrap_or(0);
    m.set("router.routed_per_backend_min", routed_min as f64);
    m.set(
        "router.relay_errors",
        status.backends.iter().map(|b| b.relay_errors).sum::<u64>() as f64,
    );
}
