//! The benchmark's contract in one place: workloads, metrics, bounds.
//! `BENCHMARK.json` at the repo root is generated from these tables
//! (`manifest` subcommand) and a unit test keeps the two equal.

use crate::stats::Json;

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 28;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "knn_base_sim",
        why: "Base mode over in-process channels: every party encrypts all 960 partials, so he \
              is ~99% of the round; no socket, no top-k stream",
    },
    Workload {
        name: "knn_fagin_tcp",
        why: "Fagin mode over four loopback party daemons: the paper's optimised path; adds \
              topk streaming, cluster relay and net::wire to a smaller HE share",
    },
    Workload {
        name: "serve_warm_routed",
        why: "7/8 warm repeats + 1/8 churn through router over two daemons: wire, relay, \
              admission and cache reads are the whole request; engine work is ~0.4 ms",
    },
    Workload {
        name: "serve_cold_direct",
        why: "never-seen seeds straight at one daemon: every request runs the fed-KNN engine, \
              similarity, maximizer and a cache write; the router is bypassed",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub what: &'static str,
}

/// One *operation* is what a caller waits for: a whole session round (8
/// queries) on `knn_*`, one `SelectRequest` on `serve_*`.
///
/// The timing bounds are the widest the contract allows: the `knn_*`
/// rounds are CPU-bound on a host whose speed drifts by ±30 %. Even at
/// reference host speed (`stats::at_reference_speed`) ten seeds spread
/// 5–6.5 % (IQR over median), and a bound should be three spreads wide.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median caller-observed wall-clock of one operation (knn_*: at reference host speed)",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "operations completed per second of timed wall-clock, closed loop (knn_*: at reference host speed)",
    },
    EndToEnd {
        name: "wire_bytes_per_op",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.05,
        what: "knn: ThreadedKnnRun.total_bytes per round; serve: request + reply frame bytes",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "world build, keygen, daemon/router spawn, tenant priming (median of repeats)",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload(s) this number should move.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

use Better::{Higher, Lower};

const KNN_BASE: &str = "op_ms_p50 on knn_base_sim, less on knn_fagin_tcp, none on serve_*";
const KNN_FAGIN: &str = "op_ms_p50 and wire_bytes_per_op on knn_fagin_tcp";
const KNN_TCP: &str = "op_ms_p50 on knn_fagin_tcp only";
const SERVE_BOTH: &str = "op_ms_p50 and ops_per_s on both serve_*";
const SERVE_WARM: &str = "op_ms_p50 on serve_warm_routed";
const SERVE_COLD: &str = "op_ms_p50 and ops_per_s on serve_cold_direct";
const CONTEXT: &str = "context; moves no end-to-end metric by itself";

pub const PER_LAYER: [PerLayer; 57] = [
    pl("he.encrypt_us_per_value", "us", Lower, KNN_BASE),
    pl("he.decrypt_us_per_value", "us", Lower, KNN_BASE),
    pl("he.add_us_per_ct", "us", Lower, KNN_BASE),
    pl("he.codec_us_per_ct", "us", Lower, KNN_BASE),
    pl("he.values_encrypted_per_round", "count", Lower, KNN_BASE),
    pl("he.keygen_ms", "ms", Lower, "setup_s on knn_*"),
    pl("ml.partial_dist_us_per_query", "us", Lower, KNN_FAGIN),
    pl("vfl.rank_sort_us_per_query", "us", Lower, KNN_FAGIN),
    pl("topk.stream_feed_us_per_query", "us", Lower, KNN_FAGIN),
    pl("topk.candidates_per_query", "count", Lower, KNN_FAGIN),
    pl("topk.batches_per_query", "count", Lower, KNN_FAGIN),
    pl("vfl.sim_round_ms", "ms", Lower, "op_ms_p50 on knn_*"),
    pl("cluster.tcp_round_ms", "ms", Lower, KNN_TCP),
    pl("cluster.tcp_over_sim_ratio", "ratio", Lower, KNN_TCP),
    pl("cluster.hub_connect_us", "us", Lower, KNN_TCP),
    pl("cluster.server_node_us", "us", Lower, KNN_TCP),
    pl("cluster.wait_result_us", "us", Lower, KNN_TCP),
    pl("cluster.frames_per_round", "count", Lower, KNN_TCP),
    pl("cluster.bytes_per_round", "bytes", Lower, KNN_TCP),
    pl("cluster.reconnects", "count", Lower, KNN_TCP),
    pl("cluster.kills_observed", "count", Lower, KNN_TCP),
    pl("knn.round_ms_p90", "ms", Lower, "the tail of op_ms on knn_*; too noisy to bound"),
    pl("net.ping_rtt_us_p50", "us", Lower, SERVE_BOTH),
    pl("net.frame_codec_us", "us", Lower, SERVE_BOTH),
    pl("router.relay_us_p50", "us", Lower, SERVE_WARM),
    pl("router.routed_per_backend_min", "count", Higher, SERVE_WARM),
    pl("router.relay_errors", "count", Lower, SERVE_WARM),
    pl("serve.queue_us_p50", "us", Lower, SERVE_BOTH),
    pl("serve.queue_us_p95", "us", Lower, SERVE_BOTH),
    pl("serve.run_us_p50", "us", Lower, SERVE_BOTH),
    pl("serve.run_us_p95", "us", Lower, SERVE_BOTH),
    pl("serve.unattributed_us_p50", "us", Lower, SERVE_BOTH),
    pl("serve.latency_us_p50", "us", Lower, SERVE_BOTH),
    pl("serve.latency_us_p95", "us", Lower, SERVE_BOTH),
    pl("serve.tenant_resolve_us", "us", Lower, SERVE_BOTH),
    pl("serve.busy_replies", "count", Lower, SERVE_BOTH),
    pl("core.cache_key_us", "us", Lower, SERVE_WARM),
    pl("cache.lookup_hit_us", "us", Lower, SERVE_WARM),
    pl("core.select_warm_us", "us", Lower, SERVE_WARM),
    pl("cache.lookup_miss_us", "us", Lower, SERVE_COLD),
    pl("cache.lookup_churn_us", "us", Lower, SERVE_COLD),
    pl("cache.store_us_empty", "us", Lower, SERVE_COLD),
    pl("cache.store_us_full", "us", Lower, SERVE_COLD),
    pl("cache.entry_bytes", "bytes", Lower, SERVE_COLD),
    pl("vfl.fed_knn_batch_us", "us", Lower, SERVE_COLD),
    pl("core.similarity_us", "us", Lower, SERVE_COLD),
    pl("core.maximize_us", "us", Lower, SERVE_COLD),
    pl("core.select_cold_us", "us", Lower, SERVE_COLD),
    pl("proc.cpu_ms_per_op", "ms", Lower, CONTEXT),
    pl("proc.cpu_utilization", "ratio", Lower, CONTEXT),
    pl("proc.max_rss_mb", "MiB", Lower, CONTEXT),
    pl("par.threads", "count", Higher, CONTEXT),
    pl("host.nproc", "count", Higher, CONTEXT),
    pl("host.canary_ms_before", "ms", Lower, CONTEXT),
    pl("host.canary_ms_after", "ms", Lower, CONTEXT),
    pl("trace.op_ms_p50", "ms", Lower, CONTEXT),
    pl("trace.overhead_pct", "%", Lower, CONTEXT),
];

/// The exact content of `BENCHMARK.json`.
pub fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        ("command", Json::Arr(command.iter().map(|s| Json::Str((*s).into())).collect())),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            (
                                "why",
                                Json::Str(w.why.split_whitespace().collect::<Vec<_>>().join(" ")),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(direction(m.better).into())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", Json::Str(direction(m.better).into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .render_pretty()
}

fn direction(b: Better) -> &'static str {
    if b == Lower {
        "lower"
    } else {
        "higher"
    }
}

/// The metric tables of `README.md`, as markdown (`describe` subcommand).
pub fn describe() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        let row = format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            direction(m.better),
            m.bound,
            m.what
        );
        out.push_str(&row);
    }
    out.push_str("\n| per-layer metric | unit | better | should move |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        let row =
            format!("| `{}` | {} | {} | {} |\n", m.name, m.unit, direction(m.better), m.moves);
        out.push_str(&row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "every name is used once");
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(u.len() <= 16 && !u.is_empty(), "bad unit {u}");
            assert!(u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)), "{u}");
        }
        for w in &WORKLOADS {
            let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(why.len() <= 200, "{}: why has {} chars", w.name, why.len());
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the widest bound");
        assert!(manifest().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest(), "regenerate with the `manifest` subcommand");
    }
}
