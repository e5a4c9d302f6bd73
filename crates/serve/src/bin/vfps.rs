//! `vfps` — command-line participant selection for vertical federated
//! learning.
//!
//! Point it at a CSV or LIBSVM file, describe the consortium, and get the
//! selected sub-consortium plus a cost/accuracy report:
//!
//! ```text
//! vfps --data credit.csv --parties 4 --select 2 --method vfps-sm --model knn
//! vfps --data a9a.libsvm --format libsvm --parties 8 --select 4 --method vfmine
//! vfps --synthetic SUSY --parties 4 --select 2 --method all-methods
//! ```
//!
//! Or run it as a service (`vfps serve`) and submit selections over TCP
//! (`vfps submit`) — repeat requests are served from the artifact cache's
//! warm path:
//!
//! ```text
//! vfps serve --synthetic Bank --parties 4 --addr 127.0.0.1:7878
//! vfps submit --addr 127.0.0.1:7878 --select 2 --seed 42
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use vfps_serve::{Client, Request, Response, SelectRequest, ServeConfig, Server};

use vfps_core::make_selector;
use vfps_core::pipeline::{Method, PipelineConfig};
use vfps_core::selectors::SelectionContext;
use vfps_data::{
    load_csv, load_libsvm, prepared_sized, CsvOptions, Dataset, DatasetSpec, Split,
    VerticalPartition, ZScore,
};
use vfps_ml::mlp::TrainConfig;
use vfps_net::cost::CostModel;
use vfps_vfl::split_train::{train_downstream, Downstream};

#[derive(Debug)]
struct Args {
    data: Option<PathBuf>,
    format: String,
    synthetic: Option<String>,
    parties: usize,
    select: usize,
    method: String,
    model: String,
    knn_k: usize,
    queries: usize,
    seed: u64,
    label_column: i64,
    no_header: bool,
    verbose: bool,
    trace_out: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            data: None,
            format: "csv".into(),
            synthetic: None,
            parties: 4,
            select: 2,
            method: "vfps-sm".into(),
            model: "knn".into(),
            knn_k: 10,
            queries: 32,
            seed: 42,
            label_column: -1,
            no_header: false,
            verbose: false,
            trace_out: None,
            cache_dir: None,
        }
    }
}

/// Parses `flag`'s value, naming both on failure:
/// `bad --parties "abc": invalid digit found in string`.
fn parse_flag<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse().map_err(|e| format!("bad {flag} {raw:?}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--data" => args.data = Some(PathBuf::from(value("--data")?)),
            "--format" => args.format = value("--format")?,
            "--synthetic" => args.synthetic = Some(value("--synthetic")?),
            "--parties" => args.parties = parse_flag("--parties", &value("--parties")?)?,
            "--select" => args.select = parse_flag("--select", &value("--select")?)?,
            "--method" => args.method = value("--method")?.to_lowercase(),
            "--model" => args.model = value("--model")?.to_lowercase(),
            "--k" => args.knn_k = parse_flag("--k", &value("--k")?)?,
            "--queries" => args.queries = parse_flag("--queries", &value("--queries")?)?,
            "--seed" => args.seed = parse_flag("--seed", &value("--seed")?)?,
            "--label-column" => {
                args.label_column = parse_flag("--label-column", &value("--label-column")?)?;
            }
            "--no-header" => args.no_header = true,
            "--verbose" | "-v" => args.verbose = true,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.data.is_none() && args.synthetic.is_none() {
        return Err("one of --data or --synthetic is required".into());
    }
    Ok(args)
}

fn print_help() {
    println!(
        "vfps — participant selection for vertical federated learning\n\n\
         USAGE:\n  vfps --data <file> [options]\n  vfps --synthetic <name> [options]\n\
         \x20 vfps serve [options]    run the selection service (see `vfps serve --help`)\n\
         \x20 vfps submit [options]   submit to a running service (see `vfps submit --help`)\n\
         \x20 vfps party [options]    run one consortium member's feature-column daemon\n\
         \x20                         (see `vfps party --help`)\n\
         \x20 vfps route <action>     control a running vfps-router (see `vfps route --help`)\n\n\
         INPUT:\n\
         \x20 --data <file>          CSV or LIBSVM dataset\n\
         \x20 --format csv|libsvm    input format (default csv)\n\
         \x20 --label-column <i>     CSV label column, negatives from end (default -1)\n\
         \x20 --no-header            CSV has no header row\n\
         \x20 --synthetic <name>     use a synthetic twin (Bank, Credit, Phishing, Web,\n\
         \x20                        Rice, Adult, IJCNN, SUSY, HDI, SD)\n\n\
         SELECTION:\n\
         \x20 --parties <P>          consortium size (default 4)\n\
         \x20 --select <S>           participants to keep (default 2)\n\
         \x20 --method <m>           vfps-sm | vfps-sm-base | random | shapley |\n\
         \x20                        vfmine | all | all-methods (default vfps-sm)\n\
         \x20 --model <m>            downstream task: knn | lr | mlp (default knn)\n\
         \x20 --k <k>                proxy-KNN neighbor count (default 10)\n\
         \x20 --queries <q>          similarity query sample (default 32)\n\
         \x20 --seed <s>             run seed (default 42)\n\
         \x20 --verbose, -v          print the per-party score report\n\n\
         OBSERVABILITY:\n\
         \x20 --trace-out <file>     capture a structured trace of the run (span tree +\n\
         \x20                        metrics) and write it as JSON\n\n\
         CACHING:\n\
         \x20 --cache-dir <dir>      content-addressed selection-artifact cache for the\n\
         \x20                        vfps-sm methods: repeat runs are served warm (no\n\
         \x20                        re-encryption, bit-identical); party churn reuses\n\
         \x20                        the cached similarity matrix"
    );
}

fn method_from(name: &str) -> Result<Method, String> {
    Ok(match name {
        "vfps-sm" => Method::VfpsSm,
        "vfps-sm-base" => Method::VfpsSmBase,
        "random" => Method::Random,
        "shapley" => Method::Shapley,
        "vfmine" | "vf-mine" => Method::VfMine,
        "all" => Method::All,
        other => return Err(format!("unknown method {other}")),
    })
}

fn load(args: &Args) -> Result<(Dataset, Split), String> {
    if let Some(name) = &args.synthetic {
        let spec = DatasetSpec::by_name(name)
            .ok_or_else(|| format!("unknown synthetic dataset {name}"))?;
        return Ok(prepared_sized(&spec, spec.sim_instances, args.seed));
    }
    let path = args.data.as_ref().expect("validated");
    let mut ds = match args.format.as_str() {
        "csv" => {
            let opts = CsvOptions {
                label_column: args.label_column,
                has_header: !args.no_header,
                ..Default::default()
            };
            load_csv(path, &opts).map_err(|e| format!("{e}"))?
        }
        "libsvm" => load_libsvm(path).map_err(|e| format!("{e}"))?,
        other => return Err(format!("unknown format {other}")),
    };
    if ds.len() < 10 {
        return Err(format!("{} rows is too few (need >= 10)", ds.len()));
    }
    let split = Split::paper_split(ds.len(), args.seed);
    let z = ZScore::fit(&ds.x, &split.train);
    z.apply(&mut ds.x);
    Ok((ds, split))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let (ds, split) = load(&args)?;
    if args.parties > ds.n_features() {
        return Err(format!("{} parties but only {} features", args.parties, ds.n_features()));
    }
    if args.select == 0 || args.select > args.parties {
        return Err(format!("--select {} out of range for {} parties", args.select, args.parties));
    }
    let model = match args.model.as_str() {
        "knn" => Downstream::Knn { k: args.knn_k },
        "lr" => Downstream::Lr,
        "mlp" => Downstream::Mlp,
        other => return Err(format!("unknown model {other}")),
    };
    let partition = VerticalPartition::random(ds.n_features(), args.parties, args.seed);
    println!(
        "dataset {} — {} rows, {} features, {} classes; {} parties, selecting {}",
        ds.name,
        ds.len(),
        ds.n_features(),
        ds.n_classes,
        args.parties,
        args.select
    );
    for p in 0..args.parties {
        println!("  party {p}: {} features", partition.columns(p).len());
    }

    let methods: Vec<Method> = if args.method == "all-methods" {
        Method::TABLE_ORDER.to_vec()
    } else {
        vec![method_from(&args.method)?]
    };

    let cfg = PipelineConfig {
        parties: args.parties,
        select: args.select,
        knn_k: args.knn_k,
        query_count: args.queries,
        ..Default::default()
    };
    let cost_model = CostModel::default();
    if args.trace_out.is_some() {
        vfps_obs::start_capture();
    }
    println!(
        "\n{:<14} {:>9} {:>14} {:>14}   chosen",
        "method", "accuracy", "selection (s)", "training (s)"
    );
    let tenant = vfps_core::TenantContext::single(ds.name.as_bytes());
    // Hashed on first use, then shared by every cached method.
    let mut digest = None;
    for method in methods {
        let ctx = SelectionContext {
            ds: &ds,
            split: &split,
            partition: &partition,
            cost_scale: 1.0,
            seed: args.seed,
        };
        let (selection, cache_status) = match (&args.cache_dir, method) {
            (Some(dir), Method::VfpsSm | Method::VfpsSmBase) => {
                let mut sel = vfps_core::selectors::VfpsSmSelector {
                    k: args.knn_k,
                    query_count: args.queries,
                    ..vfps_core::selectors::VfpsSmSelector::default()
                };
                if method == Method::VfpsSmBase {
                    sel = sel.base();
                }
                match vfps_cache::ArtifactCache::open(dir) {
                    Ok(cache) => {
                        let party_set: Vec<usize> = (0..args.parties).collect();
                        let digest = digest
                            .get_or_insert_with(|| vfps_core::TenantDigest::of(&ctx, &tenant));
                        let served = vfps_core::select_with_digest(
                            &cache,
                            digest,
                            &sel,
                            &ctx,
                            &party_set,
                            args.select,
                            &cost_model,
                            &tenant,
                        );
                        if let Some(err) = &served.degraded {
                            eprintln!("warning: cache degraded to cold run: {err}");
                        }
                        (served.selection, Some(served.status.to_string()))
                    }
                    // An unusable cache directory must never fail the run.
                    Err(e) => {
                        eprintln!("warning: cache disabled ({e})");
                        (make_selector(method, &cfg).select(&ctx, args.select), None)
                    }
                }
            }
            _ => (make_selector(method, &cfg).select(&ctx, args.select), None),
        };
        if let Some(status) = &cache_status {
            println!("cache: {status}");
        }
        if args.verbose {
            let names: Vec<String> = (0..args.parties).map(|p| format!("party-{p}")).collect();
            println!(
                "\n{}",
                vfps_core::report::selection_report(&selection, method.name(), &names, &cost_model)
            );
        }
        let chosen = if method == Method::All {
            (0..args.parties).collect()
        } else {
            selection.chosen.clone()
        };
        let report = train_downstream(
            &ds,
            &split,
            &partition,
            &chosen,
            model,
            &TrainConfig::fast(),
            1.0,
            args.seed,
        );
        println!(
            "{:<14} {:>9.4} {:>14.2} {:>14.2}   {:?}",
            method.name(),
            report.accuracy,
            selection.ledger.simulated_seconds(&cost_model),
            report.ledger.simulated_seconds(&cost_model),
            chosen
        );
    }
    if let Some(path) = &args.trace_out {
        let trace = vfps_obs::finish_capture().expect("capture was started");
        std::fs::write(path, trace.to_json())
            .map_err(|e| format!("cannot write trace to {}: {e}", path.display()))?;
        println!(
            "\ntrace: {} spans, {} counters -> {}",
            trace.span_count_total(),
            trace.metrics.counters().len(),
            path.display()
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------
// `vfps serve` — run the selection daemon.
// ---------------------------------------------------------------------

fn run_serve(args: &[String]) -> Result<(), String> {
    let mut cfg = ServeConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--synthetic" => cfg.dataset = value("--synthetic")?,
            "--instances" => cfg.instances = parse_flag("--instances", &value("--instances")?)?,
            "--parties" => cfg.parties = parse_flag("--parties", &value("--parties")?)?,
            "--seed" => cfg.data_seed = parse_flag("--seed", &value("--seed")?)?,
            "--max-concurrent" => {
                cfg.max_concurrent = parse_flag("--max-concurrent", &value("--max-concurrent")?)?;
            }
            "--queue-capacity" => {
                cfg.queue_capacity = parse_flag("--queue-capacity", &value("--queue-capacity")?)?;
            }
            "--max-tenants" => {
                cfg.max_tenants = parse_flag("--max-tenants", &value("--max-tenants")?)?;
            }
            "--deadline-ms" => {
                cfg.default_deadline =
                    Duration::from_millis(parse_flag("--deadline-ms", &value("--deadline-ms")?)?);
            }
            "--cache-dir" => cfg.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--trace-out" => cfg.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--once" => cfg.once = true,
            "--help" | "-h" => {
                print_serve_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown serve argument {other}")),
        }
    }
    let server = Server::bind(&cfg).map_err(|e| e.to_string())?;
    server.run().map_err(|e| e.to_string())?;
    Ok(())
}

fn print_serve_help() {
    println!(
        "vfps serve — run the selection service\n\n\
         USAGE:\n  vfps serve [options]\n\n\
         \x20 --addr <host:port>     bind address (default 127.0.0.1:0, port 0 = free port;\n\
         \x20                        the chosen address is printed as `listening on ...`)\n\
         \x20 --synthetic <name>     default dataset tenant (default Bank); requests may\n\
         \x20                        name any catalog dataset via `vfps submit --dataset`,\n\
         \x20                        materialized lazily on first use\n\
         \x20 --instances <n>        dataset rows (default: the spec's simulation size)\n\
         \x20 --parties <P>          partition size (default 4)\n\
         \x20 --seed <s>             dataset + partition seed (default 42); a request with\n\
         \x20                        the same seed is bit-identical to `vfps --seed <s>`\n\
         \x20 --max-tenants <n>      dataset worlds kept resident at once (default 4);\n\
         \x20                        the least-recently-used world beyond it is evicted\n\
         \x20 --max-concurrent <n>   selection jobs running at once (default 2)\n\
         \x20 --queue-capacity <n>   admission queue depth; beyond it submits get Busy\n\
         \x20                        (default 8)\n\
         \x20 --deadline-ms <ms>     default per-request deadline (default 30000)\n\
         \x20 --cache-dir <dir>      artifact cache (default: per-process scratch dir)\n\
         \x20 --trace-out <file>     write the span/metrics trace as JSON on drain\n\
         \x20 --once                 serve one selection, then drain and exit"
    );
}

// ---------------------------------------------------------------------
// `vfps party` — run one consortium member's feature-column daemon.
// ---------------------------------------------------------------------

fn run_party(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:0".to_owned();
    let mut dataset = "Bank".to_owned();
    let mut instances = 0usize;
    let mut parties = 4usize;
    let mut seed = 42u64;
    let mut party_id: Option<usize> = None;
    let mut max_sessions: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr")?,
            "--synthetic" => dataset = value("--synthetic")?,
            "--instances" => instances = parse_flag("--instances", &value("--instances")?)?,
            "--parties" => parties = parse_flag("--parties", &value("--parties")?)?,
            "--seed" => seed = parse_flag("--seed", &value("--seed")?)?,
            "--party-id" => party_id = Some(parse_flag("--party-id", &value("--party-id")?)?),
            "--max-sessions" => {
                max_sessions = Some(parse_flag("--max-sessions", &value("--max-sessions")?)?);
            }
            "--help" | "-h" => {
                print_party_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown party argument {other}")),
        }
    }
    let party_id = party_id.ok_or("--party-id is required")?;
    if parties == 0 || party_id >= parties {
        return Err(format!("--party-id {party_id} out of range for {parties} parties"));
    }
    // The daemon derives its dataset world exactly as a coordinator (or a
    // direct `vfps --synthetic` run) with the same flags does — that shared
    // derivation is what makes a cluster run bit-identical to the sim.
    let spec = DatasetSpec::by_name(&dataset)
        .ok_or_else(|| format!("unknown synthetic dataset {dataset}"))?;
    let rows = if instances == 0 { spec.sim_instances } else { instances };
    let (ds, _split) = prepared_sized(&spec, rows, seed);
    if parties > ds.n_features() {
        return Err(format!("{parties} parties but only {} features", ds.n_features()));
    }
    let partition = VerticalPartition::random(ds.n_features(), parties, seed);
    let cfg =
        vfps_cluster::PartyConfig { max_sessions, ..vfps_cluster::PartyConfig::new(party_id) };

    let listener =
        std::net::TcpListener::bind(&addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| format!("{e}"))?;
    println!(
        "vfps-party {party_id} listening on {local} ({} rows, {} features, {} local columns)",
        ds.len(),
        ds.n_features(),
        partition.columns(party_id).len()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let report =
        vfps_cluster::serve_party(&listener, &ds.x, &partition, &cfg).map_err(|e| e.to_string())?;
    println!("vfps-party {party_id} done: {} sessions, killed {}", report.sessions, report.killed);
    Ok(())
}

fn print_party_help() {
    println!(
        "vfps party — run one consortium member's feature-column daemon\n\n\
         USAGE:\n  vfps party --party-id <p> [options]\n\n\
         \x20 --party-id <p>         which consortium slot this daemon holds (required)\n\
         \x20 --addr <host:port>     bind address (default 127.0.0.1:0, port 0 = free port;\n\
         \x20                        the chosen address is printed as `listening on ...`)\n\
         \x20 --synthetic <name>     dataset world (default Bank) — must match the\n\
         \x20                        coordinator's flags exactly\n\
         \x20 --instances <n>        dataset rows (default: the spec's simulation size)\n\
         \x20 --parties <P>          partition size (default 4)\n\
         \x20 --seed <s>             dataset + partition seed (default 42)\n\
         \x20 --max-sessions <n>     serve n protocol sessions, then exit (default: forever)\n\n\
         The daemon holds only its slot's feature columns during the protocol;\n\
         raw features never cross the wire — only encrypted partial distances\n\
         and candidate pseudo-IDs (run it once per party, then drive the\n\
         consortium with the library's vfps_cluster::run_cluster_knn)."
    );
}

// ---------------------------------------------------------------------
// `vfps submit` — send one request to a running daemon.
// ---------------------------------------------------------------------

struct SubmitArgs {
    addr: String,
    req: SelectRequest,
    parties: usize,
    party_set: Option<Vec<usize>>,
    ping: bool,
    shutdown: bool,
    list_datasets: bool,
}

fn run_submit(args: &[String]) -> Result<(), String> {
    let mut sub = SubmitArgs {
        addr: String::new(),
        req: SelectRequest {
            request_id: 1,
            dataset: String::new(),
            party_set: Vec::new(),
            select: 2,
            k: 10,
            query_count: 32,
            mode: 1,
            seed: 42,
            deadline_ms: 0,
            maximizer: 0,
        },
        parties: 4,
        party_set: None,
        ping: false,
        shutdown: false,
        list_datasets: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--addr" => sub.addr = value("--addr")?,
            "--dataset" => sub.req.dataset = value("--dataset")?,
            "--id" => sub.req.request_id = parse_flag("--id", &value("--id")?)?,
            "--parties" => sub.parties = parse_flag("--parties", &value("--parties")?)?,
            "--party-set" => {
                let raw = value("--party-set")?;
                let set: Result<Vec<usize>, _> =
                    raw.split(',').map(str::trim).map(str::parse).collect();
                sub.party_set = Some(set.map_err(|e| format!("bad --party-set {raw:?}: {e}"))?);
            }
            "--select" => sub.req.select = parse_flag("--select", &value("--select")?)?,
            "--k" => sub.req.k = parse_flag("--k", &value("--k")?)?,
            "--queries" => sub.req.query_count = parse_flag("--queries", &value("--queries")?)?,
            "--mode" => {
                sub.req.mode = match value("--mode")?.to_lowercase().as_str() {
                    "base" => 0,
                    "fagin" => 1,
                    "threshold" | "ta" => 2,
                    "nra" => 3,
                    other => return Err(format!("unknown mode {other}")),
                };
            }
            "--maximizer" => {
                sub.req.maximizer = match value("--maximizer")?.to_lowercase().as_str() {
                    "greedy" => 0,
                    "lazy" => 1,
                    "stochastic" => 2,
                    "sieve" => 3,
                    other => return Err(format!("unknown maximizer {other}")),
                };
            }
            "--seed" => sub.req.seed = parse_flag("--seed", &value("--seed")?)?,
            "--deadline-ms" => {
                sub.req.deadline_ms = parse_flag("--deadline-ms", &value("--deadline-ms")?)?;
            }
            "--ping" => sub.ping = true,
            "--shutdown" => sub.shutdown = true,
            "--list-datasets" => sub.list_datasets = true,
            "--help" | "-h" => {
                print_submit_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown submit argument {other}")),
        }
    }
    if sub.addr.is_empty() {
        return Err("--addr is required".into());
    }
    sub.req.party_set = sub.party_set.clone().unwrap_or_else(|| (0..sub.parties).collect());

    let mut client = Client::connect(&sub.addr).map_err(|e| e.to_string())?;
    client.set_read_timeout(Some(Duration::from_secs(120))).map_err(|e| e.to_string())?;
    if sub.ping {
        let version = client.ping().map_err(|e| e.to_string())?;
        println!("pong: protocol version {version}");
        return Ok(());
    }
    if sub.list_datasets {
        let (default_dataset, max_resident, tenants) =
            client.list_datasets().map_err(|e| e.to_string())?;
        println!("datasets: default {default_dataset}, max resident {max_resident}");
        for t in tenants {
            println!(
                "  {} [{}]: accepted {} completed {} failed {} rejected {} in-flight {} cache-hits {}",
                t.dataset,
                if t.resident { "resident" } else { "evicted" },
                t.accepted,
                t.completed,
                t.failed,
                t.rejected,
                t.in_flight,
                t.cache_hits
            );
        }
        return Ok(());
    }
    if sub.shutdown {
        let report = client.shutdown().map_err(|e| e.to_string())?;
        println!(
            "draining: accepted {} completed {} failed {} rejected {} in-flight {} cache-hits {}",
            report.accepted,
            report.completed,
            report.failed,
            report.rejected,
            report.in_flight,
            report.cache_hits
        );
        return Ok(());
    }
    match client.roundtrip(&Request::Select(sub.req.clone())).map_err(|e| e.to_string())? {
        Response::Selected(reply) => {
            println!(
                "reply {}: cache={} enc={} hits={} misses={} queue_us={} run_us={} \
                 random_accesses={}",
                reply.request_id,
                reply.cache_status,
                reply.enc_instances,
                reply.cache_hits,
                reply.cache_misses,
                reply.queue_us,
                reply.run_us,
                reply.random_accesses
            );
            println!("chosen: {:?}", reply.chosen);
            println!(
                "scores: [{}]",
                reply.scores.iter().map(|s| format!("{s:.6}")).collect::<Vec<_>>().join(", ")
            );
            Ok(())
        }
        Response::Busy { queue_depth, capacity, .. } => {
            Err(format!("busy: queue {queue_depth}/{capacity} — retry later"))
        }
        Response::TimedOut { waited_ms, .. } => Err(format!("timed out after {waited_ms} ms")),
        Response::Rejected { reason, .. } => Err(format!("rejected: {reason}")),
        other => Err(format!("unexpected response {other:?}")),
    }
}

// ---------------------------------------------------------------------
// `vfps route` — control a running vfps-router.
// ---------------------------------------------------------------------

fn run_route(args: &[String]) -> Result<(), String> {
    let mut addr = String::new();
    let mut action: Option<String> = None;
    let mut drain_target: Option<String> = None;
    let mut add_target: Option<(String, String)> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                addr = it.next().cloned().ok_or("--addr needs a value")?;
            }
            "--help" | "-h" => {
                print_route_help();
                std::process::exit(0);
            }
            "status" if action.is_none() => action = Some("status".into()),
            "drain" if action.is_none() => {
                action = Some("drain".into());
                drain_target = Some(it.next().cloned().ok_or("drain needs a backend name")?);
            }
            "add" if action.is_none() => {
                action = Some("add".into());
                let spec = it.next().cloned().ok_or("add needs <name>=<host:port>")?;
                let (name, backend_addr) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("add target {spec:?} must be <name>=<host:port>"))?;
                add_target = Some((name.to_owned(), backend_addr.to_owned()));
            }
            other => return Err(format!("unknown route argument {other}")),
        }
    }
    let action =
        action.ok_or("route needs an action: status | drain <backend> | add <name>=<addr>")?;
    if addr.is_empty() {
        return Err("--addr is required".into());
    }
    let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
    client.set_read_timeout(Some(Duration::from_secs(120))).map_err(|e| e.to_string())?;
    let status = match action.as_str() {
        "status" => client.router_status().map_err(|e| e.to_string())?,
        "drain" => {
            let target = drain_target.expect("parsed with the action");
            let status = client.router_drain(&target).map_err(|e| e.to_string())?;
            println!("drained {target} out of the ring (in-flight replies still delivered)");
            status
        }
        "add" => {
            let (name, backend_addr) = add_target.expect("parsed with the action");
            let status = client.router_add(&name, &backend_addr).map_err(|e| e.to_string())?;
            println!("added {name} @ {backend_addr} to the ring (~1/N of tenants re-home)");
            status
        }
        _ => unreachable!("actions are matched above"),
    };
    println!(
        "router: ring seed {} with {} vnodes/backend over {} backends",
        status.ring_seed,
        status.vnodes_per_backend,
        status.backends.len()
    );
    for b in &status.backends {
        println!(
            "  {} @ {} [{}]: vnodes {} routed {} relay-errors {}",
            b.name,
            b.addr,
            vfps_serve::health_state_name(b.state),
            b.vnodes,
            b.routed,
            b.relay_errors
        );
    }
    Ok(())
}

fn print_route_help() {
    println!(
        "vfps route — control a running vfps-router\n\n\
         USAGE:\n  vfps route status --addr <host:port>\n\
         \x20 vfps route drain <backend> --addr <host:port>\n\
         \x20 vfps route add <name>=<host:port> --addr <host:port>\n\n\
         \x20 status                 print the ring and each backend's health,\n\
         \x20                        routed-request count, and relay errors\n\
         \x20 drain <backend>        remove the named backend from the ring; requests\n\
         \x20                        already relayed to it still complete, new ones\n\
         \x20                        route to the surviving backends\n\
         \x20 add <name>=<addr>      join a backend to the ring live; only ~1/N of\n\
         \x20                        the tenant keyspace re-homes to the newcomer\n\
         \x20 --addr <host:port>     the router's address (required)\n\n\
         Pointing `vfps route` at a plain daemon fails with a typed\n\
         'not a router' rejection."
    );
}

fn print_submit_help() {
    println!(
        "vfps submit — send one selection request to a running `vfps serve`\n\n\
         USAGE:\n  vfps submit --addr <host:port> [options]\n\n\
         \x20 --addr <host:port>     server address (required)\n\
         \x20 --dataset <name>       dataset tenant to select under (default: the\n\
         \x20                        server's default dataset)\n\
         \x20 --id <n>               request correlation id (default 1)\n\
         \x20 --parties <P>          shorthand for --party-set 0,1,...,P-1 (default 4)\n\
         \x20 --party-set <a,b,...>  explicit consortium to select from\n\
         \x20 --select <S>           participants to keep (default 2)\n\
         \x20 --k <k>                proxy-KNN neighbor count (default 10)\n\
         \x20 --queries <q>          similarity query sample (default 32)\n\
         \x20 --mode base|fagin|threshold|nra   federated KNN variant (default fagin;\n\
         \x20                        nra is sorted-access-only with counted random\n\
         \x20                        accesses in the reply)\n\
         \x20 --maximizer greedy|lazy|stochastic|sieve   submodular maximizer\n\
         \x20                        (default greedy; stochastic/sieve are sublinear)\n\
         \x20 --seed <s>             run seed (default 42)\n\
         \x20 --deadline-ms <ms>     per-request deadline (0 = server default)\n\
         \x20 --ping                 liveness probe instead of a selection\n\
         \x20 --list-datasets        print the server's tenants and their accounting\n\
         \x20 --shutdown             ask the server to drain and stop"
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("serve") => run_serve(&argv[1..]),
        Some("submit") => run_submit(&argv[1..]),
        Some("route") => run_route(&argv[1..]),
        Some("party") => run_party(&argv[1..]),
        _ => run(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `vfps --help` for usage");
            ExitCode::from(2)
        }
    }
}
