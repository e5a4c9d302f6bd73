//! `vfps-router` — the consistent-hash routing tier over N `vfps-serve`
//! daemons.
//!
//! ```text
//! vfps-router --addr 127.0.0.1:7900 \
//!     --backend b0=127.0.0.1:7878 --backend b1=127.0.0.1:7879
//! ```
//!
//! Clients then point `vfps submit` (or any protocol client) at the
//! router's address unchanged; `vfps route status|drain` controls the
//! ring at runtime.

use std::process::ExitCode;
use std::time::Duration;

use vfps_router::{Router, RouterConfig};
use vfps_serve::flags::Flags;

fn parse_args(args: &[String]) -> Result<RouterConfig, String> {
    let mut cfg = RouterConfig::default();
    let mut flags = Flags::new(args.to_vec());
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            "--addr" => cfg.addr = flags.value()?,
            "--backend" => {
                let spec = flags.value()?;
                let (name, addr) = spec
                    .split_once('=')
                    .filter(|(name, addr)| !name.is_empty() && !addr.is_empty())
                    .ok_or_else(|| format!("--backend wants name=host:port, got {spec:?}"))?;
                cfg.backends.push((name.to_owned(), addr.to_owned()));
            }
            "--ring-seed" => cfg.ring_seed = flags.parse()?,
            "--vnodes" => cfg.vnodes = flags.parse()?,
            "--health-interval-ms" => cfg.health_interval = Duration::from_millis(flags.parse()?),
            "--health-timeout-ms" => cfg.health_timeout = Duration::from_millis(flags.parse()?),
            "--trace-out" => cfg.trace_out = Some(flags.value()?.into()),
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cfg)
}

fn print_help() {
    println!(
        "vfps-router — consistent-hash routing tier over N vfps-serve daemons\n\n\
         USAGE:\n  vfps-router --addr <host:port> --backend <name=host:port> [--backend ...]\n\n\
         \x20 --addr <host:port>            address to bind (default 127.0.0.1:0)\n\
         \x20 --backend <name=host:port>    a backend daemon; repeatable, at least one.\n\
         \x20                               The name is the ring identity — keep it\n\
         \x20                               stable across restarts to keep tenant\n\
         \x20                               placement stable\n\
         \x20 --ring-seed <u64>             consistent-hash seed (default pinned)\n\
         \x20 --vnodes <n>                  virtual nodes per backend (default 64)\n\
         \x20 --health-interval-ms <ms>     ping cadence (default 500)\n\
         \x20 --health-timeout-ms <ms>      per-probe deadline (default 250)\n\
         \x20 --trace-out <path>            write a structured trace on drain\n\n\
         Control a running router with `vfps route status|drain --addr <router>`.\n\
         A client `Shutdown` through the router drains every backend and merges\n\
         their final accounting."
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&argv) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("error: {msg}\nrun vfps-router --help for usage");
            return ExitCode::from(2);
        }
    };
    let router = match Router::bind(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match router.run() {
        Ok(_report) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
