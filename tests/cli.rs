//! End-user CLI tests: drive the `vfps` binary the way a downstream user
//! would.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};

fn vfps() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vfps"))
}

/// Spawns `vfps serve` with piped stdout, parses the `listening on` line
/// for the bound address, and arms a kill-after-timeout watchdog so a
/// wedged daemon can never hang the suite.
fn spawn_serve(extra: &[&str]) -> (Child, BufReader<std::process::ChildStdout>, String) {
    let mut args = vec![
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--synthetic",
        "Rice",
        "--parties",
        "4",
        "--seed",
        "42",
    ];
    args.extend_from_slice(extra);
    let mut child = vfps()
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("serve spawns");
    let pid = child.id();
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs(120));
        let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
    });
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("listening line");
    let addr = line
        .trim()
        .strip_prefix("vfps-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
        .to_owned();
    (child, reader, addr)
}

/// The trailing `[..]` chosen set on a direct run's VFPS-SM result row.
fn direct_chosen(stdout: &str) -> String {
    let row = stdout.lines().find(|l| l.starts_with("VFPS-SM")).expect("result row").to_owned();
    row[row.find('[').expect("chosen set")..].to_owned()
}

#[test]
fn synthetic_run_prints_selection() {
    let out = vfps()
        .args([
            "--synthetic",
            "Rice",
            "--parties",
            "4",
            "--select",
            "2",
            "--method",
            "vfps-sm",
            "--model",
            "knn",
            "--queries",
            "8",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VFPS-SM"), "{stdout}");
    assert!(stdout.contains("accuracy"), "{stdout}");
    assert!(stdout.contains("4 parties, selecting 2"), "{stdout}");
}

#[test]
fn csv_input_round_trips() {
    let dir = std::env::temp_dir().join("vfps_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("toy.csv");
    let mut csv = String::from("a,b,c,d,y\n");
    for i in 0..80 {
        let y = i % 2;
        let mu = if y == 0 { -2.0 } else { 2.0 };
        let wobble = (i as f64 * 0.618).fract();
        csv.push_str(&format!(
            "{},{},{},{},{y}\n",
            mu + wobble,
            mu - wobble,
            wobble,
            mu * 0.5 + wobble,
        ));
    }
    std::fs::write(&path, csv).unwrap();
    let out = vfps()
        .args([
            "--data",
            path.to_str().unwrap(),
            "--parties",
            "2",
            "--select",
            "1",
            "--method",
            "random",
            "--queries",
            "4",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("80 rows, 4 features"), "{stdout}");
    assert!(stdout.contains("RANDOM"), "{stdout}");
}

#[test]
fn trace_out_writes_span_tree_json() {
    let dir = std::env::temp_dir().join("vfps_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.json");
    let out = vfps()
        .args([
            "--synthetic",
            "Rice",
            "--parties",
            "4",
            "--select",
            "2",
            "--method",
            "vfps-sm",
            "--queries",
            "8",
            "--trace-out",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("trace:"), "{stdout}");
    let json = std::fs::read_to_string(&path).expect("trace file exists");
    for needle in [
        "\"wall_us\"",
        "\"spans\"",
        "\"select.vfps_sm\"",
        "\"fed_knn.query\"",
        "\"counters\"",
        "fed_knn.fagin.enc_instances",
    ] {
        assert!(json.contains(needle), "trace JSON missing {needle}");
    }
}

#[test]
fn cache_dir_serves_the_second_run_warm() {
    let dir = std::env::temp_dir().join(format!("vfps_cli_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = || {
        let out = vfps()
            .args([
                "--synthetic",
                "Rice",
                "--parties",
                "4",
                "--select",
                "2",
                "--method",
                "vfps-sm",
                "--queries",
                "8",
                "--cache-dir",
                dir.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let cold = run();
    assert!(cold.contains("cache: cold"), "{cold}");
    let warm = run();
    assert!(warm.contains("cache: warm"), "{warm}");
    // Warm serving must reproduce the cold selection: the printed chosen
    // set (the trailing `[..]` on the VFPS-SM row) is identical.
    let chosen = |s: &str| -> String {
        let row = s.lines().find(|l| l.starts_with("VFPS-SM")).expect("result row").to_owned();
        row[row.find('[').expect("chosen set")..].to_owned()
    };
    assert_eq!(chosen(&cold), chosen(&warm));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_once_answers_a_submit_with_the_direct_runs_selection_then_drains() {
    // `--once`: serve exactly one selection, then drain and exit. The
    // server's dataset sizing matches the plain CLI's (`spec
    // sim_instances`, seed 42), so the reply must carry the same chosen
    // set a direct run prints.
    let (mut child, mut reader, addr) = spawn_serve(&["--once"]);

    let out = vfps()
        .args([
            "submit",
            "--addr",
            &addr,
            "--parties",
            "4",
            "--select",
            "2",
            "--queries",
            "8",
            "--seed",
            "42",
        ])
        .output()
        .expect("submit runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let reply = String::from_utf8_lossy(&out.stdout).into_owned();
    // The wire roundtrip surfaced a full typed reply.
    assert!(reply.contains("reply 1: cache=cold"), "{reply}");
    assert!(reply.contains("chosen: ["), "{reply}");
    assert!(reply.contains("scores: ["), "{reply}");
    let served_chosen =
        reply.lines().find_map(|l| l.strip_prefix("chosen: ")).expect("chosen line").to_owned();

    // The daemon drained itself after the single request.
    let status = child.wait().expect("serve exits after --once");
    assert!(status.success(), "serve exit: {status:?}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain summary");
    assert!(rest.contains("drain clean:"), "{rest}");
    assert!(rest.contains("in-flight 0"), "{rest}");
    assert!(rest.contains("completed 1"), "{rest}");

    // Bit-identity pin: the same inputs through the plain CLI (no
    // service) choose the same participants.
    let direct = vfps()
        .args([
            "--synthetic",
            "Rice",
            "--parties",
            "4",
            "--select",
            "2",
            "--method",
            "vfps-sm",
            "--queries",
            "8",
            "--seed",
            "42",
        ])
        .output()
        .expect("direct run");
    assert!(direct.status.success());
    assert_eq!(
        served_chosen,
        direct_chosen(&String::from_utf8_lossy(&direct.stdout)),
        "served selection must match the direct pipeline run"
    );
}

#[test]
fn submit_ping_and_shutdown_drain_a_persistent_server() {
    let (mut child, mut reader, addr) =
        spawn_serve(&["--queue-capacity", "2", "--max-tenants", "2"]);

    let ping = vfps().args(["submit", "--addr", &addr, "--ping"]).output().expect("ping runs");
    assert!(ping.status.success(), "stderr: {}", String::from_utf8_lossy(&ping.stderr));
    assert!(
        String::from_utf8_lossy(&ping.stdout).contains("pong: protocol version 2"),
        "{}",
        String::from_utf8_lossy(&ping.stdout)
    );

    // A second tenant on the same daemon: the server's default world is
    // Rice; submit against Bank by tag.
    let bank = vfps()
        .args([
            "submit",
            "--addr",
            &addr,
            "--dataset",
            "Bank",
            "--parties",
            "4",
            "--select",
            "2",
            "--queries",
            "8",
            "--seed",
            "42",
        ])
        .output()
        .expect("submit runs");
    assert!(bank.status.success(), "stderr: {}", String::from_utf8_lossy(&bank.stderr));
    let reply = String::from_utf8_lossy(&bank.stdout);
    assert!(reply.contains("reply 1: cache=cold"), "{reply}");

    // Per-tenant accounting is visible over the wire.
    let list =
        vfps().args(["submit", "--addr", &addr, "--list-datasets"]).output().expect("list runs");
    assert!(list.status.success(), "stderr: {}", String::from_utf8_lossy(&list.stderr));
    let listing = String::from_utf8_lossy(&list.stdout);
    assert!(listing.contains("default Rice"), "{listing}");
    assert!(listing.contains("Rice [resident]"), "{listing}");
    assert!(listing.contains("Bank [resident]"), "{listing}");
    let bank_row = listing.lines().find(|l| l.trim_start().starts_with("Bank ")).unwrap();
    assert!(bank_row.contains("completed 1"), "{bank_row}");

    let down =
        vfps().args(["submit", "--addr", &addr, "--shutdown"]).output().expect("shutdown runs");
    assert!(down.status.success(), "stderr: {}", String::from_utf8_lossy(&down.stderr));
    let summary = String::from_utf8_lossy(&down.stdout).into_owned();
    assert!(summary.contains("draining:"), "{summary}");
    assert!(summary.contains("in-flight 0"), "{summary}");

    let status = child.wait().expect("serve exits after shutdown");
    assert!(status.success(), "serve exit: {status:?}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain summary");
    assert!(rest.contains("drain clean:"), "{rest}");
}

/// Submits one selection (Rice, 4 parties, select 2, 8 queries, seed 42,
/// plus `extra`) and returns the reply's cache status and chosen line.
fn submit_select(addr: &str, extra: &[&str]) -> (String, String) {
    let out = vfps()
        .args(["submit", "--addr", addr, "--select", "2", "--queries", "8", "--seed", "42"])
        .args(extra)
        .output()
        .expect("submit runs");
    assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
    let reply = String::from_utf8_lossy(&out.stdout).into_owned();
    let status = reply.split("cache=").nth(1).and_then(|r| r.split_whitespace().next());
    let chosen = reply.lines().find_map(|l| l.strip_prefix("chosen: "));
    (status.expect("cache status").to_owned(), chosen.expect("chosen line").to_owned())
}

/// Stops a daemon `spawn_serve` started and checks it drained clean.
fn shutdown_serve(addr: &str, mut child: Child, mut reader: BufReader<std::process::ChildStdout>) {
    let down = vfps().args(["submit", "--addr", addr, "--shutdown"]).output().expect("shutdown");
    assert!(down.status.success(), "stderr: {}", String::from_utf8_lossy(&down.stderr));
    assert!(child.wait().expect("serve exits").success());
    let mut rest = String::new();
    reader.read_to_string(&mut rest).expect("drain summary");
    assert!(rest.contains("drain clean:"), "{rest}");
}

/// `--maximizer lazy` names the default's selection, so it is served warm
/// from the default request's entry; `stochastic` has its own.
#[test]
fn submit_serves_every_accepted_maximizer_name() {
    let (child, reader, addr) = spawn_serve(&[]);
    let (status, default_chosen) = submit_select(&addr, &[]);
    assert_eq!(status, "cold");
    assert_eq!(submit_select(&addr, &["--maximizer", "lazy"]), ("warm".into(), default_chosen));
    assert_eq!(submit_select(&addr, &["--maximizer", "stochastic"]).0, "cold");
    shutdown_serve(&addr, child, reader);
}

/// Both accepted mode names serve the same selection; names are read
/// case-blind, so `FAGIN` is served warm from `fagin`'s entry.
#[test]
fn submit_serves_every_accepted_mode_name() {
    let (child, reader, addr) = spawn_serve(&[]);
    let (_, fagin) = submit_select(&addr, &["--mode", "fagin"]);
    assert_eq!(submit_select(&addr, &["--mode", "base"]), ("cold".into(), fagin.clone()));
    assert_eq!(submit_select(&addr, &["--mode", "FAGIN"]), ("warm".into(), fagin));
    shutdown_serve(&addr, child, reader);
}

#[test]
fn submit_against_a_dead_server_fails_cleanly() {
    // Port 1 is never listening; the client must error, not hang.
    let out =
        vfps().args(["submit", "--addr", "127.0.0.1:1", "--ping"]).output().expect("submit runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error:"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_arguments_fail_cleanly() {
    // Unknown method.
    let out =
        vfps().args(["--synthetic", "Rice", "--method", "magic"]).output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown method"));

    // Missing input entirely.
    let out = vfps().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--data or --synthetic"));

    // Selecting more than the consortium holds.
    let out = vfps()
        .args(["--synthetic", "Rice", "--parties", "2", "--select", "5"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));

    // A value that does not parse is refused with its flag named.
    let out =
        vfps().args(["--synthetic", "Rice", "--parties", "abc"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--parties"), "{stderr}");
}

/// Runs `vfps submit <args>` against a port nothing listens on and
/// returns its exit code and stderr: argument errors surface before any
/// connection is tried.
fn submit(args: &[&str]) -> (Option<i32>, String) {
    let out =
        vfps().args(["submit", "--addr", "127.0.0.1:1"]).args(args).output().expect("submit runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn submit_refuses_the_retired_maximizer_names_and_names_the_accepted_ones() {
    for name in ["greedy", "sieve"] {
        let (code, stderr) = submit(&["--maximizer", name]);
        assert_eq!(code, Some(2), "{name}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown maximizer {name} (accepted: lazy, stochastic)")),
            "{stderr}"
        );
    }
}

#[test]
fn submit_refuses_the_retired_nra_mode_and_names_the_accepted_ones() {
    for name in ["nra", "threshold", "ta"] {
        let (code, stderr) = submit(&["--mode", name]);
        assert_eq!(code, Some(2), "{stderr}");
        assert!(
            stderr.contains(&format!("unknown mode {name} (accepted: base, fagin)")),
            "{stderr}"
        );
    }
}

#[test]
fn help_lists_every_method() {
    let out = vfps().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "vfps-sm",
        "shapley",
        "vfmine",
        "random",
        "libsvm",
        "vfps serve",
        "vfps submit",
        "vfps party",
        "vfps route",
    ] {
        assert!(stdout.contains(needle), "help missing {needle}");
    }
}

/// Runs `vfps route <args>` and returns its exit code and stderr.
fn route(args: &[&str]) -> (Option<i32>, String) {
    let out = vfps().arg("route").args(args).output().expect("route runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn route_status_against_a_plain_daemon_is_refused_as_not_a_router() {
    let (mut child, _reader, addr) = spawn_serve(&[]);
    let (code, stderr) = route(&["status", "--addr", &addr]);
    let _ = child.kill();
    let _ = child.wait();
    assert_ne!(code, Some(0), "{stderr}");
    assert!(stderr.contains("not a router"), "{stderr}");
}

#[test]
fn route_refuses_an_incomplete_command_with_its_reason() {
    for (args, reason) in [
        (&["--addr", "127.0.0.1:1"][..], "route needs an action"),
        (&["drain"][..], "drain needs a backend name"),
        (&["add", "b2"][..], "must be <name>=<host:port>"),
    ] {
        let (code, stderr) = route(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(reason), "{args:?}: {stderr}");
    }
}

#[test]
fn route_help_lists_every_action() {
    let out = vfps().args(["route", "--help"]).output().expect("route runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["route status", "route drain <backend>", "route add <name>=", "not a router"] {
        assert!(stdout.contains(needle), "route help missing {needle}: {stdout}");
    }
}

/// Runs `vfps <args>`, expecting the argument refusal: exit 2, and the
/// stderr line `error: <reason>` exactly.
fn refused_with(args: &[&str], reason: &str) {
    let out = vfps().args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().next(), Some(format!("error: {reason}").as_str()), "{args:?}");
}

#[test]
fn every_subcommand_names_a_flag_missing_its_value() {
    refused_with(&["--synthetic"], "--synthetic needs a value");
    refused_with(&["serve", "--cache-dir"], "--cache-dir needs a value");
    refused_with(&["party", "--party-id"], "--party-id needs a value");
    refused_with(&["submit", "--mode"], "--mode needs a value");
    refused_with(&["route", "--addr"], "--addr needs a value");
    refused_with(&["route", "add"], "add needs <name>=<host:port>");
}

#[test]
fn every_subcommand_names_an_unparsable_value_with_its_flag() {
    let digit = "invalid digit found in string";
    refused_with(&["--k", "ten"], &format!("bad --k \"ten\": {digit}"));
    refused_with(&["serve", "--deadline-ms", "-1"], &format!("bad --deadline-ms \"-1\": {digit}"));
    refused_with(&["party", "--seed", "x"], &format!("bad --seed \"x\": {digit}"));
    refused_with(&["submit", "--party-set", "0,a"], &format!("bad --party-set \"0,a\": {digit}"));
}

#[test]
fn every_subcommand_names_an_unknown_argument() {
    refused_with(&["--bogus"], "unknown argument --bogus");
    refused_with(&["serve", "--bogus"], "unknown serve argument --bogus");
    refused_with(&["party", "--bogus"], "unknown party argument --bogus");
    refused_with(&["submit", "--bogus"], "unknown submit argument --bogus");
    refused_with(&["route", "--bogus"], "unknown route argument --bogus");
}

#[test]
fn party_refuses_a_missing_or_out_of_range_slot() {
    refused_with(&["party"], "--party-id is required");
    refused_with(&["party", "--party-id", "4"], "--party-id 4 out of range for 4 parties");
    refused_with(
        &["party", "--party-id", "0", "--parties", "0"],
        "--party-id 0 out of range for 0 parties",
    );
}

/// The daemon builds its world from its flags before it binds, so a
/// world it cannot build is refused up front.
#[test]
fn party_refuses_a_world_it_cannot_build() {
    refused_with(
        &["party", "--party-id", "0", "--synthetic", "Nope"],
        "unknown synthetic dataset Nope",
    );
    refused_with(
        &[
            "party",
            "--party-id",
            "0",
            "--parties",
            "40",
            "--synthetic",
            "Rice",
            "--instances",
            "50",
        ],
        "40 parties but only 10 features",
    );
}

#[test]
fn submit_without_an_address_is_refused() {
    refused_with(&["submit", "--select", "2"], "--addr is required");
}

/// A daemon that could run no job, or admit none, is refused at bind
/// with a typed config error, not a panic.
#[test]
fn serve_refuses_a_config_it_cannot_run() {
    refused_with(
        &["serve", "--max-concurrent", "0"],
        "config error: max_concurrent must be positive",
    );
    refused_with(
        &["serve", "--queue-capacity", "0"],
        "config error: queue_capacity must be positive",
    );
}
