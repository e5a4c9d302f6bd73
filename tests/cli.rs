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
