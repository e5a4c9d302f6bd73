//! The `vfps-router` binary's argument contract: a value it cannot parse
//! is refused before anything binds, with exit status 2 and the flag named
//! on stderr — the same contract as `vfps` and `experiments`.

use std::process::Command;

#[test]
fn unparsable_flag_value_exits_2_and_names_the_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_vfps-router"))
        .args(["--vnodes", "x"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --vnodes \"x\""), "{stderr}");
}

/// Runs `vfps-router <args>`, expecting the argument refusal: exit 2, and
/// the stderr line `error: <reason>` exactly.
fn refused_with(args: &[&str], reason: &str) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_vfps-router")).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().next(), Some(format!("error: {reason}").as_str()), "{args:?}");
}

#[test]
fn a_backend_without_both_halves_is_refused_with_its_spec() {
    for spec in ["b0", "=127.0.0.1:1", "b0="] {
        refused_with(
            &["--backend", spec],
            &format!("--backend wants name=host:port, got {spec:?}"),
        );
    }
}

#[test]
fn a_missing_value_or_unknown_argument_is_named() {
    refused_with(&["--health-timeout-ms"], "--health-timeout-ms needs a value");
    refused_with(
        &["--health-interval-ms", "soon"],
        "bad --health-interval-ms \"soon\": invalid digit found in string",
    );
    refused_with(&["--bogus"], "unknown argument --bogus");
}
