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
