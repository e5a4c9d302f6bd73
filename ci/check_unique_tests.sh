#!/usr/bin/env bash
# One registration per test: `--list` prints every registration a test
# binary holds, so a name listed twice in one binary runs twice and counts
# twice. (The proptest shim once added a `#[test]` of its own to every
# property, on top of the caller's.) Extra arguments go to `cargo test`,
# e.g. `--release`. Run from the repo root.
set -euo pipefail

cargo test --workspace "$@" -- --list 2>&1 | awk '
    /^ *(Running|Doc-tests) / { binary = $0; sub(/^ +/, "", binary); next }
    /: (test|bench)$/ {
        if (seen[binary, $0]++ == 1) {
            print "registered twice in " binary ": " $0
            twice = 1
        }
    }
    END {
        if (twice) exit 1
        print "unique-tests check: ok"
    }'
