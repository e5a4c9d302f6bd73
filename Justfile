# Local entry points mirroring what CI runs, so the gates can be
# exercised before pushing. Uses `just` (https://just.systems); every
# recipe body is plain bash, so each command also works copy-pasted
# into a shell.

# Build + test, the tier-1 gate.
test:
    cargo build --release
    cargo test -q

# Clippy + rustfmt + edge check + rustdoc, exactly as the lint job runs them.
lint:
    cargo clippy --workspace --all-targets -- -D warnings
    cargo fmt --check
    bash ci/check_one_edge.sh
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# No test binary registers a name twice (`--list` shows each once).
unique-tests:
    bash ci/check_unique_tests.sh

# Sockets, accept loops and hand-written codecs stay inside crates/net/src
# (DESIGN.md §6, "The network edge").
one-edge:
    bash ci/check_one_edge.sh

# End-to-end cluster smoke: three real `vfps party` processes per test,
# bit-identity with the simulated cluster, clean exits and the kill matrix.
cluster-smoke:
    cargo test --release -q -p vfps-serve --test cluster_process
