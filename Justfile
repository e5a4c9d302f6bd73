# Local entry points mirroring what CI runs, so the artifact-key gate
# and the bench drivers can be exercised before pushing. Uses `just`
# (https://just.systems); every recipe body is plain bash, so each
# command also works copy-pasted into a shell.

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

# Sockets, accept loops and hand-written codecs stay inside crates/net/src
# (DESIGN.md §6, "The network edge").
one-edge:
    bash ci/check_one_edge.sh

# Assert BENCH_selection.json carries a group's keys (selection, serve,
# router or cluster) — the same script the CI jobs call.
bench-keys group="selection" artifact="BENCH_selection.json":
    bash ci/check_bench_keys.sh {{group}} {{artifact}}

# Regenerate the selection bench artifact and gate it.
bench-selection:
    cargo run --release -p vfps-bench --bin experiments -- bench-selection --quick --cached
    bash ci/check_bench_keys.sh selection
    cargo run --release -p vfps-bench --bin experiments -- bench-check

# In-process service load test (two tenants, drain at the end).
bench-serve:
    cargo run --release -p vfps-bench --bin experiments -- bench-serve --quick
    bash ci/check_bench_keys.sh serve

# Routing-tier load test: two in-process daemons behind vfps-router,
# with a mid-load drain and bit-identity probes against a direct daemon.
bench-router:
    cargo run --release -p vfps-bench --bin experiments -- bench-serve --quick --router
    bash ci/check_bench_keys.sh router

# Real-socket cluster benchmark: three party daemons over TCP vs the
# simulated cluster (bit-identity asserted) plus a mid-batch kill run.
bench-cluster:
    cargo run --release -p vfps-bench --bin experiments -- bench-cluster --quick
    bash ci/check_bench_keys.sh cluster

# End-to-end cluster smoke: spawn three real `vfps party` processes,
# run the protocol + kill matrix against them, then the bench gate.
cluster-smoke:
    cargo test --release -q -p vfps-serve --test cluster_process
    cargo run --release -p vfps-bench --bin experiments -- bench-cluster --quick
    bash ci/check_bench_keys.sh cluster
