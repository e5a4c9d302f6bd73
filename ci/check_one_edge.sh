#!/usr/bin/env bash
# One network edge (DESIGN.md §6): sockets are configured, accepted and
# framed in crates/net/src and nowhere else, and message codecs are
# declared with wire_struct!/wire_enum! rather than written by hand, and
# the Channel receive contract is vfps_net::channel::Mailbox's alone.
# Run from the repo root; the lint job and `just one-edge` both call this.
set -euo pipefail

fail=0

# Socket policy and accept loops live in vfps-net only.
if hits=$(grep -rnE 'TcpListener::incoming|\.incoming\(\)|wake_acceptor|set_nodelay' \
        crates --include='*.rs' | grep -v '^crates/net/src/'); then
    echo "network-edge code outside crates/net/src (use vfps_net::Conn / server::Listener):"
    echo "$hits"
    fail=1
fi

# The receive contract (reorder buffer, consumed departures) is written
# once; a transport supplies Mailbox a blocking read, not a fourth copy.
if hits=$(grep -rnE 'VecDeque<Envelope|last_departed:' crates --include='*.rs' \
        | grep -v '^crates/net/src/channel.rs:'); then
    echo "receive-contract bookkeeping outside crates/net/src/channel.rs (use vfps_net::channel::Mailbox):"
    echo "$hits"
    fail=1
fi

# Hand-written codecs: at most three outside wire.rs, each saying why the
# macros do not fit on the line above it.
max_handwritten=3
impls=$(grep -rnE '^\s*impl\b.*\bWire for\b' crates --include='*.rs' \
    | grep -v '^crates/net/src/wire.rs:' || true)
count=$(printf '%s' "$impls" | grep -c . || true)
if [ "$count" -gt "$max_handwritten" ]; then
    echo "$count hand-written Wire impls outside crates/net/src/wire.rs (max $max_handwritten):"
    echo "$impls"
    fail=1
fi
while IFS=: read -r file line _; do
    [ -n "$file" ] || continue
    if ! sed -n "$((line - 1))p" "$file" | grep -q '^\s*// hand-written Wire:'; then
        echo "$file:$line: hand-written Wire impl without a '// hand-written Wire: <reason>' line above it"
        fail=1
    fi
done <<< "$impls"

[ "$fail" -eq 0 ] && echo "one-edge check: ok ($count hand-written Wire impl(s) outside wire.rs)"
exit "$fail"
