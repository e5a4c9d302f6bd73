#!/usr/bin/env bash
# One network edge (DESIGN.md §6): sockets are configured, accepted and
# framed in crates/net/src and nowhere else, and message codecs are
# declared with wire_struct!/wire_enum! rather than written by hand, and
# the Channel receive contract is vfps_net::channel::Mailbox's alone.
# Three HE rules ride along: one decrypt helper in vfl, no Montgomery
# context built per ciphertext, no division-based modular product on the
# Paillier data path.
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

# One decrypt (DESIGN.md §11): the protocols hand ciphertext blobs to
# vfl::he_wire, which decodes, validates and decrypts them in one
# `decrypt_many` call; a per-ciphertext `.decrypt(` loop in a protocol is
# the serial round this rule keeps from coming back.
if hits=$(grep -rnE '\.decrypt\(|\.decrypt_many\(' crates/vfl/src --include='*.rs' \
        | grep -v '^crates/vfl/src/he_wire.rs:'); then
    echo "decryption in crates/vfl/src outside he_wire.rs (use he_wire::decrypt):"
    echo "$hits"
    fail=1
fi

# A Montgomery context costs a shift and a long division: Paillier builds
# them where keys and encryptors are built (CrtParams::new, and
# FixedBaseWindow::new in bigint), never per ciphertext.
# The `fn` line enclosing line $1 of paillier.rs.
enclosing_fn() {
    sed -n "1,${1}p" crates/he/src/paillier.rs | grep -E '^\s*(pub )?fn ' | tail -n 1
}
ctx_builds=$(grep -nE 'MontgomeryCtx::new' crates/he/src/paillier.rs || true)
while IFS=: read -r line _; do
    [ -n "$line" ] || continue
    if ! enclosing_fn "$line" | grep -qE 'fn new\('; then
        echo "crates/he/src/paillier.rs:$line: MontgomeryCtx::new outside a constructor (hold the context in the key)"
        fail=1
    fi
done <<< "$ctx_builds"

# One modular product (DESIGN.md §11): what a ciphertext is multiplied by
# goes through the key's Montgomery context (`mod_mul`, `mul_by`). The
# division-based `BigUint::mul_mod(` is for the two reference routines the
# hot path is tested against, and for tests.
if hits=$(grep -n 'mul_mod(' crates/he/src/scheme.rs); then
    echo "crates/he/src/scheme.rs: division-based mul_mod on the scheme path (use the key's MontgomeryCtx):"
    echo "$hits"
    fail=1
fi
tests_from=$(grep -n '^#\[cfg(test)\]' crates/he/src/paillier.rs | head -n 1 | cut -d: -f1)
products=$(grep -n 'mul_mod(' crates/he/src/paillier.rs || true)
while IFS=: read -r line _; do
    [ -n "$line" ] || continue
    [ "$line" -lt "${tests_from:-999999}" ] || continue
    if ! enclosing_fn "$line" | grep -qE 'fn (encrypt<|decrypt_plain\()'; then
        echo "crates/he/src/paillier.rs:$line: division-based mul_mod outside PaillierPublicKey::encrypt / decrypt_plain (use the key's MontgomeryCtx)"
        fail=1
    fi
done <<< "$products"

# One group-encrypt routine: encrypt_on is encrypt_many_on of one batch.
if hits=$(grep -rn 'encrypt_reserved' crates --include='*.rs'); then
    echo "encrypt_reserved is back (PaillierHe::encrypt_many_on is the one group-encrypt routine):"
    echo "$hits"
    fail=1
fi

[ "$fail" -eq 0 ] && echo "one-edge check: ok ($count hand-written Wire impl(s) outside wire.rs)"
exit "$fail"
