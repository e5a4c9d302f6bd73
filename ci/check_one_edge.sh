#!/usr/bin/env bash
# One network edge (DESIGN.md §6): sockets are configured, accepted and
# framed in crates/net/src and nowhere else, and message codecs are
# declared with wire_struct!/wire_enum! rather than written by hand, and
# the Channel receive contract is vfps_net::channel::Mailbox's alone.
# Three HE rules ride along: one decrypt helper in vfl, no Montgomery
# context built per ciphertext, no division-based modular product on the
# Paillier data path. And three for the party plane's round: the exchange
# is per wave, never per query, and session setup is fanned out. One more
# for ranking: the protocols rank through vfps_topk::Ranking, never a sort.
# And one for the harness: crates/bench times nothing (benchmark/ does).
# And one for reach: library surface no binary, experiment or benchmark
# called (a second split-LR trainer, k-fold CV, ...) stays deleted.
# And one for the similarity formula: written once, in core::similarity.
# And one for serving: a resident tenant's data is hashed once, not per request.
# And one for the maximizers: KnnSubmodular::maximize is their one entry point.
# And one for partial distances: both fed-KNN engines run the feature-major kernel.
# And one for the option matrix: two maximizers (lazy, stochastic), two KNN modes.
# And one for the pool: one FIFO queue, and nothing pushes to a per-worker deque.
# And one for SIMD: the AVX-512 IFMA lane kernel and its dispatch live in one file.
# And one for synchronisation: locks, condvars and channels are std::sync's.
# And one for top-k: one ranking (Ranking), no access-counted list model beside it.
# And one for HE randomness: vfps-he holds no lock; one atomic cursor seeds Paillier.
# And one for HE families: Paillier is the one real scheme; CKKS-lite stays deleted.
# And one for DP: an experiment in vfps-bench, not a served-selector knob.
# And one for the leader's pick: written once, in crates/vfl/src/outcome.rs.
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

# A Montgomery context costs a shift and a long division, and the lane
# kernel's constants several: Paillier builds them where keys and
# encryptors are built (CrtParams::new, and FixedBaseWindow::new in
# bigint), never per ciphertext.
# The `fn` line enclosing line $2 of file $1.
enclosing_fn() {
    sed -n "1,${2}p" "$1" | grep -E '^\s*(pub(\(crate\))? )?fn ' | tail -n 1
}
for rule in 'crates/he/src/paillier.rs:MontgomeryCtx::new|LaneCtx::new' \
        'crates/he/src/bigint/montgomery.rs:LaneCtx::new'; do
    file=${rule%%:*}
    tests_at=$(grep -n '^#\[cfg(test)\]' "$file" | head -n 1 | cut -d: -f1)
    ctx_builds=$(grep -nE "${rule#*:}" "$file" || true)
    while IFS=: read -r line _; do
        [ -n "$line" ] || continue
        [ "$line" -lt "${tests_at:-999999}" ] || continue
        if ! enclosing_fn "$file" "$line" | grep -qE 'fn new\('; then
            echo "$file:$line: a Montgomery or lane context built outside a constructor (hold it in the key)"
            fail=1
        fi
    done <<< "$ctx_builds"
done

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
    if ! enclosing_fn crates/he/src/paillier.rs "$line" | grep -qE 'fn (encrypt<|decrypt_plain\()'; then
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

# One wave per round (DESIGN.md §7): the protocol bodies exchange a wave's
# messages at once. A loop over the session's queries that sends or
# receives is the per-query exchange — a round of Q serial round trips —
# coming back.
# Prints the brace-balanced block of file $1 that opens on line $2.
block_at() {
    awk -v from="$2" 'NR >= from {
        print NR ": " $0
        opens += gsub(/\{/, "{"); closes += gsub(/\}/, "}")
        if (opens > 0 && opens == closes) exit
    }' "$1"
}
protocol=crates/vfl/src/protocol.rs
protocol_tests_from=$(grep -n '^#\[cfg(test)\]' "$protocol" | head -n 1 | cut -d: -f1)
query_loops=$(grep -nE 'shared\.queries|query_feats' "$protocol" | grep -E '\bfor\b|for_each' || true)
while IFS=: read -r line _; do
    [ -n "$line" ] || continue
    [ "$line" -lt "${protocol_tests_from:-999999}" ] || continue
    if hits=$(block_at "$protocol" "$line" | grep -E '\.send\(|send_or_gone\(|\.recv[a-z_]*\('); then
        echo "$protocol:$line: a loop over the session's queries sends or receives (exchange a wave at a time):"
        echo "$hits"
        fail=1
    fi
done <<< "$query_loops"

# Its barrier is per wave too; the per-query one is retired on the wire.
if hits=$(grep -rn 'QueryDone' crates --include='*.rs'); then
    echo "QueryDone is back (the barrier is ProtoMsg::WaveDone, once per wave):"
    echo "$hits"
    fail=1
fi

# Setup is fanned out: Hub::connect dials every daemon and ships its
# SetupFrame before it waits for any Ready, so keygens and local views
# build concurrently. A receive inside the dial loop serializes them.
hub=crates/cluster/src/hub.rs
connect_from=$(grep -n 'pub fn connect(' "$hub" | head -n 1 | cut -d: -f1 || true)
dial_line=$(block_at "$hub" "${connect_from:-1}" | grep -E 'connect_with_budget\(' | head -n 1 | cut -d: -f1 || true)
dial_loop=$(sed -n "${connect_from:-1},${dial_line:-1}p" "$hub" | grep -nE '^\s*for\b' | tail -n 1 | cut -d: -f1 || true)
if [ -z "$connect_from" ] || [ -z "$dial_line" ] || [ -z "$dial_loop" ]; then
    echo "$hub: cannot find Hub::connect's dial loop (update ci/check_one_edge.sh with it)"
    fail=1
elif hits=$(block_at "$hub" "$((connect_from + dial_loop - 1))" | grep -E '\.recv[a-z_:<>A-Za-z]*\('); then
    echo "$hub: Hub::connect receives inside its dial loop (send every Setup first, then collect the Readys):"
    echo "$hits"
    fail=1
fi

# Rank on demand (DESIGN.md §7): every ranking and top-k in the fed-KNN
# engines goes through vfps_topk::Ranking, which ranks only the prefix a
# caller reads. A `total_cmp` sort here is a full sort of N partials
# coming back.
if hits=$(grep -rnE -A1 '\.(sort|sort_unstable|select_nth_unstable)(_by[a-z_]*)?\(' \
        crates/vfl/src --include='*.rs' | grep 'total_cmp'); then
    echo "a total_cmp sort in crates/vfl/src (rank through vfps_topk::Ranking):"
    echo "$hits"
    fail=1
fi

# One harness (DESIGN.md §4): timings are the repo benchmark's
# (benchmark/); crates/bench regenerates the paper's tables and figures
# and pins exact work counters in cargo tests. A dependency on a serving
# tier or a timing framework is the second timing harness coming back.
if hits=$(grep -nE '^(vfps-serve|vfps-router|vfps-cluster|criterion)\b' crates/bench/Cargo.toml); then
    echo "crates/bench/Cargo.toml depends on a serving tier or criterion (time it in benchmark/):"
    echo "$hits"
    fail=1
fi

# One ranking (DESIGN.md §7): FA runs over vfps_topk::Ranking, the
# structure the parties rank with. The access-counted list model beside
# it (RankedList, Direction, AccessStats and total_stats, a batch
# fagin_topk, a naive_topk oracle) had its own sort, and a proptest had to
# hold the two orders equal; tests write their references inline.
if hits=$(grep -rnE '\b(RankedList|fagin_topk|naive_topk|AccessStats|total_stats)\b|Direction::' \
        crates tests examples); then
    echo "the access-counted top-k list model is back (rank through vfps_topk::Ranking):"
    echo "$hits"
    fail=1
fi

# Nothing unreached (DESIGN.md §2): these items had no caller outside
# their own tests and were deleted; reviving one needs a caller first.
if hits=$(grep -rnwE 'split_protocol|compare_all|KFold|select_by_cv|party_profiles|DatasetStats|budgeted_greedy|knn_mi|macro_f1|confusion_matrix|query_batch_memo|query_batch_resilient|ResilientBatch|LeaveOneOutSelector|outcome_memo|SparseSimilarity|from_sparse|try_finish_sparse|stochastic_greedy_seeded|greedy_on|lazy_greedy_on|stochastic_greedy_on|sieve_streaming_on|canonical_bytes|hconcat|axpy|frobenius_norm|learning_rate|cluster_size|NoisePoolState|prefill|prefill_noise|prefill_compute|prefill_insert|noise_ready|ready_len|encrypt_i64|encode_i64|mul_plain|rerandomize|decrypt_i128|half_n|encode_slice|privatize_slice|noise_frac|joint_view|candidate_set' \
        crates examples); then
    echo "deleted, never-called library surface is back (wire a caller in the same change, or leave it out):"
    echo "$hits"
    fail=1
fi
# The same for names a bare word would confuse with a kept item: each
# pattern is searched where the deleted item lived. (FixedPoint keeps its
# decode_i128, the bench calibration its bytes_per_value field,
# prepared_sized stays.)
for rule in 'crates/he/src/paillier.rs:\b(add_plain|decode_i128)\b|\b(ready|computed):' \
        'crates/he/src:\bbytes_per_value\b' \
        'crates/router/src/health.rs:\bfrom_u8\b' \
        'crates/ml/src:fn reset\b|\.reset\(' \
        'crates:\bprepared\('; do
    if hits=$(grep -rnE "${rule#*:}" "${rule%%:*}" --include='*.rs'); then
        echo "deleted, never-called library surface is back (wire a caller in the same change, or leave it out):"
        echo "$hits"
        fail=1
    fi
done

# One way into the maximizers (DESIGN.md §12): KnnSubmodular::maximize
# runs every algorithm; the algorithms themselves are private. A public
# per-algorithm method is the second entry point coming back.
submodular=crates/core/src/submodular.rs
submodular_tests_from=$(grep -n '^#\[cfg(test)\]' "$submodular" | head -n 1 | cut -d: -f1)
impl_from=$(grep -n '^impl KnnSubmodular' "$submodular" | head -n 1 | cut -d: -f1 || true)
if [ -z "$impl_from" ]; then
    echo "$submodular: cannot find impl KnnSubmodular (update ci/check_one_edge.sh with it)"
    fail=1
elif hits=$(block_at "$submodular" "$impl_from" \
        | awk -F': ' -v to="${submodular_tests_from:-999999}" '$1 < to' \
        | grep -E '^[0-9]+: +pub fn ' \
        | grep -vE 'pub fn (new|similarity|eval|gain|maximize|maximize_scored)\b'); then
    echo "$submodular: public KnnSubmodular method beyond new/similarity/eval/gain/maximize/maximize_scored (run it through maximize):"
    echo "$hits"
    fail=1
fi

# One partial-distance kernel (DESIGN.md §7): both fed-KNN engines compute
# a party's partials with vfps_ml::linalg::squared_distances_feature_major
# over its feature-major view. A row-wise `squared_distance(` call is the
# slower per-point loop, and a second formula to keep bit-identical.
if hits=$(grep -rn 'squared_distance(' crates/vfl/src --include='*.rs'); then
    echo "row-wise squared_distance in crates/vfl/src (use linalg::squared_distances_feature_major):"
    echo "$hits"
    fail=1
fi

# Two maximizers, two KNN modes (DESIGN.md §12): lazy greedy serves exact
# greedy's set, and stochastic greedy beats sieve-streaming wherever both
# were measured; NRA's score bounds need plaintext partial scores at the
# server, and TA had no message flow: only the logical engine billed it.
# Eager greedy is a test oracle inside submodular.rs, not a variant.
if hits=$(grep -rnE '\bSieve\b|sieve_streaming|Maximizer::Greedy|KnnMode::Nra|nra_topk|\bmod nra\b|KnnMode::Threshold|threshold_topk|ThresholdOutcome|VFPS-SM-TA|\bmod threshold\b' \
        crates tests examples --include='*.rs'); then
    echo "a retired maximizer or KNN mode is back (serve Maximizer::Lazy / KnnMode::Fagin):"
    echo "$hits"
    fail=1
fi

# One similarity formula (DESIGN.md §3): w_q(p, s) = (d_T − |d_T^p − d_T^s|)
# / d_T and its d_T = 0 rule live in SimilarityAccumulator alone. Cold,
# warm and churn matrices all come from it; a second copy is how the
# churn path once disagreed with the cold one on d_T = 0 queries.
if hits=$(grep -rnE 'abs\(\)\)\s*/\s*total' crates tests examples --include='*.rs' \
        | grep -v '^crates/core/src/similarity.rs:'); then
    echo "the similarity formula outside crates/core/src/similarity.rs (feed d_t to SimilarityAccumulator):"
    echo "$hits"
    fail=1
fi

# Hash a resident tenant once (DESIGN.md §9 "Key derivation", §10): the
# serving tier keys every request from its world's TenantDigest through
# select_with_digest. A `cache_key(` or `select_with_cache(` call here
# rehashes the whole dataset on every request.
if hits=$(grep -rnE '\b(cache_key|select_with_cache)\(' crates/serve/src --include='*.rs'); then
    echo "per-request rehash of the tenant in crates/serve/src (key from the world's digest: select_with_digest):"
    echo "$hits"
    fail=1
fi

# One queue (DESIGN.md §5): vfps-par's maps push their chunks onto one
# locked FIFO that workers and the waiting caller pop. Per-worker deques,
# stealers and an injector never carried a task, and par_fold and
# PoolBuilder had no caller; this keeps that machinery deleted.
if hits=$(grep -rnE 'Stealer|Injector|par_fold|PoolBuilder' crates shims); then
    echo "work-stealing machinery is back in the pool (vfps-par is one FIFO queue):"
    echo "$hits"
    fail=1
fi

# SIMD lives in one file (DESIGN.md §11): the AVX-512 IFMA lane kernel,
# its target features, its run-time CPU detection and its unsafe blocks
# are crates/he/src/bigint/lanes.rs alone. Everything else reaches the
# lanes through Kernel and builds on any target.
if hits=$(grep -rnE 'std::arch|core::arch|target_feature|is_x86_feature_detected|_mm512_' \
        crates shims --include='*.rs' | grep -v '^crates/he/src/bigint/lanes.rs:'); then
    echo "SIMD outside crates/he/src/bigint/lanes.rs (put lane code in the one lane module):"
    echo "$hits"
    fail=1
fi

# Std where std suffices (DESIGN.md §5): every lock, condvar and channel
# is std::sync's, poison recovered by each crate's private lock helper.
# The crossbeam and parking_lot shims wrapped exactly those types, and
# parking_lot's condvar moved guards with unsafe ptr::read/ptr::write.
hits=$({ grep -rnE 'crossbeam|parking_lot' Cargo.toml Cargo.lock crates/*/Cargo.toml shims
        grep -rnE 'crossbeam|parking_lot' crates --include='*.rs'; } || true)
if [ -n "$hits" ]; then
    echo "crossbeam / parking_lot are back (use std::sync::{mpsc, Mutex, Condvar}):"
    echo "$hits"
    fail=1
fi

# No lock in vfps-he (DESIGN.md §11 "Noise pool determinism"): Paillier
# reserves its noise indices with one atomic add on a NoisePool. A mutex
# here once guarded a prefill cache nothing filled.
if hits=$(grep -rnE '\b(Mutex|RwLock)\b|\.lock\(' crates/he/src --include='*.rs'); then
    echo "a lock in crates/he/src (reserve noise indices with NoisePool::reserve):"
    echo "$hits"
    fail=1
fi

# One HE family (DESIGN.md §11): AdditiveHe has two implementations,
# PaillierHe and PlainHe. CKKS-lite ran on no served path, party daemon or
# benchmark — only a calibration bill and toy-parameter tests — and was
# deleted. A CKKS scheme comes back on the wire (a SchemeKind, a protocol
# run), not as a second family the tests keep alive for a bill.
if hits=$(grep -rnE '\b(CkksHe|CkksParams|CkksContext)\b|vfps_he::ckks' \
        crates tests examples --include='*.rs'); then
    echo "CKKS-lite is back without a protocol path (wire a SchemeKind and a run in the same change):"
    echo "$hits"
    fail=1
fi

# DP is an experiment (DESIGN.md §9): vfps-bench's Laplace mechanism
# noises a finished run's d_T^p for `ablation-dp` alone. As a field of the
# served selector it forced a fourth, cache-bypassing path into
# select_with_digest, and vfps-he carried a Gaussian mechanism nothing
# called.
if hits=$(grep -rnE 'dp_epsilon|CacheStatus::Bypass|GaussianMechanism|vfps_he::dp' \
        crates tests examples --include='*.rs'); then
    echo "DP is back in the served selector or vfps-he (noise a finished run in vfps-bench's ablation-dp):"
    echo "$hits"
    fail=1
fi

# One leader pick (DESIGN.md §7): the k nearest *other* instances are
# picked in crates/vfl/src/outcome.rs, for both engines. A ranking of
# complete distances in either engine, or an is_finite() filter standing
# in for dropping the query's own position, is the second copy that once
# let the protocol return the query itself at k >= N.
if hits=$(grep -nE 'Ranking::new|filter\(.*is_finite|score\(\)\.is_finite' \
        crates/vfl/src/fed_knn.rs crates/vfl/src/protocol.rs); then
    echo "a second leader pick in a fed-KNN engine (call outcome::leader_pick):"
    echo "$hits"
    fail=1
fi

[ "$fail" -eq 0 ] && echo "one-edge check: ok ($count hand-written Wire impl(s) outside wire.rs)"
exit "$fail"
