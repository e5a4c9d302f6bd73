//! The thread-per-node federated KNN protocol with real homomorphic
//! encryption.
//!
//! Node layout mirrors the paper's deployment: node 0 is the aggregation
//! server, nodes `1..=P` are participants, node 1 doubles as the leader
//! (label and secret-key holder). The key server is modeled as the setup
//! step that hands every node the scheme handle before the protocol runs;
//! role separation is structural — participants only ever call `encrypt`,
//! the server only `add`s serialized ciphertexts, and only the leader
//! decrypts.
//!
//! Identity security: participants apply a shared seeded permutation to
//! instance ids before streaming them, so the server only ever sees pseudo
//! IDs (paper §IV-B step ①).
//!
//! ## Fault tolerance
//!
//! Every node body is fallible and the run degrades instead of hanging
//! when a participant dies (see DESIGN.md §7): the server marks dead
//! slots as exhausted in the Fagin stream, aggregates over the survivors,
//! and flags the reduced contributor set to the leader with
//! [`ProtoMsg::AggregatedPartial`]; the leader zero-fills dead entries of
//! `d_t` and completes the query batch over the surviving sub-consortium.
//! Death of node 0 (server) or node 1 (leader) aborts the run with a
//! typed error — there is no one left to aggregate, or to decrypt.
//! With an empty [`FaultPlan`] the message sequence is exactly the
//! pre-fault-tolerance protocol: same sends, same bytes, same ledger.

use crate::fed_knn::{FedKnnConfig, KnnMode, QueryOutcome};
use crate::he_wire;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use vfps_data::VerticalPartition;
use vfps_he::scheme::AdditiveHe;
use vfps_ml::linalg::{squared_distance, Matrix};
use vfps_net::channel::Channel;
use vfps_net::cluster::{run_cluster_fallible, ClusterOptions, NodeCtx};
use vfps_net::{Error, FaultPlan, NodeId, TrafficLedger};

/// Stand-in distance for a query's own database entry: large enough never
/// to win a top-k, small enough to stay representable in every scheme's
/// fixed-point plaintext space.
const SELF_EXCLUDE_SENTINEL: f64 = 1e9;

/// Deadline for every blocking receive in the protocol. A dropped frame
/// leaves its sender alive but silent, so peer death alone cannot unblock
/// the receiver — only a deadline can. One phase of in-process work
/// (encrypting or decrypting a single query's candidates) is
/// milliseconds even with real Paillier/CKKS, so ten seconds cannot fire
/// spuriously, while still bounding every fault-injected run.
pub(crate) const PHASE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// Protocol messages. Ciphertexts travel as opaque scheme-serialized blobs.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtoMsg {
    /// Server → participant: request the next rank mini-batch.
    NeedBatch,
    /// Participant → server: the next mini-batch of pseudo IDs.
    RankBatch(Vec<usize>),
    /// Server → participants: Fagin finished; encrypt these pseudo IDs.
    Candidates(Vec<usize>),
    /// Participant → server: encrypted partial distances, chunked.
    EncPartials(Vec<Vec<u8>>),
    /// Server → leader: homomorphically aggregated chunks.
    Aggregated(Vec<Vec<u8>>),
    /// Server → leader: aggregated chunks from a *reduced* contributor
    /// set (second field: the participant slots that contributed, sorted).
    /// Sent instead of [`ProtoMsg::Aggregated`] only when at least one
    /// participant has dropped out, so fault-free runs stay byte-identical.
    AggregatedPartial(Vec<Vec<u8>>, Vec<usize>),
    /// Leader → participants: the selected top-k pseudo IDs.
    TopkIds(Vec<usize>),
    /// Participant → leader: its `d_T^p` sum.
    DtSum(f64),
    /// Leader → server: the query is fully processed; start the next one.
    /// This barrier prevents a fast participant's next-query messages from
    /// interleaving with the current query's aggregation.
    QueryDone,
}

vfps_net::wire_enum!(ProtoMsg {
    0 => NeedBatch,
    1 => RankBatch(ids),
    2 => Candidates(ids),
    3 => EncPartials(blobs),
    4 => Aggregated(blobs),
    5 => TopkIds(ids),
    6 => DtSum(v),
    7 => QueryDone,
    8 => AggregatedPartial(blobs, slots),
});

/// Result of a threaded run.
#[derive(Debug)]
pub struct ThreadedKnnRun {
    /// Per-query outcomes (as observed by the leader).
    pub outcomes: Vec<QueryOutcome>,
    /// Total bytes moved between nodes.
    pub total_bytes: u64,
    /// Total messages between nodes.
    pub total_messages: u64,
    /// Node ids that dropped out during the run (empty when fault-free).
    pub dropouts: Vec<NodeId>,
}

/// Outcome of a fault-injected threaded run: the protocol always returns
/// one of these instead of hanging.
#[derive(Debug)]
pub enum FaultedRun {
    /// Every node completed; the result is exactly a fault-free run's.
    Complete(ThreadedKnnRun),
    /// One or more participants died; the leader finished the batch over
    /// the survivors (dead slots carry `d_t = 0.0`).
    Degraded(ThreadedKnnRun),
    /// The server or the leader died — no usable result exists.
    Aborted {
        /// The failure the leader (or server) observed.
        error: Error,
        /// Node ids that went down during the run.
        dropouts: Vec<NodeId>,
    },
}

impl FaultedRun {
    /// Folds per-node results (index = node id: server, leader, other
    /// participants) and the run's traffic totals into the typed outcome.
    /// Every node that errored is down; nodes additionally report slots
    /// they observed dropping (a killed slot's own result and its peers'
    /// observations agree, but union them to be safe). The leader's
    /// result decides between a usable run and [`FaultedRun::Aborted`].
    #[must_use]
    pub fn from_nodes(
        mut nodes: Vec<Result<KnnNodeOut, Error>>,
        total_bytes: u64,
        total_messages: u64,
    ) -> FaultedRun {
        let mut dropped = vec![false; nodes.len()];
        for (node, r) in nodes.iter().enumerate() {
            match r {
                Err(_) => dropped[node] = true,
                Ok((_, dead_slots)) => {
                    for &slot in dead_slots {
                        dropped[1 + slot] = true;
                    }
                }
            }
        }
        let dropouts: Vec<NodeId> = (0..nodes.len()).filter(|&i| dropped[i]).collect();
        match nodes.swap_remove(1) {
            Err(error) => FaultedRun::Aborted { error, dropouts },
            Ok((outcomes, _)) => {
                let complete = dropouts.is_empty();
                let run = ThreadedKnnRun { outcomes, total_bytes, total_messages, dropouts };
                if complete {
                    FaultedRun::Complete(run)
                } else {
                    FaultedRun::Degraded(run)
                }
            }
        }
    }

    /// The completed or degraded run, if one exists.
    #[must_use]
    pub fn run(&self) -> Option<&ThreadedKnnRun> {
        match self {
            FaultedRun::Complete(r) | FaultedRun::Degraded(r) => Some(r),
            FaultedRun::Aborted { .. } => None,
        }
    }
}

/// Shared, read-only inputs handed to every node of a KNN protocol run —
/// the session description a coordinator ships to every party daemon, and
/// what the simulated cluster clones into every node thread. Two nodes
/// built from equal sessions execute bit-identical protocol logic,
/// whichever transport carries their messages.
#[derive(Clone, Debug)]
pub struct KnnSession {
    /// Party ids of the consortium, in slot order (slot `s` ⇔ node `1+s`).
    pub parties: Vec<usize>,
    /// Database row indices (into the full dataset) the run queries over.
    pub db_rows: Vec<usize>,
    /// Query row indices.
    pub queries: Vec<usize>,
    /// Engine configuration (k, mode, batch, cost scale).
    pub cfg: FedKnnConfig,
    /// Shared pseudo-ID permutation: `perm[pos]` is the pseudo ID of
    /// database position `pos`; `inv[pseudo]` maps back.
    pub perm: Vec<usize>,
    /// Inverse of `perm`.
    pub inv: Vec<usize>,
}

impl KnnSession {
    /// Builds a session, deriving the pseudo-ID permutation from
    /// `shuffle_seed` (paper §IV-B step ①) — the one deterministic input
    /// every node must agree on.
    ///
    /// # Panics
    /// Panics on an empty consortium or database, or a mode the threaded
    /// protocol does not implement (only Base and Fagin have message
    /// flows; Threshold/NRA are logical-engine oracles).
    #[must_use]
    pub fn new(
        parties: &[usize],
        db_rows: &[usize],
        queries: &[usize],
        cfg: FedKnnConfig,
        shuffle_seed: u64,
    ) -> KnnSession {
        assert!(!parties.is_empty(), "empty consortium");
        assert!(!db_rows.is_empty(), "empty database");
        assert!(
            matches!(cfg.mode, KnnMode::Base | KnnMode::Fagin),
            "the threaded protocol implements Base and Fagin; the Threshold \
             and NRA oracles are available in the logical engine (fed_knn)"
        );
        let n = db_rows.len();
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
        let mut inv = vec![0usize; n];
        for (pos, &pseudo) in perm.iter().enumerate() {
            inv[pseudo] = pos;
        }
        KnnSession {
            parties: parties.to_vec(),
            db_rows: db_rows.to_vec(),
            queries: queries.to_vec(),
            cfg,
            perm,
            inv,
        }
    }

    /// One party's node-local inputs: its feature view of the database
    /// rows and its per-query feature slices. What a real daemon computes
    /// from its own dataset slice before entering the protocol.
    #[must_use]
    pub fn local_inputs(
        &self,
        x: &Matrix,
        partition: &VerticalPartition,
        slot: usize,
    ) -> (Matrix, Vec<Vec<f64>>) {
        let party = self.parties[slot];
        let db = x.select_rows(&self.db_rows);
        let view = partition.local_view(&db, party);
        let cols = partition.columns(party);
        let qfeats =
            self.queries.iter().map(|&q| cols.iter().map(|&c| x.get(q, c)).collect()).collect();
        (view, qfeats)
    }
}

/// What each node reports back: the leader's per-query outcomes (empty
/// elsewhere) and the participant slots it observed dropping out.
pub type KnnNodeOut = (Vec<QueryOutcome>, Vec<usize>);
type NodeResult = Result<KnnNodeOut, Error>;

/// Runs the full federated KNN protocol over `queries` with real HE.
///
/// # Panics
/// Panics on inconsistent inputs or if a node thread fails (without fault
/// injection a node failure is a protocol bug, not an operational event).
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn run_threaded_knn<H>(
    he: &Arc<H>,
    x: &Matrix,
    partition: &VerticalPartition,
    parties: &[usize],
    db_rows: &[usize],
    queries: &[usize],
    cfg: FedKnnConfig,
    shuffle_seed: u64,
) -> ThreadedKnnRun
where
    H: AdditiveHe + 'static,
{
    match run_threaded_knn_faulted(
        he,
        x,
        partition,
        parties,
        db_rows,
        queries,
        cfg,
        shuffle_seed,
        &FaultPlan::default(),
    ) {
        FaultedRun::Complete(run) => run,
        FaultedRun::Degraded(run) => {
            panic!("fault-free run degraded: dropouts {:?}", run.dropouts)
        }
        FaultedRun::Aborted { error, .. } => panic!("fault-free run aborted: {error}"),
    }
}

/// As [`run_threaded_knn`] under a deterministic [`FaultPlan`]. Never
/// hangs and never panics on node death: the result is always a typed
/// [`FaultedRun`]. With an empty plan the protocol transcript (messages,
/// bytes, outcomes) is bit-identical to [`run_threaded_knn`].
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn run_threaded_knn_faulted<H>(
    he: &Arc<H>,
    x: &Matrix,
    partition: &VerticalPartition,
    parties: &[usize],
    db_rows: &[usize],
    queries: &[usize],
    cfg: FedKnnConfig,
    shuffle_seed: u64,
    faults: &FaultPlan,
) -> FaultedRun
where
    H: AdditiveHe + 'static,
{
    let shared = Arc::new(KnnSession::new(parties, db_rows, queries, cfg, shuffle_seed));
    let p = parties.len();

    // Node-local feature views (party slot s holds X^{parties[s]}).
    let locals: Vec<(Matrix, Vec<Vec<f64>>)> =
        (0..p).map(|slot| shared.local_inputs(x, partition, slot)).collect();

    type NodeFn = Box<dyn FnOnce(NodeCtx<ProtoMsg>) -> NodeResult + Send>;
    let mut fns: Vec<NodeFn> = Vec::with_capacity(p + 1);

    // Node 0: aggregation server.
    {
        let he = Arc::clone(he);
        let shared = Arc::clone(&shared);
        fns.push(Box::new(move |ctx| {
            let dead = knn_server_node(&ctx, &he, &shared)?;
            Ok((Vec::new(), dead))
        }));
    }

    // Nodes 1..=P: participants (node 1 is the leader).
    for (slot, (view, qfeats)) in locals.into_iter().enumerate() {
        let he = Arc::clone(he);
        let shared = Arc::clone(&shared);
        fns.push(Box::new(move |ctx| {
            knn_participant_node(&ctx, &he, &shared, slot, &view, &qfeats)
        }));
    }

    let opts = ClusterOptions { ledger: TrafficLedger::new(), faults: faults.clone() };
    let (results, ledger) = {
        vfps_obs::span!("protocol.run");
        run_cluster_fallible(fns, opts)
    };
    vfps_obs::gauge_set("protocol.run.total_bytes", ledger.total_bytes() as f64);
    vfps_obs::gauge_set("protocol.run.total_messages", ledger.total_messages() as f64);
    FaultedRun::from_nodes(results, ledger.total_bytes(), ledger.total_messages())
}

/// Marks `slot` dead, or aborts the whole node if the dead slot is the
/// leader (slot 0) — without the leader nothing can be decrypted.
fn mark_dead(dead: &mut [bool], slot: usize) -> Result<(), Error> {
    if slot == 0 {
        return Err(Error::Hangup { peer: 1 });
    }
    dead[slot] = true;
    Ok(())
}

/// Sends, mapping a destination hangup to `Ok(false)` (peer is dead,
/// caller degrades) while letting the sender's own faults — e.g.
/// [`Error::Killed`] — propagate.
fn send_or_gone<C: Channel<ProtoMsg>>(ctx: &C, to: usize, msg: ProtoMsg) -> Result<bool, Error> {
    match ctx.send(to, msg) {
        Ok(()) => Ok(true),
        Err(Error::Hangup { .. }) => Ok(false),
        Err(e) => Err(e),
    }
}

/// The aggregation server: per query, gathers (or Fagin-selects) encrypted
/// partials, sums them homomorphically, and forwards to the leader.
/// Participant death marks the slot dead and the round continues over the
/// survivors; leader death aborts. Returns the dead slots it observed.
///
/// Generic over the transport: the simulated cluster's [`NodeCtx`] and
/// `vfps-cluster`'s real-socket hub run this exact function.
///
/// # Errors
/// Typed [`Error`] when the leader dies, the transport fails, or a peer
/// violates the protocol state machine.
pub fn knn_server_node<H: AdditiveHe, C: Channel<ProtoMsg>>(
    ctx: &C,
    he: &Arc<H>,
    shared: &KnnSession,
) -> Result<Vec<usize>, Error> {
    let p = shared.parties.len();
    let n = shared.db_rows.len();
    let mut dead = vec![false; p];
    for _q in 0..shared.queries.len() {
        vfps_obs::span!("protocol.server.query");
        match shared.cfg.mode {
            // Threshold/NRA are rejected at session construction; grouped
            // with Base to keep the match exhaustive.
            KnnMode::Base | KnnMode::Threshold | KnnMode::Nra => {
                // Announce the (full) candidate list so participants only
                // ever encrypt when the server is ready to aggregate —
                // without this, a fast participant's next-query ciphertexts
                // could interleave with this query's.
                let all: Vec<usize> = (0..n).collect();
                for slot in 0..p {
                    if dead[slot] {
                        continue;
                    }
                    if !send_or_gone(ctx, 1 + slot, ProtoMsg::Candidates(all.clone()))? {
                        mark_dead(&mut dead, slot)?;
                    }
                }
            }
            KnnMode::Fagin => {
                // Drive the streaming phase round-robin, lock-step per
                // slot — kept lock-step (not pipelined) deliberately: the
                // server stops requesting the moment Fagin completes, and
                // pipelining would change the fault-free transcript. A
                // dead slot counts as exhausted from the start: Fagin
                // completion needs every list, so with a dead slot the
                // stream instead terminates when the survivors have fed
                // every id.
                vfps_obs::span!("protocol.server.fagin_stream");
                let mut sf = vfps_topk::stream::StreamingFagin::new(p, n, shared.cfg.k.min(n));
                let mut exhausted: Vec<bool> = dead.clone();
                while !sf.is_complete() && !exhausted.iter().all(|&e| e) {
                    for slot in 0..p {
                        if sf.is_complete() || exhausted[slot] || dead[slot] {
                            continue;
                        }
                        if ctx.is_departed(1 + slot)
                            || !send_or_gone(ctx, 1 + slot, ProtoMsg::NeedBatch)?
                        {
                            mark_dead(&mut dead, slot)?;
                            exhausted[slot] = true;
                            continue;
                        }
                        match ctx.recv_from_timeout(1 + slot, PHASE_TIMEOUT) {
                            Ok(ProtoMsg::RankBatch(ids)) => {
                                if ids.is_empty() {
                                    exhausted[slot] = true;
                                } else {
                                    sf.feed(slot, &ids);
                                }
                            }
                            Ok(other) => {
                                return Err(Error::violation(format!(
                                    "expected RankBatch, got {other:?}"
                                )))
                            }
                            // A hangup of this slot, or silence past the
                            // deadline (its frame was lost in flight):
                            // either way the slot will never answer.
                            Err(e) if e.is_hangup_of(1 + slot) => {
                                mark_dead(&mut dead, slot)?;
                                exhausted[slot] = true;
                            }
                            Err(Error::Timeout { .. }) => {
                                mark_dead(&mut dead, slot)?;
                                exhausted[slot] = true;
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
                let cands = sf.candidates().to_vec();
                for slot in 0..p {
                    if dead[slot] {
                        continue;
                    }
                    if !send_or_gone(ctx, 1 + slot, ProtoMsg::Candidates(cands.clone()))? {
                        mark_dead(&mut dead, slot)?;
                    }
                }
            }
        }

        // Gather encrypted chunks from every live participant and sum in
        // arrival order (HE addition commutes, so arrival order does not
        // change the aggregate).
        vfps_obs::span!("protocol.server.aggregate");
        let mut agg: Option<Vec<H::Ciphertext>> = None;
        let mut contributors: Vec<usize> = Vec::new();
        let mut got = vec![false; p];
        loop {
            // Slots whose departure was already consumed (e.g. noted
            // silently during the stream phase) will never deliver.
            for slot in 0..p {
                if !dead[slot] && !got[slot] && ctx.is_departed(1 + slot) {
                    mark_dead(&mut dead, slot)?;
                }
            }
            if (0..p).all(|s| got[s] || dead[s]) {
                break;
            }
            match ctx.recv_timeout(PHASE_TIMEOUT) {
                Ok(env) => {
                    let slot = env.from - 1;
                    let ProtoMsg::EncPartials(blobs) = env.msg else {
                        return Err(Error::violation(format!(
                            "expected EncPartials from node {}, got {:?}",
                            env.from, env.msg
                        )));
                    };
                    agg = Some(he_wire::sum_into(
                        he.as_ref(),
                        agg,
                        he_wire::decode(he.as_ref(), &blobs)?,
                    )?);
                    got[slot] = true;
                    contributors.push(slot);
                }
                Err(Error::Hangup { peer }) if peer >= 1 => {
                    mark_dead(&mut dead, peer - 1)?;
                }
                // Silence past the deadline: every slot still owing a
                // contribution lost its frame — count them all out (dead
                // leader ⇒ abort via `mark_dead`).
                Err(Error::Timeout { .. }) => {
                    for slot in 0..p {
                        if !dead[slot] && !got[slot] {
                            mark_dead(&mut dead, slot)?;
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        let Some(agg) = agg else {
            // Unreachable in practice: losing every contributor implies
            // losing the leader, which aborts above.
            return Err(Error::violation("no participant contributed partials"));
        };
        let blobs: Vec<Vec<u8>> = agg.iter().map(|c| he.ct_to_bytes(c)).collect();
        let msg = if dead.iter().any(|&d| d) {
            contributors.sort_unstable();
            ProtoMsg::AggregatedPartial(blobs, contributors)
        } else {
            ProtoMsg::Aggregated(blobs)
        };
        ctx.send(1, msg)?;
        // Barrier: wait for the leader to finish the whole query before
        // starting the next one. An unresponsive leader is as fatal as a
        // dead one.
        match ctx.recv_from_timeout(1, PHASE_TIMEOUT)? {
            ProtoMsg::QueryDone => {}
            other => return Err(Error::violation(format!("expected QueryDone, got {other:?}"))),
        }
    }
    Ok((0..p).filter(|&s| dead[s]).collect())
}

/// A participant: computes partial distances, streams rankings (Fagin),
/// encrypts what the server asks for, and reports `d_T^p` to the leader.
/// Slot 0 (node 1) additionally acts as the leader: it tolerates peer
/// participants dying (their `d_t` entries become `0.0`), but errors out
/// if the server goes away.
///
/// Generic over the transport: the simulated cluster's [`NodeCtx`] and
/// `vfps-cluster`'s daemon-side socket channel run this exact function.
///
/// # Errors
/// Typed [`Error`] when the server (or, for a non-leader, the leader)
/// dies, the transport fails, or a peer violates the protocol state
/// machine.
pub fn knn_participant_node<H: AdditiveHe, C: Channel<ProtoMsg>>(
    ctx: &C,
    he: &Arc<H>,
    shared: &KnnSession,
    slot: usize,
    view: &Matrix,
    query_feats: &[Vec<f64>],
) -> Result<KnnNodeOut, Error> {
    let p = shared.parties.len();
    let n = shared.db_rows.len();
    let is_leader = slot == 0;
    let mut outcomes = Vec::new();
    // Leader-observed dead slots, persistent across queries.
    let mut dead = vec![false; p];

    for (qi, qfeat) in query_feats.iter().enumerate() {
        let query_row = shared.queries[qi];
        // Partial distances by database position; self excluded via +inf.
        let self_pos = shared.db_rows.iter().position(|&r| r == query_row);
        let partials: Vec<f64> = (0..n)
            .map(|i| {
                if Some(i) == self_pos {
                    f64::INFINITY
                } else {
                    squared_distance(qfeat, view.row(i))
                }
            })
            .collect();

        // Which pseudo IDs to encrypt.
        let candidate_pseudos: Vec<usize> = match shared.cfg.mode {
            KnnMode::Base | KnnMode::Threshold | KnnMode::Nra => {
                match ctx.recv_from_timeout(0, PHASE_TIMEOUT)? {
                    ProtoMsg::Candidates(_) => (0..n).map(|pos| shared.perm[pos]).collect(),
                    other => {
                        return Err(Error::violation(format!("expected Candidates, got {other:?}")))
                    }
                }
            }
            KnnMode::Fagin => {
                // Sorted pseudo-ID ranking, streamed on demand.
                let mut ranking: Vec<usize> = (0..n).collect();
                ranking.sort_by(|&a, &b| partials[a].total_cmp(&partials[b]).then(a.cmp(&b)));
                let pseudo_ranking: Vec<usize> =
                    ranking.iter().map(|&pos| shared.perm[pos]).collect();
                let mut cursor = 0usize;
                loop {
                    match ctx.recv_from_timeout(0, PHASE_TIMEOUT)? {
                        ProtoMsg::NeedBatch => {
                            let end = (cursor + shared.cfg.batch).min(n);
                            ctx.send(0, ProtoMsg::RankBatch(pseudo_ranking[cursor..end].to_vec()))?;
                            cursor = end;
                        }
                        ProtoMsg::Candidates(c) => break c,
                        other => {
                            return Err(Error::violation(format!(
                                "expected NeedBatch/Candidates, got {other:?}"
                            )))
                        }
                    }
                }
            }
        };

        // Encrypt candidate partial distances in candidate order, chunked.
        // Infinite self-distance is clamped to a large sentinel the codec
        // can represent; it can never win the top-k.
        let values: Vec<f64> = candidate_pseudos
            .iter()
            .map(|&pseudo| {
                let v = partials[shared.inv[pseudo]];
                if v.is_finite() {
                    v
                } else {
                    SELF_EXCLUDE_SENTINEL
                }
            })
            .collect();
        let chunk = he.max_batch().max(1);
        let chunks: Vec<&[f64]> = values.chunks(chunk).collect();
        let blobs: Vec<Vec<u8>> = {
            vfps_obs::span!("protocol.participant.encrypt_candidates");
            vfps_obs::counter_add("protocol.encrypted_values", values.len() as u64);
            he.encrypt_many(&chunks)
                .map_err(|_| Error::violation("unencryptable batch"))?
                .iter()
                .map(|ct| he.ct_to_bytes(ct))
                .collect()
        };
        ctx.send(0, ProtoMsg::EncPartials(blobs))?;

        // Leader: decrypt aggregate, pick top-k, broadcast.
        let topk_pseudos: Vec<usize> = if is_leader {
            let (blobs, contributors): (Vec<Vec<u8>>, Vec<usize>) =
                match ctx.recv_from_timeout(0, PHASE_TIMEOUT)? {
                    ProtoMsg::Aggregated(b) => (b, (0..p).collect()),
                    ProtoMsg::AggregatedPartial(b, c) => (b, c),
                    other => {
                        return Err(Error::violation(format!("expected Aggregated, got {other:?}")))
                    }
                };
            for s in 0..p {
                if !contributors.contains(&s) {
                    dead[s] = true;
                }
            }
            let complete = {
                vfps_obs::span!("protocol.leader.decrypt");
                he_wire::decrypt(he.as_ref(), &blobs, candidate_pseudos.len())?
            };
            let mut scored: Vec<(usize, f64)> =
                candidate_pseudos.iter().copied().zip(complete).collect();
            scored.sort_by(|a, b| a.1.total_cmp(&b.1).then(shared.inv[a.0].cmp(&shared.inv[b.0])));
            let k = shared.cfg.k.min(scored.len());
            let top: Vec<usize> = scored[..k].iter().map(|e| e.0).collect();
            for peer in 0..p {
                if peer != slot
                    && !dead[peer]
                    && !ctx.is_departed(1 + peer)
                    && !send_or_gone(ctx, 1 + peer, ProtoMsg::TopkIds(top.clone()))?
                {
                    dead[peer] = true;
                }
            }
            top
        } else {
            match ctx.recv_from_timeout(1, PHASE_TIMEOUT)? {
                ProtoMsg::TopkIds(ids) => ids,
                other => return Err(Error::violation(format!("expected TopkIds, got {other:?}"))),
            }
        };

        // Everyone computes d_T^p and reports to the leader.
        let d_t_own: f64 = topk_pseudos.iter().map(|&pseudo| partials[shared.inv[pseudo]]).sum();
        if is_leader {
            let mut d_t = vec![0.0f64; p];
            d_t[0] = d_t_own;
            let mut got = vec![false; p];
            got[0] = true;
            loop {
                for s in 1..p {
                    if !dead[s] && !got[s] && ctx.is_departed(1 + s) {
                        dead[s] = true;
                    }
                }
                if (0..p).all(|s| got[s] || dead[s]) {
                    break;
                }
                match ctx.recv_timeout(PHASE_TIMEOUT) {
                    Ok(env) => {
                        let ProtoMsg::DtSum(v) = env.msg else {
                            return Err(Error::violation(format!(
                                "expected DtSum from node {}, got {:?}",
                                env.from, env.msg
                            )));
                        };
                        d_t[env.from - 1] = v;
                        got[env.from - 1] = true;
                    }
                    // A dying peer participant zero-fills its entry; the
                    // server hanging up is fatal (the QueryDone barrier
                    // and all later queries need it).
                    Err(Error::Hangup { peer }) if peer >= 2 => dead[peer - 1] = true,
                    // Silence past the deadline: whoever still owes a sum
                    // lost its frame; zero-fill them all.
                    Err(Error::Timeout { .. }) => {
                        for s in 1..p {
                            if !dead[s] && !got[s] {
                                dead[s] = true;
                            }
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
            let d_t_total = d_t.iter().sum();
            ctx.send(0, ProtoMsg::QueryDone)?;
            outcomes.push(QueryOutcome {
                topk_rows: topk_pseudos
                    .iter()
                    .map(|&pseudo| shared.db_rows[shared.inv[pseudo]])
                    .collect(),
                d_t,
                d_t_total,
                candidates: candidate_pseudos.len(),
            });
        } else {
            ctx.send(1, ProtoMsg::DtSum(d_t_own))?;
        }
    }
    Ok((outcomes, (0..p).filter(|&s| dead[s]).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fed_knn::FedKnn;
    use vfps_he::scheme::{PaillierHe, PlainHe};
    use vfps_net::wire::Wire;

    fn toy() -> (Matrix, VerticalPartition) {
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0, 0.0, 0.0],
            vec![0.1, 0.0, 0.1, 0.0],
            vec![0.0, 0.2, 0.0, 0.1],
            vec![5.0, 5.0, 5.0, 5.0],
            vec![5.1, 5.0, 4.9, 5.0],
            vec![5.0, 5.2, 5.0, 5.1],
            vec![2.5, 2.5, 2.5, 2.5],
            vec![9.0, 9.0, 9.0, 9.0],
        ]);
        (x, VerticalPartition::even(4, 2))
    }

    #[test]
    fn threaded_plain_matches_logical_engine() {
        let (x, part) = toy();
        let db: Vec<usize> = (0..8).collect();
        let queries = vec![0usize, 3, 6];
        for mode in [KnnMode::Base, KnnMode::Fagin] {
            let cfg = FedKnnConfig { k: 3, mode, batch: 2, cost_scale: 1.0 };
            let he = Arc::new(PlainHe::new(4));
            let run = run_threaded_knn(&he, &x, &part, &[0, 1], &db, &queries, cfg, 77);
            assert!(run.dropouts.is_empty());
            let engine = FedKnn::new(&x, &part, &[0, 1], &db, cfg);
            let mut ledger = vfps_net::cost::OpLedger::default();
            for (qi, &q) in queries.iter().enumerate() {
                let expect = engine.query(q, &mut ledger);
                let got = &run.outcomes[qi];
                let mut a = expect.topk_rows.clone();
                let mut b = got.topk_rows.clone();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "{mode:?} query {q}");
                for (x1, x2) in expect.d_t.iter().zip(&got.d_t) {
                    assert!((x1 - x2).abs() < 1e-6, "{mode:?} d_t mismatch");
                }
            }
            assert!(run.total_bytes > 0);
        }
    }

    #[test]
    fn threaded_paillier_end_to_end() {
        let (x, part) = toy();
        let db: Vec<usize> = (0..8).collect();
        let queries = vec![0usize, 4];
        let cfg = FedKnnConfig { k: 2, mode: KnnMode::Fagin, batch: 3, cost_scale: 1.0 };
        let he = Arc::new(PaillierHe::generate(128, 8, 5).unwrap());
        let run = run_threaded_knn(&he, &x, &part, &[0, 1], &db, &queries, cfg, 3);
        // Query 0's nearest two are rows 1 and 2; query 4's are 3 and 5.
        let mut q0 = run.outcomes[0].topk_rows.clone();
        q0.sort_unstable();
        assert_eq!(q0, vec![1, 2]);
        let mut q4 = run.outcomes[1].topk_rows.clone();
        q4.sort_unstable();
        assert_eq!(q4, vec![3, 5]);
    }

    #[test]
    fn fagin_moves_fewer_bytes_than_base_with_real_ciphertexts() {
        let (x, part) = toy();
        let db: Vec<usize> = (0..8).collect();
        let queries = vec![0usize];
        let he = Arc::new(PaillierHe::generate(128, 8, 6).unwrap());
        let base_cfg = FedKnnConfig { k: 2, mode: KnnMode::Base, batch: 2, cost_scale: 1.0 };
        let fagin_cfg = FedKnnConfig { k: 2, mode: KnnMode::Fagin, batch: 2, cost_scale: 1.0 };
        let base = run_threaded_knn(&he, &x, &part, &[0, 1], &db, &queries, base_cfg, 9);
        let fagin = run_threaded_knn(&he, &x, &part, &[0, 1], &db, &queries, fagin_cfg, 9);
        assert!(
            fagin.outcomes[0].candidates < base.outcomes[0].candidates,
            "fagin candidates {} vs base {}",
            fagin.outcomes[0].candidates,
            base.outcomes[0].candidates
        );
    }

    #[test]
    fn proto_messages_roundtrip() {
        let msgs = vec![
            ProtoMsg::NeedBatch,
            ProtoMsg::RankBatch(vec![1, 2, 3]),
            ProtoMsg::Candidates(vec![]),
            ProtoMsg::EncPartials(vec![vec![1, 2], vec![]]),
            ProtoMsg::Aggregated(vec![vec![0xff; 10]]),
            ProtoMsg::AggregatedPartial(vec![vec![0xaa; 4]], vec![0, 2]),
            ProtoMsg::TopkIds(vec![7]),
            ProtoMsg::DtSum(-1.25),
            ProtoMsg::QueryDone,
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            assert_eq!(bytes.len(), m.encoded_len());
            assert_eq!(ProtoMsg::from_bytes(&bytes).unwrap(), m);
        }
    }
}
