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
//!
//! ## Waves
//!
//! Both node bodies work a **wave** at a time: all of a session's queries,
//! or consecutive runs of them when the session is larger than one frame
//! should carry ([`KnnSession::new`] derives the split). One wave is one
//! exchange — a lock-step Fagin stream that asks each slot for every open
//! query's next batch at once, one candidate announcement, one encrypted
//! contribution per party, one aggregate, one decrypt, one top-k
//! broadcast, one `d_T` report per peer, one barrier — so a round costs
//! the frames of its *slowest* query, not the sum over queries. Each query
//! still sees exactly the feeds, in exactly the order, a wave of one gives
//! it, so outcomes do not depend on the split. Degradation is per wave: a
//! slot that dies is out for every query of the wave it died in.

use crate::fed_knn::{FedKnnConfig, KnnMode, QueryOutcome};
use crate::he_wire;
use crate::outcome;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use vfps_data::VerticalPartition;
use vfps_he::scheme::AdditiveHe;
use vfps_ml::linalg::Matrix;
use vfps_net::channel::Channel;
use vfps_net::cluster::{run_cluster_fallible, ClusterOptions, NodeCtx};
use vfps_net::{Error, FaultPlan, NodeId, TrafficLedger};
use vfps_topk::Ranking;

/// What a party encrypts in place of its `+inf` partial distance at the
/// query's own database position. The leader drops that position by
/// position ([`outcome::leader_pick`]), so the value only has to encode:
/// it stays representable in every scheme's fixed-point plaintext space.
const SELF_EXCLUDE_SENTINEL: f64 = 1e9;

/// Deadline for every blocking receive in the protocol. A dropped frame
/// leaves its sender alive but silent, so peer death alone cannot unblock
/// the receiver — only a deadline can. The longest any receive waits on
/// honest work is one phase of one wave: the parties encrypting, or the
/// leader decrypting, at most [`WAVE_VALUE_BUDGET`] values — see there for
/// what that costs against these ten seconds at each key width.
pub(crate) const PHASE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// Serialized bytes one value can cost in an `EncPartials` or `Aggregated`
/// frame, at worst: a Paillier scheme whose `batch` is 1 spends a whole
/// blob on it — the 12-byte header, one length-prefixed ciphertext of
/// `Z_{n²}` (`2 · key_bits` bits) and the blob's own length prefix.
const fn unpacked_value_bytes(key_bits: usize) -> usize {
    12 + 4 + key_bits / 4 + 4
}

/// Values one protocol frame may carry; a wave is as many queries as fit
/// ([`KnnSession::new`]). A wave's largest frame is one party's
/// `EncPartials` (or the aggregate of them): at most `wave × n` values.
///
/// **Bytes.** The budget is what fits `MAX_FRAME_BYTES` (less a KiB for the
/// frame's own tag, count and contributor list) at the worst bytes per
/// value any scheme a `SchemeSpec` can name produces —
/// [`unpacked_value_bytes`] under the widest key `generate_keypair` grants,
/// 2 068 — which makes it 8 112 values. So a session whose single queries
/// fit a frame (`n` ≤ the budget; a wave is never shorter than one query)
/// has no wave that does not, whatever the key width and `batch`. The
/// usual schemes sit far below the cap: packed Paillier spends ≈ 15–17
/// bytes a value at any width (a 256-bit key packs 4 values into 68 bytes),
/// `PlainHe` 8, the id lists 4 — under 160 KiB a frame.
///
/// **Time.** One phase of a wave is at most the budget's worth of HE work
/// between two deadlines. Measured on one core of the 2-vCPU development
/// host, a Xeon with AVX-512 IFMA (`batch` ≥ the key's slot count, noise
/// pool cold, ranges over three runs), a full budget costs to decrypt / to
/// encrypt on the scalar kernel 18–20 / 3–5 ms at 128-bit keys, 24–37 /
/// 7–11 ms at 256, 93–106 / 29–36 ms at 512 and 0.36–0.40 / 0.09–0.13 s at
/// 1 024; on the eight-lane kernel, which `vfps_he` runs where CPUID has
/// IFMA, 5–6 / 2 ms at 128, 7–8 / 2–3 ms at 256, 16–20 / 6–8 ms at 512,
/// and 55–73 ms to decrypt at 1 024 (its encryption, modulo a 2 048-bit
/// `n²`, stays scalar). Wider keys run the scalar kernel only: 1.6–1.9 /
/// 0.5–0.6 s at 2 048 (the width SECURITY.md asks a deployment for: a
/// sixth of [`PHASE_TIMEOUT`]; a faster spell of the same host read
/// 0.93 / 0.28 s), 5.7–6.9 / 2.1–2.3 s at 4 096 — where key generation
/// alone took 5.9 s of the hub's 10 s setup deadline. Wider keys were not
/// measured. A `batch` *below* the slot count spends a
/// ciphertext group on fewer values than it holds and multiplies these
/// figures by the shortfall (up to 34× at 2 048 bits with `batch` 1):
/// such a session must keep `queries × n` small, as it already had to keep
/// `n`.
///
/// At the benchmark's N = 960 the budget is 8 queries a wave: its round
/// of 8 is one wave.
const WAVE_VALUE_BUDGET: usize =
    (vfps_net::MAX_FRAME_BYTES - 1024) / unpacked_value_bytes(vfps_he::paillier::MAX_KEY_BITS);

/// Protocol messages. Ciphertexts travel as opaque scheme-serialized
/// blobs; pseudo IDs and wave-relative query indices travel as `u32`.
///
/// The id-carrying variants describe a whole wave. They were re-declared
/// under fresh tags when the exchange became per-wave: tags 0, 1, 2, 5, 6
/// and 7 (the per-query messages) are retired and refuse to decode, so
/// nodes from either side of that change fail with a typed violation
/// instead of misreading each other.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtoMsg {
    /// Server → participant: send the next rank mini-batch of each of
    /// these queries of the wave (ascending wave-relative indices).
    NeedBatch(Vec<u32>),
    /// Participant → server: one mini-batch of pseudo IDs per asked query,
    /// in asked order; an empty batch means that ranking is exhausted.
    RankBatch(Vec<Vec<u32>>),
    /// Server → participants: Fagin finished; encrypt these pseudo IDs
    /// (one list per query of the wave).
    Candidates(Vec<Vec<u32>>),
    /// Server → participants (Base mode): encrypt every instance, for
    /// every query of the wave. Stands for the list `0..n` without
    /// shipping it; it still gates encryption on the server being ready
    /// to aggregate, so one wave's ciphertexts cannot interleave with the
    /// previous wave's.
    AllCandidates,
    /// Participant → server: the wave's encrypted partial distances,
    /// concatenated in query order and chunked by the scheme's batch.
    EncPartials(Vec<Vec<u8>>),
    /// Server → leader: homomorphically aggregated chunks.
    Aggregated(Vec<Vec<u8>>),
    /// Server → leader: aggregated chunks from a *reduced* contributor
    /// set (second field: the participant slots that contributed, sorted).
    /// Sent instead of [`ProtoMsg::Aggregated`] only when at least one
    /// participant has dropped out, so fault-free runs stay byte-identical.
    AggregatedPartial(Vec<Vec<u8>>, Vec<usize>),
    /// Leader → participants: the selected top-k pseudo IDs, per query.
    TopkIds(Vec<Vec<u32>>),
    /// Participant → leader: its `d_T^p` sum, per query.
    DtSum(Vec<f64>),
    /// Leader → server: the wave is fully processed; start the next one.
    /// This barrier prevents a fast participant's next-wave messages from
    /// interleaving with the current wave's aggregation.
    WaveDone,
}

vfps_net::wire_enum!(ProtoMsg {
    3 => EncPartials(blobs),
    4 => Aggregated(blobs),
    8 => AggregatedPartial(blobs, slots),
    9 => NeedBatch(queries),
    10 => RankBatch(batches),
    11 => Candidates(lists),
    12 => AllCandidates,
    13 => TopkIds(lists),
    14 => DtSum(sums),
    15 => WaveDone,
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
    /// Per query: its own database position, if it has one
    /// ([`outcome::self_position`]).
    self_pos: Vec<Option<usize>>,
    /// Queries per wave, derived from the database size so that both ends
    /// of a setup frame agree on the split. Private: only this module's
    /// tests ever run a session under another split.
    wave_len: usize,
}

impl KnnSession {
    /// Builds a session, deriving the pseudo-ID permutation from
    /// `shuffle_seed` (paper §IV-B step ①) — the one deterministic input
    /// every node must agree on.
    ///
    /// The session's queries run in waves of as many queries as keep
    /// `wave × n` within the per-frame value budget (at least one).
    ///
    /// # Panics
    /// Panics on an empty consortium or database, or a database whose
    /// positions do not fit the wire's `u32` ids.
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
        let n = db_rows.len();
        assert!(u32::try_from(n).is_ok(), "pseudo ids travel as u32: {n} rows do not fit");
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
            self_pos: queries.iter().map(|&q| outcome::self_position(db_rows, q)).collect(),
            wave_len: (WAVE_VALUE_BUDGET / n).max(1),
        }
    }

    /// Queries per wave (the last wave may be shorter). Test support: the
    /// integration suites size a multi-wave session with it instead of
    /// repeating the budget; nothing outside tests reads it.
    #[doc(hidden)]
    #[must_use]
    pub fn wave_len(&self) -> usize {
        self.wave_len
    }

    /// The waves, in protocol order: consecutive runs of query indices.
    fn waves(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let q = self.queries.len();
        (0..q).step_by(self.wave_len).map(move |start| start..(start + self.wave_len).min(q))
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
    let session = KnnSession::new(parties, db_rows, queries, cfg, shuffle_seed);
    run_session(he, x, partition, session, faults)
}

/// Runs `session` over the simulated cluster, one thread per node.
fn run_session<H>(
    he: &Arc<H>,
    x: &Matrix,
    partition: &VerticalPartition,
    session: KnnSession,
    faults: &FaultPlan,
) -> FaultedRun
where
    H: AdditiveHe + 'static,
{
    let shared = Arc::new(session);
    let p = shared.parties.len();

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

/// Where ids enter a node: `list` must hold at most `max_len` ids, each
/// below `bound`. Whatever a peer sends is indexed with only after passing
/// here, so a frame that lies is a violation, never an out-of-bounds panic.
fn checked_ids(
    what: &str,
    list: Vec<u32>,
    max_len: usize,
    bound: usize,
) -> Result<Vec<usize>, Error> {
    if list.len() > max_len {
        return Err(Error::violation(format!(
            "{what}: a list of {} where at most {max_len} fit",
            list.len()
        )));
    }
    list.into_iter()
        .map(|id| match id as usize {
            id if id < bound => Ok(id),
            id => Err(Error::violation(format!("{what}: {id} outside 0..{bound}"))),
        })
        .collect()
}

/// [`checked_ids`] over a frame that owes exactly `due` lists.
fn checked_id_lists(
    what: &str,
    lists: Vec<Vec<u32>>,
    due: usize,
    max_len: usize,
    bound: usize,
) -> Result<Vec<Vec<usize>>, Error> {
    if lists.len() != due {
        return Err(Error::violation(format!(
            "{what}: {} lists where {due} were due",
            lists.len()
        )));
    }
    lists.into_iter().map(|list| checked_ids(what, list, max_len, bound)).collect()
}

/// Ids as they travel. [`KnnSession::new`] refuses a database whose
/// positions do not fit, and a wave is shorter than the value budget.
fn wire_ids(ids: &[usize]) -> Vec<u32> {
    ids.iter().map(|&id| id as u32).collect()
}

/// The server's half of a wave's Fagin stream: one [`StreamingFagin`] per
/// query, fed round-robin and lock-step per slot. Each `NeedBatch` names
/// every query that is neither complete nor exhausted on that slot —
/// completion is re-read per query before each slot is asked — so a query
/// is fed exactly the batches, in exactly the order, it would be fed alone:
/// the server stops asking for it the moment it completes. A dead slot
/// counts as exhausted for every query: Fagin completion needs every list,
/// so with a dead slot a stream instead terminates when the survivors have
/// fed every id. Returns the candidate list of each query.
///
/// A slot streams disjoint slices of one ranking, so an id it already
/// sent for a query — in the same batch or an earlier one — is refused:
/// the stream would count the repeat as another party's sighting and
/// could stop before the true top-k surfaced.
///
/// [`StreamingFagin`]: vfps_topk::stream::StreamingFagin
fn stream_wave<C: Channel<ProtoMsg>>(
    ctx: &C,
    shared: &KnnSession,
    wave_len: usize,
    dead: &mut [bool],
) -> Result<Vec<Vec<u32>>, Error> {
    vfps_obs::span!("protocol.server.fagin_stream");
    let p = shared.parties.len();
    let n = shared.db_rows.len();
    let mut streams: Vec<_> = (0..wave_len)
        .map(|_| vfps_topk::stream::StreamingFagin::new(p, n, shared.cfg.k.min(n)))
        .collect();
    // exhausted[slot][query]
    let mut exhausted: Vec<Vec<bool>> = dead.iter().map(|&d| vec![d; wave_len]).collect();
    // streamed[slot][query][id]
    let mut streamed = vec![vec![vec![false; n]; wave_len]; p];
    loop {
        let mut asked_any = false;
        for slot in 0..p {
            let open: Vec<usize> = (0..wave_len)
                .filter(|&q| !streams[q].is_complete() && !exhausted[slot][q])
                .collect();
            if open.is_empty() {
                continue;
            }
            asked_any = true;
            let answer = if ctx.is_departed(1 + slot)
                || !send_or_gone(ctx, 1 + slot, ProtoMsg::NeedBatch(wire_ids(&open)))?
            {
                None
            } else {
                match ctx.recv_from_timeout(1 + slot, PHASE_TIMEOUT) {
                    Ok(ProtoMsg::RankBatch(batches)) => Some(checked_id_lists(
                        "RankBatch",
                        batches,
                        open.len(),
                        shared.cfg.batch,
                        n,
                    )?),
                    Ok(other) => {
                        return Err(Error::violation(format!("expected RankBatch, got {other:?}")))
                    }
                    // A hangup of this slot, or silence past the deadline
                    // (its frame was lost in flight): either way the slot
                    // will never answer.
                    Err(e) if e.is_hangup_of(1 + slot) => None,
                    Err(Error::Timeout { .. }) => None,
                    Err(e) => return Err(e),
                }
            };
            let Some(batches) = answer else {
                mark_dead(dead, slot)?;
                exhausted[slot].fill(true);
                continue;
            };
            for (q, ids) in open.into_iter().zip(batches) {
                if ids.is_empty() {
                    exhausted[slot][q] = true;
                    continue;
                }
                for &id in &ids {
                    if std::mem::replace(&mut streamed[slot][q][id], true) {
                        return Err(Error::violation(format!(
                            "RankBatch: {id} already streamed by slot {slot}"
                        )));
                    }
                }
                streams[q].feed(slot, &ids);
            }
        }
        if !asked_any {
            break;
        }
    }
    Ok(streams.iter().map(|sf| wire_ids(sf.candidates())).collect())
}

/// The aggregation server: per wave, gathers (or Fagin-selects) encrypted
/// partials, sums them homomorphically, and forwards to the leader.
/// Participant death marks the slot dead and the wave continues over the
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
    let mut dead = vec![false; p];
    for wave in shared.waves() {
        vfps_obs::span!("protocol.server.wave");
        // Participants only ever encrypt once the server is ready to
        // aggregate — without the announcement, a fast participant's
        // next-wave ciphertexts could interleave with this wave's.
        let announce = match shared.cfg.mode {
            KnnMode::Fagin => {
                ProtoMsg::Candidates(stream_wave(ctx, shared, wave.len(), &mut dead)?)
            }
            KnnMode::Base => ProtoMsg::AllCandidates,
        };
        for slot in 0..p {
            if !dead[slot] && !send_or_gone(ctx, 1 + slot, announce.clone())? {
                mark_dead(&mut dead, slot)?;
            }
        }

        // Gather encrypted chunks from every live participant, decoding
        // and checking each on arrival, then sum them in arrival order
        // (HE addition commutes, so arrival order does not change the
        // aggregate).
        vfps_obs::span!("protocol.server.aggregate");
        let mut contributions: Vec<Vec<H::Ciphertext>> = Vec::new();
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
                    he_wire::admit(
                        he.as_ref(),
                        &mut contributions,
                        he_wire::decode(he.as_ref(), &blobs)?,
                    )?;
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
        let blobs = he_wire::aggregate(he.as_ref(), &contributions)?;
        let msg = if dead.iter().any(|&d| d) {
            contributors.sort_unstable();
            ProtoMsg::AggregatedPartial(blobs, contributors)
        } else {
            ProtoMsg::Aggregated(blobs)
        };
        ctx.send(1, msg)?;
        // Barrier: wait for the leader to finish the whole wave before
        // starting the next one. An unresponsive leader is as fatal as a
        // dead one.
        match ctx.recv_from_timeout(1, PHASE_TIMEOUT)? {
            ProtoMsg::WaveDone => {}
            other => return Err(Error::violation(format!("expected WaveDone, got {other:?}"))),
        }
    }
    Ok((0..p).filter(|&s| dead[s]).collect())
}

/// A participant: per wave, computes partial distances, streams rankings
/// (Fagin), encrypts what the server asks for, and reports `d_T^p` to the
/// leader. Slot 0 (node 1) additionally acts as the leader: it tolerates
/// peer participants dying (their `d_t` entries become `0.0` for every
/// query of the wave), but errors out if the server goes away.
///
/// Generic over the transport: the simulated cluster's [`NodeCtx`] and
/// `vfps-cluster`'s daemon-side socket channel run this exact function.
///
/// # Errors
/// Typed [`Error`] when the server (or, for a non-leader, the leader)
/// dies, the transport fails, or a peer violates the protocol state
/// machine — an id, index or list count outside the session's bounds
/// included.
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
    let mut outcomes = Vec::with_capacity(shared.queries.len());
    // Leader-observed dead slots, persistent across waves.
    let mut dead = vec![false; p];
    // One feature per row: the layout the partial-distance kernel reads.
    let view_t = view.transpose();

    for wave in shared.waves() {
        let wave_len = wave.len();
        let self_pos = &shared.self_pos[wave.clone()];
        let partials: Vec<Vec<f64>> = wave
            .zip(self_pos)
            .map(|(qi, &own)| outcome::partial_distances(&view_t, &query_feats[qi], own))
            .collect();

        // Which pseudo IDs to encrypt, per query.
        let candidates: Vec<Vec<usize>> = match shared.cfg.mode {
            KnnMode::Base => match ctx.recv_from_timeout(0, PHASE_TIMEOUT)? {
                ProtoMsg::AllCandidates => vec![shared.perm.clone(); wave_len],
                other => {
                    return Err(Error::violation(format!("expected AllCandidates, got {other:?}")))
                }
            },
            KnnMode::Fagin => {
                // One ranking and cursor per query, ranked only as far as
                // the server asks; positions travel as pseudo IDs.
                let mut rankings: Vec<Ranking> =
                    partials.iter().map(|d| Ranking::of_scores(d)).collect();
                let mut cursors = vec![0usize; wave_len];
                loop {
                    match ctx.recv_from_timeout(0, PHASE_TIMEOUT)? {
                        ProtoMsg::NeedBatch(asked) => {
                            let batches = checked_ids("NeedBatch", asked, wave_len, wave_len)?
                                .into_iter()
                                .map(|q| {
                                    let start = cursors[q];
                                    cursors[q] = start.saturating_add(shared.cfg.batch).min(n);
                                    rankings[q].prefix(cursors[q])[start..]
                                        .iter()
                                        .map(|e| shared.perm[e.id()] as u32)
                                        .collect()
                                })
                                .collect();
                            ctx.send(0, ProtoMsg::RankBatch(batches))?;
                        }
                        ProtoMsg::Candidates(lists) => {
                            break checked_id_lists("Candidates", lists, wave_len, n, n)?
                        }
                        other => {
                            return Err(Error::violation(format!(
                                "expected NeedBatch/Candidates, got {other:?}"
                            )))
                        }
                    }
                }
            }
        };

        // Encrypt the wave's candidate partial distances — query by query,
        // each in candidate order — chunked as one run. The infinite
        // self-distance travels as a sentinel the codec can represent.
        let values: Vec<f64> = candidates
            .iter()
            .zip(&partials)
            .flat_map(|(ids, d)| {
                ids.iter().map(|&pseudo| {
                    let v = d[shared.inv[pseudo]];
                    if v.is_finite() {
                        v
                    } else {
                        SELF_EXCLUDE_SENTINEL
                    }
                })
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

        // Leader: decrypt the wave's aggregate, pick each query's top-k
        // database positions, broadcast them as pseudo IDs.
        let topk: Vec<Vec<usize>> = if is_leader {
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
                he_wire::decrypt(he.as_ref(), &blobs, values.len())?
            };
            let mut rest = complete.as_slice();
            let topk: Vec<Vec<usize>> = candidates
                .iter()
                .zip(self_pos)
                .map(|(ids, &own)| {
                    let (mine, tail) = rest.split_at(ids.len());
                    rest = tail;
                    let by_position = ids.iter().zip(mine).map(|(&p, &d)| (d, shared.inv[p]));
                    outcome::leader_pick(by_position, shared.cfg.k, own)
                })
                .collect();
            let msg = ProtoMsg::TopkIds(
                topk.iter()
                    .map(|pick| pick.iter().map(|&pos| shared.perm[pos] as u32).collect())
                    .collect(),
            );
            for peer in 0..p {
                if peer != slot
                    && !dead[peer]
                    && !ctx.is_departed(1 + peer)
                    && !send_or_gone(ctx, 1 + peer, msg.clone())?
                {
                    dead[peer] = true;
                }
            }
            topk
        } else {
            match ctx.recv_from_timeout(1, PHASE_TIMEOUT)? {
                ProtoMsg::TopkIds(lists) => {
                    checked_id_lists("TopkIds", lists, wave_len, shared.cfg.k, n)?
                        .into_iter()
                        .map(|ids| ids.into_iter().map(|pseudo| shared.inv[pseudo]).collect())
                        .collect()
                }
                other => return Err(Error::violation(format!("expected TopkIds, got {other:?}"))),
            }
        };

        // Everyone computes d_T^p per query and reports to the leader.
        let d_t_own: Vec<f64> =
            topk.iter().zip(&partials).map(|(pick, d)| outcome::d_t(d, pick)).collect();
        if !is_leader {
            ctx.send(1, ProtoMsg::DtSum(d_t_own))?;
            continue;
        }
        // sums[slot][query]; a slot that never reports stays zero-filled.
        let mut sums = vec![vec![0.0f64; wave_len]; p];
        sums[0] = d_t_own;
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
                    if !(2..=p).contains(&env.from) || v.len() != wave_len {
                        return Err(Error::violation(format!(
                            "DtSum: {} sums from node {}, {wave_len} due from each peer participant",
                            v.len(),
                            env.from
                        )));
                    }
                    sums[env.from - 1] = v;
                    got[env.from - 1] = true;
                }
                // A dying peer participant zero-fills its entry; the
                // server hanging up is fatal (the WaveDone barrier and
                // all later waves need it).
                Err(Error::Hangup { peer }) if peer >= 2 => dead[peer - 1] = true,
                // Silence past the deadline: whoever still owes its sums
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
        ctx.send(0, ProtoMsg::WaveDone)?;
        for (q, (top, ids)) in topk.iter().zip(&candidates).enumerate() {
            let d_t: Vec<f64> = sums.iter().map(|of_slot| of_slot[q]).collect();
            outcomes.push(QueryOutcome {
                topk_rows: top.iter().map(|&pos| shared.db_rows[pos]).collect(),
                d_t_total: d_t.iter().sum(),
                d_t,
                candidates: ids.len(),
            });
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

    /// The protocol ranks every batch it streams; the logical engine takes
    /// every batch but the one its stream stops in as a set. So the
    /// protocol is the reference: on a 100-row random world, for every
    /// consortium size, batch and k, both modes agree query by query on
    /// the top-k set, `d_T` and the candidate count.
    #[test]
    fn threaded_plain_matches_logical_engine() {
        use rand::Rng;
        let features = 10;
        let mut rng = StdRng::seed_from_u64(1010);
        let x = Matrix::from_vec(
            100,
            features,
            (0..100 * features).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        // Rows 96..100 are queries outside the database.
        let db: Vec<usize> = (0..96).collect();
        let queries = vec![0usize, 17, 45, 95, 97, 99];
        for parties in [1usize, 2, 3, 5] {
            let part = VerticalPartition::random(features, parties, 31 + parties as u64);
            let slots: Vec<usize> = (0..parties).collect();
            for batch in [1usize, 2, 7, 30, 100] {
                for k in [1usize, 3, 10] {
                    for mode in [KnnMode::Base, KnnMode::Fagin] {
                        let cfg = FedKnnConfig { k, mode, batch, cost_scale: 1.0 };
                        let case = format!("{mode:?} P={parties} b={batch} k={k}");
                        let he = Arc::new(PlainHe::new(4));
                        let run = run_threaded_knn(&he, &x, &part, &slots, &db, &queries, cfg, 77);
                        assert!(run.dropouts.is_empty(), "{case}");
                        assert!(run.total_bytes > 0, "{case}");
                        let engine = FedKnn::new(&x, &part, &slots, &db, cfg);
                        let mut ledger = vfps_net::cost::OpLedger::default();
                        for (qi, &q) in queries.iter().enumerate() {
                            let expect = engine.query(q, &mut ledger);
                            let got = &run.outcomes[qi];
                            let mut a = expect.topk_rows.clone();
                            let mut b = got.topk_rows.clone();
                            a.sort_unstable();
                            b.sort_unstable();
                            assert_eq!(a, b, "{case} query {q}");
                            assert_eq!(expect.candidates, got.candidates, "{case} query {q}");
                            for (x1, x2) in expect.d_t.iter().zip(&got.d_t) {
                                assert!((x1 - x2).abs() < 1e-6, "{case} query {q}: d_t");
                            }
                        }
                    }
                }
            }
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
            ProtoMsg::NeedBatch(vec![0, 2]),
            ProtoMsg::RankBatch(vec![vec![1, 2, 3], vec![]]),
            ProtoMsg::Candidates(vec![vec![], vec![4]]),
            ProtoMsg::AllCandidates,
            ProtoMsg::EncPartials(vec![vec![1, 2], vec![]]),
            ProtoMsg::Aggregated(vec![vec![0xff; 10]]),
            ProtoMsg::AggregatedPartial(vec![vec![0xaa; 4]], vec![0, 2]),
            ProtoMsg::TopkIds(vec![vec![7]]),
            ProtoMsg::DtSum(vec![-1.25, 0.0]),
            ProtoMsg::WaveDone,
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            assert_eq!(bytes.len(), m.encoded_len());
            assert_eq!(ProtoMsg::from_bytes(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn the_wave_length_follows_the_value_budget() {
        let cfg = FedKnnConfig { k: 1, mode: KnnMode::Base, batch: 1, cost_scale: 1.0 };
        let session = |n: usize, q: usize| {
            let rows: Vec<usize> = (0..n).collect();
            KnnSession::new(&[0], &rows, &vec![0; q], cfg, 1)
        };
        assert_eq!(WAVE_VALUE_BUDGET, 8112);
        assert_eq!(session(960, 8).wave_len, 8);
        assert_eq!(session(960, 8).waves().collect::<Vec<_>>(), vec![0..8]);
        assert_eq!(session(960, 17).waves().collect::<Vec<_>>(), vec![0..8, 8..16, 16..17]);
        // A database larger than the budget still runs, a query a wave.
        assert_eq!(session(WAVE_VALUE_BUDGET + 1, 2).waves().collect::<Vec<_>>(), vec![0..1, 1..2]);
        assert_eq!(session(8, 0).waves().count(), 0);
    }

    /// The budget's byte bound rests on [`unpacked_value_bytes`]: a real
    /// one-value blob, length prefix included, is never longer.
    #[test]
    fn an_unpacked_value_serializes_within_its_bound() {
        for key_bits in [64usize, 128, 256] {
            let he = PaillierHe::generate(key_bits, 1, 3).unwrap();
            for v in [0.0, 1.5, SELF_EXCLUDE_SENTINEL] {
                let blob = he.ct_to_bytes(&he.encrypt(&[v]).unwrap());
                assert!(
                    blob.encoded_len() <= unpacked_value_bytes(key_bits),
                    "{key_bits}-bit key: {} bytes",
                    blob.encoded_len()
                );
            }
        }
        let frame = WAVE_VALUE_BUDGET * unpacked_value_bytes(vfps_he::paillier::MAX_KEY_BITS);
        assert!(frame + 1024 <= vfps_net::MAX_FRAME_BYTES);
    }

    /// Waves are invisible in outcomes: however a session's queries are
    /// split, every query's outcome is bit-equal to the one-wave run's and
    /// agrees with the logical engine.
    #[test]
    fn any_wave_split_gives_bit_equal_outcomes() {
        use vfps_he::scheme::seeded_uniform;
        let (rows, cols, parties) = (40usize, 6usize, [0usize, 1, 2]);
        let x = Matrix::from_vec(rows, cols, seeded_uniform(0xa11, rows * cols, 0.0, 1.0));
        let part = VerticalPartition::random(cols, parties.len(), 3);
        let db: Vec<usize> = (0..rows).collect();
        let queries = [0usize, 7, 13, 21, 34, 39];

        fn case<H: AdditiveHe + 'static>(
            he: &Arc<H>,
            x: &Matrix,
            part: &VerticalPartition,
            session: &KnnSession,
            label: &str,
        ) {
            let engine = FedKnn::new(x, part, &session.parties, &session.db_rows, session.cfg);
            let mut whole: Option<Vec<QueryOutcome>> = None;
            for wave_len in [session.queries.len(), 3, 2, 1] {
                let session = KnnSession { wave_len, ..session.clone() };
                let waves = session.waves().count();
                let FaultedRun::Complete(run) =
                    run_session(he, x, part, session.clone(), &FaultPlan::default())
                else {
                    panic!("{label}: {waves} waves did not complete");
                };
                let whole = whole.get_or_insert_with(|| run.outcomes.clone());
                assert_eq!(&run.outcomes, whole, "{label}: {waves} waves vs one");

                let mut ledger = vfps_net::cost::OpLedger::default();
                for (&q, got) in session.queries.iter().zip(&run.outcomes) {
                    let want = engine.query(q, &mut ledger);
                    let sorted = |rows: &[usize]| {
                        let mut rows = rows.to_vec();
                        rows.sort_unstable();
                        rows
                    };
                    assert_eq!(sorted(&got.topk_rows), sorted(&want.topk_rows), "{label} q{q}");
                    assert_eq!(got.candidates, want.candidates, "{label} q{q} candidates");
                    for (a, b) in got.d_t.iter().zip(&want.d_t) {
                        assert!((a - b).abs() < 1e-6, "{label} q{q} d_t");
                    }
                }
            }
        }

        for mode in [KnnMode::Base, KnnMode::Fagin] {
            let cfg = FedKnnConfig { k: 4, mode, batch: 3, cost_scale: 1.0 };
            let session = KnnSession::new(&parties, &db, &queries, cfg, 11);
            // Two parties keep PlainHe's f64 aggregate arrival-order-exact.
            let two = KnnSession::new(&parties[..2], &db, &queries, cfg, 11);
            case(&Arc::new(PlainHe::new(16)), &x, &part, &two, &format!("plain {mode:?}"));
            let paillier = Arc::new(PaillierHe::generate(128, 8, 5).unwrap());
            case(&paillier, &x, &part, &session, &format!("paillier {mode:?}"));
        }
    }
}
