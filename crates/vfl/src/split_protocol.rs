//! Thread-per-node split-learning training with real homomorphic
//! encryption — the paper's downstream LR architecture run as an actual
//! protocol (§V-A: "each participant maintains a single linear layer, and
//! the server aggregates the outputs of the participants by summing them";
//! transmitted outputs are HE-protected).
//!
//! Data flow per mini-batch:
//!
//! 1. every participant computes its partial logits `Z_p = X_p · W_p`,
//!    encrypts them, and sends them to the aggregation server;
//! 2. the server homomorphically sums the `P` ciphertext blocks and
//!    forwards the aggregate to the leader;
//! 3. the leader (label holder) decrypts the logits, computes the softmax
//!    cross-entropy gradient `dZ`, and broadcasts it to the participants;
//! 4. each participant updates its own `W_p` with `dW_p = X_pᵀ·dZ / B`
//!    using a local Adam state.
//!
//! Because a linear layer over concatenated features *is* the sum of
//! per-party linear layers, the protocol computes exactly the same model
//! as centralized logistic regression — which the tests verify gradient
//! by gradient.

use crate::he_wire;
use crate::protocol::{ProtoMsg, PHASE_TIMEOUT};
use std::sync::Arc;
use vfps_data::VerticalPartition;
use vfps_he::scheme::AdditiveHe;
use vfps_ml::linalg::Matrix;
use vfps_ml::nn::{cross_entropy, softmax, softmax_ce_grad};
use vfps_ml::optim::Adam;
use vfps_net::cluster::{run_cluster_fallible, ClusterOptions, NodeCtx};
use vfps_net::{Error, FaultPlan};

/// Configuration for a threaded split-LR training run.
#[derive(Clone, Debug)]
pub struct SplitTrainConfig {
    /// Mini-batch size.
    pub batch_size: usize,
    /// Number of epochs (no early stopping in the protocol demo).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl Default for SplitTrainConfig {
    fn default() -> Self {
        SplitTrainConfig { batch_size: 32, epochs: 10, lr: 0.05, seed: 7 }
    }
}

/// Result of a threaded split-training run (as seen by the leader).
#[derive(Debug)]
pub struct SplitTrainRun {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Test predictions from the final model (computed by one last
    /// federated forward pass).
    pub test_predictions: Vec<usize>,
    /// Total bytes moved between nodes.
    pub total_bytes: u64,
}

/// Runs threaded split-LR training, returning the leader's view.
///
/// `train_rows`/`test_rows` index into `x`; labels live only on the leader
/// (node 1). Ciphertexts are chunked by the scheme's batch capacity.
///
/// # Panics
/// Panics on empty inputs or a node failure.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn run_split_training<H>(
    he: &Arc<H>,
    x: &Matrix,
    labels: &[usize],
    n_classes: usize,
    partition: &VerticalPartition,
    parties: &[usize],
    train_rows: &[usize],
    test_rows: &[usize],
    cfg: &SplitTrainConfig,
) -> SplitTrainRun
where
    H: AdditiveHe + 'static,
{
    run_split_training_faulted(
        he,
        x,
        labels,
        n_classes,
        partition,
        parties,
        train_rows,
        test_rows,
        cfg,
        &FaultPlan::default(),
    )
    .expect("fault-free split training failed")
}

/// As [`run_split_training`] under a deterministic [`FaultPlan`].
///
/// Unlike the KNN protocol, split training does **not** degrade on
/// dropout: a participant's weight block is load-bearing for every later
/// batch, so losing any node makes the model unrecoverable and the run
/// returns the typed error the leader observed instead of a partial model.
///
/// # Panics
/// Panics on empty inputs.
#[allow(clippy::too_many_arguments)]
pub fn run_split_training_faulted<H>(
    he: &Arc<H>,
    x: &Matrix,
    labels: &[usize],
    n_classes: usize,
    partition: &VerticalPartition,
    parties: &[usize],
    train_rows: &[usize],
    test_rows: &[usize],
    cfg: &SplitTrainConfig,
    faults: &FaultPlan,
) -> Result<SplitTrainRun, Error>
where
    H: AdditiveHe + 'static,
{
    assert!(!train_rows.is_empty(), "empty training set");
    assert!(!parties.is_empty(), "empty consortium");
    let p = parties.len();
    let n_train = train_rows.len();
    let batches: Vec<(usize, usize)> = {
        let mut v = Vec::new();
        let mut start = 0;
        while start < n_train {
            let end = (start + cfg.batch_size).min(n_train);
            v.push((start, end));
            start = end;
        }
        v
    };

    // Per-party local views of train and test rows.
    let train_views: Vec<Matrix> = parties
        .iter()
        .map(|&party| partition.local_view(&x.select_rows(train_rows), party))
        .collect();
    let test_views: Vec<Matrix> = parties
        .iter()
        .map(|&party| partition.local_view(&x.select_rows(test_rows), party))
        .collect();
    let train_labels: Vec<usize> = train_rows.iter().map(|&r| labels[r]).collect();

    let batches = Arc::new(batches);
    type SplitNodeFn = Box<dyn FnOnce(NodeCtx<ProtoMsg>) -> Result<SplitTrainRun, Error> + Send>;
    let mut fns: Vec<SplitNodeFn> = Vec::with_capacity(p + 1);

    // Node 0: aggregation server — sums encrypted logit blocks.
    {
        let he = Arc::clone(he);
        let batches = Arc::clone(&batches);
        let epochs = cfg.epochs;
        let test_len = test_rows.len();
        fns.push(Box::new(move |ctx| {
            let rounds = epochs * batches.len() + usize::from(test_len > 0);
            // A fast participant may send round r+1's block before a slow
            // one sends round r's, so contributions are buffered per
            // sender and each round pops exactly one block from every
            // participant (per-sender channel order guarantees blocks
            // arrive in round order).
            let mut pending: Vec<std::collections::VecDeque<Vec<H::Ciphertext>>> =
                (0..p).map(|_| std::collections::VecDeque::new()).collect();
            for _ in 0..rounds {
                // Deadline-based: a lost frame must abort the round, not
                // wedge it (split training never degrades — see DESIGN.md
                // §7 — so any silence is fatal).
                while pending.iter().any(std::collections::VecDeque::is_empty) {
                    let env = ctx.recv_timeout(PHASE_TIMEOUT)?;
                    let ProtoMsg::EncPartials(blobs) = env.msg else {
                        return Err(Error::violation("expected EncPartials"));
                    };
                    pending[env.from - 1].push_back(he_wire::decode(he.as_ref(), &blobs)?);
                }
                let mut agg: Option<Vec<H::Ciphertext>> = None;
                for queue in pending.iter_mut() {
                    let cts = queue.pop_front().expect("one block per participant");
                    agg = Some(he_wire::sum_into(he.as_ref(), agg, cts)?);
                }
                let blobs: Vec<Vec<u8>> = agg
                    .expect("at least one participant")
                    .iter()
                    .map(|c| he.ct_to_bytes(c))
                    .collect();
                ctx.send(1, ProtoMsg::Aggregated(blobs))?;
            }
            Ok(SplitTrainRun {
                epoch_losses: Vec::new(),
                test_predictions: Vec::new(),
                total_bytes: 0,
            })
        }));
    }

    // Nodes 1..=P: participants; node 1 is the leader with the labels.
    for slot in 0..p {
        let he = Arc::clone(he);
        let batches = Arc::clone(&batches);
        let train_view = train_views[slot].clone();
        let test_view = test_views[slot].clone();
        let train_labels = train_labels.clone();
        let cfg = cfg.clone();
        fns.push(Box::new(move |ctx| {
            participant_train(
                &ctx,
                &he,
                slot,
                p,
                &train_view,
                &test_view,
                &train_labels,
                n_classes,
                &batches,
                &cfg,
            )
        }));
    }

    let opts = ClusterOptions { ledger: vfps_net::TrafficLedger::new(), faults: faults.clone() };
    let (mut results, ledger) = run_cluster_fallible(fns, opts);
    let mut leader = results.remove(1)?;
    leader.total_bytes = ledger.total_bytes();
    Ok(leader)
}

/// One participant's training loop; the leader (slot 0) additionally owns
/// decryption, loss, and the gradient broadcast.
#[allow(clippy::too_many_arguments)]
fn participant_train<H: AdditiveHe>(
    ctx: &NodeCtx<ProtoMsg>,
    he: &Arc<H>,
    slot: usize,
    p: usize,
    train_view: &Matrix,
    test_view: &Matrix,
    train_labels: &[usize],
    n_classes: usize,
    batches: &[(usize, usize)],
    cfg: &SplitTrainConfig,
) -> Result<SplitTrainRun, Error> {
    let is_leader = slot == 0;
    let f_local = train_view.cols();
    // Xavier-ish init, seeded per slot so runs are reproducible.
    let mut w = {
        let mut rng = vfps_he::scheme::seeded_rng(cfg.seed.wrapping_add(slot as u64 * 31));
        use rand::Rng;
        let bound = (6.0 / (f_local + n_classes) as f64).sqrt();
        let mut m = Matrix::zeros(f_local, n_classes);
        for r in 0..f_local {
            for c in 0..n_classes {
                m.set(r, c, rng.gen_range(-bound..bound));
            }
        }
        m
    };
    let mut adam = Adam::new(f_local * n_classes, cfg.lr);
    let chunk = he.max_batch().max(1);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);

    let forward_send = |w: &Matrix,
                        view: &Matrix,
                        rows: (usize, usize),
                        ctx: &NodeCtx<ProtoMsg>|
     -> Result<Matrix, Error> {
        let idx: Vec<usize> = (rows.0..rows.1).collect();
        let xb = view.select_rows(&idx);
        let z = xb.matmul(w);
        let mut blobs = Vec::new();
        for c in z.as_slice().chunks(chunk) {
            let ct = he.encrypt(c).map_err(|_| Error::violation("unencryptable batch"))?;
            blobs.push(he.ct_to_bytes(&ct));
        }
        ctx.send(0, ProtoMsg::EncPartials(blobs))?;
        Ok(xb)
    };

    // Non-leaders receive the gradient as encrypted chunks from the leader.
    // (In a deployment the leader would encrypt under each participant's
    // key; the simulation shares one scheme handle — see the module docs.)
    let recv_grad = |ctx: &NodeCtx<ProtoMsg>, total: usize| -> Result<Vec<f64>, Error> {
        match ctx.recv_from_timeout(1, PHASE_TIMEOUT)? {
            ProtoMsg::EncPartials(blobs) => he_wire::decrypt(he.as_ref(), &blobs, total),
            other => Err(Error::violation(format!("expected gradient frame, got {other:?}"))),
        }
    };

    for _epoch in 0..cfg.epochs {
        vfps_obs::span!("split.epoch");
        let mut loss_sum = 0.0;
        for &(start, end) in batches {
            let xb = {
                vfps_obs::span!("split.forward");
                forward_send(&w, train_view, (start, end), ctx)?
            };
            let b = end - start;

            // Leader decrypts the aggregate, computes the gradient, and
            // broadcasts it encrypted.
            let grad_span = vfps_obs::span("split.gradient");
            let dz: Matrix = if is_leader {
                let ProtoMsg::Aggregated(blobs) = ctx.recv_from_timeout(0, PHASE_TIMEOUT)? else {
                    return Err(Error::violation("expected Aggregated"));
                };
                let flat = he_wire::decrypt(he.as_ref(), &blobs, b * n_classes)?;
                let logits = Matrix::from_vec(b, n_classes, flat);
                let probs = softmax(&logits);
                let yb = &train_labels[start..end];
                loss_sum += cross_entropy(&probs, yb) * b as f64;
                let dz = softmax_ce_grad(&probs, yb);
                // Broadcast (encrypted — participants share the scheme).
                let mut blobs = Vec::new();
                for c in dz.as_slice().chunks(chunk) {
                    let ct =
                        he.encrypt(c).map_err(|_| Error::violation("unencryptable gradient"))?;
                    blobs.push(he.ct_to_bytes(&ct));
                }
                for peer in 1..p {
                    ctx.send(1 + peer, ProtoMsg::EncPartials(blobs.clone()))?;
                }
                dz
            } else {
                Matrix::from_vec(b, n_classes, recv_grad(ctx, b * n_classes)?)
            };
            drop(grad_span);

            // Local backward + Adam step.
            vfps_obs::span!("split.backward_update");
            let mut dw = xb.t_matmul(&dz);
            dw.scale_inplace(1.0 / b as f64);
            adam.step(w.as_mut_slice(), dw.as_slice());
        }
        if is_leader {
            epoch_losses.push(loss_sum / train_labels.len() as f64);
        }
    }

    // Final federated forward pass over the test set.
    let mut test_predictions = Vec::new();
    if test_view.rows() > 0 {
        let _ = forward_send(&w, test_view, (0, test_view.rows()), ctx)?;
        if is_leader {
            let ProtoMsg::Aggregated(blobs) = ctx.recv_from_timeout(0, PHASE_TIMEOUT)? else {
                return Err(Error::violation("expected Aggregated"));
            };
            let b = test_view.rows();
            let flat = he_wire::decrypt(he.as_ref(), &blobs, b * n_classes)?;
            let logits = Matrix::from_vec(b, n_classes, flat);
            let probs = softmax(&logits);
            test_predictions = (0..b)
                .map(|r| {
                    probs
                        .row(r)
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
                        .map(|(c, _)| c)
                        .unwrap_or(0)
                })
                .collect();
        }
    }

    Ok(SplitTrainRun { epoch_losses, test_predictions, total_bytes: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfps_he::scheme::{PaillierHe, PlainHe};
    use vfps_ml::metrics::accuracy;

    /// Two separable blobs over four features split across two parties.
    fn blob_data(n: usize, seed: u64) -> (Matrix, Vec<usize>) {
        let mut rng = vfps_he::scheme::seeded_rng(seed);
        use rand::Rng;
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let c = i % 2;
            let mu = if c == 0 { -1.5 } else { 1.5 };
            rows.push(vec![
                mu + rng.gen_range(-1.0..1.0),
                mu + rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                mu + rng.gen_range(-1.0..1.0),
            ]);
            ys.push(c);
        }
        (Matrix::from_rows(&rows), ys)
    }

    #[test]
    fn split_training_learns_with_plain_scheme() {
        let (x, y) = blob_data(160, 1);
        let partition = VerticalPartition::even(4, 2);
        let train: Vec<usize> = (0..128).collect();
        let test: Vec<usize> = (128..160).collect();
        let he = Arc::new(PlainHe::new(64));
        let run = run_split_training(
            &he,
            &x,
            &y,
            2,
            &partition,
            &[0, 1],
            &train,
            &test,
            &SplitTrainConfig::default(),
        );
        assert_eq!(run.epoch_losses.len(), 10);
        assert!(
            run.epoch_losses.last().unwrap() < &run.epoch_losses[0],
            "loss must decrease: {:?}",
            run.epoch_losses
        );
        let test_y: Vec<usize> = test.iter().map(|&r| y[r]).collect();
        let acc = accuracy(&run.test_predictions, &test_y);
        assert!(acc > 0.85, "acc={acc}");
        assert!(run.total_bytes > 0);
    }

    #[test]
    fn split_training_with_real_paillier() {
        // Smaller run: every logits/gradient block is genuinely encrypted.
        let (x, y) = blob_data(60, 2);
        let partition = VerticalPartition::even(4, 2);
        let train: Vec<usize> = (0..48).collect();
        let test: Vec<usize> = (48..60).collect();
        let he = Arc::new(PaillierHe::generate(128, 64, 3).unwrap());
        let cfg = SplitTrainConfig { batch_size: 16, epochs: 4, lr: 0.1, seed: 5 };
        let run = run_split_training(&he, &x, &y, 2, &partition, &[0, 1], &train, &test, &cfg);
        let test_y: Vec<usize> = test.iter().map(|&r| y[r]).collect();
        let acc = accuracy(&run.test_predictions, &test_y);
        assert!(acc > 0.7, "acc={acc}");
    }

    #[test]
    fn split_gradients_match_centralized_lr() {
        // One batch, lr so small the update is ~pure gradient: the split
        // protocol's logits must equal a centralized X·W with W the
        // concatenation of the per-party blocks.
        let (x, y) = blob_data(32, 3);
        let partition = VerticalPartition::even(4, 2);
        let train: Vec<usize> = (0..32).collect();
        let he = Arc::new(PlainHe::new(64));
        let cfg = SplitTrainConfig { batch_size: 32, epochs: 1, lr: 1e-9, seed: 11 };
        let run = run_split_training(&he, &x, &y, 2, &partition, &[0, 1], &train, &[], &cfg);
        // Rebuild the initial concatenated weights exactly as the nodes do.
        let mut w_full = Matrix::zeros(4, 2);
        for slot in 0..2usize {
            let cols = partition.columns(slot);
            let mut rng = vfps_he::scheme::seeded_rng(11u64.wrapping_add(slot as u64 * 31));
            use rand::Rng;
            let bound = (6.0 / (cols.len() + 2) as f64).sqrt();
            for (local, &global) in cols.iter().enumerate() {
                let _ = local;
                for c in 0..2 {
                    w_full.set(global, c, rng.gen_range(-bound..bound));
                }
            }
        }
        let logits = x.matmul(&w_full);
        let expect = cross_entropy(&softmax(&logits), &y);
        assert!(
            (run.epoch_losses[0] - expect).abs() < 1e-9,
            "split loss {} vs centralized {}",
            run.epoch_losses[0],
            expect
        );
    }
}
