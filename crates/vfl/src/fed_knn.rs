//! Vertical federated KNN — the oracle at the heart of VFPS-SM.
//!
//! The paper's two implementations (§IV):
//!
//! * [`KnnMode::Base`] (`VFPS-SM-BASE`): every participant encrypts the
//!   partial distances of *all* `N` database instances per query; the
//!   aggregation server homomorphically sums them; the leader decrypts and
//!   picks the `k` nearest.
//! * [`KnnMode::Fagin`] (`VFPS-SM`): participants stream locally sorted
//!   pseudo-ID mini-batches; the server runs Fagin's algorithm to find a
//!   candidate set; only candidates' partial distances are encrypted.
//!
//! This module is the *logical* engine: it executes the exact protocol data
//! flow and bills every operation and byte to an [`OpLedger`], optionally
//! scaled to the paper's instance counts. Queries are independent, so
//! [`FedKnn::query_batch`] runs them on a [`vfps_par::Pool`] with per-query
//! ledgers merged back in query order — bit-identical to the sequential
//! loop at any thread count. The thread-per-node implementation with real
//! HE lives in [`crate::protocol`]; tests assert the two produce identical
//! neighbor sets.

use crate::outcome;
use vfps_data::VerticalPartition;
use vfps_ml::linalg::Matrix;
use vfps_net::cost::OpLedger;
use vfps_topk::stream::StreamingFagin;
use vfps_topk::Ranking;

/// Which federated KNN protocol to run. Every mode runs on both engines:
/// this logical one and the message-passing [`crate::protocol`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KnnMode {
    /// Encrypt all `N` partial distances per query (the baseline).
    Base,
    /// Fagin's algorithm over streamed sub-rankings, then encrypt only the
    /// candidates.
    Fagin,
}

impl KnnMode {
    /// The mode's byte wherever it is stored or sent: the cache key, the
    /// cluster's setup frame and the service's select request.
    #[must_use]
    pub fn byte(self) -> u8 {
        match self {
            KnnMode::Base => 0,
            KnnMode::Fagin => 1,
        }
    }

    /// Inverse of [`KnnMode::byte`]; `None` for a byte no mode uses.
    #[must_use]
    pub fn from_byte(b: u8) -> Option<KnnMode> {
        match b {
            0 => Some(KnnMode::Base),
            1 => Some(KnnMode::Fagin),
            _ => None,
        }
    }
}

/// Federated KNN configuration.
#[derive(Clone, Copy, Debug)]
pub struct FedKnnConfig {
    /// Number of nearest neighbors.
    pub k: usize,
    /// Protocol variant.
    pub mode: KnnMode,
    /// Mini-batch size `b` for the Fagin streaming phase.
    pub batch: usize,
    /// Instance-count multiplier for cost billing: 1.0 bills at simulation
    /// scale; `paper_instances / sim_instances` bills at the paper's scale.
    pub cost_scale: f64,
}

impl Default for FedKnnConfig {
    fn default() -> Self {
        FedKnnConfig { k: 10, mode: KnnMode::Fagin, batch: 100, cost_scale: 1.0 }
    }
}

/// How Fagin's scan depth and candidate count extrapolate from the
/// simulated instance count to the paper's: Fagin's expected sequential
/// cost on P independent rankings is `Θ(k^{1/P} · N^{(P-1)/P})`
/// (Fagin 1996), i.e. *sublinear* in N. Billing the candidate phase with
/// a linear multiplier would erase the paper's 24–46× Fig. 9 reductions,
/// so instance-count scaling `s` is applied as `s^{(P-1)/P}` to all
/// Fagin-phase quantities.
#[must_use]
pub fn fagin_cost_scale(cost_scale: f64, parties: usize) -> f64 {
    let p = parties.max(1) as f64;
    cost_scale.max(1e-12).powf((p - 1.0) / p)
}

/// Result of one federated KNN query.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOutcome {
    /// Absolute row ids of the k nearest database instances, nearest first.
    pub topk_rows: Vec<usize>,
    /// Per-party sums of partial distances over the top-k set (`d_T^p`),
    /// indexed like the engine's party list.
    pub d_t: Vec<f64>,
    /// Total `d_T = Σ_p d_T^p`.
    pub d_t_total: f64,
    /// Instances whose partial distances were encrypted for this query
    /// (at simulation scale — the Fig. 9 metric).
    pub candidates: usize,
}

vfps_net::wire_struct!(QueryOutcome { topk_rows, d_t, d_t_total, candidates });

/// The logical federated KNN engine for a fixed database and consortium.
pub struct FedKnn<'a> {
    x: &'a Matrix,
    partition: &'a VerticalPartition,
    parties: Vec<usize>,
    /// Per party: the `F_p × n_db` local feature view over database rows,
    /// one feature per row (the partial-distance kernel's layout).
    db_views: Vec<Matrix>,
    db_rows: Vec<usize>,
    cfg: FedKnnConfig,
}

impl<'a> FedKnn<'a> {
    /// Builds an engine over `db_rows` of `x`, vertically partitioned, with
    /// the given consortium `parties`.
    ///
    /// # Panics
    /// Panics on an empty database or empty consortium.
    #[must_use]
    pub fn new(
        x: &'a Matrix,
        partition: &'a VerticalPartition,
        parties: &[usize],
        db_rows: &[usize],
        cfg: FedKnnConfig,
    ) -> Self {
        assert!(!db_rows.is_empty(), "empty database");
        assert!(!parties.is_empty(), "empty consortium");
        let db_views = parties
            .iter()
            .map(|&p| {
                let cols = partition.columns(p);
                let mut view = Matrix::zeros(cols.len(), db_rows.len());
                for (i, &r) in db_rows.iter().enumerate() {
                    for (j, &c) in cols.iter().enumerate() {
                        view.set(j, i, x.get(r, c));
                    }
                }
                view
            })
            .collect();
        FedKnn { x, partition, parties: parties.to_vec(), db_views, db_rows: db_rows.to_vec(), cfg }
    }

    /// Database size.
    #[must_use]
    pub fn db_len(&self) -> usize {
        self.db_rows.len()
    }

    /// Number of participating parties.
    #[must_use]
    pub fn parties(&self) -> usize {
        self.parties.len()
    }

    /// Per-party partial distances from row `query_row` of the full matrix
    /// to every database instance, its own position `self_pos` excluded.
    fn partial_distances(&self, query_row: usize, self_pos: Option<usize>) -> Vec<Vec<f64>> {
        self.parties
            .iter()
            .zip(&self.db_views)
            .map(|(&party, view)| {
                let cols = self.partition.columns(party);
                let q: Vec<f64> = cols.iter().map(|&c| self.x.get(query_row, c)).collect();
                outcome::partial_distances(view, &q, self_pos)
            })
            .collect()
    }

    /// Runs one federated KNN query, billing `ledger`.
    ///
    /// # Panics
    /// Panics if `query_row` is out of range of the underlying matrix.
    pub fn query(&self, query_row: usize, ledger: &mut OpLedger) -> QueryOutcome {
        vfps_obs::span!("fed_knn.query");
        let n = self.db_len();
        let p = self.parties() as u64;
        let scale = self.cfg.cost_scale;
        let bill = |count: usize| -> u64 { (count as f64 * scale).round() as u64 };

        let self_pos = outcome::self_position(&self.db_rows, query_row);
        let partials = vfps_obs::time_us("fed_knn.local_distances_us", || {
            self.partial_distances(query_row, self_pos)
        });
        // Every party computes N partial distances locally, in parallel.
        ledger.record_dist(bill(n), p);

        let (candidate_positions, candidates) = match self.cfg.mode {
            KnnMode::Base => {
                vfps_obs::span!("fed_knn.base.encrypt_all");
                // Everyone encrypts everything. The obs counter mirrors the
                // ledger's `enc.work` accounting (per-party x parties).
                vfps_obs::counter_add("fed_knn.base.enc_instances", bill(n) * p);
                ledger.record_enc(bill(n), p);
                let cipher = vfps_net::cost::CostModel::default().cipher_bytes as u64;
                ledger.record_traffic(p * bill(n) * cipher, p);
                ledger.record_round();
                // Server sums P encrypted vectors of length N.
                ledger.record_he_add((p - 1) * bill(n));
                ledger.record_traffic(bill(n) * cipher, 1);
                ledger.record_round();
                // Leader decrypts all N complete distances.
                ledger.record_dec(bill(n));
                ((0..n).collect::<Vec<_>>(), n)
            }
            KnnMode::Fagin => {
                // Fagin-phase quantities scale sublinearly with N; see
                // `fagin_cost_scale`.
                let fscale = fagin_cost_scale(scale, self.parties());
                let fbill = |count: usize| -> u64 { (count as f64 * fscale).round() as u64 };
                // Local sorts (plaintext, on each participant in parallel),
                // billed as the paper's full sort of N even though the
                // parties below rank only the prefix the stream reads.
                let scaled_n = bill(n).max(2);
                let sort_ops = (scaled_n as f64 * (scaled_n as f64).log2()).round() as u64;
                ledger.record_plain(sort_ops, p);

                // Streaming phase: mini-batches of pseudo IDs, round-robin,
                // each party ranking only as far as the stream reads. A
                // batch the stream does not stop in leaves the same state
                // in any order, so it is taken as a set; only the batch the
                // k-th id completes in is ranked (DESIGN §7).
                let stream_span = vfps_obs::span("fed_knn.fagin.stream");
                let mut rankings: Vec<Ranking> =
                    partials.iter().map(|d| Ranking::of_scores(d)).collect();
                let mut sf = StreamingFagin::new(self.parties(), n, self.cfg.k.min(n));
                let mut pos = vec![0usize; self.parties()];
                let mut batch = Vec::with_capacity(self.cfg.batch.min(n));
                'stream: while !sf.is_complete() {
                    for (party, ranking) in rankings.iter_mut().enumerate() {
                        let end = (pos[party] + self.cfg.batch).min(n);
                        if pos[party] < end {
                            batch.clear();
                            batch.extend(ranking.top_set(end)[pos[party]..].iter().map(|e| e.id()));
                            if sf.completes_within(&batch) {
                                batch.clear();
                                batch.extend(
                                    ranking.prefix(end)[pos[party]..].iter().map(|e| e.id()),
                                );
                            }
                            sf.feed(party, &batch);
                            pos[party] = end;
                        }
                        if sf.is_complete() {
                            break 'stream;
                        }
                    }
                    if pos.iter().all(|&x| x >= n) {
                        break;
                    }
                }
                drop(stream_span);
                let depth = pos.iter().copied().max().unwrap_or(0);
                let scaled_depth = fbill(depth).max(1);
                let rounds = scaled_depth.div_ceil(self.cfg.batch as u64).max(1);
                let id_bytes = vfps_net::cost::CostModel::default().id_bytes as u64;
                for _ in 0..rounds {
                    ledger.record_round();
                }
                ledger.record_traffic(fbill(sf.ids_received()) * id_bytes, rounds * p);

                // Candidate phase: encrypt only surfaced instances. The obs
                // counter uses the same sublinear `fbill` scaling as the
                // ledger, so Fagin-vs-Base comparisons in the exported
                // metrics reproduce the ledger's accounting exactly.
                vfps_obs::span!("fed_knn.fagin.encrypt_candidates");
                let cands = sf.candidates().to_vec();
                let c = cands.len();
                vfps_obs::counter_add("fed_knn.fagin.enc_instances", fbill(c) * p);
                vfps_obs::counter_add("fed_knn.fagin.candidates", c as u64);
                vfps_obs::counter_add("fed_knn.fagin.depth", depth as u64);
                // Fagin's phase 2 random-accesses every surfaced candidate
                // in every party's list (the encrypted point fetches the
                // candidate encryption round answers).
                ledger.record_random_access(fbill(c) * p);
                ledger.record_enc(fbill(c), p);
                let cipher = vfps_net::cost::CostModel::default().cipher_bytes as u64;
                ledger.record_traffic(p * fbill(c) * cipher, p);
                ledger.record_round();
                ledger.record_he_add((p - 1) * fbill(c));
                ledger.record_traffic(fbill(c) * cipher, 1);
                ledger.record_round();
                ledger.record_dec(fbill(c));
                (cands, c)
            }
        };

        // Leader: complete distances of candidates, take k smallest; a
        // set-read batch's order never reaches the pick.
        vfps_obs::span!("fed_knn.leader_tail");
        let complete =
            candidate_positions.iter().map(|&i| (partials.iter().map(|d| d[i]).sum::<f64>(), i));
        ledger.record_plain(bill(candidate_positions.len()), 1);
        let topk_pos = outcome::leader_pick(complete, self.cfg.k, self_pos);
        let k = topk_pos.len();

        // Leader → participants: the top-k ids; participants return d_T^p.
        let model = vfps_net::cost::CostModel::default();
        ledger.record_traffic(p * k as u64 * model.id_bytes as u64, p);
        ledger.record_round();
        ledger.record_plain(k as u64, p);
        ledger.record_traffic(p * model.scalar_bytes as u64, p);
        ledger.record_round();

        let d_t: Vec<f64> = partials.iter().map(|d| outcome::d_t(d, &topk_pos)).collect();
        let d_t_total = d_t.iter().sum();

        QueryOutcome {
            topk_rows: topk_pos.iter().map(|&i| self.db_rows[i]).collect(),
            d_t,
            d_t_total,
            candidates,
        }
    }

    /// Runs a batch of independent queries on `pool`, returning outcomes in
    /// query order.
    ///
    /// Each query bills a private [`OpLedger`]; the per-query ledgers are
    /// merged into `ledger` in query order. Ledger counters are integer
    /// sums, so the merged totals are byte-exact equal to what the
    /// sequential `for q in rows { self.query(q, ledger) }` loop records,
    /// at any thread count.
    ///
    /// # Panics
    /// Panics if any query row is out of range of the underlying matrix.
    pub fn query_batch(
        &self,
        query_rows: &[usize],
        pool: &vfps_par::Pool,
        ledger: &mut OpLedger,
    ) -> Vec<QueryOutcome> {
        let per_query = pool.par_map_indexed(query_rows, |_, &q| {
            let mut local = OpLedger::default();
            let outcome = self.query(q, &mut local);
            (outcome, local)
        });
        let mut outcomes = Vec::with_capacity(per_query.len());
        for (outcome, local) in per_query {
            ledger.merge(&local);
            outcomes.push(outcome);
        }
        outcomes
    }

    /// Classifies `query_row` by majority vote over its federated top-k
    /// neighbors' labels (ties → smaller class id).
    pub fn classify(
        &self,
        query_row: usize,
        labels: &[usize],
        n_classes: usize,
        ledger: &mut OpLedger,
    ) -> usize {
        let outcome = self.query(query_row, ledger);
        let mut votes = vec![0usize; n_classes];
        for &row in &outcome.topk_rows {
            votes[labels[row]] += 1;
        }
        votes
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfps_ml::knn::KnnClassifier;

    fn toy() -> (Matrix, VerticalPartition) {
        // 8 rows, 4 features, 2 parties of 2 features each.
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
    fn mode_bytes_are_pinned_and_round_trip() {
        // Cache keys, setup frames and select requests all carry these bytes.
        for (mode, b) in [(KnnMode::Base, 0u8), (KnnMode::Fagin, 1)] {
            assert_eq!(mode.byte(), b);
            assert_eq!(KnnMode::from_byte(b), Some(mode));
        }
        // 2 named the retired Threshold mode and 3 the retired NRA; no
        // byte from 2 on names a mode.
        for b in 2..=u8::MAX {
            assert_eq!(KnnMode::from_byte(b), None, "byte {b}");
        }
    }

    #[test]
    fn base_and_fagin_agree_with_centralized_knn() {
        let (x, part) = toy();
        let db: Vec<usize> = (0..8).collect();
        for mode in [KnnMode::Base, KnnMode::Fagin] {
            let cfg = FedKnnConfig { k: 3, mode, batch: 2, cost_scale: 1.0 };
            let engine = FedKnn::new(&x, &part, &[0, 1], &db, cfg);
            let mut ledger = OpLedger::default();
            let out = engine.query(0, &mut ledger);
            // Centralized oracle (excluding the query row itself).
            let oracle = KnnClassifier::fit(3, x.select_rows(&db[1..]), vec![0; 7], 1);
            let mut expect: Vec<usize> = oracle
                .nearest(x.row(0))
                .iter()
                .map(|&(i, _)| i + 1) // shifted by the removed row 0
                .collect();
            expect.sort_unstable();
            let mut got = out.topk_rows.clone();
            got.sort_unstable();
            assert_eq!(got, expect, "{mode:?}");
        }
    }

    #[test]
    fn fagin_encrypts_fewer_candidates_than_base() {
        let (x, part) = toy();
        let db: Vec<usize> = (0..8).collect();
        let mut base_ledger = OpLedger::default();
        let mut fagin_ledger = OpLedger::default();
        let base = FedKnn::new(
            &x,
            &part,
            &[0, 1],
            &db,
            FedKnnConfig { k: 2, mode: KnnMode::Base, batch: 1, cost_scale: 1.0 },
        );
        let fagin = FedKnn::new(
            &x,
            &part,
            &[0, 1],
            &db,
            FedKnnConfig { k: 2, mode: KnnMode::Fagin, batch: 1, cost_scale: 1.0 },
        );
        let ob = base.query(0, &mut base_ledger);
        let of = fagin.query(0, &mut fagin_ledger);
        assert_eq!(ob.topk_rows, of.topk_rows);
        assert!(of.candidates < ob.candidates, "{} vs {}", of.candidates, ob.candidates);
        assert!(fagin_ledger.enc.work < base_ledger.enc.work);
        // Base only scans; Fagin's phase 2 fetches each candidate by id.
        assert_eq!(base_ledger.random_accesses, 0);
        assert_eq!(fagin_ledger.random_accesses, fagin_ledger.enc.work);
    }

    #[test]
    fn self_row_is_excluded_from_neighbors() {
        let (x, part) = toy();
        let db: Vec<usize> = (0..8).collect();
        let engine = FedKnn::new(&x, &part, &[0, 1], &db, FedKnnConfig::default());
        let mut ledger = OpLedger::default();
        let out = engine.query(3, &mut ledger);
        assert!(!out.topk_rows.contains(&3), "query must not be its own neighbor");
    }

    #[test]
    fn queries_not_in_db_are_fine() {
        let (x, part) = toy();
        let db: Vec<usize> = (0..6).collect(); // rows 6, 7 are external queries
        let engine = FedKnn::new(
            &x,
            &part,
            &[0, 1],
            &db,
            FedKnnConfig { k: 2, mode: KnnMode::Fagin, batch: 2, cost_scale: 1.0 },
        );
        let mut ledger = OpLedger::default();
        let out = engine.query(7, &mut ledger);
        // Row 7 = all 9s: nearest are the 5-cluster rows.
        assert!(out.topk_rows.iter().all(|&r| (3..6).contains(&r)));
    }

    #[test]
    fn d_t_sums_are_consistent() {
        let (x, part) = toy();
        let db: Vec<usize> = (0..8).collect();
        let engine = FedKnn::new(&x, &part, &[0, 1], &db, FedKnnConfig::default());
        let mut ledger = OpLedger::default();
        let out = engine.query(1, &mut ledger);
        assert_eq!(out.d_t.len(), 2);
        assert!((out.d_t.iter().sum::<f64>() - out.d_t_total).abs() < 1e-9);
        assert!(out.d_t.iter().all(|&d| d >= 0.0));
    }

    #[test]
    fn fagin_cost_scale_is_sublinear() {
        // s^{(P-1)/P}: grows with s but strictly below linear for P >= 2.
        for p in [2usize, 4, 8] {
            let s1 = fagin_cost_scale(1.0, p);
            assert!((s1 - 1.0).abs() < 1e-12, "identity at scale 1");
            let s100 = fagin_cost_scale(100.0, p);
            assert!(s100 > 1.0 && s100 < 100.0, "P={p}: {s100}");
        }
        // More parties ⇒ closer to linear (exponent (P-1)/P → 1).
        assert!(fagin_cost_scale(100.0, 8) > fagin_cost_scale(100.0, 2));
        // Single party: depth is k, independent of N — exponent 0.
        assert!((fagin_cost_scale(100.0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fagin_billing_grows_sublinearly_with_scale() {
        let (x, part) = toy();
        let db: Vec<usize> = (0..8).collect();
        let mk = |scale: f64| {
            let e = FedKnn::new(
                &x,
                &part,
                &[0, 1],
                &db,
                FedKnnConfig { k: 2, mode: KnnMode::Fagin, batch: 2, cost_scale: scale },
            );
            let mut l = OpLedger::default();
            let _ = e.query(0, &mut l);
            l.enc.work
        };
        let at1 = mk(1.0);
        let at100 = mk(100.0);
        assert!(at100 > at1, "billing must grow with scale");
        assert!(
            at100 < 100 * at1,
            "fagin billing must be sublinear: {at100} vs linear {}",
            100 * at1
        );
    }

    #[test]
    fn cost_scale_multiplies_billing() {
        let (x, part) = toy();
        let db: Vec<usize> = (0..8).collect();
        let mut l1 = OpLedger::default();
        let mut l10 = OpLedger::default();
        let e1 = FedKnn::new(
            &x,
            &part,
            &[0, 1],
            &db,
            FedKnnConfig { k: 2, mode: KnnMode::Base, batch: 1, cost_scale: 1.0 },
        );
        let e10 = FedKnn::new(
            &x,
            &part,
            &[0, 1],
            &db,
            FedKnnConfig { k: 2, mode: KnnMode::Base, batch: 1, cost_scale: 10.0 },
        );
        let o1 = e1.query(0, &mut l1);
        let o10 = e10.query(0, &mut l10);
        assert_eq!(o1.topk_rows, o10.topk_rows, "scale must not change results");
        assert_eq!(l10.enc.work, 10 * l1.enc.work);
    }

    #[test]
    fn classify_votes_over_neighbors() {
        let (x, part) = toy();
        let labels = vec![0, 0, 0, 1, 1, 1, 0, 1];
        let db: Vec<usize> = (0..8).collect();
        let engine = FedKnn::new(
            &x,
            &part,
            &[0, 1],
            &db,
            FedKnnConfig { k: 3, mode: KnnMode::Fagin, batch: 2, cost_scale: 1.0 },
        );
        let mut ledger = OpLedger::default();
        assert_eq!(engine.classify(0, &labels, 2, &mut ledger), 0);
        assert_eq!(engine.classify(4, &labels, 2, &mut ledger), 1);
    }

    #[test]
    fn query_batch_matches_sequential_queries_and_billing() {
        let (x, part) = toy();
        let db: Vec<usize> = (0..8).collect();
        let queries: Vec<usize> = (0..8).collect();
        for mode in [KnnMode::Base, KnnMode::Fagin] {
            let cfg = FedKnnConfig { k: 3, mode, batch: 2, cost_scale: 1.0 };
            let engine = FedKnn::new(&x, &part, &[0, 1], &db, cfg);

            let mut seq_ledger = OpLedger::default();
            let seq: Vec<QueryOutcome> =
                queries.iter().map(|&q| engine.query(q, &mut seq_ledger)).collect();

            for threads in [1usize, 2, 4] {
                let pool = vfps_par::Pool::with_threads(threads);
                let mut par_ledger = OpLedger::default();
                let par = engine.query_batch(&queries, &pool, &mut par_ledger);
                assert_eq!(par_ledger, seq_ledger, "{mode:?} threads={threads}");
                for (a, b) in seq.iter().zip(&par) {
                    assert_eq!(a.topk_rows, b.topk_rows, "{mode:?}");
                    assert_eq!(a.candidates, b.candidates, "{mode:?}");
                    assert_eq!(a.d_t_total.to_bits(), b.d_t_total.to_bits(), "{mode:?}");
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&a.d_t), bits(&b.d_t), "{mode:?}");
                }
            }
        }
    }

    #[test]
    fn query_outcome_roundtrips_through_wire() {
        use vfps_net::wire::Wire;
        let (x, part) = toy();
        let db: Vec<usize> = (0..8).collect();
        let engine = FedKnn::new(&x, &part, &[0, 1], &db, FedKnnConfig::default());
        let mut ledger = OpLedger::default();
        for q in 0..8 {
            let out = engine.query(q, &mut ledger);
            let back = QueryOutcome::from_bytes(&out.to_bytes()).unwrap();
            assert_eq!(back.topk_rows, out.topk_rows);
            assert_eq!(back.candidates, out.candidates);
            assert_eq!(back.d_t_total.to_bits(), out.d_t_total.to_bits());
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&back.d_t), bits(&out.d_t));
        }
    }

    #[test]
    fn single_party_consortium_works() {
        let (x, part) = toy();
        let db: Vec<usize> = (0..8).collect();
        let engine = FedKnn::new(
            &x,
            &part,
            &[1],
            &db,
            FedKnnConfig { k: 2, mode: KnnMode::Fagin, batch: 3, cost_scale: 1.0 },
        );
        let mut ledger = OpLedger::default();
        let out = engine.query(0, &mut ledger);
        assert_eq!(out.topk_rows.len(), 2);
        assert_eq!(out.d_t.len(), 1);
    }
}
