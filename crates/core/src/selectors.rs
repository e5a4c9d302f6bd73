//! Participant selectors: VFPS-SM (+ its no-Fagin base), and the paper's
//! baselines RANDOM, SHAPLEY, and VF-MINE.

use crate::similarity::SimilarityAccumulator;
use crate::submodular::{KnnSubmodular, Maximizer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use vfps_data::{Dataset, Split, VerticalPartition};
use vfps_ml::knn::KnnClassifier;
use vfps_ml::mi::group_label_mi;
use vfps_net::cost::{CostModel, OpLedger};
use vfps_vfl::fed_knn::{FedKnn, FedKnnConfig, KnnMode, QueryOutcome};

/// Everything a selector needs to run.
pub struct SelectionContext<'a> {
    /// The (normalized) dataset.
    pub ds: &'a Dataset,
    /// Train/val/test split.
    pub split: &'a Split,
    /// The vertical partition defining the consortium.
    pub partition: &'a VerticalPartition,
    /// Billing multiplier from simulated to paper-scale instance counts.
    pub cost_scale: f64,
    /// Run seed.
    pub seed: u64,
}

impl SelectionContext<'_> {
    /// Consortium size.
    #[must_use]
    pub fn parties(&self) -> usize {
        self.partition.parties()
    }
}

/// Result of a selection run.
#[derive(Clone, Debug)]
pub struct Selection {
    /// The chosen sub-consortium, in selection order.
    pub chosen: Vec<usize>,
    /// Billed federated cost of the selection phase.
    pub ledger: OpLedger,
    /// Per-participant scores where the method produces them (marginal
    /// gains for VFPS-SM, Shapley values, MI scores; empty for RANDOM).
    pub scores: Vec<f64>,
    /// Average instances encrypted per query (Fig. 9 metric; 0 if N/A).
    pub candidates_per_query: f64,
}

/// A participant-selection strategy.
pub trait Selector {
    /// Method name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// Chooses `count` of the consortium's participants.
    fn select(&self, ctx: &SelectionContext<'_>, count: usize) -> Selection;
}

// ---------------------------------------------------------------------------
// RANDOM
// ---------------------------------------------------------------------------

/// Uniformly random selection (zero selection cost).
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomSelector;

impl Selector for RandomSelector {
    fn name(&self) -> &'static str {
        "RANDOM"
    }

    fn select(&self, ctx: &SelectionContext<'_>, count: usize) -> Selection {
        let mut all: Vec<usize> = (0..ctx.parties()).collect();
        all.shuffle(&mut StdRng::seed_from_u64(ctx.seed ^ 0xa11_d0e));
        all.truncate(count.min(ctx.parties()));
        Selection {
            chosen: all,
            ledger: OpLedger::default(),
            scores: Vec::new(),
            candidates_per_query: 0.0,
        }
    }
}

// ---------------------------------------------------------------------------
// VFPS-SM (and VFPS-SM-BASE)
// ---------------------------------------------------------------------------

/// The paper's method: KNN-likelihood similarity + greedy submodular
/// maximization, with either the Fagin-optimized or the baseline federated
/// KNN oracle.
#[derive(Clone, Debug)]
pub struct VfpsSmSelector {
    /// Neighbor count for the proxy KNN.
    pub k: usize,
    /// Number of query samples drawn from the training set.
    pub query_count: usize,
    /// Federated KNN variant.
    pub mode: KnnMode,
    /// Fagin mini-batch size `b`.
    pub batch: usize,
    /// Which submodular maximizer runs the selection tail. `Lazy` (the
    /// default) picks exact greedy's set; `Stochastic` is the sublinear
    /// variant for large consortia (DESIGN.md §12). The stochastic sampler
    /// is seeded from the run seed, so both stay bit-deterministic at any
    /// thread count.
    pub maximizer: Maximizer,
}

impl Default for VfpsSmSelector {
    fn default() -> Self {
        VfpsSmSelector {
            k: 10,
            query_count: 32,
            mode: KnnMode::Fagin,
            batch: 100,
            maximizer: Maximizer::Lazy,
        }
    }
}

/// Everything one VFPS-SM run produces beyond the [`Selection`] itself:
/// the sampled query set, the per-query KNN outcomes as accumulated, and
/// the finished similarity matrix. This is the raw material the
/// selection-artifact cache (`vfps-cache`) stores — [`select_from_matrix`]
/// over `similarity` reproduces `selection`'s chosen set and scores bit
/// for bit.
#[derive(Clone, Debug)]
pub struct VfpsRunArtifacts {
    /// The selection result.
    pub selection: Selection,
    /// Query rows, in execution order.
    pub queries: Vec<usize>,
    /// Per-query outcomes aligned with `queries`.
    pub outcomes: Vec<QueryOutcome>,
    /// The accumulated similarity matrix, rows and columns in `party_set`
    /// order.
    pub similarity: Vec<Vec<f64>>,
}

impl VfpsSmSelector {
    /// The non-optimized ablation (`VFPS-SM-BASE`).
    #[must_use]
    pub fn base(self) -> Self {
        VfpsSmSelector { mode: KnnMode::Base, ..self }
    }

    /// The query set Q: a seeded sample of training rows. Deterministic in
    /// `(ctx.split.train, ctx.seed, self.query_count)` and independent of
    /// the consortium composition — the property the cache's churn path
    /// relies on (a party join/leave never changes Q).
    #[must_use]
    pub fn query_rows(&self, ctx: &SelectionContext<'_>) -> Vec<usize> {
        let mut queries = ctx.split.train.clone();
        queries.shuffle(&mut StdRng::seed_from_u64(ctx.seed ^ 0x9e_a4));
        queries.truncate(self.query_count.min(queries.len()));
        queries
    }

    /// Runs the full VFPS-SM pipeline over the consortium `party_set`
    /// (party ids into `ctx.partition`), returning the selection plus the
    /// reusable artifacts.
    ///
    /// [`Selector::select`] is exactly `run_over` with the full party set.
    ///
    /// # Panics
    /// Panics if `party_set` contains an id outside the partition.
    pub fn run_over(
        &self,
        ctx: &SelectionContext<'_>,
        party_set: &[usize],
        count: usize,
    ) -> VfpsRunArtifacts {
        vfps_obs::span!("select.vfps_sm");
        let mut ledger = OpLedger::default();
        let engine = FedKnn::new(
            &ctx.ds.x,
            ctx.partition,
            party_set,
            &ctx.split.train,
            FedKnnConfig {
                k: self.k,
                mode: self.mode,
                batch: self.batch,
                cost_scale: ctx.cost_scale,
            },
        );

        let queries = self.query_rows(ctx);

        // Queries are independent: run the batch on the global pool. The
        // per-query ledgers merge back in query order and the accumulator
        // consumes outcomes in query order, so the similarity matrix and
        // billing are bit-identical to the sequential loop at any thread
        // count.
        let batch = {
            vfps_obs::span!("select.vfps_sm.knn_queries");
            engine.query_batch(&queries, vfps_par::global(), &mut ledger)
        };

        let similarity_span = vfps_obs::span("select.vfps_sm.similarity");
        let counts: Vec<usize> =
            party_set.iter().map(|&p| ctx.partition.columns(p).len()).collect();
        let mut acc = SimilarityAccumulator::new(party_set.len()).with_feature_counts(counts);
        let mut outcomes = Vec::with_capacity(queries.len());
        let mut candidates = 0usize;
        for outcome in batch {
            candidates += outcome.candidates;
            acc.add_query(&outcome).expect("the engine answers one d_t entry per party");
            outcomes.push(outcome);
        }
        let similarity = acc.finish();
        drop(similarity_span);

        let selection = Selection {
            ledger,
            candidates_per_query: candidates as f64 / queries.len().max(1) as f64,
            ..select_from_matrix(similarity.clone(), ctx, party_set, count, self.maximizer)
        };
        VfpsRunArtifacts { selection, queries, outcomes, similarity }
    }
}

/// The VFPS-SM selection tail (paper §III, step 3), shared by the cold,
/// warm and churn paths: maximizes `f(S) = Σ_p max_{s∈S} w(p, s)` over
/// `w`, whose rows and columns follow `party_set`, and maps the picks
/// back to party ids. The run seed feeds the stochastic sampler, so the
/// chosen set is a pure function of `(w, maximizer, seed)`.
///
/// `scores` is full partition width: each chosen party holds its marginal
/// gain at pick time, every other party (including those outside
/// `party_set`) 0.0. The ledger is empty and `candidates_per_query` 0;
/// each caller fills in what its own path billed.
///
/// # Panics
/// Panics unless `w` is a square, finite, non-negative matrix with one row
/// per entry of `party_set`.
#[must_use]
pub fn select_from_matrix(
    w: Vec<Vec<f64>>,
    ctx: &SelectionContext<'_>,
    party_set: &[usize],
    count: usize,
    maximizer: Maximizer,
) -> Selection {
    vfps_obs::span!("select.vfps_sm.maximize");
    assert_eq!(w.len(), party_set.len(), "one similarity row per party");
    let picks = KnnSubmodular::new(w).maximize_scored(
        count.min(party_set.len()),
        maximizer,
        ctx.seed,
        vfps_par::global(),
    );
    let mut scores = vec![0.0; ctx.parties()];
    let chosen = picks
        .into_iter()
        .map(|(v, gain)| {
            scores[party_set[v]] = gain;
            party_set[v]
        })
        .collect();
    Selection { chosen, ledger: OpLedger::default(), scores, candidates_per_query: 0.0 }
}

impl Selector for VfpsSmSelector {
    fn name(&self) -> &'static str {
        match self.mode {
            KnnMode::Fagin => "VFPS-SM",
            KnnMode::Base => "VFPS-SM-BASE",
        }
    }

    fn select(&self, ctx: &SelectionContext<'_>, count: usize) -> Selection {
        let parties: Vec<usize> = (0..ctx.parties()).collect();
        self.run_over(ctx, &parties, count).selection
    }
}

// ---------------------------------------------------------------------------
// SHAPLEY
// ---------------------------------------------------------------------------

/// Exact Shapley-value selection over a federated-KNN proxy utility.
///
/// Utility `U(S)` is the validation accuracy of the KNN proxy trained on
/// the joint features of `S`. All `2^P − 1` coalitions are evaluated (the
/// exponential cost the paper's Table I exhibits); above
/// [`ShapleySelector::exact_limit`] parties the *utilities* are estimated
/// by permutation sampling while the *billing* still reflects exhaustive
/// enumeration, matching the method's intrinsic cost (DESIGN.md §3).
#[derive(Clone, Copy, Debug)]
pub struct ShapleySelector {
    /// Proxy-KNN neighbor count.
    pub k: usize,
    /// Cap on database rows used per utility evaluation (speed knob for
    /// the simulation; billing is unaffected).
    pub eval_db_cap: usize,
    /// Cap on validation queries per utility evaluation.
    pub eval_query_cap: usize,
    /// Above this many parties, switch utilities to permutation sampling.
    pub exact_limit: usize,
}

impl Default for ShapleySelector {
    fn default() -> Self {
        ShapleySelector { k: 10, eval_db_cap: 256, eval_query_cap: 48, exact_limit: 12 }
    }
}

impl ShapleySelector {
    /// Validation accuracy of the KNN proxy on coalition `s`.
    fn utility(
        &self,
        ctx: &SelectionContext<'_>,
        db_rows: &[usize],
        query_rows: &[usize],
        coalition: &[usize],
    ) -> f64 {
        if coalition.is_empty() {
            return 0.0;
        }
        let cols = ctx.partition.joint_columns(coalition);
        let train_x = ctx.ds.x.select_rows(db_rows).select_columns(&cols);
        let train_y: Vec<usize> = db_rows.iter().map(|&r| ctx.ds.y[r]).collect();
        let knn = KnnClassifier::fit(self.k, train_x, train_y, ctx.ds.n_classes);
        let test_x = ctx.ds.x.select_rows(query_rows).select_columns(&cols);
        let test_y: Vec<usize> = query_rows.iter().map(|&r| ctx.ds.y[r]).collect();
        knn.accuracy(&test_x, &test_y)
    }

    /// Bills one coalition evaluation: a full base-mode federated KNN pass
    /// over the validation queries at paper scale.
    fn bill_eval(
        &self,
        ledger: &mut OpLedger,
        ctx: &SelectionContext<'_>,
        coalition_size: usize,
        queries: usize,
    ) {
        let model = CostModel::default();
        let n = (ctx.split.train.len() as f64 * ctx.cost_scale).round() as u64;
        let p = coalition_size as u64;
        let q = queries as u64;
        ledger.record_dist(q * n, p);
        ledger.record_enc(q * n, p);
        ledger.record_traffic(q * p * n * model.cipher_bytes as u64, q * p);
        ledger.record_he_add(q * (p.saturating_sub(1)) * n);
        ledger.record_traffic(q * n * model.cipher_bytes as u64, q);
        ledger.record_dec(q * n);
        ledger.record_round();
        ledger.record_round();
    }
}

impl Selector for ShapleySelector {
    fn name(&self) -> &'static str {
        "SHAPLEY"
    }

    fn select(&self, ctx: &SelectionContext<'_>, count: usize) -> Selection {
        vfps_obs::span!("select.shapley");
        let p = ctx.parties();
        let mut ledger = OpLedger::default();
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x54a91);

        // Capped evaluation sets (deterministic).
        let mut db_rows = ctx.split.train.clone();
        db_rows.shuffle(&mut rng);
        db_rows.truncate(self.eval_db_cap.min(db_rows.len()));
        let mut query_rows = ctx.split.val.clone();
        query_rows.shuffle(&mut rng);
        query_rows.truncate(self.eval_query_cap.min(query_rows.len()));
        let q_bill = ctx.split.val.len();

        let sv: Vec<f64> = if p <= self.exact_limit {
            // Exact: evaluate every coalition once, then assemble SVs.
            let mut utilities = vec![0.0f64; 1 << p];
            for mask in 1usize..(1 << p) {
                let coalition: Vec<usize> = (0..p).filter(|&i| mask >> i & 1 == 1).collect();
                utilities[mask] = self.utility(ctx, &db_rows, &query_rows, &coalition);
                self.bill_eval(&mut ledger, ctx, coalition.len(), q_bill);
            }
            let mut sv = vec![0.0f64; p];
            // SV(i) = (1/P) Σ_{S ⊆ P\{i}} C(P-1, |S|)^{-1} [U(S∪i) − U(S)]
            let binom = |n: usize, r: usize| -> f64 {
                let mut v = 1.0;
                for j in 0..r {
                    v = v * (n - j) as f64 / (j + 1) as f64;
                }
                v
            };
            for i in 0..p {
                let mut total = 0.0;
                for mask in 0usize..(1 << p) {
                    if mask >> i & 1 == 1 {
                        continue;
                    }
                    let s = mask.count_ones() as usize;
                    let gain = utilities[mask | (1 << i)] - utilities[mask];
                    total += gain / binom(p - 1, s);
                }
                sv[i] = total / p as f64;
            }
            sv
        } else {
            // Permutation sampling for the values; exhaustive billing.
            let samples = (2 * p).max(16);
            let mut sv = vec![0.0f64; p];
            let mut perm: Vec<usize> = (0..p).collect();
            for _ in 0..samples {
                perm.shuffle(&mut rng);
                let mut coalition = Vec::with_capacity(p);
                let mut prev = 0.0;
                for &i in &perm {
                    coalition.push(i);
                    let u = self.utility(ctx, &db_rows, &query_rows, &coalition);
                    sv[i] += (u - prev) / samples as f64;
                    prev = u;
                }
            }
            // Bill the exhaustive enumeration the exact method requires:
            // 2^P − 1 coalition evaluations of average size P/2,
            // accumulated analytically rather than by looping billions of
            // times.
            let evals = (1u64 << p.min(62)) - 1;
            let mut one = OpLedger::default();
            self.bill_eval(&mut one, ctx, p.div_ceil(2), q_bill);
            ledger.merge_times(&one, evals);
            sv
        };

        // Top-`count` by Shapley value (ties toward smaller index).
        let mut order: Vec<usize> = (0..p).collect();
        order.sort_by(|&a, &b| sv[b].total_cmp(&sv[a]).then(a.cmp(&b)));
        order.truncate(count.min(p));

        Selection { chosen: order, ledger, scores: sv, candidates_per_query: 0.0 }
    }
}

// ---------------------------------------------------------------------------
// VF-MINE
// ---------------------------------------------------------------------------

/// Mutual-information-based selection (the VF-MINE baseline).
///
/// Each participant is scored by the averaged MI between the feature
/// groups containing it and the labels — singleton groups plus all pairs,
/// which reproduces the method's superlinear cost growth with `P`
/// (Fig. 7). MI ignores inter-participant redundancy, which is exactly the
/// failure mode Fig. 6 demonstrates.
#[derive(Clone, Copy, Debug)]
pub struct VfMineSelector {
    /// Quantile bins for the MI estimator.
    pub bins: usize,
    /// Random projections per group.
    pub projections: usize,
    /// Fraction of (paper-scale) instances each group pass encrypts.
    pub sample_frac: f64,
    /// Encrypted values consumed training the MINE estimator for one
    /// group (iterations × batch), independent of dataset size. This is
    /// what makes VF-MINE's measured cost mostly flat across dataset
    /// sizes in the paper (Bank ≈ 1/8 of SUSY despite a 500× N gap) and
    /// consistently above VFPS-SM's.
    pub mine_values_per_group: u64,
}

impl Default for VfMineSelector {
    fn default() -> Self {
        // Calibrated so VF-MINE sits between VFPS-SM and VFPS-SM-BASE with
        // the ~2-3× gap over VFPS-SM the paper's Table I reports on SUSY,
        // while staying well above VFPS-SM on small datasets (Fig. 4).
        VfMineSelector { bins: 10, projections: 4, sample_frac: 0.3, mine_values_per_group: 60_000 }
    }
}

impl Selector for VfMineSelector {
    fn name(&self) -> &'static str {
        "VFMINE"
    }

    fn select(&self, ctx: &SelectionContext<'_>, count: usize) -> Selection {
        vfps_obs::span!("select.vfmine");
        let p = ctx.parties();
        let mut ledger = OpLedger::default();
        let model = CostModel::default();
        let train_x = ctx.ds.x.select_rows(&ctx.split.train);
        let train_y: Vec<usize> = ctx.split.train.iter().map(|&r| ctx.ds.y[r]).collect();

        // Groups: singletons + all pairs.
        let mut groups: Vec<Vec<usize>> = (0..p).map(|i| vec![i]).collect();
        for a in 0..p {
            for b in a + 1..p {
                groups.push(vec![a, b]);
            }
        }

        let mut score_sum = vec![0.0f64; p];
        let mut score_cnt = vec![0usize; p];
        let sample =
            (ctx.split.train.len() as f64 * ctx.cost_scale * self.sample_frac).round() as u64;
        for (gi, group) in groups.iter().enumerate() {
            let cols = ctx.partition.joint_columns(group);
            let mi = group_label_mi(
                &train_x,
                &cols,
                &train_y,
                ctx.ds.n_classes,
                self.bins,
                self.projections,
                ctx.seed ^ (gi as u64).wrapping_mul(0x9e37_79b9),
            );
            for &m in group {
                score_sum[m] += mi;
                score_cnt[m] += 1;
            }
            // Bill the group's cost: MINE estimator training (fixed, large)
            // plus one encrypted aggregation pass over the MI sample.
            let members = group.len() as u64;
            let per_member = self.mine_values_per_group + sample;
            ledger.record_enc(per_member, members);
            ledger.record_traffic(members * per_member * model.cipher_bytes as u64, members);
            ledger.record_he_add(per_member * members.saturating_sub(1));
            ledger.record_dec(per_member);
            ledger.record_round();
            ledger.record_round();
        }

        let scores: Vec<f64> = score_sum
            .iter()
            .zip(&score_cnt)
            .map(|(&s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect();
        let mut order: Vec<usize> = (0..p).collect();
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        order.truncate(count.min(p));

        Selection { chosen: order, ledger, scores, candidates_per_query: 0.0 }
    }
}

// ---------------------------------------------------------------------------
// ALL
// ---------------------------------------------------------------------------

/// No selection: the full consortium trains (the paper's "ALL" row).
#[derive(Clone, Copy, Debug, Default)]
pub struct AllSelector;

impl Selector for AllSelector {
    fn name(&self) -> &'static str {
        "ALL"
    }

    fn select(&self, ctx: &SelectionContext<'_>, _count: usize) -> Selection {
        Selection {
            chosen: (0..ctx.parties()).collect(),
            ledger: OpLedger::default(),
            scores: Vec::new(),
            candidates_per_query: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfps_data::{prepared_sized, DatasetSpec};

    struct Fixture {
        ds: Dataset,
        split: Split,
        partition: VerticalPartition,
    }

    fn fixture(seed: u64) -> Fixture {
        let spec = DatasetSpec::by_name("Rice").unwrap();
        let (ds, split) = prepared_sized(&spec, 250, seed);
        let partition = VerticalPartition::random(ds.n_features(), 4, seed);
        Fixture { ds, split, partition }
    }

    fn ctx(f: &Fixture, seed: u64) -> SelectionContext<'_> {
        SelectionContext {
            ds: &f.ds,
            split: &f.split,
            partition: &f.partition,
            cost_scale: 1.0,
            seed,
        }
    }

    #[test]
    fn random_selector_is_seeded_and_free() {
        let f = fixture(1);
        let a = RandomSelector.select(&ctx(&f, 7), 2);
        let b = RandomSelector.select(&ctx(&f, 7), 2);
        let c = RandomSelector.select(&ctx(&f, 8), 2);
        assert_eq!(a.chosen, b.chosen);
        assert_eq!(a.chosen.len(), 2);
        assert_eq!(a.ledger, OpLedger::default());
        // Different seeds usually differ (4 choose 2 orderings = 12).
        let _ = c;
    }

    #[test]
    fn all_selector_returns_everyone() {
        let f = fixture(2);
        let s = AllSelector.select(&ctx(&f, 1), 2);
        assert_eq!(s.chosen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn vfps_sm_scores_are_marginal_gains() {
        let f = fixture(3);
        let sel = VfpsSmSelector { query_count: 12, ..Default::default() }.select(&ctx(&f, 3), 3);
        assert_eq!(sel.chosen.len(), 3);
        // Gains are recorded for chosen parties and non-increasing in
        // selection order (submodularity).
        let gains: Vec<f64> = sel.chosen.iter().map(|&c| sel.scores[c]).collect();
        for w in gains.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "gains must diminish: {gains:?}");
        }
    }

    #[test]
    fn select_from_matrix_scores_full_width_and_zero_outside_the_set() {
        let f = fixture(10);
        let c = ctx(&f, 10);
        // A 2-party sub-consortium {1, 3} of the 4-party partition.
        let w = vec![vec![1.0, 0.2], vec![0.2, 1.0]];
        let sel = select_from_matrix(w, &c, &[1, 3], 3, Maximizer::Lazy);
        assert_eq!(sel.chosen, vec![1, 3], "the tie breaks toward row 0");
        assert_eq!(sel.scores.len(), 4, "scores span the whole partition");
        assert_eq!((sel.scores[0], sel.scores[2]), (0.0, 0.0), "outside the set");
        assert!((sel.scores[1] - 1.2).abs() < 1e-12, "{:?}", sel.scores);
        assert!((sel.scores[3] - 0.8).abs() < 1e-12, "{:?}", sel.scores);
        assert_eq!(sel.ledger, OpLedger::default(), "the tail bills nothing");
    }

    #[test]
    fn shapley_exact_values_sum_to_grand_utility() {
        // Efficiency axiom: Σ SV(i) = U(P) − U(∅).
        let f = fixture(5);
        let c = ctx(&f, 5);
        let sel = ShapleySelector::default();
        let s = sel.select(&c, 2);
        let total: f64 = s.scores.iter().sum();
        // Recompute the grand-coalition utility with the same caps.
        let mut rng = rand::rngs::StdRng::seed_from_u64(c.seed ^ 0x54a91);
        let mut db = c.split.train.clone();
        db.shuffle(&mut rng);
        db.truncate(sel.eval_db_cap);
        let mut q = c.split.val.clone();
        q.shuffle(&mut rng);
        q.truncate(sel.eval_query_cap);
        let grand = sel.utility(&c, &db, &q, &[0, 1, 2, 3]);
        assert!((total - grand).abs() < 1e-9, "efficiency axiom: Σ SV = {total} vs U(P) = {grand}");
    }

    #[test]
    fn shapley_billing_grows_exponentially_with_parties() {
        let spec = DatasetSpec::by_name("Rice").unwrap();
        let (ds, split) = prepared_sized(&spec, 250, 6);
        let mut costs = Vec::new();
        for parties in [2usize, 4] {
            let partition = VerticalPartition::random(ds.n_features(), parties, 6);
            let c = SelectionContext {
                ds: &ds,
                split: &split,
                partition: &partition,
                cost_scale: 1.0,
                seed: 6,
            };
            let s = ShapleySelector::default().select(&c, 1);
            costs.push(s.ledger.enc.work);
        }
        // 2^4 - 1 = 15 vs 2^2 - 1 = 3 coalitions, sizes grow too.
        assert!(costs[1] > 4 * costs[0], "{costs:?}");
    }

    #[test]
    fn vfmine_prefers_informative_parties() {
        // Informative features on parties 0/1, noise on 2/3 (constructed
        // partition), so MI scores must rank 0/1 above 2/3.
        let spec = DatasetSpec::by_name("Phishing").unwrap();
        let (ds, split) = prepared_sized(&spec, 300, 7);
        let mut informative = Vec::new();
        let mut rest = Vec::new();
        for (i, k) in ds.feature_kinds.iter().enumerate() {
            if *k == vfps_data::FeatureKind::Informative {
                informative.push(i);
            } else {
                rest.push(i);
            }
        }
        let h = informative.len() / 2;
        let r = rest.len() / 2;
        let partition = VerticalPartition::from_groups(
            ds.n_features(),
            vec![
                informative[..h].to_vec(),
                informative[h..].to_vec(),
                rest[..r].to_vec(),
                rest[r..].to_vec(),
            ],
        );
        let c = SelectionContext {
            ds: &ds,
            split: &split,
            partition: &partition,
            cost_scale: 1.0,
            seed: 7,
        };
        let s = VfMineSelector::default().select(&c, 2);
        assert!(
            s.chosen.iter().filter(|&&p| p < 2).count() >= 1,
            "VF-MINE chose {:?} with scores {:?}",
            s.chosen,
            s.scores
        );
    }
}
