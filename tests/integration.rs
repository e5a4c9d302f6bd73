//! Cross-crate integration tests: the substrates composed exactly the way
//! the VFPS-SM pipeline composes them.

use std::sync::Arc;

use vfps_core::selectors::{SelectionContext, Selector, VfpsSmSelector};
use vfps_core::similarity::SimilarityAccumulator;
use vfps_core::submodular::{KnnSubmodular, Maximizer};
use vfps_data::{prepared_sized, DatasetSpec, VerticalPartition};
use vfps_he::ckks::CkksParams;
use vfps_he::scheme::{AdditiveHe, CkksHe, PaillierHe, PlainHe};
use vfps_net::cost::OpLedger;
use vfps_vfl::fed_knn::{FedKnn, FedKnnConfig, KnnMode};
use vfps_vfl::protocol::run_threaded_knn;

fn rice(n: usize, seed: u64) -> (vfps_data::Dataset, vfps_data::Split) {
    prepared_sized(&DatasetSpec::by_name("Rice").unwrap(), n, seed)
}

/// The logical engine and the threaded protocol (with three different HE
/// schemes) must agree on every query's neighbor set.
#[test]
fn logical_and_threaded_knn_agree_across_schemes() {
    let (ds, split) = rice(120, 3);
    let partition = VerticalPartition::random(ds.n_features(), 4, 3);
    let parties = [0usize, 1, 2, 3];
    let cfg = FedKnnConfig { k: 5, mode: KnnMode::Fagin, batch: 16, cost_scale: 1.0 };
    let queries: Vec<usize> = split.train.iter().copied().take(3).collect();

    let engine = FedKnn::new(&ds.x, &partition, &parties, &split.train, cfg);
    let mut ledger = OpLedger::default();
    let expected: Vec<Vec<usize>> = queries
        .iter()
        .map(|&q| {
            let mut t = engine.query(q, &mut ledger).topk_rows;
            t.sort_unstable();
            t
        })
        .collect();

    // Plain scheme.
    let plain = Arc::new(PlainHe::new(64));
    check_threaded(&plain, &ds, &partition, &parties, &split.train, &queries, cfg, &expected);

    // Paillier (exact fixed-point).
    let paillier = Arc::new(PaillierHe::generate(128, 64, 9).unwrap());
    check_threaded(&paillier, &ds, &partition, &parties, &split.train, &queries, cfg, &expected);

    // CKKS (approximate — noise far below inter-point distance gaps).
    let ckks = Arc::new(CkksHe::generate(&CkksParams::insecure_test(), 10).unwrap());
    check_threaded(&ckks, &ds, &partition, &parties, &split.train, &queries, cfg, &expected);
}

#[allow(clippy::too_many_arguments)]
fn check_threaded<H: AdditiveHe + 'static>(
    he: &Arc<H>,
    ds: &vfps_data::Dataset,
    partition: &VerticalPartition,
    parties: &[usize],
    db: &[usize],
    queries: &[usize],
    cfg: FedKnnConfig,
    expected: &[Vec<usize>],
) {
    let run = run_threaded_knn(he, &ds.x, partition, parties, db, queries, cfg, 42);
    for (qi, expect) in expected.iter().enumerate() {
        let mut got = run.outcomes[qi].topk_rows.clone();
        got.sort_unstable();
        assert_eq!(&got, expect, "{} scheme, query {qi}", he.name());
    }
}

/// Similarity matrices built from federated outcomes feed directly into the
/// submodular maximizer, and duplicate participants collapse to similarity
/// ≈ 1 so greedy avoids picking both.
#[test]
fn duplicate_participants_get_unit_similarity_and_are_avoided() {
    let (ds, split) = rice(200, 5);
    let base = VerticalPartition::random(ds.n_features(), 3, 5);
    let partition = base.with_duplicates(0, 1); // party 3 duplicates party 0
    let parties: Vec<usize> = (0..partition.parties()).collect();
    let engine = FedKnn::new(
        &ds.x,
        &partition,
        &parties,
        &split.train,
        FedKnnConfig { k: 8, mode: KnnMode::Fagin, batch: 32, cost_scale: 1.0 },
    );
    let mut acc = SimilarityAccumulator::new(parties.len());
    let mut ledger = OpLedger::default();
    for &q in split.train.iter().take(12) {
        acc.add_query(&engine.query(q, &mut ledger)).unwrap();
    }
    let w = acc.finish();
    assert!(
        (w[0][3] - 1.0).abs() < 1e-9,
        "duplicates have identical d_T contributions, w={}",
        w[0][3]
    );

    let f = KnnSubmodular::new(w);
    let (chosen, _) = f.maximize(2, Maximizer::Greedy, 0, vfps_par::global());
    assert!(
        !(chosen.contains(&0) && chosen.contains(&3)),
        "greedy must not pick both copies: {chosen:?}"
    );
}

/// The VFPS-SM selector prefers informative partitions on a dataset whose
/// partitions differ sharply in informativeness.
#[test]
fn vfps_sm_selects_informative_partitions() {
    let spec = DatasetSpec::by_name("Phishing").unwrap();
    let (ds, split) = prepared_sized(&spec, 400, 17);
    // Partition so parties 0/1 are informative-heavy, 2/3 noise-heavy.
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
    let ctx = SelectionContext {
        ds: &ds,
        split: &split,
        partition: &partition,
        cost_scale: 1.0,
        seed: 17,
    };
    let sel = VfpsSmSelector { k: 8, query_count: 24, ..VfpsSmSelector::default() }.select(&ctx, 2);
    // The selected pair should include at least one informative-heavy party.
    assert!(
        sel.chosen.iter().any(|&p| p < 2),
        "selection {:?} ignored informative partitions",
        sel.chosen
    );
    assert!(sel.ledger.enc.work > 0, "selection must have paid encryption costs");
}

/// Fagin's optimization must reduce encrypted work relative to base while
/// producing the same selection.
#[test]
fn fagin_selection_cheaper_same_result() {
    let (ds, split) = rice(300, 23);
    let partition = VerticalPartition::random(ds.n_features(), 4, 23);
    let ctx = SelectionContext {
        ds: &ds,
        split: &split,
        partition: &partition,
        cost_scale: 1.0,
        seed: 23,
    };
    let fagin = VfpsSmSelector { k: 10, query_count: 16, ..Default::default() };
    let base = fagin.clone().base();
    let sf = fagin.select(&ctx, 2);
    let sb = base.select(&ctx, 2);
    assert_eq!(sf.chosen, sb.chosen, "optimization must not change the selection");
    assert!(
        sf.ledger.enc.work < sb.ledger.enc.work,
        "fagin {} vs base {}",
        sf.ledger.enc.work,
        sb.ledger.enc.work
    );
    assert!(sf.candidates_per_query < sb.candidates_per_query);
}
