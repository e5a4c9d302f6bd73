//! Property-based tests of the federated KNN protocols: the optimized
//! variants must agree with the exhaustive baseline on arbitrary data.

use proptest::prelude::*;
use std::sync::Arc;
use vfps_data::VerticalPartition;
use vfps_he::scheme::PlainHe;
use vfps_ml::knn::KnnClassifier;
use vfps_ml::linalg::Matrix;
use vfps_net::cost::OpLedger;
use vfps_vfl::fed_knn::{FedKnn, FedKnnConfig, KnnMode};
use vfps_vfl::protocol::run_threaded_knn;

/// Random dense dataset: `rows × cols` values in a bounded range.
fn data_strategy() -> impl Strategy<Value = (Vec<Vec<f64>>, usize)> {
    (6usize..20, 4usize..8).prop_flat_map(|(rows, cols)| {
        (
            proptest::collection::vec(proptest::collection::vec(-50.0f64..50.0, cols), rows),
            Just(cols),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fagin and Base return identical neighbor sets, both matching the
    /// centralized KNN oracle on the joint feature space.
    #[test]
    fn fagin_equals_base_equals_oracle(
        (rows, cols) in data_strategy(),
        parties in 2usize..4,
        k in 1usize..5,
        batch in 1usize..4,
    ) {
        prop_assume!(parties <= cols);
        let x = Matrix::from_rows(&rows);
        let n = x.rows();
        let partition = VerticalPartition::random(cols, parties, 99);
        let party_ids: Vec<usize> = (0..parties).collect();
        let db: Vec<usize> = (0..n).collect();
        let query = 0usize;

        let run = |mode: KnnMode| -> Vec<usize> {
            let engine = FedKnn::new(
                &x,
                &partition,
                &party_ids,
                &db,
                FedKnnConfig { k, mode, batch, cost_scale: 1.0 },
            );
            let mut ledger = OpLedger::default();
            let mut t = engine.query(query, &mut ledger).topk_rows;
            t.sort_unstable();
            t
        };
        let base = run(KnnMode::Base);
        let fagin = run(KnnMode::Fagin);
        prop_assert_eq!(&base, &fagin);

        // Centralized oracle over the joint space, excluding the query row.
        let rest: Vec<usize> = (1..n).collect();
        let oracle = KnnClassifier::fit(
            k.min(n - 1),
            x.select_rows(&rest),
            vec![0; n - 1],
            1,
        );
        let mut expect: Vec<usize> =
            oracle.nearest(x.row(query)).iter().map(|&(i, _)| i + 1).collect();
        expect.sort_unstable();
        prop_assert_eq!(base, expect);
    }

    /// The threaded protocol with a plain scheme matches the logical
    /// engine for every mode/batch combination.
    #[test]
    fn threaded_matches_logical(
        (rows, cols) in data_strategy(),
        k in 1usize..4,
        batch in 1usize..5,
        fagin in any::<bool>(),
    ) {
        let x = Matrix::from_rows(&rows);
        let n = x.rows();
        let partition = VerticalPartition::random(cols, 2, 5);
        let db: Vec<usize> = (0..n).collect();
        let queries = vec![0usize, n / 2];
        let mode = if fagin { KnnMode::Fagin } else { KnnMode::Base };
        let cfg = FedKnnConfig { k, mode, batch, cost_scale: 1.0 };

        let he = Arc::new(PlainHe::new(16));
        let run = run_threaded_knn(&he, &x, &partition, &[0, 1], &db, &queries, cfg, 31);

        let engine = FedKnn::new(&x, &partition, &[0, 1], &db, cfg);
        let mut ledger = OpLedger::default();
        for (qi, &q) in queries.iter().enumerate() {
            let mut expect = engine.query(q, &mut ledger).topk_rows;
            let mut got = run.outcomes[qi].topk_rows.clone();
            expect.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, expect, "query {}", qi);
        }
    }
}

/// One line per query: every field of the outcome, floats as raw bits.
fn fingerprint(run: &vfps_vfl::ThreadedKnnRun) -> Vec<String> {
    run.outcomes
        .iter()
        .map(|o| {
            let d_t: Vec<String> = o.d_t.iter().map(|v| format!("{:016x}", v.to_bits())).collect();
            format!(
                "top={:?} d_t=[{}] total={:016x} cand={}",
                o.topk_rows,
                d_t.join(","),
                o.d_t_total.to_bits(),
                o.candidates
            )
        })
        .collect()
}

/// A Paillier run whose queries carry ≥ 64 slot groups each, so the
/// leader's decrypt (and every participant's encrypt) takes the global
/// pool's parallel branch whenever `VFPS_THREADS` > 1. Outcomes and traffic
/// are pinned to what the sequential decrypt loop produced at commit
/// 010e67b; the CI determinism matrix runs this at 1 / 2 / 4 / 8 threads.
///
/// `total_bytes` is pinned to a band, not a value: the simulated parties
/// share one scheme handle, so which party draws which noise index is a
/// thread race, and a ciphertext whose top byte happens to be zero
/// serializes one byte shorter. Repeated runs read 138 288–138 290 on Base —
/// the plaintexts and every outcome bit are unaffected.
///
/// Traffic is per wave, and both queries share one. Base, P = 3:
/// 3 `AllCandidates` + 3 `EncPartials` + 1 `Aggregated` + 2 `TopkIds` +
/// 2 `DtSum` + 1 `WaveDone` = 12 messages (24 when each query had its own
/// exchange). Fagin adds a `NeedBatch`/`RankBatch` pair per slot asked:
/// query 3 completes after 12 asks, query 501 after 16, and the wave makes
/// the larger number of trips, not the sum — 12 + 2 × 16 = 44 (80 before).
/// Bytes fell with them: Base no longer ships `0..n` to each party per
/// query (186 482 before), and ids travel as `u32` (Fagin 111 197 before).
#[test]
fn paillier_run_with_parallel_sized_queries_is_pinned() {
    use vfps_he::scheme::{seeded_uniform, PaillierHe};
    let (rows, cols, parties) = (1000usize, 6usize, 3usize);
    let x = Matrix::from_vec(rows, cols, seeded_uniform(0x51ab, rows * cols, 0.0, 1.0));
    let partition = VerticalPartition::random(cols, parties, 7);
    let db: Vec<usize> = (0..rows).collect();
    let queries = [3usize, 501];
    let check = |mode: KnnMode, outcomes: [&str; 2], bytes: u64, messages: u64| {
        let he = Arc::new(PaillierHe::generate(256, 64, 2024).unwrap());
        let cfg = FedKnnConfig { k: 10, mode, batch: 50, cost_scale: 1.0 };
        let run = run_threaded_knn(&he, &x, &partition, &[0, 1, 2], &db, &queries, cfg, 17);
        let slots = he.layout().slots();
        assert!(
            run.outcomes.iter().all(|o| o.candidates.div_ceil(slots) >= 64),
            "{mode:?}: every query must decrypt at least 64 slot groups"
        );
        assert_eq!(fingerprint(&run), outcomes, "{mode:?} outcomes");
        assert_eq!(run.total_messages, messages, "{mode:?} messages");
        assert!(
            run.total_bytes.abs_diff(bytes) <= 64,
            "{mode:?}: {} bytes moved, pinned at {bytes} ± 64",
            run.total_bytes
        );
    };
    check(
        KnnMode::Base,
        [
            "top=[501, 859, 21, 74, 1, 707, 801, 447, 651, 564] d_t=[3fc803f36e0579c3,3fdc6f4cb3abd23c,3fd1b4d884edc0da] total=3fed130f77ce27fc cand=1000",
            "top=[801, 3, 564, 929, 1, 707, 546, 74, 21, 194] d_t=[3fc9327eeaeea6c6,3fdefd3bdd5c79e3,3fce0fa710b7047e] total=3fed4f276d97a7c2 cand=1000",
        ],
        138_289,
        12,
    );
    check(
        KnnMode::Fagin,
        [
            "top=[501, 859, 21, 74, 1, 707, 801, 447, 651, 564] d_t=[3fc803f36e0579c3,3fdc6f4cb3abd23c,3fd1b4d884edc0da] total=3fed130f77ce27fc cand=455",
            "top=[801, 3, 564, 929, 1, 707, 546, 74, 21, 194] d_t=[3fc9327eeaeea6c6,3fdefd3bdd5c79e3,3fce0fa710b7047e] total=3fed4f276d97a7c2 cand=612",
        ],
        92_782,
        44,
    );
}
