//! The two fed-KNN engines return one outcome where `k` reaches the
//! database: the logical `FedKnn::query` and the protocol on the
//! simulated backend (`run_threaded_knn`, what `Backend::Sim` runs with an
//! empty fault plan) take the `k` nearest *other* instances, so a query in
//! the database never lists itself and every `d_T^p` stays finite.

use std::sync::Arc;
use vfps_data::VerticalPartition;
use vfps_he::scheme::{seeded_uniform, AdditiveHe, PaillierHe, PlainHe};
use vfps_ml::linalg::Matrix;
use vfps_net::cost::OpLedger;
use vfps_vfl::fed_knn::{FedKnn, FedKnnConfig, KnnMode};
use vfps_vfl::protocol::run_threaded_knn;

/// Runs every `k` and mode over `db_rows` on both engines and asserts
/// they agree query by query on the top-k rows in order, the `d_t` bits
/// and the candidate count, with every `d_t` finite.
fn assert_engines_agree<H: AdditiveHe + 'static>(
    he: &Arc<H>,
    x: &Matrix,
    part: &VerticalPartition,
    parties: &[usize],
    db_rows: &[usize],
    queries: &[usize],
    label: &str,
) {
    let n = db_rows.len();
    for k in [n - 1, n, n + 3] {
        for mode in [KnnMode::Base, KnnMode::Fagin] {
            let cfg = FedKnnConfig { k, mode, batch: 2, cost_scale: 1.0 };
            let case = format!("{label} {mode:?} N={n} k={k}");
            let run = run_threaded_knn(he, x, part, parties, db_rows, queries, cfg, 5);
            let engine = FedKnn::new(x, part, parties, db_rows, cfg);
            let mut ledger = OpLedger::default();
            for (&q, got) in queries.iter().zip(&run.outcomes) {
                let want = engine.query(q, &mut ledger);
                let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                assert_eq!(got.topk_rows, want.topk_rows, "{case} q{q}: top-k rows");
                assert_eq!(bits(&got.d_t), bits(&want.d_t), "{case} q{q}: d_t");
                assert_eq!(got.candidates, want.candidates, "{case} q{q}: candidates");
                assert!(got.d_t.iter().all(|d| d.is_finite()), "{case} q{q}: {:?}", got.d_t);
                if db_rows.contains(&q) {
                    // Every listing of the query's row but its first is a
                    // neighbor at distance 0.
                    let again = db_rows.iter().filter(|&&r| r == q).count() - 1;
                    let own = got.topk_rows.iter().filter(|&&r| r == q).count();
                    assert_eq!(own, again.min(k), "{case} q{q}: own row");
                    assert_eq!(got.topk_rows.len(), k.min(n - 1), "{case} q{q}");
                } else {
                    assert_eq!(got.topk_rows.len(), k.min(n), "{case} q{q}");
                }
            }
        }
    }
}

#[test]
fn engines_agree_when_k_reaches_the_database() {
    let (rows, cols) = (10usize, 6usize);
    let x = Matrix::from_vec(rows, cols, seeded_uniform(0x6b, rows * cols, 0.0, 1.0));
    // Rows 0..8 form the database; 8 and 9 query from outside it.
    let db: Vec<usize> = (0..8).collect();
    let queries = [0usize, 3, 7, 8, 9];
    // One database lists row 2 twice.
    let repeated = [0usize, 1, 2, 3, 2, 4, 5];

    // Two parties keep PlainHe's f64 aggregate arrival-order-exact.
    let plain = Arc::new(PlainHe::new(4));
    let two = VerticalPartition::random(cols, 2, 7);
    assert_engines_agree(&plain, &x, &two, &[0, 1], &db, &queries, "plain P=2");
    assert_engines_agree(&plain, &x, &two, &[0, 1], &repeated, &[2, 3, 9], "plain P=2 repeat");

    let paillier = Arc::new(PaillierHe::generate(256, 8, 11).unwrap());
    let three = VerticalPartition::random(cols, 3, 7);
    assert_engines_agree(&paillier, &x, &three, &[0, 1, 2], &db, &queries, "paillier-256 P=3");
}
