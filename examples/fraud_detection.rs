//! The paper's Fig. 1 motivating scenario: a bank (leader, holds fraud
//! labels), an e-commerce company, and a credit company train a fraud
//! model together — and a fourth "hitch-rider" participant with junk data
//! asks to join. Who should the bank train with?
//!
//! This example builds the scenario with explicit feature groups, runs the
//! *threaded* federated KNN protocol with real Paillier encryption for the
//! similarity phase, and shows that VFPS-SM keeps the diverse e-commerce
//! partner while dropping the redundant credit bureau and the hitch-rider.
//!
//! ```text
//! cargo run --release -p vfps-core --example fraud_detection
//! ```

use std::sync::Arc;

use vfps_core::similarity::SimilarityAccumulator;
use vfps_core::submodular::{KnnSubmodular, Maximizer};
use vfps_data::{prepared_sized, DatasetSpec, FeatureKind, VerticalPartition};
use vfps_he::scheme::PaillierHe;
use vfps_ml::knn::KnnClassifier;
use vfps_vfl::fed_knn::{FedKnnConfig, KnnMode};
use vfps_vfl::protocol::run_threaded_knn;

const PARTY_NAMES: [&str; 4] = ["bank", "credit-bureau", "e-commerce", "hitch-rider"];

fn main() {
    // A finance-shaped dataset; its generator marks informative/redundant/
    // noise features, letting us cast the Fig. 1 roles explicitly:
    //  - bank: half the informative features (its own books),
    //  - credit bureau: redundant copies of the bank's signals,
    //  - e-commerce: the *other* half of the informative features,
    //  - hitch-rider: pure noise.
    let spec = DatasetSpec::by_name("Credit").expect("catalog dataset");
    let (ds, split) = prepared_sized(&spec, 500, 7);

    let mut informative = Vec::new();
    let mut redundant = Vec::new();
    let mut noise = Vec::new();
    for (i, kind) in ds.feature_kinds.iter().enumerate() {
        match kind {
            FeatureKind::Informative => informative.push(i),
            FeatureKind::Redundant => redundant.push(i),
            FeatureKind::Noise => noise.push(i),
        }
    }
    let half = informative.len() / 2;
    let partition = VerticalPartition::from_groups(
        ds.n_features(),
        vec![
            informative[..half].to_vec(), // bank
            redundant.clone(),            // credit bureau (copies of bank signal)
            informative[half..].to_vec(), // e-commerce (diverse signal)
            noise.clone(),                // hitch-rider
        ],
    );

    println!("Fig. 1 scenario — 4 candidate participants over {} features:", ds.n_features());
    for (p, name) in PARTY_NAMES.iter().enumerate() {
        println!("  {name:<14} holds {} features", partition.columns(p).len());
    }

    // Similarity phase over the REAL encrypted protocol (Paillier,
    // thread-per-node, Fagin-optimized).
    println!("\nrunning the threaded federated KNN protocol with Paillier (this is real HE)...");
    let he = Arc::new(PaillierHe::generate(512, 64, 7).expect("keygen"));
    let queries: Vec<usize> = split.train.iter().copied().take(8).collect();
    let cfg = FedKnnConfig { k: 8, mode: KnnMode::Fagin, batch: 32, cost_scale: 1.0 };
    let run =
        run_threaded_knn(&he, &ds.x, &partition, &[0, 1, 2, 3], &split.train, &queries, cfg, 7);
    println!(
        "  {} queries, {} bytes over the wire in {} messages, avg {:.0} encrypted rows/query",
        queries.len(),
        run.total_bytes,
        run.total_messages,
        run.outcomes.iter().map(|o| o.candidates as f64).sum::<f64>() / queries.len() as f64,
    );

    let mut acc = SimilarityAccumulator::new(4);
    for o in &run.outcomes {
        acc.add_query(o).expect("clean run keeps full width");
    }
    let w = acc.finish();
    println!("\nparticipant similarity w(p, s):");
    print!("  {:<14}", "");
    for name in PARTY_NAMES {
        print!("{name:>14}");
    }
    println!();
    for (p, name) in PARTY_NAMES.iter().enumerate() {
        print!("  {name:<14}");
        for s in 0..4 {
            print!("{:>14.3}", w[p][s]);
        }
        println!();
    }

    let f = KnnSubmodular::new(w);
    let (chosen, _) = f.maximize(2, Maximizer::Lazy, 0, vfps_par::global());
    println!("\nVFPS-SM selects: {:?}", chosen.iter().map(|&c| PARTY_NAMES[c]).collect::<Vec<_>>());

    // Downstream check: accuracy of the chosen pair vs the redundant pair.
    let eval = |parties: &[usize]| -> f64 {
        let cols = partition.joint_columns(parties);
        let knn = KnnClassifier::fit(
            10,
            ds.x.select_rows(&split.train).select_columns(&cols),
            split.train.iter().map(|&r| ds.y[r]).collect(),
            ds.n_classes,
        );
        knn.accuracy(
            &ds.x.select_rows(&split.test).select_columns(&cols),
            &split.test.iter().map(|&r| ds.y[r]).collect::<Vec<_>>(),
        )
    };
    println!("\ndownstream fraud-detection accuracy (KNN, k=10):");
    println!("  selected pair           : {:.4}", eval(&chosen));
    println!("  bank + credit (redundant): {:.4}", eval(&[0, 1]));
    println!("  all four                : {:.4}", eval(&[0, 1, 2, 3]));
}
