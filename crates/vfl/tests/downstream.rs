//! Downstream split training computes the centralized model on the joint
//! columns and bills the federated protocol on top (DESIGN.md §3): the
//! model is the one a plain logistic regression on those columns learns,
//! and a duplicate participant moves the bill but not the model.

use vfps_data::{prepared_sized, Dataset, DatasetSpec, Split, SplitPart, VerticalPartition};
use vfps_ml::mlp::TrainConfig;
use vfps_ml::LogisticRegression;
use vfps_vfl::{train_downstream, Downstream, DownstreamReport};

fn world() -> (Dataset, Split, VerticalPartition) {
    let spec = DatasetSpec::by_name("Rice").unwrap();
    let (ds, split) = prepared_sized(&spec, 240, 11);
    let partition = VerticalPartition::random(ds.n_features(), 4, 11);
    (ds, split, partition)
}

fn split_lr(
    world: &(Dataset, Split, VerticalPartition),
    partition: &VerticalPartition,
    parties: &[usize],
) -> DownstreamReport {
    let (ds, split, _) = world;
    train_downstream(ds, split, partition, parties, Downstream::Lr, &TrainConfig::fast(), 1.0, 5)
}

#[test]
fn split_lr_is_the_centralized_lr_on_the_joint_columns() {
    let world = world();
    let (ds, split, partition) = &world;
    let report = split_lr(&world, partition, &[0, 2]);

    let cols = partition.joint_columns(&[0, 2]);
    let part = |which| {
        let (x, y) = split.take(ds, which);
        (x.select_columns(&cols), y)
    };
    let ((tx, ty), (vx, vy), (sx, sy)) =
        (part(SplitPart::Train), part(SplitPart::Val), part(SplitPart::Test));
    let cfg = TrainConfig::fast();
    let mut lr = LogisticRegression::new(cols.len(), ds.n_classes, cfg.lr, 5);
    let fit = lr.fit(&tx, &ty, &vx, &vy, &cfg);
    assert_eq!(report.epochs, fit.epochs_run);
    assert_eq!(report.accuracy, lr.accuracy(&sx, &sy));
}

#[test]
fn a_duplicate_party_moves_the_bill_but_not_the_model() {
    let world = world();
    let partition = &world.2;
    let dup = partition.with_duplicates(1, 1);
    let once = split_lr(&world, partition, &[0, 1]);
    let twice = split_lr(&world, &dup, &[0, 1, 4]);
    assert_eq!((twice.accuracy, twice.epochs), (once.accuracy, once.epochs));
    assert!(
        twice.ledger.enc.work > once.ledger.enc.work,
        "the copy still encrypts its activations"
    );
}
