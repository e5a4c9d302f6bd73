//! Contracts of the consortium and split machinery every experiment runs
//! on: vertical partitions (even, random, duplicated), the 80/10/10 split
//! and the label-noise probe.

use proptest::prelude::*;
use vfps_data::{prepared_sized, DatasetSpec, Split, SplitPart, VerticalPartition};

fn sizes(p: &VerticalPartition) -> Vec<usize> {
    p.all_columns().iter().map(Vec::len).collect()
}

#[test]
#[should_panic(expected = "need at least one party")]
fn a_partition_needs_a_party() {
    let _ = VerticalPartition::random(4, 0, 1);
}

#[test]
#[should_panic(expected = "column 5 out of range")]
fn from_groups_rejects_an_out_of_range_column() {
    let _ = VerticalPartition::from_groups(5, vec![vec![0, 1], vec![5]]);
}

/// Duplicates repeat the source's columns after the originals; the joint
/// view of a party and its copies is the party's own columns once.
#[test]
fn duplicates_append_copies_of_the_source() {
    let base = VerticalPartition::even(7, 3);
    assert_eq!(base.with_duplicates(1, 0), base);
    let dup = base.with_duplicates(1, 2);
    assert_eq!(dup.parties(), 5);
    assert_eq!(&dup.all_columns()[..3], base.all_columns());
    assert_eq!(dup.columns(3), base.columns(1));
    assert_eq!(dup.columns(4), base.columns(1));
    assert_eq!(dup.joint_columns(&[1, 3, 4]), base.columns(1));
}

#[test]
fn split_parts_materialize_their_own_rows() {
    let spec = DatasetSpec::by_name("Rice").unwrap();
    let (ds, split) = prepared_sized(&spec, 120, 3);
    for (part, idx) in [
        (SplitPart::Train, &split.train),
        (SplitPart::Val, &split.val),
        (SplitPart::Test, &split.test),
    ] {
        let (x, y) = split.take(&ds, part);
        assert_eq!(x.rows(), idx.len());
        for (r, &i) in idx.iter().enumerate() {
            assert_eq!(x.row(r), ds.x.row(i), "{part:?} row {r}");
            assert_eq!(y[r], ds.y[i]);
        }
    }
}

/// Fraction 0 keeps every label; fraction 1 moves every label to another
/// class; features never change.
#[test]
fn label_noise_extremes() {
    let spec = DatasetSpec::by_name("Rice").unwrap();
    let (ds, _) = prepared_sized(&spec, 100, 5);
    assert_eq!(ds.with_label_noise(0.0, 9).y, ds.y);
    let flipped = ds.with_label_noise(1.0, 9);
    assert!(flipped.y.iter().zip(&ds.y).all(|(a, b)| a != b && *a < ds.n_classes));
    assert_eq!(flipped.x, ds.x);
}

#[test]
#[should_panic(expected = "fraction must be in [0, 1]")]
fn label_noise_rejects_a_fraction_above_one() {
    let spec = DatasetSpec::by_name("Rice").unwrap();
    let (ds, _) = prepared_sized(&spec, 20, 5);
    let _ = ds.with_label_noise(1.5, 0);
}

proptest! {
    /// Even and random partitions deal the same near-equal group sizes
    /// (largest groups first), and each covers every column exactly once.
    #[test]
    fn partitions_cover_every_column_once(
        features in 1usize..40,
        parties in 1usize..8,
        seed in 0u64..1000,
    ) {
        prop_assume!(parties <= features);
        let even = VerticalPartition::even(features, parties);
        let random = VerticalPartition::random(features, parties, seed);
        prop_assert_eq!(sizes(&even), sizes(&random));
        let s = sizes(&even);
        prop_assert!(s.windows(2).all(|w| w[0] >= w[1] && w[0] - w[1] <= 1));
        let all: Vec<usize> = (0..parties).collect();
        for p in [&even, &random] {
            prop_assert_eq!(p.joint_columns(&all), (0..features).collect::<Vec<_>>());
        }
    }

    /// The split sizes are 80/10/rest and the three parts partition `0..n`.
    #[test]
    fn paper_split_partitions_the_rows(n in 10usize..400, seed in 0u64..1000) {
        let split = Split::paper_split(n, seed);
        prop_assert_eq!(split.train.len(), n * 8 / 10);
        prop_assert_eq!(split.val.len(), n / 10);
        let mut all: Vec<usize> =
            split.train.iter().chain(&split.val).chain(&split.test).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
    }
}
