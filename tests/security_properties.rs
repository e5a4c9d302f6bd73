//! Security-property tests mirroring the paper's §IV-C analysis:
//! feature security, label security, and identity security under the
//! semi-honest model.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vfps_data::{prepared_sized, DatasetSpec, VerticalPartition};
use vfps_he::paillier;
use vfps_he::scheme::{AdditiveHe, PaillierHe};
use vfps_he::BigUint;
use vfps_net::wire::Wire;
use vfps_vfl::fed_knn::{FedKnnConfig, KnnMode};
use vfps_vfl::protocol::{run_threaded_knn, ProtoMsg};

/// Feature security: what leaves a participant is ciphertext — the raw
/// plaintext bytes of the partial distances must not appear in any
/// serialized message.
#[test]
fn transmitted_ciphertexts_do_not_leak_plaintext_bytes() {
    let he = PaillierHe::generate(256, 8, 1).unwrap();
    let secret_values = [1234.5f64, -77.25, 0.125];
    let ct = he.encrypt(&secret_values).unwrap();
    let wire_bytes = he.ct_to_bytes(&ct);
    for v in secret_values {
        let plain = v.to_le_bytes();
        let found = wire_bytes.windows(8).any(|w| w == plain);
        assert!(!found, "plaintext IEEE-754 bytes of {v} found in ciphertext");
    }
}

/// Semantic security in the protocol's usage: the same partial-distance
/// vector encrypts to different ciphertexts on every transmission, so the
/// server cannot correlate repeated queries by ciphertext equality.
#[test]
fn repeated_encryptions_are_unlinkable() {
    let he = PaillierHe::generate(256, 8, 2).unwrap();
    let values = [3.0f64, 4.0];
    let c1 = he.ct_to_bytes(&he.encrypt(&values).unwrap());
    let c2 = he.ct_to_bytes(&he.encrypt(&values).unwrap());
    assert_ne!(c1, c2);
}

/// The aggregation server can sum ciphertexts without the secret key, and
/// the sum decrypts correctly only for the leader — the exact trust split
/// of the protocol.
#[test]
fn server_computes_blind_aggregation() {
    let mut rng = StdRng::seed_from_u64(3);
    let kp = paillier::generate_keypair(&mut rng, 256).unwrap();
    // "Participants" encrypt with the public key only.
    let a = kp.public.encrypt(&BigUint::from_u64(100), &mut rng).unwrap();
    let b = kp.public.encrypt(&BigUint::from_u64(23), &mut rng).unwrap();
    // "Server" aggregates with the public key only (no decryption ability:
    // the API requires the private key object to decrypt).
    let sum = kp.public.add(&a, &b);
    // Only the "leader" (private key holder) recovers the plaintext.
    assert_eq!(kp.private.decrypt(&sum).to_u64(), Some(123));
}

/// Identity security: the ids streamed to the server during the Fagin
/// phase are pseudo IDs under a seeded shuffle, not raw database positions.
#[test]
fn server_sees_pseudo_ids_not_row_ids() {
    let spec = DatasetSpec::by_name("Rice").unwrap();
    let (ds, split) = prepared_sized(&spec, 80, 4);
    let partition = VerticalPartition::random(ds.n_features(), 2, 4);
    let he = Arc::new(PaillierHe::generate(128, 32, 4).unwrap());
    let cfg = FedKnnConfig { k: 3, mode: KnnMode::Fagin, batch: 8, cost_scale: 1.0 };
    let queries = vec![split.train[0]];
    // Two runs with different shuffle seeds must produce identical
    // neighbor sets (correctness) even though the pseudo-ID space differs.
    let r1 = run_threaded_knn(&he, &ds.x, &partition, &[0, 1], &split.train, &queries, cfg, 111);
    let r2 = run_threaded_knn(&he, &ds.x, &partition, &[0, 1], &split.train, &queries, cfg, 999);
    let mut a = r1.outcomes[0].topk_rows.clone();
    let mut b = r2.outcomes[0].topk_rows.clone();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "shuffle must not change the result");
}

/// Label security: the protocol message vocabulary has no variant that
/// carries labels; only the leader ever holds them. This is a structural
/// guarantee — exercised here by decoding every message tag.
#[test]
fn protocol_messages_never_carry_labels() {
    // Exhaustive over the message vocabulary: every variant round-trips
    // and none has a label field (enforced by the type; this test
    // documents it and pins the wire tags).
    let msgs: Vec<(u8, ProtoMsg)> = vec![
        (3, ProtoMsg::EncPartials(vec![vec![9]])),
        (4, ProtoMsg::Aggregated(vec![vec![9]])),
        (8, ProtoMsg::AggregatedPartial(vec![vec![9]], vec![0])),
        (9, ProtoMsg::NeedBatch(vec![0])),
        (10, ProtoMsg::RankBatch(vec![vec![1]])),
        (11, ProtoMsg::Candidates(vec![vec![2]])),
        (12, ProtoMsg::AllCandidates),
        (13, ProtoMsg::TopkIds(vec![vec![3]])),
        (14, ProtoMsg::DtSum(vec![1.0])),
        (15, ProtoMsg::WaveDone),
    ];
    for (tag, m) in msgs {
        let bytes = m.to_bytes();
        assert_eq!(bytes[0], tag, "wire tag pinned for audit");
        assert_eq!(ProtoMsg::from_bytes(&bytes).unwrap(), m);
    }
    // Nothing else decodes — the retired per-query tags (0, 1, 2, 5, 6, 7)
    // included, so no stale frame is ever read as something it is not.
    for tag in (0..=u8::MAX).filter(|t| !matches!(t, 3 | 4 | 8..=15)) {
        assert!(ProtoMsg::from_bytes(&[tag, 0, 0, 0, 0, 0, 0, 0, 0]).is_err(), "tag {tag}");
    }
}

/// A ciphertext tampered with in transit fails decoding or decrypts to
/// garbage rather than silently passing — the server cannot forge
/// plaintext-controlled aggregates without detection at the length level.
#[test]
fn truncated_ciphertexts_are_rejected() {
    let he = PaillierHe::generate(128, 4, 5).unwrap();
    let ct = he.encrypt(&[42.0]).unwrap();
    let bytes = he.ct_to_bytes(&ct);
    assert!(he.ct_from_bytes(&bytes[..bytes.len() / 2]).is_err());
    assert!(he.ct_from_bytes(&[]).is_err());
}
