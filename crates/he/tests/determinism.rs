//! Determinism of batched encryption and decryption across thread counts.
//!
//! Pooled, packed encryption must be a pure function of (scheme seed, call
//! sequence): the ciphertext bytes have to be bit-identical whether the
//! slot groups fanned out over 1 worker or 8; batched decryption must
//! return the serial loop's values. These tests sweep explicit pools at
//! every thread count the CI determinism matrix pins through
//! `VFPS_THREADS` and compare against the single-threaded reference.
//!
//! Sizes matter: `vfps_par` runs inputs under 64 items inline whatever the
//! pool, and the unit of work here is a slot group (4 values at 256 bits),
//! so every Paillier case carries at least 64 groups — 256 values — or its
//! "thread counts" would all be the same sequential loop.

use vfps_he::ckks::CkksParams;
use vfps_he::scheme::{seeded_uniform, AdditiveHe, CkksHe, PaillierHe, PlainHe};
use vfps_par::Pool;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn batches(flat: &[f64], width: usize) -> Vec<&[f64]> {
    flat.chunks(width).collect()
}

#[test]
fn paillier_encrypt_many_is_bit_identical_across_thread_counts() {
    // 300 values in batches of 9 (3 groups each, the last one ragged):
    // 102 slot groups.
    let flat = seeded_uniform(0xa11ce, 300, -8.0, 8.0);
    let batches = batches(&flat, 9);
    let reference: Vec<Vec<u8>> = {
        let scheme = PaillierHe::generate(256, 16, 4242).unwrap();
        let cts = scheme.encrypt_many_on(&batches, &Pool::with_threads(1)).unwrap();
        cts.iter().map(|ct| scheme.ct_to_bytes(ct)).collect()
    };
    for threads in THREADS {
        let scheme = PaillierHe::generate(256, 16, 4242).unwrap();
        let cts = scheme.encrypt_many_on(&batches, &Pool::with_threads(threads)).unwrap();
        let bytes: Vec<Vec<u8>> = cts.iter().map(|ct| scheme.ct_to_bytes(ct)).collect();
        assert_eq!(bytes, reference, "{threads} threads");
    }
}

#[test]
fn paillier_decrypt_many_is_identical_across_thread_counts() {
    // 5 ciphertexts of up to 64 values — 16 + 16 + 16 + 16 + 3 = 67 slot
    // groups, the last one a ragged tail — each a sum of three encryptions.
    let scheme = PaillierHe::generate(256, 64, 515).unwrap();
    let flat = seeded_uniform(0xdec, 3 * 265, -6.0, 6.0);
    let (a, rest) = flat.split_at(265);
    let (b, c) = rest.split_at(265);
    let encrypt = |part: &[f64]| scheme.encrypt_many(&batches(part, 64)).unwrap();
    let sums: Vec<_> = encrypt(a)
        .iter()
        .zip(&encrypt(b))
        .zip(&encrypt(c))
        .map(|((x, y), z)| scheme.add(&scheme.add(x, y), z))
        .collect();
    let asks: Vec<_> = sums.iter().map(|ct| (ct, ct.count())).collect();
    assert_eq!(asks.iter().map(|(ct, _)| ct.groups().len()).sum::<usize>(), 67);

    let looped: Vec<Vec<f64>> = asks.iter().map(|&(ct, n)| scheme.decrypt(ct, n)).collect();
    assert_eq!(looped.concat().len(), 265);
    for (got, ((x, y), z)) in looped.concat().iter().zip(a.iter().zip(b).zip(c)) {
        assert!((got - (x + y + z)).abs() <= scheme.error_bound(3));
    }
    for threads in THREADS {
        let pooled = scheme.decrypt_many_on(&asks, &Pool::with_threads(threads)).unwrap();
        assert_eq!(pooled, looped, "{threads} threads");
    }
    assert_eq!(scheme.decrypt_many(&asks).unwrap(), looped, "global pool");
}

#[test]
fn ckks_encrypt_many_is_bit_identical_across_thread_counts() {
    let params = CkksParams::insecure_test();
    let probe = CkksHe::generate(&params, 77).unwrap();
    let slots = probe.max_batch();
    // Four full batches, then three of 4 values: slots the batch leaves
    // empty.
    let full = seeded_uniform(0xcafe, 4 * slots, -1.0, 1.0);
    let partial = seeded_uniform(4, 12, -1.0, 1.0);
    for (flat, width) in [(&full, slots), (&partial, 4)] {
        let batches = batches(flat, width);
        let reference: Vec<Vec<u8>> = {
            let scheme = CkksHe::generate(&params, 77).unwrap();
            let cts = scheme.encrypt_many_on(&batches, &Pool::with_threads(1)).unwrap();
            cts.iter().map(|ct| scheme.ct_to_bytes(ct)).collect()
        };
        for threads in THREADS {
            let scheme = CkksHe::generate(&params, 77).unwrap();
            let cts = scheme.encrypt_many_on(&batches, &Pool::with_threads(threads)).unwrap();
            let bytes: Vec<Vec<u8>> = cts.iter().map(|ct| scheme.ct_to_bytes(ct)).collect();
            assert_eq!(bytes, reference, "{width}-value batches, {threads} threads");
        }
    }
}

#[test]
fn default_encrypt_many_is_deterministic_for_plain_scheme() {
    // PlainHe exercises the trait's default implementation, which fans out
    // on the global pool; its output must equal the serial per-batch path.
    let scheme = PlainHe::new(8);
    let flat = seeded_uniform(0xdead, 40, -2.0, 2.0);
    let batches = batches(&flat, 5);
    let serial: Vec<Vec<f64>> = batches.iter().map(|b| scheme.encrypt(b).unwrap()).collect();
    let pooled = scheme.encrypt_many(&batches).unwrap();
    assert_eq!(pooled, serial);
}

#[test]
fn repeated_encrypt_calls_differ_but_decrypt_identically() {
    // Fresh noise indices per call: semantic security (distinct bytes),
    // exactness (identical plaintexts back).
    let scheme = PaillierHe::generate(256, 8, 11).unwrap();
    let values = [1.5, -2.25, 3.0];
    let c1 = scheme.encrypt(&values).unwrap();
    let c2 = scheme.encrypt(&values).unwrap();
    assert_ne!(scheme.ct_to_bytes(&c1), scheme.ct_to_bytes(&c2));
    assert_eq!(scheme.decrypt(&c1, 3), scheme.decrypt(&c2, 3));
}
