//! Property-based tests of the HE substrate's core invariants.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use vfps_he::bigint::{BigInt, BigUint, MontgomeryCtx};
use vfps_he::keys::{decode_paillier_public, decode_paillier_secret};
use vfps_he::packing::{PackingLayout, DEFAULT_MAX_TERMS, MAG_BITS};
use vfps_he::paillier::{generate_keypair, PaillierEncryptor};
use vfps_he::scheme::{seeded_uniform, AdditiveHe, PaillierHe};
use vfps_he::{Error, FixedPoint};

fn biguint_strategy(max_limbs: usize) -> impl Strategy<Value = BigUint> {
    proptest::collection::vec(any::<u64>(), 0..=max_limbs).prop_map(BigUint::from_limbs)
}

thread_local! {
    static ALLOCATED_BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Counts the bytes each thread asks the heap for, so a decoder's
/// allocations can be bounded by its input.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments, so
// `System`'s guarantees carry over; the counter is a const-initialized
// `Cell<usize>` thread-local with no destructor, so touching it here
// neither allocates nor can run after the thread's TLS teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.with(|a| a.set(a.get() + layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED_BYTES.with(|a| a.set(a.get() + new_size));
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the heap bytes this thread asked for running it.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED_BYTES.with(Cell::get);
    let out = f();
    (out, ALLOCATED_BYTES.with(Cell::get) - before)
}

/// Heap bytes a refused decode may take beyond its input: the error's
/// message.
const ERROR_BYTES: usize = 64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ring laws: commutativity, associativity, distributivity.
    #[test]
    fn bigint_ring_laws(
        a in biguint_strategy(4),
        b in biguint_strategy(4),
        c in biguint_strategy(3),
    ) {
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
        prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
        prop_assert_eq!(a.add(&b).mul(&c), a.mul(&c).add(&b.mul(&c)));
    }

    /// Division identity: a = q·d + r with r < d.
    #[test]
    fn bigint_divrem_identity(a in biguint_strategy(6), d in biguint_strategy(3)) {
        prop_assume!(!d.is_zero());
        let (q, r) = a.divrem(&d);
        prop_assert!(r < d);
        prop_assert_eq!(q.mul(&d).add(&r), a);
    }

    /// Byte/hex serialization round-trips.
    #[test]
    fn bigint_serialization_roundtrip(a in biguint_strategy(5)) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a.clone());
        prop_assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a.clone());
        prop_assert_eq!(BigUint::from_decimal(&a.to_decimal()).unwrap(), a);
    }

    /// Montgomery modpow agrees with the division-based oracle.
    #[test]
    fn montgomery_matches_plain(
        base in biguint_strategy(3),
        exp in biguint_strategy(2),
        m in biguint_strategy(3),
    ) {
        let modulus = if m.is_even() { m.add_u64(1) } else { m };
        prop_assume!(!modulus.is_zero() && !modulus.is_one());
        if let Some(ctx) = MontgomeryCtx::new(&modulus) {
            prop_assert_eq!(
                ctx.mod_pow(&base, &exp),
                base.mod_pow_plain(&exp, &modulus)
            );
        }
    }

    /// Extended gcd produces a valid Bézout identity.
    #[test]
    fn bezout_identity(a in any::<i64>(), b in any::<i64>()) {
        let ba = BigInt::from_i64(a);
        let bb = BigInt::from_i64(b);
        let (g, x, y) = ba.extended_gcd(&bb);
        prop_assert_eq!(ba.mul(&x).add(&bb.mul(&y)), g);
    }

    /// Fixed-point codec: round-trip error within the quantization bound.
    #[test]
    fn fixed_point_roundtrip(x in -1e9f64..1e9) {
        let fp = FixedPoint::default_codec();
        let v = fp.encode(x).unwrap();
        prop_assert!((fp.decode(v) - x).abs() <= fp.quantization_error());
    }
}

proptest! {
    // Key generation is expensive; keep the case count low and the keys
    // fixed per test body.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Paillier: Dec(Enc(a) ⊕ Enc(b)) = a + b for random real batches.
    #[test]
    fn paillier_homomorphism(
        a in proptest::collection::vec(-1e6f64..1e6, 4),
        b in proptest::collection::vec(-1e6f64..1e6, 4),
    ) {
        let he = PaillierHe::generate(256, 8, 0xbeef).unwrap();
        let ca = he.encrypt(&a).unwrap();
        let cb = he.encrypt(&b).unwrap();
        let out = he.decrypt(&he.add(&ca, &cb), 4);
        for i in 0..4 {
            prop_assert!((out[i] - (a[i] + b[i])).abs() < 1e-6, "slot {}", i);
        }
    }

    /// Paillier ciphertext serialization round-trips.
    #[test]
    fn ciphertext_wire_roundtrip(values in proptest::collection::vec(-1e4f64..1e4, 3)) {
        let p = PaillierHe::generate(128, 4, 7).unwrap();
        let cp = p.encrypt(&values).unwrap();
        prop_assert_eq!(p.ct_from_bytes(&p.ct_to_bytes(&cp)).unwrap(), cp);
    }

    /// CRT decryption agrees with the `λ`/`μ` oracle under a fresh key of
    /// every width, on raw residues and on their homomorphic sum.
    #[test]
    fn crt_decrypt_matches_oracle(seed in any::<u64>(), width in 0usize..4, terms in 1usize..=16) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = generate_keypair(&mut rng, [64, 128, 256, 512][width]).unwrap();
        let enc = PaillierEncryptor::new(&kp.public, &mut rng);
        let n = kp.public.modulus();
        let mut sum: Option<(BigUint, _)> = None;
        for i in 0..terms {
            let m = BigUint::random_below(&mut rng, n);
            let c = enc.encrypt_seeded(&m, seed ^ i as u64).unwrap();
            prop_assert_eq!(kp.private.decrypt(&c), m.clone());
            prop_assert_eq!(kp.private.decrypt_plain(&c), m.clone());
            sum = Some(match sum {
                None => (m, c),
                Some((sm, sc)) => (sm.add_mod(&m, n), kp.public.add(&sc, &c)),
            });
        }
        let (m, c) = sum.expect("at least one term");
        prop_assert_eq!(kp.private.decrypt(&c), m.clone());
        prop_assert_eq!(kp.private.decrypt_plain(&c), m);
    }

    /// Pool-backed fast-path ciphertexts decrypt to exactly the same
    /// plaintext residues as the slow reference path.
    #[test]
    fn fast_path_matches_slow_path_oracle(seeds in proptest::collection::vec(any::<u64>(), 4)) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0xfeed);
        let kp = generate_keypair(&mut rng, 128).unwrap();
        let enc = PaillierEncryptor::new(&kp.public, &mut rng);
        for (i, &seed) in seeds.iter().enumerate() {
            let m = BigUint::from_u64(seed).rem(kp.public.modulus());
            let fast = enc.encrypt_seeded(&m, seed ^ i as u64).unwrap();
            let slow = kp.public.encrypt(&m, &mut rng).unwrap();
            prop_assert_eq!(kp.private.decrypt(&fast), kp.private.decrypt(&slow));
        }
    }
}

proptest! {
    // Keys of at most 256 bits: cheap enough for every (width, j, k) to
    // come up.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `PaillierCiphertext::from_biguint` validates nothing, so the public
    /// key's `add` must stay total over unreduced operands: `c + j·n²` is
    /// the ciphertext `c`, whichever operand it is — where a bare
    /// Montgomery product would return garbage for an operand wider than
    /// the modulus. Widths cover an `n²` whose top limb
    /// is nearly empty (`c + 3n²` still fits its limbs and goes straight
    /// into the kernel) and nearly full (it does not, and is divided).
    #[test]
    fn homomorphic_ops_are_total_over_unreduced_ciphertexts(
        seed in any::<u64>(),
        width in 0usize..5,
        j in 0u64..=3,
        k in 0u64..=3,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use vfps_he::paillier::PaillierCiphertext;
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = generate_keypair(&mut rng, [64, 65, 128, 250, 256][width]).unwrap();
        let pk = &kp.public;
        let (n, n_squared) = (pk.modulus(), pk.modulus_squared());
        let enc = PaillierEncryptor::new(pk, &mut rng);
        let (mc, md) = (BigUint::random_below(&mut rng, n), BigUint::random_below(&mut rng, n));
        let c = enc.encrypt_seeded(&mc, seed).unwrap();
        let d = enc.encrypt_seeded(&md, !seed).unwrap();
        let lift = |ct: &PaillierCiphertext, by: u64| {
            PaillierCiphertext::from_biguint(ct.as_biguint().add(&n_squared.mul_u64(by)))
        };
        let (wide_c, wide_d) = (lift(&c, j), lift(&d, k));

        let sum = pk.add(&c, &d);
        prop_assert_eq!(sum.as_biguint(), &c.as_biguint().mul_mod(d.as_biguint(), n_squared));
        prop_assert_eq!(&pk.add(&wide_c, &d), &sum);
        prop_assert_eq!(&pk.add(&c, &wide_d), &sum);
        prop_assert_eq!(&pk.add(&wide_c, &wide_d), &sum);
        prop_assert_eq!(kp.private.decrypt(&sum), mc.add_mod(&md, n));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packing round-trips arbitrary in-range values, including boundary
    /// magnitudes at exactly ±2^MAG_BITS.
    #[test]
    fn packing_roundtrip(
        mut vals in proptest::collection::vec(-(1i64 << MAG_BITS)..=(1i64 << MAG_BITS), 1..8),
        which in 0usize..3,
    ) {
        // Force one boundary magnitude into every case.
        vals[0] = [1i64 << MAG_BITS, -(1i64 << MAG_BITS), 0][which];
        let layout = PackingLayout::for_key(512, DEFAULT_MAX_TERMS).unwrap();
        let packed = layout.pack(&vals).unwrap();
        let got = layout.unpack(&packed, vals.len(), 1).unwrap();
        let want: Vec<i128> = vals.iter().map(|&v| i128::from(v)).collect();
        prop_assert_eq!(got, want);
    }

    /// Out-of-range values and exceeded headroom fail with typed errors,
    /// never silently corrupt neighbouring slots.
    #[test]
    fn packing_rejects_overflow(extra in 1i64..1_000_000) {
        let layout = PackingLayout::for_key(256, 4).unwrap();
        let too_big = (1i64 << MAG_BITS) + extra;
        prop_assert!(matches!(
            layout.pack(&[too_big]),
            Err(Error::PackedValueOutOfRange { .. })
        ));
        prop_assert!(matches!(
            layout.pack(&[-too_big]),
            Err(Error::PackedValueOutOfRange { .. })
        ));
        let packed = layout.pack(&[1]).unwrap();
        prop_assert!(matches!(
            layout.unpack(&packed, 1, 4 + (extra % 16 + 1) as u32),
            Err(Error::PackedHeadroomExceeded { .. })
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The key decoders are total over hostile bytes: arbitrary input, and
    /// a valid `VFPK` header whose `u32` length prefix — after `valid`
    /// well-formed integers — names more bytes than follow. Every decode
    /// is an `Err`, never a panic, and asks the heap for no more than the
    /// input's length and an error message.
    #[test]
    fn key_decoders_refuse_hostile_bytes(
        junk in proptest::collection::vec(any::<u8>(), 0..48),
        valid in 0usize..=2,
        claimed in 48u32..=u32::MAX,
    ) {
        let frame = |kind: u8, valid: usize| {
            let mut out = b"VFPK\x01".to_vec();
            out.push(kind);
            for _ in 0..valid {
                out.extend_from_slice(&[0, 0, 0, 1, 7]);
            }
            out.extend_from_slice(&claimed.to_be_bytes());
            out.extend_from_slice(&junk);
            out
        };
        let (public, secret) = (frame(0, valid.min(1)), frame(1, valid));
        for input in [&junk[..], &public[..], &secret[..]] {
            let (refused, bytes) = allocated(|| decode_paillier_public(input).is_err());
            prop_assert!(refused, "public key from {:?}", input);
            prop_assert!(bytes <= input.len() + ERROR_BYTES, "public: {} bytes", bytes);
            let (refused, bytes) = allocated(|| decode_paillier_secret(input).is_err());
            prop_assert!(refused, "secret key from {:?}", input);
            prop_assert!(bytes <= input.len() + ERROR_BYTES, "secret: {} bytes", bytes);
        }
    }
}

/// The cross-crate fixture generator: a pure function of its seed, drawing
/// in `[lo, hi)`, whose shorter draws are prefixes of longer ones.
#[test]
fn seeded_uniform_is_a_prefix_stable_function_of_the_seed() {
    let long = seeded_uniform(17, 64, -3.0, 5.0);
    assert_eq!(seeded_uniform(17, 64, -3.0, 5.0), long);
    assert_eq!(seeded_uniform(17, 10, -3.0, 5.0), long[..10]);
    assert!(long.iter().all(|v| (-3.0..5.0).contains(v)));
    assert_ne!(seeded_uniform(18, 64, -3.0, 5.0), long);
    assert!(seeded_uniform(17, 0, -3.0, 5.0).is_empty());
}
