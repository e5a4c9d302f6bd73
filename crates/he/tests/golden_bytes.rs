//! Golden ciphertext bytes.
//!
//! Every other pin on the Paillier path compares the code with itself
//! (thread counts, prefill, CRT against its oracle); this one compares it
//! with bytes on disk. `golden_bytes.txt` was captured at f4a899b — the
//! commit before encrypt's finish, `add` and decrypt's entry and tail moved
//! onto the Montgomery kernel — so a change to the arithmetic that moves
//! one key bit, one noise factor or one ciphertext byte fails here. Never
//! regenerate the vectors from current code: a deliberate change to the
//! key schedule or the ciphertext format edits them and says so.
//!
//! Per key width, on a fresh `PaillierHe::generate(bits, 64, 7)`: the
//! modulus, a 3-value ciphertext through `encrypt_on` (noise index 0), two
//! full 64-value chunks through one `encrypt_many_on` (the following
//! indices), and their `add`. The sequence is replayed on pools of
//! 1 / 2 / 4 / 8 threads, with and without a partial noise prefill.

use vfps_he::scheme::{AdditiveHe, PaillierHe};
use vfps_par::Pool;

const VECTORS: &str = include_str!("golden_bytes.txt");

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `(name, hex)` for everything pinned at one key width.
fn observed(bits: usize, pool: &Pool, prefill: usize) -> Vec<(String, String)> {
    let scheme = PaillierHe::generate(bits, 64, 7).unwrap();
    if prefill > 0 {
        scheme.prefill_noise(prefill, pool);
    }
    let chunk = |from: usize| -> Vec<f64> {
        (from..from + 64).map(|i| (i as f64 - 64.0) * 0.375).collect()
    };
    let (a, b) = (chunk(0), chunk(64));
    let small = scheme.encrypt_on(&[1.0, 2.0, 3.0], pool).unwrap();
    let chunks = scheme.encrypt_many_on(&[&a, &b], pool).unwrap();
    let sum = scheme.add(&chunks[0], &chunks[1]);
    assert_eq!(scheme.decrypt(&small, 3), [1.0, 2.0, 3.0]);
    let want: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
    assert_eq!(scheme.decrypt(&sum, 64), want);
    let ct = |ct| hex(&scheme.ct_to_bytes(ct));
    vec![
        (format!("paillier{bits}.n"), scheme.keypair().public.modulus().to_hex()),
        (format!("paillier{bits}.small"), ct(&small)),
        (format!("paillier{bits}.chunk0"), ct(&chunks[0])),
        (format!("paillier{bits}.chunk1"), ct(&chunks[1])),
        (format!("paillier{bits}.sum"), ct(&sum)),
    ]
}

fn golden(name: &str) -> &'static str {
    VECTORS
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no golden vector named {name}"))
}

fn check(bits: usize) {
    for threads in [1usize, 2, 4, 8] {
        let pool = Pool::with_threads(threads);
        // 33 noise indices are consumed at 256 bits, 17 at 512: none, some
        // and more than all of them prefilled.
        for prefill in [0usize, 5, 40] {
            for (name, got) in observed(bits, &pool, prefill) {
                assert_eq!(got, golden(&name), "{name}, {threads} threads, prefill {prefill}");
            }
        }
    }
}

#[test]
fn paillier_256_bytes_are_the_captured_ones() {
    check(256);
}

#[test]
fn paillier_512_bytes_are_the_captured_ones() {
    check(512);
}
