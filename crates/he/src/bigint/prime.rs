//! Primality testing: trial division by small primes, then Miller–Rabin.

use super::montgomery::MontScratch;
use super::BigUint;
use rand::Rng;

/// Small primes used for cheap pre-screening before Miller–Rabin.
const SMALL_PRIMES: [u64; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// Number of Miller–Rabin rounds; error probability ≤ 4^-ROUNDS.
const MR_ROUNDS: usize = 24;

impl BigUint {
    /// Probabilistic primality test (Miller–Rabin with 24 random
    /// bases after small-prime trial division).
    pub fn is_probable_prime<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        if let Some(v) = self.to_u64() {
            if v < 2 {
                return false;
            }
            if SMALL_PRIMES.contains(&v) {
                return true;
            }
        }
        if self.is_even() {
            return false;
        }
        for &p in &SMALL_PRIMES {
            let (_, r) = self.divrem_u64(p);
            if r == 0 {
                return self.to_u64() == Some(p);
            }
        }
        self.miller_rabin(rng, MR_ROUNDS)
    }

    /// Miller–Rabin with `rounds` random bases. Assumes `self` is odd and > 3.
    fn miller_rabin<R: Rng + ?Sized>(&self, rng: &mut R, rounds: usize) -> bool {
        let one = Self::one();
        let n_minus_1 = self.sub(&one);
        // n - 1 = d * 2^s with d odd.
        let s = trailing_zeros(&n_minus_1);
        let d = n_minus_1.shr(s);
        let n_minus_2 = n_minus_1.sub(&one);
        // Every round exponentiates modulo the same candidate: one context
        // and one set of buffers serve them all.
        let ctx = Self::montgomery_ctx(self);
        let mut scratch = MontScratch::default();

        'witness: for _ in 0..rounds {
            let a = Self::random_range(rng, &Self::from_u64(2), &n_minus_2);
            let mut x = match &ctx {
                Some(ctx) => ctx.mod_pow_with(&a, &d, &mut scratch),
                None => a.mod_pow_plain(&d, self),
            };
            if x.is_one() || x == n_minus_1 {
                continue;
            }
            for _ in 0..s.saturating_sub(1) {
                x = x.square().rem(self);
                if x == n_minus_1 {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }
}

fn trailing_zeros(v: &BigUint) -> usize {
    debug_assert!(!v.is_zero());
    let mut tz = 0;
    for &l in v.limbs() {
        if l == 0 {
            tz += 64;
        } else {
            return tz + l.trailing_zeros() as usize;
        }
    }
    tz
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn small_primes_detected() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 97, 251, 257, 65537, 1_000_000_007] {
            assert!(BigUint::from_u64(p).is_probable_prime(&mut r), "{p}");
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut r = rng();
        for c in [0u64, 1, 4, 9, 15, 91, 561, 1105, 6601, 1_000_000_008] {
            assert!(!BigUint::from_u64(c).is_probable_prime(&mut r), "{c}");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat tests but not Miller–Rabin.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341] {
            assert!(!BigUint::from_u64(c).is_probable_prime(&mut r), "{c}");
        }
    }

    #[test]
    fn mersenne_primes() {
        let mut r = rng();
        for e in [13u32, 17, 19, 31, 61, 89, 107, 127] {
            let m = BigUint::one().shl(e as usize).sub(&BigUint::one());
            assert!(m.is_probable_prime(&mut r), "2^{e}-1");
        }
        // 2^67 - 1 is famously composite.
        let m67 = BigUint::one().shl(67).sub(&BigUint::one());
        assert!(!m67.is_probable_prime(&mut r));
    }

    #[test]
    fn large_known_prime() {
        // 2^89-1 shifted composites around it.
        let mut r = rng();
        let p = BigUint::from_decimal("618970019642690137449562111").unwrap(); // 2^89-1
        assert!(p.is_probable_prime(&mut r));
        assert!(!p.add(&BigUint::from_u64(2)).is_probable_prime(&mut r));
    }
}
