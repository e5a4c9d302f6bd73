//! Random generation: uniform values, ranges, and prime search.

use super::BigUint;
use rand::Rng;

impl BigUint {
    /// Uniformly random value with exactly `bits` significant bits
    /// (the top bit is forced to 1). `bits` must be ≥ 1.
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        let mut v = vec![0u64; bits.div_ceil(64)];
        Self::fill_random_bits(rng, bits, &mut v);
        Self::from_limbs(v)
    }

    /// [`BigUint::random_bits`] into the caller's `⌈bits/64⌉` limbs: the
    /// same draws, so the same value.
    pub(crate) fn fill_random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize, out: &mut [u64]) {
        assert!(bits >= 1, "random_bits needs at least one bit");
        let limbs = bits.div_ceil(64);
        assert_eq!(out.len(), limbs, "{bits} random bits fill {limbs} limbs");
        out.iter_mut().for_each(|limb| *limb = rng.gen());
        let top_bits = bits - (limbs - 1) * 64;
        let mask = if top_bits == 64 { u64::MAX } else { (1u64 << top_bits) - 1 };
        let last = limbs - 1;
        out[last] &= mask;
        out[last] |= 1u64 << (top_bits - 1);
    }

    /// Uniformly random value in `[0, bound)` by rejection sampling.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &Self) -> Self {
        assert!(!bound.is_zero(), "random_below with zero bound");
        let bits = bound.bits();
        let limbs = bits.div_ceil(64);
        let top_bits = bits - (limbs - 1) * 64;
        let mask = if top_bits == 64 { u64::MAX } else { (1u64 << top_bits) - 1 };
        loop {
            let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
            let last = limbs - 1;
            v[last] &= mask;
            let candidate = Self::from_limbs(v);
            if candidate < *bound {
                return candidate;
            }
        }
    }

    /// Uniformly random value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn random_range<R: Rng + ?Sized>(rng: &mut R, lo: &Self, hi: &Self) -> Self {
        assert!(lo <= hi, "random_range with lo > hi");
        let span = hi.sub(lo).add_u64(1);
        lo.add(&Self::random_below(rng, &span))
    }

    /// Random value in `[1, n)` that is coprime with `n` (rejection loop).
    pub fn random_coprime<R: Rng + ?Sized>(rng: &mut R, n: &Self) -> Self {
        loop {
            let r = Self::random_range(rng, &Self::one(), &n.sub(&Self::one()));
            if r.gcd(n).is_one() {
                return r;
            }
        }
    }

    /// Random probable prime with exactly `bits` bits (top and bottom bits
    /// forced to 1, then incremental search by 2).
    pub fn random_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(bits >= 2, "primes need at least 2 bits");
        loop {
            let mut candidate = Self::random_bits(rng, bits);
            if candidate.is_even() {
                candidate = candidate.add_u64(1);
            }
            // Walk odd numbers from the candidate; restart if we leave the
            // requested bit width.
            for _ in 0..2048 {
                if candidate.bits() != bits {
                    break;
                }
                if candidate.is_probable_prime(rng) {
                    return candidate;
                }
                candidate = candidate.add_u64(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_bits_width_is_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        for bits in [1usize, 2, 17, 64, 65, 128, 257] {
            let v = BigUint::random_bits(&mut rng, bits);
            assert_eq!(v.bits(), bits, "bits={bits}");
        }
    }

    #[test]
    fn random_below_respects_bound() {
        let mut rng = StdRng::seed_from_u64(2);
        let bound = BigUint::from_u64(1000);
        for _ in 0..200 {
            assert!(BigUint::random_below(&mut rng, &bound) < bound);
        }
    }

    #[test]
    fn random_below_covers_range() {
        // With bound 4, all residues should appear over many draws.
        let mut rng = StdRng::seed_from_u64(3);
        let bound = BigUint::from_u64(4);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let v = BigUint::random_below(&mut rng, &bound).to_u64().unwrap();
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn random_range_inclusive() {
        let mut rng = StdRng::seed_from_u64(4);
        let lo = BigUint::from_u64(10);
        let hi = BigUint::from_u64(12);
        let mut seen = [false; 3];
        for _ in 0..100 {
            let v = BigUint::random_range(&mut rng, &lo, &hi).to_u64().unwrap();
            assert!((10..=12).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn random_coprime_is_coprime() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = BigUint::from_u64(360);
        for _ in 0..50 {
            let r = BigUint::random_coprime(&mut rng, &n);
            assert!(r.gcd(&n).is_one());
            assert!(r < n && !r.is_zero());
        }
    }

    #[test]
    fn random_prime_has_width_and_is_prime() {
        let mut rng = StdRng::seed_from_u64(6);
        for bits in [16usize, 32, 64, 128] {
            let p = BigUint::random_prime(&mut rng, bits);
            assert_eq!(p.bits(), bits);
            assert!(p.is_probable_prime(&mut rng));
        }
    }

    #[test]
    fn fill_random_bits_draws_what_random_bits_draws() {
        for bits in [1usize, 63, 64, 65, 200] {
            let v = BigUint::random_bits(&mut StdRng::seed_from_u64(9), bits);
            let mut out = vec![u64::MAX; bits.div_ceil(64)];
            BigUint::fill_random_bits(&mut StdRng::seed_from_u64(9), bits, &mut out);
            assert_eq!(BigUint::from_limbs(out), v, "bits={bits}");
        }
    }

    #[test]
    #[should_panic(expected = "random bits fill")]
    fn fill_random_bits_refuses_a_misfit_buffer() {
        let mut out = [0u64; 3];
        BigUint::fill_random_bits(&mut StdRng::seed_from_u64(1), 64, &mut out);
    }
}
