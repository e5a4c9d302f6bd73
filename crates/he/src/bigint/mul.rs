//! Multiplication: schoolbook for small operands, Karatsuba above a
//! threshold. The threshold is conservative; Paillier operands (16–64 limbs)
//! sit right around the crossover.

use super::BigUint;

/// Limb count above which Karatsuba is used.
const KARATSUBA_THRESHOLD: usize = 24;

impl BigUint {
    /// `self * other`.
    #[must_use]
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let n = self.limbs.len().min(other.limbs.len());
        if n < KARATSUBA_THRESHOLD {
            Self::from_limbs(schoolbook(&self.limbs, &other.limbs))
        } else {
            karatsuba(self, other)
        }
    }

    /// `self * v` for a small multiplier.
    #[must_use]
    pub fn mul_u64(&self, v: u64) -> Self {
        if v == 0 || self.is_zero() {
            return Self::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry = 0u128;
        for &l in &self.limbs {
            let t = u128::from(l) * u128::from(v) + carry;
            out.push(t as u64);
            carry = t >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        Self::from_limbs(out)
    }

    /// `self * self`, slightly cheaper than `mul` for squaring-heavy modpow.
    #[must_use]
    pub fn square(&self) -> Self {
        // A dedicated squaring routine would halve the limb products; the
        // symmetric schoolbook is kept for clarity and Karatsuba already
        // captures the asymptotic win for big operands.
        self.mul(self)
    }
}

fn schoolbook(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len()];
    mul_into(&mut out, a, b);
    out
}

/// `out = a · b` in the caller's limbs, schoolbook: `out` is zeroed first
/// and must hold `a.len() + b.len()` limbs.
pub(crate) fn mul_into(out: &mut [u64], a: &[u64], b: &[u64]) {
    out.fill(0);
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let t = u128::from(ai) * u128::from(bj) + u128::from(out[i + j]) + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = u128::from(out[k]) + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
}

fn karatsuba(a: &BigUint, b: &BigUint) -> BigUint {
    let half = a.limbs.len().max(b.limbs.len()) / 2;
    let (a0, a1) = split(a, half);
    let (b0, b1) = split(b, half);
    let z0 = a0.mul(&b0);
    let z2 = a1.mul(&b1);
    let z1 = a0.add(&a1).mul(&b0.add(&b1)).sub(&z0).sub(&z2);
    z2.shl(half * 128).add(&z1.shl(half * 64)).add(&z0)
}

fn split(x: &BigUint, at: usize) -> (BigUint, BigUint) {
    if x.limbs.len() <= at {
        (x.clone(), BigUint::zero())
    } else {
        (BigUint::from_limbs(x.limbs[..at].to_vec()), BigUint::from_limbs(x.limbs[at..].to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_small_values() {
        let a = BigUint::from_u64(123_456_789);
        let b = BigUint::from_u64(987_654_321);
        assert_eq!(a.mul(&b).to_u128(), Some(123_456_789u128 * 987_654_321));
    }

    #[test]
    fn mul_by_zero_and_one() {
        let a = BigUint::from_u128(u128::MAX);
        assert!(a.mul(&BigUint::zero()).is_zero());
        assert_eq!(a.mul(&BigUint::one()), a);
    }

    #[test]
    fn mul_u64_matches_mul() {
        let a = BigUint::from_u128(0xffff_ffff_ffff_ffff_ffff);
        assert_eq!(a.mul_u64(12345), a.mul(&BigUint::from_u64(12345)));
    }

    #[test]
    fn mul_carries_across_limbs() {
        let a = BigUint::from_limbs(vec![u64::MAX; 3]);
        let sq = a.mul(&a);
        // (2^192 - 1)^2 = 2^384 - 2^193 + 1
        let expect = BigUint::one().shl(384).sub(&BigUint::one().shl(193)).add(&BigUint::one());
        assert_eq!(sq, expect);
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        // Build operands big enough to cross the threshold.
        let mut limbs = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..64 {
            limbs.push(x);
            x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(1);
        }
        let a = BigUint::from_limbs(limbs.clone());
        let b = BigUint::from_limbs(limbs.into_iter().rev().collect());
        let fast = a.mul(&b);
        let slow = BigUint::from_limbs(schoolbook(a.limbs(), b.limbs()));
        assert_eq!(fast, slow);
    }

    #[test]
    fn square_matches_mul() {
        let a = BigUint::from_u128(0xdead_beef_dead_beef_dead_beef);
        assert_eq!(a.square(), a.mul(&a));
    }
}
