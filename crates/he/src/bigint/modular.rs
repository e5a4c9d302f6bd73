//! Modular arithmetic: addition, multiplication, exponentiation and inverse.

use super::montgomery::MontgomeryCtx;
use super::signed::BigInt;
use super::BigUint;

impl BigUint {
    /// `(self + other) mod m`. Operands need not be reduced.
    #[must_use]
    pub fn add_mod(&self, other: &Self, m: &Self) -> Self {
        self.add(other).rem(m)
    }

    /// `(self - other) mod m`, wrapping into `[0, m)`.
    #[must_use]
    pub fn sub_mod(&self, other: &Self, m: &Self) -> Self {
        let a = self.rem(m);
        let b = other.rem(m);
        if a >= b {
            a.sub(&b)
        } else {
            a.add(m).sub(&b)
        }
    }

    /// `(self * other) mod m`.
    #[must_use]
    pub fn mul_mod(&self, other: &Self, m: &Self) -> Self {
        self.mul(other).rem(m)
    }

    /// `self^exp mod m`.
    ///
    /// Odd multi-limb moduli (the Paillier case) take the Montgomery fast
    /// path; everything else falls back to division-based
    /// square-and-multiply.
    ///
    /// # Panics
    /// Panics if `m` is zero.
    #[must_use]
    pub fn mod_pow(&self, exp: &Self, m: &Self) -> Self {
        assert!(!m.is_zero(), "mod_pow with zero modulus");
        if m.is_one() {
            return Self::zero();
        }
        if exp.bits() > 4 {
            if let Some(ctx) = Self::montgomery_ctx(m) {
                return ctx.mod_pow(self, exp);
            }
        }
        self.mod_pow_plain(exp, m)
    }

    /// The Montgomery context [`BigUint::mod_pow`] exponentiates modulo `m`
    /// with — odd multi-limb moduli only — for callers that raise many
    /// bases to powers modulo one `m` and want to build it once.
    pub(crate) fn montgomery_ctx(m: &Self) -> Option<MontgomeryCtx> {
        if m.limbs().len() > 1 {
            MontgomeryCtx::new(m)
        } else {
            None
        }
    }

    /// Division-based square-and-multiply (always correct; the oracle the
    /// Montgomery path is tested against).
    #[must_use]
    pub fn mod_pow_plain(&self, exp: &Self, m: &Self) -> Self {
        assert!(!m.is_zero(), "mod_pow with zero modulus");
        if m.is_one() {
            return Self::zero();
        }
        let mut base = self.rem(m);
        if exp.is_zero() {
            return Self::one();
        }
        let mut result = Self::one();
        let nbits = exp.bits();
        // Right-to-left binary exponentiation: squares the base each step and
        // multiplies it in when the exponent bit is set.
        for i in 0..nbits {
            if exp.bit(i) {
                result = result.mul_mod(&base, m);
            }
            if i + 1 < nbits {
                base = base.square().rem(m);
            }
        }
        result
    }

    /// Modular inverse: `self^{-1} mod m`, if it exists (`gcd(self, m) == 1`).
    #[must_use]
    pub fn mod_inverse(&self, m: &Self) -> Option<Self> {
        if m.is_zero() {
            return None;
        }
        let (g, x, _) =
            BigInt::from_biguint(self.rem(m)).extended_gcd(&BigInt::from_biguint(m.clone()));
        if !g.magnitude().is_one() {
            return None;
        }
        Some(x.rem_floor(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_mod() {
        let m = BigUint::from_u64(97);
        let a = BigUint::from_u64(90);
        let b = BigUint::from_u64(15);
        assert_eq!(a.add_mod(&b, &m).to_u64(), Some(8));
        assert_eq!(b.sub_mod(&a, &m).to_u64(), Some(22));
        assert_eq!(a.sub_mod(&b, &m).to_u64(), Some(75));
    }

    #[test]
    fn mod_pow_small() {
        let b = BigUint::from_u64(4);
        let e = BigUint::from_u64(13);
        let m = BigUint::from_u64(497);
        assert_eq!(b.mod_pow(&e, &m).to_u64(), Some(445));
    }

    #[test]
    fn mod_pow_edge_cases() {
        let m = BigUint::from_u64(13);
        assert!(BigUint::from_u64(5).mod_pow(&BigUint::zero(), &m).is_one());
        assert!(BigUint::from_u64(5).mod_pow(&BigUint::from_u64(100), &BigUint::one()).is_zero());
        assert!(BigUint::zero().mod_pow(&BigUint::from_u64(5), &m).is_zero());
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(p-1) ≡ 1 (mod p) for prime p not dividing a.
        let p = BigUint::from_u64(1_000_000_007);
        for a in [2u64, 3, 12345, 999_999_999] {
            let r = BigUint::from_u64(a).mod_pow(&p.sub(&BigUint::one()), &p);
            assert!(r.is_one(), "a={a}");
        }
    }

    #[test]
    fn mod_pow_large_operands() {
        // 2^128 mod (2^61 - 1): Mersenne prime makes the expected value easy.
        let m = BigUint::from_u64((1 << 61) - 1);
        let got = BigUint::from_u64(2).mod_pow(&BigUint::from_u64(128), &m);
        // 2^128 = 2^(61*2+6) ≡ 2^6 (mod 2^61 - 1)
        assert_eq!(got.to_u64(), Some(64));
    }

    #[test]
    fn mod_inverse_basics() {
        let m = BigUint::from_u64(97);
        let a = BigUint::from_u64(31);
        let inv = a.mod_inverse(&m).unwrap();
        assert!(a.mul_mod(&inv, &m).is_one());
        // Non-invertible: shares a factor with the modulus.
        assert!(BigUint::from_u64(6).mod_inverse(&BigUint::from_u64(9)).is_none());
        assert!(BigUint::from_u64(5).mod_inverse(&BigUint::zero()).is_none());
    }

    #[test]
    fn mod_inverse_large() {
        let m = BigUint::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff").unwrap();
        let a = BigUint::from_hex("123456789abcdef0123456789abcdef0").unwrap();
        if let Some(inv) = a.mod_inverse(&m) {
            assert!(a.mul_mod(&inv, &m).is_one());
        }
    }
}
