//! A minimal signed big integer, used by the extended Euclidean algorithm
//! and by fixed-point plaintext encodings.

use super::BigUint;
use std::cmp::Ordering;
use std::fmt;

/// Sign of a [`BigInt`]. Zero always carries [`Sign::Zero`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sign {
    /// Negative value.
    Negative,
    /// The value zero.
    Zero,
    /// Positive value.
    Positive,
}

/// Signed arbitrary-precision integer (sign + magnitude).
#[derive(Clone, PartialEq, Eq)]
pub struct BigInt {
    sign: Sign,
    mag: BigUint,
}

impl BigInt {
    /// The value zero.
    #[must_use]
    pub fn zero() -> Self {
        BigInt { sign: Sign::Zero, mag: BigUint::zero() }
    }

    /// The value one.
    #[must_use]
    pub fn one() -> Self {
        BigInt { sign: Sign::Positive, mag: BigUint::one() }
    }

    /// A non-negative value from a [`BigUint`].
    #[must_use]
    pub fn from_biguint(mag: BigUint) -> Self {
        let sign = if mag.is_zero() { Sign::Zero } else { Sign::Positive };
        BigInt { sign, mag }
    }

    /// From a signed 64-bit integer.
    #[must_use]
    pub fn from_i64(v: i64) -> Self {
        match v.cmp(&0) {
            Ordering::Equal => Self::zero(),
            Ordering::Greater => BigInt { sign: Sign::Positive, mag: BigUint::from_u64(v as u64) },
            Ordering::Less => {
                BigInt { sign: Sign::Negative, mag: BigUint::from_u64(v.unsigned_abs()) }
            }
        }
    }

    /// The sign.
    #[must_use]
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// The magnitude.
    #[must_use]
    pub fn magnitude(&self) -> &BigUint {
        &self.mag
    }

    /// True iff zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// True iff strictly negative.
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    fn with_sign(sign: Sign, mag: BigUint) -> Self {
        if mag.is_zero() {
            Self::zero()
        } else {
            BigInt { sign, mag }
        }
    }

    /// Negation.
    #[must_use]
    pub fn neg(&self) -> Self {
        match self.sign {
            Sign::Zero => Self::zero(),
            Sign::Positive => Self::with_sign(Sign::Negative, self.mag.clone()),
            Sign::Negative => Self::with_sign(Sign::Positive, self.mag.clone()),
        }
    }

    /// `self + other`.
    #[must_use]
    pub fn add(&self, other: &Self) -> Self {
        match (self.sign, other.sign) {
            (Sign::Zero, _) => other.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => Self::with_sign(a, self.mag.add(&other.mag)),
            _ => match self.mag.cmp_big(&other.mag) {
                Ordering::Equal => Self::zero(),
                Ordering::Greater => Self::with_sign(self.sign, self.mag.sub(&other.mag)),
                Ordering::Less => Self::with_sign(other.sign, other.mag.sub(&self.mag)),
            },
        }
    }

    /// `self - other`.
    #[must_use]
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    /// `self * other`.
    #[must_use]
    pub fn mul(&self, other: &Self) -> Self {
        let sign = match (self.sign, other.sign) {
            (Sign::Zero, _) | (_, Sign::Zero) => return Self::zero(),
            (a, b) if a == b => Sign::Positive,
            _ => Sign::Negative,
        };
        Self::with_sign(sign, self.mag.mul(&other.mag))
    }

    /// Extended Euclidean algorithm.
    ///
    /// Returns `(g, x, y)` with `g = gcd(|self|, |other|)` (as a non-negative
    /// `BigInt`) and `self·x + other·y = g`.
    #[must_use]
    pub fn extended_gcd(&self, other: &Self) -> (Self, Self, Self) {
        let (mut old_r, mut r) = (self.clone(), other.clone());
        let (mut old_s, mut s) = (Self::one(), Self::zero());
        let (mut old_t, mut t) = (Self::zero(), Self::one());
        while !r.is_zero() {
            let q = Self::with_sign(
                if old_r.sign == r.sign { Sign::Positive } else { Sign::Negative },
                old_r.mag.divrem(&r.mag).0,
            );
            let new_r = old_r.sub(&q.mul(&r));
            old_r = std::mem::replace(&mut r, new_r);
            let new_s = old_s.sub(&q.mul(&s));
            old_s = std::mem::replace(&mut s, new_s);
            let new_t = old_t.sub(&q.mul(&t));
            old_t = std::mem::replace(&mut t, new_t);
        }
        if old_r.is_negative() {
            (old_r.neg(), old_s.neg(), old_t.neg())
        } else {
            (old_r, old_s, old_t)
        }
    }

    /// Euclidean (floor) remainder into `[0, m)` for a positive modulus.
    #[must_use]
    pub fn rem_floor(&self, m: &BigUint) -> BigUint {
        let r = self.mag.rem(m);
        match self.sign {
            Sign::Negative if !r.is_zero() => m.sub(&r),
            _ => r,
        }
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.sign {
            Sign::Negative => write!(f, "-{}", self.mag.to_decimal()),
            _ => f.write_str(&self.mag.to_decimal()),
        }
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_arithmetic() {
        let a = BigInt::from_i64(10);
        let b = BigInt::from_i64(-4);
        assert_eq!(format!("{}", a.add(&b)), "6");
        assert_eq!(format!("{}", a.sub(&b)), "14");
        assert_eq!(format!("{}", a.mul(&b)), "-40");
        assert_eq!(format!("{}", b.mul(&b)), "16");
        assert!(a.add(&a.neg()).is_zero());
    }

    #[test]
    fn extended_gcd_bezout() {
        let a = BigInt::from_i64(240);
        let b = BigInt::from_i64(46);
        let (g, x, y) = a.extended_gcd(&b);
        assert_eq!(format!("{g}"), "2");
        assert_eq!(a.mul(&x).add(&b.mul(&y)), g);
    }

    #[test]
    fn extended_gcd_with_negative() {
        let a = BigInt::from_i64(-35);
        let b = BigInt::from_i64(15);
        let (g, x, y) = a.extended_gcd(&b);
        assert_eq!(format!("{g}"), "5");
        assert_eq!(a.mul(&x).add(&b.mul(&y)), g);
    }

    #[test]
    fn rem_floor_wraps_negatives() {
        let m = BigUint::from_u64(7);
        assert_eq!(BigInt::from_i64(-3).rem_floor(&m).to_u64(), Some(4));
        assert_eq!(BigInt::from_i64(10).rem_floor(&m).to_u64(), Some(3));
        assert_eq!(BigInt::from_i64(-14).rem_floor(&m).to_u64(), Some(0));
    }

    #[test]
    fn zero_is_canonical() {
        let z = BigInt::from_i64(5).sub(&BigInt::from_i64(5));
        assert!(z.is_zero());
        assert_eq!(z.sign(), Sign::Zero);
    }

    #[test]
    fn sign_predicates_follow_the_value() {
        assert!(BigInt::from_i64(-1).is_negative());
        assert!(!BigInt::from_i64(1).is_negative());
        assert!(!BigInt::zero().is_negative());
        assert!(BigInt::from_i64(3).neg().is_negative());
        assert!(!BigInt::from_i64(-3).neg().is_negative());
        assert_eq!(BigInt::from_i64(i64::MIN).magnitude().to_u64(), Some(1u64 << 63));
    }
}
