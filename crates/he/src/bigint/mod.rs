//! Arbitrary-precision unsigned integer arithmetic.
//!
//! [`BigUint`] is a little-endian vector of `u64` limbs, always kept
//! *normalized* (no trailing zero limbs; zero is the empty vector). The
//! implementation targets the sizes Paillier needs (hundreds to a few
//! thousand bits) and favours clarity plus solid asymptotics: schoolbook
//! multiplication with a Karatsuba ramp, Knuth Algorithm D division, and
//! square-and-multiply modular exponentiation.

mod convert;
mod div;
pub(crate) mod lanes;
mod modular;
pub mod montgomery;
pub(crate) mod mul;
mod prime;
mod random;
pub mod signed;

pub use montgomery::MontgomeryCtx;
pub use signed::BigInt;

use std::cmp::Ordering;

/// An arbitrary-precision unsigned integer.
///
/// Invariant: `limbs` never ends with a zero limb (so representations are
/// canonical and comparison is limb-count first).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// The value zero.
    #[must_use]
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    #[must_use]
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs from a single `u64`.
    #[must_use]
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Constructs from a `u128`.
    #[must_use]
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut out = BigUint { limbs: vec![lo, hi] };
        out.normalize();
        out
    }

    /// Constructs from little-endian limbs (normalizing).
    #[must_use]
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Returns the little-endian limb slice.
    #[must_use]
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// True iff the value is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is one.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True iff the value is even (zero counts as even).
    #[must_use]
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    #[must_use]
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian bit order).
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// The value as a `u64`, if it fits.
    #[must_use]
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// The value as a `u128`, if it fits.
    #[must_use]
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(u128::from(self.limbs[0])),
            2 => Some(u128::from(self.limbs[0]) | (u128::from(self.limbs[1]) << 64)),
            _ => None,
        }
    }

    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Compares two values.
    #[must_use]
    pub fn cmp_big(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => {}
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// `self + other`.
    #[must_use]
    pub fn add(&self, other: &Self) -> Self {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = long[i].overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// `self + v` for a small addend.
    #[must_use]
    pub fn add_u64(&self, v: u64) -> Self {
        self.add(&BigUint::from_u64(v))
    }

    /// `self - other`. Panics if `other > self` (caller invariant).
    #[must_use]
    pub fn sub(&self, other: &Self) -> Self {
        debug_assert!(self.cmp_big(other) != Ordering::Less, "BigUint::sub underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        assert_eq!(borrow, 0, "BigUint::sub underflow");
        BigUint::from_limbs(out)
    }

    /// `self << bits`.
    #[must_use]
    pub fn shl(&self, bits: usize) -> Self {
        if self.is_zero() || bits == 0 {
            let mut c = self.clone();
            c.normalize();
            return c;
        }
        let (limb_shift, bit_shift) = (bits / 64, bits % 64);
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// `self >> bits`.
    #[must_use]
    pub fn shr(&self, bits: usize) -> Self {
        let (limb_shift, bit_shift) = (bits / 64, bits % 64);
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let mut out: Vec<u64> = self.limbs[limb_shift..].to_vec();
        if bit_shift > 0 {
            let mut carry = 0u64;
            for l in out.iter_mut().rev() {
                let new = (*l >> bit_shift) | carry;
                carry = *l << (64 - bit_shift);
                *l = new;
            }
        }
        BigUint::from_limbs(out)
    }

    /// Greatest common divisor (binary-free Euclid via divrem).
    #[must_use]
    pub fn gcd(&self, other: &Self) -> Self {
        let (mut a, mut b) = (self.clone(), other.clone());
        while !b.is_zero() {
            let (_, r) = a.divrem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Least common multiple. Returns zero if either input is zero.
    #[must_use]
    pub fn lcm(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let g = self.gcd(other);
        self.divrem(&g).0.mul(other)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_big(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_basics() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
    }

    #[test]
    fn add_with_carry_chain() {
        let a = BigUint::from_limbs(vec![u64::MAX, u64::MAX]);
        let b = BigUint::one();
        let s = a.add(&b);
        assert_eq!(s.limbs(), &[0, 0, 1]);
    }

    #[test]
    fn sub_with_borrow_chain() {
        let a = BigUint::from_limbs(vec![0, 0, 1]);
        let b = BigUint::one();
        let d = a.sub(&b);
        assert_eq!(d.limbs(), &[u64::MAX, u64::MAX]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = BigUint::from_u128(0x1234_5678_9abc_def0_1122_3344_5566_7788);
        let b = BigUint::from_u128(0x0fed_cba9_8765_4321);
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn shifts_roundtrip() {
        let a = BigUint::from_u128(0xdead_beef_cafe_babe_1234);
        for s in [0, 1, 7, 63, 64, 65, 130] {
            assert_eq!(a.shl(s).shr(s), a, "shift {s}");
        }
    }

    #[test]
    fn shr_to_zero() {
        let a = BigUint::from_u64(42);
        assert!(a.shr(6).is_zero());
        assert_eq!(a.shr(3).to_u64(), Some(5));
    }

    #[test]
    fn cmp_orders_by_magnitude() {
        let a = BigUint::from_u64(5);
        let b = BigUint::from_u128(1 << 100);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a.clone()), Ordering::Equal);
    }

    #[test]
    fn bit_access() {
        let a = BigUint::from_u64(0b1010);
        assert!(!a.bit(0));
        assert!(a.bit(1));
        assert!(!a.bit(2));
        assert!(a.bit(3));
        assert!(!a.bit(64));
    }

    #[test]
    fn gcd_small() {
        let g = BigUint::from_u64(48).gcd(&BigUint::from_u64(18));
        assert_eq!(g.to_u64(), Some(6));
        assert_eq!(BigUint::from_u64(7).gcd(&BigUint::zero()).to_u64(), Some(7));
    }

    #[test]
    fn lcm_small() {
        let l = BigUint::from_u64(4).lcm(&BigUint::from_u64(6));
        assert_eq!(l.to_u64(), Some(12));
        assert!(BigUint::zero().lcm(&BigUint::from_u64(6)).is_zero());
    }

    #[test]
    fn u128_roundtrip() {
        let v = 0x1234_5678_9abc_def0_1122_3344_5566_7788u128;
        assert_eq!(BigUint::from_u128(v).to_u128(), Some(v));
    }

    #[test]
    fn normalize_drops_only_top_zero_limbs() {
        let mut a = BigUint { limbs: vec![0, 5, 0, 0] };
        a.normalize();
        assert_eq!(a.limbs(), [0, 5]);
        let mut z = BigUint { limbs: vec![0, 0] };
        z.normalize();
        assert!(z.limbs().is_empty());
        assert!(z.is_zero());
    }
}
