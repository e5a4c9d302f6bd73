//! Division with remainder: single-limb fast path and Knuth's Algorithm D
//! (TAOCP Vol. 2, §4.3.1) for the general case.

use super::BigUint;
use std::cmp::Ordering;

impl BigUint {
    /// Returns `(self / divisor, self % divisor)`.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    #[must_use]
    pub fn divrem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        match self.cmp_big(divisor) {
            Ordering::Less => return (Self::zero(), self.clone()),
            Ordering::Equal => return (Self::one(), Self::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.divrem_u64(divisor.limbs[0]);
            return (q, Self::from_u64(r));
        }
        knuth_d(self, divisor)
    }

    /// Returns `(self / d, self % d)` for a single-limb divisor.
    ///
    /// # Panics
    /// Panics if `d` is zero.
    #[must_use]
    pub fn divrem_u64(&self, d: u64) -> (Self, u64) {
        assert!(d != 0, "BigUint division by zero");
        let mut q = vec![0u64; self.limbs.len()];
        let mut rem = 0u128;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 64) | u128::from(self.limbs[i]);
            q[i] = (cur / u128::from(d)) as u64;
            rem = cur % u128::from(d);
        }
        (Self::from_limbs(q), rem as u64)
    }

    /// `self % modulus`.
    #[must_use]
    pub fn rem(&self, modulus: &Self) -> Self {
        self.divrem(modulus).1
    }
}

/// Knuth Algorithm D. Requires `u > v` and `v` to have at least two limbs.
fn knuth_d(u: &BigUint, v: &BigUint) -> (BigUint, BigUint) {
    let n = v.limbs.len();
    let m = u.limbs.len() - n;

    // D1: normalize so the divisor's top limb has its high bit set.
    let shift = v.limbs[n - 1].leading_zeros() as usize;
    let vn = v.shl(shift);
    let mut un = u.shl(shift).limbs;
    un.resize(u.limbs.len() + 1, 0); // extra high limb for the loop

    let vtop = vn.limbs[n - 1];
    let vsecond = vn.limbs[n - 2];
    let mut q = vec![0u64; m + 1];

    // D2–D7: main loop.
    for j in (0..=m).rev() {
        // D3: estimate qhat from the top two limbs of the current window.
        let top2 = (u128::from(un[j + n]) << 64) | u128::from(un[j + n - 1]);
        let mut qhat = top2 / u128::from(vtop);
        let mut rhat = top2 % u128::from(vtop);
        while qhat >> 64 != 0
            || qhat * u128::from(vsecond) > ((rhat << 64) | u128::from(un[j + n - 2]))
        {
            qhat -= 1;
            rhat += u128::from(vtop);
            if rhat >> 64 != 0 {
                break;
            }
        }

        // D4: multiply-and-subtract the window by qhat * v.
        let mut borrow = 0i128;
        let mut carry = 0u128;
        for i in 0..n {
            let p = qhat * u128::from(vn.limbs[i]) + carry;
            carry = p >> 64;
            let sub = i128::from(un[j + i]) - i128::from(p as u64) + borrow;
            un[j + i] = sub as u64;
            borrow = sub >> 64; // arithmetic shift: 0 or -1
        }
        let sub = i128::from(un[j + n]) - i128::from(carry as u64) + borrow;
        un[j + n] = sub as u64;
        let went_negative = sub < 0;

        q[j] = qhat as u64;

        // D6: rare add-back correction when qhat was one too large.
        if went_negative {
            q[j] -= 1;
            let mut carry = 0u128;
            for i in 0..n {
                let t = u128::from(un[j + i]) + u128::from(vn.limbs[i]) + carry;
                un[j + i] = t as u64;
                carry = t >> 64;
            }
            un[j + n] = un[j + n].wrapping_add(carry as u64);
        }
    }

    // D8: denormalize the remainder.
    let rem = BigUint::from_limbs(un[..n].to_vec()).shr(shift);
    (BigUint::from_limbs(q), rem)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(a: &BigUint, b: &BigUint) {
        let (q, r) = a.divrem(b);
        assert!(r.cmp_big(b) == Ordering::Less, "remainder >= divisor");
        assert_eq!(q.mul(b).add(&r), *a, "q*b + r != a");
    }

    #[test]
    fn small_division() {
        let (q, r) = BigUint::from_u64(100).divrem(&BigUint::from_u64(7));
        assert_eq!(q.to_u64(), Some(14));
        assert_eq!(r.to_u64(), Some(2));
    }

    #[test]
    fn dividend_smaller_than_divisor() {
        let (q, r) = BigUint::from_u64(3).divrem(&BigUint::from_u128(1 << 100));
        assert!(q.is_zero());
        assert_eq!(r.to_u64(), Some(3));
    }

    #[test]
    fn equal_operands() {
        let a = BigUint::from_u128(0xdead_beef_0000_1111_2222);
        let (q, r) = a.divrem(&a);
        assert!(q.is_one());
        assert!(r.is_zero());
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn divide_by_zero_panics() {
        let _ = BigUint::from_u64(1).divrem(&BigUint::zero());
    }

    #[test]
    fn single_limb_divisor_path() {
        let a = BigUint::from_limbs(vec![0x1111_2222_3333_4444, 0x5555_6666_7777_8888, 0x9]);
        check(&a, &BigUint::from_u64(0x1234_5678_9abc_def1));
    }

    #[test]
    fn knuth_d_multi_limb() {
        let a = BigUint::from_limbs(vec![
            0xffee_ddcc_bbaa_9988,
            0x7766_5544_3322_1100,
            0x0123_4567_89ab_cdef,
            0xfedc_ba98_7654_3210,
        ]);
        let b = BigUint::from_limbs(vec![0xaaaa_bbbb_cccc_dddd, 0x1111_2222_3333_4444]);
        check(&a, &b);
    }

    #[test]
    fn knuth_d_addback_case() {
        // Classic add-back trigger shape: dividend with high limbs just below
        // a multiple of the divisor.
        let b = BigUint::from_limbs(vec![0, 0x8000_0000_0000_0000]);
        let a = BigUint::from_limbs(vec![u64::MAX, u64::MAX - 1, 0x7fff_ffff_ffff_ffff]);
        check(&a, &b);
    }

    #[test]
    fn randomized_divrem_identity() {
        // Deterministic pseudo-random sweep over operand shapes.
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for alen in 1..8usize {
            for blen in 1..5usize {
                let a = BigUint::from_limbs((0..alen).map(|_| next()).collect());
                let mut bl: Vec<u64> = (0..blen).map(|_| next()).collect();
                if bl.iter().all(|&l| l == 0) {
                    bl[0] = 1;
                }
                let b = BigUint::from_limbs(bl);
                check(&a, &b);
            }
        }
    }

    #[test]
    fn divrem_u64_matches_divrem() {
        let a = BigUint::from_limbs(vec![0x1111_2222_3333_4444, 0x5555_6666_7777_8888, 0x9]);
        for d in [1u64, 7, 0x1_0000_0001, u64::MAX] {
            let (q, r) = a.divrem_u64(d);
            let (q2, r2) = a.divrem(&BigUint::from_u64(d));
            assert_eq!(q, q2, "d={d}");
            assert_eq!(BigUint::from_u64(r), r2, "d={d}");
            assert!(r < d);
        }
        let (q, r) = BigUint::zero().divrem_u64(5);
        assert!(q.is_zero());
        assert_eq!(r, 0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn divrem_u64_by_zero_panics() {
        let _ = BigUint::from_u64(1).divrem_u64(0);
    }
}
