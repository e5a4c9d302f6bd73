//! Polynomials in `Z_q[X]/(X^n + 1)`: the RLWE workhorse.

use super::ntt::{add_mod, mul_mod, sub_mod, NttTables};
use rand::Rng;
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// Reusable NTT staging buffer for the second operand of [`Poly::mul`],
    /// so repeated multiplications on one thread allocate only the output.
    static MUL_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A polynomial with `n` coefficients mod `q`, tied to shared NTT tables.
#[derive(Clone, Debug)]
pub struct Poly {
    coeffs: Vec<u64>,
    tables: Arc<NttTables>,
}

impl PartialEq for Poly {
    fn eq(&self, other: &Self) -> bool {
        self.tables.q == other.tables.q && self.coeffs == other.coeffs
    }
}

impl Poly {
    /// The zero polynomial.
    #[must_use]
    pub fn zero(tables: Arc<NttTables>) -> Self {
        Poly { coeffs: vec![0; tables.n], tables }
    }

    /// From raw coefficients already reduced mod `q`.
    ///
    /// # Panics
    /// Panics if the coefficient count differs from the ring degree.
    #[must_use]
    pub fn from_coeffs(coeffs: Vec<u64>, tables: Arc<NttTables>) -> Self {
        assert_eq!(coeffs.len(), tables.n, "coefficient count must equal ring degree");
        debug_assert!(coeffs.iter().all(|&c| c < tables.q));
        Poly { coeffs, tables }
    }

    /// From signed coefficients (centered representation).
    #[must_use]
    pub fn from_signed(coeffs: &[i64], tables: Arc<NttTables>) -> Self {
        let q = tables.q;
        let v = coeffs
            .iter()
            .map(|&c| if c >= 0 { (c as u64) % q } else { q - ((c.unsigned_abs()) % q) })
            .map(|c| if c == q { 0 } else { c })
            .collect();
        Poly::from_coeffs(v, tables)
    }

    /// Raw coefficients.
    #[must_use]
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Centered lift of each coefficient into `(-q/2, q/2]`.
    #[must_use]
    pub fn centered(&self) -> Vec<i64> {
        let q = self.tables.q;
        let half = q / 2;
        self.coeffs.iter().map(|&c| if c > half { c as i64 - q as i64 } else { c as i64 }).collect()
    }

    /// The modulus.
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.tables.q
    }

    /// The ring degree.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.tables.n
    }

    /// Component-wise addition.
    #[must_use]
    pub fn add(&self, other: &Self) -> Self {
        let q = self.tables.q;
        let coeffs =
            self.coeffs.iter().zip(&other.coeffs).map(|(&a, &b)| add_mod(a, b, q)).collect();
        Poly { coeffs, tables: Arc::clone(&self.tables) }
    }

    /// Component-wise subtraction.
    #[must_use]
    pub fn sub(&self, other: &Self) -> Self {
        let q = self.tables.q;
        let coeffs =
            self.coeffs.iter().zip(&other.coeffs).map(|(&a, &b)| sub_mod(a, b, q)).collect();
        Poly { coeffs, tables: Arc::clone(&self.tables) }
    }

    /// Negation.
    #[must_use]
    pub fn neg(&self) -> Self {
        let q = self.tables.q;
        let coeffs = self.coeffs.iter().map(|&a| if a == 0 { 0 } else { q - a }).collect();
        Poly { coeffs, tables: Arc::clone(&self.tables) }
    }

    /// Negacyclic polynomial multiplication via NTT. The second operand is
    /// staged in a thread-local scratch buffer, so only the output vector
    /// allocates per call.
    #[must_use]
    pub fn mul(&self, other: &Self) -> Self {
        let q = self.tables.q;
        let mut a = self.coeffs.clone();
        MUL_SCRATCH.with(|scratch| {
            let mut b = scratch.borrow_mut();
            b.clear();
            b.extend_from_slice(&other.coeffs);
            self.tables.forward(&mut a);
            self.tables.forward(&mut b);
            for (x, &y) in a.iter_mut().zip(b.iter()) {
                *x = mul_mod(*x, y, q);
            }
        });
        self.tables.inverse(&mut a);
        Poly { coeffs: a, tables: Arc::clone(&self.tables) }
    }

    /// Uniform random polynomial over `Z_q`.
    pub fn uniform<R: Rng + ?Sized>(rng: &mut R, tables: Arc<NttTables>) -> Self {
        let q = tables.q;
        let coeffs = (0..tables.n).map(|_| rng.gen_range(0..q)).collect();
        Poly { coeffs, tables }
    }

    /// Random ternary polynomial with coefficients in `{-1, 0, 1}`.
    pub fn ternary<R: Rng + ?Sized>(rng: &mut R, tables: Arc<NttTables>) -> Self {
        let q = tables.q;
        let coeffs = (0..tables.n)
            .map(|_| match rng.gen_range(0..3u8) {
                0 => 0u64,
                1 => 1,
                _ => q - 1,
            })
            .collect();
        Poly { coeffs, tables }
    }

    /// Small "gaussian-like" error polynomial: a centered binomial of
    /// parameter 21 approximating σ ≈ 3.2, the standard RLWE error width.
    pub fn error<R: Rng + ?Sized>(rng: &mut R, tables: Arc<NttTables>) -> Self {
        let q = tables.q;
        let coeffs = (0..tables.n)
            .map(|_| {
                let mut s: i32 = 0;
                for _ in 0..21 {
                    s += i32::from(rng.gen::<bool>()) - i32::from(rng.gen::<bool>());
                }
                if s >= 0 {
                    s as u64
                } else {
                    q - s.unsigned_abs() as u64
                }
            })
            .collect();
        Poly { coeffs, tables }
    }
}

#[cfg(test)]
mod tests {
    use super::super::ntt::find_ntt_prime;
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tables(n: usize) -> Arc<NttTables> {
        Arc::new(NttTables::new(n, find_ntt_prime(40, n)))
    }

    #[test]
    fn add_sub_neg() {
        let t = tables(16);
        let mut rng = StdRng::seed_from_u64(1);
        let a = Poly::uniform(&mut rng, Arc::clone(&t));
        let b = Poly::uniform(&mut rng, Arc::clone(&t));
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.add(&a.neg()), Poly::zero(t));
    }

    #[test]
    fn mul_matches_schoolbook_negacyclic() {
        let t = tables(8);
        let q = t.q;
        let mut rng = StdRng::seed_from_u64(2);
        let a = Poly::uniform(&mut rng, Arc::clone(&t));
        let b = Poly::uniform(&mut rng, Arc::clone(&t));
        let fast = a.mul(&b);
        // Schoolbook negacyclic reference.
        let n = 8;
        let mut ref_c = vec![0i128; n];
        for i in 0..n {
            for j in 0..n {
                let prod = (a.coeffs()[i] as i128 * b.coeffs()[j] as i128) % q as i128;
                let idx = (i + j) % n;
                if i + j >= n {
                    ref_c[idx] = (ref_c[idx] - prod).rem_euclid(q as i128);
                } else {
                    ref_c[idx] = (ref_c[idx] + prod).rem_euclid(q as i128);
                }
            }
        }
        let expect: Vec<u64> = ref_c.into_iter().map(|c| c as u64).collect();
        assert_eq!(fast.coeffs(), expect.as_slice());
    }

    #[test]
    fn signed_roundtrip_via_centered() {
        let t = tables(8);
        let signed = [0i64, 1, -1, 5, -5, 100, -100, 3];
        let p = Poly::from_signed(&signed, t);
        assert_eq!(p.centered(), signed.to_vec());
    }

    #[test]
    fn ternary_coeffs_are_small() {
        let t = tables(64);
        let mut rng = StdRng::seed_from_u64(3);
        let p = Poly::ternary(&mut rng, t);
        for &c in p.centered().iter() {
            assert!((-1..=1).contains(&c));
        }
    }

    #[test]
    fn error_coeffs_are_bounded() {
        let t = tables(256);
        let mut rng = StdRng::seed_from_u64(4);
        let p = Poly::error(&mut rng, t);
        for &c in p.centered().iter() {
            assert!(c.abs() <= 21, "binomial(21) support bound");
        }
        let mean: f64 = p.centered().iter().map(|&c| c as f64).sum::<f64>() / p.degree() as f64;
        assert!(mean.abs() < 2.0, "error distribution should be centered, mean={mean}");
    }

    #[test]
    fn from_coeffs_keeps_the_coefficients_in_order() {
        let t = tables(8);
        let coeffs: Vec<u64> = (0..8).map(|i| i * 1000 + 1).collect();
        let p = Poly::from_coeffs(coeffs.clone(), Arc::clone(&t));
        assert_eq!(p.coeffs, coeffs);
        assert_eq!(p.add(&Poly::zero(t)), p);
    }

    #[test]
    #[should_panic(expected = "coefficient count must equal ring degree")]
    fn from_coeffs_refuses_a_wrong_length() {
        let _ = Poly::from_coeffs(vec![0; 7], tables(8));
    }
}
