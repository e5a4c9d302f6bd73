//! CKKS-lite: an RLWE-based approximate homomorphic encryption scheme
//! supporting SIMD-batched encryption of real vectors and homomorphic
//! **addition** — exactly the operation set VFPS-SM's aggregation needs
//! (the paper's stack is TenSEAL CKKS used the same way).
//!
//! Simplifications relative to full CKKS: a single prime modulus (no
//! rescaling chain) and no relinearization keys, because ciphertext ×
//! ciphertext multiplication is never required by the protocols here.

pub mod encoding;
pub mod fft;
pub mod ntt;
pub mod poly;

use self::encoding::CkksEncoder;
use self::ntt::{find_ntt_prime, NttTables};
use self::poly::Poly;
use crate::error::{Error, Result};
use rand::Rng;
use std::sync::Arc;

/// CKKS parameter set.
#[derive(Clone, Debug)]
pub struct CkksParams {
    /// Ring degree `n` (power of two).
    pub degree: usize,
    /// Modulus bit width.
    pub modulus_bits: u32,
    /// Encoding scale `Δ`.
    pub scale: f64,
}

impl CkksParams {
    /// A small parameter set for fast tests (not secure).
    #[must_use]
    pub fn insecure_test() -> Self {
        CkksParams { degree: 256, modulus_bits: 50, scale: (1u64 << 26) as f64 }
    }

    /// A realistic parameter set mirroring the magnitudes the paper's
    /// TenSEAL configuration would use for addition-only workloads.
    #[must_use]
    pub fn default_vfl() -> Self {
        CkksParams { degree: 2048, modulus_bits: 55, scale: (1u64 << 30) as f64 }
    }
}

/// CKKS context: shared NTT tables and codec.
#[derive(Clone, Debug)]
pub struct CkksContext {
    tables: Arc<NttTables>,
    encoder: CkksEncoder,
}

/// Secret key (ternary `s`).
#[derive(Clone, Debug)]
pub struct CkksSecretKey {
    s: Poly,
}

/// Public key `(b, a)` with `b = -a·s + e`.
#[derive(Clone, Debug)]
pub struct CkksPublicKey {
    b: Poly,
    a: Poly,
}

/// A CKKS ciphertext `(c0, c1)` decrypting to `c0 + c1·s`.
#[derive(Clone, Debug, PartialEq)]
pub struct CkksCiphertext {
    c0: Poly,
    c1: Poly,
}

impl CkksCiphertext {
    /// Serialized size in bytes: two polynomials of `n` coefficients, 8
    /// bytes each (used for communication accounting).
    #[must_use]
    pub fn byte_len(&self) -> usize {
        2 * self.c0.degree() * 8
    }

    /// Serializes to `2n` little-endian `u64` coefficients (`c0` then `c1`).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        for poly in [&self.c0, &self.c1] {
            for &c in poly.coeffs() {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }
}

impl CkksContext {
    /// Builds a context from parameters.
    ///
    /// # Errors
    /// Returns [`Error::InvalidParameters`] for invalid degree/scale/modulus.
    pub fn new(params: &CkksParams) -> Result<Self> {
        if !params.degree.is_power_of_two() || params.degree < 4 {
            return Err(Error::InvalidParameters(format!(
                "degree {} must be a power of two >= 4",
                params.degree
            )));
        }
        if params.modulus_bits < 30 || params.modulus_bits > 62 {
            return Err(Error::InvalidParameters(format!(
                "modulus_bits {} outside [30, 62]",
                params.modulus_bits
            )));
        }
        let q = find_ntt_prime(params.modulus_bits, params.degree);
        let tables = Arc::new(NttTables::new(params.degree, q));
        let encoder = CkksEncoder::new(params.degree, params.scale)?;
        Ok(CkksContext { tables, encoder })
    }

    /// Number of real slots per ciphertext.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.encoder.slots()
    }

    /// The prime modulus in use.
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.tables.q
    }

    /// Generates a key pair.
    pub fn keygen<R: Rng + ?Sized>(&self, rng: &mut R) -> (CkksPublicKey, CkksSecretKey) {
        let s = Poly::ternary(rng, Arc::clone(&self.tables));
        let a = Poly::uniform(rng, Arc::clone(&self.tables));
        let e = Poly::error(rng, Arc::clone(&self.tables));
        let b = a.mul(&s).neg().add(&e);
        (CkksPublicKey { b, a }, CkksSecretKey { s })
    }

    /// Encrypts up to `slots()` real values.
    ///
    /// # Errors
    /// Returns [`Error::TooManySlots`] when `values` exceeds the slot count.
    pub fn encrypt<R: Rng + ?Sized>(
        &self,
        pk: &CkksPublicKey,
        values: &[f64],
        rng: &mut R,
    ) -> Result<CkksCiphertext> {
        let m = self.encode(values)?;
        let u = Poly::ternary(rng, Arc::clone(&self.tables));
        let e0 = Poly::error(rng, Arc::clone(&self.tables));
        let e1 = Poly::error(rng, Arc::clone(&self.tables));
        Ok(CkksCiphertext { c0: pk.b.mul(&u).add(&e0).add(&m), c1: pk.a.mul(&u).add(&e1) })
    }

    /// Decrypts to `count` approximate real values.
    #[must_use]
    pub fn decrypt(&self, sk: &CkksSecretKey, ct: &CkksCiphertext, count: usize) -> Vec<f64> {
        let m = ct.c0.add(&ct.c1.mul(&sk.s));
        self.encoder.decode(&m.centered(), count)
    }

    /// Homomorphic addition.
    #[must_use]
    pub fn add(&self, a: &CkksCiphertext, b: &CkksCiphertext) -> CkksCiphertext {
        CkksCiphertext { c0: a.c0.add(&b.c0), c1: a.c1.add(&b.c1) }
    }

    /// Adds a plaintext vector to a ciphertext without encryption.
    ///
    /// # Errors
    /// Returns [`Error::TooManySlots`] when `values` exceeds the slot count.
    pub fn add_plain(&self, a: &CkksCiphertext, values: &[f64]) -> Result<CkksCiphertext> {
        let m = self.encode(values)?;
        Ok(CkksCiphertext { c0: a.c0.add(&m), c1: a.c1.clone() })
    }

    fn encode(&self, values: &[f64]) -> Result<Poly> {
        let coeffs = self.encoder.encode(values)?;
        Ok(Poly::from_signed(&coeffs, Arc::clone(&self.tables)))
    }

    /// Deserializes a ciphertext produced by [`CkksCiphertext::to_bytes`]
    /// under this context's parameters.
    ///
    /// # Errors
    /// Returns [`Error::InvalidParameters`] on a size mismatch or
    /// out-of-range coefficients.
    pub fn ct_from_bytes(&self, bytes: &[u8]) -> Result<CkksCiphertext> {
        let n = self.tables.n;
        if bytes.len() != 2 * n * 8 {
            return Err(Error::InvalidParameters(format!(
                "ciphertext must be {} bytes, got {}",
                2 * n * 8,
                bytes.len()
            )));
        }
        let read_poly = |off: usize| -> Result<Poly> {
            let mut coeffs = Vec::with_capacity(n);
            for i in 0..n {
                let start = off + i * 8;
                let c =
                    u64::from_le_bytes(bytes[start..start + 8].try_into().expect("exact slice"));
                if c >= self.tables.q {
                    return Err(Error::InvalidParameters(format!(
                        "coefficient {c} exceeds modulus"
                    )));
                }
                coeffs.push(c);
            }
            Ok(Poly::from_coeffs(coeffs, Arc::clone(&self.tables)))
        };
        let c0 = read_poly(0)?;
        let c1 = read_poly(n * 8)?;
        Ok(CkksCiphertext { c0, c1 })
    }

    /// Expected absolute decryption error bound for a sum of `terms`
    /// fresh ciphertexts (heuristic, used by tests).
    #[must_use]
    pub fn error_bound(&self, terms: usize) -> f64 {
        // Fresh encryption noise is a few hundred in coefficient space for
        // binomial(21) errors and ternary u; decode divides by Δ. The n-point
        // embedding spreads noise by roughly sqrt(n).
        let n = self.encoder.slots() as f64 * 2.0;
        let per_ct = 21.0 * 8.0 * n.sqrt();
        per_ct * terms as f64 / self.encoder.scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx() -> CkksContext {
        CkksContext::new(&CkksParams::insecure_test()).unwrap()
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let (pk, sk) = ctx.keygen(&mut rng);
        let vals: Vec<f64> = (0..ctx.slots()).map(|i| (i as f64) * 0.01 - 0.5).collect();
        let ct = ctx.encrypt(&pk, &vals, &mut rng).unwrap();
        let back = ctx.decrypt(&sk, &ct, vals.len());
        let bound = ctx.error_bound(1);
        for (a, b) in vals.iter().zip(&back) {
            assert!((a - b).abs() < bound, "{a} vs {b} (bound {bound})");
        }
    }

    #[test]
    fn homomorphic_addition() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(2);
        let (pk, sk) = ctx.keygen(&mut rng);
        let a = [1.5, 2.5, -3.25, 0.125];
        let b = [0.5, -1.5, 3.0, 10.0];
        let ca = ctx.encrypt(&pk, &a, &mut rng).unwrap();
        let cb = ctx.encrypt(&pk, &b, &mut rng).unwrap();
        let sum = ctx.add(&ca, &cb);
        let back = ctx.decrypt(&sk, &sum, 4);
        let bound = ctx.error_bound(2);
        for i in 0..4 {
            assert!((back[i] - (a[i] + b[i])).abs() < bound);
        }
    }

    #[test]
    fn many_party_aggregation() {
        // The exact usage pattern of VFPS-SM: P parties each encrypt partial
        // distances; the server sums ciphertexts; the leader decrypts.
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let (pk, sk) = ctx.keygen(&mut rng);
        let parties = 8;
        let dims = 16;
        let mut expect = vec![0.0f64; dims];
        let mut acc: Option<CkksCiphertext> = None;
        for p in 0..parties {
            let vals: Vec<f64> = (0..dims).map(|i| ((p * dims + i) as f64).sqrt()).collect();
            for (e, v) in expect.iter_mut().zip(&vals) {
                *e += v;
            }
            let ct = ctx.encrypt(&pk, &vals, &mut rng).unwrap();
            acc = Some(match acc {
                None => ct,
                Some(prev) => ctx.add(&prev, &ct),
            });
        }
        let back = ctx.decrypt(&sk, &acc.unwrap(), dims);
        let bound = ctx.error_bound(parties);
        for i in 0..dims {
            assert!((back[i] - expect[i]).abs() < bound, "slot {i}");
        }
    }

    #[test]
    fn add_plain() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(4);
        let (pk, sk) = ctx.keygen(&mut rng);
        let ct = ctx.encrypt(&pk, &[5.0, -2.0], &mut rng).unwrap();
        let ct2 = ctx.add_plain(&ct, &[1.0, 2.0]).unwrap();
        let back = ctx.decrypt(&sk, &ct2, 2);
        let bound = ctx.error_bound(1);
        assert!((back[0] - 6.0).abs() < bound);
        assert!((back[1]).abs() < bound);
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(5);
        let (pk, _) = ctx.keygen(&mut rng);
        let c1 = ctx.encrypt(&pk, &[1.0], &mut rng).unwrap();
        let c2 = ctx.encrypt(&pk, &[1.0], &mut rng).unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(
            CkksContext::new(&CkksParams { degree: 100, modulus_bits: 50, scale: 1e9 }).is_err()
        );
        assert!(
            CkksContext::new(&CkksParams { degree: 256, modulus_bits: 20, scale: 1e9 }).is_err()
        );
    }

    #[test]
    fn byte_len_counts_two_polys() {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(6);
        let (pk, _) = ctx.keygen(&mut rng);
        let ct = ctx.encrypt(&pk, &[1.0], &mut rng).unwrap();
        assert_eq!(ct.byte_len(), 2 * 256 * 8);
    }

    #[test]
    fn default_vfl_parameters_roundtrip_a_full_vector() {
        let params = CkksParams::default_vfl();
        assert!(params.degree.is_power_of_two());
        let ctx = CkksContext::new(&params).unwrap();
        assert_eq!(ctx.slots(), params.degree / 2);
        let mut rng = StdRng::seed_from_u64(7);
        let (pk, sk) = ctx.keygen(&mut rng);
        let vals: Vec<f64> = (0..ctx.slots()).map(|i| (i as f64).sin() * 100.0).collect();
        let ct = ctx.encrypt(&pk, &vals, &mut rng).unwrap();
        assert_eq!(ct.byte_len(), 2 * params.degree * 8);
        // Absolute, not `error_bound(1)`: that heuristic spreads noise by
        // sqrt(n) and reads below the observed error at this degree.
        let back = ctx.decrypt(&sk, &ct, vals.len());
        for (a, b) in vals.iter().zip(&back) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }
}
