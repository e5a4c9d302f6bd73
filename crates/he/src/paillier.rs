//! The Paillier cryptosystem: an exact, additively homomorphic public-key
//! scheme.
//!
//! VFPS-SM only needs to *sum* encrypted partial distances, which Paillier
//! supports natively: `Enc(a)·Enc(b) mod n² = Enc(a+b)`. Plaintexts live in
//! `Z_n`; signed values are wrapped modularly and decoded by the `n/2`
//! threshold.
//!
//! Implementation notes: `g = n + 1`, so the message part of a ciphertext
//! needs no exponentiation (`g^m = 1 + m·n mod n²`). Decryption runs by
//! CRT over `p²` and `q²` (`CrtParams`); the textbook `c^λ mod n²` with
//! `μ = λ⁻¹ mod n` survives as [`PaillierPrivateKey::decrypt_plain`], the
//! oracle. Every modular product a ciphertext meets on the way — the
//! encryptor's finish, `add`, the CRT branches' entry and tail — is the
//! Montgomery kernel's, through contexts the keys own; the division-based
//! `BigUint::mul_mod` is left to the two reference routines.
//!
//! Encryption has two paths. [`PaillierPublicKey::encrypt`] is the slow
//! reference: a fresh coprime `r` and a full `r.mod_pow(n, n²)` per call.
//! [`PaillierEncryptor`] is the hot path: it fixes `h = r₀ⁿ mod n²` at
//! setup, precomputes a fixed-base window table for `h` modulo `n²`, and
//! draws each noise factor as `h^x` for a short random `x` — the standard
//! shortened-randomness optimization, cutting an n-bit square-and-multiply
//! down to ~`x_bits / 5` table products. Since `h^x = (r₀^x mod n)^n`, the
//! result is ordinary Paillier randomness and decryption is bit-exact.
//!
//! Both hot exponentiations — the CRT branches and the noise factors —
//! also run eight at a time on AVX-512 IFMA lanes where the CPU has them
//! (`bigint::lanes`), through [`NoisePool`] and the scheme's batched
//! decryption; the integers, and so the bytes, are the same.

use crate::bigint::lanes::{self, Kernel, LaneCtx, LANES};
use crate::bigint::montgomery::{FixedBaseWindow, MontResidue, MontScratch};
use crate::bigint::{BigInt, BigUint, MontgomeryCtx};
use crate::error::{Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Mutex;

/// Minimum accepted modulus width. Far below any secure size — permitted so
/// tests stay fast — but production callers should use ≥ 2048.
pub const MIN_KEY_BITS: usize = 64;

/// Maximum accepted modulus width. A key width can arrive off the wire (a
/// party daemon's setup frame): prime search is super-cubic in it and the
/// encryptor's window table grows with its square, so it is bounded where
/// keys are made.
pub const MAX_KEY_BITS: usize = 8192;

/// Paillier public key: the modulus `n` and the Montgomery context modulo
/// `n²` every ciphertext product runs through — built once, here, and
/// copied with the key. Two keys are equal when their moduli are.
#[derive(Clone, Debug)]
pub struct PaillierPublicKey {
    n: BigUint,
    n_squared: MontgomeryCtx,
    half_n: BigUint,
}

impl PartialEq for PaillierPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
    }
}

impl Eq for PaillierPublicKey {}

/// Paillier private key: the CRT decryptor over the factorization, plus
/// Carmichael `λ` and `μ = λ⁻¹ mod n` for the oracle
/// [`PaillierPrivateKey::decrypt_plain`].
#[derive(Clone, Debug)]
pub struct PaillierPrivateKey {
    lambda: BigUint,
    mu: BigUint,
    pk: PaillierPublicKey,
    crt: CrtParams,
}

/// Precomputed Chinese-Remainder-Theorem parameters: decrypting modulo
/// `p²` and `q²` separately and recombining replaces one `n²`-sized
/// exponentiation with two of half the modulus width and half the
/// exponent width — the standard ~4× Paillier decryption speedup.
///
/// With `g = n + 1` and `n² ≡ 0 (mod p²)`, `g^k ≡ 1 + k·n (mod p²)`; the
/// noise `rⁿ` has order dividing `p − 1` modulo `p²`. So
/// `c^{p−1} ≡ 1 + m·(p−1)·n (mod p²)` and
/// `L_p(c^{p−1} mod p²) = m·(p−1)·q ≡ −q·m (mod p)`: the branch exponent
/// is `p − 1` and the correction `h_p = (−q)⁻¹ mod p` needs no
/// exponentiation at key generation.
#[derive(Clone, Debug)]
struct CrtParams {
    /// Montgomery context modulo `p`: the `p` branch's tail.
    p: MontgomeryCtx,
    /// Montgomery context modulo `q`: the `q` branch's tail and Garner.
    q: MontgomeryCtx,
    /// Montgomery context modulo `p²`.
    p_squared: MontgomeryCtx,
    /// Montgomery context modulo `q²`.
    q_squared: MontgomeryCtx,
    /// Lane constants modulo `p²`, where the lane kernel serves its width.
    p_squared_lanes: Option<LaneCtx>,
    /// Lane constants modulo `q²`.
    q_squared_lanes: Option<LaneCtx>,
    /// `p − 1` — exponent for the `p²` branch.
    p_minus_1: BigUint,
    /// `q − 1` — exponent for the `q²` branch.
    q_minus_1: BigUint,
    /// `(−q)⁻¹ mod p`, in Montgomery form under `p`.
    h_p: MontResidue,
    /// `(−p)⁻¹ mod q`, in Montgomery form under `q`.
    h_q: MontResidue,
    /// `p⁻¹ mod q` for the final recombination, in Montgomery form under `q`.
    p_inv_q: MontResidue,
}

impl CrtParams {
    /// `None` when `p` and `q` are not distinct odd primes (no Bézout
    /// identity `p·x + q·y = 1`, or an even square).
    fn new(p: &BigUint, q: &BigUint) -> Option<Self> {
        let one = BigUint::one();
        // One extended gcd yields both inverses: p·x + q·y = 1.
        let (g, x, y) =
            BigInt::from_biguint(p.clone()).extended_gcd(&BigInt::from_biguint(q.clone()));
        if !g.magnitude().is_one() {
            return None;
        }
        let p_inv_q = x.rem_floor(q);
        let q_inv_p = y.rem_floor(p);
        let (p_ctx, q_ctx) = (MontgomeryCtx::new(p)?, MontgomeryCtx::new(q)?);
        let (p_squared, q_squared) = (p.square(), q.square());
        Some(CrtParams {
            h_p: p_ctx.enter(&p.sub(&q_inv_p)),
            h_q: q_ctx.enter(&q.sub(&p_inv_q)),
            p_inv_q: q_ctx.enter(&p_inv_q),
            p_squared_lanes: LaneCtx::new(&p_squared),
            q_squared_lanes: LaneCtx::new(&q_squared),
            p_squared: MontgomeryCtx::new(&p_squared)?,
            q_squared: MontgomeryCtx::new(&q_squared)?,
            p_minus_1: p.sub(&one),
            q_minus_1: q.sub(&one),
            p: p_ctx,
            q: q_ctx,
        })
    }

    /// CRT decryption of ciphertext `c`. Total: a `c` that is not a unit
    /// modulo `n` (not a ciphertext at all) decrypts to some residue rather
    /// than panicking.
    ///
    /// `c < n²` is twice as wide as `p²`: each branch's exponentiation
    /// enters Montgomery form from the double-width value (two products)
    /// rather than reducing it by division first, and the three constant
    /// factors of the tail, kept in Montgomery form, cost a product each.
    fn decrypt(&self, c: &BigUint, scratch: &mut MontScratch) -> BigUint {
        let xp = self.p_squared.mod_pow_with(c, &self.p_minus_1, scratch);
        let xq = self.q_squared.mod_pow_with(c, &self.q_minus_1, scratch);
        self.recombine(xp, xq)
    }

    /// [`CrtParams::decrypt`] of up to [`LANES`] ciphertexts on `kernel`:
    /// every `p²` branch as one lane batch — shared modulus and exponent,
    /// uniform control flow — then every `q²` branch, then each scalar
    /// tail.
    fn decrypt_batch(
        &self,
        cs: &[&BigUint],
        kernel: Kernel,
        scratch: &mut MontScratch,
    ) -> Vec<BigUint> {
        let (p_lanes, q_lanes) = (self.p_squared_lanes.as_ref(), self.q_squared_lanes.as_ref());
        let xp = lanes::pow_batch(&self.p_squared, p_lanes, cs, &self.p_minus_1, kernel, scratch);
        let xq = lanes::pow_batch(&self.q_squared, q_lanes, cs, &self.q_minus_1, kernel, scratch);
        xp.into_iter().zip(xq).map(|(xp, xq)| self.recombine(xp, xq)).collect()
    }

    /// The plaintext from the branch powers `xp = c^{p−1} mod p²` and
    /// `xq = c^{q−1} mod q²`: the L function, the correction and Garner's
    /// recombination, per ciphertext.
    fn recombine(&self, xp: BigUint, xq: BigUint) -> BigUint {
        let (p, q) = (self.p.modulus(), self.q.modulus());
        // m_p = L_p(c^{p−1} mod p²) · h_p mod p
        let mp = self.p.mul_by(&self.h_p, &l_function(xp, p));
        let mq = self.q.mul_by(&self.h_q, &l_function(xq, q));
        // Garner recombination: m = m_p + p·((m_q − m_p)·p⁻¹ mod q).
        let diff = mq.sub_mod(&mp, q);
        mp.add(&p.mul(&self.q.mul_by(&self.p_inv_q, &diff)))
    }
}

/// `L_d(x) = (x − 1) / d`. A unit powers to `x ≡ 1 (mod d)`; the `x = 0` a
/// multiple of `d` powers to maps to zero instead of underflowing.
fn l_function(x: BigUint, d: &BigUint) -> BigUint {
    if x.is_zero() {
        return x;
    }
    x.sub(&BigUint::one()).divrem(d).0
}

/// A public/private key pair.
#[derive(Clone, Debug)]
pub struct PaillierKeypair {
    /// Public half, distributed to every party and the aggregation server.
    pub public: PaillierPublicKey,
    /// Private half, held only by the leader participant.
    pub private: PaillierPrivateKey,
}

/// A Paillier ciphertext (an element of `Z_{n²}`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PaillierCiphertext(BigUint);

impl PaillierCiphertext {
    /// Serialized size in bytes (used for byte-accurate communication
    /// accounting).
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.0.byte_len()
    }

    /// Raw ciphertext value (exposed for serialization).
    #[must_use]
    pub fn as_biguint(&self) -> &BigUint {
        &self.0
    }

    /// Rebuilds a ciphertext from its raw value. The value is *not*
    /// validated against a key; use only with trusted serialized data.
    #[must_use]
    pub fn from_biguint(v: BigUint) -> Self {
        PaillierCiphertext(v)
    }
}

/// Generates a fresh keypair with an `n` of exactly `bits` bits.
///
/// # Errors
/// Returns [`Error::KeyTooSmall`] when `bits < MIN_KEY_BITS` and
/// [`Error::KeyTooLarge`] when `bits > MAX_KEY_BITS`.
pub fn generate_keypair<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> Result<PaillierKeypair> {
    if bits < MIN_KEY_BITS {
        return Err(Error::KeyTooSmall { bits, min: MIN_KEY_BITS });
    }
    if bits > MAX_KEY_BITS {
        return Err(Error::KeyTooLarge { bits, max: MAX_KEY_BITS });
    }
    loop {
        let p = BigUint::random_prime(rng, bits / 2);
        let q = BigUint::random_prime(rng, bits - bits / 2);
        if p == q {
            continue;
        }
        let n = p.mul(&q);
        if n.bits() != bits {
            continue;
        }
        let one = BigUint::one();
        let lambda = p.sub(&one).lcm(&q.sub(&one));
        let Some(mu) = lambda.mod_inverse(&n) else {
            continue;
        };
        let Some(crt) = CrtParams::new(&p, &q) else {
            continue;
        };
        let pk = PaillierPublicKey::new(n);
        return Ok(PaillierKeypair {
            private: PaillierPrivateKey { lambda, mu, pk: pk.clone(), crt },
            public: pk,
        });
    }
}

impl PaillierPublicKey {
    /// The key over an odd modulus `n` (a product of two odd primes).
    fn new(n: BigUint) -> Self {
        let n_squared =
            MontgomeryCtx::new(&n.square()).expect("n is odd, so n² has a Montgomery context");
        PaillierPublicKey { half_n: n.shr(1), n_squared, n }
    }

    /// The modulus `n`.
    #[must_use]
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The ciphertext modulus `n²`.
    #[must_use]
    pub fn modulus_squared(&self) -> &BigUint {
        self.n_squared.modulus()
    }

    /// Bit width of the modulus.
    #[must_use]
    pub fn key_bits(&self) -> usize {
        self.n.bits()
    }

    /// Encrypts a non-negative plaintext `m < n`.
    ///
    /// # Errors
    /// Returns [`Error::PlaintextOutOfRange`] if `m >= n`.
    pub fn encrypt<R: Rng + ?Sized>(&self, m: &BigUint, rng: &mut R) -> Result<PaillierCiphertext> {
        if m >= &self.n {
            return Err(Error::PlaintextOutOfRange);
        }
        let n_squared = self.modulus_squared();
        let r = BigUint::random_coprime(rng, &self.n);
        // g^m = (1 + n)^m = 1 + m·n (mod n²)
        let gm = BigUint::one().add(&m.mul(&self.n)).rem(n_squared);
        let rn = r.mod_pow(&self.n, n_squared);
        Ok(PaillierCiphertext(gm.mul_mod(&rn, n_squared)))
    }

    /// Encrypts a signed 64-bit value (wrapped into `Z_n`).
    pub fn encrypt_i64<R: Rng + ?Sized>(&self, v: i64, rng: &mut R) -> Result<PaillierCiphertext> {
        self.encrypt(&self.encode_i64(v), rng)
    }

    /// Wraps a signed value into `Z_n` (negatives map to `n - |v|`).
    #[must_use]
    pub fn encode_i64(&self, v: i64) -> BigUint {
        if v >= 0 {
            BigUint::from_u64(v as u64)
        } else {
            self.n.sub(&BigUint::from_u64(v.unsigned_abs()))
        }
    }

    /// Homomorphic addition: `Enc(a) ⊕ Enc(b) = Enc(a + b mod n)` — the
    /// product `a · b mod n²`, as two kernel products. Total over anything
    /// [`PaillierCiphertext::from_biguint`] can hold: the context reduces
    /// an operand that does not fit `n²`'s width before multiplying.
    #[must_use]
    pub fn add(&self, a: &PaillierCiphertext, b: &PaillierCiphertext) -> PaillierCiphertext {
        PaillierCiphertext(self.n_squared.mod_mul(&a.0, &b.0))
    }

    /// Adds a plaintext to a ciphertext without re-encryption.
    #[must_use]
    pub fn add_plain(&self, a: &PaillierCiphertext, m: &BigUint) -> PaillierCiphertext {
        // g^m = 1 + (m mod n)·n, below n² as it stands.
        let gm = m.rem(&self.n).mul(&self.n).add_u64(1);
        PaillierCiphertext(self.n_squared.mod_mul(&a.0, &gm))
    }

    /// Multiplies the underlying plaintext by a constant: `Enc(a)^k = Enc(k·a)`.
    #[must_use]
    pub fn mul_plain(&self, a: &PaillierCiphertext, k: &BigUint) -> PaillierCiphertext {
        PaillierCiphertext(self.n_squared.mod_pow(&a.0, k))
    }

    /// Re-randomizes a ciphertext (multiplies by a fresh encryption of zero),
    /// breaking ciphertext linkability.
    pub fn rerandomize<R: Rng + ?Sized>(
        &self,
        a: &PaillierCiphertext,
        rng: &mut R,
    ) -> PaillierCiphertext {
        let r = BigUint::random_coprime(rng, &self.n);
        let rn = self.n_squared.mod_pow(&r, &self.n);
        PaillierCiphertext(self.n_squared.mod_mul(&a.0, &rn))
    }

    /// Decodes a `Z_n` element into a signed value via the `n/2` threshold.
    #[must_use]
    pub fn decode_i128(&self, m: &BigUint) -> i128 {
        if m > &self.half_n {
            let mag = self.n.sub(m);
            -(mag.to_u128().expect("decoded magnitude exceeds i128") as i128)
        } else {
            m.to_u128().expect("decoded value exceeds i128") as i128
        }
    }
}

impl PaillierPrivateKey {
    /// The associated public key.
    #[must_use]
    pub fn public(&self) -> &PaillierPublicKey {
        &self.pk
    }

    /// Decrypts to the plaintext residue in `[0, n)`, by CRT over `p²` and
    /// `q²`.
    #[must_use]
    pub fn decrypt(&self, c: &PaillierCiphertext) -> BigUint {
        self.decrypt_with(c, &mut MontScratch::default())
    }

    /// [`PaillierPrivateKey::decrypt`] on caller-owned exponentiation
    /// buffers, for loops over many ciphertexts.
    #[must_use]
    pub fn decrypt_with(&self, c: &PaillierCiphertext, scratch: &mut MontScratch) -> BigUint {
        self.crt.decrypt(&c.0, scratch)
    }

    /// The plaintext residue of every ciphertext, [`LANES`] at a time on
    /// `kernel` — the same residues as a loop of
    /// [`PaillierPrivateKey::decrypt_with`].
    pub(crate) fn decrypt_batch(
        &self,
        cs: &[&PaillierCiphertext],
        kernel: Kernel,
        scratch: &mut MontScratch,
    ) -> Vec<BigUint> {
        let mut out = Vec::with_capacity(cs.len());
        for batch in cs.chunks(LANES) {
            let values: Vec<&BigUint> = batch.iter().map(|c| &c.0).collect();
            out.extend(self.crt.decrypt_batch(&values, kernel, scratch));
        }
        out
    }

    /// Decryption via the full `c^λ mod n²` exponentiation — the oracle the
    /// CRT path is tested against. It needs only `(n, λ, μ)`, the material
    /// [`crate::keys::encode_paillier_secret`] carries.
    #[must_use]
    pub fn decrypt_plain(&self, c: &PaillierCiphertext) -> BigUint {
        let pk = &self.pk;
        let x = c.0.mod_pow(&self.lambda, pk.modulus_squared());
        // L(x) = (x - 1) / n
        let l = x.sub(&BigUint::one()).divrem(&pk.n).0;
        l.mul_mod(&self.mu, &pk.n)
    }

    /// Decrypts to a signed value via the `n/2` threshold.
    #[must_use]
    pub fn decrypt_i128(&self, c: &PaillierCiphertext) -> i128 {
        let m = self.decrypt(c);
        self.pk.decode_i128(&m)
    }
}

// ---------------------------------------------------------------------------
// Precomputed fast-path encryption
// ---------------------------------------------------------------------------

/// Noise exponents are at least this wide even for the smallest keys.
const MIN_NOISE_BITS: usize = 64;

/// Precomputed fast-path encryptor: fixed-base window table over the noise
/// base `h = r₀ⁿ mod n²`, with noise factors `h^x` for short seeded `x`.
///
/// Construction costs several hundred Montgomery products (one-time, at
/// key setup); each encryption afterwards costs ~`noise_bits / 5` products
/// for the noise factor and one to finish, instead of the ~`1.5 · key_bits`
/// of the slow path, and skips the coprime rejection loop entirely.
#[derive(Clone, Debug)]
pub struct PaillierEncryptor {
    pk: PaillierPublicKey,
    window: FixedBaseWindow,
    noise_bits: usize,
}

impl PaillierEncryptor {
    /// Builds the precomputed table for `pk`, drawing the base seed `r₀`
    /// from `rng`. Two encryptors built from identical RNG states produce
    /// identical ciphertexts for identical (plaintext, noise seed) pairs.
    pub fn new<R: Rng + ?Sized>(pk: &PaillierPublicKey, rng: &mut R) -> Self {
        let r0 = BigUint::random_coprime(rng, &pk.n);
        let h = pk.n_squared.mod_pow(&r0, &pk.n);
        // Half the key width keeps the noise group large (2^(k/2) choices)
        // while quartering the exponent the window walk has to cover.
        let noise_bits = (pk.key_bits() / 2).max(MIN_NOISE_BITS);
        let window = FixedBaseWindow::new(&h, pk.n_squared.clone(), noise_bits);
        PaillierEncryptor { pk: pk.clone(), window, noise_bits }
    }

    /// The public key this encryptor serves.
    #[must_use]
    pub fn public(&self) -> &PaillierPublicKey {
        &self.pk
    }

    /// Bit width of the short noise exponents.
    #[must_use]
    pub fn noise_bits(&self) -> usize {
        self.noise_bits
    }

    /// Derives the noise factor `h^x mod n²` for a seeded short exponent
    /// `x`, in Montgomery form under `n²` — the form the window table
    /// produces and [`PaillierEncryptor::encrypt_with_noise`] consumes.
    /// Pure function of `seed`, so factors can be precomputed on any
    /// thread (or ahead of time by a [`NoisePool`]) without changing the
    /// ciphertexts.
    #[must_use]
    pub fn noise_for_seed(&self, seed: u64) -> MontResidue {
        self.window.pow(&self.noise_exponent(seed))
    }

    /// [`PaillierEncryptor::noise_for_seed`] of every seed, [`LANES`] at
    /// a time on `kernel` — the same factors.
    pub(crate) fn noise_for_seeds(&self, seeds: &[u64], kernel: Kernel) -> Vec<MontResidue> {
        let exps: Vec<BigUint> = seeds.iter().map(|&s| self.noise_exponent(s)).collect();
        self.window.pow_many(&exps, kernel)
    }

    /// The short noise exponent `x` seeded by `seed`.
    fn noise_exponent(&self, seed: u64) -> BigUint {
        BigUint::random_bits(&mut StdRng::seed_from_u64(seed), self.noise_bits)
    }

    /// Encrypts `m` with an explicit noise factor (from
    /// [`PaillierEncryptor::noise_for_seed`]): one kernel product,
    /// `(noise · R) · g^m · R⁻¹`.
    ///
    /// # Errors
    /// Returns [`Error::PlaintextOutOfRange`] if `m >= n`.
    pub fn encrypt_with_noise(
        &self,
        m: &BigUint,
        noise: &MontResidue,
    ) -> Result<PaillierCiphertext> {
        if m >= &self.pk.n {
            return Err(Error::PlaintextOutOfRange);
        }
        // g^m = (1 + n)^m = 1 + m·n, below n² as it stands since m < n.
        let gm = m.mul(&self.pk.n).add_u64(1);
        Ok(PaillierCiphertext(self.pk.n_squared.mul_by(noise, &gm)))
    }

    /// Convenience: derive the seeded noise factor and encrypt in one call.
    ///
    /// # Errors
    /// Returns [`Error::PlaintextOutOfRange`] if `m >= n`.
    pub fn encrypt_seeded(&self, m: &BigUint, seed: u64) -> Result<PaillierCiphertext> {
        self.encrypt_with_noise(m, &self.noise_for_seed(seed))
    }
}

/// A seeded, refillable pool of noise-factor *indices*.
///
/// The pool does not own randomness: factor `j` is the pure function
/// `encryptor.noise_for_seed(split_seed(pool_seed, j))`, so a ciphertext
/// depends only on the order in which callers *reserve* indices — never on
/// whether the factor was prefilled, which thread computed it, which
/// kernel, or how many were prefilled. [`NoisePool::prefill`] computes
/// factors ahead of the critical path and caches them; a take of a run of
/// reserved indices consumes the cache when it can and computes the rest
/// on demand, a lane batch at a time.
#[derive(Debug)]
pub struct NoisePool {
    seed: u64,
    state: Mutex<NoisePoolState>,
}

#[derive(Debug, Default)]
struct NoisePoolState {
    /// Next unreserved index; reservations are contiguous and ordered by
    /// call sequence, which is what makes pooled output deterministic.
    cursor: u64,
    /// Prefilled factors not yet consumed, keyed by index.
    ready: HashMap<u64, MontResidue>,
}

impl NoisePool {
    /// Creates an empty pool over `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        NoisePool { seed, state: Mutex::new(NoisePoolState::default()) }
    }

    /// The seed for factor index `j` (pure).
    #[must_use]
    pub fn seed_for(&self, index: u64) -> u64 {
        vfps_par::split_seed(self.seed, index)
    }

    /// Reserves `count` consecutive factor indices, returning the first.
    pub fn reserve(&self, count: usize) -> u64 {
        let mut state = self.state.lock().expect("noise pool mutex poisoned");
        let start = state.cursor;
        state.cursor += count as u64;
        start
    }

    /// The factors for the reserved indices `first..first + count`: the
    /// prefilled ones, taken under one lock, and the rest computed on
    /// `kernel` as one batch (identical either way).
    pub(crate) fn take(
        &self,
        enc: &PaillierEncryptor,
        first: u64,
        count: usize,
        kernel: Kernel,
    ) -> Vec<MontResidue> {
        let indices = first..first + count as u64;
        let hits: Vec<Option<MontResidue>> = {
            let mut state = self.state.lock().expect("noise pool mutex poisoned");
            indices.clone().map(|j| state.ready.remove(&j)).collect()
        };
        let missing: Vec<u64> = indices
            .zip(&hits)
            .filter(|(_, hit)| hit.is_none())
            .map(|(j, _)| self.seed_for(j))
            .collect();
        let mut computed = enc.noise_for_seeds(&missing, kernel).into_iter();
        hits.into_iter()
            .map(|hit| hit.unwrap_or_else(|| computed.next().expect("a factor per missing index")))
            .collect()
    }

    /// Precomputes the next `count` unreserved factors on `pool`, off the
    /// encryption critical path. Safe to call at any time; already-reserved
    /// indices are never recomputed.
    pub fn prefill(&self, enc: &PaillierEncryptor, count: usize, pool: &vfps_par::Pool) {
        self.prefill_insert(self.prefill_compute(enc, count, pool, Kernel::detected()));
    }

    /// The first half of [`NoisePool::prefill`]: the next `count`
    /// unreserved factors, computed in lane batches on `pool` without
    /// holding the lock.
    pub(crate) fn prefill_compute(
        &self,
        enc: &PaillierEncryptor,
        count: usize,
        pool: &vfps_par::Pool,
        kernel: Kernel,
    ) -> Vec<(u64, MontResidue)> {
        let start = self.state.lock().expect("noise pool mutex poisoned").cursor;
        let indices: Vec<u64> = (start..start + count as u64).collect();
        let batches: Vec<&[u64]> = indices.chunks(LANES).collect();
        pool.par_map_indexed(&batches, |_, batch| {
            let seeds: Vec<u64> = batch.iter().map(|&j| self.seed_for(j)).collect();
            batch.iter().copied().zip(enc.noise_for_seeds(&seeds, kernel)).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// The second half of [`NoisePool::prefill`]: caches the factors whose
    /// index is still unreserved. A reserve (and take) that ran while they
    /// were computed has consumed the indices below the cursor; caching
    /// those would leave them in `ready` forever.
    pub(crate) fn prefill_insert(&self, factors: Vec<(u64, MontResidue)>) {
        let mut state = self.state.lock().expect("noise pool mutex poisoned");
        let cursor = state.cursor;
        state.ready.extend(factors.into_iter().filter(|&(j, _)| j >= cursor));
    }

    /// Number of prefilled factors currently cached.
    #[must_use]
    pub fn ready_len(&self) -> usize {
        self.state.lock().expect("noise pool mutex poisoned").ready.len()
    }
}

/// The kernel Paillier's batched exponentiations run on in this process:
/// `ifma8` where CPUID reports `avx512f` and `avx512ifma`, `scalar`
/// elsewhere.
#[must_use]
pub fn kernel_name() -> &'static str {
    Kernel::detected().name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(bits: usize) -> PaillierKeypair {
        let mut rng = StdRng::seed_from_u64(42);
        generate_keypair(&mut rng, bits).unwrap()
    }

    #[test]
    fn rejects_tiny_keys() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(generate_keypair(&mut rng, 32), Err(Error::KeyTooSmall { .. })));
    }

    #[test]
    fn rejects_oversized_keys() {
        let mut rng = StdRng::seed_from_u64(0);
        // Refused before any prime search: these return at once.
        for bits in [MAX_KEY_BITS + 1, 1 << 20, usize::MAX] {
            assert_eq!(
                generate_keypair(&mut rng, bits).err(),
                Some(Error::KeyTooLarge { bits, max: MAX_KEY_BITS })
            );
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let kp = keypair(256);
        let mut rng = StdRng::seed_from_u64(1);
        for v in [0u64, 1, 42, 1_000_000, u64::MAX] {
            let m = BigUint::from_u64(v);
            let c = kp.public.encrypt(&m, &mut rng).unwrap();
            assert_eq!(kp.private.decrypt(&c), m, "v={v}");
        }
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let kp = keypair(256);
        let mut rng = StdRng::seed_from_u64(2);
        let m = BigUint::from_u64(7);
        let c1 = kp.public.encrypt(&m, &mut rng).unwrap();
        let c2 = kp.public.encrypt(&m, &mut rng).unwrap();
        assert_ne!(c1, c2, "semantic security: same plaintext, fresh randomness");
        assert_eq!(kp.private.decrypt(&c1), kp.private.decrypt(&c2));
    }

    #[test]
    fn additive_homomorphism() {
        let kp = keypair(256);
        let mut rng = StdRng::seed_from_u64(3);
        let a = kp.public.encrypt(&BigUint::from_u64(1234), &mut rng).unwrap();
        let b = kp.public.encrypt(&BigUint::from_u64(8766), &mut rng).unwrap();
        let sum = kp.public.add(&a, &b);
        assert_eq!(kp.private.decrypt(&sum).to_u64(), Some(10_000));
    }

    #[test]
    fn add_plain_and_mul_plain() {
        let kp = keypair(256);
        let mut rng = StdRng::seed_from_u64(4);
        let c = kp.public.encrypt(&BigUint::from_u64(100), &mut rng).unwrap();
        let c2 = kp.public.add_plain(&c, &BigUint::from_u64(23));
        assert_eq!(kp.private.decrypt(&c2).to_u64(), Some(123));
        let c3 = kp.public.mul_plain(&c, &BigUint::from_u64(5));
        assert_eq!(kp.private.decrypt(&c3).to_u64(), Some(500));
    }

    #[test]
    fn signed_values_roundtrip() {
        let kp = keypair(256);
        let mut rng = StdRng::seed_from_u64(5);
        for v in [-1_000_000i64, -1, 0, 1, 999_999_999] {
            let c = kp.public.encrypt_i64(v, &mut rng).unwrap();
            assert_eq!(kp.private.decrypt_i128(&c), i128::from(v), "v={v}");
        }
    }

    #[test]
    fn signed_sums_cross_zero() {
        let kp = keypair(256);
        let mut rng = StdRng::seed_from_u64(6);
        let a = kp.public.encrypt_i64(-500, &mut rng).unwrap();
        let b = kp.public.encrypt_i64(200, &mut rng).unwrap();
        assert_eq!(kp.private.decrypt_i128(&kp.public.add(&a, &b)), -300);
    }

    #[test]
    fn rerandomize_preserves_plaintext() {
        let kp = keypair(256);
        let mut rng = StdRng::seed_from_u64(7);
        let c = kp.public.encrypt(&BigUint::from_u64(77), &mut rng).unwrap();
        let c2 = kp.public.rerandomize(&c, &mut rng);
        assert_ne!(c, c2);
        assert_eq!(kp.private.decrypt(&c2).to_u64(), Some(77));
    }

    #[test]
    fn plaintext_out_of_range_rejected() {
        let kp = keypair(128);
        let mut rng = StdRng::seed_from_u64(8);
        let too_big = kp.public.modulus().clone();
        assert!(matches!(kp.public.encrypt(&too_big, &mut rng), Err(Error::PlaintextOutOfRange)));
    }

    /// The residues every width is checked on: random ones, the ends of
    /// `Z_n`, and the largest plaintext the packed layout ever produces —
    /// every slot at `+2^MAG_BITS`, summed `DEFAULT_MAX_TERMS` times.
    fn residues(kp: &PaillierKeypair, rng: &mut StdRng) -> Vec<BigUint> {
        use crate::packing::{PackingLayout, DEFAULT_MAX_TERMS, MAG_BITS};
        let n = kp.public.modulus();
        let layout = PackingLayout::for_key(kp.public.key_bits(), DEFAULT_MAX_TERMS).unwrap();
        let full = layout
            .pack(&vec![1i64 << MAG_BITS; layout.slots()])
            .unwrap()
            .mul_u64(u64::from(DEFAULT_MAX_TERMS));
        assert!(&full < n, "the packed maximum is a plaintext");
        let mut out = vec![BigUint::zero(), BigUint::one(), n.sub(&BigUint::one()), full];
        out.extend((0..12).map(|_| BigUint::random_below(rng, n)));
        out
    }

    /// CRT and oracle are called by name, never through the dispatching
    /// `decrypt`, and each is shown not to lean on the other's key
    /// material: the CRT routine still decrypts under a key whose `λ`, `μ`
    /// are zeroed, the oracle still decrypts under a key carrying another
    /// key's CRT parameters — and in both cases the *other* routine fails.
    #[test]
    fn crt_decrypt_matches_oracle_and_neither_routes_through_the_other() {
        for bits in [64usize, 128, 256, 512] {
            let kp = keypair(bits);
            let mut rng = StdRng::seed_from_u64(10 + bits as u64);
            let enc = PaillierEncryptor::new(&kp.public, &mut rng);
            let mut scratch = MontScratch::default();
            let crt = |c: &PaillierCiphertext, s: &mut MontScratch| kp.private.crt.decrypt(&c.0, s);

            let mut cts: Vec<(PaillierCiphertext, BigUint)> = residues(&kp, &mut rng)
                .into_iter()
                .map(|m| (kp.public.encrypt(&m, &mut rng).unwrap(), m))
                .collect();
            // A homomorphic sum of 16 fast-path ciphertexts.
            let parts: Vec<BigUint> = (0..16).map(|i| BigUint::from_u64(1_000_003 * i)).collect();
            let sum = parts
                .iter()
                .enumerate()
                .map(|(i, m)| enc.encrypt_seeded(m, 900 + i as u64).unwrap())
                .reduce(|a, b| kp.public.add(&a, &b))
                .unwrap();
            cts.push((sum, parts.iter().fold(BigUint::zero(), |a, b| a.add(b))));

            let stranger = generate_keypair(&mut StdRng::seed_from_u64(4242), bits).unwrap();
            let no_oracle = PaillierPrivateKey {
                lambda: BigUint::zero(),
                mu: BigUint::zero(),
                ..kp.private.clone()
            };
            let no_crt = PaillierPrivateKey { crt: stranger.private.crt, ..kp.private.clone() };
            for (c, m) in &cts {
                assert_eq!(&crt(c, &mut scratch), m, "crt, {bits} bits");
                assert_eq!(&kp.private.decrypt_plain(c), m, "oracle, {bits} bits");
                assert_eq!(&no_oracle.decrypt(c), m, "crt without λ/μ, {bits} bits");
                assert_eq!(&no_crt.decrypt_plain(c), m, "oracle without crt, {bits} bits");
            }
            // The cross pairings are wrong, so the equalities above cannot
            // be one routine compared with itself.
            let (c, m) = &cts[4];
            assert_ne!(&no_oracle.decrypt_plain(c), m, "oracle needs λ/μ, {bits} bits");
            assert_ne!(&no_crt.decrypt(c), m, "decrypt needs the crt parameters, {bits} bits");
        }
    }

    #[test]
    fn crt_parameters_are_the_closed_forms() {
        let kp = keypair(256);
        let crt = &kp.private.crt;
        let (p, q) = (crt.p.modulus(), crt.q.modulus());
        assert_eq!(p.mul(q), *kp.public.modulus());
        let neg_q = p.sub(&q.rem(p));
        let neg_p = q.sub(&p.rem(q));
        assert!(crt.p.mul_by(&crt.h_p, &neg_q).is_one(), "h_p = (−q)⁻¹ mod p");
        assert!(crt.q.mul_by(&crt.h_q, &neg_p).is_one(), "h_q = (−p)⁻¹ mod q");
        assert!(crt.q.mul_by(&crt.p_inv_q, p).is_one());
    }

    #[test]
    fn non_unit_ciphertexts_decrypt_without_panicking() {
        // n and its multiples are the non-units anyone can name from the
        // public key; c^{p−1} ≡ 0 (mod p²) for them.
        let kp = keypair(128);
        let n = kp.public.modulus();
        for c in [n.clone(), n.mul_u64(3), n.square().sub(n)] {
            let m = kp.private.decrypt(&PaillierCiphertext::from_biguint(c));
            assert!(&m < n);
        }
    }

    #[test]
    fn fast_path_decrypts_identically_to_slow_path() {
        let kp = keypair(256);
        let mut rng = StdRng::seed_from_u64(11);
        let enc = PaillierEncryptor::new(&kp.public, &mut rng);
        for (i, v) in [0u64, 1, 42, 1_000_000, u64::MAX].into_iter().enumerate() {
            let m = BigUint::from_u64(v);
            let fast = enc.encrypt_seeded(&m, 1000 + i as u64).unwrap();
            assert_eq!(kp.private.decrypt(&fast), m, "fast path roundtrip v={v}");
            // The fast ciphertext interoperates with slow-path ciphertexts.
            let slow = kp.public.encrypt(&m, &mut rng).unwrap();
            let sum = kp.public.add(&fast, &slow);
            assert_eq!(kp.private.decrypt(&sum), m.add(&m), "fast+slow interop v={v}");
        }
    }

    #[test]
    fn fast_path_is_deterministic_in_its_seed() {
        let kp = keypair(128);
        let enc_a = PaillierEncryptor::new(&kp.public, &mut StdRng::seed_from_u64(20));
        let enc_b = PaillierEncryptor::new(&kp.public, &mut StdRng::seed_from_u64(20));
        let m = BigUint::from_u64(314);
        assert_eq!(enc_a.encrypt_seeded(&m, 7).unwrap(), enc_b.encrypt_seeded(&m, 7).unwrap());
        assert_ne!(
            enc_a.encrypt_seeded(&m, 7).unwrap(),
            enc_a.encrypt_seeded(&m, 8).unwrap(),
            "different noise seeds randomize the ciphertext"
        );
    }

    #[test]
    fn fast_path_rejects_out_of_range_plaintext() {
        let kp = keypair(128);
        let mut rng = StdRng::seed_from_u64(21);
        let enc = PaillierEncryptor::new(&kp.public, &mut rng);
        let too_big = kp.public.modulus().clone();
        assert!(matches!(enc.encrypt_seeded(&too_big, 0), Err(Error::PlaintextOutOfRange)));
    }

    #[test]
    fn noise_pool_output_is_independent_of_prefill_and_threads() {
        let kp = keypair(128);
        let mut rng = StdRng::seed_from_u64(22);
        let enc = PaillierEncryptor::new(&kp.public, &mut rng);
        // Reference: no prefill at all, one scalar factor per index.
        let cold = NoisePool::new(777);
        let start = cold.reserve(12);
        let want: Vec<MontResidue> =
            (start..start + 12).map(|j| enc.noise_for_seed(cold.seed_for(j))).collect();
        for kernel in Kernel::available() {
            for threads in [1usize, 4] {
                let pool = vfps_par::Pool::with_threads(threads);
                let warm = NoisePool::new(777);
                // Partial prefill: 5 of 12.
                warm.prefill_insert(warm.prefill_compute(&enc, 5, &pool, kernel));
                assert_eq!(warm.ready_len(), 5);
                let start = warm.reserve(12);
                let got = warm.take(&enc, start, 12, kernel);
                assert_eq!(got, want, "{kernel:?}, threads={threads}");
                assert_eq!(warm.ready_len(), 0, "prefilled factors consumed");
            }
        }
    }

    /// A reserve and take that land between a prefill's compute and its
    /// insert consume indices the prefill computed: the insert drops them
    /// rather than caching factors nothing will take.
    #[test]
    fn prefill_drops_factors_reserved_while_it_computed() {
        let kp = keypair(128);
        let enc = PaillierEncryptor::new(&kp.public, &mut StdRng::seed_from_u64(23));
        let pool = vfps_par::Pool::with_threads(1);
        let noise = NoisePool::new(778);
        let computed = noise.prefill_compute(&enc, 5, &pool, Kernel::detected());
        assert_eq!(computed.iter().map(|&(j, _)| j).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        let start = noise.reserve(3);
        let taken = noise.take(&enc, start, 3, Kernel::detected());
        noise.prefill_insert(computed.clone());
        assert_eq!(noise.ready_len(), 2, "indices 0–2 were reserved before the insert");
        let start = noise.reserve(2);
        assert_eq!(start, 3);
        let rest = noise.take(&enc, start, 2, Kernel::detected());
        assert_eq!(noise.ready_len(), 0);
        let all: Vec<MontResidue> = taken.into_iter().chain(rest).collect();
        assert_eq!(all, computed.into_iter().map(|(_, f)| f).collect::<Vec<_>>());
    }

    #[test]
    fn noise_pool_reservations_are_contiguous() {
        let pool = NoisePool::new(1);
        assert_eq!(pool.reserve(3), 0);
        assert_eq!(pool.reserve(1), 3);
        assert_eq!(pool.reserve(0), 4);
        assert_eq!(pool.reserve(2), 4);
    }

    #[test]
    fn long_sum_chain() {
        let kp = keypair(256);
        let mut rng = StdRng::seed_from_u64(9);
        let mut acc = kp.public.encrypt(&BigUint::zero(), &mut rng).unwrap();
        let mut expect = 0u64;
        for i in 1..=50u64 {
            let c = kp.public.encrypt(&BigUint::from_u64(i * i), &mut rng).unwrap();
            acc = kp.public.add(&acc, &c);
            expect += i * i;
        }
        assert_eq!(kp.private.decrypt(&acc).to_u64(), Some(expect));
    }
}
