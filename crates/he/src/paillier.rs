//! The Paillier cryptosystem: an exact, additively homomorphic public-key
//! scheme.
//!
//! VFPS-SM only needs to *sum* encrypted partial distances, which Paillier
//! supports natively: `Enc(a)·Enc(b) mod n² = Enc(a+b)`. Plaintexts live in
//! `Z_n`; signed values reach them biased non-negative by the packed layout
//! (`crate::packing`).
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
//! decryption; the integers, and so the bytes, are the same. The work
//! between them — noise exponents, `g^m`, the finishing product, the CRT
//! tail, ciphertext sums — runs on limb buffers a pool task reuses, so a
//! slot group's one allocation is its result.

use crate::bigint::lanes::{self, Kernel, LaneCtx, LaneScratch, LANES, MIN_LIVE_LANES};
use crate::bigint::montgomery::{
    add_in_place, inv_mod_2_64, less_than, mul_low, sub_in_place, FixedBaseWindow, MontResidue,
    MontScratch,
};
use crate::bigint::mul::mul_into;
use crate::bigint::{BigInt, BigUint, MontgomeryCtx};
use crate::error::{Error, Result};
use crate::fixed::FixedPoint;
use crate::packing::{PackingLayout, DEFAULT_MAX_TERMS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

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
    /// What finishes a [`PaillierPublicKey::products`] chain, built by
    /// the first sum: a key that never sums never pays for it.
    sums: OnceLock<SumFactors>,
}

/// Most ciphertexts one [`PaillierPublicKey::products`] multiplies: the
/// packed layout's headroom, which no valid sum exceeds.
const MAX_PRODUCT_OPERANDS: usize = DEFAULT_MAX_TERMS as usize;

/// `R^k mod n²` for `k` in `1..=MAX_PRODUCT_OPERANDS`: the factor that
/// undoes a chain of `k` operands' `R⁻¹`s, for each kernel in its radix.
#[derive(Clone, Debug)]
struct SumFactors {
    /// `L` 64-bit limbs a power of the scalar kernel's `R`.
    scalar: Vec<u64>,
    /// The lane kernel's constants modulo `n²`, where it serves the width.
    lanes: Option<CiphertextLanes>,
}

/// Lane constants modulo `n²`, for products of ciphertexts eight at a
/// time.
#[derive(Clone, Debug)]
struct CiphertextLanes {
    ctx: LaneCtx,
    /// `width` radix-52 limbs a power of the lanes' `R₅₂`.
    factors: Vec<u64>,
    width: usize,
}

impl SumFactors {
    fn new(n_squared: &MontgomeryCtx) -> Self {
        let l = n_squared.limbs();
        let r = BigUint::one().shl(64 * l);
        let scalar = n_squared
            .powers(&r, MAX_PRODUCT_OPERANDS)
            .iter()
            .flat_map(|power| {
                let mut limbs = power.limbs().to_vec();
                limbs.resize(l, 0);
                limbs
            })
            .collect();
        let lanes = LaneCtx::new(n_squared.modulus()).map(|ctx| {
            let powers = n_squared.powers(&ctx.r(), MAX_PRODUCT_OPERANDS);
            let factors: Vec<u64> = powers.iter().flat_map(|power| ctx.lane_limbs(power)).collect();
            let width = factors.len() / MAX_PRODUCT_OPERANDS;
            CiphertextLanes { ctx, factors, width }
        });
        SumFactors { scalar, lanes }
    }
}

/// Reusable limb buffers for [`PaillierPublicKey::products`].
#[derive(Clone, Debug, Default)]
pub(crate) struct ProductScratch {
    lanes: LaneScratch,
    /// A lane batch's results.
    limbs: Vec<u64>,
    /// The scalar chain's operand padding and next product.
    pad: Vec<u64>,
    next: Vec<u64>,
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
    /// `p⁻¹ mod 2^(64·k)`, `k` the limbs of `p`: `L_p` as a product.
    p_inv_low: Vec<u64>,
    /// `q⁻¹ mod 2^(64·k)`, `k` the limbs of `q`.
    q_inv_low: Vec<u64>,
}

/// Reusable limb buffers for one lane batch of CRT decryptions: the
/// branch powers, the tail's intermediates and the plaintexts.
#[derive(Clone, Debug, Default)]
pub(crate) struct CrtScratch {
    pow: MontScratch,
    xp: Vec<u64>,
    xq: Vec<u64>,
    /// `x − 1`, then `L(x)`, `m_p`, `m_q`, Garner's difference and `h`.
    tail: [Vec<u64>; 6],
    plains: Vec<u64>,
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
            p_inv_low: inv_mod_limbs(p.limbs()),
            q_inv_low: inv_mod_limbs(q.limbs()),
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
    /// uniform control flow — then every `q²` branch, then each tail on
    /// fixed buffers. The plaintexts land in `scratch`, `plain_limbs()`
    /// limbs apart; no allocation once it is warm.
    fn decrypt_lanes<'s>(
        &self,
        cs: &[&BigUint],
        kernel: Kernel,
        scratch: &'s mut CrtScratch,
    ) -> &'s [u64] {
        let (p_lanes, q_lanes) = (self.p_squared_lanes.as_ref(), self.q_squared_lanes.as_ref());
        let (lp, lq, l) = (self.p_squared.limbs(), self.q_squared.limbs(), self.plain_limbs());
        let CrtScratch { pow, xp, xq, tail, plains } = scratch;
        xp.resize(LANES * lp, 0);
        xq.resize(LANES * lq, 0);
        plains.resize(LANES * l, 0);
        lanes::pow_batch(&self.p_squared, p_lanes, cs, &self.p_minus_1, kernel, pow, xp);
        lanes::pow_batch(&self.q_squared, q_lanes, cs, &self.q_minus_1, kernel, pow, xq);
        for (i, plain) in plains.chunks_exact_mut(l).take(cs.len()).enumerate() {
            self.recombine_into(&xp[i * lp..(i + 1) * lp], &xq[i * lq..(i + 1) * lq], tail, plain);
        }
        &plains[..cs.len() * l]
    }

    /// Limbs of a plaintext out of [`CrtParams::decrypt_lanes`]: those of
    /// `p` and `q` together.
    fn plain_limbs(&self) -> usize {
        self.p.limbs() + self.q.limbs()
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

    /// [`CrtParams::recombine`] on limbs: `xp` and `xq` as the `p²` and
    /// `q²` contexts' limbs, the plaintext into `plain`'s
    /// [`CrtParams::plain_limbs`]. `L` is an exact division, so it is a
    /// truncated product by `p⁻¹ mod 2^(64·k)` (`l_function_into`); the
    /// rest are kernel products, a schoolbook `p · h` and carries.
    fn recombine_into(&self, xp: &[u64], xq: &[u64], tail: &mut [Vec<u64>; 6], plain: &mut [u64]) {
        let (kp, kq) = (self.p.limbs(), self.q.limbs());
        let [x1, l, mp, mq, diff, h] = tail;
        for buf in [&mut *x1, &mut *l, &mut *mp, &mut *mq, &mut *diff, &mut *h] {
            buf.resize(kq, 0);
        }
        // m_p = L_p(xp) · h_p mod p, m_q likewise.
        l_function_into(xp, &self.p_inv_low, &mut x1[..kp], &mut l[..kp]);
        self.p.mul(&mut mp[..kp], &self.h_p.0, &l[..kp]);
        l_function_into(xq, &self.q_inv_low, &mut x1[..kq], &mut l[..kq]);
        self.q.mul(mq, &self.h_q.0, l);
        // Garner: m = m_p + p·((m_q − m_p)·p⁻¹ mod q). `p` has no more
        // limbs than `q` and at most one more bit, so m_p < p < 2q reduces
        // by one subtraction.
        let q_limbs = self.q.modulus().limbs();
        diff[..kp].copy_from_slice(&mp[..kp]);
        diff[kp..].fill(0);
        if !less_than(diff, q_limbs) {
            sub_in_place(diff, q_limbs);
        }
        // m_q − m_p mod q, wrapping: the result is below q.
        if less_than(mq, diff) {
            add_in_place(mq, q_limbs);
        }
        sub_in_place(mq, diff);
        self.q.mul(h, &self.p_inv_q.0, mq);
        mul_into(plain, self.p.modulus().limbs(), h);
        let carry = add_in_place(&mut plain[..kp], &mp[..kp]);
        if carry {
            // m < n fits the limbs, so the carry stops inside them.
            for limb in &mut plain[kp..] {
                let (sum, overflow) = limb.overflowing_add(1);
                *limb = sum;
                if !overflow {
                    break;
                }
            }
        }
    }
}

/// `d⁻¹ mod 2^(64·k)` for the `k` limbs of an odd `d`, by Newton–Hensel
/// lifting from the inverse modulo `2^64`: each step `x ← x·(2 − d·x)`
/// doubles the bits that are right.
fn inv_mod_limbs(d: &[u64]) -> Vec<u64> {
    let k = d.len();
    let (mut x, mut dx, mut next) = (vec![0u64; k], vec![0u64; k], vec![0u64; k]);
    x[0] = inv_mod_2_64(d[0]);
    let mut bits = 64;
    while bits < 64 * k {
        mul_low(&mut dx, d, &x);
        // 2 − d·x = !(d·x) + 3 in two's complement.
        dx.iter_mut().for_each(|limb| *limb = !*limb);
        let mut carry = 3u64;
        for limb in dx.iter_mut() {
            let (sum, overflow) = limb.overflowing_add(carry);
            *limb = sum;
            carry = u64::from(overflow);
        }
        mul_low(&mut next, &x, &dx);
        std::mem::swap(&mut x, &mut next);
        bits *= 2;
    }
    x
}

/// `L(x) = (x − 1) / d` into the `k` limbs of `out`, given
/// `d_inv = d⁻¹ mod 2^(64·k)` with `d < 2^(64·k)`: the quotient of an
/// exact division is below `d`, so it is the low `k` limbs of
/// `(x − 1) · d⁻¹`. Exact because a unit powers to `x ≡ 1 (mod d)`; the
/// `x = 0` a multiple of `d` powers to maps to zero, as in
/// [`l_function`]. `x1` is `k` limbs of scratch.
fn l_function_into(x: &[u64], d_inv: &[u64], x1: &mut [u64], out: &mut [u64]) {
    if x.iter().all(|&limb| limb == 0) {
        out.fill(0);
        return;
    }
    // x − 1 mod 2^(64·k): the borrow stops at the first non-zero limb.
    x1.copy_from_slice(&x[..x1.len()]);
    for limb in x1.iter_mut() {
        let (diff, borrow) = limb.overflowing_sub(1);
        *limb = diff;
        if !borrow {
            break;
        }
    }
    mul_low(out, x1, d_inv);
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
        PaillierPublicKey { n_squared, n, sums: OnceLock::new() }
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

    /// Homomorphic addition: `Enc(a) ⊕ Enc(b) = Enc(a + b mod n)` — the
    /// product `a · b mod n²`, as two kernel products (the sums' chain,
    /// of two operands). Total over anything
    /// [`PaillierCiphertext::from_biguint`] can hold: an operand that does
    /// not fit `n²`'s width is reduced before multiplying.
    #[must_use]
    pub fn add(&self, a: &PaillierCiphertext, b: &PaillierCiphertext) -> PaillierCiphertext {
        self.product([a, b].into_iter(), 2, &mut ProductScratch::default())
    }

    /// For each of `groups` groups, the product mod `n²` of its `k`
    /// ciphertexts `operand(j, group)` — the homomorphic sum of their
    /// plaintexts — appended to `out`: one kernel product per operand, a
    /// chain `c₁·c₂·R⁻¹·…·c_k·R⁻¹` finished by one product with `R^k`.
    /// [`LANES`] groups at a time on the lanes when `kernel` is
    /// [`Kernel::Ifma8`], `n²` has a lane width and at least
    /// [`MIN_LIVE_LANES`] are live; on the scalar kernel otherwise — the
    /// same integers. Every operand must be below `n²`, as a decoded or
    /// computed ciphertext is; each result is one allocation once
    /// `scratch` is warm.
    ///
    /// # Panics
    /// Panics on no operands or more than `MAX_PRODUCT_OPERANDS`.
    pub(crate) fn products<'a>(
        &self,
        k: usize,
        groups: usize,
        operand: impl Fn(usize, usize) -> &'a PaillierCiphertext,
        kernel: Kernel,
        scratch: &mut ProductScratch,
        out: &mut Vec<PaillierCiphertext>,
    ) {
        assert!((1..=MAX_PRODUCT_OPERANDS).contains(&k), "a product of {k} ciphertexts");
        let l = self.n_squared.limbs();
        for first in (0..groups).step_by(LANES) {
            let live = LANES.min(groups - first);
            match &self.sum_factors().lanes {
                Some(lanes) if kernel == Kernel::Ifma8 && live >= MIN_LIVE_LANES => {
                    let limbs = &mut scratch.limbs;
                    limbs.resize(LANES * l, 0);
                    let factor = &lanes.factors[(k - 1) * lanes.width..k * lanes.width];
                    let value = |j, lane| operand(j, first + lane).0.limbs();
                    lanes.ctx.product_into(k, live, value, factor, &mut scratch.lanes, l, limbs);
                    out.extend(
                        limbs
                            .chunks_exact(l)
                            .take(live)
                            .map(|c| PaillierCiphertext(BigUint::from_limbs(c.to_vec()))),
                    );
                }
                _ => {
                    for g in first..first + live {
                        out.push(self.product((0..k).map(|j| operand(j, g)), k, scratch));
                    }
                }
            }
        }
    }

    /// One group of [`PaillierPublicKey::products`] on the scalar kernel,
    /// total as [`PaillierPublicKey::add`] is.
    fn product<'a>(
        &self,
        cts: impl Iterator<Item = &'a PaillierCiphertext>,
        k: usize,
        scratch: &mut ProductScratch,
    ) -> PaillierCiphertext {
        let l = self.n_squared.limbs();
        let ProductScratch { pad, next, .. } = scratch;
        next.resize(l, 0);
        let mut out = vec![0u64; l];
        for (j, c) in cts.enumerate() {
            let operand = self.n_squared.operand(&c.0, pad);
            if j == 0 {
                out.copy_from_slice(operand);
            } else {
                self.n_squared.mul(next, &out, operand);
                out.copy_from_slice(next);
            }
        }
        next.copy_from_slice(&out);
        let factor = &self.sum_factors().scalar[(k - 1) * l..k * l];
        self.n_squared.mul(&mut out, next, factor);
        PaillierCiphertext(BigUint::from_limbs(out))
    }

    fn sum_factors(&self) -> &SumFactors {
        self.sums.get_or_init(|| SumFactors::new(&self.n_squared))
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

    /// The plaintext residues of up to [`LANES`] ciphertexts on `kernel`,
    /// [`PaillierPrivateKey::plain_limbs`] limbs apart in `scratch` — the
    /// residues of a loop of [`PaillierPrivateKey::decrypt_with`].
    pub(crate) fn decrypt_lanes<'s>(
        &self,
        cs: &[&BigUint],
        kernel: Kernel,
        scratch: &'s mut CrtScratch,
    ) -> &'s [u64] {
        self.crt.decrypt_lanes(cs, kernel, scratch)
    }

    /// Limbs of each residue [`PaillierPrivateKey::decrypt_lanes`] writes.
    pub(crate) fn plain_limbs(&self) -> usize {
        self.crt.plain_limbs()
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
    /// Pure function of `seed`, so factors can be computed on any thread
    /// without changing the ciphertexts.
    #[must_use]
    pub fn noise_for_seed(&self, seed: u64) -> MontResidue {
        let mut exp = vec![0u64; self.exponent_limbs()];
        self.noise_exponent_into(seed, &mut exp);
        self.window.pow(&BigUint::from_limbs(exp))
    }

    /// The short noise exponent `x` seeded by `seed`, into the caller's
    /// [`PaillierEncryptor::exponent_limbs`] limbs.
    fn noise_exponent_into(&self, seed: u64, out: &mut [u64]) {
        BigUint::fill_random_bits(&mut StdRng::seed_from_u64(seed), self.noise_bits, out);
    }

    /// Limbs of a noise exponent.
    fn exponent_limbs(&self) -> usize {
        self.noise_bits.div_ceil(64)
    }

    /// The noise factors of up to [`LANES`] seeds into `out`, `L` limbs
    /// each — [`PaillierEncryptor::noise_for_seed`]'s limbs — as one
    /// batch on `kernel`, the exponents drawn into `exps`.
    fn noise_into(
        &self,
        seeds: &[u64],
        kernel: Kernel,
        exps: &mut Vec<u64>,
        pow: &mut MontScratch,
        out: &mut [u64],
    ) {
        let stride = self.exponent_limbs();
        exps.resize(seeds.len() * stride, 0);
        for (&seed, exp) in seeds.iter().zip(exps.chunks_exact_mut(stride)) {
            self.noise_exponent_into(seed, exp);
        }
        self.window.pow_batch(exps, stride, kernel, pow, out);
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
        let l = self.pk.n_squared.limbs();
        let mut gm = vec![0u64; (m.limbs().len() + self.pk.n.limbs().len()).max(l)];
        self.g_to_the(m.limbs(), &mut gm);
        let mut out = vec![0u64; l];
        self.pk.n_squared.mul(&mut out, &noise.0, &gm[..l]);
        Ok(PaillierCiphertext(BigUint::from_limbs(out)))
    }

    /// `g^m = (1 + n)^m = 1 + m·n` for the plaintext limbs `m` (a value
    /// below `n`) into `gm`, which holds `m`'s and `n`'s limbs together or
    /// `L`, whichever is more. The value is below `n²`, so its low `L`
    /// limbs hold it and the rest are zero.
    fn g_to_the(&self, m: &[u64], gm: &mut [u64]) {
        let n = self.pk.n.limbs();
        let product = m.len() + n.len();
        mul_into(&mut gm[..product], m, n);
        gm[product..].fill(0);
        for limb in gm.iter_mut() {
            let (sum, carry) = limb.overflowing_add(1);
            *limb = sum;
            if !carry {
                break;
            }
        }
    }

    /// Packs `values` (at most `layout.slots()` of them; the rest of the
    /// slots pack as zeros) through `codec` and forms `g^m` in lane `lane`
    /// of `scratch`, ready for [`PaillierEncryptor::finish`].
    pub(crate) fn stage(
        &self,
        values: &[f64],
        layout: &PackingLayout,
        codec: &FixedPoint,
        lane: usize,
        scratch: &mut EncryptScratch,
    ) -> Result<()> {
        let EncryptScratch { plain, gms, gm_width, .. } = scratch;
        plain.resize(layout.plain_limbs(), 0);
        plain.fill(0);
        let encoded =
            (0..layout.slots()).map(|i| values.get(i).map_or(Ok(0), |&v| codec.encode(v)));
        layout.pack_into(encoded, plain)?;
        // The packed plaintext is below 2^(key_bits − 1) ≤ n.
        let top = plain.iter().rposition(|&limb| limb != 0).map_or(0, |i| i + 1);
        *gm_width = (plain.len() + self.pk.n.limbs().len()).max(self.pk.n_squared.limbs());
        gms.resize(LANES * *gm_width, 0);
        self.g_to_the(&plain[..top], &mut gms[lane * *gm_width..(lane + 1) * *gm_width]);
        Ok(())
    }

    /// The ciphertexts of lanes `0..live` of `scratch` — the `g^m` of
    /// [`PaillierEncryptor::stage`] times the noise factors of
    /// [`NoisePool::take_into`] — appended to `out`: one scalar kernel
    /// product each, and each ciphertext one allocation. (Finishing eight
    /// at a time on the lanes measured no faster: the radix conversions
    /// in and out cost what the lanes save.)
    pub(crate) fn finish(
        &self,
        live: usize,
        scratch: &EncryptScratch,
        out: &mut Vec<PaillierCiphertext>,
    ) {
        let (l, w) = (self.pk.n_squared.limbs(), scratch.gm_width);
        for lane in 0..live {
            let mut c = vec![0u64; l];
            let gm = &scratch.gms[lane * w..lane * w + l];
            self.pk.n_squared.mul(&mut c, &scratch.noise[lane * l..(lane + 1) * l], gm);
            out.push(PaillierCiphertext(BigUint::from_limbs(c)));
        }
    }

    /// Convenience: derive the seeded noise factor and encrypt in one call.
    ///
    /// # Errors
    /// Returns [`Error::PlaintextOutOfRange`] if `m >= n`.
    pub fn encrypt_seeded(&self, m: &BigUint, seed: u64) -> Result<PaillierCiphertext> {
        self.encrypt_with_noise(m, &self.noise_for_seed(seed))
    }
}

/// A seeded stream of noise indices.
///
/// The pool owns no randomness and caches nothing: index `j` seeds
/// [`NoisePool::seed_for`]`(j) = split_seed(pool_seed, j)`, and a caller
/// reserves a contiguous run of indices with one atomic add. Factor `j` is
/// `encryptor.noise_for_seed(seed_for(j))`, so a ciphertext depends only
/// on the order in which callers *reserve* indices — never on which
/// thread computed it or on which kernel.
#[derive(Debug)]
pub struct NoisePool {
    seed: u64,
    /// Next unreserved index; reservations are contiguous and ordered by
    /// call sequence, which is what makes pooled output deterministic.
    cursor: AtomicU64,
}

/// Reusable limb buffers for one lane batch of encryptions: noise
/// exponents and factors, the packed plaintext and `g^m`.
#[derive(Clone, Debug, Default)]
pub(crate) struct EncryptScratch {
    exps: Vec<u64>,
    pow: MontScratch,
    /// The batch's noise factors, `L` limbs each, after
    /// [`NoisePool::take_into`].
    noise: Vec<u64>,
    plain: Vec<u64>,
    /// Each lane's `g^m`, `gm_width` limbs apart.
    gms: Vec<u64>,
    gm_width: usize,
}

impl NoisePool {
    /// Creates a stream over `seed`, with no index reserved.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        NoisePool { seed, cursor: AtomicU64::new(0) }
    }

    /// The seed for index `j` (pure).
    #[must_use]
    pub fn seed_for(&self, index: u64) -> u64 {
        vfps_par::split_seed(self.seed, index)
    }

    /// Reserves `count` consecutive indices, returning the first.
    pub fn reserve(&self, count: usize) -> u64 {
        // Relaxed: the cursor publishes no other data. Every add lands in
        // the atomic's one modification order, so runs never overlap.
        self.cursor.fetch_add(count as u64, Ordering::Relaxed)
    }

    /// The Paillier noise factors for the reserved indices
    /// `first..first + count` (at most [`LANES`]) into `scratch.noise`, `L`
    /// limbs each, computed on `kernel` as one batch. No allocation once
    /// `scratch` is warm.
    ///
    /// # Panics
    /// Panics on more than [`LANES`] indices.
    pub(crate) fn take_into(
        &self,
        enc: &PaillierEncryptor,
        first: u64,
        count: usize,
        kernel: Kernel,
        scratch: &mut EncryptScratch,
    ) {
        assert!(count <= LANES, "{count} noise factors for one lane batch");
        let EncryptScratch { exps, pow, noise, .. } = scratch;
        noise.resize(LANES * enc.pk.n_squared.limbs(), 0);
        let mut seeds = [0u64; LANES];
        for (i, seed) in seeds[..count].iter_mut().enumerate() {
            *seed = self.seed_for(first + i as u64);
        }
        enc.noise_into(&seeds[..count], kernel, exps, pow, noise);
    }

    /// [`NoisePool::take_into`] of any number of indices, as residues.
    #[cfg(test)]
    fn take(
        &self,
        enc: &PaillierEncryptor,
        first: u64,
        count: usize,
        kernel: Kernel,
    ) -> Vec<MontResidue> {
        let l = enc.pk.n_squared.limbs();
        let mut scratch = EncryptScratch::default();
        let mut out = Vec::with_capacity(count);
        for start in (0..count).step_by(LANES) {
            let batch = LANES.min(count - start);
            self.take_into(enc, first + start as u64, batch, kernel, &mut scratch);
            out.extend(scratch.noise.chunks_exact(l).take(batch).map(|f| MontResidue(f.to_vec())));
        }
        out
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

    /// The batched CRT path — lane or scalar branch powers, then the limb
    /// tail with `L` as a truncated product — against the division-based
    /// `decrypt` and the oracle, on every kernel and at widths where `p`
    /// and `q` have the same limb count and where they differ (129 bits:
    /// a one-limb `p`, a two-limb `q`), for 1–8 live lanes, with the
    /// non-units `n` and `n² − n` among the ciphertexts.
    #[test]
    fn lane_decrypt_matches_the_oracle_at_every_width() {
        for bits in [64usize, 128, 129, 130, 256, 512] {
            let kp = keypair(bits);
            let mut rng = StdRng::seed_from_u64(30 + bits as u64);
            let n = kp.public.modulus();
            let mut cts: Vec<BigUint> = residues(&kp, &mut rng)
                .into_iter()
                .map(|m| kp.public.encrypt(&m, &mut rng).unwrap().0)
                .collect();
            cts.extend([n.clone(), n.square().sub(n)]);
            let mut scratch = CrtScratch::default();
            let mut pow = MontScratch::default();
            let l = kp.private.plain_limbs();
            for kernel in Kernel::available() {
                for live in 1..=LANES {
                    for batch in cts.chunks(live) {
                        let refs: Vec<&BigUint> = batch.iter().collect();
                        let got = kp.private.decrypt_lanes(&refs, kernel, &mut scratch).to_vec();
                        for (c, plain) in batch.iter().zip(got.chunks_exact(l)) {
                            let want = kp.private.crt.decrypt(c, &mut pow);
                            let c = PaillierCiphertext(c.clone());
                            assert_eq!(BigUint::from_limbs(plain.to_vec()), want, "{bits} bits");
                            if c.0.gcd(n).is_one() {
                                assert_eq!(want, kp.private.decrypt_plain(&c), "{bits} bits");
                            }
                        }
                    }
                }
            }
        }
    }

    /// The n-ary products against division-based products on every
    /// kernel, for 1–16 operands (some narrower than `n²`'s limbs) and
    /// 1–17 groups (lane batches short, full and with a scalar tail).
    #[test]
    fn products_match_division() {
        for bits in [64usize, 128, 256, 512] {
            let kp = keypair(bits);
            let mut rng = StdRng::seed_from_u64(40 + bits as u64);
            let pk = &kp.public;
            let mut cts: Vec<PaillierCiphertext> = (0..40)
                .map(|i| pk.encrypt(&BigUint::from_u64(i * 1000 + 7), &mut rng).unwrap())
                .collect();
            cts.push(PaillierCiphertext(BigUint::from_u64(3)));
            let mut scratch = ProductScratch::default();
            for kernel in Kernel::available() {
                for (k, groups) in [(1usize, 9usize), (2, 17), (3, 8), (4, 3), (16, 2), (5, 1)] {
                    let operand = |j: usize, g: usize| &cts[(7 * j + 3 * g + k) % cts.len()];
                    let mut got = Vec::new();
                    pk.products(k, groups, operand, kernel, &mut scratch, &mut got);
                    let want: Vec<PaillierCiphertext> = (0..groups)
                        .map(|g| {
                            PaillierCiphertext((1..k).fold(operand(0, g).0.clone(), |acc, j| {
                                acc.mul_mod(&operand(j, g).0, pk.modulus_squared())
                            }))
                        })
                        .collect();
                    assert_eq!(got, want, "{bits} bits, {kernel:?}, {k} operands, {groups} groups");
                }
            }
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
        for (d, inv) in [(p, &crt.p_inv_low), (q, &crt.q_inv_low)] {
            let r = BigUint::one().shl(64 * d.limbs().len());
            assert!(d.mul(&BigUint::from_limbs(inv.clone())).rem(&r).is_one(), "d⁻¹ mod 2^64k");
        }
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

    /// A take of reserved indices, on every kernel and across lane
    /// batches, is the scalar factor of each index's seed.
    #[test]
    fn noise_pool_takes_are_the_seeded_factors_on_every_kernel() {
        let kp = keypair(128);
        let mut rng = StdRng::seed_from_u64(22);
        let enc = PaillierEncryptor::new(&kp.public, &mut rng);
        for kernel in Kernel::available() {
            let noise = NoisePool::new(777);
            assert_eq!(noise.reserve(3), 0);
            let start = noise.reserve(12);
            let want: Vec<MontResidue> =
                (start..start + 12).map(|j| enc.noise_for_seed(noise.seed_for(j))).collect();
            assert_eq!(noise.take(&enc, start, 12, kernel), want, "{kernel:?}");
        }
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

    #[test]
    fn noise_bits_are_half_the_key_with_a_floor() {
        let mut rng = StdRng::seed_from_u64(23);
        let wide = PaillierEncryptor::new(&keypair(256).public, &mut rng);
        assert_eq!(wide.noise_bits(), 128);
        let narrow = PaillierEncryptor::new(&keypair(96).public, &mut rng);
        assert_eq!(narrow.noise_bits(), MIN_NOISE_BITS);
    }

    #[test]
    fn encrypt_with_noise_is_encrypt_seeded_in_two_steps() {
        let kp = keypair(128);
        let enc = PaillierEncryptor::new(&kp.public, &mut StdRng::seed_from_u64(24));
        let m = BigUint::from_u64(2718);
        for seed in [0u64, 5, u64::MAX] {
            let noise = enc.noise_for_seed(seed);
            let c = enc.encrypt_with_noise(&m, &noise).unwrap();
            assert_eq!(c, enc.encrypt_seeded(&m, seed).unwrap(), "seed {seed}");
            assert_eq!(kp.private.decrypt(&c), m);
        }
        let noise = enc.noise_for_seed(1);
        let too_big = kp.public.modulus().clone();
        assert!(matches!(
            enc.encrypt_with_noise(&too_big, &noise),
            Err(Error::PlaintextOutOfRange)
        ));
    }

    #[test]
    fn noise_pool_seeds_are_pure_in_pool_seed_and_index() {
        let a = NoisePool::new(31);
        let _ = a.reserve(5);
        let b = NoisePool::new(31);
        for j in [0u64, 1, 4, 1 << 40] {
            assert_eq!(a.seed_for(j), b.seed_for(j), "reserving moves no seed");
            assert_ne!(a.seed_for(j), NoisePool::new(32).seed_for(j));
        }
        assert_ne!(a.seed_for(0), a.seed_for(1));
    }
}
