//! Montgomery-form modular arithmetic for odd moduli.
//!
//! Paillier spends virtually all of its time in `mod_pow` with an odd
//! modulus (`n²` when encrypting, `p²`/`q²` when decrypting, a prime
//! candidate in Miller–Rabin); Montgomery reduction replaces each
//! division-based reduction with multiply-accumulate passes.
//!
//! There is one kernel, `mont_mul`: the product and its reduction fused
//! limb by limb, written straight into caller-owned limbs — no heap
//! traffic and no double-width intermediate per product.
//! [`MontgomeryCtx::mod_pow_with`] walks the exponent left to right in
//! fixed [`WINDOW_BITS`]-bit windows over it, and [`FixedBaseWindow::pow`]
//! multiplies its precomputed table entries with it.

use super::BigUint;

/// Exponent window width of both exponentiations here. A fresh-base
/// `mod_pow` of `b` bits costs `b` squarings plus `2^w − 2` products to
/// build the table and at most `b / w` to use it: at the 128–512-bit
/// exponents Paillier decrypts with, `w = 4` (14 + `b`/4) beats both
/// `w = 3` (6 + `b`/3) and `w = 5` (30 + `b`/5) up to ≈ 320 bits and is
/// within 7 % of `w = 5` at 512. It also divides 64, so a window never
/// straddles two limbs.
pub const WINDOW_BITS: usize = 4;

/// Non-zero digits per window (table entries per window position).
const DIGITS: usize = (1 << WINDOW_BITS) - 1;

/// `out = a · b · R⁻¹ mod m` for `L`-limb `a, b < m` and `R = 2^(64·L)`,
/// with `n0_inv = −m⁻¹ mod 2^64` (finely integrated operand scanning: row
/// `i` adds `a · b[i]` and the multiple `u · m` that clears the low limb in
/// the same pass, shifting the accumulator down one limb as it goes).
///
/// Squarings go through here too (`b = a`). A dedicated squaring — the
/// cross products once, doubled, then a separate reduction — saves a
/// quarter of the limb products but pays a second pass and a
/// double-width buffer: measured against this kernel it ties at 4 limbs,
/// loses at 2 and 8, and wins 12 % at 16.
#[inline(always)]
fn mont_mul(out: &mut [u64], a: &[u64], b: &[u64], m: &[u64], n0_inv: u64) {
    let l = m.len();
    assert!(l > 0 && out.len() == l && a.len() == l && b.len() == l);
    out.fill(0);
    // The accumulator is `out` plus one limb, `top`; it stays below 2m.
    let mut top = 0u64;
    for &bi in b {
        let s = u128::from(out[0]) + u128::from(a[0]) * u128::from(bi);
        let u = (s as u64).wrapping_mul(n0_inv);
        let r = u128::from(s as u64) + u128::from(u) * u128::from(m[0]);
        let (mut carry_ab, mut carry_um) = ((s >> 64) as u64, (r >> 64) as u64);
        for j in 1..l {
            let s = u128::from(out[j]) + u128::from(a[j]) * u128::from(bi) + u128::from(carry_ab);
            carry_ab = (s >> 64) as u64;
            let r = u128::from(s as u64) + u128::from(u) * u128::from(m[j]) + u128::from(carry_um);
            carry_um = (r >> 64) as u64;
            out[j - 1] = r as u64;
        }
        let s = u128::from(top) + u128::from(carry_ab) + u128::from(carry_um);
        out[l - 1] = s as u64;
        top = (s >> 64) as u64;
    }
    if top != 0 || !less_than(out, m) {
        sub_in_place(out, m);
    }
}

/// Precomputed context for Montgomery arithmetic modulo an odd `m`.
#[derive(Clone, Debug)]
pub struct MontgomeryCtx {
    modulus: BigUint,
    /// `-m⁻¹ mod 2^64`.
    n0_inv: u64,
    /// `R² mod m` with `R = 2^(64·L)`, as `L` limbs: enters Montgomery form.
    r_squared: Vec<u64>,
    /// The integer 1 as `L` limbs: leaves Montgomery form.
    one: Vec<u64>,
}

/// Reusable limb buffers for [`MontgomeryCtx::mod_pow_with`]. One scratch
/// serves contexts of any width (buffers are resized, never read before
/// being overwritten), so a loop over many exponentiations allocates once.
#[derive(Clone, Debug, Default)]
pub struct MontScratch {
    /// `base^d · R mod m` for `d` in `1..=DIGITS`, `L` limbs each.
    table: Vec<u64>,
    /// The running power, `L` limbs.
    acc: Vec<u64>,
    /// Where the next product lands before it becomes `acc`, `L` limbs.
    next: Vec<u64>,
}

impl MontgomeryCtx {
    /// Builds a context. Returns `None` for even or zero moduli.
    #[must_use]
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_zero() || modulus.is_even() {
            return None;
        }
        let l = modulus.limbs().len();
        let n0_inv = inv_mod_2_64(modulus.limbs()[0]).wrapping_neg();
        // R² mod m via shifting (2·64·L doublings of 1 mod m would be slow;
        // shift in one go and reduce).
        let r_squared = padded(&BigUint::one().shl(2 * 64 * l).rem(modulus), l);
        let one = padded(&BigUint::one(), l);
        Some(MontgomeryCtx { modulus: modulus.clone(), n0_inv, r_squared, one })
    }

    fn limbs(&self) -> usize {
        self.modulus.limbs().len()
    }

    /// `out = a · b · R⁻¹ mod m`: [`mont_mul`], instantiated with constant
    /// trip counts at the widths Paillier keys of 128–1024 bits produce
    /// (`p²` and `n²` are 2–16 and 4–32 limbs) so those loops unroll, and
    /// with run-time ones at any other width.
    fn mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
        let m = self.modulus.limbs();
        macro_rules! at_width {
            ($l:literal) => {
                mont_mul(&mut out[..$l], &a[..$l], &b[..$l], &m[..$l], self.n0_inv)
            };
        }
        match m.len() {
            2 => at_width!(2),
            4 => at_width!(4),
            8 => at_width!(8),
            16 => at_width!(16),
            _ => mont_mul(out, a, b, m, self.n0_inv),
        }
    }

    /// Enters Montgomery form: `out = x · R mod m`; `padded` is `L` limbs of
    /// scratch.
    fn to_mont(&self, x: &BigUint, out: &mut [u64], padded: &mut [u64]) {
        let reduced;
        let x = if x < &self.modulus {
            x
        } else {
            reduced = x.rem(&self.modulus);
            &reduced
        };
        let (low, high) = padded.split_at_mut(x.limbs().len());
        low.copy_from_slice(x.limbs());
        high.fill(0);
        self.mul(out, padded, &self.r_squared);
    }

    /// Leaves Montgomery form: `a · 1 · R⁻¹ mod m`, through `out`.
    fn leave_mont(&self, a: &[u64], out: &mut [u64]) -> BigUint {
        self.mul(out, a, &self.one);
        BigUint::from_limbs(out.to_vec())
    }

    /// `base^exp mod m` with fresh buffers; see
    /// [`MontgomeryCtx::mod_pow_with`].
    #[must_use]
    pub fn mod_pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.mod_pow_with(base, exp, &mut MontScratch::default())
    }

    /// `base^exp mod m`, left to right over [`WINDOW_BITS`]-bit windows of
    /// the exponent: `2^w − 2` products build `base^1..base^(2^w − 1)`, then
    /// each window costs `w` squarings and, when its digit is non-zero, one
    /// product. With a warm `scratch` the only allocation is the result.
    #[must_use]
    pub fn mod_pow_with(
        &self,
        base: &BigUint,
        exp: &BigUint,
        scratch: &mut MontScratch,
    ) -> BigUint {
        if self.modulus.is_one() {
            return BigUint::zero();
        }
        if exp.is_zero() {
            return BigUint::one();
        }
        let l = self.limbs();
        let MontScratch { table, acc, next } = scratch;
        table.resize(DIGITS * l, 0);
        acc.resize(l, 0);
        next.resize(l, 0);
        self.to_mont(base, &mut table[..l], next);
        for d in 1..DIGITS {
            let (done, rest) = table.split_at_mut(d * l);
            self.mul(&mut rest[..l], &done[(d - 1) * l..], &done[..l]);
        }
        let entry = |digit: usize| &table[(digit - 1) * l..digit * l];
        let windows = exp.bits().div_ceil(WINDOW_BITS);
        // The top window holds the exponent's top bit, so its digit is ≥ 1.
        acc.copy_from_slice(entry(window_digit(exp, windows - 1)));
        for j in (0..windows - 1).rev() {
            for _ in 0..WINDOW_BITS {
                self.mul(next, acc, acc);
                std::mem::swap(acc, next);
            }
            let digit = window_digit(exp, j);
            if digit != 0 {
                self.mul(next, acc, entry(digit));
                std::mem::swap(acc, next);
            }
        }
        self.leave_mont(acc, next)
    }
}

/// Digit `j` of `exp` in base `2^WINDOW_BITS` (zero past the top limb).
fn window_digit(exp: &BigUint, j: usize) -> usize {
    let bit = j * WINDOW_BITS;
    exp.limbs().get(bit / 64).map_or(0, |limb| (limb >> (bit % 64)) as usize & DIGITS)
}

/// The limbs of `x` zero-extended to `l`.
fn padded(x: &BigUint, l: usize) -> Vec<u64> {
    let mut limbs = x.limbs().to_vec();
    limbs.resize(l, 0);
    limbs
}

/// Fixed-base modular exponentiation with a precomputed window table.
///
/// For a base `h` that is reused across many exponentiations (the Paillier
/// noise base `h = r₀ⁿ mod n²`), precompute `h^(d·2^(w·j))` in Montgomery
/// form for every window position `j` and digit `d ∈ [1, 2^w)`. An
/// exponentiation then costs one Montgomery product per *non-zero* window
/// of the exponent — about `exp_bits / w` products, with no squarings at
/// all — versus `exp_bits` squarings plus `exp_bits / w` products on a
/// fresh base. Table construction costs `2^w − 1` products per window,
/// once.
#[derive(Clone, Debug)]
pub struct FixedBaseWindow {
    ctx: MontgomeryCtx,
    /// Entry `(j, d)` — `base^(d · 2^(w·j)) · R mod m` for `d` in `1..2^w` —
    /// is the `L` limbs at `(j · DIGITS + d − 1) · L`.
    table: Vec<u64>,
    max_exp_bits: usize,
}

impl FixedBaseWindow {
    /// Precomputes the window table for `base` modulo the odd `modulus`,
    /// covering exponents up to `max_exp_bits` bits. Returns `None` for
    /// even or zero moduli.
    #[must_use]
    pub fn new(base: &BigUint, modulus: &BigUint, max_exp_bits: usize) -> Option<Self> {
        let ctx = MontgomeryCtx::new(modulus)?;
        let l = ctx.limbs();
        let windows = max_exp_bits.div_ceil(WINDOW_BITS).max(1);
        let mut table = vec![0u64; windows * DIGITS * l];
        // `cur` = base^(2^(w·j)) in Montgomery form for the current window.
        let (mut cur, mut next) = (vec![0u64; l], vec![0u64; l]);
        ctx.to_mont(base, &mut cur, &mut next);
        for row in table.chunks_exact_mut(DIGITS * l) {
            row[..l].copy_from_slice(&cur);
            for d in 1..DIGITS {
                let (done, rest) = row.split_at_mut(d * l);
                ctx.mul(&mut rest[..l], &done[(d - 1) * l..], &cur);
            }
            // Advance to the next window: cur^(2^w) = cur^(2^w − 1) · cur.
            ctx.mul(&mut next, &row[(DIGITS - 1) * l..], &cur);
            std::mem::swap(&mut cur, &mut next);
        }
        Some(FixedBaseWindow { ctx, table, max_exp_bits })
    }

    /// The largest exponent width (in bits) the table covers.
    #[must_use]
    pub fn max_exp_bits(&self) -> usize {
        self.max_exp_bits
    }

    /// `base^exp mod m` from the precomputed table.
    ///
    /// # Panics
    /// Panics if `exp` is wider than the table was built for.
    #[must_use]
    pub fn pow(&self, exp: &BigUint) -> BigUint {
        assert!(
            exp.bits() <= self.max_exp_bits,
            "exponent of {} bits exceeds the {}-bit window table",
            exp.bits(),
            self.max_exp_bits
        );
        let l = self.ctx.limbs();
        let (mut acc, mut next) = (Vec::new(), vec![0u64; l]);
        for (j, row) in self.table.chunks_exact(DIGITS * l).enumerate() {
            let digit = window_digit(exp, j);
            if digit == 0 {
                continue;
            }
            let entry = &row[(digit - 1) * l..digit * l];
            if acc.is_empty() {
                acc.extend_from_slice(entry);
            } else {
                self.ctx.mul(&mut next, &acc, entry);
                std::mem::swap(&mut acc, &mut next);
            }
        }
        if acc.is_empty() {
            return BigUint::one().rem(&self.ctx.modulus);
        }
        self.ctx.leave_mont(&acc, &mut next)
    }
}

/// Inverse of an odd `x` modulo 2^64 by Newton–Hensel lifting.
fn inv_mod_2_64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x; // correct mod 2^3 (x odd ⇒ x·x ≡ 1 mod 8)
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    inv
}

fn less_than(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

fn sub_in_place(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *x = d2;
        borrow = u64::from(b1) + u64::from(b2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn inv_mod_2_64_is_inverse() {
        for x in [1u64, 3, 5, 0xdead_beef | 1, u64::MAX] {
            assert_eq!(x.wrapping_mul(inv_mod_2_64(x)), 1, "x={x}");
        }
    }

    #[test]
    fn rejects_even_or_zero_modulus() {
        assert!(MontgomeryCtx::new(&BigUint::from_u64(10)).is_none());
        assert!(MontgomeryCtx::new(&BigUint::zero()).is_none());
        assert!(MontgomeryCtx::new(&BigUint::from_u64(9)).is_some());
    }

    #[test]
    fn matches_plain_mod_pow_small() {
        let m = BigUint::from_u64(1_000_000_007);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        for (b, e) in [(2u64, 10u64), (12345, 67890), (999_999_999, 3)] {
            let base = BigUint::from_u64(b);
            let exp = BigUint::from_u64(e);
            assert_eq!(ctx.mod_pow(&base, &exp), base.mod_pow_plain(&exp, &m), "{b}^{e}");
        }
    }

    #[test]
    fn matches_plain_mod_pow_large_random() {
        let mut rng = StdRng::seed_from_u64(5);
        for bits in [128usize, 384, 512] {
            let mut m = BigUint::random_bits(&mut rng, bits);
            if m.is_even() {
                m = m.add_u64(1);
            }
            let ctx = MontgomeryCtx::new(&m).unwrap();
            for _ in 0..3 {
                let base = BigUint::random_below(&mut rng, &m);
                let exp = BigUint::random_bits(&mut rng, bits / 2);
                assert_eq!(ctx.mod_pow(&base, &exp), base.mod_pow_plain(&exp, &m), "bits={bits}");
            }
        }
    }

    #[test]
    fn edge_exponents() {
        let m = BigUint::from_u64(101);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let base = BigUint::from_u64(7);
        assert!(ctx.mod_pow(&base, &BigUint::zero()).is_one());
        assert_eq!(ctx.mod_pow(&base, &BigUint::one()).to_u64(), Some(7));
        assert!(ctx.mod_pow(&BigUint::zero(), &BigUint::from_u64(5)).is_zero());
    }

    fn odd_modulus(rng: &mut StdRng, limbs: usize) -> BigUint {
        let m = BigUint::random_bits(rng, limbs * 64);
        if m.is_even() {
            m.add_u64(1)
        } else {
            m
        }
    }

    /// The windowed walk against the division-based oracle at every limb
    /// count Paillier meets (1 = a 64-bit key's `p²`, 16 = a 1024-bit
    /// key's), on the exponents that sit on window seams: empty, a single
    /// digit, a full first window, the first bit of the second, all-ones
    /// (every digit 15) and random. One scratch serves every width in turn.
    #[test]
    fn windowed_mod_pow_matches_plain_at_every_width() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut scratch = MontScratch::default();
        for limbs in (1..=16).chain([3, 1]) {
            let m = odd_modulus(&mut rng, limbs);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let all_ones = BigUint::one().shl(limbs * 64).sub(&BigUint::one());
            let exps = [
                BigUint::zero(),
                BigUint::one(),
                BigUint::from_u64((1 << WINDOW_BITS) - 1),
                BigUint::from_u64(1 << WINDOW_BITS),
                all_ones,
                BigUint::random_bits(&mut rng, limbs * 64),
                BigUint::random_bits(&mut rng, limbs * 32 + 3),
            ];
            // A reduced base, one above the modulus, and zero.
            let bases = [BigUint::random_below(&mut rng, &m), m.add_u64(2), BigUint::zero()];
            for base in &bases {
                for exp in &exps {
                    assert_eq!(
                        ctx.mod_pow_with(base, exp, &mut scratch),
                        base.mod_pow_plain(exp, &m),
                        "{limbs} limbs, {}-bit exponent",
                        exp.bits()
                    );
                }
            }
        }
    }

    /// The kernel against its definition, `a · b · R⁻¹ mod m` computed with
    /// division-based arithmetic — squarings (`b = a`) and the extremes
    /// `0` and `m − 1` included — at the unrolled widths and between them.
    #[test]
    fn product_matches_its_definition_at_every_width() {
        let mut rng = StdRng::seed_from_u64(29);
        for limbs in 1..=17 {
            let m = odd_modulus(&mut rng, limbs);
            let limbs = m.limbs().len();
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let r_inv = BigUint::one().shl(64 * limbs).mod_inverse(&m).unwrap();
            let mut inputs = vec![BigUint::zero(), BigUint::one(), m.sub(&BigUint::one())];
            inputs.extend((0..3).map(|_| BigUint::random_below(&mut rng, &m)));
            let mut out = vec![0u64; limbs];
            for a in &inputs {
                for b in &inputs {
                    ctx.mul(&mut out, &padded(a, limbs), &padded(b, limbs));
                    let want = a.mul_mod(b, &m).mul_mod(&r_inv, &m);
                    assert_eq!(BigUint::from_limbs(out.clone()), want, "{limbs} limbs");
                }
            }
        }
    }

    #[test]
    fn fixed_base_window_matches_mod_pow() {
        let mut rng = StdRng::seed_from_u64(17);
        for bits in [64usize, 192, 512] {
            let mut m = BigUint::random_bits(&mut rng, bits);
            if m.is_even() {
                m = m.add_u64(1);
            }
            let base = BigUint::random_below(&mut rng, &m);
            let window = FixedBaseWindow::new(&base, &m, bits).unwrap();
            for exp_bits in [1usize, 3, bits / 2, bits - 1, bits] {
                let exp = BigUint::random_bits(&mut rng, exp_bits);
                assert_eq!(window.pow(&exp), base.mod_pow(&exp, &m), "bits={bits}/{exp_bits}");
            }
        }
    }

    #[test]
    fn fixed_base_window_edge_exponents() {
        let m = BigUint::from_u64(101);
        let base = BigUint::from_u64(7);
        let window = FixedBaseWindow::new(&base, &m, 64).unwrap();
        assert!(window.pow(&BigUint::zero()).is_one());
        assert_eq!(window.pow(&BigUint::one()).to_u64(), Some(7));
        assert_eq!(
            window.pow(&BigUint::from_u64(15)).to_u64(),
            base.mod_pow(&BigUint::from_u64(15), &m).to_u64()
        );
        assert!(FixedBaseWindow::new(&base, &BigUint::from_u64(10), 64).is_none());
    }
}
