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
//! fixed [`WINDOW_BITS`]-bit windows over it, [`FixedBaseWindow::pow`]
//! multiplies its precomputed table entries with it, and the single
//! products Paillier needs between exponentiations —
//! [`MontgomeryCtx::mod_mul`], [`MontgomeryCtx::mul_by`] — are one or two
//! calls of it, so no ciphertext meets a long division. Where the CPU has
//! AVX-512 IFMA, `bigint::lanes` runs the two batched exponentiations —
//! [`MontgomeryCtx::mod_pow_with`] at a shared exponent and
//! [`FixedBaseWindow::pow`] — eight at a time, with this kernel as its
//! fallback and its oracle.

use super::lanes::{Kernel, LaneCtx, LaneScratch, LaneWindow, LANES, MIN_LIVE_LANES};
use super::BigUint;

/// Exponent window width of the fresh-base exponentiation. A `mod_pow`
/// of `b` bits costs `b` squarings plus `2^w − 2` products to build the
/// table and at most `b / w` to use it: at the 128–512-bit exponents
/// Paillier decrypts with, `w = 4` (14 + `b`/4) beats both `w = 3`
/// (6 + `b`/3) and `w = 5` (30 + `b`/5) up to ≈ 320 bits and is within 7 %
/// of `w = 5` at 512.
pub const WINDOW_BITS: usize = 4;

/// Non-zero digits per fresh-base window.
const DIGITS: usize = (1 << WINDOW_BITS) - 1;

/// Window width of [`FixedBaseWindow`], whose table is built once per key
/// and walked once per ciphertext: a `b`-bit exponent costs `⌈b/w⌉`
/// products against `⌈b/w⌉ · (2^w − 1)` to build. At the 128-bit noise
/// exponents of a 256-bit key that is 26 products per noise factor
/// instead of `w = 4`'s 32, for 806 table products instead of 480
/// (+ ≈ 30 µs on a ≈ 1.1 ms set-up); `w = 6` would be 22 for 1 386. It
/// does not divide 64, so a digit can straddle two limbs
/// (`window_digit`).
pub const FIXED_WINDOW_BITS: usize = 5;

/// Non-zero digits per fixed-base window (table entries per position).
const FIXED_DIGITS: usize = (1 << FIXED_WINDOW_BITS) - 1;

/// `out = a · b · R⁻¹ mod m` for `L`-limb `a`, `b` and `R = 2^(64·L)`, with
/// `n0_inv = −m⁻¹ mod 2^64` (finely integrated operand scanning: row `i`
/// adds `a · b[i]` and the multiple `u · m` that clears the low limb in the
/// same pass, shifting the accumulator down one limb as it goes).
///
/// Only one operand has to be below `m`: the accumulator stays below
/// `a + m < 2R` whatever the operands, and the result before the final
/// subtraction is below `a·b/R + m`, so `out < m` whenever `a · b < R · m`.
/// With neither reduced, `out` is still congruent and still below `R` —
/// one more product by a reduced operand makes it canonical, which is what
/// lets [`MontgomeryCtx::mod_mul`] and [`MontgomeryCtx::to_mont`] take
/// anything that fits `L` limbs without comparing it with `m` first.
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
    // The accumulator is `out` plus one limb, `top`; it stays below 2R.
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
    /// `R³ mod m`: enters the high half of a double-width operand.
    r_cubed: Vec<u64>,
    /// The integer 1 as `L` limbs: leaves Montgomery form.
    one: Vec<u64>,
}

/// A residue in Montgomery form — `x · R mod m`, as `L` limbs — under the
/// context that produced it. A factor that is computed once and multiplied
/// into many plain values (a noise factor, a CRT constant) is kept in this
/// form: [`MontgomeryCtx::mul_by`] then costs one product and returns a
/// plain value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MontResidue(pub(crate) Vec<u64>);

/// Reusable limb buffers for [`MontgomeryCtx::mod_pow_with`] and the lane
/// kernel's batches. One scratch serves contexts of any width (buffers
/// are resized, never read before being overwritten), so a loop over many
/// exponentiations allocates once.
#[derive(Clone, Debug, Default)]
pub struct MontScratch {
    /// `base^d · R mod m` for `d` in `1..=DIGITS`, `L` limbs each.
    table: Vec<u64>,
    /// The running power, `L` limbs.
    acc: Vec<u64>,
    /// Where the next product lands before it becomes `acc`, `L` limbs.
    next: Vec<u64>,
    /// The lane kernel's rows.
    pub(crate) lanes: LaneScratch,
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
        // R³ = R² · R² · R⁻¹ is a product, not a second division:
        // Miller–Rabin builds a context per prime candidate.
        let mut r_cubed = vec![0u64; l];
        mont_mul(&mut r_cubed, &r_squared, &r_squared, modulus.limbs(), n0_inv);
        Some(MontgomeryCtx { modulus: modulus.clone(), n0_inv, r_squared, r_cubed, one })
    }

    /// The modulus `m`.
    #[must_use]
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// `L`, the limb count of the modulus and of every operand.
    pub(crate) fn limbs(&self) -> usize {
        self.modulus.limbs().len()
    }

    /// `out = a · b · R⁻¹ mod m`: [`mont_mul`], instantiated with constant
    /// trip counts at the widths Paillier keys of 128–1024 bits produce
    /// (`p²` and `n²` are 2–16 and 4–32 limbs) so those loops unroll, and
    /// with run-time ones at any other width.
    pub(crate) fn mul(&self, out: &mut [u64], a: &[u64], b: &[u64]) {
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

    /// Enters Montgomery form: `out = x · R mod m`; `pad` and `part` are
    /// `L` limbs of scratch each.
    ///
    /// An `x` of up to `L` limbs enters by one product by `R²`, reduced or
    /// not (see [`mont_mul`]). A double-width `x = lo + hi·R` — a ciphertext
    /// below `n²` against `p²` — enters by two and a conditional
    /// subtraction, `x·R = lo · R² · R⁻¹ + hi · R³ · R⁻¹`, where a long
    /// division cost three products' time. Only a wider `x` is divided.
    fn to_mont(&self, x: &BigUint, out: &mut [u64], pad: &mut [u64], part: &mut [u64]) {
        let l = self.limbs();
        let reduced;
        let x = if x.limbs().len() <= 2 * l {
            x.limbs()
        } else {
            reduced = x.rem(&self.modulus);
            reduced.limbs()
        };
        let (lo, hi) = x.split_at(x.len().min(l));
        zero_extend(pad, lo);
        self.mul(out, pad, &self.r_squared);
        if !hi.is_empty() {
            zero_extend(pad, hi);
            self.mul(part, pad, &self.r_cubed);
            let m = self.modulus.limbs();
            if add_in_place(out, part) || !less_than(out, m) {
                sub_in_place(out, m);
            }
        }
    }

    /// `x` in Montgomery form, for a factor that will be multiplied into
    /// many values with [`MontgomeryCtx::mul_by`]. Any `x` is accepted.
    #[must_use]
    pub fn enter(&self, x: &BigUint) -> MontResidue {
        let l = self.limbs();
        let (mut out, mut pad, mut part) = (vec![0u64; l], vec![0u64; l], vec![0u64; l]);
        self.to_mont(x, &mut out, &mut pad, &mut part);
        MontResidue(out)
    }

    /// A plain operand as the `L` limbs the kernel takes: `x`'s own when it
    /// has exactly `L` — a value spread over `[0, m)` almost always — and
    /// `buf` otherwise, holding `x` zero-extended, or `x mod m` when `x` is
    /// wider than the modulus. Nothing is compared with `m`: the kernel
    /// does not need it (see [`mont_mul`]).
    pub(crate) fn operand<'a>(&self, x: &'a BigUint, buf: &'a mut Vec<u64>) -> &'a [u64] {
        let l = self.limbs();
        if x.limbs().len() == l {
            return x.limbs();
        }
        buf.clear();
        if x.limbs().len() < l {
            buf.extend_from_slice(x.limbs());
        } else {
            buf.extend_from_slice(x.rem(&self.modulus).limbs());
        }
        buf.resize(l, 0);
        buf
    }

    /// `a · b mod m` for `a` in Montgomery form and any plain `b`: one
    /// product, `(a·R) · b · R⁻¹`.
    #[must_use]
    pub fn mul_by(&self, a: &MontResidue, b: &BigUint) -> BigUint {
        let mut buf = Vec::new();
        let mut out = vec![0u64; self.limbs()];
        self.mul(&mut out, &a.0, self.operand(b, &mut buf));
        BigUint::from_limbs(out)
    }

    /// `a · b mod m` without a division: `a · b · R⁻¹`, then a product by
    /// `R²` to cancel the `R⁻¹`. Operands of up to `L` limbs go straight
    /// in, reduced or not — the second product has a reduced operand, so
    /// its result is canonical (see `mont_mul`); only a wider operand is
    /// divided first, which keeps this as total as [`BigUint::mul_mod`].
    #[must_use]
    pub fn mod_mul(&self, a: &BigUint, b: &BigUint) -> BigUint {
        let l = self.limbs();
        let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
        let (mut product, mut out) = (vec![0u64; l], vec![0u64; l]);
        self.mul(&mut product, self.operand(a, &mut buf_a), self.operand(b, &mut buf_b));
        self.mul(&mut out, &product, &self.r_squared);
        BigUint::from_limbs(out)
    }

    /// `x^k mod m` for `k` in `1..=count`, by [`MontgomeryCtx::mod_mul`].
    pub(crate) fn powers(&self, x: &BigUint, count: usize) -> Vec<BigUint> {
        let x = x.rem(&self.modulus);
        std::iter::successors(Some(x.clone()), |power| Some(self.mod_mul(power, &x)))
            .take(count)
            .collect()
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
        let mut out = vec![0u64; self.limbs()];
        self.mod_pow_into(base, exp, scratch, &mut out);
        BigUint::from_limbs(out)
    }

    /// [`MontgomeryCtx::mod_pow_with`] into the `L` limbs of `out`, with no
    /// allocation once `scratch` is warm.
    pub(crate) fn mod_pow_into(
        &self,
        base: &BigUint,
        exp: &BigUint,
        scratch: &mut MontScratch,
        out: &mut [u64],
    ) {
        if self.modulus.is_one() {
            out.fill(0);
            return;
        }
        if exp.is_zero() {
            out.copy_from_slice(&self.one);
            return;
        }
        let l = self.limbs();
        let MontScratch { table, acc, next, .. } = scratch;
        table.resize(DIGITS * l, 0);
        acc.resize(l, 0);
        next.resize(l, 0);
        self.to_mont(base, &mut table[..l], next, acc);
        for d in 1..DIGITS {
            let (done, rest) = table.split_at_mut(d * l);
            self.mul(&mut rest[..l], &done[(d - 1) * l..], &done[..l]);
        }
        let entry = |digit: usize| &table[(digit - 1) * l..digit * l];
        let exp = exp.limbs();
        let windows = bits_of(exp).div_ceil(WINDOW_BITS);
        // The top window holds the exponent's top bit, so its digit is ≥ 1.
        acc.copy_from_slice(entry(window_digit(exp, windows - 1, WINDOW_BITS)));
        for j in (0..windows - 1).rev() {
            for _ in 0..WINDOW_BITS {
                self.mul(next, acc, acc);
                std::mem::swap(acc, next);
            }
            let digit = window_digit(exp, j, WINDOW_BITS);
            if digit != 0 {
                self.mul(next, acc, entry(digit));
                std::mem::swap(acc, next);
            }
        }
        self.mul(out, acc, &self.one);
    }
}

/// Digit `j` of `exp` in base `2^w` (zero past the top limb). When `w`
/// does not divide 64 a digit can straddle two limbs: its low bits are the
/// top of one, its high bits the bottom of the next.
pub(super) fn window_digit(limbs: &[u64], j: usize, w: usize) -> usize {
    let (limb, offset) = (j * w / 64, j * w % 64);
    let low = limbs.get(limb).map_or(0, |x| x >> offset);
    let high =
        if offset + w > 64 { limbs.get(limb + 1).map_or(0, |x| x << (64 - offset)) } else { 0 };
    (low | high) as usize & ((1 << w) - 1)
}

/// Significant bits of the little-endian `limbs` (0 for all zeros).
pub(crate) fn bits_of(limbs: &[u64]) -> usize {
    limbs
        .iter()
        .rposition(|&x| x != 0)
        .map_or(0, |top| top * 64 + 64 - limbs[top].leading_zeros() as usize)
}

/// The limbs of `x` zero-extended to `l`.
fn padded(x: &BigUint, l: usize) -> Vec<u64> {
    let mut limbs = x.limbs().to_vec();
    limbs.resize(l, 0);
    limbs
}

/// `dst = src`, zero-extended. `src` must not be longer than `dst`.
fn zero_extend(dst: &mut [u64], src: &[u64]) {
    let (low, high) = dst.split_at_mut(src.len());
    low.copy_from_slice(src);
    high.fill(0);
}

/// Fixed-base modular exponentiation with a precomputed window table.
///
/// For a base `h` that is reused across many exponentiations (the Paillier
/// noise base `h = r₀ⁿ mod n²`), precompute `h^(d·2^(w·j))` in Montgomery
/// form for every window position `j` and digit `d ∈ [1, 2^w)`, with
/// `w =` [`FIXED_WINDOW_BITS`]. An exponentiation then costs one Montgomery
/// product per *non-zero* window of the exponent — about `exp_bits / w`
/// products, with no squarings at all — versus `exp_bits` squarings plus
/// `exp_bits / w` products on a fresh base. Table construction costs
/// `2^w − 1` products per window, once.
#[derive(Clone, Debug)]
pub struct FixedBaseWindow {
    ctx: MontgomeryCtx,
    /// Entry `(j, d)` — `base^(d · 2^(w·j)) · R mod m` for `d` in `1..2^w` —
    /// is the `L` limbs at `(j · FIXED_DIGITS + d − 1) · L`.
    table: Vec<u64>,
    max_exp_bits: usize,
    /// The table again in the lane kernel's form, where this CPU has the
    /// lanes and the modulus a lane width.
    lanes: Option<LaneWindow>,
}

impl FixedBaseWindow {
    /// Precomputes the window table for `base` under `ctx` (a copy of the
    /// context its caller multiplies the powers with — building one costs
    /// a division, copying one does not), covering exponents up to
    /// `max_exp_bits` bits.
    #[must_use]
    pub fn new(base: &BigUint, ctx: MontgomeryCtx, max_exp_bits: usize) -> Self {
        let l = ctx.limbs();
        let windows = max_exp_bits.div_ceil(FIXED_WINDOW_BITS).max(1);
        let mut table = vec![0u64; windows * FIXED_DIGITS * l];
        // `cur` = base^(2^(w·j)) in Montgomery form for the current window.
        let (mut cur, mut next, mut part) = (vec![0u64; l], vec![0u64; l], vec![0u64; l]);
        ctx.to_mont(base, &mut cur, &mut next, &mut part);
        for row in table.chunks_exact_mut(FIXED_DIGITS * l) {
            row[..l].copy_from_slice(&cur);
            for d in 1..FIXED_DIGITS {
                let (done, rest) = row.split_at_mut(d * l);
                ctx.mul(&mut rest[..l], &done[(d - 1) * l..], &cur);
            }
            // Advance to the next window: cur^(2^w) = cur^(2^w − 1) · cur.
            ctx.mul(&mut next, &row[(FIXED_DIGITS - 1) * l..], &cur);
            std::mem::swap(&mut cur, &mut next);
        }
        let lanes = LaneCtx::new(ctx.modulus())
            .filter(|_| Kernel::detected() == Kernel::Ifma8)
            .map(|lane_ctx| {
                // The scalar product of `windows` copies of R mod m (the
                // lanes' R) is R^windows · R₆₄^(1 − windows): the lane
                // walk's way out into this kernel's form.
                let r = padded(&lane_ctx.r(), l);
                let mut exit = r.clone();
                for _ in 1..windows {
                    ctx.mul(&mut next, &exit, &r);
                    std::mem::swap(&mut exit, &mut next);
                }
                let mut one = vec![0u64; l];
                ctx.mul(&mut one, &ctx.r_squared, &ctx.one);
                LaneWindow::new(lane_ctx, &table, FIXED_WINDOW_BITS, &one, &exit)
            });
        FixedBaseWindow { ctx, table, max_exp_bits, lanes }
    }

    /// The largest exponent width (in bits) the table covers.
    #[must_use]
    pub fn max_exp_bits(&self) -> usize {
        self.max_exp_bits
    }

    /// `base^exp mod m` from the precomputed table, in Montgomery form:
    /// what it is multiplied into next pays one product
    /// ([`MontgomeryCtx::mul_by`]) where leaving the form and a modular
    /// product would pay a product, a schoolbook product and a division.
    ///
    /// # Panics
    /// Panics if `exp` is wider than the table was built for.
    #[must_use]
    pub fn pow(&self, exp: &BigUint) -> MontResidue {
        self.check_width(exp.limbs());
        let l = self.ctx.limbs();
        let (mut out, mut next) = (vec![0u64; l], vec![0u64; l]);
        self.pow_into(exp.limbs(), &mut out, &mut next);
        MontResidue(out)
    }

    /// [`FixedBaseWindow::pow`] of the exponent limbs `exp` into the `L`
    /// limbs of `out`, through the `L` limbs of `next`.
    fn pow_into(&self, exp: &[u64], out: &mut [u64], next: &mut [u64]) {
        let l = self.ctx.limbs();
        let mut started = false;
        for (j, row) in self.table.chunks_exact(FIXED_DIGITS * l).enumerate() {
            let digit = window_digit(exp, j, FIXED_WINDOW_BITS);
            if digit == 0 {
                continue;
            }
            let entry = &row[(digit - 1) * l..digit * l];
            if started {
                self.ctx.mul(next, out, entry);
                out.copy_from_slice(next);
            } else {
                out.copy_from_slice(entry);
                started = true;
            }
        }
        if !started {
            // base⁰ = 1, which enters as R² · 1 · R⁻¹.
            self.ctx.mul(out, &self.ctx.r_squared, &self.ctx.one);
        }
    }

    /// [`FixedBaseWindow::pow`] of up to [`LANES`] exponents, `stride`
    /// limbs apart in `exps`, into `out` (`L` limbs each, in order): on the
    /// lanes when `kernel` is [`Kernel::Ifma8`] and at least
    /// [`MIN_LIVE_LANES`] are live, on the scalar walk otherwise — the same
    /// limbs either way, and no allocation once `scratch` is warm.
    ///
    /// # Panics
    /// Panics on more than [`LANES`] exponents, or one wider than the
    /// table was built for.
    pub(crate) fn pow_batch(
        &self,
        exps: &[u64],
        stride: usize,
        kernel: Kernel,
        scratch: &mut MontScratch,
        out: &mut [u64],
    ) {
        let l = self.ctx.limbs();
        let count = exps.len() / stride;
        assert!(count <= LANES, "{count} exponents for {LANES} lanes");
        exps.chunks_exact(stride).for_each(|e| self.check_width(e));
        match &self.lanes {
            Some(lanes) if kernel == Kernel::Ifma8 && count >= MIN_LIVE_LANES => {
                lanes.pow_into(exps, stride, &mut scratch.lanes, &mut out[..count * l]);
            }
            _ => {
                scratch.next.resize(l, 0);
                for (exp, out) in exps.chunks_exact(stride).zip(out.chunks_exact_mut(l)) {
                    self.pow_into(exp, out, &mut scratch.next);
                }
            }
        }
    }

    fn check_width(&self, exp: &[u64]) {
        let bits = bits_of(exp);
        assert!(
            bits <= self.max_exp_bits,
            "exponent of {bits} bits exceeds the {}-bit window table",
            self.max_exp_bits
        );
    }
}

/// Inverse of an odd `x` modulo 2^64 by Newton–Hensel lifting.
pub(crate) fn inv_mod_2_64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x; // correct mod 2^3 (x odd ⇒ x·x ≡ 1 mod 8)
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    inv
}

/// `out = a · b mod 2^(64·k)` for `k = out.len()`, from the low `k` limbs
/// of `a` and `b`: the truncated product an exact division by an odd `d`
/// becomes once `d⁻¹ mod 2^(64·k)` is known.
pub(crate) fn mul_low(out: &mut [u64], a: &[u64], b: &[u64]) {
    let k = out.len();
    out.fill(0);
    for (i, &ai) in a[..k].iter().enumerate() {
        let mut carry = 0u128;
        for (o, &bj) in out[i..].iter_mut().zip(&b[..k - i]) {
            let t = u128::from(ai) * u128::from(bj) + u128::from(*o) + carry;
            *o = t as u64;
            carry = t >> 64;
        }
    }
}

pub(crate) fn less_than(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

/// `a += b`, returning the carry out of the top limb.
pub(crate) fn add_in_place(a: &mut [u64], b: &[u64]) -> bool {
    let mut carry = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (s1, c1) = x.overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(u64::from(carry));
        *x = s2;
        carry = c1 || c2;
    }
    carry
}

/// `a −= b`, wrapping past zero.
pub(crate) fn sub_in_place(a: &mut [u64], b: &[u64]) {
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

    /// Leaves Montgomery form: `(x·R) · 1 · R⁻¹`.
    fn leave(ctx: &MontgomeryCtx, x: &MontResidue) -> BigUint {
        ctx.mul_by(x, &BigUint::one())
    }

    /// `ctx.mod_mul` against the division-based `BigUint::mul_mod` at every
    /// limb count, over the extremes `0`, `1`, `m − 1`, random reduced
    /// operands — and the unreduced ones `add` can be handed through
    /// `PaillierCiphertext::from_biguint`: `m`, `m + 1`, the widest value
    /// that still fits the limbs (`R − 1`, straight into the kernel) and
    /// values one and several limbs wider (divided first).
    #[test]
    fn mod_mul_matches_division_at_every_width() {
        let mut rng = StdRng::seed_from_u64(31);
        for limbs in 1..=17 {
            let m = odd_modulus(&mut rng, limbs);
            let limbs = m.limbs().len();
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let r = BigUint::one().shl(64 * limbs);
            let mut inputs = vec![
                BigUint::zero(),
                BigUint::one(),
                m.sub(&BigUint::one()),
                m.clone(),
                m.add_u64(1),
                r.sub(&BigUint::one()),
                r.clone(),
                m.mul_u64(3).add(&BigUint::random_below(&mut rng, &m)),
                BigUint::random_bits(&mut rng, 64 * (limbs + 3)),
            ];
            inputs.extend((0..3).map(|_| BigUint::random_below(&mut rng, &m)));
            for a in &inputs {
                for b in &inputs {
                    assert_eq!(ctx.mod_mul(a, b), a.mul_mod(b, &m), "{limbs} limbs");
                }
            }
        }
    }

    /// `mul_by` takes any plain operand: reduced, unreduced within the
    /// limbs (straight into the kernel), or wider (divided first).
    #[test]
    fn mul_by_matches_division_at_every_width() {
        let mut rng = StdRng::seed_from_u64(37);
        for limbs in 1..=17 {
            let m = odd_modulus(&mut rng, limbs);
            let limbs = m.limbs().len();
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let all_ones = BigUint::one().shl(64 * limbs).sub(&BigUint::one());
            let factor = BigUint::random_below(&mut rng, &m);
            let entered = ctx.enter(&factor);
            assert_eq!(leave(&ctx, &entered), factor, "{limbs} limbs");
            for b in [
                BigUint::zero(),
                BigUint::one(),
                m.sub(&BigUint::one()),
                m.clone(),
                all_ones,
                BigUint::random_below(&mut rng, &m),
                BigUint::random_bits(&mut rng, 64 * (limbs + 2)),
            ] {
                assert_eq!(ctx.mul_by(&entered, &b), factor.mul_mod(&b, &m), "{limbs} limbs");
            }
        }
    }

    /// Entering Montgomery form from an operand up to twice the modulus'
    /// width (and past it) against reduce-by-division-then-enter: the
    /// values on the seams — `m`, `m + 1`, `m·R − 1` (the largest whose
    /// reduced halves still sum past `m`), the all-ones double width
    /// `2^(128·L) − 1` — and random ones whose high half is full, one limb
    /// short and two limbs short.
    #[test]
    fn double_width_entry_matches_division_at_every_width() {
        let mut rng = StdRng::seed_from_u64(41);
        for limbs in 1..=16 {
            let m = odd_modulus(&mut rng, limbs);
            let limbs = m.limbs().len();
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let r = BigUint::one().shl(64 * limbs);
            let mut xs = vec![
                BigUint::zero(),
                m.clone(),
                m.add_u64(1),
                r.sub(&BigUint::one()),
                r.clone(),
                m.mul(&r).sub(&BigUint::one()),
                BigUint::one().shl(128 * limbs).sub(&BigUint::one()),
                m.square().sub(&BigUint::one()),
                // Wider than double: the division fallback.
                BigUint::one().shl(128 * limbs),
                BigUint::random_bits(&mut rng, 64 * (2 * limbs + 2)),
            ];
            for short in 0..=2usize.min(limbs - 1) {
                xs.push(BigUint::random_bits(&mut rng, 64 * (2 * limbs - short)));
                xs.push(BigUint::random_bits(&mut rng, 64 * (2 * limbs - short) - 7));
            }
            for x in &xs {
                let entered = ctx.enter(x);
                assert_eq!(entered, ctx.enter(&x.rem(&m)), "{limbs} limbs, {} bits", x.bits());
                assert_eq!(leave(&ctx, &entered), x.rem(&m), "{limbs} limbs, {} bits", x.bits());
                // The path decryption takes: the exponentiation's own entry.
                let exp = BigUint::from_u64(3);
                assert_eq!(ctx.mod_pow(x, &exp), x.mod_pow_plain(&exp, &m), "{limbs} limbs");
            }
        }
    }

    #[test]
    fn window_digits_straddle_limbs() {
        // Bits 60..=68 set: at w = 5 digit 12 is bits 60–64, digit 13 bits
        // 65–69.
        let exp = BigUint::from_u128(0x1ff << 60);
        assert_eq!(window_digit(exp.limbs(), 11, 5), 0);
        assert_eq!(window_digit(exp.limbs(), 12, 5), 0b11111);
        assert_eq!(window_digit(exp.limbs(), 13, 5), 0b01111);
        assert_eq!(window_digit(exp.limbs(), 14, 5), 0);
        // w = 6: digit 10 is bits 60–65, digit 11 bits 66–71.
        assert_eq!(window_digit(exp.limbs(), 10, 6), 0b111111);
        assert_eq!(window_digit(exp.limbs(), 11, 6), 0b000111);
        // Past the top limb, and a digit whose high half is past it.
        assert_eq!(window_digit(exp.limbs(), 40, 5), 0);
        let top = BigUint::from_u64(0b101 << 61);
        assert_eq!(window_digit(top.limbs(), 12, 5), 0b1010);
        // w = 4 never straddles.
        assert_eq!(window_digit(exp.limbs(), 15, 4), 0xf);
        assert_eq!(window_digit(exp.limbs(), 16, 4), 0xf);
        assert_eq!(window_digit(exp.limbs(), 17, 4), 0x1);
    }

    /// The fixed-base table against the division-based oracle, on the
    /// exponents that sit on its window seams — with a `max_exp_bits` that
    /// is and is not a multiple of the window width.
    #[test]
    fn fixed_base_window_matches_mod_pow() {
        let w = FIXED_WINDOW_BITS;
        let mut rng = StdRng::seed_from_u64(17);
        for (limbs, max_exp_bits) in [(1usize, 70usize), (3, 100), (8, 128), (8, 130), (16, 257)] {
            let m = odd_modulus(&mut rng, limbs);
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let base = BigUint::random_below(&mut rng, &m);
            let window = FixedBaseWindow::new(&base, ctx.clone(), max_exp_bits);
            assert_eq!(window.max_exp_bits(), max_exp_bits);
            let mut exps = vec![
                BigUint::zero(),
                BigUint::one(),
                BigUint::from_u64((1 << w) - 1),
                BigUint::from_u64(1 << w),
                // Every digit at its maximum, the top window partly filled.
                BigUint::one().shl(max_exp_bits).sub(&BigUint::one()),
                BigUint::one().shl(max_exp_bits - 1),
                // One digit straddling the first limb boundary, alone.
                BigUint::from_u128(0x1ff << 60),
                BigUint::random_bits(&mut rng, max_exp_bits),
                BigUint::random_bits(&mut rng, max_exp_bits / 2),
            ];
            exps.extend((1..8).map(|i| BigUint::random_bits(&mut rng, i * max_exp_bits / 8)));
            for exp in &exps {
                assert_eq!(
                    leave(&ctx, &window.pow(exp)),
                    base.mod_pow_plain(exp, &m),
                    "{limbs} limbs, {max_exp_bits}-bit table, {}-bit exponent",
                    exp.bits()
                );
            }
        }
    }

    #[test]
    fn fixed_base_window_edge_exponents() {
        let m = BigUint::from_u64(101);
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let base = BigUint::from_u64(7);
        let window = FixedBaseWindow::new(&base, ctx.clone(), 64);
        assert!(leave(&ctx, &window.pow(&BigUint::zero())).is_one());
        assert_eq!(leave(&ctx, &window.pow(&BigUint::one())).to_u64(), Some(7));
        assert_eq!(
            leave(&ctx, &window.pow(&BigUint::from_u64(u64::MAX))),
            base.mod_pow_plain(&BigUint::from_u64(u64::MAX), &m)
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the 100-bit window table")]
    fn fixed_base_window_refuses_an_exponent_wider_than_its_table() {
        let m = BigUint::from_u64(1_000_000_007);
        let window =
            FixedBaseWindow::new(&BigUint::from_u64(5), MontgomeryCtx::new(&m).unwrap(), 100);
        let _ = window.pow(&BigUint::one().shl(100));
    }

    #[test]
    fn mod_pow_into_overwrites_out_and_reuses_scratch() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut m = BigUint::random_bits(&mut rng, 256);
        if m.is_even() {
            m = m.add_u64(1);
        }
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let mut scratch = MontScratch::default();
        let mut out = vec![u64::MAX; ctx.limbs()];
        for exp_bits in [1usize, 5, 6, 130] {
            let base = BigUint::random_below(&mut rng, &m);
            let exp = BigUint::random_bits(&mut rng, exp_bits);
            ctx.mod_pow_into(&base, &exp, &mut scratch, &mut out);
            assert_eq!(
                BigUint::from_limbs(out.clone()),
                base.mod_pow_plain(&exp, &m),
                "exp_bits={exp_bits}"
            );
        }
        ctx.mod_pow_into(&BigUint::from_u64(7), &BigUint::zero(), &mut scratch, &mut out);
        assert!(BigUint::from_limbs(out).is_one(), "x^0 = 1");
    }

    #[test]
    fn bits_of_counts_significant_bits() {
        assert_eq!(bits_of(&[]), 0);
        assert_eq!(bits_of(&[0, 0]), 0);
        assert_eq!(bits_of(&[1]), 1);
        assert_eq!(bits_of(&[u64::MAX, 0]), 64);
        assert_eq!(bits_of(&[0, 1, 0]), 65);
        assert_eq!(bits_of(&[0, 0, 1 << 63]), 192);
    }

    #[test]
    fn mul_low_is_the_product_truncated_to_out() {
        let a = [u64::MAX, 0x1234_5678_9abc_def0, 7];
        let b = [3, u64::MAX, 0x0fed_cba9_8765_4321];
        let full = BigUint::from_limbs(a.to_vec()).mul(&BigUint::from_limbs(b.to_vec()));
        for k in 1..=3 {
            let mut out = vec![u64::MAX; k];
            mul_low(&mut out, &a, &b);
            let mut want = full.limbs().to_vec();
            want.resize(k, 0);
            assert_eq!(out, want, "k={k}");
        }
    }

    #[test]
    fn mul_low_by_an_inverse_divides_exactly() {
        let d = [0xdead_beef_0000_0001u64, 0x55];
        let q = [0x0123_4567_89ab_cdefu64, 0x42];
        let mut prod = [0u64; 2];
        mul_low(&mut prod, &q, &d);
        // d^-1 mod 2^128 from its low limb's inverse, lifted once.
        let lo = inv_mod_2_64(d[0]);
        let mut t = [0u64; 2];
        mul_low(&mut t, &d, &[lo, 0]);
        let two_minus = {
            let mut x = [0u64, 0];
            sub_in_place(&mut x, &t);
            add_in_place(&mut x, &[2, 0]);
            x
        };
        let mut inv = [0u64; 2];
        mul_low(&mut inv, &[lo, 0], &two_minus);
        let mut back = [0u64; 2];
        mul_low(&mut back, &prod, &inv);
        assert_eq!(back, q);
    }

    #[test]
    fn limb_compare_add_and_sub_agree_with_biguint() {
        let a = [u64::MAX, 5];
        let b = [1u64, 5];
        assert!(less_than(&b, &a));
        assert!(!less_than(&a, &b));
        assert!(!less_than(&a, &a), "strict");
        let mut s = a;
        assert!(!add_in_place(&mut s, &b));
        assert_eq!(s, [0, 11], "carry crosses the limb");
        let mut top = [u64::MAX, u64::MAX];
        assert!(add_in_place(&mut top, &[1, 0]), "carry out of the top limb");
        assert_eq!(top, [0, 0]);
        sub_in_place(&mut s, &b);
        assert_eq!(s, a);
        let mut w = [0u64, 0];
        sub_in_place(&mut w, &[1, 0]);
        assert_eq!(w, [u64::MAX, u64::MAX], "wraps past zero");
    }
}
