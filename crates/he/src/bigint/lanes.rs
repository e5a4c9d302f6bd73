//! Eight Montgomery exponentiations at once, on AVX-512 IFMA.
//!
//! Paillier's two hot exponentiations — the CRT decrypt branches
//! `c^(p−1) mod p²` / `c^(q−1) mod q²` and the fixed-base noise
//! `h^x mod n²` — run here eight at a time, one per 64-bit lane of a
//! 512-bit register, when the CPU has `avx512f` and `avx512ifma`.
//! Everywhere else, and for any modulus width the lanes are not
//! instantiated at, the scalar kernel in `montgomery` runs them instead;
//! it is also the oracle the lanes are tested against. Both compute the
//! same integers, so every ciphertext and plaintext is byte-identical
//! whichever ran.
//!
//! A lane value is `N` limbs of 52 bits (radix `2^52`, the width
//! `vpmadd52{lo,hi}uq` multiplies), with `R = 2^(52·N)` and `4m < R`. The
//! one product is an *almost*-Montgomery product: operands below `2m`
//! give a result below `2m`, so no product pays a final subtraction; one
//! canonicalising subtraction happens when a value leaves lane form.
//!
//! This file is the only one that touches `std::arch`, target features or
//! `unsafe` in the crate (`ci/check_one_edge.sh`). The kernel indexes its
//! tables by exponent digits, as the scalar one does: it is no more
//! constant-time than that.

// Off x86_64 the kernels are stubs that never run, and nothing reads the
// lane constants.
#![cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]

use super::montgomery::{
    bits_of, inv_mod_2_64, window_digit, MontScratch, MontgomeryCtx, WINDOW_BITS,
};
use super::BigUint;
use std::sync::OnceLock;

/// Exponentiations per lane batch.
pub(crate) const LANES: usize = 8;

/// Fewest live lanes a batch runs on the lane kernel with; a smaller tail
/// runs on the scalar kernel. A lane batch costs the same however many of
/// its lanes are live. Measured on a 2-vCPU Xeon with IFMA, one costs
/// 1.3–1.6 scalar exponentiations for the CRT branches at 5–20 limbs and
/// 2.7–3.0 at 3, and 1.4–4.2 scalar noise factors at 5–20 limbs (the most
/// at 5): three live lanes are about where the lanes stop losing.
pub(crate) const MIN_LIVE_LANES: usize = 3;

/// Bits per lane limb.
const LIMB_BITS: usize = 52;

const MASK: u64 = (1 << LIMB_BITS) - 1;

/// Limb counts the lane kernel is instantiated at: `p²` and `n²` of 128-,
/// 256- and 512-bit keys, and `p²` of 1024-bit ones. Any other width runs
/// on the scalar kernel.
const WIDTHS: [usize; 4] = [3, 5, 10, 20];

/// Non-zero digits per fresh-base window, as in `MontgomeryCtx::mod_pow_with`.
const DIGITS: usize = (1 << WINDOW_BITS) - 1;

/// The kernel a batch of exponentiations runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Kernel {
    /// One exponentiation at a time on 64-bit limbs (`montgomery`).
    Scalar,
    /// Eight at a time on AVX-512 IFMA lanes (this module).
    Ifma8,
}

impl Kernel {
    /// The fastest kernel this CPU runs, detected once.
    pub(crate) fn detected() -> Kernel {
        static KERNEL: OnceLock<Kernel> = OnceLock::new();
        *KERNEL.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma") {
                return Kernel::Ifma8;
            }
            Kernel::Scalar
        })
    }

    /// Every kernel this CPU runs: the scalar one, and the lanes where
    /// CPUID has them.
    #[cfg(test)]
    pub(crate) fn available() -> Vec<Kernel> {
        let mut out = vec![Kernel::Scalar];
        if Kernel::detected() == Kernel::Ifma8 {
            out.push(Kernel::Ifma8);
        } else {
            println!("skipped: no avx512ifma");
        }
        out
    }

    /// The kernel's name in logs: `scalar` or `ifma8`.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Ifma8 => "ifma8",
        }
    }
}

/// Panics unless this CPU runs the lane kernel: every call into it checks
/// this first, so a `Kernel::Ifma8` handed in on another CPU is a panic,
/// never an illegal instruction.
fn assert_ifma() {
    assert_eq!(Kernel::detected(), Kernel::Ifma8, "the lane kernel needs avx512f and avx512ifma");
}

/// Lane constants for one odd modulus `m`, radix-52 limbs throughout:
/// built once where keys are built (`CrtParams::new`,
/// `FixedBaseWindow::new`), never per ciphertext, and not in
/// `MontgomeryCtx::new`, which prime search builds per candidate.
#[derive(Clone, Debug)]
pub(crate) struct LaneCtx {
    modulus: BigUint,
    /// `N`, one of [`WIDTHS`].
    limbs: usize,
    m: Vec<u64>,
    twice_m: Vec<u64>,
    /// `−m⁻¹ mod 2^52`.
    n0: u64,
    /// `R² mod m`: enters lane form.
    r2: Vec<u64>,
    /// `R³ mod m`: enters the high half of a double-width base.
    r3: Vec<u64>,
}

impl LaneCtx {
    /// The constants for `m`, or `None` when `m` is even, below 3, or
    /// needs a limb count the kernel is not instantiated at.
    pub(crate) fn new(m: &BigUint) -> Option<LaneCtx> {
        if m.is_even() || m.bits() < 2 {
            return None;
        }
        // The fewest limbs with 4m < R.
        let limbs = (m.bits() + 2).div_ceil(LIMB_BITS);
        if !WIDTHS.contains(&limbs) {
            return None;
        }
        let r_pow =
            |k: usize| radix52(BigUint::one().shl(k * LIMB_BITS * limbs).rem(m).limbs(), limbs);
        Some(LaneCtx {
            modulus: m.clone(),
            limbs,
            m: radix52(m.limbs(), limbs),
            twice_m: radix52(m.shl(1).limbs(), limbs),
            n0: inv_mod_2_64(m.limbs()[0]).wrapping_neg() & MASK,
            r2: r_pow(2),
            r3: r_pow(3),
        })
    }

    /// `R mod m` with `R = 2^(52·N)`.
    pub(crate) fn r(&self) -> BigUint {
        BigUint::one().shl(LIMB_BITS * self.limbs).rem(&self.modulus)
    }

    /// `bases[i]^exp mod m`, canonical, for up to [`LANES`] bases at once,
    /// into `out` as `l` 64-bit limbs each (`l` fits the modulus). A base
    /// up to twice the lane width — a ciphertext below `n²` against `p²` —
    /// enters lane form as `lo·R² + hi·R³`, two products and no division;
    /// only a wider one is divided first, which keeps this as total as
    /// `MontgomeryCtx::mod_pow_with`. No allocation once `scratch` is warm,
    /// bar that division.
    ///
    /// # Panics
    /// Panics on more than [`LANES`] bases, or on a CPU without the lanes.
    pub(crate) fn pow_into(
        &self,
        bases: &[&BigUint],
        exp: &BigUint,
        scratch: &mut LaneScratch,
        l: usize,
        out: &mut [u64],
    ) {
        assert!(bases.len() <= LANES, "{} bases for {LANES} lanes", bases.len());
        assert_ifma();
        let out = &mut out[..bases.len() * l];
        if exp.is_zero() {
            for value in out.chunks_exact_mut(l) {
                value.fill(0);
                value[0] = 1;
            }
            return;
        }
        let n = self.limbs;
        let LaneScratch { lo, hi, rows, limbs, .. } = scratch;
        for buf in [&mut *lo, &mut *hi] {
            buf.clear();
            buf.resize(n, [0; LANES]);
        }
        rows.resize(n, [0; LANES]);
        limbs.resize(2 * n, 0);
        for (lane, base) in bases.iter().enumerate() {
            let reduced;
            let base = if base.bits() > 2 * n * LIMB_BITS {
                reduced = base.rem(&self.modulus);
                &reduced
            } else {
                *base
            };
            to_radix52(base.limbs(), limbs);
            for k in 0..n {
                lo[k][lane] = limbs[k];
                hi[k][lane] = limbs[n + k];
            }
        }
        // SAFETY: `assert_ifma` above passed, so this CPU has avx512f and
        // avx512ifma; `lo`, `hi` and `rows` hold `n` rows, the width
        // `at_width!` instantiates the kernel at.
        unsafe { at_width!(n, ifma::pow(self, lo, hi, exp, rows)) };
        for (lane, value) in out.chunks_exact_mut(l).enumerate() {
            radix64_lane(rows, lane, value);
        }
    }
}

impl LaneCtx {
    /// `x` (below `m`) as the `N` radix-52 limbs
    /// [`LaneCtx::product_into`] takes its factor in.
    pub(crate) fn lane_limbs(&self, x: &BigUint) -> Vec<u64> {
        radix52(x.limbs(), self.limbs)
    }

    /// For up to [`LANES`] lanes, the product of `k ≥ 1` operands and
    /// `factor`, times `R^(−k)`: `x₁ · … · x_k · factor · R^(−k) mod m`,
    /// canonical, into `out` as `l` 64-bit limbs a lane. Operand `j` of
    /// lane `i` is `operand(j, i)`, a value below `m` in 64-bit limbs;
    /// `factor` comes from [`LaneCtx::lane_limbs`]. The factor picks the
    /// form the result lands in: `R^k mod m` gives the plain product. No
    /// allocation once `scratch` is warm.
    ///
    /// # Panics
    /// Panics on no operands, more than [`LANES`] lanes, or a CPU without
    /// the lanes.
    pub(crate) fn product_into<'a>(
        &self,
        k: usize,
        live: usize,
        operand: impl Fn(usize, usize) -> &'a [u64],
        factor: &[u64],
        scratch: &mut LaneScratch,
        l: usize,
        out: &mut [u64],
    ) {
        assert!(k >= 1 && live <= LANES, "{k} operands in {live} lanes");
        assert_ifma();
        let n = self.limbs;
        let LaneScratch { lo, rows, limbs, .. } = scratch;
        lo.clear();
        lo.resize(k * n, [0; LANES]);
        rows.resize(n, [0; LANES]);
        limbs.resize(n, 0);
        for j in 0..k {
            for lane in 0..live {
                to_radix52(operand(j, lane), &mut limbs[..n]);
                for (row, &limb) in lo[j * n..(j + 1) * n].iter_mut().zip(&limbs[..n]) {
                    row[lane] = limb;
                }
            }
        }
        // SAFETY: `assert_ifma` above passed; `lo` holds `k · n` rows and
        // `rows` `n`, the width `at_width!` instantiates the kernel at, and
        // `factor` is `n` limbs.
        unsafe { at_width!(n, ifma::product(self, lo, k, factor, rows)) };
        for (lane, value) in out.chunks_exact_mut(l).take(live).enumerate() {
            radix64_lane(rows, lane, value);
        }
    }
}

/// `bases[i]^exp mod m` for up to [`LANES`] bases into `out`, `ctx`'s `L`
/// limbs each: on the lanes when `kernel` is [`Kernel::Ifma8`], the
/// modulus has lane constants and at least [`MIN_LIVE_LANES`] bases are
/// live; on the scalar `ctx` otherwise. The same integers either way.
pub(crate) fn pow_batch(
    ctx: &MontgomeryCtx,
    lanes: Option<&LaneCtx>,
    bases: &[&BigUint],
    exp: &BigUint,
    kernel: Kernel,
    scratch: &mut MontScratch,
    out: &mut [u64],
) {
    let l = ctx.limbs();
    match lanes {
        Some(lanes) if kernel == Kernel::Ifma8 && bases.len() >= MIN_LIVE_LANES => {
            lanes.pow_into(bases, exp, &mut scratch.lanes, l, out);
        }
        _ => {
            for (base, value) in bases.iter().zip(out.chunks_exact_mut(l)) {
                ctx.mod_pow_into(base, exp, scratch, value);
            }
        }
    }
}

/// The lane kernel's buffers, reused across batches: lane rows in and
/// out, gather offsets, and one value's radix-52 limbs.
#[derive(Clone, Debug, Default)]
pub(crate) struct LaneScratch {
    lo: Vec<[u64; LANES]>,
    hi: Vec<[u64; LANES]>,
    rows: Vec<[u64; LANES]>,
    offsets: Vec<[u64; LANES]>,
    limbs: Vec<u64>,
}

/// A `FixedBaseWindow` table in lane form: entry `(j, d)` is the scalar
/// table's `base^(d · 2^(w·j)) · R₆₄ mod m` (`R₆₄ = 2^(64·L)`, the scalar
/// kernel's radix) in radix-52 limbs at `(j · 2^w + d) · N`, with `d = 0`
/// — `R₆₄ mod m`, Montgomery one — included so every window is one
/// product.
#[derive(Clone, Debug)]
pub(crate) struct LaneWindow {
    ctx: LaneCtx,
    table: Vec<u64>,
    /// Window positions (table rows).
    rows: usize,
    /// The window width `w`; a row holds `2^w` entries.
    window_bits: usize,
    /// `R^rows · R₆₄^(1 − rows) mod m`: a walk multiplies `rows` entries
    /// of `y · R₆₄` by lane products (`· R⁻¹` each), so one product by
    /// this leaves with `∏y · R₆₄`, the scalar kernel's Montgomery form.
    exit: Vec<u64>,
    /// `L`, the scalar kernel's limb count for `m`.
    scalar_limbs: usize,
}

impl LaneWindow {
    /// The scalar table — `2^w − 1` entries of `L` limbs per row — re-laid
    /// in radix 52, no product and nothing rebuilt. `one` is `R₆₄ mod m`
    /// and `exit` is `R^rows · R₆₄^(1 − rows) mod m`, `L` limbs each.
    pub(crate) fn new(
        ctx: LaneCtx,
        scalar_table: &[u64],
        window_bits: usize,
        one: &[u64],
        exit: &[u64],
    ) -> LaneWindow {
        let (n, l, digits) = (ctx.limbs, one.len(), 1usize << window_bits);
        let rows = scalar_table.len() / ((digits - 1) * l);
        let mut table = vec![0u64; rows * digits * n];
        let mut entries = scalar_table.chunks_exact(l);
        for row in table.chunks_exact_mut(digits * n) {
            let (zero, rest) = row.split_at_mut(n);
            to_radix52(one, zero);
            for (slot, entry) in rest.chunks_exact_mut(n).zip(entries.by_ref()) {
                to_radix52(entry, slot);
            }
        }
        let exit = radix52(exit, n);
        LaneWindow { ctx, table, rows, window_bits, exit, scalar_limbs: l }
    }

    /// `base^exps[i]` for up to [`LANES`] exponents, `stride` limbs apart
    /// in `exps`, into `out` in the scalar kernel's Montgomery form (`L`
    /// limbs each, canonical) — the limbs `FixedBaseWindow::pow` returns
    /// for the same exponent. Each lane gathers its own entry per window.
    ///
    /// # Panics
    /// Panics on more than [`LANES`] exponents, one wider than the table,
    /// or a CPU without the lanes.
    pub(crate) fn pow_into(
        &self,
        exps: &[u64],
        stride: usize,
        scratch: &mut LaneScratch,
        out: &mut [u64],
    ) {
        let count = exps.len() / stride;
        assert!(count <= LANES, "{count} exponents for {LANES} lanes");
        assert_ifma();
        assert!(
            exps.chunks_exact(stride).all(|e| bits_of(e) <= self.rows * self.window_bits),
            "exponent wider than the lane table"
        );
        let n = self.ctx.limbs;
        let LaneScratch { rows, offsets, .. } = scratch;
        offsets.resize(self.rows, [0; LANES]);
        rows.resize(n, [0; LANES]);
        // Each lane's digits, low window first, off one running bit
        // buffer per exponent; a dead lane reads digit 0 throughout.
        let w = self.window_bits;
        for lane in 0..LANES {
            let exp = exps.get(lane * stride..(lane + 1) * stride).filter(|_| lane < count);
            let (mut words, mut buf, mut bits) = (exp.unwrap_or(&[]).iter(), 0u128, 0);
            for (j, row) in offsets.iter_mut().enumerate() {
                if bits < w {
                    buf |= u128::from(words.next().copied().unwrap_or(0)) << bits;
                    bits += 64;
                }
                let digit = buf as usize & ((1 << w) - 1);
                (buf, bits) = (buf >> w, bits - w);
                row[lane] = (((j << w) + digit) * n) as u64;
            }
        }
        // SAFETY: `assert_ifma` above passed. Every offset is the start of
        // an entry of `table` — row `j < rows`, digit below `2^w` — so
        // each gathered `offset + k` for `k < n` is inside it; the kernel
        // asserts this again before gathering.
        unsafe { at_width!(n, ifma::fixed_pow(&self.ctx, &self.table, offsets, &self.exit, rows)) };
        for (lane, value) in out.chunks_exact_mut(self.scalar_limbs).take(count).enumerate() {
            radix64_lane(rows, lane, value);
        }
    }
}

/// Runs `ifma::$f::<N>` at the lane width `$n`.
macro_rules! at_width {
    ($n:expr, ifma::$f:ident($($arg:expr),*)) => {
        match $n {
            3 => ifma::$f::<3>($($arg),*),
            5 => ifma::$f::<5>($($arg),*),
            10 => ifma::$f::<10>($($arg),*),
            20 => ifma::$f::<20>($($arg),*),
            n => unreachable!("no lane kernel at {n} limbs (LaneCtx::new admits only WIDTHS)"),
        }
    };
}
use at_width;

/// The 64-bit little-endian limbs `x` as `n` radix-52 limbs (the low
/// `52·n` bits).
fn radix52(x: &[u64], n: usize) -> Vec<u64> {
    let mut out = vec![0u64; n];
    to_radix52(x, &mut out);
    out
}

/// The low `out.len()` 52-bit limbs of the 64-bit little-endian limbs `x`.
fn to_radix52(x: &[u64], out: &mut [u64]) {
    let (mut words, mut buf, mut bits) = (x.iter(), 0u128, 0);
    for limb in out {
        if bits < LIMB_BITS {
            buf |= u128::from(words.next().copied().unwrap_or(0)) << bits;
            bits += 64;
        }
        *limb = buf as u64 & MASK;
        buf >>= LIMB_BITS;
        bits -= LIMB_BITS;
    }
}

/// Lane `lane` of the limb-major radix-52 `rows` as the 64-bit limbs
/// `out`; the value must fit them.
fn radix64_lane(rows: &[[u64; LANES]], lane: usize, out: &mut [u64]) {
    let (mut limbs, mut buf, mut bits) = (rows.iter().map(|row| row[lane]), 0u128, 0);
    for word in out {
        while bits < 64 {
            buf |= u128::from(limbs.next().unwrap_or(0)) << bits;
            bits += LIMB_BITS;
        }
        *word = buf as u64;
        buf >>= 64;
        bits -= 64;
    }
}

#[cfg(target_arch = "x86_64")]
mod ifma {
    //! The kernels. Lane rows (`[[u64; LANES]]`, limb-major) enter and
    //! leave through unaligned loads and stores; between those everything
    //! is `__m512i` values. Each `pub(super)` kernel needs `avx512f` and
    //! `avx512ifma`: its callers run `assert_ifma` first.

    use super::{window_digit, BigUint, LaneCtx, DIGITS, LANES, LIMB_BITS, MASK, WINDOW_BITS};
    use std::arch::x86_64::*;

    type Limbs<const N: usize> = [__m512i; N];

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn splat<const N: usize>(x: &[u64]) -> Limbs<N> {
        let mut out = [_mm512_setzero_si512(); N];
        for k in 0..N {
            out[k] = _mm512_set1_epi64(x[k] as i64);
        }
        out
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn load<const N: usize>(rows: &[[u64; LANES]]) -> Limbs<N> {
        let mut out = [_mm512_setzero_si512(); N];
        for k in 0..N {
            // SAFETY: `rows[k]` is 8 × u64, the 64 bytes an unaligned
            // 512-bit load reads.
            out[k] = unsafe { _mm512_loadu_si512(rows[k].as_ptr().cast()) };
        }
        out
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn store<const N: usize>(x: &Limbs<N>, rows: &mut [[u64; LANES]]) {
        for k in 0..N {
            // SAFETY: `rows[k]` is 8 × u64, the 64 bytes an unaligned
            // 512-bit store writes.
            unsafe { _mm512_storeu_si512(rows[k].as_mut_ptr().cast(), x[k]) };
        }
    }

    /// `a · b · R⁻¹ mod m`, almost: below `2m` when `a · b < R · m` (both
    /// below `2m`, or one below `R` and the other below `m`), never
    /// reduced further. Operand scanning: row `i` adds `a · b[i]` and the
    /// multiple `u · m` that clears the low limb, then shifts one limb
    /// down. Limbs are carried lazily — each 64-bit accumulator takes at
    /// most `4N` 52-bit terms before the final carry pass, below 2^59 at
    /// `N = 20` — except the low one, whose carry moves up every row.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn amm<const N: usize>(a: &Limbs<N>, b: &Limbs<N>, m: &Limbs<N>, n0: __m512i) -> Limbs<N> {
        let zero = _mm512_setzero_si512();
        let mut acc = [zero; N];
        let mut top = zero;
        for i in 0..N {
            let bi = b[i];
            for j in 0..N {
                acc[j] = _mm512_madd52lo_epu64(acc[j], a[j], bi);
            }
            for j in 0..N - 1 {
                acc[j + 1] = _mm512_madd52hi_epu64(acc[j + 1], a[j], bi);
            }
            top = _mm512_madd52hi_epu64(top, a[N - 1], bi);
            let u = _mm512_madd52lo_epu64(zero, acc[0], n0);
            for j in 0..N {
                acc[j] = _mm512_madd52lo_epu64(acc[j], m[j], u);
            }
            for j in 0..N - 1 {
                acc[j + 1] = _mm512_madd52hi_epu64(acc[j + 1], m[j], u);
            }
            top = _mm512_madd52hi_epu64(top, m[N - 1], u);
            // The low limb is now a multiple of 2^52: its carry moves up
            // and the accumulator shifts down one limb.
            let carry = _mm512_srli_epi64::<{ LIMB_BITS as u32 }>(acc[0]);
            for j in 0..N - 1 {
                acc[j] = acc[j + 1];
            }
            acc[N - 1] = top;
            top = zero;
            acc[0] = _mm512_add_epi64(acc[0], carry);
        }
        carry_through(&mut acc);
        acc
    }

    /// Carries every limb into the next, leaving each below 2^52; the
    /// value must fit `N` limbs.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn carry_through<const N: usize>(x: &mut Limbs<N>) {
        let mask = _mm512_set1_epi64(MASK as i64);
        for k in 0..N - 1 {
            x[k + 1] = _mm512_add_epi64(x[k + 1], _mm512_srli_epi64::<{ LIMB_BITS as u32 }>(x[k]));
            x[k] = _mm512_and_si512(x[k], mask);
        }
    }

    /// `x − k` in the lanes where `x ≥ k`, `x` in the others.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn sub_if_ge<const N: usize>(x: &Limbs<N>, k: &Limbs<N>) -> Limbs<N> {
        let (zero, mask) = (_mm512_setzero_si512(), _mm512_set1_epi64(MASK as i64));
        let mut diff = [zero; N];
        let mut borrow = zero;
        for j in 0..N {
            let t = _mm512_sub_epi64(_mm512_sub_epi64(x[j], k[j]), borrow);
            borrow = _mm512_srli_epi64::<63>(t);
            diff[j] = _mm512_and_si512(t, mask);
        }
        let below = _mm512_cmpneq_epi64_mask(borrow, zero);
        let mut out = [zero; N];
        for j in 0..N {
            out[j] = _mm512_mask_blend_epi64(below, diff[j], x[j]);
        }
        out
    }

    /// Leaves lane form by one product by `factor` (`1` for a plain value,
    /// `LaneWindow`'s `exit` for the scalar kernel's Montgomery form) and
    /// the one canonicalising subtraction.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn leave<const N: usize>(
        x: &Limbs<N>,
        factor: &Limbs<N>,
        m: &Limbs<N>,
        n0: __m512i,
    ) -> Limbs<N> {
        sub_if_ge(&amm(x, factor, m, n0), m)
    }

    /// `base^exp mod m`, canonical, per lane: the bases enter as
    /// `lo·R² + hi·R³`, then the walk of `MontgomeryCtx::mod_pow_with` —
    /// [`WINDOW_BITS`]-bit windows over the shared exponent, uniform
    /// control flow in every lane. `exp` must not be zero.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn pow<const N: usize>(
        ctx: &LaneCtx,
        lo: &[[u64; LANES]],
        hi: &[[u64; LANES]],
        exp: &BigUint,
        out: &mut [[u64; LANES]],
    ) {
        let (m, n0) = (splat::<N>(&ctx.m), _mm512_set1_epi64(ctx.n0 as i64));
        // lo·R and hi·R² are each below 2m, their sum below 4m.
        let mut sum = amm(&load(lo), &splat(&ctx.r2), &m, n0);
        let high = amm(&load(hi), &splat(&ctx.r3), &m, n0);
        for k in 0..N {
            sum[k] = _mm512_add_epi64(sum[k], high[k]);
        }
        carry_through(&mut sum);
        let base = sub_if_ge(&sum, &splat(&ctx.twice_m));
        let mut table = [base; DIGITS];
        for d in 1..DIGITS {
            table[d] = amm(&table[d - 1], &base, &m, n0);
        }
        let windows = exp.bits().div_ceil(WINDOW_BITS);
        // The top window holds the exponent's top bit, so its digit is ≥ 1.
        let mut acc = table[window_digit(exp.limbs(), windows - 1, WINDOW_BITS) - 1];
        for j in (0..windows - 1).rev() {
            for _ in 0..WINDOW_BITS {
                acc = amm(&acc, &acc, &m, n0);
            }
            let digit = window_digit(exp.limbs(), j, WINDOW_BITS);
            if digit != 0 {
                acc = amm(&acc, &table[digit - 1], &m, n0);
            }
        }
        let mut one = [0u64; N];
        one[0] = 1;
        store(&leave(&acc, &splat(&one), &m, n0), out);
    }

    /// The fixed-base walk: every lane gathers its own entry of each row
    /// (`offsets[j][lane]`, the entry's first limb in `table`) and
    /// multiplies it in, then leaves by a product with `exit` into the
    /// scalar kernel's canonical Montgomery form.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn fixed_pow<const N: usize>(
        ctx: &LaneCtx,
        table: &[u64],
        offsets: &[[u64; LANES]],
        exit: &[u64],
        out: &mut [[u64; LANES]],
    ) {
        assert!(
            offsets.iter().flatten().all(|&o| o as usize + N <= table.len()),
            "a gather past the lane table"
        );
        let (m, n0) = (splat::<N>(&ctx.m), _mm512_set1_epi64(ctx.n0 as i64));
        // SAFETY: every offset + N is within `table`, asserted above.
        let mut acc = unsafe { gather(table, &offsets[0]) };
        for row in &offsets[1..] {
            // SAFETY: as above.
            let entry = unsafe { gather(table, row) };
            acc = amm(&acc, &entry, &m, n0);
        }
        store(&leave(&acc, &splat(exit), &m, n0), out);
    }

    /// The running product of the `k` operands (`N` rows each, below
    /// `m`), left by a product with `factor` and the canonicalising
    /// subtraction.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) fn product<const N: usize>(
        ctx: &LaneCtx,
        operands: &[[u64; LANES]],
        k: usize,
        factor: &[u64],
        out: &mut [[u64; LANES]],
    ) {
        assert!(factor.len() == N && operands.len() >= k * N, "operand rows for {k} × {N} limbs");
        let (m, n0) = (splat::<N>(&ctx.m), _mm512_set1_epi64(ctx.n0 as i64));
        let mut acc = load::<N>(&operands[..N]);
        for j in 1..k {
            acc = amm(&acc, &load(&operands[j * N..(j + 1) * N]), &m, n0);
        }
        store(&leave(&acc, &splat(factor), &m, n0), out);
    }

    /// Lane `i` loads the `N` limbs at `table[offsets[i]..]`.
    ///
    /// # Safety
    /// Every `offsets[i] + N` must be at most `table.len()`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn gather<const N: usize>(table: &[u64], offsets: &[u64; LANES]) -> Limbs<N> {
        // SAFETY: `offsets` is 8 × u64, the 64 bytes an unaligned 512-bit
        // load reads.
        let first = unsafe { _mm512_loadu_si512(offsets.as_ptr().cast()) };
        let mut entry = [_mm512_setzero_si512(); N];
        for k in 0..N {
            let index = _mm512_add_epi64(first, _mm512_set1_epi64(k as i64));
            // SAFETY: each lane reads `table[offsets[i] + k]` with `k < N`,
            // inside `table` by the caller's guarantee.
            entry[k] = unsafe { _mm512_i64gather_epi64::<8>(index, table.as_ptr().cast()) };
        }
        entry
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod ifma {
    //! No lanes off x86_64: `Kernel::detected` is always scalar there, and
    //! `assert_ifma` stops every path before it reaches these stubs.
    //!
    //! # Safety
    //! Never called; `unsafe` only to match the x86_64 kernels' call sites.

    use super::{BigUint, LaneCtx, LANES};

    pub(super) unsafe fn pow<const N: usize>(
        _: &LaneCtx,
        _: &[[u64; LANES]],
        _: &[[u64; LANES]],
        _: &BigUint,
        _: &mut [[u64; LANES]],
    ) {
        unreachable!("no lane kernel off x86_64")
    }

    pub(super) unsafe fn product<const N: usize>(
        _: &LaneCtx,
        _: &[[u64; LANES]],
        _: usize,
        _: &[u64],
        _: &mut [[u64; LANES]],
    ) {
        unreachable!("no lane kernel off x86_64")
    }

    pub(super) unsafe fn fixed_pow<const N: usize>(
        _: &LaneCtx,
        _: &[u64],
        _: &[[u64; LANES]],
        _: &[u64],
        _: &mut [[u64; LANES]],
    ) {
        unreachable!("no lane kernel off x86_64")
    }
}

#[cfg(test)]
mod tests {
    use super::super::montgomery::{FixedBaseWindow, FIXED_WINDOW_BITS};
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A random odd modulus of exactly `bits` bits.
    fn odd_modulus(rng: &mut StdRng, bits: usize) -> BigUint {
        let m = BigUint::random_bits(rng, bits).add(&BigUint::one().shl(bits - 1));
        let m = if m.bits() > bits { m.sub(&BigUint::one().shl(bits - 1)) } else { m };
        if m.is_even() {
            m.add_u64(1)
        } else {
            m
        }
    }

    /// The widest and the narrowest modulus each lane width serves.
    fn moduli(rng: &mut StdRng) -> Vec<(usize, BigUint)> {
        WIDTHS
            .iter()
            .flat_map(|&n| [LIMB_BITS * n - 2, LIMB_BITS * (n - 1) - 1].map(|b| (n, b)))
            .map(|(n, bits)| (n, odd_modulus(rng, bits)))
            .collect()
    }

    #[test]
    fn radix_conversions_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        for bits in [1usize, 52, 53, 64, 104, 155, 1038] {
            let x = BigUint::random_bits(&mut rng, bits);
            let n = bits.div_ceil(LIMB_BITS);
            let lane52 = radix52(x.limbs(), n);
            assert!(lane52.iter().all(|&limb| limb <= MASK));
            // Lane 3 of rows holding the value there, and junk elsewhere.
            let rows: Vec<[u64; LANES]> = lane52
                .iter()
                .map(|&limb| std::array::from_fn(|lane| if lane == 3 { limb } else { MASK }))
                .collect();
            let mut back = vec![u64::MAX; bits.div_ceil(64)];
            radix64_lane(&rows, 3, &mut back);
            assert_eq!(BigUint::from_limbs(back), x, "{bits} bits");
        }
    }

    #[test]
    fn lane_widths_are_the_instantiated_ones() {
        let mut rng = StdRng::seed_from_u64(5);
        for (n, m) in moduli(&mut rng) {
            assert_eq!(LaneCtx::new(&m).map(|c| c.limbs), Some(n), "{} bits", m.bits());
        }
        // One bit past the widest, and widths between the served ones.
        for bits in [52 * 3 - 1, 52 * 6 - 3, 52 * 20 - 1, 64] {
            assert!(LaneCtx::new(&odd_modulus(&mut rng, bits)).is_none(), "{bits} bits");
        }
        assert!(LaneCtx::new(&BigUint::from_u64(1 << 40)).is_none(), "even");
    }

    /// The lanes against the scalar kernel at every width the dispatch
    /// serves: full-width and narrowest moduli; exponents on window seams
    /// (0, 1, 15, 16, all-ones) and random; bases below `m`, between `m`
    /// and `2m`, double-width up to `m² − 1` and all-ones at twice the lane
    /// width; and 1–8 live lanes.
    #[test]
    fn pow_many_matches_the_scalar_kernel() {
        if !Kernel::available().contains(&Kernel::Ifma8) {
            return;
        }
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = MontScratch::default();
        for (n, m) in moduli(&mut rng) {
            let lanes = LaneCtx::new(&m).expect("a served width");
            let scalar = MontgomeryCtx::new(&m).expect("odd");
            let exps = [
                BigUint::zero(),
                BigUint::one(),
                BigUint::from_u64(15),
                BigUint::from_u64(16),
                BigUint::one().shl(m.bits()).sub(&BigUint::one()),
                BigUint::random_bits(&mut rng, m.bits()),
                BigUint::random_bits(&mut rng, m.bits() / 2 + 3),
            ];
            let bases = [
                BigUint::zero(),
                BigUint::one(),
                m.sub(&BigUint::one()),
                BigUint::random_below(&mut rng, &m),
                m.clone(),
                m.add(&BigUint::random_below(&mut rng, &m)),
                m.square().sub(&BigUint::one()),
                BigUint::random_below(&mut rng, &m.square()),
                BigUint::one().shl(2 * LIMB_BITS * n).sub(&BigUint::one()),
                // Wider than twice the lanes: divided first.
                BigUint::random_bits(&mut rng, 2 * LIMB_BITS * n + 70),
            ];
            let l = scalar.limbs();
            for exp in &exps {
                for live in 1..=LANES {
                    let batch: Vec<&BigUint> = bases.iter().cycle().skip(live).take(live).collect();
                    let want: Vec<BigUint> =
                        batch.iter().map(|b| scalar.mod_pow_with(b, exp, &mut scratch)).collect();
                    let mut out = vec![u64::MAX; LANES * l];
                    lanes.pow_into(&batch, exp, &mut scratch.lanes, l, &mut out);
                    let got: Vec<BigUint> =
                        out.chunks(l).take(live).map(|v| BigUint::from_limbs(v.to_vec())).collect();
                    assert_eq!(
                        got,
                        want,
                        "{} bits, {}-bit exponent, {live} lanes",
                        m.bits(),
                        exp.bits()
                    );
                }
            }
        }
    }

    /// The lane product against division-based arithmetic at every
    /// width: 1–4 and 16 operands (zero, one, `m − 1` and random), a
    /// random factor, and 1–8 live lanes.
    #[test]
    fn product_matches_division() {
        if !Kernel::available().contains(&Kernel::Ifma8) {
            return;
        }
        let mut rng = StdRng::seed_from_u64(13);
        let mut scratch = LaneScratch::default();
        for (n, m) in moduli(&mut rng) {
            let lanes = LaneCtx::new(&m).expect("a served width");
            let l = m.limbs().len();
            let r_inv = BigUint::one().shl(LIMB_BITS * n).mod_inverse(&m).expect("odd m");
            let factor = BigUint::random_below(&mut rng, &m);
            let mut values = vec![BigUint::zero(), BigUint::one(), m.sub(&BigUint::one())];
            values.extend((0..13).map(|_| BigUint::random_below(&mut rng, &m)));
            let padded: Vec<Vec<u64>> = values
                .iter()
                .map(|v| {
                    let mut limbs = v.limbs().to_vec();
                    limbs.resize(l, 0);
                    limbs
                })
                .collect();
            for k in [1usize, 2, 3, 4, 16] {
                for live in 1..=LANES {
                    let pick = |j: usize, lane: usize| (3 * j + 5 * lane + k) % values.len();
                    let mut out = vec![u64::MAX; LANES * l];
                    let f = lanes.lane_limbs(&factor);
                    lanes.product_into(
                        k,
                        live,
                        |j, lane| &padded[pick(j, lane)],
                        &f,
                        &mut scratch,
                        l,
                        &mut out,
                    );
                    for lane in 0..live {
                        let want = (0..k).fold(factor.clone(), |acc, j| {
                            acc.mul_mod(&values[pick(j, lane)], &m).mul_mod(&r_inv, &m)
                        });
                        let got = BigUint::from_limbs(out[lane * l..(lane + 1) * l].to_vec());
                        assert_eq!(
                            got,
                            want,
                            "{} bits, {k} operands, lane {lane} of {live}",
                            m.bits()
                        );
                    }
                }
            }
        }
    }

    /// The lane table against the scalar one, limb for limb, on the
    /// exponents that sit on its window seams, with 1–8 live lanes, at
    /// every lane width and at a table width that is and is not a
    /// multiple of the window.
    #[test]
    fn lane_window_matches_the_scalar_table() {
        if !Kernel::available().contains(&Kernel::Ifma8) {
            return;
        }
        let w = FIXED_WINDOW_BITS;
        let mut rng = StdRng::seed_from_u64(11);
        for ((_, m), max_exp_bits) in
            moduli(&mut rng).into_iter().zip([70, 100, 128, 130, 256, 257, 512, 513])
        {
            let ctx = MontgomeryCtx::new(&m).expect("odd");
            let base = BigUint::random_below(&mut rng, &m);
            let window = FixedBaseWindow::new(&base, ctx, max_exp_bits);
            let mut exps = vec![
                BigUint::zero(),
                BigUint::one(),
                BigUint::from_u64((1 << w) - 1),
                BigUint::from_u64(1 << w),
                BigUint::one().shl(max_exp_bits).sub(&BigUint::one()),
                BigUint::one().shl(max_exp_bits - 1),
                BigUint::from_u128(0x1ff << 60),
            ];
            exps.extend((1..=8).map(|i| BigUint::random_bits(&mut rng, i * max_exp_bits / 8)));
            let (l, stride) = (m.limbs().len(), max_exp_bits.div_ceil(64));
            let mut scratch = MontScratch::default();
            for live in 1..=LANES {
                for batch in exps.chunks(live) {
                    let want: Vec<Vec<u64>> = batch.iter().map(|e| window.pow(e).0).collect();
                    let mut flat = vec![0u64; batch.len() * stride];
                    for (e, slot) in batch.iter().zip(flat.chunks_mut(stride)) {
                        slot[..e.limbs().len()].copy_from_slice(e.limbs());
                    }
                    let mut out = vec![u64::MAX; LANES * l];
                    window.pow_batch(&flat, stride, Kernel::Ifma8, &mut scratch, &mut out);
                    assert_eq!(
                        out.chunks(l).take(batch.len()).map(<[u64]>::to_vec).collect::<Vec<_>>(),
                        want,
                        "{} bits, {max_exp_bits}-bit table, {} lanes",
                        m.bits(),
                        batch.len()
                    );
                }
            }
        }
    }
}
