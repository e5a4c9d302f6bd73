//! Shift-and-pack plaintext packing for Paillier.
//!
//! Paillier plaintexts live in `Z_n` — hundreds of bits — while a fixed-point
//! encoded partial distance needs at most `MAG_BITS + 1` of them. Packing
//! lays many values side by side in one plaintext so a single noise
//! exponentiation (the dominant encryption cost) is amortized over a whole
//! slot group, and homomorphic ciphertext addition sums every slot at once.
//!
//! ## Layout and headroom math
//!
//! Each slot is `slot_bits` wide and stores one fixed-point encoded value
//! `e` (|`e`| ≤ 2^`MAG_BITS`, covering |x| ≤ 2^30 at the default 24
//! fractional bits — comfortably above the protocol's 1e9 self-exclusion
//! sentinel) as the non-negative `e + B` with bias `B = 2^MAG_BITS`. After
//! homomorphically summing `t ≤ max_terms` fresh ciphertexts a slot holds
//! `Σe_i + t·B`, which is bounded by
//!
//! ```text
//! t · (B + 2^MAG_BITS) ≤ max_terms · 2^(MAG_BITS+1) < 2^slot_bits
//! ```
//!
//! so `slot_bits = MAG_BITS + 1 + ceil_log2(max_terms) + 1` (one guard bit)
//! guarantees no carry ever crosses a slot boundary. The whole plaintext is
//! `slots · slot_bits ≤ key_bits − 1` bits, hence strictly below
//! `2^(key_bits−1) ≤ n`: slot sums are plain non-negative integers and
//! decoding needs no `n/2` threshold. Decode subtracts `t·B` per slot.

use crate::bigint::BigUint;
use crate::error::{Error, Result};

/// Per-slot magnitude bound in bits: encoded values must satisfy
/// |`e`| ≤ 2^`MAG_BITS`. With the default 24 fractional bits this admits
/// real values up to 2^30 ≈ 1.07e9, which covers every distance the VFL
/// protocols encrypt (the largest is the 1e9 self-exclusion sentinel).
pub const MAG_BITS: u32 = 54;

/// Default addition headroom: slots keep carry-free room for summing this
/// many fresh ciphertexts (one per participant in VFPS-SM, so 16 covers
/// every configuration in the tree with margin).
pub const DEFAULT_MAX_TERMS: u32 = 16;

/// A shift-and-pack layout for a given Paillier key width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackingLayout {
    slot_bits: u32,
    slots: usize,
    max_terms: u32,
}

impl PackingLayout {
    /// Derives the layout for a key of `key_bits` with headroom for
    /// `max_terms` homomorphic additions. Returns `None` when the key is
    /// too narrow to fit even one slot (callers then fall back to one
    /// value per ciphertext).
    #[must_use]
    pub fn for_key(key_bits: usize, max_terms: u32) -> Option<Self> {
        if max_terms == 0 {
            return None;
        }
        let headroom_bits = u32::BITS - (max_terms - 1).leading_zeros(); // ceil_log2
        let slot_bits = MAG_BITS + 1 + headroom_bits + 1;
        let slots = (key_bits.saturating_sub(1)) / slot_bits as usize;
        if slots == 0 {
            return None;
        }
        Some(PackingLayout { slot_bits, slots, max_terms })
    }

    /// Values per plaintext (= values amortized per noise exponentiation).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Width of one slot in bits.
    #[must_use]
    pub fn slot_bits(&self) -> u32 {
        self.slot_bits
    }

    /// The addition headroom the layout reserves per slot.
    #[must_use]
    pub fn max_terms(&self) -> u32 {
        self.max_terms
    }

    /// The per-slot bias `B = 2^MAG_BITS` added to each encoded value.
    fn bias() -> i128 {
        1i128 << MAG_BITS
    }

    /// Packs up to [`PackingLayout::slots`] encoded values into one
    /// plaintext.
    ///
    /// # Errors
    /// [`Error::TooManySlots`] when given more values than slots;
    /// [`Error::PackedValueOutOfRange`] when a value exceeds the
    /// 2^[`MAG_BITS`] slot magnitude.
    pub fn pack(&self, encoded: &[i64]) -> Result<BigUint> {
        if encoded.len() > self.slots {
            return Err(Error::TooManySlots { got: encoded.len(), max: self.slots });
        }
        let mut limbs = vec![0u64; self.plain_limbs()];
        self.pack_into(encoded.iter().map(|&e| Ok(e)), &mut limbs)?;
        Ok(BigUint::from_limbs(limbs))
    }

    /// Limbs a packed plaintext is written into: the slots' bits and the
    /// two spare limbs that take a top slot's (zero) spill.
    pub(crate) fn plain_limbs(&self) -> usize {
        (self.slots * self.slot_bits as usize).div_ceil(64) + 2
    }

    /// [`PackingLayout::pack`] into the caller's zeroed
    /// [`PackingLayout::plain_limbs`] limbs, one encoded value (or its
    /// encoding error) at a time; values past the slot count are ignored.
    ///
    /// # Errors
    /// The first error among `encoded`; [`Error::PackedValueOutOfRange`]
    /// when a value exceeds the 2^[`MAG_BITS`] slot magnitude.
    pub(crate) fn pack_into(
        &self,
        encoded: impl IntoIterator<Item = Result<i64>>,
        limbs: &mut [u64],
    ) -> Result<()> {
        let bound = 1i64 << MAG_BITS;
        let width = self.slot_bits as usize;
        // Slots are disjoint bit ranges, so each is written in place.
        for (i, e) in encoded.into_iter().take(self.slots).enumerate() {
            let e = e?;
            if e.abs() > bound {
                return Err(Error::PackedValueOutOfRange { encoded: e, mag_bits: MAG_BITS });
            }
            write_bits(limbs, i * width, (i128::from(e) + Self::bias()) as u128);
        }
        Ok(())
    }

    /// Unpacks the first `count` slots of a decrypted sum of `terms` fresh
    /// ciphertexts, undoing the per-slot bias.
    ///
    /// # Errors
    /// [`Error::PackedHeadroomExceeded`] when `terms` exceeds the layout's
    /// headroom (slot sums may then have carried into neighbours, so the
    /// decode would be silently wrong); [`Error::TooManySlots`] when
    /// `count` exceeds the slot count.
    pub fn unpack(&self, plain: &BigUint, count: usize, terms: u32) -> Result<Vec<i128>> {
        Ok(self.unpack_limbs(plain.limbs(), count, terms)?.collect())
    }

    /// [`PackingLayout::unpack`] straight off a plaintext's little-endian
    /// limbs, value by value.
    ///
    /// # Errors
    /// As [`PackingLayout::unpack`].
    pub(crate) fn unpack_limbs<'a>(
        &self,
        plain: &'a [u64],
        count: usize,
        terms: u32,
    ) -> Result<impl Iterator<Item = i128> + 'a> {
        if terms > self.max_terms {
            return Err(Error::PackedHeadroomExceeded { terms, max_terms: self.max_terms });
        }
        if count > self.slots {
            return Err(Error::TooManySlots { got: count, max: self.slots });
        }
        let width = self.slot_bits as usize;
        let offset = i128::from(terms) * Self::bias();
        Ok((0..count).map(move |i| read_bits(plain, i * width, width) as i128 - offset))
    }
}

/// ORs `value` into `limbs` at bit `offset`. The caller leaves two limbs
/// past the one `offset` falls in.
fn write_bits(limbs: &mut [u64], offset: usize, value: u128) {
    let (limb, shift) = (offset / 64, offset % 64);
    let (lo, hi) = (value as u64, (value >> 64) as u64);
    limbs[limb] |= lo << shift;
    limbs[limb + 1] |= hi << shift;
    if shift > 0 {
        limbs[limb + 1] |= lo >> (64 - shift);
        limbs[limb + 2] |= hi >> (64 - shift);
    }
}

/// Bits `[offset, offset + width)` of the little-endian `limbs` (zero past
/// the end). `width` is a slot width: at most `MAG_BITS + 2 + 32 = 88`, so
/// three limbs always cover it.
fn read_bits(limbs: &[u64], offset: usize, width: usize) -> u128 {
    let (limb, shift) = (offset / 64, offset % 64);
    let get = |i: usize| u128::from(limbs.get(i).copied().unwrap_or(0));
    let mut v = (get(limb) >> shift) | (get(limb + 1) << (64 - shift));
    if shift > 0 {
        v |= get(limb + 2) << (128 - shift);
    }
    v & ((1u128 << width) - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_sizes() {
        let l = PackingLayout::for_key(512, DEFAULT_MAX_TERMS).unwrap();
        assert_eq!(l.slot_bits(), 60);
        assert_eq!(l.slots(), 8);
        let l = PackingLayout::for_key(256, DEFAULT_MAX_TERMS).unwrap();
        assert_eq!(l.slots(), 4);
        let l = PackingLayout::for_key(128, DEFAULT_MAX_TERMS).unwrap();
        assert_eq!(l.slots(), 2);
        let l = PackingLayout::for_key(64, DEFAULT_MAX_TERMS).unwrap();
        assert_eq!(l.slots(), 1, "minimum key width still fits one biased slot");
        assert!(PackingLayout::for_key(32, DEFAULT_MAX_TERMS).is_none());
        assert!(PackingLayout::for_key(512, 0).is_none());
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let l = PackingLayout::for_key(512, 8).unwrap();
        let bound = 1i64 << MAG_BITS;
        let vals = [0i64, 1, -1, bound, -bound, 123_456_789, -987_654_321];
        let packed = l.pack(&vals).unwrap();
        let got = l.unpack(&packed, vals.len(), 1).unwrap();
        assert_eq!(got, vals.iter().map(|&v| i128::from(v)).collect::<Vec<_>>());
    }

    #[test]
    fn packed_sums_decode_slotwise() {
        let l = PackingLayout::for_key(256, 4).unwrap();
        let a = [100i64, -200, 300, -400];
        let b = [5i64, 6, -7, 8];
        let pa = l.pack(&a).unwrap();
        let pb = l.pack(&b).unwrap();
        let sum = pa.add(&pb);
        let got = l.unpack(&sum, 4, 2).unwrap();
        for i in 0..4 {
            assert_eq!(got[i], i128::from(a[i]) + i128::from(b[i]), "slot {i}");
        }
    }

    #[test]
    fn slots_wider_than_a_limb_straddle_three_limbs() {
        // 76-bit slots: offsets 0, 76, 152, … put a slot at every shift
        // class, including the ones that touch three limbs.
        let l = PackingLayout::for_key(1024, 1 << 20).unwrap();
        assert_eq!(l.slot_bits(), 76);
        let bound = 1i64 << MAG_BITS;
        let vals: Vec<i64> =
            (0..l.slots() as i64).map(|i| if i % 2 == 0 { bound - i } else { i - bound }).collect();
        let packed = l.pack(&vals).unwrap();
        // Reference: the division the layout is defined by.
        let modulus = BigUint::one().shl(76);
        let mut rest = packed.clone();
        for &v in &vals {
            let (q, r) = rest.divrem(&modulus);
            assert_eq!(r.to_u128().unwrap() as i128 - (1i128 << MAG_BITS), i128::from(v));
            rest = q;
        }
        // A full-headroom sum: every slot at the bound, `max_terms` times.
        let terms = l.max_terms();
        let top = l.pack(&vec![bound; l.slots()]).unwrap().mul_u64(u64::from(terms));
        let got = l.unpack(&top, l.slots(), terms).unwrap();
        assert!(got.iter().all(|&v| v == i128::from(terms) * i128::from(bound)));
        assert_eq!(
            l.unpack(&packed, vals.len(), 1).unwrap(),
            vals.iter().map(|&v| i128::from(v)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rejects_out_of_range_and_headroom() {
        let l = PackingLayout::for_key(256, 4).unwrap();
        let too_big = (1i64 << MAG_BITS) + 1;
        assert!(matches!(l.pack(&[too_big]), Err(Error::PackedValueOutOfRange { .. })));
        assert!(matches!(l.pack(&[0; 5]).unwrap_err(), Error::TooManySlots { got: 5, max: 4 }));
        let p = l.pack(&[1]).unwrap();
        assert!(matches!(
            l.unpack(&p, 1, 5),
            Err(Error::PackedHeadroomExceeded { terms: 5, max_terms: 4 })
        ));
    }

    #[test]
    fn pack_into_writes_what_pack_writes_and_ignores_extra_values() {
        let l = PackingLayout::for_key(256, 4).unwrap();
        let vals = [7i64, -8, 9, -10, 11, 12];
        let mut limbs = vec![0u64; l.plain_limbs()];
        l.pack_into(vals.iter().map(|&v| Ok(v)), &mut limbs).unwrap();
        assert_eq!(BigUint::from_limbs(limbs), l.pack(&vals[..4]).unwrap());
    }

    #[test]
    fn pack_into_returns_the_first_encoding_error() {
        let l = PackingLayout::for_key(256, 4).unwrap();
        let mut limbs = vec![0u64; l.plain_limbs()];
        let encoded = [Ok(1), Err(Error::InvalidParameters("first".into())), Ok(1i64 << 60)];
        match l.pack_into(encoded, &mut limbs) {
            Err(Error::InvalidParameters(m)) => assert_eq!(m, "first"),
            other => panic!("expected the first error, got {other:?}"),
        }
    }

    #[test]
    fn unpack_limbs_reads_missing_limbs_as_zero_and_checks_count() {
        let l = PackingLayout::for_key(512, 8).unwrap();
        let packed = l.pack(&[5, -6]).unwrap();
        let got: Vec<i128> = l.unpack_limbs(packed.limbs(), 4, 1).unwrap().collect();
        let bias = 1i128 << MAG_BITS;
        assert_eq!(got, [5, -6, -bias, -bias], "empty slots decode to minus the bias");
        assert!(matches!(
            l.unpack_limbs(packed.limbs(), 9, 1).err(),
            Some(Error::TooManySlots { got: 9, max: 8 })
        ));
    }
}
