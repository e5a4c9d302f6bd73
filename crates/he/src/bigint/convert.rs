//! Conversions: byte serialization, hex / decimal formatting and parsing.

use super::BigUint;
use std::fmt;

impl BigUint {
    /// Big-endian byte encoding with no leading zero bytes (empty for zero).
    #[must_use]
    pub fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.byte_len());
        self.write_bytes_be(&mut out);
        out
    }

    /// Appends [`BigUint::to_bytes_be`] to `out`, with no buffer of its own.
    pub(crate) fn write_bytes_be(&self, out: &mut Vec<u8>) {
        let Some((&top, rest)) = self.limbs.split_last() else {
            return;
        };
        out.extend_from_slice(&top.to_be_bytes()[top.leading_zeros() as usize / 8..]);
        for &l in rest.iter().rev() {
            out.extend_from_slice(&l.to_be_bytes());
        }
    }

    /// Parses a big-endian byte slice.
    #[must_use]
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut buf = [0u8; 8];
            buf[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(buf));
        }
        Self::from_limbs(limbs)
    }

    /// Number of bytes in the big-endian encoding.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.bits().div_ceil(8)
    }

    /// Parses a hexadecimal string (no prefix, case-insensitive).
    ///
    /// Returns `None` for empty input or non-hex characters.
    #[must_use]
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.is_empty() {
            return None;
        }
        let mut out = Self::zero();
        for ch in s.chars() {
            let d = ch.to_digit(16)?;
            out = out.shl(4).add_u64(u64::from(d));
        }
        Some(out)
    }

    /// Lowercase hexadecimal rendering (no prefix; `"0"` for zero).
    #[must_use]
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut s = format!("{:x}", self.limbs.last().unwrap());
        for &l in self.limbs.iter().rev().skip(1) {
            s.push_str(&format!("{l:016x}"));
        }
        s
    }

    /// Parses a decimal string. Returns `None` for empty or non-digit input.
    #[must_use]
    pub fn from_decimal(s: &str) -> Option<Self> {
        if s.is_empty() {
            return None;
        }
        let mut out = Self::zero();
        for ch in s.chars() {
            let d = ch.to_digit(10)?;
            out = out.mul_u64(10).add_u64(u64::from(d));
        }
        Some(out)
    }

    /// Decimal rendering.
    #[must_use]
    pub fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_owned();
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        // Peel 19 decimal digits at a time (largest power of ten in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        while !cur.is_zero() {
            let (q, r) = cur.divrem_u64(CHUNK);
            digits.push(r);
            cur = q;
        }
        let mut s = digits.pop().map(|d| d.to_string()).unwrap_or_default();
        for d in digits.into_iter().rev() {
            s.push_str(&format!("{d:019}"));
        }
        s
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_decimal())
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip() {
        let a = BigUint::from_u128(0x0102_0304_0506_0708_090a);
        let bytes = a.to_bytes_be();
        assert_eq!(bytes[0], 0x01, "no leading zeros");
        assert_eq!(BigUint::from_bytes_be(&bytes), a);
        assert!(BigUint::zero().to_bytes_be().is_empty());
        assert!(BigUint::from_bytes_be(&[]).is_zero());
    }

    #[test]
    fn byte_len_matches_encoding() {
        for v in [0u64, 1, 255, 256, 0xffff, 0x1_0000] {
            let b = BigUint::from_u64(v);
            assert_eq!(b.byte_len(), b.to_bytes_be().len(), "v={v}");
        }
    }

    #[test]
    fn hex_roundtrip() {
        let a = BigUint::from_hex("deadbeefcafebabe0123456789abcdef00").unwrap();
        assert_eq!(a.to_hex(), "deadbeefcafebabe0123456789abcdef00");
        assert_eq!(BigUint::zero().to_hex(), "0");
        assert!(BigUint::from_hex("xyz").is_none());
        assert!(BigUint::from_hex("").is_none());
    }

    #[test]
    fn decimal_roundtrip() {
        let s = "123456789012345678901234567890123456789";
        let a = BigUint::from_decimal(s).unwrap();
        assert_eq!(a.to_decimal(), s);
        assert_eq!(BigUint::zero().to_decimal(), "0");
        assert!(BigUint::from_decimal("12a").is_none());
    }

    #[test]
    fn display_and_debug() {
        let a = BigUint::from_u64(255);
        assert_eq!(format!("{a}"), "255");
        assert_eq!(format!("{a:?}"), "BigUint(0xff)");
    }
}
