//! Fixed-point encoding of real values for exact (integer) HE schemes.
//!
//! Distances in VFPS-SM are non-negative reals; Paillier operates on
//! integers mod `n`. [`FixedPoint`] maps `x ↦ round(x · 2^frac_bits)` and
//! back, tracking the scale so homomorphic sums decode correctly.

use crate::error::{Error, Result};

/// A fixed-point codec with `frac_bits` fractional bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixedPoint {
    frac_bits: u32,
}

impl FixedPoint {
    /// Default fractional precision used by the VFL protocols.
    pub const DEFAULT_FRAC_BITS: u32 = 24;

    /// Creates a codec with the given fractional precision (≤ 52 so a unit
    /// value still round-trips through `f64`).
    ///
    /// # Errors
    /// Returns [`Error::InvalidParameters`] if `frac_bits > 52`.
    pub fn new(frac_bits: u32) -> Result<Self> {
        if frac_bits > 52 {
            return Err(Error::InvalidParameters(format!("frac_bits {frac_bits} exceeds 52")));
        }
        Ok(FixedPoint { frac_bits })
    }

    /// The default codec.
    #[must_use]
    pub fn default_codec() -> Self {
        FixedPoint { frac_bits: Self::DEFAULT_FRAC_BITS }
    }

    /// The scale factor `2^frac_bits`.
    #[must_use]
    pub fn scale(&self) -> f64 {
        (1u64 << self.frac_bits) as f64
    }

    /// Encodes a real into a scaled signed integer.
    ///
    /// # Errors
    /// Returns [`Error::FixedPointOverflow`] for non-finite input or values
    /// whose scaled magnitude exceeds `i64`.
    pub fn encode(&self, x: f64) -> Result<i64> {
        if !x.is_finite() {
            return Err(Error::FixedPointOverflow { value: x });
        }
        let scaled = x * self.scale();
        if scaled.abs() >= i64::MAX as f64 {
            return Err(Error::FixedPointOverflow { value: x });
        }
        Ok(scaled.round() as i64)
    }

    /// Decodes a scaled integer back into a real.
    #[must_use]
    pub fn decode(&self, v: i64) -> f64 {
        v as f64 / self.scale()
    }

    /// Decodes a (possibly widened) sum of scaled integers.
    #[must_use]
    pub fn decode_i128(&self, v: i128) -> f64 {
        v as f64 / self.scale()
    }

    /// Absolute quantization error bound for a single encoded value.
    #[must_use]
    pub fn quantization_error(&self) -> f64 {
        0.5 / self.scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_within_quantization_error() {
        let fp = FixedPoint::default_codec();
        for &x in &[0.0, 1.0, -1.0, std::f64::consts::PI, -std::f64::consts::E, 1e6, -1e6, 1e-7] {
            let v = fp.encode(x).unwrap();
            assert!((fp.decode(v) - x).abs() <= fp.quantization_error(), "x={x}");
        }
    }

    #[test]
    fn sums_decode_correctly() {
        let fp = FixedPoint::default_codec();
        let xs = [1.25, 2.5, 3.125, -0.875];
        let total: i128 = xs.iter().map(|&x| i128::from(fp.encode(x).unwrap())).sum();
        let expect: f64 = xs.iter().sum();
        assert!((fp.decode_i128(total) - expect).abs() < 4.0 * fp.quantization_error());
    }

    #[test]
    fn rejects_non_finite() {
        let fp = FixedPoint::default_codec();
        assert!(fp.encode(f64::NAN).is_err());
        assert!(fp.encode(f64::INFINITY).is_err());
        assert!(fp.encode(f64::NEG_INFINITY).is_err());
    }

    #[test]
    fn rejects_overflow() {
        let fp = FixedPoint::default_codec();
        assert!(fp.encode(1e30).is_err());
        assert!(fp.encode(-1e30).is_err());
    }

    #[test]
    fn rejects_excess_precision() {
        assert!(FixedPoint::new(53).is_err());
        assert!(FixedPoint::new(52).is_ok());
    }
}
