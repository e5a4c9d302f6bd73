//! Error type for the HE crate.

use std::fmt;

/// Errors produced by key generation, encryption, and encoding.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Requested key width is below the supported minimum.
    KeyTooSmall {
        /// Requested bits.
        bits: usize,
        /// Minimum accepted bits.
        min: usize,
    },
    /// Requested key width is above the supported maximum.
    KeyTooLarge {
        /// Requested bits.
        bits: usize,
        /// Maximum accepted bits.
        max: usize,
    },
    /// Plaintext does not fit the scheme's message space.
    PlaintextOutOfRange,
    /// A value could not be represented in the fixed-point encoding.
    FixedPointOverflow {
        /// The offending value.
        value: f64,
    },
    /// A parameter or an input is malformed: a codec or privacy setting
    /// out of range, undecodable ciphertext or key bytes, or ciphertexts
    /// whose shapes cannot be summed.
    InvalidParameters(String),
    /// Too many values for the scheme's slot count.
    TooManySlots {
        /// Values supplied.
        got: usize,
        /// Slots available.
        max: usize,
    },
    /// A fixed-point encoding exceeds the magnitude a packed slot can hold.
    PackedValueOutOfRange {
        /// The offending encoded value.
        encoded: i64,
        /// Per-slot magnitude bound in bits.
        mag_bits: u32,
    },
    /// A packed sum exceeds the per-slot addition headroom.
    PackedHeadroomExceeded {
        /// Fresh encryptions summed into the ciphertext.
        terms: u32,
        /// Maximum the layout reserves headroom for.
        max_terms: u32,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::KeyTooSmall { bits, min } => {
                write!(f, "key width {bits} bits is below the minimum of {min}")
            }
            Error::KeyTooLarge { bits, max } => {
                write!(f, "key width {bits} bits is above the maximum of {max}")
            }
            Error::PlaintextOutOfRange => write!(f, "plaintext outside the message space"),
            Error::FixedPointOverflow { value } => {
                write!(f, "value {value} overflows the fixed-point encoding")
            }
            Error::InvalidParameters(msg) => write!(f, "invalid parameters: {msg}"),
            Error::TooManySlots { got, max } => {
                write!(f, "{got} values exceed the {max} available slots")
            }
            Error::PackedValueOutOfRange { encoded, mag_bits } => {
                write!(f, "encoded value {encoded} exceeds the 2^{mag_bits} packed-slot bound")
            }
            Error::PackedHeadroomExceeded { terms, max_terms } => {
                write!(f, "{terms} summed terms exceed the packed headroom for {max_terms}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;
