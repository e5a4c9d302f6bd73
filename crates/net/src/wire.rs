//! Hand-rolled binary wire codec.
//!
//! Byte counts drive the communication cost model, so the encoding is kept
//! explicit and deterministic: little-endian fixed-width integers, `f64` as
//! IEEE-754 bits, and length-prefixed sequences. No external serialization
//! crate is used (DESIGN.md §5).

use std::fmt;
use std::io::{Read, Write};

/// Decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    UnexpectedEnd,
    /// An enum tag byte was not recognized.
    BadTag(u8),
    /// A declared length exceeds the remaining input.
    BadLength(usize),
    /// The value decoded but breaks an invariant of the record holding it.
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd => write!(f, "unexpected end of input"),
            WireError::BadTag(t) => write!(f, "unrecognized tag byte {t}"),
            WireError::BadLength(l) => write!(f, "declared length {l} exceeds input"),
            WireError::Invalid(what) => write!(f, "invalid record: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Types with a canonical wire encoding.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes a value from the front of `input`, advancing it.
    ///
    /// # Errors
    /// Returns a [`WireError`] on truncated or malformed input.
    fn decode(input: &mut &[u8]) -> Result<Self, WireError>;

    /// Exact encoded size in bytes.
    fn encoded_len(&self) -> usize;

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf
    }

    /// Decodes a value that must consume the entire input.
    ///
    /// # Errors
    /// Returns [`WireError::BadLength`] when trailing bytes remain.
    fn from_bytes(mut input: &[u8]) -> Result<Self, WireError> {
        let v = Self::decode(&mut input)?;
        if input.is_empty() {
            Ok(v)
        } else {
            Err(WireError::BadLength(input.len()))
        }
    }
}

/// Splits `n` bytes off the front of `input`, erroring when short — the
/// primitive decoder building block (exposed for downstream message enums).
///
/// # Errors
/// Returns [`WireError::UnexpectedEnd`] when fewer than `n` bytes remain.
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if input.len() < n {
        return Err(WireError::UnexpectedEnd);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

macro_rules! impl_wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact length")))
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}

// `f64` travels as its IEEE-754 bits.
impl_wire_le!(u8, u16, u32, u64, i64, f64);

impl Wire for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(u64::decode(input)? as usize)
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(input)? as usize;
        // Guard against absurd lengths from corrupt input.
        if len > input.len().saturating_mul(8).saturating_add(16) {
            return Err(WireError::BadLength(len));
        }
        // Reserve only what the remaining input could fill: a hostile
        // length prefix must not buy memory it has no bytes for.
        let mut out = Vec::with_capacity(len.min(input.len() / std::mem::size_of::<T>().max(1)));
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = u32::decode(input)? as usize;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadTag(0xff))
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

// ---------------------------------------------------------------------------
// Declarative codecs: one field list, three methods
// ---------------------------------------------------------------------------

/// Implements [`Wire`] for a named-field struct from **one** field list:
/// `encode`, `decode` and `encoded_len` walk the same fields in the same
/// order, so they cannot drift apart. Field types are inferred from the
/// struct definition.
///
/// A field named in a `trailing_optional { .. }` tail is always written,
/// but decodes as `Default::default()` when the input ends before it — the
/// backward-compatible way to append a field to a message that is the last
/// content of its frame.
///
/// ```
/// use vfps_net::wire::Wire;
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u32, y: u32, label: u8 }
/// vfps_net::wire_struct!(Point { x, y } trailing_optional { label });
///
/// let p = Point { x: 1, y: 2, label: 3 };
/// assert_eq!(p.to_bytes(), [1, 0, 0, 0, 2, 0, 0, 0, 3]);
/// assert_eq!(Point::from_bytes(&p.to_bytes()[..8]).unwrap(), Point { label: 0, ..p });
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),+ $(,)? } $(trailing_optional { $opt:ident })?) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                $($crate::wire::Wire::encode(&self.$field, buf);)+
                $($crate::wire::Wire::encode(&self.$opt, buf);)?
            }

            fn decode(input: &mut &[u8]) -> Result<Self, $crate::wire::WireError> {
                Ok($ty {
                    $($field: $crate::wire::Wire::decode(input)?,)+
                    $($opt: if input.is_empty() {
                        Default::default()
                    } else {
                        $crate::wire::Wire::decode(input)?
                    },)?
                })
            }

            fn encoded_len(&self) -> usize {
                0 $(+ $crate::wire::Wire::encoded_len(&self.$field))+
                    $(+ $crate::wire::Wire::encoded_len(&self.$opt))?
            }
        }
    };
}

/// Implements [`Wire`] for an enum from **one** variant list, each line
/// `tag => Variant`, `tag => Variant(a, b)` or `tag => Variant { a, b }`:
/// a leading tag byte (written once, here) followed by the variant's fields
/// in the listed order. An unlisted tag decodes to [`WireError::BadTag`].
///
/// ```
/// use vfps_net::wire::{Wire, WireError};
/// #[derive(Debug, PartialEq)]
/// enum Msg { Stop, Put(u8, u8), Named { id: u16 } }
/// vfps_net::wire_enum!(Msg { 0 => Stop, 1 => Put(a, b), 7 => Named { id } });
///
/// assert_eq!(Msg::Put(5, 6).to_bytes(), [1, 5, 6]);
/// assert_eq!(Msg::from_bytes(&[7, 9, 0]), Ok(Msg::Named { id: 9 }));
/// assert_eq!(Msg::from_bytes(&[2]), Err(WireError::BadTag(2)));
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $(
        $tag:literal => $variant:ident $(($($t:ident),+))? $({ $($f:ident),+ })?
    ),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $(($($t),+))? $({ $($f),+ })? => {
                        buf.push($tag);
                        $($($crate::wire::Wire::encode($t, buf);)+)?
                        $($($crate::wire::Wire::encode($f, buf);)+)?
                    })+
                }
            }

            fn decode(input: &mut &[u8]) -> Result<Self, $crate::wire::WireError> {
                match <u8 as $crate::wire::Wire>::decode(input)? {
                    $($tag => {
                        $($(let $t = $crate::wire::Wire::decode(input)?;)+)?
                        $($(let $f = $crate::wire::Wire::decode(input)?;)+)?
                        Ok($ty::$variant $(($($t),+))? $({ $($f),+ })?)
                    })+
                    t => Err($crate::wire::WireError::BadTag(t)),
                }
            }

            fn encoded_len(&self) -> usize {
                1 + match self {
                    $($ty::$variant $(($($t),+))? $({ $($f),+ })? => {
                        0 $($(+ $crate::wire::Wire::encoded_len($t))+)?
                            $($(+ $crate::wire::Wire::encoded_len($f))+)?
                    })+
                }
            }
        }
    };
}

/// Test support: pins all three codec methods of `v` against one golden
/// hex vector — `to_bytes` must produce exactly it, `encoded_len` must
/// report its length, and `from_bytes` must read it back as `v`.
///
/// # Panics
/// On any mismatch (that is its job).
pub fn assert_wire<T: Wire + PartialEq + fmt::Debug>(v: &T, golden_hex: &str) {
    let bytes = v.to_bytes();
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, golden_hex, "to_bytes drifted for {v:?}");
    assert_eq!(v.encoded_len(), bytes.len(), "encoded_len drifted for {v:?}");
    assert_eq!(T::from_bytes(&bytes).as_ref(), Ok(v), "from_bytes drifted");
}

// ---------------------------------------------------------------------------
// Length-prefixed stream framing
// ---------------------------------------------------------------------------

/// Upper bound on a single frame's payload. Large enough for any selection
/// request or reply this workspace produces, small enough that a corrupt or
/// hostile length prefix cannot trigger a huge allocation.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// A failure while reading a framed message off a byte stream.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (including EOF *inside* a frame).
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge(usize),
    /// The payload arrived intact but does not decode as the expected type.
    Wire(WireError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
            }
            FrameError::Wire(e) => write!(f, "frame payload undecodable: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::Wire(e) => Some(e),
            FrameError::TooLarge(_) => None,
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes `msg` as one frame: a little-endian `u32` payload length followed
/// by the payload's canonical [`Wire`] encoding, then flushes. Length and
/// payload leave in **one** `write_all`: two small writes on a socket are
/// the Nagle + delayed-ACK stall (40 ms per request on loopback).
///
/// # Errors
/// Propagates stream errors; [`std::io::ErrorKind::InvalidInput`] (nothing
/// written) if the encoding exceeds [`MAX_FRAME_BYTES`] — a frame that
/// [`read_frame`] would refuse, so sending it would only poison the peer.
pub fn write_frame<W: Write>(w: &mut W, msg: &impl Wire) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(4 + msg.encoded_len());
    frame.extend_from_slice(&[0; 4]);
    msg.encode(&mut frame);
    let len = frame.len() - 4;
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            FrameError::TooLarge(len).to_string(),
        ));
    }
    frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame and decodes its payload. Returns `Ok(None)` on a clean
/// EOF *at a frame boundary* (the peer closed between messages); EOF inside
/// a frame is an [`FrameError::Io`] error.
///
/// # Errors
/// [`FrameError`] on stream failure, an oversized length prefix, or a
/// payload that does not decode as `T` (trailing bytes included).
pub fn read_frame<R: Read, T: Wire>(r: &mut R) -> Result<Option<T>, FrameError> {
    let mut len_bytes = [0u8; 4];
    // Hand-rolled first-byte probe so that "peer closed between frames" is
    // distinguishable from "peer died mid-frame".
    loop {
        match r.read(&mut len_bytes[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    r.read_exact(&mut len_bytes[1..])?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    T::from_bytes(&payload).map(Some).map_err(FrameError::Wire)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_are_little_endian_fixed_width() {
        assert_wire(&0u8, "00");
        assert_wire(&u8::MAX, "ff");
        assert_wire(&12_345u32, "39300000");
        assert_wire(&u64::MAX, "ffffffffffffffff");
        assert_wire(&-42i64, "d6ffffffffffffff");
        assert_wire(&std::f64::consts::PI, "182d4454fb210940");
        assert_wire(&f64::NEG_INFINITY, "000000000000f0ff");
        assert_wire(&true, "01");
        assert_wire(&987_654usize, "06120f0000000000");
    }

    #[test]
    fn containers_are_length_prefixed() {
        assert_wire(&vec![1u64, 2, 3], "03000000010000000000000002000000000000000300000000000000");
        assert_wire(&Vec::<f64>::new(), "00000000");
        assert_wire(&"hello wire".to_owned(), "0a00000068656c6c6f2077697265");
        assert_wire(
            &(7u32, vec![1.5f64, -2.5]),
            "0700000002000000000000000000f83f00000000000004c0",
        );
        assert_wire(&vec![vec![1u8, 2], vec![], vec![3]], "03000000020000000102000000000100000003");
        assert_wire(&Option::<u64>::None, "00");
        assert_wire(&Some(42u64), "012a00000000000000");
        assert_wire(
            &vec![Some(1.5f64), None, Some(-3.0)],
            "0300000001000000000000f83f000100000000000008c0",
        );
    }

    #[test]
    fn option_tag_is_validated() {
        assert_eq!(Option::<u64>::from_bytes(&[2]), Err(WireError::BadTag(2)));
        assert_eq!(Option::<u64>::from_bytes(&[0]), Ok(None));
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = 123_456u64.to_bytes();
        assert_eq!(u64::from_bytes(&bytes[..4]), Err(WireError::UnexpectedEnd));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 1u8.to_bytes();
        bytes.push(0);
        assert!(matches!(u8::from_bytes(&bytes), Err(WireError::BadLength(1))));
    }

    #[test]
    fn bad_bool_tag_rejected() {
        assert_eq!(bool::from_bytes(&[2]), Err(WireError::BadTag(2)));
    }

    #[test]
    fn absurd_vec_length_rejected() {
        // Claim 2^31 elements with 0 bytes of payload.
        let mut buf = Vec::new();
        (u32::MAX / 2).encode(&mut buf);
        assert!(Vec::<u64>::from_bytes(&buf).is_err());
    }

    #[test]
    fn frames_roundtrip_over_a_stream() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &vec![1u64, 2, 3]).unwrap();
        write_frame(&mut buf, &"two".to_owned()).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame::<_, Vec<u64>>(&mut r).unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(read_frame::<_, String>(&mut r).unwrap(), Some("two".to_owned()));
        // Clean EOF at the frame boundary: None, not an error.
        assert!(read_frame::<_, String>(&mut r).unwrap().is_none());
    }

    #[test]
    fn truncated_frame_is_an_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &vec![7u64; 4]).unwrap();
        let mut r = &buf[..buf.len() - 3];
        assert!(matches!(read_frame::<_, Vec<u64>>(&mut r), Err(FrameError::Io(_))));
        // Truncated even inside the length prefix: still Io, not None.
        let mut r = &buf[..2];
        assert!(matches!(read_frame::<_, Vec<u64>>(&mut r), Err(FrameError::Io(_))));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let bytes = (u32::MAX).to_le_bytes().to_vec();
        let mut r = &bytes[..];
        assert!(matches!(
            read_frame::<_, Vec<u64>>(&mut r),
            Err(FrameError::TooLarge(n)) if n == u32::MAX as usize
        ));
    }

    #[test]
    fn oversized_outbound_frame_is_an_error_and_writes_nothing() {
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &vec![0u8; MAX_FRAME_BYTES]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "a refused frame must not reach the stream");
    }

    #[test]
    fn frame_payload_type_mismatch_is_a_wire_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &3u8).unwrap();
        let mut r = &buf[..];
        assert!(matches!(read_frame::<_, u64>(&mut r), Err(FrameError::Wire(_))));
    }

    #[test]
    fn vec_len_matches_distance_batches() {
        // A batch of 100 f64 partial distances costs 4 + 800 bytes.
        let batch = vec![0.5f64; 100];
        assert_eq!(batch.encoded_len(), 804);
    }
}
