//! Key serialization — the key-server role's wire format.
//!
//! The paper's key server generates a keypair, distributes the public key
//! to every participant and the aggregation server, and sends the secret
//! key to the leader. These codecs give those messages a concrete,
//! versioned byte format (length-prefixed big-endian integers with a
//! magic+version header).

use crate::bigint::BigUint;
use crate::error::{Error, Result};

const MAGIC: &[u8; 4] = b"VFPK";
const VERSION: u8 = 1;

fn put_biguint(buf: &mut Vec<u8>, v: &BigUint) {
    let bytes = v.to_bytes_be();
    buf.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    buf.extend_from_slice(&bytes);
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if input.len() < n {
        return Err(Error::InvalidParameters("truncated key material".into()));
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

fn get_biguint(input: &mut &[u8]) -> Result<BigUint> {
    let len_bytes = take(input, 4)?;
    let len = u32::from_be_bytes(len_bytes.try_into().expect("4 bytes")) as usize;
    Ok(BigUint::from_bytes_be(take(input, len)?))
}

fn header(kind: u8) -> Vec<u8> {
    let mut buf = Vec::with_capacity(6);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    buf.push(kind);
    buf
}

fn check_header(input: &mut &[u8], kind: u8) -> Result<()> {
    let head = take(input, 6)?;
    if &head[..4] != MAGIC {
        return Err(Error::InvalidParameters("bad key magic".into()));
    }
    if head[4] != VERSION {
        return Err(Error::InvalidParameters(format!("unsupported key version {}", head[4])));
    }
    if head[5] != kind {
        return Err(Error::InvalidParameters(format!(
            "wrong key kind: expected {kind}, got {}",
            head[5]
        )));
    }
    Ok(())
}

/// Serialized Paillier public key (`kind = 0`): just the modulus `n`
/// (`n²`, `g = n+1` and the decode threshold are derived).
#[must_use]
pub fn encode_paillier_public(n: &BigUint) -> Vec<u8> {
    let mut buf = header(0);
    put_biguint(&mut buf, n);
    buf
}

/// Parses a serialized Paillier public key, returning `n`.
///
/// # Errors
/// Fails on malformed or wrong-kind input.
pub fn decode_paillier_public(mut input: &[u8]) -> Result<BigUint> {
    check_header(&mut input, 0)?;
    let n = get_biguint(&mut input)?;
    if !input.is_empty() {
        return Err(Error::InvalidParameters("trailing bytes after key".into()));
    }
    if n.bits() < crate::paillier::MIN_KEY_BITS {
        return Err(Error::KeyTooSmall { bits: n.bits(), min: crate::paillier::MIN_KEY_BITS });
    }
    Ok(n)
}

/// Serialized Paillier secret material (`kind = 1`): `(n, λ, μ)`. This
/// material decrypts on the slow oracle path only —
/// [`crate::paillier::PaillierPrivateKey::decrypt_plain`]'s full
/// `c^λ mod n²` — because the CRT decryptor every
/// [`crate::paillier::PaillierPrivateKey`] runs needs the factorization,
/// which this format deliberately does not carry off the key server.
#[must_use]
pub fn encode_paillier_secret(n: &BigUint, lambda: &BigUint, mu: &BigUint) -> Vec<u8> {
    let mut buf = header(1);
    put_biguint(&mut buf, n);
    put_biguint(&mut buf, lambda);
    put_biguint(&mut buf, mu);
    buf
}

/// Parses serialized Paillier secret material, returning `(n, λ, μ)`.
///
/// # Errors
/// Fails on malformed or wrong-kind input.
pub fn decode_paillier_secret(mut input: &[u8]) -> Result<(BigUint, BigUint, BigUint)> {
    check_header(&mut input, 1)?;
    let n = get_biguint(&mut input)?;
    let lambda = get_biguint(&mut input)?;
    let mu = get_biguint(&mut input)?;
    if !input.is_empty() {
        return Err(Error::InvalidParameters("trailing bytes after key".into()));
    }
    Ok((n, lambda, mu))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paillier::generate_keypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn public_key_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let kp = generate_keypair(&mut rng, 128).unwrap();
        let bytes = encode_paillier_public(kp.public.modulus());
        let n = decode_paillier_public(&bytes).unwrap();
        assert_eq!(&n, kp.public.modulus());
    }

    #[test]
    fn secret_key_roundtrip() {
        let n = BigUint::from_hex("deadbeefcafebabe1234567890abcdef01").unwrap();
        let lambda = BigUint::from_u64(123_456_789);
        let mu = BigUint::from_u64(987_654_321);
        let bytes = encode_paillier_secret(&n, &lambda, &mu);
        let (n2, l2, m2) = decode_paillier_secret(&bytes).unwrap();
        assert_eq!(n2, n);
        assert_eq!(l2, lambda);
        assert_eq!(m2, mu);
    }

    #[test]
    fn wrong_kind_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let kp = generate_keypair(&mut rng, 128).unwrap();
        let public = encode_paillier_public(kp.public.modulus());
        assert!(decode_paillier_secret(&public).is_err());
    }

    #[test]
    fn corrupted_inputs_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let kp = generate_keypair(&mut rng, 128).unwrap();
        let bytes = encode_paillier_public(kp.public.modulus());
        // Truncation.
        assert!(decode_paillier_public(&bytes[..bytes.len() - 1]).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(decode_paillier_public(&bad).is_err());
        // Bad version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(decode_paillier_public(&bad).is_err());
        // Trailing garbage.
        let mut bad = bytes;
        bad.push(0);
        assert!(decode_paillier_public(&bad).is_err());
    }

    #[test]
    fn undersized_modulus_rejected() {
        let bytes = encode_paillier_public(&BigUint::from_u64(12345));
        assert!(matches!(decode_paillier_public(&bytes), Err(Error::KeyTooSmall { .. })));
    }
}
