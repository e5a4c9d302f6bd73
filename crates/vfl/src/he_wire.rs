//! Ciphertext blobs off the wire: the one place the protocols decode, sum
//! and decrypt them. Everything a peer controls — the bytes, how many
//! blobs, what each claims to carry — is checked here and surfaces as
//! [`Error::violation`], so no node panics on a frame.

use vfps_he::scheme::AdditiveHe;
use vfps_net::Error;

/// Decodes one frame's blobs under the session's scheme.
pub(crate) fn decode<H: AdditiveHe>(
    he: &H,
    blobs: &[Vec<u8>],
) -> Result<Vec<H::Ciphertext>, Error> {
    blobs
        .iter()
        .map(|b| he.ct_from_bytes(b).map_err(|e| Error::violation(format!("ciphertext: {e}"))))
        .collect()
}

/// The aggregation server's step: adds one contribution, chunk by chunk,
/// into the running aggregate (`None` before the first).
pub(crate) fn sum_into<H: AdditiveHe>(
    he: &H,
    agg: Option<Vec<H::Ciphertext>>,
    cts: Vec<H::Ciphertext>,
) -> Result<Vec<H::Ciphertext>, Error> {
    let Some(prev) = agg else {
        return Ok(cts);
    };
    if prev.len() != cts.len() {
        return Err(Error::violation(format!(
            "contribution of {} chunks against an aggregate of {}",
            cts.len(),
            prev.len()
        )));
    }
    prev.iter()
        .zip(&cts)
        .map(|(a, b)| he.try_add(a, b).map_err(|e| Error::violation(format!("contribution: {e}"))))
        .collect()
}

/// The key holder's step: decodes `blobs` — consecutive
/// [`AdditiveHe::max_batch`]-sized chunks of `total` values — and decrypts
/// them in one [`AdditiveHe::decrypt_many`] call.
pub(crate) fn decrypt<H: AdditiveHe>(
    he: &H,
    blobs: &[Vec<u8>],
    total: usize,
) -> Result<Vec<f64>, Error> {
    let cts = decode(he, blobs)?;
    let chunk = he.max_batch().max(1);
    let asks: Vec<(&H::Ciphertext, usize)> = cts
        .iter()
        .enumerate()
        .map(|(i, ct)| (ct, total.saturating_sub(i * chunk).min(chunk)))
        .collect();
    let values = he
        .decrypt_many(&asks)
        .map_err(|e| Error::violation(format!("undecryptable ciphertext: {e}")))?
        .concat();
    if values.len() != total {
        return Err(Error::violation(format!(
            "{} encrypted values where {total} were due",
            values.len()
        )));
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfps_he::scheme::PaillierHe;

    fn is_violation<T: std::fmt::Debug>(r: Result<T, Error>) -> bool {
        matches!(r, Err(Error::ProtocolViolation { .. }))
    }

    #[test]
    fn decrypt_returns_the_chunked_values_in_order() {
        let he = PaillierHe::generate(256, 8, 3).unwrap();
        let values: Vec<f64> = (0..19).map(|i| f64::from(i) * 0.5).collect();
        let chunks: Vec<&[f64]> = values.chunks(8).collect();
        let blobs: Vec<Vec<u8>> =
            he.encrypt_many(&chunks).unwrap().iter().map(|ct| he.ct_to_bytes(ct)).collect();
        assert_eq!(decrypt(&he, &blobs, 19).unwrap(), values);
        // Fewer blobs, or fewer values in them, than the protocol step is due.
        assert!(is_violation(decrypt(&he, &blobs[..2], 19)));
        assert!(is_violation(decrypt(&he, &blobs, 24)));
    }

    #[test]
    fn frames_that_lie_are_violations_not_panics() {
        let he = PaillierHe::generate(256, 8, 4).unwrap();
        let blob = |values: &[f64]| he.ct_to_bytes(&he.encrypt(values).unwrap());
        let mut lying = blob(&[1.0; 8]);
        lying[4..8].copy_from_slice(&1000u32.to_le_bytes()); // terms
        assert!(is_violation(decode(&he, std::slice::from_ref(&lying))));
        assert!(is_violation(decrypt(&he, &[lying], 8)));

        let full = decode(&he, &[blob(&[1.0; 8]), blob(&[2.0; 8])]).unwrap();
        let short = decode(&he, &[blob(&[1.0; 8])]).unwrap();
        let ragged = decode(&he, &[blob(&[1.0; 8]), blob(&[2.0; 3])]).unwrap();
        assert!(is_violation(sum_into(&he, Some(full.clone()), short)), "chunk count");
        assert!(is_violation(sum_into(&he, Some(full.clone()), ragged)), "group count");
        // Seventeen honest contributions overflow the 16-term headroom.
        let mut agg = None;
        for _ in 0..16 {
            agg = Some(sum_into(&he, agg, full.clone()).unwrap());
        }
        assert!(is_violation(sum_into(&he, agg, full)), "headroom");
    }
}
