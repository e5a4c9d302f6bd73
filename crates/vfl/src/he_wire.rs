//! Ciphertext blobs off the wire: the one place the protocols decode, sum
//! and decrypt them. Everything a peer controls — the bytes, how many
//! blobs, what each claims to carry — is checked here and surfaces as
//! [`Error::violation`], so no node panics on a frame.

use vfps_he::scheme::AdditiveHe;
use vfps_net::Error;

/// Decodes one frame's blobs under the session's scheme, chunk-parallel
/// on the global pool (results in frame order).
pub(crate) fn decode<H: AdditiveHe>(
    he: &H,
    blobs: &[Vec<u8>],
) -> Result<Vec<H::Ciphertext>, Error> {
    vfps_par::global()
        .par_map_indexed(blobs, |_, b| {
            he.ct_from_bytes(b).map_err(|e| Error::violation(format!("ciphertext: {e}")))
        })
        .into_iter()
        .collect()
}

/// The aggregation server's arrival step: a decoded contribution joins
/// the wave's others only if the sum could take it — their chunk count,
/// and per chunk [`AdditiveHe::check_sum`] (group count, headroom) — so a
/// malformed one is refused as it arrives.
pub(crate) fn admit<H: AdditiveHe>(
    he: &H,
    contributions: &mut Vec<Vec<H::Ciphertext>>,
    cts: Vec<H::Ciphertext>,
) -> Result<(), Error> {
    if let Some(first) = contributions.first().filter(|first| first.len() != cts.len()) {
        return Err(Error::violation(format!(
            "contribution of {} chunks against an aggregate of {}",
            cts.len(),
            first.len()
        )));
    }
    let mut parts = Vec::with_capacity(contributions.len() + 1);
    for (i, ct) in cts.iter().enumerate() {
        parts.clear();
        parts.extend(contributions.iter().map(|c| &c[i]));
        parts.push(ct);
        he.check_sum(&parts).map_err(|e| Error::violation(format!("contribution: {e}")))?;
    }
    contributions.push(cts);
    Ok(())
}

/// The aggregation server's step, once every live slot has reported:
/// each chunk's [`admit`]ted contributions summed in one
/// [`AdditiveHe::try_sum`] — in arrival order, which an order-sensitive
/// scheme's sums follow — and encoded, chunk-parallel on the global pool.
pub(crate) fn aggregate<H: AdditiveHe>(
    he: &H,
    contributions: &[Vec<H::Ciphertext>],
) -> Result<Vec<Vec<u8>>, Error> {
    let Some(first) = contributions.first() else {
        // Unreachable in practice: losing every contributor implies
        // losing the leader, which aborts first.
        return Err(Error::violation("no participant contributed partials"));
    };
    let chunks: Vec<usize> = (0..first.len()).collect();
    vfps_par::global()
        .par_map_indexed(&chunks, |_, &i| {
            let parts: Vec<&H::Ciphertext> = contributions.iter().map(|c| &c[i]).collect();
            let sum =
                he.try_sum(&parts).map_err(|e| Error::violation(format!("contribution: {e}")))?;
            Ok(he.ct_to_bytes(&sum))
        })
        .into_iter()
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
        let mut agg = vec![full.clone()];
        assert!(is_violation(admit(&he, &mut agg, short)), "chunk count");
        assert!(is_violation(admit(&he, &mut agg, ragged)), "group count");
        // Seventeen honest contributions overflow the 16-term headroom.
        let mut agg = Vec::new();
        for _ in 0..16 {
            admit(&he, &mut agg, full.clone()).unwrap();
        }
        assert!(is_violation(admit(&he, &mut agg, full)), "headroom");
        assert_eq!(agg.len(), 16, "a refused contribution is not kept");
        assert!(aggregate(&he, &agg).is_ok());
    }
}
