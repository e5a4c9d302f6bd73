//! Evaluation metrics.

/// Fraction of predictions matching labels.
///
/// # Panics
/// Panics on length mismatch or empty input.
#[must_use]
pub fn accuracy(pred: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "prediction/label length mismatch");
    assert!(!pred.is_empty(), "empty evaluation set");
    let hits = pred.iter().zip(truth).filter(|(p, t)| p == t).count();
    hits as f64 / pred.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_hits() {
        assert_eq!(accuracy(&[0, 1, 1, 0], &[0, 1, 0, 0]), 0.75);
        assert_eq!(accuracy(&[1], &[1]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_rejects_mismatch() {
        let _ = accuracy(&[0], &[0, 1]);
    }
}
