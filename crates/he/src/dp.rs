//! Differential-privacy mechanisms — the alternative protection technique
//! the paper surveys (§II): instead of encrypting transmitted statistics,
//! perturb them with calibrated noise. Provided so the repo can ablate
//! DP-protected selection against the HE-protected protocol (the paper's
//! observation: "adding noises inevitably affects the model accuracy").

use rand::Rng;

use crate::error::{Error, Result};

/// The Laplace mechanism: adds `Lap(Δ/ε)` noise for ε-DP release of a
/// statistic with L1 sensitivity `Δ`.
#[derive(Clone, Copy, Debug)]
pub struct LaplaceMechanism {
    scale: f64,
}

impl LaplaceMechanism {
    /// Calibrates for sensitivity `Δ` and privacy budget `ε`.
    ///
    /// # Errors
    /// Returns [`Error::InvalidParameters`] for non-positive inputs.
    pub fn new(sensitivity: f64, epsilon: f64) -> Result<Self> {
        if !(sensitivity > 0.0 && sensitivity.is_finite()) {
            return Err(Error::InvalidParameters(format!(
                "sensitivity {sensitivity} must be positive"
            )));
        }
        if !(epsilon > 0.0 && epsilon.is_finite()) {
            return Err(Error::InvalidParameters(format!("epsilon {epsilon} must be positive")));
        }
        Ok(LaplaceMechanism { scale: sensitivity / epsilon })
    }

    /// The noise scale `b = Δ/ε`.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Draws one noise sample by inverse-CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(-0.5..0.5);
        -self.scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
    }

    /// Privatizes one value.
    pub fn privatize<R: Rng + ?Sized>(&self, value: f64, rng: &mut R) -> f64 {
        value + self.sample(rng)
    }
}

/// The Gaussian mechanism: adds `N(0, σ²)` noise for (ε, δ)-DP release of
/// a statistic with L2 sensitivity `Δ`, with the classic calibration
/// `σ = Δ·√(2 ln(1.25/δ))/ε` (valid for ε ≤ 1).
#[derive(Clone, Copy, Debug)]
pub struct GaussianMechanism {
    sigma: f64,
}

impl GaussianMechanism {
    /// Calibrates for sensitivity `Δ` and budget `(ε, δ)`.
    ///
    /// # Errors
    /// Returns [`Error::InvalidParameters`] for out-of-range inputs.
    pub fn new(sensitivity: f64, epsilon: f64, delta: f64) -> Result<Self> {
        if !(sensitivity > 0.0 && sensitivity.is_finite()) {
            return Err(Error::InvalidParameters(format!(
                "sensitivity {sensitivity} must be positive"
            )));
        }
        if !(epsilon > 0.0 && epsilon <= 1.0) {
            return Err(Error::InvalidParameters(format!(
                "epsilon {epsilon} must be in (0, 1] for this calibration"
            )));
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(Error::InvalidParameters(format!("delta {delta} must be in (0, 1)")));
        }
        let sigma = sensitivity * (2.0 * (1.25 / delta).ln()).sqrt() / epsilon;
        Ok(GaussianMechanism { sigma })
    }

    /// The noise standard deviation.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws one noise sample (Box–Muller).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        self.sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Privatizes one value.
    pub fn privatize<R: Rng + ?Sized>(&self, value: f64, rng: &mut R) -> f64 {
        value + self.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stats(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn laplace_moments() {
        let mech = LaplaceMechanism::new(1.0, 0.5).unwrap();
        assert_eq!(mech.scale(), 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..20_000).map(|_| mech.sample(&mut rng)).collect();
        let (mean, var) = stats(&samples);
        assert!(mean.abs() < 0.1, "mean {mean}");
        // Var(Lap(b)) = 2b² = 8.
        assert!((var - 8.0).abs() < 0.8, "var {var}");
    }

    #[test]
    fn gaussian_moments() {
        let mech = GaussianMechanism::new(1.0, 1.0, 1e-5).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..20_000).map(|_| mech.sample(&mut rng)).collect();
        let (mean, var) = stats(&samples);
        assert!(mean.abs() < 0.1, "mean {mean}");
        let expect = mech.sigma() * mech.sigma();
        assert!((var - expect).abs() / expect < 0.1, "var {var} vs {expect}");
    }

    #[test]
    fn noise_shrinks_with_budget() {
        let loose = LaplaceMechanism::new(1.0, 10.0).unwrap();
        let tight = LaplaceMechanism::new(1.0, 0.1).unwrap();
        assert!(loose.scale() < tight.scale());
        let g_loose = GaussianMechanism::new(1.0, 1.0, 1e-5).unwrap();
        let g_tight = GaussianMechanism::new(1.0, 0.1, 1e-5).unwrap();
        assert!(g_loose.sigma() < g_tight.sigma());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(LaplaceMechanism::new(0.0, 1.0).is_err());
        assert!(LaplaceMechanism::new(1.0, 0.0).is_err());
        assert!(LaplaceMechanism::new(f64::NAN, 1.0).is_err());
        assert!(GaussianMechanism::new(1.0, 2.0, 1e-5).is_err());
        assert!(GaussianMechanism::new(1.0, 0.5, 0.0).is_err());
    }

    #[test]
    fn privatize_adds_exactly_one_sample() {
        let lap = LaplaceMechanism::new(1.0, 0.5).unwrap();
        let gauss = GaussianMechanism::new(1.0, 0.5, 1e-5).unwrap();
        for value in [0.0, -3.5, 1e6] {
            let noise = lap.sample(&mut StdRng::seed_from_u64(7));
            assert_eq!(lap.privatize(value, &mut StdRng::seed_from_u64(7)), value + noise);
            let noise = gauss.sample(&mut StdRng::seed_from_u64(7));
            assert_eq!(gauss.privatize(value, &mut StdRng::seed_from_u64(7)), value + noise);
        }
    }
}
