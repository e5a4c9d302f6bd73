//! The Laplace mechanism — the differential-privacy alternative the paper
//! surveys (§II): instead of encrypting transmitted statistics, perturb
//! them with calibrated noise. `experiments ablation-dp` is its one caller:
//! it noises the `d_T^p` sums of a finished HE run to price the accuracy
//! cost of noise ("adding noises inevitably affects the model accuracy").

use rand::Rng;

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
    /// Names the input that is not positive and finite.
    pub fn new(sensitivity: f64, epsilon: f64) -> Result<Self, String> {
        if !(sensitivity > 0.0 && sensitivity.is_finite()) {
            return Err(format!("sensitivity {sensitivity} must be positive"));
        }
        if !(epsilon > 0.0 && epsilon.is_finite()) {
            return Err(format!("epsilon {epsilon} must be positive"));
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn laplace_moments() {
        let mech = LaplaceMechanism::new(1.0, 0.5).unwrap();
        assert_eq!(mech.scale(), 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..20_000).map(|_| mech.sample(&mut rng)).collect();
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 0.1, "mean {mean}");
        // Var(Lap(b)) = 2b² = 8.
        assert!((var - 8.0).abs() < 0.8, "var {var}");
    }

    #[test]
    fn noise_shrinks_with_budget() {
        let loose = LaplaceMechanism::new(1.0, 10.0).unwrap();
        let tight = LaplaceMechanism::new(1.0, 0.1).unwrap();
        assert!(loose.scale() < tight.scale());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(LaplaceMechanism::new(0.0, 1.0).is_err());
        assert!(LaplaceMechanism::new(1.0, 0.0).is_err());
        assert!(LaplaceMechanism::new(f64::NAN, 1.0).is_err());
        assert!(LaplaceMechanism::new(1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn privatize_adds_exactly_one_sample() {
        let lap = LaplaceMechanism::new(1.0, 0.5).unwrap();
        for value in [0.0, -3.5, 1e6] {
            let noise = lap.sample(&mut StdRng::seed_from_u64(7));
            assert_eq!(lap.privatize(value, &mut StdRng::seed_from_u64(7)), value + noise);
        }
    }
}
