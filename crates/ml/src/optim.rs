//! The Adam optimizer (Kingma & Ba, 2014) — the paper's optimizer for LR
//! and MLP training.

/// Adam state for one parameter tensor.
#[derive(Clone, Debug)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates an optimizer for `dim` parameters with the standard
    /// `β₁ = 0.9, β₂ = 0.999, ε = 1e-8`.
    #[must_use]
    pub fn new(dim: usize, lr: f64) -> Self {
        Adam { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, m: vec![0.0; dim], v: vec![0.0; dim], t: 0 }
    }

    /// Updates the learning rate (used by grid search restarts).
    pub fn set_learning_rate(&mut self, lr: f64) {
        self.lr = lr;
    }

    /// Applies one Adam step to `params` given `grads`.
    ///
    /// # Panics
    /// Panics if slice lengths disagree with the optimizer dimension.
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.m.len(), "parameter dimension mismatch");
        assert_eq!(grads.len(), self.m.len(), "gradient dimension mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grads[i];
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    /// Resets moments and step count (fresh training run, same dimension).
    pub fn reset(&mut self) {
        self.m.iter_mut().for_each(|x| *x = 0.0);
        self.v.iter_mut().for_each(|x| *x = 0.0);
        self.t = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        // f(x) = (x - 3)^2; gradient 2(x - 3).
        let mut adam = Adam::new(1, 0.1);
        let mut x = [0.0f64];
        for _ in 0..500 {
            let g = [2.0 * (x[0] - 3.0)];
            adam.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "x={}", x[0]);
    }

    #[test]
    fn first_step_size_is_lr() {
        // Adam's bias correction makes the very first step ≈ lr.
        let mut adam = Adam::new(1, 0.01);
        let mut x = [1.0f64];
        adam.step(&mut x, &[123.0]);
        assert!((x[0] - (1.0 - 0.01)).abs() < 1e-6);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut adam = Adam::new(1, 0.01);
        let mut x = [0.0f64];
        adam.step(&mut x, &[1.0]);
        adam.reset();
        let mut y = [0.0f64];
        adam.step(&mut y, &[1.0]);
        assert!((x[0] - y[0]).abs() < 1e-12, "same trajectory after reset");
    }

    #[test]
    fn handles_multiple_dims_independently() {
        let mut adam = Adam::new(2, 0.1);
        let mut x = [0.0f64, 10.0];
        for _ in 0..800 {
            let g = [2.0 * (x[0] + 1.0), 2.0 * (x[1] - 5.0)];
            adam.step(&mut x, &g);
        }
        assert!((x[0] + 1.0).abs() < 1e-2);
        assert!((x[1] - 5.0).abs() < 1e-2);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_dims() {
        let mut adam = Adam::new(2, 0.1);
        let mut x = [0.0f64];
        adam.step(&mut x, &[1.0]);
    }
}
