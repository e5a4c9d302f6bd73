//! Neural-network building blocks: dense layers, ReLU, softmax, and
//! cross-entropy.

use crate::linalg::Matrix;
use crate::optim::Adam;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fully-connected layer `y = xW + b` with its own Adam state.
#[derive(Clone, Debug)]
pub struct Dense {
    /// Weight matrix, `in_dim × out_dim`.
    pub w: Matrix,
    /// Bias vector, `out_dim`.
    pub b: Vec<f64>,
    adam_w: Adam,
    adam_b: Adam,
}

impl Dense {
    /// Xavier-uniform initialization with a seeded RNG.
    #[must_use]
    pub fn new(in_dim: usize, out_dim: usize, lr: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let mut w = Matrix::zeros(in_dim, out_dim);
        for r in 0..in_dim {
            for c in 0..out_dim {
                w.set(r, c, rng.gen_range(-bound..bound));
            }
        }
        Dense {
            w,
            b: vec![0.0; out_dim],
            adam_w: Adam::new(in_dim * out_dim, lr),
            adam_b: Adam::new(out_dim, lr),
        }
    }

    /// Forward pass: `x · W + b`.
    #[must_use]
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.w);
        z.add_row_broadcast(&self.b);
        z
    }

    /// Backward pass: given the layer input `x` and upstream gradient `dz`,
    /// applies the Adam update and returns `dx`.
    pub fn backward_update(&mut self, x: &Matrix, dz: &Matrix) -> Matrix {
        let batch = x.rows() as f64;
        let mut dw = x.t_matmul(dz);
        dw.scale_inplace(1.0 / batch);
        let mut db = dz.col_sums();
        db.iter_mut().for_each(|v| *v /= batch);
        let dx = dz.matmul_t(&self.w);
        self.adam_w.step(self.w.as_mut_slice(), dw.as_slice());
        self.adam_b.step(&mut self.b, &db);
        dx
    }

    /// Updates the learning rate of both Adam states.
    pub fn set_learning_rate(&mut self, lr: f64) {
        self.adam_w.set_learning_rate(lr);
        self.adam_b.set_learning_rate(lr);
    }
}

/// ReLU applied element-wise, returning a new matrix.
#[must_use]
pub fn relu(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    out.map_inplace(|v| v.max(0.0));
    out
}

/// Gradient mask of ReLU: `dz ⊙ 1[z > 0]`.
#[must_use]
pub fn relu_backward(z: &Matrix, dz: &Matrix) -> Matrix {
    let mut out = dz.clone();
    for r in 0..out.rows() {
        let zr = z.row(r);
        for (c, v) in out.row_mut(r).iter_mut().enumerate() {
            if zr[c] <= 0.0 {
                *v = 0.0;
            }
        }
    }
    out
}

/// Row-wise softmax (numerically stabilized).
#[must_use]
pub fn softmax(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Mean cross-entropy of softmax probabilities against integer labels.
///
/// # Panics
/// Panics on batch/label length mismatch.
#[must_use]
pub fn cross_entropy(probs: &Matrix, labels: &[usize]) -> f64 {
    assert_eq!(probs.rows(), labels.len(), "batch/label mismatch");
    let mut loss = 0.0;
    for (r, &y) in labels.iter().enumerate() {
        loss -= probs.get(r, y).max(1e-15).ln();
    }
    loss / labels.len() as f64
}

/// Gradient of mean cross-entropy w.r.t. logits: `probs - onehot(labels)`.
#[must_use]
pub fn softmax_ce_grad(probs: &Matrix, labels: &[usize]) -> Matrix {
    let mut g = probs.clone();
    for (r, &y) in labels.iter().enumerate() {
        let v = g.get(r, y) - 1.0;
        g.set(r, y, v);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rate reaches both Adam states: at zero a step moves no weight
    /// and no bias, yet the input gradient still flows back.
    #[test]
    fn set_learning_rate_reaches_both_adam_states() {
        let x = Matrix::from_rows(&[vec![1.0, -2.0]]);
        let dz = Matrix::from_rows(&[vec![0.5, -1.0, 2.0]]);
        let mut layer = Dense::new(2, 3, 0.1, 7);
        layer.set_learning_rate(0.0);
        let (w, b) = (layer.w.clone(), layer.b.clone());
        let dx = layer.backward_update(&x, &dz);
        assert_eq!(layer.w.as_slice(), w.as_slice(), "a zero rate moves no weight");
        assert_eq!(layer.b, b, "a zero rate moves no bias");
        assert_eq!(dx.as_slice(), dz.matmul_t(&w).as_slice());
        layer.set_learning_rate(0.1);
        let _ = layer.backward_update(&x, &dz);
        assert!(layer.w.as_slice().iter().zip(w.as_slice()).all(|(now, was)| now != was));
        assert!(layer.b.iter().zip(&b).all(|(now, was)| now != was));
    }

    #[test]
    fn dense_forward_shape_and_values() {
        let mut d = Dense::new(2, 3, 0.01, 1);
        // Overwrite with known weights.
        d.w = Matrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 1.0, -1.0]]);
        d.b = vec![0.5, -0.5, 0.0];
        let x = Matrix::from_rows(&[vec![2.0, 3.0]]);
        let y = d.forward(&x);
        assert_eq!(y.row(0), &[2.5, 2.5, 1.0]);
    }

    #[test]
    fn relu_and_backward() {
        let z = Matrix::from_rows(&[vec![-1.0, 0.0, 2.0]]);
        assert_eq!(relu(&z).row(0), &[0.0, 0.0, 2.0]);
        let dz = Matrix::from_rows(&[vec![5.0, 5.0, 5.0]]);
        assert_eq!(relu_backward(&z, &dz).row(0), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let l = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![1000.0, 1000.0, 1000.0]]);
        let p = softmax(&l);
        for r in 0..2 {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert!(p.row(r).iter().all(|&v| v.is_finite() && v >= 0.0));
        }
        assert!((p.get(1, 0) - 1.0 / 3.0).abs() < 1e-12, "stable under large logits");
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let p = Matrix::from_rows(&[vec![0.999, 0.001]]);
        assert!(cross_entropy(&p, &[0]) < 0.01);
        assert!(cross_entropy(&p, &[1]) > 1.0);
    }

    #[test]
    fn ce_gradient_shape() {
        let p = Matrix::from_rows(&[vec![0.3, 0.7]]);
        let g = softmax_ce_grad(&p, &[1]);
        assert!((g.get(0, 0) - 0.3).abs() < 1e-12);
        assert!((g.get(0, 1) + 0.3).abs() < 1e-12);
    }

    #[test]
    fn dense_gradient_check() {
        // Finite-difference check of dL/dx through a dense layer + CE.
        let d = Dense::new(3, 2, 0.0, 7); // lr 0 so backward_update is pure here
        let x = Matrix::from_rows(&[vec![0.3, -0.2, 0.8]]);
        let labels = [1usize];
        let loss_of = |xv: &Matrix| {
            let z = d.forward(xv);
            cross_entropy(&softmax(&z), &labels)
        };
        let z = d.forward(&x);
        let probs = softmax(&z);
        let dz = softmax_ce_grad(&probs, &labels);
        let mut d2 = d.clone();
        let dx = d2.backward_update(&x, &dz);
        let eps = 1e-6;
        for c in 0..3 {
            let mut xp = x.clone();
            xp.set(0, c, x.get(0, c) + eps);
            let mut xm = x.clone();
            xm.set(0, c, x.get(0, c) - eps);
            let num = (loss_of(&xp) - loss_of(&xm)) / (2.0 * eps);
            assert!((num - dx.get(0, c)).abs() < 1e-5, "col {c}: {num} vs {}", dx.get(0, c));
        }
    }
}
