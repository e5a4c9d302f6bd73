//! Small dense linear algebra: a row-major `f64` matrix sized for the
//! paper's models (≤ 3 layers, feature dims in the hundreds).

use std::fmt;

/// A dense row-major matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zeros matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Builds from row slices.
    ///
    /// # Panics
    /// Panics on ragged input.
    #[must_use]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    #[inline]
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major view.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Selects a subset of columns (in the given order) into a new matrix.
    ///
    /// # Panics
    /// Panics on out-of-range column indices.
    #[must_use]
    pub fn select_columns(&self, cols: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, cols.len());
        for r in 0..self.rows {
            let src = self.row(r);
            let dst = out.row_mut(r);
            for (j, &c) in cols.iter().enumerate() {
                dst[j] = src[c];
            }
        }
        out
    }

    /// Selects a subset of rows (in the given order) into a new matrix.
    ///
    /// # Panics
    /// Panics on out-of-range row indices.
    #[must_use]
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// `self · other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    #[must_use]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
            for (kk, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[kk * other.cols..(kk + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `selfᵀ · other` without materializing the transpose.
    ///
    /// # Panics
    /// Panics on dimension mismatch (`self.rows != other.rows`).
    #[must_use]
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "row count mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = other.row(r);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · otherᵀ`.
    ///
    /// # Panics
    /// Panics on dimension mismatch (`self.cols != other.cols`).
    #[must_use]
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "column count mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let dot: f64 = a_row.iter().zip(b_row).map(|(x, y)| x * y).sum();
                out.set(i, j, dot);
            }
        }
        out
    }

    /// Transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Element-wise in-place map.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// In-place scaling.
    pub fn scale_inplace(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Adds a row vector to every row (bias broadcast).
    ///
    /// # Panics
    /// Panics if `bias.len() != cols`.
    pub fn add_row_broadcast(&mut self, bias: &[f64]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Sum of each column.
    #[must_use]
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            writeln!(f, "  {:?}", self.row(r))?;
        }
        if self.rows > 6 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Panics
/// Panics on length mismatch.
#[inline]
#[must_use]
pub fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Squared Euclidean distances from `q` to every point of a feature-major
/// view — `features` holds one feature per row (`F × N`, the
/// [`Matrix::transpose`] of a row-per-point view): entry `i` is
/// `squared_distance(q, point i)`, bit for bit.
///
/// Each feature is one contiguous pass that adds `(q_j − x_ij)²` into the
/// `N` running sums, feature 0 first and from the empty sum's zero — the
/// order [`squared_distance`] adds its terms in — so every sum rounds as
/// the row-wise one does while the inner loop vectorises.
///
/// # Panics
/// Panics if `q.len() != features.rows()`.
#[must_use]
pub fn squared_distances_feature_major(features: &Matrix, q: &[f64]) -> Vec<f64> {
    assert_eq!(q.len(), features.rows(), "vector length mismatch");
    let mut out = vec![std::iter::empty::<f64>().sum::<f64>(); features.cols()];
    for (j, &qj) in q.iter().enumerate() {
        for (sum, &x) in out.iter_mut().zip(features.row(j)) {
            let d = qj - x;
            *sum += d * d;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn transpose_variants_agree() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 2.0], vec![1.5, -1.0]]);
        assert_eq!(a.matmul(&b), a.transpose().t_matmul(&b));
        assert_eq!(a.matmul(&b), a.matmul_t(&b.transpose()));
    }

    #[test]
    fn select_columns_and_rows() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let cols = m.select_columns(&[2, 0]);
        assert_eq!(cols.row(0), &[3.0, 1.0]);
        let rows = m.select_rows(&[1]);
        assert_eq!(rows.row(0), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn broadcast_and_reductions() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        m.add_row_broadcast(&[10.0, 20.0]);
        assert_eq!(m.row(1), &[13.0, 24.0]);
        assert_eq!(m.col_sums(), vec![24.0, 46.0]);
    }

    #[test]
    fn scale_inplace_scales_every_entry() {
        let mut a = Matrix::from_rows(&[vec![2.0, 2.5]]);
        a.scale_inplace(2.0);
        assert_eq!(a.row(0), &[4.0, 5.0]);
    }

    #[test]
    fn squared_distance_basics() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(squared_distance(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn row_mut_writes_one_row_only() {
        let mut m = Matrix::zeros(3, 2);
        m.row_mut(1).copy_from_slice(&[5.0, 6.0]);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 5.0, 6.0, 0.0, 0.0]);
    }

    #[test]
    fn as_mut_slice_is_the_row_major_storage() {
        let mut m = Matrix::zeros(2, 3);
        m.as_mut_slice()[4] = 9.0;
        assert_eq!(m.get(1, 1), 9.0);
        assert_eq!(m.as_mut_slice().len(), 6);
    }

    #[test]
    fn map_inplace_applies_to_every_element() {
        let mut m = Matrix::from_rows(&[vec![1.0, -2.0], vec![3.0, -4.0]]);
        m.map_inplace(|v| v * v + 1.0);
        assert_eq!(m.as_slice(), &[2.0, 5.0, 10.0, 17.0]);
    }
}
