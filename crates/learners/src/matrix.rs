//! Dense row-major `f64` matrices — the numeric interchange format between
//! encoders, preprocessors and estimators.

use crate::{LearnError, Result};

/// A dense row-major matrix. Missing values are represented as NaN until an
/// imputer removes them; estimators require NaN-free input.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Matrix {
    /// Creates a matrix from row-major data.
    pub fn from_vec(data: Vec<f64>, rows: usize, cols: usize) -> Result<Matrix> {
        if data.len() != rows * cols {
            return Err(LearnError::Shape(format!(
                "data length {} != {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Matrix { data, rows, cols })
    }

    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Creates a matrix from rows of equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Matrix> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LearnError::Shape(format!(
                    "row {i} has length {}, expected {cols}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            data,
            rows: rows.len(),
            cols,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Selects rows into a new matrix (rows may repeat).
    pub fn take_rows(&self, rows: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(rows.len() * self.cols);
        for &r in rows {
            data.extend_from_slice(self.row(r));
        }
        Matrix {
            data,
            rows: rows.len(),
            cols: self.cols,
        }
    }

    /// Selects columns into a new matrix.
    pub fn take_cols(&self, cols: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(self.rows * cols.len());
        for r in 0..self.rows {
            let row = self.row(r);
            for &c in cols {
                data.push(row[c]);
            }
        }
        Matrix {
            data,
            rows: self.rows,
            cols: cols.len(),
        }
    }

    /// Horizontally concatenates two matrices with equal row counts.
    pub fn hcat(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(LearnError::Shape(format!(
                "hcat: {} rows vs {} rows",
                self.rows, other.rows
            )));
        }
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Ok(Matrix {
            data,
            rows: self.rows,
            cols,
        })
    }

    /// True when any element is NaN (i.e. missing values remain).
    pub fn has_nan(&self) -> bool {
        self.data.iter().any(|x| x.is_nan())
    }

    /// Matrix-vector product `self · v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LearnError::Shape(format!(
                "matvec: vector length {} != cols {}",
                v.len(),
                self.cols
            )));
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum::<f64>())
            .collect())
    }

    /// Gram matrix `selfᵀ · self` (cols × cols), used by linear solvers.
    #[allow(clippy::needless_range_loop)] // triangular index pattern
    pub fn gram(&self) -> Matrix {
        let c = self.cols;
        let mut out = Matrix::zeros(c, c);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..c {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..c {
                    let v = out.get(i, j) + ri * row[j];
                    out.set(i, j, v);
                }
            }
        }
        for i in 0..c {
            for j in 0..i {
                let v = out.get(j, i);
                out.set(i, j, v);
            }
        }
        out
    }

    /// `selfᵀ · y` for a target vector `y` (length = rows).
    #[allow(clippy::needless_range_loop)] // y and rows indexed in lockstep
    pub fn t_vec(&self, y: &[f64]) -> Result<Vec<f64>> {
        if y.len() != self.rows {
            return Err(LearnError::Shape(format!(
                "t_vec: vector length {} != rows {}",
                y.len(),
                self.rows
            )));
        }
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let yr = y[r];
            if yr == 0.0 {
                continue;
            }
            for (o, x) in out.iter_mut().zip(self.row(r)) {
                *o += x * yr;
            }
        }
        Ok(out)
    }
}

/// Solves the symmetric positive-definite system `a · x = b` via Cholesky
/// decomposition; adds `ridge` to the diagonal for conditioning.
pub fn solve_spd(a: &Matrix, b: &[f64], ridge: f64) -> Result<Vec<f64>> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(LearnError::Shape("solve_spd expects square system".into()));
    }
    // Cholesky: a = L·Lᵀ.
    let mut l = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j) + if i == j { ridge } else { 0.0 };
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if sum <= 0.0 {
                    // Not positive definite even with ridge: bump and retry once.
                    return solve_spd(a, b, (ridge.max(1e-8)) * 10.0);
                }
                l[i * n + j] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    // Forward solve L·z = b.
    let mut z = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[i * n + k] * z[k];
        }
        z[i] = sum / l[i * n + i];
    }
    // Back solve Lᵀ·x = z.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = z[i];
        for k in i + 1..n {
            sum -= l[k * n + i] * x[k];
        }
        x[i] = sum / l[i * n + i];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Matrix::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 2, 3).unwrap();
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
        assert!(Matrix::from_vec(vec![1.0], 2, 3).is_err());
    }

    #[test]
    fn from_rows_validates_lengths() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
    }

    #[test]
    fn take_rows_and_cols() {
        let m = Matrix::from_vec((0..12).map(|i| i as f64).collect(), 3, 4).unwrap();
        let r = m.take_rows(&[2, 0]);
        assert_eq!(r.row(0), &[8.0, 9.0, 10.0, 11.0]);
        let c = m.take_cols(&[3, 1]);
        assert_eq!(c.row(0), &[3.0, 1.0]);
        assert_eq!(c.cols(), 2);
    }

    #[test]
    fn hcat_checks_rows() {
        let a = Matrix::zeros(2, 1);
        let b = Matrix::zeros(3, 1);
        assert!(a.hcat(&b).is_err());
        let c = a.hcat(&Matrix::zeros(2, 2)).unwrap();
        assert_eq!(c.cols(), 3);
    }

    #[test]
    fn matvec_and_gram() {
        let m = Matrix::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2).unwrap();
        assert_eq!(m.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        let g = m.gram();
        // [[1,3],[2,4]]·[[1,2],[3,4]] = [[10,14],[14,20]]
        assert_eq!(g.get(0, 0), 10.0);
        assert_eq!(g.get(0, 1), 14.0);
        assert_eq!(g.get(1, 0), 14.0);
        assert_eq!(g.get(1, 1), 20.0);
        assert_eq!(m.t_vec(&[1.0, 1.0]).unwrap(), vec![4.0, 6.0]);
    }

    #[test]
    fn solve_spd_recovers_solution() {
        // a = [[4,1],[1,3]], x = [1,2] -> b = [6,7]
        let a = Matrix::from_vec(vec![4.0, 1.0, 1.0, 3.0], 2, 2).unwrap();
        let x = solve_spd(&a, &[6.0, 7.0], 0.0).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn solve_spd_handles_singular_with_ridge() {
        // Rank-deficient matrix; ridge escalation must still return something
        // finite.
        let a = Matrix::from_vec(vec![1.0, 1.0, 1.0, 1.0], 2, 2).unwrap();
        let x = solve_spd(&a, &[2.0, 2.0], 1e-6).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn nan_detection() {
        let mut m = Matrix::zeros(2, 2);
        assert!(!m.has_nan());
        m.set(1, 1, f64::NAN);
        assert!(m.has_nan());
    }
}
