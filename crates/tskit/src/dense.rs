//! Small dense linear algebra: Gaussian elimination and least squares.
//!
//! Used by AR model fitting and the N-BEATS basis projections. These systems
//! are tiny (a handful of unknowns) so a straightforward partial-pivoting
//! implementation is appropriate. LOESS solves its own ≤ 3×3 fits on the
//! stack with the same operations (see [`crate::loess`]); its tests use this
//! module as the reference.

use crate::error::{Result, TsError};

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "Mat::from_vec: size mismatch");
        Mat { rows, cols, data }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.rows, "matmul: inner dimension mismatch");
        let mut out = Mat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Matrix-vector product.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len(), "matvec: dimension mismatch");
        (0..self.rows).map(|i| (0..self.cols).map(|j| self[(i, j)] * x[j]).sum()).collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Solves the square system `self * x = b` by Gaussian elimination with
    /// partial pivoting. `self` must be square.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve: matrix must be square");
        assert_eq!(b.len(), self.rows, "solve: rhs length mismatch");
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // partial pivot
            let mut piv = col;
            let mut best = a[col * n + col].abs();
            for r in col + 1..n {
                let v = a[r * n + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < 1e-300 {
                return Err(TsError::Singular { pivot: col });
            }
            if piv != col {
                for j in 0..n {
                    a.swap(col * n + j, piv * n + j);
                }
                x.swap(col, piv);
            }
            let d = a[col * n + col];
            for r in col + 1..n {
                let f = a[r * n + col] / d;
                if f == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[r * n + j] -= f * a[col * n + j];
                }
                x[r] -= f * x[col];
            }
        }
        for col in (0..n).rev() {
            let mut s = x[col];
            for j in col + 1..n {
                s -= a[col * n + j] * x[j];
            }
            x[col] = s / a[col * n + col];
        }
        Ok(x)
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Weighted least squares: minimizes `Σ w_i (a_i · x − b_i)²` via the normal
/// equations with an optional `ridge` on the diagonal for stability.
///
/// `design` is `m × k` with `m = b.len()`; weights default to 1 when `None`.
pub fn weighted_lstsq(
    design: &Mat,
    b: &[f64],
    weights: Option<&[f64]>,
    ridge: f64,
) -> Result<Vec<f64>> {
    let m = design.rows();
    let k = design.cols();
    assert_eq!(b.len(), m, "weighted_lstsq: rhs length mismatch");
    if let Some(w) = weights {
        assert_eq!(w.len(), m, "weighted_lstsq: weights length mismatch");
    }
    let mut ata = Mat::zeros(k, k);
    let mut atb = vec![0.0; k];
    for i in 0..m {
        let wi = weights.map_or(1.0, |w| w[i]);
        if wi == 0.0 {
            continue;
        }
        for p in 0..k {
            let ap = design[(i, p)];
            if ap == 0.0 {
                continue;
            }
            atb[p] += wi * ap * b[i];
            for q in p..k {
                ata[(p, q)] += wi * ap * design[(i, q)];
            }
        }
    }
    // mirror upper to lower, apply ridge
    for p in 0..k {
        ata[(p, p)] += ridge;
        for q in p + 1..k {
            let v = ata[(p, q)];
            ata[(q, p)] = v;
        }
    }
    ata.solve(&atb)
}

/// Ordinary least squares (no weights).
pub fn lstsq(design: &Mat, b: &[f64], ridge: f64) -> Result<Vec<f64>> {
    weighted_lstsq(design, b, None, ridge)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_system() {
        // [[2,1],[1,3]] x = [3,5] -> x = [4/5, 7/5]
        let a = Mat::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // leading zero forces a row swap
        let a = Mat::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(a.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn matmul_identity() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let i3 = Mat::identity(3);
        assert_eq!(a.matmul(&i3), a);
        let at = a.transpose();
        assert_eq!(at.rows(), 3);
        assert_eq!(at[(2, 1)], 6.0);
    }

    #[test]
    fn lstsq_recovers_line() {
        // y = 2x + 1 exactly
        let n = 10;
        let mut design = Mat::zeros(n, 2);
        let mut b = vec![0.0; n];
        for i in 0..n {
            design[(i, 0)] = 1.0;
            design[(i, 1)] = i as f64;
            b[i] = 1.0 + 2.0 * i as f64;
        }
        let x = lstsq(&design, &b, 0.0).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn weights_downweight_outlier() {
        // one gross outlier, weight zero: perfect fit again
        let n = 6;
        let mut design = Mat::zeros(n, 2);
        let mut b = vec![0.0; n];
        let mut w = vec![1.0; n];
        for i in 0..n {
            design[(i, 0)] = 1.0;
            design[(i, 1)] = i as f64;
            b[i] = 3.0 - 0.5 * i as f64;
        }
        b[3] = 100.0;
        w[3] = 0.0;
        let x = weighted_lstsq(&design, &b, Some(&w), 0.0).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-9);
        assert!((x[1] + 0.5).abs() < 1e-9);
    }
}
