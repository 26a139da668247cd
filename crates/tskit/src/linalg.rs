//! Symmetric banded linear algebra.
//!
//! The linear systems behind JointSTL (Eq. 6/8 of the paper) and ℓ1 trend
//! filtering are symmetric positive definite with small or moderate
//! bandwidth. This module provides a compact lower-band storage format, an
//! LDLᵀ (symmetric Doolittle) factorization that preserves the band, and the
//! associated triangular solves — all `O(n·w²)` for half-bandwidth `w`.

// index recurrences here mirror the published algorithms; iterator
// rewrites obscure the maths
#![allow(clippy::needless_range_loop)]
use crate::error::{Result, TsError};

/// Symmetric matrix stored as its lower band.
///
/// `band(i, d)` holds `A[i][i-d]` for `d = 0..=w`, where `w` is the
/// half-bandwidth. Entries with `d > i` are kept as zero padding so that
/// rows have uniform stride.
#[derive(Debug, Clone, PartialEq)]
pub struct SymBanded {
    n: usize,
    w: usize,
    /// Row-major: `data[i * (w + 1) + d] = A[i][i - d]`.
    data: Vec<f64>,
}

impl SymBanded {
    /// Creates an `n×n` zero matrix with half-bandwidth `w`.
    pub fn zeros(n: usize, w: usize) -> Self {
        SymBanded { n, w, data: vec![0.0; n * (w + 1)] }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Half-bandwidth (number of sub-diagonals stored).
    pub fn bandwidth(&self) -> usize {
        self.w
    }

    #[inline]
    fn idx(&self, i: usize, d: usize) -> usize {
        i * (self.w + 1) + d
    }

    /// Returns `A[i][j]`; zero outside the band.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
        let d = hi - lo;
        if d > self.w {
            0.0
        } else {
            self.data[self.idx(hi, d)]
        }
    }

    /// Sets `A[i][j]` (and by symmetry `A[j][i]`).
    ///
    /// # Panics
    /// Panics if `|i - j|` exceeds the bandwidth.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
        let d = hi - lo;
        assert!(d <= self.w, "entry ({i},{j}) outside band w={}", self.w);
        let k = self.idx(hi, d);
        self.data[k] = v;
    }

    /// Adds `v` to `A[i][j]` (and by symmetry `A[j][i]`).
    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        let (hi, lo) = if i >= j { (i, j) } else { (j, i) };
        let d = hi - lo;
        assert!(d <= self.w, "entry ({i},{j}) outside band w={}", self.w);
        let k = self.idx(hi, d);
        self.data[k] += v;
    }

    /// Resets every entry to zero, keeping the storage.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Adds `ridge` to the whole diagonal (numerical regularization).
    pub fn add_ridge(&mut self, ridge: f64) {
        for i in 0..self.n {
            let k = self.idx(i, 0);
            self.data[k] += ridge;
        }
    }

    /// Matrix-vector product `A x` (uses symmetry, respects the band).
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "matvec: dimension mismatch");
        let mut y = vec![0.0; self.n];
        for i in 0..self.n {
            let lo = i.saturating_sub(self.w);
            for j in lo..=i {
                let a = self.data[self.idx(i, i - j)];
                y[i] += a * x[j];
                if i != j {
                    y[j] += a * x[i];
                }
            }
        }
        y
    }

    /// Converts to a dense row-major matrix (tests / debugging only).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        (0..self.n).map(|i| (0..self.n).map(|j| self.get(i, j)).collect()).collect()
    }

    /// LDLᵀ factorization (symmetric Doolittle). Returns the factors; the
    /// unit lower-triangular `L` shares this band layout (its stored
    /// diagonal entries are all 1).
    ///
    /// Fails with [`TsError::Singular`] if a pivot falls below `1e-300`
    /// in absolute value.
    pub fn ldlt(&self) -> Result<BandedLdlt> {
        let mut f = BandedLdlt { l: self.clone(), d: vec![0.0; self.n] };
        f.factor_in_place()?;
        Ok(f)
    }

    /// Solves `A x = b` via LDLᵀ.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        Ok(self.ldlt()?.solve(b))
    }
}

/// The result of a banded LDLᵀ factorization: `A = L D Lᵀ`.
#[derive(Debug, Clone)]
pub struct BandedLdlt {
    /// Unit lower-triangular factor, stored in band form.
    pub l: SymBanded,
    /// Diagonal of `D`.
    pub d: Vec<f64>,
}

impl BandedLdlt {
    /// Re-factors `a` into this factorization's storage (no allocation):
    /// the same result as [`SymBanded::ldlt`], for an `a` of the same
    /// dimension and bandwidth.
    ///
    /// # Panics
    /// Panics if `a`'s shape differs from this factorization's.
    pub fn refactor(&mut self, a: &SymBanded) -> Result<()> {
        assert!(a.n == self.l.n && a.w == self.l.w, "refactor: shape mismatch");
        self.l.data.copy_from_slice(&a.data);
        self.factor_in_place()
    }

    /// Overwrites `l`, which holds `A` on entry, with the unit lower factor
    /// `L`, and fills `d`. Column `k` reads `A`'s entries of column `k` just
    /// before overwriting them, and only `L` entries of earlier columns.
    fn factor_in_place(&mut self) -> Result<()> {
        let (n, w) = (self.l.n, self.l.w);
        let (l, d) = (&mut self.l, &mut self.d);
        for k in 0..n {
            let lo = k.saturating_sub(w);
            let mut dk = l.data[l.idx(k, 0)];
            for i in lo..k {
                let lki = l.data[l.idx(k, k - i)];
                dk -= d[i] * lki * lki;
            }
            if dk.abs() < 1e-300 {
                return Err(TsError::Singular { pivot: k });
            }
            d[k] = dk;
            let li = l.idx(k, 0);
            l.data[li] = 1.0;
            let hi = (k + w).min(n - 1);
            for j in k + 1..=hi {
                let jlo = j.saturating_sub(w);
                let idx = l.idx(j, j - k);
                let mut s = l.data[idx];
                for i in jlo.max(lo)..k {
                    s -= l.data[l.idx(j, j - i)] * d[i] * l.data[l.idx(k, k - i)];
                }
                l.data[idx] = s / dk;
            }
        }
        Ok(())
    }

    /// Forward substitution `L z = b`.
    pub fn forward(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.l.n, "forward: dimension mismatch");
        let mut z = b.to_vec();
        self.forward_in_place(&mut z);
        z
    }

    fn forward_in_place(&self, z: &mut [f64]) {
        let (n, w) = (self.l.n, self.l.w);
        for k in 0..n {
            let lo = k.saturating_sub(w);
            let mut s = z[k];
            for i in lo..k {
                s -= self.l.data[self.l.idx(k, k - i)] * z[i];
            }
            z[k] = s;
        }
    }

    /// Backward substitution `Lᵀ x = y`.
    pub fn backward(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.l.n, "backward: dimension mismatch");
        let mut x = y.to_vec();
        self.backward_in_place(&mut x);
        x
    }

    fn backward_in_place(&self, x: &mut [f64]) {
        let (n, w) = (self.l.n, self.l.w);
        for k in (0..n).rev() {
            let hi = (k + w).min(n - 1);
            let mut s = x[k];
            for j in k + 1..=hi {
                s -= self.l.data[self.l.idx(j, j - k)] * x[j];
            }
            x[k] = s;
        }
    }

    /// Full solve `A x = b` (forward, diagonal scale, backward).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; b.len()];
        self.solve_into(b, &mut x);
        x
    }

    /// [`Self::solve`] into a caller-provided buffer.
    ///
    /// # Panics
    /// Panics if `b` or `x` does not have the matrix dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        assert_eq!(b.len(), self.l.n, "solve: dimension mismatch");
        x.copy_from_slice(b);
        self.forward_in_place(x);
        for (xi, di) in x.iter_mut().zip(&self.d) {
            *xi /= di;
        }
        self.backward_in_place(x);
    }
}

/// Solves a tridiagonal system with the Thomas algorithm.
///
/// `sub`, `diag`, `sup` are the sub-, main and super-diagonals
/// (`sub.len() == sup.len() == diag.len() - 1`).
pub fn solve_tridiagonal(
    sub: &[f64],
    diag: &[f64],
    sup: &[f64],
    b: &[f64],
) -> Result<Vec<f64>> {
    let n = diag.len();
    assert_eq!(b.len(), n, "tridiagonal: rhs length mismatch");
    assert_eq!(sub.len() + 1, n, "tridiagonal: sub-diagonal length mismatch");
    assert_eq!(sup.len() + 1, n, "tridiagonal: super-diagonal length mismatch");
    let mut c = vec![0.0; n];
    let mut d = vec![0.0; n];
    if diag[0].abs() < 1e-300 {
        return Err(TsError::Singular { pivot: 0 });
    }
    c[0] = sup.first().copied().unwrap_or(0.0) / diag[0];
    d[0] = b[0] / diag[0];
    for i in 1..n {
        let m = diag[i] - sub[i - 1] * c[i - 1];
        if m.abs() < 1e-300 {
            return Err(TsError::Singular { pivot: i });
        }
        c[i] = if i < n - 1 { sup[i] / m } else { 0.0 };
        d[i] = (b[i] - sub[i - 1] * d[i - 1]) / m;
    }
    let mut x = vec![0.0; n];
    x[n - 1] = d[n - 1];
    for i in (0..n - 1).rev() {
        x[i] = d[i] - c[i] * x[i + 1];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_banded(n: usize, w: usize, seed: u64) -> SymBanded {
        // Build A = Bᵀ B + I from a random banded B: SPD by construction.
        let mut state = seed;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut a = SymBanded::zeros(n, w);
        // random banded symmetric part
        for i in 0..n {
            for d in 0..=w.min(i) {
                a.set(i, i - d, rnd());
            }
        }
        // diagonally dominate to guarantee SPD
        for i in 0..n {
            let mut rowsum = 0.0;
            for j in 0..n {
                if j != i {
                    rowsum += a.get(i, j).abs();
                }
            }
            a.set(i, i, rowsum + 1.0);
        }
        a
    }

    #[test]
    fn get_set_symmetry_and_band() {
        let mut a = SymBanded::zeros(5, 2);
        a.set(3, 1, 7.0);
        assert_eq!(a.get(3, 1), 7.0);
        assert_eq!(a.get(1, 3), 7.0);
        assert_eq!(a.get(0, 4), 0.0); // outside band reads as zero
        a.add(3, 1, 1.0);
        assert_eq!(a.get(1, 3), 8.0);
    }

    #[test]
    #[should_panic(expected = "outside band")]
    fn set_outside_band_panics() {
        let mut a = SymBanded::zeros(5, 1);
        a.set(0, 4, 1.0);
    }

    #[test]
    fn ldlt_reconstructs_matrix() {
        let a = spd_banded(12, 3, 42);
        let f = a.ldlt().unwrap();
        // Check L D Lᵀ == A entry-wise (L's stored diagonal is 1).
        let n = a.n();
        for i in 0..n {
            for j in 0..n {
                let mut v = 0.0;
                for k in 0..=i.min(j) {
                    v += f.l.get(i, k) * f.d[k] * f.l.get(j, k);
                }
                assert!(
                    (v - a.get(i, j)).abs() < 1e-9,
                    "mismatch at ({i},{j}): {v} vs {}",
                    a.get(i, j)
                );
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        for (n, w) in [(1usize, 0usize), (4, 1), (10, 2), (25, 4), (40, 7)] {
            let a = spd_banded(n, w, 7 + n as u64);
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 1.0).collect();
            let b = a.matvec(&x_true);
            let x = a.solve(&b).unwrap();
            for i in 0..n {
                assert!((x[i] - x_true[i]).abs() < 1e-8, "n={n} w={w} i={i}");
            }
        }
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = SymBanded::zeros(3, 1);
        assert!(matches!(a.ldlt(), Err(TsError::Singular { pivot: 0 })));
    }

    #[test]
    fn tridiagonal_matches_banded_solver() {
        let n = 30;
        let sub: Vec<f64> = (0..n - 1).map(|i| -0.5 - 0.01 * i as f64).collect();
        let diag: Vec<f64> = (0..n).map(|i| 3.0 + 0.1 * i as f64).collect();
        let sup = sub.clone(); // symmetric
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let x1 = solve_tridiagonal(&sub, &diag, &sup, &b).unwrap();
        let mut a = SymBanded::zeros(n, 1);
        for i in 0..n {
            a.set(i, i, diag[i]);
            if i + 1 < n {
                a.set(i + 1, i, sub[i]);
            }
        }
        let x2 = a.solve(&b).unwrap();
        for i in 0..n {
            assert!((x1[i] - x2[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn matvec_matches_dense() {
        let a = spd_banded(9, 2, 3);
        let x: Vec<f64> = (0..9).map(|i| i as f64 - 4.0).collect();
        let y = a.matvec(&x);
        let dense = a.to_dense();
        for i in 0..9 {
            let yi: f64 = (0..9).map(|j| dense[i][j] * x[j]).sum();
            assert!((y[i] - yi).abs() < 1e-10);
        }
    }
}
