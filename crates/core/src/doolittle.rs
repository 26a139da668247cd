//! Symmetric Doolittle factorization (paper Algorithm 3).
//!
//! Factorizes a symmetric matrix as `A = L D Lᵀ` with unit lower-triangular
//! `L` and diagonal `D`. This dense version is the paper's reference
//! algorithm; its tests check it by reconstruction, against a known
//! solution and against tskit's banded factorization. No other module
//! calls it: [`crate::online_doolittle`]'s tests take as their oracle a
//! direct solve of the whole growing system over tskit's banded
//! `L D Lᵀ` ([`tskit::linalg`]), as [`crate::reference`] does.

// index recurrences here mirror the published algorithms; iterator
// rewrites obscure the maths
#![allow(clippy::needless_range_loop)]
use tskit::error::{Result, TsError};

/// Dense `L D Lᵀ` factors (row-major `L` with implicit/explicit unit
/// diagonal).
#[derive(Debug, Clone)]
pub struct DenseLdlt {
    /// Unit lower-triangular factor (full dense storage).
    pub l: Vec<Vec<f64>>,
    /// Diagonal of `D`.
    pub d: Vec<f64>,
}

/// Runs Algorithm 3 on a dense symmetric matrix.
///
/// Fails with [`TsError::Singular`] on a vanishing pivot.
pub fn symmetric_doolittle(a: &[Vec<f64>]) -> Result<DenseLdlt> {
    let n = a.len();
    let mut l = vec![vec![0.0; n]; n];
    let mut d = vec![0.0; n];
    for k in 0..n {
        debug_assert_eq!(a[k].len(), n, "matrix must be square");
        l[k][k] = 1.0;
        let mut dk = a[k][k];
        for i in 0..k {
            dk -= d[i] * l[k][i] * l[k][i];
        }
        if dk.abs() < 1e-300 {
            return Err(TsError::Singular { pivot: k });
        }
        d[k] = dk;
        for j in k + 1..n {
            let mut s = a[j][k];
            for i in 0..k {
                s -= l[j][i] * d[i] * l[k][i];
            }
            l[j][k] = s / dk;
        }
    }
    Ok(DenseLdlt { l, d })
}

impl DenseLdlt {
    /// Forward substitution `L z = b`.
    pub fn forward(&self, b: &[f64]) -> Vec<f64> {
        let n = self.d.len();
        let mut z = b.to_vec();
        for k in 0..n {
            let mut s = z[k];
            for i in 0..k {
                s -= self.l[k][i] * z[i];
            }
            z[k] = s;
        }
        z
    }

    /// Solves `A x = b` via forward, diagonal, and backward substitution.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.d.len();
        let mut z = self.forward(b);
        for k in 0..n {
            z[k] /= self.d[k];
        }
        for k in (0..n).rev() {
            let mut s = z[k];
            for j in k + 1..n {
                s -= self.l[j][k] * z[j];
            }
            z[k] = s;
        }
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut b = vec![vec![0.0; n]; n];
        for row in b.iter_mut() {
            for v in row.iter_mut() {
                *v = rnd();
            }
        }
        // A = BᵀB + I
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                let mut s = if i == j { 1.0 } else { 0.0 };
                for (k, row) in b.iter().enumerate() {
                    s += row[i] * row[j];
                    let _ = k;
                }
                a[i][j] = s;
            }
        }
        a
    }

    #[test]
    fn factorization_reconstructs() {
        let a = spd(10, 3);
        let f = symmetric_doolittle(&a).unwrap();
        for i in 0..10 {
            assert!((f.l[i][i] - 1.0).abs() < 1e-12, "unit diagonal");
            for j in 0..10 {
                let mut v = 0.0;
                for k in 0..=i.min(j) {
                    v += f.l[i][k] * f.d[k] * f.l[j][k];
                }
                assert!((v - a[i][j]).abs() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn solve_matches_known_solution() {
        let a = spd(15, 7);
        let x_true: Vec<f64> = (0..15).map(|i| (i as f64 * 0.31).cos()).collect();
        let b: Vec<f64> = (0..15).map(|i| (0..15).map(|j| a[i][j] * x_true[j]).sum()).collect();
        let f = symmetric_doolittle(&a).unwrap();
        let x = f.solve(&b);
        for i in 0..15 {
            assert!((x[i] - x_true[i]).abs() < 1e-8, "i={i}");
        }
    }

    #[test]
    fn singular_is_reported() {
        let a = vec![vec![0.0, 0.0], vec![0.0, 1.0]];
        assert!(matches!(symmetric_doolittle(&a), Err(TsError::Singular { pivot: 0 })));
    }

    #[test]
    fn matches_banded_ldlt() {
        // same factors as the banded implementation on a banded SPD matrix
        let n = 12;
        let mut dense = vec![vec![0.0; n]; n];
        let mut banded = tskit::linalg::SymBanded::zeros(n, 2);
        for i in 0..n {
            dense[i][i] = 4.0 + i as f64 * 0.1;
            banded.set(i, i, dense[i][i]);
            if i + 1 < n {
                dense[i][i + 1] = -1.0;
                dense[i + 1][i] = -1.0;
                banded.set(i + 1, i, -1.0);
            }
            if i + 2 < n {
                dense[i][i + 2] = 0.3;
                dense[i + 2][i] = 0.3;
                banded.set(i + 2, i, 0.3);
            }
        }
        let fd = symmetric_doolittle(&dense).unwrap();
        let fb = banded.ldlt().unwrap();
        for k in 0..n {
            assert!((fd.d[k] - fb.d[k]).abs() < 1e-10);
            for j in k..n {
                assert!((fd.l[j][k] - fb.l.get(j, k)).abs() < 1e-10, "L({j},{k})");
            }
        }
    }
}
