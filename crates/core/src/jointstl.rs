//! Batch JointSTL (paper §3.1, Algorithm 1).
//!
//! Solves the joint trend/seasonal model of Eq. 2,
//!
//! ```text
//! min_{τ,s}  Σ (τ_t + s_t − y_t)²  +  Σ_{t≥T} (s_t − s_{t−T})²
//!          + λ1 Σ |τ_t − τ_{t−1}|  +  λ2 Σ |τ_t − 2τ_{t−1} + τ_{t−2}|
//! ```
//!
//! with IRLS (Eq. 3–5): each ℓ1 term is replaced by `w·x² + 1/(4w)` with
//! `w = 1/(2|x|)`, and each iteration solves the SPD system of Eq. 6.
//! With the unknowns interleaved (`τ_1, s_1, τ_2, s_2, …`) the system is
//! banded with half-bandwidth `2T`; we solve it directly for small `T` and
//! by Jacobi-preconditioned conjugate gradients (matrix-free `O(N)` per CG
//! pass) for large `T`.
//!
//! The batch normal matrix is **singular**: shifting `τ → τ + c`,
//! `s → s − c` changes nothing (the constant split between trend and
//! seasonal level is unobservable). We add a tiny ridge for numerical PD
//! and afterwards re-centre the seasonal component to zero mean, moving the
//! mean into the trend — the standard identifiability convention
//! (documented in DESIGN.md §7).

// index recurrences here mirror the published algorithms; iterator
// rewrites obscure the maths
#![allow(clippy::needless_range_loop)]
use crate::system::Lambdas;
use decomp::traits::BatchDecomposer;
use tskit::error::{check_finite, Result, TsError};
use tskit::linalg::{BandedLdlt, SymBanded};
use tskit::series::Decomposition;
use tskit::stats::mean;

/// JointSTL configuration.
#[derive(Debug, Clone)]
pub struct JointStlConfig {
    /// Trend penalties (the paper ties λ1 = λ2 = λ).
    pub lambdas: Lambdas,
    /// IRLS iterations `I` (paper default 8).
    pub iters: usize,
    /// Ridge added to the diagonal for positive definiteness.
    pub ridge: f64,
    /// IRLS clamp ε for the reweighting denominators.
    pub eps: f64,
    /// Use the direct banded solver when `2T` is at most this; otherwise
    /// fall back to conjugate gradients.
    pub banded_bandwidth_limit: usize,
    /// CG relative residual tolerance.
    pub cg_tol: f64,
}

impl Default for JointStlConfig {
    fn default() -> Self {
        JointStlConfig {
            lambdas: Lambdas::default(),
            iters: 8,
            ridge: 1e-9,
            eps: 1e-10,
            banded_bandwidth_limit: 128,
            cg_tol: 1e-10,
        }
    }
}

/// The batch JointSTL decomposer (Algorithm 1).
#[derive(Debug, Clone, Default)]
pub struct JointStl {
    /// Configuration used by [`BatchDecomposer::decompose`].
    pub config: JointStlConfig,
}

impl JointStl {
    /// JointSTL with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// JointSTL with `λ1 = λ2 = lambda` (the paper's tuning convention).
    pub fn with_lambda(lambda: f64) -> Self {
        JointStl {
            config: JointStlConfig {
                lambdas: Lambdas { lambda1: lambda, lambda2: lambda },
                ..Default::default()
            },
        }
    }
}

#[inline]
fn irls_weight(x: f64, eps: f64) -> f64 {
    1.0 / (2.0 * x.abs().max(eps))
}

/// Matrix-free application of the Eq. 6 operator in interleaved layout.
#[allow(clippy::too_many_arguments)]
fn apply(
    x: &[f64],
    out: &mut [f64],
    y_len: usize,
    period: usize,
    lambdas: Lambdas,
    pw: &[f64],
    qw: &[f64],
    ridge: f64,
) {
    let n = y_len;
    for (o, &xi) in out.iter_mut().zip(x.iter()) {
        *o = ridge * xi;
    }
    for j in 0..n {
        let v = x[2 * j] + x[2 * j + 1];
        out[2 * j] += v;
        out[2 * j + 1] += v;
    }
    for j in period..n {
        let d = x[2 * j + 1] - x[2 * (j - period) + 1];
        out[2 * j + 1] += d;
        out[2 * (j - period) + 1] -= d;
    }
    for j in 1..n {
        let d = lambdas.lambda1 * pw[j] * (x[2 * j] - x[2 * (j - 1)]);
        out[2 * j] += d;
        out[2 * (j - 1)] -= d;
    }
    for j in 2..n {
        let d = lambdas.lambda2 * qw[j] * (x[2 * j] - 2.0 * x[2 * (j - 1)] + x[2 * (j - 2)]);
        out[2 * j] += d;
        out[2 * (j - 1)] -= 2.0 * d;
        out[2 * (j - 2)] += d;
    }
}

/// Diagonal of the Eq. 6 operator (Jacobi preconditioner), into `d`.
fn diagonal(
    d: &mut [f64],
    y_len: usize,
    period: usize,
    lambdas: Lambdas,
    pw: &[f64],
    qw: &[f64],
    ridge: f64,
) {
    let n = y_len;
    d.fill(ridge);
    for j in 0..n {
        d[2 * j] += 1.0;
        d[2 * j + 1] += 1.0;
    }
    for j in period..n {
        d[2 * j + 1] += 1.0;
        d[2 * (j - period) + 1] += 1.0;
    }
    for j in 1..n {
        let w = lambdas.lambda1 * pw[j];
        d[2 * j] += w;
        d[2 * (j - 1)] += w;
    }
    for j in 2..n {
        let w = lambdas.lambda2 * qw[j];
        d[2 * j] += w;
        d[2 * (j - 1)] += 4.0 * w;
        d[2 * (j - 2)] += w;
    }
}

/// Per-decomposition solver workspace, allocated once and reused by every
/// IRLS iteration.
enum Workspace {
    /// The banded Eq. 6 matrix and its LDLᵀ factorization.
    Banded { a: SymBanded, fac: BandedLdlt },
    /// Conjugate gradients (large `T`).
    Cg(CgWork),
}

/// The CG work vectors: Jacobi diagonal, `A·p`, residual, preconditioned
/// residual, search direction.
struct CgWork {
    diag: Vec<f64>,
    ax: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
}

impl Workspace {
    fn banded(y_len: usize, period: usize) -> Self {
        let a = SymBanded::zeros(2 * y_len, (2 * period).max(4));
        Workspace::Banded { fac: BandedLdlt { l: a.clone(), d: vec![0.0; 2 * y_len] }, a }
    }

    fn cg(y_len: usize) -> Self {
        let v = vec![0.0; 2 * y_len];
        Workspace::Cg(CgWork {
            diag: v.clone(),
            ax: v.clone(),
            r: v.clone(),
            z: v.clone(),
            p: v,
        })
    }
}

/// Jacobi-preconditioned conjugate gradients with warm start.
#[allow(clippy::too_many_arguments)]
fn solve_cg(
    b: &[f64],
    x0: &mut [f64],
    y_len: usize,
    period: usize,
    lambdas: Lambdas,
    pw: &[f64],
    qw: &[f64],
    ridge: f64,
    tol: f64,
    work: &mut CgWork,
) {
    let n = b.len();
    let CgWork { diag, ax, r, z, p } = work;
    diagonal(diag, y_len, period, lambdas, pw, qw, ridge);
    apply(x0, ax, y_len, period, lambdas, pw, qw, ridge);
    for ((ri, bi), ai) in r.iter_mut().zip(b).zip(ax.iter()) {
        *ri = bi - ai;
    }
    let bnorm = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
    for ((zi, ri), di) in z.iter_mut().zip(r.iter()).zip(diag.iter()) {
        *zi = ri / di;
    }
    p.copy_from_slice(z);
    let mut rz: f64 = r.iter().zip(z.iter()).map(|(a, c)| a * c).sum();
    let max_iter = 20 * n;
    for _ in 0..max_iter {
        let rnorm = r.iter().map(|v| v * v).sum::<f64>().sqrt();
        if rnorm / bnorm < tol {
            break;
        }
        apply(p, ax, y_len, period, lambdas, pw, qw, ridge);
        let pap: f64 = p.iter().zip(ax.iter()).map(|(a, c)| a * c).sum();
        if pap <= 0.0 {
            break; // numerical loss of definiteness; accept current iterate
        }
        let alpha = rz / pap;
        for i in 0..n {
            x0[i] += alpha * p[i];
            r[i] -= alpha * ax[i];
        }
        for i in 0..n {
            z[i] = r[i] / diag[i];
        }
        let rz_new: f64 = r.iter().zip(z.iter()).map(|(a, c)| a * c).sum();
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
}

/// Assembles the Eq. 6 system into `a` and solves it directly into `x`.
#[allow(clippy::too_many_arguments)]
fn solve_banded(
    b: &[f64],
    x: &mut [f64],
    a: &mut SymBanded,
    fac: &mut BandedLdlt,
    y_len: usize,
    period: usize,
    lambdas: Lambdas,
    pw: &[f64],
    qw: &[f64],
    ridge: f64,
) -> Result<()> {
    let n = y_len;
    a.clear();
    for j in 0..n {
        a.add(2 * j, 2 * j, 1.0);
        a.add(2 * j + 1, 2 * j + 1, 1.0);
        a.add(2 * j, 2 * j + 1, 1.0);
    }
    for j in period..n {
        a.add(2 * j + 1, 2 * j + 1, 1.0);
        a.add(2 * (j - period) + 1, 2 * (j - period) + 1, 1.0);
        a.add(2 * (j - period) + 1, 2 * j + 1, -1.0);
    }
    for j in 1..n {
        let wgt = lambdas.lambda1 * pw[j];
        a.add(2 * j, 2 * j, wgt);
        a.add(2 * (j - 1), 2 * (j - 1), wgt);
        a.add(2 * (j - 1), 2 * j, -wgt);
    }
    for j in 2..n {
        let wgt = lambdas.lambda2 * qw[j];
        a.add(2 * j, 2 * j, wgt);
        a.add(2 * (j - 1), 2 * (j - 1), 4.0 * wgt);
        a.add(2 * (j - 2), 2 * (j - 2), wgt);
        a.add(2 * (j - 1), 2 * j, -2.0 * wgt);
        a.add(2 * (j - 2), 2 * (j - 1), -2.0 * wgt);
        a.add(2 * (j - 2), 2 * j, wgt);
    }
    a.add_ridge(ridge);
    fac.refactor(a)?;
    fac.solve_into(b, x);
    Ok(())
}

impl BatchDecomposer for JointStl {
    fn name(&self) -> &'static str {
        "JointSTL"
    }

    fn decompose(&self, y: &[f64], period: usize) -> Result<Decomposition> {
        let n = y.len();
        if period < 2 {
            return Err(TsError::InvalidParam {
                name: "period",
                msg: format!("JointSTL needs period >= 2, got {period}"),
            });
        }
        if n < period + 3 {
            return Err(TsError::TooShort { what: "JointSTL input", need: period + 3, got: n });
        }
        check_finite(y)?;
        let cfg = &self.config;
        // scale the ridge to the data so identifiability regularization is
        // negligible yet non-zero
        let scale = tskit::stats::variance(y).max(1.0);
        let ridge = cfg.ridge * scale;
        let mut b = vec![0.0; 2 * n];
        for j in 0..n {
            b[2 * j] = y[j];
            b[2 * j + 1] = y[j];
        }
        let mut pw = vec![1.0; n];
        let mut qw = vec![1.0; n];
        let mut x = vec![0.0; 2 * n];
        let mut ws = if 2 * period <= cfg.banded_bandwidth_limit {
            // the direct solve overwrites x outright: no warm start
            Workspace::banded(n, period)
        } else {
            // CG warm start: trend = moving average, seasonal = remainder
            let ma = tskit::smooth::centered_moving_average(y, period);
            for j in 0..n {
                x[2 * j] = ma[j];
                x[2 * j + 1] = y[j] - ma[j];
            }
            Workspace::cg(n)
        };
        for _ in 0..cfg.iters.max(1) {
            match &mut ws {
                Workspace::Banded { a, fac } => {
                    solve_banded(&b, &mut x, a, fac, n, period, cfg.lambdas, &pw, &qw, ridge)?
                }
                Workspace::Cg(work) => solve_cg(
                    &b,
                    &mut x,
                    n,
                    period,
                    cfg.lambdas,
                    &pw,
                    &qw,
                    ridge,
                    cfg.cg_tol,
                    work,
                ),
            }
            for j in 1..n {
                pw[j] = irls_weight(x[2 * j] - x[2 * (j - 1)], cfg.eps);
            }
            for j in 2..n {
                qw[j] = irls_weight(x[2 * j] - 2.0 * x[2 * (j - 1)] + x[2 * (j - 2)], cfg.eps);
            }
        }
        let mut trend: Vec<f64> = (0..n).map(|j| x[2 * j]).collect();
        let mut seasonal: Vec<f64> = (0..n).map(|j| x[2 * j + 1]).collect();
        // identifiability: centre the seasonal component
        let m = mean(&seasonal);
        for s in seasonal.iter_mut() {
            *s -= m;
        }
        for t in trend.iter_mut() {
            *t += m;
        }
        let residual: Vec<f64> = (0..n).map(|j| y[j] - trend[j] - seasonal[j]).collect();
        Ok(Decomposition { trend, seasonal, residual })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tskit::stats::mae;

    fn gen(n: usize, t: usize, jump: bool, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let trend: Vec<f64> = (0..n)
            .map(|i| if jump && i >= n / 2 { 3.0 } else { 0.0 } + 0.001 * i as f64)
            .collect();
        let season: Vec<f64> =
            (0..n).map(|i| (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()).collect();
        let y: Vec<f64> =
            (0..n).map(|i| trend[i] + season[i] + 0.05 * rng.gen_range(-1.0..1.0)).collect();
        (y, trend, season)
    }

    #[test]
    fn decomposes_stationary_signal() {
        let (y, truth_trend, truth_season) = gen(240, 24, false, 1);
        let d = JointStl::with_lambda(100.0).decompose(&y, 24).unwrap();
        assert_eq!(d.check_additive(&y, 1e-9), None);
        let te = mae(&d.trend[24..216], &truth_trend[24..216]);
        let se = mae(&d.seasonal[24..216], &truth_season[24..216]);
        assert!(te < 0.12, "trend MAE {te}");
        assert!(se < 0.12, "seasonal MAE {se}");
    }

    #[test]
    fn captures_abrupt_trend_change() {
        let (y, truth_trend, _) = gen(300, 20, true, 2);
        let d = JointStl::with_lambda(10.0).decompose(&y, 20).unwrap();
        // jump must survive: trend right after the change is close to truth
        let err_after = (d.trend[160] - truth_trend[160]).abs();
        assert!(err_after < 0.6, "trend after jump off by {err_after}");
        let jump_size = d.trend[155] - d.trend[145];
        assert!(jump_size > 1.5, "jump flattened: {jump_size}");
    }

    #[test]
    fn cg_path_matches_banded_path() {
        let (y, _, _) = gen(200, 16, false, 3);
        let banded = JointStl {
            config: JointStlConfig {
                banded_bandwidth_limit: 1024,
                iters: 4,
                ..Default::default()
            },
        }
        .decompose(&y, 16)
        .unwrap();
        let cg = JointStl {
            config: JointStlConfig {
                banded_bandwidth_limit: 0,
                iters: 4,
                ..Default::default()
            },
        }
        .decompose(&y, 16)
        .unwrap();
        let dt = mae(&banded.trend, &cg.trend);
        let ds = mae(&banded.seasonal, &cg.seasonal);
        assert!(dt < 1e-5, "trend mismatch {dt}");
        assert!(ds < 1e-5, "seasonal mismatch {ds}");
    }

    #[test]
    fn seasonal_component_is_centred() {
        let (y, _, _) = gen(200, 10, false, 4);
        let d = JointStl::new().decompose(&y, 10).unwrap();
        assert!(mean(&d.seasonal).abs() < 1e-8);
    }

    #[test]
    fn input_validation() {
        let j = JointStl::new();
        assert!(j.decompose(&[1.0; 4], 10).is_err());
        assert!(j.decompose(&[1.0; 100], 1).is_err());
        assert!(j.decompose(&[f64::NAN; 100], 10).is_err());
    }
}
