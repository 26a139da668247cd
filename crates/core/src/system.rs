//! Assembly of the Modified-JointSTL online linear system (paper Eq. 8).
//!
//! Unknowns are *interleaved*, `x = (τ_1, s_1, τ_2, s_2, …, τ_M, s_M)`,
//! which is what makes `A` banded with **half-bandwidth 4** independent of
//! `M` and `T` (paper Fig. 2): the trend second difference couples `τ_j`
//! and `τ_{j−2}`, which sit 4 positions apart.
//!
//! Two assembly routines are provided:
//!
//! - [`assemble_full`] builds the whole `2M × 2M` system (used by the
//!   Algorithm-2 reference solver and by the warm-up steps of the `O(1)`
//!   path), and
//! - [`assemble_block`] builds only the trailing block `A*` / `b*` that
//!   changes when a new point arrives (paper Fig. 2, red box). Its
//!   steady-state case, assembled for several independent systems at
//!   once in lane form, is the input of [`crate::online_doolittle`].
//!
//! A unit test asserts that the block equals the corresponding sub-matrix
//! of the full assembly for random weights, which is the structural claim
//! of the paper's Fig. 2.

use tskit::linalg::SymBanded;

/// Half-bandwidth of the online system (fixed by the model).
pub const BANDWIDTH: usize = 4;

/// λ hyper-parameters of the trend regularizers (Eq. 2/7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lambdas {
    /// Weight of `|τ_t − τ_{t−1}|`.
    pub lambda1: f64,
    /// Weight of `|τ_t − 2τ_{t−1} + τ_{t−2}|`.
    pub lambda2: f64,
    /// Weight of the seasonal anchor term `(s_j − v_{j mod T})²`
    /// (1 in Eq. 7; larger values pin the seasonal component harder to the
    /// previous cycle, which suppresses trend/seasonal drift on streams
    /// with trend regime changes).
    pub anchor: f64,
}

impl Default for Lambdas {
    fn default() -> Self {
        // the paper ties λ1 = λ2 = λ and tunes λ on a log grid (§5.1.4);
        // 100 is a robust middle of that grid for unit-scale data
        Lambdas { lambda1: 100.0, lambda2: 100.0, anchor: 1.0 }
    }
}

/// Data defining the online system at step `M = y.len()`:
/// observations `y`, seasonal anchors `u` (`u_j = v[(t_j + Δ) mod T]`),
/// and the IRLS weights of the current iteration.
///
/// Weight convention: `pw[j]` weights the difference `(τ_{j−1}, τ_j)` and is
/// meaningful for `j ≥ 1`; `qw[j]` weights `(τ_{j−2}, τ_{j−1}, τ_j)` for
/// `j ≥ 2`. Entries below those indices are ignored.
#[derive(Debug, Clone)]
pub struct SystemData<'a> {
    /// Observed online points `y_1..y_M` (0-based storage).
    pub y: &'a [f64],
    /// Seasonal anchor values, same length as `y`.
    pub u: &'a [f64],
    /// First-difference IRLS weights, same length as `y`.
    pub pw: &'a [f64],
    /// Second-difference IRLS weights, same length as `y`.
    pub qw: &'a [f64],
    /// Trend penalties.
    pub lambdas: Lambdas,
}

/// Builds the full banded system `(A, b)` for `M = y.len()` points.
pub fn assemble_full(data: &SystemData<'_>) -> (SymBanded, Vec<f64>) {
    let m = data.y.len();
    assert!(m >= 1, "assemble_full: need at least one point");
    assert_eq!(data.u.len(), m, "u length mismatch");
    assert_eq!(data.pw.len(), m, "pw length mismatch");
    assert_eq!(data.qw.len(), m, "qw length mismatch");
    let n = 2 * m;
    let mut a = SymBanded::zeros(n, BANDWIDTH);
    let mut b = vec![0.0; n];
    for j in 0..m {
        // C1ᵀC1: (τ_j + s_j − y_j)²
        a.add(2 * j, 2 * j, 1.0);
        a.add(2 * j + 1, 2 * j + 1, 1.0);
        a.add(2 * j, 2 * j + 1, 1.0);
        // C2ᵀC2: anchor·(s_j − u_j)²
        a.add(2 * j + 1, 2 * j + 1, data.lambdas.anchor);
        b[2 * j] = data.y[j];
        b[2 * j + 1] = data.y[j] + data.lambdas.anchor * data.u[j];
    }
    for j in 1..m {
        let w = data.lambdas.lambda1 * data.pw[j];
        a.add(2 * (j - 1), 2 * (j - 1), w);
        a.add(2 * j, 2 * j, w);
        a.add(2 * (j - 1), 2 * j, -w);
    }
    for j in 2..m {
        let w = data.lambdas.lambda2 * data.qw[j];
        a.add(2 * (j - 2), 2 * (j - 2), w);
        a.add(2 * (j - 1), 2 * (j - 1), 4.0 * w);
        a.add(2 * j, 2 * j, w);
        a.add(2 * (j - 2), 2 * (j - 1), -2.0 * w);
        a.add(2 * (j - 1), 2 * j, -2.0 * w);
        a.add(2 * (j - 2), 2 * j, w);
    }
    (a, b)
}

/// The tail block used by the `O(1)` update: at step `M` it covers the
/// unknowns of the last `min(M, 3)` time points (`6 × 6` once `M ≥ 3`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailBlock {
    /// Number of unknowns in the block (`2·min(M, 3)`).
    pub dim: usize,
    /// Dense symmetric block, `a[i][j]` for `i, j < dim`.
    pub a: [[f64; 6]; 6],
    /// Right-hand-side entries for the block's unknowns.
    pub b: [f64; 6],
}

/// Per-step input for the tail-block assembly: the last three observations
/// and weights, newest last. For `M < 3` the leading entries are ignored.
#[derive(Debug, Clone, Copy)]
pub struct TailData {
    /// Step count `M` (number of online points including the newest).
    pub m: usize,
    /// `y` at times `M−3, M−2, M−1` (0-based), newest last.
    pub y3: [f64; 3],
    /// Seasonal anchors for the same times.
    pub u3: [f64; 3],
    /// `pw` for the same times (`pw[j]` weights the diff `(j−1, j)`).
    pub p3: [f64; 3],
    /// `qw` for the same times.
    pub q3: [f64; 3],
    /// Trend penalties.
    pub lambdas: Lambdas,
}

/// Builds the trailing `A*`, `b*` block (paper Fig. 2) for step `m`.
pub fn assemble_block(t: &TailData) -> TailBlock {
    let m = t.m;
    assert!(m >= 1, "assemble_block: need at least one point");
    if m >= 5 {
        // the straight-line steady-state specialization, as one lane
        let lane = assemble_block_steady(std::array::from_ref(t));
        return TailBlock {
            dim: 6,
            a: lane.a.map(|row| row.map(|v| v[0])),
            b: lane.b.map(|v| v[0]),
        };
    }
    let k = m.min(3); // time points in the block
    let t0 = m - k; // first (0-based) time index covered
    let dim = 2 * k;
    let mut a = [[0.0; 6]; 6];
    let mut b = [0.0; 6];
    // helper: global time j -> slot in the y3/u3/p3/q3 arrays (newest last)
    let slot = |j: usize| 3 - (m - j);
    let mut add = |i: usize, jj: usize, v: f64| {
        let (lo, hi) = if i <= jj { (i, jj) } else { (jj, i) };
        a[lo][hi] += v;
        if lo != hi {
            a[hi][lo] += v;
        }
    };
    for r in 0..k {
        let j = t0 + r;
        let s = slot(j);
        add(2 * r, 2 * r, 1.0);
        add(2 * r + 1, 2 * r + 1, 1.0 + t.lambdas.anchor); // C1 + anchor·C2
        add(2 * r, 2 * r + 1, 1.0);
        b[2 * r] = t.y3[s];
        b[2 * r + 1] = t.y3[s] + t.lambdas.anchor * t.u3[s];
    }
    // first differences with j in the block (j >= 1)
    for j in t0.max(1)..m {
        let w = t.lambdas.lambda1 * t.p3[slot(j)];
        let r = j - t0;
        add(2 * r, 2 * r, w);
        if j >= 1 && j > t0 {
            let rp = j - 1 - t0;
            add(2 * rp, 2 * rp, w);
            add(2 * rp, 2 * r, -w);
        }
    }
    // second differences with j in the block (j >= 2)
    for j in t0.max(2)..m {
        let w = t.lambdas.lambda2 * t.q3[slot(j)];
        let r = j - t0;
        add(2 * r, 2 * r, w);
        if j > t0 {
            let r1 = j - 1 - t0;
            add(2 * r1, 2 * r1, 4.0 * w);
            add(2 * r1, 2 * r, -2.0 * w);
        }
        if j >= 2 && j - 2 >= t0 {
            let r2 = j - 2 - t0;
            add(2 * r2, 2 * r2, w);
            add(2 * r2, 2 * r, w);
            if j > t0 {
                let r1 = j - 1 - t0;
                add(2 * r2, 2 * r1, -2.0 * w);
            }
        }
    }
    TailBlock { dim, a, b }
}

/// The steady-state trailing blocks of `L` independent systems in lane
/// form: `a[i][j][q]` and `b[i][q]` belong to lane `q`. This is the input
/// of the lockstep OnlineDoolittle kernel
/// ([`crate::online_doolittle`]), whose scalar path is the `L = 1`
/// instance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneBlock<const L: usize> {
    /// Dense symmetric `6×6` blocks.
    pub a: [[[f64; L]; 6]; 6],
    /// Right-hand sides.
    pub b: [[f64; L]; 6],
}

/// [`assemble_block`] specialized to the steady state (`M ≥ 5`), for `L`
/// lanes at once, each with its own λ and anchor: with the first covered
/// time `t0 = M − 3 ≥ 2`, both difference loops span all three tail
/// points, so the whole assembly is branch-free straight-line code. Every
/// `+=` below replays the generic loops in their exact execution order —
/// the accumulation into each entry is bit-identical to the loop path
/// (pinned by `block_matches_full_submatrix` for `m = 5..12` and by the
/// `GOLDEN_*` fixtures end-to-end).
#[inline(always)]
pub(crate) fn assemble_block_steady<const L: usize>(tails: &[TailData; L]) -> LaneBlock<L> {
    let mut a = [[[0.0; L]; 6]; 6];
    let mut b = [[0.0; L]; 6];
    for (q, t) in tails.iter().enumerate() {
        let anchor = t.lambdas.anchor;
        // C1ᵀC1 + anchor·C2ᵀC2 per point (r = 0, 1, 2)
        a[0][0][q] += 1.0;
        a[1][1][q] += 1.0 + anchor;
        a[0][1][q] += 1.0;
        a[1][0][q] += 1.0;
        b[0][q] = t.y3[0];
        b[1][q] = t.y3[0] + anchor * t.u3[0];
        a[2][2][q] += 1.0;
        a[3][3][q] += 1.0 + anchor;
        a[2][3][q] += 1.0;
        a[3][2][q] += 1.0;
        b[2][q] = t.y3[1];
        b[3][q] = t.y3[1] + anchor * t.u3[1];
        a[4][4][q] += 1.0;
        a[5][5][q] += 1.0 + anchor;
        a[4][5][q] += 1.0;
        a[5][4][q] += 1.0;
        b[4][q] = t.y3[2];
        b[5][q] = t.y3[2] + anchor * t.u3[2];
        // first differences, j = t0, t0+1, t0+2
        let w0 = t.lambdas.lambda1 * t.p3[0];
        let w1 = t.lambdas.lambda1 * t.p3[1];
        let w2 = t.lambdas.lambda1 * t.p3[2];
        a[0][0][q] += w0;
        a[2][2][q] += w1;
        a[0][0][q] += w1;
        a[0][2][q] += -w1;
        a[2][0][q] += -w1;
        a[4][4][q] += w2;
        a[2][2][q] += w2;
        a[2][4][q] += -w2;
        a[4][2][q] += -w2;
        // second differences, j = t0, t0+1, t0+2
        let q0 = t.lambdas.lambda2 * t.q3[0];
        let q1 = t.lambdas.lambda2 * t.q3[1];
        let q2 = t.lambdas.lambda2 * t.q3[2];
        a[0][0][q] += q0;
        a[2][2][q] += q1;
        a[0][0][q] += 4.0 * q1;
        a[0][2][q] += -2.0 * q1;
        a[2][0][q] += -2.0 * q1;
        a[4][4][q] += q2;
        a[2][2][q] += 4.0 * q2;
        a[2][4][q] += -2.0 * q2;
        a[4][2][q] += -2.0 * q2;
        a[0][0][q] += q2;
        a[0][4][q] += q2;
        a[4][0][q] += q2;
        a[0][2][q] += -2.0 * q2;
        a[2][0][q] += -2.0 * q2;
    }
    LaneBlock { a, b }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_data(m: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let y: Vec<f64> = (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let u: Vec<f64> = (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let pw: Vec<f64> = (0..m).map(|_| rng.gen_range(0.01..5.0)).collect();
        let qw: Vec<f64> = (0..m).map(|_| rng.gen_range(0.01..5.0)).collect();
        (y, u, pw, qw)
    }

    #[test]
    fn full_matrix_is_banded_with_w4() {
        let (y, u, pw, qw) = random_data(8, 1);
        let data = SystemData { y: &y, u: &u, pw: &pw, qw: &qw, lambdas: Lambdas::default() };
        let (a, _) = assemble_full(&data);
        assert_eq!(a.n(), 16);
        // every entry at distance > 4 must be zero (it is by storage), and
        // the entry at distance exactly 4 is the λ2 coupling
        assert!(a.get(0, 4).abs() > 0.0, "τ_j/τ_{{j+2}} coupling missing");
        assert_eq!(a.get(0, 5), 0.0);
    }

    #[test]
    fn figure2_property_top_left_submatrix_is_stable() {
        // A_t and A_{t+1} share their top-left 2(M-2) x 2(M-2) part.
        let (y, u, pw, qw) = random_data(9, 2);
        let l = Lambdas { lambda1: 1.0, lambda2: 1.0, anchor: 1.0 };
        let d8 = SystemData { y: &y[..8], u: &u[..8], pw: &pw[..8], qw: &qw[..8], lambdas: l };
        let d9 = SystemData { y: &y[..9], u: &u[..9], pw: &pw[..9], qw: &qw[..9], lambdas: l };
        let (a8, b8) = assemble_full(&d8);
        let (a9, b9) = assemble_full(&d9);
        let stable = 2 * (8 - 2); // unknowns untouched by the new point
        for i in 0..stable {
            for j in 0..stable {
                assert!((a8.get(i, j) - a9.get(i, j)).abs() < 1e-12, "A changed at ({i},{j})");
            }
            assert!((b8[i] - b9[i]).abs() < 1e-12, "b changed at {i}");
        }
        // ...and the bottom-right 4x4 of A_t DOES change (the A_o -> A* swap)
        let base = 2 * 8 - 4;
        let mut changed = false;
        for i in base..2 * 8 {
            for j in base..2 * 8 {
                if (a8.get(i, j) - a9.get(i, j)).abs() > 1e-12 {
                    changed = true;
                }
            }
        }
        assert!(changed, "adding a point must alter the trailing 4x4 block");
    }

    #[test]
    fn block_matches_full_submatrix() {
        for m in 1..=12usize {
            let (y, u, pw, qw) = random_data(m, 100 + m as u64);
            let l = Lambdas { lambda1: 0.7, lambda2: 3.0, anchor: 1.0 };
            let data = SystemData { y: &y, u: &u, pw: &pw, qw: &qw, lambdas: l };
            let (a, b) = assemble_full(&data);
            let k = m.min(3);
            let mut y3 = [0.0; 3];
            let mut u3 = [0.0; 3];
            let mut p3 = [0.0; 3];
            let mut q3 = [0.0; 3];
            for j in m - k..m {
                let s = 3 - (m - j);
                y3[s] = y[j];
                u3[s] = u[j];
                p3[s] = pw[j];
                q3[s] = qw[j];
            }
            let block = assemble_block(&TailData { m, y3, u3, p3, q3, lambdas: l });
            assert_eq!(block.dim, 2 * k);
            let base = 2 * (m - k);
            for i in 0..block.dim {
                for jj in 0..block.dim {
                    assert!(
                        (block.a[i][jj] - a.get(base + i, base + jj)).abs() < 1e-12,
                        "m={m}: block({i},{jj}) = {} vs full {}",
                        block.a[i][jj],
                        a.get(base + i, base + jj)
                    );
                }
                assert!((block.b[i] - b[base + i]).abs() < 1e-12, "m={m}: b mismatch at {i}");
            }
        }
    }

    #[test]
    fn system_is_positive_definite() {
        let (y, u, pw, qw) = random_data(20, 5);
        let data = SystemData { y: &y, u: &u, pw: &pw, qw: &qw, lambdas: Lambdas::default() };
        let (a, _) = assemble_full(&data);
        let f = a.ldlt().expect("system must be SPD");
        assert!(f.d.iter().all(|&d| d > 0.0), "all pivots positive");
    }

    #[test]
    fn zero_weights_still_solvable() {
        // IRLS weights can be huge or tiny but never negative; check tiny.
        let m = 6;
        let y = vec![1.0; m];
        let u = vec![0.0; m];
        let pw = vec![1e-12; m];
        let qw = vec![1e-12; m];
        let data = SystemData { y: &y, u: &u, pw: &pw, qw: &qw, lambdas: Lambdas::default() };
        let (a, b) = assemble_full(&data);
        let x = a.solve(&b).unwrap();
        // with (near-)zero trend smoothing the optimum decouples per point:
        // stationarity gives τ_j + s_j = y_j and s_j = u_j.
        for j in 0..m {
            let tau = x[2 * j];
            let s = x[2 * j + 1];
            assert!((tau - (y[j] - u[j])).abs() < 1e-6, "tau[{j}] = {tau}");
            assert!((s - u[j]).abs() < 1e-6, "s[{j}] = {s}");
        }
    }
}
