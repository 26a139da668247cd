//! Assembly of the Modified-JointSTL online linear system (paper Eq. 8).
//!
//! Unknowns are *interleaved*, `x = (τ_1, s_1, τ_2, s_2, …, τ_M, s_M)`,
//! which is what makes `A` banded with **half-bandwidth 4** independent of
//! `M` and `T` (paper Fig. 2): the trend second difference couples `τ_j`
//! and `τ_{j−2}`, which sit 4 positions apart.
//!
//! Two assembly routines are provided:
//!
//! - [`assemble_full`] builds the whole `2M × 2M` system: the Algorithm-2
//!   reference solver ([`crate::reference::GrowingSolver`]) and the tests
//!   use it, the `O(1)` path never does, and
//! - [`assemble_block`] builds only the trailing block `A*` / `b*` that
//!   changes when a new point arrives (paper Fig. 2, red box), as loops
//!   over the tail points. Every step of [`crate::online_doolittle`] runs
//!   its straight-line two-lane form, `assemble_block_steady`, on the
//!   first 4 points over a `TailData::masked` tail.
//!
//! A unit test asserts that the block equals the corresponding sub-matrix
//! of the full assembly for random weights, which is the structural claim
//! of the paper's Fig. 2, that both lanes of the straight-line form equal
//! the loop form bit for bit, and that on a masked tail its real entries
//! do too, with `+0.0` couplings to the virtual unknowns.

use crate::lanes::F64x2;
use tskit::linalg::SymBanded;

/// Half-bandwidth of the online system (fixed by the model).
pub const BANDWIDTH: usize = 4;

/// λ hyper-parameters of the trend regularizers (Eq. 2/7). The seasonal
/// anchor term `(s_j − v_{j mod T})²` has Eq. 7's fixed weight 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lambdas {
    /// Weight of `|τ_t − τ_{t−1}|`.
    pub lambda1: f64,
    /// Weight of `|τ_t − 2τ_{t−1} + τ_{t−2}|`.
    pub lambda2: f64,
}

impl Default for Lambdas {
    fn default() -> Self {
        // the paper ties λ1 = λ2 = λ and tunes λ on a log grid (§5.1.4);
        // 100 is a robust middle of that grid for unit-scale data
        Lambdas { lambda1: 100.0, lambda2: 100.0 }
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
        // C1ᵀC1: (τ_j + s_j − y_j)², plus C2ᵀC2: (s_j − u_j)²
        a.add(2 * j, 2 * j, 1.0);
        a.add(2 * j + 1, 2 * j + 1, 2.0);
        a.add(2 * j, 2 * j + 1, 1.0);
        b[2 * j] = data.y[j];
        b[2 * j + 1] = data.y[j] + data.u[j];
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

impl TailData {
    /// This tail with every entry the system ignores set to `+0.0`: `y`
    /// and `u` before time 0, `pw` before time 1 and `qw` before time 2
    /// (slot `s` holds time `m − 3 + s`). Nothing is masked from `m = 5`
    /// on. The step kernel reads the masked slots as virtual unknowns
    /// decoupled from the real ones (see [`crate::online_doolittle`]).
    pub(crate) fn masked(&self) -> TailData {
        let mut t = *self;
        for s in 0..3 {
            // time of slot s is m + s − 3
            let j3 = self.m + s;
            if j3 < 3 {
                (t.y3[s], t.u3[s]) = (0.0, 0.0);
            }
            if j3 < 4 {
                t.p3[s] = 0.0;
            }
            if j3 < 5 {
                t.q3[s] = 0.0;
            }
        }
        t
    }
}

/// Builds the trailing `A*`, `b*` block (paper Fig. 2) for step `m`.
pub fn assemble_block(t: &TailData) -> TailBlock {
    let m = t.m;
    assert!(m >= 1, "assemble_block: need at least one point");
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
        add(2 * r + 1, 2 * r + 1, 2.0); // C1 + C2
        add(2 * r, 2 * r + 1, 1.0);
        b[2 * r] = t.y3[s];
        b[2 * r + 1] = t.y3[s] + t.u3[s];
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

/// The steady-state tail blocks of two independent systems, one per lane
/// of each entry: `a[i][j]` and `b[i]` hold both lanes' [`TailBlock`]
/// entries.
#[derive(Clone, Copy)]
pub(crate) struct PairBlock<V> {
    /// Dense symmetric `6 × 6` blocks.
    pub a: [[V; 6]; 6],
    /// Right-hand sides.
    pub b: [V; 6],
}

/// [`assemble_block`] specialized to the steady state (`M ≥ 5`), for two
/// systems at once (lane `q` from `lanes[q]`; a caller with one system
/// passes it twice): with the first covered time `t0 = M − 3 ≥ 2`, both
/// difference loops span all three tail points, so the whole assembly is
/// branch-free straight-line code. Each entry accumulates in the loop
/// path's exact order, including the `0 + (−w)` that starts an
/// off-diagonal entry (it turns a `−0.0` weight into `+0.0`), so each lane
/// is bit-identical to [`assemble_block`] (pinned by
/// `block_matches_full_submatrix` for `m = 5..12` and by the `GOLDEN_*`
/// fixtures end-to-end). For `M ≤ 4` it takes a `TailData::masked`
/// tail: the slots before time 0 become virtual points, and the real
/// entries still equal [`assemble_block`]'s bit for bit (pinned for
/// `m = 1..4`).
#[inline(always)]
pub(crate) fn assemble_block_steady<V: F64x2>(lanes: [&TailData; 2]) -> PairBlock<V> {
    let [t, u] = lanes;
    // one field of both lanes' tail data
    macro_rules! pair {
        ($($field:tt)*) => { V::new(t.$($field)*, u.$($field)*) };
    }
    let zero = V::splat(0.0);
    let one = V::splat(1.0);
    // first- and second-difference weights, j = t0, t0+1, t0+2
    let w0 = pair!(lambdas.lambda1) * pair!(p3[0]);
    let w1 = pair!(lambdas.lambda1) * pair!(p3[1]);
    let w2 = pair!(lambdas.lambda1) * pair!(p3[2]);
    let q0 = pair!(lambdas.lambda2) * pair!(q3[0]);
    let q1 = pair!(lambdas.lambda2) * pair!(q3[1]);
    let q2 = pair!(lambdas.lambda2) * pair!(q3[2]);
    let (four, minus_two) = (V::splat(4.0), V::splat(-2.0));
    // C1ᵀC1 + C2ᵀC2 per point (r = 0, 1, 2), then the differences
    let a00 = one + w0 + w1 + q0 + four * q1 + q2;
    let a22 = one + w1 + w2 + q1 + four * q2;
    let a44 = one + w2 + q2;
    let a_ss = V::splat(2.0);
    let a02 = zero + -w1 + minus_two * q1 + minus_two * q2;
    let a24 = zero + -w2 + minus_two * q2;
    let a04 = zero + q2;
    let b = [0, 1, 2].map(|r| {
        let y = pair!(y3[r]);
        [y, y + pair!(u3[r])]
    });
    PairBlock {
        a: [
            [a00, one, a02, zero, a04, zero],
            [one, a_ss, zero, zero, zero, zero],
            [a02, zero, a22, one, a24, zero],
            [zero, zero, one, a_ss, zero, zero],
            [a04, zero, a24, zero, a44, one],
            [zero, zero, zero, zero, one, a_ss],
        ],
        b: [b[0][0], b[0][1], b[1][0], b[1][1], b[2][0], b[2][1]],
    }
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
        let l = Lambdas { lambda1: 1.0, lambda2: 1.0 };
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

    /// The tail data of the last `min(m, 3)` points of one system.
    fn tail_of(m: usize, seed: u64, lambdas: Lambdas) -> TailData {
        let (y, u, pw, qw) = random_data(m, seed);
        let k = m.min(3);
        let mut t =
            TailData { m, y3: [0.0; 3], u3: [0.0; 3], p3: [0.0; 3], q3: [0.0; 3], lambdas };
        for j in m - k..m {
            let s = 3 - (m - j);
            t.y3[s] = y[j];
            t.u3[s] = u[j];
            t.p3[s] = pw[j];
            t.q3[s] = qw[j];
        }
        t
    }

    /// Lane `q` of the two-lane steady block equals the loop path's block
    /// of `tails[q]`, bit for bit.
    fn assert_lanes_match_loop_path<V: F64x2>(tails: [&TailData; 2]) {
        let pair = assemble_block_steady::<V>(tails);
        for (q, t) in tails.into_iter().enumerate() {
            let block = assemble_block(t);
            let m = t.m;
            for i in 0..6 {
                for j in 0..6 {
                    let got = pair.a[i][j].lanes()[q];
                    assert_eq!(
                        got.to_bits(),
                        block.a[i][j].to_bits(),
                        "m={m} lane {q}: steady a({i},{j}) = {got:e} vs loop {:e}",
                        block.a[i][j]
                    );
                }
                let got = pair.b[i].lanes()[q];
                assert_eq!(got.to_bits(), block.b[i].to_bits(), "m={m} lane {q}: b({i})");
            }
        }
    }

    /// At `m ≤ 4` the straight-line block of the `TailData::masked`
    /// tail (garbage in every ignored slot first) holds the loop path's
    /// block in its trailing real unknowns bit for bit, and every coupling
    /// between a real and a virtual unknown is `+0.0`.
    fn assert_masked_block_matches_loop_path(tail: &TailData) {
        let m = tail.m;
        let mut garbage = *tail;
        let real = |s: usize| m + s >= 3;
        for s in 0..3 {
            if !real(s) {
                (garbage.y3[s], garbage.u3[s]) = (-7.5, 3.25);
            }
            if m + s < 4 {
                garbage.p3[s] = -0.0;
            }
            if m + s < 5 {
                garbage.q3[s] = 11.0;
            }
        }
        let masked = garbage.masked();
        let pair = assemble_block_steady::<crate::lanes::Native>([&masked, &masked]);
        let block = assemble_block(tail);
        // locals 0..6 cover slots 0..3, two unknowns each
        let virt = 6 - block.dim;
        for i in 0..6 {
            for j in 0..6 {
                let got = pair.a[i][j].lanes()[0];
                let want = match (i >= virt, j >= virt) {
                    (true, true) => block.a[i - virt][j - virt],
                    (false, false) => continue,
                    _ => 0.0,
                };
                assert_eq!(got.to_bits(), want.to_bits(), "m={m}: a({i},{j}) = {got:e}");
            }
            let want = if i >= virt { block.b[i - virt] } else { 0.0 };
            let got = pair.b[i].lanes()[0];
            assert_eq!(got.to_bits(), want.to_bits(), "m={m}: b({i}) = {got:e}");
        }
    }

    #[test]
    fn block_matches_full_submatrix() {
        for m in 1..=12usize {
            let l = Lambdas { lambda1: 0.7, lambda2: 3.0 };
            let (y, u, pw, qw) = random_data(m, 100 + m as u64);
            let data = SystemData { y: &y, u: &u, pw: &pw, qw: &qw, lambdas: l };
            let (a, b) = assemble_full(&data);
            let tail = tail_of(m, 100 + m as u64, l);
            let block = assemble_block(&tail);
            let k = m.min(3);
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
            if m >= 5 {
                // the straight-line steady block, both lanes pinned to the
                // loop path; lane 1 has its own data and λs, so a lane
                // that reads the other lane's input fails
                let other = tail_of(m, 200 + m as u64, Lambdas { lambda1: 2.5, lambda2: 0.3 });
                assert_lanes_match_loop_path::<crate::lanes::Native>([&tail, &other]);
                #[cfg(target_arch = "x86_64")]
                assert_lanes_match_loop_path::<crate::lanes::Portable>([&tail, &other]);
            } else {
                assert_masked_block_matches_loop_path(&tail);
            }
        }
        // zero weights: each off-diagonal entry starts from `0 +`, which
        // turns a `−0.0` term into `+0.0`; a block that drops the leading
        // zero flips that sign (`−w` of a `+0.0` weight, or a `−0.0`
        // weight itself)
        let tail = tail_of(7, 1, Lambdas::default());
        let zero = TailData { p3: [0.0; 3], q3: [0.0; 3], ..tail_of(7, 2, Lambdas::default()) };
        let neg_zero = TailData { p3: [-0.0; 3], q3: [-0.0; 3], ..zero };
        for lanes in [[&tail, &zero], [&neg_zero, &tail], [&zero, &neg_zero]] {
            assert_lanes_match_loop_path::<crate::lanes::Native>(lanes);
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
