//! OnlineDoolittle (paper Algorithm 4): `O(1)` incremental `L D Lᵀ`
//! factorization and partial solve of the growing online system.
//!
//! ## How it works
//!
//! When online point `M` arrives (0-based time `m = M − 1`), the banded
//! system matrix `A ∈ R^{2M×2M}` differs from the previous step's matrix
//! only in its **trailing 6×6 block** (unknown indices `2M−6 … 2M−1`;
//! paper Fig. 2). Because the Doolittle factorization computes column `k`
//! from `A[k.., k]` and the columns left of `k`, only the last 6 columns of
//! `L`, `D` need (re)computation. The state carried between steps is:
//!
//! - `lo`: the 10 cells of the `8×4` window `L[2M−8 … 2M−1, 2M−8 … 2M−5]`
//!   (rows × finalized columns) that the next step reads: rows 4–7 where
//!   row > col and row − col ≤ 4 (half-bandwidth 4), listed in [`BAND`],
//! - `dd`: `D[2M−8 … 2M−5]`,
//! - `zo`: the forward-substituted rhs `z = L⁻¹ b` at the same 4 indices.
//!
//! The newest solution entries come from the first two steps of backward
//! substitution, which — crucially — are **exact**: backward substitution
//! starts at the last index, so `x_{2M−1}` (= `s_t`) and `x_{2M−2}` (= `τ_t`)
//! of the exact solution are available after `O(1)` work. OneShotSTL is
//! therefore an exact incremental solver for the Algorithm-2 system, not an
//! approximation of it (verified against [`crate::reference`]).
//!
//! The first 4 steps ("warm-up") factorize the still-tiny full system
//! directly; the window state is extracted at step 4. All work per step is
//! bounded by fixed 10×10 loops either way: the update is `O(1)`.
//!
//! The steady step is one straight-line kernel (`Window::step`): every
//! index in it is a constant, so its 10×10 working triangle lives in
//! registers and on the stack, and it inlines through
//! [`IncrementalSolver::step_lanes`] into the IRLS trial loop. The kernel
//! is written once, over a two-lane value type (`crate::lanes`): it
//! steps two independent windows through one call, one per lane, each
//! lane running exactly the scalar operations in the scalar order, and a
//! one-window step runs its window in both lanes and keeps lane 0.

// index recurrences here mirror the published algorithms; iterator
// rewrites obscure the maths
#![allow(clippy::needless_range_loop)]
use crate::lanes::{F64x2, Native};
use crate::system::{assemble_block_steady, assemble_full, PairBlock, SystemData, TailData};
use tskit::error::TsError;

/// The `(row, col)` cells of the `8×4` `L` window that the next step
/// reads, in the order [`SolverState::Steady`] stores them: rows 4–7 with
/// row > col and row − col ≤ 4. The other 22 cells are either unit
/// diagonal, structurally zero, or never read again.
pub const BAND: [(usize, usize); 10] =
    [(4, 0), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (6, 2), (6, 3), (7, 3)];

/// Plain-data snapshot of an [`IncrementalSolver`] (see `fleet::codec`).
#[derive(Debug, Clone, PartialEq)]
pub enum SolverState {
    /// Snapshot of the warm-up phase (`M ≤ 4`): full tiny histories.
    Warmup {
        /// Observations so far.
        y: Vec<f64>,
        /// Seasonal anchors so far.
        u: Vec<f64>,
        /// First-difference weights so far.
        pw: Vec<f64>,
        /// Second-difference weights so far.
        qw: Vec<f64>,
    },
    /// Snapshot of the steady phase (`M ≥ 5`): the constant-size window.
    Steady {
        /// Points processed so far.
        m: u64,
        /// The [`BAND`] cells of the `L` window.
        lo: [f64; 10],
        /// `D` window.
        dd: [f64; 4],
        /// `z` window.
        zo: [f64; 4],
    },
}

/// Incremental solver for one IRLS iteration's linear system.
///
/// Feed one [`TailData`] per online point via [`IncrementalSolver::step`];
/// it returns the exact `(τ_t, s_t)` of the growing system's solution.
#[derive(Debug, Clone)]
pub enum IncrementalSolver {
    /// Steps `M ≤ 4`: keep full (tiny) histories and solve directly.
    Warmup {
        /// Observations so far.
        y: Vec<f64>,
        /// Seasonal anchors so far.
        u: Vec<f64>,
        /// First-difference weights so far.
        pw: Vec<f64>,
        /// Second-difference weights so far.
        qw: Vec<f64>,
    },
    /// Steps `M ≥ 5`: constant-size window state.
    Steady(Window),
}

/// The `O(1)` window state (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Number of online points processed.
    m: usize,
    /// The [`BAND`] cells of `L[2M−8 … 2M−1, 2M−8 … 2M−5]`.
    lo: [f64; 10],
    /// `D[2M−8 … 2M−5]`.
    dd: [f64; 4],
    /// `z[2M−8 … 2M−5]` where `z = L⁻¹ b`.
    zo: [f64; 4],
}

impl Default for IncrementalSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalSolver {
    /// A fresh solver (no points yet).
    pub fn new() -> Self {
        IncrementalSolver::Warmup {
            y: Vec::with_capacity(5),
            u: Vec::with_capacity(5),
            pw: Vec::with_capacity(5),
            qw: Vec::with_capacity(5),
        }
    }

    /// Number of points processed so far.
    pub fn len(&self) -> usize {
        match self {
            IncrementalSolver::Warmup { y, .. } => y.len(),
            IncrementalSolver::Steady(w) => w.m,
        }
    }

    /// True when no points have been processed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extracts a plain-data snapshot for serialization (see
    /// `fleet::codec`).
    pub fn to_state(&self) -> SolverState {
        match self {
            IncrementalSolver::Warmup { y, u, pw, qw } => SolverState::Warmup {
                y: y.clone(),
                u: u.clone(),
                pw: pw.clone(),
                qw: qw.clone(),
            },
            IncrementalSolver::Steady(w) => {
                SolverState::Steady { m: w.m as u64, lo: w.lo, dd: w.dd, zo: w.zo }
            }
        }
    }

    /// Rebuilds a solver from [`IncrementalSolver::to_state`] output. The
    /// restored solver produces a bit-identical step stream.
    pub fn from_state(state: SolverState) -> Result<Self, TsError> {
        match state {
            SolverState::Warmup { y, u, pw, qw } => {
                // the warm-up phase holds at most 3 entries: step 4
                // converts the solver to Steady
                if y.len() > 3
                    || u.len() != y.len()
                    || pw.len() != y.len()
                    || qw.len() != y.len()
                {
                    return Err(TsError::InvalidParam {
                        name: "SolverState::Warmup",
                        msg: "inconsistent warm-up history lengths".into(),
                    });
                }
                Ok(IncrementalSolver::Warmup { y, u, pw, qw })
            }
            SolverState::Steady { m, lo, dd, zo } => {
                if m < 4 {
                    return Err(TsError::InvalidParam {
                        name: "SolverState::Steady",
                        msg: "window state before step 4".into(),
                    });
                }
                Ok(IncrementalSolver::Steady(Window { m: m as usize, lo, dd, zo }))
            }
        }
    }

    /// Processes the next point and returns the exact `(τ_t, s_t)` for it.
    ///
    /// `tail.m` must equal `self.len() + 1` (the new step count).
    pub fn step(&mut self, tail: &TailData) -> (f64, f64) {
        let m = tail.m;
        assert_eq!(m, self.len() + 1, "steps must be consecutive");
        match self {
            IncrementalSolver::Warmup { y, u, pw, qw } => {
                // append newest, refresh the (up to) two previous tail
                // entries whose anchors/weights may have been re-read
                y.push(0.0);
                u.push(0.0);
                pw.push(0.0);
                qw.push(0.0);
                let k = m.min(3);
                for j in m - k..m {
                    let s = 3 - (m - j);
                    y[j] = tail.y3[s];
                    u[j] = tail.u3[s];
                    pw[j] = tail.p3[s];
                    qw[j] = tail.q3[s];
                }
                let data = SystemData { y, u, pw, qw, lambdas: tail.lambdas };
                let (a, b) = assemble_full(&data);
                let f = a.ldlt().expect("online system is SPD");
                let x = f.solve(&b);
                let (tau, s) = (x[2 * m - 2], x[2 * m - 1]);
                if m == 4 {
                    // extract the window state: the band cells of rows
                    // 0..8, cols 0..4 of L
                    let z = f.forward(&b);
                    let lo = BAND.map(|(r, c)| f.l.get(r, c));
                    let mut dd = [0.0; 4];
                    let mut zo = [0.0; 4];
                    dd.copy_from_slice(&f.d[0..4]);
                    zo.copy_from_slice(&z[0..4]);
                    *self = IncrementalSolver::Steady(Window { m, lo, dd, zo });
                }
                (tau, s)
            }
            IncrementalSolver::Steady(w) => {
                let prev = *w;
                let [(next, out), _] = Window::step::<Native>([&prev, &prev], [tail, tail]);
                *w = next;
                out
            }
        }
    }

    /// [`IncrementalSolver::step`] without mutating the sources, for `L ≤ 2`
    /// solvers in lock step: lane `q` steps `src[q]` on `tails[q]` into
    /// `dst[q]` (whose prior contents are arbitrary scratch). A steady
    /// window is plain-old-data, so this is the `O(1)` factorization step
    /// from one window into another — **no heap allocation** — which makes
    /// a rejected shift-search trial free to roll back. The steady arm
    /// inlines into the caller's IRLS loop down through the kernel, so the
    /// block and the window stay in registers. When every lane is steady,
    /// one kernel call steps them all, so their dependency chains are in
    /// flight together; each lane computes exactly the operations of a
    /// one-lane step (no fused multiply-add, no reassociation), so the
    /// outputs are bit-identical to stepping the lanes one at a time. The
    /// kernel always runs two lanes: with `L = 1` its second lane repeats
    /// the first, and that result is dropped. A lane still in warm-up sends
    /// every lane through the out-of-line warm-up arm, one at a time.
    #[inline(always)]
    pub fn step_lanes<const L: usize>(
        src: [&Self; L],
        tails: &[TailData; L],
        mut dst: [&mut Self; L],
    ) -> [(f64, f64); L] {
        const { assert!(L == 1 || L == 2, "the step kernel has two lanes") };
        // with L ≤ 2, lanes 0 and L − 1 are all the lanes
        let (IncrementalSolver::Steady(first), IncrementalSolver::Steady(last)) =
            (src[0], src[L - 1])
        else {
            return std::array::from_fn(|q| src[q].warmup_step_from(&tails[q], dst[q]));
        };
        let stepped = Window::step::<Native>([first, last], [&tails[0], &tails[L - 1]]);
        let mut out = [(0.0, 0.0); L];
        for q in 0..L {
            // the kernel overwrites the whole window; a stale Warmup
            // variant is dropped here once
            if let IncrementalSolver::Warmup { .. } = dst[q] {
                *dst[q] = IncrementalSolver::Steady(Window::EMPTY);
            }
            let IncrementalSolver::Steady(w) = &mut *dst[q] else {
                unreachable!("replaced above")
            };
            (*w, out[q]) = stepped[q];
        }
        out
    }

    /// The warm-up arm of [`IncrementalSolver::step_lanes`], out of line:
    /// warm-up lasts 4 points per iteration, so cloning the tiny histories
    /// there is fine.
    #[cold]
    #[inline(never)]
    fn warmup_step_from(&self, tail: &TailData, dst: &mut Self) -> (f64, f64) {
        dst.clone_from(self);
        dst.step(tail)
    }
}

/// Expands `$body` once per listed value of `$i`: a loop the compiler
/// cannot decline to unroll, so every index in the kernel is a constant.
macro_rules! unroll {
    ($i:ident in [$($v:expr),*] $body:block) => {
        $({
            let $i = $v;
            $body
        })*
    };
}

impl Window {
    /// A placeholder the step kernel overwrites whole.
    const EMPTY: Window = Window { m: 0, lo: [0.0; 10], dd: [0.0; 4], zo: [0.0; 4] };

    /// One `O(1)` factorization + solve step (Algorithm 4) for two
    /// independent windows, one per lane of `V`: lane `q` steps `src[q]` on
    /// `tails[q]` and returns its successor window and `(τ, s)`. Every
    /// cell of the working triangle holds both lanes and every operation
    /// runs once per lane in the scalar order, so each lane is
    /// bit-identical to a one-window step.
    #[inline(always)]
    fn step<V: F64x2>(src: [&Window; 2], tails: [&TailData; 2]) -> [(Window, (f64, f64)); 2] {
        let block = assemble_block_steady::<V>(tails);
        // local window covers global unknowns 2M-10 .. 2M-1 (M = new count);
        // the previous state's band lies in locals 4..8 (rows) x 0..4
        // (cols). Every index below is a constant (the loops are
        // unrolled), so the working triangle lives in registers and on the
        // stack: its structurally-zero cells fold away instead of being
        // stored.
        let mut l = [V::splat(0.0); 100];
        let mut d = [V::splat(0.0); 10];
        let mut z = [V::splat(0.0); 10];
        unroll!(i in [0, 1, 2, 3, 4, 5, 6, 7, 8, 9] {
            let (r, c) = BAND[i];
            l[10 * r + c] = V::new(src[0].lo[i], src[1].lo[i]);
        });
        unroll!(i in [0, 1, 2, 3] {
            d[i] = V::new(src[0].dd[i], src[1].dd[i]);
            z[i] = V::new(src[0].zo[i], src[1].zo[i]);
        });
        // recompute columns local 4..10 = global 2M-6 .. 2M-1, one
        // const-indexed column at a time so every loop below unrolls into
        // straight-line code
        column::<4, V>(&mut l, &mut d, &mut z, &block);
        column::<5, V>(&mut l, &mut d, &mut z, &block);
        column::<6, V>(&mut l, &mut d, &mut z, &block);
        column::<7, V>(&mut l, &mut d, &mut z, &block);
        column::<8, V>(&mut l, &mut d, &mut z, &block);
        column::<9, V>(&mut l, &mut d, &mut z, &block);
        // exact first two backward-substitution steps: the newest τ, s
        let x9 = z[9] / d[9];
        let x8 = z[8] / d[8] - l[9 * 10 + 8] * x9;
        // slide the window by one time point (two unknowns)
        let mut next = [Window::EMPTY; 2];
        unroll!(i in [0, 1, 2, 3, 4, 5, 6, 7, 8, 9] {
            let (r, c) = BAND[i];
            [next[0].lo[i], next[1].lo[i]] = l[10 * (r + 2) + c + 2].lanes();
        });
        unroll!(i in [0, 1, 2, 3] {
            [next[0].dd[i], next[1].dd[i]] = d[i + 2].lanes();
            [next[0].zo[i], next[1].zo[i]] = z[i + 2].lanes();
        });
        let ([x8a, x8b], [x9a, x9b]) = (x8.lanes(), x9.lanes());
        next[0].m = src[0].m + 1;
        next[1].m = src[1].m + 1;
        [(next[0], (x8a, x9a)), (next[1], (x8b, x9b))]
    }
}

/// Column `K` (local index) of the step kernel, for both lanes: the pivot
/// `D_KK`, the forward-substituted `z_K`, and `L`'s column below the
/// diagonal (its unit diagonal is never read).
#[inline(always)]
fn column<const K: usize, V: F64x2>(
    l: &mut [V; 100],
    d: &mut [V; 10],
    z: &mut [V; 10],
    block: &PairBlock<V>,
) {
    let k = K;
    // D_kk = A*[k-4][k-4] - Σ_{i=k-4}^{k-1} D_i L_ki²
    let mut dk = block.a[k - 4][k - 4];
    unroll!(i in [k - 4, k - 3, k - 2, k - 1] {
        dk = dk - d[i] * l[10 * k + i] * l[10 * k + i];
    });
    d[k] = dk;
    // forward substitution for the recomputed index
    let mut zk = block.b[k - 4];
    unroll!(i in [k - 4, k - 3, k - 2, k - 1] {
        zk = zk - l[10 * k + i] * z[i];
    });
    z[k] = zk;
    // column k of L below the diagonal (band: j ≤ k+4, so j ≤ 9 bounds
    // the window); row j reaches back to column j-4
    unroll!(j in [k + 1, k + 2, k + 3, k + 4] {
        if j <= 9 {
            let mut s = block.a[j - 4][k - 4];
            unroll!(i in [j - 4, j - 3, j - 2, j - 1] {
                if i < k {
                    s = s - l[10 * j + i] * d[i] * l[10 * k + i];
                }
            });
            l[10 * j + k] = s / dk;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Lambdas;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference: solve the full growing system at every step.
    struct FullSolver {
        y: Vec<f64>,
        u: Vec<f64>,
        pw: Vec<f64>,
        qw: Vec<f64>,
        lambdas: Lambdas,
    }

    impl FullSolver {
        fn step(&mut self, tail: &TailData) -> (f64, f64) {
            let m = tail.m;
            self.y.push(0.0);
            self.u.push(0.0);
            self.pw.push(0.0);
            self.qw.push(0.0);
            let k = m.min(3);
            for j in m - k..m {
                let s = 3 - (m - j);
                self.y[j] = tail.y3[s];
                self.u[j] = tail.u3[s];
                self.pw[j] = tail.p3[s];
                self.qw[j] = tail.q3[s];
            }
            let data = SystemData {
                y: &self.y,
                u: &self.u,
                pw: &self.pw,
                qw: &self.qw,
                lambdas: self.lambdas,
            };
            let (a, b) = assemble_full(&data);
            let x = a.solve(&b).unwrap();
            (x[2 * m - 2], x[2 * m - 1])
        }
    }

    fn random_tail(
        m: usize,
        rng: &mut StdRng,
        lambdas: Lambdas,
        hist: &mut Vec<[f64; 4]>,
    ) -> TailData {
        // keep a rolling record of (y, u, pw, qw) per time so that the
        // "refreshed tail" semantics stay consistent across steps
        hist.push([
            rng.gen_range(-3.0..3.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(0.05..4.0),
            rng.gen_range(0.05..4.0),
        ]);
        let mut y3 = [0.0; 3];
        let mut u3 = [0.0; 3];
        let mut p3 = [0.0; 3];
        let mut q3 = [0.0; 3];
        let k = m.min(3);
        for j in m - k..m {
            let s = 3 - (m - j);
            y3[s] = hist[j][0];
            u3[s] = hist[j][1];
            p3[s] = hist[j][2];
            q3[s] = hist[j][3];
        }
        TailData { m, y3, u3, p3, q3, lambdas }
    }

    #[test]
    fn incremental_matches_full_solve_exactly() {
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let lambdas = Lambdas { lambda1: 1.0, lambda2: 10.0 };
            let mut inc = IncrementalSolver::new();
            let mut full = FullSolver { y: vec![], u: vec![], pw: vec![], qw: vec![], lambdas };
            let mut hist = Vec::new();
            for m in 1..=60 {
                let tail = random_tail(m, &mut rng, lambdas, &mut hist);
                let (t1, s1) = inc.step(&tail);
                let (t2, s2) = full.step(&tail);
                assert!(
                    (t1 - t2).abs() < 1e-8 && (s1 - s2).abs() < 1e-8,
                    "seed {seed} step {m}: ({t1},{s1}) vs ({t2},{s2})"
                );
            }
        }
    }

    #[test]
    fn weights_changing_over_time_are_honoured() {
        // IRLS appends a different weight each step; the solver must pick up
        // refreshed p/q for the 3 trailing times.
        let lambdas = Lambdas { lambda1: 5.0, lambda2: 1.0 };
        let mut inc = IncrementalSolver::new();
        let mut full = FullSolver { y: vec![], u: vec![], pw: vec![], qw: vec![], lambdas };
        let mut hist: Vec<[f64; 4]> = Vec::new();
        for m in 1..=40usize {
            hist.push([
                (m as f64 * 0.7).sin(),
                (m as f64 * 0.3).cos() * 0.5,
                0.1 + (m % 7) as f64,
                0.1 + (m % 5) as f64,
            ]);
            // mutate the *previous* time's weights too (IRLS refresh)
            if m >= 2 {
                hist[m - 2][2] *= 1.5;
            }
            let k = m.min(3);
            let mut y3 = [0.0; 3];
            let mut u3 = [0.0; 3];
            let mut p3 = [0.0; 3];
            let mut q3 = [0.0; 3];
            for j in m - k..m {
                let s = 3 - (m - j);
                y3[s] = hist[j][0];
                u3[s] = hist[j][1];
                p3[s] = hist[j][2];
                q3[s] = hist[j][3];
            }
            let tail = TailData { m, y3, u3, p3, q3, lambdas };
            let (t1, s1) = inc.step(&tail);
            let (t2, s2) = full.step(&tail);
            assert!(
                (t1 - t2).abs() < 1e-8 && (s1 - s2).abs() < 1e-8,
                "step {m}: ({t1},{s1}) vs ({t2},{s2})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "consecutive")]
    fn non_consecutive_steps_panic() {
        let mut inc = IncrementalSolver::new();
        let tail = TailData {
            m: 3,
            y3: [0.0; 3],
            u3: [0.0; 3],
            p3: [1.0; 3],
            q3: [1.0; 3],
            lambdas: Lambdas::default(),
        };
        inc.step(&tail);
    }

    #[test]
    fn state_size_is_constant() {
        // the steady-state struct is Copy with fixed arrays — compile-time
        // guarantee of O(1) memory; this test pins the size: the step
        // count plus 10 band cells, D and z
        assert_eq!(std::mem::size_of::<Window>(), 19 * 8);
    }

    /// The one-lane step kernel on plain `f64`, kept as the bit-level
    /// reference of the two-lane kernel: the block from the loop path of
    /// [`crate::system::assemble_block`], then the same operations in the
    /// same order as `Window::step` and `column`.
    fn reference_step(src: &Window, tail: &TailData) -> (Window, (f64, f64)) {
        let block = crate::system::assemble_block(tail);
        assert_eq!(block.dim, 6, "steady steps only");
        let mut l = [0.0f64; 100];
        let mut d = [0.0f64; 10];
        let mut z = [0.0f64; 10];
        for (i, &(r, c)) in BAND.iter().enumerate() {
            l[10 * r + c] = src.lo[i];
        }
        d[..4].copy_from_slice(&src.dd);
        z[..4].copy_from_slice(&src.zo);
        for k in 4..10 {
            let mut dk = block.a[k - 4][k - 4];
            for i in k - 4..k {
                dk -= d[i] * l[10 * k + i] * l[10 * k + i];
            }
            d[k] = dk;
            let mut zk = block.b[k - 4];
            for i in k - 4..k {
                zk -= l[10 * k + i] * z[i];
            }
            z[k] = zk;
            for j in k + 1..=(k + 4).min(9) {
                let mut s = block.a[j - 4][k - 4];
                for i in j - 4..k {
                    s -= l[10 * j + i] * d[i] * l[10 * k + i];
                }
                l[10 * j + k] = s / dk;
            }
        }
        let x9 = z[9] / d[9];
        let x8 = z[8] / d[8] - l[9 * 10 + 8] * x9;
        let next = Window {
            m: src.m + 1,
            lo: BAND.map(|(r, c)| l[10 * (r + 2) + c + 2]),
            dd: [d[2], d[3], d[4], d[5]],
            zo: [z[2], z[3], z[4], z[5]],
        };
        (next, (x8, x9))
    }

    /// Cells that stress the kernel's IEEE behaviour: signed zeros,
    /// infinities, NaN, subnormals and values near the exponent range.
    const SPECIAL: [f64; 13] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        5e-324,
        -2.5e-310,
        f64::MIN_POSITIVE,
        1e300,
        -1e300,
        1e-300,
        -1e-300,
        1.0,
    ];

    /// One lane's input: a steady window and the tail of its next step.
    /// Every cell is finite and moderate except up to three taken from
    /// [`SPECIAL`], so most cases keep finite outputs next to the ones the
    /// special cells poison.
    fn random_lane(rng: &mut StdRng) -> (Window, TailData) {
        // 18 window cells, 12 tail cells, 2 λs
        let mut cells = [0.0f64; 32];
        for (i, c) in cells.iter_mut().enumerate() {
            *c = match i {
                10..=13 | 30..=31 => rng.gen_range(0.05..50.0),
                24..=29 => rng.gen_range(0.0..4.0),
                _ => rng.gen_range(-4.0..4.0),
            };
        }
        for _ in 0..rng.gen_range(0..4usize) {
            cells[rng.gen_range(0..32usize)] = SPECIAL[rng.gen_range(0..SPECIAL.len())];
        }
        let take = |at: usize| -> [f64; 3] { [cells[at], cells[at + 1], cells[at + 2]] };
        let window = Window {
            m: rng.gen_range(4..1_000_000usize),
            lo: std::array::from_fn(|i| cells[i]),
            dd: std::array::from_fn(|i| cells[10 + i]),
            zo: std::array::from_fn(|i| cells[14 + i]),
        };
        let tail = TailData {
            m: window.m + 1,
            y3: take(18),
            u3: take(21),
            p3: take(24),
            q3: take(27),
            lambdas: Lambdas { lambda1: cells[30], lambda2: cells[31] },
        };
        (window, tail)
    }

    /// Every bit of a stepped window and its `(τ, s)`, except that every
    /// NaN reads as one NaN. IEEE 754 leaves the sign and payload of a NaN
    /// result unspecified, and so does LLVM: x86 returns the first NaN
    /// operand, and the compiler may commute `a + b` or rewrite
    /// `0 + (−w)` as `0 − w`, so a NaN's sign bit can differ between two
    /// compilations of the same operations. Every other value, signed
    /// zeros and infinities included, compares by its bits.
    fn bits(w: &Window, out: (f64, f64)) -> Vec<u64> {
        let cells = w.lo.iter().chain(&w.dd).chain(&w.zo).chain([&out.0, &out.1]);
        let bits = |v: &f64| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
        std::iter::once(w.m as u64).chain(cells.map(bits)).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]
        /// Both lanes of the two-lane kernel are the one-lane reference
        /// kernel, bit for bit (a NaN as any NaN, see [`bits`]), in
        /// `(τ, s)` and in the successor window:
        /// the lanes get different windows and tails, and cells include
        /// ±0, ±∞, NaN, subnormals and 1e±300. The one-window step (the
        /// window copied into both lanes) matches it too. On `x86_64` the
        /// portable `[f64; 2]` lane type runs through the same kernel.
        #[test]
        fn vector_kernel_matches_the_scalar_reference_bit_for_bit(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (wa, ta) = random_lane(&mut rng);
            let (wb, tb) = random_lane(&mut rng);
            let want = [reference_step(&wa, &ta), reference_step(&wb, &tb)];
            let want = want.map(|(w, out)| bits(&w, out));
            let native = Window::step::<Native>([&wa, &wb], [&ta, &tb]);
            proptest::prop_assert_eq!(native.map(|(w, out)| bits(&w, out)), want.clone());
            #[cfg(target_arch = "x86_64")]
            {
                let portable = Window::step::<crate::lanes::Portable>([&wa, &wb], [&ta, &tb]);
                proptest::prop_assert_eq!(portable.map(|(w, out)| bits(&w, out)), want.clone());
            }
            let mut dst = IncrementalSolver::new();
            let [out] = IncrementalSolver::step_lanes(
                [&IncrementalSolver::Steady(wa)],
                &[ta],
                [&mut dst],
            );
            let IncrementalSolver::Steady(next) = dst else { panic!("a steady step") };
            proptest::prop_assert_eq!(bits(&next, out), want[0].clone());
        }
    }
}
