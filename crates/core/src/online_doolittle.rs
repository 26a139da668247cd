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
//! approximation of it: every step's `(τ_t, s_t)` equals a direct solve
//! of the whole growing system bit for bit (pinned by
//! `incremental_matches_full_solve_exactly`).
//!
//! ## The first points
//!
//! Every point, the first included, runs the same step. Before the first
//! online point the window covers unknowns at negative indices that stand
//! for "no unknowns yet": a fresh solver holds `L` band cells `+0.0`,
//! `D = 1`, `z = +0.0` and `m = 0`. Until the window holds only real
//! unknowns (steps 1–4) the step reads its tail with the entries the
//! system ignores set to `+0.0` (`TailData::masked`: `y`, `u` before
//! time 0, `pw` before time 1, `qw` before time 2), so each virtual
//! point's block is the fixed `[[1, 1], [1, 2]]` with a `+0.0` right-hand
//! side and `+0.0` couplings to every real unknown. The step then
//! subtracts only `+0.0` terms from real entries, and `x − (+0.0) = x`
//! exactly, even for `x = −0.0`; real entries of `A` are never `−0.0`,
//! because they accumulate from `0.0 +`. So the first points cost one
//! step each and no heap memory, and the solver is plain old data from
//! its first point on.
//!
//! The step is one straight-line kernel (`IncrementalSolver::kernel`):
//! every index in it is a constant, so its 10×10 working triangle lives in
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
use crate::system::{assemble_block_steady, PairBlock, TailData};

/// The `(row, col)` cells of the `8×4` `L` window that the next step
/// reads, in the order [`IncrementalSolver::lo`] stores them: rows 4–7 with
/// row > col and row − col ≤ 4. The other 22 cells are either unit
/// diagonal, structurally zero, or never read again.
pub const BAND: [(usize, usize); 10] =
    [(4, 0), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (6, 2), (6, 3), (7, 3)];

/// Incremental solver for one IRLS iteration's linear system: the `O(1)`
/// window state (see module docs), plain old data from its first point.
/// Its fields are the whole state, so the solver is its own snapshot
/// (see `fleet::codec`): a copy steps bit-identically to the original.
///
/// Feed one [`TailData`] per online point via [`IncrementalSolver::step`];
/// it returns the exact `(τ_t, s_t)` of the growing system's solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalSolver {
    /// Number of online points processed.
    pub m: usize,
    /// The [`BAND`] cells of `L[2M−8 … 2M−1, 2M−8 … 2M−5]`.
    pub lo: [f64; 10],
    /// `D[2M−8 … 2M−5]`.
    pub dd: [f64; 4],
    /// `z[2M−8 … 2M−5]` where `z = L⁻¹ b`.
    pub zo: [f64; 4],
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

impl Default for IncrementalSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalSolver {
    /// A fresh solver (no points yet): the window of the virtual unknowns
    /// before the first online point (see module docs).
    pub const fn new() -> Self {
        IncrementalSolver { m: 0, lo: [0.0; 10], dd: [1.0; 4], zo: [0.0; 4] }
    }

    /// Number of points processed so far.
    pub fn len(&self) -> usize {
        self.m
    }

    /// True when no points have been processed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Processes the next point and returns the exact `(τ_t, s_t)` for it.
    ///
    /// `tail.m` must equal `self.len() + 1` (the new step count).
    pub fn step(&mut self, tail: &TailData) -> (f64, f64) {
        assert_eq!(tail.m, self.len() + 1, "steps must be consecutive");
        let src = *self;
        let [out] = Self::step_lanes([&src], std::array::from_ref(tail), [self]);
        out
    }

    /// [`IncrementalSolver::step`] without mutating the sources, for `L ≤ 2`
    /// solvers in lock step: lane `q` steps `src[q]` on `tails[q]` into
    /// `dst[q]` (whose prior contents are arbitrary scratch). A solver is
    /// plain old data, so this is the `O(1)` factorization step from one
    /// window into another — **no heap allocation** — which makes a
    /// rejected shift-search trial free to roll back. The steady arm
    /// inlines into the caller's IRLS loop down through the kernel, so the
    /// block and the window stay in registers. One kernel call steps every
    /// lane, so their dependency chains are in flight together; each lane
    /// computes exactly the operations of a one-lane step (no fused
    /// multiply-add, no reassociation), so the outputs are bit-identical
    /// to stepping the lanes one at a time. The kernel always runs two
    /// lanes: with `L = 1` its second lane repeats the first, and that
    /// result is dropped. While a lane's window still holds virtual
    /// unknowns (its first 4 points) the lanes step through the
    /// out-of-line `IncrementalSolver::step_masked` instead.
    #[inline(always)]
    pub fn step_lanes<const L: usize>(
        src: [&Self; L],
        tails: &[TailData; L],
        dst: [&mut Self; L],
    ) -> [(f64, f64); L] {
        const { assert!(L == 1 || L == 2, "the step kernel has two lanes") };
        // with L ≤ 2, lanes 0 and L − 1 are all the lanes
        let (src, tails) = ([src[0], src[L - 1]], [&tails[0], &tails[L - 1]]);
        let stepped = if src[0].m < 4 || src[1].m < 4 {
            Self::step_masked(src, tails)
        } else {
            Self::kernel::<Native>(src, tails)
        };
        let mut out = [(0.0, 0.0); L];
        for q in 0..L {
            (*dst[q], out[q]) = stepped[q];
        }
        out
    }

    /// The kernel on `TailData::masked` tails, out of line: a solver
    /// takes this path for its first 4 points only, and masking a tail of
    /// step 5 or later changes nothing, so a steady lane may ride along.
    #[cold]
    #[inline(never)]
    fn step_masked(src: [&Self; 2], tails: [&TailData; 2]) -> [(Self, (f64, f64)); 2] {
        let masked = tails.map(TailData::masked);
        Self::kernel::<Native>(src, [&masked[0], &masked[1]])
    }

    /// One `O(1)` factorization + solve step (Algorithm 4) for two
    /// independent windows, one per lane of `V`: lane `q` steps `src[q]` on
    /// `tails[q]` and returns its successor window and `(τ, s)`. Every
    /// cell of the working triangle holds both lanes and every operation
    /// runs once per lane in the scalar order, so each lane is
    /// bit-identical to a one-window step.
    #[inline(always)]
    fn kernel<V: F64x2>(src: [&Self; 2], tails: [&TailData; 2]) -> [(Self, (f64, f64)); 2] {
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
        let mut next = [Self::new(); 2];
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
    use crate::system::{assemble_full, Lambdas, SystemData};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference: factorize and solve the full growing system at every
    /// step.
    struct FullSolver {
        y: Vec<f64>,
        u: Vec<f64>,
        pw: Vec<f64>,
        qw: Vec<f64>,
        lambdas: Lambdas,
    }

    impl FullSolver {
        fn new(lambdas: Lambdas) -> Self {
            FullSolver { y: vec![], u: vec![], pw: vec![], qw: vec![], lambdas }
        }

        /// The newest `(τ, s)` and, from step 4 on, the window the `O(1)`
        /// solver must hold after this step, read off the full factors.
        fn step(&mut self, tail: &TailData) -> ((f64, f64), Option<IncrementalSolver>) {
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
            let f = a.ldlt().unwrap();
            let x = f.solve(&b);
            let window = (m >= 4).then(|| {
                let (z, at) = (f.forward(&b), 2 * m - 8);
                IncrementalSolver {
                    m,
                    lo: BAND.map(|(r, c)| f.l.get(at + r, at + c)),
                    dd: std::array::from_fn(|i| f.d[at + i]),
                    zo: std::array::from_fn(|i| z[at + i]),
                }
            });
            ((x[2 * m - 2], x[2 * m - 1]), window)
        }
    }

    /// The bits of a window's cells.
    fn state_bits(s: &IncrementalSolver) -> Vec<u64> {
        let cells = s.lo.iter().chain(&s.dd).chain(&s.zo);
        std::iter::once(s.m as u64).chain(cells.map(|v| v.to_bits())).collect()
    }

    /// A value of `lo..hi`, or a signed zero one time in eight.
    fn value_or_zero(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
        match rng.gen_range(0..16) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(lo..hi),
        }
    }

    fn random_tail(
        m: usize,
        rng: &mut StdRng,
        lambdas: Lambdas,
        hist: &mut Vec<[f64; 4]>,
    ) -> TailData {
        // keep a rolling record of (y, u, pw, qw) per time so that the
        // "refreshed tail" semantics stay consistent across steps; the
        // weights the system ignores (pw at time 0, qw at times 0 and 1)
        // hold garbage
        let garbage = |rng: &mut StdRng| rng.gen_range(-1e3..1e3);
        hist.push([
            value_or_zero(rng, -3.0, 3.0),
            value_or_zero(rng, -1.0, 1.0),
            if m > 1 { rng.gen_range(0.05..4.0) } else { garbage(rng) },
            if m > 2 { rng.gen_range(0.05..4.0) } else { garbage(rng) },
        ]);
        // slots before time 0 are ignored too: garbage
        let mut y3 = [0.0; 3].map(|_| garbage(rng));
        let mut u3 = [0.0; 3].map(|_| garbage(rng));
        let mut p3 = [0.0; 3].map(|_| garbage(rng));
        let mut q3 = [0.0; 3].map(|_| garbage(rng));
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

    /// The `O(1)` solver equals the full growing-system solve bit for bit,
    /// in `(τ, s)` from the first point and in its window from step 4,
    /// with signed-zero inputs and garbage in every slot the system
    /// ignores, over λ from 0.3 to 1e4.
    #[test]
    fn incremental_matches_full_solve_exactly() {
        let lambdas = [(1.0, 10.0), (0.3, 0.3), (100.0, 100.0), (1e4, 2.5), (7.0, 1e4)];
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (lambda1, lambda2) = lambdas[seed as usize % lambdas.len()];
            let lambdas = Lambdas { lambda1, lambda2 };
            let mut inc = IncrementalSolver::new();
            let mut full = FullSolver::new(lambdas);
            let mut hist = Vec::new();
            for m in 1..=60 {
                let tail = random_tail(m, &mut rng, lambdas, &mut hist);
                let (t1, s1) = inc.step(&tail);
                let ((t2, s2), window) = full.step(&tail);
                assert_eq!(
                    (t1.to_bits(), s1.to_bits()),
                    (t2.to_bits(), s2.to_bits()),
                    "seed {seed} step {m}: ({t1},{s1}) vs ({t2},{s2})"
                );
                if let Some(window) = window {
                    let got = state_bits(&inc);
                    assert_eq!(got, state_bits(&window), "seed {seed} window after step {m}");
                }
            }
        }
    }

    #[test]
    fn weights_changing_over_time_are_honoured() {
        // IRLS appends a different weight each step; the solver must pick up
        // refreshed p/q for the 3 trailing times.
        let lambdas = Lambdas { lambda1: 5.0, lambda2: 1.0 };
        let mut inc = IncrementalSolver::new();
        let mut full = FullSolver::new(lambdas);
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
            let ((t2, s2), _) = full.step(&tail);
            assert_eq!(
                (t1.to_bits(), s1.to_bits()),
                (t2.to_bits(), s2.to_bits()),
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
        // the solver is Copy with fixed arrays from its first point —
        // compile-time guarantee of O(1) memory; this test pins the size:
        // the step count plus 10 band cells, D and z
        assert_eq!(std::mem::size_of::<IncrementalSolver>(), 19 * 8);
    }

    /// The one-lane step kernel on plain `f64`, kept as the bit-level
    /// reference of the two-lane kernel: the block from the loop path of
    /// [`crate::system::assemble_block`], then the same operations in the
    /// same order as `IncrementalSolver::kernel` and `column`.
    fn reference_step(
        src: &IncrementalSolver,
        tail: &TailData,
    ) -> (IncrementalSolver, (f64, f64)) {
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
        let next = IncrementalSolver {
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
    fn random_lane(rng: &mut StdRng) -> (IncrementalSolver, TailData) {
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
        let window = IncrementalSolver {
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
    fn bits(w: &IncrementalSolver, out: (f64, f64)) -> Vec<u64> {
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
            let native = IncrementalSolver::kernel::<Native>([&wa, &wb], [&ta, &tb]);
            proptest::prop_assert_eq!(native.map(|(w, out)| bits(&w, out)), want.clone());
            #[cfg(target_arch = "x86_64")]
            {
                let portable = IncrementalSolver::kernel::<crate::lanes::Portable>([&wa, &wb], [&ta, &tb]);
                proptest::prop_assert_eq!(portable.map(|(w, out)| bits(&w, out)), want.clone());
            }
            let mut next = IncrementalSolver::new();
            let [out] = IncrementalSolver::step_lanes([&wa], &[ta], [&mut next]);
            proptest::prop_assert_eq!(bits(&next, out), want[0].clone());
        }
    }
}
