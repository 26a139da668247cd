//! LOESS (LOcal regrESSion) smoothing — the workhorse of STL.
//!
//! Follows Cleveland et al. (1990): tri-cube distance weights over the `q`
//! nearest neighbours, optional robustness weights, polynomial degree 0–2,
//! and the `jump` speed-up that fits only every `jump`-th point and linearly
//! interpolates in between.
//!
//! A fit solves a 1×1 to 3×3 weighted normal-equation system. It is built
//! and solved on the stack — no heap allocation per fit — with the same
//! floating-point operations, in the same order, as the generic dense
//! least-squares path ([`crate::dense::weighted_lstsq`] + `Mat::solve`),
//! so the results are bit-identical to it (a property test pins this).
//!
//! [`loess_point`] recomputes every tap's tri-cube weight on every call. A
//! [`LoessPlan`] does that once per series length and span: it caches the
//! taps of each window shape and, for fits without robustness weights, the
//! eliminated normal equations, so smoothing many series of one length (an
//! STL pass smooths two per inner loop) costs a dot product per output. Its
//! fits stay bit-identical to [`loess_point`], which remains the reference.

// index recurrences here mirror the published algorithms; iterator
// rewrites obscure the maths
#![allow(clippy::needless_range_loop)]

/// Tri-cube weight `(1 - u³)³` for `u = d / d_max ∈ [0, 1]`; zero outside.
#[inline]
pub fn tricube(u: f64) -> f64 {
    if u >= 1.0 {
        0.0
    } else {
        let t = 1.0 - u * u * u;
        t * t * t
    }
}

/// LOESS configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoessConfig {
    /// Neighbourhood size `q` (number of points in each local fit). Values
    /// larger than the series are clamped.
    pub span: usize,
    /// Polynomial degree of the local fit: 0, 1 or 2.
    pub degree: usize,
    /// Fit every `jump`-th point and interpolate linearly between fits
    /// (1 = fit everywhere).
    pub jump: usize,
}

impl LoessConfig {
    /// Degree-1 LOESS with the given span, no jumping.
    pub fn new(span: usize) -> Self {
        LoessConfig { span: span.max(2), degree: 1, jump: 1 }
    }

    /// Sets the polynomial degree (clamped to 0..=2).
    pub fn degree(mut self, d: usize) -> Self {
        self.degree = d.min(2);
        self
    }

    /// Sets the jump parameter (≥ 1).
    pub fn jump(mut self, j: usize) -> Self {
        self.jump = j.max(1);
        self
    }
}

/// Evaluates the local weighted polynomial fit of `y` (indexed by position
/// `0..n`) at arbitrary position `x_eval`. `robustness`, when given, is
/// multiplied into the tri-cube weights (STL's outer-loop weights).
pub fn loess_point(
    y: &[f64],
    x_eval: f64,
    cfg: &LoessConfig,
    robustness: Option<&[f64]>,
) -> f64 {
    let n = y.len();
    debug_assert!(n > 0, "loess_point: empty input");
    if n == 1 {
        return y[0];
    }
    let (lo, hi, dmax) = window_bounds(n, x_eval, cfg.span);
    let window = Window { y, x_eval, lo, hi, dmax, robustness };
    match cfg.degree {
        0 => window.fit::<1>(),
        1 => window.fit::<2>(),
        _ => window.fit::<3>(),
    }
}

/// The fit window around `x_eval` in a series of `n ≥ 2` values: the
/// `q = min(span, n)` nearest positions `lo..hi` and the tri-cube distance
/// denominator `dmax`.
fn window_bounds(n: usize, x_eval: f64, span: usize) -> (usize, usize, f64) {
    let q = span.min(n).max(2);
    // window of the q nearest integer positions to x_eval
    let center = x_eval.round().clamp(0.0, (n - 1) as f64) as usize;
    let mut lo = center.saturating_sub(q / 2);
    if lo + q > n {
        lo = n - q;
    }
    // widen toward the true nearest set (handles x_eval outside [lo, lo+q))
    while lo > 0 && (x_eval - (lo - 1) as f64).abs() < ((lo + q - 1) as f64 - x_eval).abs() {
        lo -= 1;
    }
    while lo + q < n && ((lo + q) as f64 - x_eval).abs() < (x_eval - lo as f64).abs() {
        lo += 1;
    }
    let hi = lo + q; // exclusive

    // the farthest window point is an end point: |j − x| rounds monotonically
    // on each side of x, so this is exactly the max over the whole window
    let mut dmax = 0.0f64.max((lo as f64 - x_eval).abs()).max(((hi - 1) as f64 - x_eval).abs());
    if dmax <= 0.0 {
        dmax = 1.0;
    }
    // STL convention: for spans larger than the data, inflate the distance
    // denominator so weights stay positive across the window.
    if span > n {
        dmax += ((span - n) / 2) as f64;
    }
    (lo, hi, dmax)
}

/// One local fit: the `q` nearest positions `lo..hi` around `x_eval`.
struct Window<'a> {
    y: &'a [f64],
    x_eval: f64,
    lo: usize,
    hi: usize,
    dmax: f64,
    robustness: Option<&'a [f64]>,
}

impl Window<'_> {
    /// Tri-cube distance weight of position `j`, times its robustness
    /// weight.
    #[inline]
    fn weight(&self, j: usize) -> f64 {
        let mut w = tricube((j as f64 - self.x_eval).abs() / self.dmax);
        if let Some(r) = self.robustness {
            w *= r[j];
        }
        w
    }

    /// Intercept of the weighted degree-`K − 1` polynomial fit: normal
    /// equations over the design rows `(1, dx, dx²)`, a 1e-12 ridge, and
    /// Gaussian elimination with partial pivoting.
    #[inline]
    fn fit<const K: usize>(&self) -> f64 {
        let mut ata = [[0.0f64; 3]; 3];
        let mut atb = [0.0f64; 3];
        let mut wsum = 0.0;
        for j in self.lo..self.hi {
            let w = self.weight(j);
            wsum += w;
            if w == 0.0 {
                continue;
            }
            let dx = j as f64 - self.x_eval;
            let row = [1.0, dx, dx * dx];
            for p in 0..K {
                let ap = row[p];
                if ap == 0.0 {
                    continue;
                }
                let wap = w * ap;
                atb[p] += wap * self.y[j];
                for q in p..K {
                    ata[p][q] += wap * row[q];
                }
            }
        }
        if wsum <= 1e-300 {
            // all weights vanished (e.g. robustness zeroed the window):
            // fall back to the unweighted window mean.
            return self.y[self.lo..self.hi].iter().sum::<f64>() / (self.hi - self.lo) as f64;
        }
        // ridge on the diagonal, then mirror the upper triangle
        for p in 0..K {
            ata[p][p] += 1e-12;
            for q in p + 1..K {
                ata[q][p] = ata[p][q];
            }
        }
        match solve_intercept::<K>(ata, atb) {
            Some(c) => c,
            None => {
                // degenerate fit: weighted mean
                let num: f64 = (self.lo..self.hi).map(|j| self.weight(j) * self.y[j]).sum();
                num / wsum
            }
        }
    }
}

/// First unknown of the `K×K` system `a x = b` (Gaussian elimination with
/// partial pivoting and back substitution); `None` on a pivot below
/// 1e-300.
#[inline]
fn solve_intercept<const K: usize>(mut a: [[f64; 3]; 3], mut x: [f64; 3]) -> Option<f64> {
    for col in 0..K {
        let mut piv = col;
        let mut best = a[col][col].abs();
        for r in col + 1..K {
            let v = a[r][col].abs();
            if v > best {
                best = v;
                piv = r;
            }
        }
        if best < 1e-300 {
            return None;
        }
        if piv != col {
            a.swap(col, piv);
            x.swap(col, piv);
        }
        let d = a[col][col];
        for r in col + 1..K {
            let f = a[r][col] / d;
            if f == 0.0 {
                continue;
            }
            for j in col..K {
                a[r][j] -= f * a[col][j];
            }
            x[r] -= f * x[col];
        }
    }
    for col in (0..K).rev() {
        let mut s = x[col];
        for j in col + 1..K {
            s -= a[col][j] * x[j];
        }
        x[col] = s / a[col][col];
    }
    Some(x[0])
}

/// Smooths `y` with LOESS, returning a same-length vector. With
/// `cfg.jump > 1`, fits are computed on a grid and linearly interpolated.
pub fn loess(y: &[f64], cfg: &LoessConfig, robustness: Option<&[f64]>) -> Vec<f64> {
    let mut out = vec![0.0; y.len()];
    loess_into(y, cfg, robustness, &mut out);
    out
}

/// [`loess`] into a caller-provided buffer of `y.len()` values.
///
/// # Panics
/// Panics if `out.len() != y.len()`.
pub fn loess_into(y: &[f64], cfg: &LoessConfig, robustness: Option<&[f64]>, out: &mut [f64]) {
    let n = y.len();
    assert_eq!(out.len(), n, "loess_into: output length mismatch");
    if cfg.jump <= 1 || n <= 2 {
        for (i, o) in out.iter_mut().enumerate() {
            *o = loess_point(y, i as f64, cfg, robustness);
        }
        return;
    }
    // fitted anchor points 0, jump, 2*jump, ..., and always n-1; each
    // segment [a, b] interpolates between the fits at its two ends
    let (mut a, mut fa) = (0, loess_point(y, 0.0, cfg, robustness));
    while a < n - 1 {
        let b = (a + cfg.jump).min(n - 1);
        let fb = loess_point(y, b as f64, cfg, robustness);
        let len = (b - a) as f64;
        for i in a..=b {
            let t = (i - a) as f64 / len;
            out[i] = fa * (1.0 - t) + fb * t;
        }
        (a, fa) = (b, fb);
    }
}

/// Smooths a non-empty series into `out` and also extrapolates one fitted
/// value before the first point and one after the last (positions `-1`
/// and `n`, at `out[0]` and `out[n + 1]`). STL's cycle-subseries smoothing
/// requires this 2-point extension.
///
/// # Panics
/// Panics if `out.len() != y.len() + 2`.
pub fn loess_extended_into(
    y: &[f64],
    cfg: &LoessConfig,
    robustness: Option<&[f64]>,
    out: &mut [f64],
) {
    let n = y.len();
    assert_eq!(out.len(), n + 2, "loess_extended_into: output length mismatch");
    out[0] = loess_point(y, -1.0, cfg, robustness);
    loess_into(y, cfg, robustness, &mut out[1..=n]);
    out[n + 1] = loess_point(y, n as f64, cfg, robustness);
}

/// A precomputed smoother: [`loess_into`] of every series of one length under
/// one [`LoessConfig`], bit for bit, with the per-fit work that depends only
/// on the span and the output's position done once.
///
/// A degree-1, jump-1 plan (STL's low-pass and trend smoothers) holds, per
/// output, its window and its nonzero tri-cube taps as `(w, w·dx)`. Interior
/// outputs share one window offset and `dmax`, so they share one tap row; a
/// plan holds at most `q + 1` distinct rows. Each row also holds the
/// eliminated 2×2 normal equations of a fit without robustness weights
/// (pivot choice, multiplier, the three matrix cells), so such a fit is two
/// dot products over the data and a back substitution. A fit with
/// robustness weights multiplies the cached tri-cube by `r[j]` and
/// accumulates and solves like [`loess_point`]. Degenerate fits (all weights
/// vanished, or a pivot below 1e-300) run [`loess_point`] itself. Any other
/// configuration runs [`loess_into`].
///
/// Every fit performs the same floating-point operations in the same order
/// as [`loess_point`], so the outputs are bit-identical to it (a property
/// test pins this) as long as the robustness weights are finite: a tap whose
/// tri-cube weight is zero is not stored, where [`loess_point`] would
/// multiply it by `r[j]` (`0 · ∞` is not zero).
#[derive(Debug, Clone)]
pub struct LoessPlan {
    cfg: LoessConfig,
    /// Output count `n`.
    len: usize,
    /// Per output: its index into `rows` (empty unless the plan is degree 1,
    /// jump 1).
    fit_rows: Vec<u32>,
    rows: Vec<TapRow>,
    /// Every row's taps, row after row.
    taps: Vec<Tap>,
}

/// One nonzero tri-cube tap: its weight and weight × distance.
#[derive(Debug, Clone, Copy)]
struct Tap {
    w: f64,
    wdx: f64,
}

/// The taps of one window shape, at distances `first, first + 1, …` from
/// the output (`first ≤ 0`, so the centre tap is `taps[start - first]`).
#[derive(Debug, Clone, Copy)]
struct TapRow {
    start: u32,
    len: u32,
    first: i32,
    /// The eliminated unweighted system; `None` sends every fit of the row
    /// to [`loess_point`].
    solve: Option<Eliminated>,
}

/// [`solve_intercept`]`::<2>` of a fit's normal-equation matrix up to the
/// right-hand side: the row swap, the multiplier and the eliminated cells.
#[derive(Debug, Clone, Copy)]
struct Eliminated {
    swap: bool,
    f: f64,
    a00: f64,
    a01: f64,
    a11: f64,
}

impl Eliminated {
    /// Gaussian elimination with partial pivoting of the ridged 2×2 matrix
    /// `[[a00, a01], [a01, a11]]`, exactly as [`solve_intercept`] runs it;
    /// `None` on a pivot below 1e-300.
    fn new(a00: f64, a01: f64, a11: f64) -> Option<Self> {
        let mut a = [[a00, a01], [a01, a11]];
        let swap = a[1][0].abs() > a[0][0].abs();
        if swap {
            a.swap(0, 1);
        }
        if a[0][0].abs() < 1e-300 {
            return None;
        }
        let f = a[1][0] / a[0][0];
        if f != 0.0 {
            a[1][1] -= f * a[0][1];
        }
        if a[1][1].abs() < 1e-300 {
            return None;
        }
        Some(Eliminated { swap, f, a00: a[0][0], a01: a[0][1], a11: a[1][1] })
    }

    /// The intercept for the right-hand side `(atb0, atb1)`.
    #[inline]
    fn intercept(&self, atb0: f64, atb1: f64) -> f64 {
        let (x0, mut x1) = if self.swap { (atb1, atb0) } else { (atb0, atb1) };
        if self.f != 0.0 {
            x1 -= self.f * x0;
        }
        let x1 = x1 / self.a11;
        (x0 - self.a01 * x1) / self.a00
    }
}

impl LoessPlan {
    /// Plans the smoothing of `n` values under `cfg`.
    pub fn new(n: usize, cfg: &LoessConfig) -> Self {
        let mut plan = LoessPlan {
            cfg: cfg.clone(),
            len: n,
            fit_rows: Vec::new(),
            rows: Vec::new(),
            taps: Vec::new(),
        };
        if cfg.degree != 1 || cfg.jump > 1 || n < 2 {
            return plan;
        }
        // at most q + 1 distinct rows of at most q taps each
        let q = cfg.span.min(n).max(2);
        plan.fit_rows.reserve_exact(n);
        plan.rows.reserve_exact((q + 1).min(n));
        plan.taps.reserve_exact((q + 1).min(n) * q);
        // the window (offset, dmax) of the last row, and its tri-cube
        // weights by distance
        let (mut shape, mut tab) = (None, Vec::with_capacity(q + 1));
        for i in 0..n {
            // `window_bounds` at an integer position: the nearest q never
            // need widening, and every distance is an integer
            let lo = i.saturating_sub(q / 2).min(n - q);
            let mut dmax = (i - lo).max(lo + q - 1 - i) as f64;
            if cfg.span > n {
                dmax += ((cfg.span - n) / 2) as f64;
            }
            debug_assert_eq!(window_bounds(n, i as f64, cfg.span), (lo, lo + q, dmax));
            let offset = lo as isize - i as isize;
            if shape != Some((offset, dmax.to_bits())) {
                shape = Some((offset, dmax.to_bits()));
                plan.push_row(offset, q, dmax, &mut tab);
            }
            plan.fit_rows.push((plan.rows.len() - 1) as u32);
        }
        plan
    }

    /// Appends the row of a window of `q` positions starting `lo` away from
    /// its output, with tri-cube denominator `dmax`; `tab` is scratch.
    fn push_row(&mut self, lo: isize, q: usize, dmax: f64, tab: &mut Vec<f64>) {
        // as `Window::weight`, once per distance |dx| = |j − x|
        let far = lo.unsigned_abs().max((lo + q as isize - 1).unsigned_abs());
        tab.clear();
        tab.extend((0..=far).map(|d| tricube(d as f64 / dmax)));
        // the taps are the positions of nonzero weight, contiguous around the
        // centre since the tri-cube falls with the distance
        let end = lo + q as isize;
        let live = |dx: isize| tab[dx.unsigned_abs()] != 0.0;
        let first = (lo..=0).find(|&dx| live(dx)).expect("the centre tap has weight 1");
        let last = (1..end).find(|&dx| !live(dx)).unwrap_or(end);
        let start = self.taps.len();
        self.taps.extend((first..last).map(|dx| {
            let w = tab[dx.unsigned_abs()];
            Tap { w, wdx: w * dx as f64 }
        }));
        let len = self.taps.len() - start;
        // `Window::fit::<2>`'s accumulation of A = Σ w (1, dx)ᵀ(1, dx)
        let (mut a00, mut a01, mut a11) = (0.0, 0.0, 0.0);
        for (t, dx) in self.taps[start..].iter().zip(first..) {
            a00 += t.w;
            a01 += t.wdx;
            if dx != 0 {
                a11 += t.wdx * dx as f64;
            }
        }
        // `wsum` equals `a00` before the ridge: both add every tap weight in order
        let solve =
            if a00 <= 1e-300 { None } else { Eliminated::new(a00 + 1e-12, a01, a11 + 1e-12) };
        self.rows.push(TapRow {
            start: start as u32,
            len: len as u32,
            first: first as i32,
            solve,
        });
    }

    /// Whether this is the plan of `n` values under `cfg`.
    pub fn is_for(&self, n: usize, cfg: &LoessConfig) -> bool {
        self.len == n && self.cfg == *cfg
    }

    /// Smooths `y` into `out`; bit-identical to [`loess_into`] with this
    /// plan's configuration for finite robustness weights.
    ///
    /// # Panics
    /// Panics if `y` or `out` does not hold the planned number of values.
    pub fn apply(&self, y: &[f64], robustness: Option<&[f64]>, out: &mut [f64]) {
        assert_eq!(y.len(), self.len, "LoessPlan::apply: input length mismatch");
        assert_eq!(out.len(), self.len, "LoessPlan::apply: output length mismatch");
        if self.fit_rows.is_empty() {
            loess_into(y, &self.cfg, robustness, out);
            return;
        }
        for (i, (o, &r)) in out.iter_mut().zip(&self.fit_rows).enumerate() {
            let row = &self.rows[r as usize];
            let lo = (i as isize + row.first as isize) as usize;
            let taps = &self.taps[row.start as usize..][..row.len as usize];
            let ys = &y[lo..lo + taps.len()];
            let fit = match (robustness, &row.solve) {
                (None, Some(solve)) => {
                    Some(Self::fit_unweighted(taps, ys, -row.first as usize, solve))
                }
                (Some(r), Some(_)) => {
                    Self::fit_weighted(taps, ys, &r[lo..lo + taps.len()], -row.first as usize)
                }
                (_, None) => None,
            };
            *o = fit.unwrap_or_else(|| loess_point(y, i as f64, &self.cfg, robustness));
        }
    }

    /// `Window::fit::<2>` without robustness weights: `Aᵀb` as two dot
    /// products in tap order (the centre tap adds nothing to the second),
    /// then the row's eliminated system.
    #[inline]
    fn fit_unweighted(taps: &[Tap], ys: &[f64], centre: usize, solve: &Eliminated) -> f64 {
        let (mut atb0, mut atb1) = (0.0, 0.0);
        for (t, &v) in taps[..centre].iter().zip(&ys[..centre]) {
            atb0 += t.w * v;
            atb1 += t.wdx * v;
        }
        atb0 += taps[centre].w * ys[centre];
        for (t, &v) in taps[centre + 1..].iter().zip(&ys[centre + 1..]) {
            atb0 += t.w * v;
            atb1 += t.wdx * v;
        }
        solve.intercept(atb0, atb1)
    }

    /// `Window::fit::<2>` with robustness weights `r` over the same taps;
    /// `None` where it falls back to a mean.
    #[inline]
    fn fit_weighted(taps: &[Tap], ys: &[f64], r: &[f64], centre: usize) -> Option<f64> {
        let mut sums = WeightedSums::default();
        sums.side(&taps[..centre], &ys[..centre], &r[..centre], -(centre as f64));
        // the centre tap (dx = 0) adds to Σ w and Σ w·y only
        let w = taps[centre].w * r[centre];
        if w != 0.0 {
            sums.atb[0] += w * ys[centre];
            sums.ata[0][0] += w;
        }
        let right = centre + 1..;
        sums.side(&taps[right.clone()], &ys[right.clone()], &r[right], 1.0);
        let WeightedSums { mut ata, atb } = sums;
        // `wsum` equals `ata[0][0]` here: zero weights add nothing to it
        if ata[0][0] <= 1e-300 {
            return None;
        }
        ata[0][0] += 1e-12;
        ata[1][1] += 1e-12;
        ata[1][0] = ata[0][1];
        solve_intercept::<2>(ata, atb)
    }
}

/// The normal equations of one robustness-weighted degree-1 fit, summed in
/// tap order.
#[derive(Default)]
struct WeightedSums {
    ata: [[f64; 3]; 3],
    atb: [f64; 3],
}

impl WeightedSums {
    /// Adds the taps on one side of the centre, the first at distance `dx`.
    #[inline(always)]
    fn side(&mut self, taps: &[Tap], ys: &[f64], r: &[f64], mut dx: f64) {
        for ((t, &v), &rk) in taps.iter().zip(ys).zip(r) {
            let w = t.w * rk;
            if w != 0.0 {
                let wdx = w * dx;
                self.atb[0] += w * v;
                self.ata[0][0] += w;
                self.ata[0][1] += wdx;
                self.atb[1] += wdx * v;
                self.ata[1][1] += wdx * dx;
            }
            dx += 1.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{weighted_lstsq, Mat};
    use proptest::prelude::*;

    /// The reference LOESS fit: the same window and weights, solved through
    /// the generic dense path (design matrix, [`weighted_lstsq`] normal
    /// equations, [`Mat::solve`]). [`loess_point`] must match it bit for bit.
    fn loess_point_oracle(
        y: &[f64],
        x_eval: f64,
        cfg: &LoessConfig,
        robustness: Option<&[f64]>,
    ) -> f64 {
        let n = y.len();
        if n == 1 {
            return y[0];
        }
        let q = cfg.span.min(n).max(2);
        let center = x_eval.round().clamp(0.0, (n - 1) as f64) as usize;
        let mut lo = center.saturating_sub(q / 2);
        if lo + q > n {
            lo = n - q;
        }
        while lo > 0 && (x_eval - (lo - 1) as f64).abs() < ((lo + q - 1) as f64 - x_eval).abs()
        {
            lo -= 1;
        }
        while lo + q < n && ((lo + q) as f64 - x_eval).abs() < (x_eval - lo as f64).abs() {
            lo += 1;
        }
        let hi = lo + q;
        let mut dmax: f64 = 0.0;
        for j in lo..hi {
            dmax = dmax.max((j as f64 - x_eval).abs());
        }
        if dmax <= 0.0 {
            dmax = 1.0;
        }
        if cfg.span > n {
            dmax += ((cfg.span - n) / 2) as f64;
        }
        let k = cfg.degree + 1;
        let m = hi - lo;
        let mut design = Mat::zeros(m, k);
        let mut rhs = vec![0.0; m];
        let mut weights = vec![0.0; m];
        let mut wsum = 0.0;
        for (row, j) in (lo..hi).enumerate() {
            let d = (j as f64 - x_eval).abs() / dmax;
            let mut w = tricube(d);
            if let Some(r) = robustness {
                w *= r[j];
            }
            let dx = j as f64 - x_eval;
            design[(row, 0)] = 1.0;
            if k > 1 {
                design[(row, 1)] = dx;
            }
            if k > 2 {
                design[(row, 2)] = dx * dx;
            }
            rhs[row] = y[j];
            weights[row] = w;
            wsum += w;
        }
        if wsum <= 1e-300 {
            return rhs.iter().sum::<f64>() / m as f64;
        }
        match weighted_lstsq(&design, &rhs, Some(&weights), 1e-12) {
            Ok(coef) => coef[0],
            Err(_) => {
                let num: f64 = weights.iter().zip(&rhs).map(|(w, v)| w * v).sum();
                num / wsum
            }
        }
    }

    /// The reference `jump` smoother: fits at an explicit anchor list, then
    /// interpolates segment by segment.
    fn loess_oracle(y: &[f64], cfg: &LoessConfig, robustness: Option<&[f64]>) -> Vec<f64> {
        let n = y.len();
        if cfg.jump <= 1 || n <= 2 {
            return (0..n).map(|i| loess_point_oracle(y, i as f64, cfg, robustness)).collect();
        }
        let mut anchors: Vec<usize> = (0..n).step_by(cfg.jump).collect();
        if *anchors.last().unwrap() != n - 1 {
            anchors.push(n - 1);
        }
        let fitted: Vec<f64> =
            anchors.iter().map(|&i| loess_point_oracle(y, i as f64, cfg, robustness)).collect();
        let mut out = vec![0.0; n];
        for w in 0..anchors.len() - 1 {
            let (a, b) = (anchors[w], anchors[w + 1]);
            let (fa, fb) = (fitted[w], fitted[w + 1]);
            let len = (b - a) as f64;
            for i in a..=b {
                let t = (i - a) as f64 / len;
                out[i] = fa * (1.0 - t) + fb * t;
            }
        }
        out
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g:e} != {w:e}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Every fit — degrees 0/1/2, spans below and above `n`, the
        /// extension positions −1 and `n`, off-grid positions, any
        /// `jump`, robustness weights with zeros, negative weights (which
        /// force row swaps in the pivoting) and an all-zero window (the
        /// unweighted-mean fallback) — is bit-identical to the dense oracle.
        /// About half the cases carry an infinite value, where skipping a
        /// zero design entry (rather than adding `0 · ∞`) shows in the bits.
        #[test]
        fn loess_matches_dense_oracle_bit_for_bit(
            y in prop::collection::vec(-1e3f64..1e3, 1..48),
            span in 2usize..64,
            degree in 0usize..3,
            jump in 1usize..7,
            rob_mode in 0usize..5,
            rob in prop::collection::vec(0.0f64..1.0, 48..49),
            spike in 0usize..96,
        ) {
            let mut y = y;
            let n = y.len();
            if spike < n {
                y[spike] = f64::INFINITY;
            }
            let cfg = LoessConfig { span, degree, jump };
            let rob: Vec<f64> = match rob_mode {
                0 => Vec::new(),
                1 => rob[..n].to_vec(),
                // about a third of the points zeroed out
                2 => rob[..n].iter().map(|&r| if r < 0.33 { 0.0 } else { r }).collect(),
                3 => vec![0.0; n],
                _ => rob[..n].iter().map(|&r| 2.0 * r - 1.0).collect(),
            };
            let robustness = (rob_mode > 0).then_some(&rob[..]);
            let mut xs: Vec<f64> = (-1..=n as i64).map(|x| x as f64).collect();
            xs.extend([0.37, n as f64 * 0.5 + 0.25, n as f64 - 1.6]);
            for &x in &xs {
                let got = loess_point(&y, x, &cfg, robustness);
                let want = loess_point_oracle(&y, x, &cfg, robustness);
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "x={} n={} span={} degree={}: {:e} != {:e}",
                    x, n, span, degree, got, want
                );
            }
            let smooth = loess(&y, &cfg, robustness);
            assert_same_bits(&smooth, &loess_oracle(&y, &cfg, robustness), "loess");
            let mut want_ext = vec![loess_point_oracle(&y, -1.0, &cfg, robustness)];
            want_ext.extend(loess_oracle(&y, &cfg, robustness));
            want_ext.push(loess_point_oracle(&y, n as f64, &cfg, robustness));
            let mut ext = vec![0.0; n + 2];
            loess_extended_into(&y, &cfg, robustness, &mut ext);
            assert_same_bits(&ext, &want_ext, "extended");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// A degree-1, jump-1 plan reproduces [`loess_point`] at every
        /// output, bit for bit: spans below and above `n` (which inflate
        /// `dmax`), no robustness weights, random ones, negative ones (row
        /// swaps), a zeroed block wider than the span (the window-mean
        /// fallback) and a zeroed block around one huge weight (a zero
        /// pivot, the weighted-mean fallback). About half the cases carry
        /// an infinite value, which shows any tap touched with a zero
        /// weight.
        #[test]
        fn plan_matches_loess_point_bit_for_bit(
            y in prop::collection::vec(-1e3f64..1e3, 3..200),
            span_pick in 0usize..1000,
            rob_mode in 0usize..6,
            rob in prop::collection::vec(0.0f64..1.0, 200..201),
            block in 0usize..200,
            spike in 0usize..400,
        ) {
            let mut y = y;
            let n = y.len();
            if spike < n {
                y[spike] = f64::INFINITY;
            }
            let span = 2 + span_pick % (n + 19);
            let q = span.min(n);
            let (b0, b1) = (block % n, (block % n + q + 2).min(n));
            let rob: Vec<f64> = match rob_mode {
                0 => Vec::new(),
                1 => rob[..n].to_vec(),
                2 => rob[..n].iter().map(|&r| 2.0 * r - 1.0).collect(),
                3 => (0..n).map(|j| if (b0..b1).contains(&j) { 0.0 } else { rob[j] }).collect(),
                4 => (0..n)
                    .map(|j| match j {
                        _ if j == b0 => 1e6,
                        _ if (b0.saturating_sub(q)..b1).contains(&j) => 0.0,
                        _ => rob[j],
                    })
                    .collect(),
                _ => vec![0.0; n],
            };
            let robustness = (rob_mode > 0).then_some(&rob[..]);
            let cfg = LoessConfig::new(span);
            let plan = LoessPlan::new(n, &cfg);
            let mut got = vec![0.0; n];
            plan.apply(&y, robustness, &mut got);
            let want: Vec<f64> =
                (0..n).map(|i| loess_point(&y, i as f64, &cfg, robustness)).collect();
            assert_same_bits(&got, &want, &format!("n={n} span={span} rob_mode={rob_mode}"));
        }

        /// A plan of any other configuration is [`loess_into`].
        #[test]
        fn plan_of_another_config_is_loess_into(
            y in prop::collection::vec(-1e3f64..1e3, 1..48),
            span in 2usize..64,
            degree in 0usize..3,
            jump in 1usize..7,
        ) {
            let cfg = LoessConfig { span, degree, jump };
            let mut got = vec![0.0; y.len()];
            LoessPlan::new(y.len(), &cfg).apply(&y, None, &mut got);
            assert_same_bits(&got, &loess(&y, &cfg, None), "plan");
        }
    }

    /// Interior outputs share one tap row: a plan holds at most `q + 1`.
    #[test]
    fn plan_rows_are_shared() {
        for (n, span) in [(72, 25), (72, 37), (200, 7), (10, 30)] {
            let plan = LoessPlan::new(n, &LoessConfig::new(span));
            assert!(
                plan.rows.len() <= span.min(n) + 1,
                "n={n} span={span}: {}",
                plan.rows.len()
            );
        }
    }

    /// A singular system takes the weighted-mean fallback on both paths. A
    /// weight of 1e6 absorbs the 1e-12 ridge, so the one live design row
    /// `(1, 1)` leaves an exactly zero second pivot.
    #[test]
    fn singular_fit_falls_back_to_the_weighted_mean() {
        let y = [3.0, 5.0];
        let cfg = LoessConfig { span: 4, degree: 1, jump: 1 };
        let rob = [0.0, 1e6];
        let want = loess_point_oracle(&y, 0.0, &cfg, Some(&rob));
        let got = loess_point(&y, 0.0, &cfg, Some(&rob));
        assert_eq!(got.to_bits(), want.to_bits(), "{got:e} != {want:e}");
        assert_eq!(got, 5.0);
        let mut planned = [0.0; 2];
        LoessPlan::new(2, &cfg).apply(&y, Some(&rob), &mut planned);
        assert_eq!(planned[0].to_bits(), got.to_bits());
    }

    /// A symmetric window has a zero multiplier, which elimination skips:
    /// an infinite centre value then leaves the slope finite, and the
    /// intercept is `+∞` in a plan as in [`loess_point`], not NaN.
    #[test]
    fn zero_multiplier_is_skipped() {
        let y = [1.0, 2.0, f64::INFINITY, 4.0, 5.0];
        let cfg = LoessConfig::new(3);
        let mut planned = [0.0; 5];
        LoessPlan::new(5, &cfg).apply(&y, None, &mut planned);
        let want = loess_point(&y, 2.0, &cfg, None);
        assert_eq!(want, f64::INFINITY);
        assert_eq!(planned[2].to_bits(), want.to_bits());
    }

    /// A window whose robustness weights are all zero takes the unweighted
    /// window-mean fallback, in a plan as in [`loess_point`].
    #[test]
    fn zeroed_window_falls_back_to_the_window_mean() {
        let y: Vec<f64> = (0..9).map(|i| (i * i) as f64).collect();
        let cfg = LoessConfig::new(3);
        let rob = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0];
        let mut planned = [0.0; 9];
        LoessPlan::new(9, &cfg).apply(&y, Some(&rob), &mut planned);
        assert_eq!(planned[4], (9.0 + 16.0 + 25.0) / 3.0);
        assert_eq!(planned[4].to_bits(), loess_point(&y, 4.0, &cfg, Some(&rob)).to_bits());
    }

    #[test]
    fn tricube_shape() {
        assert!((tricube(0.0) - 1.0).abs() < 1e-12);
        assert_eq!(tricube(1.0), 0.0);
        assert_eq!(tricube(2.0), 0.0);
        assert!(tricube(0.5) > 0.0 && tricube(0.5) < 1.0);
    }

    #[test]
    fn loess_reproduces_linear_data_exactly() {
        let y: Vec<f64> = (0..50).map(|i| 3.0 + 0.5 * i as f64).collect();
        let cfg = LoessConfig::new(11);
        let s = loess(&y, &cfg, None);
        for i in 0..50 {
            assert!((s[i] - y[i]).abs() < 1e-8, "i={i}: {} vs {}", s[i], y[i]);
        }
    }

    #[test]
    fn degree2_reproduces_quadratic() {
        let y: Vec<f64> =
            (0..60).map(|i| 1.0 + 0.2 * i as f64 + 0.01 * (i * i) as f64).collect();
        let cfg = LoessConfig::new(15).degree(2);
        let s = loess(&y, &cfg, None);
        for i in 0..60 {
            assert!((s[i] - y[i]).abs() < 1e-6, "i={i}");
        }
    }

    #[test]
    fn smoothing_reduces_noise_variance() {
        // noisy constant -> smoothed variance should shrink a lot
        let y: Vec<f64> = (0..200).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let cfg = LoessConfig::new(21);
        let s = loess(&y, &cfg, None);
        assert!(crate::stats::variance(&s) < 0.05 * crate::stats::variance(&y));
    }

    #[test]
    fn jump_approximates_full_fit() {
        let y: Vec<f64> = (0..120)
            .map(|i| (i as f64 * 0.1).sin() + 0.05 * ((i * 7919) % 13) as f64)
            .collect();
        let full = loess(&y, &LoessConfig::new(25), None);
        let jumped = loess(&y, &LoessConfig::new(25).jump(5), None);
        let err = crate::stats::mae(&full, &jumped);
        assert!(err < 0.02, "jump interpolation error too large: {err}");
    }

    #[test]
    fn robustness_weights_suppress_outliers() {
        let mut y: Vec<f64> = (0..40).map(|i| i as f64 * 0.1).collect();
        y[20] = 50.0;
        let mut rob = vec![1.0; 40];
        rob[20] = 0.0;
        let cfg = LoessConfig::new(9);
        let with = loess(&y, &cfg, Some(&rob));
        // outlier has no influence: fitted value at 20 close to the line
        assert!((with[20] - 2.0).abs() < 0.05, "got {}", with[20]);
    }

    #[test]
    fn extension_extrapolates_linearly() {
        let y: Vec<f64> = (0..30).map(|i| 2.0 * i as f64).collect();
        let mut ext = vec![0.0; 32];
        loess_extended_into(&y, &LoessConfig::new(7), None, &mut ext);
        assert!((ext[0] - (-2.0)).abs() < 1e-6, "left extension {}", ext[0]);
        assert!((ext[31] - 60.0).abs() < 1e-6, "right extension {}", ext[31]);
    }

    #[test]
    fn single_point_input() {
        assert_eq!(loess(&[5.0], &LoessConfig::new(3), None), vec![5.0]);
    }
}
