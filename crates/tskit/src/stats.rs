//! Descriptive statistics and correlation utilities.
//!
//! All functions are allocation-free unless they must return a vector, and
//! are defined for empty input where a sensible default exists (documented
//! per function).

/// Arithmetic mean; `0.0` for empty input.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().sum::<f64>() / x.len() as f64
}

/// Population variance; `0.0` for fewer than two points.
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Population standard deviation.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Minimum value; `+inf` for empty input.
pub fn min(x: &[f64]) -> f64 {
    x.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum value; `-inf` for empty input.
pub fn max(x: &[f64]) -> f64 {
    x.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Index of the maximum value (first one on ties); `None` for empty input.
pub fn argmax(x: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        match best {
            Some((_, bv)) if v <= bv => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// `q`-quantile (0 ≤ q ≤ 1) using linear interpolation between order
/// statistics. Sorts a copy; `O(n log n)`. Returns `0.0` for empty input.
pub fn quantile(x: &[f64], q: f64) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = x.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let w = pos - lo as f64;
        v[lo] * (1.0 - w) + v[hi] * w
    }
}

/// Median via [`quantile`] with `q = 0.5`.
pub fn median(x: &[f64]) -> f64 {
    quantile(x, 0.5)
}

/// Mean absolute error between two equal-length slices.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn mae(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "mae: length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
}

/// Mean squared error between two equal-length slices.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn mse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "mse: length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64
}

/// Z-normalizes `x` in place; returns `(mean, std)`. If the standard
/// deviation is below `eps`, only the mean is removed (std treated as 1).
pub fn znormalize(x: &mut [f64], eps: f64) -> (f64, f64) {
    let m = mean(x);
    let s = std_dev(x);
    let denom = if s < eps { 1.0 } else { s };
    for v in x.iter_mut() {
        *v = (*v - m) / denom;
    }
    (m, denom)
}

/// Sample autocorrelation function for lags `0..=max_lag` (biased estimator,
/// the convention used by TSB-UAD's period detector).
pub fn acf(x: &[f64], max_lag: usize) -> Vec<f64> {
    let n = x.len();
    let m = mean(x);
    let denom: f64 = x.iter().map(|v| (v - m) * (v - m)).sum();
    let mut out = Vec::with_capacity(max_lag + 1);
    if denom <= f64::EPSILON || n == 0 {
        out.resize(max_lag + 1, 0.0);
        if max_lag < out.len() {
            out[0] = 1.0;
        }
        return out;
    }
    for lag in 0..=max_lag.min(n.saturating_sub(1)) {
        let num: f64 = (0..n - lag).map(|i| (x[i] - m) * (x[i + lag] - m)).sum();
        out.push(num / denom);
    }
    out.resize(max_lag + 1, 0.0);
    out
}

/// First differences `x[i+1] - x[i]`; empty for input shorter than 2.
pub fn diff(x: &[f64]) -> Vec<f64> {
    if x.len() < 2 {
        return Vec::new();
    }
    x.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Strength of seasonality in `[0, 1]` following Hyndman's FPP definition:
/// `max(0, 1 - var(residual) / var(seasonal + residual))` computed from a
/// crude moving-average decomposition with period `t`.
pub fn seasonal_strength(x: &[f64], t: usize) -> f64 {
    if t < 2 || x.len() < 3 * t {
        return 0.0;
    }
    let trend = crate::smooth::centered_moving_average(x, t);
    let detrended: Vec<f64> = x.iter().zip(&trend).map(|(v, tr)| v - tr).collect();
    // Per-phase means form the seasonal estimate.
    let mut phase_sum = vec![0.0; t];
    let mut phase_cnt = vec![0usize; t];
    for (i, &d) in detrended.iter().enumerate() {
        phase_sum[i % t] += d;
        phase_cnt[i % t] += 1;
    }
    let seasonal: Vec<f64> = (0..detrended.len())
        .map(|i| phase_sum[i % t] / phase_cnt[i % t].max(1) as f64)
        .collect();
    let resid: Vec<f64> = detrended.iter().zip(&seasonal).map(|(d, s)| d - s).collect();
    let var_r = variance(&resid);
    let var_sr = variance(&detrended);
    if var_sr <= f64::EPSILON {
        return 0.0;
    }
    (1.0 - var_r / var_sr).max(0.0)
}

/// Streaming mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Current population variance (`0.0` with fewer than two points).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Current population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&x) - 2.5).abs() < 1e-12);
        assert!((variance(&x) - 1.25).abs() < 1e-12);
        assert!((std_dev(&x) - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn quantiles_and_median() {
        let x = [3.0, 1.0, 2.0];
        assert!((median(&x) - 2.0).abs() < 1e-12);
        assert!((quantile(&x, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&x, 1.0) - 3.0).abs() < 1e-12);
        assert!((quantile(&x, 0.25) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn errors_match_hand_computation() {
        assert!((mae(&[1.0, 2.0], &[2.0, 0.0]) - 1.5).abs() < 1e-12);
        assert!((mse(&[1.0, 2.0], &[2.0, 0.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn znormalize_zero_mean_unit_std() {
        let mut x = vec![2.0, 4.0, 6.0, 8.0];
        znormalize(&mut x, 1e-12);
        assert!(mean(&x).abs() < 1e-12);
        assert!((std_dev(&x) - 1.0).abs() < 1e-12);
        // constant input only gets centred
        let mut c = vec![3.0, 3.0];
        znormalize(&mut c, 1e-12);
        assert_eq!(c, vec![0.0, 0.0]);
    }

    #[test]
    fn acf_of_periodic_signal_peaks_at_period() {
        let n = 400;
        let t = 20usize;
        let x: Vec<f64> =
            (0..n).map(|i| (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()).collect();
        let a = acf(&x, 3 * t);
        assert!((a[0] - 1.0).abs() < 1e-9);
        // lag T correlation should be close to 1 and much higher than lag T/2
        assert!(a[t] > 0.9, "acf at period = {}", a[t]);
        assert!(a[t / 2] < 0.0);
    }

    #[test]
    fn first_differences() {
        assert_eq!(diff(&[1.0, 3.0, 6.0]), vec![2.0, 3.0]);
        assert!(diff(&[1.0]).is_empty());
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 5.0, 5.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn running_stats_matches_batch() {
        let x = [0.5, -1.0, 2.5, 3.0, 3.0, -2.0];
        let mut rs = RunningStats::new();
        for &v in &x {
            rs.push(v);
        }
        assert_eq!(rs.count(), 6);
        assert!((rs.mean() - mean(&x)).abs() < 1e-12);
        assert!((rs.variance() - variance(&x)).abs() < 1e-12);
    }

    #[test]
    fn seasonal_strength_separates_strong_and_weak() {
        let n = 600;
        let t = 24usize;
        let strong: Vec<f64> =
            (0..n).map(|i| (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()).collect();
        // deterministic pseudo-noise, weak seasonality
        let weak: Vec<f64> = (0..n)
            .map(|i| {
                let j = (i * 2654435761usize) % 1000;
                j as f64 / 1000.0
            })
            .collect();
        assert!(seasonal_strength(&strong, t) > 0.9);
        assert!(seasonal_strength(&weak, t) < 0.5);
    }
}
