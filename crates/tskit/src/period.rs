//! Seasonal-period detection.
//!
//! All STD and matrix-profile methods in the paper take the season length
//! `T` as input; the paper estimates it with TSB-UAD's ACF-based
//! `find_length` heuristic (§5.1.4). [`find_length`] is a faithful port;
//! [`detect_period`] generalizes it for periods beyond 300 points.

use crate::stats::acf;

/// TSB-UAD's `find_length` (slidingWindows.py): ACF up to lag 400, first 3
/// lags skipped, the local maximum with the highest ACF wins; falls back to
/// `125` when the winner is outside `(3, 300)` or no local maximum exists.
pub fn find_length(data: &[f64]) -> usize {
    const BASE: usize = 3;
    const NLAGS: usize = 400;
    const DEFAULT: usize = 125;
    let data = &data[..data.len().min(20_000)];
    if data.len() < 2 * BASE + 2 {
        return DEFAULT;
    }
    let auto = acf(data, NLAGS.min(data.len().saturating_sub(1)));
    if auto.len() <= BASE + 1 {
        return DEFAULT;
    }
    let tail = &auto[BASE..];
    let mut best: Option<(usize, f64)> = None;
    for i in 1..tail.len().saturating_sub(1) {
        if tail[i] > tail[i - 1] && tail[i] > tail[i + 1] {
            match best {
                Some((_, bv)) if tail[i] <= bv => {}
                _ => best = Some((i, tail[i])),
            }
        }
    }
    match best {
        Some((i, _)) => {
            let lag = i + BASE;
            if !(3..=300).contains(&lag) {
                DEFAULT
            } else {
                lag
            }
        }
        None => DEFAULT,
    }
}

/// Generalized ACF period detector for arbitrary period ranges: returns the
/// lag in `[min_period, max_period]` whose ACF is a local maximum with the
/// highest value, or `None` when the signal shows no periodic structure
/// (best local-max ACF below `min_acf`).
pub fn detect_period(
    data: &[f64],
    min_period: usize,
    max_period: usize,
    min_acf: f64,
) -> Option<usize> {
    if data.len() < 2 * min_period + 2 || min_period < 2 || max_period <= min_period {
        return None;
    }
    let max_lag = max_period.min(data.len() / 2) + 1;
    let auto = acf(data, max_lag);
    let mut best: Option<(usize, f64)> = None;
    for lag in min_period.max(2)..=max_lag.saturating_sub(1).min(max_period) {
        if auto[lag] > auto[lag - 1] && auto[lag] >= auto[lag + 1] && auto[lag] >= min_acf {
            match best {
                Some((_, bv)) if auto[lag] <= bv => {}
                _ => best = Some((lag, auto[lag])),
            }
        }
    }
    best.map(|(lag, _)| lag)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift-based white noise: unlike a Weyl sequence, it has no
    /// spurious short-lag autocorrelation.
    fn white(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }

    fn periodic(n: usize, t: usize, noise: f64) -> Vec<f64> {
        let mut st = 0x9E3779B97F4A7C15u64;
        (0..n)
            .map(|i| {
                let phase = 2.0 * std::f64::consts::PI * i as f64 / t as f64;
                phase.sin() + 0.4 * (2.0 * phase).cos() + 2.0 * noise * white(&mut st)
            })
            .collect()
    }

    #[test]
    fn find_length_detects_small_period() {
        for t in [24usize, 50, 120, 200] {
            let x = periodic(3000, t, 0.1);
            let est = find_length(&x);
            assert!((est as i64 - t as i64).abs() <= 2, "period {t}: estimated {est}");
        }
    }

    #[test]
    fn find_length_default_on_flat_series() {
        let x = vec![1.0; 1000];
        assert_eq!(find_length(&x), 125);
        assert_eq!(find_length(&[1.0, 2.0]), 125);
    }

    #[test]
    fn detect_period_handles_large_periods() {
        let t = 500;
        let x = periodic(4000, t, 0.05);
        let est = detect_period(&x, 50, 1000, 0.1).expect("period should be found");
        assert!((est as i64 - t as i64).abs() <= 5, "estimated {est}");
    }

    #[test]
    fn detect_period_none_on_noise() {
        let mut st = 0xDEADBEEFu64;
        let x: Vec<f64> = (0..2000).map(|_| white(&mut st)).collect();
        // pure white noise: no strong periodic local max
        assert_eq!(detect_period(&x, 10, 500, 0.5), None);
    }

    #[test]
    fn detect_period_rejects_degenerate_args() {
        let x = periodic(100, 10, 0.0);
        assert_eq!(detect_period(&x, 1, 10, 0.1), None); // min_period < 2
        assert_eq!(detect_period(&x, 10, 10, 0.1), None); // empty range
    }
}
